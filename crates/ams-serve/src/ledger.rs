//! The outcome ledger: the one place a request outcome is counted.
//!
//! Offered, enqueued, and each terminal outcome (labeled, cache hit,
//! coalesced, rejected, a shed path, cancelled) is recorded in one step:
//! under the producer's cell lock the ledger emits the outcome's event
//! ([`crate::obs`]), then bumps the bucket of that event kind. A reader
//! that merges the cells sees a subset of the emitted events, the order
//! `ServeReport::events_reconcile` relies on. Every report is built from
//! one [`Ledger::merge`].
//!
//! Cells are per producer, keyed like the obs rings: one per shard for the
//! submit side (clients, eviction, cancellation, abort), picked by
//! `key % shards`, and one per worker, which takes it once per [`Batch`].
//! Cell locks are leaf locks. A poisoned cell is recovered with
//! [`PoisonError::into_inner`]: nothing under the lock can panic part-way
//! through applying a record, so the counts are valid at every step.

use crate::completion::ShedReason;
use crate::obs::{Event, EventKind, ServerObs, KIND_COUNT, NO_SHARD};
use crate::telemetry::LatencyHistogram;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What happened to a request; each outcome has its own bucket, that of
/// its event kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Outcome {
    Offered,
    Enqueued,
    /// Labeled by a worker; `met` = total latency within the deadline.
    Completed {
        met: bool,
    },
    CacheHit,
    /// Delivered by a leader's fan-out; `met` = own wait within deadline.
    Coalesced {
        met: bool,
    },
    Rejected,
    Shed(ShedReason),
    /// Cancelled by the client before a worker claimed the request.
    Cancelled,
}

impl Outcome {
    fn kind(self) -> EventKind {
        match self {
            Outcome::Offered => EventKind::Admitted,
            Outcome::Enqueued => EventKind::Enqueued,
            Outcome::Completed { .. } => EventKind::Labeled,
            Outcome::CacheHit => EventKind::CacheHit,
            Outcome::Coalesced { .. } => EventKind::Coalesced,
            Outcome::Rejected => EventKind::Rejected,
            Outcome::Shed(reason) => EventKind::of_shed(reason),
            Outcome::Cancelled => EventKind::Cancelled,
        }
    }
}

/// One outcome of one request and the event that reports it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    outcome: Outcome,
    value: f64,
    ev: Event,
}

impl Record {
    /// `outcome` of request `req` (ticket `ticket`, or `NO_TICKET`) of
    /// `class`, carrying its predicted (weighted) `value`.
    pub(crate) fn new(outcome: Outcome, class: usize, value: f64, req: u64, ticket: u64) -> Self {
        let late = matches!(
            outcome,
            Outcome::Completed { met: false } | Outcome::Coalesced { met: false }
        );
        let ev = Event {
            at_us: 0,
            req,
            ticket,
            shard: NO_SHARD,
            class: class as u32,
            kind: outcome.kind(),
            detail: 0,
            flag: late,
        };
        Self { outcome, value, ev }
    }

    pub(crate) fn on_shard(mut self, shard: usize) -> Self {
        self.ev.shard = shard as u32;
        self
    }

    /// The event's detail word; for [`Outcome::Completed`] the total
    /// latency in µs, which the class latency histogram records too.
    pub(crate) fn detail(mut self, detail: u64) -> Self {
        self.ev.detail = detail;
        self
    }
}

/// One class's buckets, indexed by event kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ClassTally {
    count: [u64; KIND_COUNT],
    value: [f64; KIND_COUNT],
    /// Deliveries within the deadline: completions and coalesced
    /// followers by their own latency, cache hits always.
    pub(crate) deadline_met: u64,
    /// Value of completions delivered past the deadline.
    pub(crate) value_late: f64,
    /// Total latency of completions.
    pub(crate) total: LatencyHistogram,
}

impl ClassTally {
    /// Outcomes recorded under `kind`.
    pub(crate) fn count(&self, kind: EventKind) -> u64 {
        self.count[kind as usize]
    }

    /// Summed value of the outcomes recorded under `kinds`.
    pub(crate) fn value(&self, kinds: &[EventKind]) -> f64 {
        kinds.iter().map(|&k| self.value[k as usize]).sum()
    }

    fn merge(&mut self, o: &ClassTally) {
        for k in 0..KIND_COUNT {
            self.count[k] += o.count[k];
            self.value[k] += o.value[k];
        }
        self.deadline_met += o.deadline_met;
        self.value_late += o.value_late;
        self.total.merge(&o.total);
    }
}

/// Every class's buckets (index = class).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Tally {
    classes: Vec<ClassTally>,
}

impl Tally {
    /// One class's buckets (zero when the class never recorded).
    pub(crate) fn class(&self, class: usize) -> ClassTally {
        self.classes.get(class).cloned().unwrap_or_default()
    }

    /// All classes folded into one.
    pub(crate) fn total(&self) -> ClassTally {
        let mut all = ClassTally::default();
        self.classes.iter().for_each(|c| all.merge(c));
        all
    }

    fn merge(&mut self, other: &Tally) {
        if self.classes.len() < other.classes.len() {
            self.classes
                .resize_with(other.classes.len(), Default::default);
        }
        for (into, c) in self.classes.iter_mut().zip(&other.classes) {
            into.merge(c);
        }
    }
}

/// The server's outcome ledger: per-producer cells, one merge.
#[derive(Debug)]
pub(crate) struct Ledger {
    /// `shards` submit-side cells, then one cell per worker.
    cells: Vec<Mutex<Tally>>,
    shards: usize,
    obs: Option<Arc<ServerObs>>,
}

impl Ledger {
    pub(crate) fn new(shards: usize, workers: usize, obs: Option<Arc<ServerObs>>) -> Self {
        let shards = shards.max(1);
        Self {
            cells: (0..shards + workers).map(|_| Mutex::default()).collect(),
            shards,
            obs,
        }
    }

    pub(crate) fn obs(&self) -> Option<&Arc<ServerObs>> {
        self.obs.as_ref()
    }

    /// `cell` is in range by construction: submit keys are reduced
    /// `% shards`, worker indices are below the worker count.
    fn lock(&self, cell: usize) -> MutexGuard<'_, Tally> {
        self.cells[cell]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn stamp(&self, mut rec: Record) -> Record {
        rec.ev.at_us = self.obs.as_ref().map_or(0, |o| o.now_us());
        rec
    }

    /// Record one submit-side outcome in its request's cell.
    pub(crate) fn record(&self, rec: Record) {
        self.record_if(rec, || true);
    }

    /// Record `rec` only if `cond`, run under the cell lock, returns
    /// `true`; returns what `cond` returned. Cancellation passes its slot
    /// CAS here, so the win and its bucket are one step to every reader:
    /// a worker that skips the resolved slot can never let a report be
    /// folded before the cancellation counts.
    pub(crate) fn record_if(&self, rec: Record, cond: impl FnOnce() -> bool) -> bool {
        let cell = rec.ev.req as usize % self.shards;
        let mut tally = self.lock(cell);
        let won = cond();
        if won {
            self.apply(&mut tally, cell, &self.stamp(rec));
        }
        won
    }

    /// A submit-side producer's batch, in the cell picked by `key`.
    pub(crate) fn batch(&self, key: u64) -> Batch<'_> {
        self.batch_in(key as usize % self.shards)
    }

    /// Worker `worker`'s batch, in its own cell.
    pub(crate) fn worker_batch(&self, worker: usize) -> Batch<'_> {
        self.batch_in(self.shards + worker)
    }

    fn batch_in(&self, cell: usize) -> Batch<'_> {
        Batch {
            ledger: self,
            cell,
            recs: Vec::new(),
        }
    }

    /// The only code that bumps a bucket: the event first, then the
    /// count, under the caller's cell lock.
    fn apply(&self, tally: &mut Tally, cell: usize, rec: &Record) {
        if let Some(obs) = &self.obs {
            match cell.checked_sub(self.shards) {
                Some(worker) => obs.emit_worker(worker, rec.ev),
                None => obs.emit(rec.ev),
            }
        }
        let class = rec.ev.class as usize;
        if tally.classes.len() <= class {
            tally.classes.resize_with(class + 1, Default::default);
        }
        let t = &mut tally.classes[class];
        t.count[rec.ev.kind as usize] += 1;
        t.value[rec.ev.kind as usize] += rec.value;
        match rec.outcome {
            Outcome::Completed { met } => {
                t.total.record_us(rec.ev.detail);
                t.deadline_met += u64::from(met);
                if !met {
                    t.value_late += rec.value;
                }
            }
            Outcome::Coalesced { met } => t.deadline_met += u64::from(met),
            Outcome::CacheHit => t.deadline_met += 1,
            _ => {}
        }
    }

    /// Every cell folded into one tally.
    pub(crate) fn merge(&self) -> Tally {
        let mut all = Tally::default();
        for cell in 0..self.cells.len() {
            all.merge(&self.lock(cell));
        }
        all
    }
}

/// One producer's records, committed under a single cell lock when the
/// batch is dropped, so no path out of a producer can lose a record.
/// Each record is stamped with the event clock when pushed.
#[derive(Debug)]
pub(crate) struct Batch<'a> {
    ledger: &'a Ledger,
    cell: usize,
    recs: Vec<Record>,
}

impl Batch<'_> {
    pub(crate) fn push(&mut self, rec: Record) {
        self.recs.push(self.ledger.stamp(rec));
    }
}

impl Drop for Batch<'_> {
    fn drop(&mut self) {
        if self.recs.is_empty() {
            return;
        }
        let mut tally = self.ledger.lock(self.cell);
        for rec in &self.recs {
            self.ledger.apply(&mut tally, self.cell, rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NO_TICKET;
    use proptest::prelude::*;

    const SHARDS: usize = 2;
    const WORKERS: usize = 3;
    const TERMINAL: [Outcome; 11] = [
        Outcome::Completed { met: true },
        Outcome::Completed { met: false },
        Outcome::CacheHit,
        Outcome::Coalesced { met: true },
        Outcome::Coalesced { met: false },
        Outcome::Rejected,
        Outcome::Shed(ShedReason::Admission),
        Outcome::Shed(ShedReason::Overflow),
        Outcome::Shed(ShedReason::Deadline),
        Outcome::Shed(ShedReason::Drain),
        Outcome::Cancelled,
    ];

    /// Every offered request settled in exactly one terminal bucket.
    fn conserved(c: &ClassTally) -> bool {
        let settled = EventKind::ALL.into_iter().filter(|k| k.is_terminal());
        c.count(EventKind::Admitted) == settled.map(|k| c.count(k)).sum::<u64>()
    }

    proptest! {
        /// Random request lifecycles (offered, then one terminal outcome
        /// from any producer cell) over three classes: the merge is
        /// conserved, per-class counts and values match an independent
        /// model and sum to the totals, and folding the cells in reverse
        /// order gives the same tally. Values are multiples of 1/4, so
        /// every float sum is exact.
        #[test]
        fn merge_is_conserved_exact_and_order_free(
            reqs in prop::collection::vec(
                (0usize..11, 0usize..3, 0u32..40, 0usize..SHARDS + WORKERS),
                0..80,
            ),
        ) {
            let ledger = Ledger::new(SHARDS, WORKERS, None);
            // Per class: (count, value) by TERMINAL index, and on-time.
            let mut model = [([(0u64, 0.0f64); 11], 0u64); 3];
            for (req, &(end, class, quarters, producer)) in reqs.iter().enumerate() {
                let value = f64::from(quarters) / 4.0;
                let rec = |o| Record::new(o, class, value, req as u64, NO_TICKET);
                ledger.record(rec(Outcome::Offered));
                let mut batch = match producer.checked_sub(SHARDS) {
                    Some(worker) => ledger.worker_batch(worker),
                    None => ledger.batch(producer as u64),
                };
                batch.push(rec(TERMINAL[end]).detail(req as u64));
                let (ends, on_time) = &mut model[class];
                ends[end].0 += 1;
                ends[end].1 += value;
                *on_time += u64::from(matches!(end, 0 | 2 | 3));
            }
            let merged = ledger.merge();
            let total = merged.total();
            prop_assert!(conserved(&total));
            let (mut offered, mut value, mut met) = (0, 0.0, 0);
            for (class, (ends, on_time)) in model.iter().enumerate() {
                let c = merged.class(class);
                prop_assert!(conserved(&c));
                for kind in EventKind::ALL.into_iter().filter(|k| k.is_terminal()) {
                    let of_kind = (0..11).filter(|&e| TERMINAL[e].kind() == kind);
                    let (n, v) = of_kind.fold((0, 0.0), |(n, v), e| (n + ends[e].0, v + ends[e].1));
                    prop_assert_eq!((c.count(kind), c.value(&[kind])), (n, v));
                }
                prop_assert_eq!(c.deadline_met, *on_time);
                offered += c.count(EventKind::Admitted);
                value += c.value(&[EventKind::Admitted]);
                met += c.deadline_met;
            }
            let admitted = EventKind::Admitted;
            prop_assert_eq!(offered, reqs.len() as u64);
            prop_assert_eq!(
                (total.count(admitted), total.value(&[admitted]), total.deadline_met),
                (offered, value, met)
            );
            let mut reversed = Tally::default();
            for cell in (0..SHARDS + WORKERS).rev() {
                reversed.merge(&ledger.lock(cell));
            }
            prop_assert_eq!(reversed, merged);
        }
    }

    /// A thread that panics while holding a cell poisons its mutex; the
    /// ledger recovers the guard and still merges a conserved tally.
    #[test]
    fn poisoned_cell_still_merges_conserved() {
        let ledger = Arc::new(Ledger::new(1, 1, None));
        let rec = |o| Record::new(o, 0, 1.0, 0, NO_TICKET);
        ledger.record(rec(Outcome::Offered));
        let poisoner = Arc::clone(&ledger);
        let died = std::thread::spawn(move || {
            poisoner.record_if(rec(Outcome::Cancelled), || panic!("injected"))
        })
        .join();
        assert!(died.is_err() && ledger.cells[0].is_poisoned());
        ledger.record(rec(Outcome::CacheHit));
        let total = ledger.merge().total();
        assert!(conserved(&total));
        assert_eq!(total.count(EventKind::CacheHit), 1);
        assert_eq!(total.count(EventKind::Cancelled), 0);
    }
}
