//! The content-addressed label cache, end to end through the client API:
//! exact hits answered before admission, in-flight coalescing with fan-out
//! on the leader's completion, ghost execution when a cancelled leader
//! still has waiters — and the exactly-once / conservation invariants
//! (now including the `cache_hit` and `coalesced` buckets) under
//! cancellation storms across every backpressure policy.

use ams_core::framework::{AdaptiveModelScheduler, Budget};
use ams_core::predictor::OraclePredictor;
use ams_data::{Dataset, DatasetProfile, TruthTable};
use ams_models::ModelZoo;
use ams_serve::{
    AmsServer, BackpressurePolicy, CacheConfig, Completion, ServeConfig, SloClass, SloConfig,
    SubmitOutcome, Ticket,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

fn scheduler() -> AdaptiveModelScheduler {
    let zoo = ModelZoo::standard();
    let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
    AdaptiveModelScheduler::new(zoo, predictor, 0.5, 64)
}

fn truth() -> &'static TruthTable {
    static TRUTH: OnceLock<TruthTable> = OnceLock::new();
    TRUTH.get_or_init(|| {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 40, 64);
        TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
    })
}

/// Count events by kind: (labeled, shed, cancelled).
fn tally(events: &[Completion]) -> (u64, u64, u64) {
    let mut t = (0u64, 0u64, 0u64);
    for ev in events {
        match ev {
            Completion::Labeled(_) => t.0 += 1,
            Completion::Shed { .. } => t.1 += 1,
            Completion::Cancelled { .. } => t.2 += 1,
        }
    }
    t
}

/// A repetitive stream through the cache is lossless and deduplicated:
/// every repeat is answered as a hit or coalesces onto the in-flight
/// leader — never executed twice — and every delivered `Labeled` event
/// carries exactly the labels the scheduler produces for that item
/// serially, whether it came from a worker, the cache, or a fan-out.
#[test]
fn repeated_stream_hits_and_coalesces_losslessly() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth();
    let server = AmsServer::start(
        scheduler(),
        budget,
        ServeConfig {
            shards: 1,
            workers_per_shard: 1,
            max_batch: 4,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            cache: Some(CacheConfig::default()),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let mut by_ticket: Vec<(u64, usize)> = Vec::new();
    let mut issued = 0u64;
    // Ten distinct items, four submissions each, interleaved so repeats
    // land while their leader is queued (coalesce) or resolved (hit).
    for round in 0..4 {
        for idx in 0..10 {
            let item = table.item(idx);
            let outcome = client.submit(Arc::new(item.clone()));
            if round > 0 {
                assert!(
                    matches!(
                        outcome,
                        SubmitOutcome::Cached(_) | SubmitOutcome::Coalesced(_)
                    ),
                    "a repeat never re-executes"
                );
            }
            let ticket = outcome.ticket().expect("lossless config");
            by_ticket.push((ticket.id(), idx));
            issued += 1;
        }
    }
    let mut events = Vec::new();
    while let Some(ev) = client.recv() {
        events.push(ev);
    }
    let report = server.shutdown();
    assert_eq!(events.len() as u64, issued, "one event per ticket");
    let serial = scheduler();
    for ev in &events {
        let result = ev.labeled().expect("lossless run only labels");
        let &(_, idx) = by_ticket
            .iter()
            .find(|&&(id, _)| id == result.ticket)
            .expect("known ticket");
        let want = serial.label_item(table.item(idx), budget);
        assert_eq!(result.labels, want.labels, "item {idx}: labels");
        assert_eq!(result.executed, want.executed, "item {idx}: models");
        assert!((result.recall - want.recall).abs() < 1e-9);
    }
    // Dedup really happened: ten executions, thirty answered by the cache.
    assert_eq!(report.completed, 10);
    assert_eq!(report.cache_hit + report.coalesced, 30);
    assert_eq!(report.offered, issued);
    assert!(report.is_conserved(), "hits and coalesced stay conserved");
    let cache = report.cache.as_ref().expect("cache report");
    assert_eq!(cache.entries, 10, "one resolved entry per distinct item");
    assert_eq!(cache.insertions, 10);
    assert_eq!(cache.evictions, 0);
    // The cache answered for free: no queue slot, no virtual-GPU bill —
    // the billed work equals a ten-item run, not a forty-item one.
    assert_eq!(report.stats.items, 10);
}

/// Regression: `ClassReport::deadline_met` used to count only worker
/// completions while its `deadline_met_rate` denominator counted every
/// offered request, so one item submitted ten times under a 60 s class —
/// all ten clients labeled on time — reported a 10% rate. Cache hits and
/// coalesced followers are deliveries too, and count when on time.
#[test]
fn cache_answers_count_toward_deadline_met() {
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 1,
            workers_per_shard: 1,
            cache: Some(CacheConfig::default()),
            slo: Some(SloConfig::aware(vec![SloClass::new(
                "relaxed", 60_000, 1.0,
            )])),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let item = Arc::new(truth().item(0).clone());
    let mut on_time = 0;
    // The second five arrive after the first resolved: all exact hits.
    for _ in 0..2 {
        for _ in 0..5 {
            assert!(client.submit(Arc::clone(&item)).ticket().is_some());
        }
        while let Some(ev) = client.recv() {
            on_time += u64::from(ev.labeled().expect("lossless").deadline_met);
        }
    }
    let report = server.shutdown();
    assert_eq!(on_time, 10, "every client was labeled in time");
    assert_eq!(report.completed + report.cache_hit + report.coalesced, 10);
    assert!(report.cache_hit >= 5);
    let slo = report.slo.as_ref().expect("slo ledger");
    assert_eq!(slo.classes[0].deadline_met, 10);
    assert_eq!(slo.classes[0].deadline_met_rate(), 1.0);
    assert_eq!(slo.deadline_met_rate(), 1.0);
}

/// Cancellation storms against leaders that have followers, across every
/// backpressure policy: a cancelled leader with waiters is executed as a
/// ghost (billed, not completed) so its followers still complete; a shed
/// or evicted leader takes its followers down into the same shed bucket.
/// Every ticket resolves exactly once, the event tally matches the report
/// bucket for bucket, and both the count and value ledgers balance with
/// the `cache_hit`/`coalesced`/`value_cached` terms included.
#[test]
fn cancelled_leaders_promote_ghosts_across_policies() {
    let table = truth();
    for policy in [
        BackpressurePolicy::Block,
        BackpressurePolicy::Reject,
        BackpressurePolicy::ShedOldest,
    ] {
        let server = AmsServer::start(
            scheduler(),
            Budget::Deadline { ms: 900 },
            ServeConfig {
                shards: 1,
                workers_per_shard: 1,
                max_batch: 2,
                queue_capacity: 4,
                policy,
                // Real wall time per batch, so cancels race the workers
                // and the small queue genuinely overflows.
                exec_emulation_scale: 2e-3,
                cache: Some(CacheConfig::default()),
                slo: Some(SloConfig::aware(vec![
                    SloClass::new("interactive", 60_000, 4.0),
                    SloClass::new("bulk", 60_000, 1.0),
                ])),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let ctx = format!("policy {policy:?}");
        let mut issued = 0u64;
        let mut rejected = 0u64;
        let mut leaders: Vec<Ticket> = Vec::new();
        // Each round: one leader, two followers onto the same content,
        // then cancel the leader — the followers' completions must
        // survive it. Distinct items per round keep rounds independent.
        for (round, item) in table.items().iter().enumerate() {
            let class = round % 2;
            let mut follower_seen = false;
            for dup in 0..3 {
                let outcome = client.submit_class(Arc::new(item.clone()), class);
                if outcome.is_rejected() {
                    rejected += 1;
                    continue;
                }
                issued += 1;
                match outcome {
                    // Only the first submission of a content can lead; a
                    // later Enqueued means the first leader was already
                    // torn down (shed / evicted).
                    SubmitOutcome::Enqueued(t) | SubmitOutcome::EnqueuedShedOldest(t)
                        if dup == 0 =>
                    {
                        leaders.push(t);
                    }
                    SubmitOutcome::Coalesced(_) => follower_seen = true,
                    _ => {}
                }
            }
            // Cancel the round's leader while its followers wait on it.
            if follower_seen && round % 2 == 0 {
                if let Some(t) = leaders.pop() {
                    t.cancel();
                }
            }
        }
        drop(leaders);
        let report = server.shutdown();
        let mut events = Vec::new();
        while let Some(ev) = client.recv() {
            events.push(ev);
        }
        assert_eq!(events.len() as u64, issued, "{ctx}: one event per ticket");
        let ids: HashSet<u64> = events.iter().map(Completion::ticket).collect();
        assert_eq!(ids.len() as u64, issued, "{ctx}: no ticket resolved twice");
        let (labeled, shed, cancelled) = tally(&events);
        assert_eq!(
            labeled,
            report.completed + report.cache_hit + report.coalesced,
            "{ctx}: labeled events = worker completions + cache answers"
        );
        assert_eq!(cancelled, report.cancelled, "{ctx}");
        assert_eq!(
            shed,
            report.shed_admission + report.shed_oldest + report.shed_deadline,
            "{ctx}: follower sheds land in the ordinary buckets"
        );
        assert_eq!(rejected, report.rejected, "{ctx}");
        assert!(report.is_conserved(), "{ctx}: global conservation");
        assert_eq!(report.offered, issued + rejected, "{ctx}");
        assert!(report.cancelled > 0, "{ctx}: some cancels must win");
        assert!(report.coalesced > 0, "{ctx}: some followers must complete");
        let slo = report.slo.as_ref().expect("slo ledger");
        assert!(slo.is_conserved(), "{ctx}: per-class ledgers balance");
        for c in &slo.classes {
            assert!(
                (c.value_offered
                    - c.value_completed
                    - c.value_shed
                    - c.value_cancelled
                    - c.value_cached)
                    .abs()
                    < 1e-6,
                "{ctx} class {}: value ledger balances with value_cached",
                c.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactly-once under the cache: arbitrary shard/batch/queue shapes,
    /// all three policies, a repetitive stream (arbitrary repeat span),
    /// and a cancellation storm of arbitrary phase that hits leaders and
    /// followers alike. Every ticket resolves to one terminal event and
    /// the conservation equation — with `cache_hit` and `coalesced` —
    /// holds globally and per class.
    #[test]
    fn exactly_once_with_cache_and_cancellation(
        shards in 1usize..4,
        workers_per_shard in 1usize..3,
        max_batch in 1usize..6,
        queue_capacity in 2usize..10,
        policy_idx in 0usize..3,
        repeat_span in 1usize..8,
        cancel_stride in 2usize..5,
    ) {
        let policy = [
            BackpressurePolicy::Block,
            BackpressurePolicy::Reject,
            BackpressurePolicy::ShedOldest,
        ][policy_idx];
        let table = truth();
        let server = AmsServer::start(
            scheduler(),
            Budget::Deadline { ms: 900 },
            ServeConfig {
                shards,
                workers_per_shard,
                max_batch,
                queue_capacity,
                policy,
                exec_emulation_scale: 2e-3,
                cache: Some(CacheConfig::default()),
                slo: Some(SloConfig::aware(vec![
                    SloClass::new("interactive", 60_000, 4.0),
                    SloClass::new("bulk", 60_000, 1.0),
                ])),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let mut issued = 0u64;
        let mut rejected = 0u64;
        let mut storm: Vec<Ticket> = Vec::new();
        for i in 0..60usize {
            // Repeat items with span `repeat_span`: span 1 is one item
            // submitted 60 times, span 7 cycles seven contents.
            let item = table.item(i % repeat_span);
            match client.submit_class(Arc::new(item.clone()), i % 2).ticket() {
                Some(ticket) => {
                    issued += 1;
                    if i % cancel_stride == 0 {
                        storm.push(ticket);
                    }
                }
                None => rejected += 1,
            }
            if i % 8 == 7 {
                for t in storm.drain(..) {
                    t.cancel();
                }
            }
        }
        for t in storm.drain(..) {
            t.cancel();
        }
        let report = server.shutdown();
        let mut events = Vec::new();
        while let Some(ev) = client.recv() {
            events.push(ev);
        }
        prop_assert_eq!(events.len() as u64, issued, "one event per ticket");
        let ids: HashSet<u64> = events.iter().map(Completion::ticket).collect();
        prop_assert_eq!(ids.len() as u64, issued, "ids unique");
        let (labeled, shed, cancelled) = tally(&events);
        prop_assert_eq!(labeled, report.completed + report.cache_hit + report.coalesced);
        prop_assert_eq!(cancelled, report.cancelled);
        prop_assert_eq!(
            shed,
            report.shed_admission + report.shed_oldest + report.shed_deadline
        );
        prop_assert_eq!(rejected, report.rejected);
        prop_assert!(report.is_conserved(), "conservation with the cache");
        prop_assert_eq!(report.offered, issued + rejected);
        let slo = report.slo.as_ref().expect("slo ledger");
        prop_assert!(slo.is_conserved(), "class ledgers balance");
        for c in &slo.classes {
            prop_assert!(
                (c.value_offered - c.value_completed - c.value_shed
                    - c.value_cancelled - c.value_cached).abs() < 1e-6,
                "class {} value ledger", c.name
            );
        }
    }
}
