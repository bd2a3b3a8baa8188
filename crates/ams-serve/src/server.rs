//! The serving front-end: sharded bounded queues feeding per-shard worker
//! pools over one shared [`AdaptiveModelScheduler`].
//!
//! Life of a request: `submit` routes the item to a shard — by scene-id
//! hash, or by *model affinity* (see [`crate::router`]) so that requests
//! predicted to run the same models coalesce on the same shard — and
//! pushes it into that shard's queue under the configured backpressure
//! policy. A shard worker pops up to the shard's current batch limit,
//! sheds requests whose age has already reached the request timeout,
//! labels the rest through the scheduler, coalesces the batch's model
//! executions into batched invocations on the virtual GPU pool (the
//! `ams-sim` batching model — one memory acquisition and one setup charge
//! per model, marginal cost per extra item), and records the queue-wait /
//! execute latency split. With adaptive batching enabled, each shard's
//! batch limit is retuned online: AIMD on the observed total-latency p99
//! against [`AdaptiveBatchConfig::target_p99_ms`], with the growth step
//! bounded by the calibrated [`BatchLatencyModel`] so the controller never
//! *predictably* overshoots its own target. `shutdown` closes the queues,
//! drains every worker gracefully, and merges the per-worker shards into
//! one [`ServeReport`].
//!
//! ## The client API
//!
//! [`AmsServer::client`] opens a request/response [`Client`]: its
//! `submit`/`submit_class` return `SubmitOutcome<Ticket>`, where the
//! [`Ticket`] is a cancellable handle tied to exactly one terminal
//! [`Completion`] event — `Labeled` (the request's own labels, chosen
//! models, value banked, queue-wait/execute breakdown), `Shed` (which
//! loss path took it, delivered at eviction time), or `Cancelled`.
//! Events arrive on the client's bounded completion queue
//! ([`Client::recv`] / [`Client::try_recv`] / [`Client::drain`]). The
//! original fire-and-forget [`AmsServer::submit`] survives as a thin
//! wrapper over the same path with no ticket issued, so aggregate-only
//! callers (and the serve==serial equivalence gates) are untouched.
//! Dropping an [`AmsServer`] without calling `shutdown` aborts it:
//! queued-but-unserved requests resolve to `Shed(Drain)` and every worker
//! is joined — no detached threads survive the drop.

use crate::adapt::{AdaptConfig, AdaptReport, AdaptRuntime, AdaptShared, WorkerAdapt};
use crate::cache::{
    CacheConfig, CacheReport, CachedResult, Follower, LabelCache, Lookup, PendingEntry,
};
use crate::completion::{
    Completion, CompletionQueue, CompletionSlot, LabelResult, ShedReason, Ticket,
};
use crate::ledger::{Ledger, Outcome, Record};
use crate::obs::{
    CacheGauges, Event, EventKind, MetricsSnapshot, ObsConfig, ObsReport, ServerObs, ShardSample,
    TraceReport, NO_TICKET,
};
use crate::queue::{BackpressurePolicy, Request, ShardQueue, SubmitOutcome};
use crate::router::{fib_shard, Router, RoutingMode};
use crate::telemetry::{LatencyHistogram, LatencySummary};
use ams_core::framework::{AdaptiveModelScheduler, Budget};
use ams_core::streaming::StreamStats;
use ams_data::ItemTruth;
use ams_models::ModelId;
use ams_sim::{batched_makespan, BatchLatencyModel, Job};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Online batch-limit control: AIMD on the tail latency, bounded by the
/// calibrated batch latency model.
///
/// Each shard starts at the server's configured `max_batch` (clamped into
/// `[min_batch, max_batch]` below) and retunes after every `window`
/// completed requests:
///
/// * observed total-latency p99 **above** `target_p99_ms` → multiplicative
///   decrease (`limit × decrease_factor`, floored at `min_batch`);
/// * otherwise → additive increase (`limit + increase_step`, capped at
///   `max_batch`) — but only if the [`BatchLatencyModel`] predicts the
///   grown batch's execute tail still fits the target. The model's
///   [`growth_ratio`](BatchLatencyModel::growth_ratio) is scale-free, so
///   the prediction `queue_p99 + exec_p99 × ratio` needs no knowledge of
///   absolute model latencies: the step is bounded before it is taken
///   instead of oscillating through a violation it could have foreseen.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveBatchConfig {
    /// Wall-clock total-latency (queue wait + execute) p99 target, ms.
    pub target_p99_ms: u64,
    /// AIMD floor: the limit never shrinks below this. Min 1.
    pub min_batch: usize,
    /// AIMD ceiling: the limit never grows past this.
    pub max_batch: usize,
    /// Completed requests per shard between adjustments. Min 1.
    pub window: u64,
    /// Multiplicative decrease factor in `(0, 1)` applied on violation.
    pub decrease_factor: f64,
    /// Additive increase per compliant window.
    pub increase_step: usize,
}

impl Default for AdaptiveBatchConfig {
    /// 50 ms p99 target, limits in `[1, 32]`, retune every 16 requests,
    /// halve on violation, grow by one otherwise.
    fn default() -> Self {
        Self {
            target_p99_ms: 50,
            min_batch: 1,
            max_batch: 32,
            window: 16,
            decrease_factor: 0.5,
            increase_step: 1,
        }
    }
}

/// One request class of the service-level objective: a deadline and a
/// value weight.
///
/// A request of this class must complete within `deadline_ms` of entering
/// its queue to be worth anything; its predicted label value (the
/// scheduler's cheap affinity-value scan, computed during routing) is
/// scaled by `weight`, so an interactive class can be worth several times
/// a bulk class to the shedding economics. The paper's objective is the
/// aggregate *value* of labels produced under a time budget — the class
/// carries exactly the two numbers that objective needs per request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloClass {
    /// Stable class name for reports.
    pub name: String,
    /// Wall-clock completion deadline from enqueue, ms.
    pub deadline_ms: u64,
    /// Multiplier on the request's predicted label value.
    pub weight: f64,
    /// Admission reservation: the fraction of every shard queue's slots
    /// guaranteed to this class (0.0 = no reserve, purely shared slots).
    /// A burst of another class can fill the shared pool but never the
    /// slots this class holds in reserve, so it cannot starve this class
    /// of *admission*. Fractions are clamped so the per-queue reserved
    /// slots never exceed the capacity (earlier classes keep their full
    /// reserve).
    pub reserve: f64,
}

impl SloClass {
    /// A named class with the given deadline and weight (no reservation).
    pub fn new(name: impl Into<String>, deadline_ms: u64, weight: f64) -> Self {
        Self {
            name: name.into(),
            deadline_ms,
            weight: weight.max(0.0),
            reserve: 0.0,
        }
    }

    /// Guarantee the class `fraction` of every shard queue's slots at
    /// admission (clamped into `[0, 1]`).
    pub fn with_reserve(mut self, fraction: f64) -> Self {
        self.reserve = fraction.clamp(0.0, 1.0);
        self
    }
}

/// SLO-aware admission and shedding configuration.
///
/// With classes configured, every request carries a deadline and a
/// weighted value, and three behaviors become selectable (all off =
/// "blind" mode — identical scheduling to a classless server, but with the
/// per-class value/latency ledger still recorded, which is what makes an
/// honest blind-vs-aware comparison on the same stream possible):
///
/// * **admission control** — `submit` predicts the shard's queue wait
///   (depth × the amortized per-request batch time the workers publish,
///   i.e. the same headroom signal the adaptive batch controller tunes
///   against) and sheds a request *before* it occupies a slot when the
///   prediction already exceeds its deadline;
/// * **value-weighted shedding** — on ShedOldest overflow, evict the
///   queued request with the worst value-per-remaining-deadline (expired
///   requests first — they are dead weight) instead of the head;
/// * **EDF dequeue** — workers assemble batches around the
///   earliest-deadline request instead of the oldest, composing with
///   signature coalescing (the urgent head still gets a signature-pure
///   batch).
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// The request classes. Class 0 is the default for
    /// [`AmsServer::submit`]; [`AmsServer::submit_class`] picks others.
    /// Normalized to at least one class at server start.
    pub classes: Vec<SloClass>,
    /// Shed at admission when the predicted queue wait exceeds the
    /// request's deadline.
    pub admission_control: bool,
    /// Evict the worst value-per-remaining-deadline request on overflow
    /// instead of the head.
    pub value_weighted_shedding: bool,
    /// Earliest-deadline-first head selection at dequeue.
    pub edf_dequeue: bool,
}

impl SloConfig {
    /// All three SLO-aware behaviors on.
    pub fn aware(classes: Vec<SloClass>) -> Self {
        Self {
            classes,
            admission_control: true,
            value_weighted_shedding: true,
            edf_dequeue: true,
        }
    }

    /// Classes tracked (deadlines, values, per-class ledger) but every
    /// SLO-aware behavior off: oldest-first eviction, FIFO dequeue, no
    /// admission control — the blind baseline.
    pub fn blind(classes: Vec<SloClass>) -> Self {
        Self {
            classes,
            admission_control: false,
            value_weighted_shedding: false,
            edf_dequeue: false,
        }
    }
}

impl Default for SloConfig {
    /// One "default" class: 1 s deadline, unit weight, all behaviors on.
    fn default() -> Self {
        Self::aware(vec![SloClass::new("default", 1_000, 1.0)])
    }
}

/// Serving front-end configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shards (each with its own bounded queue). Min 1.
    pub shards: usize,
    /// Workers per shard. Min 1.
    pub workers_per_shard: usize,
    /// Pending-request capacity of each shard queue. Min 1.
    pub queue_capacity: usize,
    /// What a full queue does to the next submission.
    pub policy: BackpressurePolicy,
    /// How submissions map to shards: scene-id hash or model-affinity
    /// routing (see [`crate::router`]).
    pub routing: RoutingMode,
    /// Max requests a worker coalesces into one batched admission. Min 1.
    /// With [`ServeConfig::adaptive`] set this is the *starting* limit;
    /// the controller then retunes each shard online.
    pub max_batch: usize,
    /// Online per-shard batch-limit control (`None` keeps `max_batch`
    /// fixed).
    pub adaptive: Option<AdaptiveBatchConfig>,
    /// Batching linger, ms: once a worker sees the first queued request it
    /// waits up to this long for its batch to fill before executing
    /// (0 = pop immediately). A bounded latency deposit that buys fuller,
    /// better-amortized batches on lightly loaded shards.
    pub batch_linger_ms: u64,
    /// Calibrated setup + marginal latency split for batched invocations.
    pub batch_model: BatchLatencyModel,
    /// Virtual GPU pool each batched invocation packs into, MB.
    pub pool_mb: u32,
    /// Deadline-aware shedding: a dequeued request whose queue age has
    /// reached this many wall-clock milliseconds is shed, not executed
    /// (`None` disables; `Some(0)` sheds everything — useful in tests).
    /// With [`ServeConfig::slo`] set, the per-class deadlines govern
    /// instead and this field is ignored.
    pub request_timeout_ms: Option<u64>,
    /// SLO classes plus the SLO-aware admission/shedding behaviors
    /// (`None` = classless serving, every request unit-valued and
    /// deadline-governed by `request_timeout_ms` alone).
    pub slo: Option<SloConfig>,
    /// Wall-clock milliseconds slept per *virtual* millisecond of each
    /// batch's execution makespan (see
    /// [`ams_core::streaming::StreamProcessor::exec_emulation_scale`]);
    /// batching pays one wait per batch, not per item.
    pub exec_emulation_scale: f64,
    /// Items below this recall increment [`StreamStats::low_recall_items`].
    pub alert_recall: f64,
    /// Content-addressed label cache with in-flight coalescing (see
    /// [`crate::cache`]); `None` disables it — on a unique stream the
    /// cached and uncached servers behave identically.
    pub cache: Option<CacheConfig>,
    /// Live observability: the lifecycle event stream, the rolling
    /// metrics registry behind [`AmsServer::metrics_snapshot`], and the
    /// shed/deadline-miss flight recorder (see [`crate::obs`]). `None`
    /// disables the whole layer — no rings, no aggregator thread, and a
    /// branch-on-`None` as the only hot-path residue.
    pub obs: Option<ObsConfig>,
    /// Online adaptation (see [`crate::adapt`]): a background trainer
    /// taps served outcomes and hot-swaps updated agent weights into the
    /// predict path, generation by generation. `None` serves the
    /// scheduler's own predictor frozen — byte-identical behavior to a
    /// server built without adaptation.
    pub adapt: Option<AdaptConfig>,
}

impl Default for ServeConfig {
    /// 4 shards × 1 worker, 64-deep queues, lossless blocking admission,
    /// batches of up to 8 on a 12 GB pool — the paper's single-P100 shape.
    fn default() -> Self {
        Self {
            shards: 4,
            workers_per_shard: 1,
            queue_capacity: 64,
            policy: BackpressurePolicy::default(),
            routing: RoutingMode::default(),
            max_batch: 8,
            adaptive: None,
            batch_linger_ms: 0,
            batch_model: BatchLatencyModel::default(),
            pool_mb: 12_288,
            request_timeout_ms: None,
            slo: None,
            exec_emulation_scale: 0.0,
            alert_recall: 0.5,
            cache: None,
            obs: None,
            adapt: None,
        }
    }
}

/// One shard's adaptive-batching record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardAdaptive {
    /// Shard index.
    pub shard: usize,
    /// Batch limit when the server drained.
    pub final_max_batch: usize,
    /// Adjustment windows evaluated.
    pub adjustments: u64,
    /// Total-latency p99 of the last evaluated window, µs (0 when the
    /// shard never filled half a window — too little traffic to judge).
    pub last_window_p99_us: u64,
    /// Whether the last evaluated window met the target.
    pub within_target: bool,
    /// Batch limit after each adjustment, in order — the trajectory the
    /// benchmark publishes.
    pub trajectory: Vec<usize>,
}

/// The merged adaptive-batching record (present when the server ran with
/// [`ServeConfig::adaptive`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveReport {
    /// The configured total-latency p99 target, ms.
    pub target_p99_ms: u64,
    /// Per-shard controller trajectories.
    pub shards: Vec<ShardAdaptive>,
}

impl AdaptiveReport {
    /// Whether every shard's last evaluated window met the target.
    pub fn all_within_target(&self) -> bool {
        self.shards.iter().all(|s| s.within_target)
    }
}

/// One SLO class's slice of the outcome ledger ([`crate::ledger`]):
/// every loss path, the value accounting, and the class's own latency
/// distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassReport {
    /// Class index.
    pub class: usize,
    /// Class name.
    pub name: String,
    /// The class's deadline, ms.
    pub deadline_ms: u64,
    /// The class's value weight.
    pub weight: f64,
    /// Requests of this class offered to `submit`.
    pub offered: u64,
    /// Requests labeled to completion.
    pub completed: u64,
    /// Delivered requests that met their deadline: worker completions by
    /// their total latency, cache hits always (zero wait), and coalesced
    /// followers by their own wait.
    pub deadline_met: u64,
    /// Requests refused at admission (full queue under Reject, or closed).
    pub rejected: u64,
    /// Requests shed by admission control (predicted wait > deadline).
    pub shed_admission: u64,
    /// Requests evicted from a queue on overflow (ShedOldest).
    pub shed_oldest: u64,
    /// Dequeued requests shed because their deadline budget was exhausted.
    pub shed_deadline: u64,
    /// Tickets of this class cancelled before a worker claimed them.
    pub cancelled: u64,
    /// Requests answered from the label cache before admission (exact
    /// content-hash hits; zero queue wait, zero bill).
    pub cache_hit: u64,
    /// Requests coalesced onto an identical in-flight request and
    /// completed by its fan-out (one execution, many completions).
    pub coalesced: u64,
    /// Summed predicted (weighted) value delivered from the cache —
    /// hits plus fanned-out followers. The bill-free share of the
    /// class's banked value.
    pub value_cached: f64,
    /// Summed predicted (weighted) value of the cancelled tickets —
    /// tracked apart from `value_shed`: the *client* withdrew this value,
    /// the service didn't lose it.
    pub value_cancelled: f64,
    /// Summed predicted (weighted) value of offered requests.
    pub value_offered: f64,
    /// Summed value of completed requests — the value the service banked.
    pub value_completed: f64,
    /// The subset of `value_completed` delivered *past* the class
    /// deadline — capacity spent on labels the client had already given
    /// up on. SLO-aware scheduling shrinks this by serving urgent work
    /// first and shedding doomed work before it occupies a slot.
    pub value_late: f64,
    /// Summed value of every non-completed request (all four loss paths)
    /// — the class's value-weighted shed loss.
    pub value_shed: f64,
    /// Total (queue wait + execute) latency of completed requests.
    pub total: LatencySummary,
}

impl ClassReport {
    /// Every offered request of the class is accounted for exactly once
    /// (completions, all four loss paths, cancellations, and the two
    /// cache buckets — a hit and a fanned-out follower each resolve
    /// exactly one ticket too).
    pub fn is_conserved(&self) -> bool {
        self.offered
            == self.completed
                + self.rejected
                + self.shed_admission
                + self.shed_oldest
                + self.shed_deadline
                + self.cancelled
                + self.cache_hit
                + self.coalesced
    }

    /// Share of offered requests delivered within their deadline (0 when
    /// nothing was offered). Offered, not completed, is the denominator:
    /// a shed request missed its deadline as far as the client is
    /// concerned.
    pub fn deadline_met_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.deadline_met as f64 / self.offered as f64
    }
}

/// The merged SLO record (present when the server ran with
/// [`ServeConfig::slo`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloReport {
    /// Whether admission control ran.
    pub admission_control: bool,
    /// Whether overflow eviction was value-weighted.
    pub value_weighted_shedding: bool,
    /// Whether dequeue was earliest-deadline-first.
    pub edf_dequeue: bool,
    /// Per-class ledgers, indexed by class.
    pub classes: Vec<ClassReport>,
}

impl SloReport {
    /// The value-weighted shed loss: every unit of offered value that was
    /// *not delivered within its deadline* — shed value plus late-completed
    /// value. A label produced past its deadline is as lost to the client
    /// as a shed one (the deadline is what defines its worth), and counting
    /// it keeps the metric honest: a blind server cannot launder doomed
    /// requests into "banked value" by completing them late. This is the
    /// quantity SLO-aware shedding exists to minimize.
    pub fn value_shed_loss(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.value_shed + c.value_late)
            .sum()
    }

    /// Summed banked value across classes.
    pub fn value_completed(&self) -> f64 {
        self.classes.iter().map(|c| c.value_completed).sum()
    }

    /// Summed value delivered past its deadline across classes.
    pub fn value_late(&self) -> f64 {
        self.classes.iter().map(|c| c.value_late).sum()
    }

    /// Share of all offered requests delivered within their deadline (0
    /// when nothing was offered).
    pub fn deadline_met_rate(&self) -> f64 {
        let offered: u64 = self.classes.iter().map(|c| c.offered).sum();
        if offered == 0 {
            return 0.0;
        }
        self.classes.iter().map(|c| c.deadline_met).sum::<u64>() as f64 / offered as f64
    }

    /// Every class ledger balances exactly.
    pub fn is_conserved(&self) -> bool {
        self.classes.iter().all(ClassReport::is_conserved)
    }
}

/// The merged end-of-run serving record. Every outcome count in it comes
/// from one merge of the outcome ledger ([`crate::ledger`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Shard count the server ran with.
    pub shards: usize,
    /// Total worker threads.
    pub workers: usize,
    /// Backpressure policy name.
    pub policy: String,
    /// Routing mode name (`"hash"` or `"affinity"`).
    pub routing: String,
    /// Requests routed to their affinity home shard (0 under hash routing).
    pub affinity_hits: u64,
    /// Requests diverted to the least-loaded shard by the load-balance
    /// escape hatch (0 under hash routing).
    pub affinity_spills: u64,
    /// Requests offered to `submit` (accepted + rejected).
    pub offered: u64,
    /// Requests accepted into a queue.
    pub submitted: u64,
    /// Requests labeled to completion.
    pub completed: u64,
    /// Requests refused at admission (full queue under Reject, or closed).
    pub rejected: u64,
    /// Queued requests dropped by the ShedOldest policy.
    pub shed_oldest: u64,
    /// Dequeued requests dropped because their queue age reached the
    /// request timeout (or their SLO class deadline).
    pub shed_deadline: u64,
    /// Requests shed by SLO admission control before occupying a queue
    /// slot: the shard's predicted wait already exceeded their deadline.
    pub shed_admission: u64,
    /// Tickets cancelled by their clients before a worker claimed them
    /// (exactly one `Cancelled` completion event each; 0 on the
    /// fire-and-forget path, which issues no tickets).
    pub cancelled: u64,
    /// Requests answered from the label cache before admission (exact
    /// content-hash hits; zero queue wait, zero virtual-GPU bill).
    pub cache_hit: u64,
    /// Requests coalesced onto an identical in-flight request and
    /// completed by its fan-out when the leader resolved.
    pub coalesced: u64,
    /// Batched invocation rounds the workers executed (rounds whose every
    /// member was deadline-shed don't count — no work ran).
    pub batches: u64,
    /// Largest executed (post-shedding) batch observed.
    pub max_batch_observed: usize,
    /// Batched model invocations: one per `(model, batch)` group admitted
    /// to the virtual GPU pool. `stats.total_executions /
    /// model_invocations` is the mean coalescing depth — the quantity
    /// affinity routing exists to raise.
    pub model_invocations: u64,
    /// Virtual GPU **bill**: the summed batched invocation times
    /// (`Σ batch_time(model, count)`), i.e. GPU-time consumed, independent
    /// of how invocations packed into the pool. Coalescing shrinks it by
    /// deduplicating setup charges; compare with
    /// [`StreamStats::total_exec_ms`], the unbatched serial bill.
    pub virtual_work_ms: u64,
    /// Sum of the batches' virtual execution *makespans*, ms — the virtual
    /// wall-clock the GPU pool was busy. Batching and pool parallelism
    /// compress this below the serial sum of the same items' execution
    /// times ([`StreamStats::total_exec_ms`]).
    pub virtual_exec_ms: u64,
    /// Wall-clock time requests spent queued.
    pub queue_wait: LatencySummary,
    /// Wall-clock time requests spent in a worker (label + batched wait).
    pub execute: LatencySummary,
    /// Queue wait + execute, per request.
    pub total: LatencySummary,
    /// Merged labeling statistics over completed requests — field-for-field
    /// what a serial [`ams_core::streaming::StreamProcessor`] produces over
    /// the same items when nothing is shed.
    pub stats: StreamStats,
    /// Adaptive-batching trajectories (when the controller ran).
    pub adaptive: Option<AdaptiveReport>,
    /// Per-class SLO ledgers (when SLO classes were configured).
    pub slo: Option<SloReport>,
    /// Label-cache telemetry (when the cache ran).
    pub cache: Option<CacheReport>,
    /// Final observability fold (when [`ServeConfig::obs`] ran): the
    /// closing metrics snapshot plus the flight recorder's retained
    /// traces.
    pub obs: Option<ObsReport>,
    /// Online-adaptation record (when [`ServeConfig::adapt`] ran): final
    /// generation, swap/step/transition counts, and the loss trajectory.
    pub adapt: Option<AdaptReport>,
}

impl ServeReport {
    /// Shed + rejected share of offered load (0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.rejected + self.shed_oldest + self.shed_deadline + self.shed_admission) as f64
            / self.offered as f64
    }

    /// Every offered request is accounted for exactly once: labeled, lost
    /// on one of the four shed/reject paths, cancelled by its client,
    /// answered from the cache, or completed by a coalescing fan-out.
    /// This is also the exactly-once completion invariant seen from the
    /// ledger side — each bucket except `rejected` delivers exactly one
    /// terminal event per request when a ticket was issued.
    pub fn is_conserved(&self) -> bool {
        self.offered
            == self.completed
                + self.rejected
                + self.shed_oldest
                + self.shed_deadline
                + self.shed_admission
                + self.cancelled
                + self.cache_hit
                + self.coalesced
    }

    /// Share of offered requests answered without a fresh execution —
    /// exact cache hits plus coalesced followers (0 when nothing was
    /// offered). The cache's capacity-multiplier headline number.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.cache_hit + self.coalesced) as f64 / self.offered as f64
    }

    /// Mean executed requests per batched round (0 when no batch ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.completed as f64 / self.batches as f64
    }

    /// Mean model executions coalesced per batched invocation (0 when no
    /// invocation ran): how many same-model items shared one setup charge
    /// on the virtual GPU. Routing that groups similar requests raises
    /// this; 1.0 means batching bought nothing.
    pub fn mean_coalesced(&self) -> f64 {
        if self.model_invocations == 0 {
            return 0.0;
        }
        self.stats.total_executions as f64 / self.model_invocations as f64
    }

    /// Share of the serial virtual GPU bill that batched admission saved,
    /// measured in GPU-time consumed (`1 - virtual_work_ms /
    /// stats.total_exec_ms`; 0 when nothing executed). Pool packing does
    /// not move this number — only coalescing does, so it is the metric
    /// routing quality shows up in.
    pub fn bill_saving_fraction(&self) -> f64 {
        if self.stats.total_exec_ms == 0 {
            return 0.0;
        }
        1.0 - self.virtual_work_ms as f64 / self.stats.total_exec_ms as f64
    }

    /// The lifecycle event stream agrees with the conservation ledger
    /// bucket for bucket: each terminal kind's reconciled total (events
    /// drained + events drop-counted at the rings) equals the matching
    /// `ServeReport` counter, and `spilled` matches the router's spill
    /// count. Vacuously true when observability was off. This is the
    /// cross-check that makes the event stream trustworthy — drops are
    /// counted, never silently lost.
    pub fn events_reconcile(&self) -> bool {
        let Some(obs) = &self.obs else { return true };
        obs.total(EventKind::Admitted) == self.offered
            && obs.total(EventKind::Labeled) == self.completed
            && obs.total(EventKind::CacheHit) == self.cache_hit
            && obs.total(EventKind::Coalesced) == self.coalesced
            && obs.total(EventKind::ShedOverflow) == self.shed_oldest
            && obs.total(EventKind::ShedDeadline) == self.shed_deadline
            && obs.total(EventKind::ShedAdmission) == self.shed_admission
            && obs.total(EventKind::Rejected) == self.rejected
            && obs.total(EventKind::Cancelled) == self.cancelled
            && obs.total(EventKind::Spilled) == self.affinity_spills
            && obs.total(EventKind::WeightsSwapped) == self.adapt.as_ref().map_or(0, |a| a.swaps)
    }

    /// Share of routed requests that landed on their affinity home shard
    /// (0 when the affinity router never ran — e.g. hash routing).
    pub fn affinity_hit_rate(&self) -> f64 {
        let routed = self.affinity_hits + self.affinity_spills;
        if routed == 0 {
            return 0.0;
        }
        self.affinity_hits as f64 / routed as f64
    }
}

/// One shard's adaptive-batching state: the live limit workers read before
/// every pop, the observation window the controller adjusts from, and the
/// shard's published headroom signal.
struct ShardControl {
    limit: AtomicUsize,
    /// Amortized per-request service time, µs (EWMA over executed
    /// batches: execute span ÷ batch size). Published by the workers
    /// after every batch whether or not the adaptive controller runs —
    /// this is the headroom signal SLO admission control prices queue
    /// depth with (predicted wait = depth × amortized ÷ workers). 0 until
    /// the shard executes its first batch (admission control admits
    /// everything until then — no evidence, no shedding).
    amortized_us: AtomicU64,
    /// EWMA of the whole batch execute span, µs — what one more batch
    /// costs end to end. Admission control adds it to the predicted wait
    /// when pricing a *full* queue, where admitting means evicting.
    exec_span_us: AtomicU64,
    window: Mutex<AdaptiveWindow>,
}

/// The controller's per-window observations and its published trajectory.
#[derive(Default)]
struct AdaptiveWindow {
    execute: LatencyHistogram,
    total: LatencyHistogram,
    adjustments: u64,
    last_window_p99_us: u64,
    last_within_target: bool,
    trajectory: Vec<usize>,
}

impl ShardControl {
    fn new(start_limit: usize) -> Self {
        Self {
            limit: AtomicUsize::new(start_limit),
            amortized_us: AtomicU64::new(0),
            exec_span_us: AtomicU64::new(0),
            window: Mutex::new(AdaptiveWindow {
                last_within_target: true,
                ..AdaptiveWindow::default()
            }),
        }
    }

    /// Fold one executed batch's amortized per-request time into the
    /// published EWMA (¾ old + ¼ new — smooth enough that one outlier
    /// batch doesn't whipsaw admission, fresh enough to track load
    /// shifts). Racy read-modify-write is fine: any interleaving stores a
    /// plausible smoothed value.
    fn publish_amortized(&self, exec: Duration, batch_len: usize) -> u64 {
        let span = exec.as_micros().min(u128::from(u64::MAX)) as u64;
        let obs = span / batch_len.max(1) as u64;
        let old = self.amortized_us.load(Ordering::Relaxed);
        let next = (if old == 0 { obs } else { (old * 3 + obs) / 4 }).max(1);
        self.amortized_us.store(next, Ordering::Relaxed);
        let old_span = self.exec_span_us.load(Ordering::Relaxed);
        let next_span = if old_span == 0 {
            span
        } else {
            (old_span * 3 + span) / 4
        };
        self.exec_span_us.store(next_span.max(1), Ordering::Relaxed);
        next
    }

    /// Record one executed batch's member latencies and retune the limit
    /// once the window fills. One lock per batch, not per request.
    fn observe_batch(
        &self,
        waits: impl Iterator<Item = Duration>,
        exec: Duration,
        acfg: &AdaptiveBatchConfig,
        batch_model: &BatchLatencyModel,
    ) {
        let mut win = self.window.lock().expect("adaptive window");
        for wait in waits {
            win.execute.record(exec);
            win.total.record(wait + exec);
        }
        if win.total.count() < acfg.window {
            return;
        }
        let p99_total = win.total.quantile_us(0.99);
        let p99_exec = win.execute.quantile_us(0.99);
        let target_us = acfg.target_p99_ms.saturating_mul(1000);
        let cur = self.limit.load(Ordering::Relaxed);
        let next = if p99_total > target_us {
            // Violation: multiplicative decrease.
            ((cur as f64 * acfg.decrease_factor) as usize).max(acfg.min_batch)
        } else {
            // Compliant: additive increase, but bounded by the latency
            // model — grow only when the predicted tail still fits.
            let cand = (cur + acfg.increase_step).min(acfg.max_batch.max(acfg.min_batch));
            let ratio = batch_model.growth_ratio(cur, cand);
            let queue_share = p99_total.saturating_sub(p99_exec) as f64;
            let predicted = queue_share + p99_exec as f64 * ratio;
            if predicted <= target_us as f64 {
                cand
            } else {
                cur
            }
        };
        self.limit.store(next, Ordering::Relaxed);
        win.adjustments += 1;
        win.last_window_p99_us = p99_total;
        win.last_within_target = p99_total <= target_us;
        win.trajectory.push(next);
        win.execute = LatencyHistogram::default();
        win.total = LatencyHistogram::default();
    }

    /// Close out the controller at drain: judge a half-full residual window
    /// (enough evidence), discard a thinner one. Takes `&self` (the
    /// workers are joined, but client handles may still hold weak
    /// references to the shared state, so the record is read under the
    /// lock rather than by consuming the control).
    fn record(&self, shard: usize, acfg: &AdaptiveBatchConfig) -> ShardAdaptive {
        let final_max_batch = self.limit.load(Ordering::Relaxed);
        let win = self.window.lock().expect("adaptive window");
        let (mut last_p99, mut within) = (win.last_window_p99_us, win.last_within_target);
        if win.total.count() * 2 >= acfg.window.max(1) {
            let p99 = win.total.quantile_us(0.99);
            last_p99 = p99;
            within = p99 <= acfg.target_p99_ms.saturating_mul(1000);
        }
        ShardAdaptive {
            shard,
            final_max_batch,
            adjustments: win.adjustments,
            last_window_p99_us: last_p99,
            within_target: within,
            trajectory: win.trajectory.clone(),
        }
    }
}

/// Shared server state (queues + router + scheduler), behind one `Arc`.
struct Shared {
    queues: Vec<ShardQueue>,
    router: Router,
    controls: Vec<ShardControl>,
    scheduler: AdaptiveModelScheduler,
    budget: Budget,
    cfg: ServeConfig,
    /// Monotone request ids: every submission's observability correlation
    /// id and its submit-side ledger cell.
    next_req: AtomicU64,
    /// Monotone ticket ids, unique across every client of this server.
    next_ticket: AtomicU64,
    /// The outcome ledger (shared with the queues and the ticket slots by
    /// `Arc`, so a cancellation from any thread — even after the server
    /// wound down — lands in the one place every report is built from).
    ledger: Arc<Ledger>,
    /// The content-addressed label cache (present when
    /// [`ServeConfig::cache`] is configured).
    cache: Option<Arc<LabelCache>>,
    /// The live observability pipeline (present when [`ServeConfig::obs`]
    /// is configured) — shared with the queues, the cache, and every
    /// ticket slot so each layer can stamp its own lifecycle events.
    obs: Option<Arc<ServerObs>>,
    /// The adaptation state shared with the trainer thread (present when
    /// [`ServeConfig::adapt`] is configured) — read here only for the
    /// live `adapt_generation` gauge; workers carry their own taps.
    adapt: Option<Arc<AdaptShared>>,
}

/// Per-worker execution accumulators (no outcome counts — those live in
/// the ledger), merged at shutdown.
struct WorkerLocal {
    stats: StreamStats,
    queue_wait: LatencyHistogram,
    execute: LatencyHistogram,
    total: LatencyHistogram,
    batches: u64,
    max_batch_observed: usize,
    model_invocations: u64,
    virtual_work_ms: u64,
    virtual_exec_ms: u64,
}

impl WorkerLocal {
    fn new(num_models: usize) -> Self {
        Self {
            stats: StreamStats::with_models(num_models),
            queue_wait: LatencyHistogram::default(),
            execute: LatencyHistogram::default(),
            total: LatencyHistogram::default(),
            batches: 0,
            max_batch_observed: 0,
            model_invocations: 0,
            virtual_work_ms: 0,
            virtual_exec_ms: 0,
        }
    }

    fn merge(&mut self, o: &WorkerLocal) {
        self.stats.merge(&o.stats);
        self.queue_wait.merge(&o.queue_wait);
        self.execute.merge(&o.execute);
        self.total.merge(&o.total);
        self.batches += o.batches;
        self.max_batch_observed = self.max_batch_observed.max(o.max_batch_observed);
        self.model_invocations += o.model_invocations;
        self.virtual_work_ms += o.virtual_work_ms;
        self.virtual_exec_ms += o.virtual_exec_ms;
    }
}

/// The sharded serving front-end.
///
/// ```
/// use ams_core::framework::{AdaptiveModelScheduler, Budget};
/// use ams_core::predictor::OraclePredictor;
/// use ams_data::{Dataset, DatasetProfile, TruthTable};
/// use ams_models::ModelZoo;
/// use ams_serve::{AmsServer, ServeConfig};
/// use std::sync::Arc;
///
/// let zoo = ModelZoo::standard();
/// let ds = Dataset::generate(DatasetProfile::Coco2017, 8, 42);
/// let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
/// let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
/// let scheduler = AdaptiveModelScheduler::new(zoo, predictor, 0.5, 42);
///
/// let server = AmsServer::start(scheduler, Budget::Deadline { ms: 1000 }, ServeConfig::default());
/// for item in truth.items() {
///     server.submit(Arc::new(item.clone()));
/// }
/// let report = server.shutdown();
/// assert_eq!(report.completed, 8);
/// assert!(report.is_conserved());
/// ```
pub struct AmsServer {
    /// `Some` until `shutdown` consumes the server; `None` afterwards so
    /// the `Drop` impl knows a graceful drain already happened.
    inner: Option<ServerInner>,
}

/// The live server: shared state plus the joinable worker handles.
struct ServerInner {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<WorkerLocal>>,
    /// The observability aggregator thread (present when
    /// [`ServeConfig::obs`] is configured); joined at shutdown/abort.
    aggregator: Option<JoinHandle<()>>,
    /// The adaptation runtime (present when [`ServeConfig::adapt`] is
    /// configured): holds the trainer thread, joined after the workers so
    /// channel disconnect is its natural stop signal.
    adapt: Option<AdaptRuntime>,
}

/// Every shard's live AIMD batch limit — the trajectory sample the
/// aggregator stamps onto each metrics time slice.
fn shard_batch_limits(shared: &Shared) -> Vec<u64> {
    shared
        .controls
        .iter()
        .map(|c| c.limit.load(Ordering::Relaxed) as u64)
        .collect()
}

/// One racy-but-consistent gauge sample per shard: the queue depth and
/// published drain hint — the very inputs [`ShardQueue::estimated_wait_us`]
/// prices admission and spill routing with — plus the live batch limit.
fn obs_shard_samples(shared: &Shared) -> Vec<ShardSample> {
    shared
        .queues
        .iter()
        .zip(&shared.controls)
        .map(|(q, c)| ShardSample {
            depth: q.live_len() as u64,
            service_hint_us: q.service_hint_us(),
            estimated_wait_us: q.estimated_wait_us(),
            batch_limit: c.limit.load(Ordering::Relaxed) as u64,
        })
        .collect()
}

/// Cache occupancy gauges for a snapshot (`None` when the cache is off).
fn obs_cache_gauges(shared: &Shared) -> Option<CacheGauges> {
    shared.cache.as_ref().map(|c| {
        let r = c.report();
        let all = shared.ledger.merge().total();
        let offered = all.count(EventKind::Admitted);
        let hits = all.count(EventKind::CacheHit) + all.count(EventKind::Coalesced);
        CacheGauges {
            entries: r.entries,
            bytes: r.bytes,
            capacity_bytes: r.capacity_bytes,
            hit_rate: if offered == 0 {
                0.0
            } else {
                hits as f64 / offered as f64
            },
        }
    })
}

impl AmsServer {
    /// Spin up the shard queues, the router, and the worker threads.
    pub fn start(scheduler: AdaptiveModelScheduler, budget: Budget, cfg: ServeConfig) -> Self {
        let cfg = ServeConfig {
            shards: cfg.shards.max(1),
            workers_per_shard: cfg.workers_per_shard.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            max_batch: cfg.max_batch.max(1),
            adaptive: cfg.adaptive.map(|a| AdaptiveBatchConfig {
                min_batch: a.min_batch.max(1),
                max_batch: a.max_batch.max(a.min_batch.max(1)),
                window: a.window.max(1),
                increase_step: a.increase_step.max(1),
                decrease_factor: a.decrease_factor.clamp(0.1, 0.99),
                ..a
            }),
            slo: cfg.slo.map(|mut s| {
                if s.classes.is_empty() {
                    s.classes = SloConfig::default().classes;
                }
                for c in &mut s.classes {
                    c.weight = c.weight.max(0.0);
                }
                s
            }),
            ..cfg
        };
        let (value_weighted, edf) = cfg.slo.as_ref().map_or((false, false), |s| {
            (s.value_weighted_shedding, s.edf_dequeue)
        });
        // Per-class admission reservations: each class's configured
        // fraction of every shard queue's slots, floored to whole slots
        // (the queue clamps the sum to its capacity, earlier classes
        // first). All-zero reservations are dropped entirely — the
        // classless admission path stays untouched.
        let reservations: Vec<usize> = cfg.slo.as_ref().map_or(Vec::new(), |s| {
            let slots: Vec<usize> = s
                .classes
                .iter()
                .map(|c| (c.reserve.clamp(0.0, 1.0) * cfg.queue_capacity as f64).floor() as usize)
                .collect();
            if slots.iter().all(|&r| r == 0) {
                Vec::new()
            } else {
                slots
            }
        });
        let obs = cfg
            .obs
            .clone()
            .map(|o| Arc::new(ServerObs::new(o, cfg.shards, cfg.workers_per_shard)));
        let ledger = Arc::new(Ledger::new(
            cfg.shards,
            cfg.shards * cfg.workers_per_shard,
            obs.clone(),
        ));
        let queues: Vec<ShardQueue> = (0..cfg.shards)
            .map(|shard| {
                ShardQueue::with_slo(cfg.queue_capacity, cfg.policy, value_weighted, edf)
                    .with_reservations(reservations.clone())
                    .with_ledger(shard, Arc::clone(&ledger))
            })
            .collect();
        // The controller starts every shard at the configured static limit,
        // clamped into the adaptive band.
        let start_limit = cfg.adaptive.map_or(cfg.max_batch, |a| {
            cfg.max_batch
                .clamp(a.min_batch, a.max_batch.max(a.min_batch))
        });
        let controls = (0..cfg.shards)
            .map(|_| ShardControl::new(start_limit))
            .collect();
        // Without SLO classes nothing consumes `Route::value`, so hash
        // routing skips the per-submission value scan.
        let mut router = Router::new(cfg.routing, cfg.shards);
        if cfg.slo.is_none() {
            router = router.without_hash_value_scan();
        }
        // Boot the adaptation runtime (cell at generation 0 + trainer
        // thread) before the workers so every worker's tap can pin the
        // boot snapshot on its first batch.
        let adapt = cfg
            .adapt
            .as_ref()
            .map(|a| AdaptRuntime::start(a, obs.clone()));
        let cfg_cache = cfg.cache;
        let shared = Arc::new(Shared {
            router,
            queues,
            controls,
            scheduler,
            budget,
            cfg,
            next_req: AtomicU64::new(0),
            next_ticket: AtomicU64::new(0),
            ledger,
            cache: cfg_cache.map(LabelCache::new),
            obs,
            adapt: adapt.as_ref().map(|r| Arc::clone(&r.shared)),
        });
        let workers = (0..shared.cfg.shards * shared.cfg.workers_per_shard)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let shard = w / shared.cfg.workers_per_shard;
                // Each worker owns its tap (sender clone + snapshot pin);
                // when the workers join, the tap clones drop and the
                // trainer's channel disconnects.
                let tap = adapt.as_ref().map(|r| WorkerAdapt::new(r.tap()));
                std::thread::spawn(move || worker_loop(&shared, shard, w, tap))
            })
            .collect();
        // The aggregator: a background thread that periodically drains the
        // event rings into the metrics registry. Workers never block on
        // observability — they only push into their rings (dropping, with
        // a count, when full); all folding happens here.
        let aggregator = shared.obs.as_ref().map(|o| {
            let obs = Arc::clone(o);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let interval = Duration::from_millis(obs.drain_interval_ms());
                while !obs.stopped() {
                    // Sleep in short steps so a long drain interval never
                    // holds shutdown hostage — stop is re-checked every
                    // few milliseconds.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !obs.stopped() {
                        let step = (interval - slept).min(Duration::from_millis(5));
                        std::thread::sleep(step);
                        slept += step;
                    }
                    if obs.stopped() {
                        break;
                    }
                    obs.drain(&shard_batch_limits(&shared));
                }
            })
        });
        Self {
            inner: Some(ServerInner {
                shared,
                workers,
                aggregator,
                adapt,
            }),
        }
    }

    fn shared(&self) -> &Arc<Shared> {
        &self
            .inner
            .as_ref()
            .expect("server alive until shutdown")
            .shared
    }

    /// Open a request/response [`Client`] with the default completion
    /// window (1024 outstanding tickets). Any number of clients may run
    /// concurrently; each gets its own completion queue, and completion
    /// events route to the client that issued the ticket.
    pub fn client(&self) -> Client {
        self.client_with_capacity(Client::DEFAULT_CAPACITY)
    }

    /// [`AmsServer::client`] with an explicit completion-window capacity:
    /// at most `capacity` tickets may be outstanding (issued but their
    /// completion events not yet consumed); `submit` blocks past that
    /// until the client drains. Size it at least as large as the deepest
    /// submit burst between drains (see `PERF.md`, "Completion-queue
    /// sizing").
    pub fn client_with_capacity(&self, capacity: usize) -> Client {
        Client {
            shared: Arc::downgrade(self.shared()),
            queue: Arc::new(CompletionQueue::new(capacity)),
        }
    }

    /// The shard an item routes to ([`fib_shard`] of the scene id — the
    /// hash mode's home shard, shared with the router so the constants
    /// cannot drift). Under affinity routing the live router may divert a
    /// submission elsewhere; this accessor stays the stable hash-partition
    /// answer.
    pub fn shard_of(&self, item: &ItemTruth) -> usize {
        fib_shard(item.scene_id, self.shared().cfg.shards)
    }

    /// Submit one item for labeling under the shard's backpressure policy
    /// (SLO class 0 when classes are configured). Under
    /// [`BackpressurePolicy::Block`] this call waits for queue space.
    ///
    /// This is the fire-and-forget path: no ticket is issued and the
    /// labels are only visible in the aggregate [`ServeReport`]. For
    /// per-request results and cancellation, open a [`Client`] via
    /// [`AmsServer::client`].
    pub fn submit(&self, item: Arc<ItemTruth>) -> SubmitOutcome {
        self.submit_class(item, 0)
    }

    /// [`AmsServer::submit`] with an explicit SLO class (clamped to the
    /// configured classes; ignored when no SLO is configured).
    ///
    /// With admission control on, the call first prices the shard's
    /// backlog: predicted wait = queue depth × the amortized per-request
    /// batch time the shard's workers publish ÷ workers on the shard. A
    /// request whose prediction already exceeds its class deadline is
    /// refused here ([`SubmitOutcome::ShedAdmission`]) *before* it
    /// occupies a queue slot — admitting it could only evict or delay
    /// work that still has a chance, then be deadline-shed anyway.
    pub fn submit_class(&self, item: Arc<ItemTruth>, class: usize) -> SubmitOutcome {
        self.submit_with(item, SubmitOptions::class(class))
    }

    /// [`AmsServer::submit_class`] with full per-ticket economics: an
    /// optional deadline and value that override the class defaults for
    /// this submission only (see [`SubmitOptions`]).
    pub fn submit_with(&self, item: Arc<ItemTruth>, opts: SubmitOptions) -> SubmitOutcome {
        submit_inner(self.shared(), item, opts, None).map(|_| ())
    }

    /// Requests currently queued across all shards (racy snapshot).
    pub fn pending(&self) -> usize {
        self.shared().queues.iter().map(ShardQueue::len).sum()
    }

    /// A live metrics snapshot *while the server is running*: event
    /// totals, in-flight and outstanding-ticket gauges, per-shard queue
    /// depth / wait estimate / busy fraction / batch-limit trajectory,
    /// per-class admission and deadline rates, cache occupancy, and the
    /// rolling latency histogram — all without stopping a single worker
    /// (the rings are drained opportunistically first so the numbers are
    /// current). `None` when [`ServeConfig::obs`] is off.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let shared = self.shared();
        shared.obs.as_ref().map(|o| {
            o.snapshot(
                &obs_shard_samples(shared),
                obs_cache_gauges(shared),
                shared.adapt.as_ref().map(|a| a.generation()),
            )
        })
    }

    /// Prometheus-style text exposition of [`AmsServer::metrics_snapshot`]
    /// (`# HELP`/`# TYPE` families). A single comment line when
    /// observability is off, so scrapers always get well-formed text.
    pub fn render_metrics(&self) -> String {
        self.metrics_snapshot().map_or_else(
            || "# ams observability disabled\n".to_string(),
            |s| s.render_prometheus(),
        )
    }

    /// Flight-recorder dump for one settled "interesting" request
    /// (deadline miss, any shed path, or a cancellation), by request or
    /// ticket id: the complete causal event trace the recorder retained.
    /// `None` when observability is off, the id never settled
    /// interestingly, or the bounded recorder already evicted it.
    pub fn why(&self, id: u64) -> Option<TraceReport> {
        let shared = self.shared();
        let obs = shared.obs.as_ref()?;
        // Drain first so a request that settled moments ago is visible.
        obs.drain(&shard_batch_limits(shared));
        obs.why(id)
    }

    /// Close admission, drain every queue through the workers, join them,
    /// and merge the per-worker shards into the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.inner
            .take()
            .expect("server alive until shutdown")
            .shutdown()
    }
}

impl Drop for AmsServer {
    /// Abort on drop (when [`AmsServer::shutdown`] was never called):
    /// close every queue *discarding* its backlog — each queued request's
    /// ticket resolves to `Shed(Drain)`, so clients still get their one
    /// terminal event — and join every worker. A dropped server leaves no
    /// detached threads behind; in-flight batches finish and deliver
    /// normally. Use `shutdown` for the graceful drain-everything exit.
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.abort();
        }
    }
}

impl ServerInner {
    /// The abort path (`Drop` without `shutdown`): discard queued work,
    /// notify its tickets, join the workers, drop the report.
    fn abort(self) {
        for (shard, q) in self.shared.queues.iter().enumerate() {
            let mut batch = self.shared.ledger.batch(shard as u64);
            for victim in q.abort() {
                // A discarded coalescing leader drains its followers too.
                victim.fail_cache(ShedReason::Drain, &mut batch);
                if victim
                    .completion()
                    .is_none_or(|slot| slot.try_shed(ShedReason::Drain))
                {
                    batch.push(victim.record(Outcome::Shed(ShedReason::Drain)));
                }
            }
        }
        for handle in self.workers {
            // Don't double-panic while unwinding: a worker that died
            // already reported its panic.
            let _ = handle.join();
        }
        if let Some(adapt) = self.adapt {
            adapt.abort();
        }
        if let Some(obs) = &self.shared.obs {
            obs.request_stop();
        }
        if let Some(handle) = self.aggregator {
            let _ = handle.join();
        }
    }

    fn shutdown(self) -> ServeReport {
        for q in &self.shared.queues {
            q.close();
        }
        let mut merged = WorkerLocal::new(self.shared.scheduler.zoo().len());
        for handle in self.workers {
            merged.merge(&handle.join().expect("serve worker panicked"));
        }
        // Finish the trainer after the workers joined (their tap senders
        // are gone, so dropping the runtime's own sender disconnects the
        // channel and the trainer drains out) but *before* the
        // observability stop below: the trainer's tail swap events must
        // still land in the rings for the final drain to reconcile.
        let adapt_report = self.adapt.map(AdaptRuntime::finish);
        // Stop the observability aggregator only after the workers joined:
        // every worker-side event is in its ring by now, and the final
        // drain below (inside `report`) folds the stragglers in.
        if let Some(obs) = &self.shared.obs {
            obs.request_stop();
        }
        if let Some(handle) = self.aggregator {
            handle.join().expect("obs aggregator panicked");
        }
        // Clients hold only weak references, so the shared state is read
        // in place — a client submitting after this point sees closed
        // queues (`Rejected`), and cancellations of still-live tickets
        // keep landing in the shared ledger.
        let shared = &self.shared;
        let adaptive = shared.cfg.adaptive.map(|acfg| AdaptiveReport {
            target_p99_ms: acfg.target_p99_ms,
            shards: shared
                .controls
                .iter()
                .enumerate()
                .map(|(shard, ctl)| ctl.record(shard, &acfg))
                .collect(),
        });
        // The ledger is merged *before* the final observability drain
        // inside `report`: every record pushed its event before its bucket
        // moved, so the drain sees a superset of what the merge counted
        // (`events_reconcile` depends on this order).
        let tally = shared.ledger.merge();
        let all = tally.total();
        let obs_report = shared.obs.as_ref().map(|o| {
            o.report(
                &obs_shard_samples(shared),
                obs_cache_gauges(shared),
                adapt_report.as_ref().map(|a| a.generation),
            )
        });
        let slo = shared.cfg.slo.as_ref().map(|slo_cfg| SloReport {
            admission_control: slo_cfg.admission_control,
            value_weighted_shedding: slo_cfg.value_weighted_shedding,
            edf_dequeue: slo_cfg.edf_dequeue,
            classes: slo_cfg
                .classes
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let t = tally.class(i);
                    ClassReport {
                        class: i,
                        name: c.name.clone(),
                        deadline_ms: c.deadline_ms,
                        weight: c.weight,
                        offered: t.count(EventKind::Admitted),
                        completed: t.count(EventKind::Labeled),
                        deadline_met: t.deadline_met,
                        rejected: t.count(EventKind::Rejected),
                        shed_admission: t.count(EventKind::ShedAdmission),
                        shed_oldest: t.count(EventKind::ShedOverflow),
                        shed_deadline: t.count(EventKind::ShedDeadline),
                        cancelled: t.count(EventKind::Cancelled),
                        cache_hit: t.count(EventKind::CacheHit),
                        coalesced: t.count(EventKind::Coalesced),
                        value_cached: t.value(&[EventKind::CacheHit, EventKind::Coalesced]),
                        value_cancelled: t.value(&[EventKind::Cancelled]),
                        value_offered: t.value(&[EventKind::Admitted]),
                        value_completed: t.value(&[EventKind::Labeled]),
                        value_late: t.value_late,
                        value_shed: t.value(&[
                            EventKind::Rejected,
                            EventKind::ShedAdmission,
                            EventKind::ShedOverflow,
                            EventKind::ShedDeadline,
                            EventKind::ShedDrain,
                        ]),
                        total: t.total.summary(),
                    }
                })
                .collect(),
        });
        ServeReport {
            shards: shared.cfg.shards,
            workers: shared.cfg.shards * shared.cfg.workers_per_shard,
            policy: shared.cfg.policy.name().to_string(),
            routing: shared.router.mode().name().to_string(),
            affinity_hits: shared.router.affinity_hits(),
            affinity_spills: shared.router.affinity_spills(),
            offered: all.count(EventKind::Admitted),
            submitted: all.count(EventKind::Enqueued),
            completed: all.count(EventKind::Labeled),
            rejected: all.count(EventKind::Rejected),
            shed_oldest: all.count(EventKind::ShedOverflow),
            shed_deadline: all.count(EventKind::ShedDeadline),
            shed_admission: all.count(EventKind::ShedAdmission),
            cancelled: all.count(EventKind::Cancelled),
            cache_hit: all.count(EventKind::CacheHit),
            coalesced: all.count(EventKind::Coalesced),
            batches: merged.batches,
            max_batch_observed: merged.max_batch_observed,
            model_invocations: merged.model_invocations,
            virtual_work_ms: merged.virtual_work_ms,
            virtual_exec_ms: merged.virtual_exec_ms,
            queue_wait: merged.queue_wait.summary(),
            execute: merged.execute.summary(),
            total: merged.total.summary(),
            stats: merged.stats,
            adaptive,
            slo,
            cache: shared.cache.as_ref().map(|c| c.report()),
            obs: obs_report,
            adapt: adapt_report,
        }
    }
}

/// A request/response handle onto an [`AmsServer`]: submissions issue
/// cancellable [`Ticket`]s, and every ticket's single terminal
/// [`Completion`] event arrives on this client's own bounded completion
/// queue.
///
/// ```
/// use ams_core::framework::{AdaptiveModelScheduler, Budget};
/// use ams_core::predictor::OraclePredictor;
/// use ams_data::{Dataset, DatasetProfile, TruthTable};
/// use ams_models::ModelZoo;
/// use ams_serve::{AmsServer, Completion, ServeConfig};
/// use std::sync::Arc;
///
/// let zoo = ModelZoo::standard();
/// let ds = Dataset::generate(DatasetProfile::Coco2017, 4, 42);
/// let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
/// let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
/// let scheduler = AdaptiveModelScheduler::new(zoo, predictor, 0.5, 42);
///
/// let server = AmsServer::start(scheduler, Budget::Deadline { ms: 1000 }, ServeConfig::default());
/// let client = server.client();
/// let tickets: Vec<_> = truth
///     .items()
///     .iter()
///     .filter_map(|item| client.submit(Arc::new(item.clone())).ticket())
///     .collect();
/// for _ in &tickets {
///     match client.recv().expect("one event per ticket") {
///         Completion::Labeled(result) => assert!(!result.labels.is_empty() || result.recall == 1.0),
///         other => panic!("lossless config never sheds: {other:?}"),
///     }
/// }
/// server.shutdown();
/// ```
///
/// The client holds only a weak reference to the server: submitting after
/// `shutdown` (or drop) returns [`SubmitOutcome::Rejected`], and
/// undelivered events remain receivable.
#[derive(Debug, Clone)]
pub struct Client {
    shared: Weak<Shared>,
    queue: Arc<CompletionQueue>,
}

impl Client {
    /// Default completion-window capacity of [`AmsServer::client`].
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Submit one item, returning its [`Ticket`] inside the admission
    /// outcome (SLO class 0 when classes are configured).
    ///
    /// Blocks while the completion window is full — `capacity` tickets
    /// outstanding with their events unconsumed — and then under the
    /// shard's own backpressure policy, exactly like
    /// [`AmsServer::submit`].
    pub fn submit(&self, item: Arc<ItemTruth>) -> SubmitOutcome<Ticket> {
        self.submit_class(item, 0)
    }

    /// [`Client::submit`] with an explicit SLO class (clamped to the
    /// configured classes; ignored when no SLO is configured).
    pub fn submit_class(&self, item: Arc<ItemTruth>, class: usize) -> SubmitOutcome<Ticket> {
        self.submit_with(item, SubmitOptions::class(class))
    }

    /// [`Client::submit_class`] with full per-ticket economics: an
    /// optional deadline and value that override the class defaults for
    /// this ticket only (see [`SubmitOptions`]). Admission pricing, EDF
    /// dequeue, deadline shedding, and value-weighted eviction read the
    /// per-ticket numbers; the class remains the ledger bucket, so every
    /// conservation gate is unchanged.
    pub fn submit_with(&self, item: Arc<ItemTruth>, opts: SubmitOptions) -> SubmitOutcome<Ticket> {
        let Some(shared) = self.shared.upgrade() else {
            // The server shut down; nothing can be queued anymore.
            return SubmitOutcome::Rejected;
        };
        submit_inner(&shared, item, opts, Some(self))
            .map(|ticket| ticket.expect("ticketed submissions always issue a ticket"))
    }

    /// Blocking receive: the next terminal event, in delivery order.
    /// Returns `None` when no ticket is outstanding (every issued ticket's
    /// event was already consumed) — so a drain loop terminates instead of
    /// deadlocking.
    pub fn recv(&self) -> Option<Completion> {
        self.queue.recv()
    }

    /// Non-blocking receive: the next event if one is already queued.
    pub fn try_recv(&self) -> Option<Completion> {
        self.queue.try_recv()
    }

    /// Receive with a timeout: wait up to `timeout` for the next event,
    /// returning `None` on timeout. Unlike [`Client::recv`] this keeps
    /// waiting while nothing is outstanding — callers that outlive idle
    /// gaps between submission bursts (the TCP front-end's per-connection
    /// writer) distinguish "idle" from "done" themselves.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Completion> {
        self.queue.recv_timeout(timeout)
    }

    /// Drain every currently queued event without blocking (outstanding
    /// tickets whose events have not arrived yet stay outstanding).
    pub fn drain(&self) -> Vec<Completion> {
        self.queue.drain()
    }

    /// Make the current or next [`Client::recv_timeout`] return early
    /// (with `None` when no event is queued), so the receiver re-checks
    /// its own stop condition.
    pub(crate) fn wake(&self) {
        self.queue.wake();
    }

    /// Tickets issued by this client whose terminal events have not been
    /// consumed yet.
    pub fn outstanding(&self) -> usize {
        self.queue.outstanding()
    }

    /// The completion-window capacity.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }
}

/// Per-ticket economics for [`Client::submit_with`] /
/// [`AmsServer::submit_with`]: the SLO class is the aggregation bucket
/// (ledgers, reports, reservations), while the optional deadline and
/// value override the class defaults for *this ticket only* — admission
/// pricing, EDF dequeue, deadline shedding, and value-weighted eviction
/// all read the per-ticket numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SubmitOptions {
    /// SLO class (clamped to the configured classes; aggregation bucket
    /// only — ignored for scheduling when no SLO is configured).
    pub class: usize,
    /// Per-ticket deadline in microseconds. `None` falls back to the
    /// class deadline (or the server-wide request timeout without SLO
    /// classes). Honored even without SLO classes: the request expires
    /// and is deadline-shed once the budget is exhausted.
    pub deadline_us: Option<u64>,
    /// Per-ticket value in SLO value units. `None` falls back to the
    /// class weight × the predicted affinity value (or `1.0` without SLO
    /// classes). Feeds admission pricing, overflow eviction, cache
    /// eviction pricing, and the per-class value ledgers.
    pub value: Option<f64>,
}

impl SubmitOptions {
    /// Options for a plain submission into `class` (class defaults for
    /// deadline and value).
    pub fn class(class: usize) -> Self {
        Self {
            class,
            ..Self::default()
        }
    }

    /// Builder: set the per-ticket deadline in microseconds.
    #[must_use]
    pub fn deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Builder: set the per-ticket value.
    #[must_use]
    pub fn value(mut self, value: f64) -> Self {
        self.value = Some(value);
        self
    }
}

/// The one submit path behind both [`AmsServer::submit_with`]
/// (fire-and-forget, `client: None`) and [`Client::submit_with`]
/// (ticketed). Returns the issued ticket in the outcome (`None` inside
/// the outcome on the fire-and-forget path).
fn submit_inner(
    shared: &Shared,
    item: Arc<ItemTruth>,
    opts: SubmitOptions,
    client: Option<&Client>,
) -> SubmitOutcome<Option<Ticket>> {
    // Resolve the class and its deadline *before* routing: the router's
    // deadline-aware spill prices candidate shards against the budget.
    let (class, weight, class_deadline_us) = match &shared.cfg.slo {
        Some(slo) => {
            let class = opts.class.min(slo.classes.len() - 1);
            let c = &slo.classes[class];
            (class, c.weight, Some(c.deadline_ms.saturating_mul(1000)))
        }
        None => (
            0,
            1.0,
            shared
                .cfg
                .request_timeout_ms
                .map(|t| t.saturating_mul(1000)),
        ),
    };
    // A per-ticket deadline replaces the class default; everything
    // downstream (router spill pricing, admission control, EDF, the
    // worker's staleness check) reads the resolved number.
    let deadline_us = opts.deadline_us.or(class_deadline_us);
    // Claim the completion-window slot first: it may block while the
    // client's window is full, and the queue snapshots the router takes
    // should be fresh when the push actually happens.
    if let Some(c) = client {
        c.queue.issue();
    }
    // One fingerprint per request (the top-k affinity-value scan used to
    // run twice — once for admission pricing, once inside `route`): the
    // router derives placement from it, admission and shedding price with
    // its value, and the cache keys on its content hash — computed only
    // when the cache is on, so the uncached path pays nothing extra.
    let fp = shared
        .router
        .fingerprint(&shared.scheduler, &item, shared.cache.is_some());
    // The request id is the observability correlation id and picks the
    // submit-side ledger cell: unique per submission, ticketed or not.
    let req_id = shared.next_req.fetch_add(1, Ordering::Relaxed);
    // A per-ticket value replaces the predicted one; either way the
    // class stays the ledger bucket, so conservation sums are untouched.
    let value = opts.value.unwrap_or(match &shared.cfg.slo {
        Some(_) => weight * fp.value,
        None => 1.0,
    });
    let ticket = client.map(|c| {
        let id = shared.next_ticket.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &shared.obs {
            obs.ticket_issued();
        }
        Ticket::new(Arc::new(CompletionSlot::new(
            id,
            req_id,
            class,
            value,
            Arc::clone(&c.queue),
            Arc::clone(&shared.ledger),
        )))
    });
    let ticket_id = ticket.as_ref().map_or(NO_TICKET, Ticket::id);
    let rec = |outcome| Record::new(outcome, class, value, req_id, ticket_id);
    shared.ledger.record(rec(Outcome::Offered));
    // Pre-admission cache protocol: an exact duplicate of a *resolved*
    // fingerprint is answered right here — cached labels, zero queue
    // wait, zero virtual-GPU bill, no queue slot; a duplicate of a
    // *queued or in-flight* fingerprint coalesces onto that leader and
    // completes at its fan-out. Only a first sighting (the leader)
    // proceeds to routing and admission, carrying the pending entry.
    let mut lead: Option<Arc<PendingEntry>> = None;
    if let Some(cache) = &shared.cache {
        let follower = Follower {
            slot: ticket.as_ref().map(|t| Arc::clone(t.slot())),
            class,
            value,
            deadline_us,
            submitted_at: Instant::now(),
            req_id,
        };
        match cache.lookup(fp.content, follower) {
            Lookup::Hit(result) => {
                shared.ledger.record(rec(Outcome::CacheHit));
                if let Some(t) = &ticket {
                    let slot = t.slot();
                    slot.try_labeled(LabelResult {
                        ticket: slot.id(),
                        class,
                        labels: result.labels,
                        executed: result.executed,
                        label_value: result.label_value,
                        banked_value: value,
                        recall: result.recall,
                        queue_wait_us: 0,
                        execute_us: 0,
                        deadline_met: true,
                    });
                }
                return SubmitOutcome::Cached(ticket);
            }
            Lookup::Coalesced => return SubmitOutcome::Coalesced(ticket),
            Lookup::Miss(entry) => lead = Some(entry),
        }
    }
    let route = shared.router.route(&fp, &item, &shared.queues, deadline_us);
    if !route.affine {
        // Exactly the routes the router counted as `affinity_spills`
        // (hash routes are always "affine"), so the spill events
        // reconcile against the router's own counter.
        if let Some(obs) = &shared.obs {
            obs.emit(Event {
                at_us: obs.now_us(),
                req: req_id,
                ticket: ticket_id,
                shard: route.shard as u32,
                class: class as u32,
                kind: EventKind::Spilled,
                detail: 0,
                flag: false,
            });
        }
    }
    if let (Some(slo), Some(deadline)) = (&shared.cfg.slo, deadline_us) {
        if slo.admission_control {
            let amortized = shared.controls[route.shard]
                .amortized_us
                .load(Ordering::Relaxed);
            // One consistent snapshot of the queue (single lock
            // acquisition): total depth for the fullness check, and
            // the earlier-deadline backlog for EDF pricing — under
            // EDF dequeue an urgent request overtakes lax work, so
            // the raw depth would overcharge it (and shed requests
            // EDF would have served in time).
            let at = Instant::now() + Duration::from_micros(deadline);
            let (qlen, ahead) = shared.queues[route.shard].queued_ahead(at);
            let depth = if slo.edf_dequeue { ahead } else { qlen } as u64;
            // Two shedding criteria, deliberately asymmetric:
            //
            // * the predicted *wait alone* exceeds the deadline — the
            //   request provably cannot complete in time (it cannot
            //   even dequeue in budget), so queueing it only wastes a
            //   slot;
            // * the queue is *full* and wait + one batch execute span
            //   (the measured EWMA) exceeds the deadline — here
            //   admitting means evicting a queued request that still
            //   has a chance, in favor of one predicted to finish
            //   late; refusing the doomed newcomer is the strictly
            //   better trade.
            //
            // A merely-probably-late request on a non-full queue is
            // admitted: EDF dequeue may still save it, and shedding
            // at the margin would throw away value on a coin flip.
            let wait_us = depth as f64 * amortized as f64 / shared.cfg.workers_per_shard as f64;
            let full = qlen >= shared.queues[route.shard].capacity();
            let span = shared.controls[route.shard]
                .exec_span_us
                .load(Ordering::Relaxed);
            let doomed =
                wait_us >= deadline as f64 || (full && wait_us + span as f64 >= deadline as f64);
            if amortized > 0 && doomed {
                // No cancel race to lose: the ticket has not been returned
                // to the caller yet, so this shed always owns the slot.
                let mut batch = shared.ledger.batch(req_id);
                batch.push(
                    rec(Outcome::Shed(ShedReason::Admission))
                        .on_shard(route.shard)
                        .detail(wait_us as u64),
                );
                // The ticket resolves right here: the shed *is* its
                // terminal event, delivered at decision time. A shed
                // leader takes its pending cache entry down with it —
                // no worker will ever resolve it, so followers that
                // coalesced between lookup and here shed too.
                if let Some(entry) = &lead {
                    entry.fail(ShedReason::Admission, &mut batch);
                }
                if let Some(t) = &ticket {
                    t.slot().try_shed(ShedReason::Admission);
                }
                return SubmitOutcome::ShedAdmission(ticket);
            }
        }
    }
    let mut req = Request::new(item, route.signature)
        .with_slo(class, value, deadline_us)
        .with_req_id(req_id);
    if let Some(t) = &ticket {
        req = req.with_completion(Arc::clone(t.slot()));
    }
    if let Some(entry) = &lead {
        req = req.with_cache(Arc::clone(entry));
    }
    let outcome = shared.queues[route.shard].push(req);
    match outcome {
        SubmitOutcome::Enqueued(()) | SubmitOutcome::EnqueuedShedOldest(()) => {
            shared
                .ledger
                .record(rec(Outcome::Enqueued).on_shard(route.shard));
        }
        // The submission itself was the overflow shed: it never entered a
        // queue (so it is not `submitted`), and the queue recorded it as
        // an overflow shed — and resolved its ticket with
        // `Shed(Overflow)` — which keeps the conservation equation
        // balanced.
        SubmitOutcome::ShedIncoming(()) => {}
        SubmitOutcome::Rejected => {
            let mut batch = shared.ledger.batch(req_id);
            batch.push(rec(Outcome::Rejected).on_shard(route.shard));
            // A rejection is synchronous: the caller sees it, no event
            // is owed, so the provisional ticket is withdrawn and its
            // window slot released. The leader's pending cache entry
            // dies with it; followers shed as Overflow — the rejection
            // means the shard queue was full or closed, and no more
            // specific shed reason exists for "leader never enqueued".
            if let Some(entry) = &lead {
                entry.fail(ShedReason::Overflow, &mut batch);
            }
            if let Some(t) = &ticket {
                t.slot().retract();
            }
            return SubmitOutcome::Rejected;
        }
        SubmitOutcome::ShedAdmission(()) => unreachable!("queues never shed at admission"),
        SubmitOutcome::Cached(()) | SubmitOutcome::Coalesced(()) => {
            unreachable!("queues never consult the cache")
        }
    }
    outcome.map(|()| ticket)
}

// ams-lint: begin(no-panic) worker hot loop — a panicking worker strands
// its shard queue and every in-flight ticket on it

/// One worker: pop → shed stale → label → batch-admit → record, until the
/// shard queue closes and drains. `worker` is the server-wide worker
/// index — the key of this worker's private observability event ring.
/// With adaptation on, `adapt` carries the worker's experience tap and
/// its pinned snapshot predictor; `None` labels through the scheduler's
/// own frozen predictor, byte-identical to a server without adaptation.
fn worker_loop(
    shared: &Shared,
    shard: usize,
    worker: usize,
    mut adapt: Option<WorkerAdapt>,
) -> WorkerLocal {
    let zoo = shared.scheduler.zoo();
    let n = zoo.len();
    // One bounds check each here instead of one per batch below: the
    // worker is pinned to `shard` for its whole life.
    let queue = &shared.queues[shard]; // ams-lint: allow(no-panic) shard < queues.len() — workers are spawned one per existing shard
    let control = &shared.controls[shard]; // ams-lint: allow(no-panic) shard < controls.len() — controls is built with one entry per shard
    let mut local = WorkerLocal::new(n);
    // Causal markers (not outcomes, which the ledger emits) go straight
    // to this worker's ring.
    let mark = |req: &Request, kind: EventKind, detail: u64| {
        if let Some(obs) = &shared.obs {
            let ev = Event {
                at_us: obs.now_us(),
                req: req.req_id,
                ticket: req.completion().map_or(NO_TICKET, |s| s.id()),
                shard: shard as u32,
                class: req.class as u32,
                kind,
                detail,
                flag: false,
            };
            obs.emit_worker(worker, ev);
        }
    };
    let mut runs_per_model = vec![0usize; n];
    loop {
        // Under adaptive batching the shard's live limit replaces the
        // static one; the controller retunes it between pops.
        let limit = if shared.cfg.adaptive.is_some() {
            control.limit.load(Ordering::Relaxed)
        } else {
            shared.cfg.max_batch
        };
        let batch =
            queue.pop_batch_lingering(limit, Duration::from_millis(shared.cfg.batch_linger_ms));
        if batch.is_empty() {
            return local;
        }
        let exec_start = Instant::now();
        // The batch's outcomes, committed to this worker's ledger cell
        // when the iteration ends — one cell lock per batch.
        let mut recs = shared.ledger.worker_batch(worker);

        // Deadline-aware shedding: a request whose queue age has already
        // exhausted its deadline budget (its SLO class deadline, or the
        // server-wide request timeout when no classes are configured —
        // `submit` stamped whichever applies onto the request) is dropped
        // before any work is spent on it. A shed request is recorded
        // exactly once — as `shed_deadline` — and never reaches the stats
        // (the recall denominator) or the latency histograms.
        //
        // Cancellation races resolve here: a ticketed request is *claimed*
        // (`PENDING → CLAIMED`) before any labeling work, so a cancel that
        // arrives later is too late, while a request cancelled between
        // enqueue and this point is skipped without recording anything —
        // the cancellation already delivered its terminal event and
        // recorded itself.
        // The third field marks a *ghost*: a leader whose own ticket
        // already resolved (cancelled) but whose pending cache entry
        // still has live followers. The ghost is labeled and billed like
        // any survivor — the followers' completions need the result —
        // but it is not *completed*: its own terminal event (the
        // cancellation) was already delivered, and counting it again
        // would break ticket/event exactly-once.
        let mut survivors: Vec<(Request, Duration, bool)> = Vec::with_capacity(batch.len());
        for req in batch {
            let now = Instant::now();
            let wait = now.saturating_duration_since(req.enqueued_at);
            if req.expired(now) {
                // An expired leader takes its coalesced followers down
                // with it, whoever owns the leader's own shed event.
                req.fail_cache(ShedReason::Deadline, &mut recs);
                if req
                    .completion()
                    .is_none_or(|slot| slot.try_shed(ShedReason::Deadline))
                {
                    recs.push(
                        req.record(Outcome::Shed(ShedReason::Deadline))
                            .on_shard(shard)
                            .detail(wait.as_micros().min(u128::from(u64::MAX)) as u64),
                    );
                }
            } else {
                let claimed = match req.completion() {
                    Some(slot) => slot.try_claim(),
                    None => true,
                };
                if claimed {
                    survivors.push((req, wait, false));
                } else if req.cache_entry().is_some_and(|e| e.wanted_or_abandon()) {
                    // Cancelled leader with waiters: promote to ghost —
                    // execute for the followers' sake. With no waiters
                    // the entry abandons itself and the slot is free for
                    // the next submission of the same content.
                    survivors.push((req, wait, true));
                }
            }
        }
        if survivors.is_empty() {
            // The whole round was shed: no batch executed, nothing to
            // observe or charge.
            continue;
        }
        local.batches += 1;
        local.max_batch_observed = local.max_batch_observed.max(survivors.len());
        if let Some(obs) = &shared.obs {
            obs.batch_started(shard, survivors.len());
            let size = survivors.len() as u64;
            for (req, _, _) in &survivors {
                mark(req, EventKind::Batched, size);
            }
        }

        // Label each survivor; collect the batch's per-model run counts.
        // With adaptation on, repin the snapshot predictor first — one
        // atomic generation check per batch, so every predict in this
        // batch runs against one coherent weight set even while the
        // trainer publishes mid-batch.
        if let Some(a) = adapt.as_mut() {
            a.refresh();
        }
        runs_per_model.fill(0);
        let outcomes: Vec<_> = survivors
            .iter()
            .map(|(req, _, _)| {
                let outcome = match &adapt {
                    Some(a) => {
                        shared
                            .scheduler
                            .label_item_with(&a.predictor, &req.item, shared.budget)
                    }
                    None => shared.scheduler.label_item(&req.item, shared.budget),
                };
                for &m in &outcome.executed {
                    runs_per_model[m.index()] += 1; // ams-lint: allow(no-panic) m.index() < zoo.len() == runs_per_model.len()
                }
                outcome
            })
            .collect();

        // Batched admission: one invocation per model over the whole
        // coalesced batch, packed into the virtual GPU pool.
        let groups: Vec<(Job, usize)> = runs_per_model
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(m, &count)| {
                let spec = zoo.spec(ModelId(m as u8));
                (
                    Job {
                        id: m,
                        time_ms: spec.time_ms,
                        mem_mb: spec.mem_mb,
                    },
                    count,
                )
            })
            .collect();
        let makespan_ms = batched_makespan(&groups, shared.cfg.pool_mb, &shared.cfg.batch_model);
        local.model_invocations += groups.len() as u64;
        local.virtual_work_ms += groups
            .iter()
            .map(|&(job, count)| shared.cfg.batch_model.batch_time_ms(job.time_ms, count))
            .sum::<u64>();
        local.virtual_exec_ms += makespan_ms;
        if shared.cfg.exec_emulation_scale > 0.0 && makespan_ms > 0 {
            let wait_ms = makespan_ms as f64 * shared.cfg.exec_emulation_scale;
            std::thread::sleep(Duration::from_secs_f64(wait_ms / 1000.0));
        }

        // Whole batch completes together; each member is charged the
        // batch's execute span on top of its own queue wait.
        let exec_elapsed = exec_start.elapsed();
        // Publish the amortized per-request service time — the headroom
        // signal admission control prices queue depth with — and the
        // queue's drain rate (service time ÷ the workers sharing the
        // queue), which value-weighted eviction prices its doom horizon
        // with. Same yardstick as admission, so the two policies agree on
        // what a queued request's wait looks like.
        let amortized = control.publish_amortized(exec_elapsed, survivors.len());
        queue.set_service_hint_us((amortized / shared.cfg.workers_per_shard as u64).max(1));
        let exec_us = exec_elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        if let Some(obs) = &shared.obs {
            obs.batch_finished(shard, survivors.len(), exec_us);
        }
        for ((req, wait, ghost), outcome) in survivors.iter().zip(outcomes) {
            // Feed the trainer (non-blocking; a full channel drops and
            // counts). Ghosts included — their executions were real.
            if let Some(a) = &adapt {
                a.offer(&req.item, &outcome.executed);
            }
            // Publish into the cache first: followers fan out the moment
            // the leader resolves, and the entry flips to `Done` so the
            // next identical submission is an exact hit.
            if let (Some(cache), Some(entry)) = (&shared.cache, req.cache_entry()) {
                cache.resolve(
                    entry,
                    CachedResult {
                        labels: outcome.labels.clone(),
                        executed: outcome.executed.clone(),
                        label_value: outcome.value,
                        recall: outcome.recall,
                    },
                    req.value,
                    &mut recs,
                );
            }
            if *ghost {
                // Billed above (its model runs are in `runs_per_model`),
                // but its own ticket already resolved as cancelled —
                // nothing to complete, record, or deliver.
                mark(req, EventKind::GhostExecuted, exec_us);
                continue;
            }
            local.stats.absorb(&outcome, shared.cfg.alert_recall);
            local.queue_wait.record(*wait);
            local.execute.record(exec_elapsed);
            let total = *wait + exec_elapsed;
            local.total.record(total);
            let total_us = total.as_micros().min(u128::from(u64::MAX)) as u64;
            let met = req.deadline_us.is_none_or(|d| total_us <= d);
            mark(req, EventKind::Executed, exec_us);
            recs.push(
                req.record(Outcome::Completed { met })
                    .on_shard(shard)
                    .detail(total_us),
            );
            // Per-request delivery: the claimed slot receives the
            // request's *own* labels and latency split — the payload the
            // aggregate-only path folds into `ServeReport::stats`.
            if let Some(slot) = req.completion() {
                slot.finish_labeled(LabelResult {
                    ticket: slot.id(),
                    class: req.class,
                    labels: outcome.labels,
                    executed: outcome.executed,
                    label_value: outcome.value,
                    banked_value: req.value,
                    recall: outcome.recall,
                    queue_wait_us: wait.as_micros().min(u128::from(u64::MAX)) as u64,
                    execute_us: exec_us,
                    deadline_met: met,
                });
            }
        }
        if let Some(acfg) = &shared.cfg.adaptive {
            control.observe_batch(
                survivors.iter().map(|(_, wait, _)| *wait),
                exec_elapsed,
                acfg,
                &shared.cfg.batch_model,
            );
        }
    }
}

// ams-lint: end(no-panic)
