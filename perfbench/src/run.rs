//! Workload definitions, the load generators, the in-run correctness
//! checks, and the metric fold.

use crate::digest::Digest;
use crate::stats::{self, mean, median, percentile, ratio, sorted, Schedule};
use crate::stream::{self, ItemSource, VALUE_THRESHOLD, WORLD_SEED};
use crate::trace::{us, Tracer};
use ams::core::framework::content_hash;
use ams::prelude::*;
use ams::serve::net::{decode_value, encode_value};
use ams::serve::{ClientFrame, Router, WireRequest};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Fixed load. These constants are the benchmark's definition: they are
// never recalibrated from a run, so a faster server is offered the same
// load and shows its gain as lower latency or higher throughput.
// ---------------------------------------------------------------------------

/// Requests in flight per closed-loop client (in-process and wire). Deep
/// enough that closed-loop latency is mostly queueing behind the window
/// (Little's law) rather than the odd scheduler stall of a small host.
const WINDOW: usize = 1024;
/// Wall-clock ms slept per virtual GPU ms on the emulated-GPU workloads.
const GPU_EMULATION_SCALE: f64 = 0.02;
/// Length of one open-loop round, s. Each round is a fresh server, so
/// what a round measures does not change with the run length (a longer
/// repeat stream would outgrow the cache), and a median over rounds
/// shrugs off a minority of rounds the host disturbed.
const OPEN_ROUND_S: f64 = 5.0;
/// `gpu_open` arrival rate, requests/s (about 0.7x the closed-loop
/// capacity of the emulated-GPU configuration on a 2-core host).
const GPU_OPEN_RATE: f64 = 330.0;
/// `gpu_repeat` arrival rate, requests/s (above `gpu_open`'s capacity:
/// only the ~10% fresh requests reach a worker).
const GPU_REPEAT_RATE: f64 = 3000.0;
/// Share of `gpu_repeat` submissions that repeat earlier content.
const REPEAT_SHARE: f64 = 0.9;
/// Distinct items per `cpu_closed` round (each round is a fresh server,
/// so every submission in it is a cache miss).
const CPU_POOL: usize = 16384;
/// Distinct items per `wire_closed` round.
const WIRE_POOL: usize = 16384;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Scenes the agent is trained on (the same for every seed).
const TRAIN_ITEMS: usize = 240;
/// Training episodes.
const TRAIN_EPISODES: usize = 120;
/// SLO classes `(name, deadline ms, weight)`. Every
/// [`INTERACTIVE_EVERY`]-th submission is interactive, the rest batch.
const CLASSES: [(&str, u64, f64); 2] = [("interactive", 250, 2.0), ("batch", 1000, 1.0)];
/// One submission in this many is in the interactive class.
const INTERACTIVE_EVERY: usize = 4;
/// Per-item labeling budget.
const BUDGET: Budget = Budget::Deadline { ms: 1000 };
/// An open-loop run whose generator sent its p99 request later than this
/// after its due time fell behind its schedule, and is invalid: a tenth
/// of the tightest class deadline.
const MAX_LAG_P99_MS: f64 = 25.0;
/// Items the per-call timings of the traced run sample.
const MICRO_ITEMS: usize = 2000;
/// Learn steps timed in the traced run.
const LEARN_STEPS: usize = 200;
/// Span store bound of the traced run.
const SPAN_CAPACITY: usize = 1 << 21;
/// A receive that waits this long means the server stopped answering.
const STALL: Duration = Duration::from_secs(30);

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique items, emulated GPU, open loop at [`GPU_OPEN_RATE`].
    GpuOpen,
    /// Unique items, no GPU emulation, closed loop with [`WINDOW`]. Not in
    /// `BENCHMARK.json`: it saturates the host's cores, so on a shared
    /// virtual machine it measures the neighbours (see METHODOLOGY.md).
    CpuClosed,
    /// Zipf repeats, emulated GPU, open loop at [`GPU_REPEAT_RATE`].
    GpuRepeat,
    /// `cpu_closed` traffic over one loopback TCP connection.
    WireClosed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::GpuOpen,
        Workload::CpuClosed,
        Workload::GpuRepeat,
        Workload::WireClosed,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GpuOpen => "gpu_open",
            Workload::CpuClosed => "cpu_closed",
            Workload::GpuRepeat => "gpu_repeat",
            Workload::WireClosed => "wire_closed",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn emulation_scale(self) -> f64 {
        match self {
            Workload::GpuOpen | Workload::GpuRepeat => GPU_EMULATION_SCALE,
            Workload::CpuClosed | Workload::WireClosed => 0.0,
        }
    }

    fn open_rate(self) -> Option<f64> {
        match self {
            Workload::GpuOpen => Some(GPU_OPEN_RATE),
            Workload::GpuRepeat => Some(GPU_REPEAT_RATE),
            Workload::CpuClosed | Workload::WireClosed => None,
        }
    }

    /// The traced run records the spans of one request in this many, so
    /// a trace holds tens of thousands of requests, not millions.
    fn trace_every(self) -> usize {
        match self {
            Workload::CpuClosed => 16,
            Workload::WireClosed => 4,
            Workload::GpuOpen | Workload::GpuRepeat => 1,
        }
    }
}

/// The one serving configuration every workload shares; workloads differ
/// only in traffic, transport and `exec_emulation_scale`. Two workers in
/// total (one per shard), matching a 2-core host.
fn serve_config(exec_emulation_scale: f64) -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers_per_shard: 1,
        // A whole closed-loop window fits one shard queue, so the reject
        // policy never fires on a closed loop whatever the routing does.
        queue_capacity: WINDOW,
        policy: BackpressurePolicy::Reject,
        routing: RoutingMode::Affinity(AffinityConfig {
            top_k: 2,
            spill_lag: 8,
        }),
        max_batch: 8,
        slo: Some(SloConfig::aware(
            CLASSES
                .iter()
                .map(|&(name, deadline_ms, weight)| SloClass::new(name, deadline_ms, weight))
                .collect(),
        )),
        exec_emulation_scale,
        cache: Some(CacheConfig::default()),
        obs: Some(ObsConfig::default()),
        ..ServeConfig::default()
    }
}

/// SLO class of submission `index`.
fn class_of(index: usize) -> usize {
    usize::from(!index.is_multiple_of(INTERACTIVE_EVERY))
}

fn deadline_of(index: usize) -> Duration {
    Duration::from_millis(CLASSES[class_of(index)].1)
}

fn scheduler(agent: &TrainedAgent) -> AdaptiveModelScheduler {
    AdaptiveModelScheduler::new(
        ModelZoo::standard(),
        Box::new(AgentPredictor::new(agent.clone())),
        VALUE_THRESHOLD,
        WORLD_SEED,
    )
}

// ---------------------------------------------------------------------------
// Endpoints: the in-process client, or one TCP connection
// ---------------------------------------------------------------------------

/// A started server plus the single client that loads it.
enum Endpoint {
    Local { server: AmsServer, client: Client },
    Wire { net: NetServer, client: NetClient },
}

/// What one submission returned synchronously.
struct Submitted {
    /// Ticket or wire id; `None` when refused synchronously (no ticket).
    id: Option<u64>,
    /// Took a queue slot (a worker will execute it).
    queued: bool,
}

/// One event received by the client.
enum Received {
    Done(Completion),
    /// Wire-side synchronous refusal, delivered asynchronously.
    Rejected(u64),
}

impl Endpoint {
    fn start(agent: &TrainedAgent, wl: Workload, client_capacity: usize) -> Result<Self, String> {
        let server = AmsServer::start(scheduler(agent), BUDGET, serve_config(wl.emulation_scale()));
        if wl != Workload::WireClosed {
            let client = server.client_with_capacity(client_capacity);
            return Ok(Endpoint::Local { server, client });
        }
        let net = NetServer::bind(server, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let client = NetClient::connect_with_window(net.local_addr(), WINDOW)
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Endpoint::Wire { net, client })
    }

    fn submit(&self, item: &Arc<ItemTruth>, index: usize) -> Result<Submitted, String> {
        let opts = SubmitOptions::class(class_of(index));
        match self {
            Endpoint::Local { client, .. } => {
                let outcome = client.submit_with(Arc::clone(item), opts);
                let queued = outcome.is_accepted();
                Ok(Submitted {
                    id: outcome.ticket().map(|t| t.id()),
                    queued,
                })
            }
            // Over the wire the admission outcome is not known at submit
            // time; rejections arrive as events.
            Endpoint::Wire { client, .. } => client
                .submit_with(Arc::clone(item), opts)
                .map(|id| Submitted {
                    id: Some(id),
                    queued: true,
                })
                .map_err(|e| format!("wire submit: {e:?}")),
        }
    }

    /// Block for the next event until `deadline` (in-process only; a wire
    /// read blocks until the server answers or the socket fails).
    fn recv(&self, deadline: Instant) -> Result<Option<Received>, String> {
        match self {
            // `recv_timeout` may return early without an event; only the
            // deadline ends the wait.
            Endpoint::Local { client, .. } => loop {
                let now = Instant::now();
                if now >= deadline {
                    return Ok(None);
                }
                if let Some(c) = client.recv_timeout(deadline - now) {
                    return Ok(Some(Received::Done(c)));
                }
            },
            Endpoint::Wire { client, .. } => match client.recv() {
                Ok(Some(NetEvent::Completion(c))) => Ok(Some(Received::Done(c))),
                Ok(Some(NetEvent::Rejected { id })) => Ok(Some(Received::Rejected(id))),
                Ok(None) => Ok(None),
                Err(e) => Err(format!("wire recv: {e:?}")),
            },
        }
    }

    /// The next event if one is already waiting (in-process only).
    fn try_recv(&self) -> Option<Received> {
        match self {
            Endpoint::Local { client, .. } => client.try_recv().map(Received::Done),
            Endpoint::Wire { .. } => None,
        }
    }

    fn shutdown(self) -> Result<ServeReport, String> {
        match self {
            Endpoint::Local { server, .. } => Ok(server.shutdown()),
            Endpoint::Wire { net, client } => {
                client.goodbye().map_err(|e| format!("goodbye: {e:?}"))?;
                let rest = client.drain().map_err(|e| format!("drain: {e:?}"))?;
                drop(client);
                let report = net.shutdown();
                if rest.is_empty() {
                    Ok(report)
                } else {
                    Err(format!(
                        "{} wire events arrived after the round",
                        rest.len()
                    ))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The per-request ledger
// ---------------------------------------------------------------------------

/// A submitted request awaiting its terminal event.
struct Pending {
    /// Position in the submission stream (sets the class).
    index: u32,
    /// Distinct item it carries.
    item: u32,
    /// Latency origin: the due time (open loop) or submit start (closed).
    origin: Instant,
    /// Submit call start and end.
    sent: Instant,
    sent_end: Instant,
    queued: bool,
    sampled: bool,
}

/// Every request's fate, the client-side latency samples, and the
/// violated checks, accumulated over a segment.
#[derive(Default)]
struct Ledger {
    pending: HashMap<u64, Pending>,
    attempted: u64,
    labeled: u64,
    shed: u64,
    rejected: u64,
    deadline_met: u64,
    latencies_us: Vec<f64>,
    /// Server-reported queue wait and execute time of queued requests.
    queue_us: Vec<f64>,
    exec_us: Vec<f64>,
    /// Labeled results `(item, result)` not yet checked.
    results: Vec<(u32, LabelResult)>,
    violations: Vec<String>,
    first_submit: Option<Instant>,
    last_receipt: Option<Instant>,
}

impl Ledger {
    fn violation(&mut self, what: String) {
        // Keep the report readable; every violation still counts.
        if self.violations.len() < 16 {
            eprintln!("[perfbench] check failed: {what}");
        }
        self.violations.push(what);
    }

    fn submitted(&mut self, s: Submitted, mut p: Pending) {
        self.attempted += 1;
        self.first_submit.get_or_insert(p.sent);
        p.queued = s.queued;
        match s.id {
            None => self.rejected += 1,
            Some(id) => {
                if self.pending.insert(id, p).is_some() {
                    self.violation(format!("id {id} handed out twice"));
                }
            }
        }
    }

    fn receive(&mut self, ev: Received, at: Instant, tracer: &mut Option<&mut Tracer>) {
        let id = match &ev {
            Received::Done(c) => c.ticket(),
            Received::Rejected(id) => *id,
        };
        let Some(p) = self.pending.remove(&id) else {
            self.violation(format!("id {id} resolved twice or never handed out"));
            return;
        };
        self.last_receipt = Some(at);
        let r = match ev {
            Received::Done(Completion::Labeled(r)) => r,
            Received::Done(Completion::Shed { .. }) => {
                self.shed += 1;
                return;
            }
            Received::Done(Completion::Cancelled { .. }) => {
                self.violation(format!("id {id} cancelled, but nothing cancels"));
                return;
            }
            Received::Rejected(_) => {
                self.rejected += 1;
                return;
            }
        };
        let latency = at.saturating_duration_since(p.origin);
        self.labeled += 1;
        if latency <= deadline_of(p.index as usize) {
            self.deadline_met += 1;
        }
        self.latencies_us.push(us(latency));
        if p.queued {
            self.queue_us.push(r.queue_wait_us as f64);
            self.exec_us.push(r.execute_us as f64);
        }
        if let (Some(t), true) = (tracer.as_deref_mut(), p.sampled) {
            trace_request(t, id, &p, &r, at);
        }
        self.results.push((p.item, r));
    }

    fn failed(&self) -> u64 {
        self.shed + self.rejected + self.violations.len() as u64
    }
}

/// The spans of one sampled request: the client-observed request (root),
/// the generator's lateness, the submit call, and the server's queue-wait
/// and execute stages. The last two are placed back to back after the
/// submit call from the durations the server reports in its
/// `LabelResult`; the benchmark cannot see their exact start.
fn trace_request(t: &mut Tracer, id: u64, p: &Pending, r: &LabelResult, at: Instant) {
    let root = t.record("request", id, None, p.origin, at);
    if p.sent > p.origin {
        t.record("loadgen.lag", id, root, p.origin, p.sent);
    }
    t.record("client.submit", id, root, p.sent, p.sent_end);
    if p.queued {
        let q0 = t.offset_ns(p.sent_end);
        let q1 = q0 + r.queue_wait_us * 1000;
        t.record_ns("server.queue_wait", id, root, q0, q1);
        t.record_ns("server.execute", id, root, q1, q1 + r.execute_us * 1000);
    }
}

// ---------------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------------

/// Open loop: request `i` is due at `start + i / rate` and is sent then,
/// whatever the server is doing (the client never blocks on the server:
/// the completion window holds the whole run and the backpressure policy
/// rejects instead of blocking). Between sends the client spins on its
/// completion queue rather than sleeping: waking from a sleep can take
/// milliseconds on a virtual machine, which would make the generator late
/// and blur receipt times. Returns the generator's lag per request, µs.
fn open_loop(
    ep: &Endpoint,
    items: &[Arc<ItemTruth>],
    order: &[u32],
    rate: f64,
    every: usize,
    ledger: &mut Ledger,
    tracer: &mut Option<&mut Tracer>,
) -> Vec<f64> {
    let schedule = Schedule::at_rate(Instant::now() + Duration::from_millis(2), rate);
    let mut lags = Vec::with_capacity(order.len());
    for (i, &k) in order.iter().enumerate() {
        let due = schedule.due(i);
        while Instant::now() < due {
            match ep.try_recv() {
                Some(ev) => ledger.receive(ev, Instant::now(), tracer),
                None => std::hint::spin_loop(),
            }
        }
        let sent = Instant::now();
        lags.push(us(schedule.lag(i, sent)));
        let submitted = ep.submit(&items[k as usize], i);
        let sent_end = Instant::now();
        match submitted {
            Ok(s) => ledger.submitted(
                s,
                Pending {
                    index: i as u32,
                    item: k,
                    origin: due,
                    sent,
                    sent_end,
                    queued: false,
                    sampled: tracer.is_some() && i % every == 0,
                },
            ),
            Err(e) => ledger.violation(e),
        }
    }
    drain(ep, ledger, tracer);
    lags
}

/// Closed loop over `items` in order, keeping [`WINDOW`] requests in
/// flight: a new request is sent only when a completion frees a slot.
fn closed_loop(
    ep: &Endpoint,
    items: &[Arc<ItemTruth>],
    every: usize,
    ledger: &mut Ledger,
    tracer: &mut Option<&mut Tracer>,
) {
    for (i, item) in items.iter().enumerate() {
        while ledger.pending.len() >= WINDOW {
            if !receive_one(ep, ledger, tracer) {
                return;
            }
        }
        let sent = Instant::now();
        let submitted = ep.submit(item, i);
        let sent_end = Instant::now();
        match submitted {
            Ok(s) => ledger.submitted(
                s,
                Pending {
                    index: i as u32,
                    item: i as u32,
                    origin: sent,
                    sent,
                    sent_end,
                    queued: false,
                    sampled: tracer.is_some() && i % every == 0,
                },
            ),
            Err(e) => {
                ledger.violation(e);
                break;
            }
        }
    }
    drain(ep, ledger, tracer);
}

/// Receive one event; `false` when the endpoint stalled or failed. The
/// failure is recorded and the outstanding requests are abandoned, so the
/// next round starts from an empty ledger.
fn receive_one(ep: &Endpoint, ledger: &mut Ledger, tracer: &mut Option<&mut Tracer>) -> bool {
    let failure = match ep.recv(Instant::now() + STALL) {
        Ok(Some(ev)) => {
            ledger.receive(ev, Instant::now(), tracer);
            return true;
        }
        Ok(None) => format!("{} requests never resolved", ledger.pending.len()),
        Err(e) => e,
    };
    ledger.violation(failure);
    ledger.pending.clear();
    false
}

fn drain(ep: &Endpoint, ledger: &mut Ledger, tracer: &mut Option<&mut Tracer>) {
    while !ledger.pending.is_empty() && receive_one(ep, ledger, tracer) {}
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Inputs of a run: the trained agent, the distinct items, and the
/// submission order over them.
struct Prepared {
    agent: TrainedAgent,
    items: Vec<Arc<ItemTruth>>,
    order: Vec<u32>,
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    truth_ms: f64,
    train_ms: f64,
    server_ms: f64,
}

/// Submissions an open-loop run of `seconds` makes.
fn open_submissions(rate: f64, seconds: f64) -> usize {
    (rate * seconds).ceil().max(1.0) as usize
}

/// Build the inputs, train the agent and start the server (plus bind and
/// connect on the wire workload): everything between workload start and
/// the first submit.
fn setup(
    wl: Workload,
    seed: u64,
    seconds: f64,
    tracer: &mut Option<&mut Tracer>,
) -> Result<(Prepared, Endpoint, SetupTimes), String> {
    let t0 = Instant::now();
    let root = tracer
        .as_deref_mut()
        .and_then(|t| t.open("setup", 0, None, t0));
    let source = ItemSource::new(seed);
    let (items, order) = match wl {
        Workload::GpuOpen => {
            let n = open_submissions(GPU_OPEN_RATE, seconds.min(OPEN_ROUND_S));
            (source.items(n), (0..n as u32).collect())
        }
        Workload::GpuRepeat => {
            let n = open_submissions(GPU_REPEAT_RATE, seconds.min(OPEN_ROUND_S));
            let (order, distinct) = stream::repeat_order(n, REPEAT_SHARE, seed);
            (source.items(distinct), order)
        }
        Workload::CpuClosed => (source.items(CPU_POOL), (0..CPU_POOL as u32).collect()),
        Workload::WireClosed => (source.items(WIRE_POOL), (0..WIRE_POOL as u32).collect()),
    };
    let t1 = Instant::now();
    let train_items = stream::training_items(TRAIN_ITEMS);
    let cfg = TrainConfig {
        episodes: TRAIN_EPISODES,
        ..TrainConfig::fast_test(Algo::Dqn)
    };
    let (agent, _) = train(&train_items, ModelZoo::standard().len(), &cfg);
    let t2 = Instant::now();
    let capacity = if wl.open_rate().is_some() {
        order.len() + 16
    } else {
        WINDOW
    };
    let ep = Endpoint::start(&agent, wl, capacity)?;
    let t3 = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.record("setup.truth_build", 0, root, t0, t1);
        t.record("setup.train", 0, root, t1, t2);
        t.record("setup.server_start", 0, root, t2, t3);
        t.close(root, t3);
    }
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    Ok((
        Prepared {
            agent,
            items,
            order,
        },
        ep,
        SetupTimes {
            total_s: t3.duration_since(t0).as_secs_f64(),
            truth_ms: ms(t0, t1),
            train_ms: ms(t1, t2),
            server_ms: ms(t2, t3),
        },
    ))
}

// ---------------------------------------------------------------------------
// Measuring a segment
// ---------------------------------------------------------------------------

/// Summed server reports of a segment.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    offered: u64,
    completed: u64,
    rejected: u64,
    shed_admission: u64,
    shed_oldest: u64,
    shed_deadline: u64,
    cache_hit: u64,
    coalesced: u64,
    batches: u64,
    model_invocations: u64,
    virtual_work_ms: u64,
    virtual_exec_ms: u64,
    executions: u64,
    stat_items: u64,
    recall_sum: f64,
    affinity_hits: u64,
    affinity_spills: u64,
    cache_insertions: u64,
    cache_evictions: u64,
    obs_events: u64,
    obs_dropped: u64,
}

impl Totals {
    fn add(&mut self, r: &ServeReport) {
        self.offered += r.offered;
        self.completed += r.completed;
        self.rejected += r.rejected;
        self.shed_admission += r.shed_admission;
        self.shed_oldest += r.shed_oldest;
        self.shed_deadline += r.shed_deadline;
        self.cache_hit += r.cache_hit;
        self.coalesced += r.coalesced;
        self.batches += r.batches;
        self.model_invocations += r.model_invocations;
        self.virtual_work_ms += r.virtual_work_ms;
        self.virtual_exec_ms += r.virtual_exec_ms;
        self.executions += r.stats.total_executions as u64;
        self.stat_items += r.stats.items as u64;
        self.recall_sum += r.stats.recall_sum;
        self.affinity_hits += r.affinity_hits;
        self.affinity_spills += r.affinity_spills;
        if let Some(c) = &r.cache {
            self.cache_insertions += c.insertions;
            self.cache_evictions += c.evictions;
        }
        if let Some(o) = &r.obs {
            self.obs_events += o
                .snapshot
                .events
                .iter()
                .map(|e| e.count + e.dropped)
                .sum::<u64>();
            self.obs_dropped += o.snapshot.dropped_total;
        }
    }
}

/// One measured segment: rounds, each against a fresh server, until
/// `seconds` have passed. A closed-loop round submits the item pool once;
/// an open-loop round runs the schedule for [`OPEN_ROUND_S`] (or
/// `seconds`, when shorter).
struct Segment {
    ledger: Ledger,
    totals: Totals,
    /// Per-round throughput and latency.
    rounds: Vec<Round>,
    /// Summed client latency of every labeled request, µs.
    latency_sum_us: f64,
    /// Open loop: per-request generator lag, µs.
    lags_us: Vec<f64>,
    /// `(item, executed models)` of up to [`MICRO_ITEMS`] labeled results.
    outcomes: Vec<(u32, Vec<ModelId>)>,
}

/// One round's client-side figures.
#[derive(Debug, Clone, Copy)]
struct Round {
    /// Labeled completions ÷ (last completion − first submit).
    rate: f64,
    /// Nearest-rank latency percentiles of the round's labeled requests, µs.
    p50_us: f64,
    p99_us: f64,
}

/// Check one server report against the client's view of its round:
/// conservation, event reconciliation, and the same count of offered,
/// labeled, shed and rejected requests on both sides (a refusal counts as
/// offered in-process and over the wire alike).
fn check_report(ledger: &mut Ledger, r: &ServeReport, before: [u64; 4]) {
    if !r.is_conserved() {
        ledger.violation("server report is not conserved".into());
    }
    if !r.events_reconcile() {
        ledger.violation("obs events do not reconcile with the report".into());
    }
    let client = [
        ledger.attempted - before[0],
        ledger.labeled - before[1],
        ledger.shed - before[2],
        ledger.rejected - before[3],
    ];
    let server = [
        r.offered,
        r.completed + r.cache_hit + r.coalesced,
        r.shed_admission + r.shed_oldest + r.shed_deadline,
        r.rejected,
    ];
    if client != server {
        ledger.violation(format!(
            "client saw (offered, labeled, shed, rejected) = {client:?}, server reports {server:?}"
        ));
    }
}

fn measure(
    wl: Workload,
    prep: &Prepared,
    first: Endpoint,
    seconds: f64,
    reference: &Reference,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Segment, String> {
    let mut seg = Segment {
        ledger: Ledger::default(),
        totals: Totals::default(),
        rounds: Vec::new(),
        latency_sum_us: 0.0,
        lags_us: Vec::new(),
        outcomes: Vec::new(),
    };
    let mut next = Some(first);
    let start = Instant::now();
    loop {
        let ep = match next.take() {
            Some(ep) => ep,
            None => Endpoint::start(&prep.agent, wl, WINDOW)?,
        };
        let l = &seg.ledger;
        let before = [l.attempted, l.labeled, l.shed, l.rejected];
        seg.ledger.first_submit = None;
        match wl.open_rate() {
            Some(rate) => {
                let n = open_submissions(rate, seconds).min(prep.order.len());
                let lags = open_loop(
                    &ep,
                    &prep.items,
                    &prep.order[..n],
                    rate,
                    wl.trace_every(),
                    &mut seg.ledger,
                    tracer,
                );
                seg.lags_us.extend(lags);
            }
            None => closed_loop(&ep, &prep.items, wl.trace_every(), &mut seg.ledger, tracer),
        }
        let report = ep.shutdown()?;
        check_report(&mut seg.ledger, &report, before);
        seg.totals.add(&report);
        let l = &mut seg.ledger;
        let labeled = l.labeled - before[1];
        let lat = sorted(std::mem::take(&mut l.latencies_us));
        seg.latency_sum_us += lat.iter().sum::<f64>();
        if let (Some(a), Some(b)) = (l.first_submit, l.last_receipt) {
            seg.rounds.push(Round {
                rate: labeled as f64 / b.duration_since(a).as_secs_f64().max(1e-9),
                p50_us: percentile(&lat, 50.0),
                p99_us: percentile(&lat, 99.0),
            });
        }
        let room = MICRO_ITEMS - seg.outcomes.len();
        seg.outcomes.extend(
            l.results
                .iter()
                .take(room)
                .map(|(item, r)| (*item, r.executed.clone())),
        );
        check_round(wl, l, reference, labeled, prep.items.len());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(seg)
}

// ---------------------------------------------------------------------------
// Correctness reference
// ---------------------------------------------------------------------------

/// The serial engine's answer for the run's distinct items, computed
/// before the timed region (and timed per call in the traced run).
struct Reference {
    labels: Vec<Vec<(LabelId, f32)>>,
    /// Digest of one closed-loop round: every item once.
    digest: Digest,
}

impl Reference {
    fn new(
        agent: &TrainedAgent,
        items: &[Arc<ItemTruth>],
        tracer: &mut Option<&mut Tracer>,
    ) -> Self {
        let s = scheduler(agent);
        let labels: Vec<_> = items
            .iter()
            .map(|item| match tracer.as_deref_mut() {
                Some(t) => t.time("core.label_item", 0, None, || s.label_item(item, BUDGET)),
                None => s.label_item(item, BUDGET),
            })
            .map(|o| o.labels)
            .collect();
        let mut digest = Digest::default();
        for (k, l) in labels.iter().enumerate() {
            digest.add(k as u64, l);
        }
        Self { labels, digest }
    }
}

/// Check a round's labeled results against the serial engine, then free
/// them. A closed-loop round labels every pool item once, so its
/// order-independent digest must equal the serial one; an open-loop
/// round's results (cache hits and coalesced followers included) must
/// each carry exactly the serial labels of their item.
fn check_round(wl: Workload, l: &mut Ledger, reference: &Reference, labeled: u64, pool: usize) {
    let results = std::mem::take(&mut l.results);
    if wl.open_rate().is_some() {
        for (item, r) in &results {
            if r.labels != reference.labels[*item as usize] {
                l.violation(format!(
                    "labels of item {item} differ from the serial engine"
                ));
            }
        }
        return;
    }
    let mut digest = Digest::default();
    for (item, r) in &results {
        digest.add(u64::from(*item), &r.labels);
    }
    if labeled != pool as u64 || digest != reference.digest {
        l.violation(format!(
            "round digest {:016x} over {labeled} results, serial {:016x} over {pool}",
            digest.0, reference.digest.0
        ));
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every check passed and the load generator kept its schedule.
    pub correct: bool,
    /// Requests offered.
    pub attempted: u64,
    /// Requests shed, rejected or failed, plus violated checks.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Traced run: busy and self time per span name.
    pub self_times: Vec<String>,
}

fn end_to_end(seg: &Segment, setup_s: f64) -> Vec<Metric> {
    let l = &seg.ledger;
    let t = &seg.totals;
    let per_round = |f: fn(&Round) -> f64| median(&seg.rounds.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric {
            name: "throughput_items_per_s",
            value: per_round(|r| r.rate),
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms",
            value: per_round(|r| r.p50_us) / 1e3,
            unit: "ms",
        },
        Metric {
            name: "latency_p99_ms",
            value: per_round(|r| r.p99_us) / 1e3,
            unit: "ms",
        },
        Metric {
            name: "deadline_met_fraction",
            value: ratio(l.deadline_met as f64, l.attempted as f64),
            unit: "fraction",
        },
        Metric {
            name: "mean_recall",
            value: ratio(t.recall_sum, t.stat_items as f64),
            unit: "fraction",
        },
        Metric {
            name: "gpu_ms_per_item",
            value: ratio(t.virtual_work_ms as f64, l.labeled as f64),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: stats::peak_rss_mb(),
            unit: "MiB",
        },
    ]
}

/// Per-call timings of the traced run, each over up to [`MICRO_ITEMS`]
/// of the run's items, recorded as spans.
/// Returns the mean request frame size, bytes.
fn micro_timings(prep: &Prepared, seg: &Segment, t: &mut Tracer) -> Result<f64, String> {
    let s = scheduler(&prep.agent);
    let cfg = serve_config(0.0);
    let router = Router::new(cfg.routing, cfg.shards);
    let items = &prep.items[..prep.items.len().min(MICRO_ITEMS)];
    let mut values = vec![0.0f32; s.zoo().len()];
    for item in items {
        t.time("router.fingerprint", 0, None, || {
            black_box(router.fingerprint(&s, item, true))
        });
        t.time("cache.content_hash", 0, None, || {
            black_box(content_hash(item))
        });
        t.time("nn.predict", 0, None, || {
            s.initial_values_into(item, &mut values);
            black_box(&values);
        });
    }
    let mut frame_bytes = 0usize;
    for (k, item) in items.iter().enumerate() {
        let frame = ClientFrame::Request(WireRequest {
            id: k as u64,
            item: (**item).clone(),
            class: class_of(k),
            deadline_us: None,
            value: None,
        });
        let mut buf = Vec::new();
        t.time("wire.encode", 0, None, || {
            encode_value(&frame.to_value(), &mut buf)
        });
        let decoded = t.time("wire.decode", 0, None, || {
            decode_value(&buf).map(|v| ClientFrame::from_value(&v))
        });
        frame_bytes += buf.len();
        match decoded {
            Ok(Ok(ClientFrame::Request(w))) if content_hash(&w.item) == content_hash(item) => {}
            _ => return Err("a request frame did not round-trip".into()),
        }
    }
    let mut trainer = OnlineTrainer::new(&prep.agent, &OnlineConfig::default());
    for (item, executed) in &seg.outcomes {
        trainer.absorb(&prep.items[*item as usize], executed);
    }
    if !trainer.ready() {
        return Err("too few served outcomes to take a learn step".into());
    }
    for _ in 0..LEARN_STEPS {
        t.time("trainer.learn_step", 0, None, || {
            black_box(trainer.learn_step())
        });
    }
    Ok(ratio(frame_bytes as f64, items.len() as f64))
}

fn per_layer(
    wl: Workload,
    setups: &[SetupTimes],
    untraced: &Segment,
    seg: &Segment,
    t: &Tracer,
    request_bytes: f64,
) -> Vec<Metric> {
    let l = &seg.ledger;
    let tot = &seg.totals;
    let mean_of = |name: &str| mean(&t.durations_us(name));
    let submit = sorted(t.durations_us("client.submit"));
    let queue = sorted(l.queue_us.clone());
    let exec = sorted(l.exec_us.clone());
    let totals = t.self_times();
    let total_of = |name: &str| totals.get(name).map_or(0, |n| n.total_ns) as f64;
    let requests = totals.get("request").copied().unwrap_or_default();
    let attributed =
        total_of("client.submit") + total_of("server.queue_wait") + total_of("server.execute");
    // Tracing overhead: closed loops lose throughput, open loops gain
    // latency (the load is fixed).
    let overhead = match wl.open_rate() {
        None => {
            let rate = |s: &Segment| median(&s.rounds.iter().map(|r| r.rate).collect::<Vec<_>>());
            ratio(rate(untraced), rate(seg)) - 1.0
        }
        Some(_) => {
            let mean_us = |s: &Segment| ratio(s.latency_sum_us, s.ledger.labeled as f64);
            ratio(mean_us(seg) - mean_us(untraced), mean_us(untraced))
        }
    };
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("submit.call_us_p50", percentile(&submit, 50.0), "us"),
        m("submit.call_us_p99", percentile(&submit, 99.0), "us"),
        m("router.fingerprint_us", mean_of("router.fingerprint"), "us"),
        m(
            "router.affinity_hit_rate",
            ratio(
                tot.affinity_hits as f64,
                (tot.affinity_hits + tot.affinity_spills) as f64,
            ),
            "fraction",
        ),
        m("router.spills", tot.affinity_spills as f64, "count"),
        m("cache.content_hash_us", mean_of("cache.content_hash"), "us"),
        m(
            "cache.hit_rate",
            ratio((tot.cache_hit + tot.coalesced) as f64, tot.offered as f64),
            "fraction",
        ),
        m("cache.insertions", tot.cache_insertions as f64, "count"),
        m("cache.evictions", tot.cache_evictions as f64, "count"),
        m("queue.wait_us_p50", percentile(&queue, 50.0), "us"),
        m("queue.wait_us_p99", percentile(&queue, 99.0), "us"),
        m("queue.shed_admission", tot.shed_admission as f64, "count"),
        m("queue.shed_oldest", tot.shed_oldest as f64, "count"),
        m("queue.shed_deadline", tot.shed_deadline as f64, "count"),
        m("worker.execute_us_p50", percentile(&exec, 50.0), "us"),
        m("worker.execute_us_p99", percentile(&exec, 99.0), "us"),
        m("worker.batches", tot.batches as f64, "count"),
        m(
            "worker.mean_batch_size",
            ratio(tot.completed as f64, tot.batches as f64),
            "count",
        ),
        m(
            "worker.mean_coalesced",
            ratio(tot.executions as f64, tot.model_invocations as f64),
            "count",
        ),
        m("core.label_item_us", mean_of("core.label_item"), "us"),
        m(
            "core.models_per_item",
            ratio(tot.executions as f64, tot.stat_items as f64),
            "count",
        ),
        m("nn.predict_us", mean_of("nn.predict"), "us"),
        m(
            "sim.makespan_ms_per_batch",
            ratio(tot.virtual_exec_ms as f64, tot.batches as f64),
            "ms",
        ),
        m("wire.encode_us", mean_of("wire.encode"), "us"),
        m("wire.decode_us", mean_of("wire.decode"), "us"),
        m("wire.request_bytes", request_bytes, "bytes"),
        m("obs.events_total", tot.obs_events as f64, "count"),
        m("obs.dropped_total", tot.obs_dropped as f64, "count"),
        m("setup.truth_build_ms", med(|s| s.truth_ms), "ms"),
        m("setup.train_ms", med(|s| s.train_ms), "ms"),
        m("setup.server_start_ms", med(|s| s.server_ms), "ms"),
        m("trainer.learn_step_us", mean_of("trainer.learn_step"), "us"),
        m(
            "loadgen.lag_p99_ms",
            percentile(&sorted(seg.lags_us.clone()), 99.0) / 1e3,
            "ms",
        ),
        m(
            "trace.attributed_fraction",
            ratio(attributed, requests.total_ns as f64),
            "fraction",
        ),
        m(
            "trace.request_self_us",
            ratio(requests.self_ns as f64, requests.count as f64) / 1e3,
            "us",
        ),
        m("trace.overhead_fraction", overhead, "fraction"),
        m("trace.spans_dropped", t.dropped() as f64, "count"),
    ]
}

/// Where the traced run writes its spans.
fn trace_path(wl: Workload, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{seed}.tsv", wl.name()))
}

/// Run one workload: set up [`SETUP_REPS`] times, measure for `seconds`,
/// check every output, and fold the metrics. With `traced` the run
/// measures an untraced and a traced half, times the per-layer calls, and
/// reports per-layer metrics only.
pub fn run(wl: Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let mut tracer_store = traced.then(|| Tracer::new(Instant::now(), SPAN_CAPACITY));
    let mut tracer = tracer_store.as_mut();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(Prepared, Endpoint)> = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up (its items too) before the next one.
        if let Some((_, ep)) = kept.take() {
            ep.shutdown()?;
        }
        let (prep, ep, times) = setup(wl, seed, seconds, &mut tracer)?;
        setups.push(times);
        kept = Some((prep, ep));
    }
    let (prep, ep) = kept.ok_or("no set-up ran")?;
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());

    let reference = Reference::new(&prep.agent, &prep.items, &mut tracer);
    let half = seconds / 2.0;
    let (untraced, mut seg) = if traced {
        let untraced = measure(wl, &prep, ep, half, &reference, &mut None)?;
        let ep = Endpoint::start(&prep.agent, wl, prep.order.len() + 16)?;
        let seg = measure(wl, &prep, ep, half, &reference, &mut tracer)?;
        (Some(untraced), seg)
    } else {
        (
            None,
            measure(wl, &prep, ep, seconds, &reference, &mut None)?,
        )
    };
    // Unique streams carry no two submissions with one content hash.
    let hashes: HashSet<u64> = prep.items.iter().map(|i| content_hash(i)).collect();
    if wl != Workload::GpuRepeat && hashes.len() != prep.items.len() {
        seg.ledger
            .violation("a unique stream repeats content".into());
    }
    let on_schedule = |s: &Segment| {
        let lag_p99_ms = percentile(&sorted(s.lags_us.clone()), 99.0) / 1e3;
        if lag_p99_ms > MAX_LAG_P99_MS {
            eprintln!(
                "[perfbench] invalid run: the generator's p99 lag was {lag_p99_ms:.2} ms \
                 (limit {MAX_LAG_P99_MS} ms), so the offered load was not the fixed rate"
            );
        }
        lag_p99_ms <= MAX_LAG_P99_MS
    };
    let segments: Vec<&Segment> = std::iter::once(&seg).chain(untraced.as_ref()).collect();
    let correct = segments
        .iter()
        .all(|s| on_schedule(s) && s.ledger.violations.is_empty());
    let attempted = segments.iter().map(|s| s.ledger.attempted).sum();
    let failed = segments.iter().map(|s| s.ledger.failed()).sum();

    let mut self_times = Vec::new();
    let metrics = match (untraced, tracer) {
        (Some(untraced), Some(t)) => {
            let request_bytes = micro_timings(&prep, &seg, t)?;
            let metrics = per_layer(wl, &setups, &untraced, &seg, t, request_bytes);
            for (name, n) in t.self_times() {
                self_times.push(format!(
                    "{name}: {} spans, busy {:.3} ms, self {:.3} ms",
                    n.count,
                    n.total_ns as f64 / 1e6,
                    n.self_ns as f64 / 1e6
                ));
            }
            let path = trace_path(wl, seed);
            t.write(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("[perfbench] spans written to {}", path.display());
            metrics
        }
        _ => end_to_end(&seg, setup_s),
    };
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        self_times,
    })
}
