//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (nothing inside the program is instrumented). They
//! stay in memory until the run ends, then [`Tracer::write`] dumps them
//! as tab-separated lines and [`Tracer::self_times`] folds them into
//! per-name busy and self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = u32;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call or phase name, e.g. `"client.submit"`.
    pub name: &'static str,
    /// Request id (ticket or wire id) the span belongs to; 0 for spans
    /// that are not tied to a request.
    pub req: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Busy and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part covered by child
    /// spans), ns.
    pub self_ns: u64,
}

/// Bounded in-memory span store. Past `capacity` spans, further spans are
/// counted in [`Tracer::dropped`] instead of stored.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end]` under `name`; returns its id, or `None` when
    /// the recorder is full.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let start_ns = self.ns(start);
        self.record_ns(name, req, parent, start_ns, self.ns(end).max(start_ns))
    }

    /// Record a span given in recorder nanoseconds — used for the server
    /// stages, whose durations the server reports and whose placement the
    /// benchmark reconstructs.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Start a span whose end is not known yet (a phase with child
    /// spans); [`Tracer::close`] sets its end.
    pub fn open(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> Option<SpanId> {
        let start_ns = self.ns(start);
        self.record_ns(name, req, parent, start_ns, start_ns)
    }

    /// End a span started with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(s) = id.and_then(|id| self.spans.get_mut(id as usize)) {
            s.end_ns = end_ns.max(s.start_ns);
        }
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, req, parent, start, Instant::now());
        out
    }

    /// Nanoseconds since the origin for `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        self.ns(at)
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// Per-name busy and self time. A span's self time is its duration
    /// minus the part of its interval that its children cover (children
    /// of one parent are assumed not to overlap each other, which holds
    /// for the benchmark's sequential calls).
    pub fn self_times(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p as usize] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(*c);
        }
        out
    }

    /// Write every span as `id name req parent start_ns end_ns`
    /// (tab-separated, parent `-` for roots), preceded by a header.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# id\tname\treq\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Microseconds of a duration as `f64`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
