//! Summary statistics and the open-loop time accounting.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the samples at or below it. With `n`
/// samples, p99 leaves `n - ceil(0.99 n)` samples strictly beyond it, so
/// a p99 backed by at least ten samples beyond it needs `n >= 1000`.
/// Returns 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (total order; NaN never occurs in timings).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A fixed open-loop arrival schedule: request `i` is due at
/// `start + i * period`, whatever the server is doing.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When request 0 is due.
    pub start: Instant,
    /// Gap between consecutive due times.
    pub period: Duration,
}

impl Schedule {
    /// A schedule offering `rate_per_s` requests per second from `start`.
    pub fn at_rate(start: Instant, rate_per_s: f64) -> Self {
        Self {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period * i as u32
    }

    /// Client-observed latency of request `i`, counted from its *due*
    /// time, not from when the generator got round to sending it: a stall
    /// that delays later sends is charged to those requests too.
    pub fn latency(&self, i: usize, received: Instant) -> Duration {
        received.saturating_duration_since(self.due(i))
    }

    /// How late the generator sent request `i` (0 when on time).
    pub fn lag(&self, i: usize, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
