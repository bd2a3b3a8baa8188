//! Self-tests of the benchmark harness: the percentile rule, due-time
//! latency accounting, digest order-independence, span self time, and
//! the stream properties the workloads rely on.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ams::core::framework::content_hash;
use ams::prelude::LabelId;
use perfbench::digest::Digest;
use perfbench::stats::{median, percentile, sorted, Schedule};
use perfbench::stream::{repeat_order, ItemSource};
use perfbench::trace::Tracer;
use std::collections::HashSet;
use std::time::{Duration, Instant};

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), 500.0);
    assert_eq!(percentile(&xs, 99.0), 990.0);
    assert_eq!(percentile(&xs, 100.0), 1000.0);
    assert_eq!(percentile(&xs, 0.0), 1.0);
    // 1000 samples leave exactly ten beyond p99.
    assert_eq!(
        xs.iter().filter(|&&x| x > percentile(&xs, 99.0)).count(),
        10
    );
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(sorted(vec![2.0, -1.0, 0.5]), vec![-1.0, 0.5, 2.0]);
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    let t0 = Instant::now();
    let s = Schedule::at_rate(t0, 1000.0);
    assert_eq!(s.due(5), t0 + Duration::from_millis(5));
    // Request 5 is sent 3 ms late and answered 2 ms after that: the user
    // waited 5 ms, of which the generator's stall is 3 ms.
    let sent = t0 + Duration::from_millis(8);
    let received = t0 + Duration::from_millis(10);
    assert_eq!(s.lag(5, sent), Duration::from_millis(3));
    assert_eq!(s.latency(5, received), Duration::from_millis(5));
    // On-time sends have zero lag, and nothing is ever negative.
    assert_eq!(s.lag(5, s.due(5)), Duration::ZERO);
    assert_eq!(s.latency(11, received), Duration::ZERO);
}

fn results() -> Vec<(u64, Vec<(LabelId, f32)>)> {
    (0..50u16)
        .map(|i| {
            let labels = (0..i % 5)
                .map(|j| (LabelId(i * 7 + j), 0.5 + f32::from(j) / 10.0))
                .collect();
            (u64::from(i), labels)
        })
        .collect()
}

fn fold<'a>(it: impl Iterator<Item = &'a (u64, Vec<(LabelId, f32)>)>) -> Digest {
    let mut d = Digest::default();
    for (i, labels) in it {
        d.add(*i, labels);
    }
    d
}

#[test]
fn digest_ignores_order_but_not_content() {
    let rs = results();
    let forward = fold(rs.iter());
    assert_eq!(forward, fold(rs.iter().rev()));
    let mut shuffled = rs.clone();
    shuffled.swap(3, 41);
    shuffled.swap(0, 17);
    assert_eq!(forward, fold(shuffled.iter()));

    // A result delivered twice, or missing, changes the digest.
    assert_ne!(forward, fold(rs.iter().chain(rs.iter().take(1))));
    assert_ne!(forward, fold(rs.iter().skip(1)));
    // So does one confidence bit, or labels landing on the wrong item.
    let mut tweaked = rs.clone();
    tweaked[4].1[0].1 = f32::from_bits(tweaked[4].1[0].1.to_bits() ^ 1);
    assert_ne!(forward, fold(tweaked.iter()));
    let mut moved = rs.clone();
    let (a, b) = (moved[3].1.clone(), moved[4].1.clone());
    moved[3].1 = b;
    moved[4].1 = a;
    assert_ne!(forward, fold(moved.iter()));
}

#[test]
fn unique_streams_never_repeat_content() {
    let a = ItemSource::new(1).items(300);
    let b = ItemSource::new(2).items(300);
    let hashes: HashSet<u64> = a.iter().map(|i| content_hash(i)).collect();
    assert_eq!(hashes.len(), a.len(), "a unique stream repeats content");
    // Seeds draw disjoint scenes.
    assert!(b.iter().all(|i| !hashes.contains(&content_hash(i))));
    // Same seed, same items.
    let again = ItemSource::new(1).items(20);
    assert!(again
        .iter()
        .zip(&a)
        .all(|(x, y)| content_hash(x) == content_hash(y)));
}

#[test]
fn repeat_stream_repeats_nine_in_ten() {
    let n = 30_000;
    let (order, distinct) = repeat_order(n, 0.9, 1);
    assert_eq!(order.len(), n);
    assert_eq!(order[0], 0, "the first submission is fresh");
    assert!(order.iter().all(|&k| (k as usize) < distinct));
    let used: HashSet<u32> = order.iter().copied().collect();
    assert_eq!(used.len(), distinct, "every fresh draw is submitted");
    let repeat_share = 1.0 - distinct as f64 / n as f64;
    assert!(
        (repeat_share - 0.9).abs() < 0.01,
        "repeat share {repeat_share}"
    );
    // Deterministic per seed, different across seeds.
    assert_eq!(repeat_order(n, 0.9, 1).0, order);
    assert_ne!(repeat_order(n, 0.9, 2).0, order);
    // With no repeats it is the unique stream, in order.
    assert_eq!(repeat_order(100, 0.0, 1), ((0..100).collect(), 100));
}

#[test]
fn self_time_subtracts_what_children_cover() {
    let mut t = Tracer::new(Instant::now(), 16);
    let root = t.record_ns("request", 1, None, 0, 100_000);
    t.record_ns("client.submit", 1, root, 10_000, 40_000);
    // A reconstructed child may overrun its parent; only the overlap counts.
    t.record_ns("server.execute", 1, root, 90_000, 120_000);
    let totals = t.self_times();
    assert_eq!(totals["request"].total_ns, 100_000);
    assert_eq!(totals["request"].self_ns, 60_000);
    assert_eq!(totals["client.submit"].self_ns, 30_000);
    assert_eq!(totals["server.execute"].total_ns, 30_000);
    // Past capacity, spans are counted, not stored.
    let mut full = Tracer::new(Instant::now(), 1);
    assert!(full.record_ns("a", 0, None, 0, 1).is_some());
    assert!(full.record_ns("b", 0, None, 0, 1).is_none());
    assert_eq!(full.dropped(), 1);
}
