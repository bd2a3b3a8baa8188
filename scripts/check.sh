#!/usr/bin/env bash
# One-command gate for every PR: formatting, lints (clippy + the ams-lint
# workspace analyzer), the perf gate, and the tier-1 verify. Three modes:
#
#   ./scripts/check.sh          # full: fmt + clippy + release build
#                               #       + perfbench self-tests + bench
#                               #       gate + a 2 s run of every
#                               #       benchmark workload + tier-1
#   ./scripts/check.sh --quick  # fmt + clippy + a fast label-cache pass
#                               #       (PROPTEST_CASES=16) + debug tests
#                               #       (no release build, no bench gate)
#   ./scripts/check.sh --smoke  # fmt + clippy + bench gate only (the
#                               #       fast perf-regression lane; runs
#                               #       scripts/bench_gate.sh, which also
#                               #       asserts serve==serial equivalence)
#
# PROPTEST_CASES=16 ./scripts/check.sh gives a faster property-test pass
# while iterating; leave it unset for the full default case counts.

set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
for arg in "$@"; do
    case "$arg" in
    --quick) mode=quick ;;
    --smoke) mode=smoke ;;
    *)
        echo "unknown flag: $arg" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Workspace-specific static analysis (all modes — it is fast): first prove
# every rule can fire on its injected-violation fixtures, then require the
# tree itself to be clean. Rules and allow-list syntax: LINTS.md.
echo "==> ams-lint --self-test"
cargo run -q -p ams-lint -- --self-test
echo "==> ams-lint (workspace must be clean)"
cargo run -q -p ams-lint -- .

if [[ $mode == full ]]; then
    echo "==> cargo build --release"
    cargo build --release
    # The benchmark (perfbench/) is its own cargo workspace and imports the
    # public API (the wire codec and frame types among it): build it and
    # run its self-tests so an API change that breaks it fails here.
    echo "==> perfbench build + self-tests"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
fi

if [[ $mode == full || $mode == smoke ]]; then
    # Perf-regression gate: smoke sweeps compared against the committed
    # baselines (plus the in-process serve==serial equivalence assert).
    ./scripts/bench_gate.sh
fi

if [[ $mode == full ]]; then
    # A short run of every workload BENCHMARK.json names, after the bench
    # gate so its wall-clock sweeps do not follow a loaded stretch. Each
    # round perfbench checks conservation, event reconciliation, client ==
    # server counts and label digests under the SLO + cache + obs config;
    # the last output line must report them all held and no operation
    # failed. Workload entries are the ones carrying a "why".
    for wl in $(grep -o '"name": *"[^"]*", *"why"' BENCHMARK.json | cut -d'"' -f4); do
        echo "==> perfbench --workload $wl --seconds 2"
        last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$wl" --seed 1 --seconds 2 --trace 0 | tail -n 1)
        if [[ $last != *'"correct": true'* || $last != *'"failed": 0,'* ]]; then
            echo "perfbench $wl failed its checks: ${last:0:200}" >&2
            exit 1
        fi
    done
fi

if [[ $mode == quick ]]; then
    # Targeted first pass over the label cache: the stripe/eviction unit
    # tests plus the cross-policy coalescing + cancellation-storm suite,
    # capped at 16 proptest cases so exactly-once violations surface in
    # seconds before the full debug run below.
    echo "==> label-cache tests (PROPTEST_CASES=16)"
    PROPTEST_CASES=16 cargo test -q -p ams-serve --lib cache::
    PROPTEST_CASES=16 cargo test -q -p ams-serve --test cache_coalescing
fi

if [[ $mode == full || $mode == quick ]]; then
    echo "==> cargo test -q"
    cargo test -q
fi

echo "All checks passed."
