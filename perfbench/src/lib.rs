//! The repository benchmark: four serving workloads driven at fixed,
//! absolute load through the public `ams` API, with correctness checks
//! inside every run and a separate traced run for per-layer numbers.
//! See `METHODOLOGY.md` next to this crate.

pub mod digest;
pub mod run;
pub mod stats;
pub mod stream;
pub mod trace;
