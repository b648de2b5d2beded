//! # hetero-benchmark
//!
//! The repository's one benchmark (see `README.md` beside this crate):
//! four fixed-work workloads, end-to-end medians over 24 trials, and a
//! per-layer suite + replay for the traced run. From here on every
//! performance claim about this repo names a metric and a workload defined
//! in [`names`].

pub mod host;
pub mod layers;
pub mod names;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod workloads;
