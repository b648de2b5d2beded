//! # hetero-flight
//!
//! The second observability leg of the workspace, after structured
//! tracing, counters and histograms (`hetero-trace`): **forensics and
//! automated judgment** for asynchronous CPU+GPU training runs.
//!
//! - [`FlightRecorder`] — an always-on black box. It keeps a bounded
//!   retention window of recent trace events (by handing the engine a
//!   bounded [`hetero_trace::TraceSink`] when the caller did not supply
//!   one), a drop-oldest ring of periodic [`HealthSnapshot`]s (loss, batch
//!   sizes, staleness quantiles, gradient norms), and run
//!   [`Provenance`] (serialized config, git sha, SIMD level). On any fault
//!   path — worker retirement, abort, or watchdog trip — the engine dumps
//!   a self-contained [`PostmortemBundle`] JSON that the
//!   `hetero-postmortem` binary renders as a human-readable report and a
//!   Perfetto-loadable Chrome trace.
//! - [`Watchdog`] — the training-health monitor the engines feed from
//!   their hot paths: per-layer gradient/update norms and NaN/±Inf counts
//!   (computed by SIMD scans or fused into the shared-model merge loop),
//!   plus loss divergence and stall detectors evaluated at every eval
//!   point. A configurable [`HealthPolicy`] maps each condition to Warn →
//!   clamp-the-adaptive-controller → abort-with-postmortem. Each
//!   condition reacts at most once per run; the watchdog queues the
//!   reaction and the coordinator enforces it at its health poll
//!   ([`Watchdog::take_reactions`]), nowhere else.
//!
//! Both follow the workspace's disabled-by-default observability pattern:
//! a disabled recorder/watchdog is an `Option::None` wrapper whose every
//! method is a no-op, so un-instrumented runs pay nothing and behave
//! bit-identically.

#![warn(missing_docs)]

pub mod bundle;
pub mod policy;
pub mod recorder;
pub mod watchdog;

pub use bundle::{render_report, MetricRow, PostmortemBundle, SCHEMA};
pub use policy::{HealthAction, HealthPolicy, HealthSummary, NonfiniteRecord};
pub use recorder::{read_git_sha, FlightConfig, FlightRecorder, HealthSnapshot, Provenance};
pub use watchdog::{Watchdog, WatchdogState};
