//! `hetero-scope` (`hetero-metrics`): aggregated live metrics for the
//! heterogeneous CPU+GPU training stack.
//!
//! PR 1's `hetero-trace` records raw events; this crate adds the
//! *aggregation* layer the paper actually reasons about:
//!
//! - [`LogHistogram`]: lock-free, allocation-free-on-record, mergeable
//!   log-bucketed histograms (≤1% relative quantile error);
//! - [`MetricsHub`]: per-worker histogram registry the engines tick with
//!   batch latency, queue wait, H2D/D2H transfer time, merge contention,
//!   and per-update gradient staleness. Its summaries feed
//!   `TrainResult::staleness` and the flight recorder's postmortems.
//!
//! ```
//! use hetero_metrics::{Metric, MetricsHub};
//!
//! let hub = MetricsHub::new();
//! let latency = hub.histogram(Metric::BatchLatency, 0);
//! latency.record_secs(0.0015); // stored as nanoseconds
//! let summary = hub.summary(Metric::BatchLatency).unwrap();
//! assert_eq!(summary.count, 1);
//! ```

#![warn(missing_docs)]

mod histogram;
mod hub;

pub use histogram::{
    bucket_index, bucket_lower, bucket_mid, bucket_width, HistogramSnapshot, LogHistogram, Summary,
    NUM_BUCKETS, SUB_BITS,
};
pub use hub::{HistHandle, HistogramSeries, HubSnapshot, Metric, MetricsHub, GLOBAL_WORKER};
