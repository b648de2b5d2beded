//! The [`MetricsHub`]: per-worker histogram registry the engines tick.
//!
//! Mirrors the `hetero-trace` sink design: a hub is either *disabled* (the
//! default — every operation is a no-op and handles are empty so the hot
//! path costs one branch) or *enabled*, in which case
//! [`MetricsHub::histogram`] lazily registers a [`LogHistogram`] per
//! `(metric, worker)` pair and returns a pre-resolved [`HistHandle`]. The
//! registry lock is only taken at handle-resolution time (engine startup);
//! the record path touches nothing but the histogram's own atomics.

use crate::histogram::{HistogramSnapshot, LogHistogram, Summary};
use parking_lot::RwLock;
use std::sync::Arc;

/// Worker id used for hub series that are not attributable to a single
/// worker (e.g. merge contention sampled inside `SharedModel`).
pub const GLOBAL_WORKER: u32 = u32::MAX;

/// The distributional quantities the engines aggregate (DESIGN.md §4g).
///
/// Durations are recorded in **nanoseconds**; `Staleness` and
/// `MergeRetries` are raw counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Wall/virtual time a worker spent computing one batch (ns).
    BatchLatency,
    /// Time a worker waited on its work queue between batches (ns).
    QueueWait,
    /// Host-to-device transfer time per upload (ns).
    H2d,
    /// Device-to-host transfer time per download (ns).
    D2h,
    /// Time spent inside `SharedModel::merge` per merge (ns).
    MergeWait,
    /// Stripes found owned by another merger while merging one delta
    /// (count; merger ↔ merger contention).
    MergeRetries,
    /// Gradient staleness per applied update: shared-model version at merge
    /// minus version at read (count of interleaved foreign updates).
    Staleness,
    /// Wall time spent publishing one crash-consistency checkpoint:
    /// serialize + write + fsync + atomic rename (ns).
    CkptWrite,
    /// Layer-0 weight columns touched by one sparse merge/apply (count;
    /// the batch's active-column set size — the row-sparsity measure).
    RowsTouched,
    /// Stripes found owned by another merger while merging one delta via
    /// the **sparse** merge path (count; compare with `MergeRetries`).
    MergeRetriesSparse,
}

impl Metric {
    /// Every metric, in declaration order.
    pub const ALL: [Metric; 10] = [
        Metric::BatchLatency,
        Metric::QueueWait,
        Metric::H2d,
        Metric::D2h,
        Metric::MergeWait,
        Metric::MergeRetries,
        Metric::Staleness,
        Metric::CkptWrite,
        Metric::RowsTouched,
        Metric::MergeRetriesSparse,
    ];

    /// Stable snake_case name (without unit suffix).
    pub fn name(&self) -> &'static str {
        match self {
            Metric::BatchLatency => "batch_latency",
            Metric::QueueWait => "queue_wait",
            Metric::H2d => "h2d_transfer",
            Metric::D2h => "d2h_transfer",
            Metric::MergeWait => "merge_wait",
            Metric::MergeRetries => "merge_retries",
            Metric::Staleness => "staleness",
            Metric::CkptWrite => "ckpt_write",
            Metric::RowsTouched => "rows_touched",
            Metric::MergeRetriesSparse => "merge_retries_sparse",
        }
    }
}

/// Registered series, keyed by (metric, worker).
type SeriesTable = Vec<((Metric, u32), Arc<LogHistogram>)>;

struct HubInner {
    // Linear scan keyed by (metric, worker): resolved once per worker at
    // engine startup, so O(n) lookup under a short write lock is fine.
    series: RwLock<SeriesTable>,
}

/// Engine-facing histogram registry. Cheap to clone (an `Arc` — or nothing
/// at all when disabled); share one per run.
#[derive(Clone)]
pub struct MetricsHub {
    inner: Option<Arc<HubInner>>,
}

impl MetricsHub {
    /// A no-op hub: handle resolution returns empty handles, recording is
    /// a single branch, snapshots are empty.
    pub fn disabled() -> Self {
        MetricsHub { inner: None }
    }

    /// A live hub.
    pub fn new() -> Self {
        MetricsHub {
            inner: Some(Arc::new(HubInner {
                series: RwLock::new(Vec::new()),
            })),
        }
    }

    /// Whether this hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolve (registering on first use) the histogram for `metric` on
    /// `worker`. Call once per worker outside the hot loop and keep the
    /// returned handle; recording through it is lock-free.
    pub fn histogram(&self, metric: Metric, worker: u32) -> HistHandle {
        let Some(inner) = &self.inner else {
            return HistHandle { hist: None };
        };
        {
            let series = inner.series.read();
            if let Some((_, h)) = series.iter().find(|(k, _)| *k == (metric, worker)) {
                return HistHandle {
                    hist: Some(Arc::clone(h)),
                };
            }
        }
        let mut series = inner.series.write();
        if let Some((_, h)) = series.iter().find(|(k, _)| *k == (metric, worker)) {
            return HistHandle {
                hist: Some(Arc::clone(h)),
            };
        }
        let h = Arc::new(LogHistogram::new());
        series.push(((metric, worker), Arc::clone(&h)));
        HistHandle { hist: Some(h) }
    }

    /// Point-in-time copy of every registered series, sorted by
    /// ([`Metric::ALL`] order, worker) so snapshots compare deterministically.
    pub fn snapshot(&self) -> HubSnapshot {
        let mut series: Vec<HistogramSeries> = match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .series
                .read()
                .iter()
                .map(|((metric, worker), h)| HistogramSeries {
                    metric: *metric,
                    worker: *worker,
                    snapshot: h.snapshot(),
                })
                .collect(),
        };
        series.sort_by_key(|s| {
            let order = Metric::ALL.iter().position(|m| *m == s.metric).unwrap_or(0);
            (order, s.worker)
        });
        HubSnapshot { series }
    }

    /// Cross-worker summary of one metric, or `None` when the hub is
    /// disabled or the metric has no observations.
    pub fn summary(&self, metric: Metric) -> Option<Summary> {
        let merged = self.snapshot().merged(metric)?;
        if merged.count() == 0 {
            return None;
        }
        Some(merged.summary())
    }
}

impl Default for MetricsHub {
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHub")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Pre-resolved recording handle for one `(metric, worker)` series.
/// Cloneable and `Sync`: rayon lanes inside one worker may share it.
#[derive(Clone)]
pub struct HistHandle {
    hist: Option<Arc<LogHistogram>>,
}

impl HistHandle {
    /// A handle that records nowhere (what a disabled hub hands out).
    pub fn disabled() -> Self {
        HistHandle { hist: None }
    }

    /// Whether recording through this handle is a no-op.
    pub fn is_disabled(&self) -> bool {
        self.hist.is_none()
    }

    /// Record one observation (no-op when disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.hist {
            h.record(v);
        }
    }

    /// Record a duration in seconds, stored as whole nanoseconds.
    #[inline]
    pub fn record_secs(&self, secs: f64) {
        if self.hist.is_some() && secs >= 0.0 {
            self.record((secs * 1e9) as u64);
        }
    }
}

impl std::fmt::Debug for HistHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistHandle")
            .field("enabled", &self.hist.is_some())
            .finish()
    }
}

/// One `(metric, worker)` series in a [`HubSnapshot`].
#[derive(Debug, Clone)]
pub struct HistogramSeries {
    /// Which quantity.
    pub metric: Metric,
    /// Which worker recorded it ([`GLOBAL_WORKER`] for unattributed series).
    pub worker: u32,
    /// The data.
    pub snapshot: HistogramSnapshot,
}

/// Point-in-time copy of an entire hub.
#[derive(Debug, Clone, Default)]
pub struct HubSnapshot {
    /// Every registered series, deterministically ordered.
    pub series: Vec<HistogramSeries>,
}

impl HubSnapshot {
    /// Merge every worker's series for `metric` into one aggregate
    /// snapshot; `None` if no worker registered it.
    pub fn merged(&self, metric: Metric) -> Option<HistogramSnapshot> {
        let mut out: Option<HistogramSnapshot> = None;
        for s in self.series.iter().filter(|s| s.metric == metric) {
            out.get_or_insert_with(HistogramSnapshot::empty)
                .merge(&s.snapshot);
        }
        out
    }

    /// The per-worker series for `(metric, worker)`, if registered.
    pub fn series_for(&self, metric: Metric, worker: u32) -> Option<&HistogramSnapshot> {
        self.series
            .iter()
            .find(|s| s.metric == metric && s.worker == worker)
            .map(|s| &s.snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_is_a_noop() {
        let hub = MetricsHub::disabled();
        assert!(!hub.is_enabled());
        let h = hub.histogram(Metric::BatchLatency, 0);
        assert!(h.is_disabled());
        h.record(42);
        h.record_secs(0.5);
        assert!(hub.snapshot().series.is_empty());
        assert!(hub.summary(Metric::BatchLatency).is_none());
    }

    #[test]
    fn handles_resolve_to_the_same_series() {
        let hub = MetricsHub::new();
        let a = hub.histogram(Metric::Staleness, 3);
        let b = hub.histogram(Metric::Staleness, 3);
        a.record(10);
        b.record(20);
        let snap = hub.snapshot();
        assert_eq!(snap.series.len(), 1);
        assert_eq!(snap.series_for(Metric::Staleness, 3).unwrap().count(), 2);
    }

    #[test]
    fn merged_aggregates_across_workers() {
        let hub = MetricsHub::new();
        hub.histogram(Metric::QueueWait, 0).record(100);
        hub.histogram(Metric::QueueWait, 1).record(300);
        hub.histogram(Metric::BatchLatency, 0).record(7);
        let merged = hub.snapshot().merged(Metric::QueueWait).unwrap();
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.sum(), 400);
        let s = hub.summary(Metric::QueueWait).unwrap();
        assert_eq!(s.count, 2);
        assert!(hub.summary(Metric::D2h).is_none());
    }

    #[test]
    fn record_secs_converts_to_nanoseconds() {
        let hub = MetricsHub::new();
        let h = hub.histogram(Metric::H2d, 0);
        h.record_secs(1.5e-6);
        let snap = hub.snapshot();
        let s = snap.series_for(Metric::H2d, 0).unwrap();
        assert_eq!(s.count(), 1);
        assert_eq!(s.sum(), 1500);
    }
}
