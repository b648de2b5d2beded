//! Atomic counter/gauge/histogram registry, snapshottable at any time.
//!
//! Counters are monotonically increasing `u64`s (events dropped, stall
//! nanoseconds); gauges are `f64`s with set/high-water-mark semantics
//! (queue depth HWM, allocator bytes in use, examples/sec, β estimate);
//! histograms are one [`LogHistogram`] per `(`[`Metric`]`, worker)` series
//! (batch latency, queue wait, transfer time, merge contention, gradient
//! staleness). Hot paths should resolve a
//! [`CounterHandle`]/[`GaugeHandle`]/[`HistHandle`] once and update
//! through it, skipping the lookup.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::histogram::{HistogramSnapshot, LogHistogram, Summary};

/// Worker id used for histogram series that are not attributable to a
/// single worker (e.g. the coordinator's checkpoint writes).
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
    /// (count; merger ↔ merger contention), dense and row-sparse merges
    /// alike: the `engine.sparse_density` gauge, published on every run
    /// that trains CSR rows, says which path a run's merges took.
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
}

impl Metric {
    /// Every metric, in declaration order.
    pub const ALL: [Metric; 9] = [
        Metric::BatchLatency,
        Metric::QueueWait,
        Metric::H2d,
        Metric::D2h,
        Metric::MergeWait,
        Metric::MergeRetries,
        Metric::Staleness,
        Metric::CkptWrite,
        Metric::RowsTouched,
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
        }
    }
}

/// Histogram series, keyed by (metric, worker).
type Series = Vec<((Metric, u32), Arc<LogHistogram>)>;

/// Name → atomic cell registry, plus the histogram series.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<Vec<(String, Arc<AtomicU64>)>>,
    gauges: RwLock<Vec<(String, Arc<AtomicU64>)>>,
    /// Resolved once per worker at start-up: a linear scan is enough.
    histograms: RwLock<Series>,
}

impl Registry {
    /// A new, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(table: &RwLock<Vec<(String, Arc<AtomicU64>)>>, name: &str) -> Arc<AtomicU64> {
        if let Some((_, cell)) = table.read().iter().find(|(n, _)| n == name) {
            return Arc::clone(cell);
        }
        let mut w = table.write();
        if let Some((_, cell)) = w.iter().find(|(n, _)| n == name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(AtomicU64::new(0));
        w.push((name.to_string(), Arc::clone(&cell)));
        cell
    }

    /// Handle to the named monotonic counter (created on first use).
    pub fn counter(&self, name: &str) -> CounterHandle {
        CounterHandle {
            cell: Some(Self::get_or_insert(&self.counters, name)),
        }
    }

    /// Handle to the named gauge (created on first use, initial value 0.0).
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        GaugeHandle {
            cell: Some(Self::get_or_insert(&self.gauges, name)),
        }
    }

    /// Handle to the histogram for `metric` on `worker` (created on first
    /// use); recording through it is lock-free.
    pub fn histogram(&self, metric: Metric, worker: u32) -> HistHandle {
        let key = (metric, worker);
        if let Some((_, h)) = self.histograms.read().iter().find(|(k, _)| *k == key) {
            return HistHandle {
                hist: Some(Arc::clone(h)),
            };
        }
        let mut w = self.histograms.write();
        let hist = match w.iter().find(|(k, _)| *k == key) {
            Some((_, h)) => Arc::clone(h),
            None => {
                let h = Arc::new(LogHistogram::new());
                w.push((key, Arc::clone(&h)));
                h
            }
        };
        HistHandle { hist: Some(hist) }
    }

    /// Every worker's series for `metric`, merged into one summary; `None`
    /// when no series of it holds an observation.
    pub fn summary(&self, metric: Metric) -> Option<Summary> {
        let mut merged = HistogramSnapshot::empty();
        for (_, h) in self.histograms.read().iter().filter(|(k, _)| k.0 == metric) {
            merged.merge(&h.snapshot());
        }
        (merged.count() > 0).then(|| merged.summary())
    }

    /// Point-in-time values of every counter and gauge, sorted by name.
    /// Counter values are reported as `f64` alongside gauges so the
    /// snapshot has one uniform shape.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        // Relaxed loads throughout: metrics are monitoring data — a racy
        // snapshot is acceptable and no other memory hinges on the values.
        let mut out: Vec<(String, f64)> = Vec::new();
        for (name, cell) in self.counters.read().iter() {
            out.push((name.clone(), cell.load(Ordering::Relaxed) as f64));
        }
        for (name, cell) in self.gauges.read().iter() {
            out.push((name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Handle to a monotonic counter; a disconnected handle (from a disabled
/// sink) makes every operation a no-op.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle {
    cell: Option<Arc<AtomicU64>>,
}

impl CounterHandle {
    /// A no-op handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.cell {
            // Relaxed: monitoring counter; ordering carries no meaning here.
            c.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        // Relaxed: racy monitoring read, by design.
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Handle to an `f64` gauge; a disconnected handle makes every operation a
/// no-op.
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle {
    cell: Option<Arc<AtomicU64>>,
}

impl GaugeHandle {
    /// A no-op handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Overwrite the gauge.
    pub fn set(&self, value: f64) {
        if let Some(c) = &self.cell {
            // Relaxed: monitoring gauge; last-writer-wins is fine.
            c.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `value` if it is higher (high-water mark).
    pub fn fetch_max(&self, value: f64) {
        let Some(c) = &self.cell else { return };
        // Relaxed CAS loop: atomicity keeps the high-water mark exact;
        // ordering is irrelevant for a monitoring value.
        let mut cur = c.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= value {
                return;
            }
            match c.compare_exchange_weak(
                cur,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Add `delta` (atomic read-modify-write loop).
    pub fn add(&self, delta: f64) {
        let Some(c) = &self.cell else { return };
        // Relaxed CAS loop: same argument as `fetch_max`.
        let mut cur = c.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match c.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value (0.0 for a disabled handle).
    pub fn get(&self) -> f64 {
        // Relaxed: racy monitoring read, by design.
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// Pre-resolved recording handle for one `(metric, worker)` series.
/// Cloneable and `Sync`: rayon lanes inside one worker may share it.
#[derive(Clone)]
pub struct HistHandle {
    hist: Option<Arc<LogHistogram>>,
}

impl HistHandle {
    /// A handle that records nowhere (what a disabled sink hands out).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::new();
        let c = r.counter("events.dropped");
        c.add(3);
        r.counter("events.dropped").add(2);
        assert_eq!(c.get(), 5);
        let snap = r.snapshot();
        assert_eq!(snap, vec![("events.dropped".to_string(), 5.0)]);
    }

    #[test]
    fn gauge_hwm_and_add() {
        let r = Registry::new();
        let g = r.gauge("mq.depth_hwm");
        g.fetch_max(4.0);
        g.fetch_max(2.0);
        assert_eq!(g.get(), 4.0);
        let a = r.gauge("alloc.bytes");
        a.add(10.0);
        a.add(-4.0);
        assert_eq!(a.get(), 6.0);
    }

    #[test]
    fn disabled_handles_are_noops() {
        let c = CounterHandle::disabled();
        c.add(9);
        assert_eq!(c.get(), 0);
        let g = GaugeHandle::disabled();
        g.set(1.0);
        g.fetch_max(2.0);
        assert_eq!(g.get(), 0.0);
        let h = HistHandle::disabled();
        assert!(h.is_disabled());
        h.record(42);
        h.record_secs(0.5);
    }

    #[test]
    fn handles_resolve_to_the_same_series() {
        let r = Registry::new();
        let a = r.histogram(Metric::Staleness, 3);
        let b = r.histogram(Metric::Staleness, 3);
        a.record(10);
        b.record(20);
        assert_eq!(r.histograms.read().len(), 1);
        assert_eq!(r.summary(Metric::Staleness).unwrap().count, 2);
    }

    #[test]
    fn summary_merges_across_workers() {
        let r = Registry::new();
        r.histogram(Metric::QueueWait, 0).record(100);
        r.histogram(Metric::QueueWait, 1).record(300);
        r.histogram(Metric::BatchLatency, 0).record(7);
        let s = r.summary(Metric::QueueWait).unwrap();
        assert_eq!((s.count, s.mean, s.max), (2, 200.0, 300.0));
        assert!(r.summary(Metric::D2h).is_none());
        // A registered series with nothing in it has no summary either.
        r.histogram(Metric::H2d, 0);
        assert!(r.summary(Metric::H2d).is_none());
    }

    #[test]
    fn record_secs_converts_to_nanoseconds() {
        let r = Registry::new();
        let h = r.histogram(Metric::H2d, 0);
        h.record_secs(1.5e-6);
        h.record_secs(-1.0);
        let s = r.summary(Metric::H2d).unwrap();
        assert_eq!((s.count, s.mean), (1, 1500.0));
    }

    #[test]
    fn gauge_hwm_is_correct_under_contention() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let g = r.gauge("hwm");
                for i in 0..1000u64 {
                    g.fetch_max((t * 1000 + i) as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.gauge("hwm").get(), 7999.0);
    }
}
