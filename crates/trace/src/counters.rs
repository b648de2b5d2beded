//! Atomic counter/gauge registry, snapshottable at any time.
//!
//! Counters are monotonically increasing `u64`s (events dropped, stall
//! nanoseconds); gauges are `f64`s with set/high-water-mark semantics
//! (queue depth HWM, allocator bytes in use, examples/sec, β estimate).
//! Hot paths should resolve a [`CounterHandle`]/[`GaugeHandle`] once and
//! update through it, skipping the name lookup.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Name → atomic cell registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<Vec<(String, Arc<AtomicU64>)>>,
    gauges: RwLock<Vec<(String, Arc<AtomicU64>)>>,
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
