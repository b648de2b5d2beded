//! Device-memory ledger.
//!
//! Device global memory is a finite resource (16 GB on the V100, Table I)
//! that bounds the GPU batch size (§VI-B: "the GPU memory capacity imposes
//! an upper bound on the size"). This ledger enforces the budget without
//! holding a byte of it: every reservation is counted, one beyond capacity
//! fails with [`OomError`] exactly like `cudaMalloc`, and a peak-usage
//! watermark supports capacity planning in the benches. What would live in
//! the reserved bytes stays on the host, where the worker computes on it.

use hetero_trace::GaugeHandle;
use parking_lot::Mutex;

/// Opaque handle to a reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(u64);

/// Device allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes in use at the time of the request.
    pub used: u64,
    /// Device capacity in bytes.
    pub capacity: u64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {}/{} B in use",
            self.requested, self.used, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

struct Inner {
    /// Live reservations as `(id, bytes)`.
    live: Vec<(u64, u64)>,
    used: u64,
    peak: u64,
    next_id: u64,
    /// Allocation attempts so far (successful or not) — the index space
    /// fault injection targets.
    attempts: u64,
    /// Allocation indices forced to fail with OOM (deterministic fault
    /// injection for supervision tests). Each index fires once.
    forced_oom: Vec<u64>,
}

/// Thread-safe byte ledger for one device.
pub struct DeviceMemory {
    capacity: u64,
    inner: Mutex<Inner>,
    /// Live bytes-in-use gauge (disabled unless tracing is attached).
    bytes_gauge: GaugeHandle,
}

impl DeviceMemory {
    /// Ledger over `capacity` bytes of global memory.
    pub fn new(capacity: u64) -> Self {
        Self::with_gauge(capacity, GaugeHandle::disabled())
    }

    /// Ledger that mirrors its bytes-in-use into `bytes_gauge` on every
    /// allocation and free, so a trace snapshot always sees current usage.
    pub fn with_gauge(capacity: u64, bytes_gauge: GaugeHandle) -> Self {
        DeviceMemory {
            capacity,
            inner: Mutex::new(Inner {
                live: Vec::new(),
                used: 0,
                peak: 0,
                next_id: 1,
                attempts: 0,
                forced_oom: Vec::new(),
            }),
            bytes_gauge,
        }
    }

    /// Force the `n`th allocation attempt (0-based, counted from device
    /// creation, successful or not) to fail with [`OomError`]. Each
    /// injected index fires at most once; already-elapsed indices never
    /// fire. This is the deterministic hook supervision tests use to
    /// exercise OOM paths without sizing real capacities.
    pub fn inject_oom_at(&self, n: u64) {
        self.inner.lock().forced_oom.push(n);
    }

    /// Reserve `bytes` of device memory.
    pub fn alloc(&self, bytes: u64) -> Result<BufferId, OomError> {
        let mut inner = self.inner.lock();
        let attempt = inner.attempts;
        inner.attempts += 1;
        let forced = inner.forced_oom.iter().position(|&n| n == attempt);
        if let Some(slot) = forced {
            inner.forced_oom.swap_remove(slot);
        }
        if forced.is_some() || inner.used + bytes > self.capacity {
            return Err(OomError {
                requested: bytes,
                used: inner.used,
                capacity: self.capacity,
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.used += bytes;
        inner.peak = inner.peak.max(inner.used);
        inner.live.push((id, bytes));
        self.bytes_gauge.set(inner.used as f64);
        Ok(BufferId(id))
    }

    /// Return a reservation. Freeing an unknown id is an error (double
    /// free).
    pub fn free(&self, id: BufferId) -> Result<(), String> {
        let mut inner = self.inner.lock();
        let Some(slot) = inner.live.iter().position(|&(live, _)| live == id.0) else {
            return Err(format!("free of unknown buffer {id:?}"));
        };
        inner.used -= inner.live.swap_remove(slot).1;
        self.bytes_gauge.set(inner.used as f64);
        Ok(())
    }

    /// Bytes currently reserved.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used
    }

    /// High-water mark of reserved bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.inner.lock().peak
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of live reservations.
    pub fn live_buffers(&self) -> usize {
        self.inner.lock().live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn alloc_tracks_usage() {
        let mem = DeviceMemory::new(1024);
        let a = mem.alloc(400).unwrap();
        assert_eq!(mem.used_bytes(), 400);
        let b = mem.alloc(400).unwrap();
        assert_eq!(mem.used_bytes(), 800);
        assert_eq!(mem.peak_bytes(), 800);
        mem.free(a).unwrap();
        assert_eq!(mem.used_bytes(), 400);
        assert_eq!(mem.peak_bytes(), 800); // watermark persists
        mem.free(b).unwrap();
        assert_eq!(mem.live_buffers(), 0);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let mem = DeviceMemory::new(1000);
        let _a = mem.alloc(800).unwrap();
        let err = mem.alloc(400).unwrap_err(); // would be 1200 B
        assert_eq!(err.requested, 400);
        assert_eq!(err.used, 800);
        assert_eq!(err.capacity, 1000);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn freed_memory_is_reusable() {
        let mem = DeviceMemory::new(800);
        let a = mem.alloc(800).unwrap();
        assert!(mem.alloc(4).is_err());
        mem.free(a).unwrap();
        assert!(mem.alloc(800).is_ok());
    }

    #[test]
    fn double_free_is_detected() {
        let mem = DeviceMemory::new(1024);
        let a = mem.alloc(40).unwrap();
        mem.free(a).unwrap();
        assert!(mem.free(a).is_err());
        assert_eq!(mem.used_bytes(), 0);
    }

    #[test]
    fn injected_oom_fires_once_at_target_index() {
        let mem = DeviceMemory::new(1 << 20);
        mem.inject_oom_at(1);
        let a = mem.alloc(32).unwrap(); // attempt 0: fine
        let err = mem.alloc(32).unwrap_err(); // attempt 1: injected
        assert_eq!(err.requested, 32);
        assert!(mem.alloc(32).is_ok()); // attempt 2: injection consumed
        mem.free(a).unwrap();
    }

    #[test]
    fn injected_oom_in_the_past_never_fires() {
        let mem = DeviceMemory::new(1 << 20);
        let _ = mem.alloc(16).unwrap();
        mem.inject_oom_at(0); // attempt 0 already elapsed
        for _ in 0..4 {
            assert!(mem.alloc(16).is_ok());
        }
    }

    #[test]
    fn concurrent_alloc_free() {
        let mem = Arc::new(DeviceMemory::new(1 << 20));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let mem = Arc::clone(&mem);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let b = mem.alloc(128).unwrap();
                        mem.free(b).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mem.used_bytes(), 0);
        assert_eq!(mem.live_buffers(), 0);
    }

    #[test]
    fn the_gauge_mirrors_the_live_bytes() {
        let sink = hetero_trace::TraceSink::wall(8);
        let mem = DeviceMemory::with_gauge(1 << 20, sink.gauge("gpu.w2.mem_used_bytes"));
        let a = mem.alloc(1024).unwrap();
        let b = mem.alloc(512).unwrap();
        mem.free(a).unwrap();
        let gauge = || {
            let counters = sink.drain().counters;
            counters
                .into_iter()
                .find(|(n, _)| n == "gpu.w2.mem_used_bytes")
                .map(|(_, v)| v)
        };
        assert_eq!(gauge(), Some(512.0));
        mem.free(b).unwrap();
        assert_eq!(gauge(), Some(0.0));
    }
}
