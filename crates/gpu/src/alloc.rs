//! Tracked device-memory allocator.
//!
//! Device global memory is a finite resource (16 GB on the V100, Table I)
//! that bounds the GPU batch size (§VI-B: "the GPU memory capacity imposes
//! an upper bound on the size"). This allocator enforces the budget: every
//! buffer is counted, allocation beyond capacity fails with [`OomError`],
//! and a peak-usage watermark supports capacity planning in the benches.

use std::collections::HashMap;
use std::sync::Arc;

use hetero_trace::GaugeHandle;
use parking_lot::{Mutex, RwLock};

/// Opaque handle to a device buffer.
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
    buffers: HashMap<u64, Arc<RwLock<Vec<f32>>>>,
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

/// Thread-safe tracked memory pool for one device.
pub struct DeviceMemory {
    capacity: u64,
    inner: Mutex<Inner>,
    /// Live bytes-in-use gauge (disabled unless tracing is attached).
    bytes_gauge: GaugeHandle,
}

impl DeviceMemory {
    /// Pool with `capacity` bytes of global memory.
    pub fn new(capacity: u64) -> Self {
        Self::with_gauge(capacity, GaugeHandle::disabled())
    }

    /// Pool that mirrors its bytes-in-use into `bytes_gauge` on every
    /// allocation and free, so a trace snapshot always sees current usage.
    pub fn with_gauge(capacity: u64, bytes_gauge: GaugeHandle) -> Self {
        DeviceMemory {
            capacity,
            inner: Mutex::new(Inner {
                buffers: HashMap::new(),
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

    /// Allocate a zero-initialized buffer of `len` f32 elements.
    pub fn alloc(&self, len: usize) -> Result<BufferId, OomError> {
        let bytes = 4 * len as u64;
        let mut inner = self.inner.lock();
        let attempt = inner.attempts;
        inner.attempts += 1;
        if let Some(slot) = inner.forced_oom.iter().position(|&n| n == attempt) {
            inner.forced_oom.swap_remove(slot);
            return Err(OomError {
                requested: bytes,
                used: inner.used,
                capacity: self.capacity,
            });
        }
        if inner.used + bytes > self.capacity {
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
        self.bytes_gauge.set(inner.used as f64);
        inner
            .buffers
            .insert(id, Arc::new(RwLock::new(vec![0.0; len])));
        Ok(BufferId(id))
    }

    /// Free a buffer. Freeing an unknown id is an error (double free).
    pub fn free(&self, id: BufferId) -> Result<(), String> {
        let mut inner = self.inner.lock();
        match inner.buffers.remove(&id.0) {
            Some(buf) => {
                inner.used -= 4 * buf.read().len() as u64;
                self.bytes_gauge.set(inner.used as f64);
                Ok(())
            }
            None => Err(format!("free of unknown buffer {:?}", id)),
        }
    }

    /// Shared handle to a buffer's storage.
    ///
    /// # Panics
    /// Panics on an unknown (freed) id — the moral equivalent of a CUDA
    /// invalid-device-pointer fault.
    pub fn get(&self, id: BufferId) -> Arc<RwLock<Vec<f32>>> {
        self.inner
            .lock()
            .buffers
            .get(&id.0)
            .cloned()
            .unwrap_or_else(|| panic!("use of invalid device buffer {id:?}"))
    }

    /// Element count of a buffer.
    pub fn len(&self, id: BufferId) -> usize {
        self.get(id).read().len()
    }

    /// Whether the given buffer is zero-length.
    pub fn is_empty(&self, id: BufferId) -> bool {
        self.len(id) == 0
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.inner.lock().peak
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of live buffers.
    pub fn live_buffers(&self) -> usize {
        self.inner.lock().buffers.len()
    }
}

impl std::fmt::Debug for DeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceMemory")
            .field("capacity", &self.capacity)
            .field("used", &self.used_bytes())
            .field("buffers", &self.live_buffers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_tracks_usage() {
        let mem = DeviceMemory::new(1024);
        let a = mem.alloc(100).unwrap(); // 400 B
        assert_eq!(mem.used_bytes(), 400);
        let b = mem.alloc(100).unwrap(); // 800 B total
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
        let _a = mem.alloc(200).unwrap(); // 800 B
        let err = mem.alloc(100).unwrap_err(); // would be 1200 B
        assert_eq!(err.requested, 400);
        assert_eq!(err.used, 800);
        assert_eq!(err.capacity, 1000);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn freed_memory_is_reusable() {
        let mem = DeviceMemory::new(800);
        let a = mem.alloc(200).unwrap();
        assert!(mem.alloc(1).is_err());
        mem.free(a).unwrap();
        assert!(mem.alloc(200).is_ok());
    }

    #[test]
    fn double_free_is_detected() {
        let mem = DeviceMemory::new(1024);
        let a = mem.alloc(10).unwrap();
        mem.free(a).unwrap();
        assert!(mem.free(a).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid device buffer")]
    fn use_after_free_panics() {
        let mem = DeviceMemory::new(1024);
        let a = mem.alloc(10).unwrap();
        mem.free(a).unwrap();
        mem.get(a);
    }

    #[test]
    fn buffers_zero_initialized() {
        let mem = DeviceMemory::new(1024);
        let a = mem.alloc(16).unwrap();
        assert!(mem.get(a).read().iter().all(|&v| v == 0.0));
        assert_eq!(mem.len(a), 16);
    }

    #[test]
    fn injected_oom_fires_once_at_target_index() {
        let mem = DeviceMemory::new(1 << 20);
        mem.inject_oom_at(1);
        let a = mem.alloc(8).unwrap(); // attempt 0: fine
        let err = mem.alloc(8).unwrap_err(); // attempt 1: injected
        assert_eq!(err.requested, 32);
        assert!(mem.alloc(8).is_ok()); // attempt 2: injection consumed
        mem.free(a).unwrap();
    }

    #[test]
    fn injected_oom_in_the_past_never_fires() {
        let mem = DeviceMemory::new(1 << 20);
        let _ = mem.alloc(4).unwrap();
        mem.inject_oom_at(0); // attempt 0 already elapsed
        for _ in 0..4 {
            assert!(mem.alloc(4).is_ok());
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
                        let b = mem.alloc(32).unwrap();
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
}
