//! The GPU device facade: memory + transfers + virtual-time accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use hetero_metrics::{HistHandle, Metric, MetricsHub};
use hetero_sim::{DeviceModel, GpuModel};
use hetero_trace::{EventKind, GaugeHandle, TraceSink};
use parking_lot::Mutex;

/// Sentinel meaning "no batch active" in [`GpuDevice`]'s lineage slot.
const NO_BATCH: u64 = u64::MAX;

use crate::alloc::{BufferId, DeviceMemory, OomError};

/// Pre-resolved tracing state for one device.
struct GpuTrace {
    sink: TraceSink,
    /// Worker id stamped on emitted transfer/kernel events.
    worker: u32,
    /// Per-upload transfer-time histogram (`hetero-metrics`; disabled
    /// unless built with [`GpuDevice::new_observed`]).
    h2d_hist: HistHandle,
    /// Per-download transfer-time histogram.
    d2h_hist: HistHandle,
}

impl GpuTrace {
    fn disabled() -> Self {
        GpuTrace {
            sink: TraceSink::disabled(),
            worker: 0,
            h2d_hist: HistHandle::disabled(),
            d2h_hist: HistHandle::disabled(),
        }
    }
}

/// Cumulative transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host bytes moved.
    pub d2h_bytes: u64,
    /// Host→device transfer count.
    pub h2d_count: u64,
    /// Device→host transfer count.
    pub d2h_count: u64,
}

/// A software GPU: tracked global memory, explicit transfers, and a
/// calibrated performance model accumulating *virtual* busy time.
///
/// The math inside kernels runs on host cores for real; `virtual_time`
/// answers "how long would this have taken on the modeled V100", which is
/// what the simulation engine advances its clock by.
pub struct GpuDevice {
    mem: DeviceMemory,
    perf: GpuModel,
    busy: Mutex<f64>,
    transfers: Mutex<TransferStats>,
    trace: GpuTrace,
    /// Lineage id of the batch currently being processed ([`NO_BATCH`]
    /// when idle); stamped onto emitted transfer events so trace analysis
    /// can attribute transfer time to individual batches.
    active_batch: AtomicU64,
}

impl GpuDevice {
    /// Create a device with the given performance model; memory capacity
    /// comes from the model.
    pub fn new(perf: GpuModel) -> Self {
        GpuDevice {
            mem: DeviceMemory::new(perf.memory),
            perf,
            busy: Mutex::new(0.0),
            transfers: Mutex::new(TransferStats::default()),
            trace: GpuTrace::disabled(),
            active_batch: AtomicU64::new(NO_BATCH),
        }
    }

    /// Create a device whose transfers, kernels and memory usage are
    /// observable through `sink`. Events are stamped with `worker`.
    pub fn new_traced(perf: GpuModel, sink: &TraceSink, worker: u32) -> Self {
        Self::new_observed(perf, sink, worker, &MetricsHub::disabled())
    }

    /// Like [`GpuDevice::new_traced`], additionally recording every
    /// transfer's modeled duration into `hub`'s per-worker `H2d`/`D2h`
    /// histograms. With a disabled hub this is exactly `new_traced`.
    pub fn new_observed(perf: GpuModel, sink: &TraceSink, worker: u32, hub: &MetricsHub) -> Self {
        let trace = if sink.enabled() || hub.is_enabled() {
            GpuTrace {
                sink: sink.clone(),
                worker,
                h2d_hist: hub.histogram(Metric::H2d, worker),
                d2h_hist: hub.histogram(Metric::D2h, worker),
            }
        } else {
            GpuTrace::disabled()
        };
        GpuDevice {
            mem: DeviceMemory::with_gauge(
                perf.memory,
                if sink.enabled() {
                    sink.gauge(&format!("gpu.w{worker}.mem_used_bytes"))
                } else {
                    GaugeHandle::disabled()
                },
            ),
            perf,
            busy: Mutex::new(0.0),
            transfers: Mutex::new(TransferStats::default()),
            trace,
            active_batch: AtomicU64::new(NO_BATCH),
        }
    }

    /// Declare which batch the device is working on (`None` to clear).
    /// Until changed, emitted transfer events carry this lineage id.
    pub fn set_active_batch(&self, id: Option<u64>) {
        // Relaxed: the slot only decorates trace events emitted by the
        // same worker thread; no other memory depends on it.
        self.active_batch
            .store(id.unwrap_or(NO_BATCH), Ordering::Relaxed);
    }

    /// The lineage id declared via [`GpuDevice::set_active_batch`].
    pub fn active_batch(&self) -> Option<u64> {
        match self.active_batch.load(Ordering::Relaxed) {
            NO_BATCH => None,
            id => Some(id),
        }
    }

    /// A V100-modeled device (the paper's hardware).
    pub fn v100() -> Self {
        Self::new(GpuModel::v100())
    }

    /// Emit a [`EventKind::KernelLaunched`] marker if tracing is live.
    pub fn note_kernel(&self, name: &'static str) {
        if self.trace.sink.enabled() {
            self.trace
                .sink
                .emit(self.trace.worker, EventKind::KernelLaunched { name });
        }
    }

    /// The device memory pool.
    pub fn mem(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Force the `n`th allocation attempt on this device to fail with OOM
    /// (see [`DeviceMemory::inject_oom_at`]). Deterministic fault injection
    /// for supervision tests.
    pub fn inject_oom_at(&self, n: u64) {
        self.mem.inject_oom_at(n);
    }

    /// The performance model.
    pub fn perf(&self) -> &GpuModel {
        &self.perf
    }

    /// Copy host data into a fresh device buffer, accounting transfer time.
    pub fn h2d(&self, data: &[f32]) -> Result<BufferId, OomError> {
        let buf = self.mem.alloc(data.len())?;
        self.h2d_into(data, buf);
        Ok(buf)
    }

    /// Copy host data into an existing buffer (sizes must match).
    pub fn h2d_into(&self, data: &[f32], buf: BufferId) {
        let h = self.mem.get(buf);
        let mut w = h.write();
        assert_eq!(w.len(), data.len(), "h2d size mismatch");
        w.copy_from_slice(data);
        drop(w);
        let bytes = 4 * data.len() as u64;
        let mut t = self.transfers.lock();
        t.h2d_bytes += bytes;
        t.h2d_count += 1;
        drop(t);
        let secs = self.perf.transfer_time(bytes);
        *self.busy.lock() += secs;
        self.trace.h2d_hist.record_secs(secs);
        if self.trace.sink.enabled() {
            self.trace.sink.emit(
                self.trace.worker,
                EventKind::H2d {
                    bytes: bytes as usize,
                    secs,
                    id: self.active_batch(),
                },
            );
        }
    }

    /// Copy a device buffer back to the host, accounting transfer time.
    pub fn d2h(&self, buf: BufferId) -> Vec<f32> {
        let h = self.mem.get(buf);
        let mut out = vec![0.0; h.read().len()];
        self.d2h_into(buf, &mut out);
        out
    }

    /// Copy a device buffer into an existing host slice (sizes must match),
    /// accounting transfer time. The allocation-free counterpart of
    /// [`d2h`](Self::d2h) used by steady-state training.
    pub fn d2h_into(&self, buf: BufferId, out: &mut [f32]) {
        let h = self.mem.get(buf);
        let r = h.read();
        assert_eq!(r.len(), out.len(), "d2h size mismatch");
        out.copy_from_slice(&r);
        drop(r);
        let bytes = 4 * out.len() as u64;
        let mut t = self.transfers.lock();
        t.d2h_bytes += bytes;
        t.d2h_count += 1;
        drop(t);
        let secs = self.perf.transfer_time(bytes);
        *self.busy.lock() += secs;
        self.trace.d2h_hist.record_secs(secs);
        if self.trace.sink.enabled() {
            self.trace.sink.emit(
                self.trace.worker,
                EventKind::D2h {
                    bytes: bytes as usize,
                    secs,
                    id: self.active_batch(),
                },
            );
        }
    }

    /// Account the virtual cost of one training step over `batch` examples
    /// at `flops_per_example`.
    pub fn account_step(&self, flops_per_example: u64, batch: usize) {
        *self.busy.lock() += self.perf.batch_time(flops_per_example, batch);
    }

    /// Total virtual busy seconds accumulated so far.
    pub fn virtual_time(&self) -> f64 {
        *self.busy.lock()
    }

    /// Cumulative transfer statistics.
    pub fn transfer_stats(&self) -> TransferStats {
        *self.transfers.lock()
    }
}

impl std::fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuDevice")
            .field("perf", &self.perf.name)
            .field("mem_used", &self.mem.used_bytes())
            .field("virtual_time", &self.virtual_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h2d_d2h_roundtrip() {
        let dev = GpuDevice::v100();
        let data = vec![1.0, 2.0, 3.0];
        let buf = dev.h2d(&data).unwrap();
        assert_eq!(dev.d2h(buf), data);
        let s = dev.transfer_stats();
        assert_eq!(s.h2d_bytes, 12);
        assert_eq!(s.d2h_bytes, 12);
        assert_eq!((s.h2d_count, s.d2h_count), (1, 1));
    }

    #[test]
    fn transfers_accumulate_virtual_time() {
        let dev = GpuDevice::v100();
        assert_eq!(dev.virtual_time(), 0.0);
        let buf = dev.h2d(&vec![0.0; 1 << 20]).unwrap();
        let t1 = dev.virtual_time();
        assert!(t1 > 0.0);
        let _ = dev.d2h(buf);
        assert!(dev.virtual_time() > t1);
    }

    #[test]
    fn account_step_uses_perf_model() {
        let dev = GpuDevice::v100();
        dev.account_step(1_000_000, 1024);
        let expect = dev.perf().batch_time(1_000_000, 1024);
        assert!((dev.virtual_time() - expect).abs() < 1e-12);
    }

    #[test]
    fn traced_device_emits_transfer_events_and_gauges() {
        let sink = hetero_trace::TraceSink::wall(256);
        let dev = GpuDevice::new_traced(GpuModel::v100(), &sink, 2);
        dev.set_active_batch(Some(11));
        let buf = dev.h2d(&vec![1.0f32; 256]).unwrap();
        dev.set_active_batch(None);
        let _ = dev.d2h(buf);
        dev.note_kernel("unit_test_kernel");
        let trace = sink.drain();
        let mut h2d = 0;
        let mut d2h = 0;
        let mut kernels = 0;
        for e in trace.events_sorted() {
            assert_eq!(e.worker, 2);
            match e.kind {
                hetero_trace::EventKind::H2d { bytes, secs, id } => {
                    assert_eq!(bytes, 1024);
                    assert!(secs > 0.0);
                    // Upload happened while batch 11 was active.
                    assert_eq!(id, Some(11));
                    h2d += 1;
                }
                hetero_trace::EventKind::D2h { bytes, id, .. } => {
                    assert_eq!(bytes, 1024);
                    assert_eq!(id, None);
                    d2h += 1;
                }
                hetero_trace::EventKind::KernelLaunched { name } => {
                    assert_eq!(name, "unit_test_kernel");
                    kernels += 1;
                }
                ref other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!((h2d, d2h, kernels), (1, 1, 1));
        let counters: std::collections::HashMap<String, f64> =
            trace.counters.iter().cloned().collect();
        // Buffer still live: gauge mirrors bytes in use.
        assert_eq!(counters.get("gpu.w2.mem_used_bytes"), Some(&1024.0));
    }

    #[test]
    fn observed_device_fills_transfer_histograms() {
        let sink = hetero_trace::TraceSink::wall(256);
        let hub = MetricsHub::new();
        let dev = GpuDevice::new_observed(GpuModel::v100(), &sink, 1, &hub);
        let buf = dev.h2d(&vec![1.0f32; 1 << 16]).unwrap();
        let mut out = vec![0.0f32; 1 << 16];
        dev.d2h_into(buf, &mut out);
        let snap = hub.snapshot();
        let h2d = snap.series_for(Metric::H2d, 1).unwrap();
        let d2h = snap.series_for(Metric::D2h, 1).unwrap();
        assert_eq!(h2d.count(), 1);
        assert_eq!(d2h.count(), 1);
        // Recorded nanoseconds match the perf model's transfer time.
        let expect_ns = (dev.perf().transfer_time(4 << 16) * 1e9) as u64;
        assert!(h2d.sum().abs_diff(expect_ns) <= 1);
    }

    #[test]
    fn concurrent_device_transfers_consistent() {
        let dev = std::sync::Arc::new(GpuDevice::v100());
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let dev = std::sync::Arc::clone(&dev);
                std::thread::spawn(move || {
                    for i in 0..100usize {
                        let data = vec![(t * 1000 + i) as f32; 64];
                        let buf = dev.h2d(&data).unwrap();
                        assert_eq!(dev.d2h(buf), data, "transfer corrupted");
                        dev.mem().free(buf).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(dev.mem().used_bytes(), 0);
        let stats = dev.transfer_stats();
        assert_eq!((stats.h2d_count, stats.d2h_count), (600, 600));
        assert_eq!(stats.h2d_bytes, 600 * 64 * 4);
    }

    #[test]
    fn oom_propagates_from_allocator() {
        let mut small = GpuModel::v100();
        small.memory = 1024; // 256 floats
        let dev = GpuDevice::new(small);
        assert!(dev.h2d(&vec![0.0; 200]).is_ok());
        assert!(dev.h2d(&vec![0.0; 200]).is_err());
    }

    #[test]
    #[should_panic(expected = "h2d size mismatch")]
    fn h2d_into_size_mismatch_panics() {
        let dev = GpuDevice::v100();
        let buf = dev.mem().alloc(4).unwrap();
        dev.h2d_into(&[1.0, 2.0], buf);
    }
}
