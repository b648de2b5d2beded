//! The GPU device facade: the memory ledger, transfer accounting and
//! virtual-time accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use hetero_sim::{DeviceModel, GpuModel};
use hetero_trace::{EventKind, GaugeHandle, HistHandle, Metric, TraceSink};
use parking_lot::Mutex;

use crate::alloc::{BufferId, DeviceMemory, OomError};

/// Sentinel meaning "no batch active" in [`GpuDevice`]'s lineage slot.
const NO_BATCH: u64 = u64::MAX;

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

/// A software GPU: a ledger over its global memory, accounted transfers,
/// and a calibrated performance model accumulating *virtual* busy time.
///
/// The math of a step runs on host cores, on host memory; `virtual_time`
/// answers "how long would this have taken on the modeled V100".
pub struct GpuDevice {
    mem: DeviceMemory,
    perf: GpuModel,
    busy: Mutex<f64>,
    transfers: Mutex<TransferStats>,
    sink: TraceSink,
    /// Worker id stamped on emitted transfer/kernel events.
    worker: u32,
    /// Per-transfer modelled-time histograms (no-ops on a disabled sink).
    h2d_hist: HistHandle,
    d2h_hist: HistHandle,
    /// Lineage id of the batch currently being processed ([`NO_BATCH`]
    /// when idle); stamped onto emitted transfer events so trace analysis
    /// can attribute transfer time to individual batches.
    active_batch: AtomicU64,
}

impl GpuDevice {
    /// Create a device with the given performance model; memory capacity
    /// comes from the model.
    pub fn new(perf: GpuModel) -> Self {
        Self::new_observed(perf, &TraceSink::disabled(), 0)
    }

    /// A device whose transfers, steps and memory usage are observable
    /// through `sink` (events stamped with `worker`), and whose transfers'
    /// modelled durations fill `sink`'s per-worker `H2d`/`D2h` histograms.
    pub fn new_observed(perf: GpuModel, sink: &TraceSink, worker: u32) -> Self {
        let gauge = if sink.enabled() {
            sink.gauge(&format!("gpu.w{worker}.mem_used_bytes"))
        } else {
            GaugeHandle::disabled()
        };
        GpuDevice {
            mem: DeviceMemory::with_gauge(perf.memory, gauge),
            perf,
            busy: Mutex::new(0.0),
            transfers: Mutex::new(TransferStats::default()),
            sink: sink.clone(),
            worker,
            h2d_hist: sink.histogram(Metric::H2d, worker),
            d2h_hist: sink.histogram(Metric::D2h, worker),
            active_batch: AtomicU64::new(NO_BATCH),
        }
    }

    /// A V100-modeled device (the paper's hardware).
    pub fn v100() -> Self {
        Self::new(GpuModel::v100())
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

    /// Emit `kind` as this device's worker if tracing is live.
    fn emit(&self, kind: EventKind) {
        if self.sink.enabled() {
            self.sink.emit(self.worker, kind);
        }
    }

    /// The device memory ledger.
    pub fn mem(&self) -> &DeviceMemory {
        &self.mem
    }

    /// The performance model.
    pub fn perf(&self) -> &GpuModel {
        &self.perf
    }

    /// Reserve a buffer for `data` and account its upload.
    pub fn h2d(&self, data: &[f32]) -> Result<BufferId, OomError> {
        let buf = self.mem.alloc(4 * data.len() as u64)?;
        self.h2d_into(data, buf);
        Ok(buf)
    }

    /// Account an upload of `data` into a buffer already reserved for it.
    pub fn h2d_into(&self, data: &[f32], _buf: BufferId) {
        self.account_h2d(4 * data.len() as u64);
    }

    /// Account a host→device transfer of `bytes`: its count, its modelled
    /// seconds, the `H2d` histogram and a trace event with the active
    /// batch's lineage id. Nothing is copied.
    pub fn account_h2d(&self, bytes: u64) {
        let secs = self.perf.transfer_time(bytes);
        let mut t = self.transfers.lock();
        t.h2d_bytes += bytes;
        t.h2d_count += 1;
        drop(t);
        *self.busy.lock() += secs;
        self.h2d_hist.record_secs(secs);
        let (bytes, id) = (bytes as usize, self.active_batch());
        self.emit(EventKind::H2d { bytes, secs, id });
    }

    /// Account a device→host transfer of `bytes`, as
    /// [`account_h2d`](Self::account_h2d) does the other way.
    pub fn account_d2h(&self, bytes: u64) {
        let secs = self.perf.transfer_time(bytes);
        let mut t = self.transfers.lock();
        t.d2h_bytes += bytes;
        t.d2h_count += 1;
        drop(t);
        *self.busy.lock() += secs;
        self.d2h_hist.record_secs(secs);
        let (bytes, id) = (bytes as usize, self.active_batch());
        self.emit(EventKind::D2h { bytes, secs, id });
    }

    /// Account the virtual cost of one training step over `batch` examples
    /// at `flops_per_example`, marked in the trace as a kernel launch.
    pub fn account_step(&self, flops_per_example: u64, batch: usize) {
        *self.busy.lock() += self.perf.batch_time(flops_per_example, batch);
        self.emit(EventKind::KernelLaunched { name: "train_step" });
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_are_accounted_not_copied() {
        let dev = GpuDevice::v100();
        let buf = dev.h2d(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(dev.mem().used_bytes(), 12);
        dev.account_d2h(12);
        let s = dev.transfer_stats();
        assert_eq!((s.h2d_bytes, s.d2h_bytes), (12, 12));
        assert_eq!((s.h2d_count, s.d2h_count), (1, 1));
        dev.mem().free(buf).unwrap();
    }

    #[test]
    fn transfers_accumulate_virtual_time() {
        let dev = GpuDevice::v100();
        assert_eq!(dev.virtual_time(), 0.0);
        let _buf = dev.h2d(&vec![0.0; 1 << 20]).unwrap();
        let t1 = dev.virtual_time();
        assert!(t1 > 0.0);
        dev.account_d2h(4 << 20);
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
        let dev = GpuDevice::new_observed(GpuModel::v100(), &sink, 2);
        dev.set_active_batch(Some(11));
        let _buf = dev.h2d(&vec![1.0f32; 256]).unwrap();
        dev.account_step(1_000, 8);
        dev.set_active_batch(None);
        dev.account_d2h(1024);
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
                    assert_eq!(name, "train_step");
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
        let dev = GpuDevice::new_observed(GpuModel::v100(), &sink, 1);
        dev.account_h2d(4 << 16);
        dev.account_d2h(4 << 16);
        let h2d = sink.summary(Metric::H2d).unwrap();
        let d2h = sink.summary(Metric::D2h).unwrap();
        assert_eq!(h2d.count, 1);
        assert_eq!(d2h.count, 1);
        // Recorded nanoseconds match the perf model's transfer time.
        let expect_ns = (dev.perf().transfer_time(4 << 16) * 1e9) as u64;
        assert!((h2d.mean as u64).abs_diff(expect_ns) <= 1);
    }

    #[test]
    fn concurrent_device_transfers_consistent() {
        let dev = std::sync::Arc::new(GpuDevice::v100());
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let dev = std::sync::Arc::clone(&dev);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let buf = dev.h2d(&[0.5; 64]).unwrap();
                        dev.account_d2h(256);
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
    fn oom_propagates_from_the_ledger() {
        let mut small = GpuModel::v100();
        small.memory = 1024; // 256 floats
        let dev = GpuDevice::new(small);
        assert!(dev.h2d(&[0.0; 200]).is_ok());
        assert!(dev.h2d(&[0.0; 200]).is_err());
    }
}
