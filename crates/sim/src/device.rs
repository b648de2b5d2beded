//! Calibrated device performance models (Table I hardware).
//!
//! The models map *work* (FLOPs, bytes) to *virtual time*. They encode the
//! three effects the paper's algorithms are designed around:
//!
//! 1. **GPU throughput rises with batch size** — small kernels cannot fill
//!    80 streaming multiprocessors. Modeled by a saturating occupancy curve
//!    `occ(b) = b / (b + b½)`: ~50% utilization at the paper's lower batch
//!    threshold, ~94% at the 8192 upper threshold (matches Figure 7).
//! 2. **CPU per-thread efficiency rises with sub-batch size** — a
//!    single-example gradient (Hogwild) runs as cache-unfriendly GEMV at
//!    ~1 GFLOP/s/thread, while a 64-example sub-batch approaches MKL GEMM
//!    speed (~20 GFLOP/s/thread).
//! 3. **Accelerators pay explicit transfer and launch costs** — PCIe
//!    latency + bandwidth for batches/models, a fixed per-launch kernel
//!    overhead.
//!
//! Calibration target (§VII-B): Hogwild on CPU takes **236–317×** longer
//! per epoch than mini-batch (8192) on the V100 for the paper's networks.
//! A test in this module pins the covtype configuration inside that band.

use serde::{Deserialize, Serialize};

use crate::events::SimTime;

/// A device that can execute SGD batches in virtual time.
pub trait DeviceModel: Send + Sync {
    /// Human-readable device name.
    fn name(&self) -> &str;

    /// Virtual seconds to compute one gradient over `batch` examples of a
    /// network costing `flops_per_example` FLOPs per example (forward +
    /// backward).
    fn batch_time(&self, flops_per_example: u64, batch: usize) -> SimTime;

    /// Device utilization (0..=1) *while* processing a batch of this size.
    fn busy_utilization(&self, batch: usize) -> f64;

    /// Virtual seconds to move `bytes` between host and device memory
    /// (zero for host-resident devices).
    fn transfer_time(&self, bytes: u64) -> SimTime;

    /// Device memory capacity in bytes (bounds the batch size).
    fn memory_capacity(&self) -> u64;

    /// True for accelerators that need deep-copy model replicas.
    fn is_accelerator(&self) -> bool;
}

/// V100-like accelerator model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Device name.
    pub name: String,
    /// Peak single-precision throughput (FLOP/s).
    pub peak_flops: f64,
    /// Batch size at which occupancy reaches 50%.
    pub occupancy_half_batch: f64,
    /// Fixed kernel-launch overhead per batch (all kernels of one step).
    pub launch_overhead: SimTime,
    /// PCIe latency per transfer.
    pub transfer_latency: SimTime,
    /// PCIe bandwidth (bytes/s).
    pub transfer_bandwidth: f64,
    /// Global memory capacity (bytes).
    pub memory: u64,
}

impl GpuModel {
    /// NVIDIA Volta V100 (Table I): 80 MPs, 16 GB HBM2, ~15.7 TFLOP/s fp32,
    /// PCIe 3.0 x16 (~12 GB/s effective).
    pub fn v100() -> Self {
        GpuModel {
            name: "V100".into(),
            peak_flops: 15.7e12,
            occupancy_half_batch: 512.0,
            launch_overhead: 250e-6,
            transfer_latency: 10e-6,
            transfer_bandwidth: 12e9,
            memory: 16 * (1 << 30),
        }
    }

    /// Occupancy (fraction of peak) achieved by a batch of `b` examples.
    pub fn occupancy(&self, b: usize) -> f64 {
        let b = b as f64;
        b / (b + self.occupancy_half_batch)
    }
}

impl DeviceModel for GpuModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn batch_time(&self, flops_per_example: u64, batch: usize) -> SimTime {
        if batch == 0 {
            return 0.0;
        }
        let flops = flops_per_example as f64 * batch as f64;
        let effective = self.peak_flops * self.occupancy(batch);
        self.launch_overhead + flops / effective
    }

    fn busy_utilization(&self, batch: usize) -> f64 {
        self.occupancy(batch)
    }

    fn transfer_time(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return 0.0;
        }
        self.transfer_latency + bytes as f64 / self.transfer_bandwidth
    }

    fn memory_capacity(&self) -> u64 {
        self.memory
    }

    fn is_accelerator(&self) -> bool {
        true
    }
}

/// Dual-socket Xeon-like CPU model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Device name.
    pub name: String,
    /// Worker threads performing model updates (paper: 56 of 64).
    pub threads: usize,
    /// Total hardware threads (denominator of the utilization metric).
    pub hw_threads: usize,
    /// Per-thread throughput on single-example (GEMV-like) work.
    pub flops_small: f64,
    /// Per-thread throughput on large sub-batches (GEMM-like, MKL speed).
    pub flops_large: f64,
    /// Sub-batch size at which a thread reaches half way between the two.
    pub batch_half: f64,
    /// Fixed per-batch dispatch overhead (OpenMP fork/join, queue pop).
    pub dispatch_overhead: SimTime,
    /// Host memory capacity (bytes).
    pub memory: u64,
}

impl CpuModel {
    /// The paper's host: 2× 18-core Xeon, 56 worker threads of 64,
    /// 488 GB RAM (Table I / §VII-A).
    pub fn xeon_pair() -> Self {
        CpuModel {
            name: "2xXeon".into(),
            threads: 56,
            hw_threads: 64,
            flops_small: 1.0e9,
            flops_large: 20.0e9,
            batch_half: 32.0,
            dispatch_overhead: 5e-6,
            memory: 488 * (1 << 30),
        }
    }

    /// Effective per-thread throughput for a sub-batch of `b` examples.
    ///
    /// Saturating curve anchored so that `b = 1` runs at exactly
    /// [`CpuModel::flops_small`] (a one-example gradient is pure GEMV).
    pub fn thread_flops(&self, b: usize) -> f64 {
        let x = (b.max(1) - 1) as f64;
        self.flops_small + (self.flops_large - self.flops_small) * x / (x + self.batch_half)
    }
}

impl DeviceModel for CpuModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn batch_time(&self, flops_per_example: u64, batch: usize) -> SimTime {
        if batch == 0 {
            return 0.0;
        }
        // The worker splits the batch into `threads` sub-batches processed
        // in parallel (Algorithm 2, CPU worker). Time is governed by the
        // largest sub-batch.
        let sub = batch.div_ceil(self.threads);
        let flops = flops_per_example as f64 * sub as f64;
        self.dispatch_overhead + flops / self.thread_flops(sub)
    }

    fn busy_utilization(&self, batch: usize) -> f64 {
        batch.min(self.threads) as f64 / self.hw_threads as f64
    }

    fn transfer_time(&self, _bytes: u64) -> SimTime {
        0.0 // host-resident: model and data are shared by reference
    }

    fn memory_capacity(&self) -> u64 {
        self.memory
    }

    fn is_accelerator(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// covtype network (§VII-A): d=54, 6 hidden × 512, 2 classes.
    fn covtype_flops_per_example() -> u64 {
        let dims = [
            (54usize, 512usize),
            (512, 512),
            (512, 512),
            (512, 512),
            (512, 512),
            (512, 512),
            (512, 2),
        ];
        3 * dims
            .iter()
            .map(|&(i, o)| 2 * (i as u64) * (o as u64))
            .sum::<u64>()
    }

    #[test]
    fn gpu_occupancy_matches_paper_thresholds() {
        let gpu = GpuModel::v100();
        // Paper: lower threshold ≈ 50% utilization, 8192 ≈ 100%.
        assert!((gpu.occupancy(512) - 0.5).abs() < 0.01);
        assert!(gpu.occupancy(8192) > 0.9);
        assert!(gpu.occupancy(1) < 0.01);
    }

    #[test]
    fn cpu_thread_flops_grows_with_subbatch() {
        let cpu = CpuModel::xeon_pair();
        assert!(cpu.thread_flops(1) < 2.0e9);
        assert!(cpu.thread_flops(64) > 12.0e9);
        assert!(cpu.thread_flops(1024) > 19.0e9);
    }

    #[test]
    fn hogwild_vs_minibatch_epoch_ratio_in_paper_band() {
        // §VII-B: "Hogwild CPU takes considerably longer – from 236X to
        // 317X – to execute an SGD epoch than GPU".
        let gpu = GpuModel::v100();
        let cpu = CpuModel::xeon_pair();
        let fpe = covtype_flops_per_example();
        let n = 581_012usize;

        // GPU mini-batch, 8192/batch, with batch transfer each step.
        let gpu_batch = 8192usize;
        let batches = n.div_ceil(gpu_batch);
        let batch_bytes = (gpu_batch * 54 * 4) as u64;
        let gpu_epoch =
            batches as f64 * (gpu.batch_time(fpe, gpu_batch) + gpu.transfer_time(batch_bytes));

        // CPU Hogwild: 1 example per thread per batch → batch = 56.
        let cpu_batch = cpu.threads;
        let cpu_epoch = (n as f64 / cpu_batch as f64) * cpu.batch_time(fpe, cpu_batch);

        let ratio = cpu_epoch / gpu_epoch;
        assert!(
            (200.0..350.0).contains(&ratio),
            "epoch ratio {ratio:.0}x outside the paper's band"
        );
    }

    #[test]
    fn gpu_batch_time_monotone_in_batch() {
        let gpu = GpuModel::v100();
        let fpe = 1_000_000;
        let mut prev = 0.0;
        for b in [1, 16, 256, 4096, 65536] {
            let t = gpu.batch_time(fpe, b);
            assert!(t > prev, "batch {b} not slower than smaller batch");
            prev = t;
        }
    }

    #[test]
    fn gpu_throughput_monotone_in_batch() {
        // Larger batches give better examples/second.
        let gpu = GpuModel::v100();
        let fpe = 1_000_000;
        let mut prev = 0.0;
        for b in [1usize, 16, 256, 4096, 65536] {
            let thpt = b as f64 / gpu.batch_time(fpe, b);
            assert!(thpt > prev, "throughput not monotone at {b}");
            prev = thpt;
        }
    }

    #[test]
    fn zero_batch_costs_nothing() {
        assert_eq!(GpuModel::v100().batch_time(1000, 0), 0.0);
        assert_eq!(CpuModel::xeon_pair().batch_time(1000, 0), 0.0);
        assert_eq!(GpuModel::v100().transfer_time(0), 0.0);
    }

    #[test]
    fn transfer_time_linear_in_bytes() {
        let gpu = GpuModel::v100();
        let t1 = gpu.transfer_time(1 << 20);
        let t2 = gpu.transfer_time(1 << 21);
        let marginal = t2 - t1;
        assert!((marginal - (1 << 20) as f64 / gpu.transfer_bandwidth).abs() < 1e-9);
    }

    #[test]
    fn cpu_utilization_caps_at_thread_ratio() {
        let cpu = CpuModel::xeon_pair();
        // 56/64 = 0.875 — the "hovers around 80%" of Figure 7.
        assert!((cpu.busy_utilization(10_000) - 0.875).abs() < 1e-9);
        assert!(cpu.busy_utilization(28) < 0.5);
    }

    #[test]
    fn table1_capacities() {
        assert_eq!(GpuModel::v100().memory_capacity(), 16 * (1 << 30));
        assert_eq!(CpuModel::xeon_pair().memory_capacity(), 488 * (1 << 30));
        assert!(GpuModel::v100().is_accelerator());
        assert!(!CpuModel::xeon_pair().is_accelerator());
    }
}
