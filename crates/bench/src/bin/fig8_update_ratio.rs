//! Figure 8 — distribution of model updates between CPU and GPU for the
//! two heterogeneous algorithms, on all four datasets.
//!
//! Paper shapes: under CPU+GPU Hogbatch the CPU's many small Hogwild
//! updates dominate ("almost exclusive"); Adaptive moves the distribution
//! toward uniformity, with CPU and GPU each performing a comparable share.
//!
//! Output: CSV `dataset,algorithm,cpu_updates,gpu_updates,cpu_fraction`.

use hetero_bench::Harness;
use hetero_core::{AlgorithmKind, WorkerKind};
use hetero_data::PaperDataset;

fn main() {
    println!("dataset,algorithm,cpu_updates,gpu_updates,cpu_fraction");
    for p in PaperDataset::all() {
        let h = Harness::new(p);
        let dataset = &h.data;
        eprintln!("fig8: {} | budget {}s", h.task.line(&h.data), h.budget);
        for algo in [
            AlgorithmKind::CpuGpuHogbatch,
            AlgorithmKind::AdaptiveHogbatch,
        ] {
            let r = h.run(algo);
            let cpu: f64 = r
                .workers
                .iter()
                .filter(|w| w.kind == WorkerKind::Cpu)
                .map(|w| w.updates)
                .sum();
            let gpu: f64 = r
                .workers
                .iter()
                .filter(|w| w.kind == WorkerKind::Gpu)
                .map(|w| w.updates)
                .sum();
            println!(
                "{},{},{:.0},{:.0},{:.4}",
                dataset.name,
                r.algorithm,
                cpu,
                gpu,
                r.cpu_update_fraction()
            );
            eprintln!(
                "{:10} {:24} CPU {:7.0} : GPU {:7.0}  ({:4.1}% CPU)",
                dataset.name,
                r.algorithm,
                cpu,
                gpu,
                100.0 * r.cpu_update_fraction()
            );
        }
    }
}
