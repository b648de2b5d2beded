//! Ablation sweeps over the design choices §VI calls out:
//!
//! 1. **α** (batch rescale factor) — how aggressive adaptation should be;
//! 2. **β** (surviving-update fraction credited per CPU batch) — how the
//!    coordinator discounts conflicting Hogwild updates;
//! 3. **GPU lower threshold** — the utilization-vs-balance trade-off that
//!    Figure 7's Adaptive curve exposes;
//! 4. **learning-rate ∝ batch** on/off — the Goyal-style scaling the
//!    paper adopts in §VI-B;
//! 5. **staleness compensation κ** (§VI-B's stale-gradient remark);
//! 6. **multi-GPU scaling** (the paper's future work) — 1/2/4 simulated
//!    V100s under CPU+GPU Hogbatch.
//!
//! Output: one CSV block per sweep on stdout, summary on stderr.

use hetero_bench::Harness;
use hetero_core::{AlgorithmKind, LrScaling, RunCtx, TrainConfig, TrainResult};
use hetero_data::PaperDataset;

fn main() {
    let h = Harness::new(PaperDataset::Covtype);
    eprintln!(
        "ablations on {} | budget {}s",
        h.task.line(&h.data),
        h.budget
    );
    let run = |train: TrainConfig| -> TrainResult {
        h.run_on(h.engine_config(train), &RunCtx::default())
    };

    // --- 1. α sweep ----------------------------------------------------------
    println!("# alpha sweep (Adaptive Hogbatch)");
    println!("alpha,final_loss,cpu_fraction,gpu_final_batch");
    for alpha in [1.25, 1.5, 2.0, 4.0, 8.0] {
        let mut train = h.train_config(AlgorithmKind::AdaptiveHogbatch);
        train.adaptive.alpha = alpha;
        let r = run(train);
        let gpu_batch = r
            .workers
            .iter()
            .find(|w| w.kind == hetero_core::WorkerKind::Gpu && w.batches > 0)
            .map(|w| w.final_batch)
            .unwrap_or(0);
        println!(
            "{alpha},{:.5},{:.4},{gpu_batch}",
            r.final_loss(),
            r.cpu_update_fraction()
        );
        eprintln!(
            "alpha {alpha:4}: final loss {:.5}, CPU share {:4.1}%, GPU batch ends at {gpu_batch}",
            r.final_loss(),
            100.0 * r.cpu_update_fraction()
        );
    }

    // --- 2. β sweep ----------------------------------------------------------
    println!("# beta sweep (Adaptive Hogbatch)");
    println!("beta,final_loss,cpu_fraction");
    for beta in [0.25, 0.5, 0.75, 1.0] {
        let mut train = h.train_config(AlgorithmKind::AdaptiveHogbatch);
        train.adaptive.beta = beta;
        let r = run(train);
        println!(
            "{beta},{:.5},{:.4}",
            r.final_loss(),
            r.cpu_update_fraction()
        );
        eprintln!(
            "beta {beta:4}: final loss {:.5}, CPU share {:4.1}%",
            r.final_loss(),
            100.0 * r.cpu_update_fraction()
        );
    }

    // --- 3. GPU lower-threshold sweep -----------------------------------------
    println!("# gpu lower-threshold sweep (Adaptive Hogbatch)");
    println!("gpu_min_batch,final_loss,mean_gpu_util");
    let base = h.train_config(AlgorithmKind::AdaptiveHogbatch);
    for div in [2usize, 4, 8, 16, 32] {
        let mut train = base.clone();
        train.adaptive.gpu_min_batch = (train.adaptive.gpu_max_batch / div).max(1);
        let min_b = train.adaptive.gpu_min_batch;
        let r = run(train);
        let gpu = r
            .workers
            .iter()
            .find(|w| w.kind == hetero_core::WorkerKind::Gpu && w.batches > 0);
        let util = gpu
            .map(|w| {
                let hzn = w.timeline.horizon().max(1e-12);
                w.timeline.busy_time() / hzn
            })
            .unwrap_or(0.0);
        println!("{min_b},{:.5},{:.4}", r.final_loss(), util);
        eprintln!(
            "gpu_min {min_b:5}: final loss {:.5}, mean GPU util while active {:4.1}%",
            r.final_loss(),
            100.0 * util
        );
    }

    // --- 4. lr scaling on/off ---------------------------------------------------
    println!("# learning-rate scaling (CPU+GPU Hogbatch)");
    println!("scaling,final_loss,min_loss");
    for (name, scaling) in [
        ("none", LrScaling::None),
        (
            "sqrt",
            LrScaling::Sqrt {
                ref_batch: 1,
                max_lr: 0.5,
            },
        ),
        (
            "linear",
            LrScaling::Linear {
                ref_batch: 1,
                max_lr: 0.5,
            },
        ),
    ] {
        let mut train = h.train_config(AlgorithmKind::CpuGpuHogbatch);
        train.lr_scaling = scaling;
        let r = run(train);
        println!("{name},{:.5},{:.5}", r.final_loss(), r.min_loss());
        eprintln!(
            "lr scaling {name:6}: final loss {:.5} (min {:.5})",
            r.final_loss(),
            r.min_loss()
        );
    }

    // --- 5. staleness-compensation sweep ----------------------------------------
    println!("# staleness compensation sweep (CPU+GPU Hogbatch)");
    println!("kappa,final_loss,min_loss");
    for kappa in [0.0f32, 0.001, 0.01, 0.1] {
        let mut train = h.train_config(AlgorithmKind::CpuGpuHogbatch);
        train.staleness_discount = kappa;
        let r = run(train);
        println!("{kappa},{:.5},{:.5}", r.final_loss(), r.min_loss());
        eprintln!(
            "kappa {kappa:6}: final {:.5} (min {:.5})",
            r.final_loss(),
            r.min_loss()
        );
    }

    // --- 6. multi-GPU scaling ----------------------------------------------------
    println!("# multi-GPU scaling (CPU+GPU Hogbatch)");
    println!("gpus,epochs,final_loss,total_updates");
    for n_gpus in [1usize, 2, 4] {
        let train = h.train_config(AlgorithmKind::CpuGpuHogbatch);
        let mut cfg = h.engine_config(train);
        let g = cfg.gpus[0].clone();
        cfg.gpus = (0..n_gpus).map(|_| g.clone()).collect();
        let r = h.run_on(cfg, &RunCtx::default());
        println!(
            "{n_gpus},{:.3},{:.5},{:.0}",
            r.epochs,
            r.final_loss(),
            r.total_updates()
        );
        eprintln!(
            "{n_gpus} GPU(s): {:7.2} epochs | final {:.5} | {:.0} updates",
            r.epochs,
            r.final_loss(),
            r.total_updates()
        );
    }
}
