//! Sparse-input training on the real-sim stand-in — quantifying the
//! paper's decision to "process all the datasets in dense format" (§VII-A).
//!
//! real-sim is 20,958-dimensional at ~0.25% density; the first MLP layer
//! dominates its step cost and is exactly where CSR kernels help. This
//! example trains the same network twice — dense and sparse input paths —
//! verifies the losses agree step for step, and reports the wall-clock
//! difference. It then runs the threaded engine end to end on full-width
//! real-sim rows (the shape of the repo benchmark's
//! `threaded-sparse-realsim`) and splits each run's wall into start-up —
//! model initialisation beside the CSR compression, before the engine's
//! clock — and training (`TrainResult::duration`).
//!
//! ```text
//! cargo run --release --example sparse_realsim
//! ```

use std::sync::Arc;
use std::time::Instant;

use hetero_sgd::nn::{loss_and_gradient, loss_and_gradient_sparse};
use hetero_sgd::prelude::*;

fn main() {
    let dataset = PaperDataset::RealSim.generate(0.01, 7);
    let csr = dataset.to_csr();
    println!(
        "real-sim stand-in: {} × {} at {:.2}% density ({} nnz)",
        dataset.len(),
        dataset.features(),
        100.0 * csr.density(),
        csr.nnz()
    );

    let spec = MlpSpec {
        input_dim: dataset.features(),
        hidden: vec![128, 128],
        classes: 2,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let model0 = Model::new(spec, InitScheme::XavierSigmoid, 3);
    let steps = 20;
    let batch = 256.min(dataset.len());
    let (x_dense, labels) = dataset.batch(0, batch);
    let x_sparse = csr.slice_rows(0, batch);

    // Dense path.
    let mut dense_model = model0.clone();
    let t0 = Instant::now();
    let mut dense_losses = Vec::new();
    for _ in 0..steps {
        let (l, g) = loss_and_gradient(&dense_model, &x_dense, labels.as_targets(), true);
        dense_model.apply_gradient(&g, 0.1);
        dense_losses.push(l);
    }
    let dense_time = t0.elapsed();

    // Sparse path.
    let mut sparse_model = model0.clone();
    let t0 = Instant::now();
    let mut sparse_losses = Vec::new();
    for _ in 0..steps {
        let (l, g) = loss_and_gradient_sparse(&sparse_model, &x_sparse, labels.as_targets(), true);
        sparse_model.apply_gradient(&g, 0.1);
        sparse_losses.push(l);
    }
    let sparse_time = t0.elapsed();

    // The two paths compute the same math.
    let max_diff = dense_losses
        .iter()
        .zip(&sparse_losses)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!(
        "loss {:.4} -> dense {:.4} / sparse {:.4} (max per-step diff {:.2e})",
        dense_losses[0],
        dense_losses[steps - 1],
        sparse_losses[steps - 1],
        max_diff
    );
    assert!(max_diff < 1e-3, "paths diverged");

    println!(
        "{steps} steps of batch {batch}: dense {:.1} ms/step, sparse {:.1} ms/step ({:.1}x)",
        dense_time.as_secs_f64() * 1e3 / steps as f64,
        sparse_time.as_secs_f64() * 1e3 / steps as f64,
        dense_time.as_secs_f64() / sparse_time.as_secs_f64().max(1e-12)
    );
    println!(
        "(the win grows with 1/density — at the paper's full 20,958 features\n\
         and 0.25% density the sparse path dominates; at covtype-like density\n\
         the dense blocked GEMM wins, which is why the paper ran dense)"
    );

    engine_startup_vs_training();
}

/// Where a sparse engine run's wall goes: `run()` timed from outside, less
/// the `duration` the engine reports, is start-up (what the run's sink gets
/// as the `engine.startup_s` gauge).
fn engine_startup_vs_training() {
    let stats = PaperDataset::RealSim.stats();
    let mut dataset = SynthConfig {
        examples: 2048,
        features: stats.features,
        classes: stats.classes,
        avg_labels: None,
        separability: 2.5,
        density: stats.density,
        noise: 1.0,
        seed: 1,
    }
    .generate();
    dataset.scale_to_unit_variance();
    let dataset = Arc::new(dataset);
    let spec = MlpSpec {
        input_dim: dataset.features(),
        hidden: vec![64],
        classes: 2,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };

    const TRIALS: u64 = 8;
    let (mut startup, mut training) = (Vec::new(), Vec::new());
    for trial in 0..=TRIALS {
        let engine = ThreadedEngine::new(ThreadedEngineConfig {
            spec: spec.clone(),
            train: TrainConfig {
                algorithm: AlgorithmKind::CpuGpuHogbatch,
                lr: 0.01,
                lr_scaling: LrScaling::Sqrt {
                    ref_batch: 1,
                    max_lr: 0.08,
                },
                init: InitScheme::Xavier,
                cpu_batch_per_thread: 256,
                gpu_batch: 512,
                sparse_input: true,
                max_epochs: Some(4),
                time_budget: 60.0,
                eval_interval: 0.03,
                eval_subsample: 1024,
                rayon_threads: 1,
                seed: 1000 + trial,
                ..TrainConfig::default()
            },
            cpu_threads: 1,
            gpu_perf: GpuModel::v100(),
            gpu_workers: 1,
            fault_plan: FaultPlan::none(),
        })
        .expect("valid config");
        let t0 = Instant::now();
        let result = engine.run(Arc::clone(&dataset));
        let wall = t0.elapsed().as_secs_f64();
        if trial == 0 {
            continue; // warm-up: page faults of the first allocation round
        }
        startup.push(wall - result.duration);
        training.push(result.duration);
    }
    let median_ms = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        1e3 * v[v.len() / 2]
    };
    println!(
        "threaded engine, 2048 × {} CSR rows, 4 epochs, median of {TRIALS} runs:\n\
         \x20 start-up {:.1} ms | training {:.1} ms",
        dataset.features(),
        median_ms(&mut startup),
        median_ms(&mut training),
    );
}
