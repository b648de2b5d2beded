//! The real-thread engine: actual Hogwild threads racing on a shared
//! atomic model while a software-GPU worker trains deep-copy replicas —
//! the paper's implementation architecture (§V) on your machine's cores,
//! wall-clock time.
//!
//! ```text
//! cargo run --release --example real_concurrency [seconds]
//! ```

use std::sync::Arc;

use hetero_sgd::prelude::*;

fn main() {
    let secs: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);

    let mut synth = SynthConfig::small(4000, 20, 4, 11);
    synth.separability = 3.0;
    let mut dataset = synth.generate();
    dataset.standardize();
    dataset.name = "synthetic-4class".into();
    let dataset = Arc::new(dataset);

    let spec = MlpSpec {
        input_dim: 20,
        hidden: vec![32, 32],
        classes: 4,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };

    let threads = std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(2).max(2))
        .unwrap_or(4);
    println!("running CPU+GPU Hogbatch for {secs}s with {threads} Hogwild threads + 1 software-GPU worker");

    for algo in [
        AlgorithmKind::HogbatchCpu,
        AlgorithmKind::MiniBatchGpu,
        AlgorithmKind::CpuGpuHogbatch,
        AlgorithmKind::AdaptiveHogbatch,
    ] {
        let cfg = ThreadedEngineConfig {
            spec: spec.clone(),
            train: TrainConfig {
                algorithm: algo,
                lr: 0.05,
                lr_scaling: LrScaling::Sqrt {
                    ref_batch: 1,
                    max_lr: 0.5,
                },
                cpu_batch_per_thread: 1,
                gpu_batch: 512,
                adaptive: AdaptiveParams {
                    cpu_min_batch: threads,
                    cpu_max_batch: threads * 64,
                    gpu_min_batch: 64,
                    gpu_max_batch: 512,
                    ..AdaptiveParams::default()
                },
                time_budget: secs,
                rayon_threads: 0,
                eval_interval: secs / 8.0,
                eval_subsample: 1000,
                ..TrainConfig::default()
            },
            cpu_threads: threads,
            gpu_perf: GpuModel::v100(),
            gpu_workers: 1,
            fault_plan: FaultPlan::none(),
        };
        let engine = ThreadedEngine::new(cfg).unwrap();
        let r = engine.run(Arc::clone(&dataset));
        println!(
            "\n== {} ==\n   loss {:.4} -> {:.4} | {:.2} epochs in {:.2}s wall",
            r.algorithm,
            r.initial_loss(),
            r.final_loss(),
            r.epochs,
            r.duration
        );
        for w in r.workers.iter().filter(|w| w.batches > 0) {
            println!(
                "   {:?}: {} batches / {} examples / {:.0} updates (final batch {})",
                w.kind, w.batches, w.examples, w.updates, w.final_batch
            );
        }
        if r.total_updates() > 0.0 {
            println!(
                "   CPU update share: {:.1}%",
                100.0 * r.cpu_update_fraction()
            );
        }
    }
}
