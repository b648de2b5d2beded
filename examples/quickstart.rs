//! Quickstart: train a paper-style MLP with Adaptive Hogbatch on the
//! simulated CPU+GPU machine and watch the loss fall.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hetero_sgd::prelude::*;

fn main() {
    // 1. Task: a scaled-down covtype stand-in (Table II shape, floored at
    //    4 096 rows) and its §VII-A network, the paper's 6 sigmoid layers.
    let task = Task::new(PaperDataset::Covtype, 0.002).unwrap();
    let dataset = task.generate(42);
    let spec = task.net(&dataset);
    println!("{}", task.line(&dataset));
    println!(
        "network  layers={}  params={}  flops/example={}",
        spec.num_layers(),
        spec.num_params(),
        spec.train_flops_per_example()
    );

    // 2. Train with Adaptive Hogbatch (Algorithm 2) on the paper's
    //    hardware models: 2×Xeon + V100, virtual time.
    let train = TrainConfig {
        algorithm: AlgorithmKind::AdaptiveHogbatch,
        time_budget: 0.25, // virtual seconds — several epochs on this scale
        eval_subsample: 1024,
        ..TrainConfig::default()
    }
    .sized(dataset.len(), CpuModel::xeon_pair().threads);
    let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train)).unwrap();
    let result = engine.run(&dataset);

    // 3. Report.
    println!("\n  time(s)   epochs     loss");
    for p in &result.loss_curve {
        println!("  {:7.3}  {:7.2}  {:8.5}", p.time, p.epochs, p.loss);
    }
    println!(
        "\nloss {:.4} -> {:.4} over {:.1} epochs",
        result.initial_loss(),
        result.final_loss(),
        result.epochs
    );
    for w in result.workers.iter().filter(|w| w.batches > 0) {
        println!(
            "{:?} worker: {} batches, {:.0} updates, final batch {}",
            w.kind, w.batches, w.updates, w.final_batch
        );
    }
    println!(
        "CPU share of model updates: {:.1}% (Adaptive balances this, Fig. 8)",
        100.0 * result.cpu_update_fraction()
    );
    assert!(result.final_loss() < result.initial_loss());
}
