//! Run all five SGD algorithms of the paper on one dataset and compare
//! their convergence — a miniature of the paper's Figure 5 experiment.
//!
//! ```text
//! cargo run --release --example algorithm_comparison [dataset] [scale]
//! ```
//! `dataset` ∈ {covtype, w8a, delicious, real-sim} (default covtype),
//! `scale` shrinks the synthetic stand-in (default 0.002, floored at
//! 4 096 rows).

use hetero_sgd::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("covtype");
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.002);
    let paper = PaperDataset::from_name(name).unwrap_or_else(|| {
        eprintln!("unknown dataset '{name}', expected covtype|w8a|delicious|real-sim");
        std::process::exit(1);
    });
    let task = Task::new(paper, scale).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let dataset = task.generate(42);
    let spec = task.net(&dataset);
    println!("{}", task.line(&dataset));

    let budget = 0.3;
    let mut results: Vec<TrainResult> = Vec::new();
    for algo in AlgorithmKind::all() {
        let train = TrainConfig {
            algorithm: algo,
            time_budget: budget,
            eval_subsample: 1024,
            ..TrainConfig::default()
        }
        .sized(dataset.len(), CpuModel::xeon_pair().threads);
        let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec.clone(), train)).unwrap();
        let r = engine.run(&dataset);
        println!(
            "{:22}  epochs {:8.2}  final loss {:.5}  min loss {:.5}",
            r.algorithm,
            r.epochs,
            r.final_loss(),
            r.min_loss()
        );
        results.push(r);
    }

    // Normalize to the best observed loss (the paper's methodology).
    let basis = results
        .iter()
        .map(|r| r.min_loss())
        .fold(f32::INFINITY, f32::min);
    println!("\nnormalized final loss (basis = best min loss {basis:.5}):");
    for r in &results {
        let time_to = r
            .time_to_loss(basis * 1.1)
            .map(|t| format!("{t:.3}s"))
            .unwrap_or_else(|| "never".into());
        println!(
            "{:22}  final/basis {:6.3}  reaches 1.1×basis at {}",
            r.algorithm,
            r.final_loss() / basis,
            time_to
        );
    }
}
