//! Train the paper's adaptive Hogbatch with event tracing attached and
//! export the run as a Chrome `trace_event` file.
//!
//! ```text
//! cargo run --release --example trace_run
//! ```
//!
//! Writes `results/trace_run.json` (load it at <https://ui.perfetto.dev>
//! — one flame track per worker, instant markers for batch resizes, and
//! counter tracks for queue depth and loss) plus `results/trace_run.jsonl`
//! for line-oriented tooling. Honors `HETERO_SCALE` and `HETERO_BUDGET`
//! so CI can run it in milliseconds.

use hetero_sgd::prelude::*;
use hetero_sgd::trace::{export, EventKind, TraceSink, DEFAULT_RING_CAPACITY};

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let task = Task::new(PaperDataset::Covtype, env_f64("HETERO_SCALE", 0.002)).unwrap();
    let budget = env_f64("HETERO_BUDGET", 0.2);
    let dataset = task.generate(42);
    let spec = task.net(&dataset);
    let train = TrainConfig {
        algorithm: AlgorithmKind::AdaptiveHogbatch,
        time_budget: budget,
        eval_subsample: 1024,
        ..TrainConfig::default()
    }
    .sized(dataset.len(), CpuModel::xeon_pair().threads);
    println!(
        "trace_run: {} | adaptive Hogbatch, {budget}s virtual budget",
        task.line(&dataset)
    );

    // Virtual-time sink: the simulated engine publishes its clock, so every
    // event is stamped in the same time domain the paper's figures use.
    let sink = TraceSink::virtual_time(DEFAULT_RING_CAPACITY);
    let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train)).unwrap();
    let mut result = engine.run_traced(&dataset, &sink);
    let trace = sink.drain();

    let resizes = trace
        .events_sorted()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BatchResized { .. }))
        .count();
    assert!(
        !trace.is_empty(),
        "traced run produced no events — sink not attached?"
    );
    assert!(
        resizes >= 1,
        "adaptive run emitted no BatchResized events — adaptation never fired"
    );

    std::fs::create_dir_all("results").expect("create results/");
    let chrome = "results/trace_run.json";
    let jsonl = "results/trace_run.jsonl";
    export::write_chrome(&trace, chrome).expect("write Chrome trace");
    export::write_jsonl(&trace, jsonl).expect("write JSONL trace");
    result.trace_path = Some(chrome.to_string());

    println!(
        "  {} events across {} threads ({} dropped), {} batch resizes",
        trace.len(),
        trace.shards.len(),
        trace.total_dropped(),
        resizes
    );
    let mut workers = hetero_sgd::trace::analyze::analyze(&trace).workers;
    workers.sort_by_key(|w| w.worker);
    for w in workers {
        println!(
            "  worker {:>2}: {:5.1}% busy, {:>5} batches, {:>8} examples",
            w.worker,
            100.0 * w.utilization,
            w.batches,
            w.examples
        );
    }
    for (name, value) in &trace.counters {
        println!("  counter {name} = {value:.3}");
    }
    println!(
        "  final loss {:.4} after {:.2} epochs",
        result.final_loss(),
        result.epochs
    );
    println!("wrote {chrome} (open in https://ui.perfetto.dev) and {jsonl}");
    println!("trace_path = {:?}", result.trace_path);
}
