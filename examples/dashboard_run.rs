//! Live training dashboard: run the threaded engine with the metrics hub
//! attached and render per-worker throughput, staleness quantiles, and
//! utilization bars in place while it trains.
//!
//! ```text
//! cargo run --release --example dashboard_run
//! ```
//!
//! Environment:
//!
//! - `HETERO_SCALE` / `HETERO_BUDGET` — dataset scale and wall-clock
//!   seconds (same conventions as the other examples), so CI can run this
//!   in well under a second.
//! - `HETERO_DASH_HEADLESS=1` — no ANSI cursor control; print a handful of
//!   plain-text frames instead of refreshing in place (for CI logs).
//! - `HETERO_SCRAPE_ADDR=127.0.0.1:9184` — additionally serve the
//!   OpenMetrics exposition over HTTP for a Prometheus scrape (omit to
//!   skip the listener).
//!
//! On exit, writes the final exposition to `results/openmetrics.txt` and
//! validates it against the strict line-format checker.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hetero_sgd::metrics::{render, render_dashboard, validate_openmetrics};
use hetero_sgd::prelude::*;
use hetero_sgd::trace::TraceSink;

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = env_f64("HETERO_SCALE", 0.002);
    let budget = env_f64("HETERO_BUDGET", 3.0);
    let headless = std::env::var("HETERO_DASH_HEADLESS").is_ok_and(|v| v != "0");
    let dataset = Arc::new(PaperDataset::Covtype.generate(scale.max(1000.0 / 581_012.0), 42));
    let spec = MlpSpec {
        input_dim: dataset.features(),
        hidden: vec![48; 2],
        classes: dataset.num_classes(),
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let gpu_max = 8192.min(dataset.len().max(64));
    let train = TrainConfig {
        algorithm: AlgorithmKind::AdaptiveHogbatch,
        time_budget: budget,
        rayon_threads: 0,
        sparse_input: false,
        eval_interval: (budget / 10.0).max(0.05),
        eval_subsample: 1024,
        adaptive: AdaptiveParams {
            gpu_min_batch: (gpu_max / 16).max(16),
            gpu_max_batch: gpu_max,
            ..AdaptiveParams::default()
        },
        ..TrainConfig::default()
    };
    println!(
        "dashboard_run: covtype ({} examples), adaptive Hogbatch, {budget}s wall budget",
        dataset.len()
    );

    let sink = TraceSink::wall(1 << 16);
    let hub = MetricsHub::new();

    // Optional Prometheus scrape endpoint; renders a fresh exposition per
    // request from the same sink + hub the dashboard reads.
    let _server = std::env::var("HETERO_SCRAPE_ADDR").ok().map(|addr| {
        let (s, h) = (sink.clone(), hub.clone());
        let server = ScrapeServer::bind(&addr, Arc::new(move || render(&s, &h)))
            .expect("bind scrape endpoint");
        println!(
            "serving OpenMetrics on http://{}/metrics",
            server.local_addr()
        );
        server
    });

    let engine = ThreadedEngine::new(ThreadedEngineConfig {
        spec,
        train,
        cpu_threads: std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(2).max(2))
            .unwrap_or(4),
        gpu_perf: GpuModel::v100(),
        gpu_workers: 1,
        fault_plan: FaultPlan::none(),
    })
    .expect("valid engine config");

    // Train on a helper thread; the main thread owns the terminal.
    let run = {
        let dataset = Arc::clone(&dataset);
        let ctx = RunCtx {
            sink: sink.clone(),
            hub: hub.clone(),
            ..RunCtx::default()
        };
        std::thread::spawn(move || engine.run_with(dataset, &ctx))
    };

    if !headless {
        // Clear once; every frame then homes the cursor and overdraws.
        print!("\x1b[2J");
    }
    let t0 = Instant::now();
    let mut prev: Option<DashboardFrame> = None;
    let refresh = Duration::from_millis(250);
    while !run.is_finished() {
        std::thread::sleep(refresh);
        let frame = DashboardFrame::collect(&sink, &hub, t0.elapsed().as_secs_f64());
        if headless {
            // A few spaced plain-text frames are enough for a CI log.
            if frame.elapsed < 1.0 || run.is_finished() {
                println!("{}", render_dashboard(&frame, prev.as_ref(), false));
            }
        } else {
            print!("{}", render_dashboard(&frame, prev.as_ref(), true));
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        prev = Some(frame);
    }
    let result = run.join().expect("training thread panicked");

    // Final frame + run summary on a clean line.
    let frame = DashboardFrame::collect(&sink, &hub, t0.elapsed().as_secs_f64());
    println!("{}", render_dashboard(&frame, prev.as_ref(), false));
    println!(
        "final loss {:.4} after {:.2} epochs",
        result.final_loss(),
        result.epochs
    );
    if let Some(s) = &result.staleness {
        println!(
            "staleness: p50 {} p90 {} p99 {} max {} over {} updates",
            s.p50, s.p90, s.p99, s.max, s.count
        );
    }

    // Export + validate the final OpenMetrics exposition.
    let text = render(&sink, &hub);
    validate_openmetrics(&text).expect("exposition failed strict validation");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/openmetrics.txt", &text).expect("write exposition");
    println!(
        "wrote results/openmetrics.txt ({} lines, strict-validated)",
        text.lines().count()
    );
    assert!(
        result.final_loss().is_finite(),
        "training diverged: {:?}",
        result.loss_curve.last()
    );
}
