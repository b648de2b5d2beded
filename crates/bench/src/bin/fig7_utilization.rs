//! Figure 7 — CPU and GPU utilization over three epochs on covtype.
//!
//! Paper shapes: CPU utilization hovers around 80% (56 of 64 threads);
//! GPU utilization stays above 80% for Hogbatch GPU and CPU+GPU (batch
//! 8192), drops toward the lower threshold (~50%) under Adaptive; the
//! end-of-epoch loss evaluation shows up as a GPU spike / CPU dip.
//!
//! Output: CSV `algorithm,device,time_s,utilization` sampled on a fixed
//! grid over the first three epochs.

use hetero_bench::plot::{write_chart, ChartConfig, Series};
use hetero_bench::Harness;
use hetero_core::{AlgorithmKind, WorkerKind};
use hetero_data::PaperDataset;

fn main() {
    let mut h = Harness::default();
    // Three epochs of covtype: cap the budget by epochs instead of time.
    let p = PaperDataset::Covtype;
    let dataset = h.dataset(p);
    eprintln!(
        "fig7: covtype scale={} width={} — 3 epochs per algorithm",
        h.scale, h.width
    );
    // Give a long time budget; the epoch cap stops the run.
    h.budget *= 4.0;

    println!("algorithm,device,time_s,utilization");
    for algo in [
        AlgorithmKind::HogbatchCpu,
        AlgorithmKind::MiniBatchGpu,
        AlgorithmKind::CpuGpuHogbatch,
        AlgorithmKind::AdaptiveHogbatch,
    ] {
        let spec = h.network(p, &dataset);
        let mut train = h.train_config(algo, &dataset);
        train.max_epochs = Some(3);
        let engine =
            hetero_core::SimEngine::new(hetero_core::SimEngineConfig::paper_hardware(spec, train))
                .unwrap();
        let r = engine.run(&dataset);

        // Sample each worker's timeline on a grid covering the *active*
        // part of the run: the three epochs end when the last worker batch
        // completes, well before the safety time budget. The eval pseudo-
        // worker (batches == 0) is excluded from the horizon so the final
        // budget-boundary evaluation does not pad the plot with idle time.
        let horizon = r
            .workers
            .iter()
            .filter(|w| w.batches > 0)
            .map(|w| w.timeline.horizon())
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let dt = horizon / 60.0;
        let mut cpu_avg = (0.0, 0);
        let mut gpu_avg = (0.0, 0);
        let mut svg_series = Vec::new();
        for (i, w) in r.workers.iter().enumerate() {
            if w.timeline.segments().is_empty() {
                continue;
            }
            let device = match (w.kind, w.batches) {
                (WorkerKind::Cpu, _) => "cpu".to_string(),
                (WorkerKind::Gpu, 0) => "gpu-eval".to_string(),
                (WorkerKind::Gpu, _) => format!("gpu{}", i),
            };
            let samples = w.timeline.sample(horizon, dt);
            svg_series.push(Series {
                name: device.clone(),
                points: samples.iter().map(|&(t, u)| (t, u)).collect(),
            });
            for (t, u) in samples {
                println!("{},{},{:.5},{:.4}", algo.label(), device, t, u);
                match w.kind {
                    WorkerKind::Cpu => {
                        cpu_avg.0 += u;
                        cpu_avg.1 += 1;
                    }
                    WorkerKind::Gpu if w.batches > 0 => {
                        gpu_avg.0 += u;
                        gpu_avg.1 += 1;
                    }
                    _ => {}
                }
            }
        }
        let cfg = ChartConfig {
            title: format!("Fig. 7 — utilization over 3 epochs ({})", algo.label()),
            x_label: "virtual seconds".into(),
            y_label: "utilization".into(),
            log_y: false,
            ..ChartConfig::default()
        };
        let path = format!(
            "results/fig7_{}.svg",
            algo.label().replace([' ', '+'], "_").to_lowercase()
        );
        if write_chart(&path, &cfg, &svg_series).unwrap_or(false) {
            eprintln!("  wrote {path}");
        }
        let mean = |(s, n): (f64, usize)| if n > 0 { s / n as f64 } else { 0.0 };
        eprintln!(
            "{:24} 3 epochs in {:8.3}s virtual | mean CPU util {:4.1}% | mean GPU util {:4.1}%",
            algo.label(),
            horizon,
            100.0 * mean(cpu_avg),
            100.0 * mean(gpu_avg)
        );
    }
}
