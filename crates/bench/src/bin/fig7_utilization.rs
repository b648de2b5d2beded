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
use hetero_core::{AlgorithmKind, RunCtx, WorkerKind};
use hetero_data::PaperDataset;
use hetero_sim::UtilizationTimeline;

fn main() {
    let mut h = Harness::new(PaperDataset::Covtype);
    // Three epochs of covtype: cap the budget by epochs instead of time.
    eprintln!("fig7: {} — 3 epochs per algorithm", h.task.line(&h.data));
    // Give a long time budget; the epoch cap stops the run.
    h.budget *= 4.0;

    println!("algorithm,device,time_s,utilization");
    for algo in [
        AlgorithmKind::HogbatchCpu,
        AlgorithmKind::MiniBatchGpu,
        AlgorithmKind::CpuGpuHogbatch,
        AlgorithmKind::AdaptiveHogbatch,
    ] {
        let mut train = h.train_config(algo);
        train.max_epochs = Some(3);
        let r = h.run_on(h.engine_config(train), &RunCtx::default());

        // Sample each worker's timeline on a grid covering the *active*
        // part of the run: the three epochs end when the last worker batch
        // completes, well before the safety time budget. The eval timeline
        // is left out of the horizon so the final budget-boundary
        // evaluation does not pad the plot with idle time.
        let horizon = r
            .workers
            .iter()
            .map(|w| w.timeline.horizon())
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let dt = horizon / 60.0;
        let mut cpu_avg = (0.0, 0);
        let mut gpu_avg = (0.0, 0);
        let mut svg_series = Vec::new();
        // Print one device's samples and add it to the chart.
        let mut plot = |device: String, timeline: &UtilizationTimeline| {
            let samples = timeline.sample(horizon, dt);
            for &(t, u) in &samples {
                println!("{},{},{:.5},{:.4}", algo.label(), device, t, u);
            }
            svg_series.push(Series {
                name: device,
                points: samples.clone(),
            });
            samples
        };
        for (i, w) in r.workers.iter().enumerate() {
            if w.timeline.segments().is_empty() {
                continue;
            }
            let (device, avg) = match w.kind {
                WorkerKind::Cpu => ("cpu".to_string(), &mut cpu_avg),
                WorkerKind::Gpu => (format!("gpu{i}"), &mut gpu_avg),
            };
            for (_, u) in plot(device, &w.timeline) {
                avg.0 += u;
                avg.1 += 1;
            }
        }
        if !r.eval_timeline.segments().is_empty() {
            plot("gpu-eval".to_string(), &r.eval_timeline);
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
