//! Figure 7 (trace-derived) — per-device utilization reconstructed from
//! the structured event trace instead of the engine's built-in timelines.
//!
//! The engine emits worker-stamped `BatchStarted`/`BatchCompleted` pairs
//! into a virtual-time [`hetero_trace::TraceSink`] (`BatchDispatched` is
//! coordinator-side since batch lineage landed); this binary replays
//! those events into busy intervals and samples them on a fixed grid, so the
//! Chrome trace (`examples/trace_run.rs`) and the utilization plot come
//! from the same event stream and cannot disagree. Compare against
//! `fig7_utilization`, which reads the simulator timelines directly.
//!
//! Output: CSV `algorithm,device,time_s,utilization` plus a stderr
//! summary of each device's busy fraction from
//! [`hetero_trace::analyze`]'s worker reports.

use hetero_bench::Harness;
use hetero_core::{AlgorithmKind, WorkerKind};
use hetero_data::PaperDataset;
use hetero_trace::analyze::{analyze, spans_from_events};

/// Fraction of `[t0, t0 + dt)` covered by the (sorted, per-worker serial)
/// busy intervals.
fn coverage(intervals: &[(f64, f64)], t0: f64, dt: f64) -> f64 {
    let t1 = t0 + dt;
    let mut busy = 0.0;
    for &(a, b) in intervals {
        busy += (b.min(t1) - a.max(t0)).max(0.0);
    }
    (busy / dt.max(1e-12)).min(1.0)
}

fn main() {
    let h = Harness::new(PaperDataset::Covtype);
    eprintln!(
        "fig7_from_trace: {} | budget {}s virtual",
        h.task.line(&h.data),
        h.budget
    );

    println!("algorithm,device,time_s,utilization");
    for algo in [
        AlgorithmKind::HogbatchCpu,
        AlgorithmKind::MiniBatchGpu,
        AlgorithmKind::CpuGpuHogbatch,
        AlgorithmKind::AdaptiveHogbatch,
    ] {
        let (r, trace) = h.run_traced(algo);
        let device = |w: u32| match r.workers.get(w as usize).map(|s| s.kind) {
            Some(WorkerKind::Cpu) => "cpu".to_string(),
            Some(WorkerKind::Gpu) => format!("gpu{w}"),
            None => format!("w{w}"),
        };

        let events = trace.events_sorted();
        let horizon = events.last().map(|e| e.t).unwrap_or(h.budget).max(1e-9);
        let dt = horizon / 60.0;
        let spans = spans_from_events(&events);
        let mut workers: Vec<u32> = spans.iter().map(|s| s.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        for w in workers {
            let intervals: Vec<(f64, f64)> = spans
                .iter()
                .filter(|s| s.worker == w)
                .filter_map(|s| Some((s.started_at, s.completed_at?)))
                .collect();
            if intervals.is_empty() {
                continue;
            }
            let name = device(w);
            for i in 0..60 {
                let t = i as f64 * dt;
                println!(
                    "{},{},{:.5},{:.4}",
                    algo.label(),
                    name,
                    t,
                    coverage(&intervals, t, dt)
                );
            }
        }

        let totals = analyze(&trace).workers;
        let fmt = |kind: WorkerKind| {
            let (busy, n): (f64, usize) = totals
                .iter()
                .filter(|u| r.workers.get(u.worker as usize).map(|s| s.kind) == Some(kind))
                .map(|u| u.utilization)
                .fold((0.0, 0), |(s, n), f| (s + f, n + 1));
            if n > 0 {
                100.0 * busy / n as f64
            } else {
                0.0
            }
        };
        eprintln!(
            "{:24} {:5} events ({} dropped) | mean CPU util {:4.1}% | mean GPU util {:4.1}%",
            algo.label(),
            trace.len(),
            trace.total_dropped(),
            fmt(WorkerKind::Cpu),
            fmt(WorkerKind::Gpu)
        );
    }
}
