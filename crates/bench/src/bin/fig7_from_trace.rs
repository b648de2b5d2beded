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
//! summary of total busy fractions from [`hetero_trace::utilization`].

use hetero_bench::Harness;
use hetero_core::{AlgorithmKind, WorkerKind};
use hetero_data::PaperDataset;
use hetero_trace::{utilization::utilization, EventKind, COORDINATOR};

/// Busy intervals per worker, reconstructed from dispatch/completion pairs.
fn busy_intervals(trace: &hetero_trace::Trace) -> Vec<(u32, Vec<(f64, f64)>)> {
    let mut pending: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    let mut spans: std::collections::HashMap<u32, Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    for event in trace.events_sorted() {
        if event.worker == COORDINATOR {
            continue;
        }
        match event.kind {
            EventKind::BatchDispatched { .. } | EventKind::BatchStarted { .. } => {
                pending.insert(event.worker, event.t);
            }
            EventKind::BatchCompleted { .. } => {
                if let Some(t0) = pending.remove(&event.worker) {
                    spans.entry(event.worker).or_default().push((t0, event.t));
                }
            }
            _ => {}
        }
    }
    let mut out: Vec<_> = spans.into_iter().collect();
    out.sort_by_key(|(w, _)| *w);
    out
}

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
    let h = Harness::default();
    let p = PaperDataset::Covtype;
    let dataset = h.dataset(p);
    eprintln!(
        "fig7_from_trace: covtype scale={} width={} budget={}s virtual",
        h.scale, h.width, h.budget
    );

    println!("algorithm,device,time_s,utilization");
    for algo in [
        AlgorithmKind::HogbatchCpu,
        AlgorithmKind::MiniBatchGpu,
        AlgorithmKind::CpuGpuHogbatch,
        AlgorithmKind::AdaptiveHogbatch,
    ] {
        let (r, trace) = h.run_on_traced(p, &dataset, algo);
        let device = |w: u32| match r.workers.get(w as usize).map(|s| s.kind) {
            Some(WorkerKind::Cpu) => "cpu".to_string(),
            Some(WorkerKind::Gpu) => format!("gpu{w}"),
            None => format!("w{w}"),
        };

        let horizon = trace
            .events_sorted()
            .last()
            .map(|e| e.t)
            .unwrap_or(h.budget)
            .max(1e-9);
        let dt = horizon / 60.0;
        for (w, intervals) in busy_intervals(&trace) {
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

        let totals = utilization(&trace);
        let fmt = |kind: WorkerKind| {
            let (busy, n): (f64, usize) = totals
                .iter()
                .filter(|u| r.workers.get(u.worker as usize).map(|s| s.kind) == Some(kind))
                .map(|u| u.busy_fraction)
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
