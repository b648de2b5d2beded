//! Live TTY dashboard: per-worker throughput, batch sizes, staleness
//! quantiles, and utilization bars, rendered as an in-place-refreshing
//! text frame.
//!
//! The engines publish per-worker live gauges under the naming contract
//! documented on [`DashboardFrame::collect`]; the dashboard is a pure
//! reader — it snapshots the sink's gauge registry and the hub's
//! histograms, derives rates by diffing against the previous frame, and
//! renders a string. `examples/dashboard_run.rs` drives it on a timer.

use crate::hub::{HubSnapshot, Metric, MetricsHub};
use hetero_trace::TraceSink;
use std::fmt::Write as _;

/// One worker's row in a frame.
#[derive(Debug, Clone)]
pub struct WorkerRow {
    /// Worker index (CPU socket first, then GPUs — engine order).
    pub worker: u32,
    /// `"cpu"` or `"gpu"` (from the `worker.<w>.kind` gauge; 0 = CPU).
    pub kind: &'static str,
    /// Credited updates so far (`t·β` for CPU batches).
    pub updates: f64,
    /// Current batch size (shows Algorithm 2's doubling/halving live).
    pub batch: usize,
    /// Examples processed so far.
    pub examples: f64,
    /// Cumulative busy seconds (drives the utilization bar).
    pub busy_secs: f64,
    /// Median gradient staleness (foreign updates between read and merge).
    pub staleness_p50: f64,
    /// 99th-percentile gradient staleness.
    pub staleness_p99: f64,
}

/// Everything one dashboard refresh shows.
#[derive(Debug, Clone, Default)]
pub struct DashboardFrame {
    /// Seconds since the run started (caller's clock).
    pub elapsed: f64,
    /// Latest evaluated loss (`engine.loss` gauge; NaN until first eval).
    pub loss: f64,
    /// Fractional epochs completed (`engine.epochs` gauge).
    pub epochs: f64,
    /// Input density of the training batches (`engine.sparse_density`
    /// gauge), published by runs on the sparse execution path.
    pub sparse_density: Option<f64>,
    /// Layer-0 rows the sparse merge skipped so far
    /// (`engine.sparse_rows_skipped` counter).
    pub sparse_rows_skipped: Option<u64>,
    /// Median layer-0 columns touched per sparse merge/apply
    /// ([`Metric::RowsTouched`], merged across workers).
    pub rows_touched_p50: Option<f64>,
    /// 99th-percentile layer-0 columns touched per sparse merge/apply.
    pub rows_touched_p99: Option<f64>,
    /// Per-worker rows, sorted by worker index.
    pub rows: Vec<WorkerRow>,
}

impl DashboardFrame {
    /// Snapshot the sink's gauges and the hub's histograms into a frame.
    ///
    /// Gauge naming contract (what the engines publish when a sink is
    /// attached): `worker.<w>.kind` (0 = CPU, 1 = GPU), `worker.<w>.updates`,
    /// `worker.<w>.batch`, `worker.<w>.examples`, `worker.<w>.busy_secs`,
    /// plus run-level `engine.loss`, `engine.epochs`, and (sparse runs)
    /// `engine.sparse_density` plus the `engine.sparse_rows_skipped`
    /// counter. Staleness quantiles come from the hub's
    /// [`Metric::Staleness`] series; rows-touched quantiles from the merged
    /// [`Metric::RowsTouched`] series.
    pub fn collect(sink: &TraceSink, hub: &MetricsHub, elapsed: f64) -> DashboardFrame {
        let typed = sink.snapshot_typed();
        let hub_snap = hub.snapshot();
        let mut frame = DashboardFrame {
            elapsed,
            loss: f64::NAN,
            epochs: 0.0,
            sparse_density: None,
            sparse_rows_skipped: None,
            rows_touched_p50: None,
            rows_touched_p99: None,
            rows: Vec::new(),
        };
        for (name, value) in &typed.counters {
            if name == "engine.sparse_rows_skipped" {
                frame.sparse_rows_skipped = Some(*value);
            }
        }
        if let Some(rows) = hub_snap.merged(Metric::RowsTouched) {
            if rows.count() > 0 {
                frame.rows_touched_p50 = Some(rows.quantile(0.5) as f64);
                frame.rows_touched_p99 = Some(rows.quantile(0.99) as f64);
            }
        }
        let row = |frame: &mut DashboardFrame, w: u32| -> usize {
            match frame.rows.iter().position(|r| r.worker == w) {
                Some(i) => i,
                None => {
                    frame.rows.push(WorkerRow {
                        worker: w,
                        kind: "cpu",
                        updates: 0.0,
                        batch: 0,
                        examples: 0.0,
                        busy_secs: 0.0,
                        staleness_p50: 0.0,
                        staleness_p99: 0.0,
                    });
                    frame.rows.len() - 1
                }
            }
        };
        for (name, value) in &typed.gauges {
            let parts: Vec<&str> = name.split('.').collect();
            match parts.as_slice() {
                ["engine", "loss"] => frame.loss = *value,
                ["engine", "epochs"] => frame.epochs = *value,
                ["engine", "sparse_density"] => frame.sparse_density = Some(*value),
                ["worker", w, field] => {
                    let Ok(w) = w.parse::<u32>() else { continue };
                    let i = row(&mut frame, w);
                    match *field {
                        "kind" => frame.rows[i].kind = if *value >= 1.0 { "gpu" } else { "cpu" },
                        "updates" => frame.rows[i].updates = *value,
                        "batch" => frame.rows[i].batch = *value as usize,
                        "examples" => frame.rows[i].examples = *value,
                        "busy_secs" => frame.rows[i].busy_secs = *value,
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        frame.attach_staleness(&hub_snap);
        frame.rows.sort_by_key(|r| r.worker);
        frame
    }

    fn attach_staleness(&mut self, hub: &HubSnapshot) {
        for r in &mut self.rows {
            if let Some(s) = hub.series_for(Metric::Staleness, r.worker) {
                if s.count() > 0 {
                    r.staleness_p50 = s.quantile(0.5) as f64;
                    r.staleness_p99 = s.quantile(0.99) as f64;
                }
            }
        }
    }
}

fn bar(frac: f64, width: usize) -> String {
    let frac = if frac.is_finite() {
        frac.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let filled = (frac * width as f64).round() as usize;
    let mut s = String::with_capacity(width * 3);
    for i in 0..width {
        s.push(if i < filled { '█' } else { '·' });
    }
    s
}

/// Render a frame as text. `prev` (the previously rendered frame) enables
/// instantaneous updates/s; without it rates are cumulative averages.
/// With `ansi`, the frame repaints in place: cursor-home prefix,
/// clear-to-end-of-line on every row, clear-below at the end — print it
/// to a raw terminal and the dashboard refreshes without scrolling.
pub fn render_dashboard(
    frame: &DashboardFrame,
    prev: Option<&DashboardFrame>,
    ansi: bool,
) -> String {
    let (eol, mut out) = if ansi {
        ("\x1b[K", String::from("\x1b[H"))
    } else {
        ("", String::new())
    };
    let mut density = frame
        .sparse_density
        .map_or(String::new(), |d| format!("  sparse {:.3}%", 100.0 * d));
    if let Some(skipped) = frame.sparse_rows_skipped {
        let _ = write!(density, "  rows-skipped {skipped}");
    }
    if let (Some(p50), Some(p99)) = (frame.rows_touched_p50, frame.rows_touched_p99) {
        let _ = write!(density, "  rows 50/99 {p50:.0}/{p99:.0}");
    }
    let loss = if frame.loss.is_finite() {
        format!("{:.4}", frame.loss)
    } else {
        "—".to_string()
    };
    let _ = writeln!(
        out,
        "hetero-scope · t={:7.2}s  loss {loss}  epochs {:.2}{density}{eol}",
        frame.elapsed, frame.epochs
    );
    let _ = writeln!(
        out,
        "{:>3} {:<4} {:>12} {:>9} {:>7} {:>11} {:>13}  {:<22}{eol}",
        "w", "kind", "updates", "up/s", "batch", "examples", "stale 50/99", "utilization"
    );
    let total_updates: f64 = frame.rows.iter().map(|r| r.updates).sum();
    for r in &frame.rows {
        let prev_row = prev.and_then(|p| p.rows.iter().find(|pr| pr.worker == r.worker));
        let rate = match (prev, prev_row) {
            (Some(p), Some(pr)) if frame.elapsed > p.elapsed => {
                (r.updates - pr.updates) / (frame.elapsed - p.elapsed)
            }
            _ if frame.elapsed > 0.0 => r.updates / frame.elapsed,
            _ => 0.0,
        };
        let util = if frame.elapsed > 0.0 {
            r.busy_secs / frame.elapsed
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:>3} {:<4} {:>12.1} {:>9.1} {:>7} {:>11.0} {:>6.1}/{:<6.1}  [{}] {:>3.0}%{eol}",
            r.worker,
            r.kind,
            r.updates,
            rate.max(0.0),
            r.batch,
            r.examples,
            r.staleness_p50,
            r.staleness_p99,
            bar(util, 16),
            100.0 * util.clamp(0.0, 1.0)
        );
    }
    let _ = writeln!(
        out,
        "total credited updates {total_updates:.1} across {} workers{eol}",
        frame.rows.len()
    );
    if ansi {
        out.push_str("\x1b[J");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_trace::DEFAULT_RING_CAPACITY;

    #[test]
    fn collect_parses_the_gauge_contract() {
        let sink = TraceSink::wall(DEFAULT_RING_CAPACITY);
        sink.gauge("engine.loss").set(0.75);
        sink.gauge("engine.epochs").set(1.5);
        sink.gauge("engine.sparse_density").set(0.0025);
        sink.counter("engine.sparse_rows_skipped").add(4200);
        sink.gauge("worker.0.kind").set(0.0);
        sink.gauge("worker.0.updates").set(100.0);
        sink.gauge("worker.0.batch").set(56.0);
        sink.gauge("worker.0.examples").set(5600.0);
        sink.gauge("worker.0.busy_secs").set(0.5);
        sink.gauge("worker.1.kind").set(1.0);
        sink.gauge("worker.1.updates").set(10.0);
        let hub = MetricsHub::new();
        let h = hub.histogram(Metric::Staleness, 1);
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        let rows = hub.histogram(Metric::RowsTouched, 0);
        for v in [10u64, 12, 14, 300] {
            rows.record(v);
        }
        let frame = DashboardFrame::collect(&sink, &hub, 1.0);
        assert_eq!(frame.loss, 0.75);
        assert_eq!(frame.sparse_density, Some(0.0025));
        assert_eq!(frame.sparse_rows_skipped, Some(4200));
        let (p50, p99) = (
            frame.rows_touched_p50.expect("rows-touched series recorded"),
            frame.rows_touched_p99.expect("rows-touched series recorded"),
        );
        assert!(p50 >= 10.0 && p99 >= p50, "p50 {p50} p99 {p99}");
        assert_eq!(frame.rows.len(), 2);
        assert_eq!(frame.rows[0].kind, "cpu");
        assert_eq!(frame.rows[0].batch, 56);
        assert_eq!(frame.rows[1].kind, "gpu");
        assert!(frame.rows[1].staleness_p99 >= frame.rows[1].staleness_p50);
        assert!(frame.rows[1].staleness_p50 >= 1.0);
    }

    #[test]
    fn render_is_stable_and_refreshable() {
        let mut frame = DashboardFrame {
            elapsed: 2.0,
            loss: 0.5,
            epochs: 0.8,
            sparse_density: Some(0.0025),
            sparse_rows_skipped: Some(4200),
            rows_touched_p50: Some(12.0),
            rows_touched_p99: Some(300.0),
            rows: vec![WorkerRow {
                worker: 0,
                kind: "cpu",
                updates: 200.0,
                batch: 64,
                examples: 12800.0,
                busy_secs: 1.0,
                staleness_p50: 1.0,
                staleness_p99: 4.0,
            }],
        };
        let plain = render_dashboard(&frame, None, false);
        assert!(plain.contains("sparse 0.250%"));
        assert!(plain.contains("rows-skipped 4200"));
        assert!(plain.contains("rows 50/99 12/300"));
        assert!(plain.contains("cpu"));
        assert!(!plain.contains('\x1b'));
        let prev = frame.clone();
        frame.elapsed = 3.0;
        frame.rows[0].updates = 500.0;
        let ansi = render_dashboard(&frame, Some(&prev), true);
        assert!(ansi.starts_with("\x1b[H"));
        assert!(ansi.ends_with("\x1b[J"));
        // Instantaneous rate: (500-200)/(3-2) = 300/s.
        assert!(ansi.contains("300.0"));
    }
}
