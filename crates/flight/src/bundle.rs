//! The postmortem bundle: one self-contained JSON document holding
//! everything needed to diagnose a dead run, plus the human-readable
//! report renderer behind the `hetero-postmortem` binary.

use hetero_trace::{Summary, Trace};
use serde::{Deserialize, Serialize};

use crate::policy::HealthSummary;
use crate::recorder::{HealthSnapshot, Provenance};

/// Bundle schema identifier; bump on incompatible layout changes.
pub const SCHEMA: &str = "hetero-postmortem/v1";

/// Merged histogram summary for one metric at dump time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    /// Stable metric name (see `hetero_trace::Metric::name`).
    pub metric: String,
    /// Merged summary across all workers.
    pub summary: Summary,
}

/// A self-contained postmortem: provenance, health record, retained
/// snapshots, counters, metric summaries, and the full retained trace
/// (re-exportable as a Perfetto-loadable Chrome trace).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PostmortemBundle {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Why the bundle was dumped.
    pub reason: String,
    /// Newest crash-consistent checkpoint the dead run can be resumed
    /// from, when the engine ran with checkpointing on.
    pub resumable_from: Option<String>,
    /// Run provenance, when the engine recorded it.
    pub provenance: Option<Provenance>,
    /// The watchdog's accumulated health record.
    pub health: HealthSummary,
    /// Retained periodic snapshots, oldest → newest.
    pub snapshots: Vec<HealthSnapshot>,
    /// Trace counters and gauges at dump time (flattened to f64).
    pub counters: Vec<(String, f64)>,
    /// Merged histogram summaries from the run's sink.
    pub metrics: Vec<MetricRow>,
    /// Critical-path phase attribution of the retained trace window
    /// (`hetero_trace::analyze`), computed at dump time so the report can
    /// say where the dead run's wall-clock went without re-analysis.
    /// `None` when the retained window held no events (or for bundles
    /// written before the field existed — it deserializes as absent).
    pub phase_profile: Option<hetero_trace::analyze::PhaseProfile>,
    /// The retained event window (serde-roundtrips, so
    /// `hetero_trace::export::write_chrome` can re-export it).
    pub trace: Trace,
}

impl PostmortemBundle {
    /// Parse a bundle from JSON, checking the schema tag.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let bundle: PostmortemBundle =
            serde_json::from_str(text).map_err(|e| format!("bundle parse error: {e:?}"))?;
        if bundle.schema != SCHEMA {
            return Err(format!(
                "unsupported bundle schema {:?} (expected {SCHEMA:?})",
                bundle.schema
            ));
        }
        Ok(bundle)
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.4}")).unwrap_or_else(|| "-".into())
}

/// Render a bundle as the human-readable report `hetero-postmortem`
/// prints.
pub fn render_report(b: &PostmortemBundle) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!("postmortem bundle ({})", b.schema));
    line(format!("reason: {}", b.reason));
    if let Some(p) = &b.resumable_from {
        line(format!("resumable from: {p}"));
    }
    line(String::new());
    if let Some(p) = &b.provenance {
        line("provenance:".into());
        line(format!("  engine:     {}", p.engine));
        line(format!("  algorithm:  {}", p.algorithm));
        line(format!("  dataset:    {}", p.dataset));
        line(format!("  workers:    {}", p.workers));
        line(format!("  simd:       {}", p.simd_level));
        line(format!(
            "  git sha:    {}",
            p.git_sha.as_deref().unwrap_or("-")
        ));
        line(String::new());
    }
    let h = &b.health;
    line("health:".into());
    line(format!("  non-finite events: {}", h.nonfinite_events));
    if let Some(f) = &h.first_nonfinite {
        line(format!(
            "  first non-finite:  worker {}, layer {}, step {}",
            f.worker, f.layer, f.step
        ));
    }
    line(format!(
        "  peak grad norm:    {:.6}{}",
        h.peak_grad_norm,
        h.peak_grad_layer
            .map(|l| format!(" (layer {l})"))
            .unwrap_or_default()
    ));
    line(format!(
        "  diverged: {}  stalled: {}  warnings: {}  clamps: {}",
        h.diverged, h.stalled, h.warnings, h.clamps
    ));
    if let Some(t) = &h.tripped {
        line(format!("  tripped:  {t}"));
    }
    line(String::new());
    if !b.snapshots.is_empty() {
        line(format!("snapshots ({} retained):", b.snapshots.len()));
        line("  t          loss       epochs    stale-p50  stale-p99  batches".into());
        for s in &b.snapshots {
            line(format!(
                "  {:<10.4} {:<10.4} {:<9.3} {:<10} {:<10} {:?}",
                s.t,
                s.loss,
                s.epochs,
                fmt_opt(s.staleness_p50),
                fmt_opt(s.staleness_p99),
                s.batches
            ));
        }
        line(String::new());
    }
    if !b.metrics.is_empty() {
        line("metrics (merged across workers):".into());
        for m in &b.metrics {
            line(format!(
                "  {:<16} count {:<8} mean {:<12.4} p50 {:<12.4} p99 {:<12.4} max {:.4}",
                m.metric,
                m.summary.count,
                m.summary.mean,
                m.summary.p50,
                m.summary.p99,
                m.summary.max
            ));
        }
        line(String::new());
    }
    if !b.counters.is_empty() {
        line("counters:".into());
        for (k, v) in &b.counters {
            line(format!("  {k:<40} {v}"));
        }
        line(String::new());
    }
    if let Some(p) = &b.phase_profile {
        line("critical-path phases (retained window):".into());
        let total = p.total().max(1e-12);
        for (name, secs) in p.named() {
            if secs > 0.0 {
                line(format!(
                    "  {name:<12} {secs:>10.4}s  ({:.1}%)",
                    secs / total * 100.0
                ));
            }
        }
        line(String::new());
    }
    line(format!(
        "trace: {} events in {} shard(s), {} dropped ({} time)",
        b.trace.len(),
        b.trace.shards.len(),
        b.trace.total_dropped(),
        b.trace.domain.label()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NonfiniteRecord;
    use hetero_trace::{EventKind, TraceSink};

    fn sample() -> PostmortemBundle {
        let sink = TraceSink::wall(16);
        sink.emit(0, EventKind::EvalPoint { loss: 0.4 });
        PostmortemBundle {
            schema: SCHEMA.to_string(),
            reason: "worker retirement".into(),
            resumable_from: Some("results/ckpt/gen-0000000042.ckpt".into()),
            provenance: Some(Provenance {
                engine: "threaded".into(),
                algorithm: "CPU+GPU Hogbatch".into(),
                dataset: "synthetic".into(),
                workers: 2,
                config_json: "{}".into(),
                git_sha: Some("abc1234".into()),
                simd_level: "Avx2".into(),
            }),
            health: HealthSummary {
                nonfinite_events: 1,
                peak_grad_norm: 2.5,
                peak_grad_layer: Some(0),
                layer_peak_norms: vec![2.5, 0.3],
                first_nonfinite: Some(NonfiniteRecord {
                    worker: 1,
                    layer: 0,
                    step: 3,
                }),
                tripped: Some("non-finite gradient".into()),
                ..HealthSummary::default()
            },
            snapshots: vec![HealthSnapshot {
                t: 0.5,
                loss: 0.7,
                epochs: 1.5,
                batches: vec![16, 64],
                staleness_p50: Some(2.0),
                staleness_p99: Some(9.0),
                grad_peak_norm: 2.5,
            }],
            counters: vec![("engine.requeues".into(), 1.0)],
            metrics: vec![],
            phase_profile: None,
            trace: sink.drain(),
        }
    }

    #[test]
    fn bundle_roundtrips_and_renders() {
        let b = sample();
        let json = serde_json::to_string_pretty(&b).unwrap();
        let back = PostmortemBundle::from_json(&json).unwrap();
        assert_eq!(back.reason, b.reason);
        assert_eq!(back.provenance, b.provenance);
        assert_eq!(back.health, b.health);
        assert_eq!(back.snapshots, b.snapshots);
        assert_eq!(back.counters, b.counters);
        assert_eq!(back.trace.len(), b.trace.len());
        assert_eq!(back.trace.events_sorted(), b.trace.events_sorted());
        let report = render_report(&back);
        assert!(report.contains("worker retirement"));
        assert!(report.contains("resumable from: results/ckpt/gen-0000000042.ckpt"));
        assert!(report.contains("worker 1, layer 0, step 3"));
        assert!(report.contains("CPU+GPU Hogbatch"));
        assert!(report.contains("1 events"));
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut b = sample();
        b.schema = "hetero-postmortem/v999".into();
        let json = serde_json::to_string(&b).unwrap();
        let err = PostmortemBundle::from_json(&json).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn embedded_trace_exports_to_chrome_json() {
        let b = sample();
        let chrome = hetero_trace::export::to_chrome_json(&b.trace);
        assert!(chrome.contains("traceEvents"));
    }
}
