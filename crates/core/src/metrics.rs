//! Training metrics: loss curves, update distributions, utilization.
//!
//! Everything the paper's figures plot comes out of [`TrainResult`]:
//! Figure 5 uses `loss_curve` against time, Figure 6 against epochs,
//! Figure 7 the per-worker utilization timelines, Figure 8 the per-worker
//! update counts.

use hetero_metrics::Summary;
use hetero_sim::UtilizationTimeline;
use serde::{Deserialize, Serialize};

/// One point on the loss curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossPoint {
    /// Seconds since training started (virtual or wall, engine-dependent).
    pub time: f64,
    /// Fractional epochs elapsed (examples served / dataset size).
    pub epochs: f64,
    /// Full/subsampled training loss at this instant.
    pub loss: f32,
    /// Classification accuracy on the evaluation subset (argmax match for
    /// single-label, precision@1 for multi-label).
    pub accuracy: f32,
}

/// What hardware a worker drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerKind {
    /// CPU-socket worker performing Hogwild/Hogbatch updates.
    Cpu,
    /// GPU worker with a deep-copy replica.
    Gpu,
}

/// Serializable digest of a [`UtilizationTimeline`].
///
/// The raw timeline (every busy interval) is `#[serde(skip)]`ped on
/// [`WorkerStats`] — it can hold millions of segments — so serialized
/// `TrainResult`s used to silently lose all utilization data. This summary
/// is what `results/*.json` keeps instead, enough to round-trip the
/// Figure 7 per-worker utilization inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimelineSummary {
    /// Total busy seconds across all recorded intervals.
    pub busy_secs: f64,
    /// End of the last recorded interval (seconds since run start).
    pub horizon: f64,
    /// `busy_secs / horizon` (0 when nothing was recorded).
    pub busy_fraction: f64,
    /// Number of recorded busy intervals.
    pub intervals: u64,
}

impl TimelineSummary {
    /// Digest a timeline.
    pub fn from_timeline(timeline: &UtilizationTimeline) -> Self {
        let busy_secs = timeline.busy_time();
        let horizon = timeline.horizon();
        TimelineSummary {
            busy_secs,
            horizon,
            busy_fraction: if horizon > 0.0 {
                busy_secs / horizon
            } else {
                0.0
            },
            intervals: timeline.segments().len() as u64,
        }
    }
}

/// Per-worker accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Device class.
    pub kind: WorkerKind,
    /// Model updates credited to this worker (CPU batches count `t·β`).
    pub updates: f64,
    /// Batches processed.
    pub batches: u64,
    /// Examples processed.
    pub examples: u64,
    /// Final batch size when training stopped (shows adaptation).
    pub final_batch: usize,
    /// Why this worker was quarantined mid-run, if it was (`"oom"`,
    /// `"panic"`, `"disconnected"`, or an injected-fault description).
    /// `None` for a worker that survived to the end.
    pub retired: Option<String>,
    /// Busy-interval record for utilization plots.
    #[serde(skip)]
    pub timeline: UtilizationTimeline,
    /// Serialized digest of `timeline` (busy fraction + interval count);
    /// what survives a `results/*.json` round trip. The engines fill it in
    /// via [`WorkerStats::summarize_timeline`] before returning.
    pub timeline_summary: TimelineSummary,
}

impl WorkerStats {
    /// Fresh stats for a worker of the given kind.
    pub fn new(kind: WorkerKind) -> Self {
        WorkerStats {
            kind,
            updates: 0.0,
            batches: 0,
            examples: 0,
            final_batch: 0,
            retired: None,
            timeline: UtilizationTimeline::new(),
            timeline_summary: TimelineSummary::default(),
        }
    }

    /// Refresh `timeline_summary` from the current raw timeline.
    pub fn summarize_timeline(&mut self) {
        self.timeline_summary = TimelineSummary::from_timeline(&self.timeline);
    }
}

/// Complete record of one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainResult {
    /// Algorithm label (paper naming).
    pub algorithm: String,
    /// Dataset name.
    pub dataset: String,
    /// Loss samples over the run (always ≥ 1: the initial loss).
    pub loss_curve: Vec<LossPoint>,
    /// Per-worker accounting, CPU first then GPUs.
    pub workers: Vec<WorkerStats>,
    /// Total run duration (seconds) on the engine's clock, which starts
    /// after run start-up (model initialisation and, on a sparse run, the
    /// CSR compression): a caller timing `run()` sees `duration` plus the
    /// `engine.startup_s` gauge.
    pub duration: f64,
    /// Fractional epochs completed.
    pub epochs: f64,
    /// Path of the exported trace file, when the caller ran with tracing
    /// attached and wrote one (e.g. `hetero-train --trace`).
    pub trace_path: Option<String>,
    /// Batch ranges that were dispatched, lost to a worker fault, and
    /// re-queued to a surviving worker. Zero on a fault-free run.
    pub requeued_batches: u64,
    /// Set when training could not run to its budget — e.g. every worker
    /// was retired by faults. The run still returns whatever progress was
    /// made; this records why it stopped short.
    pub aborted: Option<String>,
    /// Distribution of per-update gradient staleness (model versions
    /// applied between an update's read and its merge). `None` when the
    /// run had no metrics hub attached.
    pub staleness: Option<Summary>,
    /// Training-health record from the `hetero-flight` watchdog: NaN/Inf
    /// events, peak per-layer gradient norms, divergence/stall flags, and
    /// the postmortem bundle path when one was dumped. `None` when the run
    /// had no flight recorder attached.
    pub health: Option<hetero_flight::HealthSummary>,
}

impl TrainResult {
    /// The smallest loss observed.
    pub fn min_loss(&self) -> f32 {
        self.loss_curve
            .iter()
            .map(|p| p.loss)
            .fold(f32::INFINITY, f32::min)
    }

    /// The last loss observed.
    pub fn final_loss(&self) -> f32 {
        self.loss_curve.last().map_or(f32::INFINITY, |p| p.loss)
    }

    /// The initial loss.
    pub fn initial_loss(&self) -> f32 {
        self.loss_curve.first().map_or(f32::INFINITY, |p| p.loss)
    }

    /// Earliest time at which the loss reached `target` (the paper's
    /// "time to convergence" metric — which algorithm reaches a given
    /// normalized loss first). `None` if never reached.
    pub fn time_to_loss(&self, target: f32) -> Option<f64> {
        self.loss_curve
            .iter()
            .find(|p| p.loss <= target)
            .map(|p| p.time)
    }

    /// Earliest epoch count at which the loss reached `target`
    /// (statistical efficiency, Figure 6).
    pub fn epochs_to_loss(&self, target: f32) -> Option<f64> {
        self.loss_curve
            .iter()
            .find(|p| p.loss <= target)
            .map(|p| p.epochs)
    }

    /// Total updates across workers.
    pub fn total_updates(&self) -> f64 {
        self.workers.iter().map(|w| w.updates).sum()
    }

    /// Fraction of updates performed by CPU workers (Figure 8).
    pub fn cpu_update_fraction(&self) -> f64 {
        let total = self.total_updates();
        if total == 0.0 {
            return 0.0;
        }
        let cpu: f64 = self
            .workers
            .iter()
            .filter(|w| w.kind == WorkerKind::Cpu)
            .map(|w| w.updates)
            .sum();
        cpu / total
    }

    /// Loss curve normalized by a basis (the paper normalizes every curve
    /// to the minimum loss across all algorithms).
    pub fn normalized_curve(&self, basis: f32) -> Vec<LossPoint> {
        assert!(basis > 0.0, "normalization basis must be positive");
        self.loss_curve
            .iter()
            .map(|p| LossPoint {
                time: p.time,
                epochs: p.epochs,
                loss: p.loss / basis,
                accuracy: p.accuracy,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> TrainResult {
        TrainResult {
            algorithm: "test".into(),
            dataset: "toy".into(),
            loss_curve: vec![
                LossPoint {
                    time: 0.0,
                    epochs: 0.0,
                    loss: 1.0,
                    accuracy: 0.0,
                },
                LossPoint {
                    time: 1.0,
                    epochs: 0.5,
                    loss: 0.6,
                    accuracy: 0.0,
                },
                LossPoint {
                    time: 2.0,
                    epochs: 1.0,
                    loss: 0.4,
                    accuracy: 0.0,
                },
                LossPoint {
                    time: 3.0,
                    epochs: 1.5,
                    loss: 0.45,
                    accuracy: 0.0,
                },
            ],
            workers: vec![
                WorkerStats {
                    kind: WorkerKind::Cpu,
                    updates: 300.0,
                    batches: 10,
                    examples: 560,
                    final_batch: 56,
                    retired: None,
                    timeline: UtilizationTimeline::new(),
                    timeline_summary: TimelineSummary::default(),
                },
                WorkerStats {
                    kind: WorkerKind::Gpu,
                    updates: 100.0,
                    batches: 100,
                    examples: 819_200,
                    final_batch: 8192,
                    retired: None,
                    timeline: UtilizationTimeline::new(),
                    timeline_summary: TimelineSummary::default(),
                },
            ],
            duration: 3.0,
            epochs: 1.5,
            trace_path: None,
            requeued_batches: 0,
            aborted: None,
            staleness: None,
            health: None,
        }
    }

    #[test]
    fn loss_summaries() {
        let r = result();
        assert_eq!(r.initial_loss(), 1.0);
        assert_eq!(r.min_loss(), 0.4);
        assert_eq!(r.final_loss(), 0.45);
    }

    #[test]
    fn time_and_epochs_to_loss() {
        let r = result();
        assert_eq!(r.time_to_loss(0.6), Some(1.0));
        assert_eq!(r.time_to_loss(0.41), Some(2.0));
        assert_eq!(r.time_to_loss(0.1), None);
        assert_eq!(r.epochs_to_loss(0.6), Some(0.5));
    }

    #[test]
    fn update_distribution() {
        let r = result();
        assert_eq!(r.total_updates(), 400.0);
        assert!((r.cpu_update_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let r = result();
        let n = r.normalized_curve(0.4);
        assert!((n[0].loss - 2.5).abs() < 1e-6);
        assert!((n[2].loss - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "basis")]
    fn zero_basis_panics() {
        result().normalized_curve(0.0);
    }

    #[test]
    fn empty_result_edge_cases() {
        let r = TrainResult {
            algorithm: "x".into(),
            dataset: "y".into(),
            loss_curve: vec![],
            workers: vec![],
            duration: 0.0,
            epochs: 0.0,
            trace_path: None,
            requeued_batches: 0,
            aborted: None,
            staleness: None,
            health: None,
        };
        assert_eq!(r.min_loss(), f32::INFINITY);
        assert_eq!(r.cpu_update_fraction(), 0.0);
        assert_eq!(r.time_to_loss(1.0), None);
    }

    #[test]
    fn timeline_summary_survives_serde_roundtrip() {
        let mut r = result();
        let w = &mut r.workers[0];
        w.timeline.record(0.0, 1.0, 1.0);
        w.timeline.record(2.0, 3.0, 1.0);
        w.summarize_timeline();
        assert_eq!(w.timeline_summary.intervals, 2);
        assert!((w.timeline_summary.busy_secs - 2.0).abs() < 1e-12);
        assert!((w.timeline_summary.horizon - 3.0).abs() < 1e-12);
        assert!((w.timeline_summary.busy_fraction - 2.0 / 3.0).abs() < 1e-12);

        let json = serde_json::to_string(&r).expect("serialize");
        let back: TrainResult = serde_json::from_str(&json).expect("deserialize");
        // The raw timeline is skipped, but its digest round-trips.
        assert!(back.workers[0].timeline.segments().is_empty());
        assert_eq!(
            back.workers[0].timeline_summary,
            r.workers[0].timeline_summary
        );
    }

    #[test]
    fn new_fields_tolerate_missing_keys() {
        // Results written before staleness existed must still load: the
        // serde shim maps missing keys to `None` for Options.
        let json = serde_json::to_string(&result()).expect("serialize");
        let back: TrainResult = serde_json::from_str(&json).expect("deserialize");
        assert!(back.staleness.is_none());
    }
}
