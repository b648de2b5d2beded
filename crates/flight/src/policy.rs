//! Health policy: what the watchdog watches for and how it reacts.

use serde::{Deserialize, Serialize};

/// Reaction to a detected health condition, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthAction {
    /// Record the condition but take no action.
    Ignore,
    /// Count a warning (surfaced via trace events and the health summary).
    Warn,
    /// Clamp the `AdaptiveController`'s batch growth at its current sizes
    /// (stops the controller from feeding a sick run bigger batches).
    Clamp,
    /// Abort the run and dump a postmortem bundle.
    Abort,
}

/// Configurable mapping from health conditions to [`HealthAction`]s, plus
/// the detector thresholds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthPolicy {
    /// Reaction to a NaN/±Inf element in an applied gradient or merged
    /// delta. Default [`HealthAction::Abort`]: a poisoned shared model
    /// cannot recover.
    pub on_nonfinite: HealthAction,
    /// Reaction to loss divergence (eval loss exceeding
    /// `divergence_factor ×` the initial loss, or going non-finite).
    /// Default [`HealthAction::Warn`].
    pub on_divergence: HealthAction,
    /// Reaction to a stall (no new best loss for `stall_evals` consecutive
    /// eval points). Default [`HealthAction::Clamp`].
    pub on_stall: HealthAction,
    /// Divergence threshold as a multiple of the initial eval loss.
    pub divergence_factor: f64,
    /// Consecutive evals without a new best loss that count as a stall.
    pub stall_evals: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            on_nonfinite: HealthAction::Abort,
            on_divergence: HealthAction::Warn,
            on_stall: HealthAction::Clamp,
            divergence_factor: 4.0,
            stall_evals: 6,
        }
    }
}

/// Where the first non-finite element was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NonfiniteRecord {
    /// Worker slot that produced the poisoned gradient/delta.
    pub worker: u32,
    /// Model layer index containing the non-finite element.
    pub layer: usize,
    /// The worker's 0-based batch counter when it was observed.
    pub step: u64,
}

/// Serializable end-of-run health record carried on `TrainResult`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthSummary {
    /// Total NaN/±Inf elements observed across all scans.
    pub nonfinite_events: u64,
    /// Largest per-layer gradient/update L2 norm seen during the run.
    pub peak_grad_norm: f64,
    /// Layer index the peak norm belongs to (`None` if nothing was scanned).
    pub peak_grad_layer: Option<usize>,
    /// Peak L2 norm per layer, indexed by layer.
    pub layer_peak_norms: Vec<f64>,
    /// Whether the loss diverged past the policy threshold.
    pub diverged: bool,
    /// Whether the loss stalled past the policy threshold.
    pub stalled: bool,
    /// Warnings the policy recorded.
    pub warnings: u64,
    /// Controller clamps the policy triggered.
    pub clamps: u64,
    /// First non-finite observation, naming worker/layer/step.
    pub first_nonfinite: Option<NonfiniteRecord>,
    /// Why the watchdog aborted the run, if it did.
    pub tripped: Option<String>,
    /// Path of the postmortem bundle dumped for this run, if any.
    pub postmortem: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_escalates_sensibly() {
        let p = HealthPolicy::default();
        assert_eq!(p.on_nonfinite, HealthAction::Abort);
        assert_eq!(p.on_divergence, HealthAction::Warn);
        assert_eq!(p.on_stall, HealthAction::Clamp);
        assert!(p.divergence_factor > 1.0);
        assert!(p.stall_evals > 0);
    }

    #[test]
    fn summary_roundtrips_through_json() {
        let s = HealthSummary {
            nonfinite_events: 3,
            peak_grad_norm: 1.5,
            peak_grad_layer: Some(2),
            layer_peak_norms: vec![0.1, 0.2, 1.5],
            diverged: true,
            stalled: false,
            warnings: 1,
            clamps: 0,
            first_nonfinite: Some(NonfiniteRecord {
                worker: 4,
                layer: 2,
                step: 7,
            }),
            tripped: Some("non-finite gradient".into()),
            postmortem: Some("results/postmortem/x.json".into()),
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: HealthSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
