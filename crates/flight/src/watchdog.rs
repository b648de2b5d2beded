//! The training-health watchdog: lock-free accumulation of per-layer
//! gradient norms and NaN/±Inf counts from worker hot paths, plus loss
//! divergence/stall detection at eval points.
//!
//! Ordering discipline: every atomic here is a monitoring accumulator
//! (counts, f64-bit high-water marks, a one-way trip flag). No thread
//! reads one to establish happens-before with training data — the
//! coordinator polls them between batches and tolerates stale values — so
//! all accesses are `Relaxed`. The only cross-field invariant (trip
//! reason published before the flag) is protected by the `tripped_reason`
//! mutex, not by ordering.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use crate::policy::{HealthAction, HealthPolicy, HealthSummary, NonfiniteRecord};

/// Serializable snapshot of a watchdog's accumulated tallies, captured by
/// a checkpoint so a resumed run keeps its health history (warnings,
/// clamps, peak norms, loss-trend state) instead of starting amnesiac.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WatchdogState {
    /// NaN/±Inf elements observed so far.
    pub nonfinite: u64,
    /// Policy warnings issued.
    pub warnings: u64,
    /// Controller clamps performed.
    pub clamps: u64,
    /// First non-finite observation site, if any.
    pub first_nonfinite: Option<NonfiniteRecord>,
    /// Per-layer peak L2 gradient norms.
    pub layer_peaks: Vec<f64>,
    /// First eval loss seen (anchors divergence detection).
    pub eval_initial: Option<f64>,
    /// Best eval loss seen.
    pub eval_best: f64,
    /// Evals since the best (stall counter).
    pub evals_since_best: u32,
    /// Whether divergence was detected (and reacted to).
    pub diverged: bool,
    /// Whether a stall was detected (and reacted to).
    pub stalled: bool,
}

#[derive(Default)]
struct EvalState {
    initial: Option<f64>,
    best: f64,
    since_best: u32,
    diverged: bool,
    stalled: bool,
    divergence_reacted: bool,
    stall_reacted: bool,
}

struct WatchdogInner {
    policy: HealthPolicy,
    nonfinite: AtomicU64,
    warnings: AtomicU64,
    clamps: AtomicU64,
    clamp_requested: AtomicBool,
    tripped_flag: AtomicBool,
    tripped_reason: Mutex<Option<String>>,
    first_nonfinite: Mutex<Option<NonfiniteRecord>>,
    /// Per-layer peak L2 norm as f64 bits (norms are non-negative, so the
    /// bit patterns order the same way the values do).
    peaks: RwLock<Vec<AtomicU64>>,
    evals: Mutex<EvalState>,
}

/// Shared health monitor. Cheap to clone (an `Arc` — or nothing at all
/// when disabled); every method on a disabled watchdog is a no-op.
#[derive(Clone, Default)]
pub struct Watchdog {
    inner: Option<Arc<WatchdogInner>>,
}

impl Watchdog {
    /// A watchdog that observes nothing and never trips.
    pub fn disabled() -> Self {
        Watchdog::default()
    }

    /// An active watchdog enforcing `policy`.
    pub fn new(policy: HealthPolicy) -> Self {
        Watchdog {
            inner: Some(Arc::new(WatchdogInner {
                policy,
                nonfinite: AtomicU64::new(0),
                warnings: AtomicU64::new(0),
                clamps: AtomicU64::new(0),
                clamp_requested: AtomicBool::new(false),
                tripped_flag: AtomicBool::new(false),
                tripped_reason: Mutex::new(None),
                first_nonfinite: Mutex::new(None),
                peaks: RwLock::new(Vec::new()),
                evals: Mutex::new(EvalState::default()),
            })),
        }
    }

    /// Whether observations are recorded at all.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Size the per-layer peak-norm table. Engines call this once at
    /// startup; growing is idempotent and never shrinks.
    pub fn ensure_layers(&self, n: usize) {
        let Some(inner) = &self.inner else { return };
        let mut peaks = inner.peaks.write();
        while peaks.len() < n {
            peaks.push(AtomicU64::new(0));
        }
    }

    /// Record one per-layer scan result from a worker hot path: `sumsq` is
    /// the sum of squared finite elements of the applied gradient / merged
    /// delta for `layer`, `nonfinite` the NaN/±Inf count. `step` is the
    /// worker's 0-based batch counter (named in the postmortem when this
    /// observation trips the policy).
    pub fn observe_layer(&self, worker: u32, layer: usize, step: u64, sumsq: f64, nonfinite: u64) {
        let Some(inner) = &self.inner else { return };
        let norm = sumsq.sqrt();
        {
            let peaks = inner.peaks.read();
            if let Some(cell) = peaks.get(layer) {
                // Relaxed high-water mark (see module ordering note).
                let mut cur = cell.load(Ordering::Relaxed);
                while norm.to_bits() > cur {
                    match cell.compare_exchange_weak(
                        cur,
                        norm.to_bits(),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => cur = actual,
                    }
                }
            }
        }
        if nonfinite > 0 {
            // Relaxed count (see module ordering note).
            inner.nonfinite.fetch_add(nonfinite, Ordering::Relaxed);
            let mut first = inner.first_nonfinite.lock();
            if first.is_none() {
                *first = Some(NonfiniteRecord {
                    worker,
                    layer,
                    step,
                });
            }
            drop(first);
            let detail = format!(
                "non-finite gradient: worker {worker}, layer {layer}, step {step} \
                 ({nonfinite} element(s))"
            );
            self.react(inner.policy.on_nonfinite, &detail);
        }
    }

    /// Feed one eval-loss observation (coordinator only). Returns the
    /// action the policy selected for a *newly* detected condition —
    /// [`HealthAction::Clamp`] asks the caller to clamp its adaptive
    /// controller (and then call [`note_clamp`](Self::note_clamp)).
    pub fn observe_eval(&self, loss: f64) -> HealthAction {
        let Some(inner) = &self.inner else {
            return HealthAction::Ignore;
        };
        let mut ev = inner.evals.lock();
        let Some(initial) = ev.initial else {
            ev.initial = Some(loss);
            ev.best = loss;
            return HealthAction::Ignore;
        };
        if loss < ev.best {
            ev.best = loss;
            ev.since_best = 0;
        } else {
            ev.since_best += 1;
        }
        let diverged =
            !loss.is_finite() || (initial > 0.0 && loss > inner.policy.divergence_factor * initial);
        if diverged && !ev.divergence_reacted {
            ev.diverged = true;
            ev.divergence_reacted = true;
            drop(ev);
            let detail = format!(
                "loss divergence: eval loss {loss} vs initial {initial} \
                 (threshold ×{})",
                inner.policy.divergence_factor
            );
            return self.react(inner.policy.on_divergence, &detail);
        }
        if ev.since_best >= inner.policy.stall_evals && !ev.stall_reacted {
            ev.stalled = true;
            ev.stall_reacted = true;
            let since = ev.since_best;
            drop(ev);
            let detail = format!("loss stall: no new best for {since} consecutive evals");
            return self.react(inner.policy.on_stall, &detail);
        }
        HealthAction::Ignore
    }

    /// Apply `action` for `detail`, counting warnings / requesting clamps /
    /// tripping as the policy dictates, and echo the action back.
    fn react(&self, action: HealthAction, detail: &str) -> HealthAction {
        let Some(inner) = &self.inner else {
            return HealthAction::Ignore;
        };
        match action {
            HealthAction::Ignore => {}
            HealthAction::Warn => {
                // Relaxed count (see module ordering note).
                inner.warnings.fetch_add(1, Ordering::Relaxed);
            }
            HealthAction::Clamp => {
                // Relaxed request flag; the coordinator polls it.
                inner.clamp_requested.store(true, Ordering::Relaxed);
            }
            HealthAction::Abort => {
                let mut reason = inner.tripped_reason.lock();
                if reason.is_none() {
                    *reason = Some(detail.to_string());
                }
                drop(reason);
                // Relaxed one-way flag (see module ordering note).
                inner.tripped_flag.store(true, Ordering::Relaxed);
            }
        }
        action
    }

    /// Consume a pending clamp request raised from a worker hot path.
    /// Returns `true` at most once per request.
    pub fn take_clamp_request(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        // Relaxed swap: a lost race only delays the clamp one poll cycle.
        inner.clamp_requested.swap(false, Ordering::Relaxed)
    }

    /// Record that the caller performed a controller clamp.
    pub fn note_clamp(&self) {
        if let Some(inner) = &self.inner {
            // Relaxed count (see module ordering note).
            inner.clamps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Why the policy aborted the run, if it has.
    pub fn tripped(&self) -> Option<String> {
        let inner = self.inner.as_deref()?;
        // Relaxed fast-path check (see module ordering note).
        if !inner.tripped_flag.load(Ordering::Relaxed) {
            return None;
        }
        inner.tripped_reason.lock().clone()
    }

    /// Export the accumulated tallies for checkpointing. Returns the
    /// default (empty) state when disabled.
    pub fn export_state(&self) -> WatchdogState {
        let Some(inner) = &self.inner else {
            return WatchdogState::default();
        };
        let ev = inner.evals.lock();
        WatchdogState {
            // Relaxed loads of monitoring tallies (see module ordering note).
            nonfinite: inner.nonfinite.load(Ordering::Relaxed),
            warnings: inner.warnings.load(Ordering::Relaxed),
            clamps: inner.clamps.load(Ordering::Relaxed),
            first_nonfinite: *inner.first_nonfinite.lock(),
            layer_peaks: inner
                .peaks
                .read()
                .iter()
                .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
                .collect(),
            eval_initial: ev.initial,
            eval_best: ev.best,
            evals_since_best: ev.since_best,
            diverged: ev.diverged,
            stalled: ev.stalled,
        }
    }

    /// Restore tallies exported by [`export_state`](Self::export_state)
    /// into this (freshly created) watchdog. A resumed run therefore
    /// continues the same health record: divergence stays anchored to the
    /// original initial loss, and already-reacted conditions do not fire a
    /// second reaction. No-op when disabled.
    pub fn restore_state(&self, state: &WatchdogState) {
        let Some(inner) = &self.inner else { return };
        // Relaxed stores: restore happens before workers start (see module
        // ordering note).
        inner.nonfinite.store(state.nonfinite, Ordering::Relaxed);
        inner.warnings.store(state.warnings, Ordering::Relaxed);
        inner.clamps.store(state.clamps, Ordering::Relaxed);
        *inner.first_nonfinite.lock() = state.first_nonfinite;
        self.ensure_layers(state.layer_peaks.len());
        {
            let peaks = inner.peaks.read();
            for (cell, &peak) in peaks.iter().zip(&state.layer_peaks) {
                cell.store(peak.to_bits(), Ordering::Relaxed);
            }
        }
        let mut ev = inner.evals.lock();
        ev.initial = state.eval_initial;
        ev.best = state.eval_best;
        ev.since_best = state.evals_since_best;
        ev.diverged = state.diverged;
        ev.stalled = state.stalled;
        // A condition that already triggered its one-shot reaction before
        // the checkpoint must not react again after resume.
        ev.divergence_reacted = state.diverged;
        ev.stall_reacted = state.stalled;
    }

    /// Snapshot the accumulated health record (postmortem path unset —
    /// the flight recorder fills it after dumping).
    pub fn summary(&self) -> HealthSummary {
        let Some(inner) = &self.inner else {
            return HealthSummary::default();
        };
        let peaks: Vec<f64> = inner
            .peaks
            .read()
            .iter()
            // Relaxed reads of monitoring high-water marks.
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .collect();
        let peak =
            peaks
                .iter()
                .enumerate()
                .fold(None::<(usize, f64)>, |best, (i, &n)| match best {
                    Some((_, bn)) if bn >= n => best,
                    _ => Some((i, n)),
                });
        let ev = inner.evals.lock();
        // Relaxed loads throughout: these are monitoring tallies; a summary
        // taken mid-run may lag a worker by a batch, which is acceptable.
        HealthSummary {
            nonfinite_events: inner.nonfinite.load(Ordering::Relaxed),
            peak_grad_norm: peak.map(|(_, n)| n).unwrap_or(0.0),
            peak_grad_layer: peak.filter(|&(_, n)| n > 0.0).map(|(i, _)| i),
            layer_peak_norms: peaks,
            diverged: ev.diverged,
            stalled: ev.stalled,
            warnings: inner.warnings.load(Ordering::Relaxed),
            clamps: inner.clamps.load(Ordering::Relaxed),
            first_nonfinite: *inner.first_nonfinite.lock(),
            tripped: self.tripped(),
            postmortem: None,
        }
    }
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("enabled", &self.enabled())
            .field("tripped", &self.tripped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_watchdog_is_inert() {
        let w = Watchdog::disabled();
        w.ensure_layers(3);
        w.observe_layer(0, 0, 0, 1.0, 5);
        assert_eq!(w.observe_eval(1.0), HealthAction::Ignore);
        assert!(!w.enabled());
        assert_eq!(w.tripped(), None);
        assert_eq!(w.summary(), HealthSummary::default());
    }

    #[test]
    fn nonfinite_trips_abort_and_names_the_site() {
        let w = Watchdog::new(HealthPolicy::default());
        w.ensure_layers(2);
        w.observe_layer(1, 0, 3, 4.0, 0);
        assert_eq!(w.tripped(), None);
        w.observe_layer(1, 1, 4, 0.0, 2);
        let reason = w.tripped().expect("tripped");
        assert!(reason.contains("worker 1"), "{reason}");
        assert!(reason.contains("layer 1"), "{reason}");
        assert!(reason.contains("step 4"), "{reason}");
        let s = w.summary();
        assert_eq!(s.nonfinite_events, 2);
        assert_eq!(
            s.first_nonfinite,
            Some(NonfiniteRecord {
                worker: 1,
                layer: 1,
                step: 4
            })
        );
        assert_eq!(s.peak_grad_layer, Some(0));
        assert!((s.peak_grad_norm - 2.0).abs() < 1e-12);
    }

    #[test]
    fn peak_norm_is_a_high_water_mark() {
        let w = Watchdog::new(HealthPolicy::default());
        w.ensure_layers(1);
        w.observe_layer(0, 0, 0, 9.0, 0);
        w.observe_layer(0, 0, 1, 1.0, 0);
        assert_eq!(w.summary().layer_peak_norms, vec![3.0]);
    }

    #[test]
    fn divergence_warns_once_by_default() {
        let w = Watchdog::new(HealthPolicy::default());
        assert_eq!(w.observe_eval(1.0), HealthAction::Ignore);
        assert_eq!(w.observe_eval(0.9), HealthAction::Ignore);
        assert_eq!(w.observe_eval(5.0), HealthAction::Warn);
        // Reacted once; staying diverged does not repeat the action.
        assert_eq!(w.observe_eval(6.0), HealthAction::Ignore);
        let s = w.summary();
        assert!(s.diverged);
        assert_eq!(s.warnings, 1);
    }

    #[test]
    fn nan_loss_counts_as_divergence() {
        let p = HealthPolicy {
            on_divergence: HealthAction::Abort,
            ..HealthPolicy::default()
        };
        let w = Watchdog::new(p);
        assert_eq!(w.observe_eval(1.0), HealthAction::Ignore);
        assert_eq!(w.observe_eval(f64::NAN), HealthAction::Abort);
        assert!(w.tripped().unwrap().contains("divergence"));
    }

    #[test]
    fn stall_clamps_after_threshold() {
        let p = HealthPolicy {
            stall_evals: 3,
            ..HealthPolicy::default()
        };
        let w = Watchdog::new(p);
        assert_eq!(w.observe_eval(1.0), HealthAction::Ignore);
        for _ in 0..2 {
            assert_eq!(w.observe_eval(1.0), HealthAction::Ignore);
        }
        assert_eq!(w.observe_eval(1.0), HealthAction::Clamp);
        w.note_clamp();
        let s = w.summary();
        assert!(s.stalled);
        assert_eq!(s.clamps, 1);
        // A new best after the stall does not un-stall the record.
        assert_eq!(w.observe_eval(0.5), HealthAction::Ignore);
        assert!(w.summary().stalled);
    }

    #[test]
    fn export_restore_roundtrips_tallies() {
        let p = HealthPolicy {
            on_nonfinite: HealthAction::Warn,
            ..HealthPolicy::default()
        };
        let w = Watchdog::new(p.clone());
        w.ensure_layers(2);
        w.observe_layer(0, 0, 0, 9.0, 0);
        w.observe_layer(1, 1, 2, 0.0, 3);
        w.observe_eval(1.0);
        w.observe_eval(0.8);
        w.note_clamp();
        let state = w.export_state();

        let back = Watchdog::new(p);
        back.restore_state(&state);
        assert_eq!(back.export_state(), state);
        let s = back.summary();
        assert_eq!(s.nonfinite_events, 3);
        assert_eq!(s.warnings, 1);
        assert_eq!(s.clamps, 1);
        assert_eq!(s.layer_peak_norms, vec![3.0, 0.0]);
        assert_eq!(
            s.first_nonfinite,
            Some(NonfiniteRecord {
                worker: 1,
                layer: 1,
                step: 2
            })
        );
        // Divergence detection stays anchored to the pre-resume initial.
        assert_eq!(back.observe_eval(100.0), HealthAction::Warn);
    }

    #[test]
    fn restored_reacted_conditions_do_not_refire() {
        let w = Watchdog::new(HealthPolicy::default());
        w.observe_eval(1.0);
        w.observe_eval(50.0); // diverged -> Warn (default policy)
        let state = w.export_state();
        assert!(state.diverged);

        let back = Watchdog::new(HealthPolicy::default());
        back.restore_state(&state);
        // Still diverged after resume, but the one-shot reaction already
        // happened before the checkpoint.
        assert_eq!(back.observe_eval(60.0), HealthAction::Ignore);
        assert!(back.summary().diverged);
    }

    #[test]
    fn worker_side_clamp_requests_are_consumed_once() {
        let p = HealthPolicy {
            on_nonfinite: HealthAction::Clamp,
            ..HealthPolicy::default()
        };
        let w = Watchdog::new(p);
        w.ensure_layers(1);
        w.observe_layer(0, 0, 0, 0.0, 1);
        assert_eq!(w.tripped(), None);
        assert!(w.take_clamp_request());
        assert!(!w.take_clamp_request());
    }
}
