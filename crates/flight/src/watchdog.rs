//! The training-health watchdog: lock-free accumulation of per-layer
//! gradient norms and NaN/±Inf counts from worker hot paths, plus loss
//! divergence/stall detection at eval points.
//!
//! Each condition (non-finite gradient, divergence, stall) reacts at most
//! once per run: [`Watchdog::react`] tallies the reaction and queues its
//! `(action, detail)`, and the coordinator takes the queue at its health
//! poll ([`Watchdog::take_reactions`]) — the one place a reaction is
//! enforced.
//!
//! Ordering discipline: every atomic here is a monitoring accumulator
//! (counts, f64-bit high-water marks, the queue's pending flag). No thread
//! reads one to establish happens-before with training data — the
//! coordinator polls between batches and tolerates stale values — so all
//! accesses are `Relaxed`. The pending flag is written only under the
//! queue's mutex, so the two never disagree for longer than a poll: a poll
//! that reads the flag clear leaves a newer reaction to the next one (the
//! last, in `finish`, runs after the workers are joined).

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

/// The loss-trend state. `diverged` / `stalled` also mean "reacted": a
/// condition reacts when it is first detected, and never again.
#[derive(Default)]
struct EvalState {
    initial: Option<f64>,
    best: f64,
    since_best: u32,
    diverged: bool,
    stalled: bool,
}

struct WatchdogInner {
    policy: HealthPolicy,
    /// NaN/±Inf elements seen; non-zero also means the non-finite
    /// condition has reacted.
    nonfinite: AtomicU64,
    warnings: AtomicU64,
    clamps: AtomicU64,
    tripped: Mutex<Option<String>>,
    first_nonfinite: Mutex<Option<NonfiniteRecord>>,
    /// Reactions the coordinator has not taken yet, oldest first.
    reactions: Mutex<Vec<(HealthAction, String)>>,
    /// Whether `reactions` holds any (written under its lock).
    pending: AtomicBool,
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
                tripped: Mutex::new(None),
                first_nonfinite: Mutex::new(None),
                reactions: Mutex::new(Vec::new()),
                pending: AtomicBool::new(false),
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
    /// observation is the run's first non-finite one).
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
        if nonfinite == 0 {
            return;
        }
        // Relaxed count (see module ordering note). The observation that
        // finds it at zero reacts; under Abort, so does one before the run
        // has tripped, since a checkpoint keeps the count but not the trip.
        let first = inner.nonfinite.fetch_add(nonfinite, Ordering::Relaxed) == 0;
        if first {
            *inner.first_nonfinite.lock() = Some(NonfiniteRecord {
                worker,
                layer,
                step,
            });
        }
        let abort = inner.policy.on_nonfinite == HealthAction::Abort;
        if first || (abort && inner.tripped.lock().is_none()) {
            let detail = format!(
                "non-finite gradient: worker {worker}, layer {layer}, step {step} \
                 ({nonfinite} element(s))"
            );
            self.react(inner.policy.on_nonfinite, detail);
        }
    }

    /// Feed one eval-loss observation (coordinator only). A newly detected
    /// divergence or stall reacts as the policy says.
    pub fn observe_eval(&self, loss: f64) {
        let Some(inner) = &self.inner else { return };
        let mut ev = inner.evals.lock();
        let Some(initial) = ev.initial else {
            ev.initial = Some(loss);
            ev.best = loss;
            return;
        };
        if loss < ev.best {
            ev.best = loss;
            ev.since_best = 0;
        } else {
            ev.since_best += 1;
        }
        let diverged =
            !loss.is_finite() || (initial > 0.0 && loss > inner.policy.divergence_factor * initial);
        if diverged && !ev.diverged {
            ev.diverged = true;
            drop(ev);
            let detail = format!(
                "loss divergence: eval loss {loss} vs initial {initial} \
                 (threshold ×{})",
                inner.policy.divergence_factor
            );
            self.react(inner.policy.on_divergence, detail);
        } else if ev.since_best >= inner.policy.stall_evals && !ev.stalled {
            ev.stalled = true;
            let since = ev.since_best;
            drop(ev);
            let detail = format!("loss stall: no new best for {since} consecutive evals");
            self.react(inner.policy.on_stall, detail);
        }
    }

    /// React to a newly detected condition: count the warning or clamp (or
    /// record the trip reason) and queue `(action, detail)` for the
    /// coordinator. Runs once per condition per run, and the trip is
    /// one-way: a run queues one Abort at most.
    fn react(&self, action: HealthAction, detail: String) {
        let Some(inner) = &self.inner else { return };
        match action {
            // An ignored condition queues nothing.
            HealthAction::Ignore => return,
            // Relaxed counts (see module ordering note).
            HealthAction::Warn => {
                inner.warnings.fetch_add(1, Ordering::Relaxed);
            }
            HealthAction::Clamp => {
                inner.clamps.fetch_add(1, Ordering::Relaxed);
            }
            HealthAction::Abort => {
                let mut tripped = inner.tripped.lock();
                if tripped.is_some() {
                    return;
                }
                *tripped = Some(detail.clone());
            }
        }
        let mut queue = inner.reactions.lock();
        queue.push((action, detail));
        // Relaxed flag, written under the queue's lock (see module
        // ordering note).
        inner.pending.store(true, Ordering::Relaxed);
    }

    /// The reactions queued since the last call, oldest first (coordinator
    /// only). Without one pending this is a single relaxed load.
    pub fn take_reactions(&self) -> Vec<(HealthAction, String)> {
        match &self.inner {
            // Relaxed flag: a reaction queued after this load is taken at
            // the next poll (see module ordering note).
            Some(inner) if inner.pending.load(Ordering::Relaxed) => {
                let mut queue = inner.reactions.lock();
                inner.pending.store(false, Ordering::Relaxed);
                std::mem::take(&mut *queue)
            }
            _ => Vec::new(),
        }
    }

    /// Why the policy aborted the run, if it has.
    pub fn tripped(&self) -> Option<String> {
        self.inner.as_deref()?.tripped.lock().clone()
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
    /// second reaction. The trip is not part of the state: under Abort the
    /// resumed run's first non-finite scan trips it again. No-op when
    /// disabled.
    pub fn restore_state(&self, state: &WatchdogState) {
        let Some(inner) = &self.inner else { return };
        // Relaxed stores: restore happens before workers start (see module
        // ordering note). A non-zero count keeps the non-finite condition
        // from warning or clamping again.
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
        // A condition that reacted before the checkpoint stays detected,
        // so it does not react again after resume.
        ev.diverged = state.diverged;
        ev.stalled = state.stalled;
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
        // The first layer with the highest peak (`max_by` keeps the last).
        let peak = peaks
            .iter()
            .enumerate()
            .rev()
            .max_by(|a, b| a.1.total_cmp(b.1));
        let ev = inner.evals.lock();
        // Relaxed loads throughout: these are monitoring tallies; a summary
        // taken mid-run may lag a worker by a batch, which is acceptable.
        HealthSummary {
            nonfinite_events: inner.nonfinite.load(Ordering::Relaxed),
            peak_grad_norm: peak.map_or(0.0, |(_, &n)| n),
            peak_grad_layer: peak.filter(|&(_, &n)| n > 0.0).map(|(i, _)| i),
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

    /// The actions of the reactions queued since the last take.
    fn taken(w: &Watchdog) -> Vec<HealthAction> {
        w.take_reactions().into_iter().map(|(a, _)| a).collect()
    }

    #[test]
    fn disabled_watchdog_is_inert() {
        let w = Watchdog::disabled();
        w.ensure_layers(3);
        w.observe_layer(0, 0, 0, 1.0, 5);
        w.observe_eval(1.0);
        w.observe_eval(f64::NAN);
        assert!(w.take_reactions().is_empty());
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
        assert_eq!(w.take_reactions(), [(HealthAction::Abort, reason)]);
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
        // A tie names the first layer with the peak.
        w.ensure_layers(2);
        w.observe_layer(0, 1, 2, 9.0, 0);
        assert_eq!(w.summary().peak_grad_layer, Some(0));
    }

    #[test]
    fn divergence_warns_once_by_default() {
        let w = Watchdog::new(HealthPolicy::default());
        w.observe_eval(1.0);
        w.observe_eval(0.9);
        assert!(w.take_reactions().is_empty());
        w.observe_eval(5.0);
        let reactions = w.take_reactions();
        assert_eq!(reactions.len(), 1);
        assert_eq!(reactions[0].0, HealthAction::Warn);
        assert!(reactions[0].1.contains("divergence"), "{}", reactions[0].1);
        // Reacted once; staying diverged does not repeat the action.
        w.observe_eval(6.0);
        assert!(w.take_reactions().is_empty());
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
        w.observe_eval(1.0);
        w.observe_eval(f64::NAN);
        let reason = w.tripped().expect("tripped");
        assert!(reason.contains("divergence"), "{reason}");
        assert_eq!(w.take_reactions(), [(HealthAction::Abort, reason)]);
    }

    #[test]
    fn stall_clamps_after_threshold() {
        let p = HealthPolicy {
            stall_evals: 3,
            ..HealthPolicy::default()
        };
        let w = Watchdog::new(p);
        for _ in 0..3 {
            w.observe_eval(1.0);
        }
        assert!(w.take_reactions().is_empty());
        w.observe_eval(1.0);
        assert_eq!(taken(&w), [HealthAction::Clamp]);
        let s = w.summary();
        assert!(s.stalled);
        assert_eq!(s.clamps, 1);
        // A new best after the stall does not un-stall the record, and a
        // second stall does not clamp again.
        w.observe_eval(0.5);
        for _ in 0..4 {
            w.observe_eval(0.5);
        }
        assert!(w.take_reactions().is_empty());
        assert!(w.summary().stalled);
        assert_eq!(w.summary().clamps, 1);
    }

    #[test]
    fn export_restore_roundtrips_tallies() {
        let p = HealthPolicy {
            on_nonfinite: HealthAction::Warn,
            stall_evals: 1,
            ..HealthPolicy::default()
        };
        let w = Watchdog::new(p.clone());
        w.ensure_layers(2);
        w.observe_layer(0, 0, 0, 9.0, 0);
        w.observe_layer(1, 1, 2, 0.0, 3);
        w.observe_eval(1.0);
        w.observe_eval(1.0);
        assert_eq!(taken(&w), [HealthAction::Warn, HealthAction::Clamp]);
        let state = w.export_state();

        let back = Watchdog::new(p);
        back.restore_state(&state);
        assert_eq!(back.export_state(), state);
        let s = back.summary();
        assert_eq!(s.nonfinite_events, 3);
        assert_eq!(s.warnings, 1);
        assert_eq!(s.clamps, 1);
        assert!(s.stalled);
        assert_eq!(s.layer_peak_norms, vec![3.0, 0.0]);
        assert_eq!(
            s.first_nonfinite,
            Some(NonfiniteRecord {
                worker: 1,
                layer: 1,
                step: 2
            })
        );
        // Restoring queues nothing, and divergence detection stays
        // anchored to the pre-resume initial.
        assert!(back.take_reactions().is_empty());
        back.observe_eval(100.0);
        assert_eq!(taken(&back), [HealthAction::Warn]);
    }

    #[test]
    fn restored_reacted_conditions_do_not_refire() {
        let p = HealthPolicy {
            on_nonfinite: HealthAction::Warn,
            ..HealthPolicy::default()
        };
        let w = Watchdog::new(p.clone());
        w.ensure_layers(1);
        w.observe_layer(0, 0, 1, 0.0, 2); // non-finite -> Warn
        w.observe_eval(1.0);
        w.observe_eval(50.0); // diverged -> Warn (default policy)
        assert_eq!(taken(&w), [HealthAction::Warn, HealthAction::Warn]);
        let state = w.export_state();
        assert!(state.diverged);
        assert_eq!(state.nonfinite, 2);

        let back = Watchdog::new(p);
        back.restore_state(&state);
        // Still diverged and still poisoned after resume, but each one-shot
        // reaction already happened before the checkpoint.
        back.observe_eval(60.0);
        back.observe_layer(0, 0, 7, 0.0, 1);
        assert!(back.take_reactions().is_empty());
        let s = back.summary();
        assert!(s.diverged);
        assert_eq!((s.nonfinite_events, s.warnings), (3, 2));
        assert_eq!(s.first_nonfinite.map(|f| f.step), Some(1));
    }

    #[test]
    fn a_resumed_run_trips_on_its_first_nonfinite_scan() {
        // Recorded under Warn, and under Abort as a checkpoint taken
        // between the trip and the poll can hold it: the count is saved,
        // the trip is not.
        for recorded in [HealthAction::Warn, HealthAction::Abort] {
            let w = Watchdog::new(HealthPolicy {
                on_nonfinite: recorded,
                ..HealthPolicy::default()
            });
            w.ensure_layers(1);
            w.observe_layer(0, 0, 1, 0.0, 2);
            let state = w.export_state();

            let back = Watchdog::new(HealthPolicy::default());
            back.restore_state(&state);
            assert_eq!(back.tripped(), None);
            assert!(back.take_reactions().is_empty());
            for step in 7..10 {
                back.observe_layer(0, 0, step, 0.0, 1);
            }
            let reason = back.tripped().expect("tripped");
            assert!(reason.contains("step 7"), "{reason}");
            assert_eq!(back.take_reactions(), [(HealthAction::Abort, reason)]);
            assert_eq!(back.summary().nonfinite_events, 5);
            assert_eq!(back.summary().first_nonfinite.map(|f| f.step), Some(1));
        }
    }

    #[test]
    fn worker_side_clamp_requests_are_consumed_once() {
        let p = HealthPolicy {
            on_nonfinite: HealthAction::Clamp,
            ..HealthPolicy::default()
        };
        let w = Watchdog::new(p);
        w.ensure_layers(1);
        // Every later scan of a poisoned model finds non-finite elements
        // too; only the first reacts.
        for step in 0..3 {
            w.observe_layer(0, 0, step, 0.0, 1);
        }
        assert_eq!(w.tripped(), None);
        assert_eq!(taken(&w), [HealthAction::Clamp]);
        assert!(w.take_reactions().is_empty());
        let s = w.summary();
        assert_eq!((s.nonfinite_events, s.clamps), (3, 1));
    }
}
