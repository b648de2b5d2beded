//! The run protocol: what one `hetero-benchmark --workload …` invocation
//! does, and the only place a trial is judged.
//!
//! A run = at least [`names::SETUPS`] timed set-ups (median → `setup_s`), one
//! discarded warm-up trial, then N timed trials of *fixed work*. Counts and
//! virtual-clock values are reported as the plain median over the timed
//! trials, wall-clock values as the mean of their fastest eighth
//! ([`fastest_mean`] says why). `--seconds` scales N only (never the
//! per-trial work), so numbers from runs of different length stay
//! comparable.

use hetero_core::{TrainResult, WorkerKind};

use crate::host::{self, Provenance};
use crate::names::{self, MAX_SETUPS, RUN_SECONDS, SETUPS, SETUP_PHASE_SECS, TRACE_TRIALS, TRIALS};
use crate::stats::{crossing, fastest_mean, median};
use crate::workloads::{EngineKind, Prepared, Trial, Workload};
use crate::{layers, replay};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    /// Dataset seed; trial *k* trains with model-init/eval-subset seed
    /// `seed · 1000 + k`.
    pub seed: u64,
    /// Scales the trial count (see [`trial_count`]).
    pub seconds: u64,
    /// `--trace 1`: report the per-layer metrics instead of the end-to-end
    /// ones.
    pub trace: bool,
    /// Test/debug override of the trial count (`--trials`).
    pub trials: Option<usize>,
}

/// What one run reports.
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Every trial of the run passed every check.
    pub correct: bool,
    /// Timed trials.
    pub attempted: usize,
    /// Timed trials that failed a check.
    pub failed: usize,
    /// The contract's metrics for this mode, in `names.rs` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable extras printed above the metrics.
    pub notes: Vec<String>,
    pub provenance: Provenance,
}

/// Timed trials for `--seconds`: the floor at or below [`RUN_SECONDS`],
/// proportionally more above it.
pub fn trial_count(seconds: u64, traced: bool) -> usize {
    let floor = if traced { TRACE_TRIALS } else { TRIALS };
    let scaled = (floor as f64 * seconds as f64 / RUN_SECONDS as f64).round() as usize;
    scaled.max(floor)
}

/// Per-trial end-to-end values (what the run's estimators are taken over).
#[derive(Debug, Clone, Copy)]
pub struct TrialValues {
    pub wall_s: f64,
    pub examples_per_s: f64,
    pub updates_per_s: f64,
    pub epochs_to_target: Option<f64>,
    pub time_to_target_s: Option<f64>,
    /// Final loss ÷ initial loss.
    pub loss_ratio: f64,
    /// Where in the trial's work the target was crossed (0–1).
    pub target_at: Option<f64>,
}

/// Examples the workers actually trained on.
pub fn examples_trained(r: &TrainResult) -> u64 {
    r.workers.iter().map(|w| w.examples).sum()
}

/// Extract the per-trial values.
pub fn trial_values(w: &Workload, t: &Trial) -> TrialValues {
    let r = &t.result;
    let by_epoch: Vec<(f64, f64)> = r
        .loss_curve
        .iter()
        .map(|p| (p.epochs, p.loss as f64))
        .collect();
    let by_time: Vec<(f64, f64)> = r
        .loss_curve
        .iter()
        .map(|p| (p.time, p.loss as f64))
        .collect();
    let target = w.target_loss as f64;
    let epochs_to_target = crossing(&by_epoch, target);
    TrialValues {
        wall_s: t.wall_s,
        examples_per_s: examples_trained(r) as f64 / t.wall_s,
        updates_per_s: r.total_updates() / t.wall_s,
        epochs_to_target,
        time_to_target_s: crossing(&by_time, target),
        loss_ratio: (r.final_loss() / r.initial_loss()) as f64,
        target_at: epochs_to_target.map(|e| e / r.epochs.max(f64::MIN_POSITIVE)),
    }
}

/// The correctness checks every trial must pass. Returns the reasons it
/// failed (empty = passed).
pub fn check_trial(p: &Prepared, t: &Trial) -> Vec<String> {
    let w = &p.workload;
    let r = &t.result;
    let mut bad = Vec::new();
    let rows = p.dataset.len() as u64;
    let trained = examples_trained(r);
    match w.engine {
        EngineKind::Threaded { .. } => {
            // Fixed work: every example of every epoch trained exactly once.
            let want = w
                .train
                .max_epochs
                .expect("threaded workloads fix max_epochs") as u64
                * rows;
            if trained != want {
                bad.push(format!("trained {trained} examples, fixed work is {want}"));
            }
        }
        EngineKind::Sim => {
            // Fixed virtual budget: the schedule's served count may lead the
            // trained count only by the batches in flight when the budget
            // expired (at most one per worker).
            let served = (r.epochs * rows as f64).round() as u64;
            let in_flight_max =
                (w.train.adaptive.cpu_max_batch + w.train.adaptive.gpu_max_batch) as u64;
            if trained > served || served - trained > in_flight_max {
                bad.push(format!(
                    "trained {trained} examples but the schedule served {served}"
                ));
            }
        }
    }
    if r.loss_curve.iter().any(|p| !p.loss.is_finite()) {
        bad.push("non-finite loss".into());
    }
    if r.final_loss() >= r.initial_loss() {
        bad.push(format!(
            "final loss {} not below initial {}",
            r.final_loss(),
            r.initial_loss()
        ));
    }
    if !r.loss_curve.iter().any(|p| p.loss <= w.target_loss) {
        bad.push(format!(
            "target loss {} never reached (min {})",
            w.target_loss,
            r.min_loss()
        ));
    }
    if let Some(reason) = &r.aborted {
        bad.push(format!("engine aborted: {reason}"));
    }
    for (i, wk) in r.workers.iter().enumerate() {
        if let Some(reason) = &wk.retired {
            bad.push(format!("worker {i} retired: {reason}"));
        }
    }
    if r.requeued_batches != 0 {
        bad.push(format!("{} batches re-queued", r.requeued_batches));
    }
    bad
}

/// `est` over the values that exist; NaN (which makes the run incorrect)
/// when no trial produced one.
fn estimate(values: impl Iterator<Item = f64>, est: impl Fn(&[f64]) -> f64) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        f64::NAN
    } else {
        est(&v)
    }
}

/// Execute one run.
pub fn run(opts: &RunOptions) -> RunReport {
    let w = &opts.workload;
    let mut provenance = Provenance::begin();
    let mut notes = Vec::new();

    // --- Set-up, several times; the last one is kept for the trials. Each
    // is dropped before the next starts so peak RSS stays that of one. A
    // 20 ms set-up is timed more often than a 270 ms one: its median needs
    // the samples and they cost nothing.
    let mut setup_secs = Vec::with_capacity(MAX_SETUPS);
    let mut prepared = None;
    let setups_started = std::time::Instant::now();
    while setup_secs.len() < SETUPS
        || (setup_secs.len() < MAX_SETUPS
            && setups_started.elapsed().as_secs_f64() < SETUP_PHASE_SECS)
    {
        drop(prepared.take());
        let t0 = std::time::Instant::now();
        prepared = Some(w.prepare(opts.seed));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUPS >= 1");
    let setup_s = median(&setup_secs);

    // --- Warm-up (discarded for timing). It trains with trial 0's seed, so
    // on the sim it doubles as the determinism check below.
    let trial_seed = |k: usize| opts.seed.wrapping_mul(1000).wrapping_add(k as u64);
    let warmup = prepared.run_trial(trial_seed(0));

    // --- Timed trials.
    let n = opts
        .trials
        .unwrap_or_else(|| trial_count(opts.seconds, opts.trace))
        .max(1);
    let mut trials = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    let mut failed = 0usize;
    for k in 0..n {
        let t = prepared.run_trial(trial_seed(k));
        let mut bad = check_trial(&prepared, &t);
        if k == 0 && w.engine == EngineKind::Sim && t.result.loss_curve != warmup.result.loss_curve
        {
            bad.push("sim loss curve differs between two runs of the same seed".into());
        }
        if !bad.is_empty() {
            failed += 1;
            eprintln!("trial {k} FAILED: {}", bad.join("; "));
        }
        let v = trial_values(w, &t);
        eprintln!(
            "trial {k:>2}: wall_s {:.4} ex/s {:.1} upd/s {:.1} e2t {:.4} t2t {:.5} loss {:.4} -> {:.4} target@{:.0}%",
            v.wall_s,
            v.examples_per_s,
            v.updates_per_s,
            v.epochs_to_target.unwrap_or(f64::NAN),
            v.time_to_target_s.unwrap_or(f64::NAN),
            t.result.initial_loss(),
            t.result.final_loss(),
            100.0 * v.target_at.unwrap_or(f64::NAN),
        );
        trials.push(t);
        values.push(v);
    }

    // Counts and virtual-clock quantities: plain median. Wall-clock
    // quantities: the fastest eighth of the trials.
    let fastest_high = |v: &[f64]| fastest_mean(v, false);
    let fastest_low = |v: &[f64]| fastest_mean(v, true);
    let epochs_to_target = estimate(values.iter().filter_map(|v| v.epochs_to_target), median);
    let time_to_target = match w.engine {
        // The crossing on the wall clock = (epochs to the crossing, a count
        // the host cannot disturb) × (wall seconds per epoch up to it, which
        // it can): each factor through its own estimator.
        EngineKind::Threaded { .. } => {
            epochs_to_target
                * estimate(
                    values
                        .iter()
                        .filter_map(|v| Some(v.time_to_target_s? / v.epochs_to_target?)),
                    fastest_low,
                )
        }
        EngineKind::Sim => estimate(values.iter().filter_map(|v| v.time_to_target_s), median),
    };
    let examples_per_s = estimate(values.iter().map(|v| v.examples_per_s), fastest_high);
    let e2e = [
        (names::SETUP_S, setup_s),
        (names::EXAMPLES_PER_S, examples_per_s),
        (
            names::UPDATES_PER_S,
            estimate(values.iter().map(|v| v.updates_per_s), fastest_high),
        ),
        (names::EPOCHS_TO_TARGET, epochs_to_target),
        (names::TIME_TO_TARGET_S, time_to_target),
        // Read here, before the traced extras allocate anything of their own.
        (names::PEAK_RSS_MB, host::peak_rss_mb()),
    ];
    notes.push(format!(
        "trial wall median {:.3} s | loss final/initial median {:.3} | target crossed at median {:.0}% of the work",
        estimate(values.iter().map(|v| v.wall_s), median),
        estimate(values.iter().map(|v| v.loss_ratio), median),
        100.0 * estimate(values.iter().filter_map(|v| v.target_at), median),
    ));

    let metrics: Vec<(&'static str, f64)> = if opts.trace {
        let mut layer = layers::suite();
        let replayed = replay::replay(&prepared, &trials);
        layer.extend(replayed.metrics);
        layer.extend(replay::run_counters(
            &prepared,
            &trials,
            examples_per_s,
            trial_seed(n),
        ));
        notes.extend(replayed.notes);
        for (name, value) in &e2e {
            notes.push(format!(
                "(end-to-end over {n} trials) {name} = {value} {}",
                names::unit_of(name)
            ));
        }
        // Contract order = names.rs order.
        names::PER_LAYER
            .iter()
            .map(|m| {
                let v = layer
                    .iter()
                    .find(|(k, _)| *k == m.name)
                    .unwrap_or_else(|| panic!("per-layer metric `{}` was not measured", m.name))
                    .1;
                (m.name, v)
            })
            .collect()
    } else {
        e2e.to_vec()
    };

    provenance.end();
    let complete = metrics.iter().all(|(_, v)| v.is_finite());
    RunReport {
        workload: w.name,
        seed: opts.seed,
        traced: opts.trace,
        correct: failed == 0 && complete,
        attempted: n,
        failed,
        metrics,
        notes,
        provenance,
    }
}

/// The first worker of `kind`, if the run had one. (The sim appends a
/// zero-batch GPU pseudo-worker for eval accounting; the first match is
/// always the real one.)
pub fn worker_of(r: &TrainResult, kind: WorkerKind) -> Option<&hetero_core::WorkerStats> {
    r.workers.iter().find(|w| w.kind == kind)
}

/// Seconds a worker spent inside batches, on the engine's clock.
/// (`UtilizationTimeline::busy_time` weights each interval by the modelled
/// device occupancy; this is the plain sum of interval lengths.)
pub fn busy_secs(w: &hetero_core::WorkerStats) -> f64 {
    w.timeline.segments().iter().map(|s| s.end - s.start).sum()
}
