//! Batch-lineage analysis: span reconstruction, critical-path phase
//! attribution, per-worker straggler blame, and the adaptive-controller
//! decision ledger.
//!
//! The input is the same event stream every exporter consumes — each
//! batch-lifecycle event carries its [`BatchId`], so the
//! analyzer can rebuild one [`BatchSpan`] per dispatched batch
//! (dispatch → queue wait → start → phases → completion) and then answer
//! the question the aggregates cannot: *where did this run's wall-clock
//! go, and which phase was on the critical path?*
//!
//! # Attribution rules
//!
//! - The run's elapsed time is the span between the first and last event
//!   timestamp (engines emit from t≈0, so this matches run wall-clock).
//! - A batch is **ready** when a worker could first have been on it: at
//!   its dispatch, or — when the engine dispatched it ahead and it sat
//!   parked behind the batch its worker was still running — at that
//!   batch's completion. Parked is not starved: the wait before ready is
//!   the worker being busy, and is already attributed to the batch in
//!   front.
//! - The **critical path** is walked backwards from the last batch to
//!   complete: each step's enabling predecessor is the batch whose
//!   completion most recently preceded the moment the step became ready
//!   (that completion is what freed the coordinator to dispatch it, or
//!   the worker to start it). Gaps between a predecessor's completion and
//!   the step becoming ready are attributed to `coordinator`; time before
//!   the first step is ready is `startup`; time after the last completion
//!   is `shutdown`.
//! - Within a step, `ready → start` is `queue` wait, and the worker's
//!   measured [`BatchPhases`] split the busy span into `stage`,
//!   `compute`, `transfer`, and `merge`. Measured phases are clamped onto
//!   the busy wall-clock span (never attributing more than elapsed); any
//!   unmeasured remainder is reported as `residual`, not silently folded
//!   into a named phase.
//!
//! Every segment of the elapsed span lands in exactly one bucket, so the
//! profile's total equals the run's wall-clock by construction — the
//! "≥95% attributed" acceptance bar is met structurally, and `residual`
//! makes any instrumentation shortfall visible instead of hiding it.

use std::collections::HashMap;

use serde::{Deserialize, Serialize, Value};

use crate::event::{BatchId, BatchPhases, Event, EventKind};
use crate::sink::Trace;

/// Wall-clock attribution across the named phases. All fields are
/// seconds; [`PhaseProfile::total`] equals the analyzed span's elapsed
/// time when produced by [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Before the first batch on the critical path is ready.
    pub startup_secs: f64,
    /// Ready → worker start (channel latency + worker availability).
    pub queue_secs: f64,
    /// Model snapshot + batch gather / CSR slice.
    pub stage_secs: f64,
    /// Forward/backward compute.
    pub compute_secs: f64,
    /// Host↔device transfers (model refresh + delta download).
    pub transfer_secs: f64,
    /// Shared-model merge (lock + apply).
    pub merge_secs: f64,
    /// Gaps where the coordinator held the path (scheduling, control).
    pub coordinator_secs: f64,
    /// Busy time the worker did not attribute to a named phase.
    pub residual_secs: f64,
    /// After the last completion (final eval, teardown).
    pub shutdown_secs: f64,
}

impl PhaseProfile {
    /// Sum of every bucket.
    pub fn total(&self) -> f64 {
        self.named().iter().map(|(_, v)| v).sum()
    }

    /// `(label, seconds)` for every bucket, in display order.
    pub fn named(&self) -> [(&'static str, f64); 9] {
        [
            ("startup", self.startup_secs),
            ("queue", self.queue_secs),
            ("stage", self.stage_secs),
            ("compute", self.compute_secs),
            ("transfer", self.transfer_secs),
            ("merge", self.merge_secs),
            ("coordinator", self.coordinator_secs),
            ("residual", self.residual_secs),
            ("shutdown", self.shutdown_secs),
        ]
    }

    /// The bucket holding the most time.
    pub fn dominant(&self) -> (&'static str, f64) {
        self.named()
            .into_iter()
            .fold(("startup", f64::NEG_INFINITY), |best, cur| {
                if cur.1 > best.1 {
                    cur
                } else {
                    best
                }
            })
    }

    /// Fold a worker-measured per-batch breakdown into this profile.
    pub fn add_phases(&mut self, p: &BatchPhases) {
        self.stage_secs += p.stage_secs;
        self.compute_secs += p.compute_secs;
        self.transfer_secs += p.transfer_secs;
        self.merge_secs += p.merge_secs;
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &PhaseProfile) {
        self.startup_secs += other.startup_secs;
        self.queue_secs += other.queue_secs;
        self.stage_secs += other.stage_secs;
        self.compute_secs += other.compute_secs;
        self.transfer_secs += other.transfer_secs;
        self.merge_secs += other.merge_secs;
        self.coordinator_secs += other.coordinator_secs;
        self.residual_secs += other.residual_secs;
        self.shutdown_secs += other.shutdown_secs;
    }
}

/// One reconstructed batch lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSpan {
    /// Lineage id.
    pub id: BatchId,
    /// Worker that ran (or was meant to run) the batch.
    pub worker: u32,
    /// Examples dispatched.
    pub batch: usize,
    /// Updates applied (0 until completed).
    pub updates: usize,
    /// Dispatch timestamp.
    pub dispatched_at: f64,
    /// When a worker could first have been on it: `dispatched_at`, or the
    /// completion of the batch it was parked behind on the same worker.
    pub ready_at: f64,
    /// When the worker dequeued it (= `dispatched_at` if never observed).
    pub started_at: f64,
    /// Completion timestamp, if the batch finished.
    pub completed_at: Option<f64>,
    /// Worker-measured phase breakdown (zeros until completed).
    pub phases: BatchPhases,
    /// Whether the range was returned to the dispatch queue (fault path).
    pub requeued: bool,
}

impl BatchSpan {
    /// Queue wait (ready → start), clamped non-negative.
    pub fn queue_secs(&self) -> f64 {
        (self.started_at - self.ready_at).max(0.0)
    }

    /// Busy wall-clock (start → completion), `None` if unfinished.
    pub fn busy_secs(&self) -> Option<f64> {
        self.completed_at.map(|c| (c - self.started_at).max(0.0))
    }
}

/// One step on the critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalStep {
    /// Lineage id of the batch on the path.
    pub id: BatchId,
    /// Worker that ran it.
    pub worker: u32,
    /// Dispatch timestamp.
    pub dispatched_at: f64,
    /// When it became ready (see [`BatchSpan::ready_at`]).
    pub ready_at: f64,
    /// Completion timestamp.
    pub completed_at: f64,
}

/// The extracted critical path and its wall-clock attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Path steps, earliest first.
    pub steps: Vec<CriticalStep>,
    /// Where the elapsed wall-clock went.
    pub profile: PhaseProfile,
    /// `profile.total() / wall` — 1.0 up to float rounding.
    pub coverage: f64,
}

/// Per-worker utilization and blame summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Worker id.
    pub worker: u32,
    /// Completed batches.
    pub batches: usize,
    /// Examples across completed batches.
    pub examples: usize,
    /// Updates across completed batches.
    pub updates: usize,
    /// Busy wall-clock (start → completion sums).
    pub busy_secs: f64,
    /// Queue wait (dispatch → start sums).
    pub queue_secs: f64,
    /// Neither queued nor busy.
    pub idle_secs: f64,
    /// Summed worker-measured phases.
    pub phases: BatchPhases,
    /// `busy_secs` over the run's elapsed span.
    pub utilization: f64,
    /// Dominant time sink: `"queue-starvation"`, `"compute"`,
    /// `"transfer"`, or `"merge-contention"`. Staging counts toward
    /// compute for blame (it is work, not waiting).
    pub blame: String,
}

/// One adaptive-controller decision paired with the phase profile of the
/// window that preceded it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Decision timestamp.
    pub t: f64,
    /// Worker whose batch was resized.
    pub worker: u32,
    /// Batch size before.
    pub old: usize,
    /// Batch size after.
    pub new: usize,
    /// Controller branch (`"Ahead"`, `"Behind"`, `"Clamped"`).
    pub reason: String,
    /// Batches the worker completed since its previous resize.
    pub window_batches: usize,
    /// Raw updates in the window.
    pub window_updates: usize,
    /// Queue wait accumulated over the window.
    pub window_queue_secs: f64,
    /// Phase breakdown accumulated over the window.
    pub window_phases: BatchPhases,
}

/// Everything [`analyze`] produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunAnalysis {
    /// First event timestamp.
    pub t0: f64,
    /// Elapsed seconds between first and last event.
    pub wall_secs: f64,
    /// Reconstructed spans (dispatches observed).
    pub spans: usize,
    /// Spans that completed.
    pub completed: usize,
    /// Spans that were re-queued by the fault path.
    pub requeued: usize,
    /// Critical path and attribution.
    pub critical_path: CriticalPath,
    /// Per-worker reports, worst utilization (biggest straggler) first.
    pub workers: Vec<WorkerReport>,
    /// Adaptive-controller decision ledger, in time order.
    pub decisions: Vec<Decision>,
}

/// Rebuild one [`BatchSpan`] per observed dispatch, in dispatch order.
/// `events` must be in time order.
pub fn spans_from_events(events: &[Event]) -> Vec<BatchSpan> {
    let mut order: Vec<BatchId> = Vec::new();
    let mut by_id: HashMap<BatchId, BatchSpan> = HashMap::new();
    // Each worker's latest completion so far.
    let mut last_done: HashMap<u32, f64> = HashMap::new();
    for e in events {
        match &e.kind {
            EventKind::BatchDispatched { id, batch } => {
                order.push(*id);
                by_id.insert(
                    *id,
                    BatchSpan {
                        id: *id,
                        worker: e.worker,
                        batch: *batch,
                        updates: 0,
                        dispatched_at: e.t,
                        ready_at: e.t,
                        started_at: e.t,
                        completed_at: None,
                        phases: BatchPhases::default(),
                        requeued: false,
                    },
                );
            }
            EventKind::BatchStarted { id } => {
                if let Some(s) = by_id.get_mut(id) {
                    s.started_at = e.t.max(s.dispatched_at);
                    // The dispatch event is stamped with the target worker,
                    // but the start is authoritative about who ran it.
                    s.worker = e.worker;
                    // Dispatched while that worker was still on the batch
                    // before it: parked until that one completed.
                    let freed = last_done.get(&e.worker).copied();
                    s.ready_at = freed.map_or(s.dispatched_at, |t| t.max(s.dispatched_at));
                }
            }
            EventKind::BatchCompleted {
                id,
                batch,
                updates,
                phases,
            } => {
                if let Some(s) = by_id.get_mut(id) {
                    s.completed_at = Some(e.t.max(s.started_at));
                    s.batch = *batch;
                    s.updates = *updates;
                    s.phases = *phases;
                    s.worker = e.worker;
                    last_done.insert(e.worker, e.t);
                }
            }
            EventKind::BatchRequeued { id, .. } => {
                if let Some(s) = by_id.get_mut(id) {
                    s.requeued = true;
                }
            }
            _ => {}
        }
    }
    order
        .into_iter()
        .filter_map(|id| by_id.remove(&id))
        .collect()
}

/// Clamp a span's measured phases onto its busy wall-clock and return
/// `(clamped phases, residual)`.
fn fit_phases(span: &BatchSpan) -> (BatchPhases, f64) {
    let busy = span.busy_secs().unwrap_or(0.0);
    let mut p = span.phases;
    let measured = p.total();
    if measured <= 0.0 {
        return (BatchPhases::default(), busy);
    }
    if measured > busy {
        p.scale(busy / measured);
        (p, 0.0)
    } else {
        (p, busy - measured)
    }
}

fn critical_path(spans: &[BatchSpan], t0: f64, t_end: f64) -> CriticalPath {
    let wall = (t_end - t0).max(0.0);
    let mut done: Vec<&BatchSpan> = spans.iter().filter(|s| s.completed_at.is_some()).collect();
    done.sort_by(|a, b| a.completed_at.unwrap().total_cmp(&b.completed_at.unwrap()));

    let mut profile = PhaseProfile::default();
    let mut steps: Vec<CriticalStep> = Vec::new();
    if done.is_empty() {
        profile.startup_secs = wall;
        return CriticalPath {
            steps,
            profile,
            coverage: 1.0,
        };
    }

    let mut cur_idx = done.len() - 1;
    profile.shutdown_secs = (t_end - done[cur_idx].completed_at.unwrap()).max(0.0);
    loop {
        let cur = done[cur_idx];
        steps.push(CriticalStep {
            id: cur.id,
            worker: cur.worker,
            dispatched_at: cur.dispatched_at,
            ready_at: cur.ready_at,
            completed_at: cur.completed_at.unwrap(),
        });
        profile.queue_secs += cur.queue_secs();
        let (p, residual) = fit_phases(cur);
        profile.add_phases(&p);
        profile.residual_secs += residual;

        // Enabling predecessor: the completion that most recently preceded
        // this batch becoming ready. Its report is what let the coordinator
        // schedule us — or, for a batch that was parked, what freed our
        // worker.
        // Only spans strictly earlier in completion order are candidates,
        // so the walk always makes progress even through ties (two
        // zero-length spans completing at the same instant).
        let pred = done[..cur_idx]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, s)| s.completed_at.unwrap() <= cur.ready_at);
        match pred {
            Some((i, p)) => {
                profile.coordinator_secs += (cur.ready_at - p.completed_at.unwrap()).max(0.0);
                cur_idx = i;
            }
            None => {
                profile.startup_secs = (cur.ready_at - t0).max(0.0);
                break;
            }
        }
    }
    steps.reverse();
    let total = profile.total();
    let coverage = if wall > 0.0 { total / wall } else { 1.0 };
    CriticalPath {
        steps,
        profile,
        coverage,
    }
}

fn worker_reports(spans: &[BatchSpan], wall: f64) -> Vec<WorkerReport> {
    let mut by_worker: HashMap<u32, WorkerReport> = HashMap::new();
    for s in spans {
        let r = by_worker.entry(s.worker).or_insert(WorkerReport {
            worker: s.worker,
            batches: 0,
            examples: 0,
            updates: 0,
            busy_secs: 0.0,
            queue_secs: 0.0,
            idle_secs: 0.0,
            phases: BatchPhases::default(),
            utilization: 0.0,
            blame: String::new(),
        });
        r.queue_secs += s.queue_secs();
        if let Some(busy) = s.busy_secs() {
            r.batches += 1;
            r.examples += s.batch;
            r.updates += s.updates;
            r.busy_secs += busy;
            let (p, _) = fit_phases(s);
            r.phases.add(&p);
        }
    }
    let mut out: Vec<WorkerReport> = by_worker.into_values().collect();
    for r in &mut out {
        r.idle_secs = (wall - r.busy_secs - r.queue_secs).max(0.0);
        r.utilization = if wall > 0.0 { r.busy_secs / wall } else { 0.0 };
        let starvation = r.queue_secs + r.idle_secs;
        let compute = r.phases.compute_secs + r.phases.stage_secs;
        let buckets = [
            ("queue-starvation", starvation),
            ("compute", compute),
            ("transfer", r.phases.transfer_secs),
            ("merge-contention", r.phases.merge_secs),
        ];
        r.blame = buckets
            .into_iter()
            .fold(("queue-starvation", f64::NEG_INFINITY), |best, cur| {
                if cur.1 > best.1 {
                    cur
                } else {
                    best
                }
            })
            .0
            .to_string();
    }
    // Straggler ranking: least-utilized worker first.
    out.sort_by(|a, b| {
        a.utilization
            .total_cmp(&b.utilization)
            .then(a.worker.cmp(&b.worker))
    });
    out
}

fn decision_ledger(events: &[Event], spans: &[BatchSpan]) -> Vec<Decision> {
    // Per-worker completed spans in completion order for window slicing.
    let mut completed: HashMap<u32, Vec<&BatchSpan>> = HashMap::new();
    for s in spans {
        if s.completed_at.is_some() {
            completed.entry(s.worker).or_default().push(s);
        }
    }
    for v in completed.values_mut() {
        v.sort_by(|a, b| a.completed_at.unwrap().total_cmp(&b.completed_at.unwrap()));
    }
    let mut window_start: HashMap<u32, f64> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        let EventKind::BatchResized { old, new, reason } = &e.kind else {
            continue;
        };
        let from = *window_start.get(&e.worker).unwrap_or(&f64::NEG_INFINITY);
        let mut d = Decision {
            t: e.t,
            worker: e.worker,
            old: *old,
            new: *new,
            reason: format!("{reason:?}"),
            window_batches: 0,
            window_updates: 0,
            window_queue_secs: 0.0,
            window_phases: BatchPhases::default(),
        };
        if let Some(list) = completed.get(&e.worker) {
            for s in list {
                let c = s.completed_at.unwrap();
                if c > from && c <= e.t {
                    d.window_batches += 1;
                    d.window_updates += s.updates;
                    d.window_queue_secs += s.queue_secs();
                    let (p, _) = fit_phases(s);
                    d.window_phases.add(&p);
                }
            }
        }
        window_start.insert(e.worker, e.t);
        out.push(d);
    }
    out
}

/// Analyze a raw event stream.
pub fn analyze_events(events: &[Event]) -> RunAnalysis {
    let (mut t0, mut t_end) = (f64::INFINITY, f64::NEG_INFINITY);
    for e in events {
        t0 = t0.min(e.t);
        t_end = t_end.max(e.t);
    }
    if events.is_empty() {
        (t0, t_end) = (0.0, 0.0);
    }
    let wall = (t_end - t0).max(0.0);
    let spans = spans_from_events(events);
    let critical_path = critical_path(&spans, t0, t_end);
    let workers = worker_reports(&spans, wall);
    let decisions = decision_ledger(events, &spans);
    RunAnalysis {
        t0,
        wall_secs: wall,
        spans: spans.len(),
        completed: spans.iter().filter(|s| s.completed_at.is_some()).count(),
        requeued: spans.iter().filter(|s| s.requeued).count(),
        critical_path,
        workers,
        decisions,
    }
}

/// Analyze a drained (or captured) trace.
pub fn analyze(trace: &Trace) -> RunAnalysis {
    analyze_events(&trace.events_sorted())
}

/// Parse a JSONL export (see [`crate::export::to_jsonl`]) back into the
/// event stream [`analyze_events`] consumes. The leading meta line is
/// optional and skipped; unknown lines fail loudly.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        if v.get("meta").is_some() {
            continue;
        }
        let event =
            Event::from_value(&v).map_err(|e| format!("line {}: bad event: {e}", i + 1))?;
        events.push(event);
    }
    events.sort_by(|a, b| a.t.total_cmp(&b.t));
    Ok(events)
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Render an analysis as the human-readable report `hetero-analyze`
/// prints.
pub fn render_report(a: &RunAnalysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run: {:.4}s wall, {} spans ({} completed, {} requeued)",
        a.wall_secs, a.spans, a.completed, a.requeued
    );
    let _ = writeln!(
        out,
        "\ncritical path: {} steps, {:.1}% of wall attributed",
        a.critical_path.steps.len(),
        100.0 * a.critical_path.coverage
    );
    for (name, secs) in a.critical_path.profile.named() {
        if secs > 0.0 {
            let _ = writeln!(
                out,
                "  {name:<12} {secs:>10.4}s  {:>5.1}%",
                pct(secs, a.wall_secs)
            );
        }
    }
    let (dom, dom_secs) = a.critical_path.profile.dominant();
    let _ = writeln!(
        out,
        "  dominant phase: {dom} ({:.1}% of wall)",
        pct(dom_secs, a.wall_secs)
    );
    if !a.workers.is_empty() {
        let _ = writeln!(
            out,
            "\nworkers (straggler first):\n  {:>3} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}  blame",
            "w", "batches", "busy_s", "queue_s", "stage_s", "compute_s", "merge_s", "util%"
        );
        for r in &a.workers {
            let _ = writeln!(
                out,
                "  {:>3} {:>7} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>6.1}  {}",
                r.worker,
                r.batches,
                r.busy_secs,
                r.queue_secs,
                r.phases.stage_secs,
                r.phases.compute_secs,
                r.phases.merge_secs,
                100.0 * r.utilization,
                r.blame
            );
        }
    }
    if !a.decisions.is_empty() {
        let _ = writeln!(
            out,
            "\ndecision ledger ({} resizes):\n  {:>10} {:>3} {:>7} {:>7} {:<8} {:>7} {:>9} {:>9} {:>9}",
            a.decisions.len(),
            "t",
            "w",
            "old",
            "new",
            "reason",
            "batches",
            "queue_s",
            "compute_s",
            "updates"
        );
        for d in &a.decisions {
            let _ = writeln!(
                out,
                "  {:>10.4} {:>3} {:>7} {:>7} {:<8} {:>7} {:>9.4} {:>9.4} {:>9}",
                d.t,
                d.worker,
                d.old,
                d.new,
                d.reason,
                d.window_batches,
                d.window_queue_secs,
                d.window_phases.compute_secs,
                d.window_updates
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::COORDINATOR;
    use crate::sink::TraceSink;

    /// Two workers ping-ponging through the coordinator, with queue wait
    /// and measured phases; exact virtual times make attribution exact.
    fn fixture() -> Trace {
        let sink = TraceSink::virtual_time(256);
        let phases = |c: f64, m: f64| BatchPhases {
            stage_secs: 0.0,
            compute_secs: c,
            transfer_secs: 0.0,
            merge_secs: m,
        };
        // Batch 1 on worker 0: dispatch 1.0, start 1.2, complete 2.0.
        sink.emit_at(1.0, 0, EventKind::BatchDispatched { id: 1, batch: 10 });
        sink.emit_at(1.2, 0, EventKind::BatchStarted { id: 1 });
        sink.emit_at(
            2.0,
            0,
            EventKind::BatchCompleted {
                id: 1,
                batch: 10,
                updates: 10,
                phases: phases(0.7, 0.1),
            },
        );
        // Batch 2 on worker 1: dispatch 2.5 (0.5 coordinator gap),
        // start 2.5, complete 4.0.
        sink.emit_at(2.5, 1, EventKind::BatchDispatched { id: 2, batch: 20 });
        sink.emit_at(2.5, 1, EventKind::BatchStarted { id: 2 });
        sink.emit_at(
            4.0,
            1,
            EventKind::BatchCompleted {
                id: 2,
                batch: 20,
                updates: 1,
                phases: phases(1.0, 0.25),
            },
        );
        sink.emit_at(
            4.1,
            1,
            EventKind::BatchResized {
                old: 20,
                new: 40,
                reason: crate::event::ResizeReason::Ahead,
            },
        );
        // Run tail: final eval at 4.5.
        sink.emit_at(4.5, COORDINATOR, EventKind::EvalPoint { loss: 0.3 });
        // First event at t=0 pins startup time.
        sink.emit_at(0.0, COORDINATOR, EventKind::EvalPoint { loss: 0.9 });
        sink.drain()
    }

    #[test]
    fn critical_path_attribution_is_exact_and_covers_wall() {
        let a = analyze(&fixture());
        assert_eq!(a.spans, 2);
        assert_eq!(a.completed, 2);
        assert!((a.wall_secs - 4.5).abs() < 1e-12);
        let p = &a.critical_path.profile;
        // startup [0,1.0]; queue [1.0,1.2]; batch1 busy 0.8 = 0.7 compute
        // + 0.1 merge; coordinator [2.0,2.5]; batch2 busy 1.5 = 1.0
        // compute + 0.25 merge + 0.25 residual; shutdown [4.0,4.5].
        assert!((p.startup_secs - 1.0).abs() < 1e-12);
        assert!((p.queue_secs - 0.2).abs() < 1e-12);
        assert!((p.compute_secs - 1.7).abs() < 1e-12);
        assert!((p.merge_secs - 0.35).abs() < 1e-12);
        assert!((p.coordinator_secs - 0.5).abs() < 1e-12);
        assert!((p.residual_secs - 0.25).abs() < 1e-12);
        assert!((p.shutdown_secs - 0.5).abs() < 1e-12);
        assert!((p.total() - a.wall_secs).abs() < 1e-9);
        assert!(a.critical_path.coverage > 0.95);
        assert_eq!(
            a.critical_path.steps.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    /// A two-deep dispatch window: both workers are primed with two
    /// batches each at t≈0, and topped up with one more at every
    /// completion, so every batch but the first of each worker sits parked
    /// behind the one before it. Exact virtual times again.
    fn windowed_fixture() -> Trace {
        let sink = TraceSink::virtual_time(256);
        let done = |id, c: f64| EventKind::BatchCompleted {
            id,
            batch: 8,
            updates: 1,
            phases: BatchPhases {
                compute_secs: c,
                ..BatchPhases::default()
            },
        };
        for (t, w, id) in [(0.0, 0, 1), (0.0, 0, 2), (0.1, 1, 3), (0.1, 1, 4)] {
            sink.emit_at(t, w, EventKind::BatchDispatched { id, batch: 8 });
        }
        // Worker 0: batch 1 runs [0.2, 1.0]; batch 2, parked since 0.0,
        // starts 0.05 after it and runs [1.05, 2.0]; batch 5 is the top-up
        // for batch 1 (dispatched 1.1, behind batch 2) and runs [2.0, 2.5].
        sink.emit_at(0.2, 0, EventKind::BatchStarted { id: 1 });
        sink.emit_at(1.0, 0, done(1, 0.8));
        sink.emit_at(1.05, 0, EventKind::BatchStarted { id: 2 });
        sink.emit_at(1.1, 0, EventKind::BatchDispatched { id: 5, batch: 8 });
        sink.emit_at(2.0, 0, done(2, 0.9));
        sink.emit_at(2.0, 0, EventKind::BatchStarted { id: 5 });
        sink.emit_at(2.5, 0, done(5, 0.5));
        // Worker 1: batch 3 runs [0.3, 1.5]; batch 4 runs [1.5, 3.0] and
        // is the last to complete. Its top-up never arrives: the schedule
        // is dry.
        sink.emit_at(0.3, 1, EventKind::BatchStarted { id: 3 });
        sink.emit_at(1.5, 1, done(3, 1.2));
        sink.emit_at(1.5, 1, EventKind::BatchStarted { id: 4 });
        sink.emit_at(3.0, 1, done(4, 1.4));
        sink.emit_at(3.2, COORDINATOR, EventKind::EvalPoint { loss: 0.3 });
        sink.drain()
    }

    #[test]
    fn a_parked_batch_is_ready_when_the_one_before_it_completes() {
        let trace = windowed_fixture();
        let spans = spans_from_events(&trace.events_sorted());
        let ready: Vec<(BatchId, f64)> = spans.iter().map(|s| (s.id, s.ready_at)).collect();
        assert_eq!(ready, [(1, 0.0), (2, 1.0), (3, 0.1), (4, 1.5), (5, 2.0)]);
        // Batch 2 waited 1.05 s in the exec queue, 0.05 s of it with its
        // worker free.
        assert!((spans[1].queue_secs() - 0.05).abs() < 1e-12);

        let a = analyze(&trace);
        // The path is worker 1's chain: batch 4 became ready when batch 3
        // completed — not "dispatched at 0.1, so enabled by nothing".
        let steps: Vec<BatchId> = a.critical_path.steps.iter().map(|s| s.id).collect();
        assert_eq!(steps, [3, 4]);
        let p = &a.critical_path.profile;
        // startup [0, 0.1]; queue [0.1, 0.3]; batch 3 busy 1.2, all
        // compute; batch 4 ready and started at 1.5, busy 1.5 = 1.4
        // compute + 0.1 residual; shutdown [3.0, 3.2]. Nothing waited on
        // the coordinator.
        assert!((p.startup_secs - 0.1).abs() < 1e-12);
        assert!((p.queue_secs - 0.2).abs() < 1e-12);
        assert!((p.compute_secs - 2.6).abs() < 1e-12);
        assert!((p.residual_secs - 0.1).abs() < 1e-12);
        assert_eq!(p.coordinator_secs, 0.0);
        assert!((p.shutdown_secs - 0.2).abs() < 1e-12);
        assert!((p.total() - a.wall_secs).abs() < 1e-9);
        // Worker 0 was starved for 0.2 + 0.05 s, not for the 3.1 s its
        // batches spent dispatched-but-parked.
        let w0 = a.workers.iter().find(|r| r.worker == 0).unwrap();
        assert!((w0.queue_secs - 0.25).abs() < 1e-12);
        assert!((w0.busy_secs - 2.25).abs() < 1e-12);
    }

    #[test]
    fn worker_reports_rank_stragglers_and_blame() {
        let a = analyze(&fixture());
        assert_eq!(a.workers.len(), 2);
        // Worker 0 busy 0.8/4.5 < worker 1 busy 1.5/4.5 → w0 is the
        // bigger straggler and sorts first.
        assert_eq!(a.workers[0].worker, 0);
        assert_eq!(a.workers[0].blame, "queue-starvation");
        assert_eq!(a.workers[1].worker, 1);
        assert_eq!(a.workers[1].blame, "queue-starvation");
        assert!((a.workers[1].busy_secs - 1.5).abs() < 1e-12);
        assert_eq!(a.workers[1].updates, 1);
    }

    #[test]
    fn decision_ledger_pairs_resize_with_its_window() {
        let a = analyze(&fixture());
        assert_eq!(a.decisions.len(), 1);
        let d = &a.decisions[0];
        assert_eq!((d.worker, d.old, d.new), (1, 20, 40));
        assert_eq!(d.reason, "Ahead");
        assert_eq!(d.window_batches, 1);
        assert_eq!(d.window_updates, 1);
        assert!((d.window_phases.compute_secs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_roundtrip_reproduces_the_analysis() {
        let trace = fixture();
        let direct = analyze(&trace);
        let jsonl = crate::export::to_jsonl(&trace);
        let events = parse_jsonl(&jsonl).expect("parses");
        let via_jsonl = analyze_events(&events);
        assert_eq!(direct, via_jsonl);
        let report = render_report(&via_jsonl);
        assert!(report.contains("critical path"));
        assert!(report.contains("dominant phase"));
        assert!(report.contains("decision ledger"));
    }

    #[test]
    fn unfinished_and_requeued_spans_do_not_break_attribution() {
        let sink = TraceSink::virtual_time(64);
        sink.emit_at(0.0, 0, EventKind::BatchDispatched { id: 1, batch: 8 });
        sink.emit_at(
            0.5,
            COORDINATOR,
            EventKind::BatchRequeued { id: 1, batch: 8 },
        );
        sink.emit_at(0.6, 1, EventKind::BatchDispatched { id: 2, batch: 8 });
        sink.emit_at(0.6, 1, EventKind::BatchStarted { id: 2 });
        sink.emit_at(
            1.0,
            1,
            EventKind::BatchCompleted {
                id: 2,
                batch: 8,
                updates: 1,
                phases: BatchPhases::default(),
            },
        );
        let a = analyze(&sink.drain());
        assert_eq!((a.spans, a.completed, a.requeued), (2, 1, 1));
        assert!(a.critical_path.coverage > 0.95);
        assert!(a.critical_path.profile.total() <= a.wall_secs + 1e-9);
    }

    #[test]
    fn empty_trace_analyzes_to_zeros() {
        let a = analyze_events(&[]);
        assert_eq!(a.wall_secs, 0.0);
        assert_eq!(a.spans, 0);
        assert!(a.critical_path.steps.is_empty());
    }
}
