//! The coordinator core shared by both engines (paper §V: *one*
//! generic framework, algorithms as instantiations of it).
//!
//! [`Coordinator`] owns the state and policy every run needs regardless
//! of its clock: per-worker accounting, the Algorithm 2 batch-size
//! controller, the loss curve, the re-queue of ranges lost to faults,
//! batch lineage ids, the health-watchdog reactions, the checkpoint
//! envelope and the result epilogue. An engine keeps only what genuinely
//! differs — its clock (`Instant` vs `EventQueue`), how a batch executes,
//! and its tail of the checkpoint — and drives the coordinator through a
//! handful of calls: [`Coordinator::next_dispatch`] → (engine executes) →
//! [`Coordinator::completed`], [`Coordinator::eval_point`] at every loss
//! evaluation, [`Coordinator::poll_health`] between events, and
//! [`Coordinator::finish`] for the [`TrainResult`].
//!
//! Time stamps: the coordinator always emits with [`TraceSink::emit`], so
//! events carry the sink's own clock — wall seconds since the sink was
//! created on the threaded engine, and on the simulation engine the
//! instant it last published with [`TraceSink::set_virtual_now`] (it
//! publishes at every event-loop step before calling in here). Observation never feeds back: with every
//! [`RunCtx`] field disabled each call below reduces to the bookkeeping
//! the schedule itself needs, which is why an observed simulation is
//! bit-identical to an unobserved one.

use std::collections::VecDeque;
use std::time::Instant;

use hetero_ckpt::Checkpointer;
use hetero_data::batch::BatchRange;
use hetero_data::{BatchScheduler, DenseDataset};
use hetero_flight::{
    FlightRecorder, HealthAction, HealthSnapshot, Provenance, Watchdog, WatchdogState,
};
use hetero_metrics::{HistHandle, Metric, MetricsHub, GLOBAL_WORKER};
use hetero_nn::{MergeScan, Model};
use hetero_sim::UtilizationTimeline;
use hetero_trace::{CounterHandle, EventKind, GaugeHandle, TimeDomain, TraceSink, COORDINATOR};
use serde::{Deserialize, Serialize};

use crate::adaptive::{AdaptiveController, WorkerBatchState};
use crate::config::TrainConfig;
use crate::fault::WorkerError;
use crate::metrics::{LossPoint, TrainResult, WorkerKind, WorkerStats};

/// Everything optional about a run: where its events, metrics, health
/// record and checkpoints go. `RunCtx::default()` disables all four, and a
/// disabled field is exactly the run without it — `run_with(dataset,
/// &RunCtx::default())` is `run(dataset)`.
pub struct RunCtx {
    /// Structured tracing: every batch dispatch/start/completion, adaptive
    /// resize, queue operation, GPU transfer/kernel, model merge, eval
    /// point and worker fault flows through this sink. Use
    /// [`TraceSink::wall`] with the threaded engine (events are stamped
    /// with wall seconds since the sink was created) and
    /// [`TraceSink::virtual_time`] with the simulation engine (events are
    /// stamped with **virtual** seconds; tracing never feeds back into the schedule, so the run
    /// stays deterministic). The run's gauges (`worker.<w>.*`,
    /// `engine.*`, `ckpt.*`, `health.*`) are published here too, and reach
    /// the trace export and the postmortem bundle with its counters.
    pub sink: TraceSink,
    /// Per-worker histograms: batch latency, queue wait, H2D/D2H transfer
    /// time, merge wait/retries, gradient staleness (virtual-time
    /// durations on the simulation engine), and the checkpoint write
    /// latency. Fills [`TrainResult::staleness`].
    pub hub: MetricsHub,
    /// Black-box flight recorder. Its watchdog observes per-layer
    /// gradient norms and NaN/±Inf counts from every worker hot path and
    /// the loss at every eval point, enforcing its
    /// [`hetero_flight::HealthPolicy`]: warnings are traced as health
    /// events, clamps freeze the adaptive controller at the current batch
    /// sizes, an abort stops the run with the reason in
    /// [`TrainResult::aborted`]. Any abnormal end (watchdog trip, worker
    /// retirement, all-workers-dead abort) dumps a postmortem bundle whose
    /// path lands in [`hetero_flight::HealthSummary::postmortem`]. When
    /// `sink` is disabled the recorder supplies its own bounded
    /// drop-oldest sink, so a postmortem always embeds the recent-event
    /// window. Observation alone never changes a run; only an explicit
    /// policy *action* (clamp, abort) does.
    pub flight: FlightRecorder,
    /// Crash-consistent checkpointing at the checkpointer's cadence, in
    /// the engine's clock. With `resume: true` the newest valid generation
    /// is restored before training. The simulation engine freezes its
    /// complete state between events — every in-flight event with its
    /// model snapshot included — and **continues bit-identically**. The
    /// threaded engine cannot (workers race the capture): it stores the
    /// statistically sufficient state — a racy-read model image, the
    /// schedule cursor, the controller, and every in-flight range,
    /// re-queued on resume so no example is dropped — and a resumed run
    /// is a fresh set of threads continuing the same trajectory.
    pub ckpt: Checkpointer,
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx {
            sink: TraceSink::disabled(),
            hub: MetricsHub::disabled(),
            flight: FlightRecorder::disabled(),
            ckpt: Checkpointer::disabled(),
        }
    }
}

/// What an engine tells [`Coordinator::new`] about the run it is starting.
pub(crate) struct Setup<'a> {
    /// Provenance name of the engine (`threaded` / `sim`).
    pub engine: &'static str,
    /// Clock the engine runs on (picks the recorder's fallback sink).
    pub domain: TimeDomain,
    /// Label for [`TrainResult::algorithm`].
    pub algorithm: &'a str,
    pub train: &'a TrainConfig,
    pub dataset: &'a DenseDataset,
    /// Layers of the network (sizes the watchdog's per-layer table).
    pub layers: usize,
    /// One slot per worker with its initial batch-size state.
    pub workers: Vec<(WorkerKind, WorkerBatchState)>,
}

/// Initial batch state of a CPU worker with `lanes` Hogwild threads over
/// `n` examples. Paper §VI: an adaptive run starts the CPU at its *lower*
/// threshold (one example per thread = Hogwild); a static run pins it at
/// `cpu_batch_per_thread` per lane.
pub(crate) fn cpu_batch_state(train: &TrainConfig, lanes: usize, n: usize) -> WorkerBatchState {
    let n = n.max(1);
    if train.algorithm.is_adaptive() {
        let min_b = train.adaptive.cpu_min_batch.max(lanes).min(n);
        WorkerBatchState::new(min_b, min_b, train.adaptive.cpu_max_batch.max(min_b))
    } else {
        let b = (train.cpu_batch_per_thread * lanes).min(n).max(1);
        WorkerBatchState::new(b, b, b)
    }
}

/// Initial batch state of a GPU worker whose device memory holds at most
/// `mem_cap` examples (§VI-B). An adaptive run starts the GPU at its
/// *upper* threshold; a static run pins it at `gpu_batch`.
pub(crate) fn gpu_batch_state(train: &TrainConfig, mem_cap: usize) -> WorkerBatchState {
    if train.algorithm.is_adaptive() {
        let max_b = train.adaptive.gpu_max_batch.min(mem_cap).max(1);
        let min_b = train.adaptive.gpu_min_batch.min(max_b).max(1);
        WorkerBatchState::new(max_b, min_b, max_b)
    } else {
        let b = train.gpu_batch.min(mem_cap).max(1);
        WorkerBatchState::new(b, b, b)
    }
}

/// Feed one per-layer gradient scan to the watchdog. `step` is the
/// worker's 0-based batch counter, named in the postmortem when this
/// observation trips the policy. Called from the audited worker hot paths:
/// it must stay allocation-free.
pub(crate) fn observe_scan(watchdog: &Watchdog, worker: usize, step: u64, scan: &MergeScan) {
    for (l, ls) in scan.layers().iter().enumerate() {
        watchdog.observe_layer(worker as u32, l, step, ls.sumsq, ls.nonfinite);
    }
}

/// Record a busy interval on `timeline`, clamped monotone (wall-clock
/// segments from a racing worker can jitter backwards); a segment the
/// timeline still refuses is counted on `rejects`, never a panic. Returns
/// the level-weighted busy seconds recorded.
pub(crate) fn record_busy(
    timeline: &mut UtilizationTimeline,
    rejects: &CounterHandle,
    start: f64,
    end: f64,
    level: f64,
) -> f64 {
    let start = start.max(timeline.horizon());
    let end = end.max(start);
    if timeline.try_record(start, end, level).is_err() {
        rejects.add(1);
        return 0.0;
    }
    (end - start) * level
}

/// Per-worker counters a resumed run continues from. The watchdog's
/// per-layer step numbers and the fault plan's `death_after`/`poison_at`
/// sites key off `batches`.
#[derive(Serialize, Deserialize)]
struct WorkerCkpt {
    updates: f64,
    batches: u64,
    examples: u64,
    retired: Option<String>,
}

/// The checkpoint envelope common to every engine: what the coordinator
/// owns, plus the model image. An engine embeds it in its own state struct
/// next to its tail (schedule cursor, pending events, …).
#[derive(Serialize, Deserialize)]
pub(crate) struct CoreCkpt {
    /// Rejects checkpoints from another engine or layout whole.
    pub schema: String,
    /// Engine time of the capture, summed across incarnations.
    pub t: f64,
    pub model: Model,
    controller: AdaptiveController,
    curve: Vec<LossPoint>,
    workers: Vec<WorkerCkpt>,
    /// Ranges the scheduler already counted that still need a worker.
    pub requeue: Vec<BatchRange>,
    requeued_batches: u64,
    next_batch_id: u64,
    watchdog: WatchdogState,
}

#[cfg(test)]
impl CoreCkpt {
    /// Examples the workers had been credited with at the capture.
    pub fn examples_trained(&self) -> u64 {
        self.workers.iter().map(|w| w.examples).sum()
    }
}

/// One range handed to a worker that has not reported back on it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Dispatched {
    id: u64,
    range: BatchRange,
    /// Straight from the scheduler, which counted it at this dispatch — a
    /// re-queued range was counted when it was first handed out.
    fresh: bool,
}

/// The gauges of one worker (`worker.<w>.*`), resolved once and refreshed
/// on every completion, so a drained trace or a postmortem bundle taken at
/// any moment reads current values; one naming for both engines.
struct WorkerGauges {
    updates: GaugeHandle,
    batch: GaugeHandle,
    examples: GaugeHandle,
    busy_secs: GaugeHandle,
}

/// See the module docs.
pub(crate) struct Coordinator<'a> {
    ctx: &'a RunCtx,
    train: &'a TrainConfig,
    algorithm: String,
    dataset: String,
    /// The run's sink: the caller's, or — the recorder's retention window
    /// needs *some* sink — the recorder's bounded ring when the caller's
    /// is disabled.
    pub sink: TraceSink,
    pub watchdog: Watchdog,
    pub stats: Vec<WorkerStats>,
    pub controller: AdaptiveController,
    curve: Vec<LossPoint>,
    requeue: VecDeque<BatchRange>,
    /// Per worker, oldest first: the range it is on, then the ranges
    /// parked behind it (the threaded engine dispatches ahead; the
    /// simulation keeps one).
    in_flight: Vec<VecDeque<Dispatched>>,
    requeued_batches: u64,
    /// Monotone batch lineage ids. Starting at 1 keeps 0 free as an
    /// "unset" marker in diagnostics; a resumed run continues past the
    /// ids of its previous incarnation so a trace never sees one reused.
    next_batch_id: u64,
    /// Level-weighted busy seconds per worker (running sum of what
    /// `busy` recorded — the timeline itself is O(segments) to total).
    busy_secs: Vec<f64>,
    aborted: Option<String>,
    worker_gauges: Vec<WorkerGauges>,
    g_loss: GaugeHandle,
    g_epochs: GaugeHandle,
    g_ckpt_gen: GaugeHandle,
    g_ckpt_bytes: GaugeHandle,
    g_ckpt_age: GaugeHandle,
    ckpt_write: HistHandle,
    faults: CounterHandle,
    requeues: CounterHandle,
    pub timeline_rejects: CounterHandle,
}

impl<'a> Coordinator<'a> {
    pub fn new(setup: Setup<'a>, ctx: &'a RunCtx) -> Self {
        let Setup {
            engine,
            domain,
            algorithm,
            train,
            dataset,
            layers,
            workers,
        } = setup;
        let sink = if ctx.flight.enabled() && !ctx.sink.enabled() {
            ctx.flight.make_sink(domain)
        } else {
            ctx.sink.clone()
        };
        let watchdog = ctx.flight.watchdog();
        watchdog.ensure_layers(layers);
        if ctx.flight.enabled() {
            ctx.flight.set_provenance(Provenance {
                engine: engine.into(),
                algorithm: algorithm.to_string(),
                dataset: dataset.name.clone(),
                workers: workers.len(),
                config_json: serde_json::to_string(train).unwrap_or_default(),
                git_sha: hetero_flight::read_git_sha(),
                simd_level: format!("{:?}", hetero_tensor::simd::active_level()),
            });
        }
        let worker_gauges = workers
            .iter()
            .enumerate()
            .map(|(w, (kind, _))| {
                sink.gauge(&format!("worker.{w}.kind")).set(match kind {
                    WorkerKind::Cpu => 0.0,
                    WorkerKind::Gpu => 1.0,
                });
                WorkerGauges {
                    updates: sink.gauge(&format!("worker.{w}.updates")),
                    batch: sink.gauge(&format!("worker.{w}.batch")),
                    examples: sink.gauge(&format!("worker.{w}.examples")),
                    busy_secs: sink.gauge(&format!("worker.{w}.busy_secs")),
                }
            })
            .collect();
        let (kinds, states): (Vec<WorkerKind>, Vec<WorkerBatchState>) = workers.into_iter().unzip();
        Coordinator {
            ctx,
            train,
            algorithm: algorithm.to_string(),
            dataset: dataset.name.clone(),
            watchdog,
            stats: kinds.iter().map(|k| WorkerStats::new(*k)).collect(),
            // A run whose states are pinned (min = max) never resizes, so
            // the static algorithms reuse the same plumbing.
            controller: AdaptiveController::new(
                train.adaptive.alpha,
                train.algorithm.is_adaptive(),
                states,
            ),
            curve: Vec::new(),
            requeue: VecDeque::new(),
            in_flight: vec![VecDeque::new(); kinds.len()],
            requeued_batches: 0,
            next_batch_id: 1,
            busy_secs: vec![0.0; kinds.len()],
            aborted: None,
            worker_gauges,
            g_loss: sink.gauge("engine.loss"),
            g_epochs: sink.gauge("engine.epochs"),
            g_ckpt_gen: sink.gauge("ckpt.generation"),
            g_ckpt_bytes: sink.gauge("ckpt.bytes"),
            g_ckpt_age: sink.gauge("ckpt.age_secs"),
            ckpt_write: ctx.hub.histogram(Metric::CkptWrite, GLOBAL_WORKER),
            faults: sink.counter("engine.faults"),
            requeues: sink.counter("engine.requeues"),
            timeline_rejects: sink.counter("engine.timeline_rejects"),
            sink,
        }
    }

    pub fn workers(&self) -> usize {
        self.stats.len()
    }

    /// Whether worker `w` has been quarantined.
    pub fn retired(&self, w: usize) -> bool {
        self.stats[w].retired.is_some()
    }

    // --- Dispatch -----------------------------------------------------------

    /// Algorithm 2's `ScheduleWork`: recompute worker `w`'s batch size,
    /// pick its next range and give the dispatch a fresh lineage id (a
    /// re-queued range gets a new id too; `BatchRequeued` links the fault
    /// chain by the old one). `None` once the schedule is exhausted — and
    /// always for a retired worker, which is never dispatched to.
    ///
    /// Re-queued ranges are served *before* the scheduler, which counted
    /// them when it first handed them out — so they are never re-counted
    /// in `examples_served` / `epochs_elapsed`.
    ///
    /// The range joins the back of `w`'s window: a worker that already
    /// holds one parks it, and the resize above is the one that applies to
    /// the next unassigned range.
    pub fn next_dispatch(
        &mut self,
        w: usize,
        scheduler: &mut BatchScheduler,
    ) -> Option<(u64, BatchRange)> {
        if self.retired(w) {
            return None;
        }
        let size = self.controller.on_request_traced(w, &self.sink);
        let (range, fresh) = match self.requeue.pop_front() {
            Some(r) => (r, false),
            None => (scheduler.next_batch(size).filter(|r| !r.is_empty())?, true),
        };
        let id = self.next_batch_id;
        self.next_batch_id += 1;
        // Stamped with the *target* worker, so a batch that never starts
        // still shows whose starvation it was.
        self.sink.emit(
            w as u32,
            EventKind::BatchDispatched {
                id,
                batch: range.len(),
            },
        );
        self.in_flight[w].push_back(Dispatched { id, range, fresh });
        Some((id, range))
    }

    /// Ranges worker `w` holds: the one it is on plus those parked behind.
    pub fn window(&self, w: usize) -> usize {
        self.in_flight[w].len()
    }

    /// The loss curve's epoch coordinate: examples served, less those
    /// parked behind a worker's current range — a range counts from the
    /// moment a worker can be on it, which is what `epochs_elapsed` alone
    /// means with one range per worker (the simulation: nothing is ever
    /// parked, and the two are the same number). Only a fresh range is
    /// held back: the scheduler counted a re-queued one long ago, and
    /// taking it out again would walk the coordinate backwards.
    pub fn epochs_elapsed(&self, scheduler: &BatchScheduler) -> f64 {
        let parked: usize = self
            .in_flight
            .iter()
            .flat_map(|window| window.iter().skip(1))
            .filter(|d| d.fresh)
            .map(|d| d.range.len())
            .sum();
        (scheduler.examples_served() - parked as u64) as f64 / scheduler.len() as f64
    }

    /// Record worker `w`'s busy interval `[start, end]` at utilization
    /// `level`.
    pub fn busy(&mut self, w: usize, start: f64, end: f64, level: f64) {
        self.busy_secs[w] += record_busy(
            &mut self.stats[w].timeline,
            &self.timeline_rejects,
            start,
            end,
            level,
        );
    }

    /// Credit worker `w` with one finished batch of `examples` rows that
    /// applied `updates` model updates. Algorithm 2's `uᴱ ← uᴱ + t·β`: a
    /// CPU worker's Hogwild updates count `t·β` (β = `adaptive.beta`, the
    /// surviving fraction), a GPU worker's count in full — in the
    /// controller and in the worker's stats alike.
    pub fn credit(&mut self, w: usize, updates: u64, examples: u64) {
        // `hetero_credit_ignores_beta` is a mutation switch for
        // `scripts/check_mutation.sh`.
        let beta = match self.stats[w].kind {
            WorkerKind::Cpu if !cfg!(hetero_credit_ignores_beta) => self.train.adaptive.beta,
            _ => 1.0,
        };
        let updates = updates as f64 * beta;
        self.controller.report_updates(w, updates);
        let s = &mut self.stats[w];
        s.updates += updates;
        s.batches += 1;
        s.examples += examples;
    }

    /// Worker `w`'s dispatch `id` came back: it leaves the front of the
    /// window (a worker runs its ranges in the order it got them), and the
    /// worker gauges are refreshed from the (already credited) stats.
    pub fn completed(&mut self, w: usize, id: u64) {
        // `hetero_completed_pops_back` is a mutation switch for
        // `scripts/check_mutation.sh`.
        let done = if cfg!(hetero_completed_pops_back) {
            self.in_flight[w].pop_back()
        } else {
            self.in_flight[w].pop_front()
        };
        // A retired worker's window already went back to the queue.
        debug_assert!(
            self.retired(w) || done.map(|d| d.id) == Some(id),
            "worker {w} reported batch {id}, the front of its window was {done:?}"
        );
        if self.sink.enabled() {
            let (s, g) = (&self.stats[w], &self.worker_gauges[w]);
            g.updates.set(s.updates);
            g.batch.set(self.controller.batch(w) as f64);
            g.examples.set(s.examples as f64);
            g.busy_secs.set(self.busy_secs[w]);
        }
    }

    /// Return a range to the dispatch queue (in-flight work of a dead
    /// worker, or the tail an OOM shrink left behind). `id` is the lineage
    /// id of the dispatch the range came from.
    pub fn requeue(&mut self, id: u64, range: BatchRange) {
        self.requeued_batches += 1;
        self.requeues.add(1);
        self.sink.emit(
            COORDINATOR,
            EventKind::BatchRequeued {
                id,
                batch: range.len(),
            },
        );
        self.requeue.push_back(range);
    }

    /// Ranges currently dispatched and not yet completed, parked ones
    /// included.
    pub fn in_flight(&self) -> impl Iterator<Item = BatchRange> + '_ {
        self.in_flight.iter().flatten().map(|d| d.range)
    }

    /// A resumed simulation's pending completion: worker `w` is on `range`
    /// again (the envelope does not carry the windows — the threaded
    /// engine folds them into the re-queue instead).
    pub fn adopt(&mut self, w: usize, id: u64, range: BatchRange) {
        self.in_flight[w].push_back(Dispatched {
            id,
            range,
            fresh: true,
        });
    }

    /// Quarantine worker `w`: record why and return its whole window (the
    /// range it was on and any parked behind it), oldest first, to the
    /// dispatch queue. Idempotent — but a typed fault that
    /// lost the race to the generic disconnect sweep still carries the
    /// real reason, so it replaces it.
    pub fn retire(&mut self, w: usize, error: &WorkerError) {
        if let Some(existing) = &self.stats[w].retired {
            if existing.starts_with("channel disconnected")
                && !matches!(error, WorkerError::Disconnected(_))
            {
                self.stats[w].retired = Some(error.to_string());
            }
            return;
        }
        let reason = error.to_string();
        self.stats[w].retired = Some(reason.clone());
        self.faults.add(1);
        if self.sink.enabled() {
            self.sink.emit(
                w as u32,
                EventKind::WorkerFault {
                    reason: reason.clone(),
                },
            );
            self.sink
                .emit(w as u32, EventKind::WorkerRetired { reason });
        }
        for d in std::mem::take(&mut self.in_flight[w]) {
            self.requeue(d.id, d.range);
            // A mutation switch for `scripts/check_mutation.sh`.
            if cfg!(hetero_retire_front_only) {
                break;
            }
        }
    }

    // --- Loss curve and health ------------------------------------------------

    fn record_point(&mut self, point: LossPoint) {
        self.g_loss.set(point.loss as f64);
        self.g_epochs.set(point.epochs);
        self.sink.emit(
            COORDINATOR,
            EventKind::EvalPoint {
                loss: point.loss as f64,
            },
        );
        self.curve.push(point);
    }

    /// The engine's clock starts now: publish the wall seconds since
    /// `entered` (`run_with`'s first line) as `engine.startup_s` — model
    /// initialisation and the sparse run's CSR compression, which no loss
    /// point's `time` and no `TrainResult::duration` counts.
    pub fn clock_starts(&self, entered: Instant) {
        self.sink
            .gauge("engine.startup_s")
            .set(entered.elapsed().as_secs_f64());
    }

    /// The loss before any update (a resumed run restores its curve
    /// instead). Seeds the watchdog's divergence/stall baseline — the
    /// first observation never reacts.
    pub fn initial_point(&mut self, point: LossPoint) {
        self.record_point(point);
        self.watchdog.observe_eval(point.loss as f64);
    }

    /// One periodic loss evaluation: curve, gauges, the watchdog's loss
    /// policy, and the recorder's controller-state snapshot.
    pub fn eval_point(&mut self, point: LossPoint) {
        self.record_point(point);
        let loss = point.loss as f64;
        match self.watchdog.observe_eval(loss) {
            HealthAction::Warn => {
                self.health_event("warn", format!("eval health warning at loss {loss:.4}"));
            }
            HealthAction::Clamp => {
                self.freeze_batches(format!("batch growth frozen at loss {loss:.4}"));
            }
            // Abort: the trip flag is set; the next `poll_health` turns it
            // into the abort.
            HealthAction::Ignore | HealthAction::Abort => {}
        }
        self.poll_clamp_request();
        let (flight, ckpt) = (&self.ctx.flight, &self.ctx.ckpt);
        if ckpt.enabled() {
            self.g_ckpt_age
                .set(point.time - ckpt.last_saved_at().unwrap_or(0.0));
        }
        if flight.enabled() {
            let stale = self.ctx.hub.summary(Metric::Staleness);
            let h = self.watchdog.summary();
            flight.record_snapshot(HealthSnapshot {
                t: point.time,
                loss,
                epochs: point.epochs,
                batches: (0..self.workers())
                    .map(|w| self.controller.batch(w))
                    .collect(),
                staleness_p50: stale.as_ref().map(|s| s.p50),
                staleness_p99: stale.as_ref().map(|s| s.p99),
                grad_peak_norm: h.peak_grad_norm,
            });
            // Per-layer gradient-norm gauges for the trace export and
            // postmortems.
            if self.sink.enabled() {
                for (l, n) in h.layer_peak_norms.iter().enumerate() {
                    self.sink
                        .gauge(&format!("health.layer.{l}.grad_norm"))
                        .set(*n);
                }
                self.sink
                    .gauge("health.nonfinite")
                    .set(h.nonfinite_events as f64);
            }
        }
    }

    /// Health policy enforcement between events. Returns `true` when the
    /// run must stop: an abort raised from any worker hot path (or an
    /// earlier eval) has tripped the watchdog. A pending clamp request
    /// freezes the adaptive controller at the current batch sizes.
    pub fn poll_health(&mut self) -> bool {
        if self.poll_trip() {
            return true;
        }
        self.poll_clamp_request();
        false
    }

    fn poll_trip(&mut self) -> bool {
        if self.aborted.is_none() {
            if let Some(reason) = self.watchdog.tripped() {
                self.aborted = Some(format!("health watchdog: {reason}"));
                self.health_event("abort", reason);
            }
        }
        self.aborted.is_some()
    }

    fn poll_clamp_request(&mut self) {
        if self.watchdog.take_clamp_request() {
            self.freeze_batches("batch growth frozen on worker health report".to_string());
        }
    }

    fn freeze_batches(&mut self, detail: String) {
        for w in 0..self.workers() {
            self.controller.clamp_max_batch(w, self.controller.batch(w));
        }
        self.watchdog.note_clamp();
        self.health_event("clamp", detail);
    }

    fn health_event(&self, action: &str, detail: String) {
        self.sink.emit(
            COORDINATOR,
            EventKind::HealthEvent {
                action: action.to_string(),
                detail,
            },
        );
    }

    // --- Checkpoint -------------------------------------------------------------

    /// Freeze the coordinator-owned state plus `model` at engine time `t`.
    /// Reads everything and mutates nothing, so the schedule and the math
    /// are untouched whether or not a checkpoint is written.
    pub fn capture(&self, schema: &str, t: f64, model: &Model) -> CoreCkpt {
        CoreCkpt {
            schema: schema.to_string(),
            t,
            model: model.clone(),
            controller: self.controller.clone(),
            curve: self.curve.clone(),
            workers: self
                .stats
                .iter()
                .map(|s| WorkerCkpt {
                    updates: s.updates,
                    batches: s.batches,
                    examples: s.examples,
                    retired: s.retired.clone(),
                })
                .collect(),
            requeue: self.requeue.iter().copied().collect(),
            requeued_batches: self.requeued_batches,
            next_batch_id: self.next_batch_id,
            watchdog: self.watchdog.export_state(),
        }
    }

    /// Publish an engine state (embedding a [`Coordinator::capture`])
    /// through `hetero-ckpt`'s atomic-rename path and report it on the
    /// `ckpt.*` gauges, the write-latency histogram and the recorder's
    /// "resumable from" note.
    pub fn save<T: Serialize>(&self, t: f64, state: &T) {
        if let Some(report) = self.ctx.ckpt.save(t, state) {
            self.g_ckpt_gen.set(report.generation as f64);
            self.g_ckpt_bytes.set(report.bytes as f64);
            self.ckpt_write.record_secs(report.write_secs);
            self.ctx
                .flight
                .set_resumable_from(report.path.display().to_string());
        }
    }

    /// The newest valid checkpoint, when the run was asked to resume and
    /// the file is this engine's: the schema tag rejects another engine's
    /// (or an older layout's) file, the worker-count guard a differently
    /// shaped run's. `core` picks the envelope out of the engine's state.
    pub fn load<T: Deserialize>(&self, schema: &str, core: impl Fn(&T) -> &CoreCkpt) -> Option<T> {
        self.ctx.ckpt.resume_state::<T>().filter(|s| {
            let c = core(s);
            c.schema == schema && c.workers.len() == self.workers()
        })
    }

    /// Replace the freshly initialized coordinator state wholesale with a
    /// loaded envelope and hand back its model image.
    pub fn restore(&mut self, core: CoreCkpt) -> Model {
        self.controller = core.controller;
        self.curve = core.curve;
        for (stat, w) in self.stats.iter_mut().zip(core.workers) {
            stat.updates = w.updates;
            stat.batches = w.batches;
            stat.examples = w.examples;
            stat.retired = w.retired;
        }
        self.requeue = core.requeue.into();
        self.requeued_batches = core.requeued_batches;
        self.next_batch_id = core.next_batch_id;
        self.watchdog.restore_state(&core.watchdog);
        self.ctx.ckpt.resume_mark(core.t);
        self.sink.counter("ckpt.resumes").add(1);
        core.model
    }

    // --- Epilogue -----------------------------------------------------------------

    /// Close the run: the final loss `last` (its `epochs` is the run's),
    /// final gauges, the abort reason, the black-box dump on any abnormal
    /// end (watchdog trip, a retired worker, the all-dead abort), and the
    /// [`TrainResult`]. `duration` is the total training time across
    /// incarnations.
    pub fn finish(mut self, last: LossPoint, duration: f64) -> TrainResult {
        self.record_point(last);
        for (w, s) in self.stats.iter_mut().enumerate() {
            s.final_batch = self.controller.batch(w);
            s.summarize_timeline();
        }
        if self.sink.enabled() {
            let examples: u64 = self.stats.iter().map(|s| s.examples).sum();
            self.sink
                .gauge("engine.examples_per_sec")
                .set(examples as f64 / duration.max(1e-9));
            self.sink.gauge("engine.beta").set(self.train.adaptive.beta);
        }
        // A trip raised by the very last batch has not been polled yet.
        self.poll_trip();
        let any_retired = self.stats.iter().any(|s| s.retired.is_some());
        let aborted = self.aborted.take().or_else(|| {
            self.stats
                .iter()
                .all(|s| s.retired.is_some())
                .then(|| "all workers retired by faults".to_string())
        });
        let flight = &self.ctx.flight;
        let mut health = self.watchdog.enabled().then(|| self.watchdog.summary());
        if flight.enabled() && (aborted.is_some() || any_retired) {
            let reason = aborted.as_deref().unwrap_or("worker retirement");
            // `capture` copies the retained window without draining, so
            // the caller's own `drain` still sees the full trace.
            let path = flight.dump(reason, self.sink.capture(), &self.ctx.hub);
            if let (Some(h), Some(p)) = (health.as_mut(), path) {
                h.postmortem = Some(p);
            }
        }
        TrainResult {
            algorithm: self.algorithm,
            dataset: self.dataset,
            loss_curve: self.curve,
            workers: self.stats,
            duration,
            epochs: last.epochs,
            trace_path: None,
            requeued_batches: self.requeued_batches,
            aborted,
            staleness: self.ctx.hub.summary(Metric::Staleness),
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine_threads::DISPATCH_WINDOW;
    use hetero_data::SynthConfig;
    use proptest::prelude::*;

    fn range(start: usize, end: usize) -> BatchRange {
        BatchRange {
            start,
            end,
            epoch: 0,
        }
    }

    /// Two pinned workers (CPU 4, GPU 16).
    const PINNED: [(usize, usize); 2] = [(4, 4), (16, 16)];

    /// One CPU worker, then GPU workers, with the given `[min_b, max_b]`,
    /// started the way the engines start them: the CPU at its floor, the
    /// GPUs at their ceilings.
    fn coordinator<'a>(
        train: &'a TrainConfig,
        data: &'a DenseDataset,
        ctx: &'a RunCtx,
        bounds: &[(usize, usize)],
    ) -> Coordinator<'a> {
        let workers = bounds.iter().enumerate().map(|(w, &(lo, hi))| match w {
            0 => (WorkerKind::Cpu, WorkerBatchState::new(lo, lo, hi)),
            _ => (WorkerKind::Gpu, WorkerBatchState::new(hi, lo, hi)),
        });
        Coordinator::new(
            Setup {
                engine: "test",
                domain: TimeDomain::Virtual,
                algorithm: "test",
                train,
                dataset: data,
                layers: 2,
                workers: workers.collect(),
            },
            ctx,
        )
    }

    fn end_point(epochs: f64) -> LossPoint {
        LossPoint {
            time: 1.0,
            epochs,
            loss: 0.5,
            accuracy: 0.5,
        }
    }

    #[test]
    fn requeued_ranges_are_served_before_the_scheduler_and_never_recounted() {
        let (train, data, ctx) = (
            TrainConfig::default(),
            SynthConfig::small(100, 4, 2, 1).generate(),
            RunCtx::default(),
        );
        let mut co = coordinator(&train, &data, &ctx, &PINNED);
        let mut scheduler = BatchScheduler::new(data.len(), None);
        let (id0, first) = co.next_dispatch(0, &mut scheduler).unwrap();
        assert_eq!((first.start, first.end), (0, 4));
        assert_eq!(scheduler.examples_served(), 4);
        // Worker 0 dies with that batch in flight; an OOM tail joins it.
        co.retire(0, &WorkerError::Panic("boom".into()));
        co.requeue(id0, range(40, 50));
        // The survivor gets both re-queued ranges, oldest first and at
        // their own lengths, before anything new from the scheduler —
        // whose count does not move.
        let (id_a, a) = co.next_dispatch(1, &mut scheduler).unwrap();
        co.completed(1, id_a);
        let (id_b, b) = co.next_dispatch(1, &mut scheduler).unwrap();
        co.completed(1, id_b);
        assert_eq!((a, b), (first, range(40, 50)));
        assert_eq!(scheduler.examples_served(), 4);
        let (_, c) = co.next_dispatch(1, &mut scheduler).unwrap();
        assert_eq!((c.start, c.end), (4, 20));
        assert_eq!(scheduler.examples_served(), 20);
        let r = co.finish(end_point(scheduler.epochs_elapsed()), 1.0);
        assert_eq!(r.requeued_batches, 2);
        assert_eq!(r.epochs, 0.2);
    }

    #[test]
    fn lineage_ids_are_unique_and_monotone_across_requeue_and_resume() {
        let (train, data) = (
            TrainConfig::default(),
            SynthConfig::small(100, 4, 2, 1).generate(),
        );
        let ctx = RunCtx {
            sink: TraceSink::virtual_time(256),
            ..RunCtx::default()
        };
        let mut co = coordinator(&train, &data, &ctx, &PINNED);
        let mut scheduler = BatchScheduler::new(data.len(), None);
        let (id, r) = co.next_dispatch(0, &mut scheduler).unwrap();
        let mut ids = vec![id];
        co.completed(0, id);
        co.requeue(id, r);
        for w in [1, 0, 1] {
            let (id, _) = co.next_dispatch(w, &mut scheduler).unwrap();
            ids.push(id);
            co.completed(w, id);
        }
        // A second incarnation restored from the first one's envelope
        // carries on past every id already handed out.
        let model = Model::zeros_like(&hetero_nn::MlpSpec::tiny(4, 2));
        let core = co.capture("test/v1", 0.5, &model);
        let ctx2 = RunCtx::default();
        let mut resumed = coordinator(&train, &data, &ctx2, &PINNED);
        resumed.restore(core);
        for w in [0, 1] {
            ids.push(resumed.next_dispatch(w, &mut scheduler).unwrap().0);
        }
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);
        // Every dispatch was traced under its own id, the re-queue under
        // the id of the dispatch it came from.
        let trace = ctx.sink.drain();
        assert_eq!(trace.total_dropped(), 0);
        let events = trace.events_sorted();
        let dispatched: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BatchDispatched { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(dispatched, vec![1, 2, 3, 4]);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::BatchRequeued { id: 1, .. })));
    }

    #[test]
    fn retire_is_idempotent_and_keeps_the_typed_reason() {
        let (train, data, ctx) = (
            TrainConfig::default(),
            SynthConfig::small(100, 4, 2, 1).generate(),
            RunCtx::default(),
        );
        let mut co = coordinator(&train, &data, &ctx, &PINNED);
        let mut scheduler = BatchScheduler::new(data.len(), None);
        co.next_dispatch(1, &mut scheduler).unwrap();
        // The generic disconnect sweep wins the race…
        co.retire(1, &WorkerError::Disconnected("exec channel closed".into()));
        assert!(co.retired(1) && !co.retired(0));
        assert_eq!(co.in_flight().count(), 0, "in-flight batch not re-queued");
        // …then the worker's own fault message arrives: the typed reason
        // replaces the generic one, and nothing is re-queued twice.
        co.retire(1, &WorkerError::Oom("model upload failed".into()));
        co.retire(1, &WorkerError::Disconnected("again".into()));
        co.retire(1, &WorkerError::Panic("late".into()));
        let r = co.finish(end_point(0.0), 1.0);
        assert_eq!(
            r.workers[1].retired.as_deref(),
            Some("device OOM: model upload failed")
        );
        assert_eq!(r.requeued_batches, 1);
        // One of two workers survived: the run is not an all-dead abort.
        assert!(r.aborted.is_none());
    }

    #[test]
    fn a_parked_range_is_not_counted_until_the_one_before_it_completes() {
        let (train, data, ctx) = (
            TrainConfig::default(),
            SynthConfig::small(100, 4, 2, 1).generate(),
            RunCtx::default(),
        );
        let mut co = coordinator(&train, &data, &ctx, &PINNED);
        let mut scheduler = BatchScheduler::new(data.len(), None);
        let (first, _) = co.next_dispatch(1, &mut scheduler).unwrap();
        assert_eq!(co.epochs_elapsed(&scheduler), 0.16);
        // A second range parks behind the first: served, but no worker can
        // be on it yet.
        let (second, parked) = co.next_dispatch(1, &mut scheduler).unwrap();
        assert_eq!((co.window(1), parked.len()), (2, 16));
        assert_eq!(scheduler.epochs_elapsed(), 0.32);
        assert_eq!(co.epochs_elapsed(&scheduler), 0.16);
        // Another worker's current range counts at once.
        co.next_dispatch(0, &mut scheduler).unwrap();
        assert_eq!(co.epochs_elapsed(&scheduler), 0.2);
        co.completed(1, first);
        assert_eq!(co.epochs_elapsed(&scheduler), 0.36);
        // A re-queued range was counted when it was first served: parking
        // it again takes nothing back out.
        co.requeue(first, range(0, 16));
        co.next_dispatch(1, &mut scheduler).unwrap();
        assert_eq!(co.window(1), 2);
        assert_eq!(co.epochs_elapsed(&scheduler), 0.36);
        co.completed(1, second);
        assert_eq!(co.epochs_elapsed(&scheduler), scheduler.epochs_elapsed());
    }

    // --- The coordinator as a model-checked state machine (ROADMAP 5a) --------

    /// What the coordinator must be doing, written the obvious way: a FIFO
    /// re-queue, a FIFO window per worker, the ranges reported complete,
    /// the raw updates credited to each worker, and each worker's batch
    /// thresholds as clamps left them.
    struct Reference {
        requeue: VecDeque<BatchRange>,
        in_flight: Vec<VecDeque<Dispatched>>,
        done: Vec<BatchRange>,
        raw_updates: Vec<u64>,
        retired: Vec<bool>,
        bounds: Vec<(usize, usize)>,
        last_id: u64,
        /// Fresh examples that were first in some worker's window, ever.
        reached: u64,
    }

    /// The model test's three adaptive workers.
    const BOUNDS: [(usize, usize); 3] = [(2, 16), (4, 32), (8, 64)];

    /// The model test's β: a CPU update counts half (exact in `f64` for the
    /// small integer counts credited below).
    const BETA: f64 = 0.5;

    /// One operation of the interleaving, applied to the coordinator and to
    /// the reference, with the per-operation expectations checked. An
    /// operation the engines never issue in the current state (dispatch to
    /// a worker whose window is full, complete with nothing in flight) is
    /// a no-op; a dispatch to a retired worker must be refused. Worker 0
    /// never retires, so the run can always be drained.
    fn apply<'a>(
        (op, w, arg): (u8, usize, usize),
        co: &mut Coordinator<'a>,
        scheduler: &mut BatchScheduler,
        model: &mut Reference,
        (train, data, ctx): (&'a TrainConfig, &'a DenseDataset, &'a RunCtx),
    ) -> Result<(), TestCaseError> {
        let n = scheduler.len();
        match op {
            // A retired worker is never dispatched to, whatever is waiting.
            0..=2 if model.retired[w] => {
                let served = scheduler.examples_served();
                prop_assert_eq!(co.next_dispatch(w, scheduler), None);
                prop_assert_eq!(scheduler.examples_served(), served);
            }
            // Dispatch, behind whatever the worker already holds.
            0..=2 if model.in_flight[w].len() < DISPATCH_WINDOW => {
                let requeued = model.requeue.pop_front();
                let served = scheduler.examples_served();
                let Some((id, range)) = co.next_dispatch(w, scheduler) else {
                    prop_assert!(requeued.is_none(), "re-queued {requeued:?} not served");
                    prop_assert!(scheduler.next_batch(1).is_none(), "schedule not dry");
                    return Ok(());
                };
                prop_assert!(id > model.last_id, "id {id} after {}", model.last_id);
                model.last_id = id;
                match requeued {
                    // Re-queued work goes first, as is, and is not re-counted.
                    Some(r) => {
                        prop_assert_eq!(range, r);
                        prop_assert_eq!(scheduler.examples_served(), served);
                    }
                    // Fresh work continues the served prefix at a size
                    // inside the worker's thresholds (epoch tail excepted).
                    None => {
                        let (lo, hi) = model.bounds[w];
                        prop_assert_eq!((range.epoch * n + range.start) as u64, served);
                        prop_assert!(
                            range.len() <= hi && (range.len() >= lo || range.end == n),
                            "worker {w} got {range:?} outside [{lo}, {hi}]"
                        );
                    }
                }
                let fresh = requeued.is_none();
                model.in_flight[w].push_back(Dispatched { id, range, fresh });
            }
            // Complete = pop the front.
            3 | 4 => {
                if let Some(d) = model.in_flight[w].pop_front() {
                    // Uneven credit walks Algorithm 2 through both resizes.
                    co.credit(w, (arg % 5) as u64, d.range.len() as u64);
                    co.completed(w, d.id);
                    model.raw_updates[w] += (arg % 5) as u64;
                    model.done.push(d.range);
                }
            }
            // Complete with a leftover: the OOM-shrink protocol. A range
            // parked behind keeps the size it got before the clamp.
            5 => {
                let Some(&Dispatched { id, range, .. }) =
                    model.in_flight[w].front().filter(|d| d.range.len() > 1)
                else {
                    return Ok(());
                };
                let fit = 1 + arg % (range.len() - 1);
                let (head, tail) = (
                    BatchRange {
                        end: range.start + fit,
                        ..range
                    },
                    BatchRange {
                        start: range.start + fit,
                        ..range
                    },
                );
                co.credit(w, 1, fit as u64);
                model.raw_updates[w] += 1;
                co.controller.clamp_max_batch(w, fit);
                co.requeue(id, tail);
                co.completed(w, id);
                model.in_flight[w].pop_front();
                model.done.push(head);
                model.requeue.push_back(tail);
                let (lo, hi) = model.bounds[w];
                model.bounds[w] = (lo.min(fit), hi.min(fit));
            }
            // Retire, twice: the whole window goes back, oldest first, and
            // the second retire must re-queue nothing.
            6 if w > 0 => {
                co.retire(w, &WorkerError::Panic("model".into()));
                let window = std::mem::take(&mut model.in_flight[w]);
                model.requeue.extend(window.iter().map(|d| d.range));
                model.retired[w] = true;
                let requeued = co.requeued_batches;
                co.retire(w, &WorkerError::Disconnected("again".into()));
                prop_assert_eq!(co.requeued_batches, requeued, "second retire re-queued");
            }
            7 => {
                let limit = 1 + arg % 40;
                co.controller.clamp_max_batch(w, limit);
                let (lo, hi) = model.bounds[w];
                model.bounds[w] = (lo.min(limit), hi.min(limit));
            }
            // Capture → restore into a fresh coordinator, by the threaded
            // engine's protocol: every range in a window at the capture,
            // parked or not, goes on the resumed run's queue.
            8 => {
                let image = Model::zeros_like(&hetero_nn::MlpSpec::tiny(4, 2));
                let mut core = co.capture("model/v1", 0.0, &image);
                core.requeue.extend(co.in_flight());
                let json = serde_json::to_string(&(core, &*scheduler)).unwrap();
                let (core, cursor): (CoreCkpt, BatchScheduler) =
                    serde_json::from_str(&json).unwrap();
                *co = coordinator(train, data, ctx, &BOUNDS);
                co.restore(core);
                *scheduler = cursor;
                for window in &mut model.in_flight {
                    model.requeue.extend(window.drain(..).map(|d| d.range));
                }
            }
            _ => {}
        }
        // The coordinator's tables are the reference's…
        prop_assert_eq!(&co.requeue, &model.requeue);
        prop_assert_eq!(&co.in_flight, &model.in_flight);
        // …Algorithm 2 counted t·β for the CPU worker (0) and t for the
        // GPUs, in the controller and in the stats alike…
        for (w, &raw) in model.raw_updates.iter().enumerate() {
            let want = raw as f64 * if w == 0 { BETA } else { 1.0 };
            let got = (co.stats[w].updates, co.controller.updates(w));
            prop_assert_eq!(
                got,
                (want, want),
                "worker {} updates differ from the t·β credit",
                w
            );
        }
        // …every example served so far is in exactly one of completed, in
        // flight (parked included) and re-queue: no gap, no overlap,
        // nothing unserved…
        let served = scheduler.examples_served() as usize;
        let mut cover = vec![0u8; served];
        let held = co.in_flight().chain(co.requeue.iter().copied());
        for r in model.done.iter().copied().chain(held) {
            for i in r.start..r.end {
                let at = r.epoch * n + i;
                prop_assert!(at < served, "{r:?} was never served");
                cover[at] += 1;
            }
        }
        prop_assert!(cover.iter().all(|&c| c == 1), "gap or overlap: {cover:?}");
        // …and the epoch coordinate holds back exactly the fresh ranges no
        // worker can be on yet, so it never steps backwards.
        let parked = model.in_flight.iter().flat_map(|w| w.iter().skip(1));
        let parked: usize = parked.filter(|d| d.fresh).map(|d| d.range.len()).sum();
        let reached = (served - parked) as u64;
        prop_assert_eq!(co.epochs_elapsed(scheduler), reached as f64 / n as f64);
        prop_assert!(
            reached >= model.reached,
            "coordinate fell below {}",
            model.reached
        );
        model.reached = reached;
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary interleavings of dispatch (up to the window) /
        /// complete / complete with a leftover / retire / clamp /
        /// capture→restore keep the coordinator equal to [`Reference`];
        /// draining what is left then completes every example of every
        /// epoch exactly once.
        #[test]
        fn coordinator_matches_the_reference_model(
            n in 20usize..150,
            epochs in 1usize..4,
            ops in prop::collection::vec((0u8..9, 0usize..3, 0usize..1000), 1..160),
        ) {
            let mut train = TrainConfig::default();
            train.adaptive.beta = BETA;
            let (data, ctx) = (SynthConfig::small(n, 4, 2, 1).generate(), RunCtx::default());
            let world = (&train, &data, &ctx);
            let mut co = coordinator(&train, &data, &ctx, &BOUNDS);
            let mut scheduler = BatchScheduler::new(n, Some(epochs));
            let mut model = Reference {
                requeue: VecDeque::new(),
                in_flight: vec![VecDeque::new(); BOUNDS.len()],
                done: Vec::new(),
                raw_updates: vec![0; BOUNDS.len()],
                retired: vec![false; BOUNDS.len()],
                bounds: BOUNDS.to_vec(),
                last_id: 0,
                reached: 0,
            };
            for op in ops {
                apply(op, &mut co, &mut scheduler, &mut model, world)?;
            }
            // Drain: survivors alternate complete and dispatch until the
            // schedule, the re-queue and every window are dry.
            while {
                for w in 0..BOUNDS.len() {
                    apply((3, w, 1), &mut co, &mut scheduler, &mut model, world)?;
                    apply((0, w, 0), &mut co, &mut scheduler, &mut model, world)?;
                }
                model.in_flight.iter().any(|window| !window.is_empty())
            } {}
            // `apply` just showed completed ∪ in flight ∪ re-queue covers
            // the served prefix exactly once; both of the latter are empty
            // and the prefix is the whole schedule.
            prop_assert!(model.requeue.is_empty());
            prop_assert_eq!(scheduler.examples_served() as usize, n * epochs);
            let completed: usize = model.done.iter().map(BatchRange::len).sum();
            prop_assert_eq!(completed, n * epochs);
        }
    }
}
