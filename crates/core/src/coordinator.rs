//! The coordinator core shared by both engines (paper §V: *one*
//! generic framework, algorithms as instantiations of it).
//!
//! [`Coordinator`] owns the state and policy every run needs regardless
//! of its clock: per-worker accounting, the batch schedule and Algorithm
//! 2's batch-size controller, the loss curve, the re-queue of ranges lost
//! to faults, batch lineage ids, the health-watchdog reactions, the
//! checkpoint envelope, the result epilogue — and the one event loop,
//! [`Coordinator::run`]. An engine supplies a [`Backend`]: its clock
//! (`Instant` vs `EventQueue`), how a batch executes, how the model is
//! scored, and its tail of the checkpoint. The loop hands ranges out with
//! [`Backend::start`], asks [`Backend::next_event`] what happened and
//! reacts: a completion is credited, a fault retires its worker; after
//! either, once the periodic eval's deadline has passed, it scores the
//! model. After every completion or fault each live worker's window is
//! filled again, so a range a retired worker gives back goes to the first
//! survivor with room — also to one that had run out of work.
//!
//! Around the loop, [`run_engine`] is the one run skeleton: it sets every
//! run up, scores it and closes it. An engine brings only its [`Engine`]
//! facts, its workers and its clock.
//!
//! Time stamps: the coordinator always emits with [`TraceSink::emit`], so
//! events carry the sink's own clock — wall seconds since the sink was
//! created on the threaded engine, and on the simulation engine the
//! instant it last published with [`TraceSink::set_virtual_now`] (it
//! publishes whenever it pops an event, before the loop reacts to it).
//! Observation never feeds back: with every [`RunCtx`] field disabled each
//! call below reduces to the bookkeeping the schedule itself needs, which
//! is why an observed simulation is bit-identical to an unobserved one.

use std::collections::VecDeque;
use std::ops::Deref;
use std::time::{Duration, Instant};

use hetero_ckpt::Checkpointer;
use hetero_data::batch::BatchRange;
use hetero_data::{BatchScheduler, DenseDataset};
use hetero_flight::{
    FlightRecorder, HealthAction, HealthSnapshot, Provenance, Watchdog, WatchdogState,
};
use hetero_nn::{InitScheme, MlpSpec, Model, SharedModel};
use hetero_sim::UtilizationTimeline;
use hetero_trace::{
    CounterHandle, EventKind, GaugeHandle, HistHandle, Metric, TimeDomain, TraceSink, COORDINATOR,
    GLOBAL_WORKER,
};
use serde::{Deserialize, Serialize};

use crate::adaptive::{AdaptiveController, WorkerBatchState};
use crate::config::TrainConfig;
use crate::fault::WorkerError;
use crate::lane::{eval_subset, BatchSource, Evaluator};
use crate::metrics::{LossPoint, TrainResult, WorkerKind, WorkerStats};

/// Everything optional about a run: where its events and metrics, health
/// record and checkpoints go. `RunCtx::default()` disables all three, and
/// a disabled field is exactly the run without it — `run_with(dataset,
/// &RunCtx::default())` is `run(dataset)`.
pub struct RunCtx {
    /// Structured tracing: every batch dispatch/start/completion, adaptive
    /// resize, queue operation, GPU transfer, model merge, eval point,
    /// health reaction and worker retirement flows through this sink. Use
    /// [`TraceSink::wall`] with the threaded engine (events are stamped
    /// with wall seconds since the sink was created) and
    /// [`TraceSink::virtual_time`] with the simulation engine (events are
    /// stamped with **virtual** seconds; tracing never feeds back into the schedule, so the run
    /// stays deterministic). The run's gauges (`worker.<w>.*`,
    /// `engine.*`, `ckpt.*`) are published here too, and reach
    /// the trace export and the postmortem bundle with its counters. So
    /// are its per-worker histograms ([`TraceSink::histogram`]): batch
    /// latency, queue wait, H2D/D2H transfer time, merge wait/retries,
    /// gradient staleness (virtual-time durations on the simulation
    /// engine), and the checkpoint write latency; their summaries fill
    /// [`TrainResult::staleness`] and the postmortem's metric rows.
    pub sink: TraceSink,
    /// Black-box flight recorder. Its watchdog observes per-layer
    /// gradient norms and NaN/±Inf counts from every worker hot path and
    /// the loss at every eval point, enforcing its
    /// [`hetero_flight::HealthPolicy`] once per condition, at the
    /// coordinator's health poll: each reaction is traced as a health
    /// event, a clamp freezes the adaptive controller at the current batch
    /// sizes, an abort stops the run with the reason in
    /// [`TrainResult::aborted`]. Any abnormal end (watchdog trip, worker
    /// retirement, all-workers-dead abort) dumps a postmortem bundle whose
    /// path lands in [`hetero_flight::HealthSummary::postmortem`]. When
    /// `sink` is disabled the recorder supplies its own bounded
    /// drop-oldest sink, so a postmortem always embeds the recent-event
    /// window and the run's histograms. Observation alone never changes a
    /// run; only an explicit policy *action* (clamp, abort) does.
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
            flight: FlightRecorder::disabled(),
            ckpt: Checkpointer::disabled(),
        }
    }
}

/// What only an engine knows about the run it is starting; [`run_engine`]
/// sets up everything else.
pub(crate) struct Engine<'a> {
    /// Provenance name (`threaded` / `sim`).
    pub name: &'static str,
    /// Clock the engine runs on (picks the recorder's fallback sink).
    pub domain: TimeDomain,
    /// Tag of the engine's checkpoint layout.
    pub schema: &'static str,
    pub spec: &'a MlpSpec,
    pub train: &'a TrainConfig,
    /// Hogwild lanes of the CPU worker.
    pub cpu_lanes: usize,
    /// Per GPU worker: the most examples its device memory holds.
    pub gpu_caps: Vec<usize>,
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

/// What a [`Backend`] reports when [`Coordinator::run`] asks it what
/// happened next.
pub(crate) enum Event {
    /// Worker `worker` finished dispatch `id`.
    Completed { worker: usize, id: u64, done: Done },
    /// Worker `worker` cannot go on: it is retired, and its window goes
    /// back to the queue.
    Faulted { worker: usize, error: WorkerError },
    /// Nothing happened before the backend stopped waiting — a wait ran
    /// out, or the clock reached [`Coordinator::eval_deadline`]; ask again.
    Idle,
    /// The run is over: its budget is spent, or nothing is left to happen.
    End,
}

/// How a worker ran one dispatch: the one record of a finished batch, from
/// the worker (a threaded worker sends it down the ready channel) to
/// [`Coordinator::run`].
#[derive(Default)]
pub(crate) struct Done {
    /// Examples trained: the dispatch's length, or less after an OOM
    /// shrink.
    pub examples: usize,
    /// Raw model updates applied (Algorithm 2's `t`).
    pub updates: u64,
    /// After a device OOM, the batch size that fit: the controller's
    /// ceiling is clamped to it.
    pub shrunk_to: Option<usize>,
    /// After an OOM shrink, the unprocessed tail of the dispatch; it is
    /// re-queued.
    pub leftover: Option<BatchRange>,
    /// Busy interval `(start, end)` in engine time (on the loss curve's
    /// axis; its length is the batch latency)…
    pub busy: (f64, f64),
    /// …at this utilization level.
    pub level: f64,
    /// Score the model right after this batch is credited (the
    /// simulator's epoch-end evaluation).
    pub eval: bool,
}

/// The clock and the workers of one run: everything [`Coordinator::run`]
/// does not decide. The coordinator lends itself to a backend read-only;
/// every change to its state goes through the [`Event`]s a backend
/// returns.
pub(crate) trait Backend {
    /// Ranges a worker holds at once: the one it is on plus those parked
    /// behind it.
    const WINDOW: usize;

    /// Engine time in seconds — wall or virtual, summed across
    /// incarnations, on the axis `TrainConfig::time_budget` is measured on.
    fn now(&self) -> f64;

    /// Hand dispatch `id` of `range` to worker `w`, behind whatever it
    /// holds. An error means the worker is gone; it is retired.
    fn start(
        &mut self,
        co: &Coordinator<'_>,
        w: usize,
        id: u64,
        range: BatchRange,
    ) -> Result<(), WorkerError>;

    /// Start the clock and the workers, once the initial point is scored;
    /// returns the instant the clock started.
    fn launch(&mut self, _: &Coordinator<'_>) -> Instant {
        Instant::now()
    }

    /// Wait for the next thing that happens, returning no later than
    /// engine time [`Coordinator::eval_deadline`] (with [`Event::Idle`] if
    /// nothing happened by then).
    fn next_event(&mut self, co: &Coordinator<'_>) -> Event;

    /// The loss point of the current model at epoch coordinate `epochs`,
    /// stamped with the backend's clock.
    fn score(&mut self, epochs: f64) -> LossPoint;

    /// Publish a checkpoint of the run at engine time `t`
    /// ([`Coordinator::capture`] plus the backend's tail, through
    /// [`Coordinator::save`]).
    fn checkpoint(&mut self, co: &Coordinator<'_>, t: f64);

    /// The loop is over: stop the workers and leave [`Backend::now`] at the
    /// run's end. Returns the faults workers reported on their way out.
    fn close(&mut self) -> Vec<(usize, WorkerError)> {
        Vec::new()
    }
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
/// next to its tail (the simulator's pending events, …), or — the threaded
/// engine — saves it alone.
#[derive(Serialize, Deserialize)]
pub(crate) struct CoreCkpt {
    /// Rejects checkpoints from another engine or layout whole.
    pub schema: String,
    /// Engine time of the capture, summed across incarnations.
    pub t: f64,
    pub model: Model,
    /// The schedule cursor.
    pub scheduler: BatchScheduler,
    controller: AdaptiveController,
    curve: Vec<LossPoint>,
    workers: Vec<WorkerCkpt>,
    /// Ranges the scheduler already counted that still need a worker.
    pub requeue: Vec<BatchRange>,
    requeued_batches: u64,
    next_batch_id: u64,
    watchdog: WatchdogState,
    next_eval: f64,
}

#[cfg(test)]
impl CoreCkpt {
    /// Examples the workers had been credited with at the capture.
    pub fn examples_trained(&self) -> u64 {
        self.workers.iter().map(|w| w.examples).sum()
    }

    /// The health record a resumed run's watchdog starts from.
    pub fn watchdog_mut(&mut self) -> &mut WatchdogState {
        &mut self.watchdog
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
    controller: AdaptiveController,
    /// Where fresh ranges come from.
    scheduler: BatchScheduler,
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
    /// Engine time at which the next periodic loss evaluation is due.
    next_eval: f64,
    /// Level-weighted busy seconds per worker (running sum of what
    /// `busy` recorded — the timeline itself is O(segments) to total).
    busy_secs: Vec<f64>,
    /// Per worker: the batch latency histogram, filled from each
    /// completion's busy span.
    latency: Vec<HistHandle>,
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
    /// A fresh run of `engine` over `dataset`, with one slot per entry of
    /// `workers` and its initial batch-size state.
    pub fn new(
        engine: &Engine<'a>,
        dataset: &DenseDataset,
        workers: Vec<(WorkerKind, WorkerBatchState)>,
        ctx: &'a RunCtx,
    ) -> Self {
        let train = engine.train;
        let algorithm = train.algorithm.label();
        let sink = if ctx.flight.enabled() && !ctx.sink.enabled() {
            ctx.flight.make_sink(engine.domain)
        } else {
            ctx.sink.clone()
        };
        let watchdog = ctx.flight.watchdog();
        watchdog.ensure_layers(engine.spec.num_layers());
        if ctx.flight.enabled() {
            ctx.flight.set_provenance(Provenance {
                engine: engine.name.into(),
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
            scheduler: BatchScheduler::new(dataset.len(), train.max_epochs),
            curve: Vec::new(),
            requeue: VecDeque::new(),
            in_flight: vec![VecDeque::new(); kinds.len()],
            requeued_batches: 0,
            next_batch_id: 1,
            next_eval: train.eval_interval,
            busy_secs: vec![0.0; kinds.len()],
            latency: (0..kinds.len())
                .map(|w| sink.histogram(Metric::BatchLatency, w as u32))
                .collect(),
            aborted: None,
            worker_gauges,
            g_loss: sink.gauge("engine.loss"),
            g_epochs: sink.gauge("engine.epochs"),
            g_ckpt_gen: sink.gauge("ckpt.generation"),
            g_ckpt_bytes: sink.gauge("ckpt.bytes"),
            g_ckpt_age: sink.gauge("ckpt.age_secs"),
            ckpt_write: sink.histogram(Metric::CkptWrite, GLOBAL_WORKER),
            faults: sink.counter("engine.faults"),
            requeues: sink.counter("engine.requeues"),
            timeline_rejects: sink.counter("engine.timeline_rejects"),
            sink,
        }
    }

    pub fn workers(&self) -> usize {
        self.stats.len()
    }

    /// The epoch the schedule is serving.
    pub fn schedule_epoch(&self) -> usize {
        self.scheduler.epoch()
    }

    /// Whether worker `w` has been quarantined.
    pub fn retired(&self, w: usize) -> bool {
        self.stats[w].retired.is_some()
    }

    /// Engine time at which the next periodic loss evaluation is due.
    pub fn eval_deadline(&self) -> f64 {
        self.next_eval
    }

    /// Engine time of the newest loss point (0 before the first).
    pub fn last_point(&self) -> f64 {
        self.curve.last().map_or(0.0, |p| p.time)
    }

    // --- The event loop -------------------------------------------------------

    /// Train until the backend reports [`Event::End`] or the watchdog
    /// aborts: fill every worker's window, then, between events, poll the
    /// health policy, checkpoint when one is due and score the model when
    /// a periodic eval is.
    pub fn run<B: Backend>(&mut self, backend: &mut B) {
        self.top_up(backend, 0);
        loop {
            if self.poll_health() {
                break;
            }
            let now = backend.now();
            if self.ctx.ckpt.due(now) {
                backend.checkpoint(self, now);
            }
            match backend.next_event(self) {
                Event::Completed { worker, id, done } => {
                    self.credit(worker, done.updates, done.examples as u64);
                    if let Some(fit) = done.shrunk_to {
                        // The device OOMed above `fit`: the adaptive loop
                        // must never re-request a size it already rejected.
                        self.controller.clamp_max_batch(worker, fit);
                    }
                    if let Some(tail) = done.leftover {
                        self.requeue(id, tail);
                    }
                    self.busy(worker, done.busy.0, done.busy.1, done.level);
                    if done.eval {
                        self.score(backend);
                    }
                    self.completed(worker, id);
                    self.top_up(backend, worker);
                }
                Event::Faulted { worker, error } => {
                    self.retire(worker, &error);
                    // `hetero_no_top_up_on_fault` is a mutation switch for
                    // `scripts/check_mutation.sh`: the retired worker's
                    // ranges then wait for a survivor's next report, and
                    // are stranded when no survivor holds anything.
                    if !cfg!(hetero_no_top_up_on_fault) {
                        self.top_up(backend, worker);
                    }
                }
                Event::Idle => {}
                Event::End => break,
            }
            self.eval_if_due(backend);
        }
    }

    /// The periodic eval: once engine time reaches the deadline, move the
    /// deadline past it in whole intervals, then score. A score that runs
    /// past the new deadline (one slower than an interval; never on the
    /// sim, whose score takes no virtual time) moves it to a whole interval
    /// after the score ends, so the workers always train for at least an
    /// interval between two scores.
    fn eval_if_due(&mut self, backend: &mut impl Backend) {
        let now = backend.now();
        if now < self.next_eval {
            return;
        }
        let interval = self.train.eval_interval;
        let behind = ((now - self.next_eval) / interval).floor();
        self.next_eval += interval * (behind + 1.0);
        self.score(backend);
        let after = backend.now();
        if after > self.next_eval {
            self.next_eval = after + interval;
        }
    }

    /// One loss evaluation at the current epoch coordinate.
    fn score(&mut self, backend: &mut impl Backend) {
        let point = backend.score(self.epochs_elapsed());
        self.eval_point(point);
    }

    /// Fill every live worker's window, `first` first, then the rest in
    /// slot order — while the budget lasts and there is anything to hand
    /// out. A worker whose `start` fails is retired on the spot, and its
    /// window goes to the next one with room.
    fn top_up<B: Backend>(&mut self, backend: &mut B, first: usize) {
        if backend.now() >= self.train.time_budget {
            return;
        }
        let n = self.workers();
        for w in (first..n).chain(0..first) {
            while !self.retired(w) && self.window(w) < B::WINDOW {
                let Some((id, range)) = self.next_dispatch(w) else {
                    return;
                };
                if let Err(error) = backend.start(self, w, id, range) {
                    self.retire(w, &error);
                }
            }
        }
    }

    /// Whether nothing is left to run at engine time `now`: no live worker
    /// holds a range, and none can be given one — every worker is retired,
    /// the budget is spent, or the re-queue and the schedule are both dry.
    /// (Work waiting while a live worker has room cannot outlast an event:
    /// [`Coordinator::run`] tops every window up after each one.)
    pub fn idle(&self, now: f64) -> bool {
        let live = || (0..self.workers()).filter(|&w| !self.retired(w));
        live().all(|w| self.window(w) == 0)
            && (live().next().is_none()
                || now >= self.train.time_budget
                || (self.requeue.is_empty() && self.scheduler.exhausted()))
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
    fn next_dispatch(&mut self, w: usize) -> Option<(u64, BatchRange)> {
        if self.retired(w) {
            return None;
        }
        let size = self.controller.on_request_traced(w, &self.sink);
        let (range, fresh) = match self.requeue.pop_front() {
            Some(r) => (r, false),
            None => (
                self.scheduler.next_batch(size).filter(|r| !r.is_empty())?,
                true,
            ),
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
    fn window(&self, w: usize) -> usize {
        self.in_flight[w].len()
    }

    /// The loss curve's epoch coordinate: examples served, less those
    /// parked behind a worker's current range — a range counts from the
    /// moment a worker can be on it, which is what `epochs_elapsed` alone
    /// means with one range per worker (the simulation: nothing is ever
    /// parked, and the two are the same number). Only a fresh range is
    /// held back: the scheduler counted a re-queued one long ago, and
    /// taking it out again would walk the coordinate backwards.
    pub fn epochs_elapsed(&self) -> f64 {
        let parked: usize = self
            .in_flight
            .iter()
            .flat_map(|window| window.iter().skip(1))
            .filter(|d| d.fresh)
            .map(|d| d.range.len())
            .sum();
        let reached = self.scheduler.examples_served() - parked as u64;
        reached as f64 / self.scheduler.len() as f64
    }

    /// Record worker `w`'s busy interval `[start, end]` at utilization
    /// `level`, and its length as the batch's latency.
    fn busy(&mut self, w: usize, start: f64, end: f64, level: f64) {
        self.latency[w].record_secs(end - start);
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
    fn credit(&mut self, w: usize, updates: u64, examples: u64) {
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
    fn completed(&mut self, w: usize, id: u64) {
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
    fn requeue(&mut self, id: u64, range: BatchRange) {
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

    /// Start-up is over and the engine's clock has started: publish the
    /// wall seconds it took as `engine.startup_s` — model initialisation
    /// (or restore), the CSR copy of a dense-stored dataset on a sparse run,
    /// (threaded) the shared model's draw or copy, the eval batch and the
    /// initial point's score, which no loss point's `time` and no
    /// `TrainResult::duration` counts.
    fn clock_starts(&self, startup: Duration) {
        self.sink
            .gauge("engine.startup_s")
            .set(startup.as_secs_f64());
    }

    /// The run's eval batch: the seeded subsample ([`eval_subset`]) of `src`
    /// every loss point scores. An engine gathers it in start-up, before
    /// its clock starts.
    pub fn evaluator<D>(&self, src: &BatchSource<D>, spec: &MlpSpec) -> Evaluator
    where
        D: Deref<Target = DenseDataset>,
    {
        let train = self.train;
        let rows = eval_subset(src.dataset.len(), train.eval_subsample, train.seed);
        Evaluator::new(src, &rows, spec)
    }

    /// The loss before any update, stamped 0 (a resumed run restores its
    /// curve instead). Seeds the watchdog's divergence/stall baseline — the
    /// first observation never reacts.
    pub fn initial_point(&mut self, point: LossPoint) {
        self.record_point(LossPoint { time: 0.0, ..point });
        self.watchdog.observe_eval(point.loss as f64);
    }

    /// One periodic loss evaluation: curve, gauges, the watchdog's loss
    /// policy (a stall freezes the controller at this very eval), and the
    /// recorder's controller-state snapshot.
    fn eval_point(&mut self, point: LossPoint) {
        self.record_point(point);
        let loss = point.loss as f64;
        self.watchdog.observe_eval(loss);
        self.poll_health();
        let (flight, ckpt) = (&self.ctx.flight, &self.ctx.ckpt);
        if ckpt.enabled() {
            self.g_ckpt_age
                .set(point.time - ckpt.last_saved_at().unwrap_or(0.0));
        }
        if flight.enabled() {
            let stale = self.sink.summary(Metric::Staleness);
            flight.record_snapshot(HealthSnapshot {
                t: point.time,
                loss,
                epochs: point.epochs,
                batches: (0..self.workers())
                    .map(|w| self.controller.batch(w))
                    .collect(),
                staleness_p50: stale.as_ref().map(|s| s.p50),
                staleness_p99: stale.as_ref().map(|s| s.p99),
                grad_peak_norm: self.watchdog.summary().peak_grad_norm,
            });
        }
    }

    /// Enforce the health policy: every reaction the watchdog queued (from
    /// a worker's gradient scan or an eval) is traced as one health event;
    /// a clamp freezes the adaptive controller at the current batch sizes
    /// and an abort stops the run. The one place a reaction takes effect.
    /// Returns whether the run must stop.
    fn poll_health(&mut self) -> bool {
        for (action, detail) in self.watchdog.take_reactions() {
            let label = match action {
                HealthAction::Ignore => unreachable!("the watchdog queues no Ignore"),
                HealthAction::Warn => "warn",
                HealthAction::Clamp => {
                    for w in 0..self.workers() {
                        self.controller.clamp_max_batch(w, self.controller.batch(w));
                    }
                    "clamp"
                }
                HealthAction::Abort => {
                    self.aborted
                        .get_or_insert_with(|| format!("health watchdog: {detail}"));
                    "abort"
                }
            };
            self.sink.emit(
                COORDINATOR,
                EventKind::HealthEvent {
                    action: label.to_string(),
                    detail,
                },
            );
        }
        self.aborted.is_some()
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
            scheduler: self.scheduler.clone(),
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
            next_eval: self.next_eval,
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

    /// Replace the freshly initialized coordinator state wholesale with a
    /// loaded envelope and hand back its model image.
    pub fn restore(&mut self, core: CoreCkpt) -> Model {
        self.scheduler = core.scheduler;
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
        self.next_eval = core.next_eval;
        self.watchdog.restore_state(&core.watchdog);
        self.ctx.ckpt.resume_mark(core.t);
        self.sink.counter("ckpt.resumes").add(1);
        core.model
    }

    // --- Epilogue -----------------------------------------------------------------

    /// Close the run: the final loss `last` (its `epochs` is the run's),
    /// stamped at `duration`, the total training time across incarnations;
    /// final gauges, the abort reason, the black-box dump on any abnormal
    /// end (watchdog trip, a retired worker, the all-dead abort), and the
    /// [`TrainResult`].
    pub fn finish(mut self, last: LossPoint, duration: f64) -> TrainResult {
        self.record_point(LossPoint {
            time: duration,
            ..last
        });
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
        // A reaction raised by the very last batch has not been polled yet.
        self.poll_health();
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
            let path = flight.dump(reason, &self.sink);
            if let (Some(h), Some(p)) = (health.as_mut(), path) {
                h.postmortem = Some(p);
            }
        }
        TrainResult {
            algorithm: self.algorithm,
            dataset: self.dataset,
            loss_curve: self.curve,
            workers: self.stats,
            eval_timeline: UtilizationTimeline::new(),
            duration,
            epochs: last.epochs,
            trace_path: None,
            requeued_batches: self.requeued_batches,
            aborted,
            staleness: self.sink.summary(Metric::Staleness),
            health,
        }
    }
}

// --- The run skeleton ---------------------------------------------------------

/// What a run's model starts from, handed to the engine's `build`, which
/// builds it in the form it trains: a fresh run's seeded draw, or a
/// resumed run's restored model.
#[derive(Debug, PartialEq)]
pub(crate) enum Start {
    /// Draw `Model::new(spec, scheme, seed)`.
    Draw { scheme: InitScheme, seed: u64 },
    /// Continue from the checkpoint's model.
    Restored(Model),
}

impl Start {
    /// The start as a [`Model`] — what the simulator trains.
    pub(crate) fn into_model(self, spec: &MlpSpec) -> Model {
        match self {
            Start::Draw { scheme, seed } => Model::new(spec.clone(), scheme, seed),
            Start::Restored(model) => model,
        }
    }

    /// The start as the threaded engine's global model: a draw is made in
    /// place ([`SharedModel::drawn`]), so a fresh run allocates and
    /// first-touches one model-sized buffer; a restored model is copied
    /// once.
    pub(crate) fn into_shared(self, spec: &MlpSpec) -> SharedModel {
        match self {
            Start::Draw { scheme, seed } => SharedModel::drawn(spec.clone(), scheme, seed),
            Start::Restored(model) => SharedModel::new(&model),
        }
    }
}

/// One run, set up, resumed, scored and closed the same way on every
/// engine. The engine brings its [`Engine`] facts; `split`, which takes
/// its checkpoint state `T` apart into its tail `X` and the envelope; and
/// `build`, which builds its model and gathers the eval batch
/// ([`Coordinator::evaluator`]) into a [`Backend`] whose clock and
/// workers have not started. The skeleton does the rest, in this order:
/// the worker slots ([`slots`]) and the [`Coordinator`]; resume; start-up
/// (what the model starts from, a [`Start`] the engine builds its model of
/// in `build`, and the [`BatchSource`]); the sparse density; `build`; the
/// initial point, stamped 0, unless the run resumed (its curve came back
/// with the checkpoint); [`Backend::launch`]; `engine.startup_s`, from
/// entry to the clock's start; the loop; closing the backend, retiring the
/// faults its workers reported on the way out; the run's duration, read
/// off the backend's clock; and the final point, stamped at it. So the
/// clock measures training alone. All of it runs on the calling thread,
/// which spawns none for a step or an eval. Returns the result and the
/// backend, for what only the engine adds.
pub(crate) fn run_engine<D: Deref<Target = DenseDataset>, T: Deserialize, X, B: Backend>(
    engine: Engine<'_>,
    dataset: D,
    ctx: &RunCtx,
    split: impl FnOnce(T) -> (X, CoreCkpt),
    build: impl FnOnce(&mut Coordinator<'_>, BatchSource<D>, Start, Option<X>) -> B,
) -> (TrainResult, B) {
    let entered = Instant::now();
    let (train, spec) = (engine.train, engine.spec);
    assert_eq!(dataset.features(), spec.input_dim, "feature width");
    let mut co = Coordinator::new(&engine, &dataset, slots(&engine, dataset.len()), ctx);
    // Resume from the newest valid checkpoint: another engine's (or an
    // older layout's) file, or a differently shaped run's, is refused.
    let (tail, core) = (ctx.ckpt.resume_state::<T>().map(split))
        .filter(|(_, c)| c.schema == engine.schema && c.workers.len() == co.workers())
        .unzip();
    let resumed = core.is_some();
    let start = match core {
        Some(core) => Start::Restored(co.restore(core)),
        None => Start::Draw {
            scheme: train.init,
            seed: train.seed,
        },
    };
    let src = BatchSource::new(dataset);
    // Only on runs that train CSR rows, so a reader can tell the dense
    // path (gauge absent) from a fully dense batch on the sparse path.
    if let Some(density) = src.csr().map(|csr| csr.density()) {
        co.sink.gauge("engine.sparse_density").set(density);
    }
    let mut backend = build(&mut co, src, start, tail);
    // `hetero_point_on_resume` is a mutation switch for
    // `scripts/check_mutation.sh`.
    if !resumed || cfg!(hetero_point_on_resume) {
        co.initial_point(backend.score(0.0));
    }
    let started = backend.launch(&co);
    co.clock_starts(started - entered);
    co.run(&mut backend);
    for (worker, error) in backend.close() {
        co.retire(worker, &error);
    }
    let duration = backend.now();
    let last = backend.score(co.epochs_elapsed());
    (co.finish(last, duration), backend)
}

/// The run's worker slots — the CPU first when the algorithm uses one,
/// then one per GPU — with their initial batch states (paper §VI). An
/// adaptive run starts the CPU at its *lower* threshold (one example per
/// lane = Hogwild) and each GPU at its *upper* one, bounded by what its
/// memory holds (§VI-B); a static run pins the CPU at
/// `cpu_batch_per_thread` per lane and each GPU at `gpu_batch`.
fn slots(engine: &Engine<'_>, n: usize) -> Vec<(WorkerKind, WorkerBatchState)> {
    let (train, lanes, n) = (engine.train, engine.cpu_lanes, n.max(1));
    let (algo, a) = (train.algorithm, &train.adaptive);
    let pinned = |b: usize| WorkerBatchState::new(b, b, b);
    let cpu = if algo.is_adaptive() {
        let min_b = a.cpu_min_batch.max(lanes).min(n);
        WorkerBatchState::new(min_b, min_b, a.cpu_max_batch.max(min_b))
    } else {
        pinned((train.cpu_batch_per_thread * lanes).min(n).max(1))
    };
    let gpu = |&cap: &usize| {
        let max_b = a.gpu_max_batch.min(cap).max(1);
        let state = if algo.is_adaptive() {
            WorkerBatchState::new(max_b, a.gpu_min_batch.min(max_b).max(1), max_b)
        } else {
            pinned(train.gpu_batch.min(cap).max(1))
        };
        (WorkerKind::Gpu, state)
    };
    let cpu = algo.uses_cpu().then_some((WorkerKind::Cpu, cpu));
    let gpus = engine.gpu_caps.iter().filter(|_| algo.uses_gpu());
    cpu.into_iter().chain(gpus.map(gpu)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine_threads::DISPATCH_WINDOW;
    use hetero_data::SynthConfig;
    use hetero_nn::{Activation, LossKind};
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

    /// The network the coordinator tests pretend to train: it sizes the
    /// watchdog's table and nothing else.
    static SPEC: MlpSpec = MlpSpec {
        input_dim: 4,
        hidden: Vec::new(),
        classes: 2,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };

    /// The facts of a test engine with `gpus` GPU workers.
    fn engine(train: &TrainConfig, gpus: usize) -> Engine<'_> {
        Engine {
            name: "test",
            domain: TimeDomain::Virtual,
            schema: "test/v1",
            spec: &SPEC,
            train,
            cpu_lanes: 4,
            gpu_caps: vec![16; gpus],
        }
    }

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
        let engine = engine(train, bounds.len() - 1);
        Coordinator::new(&engine, data, workers.collect(), ctx)
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
        let (id0, first) = co.next_dispatch(0).unwrap();
        assert_eq!((first.start, first.end), (0, 4));
        assert_eq!(co.scheduler.examples_served(), 4);
        // Worker 0 dies with that batch in flight; an OOM tail joins it.
        co.retire(0, &WorkerError::Panic("boom".into()));
        co.requeue(id0, range(40, 50));
        // The survivor gets both re-queued ranges, oldest first and at
        // their own lengths, before anything new from the scheduler —
        // whose count does not move.
        let (id_a, a) = co.next_dispatch(1).unwrap();
        co.completed(1, id_a);
        let (id_b, b) = co.next_dispatch(1).unwrap();
        co.completed(1, id_b);
        assert_eq!((a, b), (first, range(40, 50)));
        assert_eq!(co.scheduler.examples_served(), 4);
        let (_, c) = co.next_dispatch(1).unwrap();
        assert_eq!((c.start, c.end), (4, 20));
        assert_eq!(co.scheduler.examples_served(), 20);
        let epochs = co.scheduler.epochs_elapsed();
        let r = co.finish(end_point(epochs), 1.0);
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
        let (id, r) = co.next_dispatch(0).unwrap();
        let mut ids = vec![id];
        co.completed(0, id);
        co.requeue(id, r);
        for w in [1, 0, 1] {
            let (id, _) = co.next_dispatch(w).unwrap();
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
            ids.push(resumed.next_dispatch(w).unwrap().0);
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
        co.next_dispatch(1).unwrap();
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
        let (first, _) = co.next_dispatch(1).unwrap();
        assert_eq!(co.epochs_elapsed(), 0.16);
        // A second range parks behind the first: served, but no worker can
        // be on it yet.
        let (second, parked) = co.next_dispatch(1).unwrap();
        assert_eq!((co.window(1), parked.len()), (2, 16));
        assert_eq!(co.scheduler.epochs_elapsed(), 0.32);
        assert_eq!(co.epochs_elapsed(), 0.16);
        // Another worker's current range counts at once.
        co.next_dispatch(0).unwrap();
        assert_eq!(co.epochs_elapsed(), 0.2);
        co.completed(1, first);
        assert_eq!(co.epochs_elapsed(), 0.36);
        // A re-queued range was counted when it was first served: parking
        // it again takes nothing back out.
        co.requeue(first, range(0, 16));
        co.next_dispatch(1).unwrap();
        assert_eq!(co.window(1), 2);
        assert_eq!(co.epochs_elapsed(), 0.36);
        co.completed(1, second);
        assert_eq!(co.epochs_elapsed(), co.scheduler.epochs_elapsed());
    }

    // --- The coordinator as a model-checked state machine ---------------------

    /// What the coordinator must be doing, written the obvious way: a FIFO
    /// re-queue, a FIFO window per worker, the ranges reported complete,
    /// the raw updates credited to each worker, and each worker's batch
    /// size and thresholds as Algorithm 2 and the clamps left them.
    struct Reference {
        requeue: VecDeque<BatchRange>,
        in_flight: Vec<VecDeque<Dispatched>>,
        done: Vec<BatchRange>,
        raw_updates: Vec<u64>,
        retired: Vec<bool>,
        bounds: Vec<(usize, usize)>,
        batch: Vec<usize>,
        last_id: u64,
        /// Fresh examples that were first in some worker's window, ever.
        reached: u64,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                requeue: VecDeque::new(),
                in_flight: vec![VecDeque::new(); BOUNDS.len()],
                done: Vec::new(),
                raw_updates: vec![0; BOUNDS.len()],
                retired: vec![false; BOUNDS.len()],
                bounds: BOUNDS.to_vec(),
                // The CPU starts at its floor, the GPUs at their ceilings.
                batch: BOUNDS
                    .iter()
                    .enumerate()
                    .map(|(w, &(lo, hi))| if w == 0 { lo } else { hi })
                    .collect(),
                last_id: 0,
                reached: 0,
            }
        }

        /// Algorithm 2's `ScheduleWork` on the reference's own credited
        /// counts (worker 0's at β): a worker strictly behind every other
        /// one divides its batch by α (down to its floor), one strictly
        /// ahead of every other multiplies it (up to its ceiling) — the
        /// rule that keeps the credited-update gap bounded.
        fn resize(&mut self, w: usize) -> usize {
            let credited: Vec<f64> = (0..BOUNDS.len())
                .map(|i| self.raw_updates[i] as f64 * if i == 0 { BETA } else { 1.0 })
                .collect();
            let others = credited.iter().enumerate().filter(|&(i, _)| i != w);
            let (lo_u, hi_u) = others
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), (_, &u)| {
                    (a.min(u), b.max(u))
                });
            let (lo, hi) = self.bounds[w];
            let b = self.batch[w];
            self.batch[w] = if credited[w] < lo_u {
                ((b as f64 / ALPHA).floor() as usize).max(lo)
            } else if credited[w] > hi_u {
                ((b as f64 * ALPHA).ceil() as usize).min(hi)
            } else {
                b
            };
            self.batch[w]
        }

        /// Worker `w`'s ceiling drops to `limit` (a no-op at or above it).
        fn clamp(&mut self, w: usize, limit: usize) {
            let (lo, hi) = self.bounds[w];
            self.bounds[w] = (lo.min(limit), hi.min(limit));
            self.batch[w] = self.batch[w].min(limit);
        }
    }

    /// The model test's three adaptive workers.
    const BOUNDS: [(usize, usize); 3] = [(2, 16), (4, 32), (8, 64)];

    /// The model test's β: a CPU update counts half (exact in `f64` for the
    /// small integer counts credited below).
    const BETA: f64 = 0.5;

    /// The model test's α.
    const ALPHA: f64 = 2.0;

    /// The model tests' run: adaptive, at β = [`BETA`] and α = [`ALPHA`],
    /// over `epochs` epochs.
    fn model_train(epochs: usize) -> TrainConfig {
        let mut train = TrainConfig::default();
        train.adaptive.beta = BETA;
        train.adaptive.alpha = ALPHA;
        train.max_epochs = Some(epochs);
        train
    }

    /// One operation of the interleaving, applied to the coordinator and to
    /// the reference, with the per-operation expectations checked. An
    /// operation the engines never issue in the current state (dispatch to
    /// a worker whose window is full, complete with nothing in flight) is
    /// a no-op; a dispatch to a retired worker must be refused. Worker 0
    /// never retires, so the run can always be drained.
    fn apply<'a>(
        (op, w, arg): (u8, usize, usize),
        co: &mut Coordinator<'a>,
        model: &mut Reference,
        (train, data, ctx): (&'a TrainConfig, &'a DenseDataset, &'a RunCtx),
    ) -> Result<(), TestCaseError> {
        let n = co.scheduler.len();
        match op {
            // A retired worker is never dispatched to, whatever is waiting.
            0..=2 if model.retired[w] => {
                let served = co.scheduler.examples_served();
                prop_assert_eq!(co.next_dispatch(w), None);
                prop_assert_eq!(co.scheduler.examples_served(), served);
            }
            // Dispatch, behind whatever the worker already holds. Every
            // request resizes first, whether or not anything is left.
            0..=2 if model.in_flight[w].len() < DISPATCH_WINDOW => {
                let size = model.resize(w);
                let requeued = model.requeue.pop_front();
                let served = co.scheduler.examples_served();
                let Some((id, range)) = co.next_dispatch(w) else {
                    prop_assert!(requeued.is_none(), "re-queued {requeued:?} not served");
                    prop_assert!(co.scheduler.exhausted(), "schedule not dry");
                    return Ok(());
                };
                prop_assert!(id > model.last_id, "id {id} after {}", model.last_id);
                model.last_id = id;
                match requeued {
                    // Re-queued work goes first, as is, and is not re-counted.
                    Some(r) => {
                        prop_assert_eq!(range, r);
                        prop_assert_eq!(co.scheduler.examples_served(), served);
                    }
                    // Fresh work continues the served prefix at exactly the
                    // size Algorithm 2 picked (the epoch's tail excepted).
                    None => {
                        prop_assert_eq!((range.epoch * n + range.start) as u64, served);
                        prop_assert!(
                            range.len() == size.min(n - range.start),
                            "worker {w}'s batch differs from Algorithm 2: got {range:?}, \
                             want {size} (raw credit {:?})",
                            model.raw_updates
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
                model.clamp(w, fit);
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
                model.clamp(w, limit);
            }
            // Capture → restore into a fresh coordinator, by the threaded
            // engine's protocol: every range in a window at the capture,
            // parked or not, goes on the resumed run's queue.
            8 => {
                let image = Model::zeros_like(&hetero_nn::MlpSpec::tiny(4, 2));
                let mut core = co.capture("model/v1", 0.0, &image);
                core.requeue.extend(co.in_flight());
                let json = serde_json::to_string(&core).unwrap();
                *co = coordinator(train, data, ctx, &BOUNDS);
                co.restore(serde_json::from_str(&json).unwrap());
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
        let served = co.scheduler.examples_served() as usize;
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
        prop_assert_eq!(co.epochs_elapsed(), reached as f64 / n as f64);
        prop_assert!(
            reached >= model.reached,
            "coordinate fell below {}",
            model.reached
        );
        model.reached = reached;
        Ok(())
    }

    // --- The event loop against a scripted backend ------------------------------

    /// A backend whose workers do what a script says, one step per event:
    /// finish the range at the front of a window (whole, or by the OOM
    /// protocol: a head trained and the tail handed back, or with an
    /// epoch-end eval after it), or die. It trains nothing: it records
    /// which ranges it reported trained, and ends the run once no worker
    /// holds a range — a real backend would wait forever for a report that
    /// cannot come. When the script runs out, the first worker holding a
    /// range finishes it.
    struct Script {
        steps: std::vec::IntoIter<(u8, usize, usize)>,
        held: Vec<VecDeque<(u64, BatchRange)>>,
        trained: Vec<BatchRange>,
    }

    impl Backend for Script {
        const WINDOW: usize = DISPATCH_WINDOW;

        /// The budget never binds: the schedule's epochs end the run.
        fn now(&self) -> f64 {
            0.0
        }

        fn start(
            &mut self,
            _: &Coordinator<'_>,
            w: usize,
            id: u64,
            range: BatchRange,
        ) -> Result<(), WorkerError> {
            self.held[w].push_back((id, range));
            Ok(())
        }

        fn next_event(&mut self, _: &Coordinator<'_>) -> Event {
            let Some(first) = (0..self.held.len()).find(|&w| !self.held[w].is_empty()) else {
                return Event::End;
            };
            let (op, w, arg) = self.steps.next().unwrap_or((0, first, 0));
            let w = if self.held[w].is_empty() { first } else { w };
            // Worker 0 never dies, so someone is always left to train.
            if op == 3 && w > 0 {
                self.held[w].clear();
                let error = WorkerError::Panic("scripted".into());
                return Event::Faulted { worker: w, error };
            }
            let (id, range) = self.held[w].pop_front().expect("a held range");
            let fit = match op {
                4 if range.len() > 1 => 1 + arg % (range.len() - 1),
                _ => range.len(),
            };
            let tail = BatchRange {
                start: range.start + fit,
                ..range
            };
            self.trained.push(BatchRange {
                end: tail.start,
                ..range
            });
            let shrunk = fit < range.len();
            let done = Done {
                examples: fit,
                updates: 1 + (arg % 3) as u64,
                shrunk_to: shrunk.then_some(fit),
                leftover: shrunk.then_some(tail),
                busy: (0.0, 0.0),
                level: 1.0,
                eval: op == 2,
            };
            Event::Completed {
                worker: w,
                id,
                done,
            }
        }

        fn score(&mut self, epochs: f64) -> LossPoint {
            end_point(epochs)
        }

        fn checkpoint(&mut self, _: &Coordinator<'_>, _: f64) {}
    }

    /// [`Coordinator::run`] a fresh run of `epochs` over `n` rows on
    /// workers with `bounds` to its end under `steps`, then check that
    /// nothing is held or waiting and that every example of every epoch
    /// was reported trained — and credited — exactly once.
    fn run_to_the_end(
        n: usize,
        epochs: usize,
        bounds: &[(usize, usize)],
        steps: Vec<(u8, usize, usize)>,
    ) -> Result<Vec<BatchRange>, TestCaseError> {
        let (train, data, ctx) = (
            model_train(epochs),
            SynthConfig::small(n, 4, 2, 1).generate(),
            RunCtx::default(),
        );
        let mut co = coordinator(&train, &data, &ctx, bounds);
        let mut script = Script {
            steps: steps.into_iter(),
            held: vec![VecDeque::new(); bounds.len()],
            trained: Vec::new(),
        };
        co.run(&mut script);
        let waiting: Vec<BatchRange> = co.requeue.iter().copied().collect();
        prop_assert!(
            waiting.is_empty(),
            "served ranges never trained: {waiting:?}"
        );
        prop_assert!(co.idle(0.0), "the run ended with work left to do");
        let mut cover = vec![0u8; n * epochs];
        for r in &script.trained {
            for i in r.start..r.end {
                cover[r.epoch * n + i] += 1;
            }
        }
        prop_assert!(
            cover.iter().all(|&c| c == 1),
            "a range was lost or trained twice: {cover:?}"
        );
        let credited: u64 = co.stats.iter().map(|s| s.examples).sum();
        prop_assert_eq!(credited, (n * epochs) as u64);
        Ok(script.trained)
    }

    /// The schedule runs dry, the CPU drains its window and idles, and
    /// only then does the GPU die holding a range: the range goes to the
    /// idle CPU at once, although no report of the CPU's is left to top it
    /// up.
    #[test]
    fn run_hands_a_dead_workers_range_to_an_idle_survivor() {
        // 40 rows: the CPU is primed with 0..4 and 4..8, the GPU with
        // 8..24 and 24..40, which is the whole epoch.
        let steps = vec![(0, 0, 0), (0, 0, 0), (0, 1, 0), (3, 1, 0)];
        let trained = run_to_the_end(40, 1, &PINNED, steps).unwrap();
        assert_eq!(
            trained,
            vec![range(0, 4), range(4, 8), range(8, 24), range(24, 40)]
        );
    }

    /// A backend on a scripted clock: each `next_event` moves it `step`
    /// closer to the eval deadline, and never past it, as a real backend
    /// returns by the deadline; each score takes `score_secs`. Its workers
    /// finish nothing. It logs every `next_event` with the deadline it was
    /// given (`'e'`) and every score with the time it began (`'s'`), and
    /// ends the run once its clock reaches `end`.
    struct Ticker {
        now: f64,
        step: f64,
        score_secs: f64,
        end: f64,
        log: Vec<(char, f64)>,
    }

    impl Backend for Ticker {
        const WINDOW: usize = 1;

        fn now(&self) -> f64 {
            self.now
        }

        fn start(
            &mut self,
            _: &Coordinator<'_>,
            _: usize,
            _: u64,
            _: BatchRange,
        ) -> Result<(), WorkerError> {
            Ok(())
        }

        fn next_event(&mut self, co: &Coordinator<'_>) -> Event {
            if self.now >= self.end {
                return Event::End;
            }
            let due = co.eval_deadline();
            self.log.push(('e', due));
            self.now = (self.now + self.step).min(due).max(self.now);
            Event::Idle
        }

        fn score(&mut self, epochs: f64) -> LossPoint {
            self.log.push(('s', self.now));
            self.now += self.score_secs;
            LossPoint {
                time: self.now,
                ..end_point(epochs)
            }
        }

        fn checkpoint(&mut self, _: &Coordinator<'_>, _: f64) {}
    }

    /// [`Coordinator::run`] on a [`Ticker`] at a 1 s eval interval; returns
    /// the ticker's log and the loss points' times.
    fn tick(step: f64, score_secs: f64, end: f64) -> (Vec<(char, f64)>, Vec<f64>) {
        let train = TrainConfig {
            eval_interval: 1.0,
            ..TrainConfig::default()
        };
        let (data, ctx) = (
            SynthConfig::small(100, 4, 2, 1).generate(),
            RunCtx::default(),
        );
        let mut co = coordinator(&train, &data, &ctx, &PINNED);
        let mut ticker = Ticker {
            now: 0.0,
            step,
            score_secs,
            end,
            log: Vec::new(),
        };
        co.run(&mut ticker);
        let times = co.curve.iter().map(|p| p.time).collect();
        (ticker.log, times)
    }

    /// The loop scores once per deadline the clock reaches, at the
    /// deadline, and no more: a clock that stops on every deadline gets a
    /// point at each whole second and nothing between.
    #[test]
    fn the_loop_scores_once_per_deadline_crossed() {
        let (log, times) = tick(0.3, 0.0, 10.0);
        assert_eq!(times, (1..=10).map(f64::from).collect::<Vec<_>>());
        let scores = log.iter().filter(|(kind, _)| *kind == 's').count();
        assert_eq!(scores, 10);
    }

    /// A score slower than the interval (2.5 s at 1 s) ends past the next
    /// deadline: the loop moves it to a whole interval after the score
    /// ended, so the backend serves its workers for a full interval before
    /// the next score, however slow the scores are.
    #[test]
    fn a_slow_score_leaves_the_workers_a_whole_interval() {
        let (log, times) = tick(0.25, 2.5, 10.0);
        assert_eq!(times, vec![3.5, 7.0, 10.5]);
        #[rustfmt::skip]
        let want = vec![
            ('e', 1.0), ('e', 1.0), ('e', 1.0), ('e', 1.0), ('s', 1.0),
            ('e', 4.5), ('e', 4.5), ('e', 4.5), ('e', 4.5), ('s', 4.5),
            ('e', 8.0), ('e', 8.0), ('e', 8.0), ('e', 8.0), ('s', 8.0),
        ];
        assert_eq!(log, want);
    }

    /// A fresh run of the skeleton starts from the seeded draw and, on
    /// data below the dense/CSR crossover, CSR features — the dataset's own
    /// store when it has one; scores it before the loop and after it; and
    /// trains the whole schedule through the engine's backend.
    #[test]
    fn run_engine_starts_from_the_seeded_model() {
        let dense = SynthConfig::small(40, 4, 2, 1).generate();
        // An eighth of the entries kept: 0.125 dense, below the crossover.
        let (mut x, labels) = dense.batch(0, dense.len());
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            if i % 8 != 0 {
                *v = 0.0;
            }
        }
        let thin = DenseDataset::new("thin", x, labels);
        let stored = DenseDataset::from_csr("csr", thin.to_csr(), thin.labels.clone());
        for (data, sparse) in [(&dense, false), (&thin, true), (&stored, true)] {
            let train = TrainConfig {
                seed: 11,
                ..model_train(1)
            };
            let build = |co: &mut Coordinator<'_>,
                         src: BatchSource<&DenseDataset>,
                         start: Start,
                         resume: Option<()>| {
                assert!(resume.is_none());
                let draw = || Start::Draw {
                    scheme: train.init,
                    seed: train.seed,
                };
                assert_eq!(start, draw());
                // Either engine's form of the draw is the seeded model.
                let seeded = Model::new(SPEC.clone(), train.init, train.seed);
                assert_eq!(start.into_model(&SPEC), seeded);
                assert_eq!(draw().into_shared(&SPEC).snapshot(), seeded);
                assert_eq!(src.csr(), sparse.then(|| data.to_csr()).as_ref());
                if let Some(store) = data.csr_store() {
                    assert!(
                        std::ptr::eq(src.csr().unwrap(), store),
                        "a copy of the store"
                    );
                }
                assert!(
                    std::ptr::eq(src.dataset, data),
                    "the caller's dataset, not a copy"
                );
                Script {
                    steps: Vec::new().into_iter(),
                    held: vec![VecDeque::new(); co.workers()],
                    trained: Vec::new(),
                }
            };
            let split = |core: CoreCkpt| ((), core);
            let ctx = RunCtx::default();
            let (r, script) = run_engine(engine(&train, 1), data, &ctx, split, build);
            assert_eq!(r.loss_curve.len(), 2, "initial and final point");
            let trained: usize = script.trained.iter().map(BatchRange::len).sum();
            assert_eq!((trained, r.epochs), (40, 1.0));
        }
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
            let train = model_train(epochs);
            let (data, ctx) = (SynthConfig::small(n, 4, 2, 1).generate(), RunCtx::default());
            let world = (&train, &data, &ctx);
            let mut co = coordinator(&train, &data, &ctx, &BOUNDS);
            let mut model = Reference::new();
            for op in ops {
                apply(op, &mut co, &mut model, world)?;
            }
            // Drain: survivors alternate complete and dispatch until the
            // schedule, the re-queue and every window are dry.
            while {
                for w in 0..BOUNDS.len() {
                    apply((3, w, 1), &mut co, &mut model, world)?;
                    apply((0, w, 0), &mut co, &mut model, world)?;
                }
                model.in_flight.iter().any(|window| !window.is_empty())
            } {}
            // `apply` just showed completed ∪ in flight ∪ re-queue covers
            // the served prefix exactly once; both of the latter are empty
            // and the prefix is the whole schedule.
            prop_assert!(model.requeue.is_empty());
            prop_assert_eq!(co.scheduler.examples_served() as usize, n * epochs);
            let completed: usize = model.done.iter().map(BatchRange::len).sum();
            prop_assert_eq!(completed, n * epochs);
        }

        /// [`Coordinator::run`] under any script of completions, OOM
        /// leftovers, evals and deaths (the CPU never dies) ends with every
        /// served range trained exactly once: nothing stranded in the
        /// re-queue, nothing trained twice.
        #[test]
        fn run_trains_every_served_range_exactly_once(
            n in 20usize..150,
            epochs in 1usize..4,
            steps in prop::collection::vec((0u8..5, 0usize..3, 0usize..1000), 0..200),
        ) {
            run_to_the_end(n, epochs, &BOUNDS, steps)?;
        }
    }
}
