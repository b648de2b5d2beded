//! Real-thread training engine — the paper's implementation architecture
//! on actual OS threads.
//!
//! One coordinator plus one stand-alone worker thread per device,
//! communicating over the custom asynchronous message queue
//! ([`hetero_mq::channel()`]); the global model is a
//! [`hetero_nn::SharedModel`] that CPU threads update Hogwild-style (racy
//! read–modify–write) while the GPU worker takes a deep-copy snapshot,
//! computes its one-step delta on the host lane, and merges it back, with
//! the device memory it would hold reserved on its ledger
//! ([`hetero_gpu::DeviceMemory`]) and the transfers it would make charged
//! through its [`hetero_gpu::Link`], by the rule the simulator charges.
//! The coordinator thread runs the coordinator's one event loop
//! ([`Coordinator::run`]) over `ThreadsBackend`: a wall clock, the exec
//! channels it hands ranges down, and the ready channel it waits on. A
//! worker reports each finished batch on that channel as the loop's own
//! [`Event::Completed`], carrying the [`Done`] its step built.
//!
//! Nothing on a worker's path is created per dispatch: the CPU worker's
//! Hogwild lanes are threads that live as long as it does and park on a
//! channel between sub-ranges (`cpu_worker`), a GPU worker is one
//! `GpuWorker` built before its first dispatch, and the coordinator keeps
//! `DISPATCH_WINDOW` ranges with every worker, so the next one is already
//! in the worker's queue when it reports the last.
//!
//! This engine runs on wall-clock time and real concurrency — it
//! demonstrates that the algorithms are implementable exactly as §V
//! describes. The deterministic counterpart for reproducing the paper's
//! figures is [`crate::engine_sim::SimEngine`].
//!
//! ## Supervision (see `DESIGN.md`, "Failure model & supervision")
//!
//! Workers never panic the process. Each worker body runs under
//! `catch_unwind` and reports typed [`WorkerError`] faults to the
//! coordinator instead:
//!
//! - a **device OOM** during a training step triggers a bounded retry loop
//!   that halves the batch until the step fits; the size that fit clamps
//!   the adaptive controller's ceiling so the OOMed size is never
//!   re-requested, and the unprocessed tail of the range is re-queued;
//! - an **unrecoverable fault** (model doesn't fit at upload, a panic —
//!   the worker's own or one of its lanes' — a dead channel) retires the
//!   worker: its slot is quarantined, every range it held (the one it was
//!   on and the one parked behind it) is re-queued and handed at once to
//!   the survivors with room, and training degrades gracefully to the
//!   remaining devices;
//! - when **every** worker is gone the run stops early and reports why in
//!   [`TrainResult::aborted`] instead of hanging.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetero_data::batch::BatchRange;
use hetero_data::DenseDataset;
use hetero_flight::Watchdog;
use hetero_gpu::{DeviceMemory, Footprint, Link};
use hetero_mq::{channel, channel_traced_lineage, Receiver, RecvTimeoutError, Sender};
use hetero_nn::{MlpSpec, SharedModel};
use hetero_sim::{DeviceModel, GpuModel};
use hetero_trace::{
    BatchPhases, EventKind, HistHandle, Metric, TimeDomain, TraceSink, COORDINATOR,
};

use crate::config::{AlgorithmKind, TrainConfig};
use crate::coordinator::{
    run_engine, Backend, Coordinator, CoreCkpt, Done, Engine, Event, RunCtx, Start,
};
use crate::fault::{panic_message, FaultPlan, WorkerError};
use crate::lane::{lane_split, BatchSource, Checks, Evaluator, Lane, SharedRead};
use crate::metrics::{LossPoint, TrainResult, WorkerKind};

/// Configuration of the threaded engine.
#[derive(Debug, Clone)]
pub struct ThreadedEngineConfig {
    /// Network to train.
    pub spec: MlpSpec,
    /// Algorithm + hyperparameters. `time_budget` is wall-clock seconds.
    pub train: TrainConfig,
    /// Hogwild threads inside the CPU worker.
    pub cpu_threads: usize,
    /// Performance model for the software GPU (memory bound + occupancy).
    pub gpu_perf: GpuModel,
    /// Number of GPU workers to spawn (the paper's future work is scaling
    /// to multi-GPU; each worker gets its own software device + replica).
    pub gpu_workers: usize,
    /// Deterministic fault injection (empty = fault-free run).
    pub fault_plan: FaultPlan,
}

/// One dispatch down a worker's exec channel. A worker trains the ranges
/// it is sent in order until the coordinator hangs up.
#[derive(Debug)]
struct Execute {
    /// Batch lineage id, fresh per dispatch.
    id: u64,
    range: BatchRange,
}

/// The engine's clock: wall seconds since `t0` plus the training seconds
/// of earlier incarnations. The coordinator's `now` and every worker's busy
/// span read it, so a resumed run's timelines continue on its loss curve's
/// time axis.
#[derive(Clone, Copy)]
struct Clock {
    t0: Instant,
    t_base: f64,
}

impl Clock {
    fn now(&self) -> f64 {
        self.t_base + self.t0.elapsed().as_secs_f64()
    }
}

/// What every worker thread shares with the coordinator.
#[derive(Clone)]
struct WorkerEnv {
    src: Arc<BatchSource<Arc<DenseDataset>>>,
    shared: Arc<SharedModel>,
    /// Where a worker reports: [`Event::Completed`] per finished batch, or
    /// [`Event::Faulted`] in place of a panic.
    ready: Sender<Event>,
    clock: Clock,
    train: TrainConfig,
    sink: TraceSink,
    watchdog: Watchdog,
}

/// Schema tag rejecting checkpoints from other engines or layouts. The
/// threaded checkpoint is the common envelope alone: ranges in flight at
/// the capture are folded into its re-queue (see [`RunCtx::ckpt`] for why
/// this engine's resume is statistical, not bit-identical).
const THREADED_CKPT_SCHEMA: &str = "hetero-threaded-ckpt/v5";

/// Ranges a worker holds at once: the one it is on, and one parked behind
/// it in its exec queue so that it never idles through a coordinator round
/// trip (32–240 µs of `mq` ping-pong) or through most of an eval. A
/// constant, not a setting: one value is in use, and a deeper window only
/// sizes more ranges before Algorithm 2 has seen the updates in front of
/// them.
pub(crate) const DISPATCH_WINDOW: usize = 2;

/// The wall-clock engine.
pub struct ThreadedEngine {
    cfg: ThreadedEngineConfig,
}

impl ThreadedEngine {
    /// Build the engine; the TensorFlow comparator only exists in the
    /// simulation engine and is rejected here.
    pub fn new(cfg: ThreadedEngineConfig) -> Result<Self, String> {
        cfg.train.validate()?;
        cfg.spec.validate()?;
        if cfg.train.algorithm == AlgorithmKind::TensorFlow {
            return Err("TensorFlow is simulation-only".into());
        }
        if cfg.cpu_threads == 0 {
            return Err("cpu_threads must be positive".into());
        }
        if cfg.train.algorithm.uses_gpu() && cfg.gpu_workers == 0 {
            return Err("algorithm needs a GPU but gpu_workers is 0".into());
        }
        Ok(ThreadedEngine { cfg })
    }

    /// [`ThreadedEngine::run_with`] a default [`RunCtx`] (kept: the frozen
    /// `benchmark/` calls it).
    pub fn run(&self, dataset: Arc<DenseDataset>) -> TrainResult {
        self.run_with(dataset, &RunCtx::default())
    }

    /// [`ThreadedEngine::run_with`] only [`RunCtx::sink`] set (kept: the
    /// frozen `benchmark/` calls it).
    pub fn run_traced(&self, dataset: Arc<DenseDataset>, sink: &TraceSink) -> TrainResult {
        let sink = sink.clone();
        self.run_with(
            dataset,
            &RunCtx {
                sink,
                ..RunCtx::default()
            },
        )
    }

    /// Train on `dataset` until the wall-clock budget expires or nothing
    /// is left to run, observed and checkpointed as `ctx` says (see
    /// [`RunCtx`]; its sink should be in the wall-clock domain).
    ///
    /// Budget expiry: no range is handed out past the budget, and the
    /// ranges already with a worker still run — the scheduler counted them
    /// when they were dispatched, so dropping them would lose their
    /// examples. The run therefore overshoots the budget by at most one
    /// extra batch per worker, and every completion is credited and traced
    /// before the result is assembled.
    pub fn run_with(&self, dataset: Arc<DenseDataset>, ctx: &RunCtx) -> TrainResult {
        let cfg = &self.cfg;
        let gpus = cfg.gpu_workers.max(1);
        let engine = Engine {
            name: "threaded",
            domain: TimeDomain::Wall,
            schema: THREADED_CKPT_SCHEMA,
            spec: &cfg.spec,
            train: &cfg.train,
            cpu_lanes: cfg.cpu_threads,
            // §VI-B: what the device holds beside the model, by the rule
            // the simulator caps its GPU batch with.
            gpu_caps: vec![Footprint::of(&cfg.spec).max_batch(&cfg.gpu_perf); gpus],
        };
        // The checkpoint is the envelope alone. A resumed run's clock
        // continues from the capture's time, so its budget is what the
        // original run had not yet spent.
        let split = |core: CoreCkpt| (core.t, core);
        // The shared model `start` builds, the eval batch, and one channel
        // per slot; the clock and the threads start at `launch`.
        let build = |co: &mut Coordinator<'_>, src, start: Start, t_base: Option<f64>| {
            // A run is a fresh set of threads: whoever had been quarantined
            // when a resumed run's checkpoint froze starts healthy.
            co.stats.iter_mut().for_each(|s| s.retired = None);
            let shared = Arc::new(start.into_shared(&cfg.spec));
            // Until `launch` restarts it, the clock only carries `t_base`.
            let clock = Clock {
                t0: Instant::now(),
                t_base: t_base.unwrap_or(0.0),
            };
            let sink = co.sink.clone();
            let (ready_tx, ready_rx) =
                channel_traced_lineage::<Event>(&sink, "ready", COORDINATOR, |e| match e {
                    Event::Completed { id, .. } => Some(*id),
                    _ => None,
                });
            let env = WorkerEnv {
                src: Arc::new(src),
                shared: Arc::clone(&shared),
                ready: ready_tx,
                clock,
                train: cfg.train.clone(),
                sink: sink.clone(),
                watchdog: co.watchdog.clone(),
            };
            let exec_channel = |slot: usize| {
                let name = format!("exec{slot}");
                channel_traced_lineage::<Execute>(&sink, &name, slot as u32, |m| Some(m.id))
            };
            let (exec, receivers) = (0..co.workers()).map(exec_channel).unzip();
            ThreadsBackend {
                engine: self,
                clock,
                exec,
                ready: ready_rx,
                evaluator: co.evaluator(&env.src, &cfg.spec),
                to_spawn: Some((env, receivers)),
                workers: Vec::new(),
                shared,
            }
        };
        run_engine(engine, dataset, ctx, split, build).0
    }

    /// Start worker `slot`'s thread: its kind's body around the common
    /// [`serve`] loop. A body that does not end cleanly (the coordinator
    /// hung up) — a typed error or a panic — becomes an
    /// [`Event::Faulted`] instead of taking the process down.
    fn spawn_worker(
        &self,
        slot: usize,
        kind: WorkerKind,
        rx: Receiver<Execute>,
        env: WorkerEnv,
    ) -> std::thread::JoinHandle<()> {
        let threads = self.cfg.cpu_threads;
        let perf = self.cfg.gpu_perf.clone();
        let plan = self.cfg.fault_plan.clone();
        std::thread::Builder::new()
            .name(format!("{kind:?}-worker-{slot}").to_lowercase())
            .spawn(move || {
                let body = || {
                    let run = |step: &mut Step<'_>| serve(slot, &rx, &env, &plan, step);
                    match kind {
                        WorkerKind::Cpu => cpu_worker(slot, threads, &plan, &env, run),
                        WorkerKind::Gpu => {
                            let mut gpu = GpuWorker::new(slot, perf, &plan, &env)?;
                            run(&mut |id, range, batches| gpu.batch_step(id, range, batches))
                        }
                    }
                };
                let error = match catch_unwind(AssertUnwindSafe(body)) {
                    Ok(Ok(())) => return,
                    Ok(Err(e)) => e,
                    Err(payload) => WorkerError::Panic(panic_message(&*payload)),
                };
                // If the coordinator is already gone there is nobody left
                // to tell.
                let _ = env.ready.send(Event::Faulted {
                    worker: slot,
                    error,
                });
            })
            .expect("spawn worker")
    }
}

/// The threaded engine as a [`Backend`]: the engine clock, the exec
/// channels ranges go down, and the ready channel completions and faults
/// come back on.
struct ThreadsBackend<'a> {
    engine: &'a ThreadedEngine,
    clock: Clock,
    /// One sender per worker slot; dropping them is the shutdown.
    exec: Vec<Sender<Execute>>,
    ready: Receiver<Event>,
    /// Until [`Backend::launch`]: what the workers share, and each slot's
    /// exec receiver. Then the workers hold the only ready senders.
    to_spawn: Option<(WorkerEnv, Vec<Receiver<Execute>>)>,
    workers: Vec<std::thread::JoinHandle<()>>,
    shared: Arc<SharedModel>,
    /// Scores the shared model where it lives, on the coordinator thread.
    evaluator: Evaluator,
}

impl Backend for ThreadsBackend<'_> {
    const WINDOW: usize = DISPATCH_WINDOW;

    fn now(&self) -> f64 {
        self.clock.now()
    }

    /// The clock starts, then one thread per slot, which copies it.
    fn launch(&mut self, co: &Coordinator<'_>) -> Instant {
        let (mut env, exec) = self.to_spawn.take().expect("a run launches once");
        self.clock.t0 = Instant::now();
        env.clock = self.clock;
        let kinds = co.stats.iter().map(|s| s.kind);
        self.workers = (kinds.zip(exec).enumerate())
            .map(|(slot, (kind, rx))| self.engine.spawn_worker(slot, kind, rx, env.clone()))
            .collect();
        self.clock.t0
    }

    fn start(
        &mut self,
        _: &Coordinator<'_>,
        w: usize,
        id: u64,
        range: BatchRange,
    ) -> Result<(), WorkerError> {
        // A worker that died without a fault message hung up its end.
        self.exec[w]
            .send(Execute { id, range })
            .map_err(|_| WorkerError::Disconnected("exec channel closed".into()))
    }

    /// A wall-clock run ends as soon as nothing is left to run. Until then
    /// the coordinator thread blocks on the ready channel until the next
    /// eval is due, and at least every 50 ms to look for workers that died
    /// without managing to send a fault (their exec receiver is gone). With
    /// an eval already due it only looks.
    fn next_event(&mut self, co: &Coordinator<'_>) -> Event {
        let now = self.now();
        if co.idle(now) {
            return Event::End;
        }
        let wait = (co.eval_deadline() - now).clamp(0.0, 0.05);
        match self.ready.recv_timeout(Duration::from_secs_f64(wait)) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => (0..self.exec.len())
                .find(|&w| !co.retired(w) && self.exec[w].is_disconnected())
                .map_or(Event::Idle, |worker| Event::Faulted {
                    worker,
                    error: WorkerError::Disconnected("exec channel closed".into()),
                }),
            // Every worker thread is gone.
            Err(RecvTimeoutError::Disconnected) => Event::End,
        }
    }

    /// The loss point of the shared model, read racily as the workers
    /// train it, stamped on the engine clock once scored (`t_base` splices
    /// a resumed incarnation's curve onto the restored prefix's time axis).
    /// A periodic point on a sparse run reads layer 0 as it scores, mixing
    /// values from before and after concurrent updates; its loss measures
    /// at or below that of the model as the score began, so the end stamp
    /// is the conservative one. The initial point precedes the workers and
    /// the final one follows `close`: both read a model nobody writes.
    fn score(&mut self, epochs: f64) -> LossPoint {
        let (loss, accuracy) = self.evaluator.score_shared(&self.shared);
        LossPoint {
            time: self.now(),
            epochs,
            loss,
            accuracy,
        }
    }

    /// The model image is a racy `snapshot` of its own, allocated per
    /// checkpoint: the run keeps no model-sized buffer between them. The
    /// Hogwild lanes and the GPU merges never stall, and everything else
    /// captured is coordinator-owned state. Workers race the capture, so
    /// whatever is in flight, parked ranges included, goes back on the
    /// queue of the resumed run: the scheduler has already counted it, and
    /// no example is silently dropped.
    fn checkpoint(&mut self, co: &Coordinator<'_>, t: f64) {
        let mut core = co.capture(THREADED_CKPT_SCHEMA, t, &self.shared.snapshot());
        core.requeue.extend(co.in_flight());
        co.save(t, &core);
    }

    /// Hanging up the exec channels ends every worker's loop once it has
    /// trained what it was sent; faults that raced the shutdown still
    /// deserve a retirement record.
    fn close(&mut self) -> Vec<(usize, WorkerError)> {
        self.exec.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        std::iter::from_fn(|| self.ready.try_recv().ok())
            .filter_map(|event| match event {
                Event::Faulted { worker, error } => Some((worker, error)),
                _ => None,
            })
            .collect()
    }
}

/// One worker kind's step: `(batch id, range, batches done before it)` →
/// the finished batch, already traced; [`serve`] stamps its busy span.
type Step<'a> = dyn FnMut(u64, BatchRange, u64) -> Result<Done, WorkerError> + 'a;

/// The loop every worker thread runs, whatever its device: wait for a
/// dispatch, run `step` on it, report it — until the coordinator hangs up.
fn serve(
    slot: usize,
    rx: &Receiver<Execute>,
    env: &WorkerEnv,
    plan: &FaultPlan,
    step: &mut Step<'_>,
) -> Result<(), WorkerError> {
    // Resolved once; recording is a few relaxed atomic adds, so the
    // zero-alloc steady state of the steps is preserved.
    let queue_hist = env.sink.histogram(Metric::QueueWait, slot as u32);
    let mut batches_done = 0u64;
    loop {
        let (msg, waited) = rx.recv_timed();
        let Ok(Execute { id, range }) = msg else {
            break;
        };
        queue_hist.record_secs(waited.as_secs_f64());
        env.sink.emit(slot as u32, EventKind::BatchStarted { id });
        if plan.death_after(slot) == Some(batches_done) {
            panic!("injected fault: worker {slot} died after {batches_done} batches");
        }
        let start = env.clock.now();
        let mut done = step(id, range, batches_done)?;
        done.busy = (start, env.clock.now());
        batches_done += 1;
        let worker = slot;
        if env
            .ready
            .send(Event::Completed { worker, id, done })
            .is_err()
        {
            break; // coordinator gone: nothing left to tell
        }
    }
    Ok(())
}

/// The CPU worker: `threads` Hogwild lanes that live as long as the worker
/// does. Lane 0 is this thread; lanes 1… are threads scoped to this call,
/// each owning its [`HogwildLane`] and parked on its job channel between
/// dispatches. Hands `serve` the step that shares a dispatch out to them
/// ([`lane_split`]) and reports once every lane of the dispatch has
/// answered.
fn cpu_worker(
    slot: usize,
    threads: usize,
    plan: &FaultPlan,
    env: &WorkerEnv,
    serve: impl FnOnce(&mut Step<'_>) -> Result<(), WorkerError>,
) -> Result<(), WorkerError> {
    std::thread::scope(|scope| {
        // Lanes 1…, by their channels: rows and the worker's batch counter
        // down, the lane's phases back. What a lane thread blocks on is
        // owned by this closure, so an unwind out of it (a panic in `serve`
        // or in lane 0) hangs up on them before the scope joins them.
        let mut lanes = Vec::new();
        let mut handles = Vec::new();
        for i in 1..threads {
            let (job_tx, job_rx) = channel::<((usize, usize), u64)>();
            let (done_tx, done_rx) = channel::<BatchPhases>();
            let handle = std::thread::Builder::new()
                .name(format!("hogwild-{i}"))
                .spawn_scoped(scope, move || {
                    let mut lane = HogwildLane::new(env, slot, i, plan);
                    while let Ok((rows, batches_done)) = job_rx.recv() {
                        if done_tx.send(lane.lane_step(rows, batches_done)).is_err() {
                            break;
                        }
                    }
                })
                .map_err(|e| WorkerError::Panic(format!("hogwild lane {i}: {e}")))?;
            lanes.push((job_tx, done_rx));
            handles.push(handle);
        }
        let mut lane0 = HogwildLane::new(env, slot, 0, plan);
        let served = serve(&mut |id, range, batches_done| {
            let started = Instant::now();
            let (sub, updates) = lane_split(range.len(), threads);
            let share = |i: usize| {
                let s = range.start + i * sub;
                (s, (s + sub).min(range.end))
            };
            // A lane that is gone — it panicked — hangs up both of its
            // channels; the join below has the reason.
            let lane_died = |i: usize| WorkerError::Panic(format!("hogwild lane {i} died"));
            for (i, (job, _)) in (1..updates).zip(&lanes) {
                job.send((share(i), batches_done))
                    .map_err(|_| lane_died(i))?;
            }
            let mut phases = lane0.lane_step(share(0), batches_done);
            for (i, (_, done)) in (1..updates).zip(&lanes) {
                phases.add(&done.recv().map_err(|_| lane_died(i))?);
            }
            // Lane phase timings are CPU-seconds summed across parallel
            // lanes; project them onto the batch's wall busy span so
            // attribution never exceeds elapsed.
            let busy_wall = started.elapsed().as_secs_f64();
            let lane_total = phases.total();
            if lane_total > busy_wall && lane_total > 0.0 {
                phases.scale(busy_wall / lane_total);
            }
            let batch = range.len();
            let completed = EventKind::BatchCompleted {
                id,
                batch,
                updates,
                phases,
            };
            env.sink.emit(slot as u32, completed);
            Ok(Done {
                examples: batch,
                updates: updates as u64,
                // The lanes that trained, of the worker's threads.
                level: updates as f64 / threads as f64,
                ..Done::default()
            })
        });
        // Hang up, so the lane threads leave their loops; a lane that panicked
        // is the reason the worker is going down, in its own words.
        drop(lanes);
        for handle in handles {
            if let Err(payload) = handle.join() {
                return Err(WorkerError::Panic(panic_message(&*payload)));
            }
        }
        served
    })
}

/// One Hogwild lane `i` of CPU worker `slot`: the [`Lane`] scratch, what
/// it reads of the shared model racily ([`SharedRead`]), the worker's
/// histograms and the faults planned for this lane — all its own, so a
/// lane synchronizes with nothing but the shared model.
struct HogwildLane<'a> {
    env: &'a WorkerEnv,
    slot: usize,
    lane: Lane,
    at: SharedRead,
    stale_hist: HistHandle,
    rows_hist: HistHandle,
    /// Batch whose gradient gets a NaN ([`FaultPlan::poison_at`]; lane 0
    /// only — one poisoned update keeps the site exact).
    poison_at: Option<u64>,
    /// Batch inside which this lane panics ([`FaultPlan::lane_panic_at`];
    /// lane 1 only).
    panic_at: Option<u64>,
}

impl<'a> HogwildLane<'a> {
    fn new(env: &'a WorkerEnv, slot: usize, i: usize, plan: &FaultPlan) -> Self {
        let hist = |m| env.sink.histogram(m, slot as u32);
        HogwildLane {
            env,
            slot,
            lane: Lane::new(env.shared.spec()),
            at: SharedRead::new(&env.src, env.shared.spec()),
            stale_hist: hist(Metric::Staleness),
            rows_hist: hist(Metric::RowsTouched),
            poison_at: plan.poison_at(slot).filter(|_| i == 0),
            panic_at: plan.lane_panic_at(slot).filter(|_| i == 1),
        }
    }

    /// The lane's share `s..e` of the worker's batch number `batches_done`:
    /// [`Lane::step_shared`] as a racy writer — stage, read what the share
    /// needs of the shared model, take its gradient there, inspect and
    /// apply it. Returns its stage/compute/merge split in lane-local CPU
    /// seconds. This is the CPU hot path the paper's speedup model assumes
    /// is cheap; the audit proves its steady state allocation-free
    /// (DESIGN.md §4j).
    // audit: no_alloc
    fn lane_step(&mut self, (s, e): (usize, usize), batches_done: u64) -> BatchPhases {
        if self.panic_at == Some(batches_done) {
            panic!("injected fault: hogwild lane 1 panicked in batch {batches_done}");
        }
        let (shared, src, train) = (&*self.env.shared, &*self.env.src, &self.env.train);
        let checks = Checks {
            poison: self.poison_at == Some(batches_done),
            watchdog: &self.env.watchdog,
            worker: self.slot,
            step: batches_done,
        };
        let eta = train.lr_scaling.eta(train.lr, e - s);
        let step = self.lane.step_shared(
            src,
            (s, e),
            shared,
            &mut self.at,
            false,
            &checks,
            || {},
            |_| eta,
        );
        if let Some(rows) = step.rows {
            self.rows_hist.record(rows as u64);
        }
        // Staleness = global updates applied between this lane's read and
        // its own write landing (minus the write itself).
        if !self.stale_hist.is_disabled() {
            let now = shared.update_count();
            let since = now.saturating_sub(step.updates_at_read + 1);
            self.stale_hist.record(since);
        }
        step.phases
    }
}

/// A GPU worker: its device's ledger, model and link, what it reads of the
/// global model for its replica ([`SharedRead`]), and everything a step
/// reuses. Built once, before the first dispatch, so the steady-state
/// step is allocation-free; the ledger holds the model's resident bytes
/// for the worker's life.
struct GpuWorker<'a> {
    slot: usize,
    env: &'a WorkerEnv,
    /// The device's global memory, mirrored into the
    /// `gpu.w<slot>.mem_used_bytes` gauge.
    mem: DeviceMemory,
    perf: GpuModel,
    link: Link,
    /// What a step holds on the device and moves over its link.
    footprint: Footprint,
    at: SharedRead,
    lane: Lane,
    /// Batch whose delta gets a NaN ([`FaultPlan::poison_at`]).
    poison_step: Option<u64>,
    stale_hist: HistHandle,
    merge_hist: HistHandle,
    retries_hist: HistHandle,
    rows_hist: HistHandle,
}

impl<'a> GpuWorker<'a> {
    /// A device modelled by `perf`: arm `plan`'s faults on its ledger and
    /// upload the model — reserve its resident bytes. An upload OOM is
    /// unrecoverable: there is no batch to shrink when the parameters
    /// themselves don't fit.
    fn new(
        slot: usize,
        perf: GpuModel,
        plan: &FaultPlan,
        env: &'a WorkerEnv,
    ) -> Result<Self, WorkerError> {
        let gauge = env.sink.gauge(&format!("gpu.w{slot}.mem_used_bytes"));
        let mem = DeviceMemory::with_gauge(perf.memory, gauge);
        if plan.upload_oom(slot) {
            mem.inject_oom_at(0);
        }
        if let Some(n) = plan.oom_alloc_index(slot) {
            mem.inject_oom_at(n);
        }
        let spec = env.shared.spec();
        let footprint = Footprint::of(spec);
        mem.alloc(footprint.resident_bytes())
            .map_err(|e| WorkerError::Oom(format!("model upload failed: {e}")))?;
        let hist = |m| env.sink.histogram(m, slot as u32);
        Ok(GpuWorker {
            slot,
            env,
            mem,
            perf,
            link: Link::new(&env.sink, slot as u32),
            footprint,
            lane: Lane::new(spec),
            at: SharedRead::new(&env.src, spec),
            poison_step: plan.poison_at(slot),
            stale_hist: hist(Metric::Staleness),
            merge_hist: hist(Metric::MergeWait),
            retries_hist: hist(Metric::MergeRetries),
            rows_hist: hist(Metric::RowsTouched),
        })
    }

    /// One GPU batch step (§V/§VI-B): reserve the step's device bytes
    /// (halving the batch until they fit), then [`Lane::step_shared`] as a
    /// merger — stage the batch, copy what it touches of the global model
    /// (a CSR batch's support a block at a time), charge the link (the
    /// batch and the model up, the delta down), take the gradient there,
    /// and merge it discounted by how stale the copy became between the
    /// read and the first write. A replica trained one step is
    /// `copy − η·∇`, so the gradient is its whole delta. Traced as the
    /// batch's `H2d` (once staged), `D2h` (once the gradient is taken,
    /// before the first write), `ModelMerge` and `BatchCompleted`; the
    /// phases time staging (batch gather, the read and the charge), the
    /// step (with a CSR batch's block scatters) and the merge (the block
    /// writes and the tail's). The host has no link, so no second of the
    /// run is transfer.
    ///
    /// The steady-state path is allocation-free on the host; the `format!`
    /// on the unrecoverable-OOM branch is a reviewed allowlist entry (the
    /// worker retires immediately after).
    // audit: no_alloc
    fn batch_step(
        &mut self,
        id: u64,
        range: BatchRange,
        batches_done: u64,
    ) -> Result<Done, WorkerError> {
        let GpuWorker {
            footprint: fp,
            mem,
            perf,
            link,
            at,
            lane,
            ..
        } = self;
        let env = self.env;
        let (shared, src, train) = (&*env.shared, &*env.src, &env.train);
        // The step's device bytes, held until the delta is down: halve the
        // batch until they fit. (`hetero_gpu_no_reserve` is a mutation
        // switch for `scripts/check_mutation.sh`.)
        let mut len = range.len();
        #[cfg(not(hetero_gpu_no_reserve))]
        let held = loop {
            match mem.alloc(fp.step_bytes(len)) {
                Ok(held) => break held,
                Err(_) if len > 1 => len /= 2,
                Err(e) => {
                    return Err(WorkerError::Oom(format!("single-example step failed: {e}")));
                }
            }
        };
        let charge = link.charge(fp, perf, len, id);
        let checks = Checks {
            // Injected fault: one NaN into this worker's delta at the
            // planned step (the merge carries it into the shared model —
            // detection is the watchdog's job, not the merge's).
            poison: self.poison_step == Some(batches_done),
            watchdog: &env.watchdog,
            worker: self.slot,
            step: batches_done,
        };
        let mut scale = 1.0;
        let stale_hist = &self.stale_hist;
        let rows = (range.start, range.start + len);
        // Deep-copy replica of what the batch touches of the global model
        // (§V), merged without clobbering concurrent CPU updates. §VI-B:
        // the delta is discounted by how stale its base copy became while
        // the replica was training.
        let step = lane.step_shared(
            src,
            rows,
            shared,
            at,
            true,
            &checks,
            || link.uploaded(&charge, env.sink.now()),
            |staleness| {
                link.downloaded(&charge, env.sink.now());
                #[cfg(not(hetero_gpu_no_reserve))]
                let _ = mem.free(held);
                scale = 1.0 / (1.0 + train.staleness_discount * staleness as f32);
                stale_hist.record(staleness);
                train.lr_scaling.eta(train.lr, len) * scale
            },
        );
        if let Some(rows) = step.rows {
            self.rows_hist.record(rows as u64);
        }
        self.merge_hist.record_secs(step.phases.merge_secs);
        self.retries_hist.record(step.found_owned);
        let leftover = (len < range.len()).then_some(BatchRange {
            start: range.start + len,
            end: range.end,
            epoch: range.epoch,
        });
        let worker = self.slot as u32;
        let merged = EventKind::ModelMerge {
            scale: scale as f64,
            id: Some(id),
        };
        env.sink.emit(worker, merged);
        let completed = EventKind::BatchCompleted {
            id,
            batch: len,
            updates: 1,
            phases: step.phases,
        };
        env.sink.emit(worker, completed);
        Ok(Done {
            examples: len,
            updates: 1,
            shrunk_to: (len < range.len()).then_some(len),
            leftover,
            level: perf.busy_utilization(len),
            ..Done::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptiveParams, LrScaling};
    use crate::lane::eval_subset;
    use hetero_ckpt::Checkpointer;
    use hetero_data::SynthConfig;
    use hetero_nn::{Model, Workspace};

    /// Per-thread trace ring sized for a whole test run. The busiest
    /// thread (the GPU worker: start, transfers, merge, complete per
    /// batch) emits 80–150 k events in a 0.4 s release-mode run; a
    /// drop-oldest ring smaller than that cuts mid-batch, and a test then
    /// sees a completion whose start was evicted. Rings only grow as they
    /// fill, so the headroom is free. Tests that count events assert
    /// `total_dropped() == 0` first, so an undersized ring says so itself.
    const RING: usize = 1 << 20;

    fn dataset() -> Arc<DenseDataset> {
        let mut cfg = SynthConfig::small(400, 8, 2, 5);
        cfg.separability = 3.0;
        let mut d = cfg.generate();
        d.standardize();
        Arc::new(d)
    }

    /// `dataset()`'s task at an eighth of its density, stored CSR: below
    /// the dense/CSR crossover, so a run on it trains CSR rows.
    fn sparse_dataset() -> Arc<DenseDataset> {
        let mut cfg = SynthConfig {
            density: 0.12,
            ..SynthConfig::small(400, 8, 2, 5)
        };
        cfg.separability = 3.0;
        let mut d = cfg.generate();
        d.scale_to_unit_variance();
        Arc::new(d)
    }

    fn config(algo: AlgorithmKind, secs: f64) -> ThreadedEngineConfig {
        ThreadedEngineConfig {
            spec: MlpSpec::tiny(8, 2),
            train: TrainConfig {
                algorithm: algo,
                lr: 0.05,
                lr_scaling: LrScaling::Sqrt {
                    ref_batch: 1,
                    max_lr: 0.3,
                },
                gpu_batch: 64,
                adaptive: AdaptiveParams {
                    alpha: 2.0,
                    beta: 1.0,
                    cpu_min_batch: 4,
                    cpu_max_batch: 64,
                    gpu_min_batch: 16,
                    gpu_max_batch: 64,
                },
                time_budget: secs,
                eval_interval: secs / 4.0,
                eval_subsample: 200,
                seed: 3,
                ..TrainConfig::default()
            },
            cpu_threads: 4,
            gpu_perf: GpuModel::v100(),
            gpu_workers: 1,
            fault_plan: FaultPlan::none(),
        }
    }

    #[test]
    fn cpu_only_run_converges() {
        let r = ThreadedEngine::new(config(AlgorithmKind::HogbatchCpu, 0.4))
            .unwrap()
            .run(dataset());
        assert!(r.final_loss() < r.initial_loss(), "{:?}", r.loss_curve);
        assert_eq!(r.cpu_update_fraction(), 1.0);
        assert!(r.workers[0].batches > 0);
    }

    /// A dense run on a CSR-stored dataset stages densified rows on both
    /// worker kinds, the device replica's included, and learns.
    #[test]
    fn dense_run_on_csr_stored_data_converges() {
        let mut cfg = SynthConfig::small(400, 8, 2, 5);
        (cfg.separability, cfg.density) = (3.0, 0.6);
        let mut d = cfg.generate();
        d.scale_to_unit_variance();
        assert!(d.csr_store().is_some());
        let r = ThreadedEngine::new(config(AlgorithmKind::CpuGpuHogbatch, 0.4))
            .unwrap()
            .run(Arc::new(d));
        assert!(r.final_loss() < r.initial_loss(), "{:?}", r.loss_curve);
        for w in &r.workers {
            assert!(w.batches > 0, "{:?} idle", w.kind);
        }
    }

    /// Evals slower than their interval — every eval here, at a
    /// nanosecond interval — still leave the coordinator time to read what
    /// the workers report: the run trains its ranges and ends. Were the
    /// next eval due as soon as the last one ended, the coordinator would
    /// evaluate back to back, never read the ready channel, and never end.
    #[test]
    fn evals_slower_than_their_interval_let_the_run_end() {
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.05);
        cfg.train.eval_interval = 1e-9;
        // On a thread of its own, so that a stalled run fails the test
        // instead of hanging it.
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(ThreadedEngine::new(cfg).unwrap().run(sparse_dataset()));
        });
        let r = result
            .recv_timeout(Duration::from_secs(30))
            .expect("the run stalled");
        for w in &r.workers {
            assert!(w.batches > 0, "{:?} idle", w.kind);
        }
        assert!(r.loss_curve.len() > 2, "{:?}", r.loss_curve);
    }

    /// The clock measures training alone. The initial point is scored
    /// before the clock starts and stamped 0; the final point is stamped at
    /// the run's duration, read before its score. With an eval that costs
    /// many batches (a 64→512→512→2 net on 2 000 rows), the first worker's
    /// first batch starts well inside one eval's duration on the engine
    /// clock, which an initial score on the clock would have delayed it
    /// past.
    #[test]
    fn the_clock_starts_after_the_initial_point_and_stops_before_the_final_one() {
        let mut data = SynthConfig::small(2000, 64, 2, 5).generate();
        data.standardize();
        let data = Arc::new(data);
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.05);
        cfg.spec = MlpSpec {
            hidden: vec![512, 512],
            ..MlpSpec::tiny(64, 2)
        };
        (cfg.train.eval_subsample, cfg.train.eval_interval) = (2000, 1.0);
        // One eval of the same batch and model, at best of three.
        let src = BatchSource::new(Arc::clone(&data));
        let rows = eval_subset(data.len(), cfg.train.eval_subsample, cfg.train.seed);
        let mut evaluator = Evaluator::new(&src, &rows, &cfg.spec);
        let shared = SharedModel::new(&Model::new(cfg.spec.clone(), cfg.train.init, 1));
        let eval_secs = (0..3)
            .map(|_| {
                let t = Instant::now();
                evaluator.score_shared(&shared);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let r = ThreadedEngine::new(cfg).unwrap().run(data);
        let (first, last) = (r.loss_curve[0], *r.loss_curve.last().unwrap());
        assert_eq!(first.time, 0.0);
        assert_eq!(last.time, r.duration);
        let segments = r.workers[0].timeline.segments();
        let busy = segments.first().map_or(f64::INFINITY, |s| s.start);
        assert!(
            busy < eval_secs / 2.0,
            "first batch at {busy} s on the clock, one eval takes {eval_secs} s"
        );
    }

    #[test]
    fn gpu_only_run_converges() {
        let r = ThreadedEngine::new(config(AlgorithmKind::MiniBatchGpu, 0.4))
            .unwrap()
            .run(dataset());
        assert!(r.final_loss() < r.initial_loss());
        assert_eq!(r.cpu_update_fraction(), 0.0);
    }

    #[test]
    fn heterogeneous_run_uses_both_workers() {
        let r = ThreadedEngine::new(config(AlgorithmKind::CpuGpuHogbatch, 0.5))
            .unwrap()
            .run(dataset());
        assert!(r.final_loss() < r.initial_loss());
        let frac = r.cpu_update_fraction();
        assert!(frac > 0.0 && frac < 1.0, "cpu fraction {frac}");
        for w in &r.workers {
            assert!(w.batches > 0, "{:?} idle", w.kind);
        }
        // The default `RunCtx` observes nothing, so no staleness summary.
        assert!(r.staleness.is_none());
    }

    #[test]
    fn adaptive_run_completes_and_adapts() {
        let r = ThreadedEngine::new(config(AlgorithmKind::AdaptiveHogbatch, 0.5))
            .unwrap()
            .run(dataset());
        assert!(r.final_loss() < r.initial_loss());
        assert!(r.loss_curve.len() >= 3);
        // Update distribution must be less skewed than all-CPU/all-GPU.
        let frac = r.cpu_update_fraction();
        assert!(frac > 0.02 && frac < 0.98, "cpu fraction {frac}");
    }

    #[test]
    fn traced_run_emits_batch_lifecycle() {
        let sink = TraceSink::wall(RING);
        let r = ThreadedEngine::new(config(AlgorithmKind::AdaptiveHogbatch, 0.4))
            .unwrap()
            .run_traced(dataset(), &sink);
        assert!(r.final_loss().is_finite());
        assert!(
            r.trace_path.is_none(),
            "engine never writes the file itself"
        );
        let trace = sink.drain();
        assert_eq!(trace.total_dropped(), 0, "ring too small for the run");
        let events = trace.events_sorted();
        let (mut dispatched, mut started, mut completed, mut evals, mut merges) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut dispatched_ids = std::collections::HashSet::new();
        let mut phase_time = 0.0f64;
        for e in &events {
            match e.kind {
                EventKind::BatchDispatched { id, batch } => {
                    assert!(batch > 0);
                    assert!(id > 0, "batch ids start at 1");
                    assert!(dispatched_ids.insert(id), "duplicate batch id {id}");
                    dispatched += 1;
                }
                EventKind::BatchStarted { id } => {
                    assert!(dispatched_ids.contains(&id), "start without dispatch: {id}");
                    started += 1;
                }
                EventKind::BatchCompleted { id, ref phases, .. } => {
                    assert!(
                        dispatched_ids.contains(&id),
                        "completion without dispatch: {id}"
                    );
                    phase_time += phases.total();
                    completed += 1;
                }
                EventKind::EvalPoint { .. } => {
                    assert_eq!(e.worker, COORDINATOR);
                    evals += 1;
                }
                EventKind::ModelMerge { scale, id } => {
                    assert!(scale > 0.0 && scale <= 1.0);
                    assert!(id.is_some(), "GPU merge must carry batch lineage");
                    merges += 1;
                }
                EventKind::WorkerRetired { ref reason } => {
                    panic!("fault-free run traced a fault: {reason}")
                }
                EventKind::BatchRequeued { .. } => {
                    panic!("fault-free run re-queued a batch")
                }
                _ => {}
            }
        }
        assert!(dispatched > 0, "no dispatches traced");
        assert_eq!(started, completed, "every started batch completes");
        assert!(completed > 0, "no completions traced");
        // The budget ends this run, not the schedule: the range parked
        // behind each worker's last one still ran, and every completion
        // was credited before the result was assembled.
        assert_eq!(dispatched, completed, "a parked range never ran");
        let credited: u64 = r.workers.iter().map(|w| w.batches).sum();
        assert_eq!(credited, completed, "a completion was never credited");
        assert!(phase_time > 0.0, "completions must carry phase breakdowns");
        assert!(merges > 0, "GPU merges not traced");
        assert!(evals >= 2, "expected initial + final eval, got {evals}");
        // Both worker slots (CPU=0, GPU=1) completed work.
        let workers: std::collections::HashSet<u32> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BatchCompleted { .. }))
            .map(|e| e.worker)
            .collect();
        assert!(workers.contains(&0) && workers.contains(&1), "{workers:?}");
        let counters: std::collections::HashMap<String, f64> =
            trace.counters.iter().cloned().collect();
        assert!(
            counters
                .get("engine.examples_per_sec")
                .copied()
                .unwrap_or(0.0)
                > 0.0
        );
        assert_eq!(counters.get("engine.beta"), Some(&1.0));
        // Fault-free run: supervision counters must stay untouched.
        assert_eq!(r.requeued_batches, 0);
        assert!(r.aborted.is_none());
        assert!(r.workers.iter().all(|w| w.retired.is_none()));
    }

    #[test]
    fn observed_run_fills_histograms_and_worker_gauges() {
        let sink = TraceSink::wall(RING);
        let cfg = config(AlgorithmKind::AdaptiveHogbatch, 0.4);
        let r = ThreadedEngine::new(cfg)
            .unwrap()
            .run_traced(dataset(), &sink);
        assert!(r.final_loss().is_finite());
        // Staleness summary comes from the sink.
        let stale = r.staleness.expect("staleness summary missing");
        assert!(stale.count > 0);
        assert!(stale.p50 <= stale.p99);
        // Both workers filled latency + queue-wait histograms: one latency
        // observation per completed batch, and one queue wait per batch a
        // worker started. The GPU additionally filled transfer + merge
        // series.
        assert!(r.workers.iter().all(|w| w.batches > 0));
        let batches: u64 = r.workers.iter().map(|w| w.batches).sum();
        let count = |m| sink.summary(m).map_or(0, |s| s.count);
        assert_eq!(count(Metric::BatchLatency), batches);
        assert!(count(Metric::QueueWait) >= batches);
        for m in [
            Metric::H2d,
            Metric::D2h,
            Metric::MergeWait,
            Metric::MergeRetries,
        ] {
            assert!(count(m) > 0, "{m:?} empty");
        }
        // Worker gauges were published through the sink, so the trace
        // export and the postmortem bundle carry them.
        let counters: std::collections::HashMap<String, f64> =
            sink.drain().counters.into_iter().collect();
        let gauge = |name: &str| counters.get(name).copied();
        assert_eq!(gauge("worker.0.kind"), Some(0.0));
        assert_eq!(gauge("worker.1.kind"), Some(1.0));
        assert!(gauge("worker.0.updates").unwrap_or(0.0) > 0.0);
        assert!(gauge("worker.1.batch").unwrap_or(0.0) > 0.0);
        assert!(gauge("engine.loss").unwrap_or(f64::NAN).is_finite());
        // Timeline digests were filled in before returning.
        for w in &r.workers {
            assert!(w.timeline_summary.intervals > 0);
            assert!(w.timeline_summary.busy_fraction > 0.0);
        }
    }

    #[test]
    fn sparse_run_converges_and_reports_sparse_metrics() {
        let sink = TraceSink::wall(RING);
        let cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.5);
        let r = ThreadedEngine::new(cfg)
            .unwrap()
            .run_traced(sparse_dataset(), &sink);
        assert!(r.final_loss() < r.initial_loss(), "{:?}", r.loss_curve);
        for w in &r.workers {
            assert!(w.batches > 0, "{:?} idle", w.kind);
        }
        // Sparse observability: rows-touched from both worker kinds (never
        // more than the input width), the merge-contention series from the
        // GPU's row-sparse merge, and the density gauge that says which
        // path the merges took.
        let rows = sink
            .summary(Metric::RowsTouched)
            .expect("rows_touched series missing");
        assert!(rows.count > 0);
        assert!(rows.max <= 8.0, "touched {} of 8 rows", rows.max);
        let retries = sink
            .summary(Metric::MergeRetries)
            .expect("merge-retry series missing");
        assert!(retries.count > 0);
        let counters: std::collections::HashMap<String, f64> =
            sink.drain().counters.into_iter().collect();
        let density = *counters
            .get("engine.sparse_density")
            .expect("density gauge missing");
        assert!(density > 0.0 && density <= 1.0, "density {density}");
    }

    /// What a worker of `model` on `data` shares, outside a run; `sparse`
    /// picks the format its batches reach layer 0 in.
    fn worker_env(
        data: &Arc<DenseDataset>,
        sparse: bool,
        model: &Model,
        train: &TrainConfig,
        sink: TraceSink,
        watchdog: Watchdog,
    ) -> WorkerEnv {
        WorkerEnv {
            src: Arc::new(BatchSource::in_format(Arc::clone(data), sparse)),
            shared: Arc::new(SharedModel::new(model)),
            ready: channel().0,
            clock: Clock {
                t0: Instant::now(),
                t_base: 0.0,
            },
            train: train.clone(),
            sink,
            watchdog,
        }
    }

    /// Both engines compute a GPU worker's update with the same code: one
    /// threaded step merged into a shared model leaves the parameters the
    /// simulator's GPU arm leaves applying it to a model, bit for bit
    /// (`axpy(−η, g)` and the merge's `step·(−g)` round alike). κ = 0, so
    /// the threaded merge's scale is exactly 1.
    #[test]
    fn one_gpu_update_is_bit_identical_on_both_engines() {
        let data = dataset();
        let train = config(AlgorithmKind::CpuGpuHogbatch, 0.1).train;
        assert_eq!(train.staleness_discount, 0.0);
        let spec = MlpSpec::tiny(8, 2);
        let snapshot = Model::new(spec.clone(), hetero_nn::InitScheme::Xavier, 9);
        let (start, end) = (40, 137);
        let eta = train.lr_scaling.eta(train.lr, end - start);
        for sparse in [false, true] {
            let env = worker_env(
                &data,
                sparse,
                &snapshot,
                &train,
                TraceSink::disabled(),
                Watchdog::disabled(),
            );
            let mut gpu = GpuWorker::new(0, GpuModel::v100(), &FaultPlan::none(), &env).unwrap();
            let range = BatchRange {
                start,
                end,
                epoch: 0,
            };
            gpu.batch_step(1, range, 0).unwrap();
            let mut sim = snapshot.clone();
            let mut scratch = crate::engine_sim::SimScratch::new(&*env.src, &spec);
            let off = Watchdog::disabled();
            scratch.run_gpu(
                &*env.src,
                &range,
                &snapshot,
                &mut sim,
                eta,
                &Checks::off(&off),
            );
            assert_ne!(sim, snapshot, "sparse={sparse}: nothing applied");
            assert_eq!(env.shared.snapshot(), sim, "sparse={sparse}");
        }
    }

    /// Both engines run a CPU batch through the same lane code. On one lane
    /// the threaded lane step's racy apply to a shared model leaves the
    /// parameters the simulator's `run_waves` leaves, bit for bit. On 3 and
    /// 8 lanes (one wave) every threaded lane reads the batch snapshot, as
    /// a wave's lanes do, and the lanes' deltas sum to the wave's update
    /// within 1e-6 of the largest parameter: the wave applies each run of
    /// equal lanes as one scaled mean gradient.
    #[test]
    fn one_cpu_batch_is_bit_identical_on_both_engines() {
        let data = dataset();
        let train = config(AlgorithmKind::HogbatchCpu, 0.1).train;
        let spec = MlpSpec::tiny(8, 2);
        let snapshot = Model::new(spec.clone(), hetero_nn::InitScheme::Xavier, 9);
        let (start, end) = (40, 137);
        let step = |rows: usize| train.lr_scaling.eta(train.lr, rows);
        let base = snapshot.flatten();
        for sparse in [false, true] {
            let src = BatchSource::in_format(Arc::clone(&data), sparse);
            for lanes in [1, 3, 8] {
                let mut sim = snapshot.clone();
                let mut scratch = crate::engine_sim::SimScratch::new(&src, &spec);
                let off = Watchdog::disabled();
                let checks = || Checks::off(&off);
                let updates =
                    scratch.run_waves(&src, start, end, lanes, &snapshot, &mut sim, step, checks);
                let (sub, trained) = lane_split(end - start, lanes);
                assert_eq!(updates, trained, "sparse={sparse} lanes={lanes}");
                // Each lane on its own shared model of the snapshot; its
                // delta is what it applied.
                let mut threaded = base.clone();
                let mut last = snapshot.clone();
                for i in 0..trained {
                    let env = worker_env(
                        &data,
                        sparse,
                        &snapshot,
                        &train,
                        TraceSink::disabled(),
                        Watchdog::disabled(),
                    );
                    let mut lane = HogwildLane::new(&env, 0, i, &FaultPlan::none());
                    let s = start + i * sub;
                    lane.lane_step((s, (s + sub).min(end)), 0);
                    last = env.shared.snapshot();
                    for ((t, a), b) in threaded.iter_mut().zip(last.flatten()).zip(&base) {
                        *t += a - b;
                    }
                }
                assert_ne!(sim, snapshot, "sparse={sparse}: nothing applied");
                if lanes == 1 {
                    assert_eq!(last, sim, "sparse={sparse}");
                    continue;
                }
                let want = sim.flatten();
                let scale = want.iter().fold(0f32, |m, v| m.max(v.abs()));
                for (a, b) in threaded.iter().zip(&want) {
                    assert!(
                        (a - b).abs() <= 1e-6 * scale,
                        "sparse={sparse} lanes={lanes}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// A threaded step reads, differentiates and writes only its batch's
    /// support, a block of it at a time, and that changes no bit: one sparse
    /// lane step (racy apply) and one GPU step (merge), each on its own
    /// shared model, leave it exactly as the full-snapshot sequence leaves a
    /// second one — snapshot, gradient at the snapshot, apply over the
    /// gradient's own rows — on the same batch. Real-sim-shaped batches of
    /// 256 and 512 rows (the second's support outgrows the first's; both
    /// span many blocks), then 128 (it shrinks); on w8a-shaped data a
    /// 512-row batch whose support is every row, one block.
    #[test]
    fn a_sparse_step_on_the_shared_model_is_bit_identical_to_a_full_snapshot_step() {
        let train = config(AlgorithmKind::CpuGpuHogbatch, 0.1).train;
        assert_eq!(train.staleness_discount, 0.0, "merge scale 1");
        let cases = [
            (
                shaped(20_958, 0.0025, 1024, 17),
                &[(0, 256), (256, 768), (768, 896)][..],
            ),
            (shaped(300, 0.04, 1024, 17), &[(100, 612)][..]),
        ];
        for (data, batches) in cases {
            let spec = MlpSpec {
                hidden: vec![64],
                ..MlpSpec::tiny(data.features(), 2)
            };
            let n_in = spec.input_dim;
            let model = Model::new(spec.clone(), hetero_nn::InitScheme::Xavier, 9);
            let env = |sink| worker_env(&data, true, &model, &train, sink, Watchdog::disabled());
            let (cpu_env, gpu_env) = (env(TraceSink::disabled()), env(TraceSink::disabled()));
            let (cpu_ref, gpu_ref) = (SharedModel::new(&model), SharedModel::new(&model));
            let mut lane = HogwildLane::new(&cpu_env, 0, 0, &FaultPlan::none());
            let mut gpu =
                GpuWorker::new(0, GpuModel::v100(), &FaultPlan::none(), &gpu_env).unwrap();
            let (mut full, mut ws, mut csr) = (
                Model::zeros_like(&spec),
                Workspace::new(&spec),
                hetero_tensor::CsrBatch::new(),
            );
            let mut widest = 0;
            for (i, &(s, e)) in batches.iter().enumerate() {
                let case = format!("{n_in} features, rows {s}..{e}");
                let eta = train.lr_scaling.eta(train.lr, e - s);
                lane.lane_step((s, e), i as u64);
                let range = BatchRange {
                    start: s,
                    end: e,
                    epoch: 0,
                };
                gpu.batch_step(i as u64, range, i as u64).unwrap();
                // The full-snapshot sequence, on the reference models.
                let labels = data.labels.slice(s, e);
                cpu_env.src.csr().unwrap().slice_rows_into(s, e, &mut csr);
                for (reference, merge) in [(&cpu_ref, false), (&gpu_ref, true)] {
                    reference.snapshot_into(&mut full);
                    ws.loss_and_gradient_into(&full, csr.view(), labels.as_targets(), false);
                    if merge {
                        reference.merge_gradient(ws.grad(), eta, ws.active_cols(), None);
                    } else {
                        reference.apply_racy(ws.grad(), eta, ws.active_cols());
                    }
                }
                let support = ws.active_cols().unwrap();
                for (worker, at, shared, reference) in [
                    ("lane", &lane.at, &cpu_env.shared, &cpu_ref),
                    ("gpu", &gpu.at, &gpu_env.shared, &gpu_ref),
                ] {
                    assert_eq!(at.csr().support(), support, "{worker}: {case}");
                    let bits = |m: &SharedModel| -> Vec<u32> {
                        m.read_flat().iter().map(|v| v.to_bits()).collect()
                    };
                    assert!(bits(shared) == bits(reference), "{worker}: {case}");
                    assert_ne!(shared.snapshot(), model, "{worker}: nothing applied");
                    if n_in == 300 {
                        assert_eq!(support.len(), n_in, "every row: {case}");
                    }
                }
                if i == 1 {
                    assert!(support.len() > widest, "{case}: outgrows {widest}");
                }
                widest = widest.max(support.len());
            }
        }
    }

    /// `examples` rows of `features`-wide data at `density`, born CSR and
    /// scaled to unit variance.
    fn shaped(features: usize, density: f32, examples: usize, seed: u64) -> Arc<DenseDataset> {
        let mut d = SynthConfig {
            density,
            ..SynthConfig::small(examples, features, 2, seed)
        }
        .generate();
        d.scale_to_unit_variance();
        Arc::new(d)
    }

    /// A warm sparse worker step holds no support-sized copy of layer 0:
    /// after every step of a CPU lane and of a GPU worker on real-sim-wide
    /// batches, whose supports span many blocks and grow and shrink, the
    /// only layer-0 rows either holds are its step's tile, at most one
    /// block's; its gradient and its read tail hold none.
    #[test]
    fn a_warm_sparse_worker_step_holds_no_layer0_copy_past_one_block() {
        let train = config(AlgorithmKind::CpuGpuHogbatch, 0.1).train;
        let data = shaped(20_958, 0.0025, 1024, 23);
        let spec = MlpSpec {
            hidden: vec![64],
            ..MlpSpec::tiny(data.features(), 2)
        };
        let block = hetero_nn::L0_BLOCK_BYTES / std::mem::size_of::<f32>();
        let model = Model::new(spec.clone(), hetero_nn::InitScheme::Xavier, 4);
        let env = || {
            let sink = TraceSink::disabled();
            worker_env(&data, true, &model, &train, sink, Watchdog::disabled())
        };
        let (cpu_env, gpu_env) = (env(), env());
        let mut lane = HogwildLane::new(&cpu_env, 0, 0, &FaultPlan::none());
        let mut gpu = GpuWorker::new(0, GpuModel::v100(), &FaultPlan::none(), &gpu_env).unwrap();
        let batches = [(0, 512), (512, 640), (640, 1024), (0, 300)];
        for (i, &(s, e)) in batches.iter().enumerate() {
            lane.lane_step((s, e), i as u64);
            let range = BatchRange {
                start: s,
                end: e,
                epoch: 0,
            };
            gpu.batch_step(i as u64, range, i as u64).unwrap();
            for (worker, at, l) in [("lane", &lane.at, &lane.lane), ("gpu", &gpu.at, &gpu.lane)] {
                let case = format!("{worker}, rows {s}..{e}");
                let step = at.csr();
                let support = step.support().len();
                assert!(support > 2 * block / 64, "{case}: support {support}");
                assert!(
                    step.l0_capacity() <= block,
                    "{case}: {}",
                    step.l0_capacity()
                );
                assert_eq!(l.grad().layers()[0].w.capacity(), 0, "{case}: gradient");
                assert_eq!(step.tail().layers()[0].w.capacity(), 0, "{case}: tail");
            }
        }
    }

    /// A CPU batch's utilization is the share of the worker's lanes that
    /// trained: a 400-row epoch in batches of 6 on 3 lanes ends in a 4-row
    /// batch, which trains 2 lanes of 2 rows.
    #[test]
    fn a_short_cpu_batch_reports_the_lanes_that_trained() {
        let mut cfg = config(AlgorithmKind::HogbatchCpu, 30.0);
        cfg.cpu_threads = 3;
        cfg.train.cpu_batch_per_thread = 2;
        cfg.train.max_epochs = Some(1);
        let r = ThreadedEngine::new(cfg).unwrap().run(dataset());
        let levels: Vec<f64> = r.workers[0]
            .timeline
            .segments()
            .iter()
            .map(|s| s.level)
            .collect();
        assert!(
            levels.iter().any(|&l| (l - 2.0 / 3.0).abs() < 1e-12),
            "no segment at 2/3: {levels:?}"
        );
    }

    /// One step charges its link once each way, by the footprint: one
    /// `H2d` and one `D2h` histogram sample, and exactly the two transfer
    /// events, tagged with the batch. Its bytes are released once the
    /// delta is down.
    #[test]
    fn a_traced_gpu_step_moves_the_footprints_bytes() {
        let data = dataset();
        let train = config(AlgorithmKind::CpuGpuHogbatch, 0.1).train;
        let spec = MlpSpec::tiny(8, 2);
        let fp = Footprint::of(&spec);
        let g = GpuModel::v100();
        let (h2d, d2h) = fp.transfer_secs(&g, 50);
        let model = Model::new(spec, hetero_nn::InitScheme::Xavier, 1);
        for sparse in [false, true] {
            let sink = TraceSink::wall(RING);
            let env = worker_env(
                &data,
                sparse,
                &model,
                &train,
                sink.clone(),
                Watchdog::disabled(),
            );
            let mut gpu = GpuWorker::new(0, g.clone(), &FaultPlan::none(), &env).unwrap();
            let range = BatchRange {
                start: 0,
                end: 50,
                epoch: 0,
            };
            gpu.batch_step(7, range, 0).unwrap();
            assert_eq!(
                gpu.mem.used_bytes(),
                fp.resident_bytes(),
                "step bytes still held"
            );
            for m in [Metric::H2d, Metric::D2h] {
                assert_eq!(sink.summary(m).unwrap().count, 1, "sparse={sparse} {m:?}");
            }
            let transfers: Vec<EventKind> = sink
                .drain()
                .events_sorted()
                .into_iter()
                .filter(|e| matches!(e.kind, EventKind::H2d { .. } | EventKind::D2h { .. }))
                .map(|e| e.kind)
                .collect();
            let id = Some(7);
            let want = [
                EventKind::H2d {
                    bytes: (fp.batch_bytes(50) + fp.model) as usize,
                    secs: h2d,
                    id,
                },
                EventKind::D2h {
                    bytes: fp.model as usize,
                    secs: d2h,
                    id,
                },
            ];
            assert_eq!(transfers, want, "sparse={sparse}");
        }
    }

    /// The host has no link, so a threaded GPU step spends none of its
    /// wall on transfer: its phases are staging (snapshot, gather and the
    /// link's charge), compute and merge, and together they are the step.
    /// The network is wide enough that the timed phases dwarf the
    /// bookkeeping between them.
    #[test]
    fn a_threaded_gpu_steps_phases_are_its_wall_with_no_transfer() {
        let data = dataset();
        let train = config(AlgorithmKind::CpuGpuHogbatch, 0.1).train;
        let spec = MlpSpec {
            hidden: vec![128, 128],
            ..MlpSpec::tiny(8, 2)
        };
        let model = Model::new(spec, hetero_nn::InitScheme::Xavier, 1);
        for sparse in [false, true] {
            let sink = TraceSink::wall(RING);
            let env = worker_env(
                &data,
                sparse,
                &model,
                &train,
                sink.clone(),
                Watchdog::disabled(),
            );
            let mut gpu = GpuWorker::new(0, GpuModel::v100(), &FaultPlan::none(), &env).unwrap();
            let range = BatchRange {
                start: 0,
                end: 64,
                epoch: 0,
            };
            let t0 = Instant::now();
            gpu.batch_step(3, range, 0).unwrap();
            let wall = t0.elapsed().as_secs_f64();
            let phases = (sink.drain().events_sorted().into_iter())
                .find_map(|e| match e.kind {
                    EventKind::BatchCompleted { phases, .. } => Some(phases),
                    _ => None,
                })
                .expect("no BatchCompleted");
            assert_eq!(phases.transfer_secs, 0.0, "sparse={sparse}");
            let sum = phases.total();
            assert!(
                sum <= wall && sum >= 0.9 * wall,
                "sparse={sparse}: phases {sum} s of a {wall} s step"
            );
        }
    }

    /// The GPU batch is capped by one footprint rule on both engines: a
    /// device that holds fewer examples than `gpu_batch` gets batches of
    /// what it holds from the first one on — the threaded worker never
    /// meets an OOM, so nothing is shrunk or re-queued.
    #[test]
    fn both_engines_cap_the_gpu_batch_by_one_footprint() {
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.2);
        let fp = Footprint::of(&cfg.spec);
        cfg.gpu_perf.memory = fp.resident_bytes() + fp.step_bytes(20);
        let cap = fp.max_batch(&cfg.gpu_perf);
        assert!(cap < cfg.train.gpu_batch);
        let first_gpu_batch = |sink: &TraceSink| {
            let trace = sink.drain();
            assert_eq!(trace.total_dropped(), 0);
            trace.events_sorted().iter().find_map(|e| match e.kind {
                EventKind::BatchCompleted { batch, .. } if e.worker == 1 => Some(batch),
                _ => None,
            })
        };
        let sink = TraceSink::wall(RING);
        let r = ThreadedEngine::new(cfg.clone())
            .unwrap()
            .run_traced(dataset(), &sink);
        assert!(r.workers.iter().all(|w| w.retired.is_none()));
        assert_eq!(r.requeued_batches, 0, "an OOM shrank a GPU step");
        let threaded = first_gpu_batch(&sink).expect("a GPU batch completed");
        let sim_cfg = crate::engine_sim::SimEngineConfig {
            spec: cfg.spec.clone(),
            train: TrainConfig {
                time_budget: 0.01,
                ..cfg.train.clone()
            },
            cpu: hetero_sim::CpuModel::xeon_pair(),
            gpus: vec![cfg.gpu_perf.clone()],
            fault_plan: FaultPlan::none(),
        };
        let sink = TraceSink::virtual_time(RING);
        crate::engine_sim::SimEngine::new(sim_cfg)
            .unwrap()
            .run_traced(&dataset(), &sink);
        let sim = first_gpu_batch(&sink).expect("a simulated GPU batch completed");
        assert!(threaded <= cap, "{threaded} > {cap}");
        assert_eq!(threaded, sim);
    }

    #[test]
    fn gpu_merge_scans_only_under_a_watchdog() {
        let data = dataset();
        let train = config(AlgorithmKind::CpuGpuHogbatch, 0.1).train;
        let model = Model::new(MlpSpec::tiny(8, 2), hetero_nn::InitScheme::Xavier, 1);
        for sparse in [false, true] {
            for watched in [false, true] {
                let watchdog = if watched {
                    Watchdog::new(Default::default())
                } else {
                    Watchdog::disabled()
                };
                watchdog.ensure_layers(model.layers().len());
                let env = worker_env(
                    &data,
                    sparse,
                    &model,
                    &train,
                    TraceSink::wall(RING),
                    watchdog,
                );
                let mut gpu =
                    GpuWorker::new(0, GpuModel::v100(), &FaultPlan::none(), &env).unwrap();
                let range = BatchRange {
                    start: 0,
                    end: 64,
                    epoch: 0,
                };
                let done = gpu.batch_step(1, range, 0).unwrap();
                assert_eq!((done.examples, done.updates), (64, 1));
                assert_ne!(
                    env.shared.snapshot(),
                    model,
                    "sparse={sparse}: nothing merged"
                );
                let reset = hetero_nn::MergeScan::for_model(&model);
                assert_eq!(
                    gpu.lane.scan != reset,
                    watched,
                    "sparse={sparse} watched={watched}: {:?}",
                    gpu.lane.scan
                );
                let retries = env.sink.summary(Metric::MergeRetries);
                assert_eq!(retries.map(|s| s.count), Some(1), "sparse={sparse}");
            }
        }
    }

    #[test]
    fn multi_gpu_threaded_workers() {
        // The paper's future work: scale the framework to multi-GPU.
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.5);
        cfg.gpu_workers = 2;
        let r = ThreadedEngine::new(cfg).unwrap().run(dataset());
        let gpu_workers: Vec<_> = r
            .workers
            .iter()
            .filter(|w| w.kind == WorkerKind::Gpu)
            .collect();
        assert_eq!(gpu_workers.len(), 2);
        assert!(
            gpu_workers.iter().all(|w| w.batches > 0),
            "an idle GPU worker"
        );
        assert!(r.final_loss() < r.initial_loss());
    }

    #[test]
    fn zero_gpu_workers_rejected_for_gpu_algorithms() {
        let mut cfg = config(AlgorithmKind::MiniBatchGpu, 0.1);
        cfg.gpu_workers = 0;
        assert!(ThreadedEngine::new(cfg).is_err());
        // CPU-only algorithms don't care.
        let mut cfg = config(AlgorithmKind::HogbatchCpu, 0.1);
        cfg.gpu_workers = 0;
        assert!(ThreadedEngine::new(cfg).is_ok());
    }

    #[test]
    fn rejects_an_init_that_draws_no_model() {
        use hetero_nn::InitScheme;
        for init in [
            InitScheme::Normal(-0.1),
            InitScheme::Normal(f32::NAN),
            InitScheme::Constant(f32::INFINITY),
        ] {
            let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.1);
            cfg.train.init = init;
            assert!(ThreadedEngine::new(cfg).is_err(), "{init:?}");
        }
    }

    #[test]
    fn tensorflow_rejected() {
        assert!(ThreadedEngine::new(config(AlgorithmKind::TensorFlow, 0.1)).is_err());
    }

    #[test]
    fn checkpoint_and_resume_continues_the_run() {
        use hetero_ckpt::{CkptConfig, CkptStore};
        let data = dataset();
        let dir = std::env::temp_dir().join(format!("hetero-thr-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First incarnation: train 0.4s of a 0.8s budget, checkpointing
        // every 50ms, then stop (simulating a crash after the last save).
        // Every generation it writes stays on disk.
        let budget = 0.4;
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, budget);
        let writer = Checkpointer::new(CkptConfig {
            dir: dir.clone(),
            interval: 0.05,
            retain: 64,
            resume: false,
        })
        .unwrap();
        let first = ThreadedEngine::new(cfg.clone()).unwrap().run_with(
            data.clone(),
            &RunCtx {
                ckpt: writer.clone(),
                ..RunCtx::default()
            },
        );
        assert!(writer.latest_path().is_some(), "no checkpoint written");
        assert!(first.final_loss() < first.initial_loss());

        // Every capture folded every window whole into the re-queue, parked
        // ranges included: what the workers had been credited with plus
        // what waits for a resumed run is exactly what the schedule had
        // served. A capture before the budget ran out holds work: the loop
        // captures between events, and until the budget it fills every
        // window after each one (no worker retires, the schedule is
        // endless), so only a capture in the drain after the budget can
        // find every window empty. The first capture is due at 0.05 s, and
        // the loop looks at least every 50 ms.
        let mut before_budget = 0;
        for (_, path) in CkptStore::open(&dir, 64).unwrap().generations() {
            let state: CoreCkpt = CkptStore::load_path(&path).unwrap();
            let waiting: usize = state.requeue.iter().map(BatchRange::len).sum();
            assert_eq!(
                state.examples_trained() + waiting as u64,
                state.scheduler.examples_served()
            );
            if state.t < budget {
                assert!(
                    waiting > 0,
                    "captured at {} with every window empty",
                    state.t
                );
                before_budget += 1;
            }
        }
        assert!(
            before_budget > 0,
            "no generation captured before the budget"
        );

        // Second incarnation: same config with a larger budget resumes
        // from the newest generation and finishes the remaining time.
        cfg.train.time_budget = 0.7;
        let reader = Checkpointer::new(CkptConfig {
            dir: dir.clone(),
            interval: 0.05,
            retain: 2,
            resume: true,
        })
        .unwrap();
        let state: CoreCkpt = reader.resume_state().expect("a valid generation");
        let resumed = ThreadedEngine::new(cfg).unwrap().run_with(
            data,
            &RunCtx {
                ckpt: reader.clone(),
                ..RunCtx::default()
            },
        );
        // The restored curve is a literal prefix of the first run's curve
        // (it was captured from that run), and the resumed incarnation
        // appends new points beyond it on the same time axis.
        let n_prefix = resumed
            .loss_curve
            .iter()
            .zip(&first.loss_curve)
            .take_while(|(a, b)| a.time == b.time && a.loss == b.loss)
            .count();
        assert!(n_prefix >= 1, "resumed curve lost the original prefix");
        assert!(
            resumed.loss_curve.len() > n_prefix,
            "resume added no new eval points"
        );
        let t_ck = resumed.loss_curve[n_prefix - 1].time;
        assert!(
            resumed.loss_curve[n_prefix..].iter().all(|p| p.time > t_ck),
            "resumed points must continue past the checkpoint"
        );
        // The resumed workers' timelines continue on the same axis: no busy
        // span of the new incarnation starts before the restored time.
        let mut busy = resumed
            .workers
            .iter()
            .filter_map(|w| w.timeline.segments().first());
        assert!(
            busy.all(|s| s.start >= state.t),
            "a timeline restarted at 0"
        );
        assert!(resumed.workers.iter().any(|w| w.batches > 0));
        // The resumed run spent the restored time plus the remainder.
        assert!(resumed.duration > 0.5, "duration {}", resumed.duration);
        assert!(resumed.final_loss().is_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The threaded twin of the simulator's test: a checkpoint tagged with
    /// the previous schema (v4: no eval deadline in the envelope) is
    /// refused whole, and the run starts fresh.
    #[test]
    fn checkpoint_of_the_previous_schema_is_refused() {
        use hetero_ckpt::CkptConfig;
        let data = dataset();
        let cfg = config(AlgorithmKind::HogbatchCpu, 0.15);
        let dir =
            std::env::temp_dir().join(format!("hetero-thr-ckpt-schema-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = |resume| {
            Checkpointer::new(CkptConfig {
                dir: dir.clone(),
                interval: 0.03,
                retain: 2,
                resume,
            })
            .unwrap()
        };
        // Runs with `ckpt` attached; returns how many times it resumed.
        let resumes = |ckpt: Checkpointer| {
            let sink = TraceSink::wall(RING);
            let ctx = RunCtx {
                sink: sink.clone(),
                ckpt,
                ..RunCtx::default()
            };
            ThreadedEngine::new(cfg.clone())
                .unwrap()
                .run_with(data.clone(), &ctx);
            let counters = sink.drain().counters;
            counters
                .iter()
                .find(|(name, _)| name == "ckpt.resumes")
                .map_or(0.0, |(_, v)| *v)
        };
        assert_eq!(resumes(ckpt(false)), 0.0);
        // The current layout resumes…
        assert_eq!(resumes(ckpt(true)), 1.0);
        // …the same state tagged with the previous schema does not.
        let mut old: CoreCkpt = ckpt(true).resume_state().expect("a checkpoint");
        old.schema = "hetero-threaded-ckpt/v4".into();
        assert!(ckpt(false).save(old.t, &old).is_some());
        assert_eq!(resumes(ckpt(true)), 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_roughly_respected() {
        let r = ThreadedEngine::new(config(AlgorithmKind::MiniBatchGpu, 0.3))
            .unwrap()
            .run(dataset());
        // Generous upper bound: budget + one batch + eval slack.
        assert!(r.duration < 3.0, "ran {}s", r.duration);
    }
}
