//! Real-thread training engine — the paper's implementation architecture
//! on actual OS threads.
//!
//! One coordinator plus one stand-alone worker thread per device,
//! communicating over the custom asynchronous message queue
//! ([`hetero_mq::channel()`]); the global model is a
//! [`hetero_nn::SharedModel`] that CPU threads update Hogwild-style (racy
//! read–modify–write) while the GPU worker trains a deep-copy replica on
//! the software GPU ([`hetero_gpu::GpuDevice`]) and merges the delta back.
//!
//! Nothing on a worker's path is created per dispatch: the CPU worker's
//! Hogwild lanes are threads that live as long as it does and park on a
//! channel between sub-ranges (`cpu_worker`), and the coordinator keeps
//! `DISPATCH_WINDOW` ranges with every worker, so the next one is
//! already in the worker's queue when it reports the last (`top_up`).
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
//!   on and the one parked behind it) is re-queued to survivors, and
//!   training degrades gracefully to the remaining devices;
//! - when **every** worker is gone the run stops early and reports why in
//!   [`TrainResult::aborted`] instead of hanging.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetero_data::batch::BatchRange;
use hetero_data::{BatchScheduler, DenseDataset};
use hetero_flight::Watchdog;
use hetero_gpu::{GpuDevice, GpuMlp};
use hetero_metrics::{HistHandle, Metric, MetricsHub};
use hetero_mq::{channel, channel_traced_lineage, Receiver, RecvTimeoutError, Sender};
use hetero_nn::{scan_model, MergeScan, MlpSpec, Model, SharedModel};
use hetero_sim::{DeviceModel, GpuModel};
use hetero_trace::{BatchPhases, CounterHandle, EventKind, TimeDomain, TraceSink, COORDINATOR};
use serde::{Deserialize, Serialize};

use crate::config::{AlgorithmKind, TrainConfig};
use crate::coordinator::{
    cpu_batch_state, gpu_batch_state, observe_scan, Coordinator, CoreCkpt, RunCtx, Setup,
};
use crate::fault::{panic_message, FaultPlan, WorkerError};
use crate::lane::{eval_subset, start_up, BatchSource, Evaluator, Lane};
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

#[derive(Debug)]
enum CoordMsg {
    Execute {
        /// Batch lineage id, fresh per dispatch.
        id: u64,
        range: BatchRange,
    },
    Stop,
}

/// Lineage extractor for the exec channels: queue events carry the batch
/// id of the `Execute` they wrap.
fn coord_msg_lineage(m: &CoordMsg) -> Option<u64> {
    match m {
        CoordMsg::Execute { id, .. } => Some(*id),
        CoordMsg::Stop => None,
    }
}

struct Ready {
    worker: usize,
    /// Lineage id of the completed dispatch.
    id: u64,
    busy_start: f64,
    busy_end: f64,
    out: StepOutcome,
}

/// Lineage extractor for the ready channel.
fn worker_msg_lineage(m: &WorkerMsg) -> Option<u64> {
    match m {
        WorkerMsg::Ready(r) => Some(r.id),
        WorkerMsg::Fault { .. } => None,
    }
}

/// What a worker sends the coordinator: a completed batch, or a typed
/// fault in place of a panic.
enum WorkerMsg {
    Ready(Ready),
    Fault { worker: usize, error: WorkerError },
}

/// What every worker thread shares with the coordinator.
#[derive(Clone)]
struct WorkerEnv {
    src: Arc<BatchSource<Arc<DenseDataset>>>,
    shared: Arc<SharedModel>,
    ready: Sender<WorkerMsg>,
    t0: Instant,
    train: TrainConfig,
    sink: TraceSink,
    hub: MetricsHub,
    watchdog: Watchdog,
}

/// The threaded engine's checkpoint: the common envelope plus the schedule
/// cursor. Ranges in flight at the capture are folded into the envelope's
/// re-queue (see [`RunCtx::ckpt`] for why this engine's resume is
/// statistical, not bit-identical).
#[derive(Serialize, Deserialize)]
struct ThreadedCkpt {
    core: CoreCkpt,
    scheduler: BatchScheduler,
}

/// Schema tag rejecting checkpoints from other engines or layouts.
const THREADED_CKPT_SCHEMA: &str = "hetero-threaded-ckpt/v3";

/// Ranges a worker holds at once: the one it is on, and one parked behind
/// it in its exec queue so that it never idles through a coordinator round
/// trip (32–240 µs of `mq` ping-pong) or through most of an eval. A
/// constant, not a setting: one value is in use, and a deeper window only
/// sizes more ranges before Algorithm 2 has seen the updates in front of
/// them.
pub(crate) const DISPATCH_WINDOW: usize = 2;

/// Fill worker `w`'s window. Returns `false` — after telling the worker to
/// stop — once it holds nothing and the schedule has nothing left for it;
/// a worker still on a range asks again when that one completes, so an
/// OOM leftover re-queued in between still finds a taker.
fn top_up(
    co: &mut Coordinator<'_>,
    scheduler: &mut BatchScheduler,
    tx: &Sender<CoordMsg>,
    w: usize,
) -> bool {
    while co.window(w) < DISPATCH_WINDOW {
        let Some((id, range)) = co.next_dispatch(w, scheduler) else {
            if co.window(w) == 0 {
                let _ = tx.send(CoordMsg::Stop);
                return false;
            }
            break;
        };
        if tx.send(CoordMsg::Execute { id, range }).is_err() {
            // The worker died without a fault message: quarantine the slot,
            // which hands the ranges it never received to the survivors.
            co.retire(w, &WorkerError::Disconnected("exec channel closed".into()));
            break;
        }
    }
    true
}

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

    /// Train on `dataset` until the wall-clock budget expires, observed
    /// and checkpointed as `ctx` says (see [`RunCtx`]; its sink should be
    /// in the wall-clock domain).
    ///
    /// Budget expiry: a worker is told to stop at its first completion
    /// past the budget, and the range already parked behind that one still
    /// runs — the scheduler counted it when it was dispatched, so dropping
    /// it would lose its examples. The run therefore overshoots the budget
    /// by at most one extra batch per worker, and every completion is
    /// credited and traced before the result is assembled.
    pub fn run_with(&self, dataset: Arc<DenseDataset>, ctx: &RunCtx) -> TrainResult {
        let entered = Instant::now();
        let cfg = &self.cfg;
        let train = &cfg.train;
        let algo = train.algorithm;
        let spec = &cfg.spec;
        assert_eq!(dataset.features(), spec.input_dim, "feature width");

        // Worker slots: CPU first (if used), then GPU.
        let mut workers = Vec::new();
        if algo.uses_cpu() {
            let state = cpu_batch_state(train, cfg.cpu_threads, dataset.len());
            workers.push((WorkerKind::Cpu, state));
        }
        if algo.uses_gpu() {
            for _ in 0..cfg.gpu_workers.max(1) {
                // The software device reports OOM at run time instead of
                // bounding the batch up front.
                workers.push((WorkerKind::Gpu, gpu_batch_state(train, usize::MAX)));
            }
        }
        let mut co = Coordinator::new(
            Setup {
                engine: "threaded",
                domain: TimeDomain::Wall,
                algorithm: algo.label(),
                train,
                dataset: &dataset,
                layers: spec.num_layers(),
                workers,
            },
            ctx,
        );
        let mut scheduler = BatchScheduler::new(dataset.len(), train.max_epochs);

        // --- Resume from the newest valid checkpoint ----------------------------
        let resume = co.load(THREADED_CKPT_SCHEMA, |s: &ThreadedCkpt| &s.core);
        let resumed = resume.is_some();
        // Training wall-seconds consumed by earlier incarnations: the
        // resumed run offsets its clock and shrinks its budget by this.
        let t_base = resume.as_ref().map_or(0.0, |s| s.core.t);
        let core = resume.map(|s| {
            scheduler = s.scheduler;
            s.core
        });
        let (src, init) = start_up(Arc::clone(&dataset), spec, train, &mut co, core);
        if resumed {
            // A resumed run is a fresh set of threads: whoever had been
            // quarantined when the checkpoint froze starts healthy.
            for s in &mut co.stats {
                s.retired = None;
            }
        }
        let src = Arc::new(src);
        let shared = Arc::new(SharedModel::new(&init));

        let t0 = Instant::now();
        co.clock_starts(entered);
        let sink = co.sink.clone();
        let (ready_tx, ready_rx) =
            channel_traced_lineage::<WorkerMsg>(&sink, "ready", COORDINATOR, worker_msg_lineage);
        let env = WorkerEnv {
            src: Arc::clone(&src),
            shared: Arc::clone(&shared),
            ready: ready_tx,
            t0,
            train: train.clone(),
            sink: sink.clone(),
            hub: ctx.hub.clone(),
            watchdog: co.watchdog.clone(),
        };
        let mut exec_txs: Vec<Sender<CoordMsg>> = Vec::new();
        let mut handles = Vec::new();
        for (slot, stat) in co.stats.iter().enumerate() {
            let (tx, rx) = channel_traced_lineage::<CoordMsg>(
                &sink,
                &format!("exec{slot}"),
                slot as u32,
                coord_msg_lineage,
            );
            exec_txs.push(tx);
            handles.push(self.spawn_worker(slot, stat.kind, rx, env.clone()));
        }
        // The workers hold the only ready senders from here on.
        drop(env);

        // Published only on sparse runs, so a reader can tell "dense
        // path" (gauge absent) from a fully dense batch on the sparse path.
        if let Some(density) = src.density() {
            sink.gauge("engine.sparse_density").set(density);
        }

        // Coordinator-side GEMM pool, pinned to `train.rayon_threads`
        // (0 = one thread per host core): loss evaluations fan their
        // parallel forward pass out to this pool instead of whatever
        // `available_parallelism` says, so evals don't steal every core
        // from the Hogwild lanes. Report how far the run as a whole
        // oversubscribes the host: lanes plus per-GPU-worker GEMM fan-out
        // can all be runnable at once.
        let gemm_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(train.rayon_threads)
            .build()
            .expect("coordinator gemm pool");
        let host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu_lanes = if algo.uses_cpu() { cfg.cpu_threads } else { 0 };
        let gpu_slots = co.workers() - usize::from(algo.uses_cpu());
        let requested = cpu_lanes + gpu_slots * gemm_pool.current_num_threads();
        sink.counter("engine.pool_oversubscription")
            .add(requested.saturating_sub(host_threads) as u64);

        let eval_rows = eval_subset(dataset.len(), train.eval_subsample, train.seed);
        let mut evaluator = Evaluator::new(&src, &eval_rows, spec);
        let mut score = |model: &Model, epochs: f64| -> LossPoint {
            let (loss, accuracy) = gemm_pool.install(|| evaluator.score(model));
            LossPoint {
                // `t_base` splices a resumed incarnation's curve onto the
                // restored prefix's time axis.
                time: t_base + t0.elapsed().as_secs_f64(),
                epochs,
                loss,
                accuracy,
            }
        };
        // The remaining budget is what the original run had not yet spent.
        let budget = Duration::from_secs_f64((train.time_budget - t_base).max(0.0));
        if !resumed {
            // Nobody has written `shared` yet, so `init` *is* its snapshot;
            // nothing has been dispatched either (dispatching first only
            // moves the eval's CPU time onto the workers' cores).
            co.initial_point(score(&init, 0.0));
        }
        // One snapshot model for every later eval of the run: the initial
        // model's buffers, already warm.
        let mut eval_model = init;
        let mut eval = |epochs: f64| -> LossPoint {
            shared.snapshot_into(&mut eval_model);
            score(&eval_model, epochs)
        };

        // --- Coordinator loop ---------------------------------------------------
        // Slots that were told to stop (budget spent or schedule dry). A
        // slot is live until it is stopped *and* its window has drained
        // (a parked range still runs after the Stop behind it), unless it
        // was retired.
        let mut stopped: Vec<bool> = (0..co.workers())
            .map(|w| !top_up(&mut co, &mut scheduler, &exec_txs[w], w))
            .collect();
        let eval_interval = Duration::from_secs_f64(train.eval_interval);
        let mut next_eval = eval_interval;
        // Reused so a checkpoint allocates nothing on the coordinator's
        // steady path beyond the serialized payload.
        let mut ckpt_model: Option<Model> = None;

        while (0..co.workers()).any(|w| !co.retired(w) && (!stopped[w] || co.window(w) > 0)) {
            if co.poll_health() {
                break;
            }
            // Periodic crash-consistency checkpoint. The model image is a
            // racy `snapshot_into` read — the Hogwild lanes and the GPU
            // CAS-merge loop never stall — and everything else captured
            // is coordinator-owned state.
            let t_train = t_base + t0.elapsed().as_secs_f64();
            if ctx.ckpt.due(t_train) {
                let m = ckpt_model.get_or_insert_with(|| Model::zeros_like(spec));
                shared.snapshot_into(m);
                let mut core = co.capture(THREADED_CKPT_SCHEMA, t_train, m);
                // Workers race the capture, so whatever is in flight goes
                // back on the queue of the resumed run: the scheduler has
                // already counted it, and no example is silently dropped.
                // Parked ranges included.
                core.requeue.extend(co.in_flight());
                let scheduler = scheduler.clone();
                co.save(t_train, &ThreadedCkpt { core, scheduler });
            }
            let now = t0.elapsed();
            if now >= next_eval {
                co.eval_point(eval(co.epochs_elapsed(&scheduler)));
                // Advance past `now` in whole intervals: a stall longer
                // than one interval must not leave `next_eval` behind the
                // wall clock (which would starve batch dispatch with
                // back-to-back evals until it caught up).
                let behind = (now - next_eval).as_secs_f64() / eval_interval.as_secs_f64();
                next_eval += eval_interval * (behind.floor() as u32 + 1);
                continue;
            }
            let wait = (next_eval - now).min(Duration::from_millis(50));
            match ready_rx.recv_timeout(wait) {
                Ok(WorkerMsg::Ready(r)) => {
                    let (w, out) = (r.worker, r.out);
                    co.credit(w, out.updates as u64, out.batch as u64);
                    if let Some(fit) = out.shrunk_to {
                        // The device OOMed above `fit`: the adaptive loop
                        // must never re-request a size it already rejected.
                        co.controller.clamp_max_batch(w, fit);
                    }
                    if let Some(tail) = out.leftover {
                        co.requeue(r.id, tail);
                    }
                    let level = match co.stats[w].kind {
                        WorkerKind::Cpu => {
                            (out.batch.min(cfg.cpu_threads) as f64) / cfg.cpu_threads as f64
                        }
                        WorkerKind::Gpu => cfg.gpu_perf.busy_utilization(out.batch),
                    };
                    co.busy(w, r.busy_start, r.busy_end, level);
                    co.completed(w, r.id);
                    if co.retired(w) || stopped[w] {
                        // A quarantined slot gets no more work, and neither
                        // does one draining its window after a Stop.
                    } else if t0.elapsed() < budget {
                        stopped[w] = !top_up(&mut co, &mut scheduler, &exec_txs[w], w);
                    } else {
                        let _ = exec_txs[w].send(CoordMsg::Stop);
                        stopped[w] = true;
                    }
                }
                Ok(WorkerMsg::Fault { worker, error }) => co.retire(worker, &error),
                Err(RecvTimeoutError::Timeout) => {
                    // Sweep for workers that died without managing to send
                    // a fault (their exec receiver is gone).
                    for (w, tx) in exec_txs.iter().enumerate() {
                        if !stopped[w] && tx.is_disconnected() {
                            co.retire(w, &WorkerError::Disconnected("exec channel closed".into()));
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // Shut down: every surviving worker already got Stop when its slot
        // went inactive; dropping the senders unblocks any straggler.
        drop(exec_txs);
        for h in handles {
            let _ = h.join();
        }
        // Faults that raced the shutdown still deserve a retirement record.
        while let Ok(msg) = ready_rx.try_recv() {
            if let WorkerMsg::Fault { worker, error } = msg {
                co.retire(worker, &error);
            }
        }
        let last = eval(co.epochs_elapsed(&scheduler));
        // Total training time across incarnations, not just this one.
        let duration = t_base + t0.elapsed().as_secs_f64();
        co.finish(last, duration)
    }

    /// Start worker `slot`'s thread: its kind's body around the common
    /// [`serve`] loop. A body that does not end cleanly (coordinator said
    /// Stop, or the schedule ran dry) — a typed error or a panic — becomes
    /// a [`WorkerMsg::Fault`] instead of taking the process down.
    fn spawn_worker(
        &self,
        slot: usize,
        kind: WorkerKind,
        rx: Receiver<CoordMsg>,
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
                        WorkerKind::Gpu => gpu_worker(slot, perf, &plan, &env, run),
                    }
                };
                let error = match catch_unwind(AssertUnwindSafe(body)) {
                    Ok(Ok(())) => return,
                    Ok(Err(e)) => e,
                    Err(payload) => WorkerError::Panic(panic_message(&*payload)),
                };
                // If the coordinator is already gone there is nobody left
                // to tell.
                let fault = WorkerMsg::Fault {
                    worker: slot,
                    error,
                };
                let _ = env.ready.send(fault);
            })
            .expect("spawn worker")
    }
}

/// What a worker's step did with one dispatched range; [`serve`] traces
/// it and sends it to the coordinator inside [`Ready`].
struct StepOutcome {
    /// Examples processed (short of the dispatch after an OOM shrink).
    batch: usize,
    /// Raw model updates applied (Algorithm 2's `t`).
    updates: usize,
    /// Scale of the replica merge, on workers that merge one.
    merge_scale: Option<f32>,
    /// When a device OOM forced the step smaller, the batch size that
    /// actually fit — the coordinator clamps the controller's ceiling to it.
    shrunk_to: Option<usize>,
    /// The unprocessed tail of the dispatched range after an OOM shrink;
    /// the coordinator re-queues it.
    leftover: Option<BatchRange>,
    /// Measured per-phase breakdown of the busy span.
    phases: BatchPhases,
}

/// One worker kind's step: `(batch id, range, batches done before it)`.
type Step<'a> = dyn FnMut(u64, BatchRange, u64) -> Result<StepOutcome, WorkerError> + 'a;

/// The loop every worker thread runs, whatever its device: wait for a
/// dispatch, run `step` on it, report the outcome — until the coordinator
/// says stop or hangs up.
fn serve(
    slot: usize,
    rx: &Receiver<CoordMsg>,
    env: &WorkerEnv,
    plan: &FaultPlan,
    step: &mut Step<'_>,
) -> Result<(), WorkerError> {
    let (sink, t0) = (&env.sink, env.t0);
    // Histogram handles resolved once; recording is a few relaxed atomic
    // adds, so the zero-alloc steady state of the steps is preserved.
    let lat_hist = env.hub.histogram(Metric::BatchLatency, slot as u32);
    let queue_hist = env.hub.histogram(Metric::QueueWait, slot as u32);
    let mut batches_done = 0u64;
    loop {
        let (msg, waited) = rx.recv_timed();
        let Ok(msg) = msg else { break };
        queue_hist.record_secs(waited.as_secs_f64());
        let (id, range) = match msg {
            CoordMsg::Execute { id, range } => (id, range),
            CoordMsg::Stop => break,
        };
        sink.emit(slot as u32, EventKind::BatchStarted { id });
        if plan.death_after(slot) == Some(batches_done) {
            panic!("injected fault: worker {slot} died after {batches_done} batches");
        }
        let busy_start = t0.elapsed().as_secs_f64();
        let out = step(id, range, batches_done)?;
        let busy_end = t0.elapsed().as_secs_f64();
        lat_hist.record_secs(busy_end - busy_start);
        batches_done += 1;
        if let Some(scale) = out.merge_scale {
            sink.emit(
                slot as u32,
                EventKind::ModelMerge {
                    scale: scale as f64,
                    id: Some(id),
                },
            );
        }
        sink.emit(
            slot as u32,
            EventKind::BatchCompleted {
                id,
                batch: out.batch,
                updates: out.updates,
                phases: out.phases,
            },
        );
        let ready = Ready {
            worker: slot,
            id,
            busy_start,
            busy_end,
            out,
        };
        if env.ready.send(WorkerMsg::Ready(ready)).is_err() {
            break; // coordinator gone: nothing left to tell
        }
    }
    Ok(())
}

/// What a Hogwild lane is sent per dispatch: its sub-range `[s, e)` and
/// the worker's batch counter.
type LaneJob = (usize, usize, u64);

/// The CPU worker: `threads` Hogwild lanes that live as long as the worker
/// does. Lane 0 is this thread; lanes 1… are threads scoped to this call,
/// each owning its [`CpuLane`] and parked on its job channel between
/// dispatches. Hands `serve` the step that splits a dispatch across them
/// and reports once every lane of the dispatch has answered.
fn cpu_worker(
    slot: usize,
    threads: usize,
    plan: &FaultPlan,
    env: &WorkerEnv,
    serve: impl FnOnce(&mut Step<'_>) -> Result<(), WorkerError>,
) -> Result<(), WorkerError> {
    let (shared, train) = (&*env.shared, &env.train);
    let ctx = CpuStepCtx {
        shared,
        src: &env.src,
        train,
        watchdog: &env.watchdog,
        slot,
        stale_hist: &env.hub.histogram(Metric::Staleness, slot as u32),
        rows_hist: &env.hub.histogram(Metric::RowsTouched, slot as u32),
        skipped_ctr: &env.sink.counter("engine.sparse_rows_skipped"),
        // Injected faults land in one lane each — one poisoned update or
        // one dead lane is enough, and it keeps the site exact.
        poison_step: plan.poison_at(slot),
        lane_panic_step: plan.lane_panic_at(slot),
    };
    let ctx = &ctx;
    std::thread::scope(|scope| {
        // Lanes 1…, by their channels. What a lane thread blocks on is
        // owned by this closure, so an unwind out of it (a panic in `serve`
        // or in lane 0) hangs up on them before the scope joins them.
        let mut lanes = Vec::new();
        let mut handles = Vec::new();
        for i in 1..threads {
            let (job_tx, job_rx) = channel::<LaneJob>();
            let (done_tx, done_rx) = channel::<BatchPhases>();
            let handle = std::thread::Builder::new()
                .name(format!("hogwild-{i}"))
                .spawn_scoped(scope, move || {
                    let mut lane = CpuLane::new(shared);
                    while let Ok((s, e, batches_done)) = job_rx.recv() {
                        cpu_lane_step(ctx, &mut lane, i, s, e, batches_done);
                        if done_tx.send(lane.phases).is_err() {
                            break;
                        }
                    }
                })
                .map_err(|e| WorkerError::Panic(format!("hogwild lane {i}: {e}")))?;
            lanes.push((job_tx, done_rx));
            handles.push(handle);
        }
        let mut lane0 = CpuLane::new(shared);
        let served = serve(&mut |_id, range, batches_done| {
            let started = Instant::now();
            // Lane i's share of the range; the trailing lanes of a short
            // range get none.
            let sub = range.len().div_ceil(threads);
            let n_updates = range.len().div_ceil(sub);
            let share = |i: usize| {
                let s = range.start + i * sub;
                (s, (s + sub).min(range.end))
            };
            // A lane that is gone — it panicked — hangs up both of its
            // channels; the join below has the reason.
            let lane_died = |i: usize| WorkerError::Panic(format!("hogwild lane {i} died"));
            // Each Hogwild lane: read the live shared model (racy
            // snapshot), compute its sub-gradient, apply racily. Every
            // lane owns its buffers, so they are reused without
            // synchronization.
            for i in 1..n_updates {
                let (s, e) = share(i);
                let job = (s, e, batches_done);
                lanes[i - 1].0.send(job).map_err(|_| lane_died(i))?;
            }
            let (s, e) = share(0);
            cpu_lane_step(ctx, &mut lane0, 0, s, e, batches_done);
            // Lane phase timings are CPU-seconds summed across parallel
            // lanes; project them onto the batch's wall busy span so
            // attribution never exceeds elapsed.
            let mut phases = lane0.phases;
            for i in 1..n_updates {
                phases.add(&lanes[i - 1].1.recv().map_err(|_| lane_died(i))?);
            }
            let busy_wall = started.elapsed().as_secs_f64();
            let lane_total = phases.total();
            if lane_total > busy_wall && lane_total > 0.0 {
                phases.scale(busy_wall / lane_total);
            }
            Ok(StepOutcome {
                batch: range.len(),
                updates: n_updates,
                merge_scale: None,
                shrunk_to: None,
                leftover: None,
                phases,
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

/// A GPU worker: one software device with a deep-copy replica of the
/// model. Uploads the replica, then hands `serve` the step that trains it
/// on a dispatch and merges the delta back.
fn gpu_worker(
    slot: usize,
    perf: GpuModel,
    plan: &FaultPlan,
    env: &WorkerEnv,
    serve: impl FnOnce(&mut Step<'_>) -> Result<(), WorkerError>,
) -> Result<(), WorkerError> {
    let (shared, src, train, hub) = (&*env.shared, &*env.src, &env.train, &env.hub);
    // The observed device feeds H2D/D2H transfer histograms on top of the
    // trace events.
    let device = GpuDevice::new_observed(perf, &env.sink, slot as u32, hub);
    let stale_hist = hub.histogram(Metric::Staleness, slot as u32);
    let merge_hist = hub.histogram(Metric::MergeWait, slot as u32);
    let retries_hist = hub.histogram(Metric::MergeRetries, slot as u32);
    let rows_hist = hub.histogram(Metric::RowsTouched, slot as u32);
    let sparse_retries_hist = hub.histogram(Metric::MergeRetriesSparse, slot as u32);
    if plan.upload_oom(slot) {
        device.inject_oom_at(0);
    }
    if let Some(n) = plan.oom_alloc_index(slot) {
        device.inject_oom_at(n);
    }
    // Kernel-emulation GEMMs fan out to this pinned pool instead of
    // grabbing every host core.
    let gemm_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(train.rayon_threads)
        .build()
        .map_err(|e| WorkerError::Panic(format!("gpu gemm pool: {e}")))?;
    // Persistent host-side staging, reused across batches: snapshot/replica
    // models and the batch buffers make the steady-state step loop
    // allocation-free on the host (the device side reuses `GpuMlp`'s
    // scratch pool).
    let snapshot = shared.snapshot();
    // Where the replica trains: on the device, or — CSR batches — on the
    // host's sparse kernels, with nothing uploaded (the software device has
    // no CSR kernels) and no second model held. An OOM here is
    // unrecoverable — there is no batch to shrink when the parameters
    // themselves don't fit.
    let on_device = (src.density().is_none())
        .then(|| GpuMlp::upload(&device, &snapshot))
        .transpose()
        .map_err(|e| WorkerError::Oom(format!("model upload failed: {e}")))?
        .map(|mlp| (mlp, Model::zeros_like(shared.spec())));
    let mut replica = GpuReplica {
        on_device,
        lane: Lane::new(shared.spec()),
        // Watchdog scratch: per-layer sumsq / non-finite counts of the
        // merged delta, filled *inside* the merge's element loop (no extra
        // pass over the model).
        merge_scan: MergeScan::for_model(&snapshot),
        snapshot,
    };
    let poison_step = plan.poison_at(slot);
    serve(&mut |id, range, batches_done| {
        // Transfers the device emits while this batch runs carry its
        // lineage id.
        device.set_active_batch(Some(id));
        let step = GpuStepCtx {
            shared,
            src,
            gemm_pool: &gemm_pool,
            train,
            watchdog: &env.watchdog,
            slot,
            batches_done,
            stale_hist: &stale_hist,
            merge_hist: &merge_hist,
            retries_hist: &retries_hist,
            rows_hist: &rows_hist,
            sparse_retries_hist: &sparse_retries_hist,
        };
        let poison = poison_step == Some(batches_done);
        let out = gpu_batch_step(&step, &mut replica, range, poison)?;
        device.set_active_batch(None);
        Ok(out)
    })
    // `replica.on_device` (and its device buffers) drops here — and on any unwind
    // path above, via GpuMlp's Drop impl.
}

/// One Hogwild lane: its racy model snapshot beside the shared [`Lane`]
/// scratch, all reused across batches.
struct CpuLane {
    local: Model,
    batch: Lane,
    /// Watchdog scratch: per-layer sumsq / non-finite counts of the lane's
    /// own gradient, reused every batch (lane-local, so no
    /// synchronization).
    scan: MergeScan,
    /// This lane's stage/compute/merge split of its last step
    /// (lane-local CPU seconds; the worker projects the lane sum onto the
    /// batch's wall busy span before reporting).
    phases: BatchPhases,
}

impl CpuLane {
    fn new(shared: &SharedModel) -> Self {
        let local = shared.snapshot();
        CpuLane {
            scan: MergeScan::for_model(&local),
            local,
            batch: Lane::new(shared.spec()),
            phases: BatchPhases::default(),
        }
    }
}

/// Shared, read-only context of a CPU worker's lane steps.
struct CpuStepCtx<'a> {
    shared: &'a SharedModel,
    src: &'a BatchSource<Arc<DenseDataset>>,
    train: &'a TrainConfig,
    watchdog: &'a Watchdog,
    slot: usize,
    stale_hist: &'a HistHandle,
    rows_hist: &'a HistHandle,
    skipped_ctr: &'a CounterHandle,
    /// Batch whose lane-0 gradient gets a NaN ([`FaultPlan::poison_at`]).
    poison_step: Option<u64>,
    /// Batch inside which lane 1 panics ([`FaultPlan::lane_panic_at`]).
    lane_panic_step: Option<u64>,
}

/// One Hogwild lane step: racy snapshot → sub-gradient → racy apply.
/// This is the CPU hot path the paper's speedup model assumes is cheap;
/// the audit proves its steady state stays allocation-free (DESIGN.md §4j).
// audit: no_alloc
fn cpu_lane_step(
    ctx: &CpuStepCtx<'_>,
    lane: &mut CpuLane,
    i: usize,
    s: usize,
    e: usize,
    batches_done: u64,
) {
    if i == 1 && ctx.lane_panic_step == Some(batches_done) {
        panic!("injected fault: hogwild lane {i} panicked in batch {batches_done}");
    }
    let shared = ctx.shared;
    // Staleness = global updates applied between this lane's read and its
    // own write landing (minus the write itself).
    let stale_at = (!ctx.stale_hist.is_disabled()).then(|| shared.update_count());
    let t_stage = Instant::now();
    shared.snapshot_into(&mut lane.local);
    lane.batch.stage(ctx.src, s, e);
    let t_compute = Instant::now();
    lane.phases.stage_secs = (t_compute - t_stage).as_secs_f64();
    lane.batch.gradient(ctx.src, &lane.local, false);
    lane.phases.compute_secs = t_compute.elapsed().as_secs_f64();
    lane.phases.transfer_secs = 0.0;
    // Injected fault: one NaN into this worker's gradient at the planned
    // step.
    if i == 0 && ctx.poison_step == Some(batches_done) {
        lane.batch.ws.grad_mut().layers_mut()[0].b[0] = f32::NAN;
    }
    if ctx.watchdog.enabled() {
        lane.scan.reset();
        scan_model(lane.batch.ws.grad(), &mut lane.scan);
        observe_scan(ctx.watchdog, ctx.slot, batches_done, &lane.scan);
    }
    let eta = ctx.train.lr_scaling.eta(ctx.train.lr, e - s);
    let t_merge = Instant::now();
    if let Some(cols) = lane.batch.active_cols() {
        ctx.rows_hist.record(cols.len() as u64);
        let features = ctx.src.dataset.features();
        ctx.skipped_ctr.add((features - cols.len()) as u64);
    }
    lane.batch.apply_racy(shared, eta);
    lane.phases.merge_secs = t_merge.elapsed().as_secs_f64();
    if let Some(at) = stale_at {
        let now = shared.update_count();
        ctx.stale_hist.record(now.saturating_sub(at + 1));
    }
}

/// Shared, read-only context of one GPU batch step (bundled so the step
/// function's signature stays reviewable).
struct GpuStepCtx<'a> {
    shared: &'a SharedModel,
    src: &'a BatchSource<Arc<DenseDataset>>,
    gemm_pool: &'a rayon::ThreadPool,
    train: &'a TrainConfig,
    watchdog: &'a Watchdog,
    slot: usize,
    batches_done: u64,
    stale_hist: &'a HistHandle,
    merge_hist: &'a HistHandle,
    retries_hist: &'a HistHandle,
    rows_hist: &'a HistHandle,
    sparse_retries_hist: &'a HistHandle,
}

/// A GPU worker's deep-copy replica and everything one step of it reuses.
struct GpuReplica<'d> {
    /// The device-resident copy and the host model it is downloaded into;
    /// `None` when the replica trains on the host instead (CSR runs) —
    /// there it is one gradient step from `snapshot`, so the lane's
    /// gradient is its whole delta and no second model is kept.
    on_device: Option<(GpuMlp<'d>, Model)>,
    snapshot: Model,
    lane: Lane,
    merge_scan: MergeScan,
}

/// One GPU batch step: snapshot → train the replica one step →
/// staleness-discounted delta merge (§V/§VI-B).
/// In the outcome's phase breakdown staging (snapshot + batch gather),
/// transfer (model refresh + delta download), compute (the step), and
/// merge are wall-timed separately, accumulated across OOM retries.
///
/// The steady-state path is allocation-free on the host; the `format!`
/// calls on the unrecoverable-OOM branch are reviewed allowlist entries
/// (the worker retires immediately after).
// audit: no_alloc
fn gpu_batch_step(
    ctx: &GpuStepCtx<'_>,
    rep: &mut GpuReplica<'_>,
    range: BatchRange,
    poison: bool,
) -> Result<StepOutcome, WorkerError> {
    let GpuReplica {
        on_device,
        snapshot,
        lane,
        merge_scan,
    } = rep;
    let mut phases = BatchPhases::default();
    // Deep-copy replica of the current global model (§V).
    let updates_at_snapshot = ctx.shared.update_count();
    let t_stage = Instant::now();
    ctx.shared.snapshot_into(snapshot);
    phases.stage_secs += t_stage.elapsed().as_secs_f64();
    // Train the replica one step — the first of the two places the
    // worker's modes differ (the other is where the delta comes from).
    let (len, shrunk_to) = match on_device {
        Some((mlp, replica)) => {
            // Bounded retry: halve the batch until the step fits on the
            // device (a mid-step OOM leaves the replica partially updated,
            // so refresh before every try).
            let mut len = range.len();
            let mut shrunk_to = None;
            loop {
                let t_refresh = Instant::now();
                mlp.refresh(snapshot);
                phases.transfer_secs += t_refresh.elapsed().as_secs_f64();
                let t_batch = Instant::now();
                lane.stage(ctx.src, range.start, range.start + len);
                phases.stage_secs += t_batch.elapsed().as_secs_f64();
                let eta = ctx.train.lr_scaling.eta(ctx.train.lr, len);
                let t_compute = Instant::now();
                let step = ctx
                    .gemm_pool
                    .install(|| mlp.train_step(&lane.x, lane.labels.as_targets(), eta));
                phases.compute_secs += t_compute.elapsed().as_secs_f64();
                match step {
                    Ok(_) => break,
                    Err(_) if len > 1 => {
                        len /= 2;
                        shrunk_to = Some(len);
                    }
                    Err(e) => {
                        return Err(WorkerError::Oom(format!("single-example step failed: {e}")));
                    }
                }
            }
            let t_download = Instant::now();
            mlp.download_into(replica);
            phases.transfer_secs += t_download.elapsed().as_secs_f64();
            (len, shrunk_to)
        }
        None => {
            // Host memory can't OOM-shrink, so the whole range always
            // processes, and nothing crosses a device link. The step itself
            // is never taken on a copy: its gradient at the snapshot is all
            // the merge needs.
            let t_stage = Instant::now();
            lane.stage(ctx.src, range.start, range.end);
            phases.stage_secs += t_stage.elapsed().as_secs_f64();
            let t_compute = Instant::now();
            ctx.gemm_pool
                .install(|| lane.gradient(ctx.src, snapshot, true));
            phases.compute_secs = t_compute.elapsed().as_secs_f64();
            let rows = lane.active_cols().map_or(0, <[u32]>::len);
            ctx.rows_hist.record(rows as u64);
            (range.len(), None)
        }
    };
    let leftover = (len < range.len()).then_some(BatchRange {
        start: range.start + len,
        end: range.end,
        epoch: range.epoch,
    });
    // Merge the replica's delta into the global model without clobbering
    // concurrent CPU updates. §VI-B: the delta is discounted by how stale
    // its base snapshot became while the replica was training.
    let staleness = ctx
        .shared
        .update_count()
        .saturating_sub(updates_at_snapshot);
    let scale = 1.0 / (1.0 + ctx.train.staleness_discount * staleness as f32);
    ctx.stale_hist.record(staleness);
    let merge_start = Instant::now();
    // The scan rides in the merge loop, and only a watchdog reads it.
    merge_scan.reset();
    let scan = ctx.watchdog.enabled().then_some(&mut *merge_scan);
    // Injected fault (`poison`): one NaN into this worker's delta at the
    // planned step (the merge carries it into the shared model — detection
    // is the watchdog's job, not the merge's). The bias is part of a
    // row-sparse merge's dense tail, so the NaN reaches the shared model
    // either way. Each arm also says where its merge's contention is
    // tallied.
    let (found_owned, owned_hist) = match on_device {
        Some((_, replica)) => {
            if poison {
                replica.layers_mut()[0].b[0] = f32::NAN;
            }
            let found_owned = ctx.shared.merge(snapshot, replica, scale, None, scan);
            (found_owned, ctx.retries_hist)
        }
        None => {
            if poison {
                lane.ws.grad_mut().layers_mut()[0].b[0] = f32::NAN;
            }
            // The host-trained replica would be `snapshot − η·∇`; its delta
            // is the gradient the lane still holds, over the lane's own
            // layer-0 rows.
            let eta = ctx.train.lr_scaling.eta(ctx.train.lr, len);
            let found_owned = lane.merge_into(ctx.shared, eta * scale, scan);
            (found_owned, ctx.sparse_retries_hist)
        }
    };
    if ctx.watchdog.enabled() {
        observe_scan(ctx.watchdog, ctx.slot, ctx.batches_done, merge_scan);
    }
    phases.merge_secs = merge_start.elapsed().as_secs_f64();
    ctx.merge_hist.record_secs(phases.merge_secs);
    owned_hist.record(found_owned);
    Ok(StepOutcome {
        batch: len,
        updates: 1,
        merge_scale: Some(scale),
        shrunk_to,
        leftover,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptiveParams, LrScaling};
    use hetero_ckpt::Checkpointer;
    use hetero_data::SynthConfig;

    /// Per-thread trace ring sized for a whole test run. The busiest
    /// thread (the GPU worker: start, transfers, kernels, merge, complete
    /// per batch) emits 80–150 k events in a 0.4 s release-mode run; a
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
        // The default `RunCtx` has no hub, so no staleness summary.
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
                EventKind::WorkerFault { ref reason } | EventKind::WorkerRetired { ref reason } => {
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
        let hub = MetricsHub::new();
        let cfg = config(AlgorithmKind::AdaptiveHogbatch, 0.4);
        let r = ThreadedEngine::new(cfg).unwrap().run_with(
            dataset(),
            &RunCtx {
                sink: sink.clone(),
                hub: hub.clone(),
                ..RunCtx::default()
            },
        );
        assert!(r.final_loss().is_finite());
        // Staleness summary comes from the hub.
        let stale = r.staleness.expect("staleness summary missing");
        assert!(stale.count > 0);
        assert!(stale.p50 <= stale.p99);
        // Both workers filled latency + queue-wait histograms; the GPU
        // additionally filled transfer + merge series.
        let snap = hub.snapshot();
        for w in [0u32, 1u32] {
            for m in [Metric::BatchLatency, Metric::QueueWait] {
                let s = snap.series_for(m, w).expect("series missing");
                assert!(s.count() > 0, "{m:?} empty for worker {w}");
            }
        }
        for m in [
            Metric::H2d,
            Metric::D2h,
            Metric::MergeWait,
            Metric::MergeRetries,
        ] {
            let s = snap.merged(m).expect("gpu series missing");
            assert!(s.count() > 0, "{m:?} empty");
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
    fn sparse_input_run_converges_and_reports_sparse_metrics() {
        let sink = TraceSink::wall(RING);
        let hub = MetricsHub::new();
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.5);
        cfg.train.sparse_input = true;
        let r = ThreadedEngine::new(cfg).unwrap().run_with(
            dataset(),
            &RunCtx {
                sink: sink.clone(),
                hub: hub.clone(),
                ..RunCtx::default()
            },
        );
        assert!(r.final_loss() < r.initial_loss(), "{:?}", r.loss_curve);
        for w in &r.workers {
            assert!(w.batches > 0, "{:?} idle", w.kind);
        }
        // Sparse observability: rows-touched from both worker kinds, the
        // sparse-split merge-contention series from the GPU merge, the density
        // gauge, and the rows-skipped counter.
        let snap = hub.snapshot();
        let rows = snap
            .merged(Metric::RowsTouched)
            .expect("rows_touched series missing");
        assert!(rows.count() > 0);
        let sparse_retries = snap
            .merged(Metric::MergeRetriesSparse)
            .expect("sparse merge-retry series missing");
        assert!(sparse_retries.count() > 0);
        let counters: std::collections::HashMap<String, f64> =
            sink.drain().counters.into_iter().collect();
        let density = *counters
            .get("engine.sparse_density")
            .expect("density gauge missing");
        assert!(density > 0.0 && density <= 1.0, "density {density}");
        assert!(
            counters.contains_key("engine.sparse_rows_skipped"),
            "rows-skipped counter missing"
        );
    }

    /// One GPU batch step of each arm (device replica on dense batches,
    /// host-trained gradient on CSR ones) with and without a watchdog:
    /// the merge fills the caller's scan only when something reads it.
    #[test]
    fn gpu_merge_scans_only_under_a_watchdog() {
        let data = dataset();
        let train = config(AlgorithmKind::CpuGpuHogbatch, 0.1).train;
        let model = Model::new(MlpSpec::tiny(8, 2), hetero_nn::InitScheme::Xavier, 1);
        let gemm_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let device = GpuDevice::new(GpuModel::v100());
        let off = HistHandle::disabled();
        for sparse in [false, true] {
            for watched in [false, true] {
                let shared = SharedModel::new(&model);
                let src = BatchSource::new(Arc::clone(&data), sparse);
                let watchdog = if watched {
                    Watchdog::new(Default::default())
                } else {
                    Watchdog::disabled()
                };
                watchdog.ensure_layers(model.layers().len());
                let ctx = GpuStepCtx {
                    shared: &shared,
                    src: &src,
                    gemm_pool: &gemm_pool,
                    train: &train,
                    watchdog: &watchdog,
                    slot: 0,
                    batches_done: 0,
                    stale_hist: &off,
                    merge_hist: &off,
                    retries_hist: &off,
                    rows_hist: &off,
                    sparse_retries_hist: &off,
                };
                let snapshot = shared.snapshot();
                let on_device = (!sparse).then(|| {
                    let mlp = GpuMlp::upload(&device, &snapshot).unwrap();
                    (mlp, Model::zeros_like(shared.spec()))
                });
                let mut rep = GpuReplica {
                    on_device,
                    lane: Lane::new(shared.spec()),
                    merge_scan: MergeScan::for_model(&snapshot),
                    snapshot,
                };
                let range = BatchRange {
                    start: 0,
                    end: 64,
                    epoch: 0,
                };
                let out = gpu_batch_step(&ctx, &mut rep, range, false).unwrap();
                assert_eq!((out.batch, out.updates), (64, 1));
                assert_ne!(shared.snapshot(), model, "sparse={sparse}: nothing merged");
                let reset = MergeScan::for_model(&model);
                assert_eq!(
                    rep.merge_scan != reset,
                    watched,
                    "sparse={sparse} watched={watched}: {:?}",
                    rep.merge_scan
                );
            }
        }
    }

    #[test]
    fn pool_oversubscription_counter_reports_excess_threads() {
        // Deliberately request far more GEMM threads than any host has:
        // the counter must report the excess (lanes + GPU GEMM fan-out
        // beyond the host's cores).
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.2);
        cfg.train.rayon_threads = 1024;
        let sink = TraceSink::wall(RING);
        let _ = ThreadedEngine::new(cfg)
            .unwrap()
            .run_traced(dataset(), &sink);
        let counters: std::collections::HashMap<String, f64> =
            sink.drain().counters.iter().cloned().collect();
        let over = counters
            .get("engine.pool_oversubscription")
            .copied()
            .expect("counter missing");
        assert!(over >= 512.0, "oversubscription not reported: {over}");
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
    fn tensorflow_rejected() {
        assert!(ThreadedEngine::new(config(AlgorithmKind::TensorFlow, 0.1)).is_err());
    }

    #[test]
    fn checkpoint_and_resume_continues_the_run() {
        use hetero_ckpt::CkptConfig;
        let data = dataset();
        let dir = std::env::temp_dir().join(format!("hetero-thr-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First incarnation: train 0.4s of a 0.8s budget, checkpointing
        // every 50ms, then stop (simulating a crash after the last save).
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.4);
        cfg.train.time_budget = 0.4;
        let writer = Checkpointer::new(CkptConfig {
            dir: dir.clone(),
            interval: 0.05,
            retain: 2,
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
        // The capture folded every window whole into the re-queue, parked
        // ranges included: what the workers had been credited with plus
        // what waits for the resumed run is exactly what the schedule had
        // served.
        let state: ThreadedCkpt = reader.resume_state().expect("a valid generation");
        let waiting: usize = state.core.requeue.iter().map(BatchRange::len).sum();
        assert!(waiting > 0, "captured between two batches of every worker?");
        assert_eq!(
            state.core.examples_trained() + waiting as u64,
            state.scheduler.examples_served()
        );
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
        // The resumed run spent the restored time plus the remainder.
        assert!(resumed.duration > 0.5, "duration {}", resumed.duration);
        assert!(resumed.final_loss().is_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The threaded twin of the simulator's test: a checkpoint in the
    /// previous layout (tag v2: the model's layer 0 stored `out × in`) is
    /// refused whole by the schema tag, and the run starts fresh.
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
        // …the same state written the way the previous schema laid it out
        // does not.
        let mut old: ThreadedCkpt = ckpt(true).resume_state().expect("a checkpoint");
        old.core.schema = "hetero-threaded-ckpt/v2".into();
        let w0 = &mut old.core.model.layers_mut()[0].w;
        *w0 = w0.transpose();
        assert!(ckpt(false).save(old.core.t, &old).is_some());
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
