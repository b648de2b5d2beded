//! Discrete-event training engine.
//!
//! Executes any [`AlgorithmKind`] against calibrated device models
//! ([`hetero_sim::CpuModel`], [`hetero_sim::GpuModel`]) on a **virtual
//! clock**: every gradient is computed for real on the host, but the
//! *instant it lands* on the global model is decided by the device
//! performance models. This captures the two things the paper's evaluation
//! depends on — the CPU/GPU speed gap and asynchronous staleness (gradients
//! are computed on the model **snapshot taken at batch-assignment time**
//! and applied at completion time) — while remaining exactly reproducible.
//!
//! Workflow per worker (paper Figure 4):
//! 1. coordinator computes the worker's batch size (the
//!    [`crate::AdaptiveController`] is Algorithm 2; static algorithms freeze
//!    it),
//! 2. extracts a contiguous range from the data (the [`BatchScheduler`]),
//! 3. snapshots the model (reference for CPU, deep copy for GPU — in the
//!    simulation both are snapshots, but GPU workers additionally pay the
//!    H2D/D2H transfer cost of a deep copy),
//! 4. at `now + batch_time`, the gradient(s) computed on the snapshot are
//!    applied to the live model, update counts are credited, and the worker
//!    immediately requests more work.
//!
//! A CPU batch is Algorithm 2's `t` Hogwild sub-batches, modelled in waves
//! of 8 lanes that all read the same model (`SimScratch::run_waves`). The
//! applies of a simulated wave lose nothing, so a wave's `k` lanes of `n`
//! rows sum to one mini-batch step over their `k·n` rows at `k·η(n)` — the
//! Hogbatch observation of "SGD on Highly-Parallel Architectures". The
//! simulator computes one gradient per run of equal-length lanes (at most
//! two per wave) and still credits one update per lane; the virtual clock
//! is unchanged, only the gradient's summation order differs.

use std::ops::Deref;
use std::time::Instant;

use hetero_data::batch::BatchRange;
use hetero_data::{BatchScheduler, DenseDataset};
use hetero_flight::Watchdog;
use hetero_metrics::{HistHandle, Metric, MetricsHub};
use hetero_nn::{scan_model, MergeScan, MlpSpec, Model};
use hetero_sim::{CpuModel, DeviceModel, EventQueue, GpuModel, UtilizationTimeline};
use hetero_trace::{BatchPhases, EventKind, TimeDomain, TraceSink};
use serde::{Deserialize, Serialize};

use crate::adaptive::WorkerBatchState;
use crate::config::{AlgorithmKind, TrainConfig};
use crate::coordinator::{
    cpu_batch_state, gpu_batch_state, observe_scan, record_busy, Coordinator, CoreCkpt, RunCtx,
    Setup,
};
use crate::fault::{FaultPlan, WorkerError};
use crate::lane::{eval_subset, start_up, BatchSource, Evaluator, Lane};
use crate::metrics::{LossPoint, TrainResult, WorkerKind, WorkerStats};

/// Hardware and comparator parameters for a simulated run.
#[derive(Debug, Clone)]
pub struct SimEngineConfig {
    /// Network to train.
    pub spec: MlpSpec,
    /// Algorithm + hyperparameters.
    pub train: TrainConfig,
    /// Host CPU model.
    pub cpu: CpuModel,
    /// GPU models; the paper evaluates with one V100, more are supported
    /// (the paper's multi-GPU future work).
    pub gpus: Vec<GpuModel>,
    /// TensorFlow comparator: per-primitive dispatch overhead (§II —
    /// "scheduling primitives instead of the complete SGD has more
    /// overhead").
    pub tf_op_overhead: f64,
    /// TensorFlow comparator: slowdown factor on multi-label losses
    /// (§VII-B: delicious "is much slower in TensorFlow").
    pub tf_multilabel_penalty: f64,
    /// Deterministic fault injection (empty = fault-free run). The sim
    /// honours [`crate::FaultKind::DieAfterBatches`]; the OOM kinds need a
    /// real device allocator and only apply to the threaded engine.
    pub fault_plan: FaultPlan,
}

impl SimEngineConfig {
    /// Paper hardware: 2×Xeon host + one V100.
    pub fn paper_hardware(spec: MlpSpec, train: TrainConfig) -> Self {
        SimEngineConfig {
            spec,
            train,
            cpu: CpuModel::xeon_pair(),
            gpus: vec![GpuModel::v100()],
            tf_op_overhead: 20e-6,
            tf_multilabel_penalty: 3.0,
            fault_plan: FaultPlan::none(),
        }
    }
}

enum Device {
    Cpu(CpuModel),
    Gpu(GpuModel),
}

impl Device {
    fn kind(&self) -> WorkerKind {
        match self {
            Device::Cpu(_) => WorkerKind::Cpu,
            Device::Gpu(_) => WorkerKind::Gpu,
        }
    }
}

/// Hogwild lanes of a simulated CPU batch that read the same model: the
/// first wave sees the batch snapshot, each later one the model as the
/// previous waves left it.
const WAVE: usize = 8;

/// Per-run scratch shared by every [`SimEngine::apply_batch`] call: one
/// CPU lane that computes each run of a wave's lanes as one mini-batch
/// gradient, the wave base model, a dedicated GPU lane, and the spare
/// snapshots completed events hand back to `assign`. Reused across every
/// event, so steady-state gradient computation allocates nothing.
struct SimScratch {
    cpu: Lane,
    base: Model,
    gpu: Lane,
    /// Snapshots of completed events, recycled by the next dispatches
    /// (at most one per worker is ever in flight).
    spares: Vec<Model>,
}

impl SimScratch {
    fn new(spec: &MlpSpec) -> Self {
        SimScratch {
            cpu: Lane::new(spec),
            base: Model::zeros_like(spec),
            gpu: Lane::new(spec),
            spares: Vec::new(),
        }
    }

    /// Algorithm 2's CPU worker on rows `start..end` read from `snapshot`:
    /// `lanes` Hogwild sub-batches of `⌈len / lanes⌉` rows (only the last
    /// one shorter), applied to `model` in waves of [`WAVE`] that each read
    /// the model the previous waves left. Hogwild threads read the live
    /// model *during* their sub-batch, so this bounds the intra-batch
    /// divergence by a wave rather than the whole batch.
    ///
    /// A wave's lanes read one model and their applies lose nothing, so
    /// `Σ ηᵢ·gᵢ = k·η(n)·ḡ` over a run of `k` lanes of `n` rows, where `ḡ`
    /// is the mean gradient over the run's `k·n` contiguous rows: each run
    /// is one `stage` → `gradient` → `apply_to` at step `k·step(n)`, and a
    /// wave has at most two runs. `inspect` sees every run's gradient
    /// before it is applied. Returns the lanes applied — one update each.
    #[allow(clippy::too_many_arguments)]
    fn run_waves<D>(
        &mut self,
        src: &BatchSource<D>,
        start: usize,
        end: usize,
        lanes: usize,
        snapshot: &Model,
        model: &mut Model,
        step: impl Fn(usize) -> f32,
        mut inspect: impl FnMut(&mut Lane),
    ) -> usize
    where
        D: Deref<Target = DenseDataset>,
    {
        let sub = (end - start).div_ceil(lanes);
        if sub == 0 {
            return 0;
        }
        let SimScratch { cpu, base, .. } = self;
        base.copy_from(snapshot);
        let mut updates = 0;
        for ws in (start..end).step_by(WAVE * sub) {
            let we = (ws + WAVE * sub).min(end);
            let split = ws + (we - ws) / sub * sub;
            // The wave's full lanes, then the batch's short last lane.
            for (s, e) in [(ws, split), (split, we)] {
                if e == s {
                    continue;
                }
                let n = (e - s).min(sub);
                let k = (e - s) / n;
                cpu.stage(src, s, e);
                cpu.gradient(src, base, true);
                inspect(cpu);
                // `hetero_wave_unscaled` is a mutation switch for
                // `scripts/check_mutation.sh`.
                let scale = if cfg!(hetero_wave_unscaled) { 1 } else { k };
                cpu.apply_to(model, scale as f32 * step(n));
                updates += k;
            }
            base.copy_from(model);
        }
        updates
    }
}

/// Pre-resolved per-worker histogram handles for an observed run. Every
/// handle is a no-op when the hub is disabled, so the unobserved path pays
/// one branch per record. The sim has no queue wait — workers are
/// re-assigned the instant they complete — so that series is left to the
/// threaded engine.
struct SimObs {
    lat: Vec<HistHandle>,
    stale: Vec<HistHandle>,
    h2d: Vec<HistHandle>,
    d2h: Vec<HistHandle>,
}

impl SimObs {
    fn new(hub: &MetricsHub, workers: usize) -> Self {
        let per = |m: Metric| -> Vec<HistHandle> {
            (0..workers).map(|w| hub.histogram(m, w as u32)).collect()
        };
        SimObs {
            lat: per(Metric::BatchLatency),
            stale: per(Metric::Staleness),
            h2d: per(Metric::H2d),
            d2h: per(Metric::D2h),
        }
    }
}

/// A pending event of the simulation. Serializable as is: an in-flight
/// completion carries its full model snapshot into a checkpoint, because
/// the gradient a resumed run computes for it must come from the exact
/// weights the original schedule assigned, or bit-identity is lost.
#[derive(Clone, Serialize, Deserialize)]
enum Ev {
    Complete {
        /// Lineage id stamped on the batch's dispatch/start/complete events.
        id: u64,
        worker: usize,
        range: BatchRange,
        snapshot: Model,
        /// Global update count when the snapshot was taken — the gradient's
        /// staleness is measured against this (§VI-B).
        updates_at_snapshot: u64,
        /// Modeled phase breakdown, fixed at assignment time from the same
        /// cost formulas that set the completion's virtual latency.
        phases: BatchPhases,
    },
    Eval,
}

/// Everything a [`SimEngine`] run is, frozen at one virtual instant: the
/// common envelope (model, controller, loss curve, per-worker counters,
/// watchdog tallies) plus this engine's tail — the batch-schedule cursor,
/// eval cadence state, and every in-flight event.
/// Restoring this state and re-running the event loop continues the
/// original run bit-identically — the property `crates/ckpt/tests` locks
/// in.
#[derive(Serialize, Deserialize)]
struct SimCkpt {
    core: CoreCkpt,
    scheduler: BatchScheduler,
    global_updates: u64,
    last_epoch_evaled: usize,
    last_eval_time: f64,
    /// Pending events with their scheduled virtual times, in pop order:
    /// re-scheduling in this order reproduces the queue's tie-breaking
    /// exactly (see [`EventQueue::pending_in_order`]).
    pending: Vec<(f64, Ev)>,
}

/// Schema tag sanity-checked at restore so a checkpoint from a different
/// engine (or an older, incompatible layout) is rejected instead of
/// half-applied.
const SIM_CKPT_SCHEMA: &str = "hetero-sim-ckpt/v4";

/// The discrete-event engine.
pub struct SimEngine {
    cfg: SimEngineConfig,
}

impl SimEngine {
    /// Build an engine; validates the configuration.
    pub fn new(cfg: SimEngineConfig) -> Result<Self, String> {
        cfg.train.validate()?;
        cfg.spec.validate()?;
        if cfg.train.algorithm.uses_gpu() && cfg.gpus.is_empty() {
            return Err("algorithm needs a GPU but none configured".into());
        }
        Ok(SimEngine { cfg })
    }

    /// [`SimEngine::run_with`] a default [`RunCtx`] (kept: the frozen
    /// `benchmark/` calls it).
    pub fn run(&self, dataset: &DenseDataset) -> TrainResult {
        self.run_with(dataset, &RunCtx::default())
    }

    /// [`SimEngine::run_with`] only [`RunCtx::sink`] set (kept: the frozen
    /// `benchmark/` calls it).
    pub fn run_traced(&self, dataset: &DenseDataset, sink: &TraceSink) -> TrainResult {
        let sink = sink.clone();
        self.run_with(
            dataset,
            &RunCtx {
                sink,
                ..RunCtx::default()
            },
        )
    }

    /// Train on `dataset` for `time_budget` virtual seconds, observed and
    /// checkpointed as `ctx` says (see [`RunCtx`]; its sink should be in
    /// the virtual domain). Nothing in `ctx` feeds back into the virtual
    /// schedule, so the timeline and the math are bit-identical whatever
    /// is attached — only an explicit health-policy action changes a run.
    pub fn run_with(&self, dataset: &DenseDataset, ctx: &RunCtx) -> TrainResult {
        let entered = Instant::now();
        // Pin the GEMM fan-out to `train.rayon_threads` (0 = host cores)
        // for the whole run; the sim is single-coordinator, so the only
        // oversubscription possible is the pool itself exceeding the host.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.cfg.train.rayon_threads)
            .build()
            .expect("sim gemm pool");
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let oversubscribed = pool.current_num_threads().saturating_sub(host) as u64;
        pool.install(|| self.run_inner(dataset, ctx, oversubscribed, entered))
    }

    fn run_inner(
        &self,
        dataset: &DenseDataset,
        ctx: &RunCtx,
        oversubscribed: u64,
        entered: Instant,
    ) -> TrainResult {
        let cfg = &self.cfg;
        let train = &cfg.train;
        let algo = train.algorithm;
        let spec = &cfg.spec;
        assert_eq!(
            dataset.features(),
            spec.input_dim,
            "dataset features != network input_dim"
        );

        // --- Devices & workers -------------------------------------------------
        let mut devices: Vec<Device> = Vec::new();
        if algo.uses_cpu() {
            devices.push(Device::Cpu(cfg.cpu.clone()));
        }
        if algo.uses_gpu() {
            for g in &cfg.gpus {
                devices.push(Device::Gpu(g.clone()));
            }
        }
        let mut co = Coordinator::new(
            Setup {
                engine: "sim",
                domain: TimeDomain::Virtual,
                algorithm: algo.label(),
                train,
                dataset,
                layers: spec.num_layers(),
                workers: devices
                    .iter()
                    .map(|d| (d.kind(), self.initial_batch(d, dataset.len())))
                    .collect(),
            },
            ctx,
        );
        let sink = co.sink.clone();
        sink.counter("engine.pool_oversubscription")
            .add(oversubscribed);

        let mut eval_timeline = UtilizationTimeline::new();
        let obs = SimObs::new(&ctx.hub, devices.len());

        // --- Resume from the newest valid checkpoint ----------------------------
        // Its model image is restored by start-up; the rest of it replaces
        // the freshly initialized state below.
        let (core, resume) = co
            .load(SIM_CKPT_SCHEMA, |s: &SimCkpt| &s.core)
            .map(|s| {
                let cadence = (s.global_updates, s.last_epoch_evaled, s.last_eval_time);
                (s.core, (s.scheduler, cadence, s.pending))
            })
            .unzip();

        // --- Data, model, schedule, eval subset --------------------------------
        let (src, mut model) = start_up(dataset, spec, train, &mut co, core);
        co.clock_starts(entered);
        // Watchdog scratch: per-layer sumsq / non-finite counts of each
        // applied gradient, reused across every event.
        let mut health_scan = MergeScan::for_model(&model);
        let mut scheduler = BatchScheduler::new(dataset.len(), train.max_epochs);
        let eval_rows = eval_subset(dataset.len(), train.eval_subsample, train.seed);
        let mut evaluator = Evaluator::new(&src, &eval_rows, spec);

        let mut queue: EventQueue<Ev> = EventQueue::new();
        // A reused sink may still hold a previous run's clock.
        sink.set_virtual_now(queue.now());
        let mut global_updates: u64 = 0;
        // Reused gradient-lane buffers (see `SimScratch`): warmed during
        // the first events, allocation-free thereafter.
        let mut scratch = SimScratch::new(spec);
        let budget = train.time_budget;
        let timeline_rejects = co.timeline_rejects.clone();

        let mut eval = |t: f64, epochs: f64, model: &Model, eval_tl: &mut UtilizationTimeline| {
            let (loss, accuracy) = evaluator.score(model);
            // The paper runs the loss evaluation on the GPU at epoch end,
            // which shows up as a utilization spike (Figure 7). Account it
            // on a dedicated timeline to avoid perturbing worker schedules.
            if let Some(g) = self.cfg.gpus.first() {
                let fwd = model.spec().forward_flops_per_example();
                let dur = g.batch_time(fwd, evaluator.rows());
                let start = t.max(eval_tl.horizon());
                record_busy(eval_tl, &timeline_rejects, start, start + dur, 1.0);
            }
            LossPoint {
                time: t,
                epochs,
                loss,
                accuracy,
            }
        };

        let mut last_epoch_evaled = 0usize;
        let mut last_eval_time = 0.0f64;

        if let Some((resumed_scheduler, cadence, pending)) = resume {
            scheduler = resumed_scheduler;
            (global_updates, last_epoch_evaled, last_eval_time) = cadence;
            // Re-schedule the in-flight events in pop order: fresh monotone
            // sequence numbers preserve the original tie-breaking, so the
            // continuation is bit-identical to the uninterrupted run.
            for (at, ev) in pending {
                if let Ev::Complete {
                    id, worker, range, ..
                } = &ev
                {
                    co.adopt(*worker, *id, *range);
                }
                queue.schedule_at(at, ev);
            }
        } else {
            // Initial loss (identical across algorithms per §VII-A).
            co.initial_point(eval(0.0, 0.0, &model, &mut eval_timeline));
            // Kick off every worker. (A resumed run's workers are already
            // in flight: their completion events came back with the
            // checkpoint.)
            for (w, device) in devices.iter().enumerate() {
                self.assign(
                    &mut co,
                    w,
                    device,
                    &mut scheduler,
                    &model,
                    &mut queue,
                    global_updates,
                    &obs,
                    &mut scratch.spares,
                );
            }
            queue.schedule_at(train.eval_interval.min(budget), Ev::Eval);
        }

        // Evaluations are throttled so that datasets small enough to finish
        // an epoch every few events do not flood the curve.
        let min_eval_spacing = train.eval_interval * 0.25;

        // --- Event loop ---------------------------------------------------------
        loop {
            // Periodic crash-consistency checkpoint, captured *between*
            // events — the only instants at which the queue's pending set
            // plus the coordinator state is the complete run state.
            let now = queue.now();
            if ctx.ckpt.due(now) {
                let state = SimCkpt {
                    core: co.capture(SIM_CKPT_SCHEMA, now, &model),
                    scheduler: scheduler.clone(),
                    global_updates,
                    last_epoch_evaled,
                    last_eval_time,
                    pending: queue
                        .pending_in_order()
                        .into_iter()
                        .map(|(at, ev)| (at, ev.clone()))
                        .collect(),
                };
                co.save(now, &state);
            }
            let Some((t, ev)) = queue.pop() else { break };
            if t > budget {
                break;
            }
            // Publish the virtual clock so events emitted while handling
            // this step (merges, resizes, completions) are stamped at `t`.
            sink.set_virtual_now(t);
            // A health abort raised by a previous event's gradient scan or
            // eval observation stops the virtual run here.
            if co.poll_health() {
                break;
            }
            match ev {
                Ev::Eval => {
                    let epochs = co.epochs_elapsed(&scheduler);
                    co.eval_point(eval(t, epochs, &model, &mut eval_timeline));
                    last_eval_time = t;
                    let next = t + train.eval_interval;
                    if next <= budget {
                        queue.schedule_at(next, Ev::Eval);
                    }
                }
                Ev::Complete {
                    id,
                    worker,
                    range,
                    snapshot,
                    updates_at_snapshot,
                    phases,
                } => {
                    let staleness = global_updates.saturating_sub(updates_at_snapshot);
                    obs.stale[worker].record(staleness);
                    let applied = self.apply_batch(
                        id,
                        worker,
                        &devices[worker],
                        &range,
                        &snapshot,
                        &src,
                        &mut model,
                        co.stats[worker].batches,
                        staleness,
                        phases,
                        &mut scratch,
                        &sink,
                        &co.watchdog,
                        &mut health_scan,
                    );
                    scratch.spares.push(snapshot);
                    global_updates += applied;
                    co.credit(worker, applied, range.len() as u64);
                    // Epoch-boundary loss evaluation (paper: "loss
                    // computation is always performed on the GPU at the
                    // end of the epoch").
                    if range.epoch >= last_epoch_evaled
                        && scheduler.epoch() > range.epoch
                        && t - last_eval_time >= min_eval_spacing
                    {
                        last_epoch_evaled = range.epoch + 1;
                        last_eval_time = t;
                        let epochs = co.epochs_elapsed(&scheduler);
                        co.eval_point(eval(t, epochs, &model, &mut eval_timeline));
                    }
                    co.completed(worker, id);
                    self.assign(
                        &mut co,
                        worker,
                        &devices[worker],
                        &mut scheduler,
                        &model,
                        &mut queue,
                        global_updates,
                        &obs,
                        &mut scratch.spares,
                    );
                }
            }
        }

        // Final loss at the budget boundary.
        sink.set_virtual_now(budget);
        let epochs = co.epochs_elapsed(&scheduler);
        let last = eval(budget, epochs, &model, &mut eval_timeline);
        // No in-flight work is lost on an injected death (the worker dies
        // at assignment time), so the result's re-queue count stays 0.
        let mut result = co.finish(last, budget);
        // The epoch-end loss evaluations run on the GPU (§VII-B) but must
        // not perturb the worker schedules, so they live on a dedicated
        // timeline appended as a zero-update pseudo-worker.
        let mut eval_worker = WorkerStats::new(WorkerKind::Gpu);
        eval_worker.timeline = eval_timeline;
        eval_worker.summarize_timeline();
        result.workers.push(eval_worker);
        result
    }

    /// Coordinator `ScheduleWork`: compute the batch size, extract a range,
    /// snapshot the model (into a spare when one is left), and schedule the
    /// completion event.
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &self,
        co: &mut Coordinator<'_>,
        worker: usize,
        device: &Device,
        scheduler: &mut BatchScheduler,
        model: &Model,
        queue: &mut EventQueue<Ev>,
        global_updates: u64,
        obs: &SimObs,
        spares: &mut Vec<Model>,
    ) {
        if queue.now() >= self.cfg.train.time_budget || co.retired(worker) {
            return;
        }
        // Injected death: the worker completed its allotted batches and
        // never asks for work again — the simulated analogue of the
        // threaded engine's quarantine (survivors keep the run alive).
        if let Some(k) = self.cfg.fault_plan.death_after(worker) {
            if co.stats[worker].batches >= k {
                let death = format!("injected death after {k} batches");
                co.retire(worker, &WorkerError::Panic(death));
                return;
            }
        }
        let Some((id, range)) = co.next_dispatch(worker, scheduler) else {
            return; // epoch budget exhausted
        };
        let cost = self.batch_cost(device, range.len());
        let start = queue.now();
        // The virtual clock decides latency, so the histogram is filled at
        // assignment time with the modeled cost; GPU transfer components
        // use the same formulas as `batch_cost`. The phase breakdown comes
        // from the same decomposition: GPU cost = compute + replica
        // transfers (merge is the apply inside compute in this model), CPU
        // cost is pure lane compute.
        obs.lat[worker].record_secs(cost);
        let mut phases = BatchPhases {
            compute_secs: cost,
            ..BatchPhases::default()
        };
        if let Device::Gpu(g) = device {
            let batch_bytes = (4 * self.cfg.spec.input_dim * range.len()) as u64;
            let model_bytes = self.cfg.spec.param_bytes();
            let h2d = g.transfer_time(batch_bytes) + g.transfer_time(model_bytes);
            let d2h = g.transfer_time(model_bytes);
            obs.h2d[worker].record_secs(h2d);
            obs.d2h[worker].record_secs(d2h);
            phases.transfer_secs = h2d + d2h;
            phases.compute_secs = (cost - phases.transfer_secs).max(0.0);
        }
        // The simulated worker begins immediately — assignment happens
        // on completion of its previous batch, so queue wait is zero.
        co.sink.emit(worker as u32, EventKind::BatchStarted { id });
        let level = match device {
            Device::Cpu(c) => c.busy_utilization(range.len()),
            Device::Gpu(g) => g.busy_utilization(range.len()),
        };
        co.busy(worker, start, start + cost, level);
        let snapshot = match spares.pop() {
            Some(mut spare) => {
                spare.copy_from(model);
                spare
            }
            None => model.clone(),
        };
        queue.schedule_after(
            cost,
            Ev::Complete {
                id,
                worker,
                range,
                snapshot,
                updates_at_snapshot: global_updates,
                phases,
            },
        );
    }

    /// Virtual cost of one batch on a device, including the GPU deep-copy
    /// replica transfers and the TensorFlow comparator overheads.
    fn batch_cost(&self, device: &Device, batch: usize) -> f64 {
        let spec = &self.cfg.spec;
        let fpe = spec.train_flops_per_example();
        match device {
            Device::Cpu(c) => c.batch_time(fpe, batch),
            Device::Gpu(g) => {
                let batch_bytes = (4 * spec.input_dim * batch) as u64;
                // Deep-copy replica: model in (H2D) + model out (D2H), §VI-B.
                let model_bytes = spec.param_bytes();
                let mut t = g.batch_time(fpe, batch)
                    + g.transfer_time(batch_bytes)
                    + 2.0 * g.transfer_time(model_bytes);
                if self.cfg.train.algorithm == AlgorithmKind::TensorFlow {
                    // Op-granularity scheduling: ~8 primitives per layer
                    // per step, each paying a dispatch overhead.
                    let ops = 8.0 * spec.num_layers() as f64;
                    t += ops * self.cfg.tf_op_overhead;
                    if spec.loss == hetero_nn::LossKind::MultiLabelBce {
                        t *= self.cfg.tf_multilabel_penalty;
                    }
                }
                t
            }
        }
    }

    /// `ExecuteWork` completion: compute the gradient(s) on the snapshot
    /// and apply them to the live model. Returns the number of raw updates
    /// applied (for global staleness accounting and Algorithm 2's credit).
    /// `batches_done` is the worker's 0-based batch counter (the fault
    /// plan's and the watchdog's step number).
    // audit: no_alloc
    #[allow(clippy::too_many_arguments)]
    fn apply_batch(
        &self,
        id: u64,
        worker: usize,
        device: &Device,
        range: &BatchRange,
        snapshot: &Model,
        src: &BatchSource<&DenseDataset>,
        model: &mut Model,
        batches_done: u64,
        staleness: u64,
        phases: BatchPhases,
        scratch: &mut SimScratch,
        sink: &TraceSink,
        watchdog: &Watchdog,
        scan: &mut MergeScan,
    ) -> u64 {
        let train = &self.cfg.train;
        // Injected fault: one NaN into this worker's first applied gradient
        // at the planned step (0-based batch counter, like `death_after`).
        let mut poison_pending = self.cfg.fault_plan.poison_at(worker) == Some(batches_done);
        let mut inspect = |lane: &mut Lane| {
            if poison_pending {
                poison_pending = false;
                lane.ws.grad_mut().layers_mut()[0].b[0] = f32::NAN;
            }
            if watchdog.enabled() {
                scan.reset();
                scan_model(lane.ws.grad(), scan);
                observe_scan(watchdog, worker, batches_done, scan);
            }
        };
        // §VI-B staleness compensation: discount the learning rate for
        // gradients computed on an old snapshot.
        let discount = 1.0 / (1.0 + train.staleness_discount * staleness as f32);
        let step = |rows: usize| train.lr_scaling.eta(train.lr, rows) * discount;
        let (n_updates, merge_scale) = match device {
            Device::Cpu(c) => {
                let n = scratch.run_waves(
                    src,
                    range.start,
                    range.end,
                    c.threads,
                    snapshot,
                    model,
                    step,
                    inspect,
                );
                (n, None)
            }
            Device::Gpu(_) => {
                let lane = &mut scratch.gpu;
                lane.stage(src, range.start, range.end);
                lane.gradient(src, snapshot, true);
                inspect(lane);
                lane.apply_to(model, step(range.len()));
                (1, Some(discount))
            }
        };
        if sink.enabled() {
            if let Some(scale) = merge_scale {
                // The simulated GPU merge is the staleness-discounted
                // apply of the deep-copy replica's gradient (§VI-B).
                sink.emit(
                    worker as u32,
                    EventKind::ModelMerge {
                        scale: scale as f64,
                        id: Some(id),
                    },
                );
            }
            sink.emit(
                worker as u32,
                EventKind::BatchCompleted {
                    id,
                    batch: range.len(),
                    updates: n_updates,
                    phases,
                },
            );
        }
        n_updates as u64
    }

    /// Initial batch-size state of one worker (see
    /// [`cpu_batch_state`] / [`gpu_batch_state`] for the paper's rule).
    fn initial_batch(&self, device: &Device, n: usize) -> WorkerBatchState {
        let train = &self.cfg.train;
        let spec = &self.cfg.spec;
        match device {
            Device::Cpu(c) => cpu_batch_state(train, c.threads, n),
            Device::Gpu(g) => {
                // §VI-B: device memory bounds the batch size.
                let example_bytes = 4 * spec.input_dim as u64;
                let activation_bytes = 8 * spec.hidden.iter().sum::<usize>() as u64;
                let mem_cap = g.max_batch(example_bytes + activation_bytes, spec.param_bytes());
                gpu_batch_state(train, mem_cap.max(1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptiveParams, LrScaling};
    use hetero_ckpt::Checkpointer;
    use hetero_data::SynthConfig;
    use hetero_trace::COORDINATOR;

    /// Small hardware so tests run fast: 4-thread CPU, toy GPU 100× faster.
    fn tiny_hardware() -> (CpuModel, GpuModel) {
        let cpu = CpuModel {
            name: "tiny-cpu".into(),
            threads: 4,
            hw_threads: 4,
            flops_small: 1e9,
            flops_large: 8e9,
            batch_half: 8.0,
            dispatch_overhead: 20e-6,
            memory: 1 << 30,
        };
        let gpu = GpuModel {
            name: "tiny-gpu".into(),
            peak_flops: 1e12,
            occupancy_half_batch: 64.0,
            launch_overhead: 20e-6,
            transfer_latency: 5e-6,
            transfer_bandwidth: 12e9,
            memory: 1 << 30,
        };
        (cpu, gpu)
    }

    fn tiny_config(algo: AlgorithmKind, budget: f64) -> SimEngineConfig {
        let (cpu, gpu) = tiny_hardware();
        let spec = MlpSpec::tiny(10, 2);
        let train = TrainConfig {
            algorithm: algo,
            lr: 0.05,
            lr_scaling: LrScaling::Sqrt {
                ref_batch: 1,
                max_lr: 0.5,
            },
            gpu_batch: 256,
            adaptive: AdaptiveParams {
                alpha: 2.0,
                beta: 1.0,
                cpu_min_batch: 4,
                cpu_max_batch: 256,
                gpu_min_batch: 32,
                gpu_max_batch: 256,
            },
            time_budget: budget,
            eval_interval: budget / 10.0,
            eval_subsample: 256,
            seed: 7,
            ..TrainConfig::default()
        };
        SimEngineConfig {
            spec,
            train,
            cpu,
            gpus: vec![gpu],
            tf_op_overhead: 20e-6,
            tf_multilabel_penalty: 3.0,
            fault_plan: FaultPlan::none(),
        }
    }

    fn tiny_dataset() -> DenseDataset {
        let mut cfg = SynthConfig::small(600, 10, 2, 3);
        cfg.separability = 3.0;
        let mut d = cfg.generate();
        d.standardize();
        d
    }

    #[test]
    fn deterministic_runs() {
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.02);
        let r1 = SimEngine::new(cfg.clone()).unwrap().run(&data);
        let r2 = SimEngine::new(cfg).unwrap().run(&data);
        assert_eq!(r1.loss_curve.len(), r2.loss_curve.len());
        for (a, b) in r1.loss_curve.iter().zip(&r2.loss_curve) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.time, b.time);
        }
        assert_eq!(r1.total_updates(), r2.total_updates());
    }

    #[test]
    fn sparse_runs_are_deterministic_and_converge() {
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.02);
        cfg.train.sparse_input = true;
        let r1 = SimEngine::new(cfg.clone()).unwrap().run(&data);
        let r2 = SimEngine::new(cfg).unwrap().run(&data);
        assert_eq!(r1.loss_curve.len(), r2.loss_curve.len());
        for (a, b) in r1.loss_curve.iter().zip(&r2.loss_curve) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.time, b.time);
        }
        assert!(r1.final_loss() < r1.initial_loss(), "{:?}", r1.loss_curve);
    }

    #[test]
    fn sparse_path_reaches_dense_loss_on_real_sim_shape() {
        // The convergence target of the ISSUE: on real-sim-shaped data
        // (extreme width, ~0.25% density) the sparse path must reach the
        // dense path's final loss — same optimization, cheaper arithmetic.
        let data = hetero_data::PaperDataset::RealSim.generate(0.01, 42);
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.02);
        cfg.spec = MlpSpec::tiny(data.features(), data.num_classes());
        let dense = SimEngine::new(cfg.clone()).unwrap().run(&data);
        cfg.train.sparse_input = true;
        let sparse = SimEngine::new(cfg).unwrap().run(&data);
        assert!(dense.final_loss() < dense.initial_loss());
        assert!(sparse.final_loss() < sparse.initial_loss());
        // Equal-or-better target up to per-step rounding drift (the sparse
        // kernels accumulate in a different order than the dense GEMM).
        assert!(
            sparse.final_loss() <= dense.final_loss() * 1.05 + 1e-3,
            "sparse {} vs dense {}",
            sparse.final_loss(),
            dense.final_loss()
        );
    }

    /// A seeded sparse run on the real-sim shape reproduces its recorded
    /// loss curve bit for bit: it pins the CSR kernels' accumulation order,
    /// the initial model and the simulator's wave arithmetic. One table per
    /// dispatch level (the dense tail's GEMMs and activations differ between
    /// them). The tables were re-recorded when a simulated wave's lanes
    /// became one gradient per run of equal-length lanes: only the
    /// summation order moved, by at most 8 f32 ulps (AVX2) and 5 (scalar)
    /// from the previous tables over all 29 points, at the same 426 updates.
    #[test]
    fn sparse_run_reproduces_the_recorded_loss_curve() {
        const AVX2: [u32; 29] = [
            0x3f6a751b, 0x3f5bab0a, 0x3f34b13a, 0x3f3582b3, 0x3f278d60, 0x3f3fc096, 0x3f22c15e,
            0x3f2e73bd, 0x3f0066c2, 0x3f00e158, 0x3edfb038, 0x3ec2889f, 0x3eacf5af, 0x3e8316e7,
            0x3e55a027, 0x3e2f7b89, 0x3e12ffa1, 0x3e0dacaa, 0x3df706e7, 0x3dd26783, 0x3dc04f2f,
            0x3d9e3666, 0x3d8c3b9d, 0x3d7a5328, 0x3d619e2e, 0x3d5ce975, 0x3d4c6e0c, 0x3d3b7add,
            0x3d32a6f0,
        ];
        const SCALAR: [u32; 29] = [
            0x3f6a751b, 0x3f5bab0b, 0x3f34b13a, 0x3f3582b2, 0x3f278d60, 0x3f3fc096, 0x3f22c15d,
            0x3f2e73bc, 0x3f0066c2, 0x3f00e158, 0x3edfb038, 0x3ec288a0, 0x3eacf5af, 0x3e8316e8,
            0x3e55a028, 0x3e2f7b8a, 0x3e12ffa2, 0x3e0dacab, 0x3df706e9, 0x3dd26784, 0x3dc04f30,
            0x3d9e3666, 0x3d8c3b9d, 0x3d7a5327, 0x3d619e2e, 0x3d5ce976, 0x3d4c6e0d, 0x3d3b7add,
            0x3d32a6f1,
        ];
        let data = hetero_data::PaperDataset::RealSim.generate(0.01, 42);
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.02);
        cfg.spec = MlpSpec::tiny(data.features(), data.num_classes());
        cfg.train.sparse_input = true;
        let r = SimEngine::new(cfg).unwrap().run(&data);
        let got: Vec<u32> = r.loss_curve.iter().map(|p| p.loss.to_bits()).collect();
        let want = match hetero_tensor::simd::active_level() {
            hetero_tensor::simd::SimdLevel::Avx2 => AVX2,
            hetero_tensor::simd::SimdLevel::Scalar => SCALAR,
        };
        assert_eq!(got, want);
        assert_eq!(r.total_updates(), 426.0);
    }

    /// `run_waves` against the per-lane reference it replaces: every
    /// non-empty sub-range, in order, staged, differentiated on the model
    /// its wave started from, and applied at its own step.
    fn per_lane<D: Deref<Target = DenseDataset>>(
        src: &BatchSource<D>,
        (start, end): (usize, usize),
        lanes: usize,
        snapshot: &Model,
        step: impl Fn(usize) -> f32,
    ) -> (Model, usize) {
        let sub = (end - start).div_ceil(lanes);
        let subs: Vec<(usize, usize)> = (0..lanes)
            .map(|i| (start + i * sub, (start + i * sub + sub).min(end)))
            .filter(|&(s, e)| e > s)
            .collect();
        let mut model = snapshot.clone();
        let mut lane = Lane::new(snapshot.spec());
        for wave in subs.chunks(WAVE) {
            let base = model.clone();
            for &(s, e) in wave {
                lane.stage(src, s, e);
                lane.gradient(src, &base, false);
                lane.apply_to(&mut model, step(e - s));
            }
        }
        (model, subs.len())
    }

    #[test]
    fn a_wave_is_the_sum_of_its_lanes() {
        // ~⅓ of the entries stored, so the CSR source has real gaps.
        let mut data = tiny_dataset();
        for (i, v) in data.x.as_mut_slice().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let spec = MlpSpec::tiny(10, 2);
        let snapshot = Model::new(spec.clone(), hetero_nn::InitScheme::Xavier, 3);
        // A step that depends on the lane's rows, as `LrScaling::Sqrt` does.
        let step = |rows: usize| 0.2 * (rows as f32).sqrt();
        let cases = [
            // 23 lanes of 9 rows, the last of 2: three waves, the last one
            // six full lanes and the short one.
            ((10, 210), 24),
            // 16 equal lanes of 4: two full waves.
            ((5, 69), 16),
            // Fewer rows than lanes: 10 one-row lanes, waves of 8 and 2.
            ((300, 310), 56),
            // Eight full lanes, then a wave of only the short lane.
            ((100, 143), 9),
        ];
        for sparse in [false, true] {
            let src = BatchSource::new(&data, sparse);
            let mut scratch = SimScratch::new(&spec);
            for ((start, end), lanes) in cases {
                let (want, lanes_run) = per_lane(&src, (start, end), lanes, &snapshot, step);
                let mut got = snapshot.clone();
                let mut runs = 0;
                let updates =
                    scratch.run_waves(&src, start, end, lanes, &snapshot, &mut got, step, |_| {
                        runs += 1
                    });
                assert_eq!(
                    updates, lanes_run,
                    "sparse {sparse}, {start}..{end} / {lanes}"
                );
                assert!(runs < lanes_run, "one gradient per run, not per lane");
                // Relative to the model's largest parameter: a parameter
                // near zero keeps the rounding of the updates that crossed it.
                let want = want.flatten();
                let scale = want.iter().fold(0f32, |m, v| m.max(v.abs()));
                for (a, b) in got.flatten().iter().zip(want) {
                    assert!(
                        (a - b).abs() <= 1e-6 * scale,
                        "wave differs from its lanes (sparse {sparse}, \
                         {start}..{end} / {lanes}): {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpointed_run_is_untouched_and_resume_is_bit_identical() {
        use hetero_ckpt::CkptConfig;
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.02);
        let dir = std::env::temp_dir().join(format!("hetero-sim-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Reference: the uninterrupted run.
        let baseline = SimEngine::new(cfg.clone()).unwrap().run(&data);

        // Checkpointing on: the run itself must be bit-identical to the
        // baseline (observation never feeds back into the schedule).
        let writer = Checkpointer::new(CkptConfig {
            dir: dir.clone(),
            interval: 0.004,
            retain: 3,
            resume: false,
        })
        .unwrap();
        let checked = SimEngine::new(cfg.clone()).unwrap().run_with(
            &data,
            &RunCtx {
                ckpt: writer.clone(),
                ..RunCtx::default()
            },
        );
        assert_eq!(baseline.loss_curve, checked.loss_curve);
        assert!(writer.latest_path().is_some(), "no checkpoint written");

        // Resume from the newest mid-run generation: the continued curve
        // must equal the uninterrupted one bit-for-bit.
        let reader = Checkpointer::new(CkptConfig {
            dir: dir.clone(),
            interval: 0.004,
            retain: 3,
            resume: true,
        })
        .unwrap();
        let resumed = SimEngine::new(cfg).unwrap().run_with(
            &data,
            &RunCtx {
                ckpt: reader.clone(),
                ..RunCtx::default()
            },
        );
        assert_eq!(baseline.loss_curve, resumed.loss_curve);
        assert_eq!(baseline.epochs, resumed.epochs);
        // Worker counters continue, not restart.
        for (a, b) in baseline.workers.iter().zip(&resumed.workers) {
            assert_eq!(a.batches, b.batches);
            assert_eq!(a.examples, b.examples);
            assert_eq!(a.updates, b.updates);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint in the previous layout (tag v3: the model's layer 0
    /// stored `out × in`) must be refused whole by the schema tag: the run
    /// starts fresh instead of training on a transposed first layer.
    #[test]
    fn checkpoint_of_the_previous_schema_is_refused() {
        use hetero_ckpt::CkptConfig;
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.02);
        let dir =
            std::env::temp_dir().join(format!("hetero-sim-ckpt-schema-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = |resume| {
            Checkpointer::new(CkptConfig {
                dir: dir.clone(),
                interval: 0.004,
                retain: 2,
                resume,
            })
            .unwrap()
        };
        // Runs with `ckpt` attached; returns how many times it resumed.
        let resumes = |ckpt: Checkpointer| {
            let sink = TraceSink::virtual_time(1 << 14);
            let ctx = RunCtx {
                sink: sink.clone(),
                ckpt,
                ..RunCtx::default()
            };
            SimEngine::new(cfg.clone()).unwrap().run_with(&data, &ctx);
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
        let mut old: SimCkpt = ckpt(true).resume_state().expect("a checkpoint");
        old.core.schema = "hetero-sim-ckpt/v3".into();
        let w0 = &mut old.core.model.layers_mut()[0].w;
        *w0 = w0.transpose();
        assert!(ckpt(false).save(old.core.t, &old).is_some());
        assert_eq!(resumes(ckpt(true)), 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_algorithm_reduces_loss() {
        let data = tiny_dataset();
        for algo in AlgorithmKind::all() {
            let budget = if algo == AlgorithmKind::HogbatchCpu {
                0.1
            } else {
                0.05
            };
            let cfg = tiny_config(algo, budget);
            let r = SimEngine::new(cfg).unwrap().run(&data);
            assert!(
                r.final_loss() < r.initial_loss(),
                "{}: {} -> {}",
                algo.label(),
                r.initial_loss(),
                r.final_loss()
            );
            assert!(r.loss_curve.iter().all(|p| p.loss.is_finite()));
        }
    }

    #[test]
    fn gpu_only_algorithms_have_no_cpu_updates() {
        let data = tiny_dataset();
        let r = SimEngine::new(tiny_config(AlgorithmKind::MiniBatchGpu, 0.02))
            .unwrap()
            .run(&data);
        assert_eq!(r.cpu_update_fraction(), 0.0);
        assert!(r.total_updates() > 0.0);
    }

    #[test]
    fn cpu_only_algorithm_has_only_cpu_updates() {
        let data = tiny_dataset();
        let r = SimEngine::new(tiny_config(AlgorithmKind::HogbatchCpu, 0.05))
            .unwrap()
            .run(&data);
        assert_eq!(r.cpu_update_fraction(), 1.0);
    }

    #[test]
    fn cpu_gpu_hogbatch_cpu_dominates_updates() {
        // Figure 8: with static small CPU / large GPU batches, CPU updates
        // dominate (many cheap sub-updates vs few big batches).
        let data = tiny_dataset();
        let r = SimEngine::new(tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05))
            .unwrap()
            .run(&data);
        assert!(
            r.cpu_update_fraction() > 0.5,
            "cpu fraction {}",
            r.cpu_update_fraction()
        );
    }

    #[test]
    fn adaptive_balances_updates_vs_static() {
        let data = tiny_dataset();
        let stat = SimEngine::new(tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05))
            .unwrap()
            .run(&data);
        let adap = SimEngine::new(tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.05))
            .unwrap()
            .run(&data);
        // Adaptive moves the distribution toward uniform (Figure 8).
        let d_static = (stat.cpu_update_fraction() - 0.5).abs();
        let d_adaptive = (adap.cpu_update_fraction() - 0.5).abs();
        assert!(
            d_adaptive <= d_static + 0.05,
            "adaptive {} static {}",
            adap.cpu_update_fraction(),
            stat.cpu_update_fraction()
        );
    }

    #[test]
    fn adaptive_gpu_batch_shrinks_below_max() {
        // Figure 7: the adaptive GPU batch decreases toward the lower
        // threshold, reducing utilization.
        let data = tiny_dataset();
        let r = SimEngine::new(tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.05))
            .unwrap()
            .run(&data);
        let gpu = r
            .workers
            .iter()
            .find(|w| w.kind == WorkerKind::Gpu && w.batches > 0)
            .expect("gpu worker");
        assert!(
            gpu.final_batch < 256,
            "gpu batch stayed at max ({})",
            gpu.final_batch
        );
    }

    #[test]
    fn tf_slower_than_plain_gpu_per_epoch() {
        let data = tiny_dataset();
        let gpu = SimEngine::new(tiny_config(AlgorithmKind::MiniBatchGpu, 0.02))
            .unwrap()
            .run(&data);
        let tf = SimEngine::new(tiny_config(AlgorithmKind::TensorFlow, 0.02))
            .unwrap()
            .run(&data);
        assert!(
            tf.epochs < gpu.epochs,
            "TF epochs {} !< GPU epochs {}",
            tf.epochs,
            gpu.epochs
        );
    }

    #[test]
    fn utilization_timelines_recorded() {
        let data = tiny_dataset();
        let r = SimEngine::new(tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.02))
            .unwrap()
            .run(&data);
        for w in &r.workers {
            if w.batches > 0 {
                assert!(
                    w.timeline.busy_time() > 0.0,
                    "{:?} has empty timeline",
                    w.kind
                );
                // Busy time cannot exceed the run duration.
                assert!(w.timeline.horizon() <= r.duration * 1.5);
            }
        }
    }

    #[test]
    fn loss_curve_time_monotone() {
        let data = tiny_dataset();
        let r = SimEngine::new(tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.03))
            .unwrap()
            .run(&data);
        for pair in r.loss_curve.windows(2) {
            assert!(pair[1].time >= pair[0].time);
            assert!(pair[1].epochs >= pair[0].epochs);
        }
        assert!(r.loss_curve.len() >= 3);
    }

    #[test]
    fn max_epochs_caps_training() {
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::MiniBatchGpu, 10.0);
        cfg.train.max_epochs = Some(2);
        let r = SimEngine::new(cfg).unwrap().run(&data);
        assert!(r.epochs <= 2.01, "epochs {}", r.epochs);
    }

    #[test]
    fn rejects_gpu_algorithm_without_gpu() {
        let mut cfg = tiny_config(AlgorithmKind::MiniBatchGpu, 1.0);
        cfg.gpus.clear();
        assert!(SimEngine::new(cfg).is_err());
    }

    #[test]
    fn staleness_discount_shrinks_stale_steps() {
        // With a huge κ every stale gradient is nearly nulled; training
        // still runs, stays finite, and makes less progress than κ = 0.
        let data = tiny_dataset();
        let base = SimEngine::new(tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05))
            .unwrap()
            .run(&data);
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05);
        cfg.train.staleness_discount = 1000.0;
        let damped = SimEngine::new(cfg).unwrap().run(&data);
        assert!(damped.final_loss().is_finite());
        assert!(
            damped.final_loss() >= base.final_loss(),
            "huge staleness discount should not speed up convergence: {} vs {}",
            damped.final_loss(),
            base.final_loss()
        );
        // And it should visibly slow progress relative to no discount.
        assert!(
            damped.final_loss() > base.final_loss() * 1.01
                || damped.initial_loss() - damped.final_loss()
                    < (base.initial_loss() - base.final_loss()) * 0.9,
            "discount had no visible effect"
        );
    }

    #[test]
    fn traced_sim_run_is_virtual_time_and_deterministic() {
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.05);

        let sink = TraceSink::virtual_time(1 << 14);
        let traced = SimEngine::new(cfg.clone())
            .unwrap()
            .run_traced(&data, &sink);
        let plain = SimEngine::new(cfg.clone()).unwrap().run(&data);
        // Tracing must not feed back into the schedule or the math.
        assert_eq!(traced.loss_curve.len(), plain.loss_curve.len());
        for (a, b) in traced.loss_curve.iter().zip(&plain.loss_curve) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.time, b.time);
        }

        let trace = sink.drain();
        assert_eq!(trace.domain, hetero_trace::TimeDomain::Virtual);
        let events = trace.events_sorted();
        assert!(!events.is_empty());
        // Virtual stamps live inside the budget (final eval lands on it).
        for e in &events {
            assert!(
                e.t >= 0.0 && e.t <= cfg.train.time_budget + 1e-9,
                "t={}",
                e.t
            );
        }
        let has = |f: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| f(&e.kind));
        assert!(has(&|k| matches!(k, EventKind::BatchDispatched { .. })));
        assert!(has(&|k| matches!(k, EventKind::BatchCompleted { .. })));
        assert!(has(&|k| matches!(k, EventKind::ModelMerge { .. })));
        assert!(
            has(&|k| matches!(k, EventKind::BatchResized { .. })),
            "adaptive run resized no batch"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::EvalPoint { .. }) && e.worker == COORDINATOR));

        // Same run again: identical virtual event stream (determinism).
        let sink2 = TraceSink::virtual_time(1 << 14);
        let _ = SimEngine::new(cfg).unwrap().run_traced(&data, &sink2);
        let events2 = sink2.drain().events_sorted();
        assert_eq!(events.len(), events2.len());
        for (a, b) in events.iter().zip(&events2) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.worker, b.worker);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn observed_sim_run_fills_histograms_without_perturbing_the_schedule() {
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.03);
        let hub = MetricsHub::new();
        let sink = TraceSink::virtual_time(1 << 14);
        let observed = SimEngine::new(cfg.clone()).unwrap().run_with(
            &data,
            &RunCtx {
                sink: sink.clone(),
                hub: hub.clone(),
                ..RunCtx::default()
            },
        );
        let plain = SimEngine::new(cfg).unwrap().run(&data);
        // Observation must not feed back into the schedule or the math.
        assert_eq!(observed.loss_curve.len(), plain.loss_curve.len());
        for (a, b) in observed.loss_curve.iter().zip(&plain.loss_curve) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.time, b.time);
        }
        let snap = hub.snapshot();
        // CPU (0) and GPU (1) both filled latency; GPU filled transfers.
        for w in [0u32, 1u32] {
            assert!(snap.series_for(Metric::BatchLatency, w).unwrap().count() > 0);
        }
        assert!(snap.series_for(Metric::H2d, 1).unwrap().count() > 0);
        assert!(snap.series_for(Metric::D2h, 1).unwrap().count() > 0);
        assert!(snap.merged(Metric::Staleness).unwrap().count() > 0);
        // Latency histograms hold the modeled virtual costs (sub-second ns
        // values, never zero).
        let lat = snap.merged(Metric::BatchLatency).unwrap();
        assert!(lat.max() > 0 && lat.max() < 1_000_000_000);
        assert!(observed.staleness.is_some());
        // The per-worker digests round-trip what the raw timelines say.
        for w in &observed.workers {
            if w.batches > 0 {
                assert!(w.timeline_summary.busy_secs > 0.0);
                assert_eq!(
                    w.timeline_summary.intervals,
                    w.timeline.segments().len() as u64
                );
            }
        }
    }

    #[test]
    fn injected_death_degrades_to_survivors() {
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05);
        // Kill the GPU worker (slot 1) after 3 batches.
        cfg.fault_plan = FaultPlan::none().die_after(1, 3);
        let sink = TraceSink::virtual_time(1 << 14);
        let r = SimEngine::new(cfg).unwrap().run_traced(&data, &sink);
        let gpu = &r.workers[1];
        assert_eq!(gpu.kind, WorkerKind::Gpu);
        assert!(gpu.retired.as_deref().unwrap().contains("injected death"));
        assert_eq!(gpu.batches, 3, "worker kept working after its death");
        // The CPU survivor kept training and the run still converged.
        assert!(r.workers[0].retired.is_none());
        assert!(r.workers[0].batches > 3);
        assert!(r.final_loss() < r.initial_loss());
        assert!(r.aborted.is_none());
        let trace = sink.drain();
        let events = trace.events_sorted();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WorkerFault { .. }) && e.worker == 1));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WorkerRetired { .. }) && e.worker == 1));
        let counters: std::collections::HashMap<String, f64> =
            trace.counters.iter().cloned().collect();
        assert_eq!(counters.get("engine.faults"), Some(&1.0));
    }

    #[test]
    fn all_workers_dead_marks_run_aborted() {
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05);
        cfg.fault_plan = FaultPlan::none().die_after(0, 1).die_after(1, 1);
        let r = SimEngine::new(cfg).unwrap().run(&data);
        assert!(r.aborted.as_deref().unwrap().contains("all workers"));
        for w in &r.workers[..2] {
            assert!(w.retired.is_some());
            assert_eq!(w.batches, 1);
        }
    }

    #[test]
    fn fault_free_run_emits_no_fault_events() {
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.03);
        let sink = TraceSink::virtual_time(1 << 14);
        let r = SimEngine::new(cfg).unwrap().run_traced(&data, &sink);
        assert!(r.aborted.is_none());
        assert_eq!(r.requeued_batches, 0);
        assert!(r.workers.iter().all(|w| w.retired.is_none()));
        assert!(!sink.drain().events_sorted().iter().any(|e| matches!(
            e.kind,
            EventKind::WorkerFault { .. }
                | EventKind::WorkerRetired { .. }
                | EventKind::BatchRequeued { .. }
        )));
    }

    #[test]
    fn multi_gpu_workers_supported() {
        // The paper's future work: scale to multi-GPU.
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.02);
        let g = cfg.gpus[0].clone();
        cfg.gpus.push(g);
        let r = SimEngine::new(cfg).unwrap().run(&data);
        let gpu_workers = r
            .workers
            .iter()
            .filter(|w| w.kind == WorkerKind::Gpu && w.batches > 0)
            .count();
        assert_eq!(gpu_workers, 2);
        assert!(r.final_loss() < r.initial_loss());
    }
}
