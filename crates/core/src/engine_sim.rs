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
//! The engine is a [`Backend`] of the coordinator's one event loop
//! ([`Coordinator::run`]). Workflow per worker (paper Figure 4):
//! 1. the coordinator computes the worker's batch size (the
//!    [`crate::AdaptiveController`] is Algorithm 2; static algorithms freeze
//!    it) and extracts a contiguous range from the data (the
//!    [`hetero_data::BatchScheduler`]),
//! 2. `SimBackend::start` snapshots the model (reference for CPU, deep copy
//!    for GPU — in the simulation both are snapshots, but GPU workers
//!    additionally pay the H2D/D2H transfer cost of a deep copy) and
//!    schedules the completion at `now + batch_time`,
//! 3. when the completion pops, the gradient(s) computed on the snapshot
//!    are applied to the live model, the coordinator credits the update
//!    counts, and the worker immediately gets its next range.
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

use hetero_data::batch::BatchRange;
use hetero_data::DenseDataset;
use hetero_flight::Watchdog;
use hetero_gpu::{Footprint, Link};
use hetero_nn::{CsrStep, MlpSpec, Model};
use hetero_sim::{CpuModel, DeviceModel, EventQueue, GpuModel, UtilizationTimeline};
use hetero_trace::{
    BatchPhases, CounterHandle, EventKind, HistHandle, Metric, TimeDomain, TraceSink,
};
use serde::{Deserialize, Serialize};

use crate::config::{AlgorithmKind, TrainConfig};
use crate::coordinator::{
    record_busy, run_engine, Backend, Coordinator, CoreCkpt, Done, Engine, Event, RunCtx, Start,
};
use crate::fault::{FaultPlan, WorkerError};
use crate::lane::{lane_split, BatchSource, Checks, Evaluator, Lane};
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
    /// Deterministic fault injection (empty = fault-free run). The sim
    /// honours [`crate::FaultKind::DieAfterBatches`] and
    /// [`crate::FaultKind::PoisonGradientAt`]; the OOM and lane kinds need
    /// a real device allocator or real lane threads and only apply to the
    /// threaded engine.
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
            fault_plan: FaultPlan::none(),
        }
    }
}

/// TensorFlow comparator: dispatch overhead of each of a step's ~8
/// primitives per layer (§II: "scheduling primitives instead of the
/// complete SGD has more overhead"). §VII-B's slower delicious run is not
/// modelled: the paper blames TensorFlow's implementation of the
/// multi-label loss, which this repository does not have.
const TF_OP_OVERHEAD: f64 = 20e-6;

enum Device {
    Cpu(CpuModel),
    Gpu(GpuModel),
}

impl Device {
    /// Modelled utilization while the device runs a batch of `batch`
    /// examples.
    fn busy_utilization(&self, batch: usize) -> f64 {
        match self {
            Device::Cpu(c) => c.busy_utilization(batch),
            Device::Gpu(g) => g.busy_utilization(batch),
        }
    }
}

/// Hogwild lanes of a simulated CPU batch that read the same model: the
/// first wave sees the batch snapshot, each later one the model as the
/// previous waves left it.
const WAVE: usize = 8;

/// Per-run scratch shared by every `SimBackend::apply_batch` call: one
/// CPU lane that computes each run of a wave's lanes as one mini-batch
/// gradient, the wave base model, a dedicated GPU lane, each lane's CSR
/// step on a sparse run, and the spare snapshots completed events hand back
/// to `SimBackend::start`. Reused across every event, so steady-state
/// gradient computation allocates nothing.
pub(crate) struct SimScratch {
    cpu: Lane,
    base: Model,
    gpu: Lane,
    /// The CPU and the GPU lane's CSR steps; `None` on a dense run.
    csr: Option<(CsrStep, CsrStep)>,
    /// Snapshots of completed events, recycled by the next dispatches
    /// (at most one per worker is ever in flight).
    spares: Vec<Model>,
}

impl SimScratch {
    /// The scratch of a run on `src`, for models of shape `spec`.
    pub(crate) fn new<D>(src: &BatchSource<D>, spec: &MlpSpec) -> Self
    where
        D: Deref<Target = DenseDataset>,
    {
        SimScratch {
            cpu: Lane::new(spec),
            base: Model::zeros_like(spec),
            gpu: Lane::new(spec),
            csr: src.csr().map(|_| (CsrStep::new(spec), CsrStep::new(spec))),
            spares: Vec::new(),
        }
    }

    /// Algorithm 2's CPU worker on rows `start..end` read from `snapshot`:
    /// the Hogwild sub-batches of [`lane_split`], applied to `model` in
    /// waves of [`WAVE`] that each read the model the previous waves left.
    /// Hogwild threads read the live model *during* their sub-batch, so
    /// this bounds the intra-batch divergence by a wave rather than the
    /// whole batch.
    ///
    /// A wave's lanes read one model and their applies lose nothing, so
    /// `Σ ηᵢ·gᵢ = k·η(n)·ḡ` over a run of `k` lanes of `n` rows, where `ḡ`
    /// is the mean gradient over the run's `k·n` contiguous rows: each run
    /// is one [`Lane::step_model`] from the wave's base at step `k·step(n)`
    /// — on CSR the threaded lane's block step — and a wave has at most two
    /// runs. Each run's gradient gets the checks `checks` returns for it.
    /// Returns the lanes that trained — one update each.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_waves<'w, D>(
        &mut self,
        src: &BatchSource<D>,
        start: usize,
        end: usize,
        lanes: usize,
        snapshot: &Model,
        model: &mut Model,
        step: impl Fn(usize) -> f32,
        mut checks: impl FnMut() -> Checks<'w>,
    ) -> usize
    where
        D: Deref<Target = DenseDataset>,
    {
        let (sub, trained) = lane_split(end - start, lanes);
        let SimScratch { cpu, base, csr, .. } = self;
        base.copy_from(snapshot);
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
                // `hetero_wave_unscaled` is a mutation switch for
                // `scripts/check_mutation.sh`.
                let scale = if cfg!(hetero_wave_unscaled) { 1 } else { k };
                let at = csr.as_mut().map(|(at, _)| at);
                let eta = scale as f32 * step(n);
                cpu.step_model(src, (s, e), at, base, model, eta, &checks());
            }
            base.copy_from(model);
        }
        trained
    }

    /// A GPU worker's batch: one [`Lane::step_model`] from `snapshot` over
    /// `range`, after `checks`, into `model` at `eta` — the update the
    /// threaded GPU worker merges into its shared model. Returns its one
    /// update.
    // audit: no_alloc
    pub(crate) fn run_gpu<D>(
        &mut self,
        src: &BatchSource<D>,
        range: &BatchRange,
        snapshot: &Model,
        model: &mut Model,
        eta: f32,
        checks: &Checks<'_>,
    ) -> usize
    where
        D: Deref<Target = DenseDataset>,
    {
        let at = self.csr.as_mut().map(|(_, at)| at);
        let rows = (range.start, range.end);
        self.gpu
            .step_model(src, rows, at, snapshot, model, eta, checks);
        1
    }
}

/// Pre-resolved per-worker histogram handles and links for an observed
/// run. Every handle is a no-op when the sink is disabled, so the
/// unobserved path pays one branch per record. The sim has no queue wait —
/// workers are re-assigned the instant they complete — so that series is
/// left to the threaded engine; batch latency is the coordinator's, from
/// each busy span.
struct SimObs {
    stale: Vec<HistHandle>,
    links: Vec<Link>,
}

impl SimObs {
    fn new(sink: &TraceSink, workers: usize) -> Self {
        SimObs {
            stale: (0..workers as u32)
                .map(|w| sink.histogram(Metric::Staleness, w))
                .collect(),
            links: (0..workers as u32).map(|w| Link::new(sink, w)).collect(),
        }
    }
}

/// The pending event of the simulation: a batch's completion. Serializable
/// as is: it carries its full model snapshot into a checkpoint, because the
/// gradient a resumed run computes for it must come from the exact weights
/// the original schedule assigned, or bit-identity is lost.
#[derive(Clone, Serialize, Deserialize)]
struct Completion {
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
}

/// Everything a [`SimEngine`] run is, frozen at one virtual instant: the
/// common envelope (model, schedule cursor, controller, loss curve,
/// per-worker counters, watchdog tallies, eval deadline) plus this
/// engine's tail — the epoch-end eval's state and every in-flight
/// completion.
/// Restoring this state and re-running the event loop continues the
/// original run bit-identically — the property `crates/ckpt/tests` locks
/// in.
#[derive(Serialize, Deserialize)]
struct SimCkpt {
    core: CoreCkpt,
    global_updates: u64,
    last_epoch_evaled: usize,
    /// Pending completions with their scheduled virtual times, in pop
    /// order: re-scheduling in this order reproduces the queue's
    /// tie-breaking exactly (see [`EventQueue::pending_in_order`]).
    pending: Vec<(f64, Completion)>,
}

/// Schema tag sanity-checked at restore so a checkpoint from a different
/// engine (or an older, incompatible layout) is rejected instead of
/// half-applied.
const SIM_CKPT_SCHEMA: &str = "hetero-sim-ckpt/v6";

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
        let cfg = &self.cfg;
        let footprint = Footprint::of(&cfg.spec);
        let engine = Engine {
            name: "sim",
            domain: TimeDomain::Virtual,
            schema: SIM_CKPT_SCHEMA,
            spec: &cfg.spec,
            train: &cfg.train,
            cpu_lanes: cfg.cpu.threads,
            // §VI-B: device memory bounds the batch size.
            gpu_caps: cfg.gpus.iter().map(|g| footprint.max_batch(g)).collect(),
        };
        let split = |s: SimCkpt| {
            let tail = ((s.global_updates, s.last_epoch_evaled), s.pending);
            (tail, s.core)
        };
        // The backend over `co`'s worker slots at virtual time zero: a fresh
        // run's, or — `resume` carries the checkpoint's counters and pending
        // completions — the continuation of a captured one.
        let build = |co: &mut Coordinator<'_>, src, start: Start, resume: Option<SimTail>| {
            let model = start.into_model(&cfg.spec);
            let mut gpus = cfg.gpus.iter().cloned();
            let mut device = |s: &WorkerStats| match s.kind {
                WorkerKind::Cpu => Device::Cpu(cfg.cpu.clone()),
                WorkerKind::Gpu => Device::Gpu(gpus.next().expect("one model per GPU slot")),
            };
            let devices: Vec<Device> = co.stats.iter().map(&mut device).collect();
            // A fresh run is a resumed one with nothing done and nothing
            // pending.
            let ((global_updates, last_epoch_evaled), pending) = resume.unwrap_or_default();
            let evaluator = co.evaluator(&src, &cfg.spec);
            let scratch = SimScratch::new(&src, &cfg.spec);
            let mut sim = SimBackend {
                cfg,
                footprint,
                obs: SimObs::new(&co.sink, devices.len()),
                devices,
                src,
                model,
                evaluator,
                eval_timeline: UtilizationTimeline::new(),
                queue: EventQueue::new(),
                global_updates,
                scratch,
                sink: co.sink.clone(),
                timeline_rejects: co.timeline_rejects.clone(),
                last_epoch_evaled,
                closed: false,
            };
            // A reused sink may still hold a previous run's clock.
            sim.sink.set_virtual_now(0.0);
            // Re-schedule the in-flight completions in pop order: fresh
            // monotone sequence numbers preserve the original tie-breaking,
            // so the run continues bit-identically. (Its workers are already
            // in flight: their completions came back with the checkpoint.)
            for (at, done) in pending {
                co.adopt(done.worker, done.id, done.range);
                sim.queue.schedule_at(at, done);
            }
            sim
        };
        let (mut result, sim) = run_engine(engine, dataset, ctx, split, build);
        result.eval_timeline = sim.eval_timeline;
        result
    }
}

/// A [`SimCkpt`] beside its envelope: `(global_updates,
/// last_epoch_evaled)` and the pending completions.
type SimTail = ((u64, usize), Vec<(f64, Completion)>);

/// The simulator as a [`Backend`]: a virtual clock (the event queue),
/// device cost models that decide when a batch lands, and the real
/// gradient of each batch computed, when it lands, on the snapshot taken
/// when it was handed out.
struct SimBackend<'a> {
    cfg: &'a SimEngineConfig,
    /// What a GPU batch holds and moves, charged by the same rule the
    /// threaded GPU worker accounts.
    footprint: Footprint,
    devices: Vec<Device>,
    src: BatchSource<&'a DenseDataset>,
    /// The live model: every completion's update lands here.
    model: Model,
    evaluator: Evaluator,
    /// The loss evaluations' GPU time (Figure 7's spikes), kept off the
    /// workers' timelines.
    eval_timeline: UtilizationTimeline,
    queue: EventQueue<Completion>,
    /// Updates applied to `model` so far; staleness is counted in them.
    global_updates: u64,
    /// Reused gradient-lane buffers: warmed during the first events,
    /// allocation-free thereafter.
    scratch: SimScratch,
    obs: SimObs,
    sink: TraceSink,
    timeline_rejects: CounterHandle,
    /// The epoch after the last one whose end was scored.
    last_epoch_evaled: usize,
    /// Closed: the run ended at its budget, whatever the queue's last event
    /// was.
    closed: bool,
}

impl Backend for SimBackend<'_> {
    /// Virtual time has no round trip to hide: one range per worker.
    const WINDOW: usize = 1;

    fn now(&self) -> f64 {
        if self.closed {
            self.cfg.train.time_budget
        } else {
            self.queue.now()
        }
    }

    /// `ExecuteWork` begins: snapshot the model (into a spare when one is
    /// left) and schedule the completion at the device's modelled cost.
    /// Past its injected death a worker refuses the batch — the simulated
    /// analogue of the threaded worker that panics on the range it was
    /// handed — and the coordinator re-queues it for the survivors.
    fn start(
        &mut self,
        co: &Coordinator<'_>,
        w: usize,
        id: u64,
        range: BatchRange,
    ) -> Result<(), WorkerError> {
        if let Some(k) = self.cfg.fault_plan.death_after(w) {
            if co.stats[w].batches >= k {
                let death = format!("injected death after {k} batches");
                return Err(WorkerError::Panic(death));
            }
        }
        let cost = self.batch_cost(&self.devices[w], range.len());
        // The simulated worker begins immediately — assignment happens
        // on completion of its previous batch, so queue wait is zero.
        self.sink.emit(w as u32, EventKind::BatchStarted { id });
        // The phase breakdown comes from the decomposition `batch_cost`
        // prices: GPU cost = compute + replica transfers (merge is the apply
        // inside compute in this model), CPU cost is pure lane compute.
        let mut phases = BatchPhases {
            compute_secs: cost,
            ..BatchPhases::default()
        };
        if let Device::Gpu(g) = &self.devices[w] {
            let (h2d, d2h) = self.footprint.transfer_secs(g, range.len());
            phases.transfer_secs = h2d + d2h;
            phases.compute_secs = (cost - phases.transfer_secs).max(0.0);
        }
        let snapshot = match self.scratch.spares.pop() {
            Some(mut spare) => {
                spare.copy_from(&self.model);
                spare
            }
            None => self.model.clone(),
        };
        self.queue.schedule_after(
            cost,
            Completion {
                id,
                worker: w,
                range,
                snapshot,
                updates_at_snapshot: self.global_updates,
                phases,
            },
        );
        Ok(())
    }

    /// The next completion, or — when none lands by a periodic eval's
    /// deadline within the budget — the clock moved to that deadline.
    fn next_event(&mut self, co: &Coordinator<'_>) -> Event {
        let train = &self.cfg.train;
        let due = co.eval_deadline();
        if due <= train.time_budget && self.queue.peek_time().is_none_or(|t| t > due) {
            self.queue.advance_to(due);
            self.sink.set_virtual_now(due);
            return Event::Idle;
        }
        let Some((t, done)) = self.queue.pop() else {
            return Event::End;
        };
        if t > train.time_budget {
            return Event::End;
        }
        // Publish the virtual clock so events emitted while handling this
        // step (merges, resizes, completions) are stamped at `t`.
        self.sink.set_virtual_now(t);
        let Completion {
            id,
            worker,
            range,
            snapshot,
            updates_at_snapshot,
            phases,
        } = done;
        let staleness = self.global_updates.saturating_sub(updates_at_snapshot);
        self.obs.stale[worker].record(staleness);
        let batches_done = co.stats[worker].batches;
        let updates = self.apply_batch(
            id,
            worker,
            &range,
            &snapshot,
            batches_done,
            staleness,
            phases,
            &co.watchdog,
        );
        self.scratch.spares.push(snapshot);
        self.global_updates += updates;
        // Epoch-boundary loss evaluation (paper: "loss computation is
        // always performed on the GPU at the end of the epoch"), throttled
        // against the newest loss point so that datasets small enough to
        // finish an epoch every few events do not flood the curve.
        let eval = range.epoch >= self.last_epoch_evaled
            && co.schedule_epoch() > range.epoch
            && t - co.last_point() >= train.eval_interval * 0.25;
        if eval {
            self.last_epoch_evaled = range.epoch + 1;
        }
        let device = &self.devices[worker];
        let done = Done {
            examples: range.len(),
            updates,
            busy: (t - self.batch_cost(device, range.len()), t),
            level: device.busy_utilization(range.len()),
            eval,
            ..Done::default()
        };
        Event::Completed { worker, id, done }
    }

    /// The loss point of the live model, now. The paper runs the loss
    /// evaluation on the GPU, which shows up as a utilization spike
    /// (Figure 7); it is accounted on a dedicated timeline so the worker
    /// schedules are not perturbed.
    fn score(&mut self, epochs: f64) -> LossPoint {
        let t = self.now();
        let (loss, accuracy) = self.evaluator.score(&self.model);
        if let Some(g) = self.cfg.gpus.first() {
            let fwd = self.model.spec().forward_flops_per_example();
            let dur = g.batch_time(fwd, self.evaluator.rows());
            let tl = &mut self.eval_timeline;
            let start = t.max(tl.horizon());
            record_busy(tl, &self.timeline_rejects, start, start + dur, 1.0);
        }
        LossPoint {
            time: t,
            epochs,
            loss,
            accuracy,
        }
    }

    /// Captured *between* events — the only instants at which the queue's
    /// pending set plus the coordinator state is the complete run state.
    fn checkpoint(&mut self, co: &Coordinator<'_>, t: f64) {
        let state = SimCkpt {
            core: co.capture(SIM_CKPT_SCHEMA, t, &self.model),
            global_updates: self.global_updates,
            last_epoch_evaled: self.last_epoch_evaled,
            pending: self
                .queue
                .pending_in_order()
                .into_iter()
                .map(|(at, done)| (at, done.clone()))
                .collect(),
        };
        co.save(t, &state);
    }

    fn close(&mut self) -> Vec<(usize, WorkerError)> {
        self.closed = true;
        self.sink.set_virtual_now(self.cfg.train.time_budget);
        Vec::new()
    }
}

impl SimBackend<'_> {
    /// Virtual cost of one batch on a device, including the GPU deep-copy
    /// replica transfers and the TensorFlow comparator overheads.
    fn batch_cost(&self, device: &Device, batch: usize) -> f64 {
        match device {
            Device::Cpu(c) => c.batch_time(self.footprint.flops, batch),
            Device::Gpu(g) => {
                // Deep-copy replica: model in (H2D) + model out (D2H), §VI-B.
                let mut t = self.footprint.step_secs(g, batch);
                if self.cfg.train.algorithm == AlgorithmKind::TensorFlow {
                    // Op-granularity scheduling: ~8 primitives per layer
                    // per step, each paying a dispatch overhead.
                    t += 8.0 * self.cfg.spec.num_layers() as f64 * TF_OP_OVERHEAD;
                }
                t
            }
        }
    }

    /// `ExecuteWork` completion: compute the gradient(s) on the snapshot
    /// and apply them to the live model; a GPU batch charges its link here,
    /// its upload landed `h2d` after the batch started and its download
    /// with the completion. Returns the number of raw updates applied (for
    /// global staleness accounting and Algorithm 2's credit).
    /// `batches_done` is the worker's 0-based batch counter (the fault
    /// plan's and the watchdog's step number).
    // audit: no_alloc
    #[allow(clippy::too_many_arguments)]
    fn apply_batch(
        &mut self,
        id: u64,
        worker: usize,
        range: &BatchRange,
        snapshot: &Model,
        batches_done: u64,
        staleness: u64,
        phases: BatchPhases,
        watchdog: &Watchdog,
    ) -> u64 {
        let SimBackend {
            cfg,
            devices,
            src,
            model,
            scratch,
            sink,
            obs,
            footprint,
            ..
        } = self;
        let train = &cfg.train;
        // Injected fault: one NaN into this worker's first applied gradient
        // at the planned step (0-based batch counter, like `death_after`).
        let mut poison = cfg.fault_plan.poison_at(worker) == Some(batches_done);
        let mut checks = || Checks {
            poison: std::mem::take(&mut poison),
            watchdog,
            worker,
            step: batches_done,
        };
        // §VI-B staleness compensation: discount the learning rate for
        // gradients computed on an old snapshot.
        let discount = 1.0 / (1.0 + train.staleness_discount * staleness as f32);
        let step = |rows: usize| train.lr_scaling.eta(train.lr, rows) * discount;
        let (n_updates, merge_scale) = match &devices[worker] {
            Device::Cpu(c) => {
                let n = scratch.run_waves(
                    src,
                    range.start,
                    range.end,
                    c.threads,
                    snapshot,
                    model,
                    step,
                    checks,
                );
                (n, None)
            }
            Device::Gpu(g) => {
                let eta = step(range.len());
                let n = scratch.run_gpu(src, range, snapshot, model, eta, &checks());
                let link = &obs.links[worker];
                let charge = link.charge(footprint, g, range.len(), id);
                let now = sink.now();
                let started = now - phases.compute_secs - phases.transfer_secs;
                link.uploaded(&charge, started + charge.h2d);
                link.downloaded(&charge, now);
                (n, Some(discount))
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

    /// Real-sim-shaped data (extreme width, ~0.25 % dense) trains CSR rows.
    #[test]
    fn sparse_runs_are_deterministic_and_converge() {
        let data = hetero_data::PaperDataset::RealSim.generate(0.01, 42);
        let mut cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.02);
        cfg.spec = MlpSpec::tiny(data.features(), data.num_classes());
        let r1 = SimEngine::new(cfg.clone()).unwrap().run(&data);
        let r2 = SimEngine::new(cfg).unwrap().run(&data);
        assert_eq!(r1.loss_curve.len(), r2.loss_curve.len());
        for (a, b) in r1.loss_curve.iter().zip(&r2.loss_curve) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.time, b.time);
        }
        assert!(r1.final_loss() < r1.initial_loss(), "{:?}", r1.loss_curve);
    }

    /// A seeded sparse run on the real-sim shape reproduces its recorded
    /// loss curve bit for bit: it pins the CSR kernels' accumulation order,
    /// the initial model and the simulator's wave arithmetic. One table per
    /// dispatch level (the dense tail's GEMMs and activations differ between
    /// them); both start at the same initial loss, because the initial model
    /// is bit-identical at both levels. The tables were re-recorded when the
    /// initial model became the counter-based normal stream (every weight a
    /// pure function of seed, layer and storage index, no longer draw
    /// `o·in + c` of a sequential Box–Muller stream): a new initial model,
    /// so every point moved (initial loss 0.916 → 0.763, final 0.0436 →
    /// 0.0451), at the same 426 updates. They were re-recorded again when
    /// sparse stand-ins began to be drawn by geometric gaps: the same task
    /// (class centers) and law, a new sample of it, so every point moved
    /// (initial loss 0.763 → 0.790, final 0.0451 → 0.0332), at the same 426
    /// updates.
    #[test]
    fn sparse_run_reproduces_the_recorded_loss_curve() {
        const AVX2: [u32; 29] = [
            0x3f4a479c, 0x3f39ff28, 0x3f3d66e6, 0x3f4e52e5, 0x3f2f073a, 0x3f2a3022, 0x3f255787,
            0x3f366246, 0x3f0d5b3b, 0x3f09db31, 0x3ef59f6f, 0x3ed09162, 0x3ebcefc4, 0x3e8a7359,
            0x3e5a681f, 0x3e2bb3bf, 0x3e09850c, 0x3e029763, 0x3ddf97a5, 0x3db944af, 0x3da5fcfe,
            0x3d84617e, 0x3d65d329, 0x3d4969a6, 0x3d32e885, 0x3d2dabbc, 0x3d20098d, 0x3d107283,
            0x3d080696,
        ];
        const SCALAR: [u32; 29] = [
            0x3f4a479c, 0x3f39ff28, 0x3f3d66e6, 0x3f4e52e5, 0x3f2f073a, 0x3f2a3022, 0x3f255787,
            0x3f366246, 0x3f0d5b3b, 0x3f09db31, 0x3ef59f6f, 0x3ed09162, 0x3ebcefc4, 0x3e8a7359,
            0x3e5a681f, 0x3e2bb3bf, 0x3e09850c, 0x3e029763, 0x3ddf97a4, 0x3db944af, 0x3da5fcfe,
            0x3d84617e, 0x3d65d329, 0x3d4969a6, 0x3d32e883, 0x3d2dabbb, 0x3d20098e, 0x3d107282,
            0x3d080696,
        ];
        let data = hetero_data::PaperDataset::RealSim.generate(0.01, 42);
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.02);
        cfg.spec = MlpSpec::tiny(data.features(), data.num_classes());
        // The init the curve was recorded with.
        cfg.train.init = hetero_nn::InitScheme::Xavier;
        let r = SimEngine::new(cfg).unwrap().run(&data);
        let got: Vec<u32> = r.loss_curve.iter().map(|p| p.loss.to_bits()).collect();
        let want = match hetero_tensor::simd::active_level() {
            hetero_tensor::simd::SimdLevel::Avx2 | hetero_tensor::simd::SimdLevel::Avx512 => AVX2,
            hetero_tensor::simd::SimdLevel::Scalar => SCALAR,
        };
        assert_eq!(got, want);
        assert_eq!(r.total_updates(), 426.0);
    }

    /// The store is not an input of training: the same data stored dense
    /// and as CSR gives the same loss curve, bit for bit, on a dense run
    /// (data above the crossover: the CSR store's rows densified batch by
    /// batch) and on a sparse one (real-sim-shaped data: the dense store's
    /// start-up CSR copy), and a sparse run reports the same density.
    #[test]
    fn training_does_not_depend_on_the_store() {
        let denser = SynthConfig {
            density: 0.3,
            ..SynthConfig::small(600, 40, 2, 3)
        }
        .generate();
        let real_sim = hetero_data::PaperDataset::RealSim.generate(0.01, 42);
        for (on_csr, sparse) in [(denser, false), (real_sim, true)] {
            let (x, labels) = on_csr.batch(0, on_csr.len());
            let on_dense = DenseDataset::new(on_csr.name.clone(), x, labels);
            assert!(on_csr.csr_store().is_some() && on_dense.csr_store().is_none());
            let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.01);
            cfg.spec = MlpSpec::tiny(on_csr.features(), on_csr.num_classes());
            let run = |data: &DenseDataset| {
                let sink = TraceSink::virtual_time(1 << 16);
                let ctx = RunCtx {
                    sink: sink.clone(),
                    ..RunCtx::default()
                };
                let r = SimEngine::new(cfg.clone()).unwrap().run_with(data, &ctx);
                let curve: Vec<u32> = r.loss_curve.iter().map(|p| p.loss.to_bits()).collect();
                let density = sink
                    .drain()
                    .counters
                    .into_iter()
                    .find(|(name, _)| name == "engine.sparse_density")
                    .map(|(_, v)| v);
                (curve, r.total_updates(), density)
            };
            let (a, b) = (run(&on_dense), run(&on_csr));
            assert!(a.0.len() > 2, "too short a curve: {:?}", a.0);
            assert_eq!(a, b, "sparse run: {sparse}");
            assert_eq!(a.2.is_some(), sparse);
        }
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
                lane.gradient(src, &base);
                model.apply_gradient(lane.grad(), step(e - s));
            }
        }
        (model, subs.len())
    }

    #[test]
    fn a_wave_is_the_sum_of_its_lanes() {
        // ~⅓ of the entries stored, so the CSR source has real gaps.
        let (mut x, labels) = tiny_dataset().batch(0, 600);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let data = DenseDataset::new("tiny", x, labels);
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
            let src = BatchSource::in_format(&data, sparse);
            let mut scratch = SimScratch::new(&src, &spec);
            let off = Watchdog::disabled();
            for ((start, end), lanes) in cases {
                let (want, lanes_run) = per_lane(&src, (start, end), lanes, &snapshot, step);
                let mut got = snapshot.clone();
                let mut runs = 0;
                let checks = || {
                    runs += 1;
                    Checks::off(&off)
                };
                let updates =
                    scratch.run_waves(&src, start, end, lanes, &snapshot, &mut got, step, checks);
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

    /// A simulated CSR step holds no copy of layer 0, as a threaded one
    /// does not: after every CPU wave and GPU batch on real-sim-wide
    /// batches, whose supports span many blocks and grow and shrink, the
    /// only layer-0 rows either lane holds are its step's tile, at most one
    /// block's; its gradient and its step's tail hold none.
    #[test]
    fn a_warm_sparse_wave_and_gpu_batch_hold_no_layer0_copy_past_one_block() {
        let data = SynthConfig {
            density: 0.0025,
            ..SynthConfig::small(1024, 20_958, 2, 23)
        }
        .generate();
        let spec = MlpSpec {
            hidden: vec![64],
            ..MlpSpec::tiny(data.features(), 2)
        };
        let block = hetero_nn::L0_BLOCK_BYTES / std::mem::size_of::<f32>();
        let src = BatchSource::new(&data);
        let mut scratch = SimScratch::new(&src, &spec);
        let snapshot = Model::new(spec.clone(), hetero_nn::InitScheme::Xavier, 4);
        let (mut model, off) = (snapshot.clone(), Watchdog::disabled());
        for (s, e) in [(0, 512), (512, 640), (640, 1024), (0, 300)] {
            let checks = || Checks::off(&off);
            scratch.run_waves(&src, s, e, 4, &snapshot, &mut model, |_| 0.01, checks);
            let range = BatchRange {
                start: s,
                end: e,
                epoch: 0,
            };
            scratch.run_gpu(&src, &range, &snapshot, &mut model, 0.01, &checks());
            let (cpu, gpu) = scratch.csr.as_ref().expect("a sparse run's steps");
            for (worker, at, lane) in [("cpu", cpu, &scratch.cpu), ("gpu", gpu, &scratch.gpu)] {
                let case = format!("{worker}, rows {s}..{e}");
                let support = at.support().len();
                assert!(support > 2 * block / 64, "{case}: support {support}");
                assert!(at.l0_capacity() <= block, "{case}: {}", at.l0_capacity());
                assert_eq!(lane.grad().layers()[0].w.capacity(), 0, "{case}: gradient");
                assert_eq!(at.tail().layers()[0].w.capacity(), 0, "{case}: tail");
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

    /// A checkpoint tagged with the previous schema (v5: the periodic
    /// eval a pending event of the tail, not a deadline in the envelope)
    /// is refused whole: the run starts fresh instead of resuming a
    /// half-read state.
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
        // …the same state tagged with the previous schema does not.
        let mut old: SimCkpt = ckpt(true).resume_state().expect("a checkpoint");
        old.core.schema = "hetero-sim-ckpt/v5".into();
        assert!(ckpt(false).save(old.core.t, &old).is_some());
        assert_eq!(resumes(ckpt(true)), 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint keeps the watchdog's non-finite count but not its trip
    /// (one taken between a worker's scan and the poll that stops the run
    /// holds the count alone), so a resumed run's first non-finite
    /// gradient must still abort it under the default policy.
    #[test]
    fn a_resumed_run_with_a_nonfinite_record_still_aborts() {
        use hetero_ckpt::CkptConfig;
        use hetero_flight::{FlightConfig, FlightRecorder, HealthPolicy};
        let data = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("hetero-sim-ckpt-trip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = |resume| {
            Checkpointer::new(CkptConfig {
                dir: dir.join("ckpt"),
                interval: 0.004,
                retain: 2,
                resume,
            })
            .unwrap()
        };
        let run = |cfg: SimEngineConfig, ckpt| {
            let flight = FlightRecorder::new(FlightConfig {
                policy: HealthPolicy::default(),
                dir: dir.clone(),
            });
            let ctx = RunCtx {
                flight,
                ckpt,
                ..RunCtx::default()
            };
            SimEngine::new(cfg).unwrap().run_with(&data, &ctx)
        };
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.02);
        let first = run(cfg, ckpt(false));
        assert!(first.aborted.is_none());
        let mut state: SimCkpt = ckpt(true).resume_state().expect("a checkpoint");
        state.core.watchdog_mut().nonfinite = 1;
        assert!(ckpt(false).save(state.core.t, &state).is_some());

        // Poison a batch of worker 0's past the end of the first run (so
        // past the resume point), with budget left to reach it.
        let mut cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.04);
        cfg.fault_plan = FaultPlan::none().poison_gradient_at(0, first.workers[0].batches + 1);
        let resumed = run(cfg, ckpt(true));
        let reason = resumed
            .aborted
            .as_deref()
            .expect("a poisoned resume aborts");
        assert!(reason.contains("non-finite"), "{reason}");
        let health = resumed.health.as_ref().unwrap();
        assert!(health.tripped.is_some());
        assert!(health.nonfinite_events > 1, "{health:?}");
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
        // The loss evaluations' GPU time has a field of its own, not a
        // worker slot.
        assert_eq!(r.workers.len(), 1);
        assert!(r.eval_timeline.busy_time() > 0.0);
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

    /// The first point is stamped 0, a periodic point sits on every
    /// deadline up to the budget (the clock stops there when no completion
    /// lands first), and the last point on the run's duration: the budget.
    #[test]
    fn points_sit_on_the_deadlines_and_the_last_on_the_duration() {
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.03);
        let (interval, budget) = (cfg.train.eval_interval, cfg.train.time_budget);
        let r = SimEngine::new(cfg).unwrap().run(&data);
        let curve = &r.loss_curve;
        assert_eq!(curve[0].time, 0.0);
        assert_eq!((curve[curve.len() - 1].time, r.duration), (budget, budget));
        let mut due = interval;
        while due <= budget {
            assert!(curve.iter().any(|p| p.time == due), "no point at {due}");
            due += interval;
        }
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
    fn rejects_an_init_that_draws_no_model() {
        use hetero_nn::InitScheme;
        for init in [
            InitScheme::Normal(-0.1),
            InitScheme::Normal(f32::NAN),
            InitScheme::Constant(f32::INFINITY),
        ] {
            let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 1.0);
            cfg.train.init = init;
            assert!(SimEngine::new(cfg).is_err(), "{init:?}");
        }
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
        let sink = TraceSink::virtual_time(1 << 14);
        let observed = SimEngine::new(cfg.clone()).unwrap().run_with(
            &data,
            &RunCtx {
                sink: sink.clone(),
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
        // Every completion filled the latency histogram, the CPU's (0) and
        // the GPU's (1) alike; the GPU filled the transfer series.
        assert!(observed.workers.iter().all(|w| w.batches > 0));
        let batches: u64 = observed.workers.iter().map(|w| w.batches).sum();
        let lat = sink.summary(Metric::BatchLatency).unwrap();
        assert_eq!(lat.count, batches);
        assert!(sink.summary(Metric::H2d).unwrap().count > 0);
        assert!(sink.summary(Metric::D2h).unwrap().count > 0);
        assert!(sink.summary(Metric::Staleness).unwrap().count > 0);
        // Latency histograms hold the modeled virtual costs (sub-second ns
        // values, never zero).
        assert!(lat.max > 0.0 && lat.max < 1e9);
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

    /// Every completed simulated GPU batch charges its link once each
    /// way, by the rule the threaded worker charges: one `H2d` of the
    /// batch and the snapshot and one `D2h` of the delta, at the
    /// footprint's modelled seconds, tagged with the batch — on a dense run
    /// and on a CSR one. A batch still in flight at the budget moved
    /// nothing yet.
    #[test]
    fn a_traced_gpu_batch_charges_its_link_once_each_way() {
        let real_sim = hetero_data::PaperDataset::RealSim.generate(0.01, 42);
        for (data, sparse) in [(tiny_dataset(), false), (real_sim, true)] {
            let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.01);
            cfg.spec = MlpSpec::tiny(data.features(), data.num_classes());
            let (fp, g) = (Footprint::of(&cfg.spec), cfg.gpus[0].clone());
            let sink = TraceSink::virtual_time(1 << 16);
            SimEngine::new(cfg).unwrap().run_traced(&data, &sink);
            let trace = sink.drain();
            assert_eq!(trace.total_dropped(), 0);
            assert_eq!(
                trace
                    .counters
                    .iter()
                    .any(|(n, _)| n == "engine.sparse_density"),
                sparse
            );
            let (mut want, mut got) = (Vec::new(), Vec::new());
            for e in trace.events_sorted() {
                match e.kind {
                    EventKind::BatchCompleted { id, batch, .. } if e.worker == 1 => {
                        let (h2d, d2h) = fp.transfer_secs(&g, batch);
                        let up = (fp.batch_bytes(batch) + fp.model) as usize;
                        want.push(EventKind::H2d {
                            bytes: up,
                            secs: h2d,
                            id: Some(id),
                        });
                        let down = fp.model as usize;
                        want.push(EventKind::D2h {
                            bytes: down,
                            secs: d2h,
                            id: Some(id),
                        });
                    }
                    EventKind::H2d { .. } | EventKind::D2h { .. } => {
                        assert_eq!(e.worker, 1, "a CPU batch crossed the link");
                        got.push(e.kind);
                    }
                    _ => {}
                }
            }
            assert!(want.len() > 2, "sparse={sparse}: too few GPU batches");
            assert_eq!(got, want, "sparse={sparse}");
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
        let retired: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WorkerRetired { .. }))
            .map(|e| e.worker)
            .collect();
        assert_eq!(retired, [1], "one retirement event, for the dead worker");
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
            EventKind::WorkerRetired { .. } | EventKind::BatchRequeued { .. }
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
