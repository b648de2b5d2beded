//! Distributed parameter-server comparator (§II, reference \[10\]).
//!
//! The paper contrasts its centralized shared-memory architecture with the
//! distributed parameter-server setting: *"training data are statically
//! partitioned to workers. Moving data between workers incurs expensive
//! network traffic and is not viable. Instead, the applied solution uses
//! different learning rates across workers … the learning rate is computed
//! based on the number of model updates."*
//!
//! This module is that comparator, simulated on the same virtual clock:
//!
//! - data is **statically partitioned** across heterogeneous workers
//!   (no coordinator-side batch reassignment is possible);
//! - every gradient crosses a **network model** (latency + bandwidth) both
//!   ways: pull the model, push the gradient — the cost centralized
//!   CPU+GPU avoids entirely;
//! - batch sizes are fixed; heterogeneity is handled with **per-worker
//!   learning rates** `ηᵉ = η · (mean_updates / uᵉ)^p`, throttling workers
//!   that race ahead (the \[10\]-style compensation).
//!
//! Comparing [`PsEngine`] against [`crate::SimEngine`] with
//! `CpuGpuHogbatch`/`AdaptiveHogbatch` reproduces the paper's argument for
//! the centralized design.

use hetero_data::{BatchScheduler, DenseDataset};
use hetero_nn::{scan_model, MergeScan, Model};
use hetero_sim::{CpuModel, DeviceModel, EventQueue, GpuModel};
use hetero_trace::{BatchPhases, EventKind, TimeDomain};
use serde::{Deserialize, Serialize};

use crate::adaptive::WorkerBatchState;
use crate::config::TrainConfig;
use crate::coordinator::{observe_scan, Coordinator, CoreCkpt, RunCtx, Setup};
use crate::lane::{eval_subset, BatchSource, Evaluator, Lane};
use crate::metrics::{LossPoint, TrainResult, WorkerKind};

/// Network model between workers and the parameter server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// One-way message latency (seconds).
    pub latency: f64,
    /// Link bandwidth (bytes/second).
    pub bandwidth: f64,
}

impl NetworkModel {
    /// Datacenter-grade 10 GbE defaults.
    pub fn ten_gbe() -> Self {
        NetworkModel {
            latency: 50e-6,
            bandwidth: 1.25e9,
        }
    }

    /// Seconds to move `bytes` one way.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// One parameter-server worker: a device plus its static data shard.
enum PsDevice {
    Cpu(CpuModel),
    Gpu(GpuModel),
}

impl PsDevice {
    fn kind(&self) -> WorkerKind {
        match self {
            PsDevice::Cpu(_) => WorkerKind::Cpu,
            PsDevice::Gpu(_) => WorkerKind::Gpu,
        }
    }

    fn batch_time(&self, fpe: u64, batch: usize) -> f64 {
        match self {
            PsDevice::Cpu(c) => c.batch_time(fpe, batch),
            PsDevice::Gpu(g) => g.batch_time(fpe, batch),
        }
    }

    fn busy_utilization(&self, batch: usize) -> f64 {
        match self {
            PsDevice::Cpu(c) => c.busy_utilization(batch),
            PsDevice::Gpu(g) => g.busy_utilization(batch),
        }
    }
}

/// Parameter-server engine configuration.
#[derive(Debug, Clone)]
pub struct PsEngineConfig {
    /// Network to train.
    pub spec: hetero_nn::MlpSpec,
    /// Base hyperparameters (lr, budget, eval cadence; the algorithm field
    /// is ignored — this engine *is* the algorithm).
    pub train: TrainConfig,
    /// Heterogeneous CPU workers (each gets a shard).
    pub cpu_workers: Vec<CpuModel>,
    /// Heterogeneous GPU workers (each gets a shard).
    pub gpu_workers: Vec<GpuModel>,
    /// Per-worker batch size (static — repartitioning is "not viable").
    pub batch: usize,
    /// Worker↔server network.
    pub network: NetworkModel,
    /// Exponent `p` of the update-count learning-rate compensation
    /// (`0` disables it; \[10\] uses update-count-derived rates).
    pub lr_compensation: f64,
}

/// Discrete-event parameter-server trainer.
pub struct PsEngine {
    cfg: PsEngineConfig,
}

/// One gradient in flight between a worker and the server. Serializable
/// as is: a checkpoint freezes it with its model snapshot at its arrival
/// time.
#[derive(Clone, Serialize, Deserialize)]
struct Pending {
    /// Lineage id stamped on this batch's dispatch/start/complete events.
    id: u64,
    worker: usize,
    snapshot: Model,
    range: (usize, usize),
    /// Modeled phase breakdown (pull + compute + push), fixed at assignment
    /// from the same cost formulas that set the arrival time.
    phases: BatchPhases,
}

/// Full state of a [`PsEngine`] run at one virtual instant: the common
/// envelope plus the shard cursors, the eval cadence and the gradients in
/// flight (with arrival times, in pop order). The engine is serial on a
/// deterministic clock, so — like the simulation engine — a restored run
/// continues bit-identically; the lr compensation is computed from the
/// per-worker update counts the envelope restores exactly.
#[derive(Serialize, Deserialize)]
struct PsCkpt {
    core: CoreCkpt,
    shard_schedulers: Vec<BatchScheduler>,
    last_eval: f64,
    pending: Vec<(f64, Pending)>,
}

/// Schema tag rejecting checkpoints from other engines or layouts.
const PS_CKPT_SCHEMA: &str = "hetero-ps-ckpt/v2";

impl PsEngine {
    /// Build the engine.
    pub fn new(cfg: PsEngineConfig) -> Result<Self, String> {
        cfg.train.validate()?;
        cfg.spec.validate()?;
        if cfg.cpu_workers.is_empty() && cfg.gpu_workers.is_empty() {
            return Err("need at least one worker".into());
        }
        if cfg.batch == 0 {
            return Err("batch must be positive".into());
        }
        Ok(PsEngine { cfg })
    }

    /// [`PsEngine::run_with`] a default [`RunCtx`].
    pub fn run(&self, dataset: &DenseDataset) -> TrainResult {
        self.run_with(dataset, &RunCtx::default())
    }

    /// Train on `dataset` (shards are contiguous equal splits) for
    /// `time_budget` virtual seconds, observed and checkpointed as `ctx`
    /// says (see [`RunCtx`]; its sink should be in the virtual domain).
    /// Batch sizes are static here, so a health-policy clamp has nothing
    /// to shrink — it is recorded in the health summary and the run goes
    /// on; an abort stops it with a postmortem bundle.
    pub fn run_with(&self, dataset: &DenseDataset, ctx: &RunCtx) -> TrainResult {
        let cfg = &self.cfg;
        let spec = &cfg.spec;
        assert_eq!(dataset.features(), spec.input_dim, "feature width");
        let devices: Vec<PsDevice> = cfg
            .cpu_workers
            .iter()
            .cloned()
            .map(PsDevice::Cpu)
            .chain(cfg.gpu_workers.iter().cloned().map(PsDevice::Gpu))
            .collect();
        let w = devices.len();
        let n = dataset.len();
        // Static shard boundaries.
        let shard = |i: usize| -> (usize, usize) { (i * n / w, (i + 1) * n / w) };
        let shard_len = |i: usize| (shard(i).1 - shard(i).0).max(1);
        let mut shard_schedulers: Vec<BatchScheduler> = (0..w)
            .map(|i| BatchScheduler::new(shard_len(i), cfg.train.max_epochs))
            .collect();
        let mut co = Coordinator::new(
            Setup {
                engine: "ps",
                domain: TimeDomain::Virtual,
                algorithm: "Parameter Server",
                train: &cfg.train,
                dataset,
                layers: spec.num_layers(),
                // Static per-worker batches — repartitioning is "not
                // viable" — so every state is pinned.
                workers: devices
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        let b = cfg.batch.min(shard_len(i));
                        (d.kind(), WorkerBatchState::new(b, b, b))
                    })
                    .collect(),
            },
            ctx,
        );
        let sink = co.sink.clone();

        let mut model = Model::new(spec.clone(), cfg.train.init, cfg.train.seed);
        let mut health_scan = MergeScan::for_model(&model);
        let mut queue: EventQueue<Pending> = EventQueue::new();
        // A reused sink may still hold a previous run's clock.
        sink.set_virtual_now(queue.now());
        let fpe = spec.train_flops_per_example();
        let grad_bytes = spec.param_bytes();
        let budget = cfg.train.time_budget;
        let src = BatchSource::new(dataset, cfg.train.sparse_input);

        // GEMM fan-out pinned to `train.rayon_threads` (0 = host cores);
        // both the eval forward pass and the per-batch gradient run inside.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.train.rayon_threads)
            .build()
            .expect("ps gemm pool");
        let eval_rows = eval_subset(n, cfg.train.eval_subsample, cfg.train.seed);
        let mut evaluator = Evaluator::new(&src, &eval_rows, spec);
        let mut eval = |model: &Model, t: f64, schedulers: &[BatchScheduler]| -> LossPoint {
            let (loss, accuracy) = pool.install(|| evaluator.score(model));
            let served: f64 = schedulers.iter().map(|s| s.examples_served() as f64).sum();
            LossPoint {
                time: t,
                epochs: served / n as f64,
                loss,
                accuracy,
            }
        };
        let mut last_eval = 0.0f64;

        // Each assignment: the worker pulls the model (network cost),
        // computes, and pushes its gradient back.
        let assign = |co: &mut Coordinator<'_>,
                      worker: usize,
                      model: &Model,
                      queue: &mut EventQueue<Pending>,
                      schedulers: &mut [BatchScheduler]| {
            if queue.now() >= budget {
                return;
            }
            let Some((id, local)) = co.next_dispatch(worker, &mut schedulers[worker]) else {
                return;
            };
            let (s0, _) = shard(worker);
            let len = local.len();
            let transfer = cfg.network.transfer_time(grad_bytes);
            let compute = devices[worker].batch_time(fpe, len);
            let cost = transfer + compute + transfer;
            let start = queue.now();
            // The worker begins its pull the moment the server assigns
            // the shard batch, so dispatch and start coincide.
            co.sink.emit(worker as u32, EventKind::BatchStarted { id });
            let level = devices[worker].busy_utilization(len);
            co.busy(worker, start, start + cost, level);
            queue.schedule_after(
                cost,
                Pending {
                    id,
                    worker,
                    snapshot: model.clone(),
                    range: (s0 + local.start, s0 + local.end),
                    // The pull and push legs are transfer, the gradient is
                    // compute — the same terms as `cost`.
                    phases: BatchPhases {
                        transfer_secs: 2.0 * transfer,
                        compute_secs: compute,
                        ..BatchPhases::default()
                    },
                },
            );
        };

        // --- Resume from the newest valid checkpoint ----------------------------
        // Replaces the freshly initialized state wholesale.
        if let Some(s) = co.load(PS_CKPT_SCHEMA, |s: &PsCkpt| &s.core) {
            model = co.restore(s.core);
            shard_schedulers = s.shard_schedulers;
            last_eval = s.last_eval;
            // Re-schedule the in-flight gradients in pop order: fresh
            // monotone sequence numbers preserve the original tie-breaking,
            // so the continuation is bit-identical to the uninterrupted run.
            for (at, p) in s.pending {
                queue.schedule_at(at, p);
            }
        } else {
            co.initial_point(eval(&model, 0.0, &shard_schedulers), None);
            // Kick off every worker. (A resumed run's workers are already
            // in flight: their gradients came back with the checkpoint.)
            for i in 0..w {
                assign(&mut co, i, &model, &mut queue, &mut shard_schedulers);
            }
        }

        // Reused per-completion buffers: the server processes one gradient
        // at a time, so one lane serves every worker's batches.
        let mut lane = Lane::new(spec);

        loop {
            // Periodic crash-consistency checkpoint, captured *between*
            // events — the only instants at which the queue's pending set
            // plus the server state is the complete run state.
            let now = queue.now();
            if ctx.ckpt.due(now) {
                let state = PsCkpt {
                    core: co.capture(PS_CKPT_SCHEMA, now, &model),
                    shard_schedulers: shard_schedulers.clone(),
                    last_eval,
                    pending: queue
                        .pending_in_order()
                        .into_iter()
                        .map(|(at, p)| (at, p.clone()))
                        .collect(),
                };
                co.save(now, &state);
            }
            let Some((t, p)) = queue.pop() else { break };
            if t > budget {
                break;
            }
            sink.set_virtual_now(t);
            // A health abort raised by a previous gradient scan or eval
            // observation stops the run here.
            if co.poll_health() {
                break;
            }
            // Gradient on the stale snapshot; server applies it with the
            // update-count-compensated learning rate.
            pool.install(|| {
                self.server_apply(&src, &p, &mut lane, &mut health_scan, &mut co, &mut model)
            });
            sink.emit(
                p.worker as u32,
                EventKind::BatchCompleted {
                    id: p.id,
                    batch: p.range.1 - p.range.0,
                    updates: 1,
                    phases: p.phases,
                },
            );
            if t - last_eval >= cfg.train.eval_interval {
                last_eval = t;
                co.eval_point(eval(&model, t, &shard_schedulers), None);
            }
            co.completed(p.worker);
            assign(&mut co, p.worker, &model, &mut queue, &mut shard_schedulers);
        }
        sink.set_virtual_now(budget);
        let last = eval(&model, budget, &shard_schedulers);
        co.finish(last, None, budget)
    }

    /// Server-side handling of one arrived gradient: rebuild the batch into
    /// reused buffers, recompute the gradient on the worker's stale
    /// snapshot, health-scan it, and apply it with the
    /// update-count-compensated learning rate. This is the per-batch server
    /// hot path — everything it touches is preallocated.
    // audit: no_alloc
    fn server_apply(
        &self,
        src: &BatchSource<&DenseDataset>,
        p: &Pending,
        lane: &mut Lane,
        health_scan: &mut MergeScan,
        co: &mut Coordinator<'_>,
        model: &mut Model,
    ) {
        let cfg = &self.cfg;
        let stats = &mut co.stats;
        let w = stats.len();
        lane.stage(src, p.range.0, p.range.1);
        lane.gradient(src, &p.snapshot, true);
        if co.watchdog.enabled() {
            health_scan.reset();
            scan_model(lane.ws.grad(), health_scan);
            observe_scan(&co.watchdog, p.worker, stats[p.worker].batches, health_scan);
        }
        let mean_updates = (stats.iter().map(|s| s.updates).sum::<f64>() / w as f64).max(1.0);
        let own = stats[p.worker].updates.max(1.0);
        let comp = (mean_updates / own).powf(cfg.lr_compensation);
        let eta = cfg
            .train
            .lr_scaling
            .eta(cfg.train.lr, p.range.1 - p.range.0)
            * comp as f32;
        lane.apply_to(model, eta);
        stats[p.worker].updates += 1.0;
        stats[p.worker].batches += 1;
        stats[p.worker].examples += (p.range.1 - p.range.0) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgorithmKind;
    use crate::engine_sim::{SimEngine, SimEngineConfig};
    use hetero_ckpt::Checkpointer;
    use hetero_data::SynthConfig;
    use hetero_nn::MlpSpec;

    fn hardware() -> (CpuModel, GpuModel) {
        (
            CpuModel {
                name: "ps-cpu".into(),
                threads: 4,
                hw_threads: 4,
                flops_small: 1e9,
                flops_large: 8e9,
                batch_half: 8.0,
                dispatch_overhead: 20e-6,
                memory: 1 << 30,
            },
            GpuModel {
                name: "ps-gpu".into(),
                peak_flops: 1e12,
                occupancy_half_batch: 64.0,
                launch_overhead: 20e-6,
                transfer_latency: 5e-6,
                transfer_bandwidth: 12e9,
                memory: 1 << 30,
            },
        )
    }

    fn dataset() -> DenseDataset {
        let mut cfg = SynthConfig::small(600, 10, 2, 3);
        cfg.separability = 3.0;
        let mut d = cfg.generate();
        d.standardize();
        d
    }

    fn ps_config(budget: f64, lr_comp: f64) -> PsEngineConfig {
        let (cpu, gpu) = hardware();
        PsEngineConfig {
            spec: MlpSpec::tiny(10, 2),
            train: TrainConfig {
                time_budget: budget,
                rayon_threads: 0,
                eval_interval: budget / 8.0,
                eval_subsample: 512,
                lr: 0.05,
                ..TrainConfig::default()
            },
            cpu_workers: vec![cpu],
            gpu_workers: vec![gpu],
            batch: 64,
            network: NetworkModel::ten_gbe(),
            lr_compensation: lr_comp,
        }
    }

    #[test]
    fn ps_training_converges() {
        let data = dataset();
        let r = PsEngine::new(ps_config(0.05, 1.0)).unwrap().run(&data);
        assert!(
            r.final_loss() < r.initial_loss(),
            "{:?}",
            r.loss_curve.len()
        );
        assert_eq!(r.algorithm, "Parameter Server");
        for w in &r.workers {
            assert!(w.batches > 0, "{:?} starved", w.kind);
        }
    }

    #[test]
    fn ps_sparse_input_run_converges() {
        // The sparse fast path produces a globally exact gradient, so the
        // server's compensation math and convergence are unchanged.
        let data = dataset();
        let mut cfg = ps_config(0.05, 1.0);
        cfg.train.sparse_input = true;
        let r = PsEngine::new(cfg).unwrap().run(&data);
        assert!(r.final_loss() < r.initial_loss(), "{:?}", r.loss_curve);
        for w in &r.workers {
            assert!(w.batches > 0, "{:?} starved", w.kind);
        }
    }

    #[test]
    fn static_partitioning_bounds_each_worker_to_its_shard() {
        // With an epoch cap, each worker serves at most max_epochs passes
        // over its *own* 300-example shard — the fast GPU cannot steal the
        // CPU's data the way the centralized coordinator reassigns batches.
        let data = dataset();
        let mut cfg = ps_config(10.0, 0.0);
        cfg.train.max_epochs = Some(2);
        let r = PsEngine::new(cfg).unwrap().run(&data);
        for w in &r.workers {
            assert!(
                w.examples <= 2 * 300,
                "{:?} escaped its shard: {} examples",
                w.kind,
                w.examples
            );
        }
        // The GPU exhausts its shard; the CPU may not finish in budget.
        let gpu = r
            .workers
            .iter()
            .find(|w| w.kind == WorkerKind::Gpu)
            .unwrap();
        assert_eq!(gpu.examples, 600, "GPU should finish its 2 shard-epochs");
    }

    #[test]
    fn lr_compensation_throttles_fast_worker() {
        // With p = 1 the racing GPU worker gets a discounted rate; the
        // updates of the slow CPU worker carry relatively more weight. We
        // check the mechanism: compensation on ⇒ identical update counts
        // but different trajectory than compensation off.
        let data = dataset();
        let off = PsEngine::new(ps_config(0.05, 0.0)).unwrap().run(&data);
        let on = PsEngine::new(ps_config(0.05, 1.0)).unwrap().run(&data);
        assert_eq!(off.workers[0].batches, on.workers[0].batches);
        assert_eq!(off.workers[1].batches, on.workers[1].batches);
        assert_ne!(off.final_loss(), on.final_loss());
    }

    #[test]
    fn network_costs_slow_ps_below_shared_memory() {
        // The paper's §II argument: the PS pays 2 model-sized transfers per
        // batch over the network; centralized CPU+GPU does not. Same
        // devices, same data ⇒ PS completes fewer epochs per virtual
        // second.
        let data = dataset();
        let ps = PsEngine::new(ps_config(0.05, 1.0)).unwrap().run(&data);

        let (cpu, gpu) = hardware();
        let shared = SimEngine::new(SimEngineConfig {
            spec: MlpSpec::tiny(10, 2),
            train: TrainConfig {
                algorithm: AlgorithmKind::CpuGpuHogbatch,
                gpu_batch: 64,
                cpu_batch_per_thread: 16,
                time_budget: 0.05,
                rayon_threads: 0,
                eval_interval: 0.01,
                eval_subsample: 512,
                lr: 0.05,
                ..TrainConfig::default()
            },
            cpu: cpu.clone(),
            gpus: vec![gpu.clone()],
            tf_op_overhead: 20e-6,
            tf_multilabel_penalty: 3.0,
            fault_plan: crate::fault::FaultPlan::none(),
        })
        .unwrap()
        .run(&data);
        assert!(
            ps.epochs < shared.epochs,
            "PS ({:.2} epochs) should trail shared memory ({:.2})",
            ps.epochs,
            shared.epochs
        );
    }

    #[test]
    fn ps_checkpointed_run_is_untouched_and_resume_is_bit_identical() {
        use hetero_ckpt::CkptConfig;
        let data = dataset();
        let cfg = ps_config(0.05, 1.0);
        let dir = std::env::temp_dir().join(format!("hetero-ps-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Reference: the uninterrupted run.
        let baseline = PsEngine::new(cfg.clone()).unwrap().run(&data);

        // Checkpointing on: the run itself must be bit-identical to the
        // baseline (observation never feeds back into the schedule).
        let writer = Checkpointer::new(CkptConfig {
            dir: dir.clone(),
            interval: 0.01,
            retain: 3,
            resume: false,
        })
        .unwrap();
        let checked = PsEngine::new(cfg.clone()).unwrap().run_with(
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
            interval: 0.01,
            retain: 3,
            resume: true,
        })
        .unwrap();
        let resumed = PsEngine::new(cfg).unwrap().run_with(
            &data,
            &RunCtx {
                ckpt: reader.clone(),
                ..RunCtx::default()
            },
        );
        assert_eq!(baseline.loss_curve, resumed.loss_curve);
        assert_eq!(baseline.epochs, resumed.epochs);
        for (a, b) in baseline.workers.iter().zip(&resumed.workers) {
            assert_eq!(a.batches, b.batches);
            assert_eq!(a.examples, b.examples);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn caller_sink_sees_every_batch_lifecycle_and_does_not_move_the_run() {
        use std::collections::{HashMap, HashSet};
        let data = dataset();
        let cfg = ps_config(0.05, 1.0);
        let plain = PsEngine::new(cfg.clone()).unwrap().run(&data);
        let ctx = RunCtx {
            sink: hetero_trace::TraceSink::virtual_time(hetero_trace::DEFAULT_RING_CAPACITY),
            ..RunCtx::default()
        };
        let traced = PsEngine::new(cfg.clone()).unwrap().run_with(&data, &ctx);
        // Tracing never feeds back into the schedule or the math.
        assert_eq!(plain.loss_curve, traced.loss_curve);

        let trace = ctx.sink.drain();
        assert_eq!(trace.domain, TimeDomain::Virtual);
        assert_eq!(trace.total_dropped(), 0, "ring too small for the run");
        // id → (target worker, started, completed).
        let mut batches: HashMap<u64, (u32, bool, bool)> = HashMap::new();
        let mut evals = 0;
        for e in trace.events_sorted() {
            assert!(e.t >= 0.0 && e.t <= cfg.train.time_budget + 1e-9, "{e:?}");
            match e.kind {
                EventKind::BatchDispatched { id, batch } => {
                    assert!(id > 0 && batch > 0);
                    let fresh = batches.insert(id, (e.worker, false, false)).is_none();
                    assert!(fresh, "duplicate batch id {id}");
                }
                EventKind::BatchStarted { id } => {
                    let b = batches.get_mut(&id).expect("start without dispatch");
                    assert_eq!(b.0, e.worker, "batch {id} started on another worker");
                    b.1 = true;
                }
                EventKind::BatchCompleted { id, updates, .. } => {
                    let b = batches.get_mut(&id).expect("completion without dispatch");
                    assert!(b.1 && !b.2, "batch {id} completed unstarted or twice");
                    assert_eq!((b.0, updates), (e.worker, 1));
                    b.2 = true;
                }
                EventKind::EvalPoint { .. } => evals += 1,
                EventKind::BatchRequeued { .. } | EventKind::WorkerFault { .. } => {
                    panic!("fault-free run traced {:?}", e.kind)
                }
                _ => {}
            }
        }
        assert_eq!(evals, traced.loss_curve.len());
        // Every batch starts the moment it is dispatched; all but the ones
        // still in flight at the budget complete, on both workers.
        assert!(batches.values().all(|b| b.1));
        let done: Vec<u32> = batches.values().filter(|b| b.2).map(|b| b.0).collect();
        let total: u64 = traced.workers.iter().map(|w| w.batches).sum();
        assert_eq!(done.len() as u64, total);
        assert!(batches.len() - done.len() <= traced.workers.len());
        assert_eq!(done.iter().collect::<HashSet<_>>().len(), 2);
    }

    #[test]
    fn rejects_empty_worker_set() {
        let mut cfg = ps_config(0.1, 0.0);
        cfg.cpu_workers.clear();
        cfg.gpu_workers.clear();
        assert!(PsEngine::new(cfg).is_err());
    }
}
