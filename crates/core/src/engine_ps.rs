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

use hetero_ckpt::Checkpointer;
use hetero_data::{BatchScheduler, DenseDataset, Labels};
use hetero_flight::{FlightRecorder, Provenance, Watchdog, WatchdogState};
use hetero_metrics::MetricsHub;
use hetero_nn::{scan_model, MergeScan, Model, Workspace};
use hetero_sim::{CpuModel, DeviceModel, EventQueue, GpuModel};
use hetero_tensor::{CsrBatch, CsrMatrix, Matrix};
use hetero_trace::{BatchPhases, EventKind, TimeDomain, COORDINATOR};
use serde::{Deserialize, Serialize};

use crate::config::TrainConfig;
use crate::metrics::{LossPoint, TrainResult, WorkerKind, WorkerStats};

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

struct Pending {
    /// Lineage id stamped on this batch's dispatch/start/complete events.
    /// Not checkpointed — a resumed run issues fresh ids for its restored
    /// in-flight gradients, so a trace never sees a reused id.
    id: u64,
    worker: usize,
    snapshot: Model,
    range: (usize, usize),
    /// Modeled phase breakdown (pull + compute + push), fixed at assignment
    /// from the same cost formulas that set the arrival time.
    phases: BatchPhases,
}

/// One in-flight gradient at its arrival time, as frozen in a checkpoint.
#[derive(Serialize, Deserialize)]
struct PsPendingCkpt {
    at: f64,
    worker: usize,
    snapshot: Model,
    range: (usize, usize),
}

/// Per-worker counters a resumed run continues from (the lr compensation
/// is computed from `updates`, so restoring them exactly preserves the
/// learning-rate trajectory).
#[derive(Serialize, Deserialize)]
struct PsWorkerCkpt {
    updates: f64,
    batches: u64,
    examples: u64,
}

/// Full state of a [`PsEngine`] run at one virtual instant. The engine is
/// serial on a deterministic clock, so — like the simulation engine — a
/// restored run continues bit-identically.
#[derive(Serialize, Deserialize)]
struct PsCkptState {
    schema: String,
    t: f64,
    model: Model,
    shard_schedulers: Vec<BatchScheduler>,
    curve: Vec<LossPoint>,
    last_eval: f64,
    workers: Vec<PsWorkerCkpt>,
    pending: Vec<PsPendingCkpt>,
    watchdog: WatchdogState,
}

/// Schema tag rejecting checkpoints from other engines or layouts.
const PS_CKPT_SCHEMA: &str = "hetero-ps-ckpt/v1";

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

    /// Train on `dataset`; shards are contiguous equal splits.
    pub fn run(&self, dataset: &DenseDataset) -> TrainResult {
        self.run_flight(dataset, &FlightRecorder::disabled())
    }

    /// [`PsEngine::run`] with a black-box flight recorder attached.
    ///
    /// The recorder's watchdog scans every server-applied gradient for
    /// per-layer norms and NaN/±Inf and watches the loss curve at every
    /// eval. This engine has no adaptive controller, so a
    /// [`hetero_flight::HealthAction::Clamp`] has nothing to clamp — the
    /// request is recorded in the health summary and otherwise ignored; an
    /// abort stops the run with a postmortem bundle. A disabled recorder
    /// reduces this to exactly [`PsEngine::run`].
    pub fn run_flight(&self, dataset: &DenseDataset, flight: &FlightRecorder) -> TrainResult {
        self.run_ckpt(dataset, flight, &Checkpointer::disabled())
    }

    /// [`PsEngine::run_flight`] with crash-consistent checkpointing.
    ///
    /// Between virtual events the coordinator state plus the queue's
    /// pending set is the complete run state; when a checkpoint is due the
    /// engine freezes both through `hetero-ckpt`'s atomic-publish path. The
    /// engine is serial on a deterministic clock, so a checkpointer with
    /// `resume: true` continues the loss curve **bit-identically** — the
    /// same property the simulation engine has. A disabled checkpointer
    /// reduces this to exactly [`PsEngine::run_flight`].
    pub fn run_ckpt(
        &self,
        dataset: &DenseDataset,
        flight: &FlightRecorder,
        ckpt: &Checkpointer,
    ) -> TrainResult {
        let watchdog = flight.watchdog();
        // This engine takes no caller sink; the recorder's bounded ring
        // retains the eval/health event window for postmortems.
        let sink = flight.make_sink(TimeDomain::Virtual);
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
        let mut shard_schedulers: Vec<BatchScheduler> = (0..w)
            .map(|i| {
                let (s, e) = shard(i);
                BatchScheduler::new((e - s).max(1), cfg.train.max_epochs)
            })
            .collect();

        let mut model = Model::new(spec.clone(), cfg.train.init, cfg.train.seed);
        watchdog.ensure_layers(model.layers().len());
        if flight.enabled() {
            flight.set_provenance(Provenance {
                engine: "ps".into(),
                algorithm: "Parameter Server".into(),
                dataset: dataset.name.clone(),
                workers: w,
                config_json: serde_json::to_string(&cfg.train).unwrap_or_default(),
                git_sha: hetero_flight::read_git_sha(),
                simd_level: format!("{:?}", hetero_tensor::simd::active_level()),
            });
        }
        let mut health_scan = MergeScan::for_model(&model);
        let mut stats: Vec<WorkerStats> =
            devices.iter().map(|d| WorkerStats::new(d.kind())).collect();
        let mut queue: EventQueue<Pending> = EventQueue::new();
        let mut curve: Vec<LossPoint> = Vec::new();
        let fpe = spec.train_flops_per_example();
        let grad_bytes = spec.param_bytes();
        let budget = cfg.train.time_budget;
        let eval_n = cfg.train.eval_subsample.min(n);

        // GEMM fan-out pinned to `train.rayon_threads` (0 = host cores);
        // both the eval forward pass and the per-batch gradient run inside.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.train.rayon_threads)
            .build()
            .expect("ps gemm pool");
        // The eval batch is the same fixed prefix every time — extract once.
        let (eval_x, eval_labels) = dataset.batch(0, eval_n);
        let eval = |model: &Model, t: f64, epochs: f64, curve: &mut Vec<LossPoint>| -> f32 {
            let pass = pool.install(|| hetero_nn::forward(model, &eval_x, true));
            let loss = hetero_nn::loss(pass.probs(), eval_labels.as_targets(), spec.loss);
            curve.push(LossPoint {
                time: t,
                epochs,
                loss,
                accuracy: hetero_nn::accuracy(pass.probs(), eval_labels.as_targets()),
            });
            if sink.enabled() {
                sink.emit_at(t, COORDINATOR, EventKind::EvalPoint { loss: loss as f64 });
            }
            loss
        };
        let mut last_eval = 0.0f64;
        // Batch lineage ids, monotone from 1 (restored in-flight gradients
        // take fresh ids too — see `Pending::id`).
        let mut next_batch_id: u64 = 1;
        // Modeled phase breakdown for a worker's round trip: the pull and
        // push legs are transfer, the gradient is compute. Mirrors the
        // `cost` formula in `assign` below.
        let phases_for = |worker: usize, len: usize| -> BatchPhases {
            BatchPhases {
                transfer_secs: 2.0 * cfg.network.transfer_time(grad_bytes),
                compute_secs: devices[worker].batch_time(fpe, len),
                ..BatchPhases::default()
            }
        };

        // --- Resume from the newest valid checkpoint ----------------------------
        // Replaces the freshly initialized state wholesale. The worker-count
        // guard rejects a checkpoint from a differently shaped run (the
        // schema tag already rejects other engines' checkpoints).
        let resume: Option<PsCkptState> = ckpt
            .resume_state::<PsCkptState>()
            .filter(|s| s.schema == PS_CKPT_SCHEMA && s.workers.len() == w);
        let resumed = resume.is_some();
        if let Some(s) = resume {
            model = s.model;
            shard_schedulers = s.shard_schedulers;
            curve = s.curve;
            last_eval = s.last_eval;
            for (stat, wc) in stats.iter_mut().zip(&s.workers) {
                stat.updates = wc.updates;
                stat.batches = wc.batches;
                stat.examples = wc.examples;
            }
            watchdog.restore_state(&s.watchdog);
            // Re-schedule the in-flight gradients in pop order: fresh
            // monotone sequence numbers preserve the original tie-breaking,
            // so the continuation is bit-identical to the uninterrupted run.
            for p in s.pending {
                let id = next_batch_id;
                next_batch_id += 1;
                let len = p.range.1 - p.range.0;
                if sink.enabled() {
                    // Restored in-flight batches re-enter the trace at the
                    // resume instant under their fresh ids.
                    sink.emit_at(s.t, COORDINATOR, EventKind::BatchDispatched { id, batch: len });
                    sink.emit_at(s.t, p.worker as u32, EventKind::BatchStarted { id });
                }
                queue.schedule_at(
                    p.at,
                    Pending {
                        id,
                        worker: p.worker,
                        snapshot: p.snapshot,
                        range: p.range,
                        phases: phases_for(p.worker, len),
                    },
                );
            }
            ckpt.resume_mark(s.t);
            sink.counter("ckpt.resumes").add(1);
        } else {
            // The initial loss seeds the watchdog's divergence/stall baseline.
            let l0 = eval(&model, 0.0, 0.0, &mut curve);
            watchdog.observe_eval(l0 as f64);
        }

        // Reused per-completion buffers: the server processes one gradient
        // at a time, so one workspace serves every worker's batches.
        let mut ws = Workspace::new(spec);
        let mut batch_x = Matrix::zeros(0, 0);
        let mut batch_csr = CsrBatch::new();
        let mut batch_labels = Labels::Classes(Vec::new());
        // Sparse staging source: compress the feature matrix once per run so
        // batches slice in O(nnz) instead of rescanning the dense matrix
        // (O(batch × features) regardless of density).
        let csr_data: Option<CsrMatrix> = self.cfg.train.sparse_input.then(|| dataset.to_csr());

        // Kick off: each worker pulls the model (network cost) and starts.
        let assign = |worker: usize,
                      model: &Model,
                      queue: &mut EventQueue<Pending>,
                      schedulers: &mut [BatchScheduler],
                      stats: &mut [WorkerStats],
                      next_batch_id: &mut u64| {
            if queue.now() >= budget {
                return;
            }
            let Some(local) = schedulers[worker].next_batch(cfg.batch) else {
                return;
            };
            if local.is_empty() {
                return;
            }
            let (s0, _) = shard(worker);
            let range = (s0 + local.start, s0 + local.end);
            let len = range.1 - range.0;
            // Pull model + compute + push gradient.
            let cost = cfg.network.transfer_time(grad_bytes)
                + devices[worker].batch_time(fpe, len)
                + cfg.network.transfer_time(grad_bytes);
            let start = queue.now();
            let id = *next_batch_id;
            *next_batch_id += 1;
            if sink.enabled() {
                // The worker begins its pull the moment the server assigns
                // the shard batch, so dispatch and start coincide.
                sink.emit_at(start, COORDINATOR, EventKind::BatchDispatched { id, batch: len });
                sink.emit_at(start, worker as u32, EventKind::BatchStarted { id });
            }
            stats[worker].timeline.record(
                start,
                start + cost,
                devices[worker].busy_utilization(len),
            );
            queue.schedule_after(
                cost,
                Pending {
                    id,
                    worker,
                    snapshot: model.clone(),
                    range,
                    phases: phases_for(worker, len),
                },
            );
        };
        // A resumed run's workers are already in flight (their completion
        // events came back with the checkpoint): kickoff is fresh starts only.
        if !resumed {
            for i in 0..w {
                assign(
                    i,
                    &model,
                    &mut queue,
                    &mut shard_schedulers,
                    &mut stats,
                    &mut next_batch_id,
                );
            }
        }

        let total_served = |ss: &[BatchScheduler]| -> f64 {
            ss.iter().map(|s| s.examples_served() as f64).sum::<f64>() / n as f64
        };

        // Checkpoint observability (no-ops when the recorder is disabled;
        // this engine has no MetricsHub, so the write-latency distribution
        // lives in the threaded/sim engines only).
        let g_ckpt_gen = sink.gauge("ckpt.generation");
        let g_ckpt_bytes = sink.gauge("ckpt.bytes");
        let g_ckpt_age = sink.gauge("ckpt.age_secs");

        loop {
            // Periodic crash-consistency checkpoint, captured *between*
            // events — the only instants at which the queue's pending set
            // plus the server state is the complete run state. The capture
            // reads everything and mutates nothing, so the schedule and the
            // math are untouched whether or not a checkpoint is written.
            if ckpt.due(queue.now()) {
                let state = PsCkptState {
                    schema: PS_CKPT_SCHEMA.to_string(),
                    t: queue.now(),
                    model: model.clone(),
                    shard_schedulers: shard_schedulers.clone(),
                    curve: curve.clone(),
                    last_eval,
                    workers: stats
                        .iter()
                        .map(|s| PsWorkerCkpt {
                            updates: s.updates,
                            batches: s.batches,
                            examples: s.examples,
                        })
                        .collect(),
                    pending: queue
                        .pending_in_order()
                        .into_iter()
                        .map(|(at, p)| PsPendingCkpt {
                            at,
                            worker: p.worker,
                            snapshot: p.snapshot.clone(),
                            range: p.range,
                        })
                        .collect(),
                    watchdog: watchdog.export_state(),
                };
                if let Some(report) = ckpt.save(state.t, &state) {
                    g_ckpt_gen.set(report.generation as f64);
                    g_ckpt_bytes.set(report.bytes as f64);
                    flight.set_resumable_from(report.path.display().to_string());
                }
            }
            let Some((t, p)) = queue.pop() else { break };
            if t > budget {
                break;
            }
            // Health abort raised by a previous gradient scan or eval
            // observation stops the run here.
            if let Some(reason) = watchdog.tripped() {
                if sink.enabled() {
                    sink.emit_at(
                        t,
                        COORDINATOR,
                        EventKind::HealthEvent {
                            action: "abort".to_string(),
                            detail: reason,
                        },
                    );
                }
                break;
            }
            // Gradient on the stale snapshot; server applies it with the
            // update-count-compensated learning rate.
            self.server_apply(
                &pool,
                dataset,
                csr_data.as_ref(),
                &p,
                &mut batch_x,
                &mut batch_csr,
                &mut batch_labels,
                &mut ws,
                &mut health_scan,
                &watchdog,
                &mut stats,
                &mut model,
            );
            if sink.enabled() {
                sink.emit_at(
                    t,
                    p.worker as u32,
                    EventKind::BatchCompleted {
                        id: p.id,
                        batch: p.range.1 - p.range.0,
                        updates: 1,
                        phases: p.phases,
                    },
                );
            }

            if t - last_eval >= cfg.train.eval_interval {
                last_eval = t;
                if ckpt.enabled() {
                    g_ckpt_age.set(t - ckpt.last_saved_at().unwrap_or(0.0));
                }
                let loss = eval(&model, t, total_served(&shard_schedulers), &mut curve);
                // No adaptive controller here: a Clamp action has nothing
                // to act on, so the request is drained and only recorded.
                watchdog.observe_eval(loss as f64);
                let _ = watchdog.take_clamp_request();
                if flight.enabled() {
                    flight.record_snapshot(hetero_flight::HealthSnapshot {
                        t,
                        loss: loss as f64,
                        epochs: total_served(&shard_schedulers),
                        batches: vec![cfg.batch; w],
                        beta: None,
                        staleness_p50: None,
                        staleness_p99: None,
                        grad_peak_norm: watchdog.summary().peak_grad_norm,
                    });
                }
            }
            assign(
                p.worker,
                &model,
                &mut queue,
                &mut shard_schedulers,
                &mut stats,
                &mut next_batch_id,
            );
        }
        eval(&model, budget, total_served(&shard_schedulers), &mut curve);

        for (i, s) in stats.iter_mut().enumerate() {
            s.final_batch = cfg.batch.min(shard(i).1 - shard(i).0);
        }
        for s in &mut stats {
            s.summarize_timeline();
        }
        let aborted = watchdog.tripped().map(|r| format!("health watchdog: {r}"));
        let mut health = watchdog.enabled().then(|| watchdog.summary());
        if flight.enabled() && aborted.is_some() {
            let reason = aborted.clone().unwrap_or_default();
            let path = flight.dump(&reason, sink.capture(), &MetricsHub::disabled());
            if let (Some(h), Some(p)) = (health.as_mut(), path) {
                h.postmortem = Some(p);
            }
        }
        TrainResult {
            algorithm: "Parameter Server".into(),
            dataset: dataset.name.clone(),
            loss_curve: curve,
            workers: stats,
            duration: budget,
            epochs: total_served(&shard_schedulers),
            trace_path: None,
            requeued_batches: 0,
            aborted,
            measured_beta: None,
            staleness: None,
            health,
        }
    }

    /// Server-side handling of one arrived gradient: rebuild the batch into
    /// reused buffers, recompute the gradient on the worker's stale
    /// snapshot, health-scan it, and apply it with the
    /// update-count-compensated learning rate. This is the per-batch server
    /// hot path — everything it touches is preallocated.
    // audit: no_alloc
    #[allow(clippy::too_many_arguments)]
    fn server_apply(
        &self,
        pool: &rayon::ThreadPool,
        dataset: &DenseDataset,
        csr_data: Option<&CsrMatrix>,
        p: &Pending,
        batch_x: &mut Matrix,
        batch_csr: &mut CsrBatch,
        batch_labels: &mut Labels,
        ws: &mut Workspace,
        health_scan: &mut MergeScan,
        watchdog: &Watchdog,
        stats: &mut [WorkerStats],
        model: &mut Model,
    ) {
        let cfg = &self.cfg;
        let w = stats.len();
        if let Some(src) = csr_data {
            // Sparse fast path: CSR batch + sparse kernels; the gradient is
            // globally exact, so the health scan and lr compensation below
            // are unchanged.
            dataset
                .labels
                .slice_into(p.range.0, p.range.1, batch_labels);
            src.slice_rows_into(p.range.0, p.range.1, batch_csr);
            pool.install(|| {
                ws.loss_and_gradient_sparse_into(
                    &p.snapshot,
                    batch_csr.view(),
                    batch_labels.as_targets(),
                    true,
                );
            });
        } else {
            dataset.batch_into(p.range.0, p.range.1, batch_x, batch_labels);
            pool.install(|| {
                ws.loss_and_gradient_into(&p.snapshot, batch_x, batch_labels.as_targets(), true);
            });
        }
        if watchdog.enabled() {
            health_scan.reset();
            scan_model(ws.grad(), health_scan);
            for (l, ls) in health_scan.layers().iter().enumerate() {
                watchdog.observe_layer(
                    p.worker as u32,
                    l,
                    stats[p.worker].batches,
                    ls.sumsq,
                    ls.nonfinite,
                );
            }
        }
        let mean_updates = (stats.iter().map(|s| s.updates).sum::<f64>() / w as f64).max(1.0);
        let own = stats[p.worker].updates.max(1.0);
        let comp = (mean_updates / own).powf(cfg.lr_compensation);
        let eta = cfg
            .train
            .lr_scaling
            .eta(cfg.train.lr, p.range.1 - p.range.0)
            * comp as f32;
        if cfg.train.sparse_input {
            model.apply_gradient_sparse(ws.grad(), eta, ws.sparse_active_cols());
        } else {
            model.apply_gradient(ws.grad(), eta);
        }
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
        let checked = PsEngine::new(cfg.clone()).unwrap().run_ckpt(
            &data,
            &FlightRecorder::disabled(),
            &writer,
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
        let resumed =
            PsEngine::new(cfg)
                .unwrap()
                .run_ckpt(&data, &FlightRecorder::disabled(), &reader);
        assert_eq!(baseline.loss_curve, resumed.loss_curve);
        assert_eq!(baseline.epochs, resumed.epochs);
        for (a, b) in baseline.workers.iter().zip(&resumed.workers) {
            assert_eq!(a.batches, b.batches);
            assert_eq!(a.examples, b.examples);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_empty_worker_set() {
        let mut cfg = ps_config(0.1, 0.0);
        cfg.cpu_workers.clear();
        cfg.gpu_workers.clear();
        assert!(PsEngine::new(cfg).is_err());
    }
}
