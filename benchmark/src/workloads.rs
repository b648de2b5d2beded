//! The four frozen workloads.
//!
//! Every hyperparameter that shapes a trial lives here and nowhere else;
//! `README.md` echoes the table. The values are *not* the harness defaults
//! of `hetero-bench`: those leave the threaded engine on the ln 2 plateau
//! (ROADMAP item 2), and a run that does not converge measures nothing the
//! paper cares about. Each workload ships settings under which the median
//! trial more than halves its initial loss and crosses `target_loss` between
//! 40 % and 70 % of its fixed work.

use std::sync::Arc;
use std::time::Instant;

use hetero_core::{
    AdaptiveParams, AlgorithmKind, FaultPlan, LrScaling, SimEngine, SimEngineConfig,
    ThreadedEngine, ThreadedEngineConfig, TrainConfig, TrainResult,
};
use hetero_data::{DenseDataset, PaperDataset, SynthConfig};
use hetero_nn::{Activation, InitScheme, LossKind, MlpSpec};
use hetero_sim::GpuModel;

use crate::names;

/// Which engine runs the workload, and with how many compute threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `ThreadedEngine`: wall clock, real threads. `lanes` Hogwild lanes in
    /// the CPU worker plus `gpu_workers` software-GPU workers; their sum is
    /// the compute-thread count and never exceeds the host's 2 vCPUs (the
    /// coordinator is blocked in `recv` while they compute).
    Threaded { lanes: usize, gpu_workers: usize },
    /// `SimEngine` on the calibrated V100/Xeon models: virtual clock, one
    /// host thread, bit-exact.
    Sim,
}

/// Where the training data comes from; always a pure function of `--seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Data {
    /// A Table II preset's shape (features, classes, density) at `scale` of
    /// its full example count, with the class `separability` chosen here:
    /// the catalog's 2.5 leaves the sparse presets barely learnable (w8a's
    /// ~12 active features per row carry a Bayes accuracy near 64 %, so
    /// every algorithm sits on the ln 2 plateau), and a loss curve that
    /// does not fall cannot time a crossing.
    ///
    /// The *task* is frozen and `--seed` draws the *sample*: a pool of
    /// [`POOL_FACTOR`]× the rows is generated from [`TASK_SEED`] and the
    /// seed picks which rows a run trains on. Drawing the class centres from
    /// the seed too makes the task's difficulty a function of the seed — in
    /// covtype's 54 dimensions the distance between two random centres
    /// varies enough to move the sim's (exact) `epochs_to_target` by ±20 %
    /// from seed to seed, which would drown every change the metric exists
    /// to catch.
    Paper {
        which: PaperDataset,
        scale: f64,
        separability: f32,
    },
    /// real-sim at its *full* feature width (the catalog preset shrinks the
    /// width with the scale, which would shrink the 1.3 M-parameter first
    /// layer this workload exists to exercise).
    RealSimFullWidth { examples: usize },
}

/// One frozen workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as passed to `--workload` (from [`names`]).
    pub name: &'static str,
    /// One line: what this workload stresses that the others do not.
    pub why: &'static str,
    /// Engine and thread layout.
    pub engine: EngineKind,
    /// Dataset recipe.
    pub data: Data,
    /// Hidden-layer widths (sigmoid, softmax cross-entropy output).
    pub hidden: Vec<usize>,
    /// Algorithm and hyperparameters; `seed` is overwritten per trial.
    /// Fixed work: threaded workloads stop on `max_epochs` with an
    /// effectively infinite `time_budget`; the sim stops on a fixed
    /// *virtual* `time_budget`.
    pub train: TrainConfig,
    /// The frozen loss every trial must cross (`epochs_to_target`,
    /// `time_to_target_s`).
    pub target_loss: f32,
}

/// Seed of the frozen tasks (class centres) behind [`Data::Paper`].
const TASK_SEED: u64 = 2021;
/// Rows generated per row trained on, for [`Data::Paper`].
const POOL_FACTOR: usize = 2;
/// Wall-clock budget that never binds: threaded trials end on `max_epochs`.
const NO_WALL_BUDGET: f64 = 1.0e6;
/// The sim workload's fixed work: this many *virtual* seconds.
const SIM_VIRTUAL_BUDGET: f64 = 0.04;

fn base_train(algorithm: AlgorithmKind) -> TrainConfig {
    TrainConfig {
        algorithm,
        // Plain Xavier starts every trial near ln 2; the sigmoid-gain
        // variant starts anywhere between 1.0 and 3.7 depending on the seed.
        init: InitScheme::Xavier,
        time_budget: NO_WALL_BUDGET,
        // One compute thread per worker: GEMMs inside a worker (and the
        // coordinator's evals) never fan out past the host's 2 vCPUs.
        rayon_threads: 1,
        eval_subsample: 1024,
        ..TrainConfig::default()
    }
}

/// All workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    // w8a-shaped: 300 features, 4 % dense, binary. Separability 60 gives
    // every one of a row's ~12 active features real signal, so a 2-hidden-
    // layer sigmoid net leaves the ln 2 plateau within a few epochs.
    let w8a = Data::Paper {
        which: PaperDataset::W8a,
        scale: 0.1,
        separability: 60.0,
    };
    vec![
        Workload {
            name: names::THREADED_ADAPTIVE_W8A,
            why: "Algorithm 2 on 1 CPU lane + 1 GPU worker with large batches: dense GEMM, GPU step and CAS merge carry the wall",
            engine: EngineKind::Threaded {
                lanes: 1,
                gpu_workers: 1,
            },
            data: w8a,
            hidden: vec![192, 192],
            train: TrainConfig {
                // Every batch size in play hits the cap, so this is SGD at
                // eta = 0.03: above ~0.05 the all-positive sigmoid
                // activations make the output layer's mean mode oscillate
                // and the loss curve spikes, which turns the first crossing
                // into a coin flip.
                lr: 0.02,
                lr_scaling: LrScaling::Sqrt {
                    ref_batch: 1,
                    max_lr: 0.03,
                },
                adaptive: AdaptiveParams {
                    alpha: 2.0,
                    beta: 1.0,
                    cpu_min_batch: 32,
                    cpu_max_batch: 256,
                    gpu_min_batch: 128,
                    gpu_max_batch: 1024,
                },
                max_epochs: Some(16),
                eval_interval: 0.02,
                ..base_train(AlgorithmKind::AdaptiveHogbatch)
            },
            target_loss: 0.5,
        },
        Workload {
            name: names::THREADED_HOGBATCH_CPU_W8A,
            why: "CPU-only Hogbatch on 2 lanes, no GPU: the single-device baseline of the same task; per-dispatch thread fan-out, snapshot and racy apply show, no merge",
            engine: EngineKind::Threaded {
                lanes: 2,
                gpu_workers: 0,
            },
            data: w8a,
            hidden: vec![192, 192],
            train: TrainConfig {
                // 64 examples per lane, not the issue's 1: at one example
                // per lane the run is ~4 000 coordinator round trips and
                // thread fan-outs per second, and on the reference VM the
                // cost of a cross-vCPU wake-up moves 2-3x with the
                // neighbours (updates/s between 1 400 and 3 500 from one
                // run to the next) - no estimator brings that inside a
                // bound. At ~400 dispatches per second, like the adaptive
                // workload, the fixed costs are still a fifth of a dispatch.
                lr: 0.025,
                lr_scaling: LrScaling::None,
                cpu_batch_per_thread: 64,
                max_epochs: Some(6),
                eval_interval: 0.02,
                ..base_train(AlgorithmKind::HogbatchCpu)
            },
            target_loss: 0.5,
        },
        Workload {
            name: names::THREADED_SPARSE_REALSIM,
            why: "CPU+GPU Hogbatch on 20958-feature 0.25%-dense CSR batches: spmm kernels, CSR slicing and row-sparse merges of a 1.3M-parameter layer",
            engine: EngineKind::Threaded {
                lanes: 1,
                gpu_workers: 1,
            },
            data: Data::RealSimFullWidth { examples: 2048 },
            hidden: vec![64],
            train: TrainConfig {
                // PR 9 found this net unstable above a 0.05 cap at 2048-row
                // batches; at 256/512 rows 0.08 is still smooth.
                lr: 0.01,
                lr_scaling: LrScaling::Sqrt {
                    ref_batch: 1,
                    max_lr: 0.08,
                },
                cpu_batch_per_thread: 256,
                gpu_batch: 512,
                sparse_input: true,
                max_epochs: Some(4),
                eval_interval: 0.03,
                ..base_train(AlgorithmKind::CpuGpuHogbatch)
            },
            target_loss: 0.45,
        },
        Workload {
            name: names::SIM_ADAPTIVE_COVTYPE,
            why: "Algorithm 2 on the simulated V100+Xeon, single host thread: virtual-clock metrics are exact, wall throughput is simulator speed",
            engine: EngineKind::Sim,
            data: Data::Paper {
                which: PaperDataset::Covtype,
                scale: 0.02,
                separability: 4.0,
            },
            // A small net keeps the event queue and the controller a
            // visible share of the simulator's wall next to the nn step.
            hidden: vec![64, 64],
            train: TrainConfig {
                lr: 0.0006,
                lr_scaling: LrScaling::Sqrt {
                    ref_batch: 1,
                    max_lr: 0.01,
                },
                adaptive: AdaptiveParams {
                    alpha: 2.0,
                    beta: 1.0,
                    cpu_min_batch: 56,
                    cpu_max_batch: 56 * 16,
                    gpu_min_batch: 128,
                    gpu_max_batch: 2048,
                },
                // Virtual seconds: ~29 epochs on the modelled hardware.
                time_budget: SIM_VIRTUAL_BUDGET,
                eval_interval: SIM_VIRTUAL_BUDGET / 40.0,
                ..base_train(AlgorithmKind::AdaptiveHogbatch)
            },
            target_loss: 0.35,
        },
    ]
}

/// Look a workload up by its `--workload` name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Everything set-up builds before the first trial.
pub struct Prepared {
    /// The workload this was prepared for.
    pub workload: Workload,
    /// Training data generated from `--seed`.
    pub dataset: Arc<DenseDataset>,
    /// Network shape for that data.
    pub spec: MlpSpec,
}

/// One engine run.
pub struct Trial {
    /// Wall seconds around the engine's `run` call (model init, eval-subset
    /// gather, per-run CSR compression, thread spawn/join all included).
    pub wall_s: f64,
    /// What the engine reported.
    pub result: TrainResult,
}

impl Workload {
    /// Compute threads the workload keeps busy.
    pub fn compute_threads(&self) -> usize {
        match self.engine {
            EngineKind::Threaded { lanes, gpu_workers } => lanes + gpu_workers,
            EngineKind::Sim => 1,
        }
    }

    /// Generate the dataset for `seed` (the timed part of set-up, together
    /// with [`Workload::prepare`]'s engine construction).
    pub fn generate(&self, seed: u64) -> DenseDataset {
        match self.data {
            Data::Paper {
                which,
                scale,
                separability,
            } => {
                let mut cfg = which.synth_config(scale * POOL_FACTOR as f64, TASK_SEED);
                cfg.separability = separability;
                let mut pool = cfg.generate();
                // Same preprocessing as `PaperDataset::generate`.
                if which.stats().dense {
                    pool.standardize();
                } else {
                    pool.scale_to_unit_variance();
                }
                pool.shuffle(seed);
                let (x, labels) = pool.batch(0, pool.len() / POOL_FACTOR);
                DenseDataset::new(which.stats().name, x, labels)
            }
            Data::RealSimFullWidth { examples } => {
                let stats = PaperDataset::RealSim.stats();
                let mut d = SynthConfig {
                    examples,
                    features: stats.features,
                    classes: stats.classes,
                    avg_labels: None,
                    // The catalog's value: 20 958 features memorise 2 048
                    // rows whatever the class overlap.
                    separability: 2.5,
                    density: stats.density,
                    noise: 1.0,
                    seed,
                }
                .generate();
                d.scale_to_unit_variance();
                d.name = stats.name.to_string();
                d
            }
        }
    }

    /// Full set-up: dataset generation + preprocessing, the sparse
    /// workload's CSR compression, and engine construction (which validates
    /// the frozen config).
    pub fn prepare(&self, seed: u64) -> Prepared {
        let dataset = Arc::new(self.generate(seed));
        if self.train.sparse_input {
            // The engine compresses once per run; set-up pays for one
            // compression so `setup_s` moves when `to_csr` does.
            std::hint::black_box(dataset.to_csr());
        }
        let prepared = Prepared {
            workload: self.clone(),
            spec: self.spec(&dataset),
            dataset,
        };
        std::hint::black_box(prepared.engine(0));
        prepared
    }

    /// The workload's network for `data`: sigmoid hidden layers of the
    /// frozen widths, softmax cross-entropy output.
    pub fn spec(&self, data: &DenseDataset) -> MlpSpec {
        MlpSpec {
            input_dim: data.features(),
            hidden: self.hidden.clone(),
            classes: data.num_classes(),
            activation: Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        }
    }
}

enum Engine {
    Threaded(ThreadedEngine),
    Sim(SimEngine),
}

impl Prepared {
    fn engine(&self, trial_seed: u64) -> Engine {
        let mut train = self.workload.train.clone();
        train.seed = trial_seed;
        match self.workload.engine {
            EngineKind::Threaded { lanes, gpu_workers } => Engine::Threaded(
                ThreadedEngine::new(ThreadedEngineConfig {
                    spec: self.spec.clone(),
                    train,
                    cpu_threads: lanes,
                    gpu_perf: GpuModel::v100(),
                    gpu_workers,
                    fault_plan: FaultPlan::none(),
                })
                .expect("frozen threaded config is valid"),
            ),
            EngineKind::Sim => Engine::Sim(
                SimEngine::new(SimEngineConfig::paper_hardware(self.spec.clone(), train))
                    .expect("frozen sim config is valid"),
            ),
        }
    }

    /// Run one untraced trial: tracing, metrics hub, flight recorder and
    /// checkpointing all disabled.
    pub fn run_trial(&self, trial_seed: u64) -> Trial {
        self.run_trial_with(trial_seed, &hetero_trace::TraceSink::disabled())
    }

    /// Run one trial with `sink` attached (the engine-traced trial behind
    /// `trace.overhead_pct` and the phase shares).
    pub fn run_trial_with(&self, trial_seed: u64, sink: &hetero_trace::TraceSink) -> Trial {
        let engine = self.engine(trial_seed);
        let t0 = Instant::now();
        let result = match &engine {
            Engine::Threaded(e) => e.run_traced(Arc::clone(&self.dataset), sink),
            Engine::Sim(e) => single_threaded(|| e.run_traced(&self.dataset, sink)),
        };
        Trial {
            wall_s: t0.elapsed().as_secs_f64(),
            result,
        }
    }
}

/// Run `f` with rayon fan-out pinned to the calling thread, so the sim's
/// lane waves and parallel evals stay on one host thread.
pub fn single_threaded<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("rayon shim pool")
        .install(f)
}
