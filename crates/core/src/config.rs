//! Training configuration: algorithm choice and hyperparameters.

use serde::{Deserialize, Serialize};

/// Which SGD algorithm to run (paper §VI–VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// Hogbatch CPU: CPU-only, `cpu_batch_per_thread` examples per thread;
    /// at 1 (the default) this is pure Hogwild \[16\].
    HogbatchCpu,
    /// Hogbatch GPU: GPU-only large-batch mini-batch SGD.
    MiniBatchGpu,
    /// TensorFlow comparator: synchronous mini-batch with per-op dispatch
    /// overhead (§II). §VII-B's slower delicious run is not reproduced: the
    /// paper blames TensorFlow's implementation, which this repo does not
    /// have.
    TensorFlow,
    /// CPU+GPU Hogbatch (§VI-B): static small CPU batches + static large
    /// GPU batches updating one shared model asynchronously.
    CpuGpuHogbatch,
    /// Adaptive Hogbatch (§VI-C, Algorithm 2): batch sizes continuously
    /// doubled/halved to bound the update-count gap between workers.
    AdaptiveHogbatch,
}

impl AlgorithmKind {
    /// All algorithms in the paper's presentation order.
    pub fn all() -> [AlgorithmKind; 5] {
        [
            AlgorithmKind::HogbatchCpu,
            AlgorithmKind::MiniBatchGpu,
            AlgorithmKind::TensorFlow,
            AlgorithmKind::CpuGpuHogbatch,
            AlgorithmKind::AdaptiveHogbatch,
        ]
    }

    /// Whether the algorithm uses the CPU worker.
    pub fn uses_cpu(&self) -> bool {
        !matches!(
            self,
            AlgorithmKind::MiniBatchGpu | AlgorithmKind::TensorFlow
        )
    }

    /// Whether the algorithm uses GPU worker(s).
    pub fn uses_gpu(&self) -> bool {
        !matches!(self, AlgorithmKind::HogbatchCpu)
    }

    /// Whether batch sizes evolve at runtime.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, AlgorithmKind::AdaptiveHogbatch)
    }

    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::HogbatchCpu => "Hogbatch CPU",
            AlgorithmKind::MiniBatchGpu => "Hogbatch GPU",
            AlgorithmKind::TensorFlow => "TensorFlow",
            AlgorithmKind::CpuGpuHogbatch => "CPU+GPU Hogbatch",
            AlgorithmKind::AdaptiveHogbatch => "Adaptive Hogbatch",
        }
    }
}

/// How the learning rate scales with the batch a gradient was computed on.
///
/// The paper sets "the learning rate to be proportional with the batch
/// size" (§VI-B, after Goyal et al. \[7\]), so accurate large-batch gradients
/// move the model further than noisy single-example ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrScaling {
    /// Same learning rate for every worker regardless of batch.
    None,
    /// `eta = base · (batch / ref_batch)`, clamped to `max_lr`.
    Linear {
        /// Batch size at which `eta == base`.
        ref_batch: usize,
        /// Upper clamp preventing divergence at huge batches.
        max_lr: f32,
    },
    /// `eta = base · sqrt(batch / ref_batch)`, clamped to `max_lr`.
    Sqrt {
        /// Batch size at which `eta == base`.
        ref_batch: usize,
        /// Upper clamp preventing divergence at huge batches.
        max_lr: f32,
    },
}

impl LrScaling {
    /// Effective learning rate for a gradient computed over `batch` examples.
    pub fn eta(&self, base: f32, batch: usize) -> f32 {
        match self {
            LrScaling::None => base,
            LrScaling::Linear { ref_batch, max_lr } => {
                (base * batch as f32 / (*ref_batch).max(1) as f32).min(*max_lr)
            }
            LrScaling::Sqrt { ref_batch, max_lr } => {
                (base * (batch as f32 / (*ref_batch).max(1) as f32).sqrt()).min(*max_lr)
            }
        }
    }
}

/// Parameters of the Adaptive Hogbatch controller (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveParams {
    /// Batch-size scaling factor α (default 2: double/halve).
    pub alpha: f64,
    /// Fraction β of CPU sub-updates assumed to survive conflicts
    /// (default 1).
    pub beta: f64,
    /// Lower batch-size threshold for the CPU worker (per worker, total
    /// examples — the paper starts the CPU at 1/thread).
    pub cpu_min_batch: usize,
    /// Upper batch-size threshold for the CPU worker.
    pub cpu_max_batch: usize,
    /// Lower batch-size threshold for GPU workers (≈50% utilization).
    pub gpu_min_batch: usize,
    /// Upper batch-size threshold for GPU workers (≈100% utilization).
    pub gpu_max_batch: usize,
}

impl Default for AdaptiveParams {
    /// The paper's thresholds on its own host: the 56 worker threads of
    /// `CpuModel::xeon_pair()` and GPU batches up to 8 192.
    fn default() -> Self {
        AdaptiveParams::paper(hetero_sim::CpuModel::xeon_pair().threads, 8192)
    }
}

impl AdaptiveParams {
    /// The paper's thresholds (§VII-A) for a CPU worker of `lanes` threads
    /// and GPU batches up to `gpu_max`: the CPU runs 1–64 examples per
    /// lane, the GPU from a sixteenth of its cap (at least 16, at most the
    /// cap) up to the cap; α 2 and β 1.
    pub fn paper(lanes: usize, gpu_max: usize) -> Self {
        AdaptiveParams {
            alpha: 2.0,
            beta: 1.0,
            cpu_min_batch: lanes,
            cpu_max_batch: 64 * lanes,
            gpu_min_batch: (gpu_max / 16).max(16).min(gpu_max),
            gpu_max_batch: gpu_max,
        }
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.alpha <= 1.0 {
            return Err("alpha must exceed 1".into());
        }
        if !(0.0..=1.0).contains(&self.beta) {
            return Err("beta must be in [0,1]".into());
        }
        if self.cpu_min_batch == 0 || self.gpu_min_batch == 0 {
            return Err("min batches must be positive".into());
        }
        if self.cpu_min_batch > self.cpu_max_batch || self.gpu_min_batch > self.gpu_max_batch {
            return Err("min batch exceeds max batch".into());
        }
        Ok(())
    }
}

/// Full training configuration shared by the engines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Which algorithm to run.
    pub algorithm: AlgorithmKind,
    /// Weight initialization. Defaults to Xavier with the sigmoid gain —
    /// the width-scaled normal the paper describes (§VII-A) reads as σ ∝
    /// layer width, and this is the variant that takes the paper's 4–8
    /// sigmoid layers off the uniform-prediction plateau.
    pub init: hetero_nn::InitScheme,
    /// Base learning rate (grid-searched in powers of 10, §VII-A).
    pub lr: f32,
    /// Batch-dependent learning-rate scaling (default: `lr · √batch`,
    /// capped at 0.5).
    pub lr_scaling: LrScaling,
    /// Examples per CPU thread in the static algorithms (paper: 1–64).
    pub cpu_batch_per_thread: usize,
    /// GPU batch size in the static algorithms (paper: 64–8192).
    pub gpu_batch: usize,
    /// Adaptive-controller parameters.
    pub adaptive: AdaptiveParams,
    /// Stop after this much (virtual or wall) time, in seconds.
    pub time_budget: f64,
    /// Optional epoch cap (the paper stops on time instead).
    pub max_epochs: Option<usize>,
    /// Staleness compensation κ (§VI-B: "the learning rate can be
    /// decreased to compensate for the stale gradient"). A gradient whose
    /// snapshot is `s` model-updates old is applied with
    /// `eta / (1 + κ·s)`; κ = 0 (default) disables compensation.
    pub staleness_discount: f32,
    /// Pinned; read by nothing. Every step and eval runs on the thread of
    /// the worker (or the simulator) that owns it, and no engine fans a
    /// GEMM out to a pool of any size. It stays only because the frozen
    /// `benchmark/` sets it; ROADMAP item 7 (ruler v2) deletes it.
    #[serde(default)]
    pub rayon_threads: usize,
    /// Pinned; read by nothing. A run trains layer 0 on CSR rows when its
    /// data is no denser than `lane::CSR_MAX_DENSITY` (the measured
    /// dense/CSR crossover) and dense otherwise, whatever this says. It
    /// stays only because the frozen `benchmark/` sets it; ROADMAP item 7
    /// (ruler v2) deletes it.
    #[serde(default)]
    pub sparse_input: bool,
    /// Seconds between loss evaluations on the engine's clock (the
    /// simulator adds one at each epoch end; the threaded engine does not).
    pub eval_interval: f64,
    /// Max examples used per loss evaluation (subsampled for speed).
    pub eval_subsample: usize,
    /// RNG seed for model init and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            algorithm: AlgorithmKind::AdaptiveHogbatch,
            init: hetero_nn::InitScheme::XavierSigmoid,
            lr: 0.01,
            lr_scaling: LrScaling::Sqrt {
                ref_batch: 1,
                max_lr: 0.5,
            },
            cpu_batch_per_thread: 1,
            gpu_batch: 8192,
            adaptive: AdaptiveParams::default(),
            time_budget: 1.0,
            max_epochs: None,
            staleness_discount: 0.0,
            rayon_threads: 0,
            sparse_input: false,
            eval_interval: 0.05,
            eval_subsample: 2048,
            seed: 42,
        }
    }
}

impl TrainConfig {
    /// This configuration sized for an `n`-row dataset and a CPU worker of
    /// `lanes` threads — the one rule every entry point runs a task by. The
    /// GPU batch is capped at an eighth of an epoch, the adaptive
    /// thresholds are the paper's for `lanes` and that cap (α and β kept),
    /// and the loss is scored twenty times over the budget.
    pub fn sized(self, n: usize, lanes: usize) -> TrainConfig {
        let gpu_batch = self.gpu_batch.min(n / 8);
        TrainConfig {
            gpu_batch,
            adaptive: AdaptiveParams {
                alpha: self.adaptive.alpha,
                beta: self.adaptive.beta,
                ..AdaptiveParams::paper(lanes, gpu_batch)
            },
            eval_interval: self.time_budget / 20.0,
            ..self
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.lr <= 0.0 || !self.lr.is_finite() {
            return Err("lr must be positive and finite".into());
        }
        if self.cpu_batch_per_thread == 0 || self.gpu_batch == 0 {
            return Err("batch sizes must be positive".into());
        }
        // A NaN or infinite budget never ends a run.
        if !(self.time_budget.is_finite() && self.time_budget > 0.0) {
            return Err("time budget must be positive and finite".into());
        }
        if !(self.eval_interval.is_finite() && self.eval_interval > 0.0) {
            return Err("eval interval must be positive and finite".into());
        }
        if self.staleness_discount < 0.0 || !self.staleness_discount.is_finite() {
            return Err("staleness discount must be finite and non-negative".into());
        }
        if self.eval_subsample == 0 {
            // An empty eval batch scores a loss of 0.0, which reads as a
            // converged run.
            return Err("eval subsample must be positive".into());
        }
        self.init.validate()?;
        self.adaptive.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_device_usage() {
        assert!(AlgorithmKind::HogbatchCpu.uses_cpu());
        assert!(!AlgorithmKind::HogbatchCpu.uses_gpu());
        assert!(!AlgorithmKind::MiniBatchGpu.uses_cpu());
        assert!(AlgorithmKind::MiniBatchGpu.uses_gpu());
        assert!(AlgorithmKind::CpuGpuHogbatch.uses_cpu());
        assert!(AlgorithmKind::CpuGpuHogbatch.uses_gpu());
        assert!(AlgorithmKind::AdaptiveHogbatch.is_adaptive());
        assert!(!AlgorithmKind::CpuGpuHogbatch.is_adaptive());
    }

    #[test]
    fn lr_scaling_rules() {
        let lin = LrScaling::Linear {
            ref_batch: 1,
            max_lr: 0.5,
        };
        assert_eq!(lin.eta(0.01, 1), 0.01);
        assert!((lin.eta(0.01, 10) - 0.1).abs() < 1e-7);
        assert_eq!(lin.eta(0.01, 1000), 0.5); // clamped
        let sq = LrScaling::Sqrt {
            ref_batch: 4,
            max_lr: 10.0,
        };
        assert!((sq.eta(0.1, 16) - 0.2).abs() < 1e-6);
        assert_eq!(LrScaling::None.eta(0.3, 9999), 0.3);
    }

    #[test]
    fn paper_thresholds_follow_the_lanes() {
        let d = AdaptiveParams::default();
        assert_eq!(
            d,
            AdaptiveParams::paper(hetero_sim::CpuModel::xeon_pair().threads, 8192)
        );
        assert_eq!((d.cpu_min_batch, d.cpu_max_batch), (56, 3584));
        assert_eq!((d.gpu_min_batch, d.gpu_max_batch), (512, 8192));
        assert_eq!((d.alpha, d.beta), (2.0, 1.0));
        for lanes in [1, 2, 56] {
            let p = AdaptiveParams::paper(lanes, 8192);
            assert_eq!((p.cpu_min_batch, p.cpu_max_batch), (lanes, 64 * lanes));
            assert!(p.validate().is_ok());
        }
        // A GPU cap below the floor of 16 is both thresholds.
        let p = AdaptiveParams::paper(2, 8);
        assert_eq!((p.gpu_min_batch, p.gpu_max_batch), (8, 8));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn default_lr_rule_is_sqrt_capped_at_half() {
        assert_eq!(
            TrainConfig::default().lr_scaling,
            LrScaling::Sqrt {
                ref_batch: 1,
                max_lr: 0.5
            }
        );
    }

    #[test]
    fn sizing_caps_the_gpu_at_an_eighth_of_an_epoch() {
        let base = TrainConfig {
            time_budget: 0.4,
            adaptive: AdaptiveParams {
                alpha: 3.0,
                beta: 0.5,
                ..AdaptiveParams::default()
            },
            ..TrainConfig::default()
        };
        let c = base.clone().sized(4096, 2);
        assert_eq!(c.gpu_batch, 512);
        let a = c.adaptive;
        assert_eq!((a.gpu_min_batch, a.gpu_max_batch), (32, 512));
        assert_eq!((a.cpu_min_batch, a.cpu_max_batch), (2, 128));
        assert_eq!((a.alpha, a.beta), (3.0, 0.5));
        assert_eq!(c.eval_interval, 0.02);
        assert!(c.validate().is_ok());
        // A cap below an eighth of the epoch stays.
        let c = TrainConfig {
            gpu_batch: 8,
            ..base
        }
        .sized(100_000, 2);
        assert_eq!(c.gpu_batch, 8);
    }

    #[test]
    fn adaptive_params_validation() {
        assert!(AdaptiveParams::default().validate().is_ok());
        let p = AdaptiveParams {
            alpha: 1.0,
            ..AdaptiveParams::default()
        };
        assert!(p.validate().is_err());
        let p = AdaptiveParams {
            beta: 1.5,
            ..AdaptiveParams::default()
        };
        assert!(p.validate().is_err());
        let p = AdaptiveParams {
            gpu_min_batch: 10_000,
            ..AdaptiveParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn train_config_validation() {
        assert!(TrainConfig::default().validate().is_ok());
        let c = TrainConfig {
            lr: 0.0,
            ..TrainConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TrainConfig {
            time_budget: -1.0,
            ..TrainConfig::default()
        };
        assert!(c.validate().is_err());
        for bad in [f64::NAN, f64::INFINITY] {
            let budget = TrainConfig {
                time_budget: bad,
                ..TrainConfig::default()
            };
            let interval = TrainConfig {
                eval_interval: bad,
                ..TrainConfig::default()
            };
            assert!(budget.validate().is_err(), "budget {bad}");
            assert!(interval.validate().is_err(), "interval {bad}");
        }
        let c = TrainConfig {
            gpu_batch: 0,
            ..TrainConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TrainConfig {
            eval_subsample: 0,
            ..TrainConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(AlgorithmKind::HogbatchCpu.label(), "Hogbatch CPU");
        assert_eq!(AlgorithmKind::AdaptiveHogbatch.label(), "Adaptive Hogbatch");
    }

    #[test]
    fn all_lists_every_variant() {
        // One list feeds an exhaustive match (a new variant does not
        // compile until it is listed) and the comparison with `all()`.
        macro_rules! every {
            ($($v:ident),*) => {{
                let _exhaustive = |a: AlgorithmKind| match a {
                    $(AlgorithmKind::$v)|* => (),
                };
                [$(AlgorithmKind::$v),*]
            }};
        }
        let every = every!(
            HogbatchCpu,
            MiniBatchGpu,
            TensorFlow,
            CpuGpuHogbatch,
            AdaptiveHogbatch
        );
        assert_eq!(every, AlgorithmKind::all());
    }

    #[test]
    fn serde_roundtrip() {
        let c = TrainConfig::default();
        let s = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<TrainConfig>(&s).unwrap(), c);
    }
}
