//! # hetero-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§VII). One binary per artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_hardware` | Table I — hardware specification |
//! | `table2_datasets` | Table II — dataset statistics |
//! | `fig5_fig6_combined` | Figure 5 — normalized loss vs (virtual) time, and Figure 6 — vs epochs, from one set of runs |
//! | `fig7_utilization` | Figure 7 — CPU/GPU utilization over 3 epochs |
//! | `fig8_update_ratio` | Figure 8 — CPU:GPU model-update distribution |
//! | `ablations` | α/β/threshold/lr-scaling sweeps (§VI design choices) |
//!
//! All binaries print CSV to stdout (plus rendered SVG charts under
//! `results/`) and a human-readable summary to stderr, and honor four
//! environment variables so the fidelity/runtime trade-off is explicit:
//!
//! - `HETERO_SCALE` — dataset scale vs Table II full size (default `0.005`,
//!   floored at ~1000 examples per dataset)
//! - `HETERO_WIDTH` — hidden-layer width (default `192`; the paper uses 512)
//! - `HETERO_BUDGET` — virtual-seconds budget per run (default `0.2`)
//! - `HETERO_DEPTH_FACTOR` — multiplier on the paper's hidden-layer counts
//!   (default `0.5`; `1` = the paper's 6/8/8/4 at much larger budgets)

#![warn(missing_docs)]

pub mod alloc_count;
pub mod plot;

use hetero_core::{
    AdaptiveParams, AlgorithmKind, SimEngine, SimEngineConfig, TrainConfig, TrainResult,
};
use hetero_data::{DenseDataset, PaperDataset};
use hetero_nn::{Activation, LossKind, MlpSpec};
use hetero_sim::CpuModel;

/// Knobs every experiment binary shares.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Dataset scale relative to Table II full size.
    pub scale: f64,
    /// Hidden-layer width (paper: 512).
    pub width: usize,
    /// Virtual-time budget per run, seconds.
    pub budget: f64,
    /// Multiplier on the paper's per-dataset hidden-layer count
    /// (default 0.5: depth 3/4/4/2 instead of 6/8/8/4). Plain SGD needs
    /// far more epochs than the default budget affords to push the paper's
    /// full-depth sigmoid stacks off the uniform-prediction plateau; set
    /// `HETERO_DEPTH_FACTOR=1` together with a larger budget for full
    /// fidelity.
    pub depth_factor: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            scale: env_f64("HETERO_SCALE", 0.005),
            width: env_usize("HETERO_WIDTH", 192),
            budget: env_f64("HETERO_BUDGET", 0.2),
            depth_factor: env_f64("HETERO_DEPTH_FACTOR", 0.5),
            seed: env_usize("HETERO_SEED", 42) as u64,
        }
    }
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Harness {
    /// Generate the scaled stand-in for a paper dataset.
    ///
    /// A floor of ~1000 examples is applied so that the smaller Table II
    /// datasets (delicious: 16k full size) do not collapse to a handful of
    /// rows at small scales — adaptation needs multiple batches per epoch
    /// to act on.
    pub fn dataset(&self, which: PaperDataset) -> DenseDataset {
        let full = which.stats().examples as f64;
        let eff = self.scale.max(1000.0 / full).min(1.0);
        which.generate(eff, self.seed)
    }

    /// The paper's network for a dataset (§VII-A): hidden depth from the
    /// dataset preset, width from the harness (512 in the paper).
    pub fn network(&self, which: PaperDataset, dataset: &DenseDataset) -> MlpSpec {
        let stats = which.stats();
        let depth = ((stats.hidden_layers as f64 * self.depth_factor).round() as usize).max(1);
        MlpSpec {
            input_dim: dataset.features(),
            hidden: vec![self.width; depth],
            classes: dataset.num_classes(),
            activation: Activation::Sigmoid,
            loss: if stats.multilabel {
                LossKind::MultiLabelBce
            } else {
                LossKind::SoftmaxCrossEntropy
            },
        }
    }

    /// The shared training configuration (§VII-A methodology): identical
    /// hyperparameters for every algorithm on the same hardware, the
    /// default lr ∝ √batch, and the paper's thresholds for its 56-thread
    /// host with the GPU batch up to 8192 (clamped by the dataset size at
    /// small scales).
    pub fn train_config(&self, algo: AlgorithmKind, dataset: &DenseDataset) -> TrainConfig {
        let gpu_max = 8192.min(dataset.len().max(64));
        TrainConfig {
            init: hetero_nn::InitScheme::XavierSigmoid,
            algorithm: algo,
            gpu_batch: gpu_max,
            adaptive: AdaptiveParams::paper(CpuModel::xeon_pair().threads, gpu_max),
            time_budget: self.budget,
            eval_interval: self.budget / 24.0,
            seed: self.seed,
            ..TrainConfig::default()
        }
    }

    /// Run one (dataset, algorithm) cell on the paper's hardware models.
    pub fn run(&self, which: PaperDataset, algo: AlgorithmKind) -> TrainResult {
        let dataset = self.dataset(which);
        let spec = self.network(which, &dataset);
        let train = self.train_config(algo, &dataset);
        let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train))
            .expect("valid experiment config");
        engine.run(&dataset)
    }

    /// Run one algorithm against a pre-generated dataset (reuse across
    /// algorithms so every curve starts from the same data and model).
    pub fn run_on(
        &self,
        which: PaperDataset,
        dataset: &DenseDataset,
        algo: AlgorithmKind,
    ) -> TrainResult {
        let spec = self.network(which, dataset);
        let train = self.train_config(algo, dataset);
        let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train))
            .expect("valid experiment config");
        engine.run(dataset)
    }

    /// Like [`Harness::run_on`] but with a trace sink attached: returns the
    /// drained virtual-time event trace alongside the result, so figure
    /// binaries can derive utilization (and anything else) from events
    /// instead of the engine's built-in timelines.
    pub fn run_on_traced(
        &self,
        which: PaperDataset,
        dataset: &DenseDataset,
        algo: AlgorithmKind,
    ) -> (TrainResult, hetero_trace::Trace) {
        let spec = self.network(which, dataset);
        let train = self.train_config(algo, dataset);
        let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train))
            .expect("valid experiment config");
        let sink = hetero_trace::TraceSink::virtual_time(hetero_trace::DEFAULT_RING_CAPACITY);
        let result = engine.run_traced(dataset, &sink);
        (result, sink.drain())
    }
}

/// Normalization basis: the paper normalizes all loss curves to the
/// minimum loss reached by any algorithm on that dataset.
pub fn normalization_basis(results: &[TrainResult]) -> f32 {
    results
        .iter()
        .map(|r| r.min_loss())
        .fold(f32::INFINITY, f32::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_defaults_sane() {
        let h = Harness::default();
        assert!(h.scale > 0.0 && h.scale <= 1.0);
        assert!(h.width >= 8);
        assert!(h.budget > 0.0);
    }

    #[test]
    fn tiny_cell_runs() {
        let h = Harness {
            scale: 0.0005,
            width: 16,
            budget: 0.02,
            depth_factor: 0.5,
            seed: 1,
        };
        let r = h.run(PaperDataset::W8a, AlgorithmKind::MiniBatchGpu);
        assert!(r.final_loss().is_finite());
        assert!(r.total_updates() > 0.0);
    }

    #[test]
    fn network_matches_paper_depths() {
        let mut h = Harness {
            depth_factor: 1.0,
            ..Harness::default()
        };
        let d = h.dataset(PaperDataset::Covtype);
        let s = h.network(PaperDataset::Covtype, &d);
        assert_eq!(s.hidden.len(), 6);
        let d = h.dataset(PaperDataset::RealSim);
        let s = h.network(PaperDataset::RealSim, &d);
        assert_eq!(s.hidden.len(), 4);
        h.depth_factor = 0.5;
        let s = h.network(PaperDataset::RealSim, &d);
        assert_eq!(s.hidden.len(), 2);
    }

    #[test]
    fn traced_cell_yields_virtual_time_events() {
        let h = Harness {
            scale: 0.0005,
            width: 16,
            budget: 0.02,
            depth_factor: 0.5,
            seed: 1,
        };
        let d = h.dataset(PaperDataset::W8a);
        let (r, trace) = h.run_on_traced(PaperDataset::W8a, &d, AlgorithmKind::AdaptiveHogbatch);
        assert!(r.final_loss().is_finite());
        assert!(!trace.is_empty());
        assert_eq!(trace.domain, hetero_trace::TimeDomain::Virtual);
        let workers = hetero_trace::analyze::analyze(&trace).workers;
        assert!(!workers.is_empty());
        assert!(workers.iter().any(|w| w.busy_secs > 0.0));
    }

    #[test]
    fn normalization_picks_global_min() {
        let h = Harness {
            scale: 0.0005,
            width: 16,
            budget: 0.02,
            depth_factor: 0.5,
            seed: 1,
        };
        let d = h.dataset(PaperDataset::W8a);
        let a = h.run_on(PaperDataset::W8a, &d, AlgorithmKind::MiniBatchGpu);
        let b = h.run_on(PaperDataset::W8a, &d, AlgorithmKind::CpuGpuHogbatch);
        let basis = normalization_basis(&[a.clone(), b.clone()]);
        assert!(basis <= a.min_loss() && basis <= b.min_loss());
    }
}
