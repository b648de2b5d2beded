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
//! `results/`) and a human-readable summary to stderr (each dataset's
//! [`Task::line`] first), and honor four environment variables so the
//! fidelity/runtime trade-off is explicit:
//!
//! - `HETERO_SCALE` — dataset scale vs Table II full size (default `0.005`,
//!   floored at [`hetero_data::task::MIN_ROWS`] = 4 096 examples)
//! - `HETERO_WIDTH` — hidden-layer width (default `64`, at the paper's
//!   depth; the paper uses 512)
//! - `HETERO_BUDGET` — virtual-seconds budget per run (default `0.2`)
//! - `HETERO_SEED` — data, init and shuffle seed (default `42`)

#![warn(missing_docs)]

pub mod alloc_count;
pub mod plot;

use hetero_core::{AlgorithmKind, RunCtx, SimEngine, SimEngineConfig, TrainConfig, TrainResult};
use hetero_data::{DenseDataset, PaperDataset, Task};
use hetero_sim::CpuModel;
use hetero_trace::{Trace, TraceSink, DEFAULT_RING_CAPACITY};

/// One dataset's cell of the evaluation: its task, its data, and the run
/// knobs every algorithm on it shares.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The dataset at its scale, and the network trained on it.
    pub task: Task,
    /// The task's stand-in, generated once so that every algorithm starts
    /// from the same data and model.
    pub data: DenseDataset,
    /// Virtual-time budget per run, seconds.
    pub budget: f64,
    /// RNG seed.
    pub seed: u64,
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
    /// The cell for `which` at the environment's knobs; exits 2 naming
    /// `HETERO_SCALE` when it is outside (0, 1].
    pub fn new(which: PaperDataset) -> Harness {
        let mut task = Task::new(which, env_f64("HETERO_SCALE", 0.005)).unwrap_or_else(|e| {
            eprintln!("HETERO_SCALE: {e}");
            std::process::exit(2);
        });
        task.width = env_usize("HETERO_WIDTH", task.width);
        Harness::on(
            task,
            env_f64("HETERO_BUDGET", 0.2),
            env_usize("HETERO_SEED", 42) as u64,
        )
    }

    /// The cell for `task`, its data drawn from `seed`.
    pub fn on(task: Task, budget: f64, seed: u64) -> Harness {
        Harness {
            data: task.generate(seed),
            task,
            budget,
            seed,
        }
    }

    /// The shared training configuration (§VII-A methodology): identical
    /// hyperparameters for every algorithm on the same hardware, sized for
    /// this cell's data on the paper's 56-thread host.
    pub fn train_config(&self, algo: AlgorithmKind) -> TrainConfig {
        TrainConfig {
            algorithm: algo,
            time_budget: self.budget,
            seed: self.seed,
            ..TrainConfig::default()
        }
        .sized(self.data.len(), CpuModel::xeon_pair().threads)
    }

    /// The paper's hardware models training this cell's net with `train`.
    pub fn engine_config(&self, train: TrainConfig) -> SimEngineConfig {
        SimEngineConfig::paper_hardware(self.task.net(&self.data), train)
    }

    /// Run `cfg` on this cell's data.
    pub fn run_on(&self, cfg: SimEngineConfig, ctx: &RunCtx) -> TrainResult {
        SimEngine::new(cfg)
            .expect("valid experiment config")
            .run_with(&self.data, ctx)
    }

    /// Run `algo` with the shared configuration.
    pub fn run(&self, algo: AlgorithmKind) -> TrainResult {
        self.run_on(
            self.engine_config(self.train_config(algo)),
            &RunCtx::default(),
        )
    }

    /// [`Harness::run`] with a virtual-time trace sink attached: returns
    /// the drained event trace alongside the result, so figure binaries
    /// can derive utilization (and anything else) from events instead of
    /// the engine's built-in timelines.
    pub fn run_traced(&self, algo: AlgorithmKind) -> (TrainResult, Trace) {
        let sink = TraceSink::virtual_time(DEFAULT_RING_CAPACITY);
        let ctx = RunCtx {
            sink: sink.clone(),
            ..RunCtx::default()
        };
        let result = self.run_on(self.engine_config(self.train_config(algo)), &ctx);
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

    fn tiny(which: PaperDataset) -> Harness {
        let mut task = Task::new(which, 0.0005).unwrap();
        task.width = 16;
        Harness::on(task, 0.02, 1)
    }

    /// The environment's defaults (none of the `HETERO_*` knobs set) make
    /// a sane cell: a positive budget, a usable width, the floored task.
    #[test]
    fn harness_defaults_sane() {
        let h = Harness::new(PaperDataset::W8a);
        assert!(h.budget > 0.0);
        assert!(h.task.width >= 8);
        assert!(h.data.len() >= hetero_data::task::MIN_ROWS);
    }

    #[test]
    fn tiny_cell_runs() {
        let r = tiny(PaperDataset::W8a).run(AlgorithmKind::MiniBatchGpu);
        assert!(r.final_loss().is_finite());
        assert!(r.total_updates() > 0.0);
    }

    #[test]
    fn a_cell_trains_the_paper_depth_on_the_floored_task() {
        for (p, depth) in [(PaperDataset::Covtype, 6), (PaperDataset::RealSim, 4)] {
            let h = tiny(p);
            assert!(h.data.len() >= hetero_data::task::MIN_ROWS);
            let spec = h
                .engine_config(h.train_config(AlgorithmKind::AdaptiveHogbatch))
                .spec;
            assert_eq!(spec.hidden, vec![16; depth]);
        }
    }

    #[test]
    fn traced_cell_yields_virtual_time_events() {
        let (r, trace) = tiny(PaperDataset::W8a).run_traced(AlgorithmKind::AdaptiveHogbatch);
        assert!(r.final_loss().is_finite());
        assert!(!trace.is_empty());
        assert_eq!(trace.domain, hetero_trace::TimeDomain::Virtual);
        let workers = hetero_trace::analyze::analyze(&trace).workers;
        assert!(!workers.is_empty());
        assert!(workers.iter().any(|w| w.busy_secs > 0.0));
    }

    #[test]
    fn normalization_picks_global_min() {
        let h = tiny(PaperDataset::W8a);
        let a = h.run(AlgorithmKind::MiniBatchGpu);
        let b = h.run(AlgorithmKind::CpuGpuHogbatch);
        let basis = normalization_basis(&[a.clone(), b.clone()]);
        assert!(basis <= a.min_loss() && basis <= b.min_loss());
    }
}
