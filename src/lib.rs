//! # hetero-sgd
//!
//! A Rust reproduction of *"Adaptive Stochastic Gradient Descent for Deep
//! Learning on Heterogeneous CPU+GPU Architectures"* (Ma, Rusu, Wu, Sim —
//! 2021): a coordinator/worker training framework that runs asynchronous
//! Hogwild-style SGD on the CPU **concurrently** with large-batch
//! mini-batch SGD on the GPU, against one shared model, with batch sizes
//! that adapt at runtime to balance the update distribution.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `hetero-tensor` | dense matrices, blocked/parallel GEMM |
//! | [`mq`] | `hetero-mq` | lock-free MPSC queue, blocking channel |
//! | [`nn`] | `hetero-nn` | MLP forward/backward, losses, shared Hogwild model |
//! | [`data`] | `hetero-data` | LIBSVM parser, synthetic paper datasets, batch schedule |
//! | [`sim`] | `hetero-sim` | virtual clock, V100/Xeon performance models |
//! | [`gpu`] | `hetero-gpu` | software GPU: allocator, modelled transfers, kernels |
//! | [`core`] | `hetero-core` | coordinator/workers, Hogbatch algorithms, engines |
//! | [`trace`] | `hetero-trace` | event tracing, counters, Chrome-trace export |
//! | [`metrics`] | `hetero-metrics` | log-bucketed histograms, per-worker metrics hub |
//! | [`flight`] | `hetero-flight` | black-box recorder, health watchdog, postmortems |
//! | [`ckpt`] | `hetero-ckpt` | crash-consistent checkpoint/restore |
//!
//! ## Quickstart
//!
//! ```
//! use hetero_sgd::prelude::*;
//!
//! // A small two-class dataset with the paper's covtype-like shape.
//! let dataset = PaperDataset::Covtype.generate(0.0002, 42);
//! let spec = MlpSpec {
//!     input_dim: dataset.features(),
//!     hidden: vec![32, 32],
//!     classes: 2,
//!     activation: Activation::Sigmoid,
//!     loss: LossKind::SoftmaxCrossEntropy,
//! };
//! let mut train = TrainConfig::default();
//! train.algorithm = AlgorithmKind::AdaptiveHogbatch;
//! train.time_budget = 0.01; // virtual seconds
//! let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train)).unwrap();
//! let result = engine.run(&dataset);
//! assert!(result.final_loss().is_finite());
//! ```

pub use hetero_ckpt as ckpt;
pub use hetero_core as core;
pub use hetero_data as data;
pub use hetero_flight as flight;
pub use hetero_gpu as gpu;
pub use hetero_metrics as metrics;
pub use hetero_mq as mq;
pub use hetero_nn as nn;
pub use hetero_sim as sim;
pub use hetero_tensor as tensor;
pub use hetero_trace as trace;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use hetero_ckpt::{Checkpointer, CkptConfig, CkptStore};
    pub use hetero_core::{
        AdaptiveController, AdaptiveParams, AlgorithmKind, FaultKind, FaultPlan, LossPoint,
        LrScaling, RunCtx, SimEngine, SimEngineConfig, ThreadedEngine, ThreadedEngineConfig,
        TrainConfig, TrainResult, WorkerError, WorkerKind,
    };
    pub use hetero_data::{BatchScheduler, DenseDataset, Labels, PaperDataset, SynthConfig};
    pub use hetero_flight::{FlightConfig, FlightRecorder};
    pub use hetero_metrics::{Metric, MetricsHub, Summary};
    pub use hetero_nn::{Activation, InitScheme, LossKind, MlpSpec, Model, SharedModel, Targets};
    pub use hetero_sim::{CpuModel, DeviceModel, GpuModel};
    pub use hetero_tensor::Matrix;
}
