//! # hetero-core
//!
//! The paper's primary contribution: a deep-learning training framework for
//! heterogeneous CPU+GPU architectures, and the two adaptive asynchronous
//! SGD algorithms built on it (CPU+GPU Hogbatch and Adaptive Hogbatch).
//!
//! ## Architecture (paper §V)
//!
//! A *coordinator* owns the global model, the training data, and the batch
//! schedule. One *worker* per device (CPU socket / GPU) repeatedly asks for
//! work (`ScheduleWork`), receives a batch (`ExecuteWork`), computes a
//! gradient, and applies it to the global model asynchronously. CPU workers
//! access the model by reference and update it Hogwild-style; GPU workers
//! train a deep-copy replica on the device and merge the delta back.
//!
//! ## Algorithms (paper §VI)
//!
//! | [`AlgorithmKind`] | description |
//! |---|---|
//! | `HogbatchCpu` | Hogbatch CPU — `cpu_batch_per_thread` examples/thread; 1 is pure Hogwild |
//! | `MiniBatchGpu` | Hogbatch GPU — large-batch mini-batch SGD |
//! | `TensorFlow` | comparator: synchronous mini-batch with op-granularity dispatch overhead (its slower delicious run, blamed on TensorFlow's implementation, is not reproduced) |
//! | `CpuGpuHogbatch` | static small CPU batches + static large GPU batches, one shared model |
//! | `AdaptiveHogbatch` | Algorithm 2: batch sizes doubled/halved at runtime to bound the update-count gap |
//!
//! ## Engines
//!
//! - [`engine_sim::SimEngine`] — deterministic discrete-event execution on
//!   calibrated V100/Xeon device models (regenerates the paper's figures).
//! - [`engine_threads::ThreadedEngine`] — real OS threads, the custom
//!   message queue, a [`hetero_nn::SharedModel`] updated Hogwild-style and
//!   a software-GPU worker; wall-clock time.
//!
//! Every run of either is one run skeleton around one coordinator event
//! loop: the skeleton sets the run up (worker slots, resume, start-up,
//! the eval batch an engine gathers on its clock) and scores and closes
//! it; the loop dispatches, credits, re-queues, applies the health policy
//! and checkpoints. No step or eval spawns a thread: a worker computes
//! its batch on its own thread, the simulator all of them on one. An
//! engine brings only its workers, its clock, how it scores the model and
//! its checkpoint's tail. Each has one entry point, `run_with(dataset,
//! &RunCtx)`, plus `run(dataset)` for the default [`RunCtx`] (everything
//! off), and both produce a [`metrics::TrainResult`].

#![warn(missing_docs)]

pub mod adaptive;
pub mod config;
mod coordinator;
pub mod engine_sim;
pub mod engine_threads;
pub mod fault;
mod lane;
pub mod metrics;

pub use adaptive::AdaptiveController;
pub use config::{AdaptiveParams, AlgorithmKind, LrScaling, TrainConfig};
pub use coordinator::RunCtx;
pub use engine_sim::{SimEngine, SimEngineConfig};
pub use engine_threads::{ThreadedEngine, ThreadedEngineConfig};
pub use fault::{FaultKind, FaultPlan, WorkerError};
pub use metrics::{LossPoint, TimelineSummary, TrainResult, WorkerKind, WorkerStats};
