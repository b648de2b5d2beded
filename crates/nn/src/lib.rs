//! # hetero-nn
//!
//! Fully-connected deep neural networks (MLPs) for the hetero-sgd
//! workspace — the model class the paper trains (§III, §VII-A):
//! fully-connected hidden layers with sigmoid activation, a softmax +
//! cross-entropy output for single-label datasets, and a sigmoid +
//! binary-cross-entropy output for the multi-label `delicious` dataset.
//!
//! The crate provides:
//! - [`MlpSpec`] — network shape and loss configuration, with the paper's
//!   per-dataset presets (512 units/hidden layer; 4/6/8 hidden layers).
//! - [`Model`] — the dense parameters (row-major `W[out][in]` plus biases;
//!   layer 0, the one sparse batches touch by input feature, `W[in][out]`),
//!   initialization schemes, flatten/unflatten.
//! - [`mod@forward`]/[`mod@backward`] — batch forward pass, loss, and exact
//!   back-propagated gradients (Eq. 1–3 of the paper).
//! - [`Workspace`] — the same passes over reused buffers, for an
//!   [`Input`] that is a dense matrix or CSR rows (the format matters at
//!   the first layer only; [`mod@sparse_input`] holds that layer's kernels).
//! - [`SharedModel`] — the *global model* of the framework: a flat
//!   `Vec<AtomicU32>` (f32 bits) that CPU workers update Hogwild-style
//!   (racy read–modify–write, relaxed ordering) while GPU workers take deep
//!   snapshots and merge back, exactly the two replica modes of §V.
//!
//! Gradient correctness is enforced by finite-difference checks in the
//! test-suite.

#![warn(missing_docs)]

pub mod activation;
pub mod backward;
pub mod forward;
pub mod init;
pub mod model;
pub mod scan;
pub mod shared;
pub mod sparse_input;
pub mod spec;
pub mod sync;
pub mod workspace;

pub use activation::Activation;
pub use backward::{backward, loss_and_gradient, Gradient};
pub use forward::{accuracy, forward, loss, predict_probs, ForwardPass, Input, Targets};
pub use init::InitScheme;
pub use model::Model;
pub use scan::{scan_model, LayerScan, MergeScan};
pub use shared::SharedModel;
pub use sparse_input::{forward_sparse, loss_and_gradient_sparse};
pub use spec::{LossKind, MlpSpec};
pub use workspace::Workspace;
