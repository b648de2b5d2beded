//! # hetero-gpu
//!
//! A software GPU device — the substitute for the paper's V100 + CUDA +
//! cuBLAS stack (see DESIGN.md §2).
//!
//! The paper's GPU worker matters for what it *models*, not for whose
//! kernels run (§V "GPU Workers", §VI-B): it keeps a deep-copy replica,
//! pays an explicit transfer for everything that crosses the link, and has
//! a finite memory that bounds its batch and can run out. This crate keeps
//! exactly those constraints; the worker's step itself is the host's
//! gradient, run by the engine on the worker's own thread.
//!
//! - [`alloc::DeviceMemory`] — a byte ledger over the device's global
//!   memory; a reservation beyond capacity fails with OOM exactly like
//!   `cudaMalloc`, and fault injection can force one to.
//! - [`footprint::Footprint`] — the one rule for the bytes a step of a
//!   network holds and moves, which both engines charge.
//! - [`footprint::Link`] — a worker's link: every GPU step, on both
//!   engines, is one H2D (batch + snapshot) and one D2H (delta) sample in
//!   its `H2d`/`D2h` histograms at the modelled seconds of the calibrated
//!   [`hetero_sim::GpuModel`], and on a traced run one event each way
//!   tagged with the batch's lineage id, stamped where that transfer
//!   completed: the upload before the step's gradient, the download after.
//! - [`device::GpuDevice`] and [`mlp::GpuMlp`] — a ledger plus a model,
//!   and a replica on it, pinned only for the frozen benchmark.

#![warn(missing_docs)]

pub mod alloc;
pub mod device;
pub mod footprint;
pub mod mlp;

pub use alloc::{BufferId, DeviceMemory, OomError};
pub use device::GpuDevice;
pub use footprint::{Charge, Footprint, Link};
pub use mlp::GpuMlp;
