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
//! gradient, run by the engine on the worker's own thread pool.
//!
//! - [`alloc::DeviceMemory`] — a byte ledger over the device's global
//!   memory; a reservation beyond capacity fails with OOM exactly like
//!   `cudaMalloc`, and fault injection can force one to.
//! - [`device::GpuDevice`] — the ledger plus transfer and step accounting:
//!   bytes, modelled seconds from the calibrated [`hetero_sim::GpuModel`],
//!   `H2d`/`D2h` histograms, and trace events tagged with the batch's
//!   lineage id.
//! - [`footprint::Footprint`] — the one rule for the bytes a step of a
//!   network holds and moves, which both engines charge.
//! - [`mlp::GpuMlp`] — a replica on the ledger, kept only for the frozen
//!   benchmark.

#![warn(missing_docs)]

pub mod alloc;
pub mod device;
pub mod footprint;
pub mod mlp;

pub use alloc::{BufferId, DeviceMemory, OomError};
pub use device::GpuDevice;
pub use footprint::Footprint;
pub use mlp::GpuMlp;
