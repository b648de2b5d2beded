//! # hetero-gpu
//!
//! A software GPU device — the substitute for the paper's V100 + CUDA +
//! cuBLAS stack (see DESIGN.md §2).
//!
//! The point of this crate is to preserve the *code path* of a real GPU
//! worker, not to emulate silicon: model replicas must be deep copies,
//! data must move through explicit host↔device transfers, and device
//! memory is a finite tracked resource that can run out. Those constraints
//! shape the paper's algorithms (§V "GPU Workers", §VI-B), so they are
//! real here. Kernels run synchronously, on the calling worker's thread
//! pool; what a V100 would take is *modelled*, not waited for:
//!
//! - [`alloc::DeviceMemory`] — a tracked allocator over the device's
//!   global-memory capacity; allocation fails with OOM exactly like
//!   `cudaMalloc`.
//! - [`kernels`] — the linear-algebra kernels (GEMM variants, bias,
//!   activations, softmax, SGD update) executed for real on the caller's
//!   rayon pool, which stands in for the streaming multiprocessors.
//! - [`device::GpuDevice`] — the facade combining memory, transfers, and
//!   kernel launch, with **virtual-time accounting** from the calibrated
//!   [`hetero_sim::GpuModel`] so that a simulated V100 takes V100-like
//!   time even though the math runs on host cores.
//! - [`mlp::GpuMlp`] — a device-resident MLP replica supporting upload /
//!   download / train-step, the unit of work a GPU worker executes.

#![warn(missing_docs)]

pub mod alloc;
pub mod device;
pub mod kernels;
pub mod mlp;

pub use alloc::{BufferId, DeviceMemory, OomError};
pub use device::GpuDevice;
pub use mlp::GpuMlp;
