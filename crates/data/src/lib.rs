//! # hetero-data
//!
//! Datasets and batch scheduling for the hetero-sgd workspace.
//!
//! The paper evaluates on four LIBSVM classification datasets (Table II):
//! `covtype`, `w8a`, `delicious` (983-label multi-label), and `real-sim`
//! (20,958-dimensional). Those exact files are not shipped here, so this
//! crate provides both:
//!
//! - [`libsvm`] — a full LIBSVM-format parser/writer (single- and
//!   multi-label), used verbatim when the real files are available on disk;
//! - [`synth`] — seeded synthetic generators that match a dataset's *shape*
//!   (examples × features × classes, sparsity, class balance, separability),
//!   which is what the paper's convergence comparisons actually exercise;
//! - [`catalog`] — the four paper datasets as named presets carrying their
//!   Table II statistics, per-dataset DNN depth (§VII-A), and a `scale`
//!   knob to generate laptop-sized variants with the same proportions;
//! - [`task`] — the one task every entry point trains: a preset at a scale,
//!   floored at [`task::MIN_ROWS`] rows, and its §VII-A network;
//! - [`batch`] — the coordinator-side batch schedule: contiguous example
//!   ranges handed out per worker request, epoch after epoch.

#![warn(missing_docs)]

pub mod batch;
pub mod catalog;
pub mod dataset;
pub mod libsvm;
pub mod synth;
pub mod task;

pub use batch::BatchScheduler;
pub use catalog::{DatasetStats, PaperDataset};
pub use dataset::{DenseDataset, Labels};
pub use synth::SynthConfig;
pub use task::Task;
