//! Atomic-primitive facade for the shared (Hogwild) model storage.
//!
//! [`crate::shared`] imports its atomics from here instead of
//! `std::sync::atomic`. Normal builds re-export the std types unchanged;
//! `--features loom` swaps in the vendored loom model checker so the racy,
//! CAS and stripe-owned update paths of [`crate::SharedModel`] can be
//! exhaustively interleaved (`crates/nn/tests/loom_shared.rs`, DESIGN.md
//! §4e). [`yield_now`] is what a merger waits with: under loom it hands the
//! model's schedule to the stripe's owner, where a bare spin would livelock.

#[cfg(feature = "loom")]
pub use loom::{
    sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering},
    thread::yield_now,
};

#[cfg(not(feature = "loom"))]
pub use std::{
    sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering},
    thread::yield_now,
};
