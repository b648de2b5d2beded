//! # hetero-mq
//!
//! The custom asynchronous message queues used by the heterogeneous CPU+GPU
//! training framework.
//!
//! The paper implements its coordinator↔worker communication with "our
//! custom asynchronous message queue" on top of pthreads. This crate is that
//! substrate, built from scratch in two layers:
//!
//! - [`queue::MpscQueue`] — a lock-free intrusive multi-producer /
//!   single-consumer queue (Vyukov-style). Producers enqueue with a single
//!   atomic swap; the unique consumer dequeues without any atomic RMW in the
//!   common case. Because only the consumer ever pops, popped nodes can be
//!   freed immediately — no epoch/hazard-pointer reclamation needed.
//! - [`mod@channel`] — a blocking unbounded MPSC channel (`Sender`/`Receiver`)
//!   layered on the lock-free queue plus a mutex+condvar wakeup, with
//!   disconnect detection, `try_recv`, and `recv_timeout`. This is what the
//!   coordinator and workers actually exchange control messages over.
//!
//! The memory-ordering discipline follows the release/acquire patterns from
//! *Rust Atomics and Locks*: a producer publishes a node with `Release`
//! (on the swap and the `next` store) and the consumer observes it with
//! `Acquire`, establishing the happens-before edge that makes the payload
//! visible.
//!
//! Those claims are model-checked: building with `--features loom` swaps
//! every primitive (via [`mod@sync`]) for the vendored loom checker, and the
//! suites in `tests/loom_*.rs` exhaustively explore the interleavings of
//! push/pop, the close/disconnect protocol, and the sleep/wake handshake.
//! See DESIGN.md §4e.

#![warn(missing_docs)]

pub mod channel;
pub mod queue;
pub mod sync;

pub use channel::{
    channel, channel_traced, channel_traced_lineage, Receiver, RecvError, RecvTimeoutError,
    SendError, Sender, TryRecvError,
};
pub use queue::MpscQueue;
