//! `hetero-trace`: structured event tracing, live counters, and Chrome
//! trace export for the heterogeneous CPU+GPU training stack.
//!
//! The coordinator, workers, message queues, and the software GPU all
//! instrument against one object — the [`TraceSink`] — which is either
//! disabled (every call reduces to an `Option` branch, verified by the
//! `trace` benchmark) or enabled, buffering typed [`Event`]s into
//! per-thread bounded drop-oldest rings.
//!
//! Both engines share the same API but different clocks: the threaded
//! engine stamps wall seconds, the discrete-event simulator publishes its
//! virtual clock via [`TraceSink::set_virtual_now`]. Exporters label the
//! domain so a Perfetto view of a simulated run is never mistaken for a
//! wall-clock one.
//!
//! ```
//! use hetero_trace::{BatchPhases, EventKind, TraceSink};
//!
//! let sink = TraceSink::wall(1024);
//! sink.emit(0, EventKind::BatchDispatched { id: 0, batch: 64 });
//! sink.emit(
//!     0,
//!     EventKind::BatchCompleted {
//!         id: 0,
//!         batch: 64,
//!         updates: 8,
//!         phases: BatchPhases::default(),
//!     },
//! );
//! sink.counter("mq.pushes").add(1);
//! let trace = sink.drain();
//! assert_eq!(trace.len(), 2);
//! let chrome_json = hetero_trace::export::to_chrome_json(&trace);
//! assert!(chrome_json.contains("traceEvents"));
//! ```

#![warn(missing_docs)]

mod counters;
mod event;
mod ring;
mod sink;

pub mod analyze;
pub mod export;
pub mod utilization;

pub use counters::{CounterHandle, GaugeHandle, Registry};
pub use event::{BatchId, BatchPhases, Event, EventKind, ResizeReason, COORDINATOR};
pub use ring::Ring;
pub use sink::{ShardDump, TimeDomain, Trace, TraceSink, DEFAULT_RING_CAPACITY};
