//! `hetero-trace`: structured event tracing, live counters and
//! histograms, and Chrome trace export for the heterogeneous CPU+GPU
//! training stack.
//!
//! The coordinator, workers, message queues, and the software GPU all
//! instrument against one object — the [`TraceSink`] — which is either
//! disabled (every call reduces to an `Option` branch, verified by the
//! `trace` benchmark) or enabled, buffering typed [`Event`]s into
//! per-thread bounded drop-oldest rings and aggregating per-worker
//! [`LogHistogram`]s (lock-free, allocation-free on record, ≤1% quantile
//! error) whose cross-worker [`Summary`] feeds `TrainResult::staleness`
//! and the flight recorder's postmortems.
//!
//! Both engines share the same API but different clocks: the threaded
//! engine stamps wall seconds, the discrete-event simulator publishes its
//! virtual clock via [`TraceSink::set_virtual_now`]. Exporters label the
//! domain so a Perfetto view of a simulated run is never mistaken for a
//! wall-clock one.
//!
//! ```
//! use hetero_trace::{BatchPhases, EventKind, Metric, TraceSink};
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
//! sink.histogram(Metric::BatchLatency, 0).record_secs(0.0015); // as ns
//! assert_eq!(sink.summary(Metric::BatchLatency).unwrap().count, 1);
//! let trace = sink.drain();
//! assert_eq!(trace.len(), 2);
//! let chrome_json = hetero_trace::export::to_chrome_json(&trace);
//! assert!(chrome_json.contains("traceEvents"));
//! ```

#![warn(missing_docs)]

mod counters;
mod event;
mod histogram;
mod ring;
mod sink;

pub mod analyze;
pub mod export;

pub use counters::{CounterHandle, GaugeHandle, HistHandle, Metric, Registry, GLOBAL_WORKER};
pub use event::{BatchId, BatchPhases, Event, EventKind, ResizeReason, COORDINATOR};
pub use histogram::{bucket_index, HistogramSnapshot, LogHistogram, Summary, SUB_BITS};
pub use ring::Ring;
pub use sink::{ShardDump, TimeDomain, Trace, TraceSink, DEFAULT_RING_CAPACITY};
