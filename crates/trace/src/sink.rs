//! The [`TraceSink`]: the single entry point both engines instrument
//! against.
//!
//! A sink is either *disabled* — a `None` inside, so every call is a branch
//! on an `Option` and nothing else — or *enabled*, holding shared state
//! behind an `Arc`. Enabled sinks give each emitting thread its own
//! bounded [`Ring`](crate::ring::Ring) (registered lazily through
//! a thread-local), so the per-event cost is an uncontended mutex lock and
//! a `VecDeque` push; threads never contend with each other, only with the
//! end-of-run drain.
//!
//! # Time domains
//!
//! The threaded engine stamps events with **wall** seconds since the sink
//! was created. The simulation engine runs on a virtual clock, so its
//! coordinator publishes the current virtual time with
//! [`TraceSink::set_virtual_now`] before emitting; both engines otherwise
//! share the identical emit API.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::counters::{CounterHandle, GaugeHandle, HistHandle, Metric, Registry};
use crate::event::{Event, EventKind};
use crate::histogram::Summary;
use crate::ring::Ring;

/// Which clock event timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeDomain {
    /// Wall-clock seconds since the sink was created (threaded engine).
    Wall,
    /// Virtual simulation seconds (discrete-event engine).
    Virtual,
}

impl TimeDomain {
    /// Lowercase label used by exporters.
    pub fn label(&self) -> &'static str {
        match self {
            TimeDomain::Wall => "wall",
            TimeDomain::Virtual => "virtual",
        }
    }
}

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (sink id, shard) pairs this thread has registered. Weak so a
    /// dropped sink's shards are freed and pruned on the next lookup.
    static LOCAL_SHARDS: RefCell<Vec<(u64, Weak<Shard>)>> =
        const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
struct Shard {
    label: String,
    ring: Mutex<Ring<Event>>,
}

#[derive(Debug)]
struct SinkInner {
    id: u64,
    domain: TimeDomain,
    start: Instant,
    /// Current virtual time, as `f64` bits ([`TimeDomain::Virtual`] only).
    virtual_now: AtomicU64,
    ring_capacity: usize,
    shards: Mutex<Vec<Arc<Shard>>>,
    registry: Registry,
}

impl SinkInner {
    fn now(&self) -> f64 {
        match self.domain {
            TimeDomain::Wall => self.start.elapsed().as_secs_f64(),
            // Relaxed: the clock is advanced by one publisher and read
            // racily by instrumentation; no other memory depends on it.
            TimeDomain::Virtual => f64::from_bits(self.virtual_now.load(Ordering::Relaxed)),
        }
    }

    fn shard_for_this_thread(self: &Arc<Self>) -> Arc<Shard> {
        LOCAL_SHARDS.with(|local| {
            let mut local = local.borrow_mut();
            local.retain(|(_, weak)| weak.strong_count() > 0);
            if let Some((_, weak)) = local.iter().find(|(id, _)| *id == self.id) {
                if let Some(shard) = weak.upgrade() {
                    return shard;
                }
            }
            let mut shards = self.shards.lock();
            let label = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{}", shards.len()));
            let shard = Arc::new(Shard {
                label,
                ring: Mutex::new(Ring::new(self.ring_capacity)),
            });
            shards.push(Arc::clone(&shard));
            drop(shards);
            local.push((self.id, Arc::downgrade(&shard)));
            shard
        })
    }
}

/// Everything one thread's ring held at drain time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardDump {
    /// Name of the thread that owned the ring.
    pub label: String,
    /// Buffered events in emit order.
    pub events: Vec<Event>,
    /// Events this ring evicted over its lifetime.
    pub dropped: u64,
}

/// A drained trace: per-thread event dumps plus a counter snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Clock the timestamps belong to.
    pub domain: TimeDomain,
    /// One dump per emitting thread.
    pub shards: Vec<ShardDump>,
    /// Counter/gauge values at drain time, sorted by name.
    pub counters: Vec<(String, f64)>,
}

impl Trace {
    /// All events, flattened and stably sorted by timestamp (ties keep
    /// shard registration order, so per-thread order is preserved).
    pub fn events_sorted(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self
            .shards
            .iter()
            .flat_map(|s| s.events.iter().cloned())
            .collect();
        all.sort_by(|a, b| a.t.total_cmp(&b.t));
        all
    }

    /// Total events across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.events.len()).sum()
    }

    /// Whether no events were captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events evicted across all shards.
    pub fn total_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }
}

/// Cloneable handle to a trace buffer, or a no-op when disabled.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl TraceSink {
    /// A sink that ignores everything; `emit` is a branch and a return.
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// An enabled sink stamping wall seconds since this call.
    pub fn wall(ring_capacity: usize) -> Self {
        Self::enabled_with(TimeDomain::Wall, ring_capacity)
    }

    /// An enabled sink stamping virtual seconds; the simulation must call
    /// [`TraceSink::set_virtual_now`] as its clock advances.
    pub fn virtual_time(ring_capacity: usize) -> Self {
        Self::enabled_with(TimeDomain::Virtual, ring_capacity)
    }

    fn enabled_with(domain: TimeDomain, ring_capacity: usize) -> Self {
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                // Relaxed: unique-id allocation needs atomicity only.
                id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
                domain,
                start: Instant::now(),
                virtual_now: AtomicU64::new(0f64.to_bits()),
                ring_capacity,
                shards: Mutex::new(Vec::new()),
                registry: Registry::new(),
            })),
        }
    }

    /// Whether events are being captured. Instrumentation can guard any
    /// payload construction it wants to avoid on the disabled path.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Seconds on this sink's clock (0.0 when disabled).
    pub fn now(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| i.now())
    }

    /// Publish the simulation's current virtual time.
    pub fn set_virtual_now(&self, t: f64) {
        if let Some(inner) = &self.inner {
            // Relaxed: see `SinkInner::now` — racy clock reads are fine.
            inner.virtual_now.store(t.to_bits(), Ordering::Relaxed);
        }
    }

    /// Record `kind` for `worker`, stamped with the current time.
    // audit: no_alloc,no_panic
    #[inline]
    pub fn emit(&self, worker: u32, kind: EventKind) {
        if let Some(inner) = &self.inner {
            self.emit_at(inner.now(), worker, kind);
        }
    }

    /// Record `kind` for `worker` at an explicit timestamp on this sink's
    /// clock (an event that completed at another instant than "now").
    // audit: no_alloc,no_panic
    #[inline]
    pub fn emit_at(&self, t: f64, worker: u32, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        inner
            .shard_for_this_thread()
            .ring
            .lock()
            .push(Event { t, worker, kind });
    }

    /// Handle to a named monotonic counter (no-op when disabled).
    pub fn counter(&self, name: &str) -> CounterHandle {
        self.inner
            .as_ref()
            .map_or_else(CounterHandle::disabled, |i| i.registry.counter(name))
    }

    /// Handle to a named gauge (no-op when disabled).
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        self.inner
            .as_ref()
            .map_or_else(GaugeHandle::disabled, |i| i.registry.gauge(name))
    }

    /// Handle to the histogram for `metric` on `worker` (no-op when
    /// disabled). Resolve once per worker outside the hot loop; recording
    /// through the handle is lock-free and allocation-free.
    pub fn histogram(&self, metric: Metric, worker: u32) -> HistHandle {
        self.inner.as_ref().map_or_else(HistHandle::disabled, |i| {
            i.registry.histogram(metric, worker)
        })
    }

    /// Every worker's series for `metric`, merged into one summary; `None`
    /// when disabled or when nothing was recorded.
    pub fn summary(&self, metric: Metric) -> Option<Summary> {
        self.inner.as_ref()?.registry.summary(metric)
    }

    /// Take every buffered event out of every thread's ring, together with
    /// per-ring dropped counts and a counter snapshot. Rings stay
    /// registered, so tracing can continue after a drain.
    pub fn drain(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace {
                domain: TimeDomain::Wall,
                shards: Vec::new(),
                counters: Vec::new(),
            };
        };
        let shards = inner.shards.lock();
        let dumps = shards
            .iter()
            .map(|shard| {
                let mut ring = shard.ring.lock();
                ShardDump {
                    label: shard.label.clone(),
                    events: ring.drain(),
                    dropped: ring.dropped(),
                }
            })
            .collect();
        Trace {
            domain: inner.domain,
            shards: dumps,
            counters: inner.registry.snapshot(),
        }
    }

    /// Copy every buffered event out of every thread's ring *without*
    /// removing anything — the flight recorder uses this to embed the
    /// retained window in a postmortem bundle while the run's owner still
    /// gets the full trace from its own [`TraceSink::drain`] later.
    pub fn capture(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace {
                domain: TimeDomain::Wall,
                shards: Vec::new(),
                counters: Vec::new(),
            };
        };
        let shards = inner.shards.lock();
        let dumps = shards
            .iter()
            .map(|shard| {
                let ring = shard.ring.lock();
                ShardDump {
                    label: shard.label.clone(),
                    events: ring.peek(),
                    dropped: ring.dropped(),
                }
            })
            .collect();
        Trace {
            domain: inner.domain,
            shards: dumps,
            counters: inner.registry.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        assert!(!sink.enabled());
        sink.emit(0, EventKind::QueuePushed { depth: 1, id: None });
        sink.counter("x").add(5);
        let h = sink.histogram(Metric::Staleness, 0);
        assert!(h.is_disabled());
        h.record(3);
        assert!(sink.summary(Metric::Staleness).is_none());
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn wall_sink_captures_and_drains() {
        let sink = TraceSink::wall(128);
        sink.emit(0, EventKind::BatchDispatched { id: 7, batch: 32 });
        sink.emit(
            0,
            EventKind::BatchCompleted {
                id: 7,
                batch: 32,
                updates: 4,
                phases: crate::event::BatchPhases::default(),
            },
        );
        let trace = sink.drain();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.domain, TimeDomain::Wall);
        let evs = trace.events_sorted();
        assert!(evs[0].t <= evs[1].t);
        // Drain emptied the rings but tracing continues.
        sink.emit(1, EventKind::EvalPoint { loss: 0.5 });
        assert_eq!(sink.drain().len(), 1);
    }

    #[test]
    fn virtual_sink_uses_published_time() {
        let sink = TraceSink::virtual_time(16);
        sink.set_virtual_now(12.5);
        sink.emit(2, EventKind::EvalPoint { loss: 1.0 });
        sink.emit_at(99.0, 2, EventKind::EvalPoint { loss: 0.9 });
        let trace = sink.drain();
        let evs = trace.events_sorted();
        assert_eq!(evs[0].t, 12.5);
        assert_eq!(evs[1].t, 99.0);
        assert_eq!(trace.domain, TimeDomain::Virtual);
    }

    #[test]
    fn each_thread_gets_its_own_shard() {
        let sink = TraceSink::wall(1024);
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let sink = sink.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("emitter-{w}"))
                    .spawn(move || {
                        for i in 0..100 {
                            sink.emit(w, EventKind::QueuePushed { depth: i, id: None });
                        }
                    })
                    .unwrap(),
            );
        }
        for h in handles {
            h.join().unwrap();
        }
        let trace = sink.drain();
        assert_eq!(trace.shards.len(), 4);
        assert_eq!(trace.len(), 400);
        for shard in &trace.shards {
            assert!(shard.label.starts_with("emitter-"));
            // Per-shard (= per-thread) emit order is intact.
            let depths: Vec<usize> = shard
                .events
                .iter()
                .map(|e| match e.kind {
                    EventKind::QueuePushed { depth, .. } => depth,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(depths, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn histograms_stay_out_of_the_drained_trace() {
        let sink = TraceSink::wall(16);
        sink.histogram(Metric::BatchLatency, 0).record(1_000);
        sink.histogram(Metric::BatchLatency, 1).record(3_000);
        let trace = sink.drain();
        assert!(trace.counters.is_empty() && trace.is_empty());
        // Draining leaves the series in place.
        let s = sink.summary(Metric::BatchLatency).unwrap();
        assert_eq!((s.count, s.max), (2, 3_000.0));
    }

    #[test]
    fn counters_flow_into_drained_trace() {
        let sink = TraceSink::wall(16);
        sink.counter("mq.pushes").add(7);
        sink.gauge("mq.depth_hwm").fetch_max(3.0);
        let trace = sink.drain();
        assert_eq!(
            trace.counters,
            vec![
                ("mq.depth_hwm".to_string(), 3.0),
                ("mq.pushes".to_string(), 7.0),
            ]
        );
    }
}
