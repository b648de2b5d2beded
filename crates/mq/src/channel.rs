//! Blocking unbounded MPSC channel layered on the lock-free queue.
//!
//! This is the control-message transport between the paper's coordinator and
//! workers. It combines [`crate::MpscQueue`] (hot path: lock-free push) with
//! a `parking_lot` mutex + condvar used **only** for sleeping when the queue
//! is empty — the classic "eventcount-lite" pattern from *Rust Atomics and
//! Locks*: producers take the lock only to wake a parked consumer.

use std::time::Duration;

use hetero_trace::{CounterHandle, EventKind, GaugeHandle, TraceSink};

use crate::queue::MpscQueue;
use crate::sync::{Arc, AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> SendError<T> {
    /// Recover the message that could not be delivered, so the caller can
    /// re-queue it elsewhere (the coordinator does this when a worker dies
    /// with a batch in flight).
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "send on a channel with no receiver")
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`] when every sender is gone and the
/// queue is drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "recv on an empty channel with no senders")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel currently empty (senders still alive).
    Empty,
    /// Channel empty and all senders dropped.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Deadline elapsed with no message.
    Timeout,
    /// Channel empty and all senders dropped.
    Disconnected,
}

/// Pre-resolved tracing state for one channel. Handles are resolved at
/// construction so the hot path touches only atomics; with a disabled sink
/// every call reduces to an `Option` branch.
struct ChannelTrace {
    sink: TraceSink,
    /// Worker/queue id stamped on emitted events for attribution.
    id: u32,
    pushes: CounterHandle,
    pops: CounterHandle,
    depth_hwm: GaugeHandle,
}

impl ChannelTrace {
    fn disabled() -> Self {
        ChannelTrace {
            sink: TraceSink::disabled(),
            id: 0,
            pushes: CounterHandle::disabled(),
            pops: CounterHandle::disabled(),
            depth_hwm: GaugeHandle::disabled(),
        }
    }

    fn new(sink: &TraceSink, name: &str, id: u32) -> Self {
        ChannelTrace {
            sink: sink.clone(),
            id,
            pushes: sink.counter(&format!("mq.{name}.pushes")),
            pops: sink.counter(&format!("mq.{name}.pops")),
            depth_hwm: sink.gauge(&format!("mq.{name}.depth_hwm")),
        }
    }
}

struct Shared<T> {
    queue: MpscQueue<T>,
    senders: AtomicUsize,
    receiver_alive: AtomicBool,
    /// Guards nothing but the sleep/wake protocol.
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    trace: ChannelTrace,
    /// Extracts a batch lineage id from a message so queue events can be
    /// joined against the batch lifecycle (`None` = untagged channel).
    lineage: Option<fn(&T) -> Option<u64>>,
}

/// Sending half; cheap to clone (one per worker thread).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half; exactly one exists per channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create an unbounded MPSC channel.
pub fn channel<T: Send>() -> (Sender<T>, Receiver<T>) {
    channel_with_trace(ChannelTrace::disabled(), None)
}

/// Create an unbounded MPSC channel whose pushes and pops are observable
/// through `sink`.
///
/// Every successful send emits [`EventKind::QueuePushed`] and every
/// successful receive emits [`EventKind::QueuePopped`], each carrying the
/// post-operation approximate depth; the channel also maintains
/// `mq.<name>.pushes` / `mq.<name>.pops` counters and an
/// `mq.<name>.depth_hwm` high-water-mark gauge. Events are stamped with
/// `id` as the worker field. With a disabled sink this is exactly
/// [`channel`].
pub fn channel_traced<T: Send>(sink: &TraceSink, name: &str, id: u32) -> (Sender<T>, Receiver<T>) {
    let trace = if sink.enabled() {
        ChannelTrace::new(sink, name, id)
    } else {
        ChannelTrace::disabled()
    };
    channel_with_trace(trace, None)
}

/// [`channel_traced`], plus a lineage extractor: when a queued message
/// wraps a batch, `lineage` returns its [`hetero_trace::BatchId`] and the
/// emitted [`EventKind::QueuePushed`]/[`EventKind::QueuePopped`] events
/// carry it, so trace analysis can attribute queue wait to individual
/// batches instead of only to the channel as a whole.
pub fn channel_traced_lineage<T: Send>(
    sink: &TraceSink,
    name: &str,
    id: u32,
    lineage: fn(&T) -> Option<u64>,
) -> (Sender<T>, Receiver<T>) {
    let trace = if sink.enabled() {
        ChannelTrace::new(sink, name, id)
    } else {
        ChannelTrace::disabled()
    };
    channel_with_trace(trace, Some(lineage))
}

fn channel_with_trace<T: Send>(
    trace: ChannelTrace,
    lineage: Option<fn(&T) -> Option<u64>>,
) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: MpscQueue::new(),
        senders: AtomicUsize::new(1),
        receiver_alive: AtomicBool::new(true),
        sleep_lock: Mutex::new(()),
        wakeup: Condvar::new(),
        trace,
        lineage,
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T: Send> Sender<T> {
    /// Enqueue a message, waking the receiver if it is parked.
    // audit: no_panic
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        // Acquire: pairs with the receiver-drop Release store so a sender
        // that observes the flag also observes everything the receiver did
        // before dropping.
        if !self.shared.receiver_alive.load(Ordering::Acquire) {
            return Err(SendError(value));
        }
        let lineage_id = if self.shared.trace.sink.enabled() {
            self.shared.lineage.and_then(|f| f(&value))
        } else {
            None
        };
        self.shared.queue.push(value);
        if self.shared.trace.sink.enabled() {
            let depth = self.shared.queue.len();
            self.shared.trace.sink.emit(
                self.shared.trace.id,
                EventKind::QueuePushed {
                    depth,
                    id: lineage_id,
                },
            );
            self.shared.trace.pushes.add(1);
            self.shared.trace.depth_hwm.fetch_max(depth as f64);
        }
        // Wake a parked receiver. Taking the lock orders this notify after
        // the receiver's "queue is empty" check, closing the lost-wakeup race.
        let _guard = self.shared.sleep_lock.lock();
        self.shared.wakeup.notify_one();
        Ok(())
    }

    /// Whether the receiving half has been dropped. A `true` here means
    /// every future [`Sender::send`] will fail — supervision code can use
    /// this to detect a dead peer without consuming a message.
    pub fn is_disconnected(&self) -> bool {
        // Acquire: same pairing as in `send`.
        !self.shared.receiver_alive.load(Ordering::Acquire)
    }

    /// Approximate number of queued messages (see [`MpscQueue::len`]).
    pub fn len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Whether the queue is currently observed empty.
    pub fn is_empty(&self) -> bool {
        self.shared.queue.is_empty()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        // Relaxed: like `Arc::clone`, incrementing from an existing handle
        // needs no ordering — the clone cannot race the count reaching zero.
        self.shared.senders.fetch_add(1, Ordering::Relaxed);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        // AcqRel: Release orders this sender's queue pushes before the
        // decrement; Acquire on the last decrement makes every other
        // sender's pushes visible to the receiver's disconnect check (which
        // Acquire-loads the count). Same protocol as `Arc`'s refcount.
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: wake the receiver so it can observe disconnection.
            let _guard = self.shared.sleep_lock.lock();
            self.shared.wakeup.notify_one();
        }
    }
}

impl<T: Send> Receiver<T> {
    /// Record a successful pop on the trace, if tracing is live.
    fn note_pop(&self, value: &T) {
        if self.shared.trace.sink.enabled() {
            let depth = self.shared.queue.len();
            self.shared.trace.sink.emit(
                self.shared.trace.id,
                EventKind::QueuePopped {
                    depth,
                    id: self.shared.lineage.and_then(|f| f(value)),
                },
            );
            self.shared.trace.pops.add(1);
        }
    }

    /// Non-blocking receive.
    // audit: no_panic,no_block
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.shared.queue.pop_spin() {
            Some(v) => {
                self.note_pop(&v);
                Ok(v)
            }
            None => {
                // Acquire: pairs with the AcqRel decrement in Sender::drop —
                // observing zero means every sender's final pushes are
                // visible, so the re-check below is conclusive.
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    // Re-check: a message may have been pushed before the
                    // last sender dropped.
                    match self.shared.queue.pop_spin() {
                        Some(v) => {
                            self.note_pop(&v);
                            Ok(v)
                        }
                        None => Err(TryRecvError::Disconnected),
                    }
                } else {
                    Err(TryRecvError::Empty)
                }
            }
        }
    }

    /// Approximate number of queued messages (see [`MpscQueue::len`]).
    pub fn len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Whether the queue is currently observed empty.
    pub fn is_empty(&self) -> bool {
        self.shared.queue.is_empty()
    }

    /// Blocking receive; returns `Err(RecvError)` only after every sender
    /// dropped *and* the queue drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        loop {
            match self.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => {
                    let mut guard = self.shared.sleep_lock.lock();
                    // Re-check under the lock to avoid sleeping through a
                    // send that raced with the check above.
                    match self.try_recv() {
                        Ok(v) => return Ok(v),
                        Err(TryRecvError::Disconnected) => return Err(RecvError),
                        Err(TryRecvError::Empty) => {
                            self.shared.wakeup.wait(&mut guard);
                        }
                    }
                }
            }
        }
    }

    /// Blocking receive with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    let mut guard = self.shared.sleep_lock.lock();
                    match self.try_recv() {
                        Ok(v) => return Ok(v),
                        Err(TryRecvError::Disconnected) => {
                            return Err(RecvTimeoutError::Disconnected)
                        }
                        Err(TryRecvError::Empty) => {
                            if self
                                .shared
                                .wakeup
                                .wait_until(&mut guard, deadline)
                                .timed_out()
                            {
                                // One final drain attempt at the deadline.
                                drop(guard);
                                return match self.try_recv() {
                                    Ok(v) => Ok(v),
                                    Err(TryRecvError::Disconnected) => {
                                        Err(RecvTimeoutError::Disconnected)
                                    }
                                    Err(TryRecvError::Empty) => Err(RecvTimeoutError::Timeout),
                                };
                            }
                        }
                    }
                }
            }
        }
    }

    /// Blocking receive that also reports how long the call waited —
    /// near-zero when a message was already queued, the park duration
    /// otherwise. Worker loops feed the wait into the `QueueWait`
    /// histogram (`hetero-trace`) to expose queue-starvation
    /// distributions without re-deriving them from raw traces.
    pub fn recv_timed(&self) -> (Result<T, RecvError>, Duration) {
        let start = std::time::Instant::now();
        let result = self.recv();
        (result, start.elapsed())
    }

    /// Drain everything currently queued without blocking.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Ok(v) = self.try_recv() {
            out.push(v);
        }
        out
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Release: pairs with the senders' Acquire loads so a sender that
        // sees the channel closed also sees the receiver's final state.
        self.shared.receiver_alive.store(false, Ordering::Release);
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Relaxed: debug snapshot only.
        f.debug_struct("Sender")
            .field("senders", &self.shared.senders.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver").finish()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = channel();
        tx.send(42).unwrap();
        assert_eq!(rx.recv(), Ok(42));
    }

    #[test]
    fn try_recv_empty_then_value() {
        let (tx, rx) = channel();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_to_dropped_receiver_fails() {
        let (tx, rx) = channel();
        assert!(!tx.is_disconnected());
        drop(rx);
        assert!(tx.is_disconnected());
        let err = tx.send(5).unwrap_err();
        assert_eq!(err, SendError(5));
        assert_eq!(err.into_inner(), 5);
    }

    #[test]
    fn recv_timeout_expires() {
        let (tx, rx) = channel::<u32>();
        let start = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(25));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = channel();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.send("late").unwrap();
        });
        assert_eq!(rx.recv(), Ok("late"));
        h.join().unwrap();
    }

    #[test]
    fn many_senders_all_messages_arrive() {
        let (tx, rx) = channel();
        let senders = 8;
        let per = 2000usize;
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..per {
                        tx.send(i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut sum = 0usize;
        let mut n = 0usize;
        while let Ok(v) = rx.recv() {
            sum += v;
            n += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n, senders * per);
        assert_eq!(sum, senders * per * (per - 1) / 2);
    }

    #[test]
    fn recv_timed_measures_the_park() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        let (v, wait) = rx.recv_timed();
        assert_eq!(v, Ok(1));
        assert!(wait < Duration::from_millis(50));
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            tx.send(2).unwrap();
        });
        let (v, wait) = rx.recv_timed();
        assert_eq!(v, Ok(2));
        assert!(wait >= Duration::from_millis(20), "waited {wait:?}");
        h.join().unwrap();
        let (v, _) = rx.recv_timed();
        assert_eq!(v, Err(RecvError));
    }

    #[test]
    fn drain_collects_pending() {
        let (tx, rx) = channel();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.drain(), vec![0, 1, 2, 3, 4]);
        assert!(rx.drain().is_empty());
    }

    #[test]
    fn len_is_exact_when_quiescent() {
        let (tx, rx) = channel();
        assert_eq!(tx.len(), 0);
        for i in 0..7 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.len(), 7);
        assert_eq!(rx.len(), 7);
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.len(), 6);
        rx.drain();
        assert_eq!(rx.len(), 0);
        assert!(rx.is_empty());
    }

    #[test]
    fn traced_channel_emits_depth_events_and_counters() {
        let sink = hetero_trace::TraceSink::wall(1024);
        let (tx, rx) = channel_traced::<usize>(&sink, "coord_inbox", 3);
        let senders = 4;
        let per = 500usize;
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..per {
                        tx.send(i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut received = 0usize;
        while rx.recv().is_ok() {
            received += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(received, senders * per);
        assert_eq!(rx.len(), 0);

        let trace = sink.drain();
        let mut pushed = 0usize;
        let mut popped = 0usize;
        for event in trace.events_sorted() {
            match event.kind {
                hetero_trace::EventKind::QueuePushed { depth, .. } => {
                    assert_eq!(event.worker, 3);
                    assert!(depth <= senders * per);
                    pushed += 1;
                }
                hetero_trace::EventKind::QueuePopped { .. } => {
                    assert_eq!(event.worker, 3);
                    popped += 1;
                }
                ref other => panic!("unexpected event {other:?}"),
            }
        }
        // Events can be shed by the bounded rings, but counters are exact.
        assert!(pushed + (trace.total_dropped() as usize) >= popped);
        let counters: std::collections::HashMap<String, f64> =
            trace.counters.iter().cloned().collect();
        assert_eq!(
            counters.get("mq.coord_inbox.pushes"),
            Some(&((senders * per) as f64))
        );
        assert_eq!(
            counters.get("mq.coord_inbox.pops"),
            Some(&((senders * per) as f64))
        );
        assert!(
            counters
                .get("mq.coord_inbox.depth_hwm")
                .copied()
                .unwrap_or(0.0)
                >= 1.0
        );
    }

    #[test]
    fn lineage_channel_tags_queue_events_with_batch_ids() {
        #[derive(Debug)]
        struct Msg {
            id: Option<u64>,
        }
        let sink = hetero_trace::TraceSink::wall(1024);
        let (tx, rx) = channel_traced_lineage::<Msg>(&sink, "coord", 7, |m: &Msg| m.id);
        tx.send(Msg { id: Some(41) }).unwrap();
        tx.send(Msg { id: None }).unwrap();
        assert!(rx.recv().is_ok());
        assert!(rx.recv().is_ok());
        let ids: Vec<(bool, Option<u64>)> = sink
            .drain()
            .events_sorted()
            .iter()
            .map(|e| match e.kind {
                hetero_trace::EventKind::QueuePushed { id, .. } => (true, id),
                hetero_trace::EventKind::QueuePopped { id, .. } => (false, id),
                ref other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            ids,
            vec![
                (true, Some(41)),
                (true, None),
                (false, Some(41)),
                (false, None),
            ]
        );
    }

    #[test]
    fn untraced_channel_has_disabled_sink() {
        let (tx, rx) = channel::<u8>();
        assert!(!tx.shared.trace.sink.enabled());
        tx.send(1).unwrap();
        assert_eq!(rx.recv(), Ok(1));
    }

    #[test]
    fn ping_pong_two_channels() {
        // Coordinator/worker round trips — the framework's actual topology.
        let (to_worker_tx, to_worker_rx) = channel();
        let (to_coord_tx, to_coord_rx) = channel();
        let worker = thread::spawn(move || {
            while let Ok(v) = to_worker_rx.recv() {
                if v == 0 {
                    break;
                }
                to_coord_tx.send(v * 2).unwrap();
            }
        });
        for i in 1..=100 {
            to_worker_tx.send(i).unwrap();
            assert_eq!(to_coord_rx.recv(), Ok(i * 2));
        }
        to_worker_tx.send(0).unwrap();
        worker.join().unwrap();
        assert_eq!(to_coord_rx.recv(), Err(RecvError));
    }
}
