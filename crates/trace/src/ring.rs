//! Bounded drop-oldest ring.
//!
//! Each tracing thread gets its own ring of events (see `sink.rs`), so the
//! mutex around a ring is effectively uncontended: the owning thread
//! pushes, and the only cross-thread access is a drain at the end of a run
//! (or an explicit snapshot). When the ring is full the *oldest* item is
//! discarded and the `dropped` count incremented, so a long run keeps its
//! most recent window and reports exactly how many fell off. The flight
//! recorder keeps its periodic health snapshots in one too.

use std::collections::VecDeque;

/// Fixed-capacity drop-oldest buffer.
#[derive(Debug)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` items (capacity 0 drops all).
    pub fn new(capacity: usize) -> Self {
        Ring {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Append an item, evicting the oldest if the ring is full.
    pub fn push(&mut self, item: T) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Take all buffered items, preserving push order. The dropped count
    /// is *not* reset: it keeps accumulating over the ring's lifetime.
    pub fn drain(&mut self) -> Vec<T> {
        self.buf.drain(..).collect()
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total items evicted (or rejected by a zero-capacity ring) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Maximum items held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T: Clone> Ring<T> {
    /// Copy all buffered items, preserving push order, without removing
    /// them (a postmortem snapshot must not steal the caller's trace).
    pub fn peek(&self) -> Vec<T> {
        self.buf.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use proptest::prelude::*;

    fn ev(i: usize) -> Event {
        Event {
            t: i as f64,
            worker: 0,
            kind: EventKind::QueuePushed { depth: i, id: None },
        }
    }

    #[test]
    fn drop_oldest_keeps_newest_window() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 2);
        let drained = r.drain();
        let ts: Vec<f64> = drained.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![2.0, 3.0, 4.0]);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 2, "drain must not reset the dropped count");
    }

    #[test]
    fn zero_capacity_counts_everything_dropped() {
        let mut r = Ring::new(0);
        for i in 0..7 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 0);
        assert_eq!(r.dropped(), 7);
    }

    proptest! {
        // The flight-recorder invariant: whatever the push sequence, the
        // ring retains exactly the newest min(len, capacity) items, in
        // order — it never drops the newest.
        #[test]
        fn retention_never_drops_newest(cap in 1usize..32, items in prop::collection::vec(0u32..1000, 0..100)) {
            let mut r = Ring::new(cap);
            for &v in &items {
                r.push(v);
            }
            let keep = items.len().min(cap);
            let expected: Vec<u32> = items[items.len() - keep..].to_vec();
            prop_assert_eq!(r.peek(), expected);
            prop_assert!(r.len() <= r.capacity());
        }
    }
}
