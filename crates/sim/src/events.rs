//! Deterministic virtual-time event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual time in seconds. Always finite and non-negative.
pub type SimTime = f64;

struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Ties break by insertion order (lower seq first) for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of future events ordered by virtual time.
///
/// Determinism contract: two events scheduled for the same instant pop in
/// the order they were scheduled. Times must be finite; scheduling a NaN
/// panics at pop time (comparison), an infinite time panics at push.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    now: SimTime,
    processed: u64,
}

impl<T> EventQueue<T> {
    /// Empty queue starting at virtual time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
            processed: 0,
        }
    }

    /// Schedule `payload` at absolute virtual time `time`.
    ///
    /// # Panics
    /// Panics if `time` is non-finite or earlier than the current time.
    pub fn schedule_at(&mut self, time: SimTime, payload: T) {
        assert!(time.is_finite(), "event time must be finite");
        assert!(
            time >= self.now,
            "cannot schedule in the past ({} < {})",
            time,
            self.now
        );
        self.heap.push(Entry {
            time,
            seq: self.next_seq,
            payload,
        });
        self.next_seq += 1;
    }

    /// Schedule `payload` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: SimTime, payload: T) {
        assert!(delay >= 0.0, "negative delay");
        self.schedule_at(self.now + delay, payload);
    }

    /// Pop the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| {
            debug_assert!(e.time >= self.now, "time went backwards");
            self.now = e.time;
            self.processed += 1;
            (e.time, e.payload)
        })
    }

    /// Time of the earliest pending event, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Move the clock to `time` without popping anything: an instant at
    /// which the caller acts although no event is due.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current time or later than the
    /// earliest pending event.
    pub fn advance_to(&mut self, time: SimTime) {
        assert!(time >= self.now, "cannot advance into the past");
        assert!(
            self.peek_time().is_none_or(|next| time <= next),
            "cannot advance past a pending event"
        );
        self.now = time;
    }

    /// Current virtual time: the time of the last popped event, or the
    /// last [`EventQueue::advance_to`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The pending events in the exact order `pop` would deliver them,
    /// without disturbing the queue.
    ///
    /// This is the checkpoint/restore primitive: re-scheduling the returned
    /// events, in this order, into a fresh queue assigns them fresh
    /// monotone sequence numbers whose *relative* order matches the
    /// original — so same-time ties break identically and the restored run
    /// pops bit-identically to the uninterrupted one.
    pub fn pending_in_order(&self) -> Vec<(SimTime, &T)>
    where
        T: Sized,
    {
        let mut entries: Vec<&Entry<T>> = self.heap.iter().collect();
        entries.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .expect("event times are finite")
                .then_with(|| a.seq.cmp(&b.seq))
        });
        entries.into_iter().map(|e| (e.time, &e.payload)).collect()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(5.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(2.5, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 2.5);
        q.schedule_after(1.5, ());
        assert_eq!(q.pop(), Some((4.0, ())));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, ());
        q.pop();
        q.schedule_at(1.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_time_panics() {
        EventQueue::new().schedule_at(f64::INFINITY, ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, 1);
        q.schedule_at(10.0, 10);
        assert_eq!(q.pop(), Some((1.0, 1)));
        q.schedule_after(2.0, 3); // at t=3
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert_eq!(q.pop(), Some((10.0, 10)));
        assert!(q.is_empty());
    }

    #[test]
    fn pending_in_order_matches_pop_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "late");
        q.schedule_at(1.0, "tie-a");
        q.schedule_at(1.0, "tie-b");
        q.schedule_at(2.0, "mid");
        let pending: Vec<(f64, &&str)> = q.pending_in_order();
        let listed: Vec<(f64, &str)> = pending.iter().map(|(t, p)| (*t, **p)).collect();
        // Non-destructive: popping afterwards delivers the same sequence.
        let mut popped = Vec::new();
        while let Some((t, p)) = q.pop() {
            popped.push((t, p));
        }
        assert_eq!(listed, popped);
        assert_eq!(
            popped,
            vec![(1.0, "tie-a"), (1.0, "tie-b"), (2.0, "mid"), (3.0, "late")]
        );
    }

    #[test]
    fn advance_moves_the_clock_and_pops_nothing() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        assert_eq!(q.peek_time(), Some(3.0));
        q.advance_to(2.0);
        assert_eq!((q.now(), q.len(), q.processed()), (2.0, 1, 0));
        // Delays count from the advanced clock.
        q.schedule_after(0.5, "b");
        assert_eq!(q.pop(), Some((2.5, "b")));
        q.advance_to(3.0);
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.peek_time(), None);
        q.advance_to(7.0);
        assert_eq!(q.now(), 7.0);
    }

    #[test]
    #[should_panic(expected = "past a pending event")]
    fn advancing_past_a_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, ());
        q.advance_to(2.0);
    }

    #[test]
    fn len_tracks_pending() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(1.0, ());
        q.schedule_at(2.0, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
