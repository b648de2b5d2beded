//! Coordinator-side batch scheduling.
//!
//! Algorithm 1/2 of the paper: the coordinator "prepares a batch by
//! selecting a continuous range from the training data and storing a
//! reference to its starting position". [`BatchScheduler`] is that logic —
//! it hands out contiguous `[start, end)` ranges of requested size and
//! tracks epoch boundaries.
//!
//! Crucially for the heterogeneous algorithms, **each request may ask for a
//! different size** — this is the "minimal change to the ScheduleWork
//! handler" that enables per-worker batch sizes (§VI-B).

use serde::{Deserialize, Serialize};

/// A contiguous batch of examples `[start, end)` within the training data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchRange {
    /// First example index (inclusive).
    pub start: usize,
    /// One past the last example index.
    pub end: usize,
    /// Which epoch this batch belongs to (0-based).
    pub epoch: usize,
}

impl BatchRange {
    /// Number of examples in the batch.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for a zero-length range.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Hands out contiguous batches over `n` examples, epoch after epoch.
///
/// Serializable: the scheduler is part of the training state a checkpoint
/// captures (cursor, epoch, and progress counters restore exactly).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchScheduler {
    n: usize,
    cursor: usize,
    epoch: usize,
    max_epochs: Option<usize>,
    batches_served: u64,
    examples_served: u64,
}

impl BatchScheduler {
    /// Scheduler over `n` examples; `max_epochs = None` runs forever
    /// (the paper stops on a wall-clock budget instead of an epoch count).
    pub fn new(n: usize, max_epochs: Option<usize>) -> Self {
        assert!(n > 0, "empty training set");
        BatchScheduler {
            n,
            cursor: 0,
            epoch: 0,
            max_epochs,
            batches_served: 0,
            examples_served: 0,
        }
    }

    /// Request the next batch of (up to) `size` examples.
    ///
    /// The final batch of an epoch may be shorter. Returns `None` once
    /// `max_epochs` is exhausted. When a batch closes an epoch, the next
    /// call rolls into the following epoch automatically.
    pub fn next_batch(&mut self, size: usize) -> Option<BatchRange> {
        assert!(size > 0, "zero batch size requested");
        if let Some(max) = self.max_epochs {
            if self.epoch >= max {
                return None;
            }
        }
        let start = self.cursor;
        let end = (start + size).min(self.n);
        let range = BatchRange {
            start,
            end,
            epoch: self.epoch,
        };
        self.cursor = end;
        if self.cursor >= self.n {
            self.cursor = 0;
            self.epoch += 1;
        }
        self.batches_served += 1;
        self.examples_served += range.len() as u64;
        Some(range)
    }

    /// Current epoch (0-based; increments when an epoch's last example is
    /// handed out).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Fractional epoch progress, counting served examples.
    pub fn epochs_elapsed(&self) -> f64 {
        self.examples_served as f64 / self.n as f64
    }

    /// Total batches handed out.
    pub fn batches_served(&self) -> u64 {
        self.batches_served
    }

    /// Total examples handed out.
    pub fn examples_served(&self) -> u64 {
        self.examples_served
    }

    /// Dataset size this scheduler covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Schedulers are never empty (`new` rejects n = 0).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_tile_the_epoch() {
        let mut s = BatchScheduler::new(10, Some(1));
        let b1 = s.next_batch(4).unwrap();
        let b2 = s.next_batch(4).unwrap();
        let b3 = s.next_batch(4).unwrap();
        assert_eq!((b1.start, b1.end), (0, 4));
        assert_eq!((b2.start, b2.end), (4, 8));
        assert_eq!((b3.start, b3.end), (8, 10)); // truncated tail
        assert_eq!(b3.len(), 2);
        assert!(s.next_batch(4).is_none()); // epoch budget exhausted
    }

    #[test]
    fn epochs_roll_over() {
        let mut s = BatchScheduler::new(6, Some(2));
        for _ in 0..3 {
            s.next_batch(2).unwrap();
        }
        assert_eq!(s.epoch(), 1);
        let b = s.next_batch(2).unwrap();
        assert_eq!(b.epoch, 1);
        assert_eq!(b.start, 0);
    }

    #[test]
    fn unbounded_scheduler_never_ends() {
        let mut s = BatchScheduler::new(4, None);
        for i in 0..100 {
            let b = s.next_batch(3).unwrap();
            assert!(!b.is_empty(), "iteration {i}");
        }
        assert!(s.epochs_elapsed() > 20.0);
    }

    #[test]
    fn mixed_batch_sizes_per_request() {
        // The heterogeneous property: different sizes in consecutive calls.
        let mut s = BatchScheduler::new(100, None);
        let small = s.next_batch(1).unwrap();
        let large = s.next_batch(64).unwrap();
        assert_eq!(small.len(), 1);
        assert_eq!(large.len(), 64);
        assert_eq!(large.start, 1);
    }

    #[test]
    fn progress_counters() {
        let mut s = BatchScheduler::new(10, None);
        s.next_batch(5).unwrap();
        s.next_batch(5).unwrap();
        s.next_batch(5).unwrap();
        assert_eq!(s.batches_served(), 3);
        assert_eq!(s.examples_served(), 15);
        assert!((s.epochs_elapsed() - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn zero_examples_panics() {
        BatchScheduler::new(0, None);
    }

    #[test]
    #[should_panic(expected = "zero batch size")]
    fn zero_size_request_panics() {
        BatchScheduler::new(5, None).next_batch(0);
    }

    #[test]
    fn oversized_batch_clamped_to_epoch() {
        let mut s = BatchScheduler::new(5, None);
        let b = s.next_batch(100).unwrap();
        assert_eq!(b.len(), 5);
        assert_eq!(s.epoch(), 1);
    }
}
