//! Coordinator-side batch scheduling.
//!
//! Algorithm 1/2 of the paper: the coordinator "prepares a batch by
//! selecting a continuous range from the training data and storing a
//! reference to its starting position". [`BatchScheduler`] is that logic —
//! it hands out contiguous `[start, end)` ranges of requested size, tracks
//! epoch boundaries, and (optionally) signals when the data should be
//! reshuffled between epochs.
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

/// Scheduler handing out contiguous *blocks of a per-epoch permutation*.
///
/// The plain [`BatchScheduler`] walks the data in storage order every
/// epoch; real SGD pipelines reshuffle between epochs. This scheduler keeps
/// the coordinator's contiguous-range contract (a batch is still one block)
/// while the *block order* is a fresh seeded permutation each epoch —
/// batches from different epochs therefore cover the data in different
/// sequences without copying any rows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShuffledScheduler {
    inner: BatchScheduler,
    n: usize,
    block: usize,
    /// Permutation of block indices for the current epoch.
    order: Vec<usize>,
    seed: u64,
    current_epoch: usize,
    /// Examples actually handed out (mapped ranges, not raw cursor steps).
    examples_served: u64,
}

impl ShuffledScheduler {
    /// Scheduler over `n` examples in shuffleable blocks of `block`
    /// examples (the batch size granularity).
    pub fn new(n: usize, block: usize, seed: u64, max_epochs: Option<usize>) -> Self {
        assert!(block > 0, "zero block size");
        let mut s = ShuffledScheduler {
            inner: BatchScheduler::new(n, max_epochs),
            n,
            block,
            order: Vec::new(),
            seed,
            current_epoch: usize::MAX,
            examples_served: 0,
        };
        s.reshuffle(0);
        s
    }

    fn reshuffle(&mut self, epoch: usize) {
        use rand::seq::SliceRandom;
        let blocks = self.n.div_ceil(self.block);
        self.order = (0..blocks).collect();
        self.order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(
            self.seed ^ (epoch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ));
        self.current_epoch = epoch;
    }

    /// Next shuffled block of up to `block` examples, or `None` when the
    /// epoch budget is exhausted.
    pub fn next_block(&mut self) -> Option<BatchRange> {
        let raw = self.inner.next_batch(self.block)?;
        if raw.epoch != self.current_epoch {
            self.reshuffle(raw.epoch);
        }
        // Map the raw cursor position to the permuted block. The raw
        // cursor walks 0..n in `block` strides, so the index is always in
        // range; a defensive `% order.len()` here would silently alias a
        // mapping bug onto a wrong-but-valid block instead of surfacing it.
        let block_idx = raw.start / self.block;
        assert!(
            block_idx < self.order.len(),
            "block index {block_idx} out of range for {} blocks",
            self.order.len()
        );
        let mapped = self.order[block_idx];
        let start = mapped * self.block;
        let end = (start + self.block).min(self.n);
        // Count the *mapped* range actually handed out. When
        // n % block != 0 the short tail block is served when the
        // permutation reaches it, not when the raw cursor hits n — counting
        // the raw range made examples_served/epochs_elapsed drift mid-epoch.
        self.examples_served += (end - start) as u64;
        Some(BatchRange {
            start,
            end,
            epoch: raw.epoch,
        })
    }

    /// Fractional epochs elapsed, counting examples actually handed out.
    pub fn epochs_elapsed(&self) -> f64 {
        self.examples_served as f64 / self.n as f64
    }

    /// Total examples handed out (mapped ranges).
    pub fn examples_served(&self) -> u64 {
        self.examples_served
    }
}

use rand::SeedableRng;

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

    #[test]
    fn shuffled_scheduler_covers_every_example_each_epoch() {
        let mut s = ShuffledScheduler::new(50, 8, 7, Some(1));
        let mut seen = [false; 50];
        while let Some(b) = s.next_block() {
            seen[b.start..b.end].iter_mut().for_each(|s| *s = true);
        }
        assert!(seen.iter().all(|&v| v), "incomplete epoch coverage");
    }

    #[test]
    fn shuffled_scheduler_different_order_across_epochs() {
        let mut s = ShuffledScheduler::new(64, 8, 3, Some(2));
        let mut epoch0 = Vec::new();
        let mut epoch1 = Vec::new();
        while let Some(b) = s.next_block() {
            if b.epoch == 0 {
                epoch0.push(b.start);
            } else {
                epoch1.push(b.start);
            }
        }
        assert_eq!(epoch0.len(), 8);
        assert_eq!(epoch1.len(), 8);
        assert_ne!(epoch0, epoch1, "epochs visited blocks in the same order");
        // Both epochs cover the same block set.
        let mut a = epoch0.clone();
        let mut b = epoch1.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn shuffled_scheduler_counts_mapped_ranges() {
        // n % block != 0: the tail block (2 examples) is served wherever
        // the permutation places it; the counter must track the handed-out
        // ranges exactly at every step, not the raw cursor walk.
        let mut s = ShuffledScheduler::new(50, 8, 7, Some(2));
        let mut served = 0u64;
        while let Some(b) = s.next_block() {
            served += b.len() as u64;
            assert_eq!(s.examples_served(), served, "mid-epoch drift");
            assert!((s.epochs_elapsed() - served as f64 / 50.0).abs() < 1e-12);
        }
        assert_eq!(served, 100);
    }

    #[test]
    fn shuffled_scheduler_roundtrips_through_serde() {
        let mut s = ShuffledScheduler::new(50, 8, 7, Some(3));
        for _ in 0..9 {
            s.next_block().unwrap();
        }
        let json = serde_json::to_string(&s).unwrap();
        let mut back: ShuffledScheduler = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // The restored scheduler continues the identical block sequence.
        for _ in 0..9 {
            assert_eq!(back.next_block(), s.next_block());
        }
    }

    #[test]
    fn shuffled_scheduler_deterministic_per_seed() {
        let collect = |seed| {
            let mut s = ShuffledScheduler::new(40, 5, seed, Some(1));
            let mut v = Vec::new();
            while let Some(b) = s.next_block() {
                v.push(b.start);
            }
            v
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }
}
