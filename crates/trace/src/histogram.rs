//! Lock-free log-bucketed histograms (HDR-style) with quantile queries.
//!
//! A [`LogHistogram`] covers the full `u64` range with a fixed number of
//! buckets: values below 2^[`SUB_BITS`] get one bucket each (exact), and
//! every octave above that is split into 2^[`SUB_BITS`] sub-buckets, so the
//! relative bucket width — and therefore the worst-case relative quantile
//! error — is bounded by 2^-[`SUB_BITS`] ≈ 0.78% < 1%.
//!
//! Design constraints (DESIGN.md §4g):
//!
//! - **Lock-free record path.** [`LogHistogram::record`] is a handful of
//!   relaxed `fetch_add`/`fetch_max` operations on a fixed array; any number
//!   of workers can record into the same histogram concurrently.
//! - **Allocation-free record path.** The bucket array is allocated once at
//!   construction (~58 KiB); recording never touches the heap, preserving
//!   the zero-steady-state-allocation guarantee of the math core (PR 4).
//!   Measured by `crates/bench/tests/alloc_metrics.rs`.
//! - **Mergeable.** Bucket counts are plain sums, so per-worker histograms
//!   merge associatively into cross-worker aggregates
//!   ([`HistogramSnapshot::merge`], property-tested).
//!
//! Values are raw `u64`s; callers pick the unit (the engines record
//! durations in nanoseconds and staleness/retries as raw counts — see
//! [`Metric`](crate::Metric)).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets,
/// bounding relative error by `2^-SUB_BITS` (~0.78%).
pub const SUB_BITS: u32 = 7;

/// Buckets per octave (`2^SUB_BITS`).
const SUBS: usize = 1 << SUB_BITS;

/// Total bucket count covering all of `u64`:
/// one linear block for `v < 2^SUB_BITS` plus `64 - SUB_BITS` octave blocks.
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// Index of the bucket containing `v`.
///
/// Values below `2^SUB_BITS` map to themselves (exact buckets); larger
/// values map to `(octave, top-SUB_BITS-mantissa-bits)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    let s = SUB_BITS;
    if v < (1 << s) {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let base = ((e - s + 1) as usize) << s;
        let offset = ((v >> (e - s)) as usize) - SUBS;
        base + offset
    }
}

/// Inclusive lower bound of bucket `idx` (the smallest value mapping to it).
#[inline]
fn bucket_lower(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let block = (idx >> SUB_BITS) as u32; // 1..=64-SUB_BITS
        let e = block + SUB_BITS - 1;
        let offset = (idx & (SUBS - 1)) as u64;
        (SUBS as u64 + offset) << (e - SUB_BITS)
    }
}

/// Width of bucket `idx` (number of distinct values it covers).
#[inline]
fn bucket_width(idx: usize) -> u64 {
    if idx < SUBS {
        1
    } else {
        let block = (idx >> SUB_BITS) as u32;
        let e = block + SUB_BITS - 1;
        1 << (e - SUB_BITS)
    }
}

/// Representative value reported for bucket `idx` (its midpoint), used by
/// quantile queries. The true value lies in the same bucket, so the error
/// is at most one bucket width: `max(1, value * 2^-SUB_BITS)`.
#[inline]
fn bucket_mid(idx: usize) -> u64 {
    bucket_lower(idx) + bucket_width(idx) / 2
}

/// A fixed-size, lock-free, mergeable log-bucketed histogram.
///
/// See the module docs for the bucketing scheme and guarantees.
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl LogHistogram {
    /// An empty histogram. Performs the one and only heap allocation
    /// (the bucket array); recording is allocation-free afterwards.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        LogHistogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Lock-free and allocation-free: three relaxed
    /// `fetch_add`s and one relaxed `fetch_max` on pre-allocated atomics.
    // audit: no_alloc,no_panic,no_block
    #[inline]
    pub fn record(&self, v: u64) {
        // Relaxed: each bucket/total is an independent monotone tally; no
        // memory is published through them, and readers only need eventual
        // per-cell consistency (a snapshot mid-record may see the bucket
        // increment before the total, which `snapshot` tolerates by
        // recomputing the count from the buckets).
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total observations recorded so far.
    pub fn count(&self) -> u64 {
        // Relaxed: monotone tally, nothing is published through it.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wraps on overflow of u64 — at nanosecond
    /// scale that is ~584 years of accumulated duration).
    pub fn sum(&self) -> u64 {
        // Relaxed: monotone tally, nothing is published through it.
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy for queries. The count is
    /// recomputed from the buckets so quantile math is internally exact
    /// even if records raced the snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // Relaxed: reading monotone tallies; exact cross-cell atomicity is
        // not required (see `record`).
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            // Relaxed: monotone tallies, same argument as the bucket loads.
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// An owned point-in-time copy of a [`LogHistogram`], for quantile and
/// cumulative queries and for merging per-worker series into aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merge `other` into `self` (plain bucket sums — associative and
    /// commutative, property-tested in `tests/histogram_props.rs`).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
        self.count += other.count;
        // Wrapping to match `LogHistogram::record`'s fetch_add semantics
        // (the live histogram wraps sum at u64 by design; see `sum`).
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`q` in [0, 1]), reported as the midpoint of the
    /// bucket holding the ⌈q·n⌉-th smallest observation. Error vs. the
    /// exact order statistic is at most one bucket width:
    /// `max(1, exact * 2^-SUB_BITS)`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(idx).min(self.max);
            }
        }
        self.max
    }

    /// Compact serializable summary (what `TrainResult` persists).
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50) as f64,
            p90: self.quantile(0.90) as f64,
            p99: self.quantile(0.99) as f64,
            max: self.max as f64,
        }
    }
}

/// Serializable distribution summary: what a histogram boils down to when a
/// `TrainResult` is written to `results/*.json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median (bucket-midpoint estimate, ≤1% relative error).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(127), 127);
        assert_eq!(bucket_index(128), 128);
        assert_eq!(bucket_index(255), 255);
        assert_eq!(bucket_index(256), 256);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_invert_index() {
        for idx in [0, 1, 127, 128, 129, 255, 256, 1000, NUM_BUCKETS - 1] {
            let lo = bucket_lower(idx);
            let w = bucket_width(idx);
            assert_eq!(bucket_index(lo), idx, "lower bound of {idx}");
            assert_eq!(bucket_index(lo + (w - 1)), idx, "upper bound of {idx}");
            if let Some(next) = lo.checked_add(w) {
                assert_eq!(bucket_index(next), idx + 1, "successor of {idx}");
            }
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        assert_eq!(s.max(), 1000);
        let p50 = s.quantile(0.5) as f64;
        assert!((p50 - 500.0).abs() <= 500.0 / 128.0 + 1.0, "p50 = {p50}");
        let p99 = s.quantile(0.99) as f64;
        assert!((p99 - 990.0).abs() <= 990.0 / 128.0 + 1.0, "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 1000);
    }
}
