//! Property tests for the log-bucketed histogram: snapshot merging is
//! associative and commutative, snapshot totals are exact, and quantiles
//! stay within the advertised one-bucket error bound of the exact order
//! statistics.

use hetero_trace::{bucket_index, LogHistogram, SUB_BITS};
use proptest::prelude::*;

/// Exact `q`-quantile of `values` under the histogram's rank convention:
/// the ⌈q·n⌉-th smallest observation (1-indexed, rank floored at 1).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// A value drawn log-uniformly across the whole `u64` range, so the cases
/// exercise the exact sub-linear buckets and many different octaves rather
/// than clustering in the top few (uniform `u64` would almost always land
/// in the last octave).
fn log_uniform() -> impl Strategy<Value = u64> {
    (0u32..64, any::<u64>()).prop_map(|(bits, raw)| if bits == 0 { 0 } else { raw >> (64 - bits) })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot merge is associative and commutative, with `empty()` as
    /// the identity — per-worker series can be aggregated in any order.
    #[test]
    fn snapshot_merge_is_associative_and_commutative(
        a in prop::collection::vec(log_uniform(), 0..200),
        b in prop::collection::vec(log_uniform(), 0..200),
        c in prop::collection::vec(log_uniform(), 0..200),
    ) {
        let snap = |vals: &[u64]| {
            let h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));

        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // b ⊕ a == a ⊕ b
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);

        // identity
        let mut with_empty = sa.clone();
        with_empty.merge(&hetero_trace::HistogramSnapshot::empty());
        prop_assert_eq!(&with_empty, &sa);
    }

    /// Every reported quantile is within one bucket width of the exact
    /// order statistic computed by sorting: `|est - exact| ≤ max(1,
    /// exact·2^-SUB_BITS)` — the "~1% relative error" contract.
    #[test]
    fn quantile_within_one_bucket_of_exact_sort(
        mut values in prop::collection::vec(log_uniform(), 1..500),
        qs in prop::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        for q in qs {
            let exact = exact_quantile(&values, q);
            let est = snap.quantile(q);
            // Same-bucket check is the sharp form of the bound…
            prop_assert_eq!(
                bucket_index(est.min(snap.max())),
                bucket_index(exact),
                "q={} est={} exact={}", q, est, exact
            );
            // …and the advertised numeric bound follows from it.
            let bound = 1.max(exact >> SUB_BITS);
            prop_assert!(
                est.abs_diff(exact) <= bound,
                "q={}: |{} - {}| > {}", q, est, exact, bound
            );
        }
    }

    /// count/sum/max of a snapshot match the recorded stream exactly.
    #[test]
    fn snapshot_totals_are_exact(values in prop::collection::vec(log_uniform(), 0..400)) {
        let h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.sum(), values.iter().copied().fold(0u64, u64::wrapping_add));
        prop_assert_eq!(snap.max(), values.iter().copied().max().unwrap_or(0));
    }
}
