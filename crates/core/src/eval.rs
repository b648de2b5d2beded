//! Shared evaluation-subset helpers.
//!
//! The simulation and threaded engines evaluate the loss curve on the
//! *same* seeded random subsample at every eval point: a fixed prefix
//! would bias the curve toward whatever ordering the dataset shipped with,
//! and re-drawing per eval point would add noise between points.

use hetero_data::DenseDataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Deterministic evaluation subset: `k` rows sampled without replacement.
pub(crate) fn eval_subset(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let mut rows: Vec<usize> = (0..n).collect();
    rows.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xe7a1));
    rows.truncate(k);
    rows.sort_unstable();
    rows
}

/// Gather scattered rows into a dense eval batch.
pub(crate) fn gather_rows(
    dataset: &DenseDataset,
    rows: &[usize],
) -> (hetero_tensor::Matrix, hetero_data::Labels) {
    let d = dataset.features();
    let mut x = hetero_tensor::Matrix::zeros(rows.len(), d);
    for (i, &r) in rows.iter().enumerate() {
        x.row_mut(i).copy_from_slice(dataset.x.row(r));
    }
    (x, gather_labels(dataset, rows))
}

/// The labels of scattered rows — all a sparse run's eval needs from the
/// dense dataset (its features come from the run's CSR copy).
pub(crate) fn gather_labels(dataset: &DenseDataset, rows: &[usize]) -> hetero_data::Labels {
    match &dataset.labels {
        hetero_data::Labels::Classes(v) => {
            hetero_data::Labels::Classes(rows.iter().map(|&r| v[r]).collect())
        }
        hetero_data::Labels::MultiHot(m) => {
            let mut y = hetero_tensor::Matrix::zeros(rows.len(), m.cols());
            for (i, &r) in rows.iter().enumerate() {
                y.row_mut(i).copy_from_slice(m.row(r));
            }
            hetero_data::Labels::MultiHot(y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_data::SynthConfig;

    #[test]
    fn subset_is_deterministic_and_sorted() {
        let a = eval_subset(100, 10, 7);
        let b = eval_subset(100, 10, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&r| r < 100));
    }

    #[test]
    fn subset_is_not_a_prefix() {
        // The whole point: a seeded shuffle, not `0..k`.
        let rows = eval_subset(10_000, 64, 3);
        assert_ne!(rows, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn subset_caps_at_dataset_len() {
        let rows = eval_subset(5, 64, 0);
        assert_eq!(rows, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gather_matches_source_rows() {
        let d = SynthConfig::small(50, 6, 2, 3).generate();
        let rows = eval_subset(d.len(), 8, 11);
        let (x, labels) = gather_rows(&d, &rows);
        assert_eq!(x.rows(), 8);
        for (i, &r) in rows.iter().enumerate() {
            assert_eq!(x.row(i), d.x.row(r));
        }
        match (&labels, &d.labels) {
            (hetero_data::Labels::Classes(got), hetero_data::Labels::Classes(src)) => {
                for (i, &r) in rows.iter().enumerate() {
                    assert_eq!(got[i], src[r]);
                }
            }
            _ => panic!("synthetic dataset should be class-labelled"),
        }
    }
}
