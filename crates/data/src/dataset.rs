//! In-memory dense dataset.
//!
//! The paper processes every dataset "in dense format" (§VII-A), so the
//! feature matrix is a dense row-major [`Matrix`] even for nominally sparse
//! sources like real-sim.

use hetero_tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Ground-truth labels: one class per example, or a multi-hot matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Labels {
    /// Single-label classification: one class index per example.
    Classes(Vec<u32>),
    /// Multi-label classification: `examples × labels` 0/1 matrix.
    MultiHot(Matrix),
}

impl Labels {
    /// Number of labeled examples.
    pub fn len(&self) -> usize {
        match self {
            Labels::Classes(v) => v.len(),
            Labels::MultiHot(m) => m.rows(),
        }
    }

    /// True when no examples are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct classes/labels covered.
    pub fn num_classes(&self) -> usize {
        match self {
            Labels::Classes(v) => v.iter().map(|&c| c as usize + 1).max().unwrap_or(0),
            Labels::MultiHot(m) => m.cols(),
        }
    }

    /// Labels for examples `start..end`.
    pub fn slice(&self, start: usize, end: usize) -> Labels {
        match self {
            Labels::Classes(v) => Labels::Classes(v[start..end].to_vec()),
            Labels::MultiHot(m) => Labels::MultiHot(m.slice_rows(start, end)),
        }
    }

    /// Copy labels for examples `start..end` into `out`, reusing its
    /// buffers — the allocation-free counterpart of [`slice`](Self::slice).
    /// If `out` holds the wrong variant it is replaced (one-time cost).
    pub fn slice_into(&self, start: usize, end: usize, out: &mut Labels) {
        match self {
            Labels::Classes(v) => {
                if let Labels::Classes(dst) = out {
                    dst.clear();
                    dst.extend_from_slice(&v[start..end]);
                } else {
                    *out = Labels::Classes(v[start..end].to_vec());
                }
            }
            Labels::MultiHot(m) => {
                if let Labels::MultiHot(dst) = out {
                    dst.resize(end - start, m.cols());
                    for (i, row) in (start..end).enumerate() {
                        dst.row_mut(i).copy_from_slice(m.row(row));
                    }
                } else {
                    *out = Labels::MultiHot(m.slice_rows(start, end));
                }
            }
        }
    }

    /// Borrow as the `hetero-nn` target view.
    pub fn as_targets(&self) -> hetero_nn::Targets<'_> {
        match self {
            Labels::Classes(v) => hetero_nn::Targets::Classes(v),
            Labels::MultiHot(m) => hetero_nn::Targets::MultiHot(m),
        }
    }

    /// Reorder examples by `perm` (perm[i] = source row of new row i).
    fn permute(&self, perm: &[usize]) -> Labels {
        match self {
            Labels::Classes(v) => Labels::Classes(perm.iter().map(|&i| v[i]).collect()),
            Labels::MultiHot(m) => {
                let mut out = Matrix::zeros(m.rows(), m.cols());
                for (new, &old) in perm.iter().enumerate() {
                    out.row_mut(new).copy_from_slice(m.row(old));
                }
                Labels::MultiHot(out)
            }
        }
    }
}

/// A dense dataset: feature matrix plus labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseDataset {
    /// Feature matrix, `examples × features`.
    pub x: Matrix,
    /// Labels, one entry/row per example.
    pub labels: Labels,
    /// Human-readable dataset name.
    pub name: String,
}

impl DenseDataset {
    /// Construct, validating that features and labels agree.
    ///
    /// # Panics
    /// Panics if row counts disagree.
    pub fn new(name: impl Into<String>, x: Matrix, labels: Labels) -> Self {
        assert_eq!(x.rows(), labels.len(), "feature rows != label rows");
        DenseDataset {
            x,
            labels,
            name: name.into(),
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// True when the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimensionality.
    pub fn features(&self) -> usize {
        self.x.cols()
    }

    /// Number of classes/labels.
    pub fn num_classes(&self) -> usize {
        self.labels.num_classes()
    }

    /// Batch view: features and labels for rows `start..end`.
    pub fn batch(&self, start: usize, end: usize) -> (Matrix, Labels) {
        (self.x.slice_rows(start, end), self.labels.slice(start, end))
    }

    /// Copy rows `start..end` into reused buffers — the allocation-free
    /// counterpart of [`batch`](Self::batch): once `x`/`labels` have served
    /// a batch at least this large, subsequent calls allocate nothing.
    pub fn batch_into(&self, start: usize, end: usize, x: &mut Matrix, labels: &mut Labels) {
        x.resize(end - start, self.x.cols());
        for (i, row) in (start..end).enumerate() {
            x.row_mut(i).copy_from_slice(self.x.row(row));
        }
        self.labels.slice_into(start, end, labels);
    }

    /// Deterministically shuffle examples in place (Fisher–Yates on a
    /// permutation, applied to features and labels together).
    pub fn shuffle(&mut self, seed: u64) {
        let mut perm: Vec<usize> = (0..self.len()).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut x = Matrix::zeros(self.x.rows(), self.x.cols());
        for (new, &old) in perm.iter().enumerate() {
            x.row_mut(new).copy_from_slice(self.x.row(old));
        }
        self.x = x;
        self.labels = self.labels.permute(&perm);
    }

    /// Split into (train, test) with `test_fraction` of the tail held out.
    pub fn split(&self, test_fraction: f32) -> (DenseDataset, DenseDataset) {
        assert!((0.0..1.0).contains(&test_fraction), "fraction in [0,1)");
        let n_test = (self.len() as f32 * test_fraction).round() as usize;
        let n_train = self.len() - n_test;
        let (tx, tl) = self.batch(0, n_train);
        let (ex, el) = self.batch(n_train, self.len());
        (
            DenseDataset::new(format!("{}-train", self.name), tx, tl),
            DenseDataset::new(format!("{}-test", self.name), ex, el),
        )
    }

    /// Scale every feature column to zero mean / unit variance (in place).
    /// Constant columns are left centered at zero.
    pub fn standardize(&mut self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let d = self.features();
        let mut mean = vec![0.0f64; d];
        for r in self.x.rows_iter() {
            for (m, v) in mean.iter_mut().zip(r) {
                *m += *v as f64;
            }
        }
        mean.iter_mut().for_each(|m| *m /= n as f64);
        let mut var = vec![0.0f64; d];
        for r in self.x.rows_iter() {
            for ((s, v), m) in var.iter_mut().zip(r).zip(&mean) {
                let c = *v as f64 - m;
                *s += c * c;
            }
        }
        let inv_std: Vec<f32> = var
            .iter()
            .map(|&s| {
                let std = (s / n as f64).sqrt();
                if std > 1e-12 {
                    (1.0 / std) as f32
                } else {
                    1.0
                }
            })
            .collect();
        let mean32: Vec<f32> = mean.iter().map(|&m| m as f32).collect();
        let cols = d;
        for r in self.x.as_mut_slice().chunks_exact_mut(cols) {
            for ((v, m), s) in r.iter_mut().zip(&mean32).zip(&inv_std) {
                *v = (*v - m) * s;
            }
        }
    }

    /// Scale every feature column to unit variance **without centering**
    /// (in place). This preserves sparsity — the right normalization for
    /// bag-of-words-like data where zero means "absent".
    pub fn scale_to_unit_variance(&mut self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let d = self.features();
        let mut sq = vec![0.0f64; d];
        for r in self.x.rows_iter() {
            for (s, v) in sq.iter_mut().zip(r) {
                *s += (*v as f64) * (*v as f64);
            }
        }
        let inv_rms: Vec<f32> = sq
            .iter()
            .map(|&s| {
                let rms = (s / n as f64).sqrt();
                if rms > 1e-12 {
                    (1.0 / rms) as f32
                } else {
                    1.0
                }
            })
            .collect();
        let cols = d;
        for r in self.x.as_mut_slice().chunks_exact_mut(cols) {
            for (v, s) in r.iter_mut().zip(&inv_rms) {
                *v *= s;
            }
        }
    }

    /// Compressed-sparse-row view of the feature matrix (exact zeros are
    /// dropped). Pairs with [`hetero_nn::loss_and_gradient_sparse`] for
    /// bag-of-words datasets like real-sim.
    pub fn to_csr(&self) -> hetero_tensor::CsrMatrix {
        hetero_tensor::CsrMatrix::from_dense(&self.x, 0.0)
    }

    /// Fraction of exactly-zero feature entries (density diagnostics).
    pub fn sparsity(&self) -> f32 {
        if self.x.is_empty() {
            return 0.0;
        }
        let zeros = self.x.as_slice().iter().filter(|&&v| v == 0.0).count();
        zeros as f32 / self.x.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> DenseDataset {
        let x = Matrix::from_fn(10, 3, |i, j| (i * 3 + j) as f32);
        let labels = Labels::Classes((0..10).map(|i| (i % 2) as u32).collect());
        DenseDataset::new("toy", x, labels)
    }

    #[test]
    fn construction_and_stats() {
        let d = toy();
        assert_eq!(d.len(), 10);
        assert_eq!(d.features(), 3);
        assert_eq!(d.num_classes(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn mismatched_rows_panic() {
        DenseDataset::new("bad", Matrix::zeros(3, 2), Labels::Classes(vec![0, 1]));
    }

    #[test]
    fn batch_into_matches_batch() {
        let d = toy();
        let mut x = Matrix::zeros(0, 0);
        let mut labels = Labels::Classes(Vec::new());
        // Warm at the largest batch, then reuse at smaller ones.
        for (s, e) in [(1, 8), (2, 5), (0, 3)] {
            d.batch_into(s, e, &mut x, &mut labels);
            let (x_ref, l_ref) = d.batch(s, e);
            assert_eq!(x, x_ref);
            assert_eq!(labels, l_ref);
        }
    }

    #[test]
    fn batch_into_multihot_labels() {
        let x = Matrix::from_fn(6, 2, |i, j| (i + j) as f32);
        let mh = Matrix::from_fn(6, 3, |i, j| ((i + j) % 2) as f32);
        let d = DenseDataset::new("mh", x, Labels::MultiHot(mh));
        let mut bx = Matrix::zeros(0, 0);
        // Wrong starting variant: replaced on first use, reused after.
        let mut labels = Labels::Classes(Vec::new());
        for (s, e) in [(0, 5), (2, 4)] {
            d.batch_into(s, e, &mut bx, &mut labels);
            let (x_ref, l_ref) = d.batch(s, e);
            assert_eq!(bx, x_ref);
            assert_eq!(labels, l_ref);
        }
    }

    #[test]
    fn batch_extraction() {
        let d = toy();
        let (x, l) = d.batch(2, 5);
        assert_eq!(x.rows(), 3);
        assert_eq!(x.get(0, 0), 6.0);
        match l {
            Labels::Classes(v) => assert_eq!(v, vec![0, 1, 0]),
            _ => panic!(),
        }
    }

    #[test]
    fn shuffle_preserves_example_label_pairs() {
        let mut d = toy();
        // Mark each row's identity in column 0 = row index * 3.
        d.shuffle(99);
        for i in 0..d.len() {
            let orig_row = (d.x.get(i, 0) / 3.0) as u32;
            match &d.labels {
                Labels::Classes(v) => assert_eq!(v[i], orig_row % 2, "row {i} decoupled"),
                _ => panic!(),
            }
        }
        // Deterministic per seed.
        let mut d2 = toy();
        d2.shuffle(99);
        assert_eq!(d.x, d2.x);
        // Different seed gives a different order (overwhelmingly likely).
        let mut d3 = toy();
        d3.shuffle(100);
        assert_ne!(d.x, d3.x);
    }

    #[test]
    fn split_fractions() {
        let d = toy();
        let (train, test) = d.split(0.3);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(train.features(), 3);
    }

    #[test]
    fn standardize_zero_mean_unit_var() {
        let mut d = toy();
        d.standardize();
        for j in 0..d.features() {
            let col = d.x.col(j);
            let mean: f32 = col.iter().sum::<f32>() / col.len() as f32;
            let var: f32 = col.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / col.len() as f32;
            assert!(mean.abs() < 1e-4, "col {j} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "col {j} var {var}");
        }
    }

    #[test]
    fn standardize_constant_column_no_nan() {
        let x = Matrix::full(5, 2, 3.0);
        let mut d = DenseDataset::new("const", x, Labels::Classes(vec![0; 5]));
        d.standardize();
        assert!(d.x.all_finite());
        assert!(d.x.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scale_to_unit_variance_preserves_zeros() {
        let x = Matrix::from_rows(&[&[0.0, 4.0], &[0.0, 0.0], &[3.0, 0.0]]);
        let mut d = DenseDataset::new("s", x, Labels::Classes(vec![0, 1, 0]));
        let before = d.sparsity();
        d.scale_to_unit_variance();
        assert_eq!(d.sparsity(), before);
        // Column RMS should be 1 after scaling.
        for j in 0..2 {
            let col = d.x.col(j);
            let rms = (col.iter().map(|v| v * v).sum::<f32>() / col.len() as f32).sqrt();
            assert!((rms - 1.0).abs() < 1e-4, "col {j} rms {rms}");
        }
    }

    #[test]
    fn multihot_labels() {
        let y = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        let l = Labels::MultiHot(y);
        assert_eq!(l.len(), 2);
        assert_eq!(l.num_classes(), 3);
        let s = l.slice(1, 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn sparsity_counts_zeros() {
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let d = DenseDataset::new("s", x, Labels::Classes(vec![0, 1]));
        assert!((d.sparsity() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn csr_view_roundtrips() {
        let x = Matrix::from_rows(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 3.0]]);
        let d = DenseDataset::new("s", x.clone(), Labels::Classes(vec![0, 1]));
        let csr = d.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.to_dense(), x);
    }

    #[test]
    fn as_targets_matches_variant() {
        let d = toy();
        match d.labels.as_targets() {
            hetero_nn::Targets::Classes(c) => assert_eq!(c.len(), 10),
            _ => panic!(),
        }
    }
}
