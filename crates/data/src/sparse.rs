//! In-memory CSR dataset — the sparse-native counterpart of
//! [`DenseDataset`].
//!
//! The paper processes everything dense (§VII-A), which for real-sim means
//! storing 20,958 features per example at ~0.25% density. This type keeps
//! the feature matrix in CSR instead, so a dataset that would need
//! gigabytes dense fits in tens of megabytes, and batches feed the sparse
//! training path ([`hetero_nn::Workspace::loss_and_gradient_into`])
//! directly — the dense matrix is never materialized, not even during
//! loading ([`crate::libsvm::sparsify`] builds the CSR straight from the
//! parsed LIBSVM rows).

use hetero_tensor::{CsrBatch, CsrMatrix};

use crate::dataset::{DenseDataset, Labels};

/// A sparse dataset: CSR feature matrix plus labels.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDataset {
    /// Feature matrix in CSR, `examples × features`.
    pub x: CsrMatrix,
    /// Labels, one entry/row per example.
    pub labels: Labels,
    /// Human-readable dataset name.
    pub name: String,
}

impl SparseDataset {
    /// Construct, validating that features and labels agree.
    ///
    /// # Panics
    /// Panics if row counts disagree.
    pub fn new(name: impl Into<String>, x: CsrMatrix, labels: Labels) -> Self {
        assert_eq!(x.rows(), labels.len(), "feature rows != label rows");
        SparseDataset {
            x,
            labels,
            name: name.into(),
        }
    }

    /// Compress a dense dataset (exact zeros dropped). For real sparse
    /// sources prefer [`crate::libsvm::sparsify`], which never builds the
    /// dense matrix in the first place.
    pub fn from_dense(dataset: &DenseDataset) -> Self {
        SparseDataset {
            x: dataset.to_csr(),
            labels: dataset.labels.clone(),
            name: dataset.name.clone(),
        }
    }

    /// Expand to a dense dataset (tests, parity checks).
    pub fn to_dense(&self) -> DenseDataset {
        DenseDataset::new(self.name.clone(), self.x.to_dense(), self.labels.clone())
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

    /// Fraction of stored (nonzero) feature entries.
    pub fn density(&self) -> f32 {
        let total = self.x.rows() * self.x.cols();
        if total == 0 {
            return 0.0;
        }
        self.x.nnz() as f32 / total as f32
    }

    /// Copy rows `start..end` into reused batch buffers — the sparse
    /// counterpart of [`DenseDataset::batch_into`]: once `x`/`labels` have
    /// served a batch at least this large, subsequent calls allocate
    /// nothing.
    pub fn batch_into(&self, start: usize, end: usize, x: &mut CsrBatch, labels: &mut Labels) {
        self.x.slice_rows_into(start, end, x);
        self.labels.slice_into(start, end, labels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_tensor::Matrix;

    fn toy() -> SparseDataset {
        let x = Matrix::from_fn(8, 5, |i, j| {
            if (i * 5 + j) % 3 == 0 {
                (i * 5 + j) as f32 + 1.0
            } else {
                0.0
            }
        });
        let labels = Labels::Classes((0..8).map(|i| (i % 2) as u32).collect());
        SparseDataset::from_dense(&DenseDataset::new("toy", x, labels))
    }

    #[test]
    fn construction_and_stats() {
        let d = toy();
        assert_eq!(d.len(), 8);
        assert_eq!(d.features(), 5);
        assert_eq!(d.num_classes(), 2);
        assert!(!d.is_empty());
        let expect = d.x.nnz() as f32 / 40.0;
        assert!((d.density() - expect).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn mismatched_rows_panic() {
        let x = CsrMatrix::from_dense(&Matrix::zeros(3, 2), 0.0);
        SparseDataset::new("bad", x, Labels::Classes(vec![0, 1]));
    }

    #[test]
    fn dense_roundtrip() {
        let d = toy();
        let dense = d.to_dense();
        let back = SparseDataset::from_dense(&dense);
        assert_eq!(d, back);
    }

    #[test]
    fn batch_into_matches_dense_batch() {
        let d = toy();
        let dense = d.to_dense();
        let mut batch = CsrBatch::new();
        let mut labels = Labels::Classes(Vec::new());
        for (s, e) in [(0, 8), (2, 6), (5, 5)] {
            d.batch_into(s, e, &mut batch, &mut labels);
            let (x_ref, l_ref) = dense.batch(s, e);
            assert_eq!(batch.rows(), e - s);
            let mut got = Matrix::zeros(e - s, d.features());
            let view = batch.view();
            for r in 0..view.rows() {
                for (c, v) in view.row_iter(r) {
                    got.set(r, c, v);
                }
            }
            assert_eq!(got, x_ref);
            assert_eq!(labels, l_ref);
        }
    }

    #[test]
    fn batch_into_is_allocation_free_when_warm() {
        let d = toy();
        let mut batch = CsrBatch::new();
        let mut labels = Labels::Classes(Vec::new());
        d.batch_into(0, 8, &mut batch, &mut labels);
        let fp = batch.capacity_fingerprint();
        for (s, e) in [(1, 7), (0, 8), (3, 4)] {
            d.batch_into(s, e, &mut batch, &mut labels);
            assert_eq!(batch.capacity_fingerprint(), fp, "batch buffers grew");
        }
    }
}
