//! In-memory dataset.
//!
//! The paper processes every dataset "in dense format" (§VII-A); here a
//! dataset keeps its features in whichever format it was built in. Dense
//! sources (covtype, a parsed file run through [`crate::libsvm::densify`])
//! are a row-major [`Matrix`]; sparse ones (the `density < 1` synthetic
//! stand-ins, [`crate::libsvm::sparsify`]) are CSR from birth, so a
//! bag-of-words dataset like real-sim is never dense in memory unless a
//! caller asks for dense rows ([`DenseDataset::batch`]).

use hetero_tensor::{CsrMatrix, Matrix};
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

/// A dataset: features plus labels.
///
/// The features live in one private store, chosen when the dataset is
/// built: a dense row-major [`Matrix`] ([`new`](Self::new)) or a
/// [`CsrMatrix`] ([`from_csr`](Self::from_csr)) — what the sparse
/// generators and [`crate::libsvm::sparsify`] produce. Every method gives
/// the same answer on either store; a caller that wants the CSR store
/// itself asks [`csr_store`](Self::csr_store), so there is never a second
/// copy of the features to fall out of step with the first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DenseDataset {
    /// Feature matrix, `examples × features`.
    x: Features,
    /// Labels, one entry/row per example.
    pub labels: Labels,
    /// Human-readable dataset name.
    pub name: String,
}

/// The one store of a dataset's features.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Features {
    Dense(Matrix),
    Csr(CsrMatrix),
}

impl Features {
    fn rows(&self) -> usize {
        match self {
            Features::Dense(m) => m.rows(),
            Features::Csr(m) => m.rows(),
        }
    }

    fn cols(&self) -> usize {
        match self {
            Features::Dense(m) => m.cols(),
            Features::Csr(m) => m.cols(),
        }
    }

    /// Rows `start..end`, in the same store.
    fn slice_rows(&self, start: usize, end: usize) -> Features {
        match self {
            Features::Dense(m) => Features::Dense(m.slice_rows(start, end)),
            Features::Csr(m) => Features::Csr(m.slice_rows(start, end)),
        }
    }

    /// Row `i`, dense, into `out` (`cols` long).
    fn row_into(&self, i: usize, out: &mut [f32]) {
        match self {
            Features::Dense(m) => out.copy_from_slice(m.row(i)),
            Features::Csr(m) => {
                // `hetero_densify_stale` is a mutation switch for
                // `scripts/check_mutation.sh`: a reused buffer keeps the
                // entries of the row it held before.
                if !cfg!(hetero_densify_stale) {
                    out.fill(0.0);
                }
                for (c, v) in m.row_iter(i) {
                    out[c] = v;
                }
            }
        }
    }

    /// Visit every stored `(column, value)` in row order — the order the
    /// dense column sums run in. A dense store visits its zeros too, which
    /// add nothing to a sum of values or of squares.
    fn for_each_entry(&self, mut f: impl FnMut(usize, f32)) {
        match self {
            Features::Dense(m) => {
                for r in m.rows_iter() {
                    r.iter().enumerate().for_each(|(c, &v)| f(c, v));
                }
            }
            Features::Csr(m) => {
                for i in 0..m.rows() {
                    m.row_iter(i).for_each(|(c, v)| f(c, v));
                }
            }
        }
    }
}

/// Equal when names, labels and every feature value agree, whichever
/// store holds the features.
impl PartialEq for DenseDataset {
    fn eq(&self, other: &Self) -> bool {
        let features = match (&self.x, &other.x) {
            (Features::Dense(a), Features::Dense(b)) => a == b,
            (Features::Csr(a), Features::Csr(b)) => a == b,
            _ => self.batch(0, self.len()).0 == other.batch(0, other.len()).0,
        };
        self.name == other.name && self.labels == other.labels && features
    }
}

impl DenseDataset {
    /// Construct from a dense feature matrix, validating that features and
    /// labels agree.
    ///
    /// # Panics
    /// Panics if row counts disagree.
    pub fn new(name: impl Into<String>, x: Matrix, labels: Labels) -> Self {
        Self::stored(name, Features::Dense(x), labels)
    }

    /// Construct from a CSR feature matrix, which becomes the dataset's
    /// store: nothing dense is ever built from it unless a caller asks for
    /// dense rows.
    ///
    /// # Panics
    /// Panics if row counts disagree.
    pub fn from_csr(name: impl Into<String>, x: CsrMatrix, labels: Labels) -> Self {
        Self::stored(name, Features::Csr(x), labels)
    }

    fn stored(name: impl Into<String>, x: Features, labels: Labels) -> Self {
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

    /// The CSR store itself, when the features are stored that way
    /// (`None` for a dense store).
    pub fn csr_store(&self) -> Option<&CsrMatrix> {
        match &self.x {
            Features::Csr(m) => Some(m),
            Features::Dense(_) => None,
        }
    }

    /// Batch view: features (dense) and labels for rows `start..end`.
    pub fn batch(&self, start: usize, end: usize) -> (Matrix, Labels) {
        let x = match self.x.slice_rows(start, end) {
            Features::Dense(m) => m,
            Features::Csr(m) => m.to_dense(),
        };
        (x, self.labels.slice(start, end))
    }

    /// Copy rows `start..end` into reused buffers, densifying CSR rows —
    /// the allocation-free counterpart of [`batch`](Self::batch): once
    /// `x`/`labels` have served a batch at least this large, subsequent
    /// calls allocate nothing.
    pub fn batch_into(&self, start: usize, end: usize, x: &mut Matrix, labels: &mut Labels) {
        x.resize(end - start, self.features());
        self.rows_into(start..end, x);
        self.labels.slice_into(start, end, labels);
    }

    /// Dense features of the listed rows (any order, repeats allowed),
    /// stacked in the order given.
    pub fn gather(&self, rows: &[usize]) -> Matrix {
        let mut x = Matrix::zeros(rows.len(), self.features());
        self.rows_into(rows.iter().copied(), &mut x);
        x
    }

    /// `f(column, value)` for every non-zero feature of row `i`, in
    /// ascending column order, until `f` fails.
    pub(crate) fn try_for_each_nonzero<E>(
        &self,
        i: usize,
        mut f: impl FnMut(usize, f32) -> Result<(), E>,
    ) -> Result<(), E> {
        match &self.x {
            Features::Dense(m) => (m.row(i).iter().enumerate())
                .filter(|(_, &v)| v != 0.0)
                .try_for_each(|(c, &v)| f(c, v)),
            Features::Csr(m) => m.row_iter(i).try_for_each(|(c, v)| f(c, v)),
        }
    }

    /// The dense features of `rows`, stacked into `x`, already shaped
    /// `rows × features`.
    fn rows_into(&self, rows: impl Iterator<Item = usize>, x: &mut Matrix) {
        for (i, r) in rows.enumerate() {
            self.x.row_into(r, x.row_mut(i));
        }
    }

    /// Deterministically shuffle examples in place (Fisher–Yates on a
    /// permutation, applied to features and labels together).
    pub fn shuffle(&mut self, seed: u64) {
        let mut perm: Vec<usize> = (0..self.len()).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(seed));
        match &mut self.x {
            Features::Dense(m) => permute_rows(m, &perm),
            Features::Csr(m) => *m = m.select_rows(&perm),
        }
        self.labels = self.labels.permute(&perm);
    }

    /// Split into (train, test) with `test_fraction` of the tail held out;
    /// both halves keep this dataset's store.
    pub fn split(&self, test_fraction: f32) -> (DenseDataset, DenseDataset) {
        assert!((0.0..1.0).contains(&test_fraction), "fraction in [0,1)");
        let n_test = (self.len() as f32 * test_fraction).round() as usize;
        let n_train = self.len() - n_test;
        let part = |start: usize, end: usize, suffix: &str| DenseDataset {
            x: self.x.slice_rows(start, end),
            labels: self.labels.slice(start, end),
            name: format!("{}-{suffix}", self.name),
        };
        (part(0, n_train, "train"), part(n_train, self.len(), "test"))
    }

    /// Scale every feature column to zero mean / unit variance (in place).
    /// Constant columns are left centered at zero.
    ///
    /// Centring fills the zeros in, so a CSR store becomes dense here. Its
    /// sums run over the same values in the same row order as on a dense
    /// store (each CSR row densified into one reused row), and the dense
    /// matrix is written once, already standardized, so the result is bit
    /// for bit the dense store's.
    pub fn standardize(&mut self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let d = self.features();
        let mut mean = vec![0.0f64; d];
        self.x.for_each_entry(|c, v| mean[c] += v as f64);
        mean.iter_mut().for_each(|m| *m /= n as f64);
        let mut var = vec![0.0f64; d];
        let mut add_row = |r: &[f32]| {
            for ((s, v), m) in var.iter_mut().zip(r).zip(&mean) {
                let c = *v as f64 - m;
                *s += c * c;
            }
        };
        match &self.x {
            Features::Dense(x) => x.rows_iter().for_each(add_row),
            Features::Csr(_) => {
                let mut row = vec![0.0f32; d];
                for i in 0..n {
                    self.x.row_into(i, &mut row);
                    add_row(&row);
                }
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
        match &mut self.x {
            Features::Dense(x) => {
                for r in x.as_mut_slice().chunks_exact_mut(d) {
                    for ((v, m), s) in r.iter_mut().zip(&mean32).zip(&inv_std) {
                        *v = (*v - m) * s;
                    }
                }
            }
            Features::Csr(csr) => {
                // Every unstored entry of a column standardizes to the same
                // value, computed as the dense pass computes it.
                let zero: Vec<f32> = (mean32.iter().zip(&inv_std))
                    .map(|(m, s)| (0.0 - m) * s)
                    .collect();
                let mut x = Vec::with_capacity(n * d);
                for i in 0..n {
                    let start = x.len();
                    x.extend_from_slice(&zero);
                    let row = &mut x[start..];
                    for (c, v) in csr.row_iter(i) {
                        row[c] = (v - mean32[c]) * inv_std[c];
                    }
                }
                self.x = Features::Dense(Matrix::from_vec(n, d, x));
            }
        }
    }

    /// Scale every feature column to unit variance **without centering**
    /// (in place). This preserves sparsity — the right normalization for
    /// bag-of-words-like data where zero means "absent" — and a CSR store
    /// stays CSR.
    pub fn scale_to_unit_variance(&mut self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let mut sq = vec![0.0f64; self.features()];
        self.x
            .for_each_entry(|c, v| sq[c] += (v as f64) * (v as f64));
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
        match &mut self.x {
            Features::Dense(x) => {
                for r in x.as_mut_slice().chunks_exact_mut(inv_rms.len()) {
                    for (v, s) in r.iter_mut().zip(&inv_rms) {
                        *v *= s;
                    }
                }
            }
            Features::Csr(x) => x.scale_cols(&inv_rms),
        }
    }

    /// Compressed-sparse-row copy of the feature matrix (exact zeros are
    /// dropped): a compression of a dense store, a clone of a CSR one.
    /// Pairs with the CSR input of [`hetero_nn::Workspace`] for bag-of-words
    /// datasets like real-sim.
    pub fn to_csr(&self) -> CsrMatrix {
        match &self.x {
            Features::Dense(m) => CsrMatrix::from_dense(m, 0.0),
            Features::Csr(m) => m.clone(),
        }
    }

    /// Density of the features (non-zeros of a dense store, stored entries
    /// of a CSR one, over `examples × features`) if it is at most `bound`.
    /// A dense store stops counting at the row where its count passes
    /// `bound`, so dense data pays a partial scan, not a full one.
    pub fn density_at_most(&self, bound: f64) -> Option<f64> {
        let total = (self.len() * self.features()).max(1) as f64;
        let nnz = match &self.x {
            Features::Csr(m) => m.nnz(),
            Features::Dense(m) => m.rows_iter().try_fold(0, |nnz, r| {
                let nnz = nnz + r.iter().filter(|&&v| v != 0.0).count();
                (nnz as f64 / total <= bound).then_some(nnz)
            })?,
        };
        Some(nnz as f64 / total).filter(|&density| density <= bound)
    }
}

/// Reorder `m`'s rows in place so row `i` becomes old row `perm[i]`: each
/// cycle of the permutation is walked once with one row saved aside, so no
/// second matrix is allocated.
fn permute_rows(m: &mut Matrix, perm: &[usize]) {
    let d = m.cols();
    let mut placed = vec![false; perm.len()];
    let mut saved = vec![0.0f32; d];
    for start in 0..perm.len() {
        if placed[start] {
            continue;
        }
        saved.copy_from_slice(m.row(start));
        let mut i = start;
        while perm[i] != start {
            let src = perm[i];
            m.as_mut_slice().copy_within(src * d..(src + 1) * d, i * d);
            placed[i] = true;
            i = src;
        }
        m.row_mut(i).copy_from_slice(&saved);
        placed[i] = true;
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

    /// The whole feature matrix, dense.
    fn dense(d: &DenseDataset) -> Matrix {
        d.batch(0, d.len()).0
    }

    /// The same ~⅓-dense data in both stores; neighbouring rows store
    /// different columns.
    fn both_stores() -> (DenseDataset, DenseDataset) {
        let x = Matrix::from_fn(12, 5, |i, j| {
            if (i + j) % 3 == 0 {
                (i * 5 + j) as f32 * 0.5 - 7.0
            } else {
                0.0
            }
        });
        let labels = Labels::Classes((0..12).map(|i| (i % 3) as u32).collect());
        let csr = CsrMatrix::from_dense(&x, 0.0);
        (
            DenseDataset::new("s", x, labels.clone()),
            DenseDataset::from_csr("s", csr, labels),
        )
    }

    /// Bitwise equality of the dense views (`==` on `f32` would let
    /// `-0.0` pass for `0.0`).
    fn same_bits(a: &DenseDataset, b: &DenseDataset) -> bool {
        let bits = |d: &DenseDataset| -> Vec<u32> {
            dense(d).as_slice().iter().map(|v| v.to_bits()).collect()
        };
        a.labels == b.labels && bits(a) == bits(b)
    }

    #[test]
    fn csr_store_answers_like_the_dense_store() {
        let (on_dense, on_csr) = both_stores();
        assert!(on_dense.csr_store().is_none());
        assert_eq!(on_csr.csr_store(), Some(&on_dense.to_csr()));
        assert_eq!(on_csr, on_dense);
        assert_eq!((on_csr.len(), on_csr.features()), (12, 5));
        assert_eq!(on_csr.to_csr(), on_dense.to_csr());
        let rows = [7, 0, 7, 11, 3];
        assert_eq!(on_csr.gather(&rows), on_dense.gather(&rows));

        let (mut a, mut b) = (on_dense.clone(), on_csr.clone());
        a.shuffle(5);
        b.shuffle(5);
        assert!(b.csr_store().is_some(), "shuffle keeps the store");
        assert!(same_bits(&a, &b));
        let ((a_train, a_test), (b_train, b_test)) = (a.split(0.25), b.split(0.25));
        assert!(b_train.csr_store().is_some() && b_test.csr_store().is_some());
        assert!(same_bits(&a_train, &b_train) && same_bits(&a_test, &b_test));
        assert_eq!((b_train.name.as_str(), b_test.len()), ("s-train", 3));

        let (mut a, mut b) = (on_dense.clone(), on_csr.clone());
        a.scale_to_unit_variance();
        b.scale_to_unit_variance();
        assert!(b.csr_store().is_some(), "scaling keeps the store");
        assert!(same_bits(&a, &b));

        let (mut a, mut b) = (on_dense.clone(), on_csr.clone());
        a.standardize();
        b.standardize();
        assert!(b.csr_store().is_none(), "centring fills the zeros in");
        assert!(same_bits(&a, &b));
    }

    #[test]
    fn csr_batch_into_clears_the_reused_buffer() {
        let (on_dense, on_csr) = both_stores();
        let mut x = Matrix::zeros(0, 0);
        let mut labels = Labels::Classes(Vec::new());
        // Each batch puts rows into buffer rows that held other columns.
        for (s, e) in [(0, 6), (1, 7), (6, 12), (2, 4)] {
            on_csr.batch_into(s, e, &mut x, &mut labels);
            let (x_ref, l_ref) = on_dense.batch(s, e);
            assert_eq!(x, x_ref, "{s}..{e}");
            assert_eq!(labels, l_ref);
        }
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
            let orig_row = (dense(&d).get(i, 0) / 3.0) as u32;
            match &d.labels {
                Labels::Classes(v) => assert_eq!(v[i], orig_row % 2, "row {i} decoupled"),
                _ => panic!(),
            }
        }
        // Deterministic per seed.
        let mut d2 = toy();
        d2.shuffle(99);
        assert_eq!(d, d2);
        // Different seed gives a different order (overwhelmingly likely).
        let mut d3 = toy();
        d3.shuffle(100);
        assert_ne!(dense(&d), dense(&d3));
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
            let col = dense(&d).col(j);
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
        let x = dense(&d);
        assert!(x.all_finite());
        assert!(x.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scale_to_unit_variance_preserves_zeros() {
        let x = Matrix::from_rows(&[&[0.0, 4.0], &[0.0, 0.0], &[3.0, 0.0]]);
        let mut d = DenseDataset::new("s", x, Labels::Classes(vec![0, 1, 0]));
        let before = d.density_at_most(1.0);
        d.scale_to_unit_variance();
        assert_eq!(d.density_at_most(1.0), before);
        // Column RMS should be 1 after scaling.
        for j in 0..2 {
            let col = dense(&d).col(j);
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
    fn density_is_the_same_on_either_store_and_stops_at_the_bound() {
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let d = DenseDataset::new("s", x, Labels::Classes(vec![0, 1]));
        assert_eq!(d.density_at_most(1.0), Some(0.25));
        let (on_dense, on_csr) = both_stores();
        let density = on_csr.csr_store().unwrap().density();
        assert!(density > 0.2 && density < 0.4, "{density}");
        for d in [&on_dense, &on_csr] {
            assert_eq!(d.density_at_most(1.0), Some(density));
            assert_eq!(d.density_at_most(density), Some(density));
            assert_eq!(d.density_at_most(density - 1e-9), None);
            assert_eq!(d.density_at_most(0.0), None);
        }
        let zeros = DenseDataset::new("z", Matrix::zeros(3, 4), Labels::Classes(vec![0; 3]));
        assert_eq!(zeros.density_at_most(0.0), Some(0.0));
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
