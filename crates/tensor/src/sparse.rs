//! Compressed sparse row (CSR) matrices and the two products sparse MLP
//! training needs.
//!
//! The paper processes every dataset "in dense format" (§VII-A) — even
//! real-sim at ~0.25% density. This module provides the alternative so the
//! trade-off is measurable: a CSR container plus
//!
//! - [`spmm_bias_into`] — `Z = X·W + b` with sparse `X` (the first-layer
//!   forward product; the layer stores `W` as `in×out`), and
//! - [`spmm_tn_scatter`] — `∇W = Xᵀ·δ` with sparse `X` (the first-layer
//!   weight gradient, accumulated row-contiguously in the same layout),
//!
//! which are exactly the two places sparsity pays off in a fully-connected
//! network (every later layer is dense). Both dispatch AVX2/scalar through
//! [`crate::simd::active_level`] like the dense kernels; the SIMD paths use
//! separate mul/add in scalar element order, so the two dispatch paths are
//! bit-identical.
//!
//! Three container shapes serve the kernels:
//!
//! - [`CsrMatrix`] — owning, serializable; holds a whole sparse dataset.
//! - [`CsrBatch`] — reusable per-batch scratch whose indptr/indices/values
//!   buffers grow only during warm-up (the sparse analogue of the dense
//!   batch `Matrix` the engines reuse).
//! - [`CsrView`] — a borrowed view served by both, and the input type every
//!   kernel takes.

use serde::{Deserialize, Serialize};

use crate::simd::{self, SimdLevel};
use crate::Matrix;

/// Compressed sparse row matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets into `indices`/`values`; length `rows + 1`.
    indptr: Vec<usize>,
    /// Column index of each stored value (ascending within a row).
    indices: Vec<u32>,
    /// Stored values.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from a dense matrix, storing entries with `|v| >= threshold`,
    /// always excluding exact zeros.
    ///
    /// The default call sites use `threshold = 0.0`, which keeps every
    /// non-zero entry and drops exact zeros — matching the "exact zeros are
    /// dropped" contract of `DenseDataset::to_csr`. A value exactly at a
    /// positive threshold is kept (`>=`, not `>`).
    pub fn from_dense(dense: &Matrix, threshold: f32) -> Self {
        // Lanes tested at once before the per-element filter. At bag-of-words
        // densities almost every group is all-zero, and OR-ing the bit
        // patterns with the sign shifted out (so `-0.0` counts as zero, NaN
        // does not) vectorizes where the per-element branch cannot. A group
        // that fails the test takes the exact per-element path, so the
        // output is the same for any group width.
        const GROUP: usize = 16;
        let (rows, cols) = dense.shape();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..rows {
            for (g, group) in dense.row(i).chunks(GROUP).enumerate() {
                if group.iter().fold(0, |acc, v| acc | (v.to_bits() << 1)) == 0 {
                    continue;
                }
                for (j, &v) in group.iter().enumerate() {
                    if v != 0.0 && v.abs() >= threshold {
                        indices.push((g * GROUP + j) as u32);
                        values.push(v);
                    }
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Build row-by-row from `(col, value)` entry iterators with ascending
    /// column indices within each row — the direct LIBSVM→CSR load path,
    /// which never materializes a dense matrix. Exact zeros are dropped.
    ///
    /// # Panics
    /// Panics on out-of-bounds or non-ascending column indices.
    pub fn from_row_entries<I, R>(cols: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = (u32, f32)>,
    {
        let mut indptr = vec![0];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for row in rows {
            let mut prev: i64 = -1;
            for (c, v) in row {
                assert!(
                    (c as usize) < cols,
                    "column {c} out of bounds (cols {cols})"
                );
                assert!(
                    c as i64 > prev,
                    "column indices must be ascending within a row"
                );
                prev = c as i64;
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        let rows = indptr.len() - 1;
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored (non-zero) entry count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of stored entries.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Borrowed [`CsrView`] of the whole matrix (the kernel input type).
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            rows: self.rows,
            cols: self.cols,
            indptr: &self.indptr,
            indices: &self.indices,
            values: &self.values,
        }
    }

    /// Iterate over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (s, e) = (self.indptr[i], self.indptr[i + 1]);
        self.indices[s..e]
            .iter()
            .zip(&self.values[s..e])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Convert back to dense.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Extract rows `start..end` as a new CSR matrix (the batch primitive).
    pub fn slice_rows(&self, start: usize, end: usize) -> CsrMatrix {
        assert!(start <= end && end <= self.rows, "row range");
        let (s, e) = (self.indptr[start], self.indptr[end]);
        let mut indptr: Vec<usize> = self.indptr[start..=end].to_vec();
        let base = indptr[0];
        indptr.iter_mut().for_each(|p| *p -= base);
        CsrMatrix {
            rows: end - start,
            cols: self.cols,
            indptr,
            indices: self.indices[s..e].to_vec(),
            values: self.values[s..e].to_vec(),
        }
    }

    /// Gather the listed rows (any order, repeats allowed) into a new CSR
    /// matrix in `O(nnz of the selection)` — equal to compressing the same
    /// rows gathered from the dense source, without touching it.
    ///
    /// # Panics
    /// Panics if a row index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let nnz = rows
            .iter()
            .map(|&r| self.indptr[r + 1] - self.indptr[r])
            .sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for &r in rows {
            let (s, e) = (self.indptr[r], self.indptr[r + 1]);
            indices.extend_from_slice(&self.indices[s..e]);
            values.extend_from_slice(&self.values[s..e]);
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: rows.len(),
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Copy rows `start..end` into a reusable [`CsrBatch`] — the
    /// allocation-free batch primitive (buffers grow only while warming up
    /// to the largest batch nnz).
    pub fn slice_rows_into(&self, start: usize, end: usize, out: &mut CsrBatch) {
        assert!(start <= end && end <= self.rows, "row range");
        let (s, e) = (self.indptr[start], self.indptr[end]);
        out.cols = self.cols;
        out.indptr.clear();
        out.indptr
            .extend(self.indptr[start..=end].iter().map(|p| p - s));
        out.indices.clear();
        out.indices.extend_from_slice(&self.indices[s..e]);
        out.values.clear();
        out.values.extend_from_slice(&self.values[s..e]);
    }

    /// `Z ← X·W` where `X` is this sparse `rows×cols` matrix and `W` is a
    /// **dense `cols×out`** matrix (layer 0's weight layout).
    ///
    /// Complexity `O(nnz · out)` versus `O(rows · cols · out)` dense — the
    /// win is exactly the sparsity factor. Allocates the output; the hot
    /// training path uses [`spmm_bias_into`].
    pub fn spmm(&self, w: &Matrix) -> Matrix {
        let mut z = Matrix::zeros(0, 0);
        spmm_bias_into(self.view(), w, &[], &mut z);
        z
    }

    /// `∇W ← Xᵀ·δ` where `X` is this sparse matrix and `δ` is dense
    /// `rows×out`; the result is `cols×out` (layer 0's weight layout).
    ///
    /// Allocates the result; the hot training path uses
    /// [`spmm_tn_scatter`] into the workspace gradient.
    pub fn spmm_tn(&self, delta: &Matrix) -> Matrix {
        assert_eq!(delta.rows(), self.rows, "spmm_tn row count");
        let mut grad = Matrix::zeros(self.cols, delta.cols());
        spmm_tn_scatter(self.view(), delta, &mut grad);
        grad
    }
}

/// Borrowed CSR view — the input type of every sparse kernel, served by
/// both [`CsrMatrix::view`] and [`CsrBatch::view`].
#[derive(Clone, Copy, Debug)]
pub struct CsrView<'a> {
    rows: usize,
    cols: usize,
    indptr: &'a [usize],
    indices: &'a [u32],
    values: &'a [f32],
}

impl<'a> CsrView<'a> {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored (non-zero) entry count.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column index of every stored entry, row-major (ascending per row).
    #[inline]
    pub fn indices(&self) -> &'a [u32] {
        self.indices
    }

    /// Iterate over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + 'a {
        let (s, e) = (self.indptr[i], self.indptr[i + 1]);
        self.indices[s..e]
            .iter()
            .zip(&self.values[s..e])
            .map(|(&c, &v)| (c as usize, v))
    }
}

/// Reusable CSR batch scratch: the sparse analogue of the dense batch
/// `Matrix` the training engines reuse across steps, filled by
/// [`CsrMatrix::slice_rows_into`]. The indptr/indices/values buffers keep
/// their capacity across refills, so those are allocation-free once warmed
/// up to the largest batch nnz.
#[derive(Debug, Clone, Default)]
pub struct CsrBatch {
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrBatch {
    /// Empty batch with no reserved capacity (buffers grow during warm-up).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows in the current batch.
    pub fn rows(&self) -> usize {
        self.indptr.len().saturating_sub(1)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored (non-zero) entry count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Borrowed [`CsrView`] of the current batch.
    pub fn view(&self) -> CsrView<'_> {
        // A never-filled batch has an empty indptr; present it as 0 rows.
        const EMPTY: &[usize] = &[0];
        CsrView {
            rows: self.rows(),
            cols: self.cols,
            indptr: if self.indptr.is_empty() {
                EMPTY
            } else {
                &self.indptr
            },
            indices: &self.indices,
            values: &self.values,
        }
    }

    /// Σ of buffer capacities in elements — used by workspace reuse
    /// debug-assertions to detect unexpected reallocation.
    pub fn capacity_fingerprint(&self) -> usize {
        self.indptr.capacity() + self.indices.capacity() + self.values.capacity()
    }

    /// Pre-reserve buffer capacity for `rows` rows and `nnz` stored entries.
    pub fn reserve(&mut self, rows: usize, nnz: usize) {
        self.indptr.reserve(rows + 1);
        self.indices.reserve(nnz);
        self.values.reserve(nnz);
    }
}

/// `Z ← X·W + b` — the sparse first-layer forward product.
///
/// `w` is dense `x.cols()×out` (stored input-major, so each CSR entry
/// touches one contiguous `w` row); `bias` has length `out`, or
/// is empty to mean all-zero. `z` is reshaped to `x.rows()×out` and fully
/// overwritten (allocation-free once its capacity suffices). Complexity
/// `O(nnz·out)`. Both dispatch paths are bit-identical (separate mul/add in
/// scalar element order — no FMA).
pub fn spmm_bias_into(x: CsrView<'_>, w: &Matrix, bias: &[f32], z: &mut Matrix) {
    assert_eq!(w.rows(), x.cols(), "spmm inner dimension");
    let out = w.cols();
    assert!(
        bias.is_empty() || bias.len() == out,
        "spmm bias width mismatch"
    );
    let rows = x.rows();
    z.resize(rows, out);
    if out == 0 {
        return;
    }
    match simd::active_level() {
        SimdLevel::Avx2 => simd::spmm_csr(
            x.indptr,
            x.indices,
            x.values,
            w.as_slice(),
            bias,
            out,
            z.as_mut_slice(),
        ),
        SimdLevel::Scalar => {
            for r in 0..rows {
                let zr = z.row_mut(r);
                if bias.is_empty() {
                    zr.fill(0.0);
                } else {
                    zr.copy_from_slice(bias);
                }
                let (s, e) = (x.indptr[r], x.indptr[r + 1]);
                for (&c, &v) in x.indices[s..e].iter().zip(&x.values[s..e]) {
                    let wr = w.row(c as usize);
                    for (zo, wv) in zr.iter_mut().zip(wr) {
                        *zo += v * wv;
                    }
                }
            }
        }
    }
}

/// `grad[c,:] += v·δ[r,:]` for every stored `(r,c,v)` of `x` — the
/// first-layer weight gradient `∇W = Xᵀ·δ` in its `in×out` storage,
/// accumulated row-contiguously so the inner loop is a unit-stride axpy.
///
/// `grad` must be `x.cols()×delta.cols()`; only rows whose column index
/// appears in `x` are touched, and the **caller must pre-zero those rows**
/// (the workspace re-zeroes the previous batch's rows — rows outside the
/// batch are neither read nor written, which is what makes the row-sparse
/// merge lossless). Both dispatch paths are bit-identical.
pub fn spmm_tn_scatter(x: CsrView<'_>, delta: &Matrix, grad: &mut Matrix) {
    assert_eq!(delta.rows(), x.rows(), "spmm_tn row count");
    assert_eq!(
        grad.shape(),
        (x.cols(), delta.cols()),
        "spmm_tn output shape"
    );
    let out = delta.cols();
    if out == 0 {
        return;
    }
    match simd::active_level() {
        SimdLevel::Avx2 => simd::spmm_tn_csr(
            x.indptr,
            x.indices,
            x.values,
            delta.as_slice(),
            out,
            grad.as_mut_slice(),
        ),
        SimdLevel::Scalar => {
            for r in 0..x.rows() {
                let d = delta.row(r);
                let (s, e) = (x.indptr[r], x.indptr[r + 1]);
                for (&c, &v) in x.indices[s..e].iter().zip(&x.values[s..e]) {
                    let g = grad.row_mut(c as usize);
                    for (go, dv) in g.iter_mut().zip(d) {
                        *go += v * dv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;
    use crate::simd::with_level;

    fn sample_dense() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[0.0, 3.0, 0.0, 4.0],
        ])
    }

    #[test]
    fn from_dense_roundtrip() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 4);
        assert!((s.density() - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn row_iter_yields_sorted_pairs() {
        let s = CsrMatrix::from_dense(&sample_dense(), 0.0);
        let row0: Vec<_> = s.row_iter(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(s.row_iter(1).count(), 0);
        let v = s.view();
        assert_eq!(v.row_iter(0).collect::<Vec<_>>(), row0);
        assert_eq!((v.rows(), v.cols(), v.nnz()), (3, 4, 4));
    }

    #[test]
    fn slice_rows_matches_dense_slice() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d, 0.0);
        let sl = s.slice_rows(1, 3);
        assert_eq!(sl.to_dense(), d.slice_rows(1, 3));
        assert_eq!(sl.nnz(), 2);
    }

    #[test]
    fn slice_rows_into_reuses_batch_buffers() {
        let s = CsrMatrix::from_dense(&sample_dense(), 0.0);
        let mut batch = CsrBatch::new();
        s.slice_rows_into(0, 3, &mut batch); // warm up to the full matrix
        assert_eq!(batch.view().rows(), 3);
        assert_eq!(batch.nnz(), 4);
        let fp = batch.capacity_fingerprint();
        s.slice_rows_into(1, 3, &mut batch); // smaller slice: no growth
        assert_eq!(batch.capacity_fingerprint(), fp);
        assert_eq!(batch.rows(), 2);
        let expect = s.slice_rows(1, 3);
        let got: Vec<Vec<(usize, f32)>> =
            (0..2).map(|i| batch.view().row_iter(i).collect()).collect();
        let want: Vec<Vec<(usize, f32)>> = (0..2).map(|i| expect.row_iter(i).collect()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn never_filled_batch_is_a_valid_empty_view() {
        let b = CsrBatch::new();
        assert_eq!((b.rows(), b.nnz()), (0, 0));
        assert_eq!(b.view().rows(), 0);
    }

    #[test]
    fn from_row_entries_builds_directly() {
        let s = CsrMatrix::from_row_entries(
            4,
            vec![
                vec![(0u32, 1.0f32), (2, 2.0)],
                vec![(1, 0.0)], // exact zero dropped
                vec![(1, 3.0), (3, 4.0)],
            ],
        );
        assert_eq!(s.to_dense(), sample_dense());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_row_entries_rejects_unsorted() {
        CsrMatrix::from_row_entries(4, vec![vec![(2u32, 1.0f32), (1, 2.0)]]);
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let x = sample_dense();
        let sx = CsrMatrix::from_dense(&x, 0.0);
        let w = Matrix::from_fn(4, 5, |i, j| ((i * 5 + j) as f32 * 0.3).sin());
        let sparse_z = sx.spmm(&w);
        let mut dense_z = Matrix::zeros(3, 5);
        gemm::gemm_nn(1.0, &x, &w, 0.0, &mut dense_z);
        assert!(sparse_z.approx_eq(&dense_z, 1e-5));
    }

    #[test]
    fn spmm_tn_matches_dense_gemm() {
        let x = sample_dense();
        let sx = CsrMatrix::from_dense(&x, 0.0);
        let delta = Matrix::from_fn(3, 6, |i, j| ((i + j) as f32 * 0.7).cos());
        let sparse_g = sx.spmm_tn(&delta);
        let mut dense_g = Matrix::zeros(4, 6);
        gemm::gemm_tn(1.0, &x, &delta, 0.0, &mut dense_g);
        assert!(sparse_g.approx_eq(&dense_g, 1e-5));
    }

    #[test]
    fn spmm_bias_into_adds_bias() {
        let x = sample_dense();
        let sx = CsrMatrix::from_dense(&x, 0.0);
        let w = Matrix::from_fn(4, 5, |i, j| ((i * 5 + j) as f32 * 0.3).sin());
        let bias: Vec<f32> = (0..5).map(|j| j as f32 * 0.1).collect();
        let mut z = Matrix::zeros(0, 0);
        spmm_bias_into(sx.view(), &w, &bias, &mut z);
        let mut expect = sx.spmm(&w);
        crate::ops::add_row_broadcast(&mut expect, &bias);
        assert!(z.approx_eq(&expect, 1e-6));
    }

    /// The sparse kernels are linear (mul+add in scalar order), so the two
    /// dispatch paths must agree bit-for-bit — same contract as the dense
    /// linear kernels.
    #[test]
    fn sparse_dispatch_paths_bit_identical() {
        let x = Matrix::from_fn(17, 43, |i, j| {
            if (i * 5 + j * 11) % 7 == 0 {
                ((i + 2 * j) as f32 * 0.13).sin()
            } else {
                0.0
            }
        });
        let sx = CsrMatrix::from_dense(&x, 0.0);
        // Odd `out` widths exercise the vector tail.
        for out in [1usize, 8, 19] {
            let w = Matrix::from_fn(43, out, |i, j| ((i * out + j) as f32 * 0.07).cos());
            let bias: Vec<f32> = (0..out).map(|j| (j as f32 * 0.3).sin()).collect();
            let delta = Matrix::from_fn(17, out, |i, j| ((i * out + j) as f32 * 0.11).sin());
            let run = |lvl| {
                with_level(lvl, || {
                    let mut z = Matrix::zeros(0, 0);
                    spmm_bias_into(sx.view(), &w, &bias, &mut z);
                    let mut gt = Matrix::zeros(43, out);
                    spmm_tn_scatter(sx.view(), &delta, &mut gt);
                    (z, gt)
                })
            };
            let (zs, gs) = run(SimdLevel::Scalar);
            let (zv, gv) = run(SimdLevel::Avx2);
            assert_eq!(zs.as_slice(), zv.as_slice(), "spmm out={out}");
            assert_eq!(gs.as_slice(), gv.as_slice(), "spmm_tn out={out}");
        }
    }

    #[test]
    fn threshold_filters_small_entries() {
        let d = Matrix::from_rows(&[&[0.05, 1.0, -0.02]]);
        let s = CsrMatrix::from_dense(&d, 0.1);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.to_dense().get(0, 1), 1.0);
    }

    /// Pin the `>=`-exclusive-of-zero threshold contract: a value exactly at
    /// the threshold is kept, and exact zeros are dropped even at
    /// `threshold = 0.0`.
    #[test]
    fn threshold_keeps_exact_value_and_drops_zero() {
        let d = Matrix::from_rows(&[&[0.1, -0.1, 0.0, 0.2]]);
        let s = CsrMatrix::from_dense(&d, 0.1);
        assert_eq!(s.nnz(), 3, "values exactly at the threshold must be kept");
        assert_eq!(s.to_dense(), d);
        let z = CsrMatrix::from_dense(&Matrix::zeros(2, 2), 0.0);
        assert_eq!(z.nnz(), 0, "exact zeros are dropped at threshold 0");
    }

    /// The zero-group skip is only a shortcut: for every row width around
    /// the group size, with `-0.0`, NaN, ±Inf and sub-threshold entries in
    /// otherwise empty groups, the result equals the plain per-element
    /// filter.
    #[test]
    fn from_dense_group_skip_matches_per_element_filter() {
        let specials = [
            -0.0f32,
            f32::NAN,
            f32::INFINITY,
            -1.0e-3,
            0.5,
            -2.0,
            1.0e-40,
        ];
        for cols in [1usize, 15, 16, 17, 31, 32, 33, 50] {
            let d = Matrix::from_fn(9, cols, |i, j| {
                // Rows 0–6 hold one special value each at a moving column;
                // row 7 is dense, row 8 empty.
                match i {
                    7 => (j as f32 + 1.0) * 0.25,
                    8 => 0.0,
                    _ if j == (i * 7 + cols / 2) % cols => specials[i],
                    _ => 0.0,
                }
            });
            for threshold in [0.0f32, 0.01, 1.0] {
                let got = CsrMatrix::from_dense(&d, threshold);
                let mut want = vec![Vec::new(); 9];
                for (i, row) in want.iter_mut().enumerate() {
                    for (j, &v) in d.row(i).iter().enumerate() {
                        if v != 0.0 && v.abs() >= threshold {
                            row.push((j, v.to_bits()));
                        }
                    }
                }
                for (i, row) in want.iter().enumerate() {
                    let have: Vec<_> = got.row_iter(i).map(|(j, v)| (j, v.to_bits())).collect();
                    assert_eq!(&have, row, "cols={cols} threshold={threshold} row={i}");
                }
                assert_eq!((got.rows(), got.cols()), (9, cols));
            }
        }
    }

    #[test]
    fn select_rows_equals_compressing_the_gathered_dense_rows() {
        let d = Matrix::from_fn(12, 21, |i, j| {
            if (i * 5 + j * 3) % 7 == 0 {
                (i * 21 + j) as f32 * 0.5 - 3.0
            } else {
                0.0
            }
        });
        let s = CsrMatrix::from_dense(&d, 0.0);
        // Ascending subset (the eval subset's shape), then unsorted with a
        // repeat and an empty selection.
        for rows in [vec![1usize, 4, 5, 11], vec![7, 0, 7, 3], vec![]] {
            let mut gathered = Matrix::zeros(rows.len(), d.cols());
            for (i, &r) in rows.iter().enumerate() {
                gathered.row_mut(i).copy_from_slice(d.row(r));
            }
            assert_eq!(s.select_rows(&rows), CsrMatrix::from_dense(&gathered, 0.0));
        }
    }

    #[test]
    fn empty_matrix_ok() {
        let s = CsrMatrix::from_dense(&Matrix::zeros(0, 0), 0.0);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.density(), 0.0);
    }
}
