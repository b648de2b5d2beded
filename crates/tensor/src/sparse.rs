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
//! network (every later layer is dense). [`spmm_block_into`] and
//! [`spmm_tn_block_scatter`] are the same products over one block of a
//! batch's columns ([`ColumnCuts`]), with only that block's rows of the
//! dense operand at hand; run block by block they store the whole
//! products' bits. All four dispatch through
//! [`crate::simd::active_level`] like the dense kernels — a 16-lane body at
//! AVX-512, an 8-lane one at AVX2, the portable loop otherwise; the SIMD
//! paths use separate mul/add in scalar element order, so every dispatch
//! path is bit-identical.
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

use crate::simd::{self, CsrRows, SimdLevel};
use crate::Matrix;

/// [`CsrMatrix::from_dense`]'s stored entries of `row` as bits of `keep`
/// (`keep[c / 64]`, bit `c % 64`): `v != 0 && |v| ≥ threshold`, so `±0.0`
/// and NaN never. Every dispatch level sets the same bits.
fn keep_mask(row: &[f32], threshold: f32, keep: &mut [u64]) {
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::keep_mask(row, threshold, keep),
        SimdLevel::Scalar => {
            keep.fill(0);
            for (c, &v) in row.iter().enumerate() {
                keep[c / 64] |= u64::from(v != 0.0 && v.abs() >= threshold) << (c % 64);
            }
        }
    }
}

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
        let (rows, cols) = dense.shape();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        // One bit per column of a row, set where the entry is stored: a
        // vector compare per 8 entries, then one step per stored
        // entry, in column order — no per-entry branch on the data.
        let mut keep = vec![0u64; cols.div_ceil(64)];
        for i in 0..rows {
            let row = dense.row(i);
            keep_mask(row, threshold, &mut keep);
            for (w, &word) in keep.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let c = w * 64 + word.trailing_zeros() as usize;
                    indices.push(c as u32);
                    values.push(row[c]);
                    word &= word - 1;
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

    /// Assemble from its three arrays: `indptr` (`rows + 1` offsets, from
    /// 0 to `nnz`, non-decreasing), and each stored entry's column
    /// (ascending within a row, below `cols`) and value. The path for a
    /// producer that writes rows straight into CSR and knows its size, as
    /// the sparse generators do.
    ///
    /// # Panics
    /// Panics if the arrays do not describe such a matrix.
    pub fn from_parts(
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indices.len(), values.len(), "one column per value");
        assert!(
            indptr.first() == Some(&0) && indptr.last() == Some(&indices.len()),
            "indptr must run from 0 to nnz"
        );
        for w in indptr.windows(2) {
            assert!(w[0] <= w[1], "indptr must be non-decreasing");
            let row = &indices[w[0]..w[1]];
            assert!(
                row.windows(2).all(|c| c[0] < c[1]),
                "column indices must be ascending within a row"
            );
            assert!(
                row.last().is_none_or(|&c| (c as usize) < cols),
                "column out of bounds (cols {cols})"
            );
        }
        CsrMatrix {
            rows: indptr.len() - 1,
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

    /// Multiply every stored entry of column `c` by `scale[c]`, in place:
    /// column scaling that keeps the sparsity pattern.
    ///
    /// # Panics
    /// Panics unless `scale` holds one factor per column.
    pub fn scale_cols(&mut self, scale: &[f32]) {
        assert_eq!(scale.len(), self.cols, "one factor per column");
        for (v, &c) in self.values.iter_mut().zip(&self.indices) {
            *v *= scale[c as usize];
        }
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
    /// `rows + 1` offsets into `indices`/`values`: row `r` is
    /// `indptr[r]..indptr[r + 1]`.
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
        self.indptr[self.rows] - self.indptr[0]
    }

    /// Column index of every stored entry, row-major (ascending per row).
    #[inline]
    pub fn indices(&self) -> &'a [u32] {
        &self.indices[self.indptr[0]..self.indptr[self.rows]]
    }

    /// Every row's entries, as the kernels walk them.
    fn entries(&self) -> CsrRows<'a> {
        CsrRows {
            lo: &self.indptr[..self.rows],
            hi: &self.indptr[1..=self.rows],
            indices: self.indices,
            values: self.values,
            c0: 0,
        }
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

    /// Renumber the batch's columns: every stored index `c` becomes
    /// `map(c)`, and the batch is `cols` wide. `map` must increase strictly
    /// over the indices present, so each row stays ascending, and land in
    /// `0..cols` — e.g. the rank of `c` among the columns the batch touches.
    pub fn renumber_cols(&mut self, cols: usize, map: impl Fn(u32) -> u32) {
        self.cols = cols;
        for c in &mut self.indices {
            *c = map(*c);
        }
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
    assert!(
        bias.is_empty() || bias.len() == w.cols(),
        "spmm bias width mismatch"
    );
    z.resize(x.rows(), w.cols());
    spmm_rows(x.entries(), w, Some(bias), z);
}

/// `Z ← Z + X_b·W_b`, or `Z ← X_b·W_b + bias` with `Some(bias)`: the
/// forward product of one block of a CSR batch's columns ([`CsrBlock`]),
/// `w` holding the block's weight rows (`block.cols() × out`). Run over
/// every block in order, the first with the bias, each pre-activation
/// receives its row's terms in ascending-column order, mul then add — the
/// bits [`spmm_bias_into`] stores for the whole batch.
///
/// # Panics
/// Panics if `w` is not `block.cols()` rows, or `z` is not
/// `block.rows() × w.cols()` without a bias.
pub fn spmm_block_into(x: CsrBlock<'_>, w: &Matrix, bias: Option<&[f32]>, z: &mut Matrix) {
    assert_eq!(w.rows(), x.cols, "spmm block inner dimension");
    match bias {
        Some(bias) => {
            assert!(bias.is_empty() || bias.len() == w.cols(), "spmm bias width");
            z.resize(x.rows(), w.cols());
        }
        None => assert_eq!(z.shape(), (x.rows(), w.cols()), "spmm block output"),
    }
    spmm_rows(x.rows, w, bias, z);
}

/// The one body of both forward products: `z[r,:] = init + Σ v·w[c,:]`.
fn spmm_rows(x: CsrRows<'_>, w: &Matrix, bias: Option<&[f32]>, z: &mut Matrix) {
    let out = w.cols();
    if out == 0 {
        return;
    }
    match simd::active_level() {
        SimdLevel::Avx512 => simd::spmm_csr_avx512(x, w.as_slice(), bias, out, z.as_mut_slice()),
        SimdLevel::Avx2 => simd::spmm_csr(x, w.as_slice(), bias, out, z.as_mut_slice()),
        SimdLevel::Scalar => {
            for r in 0..x.lo.len() {
                let zr = z.row_mut(r);
                match bias {
                    Some([]) => zr.fill(0.0),
                    Some(bias) => zr.copy_from_slice(bias),
                    None => {}
                }
                for (c, v) in x.entries_of(r) {
                    for (zo, wv) in zr.iter_mut().zip(w.row(c)) {
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
    let shape = (x.cols(), delta.cols());
    assert_eq!(grad.shape(), shape, "spmm_tn output shape");
    scatter_rows(x.entries(), delta, grad);
}

/// [`spmm_tn_scatter`] of one block of a CSR batch's columns into `grad`,
/// the block's `block.cols() × out` rows of the gradient: each gradient
/// row receives its terms in ascending batch-row order, mul then add — the
/// bits the whole batch's scatter stores there. The caller pre-zeroes it.
///
/// # Panics
/// Panics if `delta` is not `block.rows()` rows or `grad` not
/// `block.cols() × delta.cols()`.
pub fn spmm_tn_block_scatter(x: CsrBlock<'_>, delta: &Matrix, grad: &mut Matrix) {
    assert_eq!(delta.rows(), x.rows(), "spmm_tn block row count");
    let shape = (x.cols, delta.cols());
    assert_eq!(grad.shape(), shape, "spmm_tn block output shape");
    scatter_rows(x.rows, delta, grad);
}

/// The one body of both scatters.
fn scatter_rows(x: CsrRows<'_>, delta: &Matrix, grad: &mut Matrix) {
    let out = delta.cols();
    if out == 0 {
        return;
    }
    match simd::active_level() {
        SimdLevel::Avx512 => {
            simd::spmm_tn_csr_avx512(x, delta.as_slice(), out, grad.as_mut_slice())
        }
        SimdLevel::Avx2 => simd::spmm_tn_csr(x, delta.as_slice(), out, grad.as_mut_slice()),
        SimdLevel::Scalar => {
            for r in 0..x.lo.len() {
                let d = delta.row(r);
                for (c, v) in x.entries_of(r) {
                    for (go, dv) in grad.row_mut(c).iter_mut().zip(d) {
                        *go += v * dv;
                    }
                }
            }
        }
    }
}

/// A CSR batch's stored entries cut by column into consecutive blocks of
/// `per` columns — block `b` holds columns `b·per..(b + 1)·per` — so that a
/// product can hold one block of the dense operand's rows at a time. Cut
/// once per batch in `O(nnz + rows·blocks)`; each block is then a
/// [`CsrBlock`] of the same batch, no entry copied. A batch of one block
/// keeps no offsets of its own. Its buffer grows to the largest
/// `rows·(blocks + 1)` it was cut for and is reused after.
#[derive(Debug, Default)]
pub struct ColumnCuts {
    per: usize,
    rows: usize,
    blocks: usize,
    /// Block-major: `at[b·rows + r]` is where row `r`'s entries of block `b`
    /// start, `at[blocks·rows + r]` where its entries end.
    at: Vec<usize>,
}

impl ColumnCuts {
    /// No cut yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cut `x`'s columns into blocks of `per`.
    ///
    /// # Panics
    /// Panics if `per` is 0.
    pub fn cut(&mut self, x: CsrView<'_>, per: usize) {
        assert!(per > 0, "a block holds at least one column");
        let (rows, blocks) = (x.rows(), x.cols().div_ceil(per).max(1));
        (self.per, self.rows, self.blocks) = (per, rows, blocks);
        self.at.clear();
        if blocks == 1 {
            return;
        }
        self.at.resize((blocks + 1) * rows, 0);
        for r in 0..rows {
            let (mut p, end) = (x.indptr[r], x.indptr[r + 1]);
            for b in 0..blocks {
                self.at[b * rows + r] = p;
                let next = ((b + 1) * per) as u32;
                while p < end && x.indices[p] < next {
                    p += 1;
                }
            }
            self.at[blocks * rows + r] = end;
        }
    }

    /// How many blocks the last cut made (at least 1).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Block `b` of `x`, the batch last cut.
    ///
    /// # Panics
    /// Panics if `b` is not a block of the last cut, or `x` is not the
    /// batch it cut.
    pub fn block<'a>(&'a self, x: CsrView<'a>, b: usize) -> CsrBlock<'a> {
        assert!(
            b < self.blocks && x.rows() == self.rows,
            "block {b} of another cut"
        );
        let c0 = b * self.per;
        let cols = x.cols().min(c0 + self.per) - c0;
        let (lo, hi) = if self.blocks == 1 {
            (&x.indptr[..self.rows], &x.indptr[1..=self.rows])
        } else {
            let rows = self.rows;
            (
                &self.at[b * rows..(b + 1) * rows],
                &self.at[(b + 1) * rows..(b + 2) * rows],
            )
        };
        CsrBlock {
            rows: CsrRows {
                lo,
                hi,
                indices: x.indices,
                values: x.values,
                c0,
            },
            cols,
        }
    }
}

/// The entries of one block of a CSR batch's columns ([`ColumnCuts`]),
/// borrowed from the batch: every row's, with its columns counted from the
/// block's first. The input of [`spmm_block_into`] and
/// [`spmm_tn_block_scatter`].
#[derive(Clone, Copy)]
pub struct CsrBlock<'a> {
    rows: CsrRows<'a>,
    cols: usize,
}

impl CsrBlock<'_> {
    /// Rows of the batch.
    pub fn rows(&self) -> usize {
        self.rows.lo.len()
    }

    /// Columns in the block.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The batch's first column in the block.
    pub fn first_col(&self) -> usize {
        self.rows.c0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;
    use crate::simd::{host_levels, with_level};

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
    fn from_parts_assembles_and_checks_its_arrays() {
        let s = CsrMatrix::from_dense(&sample_dense(), 0.0);
        let parts = |s: &CsrMatrix| (s.indptr.clone(), s.indices.clone(), s.values.clone());
        let (indptr, indices, values) = parts(&s);
        assert_eq!(CsrMatrix::from_parts(4, indptr, indices, values), s);
        let bad = [
            (vec![0, 2, 2, 5], vec![0, 2, 1, 3], vec![1.0; 4]),
            (vec![0, 2, 1, 4], vec![0, 2, 1, 3], vec![1.0; 4]),
            (vec![0, 2, 2, 4], vec![2, 0, 1, 3], vec![1.0; 4]),
            (vec![0, 2, 2, 4], vec![0, 2, 1, 4], vec![1.0; 4]),
            (vec![0, 2, 2, 4], vec![0, 2, 1, 3], vec![1.0; 3]),
        ];
        for (indptr, indices, values) in bad {
            let built = std::panic::catch_unwind(|| {
                CsrMatrix::from_parts(4, indptr.clone(), indices.clone(), values.clone())
            });
            assert!(built.is_err(), "{indptr:?} {indices:?} {values:?} accepted");
        }
    }

    #[test]
    fn scale_cols_matches_dense_column_scaling() {
        let d = sample_dense();
        let mut s = CsrMatrix::from_dense(&d, 0.0);
        let scale = [0.5, 3.0, -2.0, 0.25];
        s.scale_cols(&scale);
        let want = Matrix::from_fn(3, 4, |i, j| d.get(i, j) * scale[j]);
        assert_eq!(s.to_dense(), want);
        assert_eq!(s.nnz(), 4);
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

    /// The sparse kernels are linear (mul+add in scalar order), so every
    /// dispatch level the host has must agree with the scalar loops
    /// bit-for-bit — same contract as the dense linear kernels.
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
        // Odd `out` widths exercise the vector tails; past 192 the zmm
        // forward holds a row in two register blocks.
        for out in [1usize, 8, 16, 19, 33, 192, 207] {
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
            for level in host_levels() {
                let (zv, gv) = run(level);
                assert_eq!(zs.as_slice(), zv.as_slice(), "spmm out={out} {level:?}");
                assert_eq!(gs.as_slice(), gv.as_slice(), "spmm_tn out={out} {level:?}");
            }
        }
    }

    /// The products of a batch cut into column blocks, run block by block
    /// (the forward from the bias, then adding into it; the scatter into
    /// each block's own rows), store the whole batch's bits at every
    /// dispatch level: blocks of one column, of sizes that leave a partial
    /// last block, of exactly the width, and wider; rows with no entry; a
    /// block no row stores an entry of.
    #[test]
    fn block_products_store_the_whole_products_bits() {
        let (rows, cols) = (13, 41);
        let x = Matrix::from_fn(rows, cols, |i, j| {
            let gap = (10..20).contains(&j) || i == 4;
            if !gap && (i * 7 + j * 3) % 5 < 2 {
                ((i * 3 + j) as f32 * 0.29).cos()
            } else {
                0.0
            }
        });
        let sx = CsrMatrix::from_dense(&x, 0.0);
        let mut cuts = ColumnCuts::new();
        for out in [1usize, 16, 19, 64, 207] {
            let w = Matrix::from_fn(cols, out, |i, j| ((i * out + j) as f32 * 0.05).sin());
            let bias: Vec<f32> = (0..out).map(|j| (j as f32 * 0.7).cos()).collect();
            let delta = Matrix::from_fn(rows, out, |i, j| ((i * out + j) as f32 * 0.13).cos());
            for level in host_levels() {
                with_level(level, || {
                    let mut z = Matrix::zeros(0, 0);
                    spmm_bias_into(sx.view(), &w, &bias, &mut z);
                    let mut g = Matrix::zeros(cols, out);
                    spmm_tn_scatter(sx.view(), &delta, &mut g);
                    for per in [1, 4, 10, 40, 41, 64] {
                        cuts.cut(sx.view(), per);
                        assert_eq!(cuts.blocks(), cols.div_ceil(per), "per {per}");
                        let mut zb = Matrix::zeros(0, 0);
                        let mut gb = Matrix::zeros(cols, out);
                        for b in 0..cuts.blocks() {
                            let block = cuts.block(sx.view(), b);
                            let (c0, n) = (block.first_col(), block.cols());
                            assert_eq!(c0, b * per);
                            let tile = Matrix::from_fn(n, out, |i, j| w.get(c0 + i, j));
                            let first = (b == 0).then_some(&bias[..]);
                            spmm_block_into(block, &tile, first, &mut zb);
                            let mut gt = Matrix::zeros(n, out);
                            spmm_tn_block_scatter(block, &delta, &mut gt);
                            for i in 0..n {
                                gb.row_mut(c0 + i).copy_from_slice(gt.row(i));
                            }
                        }
                        let bits = |m: &Matrix| {
                            m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        };
                        let case = format!("out={out} per={per} {level:?}");
                        assert!(bits(&zb) == bits(&z), "forward: {case}");
                        assert!(bits(&gb) == bits(&g), "scatter: {case}");
                    }
                })
            }
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

    /// The compaction's bit masks are only a shortcut: at every dispatch
    /// level, for every row width around the vector and mask-word widths,
    /// with `-0.0`, NaN, ±Inf and sub-threshold entries among zeros, and at
    /// thresholds that are zero, positive, negative or NaN, the result
    /// equals the plain per-element filter.
    #[test]
    fn from_dense_matches_the_per_element_filter_at_every_level() {
        let specials = [
            -0.0f32,
            f32::NAN,
            f32::INFINITY,
            -1.0e-3,
            0.5,
            -2.0,
            1.0e-40,
            f32::NEG_INFINITY,
        ];
        for cols in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 50, 63, 64, 65, 129] {
            let d = Matrix::from_fn(10, cols, |i, j| {
                // Rows 0–7 hold one special value each at a moving column;
                // row 8 is dense, row 9 empty.
                match i {
                    8 => (j as f32 + 1.0) * 0.25,
                    9 => 0.0,
                    _ if j == (i * 7 + cols / 2) % cols => specials[i],
                    _ => 0.0,
                }
            });
            for threshold in [0.0f32, 0.01, 1.0, -1.0, f32::NAN] {
                let mut want = vec![Vec::new(); 10];
                for (i, row) in want.iter_mut().enumerate() {
                    for (j, &v) in d.row(i).iter().enumerate() {
                        if v != 0.0 && v.abs() >= threshold {
                            row.push((j, v.to_bits()));
                        }
                    }
                }
                for level in host_levels() {
                    let got = with_level(level, || CsrMatrix::from_dense(&d, threshold));
                    for (i, row) in want.iter().enumerate() {
                        let have: Vec<_> = got.row_iter(i).map(|(j, v)| (j, v.to_bits())).collect();
                        assert_eq!(
                            &have, row,
                            "{level:?} cols={cols} threshold={threshold} row={i}"
                        );
                    }
                    assert_eq!((got.rows(), got.cols()), (10, cols));
                }
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
