//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] is the single dense container used throughout the workspace:
//! training batches, layer weights, activations, and gradients are all
//! matrices. Rows are contiguous, which matches both the batch layout the
//! paper's coordinator hands out (a batch is a contiguous range of example
//! rows) and the access pattern of the blocked GEMM in [`crate::gemm`].

use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Reshape in place to `rows × cols`, reusing the existing allocation
    /// whenever the capacity suffices.
    ///
    /// Existing element values are **not** meaningful after the call (the
    /// prefix keeps stale data, any grown tail is zero) — callers are
    /// expected to overwrite the whole matrix, e.g. via a β=0 GEMM. This is
    /// the building block for the reusable training workspaces: steady-state
    /// reshapes to the same (or smaller) size never touch the allocator.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copy `other`'s shape and contents into `self`, reusing the existing
    /// allocation when possible (allocation-free once warmed up).
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.resize(other.data.len(), 0.0);
        self.data.copy_from_slice(&other.data);
    }

    /// Current buffer capacity in elements (used by workspace reuse
    /// debug-assertions to detect unexpected reallocation).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Build from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from row slices (all rows must have equal length).
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Set element at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copy of column `j` as a `Vec`.
    pub fn col(&self, j: usize) -> Vec<f32> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// New matrix containing rows `range.start..range.end` (no copy of other rows).
    ///
    /// This is the "batch extraction" primitive: the paper's coordinator
    /// passes batches as contiguous row ranges of the training matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// True iff every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Approximate equality with absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn eye_is_identity() {
        let m = Matrix::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_and_get_set() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(1, 0), 3.0);
        m.set(1, 0, 9.0);
        assert_eq!(m.get(1, 0), 9.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 5));
        assert_eq!(t.transpose(), m);
        assert_eq!(t.get(3, 2), m.get(2, 3));
    }

    #[test]
    fn slice_rows_extracts_batch() {
        let m = Matrix::from_fn(10, 3, |i, _| i as f32);
        let b = m.slice_rows(4, 7);
        assert_eq!(b.shape(), (3, 3));
        assert_eq!(b.get(0, 0), 4.0);
        assert_eq!(b.get(2, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn slice_rows_out_of_bounds_panics() {
        Matrix::zeros(3, 3).slice_rows(2, 5);
    }

    #[test]
    fn finiteness() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!(m.all_finite());
        let bad = Matrix::from_rows(&[&[f32::NAN]]);
        assert!(!bad.all_finite());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::full(2, 2, 1.0);
        let mut b = a.clone();
        b.set(0, 0, 1.0005);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&Matrix::zeros(2, 3), 1.0));
    }

    #[test]
    fn rows_iter_yields_all_rows() {
        let m = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f32);
        let rows: Vec<&[f32]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3], &[6.0, 7.0]);
    }
}
