//! Single-precision general matrix multiply (SGEMM) kernels.
//!
//! The MLP passes need three transpose combinations:
//!
//! | call | computes | used for | A as packed | B as packed |
//! |---|---|---|---|---|
//! | [`gemm_nn`] | `C ← α·A·B + β·C` | backprop `δ·W` | transposing | straight |
//! | [`gemm_nn_bias`] | `C ← α·A·B + bias` | layer-0 forward `X·W` (`W[in][out]`) | transposing | straight |
//! | [`gemm_tn`] | `C ← α·Aᵀ·B + β·C` | weight gradients `∇W = δᵀ·A`, layer 0 `Xᵀ·δ` | straight | straight |
//! | [`gemm_nt`] | `C ← α·A·Bᵀ + β·C` | forward `A·Wᵀ` (row-major `W[out][in]`) | transposing | transposing |
//! | [`gemm_nt_bias`] | `C ← α·A·Bᵀ + bias` | forward of layers ≥ 1, bias fused | transposing | transposing |
//!
//! Every call dispatches through [`crate::simd::active_level`]. On AVX2+FMA
//! all of them run the *same* 6×16 microkernel over BLIS-style packed panels
//! (`crate::simd`), on AVX-512 the same 12×32 one, which stores the 6×16
//! one's bits: the table's last two columns — which of the pack routines
//! feeds each operand — are the only thing that differs between them, so an
//! NN and an NT product over the same logical operands store the same bits.
//! β = 0 and the bias row are applied when the first k-block is stored, so
//! C is never pre-filled or re-read. Skinny NT shapes (few rows, or an
//! output narrower than one vector) keep a dot-product body instead, skinny
//! NN / TN shapes the portable kernels; the rule looks at the shape only,
//! never the level. Off AVX2 (or with `HETERO_SIMD=0`) the portable scalar
//! kernels below run; they are the reference semantics.
//!
//! Pack buffers are thread-local and grow on first use only, so
//! steady-state GEMMs allocate nothing.
//!
//! The `par_*` wrappers hand each thread of the installed rayon pool one
//! contiguous row range of C, aligned to the 6-row AVX2 tile (half the
//! AVX-512 tile, which then may split across two ranges); tasks write
//! disjoint rows, so the parallelism is race-free by construction, and
//! every element is computed exactly as the serial call computes it (the
//! results are bit-identical for any thread count). With one pool thread
//! they *are* the serial call.

use std::cell::RefCell;

use rayon::prelude::*;

use crate::simd::{self, Operand, PackBufs, SimdLevel};
use crate::Matrix;

/// K-panel blocking of the scalar kernels (keeps the streamed rows of `B`
/// in L2).
const KB: usize = 256;
/// J-panel blocking of the scalar NN kernel (keeps the C row segment in L1).
const JB: usize = 512;

/// Minimum problem size (in multiply-adds, `m·n·k`) for the `par_gemm_*`
/// wrappers to fan out across rayon tasks.
///
/// Below this the fork/join overhead of the pool outweighs the work: a
/// 64³ product is ~260k FMAs ≈ a few microseconds, about the cost of
/// dispatching a handful of rayon tasks. Smaller problems run the serial
/// kernel inline on the calling thread.
pub const PAR_MIN_MADDS: usize = 64 * 64 * 64;

/// Fewest output rows worth a thread of their own: every row range packs
/// all of `B` for itself, so a shorter range costs more than it saves.
const PAR_MIN_ROWS: usize = 32;

thread_local! {
    /// Reused packed-panel storage of the SIMD paths (< 1 MiB per thread).
    static PACK: RefCell<PackBufs> = const { RefCell::new(PackBufs::new()) };
}

#[inline]
fn check(op: &'static str, m: usize, n: usize, k: usize, kb: usize, c: &Matrix) {
    assert_eq!(k, kb, "{op}: inner dimensions differ ({k} vs {kb})");
    assert_eq!(
        c.shape(),
        (m, n),
        "{op}: output shape {:?} != ({m}, {n})",
        c.shape()
    );
}

#[inline]
fn scale_c(beta: f32, c: &mut [f32]) {
    if beta == 0.0 {
        c.iter_mut().for_each(|v| *v = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|v| *v *= beta);
    }
}

// ---------------------------------------------------------------------------
// Portable scalar kernels (reference semantics; β is applied by the caller)
// ---------------------------------------------------------------------------

/// Scalar blocked kernel for `C[i,:] += alpha * sum_k A[i,k] B[k,:]` over a
/// row range of C. `a_rows` is the slice of A covering the same row range.
fn kernel_nn_scalar(alpha: f32, a_rows: &[f32], b: &[f32], n: usize, k: usize, c_rows: &mut [f32]) {
    if n == 0 || k == 0 || c_rows.is_empty() {
        return;
    }
    let rows = c_rows.len() / n;
    for kb in (0..k).step_by(KB) {
        let kend = (kb + KB).min(k);
        for jb in (0..n).step_by(JB) {
            let jend = (jb + JB).min(n);
            for i in 0..rows {
                let a_row = &a_rows[i * k..(i + 1) * k];
                let c_row = &mut c_rows[i * n + jb..i * n + jend];
                for kk in kb..kend {
                    // No zero-skip branch here: it defeats vectorization of
                    // the inner loop and mispredicts on dense data.
                    let aik = alpha * a_row[kk];
                    let b_row = &b[kk * n + jb..kk * n + jend];
                    for (cv, bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aik * bv;
                    }
                }
            }
        }
    }
}

/// Scalar rank-1-accumulation kernel for TN over an output row range
/// `[i0, i1)`. `c_rows` covers exactly those rows.
#[allow(clippy::too_many_arguments)]
fn kernel_tn_scalar(
    alpha: f32,
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    i1: usize,
    c_rows: &mut [f32],
) {
    for kb_ in (0..k).step_by(KB) {
        let kend = (kb_ + KB).min(k);
        for kk in kb_..kend {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n..(kk + 1) * n];
            for i in i0..i1 {
                // Unconditional rank-1 update: a zero-skip branch here
                // blocks vectorization (see kernel_nn_scalar).
                let aik = alpha * a_row[i];
                let c_row = &mut c_rows[(i - i0) * n..(i - i0 + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aik * bv;
                }
            }
        }
    }
}

fn kernel_nt_scalar(alpha: f32, a_rows: &[f32], b: &[f32], n: usize, k: usize, c_rows: &mut [f32]) {
    if n == 0 || k == 0 || c_rows.is_empty() {
        return;
    }
    let rows = c_rows.len() / n;
    for i in 0..rows {
        let a_row = &a_rows[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            // Four-way unrolled dot product; the tail is handled below.
            let chunks = k / 4;
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for c4 in 0..chunks {
                let p = c4 * 4;
                s0 += a_row[p] * b_row[p];
                s1 += a_row[p + 1] * b_row[p + 1];
                s2 += a_row[p + 2] * b_row[p + 2];
                s3 += a_row[p + 3] * b_row[p + 3];
            }
            for p in chunks * 4..k {
                acc += a_row[p] * b_row[p];
            }
            acc += (s0 + s1) + (s2 + s3);
            c_rows[i * n + j] += alpha * acc;
        }
    }
}

/// Scalar NT with the bias-add fused into the store (`C = α·A·Bᵀ + bias`).
fn kernel_nt_bias_scalar(
    alpha: f32,
    a_rows: &[f32],
    b: &[f32],
    bias: &[f32],
    n: usize,
    k: usize,
    c_rows: &mut [f32],
) {
    if n == 0 || c_rows.is_empty() {
        return;
    }
    let rows = c_rows.len() / n;
    for i in 0..rows {
        let a_row = &a_rows[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (av, bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            c_rows[i * n + j] = alpha * acc + bias[j];
        }
    }
}

/// Scalar NN with the bias-add as an epilogue (`C = α·A·B + bias`).
fn kernel_nn_bias_scalar(
    alpha: f32,
    a_rows: &[f32],
    b: &[f32],
    bias: &[f32],
    n: usize,
    k: usize,
    c_rows: &mut [f32],
) {
    scale_c(0.0, c_rows);
    kernel_nn_scalar(alpha, a_rows, b, n, k, c_rows);
    for c_row in c_rows.chunks_exact_mut(n.max(1)) {
        for (c, bv) in c_row.iter_mut().zip(bias) {
            *c += bv;
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Which operand arrives transposed.
#[derive(Clone, Copy)]
enum Trans {
    Nn,
    Tn,
    Nt,
}

/// One product `C[m×n] ← α·op(A)·op(B) + β·C`, or `+ bias` per row when
/// `bias` is non-empty (NN and NT; β is then ignored).
struct Call<'a> {
    trans: Trans,
    alpha: f32,
    a: &'a [f32],
    b: &'a [f32],
    beta: f32,
    bias: &'a [f32],
    m: usize,
    n: usize,
    k: usize,
}

impl Call<'_> {
    /// Compute the output rows starting at `r0` that `c_rows` holds.
    fn rows(&self, r0: usize, c_rows: &mut [f32]) {
        let &Call {
            trans,
            alpha,
            a,
            b,
            beta,
            bias,
            m,
            n,
            k,
        } = self;
        let rows = c_rows.len() / n;
        // The same rows of a row-major A (NN / NT; TN indexes A by column).
        let a_rows = || &a[r0 * k..(r0 + rows) * k];
        let nt = matches!(trans, Trans::Nt);
        let level = simd::active_level();
        if level != SimdLevel::Scalar && k > 0 {
            // The path is picked from the whole product's shape, never from
            // this row range, so any split computes what the serial call does.
            if !simd::is_skinny(nt, m, n) {
                let operand = |data, x_len, k_contig| Operand {
                    data,
                    ld: if k_contig { k } else { x_len },
                    k_contig,
                };
                let pa = operand(a, m, !matches!(trans, Trans::Tn));
                let pb = operand(b, n, nt);
                let packed = match level {
                    SimdLevel::Avx512 => simd::gemm_packed_avx512,
                    _ => simd::gemm_packed,
                };
                return PACK.with_borrow_mut(|bufs| {
                    packed(alpha, pa, r0, pb, beta, bias, rows, n, k, c_rows, bufs)
                });
            }
            if nt {
                return simd::gemm_nt_dot(alpha, a_rows(), b, beta, bias, n, k, c_rows);
            }
        }
        if !bias.is_empty() {
            return match trans {
                Trans::Nn => kernel_nn_bias_scalar(alpha, a_rows(), b, bias, n, k, c_rows),
                _ => kernel_nt_bias_scalar(alpha, a_rows(), b, bias, n, k, c_rows),
            };
        }
        scale_c(beta, c_rows);
        match trans {
            Trans::Nn => kernel_nn_scalar(alpha, a_rows(), b, n, k, c_rows),
            Trans::Tn => kernel_tn_scalar(alpha, a, b, m, n, k, r0, r0 + rows, c_rows),
            Trans::Nt => kernel_nt_scalar(alpha, a_rows(), b, n, k, c_rows),
        }
    }

    /// Run the product into `c`; with `parallel`, above [`PAR_MIN_MADDS`]
    /// and on a pool of more than one thread, one tile-aligned row range
    /// per thread.
    fn run(&self, parallel: bool, c: &mut [f32]) {
        let (m, n, k) = (self.m, self.n, self.k);
        assert_eq!(self.a.len(), m * k, "gemm: A length");
        assert_eq!(self.b.len(), k * n, "gemm: B length");
        assert_eq!(c.len(), m * n, "gemm: C length");
        if m == 0 || n == 0 {
            return;
        }
        let threads = if parallel && m * n * k >= PAR_MIN_MADDS {
            rayon::current_num_threads().min(m.div_ceil(PAR_MIN_ROWS))
        } else {
            1
        };
        if threads <= 1 {
            return self.rows(0, c);
        }
        let rows_per = m.div_ceil(threads).next_multiple_of(simd::MR);
        c.par_chunks_mut(rows_per * n)
            .enumerate()
            .for_each(|(t, c_rows)| self.rows(t * rows_per, c_rows));
    }
}

/// Shape-check a [`Matrix`]-level call and run it.
#[allow(clippy::too_many_arguments)]
fn run_matrices(
    op: &'static str,
    trans: Trans,
    parallel: bool,
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    beta: f32,
    bias: Option<&[f32]>,
    c: &mut Matrix,
) {
    let (m, k) = match trans {
        Trans::Tn => (a.cols(), a.rows()),
        _ => a.shape(),
    };
    let (kb, n) = match trans {
        Trans::Nt => (b.cols(), b.rows()),
        _ => b.shape(),
    };
    check(op, m, n, k, kb, c);
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "{op}: bias length {} != {n}", bias.len());
    }
    Call {
        trans,
        alpha,
        a: a.as_slice(),
        b: b.as_slice(),
        beta,
        bias: bias.unwrap_or(&[]),
        m,
        n,
        k,
    }
    .run(parallel, c.as_mut_slice());
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `C ← α·A·B + β·C` (serial).
///
/// # Panics
/// Panics if `a.cols() != b.rows()` or `c.shape() != (a.rows(), b.cols())`.
pub fn gemm_nn(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    run_matrices("gemm_nn", Trans::Nn, false, alpha, a, b, beta, None, c);
}

/// `C ← α·A·B + β·C`, output rows split across the rayon pool.
pub fn par_gemm_nn(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    run_matrices("par_gemm_nn", Trans::Nn, true, alpha, a, b, beta, None, c);
}

/// `C ← α·A·B + bias` with the row-broadcast bias-add fused into the GEMM
/// epilogue (β = 0 semantics: `C` is overwritten) — the forward product of
/// a layer stored `in × out`.
///
/// # Panics
/// Panics on shape mismatch or `bias.len() != b.cols()`.
pub fn gemm_nn_bias(alpha: f32, a: &Matrix, b: &Matrix, bias: &[f32], c: &mut Matrix) {
    let op = "gemm_nn_bias";
    run_matrices(op, Trans::Nn, false, alpha, a, b, 0.0, Some(bias), c);
}

/// Parallel [`gemm_nn_bias`]: output rows split across the rayon pool.
pub fn par_gemm_nn_bias(alpha: f32, a: &Matrix, b: &Matrix, bias: &[f32], c: &mut Matrix) {
    let op = "par_gemm_nn_bias";
    run_matrices(op, Trans::Nn, true, alpha, a, b, 0.0, Some(bias), c);
}

/// `C ← α·Aᵀ·B + β·C` (serial).
///
/// `A` is `k×m`, `B` is `k×n`, `C` is `m×n`.
pub fn gemm_tn(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    run_matrices("gemm_tn", Trans::Tn, false, alpha, a, b, beta, None, c);
}

/// `C ← α·Aᵀ·B + β·C`, output rows split across the rayon pool.
pub fn par_gemm_tn(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    run_matrices("par_gemm_tn", Trans::Tn, true, alpha, a, b, beta, None, c);
}

/// `C ← α·A·Bᵀ + β·C` (serial).
///
/// `A` is `m×k`, `B` is `n×k`, `C` is `m×n` — the natural layout for
/// `X·Wᵀ` with row-major weight matrices `W[out][in]`.
pub fn gemm_nt(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    run_matrices("gemm_nt", Trans::Nt, false, alpha, a, b, beta, None, c);
}

/// `C ← α·A·Bᵀ + β·C`, output rows split across the rayon pool.
pub fn par_gemm_nt(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    run_matrices("par_gemm_nt", Trans::Nt, true, alpha, a, b, beta, None, c);
}

/// `C ← α·A·Bᵀ + bias` with the row-broadcast bias-add fused into the GEMM
/// epilogue (β = 0 semantics: `C` is overwritten). One pass over `C`
/// instead of a GEMM pass plus a broadcast pass.
///
/// # Panics
/// Panics on shape mismatch or `bias.len() != b.rows()`.
pub fn gemm_nt_bias(alpha: f32, a: &Matrix, b: &Matrix, bias: &[f32], c: &mut Matrix) {
    run_matrices(
        "gemm_nt_bias",
        Trans::Nt,
        false,
        alpha,
        a,
        b,
        0.0,
        Some(bias),
        c,
    );
}

/// Parallel [`gemm_nt_bias`]: output rows split across the rayon pool.
pub fn par_gemm_nt_bias(alpha: f32, a: &Matrix, b: &Matrix, bias: &[f32], c: &mut Matrix) {
    run_matrices(
        "par_gemm_nt_bias",
        Trans::Nt,
        true,
        alpha,
        a,
        b,
        0.0,
        Some(bias),
        c,
    );
}

/// Reference implementation used by tests: naive triple loop, `C = α·op(A)·op(B) + β·C`.
pub fn gemm_reference(
    alpha: f32,
    a: &Matrix,
    ta: bool,
    b: &Matrix,
    tb: bool,
    beta: f32,
    c: &mut Matrix,
) {
    // Only materialize a transposed copy when one is actually requested.
    let at;
    let a = if ta {
        at = a.transpose();
        &at
    } else {
        a
    };
    let bt;
    let b = if tb {
        bt = b.transpose();
        &bt
    } else {
        b
    };
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb);
    assert_eq!(c.shape(), (m, n));
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc += a.get(i, kk) as f64 * b.get(kk, j) as f64;
            }
            let v = beta as f64 * c.get(i, j) as f64 + alpha as f64 * acc;
            c.set(i, j, v as f32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Small deterministic LCG so the tensor crate needs no rand dependency here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn nn_matches_reference() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (17, 33, 9), (64, 48, 80)] {
            let a = rand_mat(m, k, 1);
            let b = rand_mat(k, n, 2);
            let mut c = rand_mat(m, n, 3);
            let mut c_ref = c.clone();
            gemm_nn(0.7, &a, &b, 0.3, &mut c);
            gemm_reference(0.7, &a, false, &b, false, 0.3, &mut c_ref);
            assert_close(&c, &c_ref, 1e-4);
        }
    }

    #[test]
    fn tn_matches_reference() {
        for &(m, k, n) in &[(4, 6, 5), (31, 17, 13), (70, 65, 64)] {
            let a = rand_mat(k, m, 4); // A is k×m, used transposed
            let b = rand_mat(k, n, 5);
            let mut c = rand_mat(m, n, 6);
            let mut c_ref = c.clone();
            gemm_tn(1.3, &a, &b, -0.5, &mut c);
            gemm_reference(1.3, &a, true, &b, false, -0.5, &mut c_ref);
            assert_close(&c, &c_ref, 1e-4);
        }
    }

    #[test]
    fn nt_matches_reference() {
        for &(m, k, n) in &[(4, 6, 5), (29, 15, 31), (64, 100, 64)] {
            let a = rand_mat(m, k, 7);
            let b = rand_mat(n, k, 8); // B is n×k, used transposed
            let mut c = rand_mat(m, n, 9);
            let mut c_ref = c.clone();
            gemm_nt(0.9, &a, &b, 1.0, &mut c);
            gemm_reference(0.9, &a, false, &b, true, 1.0, &mut c_ref);
            assert_close(&c, &c_ref, 1e-4);
        }
    }

    #[test]
    fn nt_bias_fusion_matches_unfused() {
        for &(m, k, n) in &[(1, 3, 2), (13, 29, 17), (33, 64, 40)] {
            let a = rand_mat(m, k, 12);
            let b = rand_mat(n, k, 13);
            let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.37).sin()).collect();
            let mut fused = Matrix::full(m, n, f32::NAN); // must be overwritten
            gemm_nt_bias(1.0, &a, &b, &bias, &mut fused);
            let mut split = Matrix::zeros(m, n);
            gemm_nt(1.0, &a, &b, 0.0, &mut split);
            crate::ops::add_row_broadcast(&mut split, &bias);
            assert_close(&fused, &split, 1e-5);
            let mut par = Matrix::full(m, n, f32::NAN);
            par_gemm_nt_bias(1.0, &a, &b, &bias, &mut par);
            assert_close(&par, &split, 1e-5);
        }
    }

    /// The NN bias product matches the unfused one at every dispatch level
    /// (skinny and packed shapes); on AVX2 or AVX-512, once packed, it
    /// stores exactly the bits of the NT bias product over the transposed
    /// weights (the same microkernel over the same packed panels).
    #[test]
    fn nn_bias_fusion_matches_unfused_and_packed_nt() {
        use crate::simd::{host_levels, with_level, SimdLevel};
        for &(m, k, n) in &[(1, 3, 2), (3, 54, 64), (13, 29, 17), (33, 64, 40)] {
            let a = rand_mat(m, k, 14);
            let b = rand_mat(k, n, 15);
            let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.41).cos()).collect();
            let mut split = Matrix::zeros(m, n);
            gemm_nn(1.0, &a, &b, 0.0, &mut split);
            crate::ops::add_row_broadcast(&mut split, &bias);
            for level in host_levels() {
                with_level(level, || {
                    let mut fused = Matrix::full(m, n, f32::NAN); // must be overwritten
                    gemm_nn_bias(1.0, &a, &b, &bias, &mut fused);
                    assert_close(&fused, &split, 1e-5);
                    let mut par = Matrix::full(m, n, f32::NAN);
                    par_gemm_nn_bias(1.0, &a, &b, &bias, &mut par);
                    assert_eq!(par, fused);
                });
            }
            if m >= 18 && crate::simd::active_level() != SimdLevel::Scalar {
                let mut nn = Matrix::zeros(m, n);
                let mut nt = Matrix::zeros(m, n);
                gemm_nn_bias(1.0, &a, &b, &bias, &mut nn);
                gemm_nt_bias(1.0, &a, &b.transpose(), &bias, &mut nt);
                assert_eq!(nn, nt, "{m}×{k}×{n}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (m, k, n) = (130, 70, 90);
        let a = rand_mat(m, k, 10);
        let b = rand_mat(k, n, 11);
        let bt = b.transpose();
        let at = a.transpose();

        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm_nn(1.0, &a, &b, 0.0, &mut c1);
        par_gemm_nn(1.0, &a, &b, 0.0, &mut c2);
        assert_close(&c1, &c2, 1e-5);

        let mut c3 = Matrix::zeros(m, n);
        par_gemm_nt(1.0, &a, &bt, 0.0, &mut c3);
        assert_close(&c1, &c3, 1e-4);

        let mut c4 = Matrix::zeros(m, n);
        par_gemm_tn(1.0, &at, &b, 0.0, &mut c4);
        assert_close(&c1, &c4, 1e-4);
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        // beta = 0 must ignore pre-existing garbage (including NaN), like BLAS.
        let a = Matrix::eye(2);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut c = Matrix::full(2, 2, f32::NAN);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
        assert!(c.approx_eq(&b, 1e-6));
    }

    #[test]
    fn identity_is_noop() {
        let a = rand_mat(9, 9, 20);
        let mut c = Matrix::zeros(9, 9);
        gemm_nn(1.0, &a, &Matrix::eye(9), 0.0, &mut c);
        assert_close(&c, &a, 1e-6);
        let mut c2 = Matrix::zeros(9, 9);
        gemm_nn(1.0, &Matrix::eye(9), &a, 0.0, &mut c2);
        assert_close(&c2, &a, 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_dims_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    #[should_panic(expected = "output shape")]
    fn mismatched_output_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let mut c = Matrix::zeros(3, 3);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn empty_matrices_ok() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 0);
        let mut c = Matrix::zeros(0, 0);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
        assert!(c.is_empty());
    }
}
