//! Element-wise and reduction kernels.
//!
//! These cover everything an MLP training step needs besides GEMM: scaled
//! vector updates (the SGD update itself is an axpy), activations applied
//! in-place, per-row softmax, and the reductions used by loss evaluation.
//!
//! The hot paths (axpy/scale, hadamard, bias broadcast, column sums,
//! activation apply + derivative multiply) dispatch through
//! [`crate::simd::active_level`] like the GEMM kernels do. The *linear* SIMD
//! kernels use separate mul/add in scalar element order, so they are
//! bit-identical to the portable loops; only the transcendental activations
//! (sigmoid/tanh, vectorized with a polynomial `exp`) differ from the scalar
//! path, within ~1e-6 — tests that compare dispatch paths use a tolerance
//! for those two and exact equality everywhere else.

use crate::simd::{self, SimdLevel};
use crate::Matrix;

/// `y ← y + alpha * x` over raw slices.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::axpy(alpha, x, y),
        SimdLevel::Scalar => {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
        }
    }
}

/// `y ← alpha * x + beta * y` over raw slices (generalized axpby).
pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpby length mismatch");
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::axpby(alpha, x, beta, y),
        SimdLevel::Scalar => {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = alpha * xi + beta * *yi;
            }
        }
    }
}

/// Scale a slice in place.
pub fn scale(alpha: f32, x: &mut [f32]) {
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::scale(alpha, x),
        SimdLevel::Scalar => x.iter_mut().for_each(|v| *v *= alpha),
    }
}

/// Dot product of two slices.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Element-wise product `out ← a ⊙ b`.
pub fn hadamard(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), b.shape(), "hadamard shape mismatch");
    assert_eq!(a.shape(), out.shape(), "hadamard output shape mismatch");
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => {
            simd::hadamard(a.as_slice(), b.as_slice(), out.as_mut_slice())
        }
        SimdLevel::Scalar => {
            for ((o, x), y) in out
                .as_mut_slice()
                .iter_mut()
                .zip(a.as_slice())
                .zip(b.as_slice())
            {
                *o = x * y;
            }
        }
    }
}

/// In-place element-wise product `a ← a ⊙ b`.
pub fn hadamard_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "hadamard shape mismatch");
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => {
            simd::hadamard_assign(a.as_mut_slice(), b.as_slice())
        }
        SimdLevel::Scalar => {
            for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
                *x *= y;
            }
        }
    }
}

/// `a ← a - b`.
pub fn sub_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
    axpy(-1.0, b.as_slice(), a.as_mut_slice());
}

/// Add a row vector (bias) to every row of `m`.
pub fn add_row_broadcast(m: &mut Matrix, row: &[f32]) {
    assert_eq!(m.cols(), row.len(), "broadcast width mismatch");
    let cols = m.cols();
    add_row_broadcast_slice(m.as_mut_slice(), cols, row);
}

/// [`add_row_broadcast`] over a raw row-major buffer with `cols` columns.
pub fn add_row_broadcast_slice(m: &mut [f32], cols: usize, row: &[f32]) {
    assert_eq!(cols, row.len(), "broadcast width mismatch");
    if cols == 0 {
        return;
    }
    assert_eq!(m.len() % cols, 0, "broadcast matrix dims");
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::add_row_broadcast(m, cols, row),
        SimdLevel::Scalar => {
            for r in m.chunks_exact_mut(cols) {
                for (v, b) in r.iter_mut().zip(row) {
                    *v += b;
                }
            }
        }
    }
}

/// Column-wise sum of `m` (used for the bias gradient: sum of δ over the batch).
///
/// Allocates the output; the hot training path uses [`col_sum_into`].
pub fn col_sum(m: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; m.cols()];
    col_sum_into(m, &mut out);
    out
}

/// Column-wise sum of `m` written into a caller-owned buffer
/// (allocation-free variant of [`col_sum`]). `out` is overwritten.
///
/// # Panics
/// Panics if `out.len() != m.cols()`.
pub fn col_sum_into(m: &Matrix, out: &mut [f32]) {
    assert_eq!(out.len(), m.cols(), "col_sum output width mismatch");
    col_sum_slice(m.as_slice(), m.cols(), out);
}

/// [`col_sum_into`] over a raw row-major buffer with `cols` columns.
pub fn col_sum_slice(m: &[f32], cols: usize, out: &mut [f32]) {
    assert_eq!(out.len(), cols, "col_sum output width mismatch");
    out.iter_mut().for_each(|v| *v = 0.0);
    if cols == 0 || m.is_empty() {
        return;
    }
    assert_eq!(m.len() % cols, 0, "col_sum matrix dims");
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::col_sum_into(m, cols, out),
        SimdLevel::Scalar => {
            for r in m.chunks_exact(cols) {
                for (o, v) in out.iter_mut().zip(r) {
                    *o += v;
                }
            }
        }
    }
}

/// Apply `f` to every element in place.
pub fn map_inplace(m: &mut Matrix, f: impl Fn(f32) -> f32) {
    m.as_mut_slice().iter_mut().for_each(|v| *v = f(*v));
}

/// Numerically-stable softmax applied to each row in place.
///
/// Subtracts the row max before exponentiating, then normalizes. Rows of an
/// all-`-inf` or empty matrix are left untouched.
pub fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    softmax_rows_slice(m.as_mut_slice(), cols);
}

/// [`softmax_rows`] over a raw row-major buffer with `cols` columns.
pub fn softmax_rows_slice(m: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    assert_eq!(m.len() % cols, 0, "softmax matrix dims");
    for row in m.chunks_exact_mut(cols) {
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            let inv = 1.0 / sum;
            row.iter_mut().for_each(|v| *v *= inv);
        }
    }
}

/// Logistic sigmoid applied element-wise in place: `σ(x) = 1/(1+e^{-x})`.
///
/// Written in the stable form that never exponentiates a large positive
/// argument. The SIMD path uses a polynomial `exp` accurate to ~1e-6.
pub fn sigmoid_inplace(m: &mut Matrix) {
    sigmoid_slice(m.as_mut_slice());
}

/// [`sigmoid_inplace`] over a raw buffer (used by the software GPU so both
/// devices run the identical dispatched kernel).
pub fn sigmoid_slice(xs: &mut [f32]) {
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::sigmoid(xs),
        SimdLevel::Scalar => xs.iter_mut().for_each(|v| {
            let x = *v;
            *v = if x >= 0.0 {
                1.0 / (1.0 + (-x).exp())
            } else {
                let e = x.exp();
                e / (1.0 + e)
            };
        }),
    }
}

/// Hyperbolic tangent applied element-wise in place.
pub fn tanh_inplace(m: &mut Matrix) {
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::tanh(m.as_mut_slice()),
        SimdLevel::Scalar => map_inplace(m, f32::tanh),
    }
}

/// ReLU applied element-wise in place: `max(x, 0)`.
pub fn relu_inplace(m: &mut Matrix) {
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::relu(m.as_mut_slice()),
        SimdLevel::Scalar => map_inplace(m, |x| x.max(0.0)),
    }
}

/// `delta ← delta ⊙ a·(1−a)` — backprop through sigmoid, where `output`
/// holds the *activated* values `a = σ(z)`.
pub fn mul_sigmoid_derivative(output: &Matrix, delta: &mut Matrix) {
    assert_eq!(output.shape(), delta.shape(), "derivative shape mismatch");
    mul_sigmoid_derivative_slice(output.as_slice(), delta.as_mut_slice());
}

/// [`mul_sigmoid_derivative`] over raw buffers.
pub fn mul_sigmoid_derivative_slice(output: &[f32], delta: &mut [f32]) {
    assert_eq!(output.len(), delta.len(), "derivative dims");
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::mul_sigmoid_deriv(output, delta),
        SimdLevel::Scalar => {
            for (d, a) in delta.iter_mut().zip(output) {
                *d *= a * (1.0 - a);
            }
        }
    }
}

/// `delta ← delta ⊙ (1−a²)` — backprop through tanh from the activated output.
pub fn mul_tanh_derivative(output: &Matrix, delta: &mut Matrix) {
    assert_eq!(output.shape(), delta.shape(), "derivative shape mismatch");
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => {
            simd::mul_tanh_deriv(output.as_slice(), delta.as_mut_slice())
        }
        SimdLevel::Scalar => {
            for (d, a) in delta.as_mut_slice().iter_mut().zip(output.as_slice()) {
                *d *= 1.0 - a * a;
            }
        }
    }
}

/// `delta ← delta · [a > 0]` — backprop through ReLU from the activated
/// output. Masked-out positions become `+0.0` on both dispatch paths.
pub fn mul_relu_derivative(output: &Matrix, delta: &mut Matrix) {
    assert_eq!(output.shape(), delta.shape(), "derivative shape mismatch");
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => {
            simd::mul_relu_deriv(output.as_slice(), delta.as_mut_slice())
        }
        SimdLevel::Scalar => {
            for (d, a) in delta.as_mut_slice().iter_mut().zip(output.as_slice()) {
                if *a <= 0.0 {
                    *d = 0.0;
                }
            }
        }
    }
}

/// Index of the maximum element of a slice (first on ties).
///
/// # Panics
/// Panics on an empty slice.
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, v) in x.iter().enumerate().skip(1) {
        if *v > x[best] {
            best = i;
        }
    }
    best
}

/// Sum of all elements.
pub fn sum(m: &Matrix) -> f32 {
    m.as_slice().iter().sum()
}

/// Mean of all elements (0 for an empty matrix).
pub fn mean(m: &Matrix) -> f32 {
    if m.is_empty() {
        0.0
    } else {
        sum(m) / m.len() as f32
    }
}

/// Health-scan reduction: `(Σ x² over finite elements, NaN/±Inf count)`.
///
/// The sum uses f64 accumulators; the AVX2 path accumulates lane-parallel,
/// so the two dispatch paths agree to f64 rounding rather than bit-exactly.
/// Non-finite elements are excluded from the sum (and counted instead) so a
/// single poisoned value cannot collapse the whole norm to NaN. Read-only:
/// never perturbs the scanned buffer.
pub fn sumsq_nonfinite(x: &[f32]) -> (f64, u64) {
    let mut sumsq = 0.0f64;
    let mut nonfinite = 0u64;
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::sumsq_nonfinite(x, &mut sumsq, &mut nonfinite),
        SimdLevel::Scalar => {
            for &v in x {
                if v.is_finite() {
                    sumsq += v as f64 * v as f64;
                } else {
                    nonfinite += 1;
                }
            }
        }
    }
    (sumsq, nonfinite)
}

/// Fill `out` with positions `first..first + out.len()` of the normal stream
/// keyed by `key`, scaled by `sigma` — the initial-weight draw.
///
/// Position `j` is a pure function of `(key, j)`: the two counters of pair
/// `j / 2` hash to two 24-bit uniforms, and an f32 Box–Muller turns them into
/// `σ·r·cos θ` (even `j`) and `σ·r·sin θ` (odd `j`). Any sub-range can be
/// drawn alone, in any order, on any thread, and equals the same positions
/// of one long draw. `ln` and `sincos` are short polynomials in separate
/// mul and add — no libm, no FMA — so both dispatch levels give the same
/// bits. Every value lies within `σ·√(2·ln 2²⁴)` (to f32 rounding).
///
/// # Panics
/// Panics if the range reaches past position 2³² (the counters are 32-bit).
pub fn normal_fill(key: u64, first: u64, sigma: f32, out: &mut [f32]) {
    let end = first.checked_add(out.len() as u64);
    assert!(
        end.is_some_and(|e| e <= 1 << 32),
        "normal stream ends past 2^32"
    );
    let key = [key as u32, (key >> 32) as u32];
    let mut pair = (first / 2) as u32;
    let (head, out) = out.split_at_mut(((first % 2) as usize).min(out.len()));
    if let [z] = head {
        *z = normal_pair(key, pair, sigma)[1];
        pair += 1;
    }
    let (pairs, tail) = out.split_at_mut(out.len() & !1);
    match simd::active_level() {
        SimdLevel::Avx2 | SimdLevel::Avx512 => simd::normal_pairs(key, pair, sigma, pairs),
        SimdLevel::Scalar => normal_pairs(key, pair, sigma, pairs),
    }
    if let [z] = tail {
        *z = normal_pair(key, pair + (pairs.len() / 2) as u32, sigma)[0];
    }
}

/// Stream pairs `pair, pair + 1, …` into `out` (even length), both halves
/// kept: the portable body of [`normal_fill`], and the AVX2 body's tail.
pub(crate) fn normal_pairs(key: [u32; 2], pair: u32, sigma: f32, out: &mut [f32]) {
    for (p, z) in (pair..).zip(out.chunks_exact_mut(2)) {
        z.copy_from_slice(&normal_pair(key, p, sigma));
    }
}

// The normal stream's constants, shared with its AVX2 twin in `simd.rs`.
/// Multipliers of `mix32` (Wellons' `lowbias32`, a bijection on `u32`).
pub(crate) const MIX: [u32; 2] = [0x7feb_352d, 0x846c_a68b];
/// `2⁻²⁴`: a 24-bit integer to a uniform.
pub(crate) const TWO_POW_M24: f32 = 1.0 / 16_777_216.0;
/// `2π / 2²⁴`: one step of a 24-bit angle.
pub(crate) const ANGLE_STEP: f32 = std::f32::consts::PI / 8_388_608.0;
/// `ln 2` in two parts, the high one exact in a few bits (Cephes `logf`).
pub(crate) const LN2: [f32; 2] = [0.693_359_4, -2.121_944_4e-4];
/// Cephes `logf` on `z = m − 1`, `m ∈ [√½, √2)`, highest degree first.
pub(crate) const LN_POLY: [f32; 9] = [
    7.037_683_6e-2,
    -1.151_461e-1,
    1.167_699_84e-1,
    -1.242_014_1e-1,
    1.424_932_3e-1,
    -1.666_805_7e-1,
    2.000_071_4e-1,
    -2.499_999_4e-1,
    3.333_333e-1,
];
/// Cephes `sinf` / `cosf` on `φ ∈ [−π/4, π/4]`, highest degree first.
pub(crate) const SIN_POLY: [f32; 3] = [-1.951_529_6e-4, 8.332_161e-3, -1.666_665_5e-1];
pub(crate) const COS_POLY: [f32; 3] = [2.443_315_7e-5, -1.388_731_6e-3, 4.166_664_6e-2];

/// Wellons' `lowbias32` integer hash.
#[inline(always)]
fn mix32(x: u32) -> u32 {
    let x = (x ^ (x >> 16)).wrapping_mul(MIX[0]);
    let x = (x ^ (x >> 15)).wrapping_mul(MIX[1]);
    x ^ (x >> 16)
}

/// Stream pair `pair` under `key`: `[σ·r·cos θ, σ·r·sin θ]`. Counter `2·pair`
/// gives the radius, `2·pair + 1` the angle.
#[inline(always)]
pub(crate) fn normal_pair([k0, k1]: [u32; 2], pair: u32, sigma: f32) -> [f32; 2] {
    let hash = |c: u32| mix32(mix32(c ^ k0) ^ k1);
    let (a, b) = (hash(2 * pair), hash(2 * pair + 1));
    // r = √(−2·ln u), u = (a₂₄ + 1)·2⁻²⁴ ∈ [2⁻²⁴, 1], exact in f32.
    let u = ((a >> 8) + 1) as f32 * TWO_POW_M24;
    let sr = sigma * (ln_poly(u) * -2.0).sqrt();
    // θ = b₂₄ steps = q·π/2 + φ with φ ∈ [−π/4, π/4): quadrant `q` swaps
    // and negates the two halves exactly.
    let w = ((b >> 8) + (1 << 21)) & 0xff_ffff;
    let phi = ((w & 0x3f_ffff) as i32 - (1 << 21)) as f32 * ANGLE_STEP;
    let (s, c) = sincos_poly(phi);
    let q = w >> 22;
    let (c, s) = if q & 1 == 1 { (s, c) } else { (c, s) };
    let cos = f32::from_bits(c.to_bits() ^ (((q + 1) & 2) << 30));
    let sin = f32::from_bits(s.to_bits() ^ ((q & 2) << 30));
    [sr * cos, sr * sin]
}

/// `ln u` for a normal `u > 0`: exponent and mantissa `m ∈ [√½, √2)`, then
/// Cephes' polynomial in `m − 1`.
#[inline(always)]
fn ln_poly(u: f32) -> f32 {
    let bits = u.to_bits();
    let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000);
    let e = (bits >> 23) as i32 - 126;
    let low = m < std::f32::consts::FRAC_1_SQRT_2;
    let (e, m) = if low { (e - 1, m + m) } else { (e, m) };
    let (z, e) = (m - 1.0, e as f32);
    let z2 = z * z;
    let p = LN_POLY[1..].iter().fold(LN_POLY[0], |y, &c| y * z + c);
    let y = p * z * z2;
    let y = e * LN2[1] + y;
    let y = z2 * -0.5 + y;
    e * LN2[0] + (z + y)
}

/// `(sin φ, cos φ)` for `|φ| ≤ π/4`.
#[inline(always)]
fn sincos_poly(phi: f32) -> (f32, f32) {
    let z = phi * phi;
    let ps = SIN_POLY[1..].iter().fold(SIN_POLY[0], |y, &c| y * z + c);
    let pc = COS_POLY[1..].iter().fold(COS_POLY[0], |y, &c| y * z + c);
    let sin = ps * z * phi + phi;
    let cos = pc * z * z + z * -0.5 + 1.0;
    (sin, cos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpby_combines() {
        let x = [1.0, 1.0];
        let mut y = [2.0, 4.0];
        axpby(3.0, &x, 0.5, &mut y);
        assert_eq!(y, [4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_len_mismatch_panics() {
        axpy(1.0, &[1.0], &mut [1.0, 2.0]);
    }

    #[test]
    fn scale_and_dot() {
        let mut x = [1.0, 2.0];
        scale(3.0, &mut x);
        assert_eq!(x, [3.0, 6.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn hadamard_and_assign() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 2.0], &[0.5, 1.0]]);
        let mut out = Matrix::zeros(2, 2);
        hadamard(&a, &b, &mut out);
        assert_eq!(out, Matrix::from_rows(&[&[2.0, 4.0], &[1.5, 4.0]]));
        let mut a2 = a.clone();
        hadamard_assign(&mut a2, &b);
        assert_eq!(a2, out);
    }

    #[test]
    fn sub_assign_subtracts() {
        let mut a = Matrix::full(2, 2, 4.0);
        let b = Matrix::full(2, 2, 1.0);
        sub_assign(&mut a, &b);
        assert_eq!(a, Matrix::full(2, 2, 3.0));
    }

    #[test]
    fn bias_broadcast() {
        let mut m = Matrix::zeros(3, 2);
        add_row_broadcast(&mut m, &[1.0, -1.0]);
        for i in 0..3 {
            assert_eq!(m.row(i), &[1.0, -1.0]);
        }
    }

    #[test]
    fn col_sum_is_bias_gradient() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(col_sum(&m), vec![9.0, 12.0]);
    }

    #[test]
    fn softmax_rows_normalized() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        softmax_rows(&mut m);
        for i in 0..2 {
            let s: f32 = m.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
        }
        // Monotonicity within a row.
        assert!(m.get(0, 2) > m.get(0, 1) && m.get(0, 1) > m.get(0, 0));
        // Huge but equal logits must not produce NaN (stability check).
        assert!((m.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        let mut m = Matrix::from_rows(&[&[-100.0, 0.0, 100.0]]);
        sigmoid_inplace(&mut m);
        assert!(m.get(0, 0) >= 0.0 && m.get(0, 0) < 1e-6);
        assert!((m.get(0, 1) - 0.5).abs() < 1e-6);
        assert!(m.get(0, 2) > 1.0 - 1e-6 && m.get(0, 2) <= 1.0);
        assert!(m.all_finite());
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmax_empty_panics() {
        argmax(&[]);
    }

    #[test]
    fn sum_and_mean() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(sum(&m), 10.0);
        assert_eq!(mean(&m), 2.5);
        assert_eq!(mean(&Matrix::zeros(0, 0)), 0.0);
    }

    #[test]
    fn map_inplace_applies() {
        let mut m = Matrix::from_rows(&[&[1.0, -2.0]]);
        map_inplace(&mut m, |x| x.abs());
        assert_eq!(m, Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn col_sum_into_matches_col_sum() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut out = vec![f32::NAN; 2]; // must be overwritten, not accumulated
        col_sum_into(&m, &mut out);
        assert_eq!(out, col_sum(&m));
    }

    #[test]
    fn tanh_and_relu_inplace() {
        let mut t = Matrix::from_rows(&[&[-1.0, 0.0, 1.0]]);
        tanh_inplace(&mut t);
        assert!((t.get(0, 0) - (-1.0f32).tanh()).abs() < 1e-5);
        assert!(t.get(0, 1).abs() < 1e-6);

        let mut r = Matrix::from_rows(&[&[-3.0, 0.0, 2.5]]);
        relu_inplace(&mut r);
        assert_eq!(r, Matrix::from_rows(&[&[0.0, 0.0, 2.5]]));
    }

    #[test]
    fn derivative_multiplies() {
        let a = Matrix::from_rows(&[&[0.25, 0.5, 0.75]]);
        let mut d = Matrix::from_rows(&[&[2.0, 2.0, 2.0]]);
        mul_sigmoid_derivative(&a, &mut d);
        for j in 0..3 {
            let av = a.get(0, j);
            assert!((d.get(0, j) - 2.0 * av * (1.0 - av)).abs() < 1e-6);
        }

        let mut dt = Matrix::from_rows(&[&[3.0, 3.0, 3.0]]);
        mul_tanh_derivative(&a, &mut dt);
        for j in 0..3 {
            let av = a.get(0, j);
            assert!((dt.get(0, j) - 3.0 * (1.0 - av * av)).abs() < 1e-6);
        }

        let mask = Matrix::from_rows(&[&[-1.0, 0.0, 5.0]]);
        let mut dr = Matrix::from_rows(&[&[-7.0, 7.0, 7.0]]);
        mul_relu_derivative(&mask, &mut dr);
        assert_eq!(dr.as_slice(), &[0.0, 0.0, 7.0]);
        // Masked-out lanes must be +0.0 on every dispatch path.
        assert_eq!(dr.get(0, 0).to_bits(), 0.0f32.to_bits());
    }

    /// Linear kernels must be bit-identical across dispatch paths;
    /// transcendental ones agree within 1e-6.
    #[test]
    fn dispatch_paths_agree() {
        use crate::simd::{with_level, SimdLevel};
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        // Odd length to exercise the vector tail.
        let x: Vec<f32> = (0..103).map(|_| next() * 4.0).collect();
        let y0: Vec<f32> = (0..103).map(|_| next()).collect();

        let run = |lvl: SimdLevel| {
            with_level(lvl, || {
                let mut y = y0.clone();
                axpy(0.37, &x, &mut y);
                axpby(1.1, &x, -0.4, &mut y);
                scale(0.93, &mut y);
                y
            })
        };
        assert_eq!(run(SimdLevel::Scalar), run(SimdLevel::Avx2));

        let act = |lvl: SimdLevel| {
            with_level(lvl, || {
                let mut m =
                    Matrix::from_fn(7, 13, |i, j| (i as f32 - 3.0) * (j as f32 - 6.0) / 5.0);
                sigmoid_inplace(&mut m);
                let mut t = Matrix::from_fn(7, 13, |i, j| (j as f32 - i as f32) / 3.0);
                tanh_inplace(&mut t);
                (m, t)
            })
        };
        let (s_scalar, t_scalar) = act(SimdLevel::Scalar);
        let (s_simd, t_simd) = act(SimdLevel::Avx2);
        for (a, b) in s_scalar
            .as_slice()
            .iter()
            .zip(s_simd.as_slice())
            .chain(t_scalar.as_slice().iter().zip(t_simd.as_slice()))
        {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
    #[test]
    fn sumsq_nonfinite_counts_and_sums() {
        use crate::simd::{host_levels, with_level};
        // 19 elements: vector body (16) + scalar tail (3), with poisoned
        // lanes in both regions.
        let mut x: Vec<f32> = (0..19).map(|i| (i as f32 - 9.0) / 4.0).collect();
        x[3] = f32::NAN;
        x[8] = f32::INFINITY;
        x[17] = f32::NEG_INFINITY;
        let expect_sum: f64 = x
            .iter()
            .filter(|v| v.is_finite())
            .map(|&v| v as f64 * v as f64)
            .sum();
        for lvl in host_levels() {
            let (s, bad) = with_level(lvl, || sumsq_nonfinite(&x));
            assert_eq!(bad, 3, "{lvl:?}");
            assert!(
                (s - expect_sum).abs() < 1e-9,
                "{lvl:?}: {s} vs {expect_sum}"
            );
        }
        assert_eq!(sumsq_nonfinite(&[]), (0.0, 0));
    }
}
