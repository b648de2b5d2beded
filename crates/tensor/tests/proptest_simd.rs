//! Property tests pinning the AVX2 microkernels to the scalar semantics.
//!
//! Every test runs the kernel under *both* forced dispatch levels via
//! [`simd::with_level`]. On hosts without AVX2 the forced-Avx2 run clamps
//! to scalar, so the properties degenerate to scalar==scalar and still pass
//! — the suite is portable, it just only *bites* on x86-64.
//!
//! Shape strategy deliberately includes odd / non-multiple-of-tile sizes so
//! the microkernel edge handling (zero-padded 6-row / 16-column panels,
//! masked stores, k-loop tails) is exercised, not just the fast interior;
//! [`every_tile_boundary_matches_reference`] then walks each dimension
//! across every boundary of the packed path deterministically, and
//! [`par_gemm_is_bit_identical_to_serial`] pins the property the
//! simulator's same-seed check rests on.

use hetero_tensor::simd::{self, SimdLevel};
use hetero_tensor::{gemm, ops, Matrix};
use proptest::prelude::*;

/// Shapes that straddle the 6×16 register tile and the skinny-shape
/// crossovers (4 and 18 rows, 8 columns), including 1 and primes.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..40, 1usize..40, 1usize..40)
}

fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

fn close(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

/// Run one GEMM flavour under a forced level and compare to the f64
/// reference. `beta != 0` checks the C-accumulation path too.
#[allow(clippy::too_many_arguments)]
fn check_gemm_level(
    level: SimdLevel,
    kernel: impl Fn(f32, &Matrix, &Matrix, f32, &mut Matrix),
    a: &Matrix,
    a_t: bool,
    b: &Matrix,
    b_t: bool,
    m: usize,
    n: usize,
    seed: u64,
) -> bool {
    let c0 = seeded(m, n, seed ^ 0x5eed);
    let mut c = c0.clone();
    simd::with_level(level, || kernel(0.75, a, b, 0.5, &mut c));
    let mut c_ref = c0;
    gemm::gemm_reference(0.75, a, a_t, b, b_t, 0.5, &mut c_ref);
    close(&c, &c_ref, 1e-4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NN matches the reference with dispatch forced each way.
    #[test]
    fn gemm_nn_matches_reference_both_levels((m, k, n) in dims(), seed in any::<u64>()) {
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 1);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            prop_assert!(
                check_gemm_level(level, gemm::gemm_nn, &a, false, &b, false, m, n, seed),
                "gemm_nn diverged from reference at {level:?} for {m}x{k}x{n}"
            );
        }
    }

    /// NT (A·Bᵀ) matches the reference with dispatch forced each way.
    #[test]
    fn gemm_nt_matches_reference_both_levels((m, k, n) in dims(), seed in any::<u64>()) {
        let a = seeded(m, k, seed);
        let bt = seeded(n, k, seed ^ 2);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            prop_assert!(
                check_gemm_level(level, gemm::gemm_nt, &a, false, &bt, true, m, n, seed),
                "gemm_nt diverged from reference at {level:?} for {m}x{k}x{n}"
            );
        }
    }

    /// TN (Aᵀ·B) matches the reference with dispatch forced each way.
    #[test]
    fn gemm_tn_matches_reference_both_levels((m, k, n) in dims(), seed in any::<u64>()) {
        let at = seeded(k, m, seed);
        let b = seeded(k, n, seed ^ 3);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            prop_assert!(
                check_gemm_level(level, gemm::gemm_tn, &at, true, &b, false, m, n, seed),
                "gemm_tn diverged from reference at {level:?} for {m}x{k}x{n}"
            );
        }
    }

    /// The fused bias epilogue equals unfused GEMM + broadcast add, at both
    /// levels — and the two levels agree with each other bit-for-bit is NOT
    /// required (the fused path may round differently), only to tolerance.
    #[test]
    fn gemm_nt_bias_equals_unfused((m, k, n) in dims(), seed in any::<u64>()) {
        let a = seeded(m, k, seed);
        let bt = seeded(n, k, seed ^ 4);
        let bias: Vec<f32> = seeded(1, n, seed ^ 5).as_slice().to_vec();
        let mut expect = Matrix::zeros(m, n);
        gemm::gemm_reference(1.0, &a, false, &bt, true, 0.0, &mut expect);
        ops::add_row_broadcast(&mut expect, &bias);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let mut c = Matrix::zeros(m, n);
            simd::with_level(level, || gemm::gemm_nt_bias(1.0, &a, &bt, &bias, &mut c));
            prop_assert!(
                close(&c, &expect, 1e-4),
                "gemm_nt_bias diverged at {level:?} for {m}x{k}x{n}"
            );
        }
    }

    /// Linear element-wise kernels (mul/add only, scalar element order) are
    /// bit-exact across dispatch levels.
    #[test]
    fn linear_ops_bit_exact_across_levels(
        alpha in -4.0f32..4.0,
        beta in -4.0f32..4.0,
        len in 1usize..100,
        seed in any::<u64>(),
    ) {
        let x: Vec<f32> = seeded(1, len, seed).as_slice().to_vec();
        let y: Vec<f32> = seeded(1, len, seed ^ 6).as_slice().to_vec();
        let xm = Matrix::from_vec(1, len, x.clone());
        let run = |level: SimdLevel| {
            simd::with_level(level, || {
                let mut y1 = y.clone();
                ops::axpy(alpha, &x, &mut y1);
                let mut y2 = y.clone();
                ops::axpby(alpha, &x, beta, &mut y2);
                let mut y3 = y.clone();
                ops::scale(alpha, &mut y3);
                let mut h = Matrix::from_vec(1, len, y.clone());
                ops::hadamard_assign(&mut h, &xm);
                let mut sd = y.clone();
                ops::mul_sigmoid_derivative_slice(&x, &mut sd);
                let mut rd = Matrix::from_vec(1, len, y.clone());
                ops::mul_relu_derivative(&xm, &mut rd);
                let mut td = Matrix::from_vec(1, len, y.clone());
                ops::mul_tanh_derivative(&xm, &mut td);
                (y1, y2, y3, h, sd, rd, td)
            })
        };
        prop_assert_eq!(run(SimdLevel::Scalar), run(SimdLevel::Avx2));
    }

    /// Broadcast / reduction kernels are bit-exact across levels: the SIMD
    /// column-sum accumulates per-column exactly like the scalar loop.
    #[test]
    fn broadcast_and_colsum_bit_exact(rows in 1usize..20, cols in 1usize..40, seed in any::<u64>()) {
        let m0 = seeded(rows, cols, seed);
        let row: Vec<f32> = seeded(1, cols, seed ^ 7).as_slice().to_vec();
        let run = |level: SimdLevel| {
            simd::with_level(level, || {
                let mut m = m0.clone();
                ops::add_row_broadcast(&mut m, &row);
                let sums = ops::col_sum(&m0);
                (m, sums)
            })
        };
        prop_assert_eq!(run(SimdLevel::Scalar), run(SimdLevel::Avx2));
    }

    /// Activations with a polynomial-exp SIMD path agree to float tolerance
    /// (they are NOT bit-exact by design) and preserve range invariants.
    #[test]
    fn activations_agree_to_tolerance(rows in 1usize..8, cols in 1usize..40, seed in any::<u64>()) {
        let mut wide = seeded(rows, cols, seed);
        ops::scale(8.0, wide.as_mut_slice()); // push into the saturating tails too
        let run = |level: SimdLevel| {
            simd::with_level(level, || {
                let mut s = wide.clone();
                ops::sigmoid_inplace(&mut s);
                let mut t = wide.clone();
                ops::tanh_inplace(&mut t);
                let mut r = wide.clone();
                ops::relu_inplace(&mut r);
                (s, t, r)
            })
        };
        let (s0, t0, r0) = run(SimdLevel::Scalar);
        let (s1, t1, r1) = run(SimdLevel::Avx2);
        prop_assert!(close(&s0, &s1, 1e-5), "sigmoid diverged past tolerance");
        prop_assert!(close(&t0, &t1, 1e-5), "tanh diverged past tolerance");
        // relu is a pure max — bit-exact.
        prop_assert_eq!(r0, r1);
        prop_assert!(s1.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        prop_assert!(t1.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }
}

/// The four dense products behind one signature: `(α, A, B, β, bias, C)`.
/// `bias` is consulted by the fused flavour only (which ignores β).
type Gemm = fn(f32, &Matrix, &Matrix, f32, &[f32], &mut Matrix);

/// `(name, serial, parallel, A stored transposed, B stored transposed,
/// fused bias)`.
const FLAVOURS: [(&str, Gemm, Gemm, bool, bool, bool); 4] = [
    (
        "nn",
        |al, a, b, be, _, c| gemm::gemm_nn(al, a, b, be, c),
        |al, a, b, be, _, c| gemm::par_gemm_nn(al, a, b, be, c),
        false,
        false,
        false,
    ),
    (
        "tn",
        |al, a, b, be, _, c| gemm::gemm_tn(al, a, b, be, c),
        |al, a, b, be, _, c| gemm::par_gemm_tn(al, a, b, be, c),
        true,
        false,
        false,
    ),
    (
        "nt",
        |al, a, b, be, _, c| gemm::gemm_nt(al, a, b, be, c),
        |al, a, b, be, _, c| gemm::par_gemm_nt(al, a, b, be, c),
        false,
        true,
        false,
    ),
    (
        "nt_bias",
        |al, a, b, _, bias, c| gemm::gemm_nt_bias(al, a, b, bias, c),
        |al, a, b, _, bias, c| gemm::par_gemm_nt_bias(al, a, b, bias, c),
        false,
        true,
        true,
    ),
];

/// Operands of an `m×k · k×n` product in the layout the flavour expects.
fn operands(m: usize, k: usize, n: usize, a_t: bool, b_t: bool, seed: u64) -> (Matrix, Matrix) {
    let a = if a_t {
        seeded(k, m, seed)
    } else {
        seeded(m, k, seed)
    };
    let b = if b_t {
        seeded(n, k, seed ^ 1)
    } else {
        seeded(k, n, seed ^ 1)
    };
    (a, b)
}

/// Every dimension walked across every boundary of the packed path — the
/// 6-row / 16-column tile, the 4- and 18-row skinny crossovers, the 96-row
/// A block, the 384-deep k block and the 512-wide column block (and the
/// scalar kernels' 256) — plus the benchmark's layer widths, for all four
/// flavours, α ≠ 1, β ∈ {0, 1, −0.5} with C pre-filled with NaN wherever it
/// must be overwritten, under both levels. The same call twice must also
/// be bit-identical.
#[test]
fn every_tile_boundary_matches_reference() {
    const EDGES: [usize; 29] = [
        1, 3, 4, 5, 6, 7, 11, 12, 13, 15, 16, 17, 18, 19, 54, 95, 96, 97, 192, 255, 256, 257, 300,
        383, 384, 385, 511, 512, 513,
    ];
    let alpha = 0.75;
    // One dimension on an edge, the other two off every boundary (and large
    // enough to keep the product on the packed path when the edge allows
    // it); then one shape with several blocks along all three at once.
    let mut shapes: Vec<[usize; 3]> = Vec::new();
    for axis in 0..3 {
        for edge in EDGES {
            let mut dims = [19, 9, 17];
            dims[axis] = edge;
            shapes.push(dims);
        }
    }
    shapes.push([97, 385, 513]);
    for (name, kernel, _, a_t, b_t, fused) in FLAVOURS {
        for &[m, k, n] in &shapes {
            let seed = (m * 31 + k * 7 + n) as u64;
            let (a, b) = operands(m, k, n, a_t, b_t, seed);
            let bias: Vec<f32> = seeded(1, n, seed ^ 2).as_slice().to_vec();
            for beta in [0.0, 1.0, -0.5] {
                let overwrites = fused || beta == 0.0;
                if fused && beta != 0.0 {
                    continue; // the fused flavour has no β to vary
                }
                let c0 = if overwrites {
                    Matrix::full(m, n, f32::NAN)
                } else {
                    seeded(m, n, seed ^ 3)
                };
                let mut expect = if overwrites {
                    Matrix::zeros(m, n)
                } else {
                    c0.clone()
                };
                gemm::gemm_reference(alpha, &a, a_t, &b, b_t, beta, &mut expect);
                if fused {
                    ops::add_row_broadcast(&mut expect, &bias);
                }
                for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                    let run = || {
                        let mut c = c0.clone();
                        simd::with_level(level, || kernel(alpha, &a, &b, beta, &bias, &mut c));
                        c
                    };
                    let c = run();
                    assert!(
                        close(&c, &expect, 5e-4),
                        "gemm_{name} {m}x{k}x{n} beta={beta} diverged at {level:?}"
                    );
                    let bits = |m: &Matrix| -> Vec<u32> {
                        m.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&c),
                        bits(&run()),
                        "gemm_{name} {m}x{k}x{n} beta={beta} not repeatable at {level:?}"
                    );
                }
            }
        }
    }
}

/// `par_gemm_*` on a pool of 1, 2 or 3 threads returns exactly the serial
/// kernel's bits: every output element is computed the same way whichever
/// row range it lands in, and the skinny-shape rule looks at the whole
/// product (34 rows split 18 + 16 must both stay on the packed path). The
/// simulator's same-seed bit-identity check depends on this.
#[test]
fn par_gemm_is_bit_identical_to_serial() {
    // All above PAR_MIN_MADDS, so a multi-thread pool really fans out; row
    // counts that split unevenly and leave a ragged last range.
    for (m, k, n) in [(97, 54, 64), (34, 300, 192), (257, 192, 17), (70, 385, 40)] {
        assert!(m * k * n >= gemm::PAR_MIN_MADDS);
        for (name, serial, par, a_t, b_t, _) in FLAVOURS {
            let (a, b) = operands(m, k, n, a_t, b_t, 77);
            let bias: Vec<f32> = seeded(1, n, 78).as_slice().to_vec();
            let c0 = seeded(m, n, 79);
            let mut expect = c0.clone();
            serial(1.25, &a, &b, -0.5, &bias, &mut expect);
            for threads in 1..=3 {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("rayon pool");
                let mut c = c0.clone();
                pool.install(|| par(1.25, &a, &b, -0.5, &bias, &mut c));
                assert!(
                    c.as_slice()
                        .iter()
                        .zip(expect.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "par_gemm_{name} {m}x{k}x{n} on {threads} thread(s) differs from serial"
                );
            }
        }
    }
}
