//! Tier-1 reaches the dense kernels: the three GEMM transposes (plus the
//! fused-bias forward) at the benchmark's own layer shapes — the w8a net
//! 300-192-192-2 and the covtype net 54-64-64-2 at batch 1 (Hogwild), 64
//! (a Hogbatch lane) and 256 (the adaptive CPU cap) — against the f64
//! reference, under every SIMD level the host has. Every path the shape
//! rule can pick (packed 6×16 or 12×32, dot body, portable kernels) is hit
//! by at least one of them.

use hetero_tensor::simd;
use hetero_tensor::{gemm, ops, Matrix};

fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

fn assert_close(what: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
        assert!(
            (x - y).abs() <= 5e-4 * (1.0 + x.abs().max(y.abs())),
            "{what}: {x} vs {y}"
        );
    }
}

#[test]
fn layer_shapes_match_reference_at_both_levels() {
    for net in [[300, 192, 192, 2], [54, 64, 64, 2]] {
        for layer in net.windows(2) {
            let (fan_in, fan_out) = (layer[0], layer[1]);
            for batch in [1, 64, 256] {
                let x = seeded(batch, fan_in, 1); // layer input
                let w = seeded(fan_out, fan_in, 2); // row-major W[out][in]
                let delta = seeded(batch, fan_out, 3); // ∂loss/∂pre-activation
                let bias: Vec<f32> = seeded(1, fan_out, 4).as_slice().to_vec();

                // forward: Z = X·Wᵀ + b; backprop: δ·W; gradient: δᵀ·X.
                let mut z = Matrix::zeros(batch, fan_out);
                gemm::gemm_reference(1.0, &x, false, &w, true, 0.0, &mut z);
                ops::add_row_broadcast(&mut z, &bias);
                let mut back = Matrix::zeros(batch, fan_in);
                gemm::gemm_reference(1.0, &delta, false, &w, false, 0.0, &mut back);
                let mut grad = Matrix::zeros(fan_out, fan_in);
                gemm::gemm_reference(1.0, &delta, true, &x, false, 0.0, &mut grad);

                for level in simd::host_levels() {
                    let tag = |op: &str| format!("{op} {fan_in}->{fan_out} b{batch} {level:?}");
                    simd::with_level(level, || {
                        // NaN-filled outputs: β = 0 must overwrite, not read.
                        let mut c = Matrix::full(batch, fan_out, f32::NAN);
                        gemm::gemm_nt_bias(1.0, &x, &w, &bias, &mut c);
                        assert_close(&tag("nt_bias"), &c, &z);
                        let mut c = Matrix::full(batch, fan_in, f32::NAN);
                        gemm::gemm_nn(1.0, &delta, &w, 0.0, &mut c);
                        assert_close(&tag("nn"), &c, &back);
                        let mut c = Matrix::full(fan_out, fan_in, f32::NAN);
                        gemm::gemm_tn(1.0, &delta, &x, 0.0, &mut c);
                        assert_close(&tag("tn"), &c, &grad);
                    });
                }
            }
        }
    }
}
