//! Property tests pinning the sparse fast path to the dense semantics.
//!
//! Every property runs under *both* forced SIMD dispatch levels via
//! [`simd::with_level`] — on hosts without AVX2 the forced-Avx2 run clamps
//! to scalar and the property degenerates to scalar==scalar, so the suite
//! is portable and only *bites* on x86-64.
//!
//! The sparse path is exact on the dense tail by construction (it runs the
//! same GEMMs); what these properties pin is the layer-0 CSR kernels:
//! forward activations and the full gradient must match the dense path
//! within accumulation-order tolerance over random densities and shapes,
//! including fully-empty batches and rows.

// The loom build swaps SharedModel's atomics for model-checked versions
// that require a loom context; these std tests are compiled out there.
#![cfg(not(feature = "loom"))]

use hetero_nn::{
    forward, forward_sparse, loss_and_gradient, loss_and_gradient_sparse, Activation, InitScheme,
    LossKind, MlpSpec, Model, Targets,
};
use hetero_tensor::simd::{self, SimdLevel};
use hetero_tensor::{CsrMatrix, Matrix};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = MlpSpec> {
    (
        1usize..48,
        prop::collection::vec(1usize..12, 0..3),
        2usize..5,
    )
        .prop_map(|(input, hidden, classes)| MlpSpec {
            input_dim: input,
            hidden,
            classes,
            activation: Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        })
}

/// A batch whose entries are nonzero with probability `density` — so 0.0
/// yields an all-zero batch and high seeds still produce empty rows.
fn sparse_batch(rows: usize, cols: usize, density: f64, seed: u64) -> (Matrix, Vec<u32>) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let x = Matrix::from_fn(rows, cols, |_, _| {
        let gate = next();
        let v = next() - 0.5;
        if gate < density {
            v as f32
        } else {
            0.0
        }
    });
    let y = (0..rows).map(|i| (i % 2) as u32).collect();
    (x, y)
}

fn rel_close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse forward activations match the dense forward within 1e-5
    /// under both dispatch levels.
    #[test]
    fn sparse_forward_matches_dense_both_levels(
        spec in arb_spec(),
        rows in 1usize..9,
        density in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        let model = Model::new(spec.clone(), InitScheme::Xavier, seed);
        let (x, _) = sparse_batch(rows, spec.input_dim, density, seed);
        let csr = CsrMatrix::from_dense(&x, 0.0);
        let dense = forward(&model, &x, false);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let sparse = simd::with_level(level, || forward_sparse(&model, &csr, false));
            prop_assert_eq!(dense.probs().shape(), sparse.probs().shape());
            for (d, s) in dense.probs().as_slice().iter().zip(sparse.probs().as_slice()) {
                prop_assert!(rel_close(*d, *s, 1e-5), "{level:?}: {d} vs {s}");
            }
        }
    }

    /// Sparse loss and full gradient (∇W₁ included) match the dense path
    /// within 1e-5 under both dispatch levels.
    #[test]
    fn sparse_gradient_matches_dense_both_levels(
        spec in arb_spec(),
        rows in 1usize..9,
        density in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        let model = Model::new(spec.clone(), InitScheme::Xavier, seed);
        let (x, y) = sparse_batch(rows, spec.input_dim, density, seed);
        let csr = CsrMatrix::from_dense(&x, 0.0);
        let (dl, dg) = loss_and_gradient(&model, &x, Targets::Classes(&y), false);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let (sl, sg) = simd::with_level(level, || {
                loss_and_gradient_sparse(&model, &csr, Targets::Classes(&y), false)
            });
            prop_assert!(rel_close(dl, sl, 1e-5), "{level:?}: loss {dl} vs {sl}");
            for (d, s) in dg.flatten().iter().zip(sg.flatten().iter()) {
                prop_assert!(rel_close(*d, *s, 1e-5), "{level:?}: grad {d} vs {s}");
            }
        }
    }

    /// The layer-0 gradient is exactly zero in the row of every input
    /// feature the batch never touches — the contract the row-sparse
    /// apply/merge paths rely on.
    #[test]
    fn untouched_rows_have_exactly_zero_gradient(
        spec in arb_spec(),
        rows in 1usize..9,
        density in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let model = Model::new(spec.clone(), InitScheme::Xavier, seed);
        let (x, y) = sparse_batch(rows, spec.input_dim, density, seed);
        let csr = CsrMatrix::from_dense(&x, 0.0);
        let (_, sg) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&y), false);
        let gw0 = &sg.layers()[0].w;
        for c in 0..gw0.rows() {
            let touched = (0..rows).any(|r| x.get(r, c) != 0.0);
            if !touched {
                for (o, &g) in gw0.row(c).iter().enumerate() {
                    prop_assert_eq!(g, 0.0, "feature {} unit {}", c, o);
                }
            }
        }
    }
}
