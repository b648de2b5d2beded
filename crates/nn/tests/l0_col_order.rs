//! Layer 0 is stored `in × out`, so an active input feature is one
//! contiguous weight row, and the row-sparse kernels visit whole rows that
//! are independent of each other: the *order* of `l0_cols` must never show
//! in the result. Shuffled, descending and ascending row lists — from none
//! to every input feature — give bit-identical parameters, scan sums and
//! update counts. And the workspace hands those kernels the dense merge's
//! own order: `active_cols()` is ascending and duplicate-free.

// The loom build swaps SharedModel's atomics for model-checked versions
// that require a loom context; these std tests are compiled out there.
#![cfg(not(feature = "loom"))]

use hetero_nn::{
    Activation, InitScheme, LossKind, MergeScan, MlpSpec, Model, SharedModel, Targets, Workspace,
};
use hetero_tensor::simd;
use hetero_tensor::{CsrMatrix, Matrix};

const IN: usize = 600;
const HIDDEN: usize = 32;

fn spec() -> MlpSpec {
    MlpSpec {
        input_dim: IN,
        hidden: vec![HIDDEN],
        classes: 3,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// `n` distinct input features of `0..IN`, ascending.
fn ascending_rows(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed | 1;
    let mut all: Vec<u32> = (0..IN as u32).collect();
    for i in (1..all.len()).rev() {
        all.swap(i, lcg(&mut state) as usize % (i + 1));
    }
    all.truncate(n);
    all.sort_unstable();
    all
}

/// The ascending list plus a shuffled and a descending copy of it.
fn orders(asc: &[u32]) -> [Vec<u32>; 3] {
    let mut shuffled = asc.to_vec();
    let mut state = 0x5eed;
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, lcg(&mut state) as usize % (i + 1));
    }
    let descending = asc.iter().rev().copied().collect();
    [asc.to_vec(), shuffled, descending]
}

/// A model-shaped delta that is zero in layer-0 rows outside `rows` and a
/// small multiple of 2⁻⁶ everywhere else — dyadic, so every product and
/// every `f64` sum of squares below is exact whatever the visiting order.
fn dyadic_on(rows: &[u32]) -> Model {
    let mut g = Model::zeros_like(&spec());
    let mut k = 0u32;
    let mut next = move || {
        k += 1;
        ((k % 23) as f32 - 11.0) / 64.0
    };
    for &c in rows {
        g.layers_mut()[0]
            .w
            .row_mut(c as usize)
            .iter_mut()
            .for_each(|w| *w = next());
    }
    for layer in g.layers_mut() {
        layer.b.iter_mut().for_each(|b| *b = next());
    }
    g.layers_mut()[1]
        .w
        .as_mut_slice()
        .iter_mut()
        .for_each(|w| *w = next());
    g
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Row counts from none through a few to every input feature.
const SIZES: [usize; 7] = [0, 1, 2, 63, 64, 65, IN];

#[test]
fn racy_row_kernels_ignore_row_order() {
    let init = Model::new(spec(), InitScheme::Xavier, 5);
    for n in SIZES {
        let asc = ascending_rows(n, n as u64);
        let grad = dyadic_on(&asc);
        let dense = SharedModel::new(&init);
        dense.apply_racy(&grad, 0.5, None);
        for rows in orders(&asc) {
            let shared = SharedModel::new(&init);
            shared.apply_racy(&grad, 0.5, Some(&rows));
            assert_eq!(bits(&shared.read_flat()), bits(&dense.read_flat()), "n={n}");
            assert_eq!(shared.update_count(), 1);
        }
    }
}

/// Besides the order-independence, the sizes straddle 64 rows, the most
/// stripes a merge holds back before it revisits them.
#[test]
fn sparse_merge_ignores_row_order_and_matches_dense_scan() {
    // A dyadic base too, so `replica − base` is exact.
    let base = Model::new(spec(), InitScheme::Constant(0.25), 0);
    for n in SIZES {
        let asc = ascending_rows(n, 100 + n as u64);
        let mut replica = base.clone();
        replica.apply_gradient(&dyadic_on(&asc), -1.0);
        let dense = SharedModel::new(&base);
        let mut dense_scan = MergeScan::for_model(&base);
        dense.merge(&base, &replica, 0.5, None, Some(&mut dense_scan));
        for rows in orders(&asc) {
            let shared = SharedModel::new(&base);
            let mut scan = MergeScan::for_model(&base);
            let retries = shared.merge(&base, &replica, 0.5, Some(&rows), Some(&mut scan));
            assert_eq!(retries, 0);
            assert_eq!(shared.update_count(), 1);
            assert_eq!(bits(&shared.read_flat()), bits(&dense.read_flat()), "n={n}");
            for (got, want) in scan.layers().iter().zip(dense_scan.layers()) {
                assert_eq!(got.sumsq.to_bits(), want.sumsq.to_bits(), "n={n}");
                assert_eq!(got.nonfinite, want.nonfinite);
            }
        }
    }
}

#[test]
fn apply_gradient_sparse_ignores_row_order() {
    let init = Model::new(spec(), InitScheme::Xavier, 8);
    for n in SIZES {
        let asc = ascending_rows(n, 200 + n as u64);
        let grad = dyadic_on(&asc);
        let mut dense = init.clone();
        dense.apply_gradient(&grad, 0.25);
        for rows in orders(&asc) {
            let mut sparse = init.clone();
            sparse.apply_gradient_sparse(&grad, 0.25, &rows);
            assert_eq!(bits(&sparse.flatten()), bits(&dense.flatten()), "n={n}");
        }
    }
}

/// A batch of `rows` examples whose union of columns is exactly `support`,
/// every column used by one to three examples (so the CSR index stream
/// repeats columns and is nowhere near globally sorted).
fn batch_on(support: &[u32], rows: usize, seed: u64) -> (CsrMatrix, Vec<u32>) {
    let mut state = seed | 1;
    let mut dense = Matrix::zeros(rows, IN);
    for &c in support {
        for _ in 0..1 + lcg(&mut state) % 3 {
            let r = lcg(&mut state) as usize % rows;
            dense.set(r, c as usize, (lcg(&mut state) % 17) as f32 / 8.0 - 1.0625);
        }
    }
    let labels = (0..rows).map(|i| (i % 3) as u32).collect();
    (CsrMatrix::from_dense(&dense, 0.0), labels)
}

/// `active_cols()` is the batch's support, strictly ascending — and a
/// reused workspace (a previous support to re-zero, an eval-style forward
/// on other features in between, a changed model) still produces exactly
/// what a fresh one does, under every dispatch level the host has.
#[test]
fn active_cols_ascending_and_reused_workspace_exact() {
    for level in simd::host_levels() {
        simd::with_level(level, || {
            let mut ws = Workspace::new(&spec());
            assert!(ws.active_cols().is_none());
            for (step, n) in SIZES.into_iter().chain([65, 3]).enumerate() {
                let model = Model::new(spec(), InitScheme::Xavier, step as u64);
                let support = ascending_rows(n, 300 + step as u64);
                let (x, labels) = batch_on(&support, 7, step as u64);
                let other = batch_on(&ascending_rows(133, 900 + step as u64), 4, 1).0;
                ws.forward_into(&model, other.view(), false);

                let (l, g) =
                    ws.loss_and_gradient_into(&model, x.view(), Targets::Classes(&labels), false);
                let (l, g) = (l, g.clone());
                let active = ws.active_cols().expect("CSR gradient");
                assert_eq!(active, support, "n={n}");
                assert!(active.windows(2).all(|w| w[0] < w[1]));

                let mut fresh = Workspace::new(&spec());
                let (l_ref, g_ref) = fresh.loss_and_gradient_into(
                    &model,
                    x.view(),
                    Targets::Classes(&labels),
                    false,
                );
                assert_eq!(l.to_bits(), l_ref.to_bits(), "n={n}");
                assert_eq!(bits(&g.flatten()), bits(&g_ref.flatten()), "n={n}");
                // Globally exact: true zeros outside the support.
                let gw = &g.layers()[0].w;
                for c in (0..IN).filter(|c| !support.contains(&(*c as u32))) {
                    assert!(gw.row(c).iter().all(|&v| v == 0.0), "row {c}");
                }
            }
        });
    }
}
