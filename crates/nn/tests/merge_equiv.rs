//! The stripe-owned merge against its references. Serially, the
//! gradient-source merge, the replica-source merge of `base − η·g` and the
//! per-element CAS apply are one update (dense, and over any order of the
//! layer-0 rows in `l0_cols`); on real threads, concurrent merges land their
//! exact sum while a racy lane works on other parameters.

// The loom build swaps SharedModel's atomics for model-checked versions that
// require a loom context; these std tests are compiled out there.
#![cfg(not(feature = "loom"))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use hetero_nn::{Activation, InitScheme, LossKind, MergeScan, MlpSpec, Model, SharedModel};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = MlpSpec> {
    (1usize..9, prop::collection::vec(1usize..6, 0..3), 2usize..4).prop_map(
        |(input_dim, hidden, classes)| MlpSpec {
            input_dim,
            hidden,
            classes,
            activation: Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        },
    )
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Distance from `|x|` to the next f32 above it.
fn ulp(x: f32) -> f32 {
    let x = x.abs();
    f32::from_bits(x.to_bits() + 1) - x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_sources_agree_with_the_atomic_reference(
        spec in arb_spec(),
        seed in any::<u64>(),
        eta in 0.5f32..2.0,
        sparse in any::<bool>(),
    ) {
        let mut state = seed | 1;
        // Small weights under steps of 0.125·η and up: every delta is the
        // larger operand of its add, so one rounding of `base − η·g` cannot
        // show in `replica − base` beyond the tolerances below.
        let mut base = Model::new(spec.clone(), InitScheme::Xavier, seed);
        base.scale(0.1);
        // A shuffled subset of the input features (possibly empty).
        let mut cols: Vec<u32> = (0..spec.input_dim as u32).collect();
        for i in (1..cols.len()).rev() {
            cols.swap(i, lcg(&mut state) as usize % (i + 1));
        }
        cols.truncate(lcg(&mut state) as usize % (cols.len() + 1));
        let l0_cols = sparse.then_some(&cols[..]);
        let mut grad = Model::zeros_like(&spec);
        let mut draw = || {
            let mag = 0.25 + 0.75 * (lcg(&mut state) % 1024) as f32 / 1024.0;
            if lcg(&mut state).is_multiple_of(2) { mag } else { -mag }
        };
        for (l, layer) in grad.layers_mut().iter_mut().enumerate() {
            let width = layer.w.cols();
            for (i, g) in layer.w.as_mut_slice().iter_mut().enumerate() {
                // The `l0_cols` contract: zero outside the listed layer-0
                // rows (layer 0 is stored in × out: row i / width).
                if l > 0 || !sparse || cols.contains(&((i / width) as u32)) {
                    *g = draw();
                }
            }
            layer.b.iter_mut().for_each(|g| *g = draw());
        }
        let mut replica = base.clone();
        replica.apply_gradient(&grad, eta);

        let layers = base.layers().len();
        let (by_grad, by_replica, by_cas) =
            (SharedModel::new(&base), SharedModel::new(&base), SharedModel::new(&base));
        let (mut scan_g, mut scan_r) = (MergeScan::new(layers), MergeScan::new(layers));
        prop_assert_eq!(by_grad.merge_gradient(&grad, eta, l0_cols, Some(&mut scan_g)), 0);
        prop_assert_eq!(by_replica.merge(&base, &replica, 1.0, l0_cols, Some(&mut scan_r)), 0);
        by_cas.apply_gradient_atomic(&grad, eta);

        let flat = |s: &SharedModel| s.read_flat();
        let (w0, g) = (base.flatten(), grad.flatten());
        let (a, b, c) = (flat(&by_grad), flat(&by_replica), flat(&by_cas));
        for i in 0..w0.len() {
            // `w + (−η·g)` and `w − η·g` are the same f32 operation.
            prop_assert_eq!(a[i].to_bits(), c[i].to_bits(), "param {}", i);
            let tol = ulp(w0[i].abs().max((eta * g[i]).abs()));
            prop_assert!(
                (a[i] - b[i]).abs() <= tol,
                "param {}: {} vs {} (tol {})", i, a[i], b[i], tol
            );
        }
        for (sg, sr) in scan_g.layers().iter().zip(scan_r.layers()) {
            prop_assert_eq!((sg.nonfinite, sr.nonfinite), (0, 0));
            prop_assert!(
                (sg.sumsq - sr.sumsq).abs() <= 1e-6 * sg.sumsq.max(sr.sumsq),
                "scan sums {} vs {}", sg.sumsq, sr.sumsq
            );
        }
    }
}

/// Four threads each merge a known delta 500 times into two layer-0 rows
/// while a fifth runs a racy lane over the *other* parameters (the
/// remaining rows and the dense tail, which the mergers' zero deltas never
/// write): the merged parameters hold the exact sum, and the lane's own
/// parameters every one of its steps — the merge analogue of
/// `atomic_concurrent_updates_none_lost`.
#[test]
fn concurrent_merges_land_their_exact_sum_beside_a_racy_lane() {
    const MERGERS: usize = 4;
    const MERGES: usize = 500;
    let spec = MlpSpec::tiny(6, 2);
    // Dyadic values throughout, so every partial sum is exact in f32.
    let base = Model::new(spec.clone(), InitScheme::Constant(0.5), 0);
    let (merged_cols, lane_cols) = ([1u32, 4], [0u32, 2, 3, 5]);
    let out0 = base.layers()[0].w.cols();
    let mut replica = base.clone();
    for &c in &merged_cols {
        let row = replica.layers_mut()[0].w.row_mut(c as usize);
        for (o, w) in row.iter_mut().enumerate() {
            *w = 0.5 + (o + 1) as f32 / 64.0;
        }
    }
    let mut grad = Model::zeros_like(&spec);
    for (l, layer) in grad.layers_mut().iter_mut().enumerate() {
        let width = layer.w.cols();
        for (i, g) in layer.w.as_mut_slice().iter_mut().enumerate() {
            if l > 0 || lane_cols.contains(&((i / width) as u32)) {
                *g = 1.0;
            }
        }
        layer.b.iter_mut().for_each(|g| *g = -1.0);
    }
    let lane_eta = 1.0 / 1024.0;

    let shared = Arc::new(SharedModel::new(&base));
    let start = Arc::new(Barrier::new(MERGERS + 1));
    let merging = Arc::new(AtomicBool::new(true));
    let mergers: Vec<_> = (0..MERGERS)
        .map(|_| {
            let (shared, start) = (Arc::clone(&shared), Arc::clone(&start));
            let (base, replica) = (base.clone(), replica.clone());
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..MERGES {
                    shared.merge(&base, &replica, 1.0, Some(&merged_cols), None);
                }
            })
        })
        .collect();
    let lane = {
        let (shared, start, merging) = (
            Arc::clone(&shared),
            Arc::clone(&start),
            Arc::clone(&merging),
        );
        std::thread::spawn(move || {
            start.wait();
            let mut steps = 0u32;
            // Relaxed: a stop flag, nothing is published through it.
            while merging.load(Ordering::Relaxed) || steps < 100 {
                shared.apply_racy(&grad, lane_eta, Some(&lane_cols));
                steps += 1;
            }
            steps
        })
    };
    for m in mergers {
        m.join().unwrap();
    }
    merging.store(false, Ordering::Relaxed);
    let steps = lane.join().unwrap();

    let got = shared.snapshot();
    let total = (MERGERS * MERGES) as f32;
    for o in 0..out0 {
        for c in 0..6u32 {
            let expect = if merged_cols.contains(&c) {
                0.5 + total * (o + 1) as f32 / 64.0
            } else {
                0.5 - steps as f32 * lane_eta
            };
            assert_eq!(got.layers()[0].w.get(c as usize, o), expect, "w0[{c}][{o}]");
        }
    }
    let b0 = base.layers()[0].b[0];
    assert_eq!(got.layers()[0].b[0], b0 + steps as f32 * lane_eta);
    assert_eq!(
        got.layers()[1].w.get(0, 0),
        0.5 - steps as f32 * lane_eta,
        "dense tail belongs to the lane"
    );
    assert_eq!(
        shared.update_count(),
        (MERGERS * MERGES) as u64 + steps as u64
    );
}
