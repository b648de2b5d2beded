//! Model-checking of the SharedModel update paths under `--features loom`:
//! concurrent merges (stripe-owned) and the CAS gradient path must never
//! lose an update in any interleaving, and the racy Hogwild path — against
//! another lane or against a merge — must stay inside its documented
//! lost-update envelope (values from a feasible serialization, never
//! corruption). `scripts/check_mutation.sh` rebuilds this suite with
//! `--cfg hetero_unguarded_merge` (mergers skip stripe acquisition) and
//! requires the two-merger models to fail.
#![cfg(feature = "loom")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hetero_nn::{Activation, InitScheme, LossKind, MergeScan, MlpSpec, Model, SharedModel};
use loom::thread;

/// Smallest possible network (one 1×1 weight + one bias = 2 parameters) so
/// the model checker's schedule space stays tractable.
fn scalar_spec() -> MlpSpec {
    MlpSpec {
        input_dim: 1,
        hidden: vec![],
        classes: 1,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    }
}

/// One merger walks every stripe, the other only input feature 0's layer-0
/// row plus the tail (the row-sparse path of a CSR gradient): they meet on
/// the weight row, and neither add may be lost.
#[test]
fn concurrent_merge_delta_loses_nothing() {
    loom::model(|| {
        let base = Model::new(scalar_spec(), InitScheme::Constant(0.0), 0);
        let shared = Arc::new(SharedModel::new(&base));
        let mut replica = base.clone();
        replica.layers_mut()[0].w.row_mut(0)[0] = 1.0;
        let handles: Vec<_> = [None, Some(0u32)]
            .into_iter()
            .map(|row| {
                let s = Arc::clone(&shared);
                let (b, r) = (base.clone(), replica.clone());
                thread::spawn(move || {
                    let rows = row.as_ref().map(std::slice::from_ref);
                    s.merge(&b, &r, 1.0, rows, None)
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.update_count(), 2);
        let w = shared.snapshot().layers()[0].w.get(0, 0);
        assert!((w - 2.0).abs() < 1e-6, "CAS merge lost an update: {w}");
    });
}

#[test]
fn concurrent_atomic_gradients_all_applied() {
    loom::model(|| {
        let base = Model::new(scalar_spec(), InitScheme::Constant(0.0), 0);
        let shared = Arc::new(SharedModel::new(&base));
        let mut grad = Model::zeros_like(base.spec());
        grad.layers_mut()[0].w.set(0, 0, 1.0);
        let grad = Arc::new(grad);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&shared);
                let g = Arc::clone(&grad);
                thread::spawn(move || s.apply_gradient_atomic(&g, 1.0))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let w = shared.snapshot().layers()[0].w.get(0, 0);
        assert!(
            (w - (-2.0)).abs() < 1e-6,
            "atomic gradient path lost an update: {w}"
        );
        assert_eq!(shared.update_count(), 2);
    });
}

#[test]
fn racy_hogwild_updates_stay_in_feasible_envelope() {
    loom::model(|| {
        let base = Model::new(scalar_spec(), InitScheme::Constant(0.0), 0);
        let shared = Arc::new(SharedModel::new(&base));
        let mut grad = Model::zeros_like(base.spec());
        grad.layers_mut()[0].w.set(0, 0, 1.0);
        let grad = Arc::new(grad);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&shared);
                let g = Arc::clone(&grad);
                thread::spawn(move || s.apply_racy(&g, 1.0, None))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Hogwild: anywhere between "one overwrote the other" and "both
        // landed" is a feasible serialization; anything else is corruption.
        let w = shared.snapshot().layers()[0].w.get(0, 0);
        assert!(
            w == -1.0 || w == -2.0,
            "racy result {w} outside the feasible envelope"
        );
        assert_eq!(shared.update_count(), 2);
    });
}

/// Two mergers over the two stripes of the scalar spec (its weight row and
/// its bias), both with a delta on both: in some schedule one finds the
/// other's stripe owned, holds it back and comes back to it. Both deltas
/// must land exactly, and each merger must observe each of its own deltas
/// exactly once — a revisit that re-walked a stripe it had already merged
/// would double both the add and the scan.
#[test]
fn contended_merges_land_exactly_and_revisit_once() {
    let found_owned = Arc::new(AtomicU64::new(0));
    let tally = Arc::clone(&found_owned);
    loom::model(move || {
        let base = Model::new(scalar_spec(), InitScheme::Constant(0.0), 0);
        let shared = Arc::new(SharedModel::new(&base));
        let mut replica = base.clone();
        replica.layers_mut()[0].w.set(0, 0, 1.0);
        replica.layers_mut()[0].b[0] = 0.5;
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&shared);
                let (b, r) = (base.clone(), replica.clone());
                thread::spawn(move || {
                    let mut scan = MergeScan::for_model(&b);
                    let owned = s.merge(&b, &r, 1.0, None, Some(&mut scan));
                    (owned, scan)
                })
            })
            .collect();
        for h in handles {
            let (owned, scan) = h.join().unwrap();
            // Plain std atomic on purpose: a tally across schedules, not
            // part of the model.
            tally.fetch_add(owned, Ordering::Relaxed);
            assert!(owned <= 2, "{owned} of 2 stripes found owned");
            let seen = scan.layers()[0];
            assert_eq!(
                (seen.sumsq, seen.nonfinite),
                (1.25, 0),
                "a stripe was observed other than exactly once"
            );
        }
        assert_eq!(shared.update_count(), 2);
        let merged = shared.snapshot();
        let (w, b) = (merged.layers()[0].w.get(0, 0), merged.layers()[0].b[0]);
        assert!(
            w == 2.0 && b == 1.0,
            "stripe-owned merge lost an update: w={w} b={b}"
        );
    });
    assert!(
        found_owned.load(Ordering::Relaxed) > 0,
        "no schedule made a merger find a stripe owned"
    );
}

/// A merge against a racy lane on one parameter is Hogwild in both
/// directions: either write may overwrite the other, or both land.
#[test]
fn merge_against_racy_lane_stays_in_feasible_envelope() {
    loom::model(|| {
        let base = Model::new(scalar_spec(), InitScheme::Constant(0.0), 0);
        let shared = Arc::new(SharedModel::new(&base));
        let mut replica = base.clone();
        replica.layers_mut()[0].w.set(0, 0, 1.0);
        let mut grad = Model::zeros_like(base.spec());
        grad.layers_mut()[0].w.set(0, 0, 2.0);
        let merger = {
            let s = Arc::clone(&shared);
            thread::spawn(move || s.merge(&base, &replica, 1.0, None, None))
        };
        let lane = {
            let s = Arc::clone(&shared);
            thread::spawn(move || s.apply_racy(&grad, 1.0, None))
        };
        assert_eq!(merger.join().unwrap(), 0, "a lane never owns a stripe");
        lane.join().unwrap();
        // +1 from the merge, −2 from the lane: both landed, the merge's
        // store came last, or the lane's did.
        let w = shared.snapshot().layers()[0].w.get(0, 0);
        assert!(
            w == -1.0 || w == 1.0 || w == -2.0,
            "merge-vs-lane result {w} outside the feasible envelope"
        );
        assert_eq!(shared.snapshot().layers()[0].b[0], 0.0);
        assert_eq!(shared.update_count(), 2);
    });
}
