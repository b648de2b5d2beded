//! Model-checking of the SharedModel update paths under `--features loom`:
//! concurrent merges (stripe-owned) and the CAS gradient path must never
//! lose an update in any interleaving, and the racy Hogwild path — against
//! another lane or against a merge — must stay inside its documented
//! lost-update envelope (values from a feasible serialization, never
//! corruption), a CSR step's merge of a block of layer-0 rows must lose
//! nothing beside a whole merge, and a CSR step's block and tail reads, or
//! an eval's read of a tile of layer-0 rows, beside both must see only
//! values the parameters held. `scripts/check_mutation.sh` rebuilds this suite with
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

/// A CSR step's merge of one block of layer-0 gradient rows meets a whole
/// merge on input feature 0's row: neither add may be lost, and the block
/// counts no update (the step's tail write counts its one).
#[test]
fn a_block_merge_beside_a_whole_merge_loses_nothing() {
    loom::model(|| {
        let base = Model::new(scalar_spec(), InitScheme::Constant(0.0), 0);
        let shared = Arc::new(SharedModel::new(&base));
        let mut replica = base.clone();
        replica.layers_mut()[0].w.row_mut(0)[0] = 1.0;
        let block = {
            let s = Arc::clone(&shared);
            thread::spawn(move || s.merge_l0_tile(&[0], &[-1.0], 1.0, None))
        };
        let whole = {
            let s = Arc::clone(&shared);
            thread::spawn(move || s.merge(&base, &replica, 1.0, None, None))
        };
        block.join().unwrap();
        whole.join().unwrap();
        assert_eq!(shared.update_count(), 1);
        let w = shared.snapshot().layers()[0].w.get(0, 0);
        assert!((w - 2.0).abs() < 1e-6, "block merge lost an update: {w}");
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

/// A CSR step's read of its batch's support — the support's block of
/// layer-0 rows, then the tail from layer 0's bias on — races a
/// stripe-owning merger and a racy lane over the same rows. Input feature 1
/// of 2 is the support, so the block holds one row, feature 1's. Every
/// value read must be one the parameter held at some point: a weight of 0
/// (neither write), +1 (the merge), −2 (the lane), or −1 (both); a bias of
/// 0 or +0.5 (the merge's) — never a torn or invented one. Some schedules
/// must read before either write and some after, or nothing raced.
#[test]
fn support_read_sees_only_values_the_parameters_held() {
    let seen = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let tally = Arc::clone(&seen);
    loom::model(move || {
        let spec = MlpSpec {
            input_dim: 2,
            ..scalar_spec()
        };
        let base = Model::new(spec.clone(), InitScheme::Constant(0.0), 0);
        let shared = Arc::new(SharedModel::new(&base));
        let support: &[u32] = &[1];
        let mut merged = Model::zeros_like(&spec);
        merged.layers_mut()[0].w.row_mut(1)[0] = -1.0;
        merged.layers_mut()[0].b[0] = -0.5;
        let mut raced = Model::zeros_like(&spec);
        raced.layers_mut()[0].w.row_mut(1)[0] = 2.0;
        let merger = {
            let s = Arc::clone(&shared);
            thread::spawn(move || s.merge_gradient(&merged, 1.0, Some(support), None))
        };
        let lane = {
            let s = Arc::clone(&shared);
            thread::spawn(move || s.apply_racy(&raced, 1.0, Some(support)))
        };
        let (mut block, mut tail) = ([f32::NAN], Model::zeros_with_l0_rows(&spec, 0));
        shared.read_l0_tile(support, &mut block);
        shared.read_tail(&mut tail);
        merger.join().unwrap();
        lane.join().unwrap();
        let (w, b) = (block[0], tail.layers()[0].b[0]);
        assert!(
            [0.0, 1.0, -2.0, -1.0].contains(&w),
            "support read saw a weight {w} the parameter never held"
        );
        assert!(
            b == 0.0 || b == 0.5,
            "support read saw a bias {b} the parameter never held"
        );
        assert_eq!(shared.snapshot().layers()[0].w.get(0, 0), 0.0);
        // Plain std atomic on purpose: a tally across schedules.
        tally[usize::from(w != 0.0)].fetch_add(1, Ordering::Relaxed);
    });
    let [before, after] = &*seen;
    assert!(
        before.load(Ordering::Relaxed) > 0 && after.load(Ordering::Relaxed) > 0,
        "the read never raced the writes"
    );
}

/// An eval's tile read of layer 0 races a stripe-owning merger and a racy
/// lane over the same row. Input feature 1 of 2 is the tile, read by
/// reference into a one-row buffer. Every value read must be one the
/// parameter held: 0 (neither write), +1 (the merge), −2 (the lane), or −1
/// (both) — never a torn or invented one. Some schedules must read before
/// either write and some after, or nothing raced.
#[test]
fn eval_tile_read_sees_only_values_the_parameter_held() {
    let seen = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let tally = Arc::clone(&seen);
    loom::model(move || {
        let spec = MlpSpec {
            input_dim: 2,
            ..scalar_spec()
        };
        let shared = Arc::new(SharedModel::drawn(
            spec.clone(),
            InitScheme::Constant(0.0),
            0,
        ));
        let support: &[u32] = &[1];
        let mut merged = Model::zeros_like(&spec);
        merged.layers_mut()[0].w.row_mut(1)[0] = -1.0;
        let mut raced = Model::zeros_like(&spec);
        raced.layers_mut()[0].w.row_mut(1)[0] = 2.0;
        let merger = {
            let s = Arc::clone(&shared);
            thread::spawn(move || s.merge_gradient(&merged, 1.0, Some(support), None))
        };
        let lane = {
            let s = Arc::clone(&shared);
            thread::spawn(move || s.apply_racy(&raced, 1.0, Some(support)))
        };
        let mut tile = [f32::NAN];
        shared.read_l0_tile(support, &mut tile);
        merger.join().unwrap();
        lane.join().unwrap();
        let w = tile[0];
        assert!(
            [0.0, 1.0, -2.0, -1.0].contains(&w),
            "tile read saw a weight {w} the parameter never held"
        );
        assert_eq!(shared.snapshot().layers()[0].w.get(0, 0), 0.0);
        // Plain std atomic on purpose: a tally across schedules.
        tally[usize::from(w != 0.0)].fetch_add(1, Ordering::Relaxed);
    });
    let [before, after] = &*seen;
    assert!(
        before.load(Ordering::Relaxed) > 0 && after.load(Ordering::Relaxed) > 0,
        "the read never raced the writes"
    );
}
