//! Model-checking of the SharedModel update paths under `--features loom`:
//! the CAS merge must never lose an update in any interleaving, and the
//! racy Hogwild path must stay inside its documented lost-update envelope
//! (values from a feasible serialization, never corruption).
#![cfg(feature = "loom")]

use std::sync::Arc;

use hetero_nn::{Activation, InitScheme, LossKind, MlpSpec, Model, SharedModel};
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

#[test]
fn concurrent_merge_delta_loses_nothing() {
    loom::model(|| {
        let base = Model::new(scalar_spec(), InitScheme::Constant(0.0), 0);
        let shared = Arc::new(SharedModel::new(&base));
        let mut replica = base.clone();
        replica.layers_mut()[0].w.set(0, 0, 1.0);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&shared);
                let (b, r) = (base.clone(), replica.clone());
                thread::spawn(move || s.merge(&b, &r, 1.0, None, None))
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
                thread::spawn(move || s.apply_racy(&g, 1.0, None, false))
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
