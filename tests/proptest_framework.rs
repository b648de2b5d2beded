//! Workspace-level property tests on the framework's core invariants.

use hetero_sgd::core::adaptive::{AdaptiveController, WorkerBatchState};
use hetero_sgd::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant (Algorithm 2): whatever the update-report sequence, every
    /// granted batch size stays within its worker's thresholds.
    #[test]
    fn adaptive_batches_respect_thresholds(
        reports in prop::collection::vec((0usize..3, 0.0f64..100.0), 1..200),
        alpha in 1.1f64..8.0,
    ) {
        let mut c = AdaptiveController::new(
            alpha,
            true,
            vec![
                WorkerBatchState::new(8, 8, 512),
                WorkerBatchState::new(512, 64, 512),
                WorkerBatchState::new(64, 16, 1024),
            ],
        );
        for (w, delta) in reports {
            c.report_updates(w, delta);
            let b = c.on_request(w);
            let (lo, hi) = match w {
                0 => (8, 512),
                1 => (64, 512),
                _ => (16, 1024),
            };
            prop_assert!((lo..=hi).contains(&b), "worker {w} got batch {b}");
        }
    }

    /// The batch scheduler partitions each epoch exactly: served example
    /// counts per epoch equal the dataset size, regardless of the request
    /// size sequence.
    #[test]
    fn scheduler_serves_each_epoch_exactly_once(
        n in 1usize..500,
        sizes in prop::collection::vec(1usize..100, 1..50),
    ) {
        let mut s = BatchScheduler::new(n, Some(1));
        let mut seen = vec![false; n];
        let mut i = 0;
        while let Some(range) = s.next_batch(sizes[i % sizes.len()]) {
            for (r, s) in seen.iter_mut().enumerate().take(range.end).skip(range.start) {
                prop_assert!(!*s, "example {r} served twice");
                *s = true;
            }
            i += 1;
        }
        prop_assert!(seen.iter().all(|&v| v), "epoch incomplete");
    }

    /// SGD on the shared model: interleaving racy and atomic updates from
    /// one thread gives exactly the sequential result.
    #[test]
    fn shared_model_sequential_updates_exact(
        etas in prop::collection::vec(0.0001f32..0.1, 1..20),
    ) {
        let spec = MlpSpec::tiny(4, 2);
        let mut reference = Model::new(spec.clone(), InitScheme::Xavier, 3);
        let shared = SharedModel::new(&reference);
        let mut grad = Model::zeros_like(&spec);
        grad.layers_mut()[0].w.set(0, 0, 1.0);
        grad.layers_mut()[1].b[0] = -0.5;
        for (i, &eta) in etas.iter().enumerate() {
            if i % 2 == 0 {
                shared.apply_racy(&grad, eta, None);
            } else {
                shared.apply_gradient_atomic(&grad, eta);
            }
            reference.apply_gradient(&grad, eta);
        }
        let got = shared.snapshot().flatten();
        let want = reference.flatten();
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }
    }

    /// Loss normalization is scale-invariant in the basis.
    #[test]
    fn normalized_curves_scale(basis in 0.01f32..10.0) {
        let r = TrainResult {
            algorithm: "t".into(),
            dataset: "d".into(),
            loss_curve: vec![
                LossPoint { time: 0.0, epochs: 0.0, loss: basis * 3.0, accuracy: 0.0 },
                LossPoint { time: 1.0, epochs: 1.0, loss: basis, accuracy: 0.0 },
            ],
            workers: vec![],
            eval_timeline: Default::default(),
            duration: 1.0,
            epochs: 1.0,
            trace_path: None,
            requeued_batches: 0,
            aborted: None,
            staleness: None,
            health: None,
        };
        let n = r.normalized_curve(basis);
        prop_assert!((n[0].loss - 3.0).abs() < 1e-3);
        prop_assert!((n[1].loss - 1.0).abs() < 1e-4);
    }

    /// Synthetic generation is a pure function of its config.
    #[test]
    fn synth_pure_function(seed in any::<u64>()) {
        let cfg = SynthConfig::small(30, 5, 2, seed);
        prop_assert_eq!(cfg.generate(), cfg.generate());
    }
}
