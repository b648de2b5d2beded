//! Central-difference gradient check of `Workspace::loss_and_gradient_into`
//! for each input format, each hidden activation and both losses.
//!
//! One workspace serves a dense batch and then two CSR batches with
//! different supports, so the check also covers the CSR backward's
//! bookkeeping: it scatters straight into the stored gradient, and must
//! first re-zero the rows the previous gradient left behind — every row
//! after the dense one, the previous batch's features after a CSR one.

// The loom build swaps SharedModel's atomics for model-checked versions
// that require a loom context; these std tests are compiled out there.
#![cfg(not(feature = "loom"))]

use hetero_nn::{Activation, InitScheme, Input, LossKind, MlpSpec, Model, Targets, Workspace};
use hetero_tensor::{CsrMatrix, Matrix};

const IN: usize = 9;
const BATCH: usize = 5;

fn spec(activation: Activation, loss: LossKind) -> MlpSpec {
    MlpSpec {
        input_dim: IN,
        hidden: vec![6, 5],
        classes: 3,
        activation,
        loss,
    }
}

/// A batch whose features outside `support` are zero in every example
/// (`None`: all features, a dense batch).
fn batch(support: Option<&[usize]>, salt: f32) -> Matrix {
    Matrix::from_fn(BATCH, IN, |i, j| {
        let on = support.is_none_or(|s| s.contains(&j)) && (i + j) % 4 != 1;
        if on {
            ((i * IN + j) as f32 * 0.7 + salt).sin()
        } else {
            0.0
        }
    })
}

/// The mean loss of `model` on `x`, through a fresh workspace.
fn loss_at(model: &Model, x: Input<'_>, targets: Targets<'_>) -> f32 {
    let mut ws = Workspace::new(model.spec());
    let probs = ws.forward_into(model, x, false).probs();
    hetero_nn::loss(probs, targets, model.spec().loss)
}

/// Every parameter of `grad` against `(L(θ + h) − L(θ − h)) / 2h`.
fn check_against_differences(model: &Model, grad: &Model, x: Input<'_>, targets: Targets<'_>) {
    let spec = model.spec();
    let (theta, analytic) = (model.flatten(), grad.flatten());
    let h = 1e-3f32;
    for p in 0..theta.len() {
        let at = |d: f32| {
            let mut moved = theta.clone();
            moved[p] += d;
            loss_at(&Model::unflatten(spec, &moved), x, targets)
        };
        let numeric = (at(h) - at(-h)) / (2.0 * h);
        let a = analytic[p];
        assert!(
            (numeric - a).abs() < 2e-2 * (1.0 + numeric.abs().max(a.abs())),
            "{spec:?}: param {p}: analytic {a} vs numeric {numeric}"
        );
    }
}

#[test]
fn workspace_gradient_matches_differences_for_every_format() {
    let activations = [
        Activation::Sigmoid,
        Activation::Relu,
        Activation::Tanh,
        Activation::Identity,
    ];
    let (support_a, support_b) = ([0usize, 2, 3, 7], [1usize, 3, 8]);
    let dense = batch(None, 0.0);
    let csr_a = CsrMatrix::from_dense(&batch(Some(&support_a), 0.3), 0.0);
    let csr_b = CsrMatrix::from_dense(&batch(Some(&support_b), 0.9), 0.0);
    let classes: Vec<u32> = (0..BATCH as u32).map(|i| i % 3).collect();
    let multi_hot = Matrix::from_fn(BATCH, 3, |i, j| ((i + j) % 2) as f32);
    for activation in activations {
        for loss in [LossKind::SoftmaxCrossEntropy, LossKind::MultiLabelBce] {
            let targets = match loss {
                LossKind::SoftmaxCrossEntropy => Targets::Classes(&classes),
                LossKind::MultiLabelBce => Targets::MultiHot(&multi_hot),
            };
            let model = Model::new(spec(activation, loss), InitScheme::Xavier, 17);
            let mut ws = Workspace::new(model.spec());
            let inputs = [
                (Input::Dense(&dense), None),
                (Input::Csr(csr_a.view()), Some(&support_a[..])),
                (Input::Csr(csr_b.view()), Some(&support_b[..])),
            ];
            for (x, support) in inputs {
                let grad = ws
                    .loss_and_gradient_into(&model, x, targets, false)
                    .1
                    .clone();
                if let Some(support) = support {
                    // Structural, not numerical: a feature no example uses
                    // has an exactly-zero weight gradient.
                    let w0 = &grad.layers()[0].w;
                    for c in (0..IN).filter(|c| !support.contains(c)) {
                        assert!(w0.row(c).iter().all(|&g| g == 0.0), "stale row {c}");
                    }
                }
                check_against_differences(&model, &grad, x, targets);
            }
        }
    }
}
