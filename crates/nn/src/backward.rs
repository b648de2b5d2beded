//! Back-propagation (Eq. 2 of the paper) — exact gradients for the MLP.
//!
//! For both output configurations the gradient of the loss w.r.t. the
//! output pre-activation has the same convenient form `(p − y)/B`:
//! softmax+CE and sigmoid+BCE are the canonical link/loss pairs. From there
//! each layer needs two GEMMs:
//!
//! - weight gradient: `∇Wˡ = δˡᵀ · aˡ⁻¹`  (TN kernel; layer 0, stored
//!   `in × out`, takes `∇W⁰ = Xᵀ · δ⁰`, the same kernel)
//! - backprop:        `δˡ⁻¹ = (δˡ · Wˡ) ⊙ f'(aˡ⁻¹)`  (NN kernel)
//!
//! plus a column sum for the bias gradient.

use hetero_tensor::{gemm, ops, Matrix};

use crate::forward::{forward, loss, ForwardPass, Input, Targets};
use crate::model::Model;
use crate::sparse_input::SparseScratch;
use crate::spec::LossKind;

/// A gradient has exactly the shape of the model it differentiates.
pub type Gradient = Model;

/// Compute `∂loss/∂z_out = (p − y)/B` into a caller-owned buffer.
fn output_delta_into(probs: &Matrix, targets: Targets<'_>, kind: LossKind, delta: &mut Matrix) {
    let batch = probs.rows();
    let inv_b = if batch > 0 { 1.0 / batch as f32 } else { 0.0 };
    delta.copy_from(probs);
    match (kind, targets) {
        (LossKind::SoftmaxCrossEntropy, Targets::Classes(labels)) => {
            assert_eq!(labels.len(), batch, "label count != batch size");
            for (i, &y) in labels.iter().enumerate() {
                let v = delta.get(i, y as usize) - 1.0;
                delta.set(i, y as usize, v);
            }
        }
        (LossKind::MultiLabelBce, Targets::MultiHot(y)) => {
            assert_eq!(y.shape(), probs.shape(), "multi-hot shape mismatch");
            ops::sub_assign(delta, y);
        }
        _ => panic!("targets kind does not match the loss kind"),
    }
    ops::scale(inv_b, delta.as_mut_slice());
}

/// Back-propagate through `model` given a completed forward `pass`.
///
/// Returns the exact mean-loss gradient for the batch `x`. Allocates the
/// gradient and scratch; steady-state loops use
/// [`crate::workspace::Workspace`], which shares this exact code path.
pub fn backward(
    model: &Model,
    x: &Matrix,
    pass: &ForwardPass,
    targets: Targets<'_>,
    parallel: bool,
) -> Gradient {
    let mut grad = Model::zeros_like(model.spec());
    let mut delta = Matrix::zeros(0, 0);
    let mut delta_next = Matrix::zeros(0, 0);
    backward_with_scratch(
        model,
        x.into(),
        pass,
        targets,
        parallel,
        &mut delta,
        &mut delta_next,
        &mut grad,
        None,
    );
    grad
}

/// Core backward pass writing into caller-owned buffers.
///
/// `delta`/`delta_next` are the ping-pong δ buffers (any shape; reshaped
/// with [`Matrix::resize`]); `grad` must have the model's shape and is
/// fully overwritten. Warmed buffers make this allocation-free. A CSR
/// batch's layer-0 weight gradient is a scatter into `grad` over `sparse`,
/// the support of the gradient it holds, that re-zeroes only those rows;
/// with `sparse` `None` it is left to the caller, who takes δ₀ a block at a
/// time ([`crate::CsrStep::write_l0`]) — `grad`'s layer 0 then holds no
/// row. Returns whether δ₀ ended in `delta_next` (else `delta`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward_with_scratch(
    model: &Model,
    x: Input<'_>,
    pass: &ForwardPass,
    targets: Targets<'_>,
    parallel: bool,
    delta: &mut Matrix,
    delta_next: &mut Matrix,
    grad: &mut Gradient,
    mut sparse: Option<&mut SparseScratch>,
) -> bool {
    let n_layers = model.layers().len();
    assert_eq!(pass.activations.len(), n_layers, "stale forward pass");

    // The ping-pong below swaps the two scratch buffers once per hidden
    // layer. With an odd layer count the swap count is odd and the buffers
    // would exchange identities across calls — the buffer only ever sized
    // batch×hidden would suddenly need batch×classes on the *next* call,
    // reallocating in steady state. Count the swaps and undo the residual
    // one at the end so each buffer sees the same size sequence every call.
    let mut swapped = false;

    output_delta_into(pass.probs(), targets, model.spec().loss, delta);
    for l in (0..n_layers).rev() {
        // ∇W = δᵀ·input (out × in) — at layer 0, stored in × out, Xᵀ·δ,
        // where the batch's format decides the kernel and nothing else.
        let tn = match (l, x) {
            (0, Input::Csr(x)) => {
                if let Some(scratch) = sparse.as_deref_mut() {
                    scratch.backward_l0(x, delta, grad);
                }
                None
            }
            (0, Input::Dense(x)) => Some((x, &*delta)),
            _ => Some((&*delta, &pass.activations[l - 1])),
        };
        if let Some((a, b)) = tn {
            let gw = &mut grad.layers_mut()[l].w;
            if parallel {
                gemm::par_gemm_tn(1.0, a, b, 0.0, gw);
            } else {
                gemm::gemm_tn(1.0, a, b, 0.0, gw);
            }
        }
        // ∇b = column sum of δ, into the gradient's existing bias buffer.
        ops::col_sum_into(delta, &mut grad.layers_mut()[l].b);

        if l > 0 {
            // δ_prev = (δ · W) ⊙ f'(a_prev)
            let w = &model.layers()[l].w;
            delta_next.resize(delta.rows(), w.cols());
            if parallel {
                gemm::par_gemm_nn(1.0, delta, w, 0.0, delta_next);
            } else {
                gemm::gemm_nn(1.0, delta, w, 0.0, delta_next);
            }
            model
                .spec()
                .activation
                .mul_derivative(&pass.activations[l - 1], delta_next);
            std::mem::swap(delta, delta_next);
            swapped = !swapped;
        }
    }
    if swapped {
        std::mem::swap(delta, delta_next);
    }
    swapped
}

/// One-call loss + gradient for a batch — the worker-side "compute the
/// gradient" step of Algorithm 1/2.
pub fn loss_and_gradient(
    model: &Model,
    x: &Matrix,
    targets: Targets<'_>,
    parallel: bool,
) -> (f32, Gradient) {
    let pass = forward(model, x, parallel);
    let l = loss(pass.probs(), targets, model.spec().loss);
    let g = backward(model, x, &pass, targets, parallel);
    (l, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitScheme;
    use crate::spec::MlpSpec;
    use crate::Activation;

    /// Central-difference gradient check: perturb every parameter of a tiny
    /// network and compare with the analytic gradient.
    fn gradient_check(spec: MlpSpec, targets_kind: LossKind) {
        let model = Model::new(spec.clone(), InitScheme::Xavier, 11);
        let batch = 5;
        let x = Matrix::from_fn(batch, spec.input_dim, |i, j| {
            ((i * spec.input_dim + j) as f32 * 0.7).sin()
        });
        let class_labels: Vec<u32> = (0..batch as u32).map(|i| i % spec.classes as u32).collect();
        let multi_hot = Matrix::from_fn(batch, spec.classes, |i, j| {
            if (i + j) % 3 == 0 {
                1.0
            } else {
                0.0
            }
        });
        let targets = match targets_kind {
            LossKind::SoftmaxCrossEntropy => Targets::Classes(&class_labels),
            LossKind::MultiLabelBce => Targets::MultiHot(&multi_hot),
        };

        let (_, grad) = loss_and_gradient(&model, &x, targets, false);

        let flat_model = model.flatten();
        let flat_grad = grad.flatten();
        let h = 1e-3f32;
        // Check a deterministic spread of parameters (all of them for small nets).
        let n = flat_model.len();
        let stride = (n / 64).max(1);
        for p in (0..n).step_by(stride) {
            let mut plus = flat_model.clone();
            plus[p] += h;
            let m_plus = Model::unflatten(&spec, &plus);
            let pass = forward(&m_plus, &x, false);
            let l_plus = loss(pass.probs(), targets, spec.loss);

            let mut minus = flat_model.clone();
            minus[p] -= h;
            let m_minus = Model::unflatten(&spec, &minus);
            let pass = forward(&m_minus, &x, false);
            let l_minus = loss(pass.probs(), targets, spec.loss);

            let numeric = (l_plus - l_minus) / (2.0 * h);
            let analytic = flat_grad[p];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs().max(analytic.abs())),
                "param {p}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradcheck_softmax_ce_two_hidden() {
        gradient_check(
            MlpSpec {
                input_dim: 4,
                hidden: vec![6, 5],
                classes: 3,
                activation: Activation::Sigmoid,
                loss: LossKind::SoftmaxCrossEntropy,
            },
            LossKind::SoftmaxCrossEntropy,
        );
    }

    #[test]
    fn gradcheck_softmax_ce_tanh() {
        gradient_check(
            MlpSpec {
                input_dim: 3,
                hidden: vec![7],
                classes: 2,
                activation: Activation::Tanh,
                loss: LossKind::SoftmaxCrossEntropy,
            },
            LossKind::SoftmaxCrossEntropy,
        );
    }

    #[test]
    fn gradcheck_multilabel_bce() {
        gradient_check(
            MlpSpec {
                input_dim: 4,
                hidden: vec![5],
                classes: 6,
                activation: Activation::Sigmoid,
                loss: LossKind::MultiLabelBce,
            },
            LossKind::MultiLabelBce,
        );
    }

    #[test]
    fn gradcheck_no_hidden_layers() {
        gradient_check(
            MlpSpec {
                input_dim: 5,
                hidden: vec![],
                classes: 3,
                activation: Activation::Sigmoid,
                loss: LossKind::SoftmaxCrossEntropy,
            },
            LossKind::SoftmaxCrossEntropy,
        );
    }

    #[test]
    fn parallel_gradient_matches_serial() {
        let spec = MlpSpec::tiny(8, 3);
        let model = Model::new(spec.clone(), InitScheme::Xavier, 5);
        let x = Matrix::from_fn(32, 8, |i, j| ((i + j) as f32 * 0.3).cos());
        let labels: Vec<u32> = (0..32).map(|i| (i % 3) as u32).collect();
        let (l1, g1) = loss_and_gradient(&model, &x, Targets::Classes(&labels), false);
        let (l2, g2) = loss_and_gradient(&model, &x, Targets::Classes(&labels), true);
        assert!((l1 - l2).abs() < 1e-6);
        let (f1, f2) = (g1.flatten(), g2.flatten());
        for (a, b) in f1.iter().zip(&f2) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn sgd_steps_reduce_loss_on_toy_problem() {
        // Two separable Gaussian-ish blobs; loss must drop monotonically-ish.
        let spec = MlpSpec::tiny(2, 2);
        let mut model = Model::new(spec, InitScheme::Xavier, 3);
        let x = Matrix::from_fn(40, 2, |i, j| {
            let sign = if i < 20 { 1.0 } else { -1.0 };
            sign * (1.0 + 0.1 * ((i * 2 + j) as f32).sin())
        });
        let labels: Vec<u32> = (0..40).map(|i| if i < 20 { 0 } else { 1 }).collect();
        let (first, _) = loss_and_gradient(&model, &x, Targets::Classes(&labels), false);
        let mut last = first;
        for _ in 0..60 {
            let (l, g) = loss_and_gradient(&model, &x, Targets::Classes(&labels), false);
            model.apply_gradient(&g, 1.0);
            last = l;
        }
        assert!(
            last < first * 0.5,
            "loss did not drop: first {first}, last {last}"
        );
    }

    #[test]
    fn gradient_of_zero_batch_is_zero() {
        let spec = MlpSpec::tiny(3, 2);
        let model = Model::new(spec, InitScheme::Xavier, 1);
        let x = Matrix::zeros(0, 3);
        let (l, g) = loss_and_gradient(&model, &x, Targets::Classes(&[]), false);
        assert_eq!(l, 0.0);
        assert_eq!(g.param_norm(), 0.0);
    }
}
