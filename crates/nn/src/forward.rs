//! Batch forward pass, loss evaluation, and prediction (Eq. 1 of the paper).

use hetero_tensor::{gemm, ops, sparse, CsrView, Matrix};

use crate::model::Model;
use crate::spec::LossKind;

/// Floor applied inside `log` to keep the loss finite.
const EPS: f32 = 1e-12;

/// Ground-truth labels for a batch.
#[derive(Debug, Clone, Copy)]
pub enum Targets<'a> {
    /// One class index per example (softmax + cross-entropy datasets).
    Classes(&'a [u32]),
    /// Multi-hot `batch×classes` 0/1 matrix (multi-label BCE datasets).
    MultiHot(&'a Matrix),
}

impl Targets<'_> {
    /// Number of examples the targets describe.
    pub fn len(&self) -> usize {
        match self {
            Targets::Classes(c) => c.len(),
            Targets::MultiHot(m) => m.rows(),
        }
    }

    /// True when no examples are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One batch of examples in either storage format. Only layer 0 ever
/// reads the input, so the forward and backward bodies branch on the
/// format exactly there and share everything after it.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// Row-major `batch×input_dim`.
    Dense(&'a Matrix),
    /// CSR rows of the same logical shape.
    Csr(CsrView<'a>),
}

impl Input<'_> {
    /// `(examples, features)` of the batch.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            Input::Dense(x) => x.shape(),
            Input::Csr(x) => (x.rows(), x.cols()),
        }
    }
}

impl<'a> From<&'a Matrix> for Input<'a> {
    fn from(x: &'a Matrix) -> Self {
        Input::Dense(x)
    }
}

impl<'a> From<CsrView<'a>> for Input<'a> {
    fn from(x: CsrView<'a>) -> Self {
        Input::Csr(x)
    }
}

/// All per-layer activations of one forward pass.
///
/// `activations[l]` is the post-activation output of layer `l`
/// (`batch×width`); the final entry holds the output probabilities
/// (softmax or sigmoid, depending on the loss). The backward pass consumes
/// this to avoid recomputation.
#[derive(Debug, Clone)]
pub struct ForwardPass {
    /// Post-activation outputs per layer, ending with the probabilities.
    pub activations: Vec<Matrix>,
}

impl ForwardPass {
    /// The output probabilities (`batch×classes`).
    pub fn probs(&self) -> &Matrix {
        self.activations.last().expect("non-empty network")
    }
}

/// Run the network on a batch `x` (`batch×input_dim`).
///
/// Uses the rayon-parallel GEMM kernels; pass `parallel = false` from
/// contexts that manage their own thread-level parallelism (e.g. Hogwild
/// threads each processing a sub-batch).
///
/// Allocates a fresh activation stack per call; the steady-state training
/// loops reuse buffers via [`crate::workspace::Workspace`]. Both paths run
/// through the same kernel sequence, so their results are bit-identical.
pub fn forward(model: &Model, x: &Matrix, parallel: bool) -> ForwardPass {
    let mut activations = Vec::new();
    forward_into_buffers(model, x.into(), parallel, &mut activations);
    ForwardPass { activations }
}

/// Core forward pass writing into caller-owned activation buffers.
///
/// `activations` is resized to one matrix per layer; each matrix is
/// reshaped with [`Matrix::resize`], so a warmed buffer set incurs no
/// allocation. The bias-add is fused into every product's epilogue — one
/// pass over each pre-activation. Layer 0 (stored `in × out`) is `X·W`:
/// [`gemm::gemm_nn_bias`] for a dense batch, [`sparse::spmm_bias_into`]
/// straight from the weights for a CSR one; every later layer is the NT
/// [`gemm::gemm_nt_bias`] ([`forward_after_l0`]).
pub(crate) fn forward_into_buffers(
    model: &Model,
    x: Input<'_>,
    parallel: bool,
    activations: &mut Vec<Matrix>,
) {
    // Layer 0 holds one row per input feature — every one, or a batch
    // support's after its columns were renumbered onto it.
    let (batch, width) = x.dims();
    let rows = model.layers()[0].w.rows();
    assert_eq!(
        width, rows,
        "batch feature width {width} != input_dim {rows} (layer-0 rows)"
    );
    activations.resize_with(model.layers().len(), || Matrix::zeros(0, 0));
    let (w, b) = (&model.layers()[0].w, &model.layers()[0].b);
    let z = &mut activations[0];
    // The one place the input format matters.
    match x {
        Input::Csr(x) => sparse::spmm_bias_into(x, w, b, z),
        Input::Dense(x) => {
            z.resize(batch, w.cols());
            if parallel {
                gemm::par_gemm_nn_bias(1.0, x, w, b, z);
            } else {
                gemm::gemm_nn_bias(1.0, x, w, b, z);
            }
        }
    }
    forward_after_l0(model, parallel, activations);
}

/// The forward pass from layer 0's pre-activation on: `activations[0]`
/// holds `X·W₀ + b₀`, however layer 0 was read, and one matrix per layer
/// follows it. Applies layer 0's activation, then runs every later layer
/// of `model` — whose layer-0 weights it never reads — ending with the
/// output probabilities.
pub(crate) fn forward_after_l0(model: &Model, parallel: bool, activations: &mut [Matrix]) {
    let batch = activations[0].rows();
    let n_layers = model.layers().len();
    for (l, layer) in model.layers().iter().enumerate() {
        // Split so we can read the previous activation while writing this one.
        let (head, tail) = activations.split_at_mut(l);
        let z = &mut tail[0];
        if l > 0 {
            let (w, b) = (&layer.w, &layer.b);
            z.resize(batch, w.rows());
            if parallel {
                gemm::par_gemm_nt_bias(1.0, &head[l - 1], w, b, z);
            } else {
                gemm::gemm_nt_bias(1.0, &head[l - 1], w, b, z);
            }
        }
        if l + 1 == n_layers {
            match model.spec().loss {
                LossKind::SoftmaxCrossEntropy => ops::softmax_rows(&mut *z),
                LossKind::MultiLabelBce => ops::sigmoid_inplace(&mut *z),
            }
        } else {
            model.spec().activation.apply(&mut *z);
        }
    }
}

/// Mean loss of predicted probabilities against the targets.
///
/// - Softmax CE: `-(1/B) Σ log p[yᵢ]`
/// - Multi-label BCE: `-(1/B) Σᵢ Σⱼ [yᵢⱼ log pᵢⱼ + (1-yᵢⱼ) log (1-pᵢⱼ)]`
pub fn loss(probs: &Matrix, targets: Targets<'_>, kind: LossKind) -> f32 {
    let batch = probs.rows();
    if batch == 0 {
        return 0.0;
    }
    match (kind, targets) {
        (LossKind::SoftmaxCrossEntropy, Targets::Classes(labels)) => {
            assert_eq!(labels.len(), batch, "label count != batch size");
            let mut total = 0.0f64;
            for (i, &y) in labels.iter().enumerate() {
                let p = probs.get(i, y as usize).max(EPS);
                total -= (p as f64).ln();
            }
            (total / batch as f64) as f32
        }
        (LossKind::MultiLabelBce, Targets::MultiHot(y)) => {
            assert_eq!(y.shape(), probs.shape(), "multi-hot shape mismatch");
            let mut total = 0.0f64;
            for (p, t) in probs.as_slice().iter().zip(y.as_slice()) {
                let p = (*p).clamp(EPS, 1.0 - EPS) as f64;
                total -= if *t > 0.5 { p.ln() } else { (1.0 - p).ln() };
            }
            (total / batch as f64) as f32
        }
        _ => panic!("targets kind does not match the loss kind"),
    }
}

/// Convenience: forward pass returning only the probabilities.
pub fn predict_probs(model: &Model, x: &Matrix, parallel: bool) -> Matrix {
    let mut pass = forward(model, x, parallel);
    pass.activations.pop().expect("non-empty network")
}

/// Classification accuracy.
///
/// Single-label: fraction of examples whose argmax matches the label.
/// Multi-label: fraction whose argmax is one of the positive labels
/// (precision@1, a standard multi-label proxy).
pub fn accuracy(probs: &Matrix, targets: Targets<'_>) -> f32 {
    let batch = probs.rows();
    if batch == 0 {
        return 0.0;
    }
    let hits = match targets {
        Targets::Classes(labels) => {
            assert_eq!(labels.len(), batch);
            (0..batch)
                .filter(|&i| ops::argmax(probs.row(i)) == labels[i] as usize)
                .count()
        }
        Targets::MultiHot(y) => {
            assert_eq!(y.shape(), probs.shape());
            (0..batch)
                .filter(|&i| y.get(i, ops::argmax(probs.row(i))) > 0.5)
                .count()
        }
    };
    hits as f32 / batch as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitScheme;
    use crate::spec::MlpSpec;
    use crate::Activation;

    fn model() -> Model {
        Model::new(MlpSpec::tiny(3, 2), InitScheme::Xavier, 1)
    }

    #[test]
    fn forward_output_is_distribution() {
        let m = model();
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3], &[1.0, 1.0, 1.0]]);
        let pass = forward(&m, &x, false);
        assert_eq!(pass.activations.len(), 3);
        let probs = pass.probs();
        assert_eq!(probs.shape(), (2, 2));
        for i in 0..2 {
            let s: f32 = probs.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn parallel_matches_serial_forward() {
        let m = model();
        let x = Matrix::from_fn(40, 3, |i, j| ((i * 3 + j) as f32).sin());
        let a = forward(&m, &x, false);
        let b = forward(&m, &x, true);
        assert!(a.probs().approx_eq(b.probs(), 1e-6));
    }

    #[test]
    fn loss_perfect_prediction_near_zero() {
        let probs = Matrix::from_rows(&[&[1.0 - 1e-7, 1e-7], &[1e-7, 1.0 - 1e-7]]);
        let l = loss(
            &probs,
            Targets::Classes(&[0, 1]),
            LossKind::SoftmaxCrossEntropy,
        );
        assert!(l < 1e-5, "loss {l}");
    }

    #[test]
    fn loss_uniform_prediction_is_log_classes() {
        let probs = Matrix::full(4, 2, 0.5);
        let l = loss(
            &probs,
            Targets::Classes(&[0, 1, 0, 1]),
            LossKind::SoftmaxCrossEntropy,
        );
        assert!((l - (2.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn loss_handles_zero_probability_without_inf() {
        let probs = Matrix::from_rows(&[&[0.0, 1.0]]);
        let l = loss(
            &probs,
            Targets::Classes(&[0]),
            LossKind::SoftmaxCrossEntropy,
        );
        assert!(l.is_finite() && l > 10.0);
    }

    #[test]
    fn multilabel_bce_loss() {
        let probs = Matrix::from_rows(&[&[0.9, 0.1, 0.8]]);
        let y = Matrix::from_rows(&[&[1.0, 0.0, 1.0]]);
        let l = loss(&probs, Targets::MultiHot(&y), LossKind::MultiLabelBce);
        let expect = -(0.9f32.ln() + 0.9f32.ln() + 0.8f32.ln());
        assert!((l - expect).abs() < 1e-4, "{l} vs {expect}");
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_targets_panic() {
        let probs = Matrix::full(1, 2, 0.5);
        loss(&probs, Targets::Classes(&[0]), LossKind::MultiLabelBce);
    }

    #[test]
    fn accuracy_single_label() {
        let probs = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.6, 0.4]]);
        let acc = accuracy(&probs, Targets::Classes(&[0, 1, 1]));
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_multilabel_precision_at_1() {
        let probs = Matrix::from_rows(&[&[0.9, 0.1, 0.3], &[0.1, 0.8, 0.3]]);
        let y = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[1.0, 0.0, 1.0]]);
        let acc = accuracy(&probs, Targets::MultiHot(&y));
        assert!((acc - 0.5).abs() < 1e-6);
    }

    #[test]
    fn empty_batch_loss_and_accuracy_are_zero() {
        let probs = Matrix::zeros(0, 2);
        assert_eq!(
            loss(&probs, Targets::Classes(&[]), LossKind::SoftmaxCrossEntropy),
            0.0
        );
        assert_eq!(accuracy(&probs, Targets::Classes(&[])), 0.0);
    }

    #[test]
    fn multilabel_forward_uses_sigmoid_output() {
        let spec = MlpSpec {
            input_dim: 3,
            hidden: vec![4],
            classes: 5,
            activation: Activation::Sigmoid,
            loss: LossKind::MultiLabelBce,
        };
        let m = Model::new(spec, InitScheme::Xavier, 2);
        let x = Matrix::from_rows(&[&[0.5, -0.5, 1.0]]);
        let probs = predict_probs(&m, &x, false);
        // Sigmoid outputs are independent — they need not sum to 1.
        assert!(probs.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    #[should_panic(expected = "input_dim")]
    fn wrong_feature_width_panics() {
        forward(&model(), &Matrix::zeros(1, 7), false);
    }
}
