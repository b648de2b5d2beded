//! Dense MLP parameters.

use hetero_tensor::{ops, Matrix};
use serde::{Deserialize, Serialize};

use crate::init::InitScheme;
use crate::spec::MlpSpec;

/// One fully-connected layer: row-major weights plus a bias vector of
/// length `out`.
///
/// Layers 1… store `W` as `w[out][in]`, which makes the forward product
/// `A·Wᵀ` an NT GEMM (contiguous dot products) and the backprop product
/// `δ·W` an NN GEMM. Layer 0 — the only one that reads the input, and the
/// one a sparse batch touches only at its active input features — stores
/// `w[in][out]`: one input feature's weights are one contiguous row, which
/// the CSR kernels gather from and scatter into directly. Its forward
/// product is then `X·W` (NN) and its weight gradient `Xᵀ·δ` (TN).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Weight matrix, shape `(out, in)`; layer 0: `(in, out)`.
    pub w: Matrix,
    /// Bias vector, length `out`.
    pub b: Vec<f32>,
}

/// A complete MLP parameter set — the paper's model `W = {W¹, …, Wᴾ}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    spec: MlpSpec,
    layers: Vec<Layer>,
}

/// One weight row or one bias vector of a layer, located in the flat layout
/// [`Model::flatten`] defines — the unit [`crate::SharedModel`]'s traversals
/// walk and its mergers own. Layer 0's weight rows come first: stripe `c`
/// is input feature `c`'s row.
#[derive(Clone, Copy, Default)]
pub(crate) struct Stripe {
    pub(crate) layer: usize,
    /// Where the row starts in its layer's weight slice; `None`: the bias.
    pub(crate) row_at: Option<usize>,
    /// The stripe's range of the flat layout, `start..end`.
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl Stripe {
    /// The stripe's range of its layer's weight slice; `None`: the bias.
    fn weight_span(&self) -> Option<std::ops::Range<usize>> {
        self.row_at.map(|at| at..at + (self.end - self.start))
    }
}

/// A zeroed weight matrix in layer `l`'s storage layout.
fn weights(l: usize, fan_in: usize, fan_out: usize) -> Matrix {
    if l == 0 {
        Matrix::zeros(fan_in, fan_out)
    } else {
        Matrix::zeros(fan_out, fan_in)
    }
}

/// Every stripe of `spec`'s flat layout from layer 0's bias on, in order:
/// per layer its weight rows, then its bias. Layer 0's weight rows, one per
/// input feature, come before them, all of one width, and are placed by
/// arithmetic ([`crate::SharedModel`] keeps no entry for them).
pub(crate) fn tail_stripes(spec: &MlpSpec) -> Vec<Stripe> {
    let dims = spec.layer_dims();
    let (in0, out0) = dims[0];
    let mut stripes = Vec::new();
    let mut start = in0 * out0;
    for (layer, &(fan_in, fan_out)) in dims.iter().enumerate() {
        // Every layer after 0 is stored `out × in`: `fan_out` rows of `fan_in`.
        let rows = if layer == 0 { 0 } else { fan_out };
        let rows = (0..rows).map(|r| (Some(r * fan_in), fan_in));
        for (row_at, len) in rows.chain([(None, fan_out)]) {
            stripes.push(Stripe {
                layer,
                row_at,
                start,
                end: start + len,
            });
            start += len;
        }
    }
    stripes
}

impl Model {
    /// This model's values in stripe `st` (of a model of the same spec).
    pub(crate) fn stripe(&self, st: &Stripe) -> &[f32] {
        let layer = &self.layers[st.layer];
        match st.weight_span() {
            Some(row) => &layer.w.as_slice()[row],
            None => &layer.b,
        }
    }

    /// [`stripe`](Self::stripe), writable.
    pub(crate) fn stripe_mut(&mut self, st: &Stripe) -> &mut [f32] {
        let layer = &mut self.layers[st.layer];
        match st.weight_span() {
            Some(row) => &mut layer.w.as_mut_slice()[row],
            None => &mut layer.b,
        }
    }

    /// Allocate and initialize a model for `spec`.
    ///
    /// Every weight is a pure function of `seed`, its layer and its index in
    /// the layer's storage ([`InitScheme`]'s stream), so a model is the same
    /// across runs, replica deep-copies and dispatch levels. Biases start at
    /// zero.
    ///
    /// # Panics
    /// Panics if `spec` or `scheme` is invalid.
    pub fn new(spec: MlpSpec, scheme: InitScheme, seed: u64) -> Self {
        spec.validate().expect("invalid MlpSpec");
        scheme.validate().expect("invalid InitScheme");
        let layers = spec
            .layer_dims()
            .iter()
            .enumerate()
            .map(|(l, &(fan_in, fan_out))| {
                let mut w = weights(l, fan_in, fan_out);
                scheme.fill_layer(seed, l, (fan_in, fan_out), 0, w.as_mut_slice());
                Layer {
                    w,
                    b: vec![0.0; fan_out],
                }
            })
            .collect();
        Model { spec, layers }
    }

    /// Zero-valued model with the same shape (used for gradients/accumulators).
    pub fn zeros_like(spec: &MlpSpec) -> Self {
        Self::zeros_with_l0_rows(spec, spec.input_dim)
    }

    /// [`zeros_like`](Self::zeros_like) with `rows` layer-0 weight rows. With
    /// 0 rows: everything of a model but layer 0's weights — what a reader
    /// that takes those a block at a time ([`crate::CsrStep`]) holds, and a
    /// gradient before its first step.
    pub fn zeros_with_l0_rows(spec: &MlpSpec, rows: usize) -> Self {
        let layers = spec
            .layer_dims()
            .iter()
            .enumerate()
            .map(|(l, &(fan_in, fan_out))| Layer {
                w: weights(l, if l == 0 { rows } else { fan_in }, fan_out),
                b: vec![0.0; fan_out],
            })
            .collect();
        Model {
            spec: spec.clone(),
            layers,
        }
    }

    /// Make layer 0 hold `rows` weight rows: every input feature's, or none
    /// (a gradient of layer 0's bias and the later layers only, or a read
    /// whose buffer a gradient took over). The values of the rows are left
    /// to the caller, who overwrites or zeroes them. Past its capacity the
    /// buffer is replaced by fresh zeros (no old row copied, no page
    /// written). Returns whether it reallocated; otherwise the rows kept
    /// keep their values and the rows added are zero.
    pub(crate) fn fit_l0(&mut self, rows: usize) -> bool {
        let Some(w) = self.layers.first_mut().map(|l| &mut l.w) else {
            return false;
        };
        let cols = w.cols();
        if rows * cols > w.capacity() {
            *w = Matrix::zeros(rows, cols);
            return true;
        }
        w.resize(rows, cols);
        false
    }

    /// Take `from`'s layer-0 weight buffer, uncopied, and leave it this
    /// one's, emptied (no row; a layer grown back from it is zeros): how a
    /// threaded worker's one layer-0 buffer passes between its read of a
    /// dense batch and its gradient ([`crate::SupportRead`]).
    pub(crate) fn take_l0(&mut self, from: &mut Model) {
        std::mem::swap(&mut self.layers[0].w, &mut from.layers[0].w);
        from.fit_l0(0);
    }

    /// The network specification.
    pub fn spec(&self) -> &MlpSpec {
        &self.spec
    }

    /// Layers in forward order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to layers (the SGD update path).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.spec.num_params()
    }

    /// Serialize all parameters into one flat vector
    /// (layer order: `w₀, b₀, w₁, b₁, …`) — the layout [`crate::SharedModel`]
    /// stores atomically.
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            out.extend_from_slice(layer.w.as_slice());
            out.extend_from_slice(&layer.b);
        }
        out
    }

    /// Rebuild a model from a flat parameter vector (inverse of [`flatten`]).
    ///
    /// # Panics
    /// Panics if `params.len() != spec.num_params()`.
    ///
    /// [`flatten`]: Model::flatten
    pub fn unflatten(spec: &MlpSpec, params: &[f32]) -> Self {
        assert_eq!(params.len(), spec.num_params(), "flat parameter length");
        let mut model = Model::zeros_like(spec);
        let mut off = 0;
        for layer in &mut model.layers {
            let wlen = layer.w.len();
            layer
                .w
                .as_mut_slice()
                .copy_from_slice(&params[off..off + wlen]);
            off += wlen;
            let blen = layer.b.len();
            layer.b.copy_from_slice(&params[off..off + blen]);
            off += blen;
        }
        model
    }

    /// Overwrite this model's parameters from another model of the same
    /// spec, reusing all existing buffers (no allocation).
    pub fn copy_from(&mut self, other: &Model) {
        assert_eq!(self.spec, other.spec, "copy_from spec mismatch");
        for (layer, o) in self.layers.iter_mut().zip(&other.layers) {
            layer.w.as_mut_slice().copy_from_slice(o.w.as_slice());
            layer.b.copy_from_slice(&o.b);
        }
    }

    /// In-place SGD update: `self ← self - eta · grad`.
    pub fn apply_gradient(&mut self, grad: &Model, eta: f32) {
        assert_eq!(self.spec, grad.spec, "gradient for a different spec");
        for (layer, g) in self.layers.iter_mut().zip(&grad.layers) {
            ops::axpy(-eta, g.w.as_slice(), layer.w.as_mut_slice());
            ops::axpy(-eta, &g.b, &mut layer.b);
        }
    }

    /// In-place SGD update of the *tail* — layer 0's bias and every later
    /// layer — leaving layer 0's weights as they are: what a CSR step
    /// writes after its layer-0 rows ([`crate::CsrStep::write_l0`]), from a
    /// gradient whose layer 0 need hold no weight row.
    pub fn apply_tail(&mut self, grad: &Model, eta: f32) {
        assert_eq!(self.spec, grad.spec, "gradient for a different spec");
        ops::axpy(-eta, &grad.layers[0].b, &mut self.layers[0].b);
        for (layer, g) in self.layers.iter_mut().zip(&grad.layers).skip(1) {
            ops::axpy(-eta, g.w.as_slice(), layer.w.as_mut_slice());
            ops::axpy(-eta, &g.b, &mut layer.b);
        }
    }

    /// In-place SGD update restricted to the sparse layer-0 support:
    /// touches only the layer-0 weight rows of the input features listed in
    /// `l0_cols`, plus the tail ([`Model::apply_tail`]).
    ///
    /// Equivalent to [`Model::apply_gradient`] whenever the layer-0 weight
    /// gradient is exactly zero outside `l0_cols` — which the sparse
    /// backward pass guarantees (a batch column with no stored entry
    /// contributes nothing to `∇W₀ = Xᵀ·δ`). Each listed row is one
    /// contiguous axpy, and any order of `l0_cols` gives the same result.
    /// Cost drops from `O(in·out)` to `O(|l0_cols|·out)` on the first layer.
    pub fn apply_gradient_sparse(&mut self, grad: &Model, eta: f32, l0_cols: &[u32]) {
        assert_eq!(self.spec, grad.spec, "gradient for a different spec");
        let (w, g) = (&mut self.layers[0].w, &grad.layers[0].w);
        for &c in l0_cols {
            ops::axpy(-eta, g.row(c as usize), w.row_mut(c as usize));
        }
        self.apply_tail(grad, eta);
    }

    /// Scale every parameter (e.g. averaging accumulated gradients).
    pub fn scale(&mut self, alpha: f32) {
        for layer in &mut self.layers {
            ops::scale(alpha, layer.w.as_mut_slice());
            ops::scale(alpha, &mut layer.b);
        }
    }

    /// L2 norm over all parameters.
    pub fn param_norm(&self) -> f32 {
        self.layers
            .iter()
            .map(|l| {
                l.w.as_slice().iter().map(|v| v * v).sum::<f32>()
                    + l.b.iter().map(|v| v * v).sum::<f32>()
            })
            .sum::<f32>()
            .sqrt()
    }

    /// True iff every parameter is finite.
    pub fn all_finite(&self) -> bool {
        self.layers
            .iter()
            .all(|l| l.w.all_finite() && l.b.iter().all(|v| v.is_finite()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LossKind;

    fn spec() -> MlpSpec {
        MlpSpec {
            input_dim: 3,
            hidden: vec![4, 5],
            classes: 2,
            activation: crate::Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        }
    }

    #[test]
    fn new_model_has_spec_shapes() {
        let m = Model::new(spec(), InitScheme::PaperNormal, 0);
        assert_eq!(m.layers().len(), 3);
        assert_eq!(m.layers()[0].w.shape(), (3, 4), "layer 0 is in × out");
        assert_eq!(m.layers()[1].w.shape(), (5, 4));
        assert_eq!(m.layers()[2].w.shape(), (2, 5));
        assert_eq!(m.layers()[2].b.len(), 2);
        assert!(m.all_finite());
    }

    #[test]
    fn init_deterministic_and_seed_sensitive() {
        let a = Model::new(spec(), InitScheme::PaperNormal, 7);
        let b = Model::new(spec(), InitScheme::PaperNormal, 7);
        let c = Model::new(spec(), InitScheme::PaperNormal, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn layers_have_distinct_weights() {
        // Each layer draws from its own stream — identical dims must not
        // produce identical weights.
        let s = MlpSpec {
            input_dim: 4,
            hidden: vec![4, 4],
            classes: 4,
            activation: crate::Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        };
        let m = Model::new(s, InitScheme::PaperNormal, 0);
        assert_ne!(m.layers()[0].w, m.layers()[1].w);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let m = Model::new(spec(), InitScheme::Xavier, 3);
        let flat = m.flatten();
        assert_eq!(flat.len(), m.num_params());
        let back = Model::unflatten(m.spec(), &flat);
        assert_eq!(m, back);
    }

    #[test]
    #[should_panic(expected = "flat parameter length")]
    fn unflatten_wrong_len_panics() {
        let s = spec();
        Model::unflatten(&s, &[0.0; 3]);
    }

    #[test]
    fn apply_gradient_moves_parameters() {
        let mut m = Model::new(spec(), InitScheme::Constant(1.0), 0);
        let mut g = Model::zeros_like(m.spec());
        g.layers_mut()[0].w.set(0, 0, 2.0);
        g.layers_mut()[0].b[1] = 4.0;
        m.apply_gradient(&g, 0.5);
        assert_eq!(m.layers()[0].w.get(0, 0), 0.0); // 1 - 0.5*2
        assert_eq!(m.layers()[0].b[1], -2.0);
        assert_eq!(m.layers()[1].w.get(0, 0), 1.0); // untouched
    }

    #[test]
    fn apply_gradient_sparse_matches_dense_on_sparse_support() {
        let mut dense = Model::new(spec(), InitScheme::Xavier, 5);
        let mut sparse = dense.clone();
        // Gradient whose layer-0 weights are non-zero only for input
        // features {0, 2}.
        let mut g = Model::new(spec(), InitScheme::Constant(0.5), 0);
        assert_eq!(g.layers()[0].w.rows(), 3);
        g.layers_mut()[0].w.row_mut(1).fill(0.0);
        dense.apply_gradient(&g, 0.3);
        sparse.apply_gradient_sparse(&g, 0.3, &[0, 2]);
        assert_eq!(dense, sparse);
    }

    #[test]
    fn accumulate_and_scale() {
        let s = spec();
        let mut acc = Model::zeros_like(&s);
        let ones = Model::new(s.clone(), InitScheme::Constant(1.0), 0);
        acc.apply_gradient(&ones, -2.0);
        acc.apply_gradient(&ones, -1.0);
        acc.scale(1.0 / 3.0);
        // Weights converge to 1.0; biases stay 0 (constant-init biases are 0).
        assert!((acc.layers()[0].w.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn param_norm_zero_for_zero_model() {
        assert_eq!(Model::zeros_like(&spec()).param_norm(), 0.0);
    }
}
