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

/// Layer `l`'s initial weights in its storage layout. Every layer draws
/// weight `(o, c)` as draw `o·in + c` of its stream; layer 0 stores it at
/// `(c, o)`, taking [`INIT_TILE_ROWS`] output rows of draws at a time through a
/// reused buffer so that each 64-byte line of its store is written once —
/// no full-size `out × in` draw to transpose afterwards.
fn initial_weights(
    l: usize,
    fan_in: usize,
    fan_out: usize,
    mut draw: impl FnMut() -> f32,
) -> Matrix {
    let mut w = weights(l, fan_in, fan_out);
    if l > 0 {
        w.as_mut_slice().iter_mut().for_each(|v| *v = draw());
        return w;
    }
    let mut tile = vec![0.0; INIT_TILE_ROWS.min(fan_out) * fan_in];
    for o0 in (0..fan_out).step_by(INIT_TILE_ROWS) {
        let rows = INIT_TILE_ROWS.min(fan_out - o0);
        let tile = &mut tile[..rows * fan_in];
        tile.iter_mut().for_each(|v| *v = draw());
        for (c, line) in w.as_mut_slice().chunks_exact_mut(fan_out).enumerate() {
            for (r, v) in line[o0..o0 + rows].iter_mut().enumerate() {
                *v = tile[r * fan_in + c];
            }
        }
    }
    w
}

/// Output rows of layer 0 drawn per tile: 16 floats fill a 64-byte line.
const INIT_TILE_ROWS: usize = 16;

impl Model {
    /// Every stripe of the flat layout, in order: per layer its weight rows,
    /// then its bias.
    pub(crate) fn stripes(&self) -> Vec<Stripe> {
        let mut stripes = Vec::new();
        let mut start = 0;
        for (layer, l) in self.layers.iter().enumerate() {
            let (rows, width) = l.w.shape();
            let rows = (0..rows).map(|r| (Some(r * width), width));
            for (row_at, len) in rows.chain([(None, l.b.len())]) {
                let end = start + len;
                stripes.push(Stripe {
                    layer,
                    row_at,
                    start,
                    end,
                });
                start = end;
            }
        }
        stripes
    }

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
    /// Each layer gets an independent deterministic stream derived from
    /// `seed`, so models are reproducible across runs and across replica
    /// deep-copies.
    ///
    /// The draw fills each layer's weights in logical `(out, in)` order —
    /// weight `(o, c)` is draw `o·in + c` of its stream — whatever the
    /// layer's storage, so the initial model is the same function of the
    /// seed in either layout.
    pub fn new(spec: MlpSpec, scheme: InitScheme, seed: u64) -> Self {
        spec.validate().expect("invalid MlpSpec");
        let layers = spec
            .layer_dims()
            .iter()
            .enumerate()
            .map(|(l, &(fan_in, fan_out))| {
                let layer_seed =
                    seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(l as u64 + 1));
                let draw = scheme.draws(fan_in, fan_out, layer_seed);
                Layer {
                    w: initial_weights(l, fan_in, fan_out, draw),
                    b: vec![0.0; fan_out],
                }
            })
            .collect();
        Model { spec, layers }
    }

    /// Zero-valued model with the same shape (used for gradients/accumulators).
    pub fn zeros_like(spec: &MlpSpec) -> Self {
        let layers = spec
            .layer_dims()
            .iter()
            .enumerate()
            .map(|(l, &(fan_in, fan_out))| Layer {
                w: weights(l, fan_in, fan_out),
                b: vec![0.0; fan_out],
            })
            .collect();
        Model {
            spec: spec.clone(),
            layers,
        }
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

    /// In-place SGD update restricted to the sparse layer-0 support:
    /// touches only the layer-0 weight rows of the input features listed in
    /// `l0_cols`, plus every bias and all later layers in full.
    ///
    /// Equivalent to [`Model::apply_gradient`] whenever the layer-0 weight
    /// gradient is exactly zero outside `l0_cols` — which the sparse
    /// backward pass guarantees (a batch column with no stored entry
    /// contributes nothing to `∇W₀ = Xᵀ·δ`). Each listed row is one
    /// contiguous axpy, and any order of `l0_cols` gives the same result.
    /// Cost drops from `O(in·out)` to `O(|l0_cols|·out)` on the first layer.
    pub fn apply_gradient_sparse(&mut self, grad: &Model, eta: f32, l0_cols: &[u32]) {
        assert_eq!(self.spec, grad.spec, "gradient for a different spec");
        {
            let (layer, g) = (&mut self.layers[0], &grad.layers[0]);
            for &c in l0_cols {
                ops::axpy(-eta, g.w.row(c as usize), layer.w.row_mut(c as usize));
            }
            ops::axpy(-eta, &g.b, &mut layer.b);
        }
        for (layer, g) in self.layers.iter_mut().zip(&grad.layers).skip(1) {
            ops::axpy(-eta, g.w.as_slice(), layer.w.as_mut_slice());
            ops::axpy(-eta, &g.b, &mut layer.b);
        }
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

    /// Only layer 0's store is transposed: its weight at logical `(o, c)`
    /// is still draw `o·in + c` of the layer's stream, so a seed names the
    /// same initial model in either layout.
    #[test]
    fn layer0_holds_the_logical_draw_transposed() {
        for scheme in [InitScheme::PaperNormal, InitScheme::Xavier] {
            let seed = 41;
            let m = Model::new(spec(), scheme, seed);
            let (fan_in, fan_out) = spec().layer_dims()[0];
            let mut draw = vec![0.0; fan_in * fan_out];
            let layer_seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            scheme.fill(fan_in, fan_out, layer_seed, &mut draw);
            for o in 0..fan_out {
                for c in 0..fan_in {
                    let stored = m.layers()[0].w.get(c, o);
                    assert_eq!(
                        stored.to_bits(),
                        draw[o * fan_in + c].to_bits(),
                        "({o}, {c})"
                    );
                }
            }
        }
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
