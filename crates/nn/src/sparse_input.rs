//! Training with a sparse input layer.
//!
//! For bag-of-words data like real-sim (~0.25% dense) only the **first**
//! layer touches the input, so sparsity pays off exactly twice per step:
//! the first forward product `X·W₀` and the first weight gradient
//! `∇W₀ = Xᵀ·δ₀`. Every other layer is dense regardless. This module plugs
//! the CSR kernels of `hetero_tensor::sparse` into those two spots and
//! reuses the dense pipeline everywhere else — making the paper's "process
//! everything dense" decision (§VII-A) measurable rather than assumed.
//!
//! One API: the [`crate::Workspace`] passes take an [`crate::Input`],
//! dense or CSR, and the shared forward/backward bodies call into this
//! module at layer 0 only. Layer 0 is stored `in × out`, the layout both
//! CSR kernels read and write, so the forward gathers straight from the
//! model and the backward scatters straight into the gradient: no repack,
//! no transposed copy. What a CSR gradient does need is its *support* —
//! the input features its batch touched, the only layer-0 rows that may be
//! non-zero — which [`SparseScratch`] keeps, so that appliers walk only
//! those rows and the next CSR gradient re-zeroes only them. It is sized by
//! the spec alone, so warm steps are allocation-free.
//! [`forward_sparse`] is a thin allocating wrapper for one-off calls.
//!
//! The layers after the first run the *same* code as for a dense batch, so
//! sparse/dense parity there holds by construction. The layer-0
//! kernels are linear mul+add in scalar element order on both dispatch
//! levels — the only divergence from the dense path is float summation
//! order over the input features.

use hetero_tensor::{sparse, CsrMatrix, CsrView, Matrix};

use crate::backward::Gradient;
use crate::forward::ForwardPass;
use crate::model::Model;
use crate::workspace::Workspace;

/// The layer-0 support of a workspace's stored CSR gradient. The workspace
/// holds one exactly while its gradient came from a CSR batch; a dense
/// gradient's support is every row, and a dense backward drops this.
#[derive(Debug)]
pub(crate) struct SparseScratch {
    /// One bit per input feature, all clear between calls (`collect_rows`).
    mask: Vec<u64>,
    /// The stored gradient's support: the input features its batch touched
    /// (ascending, duplicate-free) — the only rows of `grad.w[0]` that may
    /// be non-zero.
    rows: Vec<u32>,
}

impl SparseScratch {
    /// Take over `grad`, whose layer-0 rows may all be non-zero (a dense
    /// gradient's support is every row): they are re-zeroed here, so the
    /// support starts empty.
    pub(crate) fn new(grad: &mut Gradient) -> Self {
        let w0 = &mut grad.layers_mut()[0].w;
        if !cfg!(hetero_stale_l0_rows) {
            w0.as_mut_slice().fill(0.0);
        }
        let in_dim = w0.rows();
        SparseScratch {
            mask: vec![0; in_dim.div_ceil(64)],
            rows: Vec::with_capacity(in_dim),
        }
    }

    /// The stored gradient's support.
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Σ of buffer capacities (workspace growth tracking).
    pub(crate) fn capacity_fingerprint(&self) -> usize {
        self.mask.capacity() + self.rows.capacity()
    }

    /// Layer-0 weight gradient `∇W₀ = Xᵀ·δ` at `O(nnz·out₀)`: re-zero the
    /// previous support's rows, then scatter this batch straight into
    /// `grad.w[0]`. The gradient stays globally exact — true zeros in every
    /// row the batch never touched — so full-pass consumers (clipping, the
    /// watchdog scan) need not know the format. `hetero_stale_l0_rows` is
    /// the seeded bug of `scripts/check_mutation.sh`: no re-zero.
    pub(crate) fn backward_l0(&mut self, x: CsrView<'_>, delta: &Matrix, grad: &mut Gradient) {
        let gw = &mut grad.layers_mut()[0].w;
        if !cfg!(hetero_stale_l0_rows) {
            for &c in &self.rows {
                gw.row_mut(c as usize).fill(0.0);
            }
        }
        collect_rows(x.indices(), &mut self.mask, &mut self.rows);
        sparse::spmm_tn_scatter(x, delta, gw);
    }
}

/// The distinct column indices of a batch, ascending, into `out`:
/// `O(nnz + in/64)` through a bitmap that is left all-clear again.
fn collect_rows(indices: &[u32], mask: &mut [u64], out: &mut Vec<u32>) {
    out.clear();
    for &c in indices {
        mask[c as usize / 64] |= 1 << (c % 64);
    }
    for (w, word) in mask.iter_mut().enumerate() {
        while *word != 0 {
            out.push(w as u32 * 64 + word.trailing_zeros());
            *word &= *word - 1;
        }
    }
}

/// Forward pass with a sparse batch (first layer sparse, rest dense).
///
/// Thin allocating wrapper over
/// [`Workspace::forward_into`](crate::Workspace::forward_into);
/// steady-state loops use the workspace variant directly.
pub fn forward_sparse(model: &Model, x: &CsrMatrix, parallel: bool) -> ForwardPass {
    let mut ws = Workspace::new(model.spec());
    ws.forward_into(model, x.view(), parallel).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::loss_and_gradient;
    use crate::forward::Targets;
    use crate::init::InitScheme;
    use crate::spec::MlpSpec;

    /// Loss and gradient of a CSR batch through a fresh workspace.
    fn loss_and_gradient_sparse(
        model: &Model,
        x: &CsrMatrix,
        targets: Targets<'_>,
        parallel: bool,
    ) -> (f32, Gradient) {
        let mut ws = Workspace::new(model.spec());
        let (l, g) = ws.loss_and_gradient_into(model, x.view(), targets, parallel);
        (l, g.clone())
    }

    fn sparse_batch(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state.is_multiple_of(5) {
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn sparse_forward_matches_dense() {
        let spec = MlpSpec::tiny(12, 3);
        let model = Model::new(spec, InitScheme::Xavier, 8);
        let dense = sparse_batch(7, 12, 3);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let a = crate::forward(&model, &dense, false);
        let b = forward_sparse(&model, &csr, false);
        assert!(a.probs().approx_eq(b.probs(), 1e-5));
    }

    #[test]
    fn sparse_gradient_matches_dense() {
        let spec = MlpSpec::tiny(10, 2);
        let model = Model::new(spec, InitScheme::Xavier, 4);
        let dense = sparse_batch(6, 10, 9);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let labels: Vec<u32> = (0..6).map(|i| (i % 2) as u32).collect();
        let (l1, g1) = loss_and_gradient(&model, &dense, Targets::Classes(&labels), false);
        let (l2, g2) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
        assert!((l1 - l2).abs() < 1e-5, "{l1} vs {l2}");
        for (a, b) in g1.flatten().iter().zip(g2.flatten().iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn sparse_training_reduces_loss() {
        let spec = MlpSpec::tiny(10, 2);
        let mut model = Model::new(spec, InitScheme::Xavier, 1);
        let dense = sparse_batch(40, 10, 17);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let labels: Vec<u32> = (0..40)
            .map(|i| if dense.row(i)[0] > 0.0 { 1 } else { 0 })
            .collect();
        let (first, _) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
        let mut last = first;
        for _ in 0..60 {
            let (l, g) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
            model.apply_gradient(&g, 0.8);
            last = l;
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn single_layer_network_sparse() {
        // No hidden layers: the sparse path must handle the output layer
        // being the first layer.
        let spec = MlpSpec {
            input_dim: 8,
            hidden: vec![],
            classes: 3,
            activation: crate::Activation::Sigmoid,
            loss: crate::LossKind::SoftmaxCrossEntropy,
        };
        let model = Model::new(spec, InitScheme::Xavier, 2);
        let dense = sparse_batch(5, 8, 21);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let labels = vec![0u32, 1, 2, 0, 1];
        let (l1, g1) = loss_and_gradient(&model, &dense, Targets::Classes(&labels), false);
        let (l2, g2) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
        assert!((l1 - l2).abs() < 1e-5);
        for (a, b) in g1.flatten().iter().zip(g2.flatten().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    /// Successive sparse batches with *different* active sets must each
    /// produce the exact gradient a fresh workspace would: the backward
    /// re-zeroes the previously-active rows, so no stale values leak.
    #[test]
    fn reused_workspace_rezeroes_previous_active_rows() {
        let spec = MlpSpec::tiny(16, 2);
        let model = Model::new(spec.clone(), InitScheme::Xavier, 6);
        let a = sparse_batch(5, 16, 31);
        let b = sparse_batch(5, 16, 77);
        let labels: Vec<u32> = (0..5).map(|i| (i % 2) as u32).collect();
        let mut ws = Workspace::new(&spec);
        for batch in [&a, &b, &a] {
            let csr = CsrMatrix::from_dense(batch, 0.0);
            let (l, g) =
                ws.loss_and_gradient_into(&model, csr.view(), Targets::Classes(&labels), false);
            let (l_ref, g_ref) =
                loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
            assert_eq!(l.to_bits(), l_ref.to_bits());
            for (x, y) in g.flatten().iter().zip(g_ref.flatten().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }

    /// Interleaving dense and sparse gradients on one workspace must not
    /// leak stale dense values into the sparse layer-0 gradient.
    #[test]
    fn dense_then_sparse_on_one_workspace_is_exact() {
        let spec = MlpSpec::tiny(12, 2);
        let model = Model::new(spec.clone(), InitScheme::Xavier, 9);
        let dense = Matrix::from_fn(6, 12, |i, j| ((i * 12 + j) as f32 * 0.21).sin());
        let sparse_x = sparse_batch(6, 12, 41);
        let csr = CsrMatrix::from_dense(&sparse_x, 0.0);
        let labels: Vec<u32> = (0..6).map(|i| (i % 2) as u32).collect();
        let mut ws = Workspace::new(&spec);
        // Sparse first (primes the active set), then dense (fills grad.w[0]
        // densely), then sparse again — the last call must re-zero every
        // row, the dense gradient's support.
        ws.loss_and_gradient_into(&model, csr.view(), Targets::Classes(&labels), false);
        ws.loss_and_gradient_into(&model, &dense, Targets::Classes(&labels), false);
        let (_, g) =
            ws.loss_and_gradient_into(&model, csr.view(), Targets::Classes(&labels), false);
        let (_, g_ref) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
        for (x, y) in g.flatten().iter().zip(g_ref.flatten().iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn active_cols_reflect_batch_support() {
        let spec = MlpSpec::tiny(8, 2);
        let model = Model::new(spec.clone(), InitScheme::Xavier, 3);
        let mut dense = Matrix::zeros(4, 8);
        dense.set(0, 1, 1.0);
        dense.set(2, 5, -2.0);
        dense.set(3, 1, 0.5);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let labels = vec![0u32, 1, 0, 1];
        let mut ws = Workspace::new(&spec);
        ws.loss_and_gradient_into(&model, csr.view(), Targets::Classes(&labels), false);
        let mut cols = ws.active_cols().expect("CSR gradient").to_vec();
        cols.sort_unstable();
        assert_eq!(cols, vec![1, 5]);
    }

    #[test]
    #[should_panic(expected = "input_dim")]
    fn wrong_width_panics() {
        let spec = MlpSpec::tiny(10, 2);
        let model = Model::new(spec, InitScheme::Xavier, 1);
        let csr = CsrMatrix::from_dense(&Matrix::zeros(2, 7), 0.0);
        forward_sparse(&model, &csr, false);
    }
}
