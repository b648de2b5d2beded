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
//! [`SupportRead`] takes the same support before the step, on the worker
//! side: it reads only those rows of the shared model, so a threaded step
//! reads, differentiates and writes layer 0 at the size of its batch.
//! [`forward_sparse`] is a thin allocating wrapper for one-off calls.
//!
//! The layers after the first run the *same* code as for a dense batch, so
//! sparse/dense parity there holds by construction. The layer-0
//! kernels are linear mul+add in scalar element order on both dispatch
//! levels — the only divergence from the dense path is float summation
//! order over the input features.

use hetero_tensor::{sparse, CsrBatch, CsrMatrix, CsrView, Matrix};

use crate::backward::Gradient;
use crate::forward::ForwardPass;
use crate::model::Model;
use crate::shared::SharedModel;
use crate::spec::MlpSpec;
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
    /// An empty support for batches `in_dim` features wide: the gradient
    /// it is handed must hold zeros in every layer-0 row.
    pub(crate) fn new(in_dim: usize) -> Self {
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
    /// watchdog scan) need not know the format. A gradient at a batch's
    /// support ([`crate::SupportRead`]) may have fewer rows than before:
    /// a row it no longer has is re-zeroed when it grows back
    /// ([`Model::fit_l0`]). `hetero_stale_l0_rows` is the seeded bug of
    /// `scripts/check_mutation.sh`: no re-zero.
    pub(crate) fn backward_l0(&mut self, x: CsrView<'_>, delta: &Matrix, grad: &mut Gradient) {
        let gw = &mut grad.layers_mut()[0].w;
        if !cfg!(hetero_stale_l0_rows) {
            let held = gw.rows();
            for &c in self.rows.iter().filter(|&&c| (c as usize) < held) {
                gw.row_mut(c as usize).fill(0.0);
            }
        }
        collect_rows(x.indices(), &mut self.mask, &mut self.rows);
        sparse::spmm_tn_scatter(x, delta, gw);
    }
}

/// A worker's read of the global model at the size of its batch (§V: CPU
/// workers use the global model by reference, GPU workers copy only what
/// they train on).
///
/// For a CSR batch, [`read_csr`](Self::read_csr) takes the batch's
/// *support* — the input features it touches, ascending, as the backward
/// collects them — renumbers the batch's column indices onto it (feature
/// `support[i]` becomes column `i`) and reads from the shared model only
/// those layer-0 rows, local row `i` holding feature `support[i]`'s
/// weights, plus every stripe from layer 0's bias on
/// ([`SharedModel::read_rows`]). The kernels run on the compact model
/// unchanged and meet the same values in the same order, so the loss and
/// the gradient are bit-identical to a full snapshot's, the gradient
/// holding only the support's rows; [`SharedModel::apply_racy`] and
/// [`SharedModel::merge_gradient`], handed [`support`](Self::support),
/// write gradient row `i` to model row `support[i]`. A dense batch's
/// support is every row: [`read_all`](Self::read_all) is a full snapshot.
///
/// Nothing is read at construction. Layer 0 holds `k × out` for a support
/// of `k` features and grows only when a support outgrows its capacity, to
/// a quarter more rows than that support (at most `input_dim`); the
/// scratch is sized by the spec, so a warm read is allocation-free.
#[derive(Debug)]
pub struct SupportRead {
    local: Model,
    /// The last CSR read's support; meaningless after a dense read.
    support: Vec<u32>,
    /// Whether the last read was dense: every row.
    every_row: bool,
    /// One bit per input feature, all clear between calls (`collect_rows`).
    mask: Vec<u64>,
    /// Input feature → its local row; meaningful on the support only.
    slot: Vec<u32>,
}

impl SupportRead {
    /// An empty read for models of shape `spec`.
    pub fn new(spec: &MlpSpec) -> Self {
        let in_dim = spec.input_dim;
        SupportRead {
            local: Model::zeros_with_l0_rows(spec, 0),
            support: Vec::with_capacity(in_dim),
            every_row: false,
            mask: vec![0; in_dim.div_ceil(64)],
            slot: vec![0; in_dim],
        }
    }

    /// Read what the CSR `batch` touches of `shared`, renumbering the
    /// batch's columns onto its support (see the type docs).
    // audit: no_alloc
    pub fn read_csr(&mut self, shared: &SharedModel, batch: &mut CsrBatch) {
        collect_rows(batch.view().indices(), &mut self.mask, &mut self.support);
        // A support of every feature numbers them as they are.
        if self.support.len() < batch.cols() {
            for (i, &c) in self.support.iter().enumerate() {
                self.slot[c as usize] = i as u32;
            }
            let slot = &self.slot;
            batch.renumber_cols(self.support.len(), |c| slot[c as usize]);
        }
        self.every_row = false;
        shared.read_rows(Some(&self.support), &mut self.local);
    }

    /// Read every row of `shared`: the support of a dense batch.
    // audit: no_alloc
    pub fn read_all(&mut self, shared: &SharedModel) {
        self.every_row = true;
        shared.read_rows(None, &mut self.local);
    }

    /// The model read, at the size of the last batch.
    pub fn model(&self) -> &Model {
        &self.local
    }

    /// The input features the read model's layer 0 holds, in its row
    /// order (ascending): `Some` after a CSR read, `None` — every row —
    /// after a dense one. What an apply of a gradient at the read takes.
    pub fn support(&self) -> Option<&[u32]> {
        (!self.every_row).then_some(&self.support)
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

    /// A support read holds the batch's rows and renumbers the batch onto
    /// them; a gradient at it, applied through its support, moves the
    /// shared model exactly as the full-snapshot gradient does — across
    /// batches whose supports grow and shrink on one workspace.
    #[test]
    fn support_read_steps_match_full_snapshot_steps() {
        let spec = MlpSpec::tiny(40, 2);
        let model = Model::new(spec.clone(), InitScheme::Xavier, 12);
        let (via_read, via_snapshot) = (SharedModel::new(&model), SharedModel::new(&model));
        let (mut at, mut full) = (SupportRead::new(&spec), Model::zeros_like(&spec));
        let (mut ws_read, mut ws_full) = (Workspace::new(&spec), Workspace::new(&spec));
        let all = CsrMatrix::from_dense(&sparse_batch(24, 40, 5), 0.0);
        let mut batch = CsrBatch::new();
        for (s, e) in [(0, 3), (3, 15), (15, 17), (0, 24)] {
            let labels: Vec<u32> = (s..e).map(|i| (i % 2) as u32).collect();
            let targets = Targets::Classes(&labels);
            all.slice_rows_into(s, e, &mut batch);
            via_snapshot.snapshot_into(&mut full);
            ws_full.loss_and_gradient_into(&full, batch.view(), targets, false);
            via_snapshot.apply_racy(ws_full.grad(), 0.5, ws_full.active_cols());
            let support = ws_full.active_cols().unwrap().to_vec();
            at.read_csr(&via_read, &mut batch);
            assert_eq!(at.support(), Some(&support[..]), "rows {s}..{e}");
            assert_eq!(batch.cols(), support.len());
            for (i, &c) in support.iter().enumerate() {
                let local = at.model().layers()[0].w.row(i);
                assert_eq!(local, full.layers()[0].w.row(c as usize));
            }
            let (_, g) = ws_read.loss_and_gradient_into(at.model(), batch.view(), targets, false);
            assert_eq!(g.layers()[0].w.rows(), support.len());
            via_read.apply_racy(g, 0.5, at.support());
            assert_eq!(
                via_read.read_flat(),
                via_snapshot.read_flat(),
                "rows {s}..{e}"
            );
        }
        at.read_all(&via_read);
        assert_eq!((at.model(), at.support()), (&via_read.snapshot(), None));
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
