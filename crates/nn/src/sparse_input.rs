//! Training with a sparse input layer.
//!
//! For bag-of-words data like real-sim (~0.25% dense) only the **first**
//! layer touches the input, so sparsity pays off exactly twice per step:
//! the first forward product `X·W₁ᵀ` and the first weight gradient
//! `∇W₁ = δ₁ᵀ·X`. Every other layer is dense regardless. This module plugs
//! the CSR kernels of `hetero_tensor::sparse` into those two spots and
//! reuses the dense pipeline everywhere else — making the paper's "process
//! everything dense" decision (§VII-A) measurable rather than assumed.
//!
//! One API: the [`crate::Workspace`] passes take an [`crate::Input`],
//! dense or CSR, and the shared forward/backward bodies call into this
//! module at layer 0 only. All scratch (the transposed weight repack, the
//! transposed gradient accumulator, the active-column bookkeeping) lives
//! in the workspace and is sized once, so warm steps are allocation-free.
//! [`forward_sparse`] / [`loss_and_gradient_sparse`] are thin allocating
//! wrappers for tests and one-off calls.
//!
//! The layers after the first run the *same* code as for a dense batch, so
//! sparse/dense parity there holds by construction. The layer-0
//! kernels are linear mul+add in scalar element order on both dispatch
//! levels — the only divergence from the dense path is float summation
//! order over the input features.

use hetero_tensor::{sparse, CsrMatrix, CsrView, Matrix};

use crate::backward::Gradient;
use crate::forward::{ForwardPass, Targets};
use crate::model::{Layer, Model};
use crate::spec::MlpSpec;
use crate::workspace::Workspace;

/// Visit every layer-0 weight `(o, c)`, `c ∈ cols`, of a row-major
/// `out0×in` matrix **in address order**: output row by output row, left to
/// right within a row. With `cols` ascending the whole walk is one forward
/// sweep; the column-outer order it replaces took a full-row stride (a
/// cache and a TLB miss) per element. Any order of `cols` visits the same
/// set, so callers whose per-element work is independent get identical
/// results, merely fastest when ascending.
#[inline(always)]
pub(crate) fn walk_l0_cols(cols: &[u32], out0: usize, mut visit: impl FnMut(usize, usize)) {
    for o in 0..out0 {
        for &c in cols {
            visit(o, c as usize);
        }
    }
}

/// L1 share one tile of [`walk_l0_cols_transposing`] may occupy on the
/// transposed side (half of a 32 KB L1d).
const L0_TILE_BYTES: usize = 16 * 1024;

/// [`walk_l0_cols`] for visitors that also touch the *transposed*
/// (`in×out0`) scratch at `(c, o)`: the columns go in tiles whose `tile ×
/// out0` transposed rows fit [`L0_TILE_BYTES`], so every cache line of the
/// transposed side serves its 16 output rows before it is evicted. Untiled,
/// the transposed side misses on every element (DESIGN.md §4k has the sweep).
#[inline(always)]
fn walk_l0_cols_transposing(cols: &[u32], out0: usize, mut visit: impl FnMut(usize, usize)) {
    let cols_per_tile = (L0_TILE_BYTES / (4 * out0.max(1))).max(1);
    for tile in cols.chunks(cols_per_tile) {
        walk_l0_cols(tile, out0, &mut visit);
    }
}

/// Reusable layer-0 sparse scratch owned by a [`Workspace`].
///
/// Everything here is sized by the model spec alone (never by the batch),
/// so the whole struct is fully allocated at creation and steady-state
/// sparse steps never grow it.
#[derive(Debug)]
pub(crate) struct SparseScratch {
    /// First-layer weights repacked transposed (`in×out₁`) so every CSR
    /// entry reads one contiguous row; each forward refreshes the rows of
    /// its batch's columns only (the kernel reads no others).
    w1t: Matrix,
    /// Transposed first-layer gradient accumulator (`in×out₁`); only rows
    /// in the active set hold meaningful values.
    grad_t: Matrix,
    /// One bit per input column, all clear between calls (`collect_cols`).
    col_mask: Vec<u64>,
    /// Columns of the most recent forward batch (ascending).
    fwd_cols: Vec<u32>,
    /// Input columns with at least one stored entry in the most recent
    /// gradient batch (ascending, duplicate-free).
    active: Vec<u32>,
    /// The active set of the previous sparse gradient — the `grad.w[0]`
    /// columns that must be re-zeroed before the next scatter.
    prev_active: Vec<u32>,
    /// Zero all of `grad.w[0]` before the next scatter: set at creation and
    /// whenever a dense backward overwrote the gradient in between — i.e.
    /// exactly while `active` does *not* describe the stored gradient.
    full_clear: bool,
}

impl SparseScratch {
    pub(crate) fn new(spec: &MlpSpec) -> Self {
        let (in_dim, out0) = spec.layer_dims()[0];
        SparseScratch {
            w1t: Matrix::zeros(in_dim, out0),
            grad_t: Matrix::zeros(in_dim, out0),
            col_mask: vec![0; in_dim.div_ceil(64)],
            fwd_cols: Vec::with_capacity(in_dim),
            active: Vec::with_capacity(in_dim),
            prev_active: Vec::with_capacity(in_dim),
            full_clear: true,
        }
    }

    /// Support of the stored gradient's layer-0 weights, if the most recent
    /// gradient was a sparse one (`None` after a dense pass: `active` then
    /// still lists the batch before it).
    pub(crate) fn active_cols(&self) -> Option<&[u32]> {
        (!self.full_clear).then_some(&self.active)
    }

    /// A dense backward overwrote the shared gradient buffer: the next
    /// sparse gradient must re-zero all of `grad.w[0]`, not just the
    /// previously-active columns.
    pub(crate) fn note_dense_gradient(&mut self) {
        self.full_clear = true;
    }

    /// Σ of buffer capacities (workspace growth tracking).
    pub(crate) fn capacity_fingerprint(&self) -> usize {
        self.w1t.capacity()
            + self.grad_t.capacity()
            + self.col_mask.capacity()
            + self.fwd_cols.capacity()
            + self.active.capacity()
            + self.prev_active.capacity()
    }

    /// Layer-0 pre-activation of a CSR batch into `z`: repack the batch's
    /// columns of W₁ transposed, then fused bias + per-nnz accumulate. The
    /// repack is O(out₁·|cols|) and keeps the kernel's inner loop
    /// contiguous on both operands.
    pub(crate) fn forward_l0(&mut self, x: CsrView<'_>, l0: &Layer, z: &mut Matrix) {
        let (out0, in0) = l0.w.shape();
        collect_cols(x.indices(), &mut self.col_mask, &mut self.fwd_cols);
        let (w, wt) = (l0.w.as_slice(), self.w1t.as_mut_slice());
        walk_l0_cols_transposing(&self.fwd_cols, out0, |o, c| {
            wt[c * out0 + o] = w[o * in0 + c]
        });
        sparse::spmm_bias_into(x, &self.w1t, &l0.b, z);
    }

    /// Layer-0 weight gradient `∇W₁ = δᵀ·X` at `O(nnz·out₁)`:
    /// accumulate row-contiguously into the transposed scratch, then scatter
    /// only the active columns back into `grad.w[0]` — re-zeroing the columns
    /// the *previous* call touched so the dense gradient stays globally exact
    /// (full-pass consumers like gradient clipping and the watchdog scan read
    /// true zeros at inactive columns).
    pub(crate) fn backward_l0(&mut self, x: CsrView<'_>, delta: &Matrix, grad: &mut Gradient) {
        // Remember the previous active set (its grad.w[0] columns hold stale
        // values), then collect this batch's.
        std::mem::swap(&mut self.prev_active, &mut self.active);
        collect_cols(x.indices(), &mut self.col_mask, &mut self.active);

        // Zero exactly the accumulator rows this batch will touch, accumulate,
        // and write back.
        for &c in self.active.iter() {
            self.grad_t.row_mut(c as usize).fill(0.0);
        }
        sparse::spmm_tn_scatter(x, delta, &mut self.grad_t);

        let gw = &mut grad.layers_mut()[0].w;
        let (out0, in0) = gw.shape();
        let gws = gw.as_mut_slice();
        if self.full_clear {
            gws.fill(0.0);
            self.full_clear = false;
        } else {
            walk_l0_cols(&self.prev_active, out0, |o, c| gws[o * in0 + c] = 0.0);
        }
        let gt = self.grad_t.as_slice();
        walk_l0_cols_transposing(&self.active, out0, |o, c| {
            gws[o * in0 + c] = gt[c * out0 + o]
        });
    }
}

/// The distinct column indices of a batch, ascending, into `out`:
/// `O(nnz + in/64)` through a bitmap that is left all-clear again.
fn collect_cols(indices: &[u32], mask: &mut [u64], out: &mut Vec<u32>) {
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

/// Loss + exact gradient for a sparse batch.
///
/// Produces the same gradient as densifying `x` and calling
/// [`crate::loss_and_gradient`], at `O(nnz)` cost in the input layer. Thin
/// allocating wrapper over
/// [`Workspace::loss_and_gradient_into`](crate::Workspace::loss_and_gradient_into).
pub fn loss_and_gradient_sparse(
    model: &Model,
    x: &CsrMatrix,
    targets: Targets<'_>,
    parallel: bool,
) -> (f32, Gradient) {
    let mut ws = Workspace::new(model.spec());
    let (l, g) = ws.loss_and_gradient_into(model, x.view(), targets, parallel);
    (l, g.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::loss_and_gradient;
    use crate::init::InitScheme;
    use crate::spec::MlpSpec;

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
    /// produce the exact gradient a fresh workspace would: the scatter
    /// re-zeroes the previously-active columns, so no stale values leak.
    #[test]
    fn reused_workspace_rezeroes_previous_active_columns() {
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
        // densely), then sparse again — the last call must fully re-zero.
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
