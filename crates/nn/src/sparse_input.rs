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
//! non-zero. A full-width CSR gradient at a whole model
//! ([`Workspace::loss_and_gradient_into`]) keeps it in [`SparseScratch`],
//! so that appliers walk only those rows and the next CSR gradient
//! re-zeroes only them; no engine takes that path any more (the frozen
//! benchmark pins it).
//! [`CsrStep`] is the one layer-0 path of every engine's CSR batch (§V:
//! CPU workers use the global model by reference, GPU workers copy only
//! what they train on): it takes the same support before the step, cuts it
//! into blocks of [`L0_BLOCK_BYTES`] of layer-0 rows, and reads,
//! differentiates and writes layer 0 one block at a time through one
//! block-sized tile — it holds no copy of layer 0, not even of the
//! support's rows. It reads the global model or a whole one ([`Layer0`])
//! and writes either ([`L0Write`]): a threaded worker's step, the
//! simulator's, and, forward only, the evaluator's score of its fixed
//! batch.
//! [`SupportRead`] is a threaded worker's read of a dense batch, whose
//! support is every row: a full snapshot in one layer-0 buffer, which the
//! gradient takes over from the read once the forward is done
//! ([`Workspace::loss_and_gradient_at`]) and the next read takes back.
//! [`forward_sparse`] is a thin allocating wrapper for one-off calls.
//!
//! The layers after the first run the *same* code as for a dense batch, so
//! sparse/dense parity there holds by construction. The layer-0
//! kernels are linear mul+add in scalar element order on both dispatch
//! levels — the only divergence from the dense path is float summation
//! order over the input features.

use std::time::Instant;

use hetero_tensor::sparse::{self, ColumnCuts};
use hetero_tensor::{ops, CsrBatch, CsrMatrix, CsrView, Matrix};

use crate::backward::Gradient;
use crate::forward::ForwardPass;
use crate::model::Model;
use crate::scan::{LayerScan, MergeScan};
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

/// A worker's read of the global model for a dense batch, whose support is
/// every row: a full snapshot (§V: a GPU worker's deep copy). A CSR batch
/// is read a block of its support at a time instead ([`CsrStep`]).
///
/// Its layer-0 buffer is the only one a worker on a dense run holds. Layer
/// 0 has no input gradient, so the read's rows are dead once the forward
/// has run: [`Workspace::loss_and_gradient_at`] takes the buffer over as
/// the gradient's layer 0 and overwrites it with `Xᵀ·δ`, the apply or
/// merge consumes it, and the next read takes it back from the workspace
/// it is handed before filling it. Nothing is read at construction; a warm
/// read is allocation-free.
#[derive(Debug)]
pub struct SupportRead {
    local: Model,
}

impl SupportRead {
    /// An empty read for models of shape `spec`.
    pub fn new(spec: &MlpSpec) -> Self {
        SupportRead {
            local: Model::zeros_with_l0_rows(spec, 0),
        }
    }

    /// Read every row of `shared` into the layer-0 buffer taken back from
    /// `ws`: its gradient is consumed.
    // audit: no_alloc
    pub fn read_all(&mut self, ws: &mut Workspace, shared: &SharedModel) {
        self.local.take_l0(ws.grad_mut());
        shared.snapshot_into(&mut self.local);
    }

    /// Hand the read's layer-0 buffer to `grad` once the forward has run
    /// ([`Workspace::loss_and_gradient_at`]). The read is left holding no
    /// layer-0 row until the next read, so a second gradient at it fails
    /// the forward's width check.
    pub(crate) fn lend_l0(&mut self, grad: &mut Gradient) {
        grad.take_l0(&mut self.local);
    }

    /// The model read; after a gradient at it its layer 0 holds no row
    /// ([`Workspace::loss_and_gradient_at`]).
    pub fn model(&self) -> &Model {
        &self.local
    }
}

/// Bytes of layer-0 rows a [`CsrStep`] holds at once: 256 KiB — 1 024 rows
/// at width 64, all 300 of w8a's rows at width 192 — which leaves a 2 MB
/// L2 room for the step's activations while one block is read, scattered
/// and written.
pub const L0_BLOCK_BYTES: usize = 256 << 10;

/// Layer-0 rows in one [`L0_BLOCK_BYTES`] block at layer-0 width `out`.
fn block_rows(out: usize) -> usize {
    (L0_BLOCK_BYTES / (std::mem::size_of::<f32>() * out.max(1))).max(1)
}

/// Where a [`CsrStep`] reads the model from: a whole model — the
/// simulator's, or the one an evaluator scores — or the global one by
/// reference.
#[derive(Clone, Copy, Debug)]
pub enum Layer0<'a> {
    /// A model holding every layer-0 row (plain reads); it lends the step
    /// its own tail.
    Model(&'a Model),
    /// The global model ([`SharedModel::read_l0_tile`]'s `Relaxed` loads);
    /// the step reads its tail into its own.
    Shared(&'a SharedModel),
}

impl Layer0<'_> {
    /// The layer-0 rows of input features `rows` into `tile`, row `i`
    /// taking feature `rows[i]`'s.
    // audit: no_alloc
    fn read_tile(self, rows: &[u32], tile: &mut Matrix) {
        match self {
            Layer0::Model(m) => {
                let w = &m.layers()[0].w;
                for (&c, out) in rows
                    .iter()
                    .zip(tile.as_mut_slice().chunks_exact_mut(w.cols()))
                {
                    out.copy_from_slice(w.row(c as usize));
                }
            }
            Layer0::Shared(s) => s.read_l0_tile(rows, tile.as_mut_slice()),
        }
    }
}

/// Where a [`CsrStep`] writes its blocks of layer-0 gradient rows,
/// `w ← w − step·∇`.
#[derive(Debug)]
pub enum L0Write<'s> {
    /// A Hogwild lane's load/subtract/store into the global model
    /// ([`SharedModel::apply_l0_tile`]).
    Racy(&'s SharedModel),
    /// A stripe-owning merger's add into the global model
    /// ([`SharedModel::merge_l0_tile`]).
    Merge(&'s SharedModel),
    /// One `ops::axpy(-step, ..)` per row into a whole model (the
    /// simulator's): the arithmetic of [`Model::apply_gradient_sparse`].
    Model(&'s mut Model),
}

/// One step on a CSR batch that holds no copy of layer 0, read from either
/// kind of model and written to either ([`Layer0`], [`L0Write`]) — a
/// threaded worker's on the global model (§V: CPU workers use the global
/// model by reference, GPU workers copy only what they train on), the
/// simulator's from a snapshot into its live model, and, forward only, an
/// evaluator's:
///
/// - **Read** ([`read`](Self::read), the stage): the batch's *support* —
///   the input features it touches, ascending — with the batch's column
///   indices renumbered onto it (feature `support[i]` becomes column `i`),
///   cut into blocks of [`L0_BLOCK_BYTES`] of layer-0 rows
///   ([`ColumnCuts`]); and, from the global model, the tail, layer 0's bias
///   and every later layer ([`SharedModel::read_tail`]). A whole model
///   lends its own tail. A fixed batch (an evaluator's) is renumbered once
///   ([`renumber`](Self::renumber)).
/// - **Forward** ([`Workspace::loss_and_gradient_blocks`],
///   [`Workspace::forward_blocks`]): for each block, its rows copied from
///   the model into the one tile, then that block's entries added into the
///   pre-activations ([`sparse::spmm_block_into`]; the first block starts
///   them at the bias). Then the later layers, the loss, and the backward
///   down to layer 0's bias, into the workspace's gradient, whose layer 0
///   holds no row.
/// - **Layer 0's weight gradient** ([`write_l0`](Self::write_l0)): each
///   block's `∇W₀ = Xᵀ·δ₀` scattered into the zeroed tile and written back
///   at once ([`L0Write`]). The tail is written after it, as a gradient of
///   the stripes from layer 0's bias on.
///
/// Every product is added in the whole-batch kernels' order — ascending
/// feature per pre-activation row, ascending batch row per gradient row,
/// mul then add — so with no concurrent writer the loss and every
/// parameter written are bit-identical to the full-snapshot step
/// (snapshot, `loss_and_gradient_into`, `apply_racy` / `merge_gradient`
/// over the gradient's own rows, or `apply_gradient_sparse` on a whole
/// model), and a forward's activations to [`Workspace::forward_into`]'s. A
/// support of one block reduces to that step's sequence: copy,
/// `spmm_bias_into` with the bias, scatter, write. The scratch is sized by
/// the spec and the block, so a warm step is allocation-free.
#[derive(Debug)]
pub struct CsrStep {
    /// The last read's support, ascending.
    support: Vec<u32>,
    /// One bit per input feature, all clear between calls (`collect_rows`).
    mask: Vec<u64>,
    /// Input feature → its place in the support; meaningful on it only.
    slot: Vec<u32>,
    /// Layer-0 rows per block.
    per: usize,
    /// The last read batch's entries, by block.
    cuts: ColumnCuts,
    /// One block of layer-0 rows: weights in the forward, gradient rows in
    /// the backward.
    tile: Matrix,
    /// Layer 0's bias and every later layer, as read from the global
    /// model; layer 0 holds no weight row.
    tail: Model,
}

impl CsrStep {
    /// An empty step for models of shape `spec`.
    pub fn new(spec: &MlpSpec) -> Self {
        let (in_dim, out) = spec.layer_dims()[0];
        let per = block_rows(out);
        // One block's capacity up front, so the tile never grows past it.
        let mut tile = Matrix::zeros(per.min(in_dim), out);
        tile.resize(0, out);
        CsrStep {
            support: Vec::with_capacity(in_dim),
            mask: vec![0; in_dim.div_ceil(64)],
            slot: vec![0; in_dim],
            per,
            cuts: ColumnCuts::new(),
            tile,
            tail: Model::zeros_with_l0_rows(spec, 0),
        }
    }

    /// Read what the CSR `batch` needs of `from` before its forward:
    /// [`renumber`](Self::renumber) it, then read the tail (see the type
    /// docs).
    // audit: no_alloc
    pub fn read(&mut self, from: Layer0<'_>, batch: &mut CsrBatch) {
        self.renumber(batch);
        self.refresh_tail(from);
    }

    /// Take `batch`'s support, renumber its columns onto it and cut it into
    /// blocks: what a step reads first, and what an evaluator does once for
    /// its fixed batch.
    // audit: no_alloc
    pub fn renumber(&mut self, batch: &mut CsrBatch) {
        collect_rows(batch.view().indices(), &mut self.mask, &mut self.support);
        // A support of every feature numbers them as they are.
        if self.support.len() < batch.cols() {
            for (i, &c) in self.support.iter().enumerate() {
                self.slot[c as usize] = i as u32;
            }
            let slot = &self.slot;
            batch.renumber_cols(self.support.len(), |c| slot[c as usize]);
        }
        self.cuts.cut(batch.view(), self.per);
    }

    /// Read the tail of the global model; a whole model lends its own.
    /// `hetero_support_read_skips_tail` is the seeded bug of
    /// `scripts/check_mutation.sh`: no tail read.
    pub(crate) fn refresh_tail(&mut self, from: Layer0<'_>) {
        if let Layer0::Shared(shared) = from {
            if !cfg!(hetero_support_read_skips_tail) {
                shared.read_tail(&mut self.tail);
            }
        }
    }

    /// The input features of the last read's batch, ascending: column `i`
    /// of the renumbered batch is feature `support()[i]`.
    pub fn support(&self) -> &[u32] {
        &self.support
    }

    /// Layer 0's bias and every later layer as the last read of the global
    /// model took them.
    pub fn tail(&self) -> &Model {
        &self.tail
    }

    /// The tail a forward from `from` runs on: the whole model's own, or
    /// the one read of the global model.
    pub(crate) fn tail_of<'m>(&'m self, from: Layer0<'m>) -> &'m Model {
        match from {
            Layer0::Model(m) => m,
            Layer0::Shared(_) => &self.tail,
        }
    }

    /// Floats of layer-0 rows the step holds: its tile's capacity, at most
    /// one block.
    pub fn l0_capacity(&self) -> usize {
        self.tile.capacity()
    }

    /// Where block `b`'s features lie in the support.
    fn span(&self, b: usize) -> std::ops::Range<usize> {
        let s = b * self.per;
        s..self.support.len().min(s + self.per)
    }

    /// `z ← X·W₀ + b₀` for the read batch `x`, layer 0's rows read from
    /// `from` one block at a time into the tile.
    /// `hetero_l0_forward_skips_last` is the seeded bug of
    /// `scripts/check_mutation.sh`: a last partial block is never added.
    pub(crate) fn l0_forward(&mut self, from: Layer0<'_>, x: CsrView<'_>, z: &mut Matrix) {
        let bias = match from {
            Layer0::Model(m) => &m.layers()[0].b,
            Layer0::Shared(_) => &self.tail.layers()[0].b,
        };
        let blocks = self.cuts.blocks();
        for b in 0..blocks {
            let rows = &self.support[self.span(b)];
            if cfg!(hetero_l0_forward_skips_last) && b + 1 == blocks && rows.len() < self.per {
                continue;
            }
            fit_tile(&mut self.tile, rows.len(), bias.len());
            from.read_tile(rows, &mut self.tile);
            let bias = (b == 0).then_some(&bias[..]);
            sparse::spmm_block_into(self.cuts.block(x, b), &self.tile, bias, z);
        }
    }

    /// Layer 0's weight gradient of the read batch `x`, from the δ₀ the
    /// last [`Workspace::loss_and_gradient_blocks`] left in `ws`, a block
    /// at a time: each block's rows scattered into the zeroed tile, then
    /// written at once, `w ← w − step·∇` ([`L0Write`]). With a scan, a
    /// racy or whole-model write adds each block's sum of squares and
    /// non-finite count to its layer 0 (`ops::sumsq_nonfinite` over the
    /// block) before the block is written; a merge fuses the scan into its
    /// loop. Returns the seconds spent writing (the step's merge phase; the
    /// scatters are its compute) and the stripes a merge found owned.
    /// `hetero_l0_block_skips_last` is the seeded bug of
    /// `scripts/check_mutation.sh`: a last partial block is never written.
    // audit: no_alloc
    pub fn write_l0(
        &mut self,
        ws: &Workspace,
        x: CsrView<'_>,
        step: f32,
        to: &mut L0Write<'_>,
        mut scan: Option<&mut MergeScan>,
    ) -> (f64, u64) {
        let delta = ws.l0_delta();
        let blocks = self.cuts.blocks();
        let (mut secs, mut found_owned) = (0.0, 0);
        for b in 0..blocks {
            let rows = &self.support[self.span(b)];
            fit_tile(&mut self.tile, rows.len(), delta.cols());
            self.tile.as_mut_slice().fill(0.0);
            sparse::spmm_tn_block_scatter(self.cuts.block(x, b), delta, &mut self.tile);
            if let (L0Write::Racy(_) | L0Write::Model(_), Some(scan)) = (&to, &mut scan) {
                let (sumsq, nonfinite) = ops::sumsq_nonfinite(self.tile.as_slice());
                scan.add(0, LayerScan { sumsq, nonfinite });
            }
            if cfg!(hetero_l0_block_skips_last) && b + 1 == blocks && rows.len() < self.per {
                continue;
            }
            let (tile, at) = (&self.tile, Instant::now());
            found_owned += match to {
                L0Write::Racy(shared) => {
                    shared.apply_l0_tile(rows, tile.as_slice(), step);
                    0
                }
                L0Write::Merge(shared) => {
                    shared.merge_l0_tile(rows, tile.as_slice(), step, scan.as_deref_mut())
                }
                L0Write::Model(model) => {
                    let w = &mut model.layers_mut()[0].w;
                    for (i, &c) in rows.iter().enumerate() {
                        ops::axpy(-step, tile.row(i), w.row_mut(c as usize));
                    }
                    0
                }
            };
            secs += at.elapsed().as_secs_f64();
        }
        (secs, found_owned)
    }
}

/// Shape a [`CsrStep`]'s tile to one block of `rows` layer-0 rows of width
/// `out`, inside the one block's capacity it was built with.
fn fit_tile(tile: &mut Matrix, rows: usize, out: usize) {
    debug_assert!(rows * out <= tile.capacity(), "a block past the tile");
    tile.resize(rows, out);
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

/// A CSR step from either kind of model into either kind, and a forward-only
/// eval from either, against what each replaces, bit for bit.
///
/// [`CsrStep`] reads, differentiates and writes layer 0 one block of its
/// batch's support at a time. On the global model it replaces the
/// full-snapshot step: copy the whole model, take
/// [`Workspace::loss_and_gradient_into`] at it, and write the gradient over
/// its own rows ([`SharedModel::apply_racy`] /
/// [`SharedModel::merge_gradient`]). From a whole model into another it
/// replaces the simulator's sequence: the same gradient at the model read,
/// then [`Model::apply_gradient_sparse`] into the model written. Forward
/// only, from a model or the global one, it replaces the row form,
/// [`Workspace::forward_into`] at a whole model. All add every product in
/// the same order, so the loss, every parameter written, a merge's scan and
/// every activation must agree to the bit.
///
/// `scripts/check_mutation.sh` rebuilds this suite with `--cfg
/// hetero_l0_block_skips_last` (a last partial block is never written) and
/// with `--cfg hetero_l0_forward_skips_last` (a forward drops its last
/// partial block), and requires it to fail under each.
// The loom build swaps SharedModel's atomics for model-checked versions
// that require a loom context; these std tests are compiled out there.
#[cfg(all(test, not(feature = "loom")))]
mod csr_step {
    use hetero_tensor::simd::{host_levels, with_level};
    use hetero_tensor::{CsrBatch, CsrMatrix, Matrix};

    use super::{block_rows, CsrStep, L0Write, Layer0};
    use crate::{
        Activation, InitScheme, LossKind, MergeScan, MlpSpec, Model, SharedModel, Targets,
        Workspace,
    };

    /// A seeded LCG draw in `[-1, 1)`.
    fn values(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        }
    }

    /// A seeded LCG over `0..n`.
    fn picker(seed: u64, n: usize) -> impl FnMut() -> u32 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % n as u64) as u32
        }
    }

    /// `rows` CSR rows over `cols` features: row `r` stores the features
    /// `row(r)` returns (sorted and deduplicated here), with seeded values.
    fn csr(rows: usize, cols: usize, mut row: impl FnMut(usize) -> Vec<u32>) -> CsrMatrix {
        let mut value = values(0x2545_f491_4f6c_dd1d ^ (rows * cols) as u64);
        let entries = (0..rows).map(|r| {
            let mut cs = row(r);
            cs.sort_unstable();
            cs.dedup();
            cs.into_iter().map(|c| (c, value())).collect::<Vec<_>>()
        });
        CsrMatrix::from_row_entries(cols, entries.collect::<Vec<_>>())
    }

    /// `rows` rows over `cols` features whose support is the last `k`
    /// features exactly: row `r` stores feature `c` of them unless
    /// `(c + r) % 3 == 0`.
    fn batch(rows: usize, cols: usize, k: usize) -> CsrMatrix {
        csr(rows, cols, |r| {
            let stored = (cols - k..cols).filter(|c| (c + r) % 3 != 0);
            stored.map(|c| c as u32).collect()
        })
    }

    fn spec(input_dim: usize, hidden: Vec<usize>, classes: usize, loss: LossKind) -> MlpSpec {
        MlpSpec {
            input_dim,
            hidden,
            classes,
            activation: Activation::Sigmoid,
            loss,
        }
    }

    /// Supports of 1, `per − 1`, `per`, `per + 1` and `3·per + 5` rows of
    /// layer 0, `per − 1` again (a warm step whose support shrank), and the
    /// first `per + 1` features (a support at the low end), at layer-0
    /// width `out`, with 0, 1 and 2 hidden layers, for softmax-CE and
    /// multi-label BCE, at every dispatch level the host has.
    fn every_block_edge_at_width(out: usize) {
        let per = block_rows(out);
        let features = 3 * per + 8;
        let mut batches: Vec<CsrMatrix> = [1, per - 1, per, per + 1, 3 * per + 5, per - 1]
            .map(|k| batch(6, features, k))
            .into();
        batches.push(csr(9, features, |r| {
            (0..per as u32 + 1)
                .filter(|c| !(c + r as u32).is_multiple_of(3))
                .collect()
        }));
        for (loss, hidden) in [LossKind::SoftmaxCrossEntropy, LossKind::MultiLabelBce]
            .into_iter()
            .flat_map(|l| [0, 1, 2].map(|h| (l, h)))
        {
            let hidden_dims = [vec![], vec![out], vec![out, 16]][hidden].clone();
            let classes = if hidden == 0 { out } else { 3 };
            let spec = spec(features, hidden_dims, classes, loss);
            let model = Model::new(spec, InitScheme::Xavier, out as u64);
            let case = format!("width {out}, {hidden} hidden, {loss:?}");
            every_level(&model, &batches, &case);
        }
    }

    #[test]
    fn a_csr_step_is_the_step_it_replaces_at_every_block_edge_at_width_24() {
        every_block_edge_at_width(24);
    }

    #[test]
    fn a_csr_step_is_the_step_it_replaces_at_every_block_edge_at_width_64() {
        every_block_edge_at_width(64);
    }

    #[test]
    fn a_csr_step_is_the_step_it_replaces_at_every_block_edge_at_width_192() {
        every_block_edge_at_width(192);
    }

    /// Real-sim's eval shape: 1 024 rows of ~51 entries over 20 958
    /// features, a 64-wide layer 0 — a support of thousands of rows whose
    /// last block is partial.
    #[test]
    fn a_real_sim_shaped_batch_steps_and_scores_bit_identically() {
        let features = 20_958;
        let mut pick = picker(7, features);
        let x = csr(2_048, features, |r| {
            (0..40 + r % 23).map(|_| pick()).collect()
        });
        let rows: Vec<usize> = (0..2_048).step_by(2).collect();
        let subset = x.select_rows(&rows);
        let spec = spec(features, vec![64], 2, LossKind::SoftmaxCrossEntropy);
        let model = Model::new(spec, InitScheme::Xavier, 3);
        let support = every_level(&model, &[subset], "real-sim")[0];
        assert!(support > 10_000, "support {support}");
        assert_ne!(support % block_rows(64), 0, "the last block is partial");
    }

    /// w8a's shape: 300 features and a batch whose support is every one of
    /// them, left unrenumbered.
    #[test]
    fn a_batch_whose_support_is_every_feature_steps_and_scores_bit_identically() {
        let features = 300;
        let mut pick = picker(11, features);
        let x = csr(500, features, |r| {
            let mut cs: Vec<u32> = (0..12).map(|_| pick()).collect();
            cs.push((r % features) as u32);
            cs
        });
        let spec = spec(features, vec![100], 2, LossKind::SoftmaxCrossEntropy);
        let model = Model::new(spec, InitScheme::PaperNormal, 5);
        assert_eq!(every_level(&model, &[x], "every feature"), [300]);
    }

    /// A row with no entry is its bias alone, in every form.
    #[test]
    fn a_batch_with_an_empty_row_steps_and_scores_bit_identically() {
        let x = csr(6, 40, |r| match r {
            2 => vec![],
            _ => vec![r as u32, (r * 7 + 3) as u32 % 40, 39],
        });
        let spec = spec(40, vec![8], 2, LossKind::SoftmaxCrossEntropy);
        let model = Model::new(spec, InitScheme::Xavier, 2);
        let batches = [x.select_rows(&[0, 2, 3, 5]), x.select_rows(&[2])];
        assert_eq!(every_level(&model, &batches, "empty row"), [6, 0]);
    }

    /// [`scores`] and [`steps`] of `batches` at `model` at every dispatch
    /// level the host has; each batch's support size.
    fn every_level(model: &Model, batches: &[CsrMatrix], case: &str) -> Vec<usize> {
        let block = block_rows(model.spec().layer_dims()[0].1) * model.spec().layer_dims()[0].1;
        let mut supports = Vec::new();
        for level in host_levels() {
            with_level(level, || {
                let case = format!("{case}, {level:?}");
                supports = scores(model, batches, block, &case);
                for to in [To::Racy, To::Merge, To::Model] {
                    steps(model, batches, to, block, &case);
                }
            })
        }
        supports
    }

    /// Batch `x`'s targets for `spec`: a class per row, or a multi-hot row.
    fn labels_of(spec: &MlpSpec, x: &CsrMatrix) -> (Vec<u32>, Matrix) {
        let n = x.rows();
        let classes = (0..n).map(|r| (r % spec.classes) as u32).collect();
        let hot = Matrix::from_fn(n, spec.classes, |r, c| ((r + c) % 4 == 0) as u8 as f32);
        (classes, hot)
    }

    fn as_targets<'a>(spec: &MlpSpec, (classes, hot): &'a (Vec<u32>, Matrix)) -> Targets<'a> {
        match spec.loss {
            LossKind::SoftmaxCrossEntropy => Targets::Classes(classes),
            LossKind::MultiLabelBce => Targets::MultiHot(hot),
        }
    }

    /// Forward only, each batch renumbered once on one warm step and
    /// workspace per source and scored twice (a warm call too), from
    /// `model` and from the global model with only its tail read: every
    /// activation and the loss are the row form's, and the step holds at
    /// most one block of layer-0 rows. Returns each batch's support size.
    fn scores(model: &Model, batches: &[CsrMatrix], block: usize, case: &str) -> Vec<usize> {
        let spec = model.spec();
        let shared = SharedModel::new(model);
        let mut supports = Vec::new();
        for (name, from) in [
            ("model", Layer0::Model(model)),
            ("shared", Layer0::Shared(&shared)),
        ] {
            let (mut at, mut ws) = (CsrStep::new(spec), Workspace::new(spec));
            let (mut ws_rows, mut staged) = (Workspace::new(spec), CsrBatch::new());
            supports.clear();
            for (i, x) in batches.iter().enumerate() {
                let labels = labels_of(spec, x);
                let targets = as_targets(spec, &labels);
                x.slice_rows_into(0, x.rows(), &mut staged);
                at.renumber(&mut staged);
                supports.push(at.support().len());
                let row_form = ws_rows.forward_into(model, x.view(), false);
                let expect = crate::loss(row_form.probs(), targets, spec.loss).to_bits();
                for call in 0..2 {
                    let pass = ws.forward_blocks(&mut at, from, staged.view());
                    let case = format!("{case}: {name} eval, batch {i}, call {call}");
                    for (l, (a, b)) in pass
                        .activations
                        .iter()
                        .zip(&row_form.activations)
                        .enumerate()
                    {
                        assert_eq!(a.shape(), b.shape(), "{case}: layer {l} shape");
                        let same = a
                            .as_slice()
                            .iter()
                            .zip(b.as_slice())
                            .all(|(p, q)| p.to_bits() == q.to_bits());
                        assert!(same, "{case}: layer {l} differs");
                    }
                    let got = crate::loss(pass.probs(), targets, spec.loss).to_bits();
                    assert_eq!(got, expect, "{case}: loss");
                }
                assert!(at.l0_capacity() <= block, "{case}: {name} tile");
                assert_eq!(at.tail().layers()[0].w.rows(), 0, "{case}: tail rows");
            }
        }
        supports
    }

    /// Where a step under test writes.
    #[derive(Clone, Copy, Debug)]
    enum To {
        /// The global model, racy.
        Racy,
        /// The global model, merged and scanned.
        Merge,
        /// A whole model, read from another and scanned: the simulator's.
        Model,
    }

    /// One step per batch on one warm [`CsrStep`] and workspace, against
    /// the step it replaces on a second copy of the model: the loss, every
    /// parameter written and a merge's scan are that step's, bit for bit;
    /// a scan of a whole-model write has its non-finite counts and, to
    /// rounding, its sums (the block's sums are added a block at a time);
    /// the step holds at most one block of layer-0 rows and its gradient
    /// none.
    fn steps(model: &Model, batches: &[CsrMatrix], to: To, block: usize, case: &str) {
        let spec = model.spec();
        let (on_blocks, reference) = (SharedModel::new(model), SharedModel::new(model));
        let (mut into, mut into_ref, mut base) = (model.clone(), model.clone(), model.clone());
        let (mut at, mut ws) = (CsrStep::new(spec), Workspace::new(spec));
        let (mut full, mut ws_full) = (Model::zeros_like(spec), Workspace::new(spec));
        let (mut staged, mut whole) = (CsrBatch::new(), CsrBatch::new());
        let layers = spec.num_layers();
        let (mut scan, mut scan_ref) = (MergeScan::new(layers), MergeScan::new(layers));
        let bits = |m: &[f32]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let eta = 0.5;
        for (i, x) in batches.iter().enumerate() {
            let case = format!("{case}, {to:?}, step {i}");
            let labels = labels_of(spec, x);
            let targets = as_targets(spec, &labels);
            x.slice_rows_into(0, x.rows(), &mut staged);
            x.slice_rows_into(0, x.rows(), &mut whole);
            scan.reset();
            scan_ref.reset();
            let from = match to {
                To::Model => Layer0::Model(&base),
                To::Racy | To::Merge => Layer0::Shared(&on_blocks),
            };
            at.read(from, &mut staged);
            let l = ws.loss_and_gradient_blocks(&mut at, from, staged.view(), targets);
            let (mut write, scanned) = match to {
                To::Racy => (L0Write::Racy(&on_blocks), None),
                To::Merge => (L0Write::Merge(&on_blocks), Some(&mut scan)),
                To::Model => (L0Write::Model(&mut into), Some(&mut scan)),
            };
            at.write_l0(&ws, staged.view(), eta, &mut write, scanned);
            // The step it replaces.
            let read = match to {
                To::Model => &base,
                To::Racy | To::Merge => {
                    reference.snapshot_into(&mut full);
                    &full
                }
            };
            let l_ref = ws_full
                .loss_and_gradient_into(read, whole.view(), targets, false)
                .0;
            assert_eq!(l.to_bits(), l_ref.to_bits(), "{case}: loss");
            let (g, support) = (ws_full.grad(), ws_full.active_cols());
            assert_eq!(Some(at.support()), support, "{case}: support");
            match to {
                To::Racy => {
                    on_blocks.apply_racy(ws.grad(), eta, Some(&[]));
                    reference.apply_racy(g, eta, support);
                }
                To::Merge => {
                    on_blocks.merge_gradient(ws.grad(), eta, Some(&[]), Some(&mut scan));
                    reference.merge_gradient(g, eta, support, Some(&mut scan_ref));
                    assert_eq!(scan, scan_ref, "{case}: scan");
                }
                To::Model => {
                    crate::scan_model(ws.grad(), &mut scan);
                    into.apply_tail(ws.grad(), eta);
                    crate::scan_model(g, &mut scan_ref);
                    into_ref.apply_gradient_sparse(g, eta, support.unwrap());
                    for (a, b) in scan.layers().iter().zip(scan_ref.layers()) {
                        assert_eq!(a.nonfinite, b.nonfinite, "{case}: scan");
                        let tol = 1e-9 * b.sumsq.max(1.0);
                        assert!((a.sumsq - b.sumsq).abs() <= tol, "{case}: scan {a:?} {b:?}");
                    }
                }
            }
            let (got, want) = match to {
                To::Model => (into.flatten(), into_ref.flatten()),
                To::Racy | To::Merge => (on_blocks.read_flat(), reference.read_flat()),
            };
            assert!(bits(&got) == bits(&want), "{case}: parameters");
            assert_eq!(on_blocks.update_count(), reference.update_count(), "{case}");
            base.copy_from(&into);
            assert!(
                at.l0_capacity() <= block,
                "{case}: {} floats held",
                at.l0_capacity()
            );
            assert_eq!(
                ws.grad().layers()[0].w.capacity(),
                0,
                "{case}: gradient rows"
            );
        }
    }
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
        assert!(ws.active_cols().is_some());
        ws.loss_and_gradient_into(&model, &dense, Targets::Classes(&labels), false);
        assert!(ws.active_cols().is_none(), "a dense gradient");
        assert!(ws.sparse_active_cols().is_empty());
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

    /// A gradient that takes the dense read's layer 0 over is the
    /// two-buffer gradient at the read, bit for bit — loss and every
    /// gradient value — and so is the model each one's apply leaves, over
    /// batches on one handoff workspace, at every dispatch level the host
    /// has. The read keeps no layer-0 storage after a handoff.
    #[test]
    fn a_gradient_at_the_read_is_the_two_buffer_gradient() {
        use hetero_tensor::simd::{host_levels, with_level};

        let spec = MlpSpec::tiny(40, 2);
        let model = Model::new(spec.clone(), InitScheme::Xavier, 21);
        let batches = [sparse_batch(7, 40, 19), sparse_batch(3, 40, 4)];
        for level in host_levels() {
            with_level(level, || {
                let (one, two) = (SharedModel::new(&model), SharedModel::new(&model));
                let (mut at, mut read_two) = (SupportRead::new(&spec), SupportRead::new(&spec));
                let (mut ws_at, mut ws) = (Workspace::new(&spec), Workspace::new(&spec));
                // The two-buffer read's own: `ws` keeps its gradient.
                let mut ws_read_two = Workspace::new(&spec);
                for (i, x) in batches.iter().chain(&batches).enumerate() {
                    let labels: Vec<u32> = (0..x.rows()).map(|i| (i % 2) as u32).collect();
                    let targets = Targets::Classes(&labels);
                    at.read_all(&mut ws_at, &one);
                    let (l_at, g_at) = ws_at.loss_and_gradient_at(&mut at, x, targets, false);
                    let (l_at, g_at) = (l_at, g_at.clone());
                    read_two.read_all(&mut ws_read_two, &two);
                    let (l, g) = ws.loss_and_gradient_into(read_two.model(), x, targets, false);
                    let case = format!("batch {i}, {level:?}");
                    assert_eq!(l_at.to_bits(), l.to_bits(), "{case}: loss");
                    let bits =
                        |m: &Model| m.flatten().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert!(bits(&g_at) == bits(g), "{case}: gradient");
                    assert_eq!(at.model().layers()[0].w.capacity(), 0, "{case}: read kept");
                    one.apply_racy(&g_at, 0.5, None);
                    two.apply_racy(g, 0.5, None);
                    assert!(one.read_flat() == two.read_flat(), "{case}: applied");
                }
            })
        }
    }

    /// The gradient leaves the read without layer-0 rows: a second gradient
    /// at one read, without a read between, fails the forward's width check
    /// rather than running the first gradient as weights.
    #[test]
    #[should_panic(expected = "layer-0 rows")]
    fn a_second_gradient_at_one_read_panics() {
        let spec = MlpSpec::tiny(40, 2);
        let shared = SharedModel::new(&Model::new(spec.clone(), InitScheme::Xavier, 3));
        let (mut at, mut ws) = (SupportRead::new(&spec), Workspace::new(&spec));
        let x = sparse_batch(6, 40, 8);
        at.read_all(&mut ws, &shared);
        let labels = [0u32, 1, 0, 1, 0, 1];
        let targets = Targets::Classes(&labels);
        ws.loss_and_gradient_at(&mut at, &x, targets, false);
        ws.loss_and_gradient_at(&mut at, &x, targets, false);
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
