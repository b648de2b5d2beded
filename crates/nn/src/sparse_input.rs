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
//! [`CsrStep`] is a threaded worker's step on the shared model (§V: CPU
//! workers use the global model by reference, GPU workers copy only what
//! they train on): it takes the same support before the step, cuts it into
//! blocks of [`L0_BLOCK_BYTES`] of layer-0 rows, and reads, differentiates
//! and writes layer 0 one block at a time through one block-sized tile —
//! it holds no copy of layer 0, not even of the support's rows.
//! [`SupportRead`] is the same worker's read of a dense batch, whose
//! support is every row: a full snapshot in one layer-0 buffer, which the
//! gradient takes over from the read once the forward is done
//! ([`Workspace::loss_and_gradient_at`]) and the next read takes back.
//! [`ColumnBatch`] is the evaluator's fixed batch stored by feature, whose
//! forward reads layer 0 where it lives, a tile of support rows at a time.
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

/// How a [`CsrStep`] writes its blocks of layer-0 gradient rows into the
/// shared model, `w ← w − step·∇`.
#[derive(Debug)]
pub enum L0Write<'s> {
    /// A Hogwild lane's load/subtract/store
    /// ([`SharedModel::apply_l0_tile`]); with a scan, each block's sum of
    /// squares and non-finite count are added to its layer 0
    /// (`ops::sumsq_nonfinite` over the block) before the block is written.
    Racy(Option<&'s mut MergeScan>),
    /// A stripe-owning merger's add ([`SharedModel::merge_l0_tile`]), the
    /// scan fused into its loop.
    Merge(Option<&'s mut MergeScan>),
}

/// A threaded worker's step on a CSR batch, taken on the shared model
/// itself (§V: CPU workers use the global model by reference, GPU workers
/// copy only what they train on), holding no copy of layer 0:
///
/// - **Read** ([`read`](Self::read), the stage): the batch's *support* —
///   the input features it touches, ascending — with the batch's column
///   indices renumbered onto it (feature `support[i]` becomes column `i`),
///   cut into blocks of [`L0_BLOCK_BYTES`] of layer-0 rows
///   ([`ColumnCuts`]); and the tail, layer 0's bias and every later layer
///   ([`SharedModel::read_tail`]).
/// - **Forward** ([`Workspace::loss_and_gradient_blocks`]): for each block,
///   its rows copied from the shared model into the one tile
///   ([`SharedModel::read_l0_tile`]), then that block's entries added into
///   the pre-activations ([`sparse::spmm_block_into`]; the first block
///   starts them at the bias). Then the later layers, the loss, and the
///   backward down to layer 0's bias, into the workspace's gradient, whose
///   layer 0 holds no row.
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
/// over the gradient's own rows). A support of one block reduces to that
/// step's sequence: copy, `spmm_bias_into` with the bias, scatter, write.
/// The scratch is sized by the spec and the block, so a warm step is
/// allocation-free.
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
    /// Layer 0's bias and every later layer, as read; layer 0 holds no
    /// weight row.
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

    /// Read what the CSR `batch` needs of `shared` before its forward:
    /// take its support, renumber the batch's columns onto it, cut it into
    /// blocks, and read the tail (see the type docs).
    /// `hetero_support_read_skips_tail` is the seeded bug of
    /// `scripts/check_mutation.sh`: no tail read.
    // audit: no_alloc
    pub fn read(&mut self, shared: &SharedModel, batch: &mut CsrBatch) {
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
        if !cfg!(hetero_support_read_skips_tail) {
            shared.read_tail(&mut self.tail);
        }
    }

    /// The input features of the last read's batch, ascending: column `i`
    /// of the renumbered batch is feature `support()[i]`.
    pub fn support(&self) -> &[u32] {
        &self.support
    }

    /// Layer 0's bias and every later layer as the last read took them.
    pub fn tail(&self) -> &Model {
        &self.tail
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
    /// `shared` one block at a time into the tile.
    pub(crate) fn l0_forward(&mut self, shared: &SharedModel, x: CsrView<'_>, z: &mut Matrix) {
        let out = self.tail.layers()[0].b.len();
        for b in 0..self.cuts.blocks() {
            let rows = &self.support[self.span(b)];
            fit_tile(&mut self.tile, rows.len(), out);
            shared.read_l0_tile(rows, self.tile.as_mut_slice());
            let bias = (b == 0).then_some(&self.tail.layers()[0].b[..]);
            sparse::spmm_block_into(self.cuts.block(x, b), &self.tile, bias, z);
        }
    }

    /// Layer 0's weight gradient of the read batch `x`, from the δ₀ the
    /// last [`Workspace::loss_and_gradient_blocks`] left in `ws`, a block
    /// at a time: each block's rows scattered into the zeroed tile, then
    /// written into `shared` at once, `w ← w − step·∇` ([`L0Write`]).
    /// Returns the seconds spent writing (the step's merge phase; the
    /// scatters are its compute) and the stripes a merge found owned.
    /// `hetero_l0_block_skips_last` is the seeded bug of
    /// `scripts/check_mutation.sh`: a last partial block is never written.
    // audit: no_alloc
    pub fn write_l0(
        &mut self,
        ws: &Workspace,
        shared: &SharedModel,
        x: CsrView<'_>,
        step: f32,
        mut to: L0Write<'_>,
    ) -> (f64, u64) {
        let delta = ws.l0_delta();
        let blocks = self.cuts.blocks();
        let (mut secs, mut found_owned) = (0.0, 0);
        for b in 0..blocks {
            let rows = &self.support[self.span(b)];
            fit_tile(&mut self.tile, rows.len(), delta.cols());
            self.tile.as_mut_slice().fill(0.0);
            sparse::spmm_tn_block_scatter(self.cuts.block(x, b), delta, &mut self.tile);
            if let L0Write::Racy(Some(scan)) = &mut to {
                let (sumsq, nonfinite) = ops::sumsq_nonfinite(self.tile.as_slice());
                scan.add(0, LayerScan { sumsq, nonfinite });
            }
            if cfg!(hetero_l0_block_skips_last) && b + 1 == blocks && rows.len() < self.per {
                continue;
            }
            let (tile, at) = (self.tile.as_slice(), Instant::now());
            found_owned += match &mut to {
                L0Write::Racy(_) => {
                    shared.apply_l0_tile(rows, tile, step);
                    0
                }
                L0Write::Merge(scan) => shared.merge_l0_tile(rows, tile, step, scan.as_deref_mut()),
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

/// Where a forward over a [`ColumnBatch`] reads layer 0's weight rows
/// from, a tile at a time: a whole model, or the shared one by reference.
#[derive(Clone, Copy, Debug)]
pub enum Layer0<'a> {
    /// A model holding every layer-0 row (plain reads).
    Model(&'a Model),
    /// The global model ([`SharedModel::read_l0_tile`]'s `Relaxed` loads).
    Shared(&'a SharedModel),
}

impl<'a> Layer0<'a> {
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

    pub(crate) fn spec(self) -> &'a MlpSpec {
        match self {
            Layer0::Model(m) => m.spec(),
            Layer0::Shared(s) => s.spec(),
        }
    }
}

/// Floats of layer-0 rows one tile of a [`ColumnBatch`] forward reads:
/// 4 KB, well inside L1 beside the pre-activation rows it adds into.
const TILE_FLOATS: usize = 1024;

/// Layer-0 rows per tile at layer-0 width `out`.
fn tile_rows(out: usize) -> usize {
    (TILE_FLOATS / out.max(1)).max(1)
}

/// A fixed CSR batch stored by input feature — the evaluator's, which is
/// scored on the same rows at every eval point. It holds the batch's
/// support (ascending) and, for each support feature, the (row, value)
/// entries that read it. Its layer-0 forward
/// ([`Workspace::forward_columns_into`]) reads the model's layer 0 where it
/// lives, a few KB of support rows at a time ([`tile_rows`]), and scatters
/// each tile into the pre-activations with the backward's mul-then-add
/// kernel ([`sparse::spmm_tn_scatter`]), after seeding them with the bias.
/// Each output row then receives its terms in ascending-feature order —
/// the order [`sparse::spmm_bias_into`] adds a CSR row's — so the forward
/// is bit-identical to the row form's, and no model-sized copy of layer 0
/// is made. Reading layer 0 per stored entry instead (a row per entry, by
/// reference) measured twice as slow as a full copy.
#[derive(Debug)]
pub struct ColumnBatch {
    /// Examples in the batch.
    rows: usize,
    /// Input features of the batch.
    cols: usize,
    /// The input features the batch stores an entry of, ascending.
    support: Vec<u32>,
    /// Row `i`: the entries of feature `support[i]` — the batch rows that
    /// store it (ascending) and their values.
    by_feature: CsrMatrix,
    /// One tile of layer-0 rows, reused across tiles and calls.
    tile: Matrix,
}

impl ColumnBatch {
    /// Rows `rows` of `x`, in that order, stored by feature.
    ///
    /// # Panics
    /// Panics if a row lies past `x`'s.
    pub fn new(x: CsrView<'_>, rows: &[usize]) -> Self {
        let mut count = vec![0usize; x.cols()];
        for &r in rows {
            for (c, _) in x.row_iter(r) {
                count[c] += 1;
            }
        }
        // `count[c]` becomes where feature `c`'s entries start.
        let mut support = Vec::new();
        let mut indptr = vec![0];
        let mut at = 0;
        for (c, n) in count.iter_mut().enumerate() {
            if *n > 0 {
                support.push(c as u32);
                (*n, at) = (at, at + *n);
                indptr.push(at);
            }
        }
        let (mut indices, mut values) = (vec![0u32; at], vec![0.0f32; at]);
        for (i, &r) in rows.iter().enumerate() {
            for (c, v) in x.row_iter(r) {
                let p = &mut count[c];
                (indices[*p], values[*p]) = (i as u32, v);
                *p += 1;
            }
        }
        ColumnBatch {
            rows: rows.len(),
            cols: x.cols(),
            support,
            by_feature: CsrMatrix::from_parts(rows.len(), indptr, indices, values),
            tile: Matrix::zeros(0, 0),
        }
    }

    /// Examples in the batch.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Input features of the batch.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// `z ← X·W₀ + bias`, `W₀` read from `l0` one tile of support rows at a
    /// time (see the type docs); `z` is reshaped to `rows × bias.len()`.
    // audit: no_alloc
    pub(crate) fn l0_into(&mut self, l0: Layer0<'_>, bias: &[f32], z: &mut Matrix) {
        let out = bias.len();
        z.resize(self.rows, out);
        for r in 0..self.rows {
            z.row_mut(r).copy_from_slice(bias);
        }
        let (n, per) = (self.support.len(), tile_rows(out));
        // `hetero_eval_skips_last_tile` is the seeded bug of
        // `scripts/check_mutation.sh`: a final partial tile is dropped.
        let end = if cfg!(hetero_eval_skips_last_tile) {
            n - n % per
        } else {
            n
        };
        let by_feature = self.by_feature.view();
        for s in (0..end).step_by(per) {
            let e = (s + per).min(n);
            self.tile.resize(e - s, out);
            l0.read_tile(&self.support[s..e], &mut self.tile);
            sparse::spmm_tn_scatter(by_feature.row_range(s, e), &self.tile, z);
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

/// The evaluator's column form against the row form, bit for bit.
///
/// A [`ColumnBatch`] forward reads layer 0 a tile of support rows at a time
/// and scatters each tile into the pre-activations; the row form
/// ([`Workspace::forward_into`] on the same rows in CSR) gathers each row's
/// entries from the whole layer. Both add a row's terms in ascending-feature
/// order with the same mul-then-add, so every activation — and the loss —
/// must agree to the bit, whether layer 0 is read from a [`Model`] or from
/// a [`SharedModel`], at every SIMD dispatch level the host has.
///
/// `scripts/check_mutation.sh` rebuilds this suite with `--cfg
/// hetero_eval_skips_last_tile` (the forward drops a final partial tile)
/// and requires it to fail.
// The loom build swaps SharedModel's atomics for model-checked versions
// that require a loom context; these std tests are compiled out there.
#[cfg(all(test, not(feature = "loom")))]
mod column_eval {
    use hetero_tensor::simd::{host_levels, with_level};
    use hetero_tensor::{CsrMatrix, Matrix};

    use super::{tile_rows, ColumnBatch, Layer0};
    use crate::{
        Activation, InitScheme, LossKind, MlpSpec, Model, SharedModel, Targets, Workspace,
    };

    fn spec(input_dim: usize, hidden: usize) -> MlpSpec {
        MlpSpec {
            input_dim,
            hidden: vec![hidden],
            classes: 2,
            activation: Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        }
    }

    /// `rows` CSR rows over `cols` features: row `r` stores the features
    /// `row(r)` returns (sorted and deduplicated here), with values off a
    /// seeded LCG.
    fn csr(rows: usize, cols: usize, mut row: impl FnMut(usize) -> Vec<u32>) -> CsrMatrix {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut value = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 0.9
        };
        let entries = (0..rows).map(|r| {
            let mut cs = row(r);
            cs.sort_unstable();
            cs.dedup();
            cs.into_iter().map(|c| (c, value())).collect::<Vec<_>>()
        });
        CsrMatrix::from_row_entries(cols, entries.collect::<Vec<_>>())
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

    /// Every activation of the eval subset `rows` of `x` at `model`, through
    /// the row form, the column form on the model, and the column form on the
    /// shared model with only its tail read — equal bit for bit at every
    /// dispatch level the host has, and so is the loss. Returns the subset's support size.
    fn assert_column_form_is_the_row_form(model: &Model, x: &CsrMatrix, rows: &[usize]) -> usize {
        let spec = model.spec();
        let shared = SharedModel::new(model);
        let mut tail = Model::zeros_with_l0_rows(spec, 0);
        shared.read_tail(&mut tail);
        assert_eq!(
            tail.layers()[0].w.rows(),
            0,
            "the tail holds no layer-0 row"
        );
        let labels: Vec<u32> = rows.iter().map(|&r| (r % 2) as u32).collect();
        let targets = Targets::Classes(&labels);
        let loss = |probs: &Matrix| crate::loss(probs, targets, spec.loss).to_bits();
        let mut cols = ColumnBatch::new(x.view(), rows);
        for level in host_levels() {
            with_level(level, || {
                let subset = x.select_rows(rows);
                let mut ws = Workspace::new(spec);
                let row_form = ws.forward_into(model, subset.view(), false).clone();
                let expect = loss(row_form.probs());
                for (name, l0, tail) in [
                    ("model", Layer0::Model(model), model),
                    ("shared", Layer0::Shared(&shared), &tail),
                ] {
                    // Twice on one batch and workspace: a warm call too.
                    let mut ws = Workspace::new(spec);
                    for call in 0..2 {
                        let pass = ws.forward_columns_into(l0, tail, &mut cols);
                        for (l, (a, b)) in pass
                            .activations
                            .iter()
                            .zip(&row_form.activations)
                            .enumerate()
                        {
                            assert_eq!(a.shape(), b.shape(), "{name} layer {l}");
                            let same = a
                                .as_slice()
                                .iter()
                                .zip(b.as_slice())
                                .all(|(p, q)| p.to_bits() == q.to_bits());
                            assert!(same, "{name}, {level:?}, call {call}: layer {l} differs");
                        }
                        assert_eq!(loss(pass.probs()), expect, "{name}, {level:?}: loss");
                    }
                }
            })
        }
        cols.support.len()
    }

    /// Real-sim's shape: 1 024 eval rows of ~51 entries over 20 958 features,
    /// a 64-wide layer 0 — a support of thousands of rows whose last tile is
    /// partial.
    #[test]
    fn a_real_sim_shaped_subset_scores_bit_identically() {
        let features = 20_958;
        let mut pick = picker(7, features);
        let x = csr(2_048, features, |r| {
            (0..40 + r % 23).map(|_| pick()).collect()
        });
        let rows: Vec<usize> = (0..2_048).step_by(2).collect();
        let model = Model::new(spec(features, 64), InitScheme::Xavier, 3);
        let support = assert_column_form_is_the_row_form(&model, &x, &rows);
        assert!(support > 10_000, "support {support}");
        assert_ne!(support % tile_rows(64), 0, "the last tile is partial");
    }

    /// w8a's shape: 300 features and a subset whose support is every one of
    /// them.
    #[test]
    fn a_subset_whose_support_is_every_feature_scores_bit_identically() {
        let features = 300;
        let mut pick = picker(11, features);
        let x = csr(500, features, |r| {
            let mut cs: Vec<u32> = (0..12).map(|_| pick()).collect();
            cs.push((r % features) as u32);
            cs
        });
        let rows: Vec<usize> = (0..500).collect();
        let model = Model::new(spec(features, 100), InitScheme::PaperNormal, 5);
        assert_eq!(assert_column_form_is_the_row_form(&model, &x, &rows), 300);
    }

    /// A row with no entry is its bias alone, in both forms.
    #[test]
    fn a_subset_with_an_empty_row_scores_bit_identically() {
        let x = csr(6, 40, |r| match r {
            2 => vec![],
            _ => vec![r as u32, (r * 7 + 3) as u32 % 40, 39],
        });
        let model = Model::new(spec(40, 8), InitScheme::Xavier, 2);
        assert_column_form_is_the_row_form(&model, &x, &[0, 2, 3, 5]);
        assert_column_form_is_the_row_form(&model, &x, &[2]);
    }

    /// Supports of one row, exactly one tile, and one tile and one row: the
    /// tile loop's edges. Each row stores a window of consecutive features, so
    /// the support is `0..k`.
    #[test]
    fn supports_at_the_tile_edges_score_bit_identically() {
        let per = tile_rows(64);
        for k in [1, per, per + 1] {
            let x = csr(9, 200, |r| {
                (0..k as u32)
                    .filter(|c| !(c + r as u32).is_multiple_of(3))
                    .collect()
            });
            let model = Model::new(spec(200, 64), InitScheme::Xavier, k as u64);
            let rows: Vec<usize> = (0..9).collect();
            assert_eq!(assert_column_form_is_the_row_form(&model, &x, &rows), k);
        }
    }
}

/// A CSR step on the shared model against the full-snapshot step, bit for
/// bit.
///
/// [`CsrStep`] reads, differentiates and writes layer 0 one block of its
/// batch's support at a time; the full-snapshot step copies the whole
/// model, takes [`Workspace::loss_and_gradient_into`] at it, and writes the
/// gradient over its own rows ([`SharedModel::apply_racy`] /
/// [`SharedModel::merge_gradient`]). Both add every product in the same
/// order, so the loss, every parameter written and a merge's scan must agree
/// to the bit.
///
/// `scripts/check_mutation.sh` rebuilds this suite with `--cfg
/// hetero_l0_block_skips_last` (a last partial block is never written) and
/// requires it to fail.
#[cfg(all(test, not(feature = "loom")))]
mod csr_step {
    use hetero_tensor::simd::{host_levels, with_level};
    use hetero_tensor::{CsrBatch, CsrMatrix, Matrix};

    use super::{block_rows, CsrStep, L0Write};
    use crate::{
        Activation, InitScheme, LossKind, MergeScan, MlpSpec, Model, SharedModel, Targets,
        Workspace,
    };

    /// `rows` rows over `cols` features whose support is the last `k`
    /// features exactly: row `r` stores feature `c` of them unless
    /// `(c + r) % 3 == 0`, with values off a seeded LCG.
    fn batch(rows: usize, cols: usize, k: usize) -> CsrMatrix {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ k as u64;
        let mut value = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        };
        let entries: Vec<Vec<(u32, f32)>> = (0..rows)
            .map(|r| {
                let stored = (cols - k..cols).filter(|c| (c + r) % 3 != 0);
                stored.map(|c| (c as u32, value())).collect()
            })
            .collect();
        CsrMatrix::from_row_entries(cols, entries)
    }

    /// Supports of 1, `per − 1`, `per`, `per + 1` and `3·per + 5` rows of
    /// layer 0, and `per − 1` again (a warm step whose support shrank), at
    /// layer-0 width `out`, with 0, 1 and 2 hidden layers, for softmax-CE
    /// and multi-label BCE, written racy and merged (scanned), at every
    /// dispatch level the host has: a CSR step leaves its shared model as
    /// the full-snapshot step leaves another, its loss is that step's and a
    /// merge's scan is that merge's, and it holds at most one block of
    /// layer-0 rows.
    fn every_block_edge_at_width(out: usize) {
        let per = block_rows(out);
        let sizes = [1, per - 1, per, per + 1, 3 * per + 5, per - 1];
        let features = 3 * per + 8;
        for (loss, hidden) in [LossKind::SoftmaxCrossEntropy, LossKind::MultiLabelBce]
            .into_iter()
            .flat_map(|l| [0, 1, 2].map(|h| (l, h)))
        {
            let spec = MlpSpec {
                input_dim: features,
                hidden: [vec![], vec![out], vec![out, 16]][hidden].clone(),
                classes: if hidden == 0 { out } else { 3 },
                activation: Activation::Sigmoid,
                loss,
            };
            let model = Model::new(spec.clone(), InitScheme::Xavier, out as u64);
            for level in host_levels() {
                with_level(level, || {
                    for merge in [false, true] {
                        let case = format!(
                            "width {out}, {hidden} hidden, {loss:?}, {level:?}, merge {merge}"
                        );
                        steps(&model, &sizes, merge, per * out, &case);
                    }
                })
            }
        }
    }

    #[test]
    fn a_csr_step_is_the_full_snapshot_step_at_every_block_edge_at_width_24() {
        every_block_edge_at_width(24);
    }

    #[test]
    fn a_csr_step_is_the_full_snapshot_step_at_every_block_edge_at_width_64() {
        every_block_edge_at_width(64);
    }

    #[test]
    fn a_csr_step_is_the_full_snapshot_step_at_every_block_edge_at_width_192() {
        every_block_edge_at_width(192);
    }

    /// One step per support size of `sizes`, on one warm [`CsrStep`] and
    /// workspace, against the full-snapshot step on a second shared model.
    fn steps(model: &Model, sizes: &[usize], merge: bool, block: usize, case: &str) {
        let spec = model.spec();
        let (on_blocks, reference) = (SharedModel::new(model), SharedModel::new(model));
        let (mut at, mut ws) = (CsrStep::new(spec), Workspace::new(spec));
        let (mut full, mut ws_full) = (Model::zeros_like(spec), Workspace::new(spec));
        let (mut staged, mut whole) = (CsrBatch::new(), CsrBatch::new());
        let layers = spec.num_layers();
        let (mut scan, mut scan_ref) = (MergeScan::new(layers), MergeScan::new(layers));
        let bits = |m: &SharedModel| {
            m.read_flat()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        for (i, &k) in sizes.iter().enumerate() {
            let case = format!("{case}, support {k} (step {i})");
            let x = batch(6, spec.input_dim, k);
            let classes: Vec<u32> = (0..6).map(|r| (r % spec.classes) as u32).collect();
            let hot = Matrix::from_fn(6, spec.classes, |r, c| ((r + c) % 4 == 0) as u8 as f32);
            let targets = match spec.loss {
                LossKind::SoftmaxCrossEntropy => Targets::Classes(&classes),
                LossKind::MultiLabelBce => Targets::MultiHot(&hot),
            };
            let eta = 0.5;
            x.slice_rows_into(0, 6, &mut staged);
            at.read(&on_blocks, &mut staged);
            let l = ws.loss_and_gradient_blocks(&mut at, &on_blocks, staged.view(), targets);
            scan.reset();
            scan_ref.reset();
            let to = match merge {
                true => L0Write::Merge(Some(&mut scan)),
                false => L0Write::Racy(None),
            };
            at.write_l0(&ws, &on_blocks, staged.view(), eta, to);
            // The full-snapshot step.
            x.slice_rows_into(0, 6, &mut whole);
            reference.snapshot_into(&mut full);
            let l_ref = ws_full
                .loss_and_gradient_into(&full, whole.view(), targets, false)
                .0;
            let g = ws_full.grad();
            assert_eq!(l.to_bits(), l_ref.to_bits(), "{case}: loss");
            assert_eq!(Some(at.support()), ws_full.active_cols(), "{case}: support");
            if merge {
                on_blocks.merge_gradient(ws.grad(), eta, Some(&[]), Some(&mut scan));
                reference.merge_gradient(g, eta, ws_full.active_cols(), Some(&mut scan_ref));
                assert_eq!(scan, scan_ref, "{case}: scan");
            } else {
                on_blocks.apply_racy(ws.grad(), eta, Some(&[]));
                reference.apply_racy(g, eta, ws_full.active_cols());
            }
            assert!(bits(&on_blocks) == bits(&reference), "{case}: parameters");
            assert_eq!(on_blocks.update_count(), reference.update_count(), "{case}");
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
