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
//! reads, differentiates and writes layer 0 at the size of its batch — in
//! one buffer, which the gradient takes over from the read once the
//! forward is done ([`Workspace::loss_and_gradient_at`]) and the next read
//! takes back.
//! [`ColumnBatch`] is the evaluator's fixed batch stored by feature, whose
//! forward reads layer 0 where it lives, a tile of support rows at a time.
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

    /// Forget the support: the gradient's layer 0 was replaced by one that
    /// is zero already ([`crate::Workspace::loss_and_gradient_at`]).
    pub(crate) fn forget_rows(&mut self) {
        self.rows.clear();
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
///
/// That layer-0 buffer is the only one a worker holds. Layer 0 has no
/// input gradient, so the read's rows are dead once the forward has run:
/// [`Workspace::loss_and_gradient_at`] takes the buffer over as the
/// gradient's layer 0, zeroes its rows and scatters `Xᵀ·δ` into them, the
/// apply or merge consumes it, and the next read takes it back from the
/// workspace it is handed before filling it.
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
    /// batch's columns onto its support (see the type docs), into the
    /// layer-0 buffer taken back from `ws`: its gradient is consumed.
    // audit: no_alloc
    pub fn read_csr(&mut self, ws: &mut Workspace, shared: &SharedModel, batch: &mut CsrBatch) {
        self.reclaim(ws);
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

    /// Read every row of `shared`, the support of a dense batch, into the
    /// layer-0 buffer taken back from `ws`: its gradient is consumed.
    // audit: no_alloc
    pub fn read_all(&mut self, ws: &mut Workspace, shared: &SharedModel) {
        self.reclaim(ws);
        self.every_row = true;
        shared.read_rows(None, &mut self.local);
    }

    /// Take back the layer-0 buffer a gradient at the last read took over,
    /// so that this read fills it rather than growing one of its own.
    // audit: no_alloc
    fn reclaim(&mut self, ws: &mut Workspace) {
        self.local.take_l0(ws.grad_mut());
    }

    /// Hand the read's layer-0 buffer to `grad` once the forward has run
    /// ([`Workspace::loss_and_gradient_at`]). The read is left holding no
    /// layer-0 row until the next read, so a second gradient at it fails
    /// the forward's width check.
    pub(crate) fn lend_l0(&mut self, grad: &mut Gradient) {
        grad.take_l0(&mut self.local);
    }

    /// The model read, at the size of the last batch; after a gradient at
    /// it its layer 0 holds no row ([`Workspace::loss_and_gradient_at`]).
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
        shared.read_rows(Some(&[]), &mut tail);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::loss_and_gradient;
    use crate::forward::{Input, Targets};
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
            at.read_csr(&mut ws_read, &via_read, &mut batch);
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
        at.read_all(&mut ws_read, &via_read);
        assert_eq!((at.model(), at.support()), (&via_read.snapshot(), None));
    }

    /// A gradient that takes the read's layer 0 over is the two-buffer
    /// gradient at the read, bit for bit — loss and every gradient value —
    /// and so is the model each one's apply leaves, on one handoff
    /// workspace and read through CSR supports that grow, shrink, hold one
    /// row and hold every feature, a dense batch and CSR again, at every
    /// dispatch level the host has. The read keeps no layer-0 storage
    /// after a handoff.
    ///
    /// `scripts/check_mutation.sh` rebuilds this suite with `--cfg
    /// hetero_stale_l0_rows` (the rows taken over are not zeroed) and
    /// requires this test to fail.
    #[test]
    fn a_gradient_at_the_read_is_the_two_buffer_gradient() {
        use hetero_tensor::simd::{host_levels, with_level};

        let spec = MlpSpec::tiny(40, 2);
        let model = Model::new(spec.clone(), InitScheme::Xavier, 21);
        // `rows` rows, row `i` storing the features `keep(i, j)` picks.
        let batch = |rows: usize, keep: &dyn Fn(usize, usize) -> bool| {
            Matrix::from_fn(rows, 40, |i, j| {
                let v = ((i * 40 + j) as f32 * 0.37).sin();
                if keep(i, j) {
                    v
                } else {
                    0.0
                }
            })
        };
        let cases: [(&str, Matrix, bool); 7] = [
            (
                "5 features",
                batch(6, &|i, j| j < 5 && (i + j) % 2 == 0),
                true,
            ),
            (
                "grown to 20",
                batch(9, &|i, j| j < 20 && j % 2 == i % 2),
                true,
            ),
            (
                "shrunk to 3",
                batch(4, &|i, j| [7, 11, 30][i % 3] == j),
                true,
            ),
            ("one row", batch(5, &|_, j| j == 13), true),
            (
                "every feature",
                batch(8, &|i, j| (i * 40 + j) % 3 != 0),
                true,
            ),
            ("dense", sparse_batch(7, 40, 19), false),
            (
                "CSR after dense",
                batch(9, &|i, j| j < 20 && j % 2 == i % 2),
                true,
            ),
        ];
        // Read batch `x` — its CSR rows into `staged` when `csr` — of
        // `shared` into `at`, taking its buffer back from `ws`: the input a
        // gradient at the read takes.
        fn read<'b>(
            (shared, ws): (&SharedModel, &mut Workspace),
            at: &mut SupportRead,
            (x, all, csr): (&'b Matrix, &CsrMatrix, bool),
            staged: &'b mut CsrBatch,
        ) -> Input<'b> {
            if !csr {
                at.read_all(ws, shared);
                return Input::Dense(x);
            }
            all.slice_rows_into(0, x.rows(), staged);
            at.read_csr(ws, shared, staged);
            Input::Csr(staged.view())
        }
        for level in host_levels() {
            with_level(level, || {
                let (one, two) = (SharedModel::new(&model), SharedModel::new(&model));
                let (mut at, mut read_two) = (SupportRead::new(&spec), SupportRead::new(&spec));
                let (mut ws_at, mut ws) = (Workspace::new(&spec), Workspace::new(&spec));
                // The two-buffer read's own: `ws` keeps its gradient.
                let mut ws_read_two = Workspace::new(&spec);
                let (mut staged, mut staged_two) = (CsrBatch::new(), CsrBatch::new());
                for (name, x, csr) in &cases {
                    let labels: Vec<u32> = (0..x.rows()).map(|i| (i % 2) as u32).collect();
                    let targets = Targets::Classes(&labels);
                    let all = CsrMatrix::from_dense(x, 0.0);
                    let input = read((&one, &mut ws_at), &mut at, (x, &all, *csr), &mut staged);
                    let support = at.support().map(<[u32]>::to_vec);
                    let (l_at, g_at) = ws_at.loss_and_gradient_at(&mut at, input, targets, false);
                    let (l_at, g_at) = (l_at, g_at.clone());
                    let two_at = (&two, &mut ws_read_two);
                    let input = read(two_at, &mut read_two, (x, &all, *csr), &mut staged_two);
                    let (l, g) = ws.loss_and_gradient_into(read_two.model(), input, targets, false);
                    let case = format!("{name}, {level:?}");
                    assert_eq!(l_at.to_bits(), l.to_bits(), "{case}: loss");
                    for (a, b) in g_at.layers().iter().zip(g.layers()) {
                        assert_eq!(a.w.shape(), b.w.shape(), "{case}");
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert!(
                            bits(a.w.as_slice()) == bits(b.w.as_slice()),
                            "{case}: weights"
                        );
                        assert!(bits(&a.b) == bits(&b.b), "{case}: bias");
                    }
                    assert_eq!(at.model().layers()[0].w.capacity(), 0, "{case}: read kept");
                    one.apply_racy(&g_at, 0.5, support.as_deref());
                    two.apply_racy(g, 0.5, read_two.support());
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
        let mut batch = CsrBatch::new();
        CsrMatrix::from_dense(&sparse_batch(6, 40, 8), 0.0).slice_rows_into(0, 6, &mut batch);
        at.read_csr(&mut ws, &shared, &mut batch);
        let labels = [0u32, 1, 0, 1, 0, 1];
        let targets = Targets::Classes(&labels);
        ws.loss_and_gradient_at(&mut at, batch.view(), targets, false);
        ws.loss_and_gradient_at(&mut at, batch.view(), targets, false);
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
