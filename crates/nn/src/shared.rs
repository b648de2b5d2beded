//! The framework's *global model*: shared, concurrently-updated parameters.
//!
//! §V of the paper: CPU workers access the global model **by reference** and
//! update it Hogwild-style — concurrent, unsynchronized read–modify–write,
//! where lost updates are tolerated by design. GPU workers keep a **deep
//! copy** replica and merge it back asynchronously.
//!
//! In Rust, "benign" data races are still UB on plain `f32`, so the storage
//! is a flat `Vec<AtomicU32>` holding f32 bit patterns accessed with
//! `Relaxed` ordering, cut into **stripes**: one weight row or one bias
//! vector of a layer. The updates and reads:
//!
//! - [`SharedModel::apply_racy`] — load/compute/store per element.
//!   Concurrent writers can overwrite each other, which is *exactly* the
//!   Hogwild semantics the paper relies on (conflicts happen, convergence
//!   survives). Lanes never look at who owns a stripe.
//! - [`SharedModel::merge`] / [`SharedModel::merge_gradient`] — the same
//!   load/add/store, by a merger that *owns* the stripe it writes. **Exact:
//!   merger ↔ merger** — mergers exclude each other per stripe, so
//!   concurrent merges lose nothing. **Hogwild: lane ↔ anything** — a racy
//!   lane's plain store could always overwrite a merged add (also while
//!   that add was a CAS), so lane-vs-merge conflicts were already inside
//!   the Hogwild envelope in one direction and now are in both.
//! - [`SharedModel::apply_gradient_atomic`] — per-element CAS loop; no
//!   update is ever lost. The exact reference of the tests, and the way to
//!   study lost updates (the paper's β is the "surviving fraction").
//! - [`SharedModel::snapshot_into`] — every stripe, what a worker's step
//!   on a dense batch reads ([`SupportRead`](crate::SupportRead)); and
//!   [`SharedModel::read_tail`], every stripe from layer 0's bias on. Plain
//!   `Relaxed` loads, racing lanes and mergers like any reader: each value
//!   read is one its parameter held, a stripe may mix values from before
//!   and after a concurrent write.
//! - [`SharedModel::read_l0_tile`] — layer 0 read where it lives, a block
//!   of rows at a time, with the same loads and the same guarantee. A CSR
//!   step ([`CsrStep`](crate::CsrStep)) reads its batch's support this
//!   way, one block before the next, beside its tail read, and so does an
//!   eval of its fixed batch (the same step, forward only). Neither copies
//!   a model-sized or support-sized layer 0.
//! - [`SharedModel::apply_l0_tile`] / [`SharedModel::merge_l0_tile`] — a
//!   CSR step's write of one block of layer-0 gradient rows: `apply_racy`'s
//!   load/subtract/store and `merge_gradient`'s stripe-owning add, row `i`
//!   of the block to the `i`-th row it names. They count no update: the
//!   step's write of its tail through `apply_racy` / `merge_gradient`
//!   (layer-0 rows `Some(&[])`) counts its one.

use crate::init::InitScheme;
use crate::model::{tail_stripes, Model, Stripe};
use crate::scan::{LayerScan, MergeScan};
use crate::spec::MlpSpec;
use crate::sync::{yield_now, AtomicBool, AtomicU32, AtomicU64, Ordering};

// Ordering discipline for this file: every access to `params` and to the
// counters is `Relaxed`. The parameters are pure numeric data — no worker
// ever uses a parameter value to decide whether *other* memory is
// initialized, so no access needs to publish or acquire anything. Lost
// updates (racy path) and interleaved snapshots are tolerated by the Hogwild
// design; what Rust requires is only that the accesses be atomic, not that
// they be ordered. The one edge is on the stripe words: a merger takes a
// stripe with an `Acquire` swap and gives it up with a `Release` store, so
// the next owner's loads come after the previous owner's stores and its adds
// build on them — that edge is all of "mergers lose nothing", and why the
// parameters themselves still need no ordering. The loom suite
// (`tests/loom_shared.rs`) checks that under all interleavings, and that the
// racy path stays within its feasible envelope, and that a CSR step's block
// and tail reads and an eval's tile read beside both see only values the
// parameters held.

/// Weights drawn per chunk by [`SharedModel::drawn`]: 16 KB of stack.
const DRAW_CHUNK: usize = 4096;

/// Shared parameter store for concurrent SGD.
pub struct SharedModel {
    spec: MlpSpec,
    params: Vec<AtomicU32>,
    /// Where each stripe from layer 0's bias on lies in `params`, in flat
    /// order — stripe `input_dim + i` is entry `i`; read-only. Layer 0's
    /// rows, one per input feature, are placed by `stripe_at` alone.
    stripes: Vec<Stripe>,
    /// Floats per layer-0 row: stripe `c < input_dim` lies at
    /// `c·l0_width..(c + 1)·l0_width`, so no traversal looks it up.
    l0_width: usize,
    /// One ownership word per stripe (set: a merger is adding into it),
    /// touched by mergers only. Kept apart from `stripes` so the lanes,
    /// which read the geometry, share no cache line with the swaps.
    owned: Vec<AtomicBool>,
    /// Total number of model updates applied (any worker).
    updates: AtomicU64,
}

impl SharedModel {
    /// Copy a model into shared storage — a resumed run's restored model,
    /// or any model a test builds.
    pub fn new(model: &Model) -> Self {
        // Filled layer by layer from the model itself: no flat temporary.
        let mut params = Vec::with_capacity(model.num_params());
        for layer in model.layers() {
            let values = layer.w.as_slice().iter().chain(&layer.b);
            params.extend(values.map(|v| AtomicU32::new(v.to_bits())));
        }
        Self::with_params(model.spec().clone(), params)
    }

    /// The model `Model::new(spec, scheme, seed)` draws, drawn straight into
    /// shared storage, bit for bit: no intermediate [`Model`], so a fresh
    /// run allocates and first-touches one model-sized buffer, not two.
    ///
    /// # Panics
    /// Panics if `spec` or `scheme` is invalid.
    pub fn drawn(spec: MlpSpec, scheme: InitScheme, seed: u64) -> Self {
        Self::drawn_in_chunks(spec, scheme, seed, DRAW_CHUNK)
    }

    /// [`drawn`](Self::drawn), `chunk` weights at a time through a stack
    /// buffer: the stream draws any range of a layer with the same bits, so
    /// the chunk size (odd ones too, which start mid-pair) changes nothing.
    fn drawn_in_chunks(spec: MlpSpec, scheme: InitScheme, seed: u64, chunk: usize) -> Self {
        spec.validate().expect("invalid MlpSpec");
        scheme.validate().expect("invalid InitScheme");
        assert!(chunk > 0 && chunk <= DRAW_CHUNK, "draw chunk {chunk}");
        let mut buf = [0.0f32; DRAW_CHUNK];
        let mut params = Vec::with_capacity(spec.num_params());
        for (l, &dims) in spec.layer_dims().iter().enumerate() {
            let weights = dims.0 * dims.1;
            for first in (0..weights).step_by(chunk) {
                let w = &mut buf[..chunk.min(weights - first)];
                scheme.fill_layer(seed, l, dims, first, w);
                params.extend(w.iter().map(|v| AtomicU32::new(v.to_bits())));
            }
            // Biases start at zero.
            params.extend((0..dims.1).map(|_| AtomicU32::new(0)));
        }
        Self::with_params(spec, params)
    }

    /// Shared storage over `params`, `spec`'s flat layout.
    fn with_params(spec: MlpSpec, params: Vec<AtomicU32>) -> Self {
        assert_eq!(params.len(), spec.num_params(), "flat parameter length");
        let stripes = tail_stripes(&spec);
        SharedModel {
            l0_width: spec.layer_dims()[0].1,
            owned: (0..spec.input_dim + stripes.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
            spec,
            params,
            stripes,
            updates: AtomicU64::new(0),
        }
    }

    /// Network specification of the stored model.
    pub fn spec(&self) -> &MlpSpec {
        &self.spec
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Total updates applied so far.
    pub fn update_count(&self) -> u64 {
        // Relaxed: monitoring counter (see module ordering note above).
        self.updates.load(Ordering::Relaxed)
    }

    /// A [`snapshot`](Self::snapshot), flattened.
    pub fn read_flat(&self) -> Vec<f32> {
        self.snapshot().flatten()
    }

    /// Deep-copy snapshot as a [`Model`] — what a GPU worker transfers to
    /// device memory, and what the coordinator evaluates the loss on.
    pub fn snapshot(&self) -> Model {
        let mut model = Model::zeros_like(&self.spec);
        self.snapshot_into(&mut model);
        model
    }

    /// Read the current parameters into an existing model, reusing its
    /// buffers — the allocation-free counterpart of
    /// [`snapshot`](Self::snapshot). A model whose layer 0 holds no row
    /// (its buffer lent to a gradient) gets every row back first.
    pub fn snapshot_into(&self, model: &mut Model) {
        self.check_spec(model, "snapshot");
        model.fit_l0(self.spec.input_dim);
        self.read_stripes(0, model);
    }

    /// Read every stripe from layer 0's bias on into `local`, leaving its
    /// layer-0 weights as they are (it may hold none): the tail a CSR step
    /// ([`CsrStep`](crate::CsrStep)) or a sparse eval reads beside layer
    /// 0's rows, which they read a block at a time
    /// ([`read_l0_tile`](Self::read_l0_tile)).
    pub fn read_tail(&self, local: &mut Model) {
        self.check_spec(local, "snapshot");
        self.read_stripes(self.spec.input_dim, local);
    }

    /// Read stripes `first..` into `local`, which holds each of them.
    // audit: no_alloc,no_panic,no_block
    fn read_stripes(&self, first: usize, local: &mut Model) {
        for s in first..self.n_stripes() {
            let st = self.stripe_at(s);
            let params = self.params_of(&st);
            // Relaxed: the read may interleave with lanes and mergers by
            // design — each element is read tear-free, a stripe may mix
            // values from before and after a concurrent add, and no value
            // read guards other memory (module ordering note).
            for (v, p) in local.stripe_mut(&st).iter_mut().zip(params) {
                *v = f32::from_bits(p.load(Ordering::Relaxed));
            }
        }
    }

    /// The layer-0 weight rows of input features `rows` into `tile`, row
    /// `i` (`tile`'s `i`-th run of layer-0 width) taking feature `rows[i]`'s
    /// — what a CSR step and an eval read of layer 0, a block at a time
    /// ([`CsrStep`](crate::CsrStep)).
    /// `rows` must lie below the input width.
    // audit: no_alloc,no_panic,no_block
    pub fn read_l0_tile(&self, rows: &[u32], tile: &mut [f32]) {
        for (&c, out) in rows.iter().zip(tile.chunks_exact_mut(self.l0_width)) {
            debug_assert!((c as usize) < self.spec.input_dim, "row {c}");
            let st = self.stripe_at(c as usize);
            // Relaxed: the step or eval reads the model the workers are
            // training, as `read_stripes` does — each element tear-free, a
            // row may mix values from before and after a concurrent add,
            // and no value read guards other memory (module ordering note).
            for (v, p) in out.iter_mut().zip(self.params_of(&st)) {
                *v = f32::from_bits(p.load(Ordering::Relaxed));
            }
        }
    }

    /// Overwrite the stored parameters from a model (merging a deep replica
    /// back; concurrent readers may observe a mix of old and new values).
    pub fn store(&self, model: &Model) {
        self.check_spec(model, "replica");
        // Relaxed: overwrite is allowed to interleave with concurrent
        // readers/writers (see module ordering note).
        for s in self.visited(None) {
            let st = self.stripe_at(s);
            for (p, v) in self.params_of(&st).iter().zip(model.stripe(&st)) {
                p.store(v.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// The stripes a gradient whose layer-0 weights are zero outside the
    /// rows `l0_cols` can be non-zero in, in visiting order: those rows
    /// (stripe `c` is input feature `c`'s row; a row past the input width
    /// names no weights and is skipped), then every stripe from layer 0's
    /// bias on. `None`: every stripe, in flat order.
    fn visited<'a>(&'a self, l0_cols: Option<&'a [u32]>) -> impl Iterator<Item = usize> + 'a {
        let n_in = self.spec.input_dim;
        let (rows, tail): (&[u32], usize) = match l0_cols {
            Some(rows) => (rows, n_in),
            None => (&[], 0),
        };
        let rows = rows.iter().map(|&c| c as usize).filter(move |&c| {
            debug_assert!(c < n_in, "layer-0 row {c} past input width {n_in}");
            c < n_in
        });
        rows.chain(tail..self.n_stripes())
    }

    /// How many stripes the model has: one per input feature, then
    /// `stripes`.
    fn n_stripes(&self) -> usize {
        self.spec.input_dim + self.stripes.len()
    }

    /// The parameters of stripe `st` (one `stripe_at` gave).
    #[inline]
    fn params_of(&self, st: &Stripe) -> &[AtomicU32] {
        &self.params[st.start..st.end]
    }

    /// Panic unless `model` has this model's spec: the guard of every
    /// access that walks a caller's model by this model's stripes.
    fn check_spec(&self, model: &Model, what: &str) {
        assert_eq!(model.spec(), &self.spec, "{what} spec mismatch");
    }

    /// Where stripe `s` lies: a layer-0 row from `l0_width`, without a
    /// lookup; any other from `stripes`.
    #[inline]
    fn stripe_at(&self, s: usize) -> Stripe {
        let n_in = self.spec.input_dim;
        if s < n_in {
            let (start, end) = (s * self.l0_width, (s + 1) * self.l0_width);
            Stripe {
                layer: 0,
                row_at: Some(start),
                start,
                end,
            }
        } else {
            self.stripes[s - n_in]
        }
    }

    /// Hogwild update: `w ← w − eta·g` with racy per-element load/store.
    ///
    /// Lost updates under contention are expected and tolerated — this is
    /// the paper's CPU-worker update path.
    ///
    /// With `l0_cols` — the input features a sparse batch touched — only
    /// those layer-0 weight rows are visited, each one contiguous stripe
    /// (any order is correct and gives the same result;
    /// [`Workspace::active_cols`](crate::Workspace::active_cols) yields them
    /// ascending; duplicates must not appear); biases and all later layers
    /// are applied densely. Caller contract: `grad`'s layer-0 weights are
    /// **zero outside `l0_cols`**, so skipping the other rows changes
    /// nothing — it only skips `w ← w − eta·0` writes, which for
    /// bag-of-words inputs is almost all of layer 0.
    // audit: no_alloc,no_panic,no_block
    pub fn apply_racy(&self, grad: &Model, eta: f32, l0_cols: Option<&[u32]>) {
        self.check_spec(grad, "gradient");
        for s in self.visited(l0_cols) {
            let st = self.stripe_at(s);
            racy_sub(self.params_of(&st), grad.stripe(&st), eta);
        }
        self.count_update();
    }

    /// [`apply_racy`](Self::apply_racy) of one block of layer-0 gradient
    /// rows: `tile`'s `i`-th run of layer-0 width is feature `rows[i]`'s
    /// gradient row (a CSR step's block, [`CsrStep`](crate::CsrStep)).
    /// Counts no update. `rows` must lie below the input width.
    // audit: no_alloc,no_panic,no_block
    pub fn apply_l0_tile(&self, rows: &[u32], tile: &[f32], eta: f32) {
        for (&c, g) in rows.iter().zip(tile.chunks_exact(self.l0_width)) {
            let st = self.stripe_at(c as usize);
            racy_sub(self.params_of(&st), g, eta);
        }
    }

    /// One update more on the monitoring counter.
    fn count_update(&self) {
        // Relaxed: monitoring counter (module ordering note).
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// [`apply_racy`](Self::apply_racy), dense (kept: the frozen
    /// `benchmark/` calls it).
    pub fn apply_gradient_racy(&self, grad: &Model, eta: f32) {
        self.apply_racy(grad, eta, None)
    }

    /// [`apply_racy`](Self::apply_racy) over `l0_cols` (kept: the frozen
    /// `benchmark/` calls it).
    pub fn apply_gradient_racy_cols(&self, grad: &Model, eta: f32, l0_cols: &[u32]) {
        self.apply_racy(grad, eta, Some(l0_cols))
    }

    /// Lock-free exact update: per-element CAS loop; never loses a write.
    // audit: no_alloc,no_panic,no_block
    pub fn apply_gradient_atomic(&self, grad: &Model, eta: f32) {
        self.check_spec(grad, "gradient");
        for s in self.visited(None) {
            let st = self.stripe_at(s);
            for (p, g) in self.params_of(&st).iter().zip(grad.stripe(&st)) {
                // Relaxed CAS loop: atomicity of each compare_exchange is
                // what guarantees no lost update; ordering is irrelevant
                // because the value is pure data (module ordering note).
                let mut cur = p.load(Ordering::Relaxed);
                loop {
                    let next = (f32::from_bits(cur) - eta * g).to_bits();
                    match p.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                        Ok(_) => break,
                        Err(actual) => cur = actual,
                    }
                }
            }
        }
        self.count_update();
    }

    /// Merge a deep replica by adding its delta from `base`, scaled:
    /// `w ← w + scale·(replica − base)` element-wise — how a GPU worker
    /// folds its locally-trained replica into the global model without
    /// overwriting the model with its stale copy. `scale < 1` implements
    /// the paper's §VI-B staleness compensation — discounting a delta whose
    /// base snapshot has since gone stale.
    ///
    /// **Exact: merger ↔ merger. Hogwild: lane ↔ anything.** The merger
    /// owns a stripe while it adds into it with the lanes' own `Relaxed`
    /// load/add/store: concurrent merges each land in full, whereas a lane
    /// writing the same parameter in between may overwrite the add or be
    /// overwritten by it. A stripe found owned is not waited for: it is
    /// recorded (up to 64 at a time, on the stack, no allocation), the merge
    /// carries on, and once 64 wait or the walk is over revisits each —
    /// exactly once — and only then yields until its owner lets go. A
    /// merger holds one stripe at a time and never waits while holding it,
    /// so mergers cannot deadlock. A stripe whose deltas are all zero is
    /// not written. Returns the number of stripes found owned (merger ↔
    /// merger contention; 0 uncontended), which feeds `MergeRetries`.
    ///
    /// With `scan`, the training-health scan is fused into the merge loop:
    /// each scaled delta is accumulated (sum of squares of the finite part
    /// plus a NaN/±Inf count) into the caller-owned per-layer `scan` as it
    /// is added — zero extra passes over the parameters and zero
    /// allocations. A non-finite delta is still merged (the poisoned run
    /// is the watchdog's problem to abort, not the merge's to mask).
    ///
    /// With `l0_cols`, as in [`apply_racy`](Self::apply_racy), only those
    /// layer-0 weight rows are visited; the others are neither read,
    /// observed, nor written. Caller contract: the delta is zero in every
    /// other layer-0 row. Then parameters *and* scan come out as from the
    /// dense merge, to whose scan a zero delta adds nothing and which never
    /// writes an all-zero row — bit for bit, `f64` sums included, when
    /// `l0_cols` ascends and no stripe is held back (the dense merge's own
    /// stripe order); any other order can only move those sums in their
    /// last place.
    // audit: no_alloc,no_panic,no_block
    pub fn merge(
        &self,
        base: &Model,
        replica: &Model,
        scale: f32,
        l0_cols: Option<&[u32]>,
        scan: Option<&mut MergeScan>,
    ) -> u64 {
        self.merge_models([base, replica], scale, |[b, r]| r - b, l0_cols, scan)
    }

    /// [`merge`](Self::merge) of a replica one gradient step from its base,
    /// never materialized: `w ← w − step·grad`, the delta `merge` recovers
    /// from `replica = base − step·grad`. The merge twin of
    /// [`apply_racy`](Self::apply_racy) — same gradient, same `l0_cols`
    /// contract, differing only in the stripe guard and the scan.
    // audit: no_alloc,no_panic,no_block
    pub fn merge_gradient(
        &self,
        grad: &Model,
        step: f32,
        l0_cols: Option<&[u32]>,
        scan: Option<&mut MergeScan>,
    ) -> u64 {
        self.merge_models([grad], step, |[g]| -g, l0_cols, scan)
    }

    /// [`merge_gradient`](Self::merge_gradient) of one block of layer-0
    /// gradient rows, as [`apply_l0_tile`](Self::apply_l0_tile) takes it:
    /// the same stripe-owning add, scanned into `scan` row by row in the
    /// order of `rows`. Counts no update. Returns the stripes found owned.
    // audit: no_alloc,no_panic,no_block
    pub fn merge_l0_tile(
        &self,
        rows: &[u32],
        tile: &[f32],
        step: f32,
        scan: Option<&mut MergeScan>,
    ) -> u64 {
        let rows = rows.iter().map(|&c| c as usize);
        let visits = rows.zip(tile.chunks_exact(self.l0_width).map(|g| [g]));
        self.merge_core(visits, step, |[g]| -g, scan)
    }

    /// [`merge`](Self::merge), dense and unscanned (kept: the frozen
    /// `benchmark/` calls it).
    pub fn merge_delta_scaled_observed(&self, base: &Model, replica: &Model, scale: f32) -> u64 {
        self.merge(base, replica, scale, None, None)
    }

    /// [`merge`](Self::merge) over `l0_cols`, scanned (kept: the frozen
    /// `benchmark/` calls it).
    pub fn merge_delta_sparse_scanned(
        &self,
        base: &Model,
        replica: &Model,
        scale: f32,
        l0_cols: &[u32],
        scan: &mut MergeScan,
    ) -> u64 {
        self.merge(base, replica, scale, Some(l0_cols), Some(scan))
    }

    /// Merge stripe `s` of [`merge_core`](Self::merge_core) if it can be
    /// owned right now; `false`: it is taken. A method inlined into both
    /// call sites rather than a closure over the merge's state: merging the
    /// gradient of a 512-row real-sim batch (15 056 layer-0 rows) took
    /// 1.9–2.0 ms through such a closure and 1.4–1.6 ms through this
    /// method (2-vCPU AVX2 Xeon).
    #[inline(always)]
    fn try_merge_stripe<const N: usize>(
        &self,
        (s, src): Visit<'_, N>,
        scale: f32,
        diff: &impl Fn([f32; N]) -> f32,
        scan: Option<&mut MergeScan>,
    ) -> bool {
        // Acquire: pairs with the previous owner's `Release`, so the loads
        // below see its adds. `hetero_unguarded_merge` is the seeded bug of
        // `scripts/check_mutation.sh`: no exclusion.
        let word = &self.owned[s];
        if !cfg!(hetero_unguarded_merge) && word.swap(true, Ordering::Acquire) {
            return false;
        }
        let st = self.stripe_at(s);
        let params = self.params_of(&st);
        // Each source cut to the stripe's length. The loops zip over the
        // first source and index the others, so with one source — the
        // gradient of `merge_gradient`, the GPU step's merge — no element is
        // bounds-checked and the loop unrolls like `apply_racy`'s (indexing
        // it too kept a check per element and took ~1.4× the time).
        let vals = src.map(|v| &v[..params.len()]);
        let at = |i: usize, x0: f32| std::array::from_fn(|k| if k == 0 { x0 } else { vals[k][i] });
        let delta = |i: usize, x0: f32| scale * diff(at(i, x0));
        let written = params.iter().zip(vals[0]).enumerate();
        // A stripe whose deltas are all zero — a layer-0 row outside the
        // batch's support, on a dense merge — is neither written nor
        // observed (a zero adds nothing to a scan); any other is written
        // whole, with no per-element branch.
        let nonzero = vals[0]
            .iter()
            .enumerate()
            .any(|(i, &x0)| delta(i, x0) != 0.0);
        if nonzero {
            match scan {
                // Stripe-local, so the scan's sums stay in registers.
                Some(scan) => {
                    let mut seen = LayerScan::default();
                    for (i, (p, &x0)) in written {
                        seen.observe(delta(i, x0));
                        add_delta(p, delta(i, x0));
                    }
                    scan.add(st.layer, seen);
                }
                None => written.for_each(|(i, (p, &x0))| add_delta(p, delta(i, x0))),
            }
        }
        // Release: publishes the adds above to the stripe's next owner.
        word.store(false, Ordering::Release);
        true
    }

    /// [`merge_core`](Self::merge_core) of whole-shape models over the
    /// stripes `visited(l0_cols)` names; one update.
    fn merge_models<const N: usize>(
        &self,
        src: [&Model; N],
        scale: f32,
        diff: impl Fn([f32; N]) -> f32,
        l0_cols: Option<&[u32]>,
        scan: Option<&mut MergeScan>,
    ) -> u64 {
        for model in src {
            self.check_spec(model, "merge source");
        }
        let stripe = |s: usize| (s, src.map(|m| m.stripe(&self.stripe_at(s))));
        let found_owned = self.merge_core(self.visited(l0_cols).map(stripe), scale, diff, scan);
        self.count_update();
        found_owned
    }

    /// The one merge body: adds `scale·diff(src values)` into each stripe
    /// `visits` names as it owns it; `scan` observes every delta visited (a
    /// zero adds nothing).
    fn merge_core<'v, const N: usize>(
        &self,
        mut visits: impl Iterator<Item = Visit<'v, N>>,
        scale: f32,
        diff: impl Fn([f32; N]) -> f32,
        mut scan: Option<&mut MergeScan>,
    ) -> u64 {
        assert!(scale.is_finite() && scale >= 0.0, "bad merge scale");
        // A stripe found owned is recorded — only then — and revisited once
        // `HELD_BACK` of them wait or the walk is over.
        let mut held_back: [Visit<'v, N>; HELD_BACK] = [(0, [&[]; N]); HELD_BACK];
        let (mut waiting, mut found_owned) = (0, 0);
        loop {
            let next = visits.next();
            if let Some(v) = next {
                if self.try_merge_stripe(v, scale, &diff, scan.as_deref_mut()) {
                    continue;
                }
                held_back[waiting] = v;
                waiting += 1;
                found_owned += 1;
                if waiting < HELD_BACK {
                    continue;
                }
            }
            for &v in &held_back[..waiting] {
                while !self.try_merge_stripe(v, scale, &diff, scan.as_deref_mut()) {
                    yield_now();
                }
            }
            waiting = 0;
            if next.is_none() {
                break;
            }
        }
        found_owned
    }
}

/// Stripes a merge holds back before it revisits them: a `Visit` array on
/// the stack, no allocation.
const HELD_BACK: usize = 64;

/// A merger's add of `delta` into a parameter of a stripe it owns.
#[inline]
fn add_delta(p: &AtomicU32, delta: f32) {
    // Relaxed load/add/store, the lanes' own: no other *merger* can be
    // between the two (stripe owned), and a lane that is races this one
    // like another lane would.
    let sum = f32::from_bits(p.load(Ordering::Relaxed)) + delta;
    p.store(sum.to_bits(), Ordering::Relaxed);
}

/// A Hogwild lane's write of gradient values `g` into the parameters
/// `params`: `w ← w − eta·g` per element.
#[inline]
fn racy_sub(params: &[AtomicU32], g: &[f32], eta: f32) {
    for (p, g) in params.iter().zip(g) {
        // Relaxed load/store pair: the non-atomic read-modify-write is the
        // point — concurrent writers may overwrite each other (Hogwild
        // lost-update semantics; module ordering note above).
        let next = f32::from_bits(p.load(Ordering::Relaxed)) - eta * g;
        p.store(next.to_bits(), Ordering::Relaxed);
    }
}

/// One stripe a merge visits: its index and the values of each source
/// there.
type Visit<'v, const N: usize> = (usize, [&'v [f32]; N]);

impl std::fmt::Debug for SharedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedModel")
            .field("params", &self.params.len())
            .field("updates", &self.update_count())
            .finish()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::init::InitScheme;
    use crate::spec::MlpSpec;
    use std::sync::Arc;

    fn setup() -> (Model, SharedModel) {
        let m = Model::new(MlpSpec::tiny(3, 2), InitScheme::Xavier, 9);
        let s = SharedModel::new(&m);
        (m, s)
    }

    /// Every scheme, drawn in place, is the model `Model::new` draws, bit
    /// for bit: at real-sim width (20 958 → 64 → 2), and on layers of odd
    /// sizes in chunks of odd sizes, so that chunks start mid-pair.
    #[test]
    fn a_drawn_model_is_the_seeded_model() {
        let schemes = [
            InitScheme::PaperNormal,
            InitScheme::Xavier,
            InitScheme::XavierSigmoid,
            InitScheme::Normal(0.3),
            InitScheme::Constant(0.25),
        ];
        let bits = |m: &Model| m.flatten().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let real_sim = MlpSpec {
            hidden: vec![64],
            ..MlpSpec::tiny(20_958, 2)
        };
        let odd = MlpSpec {
            hidden: vec![7, 5],
            ..MlpSpec::tiny(13, 3)
        };
        for scheme in schemes {
            let seeded = Model::new(real_sim.clone(), scheme, 17);
            let drawn = SharedModel::drawn(real_sim.clone(), scheme, 17);
            assert!(bits(&drawn.snapshot()) == bits(&seeded), "{scheme:?}");
            let seeded = Model::new(odd.clone(), scheme, 4);
            for chunk in [1, 3, 7, 64, DRAW_CHUNK] {
                let drawn = SharedModel::drawn_in_chunks(odd.clone(), scheme, 4, chunk);
                let case = format!("{scheme:?}, chunk {chunk}");
                assert!(bits(&drawn.snapshot()) == bits(&seeded), "{case}");
            }
        }
    }

    /// Layer 0's rows are placed by arithmetic: the stripe table holds
    /// only what follows them, and every stripe is where the model's flat
    /// layout puts it.
    #[test]
    fn the_stripe_table_holds_no_layer0_row() {
        let spec = MlpSpec {
            hidden: vec![4, 3],
            ..MlpSpec::tiny(50, 2)
        };
        let s = SharedModel::drawn(spec.clone(), InitScheme::Xavier, 1);
        // Layer 0's bias, then 3 rows + bias of layer 1, 2 rows + bias.
        assert_eq!(s.stripes.len(), 1 + 4 + 3);
        assert_eq!(s.owned.len(), s.n_stripes());
        let model = s.snapshot();
        let flat = model.flatten();
        let mut at = 0;
        for i in s.visited(None) {
            let st = s.stripe_at(i);
            assert_eq!(st.start, at, "stripe {i}");
            assert_eq!(model.stripe(&st), &flat[st.start..st.end], "stripe {i}");
            at = st.end;
        }
        assert_eq!(at, s.num_params());
    }

    #[test]
    fn snapshot_roundtrips_initial_model() {
        let (m, s) = setup();
        assert_eq!(s.snapshot(), m);
        assert_eq!(s.num_params(), m.num_params());
    }

    #[test]
    fn snapshot_into_matches_snapshot() {
        let (m, s) = setup();
        let mut grad = Model::zeros_like(m.spec());
        grad.layers_mut()[0].w.set(0, 1, 2.0);
        grad.layers_mut()[1].b[1] = -1.0;
        s.apply_racy(&grad, 0.1, None);
        let mut out = Model::zeros_like(m.spec());
        s.snapshot_into(&mut out);
        assert_eq!(out, s.snapshot());
    }

    #[test]
    fn racy_update_applied_when_uncontended() {
        let (m, s) = setup();
        let mut grad = Model::zeros_like(m.spec());
        grad.layers_mut()[0].w.set(0, 0, 1.0);
        s.apply_racy(&grad, 0.1, None);
        let snap = s.snapshot();
        let expect = m.layers()[0].w.get(0, 0) - 0.1;
        assert!((snap.layers()[0].w.get(0, 0) - expect).abs() < 1e-6);
        assert_eq!(s.update_count(), 1);
    }

    #[test]
    fn atomic_update_equals_racy_when_serial() {
        let (m, s1) = setup();
        let s2 = SharedModel::new(&m);
        let mut grad = Model::zeros_like(m.spec());
        grad.layers_mut()[1].b[0] = 2.0;
        s1.apply_racy(&grad, 0.5, None);
        s2.apply_gradient_atomic(&grad, 0.5);
        assert_eq!(s1.read_flat(), s2.read_flat());
    }

    #[test]
    fn observed_merge_reports_zero_retries_uncontended() {
        let (m, s) = setup();
        let base = m.clone();
        let mut replica = m.clone();
        let old = replica.layers()[0].w.get(0, 1);
        replica.layers_mut()[0].w.set(0, 1, old + 1.0);
        let retries = s.merge(&base, &replica, 1.0, None, None);
        assert_eq!(retries, 0);
        assert!((s.snapshot().layers()[0].w.get(0, 1) - (old + 1.0)).abs() < 1e-6);
    }

    /// A gradient that is zero outside the given layer-0 rows must apply
    /// identically through the dense racy path and the row-sparse one.
    fn sparse_grad(m: &Model, cols: &[u32]) -> Model {
        let mut grad = Model::zeros_like(m.spec());
        {
            let w = &mut grad.layers_mut()[0].w;
            for (i, &c) in cols.iter().enumerate() {
                for (o, g) in w.row_mut(c as usize).iter_mut().enumerate() {
                    *g = 0.5 + (i + o) as f32;
                }
            }
        }
        grad.layers_mut()[0].b[1] = -0.25;
        grad.layers_mut()[1].w.set(0, 0, 2.0);
        grad.layers_mut()[1].b[0] = 1.0;
        grad
    }

    #[test]
    fn racy_cols_matches_racy_on_sparse_support() {
        let (m, s1) = setup();
        let s2 = SharedModel::new(&m);
        let cols = [0u32, 2];
        let grad = sparse_grad(&m, &cols);
        s1.apply_racy(&grad, 0.3, None);
        s2.apply_racy(&grad, 0.3, Some(&cols));
        assert_eq!(s1.read_flat(), s2.read_flat());
        assert_eq!(s2.update_count(), 1);
    }

    #[test]
    fn sparse_merge_matches_dense_merge_and_scan() {
        let (m, s1) = setup();
        let s2 = SharedModel::new(&m);
        let base = m.clone();
        let mut replica = m.clone();
        // Perturb exactly two layer-0 rows plus dense-tail params.
        let cols = [0u32, 2];
        for &c in &cols {
            let row = replica.layers_mut()[0].w.row_mut(c as usize);
            for (o, w) in row.iter_mut().enumerate() {
                *w += 0.1 * (o + 1) as f32;
            }
        }
        replica.layers_mut()[0].b[0] += 0.5;
        let old11 = replica.layers()[1].w.get(1, 1);
        replica.layers_mut()[1].w.set(1, 1, old11 - 0.75);
        let mut scan1 = crate::scan::MergeScan::new(m.spec().layer_dims().len());
        let mut scan2 = crate::scan::MergeScan::new(m.spec().layer_dims().len());
        s1.merge(&base, &replica, 0.8, None, Some(&mut scan1));
        s2.merge(&base, &replica, 0.8, Some(&cols), Some(&mut scan2));
        assert_eq!(s1.read_flat(), s2.read_flat());
        for (l1, l2) in scan1.layers().iter().zip(scan2.layers()) {
            assert_eq!(l1.sumsq.to_bits(), l2.sumsq.to_bits());
            assert_eq!(l1.nonfinite, l2.nonfinite);
        }
        assert_eq!(s2.update_count(), 1);
    }

    #[test]
    fn gradient_merge_is_the_replica_merge_of_one_step() {
        let (m, by_replica) = setup();
        let (by_grad, by_cas) = (SharedModel::new(&m), SharedModel::new(&m));
        let cols = [2u32, 0];
        let grad = sparse_grad(&m, &cols);
        let mut replica = m.clone();
        replica.apply_gradient_sparse(&grad, 0.25, &cols);
        let layers = m.spec().layer_dims().len();
        let (mut scan_r, mut scan_g) = (MergeScan::new(layers), MergeScan::new(layers));
        by_replica.merge(&m, &replica, 1.0, Some(&cols), Some(&mut scan_r));
        by_grad.merge_gradient(&grad, 0.25, Some(&cols), Some(&mut scan_g));
        by_cas.apply_gradient_atomic(&grad, 0.25);
        // The gradient source is the CAS reference bit for bit; the replica
        // source went through one more rounding (`base − η·g`, then `− base`).
        assert_eq!(by_grad.read_flat(), by_cas.read_flat());
        for (a, b) in by_grad.read_flat().iter().zip(by_replica.read_flat()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        for (g, r) in scan_g.layers().iter().zip(scan_r.layers()) {
            assert!(
                (g.sumsq - r.sumsq).abs() <= 1e-5 * g.sumsq,
                "{g:?} vs {r:?}"
            );
            assert_eq!((g.nonfinite, r.nonfinite), (0, 0));
        }
    }

    #[test]
    fn sparse_merge_with_empty_cols_touches_only_dense_tail() {
        let (m, s) = setup();
        let base = m.clone();
        let mut replica = m.clone();
        replica.layers_mut()[1].b[1] += 2.0;
        let mut scan = crate::scan::MergeScan::new(m.spec().layer_dims().len());
        let retries = s.merge(&base, &replica, 1.0, Some(&[]), Some(&mut scan));
        assert_eq!(retries, 0);
        let snap = s.snapshot();
        assert_eq!(snap.layers()[0].w, m.layers()[0].w);
        assert!((snap.layers()[1].b[1] - (m.layers()[1].b[1] + 2.0)).abs() < 1e-6);
    }

    #[test]
    fn store_overwrites() {
        let (m, s) = setup();
        let other = Model::new(m.spec().clone(), InitScheme::Constant(0.25), 0);
        s.store(&other);
        assert_eq!(s.snapshot(), other);
    }

    #[test]
    fn merge_delta_adds_difference() {
        let (m, s) = setup();
        // replica = base + 0.5 on one weight
        let base = m.clone();
        let mut replica = m.clone();
        let old = replica.layers()[0].w.get(1, 1);
        replica.layers_mut()[0].w.set(1, 1, old + 0.5);
        s.merge(&base, &replica, 1.0, None, None);
        let snap = s.snapshot();
        assert!((snap.layers()[0].w.get(1, 1) - (old + 0.5)).abs() < 1e-6);
        // Other params untouched.
        assert_eq!(snap.layers()[1].w, m.layers()[1].w);
    }

    #[test]
    fn atomic_concurrent_updates_none_lost() {
        let (m, s) = setup();
        let s = Arc::new(s);
        let mut grad = Model::zeros_like(m.spec());
        grad.layers_mut()[0].w.set(0, 0, 1.0);
        let grad = Arc::new(grad);
        let threads = 8;
        let per = 500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let s = Arc::clone(&s);
                let g = Arc::clone(&grad);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        s.apply_gradient_atomic(&g, 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = m.layers()[0].w.get(0, 0) - (threads * per) as f32;
        let got = s.snapshot().layers()[0].w.get(0, 0);
        assert!(
            (got - expected).abs() < 1e-2,
            "atomic adds lost: {got} vs {expected}"
        );
        assert_eq!(s.update_count(), (threads * per) as u64);
    }

    #[test]
    fn racy_concurrent_updates_may_lose_but_stay_finite() {
        // Hogwild semantics: the final value lies between "all lost but one"
        // and "none lost"; it must never be corrupted.
        let (m, s) = setup();
        let s = Arc::new(s);
        let mut grad = Model::zeros_like(m.spec());
        grad.layers_mut()[0].w.set(0, 0, 1.0);
        let grad = Arc::new(grad);
        let threads = 4;
        let per = 1000i64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let s = Arc::clone(&s);
                let g = Arc::clone(&grad);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        s.apply_racy(&g, 1.0, None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let start = m.layers()[0].w.get(0, 0);
        let got = s.snapshot().layers()[0].w.get(0, 0);
        let applied = (start - got) as i64;
        assert!(
            applied >= 1 && applied <= threads as i64 * per,
            "applied {applied} outside feasible range"
        );
        assert!(got.is_finite());
    }
}
