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
//! vector of a layer. Three update flavours are provided:
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

use crate::model::{Model, Stripe};
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
// racy path stays within its feasible envelope.

/// Shared parameter store for concurrent SGD.
pub struct SharedModel {
    spec: MlpSpec,
    params: Vec<AtomicU32>,
    /// Where each stripe lies in `params`, in flat order; read-only.
    stripes: Vec<Stripe>,
    /// One ownership word per stripe (set: a merger is adding into it),
    /// touched by mergers only. Kept apart from `stripes` so the lanes,
    /// which read the geometry, share no cache line with the swaps.
    owned: Vec<AtomicBool>,
    /// Total number of model updates applied (any worker).
    updates: AtomicU64,
}

impl SharedModel {
    /// Wrap an initial model into shared storage.
    pub fn new(model: &Model) -> Self {
        let stripes = model.stripes();
        // Filled stripe by stripe from the model itself: no flat temporary.
        let mut params = Vec::with_capacity(model.num_params());
        for st in &stripes {
            params.extend(model.stripe(st).iter().map(|v| AtomicU32::new(v.to_bits())));
        }
        SharedModel {
            spec: model.spec().clone(),
            params,
            owned: stripes.iter().map(|_| AtomicBool::new(false)).collect(),
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
    /// [`snapshot`](Self::snapshot) used by steady-state worker loops.
    // audit: no_alloc,no_panic,no_block
    pub fn snapshot_into(&self, model: &mut Model) {
        assert_eq!(model.spec(), &self.spec, "snapshot spec mismatch");
        // Relaxed: snapshot may interleave with writers by design; each
        // element is still read tear-free (see module ordering note).
        for st in &self.stripes {
            let params = &self.params[st.start..st.end];
            for (v, p) in model.stripe_mut(st).iter_mut().zip(params) {
                *v = f32::from_bits(p.load(Ordering::Relaxed));
            }
        }
    }

    /// Overwrite the stored parameters from a model (merging a deep replica
    /// back; concurrent readers may observe a mix of old and new values).
    pub fn store(&self, model: &Model) {
        assert_eq!(model.spec(), &self.spec, "replica spec mismatch");
        // Relaxed: overwrite is allowed to interleave with concurrent
        // readers/writers (see module ordering note).
        for st in &self.stripes {
            for (p, v) in self.params[st.start..st.end].iter().zip(model.stripe(st)) {
                p.store(v.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Indices of the stripes a gradient whose layer-0 weights are zero
    /// outside the rows `l0_cols` can be non-zero in, in visiting order:
    /// those rows (stripe `c` is input feature `c`'s row; a row past the
    /// input width names no weights and is skipped), then every stripe from
    /// layer 0's bias on. `None`: every stripe, in flat order.
    fn visited<'a>(&'a self, l0_cols: Option<&'a [u32]>) -> impl Iterator<Item = usize> + 'a {
        let n_in = self.spec.input_dim;
        let (rows, tail): (&[u32], usize) = match l0_cols {
            Some(rows) => (rows, n_in),
            None => (&[], 0),
        };
        let rows = rows.iter().map(|&c| c as usize);
        rows.filter(move |&c| {
            debug_assert!(c < n_in, "layer-0 row {c} past input width {n_in}");
            c < n_in
        })
        .chain(tail..self.stripes.len())
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
        assert_eq!(grad.spec(), &self.spec, "gradient spec mismatch");
        for s in self.visited(l0_cols) {
            let st = &self.stripes[s];
            for (p, g) in self.params[st.start..st.end].iter().zip(grad.stripe(st)) {
                // Relaxed load/store pair: the non-atomic read-modify-write
                // is the point — concurrent writers may overwrite each other
                // (Hogwild lost-update semantics; module ordering note
                // above).
                let next = f32::from_bits(p.load(Ordering::Relaxed)) - eta * g;
                p.store(next.to_bits(), Ordering::Relaxed);
            }
        }
        // Relaxed: monitoring counter.
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
        assert_eq!(grad.spec(), &self.spec, "gradient spec mismatch");
        for st in &self.stripes {
            for (p, g) in self.params[st.start..st.end].iter().zip(grad.stripe(st)) {
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
        // Relaxed: monitoring counter.
        self.updates.fetch_add(1, Ordering::Relaxed);
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
    /// marked in its 64-stripe window's bitmask (a `u64`, no allocation),
    /// the merge carries on, and at the window's end revisits it — exactly
    /// once — and only then yields until its owner lets go. A merger holds
    /// one stripe at a time and never waits while holding it, so mergers
    /// cannot deadlock. Returns the number of stripes found owned (merger ↔
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
    /// dense merge, which observes a zero delta as `sumsq += 0` and never
    /// writes it — bit for bit, `f64` sums included, when `l0_cols` ascends
    /// and no stripe is held back (the dense merge's own stripe order); any
    /// other order can only move those sums in their last place.
    // audit: no_alloc,no_panic,no_block
    pub fn merge(
        &self,
        base: &Model,
        replica: &Model,
        scale: f32,
        l0_cols: Option<&[u32]>,
        scan: Option<&mut MergeScan>,
    ) -> u64 {
        self.merge_core([base, replica], scale, |[b, r]| r - b, l0_cols, scan)
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
        self.merge_core([grad], step, |[g]| -g, l0_cols, scan)
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

    /// The one merge body: adds `scale·diff(src values)` into each stripe as
    /// it owns it; `scan` observes every delta visited, unwritten zeros too.
    fn merge_core<const N: usize>(
        &self,
        src: [&Model; N],
        scale: f32,
        diff: impl Fn([f32; N]) -> f32,
        l0_cols: Option<&[u32]>,
        mut scan: Option<&mut MergeScan>,
    ) -> u64 {
        for model in src {
            assert_eq!(model.spec(), &self.spec, "merge source spec mismatch");
        }
        assert!(scale.is_finite() && scale >= 0.0, "bad merge scale");
        // Merge stripe `s` if it can be owned right now; `false`: it is taken.
        let mut merge_stripe = |s: usize| {
            // Acquire: pairs with the previous owner's `Release`, so the
            // loads below see its adds. `hetero_unguarded_merge` is the
            // seeded bug of `scripts/check_mutation.sh`: no exclusion.
            let word = &self.owned[s];
            if !cfg!(hetero_unguarded_merge) && word.swap(true, Ordering::Acquire) {
                return false;
            }
            let st = &self.stripes[s];
            let (params, vals) = (&self.params[st.start..st.end], src.map(|m| m.stripe(st)));
            // Stripe-local, so the scan's sums stay in registers.
            let mut seen = LayerScan::default();
            for (i, p) in params.iter().enumerate() {
                let delta = scale * diff(vals.map(|v| v[i]));
                if scan.is_some() {
                    seen.observe(delta);
                }
                if delta != 0.0 {
                    // Relaxed load/add/store, the lanes' own: no other
                    // *merger* can be between the two (stripe owned), and a
                    // lane that is races this one like another lane would.
                    let sum = f32::from_bits(p.load(Ordering::Relaxed)) + delta;
                    p.store(sum.to_bits(), Ordering::Relaxed);
                }
            }
            // Release: publishes the adds above to the stripe's next owner.
            word.store(false, Ordering::Release);
            if let Some(scan) = scan.as_deref_mut() {
                scan.add(st.layer, seen);
            }
            true
        };
        // Windows of 64 visited stripes: a stripe found owned is marked in
        // the window's bitmask and revisited once at the window's end.
        let mut order = self.visited(l0_cols);
        let mut window = [0usize; 64];
        let mut found_owned = 0;
        loop {
            let mut len = 0;
            for s in order.by_ref().take(64) {
                window[len] = s;
                len += 1;
            }
            if len == 0 {
                break;
            }
            let mut held_back = 0u64;
            for (j, &s) in window[..len].iter().enumerate() {
                if !merge_stripe(s) {
                    held_back |= 1 << j;
                }
            }
            found_owned += u64::from(held_back.count_ones());
            while held_back != 0 {
                let s = window[held_back.trailing_zeros() as usize];
                while !merge_stripe(s) {
                    yield_now();
                }
                held_back &= held_back - 1;
            }
        }
        // Relaxed: monitoring counter.
        self.updates.fetch_add(1, Ordering::Relaxed);
        found_owned
    }
}

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
