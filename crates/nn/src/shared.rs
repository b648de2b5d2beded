//! The framework's *global model*: shared, concurrently-updated parameters.
//!
//! §V of the paper: CPU workers access the global model **by reference** and
//! update it Hogwild-style — concurrent, unsynchronized read–modify–write,
//! where lost updates are tolerated by design. GPU workers keep a **deep
//! copy** replica and merge it back asynchronously.
//!
//! In Rust, "benign" data races are still UB on plain `f32`, so the storage
//! is a flat `Vec<AtomicU32>` holding f32 bit patterns accessed with
//! `Relaxed` ordering. Two update flavours are provided:
//!
//! - [`SharedModel::apply_racy`] — load/compute/store per element.
//!   Concurrent writers can overwrite each other, which is *exactly* the
//!   Hogwild semantics the paper relies on (conflicts happen, convergence
//!   survives).
//! - [`SharedModel::apply_gradient_atomic`] — per-element CAS loop; no
//!   update is ever lost. Used to study the effect of lost updates (the
//!   paper's β parameter quantifies the "surviving fraction").

use crate::model::Model;
use crate::sparse_input::walk_l0_cols;
use crate::spec::MlpSpec;
use crate::sync::{AtomicU32, AtomicU64, Ordering};

// Ordering discipline for this file: every atomic access is `Relaxed`. The
// parameters are pure numeric data — no worker ever uses a parameter value
// to decide whether *other* memory is initialized, so no access needs to
// publish or acquire anything. Lost updates (racy path) and interleaved
// snapshots are tolerated by the Hogwild design; what Rust requires is only
// that the accesses be atomic, not that they be ordered. The loom suite
// (`tests/loom_shared.rs`) checks the CAS path loses nothing and the racy
// path stays within its feasible envelope under all interleavings.

/// Every how many parameters a probing racy apply checks for write
/// conflicts (see [`SharedModel::apply_racy`]). Sparse on
/// purpose: the probe is a strong CAS instead of a plain store, and the
/// estimator only needs a sample, not a census.
const CONFLICT_SAMPLE_STRIDE: usize = 16;

/// Shared parameter store for concurrent SGD.
pub struct SharedModel {
    spec: MlpSpec,
    params: Vec<AtomicU32>,
    /// Total number of model updates applied (any worker).
    updates: AtomicU64,
    /// Parameter writes probed for conflicts by probing racy applies.
    conflict_samples: AtomicU64,
    /// Probed writes that observed a racing foreign write.
    conflict_losses: AtomicU64,
}

impl SharedModel {
    /// Wrap an initial model into shared storage.
    pub fn new(model: &Model) -> Self {
        let params = model
            .flatten()
            .into_iter()
            .map(|v| AtomicU32::new(v.to_bits()))
            .collect();
        SharedModel {
            spec: model.spec().clone(),
            params,
            updates: AtomicU64::new(0),
            conflict_samples: AtomicU64::new(0),
            conflict_losses: AtomicU64::new(0),
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

    /// Read the current parameters into a flat vector (relaxed loads; the
    /// snapshot may interleave with concurrent updates — by design).
    pub fn read_flat(&self) -> Vec<f32> {
        // Relaxed: snapshot may interleave with writers by design; each
        // element is still read tear-free (see module ordering note).
        self.params
            .iter()
            .map(|p| f32::from_bits(p.load(Ordering::Relaxed)))
            .collect()
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
        let mut idx = 0;
        // Relaxed: snapshot may interleave with writers by design; each
        // element is still read tear-free (see module ordering note).
        for layer in model.layers_mut() {
            for v in layer.w.as_mut_slice() {
                *v = f32::from_bits(self.params[idx].load(Ordering::Relaxed));
                idx += 1;
            }
            for v in layer.b.iter_mut() {
                *v = f32::from_bits(self.params[idx].load(Ordering::Relaxed));
                idx += 1;
            }
        }
    }

    /// Overwrite the stored parameters from a model (merging a deep replica
    /// back; concurrent readers may observe a mix of old and new values).
    pub fn store(&self, model: &Model) {
        assert_eq!(model.spec(), &self.spec, "replica spec mismatch");
        // Relaxed: overwrite is allowed to interleave with concurrent
        // readers/writers (see module ordering note).
        for (p, v) in self.params.iter().zip(model.flatten()) {
            p.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Hogwild update: `w ← w − eta·g` with racy per-element load/store.
    ///
    /// Lost updates under contention are expected and tolerated — this is
    /// the paper's CPU-worker update path.
    ///
    /// With `l0_cols` the layer-0 weight loop visits only those columns,
    /// row by row in address order (any order is correct, ascending — what
    /// [`Workspace::active_cols`](crate::Workspace::active_cols) yields —
    /// is the fast one; duplicates must not appear); biases and all later
    /// layers are applied densely. Caller contract: `grad`'s layer-0
    /// weights are **zero outside `l0_cols`**, so skipping the other
    /// columns changes nothing — it only skips `w ← w − eta·0` writes,
    /// which for bag-of-words inputs is almost all of layer 0.
    ///
    /// With `probe`, **conflict sampling**: identical model dynamics, but
    /// every `CONFLICT_SAMPLE_STRIDE`-th (16th) *flat parameter index* is
    /// written with a strong `compare_exchange` first. A probe that fails
    /// observed a foreign write racing this one — exactly the event that
    /// makes a Hogwild update partially "not survive" — and is tallied
    /// into the measured-β estimator
    /// ([`beta_estimate`](Self::beta_estimate)). On a failed probe the
    /// value is stored anyway, preserving the racy last-writer-wins
    /// semantics bit-for-bit. Sampling on the flat index keeps the probe
    /// population the same with and without `l0_cols`, so β̂ remains
    /// comparable across sparse and dense lanes.
    // audit: no_alloc,no_panic,no_block
    pub fn apply_racy(&self, grad: &Model, eta: f32, l0_cols: Option<&[u32]>, probe: bool) {
        // Two monomorphized bodies: the un-probed one has no CAS and no
        // counters in its loop at all.
        if probe {
            self.apply_racy_body::<true>(grad, eta, l0_cols)
        } else {
            self.apply_racy_body::<false>(grad, eta, l0_cols)
        }
    }

    /// [`apply_racy`](Self::apply_racy), dense and un-probed (kept: the
    /// frozen `benchmark/` calls it).
    pub fn apply_gradient_racy(&self, grad: &Model, eta: f32) {
        self.apply_racy(grad, eta, None, false)
    }

    /// [`apply_racy`](Self::apply_racy) over `l0_cols`, un-probed (kept:
    /// the frozen `benchmark/` calls it).
    pub fn apply_gradient_racy_cols(&self, grad: &Model, eta: f32, l0_cols: &[u32]) {
        self.apply_racy(grad, eta, Some(l0_cols), false)
    }

    /// The one racy read-modify-write loop behind
    /// [`apply_racy`](Self::apply_racy).
    fn apply_racy_body<const PROBE: bool>(&self, grad: &Model, eta: f32, l0_cols: Option<&[u32]>) {
        assert_eq!(grad.spec(), &self.spec, "gradient spec mismatch");
        let mut samples = 0u64;
        let mut losses = 0u64;
        let mut apply_at = |idx: usize, g: f32| {
            let p = &self.params[idx];
            // Relaxed load/store pairs: the non-atomic read-modify-write is
            // the point — concurrent writers may overwrite each other
            // (Hogwild lost-update semantics; module ordering note above).
            // The sampled strong CAS also needs no ordering — only its
            // success/failure verdict is used, as a conflict *observation*.
            let cur = p.load(Ordering::Relaxed);
            let next = (f32::from_bits(cur) - eta * g).to_bits();
            if PROBE && idx.is_multiple_of(CONFLICT_SAMPLE_STRIDE) {
                samples += 1;
                if p.compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
                {
                    losses += 1;
                    // Relaxed: losing the probe still lands the racy
                    // Hogwild store, same as the unsampled lane.
                    p.store(next, Ordering::Relaxed);
                }
            } else {
                p.store(next, Ordering::Relaxed);
            }
        };
        let mut idx = 0;
        for (layer, gl) in grad.layers().iter().enumerate() {
            let gw = gl.w.as_slice();
            match (layer, l0_cols) {
                (0, Some(cols)) => {
                    let (out0, in0) = gl.w.shape();
                    // Flat index of layer-0 weight (o, c) is o·in0 + c.
                    walk_l0_cols(cols, out0, |o, c| apply_at(o * in0 + c, gw[o * in0 + c]));
                }
                _ => {
                    for (i, &g) in gw.iter().enumerate() {
                        apply_at(idx + i, g);
                    }
                }
            }
            idx += gw.len();
            for &g in &gl.b {
                apply_at(idx, g);
                idx += 1;
            }
        }
        // Relaxed: monitoring counters.
        if PROBE {
            self.conflict_samples.fetch_add(samples, Ordering::Relaxed);
            if losses > 0 {
                self.conflict_losses.fetch_add(losses, Ordering::Relaxed);
            }
        }
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Probed and conflicting parameter writes accumulated by probing
    /// [`apply_racy`](Self::apply_racy) calls: `(samples, losses)`.
    pub fn conflict_counts(&self) -> (u64, u64) {
        // Relaxed: monitoring counters.
        (
            self.conflict_samples.load(Ordering::Relaxed),
            self.conflict_losses.load(Ordering::Relaxed),
        )
    }

    /// Measured surviving-update fraction β̂ = 1 − losses/samples, from the
    /// sampled conflict probes. `None` until at least one probe ran (e.g.
    /// the run never asked for probing). The paper fixes β = 1 by
    /// default; this estimator lets the adaptive controller credit CPU
    /// batches with `t·β̂` instead when `TrainConfig::measured_beta` is on.
    pub fn beta_estimate(&self) -> Option<f64> {
        let (samples, losses) = self.conflict_counts();
        if samples == 0 {
            return None;
        }
        Some(1.0 - losses as f64 / samples as f64)
    }

    /// Lock-free exact update: per-element CAS loop; never loses a write.
    // audit: no_alloc,no_panic,no_block
    pub fn apply_gradient_atomic(&self, grad: &Model, eta: f32) {
        assert_eq!(grad.spec(), &self.spec, "gradient spec mismatch");
        let mut idx = 0;
        let mut apply = |g: f32| {
            let p = &self.params[idx];
            // Relaxed CAS loop: atomicity of each compare_exchange is what
            // guarantees no lost update; ordering is irrelevant because the
            // value is pure data (module ordering note above).
            let mut cur = p.load(Ordering::Relaxed);
            loop {
                let next = (f32::from_bits(cur) - eta * g).to_bits();
                match p.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
            idx += 1;
        };
        for layer in grad.layers() {
            layer.w.as_slice().iter().for_each(|&g| apply(g));
            layer.b.iter().for_each(|&g| apply(g));
        }
        // Relaxed: monitoring counter.
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge a deep replica by adding its delta from `base`, scaled:
    /// `w ← w + scale·(replica − base)` element-wise (atomic). Returns the
    /// number of CAS retries the merge incurred — a direct measure of merge
    /// contention with concurrent Hogwild writers (0 on an uncontended
    /// merge), which feeds the `MergeRetries` histogram.
    ///
    /// This is how a GPU worker folds its locally-trained replica into the
    /// global model without clobbering CPU updates that landed meanwhile.
    /// `scale < 1` implements the paper's §VI-B staleness compensation —
    /// discounting a delta whose base snapshot has since gone stale.
    ///
    /// With `scan`, the training-health scan is fused into the merge loop:
    /// each scaled delta is accumulated (sum of squares of the finite part
    /// plus a NaN/±Inf count) into the caller-owned per-layer `scan` as it
    /// is CAS-applied — zero extra passes over the parameters and zero
    /// allocations. A non-finite delta is still merged (the poisoned run
    /// is the watchdog's problem to abort, not the merge's to mask).
    ///
    /// With `l0_cols`, the layer-0 weight loop visits only those columns —
    /// columns whose delta is known to be zero are neither read, observed,
    /// nor CAS'd. Layer-0 biases and all later layers merge densely.
    /// Caller contract: `replica` equals `base` at every layer-0 weight
    /// outside `l0_cols` — what a replica trained with
    /// [`Model::apply_gradient_sparse`](crate::Model::apply_gradient_sparse)
    /// on the same column sets guarantees. Under that contract the result
    /// (parameters *and* scan) is identical to the dense merge,
    /// because skipped elements have `delta == 0.0`, which the dense loop
    /// observes as `sumsq += 0` and never CAS-applies. With `l0_cols`
    /// ascending the elements are visited in the dense merge's own
    /// (address) order, so even the scan's `f64` sums match it bit for bit;
    /// another order of `l0_cols` merges the same parameters and can only
    /// move those sums in their last place.
    // audit: no_alloc,no_panic,no_block
    pub fn merge(
        &self,
        base: &Model,
        replica: &Model,
        scale: f32,
        l0_cols: Option<&[u32]>,
        scan: Option<&mut crate::scan::MergeScan>,
    ) -> u64 {
        match scan {
            Some(scan) => self.merge_core(base, replica, scale, l0_cols, |layer, delta| {
                scan.observe(layer, delta)
            }),
            // Monomorphized no-op observer: identical codegen to a merge
            // loop with no scan in it.
            None => self.merge_core(base, replica, scale, l0_cols, |_, _| {}),
        }
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
        scan: &mut crate::scan::MergeScan,
    ) -> u64 {
        self.merge(base, replica, scale, Some(l0_cols), Some(scan))
    }

    /// Shared merge body: CAS-applies `scale·(replica − base)` and calls
    /// `obs(layer, delta)` for every element visited (including zero
    /// deltas, which are observed but not CAS-applied). With `l0_cols`
    /// the layer-0 weights visited are those columns only.
    fn merge_core(
        &self,
        base: &Model,
        replica: &Model,
        scale: f32,
        l0_cols: Option<&[u32]>,
        mut obs: impl FnMut(usize, f32),
    ) -> u64 {
        assert_eq!(base.spec(), &self.spec, "base spec mismatch");
        assert_eq!(replica.spec(), &self.spec, "replica spec mismatch");
        assert!(scale.is_finite() && scale >= 0.0, "bad merge scale");
        let mut retries = 0u64;
        let mut merge_at = |layer: usize, idx: usize, bv: f32, rv: f32| {
            let delta = scale * (rv - bv);
            obs(layer, delta);
            if delta == 0.0 {
                return;
            }
            let p = &self.params[idx];
            // Relaxed CAS loop: same argument as `apply_gradient_atomic`
            // — the add must not be lost, but needs no ordering. Failed
            // exchanges are tallied as contention observations.
            let mut cur = p.load(Ordering::Relaxed);
            loop {
                let next = (f32::from_bits(cur) + delta).to_bits();
                match p.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(actual) => {
                        retries += 1;
                        cur = actual;
                    }
                }
            }
        };
        let mut idx = 0;
        for (layer, (bl, rl)) in base.layers().iter().zip(replica.layers()).enumerate() {
            let (bw, rw) = (bl.w.as_slice(), rl.w.as_slice());
            match (layer, l0_cols) {
                (0, Some(cols)) => {
                    let (out0, in0) = bl.w.shape();
                    // Flat index of layer-0 weight (o, c) is o·in0 + c.
                    walk_l0_cols(cols, out0, |o, c| {
                        merge_at(0, o * in0 + c, bw[o * in0 + c], rw[o * in0 + c])
                    });
                }
                _ => {
                    for (i, (bv, rv)) in bw.iter().zip(rw).enumerate() {
                        merge_at(layer, idx + i, *bv, *rv);
                    }
                }
            }
            idx += bw.len();
            for (bv, rv) in bl.b.iter().zip(&rl.b) {
                merge_at(layer, idx, *bv, *rv);
                idx += 1;
            }
        }
        // Relaxed: monitoring counter.
        self.updates.fetch_add(1, Ordering::Relaxed);
        retries
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
        s.apply_racy(&grad, 0.1, None, false);
        let mut out = Model::zeros_like(m.spec());
        s.snapshot_into(&mut out);
        assert_eq!(out, s.snapshot());
    }

    #[test]
    fn racy_update_applied_when_uncontended() {
        let (m, s) = setup();
        let mut grad = Model::zeros_like(m.spec());
        grad.layers_mut()[0].w.set(0, 0, 1.0);
        s.apply_racy(&grad, 0.1, None, false);
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
        s1.apply_racy(&grad, 0.5, None, false);
        s2.apply_gradient_atomic(&grad, 0.5);
        assert_eq!(s1.read_flat(), s2.read_flat());
    }

    #[test]
    fn sampled_racy_matches_racy_and_measures_beta_one_when_serial() {
        let (m, s1) = setup();
        let s2 = SharedModel::new(&m);
        let mut grad = Model::zeros_like(m.spec());
        grad.layers_mut()[0].w.set(0, 0, 1.0);
        grad.layers_mut()[1].b[0] = -0.5;
        s1.apply_racy(&grad, 0.3, None, false);
        s2.apply_racy(&grad, 0.3, None, true);
        assert_eq!(s1.read_flat(), s2.read_flat());
        assert_eq!(s2.update_count(), 1);
        // Uncontended probes never observe a conflict: β̂ = 1 exactly.
        let (samples, losses) = s2.conflict_counts();
        assert!(samples >= 1);
        assert_eq!(losses, 0);
        assert_eq!(s2.beta_estimate(), Some(1.0));
        // The plain racy path never probes, so it has no estimate.
        assert_eq!(s1.beta_estimate(), None);
    }

    #[test]
    fn sampled_racy_under_contention_keeps_beta_in_unit_interval() {
        let (m, s) = setup();
        let s = Arc::new(s);
        let mut grad = Model::zeros_like(m.spec());
        grad.layers_mut()[0].w.set(0, 0, 1e-6);
        let grad = Arc::new(grad);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                let g = Arc::clone(&grad);
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        s.apply_racy(&g, 1.0, None, true);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let beta = s.beta_estimate().unwrap();
        assert!((0.0..=1.0).contains(&beta), "beta {beta} out of range");
        let (samples, losses) = s.conflict_counts();
        assert!(samples >= 8000);
        assert!(losses <= samples);
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

    /// A gradient that is zero outside the given layer-0 columns must apply
    /// identically through the dense racy path and the column-sparse one.
    fn sparse_grad(m: &Model, cols: &[u32]) -> Model {
        let mut grad = Model::zeros_like(m.spec());
        {
            let w = &mut grad.layers_mut()[0].w;
            let out0 = w.rows();
            for (i, &c) in cols.iter().enumerate() {
                for o in 0..out0 {
                    w.set(o, c as usize, 0.5 + (i + o) as f32);
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
        s1.apply_racy(&grad, 0.3, None, false);
        s2.apply_racy(&grad, 0.3, Some(&cols), false);
        assert_eq!(s1.read_flat(), s2.read_flat());
        assert_eq!(s2.update_count(), 1);
    }

    #[test]
    fn sampled_cols_matches_racy_cols_and_probes() {
        let (m, s1) = setup();
        let s2 = SharedModel::new(&m);
        let cols = [1u32, 2];
        let grad = sparse_grad(&m, &cols);
        s1.apply_racy(&grad, 0.7, Some(&cols), false);
        s2.apply_racy(&grad, 0.7, Some(&cols), true);
        assert_eq!(s1.read_flat(), s2.read_flat());
        // Flat index 0 is layer-0 weight (0, 0); with column 0 absent from
        // `cols` the probe population comes from the dense tail (index 16
        // etc.) — still nonzero for this spec, and uncontended ⇒ β̂ = 1.
        let (samples, losses) = s2.conflict_counts();
        assert!(samples >= 1);
        assert_eq!(losses, 0);
        assert_eq!(s2.beta_estimate(), Some(1.0));
    }

    #[test]
    fn sparse_merge_matches_dense_merge_and_scan() {
        let (m, s1) = setup();
        let s2 = SharedModel::new(&m);
        let base = m.clone();
        let mut replica = m.clone();
        // Perturb exactly two layer-0 columns plus dense-tail params.
        let cols = [0u32, 2];
        let out0 = replica.layers()[0].w.rows();
        for &c in &cols {
            for o in 0..out0 {
                let old = replica.layers()[0].w.get(o, c as usize);
                replica.layers_mut()[0]
                    .w
                    .set(o, c as usize, old + 0.1 * (o + 1) as f32);
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
                        s.apply_racy(&g, 1.0, None, false);
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
