//! The run's batch input and the scratch one worker lane steps it through.
//!
//! Whether batches reach the network dense or as CSR rows is decided once
//! per run, from the density of the data ([`CSR_MAX_DENSITY`]), when the
//! run skeleton (`coordinator::run_engine`) builds its [`BatchSource`] at
//! start-up and hands it to the engine; from then on the engines stage,
//! differentiate, apply and evaluate through [`Lane`] and [`Evaluator`] and
//! never ask which format they are on. What each format buys is in
//! `hetero_nn::sparse_input`: CSR pays off at layer 0 only, so a lane
//! stages CSR rows in O(nnz) and reads, differentiates and writes only the
//! layer-0 rows of the input features the batch touched, a block at a time
//! ([`CsrStep`]) — on both engines, and so does an eval.
//!
//! A [`Lane`] is also the one description of what a Hogbatch CPU lane does
//! on either engine: [`lane_split`] shares a batch out to the lanes, and
//! every step's gradient is written through one method,
//! [`Lane::write_gradient`], which runs the fault plan's poison and the
//! watchdog's scan on it first. The simulator steps a model through
//! [`Lane::step_model`]; on the threaded engine both kinds of worker take
//! their step on the shared model through [`Lane::step_shared`].

use std::ops::Deref;
use std::time::Instant;

use hetero_data::{DenseDataset, Labels};
use hetero_flight::Watchdog;
use hetero_nn::{
    scan_model, CsrStep, L0Write, Layer0, MergeScan, MlpSpec, Model, SharedModel, SupportRead,
    Workspace,
};
use hetero_tensor::{CsrBatch, CsrMatrix, Matrix};
use hetero_trace::BatchPhases;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The highest input density at which a run trains layer 0 on CSR rows;
/// denser data trains dense. The crossover, measured as CSR step ÷ dense
/// step (`Workspace::loss_and_gradient_into`, batch 256, AVX2, on
/// `SynthConfig` data of each density):
///
/// | layer 0 | 1 % | 3 % | 6 % | 10 % | 15 % | 25 % | 40 % |
/// |---|---|---|---|---|---|---|---|
/// | 54 → 64 | 0.75 | 0.76 | 0.84 | 0.85 | 0.95 | 1.03 | 1.20 |
/// | 300 → 192 | 0.54 | 0.62 | 0.69 | 0.73 | 0.93 | 0.97 | 1.19 |
/// | 500 → 512 | 0.71 | 0.62 | 0.68 | 0.86 | 0.87 | 1.07 | 1.37 |
/// | 20958 → 64 | 0.08 | 0.18 | 0.51 | | | | |
///
/// Every width crosses 1.0 between 15 % and 25 %.
pub(crate) const CSR_MAX_DENSITY: f64 = 0.15;

/// The training data of one run, in the format the run trains on. `D` is
/// however the engine holds the dataset (`&DenseDataset`, or an `Arc` where
/// worker threads outlive the borrow).
///
/// A sparse run — data no denser than [`CSR_MAX_DENSITY`] — reads CSR
/// features, so lanes slice CSR batches in O(nnz): the dataset's own CSR
/// store, or one copy of a dense store made at start-up. A dense run
/// stages rows through [`DenseDataset::batch_into`], which densifies the
/// rows of a CSR store.
pub(crate) struct BatchSource<D> {
    /// The dataset as loaded (features, labels, sizes, name).
    pub(crate) dataset: D,
    /// Whether batches reach layer 0 as CSR rows.
    sparse: bool,
    /// The CSR copy a sparse run makes of a dataset stored dense (the
    /// benchmark's two w8a workloads), at start-up — before the engine's
    /// clock, so `engine.startup_s` counts it and `TrainResult::duration`
    /// does not.
    compressed: Option<CsrMatrix>,
}

impl<D: Deref<Target = DenseDataset>> BatchSource<D> {
    /// Wrap `dataset` in the format its density calls for.
    pub(crate) fn new(dataset: D) -> Self {
        // `hetero_format_ignores_density` is a mutation switch for
        // `scripts/check_mutation.sh`: every run trains dense.
        let sparse = !cfg!(hetero_format_ignores_density)
            && dataset.density_at_most(CSR_MAX_DENSITY).is_some();
        Self::in_format(dataset, sparse)
    }

    /// Wrap `dataset` in the format given (`sparse`: CSR rows), whatever
    /// its density — for comparing the two formats on the same data.
    pub(crate) fn in_format(dataset: D, sparse: bool) -> Self {
        let compressed = (sparse && dataset.csr_store().is_none()).then(|| dataset.to_csr());
        BatchSource {
            dataset,
            sparse,
            compressed,
        }
    }

    /// The CSR features a sparse run trains on; `None` on a dense run.
    pub(crate) fn csr(&self) -> Option<&CsrMatrix> {
        if !self.sparse {
            return None;
        }
        self.compressed.as_ref().or(self.dataset.csr_store())
    }
}

/// A Hogbatch CPU batch of `len` rows on `lanes` Hogwild lanes: `(rows
/// per lane, lanes that train)`. Lane `i` takes rows `i·sub..(i + 1)·sub`
/// of the batch, so every lane gets ⌈len / lanes⌉ rows but the last one,
/// which gets what is left, and the trailing lanes of a short batch get
/// none. Each lane that trains is one update (Algorithm 2's `t`).
pub(crate) fn lane_split(len: usize, lanes: usize) -> (usize, usize) {
    let sub = len.div_ceil(lanes).max(1);
    // `hetero_split_drops_short_lane` is a mutation switch for
    // `scripts/check_mutation.sh`: the short last lane never trains.
    let trained = if cfg!(hetero_split_drops_short_lane) {
        len / sub
    } else {
        len.div_ceil(sub)
    };
    (sub, trained)
}

/// One persistent scratch set per gradient lane — batch staging, the
/// forward/backward workspace and the health scan, all reused across
/// batches, so a steady-state lane performs zero heap allocations
/// (DESIGN.md §4j).
pub(crate) struct Lane {
    ws: Workspace,
    /// Dense staging; stays empty on sparse runs.
    x: Matrix,
    /// CSR staging; stays empty on dense runs.
    csr: CsrBatch,
    labels: Labels,
    /// Per-layer sumsq / non-finite counts of the last gradient written
    /// under a watchdog.
    pub(crate) scan: MergeScan,
}

impl Lane {
    pub(crate) fn new(spec: &MlpSpec) -> Self {
        Lane {
            ws: Workspace::new(spec),
            x: Matrix::zeros(0, 0),
            csr: CsrBatch::new(),
            labels: Labels::Classes(Vec::new()),
            scan: MergeScan::new(spec.num_layers()),
        }
    }

    /// Copy examples `s..e` of the run's data into the staging buffers.
    // audit: no_alloc
    pub(crate) fn stage<D>(&mut self, src: &BatchSource<D>, s: usize, e: usize)
    where
        D: Deref<Target = DenseDataset>,
    {
        match src.csr() {
            Some(csr) => {
                src.dataset.labels.slice_into(s, e, &mut self.labels);
                csr.slice_rows_into(s, e, &mut self.csr);
            }
            None => src.dataset.batch_into(s, e, &mut self.x, &mut self.labels),
        }
    }

    /// Loss of the staged batch at `model` in either format, through a
    /// whole-width gradient left in the lane's workspace (true zeros in the
    /// layer-0 rows of features a CSR batch never touched): the reference
    /// tests hold the engines' steps to.
    #[cfg(test)]
    pub(crate) fn gradient<D>(&mut self, src: &BatchSource<D>, model: &Model) -> f32
    where
        D: Deref<Target = DenseDataset>,
    {
        let targets = self.labels.as_targets();
        let x = match src.sparse {
            true => hetero_nn::Input::Csr(self.csr.view()),
            false => hetero_nn::Input::Dense(&self.x),
        };
        self.ws.loss_and_gradient_into(model, x, targets, false).0
    }

    /// The stored gradient (tests read its layer-0 buffer).
    #[cfg(test)]
    pub(crate) fn grad(&self) -> &Model {
        self.ws.grad()
    }

    /// One simulated step on rows `s..e`: their gradient at `from`, written
    /// into `to` at `step` after `checks` ([`write_gradient`]). A CSR batch
    /// goes through `at`, read, differentiated and written a block of its
    /// support's layer-0 rows at a time, as a threaded lane steps the
    /// shared model; a dense one (`at` is `None`) at `from` whole.
    ///
    /// [`write_gradient`]: Self::write_gradient
    // audit: no_alloc
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_model<D>(
        &mut self,
        src: &BatchSource<D>,
        (s, e): (usize, usize),
        mut at: Option<&mut CsrStep>,
        from: &Model,
        to: &mut Model,
        step: f32,
        checks: &Checks<'_>,
    ) where
        D: Deref<Target = DenseDataset>,
    {
        self.stage(src, s, e);
        let targets = self.labels.as_targets();
        match at.as_deref_mut() {
            Some(at) => {
                let from = Layer0::Model(from);
                at.read(from, &mut self.csr);
                let x = self.csr.view();
                self.ws.loss_and_gradient_blocks(at, from, x, targets);
            }
            None => {
                self.ws
                    .loss_and_gradient_into(from, &self.x, targets, false);
            }
        }
        self.write_gradient(at, L0Write::Model(to), step, checks);
    }

    /// One threaded step on the shared model, the same for a Hogwild lane
    /// and a GPU worker. Stage rows `s..e`, then read what they need of
    /// `shared` into `at` and call `staged` (stage phase); take the loss and
    /// gradient there (compute); then call `eta` with the updates counted
    /// since the read, for the step size every write takes, and write:
    /// as a stripe-owning merger when `merge`, else racy (merge phase;
    /// [`write_gradient`](Self::write_gradient)).
    ///
    /// A CSR batch is read, differentiated and written one block of its
    /// support's layer-0 rows at a time ([`CsrStep`]), each block scattered
    /// (compute) and written (merge) before the next; then its tail — layer
    /// 0's bias and every later layer — is written. A dense batch is one
    /// full snapshot in the buffer its gradient takes over
    /// ([`SupportRead`]), written whole. The phases sum to the step's wall.
    /// The tail write counts the step's one update.
    // audit: no_alloc
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_shared<D>(
        &mut self,
        src: &BatchSource<D>,
        (s, e): (usize, usize),
        shared: &SharedModel,
        at: &mut SharedRead,
        merge: bool,
        checks: &Checks<'_>,
        staged: impl FnOnce(),
        eta: impl FnOnce(u64) -> f32,
    ) -> Stepped
    where
        D: Deref<Target = DenseDataset>,
    {
        let t_stage = Instant::now();
        self.stage(src, s, e);
        let updates_at_read = shared.update_count();
        let from = Layer0::Shared(shared);
        match at {
            SharedRead::Dense(read) => read.read_all(&mut self.ws, shared),
            SharedRead::Csr(step) => step.read(from, &mut self.csr),
        }
        staged();
        let t_compute = Instant::now();
        let targets = self.labels.as_targets();
        let csr = match at {
            SharedRead::Dense(read) => {
                self.ws.loss_and_gradient_at(read, &self.x, targets, false);
                None
            }
            SharedRead::Csr(step) => {
                let x = self.csr.view();
                self.ws.loss_and_gradient_blocks(step, from, x, targets);
                Some(step)
            }
        };
        let rows = csr.as_ref().map(|step| step.support().len());
        let step = eta(shared.update_count().saturating_sub(updates_at_read));
        let to = match merge {
            true => L0Write::Merge(shared),
            false => L0Write::Racy(shared),
        };
        let (merge_secs, found_owned, end) = self.write_gradient(csr, to, step, checks);
        Stepped {
            phases: BatchPhases {
                stage_secs: (t_compute - t_stage).as_secs_f64(),
                compute_secs: (end - t_compute).as_secs_f64() - merge_secs,
                merge_secs,
                ..BatchPhases::default()
            },
            updates_at_read,
            rows,
            found_owned,
        }
    }

    /// Write the gradient the last step left into `to`, `w ← w − step·∇`,
    /// after `checks` — the one write of every step on either engine. A
    /// CSR step's layer-0 rows go first, a block at a time ([`CsrStep::write_l0`]);
    /// then the fault plan's NaN goes into layer 0's bias when
    /// `checks.poison`, and the tail (every stripe, after a dense gradient)
    /// is written. Under an enabled watchdog a merge scans what it adds in
    /// its loop, any other write each block as it is scattered and the tail
    /// before it writes it, and the scan is observed as `checks.worker`'s
    /// batch `checks.step`. Returns the seconds spent writing, the stripes
    /// a merge found owned by another merger and the instant the write
    /// ended, before the scan is observed.
    // audit: no_alloc
    fn write_gradient(
        &mut self,
        csr: Option<&mut CsrStep>,
        mut to: L0Write<'_>,
        step: f32,
        checks: &Checks<'_>,
    ) -> (f64, u64, Instant) {
        let watched = checks.watchdog.enabled();
        self.scan.reset();
        let (mut merge_secs, mut found_owned) = (0.0, 0);
        // The tail's layer-0 rows: none after a CSR step's blocks.
        let mut tail_rows = None;
        if let Some(at) = csr {
            let scan = watched.then_some(&mut self.scan);
            (merge_secs, found_owned) = at.write_l0(&self.ws, self.csr.view(), step, &mut to, scan);
            tail_rows = Some(&[][..]);
        }
        if checks.poison {
            // One NaN into layer 0's bias: part of every tail, so it
            // reaches the model whatever the format.
            self.ws.grad_mut().layers_mut()[0].b[0] = f32::NAN;
        }
        let grad = self.ws.grad();
        if watched && !matches!(to, L0Write::Merge(_)) {
            scan_model(grad, &mut self.scan);
        }
        let t_tail = Instant::now();
        match to {
            L0Write::Merge(shared) => {
                let scan = watched.then_some(&mut self.scan);
                found_owned += shared.merge_gradient(grad, step, tail_rows, scan);
            }
            L0Write::Racy(shared) => shared.apply_racy(grad, step, tail_rows),
            L0Write::Model(model) if tail_rows.is_some() => model.apply_tail(grad, step),
            L0Write::Model(model) => model.apply_gradient(grad, step),
        }
        let end = Instant::now();
        merge_secs += (end - t_tail).as_secs_f64();
        if watched {
            // `step` is named in the postmortem when an observation trips
            // the policy.
            for (l, ls) in self.scan.layers().iter().enumerate() {
                let (worker, step) = (checks.worker as u32, checks.step);
                checks
                    .watchdog
                    .observe_layer(worker, l, step, ls.sumsq, ls.nonfinite);
            }
        }
        (merge_secs, found_owned, end)
    }
}

/// What a threaded worker reads of the shared model, in the run's format:
/// a CSR batch's support and tail, its layer 0 read, differentiated and
/// written a block at a time ([`CsrStep`]); or a dense batch's full
/// snapshot, in the one layer-0 buffer its gradient takes over
/// ([`SupportRead`]).
pub(crate) enum SharedRead {
    Dense(SupportRead),
    Csr(CsrStep),
}

impl SharedRead {
    /// The read of `src`'s format, for models of shape `spec`.
    pub(crate) fn new<D>(src: &BatchSource<D>, spec: &MlpSpec) -> Self
    where
        D: Deref<Target = DenseDataset>,
    {
        match src.sparse {
            true => SharedRead::Csr(CsrStep::new(spec)),
            false => SharedRead::Dense(SupportRead::new(spec)),
        }
    }

    /// The CSR step (tests of a sparse run's workers).
    #[cfg(test)]
    pub(crate) fn csr(&self) -> &CsrStep {
        match self {
            SharedRead::Csr(step) => step,
            SharedRead::Dense(_) => panic!("a dense run's read"),
        }
    }
}

/// The checks a step's gradient gets before it is written
/// ([`Lane::write_gradient`]), on either engine.
pub(crate) struct Checks<'w> {
    /// The fault plan's NaN into layer 0's bias.
    pub(crate) poison: bool,
    pub(crate) watchdog: &'w Watchdog,
    /// The worker and batch a scan is observed as.
    pub(crate) worker: usize,
    pub(crate) step: u64,
}

#[cfg(test)]
impl<'w> Checks<'w> {
    /// No poison, and a step number nobody reads unless `watchdog` is on.
    pub(crate) fn off(watchdog: &'w Watchdog) -> Self {
        Checks {
            poison: false,
            watchdog,
            worker: 0,
            step: 0,
        }
    }
}

/// What a threaded step reports ([`Lane::step_shared`]).
pub(crate) struct Stepped {
    /// Stage, compute and merge seconds: together, the step's wall.
    pub(crate) phases: BatchPhases,
    /// The shared model's update count just before the read.
    pub(crate) updates_at_read: u64,
    /// Layer-0 rows the step read and wrote: its batch's support on CSR,
    /// `None` (every row) on dense.
    pub(crate) rows: Option<usize>,
    /// Stripes a merge found owned by another merger.
    pub(crate) found_owned: u64,
}

/// Deterministic evaluation subset: `k` rows sampled without replacement.
/// Every engine scores the loss curve on this *same* seeded subsample at
/// every eval point: a fixed prefix would bias the curve toward whatever
/// ordering the dataset shipped with, and re-drawing per eval point would
/// add noise between points.
pub(crate) fn eval_subset(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let mut rows: Vec<usize> = (0..n).collect();
    rows.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xe7a1));
    rows.truncate(k);
    rows.sort_unstable();
    rows
}

/// The run's loss/accuracy probe: a fixed eval batch in the run's format
/// plus one workspace reused by every eval, on either engine.
///
/// On a sparse run the eval rows are one CSR batch whose support, column
/// renumbering and block cuts are taken once, here ([`CsrStep::renumber`]),
/// and every eval is that step's forward ([`Workspace::forward_blocks`]):
/// layer 0 read where it lives — the simulator's model, or the threaded
/// engine's shared one with relaxed loads — one block of the support's rows
/// at a time, bit-identical to the row form's CSR forward. Nothing
/// model-sized is copied: a threaded eval reads only layer 0's bias and the
/// later layers into the step's own tail. A dense run's inputs are narrow
/// (the density rule keeps wide sparse data off the dense path), so a
/// threaded eval copies the whole model into the evaluator's own.
/// The CSR eval rows are picked from the run's CSR features, so nothing
/// dense is touched.
pub(crate) struct Evaluator {
    ws: Workspace,
    x: EvalBatch,
    labels: Labels,
}

/// The eval rows, in the run's format.
enum EvalBatch {
    /// The rows, and the model a threaded eval reads the shared one into
    /// (its layer 0 is grown at the first such read).
    Dense(Matrix, Model),
    /// The rows renumbered onto their support, and the step that cut them.
    Csr(CsrBatch, Box<CsrStep>),
}

impl Evaluator {
    /// Gather `rows` (ascending) of the run's data into the eval batch.
    pub(crate) fn new<D>(src: &BatchSource<D>, rows: &[usize], spec: &MlpSpec) -> Self
    where
        D: Deref<Target = DenseDataset>,
    {
        let data: &DenseDataset = &src.dataset;
        let labels = match &data.labels {
            Labels::Classes(v) => Labels::Classes(rows.iter().map(|&r| v[r]).collect()),
            Labels::MultiHot(m) => Labels::MultiHot(gather(m, rows)),
        };
        let x = match src.csr() {
            Some(csr) => {
                let (mut x, mut at) = (CsrBatch::new(), CsrStep::new(spec));
                csr.select_rows(rows).slice_rows_into(0, rows.len(), &mut x);
                at.renumber(&mut x);
                EvalBatch::Csr(x, Box::new(at))
            }
            None => EvalBatch::Dense(data.gather(rows), Model::zeros_with_l0_rows(spec, 0)),
        };
        Evaluator {
            ws: Workspace::new(spec),
            x,
            labels,
        }
    }

    /// Number of examples scored per eval.
    pub(crate) fn rows(&self) -> usize {
        self.labels.len()
    }

    /// `(loss, accuracy)` of `model` on the eval batch, on the calling
    /// thread.
    pub(crate) fn score(&mut self, model: &Model) -> (f32, f32) {
        let probs = match &mut self.x {
            EvalBatch::Csr(x, at) => self.ws.forward_blocks(at, Layer0::Model(model), x.view()),
            EvalBatch::Dense(x, _) => self.ws.forward_into(model, &*x, false),
        }
        .probs();
        score_probs(probs, &self.labels, model.spec())
    }

    /// `(loss, accuracy)` of the shared model on the eval batch, read as
    /// the workers train it, on the calling thread: every stripe from layer
    /// 0's bias on (no layer-0 row) into the CSR step's tail on a sparse
    /// run, every stripe into the evaluator's model on a dense one.
    // audit: no_alloc
    pub(crate) fn score_shared(&mut self, shared: &SharedModel) -> (f32, f32) {
        let probs = match &mut self.x {
            EvalBatch::Csr(x, at) => self.ws.forward_blocks(at, Layer0::Shared(shared), x.view()),
            EvalBatch::Dense(x, held) => {
                shared.snapshot_into(held);
                self.ws.forward_into(held, &*x, false)
            }
        }
        .probs();
        score_probs(probs, &self.labels, shared.spec())
    }
}

/// `(loss, accuracy)` of the eval batch's probabilities.
fn score_probs(probs: &Matrix, labels: &Labels, spec: &MlpSpec) -> (f32, f32) {
    let targets = labels.as_targets();
    (
        hetero_nn::loss(probs, targets, spec.loss),
        hetero_nn::accuracy(probs, targets),
    )
}

/// Scattered rows of a multi-hot label matrix, stacked in the order given.
fn gather(m: &Matrix, rows: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), m.cols());
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(m.row(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlgorithmKind, TrainConfig};
    use crate::coordinator::RunCtx;
    use crate::engine_sim::{SimEngine, SimEngineConfig};
    use crate::engine_threads::{ThreadedEngine, ThreadedEngineConfig};
    use crate::fault::FaultPlan;
    use hetero_data::SynthConfig;
    use hetero_nn::{InitScheme, Input};
    use hetero_sim::GpuModel;
    use hetero_trace::TraceSink;
    use std::sync::Arc;
    use std::time::Instant;

    type Source = BatchSource<Arc<DenseDataset>>;

    /// `d` with all but one entry in `every` zeroed, stored dense.
    fn thinned(d: &DenseDataset, every: usize) -> DenseDataset {
        let (mut x, labels) = d.batch(0, d.len());
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            if i % every != 0 {
                *v = 0.0;
            }
        }
        DenseDataset::new(d.name.clone(), x, labels)
    }

    /// A ~⅓-dense dataset plus a dense and a CSR source over it.
    fn sources() -> (Source, Source) {
        let d = Arc::new(thinned(&SynthConfig::small(60, 12, 2, 7).generate(), 3));
        (
            BatchSource::in_format(Arc::clone(&d), false),
            BatchSource::in_format(d, true),
        )
    }

    /// `SynthConfig::small` data of the given width and density, born CSR
    /// (below a density of 1).
    fn synth(features: usize, density: f32) -> DenseDataset {
        SynthConfig {
            density,
            ..SynthConfig::small(200, features, 2, 3)
        }
        .generate()
    }

    /// The format follows the data's density, whichever store holds it:
    /// w8a-like data stored dense trains CSR through its one start-up copy,
    /// real-sim-like data trains its own CSR store, and data above the
    /// crossover — stored CSR, or standardised covtype — trains dense.
    #[test]
    fn the_format_follows_the_density() {
        let w8a = synth(300, 0.04);
        let (x, labels) = w8a.batch(0, w8a.len());
        let stored_dense = DenseDataset::new("w8a", x, labels);
        let on_dense = BatchSource::new(&stored_dense);
        assert!(on_dense.dataset.csr_store().is_none());
        assert!(on_dense.compressed.is_some(), "one start-up copy");
        assert_eq!(on_dense.csr(), w8a.csr_store());
        let density = on_dense.csr().unwrap().density();
        assert!(density > 0.02 && density < 0.06, "{density}");

        let real_sim = synth(4000, 0.0025);
        let on_csr = BatchSource::new(&real_sim);
        assert!(on_csr.compressed.is_none());
        assert!(
            std::ptr::eq(on_csr.csr().unwrap(), real_sim.csr_store().unwrap()),
            "the dataset's own store, not a copy"
        );

        let denser = synth(40, 0.6);
        assert!(denser.csr_store().is_some());
        let covtype = hetero_data::PaperDataset::Covtype.generate(0.001, 1);
        for data in [&denser, &covtype] {
            let src = BatchSource::new(data);
            assert!(src.csr().is_none(), "{}", data.name);
        }
    }

    fn model() -> Model {
        Model::new(MlpSpec::tiny(12, 2), InitScheme::Xavier, 5)
    }

    /// `lane_split`'s law on every batch of up to 40 rows on up to 12
    /// lanes: the shares tile the batch in order, there are at most `lanes`
    /// of them, every share but the last has ⌈len / lanes⌉ rows, and a
    /// batch shorter than its lanes gets one-row shares.
    #[test]
    fn lane_split_shares_tile_the_batch() {
        for lanes in 1..=12 {
            for len in 0..=40 {
                let (sub, trained) = lane_split(len, lanes);
                let shares: Vec<(usize, usize)> = (0..trained)
                    .map(|i| (i * sub, ((i + 1) * sub).min(len)))
                    .collect();
                let case = format!("{len} rows on {lanes} lanes: {shares:?}");
                let end = shares
                    .iter()
                    .try_fold(0, |at, &(s, e)| (s == at && e > s).then_some(e));
                assert_eq!(end, Some(len), "shares do not tile: {case}");
                assert!(trained <= lanes, "{case}");
                if let Some((_, head)) = shares.split_last() {
                    let full = len.div_ceil(lanes);
                    assert!(head.iter().all(|&(s, e)| e - s == full), "{case}");
                }
                if len < lanes {
                    assert_eq!(trained, len, "{case}");
                    assert!(shares.iter().all(|&(s, e)| e - s == 1), "{case}");
                }
            }
        }
    }

    #[test]
    fn subset_is_deterministic_sorted_and_not_a_prefix() {
        let a = eval_subset(10_000, 64, 3);
        assert_eq!(a, eval_subset(10_000, 64, 3));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&r| r < 10_000));
        // The whole point: a seeded shuffle, not `0..k`.
        assert_ne!(a, (0..64).collect::<Vec<_>>());
        assert_eq!(eval_subset(5, 64, 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dense_and_csr_lanes_agree() {
        let (dense, csr) = sources();
        let m = model();
        let (mut a, mut b) = (Lane::new(m.spec()), Lane::new(m.spec()));
        a.stage(&dense, 10, 40);
        b.stage(&csr, 10, 40);
        let (la, lb) = (a.gradient(&dense, &m), b.gradient(&csr, &m));
        assert!((la - lb).abs() < 1e-4, "{la} vs {lb}");
        assert!(a.ws.active_cols().is_none() && b.ws.active_cols().is_some());
        for (x, y) in a.ws.grad().flatten().iter().zip(b.ws.grad().flatten()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        // The engines' step: the CSR one a block of layer 0 at a time.
        let (mut ma, mut mb) = (m.clone(), m.clone());
        let (off, mut at) = (Watchdog::disabled(), CsrStep::new(m.spec()));
        let checks = Checks::off(&off);
        a.step_model(&dense, (10, 40), None, &m, &mut ma, 0.5, &checks);
        b.step_model(&csr, (10, 40), Some(&mut at), &m, &mut mb, 0.5, &checks);
        for (x, y) in ma.flatten().iter().zip(mb.flatten()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    /// A run trains and scores the same on a dense and a CSR store; a
    /// sparse run on a CSR store reads that store, not a copy.
    #[test]
    fn either_store_trains_and_scores_alike() {
        let (dense, compressed) = sources();
        let d = &dense.dataset;
        let stored = Arc::new(DenseDataset::from_csr("csr", d.to_csr(), d.labels.clone()));
        let on_csr = BatchSource::in_format(Arc::clone(&stored), false);
        let sparse_on_csr = BatchSource::in_format(Arc::clone(&stored), true);
        assert!(on_csr.csr().is_none());
        assert!(
            std::ptr::eq(sparse_on_csr.csr().unwrap(), stored.csr_store().unwrap()),
            "the dataset's own store, not a copy"
        );
        assert_eq!(sparse_on_csr.csr(), compressed.csr());
        let m = model();
        let rows = eval_subset(d.len(), 24, 9);
        for (a, b) in [(&dense, &on_csr), (&compressed, &sparse_on_csr)] {
            let (mut la, mut lb) = (Lane::new(m.spec()), Lane::new(m.spec()));
            // A smaller batch after a larger one: the reused buffers must
            // not leak rows of the first into the second.
            for (s, e) in [(10, 40), (41, 47)] {
                la.stage(a, s, e);
                lb.stage(b, s, e);
                let (x, y) = (la.gradient(a, &m), lb.gradient(b, &m));
                assert_eq!(x.to_bits(), y.to_bits(), "{s}..{e}");
                assert_eq!(la.ws.grad(), lb.ws.grad());
            }
            let (x, y) = (
                Evaluator::new(a, &rows, m.spec()).score(&m),
                Evaluator::new(b, &rows, m.spec()).score(&m),
            );
            assert_eq!(
                (x.0.to_bits(), x.1.to_bits()),
                (y.0.to_bits(), y.1.to_bits())
            );
        }
    }

    #[test]
    fn evaluator_agrees_across_formats() {
        let (dense, csr) = sources();
        let m = model();
        let rows = eval_subset(dense.dataset.len(), 24, 9);
        let mut on_dense = Evaluator::new(&dense, &rows, m.spec());
        let mut on_csr = Evaluator::new(&csr, &rows, m.spec());
        assert_eq!(on_dense.rows(), 24);
        let EvalBatch::Dense(x, _) = &on_dense.x else {
            panic!("a dense run's eval batch is dense")
        };
        for (i, &r) in rows.iter().enumerate() {
            assert_eq!(x.row(i), dense.dataset.batch(r, r + 1).0.row(0));
        }
        let ((l1, a1), (l2, a2)) = (on_dense.score(&m), on_csr.score(&m));
        assert!((l1 - l2).abs() < 1e-5, "{l1} vs {l2}");
        assert!((a1 - a2).abs() < 1e-5, "{a1} vs {a2}");
    }

    /// A workspace that took a whole-width CSR gradient (the pinned path,
    /// which keeps its support) and then a dense step holds a dense
    /// gradient: no row set describes it, and the step writes every
    /// layer-0 row, as a plain apply of that gradient does.
    #[test]
    fn dense_step_after_csr_gradient_forgets_the_csr_columns() {
        let (dense, csr) = sources();
        let m = model();
        let mut lane = Lane::new(m.spec());
        lane.stage(&csr, 0, 4);
        lane.gradient(&csr, &m);
        assert!(lane.ws.active_cols().is_some_and(|c| !c.is_empty()));
        let (off, mut via_lane, mut reference) = (Watchdog::disabled(), m.clone(), m.clone());
        let checks = Checks::off(&off);
        lane.step_model(&dense, (20, 50), None, &m, &mut via_lane, 0.5, &checks);
        assert!(lane.ws.active_cols().is_none());
        assert!(lane.ws.sparse_active_cols().is_empty());
        reference.apply_gradient(lane.ws.grad(), 0.5);
        assert_eq!(via_lane, reference);
    }

    /// A threaded run's initial point reads the shared model it drew in
    /// place — layer 0 by reference on a sparse run — and is the row-form
    /// score of the seeded model, bit for bit, in either format: the ⅓-dense
    /// data trains dense, a tenth-dense copy of it CSR.
    #[test]
    fn a_threaded_runs_initial_point_scores_the_seeded_model() {
        let raw = SynthConfig::small(60, 12, 2, 7).generate();
        for (every, sparse) in [(3, false), (10, true)] {
            let data = Arc::new(thinned(&raw, every));
            let train = TrainConfig {
                algorithm: AlgorithmKind::CpuGpuHogbatch,
                time_budget: 0.005,
                eval_interval: 0.005,
                eval_subsample: 40,
                seed: 21,
                ..TrainConfig::default()
            };
            let spec = MlpSpec::tiny(12, 2);
            let seeded = Model::new(spec.clone(), train.init, train.seed);
            let rows = eval_subset(data.len(), train.eval_subsample, train.seed);
            let mut ws = Workspace::new(&spec);
            let subset = data.to_csr().select_rows(&rows);
            let gathered = data.gather(&rows);
            let x = match sparse {
                true => Input::Csr(subset.view()),
                false => Input::Dense(&gathered),
            };
            let probs = ws.forward_into(&seeded, x, false).probs();
            let Labels::Classes(labels) = &data.labels else {
                panic!("single-label data")
            };
            let labels: Vec<u32> = rows.iter().map(|&r| labels[r]).collect();
            let targets = hetero_nn::Targets::Classes(&labels);
            let expect = (
                hetero_nn::loss(probs, targets, spec.loss),
                hetero_nn::accuracy(probs, targets),
            );
            let run = ThreadedEngine::new(ThreadedEngineConfig {
                spec,
                train,
                cpu_threads: 2,
                gpu_perf: GpuModel::v100(),
                gpu_workers: 1,
                fault_plan: FaultPlan::none(),
            })
            .unwrap()
            .run_with(data, &RunCtx::default());
            let first = run.loss_curve[0];
            assert_eq!(
                (first.loss.to_bits(), first.accuracy.to_bits()),
                (expect.0.to_bits(), expect.1.to_bits()),
                "sparse {sparse}"
            );
        }
    }

    /// The loss before any update depends on the seed, the spec and the
    /// data — not on the engine, its schedule or its clock. Start-up is
    /// outside that clock, and both engines say how long it took; both
    /// publish the density of a sparse run's CSR features, and only of a
    /// sparse run's: here the ⅓-dense data trains dense and a tenth-dense
    /// copy of it trains CSR.
    #[test]
    fn sim_and_threaded_agree_on_the_initial_point() {
        let raw = SynthConfig::small(60, 12, 2, 7).generate();
        // `(engine.startup_s, engine.sparse_density)` of a finished run.
        let gauges = |sink: &TraceSink| {
            let gauges = sink.drain().counters;
            let gauge = |want: &str| gauges.iter().find(|(name, _)| name == want).map(|g| g.1);
            (
                gauge("engine.startup_s").expect("engine.startup_s"),
                gauge("engine.sparse_density"),
            )
        };
        for (every, sparse) in [(3, false), (10, true)] {
            let data = Arc::new(thinned(&raw, every));
            let train = TrainConfig {
                algorithm: AlgorithmKind::CpuGpuHogbatch,
                time_budget: 0.005,
                eval_interval: 0.005,
                eval_subsample: 40,
                seed: 13,
                ..TrainConfig::default()
            };
            let spec = MlpSpec::tiny(12, 2);
            let ctx = |sink: &TraceSink| RunCtx {
                sink: sink.clone(),
                ..RunCtx::default()
            };

            let sink = TraceSink::virtual_time(1 << 14);
            let sim = SimEngine::new(SimEngineConfig::paper_hardware(spec.clone(), train.clone()))
                .unwrap()
                .run_with(&data, &ctx(&sink));
            let (startup, sim_density) = gauges(&sink);
            assert!(startup > 0.0);

            let sink = TraceSink::wall(1 << 14);
            let entered = Instant::now();
            let threaded = ThreadedEngine::new(ThreadedEngineConfig {
                spec,
                train,
                cpu_threads: 2,
                gpu_perf: GpuModel::v100(),
                gpu_workers: 1,
                fault_plan: FaultPlan::none(),
            })
            .unwrap()
            .run_with(data.clone(), &ctx(&sink));
            let wall = entered.elapsed().as_secs_f64();
            let (startup, threaded_density) = gauges(&sink);
            assert!(
                startup > 0.0 && startup + threaded.duration <= wall,
                "start-up {startup} + duration {} vs wall {wall}",
                threaded.duration
            );

            let (a, b) = (sim.loss_curve[0], threaded.loss_curve[0]);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "sparse {sparse}");
            assert_eq!(
                a.accuracy.to_bits(),
                b.accuracy.to_bits(),
                "sparse {sparse}"
            );
            assert_eq!((a.epochs, b.epochs), (0.0, 0.0));
            assert_eq!(sim_density.is_some(), sparse, "sim");
            assert_eq!(sim_density, threaded_density);
        }
    }
}
