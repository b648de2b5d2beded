//! The run's batch input and the scratch one worker lane steps it through.
//!
//! Whether batches reach the network dense or as CSR rows is decided once
//! per run, when the engine builds its [`BatchSource`]; from then on the
//! engines stage, differentiate, apply and evaluate through [`Lane`] and
//! [`Evaluator`] and never ask which format they are on. What each format
//! buys is in `hetero_nn::sparse_input`: CSR pays off at layer 0 only, so a
//! lane stages CSR rows in O(nnz), runs the sparse layer-0 kernels, and its
//! applies walk only the layer-0 rows of the input features the batch
//! touched.

use std::ops::Deref;

use hetero_data::{DenseDataset, Labels};
use hetero_nn::{Input, MergeScan, MlpSpec, Model, SharedModel, Workspace};
use hetero_tensor::{CsrBatch, CsrMatrix, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::config::TrainConfig;
use crate::coordinator::{Coordinator, CoreCkpt};

/// The training data of one run, in the format the run trains on. `D` is
/// however the engine holds the dataset (`&DenseDataset`, or an `Arc` where
/// worker threads outlive the borrow).
pub(crate) struct BatchSource<D> {
    /// The dataset as loaded (labels, sizes, name).
    pub(crate) dataset: D,
    /// CSR copy of the features on sparse runs: compressed once per run,
    /// in [`start_up`] — before the *engine's* clock starts, so neither
    /// `TrainResult::duration` nor a loss point's `time` counts it, but a
    /// caller timing `run()` pays for it (`engine.startup_s` says how
    /// much). Lanes then slice CSR batches in O(nnz) instead of rescanning
    /// the dense matrix per batch — an O(batch × features) cost that is
    /// independent of density and would otherwise swamp the sparse kernels'
    /// win. It is data preparation, the sparse counterpart of the dense
    /// matrix already sitting in memory.
    csr: Option<CsrMatrix>,
}

impl<D: Deref<Target = DenseDataset>> BatchSource<D> {
    /// Wrap `dataset`; `sparse` is `TrainConfig::sparse_input`.
    pub(crate) fn new(dataset: D, sparse: bool) -> Self {
        let csr = sparse.then(|| dataset.to_csr());
        BatchSource { dataset, csr }
    }

    /// Stored-entry fraction of the CSR copy; `None` on a dense run.
    pub(crate) fn density(&self) -> Option<f64> {
        self.csr.as_ref().map(CsrMatrix::density)
    }

    /// Whichever of a lane's two staging buffers this run fills.
    fn input<'a>(&self, x: &'a Matrix, csr: &'a CsrBatch) -> Input<'a> {
        match self.csr {
            Some(_) => Input::Csr(csr.view()),
            None => Input::Dense(x),
        }
    }
}

/// Run start-up, written once for both engines: the run's [`BatchSource`]
/// and the model it starts from — drawn from `train.seed`, or on a resumed
/// run the image `resume` carries (restored into `co`).
pub(crate) fn start_up<D>(
    dataset: D,
    spec: &MlpSpec,
    train: &TrainConfig,
    co: &mut Coordinator<'_>,
    resume: Option<CoreCkpt>,
) -> (BatchSource<D>, Model)
where
    D: Deref<Target = DenseDataset> + Send,
{
    source_beside(dataset, train.sparse_input, || match resume {
        Some(core) => co.restore(core),
        None => Model::new(spec.clone(), train.init, train.seed),
    })
}

/// `model()` on the calling thread while, on a sparse run, a scoped thread
/// compresses the CSR copy: the initialiser is compute-bound (Box–Muller
/// per weight), the compression memory-bound (one scan of the dense
/// matrix), and neither reads what the other writes, so side by side they
/// cost the longer of the two (DESIGN.md §4k). A dense run spawns nothing.
/// The scope joins before returning, so a panic in either half reaches the
/// caller and no thread outlives the call.
fn source_beside<D>(
    dataset: D,
    sparse: bool,
    model: impl FnOnce() -> Model,
) -> (BatchSource<D>, Model)
where
    D: Deref<Target = DenseDataset> + Send,
{
    if !sparse {
        let model = model();
        return (BatchSource::new(dataset, false), model);
    }
    std::thread::scope(|s| {
        let src = s.spawn(move || BatchSource::new(dataset, true));
        let model = model();
        match src.join() {
            Ok(src) => (src, model),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// One persistent scratch set per gradient lane — batch staging and the
/// forward/backward workspace, all reused across batches, so a steady-state
/// lane performs zero heap allocations (DESIGN.md §4j).
pub(crate) struct Lane {
    pub(crate) ws: Workspace,
    /// Dense staging; stays empty on sparse runs.
    pub(crate) x: Matrix,
    /// CSR staging; stays empty on dense runs.
    csr: CsrBatch,
    pub(crate) labels: Labels,
}

impl Lane {
    pub(crate) fn new(spec: &MlpSpec) -> Self {
        Lane {
            ws: Workspace::new(spec),
            x: Matrix::zeros(0, 0),
            csr: CsrBatch::new(),
            labels: Labels::Classes(Vec::new()),
        }
    }

    /// Copy examples `s..e` of the run's data into the staging buffers.
    // audit: no_alloc
    pub(crate) fn stage<D>(&mut self, src: &BatchSource<D>, s: usize, e: usize)
    where
        D: Deref<Target = DenseDataset>,
    {
        match &src.csr {
            Some(csr) => {
                src.dataset.labels.slice_into(s, e, &mut self.labels);
                csr.slice_rows_into(s, e, &mut self.csr);
            }
            None => src.dataset.batch_into(s, e, &mut self.x, &mut self.labels),
        }
    }

    /// Loss of the staged batch at `model`; its gradient stays in the
    /// lane's workspace — globally exact in either format (true zeros in the
    /// layer-0 rows of features a CSR batch never touched), so clipping, poisoning
    /// and health scans of `ws.grad()` need not know the format.
    // audit: no_alloc
    pub(crate) fn gradient<D>(&mut self, src: &BatchSource<D>, model: &Model, parallel: bool) -> f32
    where
        D: Deref<Target = DenseDataset>,
    {
        let x = src.input(&self.x, &self.csr);
        let targets = self.labels.as_targets();
        self.ws
            .loss_and_gradient_into(model, x, targets, parallel)
            .0
    }

    /// Input features the stored gradient's layer 0 is confined to
    /// (`None`: dense).
    pub(crate) fn active_cols(&self) -> Option<&[u32]> {
        self.ws.active_cols()
    }

    /// `model ← model − eta·∇`, walking only the gradient's own layer-0
    /// rows when it is row-sparse (plus biases and the later layers).
    // audit: no_alloc
    pub(crate) fn apply_to(&self, model: &mut Model, eta: f32) {
        match self.ws.active_cols() {
            Some(cols) => model.apply_gradient_sparse(self.ws.grad(), eta, cols),
            None => model.apply_gradient(self.ws.grad(), eta),
        }
    }

    /// The Hogwild apply of the stored gradient.
    // audit: no_alloc
    pub(crate) fn apply_racy(&self, shared: &SharedModel, eta: f32) {
        shared.apply_racy(self.ws.grad(), eta, self.ws.active_cols());
    }

    /// The merge twin of [`apply_racy`](Self::apply_racy), for a lane that
    /// stands in for a GPU replica: the same gradient over the same rows,
    /// added as a stripe-owning merger (exact against other mergers) and
    /// scanned into `scan` when given. Returns the stripes found owned.
    // audit: no_alloc
    pub(crate) fn merge_into(
        &self,
        shared: &SharedModel,
        step: f32,
        scan: Option<&mut MergeScan>,
    ) -> u64 {
        shared.merge_gradient(self.ws.grad(), step, self.ws.active_cols(), scan)
    }
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
/// plus one workspace reused by every eval.
pub(crate) struct Evaluator {
    ws: Workspace,
    x: Matrix,
    /// On sparse runs the eval forward goes through the CSR kernels too: a
    /// dense eval over a wide sparse batch would cost more than the training
    /// steps it measures and stall the coordinator's dispatch. Its rows are
    /// picked from the run's CSR copy, so nothing scans the dense matrix.
    csr: Option<CsrMatrix>,
    labels: Labels,
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
        let (x, csr) = match &src.csr {
            Some(csr) => (Matrix::zeros(0, 0), Some(csr.select_rows(rows))),
            None => (gather(&data.x, rows), None),
        };
        Evaluator {
            ws: Workspace::new(spec),
            x,
            csr,
            labels,
        }
    }

    /// Number of examples scored per eval.
    pub(crate) fn rows(&self) -> usize {
        self.labels.len()
    }

    /// `(loss, accuracy)` of `model` on the eval batch. The forward pass
    /// fans out to whatever rayon pool the caller installed.
    pub(crate) fn score(&mut self, model: &Model) -> (f32, f32) {
        let x = match &self.csr {
            Some(csr) => Input::Csr(csr.view()),
            None => Input::Dense(&self.x),
        };
        let probs = self.ws.forward_into(model, x, true).probs();
        let targets = self.labels.as_targets();
        (
            hetero_nn::loss(probs, targets, model.spec().loss),
            hetero_nn::accuracy(probs, targets),
        )
    }
}

/// Scattered rows of `m`, stacked in the order given.
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
    use crate::adaptive::WorkerBatchState;
    use crate::config::AlgorithmKind;
    use crate::coordinator::{RunCtx, Setup};
    use crate::engine_sim::{SimEngine, SimEngineConfig};
    use crate::engine_threads::{ThreadedEngine, ThreadedEngineConfig};
    use crate::fault::FaultPlan;
    use crate::metrics::WorkerKind;
    use hetero_data::SynthConfig;
    use hetero_nn::InitScheme;
    use hetero_sim::GpuModel;
    use hetero_trace::{TimeDomain, TraceSink};
    use std::sync::Arc;
    use std::time::Instant;

    type Source = BatchSource<Arc<DenseDataset>>;

    /// A ~30 %-dense dataset plus a dense and a CSR source over it.
    fn sources() -> (Source, Source) {
        let mut d = SynthConfig::small(60, 12, 2, 7).generate();
        for (i, v) in d.x.as_mut_slice().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let d = Arc::new(d);
        (
            BatchSource::new(Arc::clone(&d), false),
            BatchSource::new(d, true),
        )
    }

    fn model() -> Model {
        Model::new(MlpSpec::tiny(12, 2), InitScheme::Xavier, 5)
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
        let (la, lb) = (a.gradient(&dense, &m, false), b.gradient(&csr, &m, false));
        assert!((la - lb).abs() < 1e-4, "{la} vs {lb}");
        assert!(a.active_cols().is_none() && b.active_cols().is_some());
        for (x, y) in a.ws.grad().flatten().iter().zip(b.ws.grad().flatten()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        let (mut ma, mut mb) = (m.clone(), m.clone());
        a.apply_to(&mut ma, 0.5);
        b.apply_to(&mut mb, 0.5);
        for (x, y) in ma.flatten().iter().zip(mb.flatten()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
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
        for (i, &r) in rows.iter().enumerate() {
            assert_eq!(on_dense.x.row(i), dense.dataset.x.row(r));
        }
        let ((l1, a1), (l2, a2)) = (on_dense.score(&m), on_csr.score(&m));
        assert!((l1 - l2).abs() < 1e-5, "{l1} vs {l2}");
        assert!((a1 - a2).abs() < 1e-5, "{a1} vs {a2}");
    }

    /// A workspace that served a CSR batch and then a dense one holds a
    /// dense gradient: no row set describes it, and applying it through
    /// the lane must reach every layer-0 row.
    #[test]
    fn dense_step_after_csr_step_forgets_the_csr_columns() {
        let (dense, csr) = sources();
        let m = model();
        let mut lane = Lane::new(m.spec());
        lane.stage(&csr, 0, 4);
        lane.gradient(&csr, &m, false);
        assert!(lane.active_cols().is_some_and(|c| !c.is_empty()));
        lane.stage(&dense, 20, 50);
        lane.gradient(&dense, &m, false);
        assert!(lane.ws.active_cols().is_none());
        assert!(lane.ws.sparse_active_cols().is_empty());
        let (mut via_lane, mut reference) = (m.clone(), m.clone());
        lane.apply_to(&mut via_lane, 0.5);
        reference.apply_gradient(lane.ws.grad(), 0.5);
        assert_eq!(via_lane, reference);
    }

    #[test]
    fn start_up_returns_the_serial_model_and_csr_copy() {
        let (dense, _) = sources();
        let data: &DenseDataset = &dense.dataset;
        let spec = MlpSpec::tiny(12, 2);
        for sparse in [false, true] {
            let train = TrainConfig {
                sparse_input: sparse,
                seed: 11,
                ..TrainConfig::default()
            };
            let ctx = RunCtx::default();
            let mut co = Coordinator::new(
                Setup {
                    engine: "test",
                    domain: TimeDomain::Wall,
                    algorithm: "test",
                    train: &train,
                    dataset: data,
                    layers: spec.num_layers(),
                    workers: vec![(WorkerKind::Cpu, WorkerBatchState::new(4, 4, 4))],
                },
                &ctx,
            );
            let (src, model) = start_up(data, &spec, &train, &mut co, None);
            assert_eq!(model, Model::new(spec.clone(), train.init, train.seed));
            assert_eq!(src.csr, sparse.then(|| data.to_csr()));
            assert!(std::ptr::eq(src.dataset, data));
        }
    }

    #[test]
    #[should_panic(expected = "initialiser blew up")]
    fn panicking_model_half_panics_the_caller() {
        let (dense, _) = sources();
        source_beside(Arc::clone(&dense.dataset), true, || {
            panic!("initialiser blew up")
        });
    }

    /// A dataset handle whose every use panics — on the compression
    /// thread, since nothing else touches it before the join.
    struct Bomb;

    impl Deref for Bomb {
        type Target = DenseDataset;
        fn deref(&self) -> &DenseDataset {
            panic!("compression blew up")
        }
    }

    #[test]
    #[should_panic(expected = "compression blew up")]
    fn panicking_compression_half_panics_the_caller() {
        source_beside(Bomb, true, model);
    }

    /// The loss before any update depends on the seed, the spec and the
    /// data — not on the engine, its schedule or its clock. Start-up is
    /// outside that clock, and both engines say how long it took.
    #[test]
    fn sim_and_threaded_agree_on_the_initial_point() {
        let (dense, _) = sources();
        let data = Arc::clone(&dense.dataset);
        let startup_s = |sink: &TraceSink| {
            let gauges = sink.drain().counters;
            let found = gauges.iter().find(|(name, _)| name == "engine.startup_s");
            found.expect("engine.startup_s").1
        };
        for sparse in [false, true] {
            let train = TrainConfig {
                algorithm: AlgorithmKind::CpuGpuHogbatch,
                sparse_input: sparse,
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
            assert!(startup_s(&sink) > 0.0);

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
            let startup = startup_s(&sink);
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
        }
    }
}
