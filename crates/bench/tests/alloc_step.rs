//! Measured (not asserted-by-inspection) allocation-freedom of a warm
//! training step. Sparse: CSR batch staging, the read of the batch's
//! support from the shared model, the sparse loss+gradient pass at it (the
//! gradient taking the read's layer-0 buffer over), the support-restricted
//! racy apply, and the GPU worker's step — device-ledger reservation and
//! the link's charge around the row-sparse scanned gradient merge
//! (uncontended, and beside a second merger). A batch whose support
//! outgrows every earlier one grows the one layer-0 buffer a worker holds
//! once, and is allocation-free when repeated. Dense: the serial
//! loss+gradient pass and the plain apply the CPU Hogwild lanes run, and
//! the GPU worker's step on dense batches. Eval: the threaded evaluator's
//! score of the shared model, layer 0 read where it lives, on a sparse run.
//! None may touch the heap once buffers are warmed — they run per batch or
//! per eval inside every engine's hot loop.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide: mixing a counting allocator into the unit-test binary
//! would perturb every other test's numbers.

use hetero_bench::alloc_count::{allocs_in, CountingAlloc};
use hetero_data::{PaperDataset, SynthConfig};
use hetero_gpu::{DeviceMemory, Footprint, Link};
use hetero_nn::{
    Activation, ColumnBatch, InitScheme, Layer0, LossKind, MergeScan, MlpSpec, Model, SharedModel,
    SupportRead, Targets, Workspace,
};
use hetero_sim::GpuModel;
use hetero_tensor::{CsrBatch, CsrMatrix, Matrix};
use hetero_trace::TraceSink;
use std::sync::atomic::{AtomicBool, Ordering};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A GPU worker's device as a traced run builds it: a ledger mirrored into
/// its gauge and a link whose charges emit events and fill live
/// histograms, all through one enabled sink (its ring is preallocated, so
/// a warm push never grows it).
fn observed_device(sink: &TraceSink) -> (DeviceMemory, Link) {
    let gauge = sink.gauge("gpu.w1.mem_used_bytes");
    let mem = DeviceMemory::with_gauge(GpuModel::v100().memory, gauge);
    (mem, Link::new(sink, 1))
}

fn sparse_fixture() -> (hetero_data::DenseDataset, CsrMatrix, MlpSpec) {
    let data = PaperDataset::RealSim.generate(0.01, 42);
    // The real-sim stand-in is stored as CSR and engines slice batches
    // from that store; the step under test mirrors that staging.
    let csr_all = data.to_csr();
    let spec = MlpSpec::tiny(data.features(), data.num_classes());
    (data, csr_all, spec)
}

#[test]
fn warm_cpu_sparse_step_is_allocation_free() {
    let (data, csr_all, spec) = sparse_fixture();
    let model = Model::new(spec.clone(), InitScheme::Xavier, 7);
    let shared = SharedModel::new(&model);
    let mut at = SupportRead::new(&spec);
    let mut ws = Workspace::new(&spec);
    let mut csr = CsrBatch::new();
    let mut labels = data.labels.slice(0, 1);
    let (s, e) = (0, 64.min(data.len()));
    let n = allocs_in(|| {
        // The exact per-batch sequence of `HogwildLane::lane_step` on the sparse path.
        data.labels.slice_into(s, e, &mut labels);
        csr_all.slice_rows_into(s, e, &mut csr);
        at.read_csr(&mut ws, &shared, &mut csr);
        ws.loss_and_gradient_at(&mut at, csr.view(), labels.as_targets(), false);
        shared.apply_racy(ws.grad(), 0.01, at.support());
    });
    assert_eq!(n, 0, "warm CPU sparse step allocated {n} times");
}

/// A warm eval of the shared model on a sparse run — its tail read, the
/// tiled column forward over the eval rows with layer 0 read by reference,
/// loss and accuracy — allocates nothing.
#[test]
fn warm_sparse_eval_is_allocation_free() {
    let (data, csr_all, spec) = sparse_fixture();
    let shared = SharedModel::drawn(spec.clone(), InitScheme::Xavier, 13);
    let rows: Vec<usize> = (0..data.len()).step_by(3).collect();
    let hetero_data::Labels::Classes(classes) = &data.labels else {
        panic!("real-sim is single-label")
    };
    let classes: Vec<u32> = rows.iter().map(|&r| classes[r]).collect();
    let mut x = ColumnBatch::new(csr_all.view(), &rows);
    let mut held = Model::zeros_with_l0_rows(&spec, 0);
    let mut ws = Workspace::new(&spec);
    // The exact per-eval sequence of the threaded `Evaluator::score_shared`.
    let n = allocs_in(|| {
        shared.read_rows(Some(&[]), &mut held);
        let probs = ws
            .forward_columns_into(Layer0::Shared(&shared), &held, &mut x)
            .probs();
        let targets = Targets::Classes(&classes);
        hetero_nn::loss(probs, targets, spec.loss);
        hetero_nn::accuracy(probs, targets);
    });
    assert_eq!(n, 0, "warm sparse eval allocated {n} times");
}

/// Distinct columns of rows `s..e`.
fn support_of(csr: &CsrMatrix, s: usize, e: usize) -> usize {
    let mut cols: Vec<usize> = (s..e)
        .flat_map(|r| csr.row_iter(r).map(|(c, _)| c))
        .collect();
    cols.sort_unstable();
    cols.dedup();
    cols.len()
}

/// A batch whose support outgrows every earlier one — past the quarter of
/// headroom layer 0 keeps — grows the one layer-0 buffer the read and the
/// gradient pass between them: one allocation and nothing else, and
/// repeating it allocates nothing. The batch buffers are sized for the larger batch up front, and
/// the kernels' per-thread scratch is warmed at it on buffers of its own.
#[test]
fn a_larger_support_grows_once() {
    let (data, csr_all, spec) = sparse_fixture();
    let (warm, larger) = (16, 64);
    let (k_warm, k_larger) = (
        support_of(&csr_all, 0, warm),
        support_of(&csr_all, 0, larger),
    );
    assert!(4 * k_larger > 5 * k_warm, "{k_larger} rows vs {k_warm}");
    let shared = SharedModel::new(&Model::new(spec.clone(), InitScheme::Xavier, 5));
    let mut csr = CsrBatch::new();
    csr.reserve(larger, csr_all.nnz());
    let mut labels = data.labels.slice(0, larger);
    let mut step = |at: &mut SupportRead, ws: &mut Workspace, e: usize| {
        data.labels.slice_into(0, e, &mut labels);
        csr_all.slice_rows_into(0, e, &mut csr);
        at.read_csr(ws, &shared, &mut csr);
        ws.loss_and_gradient_at(at, csr.view(), labels.as_targets(), false);
        shared.apply_racy(ws.grad(), 0.01, at.support());
    };
    let fresh = || {
        (
            SupportRead::new(&spec),
            Workspace::with_batch_capacity(&spec, larger),
        )
    };
    let (mut at, mut ws) = fresh();
    step(&mut at, &mut ws, larger);
    // Warm at the small batch, then count the larger one's first step.
    let (mut at, mut ws) = fresh();
    let mut calls = 0;
    let grown = allocs_in(|| {
        step(&mut at, &mut ws, if calls == 0 { warm } else { larger });
        calls += 1;
    });
    assert_eq!(grown, 1, "growing the support allocated {grown} times");
    let n = allocs_in(|| step(&mut at, &mut ws, larger));
    assert_eq!(n, 0, "a repeated larger support allocated {n} times");
}

#[test]
fn warm_dense_step_is_allocation_free() {
    // Covtype-shaped net at the paper's width: 54 -> 512 -> 512 -> 2.
    let spec = MlpSpec {
        input_dim: 54,
        hidden: vec![512, 512],
        classes: 2,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let batch = 256;
    let mut model = Model::new(spec.clone(), InitScheme::PaperNormal, 7);
    let x = Matrix::from_fn(batch, spec.input_dim, |r, c| {
        ((r * 31 + c * 17) % 97) as f32 / 48.5 - 1.0
    });
    let classes: Vec<u32> = (0..batch as u32).map(|i| i % 2).collect();
    let mut ws = Workspace::with_batch_capacity(&spec, batch);
    let mut step = || {
        ws.loss_and_gradient_into(&model, &x, Targets::Classes(&classes), false);
        model.apply_gradient(ws.grad(), 0.01);
    };
    // `allocs_in` warms every buffer with one uncounted pass of the closure.
    // 100 steps catch growth that only shows every few steps; the release
    // legs in CI run them all. An unoptimized step at this width takes
    // ~0.7 s, so a debug `cargo test --workspace` settles for a handful.
    let steps = if cfg!(debug_assertions) { 4 } else { 100 };
    let n = allocs_in(|| {
        for _ in 0..steps {
            step();
        }
    });
    assert_eq!(n, 0, "warm dense step allocated {n} times");
}

#[test]
fn warm_dense_gpu_step_is_allocation_free() {
    let data = SynthConfig::small(400, 8, 2, 5).generate();
    let spec = MlpSpec::tiny(8, 2);
    let shared = SharedModel::new(&Model::new(spec.clone(), InitScheme::Xavier, 3));
    let mut at = SupportRead::new(&spec);
    let mut ws = Workspace::new(&spec);
    let (mut x, mut labels) = data.batch(0, 1);
    let mut scan = MergeScan::new(spec.hidden.len() + 1);
    let sink = TraceSink::wall(1 << 10);
    let ((mem, link), fp, g) = (
        observed_device(&sink),
        Footprint::of(&spec),
        GpuModel::v100(),
    );
    let _resident = mem.alloc(fp.resident_bytes()).unwrap();
    let (s, e) = (32, 96);
    // The exact per-batch sequence of `GpuWorker::batch_step` on a dense
    // run at a steady size.
    let n = allocs_in(|| {
        let held = mem.alloc(fp.step_bytes(e - s)).unwrap();
        data.batch_into(s, e, &mut x, &mut labels);
        at.read_all(&mut ws, &shared);
        let charge = link.charge(&fp, &g, e - s, 1);
        link.uploaded(&charge, sink.now());
        ws.loss_and_gradient_at(&mut at, &x, labels.as_targets(), false);
        link.downloaded(&charge, sink.now());
        mem.free(held).unwrap();
        scan.reset();
        shared.merge_gradient(ws.grad(), 0.05, at.support(), Some(&mut scan));
    });
    assert_eq!(n, 0, "warm dense GPU step allocated {n} times");
    let d2h = sink.summary(hetero_trace::Metric::D2h).unwrap().count;
    assert_eq!(d2h, 2, "warm-up + counted step");
}

#[test]
fn warm_sparse_merge_step_is_allocation_free() {
    let (data, csr_all, spec) = sparse_fixture();
    let model = Model::new(spec.clone(), InitScheme::Xavier, 11);
    let shared = SharedModel::new(&model);
    let mut at = SupportRead::new(&spec);
    let mut ws = Workspace::new(&spec);
    let mut csr = CsrBatch::new();
    let mut labels = data.labels.slice(0, 1);
    let mut scan = MergeScan::new(spec.hidden.len() + 1);
    let (s, e) = (0, 64.min(data.len()));
    let sink = TraceSink::wall(1 << 10);
    let ((mem, link), fp, g) = (
        observed_device(&sink),
        Footprint::of(&spec),
        GpuModel::v100(),
    );
    let _resident = mem.alloc(fp.resident_bytes()).unwrap();
    // The exact per-batch sequence of `GpuWorker::batch_step` on a CSR
    // run. Returns the stripes the merge found owned by another merger.
    let mut step = || {
        let held = mem.alloc(fp.step_bytes(e - s)).unwrap();
        data.labels.slice_into(s, e, &mut labels);
        csr_all.slice_rows_into(s, e, &mut csr);
        at.read_csr(&mut ws, &shared, &mut csr);
        let charge = link.charge(&fp, &g, e - s, 1);
        link.uploaded(&charge, sink.now());
        ws.loss_and_gradient_at(&mut at, csr.view(), labels.as_targets(), false);
        link.downloaded(&charge, sink.now());
        mem.free(held).unwrap();
        scan.reset();
        shared.merge_gradient(ws.grad(), 0.05, at.support(), Some(&mut scan))
    };
    let n = allocs_in(|| {
        step();
    });
    assert_eq!(n, 0, "warm sparse merge step allocated {n} times");

    // The same while a second merger keeps taking stripes: holding a stripe
    // back and coming back to it must not touch the heap either. Stepped
    // until a call has actually met an owned stripe.
    let (stop, other_grad) = (AtomicBool::new(false), model.clone());
    std::thread::scope(|threads| {
        threads.spawn(|| {
            // Relaxed: a stop flag, nothing is published through it.
            while !stop.load(Ordering::Relaxed) {
                shared.merge_gradient(&other_grad, 1.0e-6, None, None);
            }
        });
        // Per call of the closure (warm-up, then the counted one): stripes
        // found owned before it stopped stepping.
        let mut found_owned = Vec::with_capacity(2);
        let n = allocs_in(|| {
            let mut found = 0;
            for _ in 0..10_000 {
                found += step();
                if found > 0 {
                    break;
                }
            }
            found_owned.push(found);
        });
        stop.store(true, Ordering::Relaxed);
        assert!(
            found_owned[1] > 0,
            "no counted merge met an owned stripe: {found_owned:?}"
        );
        assert_eq!(n, 0, "contended sparse merge step allocated {n} times");
    });
}
