//! Measured (not asserted-by-inspection) allocation-freedom of a warm
//! training step. Sparse, on real-sim-wide batches whose support spans many
//! blocks of layer 0: CSR batch staging and the CSR step (`CsrStep`:
//! support, block cut and tail read; the blocked loss+gradient pass; each
//! block scattered and written; the tail write) — on the shared model a
//! Hogwild lane's racy, scanned, and the GPU worker's, with the
//! device-ledger reservation and the link's charge around its scanned
//! stripe-owning merge (uncontended, and beside a second merger); and the
//! simulator's CPU wave, from a snapshot into its live model, scanned.
//! Dense: the serial loss+gradient pass and the plain apply the CPU Hogwild
//! lanes run, and the GPU worker's step on dense batches. Eval: the
//! threaded evaluator's score of the shared model on a sparse run, the same
//! step's forward with layer 0 read where it lives.
//! None may touch the heap once buffers are warmed — they run per batch or
//! per eval inside every engine's hot loop.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide: mixing a counting allocator into the unit-test binary
//! would perturb every other test's numbers.

use hetero_bench::alloc_count::{allocs_in, CountingAlloc};
use hetero_data::SynthConfig;
use hetero_gpu::{DeviceMemory, Footprint, Link};
use hetero_nn::{
    Activation, CsrStep, InitScheme, L0Write, Layer0, LossKind, MergeScan, MlpSpec, Model,
    SharedModel, SupportRead, Targets, Workspace,
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
    // Real-sim's width and density at its benchmark net's layer-0 width: a
    // 256-row batch's support spans about ten blocks of layer 0.
    let data = SynthConfig {
        density: 0.0025,
        ..SynthConfig::small(1024, 20_958, 2, 42)
    }
    .generate();
    // The stand-in is stored as CSR and engines slice batches from that
    // store; the steps under test mirror that staging.
    let csr_all = data.to_csr();
    let spec = MlpSpec {
        hidden: vec![64],
        ..MlpSpec::tiny(data.features(), data.num_classes())
    };
    (data, csr_all, spec)
}

#[test]
fn warm_cpu_sparse_step_is_allocation_free() {
    let (data, csr_all, spec) = sparse_fixture();
    let model = Model::new(spec.clone(), InitScheme::Xavier, 7);
    let shared = SharedModel::new(&model);
    let mut at = CsrStep::new(&spec);
    let mut ws = Workspace::new(&spec);
    let mut csr = CsrBatch::new();
    let mut labels = data.labels.slice(0, 1);
    let mut scan = MergeScan::new(spec.num_layers());
    let (s, e) = (0, 256);
    let n = allocs_in(|| {
        // The exact per-batch sequence of `HogwildLane::lane_step` on the
        // sparse path under a watchdog (`Lane::step_shared`).
        data.labels.slice_into(s, e, &mut labels);
        csr_all.slice_rows_into(s, e, &mut csr);
        let from = Layer0::Shared(&shared);
        at.read(from, &mut csr);
        ws.loss_and_gradient_blocks(&mut at, from, csr.view(), labels.as_targets());
        scan.reset();
        let to = &mut L0Write::Racy(&shared);
        at.write_l0(&ws, csr.view(), 0.01, to, Some(&mut scan));
        hetero_nn::scan_model(ws.grad(), &mut scan);
        shared.apply_racy(ws.grad(), 0.01, Some(&[]));
    });
    assert!(at.support().len() > 4 * 1024, "{} rows", at.support().len());
    assert_eq!(n, 0, "warm CPU sparse step allocated {n} times");
}

/// A warm simulated CPU wave on a sparse run — one run of its lanes read
/// from the wave's base and written into the live model, block by block,
/// scanned, then its tail, and the next wave's base copied — allocates
/// nothing.
#[test]
fn warm_sim_sparse_wave_is_allocation_free() {
    let (data, csr_all, spec) = sparse_fixture();
    let mut model = Model::new(spec.clone(), InitScheme::Xavier, 5);
    let mut base = model.clone();
    let mut at = CsrStep::new(&spec);
    let mut ws = Workspace::new(&spec);
    let mut csr = CsrBatch::new();
    let mut labels = data.labels.slice(0, 1);
    let mut scan = MergeScan::new(spec.num_layers());
    let (s, e) = (512, 768);
    let n = allocs_in(|| {
        // The exact per-run sequence of `SimScratch::run_waves` on the
        // sparse path under a watchdog (`Lane::step_model`).
        data.labels.slice_into(s, e, &mut labels);
        csr_all.slice_rows_into(s, e, &mut csr);
        let from = Layer0::Model(&base);
        at.read(from, &mut csr);
        ws.loss_and_gradient_blocks(&mut at, from, csr.view(), labels.as_targets());
        scan.reset();
        let mut to = L0Write::Model(&mut model);
        at.write_l0(&ws, csr.view(), 0.01, &mut to, Some(&mut scan));
        hetero_nn::scan_model(ws.grad(), &mut scan);
        model.apply_tail(ws.grad(), 0.01);
        base.copy_from(&model);
    });
    assert!(at.support().len() > 4 * 1024, "{} rows", at.support().len());
    assert_eq!(
        ws.grad().layers()[0].w.capacity(),
        0,
        "a layer-0 gradient row"
    );
    assert_eq!(n, 0, "warm simulated sparse wave allocated {n} times");
}

/// A warm eval of the shared model on a sparse run — its tail read, the
/// block forward over the eval rows renumbered once, layer 0 read where it
/// lives, loss and accuracy — allocates nothing.
#[test]
fn warm_sparse_eval_is_allocation_free() {
    let (data, csr_all, spec) = sparse_fixture();
    let shared = SharedModel::drawn(spec.clone(), InitScheme::Xavier, 13);
    let rows: Vec<usize> = (0..data.len()).step_by(3).collect();
    let hetero_data::Labels::Classes(classes) = &data.labels else {
        panic!("real-sim is single-label")
    };
    let classes: Vec<u32> = rows.iter().map(|&r| classes[r]).collect();
    let (mut x, mut at) = (CsrBatch::new(), CsrStep::new(&spec));
    csr_all
        .select_rows(&rows)
        .slice_rows_into(0, rows.len(), &mut x);
    at.renumber(&mut x);
    let mut ws = Workspace::new(&spec);
    // The exact per-eval sequence of the threaded `Evaluator::score_shared`.
    let n = allocs_in(|| {
        let probs = ws
            .forward_blocks(&mut at, Layer0::Shared(&shared), x.view())
            .probs();
        let targets = Targets::Classes(&classes);
        hetero_nn::loss(probs, targets, spec.loss);
        hetero_nn::accuracy(probs, targets);
    });
    assert_eq!(n, 0, "warm sparse eval allocated {n} times");
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
        shared.merge_gradient(ws.grad(), 0.05, None, Some(&mut scan));
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
    let mut at = CsrStep::new(&spec);
    let mut ws = Workspace::new(&spec);
    let mut csr = CsrBatch::new();
    let mut labels = data.labels.slice(0, 1);
    let mut scan = MergeScan::new(spec.hidden.len() + 1);
    let (s, e) = (256, 512);
    let sink = TraceSink::wall(1 << 10);
    let ((mem, link), fp, g) = (
        observed_device(&sink),
        Footprint::of(&spec),
        GpuModel::v100(),
    );
    let _resident = mem.alloc(fp.resident_bytes()).unwrap();
    // The exact per-batch sequence of `GpuWorker::batch_step` on a CSR
    // run (`Lane::step_shared`). Returns the stripes the merges found owned
    // by another merger.
    let mut step = || {
        let held = mem.alloc(fp.step_bytes(e - s)).unwrap();
        let charge = link.charge(&fp, &g, e - s, 1);
        data.labels.slice_into(s, e, &mut labels);
        csr_all.slice_rows_into(s, e, &mut csr);
        let from = Layer0::Shared(&shared);
        at.read(from, &mut csr);
        link.uploaded(&charge, sink.now());
        ws.loss_and_gradient_blocks(&mut at, from, csr.view(), labels.as_targets());
        link.downloaded(&charge, sink.now());
        mem.free(held).unwrap();
        scan.reset();
        let to = &mut L0Write::Merge(&shared);
        let (_, found) = at.write_l0(&ws, csr.view(), 0.05, to, Some(&mut scan));
        found + shared.merge_gradient(ws.grad(), 0.05, Some(&[]), Some(&mut scan))
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
