//! Measured (not asserted-by-inspection) allocation-freedom of a warm
//! training step. Sparse: CSR batch staging, the sparse loss+gradient
//! pass, the column-restricted racy apply, and the row-sparse scanned
//! gradient merge (uncontended, and beside a second merger). Dense: the serial loss+gradient pass and the plain apply the
//! CPU Hogwild lanes run (the rayon path necessarily allocates —
//! scoped-thread spawns — and is excluded by design). None may touch the
//! heap once buffers are warmed — they run per batch inside every
//! engine's hot loop.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide: mixing a counting allocator into the unit-test binary
//! would perturb every other test's numbers.

use hetero_bench::alloc_count::{allocs_in, CountingAlloc};
use hetero_data::PaperDataset;
use hetero_nn::{
    Activation, InitScheme, LossKind, MergeScan, MlpSpec, Model, SharedModel, Targets, Workspace,
};
use hetero_tensor::{CsrBatch, CsrMatrix, Matrix};
use std::sync::atomic::{AtomicBool, Ordering};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn sparse_fixture() -> (hetero_data::DenseDataset, CsrMatrix, MlpSpec) {
    let data = PaperDataset::RealSim.generate(0.01, 42);
    // Engines compress the feature matrix once per run and slice batches
    // from the CSR copy; the step under test mirrors that staging.
    let csr_all = data.to_csr();
    let spec = MlpSpec::tiny(data.features(), data.num_classes());
    (data, csr_all, spec)
}

#[test]
fn warm_cpu_sparse_step_is_allocation_free() {
    let (data, csr_all, spec) = sparse_fixture();
    let model = Model::new(spec.clone(), InitScheme::Xavier, 7);
    let shared = SharedModel::new(&model);
    let mut local = Model::zeros_like(&spec);
    let mut ws = Workspace::new(&spec);
    let mut csr = CsrBatch::new();
    let mut labels = data.labels.slice(0, 1);
    let (s, e) = (0, 64.min(data.len()));
    let n = allocs_in(|| {
        // The exact per-batch sequence of `cpu_lane_step` on the sparse path.
        shared.snapshot_into(&mut local);
        data.labels.slice_into(s, e, &mut labels);
        csr_all.slice_rows_into(s, e, &mut csr);
        ws.loss_and_gradient_into(&local, csr.view(), labels.as_targets(), false);
        shared.apply_racy(ws.grad(), 0.01, ws.active_cols());
    });
    assert_eq!(n, 0, "warm CPU sparse step allocated {n} times");
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
    let mut model = Model::new(spec.clone(), InitScheme::default(), 7);
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
fn warm_sparse_merge_step_is_allocation_free() {
    let (data, csr_all, spec) = sparse_fixture();
    let model = Model::new(spec.clone(), InitScheme::Xavier, 11);
    let shared = SharedModel::new(&model);
    let mut snapshot = Model::zeros_like(&spec);
    let mut ws = Workspace::new(&spec);
    let mut csr = CsrBatch::new();
    let mut labels = data.labels.slice(0, 1);
    let mut scan = MergeScan::new(spec.hidden.len() + 1);
    let (s, e) = (0, 64.min(data.len()));
    // The exact per-batch sequence of `gpu_batch_step` on a CSR run, minus
    // the rayon install (parallel=false keeps the measurement in one thread
    // — the kernels themselves are what is under test). Returns the stripes
    // the merge found owned by another merger.
    let mut step = || {
        shared.snapshot_into(&mut snapshot);
        data.labels.slice_into(s, e, &mut labels);
        csr_all.slice_rows_into(s, e, &mut csr);
        ws.loss_and_gradient_into(&snapshot, csr.view(), labels.as_targets(), false);
        scan.reset();
        shared.merge_gradient(ws.grad(), 0.05, ws.active_cols(), Some(&mut scan))
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
