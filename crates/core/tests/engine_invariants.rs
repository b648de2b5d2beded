//! Engine-level invariant tests exercising the hetero-core public API
//! across algorithms and seeds.

use std::sync::Arc;

use hetero_core::{
    AdaptiveParams, AlgorithmKind, FaultPlan, LrScaling, RunCtx, SimEngine, SimEngineConfig,
    ThreadedEngine, ThreadedEngineConfig, TrainConfig, TrainResult, WorkerKind,
};
use hetero_data::SynthConfig;
use hetero_nn::MlpSpec;
use hetero_sim::{CpuModel, GpuModel};

fn hardware() -> (CpuModel, GpuModel) {
    (
        CpuModel {
            name: "inv-cpu".into(),
            threads: 4,
            hw_threads: 4,
            flops_small: 1e9,
            flops_large: 8e9,
            batch_half: 8.0,
            dispatch_overhead: 20e-6,
            memory: 1 << 30,
        },
        GpuModel {
            name: "inv-gpu".into(),
            peak_flops: 1e12,
            occupancy_half_batch: 64.0,
            launch_overhead: 20e-6,
            transfer_latency: 5e-6,
            transfer_bandwidth: 12e9,
            memory: 1 << 30,
        },
    )
}

fn config(algo: AlgorithmKind, seed: u64) -> SimEngineConfig {
    let (cpu, gpu) = hardware();
    SimEngineConfig {
        spec: MlpSpec::tiny(8, 3),
        train: TrainConfig {
            algorithm: algo,
            lr: 0.03,
            lr_scaling: LrScaling::Sqrt {
                ref_batch: 1,
                max_lr: 0.3,
            },
            gpu_batch: 128,
            adaptive: AdaptiveParams {
                alpha: 2.0,
                beta: 1.0,
                cpu_min_batch: 4,
                cpu_max_batch: 256,
                gpu_min_batch: 16,
                gpu_max_batch: 128,
            },
            time_budget: 0.03,
            eval_interval: 0.01,
            eval_subsample: 256,
            seed,
            ..TrainConfig::default()
        },
        cpu,
        gpus: vec![gpu],
        tf_op_overhead: 20e-6,
        tf_multilabel_penalty: 3.0,
        fault_plan: FaultPlan::none(),
    }
}

fn dataset(seed: u64) -> hetero_data::DenseDataset {
    let mut cfg = SynthConfig::small(500, 8, 3, seed);
    cfg.separability = 2.5;
    let mut d = cfg.generate();
    d.standardize();
    d
}

#[test]
fn every_algorithm_produces_valid_metrics() {
    let data = dataset(1);
    for algo in AlgorithmKind::all() {
        let r = SimEngine::new(config(algo, 1)).unwrap().run(&data);
        // Structural invariants on the result record.
        assert!(!r.loss_curve.is_empty(), "{}: empty curve", r.algorithm);
        assert!(
            r.loss_curve
                .iter()
                .all(|p| p.loss.is_finite() && p.loss >= 0.0),
            "{}: bad loss values",
            r.algorithm
        );
        assert!(r.epochs >= 0.0);
        assert!(r.total_updates() > 0.0, "{}: no updates", r.algorithm);
        // Worker kinds match the algorithm's device usage.
        let has_cpu = r
            .workers
            .iter()
            .any(|w| w.kind == WorkerKind::Cpu && w.batches > 0);
        let has_gpu = r
            .workers
            .iter()
            .any(|w| w.kind == WorkerKind::Gpu && w.batches > 0);
        assert_eq!(
            has_cpu,
            algo.uses_cpu(),
            "{}: CPU usage mismatch",
            r.algorithm
        );
        assert_eq!(
            has_gpu,
            algo.uses_gpu(),
            "{}: GPU usage mismatch",
            r.algorithm
        );
        // Examples served per worker sum to epochs × dataset, up to the
        // batches still in flight when the budget expired (assigned by the
        // scheduler but never completed).
        let served: u64 = r.workers.iter().map(|w| w.examples).sum();
        let expected = (r.epochs * data.len() as f64).round() as u64;
        assert!(
            served <= expected,
            "{}: served more than scheduled",
            r.algorithm
        );
        let in_flight = expected - served;
        let max_outstanding = (r.workers.len() as u64) * 256;
        assert!(
            in_flight <= max_outstanding,
            "{}: {in_flight} unaccounted examples",
            r.algorithm
        );
    }
}

#[test]
fn different_seeds_different_trajectories() {
    let data = dataset(2);
    let r1 = SimEngine::new(config(AlgorithmKind::CpuGpuHogbatch, 10))
        .unwrap()
        .run(&data);
    let r2 = SimEngine::new(config(AlgorithmKind::CpuGpuHogbatch, 11))
        .unwrap()
        .run(&data);
    // Different model init ⇒ different loss values (same schedule though).
    assert_ne!(r1.initial_loss(), r2.initial_loss());
}

#[test]
fn result_serde_roundtrip() {
    let data = dataset(3);
    let r = SimEngine::new(config(AlgorithmKind::AdaptiveHogbatch, 5))
        .unwrap()
        .run(&data);
    let json = serde_json::to_string(&r).expect("serialize");
    let back: hetero_core::TrainResult = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.algorithm, r.algorithm);
    assert_eq!(back.loss_curve.len(), r.loss_curve.len());
    assert_eq!(back.workers.len(), r.workers.len());
    assert_eq!(back.final_loss(), r.final_loss());
}

#[test]
fn time_budget_scales_work_linearly() {
    // Double the virtual budget ⇒ roughly double the examples processed.
    let data = dataset(4);
    let mut c1 = config(AlgorithmKind::MiniBatchGpu, 6);
    c1.train.time_budget = 0.02;
    let mut c2 = config(AlgorithmKind::MiniBatchGpu, 6);
    c2.train.time_budget = 0.04;
    let r1 = SimEngine::new(c1).unwrap().run(&data);
    let r2 = SimEngine::new(c2).unwrap().run(&data);
    let ratio = r2.epochs / r1.epochs.max(1e-9);
    assert!(
        (1.6..=2.4).contains(&ratio),
        "work did not scale with budget: {ratio}"
    );
}

/// Real-sim-shaped synthetic data: wide, ~0.25% nonzero — the regime the
/// CSR fast path (`TrainConfig::sparse_input`) exists for.
fn sparse_dataset() -> hetero_data::DenseDataset {
    hetero_data::PaperDataset::RealSim.generate(0.005, 9)
}

#[test]
fn sparse_sim_run_matches_dense() {
    // Same engine, schedule, and seed; the only difference is the execution
    // path. The sim applies batches deterministically, so sparse and dense
    // runs see identical data order and the final losses must agree up to
    // accumulation-order float noise in the kernels.
    let data = sparse_dataset();
    let run = |sparse: bool| {
        let mut c = config(AlgorithmKind::CpuGpuHogbatch, 12);
        c.spec = MlpSpec::tiny(data.features(), data.num_classes());
        c.train.sparse_input = sparse;
        SimEngine::new(c).unwrap().run(&data)
    };
    let dense = run(false);
    let sparse = run(true);
    assert!(sparse.total_updates() > 0.0, "sparse path made no updates");
    assert_eq!(
        sparse.total_updates(),
        dense.total_updates(),
        "execution path changed the schedule"
    );
    let (d, s) = (dense.final_loss(), sparse.final_loss());
    assert!(
        (d - s).abs() <= d.abs() * 0.05 + 1e-3,
        "sparse/dense final loss diverged: {s} vs {d}"
    );
}

#[test]
fn sparse_threaded_run_trains() {
    // End-to-end wall-clock run through the threaded engine's sparse path:
    // CSR staging, sparse CPU lanes, sparse GPU replica + row-sparse merge.
    use std::sync::Arc;
    let data = Arc::new(sparse_dataset());
    let base = config(AlgorithmKind::CpuGpuHogbatch, 13);
    let mut train = base.train;
    train.sparse_input = true;
    train.time_budget = 0.3;
    train.cpu_batch_per_thread = 8;
    train.eval_interval = 0.05;
    let engine = hetero_core::ThreadedEngine::new(hetero_core::ThreadedEngineConfig {
        spec: MlpSpec::tiny(data.features(), data.num_classes()),
        train,
        cpu_threads: 2,
        gpu_perf: GpuModel::v100(),
        gpu_workers: 1,
        fault_plan: FaultPlan::none(),
    })
    .unwrap()
    .run(Arc::clone(&data));
    assert!(engine.total_updates() > 0.0, "no updates on sparse path");
    assert!(engine.final_loss().is_finite());
    assert!(
        engine.final_loss() < engine.initial_loss(),
        "sparse training did not reduce loss: {} -> {}",
        engine.initial_loss(),
        engine.final_loss()
    );
}

#[test]
fn beta_discounts_cpu_update_credit() {
    // With β = 0.5 the CPU is credited half the updates; the controller
    // sees a slower CPU and the reported CPU share drops.
    let data = dataset(5);
    let full = SimEngine::new(config(AlgorithmKind::CpuGpuHogbatch, 7))
        .unwrap()
        .run(&data);
    let mut half_cfg = config(AlgorithmKind::CpuGpuHogbatch, 7);
    half_cfg.train.adaptive.beta = 0.5;
    let half = SimEngine::new(half_cfg).unwrap().run(&data);
    let cpu_updates = |r: &hetero_core::TrainResult| {
        r.workers
            .iter()
            .filter(|w| w.kind == WorkerKind::Cpu)
            .map(|w| w.updates)
            .sum::<f64>()
    };
    // Same schedule (static batches), so credited updates halve exactly.
    assert!(
        (cpu_updates(&half) - cpu_updates(&full) * 0.5).abs() < 1.0,
        "beta crediting: {} vs {}",
        cpu_updates(&half),
        cpu_updates(&full)
    );
}

/// A default `RunCtx` is the run without one, on both engines: bit-for-bit
/// on the virtual clock, and the same shape (real threads cannot repeat a
/// schedule) with no abort and no re-queue on the threaded one.
#[test]
fn run_with_default_ctx_equals_run_on_every_engine() {
    let data = Arc::new(dataset(3));
    let sim_cfg = config(AlgorithmKind::AdaptiveHogbatch, 3);
    let (_, gpu) = hardware();
    let mut wall = sim_cfg.train.clone();
    wall.time_budget = 0.3;
    wall.eval_interval = 0.1;
    let threaded = ThreadedEngine::new(ThreadedEngineConfig {
        spec: sim_cfg.spec.clone(),
        train: wall,
        cpu_threads: 2,
        gpu_perf: gpu,
        gpu_workers: 1,
        fault_plan: FaultPlan::none(),
    })
    .unwrap();
    let sim = SimEngine::new(sim_cfg).unwrap();
    let ctx = RunCtx::default();

    type Run<'a> = Box<dyn Fn() -> TrainResult + 'a>;
    let table: [(&str, bool, Run, Run); 2] = [
        (
            "sim",
            true,
            Box::new(|| sim.run(&data)),
            Box::new(|| sim.run_with(&data, &ctx)),
        ),
        (
            "threaded",
            false,
            Box::new(|| threaded.run(Arc::clone(&data))),
            Box::new(|| threaded.run_with(Arc::clone(&data), &ctx)),
        ),
    ];
    for (engine, deterministic, run, run_with) in &table {
        let (a, b) = (run(), run_with());
        if *deterministic {
            assert_eq!(a.loss_curve, b.loss_curve, "{engine}: curve moved");
            assert_eq!(a.epochs, b.epochs, "{engine}: epochs moved");
        }
        for r in [&a, &b] {
            assert!(r.loss_curve.len() >= 3, "{engine}: {:?}", r.loss_curve);
            assert!(r.final_loss() < r.initial_loss(), "{engine}: no progress");
            assert!(r.aborted.is_none(), "{engine}: {:?}", r.aborted);
            assert_eq!(r.requeued_batches, 0, "{engine}: re-queued a batch");
            assert!(r.health.is_none() && r.staleness.is_none(), "{engine}");
        }
        assert_eq!(a.algorithm, b.algorithm);
        assert_eq!(a.workers.len(), b.workers.len(), "{engine}: worker slots");
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.kind, wb.kind);
            assert!(wa.retired.is_none() && wb.retired.is_none());
        }
    }
}
