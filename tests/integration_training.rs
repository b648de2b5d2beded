//! Cross-crate integration tests: dataset generation → network → engines →
//! metrics, exercising the workspace exactly the way the examples and the
//! benchmark harness do.

use std::sync::Arc;

use hetero_sgd::prelude::*;

fn small_hardware() -> (CpuModel, GpuModel) {
    let cpu = CpuModel {
        name: "test-cpu".into(),
        threads: 4,
        hw_threads: 4,
        flops_small: 1e9,
        flops_large: 8e9,
        batch_half: 8.0,
        dispatch_overhead: 20e-6,
        memory: 1 << 30,
    };
    let gpu = GpuModel {
        name: "test-gpu".into(),
        peak_flops: 1e12,
        occupancy_half_batch: 64.0,
        launch_overhead: 20e-6,
        transfer_latency: 5e-6,
        transfer_bandwidth: 12e9,
        memory: 1 << 30,
    };
    (cpu, gpu)
}

fn sim_config(
    algo: AlgorithmKind,
    spec: MlpSpec,
    budget: f64,
) -> hetero_sgd::core::SimEngineConfig {
    let (cpu, gpu) = small_hardware();
    hetero_sgd::core::SimEngineConfig {
        spec,
        train: TrainConfig {
            algorithm: algo,
            lr: 0.02,
            lr_scaling: LrScaling::Sqrt {
                ref_batch: 1,
                max_lr: 0.4,
            },
            gpu_batch: 128,
            adaptive: AdaptiveParams {
                alpha: 2.0,
                beta: 1.0,
                cpu_min_batch: 4,
                cpu_max_batch: 128,
                gpu_min_batch: 16,
                gpu_max_batch: 128,
            },
            time_budget: budget,
            eval_interval: budget / 8.0,
            eval_subsample: 512,
            seed: 5,
            ..TrainConfig::default()
        },
        cpu,
        gpus: vec![gpu],
        tf_op_overhead: 20e-6,
        tf_multilabel_penalty: 3.0,
        fault_plan: FaultPlan::none(),
    }
}

#[test]
fn paper_dataset_to_convergence_pipeline() {
    // The full paper pipeline: catalog dataset → paper-depth network →
    // adaptive training → loss drops.
    let dataset = PaperDataset::W8a.generate(0.002, 9);
    let spec = MlpSpec {
        input_dim: dataset.features(),
        hidden: vec![24, 24],
        classes: dataset.num_classes(),
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let engine = SimEngine::new(sim_config(AlgorithmKind::AdaptiveHogbatch, spec, 0.1)).unwrap();
    let r = engine.run(&dataset);
    assert!(
        r.final_loss() < r.initial_loss() * 0.9,
        "no convergence: {} -> {}",
        r.initial_loss(),
        r.final_loss()
    );
}

#[test]
fn heterogeneous_beats_single_device_in_time_to_loss() {
    // The paper's headline claim (Figure 5): the heterogeneous algorithms
    // reach a given loss at least as fast as the best single-device one.
    let dataset = PaperDataset::Covtype.generate(0.0005, 11);
    let mk_spec = |d: &DenseDataset| MlpSpec {
        input_dim: d.features(),
        hidden: vec![24, 24],
        classes: d.num_classes(),
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let budget = 0.1;
    let run = |algo| {
        SimEngine::new(sim_config(algo, mk_spec(&dataset), budget))
            .unwrap()
            .run(&dataset)
    };
    let gpu = run(AlgorithmKind::MiniBatchGpu);
    let het = run(AlgorithmKind::CpuGpuHogbatch);
    let adp = run(AlgorithmKind::AdaptiveHogbatch);

    // Normalized target: 1.2× the best loss any of them achieved.
    let basis = gpu.min_loss().min(het.min_loss()).min(adp.min_loss());
    let target = basis * 1.2;
    let t_gpu = gpu.time_to_loss(target).unwrap_or(f64::INFINITY);
    let t_het = het.time_to_loss(target).unwrap_or(f64::INFINITY);
    let t_adp = adp.time_to_loss(target).unwrap_or(f64::INFINITY);
    let t_best_het = t_het.min(t_adp);
    assert!(
        t_best_het <= t_gpu * 1.2,
        "heterogeneous ({t_best_het:.4}s) should not trail GPU-only ({t_gpu:.4}s)"
    );
}

#[test]
fn both_engines_agree_on_update_accounting() {
    // Same algorithm on both engines: structural invariants (worker kinds,
    // nonzero updates, curve monotonicity in time) must agree.
    let mut synth = SynthConfig::small(300, 6, 2, 3);
    synth.separability = 3.0;
    let mut d = synth.generate();
    d.standardize();
    let spec = MlpSpec::tiny(6, 2);

    let sim = SimEngine::new(sim_config(
        AlgorithmKind::CpuGpuHogbatch,
        spec.clone(),
        0.05,
    ))
    .unwrap()
    .run(&d);

    let threaded = ThreadedEngine::new(ThreadedEngineConfig {
        spec,
        train: TrainConfig {
            init: hetero_nn::InitScheme::Xavier,
            algorithm: AlgorithmKind::CpuGpuHogbatch,
            lr: 0.02,
            gpu_batch: 64,
            time_budget: 0.3,
            rayon_threads: 0,
            eval_interval: 0.1,
            eval_subsample: 300,
            ..TrainConfig::default()
        },
        cpu_threads: 2,
        gpu_perf: GpuModel::v100(),
        gpu_workers: 1,
        fault_plan: FaultPlan::none(),
    })
    .unwrap()
    .run(Arc::new(d));

    for r in [&sim, &threaded] {
        assert!(r.total_updates() > 0.0);
        let frac = r.cpu_update_fraction();
        assert!(frac > 0.0 && frac < 1.0, "{}: frac {frac}", r.algorithm);
        for pair in r.loss_curve.windows(2) {
            assert!(pair[1].time >= pair[0].time);
        }
    }
}

#[test]
fn multilabel_delicious_pipeline() {
    let dataset = PaperDataset::Delicious.generate(0.02, 4);
    assert!(matches!(dataset.labels, Labels::MultiHot(_)));
    let spec = MlpSpec {
        input_dim: dataset.features(),
        hidden: vec![32],
        classes: dataset.num_classes(),
        activation: Activation::Sigmoid,
        loss: LossKind::MultiLabelBce,
    };
    let engine = SimEngine::new(sim_config(AlgorithmKind::CpuGpuHogbatch, spec, 0.05)).unwrap();
    let r = engine.run(&dataset);
    assert!(r.final_loss().is_finite());
    assert!(r.final_loss() < r.initial_loss());
}

#[test]
fn tf_baseline_tracks_gpu_except_multilabel() {
    // §VII-B: TF ≈ Hogbatch GPU on single-label data, clearly slower on
    // multi-label. Compare epochs completed in the same budget.
    let single = PaperDataset::W8a.generate(0.002, 2);
    let spec_s = MlpSpec {
        input_dim: single.features(),
        hidden: vec![16, 16],
        classes: 2,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let gpu_s = SimEngine::new(sim_config(
        AlgorithmKind::MiniBatchGpu,
        spec_s.clone(),
        0.05,
    ))
    .unwrap()
    .run(&single);
    let tf_s = SimEngine::new(sim_config(AlgorithmKind::TensorFlow, spec_s, 0.05))
        .unwrap()
        .run(&single);
    // Single-label: TF runs slower than plain GPU mini-batch (dispatch
    // overhead) but still converges. At toy network sizes the fixed per-op
    // overhead looms much larger than at paper scale, so assert the
    // direction, not a constant factor.
    assert!(tf_s.epochs > 0.0 && tf_s.epochs <= gpu_s.epochs);
    assert!(tf_s.final_loss() < tf_s.initial_loss());
    let single_label_gap = gpu_s.epochs / tf_s.epochs.max(1e-9);

    let multi = PaperDataset::Delicious.generate(0.02, 2);
    let spec_m = MlpSpec {
        input_dim: multi.features(),
        hidden: vec![16, 16],
        classes: multi.num_classes(),
        activation: Activation::Sigmoid,
        loss: LossKind::MultiLabelBce,
    };
    let gpu_m = SimEngine::new(sim_config(
        AlgorithmKind::MiniBatchGpu,
        spec_m.clone(),
        0.05,
    ))
    .unwrap()
    .run(&multi);
    let tf_m = SimEngine::new(sim_config(AlgorithmKind::TensorFlow, spec_m, 0.05))
        .unwrap()
        .run(&multi);
    // Multi-label: the TF gap must widen beyond its single-label gap —
    // the delicious effect of §VII-B.
    let multi_label_gap = gpu_m.epochs / tf_m.epochs.max(1e-9);
    assert!(
        multi_label_gap > single_label_gap * 1.5,
        "multi-label gap {multi_label_gap:.2} should exceed single-label gap {single_label_gap:.2}"
    );
}

#[test]
fn shared_model_concurrent_cpu_gpu_workers_raw() {
    // Direct use of the public API the engines are built on: Hogwild
    // threads + a software-GPU replica racing on one SharedModel.
    let spec = MlpSpec::tiny(6, 2);
    let init = Model::new(spec.clone(), InitScheme::Xavier, 1);
    let shared = Arc::new(SharedModel::new(&init));
    let mut synth = SynthConfig::small(200, 6, 2, 8);
    synth.separability = 3.0;
    let data = Arc::new(synth.generate());

    let mut handles = Vec::new();
    // Two Hogwild CPU lanes.
    for lane in 0..2 {
        let shared = Arc::clone(&shared);
        let data = Arc::clone(&data);
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                let start = (lane * 37 + i * 13) % (data.len() - 8);
                let local = shared.snapshot();
                let (x, labels) = data.batch(start, start + 8);
                let (_, g) =
                    hetero_sgd::nn::loss_and_gradient(&local, &x, labels.as_targets(), false);
                shared.apply_racy(&g, 0.05, None);
            }
        }));
    }
    // One GPU worker with deep-copy replicas.
    {
        let shared = Arc::clone(&shared);
        let data = Arc::clone(&data);
        handles.push(std::thread::spawn(move || {
            let device = hetero_sgd::gpu::GpuDevice::v100();
            let base = shared.snapshot();
            let mut mlp = hetero_sgd::gpu::GpuMlp::upload(&device, &base).unwrap();
            for i in 0..20 {
                let snapshot = shared.snapshot();
                mlp.refresh(&snapshot);
                let start = (i * 29) % (data.len() - 64);
                let (x, labels) = data.batch(start, start + 64);
                mlp.train_step(&x, labels.as_targets(), 0.1).unwrap();
                let replica = mlp.download();
                shared.merge(&snapshot, &replica, 1.0, None, None);
            }
            mlp.destroy();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(shared.update_count(), 2 * 50 + 20);
    let final_model = shared.snapshot();
    assert!(
        final_model.all_finite(),
        "races must never corrupt the model"
    );
    // Training actually helped.
    let (x, labels) = data.batch(0, data.len());
    let before = {
        let pass = hetero_sgd::nn::forward(&init, &x, true);
        hetero_sgd::nn::loss(pass.probs(), labels.as_targets(), spec.loss)
    };
    let after = {
        let pass = hetero_sgd::nn::forward(&final_model, &x, true);
        hetero_sgd::nn::loss(pass.probs(), labels.as_targets(), spec.loss)
    };
    assert!(after < before, "loss {before} -> {after}");
}
