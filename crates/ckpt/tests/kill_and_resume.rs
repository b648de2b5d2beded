//! Kill-and-resume integration suite: the crash-consistency properties
//! the checkpoint subsystem promises, driven through the real engines.
//!
//! - the deterministic engines (sim) resume **bit-identically** for any
//!   seed and checkpoint cadence;
//! - a checkpoint torn at *any* byte offset is rejected and the previous
//!   generation wins;
//! - a threaded run killed mid-flight by the fault injector resumes from
//!   its last published generation and still reaches the target loss.

use std::sync::Arc;

use hetero_ckpt::{Checkpointer, CkptConfig, CkptStore};
use hetero_core::{
    AlgorithmKind, FaultPlan, RunCtx, SimEngine, SimEngineConfig, ThreadedEngine,
    ThreadedEngineConfig, TrainConfig,
};
use hetero_data::{DenseDataset, SynthConfig};
use hetero_nn::MlpSpec;
use hetero_sim::{CpuModel, GpuModel};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// Unique temp dir per test invocation (process id + a caller tag).
fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hetero-ckpt-it-{}-{tag}", std::process::id()))
}

fn sim_dataset(seed: u64) -> DenseDataset {
    let mut cfg = SynthConfig::small(300, 10, 2, 3);
    cfg.separability = 3.0;
    cfg.seed = seed;
    let mut d = cfg.generate();
    d.standardize();
    d
}

fn sim_config(seed: u64) -> SimEngineConfig {
    let budget = 0.02;
    let train = TrainConfig {
        algorithm: AlgorithmKind::AdaptiveHogbatch,
        lr: 0.05,
        time_budget: budget,
        eval_interval: budget / 8.0,
        eval_subsample: 128,
        rayon_threads: 0,
        seed,
        ..TrainConfig::default()
    };
    // Deliberately sluggish hardware: high per-batch overheads mean a few
    // hundred simulated events per run instead of thousands, which keeps a
    // whole property-test batch within CI time. The *property* (resume is
    // bit-identical) is hardware-independent.
    let mut cpu = CpuModel::xeon_pair();
    cpu.dispatch_overhead = 100e-6;
    let mut gpu = GpuModel::v100();
    gpu.launch_overhead = 500e-6;
    SimEngineConfig {
        spec: MlpSpec::tiny(10, 2),
        train,
        cpu,
        gpus: vec![gpu],
        tf_op_overhead: 20e-6,
        tf_multilabel_penalty: 3.0,
        fault_plan: FaultPlan::none(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any seed and any checkpoint cadence, a sim run resumed from its
    /// newest mid-run generation continues the loss curve bit-for-bit.
    #[test]
    fn sim_resume_is_bit_identical_for_any_seed_and_cadence(
        seed in 0u64..1000,
        // Cadences from "several checkpoints per run" to "one near the end".
        interval_frac in 1u32..=8,
    ) {
        let dir = temp_dir(&format!("sim-prop-{seed}-{interval_frac}"));
        let _ = std::fs::remove_dir_all(&dir);
        let data = sim_dataset(seed ^ 0x5eed);
        let cfg = sim_config(seed);
        let interval = cfg.train.time_budget * interval_frac as f64 / 10.0;

        let baseline = SimEngine::new(cfg.clone()).unwrap().run(&data);

        let writer = Checkpointer::new(CkptConfig {
            dir: dir.clone(),
            interval,
            retain: 2,
            resume: false,
        })
        .unwrap();
        let checked = SimEngine::new(cfg.clone()).unwrap().run_with(&data, &RunCtx { ckpt: writer.clone(), ..RunCtx::default() });
        // Checkpointing observes; it never perturbs the schedule.
        prop_assert_eq!(&baseline.loss_curve, &checked.loss_curve);
        prop_assert!(writer.latest_path().is_some(), "no checkpoint published");

        let reader = Checkpointer::new(CkptConfig {
            dir: dir.clone(),
            interval,
            retain: 2,
            resume: true,
        })
        .unwrap();
        let resumed = SimEngine::new(cfg).unwrap().run_with(&data, &RunCtx { ckpt: reader.clone(), ..RunCtx::default() });
        prop_assert_eq!(&baseline.loss_curve, &resumed.loss_curve);
        prop_assert_eq!(baseline.epochs, resumed.epochs);
        for (a, b) in baseline.workers.iter().zip(&resumed.workers) {
            prop_assert_eq!(a.batches, b.batches);
            prop_assert_eq!(a.examples, b.examples);
            prop_assert_eq!(a.updates, b.updates);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A payload big enough that truncation can land anywhere interesting
/// (inside the JSON, inside the footer, at zero).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Payload {
    run: String,
    values: Vec<f64>,
}

fn payload(tag: u64) -> Payload {
    Payload {
        run: format!("generation-{tag}"),
        values: (0..64).map(|i| tag as f64 + i as f64 * 0.5).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating the newest generation at ANY offset (a torn write) makes
    /// it unreadable, and `load_latest` falls back to the previous intact
    /// generation — the crash-consistency contract.
    #[test]
    fn truncation_at_any_offset_rejected_with_fallback(
        seed in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir(&format!("trunc-prop-{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CkptStore::open(&dir, 4).unwrap();
        store.save(1, &payload(1)).unwrap();
        store.save(2, &payload(2)).unwrap();

        let gens = store.generations();
        prop_assert_eq!(gens.len(), 2);
        let (newest_gen, newest_path) = gens.last().unwrap().clone();
        prop_assert_eq!(newest_gen, 2);

        // Tear the newest file at an arbitrary offset strictly inside it.
        let bytes = std::fs::read(&newest_path).unwrap();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let cut = cut.min(bytes.len().saturating_sub(1));
        std::fs::write(&newest_path, &bytes[..cut]).unwrap();

        // The torn generation is rejected outright…
        prop_assert!(CkptStore::load_path::<Payload>(&newest_path).is_err());
        // …and the chain falls back to the previous intact generation.
        let (g, _, restored) = store.load_latest::<Payload>().expect("fallback generation");
        prop_assert_eq!(g, 1);
        prop_assert_eq!(restored, payload(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A threaded run whose workers are all killed mid-flight by the fault
/// injector leaves a valid checkpoint chain behind; resuming from it with
/// healthy workers finishes the budget and reaches the target loss.
#[test]
fn faultplan_killed_threaded_run_resumes_to_target_loss() {
    let dir = temp_dir("thr-kill");
    let _ = std::fs::remove_dir_all(&dir);
    let mut synth = SynthConfig::small(400, 8, 2, 5);
    synth.separability = 3.0;
    let mut d = synth.generate();
    d.standardize();
    let data = Arc::new(d);

    let budget = 2.0;
    let train = TrainConfig {
        algorithm: AlgorithmKind::CpuGpuHogbatch,
        lr: 0.05,
        cpu_batch_per_thread: 1,
        gpu_batch: 64,
        time_budget: budget,
        eval_interval: budget / 8.0,
        eval_subsample: 200,
        rayon_threads: 0,
        seed: 3,
        ..TrainConfig::default()
    };
    let cfg = ThreadedEngineConfig {
        spec: MlpSpec::tiny(8, 2),
        train,
        cpu_threads: 4,
        gpu_perf: GpuModel::v100(),
        gpu_workers: 1,
        fault_plan: FaultPlan::none(),
    };

    // Incarnation 1: both worker slots (CPU=0, GPU=1) are killed mid-run.
    // The GPU dies almost immediately; the CPU lives long enough that the
    // 1ms checkpoint cadence publishes several generations first, but dies
    // far short of the 2s budget — so the run aborts with work left to do.
    let mut killed_cfg = cfg.clone();
    killed_cfg.fault_plan = FaultPlan::none().die_after(0, 150).die_after(1, 3);
    let writer = Checkpointer::new(CkptConfig {
        dir: dir.clone(),
        interval: 0.001,
        retain: 3,
        resume: false,
    })
    .unwrap();
    let killed = ThreadedEngine::new(killed_cfg).unwrap().run_with(
        Arc::clone(&data),
        &RunCtx {
            ckpt: writer.clone(),
            ..RunCtx::default()
        },
    );
    assert_eq!(
        killed.aborted.as_deref(),
        Some("all workers retired by faults"),
        "fault plan did not kill the run: {:?}",
        killed
            .workers
            .iter()
            .map(|w| (w.kind, w.batches, w.retired.clone()))
            .collect::<Vec<_>>()
    );
    assert!(
        writer.latest_path().is_some(),
        "no checkpoint survived the kill"
    );

    // Incarnation 2: healthy workers resume from the chain and finish.
    let reader = Checkpointer::new(CkptConfig {
        dir: dir.clone(),
        interval: 0.001,
        retain: 3,
        resume: true,
    })
    .unwrap();
    let resumed = ThreadedEngine::new(cfg).unwrap().run_with(
        Arc::clone(&data),
        &RunCtx {
            ckpt: reader.clone(),
            ..RunCtx::default()
        },
    );
    assert!(resumed.aborted.is_none(), "{:?}", resumed.aborted);
    // The resumed curve keeps the killed run's prefix and extends it.
    let n_prefix = resumed
        .loss_curve
        .iter()
        .zip(&killed.loss_curve)
        .take_while(|(a, b)| a.time == b.time && a.loss == b.loss)
        .count();
    assert!(n_prefix >= 1, "resumed curve lost the killed run's prefix");
    assert!(
        resumed.loss_curve.len() > n_prefix,
        "resume added no eval points"
    );
    // Target loss: the resumed run must actually train — a clear drop from
    // the initial loss, not just survive.
    let initial = resumed.initial_loss();
    let target = initial * 0.8;
    assert!(
        resumed.min_loss() < target,
        "resumed run missed target loss: {} !< {target} (initial {initial})",
        resumed.min_loss(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
