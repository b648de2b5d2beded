//! End-to-end tests for the flight recorder + training-health watchdog:
//! fault paths must leave a renderable postmortem bundle, poisoned
//! gradients must abort naming the culprit, stalls must clamp the adaptive
//! controller, and the watchdog must never perturb the training math.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use hetero_core::{
    AdaptiveParams, AlgorithmKind, FaultPlan, LrScaling, RunCtx, SimEngine, SimEngineConfig,
    ThreadedEngine, ThreadedEngineConfig, TrainConfig,
};
use hetero_data::{DenseDataset, SynthConfig};
use hetero_flight::{
    render_report, FlightConfig, FlightRecorder, HealthAction, HealthPolicy, PostmortemBundle,
};
use hetero_nn::MlpSpec;
use hetero_sim::GpuModel;
use hetero_trace::{EventKind, Trace, TraceSink};

/// Trace ring for the tests that count health events: sized for a whole
/// sim run (rings only grow as they fill), checked with `total_dropped`.
const RING: usize = 1 << 20;

/// Per-test watchdog thread (same rationale as `fault_tolerance.rs`).
fn with_timeout<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(_) => panic!("watchdog: test exceeded {secs}s — supervision deadlock?"),
    }
}

fn dataset() -> DenseDataset {
    let mut cfg = SynthConfig::small(400, 8, 2, 5);
    cfg.separability = 3.0;
    let mut d = cfg.generate();
    d.standardize();
    d
}

/// The same task at an eighth of the density, stored CSR: below the
/// dense/CSR crossover, so a run on it trains CSR rows.
fn sparse_dataset() -> DenseDataset {
    let mut cfg = SynthConfig {
        density: 0.12,
        ..SynthConfig::small(400, 8, 2, 5)
    };
    cfg.separability = 3.0;
    let mut d = cfg.generate();
    d.scale_to_unit_variance();
    d
}

fn train(algo: AlgorithmKind, secs: f64) -> TrainConfig {
    TrainConfig {
        algorithm: algo,
        lr: 0.05,
        lr_scaling: LrScaling::Sqrt {
            ref_batch: 1,
            max_lr: 0.3,
        },
        gpu_batch: 64,
        adaptive: AdaptiveParams {
            alpha: 2.0,
            beta: 1.0,
            cpu_min_batch: 4,
            cpu_max_batch: 64,
            gpu_min_batch: 16,
            gpu_max_batch: 64,
        },
        time_budget: secs,
        eval_interval: secs / 8.0,
        eval_subsample: 200,
        seed: 3,
        ..TrainConfig::default()
    }
}

/// A recorder dumping into a unique temp dir; returns it with the dir so
/// tests can clean up after themselves.
fn recorder(tag: &str, policy: HealthPolicy) -> (FlightRecorder, PathBuf) {
    let dir = std::env::temp_dir().join(format!("hetero-health-{tag}-{}", std::process::id()));
    let flight = FlightRecorder::new(FlightConfig {
        policy,
        dir: dir.clone(),
    });
    (flight, dir)
}

/// The details of `trace`'s health events with `action`, in time order.
fn health_events(trace: &Trace, action: &str) -> Vec<String> {
    trace
        .events_sorted()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::HealthEvent { action: a, detail } if a == action => Some(detail),
            _ => None,
        })
        .collect()
}

fn read_bundle(r: &hetero_core::TrainResult) -> (PostmortemBundle, String) {
    let health = r.health.as_ref().expect("flight run records health");
    let path = health
        .postmortem
        .as_ref()
        .expect("abnormal end dumps a bundle");
    let json = std::fs::read_to_string(path).expect("bundle file exists");
    let bundle = PostmortemBundle::from_json(&json).expect("bundle parses");
    (bundle, path.clone())
}

/// A worker killed mid-run (the black-box acceptance path): the run ends
/// with a postmortem bundle on disk that parses and renders.
#[test]
fn threaded_worker_death_dumps_renderable_bundle() {
    let (flight, dir) = recorder("die", HealthPolicy::default());
    let f2 = flight.clone();
    let r = with_timeout(60, move || {
        ThreadedEngine::new(ThreadedEngineConfig {
            spec: MlpSpec::tiny(8, 2),
            train: train(AlgorithmKind::CpuGpuHogbatch, 0.4),
            cpu_threads: 2,
            gpu_perf: GpuModel::v100(),
            gpu_workers: 1,
            fault_plan: FaultPlan::none().die_after(1, 2),
        })
        .unwrap()
        .run_with(
            Arc::new(dataset()),
            &RunCtx {
                flight: f2.clone(),
                ..RunCtx::default()
            },
        )
    });
    let (bundle, path) = read_bundle(&r);
    assert!(bundle.reason.contains("retirement"), "{}", bundle.reason);
    let prov = bundle.provenance.as_ref().expect("provenance recorded");
    assert_eq!(prov.engine, "threaded");
    assert!(prov.workers >= 2);
    assert!(
        !bundle.trace.events_sorted().is_empty(),
        "no retained events"
    );
    // The human-readable rendering (what `hetero-postmortem` prints).
    let report = render_report(&bundle);
    assert!(report.contains(&bundle.reason));
    assert!(report.contains(&prov.algorithm));
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_dir(&dir);
}

/// A run observed by its flight recorder alone still carries its
/// distributions: the recorder's fallback sink holds the histograms, so the
/// postmortem has metric rows and the retained snapshots staleness
/// quantiles — on both engines.
#[test]
fn flight_only_run_carries_its_distributions() {
    let (flight, dir) = recorder("flight-only", HealthPolicy::default());
    let f2 = flight.clone();
    let threaded = with_timeout(60, move || {
        ThreadedEngine::new(ThreadedEngineConfig {
            spec: MlpSpec::tiny(8, 2),
            train: train(AlgorithmKind::CpuGpuHogbatch, 0.4),
            cpu_threads: 2,
            gpu_perf: GpuModel::v100(),
            gpu_workers: 1,
            fault_plan: FaultPlan::none().die_after(1, 2),
        })
        .unwrap()
        .run_with(
            Arc::new(dataset()),
            &RunCtx {
                flight: f2,
                ..RunCtx::default()
            },
        )
    });
    let f2 = flight.clone();
    let sim = with_timeout(60, move || {
        let mut cfg = SimEngineConfig::paper_hardware(
            MlpSpec::tiny(8, 2),
            train(AlgorithmKind::CpuGpuHogbatch, 0.05),
        );
        cfg.fault_plan = FaultPlan::none().die_after(1, 3);
        cfg.train.eval_interval = 0.01;
        SimEngine::new(cfg).unwrap().run_with(
            &dataset(),
            &RunCtx {
                flight: f2,
                ..RunCtx::default()
            },
        )
    });
    for r in [threaded, sim] {
        let stale = r.staleness.expect("a flight-observed run has staleness");
        assert!(stale.count > 0);
        let (bundle, path) = read_bundle(&r);
        let rows: Vec<&str> = bundle.metrics.iter().map(|m| &m.metric[..]).collect();
        for metric in ["batch_latency", "staleness"] {
            assert!(rows.contains(&metric), "no {metric} row in {rows:?}");
        }
        let last = bundle.snapshots.last().expect("snapshots retained");
        assert!(last.staleness_p50.is_some() && last.staleness_p99.is_some());
        assert!(last.staleness_p50 <= last.staleness_p99);
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A poisoned gradient aborts the run via the default policy, and both the
/// result and the bundle name the poisoned worker, layer, and step.
#[test]
fn poisoned_gradient_aborts_naming_layer_and_step() {
    let (flight, dir) = recorder("poison", HealthPolicy::default());
    let f2 = flight.clone();
    let r = with_timeout(60, move || {
        let mut cfg = SimEngineConfig::paper_hardware(
            MlpSpec::tiny(8, 2),
            train(AlgorithmKind::AdaptiveHogbatch, 2.0),
        );
        cfg.fault_plan = FaultPlan::none().poison_gradient_at(0, 3);
        cfg.train.time_budget = 0.05;
        cfg.train.eval_interval = 0.01;
        SimEngine::new(cfg).unwrap().run_with(
            &dataset(),
            &RunCtx {
                flight: f2.clone(),
                ..RunCtx::default()
            },
        )
    });
    let aborted = r.aborted.as_deref().expect("poison must abort the run");
    assert!(aborted.contains("health watchdog"), "{aborted}");
    let health = r.health.as_ref().unwrap();
    assert!(health.nonfinite_events >= 1);
    let first = health.first_nonfinite.expect("first poison recorded");
    assert_eq!((first.worker, first.layer, first.step), (0, 0, 3));
    let tripped = health.tripped.as_deref().unwrap();
    assert!(
        tripped.contains("layer 0") && tripped.contains("step 3"),
        "trip reason must name the culprit: {tripped}"
    );
    let (bundle, path) = read_bundle(&r);
    assert!(bundle.reason.contains("layer 0"), "{}", bundle.reason);
    assert!(render_report(&bundle).contains("non-finite"));
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_dir(&dir);
}

/// The same on real threads, for the delta a GPU worker merges, on a dense
/// run and on a sparse one (data below the dense/CSR crossover). GPU-only,
/// so the first non-finite observation cannot be a CPU lane that read the
/// poisoned model back.
#[test]
fn poisoned_gpu_delta_aborts_naming_worker_layer_and_step() {
    for sparse in [false, true] {
        let (flight, dir) = recorder("poison-gpu", HealthPolicy::default());
        let f2 = flight.clone();
        let r = with_timeout(60, move || {
            ThreadedEngine::new(ThreadedEngineConfig {
                spec: MlpSpec::tiny(8, 2),
                train: train(AlgorithmKind::MiniBatchGpu, 0.4),
                cpu_threads: 1,
                gpu_perf: GpuModel::v100(),
                gpu_workers: 1,
                fault_plan: FaultPlan::none().poison_gradient_at(0, 2),
            })
            .unwrap()
            .run_with(
                Arc::new(if sparse { sparse_dataset() } else { dataset() }),
                &RunCtx {
                    flight: f2.clone(),
                    ..RunCtx::default()
                },
            )
        });
        let aborted = r.aborted.as_deref().expect("poison must abort the run");
        assert!(aborted.contains("health watchdog"), "{aborted}");
        let health = r.health.as_ref().unwrap();
        let first = health.first_nonfinite.expect("first poison recorded");
        assert_eq!(
            (first.worker, first.layer, first.step),
            (0, 0, 2),
            "sparse={sparse}"
        );
        let (bundle, path) = read_bundle(&r);
        assert!(bundle.reason.contains("layer 0"), "{}", bundle.reason);
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir(&dir);
    }
}

/// A stalled run (learning rate too small to ever improve) triggers the
/// Clamp action once: batch growth freezes at the eval that saw the stall,
/// the trace carries one `clamp` health event, and the run completes
/// un-aborted with the stall and the one clamp in its health summary.
#[test]
fn a_stall_clamps_once() {
    let policy = HealthPolicy {
        stall_evals: 2,
        ..HealthPolicy::default()
    };
    let (flight, dir) = recorder("stall-once", policy);
    let sink = TraceSink::virtual_time(RING);
    let s2 = sink.clone();
    let r = with_timeout(60, move || {
        let mut cfg = train(AlgorithmKind::AdaptiveHogbatch, 0.08);
        cfg.eval_interval = 0.01; // 8 evals: plenty past stall_evals = 2
        cfg.lr = 1e-12; // validates (> 0) but cannot move the loss
        SimEngine::new(SimEngineConfig::paper_hardware(MlpSpec::tiny(8, 2), cfg))
            .unwrap()
            .run_with(
                &dataset(),
                &RunCtx {
                    sink: s2,
                    flight,
                    ..RunCtx::default()
                },
            )
    });
    let trace = sink.drain();
    assert_eq!(trace.total_dropped(), 0, "ring too small for the run");
    assert!(
        r.aborted.is_none(),
        "stall must clamp, not abort: {:?}",
        r.aborted
    );
    let health = r.health.as_ref().unwrap();
    assert!(health.stalled, "stall not detected: {health:?}");
    assert_eq!(health.clamps, 1, "{health:?}");
    assert!(health.tripped.is_none());
    // Healthy completion (no fault, no abort) leaves no bundle behind.
    assert!(health.postmortem.is_none());
    let clamps = health_events(&trace, "clamp");
    assert_eq!(clamps.len(), 1, "{clamps:?}");
    assert!(clamps[0].contains("stall"), "{}", clamps[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reaction raised on a worker's gradient scan reaches the trace like
/// one raised at an eval, and once: every later scan of the poisoned model
/// finds non-finite elements too, but the condition warns one time, and
/// every warning the health record counts is a traced one.
#[test]
fn a_worker_side_warning_is_traced_once() {
    let policy = HealthPolicy {
        on_nonfinite: HealthAction::Warn,
        ..HealthPolicy::default()
    };
    let (flight, dir) = recorder("warn-once", policy);
    let sink = TraceSink::virtual_time(RING);
    let s2 = sink.clone();
    let r = with_timeout(60, move || {
        let mut cfg = SimEngineConfig::paper_hardware(
            MlpSpec::tiny(8, 2),
            train(AlgorithmKind::AdaptiveHogbatch, 0.05),
        );
        cfg.fault_plan = FaultPlan::none().poison_gradient_at(0, 2);
        cfg.train.eval_interval = 0.01;
        SimEngine::new(cfg).unwrap().run_with(
            &dataset(),
            &RunCtx {
                sink: s2,
                flight,
                ..RunCtx::default()
            },
        )
    });
    let trace = sink.drain();
    assert_eq!(trace.total_dropped(), 0, "ring too small for the run");
    assert!(
        r.aborted.is_none(),
        "a warning must not abort: {:?}",
        r.aborted
    );
    let health = r.health.as_ref().unwrap();
    assert!(health.nonfinite_events > 1, "{health:?}");
    let warns = health_events(&trace, "warn");
    assert_eq!(warns.len() as u64, health.warnings, "{warns:?}");
    let nonfinite = warns.iter().filter(|d| d.starts_with("non-finite")).count();
    assert_eq!(nonfinite, 1, "{warns:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The watchdog observes training, it must never steer it: a healthy sim
/// run produces a bit-identical loss curve with the watchdog on and off.
#[test]
fn watchdog_does_not_perturb_training() {
    let cfg = || {
        let mut t = train(AlgorithmKind::AdaptiveHogbatch, 0.05);
        t.eval_interval = 0.01;
        SimEngineConfig::paper_hardware(MlpSpec::tiny(8, 2), t)
    };
    let plain = with_timeout(60, move || SimEngine::new(cfg()).unwrap().run(&dataset()));
    let (flight, dir) = recorder("noop", HealthPolicy::default());
    let f2 = flight.clone();
    let cfg = || {
        let mut t = train(AlgorithmKind::AdaptiveHogbatch, 0.05);
        t.eval_interval = 0.01;
        SimEngineConfig::paper_hardware(MlpSpec::tiny(8, 2), t)
    };
    let watched = with_timeout(60, move || {
        SimEngine::new(cfg()).unwrap().run_with(
            &dataset(),
            &RunCtx {
                flight: f2.clone(),
                ..RunCtx::default()
            },
        )
    });
    assert_eq!(plain.loss_curve.len(), watched.loss_curve.len());
    for (a, b) in plain.loss_curve.iter().zip(&watched.loss_curve) {
        assert_eq!(a.time, b.time, "eval timeline drifted");
        assert_eq!(a.loss, b.loss, "watchdog changed the training math");
    }
    assert_eq!(plain.epochs, watched.epochs);
    let health = watched.health.as_ref().unwrap();
    assert_eq!(health.nonfinite_events, 0);
    assert!(health.peak_grad_norm > 0.0, "merge scan never ran");
    let _ = std::fs::remove_dir_all(&dir);
}
