//! Supervision tests: deterministic fault injection ([`FaultPlan`]) against
//! the real-thread engine. Every test runs under a watchdog so a
//! supervision deadlock fails fast instead of hanging the suite.

use std::sync::Arc;
use std::time::Duration;

use hetero_core::{
    AdaptiveParams, AlgorithmKind, FaultPlan, LrScaling, ThreadedEngine, ThreadedEngineConfig,
    TrainConfig, TrainResult, WorkerKind,
};
use hetero_data::{DenseDataset, SynthConfig};
use hetero_nn::MlpSpec;
use hetero_sim::GpuModel;
use hetero_trace::{EventKind, TraceSink};

/// Per-test watchdog: run `f` on its own thread and panic if it has not
/// finished within `secs`. A hung coordinator (the exact bug class this
/// suite guards against) then fails the test instead of stalling CI.
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

/// Per-thread trace ring sized for a whole run (up to ~150 k events on the
/// busiest thread; see the same constant in `engine_threads.rs`' tests):
/// an undersized drop-oldest ring evicts the early `BatchRequeued` these
/// tests look for.
const RING: usize = 1 << 20;

fn dataset() -> Arc<DenseDataset> {
    let mut cfg = SynthConfig::small(400, 8, 2, 5);
    cfg.separability = 3.0;
    let mut d = cfg.generate();
    d.standardize();
    Arc::new(d)
}

fn config(algo: AlgorithmKind, secs: f64, plan: FaultPlan) -> ThreadedEngineConfig {
    ThreadedEngineConfig {
        spec: MlpSpec::tiny(8, 2),
        train: TrainConfig {
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
            eval_interval: secs / 4.0,
            eval_subsample: 200,
            seed: 3,
            ..TrainConfig::default()
        },
        cpu_threads: 2,
        gpu_perf: GpuModel::v100(),
        gpu_workers: 1,
        fault_plan: plan,
    }
}

fn gpu_stats(r: &TrainResult) -> &hetero_core::WorkerStats {
    r.workers
        .iter()
        .find(|w| w.kind == WorkerKind::Gpu)
        .expect("a GPU worker slot")
}

/// (a) A device OOM mid-step triggers the bounded batch-halving retry: the
/// run completes, the unprocessed tail is re-queued, and the controller's
/// ceiling is clamped so the OOMed size is never requested again.
#[test]
fn oom_retry_halves_batch_and_clamps_controller() {
    // The upload is the device's reservation 0; attempt 1 is the first
    // training step's reservation.
    let plan = FaultPlan::none().oom_on_alloc(1, 1);
    let sink = TraceSink::wall(RING);
    let r = with_timeout(60, move || {
        ThreadedEngine::new(config(AlgorithmKind::CpuGpuHogbatch, 0.4, plan))
            .unwrap()
            .run_traced(dataset(), &sink)
    });
    // The OOM is transient and recoverable: nobody gets retired.
    assert!(r.aborted.is_none());
    assert!(r.workers.iter().all(|w| w.retired.is_none()));
    // The halved prefix left a tail that was re-queued.
    assert!(r.requeued_batches >= 1, "no requeue recorded");
    // The controller ceiling is clamped to the size that fit (64 → ≤32).
    let gpu = gpu_stats(&r);
    assert!(
        gpu.final_batch <= 32,
        "controller still grants OOMed sizes: final batch {}",
        gpu.final_batch
    );
    assert!(gpu.batches > 0, "GPU worker stopped contributing");
    assert!(r.final_loss() < r.initial_loss(), "{:?}", r.loss_curve);
}

/// (b) A worker dying mid-run (injected panic) is quarantined; training
/// degrades gracefully to the survivor, which takes over the dead worker's
/// window, and the fixed work of `max_epochs` is trained exactly once —
/// the scheduler counts each example once when first handed out, and
/// nothing is lost or repeated whenever the death lands.
#[test]
fn mid_run_worker_death_degrades_to_survivors_and_trains_the_work_once() {
    let plan = FaultPlan::none().die_after(1, 2);
    let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 30.0, plan);
    cfg.train.max_epochs = Some(2);
    let n = 400u64; // dataset() size
    let r = with_timeout(60, move || ThreadedEngine::new(cfg).unwrap().run(dataset()));
    let gpu = gpu_stats(&r);
    assert_eq!(gpu.batches, 2, "death injected after exactly 2 batches");
    let reason = gpu.retired.as_deref().expect("GPU worker retired");
    assert!(reason.contains("injected fault"), "reason: {reason}");
    // The batch in flight at death went back to the queue.
    assert!(r.requeued_batches >= 1);
    // Survivors kept training.
    assert!(r.aborted.is_none());
    let cpu = r
        .workers
        .iter()
        .find(|w| w.kind == WorkerKind::Cpu)
        .unwrap();
    assert!(cpu.retired.is_none());
    assert!(cpu.batches > gpu.batches, "survivor barely worked");
    assert!(r.final_loss() < r.initial_loss(), "{:?}", r.loss_curve);
    let trained: u64 = r.workers.iter().map(|w| w.examples).sum();
    assert_eq!(trained, 2 * n, "a range was lost or trained twice");
    assert_eq!(r.epochs, 2.0);
}

/// (c) Every worker dead → the run returns promptly with
/// [`TrainResult::aborted`] set instead of hanging or panicking.
#[test]
fn all_workers_dead_aborts_instead_of_hanging() {
    let plan = FaultPlan::none().die_after(0, 1);
    let r = with_timeout(30, move || {
        // MiniBatchGpu: the lone GPU worker is the whole fleet.
        ThreadedEngine::new(config(AlgorithmKind::MiniBatchGpu, 5.0, plan))
            .unwrap()
            .run(dataset())
    });
    let reason = r.aborted.as_deref().expect("run should abort");
    assert!(reason.contains("all workers"), "reason: {reason}");
    assert!(r.workers.iter().all(|w| w.retired.is_some()));
    // It aborted long before the 5s budget.
    assert!(r.duration < 4.0, "hung for {}s", r.duration);
}

/// (c′) A model that cannot even be uploaded is an unrecoverable fault:
/// there is no batch to shrink, so the worker retires with an OOM reason.
#[test]
fn upload_oom_retires_worker_with_reason() {
    let plan = FaultPlan::none().oom_on_upload(0);
    let r = with_timeout(30, move || {
        ThreadedEngine::new(config(AlgorithmKind::MiniBatchGpu, 5.0, plan))
            .unwrap()
            .run(dataset())
    });
    let reason = r.aborted.as_deref().expect("lone worker dead → aborted");
    assert!(reason.contains("all workers"), "reason: {reason}");
    let gpu = gpu_stats(&r);
    let retired = gpu.retired.as_deref().unwrap();
    assert!(
        retired.contains("upload") && retired.contains("OOM"),
        "reason should name the upload OOM: {retired}"
    );
    assert_eq!(gpu.batches, 0);
}

/// A fault plan aimed at nonexistent worker slots is inert: the run
/// behaves exactly like a fault-free one.
#[test]
fn fault_plan_for_absent_worker_is_inert() {
    let plan = FaultPlan::none().die_after(7, 0).oom_on_alloc(9, 0);
    let r = with_timeout(60, move || {
        ThreadedEngine::new(config(AlgorithmKind::CpuGpuHogbatch, 0.3, plan))
            .unwrap()
            .run(dataset())
    });
    assert!(r.aborted.is_none());
    assert_eq!(r.requeued_batches, 0);
    assert!(r.workers.iter().all(|w| w.retired.is_none()));
    assert!(r.final_loss() < r.initial_loss());
}

/// (e) A Hogwild lane that panics mid-dispatch takes its worker down as a
/// typed fault — the worker must not wait forever on the dead lane's
/// answer — and *both* ranges the worker held (the one it was on and the
/// one parked behind it) go back to the queue, where the survivor trains
/// them: the fixed work is still trained exactly once.
///
/// The lane dies inside the worker's first batch, so what the worker holds
/// then is the two ranges it was primed with before any worker reported:
/// neither the ranges nor the count depend on how fast the host is. (The
/// survivor may have run the schedule dry and gone idle by the time the
/// fault arrives; the ranges must reach it anyway.)
#[test]
fn lane_panic_is_a_typed_fault_and_the_survivor_trains_the_whole_window() {
    let plan = FaultPlan::none().panic_lane_at(0, 0);
    let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 30.0, plan);
    cfg.train.max_epochs = Some(2);
    let n = 400u64; // dataset() size
    let r = with_timeout(60, move || ThreadedEngine::new(cfg).unwrap().run(dataset()));
    let cpu = &r.workers[0];
    assert_eq!(cpu.kind, WorkerKind::Cpu);
    let reason = cpu.retired.as_deref().expect("CPU worker retired");
    assert!(
        reason.contains("panicked") && reason.contains("hogwild lane 1"),
        "the lane's own panic message is the reason: {reason}"
    );
    assert_eq!(cpu.batches, 0, "the lane died inside the first batch");
    assert_eq!(r.requeued_batches, 2, "current and parked range");
    assert!(r.aborted.is_none());
    assert!(gpu_stats(&r).retired.is_none());
    let trained: u64 = r.workers.iter().map(|w| w.examples).sum();
    assert_eq!(
        trained,
        2 * n,
        "an in-flight range was lost or trained twice"
    );
    assert_eq!(r.epochs, 2.0);
}

/// (a′) An OOM shrink clamps the controller for the *next unassigned*
/// range: the range already parked behind the one that OOMed keeps the
/// size it was dispatched at, runs, and nothing of either is lost. The
/// trace records the re-queue but no worker fault: the OOM was absorbed,
/// not escalated.
#[test]
fn oom_shrink_leaves_the_parked_range_at_its_dispatched_size() {
    let plan = FaultPlan::none().oom_on_alloc(1, 1);
    let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 30.0, plan);
    cfg.train.max_epochs = Some(2);
    let n = 400u64;
    let sink = TraceSink::wall(RING);
    let (r, trace) = with_timeout(60, move || {
        let r = ThreadedEngine::new(cfg)
            .unwrap()
            .run_traced(dataset(), &sink);
        (r, sink.drain())
    });
    assert_eq!(trace.total_dropped(), 0, "ring too small for the run");
    assert!(r.aborted.is_none());
    assert!(r.workers.iter().all(|w| w.retired.is_none()));
    // The GPU worker's dispatches and completions, in time order, and the
    // re-queues — which the coordinator emits as it applies the clamp, on
    // the thread (and so the clock order) it emits dispatches on.
    let (mut dispatched, mut completed, mut requeued) = (Vec::new(), Vec::new(), Vec::new());
    for e in trace.events_sorted() {
        match e.kind {
            EventKind::WorkerRetired { .. } => {
                panic!("a recoverable OOM retired worker {}", e.worker)
            }
            EventKind::BatchDispatched { id, batch } if e.worker == 1 => {
                dispatched.push((e.t, id, batch))
            }
            EventKind::BatchCompleted { id, batch, .. } if e.worker == 1 => {
                completed.push((id, batch))
            }
            EventKind::BatchRequeued { id, .. } => requeued.push((e.t, id)),
            _ => {}
        }
    }
    // The first step OOMed and fit at a smaller size…
    let (first, fit) = completed[0];
    assert_eq!(first, dispatched[0].1);
    assert!(fit < dispatched[0].2, "first GPU step did not shrink");
    assert_eq!(requeued.len(), 1, "{requeued:?}");
    let (clamped_at, leftover_of) = requeued[0];
    assert_eq!(leftover_of, first);
    // …with the second range already parked behind it, sized before the
    // clamp and above it; it completes whole.
    let (parked_at, parked, size) = dispatched[1];
    assert!(parked_at < clamped_at && size > fit, "no range was parked");
    assert_eq!(completed[1], (parked, size));
    // Everything sized after the clamp respects it.
    assert!(dispatched[2..]
        .iter()
        .all(|&(t, _, batch)| t >= clamped_at && batch <= fit));
    assert_eq!(gpu_stats(&r).final_batch, fit);
    let trained: u64 = r.workers.iter().map(|w| w.examples).sum();
    assert_eq!(trained, 2 * n, "the leftover or the parked range was lost");
}
