//! The traced run: replay one step of each engine role under spans, and
//! read the run counters of the timed trials.
//!
//! The engines are not instrumented (spans inside `crates/` are a later
//! change). Instead the benchmark re-executes one CPU-worker batch, one
//! GPU-worker batch, one coordinator dispatch and one coordinator eval by
//! calling the same public functions in engine order on the workload's own
//! data and model, with a span around each call. A layer's *self time* is
//! its span minus the part of it its child spans cover. Multiplying the
//! replayed step by the batch count of the timed trials and dividing by the
//! worker's own `busy_secs` gives `reconcile.*`: outside 0.8–1.25 the
//! replay is missing a cost (or the engine is paying one the layers do not
//! explain — contention, a scheduler stall).

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use hetero_core::adaptive::{AdaptiveController, WorkerBatchState};
use hetero_core::{TrainResult, WorkerKind};
use hetero_data::{BatchScheduler, Labels};
use hetero_gpu::{GpuDevice, GpuMlp};
use hetero_nn::{MergeScan, Model, SharedModel, Workspace};
use hetero_sim::EventQueue;
use hetero_tensor::{CsrBatch, CsrMatrix, Matrix};
use hetero_trace::analyze::analyze;
use hetero_trace::TraceSink;
use rayon::prelude::*;

use crate::run::{busy_secs, examples_trained, worker_of};
use crate::stats::{fastest_mean, median};
use crate::workloads::{single_threaded, EngineKind, Prepared, Trial};

/// One recorded span. Times are seconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one (`None` for a step's root).
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// In-memory span store; written out once, when the run ends.
pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 12)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a replayed step panicked while recording a span")
    }

    /// Run `f` inside a span; `f` receives the span's index so it can parent
    /// its own children (possibly from other threads).
    fn span<R>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce(usize) -> R) -> R {
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                parent,
                start: f64::NAN,
                end: f64::NAN,
            });
            spans.len() - 1
        };
        let start = self.t0.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.t0.elapsed().as_secs_f64();
        let mut spans = self.lock();
        spans[id].start = start;
        spans[id].end = end;
        out
    }

    fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }
}

/// Self time per span: duration minus the union of its children's
/// intervals (children on different threads may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    (0..spans.len())
        .map(|i| {
            let s = spans[i];
            let mut kids: Vec<(f64, f64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// Repeat `step` (one root span per call) and return, per span name, that
/// name's summed self time over the fastest eighth of the repetitions (the
/// estimator every wall-clock number here uses) — in seconds.
/// Also returns the last repetition's spans for the written trace.
fn repeat(rec: &Recorder, mut step: impl FnMut()) -> (Vec<(&'static str, f64)>, Vec<Span>) {
    const MIN_REPS: usize = 20;
    const MIN_SECS: f64 = 0.3;
    step(); // warm buffers; not recorded
    rec.take();
    let mut per_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut last = Vec::new();
    let started = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || started.elapsed().as_secs_f64() < MIN_SECS {
        step();
        let spans = rec.take();
        let selfs = self_times(&spans);
        let mut sums: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in spans.iter().zip(&selfs) {
            match sums.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, acc)) => *acc += t,
                None => sums.push((s.name, *t)),
            }
        }
        for (name, t) in sums {
            match per_name.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.push(t),
                None => per_name.push((name, vec![t])),
            }
        }
        last = spans;
        reps += 1;
    }
    (
        per_name
            .into_iter()
            .map(|(n, v)| (n, fastest_mean(&v, true)))
            .collect(),
        last,
    )
}

/// What the replay reports.
pub struct Replayed {
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

/// Per-lane scratch, as the engines keep it.
struct Lane {
    local: Model,
    ws: Workspace,
    x: Matrix,
    csr: CsrBatch,
    labels: Labels,
}

/// `est` over `f(trial, worker)` for the first worker of `kind` in every
/// trial; 0 when the workload has no such worker.
fn over_workers(
    trials: &[Trial],
    kind: WorkerKind,
    f: impl Fn(&Trial, &hetero_core::WorkerStats) -> f64,
    est: impl Fn(&[f64]) -> f64,
) -> f64 {
    let v: Vec<f64> = trials
        .iter()
        .filter_map(|t| Some(f(t, worker_of(&t.result, kind)?)))
        .collect();
    if v.is_empty() {
        0.0
    } else {
        est(&v)
    }
}

const CPU_STEP: &str = "step.cpu_lane";
const GPU_STEP: &str = "step.gpu_worker";
const COORD_STEP: &str = "step.coordinator";
const EVAL_STEP: &str = "step.eval";

/// Replay the workload's steps and reconcile them with the trials.
pub fn replay(p: &Prepared, trials: &[Trial]) -> Replayed {
    let w = &p.workload;
    let train = &w.train;
    let data = &*p.dataset;
    let rows = data.len();
    let rec = Recorder::new();
    let model = Model::new(p.spec.clone(), train.init, 7);
    let shared = SharedModel::new(&model);
    let csr: Option<CsrMatrix> = train.sparse_input.then(|| data.to_csr());
    let mut written: Vec<Span> = Vec::new();
    let mut got: Vec<(&'static str, f64)> = Vec::new();

    // Mean batch each worker actually ran in the timed trials: step cost is
    // affine in the batch size, so (cost at the mean) × (batch count) is the
    // run's total even while Algorithm 2 moves the size around.
    let mean_batch = |kind| {
        let examples = over_workers(trials, kind, |_, s| s.examples as f64, median);
        let batches = over_workers(trials, kind, |_, s| s.batches as f64, median);
        if batches > 0.0 {
            ((examples / batches).round() as usize).clamp(1, rows)
        } else {
            0
        }
    };
    let cpu_batch = mean_batch(WorkerKind::Cpu);
    let gpu_batch = mean_batch(WorkerKind::Gpu);

    // ------------------------------------------------ one CPU-worker batch
    let lanes_n = match w.engine {
        EngineKind::Threaded { lanes, .. } => lanes,
        // The sim's CPU worker models 56 Xeon threads.
        EngineKind::Sim => hetero_sim::CpuModel::xeon_pair().threads,
    };
    if cpu_batch > 0 {
        let mut lanes: Vec<Lane> = (0..lanes_n)
            .map(|_| Lane {
                local: shared.snapshot(),
                ws: Workspace::new(&p.spec),
                x: Matrix::zeros(0, 0),
                csr: CsrBatch::new(),
                labels: Labels::Classes(Vec::new()),
            })
            .collect();
        let sub = cpu_batch.div_ceil(lanes_n);
        let sub_ranges: Vec<(usize, usize)> = (0..lanes_n)
            .map(|i| (i * sub, ((i + 1) * sub).min(cpu_batch)))
            .filter(|(s, e)| e > s)
            .collect();
        let rec = &rec;
        let csr = csr.as_ref();
        let stage = |lane: &mut Lane, s: usize, e: usize| match csr {
            Some(src) => {
                data.labels.slice_into(s, e, &mut lane.labels);
                src.slice_rows_into(s, e, &mut lane.csr);
            }
            None => data.batch_into(s, e, &mut lane.x, &mut lane.labels),
        };
        let grad = |lane: &mut Lane, base: Option<&Model>| {
            let base = base.unwrap_or(&lane.local);
            if csr.is_some() {
                lane.ws.loss_and_gradient_sparse_into(
                    base,
                    lane.csr.view(),
                    lane.labels.as_targets(),
                    false,
                );
            } else {
                lane.ws
                    .loss_and_gradient_into(base, &lane.x, lane.labels.as_targets(), false);
            }
        };
        let (selfs, spans) = match w.engine {
            EngineKind::Threaded { lanes: threads, .. } => {
                // `spawn_cpu_worker`'s loop body: fan the sub-ranges out to
                // the lane pool; each lane runs `cpu_lane_step`.
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("rayon shim pool");
                repeat(rec, || {
                    rec.span(CPU_STEP, None, |root| {
                        pool.install(|| {
                            lanes[..sub_ranges.len()]
                                .par_chunks_mut(1)
                                .enumerate()
                                .for_each(|(i, lane)| {
                                    let lane = &mut lane[0];
                                    let (s, e) = sub_ranges[i];
                                    rec.span("snapshot", Some(root), |_| {
                                        shared.snapshot_into(&mut lane.local)
                                    });
                                    rec.span("stage", Some(root), |_| stage(lane, s, e));
                                    rec.span("grad", Some(root), |_| grad(lane, None));
                                    let eta = train.lr_scaling.eta(train.lr, e - s) * 1.0e-3;
                                    rec.span("apply", Some(root), |_| {
                                        if csr.is_some() {
                                            shared.apply_gradient_racy_cols(
                                                lane.ws.grad(),
                                                eta,
                                                lane.ws.sparse_active_cols(),
                                            );
                                        } else {
                                            shared.apply_gradient_racy(lane.ws.grad(), eta);
                                        }
                                    });
                                });
                        });
                    });
                })
            }
            EngineKind::Sim => {
                // `SimEngine::apply_batch`, CPU arm: sub-batches in waves of
                // 8 on one thread, each wave's gradients computed on the
                // model as the previous waves left it.
                let mut live = model.clone();
                let mut wave_base = model.clone();
                repeat(rec, || {
                    rec.span(CPU_STEP, None, |root| {
                        single_threaded(|| {
                            for wave in sub_ranges.chunks(8) {
                                rec.span("snapshot", Some(root), |_| wave_base.copy_from(&live));
                                for (lane, &(s, e)) in lanes.iter_mut().zip(wave) {
                                    rec.span("stage", Some(root), |_| stage(lane, s, e));
                                    rec.span("grad", Some(root), |_| grad(lane, Some(&wave_base)));
                                }
                                for (lane, &(s, e)) in lanes.iter().zip(wave) {
                                    let eta = train.lr_scaling.eta(train.lr, e - s) * 1.0e-3;
                                    rec.span("apply", Some(root), |_| {
                                        live.apply_gradient(lane.ws.grad(), eta)
                                    });
                                }
                            }
                        });
                    });
                })
            }
        };
        for (name, t) in selfs {
            got.push((name_of(CPU_STEP, name), 1e6 * t));
        }
        written.extend(spans);
    }

    // ------------------------------------------------ one GPU-worker batch
    if gpu_batch > 0 {
        let rec = &rec;
        let mut snapshot = shared.snapshot();
        let mut replica = Model::zeros_like(&p.spec);
        let mut x = Matrix::zeros(0, 0);
        let mut labels = Labels::Classes(Vec::new());
        let mut ws = Workspace::new(&p.spec);
        let mut batch = CsrBatch::new();
        let mut scan = MergeScan::for_model(&model);
        let eta = train.lr_scaling.eta(train.lr, gpu_batch) * 1.0e-3;
        let (selfs, spans) = match (w.engine, &csr) {
            (EngineKind::Threaded { .. }, None) => {
                // `gpu_batch_step`.
                let device = GpuDevice::new(hetero_sim::GpuModel::v100());
                let mut mlp = GpuMlp::upload(&device, &model).expect("model fits the device");
                repeat(rec, || {
                    rec.span(GPU_STEP, None, |root| {
                        let root = Some(root);
                        rec.span("snapshot", root, |_| shared.snapshot_into(&mut snapshot));
                        rec.span("refresh", root, |_| mlp.refresh(&snapshot));
                        rec.span("stage", root, |_| {
                            data.batch_into(0, gpu_batch, &mut x, &mut labels)
                        });
                        rec.span("train_step", root, |_| {
                            single_threaded(|| mlp.train_step(&x, labels.as_targets(), eta))
                                .expect("steady-state step fits the device");
                        });
                        rec.span("download", root, |_| mlp.download_into(&mut replica));
                        rec.span("merge", root, |_| {
                            shared.merge_delta_scaled_observed(&snapshot, &replica, 1.0)
                        });
                    });
                })
            }
            (EngineKind::Threaded { .. }, Some(src)) => {
                // `gpu_batch_step_sparse`: the replica trains on the host's
                // CSR kernels; nothing crosses the device link.
                repeat(rec, || {
                    rec.span(GPU_STEP, None, |root| {
                        let root = Some(root);
                        rec.span("snapshot", root, |_| shared.snapshot_into(&mut snapshot));
                        rec.span("stage", root, |_| {
                            replica.copy_from(&snapshot);
                            data.labels.slice_into(0, gpu_batch, &mut labels);
                            src.slice_rows_into(0, gpu_batch, &mut batch);
                        });
                        rec.span("train_step", root, |_| {
                            single_threaded(|| {
                                ws.loss_and_gradient_sparse_into(
                                    &replica,
                                    batch.view(),
                                    labels.as_targets(),
                                    true,
                                )
                            });
                            replica.apply_gradient_sparse(ws.grad(), eta, ws.sparse_active_cols());
                        });
                        rec.span("merge", root, |_| {
                            scan.reset();
                            shared.merge_delta_sparse_scanned(
                                &snapshot,
                                &replica,
                                1.0,
                                ws.sparse_active_cols(),
                                &mut scan,
                            )
                        });
                    });
                })
            }
            (EngineKind::Sim, _) => {
                // `SimEngine::assign` + `apply_batch`, GPU arm: the snapshot
                // is a model clone at dispatch, the "device step" a host
                // gradient on it, the merge a plain apply.
                let mut live = model.clone();
                repeat(rec, || {
                    rec.span(GPU_STEP, None, |root| {
                        let root = Some(root);
                        let snap = rec.span("snapshot", root, |_| live.clone());
                        rec.span("stage", root, |_| {
                            data.batch_into(0, gpu_batch, &mut x, &mut labels)
                        });
                        rec.span("train_step", root, |_| {
                            single_threaded(|| {
                                ws.loss_and_gradient_into(&snap, &x, labels.as_targets(), true)
                            })
                        });
                        rec.span("merge", root, |_| live.apply_gradient(ws.grad(), eta));
                    });
                })
            }
        };
        for (name, t) in selfs {
            got.push((name_of(GPU_STEP, name), 1e6 * t));
        }
        written.extend(spans);
    }

    // --------------------------------------------- one coordinator dispatch
    {
        let rec = &rec;
        let a = train.adaptive;
        let mut controller = AdaptiveController::new(
            a.alpha,
            train.algorithm.is_adaptive(),
            vec![
                WorkerBatchState::new(a.cpu_min_batch, a.cpu_min_batch, a.cpu_max_batch),
                WorkerBatchState::new(a.gpu_max_batch, a.gpu_min_batch, a.gpu_max_batch),
            ],
        );
        let mut scheduler = BatchScheduler::new(rows, None);
        let mut turn = 0usize;
        let (selfs, spans) = match w.engine {
            EngineKind::Threaded { .. } => {
                // The `dispatch!` macro plus the round trip it starts: the
                // worker is parked in `recv` and answers at once, so the
                // span is pure transport (two sends, two wake-ups).
                let (exec_tx, exec_rx) = hetero_mq::channel::<(u64, usize, usize)>();
                let (ready_tx, ready_rx) = hetero_mq::channel::<u64>();
                std::thread::scope(|s| {
                    let worker = s.spawn(move || {
                        while let Ok((id, _, _)) = exec_rx.recv() {
                            if ready_tx.send(id).is_err() {
                                break;
                            }
                        }
                    });
                    let out = repeat(rec, || {
                        rec.span(COORD_STEP, None, |root| {
                            let root = Some(root);
                            turn ^= 1;
                            let size =
                                rec.span("on_request", root, |_| controller.on_request(turn));
                            controller.report_updates(turn, 1.0);
                            let range = rec
                                .span("next_batch", root, |_| scheduler.next_batch(size))
                                .expect("unbounded schedule");
                            rec.span("transport", root, |_| {
                                exec_tx
                                    .send((0, range.start, range.end))
                                    .expect("echo worker alive");
                                ready_rx.recv().expect("echo worker replies")
                            });
                        });
                    });
                    drop(exec_tx); // ends the echo loop
                    worker.join().expect("echo worker exits cleanly");
                    out
                })
            }
            EngineKind::Sim => {
                // `SimEngine::assign`: the transport is the event queue.
                let mut queue: EventQueue<(usize, usize)> = EventQueue::new();
                queue.schedule_after(1.0e-4, (0, 0));
                repeat(rec, || {
                    rec.span(COORD_STEP, None, |root| {
                        let root = Some(root);
                        turn ^= 1;
                        let size = rec.span("on_request", root, |_| controller.on_request(turn));
                        controller.report_updates(turn, 1.0);
                        let range = rec
                            .span("next_batch", root, |_| scheduler.next_batch(size))
                            .expect("unbounded schedule");
                        rec.span("transport", root, |_| {
                            queue.schedule_after(2.0e-4, (range.start, range.end));
                            queue.pop()
                        });
                    });
                })
            }
        };
        for (name, t) in selfs {
            got.push((name_of(COORD_STEP, name), 1e6 * t));
        }
        written.extend(spans);
    }

    // ------------------------------------------------- one coordinator eval
    {
        let rec = &rec;
        let n = train.eval_subsample.min(rows);
        let (eval_x, eval_labels) = data.batch(0, n);
        let eval_csr = csr.as_ref().map(|_| CsrMatrix::from_dense(&eval_x, 0.0));
        let (selfs, spans) = repeat(rec, || {
            rec.span(EVAL_STEP, None, |_| {
                // Both engines evaluate a deep copy: a fresh snapshot on the
                // threaded engine, the live model itself on the sim.
                let m = match w.engine {
                    EngineKind::Threaded { .. } => shared.snapshot(),
                    EngineKind::Sim => model.clone(),
                };
                let pass = single_threaded(|| match &eval_csr {
                    Some(c) => hetero_nn::forward_sparse(&m, c, true),
                    None => hetero_nn::forward(&m, &eval_x, true),
                });
                std::hint::black_box((
                    hetero_nn::loss(pass.probs(), eval_labels.as_targets(), p.spec.loss),
                    hetero_nn::accuracy(pass.probs(), eval_labels.as_targets()),
                ));
            });
        });
        for (name, t) in selfs {
            got.push((name_of(EVAL_STEP, name), 1e6 * t));
        }
        written.extend(spans);
    }

    // --------------------------------------------------------- reconcile
    let total_of = |step: &str| -> f64 {
        got.iter()
            .filter(|(n, _)| n.starts_with(step))
            .map(|(_, us)| us * 1e-6)
            .sum()
    };
    let cpu_step = total_of("replay.cpu_lane.");
    let gpu_step = total_of("replay.gpu_worker.");
    let coord_step = total_of("replay.coordinator.") - total_of("replay.coordinator.eval.");
    let eval_step = total_of("replay.coordinator.eval.");
    let cpu_batches = over_workers(trials, WorkerKind::Cpu, |_, s| s.batches as f64, median);
    let gpu_batches = over_workers(trials, WorkerKind::Gpu, |_, s| s.batches as f64, median);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (cpu_ratio, gpu_ratio, sim_ratio) = match w.engine {
        EngineKind::Threaded { .. } => {
            // Wall-clock on both sides of the ratio, so the same
            // fastest-eighth estimator on both.
            let busy =
                |kind| over_workers(trials, kind, |_, s| busy_secs(s), |v| fastest_mean(v, true));
            (
                ratio(cpu_step * cpu_batches, busy(WorkerKind::Cpu)),
                ratio(gpu_step * gpu_batches, busy(WorkerKind::Gpu)),
                0.0,
            )
        }
        EngineKind::Sim => {
            // `busy_secs` is virtual on the sim; its one host thread runs
            // every role in turn, so the roles must add up to the wall.
            let evals = median(
                &trials
                    .iter()
                    .map(|t| t.result.loss_curve.len() as f64)
                    .collect::<Vec<_>>(),
            );
            let wall = fastest_mean(&trials.iter().map(|t| t.wall_s).collect::<Vec<_>>(), true);
            let replayed = cpu_step * cpu_batches
                + gpu_step * gpu_batches
                + coord_step * (cpu_batches + gpu_batches)
                + eval_step * evals;
            (0.0, 0.0, ratio(replayed, wall))
        }
    };
    got.push(("reconcile.cpu_ratio", cpu_ratio));
    got.push(("reconcile.gpu_ratio", gpu_ratio));
    got.push(("reconcile.sim_wall_ratio", sim_ratio));

    // A role the workload does not have spent no time: its metrics read 0.
    let metrics = crate::names::PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("replay.") || m.name.starts_with("reconcile."))
        .map(|m| {
            let v = got.iter().find(|(n, _)| *n == m.name).map_or(0.0, |g| g.1);
            (m.name, v)
        })
        .collect();

    let mut notes = vec![format!(
        "replay: cpu batch {cpu_batch} x {cpu_batches:.0} = {:.3} s | gpu batch {gpu_batch} x {gpu_batches:.0} = {:.3} s | dispatch {:.1} us | eval {:.0} us",
        cpu_step * cpu_batches,
        gpu_step * gpu_batches,
        coord_step * 1e6,
        eval_step * 1e6,
    )];
    match write_spans(w.name, &written) {
        Ok(path) => notes.push(format!(
            "replay: {} spans written to {}",
            written.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("replay: spans not written: {e}")),
    }
    Replayed { metrics, notes }
}

/// `replay.<role>.<child>.self_us` for a span name under a step root. The
/// root's own self time is the role's unattributed remainder.
fn name_of(step: &str, span: &'static str) -> &'static str {
    let wanted = match (step, span) {
        (CPU_STEP, CPU_STEP) => "replay.cpu_lane.fanout.self_us".to_string(),
        (GPU_STEP, GPU_STEP) => "replay.gpu_worker.other.self_us".to_string(),
        (COORD_STEP, COORD_STEP) => "replay.coordinator.other.self_us".to_string(),
        (EVAL_STEP, EVAL_STEP) => "replay.coordinator.eval.self_us".to_string(),
        (CPU_STEP, child) => format!("replay.cpu_lane.{child}.self_us"),
        (GPU_STEP, child) => format!("replay.gpu_worker.{child}.self_us"),
        (_, child) => format!("replay.coordinator.{child}.self_us"),
    };
    crate::names::PER_LAYER
        .iter()
        .find(|m| m.name == wanted)
        .unwrap_or_else(|| panic!("replay span `{wanted}` is not declared in names.rs"))
        .name
}

fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    use std::io::Write;
    let dir = crate::report::results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("replay_spans.{workload}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
            s.name, s.start, s.end
        )?;
    }
    out.flush()?;
    Ok(path)
}

/// Run counters of the timed trials, plus `trace.overhead_pct` and the
/// phase shares from extra engine-traced trials.
pub fn run_counters(
    p: &Prepared,
    trials: &[Trial],
    untraced_examples_per_s: f64,
    first_traced_seed: u64,
) -> Vec<(&'static str, f64)> {
    let med = |f: &dyn Fn(&TrainResult) -> f64| {
        median(&trials.iter().map(|t| f(&t.result)).collect::<Vec<_>>())
    };
    // Share of the engine's own clock a worker spent inside batches.
    let busy = |kind| {
        over_workers(
            trials,
            kind,
            |t, s| busy_secs(s) / t.result.duration,
            median,
        )
    };
    let final_batch = |kind| over_workers(trials, kind, |_, s| s.final_batch as f64, median);
    let wall = median(&trials.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let mut out = vec![
        ("core.cpu_busy_fraction", busy(WorkerKind::Cpu)),
        ("core.gpu_busy_fraction", busy(WorkerKind::Gpu)),
        (
            "core.cpu_update_fraction",
            med(&|r| r.cpu_update_fraction()),
        ),
        (
            "core.batches_per_s",
            med(&|r| r.workers.iter().map(|w| w.batches).sum::<u64>() as f64) / wall,
        ),
        ("core.final_batch.cpu", final_batch(WorkerKind::Cpu)),
        ("core.final_batch.gpu", final_batch(WorkerKind::Gpu)),
        ("core.evals", med(&|r| r.loss_curve.len() as f64)),
        ("core.requeued_batches", med(&|r| r.requeued_batches as f64)),
    ];

    // Engine-side tracing on: lineage events through a live sink. Three
    // trials, so one slow-host blip does not read as tracing overhead.
    const TRACED_TRIALS: u64 = 3;
    let mut traced_eps = Vec::new();
    let mut profile = None;
    for k in 0..TRACED_TRIALS {
        let sink = match p.workload.engine {
            EngineKind::Threaded { .. } => TraceSink::wall(1 << 16),
            EngineKind::Sim => TraceSink::virtual_time(1 << 16),
        };
        let t = p.run_trial_with(first_traced_seed + k, &sink);
        traced_eps.push(examples_trained(&t.result) as f64 / t.wall_s);
        profile = Some(analyze(&sink.drain()).critical_path.profile);
    }
    let traced = fastest_mean(&traced_eps, false);
    out.push((
        "trace.overhead_pct",
        100.0 * (untraced_examples_per_s - traced) / untraced_examples_per_s,
    ));
    let profile = profile.expect("TRACED_TRIALS >= 1");
    let total = profile.total().max(f64::MIN_POSITIVE);
    for (name, secs) in [
        ("core.phase.queue_share", profile.queue_secs),
        ("core.phase.stage_share", profile.stage_secs),
        ("core.phase.compute_share", profile.compute_secs),
        ("core.phase.transfer_share", profile.transfer_secs),
        ("core.phase.merge_share", profile.merge_secs),
        ("core.phase.coordinator_share", profile.coordinator_secs),
        ("core.phase.residual_share", profile.residual_secs),
    ] {
        out.push((name, secs / total));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", None, 0.0, 10.0),
            // Two children on different threads overlapping in [3, 4].
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 6.0),
            // A grandchild does not count against the root.
            span("a.inner", Some(1), 2.0, 3.0),
        ];
        let s = self_times(&spans);
        assert!(
            (s[0] - 5.0).abs() < 1e-12,
            "root covered on [1, 6]: {}",
            s[0]
        );
        assert!((s[1] - 2.0).abs() < 1e-12);
        assert!((s[2] - 3.0).abs() < 1e-12);
        assert!((s[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_by_index() {
        let rec = Recorder::new();
        rec.span("outer", None, |outer| {
            rec.span("inner", Some(outer), |_| {});
        });
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(rec.take().is_empty());
    }
}
