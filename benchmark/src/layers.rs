//! The layer suite: every layer (= crate) called alone, from here, at the
//! shapes the workloads use.
//!
//! Each number is the fastest eighth of [`BATCHES`] timed batches (the
//! estimator every wall-clock number in this benchmark uses), each batch
//! repeating the call until it lasts at least [`BATCH_SECS`]. Nothing in
//! `crates/` is edited or instrumented: the suite only calls public
//! functions. The shapes come from the frozen workloads — the dense ones
//! from `threaded-adaptive-w8a` (GPU batch 1024, lane batch 256, 300 → 192
//! → 192 → 2), the sparse ones from `threaded-sparse-realsim` (256-row CSR
//! batches, 20 958 → 64 → 2) — and do not depend on `--workload` or
//! `--seed`, so the same suite number means the same thing in every run.

use std::hint::black_box;
use std::time::Instant;

use hetero_core::adaptive::{AdaptiveController, WorkerBatchState};
use hetero_data::{BatchScheduler, Labels};
use hetero_gpu::{GpuDevice, GpuMlp};
use hetero_nn::{MergeScan, Model, SharedModel, Workspace};
use hetero_sim::EventQueue;
use hetero_tensor::{gemm, ops, sparse, CsrBatch, Matrix};
use hetero_trace::{BatchPhases, EventKind, TraceSink};

use crate::host;
use crate::names;
use crate::stats::fastest_mean;
use crate::workloads::{self, single_threaded, Workload};

/// Timed batches per measurement.
pub const BATCHES: usize = 30;
/// Minimum length of one timed batch.
pub const BATCH_SECS: f64 = 0.005;

/// Seconds per call of `f`: fastest eighth of [`BATCHES`] batches of at
/// least [`BATCH_SECS`] each, after a warm-up that also sizes the batch.
pub fn per_call(mut f: impl FnMut()) -> f64 {
    per_call_n(BATCHES, &mut f)
}

fn per_call_n(batches: usize, f: &mut dyn FnMut()) -> f64 {
    // Warm up and find how many calls fill a batch: double until the
    // doubling itself is long enough to time reliably.
    let mut reps = 1usize;
    let per = loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= BATCH_SECS / 4.0 {
            break elapsed / reps as f64;
        }
        reps *= 2;
    };
    let reps = ((BATCH_SECS / per).ceil() as usize).max(1);
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    fastest_mean(&samples, true)
}

/// Deterministic filler in (-1, 1): the suite's inputs never depend on
/// `--seed`.
fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

fn workload(name: &str) -> Workload {
    workloads::by_name(name).expect("suite shapes come from a declared workload")
}

/// A model whose parameters all differ from `base` (a stand-in for a
/// trained replica or a gradient).
fn perturbed(base: &Model) -> Model {
    let mut m = base.clone();
    for layer in m.layers_mut() {
        for v in layer.w.as_mut_slice() {
            *v += 1.0e-3;
        }
        for v in layer.b.iter_mut() {
            *v += 1.0e-3;
        }
    }
    m
}

/// Run the whole suite. Returns `(metric name, value)` for every
/// layer-suite metric in `names::PER_LAYER`.
pub fn suite() -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let dense_w = workload(names::THREADED_ADAPTIVE_W8A);
    let sparse_w = workload(names::THREADED_SPARSE_REALSIM);
    let gpu_batch = dense_w.train.adaptive.gpu_max_batch;
    let lane_batch = dense_w.train.adaptive.cpu_max_batch;
    let sparse_batch = sparse_w.train.cpu_batch_per_thread;

    // ------------------------------------------------------------- host
    out.push(("host.peak_fma_gflops", host::peak_fma_gflops(0.15)));
    {
        let n = 8 << 20; // 2 × 32 MB, far past the last-level cache
        let x = vec![1.0f32; n];
        let mut y = vec![0.5f32; n];
        let samples: Vec<f64> = (0..9).map(|_| host::stream_gb_per_s(&x, &mut y)).collect();
        out.push(("host.stream_gb_per_s", fastest_mean(&samples, false)));
    }

    // ------------------------------------------------------------- data
    // One generation is tens of milliseconds, so these two take fewer
    // batches than the rest of the suite.
    let dense_data = dense_w.generate(1);
    let sparse_small = Workload {
        data: workloads::Data::RealSimFullWidth {
            examples: 2 * sparse_batch,
        },
        ..sparse_w.clone()
    };
    out.push((
        "data.generate_s",
        per_call_n(7, &mut || {
            black_box(sparse_small.generate(1));
        }),
    ));
    let sparse_data = sparse_small.generate(1);
    out.push((
        "data.to_csr_s",
        per_call_n(7, &mut || {
            black_box(sparse_data.to_csr());
        }),
    ));
    let sparse_csr = sparse_data.to_csr();
    {
        let mut sched = BatchScheduler::new(dense_data.len(), None);
        out.push((
            "data.next_batch_ns",
            1e9 * per_call(|| {
                black_box(sched.next_batch(black_box(lane_batch)));
            }),
        ));
        let mut x = Matrix::zeros(0, 0);
        let mut labels = Labels::Classes(Vec::new());
        out.push((
            "data.batch_into.ns_per_row",
            1e9 / lane_batch as f64
                * per_call(|| dense_data.batch_into(0, lane_batch, &mut x, &mut labels)),
        ));
        let mut csr = CsrBatch::new();
        out.push((
            "data.csr_slice.ns_per_row",
            1e9 / sparse_batch as f64
                * per_call(|| sparse_csr.slice_rows_into(0, sparse_batch, &mut csr)),
        ));
    }

    // ----------------------------------------------------------- tensor
    {
        let (m, k, n) = (gpu_batch, dense_data.features(), dense_w.hidden[0]);
        let gflop = 2.0 * (m * k * n) as f64 / 1e9;
        let x = filled(m, k, 1); // batch × in
        let w = filled(n, k, 2); // out × in (the layer's weight layout)
        let delta = filled(m, n, 3); // batch × out
        let bias = vec![0.1f32; n];
        let mut act = Matrix::zeros(m, n);
        out.push((
            "tensor.gemm_nt_bias.gflops",
            gflop / per_call(|| gemm::gemm_nt_bias(1.0, &x, &w, &bias, &mut act)),
        ));
        let mut prev = Matrix::zeros(m, k);
        out.push((
            "tensor.gemm_nn.gflops",
            gflop / per_call(|| gemm::gemm_nn(1.0, &delta, &w, 0.0, &mut prev)),
        ));
        let mut grad_w = Matrix::zeros(n, k);
        out.push((
            "tensor.gemm_tn.gflops",
            gflop / per_call(|| gemm::gemm_tn(1.0, &delta, &x, 0.0, &mut grad_w)),
        ));
        let x1 = filled(1, k, 4);
        let mut act1 = Matrix::zeros(1, n);
        out.push((
            "tensor.gemm_nt_bias.b1_gflops",
            gflop / m as f64 / per_call(|| gemm::gemm_nt_bias(1.0, &x1, &w, &bias, &mut act1)),
        ));
        let mut s = filled(m, n, 5);
        out.push((
            "tensor.sigmoid.gelem_per_s",
            (m * n) as f64 / 1e9 / per_call(|| ops::sigmoid_slice(s.as_mut_slice())),
        ));
    }
    {
        let mut batch = CsrBatch::new();
        sparse_csr.slice_rows_into(0, sparse_batch, &mut batch);
        let hidden = sparse_w.hidden[0];
        let mnnz = batch.nnz() as f64 / 1e6;
        let wt = filled(sparse_data.features(), hidden, 6);
        let bias = vec![0.1f32; hidden];
        let mut z = Matrix::zeros(0, 0);
        out.push((
            "tensor.spmm_bias.mnnz_per_s",
            mnnz / per_call(|| sparse::spmm_bias_into(batch.view(), &wt, &bias, &mut z)),
        ));
        let delta = filled(sparse_batch, hidden, 7);
        // Accumulating into the same rows every call is fine for timing:
        // the kernel's work does not depend on the values.
        let mut grad_t = Matrix::zeros(sparse_data.features(), hidden);
        out.push((
            "tensor.spmm_tn_scatter.mnnz_per_s",
            mnnz / per_call(|| sparse::spmm_tn_scatter(batch.view(), &delta, &mut grad_t)),
        ));
        let n = sparse_data.features() * hidden;
        let x = vec![1.0e-6f32; n];
        let mut y = vec![0.5f32; n];
        out.push((
            "tensor.axpy.gb_per_s",
            12.0 * n as f64 / 1e9 / per_call(|| ops::axpy(1.0e-3, &x, &mut y)),
        ));
    }

    // --------------------------------------------------------------- nn
    let dense_model = Model::new(dense_w.spec(&dense_data), dense_w.train.init, 7);
    let sparse_model = Model::new(sparse_w.spec(&sparse_data), sparse_w.train.init, 7);
    {
        let mut ws = Workspace::new(dense_model.spec());
        for (name, batch) in [("nn.step_us.b1", 1), ("nn.step_us.lane", lane_batch)] {
            let (x, labels) = dense_data.batch(0, batch);
            out.push((
                name,
                1e6 * per_call(|| {
                    ws.loss_and_gradient_into(&dense_model, &x, labels.as_targets(), false);
                }),
            ));
        }
        let mut batch = CsrBatch::new();
        sparse_csr.slice_rows_into(0, sparse_batch, &mut batch);
        let labels = sparse_data.labels.slice(0, sparse_batch);
        let mut sws = Workspace::new(sparse_model.spec());
        out.push((
            "nn.step_sparse_us",
            1e6 * per_call(|| {
                sws.loss_and_gradient_sparse_into(
                    &sparse_model,
                    batch.view(),
                    labels.as_targets(),
                    false,
                );
            }),
        ));
        // The coordinator's eval: a parallel-flagged forward over the eval
        // subset, on a pool pinned to one thread like the engines pin it.
        let (eval_x, _) = dense_data.batch(0, dense_w.train.eval_subsample);
        out.push((
            "nn.eval_forward_us",
            1e6 * per_call(|| {
                black_box(single_threaded(|| {
                    hetero_nn::forward(&dense_model, &eval_x, true)
                }));
            }),
        ));

        // Shared-model traffic, dense: the whole w8a model per call.
        let shared = SharedModel::new(&dense_model);
        let params = shared.num_params() as f64;
        let mut local = Model::zeros_like(dense_model.spec());
        out.push((
            "nn.snapshot.ns_per_param",
            1e9 / params * per_call(|| shared.snapshot_into(&mut local)),
        ));
        let grad = perturbed(&dense_model);
        out.push((
            "nn.apply_racy.ns_per_param",
            1e9 / params * per_call(|| shared.apply_gradient_racy(&grad, 1.0e-6)),
        ));
        let mut retries = 0u64;
        let mut merges = 0u64;
        out.push((
            "nn.merge.ns_per_param",
            1e9 / params
                * per_call(|| {
                    retries += shared.merge_delta_scaled_observed(&dense_model, &grad, 1.0e-3);
                    merges += 1;
                }),
        ));
        // Uncontended here, so this reads 0 unless the CAS loop itself
        // starts spinning; the engine-side count is a run counter.
        out.push(("nn.merge.cas_retries", retries as f64 / merges as f64));

        // Shared-model traffic, row-sparse: the columns one CSR batch
        // activates in the 1.3 M-parameter first layer, plus the dense tail.
        sws.loss_and_gradient_sparse_into(&sparse_model, batch.view(), labels.as_targets(), false);
        let cols: Vec<u32> = sws.sparse_active_cols().to_vec();
        let hidden = sparse_w.hidden[0];
        let touched = (cols.len() * hidden + sparse_model.num_params()
            - sparse_data.features() * hidden) as f64;
        let sparse_shared = SharedModel::new(&sparse_model);
        let sparse_grad = perturbed(&sparse_model);
        out.push((
            "nn.apply_racy_cols.ns_per_param",
            1e9 / touched
                * per_call(|| sparse_shared.apply_gradient_racy_cols(&sparse_grad, 1.0e-6, &cols)),
        ));
        let mut scan = MergeScan::for_model(&sparse_model);
        out.push((
            "nn.merge_sparse.ns_per_param",
            1e9 / touched
                * per_call(|| {
                    scan.reset();
                    black_box(sparse_shared.merge_delta_sparse_scanned(
                        &sparse_model,
                        &sparse_grad,
                        1.0e-3,
                        &cols,
                        &mut scan,
                    ));
                }),
        ));
    }

    // --------------------------------------------------------------- mq
    {
        let (tx, rx) = hetero_mq::channel::<u64>();
        out.push((
            "mq.channel.send_recv_ns",
            1e9 * per_call(|| {
                tx.send(1).expect("receiver alive");
                black_box(rx.try_recv().expect("message just sent"));
            }),
        ));
        // Cross-thread round trip with both ends blocked in `recv` — the
        // coordinator ↔ worker pattern (park, wake, park).
        let (ping_tx, ping_rx) = hetero_mq::channel::<u64>();
        let (pong_tx, pong_rx) = hetero_mq::channel::<u64>();
        let pingpong = std::thread::scope(|s| {
            let echo = s.spawn(move || {
                while let Ok(v) = ping_rx.recv() {
                    if pong_tx.send(v).is_err() {
                        break;
                    }
                }
            });
            let t = per_call(|| {
                ping_tx.send(1).expect("echo thread alive");
                black_box(pong_rx.recv().expect("echo thread replies"));
            });
            drop(ping_tx); // ends the echo loop
            echo.join().expect("echo thread exits cleanly");
            t
        });
        out.push(("mq.channel.pingpong_ns", 1e9 * pingpong));
    }

    // -------------------------------------------------------------- gpu
    {
        let device = GpuDevice::v100();
        let mut mlp = GpuMlp::upload(&device, &dense_model).expect("w8a model fits the device");
        let mut replica = Model::zeros_like(dense_model.spec());
        out.push((
            "gpu.refresh_us",
            1e6 * per_call(|| mlp.refresh(&dense_model)),
        ));
        let (x, labels) = dense_data.batch(0, gpu_batch);
        out.push((
            "gpu.train_step_us",
            1e6 * per_call(|| {
                single_threaded(|| mlp.train_step(&x, labels.as_targets(), 1.0e-6))
                    .expect("steady-state step fits the device");
            }),
        ));
        out.push((
            "gpu.download_us",
            1e6 * per_call(|| mlp.download_into(&mut replica)),
        ));
        let host_buf = vec![0.5f32; 1 << 20];
        let dev_buf = device.h2d(&host_buf).expect("4 MB fits the device");
        out.push((
            "gpu.h2d.gb_per_s",
            4.0 * host_buf.len() as f64 / 1e9 / per_call(|| device.h2d_into(&host_buf, dev_buf)),
        ));
    }

    // ------------------------------------------------ core, sim, trace
    {
        let p = dense_w.train.adaptive;
        let mut controller = AdaptiveController::new(
            p.alpha,
            true,
            vec![
                WorkerBatchState::new(p.cpu_min_batch, p.cpu_min_batch, p.cpu_max_batch),
                WorkerBatchState::new(p.gpu_max_batch, p.gpu_min_batch, p.gpu_max_batch),
            ],
        );
        let mut w = 0usize;
        out.push((
            "core.adaptive.on_request_ns",
            1e9 * per_call(|| {
                black_box(controller.on_request(w));
                controller.report_updates(w, 1.0);
                w ^= 1;
            }),
        ));
        // Steady-state queue of a 2-worker sim: a few pending events, one
        // popped and one scheduled per step.
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..4 {
            queue.schedule_after(1.0e-4 * (i + 1) as f64, i);
        }
        out.push((
            "sim.event_queue.ns_per_event",
            1e9 * per_call(|| {
                let (_, payload) = queue.pop().expect("queue never drains");
                queue.schedule_after(3.0e-4, payload);
            }),
        ));
        let event = |id| EventKind::BatchCompleted {
            id,
            batch: 512,
            updates: 8,
            phases: BatchPhases {
                stage_secs: 1e-4,
                compute_secs: 2e-3,
                transfer_secs: 3e-4,
                merge_secs: 5e-5,
            },
        };
        // What every untraced hot path pays: the `enabled()` guard.
        let off = TraceSink::disabled();
        let mut id = 0u64;
        out.push((
            "trace.emit_disabled_ns",
            1e9 * per_call(|| {
                if black_box(&off).enabled() {
                    off.emit(1, event(id));
                }
                id += 1;
            }),
        ));
        // The widest hot-path event into a live ring (drop-oldest, so the
        // ring never fills up and never allocates).
        let on = TraceSink::wall(1 << 12);
        out.push((
            "trace.emit_enabled_ns",
            1e9 * per_call(|| {
                on.emit(1, event(id));
                id += 1;
            }),
        ));
    }
    out
}
