//! Every workload and metric name, unit, direction and bound, in one place.
//!
//! `BENCHMARK.json`, the printer, the correctness checks and the tests all
//! read these tables, so a name cannot drift between them
//! (`hetero-benchmark manifest` prints `BENCHMARK.json` from here and the
//! smoke test compares it with the committed file). Names use only
//! letters, digits, `_`, `.` and `-`.

/// `run_seconds` in `BENCHMARK.json`: the `--seconds` at which a run makes
/// exactly [`TRIALS`] timed trials.
pub const RUN_SECONDS: u64 = 20;
/// Timed trials per run at `--seconds` = [`RUN_SECONDS`]; also the floor.
/// The noise study in `README.md` fixes this number.
pub const TRIALS: usize = 24;
/// Timed trials in a `--trace 1` run (the layer suite and the replay take
/// the rest of the run's time; per-layer metrics carry no bound).
pub const TRACE_TRIALS: usize = 8;
/// Set-ups per run, at least; `setup_s` is the median of all of them.
pub const SETUPS: usize = 3;
/// Cheap set-ups repeat until this many seconds have gone into them …
pub const SETUP_PHASE_SECS: f64 = 0.5;
/// … or this many set-ups were timed.
pub const MAX_SETUPS: usize = 25;

pub const THREADED_ADAPTIVE_W8A: &str = "threaded-adaptive-w8a";
pub const THREADED_HOGBATCH_CPU_W8A: &str = "threaded-hogbatch-cpu-w8a";
pub const THREADED_SPARSE_REALSIM: &str = "threaded-sparse-realsim";
pub const SIM_ADAPTIVE_COVTYPE: &str = "sim-adaptive-covtype";

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's identity.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

pub const SETUP_S: &str = "setup_s";
pub const EXAMPLES_PER_S: &str = "examples_per_s";
pub const UPDATES_PER_S: &str = "updates_per_s";
pub const EPOCHS_TO_TARGET: &str = "epochs_to_target";
pub const TIME_TO_TARGET_S: &str = "time_to_target_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// End-to-end metrics with their regression bound: the share of the
/// parent's median by which the metric may worsen, which is also the
/// repeatability limit between two sets of runs. Derived in `README.md`
/// ("Noise study and bounds") from ten-run spreads on the reference host:
/// two to three times the typical spread, never below 1.5x the largest one
/// seen. The wall-clock metrics sit at the contract's ceiling because the
/// host's speed moves by 1.3-1.6x for minutes at a time.
pub const END_TO_END: [(MetricDef, f64); 6] = [
    (lo(SETUP_S, "s"), 0.25),
    (hi(EXAMPLES_PER_S, "1/s"), 0.25),
    (hi(UPDATES_PER_S, "1/s"), 0.25),
    (lo(EPOCHS_TO_TARGET, "epochs"), 0.20),
    (lo(TIME_TO_TARGET_S, "s"), 0.25),
    (lo(PEAK_RSS_MB, "MB"), 0.15),
];

/// Per-layer metrics, layer = crate. Three sources (see `README.md`):
/// the layer suite (`host.*` … `trace.emit_*`), the replay
/// (`replay.*`, `reconcile.*`) and the run counters (`core.*` fractions,
/// `core.phase.*`, `trace.overhead_pct`). Every metric is printed on every
/// workload; a layer the workload does not pass through reads 0.
pub const PER_LAYER: [MetricDef; 71] = [
    // --- layer suite: the host itself (roofline + a record of host speed)
    hi("host.peak_fma_gflops", "GFLOP/s"),
    hi("host.stream_gb_per_s", "GB/s"),
    // --- layer suite: tensor
    hi("tensor.gemm_nt_bias.gflops", "GFLOP/s"),
    hi("tensor.gemm_nn.gflops", "GFLOP/s"),
    hi("tensor.gemm_tn.gflops", "GFLOP/s"),
    hi("tensor.gemm_nt_bias.b1_gflops", "GFLOP/s"),
    hi("tensor.spmm_bias.mnnz_per_s", "Mnnz/s"),
    hi("tensor.spmm_tn_scatter.mnnz_per_s", "Mnnz/s"),
    hi("tensor.axpy.gb_per_s", "GB/s"),
    hi("tensor.sigmoid.gelem_per_s", "Gelem/s"),
    // --- layer suite: nn
    lo("nn.step_us.b1", "us"),
    lo("nn.step_us.lane", "us"),
    lo("nn.step_sparse_us", "us"),
    lo("nn.eval_forward_us", "us"),
    lo("nn.snapshot.ns_per_param", "ns"),
    lo("nn.apply_racy.ns_per_param", "ns"),
    lo("nn.apply_racy_cols.ns_per_param", "ns"),
    lo("nn.merge.ns_per_param", "ns"),
    lo("nn.merge.cas_retries", "count"),
    lo("nn.merge_sparse.ns_per_param", "ns"),
    // --- layer suite: data
    lo("data.next_batch_ns", "ns"),
    lo("data.batch_into.ns_per_row", "ns"),
    lo("data.csr_slice.ns_per_row", "ns"),
    lo("data.generate_s", "s"),
    lo("data.to_csr_s", "s"),
    // --- layer suite: mq
    lo("mq.channel.send_recv_ns", "ns"),
    lo("mq.channel.pingpong_ns", "ns"),
    // --- layer suite: gpu
    lo("gpu.refresh_us", "us"),
    lo("gpu.train_step_us", "us"),
    lo("gpu.download_us", "us"),
    hi("gpu.h2d.gb_per_s", "GB/s"),
    // --- layer suite: core, sim, trace
    lo("core.adaptive.on_request_ns", "ns"),
    lo("sim.event_queue.ns_per_event", "ns"),
    lo("trace.emit_disabled_ns", "ns"),
    lo("trace.emit_enabled_ns", "ns"),
    // --- replay: one CPU-worker batch
    lo("replay.cpu_lane.fanout.self_us", "us"),
    lo("replay.cpu_lane.snapshot.self_us", "us"),
    lo("replay.cpu_lane.stage.self_us", "us"),
    lo("replay.cpu_lane.grad.self_us", "us"),
    lo("replay.cpu_lane.apply.self_us", "us"),
    // --- replay: one GPU-worker batch
    lo("replay.gpu_worker.other.self_us", "us"),
    lo("replay.gpu_worker.snapshot.self_us", "us"),
    lo("replay.gpu_worker.stage.self_us", "us"),
    lo("replay.gpu_worker.refresh.self_us", "us"),
    lo("replay.gpu_worker.train_step.self_us", "us"),
    lo("replay.gpu_worker.download.self_us", "us"),
    lo("replay.gpu_worker.merge.self_us", "us"),
    // --- replay: one coordinator dispatch
    lo("replay.coordinator.other.self_us", "us"),
    lo("replay.coordinator.on_request.self_us", "us"),
    lo("replay.coordinator.next_batch.self_us", "us"),
    lo("replay.coordinator.transport.self_us", "us"),
    lo("replay.coordinator.eval.self_us", "us"),
    // --- replay × counts against the engine's own busy time
    hi("reconcile.cpu_ratio", "ratio"),
    hi("reconcile.gpu_ratio", "ratio"),
    hi("reconcile.sim_wall_ratio", "ratio"),
    // --- run counters of the timed trials
    hi("core.cpu_busy_fraction", "fraction"),
    hi("core.gpu_busy_fraction", "fraction"),
    hi("core.cpu_update_fraction", "fraction"),
    hi("core.batches_per_s", "1/s"),
    hi("core.final_batch.cpu", "count"),
    hi("core.final_batch.gpu", "count"),
    lo("core.evals", "count"),
    lo("core.requeued_batches", "count"),
    // --- one engine-traced trial
    lo("trace.overhead_pct", "%"),
    lo("core.phase.queue_share", "fraction"),
    lo("core.phase.stage_share", "fraction"),
    hi("core.phase.compute_share", "fraction"),
    lo("core.phase.transfer_share", "fraction"),
    lo("core.phase.merge_share", "fraction"),
    lo("core.phase.coordinator_share", "fraction"),
    lo("core.phase.residual_share", "fraction"),
];

/// Unit of an end-to-end or per-layer metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared in names.rs"))
        .unit
}
