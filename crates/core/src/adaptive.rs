//! The Adaptive Hogbatch batch-size controller — Algorithm 2's
//! `ScheduleWork` message handler, extracted so every engine shares it and
//! it can be unit-tested in isolation.
//!
//! On every work request from worker `E` the coordinator compares `E`'s
//! cumulative update count `uᴱ` with the min/max update counts of all
//! *other* workers and rescales `E`'s batch by the factor α:
//!
//! - `uᴱ < min(u_others)` → `E` is behind → *speed it up* by shrinking its
//!   batch: `bᴱ ← max(bᴱ/α, min_bᴱ)`;
//! - `uᴱ > max(u_others)` → `E` is ahead → *slow it down* by growing its
//!   batch: `bᴱ ← min(bᴱ·α, max_bᴱ)`.
//!
//! The thresholds `[min_bᴱ, max_bᴱ]` enforce the paper's second criterion —
//! a floor on device utilization — so adaptation trades *bounded* GPU
//! utilization for a balanced update distribution (Figures 7 and 8).

use hetero_trace::{EventKind, ResizeReason, TraceSink};
use serde::{Deserialize, Serialize};

/// Per-worker adaptation state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerBatchState {
    /// Cumulative update count `uᴱ` (CPU batches contribute `t·β`).
    pub updates: f64,
    /// Current batch size `bᴱ`.
    pub batch: usize,
    /// Lower batch threshold (utilization floor).
    pub min_batch: usize,
    /// Upper batch threshold (memory/latency ceiling).
    pub max_batch: usize,
}

impl WorkerBatchState {
    /// State starting at `initial` within `[min_batch, max_batch]`.
    pub fn new(initial: usize, min_batch: usize, max_batch: usize) -> Self {
        assert!(min_batch > 0 && min_batch <= max_batch, "bad thresholds");
        assert!(
            (min_batch..=max_batch).contains(&initial),
            "initial batch outside thresholds"
        );
        WorkerBatchState {
            updates: 0.0,
            batch: initial,
            min_batch,
            max_batch,
        }
    }
}

/// Shared-state implementation of Algorithm 2's coordinator logic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveController {
    alpha: f64,
    /// When false the controller never changes batch sizes — this is the
    /// static CPU+GPU Hogbatch configuration reusing the same plumbing.
    adapt: bool,
    workers: Vec<WorkerBatchState>,
}

impl AdaptiveController {
    /// Controller over the given worker states.
    ///
    /// `alpha` is the batch rescale factor (paper default 2.0); `adapt`
    /// false freezes every batch at its initial value.
    pub fn new(alpha: f64, adapt: bool, workers: Vec<WorkerBatchState>) -> Self {
        assert!(alpha > 1.0, "alpha must exceed 1");
        assert!(!workers.is_empty(), "need at least one worker");
        AdaptiveController {
            alpha,
            adapt,
            workers,
        }
    }

    /// Algorithm 2, lines 1–5: recompute worker `w`'s batch size and return
    /// it. Call on every `ScheduleWork` request.
    pub fn on_request(&mut self, w: usize) -> usize {
        self.on_request_traced(w, &TraceSink::disabled())
    }

    /// [`AdaptiveController::on_request`] that additionally emits a
    /// [`EventKind::BatchResized`] event through `sink` whenever the batch
    /// size actually changes. The reason distinguishes the controller's
    /// `÷α` (behind) and `×α` (ahead) branches from threshold clamping —
    /// a resize that would have crossed a threshold but landed exactly on
    /// it is reported as `Clamped`.
    pub fn on_request_traced(&mut self, w: usize, sink: &TraceSink) -> usize {
        let n = self.workers.len();
        if self.adapt && n > 1 {
            let u_e = self.workers[w].updates;
            let mut min_u = f64::INFINITY;
            let mut max_u = f64::NEG_INFINITY;
            for (i, s) in self.workers.iter().enumerate() {
                if i != w {
                    min_u = min_u.min(s.updates);
                    max_u = max_u.max(s.updates);
                }
            }
            let state = &mut self.workers[w];
            let old = state.batch;
            let mut reason = None;
            if u_e < min_u {
                // Behind every other worker: shrink the batch to speed up.
                let shrunk = (state.batch as f64 / self.alpha).floor() as usize;
                state.batch = shrunk.max(state.min_batch);
                reason = Some(if shrunk < state.min_batch {
                    ResizeReason::Clamped
                } else {
                    ResizeReason::Behind
                });
            } else if u_e > max_u {
                // Ahead of every other worker: grow the batch to slow down.
                let grown = (state.batch as f64 * self.alpha).ceil() as usize;
                state.batch = grown.min(state.max_batch);
                reason = Some(if grown > state.max_batch {
                    ResizeReason::Clamped
                } else {
                    ResizeReason::Ahead
                });
            }
            let new = state.batch;
            if new != old && sink.enabled() {
                if let Some(reason) = reason {
                    sink.emit(w as u32, EventKind::BatchResized { old, new, reason });
                }
            }
        }
        self.workers[w].batch
    }

    /// Worker `w` reports `delta` completed updates (Algorithm 2, worker
    /// side: `uᴱ ← uᴱ + t·β`).
    pub fn report_updates(&mut self, w: usize, delta: f64) {
        assert!(delta >= 0.0, "negative update report");
        self.workers[w].updates += delta;
    }

    /// Clamp worker `w`'s upper batch threshold to `limit` (floored at 1).
    ///
    /// Called when the worker's device OOMed at its current size: the
    /// adaptive loop must never re-request a size the device already
    /// rejected, so the ceiling moves down to the size that fit. A limit
    /// at or above the current ceiling is a no-op.
    pub fn clamp_max_batch(&mut self, w: usize, limit: usize) {
        let limit = limit.max(1);
        let s = &mut self.workers[w];
        if limit < s.max_batch {
            s.max_batch = limit;
            s.min_batch = s.min_batch.min(limit);
            s.batch = s.batch.min(limit);
        }
    }

    /// Current batch size of worker `w` (without adaptation).
    pub fn batch(&self, w: usize) -> usize {
        self.workers[w].batch
    }

    /// Cumulative updates of worker `w`.
    pub fn updates(&self, w: usize) -> f64 {
        self.workers[w].updates
    }

    /// Largest minus smallest cumulative update count across workers.
    pub fn update_gap(&self) -> f64 {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.workers {
            lo = lo.min(s.updates);
            hi = hi.max(s.updates);
        }
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_workers() -> AdaptiveController {
        AdaptiveController::new(
            2.0,
            true,
            vec![
                WorkerBatchState::new(56, 56, 3584),    // CPU: starts at min
                WorkerBatchState::new(8192, 512, 8192), // GPU: starts at max
            ],
        )
    }

    #[test]
    fn no_adaptation_when_balanced() {
        let mut c = two_workers();
        // Equal update counts: neither strictly behind nor ahead.
        c.report_updates(0, 10.0);
        c.report_updates(1, 10.0);
        assert_eq!(c.on_request(0), 56);
        assert_eq!(c.on_request(1), 8192);
    }

    #[test]
    fn lagging_worker_gets_smaller_batches() {
        let mut c = two_workers();
        c.report_updates(0, 5.0);
        c.report_updates(1, 100.0); // GPU far ahead
                                    // GPU asks: it is ahead → batch would grow but is already at max.
        assert_eq!(c.on_request(1), 8192);
        // CPU asks: it is behind → shrink, clamped at min.
        assert_eq!(c.on_request(0), 56);
    }

    #[test]
    fn leading_worker_gets_larger_batches() {
        let mut c = AdaptiveController::new(
            2.0,
            true,
            vec![
                WorkerBatchState::new(512, 56, 4096),
                WorkerBatchState::new(1024, 512, 8192),
            ],
        );
        c.report_updates(0, 100.0);
        c.report_updates(1, 5.0);
        // Worker 0 ahead → doubles (512→1024).
        assert_eq!(c.on_request(0), 1024);
        // Worker 1 behind → halves (1024→512, at min).
        assert_eq!(c.on_request(1), 512);
        // Repeated requests keep growing/shrinking toward the bounds.
        assert_eq!(c.on_request(0), 2048);
        assert_eq!(c.on_request(0), 4096);
        assert_eq!(c.on_request(0), 4096); // clamped at max
    }

    #[test]
    fn static_mode_never_changes() {
        let mut c = AdaptiveController::new(
            2.0,
            false,
            vec![
                WorkerBatchState::new(56, 56, 3584),
                WorkerBatchState::new(8192, 512, 8192),
            ],
        );
        c.report_updates(0, 1000.0);
        for _ in 0..10 {
            assert_eq!(c.on_request(0), 56);
            assert_eq!(c.on_request(1), 8192);
        }
    }

    #[test]
    fn closed_loop_bounds_update_gap() {
        // Simulate a GPU 20× faster than the CPU and check the controller
        // keeps the update-count gap bounded (the algorithm's whole point).
        let mut c = AdaptiveController::new(
            2.0,
            true,
            vec![
                WorkerBatchState::new(56, 56, 3584),
                WorkerBatchState::new(8192, 512, 8192),
            ],
        );
        // Simple time-stepped model: CPU processes 1 batch per tick
        // yielding 56 updates; GPU processes `speed` batches per tick of
        // its current size, yielding 1 update each; bigger batches → fewer
        // batches per tick.
        let mut gap_after_warmup = Vec::new();
        for tick in 0..200 {
            let b_cpu = c.on_request(0);
            let _ = b_cpu;
            c.report_updates(0, 56.0);
            // GPU batches per tick shrink as its batch grows (fixed
            // throughput in examples/tick).
            let b_gpu = c.on_request(1);
            let gpu_batches_per_tick = (160_000 / b_gpu).max(1);
            c.report_updates(1, gpu_batches_per_tick as f64);
            if tick > 50 {
                gap_after_warmup.push(c.update_gap());
            }
        }
        let max_gap = gap_after_warmup.iter().cloned().fold(0.0, f64::max);
        // Without adaptation the GPU would run away by ~20 batches/tick ×
        // 150 ticks; with it, the gap must stay within a few batches' worth.
        assert!(
            max_gap < 2000.0,
            "update gap {max_gap} not bounded by the controller"
        );
    }

    #[test]
    fn three_workers_min_max_over_others() {
        let mut c = AdaptiveController::new(
            2.0,
            true,
            vec![
                WorkerBatchState::new(100, 10, 1000),
                WorkerBatchState::new(100, 10, 1000),
                WorkerBatchState::new(100, 10, 1000),
            ],
        );
        c.report_updates(0, 50.0);
        c.report_updates(1, 10.0);
        c.report_updates(2, 30.0);
        // Worker 1: u=10 < min(50, 30) → shrink.
        assert_eq!(c.on_request(1), 50);
        // Worker 0: u=50 > max(10, 30) → grow.
        assert_eq!(c.on_request(0), 200);
        // Worker 2: u=30 between others → unchanged.
        assert_eq!(c.on_request(2), 100);
    }

    #[test]
    fn batch_always_within_thresholds() {
        let mut c = two_workers();
        for i in 0..100 {
            c.report_updates(i % 2, (i * 7 % 13) as f64);
            let b0 = c.on_request(0);
            let b1 = c.on_request(1);
            assert!((56..=3584).contains(&b0));
            assert!((512..=8192).contains(&b1));
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_leq_one_panics() {
        AdaptiveController::new(1.0, true, vec![WorkerBatchState::new(1, 1, 2)]);
    }

    #[test]
    #[should_panic(expected = "initial batch")]
    fn initial_outside_thresholds_panics() {
        WorkerBatchState::new(10_000, 512, 8192);
    }

    #[test]
    fn traced_requests_emit_resize_events() {
        let sink = hetero_trace::TraceSink::wall(64);
        let mut c = AdaptiveController::new(
            2.0,
            true,
            vec![
                WorkerBatchState::new(512, 56, 4096),
                WorkerBatchState::new(1024, 512, 8192),
            ],
        );
        c.report_updates(0, 100.0);
        c.report_updates(1, 5.0);
        assert_eq!(c.on_request_traced(0, &sink), 1024); // ahead: 512→1024
        assert_eq!(c.on_request_traced(1, &sink), 512); // behind: 1024→512
        assert_eq!(c.on_request_traced(0, &sink), 2048);
        assert_eq!(c.on_request_traced(0, &sink), 4096);
        // Already at max: no change, no event.
        assert_eq!(c.on_request_traced(0, &sink), 4096);
        let events = sink.drain().events_sorted();
        let resizes: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BatchResized { old, new, reason } => Some((e.worker, old, new, reason)),
                _ => None,
            })
            .collect();
        assert_eq!(
            resizes,
            vec![
                (0, 512, 1024, ResizeReason::Ahead),
                (1, 1024, 512, ResizeReason::Behind),
                (0, 1024, 2048, ResizeReason::Ahead),
                (0, 2048, 4096, ResizeReason::Ahead),
            ]
        );
    }

    #[test]
    fn clamped_resize_is_labelled() {
        let sink = hetero_trace::TraceSink::wall(64);
        let mut c = AdaptiveController::new(
            2.0,
            true,
            vec![
                WorkerBatchState::new(100, 80, 150),
                WorkerBatchState::new(100, 80, 150),
            ],
        );
        c.report_updates(0, 50.0);
        // Worker 0 ahead: 100×2=200 exceeds max 150 → clamped.
        assert_eq!(c.on_request_traced(0, &sink), 150);
        // Worker 1 behind: 100/2=50 under min 80 → clamped.
        assert_eq!(c.on_request_traced(1, &sink), 80);
        let events = sink.drain().events_sorted();
        let reasons: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BatchResized { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, vec![ResizeReason::Clamped, ResizeReason::Clamped]);
    }

    #[test]
    fn clamp_max_batch_pins_the_ceiling() {
        let mut c = AdaptiveController::new(
            2.0,
            true,
            vec![
                WorkerBatchState::new(8192, 512, 8192),
                WorkerBatchState::new(56, 56, 3584),
            ],
        );
        // Device OOMed at 8192; 2048 fit.
        c.clamp_max_batch(0, 2048);
        assert_eq!(c.batch(0), 2048);
        // Even when far ahead, the grow branch can no longer cross 2048.
        c.report_updates(0, 1000.0);
        for _ in 0..5 {
            assert!(c.on_request(0) <= 2048);
        }
        // Clamping below the floor drags the floor down too.
        c.clamp_max_batch(0, 100);
        assert_eq!(c.on_request(0), 100);
        // Raising the limit is a no-op.
        c.clamp_max_batch(0, 100_000);
        assert_eq!(c.batch(0), 100);
    }

    #[test]
    fn single_worker_never_adapts() {
        let mut c = AdaptiveController::new(2.0, true, vec![WorkerBatchState::new(100, 10, 1000)]);
        c.report_updates(0, 1e9);
        assert_eq!(c.on_request(0), 100);
    }
}
