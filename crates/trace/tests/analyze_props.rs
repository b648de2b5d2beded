//! Property tests for the batch-lineage analyzer: for arbitrary
//! well-formed (and some degenerate) event streams, every phase
//! attribution is non-negative and the critical-path total never exceeds
//! the run's wall-clock — with completed spans it equals it exactly,
//! which is the structural guarantee behind the "≥95% attributed"
//! acceptance bar.

use hetero_trace::analyze::analyze;
use hetero_trace::{BatchPhases, EventKind, TraceSink};
use proptest::prelude::*;

/// One generated batch lifecycle, relative to the previous completion:
/// `(gap, ahead, queue, busy, measured_scale, worker, batch, finish)`. The
/// measured scale deliberately ranges past 1.0 so some spans report more
/// phase time than their busy wall-clock and exercise the clamp. `ahead`
/// moves the dispatch (not the start) back in time, past earlier
/// completions: a range dispatched into a worker's window and parked.
type GenSpan = (f64, f64, f64, f64, f64, u32, usize, bool);

fn emit_spans(sink: &TraceSink, spans: &[GenSpan], tail: f64) {
    let mut t = 0.0f64;
    for (i, &(gap, ahead, queue, busy, scale, worker, batch, finish)) in spans.iter().enumerate() {
        let id = i as u64 + 1;
        let dispatched = (t + gap - ahead).max(0.0);
        let started = t + gap + queue;
        let completed = started + busy;
        sink.emit_at(dispatched, worker, EventKind::BatchDispatched { id, batch });
        sink.emit_at(started, worker, EventKind::BatchStarted { id });
        if finish {
            let measured = busy * scale;
            sink.emit_at(
                completed,
                worker,
                EventKind::BatchCompleted {
                    id,
                    batch,
                    updates: 1,
                    phases: BatchPhases {
                        stage_secs: 0.2 * measured,
                        compute_secs: 0.6 * measured,
                        transfer_secs: 0.1 * measured,
                        merge_secs: 0.1 * measured,
                    },
                },
            );
            t = completed;
        }
        // Unfinished spans leave the cursor alone: the next dispatch can
        // overlap their (never-reported) busy window.
    }
    sink.emit_at(t + tail, hetero_trace::COORDINATOR, EventKind::EvalPoint { loss: 0.5 });
}

proptest! {
    /// Attributions are non-negative, each bucket and the total are
    /// bounded by the wall-clock, and with at least one completed span
    /// the profile covers the wall exactly (coverage 1.0).
    #[test]
    fn attribution_is_nonnegative_and_covers_at_most_the_wall(
        spans in prop::collection::vec(
            (
                // (coordinator gap before the worker is free, how far
                //  ahead of that the dispatch went out, queue wait)
                (0.0f64..0.4, 0.0f64..2.0, 0.0f64..0.2),
                // (busy wall-clock; 0 = degenerate span,
                //  measured/busy ratio; >1 exercises the clamp)
                (0.0f64..1.0, 0.0f64..1.5),
                // (worker, batch size)
                (0u32..3, 1usize..512),
            ),
            0..24,
        ),
        finish_mask in 0u32..u32::MAX,
        ahead_mask in 0u32..u32::MAX,
        tail in 0.0f64..0.5,
    ) {
        let spans: Vec<GenSpan> = spans
            .into_iter()
            .enumerate()
            .map(|(i, ((g, a, q), (b, s), (w, n)))| {
                let bit = |mask: u32| mask >> (i % 32) & 1 == 1;
                let ahead = if bit(ahead_mask) { a } else { 0.0 };
                (g, ahead, q, b, s, w, n, bit(finish_mask))
            })
            .collect();
        let sink = TraceSink::virtual_time(1 << 10);
        emit_spans(&sink, &spans, tail);
        let a = analyze(&sink.drain());

        prop_assert_eq!(a.spans, spans.len());
        let wall = a.wall_secs;
        prop_assert!(wall >= 0.0);
        let p = &a.critical_path.profile;
        let mut total = 0.0;
        for (name, secs) in p.named() {
            prop_assert!(secs >= 0.0, "phase {} is negative: {}", name, secs);
            prop_assert!(
                secs <= wall + 1e-9,
                "phase {} ({}) exceeds wall {}",
                name,
                secs,
                wall
            );
            total += secs;
        }
        prop_assert!(
            total <= wall * (1.0 + 1e-9) + 1e-9,
            "total {} exceeds wall {}",
            total,
            wall
        );
        if a.completed > 0 {
            // Every segment of the elapsed span lands in exactly one
            // bucket, so attribution is complete, not just bounded.
            prop_assert!(
                (total - wall).abs() <= 1e-9 * wall.max(1.0),
                "total {} != wall {}",
                total,
                wall
            );
            prop_assert!(a.critical_path.coverage > 0.95);
        }
        // Steps walk forward in time and never overlap.
        for w in a.critical_path.steps.windows(2) {
            prop_assert!(w[0].completed_at <= w[1].ready_at + 1e-12);
        }
        // Worker reports stay sane for the same streams.
        for r in &a.workers {
            prop_assert!(r.busy_secs >= 0.0 && r.queue_secs >= 0.0 && r.idle_secs >= 0.0);
            prop_assert!(r.phases.total() <= r.busy_secs + 1e-9);
        }
    }
}
