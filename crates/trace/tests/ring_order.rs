//! Ring-buffer contract tests: drain preserves per-thread emit order and
//! the `dropped` count equals exactly the number of overwritten events.

use hetero_trace::{Event, EventKind, Ring, TraceSink};
use proptest::prelude::*;

fn ev(seq: usize) -> Event {
    Event {
        t: seq as f64,
        worker: 0,
        kind: EventKind::QueuePushed { depth: seq, id: None },
    }
}

proptest! {
    /// After n pushes into a capacity-c ring, the survivors are exactly the
    /// newest min(n, c) events in push order, and everything older was
    /// counted as dropped.
    #[test]
    fn drain_is_newest_window_in_order(capacity in 0usize..48, n in 0usize..160) {
        let mut ring = Ring::new(capacity);
        for i in 0..n {
            ring.push(ev(i));
        }
        let kept = ring.drain();
        let expect_len = n.min(capacity);
        prop_assert_eq!(kept.len(), expect_len);
        for (k, e) in kept.iter().enumerate() {
            prop_assert_eq!(e.t as usize, n - expect_len + k);
        }
        prop_assert_eq!(ring.dropped(), (n - expect_len) as u64);
        prop_assert!(ring.is_empty());
    }

    /// `dropped` accumulates over the ring's lifetime; draining never
    /// resets it.
    #[test]
    fn dropped_accumulates_across_drains(
        capacity in 1usize..16,
        rounds in 1usize..5,
        n in 0usize..40,
    ) {
        let mut ring = Ring::new(capacity);
        let mut expect_dropped = 0u64;
        for _ in 0..rounds {
            for i in 0..n {
                ring.push(ev(i));
            }
            expect_dropped += n.saturating_sub(capacity) as u64;
            let _ = ring.drain();
            prop_assert_eq!(ring.dropped(), expect_dropped);
        }
    }
}

/// Through the full sink: concurrent emitters each get a private shard, the
/// shard keeps that thread's emit order, and each shard's dropped count is
/// exactly the events its bounded ring evicted.
#[test]
fn concurrent_emitters_keep_per_shard_order_and_exact_drop_counts() {
    const CAPACITY: usize = 64;
    const PER_THREAD: usize = 211; // > CAPACITY so every shard drops some
    let sink = TraceSink::wall(CAPACITY);
    let mut handles = Vec::new();
    for w in 0..4u32 {
        let sink = sink.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("order-{w}"))
                .spawn(move || {
                    for i in 0..PER_THREAD {
                        sink.emit(w, EventKind::QueuePushed { depth: i, id: None });
                    }
                })
                .unwrap(),
        );
    }
    for h in handles {
        h.join().unwrap();
    }
    let trace = sink.drain();
    assert_eq!(trace.shards.len(), 4);
    for shard in &trace.shards {
        assert_eq!(shard.events.len(), CAPACITY);
        assert_eq!(shard.dropped, (PER_THREAD - CAPACITY) as u64);
        let seqs: Vec<usize> = shard
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::QueuePushed { depth, .. } => depth,
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        // The surviving window is the newest PER_THREAD-CAPACITY.. range,
        // still in emit order.
        let expect: Vec<usize> = (PER_THREAD - CAPACITY..PER_THREAD).collect();
        assert_eq!(seqs, expect);
    }
    assert_eq!(trace.total_dropped(), 4 * (PER_THREAD - CAPACITY) as u64);
}
