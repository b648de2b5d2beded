//! Measured (not asserted-by-inspection) allocation-freedom of the
//! metrics hot paths: once a histogram exists and a `HistHandle` is
//! resolved, recording observations must never touch the heap — workers
//! call it inside the training loop, where PR 4 established a
//! zero-steady-state-allocation regime.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide: mixing a counting allocator into the unit-test binary
//! would perturb every other test's numbers.

use hetero_bench::alloc_count::{allocs_in, CountingAlloc};
use hetero_metrics::{HubSnapshot, LogHistogram, Metric, MetricsHub};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn histogram_record_path_is_allocation_free() {
    let h = LogHistogram::new();
    let n = allocs_in(|| {
        // Sweep every bucket regime: exact sub-buckets, mid octaves, and
        // the top of the range (fetch_max updates included).
        for i in 0..10_000u64 {
            h.record(i);
            h.record(i << 20);
            h.record(u64::MAX - i);
        }
    });
    assert_eq!(n, 0, "LogHistogram::record allocated {n} times");
    assert_eq!(h.count(), 60_000);
}

#[test]
fn resolved_hist_handle_record_is_allocation_free() {
    let hub = MetricsHub::new();
    // Resolving a handle registers the series (allocates, once) …
    let lat = hub.histogram(Metric::BatchLatency, 0);
    let stale = hub.histogram(Metric::Staleness, 1);
    // … but recording through it afterwards must not.
    let n = allocs_in(|| {
        for i in 0..10_000u64 {
            lat.record_secs(i as f64 * 1e-6);
            stale.record(i % 17);
        }
    });
    assert_eq!(n, 0, "HistHandle record path allocated {n} times");
    assert!(hub.summary(Metric::BatchLatency).is_some());
}

#[test]
fn disabled_handle_record_is_allocation_free() {
    let hub = MetricsHub::disabled();
    let h = hub.histogram(Metric::QueueWait, 3);
    let n = allocs_in(|| {
        for i in 0..10_000u64 {
            h.record(i);
        }
    });
    assert_eq!(n, 0, "disabled HistHandle allocated {n} times");
}

#[test]
fn snapshot_queries_do_not_allocate_per_quantile() {
    let hub = MetricsHub::new();
    let h = hub.histogram(Metric::MergeWait, 0);
    for i in 1..1000u64 {
        h.record(i * 1000);
    }
    // Snapshotting allocates (it copies the bucket array — that is fine;
    // it happens at summary cadence, not per update). Quantile
    // queries on an existing snapshot must not.
    let snap: HubSnapshot = hub.snapshot();
    let merged = snap.merged(Metric::MergeWait).expect("series exists");
    let n = allocs_in(|| {
        for q in [0.5, 0.9, 0.99, 1.0] {
            std::hint::black_box(merged.quantile(q));
        }
    });
    assert_eq!(n, 0, "snapshot quantile queries allocated {n} times");
}

/// The tally has teeth, and only the measuring thread can move it — the
/// flake this replaced was another test's allocations landing in a
/// measured region.
#[test]
fn tally_counts_the_measuring_thread_only() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let n = allocs_in(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(64))));
    assert!(n >= 1, "an allocation on this thread went uncounted");
    // SeqCst on both flags: plain start/stop signals, no data published.
    let (noisy, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let quiet = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                drop(std::hint::black_box(vec![0u8; 64]));
                noisy.store(true, Ordering::SeqCst);
            }
        });
        while !noisy.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        // The neighbour is allocating for the whole measured region.
        let quiet = allocs_in(|| {
            for _ in 0..10_000 {
                std::hint::black_box(noisy.load(Ordering::SeqCst));
            }
        });
        stop.store(true, Ordering::SeqCst);
        quiet
    });
    assert_eq!(quiet, 0, "a neighbour thread's allocations were counted");
}
