//! Strict line-format conformance of the OpenMetrics exporter, checked
//! against a *live* hub populated the way the engines populate it (every
//! metric kind, several workers, counters and gauges from the trace sink)
//! — plus tamper tests proving the validator actually rejects each class
//! of malformation it claims to (a validator that accepts everything
//! would pass the happy-path test too).

use hetero_metrics::{render, validate_openmetrics, Metric, MetricsHub, GLOBAL_WORKER};
use hetero_trace::{TraceSink, DEFAULT_RING_CAPACITY};

/// A sink + hub shaped like a real threaded-engine run: 2 CPU workers and
/// a GPU worker with every metric family populated.
fn live_exposition() -> String {
    let sink = TraceSink::wall(DEFAULT_RING_CAPACITY);
    sink.counter("engine.requeues").add(3);
    sink.counter("worker.0.faults").add(1);
    sink.gauge("engine.loss").set(0.625);
    sink.gauge("engine.beta").set(0.5);
    sink.gauge("worker.0.updates").set(1234.0);

    let hub = MetricsHub::new();
    for worker in 0..2 {
        let lat = hub.histogram(Metric::BatchLatency, worker);
        let wait = hub.histogram(Metric::QueueWait, worker);
        let stale = hub.histogram(Metric::Staleness, worker);
        for i in 0..200u64 {
            lat.record(50_000 + i * 731);
            wait.record(i * 97);
            stale.record(i % 7);
        }
    }
    let gpu = 2u32;
    for (m, scale) in [
        (Metric::H2d, 11_000u64),
        (Metric::D2h, 7_000),
        (Metric::MergeWait, 23_000),
        (Metric::MergeRetries, 1),
    ] {
        let h = hub.histogram(m, gpu);
        for i in 0..64u64 {
            h.record(i * scale);
        }
    }
    hub.histogram(Metric::Staleness, GLOBAL_WORKER).record(2);
    render(&sink, &hub)
}

#[test]
fn live_exposition_is_strictly_valid() {
    let text = live_exposition();
    validate_openmetrics(&text).expect("live exposition must validate");

    // Every populated family is present with the right type and units.
    for family in [
        "# TYPE hetero_batch_latency_seconds histogram",
        "# TYPE hetero_queue_wait_seconds histogram",
        "# TYPE hetero_h2d_transfer_seconds histogram",
        "# TYPE hetero_d2h_transfer_seconds histogram",
        "# TYPE hetero_merge_wait_seconds histogram",
        "# TYPE hetero_merge_retries histogram",
        "# TYPE hetero_staleness histogram",
    ] {
        assert!(text.contains(family), "missing {family:?}");
    }
    // Counters end in _total, gauges are bare.
    assert!(text.contains("hetero_engine_requeues_total 3"));
    assert!(text.contains("hetero_engine_loss 0.625"));
    // Worker labels survive the trip.
    assert!(text.contains("worker=\"0\""));
    assert!(text.contains("worker=\"1\""));
    assert!(text.contains("le=\"+Inf\""));
    assert!(text.ends_with("# EOF\n"));
}

#[test]
fn every_line_matches_the_grammar() {
    // Belt-and-braces line scan independent of the validator's own
    // bookkeeping: each line is a comment (`# HELP|TYPE|EOF ...`) or a
    // `name{labels} value` sample with a parseable finite value.
    let text = live_exposition();
    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest == "EOF" || rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "unknown comment form: {line:?}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample needs a value");
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'),
            "bad metric name in {line:?}"
        );
        let v: f64 = value.parse().expect("unparseable sample value");
        assert!(v.is_finite(), "non-finite value in {line:?}");
    }
}

/// Each tamper must flip the live exposition from valid to rejected.
#[test]
fn validator_rejects_each_malformation_class() {
    let text = live_exposition();
    validate_openmetrics(&text).expect("baseline must validate");

    let tampered: Vec<(&str, String)> = vec![
        ("missing EOF", text.replace("# EOF\n", "")),
        (
            "no trailing newline",
            text.trim_end_matches('\n').to_string(),
        ),
        (
            "counter sample without _total",
            text.replace("hetero_engine_requeues_total 3", "hetero_engine_requeues 3"),
        ),
        (
            "non-finite value",
            text.replace("hetero_engine_loss 0.625", "hetero_engine_loss NaN"),
        ),
        (
            "negative counter",
            text.replace(
                "hetero_engine_requeues_total 3",
                "hetero_engine_requeues_total -3",
            ),
        ),
        ("TYPE after samples (family split)", {
            // Duplicate a whole family block at the end, re-opening a
            // closed family.
            let block: String = text
                .lines()
                .filter(|l| l.contains("hetero_engine_loss"))
                .map(|l| format!("{l}\n"))
                .collect();
            text.replace("# EOF\n", &format!("{block}# EOF\n"))
        }),
        (
            "le ladder not ending at +Inf",
            text.replace("le=\"+Inf\"", "le=\"9999999\""),
        ),
        (
            "bad label quoting",
            text.replacen("worker=\"0\"", "worker=0", 1),
        ),
        (
            "garbage line",
            text.replace("# EOF\n", "!!! not a metric\n# EOF\n"),
        ),
    ];
    for (what, bad) in tampered {
        assert_ne!(bad, text, "tamper {what:?} did not change the text");
        assert!(
            validate_openmetrics(&bad).is_err(),
            "validator accepted exposition with {what}"
        );
    }
}

#[test]
fn exposition_is_stable_across_renders_of_a_quiet_hub() {
    // Export order is deterministic (sorted by metric, then worker), so
    // two renders of an idle hub are byte-identical — scrapes see stable
    // series identities.
    let hub = MetricsHub::new();
    let sink = TraceSink::wall(DEFAULT_RING_CAPACITY);
    sink.counter("engine.requeues").add(1);
    for w in [3u32, 1, 2] {
        hub.histogram(Metric::BatchLatency, w)
            .record(1000 * (w as u64 + 1));
    }
    let a = render(&sink, &hub);
    let b = render(&sink, &hub);
    assert_eq!(a, b);
    // Worker label order is sorted regardless of registration order.
    let pos = |needle: &str| a.find(needle).expect(needle);
    assert!(pos("worker=\"1\"") < pos("worker=\"2\""));
    assert!(pos("worker=\"2\"") < pos("worker=\"3\""));
}
