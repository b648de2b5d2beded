//! Golden-file and schema checks for the Chrome `trace_event` exporter.
//!
//! The golden file pins the exact bytes the exporter produces for a fixed
//! trace, so accidental format drift (field renames, unit changes, lost
//! metadata) fails loudly. Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p hetero-trace --test chrome_golden`.

use hetero_trace::{export, BatchPhases, EventKind, ResizeReason, TraceSink, COORDINATOR};
use serde::Value;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/chrome_trace.json"
);

/// A fixed, fully deterministic trace exercising every event kind.
fn fixture_trace() -> hetero_trace::Trace {
    let sink = TraceSink::virtual_time(256);
    sink.emit_at(0.0, 0, EventKind::BatchDispatched { id: 1, batch: 56 });
    sink.emit_at(0.0, 1, EventKind::BatchDispatched { id: 2, batch: 8192 });
    sink.emit_at(
        0.001,
        0,
        EventKind::QueuePushed {
            depth: 1,
            id: Some(1),
        },
    );
    sink.emit_at(
        0.002,
        0,
        EventKind::QueuePopped {
            depth: 0,
            id: Some(1),
        },
    );
    sink.emit_at(0.002, 0, EventKind::BatchStarted { id: 1 });
    sink.emit_at(0.003, 1, EventKind::BatchStarted { id: 2 });
    sink.emit_at(
        0.010,
        1,
        EventKind::H2d {
            bytes: 4096,
            secs: 0.004,
            id: Some(2),
        },
    );
    sink.emit_at(
        0.050,
        0,
        EventKind::BatchCompleted {
            id: 1,
            batch: 56,
            updates: 14,
            phases: BatchPhases {
                stage_secs: 0.004,
                compute_secs: 0.044,
                transfer_secs: 0.0,
                merge_secs: 0.0,
            },
        },
    );
    sink.emit_at(
        0.060,
        0,
        EventKind::BatchResized {
            old: 56,
            new: 112,
            reason: ResizeReason::Ahead,
        },
    );
    sink.emit_at(
        0.080,
        1,
        EventKind::D2h {
            bytes: 4096,
            secs: 0.004,
            id: Some(2),
        },
    );
    sink.emit_at(
        0.081,
        1,
        EventKind::ModelMerge {
            scale: 0.5,
            id: Some(2),
        },
    );
    sink.emit_at(
        0.090,
        1,
        EventKind::BatchCompleted {
            id: 2,
            batch: 8192,
            updates: 1,
            phases: BatchPhases {
                stage_secs: 0.002,
                compute_secs: 0.070,
                transfer_secs: 0.008,
                merge_secs: 0.007,
            },
        },
    );
    sink.emit_at(0.100, COORDINATOR, EventKind::EvalPoint { loss: 0.693 });
    sink.counter("mq.ready.pushes").add(2);
    sink.gauge("gpu.w1.stall_secs").set(0.25);
    sink.drain()
}

/// Minimal schema check: the structural invariants Perfetto relies on.
fn assert_chrome_schema(json: &str) {
    let root: Value = serde_json::from_str(json).expect("exporter output is valid JSON");
    let events = match root.get("traceEvents") {
        Some(Value::Array(a)) => a,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty(), "no trace events");
    assert!(
        matches!(root.get("displayTimeUnit"), Some(Value::Str(_))),
        "displayTimeUnit missing"
    );
    let domain = root.get("otherData").and_then(|o| o.get("timeDomain"));
    assert_eq!(
        domain,
        Some(&Value::Str("virtual".to_string())),
        "time domain must be labelled"
    );
    let num = |v: Option<&Value>| -> f64 {
        match v {
            Some(Value::F64(x)) => *x,
            Some(Value::U64(n)) => *n as f64,
            Some(Value::I64(n)) => *n as f64,
            other => panic!("expected number, got {other:?}"),
        }
    };
    for e in events {
        let ph = match e.get("ph") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("ph missing: {other:?}"),
        };
        assert!(
            ["M", "X", "i", "C", "s", "t", "f"].contains(&ph.as_str()),
            "unexpected phase {ph}"
        );
        assert!(matches!(e.get("name"), Some(Value::Str(_))), "name missing");
        assert!(matches!(e.get("cat"), Some(Value::Str(_))), "cat missing");
        assert!(num(e.get("ts")) >= 0.0, "ts must be non-negative");
        let _ = num(e.get("pid"));
        let _ = num(e.get("tid"));
        if ph == "X" {
            assert!(num(e.get("dur")) >= 0.0, "complete events need dur");
        }
    }
}

#[test]
fn chrome_export_matches_schema() {
    assert_chrome_schema(&export::to_chrome_json(&fixture_trace()));
}

#[test]
fn chrome_export_matches_golden_file() {
    let json = export::to_chrome_json(&fixture_trace());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        json, golden,
        "Chrome exporter output drifted from the golden file; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_export_has_one_track_per_worker() {
    let json = export::to_chrome_json(&fixture_trace());
    let root: Value = serde_json::from_str(&json).unwrap();
    let events = match root.get("traceEvents") {
        Some(Value::Array(a)) => a,
        _ => unreachable!(),
    };
    let mut named_tracks: Vec<String> = events
        .iter()
        .filter(|e| e.get("name") == Some(&Value::Str("thread_name".to_string())))
        .filter_map(|e| match e.get("args").and_then(|a| a.get("name")) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect();
    named_tracks.sort();
    assert_eq!(named_tracks, vec!["coordinator", "worker-0", "worker-1"]);
}

#[test]
fn chrome_export_pins_lineage_flow_arrows() {
    let json = export::to_chrome_json(&fixture_trace());
    let root: Value = serde_json::from_str(&json).unwrap();
    let events = match root.get("traceEvents") {
        Some(Value::Array(a)) => a,
        _ => unreachable!(),
    };
    let flows: Vec<(String, u64)> = events
        .iter()
        .filter(|e| e.get("name") == Some(&Value::Str("batch_flow".to_string())))
        .map(|e| {
            let ph = match e.get("ph") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("ph missing: {other:?}"),
            };
            let id = match e.get("id") {
                Some(Value::U64(n)) => *n,
                other => panic!("flow event without id: {other:?}"),
            };
            (ph, id)
        })
        .collect();
    // Both batches carry a full dispatch→start→finish arrow chain.
    let expect: Vec<(String, u64)> = [("s", 1), ("s", 2), ("t", 1), ("t", 2), ("f", 1), ("f", 2)]
        .map(|(p, i)| (p.to_string(), i))
        .to_vec();
    assert_eq!(flows, expect);
}
