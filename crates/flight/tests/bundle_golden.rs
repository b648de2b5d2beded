//! Golden-file and schema checks for the postmortem bundle.
//!
//! The golden file pins the exact bytes a dump produces for a fixed,
//! fully deterministic recorder state, so accidental format drift (field
//! renames, lost sections, reordered keys) fails loudly — a bundle written
//! by an old binary must stay readable by new tooling. Regenerate
//! intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p hetero-flight --test bundle_golden`.

use hetero_flight::{
    render_report, FlightConfig, FlightRecorder, HealthSnapshot, PostmortemBundle, Provenance,
    SCHEMA,
};
use hetero_trace::{BatchPhases, EventKind, Metric, TimeDomain, COORDINATOR};
use serde_json::Value;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/postmortem_v1.json"
);

/// Dump a bundle from a fixed recorder state. Every input is pinned (no
/// clocks, no real git sha, virtual-time sink), so the JSON bytes are
/// reproducible across machines. `test` names the caller: the dump's file
/// name is fixed by pid and sequence number, and tests run on parallel
/// threads of one process, so each gets its own directory to write to and
/// clean up.
fn fixture_dump(test: &str) -> String {
    let dir = std::env::temp_dir().join(format!(
        "hetero-flight-golden-{}-{test}",
        std::process::id()
    ));
    let flight = FlightRecorder::new(FlightConfig {
        dir: dir.clone(),
        ..FlightConfig::default()
    });
    flight.set_provenance(Provenance {
        engine: "sim".into(),
        algorithm: "Adaptive Hogbatch".into(),
        dataset: "w8a".into(),
        workers: 2,
        config_json: "{\"lr\":0.1}".into(),
        git_sha: Some("0123456789abcdef0123456789abcdef01234567".into()),
        simd_level: "Avx2".into(),
    });
    flight.set_resumable_from("results/ckpt/gen-0000000007.ckpt".into());
    let watchdog = flight.watchdog();
    watchdog.ensure_layers(2);
    watchdog.observe_layer(0, 0, 3, 4.0, 0);
    watchdog.observe_layer(1, 1, 3, 9.0, 0);
    watchdog.observe_eval(0.693);
    watchdog.observe_eval(0.512);
    flight.record_snapshot(HealthSnapshot {
        t: 0.5,
        loss: 0.512,
        epochs: 1.25,
        batches: vec![56, 8192],
        staleness_p50: Some(2.0),
        staleness_p99: Some(56.0),
        grad_peak_norm: 3.0,
    });
    let sink = flight.make_sink(TimeDomain::Virtual);
    sink.emit_at(0.1, 0, EventKind::BatchDispatched { id: 1, batch: 56 });
    sink.emit_at(0.12, 0, EventKind::BatchStarted { id: 1 });
    sink.emit_at(
        0.2,
        0,
        EventKind::BatchCompleted {
            id: 1,
            batch: 56,
            updates: 14,
            phases: BatchPhases {
                stage_secs: 0.01,
                compute_secs: 0.06,
                transfer_secs: 0.0,
                merge_secs: 0.01,
            },
        },
    );
    sink.emit_at(0.5, COORDINATOR, EventKind::EvalPoint { loss: 0.512 });
    sink.emit_at(
        0.6,
        COORDINATOR,
        EventKind::HealthEvent {
            action: "clamp".into(),
            detail: "batch growth frozen".into(),
        },
    );
    sink.counter("mq.ready.pushes").add(3);
    sink.histogram(Metric::BatchLatency, 0).record(1_000_000);
    sink.histogram(Metric::BatchLatency, 1).record(2_000_000);
    let path = flight
        .dump("fixture: seeded fault", &sink)
        .expect("enabled recorder dumps");
    let json = std::fs::read_to_string(&path).expect("bundle written");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    json
}

#[test]
fn bundle_matches_golden_file() {
    let json = fixture_dump("golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        json, golden,
        "postmortem bundle drifted from the golden file; old bundles must \
         stay readable — if the change is intentional, bump or extend the \
         schema and regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_bundle_parses_and_renders() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    let bundle = PostmortemBundle::from_json(&golden).expect("golden parses");
    assert_eq!(bundle.schema, SCHEMA);
    let report = render_report(&bundle);
    assert!(report.contains("Adaptive Hogbatch"));
    assert!(report.contains("fixture: seeded fault"));
}

#[test]
fn bundle_schema_key_sets_are_stable() {
    let doc: Value = serde_json::from_str(&fixture_dump("schema")).unwrap();
    let keys = |v: &Value| -> Vec<String> {
        match v {
            Value::Object(o) => o.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("expected object, got {}", other.kind()),
        }
    };
    assert_eq!(
        keys(&doc),
        [
            "schema",
            "reason",
            "resumable_from",
            "provenance",
            "health",
            "snapshots",
            "counters",
            "metrics",
            "phase_profile",
            "trace"
        ]
        .map(String::from)
    );
    assert_eq!(
        keys(doc.get("provenance").unwrap()),
        [
            "engine",
            "algorithm",
            "dataset",
            "workers",
            "config_json",
            "git_sha",
            "simd_level"
        ]
        .map(String::from)
    );
    let Some(Value::Array(snaps)) = doc.get("snapshots") else {
        panic!("snapshots must be an array");
    };
    assert_eq!(
        keys(&snaps[0]),
        [
            "t",
            "loss",
            "epochs",
            "batches",
            "staleness_p50",
            "staleness_p99",
            "grad_peak_norm"
        ]
        .map(String::from)
    );
    let health = doc.get("health").unwrap();
    for required in [
        "nonfinite_events",
        "peak_grad_norm",
        "layer_peak_norms",
        "diverged",
        "stalled",
        "tripped",
    ] {
        assert!(
            health.get(required).is_some(),
            "health section lost `{required}`"
        );
    }
}
