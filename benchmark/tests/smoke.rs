//! End-to-end smoke test of the `hetero-benchmark` binary: every workload,
//! both modes, with the trial count cut to 2 so the whole file runs in
//! about a minute. What it pins is the *contract* — the result line parses,
//! carries exactly the declared metrics with their units, and
//! `BENCHMARK.json` is what `names.rs`/`workloads.rs` generate — not any
//! timing.

use std::path::Path;
use std::process::Command;

use hetero_benchmark::{names, report, workloads};

const EXE: &str = env!("CARGO_BIN_EXE_hetero-benchmark");

fn run(workload: &str, trace: bool) -> report::SetRun {
    let out = Command::new(EXE)
        .args(["--workload", workload, "--seed", "3", "--trials", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    report::parse_run(workload, &stdout).expect("last stdout line is the result JSON")
}

fn assert_metrics(r: &report::SetRun, declared: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = r
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(got, declared, "{}: metric names/units/order", r.workload);
    for m in &r.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            r.workload,
            m.name,
            m.value
        );
    }
    assert_eq!(r.attempted, 2, "{}: --trials 2", r.workload);
    assert_eq!(r.failed, 0, "{}: a trial failed its checks", r.workload);
    assert!(r.correct, "{}: correct", r.workload);
    assert!(r.provenance.is_some(), "{}: provenance line", r.workload);
}

#[test]
fn every_workload_reports_the_end_to_end_metrics() {
    let declared: Vec<(&str, &str)> = names::END_TO_END
        .iter()
        .map(|(m, _)| (m.name, m.unit))
        .collect();
    assert_eq!(declared.len(), 6);
    for w in workloads::all() {
        let r = run(w.name, false);
        assert_metrics(&r, &declared);
        for m in &r.metrics {
            assert!(m.value > 0.0, "{}: {} must never be 0", w.name, m.name);
        }
    }
}

#[test]
fn every_workload_reports_the_per_layer_metrics_when_traced() {
    let declared: Vec<(&str, &str)> = names::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in workloads::all() {
        let r = run(w.name, true);
        assert_metrics(&r, &declared);
        let value = |name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value;
        // A role the workload does not have reads 0, one it has does not.
        let has_gpu = matches!(
            w.engine,
            workloads::EngineKind::Threaded {
                gpu_workers: 1..,
                ..
            } | workloads::EngineKind::Sim
        );
        assert_eq!(
            value("replay.gpu_worker.train_step.self_us") > 0.0,
            has_gpu,
            "{}: gpu replay",
            w.name
        );
        assert!(value("replay.cpu_lane.grad.self_us") > 0.0, "{}", w.name);
    }
}

#[test]
fn benchmark_json_is_generated_from_names_rs() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&committed).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        report::manifest(),
        "regenerate with `hetero-benchmark manifest > BENCHMARK.json`"
    );
}

#[test]
fn names_fit_the_contract() {
    let ok_name = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let ok_unit = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    let metrics = names::END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(names::PER_LAYER.iter());
    for m in metrics {
        assert!(ok_name(m.name), "metric name `{}`", m.name);
        assert!(ok_unit(m.unit), "unit `{}` of `{}`", m.unit, m.name);
        assert!(seen.insert(m.name), "`{}` declared twice", m.name);
    }
    for w in workloads::all() {
        assert!(ok_name(w.name), "workload name `{}`", w.name);
        assert!(seen.insert(w.name), "`{}` declared twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
        assert!(
            w.compute_threads() <= 2,
            "{} oversubscribes the host",
            w.name
        );
    }
    for (m, bound) in names::END_TO_END {
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    assert!(names::PER_LAYER.len() <= 128);
}
