//! Printing one run, and the suite / repeat / compare reports built from
//! several runs.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Deserialize, Serialize, Value};

use crate::host::Provenance;
use crate::names::{self, Better};
use crate::run::RunReport;
use crate::workloads;

/// Prefix of the machine-readable provenance line in a run's report.
const PROVENANCE_TAG: &str = "provenance-json ";

/// The contract's last stdout line for one run.
pub fn result_line(r: &RunReport) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|(name, value)| {
            (
                name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::F64(*value)),
                    (
                        "unit".to_string(),
                        Value::Str(names::unit_of(name).to_string()),
                    ),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(r.correct)),
        ("attempted".to_string(), Value::U64(r.attempted as u64)),
        ("failed".to_string(), Value::U64(r.failed as u64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a Value always serializes")
}

/// Human-readable report of one run (everything above the result line).
pub fn render(r: &RunReport) -> String {
    let mut out = format!(
        "hetero-benchmark: workload {} seed {} trace {}\n{}\n{PROVENANCE_TAG}{}\n",
        r.workload,
        r.seed,
        u8::from(r.traced),
        r.provenance.render(),
        serde_json::to_string(&r.provenance).expect("provenance serializes"),
    );
    for note in &r.notes {
        out.push_str(note);
        out.push('\n');
    }
    for (name, value) in &r.metrics {
        out.push_str(&format!(
            "{name:<42} {value:>16.6} {}\n",
            names::unit_of(name)
        ));
    }
    out.push_str(&format!(
        "correct {} | attempted {} | failed {}\n",
        r.correct, r.attempted, r.failed
    ));
    out
}

/// `BENCHMARK.json`, generated from `names.rs` and `workloads.rs`.
pub fn manifest() -> String {
    let s = |v: &str| Value::Str(v.to_string());
    let strs = |v: &[&str]| Value::Array(v.iter().map(|x| s(x)).collect());
    let workloads = workloads::all()
        .iter()
        .map(|w| {
            Value::Object(vec![
                ("name".to_string(), s(w.name)),
                ("why".to_string(), s(w.why)),
            ])
        })
        .collect();
    let end_to_end = names::END_TO_END
        .iter()
        .map(|(m, bound)| {
            Value::Object(vec![
                ("name".to_string(), s(m.name)),
                ("unit".to_string(), s(m.unit)),
                ("better".to_string(), s(m.better.as_str())),
                ("bound".to_string(), Value::F64(*bound)),
            ])
        })
        .collect();
    let per_layer = names::PER_LAYER
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("name".to_string(), s(m.name)),
                ("unit".to_string(), s(m.unit)),
                ("better".to_string(), s(m.better.as_str())),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        (
            "command".to_string(),
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".to_string(), strs(&["benchmark"])),
        ("run_seconds".to_string(), Value::U64(names::RUN_SECONDS)),
        ("workloads".to_string(), Value::Array(workloads)),
        ("end_to_end".to_string(), Value::Array(end_to_end)),
        ("per_layer".to_string(), Value::Array(per_layer)),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("a Value always serializes");
    text.push('\n');
    text
}

/// One metric of one run, as stored in a set file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// One workload's run inside a set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetRun {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricValue>,
    pub provenance: Option<Provenance>,
}

/// A full set: every workload run once, each in its own process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetFile {
    pub seed: u64,
    pub seconds: u64,
    pub runs: Vec<SetRun>,
}

/// Parse a run's stdout (human report + result line) into a [`SetRun`].
pub fn parse_run(workload: &str, stdout: &str) -> Result<SetRun, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("run printed nothing")?;
    let v: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let field = |k: &str| v.get(k).ok_or(format!("result line lacks `{k}`"));
    let as_u64 = |k: &str| match field(k)? {
        Value::U64(n) => Ok(*n),
        other => Err(format!("`{k}` is {}", other.kind())),
    };
    let correct = matches!(field("correct")?, Value::Bool(true));
    let Value::Object(entries) = field("metrics")? else {
        return Err("`metrics` is not an object".into());
    };
    let mut metrics = Vec::new();
    for (name, m) in entries {
        let value = match m.get("value") {
            Some(Value::F64(x)) => *x,
            Some(Value::U64(x)) => *x as f64,
            Some(Value::I64(x)) => *x as f64,
            _ => return Err(format!("metric `{name}` has no numeric value")),
        };
        let unit = match m.get("unit") {
            Some(Value::Str(u)) => u.clone(),
            _ => return Err(format!("metric `{name}` has no unit")),
        };
        metrics.push(MetricValue {
            name: name.clone(),
            value,
            unit,
        });
    }
    let provenance = stdout
        .lines()
        .find_map(|l| l.strip_prefix(PROVENANCE_TAG))
        .and_then(|json| serde_json::from_str(json).ok());
    Ok(SetRun {
        workload: workload.to_string(),
        correct,
        attempted: as_u64("attempted")?,
        failed: as_u64("failed")?,
        metrics,
        provenance,
    })
}

/// Run every workload once, each in a fresh process of this executable
/// (so `peak_rss_mb` is per workload and no state leaks between them).
pub fn run_suite(seed: u64, seconds: u64, trials: Option<usize>) -> Result<SetFile, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    for w in workloads::all() {
        eprintln!("suite: {} (seed {seed})", w.name);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--trace", "0"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()]);
        if let Some(t) = trials {
            cmd.args(["--trials", &t.to_string()]);
        }
        // `output` waits for the child and collects its pipes.
        let out = cmd.output().map_err(|e| format!("spawn {}: {e}", w.name))?;
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name, out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        runs.push(parse_run(w.name, &stdout)?);
    }
    Ok(SetFile {
        seed,
        seconds,
        runs,
    })
}

/// Directory run outputs go to (`benchmark/results/`, git-ignored).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Write `value` as pretty JSON, creating the parent directory.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load a set file written by `suite` or `repeat`.
pub fn load_set(path: &Path) -> Result<SetFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How two sets are held against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareMode {
    /// Same code, same seed: any disagreement beyond the bound — in either
    /// direction — is a breach, and the sim's virtual-clock metrics must be
    /// bit-identical.
    Repeat,
    /// `a` is the parent, `b` the change: only `b` *worse* than `a` by more
    /// than the bound is a breach.
    Regression,
}

/// One row of a comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompareRow {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `(b − a) / a`, signed so that positive means `b` is worse.
    pub worse_by: f64,
    pub bound: f64,
    pub breach: bool,
}

/// A whole comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Comparison {
    pub rows: Vec<CompareRow>,
    /// Workloads present on only one side, incorrect runs, and the like.
    pub problems: Vec<String>,
}

impl Comparison {
    /// Nothing breached and nothing was missing.
    pub fn ok(&self) -> bool {
        self.problems.is_empty() && self.rows.iter().all(|r| !r.breach)
    }

    /// The table `repeat` and `compare` print.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<26} {:<18} {:>14} {:>14} {:>9} {:>7}\n",
            "workload", "metric", "a", "b", "worse by", "bound"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<26} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%{}\n",
                r.workload,
                r.metric,
                r.a,
                r.b,
                100.0 * r.worse_by,
                100.0 * r.bound,
                if r.breach { "  BREACH" } else { "" }
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("PROBLEM: {p}\n"));
        }
        out.push_str(if self.ok() { "OK\n" } else { "FAILED\n" });
        out
    }
}

/// Compare two sets on every workload × end-to-end metric.
pub fn compare_sets(a: &SetFile, b: &SetFile, mode: CompareMode) -> Comparison {
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    for w in workloads::all() {
        let (Some(ra), Some(rb)) = (
            a.runs.iter().find(|r| r.workload == w.name),
            b.runs.iter().find(|r| r.workload == w.name),
        ) else {
            problems.push(format!("workload {} is missing from one side", w.name));
            continue;
        };
        for (side, r) in [("a", ra), ("b", rb)] {
            if !r.correct || r.failed != 0 {
                problems.push(format!(
                    "{} ({side}): correct={} failed={}",
                    w.name, r.correct, r.failed
                ));
            }
        }
        for (m, bound) in names::END_TO_END {
            let value = |r: &SetRun| r.metrics.iter().find(|x| x.name == m.name).map(|x| x.value);
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                problems.push(format!("{}: {} is missing from one side", w.name, m.name));
                continue;
            };
            let change = (vb - va) / va;
            let worse_by = match m.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            // The sim's statistical metrics are virtual-clock quantities.
            let exact = mode == CompareMode::Repeat
                && w.engine == workloads::EngineKind::Sim
                && (m.name == names::EPOCHS_TO_TARGET || m.name == names::TIME_TO_TARGET_S);
            let breach = match mode {
                _ if exact => va.to_bits() != vb.to_bits(),
                CompareMode::Repeat => worse_by.abs() > bound,
                CompareMode::Regression => worse_by > bound,
            };
            rows.push(CompareRow {
                workload: w.name.to_string(),
                metric: m.name.to_string(),
                a: va,
                b: vb,
                worse_by,
                bound: if exact { 0.0 } else { bound },
                breach,
            });
        }
    }
    Comparison { rows, problems }
}
