//! The black-box flight recorder: bounded retention of recent history plus
//! postmortem bundle dumps on fault paths.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hetero_metrics::{Metric, MetricsHub};
use hetero_trace::{Ring, TimeDomain, Trace, TraceSink};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::bundle::{MetricRow, PostmortemBundle, SCHEMA};
use crate::policy::HealthPolicy;
use crate::watchdog::Watchdog;

/// Per-shard trace-ring capacity for recorder-created sinks: big enough to
/// hold the recent-event window of a real run, small enough to bound the
/// black box's memory (events are ~64 B, so this is ≈¼ MiB per thread).
pub const DEFAULT_RETENTION_EVENTS: usize = 1 << 12;

/// Flight-recorder configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightConfig {
    /// Health policy the embedded watchdog enforces.
    pub policy: HealthPolicy,
    /// Directory postmortem bundles are written into.
    pub dir: PathBuf,
    /// How many periodic [`HealthSnapshot`]s to retain (drop-oldest).
    pub snapshot_capacity: usize,
    /// Per-shard capacity of recorder-created trace sinks (drop-oldest
    /// rings: the retention window of recent events).
    pub retention_events: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            policy: HealthPolicy::default(),
            dir: PathBuf::from("results/postmortem"),
            snapshot_capacity: 256,
            retention_events: DEFAULT_RETENTION_EVENTS,
        }
    }
}

/// Run provenance embedded in every bundle: enough to reproduce the run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Engine that produced the run (`threaded` / `sim`).
    pub engine: String,
    /// Algorithm label (matches `TrainResult::algorithm`).
    pub algorithm: String,
    /// Dataset name.
    pub dataset: String,
    /// Worker slots at startup.
    pub workers: usize,
    /// The engine's `TrainConfig`, pre-serialized to JSON by the engine so
    /// this crate stays decoupled from `hetero-core`.
    pub config_json: String,
    /// Git commit of the working tree, if resolvable.
    pub git_sha: Option<String>,
    /// Active SIMD dispatch level (e.g. `Avx2`, `Scalar`).
    pub simd_level: String,
}

/// One periodic controller-state snapshot retained by the recorder.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Seconds into the run (wall or virtual, per the engine).
    pub t: f64,
    /// Eval loss at this point.
    pub loss: f64,
    /// Epochs completed.
    pub epochs: f64,
    /// Per-worker batch sizes (controller state).
    pub batches: Vec<usize>,
    /// Staleness p50 from the metrics hub, when enabled.
    pub staleness_p50: Option<f64>,
    /// Staleness p99 from the metrics hub, when enabled.
    pub staleness_p99: Option<f64>,
    /// Peak per-layer gradient norm seen so far.
    pub grad_peak_norm: f64,
}

struct RecorderInner {
    cfg: FlightConfig,
    watchdog: Watchdog,
    provenance: Mutex<Option<Provenance>>,
    /// Newest crash-consistent checkpoint path, refreshed by the engine on
    /// every publish so a postmortem names where to resume from.
    resumable_from: Mutex<Option<String>>,
    snapshots: Mutex<Ring<HealthSnapshot>>,
    /// Distinguishes multiple dumps from one process (monotonic suffix).
    seq: AtomicU64,
    last_dump: Mutex<Option<String>>,
}

/// The always-on black box. Cheap to clone (an `Arc` — or nothing at all
/// when disabled). Engines take one as `RunCtx::flight`; every method on a
/// disabled recorder is a no-op.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<RecorderInner>>,
}

impl FlightRecorder {
    /// A recorder that records nothing and never dumps.
    pub fn disabled() -> Self {
        FlightRecorder::default()
    }

    /// An active recorder with `cfg`.
    pub fn new(cfg: FlightConfig) -> Self {
        let watchdog = Watchdog::new(cfg.policy.clone());
        FlightRecorder {
            inner: Some(Arc::new(RecorderInner {
                // At least one: a postmortem always shows the last state.
                snapshots: Mutex::new(Ring::new(cfg.snapshot_capacity.max(1))),
                cfg,
                watchdog,
                provenance: Mutex::new(None),
                resumable_from: Mutex::new(None),
                seq: AtomicU64::new(0),
                last_dump: Mutex::new(None),
            })),
        }
    }

    /// Whether the black box is recording.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The embedded training-health watchdog (disabled when the recorder
    /// is).
    pub fn watchdog(&self) -> Watchdog {
        self.inner
            .as_deref()
            .map(|i| i.watchdog.clone())
            .unwrap_or_default()
    }

    /// A bounded drop-oldest [`TraceSink`] in `domain` — the retention
    /// window of recent events. Engines use this when the caller did not
    /// supply an enabled sink of their own, so a postmortem always has a
    /// trace to embed. Returns a disabled sink on a disabled recorder.
    pub fn make_sink(&self, domain: TimeDomain) -> TraceSink {
        let Some(inner) = &self.inner else {
            return TraceSink::disabled();
        };
        match domain {
            TimeDomain::Wall => TraceSink::wall(inner.cfg.retention_events),
            TimeDomain::Virtual => TraceSink::virtual_time(inner.cfg.retention_events),
        }
    }

    /// Record the run's provenance (engines call this once at startup).
    pub fn set_provenance(&self, p: Provenance) {
        if let Some(inner) = &self.inner {
            *inner.provenance.lock() = Some(p);
        }
    }

    /// Record the newest checkpoint a dead run can be resumed from
    /// (engines call this after every successful checkpoint publish).
    pub fn set_resumable_from(&self, path: String) {
        if let Some(inner) = &self.inner {
            *inner.resumable_from.lock() = Some(path);
        }
    }

    /// Retain one periodic controller-state snapshot (drop-oldest).
    // audit: no_panic
    pub fn record_snapshot(&self, s: HealthSnapshot) {
        if let Some(inner) = &self.inner {
            inner.snapshots.lock().push(s);
        }
    }

    /// Retained snapshots, oldest → newest.
    pub fn snapshots(&self) -> Vec<HealthSnapshot> {
        self.inner
            .as_deref()
            .map(|i| i.snapshots.lock().peek())
            .unwrap_or_default()
    }

    /// Path of the most recent bundle this recorder dumped, if any.
    pub fn last_dump(&self) -> Option<String> {
        self.inner
            .as_deref()
            .and_then(|i| i.last_dump.lock().clone())
    }

    /// Dump a self-contained postmortem bundle for `reason`, embedding the
    /// drained `trace` and the metric summaries from `hub`. Returns the
    /// bundle path, or `None` when disabled or when the write failed (a
    /// postmortem must never turn a fault into a crash — failures are
    /// reported on stderr instead).
    pub fn dump(&self, reason: &str, trace: Trace, hub: &MetricsHub) -> Option<String> {
        let inner = self.inner.as_deref()?;
        let metrics: Vec<MetricRow> = Metric::ALL
            .iter()
            .filter_map(|m| {
                hub.summary(*m).map(|summary| MetricRow {
                    metric: m.name().to_string(),
                    summary,
                })
            })
            .collect();
        // Attribute the retained window's wall-clock while we have the
        // trace in hand; the report prints it without re-analysis.
        let phase_profile = (!trace.is_empty())
            .then(|| hetero_trace::analyze::analyze(&trace).critical_path.profile);
        let bundle = PostmortemBundle {
            schema: SCHEMA.to_string(),
            reason: reason.to_string(),
            resumable_from: inner.resumable_from.lock().clone(),
            provenance: inner.provenance.lock().clone(),
            health: inner.watchdog.summary(),
            snapshots: inner.snapshots.lock().peek(),
            counters: trace.counters.clone(),
            metrics,
            phase_profile,
            trace,
        };
        // Relaxed: the counter only needs uniqueness per process, not
        // ordering with the bundle contents (those travel by value above).
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let name = format!("postmortem-{}-{}.json", std::process::id(), seq);
        let path = inner.cfg.dir.join(name);
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&inner.cfg.dir)?;
            let json = serde_json::to_string_pretty(&bundle)
                .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
            std::fs::write(&path, json)
        };
        match write() {
            Ok(()) => {
                let shown = path.display().to_string();
                *inner.last_dump.lock() = Some(shown.clone());
                Some(shown)
            }
            Err(e) => {
                eprintln!(
                    "hetero-flight: failed to write postmortem {}: {e}",
                    path.display()
                );
                None
            }
        }
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.enabled())
            .field("last_dump", &self.last_dump())
            .finish()
    }
}

/// Resolve the current git commit by reading `.git/HEAD` (following one
/// level of `ref:` indirection, including packed refs). Filesystem-only —
/// no `git` subprocess — and `None` outside a repository.
pub fn read_git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        if let Ok(sha) = std::fs::read_to_string(format!(".git/{r}")) {
            return Some(sha.trim().to_string());
        }
        let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
        packed.lines().find_map(|line| {
            let (sha, name) = line.split_once(' ')?;
            (name == r).then(|| sha.to_string())
        })
    } else {
        Some(head.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_trace::EventKind;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::disabled();
        assert!(!r.enabled());
        assert!(!r.watchdog().enabled());
        assert!(!r.make_sink(TimeDomain::Wall).enabled());
        r.record_snapshot(HealthSnapshot::default());
        assert!(r.snapshots().is_empty());
        let trace = TraceSink::disabled().drain();
        assert_eq!(r.dump("x", trace, &MetricsHub::disabled()), None);
    }

    #[test]
    fn snapshots_retain_newest() {
        let cfg = FlightConfig {
            snapshot_capacity: 2,
            ..FlightConfig::default()
        };
        let r = FlightRecorder::new(cfg);
        for i in 0..5 {
            r.record_snapshot(HealthSnapshot {
                t: i as f64,
                ..HealthSnapshot::default()
            });
        }
        let kept = r.snapshots();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].t, 3.0);
        assert_eq!(kept[1].t, 4.0);
        // A zero capacity still keeps the newest snapshot.
        let r = FlightRecorder::new(FlightConfig {
            snapshot_capacity: 0,
            ..FlightConfig::default()
        });
        for i in 0..3 {
            r.record_snapshot(HealthSnapshot {
                t: i as f64,
                ..HealthSnapshot::default()
            });
        }
        assert_eq!(r.snapshots().iter().map(|s| s.t).collect::<Vec<_>>(), [2.0]);
    }

    #[test]
    fn snapshot_with_the_retired_beta_key_still_parses() {
        // Bundles dumped while runs could measure β carry a `beta` key; they
        // stay readable under the same schema.
        let old = r#"{"t":0.5,"loss":0.512,"epochs":1.25,"batches":[56,8192],
            "beta":0.97,"staleness_p50":2,"staleness_p99":56,"grad_peak_norm":3}"#;
        let s: HealthSnapshot = serde_json::from_str(old).expect("old snapshot parses");
        assert_eq!((s.t, s.batches.as_slice()), (0.5, &[56, 8192][..]));
        assert_eq!((s.staleness_p99, s.grad_peak_norm), (Some(56.0), 3.0));
    }

    #[test]
    fn dump_writes_a_parseable_bundle() {
        let dir = std::env::temp_dir().join(format!("hetero-flight-test-{}", std::process::id()));
        let cfg = FlightConfig {
            dir: dir.clone(),
            ..FlightConfig::default()
        };
        let r = FlightRecorder::new(cfg);
        r.set_provenance(Provenance {
            engine: "test".into(),
            algorithm: "unit".into(),
            ..Provenance::default()
        });
        let sink = r.make_sink(TimeDomain::Wall);
        sink.emit(0, EventKind::EvalPoint { loss: 0.5 });
        sink.counter("test.count").add(3);
        let path = r
            .dump("unit test", sink.drain(), &MetricsHub::disabled())
            .expect("dump path");
        assert_eq!(r.last_dump().as_deref(), Some(path.as_str()));
        let text = std::fs::read_to_string(&path).unwrap();
        let bundle: PostmortemBundle = serde_json::from_str(&text).unwrap();
        assert_eq!(bundle.schema, SCHEMA);
        assert_eq!(bundle.reason, "unit test");
        assert_eq!(bundle.provenance.as_ref().unwrap().engine, "test");
        assert_eq!(bundle.trace.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn git_sha_resolves_inside_this_repo() {
        // The workspace tests run from a git checkout; outside one this
        // returns None, which is also a valid outcome for the helper.
        if std::path::Path::new(".git").exists() {
            let sha = read_git_sha();
            assert!(sha.is_none_or(|s| s.len() >= 7));
        }
    }
}
