//! Trace exporters: JSONL for ad-hoc tooling and Chrome `trace_event`
//! JSON for Perfetto / `chrome://tracing`.
//!
//! The Chrome exporter lays one track (tid) per worker under a single
//! process, pairs `BatchDispatched` → `BatchCompleted` into duration
//! (`"ph":"X"`) slices so each device gets a flame track, renders
//! transfers as duration slices too, and turns queue depth and loss into
//! Chrome counter (`"ph":"C"`) tracks. Batch lineage renders as Perfetto
//! flow arrows: every dispatch opens a flow (`"ph":"s"`) on the
//! coordinator track, `BatchStarted` adds a step (`"ph":"t"`) and the
//! completion closes it (`"ph":"f"`) on the worker track, all bound by
//! the batch's lineage id. The sink's time domain is recorded in the
//! process name and in `otherData.timeDomain`, so virtual-clock traces
//! are clearly labelled as such.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use serde::{Serialize, Value};

use crate::event::{Event, EventKind, COORDINATOR};
use crate::sink::Trace;

/// Render a trace as JSON Lines: one meta line, then one event per line
/// in global time order.
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    let meta = Value::Object(vec![(
        "meta".to_string(),
        Value::Object(vec![
            (
                "domain".to_string(),
                Value::Str(trace.domain.label().to_string()),
            ),
            ("shards".to_string(), Value::U64(trace.shards.len() as u64)),
            ("events".to_string(), Value::U64(trace.len() as u64)),
            ("dropped".to_string(), Value::U64(trace.total_dropped())),
            ("counters".to_string(), counters_object(trace)),
        ]),
    )]);
    out.push_str(&serde_json::to_string(&meta).expect("meta serializes"));
    out.push('\n');
    for event in trace.events_sorted() {
        out.push_str(&serde_json::to_string(&event.to_value()).expect("event serializes"));
        out.push('\n');
    }
    out
}

/// Write [`to_jsonl`] output to `path`.
pub fn write_jsonl(trace: &Trace, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_jsonl(trace).as_bytes())
}

fn counters_object(trace: &Trace) -> Value {
    Value::Object(
        trace
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::F64(*v)))
            .collect(),
    )
}

fn us(t: f64) -> Value {
    // Chrome expects microseconds; clamp tiny negative rounding artifacts.
    Value::F64((t * 1e6).max(0.0))
}

fn trace_event(
    name: &str,
    cat: &str,
    ph: &str,
    ts: Value,
    tid: u32,
    extra: Vec<(String, Value)>,
) -> Value {
    let mut obj = vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("cat".to_string(), Value::Str(cat.to_string())),
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("ts".to_string(), ts),
        ("pid".to_string(), Value::U64(0)),
        ("tid".to_string(), Value::U64(tid as u64)),
    ];
    obj.extend(extra);
    Value::Object(obj)
}

fn args(pairs: Vec<(&str, Value)>) -> (String, Value) {
    (
        "args".to_string(),
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
    )
}

fn instant(name: &str, cat: &str, event: &Event, extra: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![args(extra)];
    // Thread-scoped instant marker.
    fields.push(("s".to_string(), Value::Str("t".to_string())));
    trace_event(name, cat, "i", us(event.t), event.worker, fields)
}

/// Render a trace as Chrome `trace_event` JSON (Perfetto-loadable).
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut events: Vec<Value> = Vec::new();
    let sorted = trace.events_sorted();

    // Track names: one per worker plus the coordinator.
    let mut tids: Vec<u32> = sorted.iter().map(|e| e.worker).collect();
    tids.sort_unstable();
    tids.dedup();
    events.push(trace_event(
        "process_name",
        "__metadata",
        "M",
        Value::U64(0),
        0,
        vec![args(vec![(
            "name",
            Value::Str(format!("hetero-engine ({} time)", trace.domain.label())),
        )])],
    ));
    for &tid in &tids {
        let label = if tid == COORDINATOR {
            "coordinator".to_string()
        } else {
            format!("worker-{tid}")
        };
        events.push(trace_event(
            "thread_name",
            "__metadata",
            "M",
            Value::U64(0),
            tid,
            vec![args(vec![("name", Value::Str(label))])],
        ));
    }

    // Flow arrow helper: the three flow phases share the batch's lineage
    // id, which is what makes Perfetto draw the dispatch→start→complete
    // arrows across tracks.
    let flow = |ph: &str, t: f64, tid: u32, id: u64| -> Value {
        let mut fields = vec![("id".to_string(), Value::U64(id))];
        if ph == "f" {
            // Bind the finish to the enclosing slice's end.
            fields.push(("bp".to_string(), Value::Str("e".to_string())));
        }
        trace_event("batch_flow", "batch", ph, us(t), tid, fields)
    };

    // Pair dispatch → completion into per-worker duration slices, keyed
    // by lineage id so a requeued range cannot steal another batch's
    // dispatch timestamp.
    let mut pending: HashMap<u64, (f64, usize)> = HashMap::new();
    for event in &sorted {
        match &event.kind {
            EventKind::BatchDispatched { id, batch } => {
                pending.insert(*id, (event.t, *batch));
                // Lineage arrow source, anchored on the coordinator track.
                events.push(flow("s", event.t, COORDINATOR, *id));
            }
            EventKind::BatchStarted { id } => {
                events.push(flow("t", event.t, event.worker, *id));
            }
            EventKind::BatchCompleted {
                id,
                batch,
                updates,
                phases,
            } => {
                events.push(flow("f", event.t, event.worker, *id));
                match pending.remove(id) {
                    Some((t0, dispatched)) if event.t >= t0 => {
                        events.push(trace_event(
                            "batch",
                            "batch",
                            "X",
                            us(t0),
                            event.worker,
                            vec![
                                ("dur".to_string(), Value::F64((event.t - t0) * 1e6)),
                                args(vec![
                                    ("id", Value::U64(*id)),
                                    ("batch", Value::U64(*batch as u64)),
                                    ("dispatched", Value::U64(dispatched as u64)),
                                    ("updates", Value::U64(*updates as u64)),
                                    ("stage_secs", Value::F64(phases.stage_secs)),
                                    ("compute_secs", Value::F64(phases.compute_secs)),
                                    ("transfer_secs", Value::F64(phases.transfer_secs)),
                                    ("merge_secs", Value::F64(phases.merge_secs)),
                                ]),
                            ],
                        ));
                    }
                    _ => {
                        events.push(instant(
                            "batch_completed",
                            "batch",
                            event,
                            vec![
                                ("id", Value::U64(*id)),
                                ("batch", Value::U64(*batch as u64)),
                                ("updates", Value::U64(*updates as u64)),
                            ],
                        ));
                    }
                }
            }
            EventKind::BatchResized { old, new, reason } => {
                events.push(instant(
                    "batch_resized",
                    "batch",
                    event,
                    vec![
                        ("old", Value::U64(*old as u64)),
                        ("new", Value::U64(*new as u64)),
                        ("reason", reason.to_value()),
                    ],
                ));
            }
            EventKind::QueuePushed { depth, .. } | EventKind::QueuePopped { depth, .. } => {
                events.push(trace_event(
                    "queue_depth",
                    "queue",
                    "C",
                    us(event.t),
                    0,
                    vec![args(vec![("depth", Value::U64(*depth as u64))])],
                ));
            }
            EventKind::H2d { bytes, secs, .. } | EventKind::D2h { bytes, secs, .. } => {
                let name = if matches!(event.kind, EventKind::H2d { .. }) {
                    "H2D"
                } else {
                    "D2H"
                };
                events.push(trace_event(
                    name,
                    "transfer",
                    "X",
                    us(event.t - secs),
                    event.worker,
                    vec![
                        ("dur".to_string(), Value::F64(secs * 1e6)),
                        args(vec![("bytes", Value::U64(*bytes as u64))]),
                    ],
                ));
            }
            EventKind::ModelMerge { scale, id } => {
                events.push(instant(
                    "model_merge",
                    "merge",
                    event,
                    vec![
                        ("scale", Value::F64(*scale)),
                        ("id", id.map_or(Value::Null, Value::U64)),
                    ],
                ));
            }
            EventKind::EvalPoint { loss } => {
                events.push(trace_event(
                    "loss",
                    "eval",
                    "C",
                    us(event.t),
                    0,
                    vec![args(vec![("loss", Value::F64(*loss))])],
                ));
            }
            EventKind::WorkerRetired { reason } => {
                events.push(instant(
                    "worker_retired",
                    "fault",
                    event,
                    vec![("reason", Value::Str(reason.clone()))],
                ));
            }
            EventKind::BatchRequeued { id, batch } => {
                events.push(instant(
                    "batch_requeued",
                    "batch",
                    event,
                    vec![
                        ("id", Value::U64(*id)),
                        ("batch", Value::U64(*batch as u64)),
                    ],
                ));
            }
            EventKind::HealthEvent { action, detail } => {
                events.push(instant(
                    "health",
                    "health",
                    event,
                    vec![
                        ("action", Value::Str(action.clone())),
                        ("detail", Value::Str(detail.clone())),
                    ],
                ));
            }
        }
    }

    let root = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        (
            "otherData".to_string(),
            Value::Object(vec![
                (
                    "timeDomain".to_string(),
                    Value::Str(trace.domain.label().to_string()),
                ),
                (
                    "droppedEvents".to_string(),
                    Value::U64(trace.total_dropped()),
                ),
                ("counters".to_string(), counters_object(trace)),
            ]),
        ),
    ]);
    serde_json::to_string(&root).expect("chrome trace serializes")
}

/// Write [`to_chrome_json`] output to `path`.
pub fn write_chrome(trace: &Trace, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_chrome_json(trace).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    fn sample_trace() -> Trace {
        let sink = TraceSink::virtual_time(64);
        sink.set_virtual_now(0.0);
        sink.emit(0, EventKind::BatchDispatched { id: 1, batch: 64 });
        sink.set_virtual_now(0.1);
        sink.emit(0, EventKind::BatchStarted { id: 1 });
        sink.set_virtual_now(0.5);
        sink.emit(
            0,
            EventKind::BatchCompleted {
                id: 1,
                batch: 64,
                updates: 8,
                phases: crate::event::BatchPhases {
                    compute_secs: 0.4,
                    ..Default::default()
                },
            },
        );
        sink.emit(
            0,
            EventKind::BatchResized {
                old: 64,
                new: 80,
                reason: crate::event::ResizeReason::Ahead,
            },
        );
        sink.emit(
            1,
            EventKind::H2d {
                bytes: 1024,
                secs: 0.1,
                id: Some(1),
            },
        );
        sink.emit(COORDINATOR, EventKind::EvalPoint { loss: 0.7 });
        sink.counter("test.counter").add(2);
        sink.drain()
    }

    #[test]
    fn jsonl_has_meta_plus_one_line_per_event() {
        let trace = sample_trace();
        let jsonl = to_jsonl(&trace);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1 + trace.len());
        assert!(lines[0].contains("\"domain\":\"virtual\""));
        for line in &lines {
            let v: Value = serde_json::from_str(line).expect("each line parses");
            assert!(matches!(v, Value::Object(_)));
        }
    }

    #[test]
    fn chrome_json_parses_and_pairs_batches() {
        let trace = sample_trace();
        let json = to_chrome_json(&trace);
        let root: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = match root.get("traceEvents") {
            Some(Value::Array(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph") == Some(&Value::Str("X".to_string())))
            .collect();
        // One paired batch slice + one transfer slice.
        assert_eq!(complete.len(), 2);
        let batch = complete
            .iter()
            .find(|e| e.get("name") == Some(&Value::Str("batch".to_string())))
            .expect("batch slice");
        let dur = match batch.get("dur") {
            Some(Value::F64(x)) => *x,
            Some(Value::U64(n)) => *n as f64,
            other => panic!("dur missing: {other:?}"),
        };
        assert_eq!(dur, 0.5 * 1e6);
        assert_eq!(
            root.get("otherData").and_then(|o| o.get("timeDomain")),
            Some(&Value::Str("virtual".to_string()))
        );
    }

    #[test]
    fn chrome_json_links_lineage_with_flow_events() {
        let trace = sample_trace();
        let json = to_chrome_json(&trace);
        let root: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = match root.get("traceEvents") {
            Some(Value::Array(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let flows: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name") == Some(&Value::Str("batch_flow".to_string())))
            .collect();
        let phase = |ph: &str| {
            flows
                .iter()
                .find(|e| e.get("ph") == Some(&Value::Str(ph.to_string())))
                .unwrap_or_else(|| panic!("missing flow phase {ph:?}"))
        };
        let (s, t, f) = (phase("s"), phase("t"), phase("f"));
        // All three legs share the lineage id.
        for leg in [s, t, f] {
            assert_eq!(leg.get("id"), Some(&Value::U64(1)));
        }
        // Dispatch arrow starts on the coordinator track, lands on the
        // worker's, and the finish binds to the enclosing slice end.
        assert_eq!(s.get("tid"), Some(&Value::U64(COORDINATOR as u64)));
        assert_eq!(t.get("tid"), Some(&Value::U64(0)));
        assert_eq!(f.get("bp"), Some(&Value::Str("e".to_string())));
    }
}
