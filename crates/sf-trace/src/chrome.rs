//! Chrome `trace_event` JSON export and import.
//!
//! Exported files follow the "JSON Object Format" of the Trace Event
//! specification: a top-level object with a `traceEvents` array, loadable
//! in `chrome://tracing` and Perfetto. Spans are complete events
//! (`"ph":"X"` with `ts`/`dur` in microseconds), instants are `"i"`,
//! counters are `"C"`, and each process lane gets a `process_name`
//! metadata record so real (`pid` 0) and simulated (`pid` ≥ 1) timelines
//! are labeled side by side.
//!
//! A data-parallel trainer runs each replica past the first on a fresh
//! thread every step, and every thread records under its own tid. The
//! export gives each such replica one stable lane instead (see
//! `replica_lanes`), named by a `thread_name` record, so a long run shows
//! one row per replica rather than one per replica-step.

use crate::json::{self, write_num, write_str, JsonError, Value};
use crate::{Event, EventKind, Trace};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A malformed trace file: either invalid JSON or valid JSON that violates
/// the `trace_event` schema.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceParseError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document is JSON but not a trace (message says what is wrong).
    Schema(String),
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::Json(e) => write!(f, "{e}"),
            TraceParseError::Schema(m) => write!(f, "not a Chrome trace: {m}"),
        }
    }
}

impl std::error::Error for TraceParseError {}

impl From<JsonError> for TraceParseError {
    fn from(e: JsonError) -> Self {
        TraceParseError::Json(e)
    }
}

/// A thread's events in a trace: the span of time they cover and the
/// replica they ran, if any.
struct ThreadSpan {
    start: u64,
    end: u64,
    /// The `replica` arg of its events, when it is a replica past the
    /// first.
    replica: Option<u32>,
}

/// Export lanes for the threads that ran data-parallel replicas past the
/// first (their spans carry a `replica` arg ≥ 1): each such thread maps to
/// the tid of the earliest thread of the same process and replica whose
/// lane is free by the time it starts, so threads spawned per step share
/// one lane per replica. Returns `(pid, tid) → (lane, replica)`; a lane's
/// tid is its first thread's. Replica 0 runs on the caller's own thread
/// and every other thread keeps its tid.
fn replica_lanes(events: &[Event]) -> BTreeMap<(u32, u32), (u32, u32)> {
    let mut threads: BTreeMap<(u32, u32), ThreadSpan> = BTreeMap::new();
    for e in events {
        let t = threads.entry((e.pid, e.tid)).or_insert(ThreadSpan {
            start: e.ts_us,
            end: e.end_us(),
            replica: None,
        });
        t.start = t.start.min(e.ts_us);
        t.end = t.end.max(e.end_us());
        if let Some(r) = e.arg("replica").filter(|&r| r >= 1.0) {
            t.replica = Some(r as u32);
        }
    }
    let mut replica_threads: Vec<_> = threads
        .iter()
        .filter_map(|(&(pid, tid), t)| t.replica.map(|r| (t.start, t.end, pid, tid, r)))
        .collect();
    replica_threads.sort_unstable();
    let mut map = BTreeMap::new();
    // Per lane: (pid, replica, lane tid, end of its last thread).
    let mut lanes: Vec<(u32, u32, u32, u64)> = Vec::new();
    for (start, end, pid, tid, r) in replica_threads {
        let free = lanes
            .iter_mut()
            .find(|(p, rep, _, last)| (*p, *rep) == (pid, r) && *last <= start);
        let lane = match free {
            Some(lane) => {
                lane.3 = end;
                lane.2
            }
            None => {
                lanes.push((pid, r, tid, end));
                tid
            }
        };
        map.insert((pid, tid), (lane, r));
    }
    map
}

fn write_event(out: &mut String, e: &Event, tid: u32) {
    out.push_str("{\"name\":");
    write_str(out, &e.name);
    out.push_str(",\"cat\":");
    write_str(out, &e.cat);
    let ph = match e.kind {
        EventKind::Complete { .. } => "X",
        EventKind::Instant => "i",
        EventKind::Counter { .. } => "C",
    };
    let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":{}", e.ts_us);
    if let EventKind::Complete { dur_us } = e.kind {
        let _ = write!(out, ",\"dur\":{dur_us}");
    }
    if matches!(e.kind, EventKind::Instant) {
        // Instant scope: thread.
        out.push_str(",\"s\":\"t\"");
    }
    let _ = write!(out, ",\"pid\":{},\"tid\":{tid}", e.pid);
    let has_args = !e.args.is_empty() || matches!(e.kind, EventKind::Counter { .. });
    if has_args {
        out.push_str(",\"args\":{");
        let mut first = true;
        if let EventKind::Counter { value } = e.kind {
            out.push_str("\"value\":");
            write_num(out, value);
            first = false;
        }
        for (k, v) in &e.args {
            if !first {
                out.push(',');
            }
            write_str(out, k);
            out.push(':');
            write_num(out, *v);
            first = false;
        }
        out.push('}');
    }
    out.push('}');
}

impl Trace {
    /// Serializes the trace as Chrome `trace_event` JSON. Threads that ran
    /// the same data-parallel replica one after another share one lane
    /// (named `replica N`); every other event keeps its tid.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        // Label each process lane so real and simulated timelines are
        // distinguishable in the viewer.
        let pids: BTreeSet<u32> = self.events.iter().map(|e| e.pid).collect();
        for pid in pids {
            if !first {
                out.push(',');
            }
            let label = if pid == 0 {
                "scalefold"
            } else {
                "sf-gpusim (simulated)"
            };
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{label}\"}}}}"
            );
            first = false;
        }
        let lanes = replica_lanes(&self.events);
        // Name each lane once, at its first thread.
        for (&(pid, _), &(lane, replica)) in lanes.iter().filter(|(k, v)| k.1 == v.0) {
            if !first {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{lane},\"args\":{{\"name\":\"replica {replica}\"}}}}"
            );
            first = false;
        }
        for e in &self.events {
            if !first {
                out.push(',');
            }
            let tid = lanes.get(&(e.pid, e.tid)).map_or(e.tid, |&(lane, _)| lane);
            write_event(&mut out, e, tid);
            first = false;
        }
        out.push_str("],\"otherData\":{\"droppedEvents\":");
        let _ = write!(out, "{}", self.dropped);
        out.push_str("}}");
        out
    }

    /// Parses Chrome `trace_event` JSON (the format [`Trace::to_chrome_json`]
    /// writes; also accepts the bare-array form some tools emit). Metadata
    /// (`"ph":"M"`) records are validated but not materialized as events.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] on invalid JSON or schema violations
    /// (missing `name`/`ph`/`ts`, an `X` event without `dur`, an unknown
    /// `ph`, ...).
    pub fn from_chrome_json(input: &str) -> Result<Trace, TraceParseError> {
        let doc = json::parse(input)?;
        let (items, dropped) = match &doc {
            Value::Arr(items) => (items.as_slice(), 0u64),
            Value::Obj(_) => {
                let items = doc
                    .get("traceEvents")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| {
                        TraceParseError::Schema("missing 'traceEvents' array".to_string())
                    })?;
                let dropped = doc
                    .get("otherData")
                    .and_then(|o| o.get("droppedEvents"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0) as u64;
                (items, dropped)
            }
            _ => {
                return Err(TraceParseError::Schema(
                    "top level must be an object or array".to_string(),
                ))
            }
        };
        let mut events = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let obj = item
                .as_obj()
                .ok_or_else(|| TraceParseError::Schema(format!("event {i} is not an object")))?;
            let field_str = |key: &str| -> Result<&str, TraceParseError> {
                obj.get(key).and_then(Value::as_str).ok_or_else(|| {
                    TraceParseError::Schema(format!("event {i}: missing string field '{key}'"))
                })
            };
            let field_num = |key: &str| -> Result<f64, TraceParseError> {
                obj.get(key).and_then(Value::as_f64).ok_or_else(|| {
                    TraceParseError::Schema(format!("event {i}: missing numeric field '{key}'"))
                })
            };
            let ph = field_str("ph")?;
            if ph == "M" {
                continue; // metadata: names lanes, carries no timing
            }
            let name = field_str("name")?.to_string();
            let ts_us = field_num("ts")? as u64;
            let pid = field_num("pid")? as u32;
            let tid = field_num("tid")? as u32;
            let cat = obj
                .get("cat")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let args: Vec<(Cow<'static, str>, f64)> = obj
                .get("args")
                .and_then(Value::as_obj)
                .map(|m| {
                    m.iter()
                        .filter(|(k, _)| k.as_str() != "value")
                        .filter_map(|(k, v)| v.as_f64().map(|n| (Cow::Owned(k.clone()), n)))
                        .collect()
                })
                .unwrap_or_default();
            let kind = match ph {
                "X" => EventKind::Complete {
                    dur_us: field_num("dur")? as u64,
                },
                "i" | "I" => EventKind::Instant,
                "C" => EventKind::Counter {
                    value: obj
                        .get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(Value::as_f64)
                        .ok_or_else(|| {
                            TraceParseError::Schema(format!(
                                "event {i}: counter without args.value"
                            ))
                        })?,
                },
                other => {
                    return Err(TraceParseError::Schema(format!(
                        "event {i}: unsupported ph '{other}'"
                    )))
                }
            };
            events.push(Event {
                name: Cow::Owned(name),
                cat: Cow::Owned(cat),
                kind,
                ts_us,
                pid,
                tid,
                args,
            });
        }
        events.sort_by_key(|e| e.ts_us);
        Ok(Trace { events, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                Event {
                    name: Cow::Borrowed("step"),
                    cat: Cow::Borrowed("step"),
                    kind: EventKind::Complete { dur_us: 1000 },
                    ts_us: 10,
                    pid: 0,
                    tid: 1,
                    args: vec![(Cow::Borrowed("step"), 1.0)],
                },
                Event {
                    name: Cow::Borrowed("queue_depth"),
                    cat: Cow::Borrowed("counter"),
                    kind: EventKind::Counter { value: 3.0 },
                    ts_us: 20,
                    pid: 0,
                    tid: 2,
                    args: vec![],
                },
                Event {
                    name: Cow::Borrowed("marker"),
                    cat: Cow::Borrowed("loader"),
                    kind: EventKind::Instant,
                    ts_us: 30,
                    pid: 1,
                    tid: 0,
                    args: vec![],
                },
            ],
            dropped: 7,
        }
    }

    #[test]
    fn replica_threads_share_a_lane_only_when_they_do_not_overlap() {
        let span = |tid: u32, ts_us: u64, replica: f64| Event {
            name: Cow::Borrowed("forward"),
            cat: Cow::Borrowed("forward"),
            kind: EventKind::Complete { dur_us: 10 },
            ts_us,
            pid: 0,
            tid,
            args: vec![(Cow::Borrowed("replica"), replica)],
        };
        // Replica 1 on threads 3, 5 and 6 one after another, and on
        // thread 4 alongside thread 3; replica 0 on thread 1 throughout.
        let events = vec![
            span(1, 0, 0.0),
            span(3, 0, 1.0),
            span(4, 5, 1.0),
            span(5, 20, 1.0),
            span(6, 40, 1.0),
        ];
        let lanes = replica_lanes(&events);
        let lane = |tid| lanes.get(&(0, tid)).map(|&(lane, _)| lane);
        assert_eq!(lane(1), None, "replica 0 keeps its own thread's lane");
        assert_eq!([lane(3), lane(5), lane(6)], [Some(3); 3]);
        assert_eq!(
            lane(4),
            Some(4),
            "an overlapping thread gets a lane of its own"
        );
    }

    #[test]
    fn round_trip_preserves_events() {
        let t = sample_trace();
        let s = t.to_chrome_json();
        let back = Trace::from_chrome_json(&s).expect("parse");
        assert_eq!(back.dropped, 7);
        assert_eq!(back.events.len(), t.events.len());
        for (a, b) in t.events.iter().zip(back.events.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.cat, b.cat);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.ts_us, b.ts_us);
            assert_eq!(a.pid, b.pid);
            assert_eq!(a.tid, b.tid);
            for (k, v) in &a.args {
                assert_eq!(b.arg(k), Some(*v));
            }
        }
    }

    #[test]
    fn export_is_schema_shaped() {
        let s = sample_trace().to_chrome_json();
        let doc = json::parse(&s).expect("valid JSON");
        let evs = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("array");
        // 2 process_name metadata records (pid 0 and 1) + 3 events.
        assert_eq!(evs.len(), 5);
        for ev in evs {
            let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
            assert!(matches!(ph, "X" | "i" | "C" | "M"), "ph {ph}");
            assert!(ev.get("pid").and_then(Value::as_f64).is_some());
            if ph == "X" {
                assert!(ev.get("dur").and_then(Value::as_f64).is_some());
                assert!(ev.get("ts").and_then(Value::as_f64).is_some());
            }
        }
    }

    #[test]
    fn rejects_garbage_and_schema_violations() {
        assert!(matches!(
            Trace::from_chrome_json("not json"),
            Err(TraceParseError::Json(_))
        ));
        assert!(matches!(
            Trace::from_chrome_json("{\"foo\":1}"),
            Err(TraceParseError::Schema(_))
        ));
        // An X event without dur.
        let bad = r#"{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":0,"tid":0}]}"#;
        assert!(matches!(
            Trace::from_chrome_json(bad),
            Err(TraceParseError::Schema(_))
        ));
    }

    #[test]
    fn accepts_bare_array_form() {
        let t = Trace::from_chrome_json(
            r#"[{"name":"a","cat":"sim","ph":"X","ts":5,"dur":2,"pid":1,"tid":0}]"#,
        )
        .expect("parse");
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].end_us(), 7);
    }
}
