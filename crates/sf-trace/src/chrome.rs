//! Chrome `trace_event` JSON export and import.
//!
//! Exported files follow the "JSON Object Format" of the Trace Event
//! specification: a top-level object with a `traceEvents` array, loadable
//! in `chrome://tracing` and Perfetto. Spans are complete events
//! (`"ph":"X"` with `ts`/`dur` in microseconds), instants are `"i"`,
//! counters are `"C"`, and each process lane gets a `process_name`
//! metadata record so real (`pid` 0) and simulated (`pid` ≥ 1) timelines
//! are labeled side by side.

use crate::json::{self, write_num, write_str, JsonError, Value};
use crate::{Event, EventKind, Trace};
use std::borrow::Cow;
use std::collections::BTreeSet;
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

fn write_event(out: &mut String, e: &Event) {
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
    let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.pid, e.tid);
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
    /// Serializes the trace as Chrome `trace_event` JSON.
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
        for e in &self.events {
            if !first {
                out.push(',');
            }
            write_event(&mut out, e);
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
