//! Structural invariants of traces captured from a *real* training run:
//! spans nest, the per-step phase breakdown accounts for the step's wall
//! time, and the Chrome `trace_event` export round-trips losslessly.
//!
//! Tracing state is process-global, so every test takes `TRACE_LOCK`,
//! resets the collector, and drains it before releasing.

use scalefold::{DataParallelTrainer, Trainer, TrainerConfig};
use sf_trace::json::Value;
use sf_trace::report::PhaseReport;
use sf_trace::{EventKind, Trace};
use std::sync::{Mutex, MutexGuard};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn traced_train(steps: u64) -> Trace {
    sf_trace::reset();
    sf_trace::enable();
    let mut cfg = TrainerConfig::tiny();
    cfg.model.evoformer_blocks = 1;
    cfg.model.extra_msa_blocks = 0;
    let mut trainer = Trainer::new(cfg);
    let reports = trainer.train(steps);
    assert_eq!(
        reports.len() as u64,
        steps,
        "training must run to completion"
    );
    let trace = sf_trace::take();
    sf_trace::disable();
    trace
}

/// Complete spans on one thread either nest or are disjoint — a partial
/// overlap would mean a span guard outlived its enclosing scope.
#[test]
fn spans_nest_properly_per_thread() {
    let _g = lock();
    let trace = traced_train(3);
    let mut tids: Vec<u32> = trace.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    // Timestamps truncate to whole microseconds, so two adjacent siblings
    // can appear to overlap by a hair; anything beyond this is a real
    // nesting violation.
    const SLACK_US: u64 = 2;
    let mut checked = 0usize;
    for tid in tids {
        let mut spans: Vec<(u64, u64)> = trace
            .events
            .iter()
            .filter(|e| e.tid == tid && matches!(e.kind, EventKind::Complete { .. }))
            .map(|e| (e.ts_us, e.end_us()))
            .collect();
        // Start ascending, end descending: an enclosing span sorts before
        // the spans it contains.
        spans.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut open_ends: Vec<u64> = Vec::new();
        for (start, end) in spans {
            while open_ends.last().is_some_and(|&top| top <= start + SLACK_US) {
                open_ends.pop();
            }
            if let Some(&top) = open_ends.last() {
                assert!(
                    end <= top + SLACK_US,
                    "partial overlap on tid {tid}: [{start},{end}) escapes enclosing span ending at {top}"
                );
                checked += 1;
            }
            open_ends.push(end);
        }
    }
    assert!(
        checked > 10,
        "expected a non-trivial number of nested span pairs"
    );
}

/// Every recorded phase lies inside its step, and the phases plus the
/// residual "other" bucket account for the step's wall time exactly.
#[test]
fn phase_durations_sum_to_step_wall_time() {
    let _g = lock();
    let trace = traced_train(4);
    let report = PhaseReport::from_trace(&trace);
    assert_eq!(report.steps.len(), 4, "one row per optimizer step");
    for s in &report.steps {
        let attributed: u64 = s.phase_us.iter().sum();
        assert!(
            attributed <= s.total_us,
            "step {}: phases ({attributed} us) exceed wall time ({} us)",
            s.step,
            s.total_us
        );
        // The instrumented phases must cover nearly the whole step: the
        // epsilon is the loop's own bookkeeping (report push, iterator
        // advance), bounded at 10% of the step.
        assert!(
            attributed * 10 >= s.total_us * 9,
            "step {}: phases cover only {attributed} of {} us",
            s.step,
            s.total_us
        );
        assert_eq!(
            attributed + s.other_us(),
            s.total_us,
            "step {}: 'other' must be the exact residual",
            s.step
        );
    }
    // Forward and backward are never free.
    let fwd = report.phase_total_us("forward");
    let bwd = report.phase_total_us("backward");
    assert!(fwd > 0 && bwd > 0, "forward {fwd} us / backward {bwd} us");
}

/// A traced DP-2 × DAP-2 run reports through the same phase table as a
/// single replica: one row per optimizer step, each with forward, backward
/// and optimizer time, and one gradient all-reduce per step.
#[test]
fn dp_dap_grid_steps_appear_in_phase_report() {
    let _g = lock();
    sf_trace::reset();
    sf_trace::enable();
    let mut cfg = TrainerConfig::tiny();
    cfg.model.evoformer_blocks = 1;
    cfg.model.extra_msa_blocks = 0;
    cfg.dap = 2;
    let mut grid = DataParallelTrainer::new(cfg, 2);
    let reports = grid.train(3);
    let trace = sf_trace::take();
    sf_trace::disable();
    assert_eq!(reports.len(), 3, "training must run to completion");

    let report = PhaseReport::from_trace(&trace);
    assert_eq!(report.steps.len(), 3, "one row per optimizer step");
    for s in &report.steps {
        for (cat, us) in sf_trace::PHASE_CATS.iter().zip(s.phase_us) {
            if matches!(*cat, "forward" | "backward" | "optimizer") {
                assert!(us > 0, "step {}: no {cat} time", s.step);
            }
        }
    }
    let all_reduces = trace
        .spans("collective")
        .filter(|e| e.name == "grad_all_reduce")
        .count();
    assert_eq!(all_reduces, 3, "one gradient all-reduce per step");
}

/// A traced DP-2 run records its replicas on two distinct threads: every
/// step's `forward` spans carry replica args 0 and 1 on two lanes, and the
/// caller's join wait is a span of its own. The step row counts only the
/// step's own thread, so it never exceeds the step's wall time, and the
/// replica thread's phases are not reported as time outside steps.
#[test]
fn dp_replicas_run_on_distinct_threads() {
    let _g = lock();
    sf_trace::reset();
    sf_trace::enable();
    let mut cfg = TrainerConfig::tiny();
    cfg.model.evoformer_blocks = 1;
    cfg.model.extra_msa_blocks = 0;
    let mut dp = DataParallelTrainer::new(cfg, 2);
    let reports = dp.train(2);
    let trace = sf_trace::take();
    sf_trace::disable();
    assert_eq!(reports.len(), 2, "training must run to completion");

    let report = PhaseReport::from_trace(&trace);
    assert_eq!(report.steps.len(), 2, "one row per optimizer step");
    for s in &report.steps {
        let (lo, hi) = (s.start_us, s.start_us + s.total_us);
        let forwards: Vec<_> = trace
            .spans("forward")
            .filter(|e| e.name == "forward" && e.ts_us >= lo && e.end_us() <= hi)
            .collect();
        let mut replicas: Vec<f64> = forwards.iter().filter_map(|e| e.arg("replica")).collect();
        replicas.sort_by(f64::total_cmp);
        assert_eq!(
            replicas,
            [0.0, 1.0],
            "step {}: one forward per replica",
            s.step
        );
        assert_ne!(
            forwards[0].tid, forwards[1].tid,
            "step {}: replicas share a thread",
            s.step
        );
        let attributed: u64 = s.phase_us.iter().sum();
        assert!(
            attributed <= s.total_us,
            "step {}: phases ({attributed} us) exceed wall time ({} us)",
            s.step,
            s.total_us
        );
    }
    let joins = trace
        .spans("collective")
        .filter(|e| e.name == "replica_join")
        .count();
    assert_eq!(joins, 2, "one replica join per step");
    for cat in ["forward", "backward"] {
        let i = sf_trace::PHASE_CATS.iter().position(|c| *c == cat).unwrap();
        assert_eq!(report.out_of_step_us[i], 0, "{cat} time outside steps");
    }
}

/// Export → import is lossless for every event kind the tracer emits.
#[test]
fn chrome_json_round_trips() {
    let _g = lock();
    let trace = traced_train(2);
    let json = trace.to_chrome_json();
    let back = Trace::from_chrome_json(&json).expect("exported trace must re-import");
    assert_eq!(back.events.len(), trace.events.len());
    for (a, b) in trace.events.iter().zip(&back.events) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.cat, b.cat);
        assert_eq!(a.ts_us, b.ts_us);
        assert_eq!(a.pid, b.pid);
        assert_eq!(a.tid, b.tid);
        assert_eq!(a.kind, b.kind);
    }
    // And the phase table computed before and after the round trip agrees.
    let before = PhaseReport::from_trace(&trace);
    let after = PhaseReport::from_trace(&back);
    assert_eq!(before.to_table(), after.to_table());
}

/// The exported JSON matches the Chrome trace_event schema: an object with
/// a `traceEvents` array whose entries carry `name`/`ph`/`ts`/`pid`/`tid`,
/// `ph` drawn from the phases we emit, and `dur` present exactly on "X".
#[test]
fn exported_json_matches_chrome_schema() {
    let _g = lock();
    let trace = traced_train(2);
    let root = sf_trace::json::parse(&trace.to_chrome_json()).expect("valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph field");
        assert!(
            matches!(ph, "X" | "i" | "C" | "M"),
            "unexpected phase type {ph:?}"
        );
        if ph == "M" {
            continue; // metadata records carry name + args only
        }
        for key in ["name", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "event missing '{key}': {e:?}");
        }
        assert_eq!(
            e.get("dur").is_some(),
            ph == "X",
            "dur must be present exactly on complete events"
        );
        if ph == "C" {
            e.get("args")
                .and_then(|a| a.get("value"))
                .and_then(Value::as_f64)
                .expect("counter events carry args.value");
        }
    }
}

/// A traced `steps`-step DP-2 run of the one-block tiny model.
fn traced_dp_train(steps: u64) -> Trace {
    sf_trace::reset();
    sf_trace::enable();
    let mut cfg = TrainerConfig::tiny();
    cfg.model.evoformer_blocks = 1;
    cfg.model.extra_msa_blocks = 0;
    let mut dp = DataParallelTrainer::new(cfg, 2);
    let reports = dp.train(steps);
    let trace = sf_trace::take();
    sf_trace::disable();
    assert_eq!(
        reports.len() as u64,
        steps,
        "training must run to completion"
    );
    trace
}

/// The second replica runs on a fresh thread every step, but the export
/// draws it on one stable lane named by a `thread_name` record: the
/// exported `forward` spans of a 6-step DP-2 run sit on exactly 2 tids.
#[test]
fn dp_replica_keeps_one_lane_in_export() {
    let _g = lock();
    let trace = traced_dp_train(6);
    let tids = |events: &mut dyn Iterator<Item = u32>| {
        let mut tids: Vec<u32> = events.collect();
        tids.sort_unstable();
        tids.dedup();
        tids
    };
    // In memory every thread keeps its own tid.
    let in_memory = tids(&mut trace.spans("forward").map(|e| e.tid));
    assert!(
        in_memory.len() > 2,
        "one replica thread per step: {in_memory:?}"
    );

    let root = sf_trace::json::parse(&trace.to_chrome_json()).expect("valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("top-level traceEvents array");
    let field = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).map(str::to_owned);
    let tid = |e: &Value| e.get("tid").and_then(Value::as_f64).expect("tid") as u32;
    let exported = tids(
        &mut events
            .iter()
            .filter(|e| {
                field(e, "ph").as_deref() == Some("X")
                    && field(e, "cat").as_deref() == Some("forward")
            })
            .map(tid),
    );
    assert_eq!(exported.len(), 2, "one lane per replica: {exported:?}");
    let named: Vec<(u32, String)> = events
        .iter()
        .filter(|e| field(e, "name").as_deref() == Some("thread_name"))
        .map(|e| {
            let label = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str);
            (tid(e), label.expect("thread_name label").to_owned())
        })
        .collect();
    assert_eq!(named.len(), 1, "one named replica lane: {named:?}");
    assert!(
        exported.contains(&named[0].0) && named[0].1 == "replica 1",
        "{named:?}"
    );
}

/// The phase report of an exported and re-imported DP trace, whose replica
/// threads now share a lane, equals the in-memory trace's report.
#[test]
fn dp_phase_report_survives_export() {
    let _g = lock();
    let trace = traced_dp_train(6);
    let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("re-import");
    assert_eq!(
        PhaseReport::from_trace(&back),
        PhaseReport::from_trace(&trace)
    );
}
