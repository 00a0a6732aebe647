//! Per-step phase breakdown — the runtime analogue of the paper's Table 1.
//!
//! The trainer wraps every optimizer step in a `step`-category umbrella
//! span; the stack nests phase spans (`data_wait`, `forward`, `backward`,
//! `optimizer`, `checkpoint`, `eval`) inside it. [`PhaseReport`] attributes
//! each step's wall time to those buckets by **interval union**: spans of
//! the same phase that nest or overlap (e.g. the trainer's wait wrapper
//! around the loader's own `data_wait` span) are not double-counted, and
//! only events on the step's own thread count — worker-side `loader` spans
//! live on other lanes and are reported separately by the viewer. The
//! data-parallel replicas a step runs on other threads (lanes whose spans
//! carry a `replica` arg) count neither in the step's row nor as time
//! outside steps.
//!
//! `kernel`-category spans (the fused attention family) are folded into
//! the pass they run in by name — a `_bwd` suffix means `backward`,
//! anything else `forward` — instead of being dumped into "other".

use crate::{Event, EventKind, Trace, PHASE_CATS};

/// Number of recognized phases (see [`PHASE_CATS`]).
pub const N_PHASES: usize = PHASE_CATS.len();

/// One step's wall time split into phases.
#[derive(Debug, Clone, PartialEq)]
pub struct StepPhases {
    /// Step number (from the span's `step` argument, else its ordinal).
    pub step: u64,
    /// Step span start, microseconds since trace epoch.
    pub start_us: u64,
    /// Step span wall time, microseconds.
    pub total_us: u64,
    /// Time attributed to each of [`PHASE_CATS`], microseconds.
    pub phase_us: [u64; N_PHASES],
}

impl StepPhases {
    /// Wall time not covered by any recognized phase.
    pub fn other_us(&self) -> u64 {
        self.total_us
            .saturating_sub(self.phase_us.iter().sum::<u64>())
    }
}

/// Phase attribution for a whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseReport {
    /// Per-step breakdowns, in step order.
    pub steps: Vec<StepPhases>,
    /// Phase time recorded *outside* any step span (e.g. a final
    /// evaluation pass or a checkpoint between steps), microseconds.
    pub out_of_step_us: [u64; N_PHASES],
    /// End-to-end wall time covered by the trace, microseconds.
    pub wall_us: u64,
}

/// Phase bucket a `kernel`-category span belongs to. Backward kernels
/// carry a `_bwd` name suffix (`attention_fused_bwd`); everything else
/// (`attention_fused`) runs in the forward pass.
/// Without this mapping, fused-kernel time called outside a phase wrapper
/// would land in the table's "other" column.
fn kernel_phase(name: &str) -> &'static str {
    if name.ends_with("_bwd") {
        "backward"
    } else {
        "forward"
    }
}

/// Whether `e` counts toward phase `cat`: either directly by category, or
/// as a `kernel` span whose name maps to that phase.
fn matches_phase(e: &Event, cat: &str) -> bool {
    e.cat == cat || (e.cat == "kernel" && kernel_phase(&e.name) == cat)
}

/// Sum of interval lengths of the union of `intervals`, clipped to
/// `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(lo).max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

impl PhaseReport {
    /// Builds the report from a trace. Steps are `step`-category complete
    /// spans on the real process (`pid` 0).
    pub fn from_trace(trace: &Trace) -> PhaseReport {
        let mut steps = Vec::new();
        let step_spans: Vec<_> = trace
            .events
            .iter()
            .filter(|e| {
                e.pid == 0 && e.cat == "step" && matches!(e.kind, EventKind::Complete { .. })
            })
            .collect();
        for (ordinal, step_ev) in step_spans.iter().enumerate() {
            let (lo, hi) = (step_ev.ts_us, step_ev.end_us());
            let mut phase_us = [0u64; N_PHASES];
            for (i, cat) in PHASE_CATS.iter().enumerate() {
                let mut intervals: Vec<(u64, u64)> = trace
                    .events
                    .iter()
                    .filter(|e| {
                        e.pid == 0
                            && e.tid == step_ev.tid
                            && matches_phase(e, cat)
                            && matches!(e.kind, EventKind::Complete { .. })
                            && e.ts_us < hi
                            && e.end_us() > lo
                    })
                    .map(|e| (e.ts_us, e.end_us()))
                    .collect();
                phase_us[i] = union_within(&mut intervals, lo, hi);
            }
            steps.push(StepPhases {
                step: step_ev
                    .arg("step")
                    .map(|v| v as u64)
                    .unwrap_or(ordinal as u64 + 1),
                start_us: lo,
                total_us: hi - lo,
                phase_us,
            });
        }
        // A step's lanes: its own thread plus the replica threads it ran,
        // i.e. lanes that record a span with a `replica` arg inside it.
        let lanes: Vec<Vec<u32>> = step_spans
            .iter()
            .map(|st| {
                let mut tids: Vec<u32> = trace
                    .events
                    .iter()
                    .filter(|e| {
                        e.pid == 0
                            && e.arg("replica").is_some()
                            && e.ts_us >= st.ts_us
                            && e.end_us() <= st.end_us()
                    })
                    .map(|e| e.tid)
                    .chain([st.tid])
                    .collect();
                tids.sort_unstable();
                tids.dedup();
                tids
            })
            .collect();
        // Phase time outside every step window (overlap with any step on
        // one of its lanes is subtracted per event; union across events is
        // not needed at the coarse out-of-step granularity).
        let mut out_of_step_us = [0u64; N_PHASES];
        for (i, cat) in PHASE_CATS.iter().enumerate() {
            for e in trace.events.iter().filter(|e| {
                e.pid == 0 && matches_phase(e, cat) && matches!(e.kind, EventKind::Complete { .. })
            }) {
                let (s, ev_end) = (e.ts_us, e.end_us());
                let inside: u64 = step_spans
                    .iter()
                    .zip(&lanes)
                    .filter(|(_, lanes)| lanes.contains(&e.tid))
                    .map(|(st, _)| {
                        let lo = s.max(st.ts_us);
                        let hi = ev_end.min(st.end_us());
                        hi.saturating_sub(lo)
                    })
                    .sum();
                out_of_step_us[i] += (ev_end - s).saturating_sub(inside.min(ev_end - s));
            }
        }
        let wall_us = match (
            trace.events.iter().map(|e| e.ts_us).min(),
            trace.events.iter().map(|e| e.end_us()).max(),
        ) {
            (Some(lo), Some(hi)) => hi - lo,
            _ => 0,
        };
        PhaseReport {
            steps,
            out_of_step_us,
            wall_us,
        }
    }

    /// Total step wall time, microseconds.
    pub fn total_step_us(&self) -> u64 {
        self.steps.iter().map(|s| s.total_us).sum()
    }

    /// Total time in phase `cat` across all steps, microseconds.
    pub fn phase_total_us(&self, cat: &str) -> u64 {
        let Some(i) = PHASE_CATS.iter().position(|c| *c == cat) else {
            return 0;
        };
        self.steps.iter().map(|s| s.phase_us[i]).sum()
    }

    /// Fraction of total step time spent in phase `cat` (0 when no steps).
    pub fn phase_share(&self, cat: &str) -> f64 {
        let total = self.total_step_us();
        if total == 0 {
            return 0.0;
        }
        self.phase_total_us(cat) as f64 / total as f64
    }

    /// Fraction of step time the consumer spent waiting for data — the
    /// number the paper's non-blocking pipeline drives toward zero.
    pub fn data_wait_share(&self) -> f64 {
        self.phase_share("data_wait")
    }

    /// Renders the per-step table (times in milliseconds).
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let ms = |us: u64| us as f64 / 1e3;
        let mut out = String::new();
        let _ = writeln!(out, "per-step phase breakdown (ms):");
        let _ = write!(out, "{:>6} {:>10}", "step", "total");
        for cat in PHASE_CATS {
            let _ = write!(out, " {cat:>10}");
        }
        let _ = writeln!(out, " {:>10}", "other");
        for s in &self.steps {
            let _ = write!(out, "{:>6} {:>10.2}", s.step, ms(s.total_us));
            for us in s.phase_us {
                let _ = write!(out, " {:>10.2}", ms(us));
            }
            let _ = writeln!(out, " {:>10.2}", ms(s.other_us()));
        }
        let total = self.total_step_us();
        let _ = write!(out, "{:>6} {:>10.2}", "TOTAL", ms(total));
        let mut phase_sum = 0u64;
        for cat in PHASE_CATS {
            let t = self.phase_total_us(cat);
            phase_sum += t;
            let _ = write!(out, " {:>10.2}", ms(t));
        }
        let _ = writeln!(out, " {:>10.2}", ms(total.saturating_sub(phase_sum)));
        let _ = write!(out, "{:>6} {:>10}", "share", "");
        for cat in PHASE_CATS {
            let _ = write!(out, " {:>9.1}%", self.phase_share(cat) * 100.0);
        }
        let other_share = if total == 0 {
            0.0
        } else {
            total.saturating_sub(phase_sum) as f64 / total as f64
        };
        let _ = writeln!(out, " {:>9.1}%", other_share * 100.0);
        if self.out_of_step_us.iter().any(|&v| v > 0) {
            let _ = write!(out, "outside steps (ms):");
            for (i, cat) in PHASE_CATS.iter().enumerate() {
                if self.out_of_step_us[i] > 0 {
                    let _ = write!(out, "  {cat} {:.2}", ms(self.out_of_step_us[i]));
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

impl std::fmt::Display for PhaseReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;
    use std::borrow::Cow;

    fn span(cat: &'static str, ts: u64, dur: u64, tid: u32) -> Event {
        Event {
            name: Cow::Borrowed(cat),
            cat: Cow::Borrowed(cat),
            kind: EventKind::Complete { dur_us: dur },
            ts_us: ts,
            pid: 0,
            tid,
            args: vec![],
        }
    }

    fn kernel_span(name: &'static str, ts: u64, dur: u64, tid: u32) -> Event {
        Event {
            name: Cow::Borrowed(name),
            cat: Cow::Borrowed("kernel"),
            kind: EventKind::Complete { dur_us: dur },
            ts_us: ts,
            pid: 0,
            tid,
            args: vec![],
        }
    }

    #[test]
    fn attributes_phases_within_step_window() {
        let t = Trace {
            events: vec![
                span("step", 0, 100, 1),
                span("data_wait", 0, 10, 1),
                span("forward", 10, 40, 1),
                span("backward", 50, 30, 1),
                span("optimizer", 80, 15, 1),
            ],
            dropped: 0,
        };
        let r = PhaseReport::from_trace(&t);
        assert_eq!(r.steps.len(), 1);
        let s = &r.steps[0];
        assert_eq!(s.total_us, 100);
        assert_eq!(s.phase_us, [10, 40, 30, 15, 0, 0]);
        assert_eq!(s.other_us(), 5);
    }

    #[test]
    fn nested_same_phase_spans_are_not_double_counted() {
        // Trainer-level data_wait wrapping the loader's own data_wait.
        let t = Trace {
            events: vec![
                span("step", 0, 100, 1),
                span("data_wait", 0, 50, 1),
                span("data_wait", 5, 40, 1),
            ],
            dropped: 0,
        };
        let r = PhaseReport::from_trace(&t);
        assert_eq!(r.steps[0].phase_us[0], 50);
    }

    #[test]
    fn other_threads_do_not_pollute_step_phases() {
        let t = Trace {
            events: vec![
                span("step", 0, 100, 1),
                span("forward", 0, 100, 2), // another lane entirely
            ],
            dropped: 0,
        };
        let r = PhaseReport::from_trace(&t);
        assert_eq!(r.steps[0].phase_us[1], 0);
    }

    #[test]
    fn kernel_spans_attribute_to_forward_and_backward() {
        // Fused attention kernels outside a phase wrapper must land in
        // forward/backward by name, not in "other".
        let t = Trace {
            events: vec![
                span("step", 0, 100, 1),
                kernel_span("attention_fused", 0, 30, 1),
                kernel_span("attention_fused_bwd", 40, 20, 1),
            ],
            dropped: 0,
        };
        let r = PhaseReport::from_trace(&t);
        let s = &r.steps[0];
        assert_eq!(s.phase_us[1], 30, "forward");
        assert_eq!(s.phase_us[2], 20, "backward");
        assert_eq!(s.other_us(), 50);
    }

    #[test]
    fn kernel_spans_nested_in_phase_wrappers_do_not_double_count() {
        // The usual case: attention_fused runs inside the trainer's own
        // forward span. Interval union keeps the forward column at the
        // wrapper's width.
        let t = Trace {
            events: vec![
                span("step", 0, 100, 1),
                span("forward", 0, 60, 1),
                kernel_span("attention_fused", 10, 20, 1),
            ],
            dropped: 0,
        };
        let r = PhaseReport::from_trace(&t);
        assert_eq!(r.steps[0].phase_us[1], 60);
    }

    #[test]
    fn out_of_step_time_is_reported() {
        let t = Trace {
            events: vec![span("step", 0, 100, 1), span("eval", 150, 50, 1)],
            dropped: 0,
        };
        let r = PhaseReport::from_trace(&t);
        assert_eq!(r.steps[0].phase_us[5], 0);
        assert_eq!(r.out_of_step_us[5], 50);
        assert_eq!(r.wall_us, 200);
    }

    #[test]
    fn replica_lanes_are_inside_their_step() {
        // Replica 1 runs on tid 2 (its spans carry a `replica` arg, its
        // kernels do not); an unrelated evaluation runs on tid 3.
        let mut fwd = span("forward", 10, 40, 2);
        fwd.args.push((Cow::Borrowed("replica"), 1.0));
        let t = Trace {
            events: vec![
                span("step", 0, 100, 1),
                span("forward", 10, 30, 1),
                fwd,
                kernel_span("attention_fused", 20, 10, 2),
                span("eval", 20, 30, 3),
            ],
            dropped: 0,
        };
        let r = PhaseReport::from_trace(&t);
        // The step row counts only the step's own thread.
        assert_eq!(r.steps[0].phase_us[1], 30);
        assert_eq!(r.out_of_step_us[1], 0, "replica forward is in the step");
        assert_eq!(r.out_of_step_us[5], 30, "other lanes stay outside");
    }

    #[test]
    fn shares_and_table_render() {
        let t = Trace {
            events: vec![
                span("step", 0, 100, 1),
                span("data_wait", 0, 25, 1),
                span("step", 100, 100, 1),
                span("data_wait", 100, 25, 1),
            ],
            dropped: 0,
        };
        let r = PhaseReport::from_trace(&t);
        assert!((r.data_wait_share() - 0.25).abs() < 1e-9);
        let table = r.to_table();
        assert!(table.contains("TOTAL"));
        assert!(table.contains("data_wait"));
    }

    #[test]
    fn empty_trace_is_empty_report() {
        let r = PhaseReport::from_trace(&Trace::default());
        assert!(r.steps.is_empty());
        assert_eq!(r.data_wait_share(), 0.0);
        assert_eq!(r.total_step_us(), 0);
    }
}
