//! **sf-trace** — dependency-free runtime tracing for the ScaleFold stack.
//!
//! ScaleFold's methodology is profile-guided: the paper's Table 1 came from
//! tracing training steps and attributing time to data-wait, CPU launch
//! overhead, math/memory-bound kernels, and communication — and only then
//! optimizing each bucket. This crate is the runtime analogue for the real
//! Rust training stack: spans, instant events, and counters recorded into
//! **per-thread ring buffers**, drained into a global collector, exported
//! as Chrome `trace_event` JSON (loadable in `chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev)), and summarized as a per-step
//! phase-breakdown table ([`report::PhaseReport`]).
//!
//! Design constraints, in order:
//!
//! 1. **Compiled-out-cheap when disabled.** Every recording entry point
//!    checks one relaxed atomic load and returns; a disabled
//!    [`span`] constructs an inert guard with no timestamp read, no lock,
//!    and no allocation. The hot kernels of `sf-tensor` stay at full speed
//!    with tracing off (asserted against the committed kernel-bench
//!    baseline).
//! 2. **Thread-safe without coordination on the hot path.** Each thread
//!    records into its own ring buffer behind its own (uncontended) mutex;
//!    threads never write to shared state while tracing. The collector
//!    walks the buffer registry only in [`take`]/[`reset`].
//! 3. **Bounded memory.** Ring buffers hold [`RING_CAPACITY`] events; when
//!    full, the oldest events are dropped and counted
//!    ([`Trace::dropped`]), never blocking or growing without bound.
//! 4. **No dependencies.** The build environment has no registry access;
//!    JSON in and out is the crate's own [`json`] module.
//!
//! # Category conventions
//!
//! The phase table keys on span *categories*. The stack uses:
//!
//! | category     | emitted by                                             |
//! |--------------|--------------------------------------------------------|
//! | `step`       | `scalefold::Trainer` — one umbrella span per step      |
//! | `data_wait`  | `sf-data` loaders — consumer blocked in `next()`       |
//! | `forward`    | trainer forward pass                                   |
//! | `backward`   | trainer backward pass + gradient materialization       |
//! | `optimizer`  | clip + Adam/SWA update                                 |
//! | `checkpoint` | checkpoint save/restore                                |
//! | `eval`       | lDDT metric + evaluation passes                        |
//! | `collective` | DAP collectives, gradient all-reduce, replica join     |
//! | `loader`     | `sf-data` worker threads (`prepare`, queue depth)      |
//! | `pool`       | `sf-tensor` thread pool (regions, per-worker tasks)    |
//! | `sim`        | `sf-gpusim` simulated timelines ([`SimTraceBuilder`])  |

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod chrome;
pub mod json;
pub mod report;

/// Maximum events a single thread buffers before the oldest are dropped.
pub const RING_CAPACITY: usize = 1 << 16;

/// Span categories the phase report recognizes as training phases, in
/// table order (the runtime analogue of the paper's Table 1 buckets).
pub const PHASE_CATS: [&str; 6] = [
    "data_wait",
    "forward",
    "backward",
    "optimizer",
    "checkpoint",
    "eval",
];

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

type SharedBuf = Arc<Mutex<ThreadBuf>>;

fn registry() -> &'static Mutex<Vec<SharedBuf>> {
    static REGISTRY: OnceLock<Mutex<Vec<SharedBuf>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct ThreadBuf {
    ring: VecDeque<Event>,
    dropped: u64,
    tid: u32,
}

thread_local! {
    static LOCAL: SharedBuf = {
        let buf = Arc::new(Mutex::new(ThreadBuf {
            ring: VecDeque::new(),
            dropped: 0,
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        }));
        registry()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::clone(&buf));
        buf
    };
}

/// Turns recording on. Events record from this point until [`disable`].
pub fn enable() {
    // Pin the epoch before the first event so timestamps are meaningful.
    let _ = epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Turns recording off (buffered events stay until [`take`] or [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// True if events are currently being recorded.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the trace epoch (first [`enable`] / first query).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

fn push_event(ev: Event) {
    LOCAL.with(|buf| {
        let mut b = buf.lock().unwrap_or_else(|p| p.into_inner());
        if b.ring.len() >= RING_CAPACITY {
            b.ring.pop_front();
            b.dropped += 1;
        }
        b.ring.push_back(ev);
    });
}

fn current_tid() -> u32 {
    LOCAL.with(|buf| buf.lock().unwrap_or_else(|p| p.into_inner()).tid)
}

/// Drains every thread's ring buffer into one [`Trace`], sorted by
/// timestamp. Buffers (including those of exited threads) are emptied and
/// exited threads' buffers are released; recording state is unchanged.
pub fn take() -> Trace {
    let mut events = Vec::new();
    let mut dropped = 0;
    let mut registry = registry().lock().unwrap_or_else(|p| p.into_inner());
    for buf in registry.iter() {
        let mut b = buf.lock().unwrap_or_else(|p| p.into_inner());
        events.extend(b.ring.drain(..));
        dropped += b.dropped;
        b.dropped = 0;
    }
    // An exited thread's buffer is referenced only from here: drop it once
    // drained, so short-lived threads (a trainer's replica threads, one set
    // per step) do not grow the registry without bound.
    registry.retain(|buf| Arc::strong_count(buf) > 1);
    drop(registry);
    events.sort_by_key(|e| e.ts_us);
    Trace { events, dropped }
}

/// Discards all buffered events and drop counts (recording state is
/// unchanged).
pub fn reset() {
    let _ = take();
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What kind of trace event this is (maps to the Chrome `ph` field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A complete span (`ph: "X"`) with a duration.
    Complete {
        /// Span duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A sampled counter value (`ph: "C"`).
    Counter {
        /// The counter's value at `ts_us`.
        value: f64,
    },
}

/// One trace event. `pid` 0 is the real process; simulated timelines use
/// their own pid so both sides load side by side in one viewer.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (e.g. `"forward"`, `"prepare"`).
    pub name: Cow<'static, str>,
    /// Category — see the table in the crate docs.
    pub cat: Cow<'static, str>,
    /// Kind + kind-specific payload.
    pub kind: EventKind,
    /// Start time, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Process lane (0 = real process, ≥1 = simulated).
    pub pid: u32,
    /// Thread lane.
    pub tid: u32,
    /// Numeric arguments (`args` in the Chrome schema).
    pub args: Vec<(Cow<'static, str>, f64)>,
}

impl Event {
    /// End time (`ts + dur` for spans, `ts` otherwise), microseconds.
    pub fn end_us(&self) -> u64 {
        match self.kind {
            EventKind::Complete { dur_us } => self.ts_us + dur_us,
            _ => self.ts_us,
        }
    }

    /// The named numeric argument, if present.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// A drained trace: every recorded event plus how many were lost to ring
/// overflow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events sorted by start timestamp.
    pub events: Vec<Event>,
    /// Events evicted from full ring buffers before collection.
    pub dropped: u64,
}

impl Trace {
    /// Merges `other`'s events into this trace (re-sorting by timestamp).
    /// Use to place a simulated timeline alongside a real one.
    pub fn merge(&mut self, other: Trace) {
        self.events.extend(other.events);
        self.dropped += other.dropped;
        self.events.sort_by_key(|e| e.ts_us);
    }

    /// Complete-span events of category `cat`.
    pub fn spans<'a>(&'a self, cat: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events
            .iter()
            .filter(move |e| e.cat == cat && matches!(e.kind, EventKind::Complete { .. }))
    }
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// RAII span: records one [`EventKind::Complete`] event from construction
/// to drop. Inert (zero timestamps read, nothing recorded) when tracing is
/// disabled at construction.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    start_us: u64,
    cat: &'static str,
    name: &'static str,
    args: [Option<(&'static str, f64)>; 2],
    active: bool,
}

impl SpanGuard {
    /// Attaches a numeric argument (up to two per span; extras ignored).
    pub fn arg(mut self, key: &'static str, value: f64) -> Self {
        if self.active {
            if let Some(slot) = self.args.iter_mut().find(|s| s.is_none()) {
                *slot = Some((key, value));
            }
        }
        self
    }

    /// Discards the span without recording it (e.g. a loop iteration that
    /// turned out to be the end-of-iterator probe, not a real step).
    pub fn cancel(mut self) {
        self.active = false;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_us();
        let args = self
            .args
            .iter()
            .flatten()
            .map(|&(k, v)| (Cow::Borrowed(k), v))
            .collect();
        push_event(Event {
            name: Cow::Borrowed(self.name),
            cat: Cow::Borrowed(self.cat),
            kind: EventKind::Complete {
                dur_us: end.saturating_sub(self.start_us),
            },
            ts_us: self.start_us,
            pid: 0,
            tid: current_tid(),
            args,
        });
    }
}

/// Opens a span of `cat`/`name` measuring until the guard drops.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    let active = is_enabled();
    SpanGuard {
        start_us: if active { now_us() } else { 0 },
        cat,
        name,
        args: [None, None],
        active,
    }
}

/// Records a point-in-time marker.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if !is_enabled() {
        return;
    }
    push_event(Event {
        name: Cow::Borrowed(name),
        cat: Cow::Borrowed(cat),
        kind: EventKind::Instant,
        ts_us: now_us(),
        pid: 0,
        tid: current_tid(),
        args: Vec::new(),
    });
}

/// Samples a named counter (e.g. loader queue depth).
#[inline]
pub fn counter(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    push_event(Event {
        name: Cow::Borrowed(name),
        cat: Cow::Borrowed("counter"),
        kind: EventKind::Counter { value },
        ts_us: now_us(),
        pid: 0,
        tid: current_tid(),
        args: Vec::new(),
    });
}

/// Records a completed span retroactively from explicit timestamps (for
/// code that measures first and decides afterwards whether the interval is
/// worth recording, like the pool's per-worker task batches).
#[inline]
pub fn complete_span(
    cat: &'static str,
    name: &'static str,
    start_us: u64,
    end_us: u64,
    args: &[(&'static str, f64)],
) {
    if !is_enabled() {
        return;
    }
    push_event(Event {
        name: Cow::Borrowed(name),
        cat: Cow::Borrowed(cat),
        kind: EventKind::Complete {
            dur_us: end_us.saturating_sub(start_us),
        },
        ts_us: start_us,
        pid: 0,
        tid: current_tid(),
        args: args.iter().map(|&(k, v)| (Cow::Borrowed(k), v)).collect(),
    });
}

// ---------------------------------------------------------------------------
// Simulated timelines
// ---------------------------------------------------------------------------

/// Builds a [`Trace`] out of *simulated* time (seconds from `sf-gpusim` /
/// `sf-cluster` models) so simulated and real timelines export through the
/// same Chrome `trace_event` writer and load in the same viewer.
///
/// Simulated events live on their own `pid` lane (pass ≥ 1) with
/// caller-chosen `tid` lanes (e.g. 0 = CPU launch cursor, 1 = GPU stream).
#[derive(Debug)]
pub struct SimTraceBuilder {
    pid: u32,
    events: Vec<Event>,
}

impl SimTraceBuilder {
    /// A builder whose events land on process lane `pid` (use ≥ 1; lane 0
    /// is the real process).
    pub fn new(pid: u32) -> Self {
        SimTraceBuilder {
            pid: pid.max(1),
            events: Vec::new(),
        }
    }

    /// Adds a complete span at simulated seconds `[start_s, start_s + dur_s]`.
    pub fn span_s(
        &mut self,
        tid: u32,
        name: impl Into<Cow<'static, str>>,
        start_s: f64,
        dur_s: f64,
    ) -> &mut Self {
        self.events.push(Event {
            name: name.into(),
            cat: Cow::Borrowed("sim"),
            kind: EventKind::Complete {
                dur_us: (dur_s.max(0.0) * 1e6) as u64,
            },
            ts_us: (start_s.max(0.0) * 1e6) as u64,
            pid: self.pid,
            tid,
            args: Vec::new(),
        });
        self
    }

    /// Finishes into a [`Trace`] (events sorted by timestamp).
    pub fn finish(mut self) -> Trace {
        self.events.sort_by_key(|e| e.ts_us);
        Trace {
            events: self.events,
            dropped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; serialize tests that toggle it.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = test_lock();
        disable();
        reset();
        {
            let _s = span("forward", "f");
            instant("step", "marker");
            counter("q", 1.0);
        }
        assert!(take().events.is_empty());
    }

    #[test]
    fn span_records_duration_and_args() {
        let _g = test_lock();
        reset();
        enable();
        {
            let _s = span("forward", "f").arg("step", 3.0);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        disable();
        let t = take();
        let ev = t.spans("forward").next().expect("span recorded");
        assert_eq!(ev.name, "f");
        assert_eq!(ev.arg("step"), Some(3.0));
        match ev.kind {
            EventKind::Complete { dur_us } => assert!(dur_us >= 1_000, "dur {dur_us}"),
            _ => panic!("not a complete event"),
        }
    }

    #[test]
    fn cancel_discards_span() {
        let _g = test_lock();
        reset();
        enable();
        span("forward", "f").cancel();
        disable();
        assert_eq!(take().spans("forward").count(), 0);
    }

    #[test]
    fn events_from_multiple_threads_collect_with_distinct_tids() {
        let _g = test_lock();
        reset();
        enable();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("pool", "task");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread");
        }
        {
            let _s = span("pool", "task");
        }
        disable();
        let t = take();
        let tids: std::collections::BTreeSet<u32> = t.spans("pool").map(|e| e.tid).collect();
        assert_eq!(t.spans("pool").count(), 4);
        assert!(tids.len() >= 2, "expected distinct thread lanes: {tids:?}");
    }

    #[test]
    fn take_releases_exited_threads_buffers() {
        let _g = test_lock();
        reset();
        enable();
        std::thread::spawn(|| {
            let _s = span("pool", "short_lived");
        })
        .join()
        .expect("thread");
        disable();
        let t = take();
        let ev = t.spans("pool").find(|e| e.name == "short_lived");
        let tid = ev.expect("an exited thread's events are still taken").tid;
        let registry = registry().lock().unwrap_or_else(|p| p.into_inner());
        assert!(
            registry
                .iter()
                .all(|b| b.lock().unwrap_or_else(|p| p.into_inner()).tid != tid),
            "the exited thread's buffer is released once drained"
        );
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let _g = test_lock();
        reset();
        enable();
        for _ in 0..RING_CAPACITY + 10 {
            instant("step", "tick");
        }
        disable();
        let t = take();
        // Other tests' threads may contribute events; this thread's ring is
        // exactly full and the overflow is counted.
        assert!(t.events.len() >= RING_CAPACITY);
        assert!(t.dropped >= 10);
    }

    #[test]
    fn take_drains() {
        let _g = test_lock();
        reset();
        enable();
        instant("step", "once");
        disable();
        assert!(!take().events.is_empty());
        assert!(take().events.is_empty());
    }

    #[test]
    fn sim_builder_scales_seconds_to_micros() {
        let mut b = SimTraceBuilder::new(1);
        b.span_s(0, "kernel", 0.5, 0.25);
        let t = b.finish();
        assert_eq!(t.events[0].ts_us, 500_000);
        assert_eq!(t.events[0].end_us(), 750_000);
        assert_eq!(t.events[0].pid, 1);
    }
}
