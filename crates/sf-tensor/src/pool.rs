//! Scoped, dependency-free thread pool for the CPU compute backend.
//!
//! Every hot kernel in this crate (GEMM, LayerNorm, softmax, attention)
//! routes its outer loop through [`parallel_for`]. Design constraints, in
//! order:
//!
//! 1. **Determinism.** The pool only ever partitions *independent* output
//!    regions across threads; each item is computed by exactly one task with
//!    a fixed per-element accumulation order. Kernel output is therefore
//!    bit-identical for every thread count (asserted by the
//!    `parallel_determinism` test suite).
//! 2. **No dependencies.** The build environment has no registry access, so
//!    rayon is off the table. This is a plain `std` pool: persistent parked
//!    workers, a single published job slot, and atomic chunk claiming. No
//!    work stealing — chunks are claimed from a shared counter, which for
//!    the regular rectangular loops of dense kernels loses nothing to
//!    stealing and keeps the scheduler ~100 lines.
//! 3. **Safe nesting.** A parallel region that (transitively) re-enters
//!    [`parallel_for`] runs the inner loop serially instead of deadlocking:
//!    only one parallel region is active at a time (`run_lock`), and inner
//!    calls that fail the `try_lock` fall back to inline execution.
//! 4. **Small-input bypass.** Dispatch costs a few microseconds; callers
//!    pass an estimated per-item scalar-op cost and loops below
//!    [`SERIAL_THRESHOLD`] total ops run inline on the caller thread.
//!
//! Thread count resolution: [`set_num_threads`] wins; otherwise the
//! `SF_THREADS` environment variable (read once, at first use); otherwise
//! [`std::thread::available_parallelism`]. A count of 1 disables the pool
//! entirely — no worker threads are spawned and every loop runs inline.

use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// Minimum estimated scalar-op count (`n_items * cost_per_item`) before a
/// loop is worth dispatching to the pool. Below this, [`parallel_for`] runs
/// inline: at ~1 op/cycle a loop this size finishes in ~40 µs, comparable
/// to the cost of waking and re-parking the workers.
pub const SERIAL_THRESHOLD: usize = 1 << 17;

/// Chunks handed out per worker thread. Oversubscription smooths load
/// imbalance from ragged edges without shrinking chunks so far that the
/// claim counter becomes contended.
const CHUNKS_PER_THREAD: usize = 4;

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

struct Registry {
    /// Configured thread count; 0 means "not yet resolved".
    configured: AtomicUsize,
    /// The live pool, rebuilt when the configured count changes.
    pool: Mutex<Option<Arc<PoolInner>>>,
    /// Held for the duration of one parallel region; `try_lock` failure on
    /// entry means a region is already active, so run inline (nesting).
    run_lock: Mutex<()>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        configured: AtomicUsize::new(0),
        pool: Mutex::new(None),
        run_lock: Mutex::new(()),
    })
}

fn default_threads() -> usize {
    match std::env::var("SF_THREADS") {
        Ok(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(1),
        Err(_) => thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// The thread count kernels will use (resolving `SF_THREADS` /
/// `available_parallelism` on first call).
pub fn num_threads() -> usize {
    let reg = registry();
    match reg.configured.load(Ordering::Relaxed) {
        0 => {
            let n = default_threads();
            // A racing first call resolves the same value; last store wins.
            reg.configured.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Overrides the kernel thread count (clamped to ≥ 1). Takes effect on the
/// next parallel region; the worker set is rebuilt lazily.
pub fn set_num_threads(n: usize) {
    registry().configured.store(n.max(1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Job: one published parallel loop
// ---------------------------------------------------------------------------

struct JobInner {
    /// Lifetime-erased pointer to the caller's loop body. Only dereferenced
    /// while `pending > 0`, which the caller outlives by construction.
    body: *const (dyn Fn(Range<usize>) + Sync),
    n_items: usize,
    chunk: usize,
    n_chunks: usize,
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    /// Chunks claimed-and-not-yet-finished plus unclaimed chunks. The
    /// caller may return only once this reaches zero.
    pending: AtomicUsize,
    panicked: AtomicBool,
}

// SAFETY: `body` is only dereferenced for chunks claimed while
// `pending > 0`; the caller blocks until `pending == 0`, so the closure it
// points to is alive for every dereference. All other fields are atomics.
unsafe impl Send for JobInner {}
unsafe impl Sync for JobInner {}

type Job = Arc<JobInner>;

/// Claims and runs chunks until the counter is exhausted. Runs on workers
/// and on the calling thread alike.
///
/// When tracing is on, each participant's whole claim streak is recorded
/// retroactively as one `pool`/`tasks` span (per-chunk spans would drown
/// the trace: a single GEMM dispatches dozens of chunks). A participant
/// claims its next chunk before it releases the current one, so its span
/// is recorded while `pending` still counts that chunk: the caller, which
/// returns once `pending` reaches zero, then finds every participant's span.
fn run_chunks(pool: &PoolInner, job: &Job) {
    let tracing = sf_trace::is_enabled();
    let t_start = if tracing { sf_trace::now_us() } else { 0 };
    let mut claimed = 0usize;
    let mut c = job.next.fetch_add(1, Ordering::Relaxed);
    while c < job.n_chunks {
        claimed += 1;
        let start = c * job.chunk;
        let end = (start + job.chunk).min(job.n_items);
        // SAFETY: see `JobInner::body`.
        let body = unsafe { &*job.body };
        if catch_unwind(AssertUnwindSafe(|| body(start..end))).is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }
        c = job.next.fetch_add(1, Ordering::Relaxed);
        if tracing && c >= job.n_chunks {
            sf_trace::complete_span(
                "pool",
                "tasks",
                t_start,
                sf_trace::now_us(),
                &[("chunks", claimed as f64)],
            );
        }
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = pool.done.lock().expect("done lock");
            pool.done_cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Pool: persistent parked workers
// ---------------------------------------------------------------------------

struct WorkSlot {
    epoch: u64,
    job: Option<Job>,
    shutdown: bool,
}

struct PoolInner {
    slot: Mutex<WorkSlot>,
    work_cv: Condvar,
    done: Mutex<()>,
    done_cv: Condvar,
    workers: usize,
}

impl PoolInner {
    fn spawn(workers: usize) -> Arc<PoolInner> {
        let inner = Arc::new(PoolInner {
            slot: Mutex::new(WorkSlot {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            workers,
        });
        for w in 0..workers {
            let pool = Arc::clone(&inner);
            thread::Builder::new()
                .name(format!("sf-pool-{w}"))
                .spawn(move || worker_loop(&pool))
                .expect("spawn sf-pool worker");
        }
        inner
    }

    fn shutdown(&self) {
        let mut slot = self.slot.lock().expect("pool slot lock");
        slot.shutdown = true;
        self.work_cv.notify_all();
    }
}

fn worker_loop(pool: &PoolInner) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = pool.slot.lock().expect("pool slot lock");
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen {
                    seen = slot.epoch;
                    if let Some(job) = slot.job.clone() {
                        break job;
                    }
                }
                slot = pool.work_cv.wait(slot).expect("pool slot wait");
            }
        };
        run_chunks(pool, &job);
    }
}

/// Returns the live pool for `threads`, rebuilding the worker set if the
/// configured count changed since the last region.
fn current_pool(threads: usize) -> Arc<PoolInner> {
    let workers = threads - 1; // the caller participates
    let mut guard = registry().pool.lock().expect("pool registry lock");
    if let Some(pool) = guard.as_ref() {
        if pool.workers == workers {
            return Arc::clone(pool);
        }
        pool.shutdown();
    }
    let pool = PoolInner::spawn(workers);
    *guard = Some(Arc::clone(&pool));
    pool
}

// ---------------------------------------------------------------------------
// parallel_for
// ---------------------------------------------------------------------------

/// Runs `body` over the item ranges of `0..n_items`, split across the
/// configured threads.
///
/// `cost_per_item` is the caller's estimate of scalar operations per item;
/// loops whose total estimated cost falls below [`SERIAL_THRESHOLD`] — and
/// all loops when the thread count is 1, or when called from inside another
/// parallel region — run inline as a single `body(0..n_items)` call.
///
/// `body` must treat the items of disjoint ranges as independent: it may be
/// invoked concurrently from several threads, each with a disjoint range.
/// Panics inside `body` are caught on the worker, and re-raised on the
/// caller after the loop completes.
pub fn parallel_for<F>(n_items: usize, cost_per_item: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n_items == 0 {
        return;
    }
    let threads = num_threads();
    if n_items.saturating_mul(cost_per_item.max(1)) < SERIAL_THRESHOLD {
        body(0..n_items);
        return;
    }
    if threads <= 1 {
        // The loop is big enough to dispatch but the pool is one thread
        // wide: run inline, yet still record the region so traces taken at
        // different `--threads` settings show the same parallel regions
        // (with `threads` telling them apart).
        let _region_span = sf_trace::span("pool", "parallel_for")
            .arg("items", n_items as f64)
            .arg("threads", 1.0);
        body(0..n_items);
        return;
    }
    let reg = registry();
    // A held run_lock means we are inside another parallel region (possibly
    // on this very thread) — run inline rather than deadlock or queue.
    let Ok(_region) = reg.run_lock.try_lock() else {
        body(0..n_items);
        return;
    };
    // Region span: covers publish + participation + completion wait. Only
    // above-threshold loops are recorded; small inline loops stay span-free
    // (and overhead-free).
    let _region_span = sf_trace::span("pool", "parallel_for")
        .arg("items", n_items as f64)
        .arg("threads", threads as f64);
    let pool = current_pool(threads);

    let target_chunks = (threads * CHUNKS_PER_THREAD).min(n_items).max(1);
    let chunk = n_items.div_ceil(target_chunks);
    let n_chunks = n_items.div_ceil(chunk);

    let body_ref: &(dyn Fn(Range<usize>) + Sync) = &body;
    // SAFETY: lifetime erasure only; the pointer is dereferenced exclusively
    // while this frame is blocked in the completion wait below.
    let body_ptr = unsafe {
        std::mem::transmute::<&(dyn Fn(Range<usize>) + Sync), &'static (dyn Fn(Range<usize>) + Sync)>(
            body_ref,
        ) as *const _
    };
    let job: Job = Arc::new(JobInner {
        body: body_ptr,
        n_items,
        chunk,
        n_chunks,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(n_chunks),
        panicked: AtomicBool::new(false),
    });

    {
        let mut slot = pool.slot.lock().expect("pool slot lock");
        slot.epoch = slot.epoch.wrapping_add(1);
        slot.job = Some(Arc::clone(&job));
        pool.work_cv.notify_all();
    }

    // The caller is a full participant.
    run_chunks(&pool, &job);

    // Wait for workers to drain the chunks we did not claim. The timeout is
    // a belt-and-suspenders against the (checked-again-under-lock) race
    // between the last decrement and the notify.
    while job.pending.load(Ordering::Acquire) != 0 {
        let guard = pool.done.lock().expect("done lock");
        if job.pending.load(Ordering::Acquire) == 0 {
            break;
        }
        let _ = pool
            .done_cv
            .wait_timeout(guard, Duration::from_millis(1))
            .expect("done wait");
    }

    {
        let mut slot = pool.slot.lock().expect("pool slot lock");
        if slot
            .job
            .as_ref()
            .is_some_and(|current| Arc::ptr_eq(current, &job))
        {
            slot.job = None;
        }
    }

    if job.panicked.load(Ordering::Relaxed) {
        panic!("sf-tensor: a parallel kernel task panicked");
    }
}

// ---------------------------------------------------------------------------
// Disjoint-write helper
// ---------------------------------------------------------------------------

/// A `Send + Sync` raw pointer to an `f32` buffer, for kernels whose tasks
/// write *disjoint* regions of one output allocation.
///
/// The borrow checker cannot see that row-partitioned writes never alias,
/// so kernels capture the output as a `SendPtr` and carve per-task slices
/// out of it with [`SendPtr::slice_mut`].
#[derive(Clone, Copy)]
pub struct SendPtr(*mut f32);

// SAFETY: the pointer is only used for writes to ranges the caller
// guarantees are disjoint across concurrently-running tasks.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Wraps a mutable buffer. The caller must keep the buffer alive (and
    /// not otherwise access it) for as long as tasks may write through the
    /// returned pointer.
    pub fn new(buf: &mut [f32]) -> Self {
        SendPtr(buf.as_mut_ptr())
    }

    /// Wraps a buffer whose elements may be unwritten, under the same
    /// contract as [`SendPtr::new`]. Unwritten elements are reached only
    /// through [`SendPtr::uninit_mut`] and the raw `at` pointer.
    pub(crate) fn uninit(buf: &mut [MaybeUninit<f32>]) -> Self {
        SendPtr(buf.as_mut_ptr().cast())
    }

    /// Reborrows `len` elements starting at `start`.
    ///
    /// # Safety
    ///
    /// `start..start + len` must lie inside the wrapped buffer, must hold
    /// written elements only, and must not overlap any range concurrently
    /// reborrowed through this pointer.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }

    /// Reborrows `len` possibly unwritten elements starting at `start`,
    /// for writing.
    ///
    /// # Safety
    ///
    /// `start..start + len` must lie inside the wrapped buffer and must not
    /// overlap any range concurrently reborrowed through this pointer.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn uninit_mut(&self, start: usize, len: usize) -> &mut [MaybeUninit<f32>] {
        std::slice::from_raw_parts_mut(self.0.add(start).cast(), len)
    }

    /// The raw pointer `start` elements in, for writers that must not
    /// materialize a slice spanning elements other tasks own.
    pub(crate) fn at(&self, start: usize) -> *mut f32 {
        self.0.wrapping_add(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// The thread-count knob is global; serialize the tests that turn it.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn covers_every_item_exactly_once() {
        let _g = test_lock();
        set_num_threads(4);
        let n = 10_000;
        let mut hits = vec![0f32; n];
        let ptr = SendPtr::new(&mut hits);
        parallel_for(n, SERIAL_THRESHOLD, |range| {
            for i in range {
                // SAFETY: ranges from parallel_for are disjoint.
                unsafe { ptr.slice_mut(i, 1)[0] += 1.0 };
            }
        });
        assert!(hits.iter().all(|&h| h == 1.0));
    }

    #[test]
    fn small_loops_run_inline() {
        let _g = test_lock();
        set_num_threads(4);
        let calls = AtomicU64::new(0);
        parallel_for(8, 1, |range| {
            assert_eq!(range, 0..8);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_regions_fall_back_to_serial() {
        let _g = test_lock();
        set_num_threads(4);
        let total = AtomicU64::new(0);
        parallel_for(64, SERIAL_THRESHOLD, |outer| {
            for _ in outer {
                parallel_for(32, SERIAL_THRESHOLD, |inner| {
                    total.fetch_add(inner.len() as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64 * 32);
    }

    #[test]
    fn set_num_threads_clamps_to_one() {
        let _g = test_lock();
        set_num_threads(0);
        assert_eq!(num_threads(), 1);
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
    }

    #[test]
    fn dispatched_regions_emit_pool_spans() {
        let _g = test_lock();
        set_num_threads(4);
        sf_trace::reset();
        sf_trace::enable();
        parallel_for(1 << 10, 1 << 10, |range| {
            // Touch the range so the loop is not optimized away.
            std::hint::black_box(range.len());
        });
        sf_trace::disable();
        let trace = sf_trace::take();
        // Other tests may run concurrently and emit their own pool spans;
        // key on this region's unique item count.
        let region = trace
            .spans("pool")
            .find(|e| e.name == "parallel_for" && e.arg("items") == Some(1024.0))
            .expect("dispatched region must be traced");
        assert_eq!(region.arg("threads"), Some(4.0));
        let tasks: Vec<_> = trace.spans("pool").filter(|e| e.name == "tasks").collect();
        assert!(!tasks.is_empty(), "at least one participant claims chunks");
        let total_chunks: f64 = tasks.iter().filter_map(|e| e.arg("chunks")).sum();
        assert!(total_chunks >= 1.0);
    }

    #[test]
    fn inline_loops_emit_no_spans() {
        let _g = test_lock();
        set_num_threads(4);
        sf_trace::reset();
        sf_trace::enable();
        parallel_for(9, 1, |_| {}); // below SERIAL_THRESHOLD: runs inline
        sf_trace::disable();
        assert!(
            !sf_trace::take()
                .spans("pool")
                .any(|e| e.name == "parallel_for" && e.arg("items") == Some(9.0)),
            "inline loop must not be traced"
        );
    }

    /// Two OS threads run the same kernels at the same moment, as the
    /// trainer's replica threads do every step: one holds `run_lock`, the
    /// other runs its loops inline. Both outputs are bitwise the
    /// one-thread ones.
    #[test]
    fn concurrent_callers_match_the_single_thread_result() {
        use crate::ops::{attention, layernorm};
        use crate::Tensor;

        let _g = test_lock();
        let a = Tensor::randn(&[4, 96, 64], 1);
        let b = Tensor::randn(&[4, 64, 96], 2);
        let x = Tensor::randn(&[2048, 64], 3);
        let gamma = Tensor::randn(&[64], 4).add_scalar(1.0);
        let beta = Tensor::randn(&[64], 5);
        let dy = Tensor::randn(&[2048, 64], 6);
        let q = Tensor::randn(&[4, 4, 64, 16], 7);
        let k = Tensor::randn(&[4, 4, 64, 16], 8);
        let v = Tensor::randn(&[4, 4, 64, 16], 9);
        let bias = Tensor::randn(&[4, 64, 64], 10);
        let kernels = || -> Vec<Vec<u32>> {
            let (_, stats) =
                layernorm::fused_forward(&x, &gamma, &beta, layernorm::LN_EPS).expect("layer norm");
            let (dx, dgamma, dbeta) =
                layernorm::fused_backward(&dy, &x, &gamma, &stats, 64).expect("backward");
            let att = attention::attention_fused(&q, &k, &v, Some(&bias), None, None, 0.25)
                .expect("attention");
            let gemm = a.matmul(&b).expect("gemm");
            [gemm, dx, dgamma, dbeta, att.out]
                .iter()
                .map(|t| t.data().iter().map(|f| f.to_bits()).collect())
                .collect()
        };
        let prev = num_threads();
        set_num_threads(1);
        let want = kernels();
        set_num_threads(2);
        let start = std::sync::Barrier::new(2);
        let got: Vec<_> = thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..4).map(|_| kernels()).collect::<Vec<_>>()
                    })
                })
                .collect();
            callers
                .into_iter()
                .flat_map(|c| c.join().expect("caller thread"))
                .collect()
        });
        set_num_threads(prev);
        for (i, outs) in got.iter().enumerate() {
            assert!(
                outs == &want,
                "run {i}: a concurrent caller's output changed"
            );
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let _g = test_lock();
        set_num_threads(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(1024, SERIAL_THRESHOLD, |range| {
                if range.start == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        parallel_for(1024, SERIAL_THRESHOLD, |_| {});
    }
}
