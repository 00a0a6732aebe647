//! The data pipeline of the paper's Figure 5, with real worker threads —
//! hardened against worker faults. One [`Loader`] runs both pipelines; its
//! [`LoaderKind`] only picks which prepared batch `next()` takes.
//!
//! **Blocking** (PyTorch `DataLoader` semantics): batches are delivered in
//! sampler order, so one slow batch stalls the consumer even when later
//! batches are already prepared.
//!
//! **Non-blocking** (ScaleFold §3.2): prepared batches go into a priority
//! queue keyed by their sampler index, and the consumer takes the
//! *lowest-index ready* batch immediately — best-effort order, every batch
//! delivered exactly once, and a slow batch is simply yielded later.
//!
//! **Fault tolerance** (this crate's fault model): `prepare` runs under
//! `catch_unwind`, a panicking sample is retried up to
//! [`LoaderConfig::max_retries`] times with exponential backoff, and a
//! sample that keeps failing is delivered to the consumer as a typed
//! [`LoaderError`] in sampler order — the pipeline never deadlocks and
//! never silently drops a position. Dropping a loader mid-iteration wakes
//! and joins every worker, panicked or not.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// A source of preparable items (the dataset side of the pipeline).
///
/// `prepare` runs on worker threads and may take wildly varying time — that
/// variance is exactly what the non-blocking pipeline absorbs. `prepare`
/// may also panic (a poisoned sample, a failing storage backend): the
/// loader catches the panic, retries, and surfaces a [`LoaderError`] if the
/// sample never prepares.
pub trait Dataset: Send + Sync + 'static {
    /// The prepared batch type.
    type Item: Send + 'static;

    /// Number of items.
    fn len(&self) -> usize;

    /// True if the dataset has no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Prepares item `index` (expensive; called from worker threads).
    fn prepare(&self, index: usize) -> Self::Item;
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoaderConfig {
    /// Worker threads preparing batches concurrently.
    pub num_workers: usize,
    /// How many times a panicking `prepare` is retried before the sample
    /// is reported failed. `0` fails on the first panic.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub retry_backoff: Duration,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        LoaderConfig {
            num_workers: 4,
            max_retries: 2,
            retry_backoff: Duration::from_millis(5),
        }
    }
}

impl LoaderConfig {
    /// Default fault handling with `num_workers` threads.
    pub fn with_workers(num_workers: usize) -> Self {
        LoaderConfig {
            num_workers,
            ..LoaderConfig::default()
        }
    }
}

/// A data-pipeline fault surfaced to the consumer instead of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoaderError {
    /// `Dataset::prepare(index)` panicked on every attempt.
    PreparePanicked {
        /// The dataset index that failed.
        index: usize,
        /// Total attempts made (1 + retries).
        attempts: u32,
        /// Panic payload of the final attempt, if it was a string.
        message: String,
    },
    /// All workers exited while positions were still undelivered (a
    /// loader-internal invariant violation; reported rather than
    /// deadlocking the consumer).
    WorkersDisconnected {
        /// Sampler position the consumer was waiting on.
        position: usize,
    },
}

impl std::fmt::Display for LoaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoaderError::PreparePanicked {
                index,
                attempts,
                message,
            } => write!(
                f,
                "prepare({index}) panicked on all {attempts} attempts: {message}"
            ),
            LoaderError::WorkersDisconnected { position } => {
                write!(
                    f,
                    "all workers exited before position {position} was prepared"
                )
            }
        }
    }
}

impl std::error::Error for LoaderError {}

enum Slot<T> {
    Ready(T),
    Failed(LoaderError),
}

struct SharedState<T> {
    /// Prepared (or failed) items keyed by *position in sampler order*.
    buffer: BTreeMap<usize, Slot<T>>,
    /// Workers still running; guards the consumer against waiting on a
    /// position nobody will ever produce.
    live_workers: usize,
}

struct Shared<T> {
    state: Mutex<SharedState<T>>,
    ready: Condvar,
    next_fetch: AtomicUsize,
    shutdown: AtomicBool,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, SharedState<T>> {
        // A worker panic outside `catch_unwind` could poison the mutex;
        // the state it guards (a buffer map and a counter) stays
        // consistent across our short critical sections, so keep going.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Decrements `live_workers` and wakes the consumer even if the worker
/// thread unwinds unexpectedly.
struct WorkerExitGuard<T: Send> {
    shared: Arc<Shared<T>>,
}

impl<T: Send> Drop for WorkerExitGuard<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.live_workers -= 1;
        drop(st);
        self.shared.ready.notify_all();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `prepare` under `catch_unwind` with bounded retries and
/// exponential backoff.
fn prepare_with_retries<D: Dataset>(
    dataset: &Arc<D>,
    index: usize,
    cfg: &LoaderConfig,
) -> Result<D::Item, LoaderError> {
    let attempts = cfg.max_retries + 1;
    let mut last_message = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            let backoff = cfg.retry_backoff * 2u32.saturating_pow(attempt - 1);
            std::thread::sleep(backoff);
        }
        match catch_unwind(AssertUnwindSafe(|| dataset.prepare(index))) {
            Ok(item) => return Ok(item),
            Err(payload) => last_message = panic_message(payload.as_ref()),
        }
    }
    Err(LoaderError::PreparePanicked {
        index,
        attempts,
        message: last_message,
    })
}

fn spawn_workers<D: Dataset>(
    dataset: Arc<D>,
    order: Arc<Vec<usize>>,
    shared: Arc<Shared<D::Item>>,
    cfg: LoaderConfig,
) -> Vec<JoinHandle<()>> {
    let num_workers = cfg.num_workers.max(1);
    shared.lock().live_workers = num_workers;
    (0..num_workers)
        .map(|_| {
            let dataset = Arc::clone(&dataset);
            let order = Arc::clone(&order);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let _exit = WorkerExitGuard {
                    shared: Arc::clone(&shared),
                };
                loop {
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let pos = shared.next_fetch.fetch_add(1, Ordering::Relaxed);
                    if pos >= order.len() {
                        return;
                    }
                    let slot = {
                        let _prep = sf_trace::span("loader", "prepare")
                            .arg("index", order[pos] as f64)
                            .arg("position", pos as f64);
                        match prepare_with_retries(&dataset, order[pos], &cfg) {
                            Ok(item) => Slot::Ready(item),
                            Err(e) => Slot::Failed(e),
                        }
                    };
                    let mut st = shared.lock();
                    st.buffer.insert(pos, slot);
                    let depth = st.buffer.len();
                    drop(st);
                    sf_trace::counter("loader.queue_depth", depth as f64);
                    shared.ready.notify_all();
                }
            })
        })
        .collect()
}

/// Which prepared batch [`Loader`] hands out next — the two pipelines of
/// the paper's Figure 5.
///
/// [`LoaderKind::NonBlocking`] is the paper's pipeline (and the default);
/// [`LoaderKind::Blocking`] reproduces PyTorch `DataLoader` semantics and
/// exists so the data-wait claim is measurable as an A/B: under a straggler
/// sample, the blocking loader's trace shows a large `data_wait` share
/// while the non-blocking trace stays near zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoaderKind {
    /// ScaleFold §3.2: deliver the lowest-index *ready* batch immediately.
    #[default]
    NonBlocking,
    /// Strict sampler order: a slow batch stalls the consumer.
    Blocking,
}

/// The threaded data pipeline: workers prepare `order` (a permutation of
/// dataset indices) and `next()` delivers every position exactly once, in
/// the order its [`LoaderKind`] picks.
///
/// Yields `Ok((dataset_index, item))` pairs, or `Err(LoaderError)` for a
/// position whose sample could not be prepared.
pub struct Loader<D: Dataset> {
    shared: Arc<Shared<D::Item>>,
    order: Arc<Vec<usize>>,
    kind: LoaderKind,
    /// Positions delivered so far — under [`LoaderKind::Blocking`], also
    /// the next position to deliver.
    yielded: usize,
    workers: Vec<JoinHandle<()>>,
}

impl<D: Dataset> Loader<D> {
    /// Starts workers preparing `order` (a permutation of dataset indices).
    pub fn new(dataset: Arc<D>, order: Vec<usize>, cfg: LoaderConfig, kind: LoaderKind) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(SharedState {
                buffer: BTreeMap::new(),
                live_workers: 0,
            }),
            ready: Condvar::new(),
            next_fetch: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let order = Arc::new(order);
        let workers = spawn_workers(dataset, Arc::clone(&order), Arc::clone(&shared), cfg);
        Loader {
            shared,
            order,
            kind,
            yielded: 0,
            workers,
        }
    }
}

impl<D: Dataset> Iterator for Loader<D> {
    type Item = Result<(usize, D::Item), LoaderError>;

    fn next(&mut self) -> Option<Self::Item> {
        let want = self.yielded;
        if want >= self.order.len() {
            return None;
        }
        self.yielded += 1;
        // Everything from here until return is consumer time lost to the
        // pipeline — the "data-wait" bucket of the paper's Table 1. With
        // warm non-blocking workers this span is nanoseconds.
        let _wait = sf_trace::span("data_wait", "loader.next").arg("position", want as f64);
        let mut st = self.shared.lock();
        loop {
            let taken = match self.kind {
                // Figure 5 (i): wait for exactly `want`, even if later
                // positions are ready.
                LoaderKind::Blocking => st.buffer.remove_entry(&want),
                // Figure 5 (ii): the lowest-index ready batch, the moment
                // anything is ready.
                LoaderKind::NonBlocking => st.buffer.pop_first(),
            };
            if let Some((pos, slot)) = taken {
                drop(st);
                return Some(match slot {
                    Slot::Ready(item) => Ok((self.order[pos], item)),
                    Slot::Failed(e) => Err(e),
                });
            }
            if st.live_workers == 0 {
                // Every position gets exactly one Ready/Failed slot while
                // workers live; reaching this means the workers are gone.
                // Report instead of deadlocking.
                return Some(Err(LoaderError::WorkersDisconnected { position: want }));
            }
            st = self
                .shared
                .ready
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
    }
}

impl<D: Dataset> Drop for Loader<D> {
    fn drop(&mut self) {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::Release);
        shared.next_fetch.store(usize::MAX, Ordering::Relaxed);
        shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::{Duration, Instant};

    /// Test dataset whose item `i` takes `delays[i]` to prepare.
    struct SleepyDataset {
        delays: Vec<Duration>,
    }

    impl Dataset for SleepyDataset {
        type Item = usize;

        fn len(&self) -> usize {
            self.delays.len()
        }

        fn prepare(&self, index: usize) -> usize {
            std::thread::sleep(self.delays[index]);
            index
        }
    }

    /// Panics on the given index — permanently or only the first `n`
    /// attempts.
    struct PanickyDataset {
        len: usize,
        panic_index: usize,
        panic_attempts: u32,
        attempts: AtomicU32,
    }

    impl PanickyDataset {
        fn permanent(len: usize, panic_index: usize) -> Self {
            PanickyDataset {
                len,
                panic_index,
                panic_attempts: u32::MAX,
                attempts: AtomicU32::new(0),
            }
        }

        fn transient(len: usize, panic_index: usize, attempts: u32) -> Self {
            PanickyDataset {
                len,
                panic_index,
                panic_attempts: attempts,
                attempts: AtomicU32::new(0),
            }
        }
    }

    impl Dataset for PanickyDataset {
        type Item = usize;

        fn len(&self) -> usize {
            self.len
        }

        fn prepare(&self, index: usize) -> usize {
            if index == self.panic_index {
                let seen = self.attempts.fetch_add(1, Ordering::SeqCst);
                if seen < self.panic_attempts {
                    panic!("injected panic on sample {index}");
                }
            }
            index
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Runs `f` on a helper thread and panics if it exceeds `timeout` —
    /// converts a would-be deadlock into a test failure.
    fn with_deadline<T: Send + 'static>(
        timeout: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        let out = rx
            .recv_timeout(timeout)
            .expect("pipeline hung: deadline exceeded");
        h.join().expect("helper thread");
        out
    }

    fn fast_retry_cfg(num_workers: usize) -> LoaderConfig {
        LoaderConfig {
            num_workers,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
        }
    }

    /// Both pipelines, for the tests that must hold for either.
    const KINDS: [LoaderKind; 2] = [LoaderKind::Blocking, LoaderKind::NonBlocking];

    #[test]
    fn blocking_yields_in_exact_order() {
        let d = Arc::new(SleepyDataset {
            delays: vec![ms(30), ms(1), ms(1), ms(1)],
        });
        let loader = Loader::new(
            d,
            vec![0, 1, 2, 3],
            LoaderConfig::with_workers(4),
            LoaderKind::Blocking,
        );
        let got: Vec<usize> = loader.map(|r| r.expect("no faults").0).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn non_blocking_yields_fast_batches_first() {
        // Paper's Figure 5 scenario: batch "b" (position 0 here) is slow;
        // the pipeline must yield the ready batches before it.
        let d = Arc::new(SleepyDataset {
            delays: vec![ms(120), ms(5), ms(5), ms(5)],
        });
        let loader = Loader::new(
            d,
            vec![0, 1, 2, 3],
            LoaderConfig::with_workers(4),
            LoaderKind::NonBlocking,
        );
        let got: Vec<usize> = loader.map(|r| r.expect("no faults").0).collect();
        assert_ne!(got[0], 0, "slow batch must not be yielded first: {got:?}");
        // Exactly-once delivery.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn non_blocking_is_faster_under_straggler() {
        // Consumer "trains" for 10 ms per batch; batch at position 1 takes
        // 80 ms to prepare. Blocking: the consumer stalls on it. Non-
        // blocking: the consumer keeps training on ready batches.
        let delays = vec![ms(5), ms(80), ms(5), ms(5), ms(5), ms(5)];
        let order: Vec<usize> = (0..delays.len()).collect();
        let run = |kind: LoaderKind| -> Duration {
            let d = Arc::new(SleepyDataset {
                delays: delays.clone(),
            });
            let start = Instant::now();
            for r in Loader::new(d, order.clone(), LoaderConfig::with_workers(2), kind) {
                r.expect("no faults");
                std::thread::sleep(ms(10));
            }
            start.elapsed()
        };
        let t_blocking = run(LoaderKind::Blocking);
        let t_nonblocking = run(LoaderKind::NonBlocking);
        assert!(
            t_nonblocking <= t_blocking + ms(5),
            "non-blocking {t_nonblocking:?} vs blocking {t_blocking:?}"
        );
    }

    #[test]
    fn both_loaders_respect_custom_order() {
        let d = Arc::new(SleepyDataset {
            delays: vec![ms(1); 5],
        });
        let order = vec![4, 2, 0, 1, 3];
        let run = |kind| -> Vec<usize> {
            Loader::new(Arc::clone(&d), order.clone(), LoaderConfig::default(), kind)
                .map(|r| r.expect("no faults").0)
                .collect()
        };
        assert_eq!(run(LoaderKind::Blocking), order);

        let mut got = run(LoaderKind::NonBlocking);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_order_yields_nothing() {
        let d = Arc::new(SleepyDataset { delays: vec![] });
        for kind in KINDS {
            let loader = Loader::new(Arc::clone(&d), vec![], LoaderConfig::default(), kind);
            assert_eq!(loader.count(), 0, "{kind:?}");
        }
    }

    #[test]
    fn single_worker_still_completes() {
        let d = Arc::new(SleepyDataset {
            delays: vec![ms(2); 6],
        });
        for kind in KINDS {
            let got: Vec<usize> = Loader::new(
                Arc::clone(&d),
                (0..6).collect(),
                LoaderConfig::with_workers(1),
                kind,
            )
            .map(|r| r.expect("no faults").0)
            .collect();
            assert_eq!(got, (0..6).collect::<Vec<_>>(), "{kind:?}"); // 1 worker => in order
        }
    }

    #[test]
    fn dropping_mid_iteration_joins_workers() {
        let d = Arc::new(SleepyDataset {
            delays: vec![ms(5); 20],
        });
        for kind in KINDS {
            let mut loader = Loader::new(
                Arc::clone(&d),
                (0..20).collect(),
                LoaderConfig::default(),
                kind,
            );
            let _ = loader.next();
            drop(loader); // must not hang or panic
        }
    }

    /// A permanently panicking sample surfaces as one `PreparePanicked`
    /// error after its retries, and every other sample still delivers.
    fn check_panicking_sample_yields_error(kind: LoaderKind) {
        let results = with_deadline(Duration::from_secs(20), move || {
            let d = Arc::new(PanickyDataset::permanent(5, 2));
            Loader::new(d, (0..5).collect(), fast_retry_cfg(2), kind).collect::<Vec<_>>()
        });
        assert_eq!(results.len(), 5, "{kind:?}");
        let got: Vec<usize> = results
            .iter()
            .filter_map(|r| Some(r.as_ref().ok()?.0))
            .collect();
        assert_eq!(got.len(), 4, "{kind:?}");
        assert!(!got.contains(&2), "{kind:?}: {got:?}");
        let errs: Vec<&LoaderError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
        match errs.as_slice() {
            [LoaderError::PreparePanicked {
                index,
                attempts,
                message,
            }] => {
                assert_eq!(*index, 2);
                assert_eq!(*attempts, 3); // 1 try + 2 retries
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("{kind:?}: unexpected errors {other:?}"),
        }
        if kind == LoaderKind::Blocking {
            // Sampler order is kept, so the failure sits at its position.
            assert!(results[2].is_err());
        }
    }

    #[test]
    fn panicking_sample_yields_error_not_hang_blocking() {
        check_panicking_sample_yields_error(LoaderKind::Blocking);
    }

    #[test]
    fn panicking_sample_yields_error_not_hang_nonblocking() {
        check_panicking_sample_yields_error(LoaderKind::NonBlocking);
    }

    #[test]
    fn transient_panic_recovers_via_retry() {
        for kind in KINDS {
            let results = with_deadline(Duration::from_secs(20), move || {
                let d = Arc::new(PanickyDataset::transient(4, 1, 2));
                Loader::new(d, (0..4).collect(), fast_retry_cfg(1), kind).collect::<Vec<_>>()
            });
            // 2 panics < 1 + 2 retries, so every sample eventually delivers.
            assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 4, "{kind:?}");
        }
    }

    #[test]
    fn drop_with_panicked_worker_does_not_hang() {
        for kind in KINDS {
            with_deadline(Duration::from_secs(20), move || {
                let d = Arc::new(PanickyDataset::permanent(20, 0));
                let mut loader = Loader::new(d, (0..20).collect(), fast_retry_cfg(3), kind);
                let _ = loader.next();
                drop(loader);
            });
        }
    }

    #[test]
    fn zero_retries_fails_fast() {
        for kind in KINDS {
            let results = with_deadline(Duration::from_secs(20), move || {
                let d = Arc::new(PanickyDataset::permanent(3, 1));
                let cfg = LoaderConfig {
                    num_workers: 2,
                    max_retries: 0,
                    retry_backoff: Duration::from_millis(1),
                };
                Loader::new(d, (0..3).collect(), cfg, kind).collect::<Vec<_>>()
            });
            let errs: Vec<_> = results.iter().filter(|r| r.is_err()).collect();
            assert_eq!(errs.len(), 1, "{kind:?}");
            assert!(matches!(
                errs[0],
                Err(LoaderError::PreparePanicked { attempts: 1, .. })
            ));
        }
    }
}
