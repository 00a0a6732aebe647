//! Deterministic fault injection for the ScaleFold reproduction.
//!
//! At 2080-GPU scale (the paper's headline run) worker stalls, rank
//! failures, and corrupted state are routine, not exceptional. This crate
//! provides the *fault side* of that reality so the rest of the stack can
//! prove it survives it:
//!
//! - [`FaultPlan`]: a declarative, deterministic schedule of faults —
//!   data-worker panics, slow ("straggler") samples, NaN-gradient steps,
//!   checkpoint corruption, and simulated rank failures.
//! - [`FaultInjector`]: a cheap shared handle the stack queries at the
//!   right choke points (`Dataset::prepare`, `Trainer::train_step`,
//!   checkpoint write paths). Every fault that actually fires is recorded
//!   in an event log for post-mortem assertions.
//! - [`FaultyDataset`]: wraps any `sf_data::Dataset` so the scheduled
//!   data-pipeline faults fire inside real worker threads.
//! - [`corrupt`]: byte-level checkpoint corruption helpers (bit flips and
//!   truncation) for crash/corruption drills.
//!
//! Everything is deterministic: the same plan against the same stack
//! produces the same recovery log, which is what makes fault drills
//! assertable in CI.

use sf_data::loader::Dataset;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub mod corrupt;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// `Dataset::prepare(dataset_index)` panics on its first `times`
    /// attempts (use `u32::MAX` for a permanently poisoned sample).
    WorkerPanic {
        /// Dataset index whose preparation panics.
        dataset_index: usize,
        /// Number of attempts that panic before the sample recovers.
        times: u32,
    },
    /// `Dataset::prepare(dataset_index)` sleeps `delay` before returning —
    /// a deterministic straggler.
    SlowSample {
        /// Dataset index to slow down.
        dataset_index: usize,
        /// Added preparation latency.
        delay: Duration,
    },
    /// The gradient of optimizer step `step` (0-based) is poisoned with a
    /// NaN before the update, exercising the trainer's non-finite guard.
    NanGrad {
        /// 0-based optimizer step to poison.
        step: u64,
    },
    /// A simulated rank fails at cluster-simulation step `step`
    /// (consumed by `sf-cluster`'s failure model).
    RankFailure {
        /// Failing rank id.
        rank: usize,
        /// 0-based simulation step of the failure.
        step: u64,
    },
}

/// A deterministic schedule of faults.
///
/// Build one with the `with_*` methods; hand it to a [`FaultInjector`]
/// (and, for rank failures, to `sf-cluster`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// An empty plan (no faults fire; the injector becomes a no-op).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a permanent worker panic on `dataset_index`.
    pub fn with_worker_panic(mut self, dataset_index: usize) -> Self {
        self.faults.push(FaultKind::WorkerPanic {
            dataset_index,
            times: u32::MAX,
        });
        self
    }

    /// Adds a transient worker panic on `dataset_index` that recovers
    /// after `times` panicking attempts.
    pub fn with_transient_worker_panic(mut self, dataset_index: usize, times: u32) -> Self {
        self.faults.push(FaultKind::WorkerPanic {
            dataset_index,
            times,
        });
        self
    }

    /// Adds a deterministic straggler: `prepare(dataset_index)` gains
    /// `delay` of latency.
    pub fn with_slow_sample(mut self, dataset_index: usize, delay: Duration) -> Self {
        self.faults.push(FaultKind::SlowSample {
            dataset_index,
            delay,
        });
        self
    }

    /// Poisons the gradients of optimizer step `step` with a NaN.
    pub fn with_nan_grad(mut self, step: u64) -> Self {
        self.faults.push(FaultKind::NanGrad { step });
        self
    }

    /// Schedules rank `rank` to fail at simulation step `step`.
    pub fn with_rank_failure(mut self, rank: usize, step: u64) -> Self {
        self.faults.push(FaultKind::RankFailure { rank, step });
        self
    }

    /// All scheduled faults.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Scheduled `(step, rank)` failures, for the cluster simulator.
    pub fn rank_failures(&self) -> Vec<(u64, usize)> {
        let mut v: Vec<(u64, usize)> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                FaultKind::RankFailure { rank, step } => Some((*step, *rank)),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }
}

/// A fault that actually fired, for the recovery log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// An injected panic fired in `prepare(dataset_index)`.
    InjectedPanic {
        /// Poisoned dataset index.
        dataset_index: usize,
        /// 1-based attempt number that panicked.
        attempt: u32,
    },
    /// An injected delay fired in `prepare(dataset_index)`.
    InjectedDelay {
        /// Slowed dataset index.
        dataset_index: usize,
        /// The injected latency.
        delay: Duration,
    },
    /// A NaN gradient was injected at optimizer step `step`.
    InjectedNanGrad {
        /// Poisoned step.
        step: u64,
    },
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::InjectedPanic {
                dataset_index,
                attempt,
            } => write!(
                f,
                "injected panic in prepare({dataset_index}) attempt {attempt}"
            ),
            FaultEvent::InjectedDelay {
                dataset_index,
                delay,
            } => write!(f, "injected {delay:?} delay in prepare({dataset_index})"),
            FaultEvent::InjectedNanGrad { step } => {
                write!(f, "injected NaN gradient at step {step}")
            }
        }
    }
}

struct PanicState {
    dataset_index: usize,
    remaining_and_total: (AtomicU32, u32),
}

struct InjectorInner {
    plan: FaultPlan,
    panic_states: Vec<PanicState>,
    log: Mutex<Vec<FaultEvent>>,
}

/// Shared, thread-safe handle that fires the faults of a [`FaultPlan`]
/// at the stack's choke points. Cloning shares state (attempt counters
/// and the event log).
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.inner.plan)
            .finish()
    }
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let panic_states = plan
            .faults
            .iter()
            .filter_map(|f| match f {
                FaultKind::WorkerPanic {
                    dataset_index,
                    times,
                } => Some(PanicState {
                    dataset_index: *dataset_index,
                    remaining_and_total: (AtomicU32::new(*times), *times),
                }),
                _ => None,
            })
            .collect();
        FaultInjector {
            inner: Arc::new(InjectorInner {
                plan,
                panic_states,
                log: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A no-op injector (empty plan).
    pub fn disabled() -> Self {
        FaultInjector::new(FaultPlan::none())
    }

    /// The plan this injector fires.
    pub fn plan(&self) -> &FaultPlan {
        &self.inner.plan
    }

    /// Called from `Dataset::prepare`: sleeps through any scheduled delay,
    /// then panics if this index still has scheduled panic attempts.
    ///
    /// # Panics
    ///
    /// Panics deliberately when a scheduled [`FaultKind::WorkerPanic`]
    /// fires — that is the injected fault.
    pub fn on_prepare(&self, dataset_index: usize) {
        for fault in &self.inner.plan.faults {
            if let FaultKind::SlowSample {
                dataset_index: idx,
                delay,
            } = fault
            {
                if *idx == dataset_index {
                    self.record(FaultEvent::InjectedDelay {
                        dataset_index,
                        delay: *delay,
                    });
                    std::thread::sleep(*delay);
                }
            }
        }
        for state in &self.inner.panic_states {
            if state.dataset_index != dataset_index {
                continue;
            }
            let (remaining, total) = &state.remaining_and_total;
            let prev = remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| r.checked_sub(1))
                .unwrap_or(0);
            if prev > 0 {
                let attempt = if *total == u32::MAX {
                    0
                } else {
                    total - prev + 1
                };
                self.record(FaultEvent::InjectedPanic {
                    dataset_index,
                    attempt,
                });
                panic!("sf-faults: injected panic in prepare({dataset_index})");
            }
        }
    }

    /// Called from the trainer before the optimizer update: returns `true`
    /// exactly when step `step` is scheduled for NaN-gradient poisoning.
    pub fn poison_grads_at(&self, step: u64) -> bool {
        let hit = self
            .inner
            .plan
            .faults
            .iter()
            .any(|f| matches!(f, FaultKind::NanGrad { step: s } if *s == step));
        if hit {
            self.record(FaultEvent::InjectedNanGrad { step });
        }
        hit
    }

    /// Appends `event` to the recovery log.
    pub fn record(&self, event: FaultEvent) {
        self.inner
            .log
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(event);
    }

    /// Everything that fired so far, in firing order.
    pub fn log(&self) -> Vec<FaultEvent> {
        self.inner
            .log
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// Wraps a [`Dataset`] so the injector's data-pipeline faults fire inside
/// the real worker threads of `sf-data`'s loader.
pub struct FaultyDataset<D: Dataset> {
    inner: D,
    injector: FaultInjector,
}

impl<D: Dataset> FaultyDataset<D> {
    /// Wraps `inner` with `injector`.
    pub fn new(inner: D, injector: FaultInjector) -> Self {
        FaultyDataset { inner, injector }
    }
}

impl<D: Dataset> Dataset for FaultyDataset<D> {
    type Item = D::Item;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn prepare(&self, index: usize) -> D::Item {
        self.injector.on_prepare(index);
        self.inner.prepare(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_data::loader::{Loader, LoaderConfig, LoaderError, LoaderKind};

    struct TrivialDataset(usize);

    impl Dataset for TrivialDataset {
        type Item = usize;

        fn len(&self) -> usize {
            self.0
        }

        fn prepare(&self, index: usize) -> usize {
            index * 10
        }
    }

    #[test]
    fn empty_plan_is_transparent() {
        let inj = FaultInjector::disabled();
        let d = FaultyDataset::new(TrivialDataset(3), inj.clone());
        assert_eq!(d.prepare(2), 20);
        assert!(inj.log().is_empty());
    }

    #[test]
    fn permanent_panic_surfaces_as_loader_error() {
        let inj = FaultInjector::new(FaultPlan::none().with_worker_panic(1));
        let d = Arc::new(FaultyDataset::new(TrivialDataset(4), inj.clone()));
        let cfg = LoaderConfig {
            num_workers: 2,
            max_retries: 1,
            retry_backoff: Duration::from_millis(1),
        };
        let results: Vec<_> =
            Loader::new(d, (0..4).collect(), cfg, LoaderKind::NonBlocking).collect();
        let errs: Vec<_> = results.into_iter().filter_map(Result::err).collect();
        assert_eq!(errs.len(), 1);
        assert!(matches!(
            &errs[0],
            LoaderError::PreparePanicked {
                index: 1,
                attempts: 2,
                ..
            }
        ));
        assert!(inj.log().iter().any(|e| matches!(
            e,
            FaultEvent::InjectedPanic {
                dataset_index: 1,
                ..
            }
        )));
    }

    #[test]
    fn transient_panic_recovers_after_scheduled_attempts() {
        let inj = FaultInjector::new(FaultPlan::none().with_transient_worker_panic(0, 2));
        let d = Arc::new(FaultyDataset::new(TrivialDataset(2), inj));
        let cfg = LoaderConfig {
            num_workers: 1,
            max_retries: 3,
            retry_backoff: Duration::from_millis(1),
        };
        let results: Vec<_> =
            Loader::new(d, (0..2).collect(), cfg, LoaderKind::NonBlocking).collect();
        assert!(results.iter().all(Result::is_ok), "{results:?}");
    }

    #[test]
    fn nan_poisoning_fires_exactly_on_scheduled_step() {
        let inj = FaultInjector::new(FaultPlan::none().with_nan_grad(3));
        assert!(!inj.poison_grads_at(2));
        assert!(inj.poison_grads_at(3));
        assert!(!inj.poison_grads_at(4));
        assert_eq!(inj.log(), vec![FaultEvent::InjectedNanGrad { step: 3 }]);
    }

    #[test]
    fn slow_sample_delays_and_logs() {
        let inj =
            FaultInjector::new(FaultPlan::none().with_slow_sample(0, Duration::from_millis(20)));
        let d = FaultyDataset::new(TrivialDataset(1), inj.clone());
        let start = std::time::Instant::now();
        let _ = d.prepare(0);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(inj.log().len(), 1);
    }

    #[test]
    fn rank_failures_sorted_by_step() {
        let plan = FaultPlan::none()
            .with_rank_failure(7, 30)
            .with_rank_failure(2, 10);
        assert_eq!(plan.rank_failures(), vec![(10, 2), (30, 7)]);
    }
}
