//! Failure-aware run-time estimation: what rank failures and checkpoint
//! cadence do to time-to-convergence.
//!
//! At the paper's 2080-GPU scale, hardware failures are a scheduling fact:
//! with a per-rank MTBF of a few years, a multi-hour run across thousands
//! of ranks sees a meaningful probability of losing at least one rank. A
//! failure manifests as a hung NCCL collective (detected after a timeout),
//! followed by a job restart, a checkpoint reload, and replay of every
//! step since the last checkpoint. Checkpointing more often shrinks the
//! replay but pays a per-save stall — the classic trade-off this module
//! quantifies.
//!
//! Two entry points on [`ClusterSim`]:
//!
//! - [`ClusterSim::expected_run_time`]: a closed-form expectation over the
//!   failure process (good for sweeping grids of checkpoint intervals ×
//!   failure rates, see [`ClusterSim::convergence_tradeoff`]).
//! - [`ClusterSim::simulate_with_failures`]: a deterministic sampled run
//!   that consumes the scheduled rank failures of an
//!   `sf_faults::FaultPlan`, for drills with known failure times.

use crate::sim::ClusterSim;
use serde::{Deserialize, Serialize};
use sf_faults::FaultPlan;

/// Failure and recovery cost model for a distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Mean time between failures of a *single* rank, seconds. The job
    /// fails when any rank fails, so the job-level rate scales with rank
    /// count. `f64::INFINITY` disables failures.
    pub rank_mtbf_s: f64,
    /// Time for the healthy ranks to notice a dead peer: the NCCL-style
    /// collective timeout, seconds.
    pub collective_timeout_s: f64,
    /// Scheduler restart + process re-spawn + NCCL re-init, seconds.
    pub restart_s: f64,
    /// Reading and broadcasting the checkpoint on restart, seconds.
    pub ckpt_load_s: f64,
    /// Per-save stall while training writes a checkpoint, seconds.
    pub ckpt_save_s: f64,
}

impl Default for FailureModel {
    /// Plausible large-cluster defaults: 30-year per-rank MTBF (so a
    /// 2080-rank job fails about every 5 days of wall-clock), 10-minute
    /// collective timeout (NCCL's default is 30 min; tuned jobs lower
    /// it), 5-minute restart, 60 s checkpoint load, 20 s checkpoint save.
    fn default() -> Self {
        FailureModel {
            rank_mtbf_s: 30.0 * 365.25 * 24.0 * 3600.0,
            collective_timeout_s: 600.0,
            restart_s: 300.0,
            ckpt_load_s: 60.0,
            ckpt_save_s: 20.0,
        }
    }
}

impl FailureModel {
    /// No failures, free checkpoints — estimates reduce to pure compute.
    pub fn none() -> Self {
        FailureModel {
            rank_mtbf_s: f64::INFINITY,
            collective_timeout_s: 0.0,
            restart_s: 0.0,
            ckpt_load_s: 0.0,
            ckpt_save_s: 0.0,
        }
    }

    /// Probability that *some* rank fails during one step of `step_s`
    /// seconds on `ranks` ranks: `1 - exp(-ranks * step_s / mtbf)`
    /// (independent exponential lifetimes).
    pub fn per_step_failure_prob(&self, ranks: usize, step_s: f64) -> f64 {
        if !self.rank_mtbf_s.is_finite() || self.rank_mtbf_s <= 0.0 {
            return 0.0;
        }
        1.0 - (-(ranks as f64) * step_s / self.rank_mtbf_s).exp()
    }

    /// Fixed cost of one failure before any replay: detection (collective
    /// timeout) + restart + checkpoint load.
    pub fn per_failure_fixed_s(&self) -> f64 {
        self.collective_timeout_s + self.restart_s + self.ckpt_load_s
    }
}

/// Expected wall-clock decomposition of a failure-prone run
/// ([`ClusterSim::expected_run_time`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RunEstimate {
    /// Steps in the run.
    pub steps: u64,
    /// Checkpoint every this many steps.
    pub ckpt_interval: u64,
    /// Mean per-step seconds the estimate was built from.
    pub step_s: f64,
    /// Pure training compute: `steps * step_s`.
    pub compute_s: f64,
    /// Expected number of job failures over the run.
    pub expected_failures: f64,
    /// Expected steps re-executed because they post-dated the last
    /// checkpoint when a failure hit.
    pub expected_replayed_steps: f64,
    /// Total checkpoint-save stall, seconds.
    pub checkpoint_overhead_s: f64,
    /// Detection + restart + reload + replay, seconds (expected).
    pub failure_overhead_s: f64,
    /// Expected end-to-end wall-clock, seconds.
    pub expected_total_s: f64,
}

/// One deterministic failure consumed by
/// [`ClusterSim::simulate_with_failures`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureHit {
    /// Step at which the rank died.
    pub step: u64,
    /// The rank that died.
    pub rank: usize,
    /// Steps replayed from the last checkpoint (includes the failed step).
    pub replayed_steps: u64,
}

/// Result of a sampled failure run.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRun {
    /// End-to-end wall-clock including failures and checkpoints, seconds.
    pub total_s: f64,
    /// Wall-clock of the same run with no failures and no checkpoint
    /// stalls, seconds.
    pub ideal_s: f64,
    /// Checkpoints written.
    pub checkpoint_saves: u64,
    /// Every failure that fired, in step order.
    pub failures: Vec<FailureHit>,
}

/// One cell of [`ClusterSim::convergence_tradeoff`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Checkpoint interval of this cell, steps.
    pub ckpt_interval: u64,
    /// Per-rank MTBF of this cell, seconds.
    pub rank_mtbf_s: f64,
    /// The closed-form estimate at this cell.
    pub estimate: RunEstimate,
}

impl ClusterSim {
    /// Closed-form expected wall-clock of a `steps`-step run that
    /// checkpoints every `ckpt_interval` steps under failure model `fm`,
    /// with the mean step time taken from a short simulated sample.
    ///
    /// See [`ClusterSim::expected_run_time_with_step`] for the model; use
    /// that variant directly to sweep many configurations without
    /// re-simulating the step time.
    pub fn expected_run_time(
        &self,
        steps: u64,
        ckpt_interval: u64,
        fm: &FailureModel,
    ) -> RunEstimate {
        let step_s = self.mean_step_s(steps.clamp(1, 40));
        self.expected_run_time_with_step(step_s, steps, ckpt_interval, fm)
    }

    /// The closed-form model behind [`ClusterSim::expected_run_time`],
    /// parameterized by a fixed per-step time.
    ///
    /// - Each step fails with probability `p = 1 - exp(-ranks·t/mtbf)`,
    ///   so the run expects `steps · p` failures (first-order: failures
    ///   during replayed work are folded into the same rate).
    /// - A failure costs detection (collective timeout) + restart +
    ///   checkpoint load, plus replay of the steps since the last
    ///   checkpoint — on average `(k-1)/2` completed steps for interval
    ///   `k`, plus re-running the failed step itself.
    /// - Checkpoint saves stall training `ckpt_save_s` each, every
    ///   `ckpt_interval` steps.
    pub fn expected_run_time_with_step(
        &self,
        step_s: f64,
        steps: u64,
        ckpt_interval: u64,
        fm: &FailureModel,
    ) -> RunEstimate {
        let interval = ckpt_interval.max(1);
        let ranks = self.config().total_ranks();
        let p = fm.per_step_failure_prob(ranks, step_s);
        let compute_s = steps as f64 * step_s;
        let saves = steps / interval;
        let checkpoint_overhead_s = saves as f64 * fm.ckpt_save_s;
        let expected_failures = steps as f64 * p;
        let replay_per_failure = (interval as f64 - 1.0) / 2.0 + 1.0;
        let expected_replayed_steps = expected_failures * replay_per_failure;
        let failure_overhead_s =
            expected_failures * fm.per_failure_fixed_s() + expected_replayed_steps * step_s;
        RunEstimate {
            steps,
            ckpt_interval: interval,
            step_s,
            compute_s,
            expected_failures,
            expected_replayed_steps,
            checkpoint_overhead_s,
            failure_overhead_s,
            expected_total_s: compute_s + checkpoint_overhead_s + failure_overhead_s,
        }
    }

    /// Sweeps the checkpoint-interval × failure-rate grid: every
    /// combination of `intervals` and `rank_mtbfs_s` (other recovery
    /// costs taken from `fm`), with the step time simulated once and
    /// shared across cells. Row-major: intervals outer, MTBFs inner.
    pub fn convergence_tradeoff(
        &self,
        steps: u64,
        intervals: &[u64],
        rank_mtbfs_s: &[f64],
        fm: &FailureModel,
    ) -> Vec<TradeoffPoint> {
        let step_s = self.mean_step_s(steps.clamp(1, 40));
        let mut grid = Vec::with_capacity(intervals.len() * rank_mtbfs_s.len());
        for &interval in intervals {
            for &mtbf in rank_mtbfs_s {
                let cell = FailureModel {
                    rank_mtbf_s: mtbf,
                    ..*fm
                };
                grid.push(TradeoffPoint {
                    ckpt_interval: interval,
                    rank_mtbf_s: mtbf,
                    estimate: self.expected_run_time_with_step(step_s, steps, interval, &cell),
                });
            }
        }
        grid
    }

    /// Deterministic failure drill: runs the per-step simulation and
    /// injects the rank failures scheduled in `plan`
    /// (`FaultPlan::with_rank_failure`). Each failure at step `s` costs
    /// detection + restart + reload (from `fm`) plus replay of every step
    /// since the last checkpoint, including `s` itself; checkpoints are
    /// written every `ckpt_interval` steps at `fm.ckpt_save_s` each.
    pub fn simulate_with_failures(
        &self,
        steps: u64,
        ckpt_interval: u64,
        fm: &FailureModel,
        plan: &FaultPlan,
    ) -> FailureRun {
        let interval = ckpt_interval.max(1);
        let breakdowns = self.simulate(steps);
        let scheduled = plan.rank_failures();
        let mut total_s = 0.0f64;
        let mut ideal_s = 0.0f64;
        let mut checkpoint_saves = 0u64;
        let mut last_ckpt_step = 0u64; // first step not yet checkpointed
        let mut replay_buffer_s = 0.0f64; // step time since last checkpoint
        let mut failures = Vec::new();
        for (i, b) in breakdowns.iter().enumerate() {
            let step = i as u64;
            ideal_s += b.total_s;
            for &(s, rank) in &scheduled {
                if s != step {
                    continue;
                }
                // The step was in flight when the rank died: its partial
                // work plus everything since the last checkpoint is lost
                // and re-executed after recovery.
                let replayed = step - last_ckpt_step + 1;
                total_s += fm.per_failure_fixed_s() + replay_buffer_s + b.total_s;
                failures.push(FailureHit {
                    step,
                    rank,
                    replayed_steps: replayed,
                });
            }
            total_s += b.total_s;
            replay_buffer_s += b.total_s;
            if (step + 1).is_multiple_of(interval) {
                checkpoint_saves += 1;
                total_s += fm.ckpt_save_s;
                last_ckpt_step = step + 1;
                replay_buffer_s = 0.0;
            }
        }
        FailureRun {
            total_s,
            ideal_s,
            checkpoint_saves,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ClusterConfig;
    use sf_model::ModelConfig;
    use sf_opgraph::builder::StepGraph;

    fn sim() -> ClusterSim {
        let g = StepGraph::reference(&ModelConfig::paper(), 1);
        ClusterSim::new(&g, ClusterConfig::eos(8, 2))
    }

    #[test]
    fn no_failures_means_pure_compute() {
        let s = sim();
        let est = s.expected_run_time_with_step(1.0, 100, 10, &FailureModel::none());
        assert_eq!(est.expected_failures, 0.0);
        assert_eq!(est.failure_overhead_s, 0.0);
        assert_eq!(est.checkpoint_overhead_s, 0.0);
        assert_eq!(est.expected_total_s, 100.0);
    }

    #[test]
    fn per_step_prob_scales_with_ranks_and_step_time() {
        let fm = FailureModel {
            rank_mtbf_s: 1_000_000.0,
            ..FailureModel::default()
        };
        let p1 = fm.per_step_failure_prob(100, 1.0);
        assert!(p1 > 0.0 && p1 < 1.0);
        assert!(
            fm.per_step_failure_prob(200, 1.0) > p1,
            "more ranks, more risk"
        );
        assert!(
            fm.per_step_failure_prob(100, 2.0) > p1,
            "longer steps, more risk"
        );
        assert_eq!(
            FailureModel::none().per_step_failure_prob(10_000, 10.0),
            0.0
        );
    }

    #[test]
    fn more_failures_never_speed_up_convergence() {
        let s = sim();
        let fm = FailureModel::default();
        let mut last = f64::NEG_INFINITY;
        // Sweep failure rate upward (MTBF downward): expected time must
        // be non-decreasing.
        for mtbf in [f64::INFINITY, 1e9, 1e7, 1e5, 1e3] {
            let cell = FailureModel {
                rank_mtbf_s: mtbf,
                ..fm
            };
            let est = s.expected_run_time_with_step(1.0, 1000, 50, &cell);
            assert!(
                est.expected_total_s >= last,
                "mtbf {mtbf:e}: {} < {last}",
                est.expected_total_s
            );
            last = est.expected_total_s;
        }
    }

    #[test]
    fn sparser_checkpoints_never_speed_up_convergence_at_free_saves() {
        // With a free save, sparser checkpointing only grows the replay
        // tail: expected time is non-decreasing in the interval.
        let s = sim();
        let fm = FailureModel {
            rank_mtbf_s: 1e6,
            ckpt_save_s: 0.0,
            ..FailureModel::default()
        };
        let mut last = f64::NEG_INFINITY;
        for interval in [1u64, 5, 25, 125, 1000] {
            let est = s.expected_run_time_with_step(1.0, 1000, interval, &fm);
            assert!(
                est.expected_total_s >= last,
                "interval {interval}: {} < {last}",
                est.expected_total_s
            );
            last = est.expected_total_s;
        }
    }

    #[test]
    fn costly_saves_make_interval_tradeoff_u_shaped() {
        // With a real save cost the curve has an interior optimum: the
        // densest and the sparsest cadence are both beaten by a middle one.
        // MTBF 1e4 s on 16 ranks ≈ 1.6 expected failures over the run, so
        // the sparse cadence pays ~2300 s of replay while the dense one
        // pays 30 000 s of saves; interval 50 beats both.
        let s = sim();
        let fm = FailureModel {
            rank_mtbf_s: 1e4,
            ckpt_save_s: 30.0,
            ..FailureModel::default()
        };
        let totals: Vec<f64> = [1u64, 50, 1000]
            .iter()
            .map(|&k| {
                s.expected_run_time_with_step(1.0, 1000, k, &fm)
                    .expected_total_s
            })
            .collect();
        assert!(
            totals[1] < totals[0],
            "mid {} vs dense {}",
            totals[1],
            totals[0]
        );
        assert!(
            totals[1] < totals[2],
            "mid {} vs sparse {}",
            totals[1],
            totals[2]
        );
    }

    #[test]
    fn tradeoff_grid_covers_all_cells() {
        let s = sim();
        let grid = s.convergence_tradeoff(
            200,
            &[10, 50, 200],
            &[1e9, 1e7, 1e5],
            &FailureModel::default(),
        );
        assert_eq!(grid.len(), 9);
        // Same step time everywhere; each cell reflects its own knobs.
        assert!(grid
            .windows(2)
            .all(|w| w[0].estimate.step_s == w[1].estimate.step_s));
        for p in &grid {
            assert_eq!(p.estimate.ckpt_interval, p.ckpt_interval);
            assert!(p.estimate.expected_total_s >= p.estimate.compute_s);
        }
    }

    #[test]
    fn sampled_run_charges_scheduled_failures() {
        let s = sim();
        let fm = FailureModel {
            rank_mtbf_s: f64::INFINITY,
            collective_timeout_s: 10.0,
            restart_s: 5.0,
            ckpt_load_s: 2.0,
            ckpt_save_s: 1.0,
        };
        let clean = s.simulate_with_failures(20, 5, &fm, &FaultPlan::none());
        assert!(clean.failures.is_empty());
        assert_eq!(clean.checkpoint_saves, 4);
        assert!(clean.total_s > clean.ideal_s, "saves cost time");

        let plan = FaultPlan::none().with_rank_failure(3, 12);
        let faulty = s.simulate_with_failures(20, 5, &fm, &plan);
        assert_eq!(faulty.failures.len(), 1);
        let hit = faulty.failures[0];
        assert_eq!((hit.step, hit.rank), (12, 3));
        // Last checkpoint before step 12 was after step 9: replay 10,11,12.
        assert_eq!(hit.replayed_steps, 3);
        assert!(
            faulty.total_s > clean.total_s + fm.per_failure_fixed_s(),
            "failure must cost at least detection+restart+reload"
        );
        // Deterministic: same plan, same bill.
        assert_eq!(faulty, s.simulate_with_failures(20, 5, &fm, &plan));
    }
}
