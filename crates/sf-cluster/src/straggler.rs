//! Per-rank, per-step random delays: the two straggler sources §3.1 blames
//! for imbalanced communication — the data pipeline (slow batches blocking
//! the default loader) and sporadic background CPU peaks on cluster hosts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sf_data::{PrepTimeModel, SyntheticDataset};

/// Configuration of the straggler injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerModel {
    /// Use the non-blocking priority-queue pipeline (ScaleFold) instead of
    /// the in-order blocking loader (PyTorch default).
    pub non_blocking_pipeline: bool,
    /// Data-pipeline worker processes per rank.
    pub data_workers: usize,
    /// Probability a rank suffers a background CPU peak in a given step.
    pub cpu_peak_prob: f64,
    /// Extra host delay when a CPU peak hits, seconds.
    pub cpu_peak_s: f64,
    /// Python GC enabled (adds periodic pauses; `gc.disable()` removes).
    pub gc_enabled: bool,
    /// GC pause length, seconds, roughly every [`Self::GC_PERIOD`] steps.
    pub gc_pause_s: f64,
}

impl StragglerModel {
    /// Steps between GC pauses when GC is enabled.
    pub const GC_PERIOD: u64 = 8;

    /// The unoptimized baseline: blocking loader, GC on.
    pub fn baseline() -> Self {
        StragglerModel {
            non_blocking_pipeline: false,
            data_workers: 8,
            cpu_peak_prob: 0.03,
            cpu_peak_s: 0.25,
            gc_enabled: true,
            gc_pause_s: 0.12,
        }
    }

    /// The fully-optimized configuration: non-blocking pipeline, GC off.
    pub fn optimized() -> Self {
        StragglerModel {
            non_blocking_pipeline: true,
            data_workers: 8,
            cpu_peak_prob: 0.03,
            cpu_peak_s: 0.25,
            gc_enabled: false,
            gc_pause_s: 0.12,
        }
    }

    /// No stragglers at all (the "global synchronization" ideal used to
    /// quantify imbalance in Figure 3).
    pub fn none() -> Self {
        StragglerModel {
            non_blocking_pipeline: true,
            data_workers: 64,
            cpu_peak_prob: 0.0,
            cpu_peak_s: 0.0,
            gc_enabled: false,
            gc_pause_s: 0.0,
        }
    }

    /// Draws one batch-preparation time from the dataset distribution.
    pub fn sample_prep_s(
        dataset: &SyntheticDataset,
        prep: &PrepTimeModel,
        rng: &mut StdRng,
    ) -> f64 {
        let idx = rng.gen_range(0..dataset.len());
        prep.prep_seconds(&dataset.record(idx))
    }

    /// Host-side delay (CPU peak + GC pause) for one rank at one step.
    pub fn host_delay_s(&self, rng: &mut StdRng, step: u64) -> f64 {
        let _ = step;
        let mut d = 0.0;
        if self.cpu_peak_prob > 0.0 && rng.gen::<f64>() < self.cpu_peak_prob {
            d += self.cpu_peak_s * rng.gen_range(0.5..1.5);
        }
        // Each rank's Python GC fires on its own schedule (roughly every
        // GC_PERIOD steps) — desynchronized, so it creates imbalance.
        if self.gc_enabled && rng.gen::<f64>() < 1.0 / Self::GC_PERIOD as f64 {
            d += self.gc_pause_s;
        }
        d
    }

    /// Deterministic per-rank RNG.
    // (kept below)
    pub fn rank_rng(seed: u64, rank: usize) -> StdRng {
        StdRng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15))
    }
}

/// Persistent per-rank data-pipeline queue state.
///
/// The loader's `data_workers` processes prepare batches concurrently, so
/// each training step contributes `workers × step` seconds of preparation
/// capacity. Preparation demand beyond capacity accumulates as *backlog*.
///
/// - **Blocking** loader (PyTorch default, Figure 5 i): any backlog on the
///   head-of-line batch stalls the consumer; the stall drains the backlog
///   at the worker rate.
/// - **Non-blocking** pipeline (ScaleFold, Figure 5 ii): ready batches are
///   yielded out of order, so backlog only stalls the consumer once it
///   exceeds the whole prefetch window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DataPipeState {
    backlog_s: f64,
}

impl DataPipeState {
    /// Fresh (empty queue) state.
    pub fn new() -> Self {
        DataPipeState::default()
    }

    /// Current backlog (diagnostic).
    pub fn backlog_s(&self) -> f64 {
        self.backlog_s
    }

    /// Advances one step: the loader prepares the next batch (cost
    /// `prep_s`) with `model.data_workers` of parallel capacity over a step
    /// of `step_compute_s`. Returns the consumer stall, in seconds.
    pub fn step(&mut self, model: &StragglerModel, prep_s: f64, step_compute_s: f64) -> f64 {
        let workers = model.data_workers.max(1) as f64;
        let capacity = step_compute_s * workers;
        self.backlog_s = (self.backlog_s + prep_s - capacity).max(0.0);
        let wait = if model.non_blocking_pipeline {
            // Out-of-order delivery: a slow batch parks on one worker while
            // the rest keep feeding the consumer, so the effective
            // reordering window spans the whole prefetch horizon. Only a
            // *sustained* overload (mean prep demand exceeding worker
            // supply) surfaces as waiting.
            let window = 64.0 * capacity;
            ((self.backlog_s - window) / workers).max(0.0)
        } else {
            // In-order delivery: any backlog stalls; the stall itself lets
            // the workers catch up.
            self.backlog_s / workers
        };
        // The stall gives the loader wait x workers seconds of catch-up.
        self.backlog_s = (self.backlog_s - wait * workers).max(0.0);
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SyntheticDataset, PrepTimeModel) {
        (SyntheticDataset::new(5, 500), PrepTimeModel::default())
    }

    #[test]
    fn non_blocking_waits_far_less() {
        let (ds, prep) = setup();
        let steps = 2000;
        let wait = |model: StragglerModel| -> f64 {
            let mut rng = StragglerModel::rank_rng(1, 0);
            let mut pipe = DataPipeState::new();
            (0..steps)
                .map(|_| {
                    let p = StragglerModel::sample_prep_s(&ds, &prep, &mut rng);
                    pipe.step(&model, p, 2.0)
                })
                .sum::<f64>()
        };
        let blocking = wait(StragglerModel::baseline());
        let non_blocking = wait(StragglerModel::optimized());
        assert!(
            non_blocking < 0.35 * blocking + 1e-9,
            "non-blocking {non_blocking:.2}s vs blocking {blocking:.2}s"
        );
    }

    #[test]
    fn blocking_wait_shrinks_with_faster_steps_reversed() {
        // Faster training steps leave less slack: data waits grow — the
        // paper's observation that dataloading matters more as compute
        // optimizations land.
        let (ds, prep) = setup();
        let model = StragglerModel::baseline();
        let total = |step: f64| -> f64 {
            let mut rng = StragglerModel::rank_rng(2, 0);
            let mut pipe = DataPipeState::new();
            (0..2000)
                .map(|_| {
                    let p = StragglerModel::sample_prep_s(&ds, &prep, &mut rng);
                    pipe.step(&model, p, step)
                })
                .sum::<f64>()
        };
        assert!(total(0.5) > total(4.0));
    }

    #[test]
    fn backlog_drains_after_stall() {
        let model = StragglerModel::baseline();
        let mut pipe = DataPipeState::new();
        // One huge batch creates backlog; a stall drains it.
        let w = pipe.step(&model, 100.0, 2.0);
        assert!(w > 0.0);
        assert!(pipe.backlog_s() < 1e-9, "backlog {}", pipe.backlog_s());
        // Subsequent cheap batches: no stall.
        assert_eq!(pipe.step(&model, 0.1, 2.0), 0.0);
    }

    #[test]
    fn non_blocking_window_absorbs_one_slow_batch() {
        let model = StragglerModel::optimized();
        let mut pipe = DataPipeState::new();
        // Even a monster batch is absorbed by out-of-order delivery.
        let w = pipe.step(&model, 100.0, 2.0);
        assert_eq!(w, 0.0);
        // Sustained overload (every batch slower than total worker supply)
        // eventually surfaces.
        let mut stalled = false;
        for _ in 0..2000 {
            stalled |= pipe.step(&model, 40.0, 2.0) > 0.0;
        }
        assert!(stalled);
    }

    #[test]
    fn host_delay_respects_flags() {
        let quiet = StragglerModel::none();
        let mut rng = StragglerModel::rank_rng(3, 1);
        for step in 0..100 {
            assert_eq!(quiet.host_delay_s(&mut rng, step), 0.0);
        }
        let noisy = StragglerModel::baseline();
        let mut rng = StragglerModel::rank_rng(3, 1);
        let total: f64 = (0..200).map(|s| noisy.host_delay_s(&mut rng, s)).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn gc_disable_removes_pauses() {
        let mut with_gc = StragglerModel::baseline();
        with_gc.cpu_peak_prob = 0.0;
        let mut without = with_gc;
        without.gc_enabled = false;
        let run = |m: StragglerModel| -> f64 {
            let mut rng = StragglerModel::rank_rng(4, 2);
            (0..64).map(|s| m.host_delay_s(&mut rng, s)).sum()
        };
        assert!(run(with_gc) > 0.0);
        assert_eq!(run(without), 0.0);
    }

    #[test]
    fn rank_rngs_are_decorrelated_but_deterministic() {
        let mut a1 = StragglerModel::rank_rng(7, 0);
        let mut a2 = StragglerModel::rank_rng(7, 0);
        let mut b = StragglerModel::rank_rng(7, 1);
        let x1: f64 = a1.gen();
        let x2: f64 = a2.gen();
        let y: f64 = b.gen();
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }
}
