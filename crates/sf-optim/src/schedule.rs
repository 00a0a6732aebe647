//! The AlphaFold learning-rate schedule: linear warm-up, plateau, then a
//! step decay (Jumper et al. supplementary Table 4; OpenFold keeps it).

use serde::{Deserialize, Serialize};

/// Warm-up → plateau → decay learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LrSchedule {
    /// Peak learning rate after warm-up.
    pub peak_lr: f32,
    /// Linear warm-up length in steps (AlphaFold: 1000).
    pub warmup_steps: u64,
    /// Step at which the decay kicks in (AlphaFold: 50k of ~75k initial
    /// training steps).
    pub decay_after: u64,
    /// Multiplicative decay factor applied per decay interval after
    /// `decay_after` (AlphaFold: 0.95).
    pub decay_factor: f32,
    /// Interval (in steps) between decay applications: at step
    /// `decay_after + i * decay_every` the rate becomes
    /// `peak_lr * decay_factor^(i + 1)` — a compounding step decay.
    /// `0` disables compounding (a single decay at `decay_after`, the
    /// pre-fix behaviour).
    #[serde(default = "default_decay_every")]
    pub decay_every: u64,
}

fn default_decay_every() -> u64 {
    50_000
}

impl Default for LrSchedule {
    fn default() -> Self {
        LrSchedule {
            peak_lr: 1e-3,
            warmup_steps: 1000,
            decay_after: 50_000,
            decay_factor: 0.95,
            decay_every: default_decay_every(),
        }
    }
}

impl LrSchedule {
    /// The learning rate at a (0-based) optimizer step.
    pub fn lr_at(&self, step: u64) -> f32 {
        if step < self.warmup_steps {
            self.peak_lr * (step + 1) as f32 / self.warmup_steps.max(1) as f32
        } else if step < self.decay_after {
            self.peak_lr
        } else {
            // Compounding step decay: the factor applies once at
            // `decay_after` and again every `decay_every` steps. The old
            // code applied it exactly once regardless of how far past the
            // threshold training ran.
            let applications = 1
                + (step - self.decay_after)
                    .checked_div(self.decay_every)
                    .unwrap_or(0);
            self.peak_lr
                * self
                    .decay_factor
                    .powi(applications.min(i32::MAX as u64) as i32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_ramps_linearly() {
        let s = LrSchedule::default();
        assert!(s.lr_at(0) < 0.01 * s.peak_lr + 1e-9);
        assert!((s.lr_at(499) - 0.5 * s.peak_lr).abs() < 0.01 * s.peak_lr);
        assert_eq!(s.lr_at(1000), s.peak_lr);
    }

    #[test]
    fn plateau_holds_peak() {
        let s = LrSchedule::default();
        assert_eq!(s.lr_at(10_000), s.peak_lr);
        assert_eq!(s.lr_at(49_999), s.peak_lr);
    }

    #[test]
    fn first_decay_at_threshold_is_unchanged() {
        // Behaviour at `decay_after` itself is pinned to the old value:
        // exactly one application of the factor.
        let s = LrSchedule::default();
        assert!((s.lr_at(50_000) - 0.95 * s.peak_lr).abs() < 1e-9);
        assert!((s.lr_at(99_999) - 0.95 * s.peak_lr).abs() < 1e-9);
    }

    #[test]
    fn decay_compounds_every_interval() {
        let s = LrSchedule {
            decay_every: 10_000,
            ..LrSchedule::default()
        };
        assert!((s.lr_at(50_000) - 0.95 * s.peak_lr).abs() < 1e-9);
        assert!((s.lr_at(59_999) - 0.95 * s.peak_lr).abs() < 1e-9);
        // One interval past the threshold: factor applies a second time.
        // The pre-fix schedule returned 0.95 * peak here.
        assert!((s.lr_at(60_000) - 0.95f32.powi(2) * s.peak_lr).abs() < 1e-9);
        assert!((s.lr_at(80_000) - 0.95f32.powi(4) * s.peak_lr).abs() < 1e-9);
    }

    #[test]
    fn zero_decay_every_is_single_decay() {
        let s = LrSchedule {
            decay_every: 0,
            ..LrSchedule::default()
        };
        assert!((s.lr_at(50_000) - 0.95 * s.peak_lr).abs() < 1e-9);
        assert!((s.lr_at(1_000_000) - 0.95 * s.peak_lr).abs() < 1e-9);
    }

    #[test]
    fn zero_warmup_is_safe() {
        let s = LrSchedule {
            warmup_steps: 0,
            ..LrSchedule::default()
        };
        assert_eq!(s.lr_at(0), s.peak_lr);
    }
}
