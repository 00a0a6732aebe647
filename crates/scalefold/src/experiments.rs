//! One runner per table/figure of the paper's evaluation. Each returns a
//! plain data structure with a `Display` that prints rows the way the paper
//! reports them; the `sf-bench` binaries wrap these.

use crate::convergence::{ConvergenceModel, CurvePoint, PretrainSchedule};
use crate::ladder::{dap8_without_cuda_graph, ladder_stages, LadderEntry};
use crate::optimizations::{build_graph, OptimizationSet};
use serde::{Deserialize, Serialize};
use sf_cluster::{EvalConfig, ScalabilityBreakdown, TrainTimeline};
use sf_data::{PrepTimeModel, SyntheticDataset};
use sf_gpusim::{CpuModel, DeviceSpec};
use sf_model::ModelConfig;
use sf_opgraph::profile::{ModuleProfile, Table1};
use std::fmt;

// ----------------------------------------------------------------------
// Table 1
// ----------------------------------------------------------------------

/// Table 1: kernel-class breakdown of the reference training step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Result {
    /// The classification/runtime rows.
    pub table: Table1,
    /// The §2.2 per-pattern profile (Evoformer/MHA/LN/optimizer shares).
    pub profile: ModuleProfile,
    /// Reference step time on A100, seconds.
    pub a100_step_s: f64,
}

/// Runs the Table-1 experiment.
pub fn table1() -> Table1Result {
    let cfg = ModelConfig::paper();
    // Profile at the paper's conditions: full recycling (3 warm forwards)
    // with OpenFold's gradient checkpointing.
    let g = sf_opgraph::builder::StepGraph::reference_checkpointed(&cfg, 3);
    let dev = DeviceSpec::a100();
    let table = Table1::compute(&g, &dev, CpuModel::healthy());
    let profile = ModuleProfile::compute(&g, &dev);
    let a100_step_s = sf_opgraph::profile::step_time(&g, &dev, CpuModel::healthy(), false).total_s;
    Table1Result {
        table,
        profile,
        a100_step_s,
    }
}

impl fmt::Display for Table1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1: kernel breakdown (A100 reference, {:.2} s/step)",
            self.a100_step_s
        )?;
        writeln!(
            f,
            "{:<18} {:>11} {:>9}",
            "Kernel type", "Runtime (%)", "#Calls"
        )?;
        writeln!(
            f,
            "{:<18} {:>11.2} {:>9}",
            "CPU Overhead", self.table.cpu_overhead_pct, "-"
        )?;
        writeln!(
            f,
            "{:<18} {:>11.2} {:>9}",
            "Math-bounded", self.table.math_pct, self.table.math_calls
        )?;
        writeln!(
            f,
            "{:<18} {:>11.2} {:>9}",
            "Memory-bounded", self.table.memory_pct, self.table.memory_calls
        )?;
        writeln!(
            f,
            "{:<18} {:>11.2} {:>9}",
            "Memory-operation", self.table.memop_pct, self.table.memop_calls
        )?;
        writeln!(f, "(paper: 9.10/- , 24.06/18147, 65.03/97749, 1.82/34991)")?;
        writeln!(f)?;
        writeln!(f, "S2.2 pattern profile (% of GPU busy time):")?;
        writeln!(
            f,
            "  Evoformer {:.1}%  MHA {:.1}%  LayerNorm {:.1}%",
            self.profile.evoformer_pct, self.profile.mha_pct, self.profile.layernorm_pct
        )?;
        writeln!(
            f,
            "  Adam {:.1}%  SWA {:.1}%  grad-clip {:.1}%  structure {:.1}%",
            self.profile.adam_pct,
            self.profile.swa_pct,
            self.profile.grad_clip_pct,
            self.profile.structure_pct
        )?;
        writeln!(
            f,
            "(paper: Evoformer 72, MHA 34, LN 14, Adam 6, SWA 6, clip 3)"
        )
    }
}

// ----------------------------------------------------------------------
// Figure 3
// ----------------------------------------------------------------------

/// Figure 3: the scalability-barrier decomposition for DAP-2/4/8.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Rows for DAP 2, 4, 8.
    pub rows: Vec<ScalabilityBreakdown>,
    /// Baseline DAP speedups vs DAP-1 (paper: 1.42x / 1.57x / ~1.57x).
    pub speedups: Vec<(usize, f64)>,
}

/// Runs the Figure-3 experiment.
pub fn fig3() -> Fig3Result {
    let cfg = ModelConfig::paper();
    let g = build_graph(&cfg, &OptimizationSet::none());
    let rows: Vec<ScalabilityBreakdown> = [2usize, 4, 8]
        .iter()
        .map(|&dap| ScalabilityBreakdown::compute(&g, 128, dap))
        .collect();
    let step = |dap| {
        OptimizationSet {
            dap,
            ..OptimizationSet::none()
        }
        .step_s(&cfg, DeviceSpec::h100(), 128)
    };
    let t1 = step(1);
    let speedups = [2usize, 4, 8]
        .iter()
        .map(|&dap| (dap, t1 / step(dap)))
        .collect();
    Fig3Result { rows, speedups }
}

impl fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 3: scalability-barrier breakdown (seconds/step)")?;
        writeln!(
            f,
            "{:<7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "DAP", "actual", "ideal", "cpu", "serial", "kernel", "comm", "imbal"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<7} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                format!("DAP-{}", r.dap),
                r.actual_s,
                r.ideal_s,
                r.cpu_overhead_s,
                r.serial_modules_s,
                r.kernel_scalability_s,
                r.comm_overhead_s,
                r.imbalance_s
            )?;
        }
        writeln!(
            f,
            "baseline DAP speedups vs DAP-1 (paper: 1.42 / 1.57 / ~1.57):"
        )?;
        for (dap, s) in &self.speedups {
            writeln!(f, "  DAP-{dap}: {s:.2}x")?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Figure 4
// ----------------------------------------------------------------------

/// Figure 4: sorted batch-preparation times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Sorted prep times, seconds.
    pub sorted_s: Vec<f64>,
    /// Fraction of batches slower than one (reference) training step.
    pub slow_fraction: f64,
}

/// Runs the Figure-4 experiment over `n` samples.
pub fn fig4(n: usize) -> Fig4Result {
    let ds = SyntheticDataset::new(0xF164, n);
    let prep = PrepTimeModel::default();
    let sorted_s = prep.sorted_prep_times(&ds, n);
    let slow_fraction = prep.slow_fraction(&ds, n, 2.0);
    Fig4Result {
        sorted_s,
        slow_fraction,
    }
}

impl fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4: sorted batch preparation time ({} samples)",
            self.sorted_s.len()
        )?;
        let n = self.sorted_s.len();
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let idx = ((n - 1) as f64 * q) as usize;
            writeln!(
                f,
                "  p{:<4} {:>9.3} s",
                (q * 100.0) as u32,
                self.sorted_s[idx]
            )?;
        }
        writeln!(
            f,
            "slow (>1 training step of 2 s): {:.1}% of batches (paper: ~10%)",
            100.0 * self.slow_fraction
        )
    }
}

// ----------------------------------------------------------------------
// Figure 7
// ----------------------------------------------------------------------

/// Figure 7: step-time comparison vs the published baselines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Result {
    /// (label, step seconds) on A100.
    pub a100: Vec<(String, f64)>,
    /// (label, step seconds) for ScaleFold DAP-n on H100.
    pub h100: Vec<(String, f64)>,
}

/// Runs the Figure-7 experiment.
pub fn fig7() -> Fig7Result {
    let cfg = ModelConfig::paper();
    let a100 = [
        ("OpenFold (no DAP)", OptimizationSet::openfold()),
        ("FastFold DAP-2", OptimizationSet::fastfold(2)),
        ("ScaleFold DAP-2", OptimizationSet::scalefold_dap(2)),
    ]
    .into_iter()
    .map(|(name, opts)| (name.to_string(), opts.step_s(&cfg, DeviceSpec::a100(), 128)))
    .collect();
    let h100 = [1usize, 2, 4, 8]
        .iter()
        .map(|&dap| {
            (
                format!("ScaleFold DAP-{dap}"),
                OptimizationSet::scalefold_dap(dap).step_s(&cfg, DeviceSpec::h100(), 128),
            )
        })
        .collect();
    Fig7Result { a100, h100 }
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 7: step time, batch size 128")?;
        writeln!(
            f,
            "A100 (paper: OpenFold 6.19 s, FastFold DAP-2 2.49 s, ScaleFold DAP-2 1.88 s):"
        )?;
        for (name, t) in &self.a100 {
            writeln!(f, "  {name:<22} {t:>6.2} s")?;
        }
        writeln!(
            f,
            "H100 (paper: DAP-1/2/4/8 = 1.80 / 1.12 / 0.75 / 0.65 s):"
        )?;
        let base = self.h100.first().map(|x| x.1).unwrap_or(1.0);
        for (name, t) in &self.h100 {
            writeln!(f, "  {name:<22} {t:>6.2} s  ({:.2}x)", base / t)?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Figure 8
// ----------------------------------------------------------------------

/// Figure 8: the cumulative optimization ladder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Result {
    /// Ladder rows.
    pub entries: Vec<LadderEntry>,
    /// (DAP-8 without CUDA graph, with CUDA graph) H100 step seconds — the
    /// paper's 1.52x-vs-1.79x counterfactual.
    pub dap8_graph_ablation: (f64, f64),
}

/// Runs the Figure-8 experiment.
pub fn fig8() -> Fig8Result {
    let cfg = ModelConfig::paper();
    Fig8Result {
        entries: ladder_stages(&cfg),
        dap8_graph_ablation: dap8_without_cuda_graph(&cfg),
    }
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 8: step-by-step optimization ladder (cumulative)")?;
        writeln!(
            f,
            "{:<36} {:>9} {:>9} {:>8} {:>8}",
            "stage", "A100 (s)", "H100 (s)", "A100 x", "H100 x"
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "{:<36} {:>9.2} {:>9.2} {:>8.2} {:>8.2}",
                e.name, e.a100_step_s, e.h100_step_s, e.a100_speedup, e.h100_speedup
            )?;
        }
        let (without, with) = self.dap8_graph_ablation;
        writeln!(
            f,
            "DAP-8 ablation: without CUDA graph {without:.2} s, with {with:.2} s (paper: 1.52x vs 1.79x stage speedup)"
        )?;
        writeln!(f, "(paper final: ~6.2x on H100)")
    }
}

// ----------------------------------------------------------------------
// Figure 9 / 10: time to train (MLPerf setting)
// ----------------------------------------------------------------------

/// Figures 9 & 10: MLPerf time-to-train with and without async eval, and
/// the reference-vs-ScaleFold comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TtTResult {
    /// ScaleFold with async evaluation (the 7.51-minute configuration).
    pub scalefold_async_s: f64,
    /// ScaleFold with synchronous evaluation (paper: ~11 minutes).
    pub scalefold_sync_s: f64,
    /// Reference model on 256 H100 (paper: ~6x slower).
    pub reference_s: f64,
    /// Init / train / eval split of the async configuration.
    pub async_breakdown: (f64, f64, f64),
    /// Evaluation share before/after step-time optimization (paper:
    /// 22% -> 43%) under synchronous eval.
    pub eval_share_before_after: (f64, f64),
}

/// Runs the MLPerf time-to-train experiment (Figures 9 and 10).
pub fn fig9_fig10() -> TtTResult {
    let cfg = ModelConfig::paper();
    let conv = ConvergenceModel::default();
    // MLPerf partial convergence: from a checkpoint at lDDT ~0.78 to 0.8,
    // global batch 256.
    let start = conv.samples_to(0.78, 256).expect("below asymptote");
    let steps = conv.steps_to(start, 0.80, 256).expect("reachable");

    // ScaleFold on 2048 training GPUs: DP 256 x DAP-8.
    let sf_step = OptimizationSet::scalefold_dap(8).step_s(&cfg, DeviceSpec::h100(), 256);

    // Reference on 256 H100: OpenFold at DP 256, eager, bf16, blocking
    // loader.
    let ref_step = OptimizationSet::openfold().step_s(&cfg, DeviceSpec::h100(), 256);

    // Initialization derived from mechanism: compile + 4 recycling-shape
    // graph captures (at roughly the reference eager step) + NCCL init.
    let init_s = sf_cluster::eval::init_time_s(ref_step, 4, 2080);
    let timeline = |step_s: f64, eval: EvalConfig| TrainTimeline {
        init_s,
        steps,
        step_s,
        eval,
    };
    let sf_async = timeline(sf_step, EvalConfig::scalefold_async()).time_to_train();
    let sf_sync = timeline(sf_step, EvalConfig::mlperf_sync()).time_to_train();
    let reference = timeline(ref_step, EvalConfig::mlperf_sync()).time_to_train();

    let before = timeline(ref_step, EvalConfig::mlperf_sync()).eval_fraction();
    let after = timeline(sf_step, EvalConfig::mlperf_sync()).eval_fraction();

    TtTResult {
        scalefold_async_s: sf_async.total_s,
        scalefold_sync_s: sf_sync.total_s,
        reference_s: reference.total_s,
        async_breakdown: (sf_async.init_s, sf_async.train_s, sf_async.eval_s),
        eval_share_before_after: (before, after),
    }
}

impl fmt::Display for TtTResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figures 9 & 10: MLPerf HPC v3.0 time-to-train (from checkpoint, batch 256)"
        )?;
        writeln!(
            f,
            "  ScaleFold + async eval : {:>7.1} min (paper: 7.51 min on 2080 H100)",
            self.scalefold_async_s / 60.0
        )?;
        writeln!(
            f,
            "  ScaleFold, sync eval   : {:>7.1} min (paper: ~11 min)",
            self.scalefold_sync_s / 60.0
        )?;
        writeln!(
            f,
            "  Reference (256 H100)   : {:>7.1} min",
            self.reference_s / 60.0
        )?;
        writeln!(
            f,
            "  speedup vs reference   : {:>7.1}x (paper: 6x)",
            self.reference_s / self.scalefold_async_s
        )?;
        let (i, t, e) = self.async_breakdown;
        writeln!(
            f,
            "  async breakdown: init {:.1} min, train {:.1} min, eval-block {:.1} min",
            i / 60.0,
            t / 60.0,
            e / 60.0
        )?;
        let (b, a) = self.eval_share_before_after;
        writeln!(
            f,
            "  sync eval share grows {:.0}% -> {:.0}% as steps shrink (paper: 22% -> 43%)",
            b * 100.0,
            a * 100.0
        )
    }
}

// ----------------------------------------------------------------------
// Figure 11: pretraining from scratch
// ----------------------------------------------------------------------

/// Figure 11: from-scratch pretraining curve and total time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Result {
    /// lDDT-Cα vs step curve.
    pub curve: Vec<CurvePoint>,
    /// Steps to 0.9 lDDT (paper: 50k–60k).
    pub steps_to_target: u64,
    /// Total wall-clock hours (paper: < 10 h).
    pub total_hours: f64,
    /// Phase step times: (phase-1 on 1024 training GPUs, phase-2 on 2048).
    pub phase_step_s: (f64, f64),
}

/// Runs the Figure-11 experiment.
pub fn fig11() -> Fig11Result {
    let cfg = ModelConfig::paper();
    let conv = ConvergenceModel::default();
    let schedule = PretrainSchedule::default();
    let curve = schedule.curve(&conv, 1000, 200_000);
    let steps_to_target = schedule.steps_to_target(&conv);

    // Phase 1: 1056 H100 (1024 training = DP 128 x DAP-8), batch 128.
    let p1_step = OptimizationSet::scalefold_dap(8).step_s(&cfg, DeviceSpec::h100(), 128);
    let p2_step = phase2_step_s(&cfg);

    let p1_s = schedule.phase1_steps as f64 * p1_step;
    let p2_steps = steps_to_target.saturating_sub(schedule.phase1_steps);
    let p2_s = p2_steps as f64 * p2_step;
    let init_s = sf_cluster::eval::init_time_s(4.0, 4, 2080);
    let total_hours = (init_s + p1_s + p2_s) / 3600.0;

    Fig11Result {
        curve,
        steps_to_target,
        total_hours,
        phase_step_s: (p1_step, p2_step),
    }
}

/// Figure 11's phase-2 step: 2080 H100 (2048 training = DP 256 x DAP-8),
/// batch 256, Triton MHA disabled per the paper ("disable Triton mha
/// kernel") — costed by rebuilding without that one fusion.
fn phase2_step_s(cfg: &ModelConfig) -> f64 {
    OptimizationSet {
        triton_mha: false,
        ..OptimizationSet::scalefold_dap(8)
    }
    .step_s(cfg, DeviceSpec::h100(), 256)
}

impl fmt::Display for Fig11Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 11: AlphaFold pretraining from scratch")?;
        writeln!(
            f,
            "  phase 1 (bs 128, 1056 H100): step {:.2} s",
            self.phase_step_s.0
        )?;
        writeln!(
            f,
            "  phase 2 (bs 256, 2080 H100): step {:.2} s",
            self.phase_step_s.1
        )?;
        writeln!(
            f,
            "  steps to 0.9 avg_lddt_ca: {} (paper: 50k-60k)",
            self.steps_to_target
        )?;
        writeln!(
            f,
            "  total: {:.1} h (paper: < 10 h; original AlphaFold: ~7 days)",
            self.total_hours
        )?;
        writeln!(f, "  curve (every 5k steps):")?;
        for p in self.curve.iter().step_by(5) {
            writeln!(f, "    step {:>6}  lddt {:.3}", p.step, p.lddt)?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Extension: the fine-tuning phase (beyond the paper's scope)
// ----------------------------------------------------------------------

/// Extension result: what ScaleFold's optimizations imply for the
/// fine-tuning phase the paper leaves unoptimized (original AlphaFold:
/// ~4 additional days).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FinetuneResult {
    /// Steps needed at crop 384 / batch 128.
    pub steps: u64,
    /// Per-step time at the larger crop, seconds.
    pub step_s: f64,
    /// Total fine-tuning hours.
    pub hours: f64,
}

/// Runs the fine-tuning extension estimate.
pub fn finetune_extension() -> FinetuneResult {
    let conv = ConvergenceModel::default();
    let ext = crate::convergence::FinetuneExtension::default();
    let start = conv
        .samples_to(0.9, 256)
        .expect("initial training endpoint");
    let steps = ext.steps_from(&conv, start).expect("reachable");
    // ScaleFold's optimized phase-2 step at crop 256 (Figure 11) scaled by
    // the crop multiplier.
    let step_s = phase2_step_s(&ModelConfig::paper()) * ext.step_multiplier();
    FinetuneResult {
        steps,
        step_s,
        hours: steps as f64 * step_s / 3600.0,
    }
}

impl fmt::Display for FinetuneResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extension: fine-tuning phase (crop 384, beyond the paper's scope)"
        )?;
        writeln!(
            f,
            "  steps: {}  step: {:.2} s  total: {:.1} h",
            self.steps, self.step_s, self.hours
        )?;
        writeln!(
            f,
            "  (original AlphaFold fine-tuning: ~4 days; ScaleFold-style optimizations"
        )?;
        writeln!(
            f,
            "   would compress it to hours, same as the initial phase)"
        )
    }
}

// ----------------------------------------------------------------------
// Scaling (the abstract's headline claim)
// ----------------------------------------------------------------------

/// One point of the strong-scaling sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// System label.
    pub system: String,
    /// Total training GPUs.
    pub gpus: usize,
    /// DP × DAP decomposition.
    pub dp: usize,
    /// DAP degree.
    pub dap: usize,
    /// Throughput in samples per second.
    pub samples_per_s: f64,
    /// Scaling efficiency vs the system's smallest configuration.
    pub efficiency: f64,
}

/// The headline scalability claim: ScaleFold reaches 2048 training GPUs
/// (DP 256 × DAP-8) where data-parallel-only training is capped at 256
/// GPUs by the batch-size convergence limit and FastFold stopped at 512.
pub fn scaling() -> Vec<ScalingPoint> {
    let cfg = ModelConfig::paper();
    // OpenFold: DP only; the batch limit (256) caps the GPU count.
    // FastFold: DAP-2 doubles the GPUs per sample (their 512-GPU limit).
    // ScaleFold: DAP up to 8 under the 256-way batch limit -> 2048 GPUs.
    let setups = [
        ("OpenFold (DP only)", 64usize, OptimizationSet::openfold()),
        ("OpenFold (DP only)", 128, OptimizationSet::openfold()),
        ("OpenFold (DP only)", 256, OptimizationSet::openfold()),
        ("FastFold", 128, OptimizationSet::fastfold(2)),
        ("FastFold", 256, OptimizationSet::fastfold(2)),
        ("ScaleFold", 256, OptimizationSet::scalefold_dap(1)),
        ("ScaleFold", 256, OptimizationSet::scalefold_dap(2)),
        ("ScaleFold", 256, OptimizationSet::scalefold_dap(4)),
        ("ScaleFold", 256, OptimizationSet::scalefold_dap(8)),
    ];
    // Efficiency is per GPU, versus the system's smallest configuration,
    // which `setups` lists first.
    let mut base = ("", 0.0);
    setups
        .into_iter()
        .map(|(system, dp, opts)| {
            let gpus = dp * opts.dap;
            let samples_per_s = dp as f64 / opts.step_s(&cfg, DeviceSpec::h100(), dp);
            let per_gpu = samples_per_s / gpus as f64;
            if system != base.0 {
                base = (system, per_gpu);
            }
            ScalingPoint {
                system: system.into(),
                gpus,
                dp,
                dap: opts.dap,
                samples_per_s,
                efficiency: per_gpu / base.1,
            }
        })
        .collect()
}

/// Pretty-prints the scaling sweep.
pub fn format_scaling(points: &[ScalingPoint]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Scalability: throughput vs GPU count (batch-size limit 256 caps DP)"
    );
    let _ = writeln!(
        s,
        "{:<22} {:>6} {:>10} {:>12} {:>11}",
        "system", "GPUs", "DP x DAP", "samples/s", "efficiency"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:<22} {:>6} {:>10} {:>12.1} {:>10.0}%",
            p.system,
            p.gpus,
            format!("{}x{}", p.dp, p.dap),
            p.samples_per_s,
            100.0 * p.efficiency
        );
    }
    let _ = writeln!(
        s,
        "(paper: prior art scaled to 512 GPUs; ScaleFold to 2080 incl. eval nodes)"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // Heavier experiment runners are covered by tests/figures.rs; keep the
    // cheap invariants here.

    #[test]
    fn fig4_result_is_sorted_with_slow_tail() {
        let r = fig4(500);
        assert!(r.sorted_s.windows(2).all(|w| w[0] <= w[1]));
        assert!((0.01..0.35).contains(&r.slow_fraction));
    }

    #[test]
    fn finetune_extension_is_hours_not_days() {
        let r = finetune_extension();
        assert!(r.steps > 1000);
        assert!(r.hours < 24.0, "fine-tune {:.1} h", r.hours);
        assert!(
            r.step_s > fig11().phase_step_s.1,
            "crop 384 must be slower per step"
        );
    }

    #[test]
    fn fig11_reaches_target_under_ten_hours() {
        let r = fig11();
        assert!((45_000..65_000).contains(&r.steps_to_target));
        assert!(r.total_hours < 12.0, "total {:.1} h", r.total_hours);
        assert!(
            r.total_hours > 2.0,
            "suspiciously fast: {:.1} h",
            r.total_hours
        );
        // Curve ends at the target.
        assert!(r.curve.last().expect("nonempty").lddt >= 0.9);
    }
}
