//! Shape checks for every reproduced table and figure: orderings, rough
//! ratios, and crossovers must match the paper (absolute values are
//! simulator-scale; see EXPERIMENTS.md).

use scalefold::{experiments, OptimizationSet};
use sf_gpusim::DeviceSpec;
use sf_model::ModelConfig;

#[test]
fn table1_reproduces_kernel_breakdown_shape() {
    let r = experiments::table1();
    // Memory-bound work dominates runtime and calls (paper: 65% / 97,749).
    assert!(r.table.memory_pct > r.table.math_pct);
    assert!(r.table.memory_pct > 50.0);
    assert!(r.table.memory_calls > 3 * r.table.math_calls);
    // >150k operators per step (we accept >100k).
    assert!(r.table.total_calls() > 100_000);
    // Math calls land near the paper's 18,147.
    assert!((10_000..30_000).contains(&r.table.math_calls));
    // MHA and LN are the two dominant patterns (34% / 14%).
    assert!(r.profile.mha_pct > r.profile.layernorm_pct);
    assert!(r.profile.mha_pct > 20.0);
    assert!((5.0..25.0).contains(&r.profile.layernorm_pct));
    // Reference A100 step in the right magnitude (paper: 6.76 s).
    assert!((4.0..14.0).contains(&r.a100_step_s));
}

#[test]
fn fig3_breakdown_shape() {
    let r = experiments::fig3();
    assert_eq!(r.rows.len(), 3);
    for row in &r.rows {
        // Actual always exceeds ideal; all components non-negative.
        assert!(row.actual_s > row.ideal_s);
        assert!(row.cpu_overhead_s >= 0.0);
        assert!(row.imbalance_s >= 0.0);
    }
    // Imbalance share grows with DAP degree (the paper's key observation).
    let share = |i: usize| r.rows[i].imbalance_s / r.rows[i].actual_s;
    assert!(
        share(2) > share(0),
        "dap8 {} vs dap2 {}",
        share(2),
        share(0)
    );
    // Baseline speedups plateau: DAP-8 is within 35% of DAP-4 (paper: both
    // ~1.57x).
    let s4 = r.speedups[1].1;
    let s8 = r.speedups[2].1;
    assert!((s8 - s4).abs() / s4 < 0.35, "s4 {s4:.2} s8 {s8:.2}");
}

#[test]
fn fig4_prep_time_distribution_shape() {
    let r = experiments::fig4(2000);
    let min = r.sorted_s.first().copied().expect("nonempty");
    let max = r.sorted_s.last().copied().expect("nonempty");
    // Roughly three orders of magnitude spread.
    assert!(max / min > 100.0, "spread {min:.3}..{max:.3}");
    // ~10% slow batches.
    assert!((0.02..0.30).contains(&r.slow_fraction));
}

#[test]
fn fig7_step_time_orderings() {
    let r = experiments::fig7();
    // A100: OpenFold > FastFold > ScaleFold (paper: 6.19 / 2.49 / 1.88).
    assert!(r.a100[0].1 > r.a100[1].1);
    assert!(r.a100[1].1 > r.a100[2].1);
    // H100 ScaleFold: strictly improving with DAP.
    for w in r.h100.windows(2) {
        assert!(
            w[1].1 < w[0].1,
            "{} {:.2} !< {} {:.2}",
            w[1].0,
            w[1].1,
            w[0].0,
            w[0].1
        );
    }
    // DAP-8 speedup over DAP-1 in the paper's band (2.77x).
    let s8 = r.h100[0].1 / r.h100[3].1;
    assert!((1.7..4.5).contains(&s8), "DAP-8 speedup {s8:.2}");
}

#[test]
fn fig8_ladder_shape() {
    let r = experiments::fig8();
    assert_eq!(r.entries.len(), 10);
    // Monotone non-increasing H100 step times.
    for w in r.entries.windows(2) {
        assert!(w[1].h100_step_s <= w[0].h100_step_s * 1.05);
    }
    // Final cumulative speedup near the paper's ~6.2x.
    let last = r.entries.last().expect("rows");
    assert!(
        (3.5..10.0).contains(&last.h100_speedup),
        "{:.2}",
        last.h100_speedup
    );
    // The DAP-8 stage needs the CUDA graph (1.52x vs 1.79x story).
    let (without, with) = r.dap8_graph_ablation;
    assert!(with < without);
}

#[test]
fn fig9_fig10_time_to_train_shape() {
    let r = experiments::fig9_fig10();
    // Async eval beats sync eval; both beat the reference.
    assert!(r.scalefold_async_s < r.scalefold_sync_s);
    assert!(r.scalefold_sync_s < r.reference_s);
    // Overall speedup near the paper's 6x (accept 3x-12x).
    let speedup = r.reference_s / r.scalefold_async_s;
    assert!((3.0..12.0).contains(&speedup), "speedup {speedup:.1}");
    // ScaleFold async lands in minutes, not hours (paper: 7.51 min).
    assert!(
        (2.0..40.0).contains(&(r.scalefold_async_s / 60.0)),
        "{:.1} min",
        r.scalefold_async_s / 60.0
    );
    // Sync-eval share grows as steps shrink (22% -> 43%).
    let (before, after) = r.eval_share_before_after;
    assert!(after > before);
}

#[test]
fn fig11_pretraining_shape() {
    let r = experiments::fig11();
    // 0.9 lDDT within 50k-60k steps; < ~10 h wall-clock; curve monotone.
    assert!((45_000..65_000).contains(&r.steps_to_target));
    assert!(r.total_hours < 12.0);
    assert!(r.curve.windows(2).all(|w| w[1].lddt >= w[0].lddt - 1e-9));
    // Phase-1 milestone: >= 0.78 at 5000 steps.
    let p5000 = r
        .curve
        .iter()
        .find(|p| p.step >= 5000)
        .expect("curve passes 5000 steps");
    assert!(p5000.lddt >= 0.75, "phase-1 lddt {:.3}", p5000.lddt);
    // Versus the original AlphaFold's ~7 days: at least 10x faster.
    assert!(r.total_hours < 7.0 * 24.0 / 10.0);
}

#[test]
fn scaling_reproduces_headline_claim() {
    // The abstract: ScaleFold "scaled the AlphaFold training to 2080 NVIDIA
    // H100 GPUs" where prior art stopped at 512 (DP capped at 256 by the
    // batch-size convergence limit).
    let points = experiments::scaling();
    let max_gpus = |system: &str| {
        points
            .iter()
            .filter(|p| p.system.starts_with(system))
            .map(|p| p.gpus)
            .max()
            .expect("system present")
    };
    assert_eq!(max_gpus("OpenFold"), 256);
    assert_eq!(max_gpus("FastFold"), 512);
    assert_eq!(max_gpus("ScaleFold"), 2048);

    let best = |system: &str| {
        points
            .iter()
            .filter(|p| p.system.starts_with(system))
            .map(|p| p.samples_per_s)
            .fold(0.0f64, f64::max)
    };
    // ScaleFold's peak throughput dwarfs the baselines' peaks.
    assert!(best("ScaleFold") > 3.0 * best("OpenFold"));
    assert!(best("ScaleFold") > 3.0 * best("FastFold"));
    // Throughput grows monotonically with ScaleFold's GPU count...
    let sf: Vec<&experiments::ScalingPoint> = points
        .iter()
        .filter(|p| p.system.starts_with("ScaleFold"))
        .collect();
    for w in sf.windows(2) {
        assert!(w[1].samples_per_s > w[0].samples_per_s);
    }
    // ...while scaling efficiency decays at the largest scales (DAP is
    // sub-linear — the honest part of the claim).
    assert!(sf.last().expect("points").efficiency < 0.8);
}

/// The ScaleFold DAP-8 setup on 128-way DP H100s is priced in one place:
/// Figure 7's DAP-8 row, Figure 11's phase 1 and Figure 8's last rung read
/// the identical step time, and the CLI's `simulate 8` and `tradeoff` both
/// print it (the full set on its own cluster, not the reference cluster).
#[test]
fn one_setup_one_number() {
    let cfg = ModelConfig::paper();
    let step = OptimizationSet::scalefold_dap(8).step_s(&cfg, DeviceSpec::h100(), 128);
    assert!((0.3..1.0).contains(&step), "ScaleFold step {step} s");
    let fig7 = experiments::fig7();
    assert_eq!(fig7.h100[3].0, "ScaleFold DAP-8");
    let ladder = scalefold::ladder_stages(&cfg);
    for (place, t) in [
        ("Figure 7", fig7.h100[3].1),
        ("Figure 11 phase 1", experiments::fig11().phase_step_s.0),
        (
            "Figure 8 last rung",
            ladder.last().expect("rungs").h100_step_s,
        ),
    ] {
        assert_eq!(t.to_bits(), step.to_bits(), "{place}: {t} vs {step}");
    }
    for args in [["simulate", "8"], ["tradeoff", "2000"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_scalefold"))
            .args(args)
            .output()
            .expect("spawn scalefold binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let printed = format!("{step:.3} s/step");
        assert!(
            out.status.success() && stdout.contains(&printed),
            "scalefold {args:?} must print {printed}: {stdout}"
        );
    }
}
