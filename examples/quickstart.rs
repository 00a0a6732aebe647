//! Quickstart: build a tiny AlphaFold, run one real training step on
//! synthetic data, then estimate what the paper-scale step would cost on an
//! H100 with and without ScaleFold's optimizations.
//!
//! Run with: `cargo run --release --example quickstart`

use scalefold::{build_graph, OptimizationSet, Trainer, TrainerConfig};
use sf_gpusim::{CpuModel, DeviceSpec};
use sf_model::ModelConfig;
use sf_opgraph::profile::step_time;

fn main() {
    // --- Part 1: real training on the CPU (tiny dimensions) -------------
    let mut cfg = TrainerConfig::tiny();
    cfg.model.evoformer_blocks = 1;
    cfg.model.extra_msa_blocks = 0;
    println!("training a tiny AlphaFold for 3 real steps...");
    let mut trainer = Trainer::new(cfg);
    for report in trainer.train(3) {
        println!(
            "  step {:>2}: loss {:>7.4}  distance {:>7.4}  grad-norm {:>7.3}  lDDT-Ca {:.3}",
            report.step, report.loss, report.distance_loss, report.grad_norm, report.lddt
        );
    }

    // --- Part 2: paper-scale performance model --------------------------
    let paper = ModelConfig::paper();
    let dev = DeviceSpec::h100();
    let reference = build_graph(&paper, &OptimizationSet::none());
    let optimized = build_graph(&paper, &OptimizationSet::scalefold());
    let t_ref = step_time(&reference, &dev, CpuModel::healthy(), false).total_s;
    let t_opt = step_time(&optimized, &dev, CpuModel::healthy(), true).total_s;
    println!();
    println!("paper-scale step on one H100 (performance model):");
    println!(
        "  reference (OpenFold-like): {t_ref:.2} s  ({} kernels)",
        reference.ops.len()
    );
    println!(
        "  ScaleFold optimizations  : {t_opt:.2} s  ({} kernels)",
        optimized.ops.len()
    );
    println!("  node-local speedup       : {:.2}x", t_ref / t_opt);
}
