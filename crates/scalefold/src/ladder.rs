//! The step-by-step optimization ladder of Figure 8: apply the paper's
//! optimizations cumulatively and report the step time after each.

use crate::optimizations::OptimizationSet;
use serde::{Deserialize, Serialize};
use sf_gpusim::DeviceSpec;
use sf_model::ModelConfig;

/// One rung of the Figure-8 ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LadderEntry {
    /// Optimization added at this stage.
    pub name: String,
    /// Mean step time on A100, seconds.
    pub a100_step_s: f64,
    /// Mean step time on H100, seconds.
    pub h100_step_s: f64,
    /// Cumulative speedup versus the A100 reference.
    pub a100_speedup: f64,
    /// Cumulative speedup versus the H100 reference.
    pub h100_speedup: f64,
}

/// The cumulative stages of Figure 8, in the paper's order, each priced
/// at 128-way DP by [`OptimizationSet::step_s`].
#[allow(clippy::type_complexity)]
pub fn ladder_stages(cfg: &ModelConfig) -> Vec<LadderEntry> {
    let stages: Vec<(&str, Box<dyn Fn(&mut OptimizationSet)>)> = vec![
        ("reference", Box::new(|_o: &mut OptimizationSet| {})),
        ("+ GEMM batching", Box::new(|o| o.gemm_batching = true)),
        (
            "+ non-blocking dataloader",
            Box::new(|o| o.nonblocking_loader = true),
        ),
        ("+ bfloat16", Box::new(|o| o.bf16 = true)),
        ("+ Triton MHA", Box::new(|o| o.triton_mha = true)),
        ("+ Triton LayerNorm", Box::new(|o| o.triton_ln = true)),
        ("+ fused Adam+SWA", Box::new(|o| o.fused_adam_swa = true)),
        (
            "+ DAP-8, no grad ckpt, CUDA graph",
            Box::new(|o| {
                o.dap = 8;
                o.no_grad_checkpointing = true;
                o.cuda_graph = true;
            }),
        ),
        ("+ disable GC", Box::new(|o| o.disable_gc = true)),
        ("+ torch.compile", Box::new(|o| o.torch_compile = true)),
    ];

    let mut opts = OptimizationSet::none();
    let mut out = Vec::with_capacity(stages.len());
    let mut ref_a100 = 0.0;
    let mut ref_h100 = 0.0;
    for (i, (name, apply)) in stages.into_iter().enumerate() {
        apply(&mut opts);
        let a100 = opts.step_s(cfg, DeviceSpec::a100(), 128);
        let h100 = opts.step_s(cfg, DeviceSpec::h100(), 128);
        if i == 0 {
            ref_a100 = a100;
            ref_h100 = h100;
        }
        out.push(LadderEntry {
            name: name.to_string(),
            a100_step_s: a100,
            h100_step_s: h100,
            a100_speedup: ref_a100 / a100,
            h100_speedup: ref_h100 / h100,
        });
    }
    out
}

/// Figure 8's counterfactual: DAP-8 with checkpointing disabled but **no**
/// CUDA graph — the paper found this *slower* than DAP-4 (1.52× vs more),
/// because the shrunk kernels expose the CPU.
pub fn dap8_without_cuda_graph(cfg: &ModelConfig) -> (f64, f64) {
    let mut with_graph = OptimizationSet::scalefold_dap(8);
    with_graph.async_eval = false;
    let mut without = with_graph;
    without.cuda_graph = false;
    (
        without.step_s(cfg, DeviceSpec::h100(), 128),
        with_graph.step_s(cfg, DeviceSpec::h100(), 128),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_reference_magnitudes() {
        // Paper: reference 6.76 s (A100), 4.07 s (H100); H100 ≈ 1.66×.
        let cfg = ModelConfig::paper();
        let entries = ladder_stages(&cfg);
        let r = &entries[0];
        assert!(
            (4.0..14.0).contains(&r.a100_step_s),
            "A100 ref {:.2}",
            r.a100_step_s
        );
        assert!(
            (2.5..9.0).contains(&r.h100_step_s),
            "H100 ref {:.2}",
            r.h100_step_s
        );
        let ratio = r.a100_step_s / r.h100_step_s;
        assert!((1.2..2.2).contains(&ratio), "H100 gain {ratio:.2}");
    }

    #[test]
    fn ladder_is_monotonically_nonincreasing() {
        let cfg = ModelConfig::paper();
        let entries = ladder_stages(&cfg);
        for w in entries.windows(2) {
            assert!(
                w[1].h100_step_s <= w[0].h100_step_s * 1.05,
                "{} regressed: {:.3} -> {:.3}",
                w[1].name,
                w[0].h100_step_s,
                w[1].h100_step_s
            );
        }
    }

    #[test]
    fn final_speedup_matches_paper_band() {
        // Paper: ~6.2× cumulative on H100. The simulated ratio depends on
        // the sampled straggler stream, so the band is generous on both
        // sides.
        let cfg = ModelConfig::paper();
        let entries = ladder_stages(&cfg);
        let last = entries.last().expect("stages");
        assert!(
            (3.5..11.0).contains(&last.h100_speedup),
            "final H100 speedup {:.2}",
            last.h100_speedup
        );
    }

    #[test]
    fn cuda_graph_is_what_makes_dap8_win() {
        // Paper: DAP-8 without CUDA graph reached only 1.52× (worse than
        // DAP-4); with the graph, 1.79×.
        let cfg = ModelConfig::paper();
        let (without, with) = dap8_without_cuda_graph(&cfg);
        assert!(
            with < without,
            "with graph {with:.3} must beat without {without:.3}"
        );
    }
}
