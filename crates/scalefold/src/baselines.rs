//! Step-time models for the published baselines compared in Figure 7:
//! public OpenFold (no DAP) and FastFold (DAP with its own fused kernels
//! but neither flash-MHA-with-bias nor ScaleFold's pipeline/CPU work).

use crate::optimizations::{build_graph, OptimizationSet};
use sf_cluster::{ClusterConfig, ClusterSim, FabricSpec, StragglerModel};
use sf_gpusim::DeviceSpec;
use sf_model::ModelConfig;
use sf_opgraph::builder::StepGraph;
use sf_opgraph::fusion;

/// Public OpenFold's step graph: gradient checkpointing, bf16, no DAP, no
/// fused kernels beyond stock PyTorch.
pub fn openfold_graph(cfg: &ModelConfig) -> StepGraph {
    let g = StepGraph::reference_checkpointed(cfg, crate::optimizations::RECYCLE_FWD);
    // OpenFold trains in bf16.
    fusion::to_bf16(&g)
}

/// FastFold's step graph: OpenFold plus its fused softmax/LayerNorm
/// kernels (we grant it the LN fusion) — but not the pair-bias flash MHA,
/// GEMM batching, fused optimizer, CUDA graphs, or pipeline work.
pub fn fastfold_graph(cfg: &ModelConfig) -> StepGraph {
    let g = openfold_graph(cfg);
    fusion::fuse_layer_norm(&g).0
}

/// ScaleFold's fully-optimized graph at a DAP degree.
pub fn scalefold_graph(cfg: &ModelConfig, dap: usize) -> StepGraph {
    build_graph(cfg, &OptimizationSet::scalefold_dap(dap))
}

/// Simulated mean step time for a named baseline on a device.
pub fn baseline_step_s(
    graph: &StepGraph,
    device: DeviceSpec,
    dap: usize,
    cuda_graph: bool,
    optimized_pipeline: bool,
) -> f64 {
    let fabric = if device.name == "A100" {
        FabricSpec::superpod_a100()
    } else {
        FabricSpec::eos()
    };
    let straggler = if optimized_pipeline {
        StragglerModel::optimized()
    } else {
        StragglerModel::baseline()
    };
    let cc = ClusterConfig {
        device,
        fabric,
        dp: 128,
        dap,
        cuda_graph,
        bf16_comm: true,
        overlap_fraction: 0.5,
        // Baselines with optimized pipelines are the ScaleFold configs,
        // which also ship the autotuned Triton kernels.
        autotune: optimized_pipeline,
        variable_recycling: false,
        straggler,
        seed: 0xBA5E11,
    };
    ClusterSim::new(graph, cc).mean_step_s(40)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_ordering_on_a100() {
        // Paper: OpenFold 6.19 s, FastFold DAP-2 2.49 s, ScaleFold DAP-2
        // 1.88 s — strict ordering OpenFold > FastFold > ScaleFold.
        let cfg = ModelConfig::paper();
        let dev = DeviceSpec::a100();
        let of = baseline_step_s(&openfold_graph(&cfg), dev.clone(), 1, false, false);
        let ff = baseline_step_s(&fastfold_graph(&cfg), dev.clone(), 2, false, false);
        let sf = baseline_step_s(&scalefold_graph(&cfg, 2), dev, 2, true, true);
        assert!(of > ff, "OpenFold {of:.2} must exceed FastFold {ff:.2}");
        assert!(ff > sf, "FastFold {ff:.2} must exceed ScaleFold {sf:.2}");
        // Magnitudes: within a factor ~2 of the published numbers.
        assert!((3.0..14.0).contains(&of), "OpenFold A100 {of:.2}");
        assert!((1.2..6.0).contains(&ff), "FastFold A100 {ff:.2}");
        assert!((0.8..4.0).contains(&sf), "ScaleFold A100 {sf:.2}");
    }

    #[test]
    fn figure7_scalefold_h100_dap_scaling() {
        // Paper: H100 DAP-1/2/4/8 = 1.80 / 1.12 / 0.75 / 0.65 s
        // (speedups 1.6x / 2.4x / 2.77x).
        let cfg = ModelConfig::paper();
        let dev = DeviceSpec::h100();
        let t: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&dap| baseline_step_s(&scalefold_graph(&cfg, dap), dev.clone(), dap, true, true))
            .collect();
        // Strictly improving with DAP degree.
        assert!(t[1] < t[0] && t[2] < t[1] && t[3] < t[2], "{t:?}");
        let s2 = t[0] / t[1];
        let s8 = t[0] / t[3];
        assert!((1.2..2.3).contains(&s2), "DAP-2 speedup {s2:.2}");
        assert!((1.7..4.5).contains(&s8), "DAP-8 speedup {s8:.2}");
        // Diminishing returns: DAP-8 gains less per doubling than DAP-2.
        let s4 = t[0] / t[2];
        assert!(s8 / s4 < s4 / s2 * 1.2, "s2 {s2:.2} s4 {s4:.2} s8 {s8:.2}");
        // Magnitude: DAP-1 within a factor ~2 of the paper's 1.80 s.
        assert!((0.9..4.5).contains(&t[0]), "DAP-1 {:.2}", t[0]);
    }
}
