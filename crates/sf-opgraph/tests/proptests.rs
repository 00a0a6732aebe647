//! Property tests for the operator graph: conservation laws of the fusion
//! passes, DAP sharding linearity, and memory-model monotonicity — for
//! arbitrary model dimensions.

use proptest::prelude::*;
use sf_gpusim::{CpuModel, DeviceSpec};
use sf_model::ModelConfig;
use sf_opgraph::builder::StepGraph;
use sf_opgraph::profile::step_time;
use sf_opgraph::{dap, fusion, memory};

/// Arbitrary miniature model configurations (kept small so graph builds
/// stay fast inside proptest).
fn arb_config() -> impl Strategy<Value = ModelConfig> {
    (
        2usize..24, // n_res
        2usize..8,  // n_seq
        1usize..4,  // evoformer blocks
        1usize..3,  // msa heads
        4usize..32, // c_m
        4usize..32, // c_z
    )
        .prop_map(|(n_res, n_seq, blocks, heads, c_m, c_z)| {
            let mut cfg = ModelConfig::tiny();
            cfg.n_res = n_res;
            cfg.n_seq = n_seq;
            cfg.evoformer_blocks = blocks;
            cfg.msa_heads = heads;
            cfg.pair_heads = heads;
            cfg.c_m = c_m;
            cfg.c_z = c_z;
            cfg
        })
}

fn total_flops(g: &StepGraph) -> f64 {
    g.ops.iter().map(|o| o.kernel.flops).sum()
}

fn total_bytes(g: &StepGraph) -> f64 {
    g.ops.iter().map(|o| o.kernel.bytes).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every fusion pass conserves FLOPs exactly and never increases
    /// traffic, for arbitrary model dimensions.
    #[test]
    fn fusions_conserve_flops_and_reduce_bytes(cfg in arb_config()) {
        let g = StepGraph::reference(&cfg, 0);
        type Pass = Box<dyn Fn(&StepGraph) -> StepGraph>;
        let passes: Vec<(&str, Pass)> = vec![
            ("ln", Box::new(|g: &StepGraph| fusion::fuse_layer_norm(g).0)),
            ("mha", Box::new(|g: &StepGraph| fusion::fuse_mha(g).0)),
            ("gemm", Box::new(|g: &StepGraph| fusion::batch_gemms(g).0)),
            ("compile", Box::new(|g: &StepGraph| fusion::auto_fuse_elementwise(g).0)),
        ];
        for (name, pass) in passes {
            let f = pass(&g);
            prop_assert!(
                (total_flops(&f) - total_flops(&g)).abs() <= 1e-6 * total_flops(&g).max(1.0),
                "{name} changed FLOPs"
            );
            prop_assert!(
                total_bytes(&f) <= total_bytes(&g) * 1.0001,
                "{name} increased traffic"
            );
            prop_assert!(f.ops.len() <= g.ops.len(), "{name} grew the graph");
        }
    }

    /// DAP sharding divides shardable traffic by exactly n and leaves the
    /// total op count unchanged.
    #[test]
    fn dap_sharding_linear(cfg in arb_config(), n in 2usize..9) {
        let g = StepGraph::reference(&cfg, 0);
        let s = dap::shard(&g, n);
        prop_assert_eq!(s.ops.len(), g.ops.len());
        for (a, b) in g.ops.iter().zip(s.ops.iter()) {
            if a.module.dap_shardable() {
                prop_assert!((b.kernel.bytes - a.kernel.bytes / n as f64).abs() < 1e-6);
                prop_assert!((b.kernel.flops - a.kernel.flops / n as f64).abs() < 1e-6);
            } else {
                prop_assert_eq!(a.kernel.bytes, b.kernel.bytes);
            }
        }
    }

    /// Step time is monotone: sharded graphs never take longer in pure
    /// GPU-busy terms, and CUDA-graph mode never exceeds eager.
    #[test]
    fn timing_monotonicity(cfg in arb_config(), n in 2usize..9) {
        let g = StepGraph::reference(&cfg, 0);
        let dev = DeviceSpec::h100();
        let eager = step_time(&g, &dev, CpuModel::healthy(), false);
        let graphed = step_time(&g, &dev, CpuModel::healthy(), true);
        prop_assert!(graphed.total_s <= eager.total_s + 1e-9);
        let sharded = dap::shard(&g, n);
        let sharded_busy = step_time(&sharded, &dev, CpuModel::healthy(), true).gpu_busy_s;
        prop_assert!(sharded_busy <= eager.gpu_busy_s + 1e-9);
    }

    /// The memory model is monotone: more DAP never increases the
    /// footprint; checkpointing never increases it; bf16 never increases
    /// it.
    #[test]
    fn memory_monotonicity(cfg in arb_config(), dap_n in 1usize..9) {
        let dev = DeviceSpec::h100();
        let base = memory::estimate(&cfg, dap_n, false, false).total_bytes();
        prop_assert!(memory::estimate(&cfg, dap_n + 1, false, false).total_bytes() <= base);
        prop_assert!(memory::estimate(&cfg, dap_n, true, false).total_bytes() <= base);
        prop_assert!(memory::estimate(&cfg, dap_n, false, true).total_bytes() <= base);
        let _ = dev;
    }

    /// Recycling multiplies forward work monotonically.
    #[test]
    fn recycling_monotone(cfg in arb_config(), r in 0usize..4) {
        let a = StepGraph::reference(&cfg, r);
        let b = StepGraph::reference(&cfg, r + 1);
        prop_assert!(b.ops.len() > a.ops.len());
        prop_assert!(total_bytes(&b) > total_bytes(&a));
    }
}
