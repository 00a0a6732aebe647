//! The named optimization set of the paper, the graph construction that
//! applies it, and the one mapping from a set to the simulated cluster it
//! runs on: every simulated step time of the figures, the ablations and
//! the CLI is [`OptimizationSet::step_s`].

use serde::{Deserialize, Serialize};
use sf_cluster::{ClusterConfig, ClusterSim, FabricSpec, StragglerModel};
use sf_gpusim::DeviceSpec;
use sf_model::ModelConfig;
use sf_opgraph::builder::StepGraph;
use sf_opgraph::fusion;

/// Average forward-only recycling iterations per training step in the
/// OpenFold/MLPerf recipe (uniform 0..3 warm iterations ⇒ mean ~1.5; we use
/// 1 for the costed graphs, matching the profile calibration).
pub const RECYCLE_FWD: usize = 1;

/// Simulated steps averaged into every [`OptimizationSet::step_s`].
pub const STEPS: u64 = 40;

/// Which of ScaleFold's optimizations are enabled (§3 + §3.4).
///
/// `OptimizationSet::none()` is the MLPerf reference model;
/// `OptimizationSet::scalefold()` enables everything; `openfold()` and
/// `fastfold(dap)` are the published baselines of Figure 7. Individual
/// flags correspond to the stages of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptimizationSet {
    /// Bundle the four pre-attention projections into one GEMM.
    pub gemm_batching: bool,
    /// ScaleFold's non-blocking priority-queue data pipeline.
    pub nonblocking_loader: bool,
    /// Full-bf16 training (storage + tensor cores + comm).
    pub bf16: bool,
    /// Fused FlashAttention-with-pair-bias Triton kernel.
    pub triton_mha: bool,
    /// Fused single-pass LayerNorm Triton kernel.
    pub triton_ln: bool,
    /// Fused Adam + SWA single-kernel optimizer, with gradient clipping
    /// bucketed into the DDP buffers and hidden under communication.
    pub fused_adam_swa: bool,
    /// Dynamic Axial Parallelism degree (1 = off).
    pub dap: usize,
    /// Capture the step in CUDA graphs (with the recycle-keyed cache).
    pub cuda_graph: bool,
    /// Disable gradient checkpointing (possible once DAP frees memory).
    pub no_grad_checkpointing: bool,
    /// Disable the Python garbage collector.
    pub disable_gc: bool,
    /// torch.compile-style automatic elementwise fusion.
    pub torch_compile: bool,
    /// Offload evaluation to dedicated nodes with the DRAM cache.
    pub async_eval: bool,
}

impl OptimizationSet {
    /// The MLPerf reference model: nothing enabled, gradient checkpointing
    /// on (OpenFold's default), eager execution, fp32.
    pub fn none() -> Self {
        OptimizationSet {
            gemm_batching: false,
            nonblocking_loader: false,
            bf16: false,
            triton_mha: false,
            triton_ln: false,
            fused_adam_swa: false,
            dap: 1,
            cuda_graph: false,
            no_grad_checkpointing: false,
            disable_gc: false,
            torch_compile: false,
            async_eval: false,
        }
    }

    /// Public OpenFold: bf16 training with gradient checkpointing, no DAP
    /// and no fused kernels beyond stock PyTorch.
    pub fn openfold() -> Self {
        OptimizationSet {
            bf16: true,
            ..OptimizationSet::none()
        }
    }

    /// FastFold at DAP-`dap`: OpenFold plus its own fused LayerNorm
    /// kernel, but neither the pair-bias flash MHA, GEMM batching, the
    /// fused optimizer, CUDA graphs nor ScaleFold's pipeline work.
    pub fn fastfold(dap: usize) -> Self {
        OptimizationSet {
            triton_ln: true,
            dap,
            ..OptimizationSet::openfold()
        }
    }

    /// Everything ScaleFold ships, at DAP-8.
    pub fn scalefold() -> Self {
        OptimizationSet {
            gemm_batching: true,
            nonblocking_loader: true,
            bf16: true,
            triton_mha: true,
            triton_ln: true,
            fused_adam_swa: true,
            dap: 8,
            cuda_graph: true,
            no_grad_checkpointing: true,
            disable_gc: true,
            torch_compile: true,
            async_eval: true,
        }
    }

    /// ScaleFold at a different DAP degree. Gradient checkpointing is
    /// disabled only if the memory model says the full activation set fits
    /// an H100 at this DAP degree (the §4.1 gate).
    pub fn scalefold_dap(dap: usize) -> Self {
        let mut opts = OptimizationSet {
            dap,
            ..OptimizationSet::scalefold()
        };
        opts.no_grad_checkpointing = sf_opgraph::memory::fits_without_checkpointing(
            &ModelConfig::paper(),
            dap,
            opts.bf16,
            &sf_gpusim::DeviceSpec::h100(),
        );
        opts
    }

    /// The simulated cluster this set trains on: `dp` data-parallel groups
    /// of DAP-`self.dap` `device`s (A100s on a SuperPOD fabric, anything
    /// else on Eos). The loader flag picks the straggler model and
    /// `disable_gc` its GC pauses; CUDA graphs, bf16 gradient
    /// communication and the DAP degree come from the set. The fused
    /// kernels are autotuned after sharding once both Triton kernels are
    /// in (FastFold's own LayerNorm kernel alone is not).
    pub fn cluster(&self, device: DeviceSpec, dp: usize) -> ClusterConfig {
        let fabric = if device.name == "A100" {
            FabricSpec::superpod_a100()
        } else {
            FabricSpec::eos()
        };
        let mut straggler = if self.nonblocking_loader {
            StragglerModel::optimized()
        } else {
            StragglerModel::baseline()
        };
        straggler.gc_enabled = !self.disable_gc;
        ClusterConfig {
            device,
            fabric,
            cuda_graph: self.cuda_graph,
            bf16_comm: self.bf16,
            autotune: self.triton_mha && self.triton_ln,
            straggler,
            ..ClusterConfig::eos(dp, self.dap)
        }
    }

    /// Simulated mean step time, seconds, of this set's graph for `cfg` on
    /// [`OptimizationSet::cluster`], stragglers included, over [`STEPS`]
    /// steps.
    pub fn step_s(&self, cfg: &ModelConfig, device: DeviceSpec, dp: usize) -> f64 {
        ClusterSim::new(&build_graph(cfg, self), self.cluster(device, dp)).mean_step_s(STEPS)
    }
}

impl Default for OptimizationSet {
    fn default() -> Self {
        OptimizationSet::none()
    }
}

/// Builds the per-step kernel graph for a model configuration under an
/// optimization set, applying the corresponding fusion passes in the
/// paper's order.
pub fn build_graph(cfg: &ModelConfig, opts: &OptimizationSet) -> StepGraph {
    let mut g = if opts.no_grad_checkpointing {
        StepGraph::reference(cfg, RECYCLE_FWD)
    } else {
        StepGraph::reference_checkpointed(cfg, RECYCLE_FWD)
    };
    if opts.gemm_batching {
        g = fusion::batch_gemms(&g).0;
    }
    if opts.triton_mha {
        g = fusion::fuse_mha(&g).0;
    }
    if opts.triton_ln {
        g = fusion::fuse_layer_norm(&g).0;
    }
    if opts.fused_adam_swa {
        g = fusion::fuse_adam_swa(&g).0;
        // Grad clipping moves to the DDP buckets, hidden under comm.
        g = fusion::bucket_grad_clip(&g, true).0;
    }
    if opts.torch_compile {
        g = fusion::auto_fuse_elementwise(&g).0;
    }
    if opts.bf16 {
        g = fusion::to_bf16(&g);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_gpusim::CpuModel;
    use sf_opgraph::profile::step_time;

    #[test]
    fn full_set_is_much_faster_than_reference() {
        let cfg = ModelConfig::paper();
        let dev = DeviceSpec::h100();
        let reference = build_graph(&cfg, &OptimizationSet::none());
        let optimized = build_graph(&cfg, &OptimizationSet::scalefold());
        let t_ref = step_time(&reference, &dev, CpuModel::healthy(), false).total_s;
        let t_opt = step_time(&optimized, &dev, CpuModel::healthy(), true).total_s;
        // Before DAP/cluster effects, node-local optimizations alone should
        // give a healthy multiple.
        assert!(
            t_ref / t_opt > 2.0,
            "ref {t_ref:.2}s vs optimized {t_opt:.2}s"
        );
    }

    #[test]
    fn each_flag_contributes_nonnegative_speedup() {
        let cfg = ModelConfig::paper();
        let dev = DeviceSpec::h100();
        let time = |o: &OptimizationSet| {
            let g = build_graph(&cfg, o);
            step_time(&g, &dev, CpuModel::healthy(), o.cuda_graph).total_s
        };
        let mut opts = OptimizationSet::none();
        let mut last = time(&opts);
        type Flag = (&'static str, fn(&mut OptimizationSet));
        let flags: [Flag; 8] = [
            ("gemm_batching", |o| o.gemm_batching = true),
            ("bf16", |o| o.bf16 = true),
            ("triton_mha", |o| o.triton_mha = true),
            ("triton_ln", |o| o.triton_ln = true),
            ("fused_adam_swa", |o| o.fused_adam_swa = true),
            ("no_ckpt", |o| o.no_grad_checkpointing = true),
            ("torch_compile", |o| o.torch_compile = true),
            ("cuda_graph", |o| o.cuda_graph = true),
        ];
        for (name, apply) in flags {
            apply(&mut opts);
            let t = time(&opts);
            assert!(
                t <= last * 1.02,
                "{name} made the step slower: {last:.3} -> {t:.3}"
            );
            last = t;
        }
    }

    #[test]
    fn figure7_ordering_on_a100() {
        // Paper: OpenFold 6.19 s, FastFold DAP-2 2.49 s, ScaleFold DAP-2
        // 1.88 s — strict ordering OpenFold > FastFold > ScaleFold.
        let cfg = ModelConfig::paper();
        let step = |o: OptimizationSet| o.step_s(&cfg, DeviceSpec::a100(), 128);
        let of = step(OptimizationSet::openfold());
        let ff = step(OptimizationSet::fastfold(2));
        let sf = step(OptimizationSet::scalefold_dap(2));
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
        let t: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&dap| OptimizationSet::scalefold_dap(dap).step_s(&cfg, DeviceSpec::h100(), 128))
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

    #[test]
    fn dap_requires_memory_for_no_ckpt() {
        let o1 = OptimizationSet::scalefold_dap(1);
        assert!(!o1.no_grad_checkpointing);
        let o8 = OptimizationSet::scalefold_dap(8);
        assert!(o8.no_grad_checkpointing);
    }

    #[test]
    fn bf16_shrinks_graph_traffic() {
        let cfg = ModelConfig::paper();
        let base = build_graph(&cfg, &OptimizationSet::none());
        let bf16 = build_graph(
            &cfg,
            &OptimizationSet {
                bf16: true,
                ..OptimizationSet::none()
            },
        );
        let bytes = |g: &StepGraph| g.ops.iter().map(|o| o.kernel.bytes).sum::<f64>();
        let factor = sf_opgraph::fusion::BF16_BYTES_FACTOR;
        assert!((bytes(&bf16) - factor * bytes(&base)).abs() < 1e-6 * bytes(&base));
    }
}
