//! Profiling of a step graph: the paper's Table 1 classification, the §2.2
//! per-pattern breakdown, and step-time estimation.

use crate::builder::StepGraph;
use crate::ops::{ModuleTag, OpKind};
use serde::{Deserialize, Serialize};
use sf_gpusim::{CpuModel, DeviceSpec, Kernel, KernelClass, Stream, StreamStats};

/// The rows of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table1 {
    /// CPU overhead share of step time (paper: 9.10%).
    pub cpu_overhead_pct: f64,
    /// Math-bound runtime share (paper: 24.06%).
    pub math_pct: f64,
    /// Math-bound kernel calls (paper: 18,147).
    pub math_calls: usize,
    /// Memory-bound runtime share (paper: 65.03%).
    pub memory_pct: f64,
    /// Memory-bound kernel calls (paper: 97,749).
    pub memory_calls: usize,
    /// Memory-operation runtime share (paper: 1.82%).
    pub memop_pct: f64,
    /// Memory-operation calls (paper: 34,991).
    pub memop_calls: usize,
}

impl Table1 {
    /// Classifies and times `graph` on `device`, reproducing Table 1.
    pub fn compute(graph: &StepGraph, device: &DeviceSpec, cpu: CpuModel) -> Self {
        let mut math_t = 0.0;
        let mut mem_t = 0.0;
        let mut memop_t = 0.0;
        let (mut math_c, mut mem_c, mut memop_c) = (0usize, 0usize, 0usize);
        for op in &graph.ops {
            let d = op.kernel.duration_s(device);
            // Classify by operator type, as the paper does: "matrix-matrix
            // multiplications and convolutions are categorized as
            // math-bounded kernels. Memory copy and set are categorized as
            // memory-operation. The rests ... memory-bounded."
            let class = if op.kind == OpKind::MemOp {
                // Transposes/permutes execute as compute kernels; only true
                // copies/memsets/casts are "memory-operations" in Table 1.
                if op.kernel.name.starts_with("permute") {
                    KernelClass::MemoryBound
                } else {
                    KernelClass::MemoryOp
                }
            } else if op.kernel.flops > 0.0 {
                KernelClass::MathBound
            } else {
                KernelClass::MemoryBound
            };
            match class {
                KernelClass::MathBound => {
                    math_t += d;
                    math_c += 1;
                }
                KernelClass::MemoryBound => {
                    mem_t += d;
                    mem_c += 1;
                }
                KernelClass::MemoryOp => {
                    memop_t += d;
                    memop_c += 1;
                }
            }
        }
        let stats = step_time(graph, device, cpu, false);
        let total = stats.total_s.max(1e-12);
        Table1 {
            cpu_overhead_pct: 100.0 * stats.cpu_exposed_s / total,
            math_pct: 100.0 * math_t / total,
            math_calls: math_c,
            memory_pct: 100.0 * mem_t / total,
            memory_calls: mem_c,
            memop_pct: 100.0 * memop_t / total,
            memop_calls: memop_c,
        }
    }

    /// Total kernel calls.
    pub fn total_calls(&self) -> usize {
        self.math_calls + self.memory_calls + self.memop_calls
    }
}

/// Runtime shares of the performance-critical patterns (§2.2): Evoformer
/// 72% of step time, MHA 34%, LayerNorm 14%, weight update 6%, SWA 6%,
/// gradient clipping 3%.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModuleProfile {
    /// Evoformer-type compute share (main + extra-MSA + template stacks).
    pub evoformer_pct: f64,
    /// Multi-head-attention share (all attention-core kernels).
    pub mha_pct: f64,
    /// LayerNorm share.
    pub layernorm_pct: f64,
    /// Adam weight-update share.
    pub adam_pct: f64,
    /// SWA share.
    pub swa_pct: f64,
    /// Gradient-clipping share.
    pub grad_clip_pct: f64,
    /// Structure-module share (part of the paper's 11% serial modules).
    pub structure_pct: f64,
}

impl ModuleProfile {
    /// Computes the per-pattern breakdown on `device` (shares of GPU busy
    /// time).
    pub fn compute(graph: &StepGraph, device: &DeviceSpec) -> Self {
        let mut total = 0.0;
        let mut evo = 0.0;
        let mut mha = 0.0;
        let mut ln = 0.0;
        let mut adam = 0.0;
        let mut swa = 0.0;
        let mut clip = 0.0;
        let mut structure = 0.0;
        for op in &graph.ops {
            let d = op.kernel.duration_s(device);
            total += d;
            if matches!(
                op.module,
                ModuleTag::Evoformer | ModuleTag::ExtraMsa | ModuleTag::Template
            ) {
                evo += d;
            }
            if op.module == ModuleTag::Structure {
                structure += d;
            }
            match op.kind {
                OpKind::AttentionGemm | OpKind::Softmax | OpKind::AttentionElementwise => {
                    mha += d;
                }
                OpKind::LayerNorm => ln += d,
                OpKind::AdamUpdate => adam += d,
                OpKind::SwaUpdate => swa += d,
                OpKind::GradClip => clip += d,
                OpKind::Fused => {
                    // Fused kernels keep their pattern identity via name.
                    let n = &op.kernel.name;
                    if n.starts_with("mha") {
                        mha += d;
                    } else if n.starts_with("ln") {
                        ln += d;
                    } else if n.contains("adam") {
                        adam += d;
                    } else if n.contains("clip") {
                        clip += d;
                    }
                }
                _ => {}
            }
        }
        let total = total.max(1e-12);
        ModuleProfile {
            evoformer_pct: 100.0 * evo / total,
            mha_pct: 100.0 * mha / total,
            layernorm_pct: 100.0 * ln / total,
            adam_pct: 100.0 * adam / total,
            swa_pct: 100.0 * swa / total,
            grad_clip_pct: 100.0 * clip / total,
            structure_pct: 100.0 * structure / total,
        }
    }
}

/// Times the whole step on a stream (eager launches or CUDA-graph replay).
pub fn step_time(
    graph: &StepGraph,
    device: &DeviceSpec,
    cpu: CpuModel,
    cuda_graph: bool,
) -> StreamStats {
    let kernels: Vec<Kernel> = graph.ops.iter().map(|o| o.kernel.clone()).collect();
    let stream = Stream::new(device.clone(), cpu);
    if cuda_graph {
        stream.run_graph(&kernels)
    } else {
        stream.run_eager_with_syncs(&kernels, &graph.syncs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_model::ModelConfig;

    fn reference() -> StepGraph {
        // MLPerf-style average: ~3 warm recycling forwards.
        StepGraph::reference(&ModelConfig::paper(), 3)
    }

    #[test]
    fn table1_shape_matches_paper() {
        let g = reference();
        let t = Table1::compute(&g, &DeviceSpec::a100(), CpuModel::healthy());
        // Paper: CPU 9.10 / math 24.06 / memory 65.03 / memop 1.82.
        // Exposed CPU share is the hardest number to reproduce in a
        // queue-model: the paper's 9.10% counts full profiler-visible CPU
        // time; our run-ahead stream model only exposes what actually
        // stalls the GPU. Accept a broad band (see EXPERIMENTS.md).
        assert!(
            (0.5..20.0).contains(&t.cpu_overhead_pct),
            "cpu {:.2}%",
            t.cpu_overhead_pct
        );
        assert!(
            (14.0..36.0).contains(&t.math_pct),
            "math {:.2}%",
            t.math_pct
        );
        assert!(
            (50.0..80.0).contains(&t.memory_pct),
            "memory {:.2}%",
            t.memory_pct
        );
        assert!(
            (0.2..8.0).contains(&t.memop_pct),
            "memop {:.2}%",
            t.memop_pct
        );
        // Memory-bound kernels dominate the call count.
        assert!(t.memory_calls > 3 * t.math_calls);
        assert!(t.total_calls() > 100_000);
    }

    #[test]
    fn pattern_profile_matches_paper() {
        let g = reference();
        let p = ModuleProfile::compute(&g, &DeviceSpec::a100());
        // Paper: Evoformer 72%, MHA 34%, LN 14%, Adam 6%, SWA 6%, clip 3%.
        assert!(
            (55.0..88.0).contains(&p.evoformer_pct),
            "evo {:.1}",
            p.evoformer_pct
        );
        assert!((22.0..46.0).contains(&p.mha_pct), "mha {:.1}", p.mha_pct);
        assert!(
            (7.0..22.0).contains(&p.layernorm_pct),
            "ln {:.1}",
            p.layernorm_pct
        );
        assert!((2.0..12.0).contains(&p.adam_pct), "adam {:.1}", p.adam_pct);
        assert!((2.0..12.0).contains(&p.swa_pct), "swa {:.1}", p.swa_pct);
        assert!(
            (1.0..8.0).contains(&p.grad_clip_pct),
            "clip {:.1}",
            p.grad_clip_pct
        );
        assert!(p.structure_pct < 15.0, "structure {:.1}", p.structure_pct);
    }

    #[test]
    fn a100_reference_step_time_magnitude() {
        // Paper: reference model 6.76 s/step on A100 (local batch 1).
        let g = reference();
        let t = step_time(&g, &DeviceSpec::a100(), CpuModel::healthy(), false).total_s;
        assert!((3.0..12.0).contains(&t), "A100 step {t:.2} s");
    }

    #[test]
    fn h100_is_faster_but_memory_bound_limits_gain() {
        // Paper: 6.76 -> 4.07 s = 1.66x (far under the 3x math ratio).
        let g = reference();
        let a = step_time(&g, &DeviceSpec::a100(), CpuModel::healthy(), false).total_s;
        let h = step_time(&g, &DeviceSpec::h100(), CpuModel::healthy(), false).total_s;
        let speedup = a / h;
        assert!(
            (1.3..2.2).contains(&speedup),
            "H100 speedup {speedup:.2} (a={a:.2}, h={h:.2})"
        );
    }

    #[test]
    fn cuda_graph_removes_cpu_exposure() {
        let g = reference();
        let eager = step_time(&g, &DeviceSpec::h100(), CpuModel::contended(3.0), false);
        let graph = step_time(&g, &DeviceSpec::h100(), CpuModel::contended(3.0), true);
        assert!(graph.total_s < eager.total_s);
        assert!(graph.cpu_exposed_s < 0.01 * eager.cpu_exposed_s.max(1e-9));
    }
}
