//! The Figure-3 decomposition: attribute the gap between DAP-n's actual
//! step time and the theoretical optimum to its root causes by subtracting
//! idealized configurations, exactly as the paper does ("we ablated the
//! contribution from each potential factor by subtracting the measured step
//! time with the corresponding theoretically optimal time").

use crate::sim::{ClusterConfig, ClusterSim};
use crate::straggler::StragglerModel;
use serde::{Deserialize, Serialize};
use sf_gpusim::CpuModel;
use sf_opgraph::builder::StepGraph;
use sf_opgraph::dap::shard;
use sf_opgraph::ops::ModuleTag;
use sf_opgraph::profile::step_time;

/// Seconds of per-step time attributed to each scalability barrier at a
/// given DAP degree (the bars of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalabilityBreakdown {
    /// DAP degree.
    pub dap: usize,
    /// Actual mean step time, seconds.
    pub actual_s: f64,
    /// Theoretically optimal step time (perfect n× scaling of the DAP-1
    /// GPU-busy time), seconds.
    pub ideal_s: f64,
    /// Exposed kernel-launch/CPU time (eliminated by CUDA graphs).
    pub cpu_overhead_s: f64,
    /// Serial modules (structure module) that DAP cannot shard.
    pub serial_modules_s: f64,
    /// Occupancy loss of DAP-shrunk kernels.
    pub kernel_scalability_s: f64,
    /// Balanced collective cost of DAP.
    pub comm_overhead_s: f64,
    /// Extra waiting caused by stragglers at synchronization points.
    pub imbalance_s: f64,
}

impl ScalabilityBreakdown {
    /// Computes the decomposition for `dap` on a `dp`-way job.
    pub fn compute(graph: &StepGraph, dp: usize, dap: usize) -> Self {
        let base_cfg = ClusterConfig::eos(dp, dap);
        let device = base_cfg.device.clone();

        // Actual: eager, stragglers on.
        let actual = ClusterSim::new(graph, base_cfg.clone()).mean_step_s(60);

        // (1) CPU overhead: eager vs CUDA-graph on the sharded graph.
        let sharded = shard(graph, dap);
        let eager = step_time(&sharded, &device, CpuModel::healthy(), false);
        let graphed = step_time(&sharded, &device, CpuModel::healthy(), true);
        let cpu_overhead_s = (eager.total_s - graphed.total_s).max(0.0);

        // (2) Serial modules: busy-time delta between the real sharding and
        // a hypothetical graph where even the serial modules shard.
        let all_sharded = shard_everything(graph, dap);
        let busy = |g: &StepGraph| step_time(g, &device, CpuModel::healthy(), true).gpu_busy_s;
        let serial_modules_s = (busy(&sharded) - busy(&all_sharded)).max(0.0);

        // (3) Kernel scalability: all-sharded busy time vs perfect 1/n of
        // the unsharded busy time (occupancy losses of small kernels).
        let full_busy = busy(graph);
        let ideal_s = full_busy / dap as f64;
        let kernel_scalability_s = (busy(&all_sharded) - ideal_s).max(0.0);

        // (4) Communication overhead: the balanced DAP collective cost.
        let mut quiet_cfg = base_cfg.clone();
        quiet_cfg.straggler = StragglerModel::none();
        let quiet_sim = ClusterSim::new(graph, quiet_cfg);
        let comm_overhead_s = quiet_sim.dap_comm_s() + quiet_sim.dp_comm_exposed_s();

        // (5) Imbalance: actual minus the same job with global
        // synchronization (no stragglers) — the paper's estimation method.
        let quiet_total = quiet_sim.mean_step_s(60);
        let imbalance_s = (actual - quiet_total).max(0.0);

        ScalabilityBreakdown {
            dap,
            actual_s: actual,
            ideal_s,
            cpu_overhead_s,
            serial_modules_s,
            kernel_scalability_s,
            comm_overhead_s,
            imbalance_s,
        }
    }

    /// Gap between actual and ideal.
    pub fn gap_s(&self) -> f64 {
        (self.actual_s - self.ideal_s).max(0.0)
    }
}

/// Hypothetical sharding of *everything* including serial modules — the
/// counterfactual used to isolate their contribution.
fn shard_everything(graph: &StepGraph, n: usize) -> StepGraph {
    let mut out = graph.clone();
    for op in &mut out.ops {
        if op.module != ModuleTag::Optimizer {
            op.kernel = op.kernel.shard(n);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_model::ModelConfig;

    fn graph() -> StepGraph {
        StepGraph::reference(&ModelConfig::paper(), 1)
    }

    #[test]
    fn components_are_nonnegative_and_bounded() {
        let g = graph();
        for dap in [2, 4, 8] {
            let b = ScalabilityBreakdown::compute(&g, 128, dap);
            assert!(b.actual_s > b.ideal_s, "dap {dap}");
            for v in [
                b.cpu_overhead_s,
                b.serial_modules_s,
                b.kernel_scalability_s,
                b.comm_overhead_s,
                b.imbalance_s,
            ] {
                assert!(v >= 0.0);
                assert!(v < b.actual_s);
            }
        }
    }

    #[test]
    fn imbalance_grows_with_dap_scale_relative() {
        // Figure 3: at larger DAP the imbalance share becomes substantial.
        let g = graph();
        let b2 = ScalabilityBreakdown::compute(&g, 128, 2);
        let b8 = ScalabilityBreakdown::compute(&g, 128, 8);
        let share = |b: &ScalabilityBreakdown| b.imbalance_s / b.actual_s;
        assert!(
            share(&b8) > share(&b2),
            "imbalance share dap8 {:.3} vs dap2 {:.3}",
            share(&b8),
            share(&b2)
        );
    }

    #[test]
    fn cpu_overhead_share_significant_at_small_dap() {
        let g = graph();
        let b2 = ScalabilityBreakdown::compute(&g, 128, 2);
        assert!(
            b2.cpu_overhead_s + b2.serial_modules_s > 0.1 * b2.gap_s(),
            "cpu {:.3} serial {:.3} gap {:.3}",
            b2.cpu_overhead_s,
            b2.serial_modules_s,
            b2.gap_s()
        );
    }

    #[test]
    fn baseline_dap_speedups_match_paper_band() {
        // Paper §3.1: DAP-2 1.42x, DAP-4 1.57x, DAP-8 no further gain.
        let g = graph();
        let t1 = ClusterSim::new(&g, ClusterConfig::eos(128, 1)).mean_step_s(40);
        let t2 = ClusterSim::new(&g, ClusterConfig::eos(128, 2)).mean_step_s(40);
        let t4 = ClusterSim::new(&g, ClusterConfig::eos(128, 4)).mean_step_s(40);
        let t8 = ClusterSim::new(&g, ClusterConfig::eos(128, 8)).mean_step_s(40);
        let (s2, s4, s8) = (t1 / t2, t1 / t4, t1 / t8);
        assert!((1.1..2.2).contains(&s2), "DAP-2 speedup {s2:.2}");
        assert!(s4 > s2, "DAP-4 {s4:.2} <= DAP-2 {s2:.2}");
        assert!((1.2..2.6).contains(&s4), "DAP-4 speedup {s4:.2}");
        // DAP-8 plateaus: within 25% of DAP-4.
        assert!(
            (s8 - s4).abs() / s4 < 0.35,
            "DAP-8 {s8:.2} should plateau near DAP-4 {s4:.2}"
        );
    }
}
