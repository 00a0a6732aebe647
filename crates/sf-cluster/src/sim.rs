//! The per-step cluster simulation: DP × DAP grid, compute + collectives +
//! stragglers, with the synchronization semantics that make one slow worker
//! everyone's problem.

use crate::fabric::FabricSpec;
use crate::straggler::{DataPipeState, StragglerModel};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sf_data::{PrepTimeModel, SyntheticDataset};
use sf_gpusim::{CpuModel, DeviceSpec};
use sf_opgraph::builder::StepGraph;
use sf_opgraph::dap::{shard, DapCommPlan};
use sf_opgraph::profile::step_time;

/// Cluster/job configuration for one training setup.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// GPU model.
    pub device: DeviceSpec,
    /// Interconnect.
    pub fabric: FabricSpec,
    /// Data-parallel degree (number of sample groups; global batch size).
    pub dp: usize,
    /// DAP degree inside each group (GPUs cooperating on one sample).
    pub dap: usize,
    /// Capture the step in CUDA graphs.
    pub cuda_graph: bool,
    /// Gradients communicated in bf16 (halves all-reduce bytes).
    pub bf16_comm: bool,
    /// Fraction of the gradient all-reduce overlapped with backward
    /// compute (PyTorch DDP bucketing achieves ~0.5 for this model).
    pub overlap_fraction: f64,
    /// Apply Triton-style autotuning to the fused kernels after DAP
    /// sharding (§3.3.2).
    pub autotune: bool,
    /// Sample the per-step recycling count uniformly from 0..=3 (the
    /// AlphaFold training recipe) instead of a fixed count. Varies compute
    /// per DP group and, under CUDA graphs, exercises the shape-keyed
    /// graph cache: the first sighting of each recycling count per group
    /// pays a capture.
    pub variable_recycling: bool,
    /// Straggler injection model.
    pub straggler: StragglerModel,
    /// RNG seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// MLPerf-style baseline on H100s/Eos at `dp × dap` ranks.
    pub fn eos(dp: usize, dap: usize) -> Self {
        ClusterConfig {
            device: DeviceSpec::h100(),
            fabric: FabricSpec::eos(),
            dp,
            dap,
            cuda_graph: false,
            bf16_comm: false,
            overlap_fraction: 0.5,
            autotune: false,
            variable_recycling: false,
            straggler: StragglerModel::baseline(),
            seed: 0x5CA1EF01D,
        }
    }

    /// Total GPU count.
    pub fn total_ranks(&self) -> usize {
        self.dp * self.dap
    }
}

/// Mean per-step timing decomposition over a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StepBreakdown {
    /// On-GPU compute (including exposed CPU launch overhead), seconds.
    pub compute_s: f64,
    /// Data-pipeline wait, seconds.
    pub data_wait_s: f64,
    /// DAP collective cost (balanced part), seconds.
    pub dap_comm_s: f64,
    /// Extra time from stragglers forcing synchronization waits, seconds.
    pub imbalance_s: f64,
    /// Exposed (non-overlapped) gradient all-reduce, seconds.
    pub dp_comm_s: f64,
    /// Total step wall-clock, seconds.
    pub total_s: f64,
}

/// The simulator: owns the (already-fused or reference) step graph and the
/// cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    cfg: ClusterConfig,
    /// Per-rank compute time for one step (graph DAP-sharded).
    base_compute_s: f64,
    /// DAP collective plan.
    dap_plan: DapCommPlan,
    /// Gradient bytes all-reduced across DP ranks.
    grad_bytes: f64,
    dataset: SyntheticDataset,
    prep: PrepTimeModel,
}

impl ClusterSim {
    /// Builds a simulator for `graph` (unsharded; the simulator applies
    /// DAP-`cfg.dap` itself) under `cfg`.
    pub fn new(graph: &StepGraph, cfg: ClusterConfig) -> Self {
        let mut sharded = shard(graph, cfg.dap);
        if cfg.autotune {
            sharded = sf_opgraph::fusion::autotune_fused(&sharded, &cfg.device).0;
        }
        let cpu = CpuModel::healthy();
        let stats = step_time(&sharded, &cfg.device, cpu, cfg.cuda_graph);
        let dap_plan = DapCommPlan::from_graph(graph, cfg.dap);
        let grad_bytes = graph.param_elements * if cfg.bf16_comm { 2.0 } else { 4.0 };
        ClusterSim {
            base_compute_s: stats.total_s,
            dap_plan,
            grad_bytes,
            dataset: SyntheticDataset::new(cfg.seed ^ 0xDA7A, 4096),
            prep: PrepTimeModel::default(),
            cfg,
        }
    }

    /// The cluster configuration this simulator was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The per-rank compute time (no communication, no stragglers).
    pub fn base_compute_s(&self) -> f64 {
        self.base_compute_s
    }

    /// Balanced DAP collective cost per step.
    pub fn dap_comm_s(&self) -> f64 {
        self.dap_plan.events as f64
            * self
                .cfg
                .fabric
                .all_gather_s(self.dap_plan.bytes_per_event, self.cfg.dap)
    }

    /// Exposed (non-overlapped) gradient all-reduce cost per step.
    pub fn dp_comm_exposed_s(&self) -> f64 {
        let full = self.cfg.fabric.all_reduce_s(self.grad_bytes, self.cfg.dp);
        full * (1.0 - self.cfg.overlap_fraction)
    }

    /// Simulates `steps` training steps; returns per-step breakdowns.
    ///
    /// Synchronization semantics: within a DAP group every collective waits
    /// for the slowest member, so the group's step is delayed by the *max*
    /// of its members' host delays; the global gradient all-reduce then
    /// waits for the slowest group.
    pub fn simulate(&self, steps: u64) -> Vec<StepBreakdown> {
        let dap_comm = self.dap_comm_s();
        let dp_comm = self.dp_comm_exposed_s();
        let mut out = Vec::with_capacity(steps as usize);
        // Per-group RNGs and persistent loader queues: group = dp index.
        let mut group_rngs: Vec<_> = (0..self.cfg.dp)
            .map(|g| StragglerModel::rank_rng(self.cfg.seed, g))
            .collect();
        let mut pipes = vec![DataPipeState::new(); self.cfg.dp];
        // Per-group CUDA-graph caches keyed by recycling count (§3.2's
        // "capture multiple graphs for different recycling scenarios").
        let mut captured: Vec<[bool; 4]> = vec![[false; 4]; self.cfg.dp];
        for step in 0..steps {
            let mut slowest_group = 0.0f64;
            let mut sum_groups = 0.0f64;
            let mut max_data_wait = 0.0f64;
            for ((g_idx, rng), pipe) in group_rngs.iter_mut().enumerate().zip(pipes.iter_mut()) {
                // Host delay: max over the DAP group members. CUDA-graph
                // replay decouples the GPU from the host, so CPU peaks and
                // GC pauses barely touch the step (§3.2: "greatly improves
                // training performance robustness against CPU usage
                // peaks"); only a small residual (data handoff) remains.
                let host_scale = if self.cfg.cuda_graph { 0.15 } else { 1.0 };
                let host: f64 = (0..self.cfg.dap)
                    .map(|_| self.cfg.straggler.host_delay_s(rng, step) * host_scale)
                    .fold(0.0, f64::max);
                let prep = StragglerModel::sample_prep_s(&self.dataset, &self.prep, rng);
                let data = pipe.step(&self.cfg.straggler, prep, self.base_compute_s);
                // Recycling variability: the base graph is costed at one
                // warm forward; each forward is ~28% of the step, so the
                // per-step compute scales with the sampled count.
                let mut compute = self.base_compute_s;
                if self.cfg.variable_recycling {
                    let r = (rng.gen::<f64>() * 4.0).floor().min(3.0) as usize;
                    compute *= 1.0 + 0.28 * (r as f64 - 1.0);
                    if self.cfg.cuda_graph && !captured[g_idx][r] {
                        // First sighting of this shape: capture (one eager
                        // pass) before the graph can replay.
                        captured[g_idx][r] = true;
                        compute *= 2.0;
                    }
                }
                let group_time = compute + host + data + dap_comm;
                slowest_group = slowest_group.max(group_time);
                sum_groups += group_time;
                max_data_wait = max_data_wait.max(data);
            }
            let mean_group = sum_groups / self.cfg.dp as f64;
            let total = slowest_group + dp_comm;
            out.push(StepBreakdown {
                compute_s: self.base_compute_s,
                data_wait_s: max_data_wait,
                dap_comm_s: dap_comm,
                imbalance_s: slowest_group - mean_group,
                dp_comm_s: dp_comm,
                total_s: total,
            });
        }
        out
    }

    /// Mean step time over `steps` simulated steps.
    pub fn mean_step_s(&self, steps: u64) -> f64 {
        let runs = self.simulate(steps);
        runs.iter().map(|b| b.total_s).sum::<f64>() / runs.len().max(1) as f64
    }

    /// Mean breakdown over `steps`.
    pub fn mean_breakdown(&self, steps: u64) -> StepBreakdown {
        let runs = self.simulate(steps);
        let n = runs.len().max(1) as f64;
        let mut acc = StepBreakdown::default();
        for b in &runs {
            acc.compute_s += b.compute_s / n;
            acc.data_wait_s += b.data_wait_s / n;
            acc.dap_comm_s += b.dap_comm_s / n;
            acc.imbalance_s += b.imbalance_s / n;
            acc.dp_comm_s += b.dp_comm_s / n;
            acc.total_s += b.total_s / n;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_model::ModelConfig;

    fn graph() -> StepGraph {
        StepGraph::reference(&ModelConfig::paper(), 1)
    }

    #[test]
    fn dap_reduces_compute_but_adds_comm() {
        let g = graph();
        let s1 = ClusterSim::new(&g, ClusterConfig::eos(16, 1));
        let s4 = ClusterSim::new(&g, ClusterConfig::eos(16, 4));
        assert!(s4.base_compute_s() < s1.base_compute_s());
        assert_eq!(s1.dap_comm_s(), 0.0);
        assert!(s4.dap_comm_s() > 0.0);
    }

    #[test]
    fn bigger_dp_does_not_change_per_step_compute() {
        let g = graph();
        let a = ClusterSim::new(&g, ClusterConfig::eos(8, 2));
        let b = ClusterSim::new(&g, ClusterConfig::eos(64, 2));
        assert!((a.base_compute_s() - b.base_compute_s()).abs() < 1e-9);
        // But the bigger job suffers more imbalance (more chances for a
        // straggler among more groups).
        let ia = a.mean_breakdown(40).imbalance_s;
        let ib = b.mean_breakdown(40).imbalance_s;
        assert!(ib > ia, "imbalance dp8 {ia:.3} vs dp64 {ib:.3}");
    }

    #[test]
    fn non_blocking_pipeline_removes_data_waits() {
        let g = graph();
        let mut cfg = ClusterConfig::eos(32, 2);
        cfg.straggler = StragglerModel::baseline();
        let blocking = ClusterSim::new(&g, cfg.clone()).mean_breakdown(60);
        cfg.straggler.non_blocking_pipeline = true;
        let non_blocking = ClusterSim::new(&g, cfg).mean_breakdown(60);
        assert!(
            non_blocking.data_wait_s < 0.25 * blocking.data_wait_s + 1e-9,
            "nb {:.3} vs b {:.3}",
            non_blocking.data_wait_s,
            blocking.data_wait_s
        );
        assert!(non_blocking.total_s < blocking.total_s);
    }

    #[test]
    fn cuda_graph_shrinks_step_under_dap() {
        let g = graph();
        let mut cfg = ClusterConfig::eos(16, 8);
        cfg.straggler = StragglerModel::none();
        let eager = ClusterSim::new(&g, cfg.clone()).base_compute_s();
        cfg.cuda_graph = true;
        let graphed = ClusterSim::new(&g, cfg).base_compute_s();
        assert!(graphed < eager, "graph {graphed:.3} vs eager {eager:.3}");
    }

    #[test]
    fn bf16_comm_halves_allreduce() {
        let g = graph();
        let mut cfg = ClusterConfig::eos(128, 1);
        cfg.overlap_fraction = 0.0;
        let f32c = ClusterSim::new(&g, cfg.clone()).dp_comm_exposed_s();
        cfg.bf16_comm = true;
        let bf16c = ClusterSim::new(&g, cfg).dp_comm_exposed_s();
        assert!(bf16c < 0.70 * f32c, "bf16 {bf16c:.4} vs f32 {f32c:.4}");
        assert!(bf16c > 0.40 * f32c); // latency term does not shrink
    }

    #[test]
    fn simulation_is_deterministic() {
        let g = graph();
        let sim = ClusterSim::new(&g, ClusterConfig::eos(8, 2));
        assert_eq!(sim.simulate(10), sim.simulate(10));
    }

    #[test]
    fn variable_recycling_adds_imbalance() {
        let g = graph();
        let mut cfg = ClusterConfig::eos(32, 1);
        cfg.straggler = crate::StragglerModel::none();
        let fixed = ClusterSim::new(&g, cfg.clone()).mean_breakdown(60);
        cfg.variable_recycling = true;
        let varied = ClusterSim::new(&g, cfg).mean_breakdown(60);
        assert!(
            varied.imbalance_s > fixed.imbalance_s + 0.01,
            "varied {:.3} vs fixed {:.3}",
            varied.imbalance_s,
            fixed.imbalance_s
        );
    }

    #[test]
    fn graph_capture_cost_amortizes() {
        // With CUDA graphs + variable recycling, early steps pay captures
        // (one per recycling shape per group); later steps are all hits.
        let g = graph();
        let mut cfg = ClusterConfig::eos(4, 1);
        cfg.straggler = crate::StragglerModel::none();
        cfg.cuda_graph = true;
        cfg.variable_recycling = true;
        let sim = ClusterSim::new(&g, cfg);
        let runs = sim.simulate(80);
        let early: f64 = runs[..10].iter().map(|b| b.total_s).sum::<f64>() / 10.0;
        let late: f64 = runs[70..].iter().map(|b| b.total_s).sum::<f64>() / 10.0;
        assert!(
            late < early,
            "steady-state {late:.3} should beat warm-up {early:.3}"
        );
    }

    #[test]
    fn totals_compose_from_parts() {
        let g = graph();
        let sim = ClusterSim::new(&g, ClusterConfig::eos(4, 2));
        for b in sim.simulate(20) {
            assert!(b.total_s >= b.compute_s + b.dap_comm_s + b.dp_comm_s - 1e-9);
            assert!(b.imbalance_s >= 0.0);
        }
    }
}
