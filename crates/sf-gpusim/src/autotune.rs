//! Triton-style autotuning: grid search over tile configurations against
//! the analytic kernel model.
//!
//! The paper (§3.3.2): "the OpenAI Triton compiler's auto tuning ability was
//! exploited to search for the optimal hyper-parameters for all workload
//! sizes that appear and target GPU architectures... particularly useful
//! when workload sizes were scaled down by DAP."

use crate::device::DeviceSpec;
use crate::kernel::Kernel;
use serde::{Deserialize, Serialize};

/// A candidate tiling / launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileConfig {
    /// Rows processed per thread block.
    pub block_m: usize,
    /// Columns processed per thread block per pass.
    pub block_n: usize,
    /// Warps per thread block.
    pub num_warps: usize,
}

impl TileConfig {
    /// The default (untuned) configuration Triton would start from.
    pub fn default_config() -> Self {
        TileConfig {
            block_m: 1,
            block_n: 128,
            num_warps: 4,
        }
    }
}

/// A tileable memory-bound kernel shape: `rows` independent rows of `cols`
/// elements (LayerNorm rows, attention query rows, ...).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelTemplate {
    /// Kernel name.
    pub name: String,
    /// Independent rows in the problem.
    pub rows: usize,
    /// Elements per row.
    pub cols: usize,
    /// Bytes moved per element (read + write, accounting precision).
    pub bytes_per_element: f64,
}

impl KernelTemplate {
    /// A LayerNorm-shaped problem.
    pub fn layer_norm(rows: usize, cols: usize, bytes_per_element: f64) -> Self {
        KernelTemplate {
            name: format!("layernorm_{rows}x{cols}"),
            rows,
            cols,
            bytes_per_element,
        }
    }

    /// Total bytes of useful traffic.
    pub fn useful_bytes(&self) -> f64 {
        self.rows as f64 * self.cols as f64 * self.bytes_per_element
    }

    /// Materializes a [`Kernel`] for a given config on a device.
    ///
    /// The model captures the three effects the paper's hand-tuned kernels
    /// exploit:
    /// - **wasted traffic**: row-padding in the last block and column tiles
    ///   wider than the row inflate the bytes actually moved;
    /// - **latency hiding**: memory latency is hidden *either* by enough
    ///   resident blocks (big launches) *or* by per-lane instruction-level
    ///   parallelism (≥4 elements per lane) — DAP-shrunk launches have few
    ///   blocks, so multi-row tiles (`block_m > 1`) restore the hiding;
    /// - **register pressure**: too many elements per lane spills.
    pub fn instantiate(&self, cfg: TileConfig, device: &DeviceSpec) -> Kernel {
        let blocks = self.rows.div_ceil(cfg.block_m.max(1)).max(1);
        // Row padding waste: the last block processes padding rows.
        let row_waste = (blocks * cfg.block_m) as f64 / self.rows.max(1) as f64;
        // Column tile waste: a tile wider than the row reads padding.
        let col_waste = if cfg.block_n > self.cols {
            cfg.block_n as f64 / self.cols.max(1) as f64
        } else {
            1.0
        };
        let bytes = self.useful_bytes() * row_waste * col_waste;

        let lanes = (32 * cfg.num_warps) as f64;
        let work = (cfg.block_m * cfg.block_n.min(self.cols.max(1))) as f64;
        let per_lane = work / lanes;
        // ILP-based hiding: want ≥4 elements in flight per lane.
        let ilp = (per_lane / 4.0).clamp(0.25, 1.0);
        // Block-count-based hiding: a launch with blocks ≫ SMs hides latency
        // regardless of per-lane ILP.
        let block_hiding = (blocks as f64 / (device.sm_count * 64) as f64).clamp(0.0, 1.0);
        let hiding = ilp.max(block_hiding);
        // Register pressure: too much work per lane causes spills.
        let spill = if per_lane > 64.0 {
            64.0 / per_lane
        } else {
            1.0
        };
        let efficiency = (0.85 * hiding * spill).clamp(0.01, 1.0);

        // Parallelism for bandwidth occupancy: row-level parallelism is
        // preserved by multi-row blocks (each row streams independently).
        let parallelism = (blocks * cfg.block_m).min(self.rows.max(1));
        Kernel::memory(self.name.clone(), bytes, parallelism).with_efficiency(efficiency)
    }

    /// Modeled duration under `cfg` on `device`, including per-block
    /// scheduling cost (many tiny blocks pay dispatch overhead).
    pub fn duration_s(&self, cfg: TileConfig, device: &DeviceSpec) -> f64 {
        let blocks = self.rows.div_ceil(cfg.block_m.max(1)).max(1);
        // Per-block dispatch cost: tiny (~50 ps effective across the whole
        // chip), acts mostly as a tie-breaker towards fewer, fatter blocks.
        let sched = blocks as f64 * 5e-11;
        self.instantiate(cfg, device).duration_s(device) + sched
    }
}

/// The search space Triton-style autotuning sweeps.
pub fn search_space() -> Vec<TileConfig> {
    let mut out = Vec::new();
    for &block_m in &[1usize, 2, 4, 8, 16, 32] {
        for &block_n in &[32usize, 64, 128, 256, 512] {
            for &num_warps in &[1usize, 2, 4, 8] {
                out.push(TileConfig {
                    block_m,
                    block_n,
                    num_warps,
                });
            }
        }
    }
    out
}

/// Grid-searches the space, returning the best config and its modeled time.
pub fn autotune(template: &KernelTemplate, device: &DeviceSpec) -> (TileConfig, f64) {
    let mut best = (TileConfig::default_config(), f64::INFINITY);
    for cfg in search_space() {
        let t = template.duration_s(cfg, device);
        if t < best.1 {
            best = (cfg, t);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_never_loses_to_default() {
        let dev = DeviceSpec::h100();
        for (rows, cols) in [(256 * 256, 128), (4096, 256), (128, 64), (64, 128)] {
            let t = KernelTemplate::layer_norm(rows, cols, 8.0);
            let (best, t_best) = autotune(&t, &dev);
            let t_default = t.duration_s(TileConfig::default_config(), &dev);
            assert!(
                t_best <= t_default + 1e-12,
                "{rows}x{cols}: tuned {t_best} vs default {t_default} (cfg {best:?})"
            );
        }
    }

    #[test]
    fn small_problems_prefer_multi_row_blocks() {
        // The paper's LN kernel lets each thread block process multiple
        // rows precisely because DAP-shrunk problems under-fill the GPU.
        let dev = DeviceSpec::h100();
        let small = KernelTemplate::layer_norm(512, 128, 8.0); // DAP-shrunk
        let (best_small, _) = autotune(&small, &dev);
        assert!(
            best_small.block_m > 1,
            "small problem should batch rows per block, got {best_small:?}"
        );
    }

    #[test]
    fn tuning_gain_larger_for_dap_shrunk_problems() {
        let dev = DeviceSpec::h100();
        let big = KernelTemplate::layer_norm(128 * 256 * 8, 128, 8.0);
        let small = KernelTemplate::layer_norm(128 * 256 / 8, 128, 8.0);
        let gain = |t: &KernelTemplate| {
            let (_, tuned) = autotune(t, &dev);
            t.duration_s(TileConfig::default_config(), &dev) / tuned
        };
        let g_big = gain(&big);
        let g_small = gain(&small);
        assert!(
            g_small > g_big,
            "tuning gain small {g_small:.2} must exceed big {g_big:.2}"
        );
    }

    #[test]
    fn oversized_column_tiles_waste_bandwidth() {
        let t = KernelTemplate::layer_norm(1024, 64, 8.0);
        let dev = DeviceSpec::h100();
        let narrow = t.instantiate(
            TileConfig {
                block_m: 4,
                block_n: 64,
                num_warps: 4,
            },
            &dev,
        );
        let wide = t.instantiate(
            TileConfig {
                block_m: 4,
                block_n: 512,
                num_warps: 4,
            },
            &dev,
        );
        assert!(wide.bytes > 4.0 * narrow.bytes);
    }

    #[test]
    fn autotune_is_deterministic() {
        let dev = DeviceSpec::a100();
        let t = KernelTemplate::layer_norm(1000, 256, 8.0);
        assert_eq!(autotune(&t, &dev).0, autotune(&t, &dev).0);
    }

    #[test]
    fn best_config_can_differ_across_devices_or_sizes() {
        let dev = DeviceSpec::h100();
        let t_small = KernelTemplate::layer_norm(256, 128, 8.0);
        let t_big = KernelTemplate::layer_norm(1_000_000, 128, 8.0);
        let (c_small, _) = autotune(&t_small, &dev);
        let (c_big, _) = autotune(&t_big, &dev);
        // Not a strict requirement that they differ, but the search must
        // produce valid members of the space.
        assert!(search_space().contains(&c_small));
        assert!(search_space().contains(&c_big));
    }
}
