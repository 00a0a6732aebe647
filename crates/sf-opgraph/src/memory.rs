//! GPU-memory footprint model — the paper's "High Memory Consumption"
//! challenge (§2.2): AlphaFold has only 97M parameters, but Evoformer
//! activations are `O(n³)` per attention call, so without gradient
//! checkpointing the training state of even one sample does not fit in a
//! single GPU. DAP shards those activations, which is what lets ScaleFold
//! *disable* checkpointing (§4.1).

use serde::{Deserialize, Serialize};
use sf_gpusim::DeviceSpec;
use sf_model::ModelConfig;

/// Bytes in one GiB.
const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Estimated training-memory footprint of one rank, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryFootprint {
    /// Parameters + gradients + Adam moments + SWA average (5 copies).
    pub states_bytes: f64,
    /// Activations retained for backward.
    pub activations_bytes: f64,
    /// Workspace / fragmentation / NCCL buffers allowance.
    pub overhead_bytes: f64,
}

impl MemoryFootprint {
    /// Total bytes.
    pub fn total_bytes(&self) -> f64 {
        self.states_bytes + self.activations_bytes + self.overhead_bytes
    }

    /// Total GiB.
    pub fn total_gib(&self) -> f64 {
        self.total_bytes() / GIB
    }

    /// True if this footprint fits on `device`.
    pub fn fits(&self, device: &DeviceSpec) -> bool {
        self.total_gib() <= device.mem_capacity_gib
    }
}

/// Estimates the per-rank memory footprint.
///
/// Activation accounting: for every attention call the logits matrix
/// (`O(n³)` for the triangle attentions: rows × res × res) plus the
/// persistent m/z activations per block, all retained for backward when
/// `checkpointing` is off; with checkpointing only per-block boundary
/// tensors persist. DAP divides the activation term by `dap`.
pub fn estimate(cfg: &ModelConfig, dap: usize, checkpointing: bool, bf16: bool) -> MemoryFootprint {
    let elem = if bf16 { 2.0 } else { 4.0 };
    let params = cfg.approx_param_count() as f64;
    // Parameters live in fp32 master copies regardless; grads/moments too.
    let states_bytes = params * 4.0 * 5.0;

    let (s, r) = (cfg.n_seq as f64, cfg.n_res as f64);
    let s_e = cfg.n_extra_seq as f64;
    let h = cfg.msa_heads as f64;
    let hp = cfg.pair_heads as f64;

    // Per-block retained activations (forward values needed by backward).
    let m_act = s * r * cfg.c_m as f64;
    let z_act = r * r * cfg.c_z as f64;
    // Attention logits: MSA row (s·h·r·r), MSA col (r·h·s·s), two triangle
    // attentions (r·hp·r·r each) — the O(n^3) terms. Backward needs both
    // the post-bias logits and the softmax probabilities, plus the dropout
    // mask on the probabilities: ~2.5 retained copies per call.
    let logits = 2.5 * (s * h * r * r + r * h * s * s + 2.0 * r * hp * r * r);
    // Transitions: 4x-expanded hidden activations.
    let transitions =
        (s * r * cfg.c_m as f64 + r * r * cfg.c_z as f64) * cfg.transition_factor as f64;
    // Triangle-mult hidden channels.
    let tri_mul = 2.0 * r * r * cfg.c_hidden_mul as f64;
    let per_block = (4.0 * m_act + 6.0 * z_act + logits + transitions + tri_mul) * elem;

    let blocks = cfg.evoformer_blocks as f64;
    let extra_blocks = cfg.extra_msa_blocks as f64;
    let extra_per_block = {
        let m_e = s_e * r * cfg.c_e as f64;
        let logits_e = s_e * h * r * r + r * h * s_e * s_e;
        (4.0 * m_e + 6.0 * z_act + logits_e + transitions) * elem
    };

    let activations_full = blocks * per_block + extra_blocks * extra_per_block;
    let activations_ckpt = (blocks + extra_blocks) * (m_act + z_act) * elem + per_block;
    let mut activations_bytes = if checkpointing {
        activations_ckpt
    } else {
        activations_full
    };
    activations_bytes /= dap.max(1) as f64;

    MemoryFootprint {
        states_bytes,
        activations_bytes,
        overhead_bytes: 6.0 * GIB,
    }
}

/// Whether checkpointing can be disabled for `(cfg, dap, bf16)` on `device`
/// — the gate ScaleFold's DAP opens (§4.1).
pub fn fits_without_checkpointing(
    cfg: &ModelConfig,
    dap: usize,
    bf16: bool,
    device: &DeviceSpec,
) -> bool {
    estimate(cfg, dap, false, bf16).fits(device)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_without_ckpt_needs_dap() {
        // The paper's §4.1: only after applying DAP could checkpointing be
        // disabled. At DAP-1 the full activation set must NOT fit; at DAP-8
        // it must.
        let cfg = ModelConfig::paper();
        let dev = DeviceSpec::h100();
        assert!(
            !fits_without_checkpointing(&cfg, 1, true, &dev),
            "DAP-1 without checkpointing should blow 80 GiB: {:.1} GiB",
            estimate(&cfg, 1, false, true).total_gib()
        );
        assert!(
            fits_without_checkpointing(&cfg, 8, true, &dev),
            "DAP-8 without checkpointing should fit: {:.1} GiB",
            estimate(&cfg, 8, false, true).total_gib()
        );
    }

    #[test]
    fn checkpointing_fits_even_at_dap1() {
        // OpenFold's actual configuration: checkpointing on, single GPU.
        let cfg = ModelConfig::paper();
        let dev = DeviceSpec::a100();
        let f = estimate(&cfg, 1, true, true);
        assert!(
            f.fits(&dev),
            "checkpointed footprint {:.1} GiB",
            f.total_gib()
        );
    }

    #[test]
    fn activations_dwarf_parameters_without_ckpt() {
        // The paper: 97M parameters but "the volume of intermediate
        // activations during training is enormous".
        let cfg = ModelConfig::paper();
        let f = estimate(&cfg, 1, false, false);
        assert!(
            f.activations_bytes > 10.0 * f.states_bytes,
            "activations {:.1} GiB vs states {:.1} GiB",
            f.activations_bytes / GIB,
            f.states_bytes / GIB
        );
    }

    #[test]
    fn dap_divides_activations_linearly() {
        let cfg = ModelConfig::paper();
        let f1 = estimate(&cfg, 1, false, false);
        let f4 = estimate(&cfg, 4, false, false);
        let ratio = f1.activations_bytes / f4.activations_bytes;
        assert!((ratio - 4.0).abs() < 1e-9);
        // States do not shard under DAP (replicated parameters).
        assert_eq!(f1.states_bytes, f4.states_bytes);
    }

    #[test]
    fn bf16_halves_activations_only() {
        let cfg = ModelConfig::paper();
        let f32f = estimate(&cfg, 1, false, false);
        let bf16f = estimate(&cfg, 1, false, true);
        assert!((bf16f.activations_bytes - 0.5 * f32f.activations_bytes).abs() < 1.0);
        assert_eq!(bf16f.states_bytes, f32f.states_bytes);
    }
}
