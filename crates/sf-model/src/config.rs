//! Model hyper-parameters.

use serde::{Deserialize, Serialize};

/// Number of amino-acid types (20 standard + unknown).
pub const NUM_AA_TYPES: usize = 21;

/// Extra per-position MSA feature channels (has-deletion flag, deletion
/// value) on top of the one-hot residue identity.
pub const MSA_EXTRA_CHANNELS: usize = 2;

/// Cluster-profile channels on the clustered MSA: the residue-type
/// distribution of the extra sequences assigned to each cluster
/// (`NUM_AA_TYPES`) plus the mean deletion value (1) — AlphaFold's cluster
/// featurization.
pub const MSA_PROFILE_CHANNELS: usize = NUM_AA_TYPES + 1;

/// Distogram bins used for template pair features and the distogram head.
pub const DISTOGRAM_BINS: usize = 15;

/// Hyper-parameters of the AlphaFold model.
///
/// Field names follow the AlphaFold supplementary notation (`c_m` = MSA
/// channel width, `c_z` = pair channel width, ...).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Cropped sequence length (residues), `N_res`.
    pub n_res: usize,
    /// Clustered MSA depth fed to the main Evoformer stack, `N_seq`.
    pub n_seq: usize,
    /// Extra (unclustered) MSA depth for the extra-MSA stack.
    pub n_extra_seq: usize,
    /// Number of templates.
    pub n_templates: usize,
    /// MSA representation channels.
    pub c_m: usize,
    /// Pair representation channels.
    pub c_z: usize,
    /// Single representation channels (structure module input).
    pub c_s: usize,
    /// Channels of the extra-MSA stack's MSA representation.
    pub c_e: usize,
    /// Template pair embedding channels.
    pub c_t: usize,
    /// Attention heads in MSA attention.
    pub msa_heads: usize,
    /// Attention heads in triangle/pair attention.
    pub pair_heads: usize,
    /// Per-head hidden width for MSA attention.
    pub c_hidden_msa: usize,
    /// Per-head hidden width for pair attention.
    pub c_hidden_pair: usize,
    /// Hidden channels of the triangle multiplicative updates.
    pub c_hidden_mul: usize,
    /// Hidden channels of the outer product mean (32 in AlphaFold).
    pub c_opm: usize,
    /// Expansion factor of the transition (feed-forward) layers.
    pub transition_factor: usize,
    /// Evoformer blocks in the main stack (48 in AlphaFold).
    pub evoformer_blocks: usize,
    /// Evoformer blocks in the extra-MSA stack (4 in AlphaFold).
    pub extra_msa_blocks: usize,
    /// Evoformer blocks in the template pair stack (2 in AlphaFold).
    pub template_blocks: usize,
    /// Structure module refinement layers (8 in AlphaFold).
    pub structure_layers: usize,
    /// Recycling iterations per training step.
    pub recycle_iters: usize,
    /// Run each Evoformer block as a gradient-checkpointed segment
    /// (OpenFold's memory workaround; ScaleFold disables it under DAP).
    pub gradient_checkpointing: bool,
    /// Dropout probability inside attention modules (0 disables).
    pub dropout: f32,
}

impl ModelConfig {
    /// AlphaFold's published dimensions: the workload the performance model
    /// costs out. Do **not** try to train this on a CPU.
    pub fn paper() -> Self {
        ModelConfig {
            n_res: 256,
            n_seq: 128,
            n_extra_seq: 1024,
            n_templates: 4,
            c_m: 256,
            c_z: 128,
            c_s: 384,
            c_e: 64,
            c_t: 64,
            msa_heads: 8,
            pair_heads: 4,
            c_hidden_msa: 32,
            c_hidden_pair: 32,
            c_hidden_mul: 128,
            c_opm: 32,
            transition_factor: 4,
            evoformer_blocks: 48,
            extra_msa_blocks: 4,
            template_blocks: 2,
            structure_layers: 8,
            recycle_iters: 3,
            gradient_checkpointing: true,
            dropout: 0.0,
        }
    }

    /// A CPU-trainable miniature with the identical topology.
    pub fn tiny() -> Self {
        ModelConfig {
            n_res: 12,
            n_seq: 4,
            n_extra_seq: 8,
            n_templates: 1,
            c_m: 16,
            c_z: 8,
            c_s: 16,
            c_e: 8,
            c_t: 8,
            msa_heads: 2,
            pair_heads: 2,
            c_hidden_msa: 4,
            c_hidden_pair: 4,
            c_hidden_mul: 8,
            c_opm: 4,
            transition_factor: 2,
            evoformer_blocks: 2,
            extra_msa_blocks: 1,
            template_blocks: 1,
            structure_layers: 2,
            recycle_iters: 1,
            gradient_checkpointing: false,
            dropout: 0.0,
        }
    }

    /// Per-position clustered-MSA feature width: one-hot identity +
    /// deletion channels + cluster profile (44 channels; AlphaFold uses a
    /// similar 49-channel layout).
    pub fn msa_feat_dim(&self) -> usize {
        NUM_AA_TYPES + MSA_EXTRA_CHANNELS + MSA_PROFILE_CHANNELS
    }

    /// Per-position extra-MSA feature width (no profile channels).
    pub fn extra_msa_feat_dim(&self) -> usize {
        NUM_AA_TYPES + MSA_EXTRA_CHANNELS
    }

    /// Per-position target feature width (one-hot residue identity).
    pub fn target_feat_dim(&self) -> usize {
        NUM_AA_TYPES
    }

    /// Approximate trainable parameter count for these dimensions
    /// (analytic; used as a sanity check against the paper's 97 M figure).
    pub fn approx_param_count(&self) -> usize {
        let evo = |c_m: usize, c_z: usize, cfg: &ModelConfig| -> usize {
            let att_msa = 4 * c_m * cfg.msa_heads * cfg.c_hidden_msa
                + cfg.msa_heads * cfg.c_hidden_msa * c_m
                + c_z * cfg.msa_heads;
            let att_col =
                4 * c_m * cfg.msa_heads * cfg.c_hidden_msa + cfg.msa_heads * cfg.c_hidden_msa * c_m;
            let msa_trans = 2 * c_m * c_m * cfg.transition_factor;
            let opm = 2 * c_m * cfg.c_opm + cfg.c_opm * cfg.c_opm * c_z;
            let tri_mul = 2 * (4 * c_z * cfg.c_hidden_mul + cfg.c_hidden_mul * c_z + c_z * c_z);
            let tri_att = 2
                * (4 * c_z * cfg.pair_heads * cfg.c_hidden_pair
                    + cfg.pair_heads * cfg.c_hidden_pair * c_z
                    + c_z * cfg.pair_heads);
            let pair_trans = 2 * c_z * c_z * cfg.transition_factor;
            att_msa + att_col + msa_trans + opm + tri_mul + tri_att + pair_trans
        };
        let main = self.evoformer_blocks * evo(self.c_m, self.c_z, self);
        let extra = self.extra_msa_blocks * evo(self.c_e, self.c_z, self);
        let templ = self.template_blocks * evo(self.c_t, self.c_t, self);
        let structure = self.structure_layers * (3 * self.c_s * self.c_s + self.c_s * 3);
        let embed =
            self.msa_feat_dim() * self.c_m + 2 * self.target_feat_dim() * self.c_z + 65 * self.c_z;
        main + extra + templ + structure + embed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_dimensions() {
        let c = ModelConfig::paper();
        assert_eq!(c.evoformer_blocks, 48);
        assert_eq!(c.c_m, 256);
        assert_eq!(c.c_z, 128);
        assert_eq!(c.n_res, 256);
    }

    #[test]
    fn paper_param_count_order_of_magnitude() {
        // AlphaFold has ~97M parameters; our analytic estimate of the same
        // dimensions must land in the tens of millions (the estimate omits
        // some heads/embedders, so accept a broad band around it).
        let c = ModelConfig::paper();
        let n = c.approx_param_count();
        assert!(
            (30_000_000..200_000_000).contains(&n),
            "estimated {n} params"
        );
    }

    #[test]
    fn tiny_is_much_smaller() {
        assert!(ModelConfig::tiny().approx_param_count() < 1_000_000);
    }

    #[test]
    fn feature_dims() {
        let c = ModelConfig::tiny();
        assert_eq!(c.msa_feat_dim(), 45);
        assert_eq!(c.extra_msa_feat_dim(), 23);
        assert_eq!(c.target_feat_dim(), 21);
    }
}
