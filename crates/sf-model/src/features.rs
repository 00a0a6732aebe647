//! Model input features — the contract between the data pipeline and the
//! model.

use crate::config::{ModelConfig, DISTOGRAM_BINS, NUM_AA_TYPES};
use sf_tensor::{Tensor, TensorError};

/// One featurized training sample (a crop), as produced by the `sf-data`
/// pipeline and consumed by [`crate::AlphaFold::forward`].
#[derive(Debug, Clone)]
pub struct FeatureBatch {
    /// Target sequence one-hot, `[n_res, NUM_AA_TYPES]`.
    pub target_feat: Tensor,
    /// Clustered MSA features (one-hot + deletions + cluster profile),
    /// `[n_seq, n_res, ModelConfig::msa_feat_dim()]`.
    pub msa_feat: Tensor,
    /// Extra MSA features, `[n_extra_seq, n_res, extra_msa_feat_dim()]`.
    pub extra_msa_feat: Tensor,
    /// Template pair features (distogram one-hot),
    /// `[n_templates, n_res, n_res, DISTOGRAM_BINS]`.
    pub template_feat: Tensor,
    /// Ground-truth Cα coordinates in Å, `[n_res, 3]`.
    pub true_coords: Tensor,
    /// Per-residue resolution mask, `[n_res]` (1 = resolved).
    pub residue_mask: Tensor,
    /// Masked-MSA reconstruction targets: true residue identities at masked
    /// positions, `[n_seq, n_res]` as class indices (`-1` where not masked).
    pub masked_msa_targets: Tensor,
    /// Residue indices after cropping (for relative positional encoding),
    /// `[n_res]`.
    pub residue_index: Tensor,
}

impl FeatureBatch {
    /// Validates shapes against a config.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] naming the offending feature.
    pub fn validate(&self, cfg: &ModelConfig) -> Result<(), TensorError> {
        let checks: [(&str, &Tensor, Vec<usize>); 7] = [
            (
                "target_feat",
                &self.target_feat,
                vec![cfg.n_res, NUM_AA_TYPES],
            ),
            (
                "msa_feat",
                &self.msa_feat,
                vec![cfg.n_seq, cfg.n_res, cfg.msa_feat_dim()],
            ),
            (
                "extra_msa_feat",
                &self.extra_msa_feat,
                vec![cfg.n_extra_seq, cfg.n_res, cfg.extra_msa_feat_dim()],
            ),
            (
                "template_feat",
                &self.template_feat,
                vec![cfg.n_templates, cfg.n_res, cfg.n_res, DISTOGRAM_BINS],
            ),
            ("true_coords", &self.true_coords, vec![cfg.n_res, 3]),
            ("residue_mask", &self.residue_mask, vec![cfg.n_res]),
            ("residue_index", &self.residue_index, vec![cfg.n_res]),
        ];
        for (name, t, dims) in checks {
            if t.dims() != dims.as_slice() {
                return Err(TensorError::ShapeMismatch {
                    op: Box::leak(name.to_string().into_boxed_str()),
                    lhs: dims,
                    rhs: t.dims().to_vec(),
                });
            }
        }
        Ok(())
    }

    /// A deterministic random batch matching `cfg` — handy for tests and
    /// shape-only benchmarks. Coordinates form a smooth helix-like curve so
    /// distance-based losses are well-conditioned.
    pub fn synthetic(cfg: &ModelConfig, seed: u64) -> Self {
        let n = cfg.n_res;
        let mut coords = Tensor::zeros(&[n, 3]);
        for i in 0..n {
            let t = i as f32 * 0.6;
            coords.data_mut()[i * 3] = 4.0 * t.cos() + 0.3 * (seed % 7) as f32;
            coords.data_mut()[i * 3 + 1] = 4.0 * t.sin();
            coords.data_mut()[i * 3 + 2] = 1.5 * i as f32;
        }
        let aa = |s: u64| -> Tensor {
            // Rough one-hot: pick a residue type per position.
            let mut t = Tensor::zeros(&[n, NUM_AA_TYPES]);
            for i in 0..n {
                let ty = ((i as u64 * 7 + s * 13 + 3) % NUM_AA_TYPES as u64) as usize;
                t.data_mut()[i * NUM_AA_TYPES + ty] = 1.0;
            }
            t
        };
        let msa = |rows: usize, w: usize, s: u64| -> Tensor {
            let mut t = Tensor::zeros(&[rows, n, w]);
            for r in 0..rows {
                for i in 0..n {
                    let ty = ((i as u64 * 7 + r as u64 * 31 + s) % NUM_AA_TYPES as u64) as usize;
                    t.data_mut()[(r * n + i) * w + ty] = 1.0;
                }
            }
            t
        };
        FeatureBatch {
            target_feat: aa(seed),
            msa_feat: msa(cfg.n_seq, cfg.msa_feat_dim(), seed),
            extra_msa_feat: msa(cfg.n_extra_seq, cfg.extra_msa_feat_dim(), seed ^ 0x5555),
            template_feat: Tensor::rand_uniform(
                &[cfg.n_templates, n, n, DISTOGRAM_BINS],
                0.0,
                0.2,
                seed ^ 0xAAAA,
            ),
            true_coords: coords,
            residue_mask: Tensor::ones(&[n]),
            masked_msa_targets: Tensor::full(&[cfg.n_seq, n], -1.0),
            residue_index: Tensor::arange(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_batch_validates() {
        let cfg = ModelConfig::tiny();
        let b = FeatureBatch::synthetic(&cfg, 3);
        b.validate(&cfg).unwrap();
    }

    #[test]
    fn validate_catches_wrong_shape() {
        let cfg = ModelConfig::tiny();
        let mut b = FeatureBatch::synthetic(&cfg, 3);
        b.true_coords = Tensor::zeros(&[cfg.n_res + 1, 3]);
        assert!(b.validate(&cfg).is_err());
    }

    #[test]
    fn synthetic_is_deterministic() {
        let cfg = ModelConfig::tiny();
        let a = FeatureBatch::synthetic(&cfg, 9);
        let b = FeatureBatch::synthetic(&cfg, 9);
        assert_eq!(a.msa_feat, b.msa_feat);
        assert_eq!(a.true_coords, b.true_coords);
    }

    #[test]
    fn coords_are_spread_out() {
        let cfg = ModelConfig::tiny();
        let b = FeatureBatch::synthetic(&cfg, 1);
        // Successive residues should be a plausible 2-6 Å apart.
        for i in 0..cfg.n_res - 1 {
            let d: f32 = (0..3)
                .map(|k| {
                    let a = b.true_coords.at(&[i, k]).unwrap();
                    let c = b.true_coords.at(&[i + 1, k]).unwrap();
                    (a - c) * (a - c)
                })
                .sum::<f32>()
                .sqrt();
            assert!(d > 0.5 && d < 10.0, "step {i} distance {d}");
        }
    }
}
