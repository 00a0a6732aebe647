//! Featurization: synthetic protein record → model [`FeatureBatch`]
//! (cropping, MSA sampling, BERT-style MSA masking, template features).

use crate::protein::ProteinRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sf_model::config::{ModelConfig, MSA_EXTRA_CHANNELS, NUM_AA_TYPES};
use sf_model::embed::distogram_one_hot;
use sf_model::FeatureBatch;
use sf_tensor::Tensor;

/// Fraction of MSA positions masked for the reconstruction task
/// (AlphaFold uses 15%).
pub const MSA_MASK_FRACTION: f32 = 0.15;

/// Per-position mutation rate used when sampling synthetic MSA rows.
const MSA_MUTATION_RATE: f32 = 0.15;

/// Crops and featurizes a record into a [`FeatureBatch`] matching `cfg`.
///
/// - Crops a random `cfg.n_res` window (all local batches are cropped to the
///   same shape, as in the paper); short records are padded with
///   `residue_mask = 0`.
/// - Samples `cfg.n_seq` clustered and `cfg.n_extra_seq` extra MSA rows by
///   mutating the target sequence (row 0 is the target itself).
/// - Masks [`MSA_MASK_FRACTION`] of clustered-MSA positions, recording
///   reconstruction targets.
/// - Builds template features as the distogram of a noisy copy of the true
///   structure.
#[allow(clippy::needless_range_loop)]
pub fn featurize(record: &ProteinRecord, cfg: &ModelConfig, seed: u64) -> FeatureBatch {
    let mut rng = StdRng::seed_from_u64(seed ^ record.id);
    let n = cfg.n_res;
    let len = record.len();
    let crop_start = if len > n {
        rng.gen_range(0..=len - n)
    } else {
        0
    };
    let valid = len.min(n);

    // Cropped residue types (padded with the unknown type).
    let mut residues = vec![(NUM_AA_TYPES - 1) as u8; n];
    residues[..valid].copy_from_slice(&record.sequence[crop_start..crop_start + valid]);

    let mut residue_mask = Tensor::zeros(&[n]);
    for i in 0..valid {
        residue_mask.data_mut()[i] = 1.0;
    }

    let mut residue_index = Tensor::zeros(&[n]);
    for i in 0..n {
        residue_index.data_mut()[i] = (crop_start + i) as f32;
    }

    // Target one-hot.
    let mut target_feat = Tensor::zeros(&[n, NUM_AA_TYPES]);
    for (i, &aa) in residues.iter().enumerate() {
        target_feat.data_mut()[i * NUM_AA_TYPES + aa as usize] = 1.0;
    }

    // True coordinates (padded region centered at origin, masked out).
    let mut true_coords = Tensor::zeros(&[n, 3]);
    for i in 0..valid {
        for k in 0..3 {
            let v = record.coords.at(&[crop_start + i, k]).expect("in range");
            true_coords.data_mut()[i * 3 + k] = v;
        }
    }

    // Extra MSA first: unmasked, more heavily mutated — and the source of
    // the cluster profiles below.
    let we = cfg.extra_msa_feat_dim();
    let mut extra = Tensor::zeros(&[cfg.n_extra_seq, n, we]);
    let mut profile_counts = vec![0.0f32; n * NUM_AA_TYPES];
    let mut deletion_sums = vec![0.0f32; n];
    for s in 0..cfg.n_extra_seq {
        for i in 0..n {
            let aa = if rng.gen::<f32>() > 2.0 * MSA_MUTATION_RATE {
                residues[i] as usize
            } else {
                rng.gen_range(0..NUM_AA_TYPES)
            };
            extra.data_mut()[(s * n + i) * we + aa] = 1.0;
            profile_counts[i * NUM_AA_TYPES + aa] += 1.0;
            if rng.gen::<f32>() < 0.05 {
                let del = rng.gen_range(0.0..1.0);
                extra.data_mut()[(s * n + i) * we + NUM_AA_TYPES] = 1.0;
                extra.data_mut()[(s * n + i) * we + NUM_AA_TYPES + 1] = del;
                deletion_sums[i] += del;
            }
        }
    }
    // Cluster profile per position: residue-type distribution of the extra
    // sequences (every extra sequence assigned to the single crop cluster),
    // plus the mean deletion value (AlphaFold's cluster features).
    let denom = cfg.n_extra_seq.max(1) as f32;
    let profile: Vec<f32> = profile_counts.iter().map(|c| c / denom).collect();
    let deletion_mean: Vec<f32> = deletion_sums.iter().map(|d| d / denom).collect();

    // Clustered MSA: one-hot + deletions + the shared cluster profile.
    let w = cfg.msa_feat_dim();
    let profile_off = NUM_AA_TYPES + MSA_EXTRA_CHANNELS;
    let mut msa_feat = Tensor::zeros(&[cfg.n_seq, n, w]);
    let mut masked_targets = Tensor::full(&[cfg.n_seq, n], -1.0);
    for s in 0..cfg.n_seq {
        for i in 0..n {
            let true_aa = if s == 0 || rng.gen::<f32>() > MSA_MUTATION_RATE {
                residues[i] as usize
            } else {
                rng.gen_range(0..NUM_AA_TYPES)
            };
            let off = (s * n + i) * w;
            let mask_this = residue_mask.data()[i] > 0.0 && rng.gen::<f32>() < MSA_MASK_FRACTION;
            if mask_this {
                // BERT-style: replace with uniform noise over types; record
                // the reconstruction target.
                masked_targets.data_mut()[s * n + i] = true_aa as f32;
                let noise_aa = rng.gen_range(0..NUM_AA_TYPES);
                msa_feat.data_mut()[off + noise_aa] = 1.0;
            } else {
                msa_feat.data_mut()[off + true_aa] = 1.0;
            }
            // Deletion channels: sparse small values.
            if rng.gen::<f32>() < 0.05 {
                msa_feat.data_mut()[off + NUM_AA_TYPES] = 1.0;
                msa_feat.data_mut()[off + NUM_AA_TYPES + 1] = rng.gen_range(0.0..1.0);
            }
            // Cluster profile channels (masking never hides the profile —
            // that is what makes the reconstruction task solvable).
            for aa in 0..NUM_AA_TYPES {
                msa_feat.data_mut()[off + profile_off + aa] = profile[i * NUM_AA_TYPES + aa];
            }
            msa_feat.data_mut()[off + profile_off + NUM_AA_TYPES] = deletion_mean[i];
        }
    }

    // Templates: distogram of noisy true coordinates (one per template,
    // noise growing with template index — later templates are worse).
    let mut template_slices = Vec::with_capacity(cfg.n_templates);
    for t in 0..cfg.n_templates {
        let noise =
            Tensor::randn(&[n, 3], seed ^ (t as u64 + 1) ^ record.id).mul_scalar(0.5 + t as f32);
        let noisy = true_coords.add(&noise).expect("same shape");
        template_slices.push(distogram_one_hot(&noisy));
    }
    let refs: Vec<&Tensor> = template_slices.iter().collect();
    let template_feat = if refs.is_empty() {
        Tensor::zeros(&[0, n, n, sf_model::config::DISTOGRAM_BINS])
    } else {
        Tensor::stack(&refs).expect("uniform shapes")
    };

    FeatureBatch {
        target_feat,
        msa_feat,
        extra_msa_feat: extra,
        template_feat,
        true_coords,
        residue_mask,
        masked_msa_targets: masked_targets,
        residue_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protein::SyntheticDataset;

    fn sample() -> (ProteinRecord, ModelConfig) {
        let d = SyntheticDataset::new(21, 10);
        (d.record(0), ModelConfig::tiny())
    }

    #[test]
    fn cluster_profile_is_a_distribution() {
        let (rec, cfg) = sample();
        let b = featurize(&rec, &cfg, 13);
        let w = cfg.msa_feat_dim();
        let off = NUM_AA_TYPES + MSA_EXTRA_CHANNELS;
        for i in 0..cfg.n_res {
            let row: f32 = (0..NUM_AA_TYPES)
                .map(|a| b.msa_feat.data()[i * w + off + a])
                .sum();
            assert!((row - 1.0).abs() < 1e-4, "profile at {i} sums to {row}");
            // Identical across cluster rows (one cluster per crop).
            for s in 1..cfg.n_seq {
                for a in 0..NUM_AA_TYPES {
                    assert_eq!(
                        b.msa_feat.data()[(s * cfg.n_res + i) * w + off + a],
                        b.msa_feat.data()[i * w + off + a]
                    );
                }
            }
        }
    }

    #[test]
    fn featurized_batch_validates() {
        let (rec, cfg) = sample();
        let b = featurize(&rec, &cfg, 1);
        b.validate(&cfg).unwrap();
    }

    #[test]
    fn deterministic_in_seed() {
        let (rec, cfg) = sample();
        let a = featurize(&rec, &cfg, 5);
        let b = featurize(&rec, &cfg, 5);
        assert_eq!(a.msa_feat, b.msa_feat);
        assert_eq!(a.true_coords, b.true_coords);
        let c = featurize(&rec, &cfg, 6);
        assert_ne!(a.msa_feat, c.msa_feat);
    }

    #[test]
    fn crop_respects_record_geometry() {
        let (rec, cfg) = sample();
        let b = featurize(&rec, &cfg, 2);
        // First crop residue's coords must appear somewhere in the record.
        let x0 = b.true_coords.at(&[0, 0]).unwrap();
        let found = (0..rec.len()).any(|i| (rec.coords.at(&[i, 0]).unwrap() - x0).abs() < 1e-6);
        assert!(found);
        // Residue index is contiguous.
        for i in 0..cfg.n_res - 1 {
            assert_eq!(
                b.residue_index.data()[i + 1] - b.residue_index.data()[i],
                1.0
            );
        }
    }

    #[test]
    fn some_positions_are_masked() {
        let (rec, cfg) = sample();
        let b = featurize(&rec, &cfg, 3);
        let masked = b
            .masked_msa_targets
            .data()
            .iter()
            .filter(|&&t| t >= 0.0)
            .count();
        let total = cfg.n_seq * cfg.n_res;
        let frac = masked as f32 / total as f32;
        assert!(
            (0.05..0.35).contains(&frac),
            "masked fraction {frac} out of band"
        );
    }

    #[test]
    fn short_record_is_padded_and_masked() {
        let mut cfg = ModelConfig::tiny();
        cfg.n_res = 64; // longer than the shortest possible record? ensure pad
        let rec = ProteinRecord {
            id: 1,
            sequence: vec![0u8; 40],
            msa_depth: 16,
            coords: Tensor::zeros(&[40, 3]),
        };
        let b = featurize(&rec, &cfg, 4);
        assert_eq!(b.residue_mask.sum_all(), 40.0);
        // Padded positions use the unknown type.
        let last = cfg.n_res - 1;
        assert_eq!(b.target_feat.at(&[last, NUM_AA_TYPES - 1]).unwrap(), 1.0);
    }

    #[test]
    fn msa_row_zero_tracks_target_where_unmasked() {
        let (rec, cfg) = sample();
        let b = featurize(&rec, &cfg, 7);
        let w = cfg.msa_feat_dim();
        for i in 0..cfg.n_res {
            if b.masked_msa_targets.data()[i] >= 0.0 {
                continue; // masked: one-hot is noise by design
            }
            // Row 0 one-hot must match target_feat.
            for aa in 0..NUM_AA_TYPES {
                assert_eq!(
                    b.msa_feat.data()[i * w + aa],
                    b.target_feat.data()[i * NUM_AA_TYPES + aa],
                    "row0 mismatch at residue {i} type {aa}"
                );
            }
        }
    }
}
