//! Inference utilities: decoding the model's heads into the artifacts
//! downstream users consume — expected distance matrices, contact maps, and
//! per-residue confidence.

use crate::config::DISTOGRAM_BINS;
use crate::embed::distogram_edges;
use crate::loss::distogram_logits;
use sf_autograd::{Graph, ParamStore, Result, Var};
use sf_tensor::ops::softmax::softmax;
use sf_tensor::Tensor;

/// Decoded pair-level predictions.
#[derive(Debug, Clone)]
pub struct PairPredictions {
    /// Expected pairwise distance (Å) under the distogram, `[n, n]`.
    pub expected_distance: Tensor,
    /// Contact probability (distance < `contact_cutoff`), `[n, n]`.
    pub contact_probability: Tensor,
    /// The cutoff used for contacts, Å.
    pub contact_cutoff: f32,
}

/// Bin centers of the distogram (midpoints of the edges, with the first
/// and last bins centered just inside their open ends).
pub fn distogram_bin_centers() -> Vec<f32> {
    let edges = distogram_edges();
    let mut centers = Vec::with_capacity(DISTOGRAM_BINS);
    centers.push(edges[0] - 0.5);
    for w in edges.windows(2) {
        centers.push(0.5 * (w[0] + w[1]));
    }
    centers.push(edges[edges.len() - 1] + 0.5);
    centers
}

/// Decodes distogram logits `[n, n, DISTOGRAM_BINS]` into expected
/// distances and contact probabilities.
///
/// # Errors
///
/// Returns an error if the logits' last dimension is not
/// [`DISTOGRAM_BINS`].
pub fn decode_distogram(logits: &Tensor, contact_cutoff: f32) -> Result<PairPredictions> {
    let dims = logits.dims();
    let bins = *dims
        .last()
        .ok_or(sf_tensor::TensorError::EmptyInput("distogram"))?;
    if bins != DISTOGRAM_BINS {
        return Err(sf_tensor::TensorError::ShapeMismatch {
            op: "distogram bins",
            lhs: vec![DISTOGRAM_BINS],
            rhs: vec![bins],
        }
        .into());
    }
    let n = dims[0];
    let probs = softmax(logits)?;
    let centers = distogram_bin_centers();
    let edges = distogram_edges();
    let mut expected = Tensor::zeros(&[n, n]);
    let mut contact = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            let mut e = 0.0f32;
            let mut c = 0.0f32;
            for (b, &center) in centers.iter().enumerate() {
                let p = probs.at(&[i, j, b])?;
                e += p * center;
                // A bin is a "contact bin" if its upper edge is below the
                // cutoff (the last bin never is).
                let upper = edges.get(b).copied().unwrap_or(f32::INFINITY);
                if upper <= contact_cutoff {
                    c += p;
                }
            }
            expected.set(&[i, j], e)?;
            contact.set(&[i, j], c)?;
        }
    }
    Ok(PairPredictions {
        expected_distance: expected,
        contact_probability: contact,
        contact_cutoff,
    })
}

/// Runs the distogram head on a pair representation and decodes it — the
/// full inference path from `z` to contacts.
///
/// # Errors
///
/// Propagates shape errors from the head projection or decoding.
pub fn predict_contacts(
    g: &mut Graph,
    store: &mut ParamStore,
    z: Var,
    contact_cutoff: f32,
) -> Result<PairPredictions> {
    let logits = distogram_logits(g, store, z)?;
    decode_distogram(g.value(logits), contact_cutoff)
}

/// Converts pLDDT logits `[n, 1]` into per-residue confidence in `[0, 100]`
/// (the conventional pLDDT scale).
pub fn plddt_scores(logits: &Tensor) -> Vec<f32> {
    logits
        .data()
        .iter()
        .map(|&l| 100.0 / (1.0 + sf_tensor::ops::vexp::vexp(-l)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlphaFold, FeatureBatch, ModelConfig};

    #[test]
    fn bin_centers_are_ordered_and_bracket_edges() {
        let centers = distogram_bin_centers();
        let edges = distogram_edges();
        assert_eq!(centers.len(), DISTOGRAM_BINS);
        assert!(centers.windows(2).all(|w| w[0] < w[1]));
        assert!(centers[0] < edges[0]);
        assert!(*centers.last().expect("nonempty") > *edges.last().expect("nonempty"));
    }

    #[test]
    fn peaked_distogram_decodes_to_bin_center() {
        // Logits massively favouring bin 3 -> expected distance = center 3.
        let n = 2;
        let mut logits = Tensor::zeros(&[n, n, DISTOGRAM_BINS]);
        for i in 0..n {
            for j in 0..n {
                logits.set(&[i, j, 3], 50.0).expect("in range");
            }
        }
        let pred = decode_distogram(&logits, 8.0).expect("well-formed");
        let centers = distogram_bin_centers();
        for i in 0..n {
            for j in 0..n {
                let e = pred.expected_distance.at(&[i, j]).expect("ok");
                assert!((e - centers[3]).abs() < 1e-3, "{e} vs {}", centers[3]);
            }
        }
        // Bin 3's upper edge is well under 8 Å -> contact probability ~1.
        assert!(pred.contact_probability.at(&[0, 1]).expect("ok") > 0.99);
    }

    #[test]
    fn uniform_distogram_gives_mean_distance() {
        let logits = Tensor::zeros(&[1, 1, DISTOGRAM_BINS]);
        let pred = decode_distogram(&logits, 8.0).expect("well-formed");
        let centers = distogram_bin_centers();
        let mean: f32 = centers.iter().sum::<f32>() / centers.len() as f32;
        assert!((pred.expected_distance.item() - mean).abs() < 1e-3);
        // Contact probability strictly between 0 and 1.
        let c = pred.contact_probability.item();
        assert!(c > 0.0 && c < 1.0);
    }

    #[test]
    fn rejects_wrong_bin_count() {
        let bad = Tensor::zeros(&[2, 2, DISTOGRAM_BINS + 1]);
        assert!(decode_distogram(&bad, 8.0).is_err());
    }

    #[test]
    fn full_inference_path_from_model() {
        let mut cfg = ModelConfig::tiny();
        cfg.evoformer_blocks = 1;
        cfg.extra_msa_blocks = 0;
        cfg.template_blocks = 0;
        let batch = FeatureBatch::synthetic(&cfg, 11);
        let model = AlphaFold::new(cfg.clone());
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let out = model.forward(&mut g, &mut store, &batch).expect("forward");
        let pred = predict_contacts(&mut g, &mut store, out.pair, 8.0).expect("decode");
        assert_eq!(pred.expected_distance.dims(), &[cfg.n_res, cfg.n_res]);
        assert!(!pred.expected_distance.has_non_finite());
        let c01 = pred.contact_probability.at(&[0, 1]).expect("ok");
        assert!((0.0..=1.0).contains(&c01));
    }

    #[test]
    fn plddt_scores_map_to_percent() {
        let logits = Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[3, 1]).expect("sized");
        let s = plddt_scores(&logits);
        assert!(s[0] < 1.0);
        assert!((s[1] - 50.0).abs() < 1e-3);
        assert!(s[2] > 99.0);
    }
}
