//! Training losses.
//!
//! Documented substitution: AlphaFold's primary structural loss is FAPE
//! (frame-aligned point error), which requires per-residue rigid frames on
//! the tape. We use a **clamped pairwise distance-map loss**, which is
//! invariant to global rigid motion (the property FAPE's frame alignment
//! buys) and differentiable with the same cost structure. The auxiliary
//! losses — the pair **distogram** cross-entropy and the **masked-MSA**
//! reconstruction (BERT-style) cross-entropy — follow AlphaFold directly.

use crate::config::{ModelConfig, DISTOGRAM_BINS, NUM_AA_TYPES};
use crate::embed::distogram_edges;
use crate::features::FeatureBatch;
use crate::linear::linear;
use sf_autograd::{Graph, ParamStore, Result, Var};
use sf_tensor::Tensor;

/// Pairs farther than this in the ground truth are excluded from the
/// distance-map loss (the lDDT inclusion radius).
pub const DISTANCE_CUTOFF: f32 = 15.0;

/// Epsilon inside `sqrt` to keep the distance gradient finite at 0.
const DIST_EPS: f32 = 1e-6;

/// Scalar loss terms of one forward pass (values, for logging).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossBreakdown {
    /// Clamped distance-map structural loss.
    pub distance: f32,
    /// Pair distogram cross-entropy.
    pub distogram: f32,
    /// Masked-MSA reconstruction cross-entropy.
    pub masked_msa: f32,
    /// Weighted total.
    pub total: f32,
}

/// Differentiable pairwise-distance matrix `[n, n]` of `[n, 3]` coordinates.
///
/// # Errors
///
/// Propagates shape errors if `coords` is not `[n, 3]`.
pub fn pairwise_distances(g: &mut Graph, coords: Var) -> Result<Var> {
    let n = g.value(coords).dims()[0];
    let xi = g.reshape(coords, &[n, 1, 3])?;
    let xj = g.reshape(coords, &[1, n, 3])?;
    let diff = g.sub(xi, xj)?;
    let sq = g.square(diff)?;
    let d2 = g.sum_axis(sq, 2)?;
    let d2e = g.add_scalar(d2, DIST_EPS)?;
    g.sqrt(d2e)
}

/// Rigid-invariant structural loss: mean squared error between predicted and
/// true pairwise distances over pairs whose true distance is below
/// [`DISTANCE_CUTOFF`], with per-pair residue masking.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn distance_map_loss(
    g: &mut Graph,
    pred_coords: Var,
    true_coords: &Tensor,
    residue_mask: &Tensor,
) -> Result<Var> {
    let n = true_coords.dims()[0];
    let d_pred = pairwise_distances(g, pred_coords)?;
    let d_true = crate::geometry::distance_matrix(true_coords);
    // Pair weights: both residues resolved, true distance < cutoff, i != j.
    let mut w = Tensor::zeros(&[n, n]);
    let mut total_w = 0.0f32;
    for i in 0..n {
        for j in 0..n {
            if i != j
                && residue_mask.data()[i] > 0.0
                && residue_mask.data()[j] > 0.0
                && d_true.data()[i * n + j] < DISTANCE_CUTOFF
            {
                w.data_mut()[i * n + j] = 1.0;
                total_w += 1.0;
            }
        }
    }
    let dt = g.constant(d_true);
    let wv = g.constant(w);
    let err = g.sub(d_pred, dt)?;
    let sq = g.square(err)?;
    let weighted = g.mul(sq, wv)?;
    let sum = g.sum_all(weighted)?;
    g.scale(sum, 1.0 / total_w.max(1.0))
}

/// Cross-entropy of `logits` (last axis = classes) against a one-hot target
/// tensor of the same shape, averaged over positions where
/// `position_weight > 0`.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn cross_entropy(
    g: &mut Graph,
    logits: Var,
    one_hot: &Tensor,
    position_weight: &Tensor,
) -> Result<Var> {
    let p = g.softmax(logits)?;
    let pe = g.add_scalar(p, 1e-9)?;
    let logp = g.ln(pe)?;
    let oh = g.constant(one_hot.clone());
    let picked = g.mul(logp, oh)?;
    let rank = g.value(picked).rank();
    let nll = g.sum_axis(picked, rank - 1)?; // [positions...]
    let wv = g.constant(position_weight.clone());
    let weighted = g.mul(nll, wv)?;
    let sum = g.sum_all(weighted)?;
    let denom = position_weight.sum_all().max(1.0);
    g.scale(sum, -1.0 / denom)
}

/// The distogram head: projects the pair representation `z` (`[n, n, c_z]`)
/// to [`DISTOGRAM_BINS`] logits per residue pair.
///
/// # Errors
///
/// Returns a shape error if the head exists with another `c_z`.
pub fn distogram_logits(g: &mut Graph, store: &mut ParamStore, z: Var) -> Result<Var> {
    linear(g, store, &["heads"], "distogram", DISTOGRAM_BINS, z)
}

/// Distogram head + loss: projects `z` to [`DISTOGRAM_BINS`] logits and
/// cross-entropies against the binned true distances.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn distogram_loss(
    g: &mut Graph,
    store: &mut ParamStore,
    cfg: &ModelConfig,
    z: Var,
    true_coords: &Tensor,
    residue_mask: &Tensor,
) -> Result<Var> {
    let n = cfg.n_res;
    let logits = distogram_logits(g, store, z)?;
    let d_true = crate::geometry::distance_matrix(true_coords);
    let edges = distogram_edges();
    let mut one_hot = Tensor::zeros(&[n, n, DISTOGRAM_BINS]);
    let mut weight = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            if i == j || residue_mask.data()[i] == 0.0 || residue_mask.data()[j] == 0.0 {
                continue;
            }
            let dist = d_true.data()[i * n + j];
            let bin = edges
                .iter()
                .position(|&e| dist < e)
                .unwrap_or(DISTOGRAM_BINS - 1);
            one_hot.data_mut()[(i * n + j) * DISTOGRAM_BINS + bin] = 1.0;
            weight.data_mut()[i * n + j] = 1.0;
        }
    }
    cross_entropy(g, logits, &one_hot, &weight)
}

/// Masked-MSA head + loss: projects `m` to residue-type logits and
/// cross-entropies against the true identities at masked positions
/// (positions with target index `>= 0`).
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn masked_msa_loss(
    g: &mut Graph,
    store: &mut ParamStore,
    cfg: &ModelConfig,
    m: Var,
    batch: &FeatureBatch,
) -> Result<Var> {
    let (s, r) = (cfg.n_seq, cfg.n_res);
    let logits = linear(g, store, &["heads"], "masked_msa", NUM_AA_TYPES, m)?;
    let mut one_hot = Tensor::zeros(&[s, r, NUM_AA_TYPES]);
    let mut weight = Tensor::zeros(&[s, r]);
    let mut any = false;
    for si in 0..s {
        for ri in 0..r {
            let target = batch.masked_msa_targets.data()[si * r + ri];
            if target >= 0.0 {
                let t = (target as usize).min(NUM_AA_TYPES - 1);
                one_hot.data_mut()[(si * r + ri) * NUM_AA_TYPES + t] = 1.0;
                weight.data_mut()[si * r + ri] = 1.0;
                any = true;
            }
        }
    }
    if !any {
        // No masked positions in this crop: zero loss, but keep the head's
        // parameters bound so optimizer state stays uniform across steps.
        let zero = g.scale(logits, 0.0)?;
        return g.sum_all(zero);
    }
    cross_entropy(g, logits, &one_hot, &weight)
}

/// Confidence (pLDDT) loss: regresses `sigmoid(plddt_logits)` onto the
/// actual per-residue lDDT of the current prediction (target computed
/// host-side, detached — as in AlphaFold, the confidence head does not
/// shape the structure).
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn plddt_loss(
    g: &mut Graph,
    plddt_logits: Var,
    pred_coords_value: &Tensor,
    true_coords: &Tensor,
    residue_mask: &Tensor,
) -> Result<Var> {
    let n = true_coords.dims()[0];
    let targets = crate::metrics::lddt_ca_per_residue(pred_coords_value, true_coords, residue_mask);
    let t = g.constant(Tensor::from_vec(targets, &[n])?.reshape(&[n, 1])?);
    let p = g.sigmoid(plddt_logits)?;
    let err = g.sub(p, t)?;
    let sq = g.square(err)?;
    g.mean_all(sq)
}

/// Combines the losses with AlphaFold-like weights. Returns the total
/// loss variable plus the scalar breakdown.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
#[allow(clippy::too_many_arguments)]
pub fn total_loss(
    g: &mut Graph,
    store: &mut ParamStore,
    cfg: &ModelConfig,
    m: Var,
    z: Var,
    pred_coords: Var,
    plddt_logits: Option<Var>,
    batch: &FeatureBatch,
) -> Result<(Var, LossBreakdown)> {
    let dist = distance_map_loss(g, pred_coords, &batch.true_coords, &batch.residue_mask)?;
    let disto = distogram_loss(g, store, cfg, z, &batch.true_coords, &batch.residue_mask)?;
    let msa = masked_msa_loss(g, store, cfg, m, batch)?;
    // Weights: structural term dominates, matching AlphaFold's 1.0 FAPE /
    // 0.3 distogram / 2.0 masked-MSA ratios rescaled to our loss magnitudes.
    let disto_w = g.scale(disto, 0.3)?;
    let msa_w = g.scale(msa, 0.5)?;
    let t1 = g.add(dist, disto_w)?;
    let mut total = g.add(t1, msa_w)?;
    if let Some(logits) = plddt_logits {
        let coords_value = g.value(pred_coords).clone();
        let pl = plddt_loss(
            g,
            logits,
            &coords_value,
            &batch.true_coords,
            &batch.residue_mask,
        )?;
        let pl_w = g.scale(pl, 0.01)?;
        total = g.add(total, pl_w)?;
    }
    let breakdown = LossBreakdown {
        distance: g.value(dist).item(),
        distogram: g.value(disto).item(),
        masked_msa: g.value(msa).item(),
        total: g.value(total).item(),
    };
    Ok((total, breakdown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{transform_coords, Quat, Rigid};

    #[test]
    fn distance_loss_zero_for_perfect_prediction() {
        let cfg = ModelConfig::tiny();
        let batch = FeatureBatch::synthetic(&cfg, 1);
        let mut g = Graph::new();
        let pred = g.constant(batch.true_coords.clone());
        let loss =
            distance_map_loss(&mut g, pred, &batch.true_coords, &batch.residue_mask).unwrap();
        assert!(g.value(loss).item() < 1e-4);
    }

    #[test]
    fn distance_loss_invariant_to_rigid_motion() {
        let cfg = ModelConfig::tiny();
        let batch = FeatureBatch::synthetic(&cfg, 2);
        let moved = transform_coords(
            Rigid {
                rot: Quat::from_axis_angle([1.0, 2.0, 0.5], 1.2),
                trans: [5.0, -2.0, 9.0],
            },
            &batch.true_coords,
        );
        let mut g = Graph::new();
        let pred = g.constant(moved);
        let loss =
            distance_map_loss(&mut g, pred, &batch.true_coords, &batch.residue_mask).unwrap();
        assert!(g.value(loss).item() < 1e-3, "loss {}", g.value(loss).item());
    }

    #[test]
    fn distance_loss_positive_for_wrong_prediction() {
        let cfg = ModelConfig::tiny();
        let batch = FeatureBatch::synthetic(&cfg, 3);
        let mut g = Graph::new();
        let pred = g.constant(Tensor::zeros(&[cfg.n_res, 3]));
        let loss =
            distance_map_loss(&mut g, pred, &batch.true_coords, &batch.residue_mask).unwrap();
        assert!(g.value(loss).item() > 0.5);
    }

    #[test]
    fn distance_loss_is_differentiable() {
        let cfg = ModelConfig::tiny();
        let batch = FeatureBatch::synthetic(&cfg, 4);
        let mut g = Graph::new();
        let pred = g.param(Tensor::randn(&[cfg.n_res, 3], 5).mul_scalar(3.0));
        let loss =
            distance_map_loss(&mut g, pred, &batch.true_coords, &batch.residue_mask).unwrap();
        g.backward(loss).unwrap();
        let grad = g.grad(pred).unwrap();
        assert!(grad.norm() > 0.0);
        assert!(!grad.has_non_finite());
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let mut g = Graph::new();
        // Two positions, 3 classes; logits strongly favour class 0.
        let good =
            g.constant(Tensor::from_vec(vec![10.0, 0.0, 0.0, 10.0, 0.0, 0.0], &[2, 3]).unwrap());
        let bad =
            g.constant(Tensor::from_vec(vec![0.0, 10.0, 0.0, 0.0, 0.0, 10.0], &[2, 3]).unwrap());
        let mut one_hot = Tensor::zeros(&[2, 3]);
        one_hot.data_mut()[0] = 1.0;
        one_hot.data_mut()[3] = 1.0;
        let w = Tensor::ones(&[2]);
        let lg = cross_entropy(&mut g, good, &one_hot, &w).unwrap();
        let lb = cross_entropy(&mut g, bad, &one_hot, &w).unwrap();
        assert!(g.value(lg).item() < 0.01);
        assert!(g.value(lb).item() > 5.0);
    }

    #[test]
    fn masked_msa_loss_zero_when_nothing_masked() {
        let cfg = ModelConfig::tiny();
        let batch = FeatureBatch::synthetic(&cfg, 6); // all targets -1
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let m = g.constant(Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 7));
        let loss = masked_msa_loss(&mut g, &mut store, &cfg, m, &batch).unwrap();
        assert_eq!(g.value(loss).item(), 0.0);
        assert!(store.get("heads.masked_msa.weight").is_some());
    }

    #[test]
    fn plddt_loss_zero_when_confidence_matches_quality() {
        // A perfect prediction has per-residue lDDT = 1 everywhere; logits
        // of +inf-ish make sigmoid -> 1, so the loss vanishes.
        let cfg = ModelConfig::tiny();
        let batch = FeatureBatch::synthetic(&cfg, 12);
        let mut g = Graph::new();
        let logits = g.constant(Tensor::full(&[cfg.n_res, 1], 20.0));
        let loss = plddt_loss(
            &mut g,
            logits,
            &batch.true_coords,
            &batch.true_coords,
            &batch.residue_mask,
        )
        .unwrap();
        assert!(g.value(loss).item() < 1e-4);
        // Confidently wrong (logits -> 0 confidence on a perfect structure)
        // is maximally penalized.
        let bad = g.constant(Tensor::full(&[cfg.n_res, 1], -20.0));
        let loss_bad = plddt_loss(
            &mut g,
            bad,
            &batch.true_coords,
            &batch.true_coords,
            &batch.residue_mask,
        )
        .unwrap();
        assert!(g.value(loss_bad).item() > 0.9);
    }

    #[test]
    fn total_loss_combines_and_reports() {
        let cfg = ModelConfig::tiny();
        let mut batch = FeatureBatch::synthetic(&cfg, 8);
        batch.masked_msa_targets.data_mut()[0] = 3.0; // mask one position
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let m = g.constant(Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 9).mul_scalar(0.3));
        let z = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 10).mul_scalar(0.3));
        let pred = g.constant(Tensor::randn(&[cfg.n_res, 3], 11).mul_scalar(3.0));
        let (total, bd) = total_loss(&mut g, &mut store, &cfg, m, z, pred, None, &batch).unwrap();
        assert!(bd.total > 0.0);
        assert!(bd.distance > 0.0);
        assert!(bd.distogram > 0.0);
        assert!(bd.masked_msa > 0.0);
        let expect = bd.distance + 0.3 * bd.distogram + 0.5 * bd.masked_msa;
        assert!((bd.total - expect).abs() < 1e-4);
        assert_eq!(g.value(total).item(), bd.total);
    }
}
