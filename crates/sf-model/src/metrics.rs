//! Structure-quality metrics, primarily lDDT-Cα — the convergence metric of
//! the MLPerf OpenFold benchmark (`avg_lddt_ca`, targets 0.8 / 0.9 in the
//! paper's Figure 11).

use sf_tensor::Tensor;

/// Inclusion radius for lDDT: only pairs within 15 Å in the reference
/// structure are scored.
pub const LDDT_CUTOFF: f32 = 15.0;

/// The four lDDT tolerance thresholds in Å.
pub const LDDT_THRESHOLDS: [f32; 4] = [0.5, 1.0, 2.0, 4.0];

/// Computes lDDT-Cα between predicted and reference coordinates.
///
/// For every ordered pair `(i, j)` with `i != j`, both residues resolved,
/// and reference distance `< 15 Å`, the score counts how many of the four
/// thresholds the absolute distance error stays within, averaged over pairs
/// and thresholds. Returns a value in `[0, 1]`; returns 0 if no pair
/// qualifies.
///
/// # Panics
///
/// Panics if shapes are not `[n, 3]` / `[n, 3]` / `[n]`.
pub fn lddt_ca(pred: &Tensor, reference: &Tensor, mask: &Tensor) -> f32 {
    assert_eq!(
        pred.dims(),
        reference.dims(),
        "coordinate shapes must match"
    );
    assert_eq!(pred.dims().len(), 2);
    assert_eq!(pred.dims()[1], 3);
    let n = pred.dims()[0];
    assert_eq!(mask.dims(), [n]);

    let dist = |t: &Tensor, i: usize, j: usize| -> f32 {
        let d = t.data();
        let dx = d[i * 3] - d[j * 3];
        let dy = d[i * 3 + 1] - d[j * 3 + 1];
        let dz = d[i * 3 + 2] - d[j * 3 + 2];
        (dx * dx + dy * dy + dz * dz).sqrt()
    };

    let mut hits = 0usize;
    let mut pairs = 0usize;
    for i in 0..n {
        if mask.data()[i] == 0.0 {
            continue;
        }
        for j in 0..n {
            if i == j || mask.data()[j] == 0.0 {
                continue;
            }
            let dt = dist(reference, i, j);
            if dt >= LDDT_CUTOFF {
                continue;
            }
            let dp = dist(pred, i, j);
            let err = (dp - dt).abs();
            pairs += 1;
            hits += LDDT_THRESHOLDS.iter().filter(|&&t| err < t).count();
        }
    }
    if pairs == 0 {
        0.0
    } else {
        hits as f32 / (pairs * LDDT_THRESHOLDS.len()) as f32
    }
}

/// Per-residue lDDT-Cα scores, `[n]` (0 for residues with no qualifying
/// pair). Used as the regression target for the pLDDT confidence head.
///
/// # Panics
///
/// Panics if shapes are not `[n, 3]` / `[n, 3]` / `[n]`.
#[allow(clippy::needless_range_loop)]
pub fn lddt_ca_per_residue(pred: &Tensor, reference: &Tensor, mask: &Tensor) -> Vec<f32> {
    assert_eq!(pred.dims(), reference.dims());
    let n = pred.dims()[0];
    assert_eq!(mask.dims(), [n]);
    let dist = |t: &Tensor, i: usize, j: usize| -> f32 {
        let d = t.data();
        let dx = d[i * 3] - d[j * 3];
        let dy = d[i * 3 + 1] - d[j * 3 + 1];
        let dz = d[i * 3 + 2] - d[j * 3 + 2];
        (dx * dx + dy * dy + dz * dz).sqrt()
    };
    let mut out = vec![0.0f32; n];
    for i in 0..n {
        if mask.data()[i] == 0.0 {
            continue;
        }
        let mut hits = 0usize;
        let mut pairs = 0usize;
        for j in 0..n {
            if i == j || mask.data()[j] == 0.0 {
                continue;
            }
            let dt = dist(reference, i, j);
            if dt >= LDDT_CUTOFF {
                continue;
            }
            let err = (dist(pred, i, j) - dt).abs();
            pairs += 1;
            hits += LDDT_THRESHOLDS.iter().filter(|&&t| err < t).count();
        }
        if pairs > 0 {
            out[i] = hits as f32 / (pairs * LDDT_THRESHOLDS.len()) as f32;
        }
    }
    out
}

/// Recovery accuracy of the masked-MSA head: fraction of masked positions
/// whose argmax prediction matches the true residue type. Returns `None`
/// if nothing was masked.
///
/// `logits` is `[n_seq, n_res, classes]`; `targets` is `[n_seq, n_res]`
/// with `-1` at unmasked positions.
///
/// # Panics
///
/// Panics if the leading shapes disagree.
pub fn masked_msa_accuracy(logits: &Tensor, targets: &Tensor) -> Option<f32> {
    let dims = logits.dims();
    assert_eq!(dims.len(), 3, "logits must be [seq, res, classes]");
    assert_eq!(&dims[..2], targets.dims(), "target shape mismatch");
    let preds = logits.argmax_last_axis().expect("non-empty class axis");
    let mut hits = 0usize;
    let mut total = 0usize;
    for (pred, &target) in preds.iter().zip(targets.data().iter()) {
        if target >= 0.0 {
            total += 1;
            if *pred == target as usize {
                hits += 1;
            }
        }
    }
    if total == 0 {
        None
    } else {
        Some(hits as f32 / total as f32)
    }
}

/// Root-mean-square deviation after *no* alignment (diagnostic only; lDDT is
/// the headline metric because it is superposition-free).
///
/// # Panics
///
/// Panics if shapes mismatch.
pub fn rmsd_unaligned(pred: &Tensor, reference: &Tensor) -> f32 {
    assert_eq!(pred.dims(), reference.dims());
    let n = pred.len() / 3;
    let mut acc = 0.0f64;
    for (p, r) in pred.data().iter().zip(reference.data().iter()) {
        let d = (p - r) as f64;
        acc += d * d;
    }
    ((acc / n as f64) as f32).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{transform_coords, Quat, Rigid};

    fn helix(n: usize) -> Tensor {
        let mut t = Tensor::zeros(&[n, 3]);
        for i in 0..n {
            let a = i as f32 * 0.5;
            t.data_mut()[i * 3] = 3.0 * a.cos();
            t.data_mut()[i * 3 + 1] = 3.0 * a.sin();
            t.data_mut()[i * 3 + 2] = 1.2 * i as f32;
        }
        t
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let c = helix(10);
        let mask = Tensor::ones(&[10]);
        assert_eq!(lddt_ca(&c, &c, &mask), 1.0);
    }

    #[test]
    fn lddt_invariant_to_rigid_motion_of_prediction() {
        let c = helix(12);
        let moved = transform_coords(
            Rigid {
                rot: Quat::from_axis_angle([0.1, 1.0, 0.4], 2.0),
                trans: [20.0, -5.0, 3.0],
            },
            &c,
        );
        let mask = Tensor::ones(&[12]);
        assert_eq!(lddt_ca(&moved, &c, &mask), 1.0);
    }

    #[test]
    fn random_prediction_scores_low() {
        let c = helix(16);
        let junk = Tensor::randn(&[16, 3], 1).mul_scalar(20.0);
        let mask = Tensor::ones(&[16]);
        assert!(lddt_ca(&junk, &c, &mask) < 0.4);
    }

    #[test]
    fn small_perturbation_scores_high_but_below_one() {
        let c = helix(16);
        let noisy = c.add(&Tensor::randn(&[16, 3], 2).mul_scalar(0.3)).unwrap();
        let mask = Tensor::ones(&[16]);
        let s = lddt_ca(&noisy, &c, &mask);
        assert!(s > 0.7 && s < 1.0, "score {s}");
    }

    #[test]
    fn masked_residues_excluded() {
        let c = helix(8);
        let mut bad = c.clone();
        // Residue 0 wildly wrong but masked out.
        bad.data_mut()[0] = 1000.0;
        let mut mask = Tensor::ones(&[8]);
        mask.data_mut()[0] = 0.0;
        assert_eq!(lddt_ca(&bad, &c, &mask), 1.0);
    }

    #[test]
    fn empty_mask_returns_zero() {
        let c = helix(4);
        let mask = Tensor::zeros(&[4]);
        assert_eq!(lddt_ca(&c, &c, &mask), 0.0);
    }

    #[test]
    fn masked_msa_accuracy_counts_only_masked() {
        // 1 seq x 3 res x 2 classes; positions 0 and 2 masked.
        let logits = Tensor::from_vec(
            vec![5.0, 0.0, /* pos1 */ 0.0, 5.0, /* pos2 */ 0.0, 5.0],
            &[1, 3, 2],
        )
        .unwrap();
        let targets = Tensor::from_vec(vec![0.0, -1.0, 0.0], &[1, 3]).unwrap();
        // Predictions: [0, 1, 1]; masked truths: pos0=0 (hit), pos2=0 (miss).
        assert_eq!(masked_msa_accuracy(&logits, &targets), Some(0.5));
        let none = Tensor::full(&[1, 3], -1.0);
        assert_eq!(masked_msa_accuracy(&logits, &none), None);
    }

    #[test]
    fn rmsd_basics() {
        let c = helix(5);
        assert_eq!(rmsd_unaligned(&c, &c), 0.0);
        let shifted = c.add_scalar(1.0);
        assert!((rmsd_unaligned(&shifted, &c) - 3f32.sqrt()).abs() < 1e-5);
    }
}
