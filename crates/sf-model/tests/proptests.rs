//! Property tests for the model substrate: quaternion/rigid algebra laws,
//! lDDT invariances, distogram/relpos structure, and loss invariants.

use proptest::prelude::*;
use sf_model::embed::{distogram_one_hot, relpos_one_hot, RELPOS_K};
use sf_model::geometry::{distance_matrix, transform_coords, Quat, Rigid};
use sf_model::metrics::{lddt_ca, lddt_ca_per_residue};
use sf_tensor::Tensor;

fn arb_quat() -> impl Strategy<Value = Quat> {
    (
        -1.0f32..1.0,
        -1.0f32..1.0,
        -1.0f32..1.0,
        0.01f32..std::f32::consts::PI,
    )
        .prop_map(|(x, y, z, angle)| Quat::from_axis_angle([x, y, z + 0.01], angle))
}

fn arb_rigid() -> impl Strategy<Value = Rigid> {
    (arb_quat(), -20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0).prop_map(|(rot, x, y, z)| Rigid {
        rot,
        trans: [x, y, z],
    })
}

fn arb_coords(n: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-15.0f32..15.0, n * 3)
        .prop_map(move |v| Tensor::from_vec(v, &[n, 3]).expect("sized"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unit quaternions stay unit under the Hamilton product.
    #[test]
    fn quat_product_preserves_norm(a in arb_quat(), b in arb_quat()) {
        let n = a.mul(b).norm();
        prop_assert!((n - 1.0).abs() < 1e-4, "norm {n}");
    }

    /// Rotation preserves vector length.
    #[test]
    fn rotation_preserves_length(
        q in arb_quat(),
        p in proptest::array::uniform3(-10.0f32..10.0),
    ) {
        let r = q.rotate(p);
        let before = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
        let after = (r[0] * r[0] + r[1] * r[1] + r[2] * r[2]).sqrt();
        prop_assert!((before - after).abs() < 1e-3 * (1.0 + before));
    }

    /// Rigid composition is associative (within f32 tolerance).
    #[test]
    fn rigid_composition_associative(
        a in arb_rigid(),
        b in arb_rigid(),
        c in arb_rigid(),
        p in proptest::array::uniform3(-5.0f32..5.0),
    ) {
        let left = a.compose(b).compose(c).apply(p);
        let right = a.compose(b.compose(c)).apply(p);
        for (l, r) in left.iter().zip(right.iter()) {
            prop_assert!((l - r).abs() < 1e-2, "{l} vs {r}");
        }
    }

    /// `inverse` really inverts, for points anywhere.
    #[test]
    fn rigid_inverse_round_trip(
        r in arb_rigid(),
        p in proptest::array::uniform3(-10.0f32..10.0),
    ) {
        let back = r.inverse().apply(r.apply(p));
        for (b, o) in back.iter().zip(p.iter()) {
            prop_assert!((b - o).abs() < 1e-2, "{b} vs {o}");
        }
    }

    /// Pairwise distances are invariant under any rigid motion, so lDDT of
    /// a rigidly-moved prediction is exactly 1.
    #[test]
    fn lddt_rigid_invariance(r in arb_rigid(), coords in arb_coords(8)) {
        let moved = transform_coords(r, &coords);
        let mask = Tensor::ones(&[8]);
        let score = lddt_ca(&moved, &coords, &mask);
        // Score is 1 unless no pair qualified (degenerate all-far case).
        let d = distance_matrix(&coords);
        let any_pair = (0..8).any(|i| (0..8).any(|j| i != j && d.at(&[i, j]).expect("ok") < 15.0));
        if any_pair {
            prop_assert!(score > 0.999, "score {score}");
        }
    }

    /// The pair-count-weighted mean of per-residue lDDT equals the global
    /// score exactly (each ordered pair contributes to exactly one
    /// residue's numerator and the global numerator).
    #[test]
    fn per_residue_lddt_consistent(coords in arb_coords(6), noise_seed in any::<u64>()) {
        let noisy = coords
            .add(&Tensor::randn(&[6, 3], noise_seed).mul_scalar(0.5))
            .expect("same shape");
        let mask = Tensor::ones(&[6]);
        let per = lddt_ca_per_residue(&noisy, &coords, &mask);
        let global = lddt_ca(&noisy, &coords, &mask);
        for &p in &per {
            prop_assert!((0.0..=1.0).contains(&p));
        }
        // Recompute per-residue qualifying-pair counts for the weighting.
        let d = distance_matrix(&coords);
        let pair_count = |i: usize| -> usize {
            (0..6)
                .filter(|&j| j != i && d.at(&[i, j]).expect("ok") < 15.0)
                .count()
        };
        let counts: Vec<usize> = (0..6).map(pair_count).collect();
        let total: usize = counts.iter().sum();
        if total > 0 {
            let weighted: f32 = per
                .iter()
                .zip(counts.iter())
                .map(|(&p, &c)| p * c as f32)
                .sum::<f32>()
                / total as f32;
            prop_assert!(
                (weighted - global).abs() < 1e-4,
                "weighted {weighted} vs global {global}"
            );
        }
    }

    /// Distogram one-hot has exactly one hot bin per pair.
    #[test]
    fn distogram_one_hot_rows(coords in arb_coords(5)) {
        let d = distogram_one_hot(&coords);
        prop_assert_eq!(d.sum_all(), 25.0);
        prop_assert_eq!(d.max_all().expect("nonempty"), 1.0);
    }

    /// Relative-position encoding is one-hot per pair and symmetric about
    /// the center bin under index swap.
    #[test]
    fn relpos_structure(n in 2usize..12, offset in 0u32..100) {
        let mut idx = Tensor::zeros(&[n]);
        for i in 0..n {
            idx.data_mut()[i] = (i as u32 + offset) as f32;
        }
        let r = relpos_one_hot(&idx);
        prop_assert_eq!(r.sum_all(), (n * n) as f32);
        // Swap symmetry: bin(i,j) + bin(j,i) = 2 * center.
        for i in 0..n {
            for j in 0..n {
                let bin_ij = (0..2 * RELPOS_K + 1)
                    .position(|b| r.at(&[i, j, b]).expect("ok") == 1.0)
                    .expect("one-hot");
                let bin_ji = (0..2 * RELPOS_K + 1)
                    .position(|b| r.at(&[j, i, b]).expect("ok") == 1.0)
                    .expect("one-hot");
                prop_assert_eq!(bin_ij + bin_ji, 2 * RELPOS_K);
            }
        }
    }
}
