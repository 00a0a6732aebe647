//! Differentiable rigid-frame algebra **on the autograd tape**: quaternion
//! normalization, Hamilton products, and point rotation expressed as graph
//! ops, so the structure module can compose per-residue backbone frames the
//! way AlphaFold's Algorithm 23 does — with gradients flowing through the
//! whole rotation chain.
//!
//! Layouts: a batch of quaternions is `[n, 4]` (`w, x, y, z`), translations
//! and points are `[n, 3]`. The non-differentiable reference algebra lives
//! in [`crate::geometry`]; unit tests check the two agree.

use sf_autograd::{Graph, Result, Var};

/// Small epsilon inside the normalization square root.
const NORM_EPS: f32 = 1e-8;

/// Splits `[n, 4]` quaternions into `(w, x, y, z)` columns of shape `[n, 1]`.
fn split4(g: &mut Graph, q: Var) -> Result<[Var; 4]> {
    Ok([
        g.slice_axis(q, 1, 0, 1)?,
        g.slice_axis(q, 1, 1, 2)?,
        g.slice_axis(q, 1, 2, 3)?,
        g.slice_axis(q, 1, 3, 4)?,
    ])
}

/// Splits `[n, 3]` points into `(x, y, z)` columns of shape `[n, 1]`.
fn split3(g: &mut Graph, p: Var) -> Result<[Var; 3]> {
    Ok([
        g.slice_axis(p, 1, 0, 1)?,
        g.slice_axis(p, 1, 1, 2)?,
        g.slice_axis(p, 1, 2, 3)?,
    ])
}

/// Normalizes each quaternion row to unit length (differentiably).
///
/// # Errors
///
/// Propagates shape errors if `q` is not `[n, 4]`.
pub fn quat_normalize(g: &mut Graph, q: Var) -> Result<Var> {
    let sq = g.square(q)?;
    let sum = g.sum_axis(sq, 1)?; // [n]
    let n = g.value(sum).dims()[0];
    let sum2 = g.reshape(sum, &[n, 1])?;
    let eps = g.add_scalar(sum2, NORM_EPS)?;
    let norm = g.sqrt(eps)?;
    g.div(q, norm)
}

/// Hamilton product of two `[n, 4]` quaternion batches (apply `b` first).
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn quat_multiply(g: &mut Graph, a: Var, b: Var) -> Result<Var> {
    let [aw, ax, ay, az] = split4(g, a)?;
    let [bw, bx, by, bz] = split4(g, b)?;
    // w = aw bw - ax bx - ay by - az bz
    let w = {
        let t0 = g.mul(aw, bw)?;
        let t1 = g.mul(ax, bx)?;
        let t2 = g.mul(ay, by)?;
        let t3 = g.mul(az, bz)?;
        let s = g.sub(t0, t1)?;
        let s = g.sub(s, t2)?;
        g.sub(s, t3)?
    };
    // x = aw bx + ax bw + ay bz - az by
    let x = {
        let t0 = g.mul(aw, bx)?;
        let t1 = g.mul(ax, bw)?;
        let t2 = g.mul(ay, bz)?;
        let t3 = g.mul(az, by)?;
        let s = g.add(t0, t1)?;
        let s = g.add(s, t2)?;
        g.sub(s, t3)?
    };
    // y = aw by - ax bz + ay bw + az bx
    let y = {
        let t0 = g.mul(aw, by)?;
        let t1 = g.mul(ax, bz)?;
        let t2 = g.mul(ay, bw)?;
        let t3 = g.mul(az, bx)?;
        let s = g.sub(t0, t1)?;
        let s = g.add(s, t2)?;
        g.add(s, t3)?
    };
    // z = aw bz + ax by - ay bx + az bw
    let z = {
        let t0 = g.mul(aw, bz)?;
        let t1 = g.mul(ax, by)?;
        let t2 = g.mul(ay, bx)?;
        let t3 = g.mul(az, bw)?;
        let s = g.add(t0, t1)?;
        let s = g.sub(s, t2)?;
        g.add(s, t3)?
    };
    g.concat(&[w, x, y, z], 1)
}

/// Rotates `[n, 3]` points by `[n, 4]` **unit** quaternions, row-wise.
///
/// Uses the expansion `p' = p + 2 w (u × p) + 2 (u × (u × p))` with
/// `u = (x, y, z)` — all elementwise ops, no per-row matrices.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn quat_rotate(g: &mut Graph, q: Var, p: Var) -> Result<Var> {
    let [w, qx, qy, qz] = split4(g, q)?;
    let [px, py, pz] = split3(g, p)?;

    // c1 = u x p
    let cross = |g: &mut Graph,
                 (ax, ay, az): (Var, Var, Var),
                 (bx, by, bz): (Var, Var, Var)|
     -> Result<(Var, Var, Var)> {
        let cx = {
            let t0 = g.mul(ay, bz)?;
            let t1 = g.mul(az, by)?;
            g.sub(t0, t1)?
        };
        let cy = {
            let t0 = g.mul(az, bx)?;
            let t1 = g.mul(ax, bz)?;
            g.sub(t0, t1)?
        };
        let cz = {
            let t0 = g.mul(ax, by)?;
            let t1 = g.mul(ay, bx)?;
            g.sub(t0, t1)?
        };
        Ok((cx, cy, cz))
    };
    let u = (qx, qy, qz);
    let (c1x, c1y, c1z) = cross(g, u, (px, py, pz))?;
    let (c2x, c2y, c2z) = cross(g, u, (c1x, c1y, c1z))?;

    let out_axis = |g: &mut Graph, p0: Var, c1: Var, c2: Var| -> Result<Var> {
        let wc1 = g.mul(w, c1)?;
        let wc1_2 = g.scale(wc1, 2.0)?;
        let c2_2 = g.scale(c2, 2.0)?;
        let s = g.add(p0, wc1_2)?;
        g.add(s, c2_2)
    };
    let ox = out_axis(g, px, c1x, c2x)?;
    let oy = out_axis(g, py, c1y, c2y)?;
    let oz = out_axis(g, pz, c1z, c2z)?;
    g.concat(&[ox, oy, oz], 1)
}

/// A batch of rigid frames on the tape: unit quaternions `[n, 4]` and
/// translations `[n, 3]`.
#[derive(Debug, Clone, Copy)]
pub struct FrameBatch {
    /// Rotations (unit quaternions).
    pub quat: Var,
    /// Translations.
    pub trans: Var,
}

impl FrameBatch {
    /// Identity frames for `n` residues (constants on the tape).
    pub fn identity(g: &mut Graph, n: usize) -> Self {
        let mut q = sf_tensor::Tensor::zeros(&[n, 4]);
        for i in 0..n {
            q.data_mut()[i * 4] = 1.0;
        }
        FrameBatch {
            quat: g.constant(q),
            trans: g.constant(sf_tensor::Tensor::zeros(&[n, 3])),
        }
    }

    /// Composes an update onto these frames (AlphaFold's backbone update):
    /// the update quaternion is built from a predicted `[n, 3]` imaginary
    /// part `b` as `(1, b) / |(1, b)|`, and the predicted translation `dt`
    /// is applied in the *local* frame: `t' = t + R(q') dt`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    pub fn compose_update(&self, g: &mut Graph, imag: Var, dt: Var) -> Result<FrameBatch> {
        let n = g.value(imag).dims()[0];
        let ones = g.constant(sf_tensor::Tensor::ones(&[n, 1]));
        let dq = g.concat(&[ones, imag], 1)?;
        let dq = quat_normalize(g, dq)?;
        let q_new = quat_multiply(g, self.quat, dq)?;
        let q_new = quat_normalize(g, q_new)?; // fight drift
        let dt_world = quat_rotate(g, q_new, dt)?;
        let t_new = g.add(self.trans, dt_world)?;
        Ok(FrameBatch {
            quat: q_new,
            trans: t_new,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Quat;
    use sf_tensor::Tensor;

    fn quat_tensor(qs: &[Quat]) -> Tensor {
        let mut t = Tensor::zeros(&[qs.len(), 4]);
        for (i, q) in qs.iter().enumerate() {
            t.data_mut()[i * 4] = q.w;
            t.data_mut()[i * 4 + 1] = q.x;
            t.data_mut()[i * 4 + 2] = q.y;
            t.data_mut()[i * 4 + 3] = q.z;
        }
        t
    }

    fn sample_quats() -> Vec<Quat> {
        vec![
            Quat::from_axis_angle([0.0, 0.0, 1.0], 0.9),
            Quat::from_axis_angle([1.0, 0.5, -0.2], 2.1),
            Quat::from_axis_angle([-0.3, 1.0, 0.9], 0.4),
        ]
    }

    #[test]
    fn normalize_produces_unit_rows() {
        let mut g = Graph::new();
        let q = g.constant(Tensor::randn(&[5, 4], 1).mul_scalar(3.0));
        let qn = quat_normalize(&mut g, q).unwrap();
        for row in g.value(qn).data().chunks(4) {
            let n: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "norm {n}");
        }
    }

    #[test]
    fn tape_multiply_matches_reference() {
        let a = sample_quats();
        let b: Vec<Quat> = sample_quats().into_iter().rev().collect();
        let mut g = Graph::new();
        let av = g.constant(quat_tensor(&a));
        let bv = g.constant(quat_tensor(&b));
        let prod = quat_multiply(&mut g, av, bv).unwrap();
        for (i, (qa, qb)) in a.iter().zip(b.iter()).enumerate() {
            let expect = qa.mul(*qb);
            let row = &g.value(prod).data()[i * 4..(i + 1) * 4];
            for (got, want) in row.iter().zip([expect.w, expect.x, expect.y, expect.z]) {
                assert!((got - want).abs() < 1e-5, "row {i}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn tape_rotation_matches_reference() {
        let qs = sample_quats();
        let points = [[1.0f32, -2.0, 0.5], [0.3, 0.7, -1.1], [2.0, 0.0, 0.0]];
        let mut p = Tensor::zeros(&[3, 3]);
        for (i, pt) in points.iter().enumerate() {
            p.data_mut()[i * 3..(i + 1) * 3].copy_from_slice(pt);
        }
        let mut g = Graph::new();
        let qv = g.constant(quat_tensor(&qs));
        let pv = g.constant(p);
        let rotated = quat_rotate(&mut g, qv, pv).unwrap();
        for (i, (q, pt)) in qs.iter().zip(points.iter()).enumerate() {
            let expect = q.rotate(*pt);
            let row = &g.value(rotated).data()[i * 3..(i + 1) * 3];
            for (got, want) in row.iter().zip(expect) {
                assert!((got - want).abs() < 1e-4, "row {i}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn rotation_is_differentiable() {
        let mut g = Graph::new();
        let q = g.param(Tensor::from_vec(vec![1.0, 0.1, -0.2, 0.3], &[1, 4]).unwrap());
        let qn = quat_normalize(&mut g, q).unwrap();
        let p = g.param(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap());
        let r = quat_rotate(&mut g, qn, p).unwrap();
        let loss = g.sum_all(r).unwrap();
        g.backward(loss).unwrap();
        assert!(g.grad(q).expect("quat grad").norm() > 0.0);
        assert!(g.grad(p).expect("point grad").norm() > 0.0);
    }

    #[test]
    fn identity_frames_do_nothing() {
        let mut g = Graph::new();
        let frames = FrameBatch::identity(&mut g, 4);
        let p = g.constant(Tensor::randn(&[4, 3], 2));
        let rotated = quat_rotate(&mut g, frames.quat, p).unwrap();
        assert!(g.value(rotated).allclose(g.value(p), 1e-5));
    }

    #[test]
    fn compose_update_accumulates_translation() {
        let mut g = Graph::new();
        let frames = FrameBatch::identity(&mut g, 2);
        let zero_imag = g.constant(Tensor::zeros(&[2, 3]));
        let dt = g.constant(Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0], &[2, 3]).unwrap());
        let f1 = frames.compose_update(&mut g, zero_imag, dt).unwrap();
        let f2 = f1.compose_update(&mut g, zero_imag, dt).unwrap();
        // Identity rotation: translations simply add.
        assert!(g.value(f2.trans).allclose(
            &Tensor::from_vec(vec![2.0, 0.0, 0.0, 0.0, 4.0, 0.0], &[2, 3]).unwrap(),
            1e-5
        ));
        // Quaternions stay unit.
        for row in g.value(f2.quat).data().chunks(4) {
            let n: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn composed_rotations_match_sequential_reference() {
        // Two successive 45° z-rotations == one 90° z-rotation.
        let mut g = Graph::new();
        let frames = FrameBatch::identity(&mut g, 1);
        let half = (std::f32::consts::FRAC_PI_4 / 2.0).tan(); // tan(22.5°)
        let imag = g.constant(Tensor::from_vec(vec![0.0, 0.0, half], &[1, 3]).unwrap());
        let zero_dt = g.constant(Tensor::zeros(&[1, 3]));
        let f1 = frames.compose_update(&mut g, imag, zero_dt).unwrap();
        let f2 = f1.compose_update(&mut g, imag, zero_dt).unwrap();
        let p = g.constant(Tensor::from_vec(vec![1.0, 0.0, 0.0], &[1, 3]).unwrap());
        let rotated = quat_rotate(&mut g, f2.quat, p).unwrap();
        let expect = Quat::from_axis_angle([0.0, 0.0, 1.0], std::f32::consts::FRAC_PI_2)
            .rotate([1.0, 0.0, 0.0]);
        for (got, want) in g.value(rotated).data().iter().zip(expect) {
            assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
    }
}
