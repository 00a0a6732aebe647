//! Rigid-body geometry: quaternions, rotations, and residue frames.
//!
//! AlphaFold represents each residue's backbone as a rigid transform
//! (rotation + translation). These utilities implement that algebra as plain
//! `f32` math (outside the autograd tape): they are used by the synthetic
//! data generator, the lDDT metric, and structure-module tests. The
//! trainable structure module itself refines coordinates directly (see
//! [`crate::structure`] for the documented simplification).

use sf_tensor::Tensor;

/// A unit quaternion `(w, x, y, z)` representing a 3-D rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f32,
    /// Vector part x.
    pub x: f32,
    /// Vector part y.
    pub y: f32,
    /// Vector part z.
    pub z: f32,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::identity()
    }
}

impl Quat {
    /// The identity rotation.
    pub fn identity() -> Self {
        Quat {
            w: 1.0,
            x: 0.0,
            y: 0.0,
            z: 0.0,
        }
    }

    /// Rotation of `angle` radians about a (not necessarily unit) axis.
    pub fn from_axis_angle(axis: [f32; 3], angle: f32) -> Self {
        let n = (axis[0] * axis[0] + axis[1] * axis[1] + axis[2] * axis[2]).sqrt();
        if n == 0.0 {
            return Quat::identity();
        }
        let (s, c) = ((angle / 2.0).sin(), (angle / 2.0).cos());
        Quat {
            w: c,
            x: axis[0] / n * s,
            y: axis[1] / n * s,
            z: axis[2] / n * s,
        }
    }

    /// Hamilton product `self * other` (apply `other` first).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Quat) -> Quat {
        Quat {
            w: self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            x: self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            y: self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            z: self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        }
    }

    /// The inverse rotation (conjugate, assuming unit norm).
    pub fn conjugate(self) -> Quat {
        Quat {
            w: self.w,
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }

    /// Quaternion norm.
    pub fn norm(self) -> f32 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the normalized (unit) quaternion.
    pub fn normalized(self) -> Quat {
        let n = self.norm();
        if n == 0.0 {
            return Quat::identity();
        }
        Quat {
            w: self.w / n,
            x: self.x / n,
            y: self.y / n,
            z: self.z / n,
        }
    }

    /// Rotates a point.
    pub fn rotate(self, p: [f32; 3]) -> [f32; 3] {
        let m = self.to_matrix();
        [
            m[0][0] * p[0] + m[0][1] * p[1] + m[0][2] * p[2],
            m[1][0] * p[0] + m[1][1] * p[1] + m[1][2] * p[2],
            m[2][0] * p[0] + m[2][1] * p[1] + m[2][2] * p[2],
        ]
    }

    /// The equivalent 3×3 rotation matrix.
    pub fn to_matrix(self) -> [[f32; 3]; 3] {
        let Quat { w, x, y, z } = self.normalized();
        [
            [
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ],
        ]
    }
}

/// A rigid transform: rotation then translation (`x ↦ R x + t`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rigid {
    /// Rotation component.
    pub rot: Quat,
    /// Translation component.
    pub trans: [f32; 3],
}

impl Rigid {
    /// The identity transform.
    pub fn identity() -> Self {
        Rigid::default()
    }

    /// Applies the transform to a point.
    pub fn apply(self, p: [f32; 3]) -> [f32; 3] {
        let r = self.rot.rotate(p);
        [
            r[0] + self.trans[0],
            r[1] + self.trans[1],
            r[2] + self.trans[2],
        ]
    }

    /// Composition `self ∘ other` (apply `other` first).
    pub fn compose(self, other: Rigid) -> Rigid {
        let t = self.rot.rotate(other.trans);
        Rigid {
            rot: self.rot.mul(other.rot).normalized(),
            trans: [
                t[0] + self.trans[0],
                t[1] + self.trans[1],
                t[2] + self.trans[2],
            ],
        }
    }

    /// The inverse transform.
    pub fn inverse(self) -> Rigid {
        let rinv = self.rot.conjugate();
        let t = rinv.rotate(self.trans);
        Rigid {
            rot: rinv,
            trans: [-t[0], -t[1], -t[2]],
        }
    }
}

/// Applies a rigid transform to every row of an `[n, 3]` coordinate tensor.
///
/// # Panics
///
/// Panics if `coords` is not `[n, 3]`.
pub fn transform_coords(r: Rigid, coords: &Tensor) -> Tensor {
    assert_eq!(coords.dims().len(), 2);
    assert_eq!(coords.dims()[1], 3);
    let mut out = coords.clone();
    for row in out.data_mut().chunks_mut(3) {
        let p = r.apply([row[0], row[1], row[2]]);
        row.copy_from_slice(&p);
    }
    out
}

/// Pairwise Euclidean distance matrix of `[n, 3]` coordinates → `[n, n]`.
///
/// # Panics
///
/// Panics if `coords` is not `[n, 3]`.
pub fn distance_matrix(coords: &Tensor) -> Tensor {
    assert_eq!(coords.dims().len(), 2);
    assert_eq!(coords.dims()[1], 3);
    let n = coords.dims()[0];
    let d = coords.data();
    let mut out = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = d[i * 3] - d[j * 3];
            let dy = d[i * 3 + 1] - d[j * 3 + 1];
            let dz = d[i * 3 + 2] - d[j * 3 + 2];
            let dist = (dx * dx + dy * dy + dz * dz).sqrt();
            out.data_mut()[i * n + j] = dist;
            out.data_mut()[j * n + i] = dist;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_PI_2, PI};

    fn close3(a: [f32; 3], b: [f32; 3], tol: f32) -> bool {
        a.iter().zip(b.iter()).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn quat_identity_rotation() {
        let p = [1.0, 2.0, 3.0];
        assert!(close3(Quat::identity().rotate(p), p, 1e-6));
    }

    #[test]
    fn quat_quarter_turn_about_z() {
        let q = Quat::from_axis_angle([0.0, 0.0, 1.0], FRAC_PI_2);
        assert!(close3(q.rotate([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], 1e-5));
        assert!(close3(q.rotate([0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0], 1e-5));
    }

    #[test]
    fn quat_composition_matches_sequential_rotation() {
        let q1 = Quat::from_axis_angle([1.0, 0.5, -0.2], 0.7);
        let q2 = Quat::from_axis_angle([-0.3, 1.0, 0.9], 1.9);
        let p = [0.4, -1.2, 2.2];
        let seq = q1.rotate(q2.rotate(p));
        let comp = q1.mul(q2).rotate(p);
        assert!(close3(seq, comp, 1e-5));
    }

    #[test]
    fn quat_conjugate_inverts() {
        let q = Quat::from_axis_angle([0.2, 0.4, 0.9], 2.1);
        let p = [3.0, -1.0, 0.5];
        assert!(close3(q.conjugate().rotate(q.rotate(p)), p, 1e-5));
    }

    #[test]
    fn rotation_matrix_is_orthonormal() {
        let m = Quat::from_axis_angle([1.0, 2.0, 3.0], 1.1).to_matrix();
        for i in 0..3 {
            for j in 0..3 {
                let dot: f32 = (0..3).map(|k| m[i][k] * m[j][k]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-5);
            }
        }
        // Determinant +1 (proper rotation).
        let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
        assert!((det - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rigid_compose_and_inverse() {
        let a = Rigid {
            rot: Quat::from_axis_angle([0.0, 1.0, 0.0], 0.8),
            trans: [1.0, -2.0, 0.5],
        };
        let b = Rigid {
            rot: Quat::from_axis_angle([1.0, 0.0, 1.0], PI / 3.0),
            trans: [-0.5, 0.3, 2.0],
        };
        let p = [0.7, 0.7, -0.7];
        assert!(close3(a.compose(b).apply(p), a.apply(b.apply(p)), 1e-4));
        assert!(close3(a.inverse().apply(a.apply(p)), p, 1e-4));
    }

    #[test]
    fn distance_matrix_properties() {
        let coords =
            Tensor::from_vec(vec![0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 4.0, 0.0], &[3, 3]).unwrap();
        let d = distance_matrix(&coords);
        assert_eq!(d.at(&[0, 0]).unwrap(), 0.0);
        assert_eq!(d.at(&[0, 1]).unwrap(), 3.0);
        assert_eq!(d.at(&[0, 2]).unwrap(), 4.0);
        assert_eq!(d.at(&[1, 2]).unwrap(), 5.0);
        assert_eq!(d.at(&[2, 1]).unwrap(), 5.0);
    }

    #[test]
    fn distances_invariant_under_rigid_motion() {
        let coords = Tensor::randn(&[6, 3], 3).mul_scalar(5.0);
        let r = Rigid {
            rot: Quat::from_axis_angle([0.3, -0.5, 1.0], 2.4),
            trans: [10.0, -3.0, 7.0],
        };
        let moved = transform_coords(r, &coords);
        let d1 = distance_matrix(&coords);
        let d2 = distance_matrix(&moved);
        assert!(d1.allclose(&d2, 1e-3));
    }
}
