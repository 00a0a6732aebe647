//! Shape arithmetic: dimension bookkeeping, row-major strides, and numpy-style
//! broadcasting rules.

use crate::{Result, TensorError};

/// An owned tensor shape (list of dimension sizes, outermost first).
///
/// A rank-0 shape (`&[]`) denotes a scalar with one element.
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a dimension list.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (1 for a scalar).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.0.get(axis).copied().ok_or(TensorError::AxisOutOfRange {
            axis,
            rank: self.rank(),
        })
    }

    /// Row-major (C order) strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        row_major_strides(&self.0)
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank mismatches or any coordinate is out
    /// of bounds.
    pub fn flat_index(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::ShapeMismatch {
                op: "flat_index",
                lhs: self.0.clone(),
                rhs: index.to_vec(),
            });
        }
        let strides = self.strides();
        let mut flat = 0;
        for ((&i, &d), &s) in index.iter().zip(self.0.iter()).zip(strides.iter()) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, bound: d });
            }
            flat += i * s;
        }
        Ok(flat)
    }

    /// Computes the broadcast result shape of two operand shapes under
    /// numpy-style rules (align trailing dimensions; sizes must match or one
    /// of them must be 1).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn broadcast(&self, other: &Shape) -> Result<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0usize; rank];
        for i in 0..rank {
            let a = dim_from_end(&self.0, i);
            let b = dim_from_end(&other.0, i);
            dims[rank - 1 - i] = match (a, b) {
                (x, y) if x == y => x,
                (1, y) => y,
                (x, 1) => x,
                _ => {
                    return Err(TensorError::ShapeMismatch {
                        op: "broadcast",
                        lhs: self.0.clone(),
                        rhs: other.0.clone(),
                    })
                }
            };
        }
        Ok(Shape(dims))
    }

    /// Returns true if a tensor of this shape can be broadcast to `target`.
    pub fn broadcastable_to(&self, target: &Shape) -> bool {
        if self.rank() > target.rank() {
            return false;
        }
        (0..self.rank()).all(|i| {
            let a = dim_from_end(&self.0, i);
            let b = dim_from_end(&target.0, i);
            a == b || a == 1
        })
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

/// `i`-th dimension counted from the innermost end; 1 when past the rank
/// (the implicit broadcast padding).
fn dim_from_end(dims: &[usize], i: usize) -> usize {
    if i < dims.len() {
        dims[dims.len() - 1 - i]
    } else {
        1
    }
}

/// Row-major (C order) strides of `dims`, in elements.
pub(crate) fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn flat_index_round_trip() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.flat_index(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.flat_index(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.flat_index(&[1, 0, 2]).unwrap(), 14);
    }

    #[test]
    fn flat_index_bounds() {
        let s = Shape::new(&[2, 3]);
        assert!(s.flat_index(&[2, 0]).is_err());
        assert!(s.flat_index(&[0]).is_err());
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::new(&[4, 1, 3]);
        let b = Shape::new(&[2, 3]);
        assert_eq!(a.broadcast(&b).unwrap(), Shape::new(&[4, 2, 3]));
        let s = Shape::new(&[]);
        assert_eq!(s.broadcast(&b).unwrap(), b);
        assert!(Shape::new(&[2]).broadcast(&Shape::new(&[3])).is_err());
    }

    #[test]
    fn broadcastable_to_checks() {
        assert!(Shape::new(&[1, 3]).broadcastable_to(&Shape::new(&[5, 2, 3])));
        assert!(!Shape::new(&[2, 3]).broadcastable_to(&Shape::new(&[3])));
        assert!(Shape::new(&[]).broadcastable_to(&Shape::new(&[7])));
    }
}
