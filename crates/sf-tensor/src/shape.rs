//! Shape arithmetic: dimension bookkeeping, row-major strides, and numpy-style
//! broadcasting rules.

use crate::{Result, TensorError};
use std::hash::{Hash, Hasher};

/// The highest rank a [`Shape`] holds, and so the highest rank of any
/// tensor. Bounding it lets a shape, its strides and every per-op layout
/// temporary live inline instead of on the heap.
pub const MAX_RANK: usize = 5;

/// An owned tensor shape (list of dimension sizes, outermost first), held
/// inline: creating, cloning or copying a shape never allocates.
///
/// A rank-0 shape (`&[]`) denotes a scalar with one element. The rank is at
/// most [`MAX_RANK`]; [`Shape::try_new`] reports a higher one as
/// [`TensorError::RankTooHigh`].
///
/// Equality, hashing, `Debug` and `Display` see only the dims, exactly as
/// for the `Vec<usize>` of them.
#[derive(Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct Shape {
    /// Dimension sizes; the entries past `rank` are zero.
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Creates a shape from a dimension list.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn new(dims: &[usize]) -> Self {
        Self::try_new(dims).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a shape from a dimension list.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankTooHigh`] if `dims` has more than
    /// [`MAX_RANK`] entries.
    pub fn try_new(dims: &[usize]) -> Result<Self> {
        let mut shape = Shape::default();
        shape
            .dims
            .get_mut(..dims.len())
            .ok_or(TensorError::RankTooHigh {
                rank: dims.len(),
                max: MAX_RANK,
            })?
            .copy_from_slice(dims);
        shape.rank = dims.len();
        Ok(shape)
    }

    /// The dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// The dimension sizes, to resize axes in place.
    pub(crate) fn dims_mut(&mut self) -> &mut [usize] {
        &mut self.dims[..self.rank]
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of elements (1 for a scalar).
    pub fn num_elements(&self) -> usize {
        self.dims().iter().product()
    }

    /// Size of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.dims()
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Inserts a dimension of size `d` before `axis` (`axis == rank`
    /// appends).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankTooHigh`] if the shape is already at
    /// [`MAX_RANK`].
    ///
    /// # Panics
    ///
    /// Panics if `axis > rank`.
    pub(crate) fn try_insert(&mut self, axis: usize, d: usize) -> Result<()> {
        assert!(
            axis <= self.rank,
            "insert axis {axis} past rank {}",
            self.rank
        );
        if self.rank == MAX_RANK {
            return Err(TensorError::RankTooHigh {
                rank: MAX_RANK + 1,
                max: MAX_RANK,
            });
        }
        self.dims.copy_within(axis..self.rank, axis + 1);
        self.dims[axis] = d;
        self.rank += 1;
        Ok(())
    }

    /// Appends a dimension of size `d`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankTooHigh`] if the shape is already at
    /// [`MAX_RANK`].
    pub(crate) fn try_push(&mut self, d: usize) -> Result<()> {
        self.try_insert(self.rank, d)
    }

    /// Appends a dimension of size `d`, for output shapes no longer than
    /// an input's.
    ///
    /// # Panics
    ///
    /// Panics if the shape is already at [`MAX_RANK`].
    pub(crate) fn push(&mut self, d: usize) {
        self.try_push(d).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Removes dimension `axis`, returning its size.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank`.
    pub(crate) fn remove(&mut self, axis: usize) -> usize {
        let d = self.dims()[axis];
        self.dims.copy_within(axis + 1..self.rank, axis);
        self.rank -= 1;
        self.dims[self.rank] = 0;
        d
    }

    /// Row-major (C order) strides, in elements: the first
    /// [`Shape::rank`] entries; the rest are zero.
    pub fn strides(&self) -> [usize; MAX_RANK] {
        row_major_strides(self.dims())
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
                lhs: self.dims().to_vec(),
                rhs: index.to_vec(),
            });
        }
        let strides = self.strides();
        let mut flat = 0;
        for ((&i, &d), &s) in index.iter().zip(self.dims()).zip(&strides) {
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
        let mut out = Shape {
            rank,
            ..Shape::default()
        };
        for i in 0..rank {
            let a = dim_from_end(self.dims(), i);
            let b = dim_from_end(other.dims(), i);
            out.dims[rank - 1 - i] = match (a, b) {
                (x, y) if x == y => x,
                (1, y) => y,
                (x, 1) => x,
                _ => {
                    return Err(TensorError::ShapeMismatch {
                        op: "broadcast",
                        lhs: self.dims().to_vec(),
                        rhs: other.dims().to_vec(),
                    })
                }
            };
        }
        Ok(out)
    }

    /// Returns true if a tensor of this shape can be broadcast to `target`.
    pub fn broadcastable_to(&self, target: &Shape) -> bool {
        if self.rank() > target.rank() {
            return false;
        }
        (0..self.rank()).all(|i| {
            let a = dim_from_end(self.dims(), i);
            let b = dim_from_end(target.dims(), i);
            a == b || a == 1
        })
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        self.dims() == other.dims()
    }
}

impl Eq for Shape {}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Shape").field(&self.dims()).finish()
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.dims())
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

/// Row-major (C order) strides of `dims`, in elements: the first
/// `dims.len()` entries; the rest are zero.
///
/// # Panics
///
/// Panics if `dims` has more than [`MAX_RANK`] entries.
pub(crate) fn row_major_strides(dims: &[usize]) -> [usize; MAX_RANK] {
    let mut strides = [0usize; MAX_RANK];
    if let Some(last) = strides[..dims.len()].last_mut() {
        *last = 1;
    }
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
        assert_eq!(Shape::new(&[2, 3, 4]).strides()[..3], [12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides()[..1], [1]);
        assert_eq!(Shape::new(&[]).strides(), [0; MAX_RANK]);
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

    #[test]
    fn insert_push_remove_keep_the_padding_zero() {
        let mut s = Shape::new(&[2, 3]);
        s.try_insert(1, 1).unwrap();
        s.push(4);
        assert_eq!(s.dims(), &[2, 1, 3, 4]);
        assert_eq!(s.remove(0), 2);
        assert_eq!(s.remove(2), 4);
        assert_eq!(s, Shape::new(&[1, 3]));
        assert_eq!(s.dims, Shape::new(&[1, 3]).dims);
        let mut full = Shape::new(&[1; MAX_RANK]);
        assert_eq!(
            full.try_insert(0, 1),
            Err(TensorError::RankTooHigh {
                rank: MAX_RANK + 1,
                max: MAX_RANK
            })
        );
    }
}
