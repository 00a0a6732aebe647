//! Dense tensor library underpinning the ScaleFold AlphaFold reproduction.
//!
//! This crate provides the numerical substrate for the real (CPU-scale)
//! AlphaFold training stack:
//!
//! - [`Tensor`]: a row-major dense `f32` tensor with shape/stride bookkeeping,
//!   broadcasting binary ops, blocked GEMM, reductions, and activation
//!   functions.
//! - [`bf16::Bf16`] and [`bf16::Fp16`]: software emulation of the reduced
//!   precision formats the paper evaluates (bf16 converges; naive fp16
//!   overflows to infinity/NaN — see `bf16` module tests).
//! - Fused kernels mirroring the paper's Triton kernels, implemented as real
//!   CPU routines: fused [`ops::layernorm`] (output + statistics in one
//!   kernel, two-step reduction backward) and a whole-row fused
//!   [`ops::attention`] (logits, softmax, `P·V` and gate per batch element
//!   in L1-resident scratch) with the AlphaFold *pair bias* term fused in.
//!
//! The fused kernels are verified against their naive multi-pass
//! counterparts in unit and property tests; the performance effect of the
//! fusion at GPU scale is modelled in the `sf-gpusim`/`sf-opgraph` crates.
//!
//! All hot kernels (GEMM, LayerNorm, softmax, attention) execute on the
//! parallel CPU backend in [`pool`]: a dependency-free scoped thread pool
//! whose partitioning preserves a fixed per-element accumulation order, so
//! kernel output is **bit-identical for every thread count** (`SF_THREADS`
//! env var / [`pool::set_num_threads`]; small inputs bypass the pool
//! entirely).
//!
//! # Example
//!
//! ```
//! use sf_tensor::Tensor;
//!
//! # fn main() -> Result<(), sf_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

pub mod bf16;
pub mod ops;
pub mod pool;
pub mod scratch;
mod shape;
mod strided;
mod tensor;

pub use shape::{Shape, MAX_RANK};
pub use tensor::{Tensor, WriteOnce};

use std::fmt;

/// Error type for all fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match (exactly or via broadcasting)
    /// did not.
    ShapeMismatch {
        /// Short description of the operation that failed.
        op: &'static str,
        /// Left-hand / expected shape.
        lhs: Vec<usize>,
        /// Right-hand / actual shape.
        rhs: Vec<usize>,
    },
    /// The number of data elements did not match the product of the
    /// requested dimensions.
    LengthMismatch {
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        actual: usize,
    },
    /// An axis argument was out of range for the tensor's rank.
    AxisOutOfRange {
        /// Offending axis.
        axis: usize,
        /// Rank of the tensor.
        rank: usize,
    },
    /// An index was out of bounds along some axis.
    IndexOutOfBounds {
        /// Offending flat or axis index.
        index: usize,
        /// Size of the dimension (or tensor) indexed.
        bound: usize,
    },
    /// Operation received an empty input where at least one element is
    /// required.
    EmptyInput(&'static str),
    /// A shape would have more dimensions than a [`Shape`] holds.
    RankTooHigh {
        /// Rank asked for.
        rank: usize,
        /// The bound, [`MAX_RANK`].
        max: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "length mismatch: expected {expected} elements, got {actual}"
                )
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds for size {bound}")
            }
            TensorError::EmptyInput(op) => write!(f, "empty input to {op}"),
            TensorError::RankTooHigh { rank, max } => {
                write!(f, "rank {rank} exceeds the maximum tensor rank {max}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used throughout the crate.
pub type Result<T, E = TensorError> = std::result::Result<T, E>;
