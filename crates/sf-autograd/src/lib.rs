//! Reverse-mode automatic differentiation for the ScaleFold reproduction.
//!
//! A [`Graph`] is a classic append-only tape: every operation records a node
//! holding its output value and enough context to compute vector-Jacobian
//! products. [`Graph::backward`] walks the tape in reverse, accumulating
//! gradients.
//!
//! Highlights relevant to the paper:
//!
//! - **Gradient checkpointing** ([`Graph::checkpoint`]): runs a sub-network
//!   without recording intermediates, re-running it during backward — the
//!   memory/compute trade-off OpenFold relies on and DAP lets ScaleFold turn
//!   off (§4.1 "disabling gradient checkpointing ... eliminated
//!   re-computation in backward").
//! - **Fused attention node** ([`Graph::attention_heads`]): the one tape
//!   node for every attention site — scale, optional pair bias, mask and
//!   sigmoid gate, with a backward that recomputes probabilities from the
//!   saved log-sum-exp — mirroring the fused Triton MHA kernel. It reads
//!   Q/K/V/gate in place as head views of their `[..., h·d]` sources
//!   ([`HeadVars`]), writes merged heads, and gives each operand a
//!   gradient of its own; [`Graph::attention_fused`] is its contiguous
//!   one-head case.
//! - **Fused LayerNorm node** ([`Graph::layer_norm`]): single-pass forward,
//!   two-step-reduction backward.
//! - **Activation memory accounting** ([`Graph::activation_bytes`]):
//!   quantifies what checkpointing saves.
//!
//! # Example
//!
//! ```
//! use sf_autograd::Graph;
//! use sf_tensor::Tensor;
//!
//! # fn main() -> Result<(), sf_autograd::AutogradError> {
//! let mut g = Graph::new();
//! let x = g.param(Tensor::from_vec(vec![2.0], &[1])?);
//! let y = g.square(x)?; // y = x^2
//! let loss = g.sum_all(y)?;
//! g.backward(loss)?;
//! assert_eq!(g.grad(x).expect("leaf grad").data(), &[4.0]); // dy/dx = 2x
//! # Ok(())
//! # }
//! ```

mod checkpoint;
pub mod checkpoint_io;
mod graph;
mod op;
mod params;

pub use checkpoint_io::{CheckpointError, Crc32, LatestCheckpoint};
pub use graph::{Graph, HeadVar, HeadVars, Var};
pub use params::{ParamStore, SlotGrads};

use std::fmt;

/// Error type for autograd operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutogradError {
    /// An underlying tensor operation failed.
    Tensor(sf_tensor::TensorError),
    /// A variable id did not belong to this graph.
    InvalidVar {
        /// The offending variable index.
        index: usize,
        /// Number of nodes currently on the tape.
        len: usize,
    },
    /// `backward` was called on a non-scalar variable.
    NonScalarLoss {
        /// Shape of the offending variable.
        dims: Vec<usize>,
    },
    /// A bound parameter is missing from the store its gradients are taken for.
    UnknownParam(String),
    /// An externally-computed node value (e.g. a collective's output
    /// buffer) did not match the mathematically expected result.
    ExternalValueMismatch {
        /// Shape the tape computed for the node.
        expect_dims: Vec<usize>,
        /// Shape (or bytes, when shapes agree) the external executor
        /// supplied.
        got_dims: Vec<usize>,
    },
    /// An activation axis does not split evenly across the requested
    /// number of shards (Dynamic Axial Parallelism ranks).
    UnevenShard {
        /// Length of the axis being sharded.
        axis_len: usize,
        /// Number of shards requested.
        ranks: usize,
    },
}

impl fmt::Display for AutogradError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutogradError::Tensor(e) => write!(f, "tensor error: {e}"),
            AutogradError::InvalidVar { index, len } => {
                write!(f, "variable {index} not in graph of {len} nodes")
            }
            AutogradError::NonScalarLoss { dims } => {
                write!(f, "backward requires a scalar loss, got shape {dims:?}")
            }
            AutogradError::UnknownParam(name) => write!(f, "unknown parameter {name:?}"),
            AutogradError::ExternalValueMismatch { expect_dims, got_dims } => write!(
                f,
                "external value mismatch: expected shape {expect_dims:?}, got {got_dims:?} (or differing bytes)"
            ),
            AutogradError::UnevenShard { axis_len, ranks } => write!(
                f,
                "axis of length {axis_len} does not split evenly across {ranks} DAP ranks"
            ),
        }
    }
}

impl std::error::Error for AutogradError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AutogradError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sf_tensor::TensorError> for AutogradError {
    fn from(e: sf_tensor::TensorError) -> Self {
        AutogradError::Tensor(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T, E = AutogradError> = std::result::Result<T, E>;
