//! Optimizers for AlphaFold training, including the paper's fused kernels.
//!
//! ScaleFold found that the "ordinary training subroutines" — Adam, SWA
//! (stochastic weight averaging), and gradient clipping — together took 15%
//! of step time at <10% of theoretical throughput, because each launches
//! thousands of tiny kernels (one per parameter tensor; AlphaFold has >4000
//! gradient tensors). Its fixes, all reproduced here as real algorithms:
//!
//! - [`FusedAdamSwa`]: Adam + SWA + adjacent elementwise logic in **one
//!   pass** over a packed flat buffer (the paper packs all parameter and
//!   optimizer-state pointers into one buffer so a single kernel call
//!   touches every element). Verified bit-tolerant-identical to the naive
//!   [`Adam`] + [`Swa`] pair.
//! - [`clip::bucketed_global_norm`]: gradient-norm computation over a small
//!   number of flat **gradient buckets** (reusing the DDP communication
//!   buffers) instead of per-tensor kernels; the `sf-cluster` simulator
//!   additionally models hiding this latency under the all-reduce.
//! - [`LrSchedule`]: AlphaFold's warm-up + plateau + decay schedule.

pub mod adam;
pub mod clip;
pub mod fused;
pub mod schedule;
pub mod swa;

pub use adam::{Adam, AdamConfig};
pub use clip::{clip_by_global_norm, clip_slots_by_global_norm, GradBuckets};
pub use fused::FusedAdamSwa;
pub use schedule::LrSchedule;
pub use swa::Swa;

use sf_tensor::Tensor;
use std::collections::BTreeMap;

/// Gradient map keyed by parameter name, as produced by
/// `sf_autograd::Graph::grads_by_name`.
pub type Grads = BTreeMap<String, Tensor>;
