//! Data pipeline for the ScaleFold reproduction.
//!
//! Three pieces, mirroring §3.2 of the paper:
//!
//! - [`protein`]: a synthetic protein generator standing in for the OpenFold
//!   dataset (PDB structures + MSAs). Sequence lengths and MSA depths follow
//!   heavy-tailed distributions like the real data, because those two
//!   quantities drive batch-preparation time.
//! - [`prep_time`]: the batch-preparation cost model — calibrated so sorted
//!   prep times span about three orders of magnitude with a ~10% slow tail
//!   (the paper's Figure 4).
//! - [`loader`]: one *real threaded* data pipeline over any [`Dataset`],
//!   [`Loader`], in two kinds: [`LoaderKind::Blocking`] reproduces PyTorch
//!   DataLoader's in-order delivery (a slow batch blocks everything behind
//!   it), and [`LoaderKind::NonBlocking`] is the paper's fix — a priority
//!   queue that yields the lowest-index *ready* batch immediately
//!   (best-effort order, every batch exactly once). Either kind catches
//!   worker panics, retries with backoff, and delivers a typed
//!   [`LoaderError`] instead of deadlocking (see `sf-faults` for
//!   deterministic fault injection against it). The `sf-bench` binary
//!   `fig5` runs the paper's Figure-5 scenario through both kinds.
//!
//! [`featurize`] turns synthetic proteins into `sf_model::FeatureBatch`es
//! (cropping, MSA sampling, BERT-style MSA masking).

pub mod featurize;
pub mod loader;
pub mod prep_time;
pub mod protein;

pub use loader::{Dataset, Loader, LoaderConfig, LoaderError, LoaderKind};
pub use prep_time::PrepTimeModel;
pub use protein::{ProteinRecord, SyntheticDataset};
