//! **ScaleFold-rs** — a from-scratch Rust reproduction of
//! *"ScaleFold: Reducing AlphaFold Initial Training Time to 10 Hours"*
//! (Zhu, Nowaczynski, et al., DAC 2024).
//!
//! The crate ties together two stacks built in this workspace:
//!
//! 1. **A real AlphaFold training stack** (CPU scale): tensor math
//!    ([`sf_tensor`]), reverse-mode autodiff with gradient checkpointing
//!    ([`sf_autograd`]), the full AlphaFold topology ([`sf_model`]), a
//!    synthetic protein data pipeline with the paper's non-blocking loader
//!    ([`sf_data`]), and fused optimizers ([`sf_optim`]). The [`trainer`]
//!    module runs actual gradient descent and measures real lDDT-Cα.
//!
//! 2. **A calibrated performance model** of the paper's GPU clusters:
//!    roofline kernels, CUDA streams/graphs, Triton-style autotuning
//!    ([`sf_gpusim`]), the AlphaFold step operator graph with ScaleFold's
//!    fusion passes ([`sf_opgraph`]), and the DP×DAP cluster simulator with
//!    stragglers and async evaluation ([`sf_cluster`]).
//!
//! On top, this crate provides:
//!
//! - [`OptimizationSet`]: the named optimization flags of the paper, with
//!   [`build_graph`] applying the corresponding fusion passes. Its presets
//!   name every priced setup (the MLPerf reference, OpenFold, FastFold,
//!   ScaleFold at any DAP degree), [`OptimizationSet::cluster`] is the one
//!   mapping from a set to a simulated cluster, and
//!   [`OptimizationSet::step_s`] prices every simulated step time the
//!   figures, the ablations and the CLI print.
//! - [`ladder`]: the step-by-step optimization ladder of Figure 8.
//! - [`convergence`]: the training-dynamics model calibrated to the paper's
//!   milestones (lDDT 0.8 @ 5k steps bs128; 0.9 @ 50–60k steps bs256),
//!   driving the Figure 10/11 time-to-train results.
//! - [`experiments`]: one runner per paper table/figure.
//! - [`trainer`]: the real (tiny-scale) training loop.
//!
//! # Quickstart
//!
//! ```
//! use scalefold::{build_graph, OptimizationSet};
//! use sf_gpusim::{CpuModel, DeviceSpec};
//! use sf_model::ModelConfig;
//! use sf_opgraph::profile::step_time;
//!
//! let cfg = ModelConfig::paper();
//! let reference = build_graph(&cfg, &OptimizationSet::none());
//! let optimized = build_graph(&cfg, &OptimizationSet::scalefold());
//! let dev = DeviceSpec::h100();
//! let t_ref = step_time(&reference, &dev, CpuModel::healthy(), false).total_s;
//! let t_opt = step_time(&optimized, &dev, CpuModel::healthy(), true).total_s;
//! assert!(t_opt < t_ref);
//! ```

pub mod convergence;
pub mod dap;
pub mod distributed;
pub mod experiments;
pub mod ladder;
pub mod optimizations;
pub mod trainer;

pub use convergence::{ConvergenceModel, FinetuneExtension, PretrainSchedule};
pub use dap::{analytic_comm_volume, DapGroup, DapStats};
pub use distributed::DataParallelTrainer;
pub use ladder::{ladder_stages, LadderEntry};
pub use optimizations::{build_graph, OptimizationSet};
pub use sf_data::loader::LoaderKind;
pub use trainer::{RecoveryEvent, ResumeSummary, StepReport, Trainer, TrainerConfig};
