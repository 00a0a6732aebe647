//! The real training loop: actual gradient descent on the actual AlphaFold
//! model (tiny scale), wired through the non-blocking data pipeline and the
//! fused Adam+SWA optimizer — every algorithm from the paper, executing for
//! real.
//!
//! The loop is fault-tolerant: data-worker failures surface as
//! [`RecoveryEvent`]s instead of crashes, non-finite gradients skip the
//! optimizer update (the large-scale fp16 failure mode of §3.4), and
//! [`Trainer::resume_latest`] restarts from the newest checkpoint that
//! passes CRC verification. Faults can be injected deterministically with
//! an `sf_faults::FaultPlan` to drill all of this end to end.

use crate::dap::{DapGroup, DapStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sf_autograd::{CheckpointError, Graph, ParamStore, SlotGrads};
use sf_cluster::collective::all_reduce_tensors;
use sf_data::featurize::featurize;
use sf_data::loader::{Dataset, Loader, LoaderConfig, LoaderError, LoaderKind};
use sf_data::SyntheticDataset;
use sf_faults::{FaultInjector, FaultPlan, FaultyDataset};
use sf_model::loss::LossBreakdown;
use sf_model::metrics::lddt_ca;
use sf_model::{AlphaFold, FeatureBatch, ModelConfig};
use sf_optim::{clip_slots_by_global_norm, AdamConfig, FusedAdamSwa, LrSchedule};
use sf_tensor::bf16::Precision;
use sf_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Trainer configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Model dimensions (use [`ModelConfig::tiny`]-scale on a CPU).
    pub model: ModelConfig,
    /// Adam hyper-parameters.
    pub adam: AdamConfig,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// SWA decay.
    pub swa_decay: f32,
    /// Global-norm gradient clip threshold.
    pub clip_norm: f32,
    /// Numeric precision the gradients are rounded through each step.
    pub precision: Precision,
    /// Synthetic dataset size.
    pub dataset_len: usize,
    /// Data-loader worker threads.
    pub loader_workers: usize,
    /// Which pipeline delivers batches (non-blocking unless A/B-testing
    /// the loaders).
    pub loader: LoaderKind,
    /// Dynamic Axial Parallelism degree (ScaleFold §3.3): shard the
    /// Evoformer's axial activations across this many simulated ranks,
    /// moving them with the real ring collectives. `0` or `1` disables
    /// DAP; the model's `n_seq` and `n_res` must divide evenly.
    #[serde(default = "default_dap")]
    pub dap: usize,
    /// RNG seed.
    pub seed: u64,
}

fn default_dap() -> usize {
    1
}

impl TrainerConfig {
    /// A CPU-friendly configuration for tests and examples.
    pub fn tiny() -> Self {
        TrainerConfig {
            model: ModelConfig::tiny(),
            adam: AdamConfig {
                lr: 1e-3,
                ..AdamConfig::default()
            },
            schedule: LrSchedule {
                peak_lr: 1e-3,
                warmup_steps: 10,
                decay_after: 10_000,
                decay_factor: 0.95,
                decay_every: 10_000,
            },
            swa_decay: 0.99,
            clip_norm: 1.0,
            precision: Precision::F32,
            dataset_len: 16,
            loader_workers: 2,
            loader: LoaderKind::NonBlocking,
            dap: default_dap(),
            seed: 7,
        }
    }
}

/// Per-step training report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepReport {
    /// Optimizer step index.
    pub step: u64,
    /// Loss terms.
    pub loss: f32,
    /// Structural (distance-map) loss term.
    pub distance_loss: f32,
    /// Pre-clip global gradient norm.
    pub grad_norm: f32,
    /// lDDT-Cα of this step's prediction against the ground truth.
    pub lddt: f32,
    /// Learning rate used.
    pub lr: f32,
    /// True if the optimizer update was skipped because the loss or a
    /// gradient was non-finite (the step still counts; weights are
    /// untouched).
    pub skipped: bool,
}

/// One entry of the trainer's recovery log: a fault survived instead of a
/// crash.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// The data pipeline reported a sample that could not be prepared;
    /// training continued on the remaining samples.
    DataFault {
        /// The loader's typed error.
        error: LoaderError,
    },
    /// A non-finite loss or gradient was detected; the optimizer update
    /// was skipped.
    NonFiniteSkipped {
        /// The step (1-based, as in [`StepReport::step`]) that skipped.
        step: u64,
    },
    /// Weights were restored from a checkpoint directory, possibly
    /// falling back past corrupt files.
    Resumed {
        /// File the weights came from.
        path: PathBuf,
        /// Step number parsed from the file name, if present.
        step: Option<u64>,
        /// Newer files skipped as corrupt/unreadable.
        skipped_files: usize,
    },
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryEvent::DataFault { error } => write!(f, "data fault survived: {error}"),
            RecoveryEvent::NonFiniteSkipped { step } => {
                write!(
                    f,
                    "non-finite gradients at step {step}: optimizer update skipped"
                )
            }
            RecoveryEvent::Resumed {
                path,
                step,
                skipped_files,
            } => write!(
                f,
                "resumed from {} (step {:?}, {} corrupt file(s) skipped)",
                path.display(),
                step,
                skipped_files
            ),
        }
    }
}

/// Outcome of [`Trainer::resume_latest`].
#[derive(Debug)]
pub struct ResumeSummary {
    /// File the weights were restored from.
    pub path: PathBuf,
    /// Step number parsed from the file name, if present.
    pub step: Option<u64>,
    /// Newer files skipped as corrupt/unreadable (path, reason).
    pub skipped: Vec<(PathBuf, String)>,
}

struct FeaturizingDataset {
    records: SyntheticDataset,
    cfg: ModelConfig,
    seed: u64,
}

impl Dataset for FeaturizingDataset {
    type Item = FeatureBatch;

    fn len(&self) -> usize {
        self.records.len()
    }

    fn prepare(&self, index: usize) -> FeatureBatch {
        featurize(
            &self.records.record(index),
            &self.cfg,
            self.seed ^ index as u64,
        )
    }
}

/// One data-parallel replica: its parameters, optimizer state and DAP
/// group. Kept separate per replica so the DP-synchrony invariant is
/// *measured*, not assumed, and so each replica's forward and backward can
/// run on its own thread without sharing anything mutable.
struct Replica {
    store: ParamStore,
    optimizer: FusedAdamSwa,
    /// This replica's DAP executor (one rank when DAP is off). Only the
    /// replica's own thread drives it, so its `RefCell` stats need no lock.
    dap: DapGroup,
}

/// What one replica's forward and backward hand back to the step.
struct ReplicaOut {
    /// Gradients by slot, rounded through the configured precision.
    grads: SlotGrads,
    loss: LossBreakdown,
    lddt: f32,
    /// Nodes on the replica's tape.
    tape_nodes: usize,
}

impl Replica {
    /// Forward (DAP-sharded when enabled), backward, precision rounding and
    /// lDDT of this replica on `batch`, on a fresh tape of `capacity`
    /// nodes. The tape is dropped before returning.
    fn forward_backward(
        &mut self,
        model: &AlphaFold,
        batch: &FeatureBatch,
        precision: Precision,
        capacity: usize,
        rank: usize,
    ) -> ReplicaOut {
        let rank_arg = rank as f64;
        let mut g = Graph::with_capacity(capacity);
        let out = {
            let _fwd = sf_trace::span("forward", "forward").arg("replica", rank_arg);
            model
                .forward_dap(&mut g, &mut self.store, batch, Some(&self.dap))
                .expect("forward pass on validated batch")
        };
        let grads = {
            let _bwd = sf_trace::span("backward", "backward").arg("replica", rank_arg);
            g.backward(out.loss).expect("scalar loss");
            let mut grads = g
                .take_param_grads(&self.store)
                .expect("bindings from this replica's store");
            // Precision rounding of gradients (bf16 path of §3.4; fp16
            // shows the NaN failure mode at larger scales).
            if precision != Precision::F32 {
                for grad in grads.iter_mut().flatten() {
                    *grad = precision.quantize(grad);
                }
            }
            grads
        };
        let lddt = {
            let _metric = sf_trace::span("eval", "lddt").arg("replica", rank_arg);
            lddt_ca(g.value(out.coords), &batch.true_coords, &batch.residue_mask)
        };
        let tape_nodes = g.len();
        // Freeing the tape (every activation and cotangent) is the
        // backward pass's cleanup; timed there, not left unattributed.
        let _free = sf_trace::span("backward", "free_tape").arg("replica", rank_arg);
        drop(g);
        ReplicaOut {
            grads,
            loss: out.loss_breakdown,
            lddt,
            tape_nodes,
        }
    }
}

/// What one engine step moved between simulated devices, beside its
/// [`StepReport`].
pub(crate) struct EngineStep {
    /// The step's report (loss terms and lDDT are means over replicas).
    pub(crate) report: StepReport,
    /// Elements sent by the gradient ring all-reduce (0 at one replica).
    pub(crate) elements_all_reduced: usize,
    /// Elements moved by DAP collectives, summed over replicas.
    pub(crate) elements_dap: usize,
}

/// The real trainer: owns parameters, optimizer state, and the data
/// pipeline. It is the repo's one training-step engine: single-replica
/// training is its one-replica case, and
/// [`crate::distributed::DataParallelTrainer`] runs the same step over a
/// DP×DAP grid of replicas.
///
/// # Example
///
/// ```
/// use scalefold::{Trainer, TrainerConfig};
///
/// let mut cfg = TrainerConfig::tiny();
/// cfg.model.evoformer_blocks = 1;
/// cfg.model.extra_msa_blocks = 0;
/// let mut trainer = Trainer::new(cfg);
/// let reports = trainer.train(2);
/// assert_eq!(reports.len(), 2);
/// assert!(reports.iter().all(|r| r.loss.is_finite()));
/// ```
pub struct Trainer {
    cfg: TrainerConfig,
    model: AlphaFold,
    replicas: Vec<Replica>,
    step: u64,
    rng: StdRng,
    injector: FaultInjector,
    recovery: Vec<RecoveryEvent>,
    /// DAP traffic summed over every step and replica.
    dap_comm: DapStats,
    /// Nodes on the last replica tape: the next step's tapes are built
    /// with this capacity instead of regrowing by doubling.
    tape_nodes: usize,
}

impl Trainer {
    /// Creates a trainer (parameters initialize lazily on the first step).
    pub fn new(cfg: TrainerConfig) -> Self {
        Trainer::with_faults(cfg, FaultPlan::none())
    }

    /// Creates a trainer that injects the faults of `plan` while training —
    /// worker panics and stragglers fire inside the data pipeline,
    /// NaN-gradient steps fire in [`Trainer::train_step`]. The run must
    /// survive all of them; inspect [`Trainer::recovery_log`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.dap > 1` and the model's axial dimensions do not
    /// divide evenly across the DAP ranks (see
    /// [`DapGroup::validate_config`]).
    pub fn with_faults(cfg: TrainerConfig, plan: FaultPlan) -> Self {
        Trainer::with_replicas(cfg, 1, plan)
    }

    /// Creates `ranks` replicas that start identical (parameters initialize
    /// deterministically by name on the first step).
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`, or on an uneven DAP split as in
    /// [`Trainer::with_faults`].
    pub(crate) fn with_replicas(cfg: TrainerConfig, ranks: usize, plan: FaultPlan) -> Self {
        assert!(ranks > 0, "need at least one replica");
        if let Err(msg) = DapGroup::validate_config(&cfg.model, cfg.dap) {
            panic!("{msg}");
        }
        let replicas = (0..ranks)
            .map(|_| Replica {
                store: ParamStore::new(),
                optimizer: FusedAdamSwa::new(cfg.adam, cfg.swa_decay),
                dap: DapGroup::new(cfg.dap),
            })
            .collect();
        Trainer {
            model: AlphaFold::new(cfg.model.clone()),
            replicas,
            step: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            injector: FaultInjector::new(plan),
            recovery: Vec::new(),
            dap_comm: DapStats::default(),
            tape_nodes: 0,
            cfg,
        }
    }

    /// The parameter store (inspect or checkpoint weights).
    pub fn store(&self) -> &ParamStore {
        &self.replicas[0].store
    }

    /// Number of data-parallel replicas.
    pub(crate) fn ranks(&self) -> usize {
        self.replicas.len()
    }

    /// Replica `rank`'s parameter store.
    pub(crate) fn replica_store(&self, rank: usize) -> &ParamStore {
        &self.replicas[rank].store
    }

    /// Steps taken.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The fault injector driving this trainer (no-op for [`Trainer::new`]).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Every fault survived so far, in order.
    pub fn recovery_log(&self) -> &[RecoveryEvent] {
        &self.recovery
    }

    /// Cumulative DAP communication over all steps (and replicas) so far
    /// (zero when `cfg.dap <= 1`). One replica-step's volume is
    /// [`crate::dap::analytic_comm_volume`].
    pub fn dap_comm(&self) -> DapStats {
        self.dap_comm
    }

    /// Runs one optimization step on `batch`.
    ///
    /// # Panics
    ///
    /// Panics if the batch shapes mismatch the model configuration (call
    /// [`FeatureBatch::validate`] upstream) or an internal op fails — both
    /// indicate programming errors rather than recoverable conditions.
    pub fn train_step(&mut self, batch: &FeatureBatch) -> StepReport {
        self.step(std::slice::from_ref(batch)).report
    }

    /// The step core, one batch per replica: forward (DAP-sharded when
    /// enabled), backward and precision rounding on every replica, each on
    /// its own thread; then, serially and in replica order, ring all-reduce
    /// (mean) of the gradients, global-norm clip, and the same optimizer
    /// update on every replica.
    ///
    /// The calling thread runs replica 0 and one scoped thread runs each
    /// other replica, so a one-replica step spawns nothing. Every replica
    /// owns its store and DAP group, so the threads share no mutable
    /// state, and the serial half takes their results in replica order:
    /// the step is bitwise the one a serial loop over the replicas takes.
    ///
    /// Non-finite guard: a NaN/Inf loss or gradient (the fp16 blow-up mode
    /// at scale) skips the update on every replica instead of destroying
    /// the weights. The step still counts so schedules stay aligned. One
    /// replica's poisoned gradient spreads to all through the all-reduce
    /// and surfaces as a non-finite norm from `clip_by_global_norm`, which
    /// leaves the gradients untouched in that case.
    ///
    /// # Panics
    ///
    /// Panics if `batches.len()` is not the replica count, or as
    /// [`Trainer::train_step`]. A replica thread's panic is re-raised on the
    /// caller with its original payload.
    pub(crate) fn step(&mut self, batches: &[FeatureBatch]) -> EngineStep {
        assert_eq!(batches.len(), self.ranks(), "one batch per replica");
        let (model, precision, capacity) = (&self.model, self.cfg.precision, self.tape_nodes);
        let (first, rest) = self
            .replicas
            .split_first_mut()
            .expect("at least one replica");
        let outs: Vec<ReplicaOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .iter_mut()
                .zip(&batches[1..])
                .enumerate()
                .map(|(i, (replica, batch))| {
                    scope.spawn(move || {
                        replica.forward_backward(model, batch, precision, capacity, i + 1)
                    })
                })
                .collect();
            let mut outs = Vec::with_capacity(batches.len());
            outs.push(first.forward_backward(model, &batches[0], precision, capacity, 0));
            // Time replica 0 waits on the others: the step's load imbalance.
            let _join = sf_trace::span("collective", "replica_join");
            for handle in handles {
                outs.push(
                    handle
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p)),
                );
            }
            outs
        });
        let n = batches.len() as f32;
        let (mut loss, mut distance_loss, mut lddt) = (0.0f32, 0.0f32, 0.0f32);
        let mut step_dap = DapStats::default();
        let mut grads: Vec<SlotGrads> = Vec::with_capacity(outs.len());
        for (out, replica) in outs.into_iter().zip(&self.replicas) {
            loss += out.loss.total / n;
            distance_loss += out.loss.distance / n;
            lddt += out.lddt / n;
            step_dap += replica.dap.take_stats();
            self.tape_nodes = out.tape_nodes;
            grads.push(out.grads);
        }
        self.dap_comm += step_dap;
        // Every replica creates its parameters in the same order, so one
        // slot names the same parameter on all of them.
        let order = self.replicas[0].store.sorted_slots();
        debug_assert!(self.replicas.iter().all(|r| {
            let (a, b) = (&r.store, &self.replicas[0].store);
            a.len() == b.len() && (0..a.len()).all(|s| a.name(s) == b.name(s))
        }));
        if self.injector.poison_grads_at(self.step) {
            // The first gradient by name, as in a name-keyed map.
            let first = order
                .iter()
                .find_map(|&s| grads[0][s].is_some().then_some(s));
            if let Some(x) = first.and_then(|s| grads[0][s].as_mut()?.data_mut().first_mut()) {
                *x = f32::NAN;
            }
        }
        let elements_all_reduced = all_reduce_grads(&mut grads, order);

        let _opt = sf_trace::span("optimizer", "optimizer");
        let lr = self.cfg.schedule.lr_at(self.step);
        let norm = clip_slots_by_global_norm(&mut grads[0], order, self.cfg.clip_norm);
        let finite = loss.is_finite() && norm.is_finite();
        if finite {
            for replica in &mut self.replicas {
                replica
                    .optimizer
                    .step_slots(&mut replica.store, &grads[0], lr);
            }
        } else {
            self.recovery.push(RecoveryEvent::NonFiniteSkipped {
                step: self.step + 1,
            });
        }
        drop(grads);
        drop(_opt);
        self.step += 1;
        EngineStep {
            report: StepReport {
                step: self.step,
                loss,
                distance_loss,
                grad_norm: if finite { norm } else { f32::NAN },
                lddt,
                lr,
                skipped: !finite,
            },
            elements_all_reduced,
            elements_dap: step_dap.total_elements(),
        }
    }

    /// Trains for `steps` steps, streaming batches through the real
    /// non-blocking pipeline (threads and all).
    ///
    /// Data faults do not abort the run: a sample whose preparation keeps
    /// panicking is recorded in [`Trainer::recovery_log`] and skipped, and
    /// training continues on the remaining samples.
    pub fn train(&mut self, steps: u64) -> Vec<StepReport> {
        self.run(steps, |_, step| step.report)
    }

    /// The one training loop: every step pulls one batch per replica from
    /// a single loader feed that runs across epoch boundaries, takes an
    /// engine [`Trainer::step`], and turns it into the caller's report.
    /// Stops early only if a whole epoch delivers no batch.
    pub(crate) fn run<R>(
        &mut self,
        steps: u64,
        mut report: impl FnMut(&Trainer, EngineStep) -> R,
    ) -> Vec<R> {
        let dataset = Arc::new(FaultyDataset::new(
            FeaturizingDataset {
                records: SyntheticDataset::new(self.cfg.seed ^ 0xDA7A, self.cfg.dataset_len),
                cfg: self.cfg.model.clone(),
                seed: self.cfg.seed,
            },
            self.injector.clone(),
        ));
        let mut feed = None;
        // Whether the current epoch has delivered a batch yet.
        let mut delivered = false;
        let mut reports = Vec::with_capacity(steps as usize);
        let mut batches = Vec::with_capacity(self.ranks());
        while (reports.len() as u64) < steps {
            // One umbrella span per optimizer step, covering the data wait
            // (recorded by the loader inside `next()`) and the train
            // phases — the unit the phase report attributes.
            let step_span = sf_trace::span("step", "step").arg("step", (self.step + 1) as f64);
            batches.clear();
            while batches.len() < self.ranks() {
                let Some(epoch) = feed.as_mut() else {
                    // Starting the loader threads is part of waiting for data.
                    let _wait = sf_trace::span("data_wait", "epoch_feed");
                    feed = Some(self.epoch_feed(&dataset));
                    continue;
                };
                match epoch.next() {
                    Some(Ok((_, batch))) => {
                        delivered = true;
                        batches.push(batch);
                    }
                    Some(Err(error)) => self.recovery.push(RecoveryEvent::DataFault { error }),
                    None if delivered => (feed, delivered) = (None, false),
                    None => {
                        // Every sample of the epoch failed: no progress is
                        // possible, so stop instead of spinning on a fully
                        // poisoned dataset.
                        step_span.cancel();
                        return reports;
                    }
                }
            }
            let step = self.step(&batches);
            drop(step_span);
            reports.push(report(self, step));
        }
        reports
    }

    /// Opens the next epoch of the configured loader over `dataset`, in a
    /// fresh shuffled order drawn from the trainer's RNG.
    fn epoch_feed(
        &mut self,
        dataset: &Arc<FaultyDataset<FeaturizingDataset>>,
    ) -> Loader<FaultyDataset<FeaturizingDataset>> {
        let epoch = self.rng.gen::<u64>();
        let order =
            SyntheticDataset::new(self.cfg.seed ^ 0xDA7A, self.cfg.dataset_len).epoch_order(epoch);
        Loader::new(
            Arc::clone(dataset),
            order,
            LoaderConfig::with_workers(self.cfg.loader_workers),
            self.cfg.loader,
        )
    }

    /// Saves the current weights to `path` (see
    /// `sf_autograd::checkpoint_io` for the format). Used for the MLPerf
    /// "initialized from predefined checkpoint" setting.
    ///
    /// # Errors
    ///
    /// Returns a [`sf_autograd::CheckpointError`] on I/O failure.
    pub fn save_checkpoint(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), sf_autograd::CheckpointError> {
        let _ckpt = sf_trace::span("checkpoint", "save");
        self.store().save_file(path)
    }

    /// Restores weights from a checkpoint produced by
    /// [`Trainer::save_checkpoint`] into every replica. The step counter
    /// and the optimizer state (Adam moments, SWA averages, bias-correction
    /// step) carry over: the optimizer re-keys its state to the loaded store
    /// by parameter name, so saving and reloading mid-run changes nothing.
    /// A fresh trainer has no such state, so loading into one starts the
    /// optimizer from the weights alone.
    ///
    /// # Errors
    ///
    /// Returns a [`sf_autograd::CheckpointError`] if the file is missing or
    /// malformed.
    pub fn load_checkpoint(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), sf_autograd::CheckpointError> {
        self.set_weights(ParamStore::load_file(path)?);
        Ok(())
    }

    /// Gives every replica the same weights.
    fn set_weights(&mut self, store: ParamStore) {
        for replica in &mut self.replicas {
            replica.store = store.clone();
        }
    }

    /// Saves the current weights into `dir` as `ckpt-<step>.sfck`, the
    /// layout [`Trainer::resume_latest`] scans. The write is atomic
    /// (temp file + rename), so a crash mid-save never leaves a torn
    /// checkpoint under the final name.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on I/O failure.
    pub fn save_checkpoint_step(&self, dir: impl AsRef<Path>) -> Result<PathBuf, CheckpointError> {
        let _ckpt = sf_trace::span("checkpoint", "save_step").arg("step", self.step as f64);
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(CheckpointError::Io)?;
        let path = dir.join(format!("ckpt-{:08}.sfck", self.step));
        self.store().save_file(&path)?;
        Ok(path)
    }

    /// Restores weights from the newest *valid* checkpoint in `dir`,
    /// falling back past files that fail CRC verification or cannot be
    /// parsed (bit rot, torn writes). Returns `Ok(None)` when the
    /// directory holds no checkpoints at all.
    ///
    /// On success the step counter is restored from the file name, so
    /// training resumes with the schedule where the checkpoint left off.
    ///
    /// # Errors
    ///
    /// Returns the last [`CheckpointError`] when checkpoints exist but
    /// every one of them is corrupt.
    pub fn resume_latest(
        &mut self,
        dir: impl AsRef<Path>,
    ) -> Result<Option<ResumeSummary>, CheckpointError> {
        let _ckpt = sf_trace::span("checkpoint", "resume");
        let Some(latest) = ParamStore::load_latest_valid(dir)? else {
            return Ok(None);
        };
        self.set_weights(latest.store);
        if let Some(step) = latest.step {
            self.step = step;
        }
        self.recovery.push(RecoveryEvent::Resumed {
            path: latest.path.clone(),
            step: latest.step,
            skipped_files: latest.skipped.len(),
        });
        Ok(Some(ResumeSummary {
            path: latest.path,
            step: latest.step,
            skipped: latest.skipped,
        }))
    }

    /// Builds the in-memory evaluation cache (§3.4's "cached all evaluation
    /// data into the CPU DRAM instead of disk"): featurizes the held-out
    /// samples once, so every evaluation pass skips data preparation.
    pub fn build_eval_cache(&self, n: usize) -> Vec<FeatureBatch> {
        let eval_set = SyntheticDataset::new(self.cfg.seed ^ 0xE7A1, n.max(1));
        (0..n.max(1))
            .map(|i| featurize(&eval_set.record(i), &self.cfg.model, 0xE7A1 ^ i as u64))
            .collect()
    }

    /// Evaluates mean lDDT-Cα over `cache` (see
    /// [`Trainer::build_eval_cache`]) with the SWA-averaged weights, as the
    /// MLPerf recipe evaluates — or the live weights while SWA is still
    /// empty.
    pub fn evaluate_cached(&self, cache: &[FeatureBatch]) -> f32 {
        score(&self.model, self.eval_weights(), cache)
    }

    /// Evaluates over `n` freshly featurized held-out samples; the same
    /// score as [`Trainer::evaluate_cached`] on a cache of `n`.
    pub fn evaluate(&self, n: usize) -> f32 {
        self.evaluate_cached(&self.build_eval_cache(n))
    }

    /// Asynchronous evaluation (§3.4): snapshots the evaluation weights and
    /// scores them on a **separate thread**, so training can continue
    /// immediately — the functional analogue of offloading evaluation to
    /// dedicated nodes. Join the handle for the score.
    pub fn evaluate_async(&self, n: usize) -> std::thread::JoinHandle<f32> {
        let (model, weights) = (self.model.clone(), self.eval_weights());
        let cache = self.build_eval_cache(n);
        std::thread::spawn(move || score(&model, weights, &cache))
    }

    /// The weights evaluation scores: SWA once it has averaged a step,
    /// else the live weights.
    fn eval_weights(&self) -> ParamStore {
        let replica = &self.replicas[0];
        let swa = replica.optimizer.swa_store();
        if swa.is_empty() {
            replica.store.clone()
        } else {
            swa
        }
    }
}

/// Mean lDDT-Cα of `model` with `weights` over `batches`.
fn score(model: &AlphaFold, mut weights: ParamStore, batches: &[FeatureBatch]) -> f32 {
    let _eval = sf_trace::span("eval", "evaluate").arg("samples", batches.len() as f64);
    let mut total = 0.0f32;
    for batch in batches {
        let mut g = Graph::new();
        let out = model
            .forward(&mut g, &mut weights, batch)
            .expect("forward pass on eval batch");
        total += lddt_ca(g.value(out.coords), &batch.true_coords, &batch.residue_mask);
    }
    total / batches.len().max(1) as f32
}

/// Ring-all-reduces (mean) every gradient tensor across the replicas' slot
/// vectors in place, one slot at a time in `order` (name order): each
/// tensor moves out of every vector, through `all_reduce_tensors`, and
/// back. Returns the elements sent (0 at one replica, where it is a no-op).
fn all_reduce_grads(grads: &mut [SlotGrads], order: &[usize]) -> usize {
    let span = sf_trace::span("collective", "grad_all_reduce");
    let mut sent = 0;
    if grads.len() > 1 {
        for &slot in order {
            if grads[0][slot].is_none() {
                continue;
            }
            let mut tensors: Vec<Tensor> = grads
                .iter_mut()
                .map(|g| g[slot].take().expect("replicas bind the same parameters"))
                .collect();
            sent += all_reduce_tensors(&mut tensors).elements_sent;
            for (g, t) in grads.iter_mut().zip(tensors) {
                g[slot] = Some(t);
            }
        }
    }
    drop(span.arg("elements", sent as f64));
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> TrainerConfig {
        let mut cfg = TrainerConfig::tiny();
        cfg.model.evoformer_blocks = 1;
        cfg.model.extra_msa_blocks = 0;
        cfg.model.template_blocks = 0;
        cfg.model.n_templates = 1;
        cfg.model.structure_layers = 1;
        cfg.dataset_len = 4;
        cfg
    }

    #[test]
    fn single_step_produces_finite_report() {
        let mut t = Trainer::new(fast_cfg());
        let ds = SyntheticDataset::new(1, 4);
        let batch = featurize(&ds.record(0), &t.cfg.model.clone(), 1);
        let r = t.train_step(&batch);
        assert!(r.loss.is_finite());
        assert!(r.grad_norm > 0.0);
        assert!((0.0..=1.0).contains(&r.lddt));
        assert_eq!(r.step, 1);
    }

    #[test]
    fn loss_decreases_on_repeated_batch() {
        let mut t = Trainer::new(fast_cfg());
        let ds = SyntheticDataset::new(2, 4);
        let cfg = t.cfg.model.clone();
        let batch = featurize(&ds.record(0), &cfg, 2);
        let first = t.train_step(&batch).loss;
        let mut last = first;
        for _ in 0..14 {
            last = t.train_step(&batch).loss;
        }
        assert!(
            last < first,
            "loss should fall on a fixed batch: {first} -> {last}"
        );
    }

    #[test]
    fn train_uses_pipeline_and_counts_steps() {
        let mut t = Trainer::new(fast_cfg());
        let reports = t.train(3);
        assert_eq!(reports.len(), 3);
        assert_eq!(t.step_count(), 3);
        assert!(reports.iter().all(|r| r.loss.is_finite()));
    }

    #[test]
    fn dap_training_matches_unsharded() {
        // DAP-k training follows the unsharded trajectory for k ∈ {1,2,4}:
        // the forward is bitwise-identical data movement, so only
        // gradient-accumulation order can drift, and the per-step losses
        // must agree tightly over several updates.
        let ref_cfg = fast_cfg();
        let mut reference = Trainer::new(ref_cfg.clone());
        let ds = SyntheticDataset::new(5, 4);
        let batch = featurize(&ds.record(0), &ref_cfg.model, 5);
        let ref_losses: Vec<f32> = (0..3).map(|_| reference.train_step(&batch).loss).collect();

        for k in [2usize, 4] {
            let mut cfg = ref_cfg.clone();
            cfg.dap = k;
            let mut t = Trainer::new(cfg);
            for (i, want) in ref_losses.iter().enumerate() {
                let got = t.train_step(&batch).loss;
                assert!(
                    (got - want).abs() <= 1e-4,
                    "k={k} step {i}: loss {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn dap_comm_accumulates_analytic_volume() {
        let mut cfg = fast_cfg();
        cfg.dap = 2;
        let mut t = Trainer::new(cfg.clone());
        let ds = SyntheticDataset::new(6, 4);
        let batch = featurize(&ds.record(0), &cfg.model, 6);
        let steps = 2;
        for _ in 0..steps {
            t.train_step(&batch);
        }
        let per_step = crate::dap::analytic_comm_volume(&cfg.model, 2);
        let total = t.dap_comm();
        assert_eq!(
            total.all_gather_elements,
            steps * per_step.all_gather_elements
        );
        assert_eq!(
            total.all_to_all_elements,
            steps * per_step.all_to_all_elements
        );
        assert_eq!(total.gathers, steps * per_step.gathers);
        assert_eq!(total.switches, steps * per_step.switches);

        // Without DAP nothing is communicated.
        let mut plain = Trainer::new(fast_cfg());
        plain.train_step(&batch);
        assert_eq!(plain.dap_comm(), DapStats::default());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn dap_rejects_uneven_crop() {
        let mut cfg = fast_cfg();
        cfg.model.n_res = 13;
        cfg.dap = 2;
        let _ = Trainer::new(cfg);
    }

    #[test]
    fn warmup_schedule_applies() {
        let mut t = Trainer::new(fast_cfg());
        let reports = t.train(2);
        assert!(reports[0].lr < reports[1].lr);
    }

    #[test]
    fn bf16_training_stays_finite() {
        let mut cfg = fast_cfg();
        cfg.precision = Precision::Bf16;
        let mut t = Trainer::new(cfg);
        let reports = t.train(3);
        assert!(reports
            .iter()
            .all(|r| r.loss.is_finite() && r.grad_norm.is_finite()));
    }

    #[test]
    fn checkpoint_restores_weights_exactly() {
        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(2);
        let path = std::env::temp_dir().join("sf_trainer_ckpt.bin");
        t.save_checkpoint(&path).expect("save");

        // A fresh trainer restored from the checkpoint produces the same
        // forward outputs as the original.
        let mut fresh = Trainer::new(fast_cfg());
        fresh.load_checkpoint(&path).expect("load");
        let ds = SyntheticDataset::new(99, 2);
        let batch = featurize(&ds.record(0), &fresh.cfg.model.clone(), 99);
        let mut g1 = sf_autograd::Graph::new();
        let model = sf_model::AlphaFold::new(t.cfg.model.clone());
        let o1 = model
            .forward(&mut g1, &mut t.store().clone(), &batch)
            .expect("fwd");
        let mut g2 = sf_autograd::Graph::new();
        let o2 = model
            .forward(&mut g2, &mut fresh.store().clone(), &batch)
            .expect("fwd");
        assert_eq!(o1.loss_breakdown.total, o2.loss_breakdown.total);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_checkpoint_carries_step_and_optimizer_state() {
        let ds = SyntheticDataset::new(5, 3);
        let model_cfg = fast_cfg().model;
        let batches: Vec<_> = (0..3)
            .map(|i| featurize(&ds.record(i), &model_cfg, 5))
            .collect();
        let mut reloaded = Trainer::new(fast_cfg());
        let mut twin = Trainer::new(fast_cfg());
        for batch in &batches[..2] {
            reloaded.train_step(batch);
            twin.train_step(batch);
        }
        let path =
            std::env::temp_dir().join(format!("sf_trainer_reload_{}.sfck", std::process::id()));
        reloaded.save_checkpoint(&path).expect("save");
        reloaded.load_checkpoint(&path).expect("load");
        let _ = std::fs::remove_file(&path);

        // A reset of the moments or the step counter would change this step.
        let after_load = reloaded.train_step(&batches[2]);
        let never_loaded = twin.train_step(&batches[2]);
        assert_eq!(after_load, never_loaded);
        for (name, w) in twin.store().iter() {
            let got = reloaded.store().get(name).expect("present");
            assert_eq!(got.data(), w.data(), "{name}");
        }
    }

    #[test]
    fn nan_grad_step_is_skipped_and_only_that_step() {
        // Poison optimizer step 1 (0-based): report 2 must be skipped.
        let mut t = Trainer::with_faults(fast_cfg(), FaultPlan::none().with_nan_grad(1));
        let reports = t.train(3);
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports.iter().map(|r| r.skipped).collect::<Vec<_>>(),
            vec![false, true, false]
        );
        assert!(reports[1].grad_norm.is_nan());
        assert!(t
            .recovery_log()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::NonFiniteSkipped { step: 2 })));
    }

    #[test]
    fn skipped_step_leaves_weights_untouched() {
        let mut t = Trainer::with_faults(fast_cfg(), FaultPlan::none().with_nan_grad(1));
        let _ = t.train(1);
        let before = t.store().clone();
        let reports = t.train(1); // this is the poisoned step
        assert!(reports[0].skipped);
        for name in before.names() {
            assert_eq!(
                before.get(&name).expect("param").data(),
                t.store().get(&name).expect("param").data(),
                "weights changed across a skipped step: {name}"
            );
        }
    }

    #[test]
    fn training_survives_poisoned_sample() {
        let mut cfg = fast_cfg();
        cfg.loader_workers = 2;
        let mut t = Trainer::with_faults(cfg, FaultPlan::none().with_worker_panic(1));
        // More steps than the epoch has healthy samples (3 of 4), so the
        // run must consume the failed slot before finishing.
        let reports = t.train(5);
        assert_eq!(reports.len(), 5);
        assert!(t
            .recovery_log()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::DataFault { .. })));
    }

    #[test]
    fn resume_latest_on_empty_dir_is_none() {
        let dir = std::env::temp_dir().join(format!("sf_resume_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut t = Trainer::new(fast_cfg());
        assert!(t.resume_latest(&dir).expect("scan").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_latest_restores_step_and_weights() {
        let dir = std::env::temp_dir().join(format!("sf_resume_ok_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(2);
        let path = t.save_checkpoint_step(&dir).expect("save");
        assert!(path.file_name().is_some());

        let mut fresh = Trainer::new(fast_cfg());
        let summary = fresh.resume_latest(&dir).expect("resume").expect("found");
        assert_eq!(summary.step, Some(2));
        assert_eq!(fresh.step_count(), 2);
        for name in t.store().names() {
            assert_eq!(
                t.store().get(&name).expect("param").data(),
                fresh.store().get(&name).expect("param").data(),
                "restored weights differ: {name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evaluate_returns_sane_score() {
        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(1);
        let score = t.evaluate(2);
        assert!((0.0..=1.0).contains(&score));
    }

    #[test]
    fn cached_eval_matches_uncached() {
        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(2);
        let cache = t.build_eval_cache(2);
        assert_eq!(t.evaluate_cached(&cache), t.evaluate(2));
        // The cache is reusable across further training.
        let _ = t.train(1);
        let s = t.evaluate_cached(&cache);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn async_eval_overlaps_training_and_matches_sync() {
        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(2);
        // Launch evaluation, keep training while it runs, then join.
        let handle = t.evaluate_async(2);
        let sync_before = t.evaluate(2);
        let more = t.train(2); // training proceeds while eval runs
        let async_score = handle.join().expect("eval thread");
        assert_eq!(async_score, sync_before, "same snapshot, same score");
        assert_eq!(more.len(), 2);
        // Training moved on: a fresh evaluation now differs in general.
        assert!((0.0..=1.0).contains(&t.evaluate(2)));
    }
}
