//! Data-parallel training over a DP×DAP grid of real replicas — a view of
//! the one training-step engine, [`Trainer`].
//!
//! [`DataParallelTrainer`] holds no step logic of its own: it builds a
//! [`Trainer`] with `ranks` replicas and reports its steps as
//! [`DpStepReport`]s. Every replica runs the same forward, backward and
//! precision rounding on its own batch, all replicas at once on their own
//! threads, each with its own store and DAP group. Then, in replica order,
//! the gradients are averaged in place by the ring all-reduce of
//! `sf_cluster::collective` (the algorithm the cluster simulator prices),
//! clipped per tensor by global norm, and every replica applies the same
//! optimizer update, so the step is bitwise the serial one. Batches come
//! from the trainer's one loader feed, `ranks` per step.
//!
//! The invariants this module tests:
//!
//! - replicas that start identical and all-reduce their gradients stay
//!   **bit-comparable** forever (the fundamental DP contract);
//! - DP-k training on k batches takes the same parameter step as a single
//!   trainer fed the averaged gradient of those k batches, and DP-1 is
//!   bitwise a single-replica [`Trainer`];
//! - the gradient traffic all-reduced per step is exactly what
//!   `ClusterSim` prices (`param_elements × bytes`);
//! - DP composes with Dynamic Axial Parallelism into a DP×DAP grid
//!   (ScaleFold §3.3): each replica shards its own sample's activations
//!   across `cfg.dap` axial ranks, while gradients synchronize across the
//!   data-parallel axis exactly as before.

use crate::dap::DapStats;
use crate::trainer::{EngineStep, Trainer, TrainerConfig};
use sf_autograd::ParamStore;
use sf_faults::FaultPlan;
use sf_model::{FeatureBatch, ModelConfig};

/// Per-step report of a data-parallel training step.
#[derive(Debug, Clone, PartialEq)]
pub struct DpStepReport {
    /// Step index.
    pub step: u64,
    /// Mean loss across replicas.
    pub mean_loss: f32,
    /// Global gradient norm after averaging (pre-clip; NaN when the step
    /// was skipped).
    pub grad_norm: f32,
    /// Elements communicated by the ring all-reduce this step.
    pub elements_all_reduced: usize,
    /// Elements moved by DAP collectives this step, summed over replicas
    /// (0 when `cfg.dap <= 1`).
    pub elements_dap: usize,
    /// Maximum parameter divergence across replicas after the step
    /// (should be ~0: the DP contract).
    pub max_replica_divergence: f32,
    /// True if the optimizer update was skipped because the averaged
    /// gradients' global norm (or the loss) was non-finite. All replicas
    /// skip together — the decision is made on the identical averaged
    /// gradients — so synchrony is preserved.
    pub skipped: bool,
}

/// A `k`-replica data-parallel trainer: a [`Trainer`] with `k` replicas.
pub struct DataParallelTrainer(Trainer);

impl DataParallelTrainer {
    /// Creates `ranks` replicas. Parameters initialize lazily on the first
    /// step (deterministically by name, so all replicas start identical).
    /// With `cfg.dap > 1` this is a DP×DAP grid of `ranks × cfg.dap`
    /// simulated devices.
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`, or if `cfg.dap > 1` and the model's axial
    /// dimensions do not divide evenly across the DAP ranks.
    pub fn new(cfg: TrainerConfig, ranks: usize) -> Self {
        DataParallelTrainer::with_faults(cfg, ranks, FaultPlan::none())
    }

    /// Like [`DataParallelTrainer::new`], with a fault schedule:
    /// NaN-gradient faults fire on replica 0 before the all-reduce, so the
    /// poison propagates to every replica's averaged gradients — the
    /// worst-case large-scale failure the skip guard must absorb.
    pub fn with_faults(cfg: TrainerConfig, ranks: usize, plan: FaultPlan) -> Self {
        DataParallelTrainer(Trainer::with_replicas(cfg, ranks, plan))
    }

    /// Number of replicas.
    pub fn ranks(&self) -> usize {
        self.0.ranks()
    }

    /// Cumulative DAP communication over all steps and replicas (zero when
    /// `cfg.dap <= 1`).
    pub fn dap_comm(&self) -> DapStats {
        self.0.dap_comm()
    }

    /// A replica's parameter store.
    pub fn store(&self, rank: usize) -> &ParamStore {
        self.0.replica_store(rank)
    }

    /// One synchronous data-parallel step: each replica computes gradients
    /// on its own batch, gradients are ring-all-reduced (mean) and clipped,
    /// and every replica takes the same optimizer step.
    ///
    /// # Panics
    ///
    /// Panics if `batches.len() != ranks` or a batch mismatches the model
    /// configuration.
    pub fn train_step(&mut self, batches: &[FeatureBatch]) -> DpStepReport {
        let step = self.0.step(batches);
        dp_report(&self.0, step)
    }

    /// Trains `steps` steps on batches from the trainer's loader feed,
    /// `ranks` per step.
    pub fn train(&mut self, steps: u64) -> Vec<DpStepReport> {
        self.0.run(steps, dp_report)
    }

    /// Maximum absolute parameter difference between replica 0 and the
    /// others (the DP-synchrony invariant; ~0 up to f32 rounding).
    pub fn max_divergence(&self) -> f32 {
        max_divergence(&self.0)
    }
}

fn dp_report(engine: &Trainer, step: EngineStep) -> DpStepReport {
    DpStepReport {
        step: step.report.step,
        mean_loss: step.report.loss,
        grad_norm: step.report.grad_norm,
        elements_all_reduced: step.elements_all_reduced,
        elements_dap: step.elements_dap,
        max_replica_divergence: max_divergence(engine),
        skipped: step.report.skipped,
    }
}

fn max_divergence(engine: &Trainer) -> f32 {
    let base = engine.replica_store(0);
    let mut max = 0.0f32;
    for rank in 1..engine.ranks() {
        let other = engine.replica_store(rank);
        for (name, t) in base.iter() {
            if let Some(o) = other.get(name) {
                for (a, b) in t.data().iter().zip(o.data().iter()) {
                    max = max.max((a - b).abs());
                }
            }
        }
    }
    max
}

/// A ModelConfig small enough for multi-replica CPU tests.
pub fn dp_test_model() -> ModelConfig {
    let mut cfg = ModelConfig::tiny();
    cfg.evoformer_blocks = 1;
    cfg.extra_msa_blocks = 0;
    cfg.template_blocks = 0;
    cfg.structure_layers = 1;
    cfg.n_res = 8;
    cfg.n_seq = 3;
    cfg.n_extra_seq = 4;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_autograd::Graph;
    use sf_data::featurize::featurize;
    use sf_data::SyntheticDataset;
    use sf_model::AlphaFold;
    use sf_optim::{FusedAdamSwa, GradBuckets, Grads};
    use sf_tensor::bf16::Precision;
    use sf_tensor::Tensor;

    fn dp_cfg() -> TrainerConfig {
        let mut cfg = TrainerConfig::tiny();
        cfg.model = dp_test_model();
        cfg.schedule.warmup_steps = 2;
        cfg
    }

    #[test]
    fn replicas_stay_synchronized() {
        let mut dp = DataParallelTrainer::new(dp_cfg(), 3);
        let reports = dp.train(4);
        for r in &reports {
            assert!(
                r.max_replica_divergence < 1e-5,
                "step {}: divergence {}",
                r.step,
                r.max_replica_divergence
            );
            assert!(r.mean_loss.is_finite());
        }
    }

    #[test]
    fn all_reduce_traffic_matches_parameter_count() {
        let mut dp = DataParallelTrainer::new(dp_cfg(), 2);
        let reports = dp.train(1);
        let params: usize = dp.store(0).num_elements();
        // Ring with n=2 sends 2*(n-1)/n = 1x the elements per rank; summed
        // over ranks = params * 2 * (n-1) = params * 2.
        let expect = params * 2;
        let got = reports[0].elements_all_reduced;
        assert!(
            got.abs_diff(expect) <= 2 * dp.store(0).len(),
            "traffic {got} vs expected ~{expect}"
        );
    }

    #[test]
    fn dp2_matches_single_trainer_on_averaged_gradient() {
        // A DP-2 step equals a single-replica step taken on the mean of the
        // two batches' gradients — verified by comparing parameters after
        // one step against a manual average.
        let cfg = dp_cfg();
        let ds = SyntheticDataset::new(cfg.seed ^ 0xD0, 64);
        let b0 = featurize(&ds.record(0), &cfg.model, cfg.seed);
        let b1 = featurize(&ds.record(1), &cfg.model, cfg.seed ^ 1);

        let mut dp = DataParallelTrainer::new(cfg.clone(), 2);
        dp.train_step(&[b0.clone(), b1.clone()]);

        // Manual: one store, average the two gradient maps, same optimizer.
        let model = AlphaFold::new(cfg.model.clone());
        let mut store = ParamStore::new();
        let mut grads_sum: Option<Grads> = None;
        for batch in [&b0, &b1] {
            let mut g = Graph::new();
            let out = model.forward(&mut g, &mut store, batch).expect("fwd");
            g.backward(out.loss).expect("bwd");
            let grads = g.grads_by_name().expect("grads");
            grads_sum = Some(match grads_sum {
                None => grads,
                Some(mut acc) => {
                    for (name, t) in grads {
                        let merged = acc[&name].add(&t).expect("same shapes");
                        acc.insert(name, merged);
                    }
                    acc
                }
            });
        }
        let mut grads = grads_sum.expect("two batches");
        for t in grads.values_mut() {
            *t = t.mul_scalar(0.5);
        }
        let mut buckets = GradBuckets::pack(&grads, 25 * 1024 * 1024);
        buckets.clip(cfg.clip_norm);
        for (name, t) in buckets.unpack() {
            grads.insert(name, t);
        }
        let mut opt = FusedAdamSwa::new(cfg.adam, cfg.swa_decay);
        opt.step(&mut store, &grads, cfg.schedule.lr_at(0));

        for (name, manual) in store.iter() {
            let dp_param = dp.store(0).get(name).expect("same params");
            assert!(
                manual.allclose(dp_param, 1e-4),
                "parameter {name} differs between DP-2 and manual averaging"
            );
        }
    }

    #[test]
    fn single_rank_dp_equals_plain_trainer_shape() {
        let mut dp = DataParallelTrainer::new(dp_cfg(), 1);
        let reports = dp.train(2);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].elements_all_reduced, 0); // no comm at DP-1
        assert_eq!(reports[1].max_replica_divergence, 0.0);
        assert_eq!(reports[0].elements_dap, 0);
    }

    /// DP-1 is the single-replica trainer, bit for bit: same loss, grad
    /// norm and weights after every step, across precision and DAP.
    #[test]
    fn dp1_is_bitwise_the_single_replica_trainer() {
        for precision in [Precision::F32, Precision::Bf16] {
            for dap in [1, 2] {
                let mut cfg = dp_cfg();
                cfg.model.n_seq = 4; // divisible by the DAP ranks
                cfg.precision = precision;
                cfg.dap = dap;
                let ds = SyntheticDataset::new(cfg.seed, 2);
                let mut single = Trainer::new(cfg.clone());
                let mut dp = DataParallelTrainer::new(cfg.clone(), 1);
                for i in 0..2 {
                    let batch = featurize(&ds.record(i), &cfg.model, i as u64);
                    let want = single.train_step(&batch);
                    let got = dp.train_step(std::slice::from_ref(&batch));
                    let case = format!("{precision:?} dap={dap} step {i}");
                    assert_eq!(got.mean_loss.to_bits(), want.loss.to_bits(), "{case}: loss");
                    let norm = (got.grad_norm.to_bits(), want.grad_norm.to_bits());
                    assert_eq!(norm.0, norm.1, "{case}: grad norm");
                }
                let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for (name, t) in single.store().iter() {
                    let other = dp.store(0).get(name).expect("same parameters");
                    let case = format!("{precision:?} dap={dap}");
                    assert_eq!(bits(t), bits(other), "{case}: weights of {name}");
                }
            }
        }
    }

    /// A DP-2 × DAP-2 grid trains like plain DP-2: the activation sharding
    /// is numerically transparent, replicas stay synchronized, and the DAP
    /// traffic is exactly `replicas × analytic volume` per step.
    #[test]
    fn dp_dap_grid_matches_plain_dp() {
        let mut cfg = dp_cfg();
        cfg.model.n_seq = 4; // divisible by the DAP ranks (dp_test_model uses 3)
        cfg.loader_workers = 1; // both runs see the same batch order
        let mut plain = DataParallelTrainer::new(cfg.clone(), 2);
        let plain_reports = plain.train(2);

        cfg.dap = 2;
        let mut grid = DataParallelTrainer::new(cfg.clone(), 2);
        let grid_reports = grid.train(2);

        let per_step = crate::dap::analytic_comm_volume(&cfg.model, 2);
        for (p, g) in plain_reports.iter().zip(grid_reports.iter()) {
            assert!(
                (p.mean_loss - g.mean_loss).abs() <= 1e-4,
                "step {}: loss {} vs {}",
                p.step,
                p.mean_loss,
                g.mean_loss
            );
            assert!(g.max_replica_divergence < 1e-5);
            assert_eq!(g.elements_dap, 2 * per_step.total_elements());
            assert_eq!(p.elements_dap, 0);
        }
        let total = grid.dap_comm();
        assert_eq!(total.gathers, 2 * 2 * per_step.gathers);
        assert_eq!(total.switches, 2 * 2 * per_step.switches);
    }

    /// One replica's NaN gradient spreads to every replica through the
    /// all-reduce; the clip surfaces the non-finite norm and the
    /// whole grid skips the update together, leaving weights and synchrony
    /// intact.
    #[test]
    fn poisoned_gradient_skips_update_on_all_replicas() {
        let cfg = dp_cfg();
        let plan = FaultPlan::none().with_nan_grad(1);
        let mut dp = DataParallelTrainer::with_faults(cfg, 2, plan);
        let r0 = dp.train(1).pop().expect("one report");
        assert!(!r0.skipped);
        let before: Vec<(String, Tensor)> = dp
            .store(0)
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect();

        let r1 = dp.train(1).pop().expect("one report");
        assert!(r1.skipped, "poisoned step must skip");
        assert!(r1.grad_norm.is_nan());
        assert!(r1.max_replica_divergence < 1e-6);
        for (name, t) in &before {
            let after = dp.store(0).get(name).expect("param persists");
            assert_eq!(t.data(), after.data(), "{name} changed on a skipped step");
        }

        let r2 = dp.train(1).pop().expect("one report");
        assert!(!r2.skipped, "training resumes after the skip");
    }
}
