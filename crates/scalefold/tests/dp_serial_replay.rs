//! The data-parallel step, replayed serially by hand through the public
//! slot APIs, is **bitwise** what `DataParallelTrainer::train_step` takes.
//!
//! The trainer runs its replicas' forward and backward on concurrent
//! threads. This replay runs them one after another on one thread: each
//! replica's forward on its own store and its own `DapGroup`, then
//! `take_param_grads`, a ring all-reduce slot by slot in name order,
//! `clip_slots_by_global_norm` and `step_slots` on every replica. Reports,
//! every replica's weights and the summed DAP traffic must match bit for
//! bit, so the threads change when the work runs and nothing else.

use scalefold::distributed::{dp_test_model, DpStepReport};
use scalefold::{DapGroup, DapStats, DataParallelTrainer, TrainerConfig};
use sf_autograd::{Graph, ParamStore, SlotGrads};
use sf_cluster::collective::all_reduce_tensors;
use sf_data::featurize::featurize;
use sf_data::SyntheticDataset;
use sf_model::{AlphaFold, FeatureBatch};
use sf_optim::{clip_slots_by_global_norm, FusedAdamSwa};
use sf_tensor::Tensor;

const STEPS: usize = 3;

fn grid_cfg(dap: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::tiny();
    cfg.model = dp_test_model();
    cfg.model.n_seq = 4; // divisible by the DAP ranks
    cfg.schedule.warmup_steps = 2;
    cfg.dap = dap;
    cfg
}

/// `STEPS` steps of `ranks` explicit batches each.
fn batches(cfg: &TrainerConfig, ranks: usize) -> Vec<Vec<FeatureBatch>> {
    let ds = SyntheticDataset::new(cfg.seed ^ 0x5E1A, STEPS * ranks);
    (0..STEPS)
        .map(|step| {
            (0..ranks)
                .map(|r| {
                    let i = step * ranks + r;
                    featurize(&ds.record(i), &cfg.model, i as u64)
                })
                .collect()
        })
        .collect()
}

/// One replica of the hand-built grid.
struct Replica {
    store: ParamStore,
    optimizer: FusedAdamSwa,
    dap: DapGroup,
}

/// The serial grid: every replica's forward and backward in rank order,
/// then the same serial reduction and update the trainer takes.
struct SerialGrid {
    cfg: TrainerConfig,
    model: AlphaFold,
    replicas: Vec<Replica>,
    step: u64,
    dap_comm: DapStats,
}

impl SerialGrid {
    fn new(cfg: TrainerConfig, ranks: usize) -> Self {
        let replicas = (0..ranks)
            .map(|_| Replica {
                store: ParamStore::new(),
                optimizer: FusedAdamSwa::new(cfg.adam, cfg.swa_decay),
                dap: DapGroup::new(cfg.dap),
            })
            .collect();
        SerialGrid {
            model: AlphaFold::new(cfg.model.clone()),
            replicas,
            step: 0,
            dap_comm: DapStats::default(),
            cfg,
        }
    }

    fn step(&mut self, batches: &[FeatureBatch]) -> DpStepReport {
        let n = batches.len() as f32;
        let mut loss = 0.0f32;
        let mut grads: Vec<SlotGrads> = Vec::new();
        let mut step_dap = DapStats::default();
        for (replica, batch) in self.replicas.iter_mut().zip(batches) {
            let mut g = Graph::new();
            let out = self
                .model
                .forward_dap(&mut g, &mut replica.store, batch, Some(&replica.dap))
                .expect("forward");
            g.backward(out.loss).expect("backward");
            grads.push(g.take_param_grads(&replica.store).expect("own store"));
            loss += out.loss_breakdown.total / n;
            step_dap += replica.dap.take_stats();
        }
        self.dap_comm += step_dap;

        let order = self.replicas[0].store.sorted_slots();
        let mut elements_all_reduced = 0;
        if grads.len() > 1 {
            for &slot in order {
                if grads[0][slot].is_none() {
                    continue;
                }
                let mut tensors: Vec<Tensor> = grads
                    .iter_mut()
                    .map(|g| g[slot].take().expect("same parameters"))
                    .collect();
                elements_all_reduced += all_reduce_tensors(&mut tensors).elements_sent;
                for (g, t) in grads.iter_mut().zip(tensors) {
                    g[slot] = Some(t);
                }
            }
        }

        let lr = self.cfg.schedule.lr_at(self.step);
        let norm = clip_slots_by_global_norm(&mut grads[0], order, self.cfg.clip_norm);
        let finite = loss.is_finite() && norm.is_finite();
        if finite {
            for replica in &mut self.replicas {
                replica
                    .optimizer
                    .step_slots(&mut replica.store, &grads[0], lr);
            }
        }
        self.step += 1;
        DpStepReport {
            step: self.step,
            mean_loss: loss,
            grad_norm: if finite { norm } else { f32::NAN },
            elements_all_reduced,
            elements_dap: step_dap.total_elements(),
            max_replica_divergence: 0.0,
            skipped: !finite,
        }
    }
}

/// A report's fields as bits, so NaN compares equal to NaN.
fn report_bits(r: &DpStepReport) -> (u64, u32, u32, usize, usize, u32, bool) {
    (
        r.step,
        r.mean_loss.to_bits(),
        r.grad_norm.to_bits(),
        r.elements_all_reduced,
        r.elements_dap,
        r.max_replica_divergence.to_bits(),
        r.skipped,
    )
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn assert_replay_matches(ranks: usize, dap: usize) {
    let cfg = grid_cfg(dap);
    let steps = batches(&cfg, ranks);
    let mut trainer = DataParallelTrainer::new(cfg.clone(), ranks);
    let mut serial = SerialGrid::new(cfg, ranks);
    for (i, step_batches) in steps.iter().enumerate() {
        let got = trainer.train_step(step_batches);
        let want = serial.step(step_batches);
        let case = format!("DP-{ranks} x DAP-{dap} step {i}");
        assert_eq!(report_bits(&got), report_bits(&want), "{case}: report");
    }
    for (rank, replica) in serial.replicas.iter().enumerate() {
        let store = trainer.store(rank);
        assert_eq!(store.len(), replica.store.len(), "replica {rank}");
        for (name, want) in replica.store.iter() {
            let got = store.get(name).expect("same parameters");
            assert_eq!(bits(got), bits(want), "replica {rank}: weights of {name}");
        }
    }
    assert_eq!(trainer.dap_comm(), serial.dap_comm, "summed DAP traffic");
}

#[test]
fn dp2_dap2_grid_is_bitwise_the_serial_replay() {
    assert_replay_matches(2, 2);
}

#[test]
fn dp3_is_bitwise_the_serial_replay() {
    assert_replay_matches(3, 1);
}
