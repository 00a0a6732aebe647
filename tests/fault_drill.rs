//! End-to-end fault drill: one run that survives a panicking data worker,
//! a NaN-gradient step, and a corrupted checkpoint — the acceptance test
//! for the fault-tolerance subsystem.

use scalefold::{RecoveryEvent, Trainer, TrainerConfig};
use sf_faults::{corrupt, FaultPlan};

fn drill_cfg() -> TrainerConfig {
    let mut cfg = TrainerConfig::tiny();
    cfg.model.evoformer_blocks = 1;
    cfg.model.extra_msa_blocks = 0;
    cfg.model.template_blocks = 0;
    cfg.model.n_templates = 1;
    cfg.model.structure_layers = 1;
    cfg.dataset_len = 6;
    cfg.loader_workers = 2;
    cfg
}

#[test]
fn training_survives_worker_panic_nan_grads_and_corrupt_checkpoint() {
    let dir = std::env::temp_dir().join(format!("sf_fault_drill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One permanently poisoned sample, one NaN-poisoned optimizer step.
    let plan = FaultPlan::none().with_worker_panic(2).with_nan_grad(1);
    let mut trainer = Trainer::with_faults(drill_cfg(), plan);

    // More steps than one epoch has healthy samples (5 of 6), so the run
    // must consume the poisoned sample's failure before finishing.
    let steps = 7;
    let reports = trainer.train(steps);

    // Training completed despite the data fault...
    assert_eq!(reports.len(), steps as usize, "run must complete");
    assert!(
        trainer
            .recovery_log()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::DataFault { .. })),
        "worker panic must be logged: {:?}",
        trainer.recovery_log()
    );
    // ...and exactly the poisoned step was skipped.
    let skipped: Vec<u64> = reports
        .iter()
        .filter(|r| r.skipped)
        .map(|r| r.step)
        .collect();
    assert_eq!(
        skipped,
        vec![2],
        "exactly optimizer step 1 (report 2) skips"
    );
    assert!(reports
        .iter()
        .filter(|r| !r.skipped)
        .all(|r| r.grad_norm.is_finite()));

    // Checkpoint, train on, checkpoint again, then corrupt the newest
    // file: recovery must fall back to the older, valid one.
    let older = trainer.save_checkpoint_step(&dir).expect("save older");
    let weights_at_older: Vec<(String, Vec<f32>)> = trainer
        .store()
        .names()
        .into_iter()
        .map(|n| {
            let t = trainer.store().get(&n).expect("param").data().to_vec();
            (n, t)
        })
        .collect();
    let _ = trainer.train(1);
    let newer = trainer.save_checkpoint_step(&dir).expect("save newer");
    assert_ne!(older, newer);
    let len = corrupt::file_len(&newer).expect("len");
    corrupt::flip_bit(&newer, (len * 3 / 4) as usize, 0).expect("flip");

    let mut recovered = Trainer::new(drill_cfg());
    let summary = recovered
        .resume_latest(&dir)
        .expect("resume must not error")
        .expect("a valid checkpoint exists");
    assert_eq!(
        summary.path, older,
        "must fall back past the corrupt newest file"
    );
    assert_eq!(summary.skipped.len(), 1, "the corrupt file is reported");
    assert_eq!(summary.step, Some(7));
    assert_eq!(recovered.step_count(), 7);

    // Bit-exact restoration of the older checkpoint's weights.
    for (name, data) in &weights_at_older {
        assert_eq!(
            recovered.store().get(name).expect("param").data(),
            data.as_slice(),
            "restored weights must be bit-exact: {name}"
        );
    }

    // The injector saw both scheduled faults actually fire.
    let log = trainer.injector().log();
    assert!(log.iter().any(|e| matches!(
        e,
        sf_faults::FaultEvent::InjectedPanic {
            dataset_index: 2,
            ..
        }
    )));
    assert!(log
        .iter()
        .any(|e| matches!(e, sf_faults::FaultEvent::InjectedNanGrad { step: 1 })));

    let _ = std::fs::remove_dir_all(&dir);
}
