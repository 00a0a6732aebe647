//! Full real training run on the CPU: a tiny AlphaFold learning to fold
//! synthetic proteins, with SWA, gradient clipping, LR warm-up, and the
//! non-blocking data pipeline — the paper's training recipe end to end.
//!
//! Run with: `cargo run --release --example train_tiny`

use scalefold::{Trainer, TrainerConfig};

fn main() {
    let mut cfg = TrainerConfig::tiny();
    cfg.model.evoformer_blocks = 2;
    cfg.model.extra_msa_blocks = 1;
    cfg.model.n_res = 10;
    cfg.dataset_len = 6;
    cfg.schedule.warmup_steps = 5;
    let steps = 30;

    println!(
        "training AlphaFold(tiny: {} evoformer blocks, {} residues) for {steps} steps",
        cfg.model.evoformer_blocks, cfg.model.n_res
    );
    let mut trainer = Trainer::new(cfg);
    let reports = trainer.train(steps);

    for chunk in reports.chunks(5) {
        let last = chunk.last().expect("nonempty chunk");
        let mean_loss: f32 = chunk.iter().map(|r| r.loss).sum::<f32>() / chunk.len() as f32;
        let mean_lddt: f32 = chunk.iter().map(|r| r.lddt).sum::<f32>() / chunk.len() as f32;
        println!(
            "  steps {:>3}-{:>3}: mean loss {:>8.4}  mean lDDT-Ca {:.3}  lr {:.2e}",
            chunk[0].step, last.step, mean_loss, mean_lddt, last.lr
        );
    }

    let first5: f32 = reports[..5].iter().map(|r| r.loss).sum::<f32>() / 5.0;
    let last5: f32 = reports[reports.len() - 5..]
        .iter()
        .map(|r| r.loss)
        .sum::<f32>()
        / 5.0;
    println!();
    println!("loss: first-5 mean {first5:.4} -> last-5 mean {last5:.4}");
    println!(
        "eval lDDT-Ca on held-out synthetic proteins (SWA weights): {:.3}",
        trainer.evaluate(3)
    );
    if last5 < first5 {
        println!("the model is learning.");
    } else {
        println!("warning: no improvement at this budget (try more steps).");
    }
}
