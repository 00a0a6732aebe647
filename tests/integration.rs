//! Cross-crate integration tests: the real training stack end to end, the
//! data pipeline under stragglers, and consistency between the algorithmic
//! implementations and the performance model.

use scalefold::{build_graph, OptimizationSet, Trainer, TrainerConfig};
use sf_autograd::{Graph, ParamStore};
use sf_data::featurize::featurize;
use sf_data::loader::{Dataset, Loader, LoaderConfig, LoaderKind};
use sf_data::SyntheticDataset;
use sf_gpusim::{CpuModel, DeviceSpec};
use sf_model::metrics::lddt_ca;
use sf_model::{AlphaFold, ModelConfig};
use sf_opgraph::profile::step_time;
use std::sync::Arc;
use std::time::Duration;

fn tiny_model_cfg() -> ModelConfig {
    let mut cfg = ModelConfig::tiny();
    cfg.evoformer_blocks = 1;
    cfg.extra_msa_blocks = 0;
    cfg.template_blocks = 0;
    cfg
}

#[test]
fn end_to_end_real_training_step() {
    // Dataset -> featurization -> model forward -> backward -> optimizer,
    // across five crates, with gradients reaching every parameter.
    let cfg = tiny_model_cfg();
    let ds = SyntheticDataset::new(1, 4);
    let batch = featurize(&ds.record(0), &cfg, 1);
    batch
        .validate(&cfg)
        .expect("featurized batch matches model config");

    let model = AlphaFold::new(cfg);
    let mut store = ParamStore::new();
    let mut g = Graph::new();
    let out = model.forward(&mut g, &mut store, &batch).expect("forward");
    assert!(out.loss_breakdown.total.is_finite());
    g.backward(out.loss).expect("backward");
    let grads = g.grads_by_name().expect("grads");
    assert_eq!(grads.len(), store.len(), "every parameter has a gradient");
    let lddt = lddt_ca(g.value(out.coords), &batch.true_coords, &batch.residue_mask);
    assert!((0.0..=1.0).contains(&lddt));
}

#[test]
fn trainer_improves_on_fixed_protein() {
    let mut tc = TrainerConfig::tiny();
    tc.model = tiny_model_cfg();
    tc.dataset_len = 2;
    tc.schedule.warmup_steps = 3;
    let mut trainer = Trainer::new(tc);
    let reports = trainer.train(16);
    let first4: f32 = reports[..4].iter().map(|r| r.loss).sum::<f32>() / 4.0;
    let last4: f32 = reports[12..].iter().map(|r| r.loss).sum::<f32>() / 4.0;
    assert!(
        last4 < first4,
        "training must reduce loss: {first4:.4} -> {last4:.4}"
    );
}

#[test]
fn pipeline_under_stragglers_delivers_exactly_once() {
    struct Sleepy;
    impl Dataset for Sleepy {
        type Item = usize;
        fn len(&self) -> usize {
            24
        }
        fn prepare(&self, index: usize) -> usize {
            // Every 6th batch is a straggler.
            let ms = if index.is_multiple_of(6) { 40 } else { 2 };
            std::thread::sleep(Duration::from_millis(ms));
            index
        }
    }
    let order: Vec<usize> = (0..24).collect();
    let run = |kind| -> Vec<usize> {
        Loader::new(
            Arc::new(Sleepy),
            order.clone(),
            LoaderConfig::default(),
            kind,
        )
        .map(|item| item.expect("no faults").0)
        .collect()
    };
    let nb = run(LoaderKind::NonBlocking);
    let mut sorted = nb.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, order, "exactly-once delivery");
    assert_ne!(nb, order, "stragglers should reorder delivery");

    assert_eq!(
        run(LoaderKind::Blocking),
        order,
        "blocking loader preserves order exactly"
    );
}

#[test]
fn model_forward_is_deterministic_at_model_scale() {
    // The real fused CPU kernels inside a real forward pass: run the same
    // model twice from one store; outputs must be deterministic and equal.
    let cfg = tiny_model_cfg();
    let batch = sf_model::FeatureBatch::synthetic(&cfg, 3);
    let model = AlphaFold::new(cfg);
    let mut store = ParamStore::new();
    let mut g1 = Graph::new();
    let o1 = model
        .forward(&mut g1, &mut store, &batch)
        .expect("forward 1");
    let mut g2 = Graph::new();
    let o2 = model
        .forward(&mut g2, &mut store, &batch)
        .expect("forward 2");
    assert_eq!(g1.value(o1.coords), g2.value(o2.coords));
    assert_eq!(o1.loss_breakdown.total, o2.loss_breakdown.total);
}

#[test]
fn optimization_set_speedup_composes_across_crates() {
    // opgraph fusions + gpusim stream + cluster semantics all plugged
    // together through the public API.
    let cfg = ModelConfig::paper();
    let dev = DeviceSpec::h100();
    let t = |opts: &OptimizationSet, graph_mode: bool| {
        step_time(
            &build_graph(&cfg, opts),
            &dev,
            CpuModel::healthy(),
            graph_mode,
        )
        .total_s
    };
    let reference = t(&OptimizationSet::none(), false);
    let fused_only = t(
        &OptimizationSet {
            triton_mha: true,
            triton_ln: true,
            fused_adam_swa: true,
            ..OptimizationSet::none()
        },
        false,
    );
    let everything = t(&OptimizationSet::scalefold(), true);
    assert!(fused_only < reference);
    assert!(everything < fused_only);
}

#[test]
fn checkpointing_memory_vs_speed_tradeoff_is_real() {
    // The real autograd: checkpointing cuts activation bytes; the graph
    // model: it adds recompute kernels. Both directions must hold.
    let mut cfg = tiny_model_cfg();
    let batch = sf_model::FeatureBatch::synthetic(&cfg, 4);
    let mut store = ParamStore::new();

    cfg.gradient_checkpointing = false;
    let mut g_plain = Graph::new();
    AlphaFold::new(cfg.clone())
        .forward(&mut g_plain, &mut store, &batch)
        .expect("plain forward");

    cfg.gradient_checkpointing = true;
    let mut g_ckpt = Graph::new();
    AlphaFold::new(cfg)
        .forward(&mut g_ckpt, &mut store, &batch)
        .expect("checkpointed forward");
    assert!(g_ckpt.activation_bytes() < g_plain.activation_bytes());

    // Performance model side.
    let paper = ModelConfig::paper();
    let with = sf_opgraph::builder::StepGraph::reference_checkpointed(&paper, 1);
    let without = sf_opgraph::builder::StepGraph::reference(&paper, 1);
    let dev = DeviceSpec::h100();
    let busy = |g: &sf_opgraph::builder::StepGraph| {
        step_time(g, &dev, CpuModel::healthy(), true).gpu_busy_s
    };
    assert!(busy(&with) > busy(&without));
}

#[test]
fn bf16_model_quantization_keeps_training_finite() {
    let mut tc = TrainerConfig::tiny();
    tc.model = tiny_model_cfg();
    tc.precision = sf_tensor::bf16::Precision::Bf16;
    tc.dataset_len = 2;
    let mut trainer = Trainer::new(tc);
    for r in trainer.train(4) {
        assert!(r.loss.is_finite());
        assert!(r.grad_norm.is_finite());
    }
}
