//! Ablation sweeps over the design choices DESIGN.md calls out: DDP
//! overlap fraction, data-loader worker counts, gradient-bucket size,
//! straggler sensitivity, and the per-optimization contribution of the
//! ScaleFold set (leave-one-out).

use scalefold::optimizations::STEPS;
use scalefold::{build_graph, OptimizationSet};
use sf_cluster::{ClusterConfig, ClusterSim};
use sf_gpusim::DeviceSpec;
use sf_model::ModelConfig;
use sf_optim::{GradBuckets, Grads};
use sf_tensor::Tensor;

/// `opts`'s step time on H100s at DP 128, priced like every figure.
fn step(opts: &OptimizationSet) -> f64 {
    opts.step_s(&ModelConfig::paper(), DeviceSpec::h100(), 128)
}

/// The reference model's step time with one knob of its cluster turned.
fn reference_with(mutate: impl FnOnce(&mut ClusterConfig)) -> f64 {
    let opts = OptimizationSet::none();
    let mut cc = opts.cluster(DeviceSpec::h100(), 128);
    mutate(&mut cc);
    ClusterSim::new(&build_graph(&ModelConfig::paper(), &opts), cc).mean_step_s(STEPS)
}

fn main() {
    sf_bench::banner("Ablations");
    let full = OptimizationSet::scalefold();

    // --- Leave-one-out over the optimization set -----------------------
    println!("leave-one-out (H100, DP 128 x DAP-8; higher delta = more important):");
    let baseline = step(&full);
    println!("  {:<28} {:>8.3} s", "all optimizations", baseline);
    type Toggle = Box<dyn Fn(&mut OptimizationSet)>;
    let ablations: Vec<(&str, Toggle)> = vec![
        ("- GEMM batching", Box::new(|o| o.gemm_batching = false)),
        (
            "- non-blocking loader",
            Box::new(|o| o.nonblocking_loader = false),
        ),
        ("- bfloat16", Box::new(|o| o.bf16 = false)),
        ("- Triton MHA", Box::new(|o| o.triton_mha = false)),
        ("- Triton LayerNorm", Box::new(|o| o.triton_ln = false)),
        ("- fused Adam+SWA", Box::new(|o| o.fused_adam_swa = false)),
        ("- CUDA graph", Box::new(|o| o.cuda_graph = false)),
        (
            "- no-ckpt (re-enable ckpt)",
            Box::new(|o| o.no_grad_checkpointing = false),
        ),
        (
            "- disable GC (re-enable GC)",
            Box::new(|o| o.disable_gc = false),
        ),
        ("- torch.compile", Box::new(|o| o.torch_compile = false)),
    ];
    for (name, apply) in ablations {
        let mut o = full;
        apply(&mut o);
        let t = step(&o);
        println!(
            "  {:<28} {:>8.3} s  (+{:>5.1}%)",
            name,
            t,
            100.0 * (t - baseline) / baseline
        );
    }

    // --- Overlap fraction of the gradient all-reduce --------------------
    println!();
    println!("DDP overlap fraction (reference model, DP 128):");
    for overlap in [0.0, 0.25, 0.5, 0.75, 0.95] {
        let t = reference_with(|cc| cc.overlap_fraction = overlap);
        println!("  overlap {overlap:>4.2}: {t:>7.3} s/step");
    }

    // --- Data-loader workers under the blocking loader ------------------
    println!();
    println!("blocking-loader workers (reference model):");
    for workers in [1usize, 2, 4, 8, 16] {
        let t = reference_with(|cc| cc.straggler.data_workers = workers);
        println!("  workers {workers:>2}: {t:>7.3} s/step");
    }

    // --- Gradient bucket size (real kernels) ----------------------------
    println!();
    println!("gradient-clip bucket size (real CPU kernels, 2000 tensors):");
    let mut grads = Grads::new();
    for i in 0..2000 {
        grads.insert(format!("p{i:04}"), Tensor::randn(&[64], i as u64));
    }
    for kib in [16usize, 256, 4096, 25 * 1024] {
        let b = GradBuckets::pack(&grads, kib * 1024);
        println!(
            "  bucket {kib:>6} KiB -> {:>4} buckets (kernel launches: {})",
            b.num_buckets(),
            2 * b.num_buckets()
        );
    }

    // --- Device sensitivity ---------------------------------------------
    println!();
    println!("device sweep (full optimization set, DAP-8):");
    for dev in [DeviceSpec::a100(), DeviceSpec::h100()] {
        let name = dev.name.clone();
        let t = full.step_s(&ModelConfig::paper(), dev, 128);
        println!("  {name:<6}: {t:>7.3} s/step");
    }
}
