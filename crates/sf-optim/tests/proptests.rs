//! Property tests for the optimizers: fused == unfused under arbitrary
//! gradient streams, clipping invariants, bucket round-trips, and schedule
//! laws.

use proptest::prelude::*;
use sf_autograd::ParamStore;
use sf_optim::{
    clip_by_global_norm, Adam, AdamConfig, FusedAdamSwa, GradBuckets, Grads, LrSchedule, Swa,
};
use sf_tensor::Tensor;

fn store_and_grads(shapes: &[usize], seed: u64) -> (ParamStore, Vec<Grads>) {
    let mut store = ParamStore::new();
    for (i, &n) in shapes.iter().enumerate() {
        store.insert(
            format!("p{i:03}"),
            Tensor::randn(&[n], seed.wrapping_add(i as u64)),
        );
    }
    let steps = 5;
    let grads = (0..steps)
        .map(|s| {
            let mut g = Grads::new();
            for (i, &n) in shapes.iter().enumerate() {
                g.insert(
                    format!("p{i:03}"),
                    Tensor::randn(&[n], seed ^ (s * 131 + i as u64 + 7)),
                );
            }
            g
        })
        .collect();
    (store, grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fused Adam+SWA kernel is numerically equivalent to sequential
    /// Adam-then-SWA for arbitrary parameter shapes and gradient streams.
    #[test]
    fn fused_equals_unfused(
        shapes in proptest::collection::vec(1usize..40, 1..6),
        seed in any::<u64>(),
        lr in 1e-4f32..1e-1,
        decay in 0.5f32..0.999,
    ) {
        let (store0, grad_stream) = store_and_grads(&shapes, seed);
        let mut fused_store = store0.clone();
        let mut plain_store = store0;
        let cfg = AdamConfig::default();
        let mut fused = FusedAdamSwa::new(cfg, decay);
        let mut adam = Adam::new(cfg);
        let mut swa = Swa::new(decay);
        for grads in &grad_stream {
            fused.step(&mut fused_store, grads, lr);
            adam.step(&mut plain_store, grads, lr);
            swa.update(&plain_store);
        }
        for (name, p) in plain_store.iter() {
            prop_assert!(fused_store.get(name).expect("present").allclose(p, 1e-4));
            prop_assert!(fused
                .averaged(name)
                .expect("present")
                .allclose(swa.averaged(name).expect("present"), 1e-4));
        }
    }

    /// After clipping, the global norm is at most the threshold (within
    /// rounding), and gradients below it are untouched.
    #[test]
    fn clip_bounds_global_norm(
        shapes in proptest::collection::vec(1usize..30, 1..5),
        seed in any::<u64>(),
        max_norm in 0.1f32..10.0,
    ) {
        let (_, streams) = store_and_grads(&shapes, seed);
        let mut grads = streams.into_iter().next().expect("one step");
        let before: Grads = grads.clone();
        let norm = clip_by_global_norm(&mut grads, max_norm);
        let after_norm: f32 = grads
            .values()
            .map(|t| {
                let n = t.norm() as f64;
                n * n
            })
            .sum::<f64>()
            .sqrt() as f32;
        prop_assert!(after_norm <= max_norm * 1.001 + 1e-6);
        if norm <= max_norm {
            for (name, t) in &before {
                prop_assert_eq!(&grads[name], t);
            }
        }
    }

    /// Bucketed clipping matches per-tensor clipping elementwise.
    #[test]
    fn bucketed_clip_matches_per_tensor(
        shapes in proptest::collection::vec(1usize..30, 1..6),
        seed in any::<u64>(),
        max_norm in 0.05f32..5.0,
        bucket_kib in 1usize..64,
    ) {
        let (_, streams) = store_and_grads(&shapes, seed);
        let grads = streams.into_iter().next().expect("one step");
        let mut per_tensor = grads.clone();
        clip_by_global_norm(&mut per_tensor, max_norm);
        let mut buckets = GradBuckets::pack(&grads, bucket_kib * 1024);
        buckets.clip(max_norm);
        let unpacked = buckets.unpack();
        for (name, t) in &per_tensor {
            let flat = t.reshape(&[t.len()]).expect("sized");
            prop_assert!(flat.allclose(&unpacked[name], 1e-5), "mismatch at {}", name);
        }
    }

    /// Bucket pack/unpack is lossless for any bucket size.
    #[test]
    fn bucket_round_trip(
        shapes in proptest::collection::vec(1usize..50, 1..8),
        seed in any::<u64>(),
        bucket_bytes in 4usize..4096,
    ) {
        let (_, streams) = store_and_grads(&shapes, seed);
        let grads = streams.into_iter().next().expect("one step");
        let buckets = GradBuckets::pack(&grads, bucket_bytes);
        let back = buckets.unpack();
        for (name, t) in &grads {
            prop_assert_eq!(back[name].data(), t.data());
        }
    }

    /// The LR schedule is non-negative, bounded by the peak, and
    /// non-decreasing through warm-up.
    #[test]
    fn schedule_laws(
        peak in 1e-5f32..1e-1,
        warmup in 0u64..5000,
        s1 in 0u64..100_000,
    ) {
        let sched = LrSchedule {
            peak_lr: peak,
            warmup_steps: warmup,
            decay_after: 50_000,
            decay_factor: 0.95,
            decay_every: 50_000,
        };
        let lr = sched.lr_at(s1);
        prop_assert!(lr >= 0.0 && lr <= peak * 1.0001);
        if s1 + 1 < warmup {
            prop_assert!(sched.lr_at(s1 + 1) >= lr);
        }
    }
}
