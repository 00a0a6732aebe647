//! Property tests for the GPU performance model: roofline laws, stream
//! accounting identities, graph-cache behaviour, and autotuner soundness.

use proptest::prelude::*;
use sf_gpusim::{
    autotune, CpuModel, CudaGraph, DeviceSpec, GraphCache, Kernel, KernelTemplate, Stream,
    TileConfig,
};

fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (1.0f64..1e12, 1.0f64..1e10, 1usize..10_000, 0.05f64..1.0).prop_map(
        |(flops, bytes, par, eff)| Kernel::math("k", flops, bytes, par).with_efficiency(eff),
    )
}

fn arb_kernels() -> impl Strategy<Value = Vec<Kernel>> {
    proptest::collection::vec(arb_kernel(), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Duration is positive and monotone in both FLOPs and bytes.
    #[test]
    fn roofline_monotone(k in arb_kernel(), scale in 1.1f64..10.0) {
        let dev = DeviceSpec::h100();
        let base = k.duration_s(&dev);
        prop_assert!(base > 0.0);
        let mut more_math = k.clone();
        more_math.flops *= scale;
        prop_assert!(more_math.duration_s(&dev) >= base);
        let mut more_bytes = k.clone();
        more_bytes.bytes *= scale;
        prop_assert!(more_bytes.duration_s(&dev) >= base);
    }

    /// Sharding never makes a single kernel slower.
    #[test]
    fn shard_never_slower(k in arb_kernel(), n in 1usize..16) {
        let dev = DeviceSpec::a100();
        prop_assert!(k.shard(n).duration_s(&dev) <= k.duration_s(&dev) + 1e-12);
    }

    /// Stream accounting identity: total = busy + exposed, all
    /// non-negative; graph mode never exceeds eager mode.
    #[test]
    fn stream_accounting(ks in arb_kernels(), slowdown in 1.0f64..8.0) {
        let s = Stream::new(DeviceSpec::h100(), CpuModel::contended(slowdown));
        let eager = s.run_eager(&ks);
        prop_assert!((eager.total_s - eager.gpu_busy_s - eager.cpu_exposed_s).abs() < 1e-9);
        prop_assert!(eager.cpu_exposed_s >= 0.0);
        let graph = s.run_graph(&ks);
        prop_assert!(graph.total_s <= eager.total_s + 1e-9);
        prop_assert!((graph.gpu_busy_s - eager.gpu_busy_s).abs() < 1e-9);
    }

    /// Sync points only ever add time to an eager run.
    #[test]
    fn syncs_never_speed_up(ks in arb_kernels(), sync_at in 0usize..40) {
        let s = Stream::new(DeviceSpec::a100(), CpuModel::healthy());
        let plain = s.run_eager(&ks).total_s;
        let synced = s.run_eager_with_syncs(&ks, &[sync_at.min(ks.len())]).total_s;
        prop_assert!(synced >= plain - 1e-12);
    }

    /// Graph-cache replay is never slower than its own capture, and hits
    /// accumulate correctly.
    #[test]
    fn graph_cache_behaviour(ks in arb_kernels(), replays in 1usize..5) {
        let s = Stream::new(DeviceSpec::h100(), CpuModel::healthy());
        let mut cache = GraphCache::new();
        let first = cache.run(&s, "key", &ks).total_s;
        for _ in 0..replays {
            let replay = cache.run(&s, "key", &ks).total_s;
            prop_assert!(replay <= first + 1e-9);
        }
        prop_assert_eq!(cache.stats().misses, 1);
        prop_assert_eq!(cache.stats().hits, replays);
        // Standalone capture cost >= replay cost.
        let g = CudaGraph::capture(&s, &ks);
        prop_assert!(g.capture_cost_s() >= g.replay(&s).total_s - 1e-9);
    }

    /// The autotuner never returns a config worse than the default, for
    /// arbitrary problem shapes, on either device.
    #[test]
    fn autotune_sound(rows in 1usize..100_000, cols in 1usize..1024) {
        for dev in [DeviceSpec::a100(), DeviceSpec::h100()] {
            let t = KernelTemplate::layer_norm(rows, cols, 8.0);
            let (best, tuned) = autotune(&t, &dev);
            let default = t.duration_s(TileConfig::default_config(), &dev);
            prop_assert!(tuned <= default + 1e-15, "{rows}x{cols} on {}", dev.name);
            prop_assert!(tuned > 0.0);
            // The chosen config reproduces the reported time.
            prop_assert!((t.duration_s(best, &dev) - tuned).abs() < 1e-15);
        }
    }
}
