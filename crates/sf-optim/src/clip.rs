//! Gradient clipping by global norm.
//!
//! The naive implementation norms and scales each of AlphaFold's >4000
//! gradient tensors separately (thousands of kernel launches, <1% of
//! theoretical throughput per the paper). The optimized path reuses the
//! distributed-training **gradient buckets**: gradients already live packed
//! in a handful of flat buffers for the all-reduce, so the norm reduces over
//! tens of buffers instead of thousands of tensors — and in the cluster
//! simulator its latency hides under the communication.

use crate::Grads;
use sf_tensor::Tensor;

/// Computes the global L2 norm the naive way: one reduction per tensor,
/// then a host-side combine. Returns the norm.
pub fn global_norm_naive(grads: &Grads) -> f32 {
    global_norm(grads.values())
}

/// The global L2 norm of `grads`, summing per-tensor squared norms in `f64`
/// in iteration order.
fn global_norm<'a>(grads: impl Iterator<Item = &'a Tensor>) -> f32 {
    grads
        .map(|g| {
            let n = g.norm() as f64;
            n * n
        })
        .sum::<f64>()
        .sqrt() as f32
}

/// Clips all gradients in place so the global norm is at most `max_norm`.
/// Returns the pre-clip norm.
///
/// A non-finite norm (NaN/inf gradients) is returned untouched and the
/// gradients are left unscaled: `max_norm / inf == 0` would silently turn
/// infinite gradients into NaN, and `norm > max_norm` is false for NaN, so
/// scaling in either case would corrupt or mask the blow-up. Callers skip
/// the step when `!norm.is_finite()`.
pub fn clip_by_global_norm(grads: &mut Grads, max_norm: f32) -> f32 {
    let norm = global_norm_naive(grads);
    scale_to(norm, max_norm, grads.values_mut())
}

/// [`clip_by_global_norm`] over a slot vector (see
/// `sf_autograd::Graph::take_param_grads`): the per-slot norms sum in
/// `order` — the store's sorted slots, i.e. name order — so the norm is
/// bitwise the name-keyed one.
pub fn clip_slots_by_global_norm(
    grads: &mut [Option<Tensor>],
    order: &[usize],
    max_norm: f32,
) -> f32 {
    let norm = global_norm(order.iter().filter_map(|&s| grads[s].as_ref()));
    scale_to(norm, max_norm, grads.iter_mut().flatten())
}

/// Scales `grads` by `max_norm / norm` when `norm` is finite and above
/// `max_norm`. Returns `norm`.
fn scale_to<'a>(norm: f32, max_norm: f32, grads: impl Iterator<Item = &'a mut Tensor>) -> f32 {
    if norm.is_finite() && norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads {
            // One more pass per tensor — the second kernel storm.
            g.map_inplace(|x| x * scale);
        }
    }
    norm
}

/// Flat gradient buckets, mirroring PyTorch DDP's communication buffers:
/// gradients are packed into a few contiguous slabs of at most
/// `bucket_bytes` each, in deterministic (sorted-name) order.
#[derive(Debug, Clone)]
pub struct GradBuckets {
    buckets: Vec<Vec<f32>>,
    /// (name, bucket index, offset, original dims) for unpacking.
    layout: Vec<(String, usize, usize, Vec<usize>)>,
}

impl GradBuckets {
    /// Packs `grads` into buckets of at most `bucket_bytes` bytes
    /// (last bucket may be smaller; a tensor larger than the bucket size
    /// gets a bucket of its own).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_bytes < 4` (cannot hold a single f32).
    pub fn pack(grads: &Grads, bucket_bytes: usize) -> Self {
        assert!(bucket_bytes >= 4, "bucket must hold at least one f32");
        let cap = bucket_bytes / 4;
        let mut buckets: Vec<Vec<f32>> = Vec::new();
        let mut layout = Vec::new();
        for (name, g) in grads {
            let need = g.len();
            let fits = buckets
                .last()
                .map(|b| b.len() + need <= cap)
                .unwrap_or(false);
            if !fits {
                buckets.push(Vec::new());
            }
            let idx = buckets.len() - 1;
            let off = buckets[idx].len();
            buckets[idx].extend_from_slice(g.data());
            layout.push((name.clone(), idx, off, g.dims().to_vec()));
        }
        GradBuckets { buckets, layout }
    }

    /// Number of buckets (the paper: "reducing the kernel launch from
    /// thousands to tens").
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Read access to the flat slabs.
    pub fn buckets(&self) -> &[Vec<f32>] {
        &self.buckets
    }

    /// Global L2 norm computed over the flat buckets — one reduction per
    /// bucket.
    pub fn global_norm(&self) -> f32 {
        self.buckets
            .iter()
            .map(|b| b.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>())
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Scales every element in place (one pass per bucket).
    pub fn scale(&mut self, s: f32) {
        for b in &mut self.buckets {
            for x in b {
                *x *= s;
            }
        }
    }

    /// Clips to `max_norm` over the buckets; returns the pre-clip norm.
    ///
    /// As with [`clip_by_global_norm`], a non-finite norm leaves the
    /// buckets unscaled and is returned for the caller to act on.
    pub fn clip(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if !norm.is_finite() {
            return norm;
        }
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
        norm
    }

    /// Unpacks the (possibly scaled) buckets back into a gradient map,
    /// restoring each gradient's original shape from the layout.
    pub fn unpack(&self) -> Grads {
        let mut out = Grads::new();
        for (name, idx, off, dims) in &self.layout {
            let len: usize = dims.iter().product();
            let data = self.buckets[*idx][*off..*off + len].to_vec();
            out.insert(
                name.clone(),
                Tensor::from_vec(data, dims).expect("layout dims match packed length"),
            );
        }
        out
    }
}

/// Bucketed global-norm computation (the optimized path): pack once, norm
/// over tens of slabs.
pub fn bucketed_global_norm(grads: &Grads, bucket_bytes: usize) -> f32 {
    GradBuckets::pack(grads, bucket_bytes).global_norm()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_grads() -> Grads {
        let mut g = Grads::new();
        g.insert("a".into(), Tensor::from_vec(vec![3.0], &[1]).unwrap());
        g.insert("b".into(), Tensor::from_vec(vec![4.0], &[1]).unwrap());
        g
    }

    #[test]
    fn naive_norm_is_pythagorean() {
        assert!((global_norm_naive(&sample_grads()) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn clip_scales_down_only_when_needed() {
        let mut g = sample_grads();
        let norm = clip_by_global_norm(&mut g, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((global_norm_naive(&g) - 1.0).abs() < 1e-5);

        let mut g2 = sample_grads();
        clip_by_global_norm(&mut g2, 100.0);
        assert_eq!(g2["a"].data(), &[3.0]); // untouched
    }

    #[test]
    fn bucketed_norm_matches_naive() {
        let mut g = Grads::new();
        for i in 0..20 {
            g.insert(format!("p{i:02}"), Tensor::randn(&[7, 3], i as u64));
        }
        let naive = global_norm_naive(&g);
        for bucket_bytes in [4, 64, 1024, 1 << 20] {
            let bucketed = bucketed_global_norm(&g, bucket_bytes);
            assert!(
                (naive - bucketed).abs() < 1e-4 * naive,
                "bucket {bucket_bytes}: {bucketed} vs {naive}"
            );
        }
    }

    #[test]
    fn bucket_count_collapses_kernel_count() {
        let mut g = Grads::new();
        for i in 0..4000 {
            g.insert(
                format!("p{i:04}"),
                Tensor::from_vec(vec![0.1], &[1]).unwrap(),
            );
        }
        let b = GradBuckets::pack(&g, 1024);
        // 4000 one-element tensors -> ~16 buckets of 256 floats.
        assert!(b.num_buckets() <= 20, "{} buckets", b.num_buckets());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut g = Grads::new();
        g.insert(
            "x".into(),
            Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(),
        );
        g.insert("y".into(), Tensor::from_vec(vec![4.0, 5.0], &[2]).unwrap());
        let b = GradBuckets::pack(&g, 16);
        let back = b.unpack();
        assert_eq!(back["x"].data(), &[1.0, 2.0, 3.0]);
        assert_eq!(back["y"].data(), &[4.0, 5.0]);
    }

    #[test]
    fn unpack_restores_original_shapes() {
        let mut g = Grads::new();
        g.insert("w".into(), Tensor::randn(&[4, 3], 1));
        g.insert("b".into(), Tensor::randn(&[3], 2));
        g.insert("t".into(), Tensor::randn(&[2, 2, 5], 3));
        let back = GradBuckets::pack(&g, 64).unpack();
        for (name, orig) in &g {
            assert_eq!(back[name].dims(), orig.dims(), "shape lost for {name}");
            assert_eq!(back[name].data(), orig.data());
        }
    }

    #[test]
    fn bucketed_clip_matches_naive_clip() {
        let mut g1 = Grads::new();
        for i in 0..10 {
            g1.insert(format!("p{i}"), Tensor::randn(&[5], 100 + i as u64));
        }
        let mut g2 = g1.clone();

        clip_by_global_norm(&mut g1, 0.5);
        let mut b = GradBuckets::pack(&g2, 64);
        b.clip(0.5);
        let unpacked = b.unpack();
        for (name, t) in &g1 {
            assert!(t.allclose(&unpacked[name], 1e-5), "mismatch at {name}");
        }
        let _ = &mut g2;
    }

    fn grads_with(values: &[f32]) -> Grads {
        let mut g = Grads::new();
        g.insert("ok".into(), Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap());
        g.insert(
            "bad".into(),
            Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
        );
        g
    }

    #[test]
    fn nan_norm_is_surfaced_and_grads_left_alone() {
        let mut g = grads_with(&[f32::NAN, 1.0]);
        let norm = clip_by_global_norm(&mut g, 1.0);
        assert!(norm.is_nan(), "NaN norm must reach the caller, got {norm}");
        // The finite gradient must not have been scaled behind our back.
        assert_eq!(g["ok"].data(), &[3.0, 4.0]);
    }

    #[test]
    fn inf_norm_does_not_nan_poison_gradients() {
        let mut g = grads_with(&[f32::INFINITY, 1.0]);
        let norm = clip_by_global_norm(&mut g, 1.0);
        assert_eq!(norm, f32::INFINITY);
        // Before the fix, scale = max_norm/inf = 0 and inf * 0 = NaN: the
        // blown-up gradient was silently replaced by NaN.
        assert_eq!(g["bad"].data()[0], f32::INFINITY);
        assert_eq!(g["ok"].data(), &[3.0, 4.0]);
    }

    #[test]
    fn bucketed_clip_surfaces_non_finite_norm() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let g = grads_with(&[bad, 1.0]);
            let mut b = GradBuckets::pack(&g, 64);
            let norm = b.clip(1.0);
            assert!(!norm.is_finite(), "norm {norm} should be non-finite");
            let back = b.unpack();
            assert_eq!(back["ok"].data(), &[3.0, 4.0], "finite grads scaled");
        }
    }

    #[test]
    fn zero_grads_do_not_divide_by_zero() {
        let mut g = Grads::new();
        g.insert("z".into(), Tensor::zeros(&[4]));
        let norm = clip_by_global_norm(&mut g, 1.0);
        assert_eq!(norm, 0.0);
        assert!(!g["z"].has_non_finite());
    }
}
