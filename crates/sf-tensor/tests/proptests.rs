//! Property-based tests for the tensor substrate: algebraic identities of
//! GEMM, softmax invariants, fused-vs-naive kernel agreement, and
//! reduced-precision round-trip laws.

use proptest::prelude::*;
use sf_tensor::bf16::{Bf16, Fp16};
use sf_tensor::ops::{attention, layernorm, softmax};
use sf_tensor::Tensor;

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..9
}

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_map(|x| x)
}

fn tensor_2d() -> impl Strategy<Value = Tensor> {
    (small_dim(), small_dim()).prop_flat_map(|(m, n)| {
        proptest::collection::vec(finite_f32(), m * n)
            .prop_map(move |data| Tensor::from_vec(data, &[m, n]).expect("sized"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_identity_is_identity(t in tensor_2d()) {
        let n = t.dims()[1];
        let out = t.matmul(&Tensor::eye(n)).unwrap();
        prop_assert!(out.allclose(&t, 1e-4));
    }

    #[test]
    fn matmul_distributes_over_addition(
        (m, k, n, s1, s2, s3) in (small_dim(), small_dim(), small_dim(), any::<u64>(), any::<u64>(), any::<u64>())
    ) {
        let a = Tensor::randn(&[m, k], s1);
        let b = Tensor::randn(&[k, n], s2);
        let c = Tensor::randn(&[k, n], s3);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn matmul_associativity(
        (m, k, n, p, s1, s2, s3) in
            (1usize..6, 1usize..6, 1usize..6, 1usize..6, any::<u64>(), any::<u64>(), any::<u64>())
    ) {
        let a = Tensor::randn(&[m, k], s1);
        let b = Tensor::randn(&[k, n], s2);
        let c = Tensor::randn(&[n, p], s3);
        let lhs = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-2));
    }

    #[test]
    fn transpose_involution(t in tensor_2d()) {
        let back = t.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn softmax_rows_are_distributions(t in tensor_2d()) {
        let s = softmax::softmax(&t).unwrap();
        let n = t.dims()[1];
        for row in s.data().chunks(n) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
    }

    #[test]
    fn softmax_shift_invariant(t in tensor_2d(), shift in -50.0f32..50.0) {
        let a = softmax::softmax(&t).unwrap();
        let b = softmax::softmax(&t.add_scalar(shift)).unwrap();
        prop_assert!(a.allclose(&b, 1e-4));
    }

    #[test]
    fn fused_layernorm_equals_naive(
        (rows, inner, seed) in (1usize..8, 2usize..40, any::<u64>())
    ) {
        let x = Tensor::randn(&[rows, inner], seed).mul_scalar(3.0);
        let gamma = Tensor::randn(&[inner], seed ^ 1).add_scalar(1.0);
        let beta = Tensor::randn(&[inner], seed ^ 2);
        let (y1, _) = layernorm::naive_forward(&x, &gamma, &beta, layernorm::LN_EPS).unwrap();
        let (y2, _) = layernorm::fused_forward(&x, &gamma, &beta, layernorm::LN_EPS).unwrap();
        prop_assert!(y1.allclose(&y2, 1e-3));
    }

    #[test]
    fn fused_attention_equals_naive(
        (b, s, d, seed) in (1usize..3, 1usize..40, 1usize..9, any::<u64>())
    ) {
        let q = Tensor::randn(&[b, s, d], seed);
        let k = Tensor::randn(&[b, s, d], seed ^ 3);
        let v = Tensor::randn(&[b, s, d], seed ^ 5);
        let bias = Tensor::randn(&[s, s], seed ^ 7);
        let scale = 1.0 / (d as f32).sqrt();
        let naive = attention::naive_attention(&q, &k, &v, Some(&bias), scale).unwrap();
        let fused = attention::attention_fused(&q, &k, &v, Some(&bias), None, None, scale)
            .unwrap()
            .out;
        prop_assert!(naive.allclose(&fused, 1e-3));
    }

    #[test]
    fn bf16_round_trip_relative_error(x in -1.0e30f32..1.0e30) {
        let r = Bf16::from_f32(x).to_f32();
        if x != 0.0 {
            prop_assert!(((r - x) / x).abs() <= 1.0 / 256.0);
        }
    }

    #[test]
    fn bf16_monotone(a in -1.0e6f32..1.0e6, b in -1.0e6f32..1.0e6) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Bf16::from_f32(lo).to_f32() <= Bf16::from_f32(hi).to_f32());
    }

    #[test]
    fn fp16_round_trip_within_range(x in -60000.0f32..60000.0) {
        let r = Fp16::from_f32(x).to_f32();
        prop_assert!(r.is_finite());
        if x.abs() > 1e-3 {
            // fp16 has 11 significand bits -> relative error <= 2^-11.
            prop_assert!(((r - x) / x).abs() <= 1.0 / 2048.0);
        }
    }

    #[test]
    fn broadcast_then_reduce_scales_by_count(
        (n, m, seed) in (small_dim(), small_dim(), any::<u64>())
    ) {
        let t = Tensor::randn(&[n], seed);
        let big = t.broadcast_to(&[m, n]).unwrap();
        let back = big.reduce_to(&[n]).unwrap();
        prop_assert!(back.allclose(&t.mul_scalar(m as f32), 1e-4));
    }

    #[test]
    fn concat_slice_round_trip(
        (rows, cols, cut, seed) in
            (2usize..8, 1usize..8, 0usize..8, any::<u64>())
    ) {
        let t = Tensor::randn(&[rows, cols], seed);
        let cut = cut.min(rows);
        let a = t.slice_axis(0, 0, cut).unwrap();
        let b = t.slice_axis(0, cut, rows).unwrap();
        let back = Tensor::concat(&[&a, &b], 0).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn sum_axis_agrees_with_sum_all(t in tensor_2d()) {
        let by_rows = t.sum_axis(0).unwrap().sum_all();
        prop_assert!((by_rows - t.sum_all()).abs() <= 1e-3 * (1.0 + t.sum_all().abs()));
    }
}
