//! Bit-identity of the parallel CPU backend: every kernel routed through
//! `sf_tensor::pool` must produce *byte-for-byte* the same output at any
//! thread count. The partitioning only splits independent output regions
//! and never changes any per-element accumulation order, so `data()` must
//! match exactly — `allclose` would hide a reduction-order regression.
//!
//! The tests deliberately mutate the global thread count while other tests
//! in this binary run concurrently; that is safe *because* of the property
//! under test (results do not depend on the momentary thread count).

use proptest::prelude::*;
use sf_tensor::ops::{attention, layernorm, softmax};
use sf_tensor::pool;
use sf_tensor::Tensor;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `f` once per thread count and asserts all results are bit-identical,
/// returning the first. Restores the previous thread count afterwards.
fn identical_across_threads<F: Fn() -> Tensor>(f: F) -> Tensor {
    let prev = pool::num_threads();
    let reference = {
        pool::set_num_threads(THREAD_COUNTS[0]);
        f()
    };
    for &n in &THREAD_COUNTS[1..] {
        pool::set_num_threads(n);
        let out = f();
        assert_eq!(
            reference.data(),
            out.data(),
            "output at {n} threads diverged from 1-thread run"
        );
    }
    pool::set_num_threads(prev);
    reference
}

// --- Fixed large shapes: big enough to clear the serial-bypass threshold
// --- so the pool genuinely partitions the work.

#[test]
fn large_matmul_is_bit_identical() {
    let a = Tensor::randn(&[4, 96, 64], 1);
    let b = Tensor::randn(&[4, 64, 96], 2);
    identical_across_threads(|| a.matmul(&b).unwrap());
}

#[test]
fn large_matmul_bt_and_at_are_bit_identical() {
    let a = Tensor::randn(&[4, 96, 64], 3);
    let b = Tensor::randn(&[4, 96, 64], 4);
    identical_across_threads(|| a.matmul_bt(&b).unwrap());
    // matmul_at computes a^T @ c, so c shares a's row count (96).
    let c = Tensor::randn(&[4, 96, 48], 5);
    identical_across_threads(|| a.matmul_at(&c).unwrap());
}

/// Which shared-B product a case runs: the lhs is rank 3, the rhs rank 2.
#[derive(Clone, Copy, Debug)]
enum SharedB {
    /// `[b, m, k] @ [k, n]`.
    Matmul,
    /// `[b, m, k] @ [n, k]ᵀ`.
    Bt,
    /// `[b, k, m]ᵀ @ [k, n]`.
    At,
}

impl SharedB {
    fn run(self, a: &Tensor, w: &Tensor) -> Tensor {
        match self {
            SharedB::Matmul => a.matmul(w),
            SharedB::Bt => a.matmul_bt(w),
            SharedB::At => a.matmul_at(w),
        }
        .unwrap()
    }

    /// Operands of a `b`-batch `m × k` by `k × n` product.
    fn operands(self, b: usize, m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
        let (a_dims, w_dims) = match self {
            SharedB::Matmul => ([b, m, k], [k, n]),
            SharedB::Bt => ([b, m, k], [n, k]),
            SharedB::At => ([b, k, m], [k, n]),
        };
        (
            Tensor::randn(&a_dims, seed),
            Tensor::randn(&w_dims, seed ^ 0x5B),
        )
    }
}

/// A shared-B product is bit-identical across thread counts and to the
/// plain 2-D product of each batch element with the same rhs — folding the
/// batch into rows over one packed rhs changes no accumulation order.
fn check_shared_b(kind: SharedB, b: usize, m: usize, k: usize, n: usize, seed: u64) {
    let (a, w) = kind.operands(b, m, k, n, seed);
    let out = identical_across_threads(|| kind.run(&a, &w));
    assert_eq!(out.dims(), &[b, m, n], "{kind:?}");
    let per = a.len() / b.max(1);
    let mut expect = Vec::with_capacity(out.len());
    for i in 0..b {
        let ai =
            Tensor::from_vec(a.data()[i * per..(i + 1) * per].to_vec(), &a.dims()[1..]).unwrap();
        expect.extend_from_slice(kind.run(&ai, &w).data());
    }
    let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(out.data()),
        bits(&expect),
        "{kind:?} [{b}, {m}, {k}] x {n}"
    );
}

#[test]
fn large_shared_b_products_are_bit_identical() {
    // m % 4 != 0 and n % 16 != 0: folded rows straddle micro-tile edges
    // and the last panel is partial; large enough to run in parallel.
    for kind in [SharedB::Matmul, SharedB::Bt, SharedB::At] {
        check_shared_b(kind, 6, 43, 37, 50, 22);
        check_shared_b(kind, 40, 40, 16, 150, 23);
    }
}

#[test]
fn shared_b_edge_shapes_are_bit_identical() {
    for kind in [SharedB::Matmul, SharedB::Bt, SharedB::At] {
        check_shared_b(kind, 3, 5, 1, 7, 24); // k = 1
        check_shared_b(kind, 0, 5, 3, 7, 25); // empty batch
        check_shared_b(kind, 2, 0, 3, 7, 26); // empty rows
        check_shared_b(kind, 2, 5, 0, 7, 27); // empty contraction: zeros
    }
}

#[test]
fn large_layernorm_forward_and_backward_are_bit_identical() {
    let x = Tensor::randn(&[2048, 64], 6);
    let gamma = Tensor::randn(&[64], 7).add_scalar(1.0);
    let beta = Tensor::randn(&[64], 8);
    let dy = Tensor::randn(&[2048, 64], 9);

    let y = identical_across_threads(|| {
        layernorm::fused_forward(&x, &gamma, &beta, layernorm::LN_EPS)
            .unwrap()
            .0
    });
    // Backward returns three tensors; check each through its own closure.
    let (_, stats) = layernorm::fused_forward(&x, &gamma, &beta, layernorm::LN_EPS).unwrap();
    for idx in 0..3 {
        identical_across_threads(|| {
            let (dx, dg, db) = layernorm::fused_backward(&dy, &x, &gamma, &stats, 64).unwrap();
            [dx, dg, db][idx].clone()
        });
    }
    assert_eq!(y.dims(), x.dims());
}

#[test]
fn large_softmax_is_bit_identical() {
    let x = Tensor::randn(&[64, 64, 64], 10);
    identical_across_threads(|| softmax::softmax(&x).unwrap());
}

/// `softmax` runs its passes over each thread's whole block of rows; every
/// element must carry the bits of the one-row kernel `softmax_row`, at
/// widths below, at and across the 8-lane width, with enough rows that 4
/// threads split the block.
#[test]
fn block_softmax_matches_per_row_bitwise() {
    let prev = pool::num_threads();
    for inner in [1usize, 7, 8, 15, 40] {
        // Past the serial cutoff at ~6 ops per element, and an odd row
        // count so the thread ranges differ in length.
        let rows = pool::SERIAL_THRESHOLD / (6 * inner) + 37;
        let x = Tensor::randn(&[rows, inner], inner as u64).mul_scalar(8.0);
        let mut expected = x.data().to_vec();
        for row in expected.chunks_exact_mut(inner) {
            softmax::softmax_row(row);
        }
        for threads in [1, 4] {
            pool::set_num_threads(threads);
            let got = softmax::softmax(&x).unwrap();
            let same = got
                .data()
                .iter()
                .zip(&expected)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "width {inner} at {threads} threads");
        }
    }
    pool::set_num_threads(prev);
}

#[test]
fn large_attention_is_bit_identical() {
    let q = Tensor::randn(&[4, 4, 64, 16], 11);
    let k = Tensor::randn(&[4, 4, 64, 16], 12);
    let v = Tensor::randn(&[4, 4, 64, 16], 13);
    let bias = Tensor::randn(&[4, 64, 64], 14);
    let scale = 0.25;
    identical_across_threads(|| {
        attention::attention_fused(&q, &k, &v, Some(&bias), None, None, scale)
            .unwrap()
            .out
    });
    identical_across_threads(|| {
        attention::attention_fused(&q, &k, &v, None, None, None, scale)
            .unwrap()
            .out
    });
}

#[test]
fn large_fused_attention_forward_and_backward_are_bit_identical() {
    let q = Tensor::randn(&[4, 4, 64, 16], 15);
    let k = Tensor::randn(&[4, 4, 64, 16], 16);
    let v = Tensor::randn(&[4, 4, 64, 16], 17);
    let bias = Tensor::randn(&[4, 64, 64], 18);
    let gate = Tensor::randn(&[4, 4, 64, 16], 19);
    let mask = Tensor::randn(&[4, 64, 64], 20).map(|x| if x > -0.5 { 1.0 } else { 0.0 });
    let scale = 0.25;

    let fused = identical_across_threads(|| {
        attention::attention_fused(&q, &k, &v, Some(&bias), Some(&mask), Some(&gate), scale)
            .unwrap()
            .out
    });

    let fa = attention::attention_fused(&q, &k, &v, Some(&bias), Some(&mask), Some(&gate), scale)
        .unwrap();
    let dy = Tensor::randn(fused.dims(), 21);
    for idx in 0..5 {
        identical_across_threads(|| {
            let g = attention::attention_fused_backward(
                &q,
                &k,
                &v,
                Some(&bias),
                Some(&mask),
                Some(&gate),
                fa.pre_gate(),
                &fa.lse,
                scale,
                &dy,
            )
            .unwrap();
            [g.dq, g.dk, g.dv, g.dbias.unwrap(), g.dgate.unwrap()][idx].clone()
        });
    }
}

// --- Head views: Q/K/V/gate read in place as `[.., h·d]` projections,
// --- heads written merged, one gradient per operand.

/// `[b1, b2, h·d]` as the contiguous `[b1, h, b2, d]` copy the views
/// replace.
fn split_heads(t: &Tensor, h: usize, d: usize) -> Tensor {
    let (b1, b2) = (t.dims()[0], t.dims()[1]);
    t.reshape(&[b1, b2, h, d])
        .unwrap()
        .permute(&[0, 2, 1, 3])
        .unwrap()
}

/// `[b1, h, b2, d]` -> `[b1, b2, h·d]`.
fn merge_heads(t: &Tensor) -> Tensor {
    let (b1, h, b2, d) = (t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]);
    t.permute(&[0, 2, 1, 3])
        .unwrap()
        .reshape(&[b1, b2, h * d])
        .unwrap()
}

/// Gated, biased attention on four `[b1, b2, h·d]` head views is
/// bit-identical across thread counts, and bitwise equal — forward, every
/// operand's gradient and the bias gradient — to the contiguous call on
/// permuted copies.
fn check_gated_views(b1: usize, b2: usize, h: usize, d: usize, seed: u64) {
    use attention::{HeadView, HeadViews};
    let hd = h * d;
    let srcs = [0, 1, 2, 3].map(|i| Tensor::randn(&[b1, b2, hd], seed + 10 * i));
    let bias = Tensor::randn(&[h, b2, b2], seed ^ 1);
    let at = |i: usize| HeadView {
        src: &srcs[i],
        axis: Some(1),
    };
    let views = HeadViews {
        q: at(0),
        k: at(1),
        v: at(2),
        gate: Some(at(3)),
        heads: h,
        d,
    };
    let scale = 1.0 / (d as f32).sqrt();
    let out = identical_across_threads(|| {
        attention::attention_heads(&views, Some(&bias), None, scale)
            .unwrap()
            .out
    });
    let [q, k, v, gate] = srcs.each_ref().map(|t| split_heads(t, h, d));
    let fa = attention::attention_fused(&q, &k, &v, Some(&bias), None, Some(&gate), scale).unwrap();
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(out.dims(), &[b1, b2, hd]);
    assert_eq!(
        bits(&out),
        bits(&merge_heads(&fa.out)),
        "forward vs permuted copies"
    );

    let fv = attention::attention_heads(&views, Some(&bias), None, scale).unwrap();
    let dy = Tensor::randn(out.dims(), seed ^ 2);
    let backward = || {
        attention::attention_heads_backward(
            &views,
            Some(&bias),
            None,
            fv.pre_gate(),
            &fv.lse,
            scale,
            &dy,
        )
        .unwrap()
    };
    let g = attention::attention_fused_backward(
        &q,
        &k,
        &v,
        Some(&bias),
        None,
        Some(&gate),
        &split_heads(fv.pre_gate(), h, d),
        &fv.lse,
        scale,
        &split_heads(&dy, h, d),
    )
    .unwrap();
    // The four operand gradients side by side, `[b1, b2, 4·h·d]`.
    let joined = |parts: [Tensor; 4]| Tensor::concat(&parts.each_ref(), 2).unwrap();
    let grads = identical_across_threads(|| {
        let g = backward();
        joined([g.dq, g.dk, g.dv, g.dgate.unwrap()])
    });
    let expect = joined([g.dq, g.dk, g.dv, g.dgate.unwrap()].map(|t| merge_heads(&t)));
    assert_eq!(
        bits(&grads),
        bits(&expect),
        "operand gradients vs permuted copies"
    );
    let dbias = identical_across_threads(|| backward().dbias.unwrap());
    assert_eq!(
        bits(&dbias),
        bits(&g.dbias.unwrap()),
        "bias gradient vs permuted copies"
    );
}

#[test]
fn gated_head_views_are_bit_identical() {
    // The pair-stack shape, large enough to run in parallel; then a ragged
    // one (b2 not a multiple of 4 or 16, d = 5) and an empty batch.
    check_gated_views(40, 40, 4, 8, 30);
    check_gated_views(3, 19, 3, 5, 31);
    check_gated_views(0, 7, 2, 4, 32);
}

#[test]
fn axis0_head_views_are_bit_identical() {
    // Keys and values along the first axis of `[s, r, h·d]` projections
    // against one query per column, as global column attention runs them.
    use attention::{HeadView, HeadViews};
    let (s, r, h, d) = (48, 24, 4, 8);
    let hd = h * d;
    let (k, v) = (
        Tensor::randn(&[s, r, hd], 33),
        Tensor::randn(&[s, r, hd], 35),
    );
    let q = Tensor::randn(&[r, hd], 34);
    let views = HeadViews {
        q: HeadView {
            src: &q,
            axis: None,
        },
        k: HeadView {
            src: &k,
            axis: Some(0),
        },
        v: HeadView {
            src: &v,
            axis: Some(0),
        },
        gate: None,
        heads: h,
        d,
    };
    let out = identical_across_threads(|| {
        attention::attention_heads(&views, None, None, 0.3)
            .unwrap()
            .out
    });
    let heads_of = |t: &Tensor| {
        t.reshape(&[s, r, h, d])
            .unwrap()
            .permute(&[1, 2, 0, 3])
            .unwrap()
    };
    let qh = q.reshape(&[r, h, 1, d]).unwrap();
    let fa = attention::attention_fused(&qh, &heads_of(&k), &heads_of(&v), None, None, None, 0.3)
        .unwrap();
    assert_eq!(out.dims(), &[r, hd]);
    assert_eq!(out.data(), fa.out.data(), "forward vs permuted copies");
}

// --- Narrow panels: a panel of at most 8 columns (head widths, the tail of
// --- a 40-key logits row) is packed 8 wide and runs 8 x 8 tiles.

const NARROW_N: [usize; 8] = [1, 4, 7, 8, 9, 17, 24, 40];
const NARROW_M: [usize; 6] = [1, 7, 8, 9, 33, 40];
const NARROW_K: [usize; 4] = [0, 1, 8, 40];

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| x.to_bits()).collect()
}

/// The `m × n` sums `Σ_kk a(i, kk)·b(kk, j)`, each added in ascending `kk`
/// from +0.0: the order every GEMM tile promises.
fn reference_sums(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for kk in 0..k {
                s += a(i, kk) * b(kk, j);
            }
            out.push(s);
        }
    }
    out
}

/// A two-batch `m × k` by `k × n` product of `kind`, its rhs per batch
/// element or shared: bit-identical across thread counts and to the
/// per-element reference sums.
fn check_narrow_product(kind: SharedB, shared: bool, m: usize, k: usize, n: usize, seed: u64) {
    let batch = 2;
    let (a, w) = kind.operands(batch, m, k, n, seed);
    let w = if shared {
        w
    } else {
        let mut dims = vec![batch];
        dims.extend_from_slice(w.dims());
        Tensor::randn(&dims, seed ^ 0xB)
    };
    let out = identical_across_threads(|| kind.run(&a, &w));
    assert_eq!(out.dims(), &[batch, m, n]);
    let (ad, wd) = (a.data(), w.data());
    let mut expect = Vec::with_capacity(out.len());
    for bi in 0..batch {
        let (a0, w0) = (bi * m * k, if shared { 0 } else { bi * k * n });
        let a_at = |i: usize, kk: usize| match kind {
            SharedB::At => ad[a0 + kk * m + i],
            _ => ad[a0 + i * k + kk],
        };
        let w_at = |kk: usize, j: usize| match kind {
            SharedB::Bt => wd[w0 + j * k + kk],
            _ => wd[w0 + kk * n + j],
        };
        expect.extend(reference_sums(m, k, n, a_at, w_at));
    }
    assert_eq!(
        bits(out.data()),
        bits(&expect),
        "{kind:?} shared={shared} m={m} k={k} n={n}"
    );
}

#[test]
fn narrow_panel_products_are_bit_identical() {
    let mut seed = 40;
    for kind in [SharedB::Matmul, SharedB::Bt, SharedB::At] {
        for shared in [false, true] {
            for m in NARROW_M {
                for k in NARROW_K {
                    for n in NARROW_N {
                        seed += 1;
                        check_narrow_product(kind, shared, m, k, n, seed);
                    }
                }
            }
        }
    }
}

#[test]
fn narrow_panel_linear_is_bit_identical() {
    use sf_tensor::ops::matmul::{linear, linear_weight_grad};
    let mut seed = 2000;
    for m in NARROW_M {
        for k in NARROW_K {
            for n in NARROW_N {
                seed += 1;
                // linear: m rows of width k against an [n, k] weight.
                let x = Tensor::randn(&[m, k], seed);
                let w = Tensor::randn(&[n, k], seed ^ 1);
                let b = Tensor::randn(&[n], seed ^ 2);
                let sums = reference_sums(
                    m,
                    k,
                    n,
                    |i, kk| x.data()[i * k + kk],
                    |kk, j| w.data()[j * k + kk],
                );
                let y = identical_across_threads(|| linear(&x, &w, None).unwrap());
                assert_eq!(bits(y.data()), bits(&sums), "linear m={m} k={k} n={n}");
                let yb = identical_across_threads(|| linear(&x, &w, Some(&b)).unwrap());
                let biased: Vec<f32> = sums
                    .iter()
                    .enumerate()
                    .map(|(e, &s)| s + b.data()[e % n])
                    .collect();
                assert_eq!(
                    bits(yb.data()),
                    bits(&biased),
                    "biased linear m={m} k={k} n={n}"
                );
                // linear_weight_grad: dy [k, m], x [k, n] -> [m, n], summed
                // over the k rows.
                let dy = Tensor::randn(&[k, m], seed ^ 3);
                let xs = Tensor::randn(&[k, n], seed ^ 4);
                let dw = identical_across_threads(|| linear_weight_grad(&dy, &xs).unwrap());
                let expect = reference_sums(
                    m,
                    k,
                    n,
                    |i, kk| dy.data()[kk * m + i],
                    |kk, j| xs.data()[kk * n + j],
                );
                assert_eq!(
                    bits(dw.data()),
                    bits(&expect),
                    "linear_weight_grad m={m} k={k} n={n}"
                );
            }
        }
    }
}

#[test]
fn narrow_head_widths_are_bit_identical() {
    // d = 4, 5 and 8: the P·V, dV, dK and dQ products run narrow panels;
    // key counts put the logits row's last panel on both tiles.
    let mut seed = 3000;
    for d in [4, 5, 8] {
        for s in [1, 7, 9, 17, 40] {
            seed += 1;
            check_gated_views(2, s, 2, d, seed);
        }
    }
}

/// A debug build pre-fills a write-once buffer with a NaN sentinel and
/// panics, naming the kernel, when one survives.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "skipper left element 0")]
fn write_once_names_the_op_that_skipped_an_element() {
    let mut t = Tensor::write_once(&[2, 3], "skipper");
    for x in t.uninit().iter_mut().skip(1) {
        x.write(1.0);
    }
    // SAFETY: a debug build pre-filled every element, so the skipped one
    // holds the sentinel rather than uninitialized memory.
    let _ = unsafe { t.assume_written() };
}

// --- Random shapes: the same property over the full shape space,
// --- including the serial-bypass path, batch broadcast, and 1-D promotion.

fn dim() -> impl Strategy<Value = usize> {
    1usize..12
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_bit_identical_any_shape(
        (b, m, k, n, seed) in (1usize..4, dim(), dim(), dim(), any::<u64>())
    ) {
        let a = Tensor::randn(&[b, m, k], seed);
        let bt = Tensor::randn(&[b, k, n], seed ^ 1);
        identical_across_threads(|| a.matmul(&bt).unwrap());
    }

    #[test]
    fn matmul_broadcast_rhs_bit_identical(
        (b, m, k, n, seed) in (2usize..5, dim(), dim(), dim(), any::<u64>())
    ) {
        // Batched LHS against an unbatched RHS: the broadcast path.
        let a = Tensor::randn(&[b, m, k], seed);
        let w = Tensor::randn(&[k, n], seed ^ 2);
        identical_across_threads(|| a.matmul(&w).unwrap());
    }

    #[test]
    fn shared_b_bit_identical_any_shape(
        (b, m, k, n, seed) in (0usize..5, dim(), dim(), 1usize..40, any::<u64>())
    ) {
        for kind in [SharedB::Matmul, SharedB::Bt, SharedB::At] {
            check_shared_b(kind, b, m, k, n, seed);
        }
    }

    #[test]
    fn matmul_1d_promotion_bit_identical(
        (k, n, seed) in (dim(), dim(), any::<u64>())
    ) {
        // Vector @ matrix and matrix @ vector both promote to 2-D inside.
        let vk = Tensor::randn(&[k], seed);
        let w = Tensor::randn(&[k, n], seed ^ 3);
        identical_across_threads(|| vk.matmul(&w).unwrap());
        let vn = Tensor::randn(&[n], seed ^ 4);
        identical_across_threads(|| w.matmul(&vn).unwrap());
    }

    #[test]
    fn layernorm_bit_identical_any_shape(
        (rows, inner, seed) in (1usize..32, 2usize..48, any::<u64>())
    ) {
        let x = Tensor::randn(&[rows, inner], seed).mul_scalar(2.0);
        let gamma = Tensor::randn(&[inner], seed ^ 5).add_scalar(1.0);
        let beta = Tensor::randn(&[inner], seed ^ 6);
        identical_across_threads(|| {
            layernorm::fused_forward(&x, &gamma, &beta, layernorm::LN_EPS).unwrap().0
        });
    }

    #[test]
    fn softmax_bit_identical_any_shape(
        (rows, inner, seed) in (1usize..32, 1usize..48, any::<u64>())
    ) {
        let x = Tensor::randn(&[rows, inner], seed);
        identical_across_threads(|| softmax::softmax(&x).unwrap());
    }

    #[test]
    fn attention_bit_identical_any_shape(
        (b, h, s, d, seed, with_bias) in
            (1usize..3, 1usize..3, 1usize..24, 1usize..10, any::<u64>(), any::<bool>())
    ) {
        let q = Tensor::randn(&[b, h, s, d], seed);
        let k = Tensor::randn(&[b, h, s, d], seed ^ 7);
        let v = Tensor::randn(&[b, h, s, d], seed ^ 8);
        let bias = Tensor::randn(&[h, s, s], seed ^ 9);
        let scale = 1.0 / (d as f32).sqrt();
        let bias_ref = if with_bias { Some(&bias) } else { None };
        let out = identical_across_threads(|| {
            attention::attention_fused(&q, &k, &v, bias_ref, None, None, scale).unwrap().out
        });
        // And the parallel kernel still agrees with the naive reference.
        let naive = attention::naive_attention(&q, &k, &v, bias_ref, scale).unwrap();
        prop_assert!(out.allclose(&naive, 1e-3));
    }

    #[test]
    fn fused_attention_bit_identical_any_shape(
        (b, h, s, d, seed, with_bias, with_mask, with_gate) in
            (1usize..3, 1usize..3, 1usize..16, 1usize..8, any::<u64>(),
             any::<bool>(), any::<bool>(), any::<bool>())
    ) {
        let q = Tensor::randn(&[b, h, s, d], seed);
        let k = Tensor::randn(&[b, h, s, d], seed ^ 7);
        let v = Tensor::randn(&[b, h, s, d], seed ^ 8);
        let bias = Tensor::randn(&[h, s, s], seed ^ 9);
        let gate = Tensor::randn(&[b, h, s, d], seed ^ 10);
        let mask = Tensor::randn(&[h, s, s], seed ^ 11)
            .map(|x| if x > -0.5 { 1.0 } else { 0.0 });
        let scale = 1.0 / (d as f32).sqrt();
        let bias_ref = if with_bias { Some(&bias) } else { None };
        let mask_ref = if with_mask { Some(&mask) } else { None };
        let gate_ref = if with_gate { Some(&gate) } else { None };

        let out = identical_across_threads(|| {
            attention::attention_fused(&q, &k, &v, bias_ref, mask_ref, gate_ref, scale)
                .unwrap()
                .out
        });

        let fa = attention::attention_fused(&q, &k, &v, bias_ref, mask_ref, gate_ref, scale)
            .unwrap();
        let dy = Tensor::randn(out.dims(), seed ^ 12);
        // One closure per returned gradient: the closure contract is a
        // single tensor, and tiny shapes keep the repeats cheap.
        for idx in 0..3 {
            identical_across_threads(|| {
                let g = attention::attention_fused_backward(
                    &q, &k, &v, bias_ref, mask_ref, gate_ref,
                    fa.pre_gate(), &fa.lse, scale, &dy,
                )
                .unwrap();
                [g.dq, g.dk, g.dv][idx].clone()
            });
        }
        if with_bias {
            identical_across_threads(|| {
                attention::attention_fused_backward(
                    &q, &k, &v, bias_ref, mask_ref, gate_ref,
                    fa.pre_gate(), &fa.lse, scale, &dy,
                )
                .unwrap()
                .dbias
                .unwrap()
            });
        }
        if with_gate {
            identical_across_threads(|| {
                attention::attention_fused_backward(
                    &q, &k, &v, bias_ref, mask_ref, gate_ref,
                    fa.pre_gate(), &fa.lse, scale, &dy,
                )
                .unwrap()
                .dgate
                .unwrap()
            });
        }
    }
}
