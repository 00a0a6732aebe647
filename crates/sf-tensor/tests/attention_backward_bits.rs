//! Pins the bits of `attention_fused_backward` to the GEMM chain it fuses.
//!
//! The reference below is the backward written as whole-tensor ops: the
//! probabilities recomputed from `matmul_bt(q, k)` and the saved
//! log-sum-exp, then `dV = matmul_at(p, datt)`, `dP = matmul_bt(datt, v)`,
//! `dS = p ⊙ (dP − D)`, `dQ = matmul(dS, k)·scale`,
//! `dK = matmul_at(dS, q)·scale` and `dbias = reduce_to(dS)`. The fused
//! kernel runs the same GEMM micro-kernel per batch element and must match
//! every gradient **bit for bit**, at 1 and 4 threads.

use sf_tensor::ops::attention::{attention_fused, attention_fused_backward, MASK_NEG};
use sf_tensor::ops::matmul::{matmul_at, matmul_bt};
use sf_tensor::ops::vexp::vexp;
use sf_tensor::pool;
use sf_tensor::Tensor;

struct Case {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: Option<Tensor>,
    mask: Option<Tensor>,
    gate: Option<Tensor>,
    scale: f32,
}

/// `(dq, dk, dv, dbias, dgate)`.
type Grads = (Tensor, Tensor, Tensor, Option<Tensor>, Option<Tensor>);

/// The backward as a chain of whole-tensor GEMMs and elementwise passes.
fn gemm_chain_backward(c: &Case, att: &Tensor, lse: &Tensor, dy: &Tensor) -> Grads {
    let (datt, dgate) = match &c.gate {
        Some(g) => {
            let mut datt = dy.clone();
            let mut dgate = dy.clone();
            for i in 0..dy.len() {
                let sig = 1.0 / (1.0 + vexp(-g.data()[i]));
                datt.data_mut()[i] = dy.data()[i] * sig;
                dgate.data_mut()[i] = dy.data()[i] * att.data()[i] * sig * (1.0 - sig);
            }
            (datt, Some(dgate))
        }
        None => (dy.clone(), None),
    };
    let mut p = matmul_bt(&c.q, &c.k).unwrap();
    let logit_dims = p.dims().to_vec();
    let s_k = logit_dims[logit_dims.len() - 1];
    let bias = c
        .bias
        .as_ref()
        .map(|b| b.broadcast_to(&logit_dims).unwrap());
    let mask = c
        .mask
        .as_ref()
        .map(|m| m.broadcast_to(&logit_dims).unwrap());
    for (idx, l) in p.data_mut().iter_mut().enumerate() {
        let mut val = *l * c.scale;
        if let Some(b) = &bias {
            val += b.data()[idx];
        }
        if let Some(m) = &mask {
            if m.data()[idx] == 0.0 {
                val += MASK_NEG;
            }
        }
        *l = vexp(val - lse.data()[idx / s_k]);
    }
    let dv = matmul_at(&p, &datt).unwrap();
    let mut ds = matmul_bt(&datt, &c.v).unwrap();
    let d = att.dims()[att.rank() - 1];
    for r in 0..p.len() / s_k {
        let mut rowdot = 0.0f32;
        for cc in 0..d {
            rowdot += datt.data()[r * d + cc] * att.data()[r * d + cc];
        }
        for j in 0..s_k {
            let pv = p.data()[r * s_k + j];
            let dl = &mut ds.data_mut()[r * s_k + j];
            *dl = pv * (*dl - rowdot);
        }
    }
    let dq = ds.matmul(&c.k).unwrap().map(|g| g * c.scale);
    let dk = matmul_at(&ds, &c.q).unwrap().map(|g| g * c.scale);
    let dbias = c.bias.as_ref().map(|b| ds.reduce_to(b.dims()).unwrap());
    (dq, dk, dv, dbias, dgate)
}

fn assert_bits(name: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.dims(), want.dims(), "{name} shape");
    let (g, w): (Vec<u32>, Vec<u32>) = (
        got.data().iter().map(|x| x.to_bits()).collect(),
        want.data().iter().map(|x| x.to_bits()).collect(),
    );
    assert!(g == w, "{name} is not bit-identical to the GEMM chain");
}

fn check(c: &Case, seed: u64) {
    let fa = attention_fused(
        &c.q,
        &c.k,
        &c.v,
        c.bias.as_ref(),
        c.mask.as_ref(),
        c.gate.as_ref(),
        c.scale,
    )
    .unwrap();
    let dy = Tensor::randn(fa.out.dims(), seed);
    let want = gemm_chain_backward(c, fa.pre_gate(), &fa.lse, &dy);
    let prev = pool::num_threads();
    for threads in [1, 4] {
        pool::set_num_threads(threads);
        let g = attention_fused_backward(
            &c.q,
            &c.k,
            &c.v,
            c.bias.as_ref(),
            c.mask.as_ref(),
            c.gate.as_ref(),
            fa.pre_gate(),
            &fa.lse,
            c.scale,
            &dy,
        )
        .unwrap();
        assert_bits("dq", &g.dq, &want.0);
        assert_bits("dk", &g.dk, &want.1);
        assert_bits("dv", &g.dv, &want.2);
        assert_eq!(g.dbias.is_some(), want.3.is_some());
        if let (Some(a), Some(b)) = (&g.dbias, &want.3) {
            assert_bits("dbias", a, b);
        }
        assert_eq!(g.dgate.is_some(), want.4.is_some());
        if let (Some(a), Some(b)) = (&g.dgate, &want.4) {
            assert_bits("dgate", a, b);
        }
    }
    pool::set_num_threads(prev);
}

/// `q/k/v: [b, h, s_q|s_k, d]` with optional `[h, s_q, s_k]` bias and mask
/// (the Evoformer layout) and an optional gate.
fn evoformer_case(
    (b, h, s_q, s_k, d): (usize, usize, usize, usize, usize),
    bias: bool,
    mask: bool,
    gate: bool,
    seed: u64,
) -> Case {
    Case {
        q: Tensor::randn(&[b, h, s_q, d], seed),
        k: Tensor::randn(&[b, h, s_k, d], seed ^ 1),
        v: Tensor::randn(&[b, h, s_k, d], seed ^ 2),
        bias: bias.then(|| Tensor::randn(&[h, s_q, s_k], seed ^ 3)),
        mask: mask.then(|| {
            Tensor::randn(&[h, s_q, s_k], seed ^ 4).map(|x| if x > -0.5 { 1.0 } else { 0.0 })
        }),
        gate: gate.then(|| Tensor::randn(&[b, h, s_q, d], seed ^ 5)),
        scale: 1.0 / (d as f32).sqrt(),
    }
}

#[test]
fn every_feature_combination_matches_gemm_chain() {
    // s_k = 13 is not a multiple of 8; shapes large enough to split
    // across the pool at 4 threads.
    for flags in 0..8u64 {
        let (bias, mask, gate) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let c = evoformer_case((3, 4, 40, 13, 8), bias, mask, gate, 100 + flags);
        check(&c, 200 + flags);
    }
}

#[test]
fn square_pair_stack_shape_matches_gemm_chain() {
    // The medium pair-stack attention: 40×40 logits, d = 8, bias + gate.
    check(&evoformer_case((40, 4, 40, 40, 8), true, false, true, 7), 8);
}

#[test]
fn single_query_row_matches_gemm_chain() {
    // s_q = 1: the global-column and template pointwise sites.
    for flags in 0..4u64 {
        let c = evoformer_case(
            (6, 4, 1, 21, 4),
            false,
            flags & 1 != 0,
            flags & 2 != 0,
            30 + flags,
        );
        check(&c, 40 + flags);
    }
}

#[test]
fn full_shape_bias_matches_gemm_chain() {
    // IPA: q/k/v `[h, r, d]` with a bias of the full logits shape.
    let (h, r, d) = (4, 19, 16);
    let c = Case {
        q: Tensor::randn(&[h, r, d], 50),
        k: Tensor::randn(&[h, r, d], 51),
        v: Tensor::randn(&[h, r, d], 52),
        bias: Some(Tensor::randn(&[h, r, r], 53)),
        mask: None,
        gate: None,
        scale: 0.3,
    };
    check(&c, 54);
}
