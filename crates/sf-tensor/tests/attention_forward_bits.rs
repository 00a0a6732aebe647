//! Pins the bits of `attention_heads`' forward outputs to the per-row
//! recipe it computes.
//!
//! The reference below spells that recipe out on whole tensors, one row at
//! a time: logits `matmul_bt(q, k)`, folded as `l·scale + bias` then
//! `+ MASK_NEG` where the mask is 0; each row's `striped_max`; every
//! element `vexp(x − max)`; the row sum in the fixed 8-lane striped order;
//! the unnormalized `matmul(p, v)`; each output row times `1/sum`;
//! `lse = max + sum.ln()`; and the gate as `a / (1 + vexp(−g))`. The kernel
//! reads Q/K/V/gate as head views of `[b, s, h·d]` projections and must
//! match `out`, the pre-gate `att` and `lse` **bit for bit**, at 1 and 4
//! threads.

use sf_tensor::ops::attention::{attention_heads, HeadView, HeadViews, MASK_NEG};
use sf_tensor::ops::matmul::{matmul, matmul_bt};
use sf_tensor::ops::vexp::{striped_max, vexp};
use sf_tensor::pool;
use sf_tensor::Tensor;

struct Case {
    /// `[b, s_q, h·d]`.
    q: Tensor,
    /// `[b, s_k, h·d]`.
    k: Tensor,
    /// `[b, s_k, h·d]`.
    v: Tensor,
    /// `[h, s_q, s_k]`.
    bias: Option<Tensor>,
    /// `[h, s_q, s_k]`, zeros mask a key out.
    mask: Option<Tensor>,
    /// `[b, s_q, h·d]`.
    gate: Option<Tensor>,
    heads: usize,
    d: usize,
    scale: f32,
}

/// A `[b, s, h·d]` projection as the `[b, h, s, d]` tensor its head view
/// reads.
fn split_heads(t: &Tensor, h: usize, d: usize) -> Tensor {
    let (b, s) = (t.dims()[0], t.dims()[1]);
    t.reshape(&[b, s, h, d])
        .unwrap()
        .permute(&[0, 2, 1, 3])
        .unwrap()
}

/// `[b, h, s, d]` back to the merged `[b, s, h·d]` layout.
fn merge_heads(t: &Tensor) -> Tensor {
    let (b, h, s, d) = (t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]);
    t.permute(&[0, 2, 1, 3])
        .unwrap()
        .reshape(&[b, s, h * d])
        .unwrap()
}

/// The sum of `row` in the striped order: eight lane accumulators over the
/// whole 8-element chunks, combined as a fixed tree, then the tail
/// elements added one at a time.
fn striped_sum(row: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut chunks = row.chunks_exact(8);
    for chunk in &mut chunks {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            *a += x;
        }
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for &x in chunks.remainder() {
        sum += x;
    }
    sum
}

/// `(out, att, lse)`: the gated output (`att` itself when ungated), the
/// pre-gate output, both `[b, s_q, h·d]`, and `lse` `[b, h, s_q]`.
fn per_row_reference(c: &Case) -> (Tensor, Tensor, Tensor) {
    let (h, d) = (c.heads, c.d);
    let (q, k, v) = (
        split_heads(&c.q, h, d),
        split_heads(&c.k, h, d),
        split_heads(&c.v, h, d),
    );
    let mut p = matmul_bt(&q, &k).unwrap();
    let logit_dims = p.dims().to_vec();
    let (s_q, s_k) = (logit_dims[2], logit_dims[3]);
    let side = |t: &Option<Tensor>| t.as_ref().map(|t| t.broadcast_to(&logit_dims).unwrap());
    let (bias, mask) = (side(&c.bias), side(&c.mask));
    for (idx, l) in p.data_mut().iter_mut().enumerate() {
        *l = match &bias {
            Some(b) => *l * c.scale + b.data()[idx],
            None => *l * c.scale,
        };
        if mask.as_ref().is_some_and(|m| m.data()[idx] == 0.0) {
            *l += MASK_NEG;
        }
    }
    let rows = p.len() / s_k.max(1);
    let (mut maxes, mut sums) = (vec![0.0f32; rows], vec![0.0f32; rows]);
    if s_k > 0 {
        for (r, row) in p.data_mut().chunks_mut(s_k).enumerate() {
            maxes[r] = striped_max(row);
            for x in row.iter_mut() {
                *x = vexp(*x - maxes[r]);
            }
            sums[r] = striped_sum(row);
        }
    }
    let mut att = matmul(&p, &v).unwrap();
    let mut lse = Tensor::zeros(&[logit_dims[0], h, s_q]);
    for r in 0..rows {
        let sum = sums[r];
        if sum > 0.0 {
            let inv = 1.0 / sum;
            for o in &mut att.data_mut()[r * d..(r + 1) * d] {
                *o *= inv;
            }
            lse.data_mut()[r] = maxes[r] + sum.ln();
        } else {
            lse.data_mut()[r] = f32::NEG_INFINITY;
        }
    }
    let att = merge_heads(&att);
    let out = match &c.gate {
        Some(g) => {
            let mut out = att.clone();
            for (o, &gv) in out.data_mut().iter_mut().zip(g.data()) {
                *o /= 1.0 + vexp(-gv);
            }
            out
        }
        None => att.clone(),
    };
    (out, att, lse)
}

fn assert_bits(name: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.len(), want.len(), "{name} length");
    let (g, w): (Vec<u32>, Vec<u32>) = (
        got.data().iter().map(|x| x.to_bits()).collect(),
        want.data().iter().map(|x| x.to_bits()).collect(),
    );
    assert!(g == w, "{name} is not bit-identical to the per-row recipe");
}

fn check(c: &Case, what: &str) {
    let at = |src| HeadView { src, axis: Some(1) };
    let views = HeadViews {
        q: at(&c.q),
        k: at(&c.k),
        v: at(&c.v),
        gate: c.gate.as_ref().map(at),
        heads: c.heads,
        d: c.d,
    };
    let (out, att, lse) = per_row_reference(c);
    let prev = pool::num_threads();
    for threads in [1, 4] {
        pool::set_num_threads(threads);
        let fa = attention_heads(&views, c.bias.as_ref(), c.mask.as_ref(), c.scale).unwrap();
        assert_eq!(fa.out.dims(), c.q.dims(), "{what}: output shape");
        assert_eq!(fa.att.is_some(), c.gate.is_some(), "{what}: saved att");
        assert_bits(&format!("{what}, {threads} threads: out"), &fa.out, &out);
        assert_bits(
            &format!("{what}, {threads} threads: att"),
            fa.pre_gate(),
            &att,
        );
        assert_bits(&format!("{what}, {threads} threads: lse"), &fa.lse, &lse);
    }
    pool::set_num_threads(prev);
}

#[allow(clippy::too_many_arguments)]
fn case(
    (b, s_q, s_k): (usize, usize, usize),
    heads: usize,
    d: usize,
    bias: bool,
    mask: bool,
    gate: bool,
    seed: u64,
) -> Case {
    let hd = heads * d;
    Case {
        q: Tensor::randn(&[b, s_q, hd], seed),
        k: Tensor::randn(&[b, s_k, hd], seed ^ 1),
        v: Tensor::randn(&[b, s_k, hd], seed ^ 2),
        bias: bias.then(|| Tensor::randn(&[heads, s_q, s_k], seed ^ 3).mul_scalar(2.0)),
        mask: mask.then(|| {
            Tensor::randn(&[heads, s_q, s_k], seed ^ 4).map(|x| if x > -0.5 { 1.0 } else { 0.0 })
        }),
        gate: gate.then(|| Tensor::randn(&[b, s_q, hd], seed ^ 5)),
        heads,
        d,
        scale: 1.0 / (d as f32).sqrt(),
    }
}

#[test]
fn every_width_and_feature_matches_per_row_recipe() {
    let mut seed = 1000;
    for s_k in [1, 4, 7, 8, 12, 19, 40] {
        for d in [4, 5, 8] {
            for heads in 1..=4 {
                for flags in 0..8u64 {
                    let (bias, mask, gate) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
                    seed += 1;
                    let c = case((2, 6, s_k), heads, d, bias, mask, gate, seed);
                    let what = format!(
                        "s_k {s_k}, d {d}, {heads} heads, bias {bias} mask {mask} gate {gate}"
                    );
                    check(&c, &what);
                }
            }
        }
    }
}

#[test]
fn single_query_and_many_batch_rows_match_per_row_recipe() {
    // One query row (the global-column and template pointwise sites), and
    // enough batch elements to split across the pool at 4 threads.
    for flags in 0..8u64 {
        let (bias, mask, gate) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        check(
            &case((6, 1, 19), 4, 4, bias, mask, gate, 70 + flags),
            &format!("s_q 1, flags {flags}"),
        );
        check(
            &case((40, 12, 12), 4, 8, bias, mask, gate, 80 + flags),
            &format!("40 batch rows, flags {flags}"),
        );
    }
}

#[test]
fn empty_batch_matches_per_row_recipe() {
    for gate in [false, true] {
        let c = case((0, 5, 7), 2, 4, true, true, gate, 90);
        check(&c, &format!("empty batch, gate {gate}"));
    }
}
