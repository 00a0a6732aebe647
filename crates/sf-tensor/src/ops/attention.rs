//! Multi-head attention with the AlphaFold *pair bias* term.
//!
//! AlphaFold's MHA variant adds a learned bias derived from the pair
//! representation to the attention logits before the softmax
//! (`MSARowAttentionWithPairBias`, Fig. 6 of the paper). This extra term is
//! why stock FlashAttention kernels were inapplicable and the ScaleFold
//! authors wrote a custom fused kernel.
//!
//! One kernel runs every attention site:
//!
//! - [`attention_fused`]: a FlashAttention-style kernel that tiles over keys
//!   with a streaming (online) softmax, folding scale, the optional pair
//!   bias, the optional mask and the optional sigmoid gate into each tile.
//!   It never materializes the logits matrix, and it saves per-row
//!   log-sum-exp statistics for [`attention_fused_backward`].
//!
//! [`naive_attention`] materializes the full logits matrix. It is the test
//! oracle (and the memory-hungry path the paper starts from); the fused
//! kernel matches it to within f32 tolerance (tested, including property
//! tests).

use crate::ops::matmul::matmul_bt;
use crate::ops::softmax::{softmax, OnlineSoftmax};
use crate::ops::vexp::vexp;
use crate::pool::{parallel_for, SendPtr};
use crate::scratch;
use crate::shape::Shape;
use crate::strided::broadcast_strides;
use crate::{Result, Tensor, TensorError};

/// Additive logit penalty for masked-out keys (matches
/// [`crate::ops::softmax::masked_softmax`]): large enough that masked
/// probabilities underflow to exactly zero whenever the row keeps at least
/// one valid key, finite so fully-masked rows stay NaN-free. On a fully
/// masked row the penalty cancels in the softmax but its f32 absorption
/// quantizes the O(1) logits to ~2e-3, so such rows are only
/// *approximately* uniform — callers mask padding queries downstream.
pub const MASK_NEG: f32 = -3.0e4;

/// Key-tile width for the flash kernel. Small enough to exercise multi-tile
/// paths in tests; on a GPU this would be the Triton `BLOCK_N`.
pub const FLASH_TILE: usize = 16;

/// Query rows per parallel work item (the Triton `BLOCK_M` analogue): each
/// item packs K^T once and amortizes it over this many query rows.
pub const FLASH_Q_BLOCK: usize = 32;

fn check_qkv(q: &Tensor, k: &Tensor, v: &Tensor) -> Result<(usize, usize, usize, usize)> {
    let rank = q.rank();
    if rank < 2 || k.rank() != rank || v.rank() != rank {
        return Err(TensorError::ShapeMismatch {
            op: "attention rank",
            lhs: q.dims().to_vec(),
            rhs: k.dims().to_vec(),
        });
    }
    let d = q.dims()[rank - 1];
    let s_q = q.dims()[rank - 2];
    let s_k = k.dims()[rank - 2];
    if k.dims()[rank - 1] != d
        || v.dims()[rank - 2] != s_k
        || q.dims()[..rank - 2] != k.dims()[..rank - 2]
        || k.dims()[..rank - 2] != v.dims()[..rank - 2]
    {
        return Err(TensorError::ShapeMismatch {
            op: "attention qkv",
            lhs: q.dims().to_vec(),
            rhs: v.dims().to_vec(),
        });
    }
    let batch: usize = q.dims()[..rank - 2].iter().product();
    Ok((batch, s_q, s_k, d))
}

fn check_bias(q: &Tensor, s_q: usize, s_k: usize, bias: &Tensor) -> Result<Shape> {
    let mut logit_dims = q.dims()[..q.rank() - 2].to_vec();
    logit_dims.push(s_q);
    logit_dims.push(s_k);
    let logits_shape = Shape::new(&logit_dims);
    if !bias.shape().broadcastable_to(&logits_shape) {
        return Err(TensorError::ShapeMismatch {
            op: "attention bias",
            lhs: bias.dims().to_vec(),
            rhs: logit_dims,
        });
    }
    Ok(logits_shape)
}

/// Reference attention: `softmax(q @ k^T * scale + bias) @ v`.
///
/// `q: [..., S_q, D]`, `k/v: [..., S_k, D]`; `bias` (if any) must broadcast
/// to `[..., S_q, S_k]`. Typical AlphaFold usage passes
/// bias `[H, S_q, S_k]` against `q: [B, H, S_q, D]`.
///
/// # Errors
///
/// Returns an error on any shape incompatibility.
pub fn naive_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    bias: Option<&Tensor>,
    scale: f32,
) -> Result<Tensor> {
    check_qkv(q, k, v)?;
    let mut logits = matmul_bt(q, k)?.mul_scalar(scale);
    if let Some(b) = bias {
        check_bias(q, logits.dims()[logits.rank() - 2], logits.dims()[logits.rank() - 1], b)?;
        logits = logits.add(b)?;
    }
    let probs = softmax(&logits)?;
    probs.matmul(v)
}

/// Broadcast-strided reader for a side input (pair bias or mask) shaped to
/// broadcast against the logits `[batch..., s_q, s_k]`. Batch base offsets
/// are precomputed so rows can be read in any order on any thread.
struct LogitsBcast<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
    batch_offs: Vec<usize>,
}

impl LogitsBcast<'_> {
    #[inline(always)]
    fn at(&self, b: usize, i: usize, j: usize) -> f32 {
        self.data[self.batch_offs[b] + i * self.row_stride + j * self.col_stride]
    }
}

fn logits_bcast<'a>(
    t: &'a Tensor,
    q: &Tensor,
    s_q: usize,
    s_k: usize,
    batch: usize,
) -> Result<LogitsBcast<'a>> {
    let logits_shape = check_bias(q, s_q, s_k, t)?;
    let st = broadcast_strides(t.shape(), &logits_shape);
    let rank = st.len();
    let batch_dims = &q.dims()[..q.rank() - 2];
    let mut batch_offs = Vec::with_capacity(batch);
    let mut batch_idx = vec![0usize; batch_dims.len()];
    for _ in 0..batch {
        batch_offs.push(
            batch_idx
                .iter()
                .zip(st.iter())
                .map(|(&i, &s)| i * s)
                .sum::<usize>(),
        );
        let mut axis = batch_dims.len();
        while axis > 0 {
            axis -= 1;
            batch_idx[axis] += 1;
            if batch_idx[axis] < batch_dims[axis] {
                break;
            }
            batch_idx[axis] = 0;
        }
    }
    Ok(LogitsBcast {
        data: t.data(),
        row_stride: st[rank - 2],
        col_stride: st[rank - 1],
        batch_offs,
    })
}

/// Result of [`attention_fused`]: the (possibly gated) output plus the
/// per-row softmax statistics the fused backward needs.
#[derive(Debug, Clone)]
pub struct FusedAttention {
    /// Attention output, gated when a gate was supplied: `[..., S_q, D]`.
    pub out: Tensor,
    /// Pre-gate attention output `P @ V`, saved only when a gate was
    /// supplied (otherwise it equals `out`).
    pub att: Option<Tensor>,
    /// Per-query-row log-sum-exp of the scaled/biased/masked logits,
    /// `[batch..., S_q]` — enough to recompute any probability tile in the
    /// backward pass without storing the `[S_q, S_k]` probability tensor.
    pub lse: Tensor,
}

impl FusedAttention {
    /// The pre-gate attention output (`out` itself when ungated).
    pub fn pre_gate(&self) -> &Tensor {
        self.att.as_ref().unwrap_or(&self.out)
    }
}

/// Gradients returned by [`attention_fused_backward`].
#[derive(Debug, Clone)]
pub struct FusedAttentionGrads {
    pub dq: Tensor,
    pub dk: Tensor,
    pub dv: Tensor,
    /// Present iff a bias was supplied (sum-reduced to the bias shape).
    pub dbias: Option<Tensor>,
    /// Present iff a gate was supplied.
    pub dgate: Option<Tensor>,
}

/// Tiled kernel behind [`attention_fused`].
///
/// One work item per (batch, query-row block) — the paper's (batch, head)
/// parallelization with the row axis split for load balance. Each item
/// packs its batch element's K transposed into thread-local scratch, so a
/// tile of logits accumulates *vectorized across the tile lanes* (the
/// plain q·k dot product is a serial FP chain the compiler cannot
/// vectorize). Per logit the accumulation still runs over the head dim in
/// one fixed ascending pass, and each row's tile-by-tile online-softmax
/// order is fixed, so output is bit-identical for every thread count.
fn flash_core(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    bias: Option<&Tensor>,
    mask: Option<&Tensor>,
    gate: Option<&Tensor>,
    scale: f32,
) -> Result<FusedAttention> {
    let (batch, s_q, s_k, d) = check_qkv(q, k, v)?;
    let mut out_dims = q.dims().to_vec();
    *out_dims.last_mut().expect("rank >= 2") = d;
    let bias_rd = bias.map(|b| logits_bcast(b, q, s_q, s_k, batch)).transpose()?;
    let mask_rd = mask.map(|m| logits_bcast(m, q, s_q, s_k, batch)).transpose()?;
    if let Some(g) = gate {
        if g.dims() != out_dims.as_slice() {
            return Err(TensorError::ShapeMismatch {
                op: "attention gate",
                lhs: g.dims().to_vec(),
                rhs: out_dims,
            });
        }
    }
    let mut lse_dims = q.dims()[..q.rank() - 2].to_vec();
    lse_dims.push(s_q);
    let mut att = Tensor::zeros(&out_dims);
    let mut gated = gate.map(|_| Tensor::zeros(&out_dims));
    let mut lse = Tensor::zeros(&lse_dims);
    if batch == 0 || s_q == 0 {
        return Ok(match gated {
            Some(g) => FusedAttention { out: g, att: Some(att), lse },
            None => FusedAttention { out: att, att: None, lse },
        });
    }

    let att_ptr = SendPtr::new(att.data_mut());
    let gated_ptr = gated.as_mut().map(|g| SendPtr::new(g.data_mut()));
    let lse_ptr = SendPtr::new(lse.data_mut());
    let (qd, kd, vd) = (q.data(), k.data(), v.data());
    let gd = gate.map(|g| g.data());
    let qb_per_mat = s_q.div_ceil(FLASH_Q_BLOCK);
    let n_tasks = batch * qb_per_mat;
    let task_cost = FLASH_Q_BLOCK.min(s_q) * s_k * (2 * d + 8);
    parallel_for(n_tasks, task_cost, |range| {
        let mut logits_tile = [0.0f32; FLASH_TILE];
        scratch::with_scratch(d * s_k, |kt| {
            // K^T pack is reused across the row blocks of one batch
            // element; consecutive items usually share it.
            let mut packed_for = usize::MAX;
            for item in range {
                let b = item / qb_per_mat;
                let i0 = (item % qb_per_mat) * FLASH_Q_BLOCK;
                let i1 = (i0 + FLASH_Q_BLOCK).min(s_q);
                let q_base = b * s_q * d;
                let kv_base = b * s_k * d;
                if packed_for != b {
                    for j in 0..s_k {
                        let krow = &kd[kv_base + j * d..kv_base + (j + 1) * d];
                        for (kk, &kv) in krow.iter().enumerate() {
                            kt[kk * s_k + j] = kv;
                        }
                    }
                    packed_for = b;
                }
                for i in i0..i1 {
                    let qrow = &qd[q_base + i * d..q_base + (i + 1) * d];
                    // SAFETY: each item owns its block of output rows.
                    let orow = unsafe { att_ptr.slice_mut(q_base + i * d, d) };
                    let mut state = OnlineSoftmax::new();
                    let mut j0 = 0usize;
                    while j0 < s_k {
                        let j1 = (j0 + FLASH_TILE).min(s_k);
                        let tile = j1 - j0;
                        // Tile logits: q · k_j, accumulated lane-parallel
                        // over the tile from the packed K^T rows.
                        let lt = &mut logits_tile[..tile];
                        lt.fill(0.0);
                        for (kk, &qv) in qrow.iter().enumerate() {
                            let ktrow = &kt[kk * s_k + j0..kk * s_k + j1];
                            for (l, &kv) in lt.iter_mut().zip(ktrow.iter()) {
                                *l += qv * kv;
                            }
                        }
                        // Scale + pair bias + mask folded into the tile —
                        // the logits matrix is never materialized.
                        for (t, l) in lt.iter_mut().enumerate() {
                            let mut val = *l * scale;
                            if let Some(rd) = bias_rd.as_ref() {
                                val += rd.at(b, i, j0 + t);
                            }
                            if let Some(rd) = mask_rd.as_ref() {
                                if rd.at(b, i, j0 + t) == 0.0 {
                                    val += MASK_NEG;
                                }
                            }
                            *l = val;
                        }
                        let vals = &vd[kv_base + j0 * d..kv_base + j1 * d];
                        state.fold_tile(&logits_tile[..tile], vals, orow);
                        j0 = j1;
                    }
                    state.finish(orow);
                    // SAFETY: one lse slot per row, owned by this item.
                    let lse_slot = unsafe { lse_ptr.slice_mut(b * s_q + i, 1) };
                    lse_slot[0] = state.logsumexp();
                    // Sigmoid-gate epilogue, fused while the output row is
                    // hot (pre-gate row kept for the backward pass).
                    if let (Some(gp), Some(gdat)) = (gated_ptr.as_ref(), gd) {
                        // SAFETY: same row ownership as `orow`.
                        let grow = unsafe { gp.slice_mut(q_base + i * d, d) };
                        let gsrc = &gdat[q_base + i * d..q_base + (i + 1) * d];
                        for ((o, &a), &g) in grow.iter_mut().zip(orow.iter()).zip(gsrc.iter()) {
                            *o = a / (1.0 + vexp(-g));
                        }
                    }
                }
            }
        });
    });
    Ok(match gated {
        Some(g) => FusedAttention { out: g, att: Some(att), lse },
        None => FusedAttention { out: att, att: None, lse },
    })
}

/// The fully fused attention head — the CPU analogue of ScaleFold's custom
/// Triton kernel: `sigmoid(gate) ⊙ softmax(q @ k^T · scale + bias + maskneg) @ v`
/// in one pass over the key tiles. Scale, pair bias, mask penalty, and the
/// sigmoid-gate epilogue are folded into the tile loop, so neither the
/// logits nor the bias+mask sum is ever materialized as a tensor. Per-row
/// log-sum-exp statistics are saved for the matching fused backward.
///
/// - `bias`/`mask` (optional) must broadcast to `[batch..., S_q, S_k]`;
///   mask entries equal to zero add [`MASK_NEG`] to the logit. The mask is
///   a non-differentiable input.
/// - `gate` (optional) must match the output shape exactly.
///
/// # Errors
///
/// Returns an error on any shape incompatibility.
pub fn attention_fused(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    bias: Option<&Tensor>,
    mask: Option<&Tensor>,
    gate: Option<&Tensor>,
    scale: f32,
) -> Result<FusedAttention> {
    let _sp = sf_trace::span("kernel", "attention_fused");
    flash_core(q, k, v, bias, mask, gate, scale)
}

/// Fused backward for [`attention_fused`]: softmax-backward is folded into
/// the attention gradient instead of running as a standalone op, and the
/// probability tensor is **recomputed in a single pass** from the saved
/// per-row log-sum-exp (`p = exp(scale·qkᵀ + bias + maskneg − lse)`) rather
/// than re-running the three-pass softmax or storing `[S_q, S_k]` floats
/// from the forward.
///
/// Uses the FlashAttention `D`-trick: the softmax-backward row reduction
/// `D_i = Σ_j p_ij·dp_ij` equals `datt_i · att_i`, so it comes from the
/// *saved output* instead of another pass over the probabilities.
///
/// `att` is the **pre-gate** forward output ([`FusedAttention::pre_gate`]),
/// `dy` the gradient of the (gated) output.
///
/// # Errors
///
/// Returns an error on any shape incompatibility.
#[allow(clippy::too_many_arguments)]
pub fn attention_fused_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    bias: Option<&Tensor>,
    mask: Option<&Tensor>,
    gate: Option<&Tensor>,
    att: &Tensor,
    lse: &Tensor,
    scale: f32,
    dy: &Tensor,
) -> Result<FusedAttentionGrads> {
    let _sp = sf_trace::span("kernel", "attention_fused_bwd");
    let (batch, s_q, s_k, _d) = check_qkv(q, k, v)?;

    // Gate epilogue backward: datt = dy ⊙ σ(g); dgate = dy ⊙ att ⊙ σ(g)(1−σ(g)).
    // Ungated, `datt` is `dy` itself (borrowed, not copied).
    let (gated_datt, dgate) = match gate {
        Some(g) => {
            let mut datt = Tensor::zeros(dy.dims());
            let mut dgate = Tensor::zeros(g.dims());
            let n = dy.len();
            let datt_ptr = SendPtr::new(datt.data_mut());
            let dgate_ptr = SendPtr::new(dgate.data_mut());
            let (dyd, gd, attd) = (dy.data(), g.data(), att.data());
            parallel_for(n, 6, |range| {
                let lo = range.start;
                let len = range.end - range.start;
                // SAFETY: element ranges from parallel_for are disjoint.
                let da = unsafe { datt_ptr.slice_mut(lo, len) };
                let dg = unsafe { dgate_ptr.slice_mut(lo, len) };
                for off in 0..len {
                    let i = lo + off;
                    let sig = 1.0 / (1.0 + vexp(-gd[i]));
                    da[off] = dyd[i] * sig;
                    dg[off] = dyd[i] * attd[i] * sig * (1.0 - sig);
                }
            });
            (Some(datt), Some(dgate))
        }
        None => (None, None),
    };
    let datt = gated_datt.as_ref().unwrap_or(dy);

    // Recompute probabilities in ONE pass from the saved row stats: the
    // GEMM gives raw q·kᵀ; scale/bias/mask/−lse/exp fold into a single
    // in-place sweep (no max scan, no sum pass).
    let mut p = matmul_bt(q, k)?;
    let bias_rd = bias.map(|b| logits_bcast(b, q, s_q, s_k, batch)).transpose()?;
    let mask_rd = mask.map(|m| logits_bcast(m, q, s_q, s_k, batch)).transpose()?;
    {
        let rows = batch * s_q;
        let p_ptr = SendPtr::new(p.data_mut());
        let lsed = lse.data();
        parallel_for(rows, s_k * 8, |range| {
            for r in range {
                let (b, i) = (r / s_q, r % s_q);
                let row_lse = lsed[r];
                // SAFETY: row ranges from parallel_for are disjoint.
                let row = unsafe { p_ptr.slice_mut(r * s_k, s_k) };
                for (j, l) in row.iter_mut().enumerate() {
                    let mut val = *l * scale;
                    if let Some(rd) = bias_rd.as_ref() {
                        val += rd.at(b, i, j);
                    }
                    if let Some(rd) = mask_rd.as_ref() {
                        if rd.at(b, i, j) == 0.0 {
                            val += MASK_NEG;
                        }
                    }
                    *l = vexp(val - row_lse);
                }
            }
        });
    }

    let dv = p.matmul_at(datt)?;
    // dp, then dlogits = p ⊙ (dp − D) fused in place with the D-trick
    // rowdot (saves the standalone softmax-backward pass).
    let mut dp = datt.matmul_bt(v)?;
    {
        let rows = batch * s_q;
        let d = att.dims()[att.rank() - 1];
        let dp_ptr = SendPtr::new(dp.data_mut());
        let (pd, dattd, attd) = (p.data(), datt.data(), att.data());
        parallel_for(rows, s_k * 4 + d * 2, |range| {
            for r in range {
                let mut rowdot = 0.0f32;
                for (da, a) in dattd[r * d..(r + 1) * d]
                    .iter()
                    .zip(attd[r * d..(r + 1) * d].iter())
                {
                    rowdot += da * a;
                }
                // SAFETY: row ranges from parallel_for are disjoint.
                let dprow = unsafe { dp_ptr.slice_mut(r * s_k, s_k) };
                for (dl, &pv) in dprow.iter_mut().zip(pd[r * s_k..(r + 1) * s_k].iter()) {
                    *dl = pv * (*dl - rowdot);
                }
            }
        });
    }

    let mut dq = dp.matmul(k)?;
    dq.map_inplace(|g| g * scale);
    let mut dk = dp.matmul_at(q)?;
    dk.map_inplace(|g| g * scale);
    let dbias = match bias {
        // A bias of the full logits shape (IPA) takes `dp` itself; `0.0 + x`
        // gives the same bits as `reduce_to`'s single-term sum (-0.0 -> +0.0).
        Some(b) if b.dims() == dp.dims() => {
            dp.map_inplace(|x| 0.0 + x);
            Some(dp)
        }
        Some(b) => Some(dp.reduce_to(b.dims())?),
        None => None,
    };
    Ok(FusedAttentionGrads { dq, dk, dv, dbias, dgate })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_matches_naive_no_bias() {
        let q = Tensor::randn(&[2, 3, 20, 8], 1);
        let k = Tensor::randn(&[2, 3, 20, 8], 2);
        let v = Tensor::randn(&[2, 3, 20, 8], 3);
        let scale = 1.0 / 8f32.sqrt();
        let a = naive_attention(&q, &k, &v, None, scale).unwrap();
        let b = attention_fused(&q, &k, &v, None, None, None, scale).unwrap().out;
        assert!(a.allclose(&b, 1e-4));
    }

    #[test]
    fn flash_matches_naive_with_pair_bias() {
        // q: [B, H, S, D]; bias: [H, S, S] broadcast over B — the AlphaFold
        // MSARowAttentionWithPairBias layout.
        let (b, h, s, d) = (2, 4, 19, 8);
        let q = Tensor::randn(&[b, h, s, d], 4);
        let k = Tensor::randn(&[b, h, s, d], 5);
        let v = Tensor::randn(&[b, h, s, d], 6);
        let bias = Tensor::randn(&[h, s, s], 7);
        let scale = 1.0 / (d as f32).sqrt();
        let out1 = naive_attention(&q, &k, &v, Some(&bias), scale).unwrap();
        let out2 = attention_fused(&q, &k, &v, Some(&bias), None, None, scale).unwrap().out;
        assert!(out1.allclose(&out2, 1e-4));
    }

    #[test]
    fn flash_handles_non_tile_multiple_lengths() {
        // s_k not a multiple of FLASH_TILE exercises the ragged last tile.
        let q = Tensor::randn(&[1, 5, 4], 8);
        let k = Tensor::randn(&[1, FLASH_TILE + 3, 4], 9);
        let v = Tensor::randn(&[1, FLASH_TILE + 3, 4], 10);
        let a = naive_attention(&q, &k, &v, None, 0.5).unwrap();
        let b = attention_fused(&q, &k, &v, None, None, None, 0.5).unwrap().out;
        assert!(a.allclose(&b, 1e-4));
    }

    #[test]
    fn attention_uniform_when_logits_constant() {
        // Zero queries -> uniform softmax -> output = mean of values.
        let q = Tensor::zeros(&[1, 2, 4]);
        let k = Tensor::randn(&[1, 6, 4], 11);
        let v = Tensor::randn(&[1, 6, 4], 12);
        let out = attention_fused(&q, &k, &v, None, None, None, 1.0).unwrap().out;
        let mean_v = v.mean_axis(1).unwrap();
        for r in 0..2 {
            for c in 0..4 {
                assert!(
                    (out.at(&[0, r, c]).unwrap() - mean_v.at(&[0, c]).unwrap()).abs() < 1e-5
                );
            }
        }
    }

    #[test]
    fn bias_shifts_attention() {
        let q = Tensor::zeros(&[1, 1, 3, 4]);
        let k = Tensor::zeros(&[1, 1, 3, 4]);
        let v = Tensor::from_vec(
            vec![
                1.0, 0.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 1.0, 0.0,
            ],
            &[1, 1, 3, 4],
        )
        .unwrap();
        // Strong bias towards key 2 for every query.
        let mut bias = Tensor::zeros(&[1, 3, 3]);
        for i in 0..3 {
            bias.set(&[0, i, 2], 50.0).unwrap();
        }
        let out = attention_fused(&q, &k, &v, Some(&bias), None, None, 1.0).unwrap().out;
        for i in 0..3 {
            assert!(out.at(&[0, 0, i, 2]).unwrap() > 0.999);
        }
    }

    #[test]
    fn rejects_shape_mismatches() {
        let q = Tensor::zeros(&[1, 4, 8]);
        let k = Tensor::zeros(&[1, 4, 6]);
        let v = Tensor::zeros(&[1, 4, 8]);
        assert!(naive_attention(&q, &k, &v, None, 1.0).is_err());
        let k2 = Tensor::zeros(&[2, 4, 8]);
        assert!(attention_fused(&q, &k2, &v, None, None, None, 1.0).is_err());
        let bad_bias = Tensor::zeros(&[5, 5]);
        let k3 = Tensor::zeros(&[1, 4, 8]);
        assert!(attention_fused(&q, &k3, &v, Some(&bad_bias), None, None, 1.0).is_err());
    }
}
