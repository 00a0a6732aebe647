//! Multi-head attention with the AlphaFold *pair bias* term.
//!
//! AlphaFold's MHA variant adds a learned bias derived from the pair
//! representation to the attention logits before the softmax
//! (`MSARowAttentionWithPairBias`, Fig. 6 of the paper). This extra term is
//! why stock FlashAttention kernels were inapplicable and the ScaleFold
//! authors wrote a custom fused kernel.
//!
//! One forward and one backward kernel run every attention site:
//!
//! - [`attention_fused`]: a **whole-row** kernel. At AlphaFold head widths
//!   (d = 4–32, s_k ≤ a few hundred) a query's complete logits row fits in
//!   L1, so there is no key tiling and no online-softmax rescaling. Per
//!   batch element the kernel forms the `[s_q, s_k]` logits block with the
//!   GEMM engine's register-tiled micro-kernel (4 query rows per packed Kᵀ
//!   panel), folds scale, the optional pair bias and the optional mask into
//!   the whole block (one contiguous pass when the side input is dense, a
//!   strided walk when it broadcasts), runs one 8-lane max scan and
//!   one vectorized exp-and-sum per row, then `P·V`, the normalization, the
//!   optional sigmoid-gate epilogue and the per-row log-sum-exp the
//!   backward needs. Only that block lives in thread-local scratch; no
//!   `[.., s_q, s_k]` tensor is allocated.
//! - [`attention_fused_backward`]: the same per-batch-element structure —
//!   recompute `p` and `dP`, form `dS`, then `dV`, `dK` and `dQ` — as a
//!   chain of the GEMM engine's micro-kernel calls on L1-resident blocks.
//!   Each gradient accumulates in exactly the order of the `matmul_bt` /
//!   `matmul_at` / `matmul` chain it replaces, so it is bit-identical to
//!   that chain (pinned by `tests/attention_backward_bits.rs`).
//!
//! [`naive_attention`] materializes the full logits matrix. It is the test
//! oracle (and the memory-hungry path the paper starts from); the fused
//! kernel matches it to within f32 tolerance (tested, including property
//! tests).

use crate::ops::matmul::{gemm_serial, matmul_bt, pack_len};
use crate::ops::softmax::softmax;
use crate::ops::vexp::{striped_max, vexp, vexp_shift_sum};
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
    let logit_dims = batch_dims_and(q, &[s_q, s_k]);
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

fn check_dims(op: &'static str, t: &Tensor, dims: &[usize]) -> Result<()> {
    if t.dims() == dims {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch { op, lhs: t.dims().to_vec(), rhs: dims.to_vec() })
    }
}

/// `q`'s batch dims followed by `tail`.
fn batch_dims_and(q: &Tensor, tail: &[usize]) -> Vec<usize> {
    let mut dims = q.dims()[..q.rank() - 2].to_vec();
    dims.extend_from_slice(tail);
    dims
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

/// A side input (pair bias or mask) resolved against the logits
/// `[batch..., s_q, s_k]`: per-batch base offsets plus the row and column
/// strides (0 on broadcast axes), so a kernel reads a batch element's
/// logits block as one slice, or one row slice at a time.
struct LogitsRows<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
    batch_offs: Vec<usize>,
}

impl LogitsRows<'_> {
    /// `block[i, j] = f(block[i, j], side[b, i, j])` over batch element
    /// `b`'s whole `[s_q, s_k]` logits block: one contiguous pass when the
    /// side input's rows are dense and adjacent (the `[h, s_q, s_k]` pair
    /// bias, IPA's full-shape bias), else a strided walk that serves every
    /// broadcast.
    #[inline(always)]
    fn zip_rows(&self, b: usize, block: &mut [f32], s_k: usize, f: impl Fn(f32, f32) -> f32) {
        let base = self.batch_offs[b];
        if self.col_stride == 1 && self.row_stride == s_k {
            let side = &self.data[base..base + block.len()];
            for (l, &x) in block.iter_mut().zip(side) {
                *l = f(*l, x);
            }
            return;
        }
        for (i, row) in block.chunks_mut(s_k.max(1)).enumerate() {
            let row_base = base + i * self.row_stride;
            for (j, l) in row.iter_mut().enumerate() {
                *l = f(*l, self.data[row_base + j * self.col_stride]);
            }
        }
    }
}

fn logits_rows<'a>(
    t: &'a Tensor,
    q: &Tensor,
    s_q: usize,
    s_k: usize,
    batch: usize,
) -> Result<LogitsRows<'a>> {
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
    Ok(LogitsRows {
        data: t.data(),
        row_stride: st[rank - 2],
        col_stride: st[rank - 1],
        batch_offs,
    })
}

/// Folds scale, pair bias and mask penalty into batch element `b`'s raw
/// `q·kᵀ` logits block (`[s_q, s_k]`), in place: `l·scale + bias
/// (+ MASK_NEG where the mask is 0)`, rounded in that order by the forward
/// and the backward recompute alike. Then `row_fn(i, row)` runs on each
/// folded row.
#[allow(clippy::too_many_arguments)]
fn fold_logits(
    block: &mut [f32],
    s_q: usize,
    s_k: usize,
    scale: f32,
    bias: Option<&LogitsRows>,
    mask: Option<&LogitsRows>,
    b: usize,
    mut row_fn: impl FnMut(usize, &mut [f32]),
) {
    match bias {
        Some(bias) => bias.zip_rows(b, block, s_k, |l, x| l * scale + x),
        None => {
            for l in block.iter_mut() {
                *l *= scale;
            }
        }
    }
    if let Some(mask) = mask {
        mask.zip_rows(b, block, s_k, |l, m| if m == 0.0 { l + MASK_NEG } else { l });
    }
    for i in 0..s_q {
        row_fn(i, &mut block[i * s_k..(i + 1) * s_k]);
    }
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
    /// `[batch..., S_q]` — enough to recompute any probability row in the
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

/// The fully fused attention head — the CPU analogue of ScaleFold's custom
/// Triton kernel: `sigmoid(gate) ⊙ softmax(q @ k^T · scale + bias + maskneg) @ v`.
///
/// One work item per batch element (the paper's (batch, head)
/// parallelization). Each item forms its `[S_q, S_k]` logits block in
/// thread-local scratch with the GEMM micro-kernel, folds scale, pair bias
/// and mask penalty into it, takes each row's max and exp-and-sum in one
/// 8-lane pass apiece, multiplies by `V`, normalizes, and applies the
/// sigmoid-gate epilogue while the output rows are hot.
/// Neither the logits nor the bias+mask sum is ever materialized as a
/// tensor. Per-row log-sum-exp statistics are saved for the matching fused
/// backward. Rows never split across threads and every reduction runs in a
/// fixed order, so output is bit-identical for every thread count.
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
    let (batch, s_q, s_k, d) = check_qkv(q, k, v)?;
    let bias_rows = bias.map(|b| logits_rows(b, q, s_q, s_k, batch)).transpose()?;
    let mask_rows = mask.map(|m| logits_rows(m, q, s_q, s_k, batch)).transpose()?;
    if let Some(g) = gate {
        check_dims("attention gate", g, q.dims())?;
    }
    let mut att = Tensor::zeros(q.dims());
    let mut gated = gate.map(|_| Tensor::zeros(q.dims()));
    let mut lse = Tensor::zeros(&batch_dims_and(q, &[s_q]));

    let att_ptr = SendPtr::new(att.data_mut());
    let gated_ptr = gated.as_mut().map(|g| SendPtr::new(g.data_mut()));
    let lse_ptr = SendPtr::new(lse.data_mut());
    let (qd, kd, vd) = (q.data(), k.data(), v.data());
    let gd = gate.map(|g| g.data());
    let (q_len, kv_len, block) = (s_q * d, s_k * d, s_q * s_k);
    let pack = pack_len(d.max(s_k));
    parallel_for(batch, block * (4 * d + 12), |range| {
        scratch::with_scratch(block + s_q + pack, |buf| {
            let (probs, rest) = buf.split_at_mut(block);
            let (sums, pack) = rest.split_at_mut(s_q);
            for b in range {
                let qm = &qd[b * q_len..(b + 1) * q_len];
                let km = &kd[b * kv_len..(b + 1) * kv_len];
                let vm = &vd[b * kv_len..(b + 1) * kv_len];
                // SAFETY: each item owns its batch element's output rows.
                let att_b = unsafe { att_ptr.slice_mut(b * q_len, q_len) };
                let lse_b = unsafe { lse_ptr.slice_mut(b * s_q, s_q) };
                // Logits block q·kᵀ, 4 query rows per packed Kᵀ panel.
                gemm_serial(qm, false, km, true, s_q, d, s_k, probs, pack);
                let (bias, mask) = (bias_rows.as_ref(), mask_rows.as_ref());
                fold_logits(probs, s_q, s_k, scale, bias, mask, b, |i, row| {
                    lse_b[i] = striped_max(row);
                    sums[i] = vexp_shift_sum(row, lse_b[i]);
                });
                // Unnormalized P·V, then one 1/sum per row.
                gemm_serial(probs, false, vm, false, s_q, s_k, d, att_b, pack);
                for (i, &sum) in sums.iter().enumerate() {
                    if sum > 0.0 {
                        let orow = &mut att_b[i * d..(i + 1) * d];
                        let inv = 1.0 / sum;
                        for o in orow.iter_mut() {
                            *o *= inv;
                        }
                        lse_b[i] += sum.ln();
                    } else {
                        lse_b[i] = f32::NEG_INFINITY;
                    }
                }
                // Sigmoid-gate epilogue (pre-gate rows kept for the backward).
                if let (Some(gp), Some(gdat)) = (gated_ptr.as_ref(), gd) {
                    // SAFETY: same row ownership as `att_b`.
                    let gated_b = unsafe { gp.slice_mut(b * q_len, q_len) };
                    let gsrc = &gdat[b * q_len..(b + 1) * q_len];
                    for ((o, &a), &g) in gated_b.iter_mut().zip(att_b.iter()).zip(gsrc.iter()) {
                        *o = a / (1.0 + vexp(-g));
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

/// Fused backward for [`attention_fused`]: softmax-backward is folded into
/// the attention gradient instead of running as a standalone op, and the
/// probabilities are **recomputed in a single pass** from the saved per-row
/// log-sum-exp (`p = exp(scale·qkᵀ + bias + maskneg − lse)`) rather than
/// re-running the three-pass softmax or storing `[S_q, S_k]` floats from
/// the forward.
///
/// Uses the FlashAttention `D`-trick: the softmax-backward row reduction
/// `D_i = Σ_j p_ij·dp_ij` equals `datt_i · att_i`, so it comes from the
/// *saved output* instead of another pass over the probabilities.
///
/// One work item per batch element runs the whole chain on L1-resident
/// blocks with the GEMM micro-kernel: `p = exp(fold(q·kᵀ) − lse)`,
/// `dP = datt·vᵀ`, `dS = p ⊙ (dP − D)`, `dV = pᵀ·datt`, `dK = dSᵀ·q·scale`,
/// `dQ = dS·k·scale`. Every gradient accumulates in the order of the
/// equivalent `matmul_bt`/`matmul_at`/`matmul` chain, so the bits match it
/// exactly. `dS` is written to a tensor only when a bias needs its
/// gradient (then sum-reduced to the bias shape).
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
    let (batch, s_q, s_k, d) = check_qkv(q, k, v)?;
    let bias_rows = bias.map(|b| logits_rows(b, q, s_q, s_k, batch)).transpose()?;
    let mask_rows = mask.map(|m| logits_rows(m, q, s_q, s_k, batch)).transpose()?;
    check_dims("attention att", att, q.dims())?;
    check_dims("attention dy", dy, q.dims())?;
    if let Some(g) = gate {
        check_dims("attention gate", g, q.dims())?;
    }
    check_dims("attention lse", lse, &batch_dims_and(q, &[s_q]))?;
    let mut dq = Tensor::zeros(q.dims());
    let mut dk = Tensor::zeros(k.dims());
    let mut dv = Tensor::zeros(v.dims());
    let mut dgate = gate.map(|g| Tensor::zeros(g.dims()));
    let mut ds = bias.map(|_| Tensor::zeros(&batch_dims_and(q, &[s_q, s_k])));

    let dq_ptr = SendPtr::new(dq.data_mut());
    let dk_ptr = SendPtr::new(dk.data_mut());
    let dv_ptr = SendPtr::new(dv.data_mut());
    let dgate_ptr = dgate.as_mut().map(|t| SendPtr::new(t.data_mut()));
    let ds_ptr = ds.as_mut().map(|t| SendPtr::new(t.data_mut()));
    let (qd, kd, vd, dyd, attd, lsed) = (q.data(), k.data(), v.data(), dy.data(), att.data(), lse.data());
    let gd = gate.map(|g| g.data());
    let (q_len, kv_len, block) = (s_q * d, s_k * d, s_q * s_k);
    let pack = pack_len(d.max(s_k).max(s_q));
    // Scratch: p block, dS block (unless it goes straight to `ds`), the
    // gated `datt` rows, one GEMM panel.
    let ds_scratch = if ds.is_some() { 0 } else { block };
    let datt_scratch = if gate.is_some() { q_len } else { 0 };
    parallel_for(batch, block * (10 * d + 16), |range| {
        scratch::with_scratch(block + ds_scratch + datt_scratch + pack, |buf| {
            let (p, rest) = buf.split_at_mut(block);
            let (ds_own, rest) = rest.split_at_mut(ds_scratch);
            let (datt_own, pack) = rest.split_at_mut(datt_scratch);
            for b in range {
                let (qs, kvs) = (b * q_len..(b + 1) * q_len, b * kv_len..(b + 1) * kv_len);
                let (qm, km, vm) = (&qd[qs.clone()], &kd[kvs.clone()], &vd[kvs]);
                let att_b = &attd[qs.clone()];
                // SAFETY: each item owns its batch element's gradient rows.
                let (dq_b, dk_b, dv_b) = unsafe {
                    (
                        dq_ptr.slice_mut(b * q_len, q_len),
                        dk_ptr.slice_mut(b * kv_len, kv_len),
                        dv_ptr.slice_mut(b * kv_len, kv_len),
                    )
                };
                let ds_b = match ds_ptr.as_ref() {
                    // SAFETY: as above, one `[s_q, s_k]` block per item.
                    Some(ptr) => unsafe { ptr.slice_mut(b * block, block) },
                    None => &mut *ds_own,
                };
                // Gate epilogue backward: datt = dy ⊙ σ(g);
                // dgate = dy ⊙ att ⊙ σ(g)(1−σ(g)). Ungated, datt is dy.
                let datt: &[f32] = match (dgate_ptr.as_ref(), gd) {
                    (Some(dgp), Some(gdat)) => {
                        // SAFETY: as above.
                        let dg = unsafe { dgp.slice_mut(b * q_len, q_len) };
                        let (dyr, gr) = (&dyd[qs.clone()], &gdat[qs.clone()]);
                        let outs = datt_own.iter_mut().zip(dg.iter_mut());
                        for ((da, dgo), ((&y, &g), &a)) in outs.zip(dyr.iter().zip(gr).zip(att_b)) {
                            let sig = 1.0 / (1.0 + vexp(-g));
                            *da = y * sig;
                            *dgo = y * a * sig * (1.0 - sig);
                        }
                        &*datt_own
                    }
                    _ => &dyd[qs],
                };
                // p = exp(fold(q·kᵀ) − lse), dP = datt·vᵀ, dS = p ⊙ (dP − D).
                gemm_serial(qm, false, km, true, s_q, d, s_k, p, pack);
                gemm_serial(datt, false, vm, true, s_q, d, s_k, ds_b, pack);
                let (bias, mask) = (bias_rows.as_ref(), mask_rows.as_ref());
                fold_logits(p, s_q, s_k, scale, bias, mask, b, |i, prow| {
                    let row_lse = lsed[b * s_q + i];
                    for l in prow.iter_mut() {
                        *l = vexp(*l - row_lse);
                    }
                    let mut rowdot = 0.0f32;
                    for (da, a) in datt[i * d..(i + 1) * d].iter().zip(&att_b[i * d..(i + 1) * d]) {
                        rowdot += da * a;
                    }
                    for (dl, &pv) in ds_b[i * s_k..(i + 1) * s_k].iter_mut().zip(prow.iter()) {
                        *dl = pv * (*dl - rowdot);
                    }
                });
                // dV = pᵀ·datt, dK = dSᵀ·q·scale, dQ = dS·k·scale.
                gemm_serial(p, true, datt, false, s_k, s_q, d, dv_b, pack);
                gemm_serial(ds_b, true, qm, false, s_k, s_q, d, dk_b, pack);
                gemm_serial(ds_b, false, km, false, s_q, s_k, d, dq_b, pack);
                for grad in [dk_b, dq_b] {
                    for g in grad.iter_mut() {
                        *g *= scale;
                    }
                }
            }
        });
    });
    let dbias = match (bias, ds) {
        // A bias of the full logits shape (IPA) takes `dS` itself; `0.0 + x`
        // gives the same bits as `reduce_to`'s single-term sum (-0.0 -> +0.0).
        (Some(b), Some(mut ds)) if b.dims() == ds.dims() => {
            ds.map_inplace(|x| 0.0 + x);
            Some(ds)
        }
        (Some(b), Some(ds)) => Some(ds.reduce_to(b.dims())?),
        _ => None,
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
        // s_k = 19 is neither a multiple of the 8-lane exp/max width nor of
        // the GEMM panel width, so every ragged tail runs.
        let q = Tensor::randn(&[1, 5, 4], 8);
        let k = Tensor::randn(&[1, 19, 4], 9);
        let v = Tensor::randn(&[1, 19, 4], 10);
        let a = naive_attention(&q, &k, &v, None, 0.5).unwrap();
        let b = attention_fused(&q, &k, &v, None, None, None, 0.5).unwrap().out;
        assert!(a.allclose(&b, 1e-4));
    }

    #[test]
    fn long_row_matches_naive() {
        // A 300-key row: far past any tile width, the whole row in scratch.
        let (h, s_q, s_k, d) = (2, 7, 300, 8);
        let q = Tensor::randn(&[h, s_q, d], 13);
        let k = Tensor::randn(&[h, s_k, d], 14);
        let v = Tensor::randn(&[h, s_k, d], 15);
        let bias = Tensor::randn(&[h, s_q, s_k], 16);
        let scale = 1.0 / (d as f32).sqrt();
        let a = naive_attention(&q, &k, &v, Some(&bias), scale).unwrap();
        let b = attention_fused(&q, &k, &v, Some(&bias), None, None, scale).unwrap().out;
        assert!(a.allclose(&b, 1e-4));
    }

    #[test]
    fn stride_zero_key_bias_matches_naive() {
        // A `[h, s_q, 1]` bias broadcasts over keys: column stride 0, the
        // non-contiguous row-slice path.
        let (b, h, s, d) = (2, 3, 11, 8);
        let q = Tensor::randn(&[b, h, s, d], 17);
        let k = Tensor::randn(&[b, h, s, d], 18);
        let v = Tensor::randn(&[b, h, s, d], 19);
        let bias = Tensor::randn(&[h, s, 1], 20).mul_scalar(3.0);
        let scale = 1.0 / (d as f32).sqrt();
        let a = naive_attention(&q, &k, &v, Some(&bias), scale).unwrap();
        let fa = attention_fused(&q, &k, &v, Some(&bias), None, None, scale).unwrap();
        assert!(a.allclose(&fa.out, 1e-4));
        let dy = Tensor::randn(fa.out.dims(), 21);
        let g = attention_fused_backward(
            &q, &k, &v, Some(&bias), None, None, fa.pre_gate(), &fa.lse, scale, &dy,
        )
        .unwrap();
        assert_eq!(g.dbias.unwrap().dims(), bias.dims());
    }

    #[test]
    fn fully_masked_row_stays_finite() {
        // Query row 0 masks every key; the other rows keep at least one.
        let (s_q, s_k, d) = (4, 9, 8);
        let q = Tensor::randn(&[1, s_q, d], 22);
        let k = Tensor::randn(&[1, s_k, d], 23);
        let v = Tensor::randn(&[1, s_k, d], 24);
        let bias = Tensor::randn(&[1, s_q, s_k], 25);
        let mut mask = Tensor::ones(&[s_q, s_k]);
        for (j, m) in mask.data_mut().iter_mut().enumerate() {
            if j < s_k || j % 3 == 1 {
                *m = 0.0;
            }
        }
        let scale = 1.0 / (d as f32).sqrt();
        let fa = attention_fused(&q, &k, &v, Some(&bias), Some(&mask), None, scale).unwrap();
        assert!(!fa.out.has_non_finite() && !fa.lse.has_non_finite());
        // Rows with a valid key match the reference with the penalty
        // materialized into the bias (masked keys underflow to exactly 0).
        let penalty = mask.map(|m| if m == 0.0 { MASK_NEG } else { 0.0 });
        let naive = naive_attention(&q, &k, &v, Some(&bias.add(&penalty).unwrap()), scale).unwrap();
        let (fused_rows, naive_rows) = (&fa.out.data()[d..], &naive.data()[d..]);
        for (a, b) in fused_rows.iter().zip(naive_rows) {
            assert!((a - b).abs() <= 1e-4 || (a - b).abs() <= 1e-4 * a.abs().max(b.abs()));
        }
        let dy = Tensor::randn(fa.out.dims(), 26);
        let g = attention_fused_backward(
            &q, &k, &v, Some(&bias), Some(&mask), None, fa.pre_gate(), &fa.lse, scale, &dy,
        )
        .unwrap();
        for t in [&g.dq, &g.dk, &g.dv, g.dbias.as_ref().unwrap()] {
            assert!(!t.has_non_finite());
        }
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
        // The backward checks its saved forward outputs and cotangent too.
        let fa = attention_fused(&q, &k3, &v, None, None, None, 1.0).unwrap();
        let bwd = |att: &Tensor, lse: &Tensor, dy: &Tensor| {
            attention_fused_backward(&q, &k3, &v, None, None, None, att, lse, 1.0, dy)
        };
        assert!(bwd(&fa.out, &fa.lse, &fa.out).is_ok());
        assert!(bwd(&fa.out, &fa.lse, &Tensor::zeros(&[1, 3, 8])).is_err());
        assert!(bwd(&Tensor::zeros(&[4, 8]), &fa.lse, &fa.out).is_err());
        assert!(bwd(&fa.out, &Tensor::zeros(&[1, 5]), &fa.out).is_err());
    }
}
