//! Tape operations and their vector-Jacobian products.

use crate::checkpoint::CheckpointFn;
use crate::graph::{accumulate, Graph, HeadVars, Var};
use crate::Result;
use sf_tensor::ops::attention::attention_heads_backward;
use sf_tensor::ops::layernorm::{fused_backward, LayerNormStats};
use sf_tensor::ops::matmul::linear_weight_grad;
use sf_tensor::ops::vexp::vexp;
use sf_tensor::{Tensor, MAX_RANK};
use std::rc::Rc;

/// Rows per block in the two-step LN backward reduction (the Triton kernel's
/// launch dimension; any positive value is numerically identical).
const LN_BACKWARD_BLOCK_ROWS: usize = 64;

/// What a tape node computed, with the context its VJP needs. Variants
/// whose context holds tensors of their own (attention, dropout) keep it
/// behind a `Box`, so the common nodes stay small: every [`crate::Graph`]
/// node pays for the largest variant.
pub(crate) enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Neg(Var),
    Scale(Var, f32),
    AddScalar(Var),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    /// `sigmoid(gate) ⊙ x`, `x` broadcast to `gate`'s shape.
    Gate {
        gate: Var,
        x: Var,
    },
    Gelu(Var),
    Square(Var),
    Exp(Var),
    Ln(Var),
    Sqrt(Var),
    Matmul(Var, Var),
    /// A linear layer `x·Wᵀ + b` (`sf_tensor::ops::matmul::linear`) on the
    /// weight in its stored `[out, in]` layout: one node instead of a
    /// weight transpose, a GEMM and a broadcast add.
    Linear {
        x: Var,
        w: Var,
        b: Option<Var>,
    },
    Softmax(Var),
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        stats: LayerNormStats,
    },
    /// `aᵀ @ b` on `a` as stored (`sf_tensor::ops::matmul::matmul_at`).
    MatmulAt(Var, Var),
    /// Fully fused attention (`sf_tensor::ops::attention::attention_heads`).
    FusedAttention(Box<AttentionNode>),
    Reshape(Var),
    Permute {
        x: Var,
        /// The permutation, in its first `rank` entries.
        perm: [u8; MAX_RANK],
    },
    SliceAxis {
        x: Var,
        axis: usize,
        start: usize,
    },
    Concat {
        xs: Vec<Var>,
        axis: usize,
    },
    BroadcastTo(Var),
    SumAxis {
        x: Var,
        axis: usize,
    },
    MeanAxis {
        x: Var,
        axis: usize,
    },
    SumAll(Var),
    MeanAll(Var),
    Dropout {
        x: Var,
        mask: Box<Tensor>,
    },
    Checkpoint {
        inputs: Vec<Var>,
        f: Rc<CheckpointFn>,
    },
}

/// A fully fused attention node: scale + pair bias + mask + whole-row
/// softmax + sigmoid gate in one kernel that reads Q, K, V and the gate as
/// head views (a `Var` and an attended axis each) and writes merged heads.
/// Saves only the per-row softmax log-sum-exp (`lse`) and — when gated —
/// the pre-gate output, never the `[S_q, S_k]` probability tensor; the
/// backward recomputes each batch element's probability block from `lse`
/// in a single pass and accumulates each operand's gradient into its
/// `Var`'s slot. The mask is non-differentiable.
pub(crate) struct AttentionNode {
    pub views: HeadVars,
    pub bias: Option<Var>,
    pub mask: Option<Var>,
    pub scale: f32,
    /// Pre-gate attention output (`None` when ungated: the node value
    /// already is the pre-gate output).
    pub att: Option<Tensor>,
    /// Per-row log-sum-exp softmax statistics.
    pub lse: Tensor,
}

impl Graph {
    /// Applies node `i`'s vector-Jacobian product given upstream cotangent
    /// `dy`, accumulating into the input slots.
    pub(crate) fn vjp(&self, i: usize, dy: &Tensor, grads: &mut [Option<Tensor>]) -> Result<()> {
        match &self.nodes[i].op {
            Op::Leaf => Ok(()),
            Op::Add(a, b) => {
                let da = sum_to(dy.clone(), self.nodes[a.0].value.dims())?;
                let db = sum_to(dy.clone(), self.nodes[b.0].value.dims())?;
                accumulate_each(grads, [(a.0, da), (b.0, db)])
            }
            Op::Sub(a, b) => {
                let da = sum_to(dy.clone(), self.nodes[a.0].value.dims())?;
                let db = sum_to(dy.neg(), self.nodes[b.0].value.dims())?;
                accumulate_each(grads, [(a.0, da), (b.0, db)])
            }
            Op::Mul(a, b) => {
                let av = &self.nodes[a.0].value;
                let bv = &self.nodes[b.0].value;
                let da = sum_to(dy.mul(bv)?, av.dims())?;
                let db = sum_to(dy.mul(av)?, bv.dims())?;
                accumulate_each(grads, [(a.0, da), (b.0, db)])
            }
            Op::Div(a, b) => {
                let av = &self.nodes[a.0].value;
                let bv = &self.nodes[b.0].value;
                let da = sum_to(dy.div(bv)?, av.dims())?;
                let db = sum_to(dy.mul(av)?.div(&bv.square())?.neg(), bv.dims())?;
                accumulate_each(grads, [(a.0, da), (b.0, db)])
            }
            Op::Neg(x) => accumulate(grads, x.0, dy.neg()),
            Op::Scale(x, s) => accumulate(grads, x.0, dy.mul_scalar(*s)),
            Op::AddScalar(x) => accumulate(grads, x.0, dy.clone()),
            Op::Relu(x) => {
                let xv = &self.nodes[x.0].value;
                let gate = xv.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                accumulate(grads, x.0, dy.mul(&gate)?)
            }
            Op::Sigmoid(x) => {
                // d/dx sigmoid = y (1 - y); node value is y.
                let y = &self.nodes[i].value;
                let d = y.mul(&y.map(|v| 1.0 - v))?;
                accumulate(grads, x.0, dy.mul(&d)?)
            }
            Op::Gate { gate, x } => {
                // The `Mul` and `Sigmoid` VJPs of `mul(sigmoid(gate), x)` in
                // one pass over the recomputed sigmoid `y`, each element
                // rounded as they round it: `dx = dy·y` (then summed over
                // the broadcast), `dgate = (0 + dy·x)·(y·(1 − y))`.
                let gv = &self.nodes[gate.0].value;
                let xv = &self.nodes[x.0].value;
                let mut dgate = dy.mul(xv)?;
                let mut dx = dy.clone();
                let outs = dgate.data_mut().iter_mut().zip(dx.data_mut());
                for ((dg, dxe), &g) in outs.zip(gv.data()) {
                    let y = 1.0 / (1.0 + vexp(-g));
                    *dxe *= y;
                    *dg = (0.0 + *dg) * (y * (1.0 - y));
                }
                accumulate_each(grads, [(gate.0, dgate), (x.0, sum_to(dx, xv.dims())?)])
            }
            Op::Tanh(x) => {
                let y = &self.nodes[i].value;
                let d = y.map(|v| 1.0 - v * v);
                accumulate(grads, x.0, dy.mul(&d)?)
            }
            Op::Gelu(x) => {
                let d = self.nodes[x.0].value.gelu_derivative();
                accumulate(grads, x.0, dy.mul(&d)?)
            }
            Op::Square(x) => {
                let d = self.nodes[x.0].value.mul_scalar(2.0);
                accumulate(grads, x.0, dy.mul(&d)?)
            }
            Op::Exp(x) => {
                let y = &self.nodes[i].value;
                accumulate(grads, x.0, dy.mul(y)?)
            }
            Op::Ln(x) => {
                let inv = self.nodes[x.0].value.map(|v| 1.0 / v);
                accumulate(grads, x.0, dy.mul(&inv)?)
            }
            Op::Sqrt(x) => {
                // d/dx sqrt = 0.5 / y.
                let y = &self.nodes[i].value;
                let d = y.map(|v| if v > 0.0 { 0.5 / v } else { 0.0 });
                accumulate(grads, x.0, dy.mul(&d)?)
            }
            Op::Matmul(a, b) => {
                let av = &self.nodes[a.0].value;
                let bv = &self.nodes[b.0].value;
                let da = sum_to(dy.matmul_bt(bv)?, av.dims())?;
                let db = sum_batch(av.matmul_at(dy)?, bv.dims())?;
                accumulate_each(grads, [(a.0, da), (b.0, db)])
            }
            Op::MatmulAt(a, b) => {
                let av = &self.nodes[a.0].value;
                let bv = &self.nodes[b.0].value;
                let da = sum_to(bv.matmul_bt(dy)?, av.dims())?;
                let db = sum_batch(av.matmul(dy)?, bv.dims())?;
                accumulate_each(grads, [(a.0, da), (b.0, db)])
            }
            Op::Linear { x, w, b } => {
                let xv = &self.nodes[x.0].value;
                let wv = &self.nodes[w.0].value;
                let dx = dy.matmul(wv)?;
                let dw = linear_weight_grad(dy, xv)?;
                let db = match b {
                    Some(b) => Some((b.0, dy.reduce_to(self.nodes[b.0].value.dims())?)),
                    None => None,
                };
                accumulate_each(grads, [(x.0, dx), (w.0, dw)].into_iter().chain(db))
            }
            Op::Softmax(x) => {
                let y = &self.nodes[i].value;
                accumulate(grads, x.0, softmax_backward(y, dy)?)
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                stats,
            } => {
                let xv = &self.nodes[x.0].value;
                let gv = &self.nodes[gamma.0].value;
                let (dx, dg, db) = fused_backward(dy, xv, gv, stats, LN_BACKWARD_BLOCK_ROWS)?;
                accumulate_each(grads, [(x.0, dx), (gamma.0, dg), (beta.0, db)])
            }
            Op::FusedAttention(node) => {
                let AttentionNode {
                    views,
                    bias,
                    mask,
                    scale,
                    att,
                    lse,
                } = &**node;
                let att_ref = att.as_ref().unwrap_or(&self.nodes[i].value);
                let g = attention_heads_backward(
                    &self.head_views(views),
                    bias.map(|b| &self.nodes[b.0].value),
                    mask.map(|m| &self.nodes[m.0].value),
                    att_ref,
                    lse,
                    *scale,
                    dy,
                )?;
                // The bias, then the operands from last to first: a `Var`
                // passed as several operands sums their gradients in the
                // order the split/merge chain of one-operand nodes would.
                let operands = [
                    views.gate.zip(g.dgate),
                    Some((views.v, g.dv)),
                    Some((views.k, g.dk)),
                    Some((views.q, g.dq)),
                ];
                let deltas = operands.into_iter().flatten().map(|(h, dh)| (h.src.0, dh));
                let dbias = bias.zip(g.dbias).map(|(b, db)| (b.0, db));
                accumulate_each(grads, dbias.into_iter().chain(deltas))
            }
            Op::Reshape(x) => accumulate(grads, x.0, dy.reshape(self.nodes[x.0].value.dims())?),
            Op::Permute { x, perm } => {
                let rank = dy.rank();
                let mut inv = [0usize; MAX_RANK];
                for (o, &p) in perm[..rank].iter().enumerate() {
                    inv[usize::from(p)] = o;
                }
                accumulate(grads, x.0, dy.permute(&inv[..rank])?)
            }
            Op::SliceAxis { x, axis, start } => {
                let xv = &self.nodes[x.0].value;
                slice_accumulate(grads, x.0, xv.dims(), *axis, *start, dy);
                Ok(())
            }
            Op::Concat { xs, axis } => {
                let mut offset = 0usize;
                for &x in xs {
                    let len = self.nodes[x.0].value.dims()[*axis];
                    accumulate(grads, x.0, dy.slice_axis(*axis, offset, offset + len)?)?;
                    offset += len;
                }
                Ok(())
            }
            Op::BroadcastTo(x) => accumulate(
                grads,
                x.0,
                sum_to(dy.clone(), self.nodes[x.0].value.dims())?,
            ),
            Op::SumAxis { x, axis } => {
                let dims = self.nodes[x.0].value.dims();
                let expanded = dy.unsqueeze(*axis)?.broadcast_to(dims)?;
                accumulate(grads, x.0, expanded)
            }
            Op::MeanAxis { x, axis } => {
                let dims = self.nodes[x.0].value.dims();
                let n = dims[*axis].max(1) as f32;
                let expanded = dy.unsqueeze(*axis)?.broadcast_to(dims)?;
                accumulate(grads, x.0, expanded.mul_scalar(1.0 / n))
            }
            Op::SumAll(x) => {
                let dims = self.nodes[x.0].value.dims();
                accumulate(grads, x.0, Tensor::full(dims, dy.item()))
            }
            Op::MeanAll(x) => {
                let dims = self.nodes[x.0].value.dims();
                let n: usize = dims.iter().product::<usize>().max(1);
                accumulate(grads, x.0, Tensor::full(dims, dy.item() / n as f32))
            }
            Op::Dropout { x, mask } => accumulate(grads, x.0, dy.mul(mask)?),
            Op::Checkpoint { inputs, f } => {
                let input_values: Vec<Tensor> = inputs
                    .iter()
                    .map(|&v| self.nodes[v.0].value.clone())
                    .collect();
                let input_grads =
                    crate::checkpoint::checkpoint_backward(f, &input_values, dy.clone())?;
                let deltas = inputs.iter().zip(input_grads);
                accumulate_each(grads, deltas.filter_map(|(v, g)| g.map(|g| (v.0, g))))
            }
        }
    }
}

/// [`accumulate`]s each `(slot, delta)` in turn.
fn accumulate_each(
    grads: &mut [Option<Tensor>],
    deltas: impl IntoIterator<Item = (usize, Tensor)>,
) -> Result<()> {
    for (idx, delta) in deltas {
        accumulate(grads, idx, delta)?;
    }
    Ok(())
}

/// `t.reduce_to(dims)`, handing `t` itself on when no axis is reduced. The
/// in-place `0.0 + x` is the one-term sum `reduce_to` computes, so the bits
/// match it exactly (-0.0 becomes +0.0).
fn sum_to(mut t: Tensor, dims: &[usize]) -> Result<Tensor> {
    if t.dims() != dims {
        return Ok(t.reduce_to(dims)?);
    }
    t.map_inplace(|x| 0.0 + x);
    Ok(t)
}

/// A matmul operand's gradient summed over the batch dims it was
/// broadcast along (an unbatched operand against a batched one); handed
/// on untouched otherwise.
fn sum_batch(t: Tensor, dims: &[usize]) -> Result<Tensor> {
    if t.dims() == dims {
        return Ok(t);
    }
    t.reduce_to(dims).map_err(Into::into)
}

/// `dx = y * (dy - sum(dy * y, last_axis, keepdim))` for `y = softmax(x)`.
fn softmax_backward(y: &Tensor, dy: &Tensor) -> Result<Tensor> {
    let mut dx = dy.clone();
    softmax_backward_inplace(y, &mut dx)?;
    Ok(dx)
}

/// In-place softmax backward: on entry `dx` holds the upstream gradient
/// `dy`; on exit it holds `dx = y * (dy - Σ_last(dy * y))`. Row-wise with
/// no temporary allocations (the seed version materialized four
/// intermediate tensors per call), parallel over rows.
fn softmax_backward_inplace(y: &Tensor, dx: &mut Tensor) -> Result<()> {
    if y.dims() != dx.dims() {
        return Err(sf_tensor::TensorError::ShapeMismatch {
            op: "softmax backward",
            lhs: y.dims().to_vec(),
            rhs: dx.dims().to_vec(),
        }
        .into());
    }
    let inner = *y.dims().last().unwrap_or(&1);
    if inner == 0 {
        return Ok(());
    }
    let rows = y.len() / inner;
    let yd = y.data();
    let ptr = sf_tensor::pool::SendPtr::new(dx.data_mut());
    sf_tensor::pool::parallel_for(rows, inner * 4, |range| {
        for r in range {
            // SAFETY: row ranges from parallel_for are disjoint.
            let drow = unsafe { ptr.slice_mut(r * inner, inner) };
            let yrow = &yd[r * inner..(r + 1) * inner];
            let mut dot = 0.0f32;
            for (d, &yv) in drow.iter().zip(yrow.iter()) {
                dot += d * yv;
            }
            for (d, &yv) in drow.iter_mut().zip(yrow.iter()) {
                *d = yv * (*d - dot);
            }
        }
    });
    Ok(())
}

/// Adjoint of `slice_axis`: adds `dy` in place into its window
/// `[start, start + len)` along `axis` of `grads[idx]`, a gradient of shape
/// `full_dims`, filling the slot with zeros on first touch.
///
/// This is the old scatter (a zero tensor of `full_dims` holding `dy` in its
/// window, added whole into the slot) without the full-size temporary or
/// the full-size add. The sums are the same, so the bits are the same, up
/// to the sign of a zero: the old whole-tensor add turned a `-0.0` outside
/// the window into `+0.0`, and the old first touch kept a `-0.0` inside it.
fn slice_accumulate(
    grads: &mut [Option<Tensor>],
    idx: usize,
    full_dims: &[usize],
    axis: usize,
    start: usize,
    dy: &Tensor,
) {
    let g = grads[idx].get_or_insert_with(|| Tensor::zeros(full_dims));
    assert_eq!(
        g.dims(),
        full_dims,
        "a gradient slot holds its node's shape"
    );
    let len = dy.dims()[axis];
    let full_axis = full_dims[axis];
    let inner: usize = full_dims[axis + 1..].iter().product();
    let (window, stride) = (len * inner, full_axis * inner);
    if window == 0 {
        return;
    }
    let offset = start * inner;
    for (dst, src) in g
        .data_mut()
        .chunks_exact_mut(stride)
        .zip(dy.data().chunks_exact(window))
    {
        for (a, &b) in dst[offset..offset + window].iter_mut().zip(src) {
            *a += b;
        }
    }
}
