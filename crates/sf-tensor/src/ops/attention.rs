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
//! - [`attention_heads`]: a **whole-row** kernel. At AlphaFold head widths
//!   (d = 4–32, s_k ≤ a few hundred) a query's complete logits row fits in
//!   L1, so there is no key tiling and no online-softmax rescaling. Per
//!   batch element the kernel forms the `[s_q, s_k]` logits block with the
//!   GEMM engine's register-tiled micro-kernel (4 query rows per packed Kᵀ
//!   panel), folds scale, the optional pair bias and the optional mask into
//!   the whole block (one contiguous pass when the side input is dense, a
//!   strided walk when it broadcasts), takes each row's 8-lane max,
//!   subtracts it, runs one vectorized exp over the whole block and sums
//!   each row in a fixed striped order, then `P·V`, the normalization and
//!   the per-row log-sum-exp the backward needs. Only that block lives in
//!   thread-local scratch; no `[.., s_q, s_k]` tensor is allocated. The
//!   optional sigmoid gate is one pass over the whole output after the
//!   batch loop.
//! - [`attention_heads_backward`]: one pass over the whole tensor forms
//!   the gate's `datt` (in scratch) and `dgate`; then the same
//!   per-batch-element structure — recompute `p` (the block's exp in one
//!   call) and `dP`, form `dS`, then `dV`, `dK` and `dQ` — as a chain of the
//!   GEMM engine's micro-kernel calls on L1-resident blocks. Each gradient
//!   accumulates in exactly the order of the `matmul_bt` / `matmul_at` /
//!   `matmul` chain it replaces, so it is bit-identical to that chain
//!   (pinned by `tests/attention_backward_bits.rs`).
//!
//! Whole-block passes do each element's arithmetic and every row reduction
//! exactly as a per-row loop would, so the forward's outputs keep the bits
//! of the per-row recipe (pinned by `tests/attention_forward_bits.rs`);
//! they only spare the short rows of AlphaFold's small heads their scalar
//! tails.
//!
//! Both read Q, K, V and the gate as [`HeadView`]s: the `heads` column
//! blocks of a `[..., h·d]` tensor with the attended axis and the batch axes
//! given by strides, so a `[B1, B2, h·d]` projection is attended without
//! copying a head out, the output is written with its heads merged
//! (`[B1, B2, h·d]`), and each operand's gradient is a fresh tensor shaped
//! like it. The gate has the queries' dims and attended axis, so it lines up
//! with the output element for element. [`attention_fused`] /
//! [`attention_fused_backward`] are the contiguous `[batch..., s, d]`
//! one-head case of the same kernels.
//!
//! [`naive_attention`] materializes the full logits matrix. It is the test
//! oracle (and the memory-hungry path the paper starts from); the fused
//! kernel matches it to within f32 tolerance (tested, including property
//! tests).

use crate::ops::matmul::{gemm_serial, matmul_bt, pack_len, Dense, Strided};
use crate::ops::softmax::softmax;
use crate::ops::vexp::{striped_max, vexp, vexp_shift_rows, vexp_shift_rows_sum};
use crate::pool::{parallel_for, SendPtr};
use crate::scratch;
use crate::shape::{row_major_strides, Shape, MAX_RANK};
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

fn mismatch(op: &'static str, lhs: &[usize], rhs: &[usize]) -> TensorError {
    TensorError::ShapeMismatch {
        op,
        lhs: lhs.to_vec(),
        rhs: rhs.to_vec(),
    }
}

fn check_dims(op: &'static str, t: &Tensor, dims: &[usize]) -> Result<()> {
    if t.dims() == dims {
        Ok(())
    } else {
        Err(mismatch(op, t.dims(), dims))
    }
}

/// One attention operand read in place: `src` is `[..., heads·d]`, its last
/// axis `heads` adjacent `d`-wide column blocks. The leading axis `axis` is
/// the attended one (the query or key positions); `None` reads one
/// position, as a mean-pooled query does. Every other leading axis is a
/// batch axis and the head index runs fastest after them, so the view reads
/// the logical `[batch..., heads, s, d]` tensor a reshape and a permute
/// would copy out.
///
/// - Row, column and triangle attention read Q, K, V and the gate from
///   `[B1, B2, h·d]` projections: `axis: Some(1)`.
/// - Keys and values along the first axis (global column and template
///   pointwise attention, IPA): `axis: Some(0)`.
/// - A contiguous `[batch..., s, d]` tensor is the one-head view that
///   [`HeadViews::whole`] builds.
///
/// The source is generic so the autograd tape can name the same view by
/// its value's handle (`HeadView<Var>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadView<S> {
    /// The tensor the heads are read from, `[..., heads·d]`.
    pub src: S,
    /// The attended leading axis; `None` for a single position.
    pub axis: Option<usize>,
}

/// The operands of one attention call as head views, with the head count
/// and head width they share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadViews<S> {
    /// Queries.
    pub q: HeadView<S>,
    /// Keys.
    pub k: HeadView<S>,
    /// Values (as many positions as the keys).
    pub v: HeadView<S>,
    /// Optional sigmoid gate: a source with the queries' dims, read along
    /// the queries' axis.
    pub gate: Option<HeadView<S>>,
    /// Number of heads each view reads.
    pub heads: usize,
    /// Channels per head.
    pub d: usize,
}

impl<S: Copy> HeadViews<S> {
    /// The views in kernel order: q, k, v, then the gate when present.
    pub fn listed(&self) -> impl Iterator<Item = HeadView<S>> {
        [Some(self.q), Some(self.k), Some(self.v), self.gate]
            .into_iter()
            .flatten()
    }

    /// The same views with each source replaced by `f(source)`.
    pub fn map<T>(&self, f: impl Fn(S) -> T) -> HeadViews<T> {
        let at = |h: HeadView<S>| HeadView {
            src: f(h.src),
            axis: h.axis,
        };
        HeadViews {
            q: at(self.q),
            k: at(self.k),
            v: at(self.v),
            gate: self.gate.map(at),
            heads: self.heads,
            d: self.d,
        }
    }
}

impl<'a> HeadViews<&'a Tensor> {
    /// Contiguous `[batch..., s, d]` operands, each read whole as one head
    /// attended along its second-to-last axis: the layout of
    /// [`attention_fused`]. `k`, `v` and `gate` must be exactly `d` wide
    /// (and the gate has `q`'s dims, checked by the kernels).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if an operand has rank < 2 or
    /// a last axis other than `q`'s.
    pub fn whole(
        q: &'a Tensor,
        k: &'a Tensor,
        v: &'a Tensor,
        gate: Option<&'a Tensor>,
    ) -> Result<Self> {
        let d = q.dims().last().copied().unwrap_or(0);
        let view = |t: &'a Tensor| {
            if t.rank() < 2 || t.dims()[t.rank() - 1] != d {
                return Err(mismatch("attention qkv", q.dims(), t.dims()));
            }
            Ok(HeadView {
                src: t,
                axis: Some(t.rank() - 2),
            })
        };
        let gate = gate.map(view).transpose()?;
        Ok(HeadViews {
            q: view(q)?,
            k: view(k)?,
            v: view(v)?,
            gate,
            heads: 1,
            d,
        })
    }
}

/// Offset of element `b` of the row-major grid `dims` (the last axis
/// fastest) whose axes lie `strides` apart.
fn element_offset(mut b: usize, dims: &[usize], strides: &[usize]) -> usize {
    let mut off = 0;
    for (&len, &stride) in dims.iter().zip(strides).rev() {
        off += b % len * stride;
        b /= len;
    }
    off
}

/// Where a head view's batch elements sit in their `[..., heads·d]` buffer:
/// element `b`'s `[s, d]` block starts at [`Placement::base`]`(b)`, its
/// rows `ld` apart.
struct Placement {
    /// The leading dims other than the attended one, then the heads: the
    /// grid of `[s, d]` blocks.
    grid: Shape,
    /// Each grid axis's stride in the buffer.
    strides: [usize; MAX_RANK],
    ld: usize,
    s: usize,
}

impl Placement {
    /// `None` unless the last axis of `dims` is exactly `heads·d` wide and
    /// `axis` is a leading axis of `dims`.
    fn new(dims: &[usize], axis: Option<usize>, heads: usize, d: usize) -> Option<Self> {
        let (&width, lead) = dims.split_last()?;
        if width != heads * d || axis.is_some_and(|a| a >= lead.len()) {
            return None;
        }
        let all = row_major_strides(dims);
        let (mut grid, mut strides) = (Shape::default(), [0; MAX_RANK]);
        for i in (0..lead.len()).filter(|&i| Some(i) != axis) {
            strides[grid.rank()] = all[i];
            grid.push(lead[i]);
        }
        strides[grid.rank()] = d;
        grid.push(heads);
        let (s, ld) = axis.map_or((1, width), |a| (lead[a], all[a]));
        Some(Placement {
            grid,
            strides,
            ld,
            s,
        })
    }

    /// Start of element `b`'s first row.
    fn base(&self, b: usize) -> usize {
        element_offset(b, self.grid.dims(), &self.strides)
    }

    /// Floats from the start of an element's first row to the end of its
    /// last (`d` columns).
    fn extent(&self, d: usize) -> usize {
        if self.s == 0 {
            0
        } else {
            (self.s - 1) * self.ld + d
        }
    }

    /// The block of `data` starting at `base` (an element's
    /// [`Placement::base`]), from its first row to the end of its last.
    fn block<'a>(&self, data: &'a [f32], base: usize, d: usize) -> &'a [f32] {
        let start = base.min(data.len());
        &data[start..start + self.extent(d)]
    }

    /// Start of row `i` of the element at `base`.
    fn row(&self, base: usize, i: usize) -> usize {
        base + i * self.ld
    }

    /// The rows of the element at `base` in the buffer behind `ptr`, as a
    /// GEMM output that stores `sum · scale` (when given).
    ///
    /// # Safety
    ///
    /// The buffer must hold this placement's layout and outlive the result,
    /// and no other thread may access the element's `d` columns of its rows
    /// meanwhile.
    unsafe fn out_rows<'a>(
        &self,
        ptr: &SendPtr,
        base: usize,
        d: usize,
        scale: Option<f32>,
    ) -> Strided<'a> {
        Strided::new(ptr.at(base), self.extent(d), self.ld, scale)
    }

    /// Row `i` of the element at `base` in the buffer behind `ptr`.
    ///
    /// # Safety
    ///
    /// As for [`Placement::out_rows`], and the row must be written.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row_mut<'a>(
        &self,
        ptr: &'a SendPtr,
        base: usize,
        i: usize,
        d: usize,
    ) -> &'a mut [f32] {
        ptr.slice_mut(self.row(base, i), d)
    }
}

/// A [`HeadViews`] call checked and resolved: where each operand's blocks
/// are. The output has the queries' shape and layout, so its heads come out
/// merged in place, and each gradient has its operand's. The gate has the
/// queries' dims and attended axis, so it lines up with the output element
/// for element and its epilogue runs as one pass over the whole tensor.
struct Geometry {
    q: Placement,
    k: Placement,
    v: Placement,
    out_dims: Shape,
    heads: usize,
    d: usize,
}

impl Geometry {
    fn new(views: &HeadViews<&Tensor>) -> Result<Self> {
        let (heads, d) = (views.heads, views.d);
        let place = |view: &HeadView<&Tensor>| {
            Placement::new(view.src.dims(), view.axis, heads, d)
                .filter(|_| heads > 0)
                .ok_or_else(|| mismatch("attention head view", view.src.dims(), &[heads, d]))
        };
        let (q, k, v) = (place(&views.q)?, place(&views.k)?, place(&views.v)?);
        let batched_like_q = |p: &Placement| p.grid == q.grid;
        if !batched_like_q(&k) || !batched_like_q(&v) || v.s != k.s {
            return Err(mismatch(
                "attention qkv",
                views.q.src.dims(),
                views.v.src.dims(),
            ));
        }
        if let Some(g) = views.gate {
            if g.src.dims() != views.q.src.dims() || g.axis != views.q.axis {
                return Err(mismatch("attention gate", views.q.src.dims(), g.src.dims()));
            }
        }
        Ok(Geometry {
            q,
            k,
            v,
            out_dims: *views.q.src.shape(),
            heads,
            d,
        })
    }

    /// Number of `(batch..., head)` elements.
    fn batch(&self) -> usize {
        self.q.grid.num_elements()
    }

    /// The logical batch dims (the batch axes, then the heads; one head
    /// adds no axis) followed by `tail`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankTooHigh`] if they exceed [`MAX_RANK`].
    fn batch_dims_and(&self, tail: &[usize]) -> Result<Shape> {
        let mut dims = self.q.grid;
        if self.heads == 1 {
            dims.remove(dims.rank() - 1);
        }
        for &t in tail {
            dims.try_push(t)?;
        }
        Ok(dims)
    }
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
    let geo = Geometry::new(&HeadViews::whole(q, k, v, None)?)?;
    let mut logits = matmul_bt(q, k)?.mul_scalar(scale);
    if let Some(b) = bias {
        logits_rows(b, &geo)?;
        logits = logits.add(b)?;
    }
    let probs = softmax(&logits)?;
    probs.matmul(v)
}

/// A side input (pair bias or mask) resolved against the logits
/// `[batch..., heads, s_q, s_k]`: its stride along each logits axis (0 on
/// broadcast axes), so a kernel reads an element's logits block as one
/// slice, or one row slice at a time.
struct LogitsRows<'a> {
    data: &'a [f32],
    /// The logits dims the side input broadcasts to.
    dims: Shape,
    strides: [usize; MAX_RANK],
    row_stride: usize,
    col_stride: usize,
}

impl LogitsRows<'_> {
    /// `block[i, j] = f(block[i, j], side[b, i, j])` over batch element
    /// `b`'s whole `[s_q, s_k]` logits block: one contiguous pass when the
    /// side input's rows are dense and adjacent (the `[h, s_q, s_k]` pair
    /// bias, IPA's full-shape bias), else a strided walk that serves every
    /// broadcast.
    #[inline(always)]
    fn zip_rows(&self, b: usize, block: &mut [f32], s_k: usize, f: impl Fn(f32, f32) -> f32) {
        let base = element_offset(b, &self.dims.dims()[..self.dims.rank() - 2], &self.strides);
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

/// Resolves `t` against the logits. With one head the logits carry no head
/// axis, but a side input may still spell out its unit head axis (IPA's
/// `[h, s, s]` bias at `h = 1`).
fn logits_rows<'a>(t: &'a Tensor, geo: &Geometry) -> Result<LogitsRows<'a>> {
    let mut dims = geo.batch_dims_and(&[geo.q.s, geo.k.s])?;
    if geo.heads == 1 && !t.shape().broadcastable_to(&dims) {
        dims.try_insert(dims.rank() - 2, 1)?;
    }
    if !t.shape().broadcastable_to(&dims) {
        return Err(mismatch("attention bias", t.dims(), dims.dims()));
    }
    let strides = broadcast_strides(t.shape(), &dims);
    let rank = dims.rank();
    Ok(LogitsRows {
        data: t.data(),
        dims,
        strides,
        row_stride: strides[rank - 2],
        col_stride: strides[rank - 1],
    })
}

/// Folds scale, pair bias and mask penalty into batch element `b`'s raw
/// `q·kᵀ` logits block (`[s_q, s_k]`), in place: `l·scale + bias
/// (+ MASK_NEG where the mask is 0)`, rounded in that order by the forward
/// and the backward recompute alike.
fn fold_logits(
    block: &mut [f32],
    s_k: usize,
    scale: f32,
    bias: Option<&LogitsRows>,
    mask: Option<&LogitsRows>,
    b: usize,
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
        mask.zip_rows(
            b,
            block,
            s_k,
            |l, m| if m == 0.0 { l + MASK_NEG } else { l },
        );
    }
}

/// Result of [`attention_heads`]: the (possibly gated) output plus the
/// per-row softmax statistics the fused backward needs.
#[derive(Debug, Clone)]
pub struct FusedAttention {
    /// Attention output with the heads merged, gated when a gate was
    /// supplied: the queries' leading dims and `heads·d` columns
    /// (`[..., S_q, D]` for [`attention_fused`]).
    pub out: Tensor,
    /// Pre-gate attention output `P @ V`, saved only when a gate was
    /// supplied (otherwise it equals `out`).
    pub att: Option<Tensor>,
    /// Per-query-row log-sum-exp of the scaled/biased/masked logits,
    /// `[batch..., heads, S_q]` — enough to recompute any probability row
    /// in the backward pass without storing the `[S_q, S_k]` probability
    /// tensor.
    pub lse: Tensor,
}

impl FusedAttention {
    /// The pre-gate attention output (`out` itself when ungated).
    pub fn pre_gate(&self) -> &Tensor {
        self.att.as_ref().unwrap_or(&self.out)
    }
}

/// Gradients returned by [`attention_heads_backward`], each shaped like its
/// operand.
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

/// The fully fused attention head on contiguous `[batch..., S, D]`
/// operands: [`attention_heads`] on the one-head views of
/// [`HeadViews::whole`].
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
    attention_heads(&HeadViews::whole(q, k, v, gate)?, bias, mask, scale)
}

/// The fully fused attention head — the CPU analogue of ScaleFold's custom
/// Triton kernel: `sigmoid(gate) ⊙ softmax(q @ k^T · scale + bias + maskneg) @ v`,
/// with every operand read in place through its [`HeadView`] and the heads
/// written merged, so no call site splits or merges heads with a copy.
///
/// One work item per `(batch..., head)` element (the paper's (batch, head)
/// parallelization). Each item forms its `[S_q, S_k]` logits block in
/// thread-local scratch with the GEMM micro-kernel (reading Q and K rows at
/// their view's stride), folds scale, pair bias and mask penalty into it,
/// takes each row's 8-lane max and subtracts it, runs one vectorized exp
/// over the whole block ([`vexp_shift_rows_sum`], which also sums each row
/// in its fixed striped order), multiplies by `V` and normalizes each
/// output row. Neither the logits nor the bias+mask sum is ever
/// materialized as a tensor. Per-row log-sum-exp statistics are saved for
/// the matching fused backward. After the batch loop the sigmoid gate runs
/// as one contiguous pass over the whole output. Rows never split across
/// threads and every reduction runs in a fixed order, so output is
/// bit-identical for every thread count and equal to the same call on
/// permuted copies.
///
/// - `bias`/`mask` (optional) must broadcast to the logits
///   `[batch..., heads, S_q, S_k]` (no head axis with one head); mask
///   entries equal to zero add [`MASK_NEG`] to the logit. The mask is a
///   non-differentiable input.
/// - The gate view's source must have the queries' dims and its attended
///   axis must be theirs.
///
/// # Errors
///
/// Returns an error if a view overruns its source's width, names a missing
/// axis, or disagrees with the others on batch dims or key count, if the
/// gate is laid out unlike the queries, or if a side input does not
/// broadcast to the logits.
pub fn attention_heads(
    views: &HeadViews<&Tensor>,
    bias: Option<&Tensor>,
    mask: Option<&Tensor>,
    scale: f32,
) -> Result<FusedAttention> {
    let _sp = sf_trace::span("kernel", "attention_fused");
    let geo = Geometry::new(views)?;
    let bias_rows = bias.map(|b| logits_rows(b, &geo)).transpose()?;
    let mask_rows = mask.map(|m| logits_rows(m, &geo)).transpose()?;
    let (batch, s_q, s_k, d) = (geo.batch(), geo.q.s, geo.k.s, geo.d);
    let mut att = Tensor::write_once_shaped(geo.out_dims, "attention_heads");
    let mut lse = Tensor::write_once_shaped(geo.batch_dims_and(&[s_q])?, "attention_heads lse");

    let att_ptr = SendPtr::uninit(att.uninit());
    let lse_ptr = SendPtr::uninit(lse.uninit());
    let (qd, kd, vd) = (views.q.src.data(), views.k.src.data(), views.v.src.data());
    // The output is laid out like the queries.
    let (qp, kp, vp) = (&geo.q, &geo.k, &geo.v);
    let block = s_q * s_k;
    let pack = pack_len(d.max(s_k));
    parallel_for(batch, block * (4 * d + 12), |range| {
        scratch::with_scratch(block + 2 * s_q + pack, |buf| {
            let (probs, rest) = buf.split_at_mut(block);
            let (maxes, rest) = rest.split_at_mut(s_q);
            let (sums, pack) = rest.split_at_mut(s_q);
            for b in range {
                let (qo, ko, vo) = (qp.base(b), kp.base(b), vp.base(b));
                // Logits block q·kᵀ, 4 query rows per packed Kᵀ panel.
                let (qm, km) = (qp.block(qd, qo, d), kp.block(kd, ko, d));
                let logits = Dense::new(probs, s_k);
                gemm_serial(qm, qp.ld, false, km, kp.ld, true, s_q, d, s_k, logits, pack);
                fold_logits(probs, s_k, scale, bias_rows.as_ref(), mask_rows.as_ref(), b);
                // Each row's max, then exp(l − max) over the whole block and
                // each row's striped sum.
                for (i, m) in maxes.iter_mut().enumerate() {
                    *m = striped_max(&probs[i * s_k..(i + 1) * s_k]);
                }
                vexp_shift_rows_sum(probs, maxes, sums);
                // Unnormalized P·V into the element's output rows, then one
                // 1/sum per row.
                // SAFETY: this item's own output element, not borrowed
                // elsewhere while the GEMM stores into it.
                let att_rows = unsafe { qp.out_rows(&att_ptr, qo, d, None) };
                gemm_serial(
                    probs,
                    s_k,
                    false,
                    vp.block(vd, vo, d),
                    vp.ld,
                    false,
                    s_q,
                    s_k,
                    d,
                    att_rows,
                    pack,
                );
                // SAFETY: each item owns its batch element's lse row.
                let lse_b = unsafe { lse_ptr.uninit_mut(b * s_q, s_q) };
                for (i, &sum) in sums.iter().enumerate() {
                    if sum > 0.0 {
                        // SAFETY: row `i` of this item's own output
                        // element, which the P·V GEMM assigned.
                        let orow = unsafe { qp.row_mut(&att_ptr, qo, i, d) };
                        let inv = 1.0 / sum;
                        for o in orow.iter_mut() {
                            *o *= inv;
                        }
                        lse_b[i].write(maxes[i] + sum.ln());
                    } else {
                        lse_b[i].write(f32::NEG_INFINITY);
                    }
                }
            }
        });
    });
    // SAFETY: every batch element's item assigned its lse row and its
    // `d` columns of each output row, and the elements tile both outputs.
    let (att, lse) = unsafe { (att.assume_written(), lse.assume_written()) };
    Ok(match views.gate {
        // The sigmoid-gate epilogue, one pass over the whole output: the
        // gate has the output's layout. The pre-gate output is kept for
        // the backward.
        Some(g) => FusedAttention {
            out: att.binary(g.src, "attention gate", |a, g| a / (1.0 + vexp(-g)))?,
            att: Some(att),
            lse,
        },
        None => FusedAttention {
            out: att,
            att: None,
            lse,
        },
    })
}

/// Fused backward for [`attention_fused`] on contiguous operands:
/// [`attention_heads_backward`] on the one-head views of
/// [`HeadViews::whole`].
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
    attention_heads_backward(
        &HeadViews::whole(q, k, v, gate)?,
        bias,
        mask,
        att,
        lse,
        scale,
        dy,
    )
}

/// Fused backward for [`attention_heads`]: softmax-backward is folded into
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
/// With a gate, one contiguous pass over the whole tensor first forms
/// `datt = dy ⊙ σ(g)` into scratch and `dgate = dy ⊙ att ⊙ σ(g)(1−σ(g))`;
/// ungated, `datt` is `dy`. Then one work item per batch element runs the
/// whole chain on L1-resident blocks with the GEMM micro-kernel, reading
/// every operand in place: `p = exp(fold(q·kᵀ) − lse)` (each row's `lse`
/// subtracted, then one exp over the whole block), `dP = datt·vᵀ`,
/// `dS = p ⊙ (dP − D)`,
/// `dV = pᵀ·datt`, `dK = dSᵀ·q·scale`, `dQ = dS·k·scale`. Every gradient
/// accumulates in the order of the equivalent `matmul_bt`/`matmul_at`/
/// `matmul` chain, so the bits match it exactly. `dS` is written to a
/// tensor only when a bias needs its gradient (then sum-reduced to the bias
/// shape, which is returned).
///
/// Each operand's gradient is a fresh tensor shaped like its view's source,
/// every element assigned once, so a caller passing one tensor as two
/// operands sums their gradients itself. `att` is the **pre-gate** forward
/// output ([`FusedAttention::pre_gate`]) and `dy` the gradient of the
/// (gated) output, both shaped like the queries.
///
/// # Errors
///
/// Returns an error on any shape incompatibility.
pub fn attention_heads_backward(
    views: &HeadViews<&Tensor>,
    bias: Option<&Tensor>,
    mask: Option<&Tensor>,
    att: &Tensor,
    lse: &Tensor,
    scale: f32,
    dy: &Tensor,
) -> Result<FusedAttentionGrads> {
    let _sp = sf_trace::span("kernel", "attention_fused_bwd");
    let geo = Geometry::new(views)?;
    let bias_rows = bias.map(|b| logits_rows(b, &geo)).transpose()?;
    let mask_rows = mask.map(|m| logits_rows(m, &geo)).transpose()?;
    let (batch, s_q, s_k, d) = (geo.batch(), geo.q.s, geo.k.s, geo.d);
    check_dims("attention att", att, geo.out_dims.dims())?;
    check_dims("attention dy", dy, geo.out_dims.dims())?;
    check_dims("attention lse", lse, geo.batch_dims_and(&[s_q])?.dims())?;
    let grad =
        |view: &HeadView<&Tensor>| Tensor::write_once_shaped(*view.src.shape(), "attention grad");
    let (mut dq, mut dk, mut dv) = (grad(&views.q), grad(&views.k), grad(&views.v));
    let mut dgate = views.gate.as_ref().map(grad);
    let mut ds = bias_rows
        .as_ref()
        .map(|rows| Tensor::write_once_shaped(rows.dims, "attention dS"));

    let ds_ptr = ds.as_mut().map(|t| SendPtr::uninit(t.uninit()));
    let (dq_ptr, dk_ptr, dv_ptr) = (
        SendPtr::uninit(dq.uninit()),
        SendPtr::uninit(dk.uninit()),
        SendPtr::uninit(dv.uninit()),
    );
    let (qd, kd, vd) = (views.q.src.data(), views.k.src.data(), views.v.src.data());
    let (dyd, attd, lsed) = (dy.data(), att.data(), lse.data());
    // `att`, `dy`, the gate and `datt` are laid out like the queries.
    let (qp, kp, vp) = (&geo.q, &geo.k, &geo.v);
    let block = s_q * s_k;
    let pack = pack_len(d.max(s_k).max(s_q));
    // Scratch: p block, dS block (unless it goes straight to `ds`), one
    // GEMM panel.
    let ds_scratch = if ds.is_some() { 0 } else { block };
    let datt_len = if dgate.is_some() { dyd.len() } else { 0 };
    scratch::with_scratch(datt_len, |datt_own| {
        // Gate epilogue backward, one pass over the whole tensor:
        // datt = dy ⊙ σ(g); dgate = dy ⊙ att ⊙ σ(g)(1−σ(g)). Ungated, datt
        // is dy.
        let datt: &[f32] = match (views.gate, dgate.as_mut()) {
            (Some(g), Some(dg)) => {
                let dg = dg.uninit();
                for ((da, dgo), ((&y, &g), &a)) in datt_own
                    .iter_mut()
                    .zip(dg)
                    .zip(dyd.iter().zip(g.src.data()).zip(attd))
                {
                    let sig = 1.0 / (1.0 + vexp(-g));
                    *da = y * sig;
                    dgo.write(y * a * sig * (1.0 - sig));
                }
                datt_own
            }
            _ => dyd,
        };
        parallel_for(batch, block * (10 * d + 16), |range| {
            scratch::with_scratch(block + ds_scratch + pack, |buf| {
                let (p, rest) = buf.split_at_mut(block);
                let (ds_own, pack) = rest.split_at_mut(ds_scratch);
                for b in range {
                    let (qo, ko, vo) = (qp.base(b), kp.base(b), vp.base(b));
                    let (qm, km, vm, dam) = (
                        qp.block(qd, qo, d),
                        kp.block(kd, ko, d),
                        vp.block(vd, vo, d),
                        qp.block(datt, qo, d),
                    );
                    // p = exp(fold(q·kᵀ) − lse), dP = datt·vᵀ,
                    // dS = p ⊙ (dP − D), with dP assigned to this element's
                    // dS block: the `dS` tensor's when a bias needs it,
                    // else scratch.
                    gemm_serial(
                        qm,
                        qp.ld,
                        false,
                        km,
                        kp.ld,
                        true,
                        s_q,
                        d,
                        s_k,
                        Dense::new(p, s_k),
                        pack,
                    );
                    let (ds_at, ds_off) = match ds_ptr.as_ref() {
                        Some(ptr) => (*ptr, b * block),
                        None => (SendPtr::new(ds_own), 0),
                    };
                    // SAFETY: each item owns its element's `[s_q, s_k]`
                    // block.
                    let dp = Dense::uninit(unsafe { ds_at.uninit_mut(ds_off, block) }, s_k);
                    gemm_serial(dam, qp.ld, false, vm, vp.ld, true, s_q, d, s_k, dp, pack);
                    // SAFETY: as above, and the GEMM assigned the whole
                    // block.
                    let ds_b = unsafe { ds_at.slice_mut(ds_off, block) };
                    fold_logits(p, s_k, scale, bias_rows.as_ref(), mask_rows.as_ref(), b);
                    vexp_shift_rows(p, &lsed[b * s_q..(b + 1) * s_q]);
                    for i in 0..s_q {
                        let row = qp.row(qo, i);
                        let mut rowdot = 0.0f32;
                        for (da, a) in datt[row..][..d].iter().zip(&attd[row..][..d]) {
                            rowdot += da * a;
                        }
                        let (dsr, pr) = (&mut ds_b[i * s_k..(i + 1) * s_k], &p[i * s_k..]);
                        for (dl, &pv) in dsr.iter_mut().zip(pr) {
                            *dl = pv * (*dl - rowdot);
                        }
                    }
                    // dV = pᵀ·datt, dK = dSᵀ·q·scale, dQ = dS·k·scale, each
                    // stored (scaled) straight into its gradient's rows.
                    // SAFETY: each item owns its element's rows of every
                    // gradient, and each `Strided` lives for one GEMM.
                    let rows = |at: &Placement, ptr: &SendPtr, base: usize, scale: Option<f32>| unsafe {
                        at.out_rows(ptr, base, d, scale)
                    };
                    gemm_serial(
                        p,
                        s_k,
                        true,
                        dam,
                        qp.ld,
                        false,
                        s_k,
                        s_q,
                        d,
                        rows(vp, &dv_ptr, vo, None),
                        pack,
                    );
                    let dk_rows = rows(kp, &dk_ptr, ko, Some(scale));
                    gemm_serial(
                        ds_b, s_k, true, qm, qp.ld, false, s_k, s_q, d, dk_rows, pack,
                    );
                    let dq_rows = rows(qp, &dq_ptr, qo, Some(scale));
                    gemm_serial(
                        ds_b, s_k, false, km, kp.ld, false, s_q, s_k, d, dq_rows, pack,
                    );
                }
            });
        });
    });
    // SAFETY: each item assigned its element's rows of every gradient and
    // its `[s_q, s_k]` block of `dS`, and the elements tile them all: a
    // source is exactly its view's heads wide.
    let (dq, dk, dv) = unsafe {
        (
            dq.assume_written(),
            dk.assume_written(),
            dv.assume_written(),
        )
    };
    let dgate = dgate.map(|g| unsafe { g.assume_written() });
    let ds = ds.map(|ds| unsafe { ds.assume_written() });
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
    Ok(FusedAttentionGrads {
        dq,
        dk,
        dv,
        dbias,
        dgate,
    })
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
        let b = attention_fused(&q, &k, &v, None, None, None, scale)
            .unwrap()
            .out;
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
        let out2 = attention_fused(&q, &k, &v, Some(&bias), None, None, scale)
            .unwrap()
            .out;
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
        let b = attention_fused(&q, &k, &v, None, None, None, 0.5)
            .unwrap()
            .out;
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
        let b = attention_fused(&q, &k, &v, Some(&bias), None, None, scale)
            .unwrap()
            .out;
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
            &q,
            &k,
            &v,
            Some(&bias),
            None,
            None,
            fa.pre_gate(),
            &fa.lse,
            scale,
            &dy,
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
            &q,
            &k,
            &v,
            Some(&bias),
            Some(&mask),
            None,
            fa.pre_gate(),
            &fa.lse,
            scale,
            &dy,
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
        let out = attention_fused(&q, &k, &v, None, None, None, 1.0)
            .unwrap()
            .out;
        let mean_v = v.mean_axis(1).unwrap();
        for r in 0..2 {
            for c in 0..4 {
                assert!((out.at(&[0, r, c]).unwrap() - mean_v.at(&[0, c]).unwrap()).abs() < 1e-5);
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
        let out = attention_fused(&q, &k, &v, Some(&bias), None, None, 1.0)
            .unwrap()
            .out;
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
        // A gate whose width disagrees with q's `d`.
        let narrow = Tensor::zeros(&[1, 4, 4]);
        assert!(attention_fused(&q, &k3, &v, None, None, Some(&narrow), 1.0).is_err());
    }

    #[test]
    fn rejects_bad_head_views() {
        // [2, 5, 8] sources hold two heads of d = 4.
        let [q, k, v] = [30, 31, 32].map(|seed| Tensor::randn(&[2, 5, 8], seed));
        let at = |src| HeadView { src, axis: Some(1) };
        let views = |q, k, v, heads, d| HeadViews {
            q,
            k,
            v,
            gate: None,
            heads,
            d,
        };
        let run = |hv: &HeadViews<&Tensor>| attention_heads(hv, None, None, 1.0);
        assert!(run(&views(at(&q), at(&k), at(&v), 2, 4)).is_ok());
        // Heads that overrun the source width, and a source wider than its
        // heads.
        let narrow = Tensor::randn(&[2, 5, 4], 33);
        assert!(run(&views(at(&q), at(&narrow), at(&v), 2, 4)).is_err());
        assert!(run(&views(at(&q), at(&k), at(&v), 2, 5)).is_err());
        let wide = Tensor::randn(&[2, 5, 16], 34);
        assert!(run(&views(at(&q), at(&wide), at(&v), 2, 4)).is_err());
        // An attended axis that is not a leading axis, and no heads.
        let bad_axis = HeadView {
            src: &q,
            axis: Some(2),
        };
        assert!(run(&views(bad_axis, at(&k), at(&v), 2, 4)).is_err());
        assert!(run(&views(at(&q), at(&k), at(&v), 0, 4)).is_err());
        // Keys on another batch layout than the queries.
        let other = Tensor::randn(&[3, 5, 8], 35);
        assert!(run(&views(at(&q), at(&other), at(&v), 2, 4)).is_err());
        // A bias that does not broadcast to [2, heads, 5, 5].
        let bias = Tensor::zeros(&[3, 5, 5]);
        assert!(
            attention_heads(&views(at(&q), at(&k), at(&v), 2, 4), Some(&bias), None, 1.0).is_err()
        );
        // A gate laid out unlike the queries: attended along another axis,
        // or with other dims (transposed, so its heads still fit and its
        // batch grid and positions match the queries').
        let gated = |gate| HeadViews {
            gate: Some(gate),
            ..views(at(&q), at(&k), at(&v), 2, 4)
        };
        let g = Tensor::randn(&[2, 5, 8], 36);
        assert!(run(&gated(at(&g))).is_ok());
        let transposed = Tensor::randn(&[5, 2, 8], 37);
        let bad_gates = [
            HeadView {
                src: &g,
                axis: Some(0),
            },
            HeadView {
                src: &transposed,
                axis: Some(0),
            },
            at(&transposed),
            at(&narrow),
        ];
        for gate in bad_gates {
            assert!(
                matches!(run(&gated(gate)), Err(TensorError::ShapeMismatch { .. })),
                "gate {:?} along {:?} must be rejected",
                gate.src.dims(),
                gate.axis
            );
        }
    }
}
