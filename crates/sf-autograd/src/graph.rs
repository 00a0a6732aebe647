//! The autodiff tape: nodes, forward operations, and the backward driver.

use crate::op::{AttentionNode, Op};
use crate::{AutogradError, Result};
use sf_tensor::ops::attention::{HeadView, HeadViews};
use sf_tensor::ops::layernorm::{fused_forward, LN_EPS};
use sf_tensor::ops::softmax::softmax;
use sf_tensor::ops::vexp::vexp;
use sf_tensor::{Tensor, MAX_RANK};

/// A handle to a value on the tape.
///
/// `Var`s are cheap indices; they are only meaningful for the [`Graph`] that
/// produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// One operand of [`Graph::attention_heads`]: a [`HeadView`] of a tape
/// value (`src` is the `Var`).
pub type HeadVar = HeadView<Var>;

/// The operands of one [`Graph::attention_heads`] call: [`HeadViews`] of
/// tape values.
pub type HeadVars = HeadViews<Var>;

pub(crate) struct Node {
    pub value: Tensor,
    pub op: Op,
}

// A tape records about a thousand nodes a step, each the size of a tensor
// plus the largest `Op` variant (LayerNorm with its saved statistics): a
// variant that outgrows it grows every node.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Node>() == 144);

/// An append-only reverse-mode autodiff tape.
///
/// Build the forward computation with the methods below, then call
/// [`Graph::backward`] on a scalar loss. Only leaves keep their gradients:
/// read them with [`Graph::grad`] or, for parameters bound from a store via
/// [`Graph::use_param_or_init`], with [`Graph::take_param_grads`] (by slot) or
/// [`Graph::grads_by_name`].
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) grads: Vec<Option<Tensor>>,
    pub(crate) bindings: Vec<crate::params::Binding>,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .field("bindings", &self.bindings.len())
            .finish()
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty tape with room for `nodes` nodes, so a tape rebuilt
    /// every step at a known size records without regrowing.
    pub fn with_capacity(nodes: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            grads: Vec::with_capacity(nodes),
            bindings: Vec::new(),
        }
    }

    /// Number of nodes currently recorded.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total bytes held by non-leaf (activation) tensors — what gradient
    /// checkpointing trades for recomputation.
    pub fn activation_bytes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n.op, Op::Leaf))
            .map(|n| n.value.len() * std::mem::size_of::<f32>())
            .sum()
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    pub(crate) fn check(&self, v: Var) -> Result<()> {
        if v.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(AutogradError::InvalidVar {
                index: v.0,
                len: self.nodes.len(),
            })
        }
    }

    /// The current value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this graph.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a leaf ([`Graph::param`],
    /// [`Graph::constant`] or a bound parameter) after
    /// [`Graph::backward`], or `None` if no gradient flowed to it (or
    /// backward has not run). Always `None` for a non-leaf: backward frees
    /// each intermediate cotangent as soon as its VJP has run.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Registers a trainable leaf (gradients will be accumulated).
    pub fn param(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Registers a constant leaf. The tape does not tell constants from
    /// [`Graph::param`]s: like every leaf, a constant keeps the gradient
    /// that reaches it, which callers simply do not read.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    // ------------------------------------------------------------------
    // Elementwise binary (broadcasting)
    // ------------------------------------------------------------------

    /// Broadcasting addition.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or incompatible shapes.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let v = self.value(a).add(self.value(b))?;
        Ok(self.push(v, Op::Add(a, b)))
    }

    /// Broadcasting subtraction.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or incompatible shapes.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let v = self.value(a).sub(self.value(b))?;
        Ok(self.push(v, Op::Sub(a, b)))
    }

    /// Broadcasting multiplication.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or incompatible shapes.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let v = self.value(a).mul(self.value(b))?;
        Ok(self.push(v, Op::Mul(a, b)))
    }

    /// Broadcasting division.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or incompatible shapes.
    pub fn div(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let v = self.value(a).div(self.value(b))?;
        Ok(self.push(v, Op::Div(a, b)))
    }

    // ------------------------------------------------------------------
    // Elementwise unary
    // ------------------------------------------------------------------

    /// Negation.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn neg(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).neg();
        Ok(self.push(v, Op::Neg(x)))
    }

    /// Multiplication by a compile-time scalar.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn scale(&mut self, x: Var, s: f32) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).mul_scalar(s);
        Ok(self.push(v, Op::Scale(x, s)))
    }

    /// Addition of a scalar constant.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn add_scalar(&mut self, x: Var, s: f32) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).add_scalar(s);
        Ok(self.push(v, Op::AddScalar(x)))
    }

    /// ReLU activation.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn relu(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).relu();
        Ok(self.push(v, Op::Relu(x)))
    }

    /// Sigmoid activation.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn sigmoid(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).sigmoid();
        Ok(self.push(v, Op::Sigmoid(x)))
    }

    /// AlphaFold's gating, `sigmoid(gate) ⊙ x` as one node, with `x`
    /// broadcast to `gate`'s shape. Bitwise equal to `mul(sigmoid(gate), x)`
    /// forward and backward, without the sigmoid's activation on the tape:
    /// the backward recomputes it from `gate`.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or if `x` does not broadcast to
    /// `gate`'s shape.
    pub fn gate(&mut self, gate: Var, x: Var) -> Result<Var> {
        self.check(gate)?;
        self.check(x)?;
        let gv = self.value(gate);
        let mut v = self.value(x).broadcast_to(gv.dims())?;
        for (o, &g) in v.data_mut().iter_mut().zip(gv.data()) {
            *o *= 1.0 / (1.0 + vexp(-g));
        }
        Ok(self.push(v, Op::Gate { gate, x }))
    }

    /// Tanh activation.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn tanh(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).tanh();
        Ok(self.push(v, Op::Tanh(x)))
    }

    /// Exact GELU activation.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn gelu(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).gelu();
        Ok(self.push(v, Op::Gelu(x)))
    }

    /// Elementwise square.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn square(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).square();
        Ok(self.push(v, Op::Square(x)))
    }

    /// Elementwise exponential.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn exp(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).exp();
        Ok(self.push(v, Op::Exp(x)))
    }

    /// Elementwise natural logarithm.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn ln(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).ln();
        Ok(self.push(v, Op::Ln(x)))
    }

    /// Elementwise square root.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn sqrt(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).sqrt();
        Ok(self.push(v, Op::Sqrt(x)))
    }

    // ------------------------------------------------------------------
    // Linear algebra & attention
    // ------------------------------------------------------------------

    /// Batched matrix multiplication (see `sf_tensor::ops::matmul`).
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or incompatible shapes.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let v = self.value(a).matmul(self.value(b))?;
        Ok(self.push(v, Op::Matmul(a, b)))
    }

    /// `aᵀ @ b` without a transposed copy of `a` (see
    /// `sf_tensor::ops::matmul::matmul_at`): `[..., k, m]` against
    /// `[..., k, n]` gives `[..., m, n]`. Bitwise equal to
    /// `matmul(permute(a), b)`, and so is its backward: `da = b·dyᵀ`
    /// (`matmul_bt`), `db = a·dy`, the same products in the same order.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or incompatible shapes.
    pub fn matmul_at(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let v = self.value(a).matmul_at(self.value(b))?;
        Ok(self.push(v, Op::MatmulAt(a, b)))
    }

    /// A linear layer `x·Wᵀ + b` as one node: `x` is `[..., in]`, `w` is
    /// `[out, in]` as stored, `b` is `[out]`. The forward runs one GEMM over
    /// every leading row of `x` against the packed `w` and adds the bias in
    /// place (see [`sf_tensor::ops::matmul::linear`]); its values are
    /// bitwise those of `matmul(x, permute(w, [1, 0]))` plus `b`. The
    /// backward forms `dx = dy·W`, `dW = dyᵀ·x` as one GEMM contracting over
    /// all leading rows, and `db = Σ_rows dy`.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or incompatible shapes.
    pub fn linear(&mut self, x: Var, w: Var, b: Option<Var>) -> Result<Var> {
        self.check(x)?;
        self.check(w)?;
        if let Some(b) = b {
            self.check(b)?;
        }
        let v =
            sf_tensor::ops::matmul::linear(self.value(x), self.value(w), b.map(|b| self.value(b)))?;
        Ok(self.push(v, Op::Linear { x, w, b }))
    }

    /// Softmax over the last axis.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or rank-0 input.
    pub fn softmax(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = softmax(self.value(x))?;
        Ok(self.push(v, Op::Softmax(x)))
    }

    /// Fused LayerNorm over the last axis (single tape node; fused
    /// output+stats forward, two-step-reduction backward).
    ///
    /// # Errors
    ///
    /// Returns an error if `gamma`/`beta` shapes mismatch the last axis.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Result<Var> {
        self.check(x)?;
        self.check(gamma)?;
        self.check(beta)?;
        let (v, stats) = fused_forward(self.value(x), self.value(gamma), self.value(beta), LN_EPS)?;
        Ok(self.push(
            v,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                stats,
            },
        ))
    }

    /// Attention on contiguous `[batch..., S, D]` operands: the one-head
    /// views ([`HeadViews::whole`]) of [`Graph::attention_heads`], the
    /// tape's only attention node. `bias`/`mask` broadcast to
    /// `[batch..., S_q, S_k]` and `gate` has `q`'s shape. Sites without a
    /// bias, mask or gate pass `None`.
    ///
    /// # Errors
    ///
    /// Returns an error on any shape incompatibility.
    #[allow(clippy::too_many_arguments)]
    pub fn attention_fused(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        bias: Option<Var>,
        mask: Option<Var>,
        gate: Option<Var>,
        scale: f32,
    ) -> Result<Var> {
        for x in [Some(q), Some(k), Some(v), gate].into_iter().flatten() {
            self.check(x)?;
        }
        let whole = HeadViews::whole(
            self.value(q),
            self.value(k),
            self.value(v),
            gate.map(|g| self.value(g)),
        )?;
        let at = |src: Var, view: HeadView<&Tensor>| HeadVar {
            src,
            axis: view.axis,
        };
        let views = HeadVars {
            q: at(q, whole.q),
            k: at(k, whole.k),
            v: at(v, whole.v),
            gate: gate.zip(whole.gate).map(|(g, view)| at(g, view)),
            heads: whole.heads,
            d: whole.d,
        };
        self.attention_heads(views, bias, mask, scale)
    }

    /// The tape's only attention node. Fully fused attention — scale,
    /// optional pair `bias`, optional `mask` (zero entries are masked out;
    /// non-differentiable), a whole-row softmax, and the optional
    /// sigmoid-gate epilogue run in one `sf-tensor` kernel
    /// ([`sf_tensor::ops::attention::attention_heads`]) that reads Q, K, V
    /// and the gate in place as head views of their tapes' `[..., heads·d]`
    /// values and writes the heads merged, shaped like the queries. A
    /// `[B1, B2, h·d]` projection is attended directly: no reshape or
    /// permute node splits or merges the heads.
    ///
    /// The tape stores only the per-row softmax log-sum-exp (plus the
    /// pre-gate output when gated) instead of the `[S_q, S_k]` probability
    /// tensor; the backward recomputes probabilities from those stats,
    /// folds softmax-backward into the attention gradient, and returns
    /// gradients bit-identical to the `matmul_bt` / `matmul_at` / `matmul`
    /// chain it fuses. Each operand's gradient is accumulated into its
    /// `Var`'s slot like any other node's, so one `Var` may be passed as
    /// several operands.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or any shape incompatibility (see
    /// [`sf_tensor::ops::attention::attention_heads`]).
    pub fn attention_heads(
        &mut self,
        views: HeadVars,
        bias: Option<Var>,
        mask: Option<Var>,
        scale: f32,
    ) -> Result<Var> {
        for x in views.listed().map(|h| h.src).chain(bias).chain(mask) {
            self.check(x)?;
        }
        let fused = sf_tensor::ops::attention::attention_heads(
            &self.head_views(&views),
            bias.map(|b| self.value(b)),
            mask.map(|m| self.value(m)),
            scale,
        )?;
        Ok(self.push(
            fused.out,
            Op::FusedAttention(Box::new(AttentionNode {
                views,
                bias,
                mask,
                scale,
                att: fused.att,
                lse: fused.lse,
            })),
        ))
    }

    /// `views` read from this tape's values.
    pub(crate) fn head_views(&self, views: &HeadVars) -> HeadViews<&Tensor> {
        views.map(|var| self.value(var))
    }

    // ------------------------------------------------------------------
    // Shape ops
    // ------------------------------------------------------------------

    /// Reshape to `dims` (element count must match).
    ///
    /// # Errors
    ///
    /// Returns an error on element-count mismatch.
    pub fn reshape(&mut self, x: Var, dims: &[usize]) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).reshape(dims)?;
        Ok(self.push(v, Op::Reshape(x)))
    }

    /// Axis permutation.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid permutation.
    pub fn permute(&mut self, x: Var, perm: &[usize]) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).permute(perm)?;
        let mut stored = [0u8; MAX_RANK];
        for (s, &p) in stored.iter_mut().zip(perm) {
            *s = u8::try_from(p).expect("a valid permutation's axes are below MAX_RANK");
        }
        Ok(self.push(v, Op::Permute { x, perm: stored }))
    }

    /// Slice `[start, end)` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid axis or range.
    pub fn slice_axis(&mut self, x: Var, axis: usize, start: usize, end: usize) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).slice_axis(axis, start, end)?;
        Ok(self.push(v, Op::SliceAxis { x, axis, start }))
    }

    /// Concatenation along `axis`.
    ///
    /// # Errors
    ///
    /// Returns an error on empty input or shape mismatch.
    pub fn concat(&mut self, xs: &[Var], axis: usize) -> Result<Var> {
        for &x in xs {
            self.check(x)?;
        }
        let tensors: Vec<&Tensor> = xs.iter().map(|&x| self.value(x)).collect();
        let v = Tensor::concat(&tensors, axis)?;
        Ok(self.push(
            v,
            Op::Concat {
                xs: xs.to_vec(),
                axis,
            },
        ))
    }

    /// Concatenation along `axis` whose forward value was produced by an
    /// **external executor** — in practice the output buffer of a real
    /// collective (the DAP all-gather / all-to-all in `scalefold::dap`).
    /// The supplied value is verified bitwise against the mathematical
    /// concatenation before being adopted as the node's value, so the
    /// tape stays self-consistent and the backward pass (slicing, the
    /// exact adjoint of concatenation) is unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error on empty input, shape mismatch, or if `value`
    /// differs from the concatenation of the inputs in shape or bytes.
    pub fn concat_external(&mut self, xs: &[Var], axis: usize, value: Tensor) -> Result<Var> {
        for &x in xs {
            self.check(x)?;
        }
        let tensors: Vec<&Tensor> = xs.iter().map(|&x| self.value(x)).collect();
        let expect = Tensor::concat(&tensors, axis)?;
        if expect.dims() != value.dims() || expect.data() != value.data() {
            return Err(AutogradError::ExternalValueMismatch {
                expect_dims: expect.dims().to_vec(),
                got_dims: value.dims().to_vec(),
            });
        }
        Ok(self.push(
            value,
            Op::Concat {
                xs: xs.to_vec(),
                axis,
            },
        ))
    }

    /// Broadcast to `dims`.
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes are not broadcast-compatible.
    pub fn broadcast_to(&mut self, x: Var, dims: &[usize]) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).broadcast_to(dims)?;
        Ok(self.push(v, Op::BroadcastTo(x)))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum along `axis` (axis dropped).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid axis.
    pub fn sum_axis(&mut self, x: Var, axis: usize) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).sum_axis(axis)?;
        Ok(self.push(v, Op::SumAxis { x, axis }))
    }

    /// Mean along `axis` (axis dropped).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid axis.
    pub fn mean_axis(&mut self, x: Var, axis: usize) -> Result<Var> {
        self.check(x)?;
        let v = self.value(x).mean_axis(axis)?;
        Ok(self.push(v, Op::MeanAxis { x, axis }))
    }

    /// Sum of all elements (scalar output).
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn sum_all(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = Tensor::scalar(self.value(x).sum_all());
        Ok(self.push(v, Op::SumAll(x)))
    }

    /// Mean of all elements (scalar output).
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn mean_all(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = Tensor::scalar(self.value(x).mean_all());
        Ok(self.push(v, Op::MeanAll(x)))
    }

    /// Inverted-dropout with keep-probability `1 - p`; deterministic in
    /// `seed`. Identity when `p == 0`.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid var.
    pub fn dropout(&mut self, x: Var, p: f32, seed: u64) -> Result<Var> {
        self.check(x)?;
        if p <= 0.0 {
            // Identity node keeps tape positions deterministic.
            let v = self.value(x).clone();
            return Ok(self.push(v, Op::Reshape(x)));
        }
        let keep = 1.0 - p;
        let mask = Tensor::rand_uniform(self.value(x).dims(), 0.0, 1.0, seed).map(|u| {
            if u < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let v = self.value(x).mul(&mask)?;
        Ok(self.push(
            v,
            Op::Dropout {
                x,
                mask: Box::new(mask),
            },
        ))
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from a scalar `loss`.
    ///
    /// Gradients accumulate into the leaves only; read them back with
    /// [`Graph::grad`] / [`Graph::grads_by_name`]. An intermediate node's
    /// cotangent is dropped right after its VJP has run, so at most the
    /// cotangents still waiting for their VJP are live at once. Calling
    /// `backward` again accumulates on top (call [`Graph::zero_grads`] to
    /// reset).
    ///
    /// # Errors
    ///
    /// Returns [`AutogradError::NonScalarLoss`] if `loss` is not a scalar.
    pub fn backward(&mut self, loss: Var) -> Result<()> {
        self.check(loss)?;
        if self.value(loss).len() != 1 {
            return Err(AutogradError::NonScalarLoss {
                dims: self.value(loss).dims().to_vec(),
            });
        }
        let seed = Tensor::full(self.value(loss).dims(), 1.0);
        self.backward_seeded(loss, seed)
    }

    /// Reverse-mode pass with an explicit seed cotangent (used internally by
    /// checkpointing; the seed's shape must match `output`'s).
    ///
    /// # Errors
    ///
    /// Returns an error on invalid vars or shape mismatch during VJPs.
    pub fn backward_seeded(&mut self, output: Var, seed: Tensor) -> Result<()> {
        self.check(output)?;
        // Propagate in a scratch buffer so repeated backward calls accumulate
        // leaf gradients without re-propagating previous totals.
        let mut local: Vec<Option<Tensor>> = vec![None; output.0 + 1];
        local[output.0] = Some(seed);
        for i in (0..=output.0).rev() {
            // A node's VJP only writes to its inputs, which precede it on the
            // tape, so its cotangent is complete when the walk reaches it.
            let Some(dy) = local[i].take() else {
                continue;
            };
            if matches!(self.nodes[i].op, Op::Leaf) {
                accumulate(&mut self.grads, i, dy)?;
            } else {
                self.vjp(i, &dy, &mut local)?;
            }
        }
        Ok(())
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            *g = None;
        }
    }
}

/// Adds `delta` into `grads[idx]` (in place when the shapes match),
/// taking ownership of `delta` on first touch.
pub(crate) fn accumulate(grads: &mut [Option<Tensor>], idx: usize, delta: Tensor) -> Result<()> {
    match &mut grads[idx] {
        Some(g) if g.dims() == delta.dims() => {
            for (a, &b) in g.data_mut().iter_mut().zip(delta.data()) {
                *a += b;
            }
            Ok(())
        }
        Some(g) => {
            *g = g.add(&delta)?;
            Ok(())
        }
        slot @ None => {
            *slot = Some(delta);
            Ok(())
        }
    }
}
