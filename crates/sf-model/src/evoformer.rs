//! The Evoformer block: the nine sub-modules of the paper's Figure 2.
//!
//! Shapes throughout: the MSA representation `m` is `[S, R, c_m]` (sequences
//! × residues × channels) and the pair representation `z` is `[R, R, c_z]`.
//!
//! The module order matches AlphaFold Algorithm 6:
//! 1. MSA row-wise gated self-attention **with pair bias**
//! 2. MSA column-wise gated self-attention
//! 3. MSA transition
//! 4. Outer product mean (MSA → pair communication)
//! 5. Triangle multiplicative update, outgoing edges
//! 6. Triangle multiplicative update, incoming edges
//! 7. Triangle self-attention around the starting node
//! 8. Triangle self-attention around the ending node
//! 9. Pair transition
//!
//! Every sub-module is residual. Each attention projects Q, K, V and the
//! gate with four separate [`linear`] layers, each `[.., h·d]`, and runs the
//! fused pair-bias kernel from `sf-autograd`/`sf-tensor`
//! ([`Graph::attention_heads`]). It reads each projection's heads in place
//! and writes them merged, so no reshape or permute splits or joins a head.
//! The paper's "GEMM Batching" of the four projections is modelled by the
//! cluster simulator and measured as the `linear_bundled` kernel row; on
//! this one-thread CPU path the bundle is no faster than four GEMMs.
//!
//! [`evoformer_block`] is the only block. It always runs under **Dynamic
//! Axial Parallelism** through an injected [`AxialCollectives`] executor;
//! with one rank ([`crate::LocalAxial`]`(1)`) every scatter and gather is
//! a no-op and every axis switch a transpose, which is the unsharded
//! block. The public per-module functions are the one-shard calls of the
//! same module code.
//!
//! A module takes its parameter-name prefix as parts (`&[block, "msa_row"]`)
//! and passes it on to its layers, which read their input widths from their
//! inputs; the public per-module functions take one `prefix` string. Only
//! the callers' indexed block prefixes (`evoformer.block{i}`, …) are
//! formatted per forward.
//!
//! All of the block's heavy kernels (the GEMMs, LayerNorm,
//! softmax, and fused attention) execute on the parallel CPU backend in
//! `sf_tensor::pool`; the thread count comes from `SF_THREADS` or
//! `sf_tensor::pool::set_num_threads`, and results are bit-identical at
//! every thread count, so Evoformer outputs do not depend on parallelism.

use crate::dap::{dap_all_gather, dap_axis_switch, dap_scatter, AxialCollectives, LocalAxial};
use crate::linear::{
    bind_linear, bind_param, layer_norm, linear, linear_no_bias, name_seed, width,
};
use sf_autograd::{Graph, HeadVar, HeadVars, ParamStore, Result, Var};
use sf_tensor::Tensor;

/// Channel dimensions for one Evoformer block instance (the main stack, the
/// extra-MSA stack, and the template pair stack use different widths).
#[derive(Debug, Clone, Copy)]
pub struct BlockDims {
    /// MSA representation channels.
    pub c_m: usize,
    /// Pair representation channels.
    pub c_z: usize,
    /// MSA attention heads.
    pub msa_heads: usize,
    /// Pair attention heads.
    pub pair_heads: usize,
    /// Per-head width for MSA attention.
    pub c_hidden_msa: usize,
    /// Per-head width for pair attention.
    pub c_hidden_pair: usize,
    /// Triangle multiplicative hidden channels.
    pub c_hidden_mul: usize,
    /// Outer-product-mean hidden channels.
    pub c_opm: usize,
    /// Transition expansion factor.
    pub transition_factor: usize,
    /// Dropout probability on attention/triangle outputs (0 disables).
    pub dropout: f32,
    /// Column attention uses AlphaFold's *global* (mean-query) form
    /// ([`msa_global_column_attention`]) — the memory-cheap variant the
    /// extra-MSA stack needs for its thousands of sequences.
    pub global_column: bool,
}

impl BlockDims {
    /// Dimensions of the main Evoformer stack for `cfg`.
    pub fn main(cfg: &crate::ModelConfig) -> Self {
        BlockDims {
            c_m: cfg.c_m,
            c_z: cfg.c_z,
            msa_heads: cfg.msa_heads,
            pair_heads: cfg.pair_heads,
            c_hidden_msa: cfg.c_hidden_msa,
            c_hidden_pair: cfg.c_hidden_pair,
            c_hidden_mul: cfg.c_hidden_mul,
            c_opm: cfg.c_opm,
            transition_factor: cfg.transition_factor,
            dropout: cfg.dropout,
            global_column: false,
        }
    }

    /// Dimensions of the extra-MSA stack (narrow MSA channels, global
    /// column attention).
    pub fn extra(cfg: &crate::ModelConfig) -> Self {
        BlockDims {
            c_m: cfg.c_e,
            global_column: true,
            ..BlockDims::main(cfg)
        }
    }

    /// Dimensions of the template pair stack (pair-only, width `c_t`).
    pub fn template(cfg: &crate::ModelConfig) -> Self {
        BlockDims {
            c_m: cfg.c_t,
            c_z: cfg.c_t,
            ..BlockDims::main(cfg)
        }
    }
}

/// One full Evoformer block on `dap`'s ranks (ScaleFold §3.3 / FastFold's
/// Dynamic Axial Parallelism). Returns the updated `(m, z)`.
///
/// The four axial attentions run on activation shards — MSA row attention
/// sharded along sequences, MSA column and triangle attention along
/// residues — with the sharded axis switched by the executor's all-to-all
/// and results rejoined by its all-gather. The remaining modules
/// (transitions, outer product mean, triangle multiplication) run
/// replicated, as their cost does not grow with the axial length being
/// sharded here. `ckpt` gradient-checkpoints both transitions.
///
/// With [`LocalAxial`]`(1)` this is the unsharded block. With
/// `dropout = 0` the output is bitwise-identical for any rank count: every
/// sharded kernel (LN, the Q/K/V/gate GEMMs, attention) is
/// row-independent, and all data movement enters the tape through the
/// verified external concat. Under dropout the per-shard masks are
/// rank-salted, so DAP-k > 1 is a *different but equally valid* sample of
/// the dropout noise.
///
/// # Errors
///
/// Returns [`sf_autograd::AutogradError::UnevenShard`] if the sequence or
/// residue axis does not divide across the ranks; propagates shape errors
/// from the underlying tensor ops (a mismatch indicates an inconsistent
/// `dims` / input combination) and external value mismatches from the
/// collective executor.
#[allow(clippy::too_many_arguments)]
pub fn evoformer_block(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
    ckpt: bool,
    dap: &dyn AxialCollectives,
) -> Result<(Var, Var)> {
    let col = [prefix, "msa_col"];
    let m_shards = dap_scatter(g, m, dap.ranks())?; // [S/k, R, c_m]
    let rows = msa_row_attention_shards(g, store, dims, &[prefix, "msa_row"], &m_shards, z)?;
    let m = if dims.global_column {
        let m = dap_all_gather(g, dap, &rows)?;
        msa_global_column_attention(g, store, dims, &col, m)?
    } else {
        // Axis switch: sequence-sharded -> residue-sharded [R/k, S, c_m].
        let cols = dap_axis_switch(g, dap, &rows)?
            .into_iter()
            .map(|sh| msa_column_attention_shard(g, store, dims, &col, sh))
            .collect::<Result<Vec<_>>>()?;
        let full = dap_all_gather(g, dap, &cols)?; // [R, S, c_m]
        g.permute(full, &[1, 0, 2])?
    };
    let factor = dims.transition_factor;
    let m = transition_at(g, store, dims.c_m, factor, &[prefix, "msa_trans"], m, ckpt)?;
    let z = outer_product_mean_at(g, store, dims, &[prefix, "opm"], m, z)?;
    let z = pair_stack(g, store, dims, prefix, z, ckpt, dap)?;
    Ok((m, z))
}

/// A pair-only Evoformer block (modules 5-9), used by the template pair
/// stack which has no MSA track: the pair half of [`evoformer_block`] at
/// one rank.
///
/// # Errors
///
/// Propagates shape errors from the underlying tensor ops.
pub fn pair_block(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
) -> Result<Var> {
    pair_stack(g, store, dims, prefix, z, false, &LocalAxial(1))
}

/// Modules 5-9, the pair half of [`evoformer_block`]: the triangle
/// multiplications and the transition run replicated; starting-node
/// attention runs on row shards of `z`, then one axis switch to the
/// transposed layout and an all-gather (the ending-node LayerNorm and
/// triangle bias need the full transposed tensor), ending-node attention on
/// shards, and a final gather + transpose back.
fn pair_stack(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
    ckpt: bool,
    dap: &dyn AxialCollectives,
) -> Result<Var> {
    let z = triangle_multiplication_at(g, store, dims, &[prefix, "tri_mul_out"], z, true)?;
    let z = triangle_multiplication_at(g, store, dims, &[prefix, "tri_mul_in"], z, false)?;
    let z_shards = dap_scatter(g, z, dap.ranks())?;
    let start_p = [prefix, "tri_att_start"];
    let start = triangle_attention_shards(g, store, dims, &start_p, z, &z_shards)?;
    let end_in = dap_axis_switch(g, dap, &start)?; // [R/k, R, c_z], transposed
    let zt = dap_all_gather(g, dap, &end_in)?; // [R, R, c_z], transposed
    let end = triangle_attention_shards(g, store, dims, &[prefix, "tri_att_end"], zt, &end_in)?;
    let zt = dap_all_gather(g, dap, &end)?;
    let z = g.permute(zt, &[1, 0, 2])?;
    let factor = dims.transition_factor;
    transition_at(g, store, dims.c_z, factor, &[prefix, "pair_trans"], z, ckpt)
}

/// Shared gated-attention plumbing: projects `x` (`[B1, B2, c_in]`) to
/// Q/K/V/gate (`[B1, B2, h·d]` each), runs fused attention over the second
/// axis with an optional `[h, B2, B2]` bias, reading each operand's heads
/// in place and writing them merged (`[B1, B2, h·d]`), and projects back to
/// `c_in`.
fn gated_axis_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &[&str],
    x: Var,
    bias: Option<Var>,
    heads: usize,
    c_hidden: usize,
) -> Result<Var> {
    let hd = heads * c_hidden;
    let q = linear_no_bias(g, store, prefix, "q", hd, x)?;
    let k = linear_no_bias(g, store, prefix, "k", hd, x)?;
    let v = linear_no_bias(g, store, prefix, "v", hd, x)?;
    let gate = linear(g, store, prefix, "gate", hd, x)?;
    let at = |src: Var| HeadVar { src, axis: Some(1) };
    let views = HeadVars {
        q: at(q),
        k: at(k),
        v: at(v),
        gate: Some(at(gate)),
        heads,
        d: c_hidden,
    };
    let scale = 1.0 / (c_hidden as f32).sqrt();
    // One kernel: scale + pair bias + softmax + sigmoid gate, with
    // softmax-backward folded into the attention grad.
    let gated = g.attention_heads(views, bias, None, scale)?;
    linear(g, store, prefix, "out", width(g, x), gated)
}

/// Applies dropout (when enabled) then the residual connection — AlphaFold
/// drops attention and triangle-update outputs before adding them back.
/// The mask seed is salted with the DAP `rank`, so each shard draws its own
/// mask as real per-device dropout would; rank 0 keeps the unsalted seed.
fn dropout_residual(
    g: &mut Graph,
    dims: &BlockDims,
    prefix: &[&str],
    rank: usize,
    residual: Var,
    update: Var,
) -> Result<Var> {
    let update = if dims.dropout > 0.0 {
        let seed = name_seed(prefix) ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        g.dropout(update, dims.dropout, seed)?
    } else {
        update
    };
    g.add(residual, update)
}

/// Module 1 on sequence shards `[S/k, R, c_m]` of the MSA. The pair bias
/// indexes residues only, so it is computed once from the replicated `z`
/// and shared by every shard's gated attention. Parameter prefixes are
/// identical across shards: each binds the same weights, and the trainer's
/// [`Graph::take_param_grads`] sums the per-shard weight gradients — the
/// same reduction DAP performs over its gradient all-reduce.
fn msa_row_attention_shards(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &[&str],
    m_shards: &[Var],
    z: Var,
) -> Result<Vec<Var>> {
    let z_ln = layer_norm(g, store, prefix, "ln_z", z)?;
    // Pair bias: [R, R, c_z] -> [R, R, h] -> [h, R, R].
    let bias_rr = linear_no_bias(g, store, prefix, "pair_bias", dims.msa_heads, z_ln)?;
    let bias = g.permute(bias_rr, &[2, 0, 1])?;
    m_shards
        .iter()
        .enumerate()
        .map(|(rank, &m)| {
            let m_ln = layer_norm(g, store, prefix, "ln_m", m)?;
            let (heads, c_hidden) = (dims.msa_heads, dims.c_hidden_msa);
            let att = gated_axis_attention(g, store, prefix, m_ln, Some(bias), heads, c_hidden)?;
            dropout_residual(g, dims, prefix, rank, m, att)
        })
        .collect()
}

/// Module 1: MSA row-wise gated self-attention with pair bias.
pub fn msa_row_attention_with_pair_bias(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
) -> Result<Var> {
    Ok(msa_row_attention_shards(g, store, dims, &[prefix], &[m], z)?[0])
}

/// Module 2 on one residue shard `[R/k, S, c_m]` (the attended sequence
/// axis is axis 1): LayerNorm, gated attention, residual add. Column
/// attention has no dropout.
fn msa_column_attention_shard(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &[&str],
    m_t: Var,
) -> Result<Var> {
    let ln = layer_norm(g, store, prefix, "ln", m_t)?;
    let (heads, c_hidden) = (dims.msa_heads, dims.c_hidden_msa);
    let att = gated_axis_attention(g, store, prefix, ln, None, heads, c_hidden)?;
    g.add(m_t, att)
}

/// Module 2: MSA column-wise gated self-attention (attends over sequences).
pub fn msa_column_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
) -> Result<Var> {
    // Transpose so the attended axis (sequences) is axis 1: [R, S, c_m].
    let mt = g.permute(m, &[1, 0, 2])?;
    let out = msa_column_attention_shard(g, store, dims, &[prefix], mt)?;
    g.permute(out, &[1, 0, 2])
}

/// Extra-MSA variant of module 2: **global** column attention (AlphaFold
/// Algorithm 19). One mean-pooled query per column attends over the
/// thousands of extra sequences, so the logits are `O(S)` per column rather
/// than `O(S²)`; each sequence then gates the shared attention output.
pub fn msa_global_column_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &[&str],
    m: Var,
) -> Result<Var> {
    let heads = dims.msa_heads;
    let hd = heads * dims.c_hidden_msa;
    let m_ln = layer_norm(g, store, prefix, "ln", m)?;
    let q = linear_no_bias(g, store, prefix, "q", hd, m_ln)?;
    let k = linear_no_bias(g, store, prefix, "k", hd, m_ln)?;
    let v = linear_no_bias(g, store, prefix, "v", hd, m_ln)?;
    let gate = linear(g, store, prefix, "gate", hd, m_ln)?; // [S, R, hd]

    // Global query: the mean over the sequence axis, one query per column.
    // Keys and values are read in place along the sequence axis.
    let mean = g.mean_axis(q, 0)?; // [R, hd]
    let kv = |src: Var| HeadVar { src, axis: Some(0) };
    let views = HeadVars {
        q: HeadVar {
            src: mean,
            axis: None,
        },
        k: kv(k),
        v: kv(v),
        gate: None,
        heads,
        d: dims.c_hidden_msa,
    };
    let scale = 1.0 / (dims.c_hidden_msa as f32).sqrt();
    let att_flat = g.attention_heads(views, None, None, scale)?; // [R, hd]
                                                                 // Per-sequence gating of the shared column output.
    let gated = g.gate(gate, att_flat)?; // broadcast over S
    let out = linear(g, store, prefix, "out", dims.c_m, gated)?;
    dropout_residual(g, dims, prefix, 0, m, out)
}

/// Modules 3 & 9: the two-layer transition (feed-forward) block,
/// `x + W2 relu(W1 LN(x))`.
pub fn transition(
    g: &mut Graph,
    store: &mut ParamStore,
    c: usize,
    factor: usize,
    prefix: &str,
    x: Var,
) -> Result<Var> {
    transition_at(g, store, c, factor, &[prefix], x, false)
}

/// [`transition`] under a prefix of parts. With `ckpt` the segment is
/// gradient-checkpointed: its intermediate activations (the
/// `factor×`-expanded hidden layer — the largest activations in the block)
/// are not retained, and backward re-runs the segment. This is OpenFold's
/// memory workaround that ScaleFold disables once DAP frees enough memory
/// (§4.1).
pub(crate) fn transition_at(
    g: &mut Graph,
    store: &mut ParamStore,
    c: usize,
    factor: usize,
    prefix: &[&str],
    x: Var,
    ckpt: bool,
) -> Result<Var> {
    // The parameters are explicit inputs, so under `ckpt` their gradients
    // flow out of the re-executed segment.
    let gamma = bind_param(g, store, prefix, &["ln", "gamma"], |_| Tensor::ones(&[c]));
    let beta = bind_param(g, store, prefix, &["ln", "beta"], |_| Tensor::zeros(&[c]));
    let (w1, b1) = bind_linear(g, store, prefix, "fc1", c, c * factor);
    let (w2, b2) = bind_linear(g, store, prefix, "fc2", c * factor, c);
    let ins = [x, gamma, beta, w1, b1, w2, b2];
    if ckpt {
        g.checkpoint(&ins, transition_ops)
    } else {
        transition_ops(g, &ins)
    }
}

/// The transition's op sequence over `[x, γ, β, W1, b1, W2, b2]`:
/// LayerNorm → linear → ReLU → linear → residual.
fn transition_ops(g: &mut Graph, ins: &[Var]) -> Result<Var> {
    let [x, gamma, beta, w1, b1, w2, b2] = *ins else {
        unreachable!("transition_at passes seven inputs");
    };
    let ln = g.layer_norm(x, gamma, beta)?;
    let h = g.linear(ln, w1, Some(b1))?;
    let a = g.relu(h)?;
    let out = g.linear(a, w2, Some(b2))?;
    g.add(x, out)
}

/// Module 4: outer product mean — the MSA→pair communication channel.
/// `o[i,j] = mean_s a[s,i] ⊗ b[s,j]`, projected to `c_z`.
pub fn outer_product_mean(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
) -> Result<Var> {
    outer_product_mean_at(g, store, dims, &[prefix], m, z)
}

/// [`outer_product_mean`] under a prefix of parts.
fn outer_product_mean_at(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &[&str],
    m: Var,
    z: Var,
) -> Result<Var> {
    let (s, r) = {
        let d = g.value(m).dims();
        (d[0], d[1])
    };
    let c = dims.c_opm;
    let m_ln = layer_norm(g, store, prefix, "ln", m)?;
    let a = linear(g, store, prefix, "a", c, m_ln)?;
    let b = linear(g, store, prefix, "b", c, m_ln)?;
    // einsum('sic,sjd->ijcd') via one GEMM: [S, R*c]ᵀ @ [S, R*c] = [R*c, R*c].
    let a2 = g.reshape(a, &[s, r * c])?;
    let b2 = g.reshape(b, &[s, r * c])?;
    let big = g.matmul_at(a2, b2)?; // [R*c, R*c]
    let o4 = g.reshape(big, &[r, c, r, c])?;
    let o = g.permute(o4, &[0, 2, 1, 3])?; // [R, R, c, c]
    let flat = g.reshape(o, &[r, r, c * c])?;
    let mean = g.scale(flat, 1.0 / s as f32)?;
    let proj = linear(g, store, prefix, "out", dims.c_z, mean)?;
    g.add(z, proj)
}

/// Modules 5 & 6: triangle multiplicative update.
/// Outgoing: `o[i,j] = Σ_k a[i,k] ⊙ b[j,k]`; incoming: `Σ_k a[k,i] ⊙ b[k,j]`.
pub fn triangle_multiplication(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
    outgoing: bool,
) -> Result<Var> {
    triangle_multiplication_at(g, store, dims, &[prefix], z, outgoing)
}

/// [`triangle_multiplication`] under a prefix of parts.
fn triangle_multiplication_at(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &[&str],
    z: Var,
    outgoing: bool,
) -> Result<Var> {
    let c = dims.c_hidden_mul;
    let z_ln = layer_norm(g, store, prefix, "ln_in", z)?;
    let gated_proj = |g: &mut Graph, store: &mut ParamStore, proj, gate| -> Result<Var> {
        let p = linear(g, store, prefix, proj, c, z_ln)?;
        let gt = linear(g, store, prefix, gate, c, z_ln)?;
        g.gate(gt, p)
    };
    let a = gated_proj(g, store, "a_proj", "a_gate")?;
    let b = gated_proj(g, store, "b_proj", "b_gate")?;
    // Channel-major [c, R, R] so each channel is an R×R matrix product.
    let ac = g.permute(a, &[2, 0, 1])?;
    let bc = g.permute(b, &[2, 0, 1])?;
    let prod = if outgoing {
        // einsum('cik,cjk->cij') = A · Bᵀ
        let bt = g.permute(bc, &[0, 2, 1])?;
        g.matmul(ac, bt)?
    } else {
        // einsum('cki,ckj->cij') = Aᵀ · B
        let at = g.permute(ac, &[0, 2, 1])?;
        g.matmul(at, bc)?
    };
    let back = g.permute(prod, &[1, 2, 0])?; // [R, R, c]
    let ln_out = layer_norm(g, store, prefix, "ln_out", back)?;
    let proj = linear(g, store, prefix, "out", dims.c_z, ln_out)?;
    let out_gate = linear(g, store, prefix, "out_gate", dims.c_z, z_ln)?;
    let gated = g.gate(out_gate, proj)?;
    dropout_residual(g, dims, prefix, 0, z, gated)
}

/// Modules 7 & 8 on residue shards: LayerNorm and the triangle bias read
/// the full pair tensor `z`, while attention and the residual add run per
/// row shard (`residuals`, each `[R/k, R, c_z]`, rank order).
fn triangle_attention_shards(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &[&str],
    z: Var,
    residuals: &[Var],
) -> Result<Vec<Var>> {
    let z_ln = layer_norm(g, store, prefix, "ln", z)?;
    // Triangle bias: logits(i; j->k) += linear(z_ln[j,k]).
    let bias_rr = linear_no_bias(g, store, prefix, "tri_bias", dims.pair_heads, z_ln)?;
    let bias = g.permute(bias_rr, &[2, 0, 1])?;
    let ln_shards = dap_scatter(g, z_ln, residuals.len())?;
    ln_shards
        .into_iter()
        .zip(residuals)
        .enumerate()
        .map(|(rank, (ln, &residual))| {
            let (heads, c_hidden) = (dims.pair_heads, dims.c_hidden_pair);
            let att = gated_axis_attention(g, store, prefix, ln, Some(bias), heads, c_hidden)?;
            dropout_residual(g, dims, prefix, rank, residual, att)
        })
        .collect()
}

/// Modules 7 & 8: triangle self-attention around the starting / ending node.
pub fn triangle_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
    starting: bool,
) -> Result<Var> {
    // Ending-node attention is starting-node attention on the transposed
    // pair tensor.
    let zin = if starting {
        z
    } else {
        g.permute(z, &[1, 0, 2])?
    };
    let out = triangle_attention_shards(g, store, dims, &[prefix], zin, &[zin])?[0];
    if starting {
        Ok(out)
    } else {
        g.permute(out, &[1, 0, 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    /// The unsharded reference block: the nine modules composed from
    /// the public per-module functions, bypassing the block's scatter,
    /// axis switch and gather.
    fn composed_block(
        g: &mut Graph,
        store: &mut ParamStore,
        dims: &BlockDims,
        prefix: &str,
        m: Var,
        z: Var,
    ) -> Result<(Var, Var)> {
        let p = |name: &str| format!("{prefix}.{name}");
        let m = msa_row_attention_with_pair_bias(g, store, dims, &p("msa_row"), m, z)?;
        let m = msa_column_attention(g, store, dims, &p("msa_col"), m)?;
        let m = transition(
            g,
            store,
            dims.c_m,
            dims.transition_factor,
            &p("msa_trans"),
            m,
        )?;
        let z = outer_product_mean(g, store, dims, &p("opm"), m, z)?;
        let z = triangle_multiplication(g, store, dims, &p("tri_mul_out"), z, true)?;
        let z = triangle_multiplication(g, store, dims, &p("tri_mul_in"), z, false)?;
        let z = triangle_attention(g, store, dims, &p("tri_att_start"), z, true)?;
        let z = triangle_attention(g, store, dims, &p("tri_att_end"), z, false)?;
        let z = transition(
            g,
            store,
            dims.c_z,
            dims.transition_factor,
            &p("pair_trans"),
            z,
        )?;
        Ok((m, z))
    }

    fn setup() -> (Graph, ParamStore, BlockDims, Var, Var) {
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::main(&cfg);
        let mut g = Graph::new();
        let store = ParamStore::new();
        let m = g.constant(Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 1).mul_scalar(0.3));
        let z = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 2).mul_scalar(0.3));
        (g, store, dims, m, z)
    }

    #[test]
    fn block_preserves_shapes() {
        let (mut g, mut store, dims, m, z) = setup();
        let m_dims = g.value(m).dims().to_vec();
        let z_dims = g.value(z).dims().to_vec();
        let (m2, z2) = evoformer_block(
            &mut g,
            &mut store,
            &dims,
            "blk0",
            m,
            z,
            false,
            &LocalAxial(1),
        )
        .unwrap();
        assert_eq!(g.value(m2).dims(), m_dims.as_slice());
        assert_eq!(g.value(z2).dims(), z_dims.as_slice());
        assert!(!g.value(m2).has_non_finite());
        assert!(!g.value(z2).has_non_finite());
    }

    #[test]
    fn block_output_differs_from_input() {
        let (mut g, mut store, dims, m, z) = setup();
        let (m2, z2) = evoformer_block(
            &mut g,
            &mut store,
            &dims,
            "blk0",
            m,
            z,
            false,
            &LocalAxial(1),
        )
        .unwrap();
        assert!(!g.value(m2).allclose(g.value(m), 1e-6));
        assert!(!g.value(z2).allclose(g.value(z), 1e-6));
    }

    #[test]
    fn gradients_reach_all_block_params() {
        let (mut g, mut store, dims, m, z) = setup();
        let (m2, z2) =
            evoformer_block(&mut g, &mut store, &dims, "b", m, z, false, &LocalAxial(1)).unwrap();
        let lm = g.sum_all(m2).unwrap();
        let lz = g.sum_all(z2).unwrap();
        let loss = g.add(lm, lz).unwrap();
        g.backward(loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        // Every registered parameter must receive a gradient entry.
        for name in store.names() {
            assert!(grads.contains_key(&name), "no grad for {name}");
        }
        // And the critical paths must be non-zero.
        assert!(grads["b.msa_row.pair_bias.weight"].norm() > 0.0);
        assert!(grads["b.tri_mul_out.a_proj.weight"].norm() > 0.0);
        assert!(grads["b.opm.out.weight"].norm() > 0.0);
    }

    #[test]
    fn pair_bias_affects_msa_track() {
        // Zeroing z must change the row-attention output (bias path alive).
        let (mut g, mut store, dims, m, z) = setup();
        let out1 = msa_row_attention_with_pair_bias(&mut g, &mut store, &dims, "pb", m, z).unwrap();
        let z0 = g.constant(Tensor::zeros(g.value(z).dims()));
        let out2 =
            msa_row_attention_with_pair_bias(&mut g, &mut store, &dims, "pb", m, z0).unwrap();
        assert!(!g.value(out1).allclose(g.value(out2), 1e-7));
    }

    #[test]
    fn triangle_mult_outgoing_vs_incoming_differ() {
        let (mut g, mut store, dims, _m, z) = setup();
        let o = triangle_multiplication(&mut g, &mut store, &dims, "tm", z, true).unwrap();
        let i = triangle_multiplication(&mut g, &mut store, &dims, "tm", z, false).unwrap();
        assert!(!g.value(o).allclose(g.value(i), 1e-7));
    }

    #[test]
    fn outer_product_mean_matches_reference() {
        // Direct check of the einsum('sic,sjd->ijcd')/S rearrangement on a
        // minimal case, against a quadruple loop.
        let (s, r, c_m, c) = (2usize, 3usize, 4usize, 2usize);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let dims = BlockDims {
            c_m,
            c_z: 3,
            msa_heads: 1,
            pair_heads: 1,
            c_hidden_msa: 2,
            c_hidden_pair: 2,
            c_hidden_mul: 2,
            c_opm: c,
            transition_factor: 2,
            dropout: 0.0,
            global_column: false,
        };
        let m0 = Tensor::randn(&[s, r, c_m], 7);
        let z0 = Tensor::zeros(&[r, r, 3]);
        let m = g.constant(m0);
        let z = g.constant(z0);
        let out = outer_product_mean(&mut g, &mut store, &dims, "opm", m, z).unwrap();
        assert_eq!(g.value(out).dims(), &[r, r, 3]);

        // Reference: recompute o from the bound a/b projections, then apply
        // the stored output projection.
        let m_lnv = {
            let mut g2 = Graph::new();
            let mv = g2.constant(g.value(m).clone());
            let ln = layer_norm(&mut g2, &mut store, &["opm"], "ln", mv).unwrap();
            g2.value(ln).clone()
        };
        let apply_lin = |name: &str, x: &Tensor, out_dim: usize| -> Tensor {
            let w = store.get(&format!("{name}.weight")).unwrap();
            let b = store.get(&format!("{name}.bias")).unwrap();
            let flat = x.reshape(&[s * r, c_m]).unwrap();
            flat.matmul_bt(w)
                .unwrap()
                .add(b)
                .unwrap()
                .reshape(&[s, r, out_dim])
                .unwrap()
        };
        let av = apply_lin("opm.a", &m_lnv, c);
        let bv = apply_lin("opm.b", &m_lnv, c);
        let mut o = Tensor::zeros(&[r, r, c * c]);
        for i in 0..r {
            for j in 0..r {
                for ci in 0..c {
                    for cj in 0..c {
                        let mut acc = 0.0;
                        for si in 0..s {
                            acc += av.at(&[si, i, ci]).unwrap() * bv.at(&[si, j, cj]).unwrap();
                        }
                        o.set(&[i, j, ci * c + cj], acc / s as f32).unwrap();
                    }
                }
            }
        }
        let w = store.get("opm.out.weight").unwrap();
        let bb = store.get("opm.out.bias").unwrap();
        let expect = o
            .reshape(&[r * r, c * c])
            .unwrap()
            .matmul_bt(w)
            .unwrap()
            .add(bb)
            .unwrap()
            .reshape(&[r, r, 3])
            .unwrap();
        assert!(g.value(out).allclose(&expect, 1e-4));
    }

    #[test]
    fn global_column_attention_shapes_and_grads() {
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::extra(&cfg);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let m =
            g.constant(Tensor::randn(&[cfg.n_extra_seq, cfg.n_res, cfg.c_e], 41).mul_scalar(0.3));
        let out = msa_global_column_attention(&mut g, &mut store, &dims, &["gc"], m).unwrap();
        assert_eq!(g.value(out).dims(), &[cfg.n_extra_seq, cfg.n_res, cfg.c_e]);
        assert!(!g.value(out).has_non_finite());
        let loss = g.sum_all(out).unwrap();
        g.backward(loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        for name in store.names() {
            assert!(grads.contains_key(&name), "no grad for {name}");
        }
    }

    #[test]
    fn global_column_attention_is_cheaper_than_full() {
        // The point of the global variant: tape activation bytes scale O(S)
        // for the logits instead of O(S^2).
        let mut cfg = ModelConfig::tiny();
        cfg.n_extra_seq = 32; // exaggerate the sequence axis
        let dims = BlockDims::extra(&cfg);
        let m0 = Tensor::randn(&[cfg.n_extra_seq, cfg.n_res, cfg.c_e], 42).mul_scalar(0.3);

        let mut g1 = Graph::new();
        let mut store = ParamStore::new();
        let m1 = g1.constant(m0.clone());
        let _ = msa_global_column_attention(&mut g1, &mut store, &dims, &["gc"], m1).unwrap();

        let mut g2 = Graph::new();
        let m2 = g2.constant(m0);
        let _ = msa_column_attention(&mut g2, &mut store, &dims, "fc", m2).unwrap();
        assert!(
            g1.activation_bytes() < g2.activation_bytes(),
            "global {} vs full {}",
            g1.activation_bytes(),
            g2.activation_bytes()
        );
    }

    #[test]
    fn dropout_changes_outputs_but_preserves_shapes() {
        let cfg = ModelConfig::tiny();
        let mut dims = BlockDims::main(&cfg);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let m = g.constant(Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 31).mul_scalar(0.3));
        let z = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 32).mul_scalar(0.3));
        let (m_dry, z_dry) =
            evoformer_block(&mut g, &mut store, &dims, "d", m, z, false, &LocalAxial(1)).unwrap();
        dims.dropout = 0.3;
        let (m_wet, z_wet) =
            evoformer_block(&mut g, &mut store, &dims, "d", m, z, false, &LocalAxial(1)).unwrap();
        assert_eq!(g.value(m_wet).dims(), g.value(m_dry).dims());
        assert!(!g.value(m_wet).allclose(g.value(m_dry), 1e-7));
        assert!(!g.value(z_wet).allclose(g.value(z_dry), 1e-7));
        assert!(!g.value(m_wet).has_non_finite());
    }

    #[test]
    fn one_rank_block_is_the_composed_block() {
        // At one rank every scatter/gather is a no-op and every axis switch
        // a transpose: the block must build the composed block's tape
        // exactly — same node count, same activation bytes, same forward
        // bits and the same bits in every gradient.
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::main(&cfg);
        let m0 = Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 3).mul_scalar(0.3);
        let z0 = Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 4).mul_scalar(0.3);
        let run = |one_rank: bool| {
            let mut g = Graph::new();
            let mut store = ParamStore::new();
            let m = g.constant(m0.clone());
            let z = g.constant(z0.clone());
            let (m2, z2) = if one_rank {
                evoformer_block(&mut g, &mut store, &dims, "b", m, z, false, &LocalAxial(1))
            } else {
                composed_block(&mut g, &mut store, &dims, "b", m, z)
            }
            .unwrap();
            let (len, bytes) = (g.len(), g.activation_bytes());
            let out = (g.value(m2).clone(), g.value(z2).clone());
            let lm = g.mean_all(m2).unwrap();
            let lz = g.mean_all(z2).unwrap();
            let loss = g.add(lm, lz).unwrap();
            g.backward(loss).unwrap();
            (len, bytes, out, g.grads_by_name().unwrap())
        };
        let (len_ref, bytes_ref, (m_ref, z_ref), grads_ref) = run(false);
        let (len, bytes, (m1, z1), grads) = run(true);
        assert_eq!(len, len_ref, "tape node count");
        assert_eq!(bytes, bytes_ref, "activation bytes");
        assert_eq!(m1.data(), m_ref.data(), "MSA track");
        assert_eq!(z1.data(), z_ref.data(), "pair track");
        assert_eq!(grads.len(), grads_ref.len(), "parameter set");
        for (name, gr) in &grads_ref {
            assert_eq!(grads[name].data(), gr.data(), "gradient bits of {name}");
        }
    }

    #[test]
    fn dap_block_matches_unsharded_bitwise() {
        // With dropout off, the block on k ranks must reproduce the
        // unsharded composed block exactly (forward values), for every rank
        // count dividing both axes.
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::main(&cfg);
        let m0 = Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 5).mul_scalar(0.3);
        let z0 = Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 6).mul_scalar(0.3);

        let mut g_ref = Graph::new();
        let mut store = ParamStore::new();
        let m = g_ref.constant(m0.clone());
        let z = g_ref.constant(z0.clone());
        let (mr, zr) = composed_block(&mut g_ref, &mut store, &dims, "blk", m, z).unwrap();
        let (m_ref, z_ref) = (g_ref.value(mr).clone(), g_ref.value(zr).clone());

        for k in [1usize, 2, 4] {
            let mut g = Graph::new();
            let mut store_k = ParamStore::new();
            let m = g.constant(m0.clone());
            let z = g.constant(z0.clone());
            let dap = LocalAxial(k);
            let (mk, zk) =
                evoformer_block(&mut g, &mut store_k, &dims, "blk", m, z, false, &dap).unwrap();
            assert_eq!(
                g.value(mk).data(),
                m_ref.data(),
                "k={k}: MSA track diverged"
            );
            assert_eq!(
                g.value(zk).data(),
                z_ref.data(),
                "k={k}: pair track diverged"
            );
        }
    }

    #[test]
    fn dap_block_gradients_match_unsharded() {
        // Weight gradients accumulate per-rank (summed by name), so they
        // match the unsharded single-GEMM reduction to fp tolerance.
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::main(&cfg);
        let m0 = Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 8).mul_scalar(0.3);
        let z0 = Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 9).mul_scalar(0.3);

        let run = |k: Option<usize>| {
            let mut g = Graph::new();
            let mut store = ParamStore::new();
            let m = g.constant(m0.clone());
            let z = g.constant(z0.clone());
            let (m2, z2) = match k {
                None => composed_block(&mut g, &mut store, &dims, "b", m, z).unwrap(),
                Some(k) => {
                    let dap = LocalAxial(k);
                    evoformer_block(&mut g, &mut store, &dims, "b", m, z, false, &dap).unwrap()
                }
            };
            // O(1)-scale loss (like the real training losses) so the 1e-5
            // equivalence tolerance is meaningful.
            let lm = g.mean_all(m2).unwrap();
            let lz = g.mean_all(z2).unwrap();
            let loss = g.add(lm, lz).unwrap();
            g.backward(loss).unwrap();
            g.grads_by_name().unwrap()
        };
        let g_ref = run(None);
        for k in [1usize, 2, 4] {
            let g_k = run(Some(k));
            assert_eq!(g_ref.len(), g_k.len(), "k={k}: parameter set differs");
            for (name, gr) in &g_ref {
                // Elementwise |a-b| <= 1e-5 (+relative): the contract's
                // tolerance. Differences come only from per-rank gradient
                // accumulation order (and pure-cancellation residues like
                // the pair-bias LN beta, whose true gradient is ~0 since a
                // uniform logit shift leaves softmax invariant).
                assert!(
                    gr.allclose(&g_k[name], 1e-5),
                    "k={k}: gradient mismatch at {name}"
                );
            }
        }
    }

    #[test]
    fn pair_block_runs() {
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::template(&cfg);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let z = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_t], 9).mul_scalar(0.2));
        let z2 = pair_block(&mut g, &mut store, &dims, "tpl", z).unwrap();
        assert_eq!(g.value(z2).dims(), g.value(z).dims());
        assert!(!g.value(z2).has_non_finite());
    }
}
