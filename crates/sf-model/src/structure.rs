//! The structure module: iterative coordinate refinement from the single
//! representation.
//!
//! Each residue carries a **rigid frame** (unit quaternion + translation)
//! composed differentiably on the tape via [`crate::frames`] — AlphaFold's
//! backbone update (Algorithm 23). Each layer runs attention over residues
//! whose logits combine (a) a pair-derived bias and (b) a learned per-head
//! penalty on the *current* pairwise squared distances (the inductive bias
//! IPA's point-attention term provides), then predicts a quaternion update
//! and a local-frame translation which compose onto the frames. The
//! documented simplification versus full IPA is the attention value path:
//! we attend over scalar channels rather than per-head 3-D points.
//!
//! This module is deliberately **not** DAP-parallelizable, matching the
//! paper's observation that the Structure Module is serial. Its layers are
//! serial *across* iterations, but each layer's GEMM / LayerNorm /
//! attention kernels still run on the intra-op parallel CPU backend
//! (`sf_tensor::pool`), which is bit-identical at every thread count.

use crate::config::ModelConfig;
use crate::evoformer::transition_at;
use crate::frames::FrameBatch;
use crate::linear::{bind_param, layer_norm, linear, linear_no_bias};
use sf_autograd::{Graph, HeadVar, HeadVars, ParamStore, Result, Var};
use sf_tensor::Tensor;

/// Output of the structure module.
#[derive(Debug, Clone, Copy)]
pub struct StructureOutput {
    /// Predicted Cα coordinates, `[n_res, 3]`.
    pub coords: Var,
    /// Final single representation, `[n_res, c_s]`.
    pub single: Var,
    /// Per-residue predicted-confidence logits (pLDDT head), `[n_res, 1]`.
    pub plddt_logits: Var,
}

/// Runs the structure module from the MSA first row and pair representation.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn structure_module(
    g: &mut Graph,
    store: &mut ParamStore,
    cfg: &ModelConfig,
    m: Var,
    z: Var,
) -> Result<StructureOutput> {
    let heads = cfg.pair_heads.max(1);
    let c_s = cfg.c_s;
    let d = c_s / heads.max(1);
    let r = cfg.n_res;

    // Single representation from the MSA first row.
    let m0 = g.slice_axis(m, 0, 0, 1)?;
    let m0 = g.reshape(m0, &[r, cfg.c_m])?;
    let m0_ln = layer_norm(g, store, &["structure"], "ln_m", m0)?;
    let mut s = linear(g, store, &["structure"], "single", c_s, m0_ln)?;

    // Pair bias shared across layers: [R, R, c_z] -> [h, R, R].
    let z_ln = layer_norm(g, store, &["structure"], "ln_z", z)?;
    let pair_bias_rr = linear_no_bias(g, store, &["structure"], "pair_bias", heads, z_ln)?;
    let pair_bias = g.permute(pair_bias_rr, &[2, 0, 1])?;

    // "Black hole" initialization: identity frames, all residues at the
    // origin (AlphaFold Algorithm 20 line 1).
    let mut frames = FrameBatch::identity(g, r);

    for layer in 0..cfg.structure_layers {
        let name = format!("structure.layer{layer}");
        let p = &[name.as_str()];
        let x = frames.trans;

        // Distance-penalty bias from the current coordinates:
        // bias[h,i,j] = -softplus(w_h) * |x_i - x_j|^2 (per-head learned
        // weight; softplus keeps the penalty attractive).
        let xi = g.reshape(x, &[r, 1, 3])?;
        let xj = g.reshape(x, &[1, r, 3])?;
        let diff = g.sub(xi, xj)?;
        let sq = g.square(diff)?;
        let d2 = g.sum_axis(sq, 2)?; // [R, R]
        let d2b = g.reshape(d2, &[1, r, r])?;
        let w = bind_param(g, store, p, &["dist_weight"], |_| {
            Tensor::full(&[heads, 1, 1], -2.0)
        });
        let wexp = g.exp(w)?; // positive per-head scale (exp as softplus stand-in)
        let wneg = g.neg(wexp)?;
        let dist_bias = g.mul(wneg, d2b)?; // [h, R, R]
        let bias = g.add(pair_bias, dist_bias)?;

        // Attention over residues (batch dim = heads).
        let s_ln = layer_norm(g, store, p, "ln", s)?;
        let q = linear_no_bias(g, store, p, "q", heads * d, s_ln)?;
        let k = linear_no_bias(g, store, p, "k", heads * d, s_ln)?;
        let v = linear_no_bias(g, store, p, "v", heads * d, s_ln)?;
        // Heads read in place along the residue axis, written merged.
        let res = |src: Var| HeadVar { src, axis: Some(0) };
        let views = HeadVars {
            q: res(q),
            k: res(k),
            v: res(v),
            gate: None,
            heads,
            d,
        };
        let scale = 1.0 / (d as f32).sqrt();
        let att_flat = g.attention_heads(views, Some(bias), None, scale)?; // [R, h·d]
        let upd = linear(g, store, p, "out", c_s, att_flat)?;
        s = g.add(s, upd)?;
        s = transition_at(g, store, c_s, 2, &[&name, "trans"], s, false)?;

        // Backbone update (Algorithm 23): a quaternion update from the
        // single representation (imaginary part, scaled small so early
        // steps stay near identity) plus a local-frame translation.
        let imag_raw = linear(g, store, p, "quat", 3, s)?;
        let imag = g.scale(imag_raw, 0.1)?;
        let dt = linear(g, store, p, "coords", 3, s)?;
        frames = frames.compose_update(g, imag, dt)?;
    }

    let plddt_logits = linear(g, store, &["structure"], "plddt", 1, s)?;
    Ok(StructureOutput {
        coords: frames.trans,
        single: s,
        plddt_logits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cfg: &ModelConfig, seed: u64) -> (Graph, ParamStore, StructureOutput) {
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let m = g.constant(Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], seed).mul_scalar(0.5));
        let z =
            g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], seed ^ 1).mul_scalar(0.5));
        let out = structure_module(&mut g, &mut store, cfg, m, z).unwrap();
        (g, store, out)
    }

    #[test]
    fn output_shapes() {
        let cfg = ModelConfig::tiny();
        let (g, _, out) = run(&cfg, 1);
        assert_eq!(g.value(out.coords).dims(), &[cfg.n_res, 3]);
        assert_eq!(g.value(out.single).dims(), &[cfg.n_res, cfg.c_s]);
        assert_eq!(g.value(out.plddt_logits).dims(), &[cfg.n_res, 1]);
        assert!(!g.value(out.coords).has_non_finite());
    }

    #[test]
    fn coords_move_from_origin() {
        let cfg = ModelConfig::tiny();
        let (g, _, out) = run(&cfg, 2);
        assert!(g.value(out.coords).norm() > 1e-3);
    }

    #[test]
    fn gradients_flow_to_structure_params() {
        let cfg = ModelConfig::tiny();
        let (mut g, store, out) = run(&cfg, 3);
        let loss = {
            let sq = g.square(out.coords).unwrap();
            g.sum_all(sq).unwrap()
        };
        g.backward(loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        assert!(grads["structure.single.weight"].norm() > 0.0);
        assert!(grads["structure.layer0.coords.weight"].norm() > 0.0);
        assert!(grads.contains_key("structure.layer0.dist_weight"));
        let _ = store;
    }

    #[test]
    fn different_pair_repr_changes_structure() {
        let cfg = ModelConfig::tiny();
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let m = g.constant(Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 7).mul_scalar(0.5));
        let z1 = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 8).mul_scalar(0.5));
        let z2 = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 9).mul_scalar(0.5));
        let o1 = structure_module(&mut g, &mut store, &cfg, m, z1).unwrap();
        let o2 = structure_module(&mut g, &mut store, &cfg, m, z2).unwrap();
        assert!(!g.value(o1.coords).allclose(g.value(o2.coords), 1e-7));
    }
}
