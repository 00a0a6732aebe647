//! Input embeddings: MSA/target featurization, relative positional encoding,
//! the recycling embedder, the extra-MSA stack, and the template pair stack
//! (the "Input Embeddings" box of the paper's Figure 1).

use crate::config::{ModelConfig, DISTOGRAM_BINS};
use crate::dap::LocalAxial;
use crate::evoformer::{evoformer_block, pair_block, BlockDims};
use crate::features::FeatureBatch;
use crate::linear::{layer_norm, linear, linear_no_bias};
use sf_autograd::{Graph, HeadVar, HeadVars, ParamStore, Result, Var};
use sf_tensor::Tensor;

/// Relative-position clipping radius (AlphaFold uses 32).
pub const RELPOS_K: usize = 32;

/// Distogram bin edges in Å for recycling / template features.
pub fn distogram_edges() -> Vec<f32> {
    // 15 bins from 3.25 Å to 21 Å (AlphaFold's recycling binning, reduced
    // resolution).
    let lo = 3.25f32;
    let hi = 21.0f32;
    (1..DISTOGRAM_BINS)
        .map(|i| lo + (hi - lo) * i as f32 / DISTOGRAM_BINS as f32)
        .collect()
}

/// One-hot distogram `[n, n, DISTOGRAM_BINS]` of pairwise Cα distances.
pub fn distogram_one_hot(coords: &Tensor) -> Tensor {
    let d = crate::geometry::distance_matrix(coords);
    let n = coords.dims()[0];
    let edges = distogram_edges();
    let mut out = Tensor::zeros(&[n, n, DISTOGRAM_BINS]);
    for i in 0..n {
        for j in 0..n {
            let dist = d.at(&[i, j]).expect("in range");
            let bin = edges
                .iter()
                .position(|&e| dist < e)
                .unwrap_or(DISTOGRAM_BINS - 1);
            out.data_mut()[(i * n + j) * DISTOGRAM_BINS + bin] = 1.0;
        }
    }
    out
}

/// One-hot relative-position features `[n, n, 2*RELPOS_K + 1]` from residue
/// indices.
pub fn relpos_one_hot(residue_index: &Tensor) -> Tensor {
    let n = residue_index.dims()[0];
    let w = 2 * RELPOS_K + 1;
    let mut out = Tensor::zeros(&[n, n, w]);
    for i in 0..n {
        for j in 0..n {
            let d = residue_index.data()[i] - residue_index.data()[j];
            let clipped = (d.round() as i64).clamp(-(RELPOS_K as i64), RELPOS_K as i64);
            let bin = (clipped + RELPOS_K as i64) as usize;
            out.data_mut()[(i * n + j) * w + bin] = 1.0;
        }
    }
    out
}

/// Initial MSA and pair representations from the raw features
/// (AlphaFold Algorithm 3). Returns `(m, z)`.
///
/// # Errors
///
/// Propagates shape errors (a mismatch indicates features inconsistent with
/// `cfg` — call [`FeatureBatch::validate`] first for a better message).
pub fn input_embedder(
    g: &mut Graph,
    store: &mut ParamStore,
    cfg: &ModelConfig,
    batch: &FeatureBatch,
) -> Result<(Var, Var)> {
    let msa_feat = g.constant(batch.msa_feat.clone());
    let target_feat = g.constant(batch.target_feat.clone());

    // m = linear(msa_feat) + linear(target_feat) broadcast over sequences.
    let m_msa = linear(g, store, &["embed"], "msa", cfg.c_m, msa_feat)?;
    let m_tgt = linear(g, store, &["embed"], "target_m", cfg.c_m, target_feat)?;
    let m_tgt_b = g.reshape(m_tgt, &[1, cfg.n_res, cfg.c_m])?;
    let m = g.add(m_msa, m_tgt_b)?;

    // z = a_i + b_j + relpos embedding.
    let a = linear(g, store, &["embed"], "target_zi", cfg.c_z, target_feat)?;
    let b = linear(g, store, &["embed"], "target_zj", cfg.c_z, target_feat)?;
    let a_col = g.reshape(a, &[cfg.n_res, 1, cfg.c_z])?;
    let b_row = g.reshape(b, &[1, cfg.n_res, cfg.c_z])?;
    let z0 = g.add(a_col, b_row)?;
    let relpos = g.constant(relpos_one_hot(&batch.residue_index));
    let rel_emb = linear(g, store, &["embed"], "relpos", cfg.c_z, relpos)?;
    let z = g.add(z0, rel_emb)?;
    Ok((m, z))
}

/// Previous-iteration values fed back by recycling (plain tensors —
/// recycling inputs are detached, as in AlphaFold training).
#[derive(Debug, Clone)]
pub struct RecycledState {
    /// First row of the previous MSA representation, `[n_res, c_m]`.
    pub m_first_row: Tensor,
    /// Previous pair representation, `[n_res, n_res, c_z]`.
    pub z: Tensor,
    /// Previous predicted Cα coordinates, `[n_res, 3]`.
    pub coords: Tensor,
}

/// The recycling embedder (AlphaFold Algorithm 32): injects the previous
/// iteration's embeddings and predicted geometry.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn recycling_embedder(
    g: &mut Graph,
    store: &mut ParamStore,
    cfg: &ModelConfig,
    m: Var,
    z: Var,
    prev: &RecycledState,
) -> Result<(Var, Var)> {
    // m[0] += LN(prev_m[0]): build a [S, R, c_m] delta that is zero on rows
    // 1..S.
    let prev_m = g.constant(prev.m_first_row.clone());
    let prev_m_ln = layer_norm(g, store, &["recycle"], "ln_m", prev_m)?;
    let row0 = g.reshape(prev_m_ln, &[1, cfg.n_res, cfg.c_m])?;
    let m2 = if cfg.n_seq > 1 {
        let zeros = g.constant(Tensor::zeros(&[cfg.n_seq - 1, cfg.n_res, cfg.c_m]));
        let delta = g.concat(&[row0, zeros], 0)?;
        g.add(m, delta)?
    } else {
        g.add(m, row0)?
    };

    // z += LN(prev_z) + distogram(prev_coords) embedding.
    let prev_z = g.constant(prev.z.clone());
    let prev_z_ln = layer_norm(g, store, &["recycle"], "ln_z", prev_z)?;
    let z2 = g.add(z, prev_z_ln)?;
    let disto = g.constant(distogram_one_hot(&prev.coords));
    let disto_emb = linear(g, store, &["recycle"], "distogram", cfg.c_z, disto)?;
    let z3 = g.add(z2, disto_emb)?;
    Ok((m2, z3))
}

/// The extra-MSA stack: embeds the unclustered MSA at width `c_e` and runs
/// `extra_msa_blocks` Evoformer blocks whose *pair* output feeds the main
/// stack. Returns the updated `z`.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn extra_msa_stack(
    g: &mut Graph,
    store: &mut ParamStore,
    cfg: &ModelConfig,
    batch: &FeatureBatch,
    z: Var,
) -> Result<Var> {
    if cfg.extra_msa_blocks == 0 {
        // No stack: skip the embedder too, so no dead parameters exist.
        return Ok(z);
    }
    let feat = g.constant(batch.extra_msa_feat.clone());
    let mut me = linear(g, store, &["extra_msa"], "embed", cfg.c_e, feat)?;
    let dims = BlockDims::extra(cfg);
    let mut z = z;
    for i in 0..cfg.extra_msa_blocks {
        // The extra stack uses *global* column attention (Algorithm 19, set
        // by `BlockDims::extra`): thousands of unclustered sequences make
        // full column attention prohibitively large. It runs unsharded.
        let prefix = format!("extra_msa.block{i}");
        let (m2, z2) = evoformer_block(g, store, &dims, &prefix, me, z, false, &LocalAxial(1))?;
        me = m2;
        z = z2;
    }
    Ok(z)
}

/// The template pair stack (AlphaFold Algorithms 16–17): embeds each
/// template's distogram features, refines each with pair-only Evoformer
/// blocks, then merges templates into `z` with **pointwise attention** —
/// for every residue pair `(i, j)`, a query derived from `z[i, j]` attends
/// over the `T` template embeddings at the same position, so informative
/// templates are weighted per pair rather than averaged.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn template_pair_stack(
    g: &mut Graph,
    store: &mut ParamStore,
    cfg: &ModelConfig,
    batch: &FeatureBatch,
    z: Var,
) -> Result<Var> {
    if cfg.n_templates == 0 {
        return Ok(z);
    }
    let feat = g.constant(batch.template_feat.clone());
    let dims = BlockDims::template(cfg);
    let mut refined = Vec::with_capacity(cfg.n_templates);
    for t in 0..cfg.n_templates {
        let ft = g.slice_axis(feat, 0, t, t + 1)?;
        let ft2 = g.reshape(ft, &[cfg.n_res, cfg.n_res, DISTOGRAM_BINS])?;
        let mut zt = linear(g, store, &["template"], "embed", cfg.c_t, ft2)?;
        for b in 0..cfg.template_blocks {
            zt = pair_block(g, store, &dims, &format!("template.block{b}"), zt)?;
        }
        let zt4 = g.reshape(zt, &[1, cfg.n_res, cfg.n_res, cfg.c_t])?;
        refined.push(zt4);
    }
    let stacked = g.concat(&refined, 0)?; // [T, R, R, c_t]
    let merged = template_pointwise_attention(g, store, cfg, z, stacked)?;
    g.add(z, merged)
}

/// Pointwise attention over templates (Algorithm 17): query from `z`
/// (shape `[R, R, c_z]`), keys/values from the refined template embeddings
/// (`[T, R, R, c_t]`), attending over the template axis independently for
/// every `(i, j)`.
fn template_pointwise_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    cfg: &ModelConfig,
    z: Var,
    templates: Var,
) -> Result<Var> {
    let heads = cfg.pair_heads.max(1);
    let d = cfg.c_hidden_pair.max(1);
    let hd = heads * d;

    let q = linear_no_bias(g, store, &["template"], "point_q", hd, z)?;
    let k = linear_no_bias(g, store, &["template"], "point_k", hd, templates)?;
    let v = linear_no_bias(g, store, &["template"], "point_v", hd, templates)?;
    // One query per pair [R, R, hd]; keys and values [T, R, R, hd] read in
    // place along the template axis.
    let views = HeadVars {
        q: HeadVar { src: q, axis: None },
        k: HeadVar {
            src: k,
            axis: Some(0),
        },
        v: HeadVar {
            src: v,
            axis: Some(0),
        },
        gate: None,
        heads,
        d,
    };
    let scale = 1.0 / (d as f32).sqrt();
    let att = g.attention_heads(views, None, None, scale)?; // [R, R, hd]
    linear(g, store, &["template"], "point_out", cfg.c_z, att)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relpos_one_hot_structure() {
        let idx = Tensor::arange(5);
        let r = relpos_one_hot(&idx);
        assert_eq!(r.dims(), &[5, 5, 2 * RELPOS_K + 1]);
        // Diagonal is the center bin.
        assert_eq!(r.at(&[2, 2, RELPOS_K]).unwrap(), 1.0);
        // i=4, j=0 -> offset +4.
        assert_eq!(r.at(&[4, 0, RELPOS_K + 4]).unwrap(), 1.0);
        // Each pair has exactly one hot bin.
        assert_eq!(r.sum_all(), 25.0);
    }

    #[test]
    fn relpos_clips_long_range() {
        let mut idx = Tensor::zeros(&[2]);
        idx.data_mut()[1] = 500.0;
        let r = relpos_one_hot(&idx);
        assert_eq!(r.at(&[1, 0, 2 * RELPOS_K]).unwrap(), 1.0);
        assert_eq!(r.at(&[0, 1, 0]).unwrap(), 1.0);
    }

    #[test]
    fn distogram_one_hot_bins() {
        let coords = Tensor::from_vec(vec![0.0, 0.0, 0.0, 100.0, 0.0, 0.0], &[2, 3]).unwrap();
        let d = distogram_one_hot(&coords);
        // Self-distance 0 -> first bin; 100 Å -> last bin.
        assert_eq!(d.at(&[0, 0, 0]).unwrap(), 1.0);
        assert_eq!(d.at(&[0, 1, DISTOGRAM_BINS - 1]).unwrap(), 1.0);
        assert_eq!(d.sum_all(), 4.0);
    }

    #[test]
    fn input_embedder_shapes() {
        let cfg = ModelConfig::tiny();
        let batch = FeatureBatch::synthetic(&cfg, 1);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let (m, z) = input_embedder(&mut g, &mut store, &cfg, &batch).unwrap();
        assert_eq!(g.value(m).dims(), &[cfg.n_seq, cfg.n_res, cfg.c_m]);
        assert_eq!(g.value(z).dims(), &[cfg.n_res, cfg.n_res, cfg.c_z]);
        assert!(!g.value(m).has_non_finite());
    }

    #[test]
    fn recycling_embedder_adds_information() {
        let cfg = ModelConfig::tiny();
        let batch = FeatureBatch::synthetic(&cfg, 2);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let (m, z) = input_embedder(&mut g, &mut store, &cfg, &batch).unwrap();
        let prev = RecycledState {
            m_first_row: Tensor::randn(&[cfg.n_res, cfg.c_m], 3),
            z: Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 4),
            coords: batch.true_coords.clone(),
        };
        let (m2, z2) = recycling_embedder(&mut g, &mut store, &cfg, m, z, &prev).unwrap();
        assert_eq!(g.value(m2).dims(), g.value(m).dims());
        assert!(!g.value(m2).allclose(g.value(m), 1e-7));
        assert!(!g.value(z2).allclose(g.value(z), 1e-7));
        // Rows 1.. of m must be unchanged (only row 0 receives recycled MSA).
        let before = g.value(m).slice_axis(0, 1, cfg.n_seq).unwrap();
        let after = g.value(m2).slice_axis(0, 1, cfg.n_seq).unwrap();
        assert!(before.allclose(&after, 1e-6));
    }

    #[test]
    fn extra_msa_and_template_stacks_update_pair() {
        let cfg = ModelConfig::tiny();
        let batch = FeatureBatch::synthetic(&cfg, 5);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let (_, z) = input_embedder(&mut g, &mut store, &cfg, &batch).unwrap();
        let z1 = extra_msa_stack(&mut g, &mut store, &cfg, &batch, z).unwrap();
        assert!(!g.value(z1).allclose(g.value(z), 1e-7));
        let z2 = template_pair_stack(&mut g, &mut store, &cfg, &batch, z1).unwrap();
        assert!(!g.value(z2).allclose(g.value(z1), 1e-7));
        assert_eq!(g.value(z2).dims(), &[cfg.n_res, cfg.n_res, cfg.c_z]);
    }
}
