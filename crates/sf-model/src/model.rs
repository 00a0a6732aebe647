//! The full AlphaFold model: embedders → Evoformer stack → structure module,
//! wrapped in the recycling loop.

use crate::config::ModelConfig;
use crate::dap::{AxialCollectives, LocalAxial};
use crate::embed::{
    extra_msa_stack, input_embedder, recycling_embedder, template_pair_stack, RecycledState,
};
use crate::evoformer::{evoformer_block, BlockDims};
use crate::features::FeatureBatch;
use crate::loss::{total_loss, LossBreakdown};
use crate::structure::structure_module;
use sf_autograd::{Graph, ParamStore, Result, Var};
use sf_tensor::Tensor;

/// Result of one full forward pass (one training step's compute for one
/// sample).
#[derive(Debug, Clone)]
pub struct ModelOutput {
    /// Final MSA representation, `[n_seq, n_res, c_m]`.
    pub msa: Var,
    /// Final pair representation, `[n_res, n_res, c_z]`.
    pub pair: Var,
    /// Final single representation, `[n_res, c_s]`.
    pub single: Var,
    /// Predicted Cα coordinates, `[n_res, 3]`.
    pub coords: Var,
    /// Total training loss (scalar variable — call `Graph::backward` on it).
    pub loss: Var,
    /// Scalar loss terms for logging.
    pub loss_breakdown: LossBreakdown,
}

/// The AlphaFold model. Owns only the configuration; parameters live in the
/// caller's [`ParamStore`] so they persist across steps and can be shared
/// with optimizers.
///
/// # Example
///
/// ```
/// use sf_autograd::{Graph, ParamStore};
/// use sf_model::{AlphaFold, FeatureBatch, ModelConfig};
///
/// # fn main() -> Result<(), sf_autograd::AutogradError> {
/// let cfg = ModelConfig::tiny();
/// let model = AlphaFold::new(cfg.clone());
/// let batch = FeatureBatch::synthetic(&cfg, 0);
/// let mut store = ParamStore::new();
/// let mut g = Graph::new();
/// let out = model.forward(&mut g, &mut store, &batch)?;
/// g.backward(out.loss)?;
/// assert!(out.loss_breakdown.total.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AlphaFold {
    cfg: ModelConfig,
}

impl AlphaFold {
    /// Creates a model for the given configuration.
    pub fn new(cfg: ModelConfig) -> Self {
        AlphaFold { cfg }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Full forward pass **including recycling**: runs
    /// `cfg.recycle_iters - 1` warm iterations without gradient tracking
    /// (their tapes are discarded — AlphaFold only backpropagates the last
    /// iteration), then the final iteration on `g`, attaching the loss.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors; validate the batch first with
    /// [`FeatureBatch::validate`] for friendlier messages.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &mut ParamStore,
        batch: &FeatureBatch,
    ) -> Result<ModelOutput> {
        self.forward_dap(g, store, batch, None)
    }

    /// [`AlphaFold::forward`] under **Dynamic Axial Parallelism**: every
    /// main-stack [`evoformer_block`] runs on the executor's ranks — axial
    /// attentions on activation shards, axis switches through its real
    /// all-to-all / all-gather. The extra-MSA and template stacks stay
    /// unsharded (their axial dimensions are the model's smallest; FastFold
    /// likewise applies DAP to the main Evoformer). `None` means the
    /// one-rank executor [`LocalAxial`]`(1)`, which is the plain forward;
    /// any other 1-rank executor gives the same tape.
    ///
    /// # Errors
    ///
    /// Returns [`sf_autograd::AutogradError::UnevenShard`] if `n_seq` or
    /// `n_res` does not divide across the executor's ranks; propagates
    /// tensor shape errors and collective-executor value mismatches.
    pub fn forward_dap(
        &self,
        g: &mut Graph,
        store: &mut ParamStore,
        batch: &FeatureBatch,
        dap: Option<&dyn AxialCollectives>,
    ) -> Result<ModelOutput> {
        let dap = dap.unwrap_or(&LocalAxial(1));
        let mut prev: Option<RecycledState> = None;
        // Warm (no-grad) recycling iterations on throwaway tapes. DAP
        // shards these too: every recycling iteration pays the same
        // communication the final one does.
        for _ in 1..self.cfg.recycle_iters.max(1) {
            let mut warm = Graph::new();
            let (m, z, coords, _) = self.iteration(&mut warm, store, batch, prev.as_ref(), dap)?;
            let m0 = warm
                .value(m)
                .slice_axis(0, 0, 1)?
                .reshape(&[self.cfg.n_res, self.cfg.c_m])?;
            prev = Some(RecycledState {
                m_first_row: m0,
                z: warm.value(z).clone(),
                coords: warm.value(coords).clone(),
            });
        }
        // Final iteration with gradients.
        let (m, z, coords, plddt) = self.iteration(g, store, batch, prev.as_ref(), dap)?;
        let single = {
            // Re-derive the single representation handle for downstream use.
            let m0 = g.slice_axis(m, 0, 0, 1)?;
            g.reshape(m0, &[self.cfg.n_res, self.cfg.c_m])?
        };
        let (loss, loss_breakdown) =
            total_loss(g, store, &self.cfg, m, z, coords, Some(plddt), batch)?;
        Ok(ModelOutput {
            msa: m,
            pair: z,
            single,
            coords,
            loss,
            loss_breakdown,
        })
    }

    /// One recycling iteration: embed → (recycle inject) → extra-MSA stack →
    /// template stack → Evoformer stack → structure module.
    fn iteration(
        &self,
        g: &mut Graph,
        store: &mut ParamStore,
        batch: &FeatureBatch,
        prev: Option<&RecycledState>,
        dap: &dyn AxialCollectives,
    ) -> Result<(Var, Var, Var, Var)> {
        let cfg = &self.cfg;
        let (mut m, mut z) = input_embedder(g, store, cfg, batch)?;
        let prev_state;
        let prev = match prev {
            Some(p) => p,
            None => {
                // First iteration recycles zeros (AlphaFold's convention).
                prev_state = RecycledState {
                    m_first_row: Tensor::zeros(&[cfg.n_res, cfg.c_m]),
                    z: Tensor::zeros(&[cfg.n_res, cfg.n_res, cfg.c_z]),
                    coords: Tensor::zeros(&[cfg.n_res, 3]),
                };
                &prev_state
            }
        };
        let (m2, z2) = recycling_embedder(g, store, cfg, m, z, prev)?;
        m = m2;
        z = z2;
        z = template_pair_stack(g, store, cfg, batch, z)?;
        z = extra_msa_stack(g, store, cfg, batch, z)?;

        let dims = BlockDims::main(cfg);
        for i in 0..cfg.evoformer_blocks {
            let prefix = format!("evoformer.block{i}");
            let ckpt = cfg.gradient_checkpointing;
            let (m2, z2) = evoformer_block(g, store, &dims, &prefix, m, z, ckpt, dap)?;
            m = m2;
            z = z2;
        }
        let s = structure_module(g, store, cfg, m, z)?;
        Ok((m, z, s.coords, s.plddt_logits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::lddt_ca;

    #[test]
    fn forward_produces_finite_outputs() {
        let cfg = ModelConfig::tiny();
        let model = AlphaFold::new(cfg.clone());
        let batch = FeatureBatch::synthetic(&cfg, 1);
        batch.validate(&cfg).unwrap();
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let out = model.forward(&mut g, &mut store, &batch).unwrap();
        assert_eq!(g.value(out.coords).dims(), &[cfg.n_res, 3]);
        assert!(!g.value(out.coords).has_non_finite());
        assert!(out.loss_breakdown.total.is_finite());
        assert!(out.loss_breakdown.total > 0.0);
    }

    #[test]
    fn backward_reaches_every_parameter() {
        let cfg = ModelConfig::tiny();
        let model = AlphaFold::new(cfg.clone());
        let batch = FeatureBatch::synthetic(&cfg, 2);
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let out = model.forward(&mut g, &mut store, &batch).unwrap();
        g.backward(out.loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        let mut missing = Vec::new();
        for name in store.names() {
            if !grads.contains_key(&name) {
                missing.push(name);
            }
        }
        assert!(missing.is_empty(), "params without grads: {missing:?}");
    }

    #[test]
    fn recycling_changes_prediction() {
        let mut cfg = ModelConfig::tiny();
        let batch = FeatureBatch::synthetic(&cfg, 3);
        let mut store = ParamStore::new();

        cfg.recycle_iters = 1;
        let m1 = AlphaFold::new(cfg.clone());
        let mut g1 = Graph::new();
        let o1 = m1.forward(&mut g1, &mut store, &batch).unwrap();

        cfg.recycle_iters = 2;
        let m2 = AlphaFold::new(cfg);
        let mut g2 = Graph::new();
        let o2 = m2.forward(&mut g2, &mut store, &batch).unwrap();

        assert!(!g1.value(o1.coords).allclose(g2.value(o2.coords), 1e-7));
    }

    #[test]
    fn checkpointed_model_matches_plain() {
        let mut cfg = ModelConfig::tiny();
        cfg.evoformer_blocks = 1;
        cfg.extra_msa_blocks = 0;
        cfg.template_blocks = 0;
        cfg.n_templates = 0;
        let batch = {
            let mut b = FeatureBatch::synthetic(&cfg, 4);
            b.template_feat = Tensor::zeros(&[0, cfg.n_res, cfg.n_res, 15]);
            b
        };
        let mut store = ParamStore::new();

        cfg.gradient_checkpointing = false;
        let plain = AlphaFold::new(cfg.clone());
        let mut g1 = Graph::new();
        let o1 = plain.forward(&mut g1, &mut store, &batch).unwrap();
        g1.backward(o1.loss).unwrap();
        let grads1 = g1.grads_by_name().unwrap();

        cfg.gradient_checkpointing = true;
        let ck = AlphaFold::new(cfg);
        let mut g2 = Graph::new();
        let o2 = ck.forward(&mut g2, &mut store, &batch).unwrap();
        g2.backward(o2.loss).unwrap();
        let grads2 = g2.grads_by_name().unwrap();

        // Same loss, same gradients, less activation memory.
        assert!((o1.loss_breakdown.total - o2.loss_breakdown.total).abs() < 1e-4);
        for (name, ga) in &grads1 {
            let gb = &grads2[name];
            assert!(ga.allclose(gb, 1e-3), "grad mismatch for {name}");
        }
        assert!(g2.activation_bytes() < g1.activation_bytes());
    }

    #[test]
    fn uneven_dap_split_is_an_error_not_a_panic() {
        // tiny has n_seq = 4: five ranks cannot shard the MSA.
        let cfg = ModelConfig::tiny();
        let model = AlphaFold::new(cfg.clone());
        let batch = FeatureBatch::synthetic(&cfg, 6);
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let err = model
            .forward_dap(&mut g, &mut store, &batch, Some(&LocalAxial(5)))
            .unwrap_err();
        assert_eq!(
            err,
            sf_autograd::AutogradError::UnevenShard {
                axis_len: cfg.n_seq,
                ranks: 5
            }
        );
    }

    #[test]
    fn untrained_model_scores_low_lddt() {
        let cfg = ModelConfig::tiny();
        let model = AlphaFold::new(cfg.clone());
        let batch = FeatureBatch::synthetic(&cfg, 5);
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let out = model.forward(&mut g, &mut store, &batch).unwrap();
        let score = lddt_ca(g.value(out.coords), &batch.true_coords, &batch.residue_mask);
        assert!(score < 0.6, "untrained lddt {score}");
    }
}
