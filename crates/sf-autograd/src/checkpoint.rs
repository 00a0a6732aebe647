//! Gradient checkpointing: trade recomputation for activation memory.
//!
//! OpenFold depends on gradient checkpointing to fit AlphaFold's `O(n³)`
//! Evoformer activations in GPU memory; ScaleFold's DAP sharding frees
//! enough memory to *disable* it, removing the backward-pass recomputation
//! (§4.1). This module implements the real mechanism so both configurations
//! are runnable and comparable (see `Graph::activation_bytes`).

use crate::graph::{Graph, Var};
use crate::op::Op;
use crate::Result;
use sf_tensor::Tensor;
use std::rc::Rc;

/// A checkpointed segment: rebuilds its sub-network from input values.
///
/// The closure must be *pure* (same inputs ⇒ same outputs) — the usual
/// checkpointing contract.
pub(crate) type CheckpointFn = dyn Fn(&mut Graph, &[Var]) -> Result<Var>;

impl Graph {
    /// Runs `f` as a checkpointed segment.
    ///
    /// Forward: `f` executes on a scratch tape that is thrown away — only
    /// the segment's *output* is stored on this tape (one node), so the
    /// segment's intermediate activations cost no persistent memory.
    /// Backward: `f` is re-executed on a fresh scratch tape and
    /// differentiated to obtain input cotangents.
    ///
    /// # Errors
    ///
    /// Propagates any error from `f` or from the underlying tensor ops.
    ///
    /// # Example
    ///
    /// ```
    /// use sf_autograd::Graph;
    /// use sf_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), sf_autograd::AutogradError> {
    /// let mut g = Graph::new();
    /// let x = g.param(Tensor::from_vec(vec![3.0], &[1])?);
    /// let y = g.checkpoint(&[x], |sub, ins| {
    ///     let sq = sub.square(ins[0])?;
    ///     sub.scale(sq, 2.0) // y = 2 x^2
    /// })?;
    /// let loss = g.sum_all(y)?;
    /// g.backward(loss)?;
    /// assert_eq!(g.grad(x).expect("grad").data(), &[12.0]); // 4x
    /// # Ok(())
    /// # }
    /// ```
    pub fn checkpoint(
        &mut self,
        inputs: &[Var],
        f: impl Fn(&mut Graph, &[Var]) -> Result<Var> + 'static,
    ) -> Result<Var> {
        for &v in inputs {
            self.check(v)?;
        }
        let input_values: Vec<Tensor> = inputs.iter().map(|&v| self.value(v).clone()).collect();
        let f: Rc<CheckpointFn> = Rc::new(f);
        // Forward on a scratch tape; keep only the output value.
        let out_value = run_segment(&f, &input_values)?.0;
        Ok(self.push(
            out_value,
            Op::Checkpoint {
                inputs: inputs.to_vec(),
                f,
            },
        ))
    }
}

/// Executes a segment on a fresh tape; returns `(output_value, tape, vars)`.
fn run_segment(
    f: &Rc<CheckpointFn>,
    input_values: &[Tensor],
) -> Result<(Tensor, Graph, Vec<Var>, Var)> {
    let mut sub = Graph::new();
    let vars: Vec<Var> = input_values.iter().map(|t| sub.param(t.clone())).collect();
    let out = f(&mut sub, &vars)?;
    Ok((sub.value(out).clone(), sub, vars, out))
}

/// Re-runs a checkpointed segment and differentiates it, returning one
/// optional gradient per input (None if no gradient flowed).
pub(crate) fn checkpoint_backward(
    f: &Rc<CheckpointFn>,
    input_values: &[Tensor],
    dy: Tensor,
) -> Result<Vec<Option<Tensor>>> {
    let (_, mut sub, vars, out) = run_segment(f, input_values)?;
    sub.backward_seeded(out, dy)?;
    Ok(vars.iter().map(|&v| sub.grad(v).cloned()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_matches_direct() {
        // y = sum( gelu(x W) ) computed directly and checkpointed.
        let x0 = Tensor::randn(&[3, 4], 1);
        let w0 = Tensor::randn(&[4, 5], 2);

        let mut direct = Graph::new();
        let x = direct.param(x0.clone());
        let w = direct.param(w0.clone());
        let h = direct.matmul(x, w).unwrap();
        let a = direct.gelu(h).unwrap();
        let loss = direct.sum_all(a).unwrap();
        direct.backward(loss).unwrap();

        let mut ck = Graph::new();
        let xc = ck.param(x0.clone());
        let wc = ck.param(w0.clone());
        let out = ck
            .checkpoint(&[xc, wc], |sub, ins| {
                let h = sub.matmul(ins[0], ins[1])?;
                sub.gelu(h)
            })
            .unwrap();
        let loss_c = ck.sum_all(out).unwrap();
        ck.backward(loss_c).unwrap();

        assert!(direct.grad(x).unwrap().allclose(ck.grad(xc).unwrap(), 1e-5));
        assert!(direct.grad(w).unwrap().allclose(ck.grad(wc).unwrap(), 1e-5));
    }

    #[test]
    fn checkpoint_reduces_activation_memory() {
        let x0 = Tensor::randn(&[16, 16], 3);
        let build = |g: &mut Graph, x: Var| -> Var {
            let mut h = x;
            for _ in 0..8 {
                h = g.gelu(h).unwrap();
                h = g.square(h).unwrap();
            }
            h
        };
        let mut direct = Graph::new();
        let xd = direct.param(x0.clone());
        let _ = build(&mut direct, xd);
        let direct_bytes = direct.activation_bytes();

        let mut ck = Graph::new();
        let xc = ck.param(x0.clone());
        let _ = ck
            .checkpoint(&[xc], move |sub, ins| {
                let mut h = ins[0];
                for _ in 0..8 {
                    h = sub.gelu(h)?;
                    h = sub.square(h)?;
                }
                Ok(h)
            })
            .unwrap();
        let ck_bytes = ck.activation_bytes();
        assert!(
            ck_bytes * 8 <= direct_bytes,
            "checkpointed {ck_bytes} vs direct {direct_bytes}"
        );
    }

    #[test]
    fn nested_checkpoints() {
        let x0 = Tensor::randn(&[4], 4);
        let mut g = Graph::new();
        let x = g.param(x0.clone());
        let y = g
            .checkpoint(&[x], |sub, ins| {
                let inner = sub.checkpoint(ins, |s2, jns| s2.square(jns[0]))?;
                s_scale(sub, inner, 3.0)
            })
            .unwrap();
        let loss = g.sum_all(y).unwrap();
        g.backward(loss).unwrap();
        // d/dx 3x^2 = 6x
        let expect = x0.mul_scalar(6.0);
        assert!(g.grad(x).unwrap().allclose(&expect, 1e-5));
    }

    fn s_scale(g: &mut Graph, v: Var, s: f32) -> crate::Result<Var> {
        g.scale(v, s)
    }
}
