//! Dynamic Axial Parallelism plumbing on the model side (ScaleFold §3.3,
//! after FastFold).
//!
//! DAP shards the Evoformer's big activations along one *axial* dimension
//! — the sequence axis `S` for MSA row attention, the residue axis `R`
//! for everything column-wise — runs attention on the shards, and switches
//! the sharded axis with an all-to-all when the next module attends the
//! other axis. The crate dependency chain forbids `sf-model` from calling
//! `sf-cluster`'s functional collectives directly (`sf-cluster` depends on
//! this crate via `sf-opgraph`), so the *executor* is injected through the
//! [`AxialCollectives`] trait: the `scalefold::dap::DapGroup`
//! implementation routes these calls to the real ring collectives and
//! records per-collective traffic stats.
//!
//! There is one Evoformer block, [`crate::evoformer::evoformer_block`],
//! and it always runs through an executor. [`LocalAxial`]`(1)` is the
//! production one-rank executor: at one rank [`dap_scatter`] and
//! [`dap_all_gather`] add no tape node and [`dap_axis_switch`] is a plain
//! transpose, so the unsharded model is the one-rank case of the sharded
//! one ([`crate::AlphaFold::forward`] and the extra-MSA and template stacks
//! run that way).
//!
//! The tape stays self-consistent: collective outputs enter the graph via
//! [`Graph::concat_external`], which verifies the executor's buffer
//! bitwise against the mathematical concatenation and reuses the exact
//! concat backward (slicing). Data movement therefore differentiates
//! correctly no matter what transport produced it.

use sf_autograd::{AutogradError, Graph, Result, Var};
use sf_tensor::Tensor;

/// Executor for DAP's two collectives, operating on rank-local flat
/// buffers. Implementations may actually move data (the real ring
/// collectives in `scalefold::dap`) or just rearrange it locally
/// ([`LocalAxial`]).
pub trait AxialCollectives {
    /// Number of DAP ranks (shards). `1` disables all communication.
    fn ranks(&self) -> usize;

    /// All-gather: returns the concatenation of all shards in rank order
    /// (every rank receives the same buffer).
    fn gather_buffers(&self, shards: &[Vec<f32>]) -> Vec<f32>;

    /// All-to-all: output `r` is the concatenation over source ranks `c`
    /// of input `c`'s chunk `r`, with chunk boundaries at `c·len/n`.
    fn exchange_buffers(&self, inputs: &[Vec<f32>]) -> Vec<Vec<f32>>;
}

/// Local executor: performs the collectives as local copies. Semantics
/// match `sf_cluster::collective::{all_gather, all_to_all}` exactly.
/// `LocalAxial(1)` is the one-rank executor every unsharded block runs
/// with (it is never called at one rank); larger rank counts serve
/// sf-model's own tests, which cannot depend on `sf-cluster`.
#[derive(Debug, Clone, Copy)]
pub struct LocalAxial(pub usize);

impl AxialCollectives for LocalAxial {
    fn ranks(&self) -> usize {
        self.0
    }

    fn gather_buffers(&self, shards: &[Vec<f32>]) -> Vec<f32> {
        let mut full = Vec::with_capacity(shards.iter().map(Vec::len).sum());
        for s in shards {
            full.extend_from_slice(s);
        }
        full
    }

    fn exchange_buffers(&self, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let n = inputs.len();
        let len = inputs[0].len();
        let starts: Vec<usize> = (0..=n).map(|c| c * len / n).collect();
        (0..n)
            .map(|r| {
                inputs
                    .iter()
                    .flat_map(|input| input[starts[r]..starts[r + 1]].to_vec())
                    .collect()
            })
            .collect()
    }
}

/// Scatters `x` into `ranks` equal shards along axis 0 (tape slices; the
/// inputs are replicated on every rank, so the scatter moves no data). At
/// one rank this returns `[x]` and adds no tape node.
///
/// # Errors
///
/// Returns [`AutogradError::UnevenShard`] if `ranks` is zero or does not
/// divide `dims[0]`; propagates tape errors from the slice ops.
pub fn dap_scatter(g: &mut Graph, x: Var, ranks: usize) -> Result<Vec<Var>> {
    let d0 = g.value(x).dims()[0];
    if ranks == 0 || !d0.is_multiple_of(ranks) {
        return Err(AutogradError::UnevenShard {
            axis_len: d0,
            ranks,
        });
    }
    if ranks == 1 {
        return Ok(vec![x]);
    }
    let rows = d0 / ranks;
    (0..ranks)
        .map(|r| g.slice_axis(x, 0, r * rows, (r + 1) * rows))
        .collect()
}

/// All-gathers axis-0 shards into the replicated full tensor. The gathered
/// buffer comes from the executor and is adopted into the tape via the
/// verified external concat; backward is the exact adjoint (slicing).
///
/// # Errors
///
/// Propagates tape errors; fails if the executor's buffer mismatches the
/// mathematical concatenation.
pub fn dap_all_gather(g: &mut Graph, dap: &dyn AxialCollectives, shards: &[Var]) -> Result<Var> {
    let n = dap.ranks();
    assert_eq!(shards.len(), n, "one shard per DAP rank");
    if n == 1 {
        return Ok(shards[0]);
    }
    let bufs: Vec<Vec<f32>> = shards.iter().map(|&s| g.value(s).data().to_vec()).collect();
    let full = dap.gather_buffers(&bufs);
    let mut dims = g.value(shards[0]).dims().to_vec();
    dims[0] *= n;
    let value = Tensor::from_vec(full, &dims)?;
    g.concat_external(shards, 0, value)
}

/// The DAP **axis switch**: shards `[A/k, B, ...]` (sharded along `A`)
/// become shards `[B/k, A, ...]` (sharded along `B`), i.e. the attended
/// axis moves to position 1 of each shard with the shard axis swapping to
/// the other axial dimension — one all-to-all instead of a gather plus a
/// re-scatter.
///
/// Each rank transposes its shard to `[B, A/k, ...]`, the all-to-all
/// exchanges row-blocks of `B`, and a local reshape/permute restores `A`
/// to contiguous order. With `k = 1` this degenerates to a plain
/// transpose and no executor call is made.
///
/// # Errors
///
/// Returns [`AutogradError::UnevenShard`] if `B` is not divisible by the
/// rank count; propagates tape errors; fails if the executor's buffers
/// mismatch the mathematical exchange.
pub fn dap_axis_switch(
    g: &mut Graph,
    dap: &dyn AxialCollectives,
    shards: &[Var],
) -> Result<Vec<Var>> {
    let n = dap.ranks();
    assert_eq!(shards.len(), n, "one shard per DAP rank");
    let d = g.value(shards[0]).dims().to_vec();
    assert!(d.len() >= 2, "axis switch needs at least two axes");
    let (a_k, b) = (d[0], d[1]);
    if !b.is_multiple_of(n) {
        return Err(AutogradError::UnevenShard {
            axis_len: b,
            ranks: n,
        });
    }
    let b_k = b / n;

    // Per-rank transpose so the flat buffer is row-major in the axis the
    // exchange splits: [A/k, B, ...] -> [B, A/k, ...].
    let mut perm: Vec<usize> = (0..d.len()).collect();
    perm.swap(0, 1);
    let pre: Vec<Var> = shards
        .iter()
        .map(|&s| g.permute(s, &perm))
        .collect::<Result<_>>()?;
    if n == 1 {
        return Ok(pre);
    }

    let bufs: Vec<Vec<f32>> = pre.iter().map(|&p| g.value(p).data().to_vec()).collect();
    let outs = dap.exchange_buffers(&bufs);

    let mut result = Vec::with_capacity(n);
    for (r, out_buf) in outs.into_iter().enumerate() {
        // Tape expression of the exchange: rank r's output is the concat
        // over sources of their r-th row-block. The even split guarantees
        // the collective's c·len/n chunk boundaries fall exactly on
        // row-block boundaries, so the external buffer matches bitwise.
        let slices: Vec<Var> = pre
            .iter()
            .map(|&p| g.slice_axis(p, 0, r * b_k, (r + 1) * b_k))
            .collect::<Result<_>>()?;
        let mut cat_dims = vec![n * b_k, a_k];
        cat_dims.extend_from_slice(&d[2..]);
        let value = Tensor::from_vec(out_buf, &cat_dims)?;
        let cat = g.concat_external(&slices, 0, value)?;
        // [n, B/k, A/k, ...] -> [B/k, n, A/k, ...] -> [B/k, A, ...]:
        // interleave the source-rank axis back into contiguous A order.
        let mut d4 = vec![n, b_k, a_k];
        d4.extend_from_slice(&d[2..]);
        let r4 = g.reshape(cat, &d4)?;
        let mut perm4: Vec<usize> = vec![1, 0, 2];
        perm4.extend(3..d4.len());
        let p4 = g.permute(r4, &perm4)?;
        let mut out_dims = vec![b_k, n * a_k];
        out_dims.extend_from_slice(&d[2..]);
        result.push(g.reshape(p4, &out_dims)?);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(g: &mut Graph, t: Tensor) -> Var {
        g.constant(t)
    }

    #[test]
    fn scatter_gather_round_trips() {
        let mut g = Graph::new();
        let t = Tensor::randn(&[6, 4, 3], 11);
        let x = var(&mut g, t.clone());
        for k in [1usize, 2, 3, 6] {
            let dap = LocalAxial(k);
            let shards = dap_scatter(&mut g, x, k).unwrap();
            let back = dap_all_gather(&mut g, &dap, &shards).unwrap();
            assert_eq!(g.value(back).dims(), t.dims());
            assert_eq!(g.value(back).data(), t.data());
        }
    }

    #[test]
    fn axis_switch_is_a_sharded_transpose() {
        // Gathering the switched shards must equal the plain transpose of
        // the full tensor, for every rank count that divides both axes.
        let t = Tensor::randn(&[4, 8, 3], 13);
        for k in [1usize, 2, 4] {
            let mut g = Graph::new();
            let x = var(&mut g, t.clone());
            let dap = LocalAxial(k);
            let shards = dap_scatter(&mut g, x, k).unwrap();
            let switched = dap_axis_switch(&mut g, &dap, &shards).unwrap();
            assert_eq!(g.value(switched[0]).dims(), &[8 / k, 4, 3]);
            let full = dap_all_gather(&mut g, &dap, &switched).unwrap();
            let expect = g.permute(x, &[1, 0, 2]).unwrap();
            assert_eq!(
                g.value(full).data(),
                g.value(expect).data(),
                "k={k}: switch+gather != transpose"
            );
        }
    }

    #[test]
    fn axis_switch_backward_is_exact() {
        // d(sum(switch(x)))/dx must be all-ones: the switch is a pure
        // data movement, so gradients flow through untouched.
        let mut g = Graph::new();
        let x = g.param(Tensor::randn(&[4, 4, 2], 17));
        let dap = LocalAxial(2);
        let shards = dap_scatter(&mut g, x, 2).unwrap();
        let switched = dap_axis_switch(&mut g, &dap, &shards).unwrap();
        let full = dap_all_gather(&mut g, &dap, &switched).unwrap();
        let loss = g.sum_all(full).unwrap();
        g.backward(loss).unwrap();
        let grad = g.grad(x).expect("leaf grad");
        assert!(grad.data().iter().all(|&v| (v - 1.0).abs() < 1e-7));
    }

    #[test]
    fn scatter_rejects_uneven_axis() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::randn(&[5, 4], 1));
        let err = dap_scatter(&mut g, x, 2).unwrap_err();
        assert_eq!(
            err,
            AutogradError::UnevenShard {
                axis_len: 5,
                ranks: 2
            }
        );
        assert!(err.to_string().contains("length 5"), "{err}");
        assert!(err.to_string().contains("2 DAP ranks"), "{err}");
    }

    #[test]
    fn axis_switch_rejects_uneven_axis() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::randn(&[4, 5, 2], 3));
        let shards = dap_scatter(&mut g, x, 2).unwrap();
        let err = dap_axis_switch(&mut g, &LocalAxial(2), &shards).unwrap_err();
        assert_eq!(
            err,
            AutogradError::UnevenShard {
                axis_len: 5,
                ranks: 2
            }
        );
    }

    #[test]
    fn one_rank_scatter_is_the_input_and_adds_no_node() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::randn(&[3, 4], 2));
        let len = g.len();
        let shards = dap_scatter(&mut g, x, 1).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0], x);
        assert_eq!(g.len(), len, "one-rank scatter must not touch the tape");
    }
}
