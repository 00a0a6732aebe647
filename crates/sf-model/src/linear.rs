//! Named layers: linear and LayerNorm, each a function that binds its
//! parameters from a [`ParamStore`] (creating them on first use) and
//! applies them.
//!
//! A layer's input width is read from its input, so only output widths are
//! passed. A parameter's name is passed as parts — the caller's prefix, then
//! the layer's own name and the parameter's — and `bind_param` joins them
//! with `.` in a buffer it reuses, so binding an existing layer formats no
//! string.

use sf_autograd::{Graph, ParamStore, Result, Var};
use sf_tensor::Tensor;
use std::cell::Cell;

/// Splits a seed deterministically per name, given as parts joined with `.`
/// (the per-parameter init seed and the per-module dropout seed).
pub(crate) fn name_seed(name: &[&str]) -> u64 {
    // FNV-1a over the joined name: stable across runs and platforms.
    let mut h: u64 = 0xcbf29ce484222325;
    for (i, part) in name.iter().enumerate() {
        let dot = if i > 0 { "." } else { "" };
        for b in dot.bytes().chain(part.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Binds the parameter named by `prefix`'s parts and then `name`'s, joined
/// with `.` (`&["evoformer.block0", "msa_row"]` and `&["q", "weight"]` name
/// `evoformer.block0.msa_row.q.weight`), initialized by `init` (given the
/// joined name) on first use. The name is joined in a buffer reused across
/// calls on this thread, so binding an existing parameter allocates only the
/// leaf's copy of it.
pub(crate) fn bind_param(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &[&str],
    name: &[&str],
    init: impl FnOnce(&str) -> Tensor,
) -> Var {
    thread_local! {
        static NAME: Cell<String> = const { Cell::new(String::new()) };
    }
    let mut joined = NAME.take();
    joined.clear();
    for (i, part) in prefix.iter().chain(name).enumerate() {
        if i > 0 {
            joined.push('.');
        }
        joined.push_str(part);
    }
    let var = g.use_param_or_init(store, &joined, || init(&joined));
    NAME.set(joined);
    var
}

/// The width of `x`'s last axis: the input width of a layer applied to it.
pub(crate) fn width(g: &Graph, x: Var) -> usize {
    g.value(x).dims().last().copied().unwrap_or(0)
}

/// Binds the `[out_dim, in_dim]` weight `"{prefix}.{name}.weight"`,
/// LeCun-normal initialized on first use.
fn bind_weight(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &[&str],
    name: &str,
    in_dim: usize,
    out_dim: usize,
) -> Var {
    bind_param(g, store, prefix, &[name, "weight"], |w| {
        Tensor::lecun_normal(&[out_dim, in_dim], in_dim, name_seed(&[w]))
    })
}

/// Binds the weight and the zero-initialized bias of the linear layer
/// `"{prefix}.{name}"`, in that order, as [`linear`] does.
pub fn bind_linear(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &[&str],
    name: &str,
    in_dim: usize,
    out_dim: usize,
) -> (Var, Var) {
    let w = bind_weight(g, store, prefix, name, in_dim, out_dim);
    let b = bind_param(g, store, prefix, &[name, "bias"], |_| {
        Tensor::zeros(&[out_dim])
    });
    (w, b)
}

/// Applies the linear layer `"{prefix}.{name}"`, `y = x Wᵀ + b`, to `x` of
/// shape `[..., in]`, giving `[..., out_dim]`; `in` is `x`'s last axis.
///
/// # Errors
///
/// Returns a shape error if the layer exists with another input width.
pub fn linear(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &[&str],
    name: &str,
    out_dim: usize,
    x: Var,
) -> Result<Var> {
    let (w, b) = bind_linear(g, store, prefix, name, width(g, x), out_dim);
    g.linear(x, w, Some(b))
}

/// [`linear`] without a bias, `y = x Wᵀ` (AlphaFold's attention
/// projections).
///
/// # Errors
///
/// Returns a shape error if the layer exists with another input width.
pub fn linear_no_bias(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &[&str],
    name: &str,
    out_dim: usize,
    x: Var,
) -> Result<Var> {
    let w = bind_weight(g, store, prefix, name, width(g, x), out_dim);
    g.linear(x, w, None)
}

/// Applies the LayerNorm `"{prefix}.{name}"` (`gamma` ones and `beta`
/// zeros on first use) over the last axis of `x`.
///
/// # Errors
///
/// Returns a shape error if the LayerNorm exists with another width.
pub fn layer_norm(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &[&str],
    name: &str,
    x: Var,
) -> Result<Var> {
    let dim = width(g, x);
    let gamma = bind_param(g, store, prefix, &[name, "gamma"], |_| Tensor::ones(&[dim]));
    let beta = bind_param(g, store, prefix, &[name, "beta"], |_| Tensor::zeros(&[dim]));
    g.layer_norm(x, gamma, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_autograd::AutogradError;
    use sf_tensor::TensorError;

    #[test]
    fn linear_shapes_and_determinism() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.constant(Tensor::randn(&[3, 6], 1));
        let y = linear(&mut g, &mut store, &["test"], "proj", 4, x).unwrap();
        assert_eq!(g.value(y).dims(), &[3, 4]);
        assert_eq!(store.get("test.proj.weight").unwrap().dims(), &[4, 6]);

        // Same store, fresh tape: identical output (weights persisted).
        let mut g2 = Graph::new();
        let x2 = g2.constant(Tensor::randn(&[3, 6], 1));
        let y2 = linear(&mut g2, &mut store, &["test"], "proj", 4, x2).unwrap();
        assert_eq!(g.value(y), g2.value(y2));
    }

    #[test]
    fn different_names_different_weights() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[1, 4]));
        let a = linear_no_bias(&mut g, &mut store, &[], "a", 4, x).unwrap();
        let b = linear_no_bias(&mut g, &mut store, &[], "b", 4, x).unwrap();
        assert_ne!(g.value(a), g.value(b));
        assert_eq!(store.names(), ["a.weight", "b.weight"]);
    }

    #[test]
    fn layer_norm_binds_params() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.constant(Tensor::randn(&[4, 8], 5));
        let y = layer_norm(&mut g, &mut store, &["blk", "mod"], "ln", x).unwrap();
        assert_eq!(g.value(y).dims(), &[4, 8]);
        assert_eq!(store.get("blk.mod.ln.gamma").unwrap().dims(), &[8]);
        assert!(store.get("blk.mod.ln.beta").is_some());
    }

    #[test]
    fn name_seed_hashes_the_joined_name() {
        assert_eq!(name_seed(&["a.b", "c"]), name_seed(&["a", "b.c"]));
        assert_eq!(name_seed(&["a", "b", "c"]), name_seed(&["a.b.c"]));
        assert_ne!(name_seed(&["ab", "c"]), name_seed(&["a", "bc"]));
    }

    #[test]
    fn lecun_init_scale() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(&[1, 256]));
        let _ = linear_no_bias(&mut g, &mut store, &["scale"], "test", 64, x).unwrap();
        let w = store.get("scale.test.weight").unwrap();
        let std = w.square().mean_all().sqrt();
        let expect = 1.0 / (256f32).sqrt();
        assert!((std - expect).abs() < 0.2 * expect, "std {std} vs {expect}");
    }

    #[test]
    fn width_mismatch_is_a_shape_error_that_keeps_the_parameter() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x6 = g.constant(Tensor::randn(&[2, 6], 3));
        linear(&mut g, &mut store, &["m"], "proj", 4, x6).unwrap();
        layer_norm(&mut g, &mut store, &["m"], "ln", x6).unwrap();
        let before: Vec<Tensor> = store.iter().map(|(_, t)| t.clone()).collect();

        let x5 = g.constant(Tensor::randn(&[2, 5], 4));
        let shape_error = |r: Result<Var>| {
            matches!(
                r,
                Err(AutogradError::Tensor(TensorError::ShapeMismatch { .. }))
            )
        };
        assert!(shape_error(linear(
            &mut g,
            &mut store,
            &["m"],
            "proj",
            4,
            x5
        )));
        assert!(shape_error(linear_no_bias(
            &mut g,
            &mut store,
            &["m"],
            "proj",
            4,
            x5
        )));
        assert!(shape_error(layer_norm(
            &mut g,
            &mut store,
            &["m"],
            "ln",
            x5
        )));
        let after: Vec<Tensor> = store.iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(after, before, "a failed bind leaves the stored parameters");
    }
}
