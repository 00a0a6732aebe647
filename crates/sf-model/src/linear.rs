//! Linear layers bound to named parameters.

use sf_autograd::{Graph, ParamStore, Result, Var};
use sf_tensor::Tensor;
use std::cell::Cell;

/// Splits a seed deterministically per parameter name (also the per-module
/// dropout seed).
pub(crate) fn name_seed(name: &str) -> u64 {
    // FNV-1a over the name: stable across runs and platforms.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Binds the parameter `"{prefix}.{suffix}"` into the tape, initialized by
/// `init` (given the full name) on first use. The name is composed in a
/// buffer reused across calls on this thread, so binding an existing
/// parameter formats no string and allocates only the leaf's copy.
pub(crate) fn bind_param(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &str,
    suffix: &str,
    init: impl FnOnce(&str) -> Tensor,
) -> Var {
    thread_local! {
        static NAME: Cell<String> = const { Cell::new(String::new()) };
    }
    let mut name = NAME.take();
    name.clear();
    name.push_str(prefix);
    name.push('.');
    name.push_str(suffix);
    let var = g.use_param_or_init(store, &name, || init(&name));
    NAME.set(name);
    var
}

/// A named linear layer `y = x W^T (+ b)`.
///
/// Parameters live in the [`ParamStore`] under `"{name}.weight"` /
/// `"{name}.bias"` and are LeCun-normal initialized on first use.
#[derive(Debug, Clone)]
pub struct Linear {
    name: String,
    in_dim: usize,
    out_dim: usize,
    bias: bool,
}

impl Linear {
    /// A linear layer with bias.
    pub fn new(name: impl Into<String>, in_dim: usize, out_dim: usize) -> Self {
        Linear {
            name: name.into(),
            in_dim,
            out_dim,
            bias: true,
        }
    }

    /// A linear layer without bias (AlphaFold's attention projections).
    pub fn no_bias(name: impl Into<String>, in_dim: usize, out_dim: usize) -> Self {
        Linear {
            name: name.into(),
            in_dim,
            out_dim,
            bias: false,
        }
    }

    /// Binds this layer's weight (and bias) into the tape, initializing
    /// them on first use. Binding a layer whose parameters exist allocates
    /// only the leaves' copies of them: the parameter names are composed in
    /// a reused buffer, not formatted per bind.
    pub fn bind(&self, g: &mut Graph, store: &mut ParamStore) -> (Var, Option<Var>) {
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let w = bind_param(g, store, &self.name, "weight", |wname| {
            Tensor::lecun_normal(&[out_dim, in_dim], in_dim, name_seed(wname))
        });
        let b = self
            .bias
            .then(|| bind_param(g, store, &self.name, "bias", |_| Tensor::zeros(&[out_dim])));
        (w, b)
    }

    /// Applies the layer to `x` of shape `[..., in_dim]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `x`'s last dimension is not `in_dim`.
    pub fn apply(&self, g: &mut Graph, store: &mut ParamStore, x: Var) -> Result<Var> {
        let (w, b) = self.bind(g, store);
        g.linear(x, w, b)
    }
}

/// Binds a named LayerNorm (`"{name}.gamma"` / `"{name}.beta"`) and applies
/// it over the last axis of `x`.
///
/// # Errors
///
/// Returns an error if `dim` mismatches `x`'s last axis.
pub fn layer_norm(
    g: &mut Graph,
    store: &mut ParamStore,
    name: &str,
    dim: usize,
    x: Var,
) -> Result<Var> {
    let gamma = bind_param(g, store, name, "gamma", |_| Tensor::ones(&[dim]));
    let beta = bind_param(g, store, name, "beta", |_| Tensor::zeros(&[dim]));
    g.layer_norm(x, gamma, beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_determinism() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let l = Linear::new("test.proj", 6, 4);
        let x = g.constant(Tensor::randn(&[3, 6], 1));
        let y = l.apply(&mut g, &mut store, x).unwrap();
        assert_eq!(g.value(y).dims(), &[3, 4]);

        // Same store, fresh tape: identical output (weights persisted).
        let mut g2 = Graph::new();
        let x2 = g2.constant(Tensor::randn(&[3, 6], 1));
        let y2 = l.apply(&mut g2, &mut store, x2).unwrap();
        assert_eq!(g.value(y), g2.value(y2));
    }

    #[test]
    fn different_names_different_weights() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[1, 4]));
        let a = Linear::no_bias("a", 4, 4).apply(&mut g, &mut store, x).unwrap();
        let b = Linear::no_bias("b", 4, 4).apply(&mut g, &mut store, x).unwrap();
        assert_ne!(g.value(a), g.value(b));
    }

    #[test]
    fn layer_norm_binds_params() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.constant(Tensor::randn(&[4, 8], 5));
        let y = layer_norm(&mut g, &mut store, "ln", 8, x).unwrap();
        assert_eq!(g.value(y).dims(), &[4, 8]);
        assert!(store.get("ln.gamma").is_some());
        assert!(store.get("ln.beta").is_some());
    }

    #[test]
    fn lecun_init_scale() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let l = Linear::no_bias("scale.test", 256, 64);
        let x = g.constant(Tensor::zeros(&[1, 256]));
        let _ = l.apply(&mut g, &mut store, x).unwrap();
        let w = store.get("scale.test.weight").unwrap();
        let std = w.square().mean_all().sqrt();
        let expect = 1.0 / (256f32).sqrt();
        assert!((std - expect).abs() < 0.2 * expect, "std {std} vs {expect}");
    }
}
