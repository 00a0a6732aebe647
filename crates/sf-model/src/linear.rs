//! Linear layers bound to named parameters, plus the bundled ("GEMM
//! batched") projection helper.

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

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter name prefix.
    pub fn name(&self) -> &str {
        &self.name
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

/// Applies several independent projections of the *same* input as one
/// bundled operation — the model-side counterpart of the paper's "GEMM
/// Batching" (§3.3.1): the four linear layers before MHA have no mutual
/// dependency, so they run as one [`Graph::linear`] node over the stacked
/// weights. Returns the bundled `[..., Σ out_i]` projection: layer `i`'s
/// outputs are the columns after the widths of the layers before it.
/// Attention reads its operands from those columns in place
/// ([`sf_autograd::HeadVar`]); a site that needs a layer's output as a
/// tensor of its own slices it out.
///
/// When any layer has a bias, the stacked bias fills the bias-free layers'
/// columns with zeros; a GEMM sum is never `-0.0`, so adding `+0.0` leaves
/// it unchanged. The outputs are bitwise those of applying each [`Linear`]
/// separately, and so are the weight and bias gradients; the input
/// gradient sums the same terms in one GEMM instead of per layer (tested).
///
/// # Errors
///
/// Returns an error on dimension mismatch or an empty layer list.
pub fn batched_apply(
    g: &mut Graph,
    store: &mut ParamStore,
    layers: &[&Linear],
    x: Var,
) -> Result<Var> {
    let mut ws = Vec::with_capacity(layers.len());
    let mut bs = Vec::with_capacity(layers.len());
    for l in layers {
        let (w, b) = l.bind(g, store);
        ws.push(w);
        bs.push(b);
    }
    let stacked = g.concat(&ws, 0)?;
    let bias = if bs.iter().any(Option::is_some) {
        // One zero constant per run of adjacent bias-free layers.
        let mut parts = Vec::with_capacity(layers.len());
        let mut zeros = 0usize;
        for (l, b) in layers.iter().zip(bs) {
            let Some(b) = b else {
                zeros += l.out_dim;
                continue;
            };
            if zeros > 0 {
                parts.push(g.constant(Tensor::zeros(&[zeros])));
                zeros = 0;
            }
            parts.push(b);
        }
        if zeros > 0 {
            parts.push(g.constant(Tensor::zeros(&[zeros])));
        }
        Some(g.concat(&parts, 0)?)
    } else {
        None
    };
    g.linear(x, stacked, bias)
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
    fn batched_apply_equals_individual() {
        let mut store = ParamStore::new();
        let l1 = Linear::no_bias("q", 8, 6);
        let l2 = Linear::no_bias("k", 8, 6);
        let l3 = Linear::new("v", 8, 10);
        // Bias-free layers on both sides of the biased one.
        let layers = [&l1, &l3, &l2];
        let x0 = Tensor::randn(&[2, 5, 8], 2);
        // Weights each output by its own random cotangent, so every
        // gradient depends on every output.
        let loss = |g: &mut Graph, outs: &[Var]| -> Var {
            let mut total = None;
            for (i, &o) in outs.iter().enumerate() {
                let w = g.constant(Tensor::randn(g.value(o).dims(), 10 + i as u64));
                let p = g.mul(o, w).unwrap();
                let s = g.sum_all(p).unwrap();
                total = Some(match total {
                    Some(t) => g.add(t, s).unwrap(),
                    None => s,
                });
            }
            total.unwrap()
        };

        let mut g = Graph::new();
        let x = g.param(x0.clone());
        let big = batched_apply(&mut g, &mut store, &layers, x).unwrap();
        let mut col = 0;
        let bundled: Vec<Var> = layers
            .iter()
            .map(|l| {
                col += l.out_dim();
                g.slice_axis(big, 2, col - l.out_dim(), col).unwrap()
            })
            .collect();
        let l = loss(&mut g, &bundled);
        g.backward(l).unwrap();

        let mut g2 = Graph::new();
        let x2 = g2.param(x0);
        let single: Vec<Var> =
            layers.iter().map(|l| l.apply(&mut g2, &mut store, x2).unwrap()).collect();
        let l2 = loss(&mut g2, &single);
        g2.backward(l2).unwrap();

        // The bundle is one wider GEMM: each output element, each weight
        // gradient row (a sum over all 10 rows of `x`) and each bias
        // gradient is the same ascending sum as in its own layer.
        for (&b, &s) in bundled.iter().zip(&single) {
            assert_eq!(g.value(b), g2.value(s));
        }
        let (gb, gs) = (g.grads_by_name().unwrap(), g2.grads_by_name().unwrap());
        for name in ["q.weight", "k.weight", "v.weight", "v.bias"] {
            assert_eq!(gb[name], gs[name], "{name}");
        }
        // The input gradient contracts over all 22 outputs in one GEMM
        // instead of adding three per-layer products: same terms, another
        // summation order.
        assert!(g.grad(x).unwrap().allclose(g2.grad(x2).unwrap(), 1e-5));
    }

    #[test]
    fn batched_apply_gradients_flow() {
        let mut store = ParamStore::new();
        let l1 = Linear::no_bias("g1", 4, 3);
        let l2 = Linear::no_bias("g2", 4, 3);
        let mut g = Graph::new();
        let x = g.constant(Tensor::randn(&[2, 4], 3));
        let big = batched_apply(&mut g, &mut store, &[&l1, &l2], x).unwrap();
        assert_eq!(g.value(big).dims(), &[2, 6]);
        let s = g.sum_all(big).unwrap();
        g.backward(s).unwrap();
        let grads = g.grads_by_name().unwrap();
        assert!(grads.contains_key("g1.weight"));
        assert!(grads.contains_key("g2.weight"));
        assert!(grads["g1.weight"].norm() > 0.0);
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
