//! Pins the bits of head-view attention, `Graph::attention_heads`, to the
//! split/merge chain it replaces: `reshape` + `permute` each operand to
//! `[batch..., h, s, d]`, run the one-head `attention_fused`, then
//! `permute` + `reshape` the heads back together.
//!
//! The forward value and the gradient of every source `Var` (separate
//! Q/K/V/gate tensors, one tensor passed as two operands, the bias) must
//! match the chain **bit for bit**, at 1 and 4 threads, whether or not a
//! source's gradient slot already holds a gradient from a later reader when
//! the attention's backward adds into it.

use sf_autograd::{Graph, HeadVar, HeadVars, Var};
use sf_tensor::pool;
use sf_tensor::Tensor;

/// A source's leading dims (all but its last axis).
fn lead_dims(g: &Graph, src: Var) -> Vec<usize> {
    let dims = g.value(src).dims();
    dims[..dims.len() - 1].to_vec()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: dims");
    assert_eq!(bits(got), bits(want), "{what}: bits");
}

/// One operand: `(source index, attended axis)`.
type Operand = (usize, Option<usize>);

/// One attention problem: source tensors, which source each operand reads,
/// and an optional bias.
struct Case {
    sources: Vec<Tensor>,
    bias: Option<Tensor>,
    q: Operand,
    k: Operand,
    v: Operand,
    gate: Option<Operand>,
    heads: usize,
    d: usize,
}

/// The value and the gradient of every source and of the bias.
type Outputs = (Tensor, Vec<Tensor>, Option<Tensor>);

impl Case {
    fn scale(&self) -> f32 {
        1.0 / (self.d as f32).sqrt()
    }

    /// Builds the attention on a fresh tape with `attend`, then runs
    /// backward from `Σ out ⊙ w` for a fixed random `w`. With `reuse`, every
    /// source is also read by a later node (`Σ src ⊙ w_src` joins the
    /// loss), so its gradient slot is already filled when the attention's
    /// backward adds into it.
    fn run(&self, reuse: bool, attend: impl Fn(&mut Graph, &[Var], Option<Var>) -> Var) -> Outputs {
        let mut g = Graph::new();
        let srcs: Vec<Var> = self.sources.iter().map(|t| g.param(t.clone())).collect();
        let bias = self.bias.as_ref().map(|b| g.param(b.clone()));
        let out = attend(&mut g, &srcs, bias);
        let mut terms = vec![out];
        if reuse {
            terms.extend(&srcs);
        }
        let mut loss = None;
        for (i, &t) in terms.iter().enumerate() {
            let w = g.constant(Tensor::randn(g.value(t).dims(), 99 + i as u64));
            let weighted = g.mul(t, w).unwrap();
            let term = g.sum_all(weighted).unwrap();
            loss = Some(match loss {
                Some(l) => g.add(l, term).unwrap(),
                None => term,
            });
        }
        g.backward(loss.unwrap()).unwrap();
        let grad = |v: Var| {
            g.grad(v)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(g.value(v).dims()))
        };
        (
            g.value(out).clone(),
            srcs.iter().map(|&v| grad(v)).collect(),
            bias.map(grad),
        )
    }

    /// `Graph::attention_heads` on the views.
    fn views(&self, reuse: bool) -> Outputs {
        self.run(reuse, |g, srcs, bias| {
            let at = |(src, axis): Operand| HeadVar {
                src: srcs[src],
                axis,
            };
            let views = HeadVars {
                q: at(self.q),
                k: at(self.k),
                v: at(self.v),
                gate: self.gate.map(at),
                heads: self.heads,
                d: self.d,
            };
            g.attention_heads(views, bias, None, self.scale()).unwrap()
        })
    }

    /// The split/merge chain of public `Graph` ops.
    fn chain(&self, reuse: bool) -> Outputs {
        self.run(reuse, |g, srcs, bias| {
            let q = self.split(g, srcs, self.q);
            let k = self.split(g, srcs, self.k);
            let v = self.split(g, srcs, self.v);
            let gate = self.gate.map(|op| self.split(g, srcs, op));
            let att = g
                .attention_fused(q, k, v, bias, None, gate, self.scale())
                .unwrap();
            // [batch..., h, s_q, d] -> [lead..., h, d] with s_q back at the
            // queries' attended axis (dropped without one), then merged.
            let (src, axis) = self.q;
            let lead = lead_dims(g, srcs[src]);
            let nb = lead.len() - usize::from(axis.is_some());
            let mut perm: Vec<usize> = (0..nb).collect();
            perm.insert(axis.unwrap_or(nb), nb + 1);
            perm.extend([nb, nb + 2]);
            let merged = g.permute(att, &perm).unwrap();
            let mut out_dims = lead;
            out_dims.push(self.heads * self.d);
            g.reshape(merged, &out_dims).unwrap()
        })
    }

    /// Splits an operand's heads and permutes them to the contiguous
    /// `[batch..., h, s, d]` layout (`s = 1` without an attended axis).
    fn split(&self, g: &mut Graph, srcs: &[Var], (src, axis): Operand) -> Var {
        let (h, d) = (self.heads, self.d);
        let lead = lead_dims(g, srcs[src]);
        let nl = lead.len();
        let mut dims = lead;
        dims.extend([h, d]);
        let r = g.reshape(srcs[src], &dims).unwrap();
        // [lead..., h, d] -> [batch..., h, s, d].
        let mut perm: Vec<usize> = (0..nl).filter(|&i| Some(i) != axis).collect();
        perm.push(nl);
        perm.extend(axis);
        perm.push(nl + 1);
        let p = g.permute(r, &perm).unwrap();
        if axis.is_some() {
            return p;
        }
        let mut with_s = g.value(p).dims().to_vec();
        with_s.insert(with_s.len() - 1, 1);
        g.reshape(p, &with_s).unwrap()
    }

    /// Views against chain at 1 and 4 threads, with the sources' gradient
    /// slots empty and filled when the attention's backward runs.
    fn check(&self, what: &str) {
        let prev = pool::num_threads();
        for (threads, reuse) in [(1, false), (4, false), (1, true), (4, true)] {
            pool::set_num_threads(threads);
            let what = format!("{what} @{threads} reuse={reuse}");
            let (y, dsrc, dbias) = self.views(reuse);
            let (y_ref, dsrc_ref, dbias_ref) = self.chain(reuse);
            assert_bitwise(&y, &y_ref, &format!("{what}: forward"));
            for (i, (got, want)) in dsrc.iter().zip(&dsrc_ref).enumerate() {
                assert_bitwise(got, want, &format!("{what}: source {i} gradient"));
            }
            if let (Some(got), Some(want)) = (&dbias, &dbias_ref) {
                assert_bitwise(got, want, &format!("{what}: bias gradient"));
            }
        }
        pool::set_num_threads(prev);
    }
}

/// Row, column and triangle attention: Q, K, V and the gate as separate
/// `[b1, s, h·d]` projections, attended along axis 1.
fn separate(b1: usize, s: usize, h: usize, d: usize, biased: bool, gated: bool, seed: u64) -> Case {
    let n = if gated { 4 } else { 3 };
    Case {
        sources: (0..n)
            .map(|i| Tensor::randn(&[b1, s, h * d], seed + i))
            .collect(),
        bias: biased.then(|| Tensor::randn(&[h, s, s], seed ^ 1)),
        q: (0, Some(1)),
        k: (1, Some(1)),
        v: (2, Some(1)),
        gate: gated.then_some((3, Some(1))),
        heads: h,
        d,
    }
}

#[test]
fn separate_projections_match_split_chain() {
    for (h, d) in [(2, 4), (3, 5), (4, 8), (1, 8)] {
        for s in [7, 19] {
            for (biased, gated) in [(false, false), (true, false), (false, true), (true, true)] {
                let case = separate(3, s, h, d, biased, gated, (h * 100 + d * 10 + s) as u64);
                case.check(&format!(
                    "separate h={h} d={d} s={s} bias={biased} gate={gated}"
                ));
            }
        }
    }
}

#[test]
fn empty_batch_matches_split_chain() {
    separate(0, 5, 2, 4, true, true, 1).check("empty batch");
}

/// One `Var` passed as two operands: its gradient is the sum of both
/// operands' gradients, in the chain's order.
#[test]
fn one_var_as_two_operands_matches_split_chain() {
    for (h, d, s) in [(2, 4, 7), (3, 5, 19)] {
        for gated in [false, true] {
            let mut kv = separate(3, s, h, d, true, gated, (h * 10 + s) as u64);
            kv.v = kv.k;
            kv.check(&format!("k = v h={h} d={d} s={s} gate={gated}"));
            let mut qk = separate(3, s, h, d, true, gated, (h * 10 + s + 1) as u64);
            qk.k = qk.q;
            qk.check(&format!("q = k h={h} d={d} s={s} gate={gated}"));
        }
    }
}

/// Global column and template pointwise attention: one query per column
/// (no attended axis) against keys and values along axis 0.
#[test]
fn axis0_keys_with_single_query_match_split_chain() {
    for (h, d) in [(2, 4), (4, 5), (2, 8)] {
        let hd = h * d;
        let (s, r) = (9, 6);
        let case = Case {
            sources: vec![
                Tensor::randn(&[r, hd], 10),
                Tensor::randn(&[s, r, hd], 11),
                Tensor::randn(&[s, r, hd], 12),
            ],
            bias: None,
            q: (0, None),
            k: (1, Some(0)),
            v: (2, Some(0)),
            gate: None,
            heads: h,
            d,
        };
        case.check(&format!("axis 0 h={h} d={d}"));
    }
}

/// IPA: separate `[R, h·d]` tensors attended along axis 0 with a bias of
/// the full logits shape `[h, R, R]`.
#[test]
fn rank2_ipa_with_full_bias_matches_split_chain() {
    for (h, d, r) in [(2, 4, 7), (4, 5, 13), (1, 8, 6)] {
        let hd = h * d;
        let case = Case {
            sources: (0..3).map(|i| Tensor::randn(&[r, hd], 20 + i)).collect(),
            bias: Some(Tensor::randn(&[h, r, r], 23)),
            q: (0, Some(0)),
            k: (1, Some(0)),
            v: (2, Some(0)),
            gate: None,
            heads: h,
            d,
        };
        case.check(&format!("IPA h={h} d={d} r={r}"));
    }
}
