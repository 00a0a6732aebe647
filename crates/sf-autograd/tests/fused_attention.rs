//! Fused-vs-composed equivalence of the attention tape node.
//!
//! `Graph::attention_fused` (one kernel: scale + bias + mask penalty +
//! softmax + sigmoid gate, backward from recomputed row stats) must
//! agree with the composed chain of primitive tape ops
//! `sigmoid(gate) ⊙ softmax(q kᵀ · scale + (bias + maskneg)) v` to ≤1e-5
//! relative — forward values AND every input gradient — for every on/off
//! combination of bias, mask, and gate, across random shapes, and for the
//! structure module's IPA layout.

use proptest::prelude::*;
use sf_autograd::{Graph, Var};
use sf_tensor::ops::attention::MASK_NEG;
use sf_tensor::Tensor;

const TOL: f32 = 1e-5;

struct Inputs {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: Option<Tensor>,
    mask: Option<Tensor>,
    gate: Option<Tensor>,
    scale: f32,
    dy: Tensor,
}

fn make_inputs(
    (b, h, s, d): (usize, usize, usize, usize),
    seed: u64,
    with_bias: bool,
    with_mask: bool,
    with_gate: bool,
) -> Inputs {
    Inputs {
        q: Tensor::randn(&[b, h, s, d], seed),
        k: Tensor::randn(&[b, h, s, d], seed ^ 1),
        v: Tensor::randn(&[b, h, s, d], seed ^ 2),
        bias: with_bias.then(|| Tensor::randn(&[h, s, s], seed ^ 3)),
        // Every query row keeps at least one valid key (the masking
        // contract: padding queries are masked downstream). On a fully
        // masked row the additive MASK_NEG penalty absorbs the O(1) logits
        // into -3e4, and the two paths round that absorption differently —
        // there is no 1e-5 equivalence to test there.
        mask: with_mask.then(|| {
            let mut m =
                Tensor::randn(&[h, s, s], seed ^ 4).map(|x| if x > -0.8 { 1.0 } else { 0.0 });
            for (r, row) in m.data_mut().chunks_mut(s).enumerate() {
                if row.iter().all(|&x| x == 0.0) {
                    row[r % s] = 1.0;
                }
            }
            m
        }),
        gate: with_gate.then(|| Tensor::randn(&[b, h, s, d], seed ^ 5)),
        scale: 1.0 / (d as f32).sqrt(),
        dy: Tensor::randn(&[b, h, s, d], seed ^ 6),
    }
}

/// Structure-module IPA layout: rank-3 `q [h, R, d]` and a bias of the
/// full logits shape `[h, R, R]`, so the bias gradient is the logits
/// gradient itself (no reduction); no mask, no gate.
fn ipa_inputs((h, r, d): (usize, usize, usize), seed: u64) -> Inputs {
    Inputs {
        q: Tensor::randn(&[h, r, d], seed),
        k: Tensor::randn(&[h, r, d], seed ^ 1),
        v: Tensor::randn(&[h, r, d], seed ^ 2),
        bias: Some(Tensor::randn(&[h, r, r], seed ^ 3)),
        mask: None,
        gate: None,
        scale: 1.0 / (d as f32).sqrt(),
        dy: Tensor::randn(&[h, r, d], seed ^ 6),
    }
}

struct TapeResult {
    out: Tensor,
    dq: Tensor,
    dk: Tensor,
    dv: Tensor,
    dbias: Option<Tensor>,
    dgate: Option<Tensor>,
}

fn run_tape(inputs: &Inputs, fused: bool) -> TapeResult {
    let mut g = Graph::new();
    let q = g.param(inputs.q.clone());
    let k = g.param(inputs.k.clone());
    let v = g.param(inputs.v.clone());
    let bias = inputs.bias.as_ref().map(|b| g.param(b.clone()));
    let gate = inputs.gate.as_ref().map(|t| g.param(t.clone()));
    let out = if fused {
        let mask = inputs.mask.as_ref().map(|m| g.constant(m.clone()));
        g.attention_fused(q, k, v, bias, mask, gate, inputs.scale)
            .expect("fused attention")
    } else {
        // The composed chain the fused kernel replaces, on primitive tape
        // ops: materialize the mask penalty into the bias, then
        // permute/matmul/scale/add/softmax/matmul, then the separate
        // sigmoid-gate multiply.
        let penalty = inputs
            .mask
            .as_ref()
            .map(|m| g.constant(m.map(|x| if x == 0.0 { MASK_NEG } else { 0.0 })));
        let bias_eff: Option<Var> = match (bias, penalty) {
            (Some(b), Some(p)) => Some(g.add(b, p).expect("bias + maskneg")),
            (Some(b), None) => Some(b),
            (None, p) => p,
        };
        let rank = inputs.q.rank();
        let mut perm: Vec<usize> = (0..rank).collect();
        perm.swap(rank - 2, rank - 1);
        let kt = g.permute(k, &perm).expect("k transpose");
        let logits = g.matmul(q, kt).expect("q kᵀ");
        let mut logits = g.scale(logits, inputs.scale).expect("scale");
        if let Some(b) = bias_eff {
            logits = g.add(logits, b).expect("logits + bias");
        }
        let p = g.softmax(logits).expect("softmax");
        let att = g.matmul(p, v).expect("p v");
        match gate {
            Some(gt) => {
                let sig = g.sigmoid(gt).expect("gate sigmoid");
                g.mul(sig, att).expect("gate multiply")
            }
            None => att,
        }
    };
    g.backward_seeded(out, inputs.dy.clone()).expect("backward");
    TapeResult {
        out: g.value(out).clone(),
        dq: g.grad(q).expect("dq").clone(),
        dk: g.grad(k).expect("dk").clone(),
        dv: g.grad(v).expect("dv").clone(),
        dbias: bias.map(|b| g.grad(b).expect("dbias").clone()),
        dgate: gate.map(|gt| g.grad(gt).expect("dgate").clone()),
    }
}

fn assert_equivalent(inputs: &Inputs) {
    let fused = run_tape(inputs, true);
    let composed = run_tape(inputs, false);
    assert!(fused.out.allclose(&composed.out, TOL), "forward diverged");
    assert!(fused.dq.allclose(&composed.dq, TOL), "dq diverged");
    assert!(fused.dk.allclose(&composed.dk, TOL), "dk diverged");
    assert!(fused.dv.allclose(&composed.dv, TOL), "dv diverged");
    match (&fused.dbias, &composed.dbias) {
        (Some(a), Some(b)) => assert!(a.allclose(b, TOL), "dbias diverged"),
        (None, None) => {}
        _ => panic!("dbias presence mismatch"),
    }
    match (&fused.dgate, &composed.dgate) {
        (Some(a), Some(b)) => assert!(a.allclose(b, TOL), "dgate diverged"),
        (None, None) => {}
        _ => panic!("dgate presence mismatch"),
    }
}

#[test]
fn fused_matches_composed_all_feature_combinations() {
    for bits in 0..8u8 {
        let inputs = make_inputs(
            (2, 2, 12, 8),
            99 + bits as u64,
            bits & 1 != 0,
            bits & 2 != 0,
            bits & 4 != 0,
        );
        assert_equivalent(&inputs);
    }
    assert_equivalent(&ipa_inputs((3, 13, 8), 107));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_matches_composed_any_shape(
        (b, h, s, d, seed, with_bias, with_mask, with_gate) in
            (1usize..3, 1usize..3, 1usize..16, 1usize..10, any::<u64>(),
             any::<bool>(), any::<bool>(), any::<bool>())
    ) {
        let inputs = make_inputs((b, h, s, d), seed, with_bias, with_mask, with_gate);
        assert_equivalent(&inputs);
    }
}
