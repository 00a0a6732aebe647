//! Pins the bits of two tape nodes to the node chains they replace:
//!
//! - `Graph::matmul_at(a, b)` against `matmul(permute(a, [1, 0]), b)` (the
//!   outer product mean's `aᵀ·b`): its backward forms `da = b·dyᵀ` and
//!   `db = a·dy`, the same products in the same order as the chain's
//!   `matmul_bt` and `matmul_at`;
//! - `Graph::gate(gate, x)` against `mul(sigmoid(gate), x)` (AlphaFold's
//!   gating), with `x` of `gate`'s shape or broadcast over its leading axis.
//!
//! The forward value and every input gradient must match **bit for bit**,
//! at 1 and 4 threads.

use sf_autograd::{Graph, Var};
use sf_tensor::pool;
use sf_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// The value and both input gradients of `op(a, b)` under the cotangent
/// `Σ y ⊙ w`, for a fixed random `w`.
fn run(a: &Tensor, b: &Tensor, op: impl Fn(&mut Graph, Var, Var) -> Var) -> [Tensor; 3] {
    let mut g = Graph::new();
    let (av, bv) = (g.param(a.clone()), g.param(b.clone()));
    let y = op(&mut g, av, bv);
    let w = g.constant(Tensor::randn(g.value(y).dims(), 7));
    let weighted = g.mul(y, w).unwrap();
    let loss = g.sum_all(weighted).unwrap();
    g.backward(loss).unwrap();
    [
        g.value(y).clone(),
        g.grad(av).unwrap().clone(),
        g.grad(bv).unwrap().clone(),
    ]
}

fn assert_same(node: [Tensor; 3], chain: [Tensor; 3], what: &str) {
    for (name, (got, want)) in ["value", "d first", "d second"]
        .iter()
        .zip(node.iter().zip(&chain))
    {
        assert_eq!(got.dims(), want.dims(), "{what}: {name} dims");
        assert_eq!(bits(got), bits(want), "{what}: {name} bits");
    }
}

fn at_threads(f: impl Fn()) {
    let prev = pool::num_threads();
    for threads in [1, 4] {
        pool::set_num_threads(threads);
        f();
    }
    pool::set_num_threads(prev);
}

#[test]
fn matmul_at_matches_transpose_chain() {
    // The outer product mean's [S, R·c]ᵀ·[S, R·c], ragged and pair-stack
    // sized, plus a one-row contraction.
    at_threads(|| {
        for (s, m, n) in [(7, 13, 13), (16, 320, 320), (1, 5, 9)] {
            let a = Tensor::randn(&[s, m], (s * m) as u64);
            let b = Tensor::randn(&[s, n], (s * n + 1) as u64);
            let node = run(&a, &b, |g, a, b| g.matmul_at(a, b).unwrap());
            let chain = run(&a, &b, |g, a, b| {
                let at = g.permute(a, &[1, 0]).unwrap();
                g.matmul(at, b).unwrap()
            });
            assert_same(node, chain, &format!("matmul_at [{s}, {m}]ᵀ·[{s}, {n}]"));
        }
    });
}

#[test]
fn gate_matches_sigmoid_mul_chain() {
    at_threads(|| {
        for (gate_dims, x_dims) in [
            (vec![12, 12, 8], vec![12, 12, 8]),
            (vec![40, 40, 16], vec![40, 40, 16]),
            // Global column attention: one output per column, gated per sequence.
            (vec![9, 12, 8], vec![12, 8]),
        ] {
            let gate = Tensor::randn(&gate_dims, 11).mul_scalar(3.0);
            let x = Tensor::randn(&x_dims, 12);
            let node = run(&gate, &x, |g, gt, x| g.gate(gt, x).unwrap());
            let chain = run(&gate, &x, |g, gt, x| {
                let sg = g.sigmoid(gt).unwrap();
                g.mul(sg, x).unwrap()
            });
            assert_same(node, chain, &format!("gate {gate_dims:?} x {x_dims:?}"));
        }
    });
}

#[test]
fn gate_rejects_an_x_that_does_not_broadcast() {
    let mut g = Graph::new();
    let gate = g.param(Tensor::zeros(&[3, 4]));
    let x = g.param(Tensor::zeros(&[2, 3, 4]));
    assert!(g.gate(gate, x).is_err());
}
