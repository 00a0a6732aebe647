//! Finite-difference gradient checks for every differentiable op on the
//! tape. Each check perturbs individual input elements and compares the
//! numeric directional derivative with the analytic gradient.

use sf_autograd::{Graph, Var};
use sf_tensor::Tensor;

/// Builds a scalar loss from `build`, returns (loss_value, analytic_grads).
fn run<F>(inputs: &[Tensor], build: F) -> (f32, Vec<Tensor>)
where
    F: Fn(&mut Graph, &[Var]) -> Var,
{
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|t| g.param(t.clone())).collect();
    let loss = build(&mut g, &vars);
    assert_eq!(g.value(loss).len(), 1, "loss must be scalar");
    let loss_val = g.value(loss).item();
    g.backward(loss).unwrap();
    let grads = vars
        .iter()
        .map(|&v| {
            g.grad(v)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(g.value(v).dims()))
        })
        .collect();
    (loss_val, grads)
}

/// Central-difference check on a sample of elements of each input.
fn gradcheck<F>(inputs: &[Tensor], build: F, tol: f32)
where
    F: Fn(&mut Graph, &[Var]) -> Var + Copy,
{
    let (_, grads) = run(inputs, build);
    let eps = 1e-2f32;
    for (which, input) in inputs.iter().enumerate() {
        let probe_count = input.len().min(6);
        for p in 0..probe_count {
            let idx = p * input.len() / probe_count;
            let mut plus = inputs.to_vec();
            plus[which].data_mut()[idx] += eps;
            let mut minus = inputs.to_vec();
            minus[which].data_mut()[idx] -= eps;
            let (lp, _) = run(&plus, build);
            let (lm, _) = run(&minus, build);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads[which].data()[idx];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                "input {which} elem {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}

/// Weighted sum to produce a scalar loss that exercises all elements.
fn weighted_loss(g: &mut Graph, x: Var) -> Var {
    let dims = g.value(x).dims().to_vec();
    let n: usize = dims.iter().product();
    let w = Tensor::from_vec((0..n).map(|i| ((i % 7) as f32) - 3.0).collect(), &dims).unwrap();
    let wc = g.constant(w);
    let prod = g.mul(x, wc).unwrap();
    g.sum_all(prod).unwrap()
}

#[test]
fn grad_add_sub_broadcast() {
    gradcheck(
        &[Tensor::randn(&[3, 4], 1), Tensor::randn(&[4], 2)],
        |g, v| {
            let s = g.add(v[0], v[1]).unwrap();
            let d = g.sub(s, v[0]).unwrap();
            let back = g.add(d, v[0]).unwrap();
            weighted_loss(g, back)
        },
        1e-2,
    );
}

#[test]
fn grad_mul_div_broadcast() {
    gradcheck(
        &[
            Tensor::randn(&[2, 3], 3).add_scalar(3.0),
            Tensor::randn(&[2, 1], 4).add_scalar(3.0),
        ],
        |g, v| {
            let m = g.mul(v[0], v[1]).unwrap();
            let q = g.div(m, v[1]).unwrap();
            let m2 = g.mul(q, v[0]).unwrap();
            weighted_loss(g, m2)
        },
        2e-2,
    );
}

#[test]
fn grad_activations() {
    gradcheck(
        &[Tensor::randn(&[3, 5], 5)],
        |g, v| {
            let a = g.gelu(v[0]).unwrap();
            let b = g.sigmoid(a).unwrap();
            let c = g.tanh(b).unwrap();
            weighted_loss(g, c)
        },
        2e-2,
    );
}

#[test]
fn grad_relu_square_exp_sqrt() {
    gradcheck(
        &[Tensor::rand_uniform(&[2, 4], 0.5, 2.0, 6)],
        |g, v| {
            let r = g.relu(v[0]).unwrap();
            let s = g.square(r).unwrap();
            let e = g.exp(s).unwrap();
            let q = g.sqrt(e).unwrap();
            weighted_loss(g, q)
        },
        3e-2,
    );
}

#[test]
fn grad_matmul() {
    gradcheck(
        &[Tensor::randn(&[3, 4], 7), Tensor::randn(&[4, 2], 8)],
        |g, v| {
            let c = g.matmul(v[0], v[1]).unwrap();
            weighted_loss(g, c)
        },
        1e-2,
    );
}

#[test]
fn grad_matmul_batched_rhs_broadcast() {
    gradcheck(
        &[Tensor::randn(&[2, 3, 4], 9), Tensor::randn(&[4, 2], 10)],
        |g, v| {
            let c = g.matmul(v[0], v[1]).unwrap();
            weighted_loss(g, c)
        },
        1e-2,
    );
}

#[test]
fn grad_softmax() {
    gradcheck(
        &[Tensor::randn(&[2, 5], 11)],
        |g, v| {
            let s = g.softmax(v[0]).unwrap();
            weighted_loss(g, s)
        },
        1e-2,
    );
}

#[test]
fn grad_layernorm_all_inputs() {
    gradcheck(
        &[
            Tensor::randn(&[4, 6], 12).mul_scalar(2.0),
            Tensor::randn(&[6], 13).add_scalar(1.0),
            Tensor::randn(&[6], 14),
        ],
        |g, v| {
            let y = g.layer_norm(v[0], v[1], v[2]).unwrap();
            weighted_loss(g, y)
        },
        3e-2,
    );
}

#[test]
fn grad_attention_with_bias() {
    gradcheck(
        &[
            Tensor::randn(&[1, 2, 4, 3], 15).mul_scalar(0.5),
            Tensor::randn(&[1, 2, 4, 3], 16).mul_scalar(0.5),
            Tensor::randn(&[1, 2, 4, 3], 17).mul_scalar(0.5),
            Tensor::randn(&[2, 4, 4], 18).mul_scalar(0.5),
        ],
        |g, v| {
            let out = g
                .attention_fused(v[0], v[1], v[2], Some(v[3]), None, None, 0.6)
                .unwrap();
            weighted_loss(g, out)
        },
        3e-2,
    );
}

#[test]
fn grad_attention_matches_composed() {
    // Fused attention node's gradients must equal the matmul+softmax
    // composition's gradients.
    let q0 = Tensor::randn(&[2, 5, 4], 19).mul_scalar(0.4);
    let k0 = Tensor::randn(&[2, 5, 4], 20).mul_scalar(0.4);
    let v0 = Tensor::randn(&[2, 5, 4], 21).mul_scalar(0.4);
    let scale = 0.5;

    let (_, fused) = run(&[q0.clone(), k0.clone(), v0.clone()], |g, v| {
        let out = g
            .attention_fused(v[0], v[1], v[2], None, None, None, scale)
            .unwrap();
        weighted_loss(g, out)
    });
    let (_, composed) = run(&[q0, k0, v0], |g, v| {
        let kt = g.permute(v[1], &[0, 2, 1]).unwrap();
        let logits = g.matmul(v[0], kt).unwrap();
        let scaled = g.scale(logits, scale).unwrap();
        let p = g.softmax(scaled).unwrap();
        let out = g.matmul(p, v[2]).unwrap();
        weighted_loss(g, out)
    });
    for (a, b) in fused.iter().zip(composed.iter()) {
        assert!(a.allclose(b, 1e-4));
    }
}

#[test]
fn grad_shape_ops() {
    gradcheck(
        &[Tensor::randn(&[2, 3, 4], 22)],
        |g, v| {
            let r = g.reshape(v[0], &[6, 4]).unwrap();
            let p = g.permute(r, &[1, 0]).unwrap();
            let s = g.slice_axis(p, 0, 1, 3).unwrap();
            weighted_loss(g, s)
        },
        1e-2,
    );
}

#[test]
fn grad_concat() {
    gradcheck(
        &[Tensor::randn(&[2, 3], 23), Tensor::randn(&[2, 2], 24)],
        |g, v| {
            let c = g.concat(&[v[0], v[1]], 1).unwrap();
            weighted_loss(g, c)
        },
        1e-2,
    );
}

#[test]
fn grad_reductions() {
    gradcheck(
        &[Tensor::randn(&[3, 4], 25)],
        |g, v| {
            let s = g.sum_axis(v[0], 0).unwrap();
            let m = g.mean_axis(v[0], 1).unwrap();
            let l1 = weighted_loss(g, s);
            let l2 = weighted_loss(g, m);
            g.add(l1, l2).unwrap()
        },
        1e-2,
    );
}

#[test]
fn grad_broadcast_to() {
    gradcheck(
        &[Tensor::randn(&[1, 4], 26)],
        |g, v| {
            let b = g.broadcast_to(v[0], &[3, 4]).unwrap();
            weighted_loss(g, b)
        },
        1e-2,
    );
}

#[test]
fn grad_mean_all_scale_neg() {
    gradcheck(
        &[Tensor::randn(&[5], 27)],
        |g, v| {
            let n = g.neg(v[0]).unwrap();
            let sc = g.scale(n, 2.5).unwrap();
            let shifted = g.add_scalar(sc, 1.0).unwrap();
            g.mean_all(shifted).unwrap()
        },
        1e-2,
    );
}

#[test]
fn grad_checkpoint_segment() {
    gradcheck(
        &[Tensor::randn(&[3, 3], 28), Tensor::randn(&[3, 3], 29)],
        |g, v| {
            let out = g
                .checkpoint(&[v[0], v[1]], |sub, ins| {
                    let m = sub.matmul(ins[0], ins[1])?;
                    sub.gelu(m)
                })
                .unwrap();
            weighted_loss(g, out)
        },
        2e-2,
    );
}

#[test]
fn dropout_zero_p_is_identity_and_differentiable() {
    let x0 = Tensor::randn(&[4, 4], 30);
    let (_, grads) = run(std::slice::from_ref(&x0), |g, v| {
        let d = g.dropout(v[0], 0.0, 99).unwrap();
        g.sum_all(d).unwrap()
    });
    assert!(grads[0].allclose(&Tensor::ones(&[4, 4]), 1e-6));
}

#[test]
fn dropout_grad_respects_mask() {
    let x0 = Tensor::randn(&[64], 31);
    let (_, grads) = run(&[x0], |g, v| {
        let d = g.dropout(v[0], 0.5, 7).unwrap();
        g.sum_all(d).unwrap()
    });
    // Gradient elements are either 0 (dropped) or 1/keep (kept).
    for &gv in grads[0].data() {
        assert!(gv == 0.0 || (gv - 2.0).abs() < 1e-5, "grad {gv}");
    }
}

#[test]
fn backward_rejects_non_scalar() {
    let mut g = Graph::new();
    let x = g.param(Tensor::zeros(&[2, 2]));
    assert!(g.backward(x).is_err());
}

#[test]
fn zero_grads_resets() {
    let mut g = Graph::new();
    let x = g.param(Tensor::from_vec(vec![2.0], &[1]).unwrap());
    let y = g.square(x).unwrap();
    let loss = g.sum_all(y).unwrap();
    g.backward(loss).unwrap();
    assert!(g.grad(x).is_some());
    g.zero_grads();
    assert!(g.grad(x).is_none());
}

#[test]
fn backward_accumulates_across_calls() {
    let mut g = Graph::new();
    let x = g.param(Tensor::from_vec(vec![3.0], &[1]).unwrap());
    let y = g.square(x).unwrap();
    let loss = g.sum_all(y).unwrap();
    g.backward(loss).unwrap();
    g.backward(loss).unwrap();
    assert_eq!(g.grad(x).unwrap().data(), &[12.0]); // 2 * (2x)
}
