//! Pins the bits of the tape's linear node, `Graph::linear`, to the
//! three-node chain it replaces: `permute(w, [1, 0])`, `matmul` and a
//! broadcast `add`.
//!
//! The forward, the input gradient `dx = dy·W` and the bias gradient must
//! match the chain **bit for bit**, at 1 and 4 threads. The weight gradient
//! `dW = dyᵀ·x` contracts over every leading row of `x` in one GEMM, where
//! the chain forms one `[in, out]` product per batch element and sums them
//! with `reduce_to`; it is bitwise equal across thread counts, bitwise
//! equal to the chain when `x` has rank ≤ 2 (one batch element), and
//! within [`DW_REL_TOL`] of it otherwise (summation order only).

use sf_autograd::{Graph, Var};
use sf_tensor::pool;
use sf_tensor::Tensor;

/// Largest `|dW − dW_chain|` allowed, relative to `max |dW_chain|`, when the
/// chain sums per-batch partial products in a different order.
const DW_REL_TOL: f32 = 1e-5;

/// `(y, dx, dw, db)` of one linear layer under the cotangent `dy`.
type Outputs = (Tensor, Tensor, Tensor, Option<Tensor>);

/// Runs `layer` on fresh leaves of `x`, `w` and `b`, seeds backward with
/// `dy` and reads back the value and the three gradients.
fn run(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    dy: &Tensor,
    layer: impl Fn(&mut Graph, Var, Var, Option<Var>) -> Var,
) -> Outputs {
    let mut g = Graph::new();
    let xv = g.param(x.clone());
    let wv = g.param(w.clone());
    let bv = b.map(|b| g.param(b.clone()));
    let y = layer(&mut g, xv, wv, bv);
    g.backward_seeded(y, dy.clone()).unwrap();
    let grad = |v: Var| g.grad(v).unwrap().clone();
    (g.value(y).clone(), grad(xv), grad(wv), bv.map(grad))
}

/// The old chain. A rank-1 `x` runs as a one-row matrix (the chain's
/// `matmul` backward needs rank ≥ 2) and its results are reshaped back.
fn chain(x: &Tensor, w: &Tensor, b: Option<&Tensor>, dy: &Tensor) -> Outputs {
    if x.rank() == 1 {
        let row = |t: &Tensor| t.reshape(&[1, t.len()]).unwrap();
        let (y, dx, dw, db) = chain(&row(x), w, b, &row(dy));
        return (
            y.reshape(dy.dims()).unwrap(),
            dx.reshape(x.dims()).unwrap(),
            dw,
            db,
        );
    }
    run(x, w, b, dy, |g, x, w, b| {
        let wt = g.permute(w, &[1, 0]).unwrap();
        let y = g.matmul(x, wt).unwrap();
        match b {
            Some(b) => g.add(y, b).unwrap(),
            None => y,
        }
    })
}

fn node(x: &Tensor, w: &Tensor, b: Option<&Tensor>, dy: &Tensor) -> Outputs {
    run(x, w, b, dy, |g, x, w, b| g.linear(x, w, b).unwrap())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: dims");
    assert_eq!(bits(got), bits(want), "{what}: bits");
}

/// One case: `x` of shape `lead ++ [in_dim]` against an `[out_dim, in_dim]`
/// weight, with and without bias, at 1 and 4 threads.
fn check(lead: &[usize], in_dim: usize, out_dim: usize, seed: u64) {
    let mut x_dims = lead.to_vec();
    x_dims.push(in_dim);
    let mut y_dims = lead.to_vec();
    y_dims.push(out_dim);
    let x = Tensor::randn(&x_dims, seed);
    let w = Tensor::randn(&[out_dim, in_dim], seed ^ 1);
    let b = Tensor::randn(&[out_dim], seed ^ 2);
    let dy = Tensor::randn(&y_dims, seed ^ 3);
    let single_batch = lead.len() <= 1;
    for bias in [None, Some(&b)] {
        let what = format!("x {x_dims:?}, out {out_dim}, bias {}", bias.is_some());
        let prev = pool::num_threads();
        let mut dw_at_one_thread: Option<Tensor> = None;
        for threads in [1, 4] {
            pool::set_num_threads(threads);
            let (y, dx, dw, db) = node(&x, &w, bias, &dy);
            let (y_ref, dx_ref, dw_ref, db_ref) = chain(&x, &w, bias, &dy);
            let at = format!("{what}, {threads} threads");
            assert_bitwise(&y, &y_ref, &format!("forward, {at}"));
            assert_bitwise(&dx, &dx_ref, &format!("dx, {at}"));
            if let (Some(db), Some(db_ref)) = (&db, &db_ref) {
                assert_bitwise(db, db_ref, &format!("db, {at}"));
            }
            assert_eq!(db.is_some(), bias.is_some(), "{at}: bias gradient presence");
            if single_batch {
                assert_bitwise(&dw, &dw_ref, &format!("dw, {at}"));
            } else {
                let scale = dw_ref.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let worst = dw
                    .data()
                    .iter()
                    .zip(dw_ref.data())
                    .fold(0.0f32, |m, (a, r)| m.max((a - r).abs()));
                assert!(
                    worst <= DW_REL_TOL * scale,
                    "dw, {at}: off by {worst} of {scale}"
                );
            }
            match &dw_at_one_thread {
                Some(first) => assert_bitwise(&dw, first, &format!("dw across threads, {what}")),
                None => dw_at_one_thread = Some(dw),
            }
        }
        pool::set_num_threads(prev);
    }
}

#[test]
fn rank_one_input() {
    check(&[], 13, 7, 10);
    check(&[], 37, 50, 11);
}

#[test]
fn rank_two_input() {
    check(&[9], 13, 7, 20);
    // Enough rows and columns for every GEMM to run on the pool.
    check(&[301], 37, 50, 21);
}

#[test]
fn rank_three_input() {
    check(&[5, 6], 13, 7, 30);
    // A bundled-projection shape: `[40, 40, c]` against four stacked heads.
    check(&[40, 40], 15, 66, 31);
}

#[test]
fn rank_four_input() {
    check(&[2, 3, 5], 13, 7, 40);
    check(&[3, 9, 11], 37, 50, 41);
}

#[test]
fn width_one_layers() {
    check(&[7, 3], 1, 1, 50);
    check(&[6], 1, 19, 51);
}
