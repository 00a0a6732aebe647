//! Pins the in-place `slice_axis` backward to the scatter it replaced.
//!
//! The old adjoint built a zero tensor of the input's shape, copied the
//! slice's cotangent into its window and added the whole tensor into the
//! input's gradient slot. The tape now adds each cotangent straight into
//! its window of the slot. With nonzero cotangents the two must agree
//! **bit for bit**, however the slices and full-tensor consumers of one
//! input interleave on the tape.

use sf_autograd::{Graph, Var};
use sf_tensor::Tensor;

/// One consumer of the shared input `x`, in tape order.
enum Use {
    /// `x ⊙ c`, a full-tensor consumer.
    Full(Tensor),
    /// `slice_axis(x, axis, start, end)`.
    Slice {
        axis: usize,
        start: usize,
        end: usize,
    },
}

/// The old adjoint of `slice_axis`: `dy` scattered into zeros of `full`.
fn unslice(dy: &Tensor, full: &[usize], axis: usize, start: usize) -> Tensor {
    let mut out = Tensor::zeros(full);
    let len = dy.dims()[axis];
    let outer: usize = full[..axis].iter().product();
    let inner: usize = full[axis + 1..].iter().product();
    for o in 0..outer {
        for a in 0..len {
            let src = (o * len + a) * inner;
            let dst = (o * full[axis] + start + a) * inner;
            out.data_mut()[dst..dst + inner].copy_from_slice(&dy.data()[src..src + inner]);
        }
    }
    out
}

/// The old gradient accumulation: take the first delta, add later ones.
fn accumulate(slot: &mut Option<Tensor>, delta: Tensor) {
    match slot {
        Some(g) => {
            for (a, &b) in g.data_mut().iter_mut().zip(delta.data()) {
                *a += b;
            }
        }
        None => *slot = Some(delta),
    }
}

/// Records `uses` of one input on a tape, weights each consumer's output
/// by a random constant, sums everything into the loss and runs backward.
/// Returns the input's gradient and the old scatter's gradient, rebuilt
/// from the cotangent each consumer received, in reverse tape order.
///
/// The tape keeps no cotangent of an intermediate node, so each consumer's
/// is formed here as `Op::Mul`'s VJP forms it: the product `p = o ⊙ w`
/// receives ones from the loss's sums, so `o` receives `1 ⊙ w`, then the
/// one-term sum `0 + x`.
fn tape_and_reference(dims: &[usize], uses: &[Use], seed: u64) -> (Tensor, Tensor) {
    let mut g = Graph::new();
    let x = g.param(Tensor::randn(dims, seed));
    let mut outs: Vec<Var> = Vec::new();
    for u in uses {
        outs.push(match u {
            Use::Full(c) => {
                let c = g.constant(c.clone());
                g.mul(x, c).unwrap()
            }
            Use::Slice { axis, start, end } => g.slice_axis(x, *axis, *start, *end).unwrap(),
        });
    }
    let mut loss_terms = Vec::new();
    let mut weights = Vec::new();
    for (i, &o) in outs.iter().enumerate() {
        let w = Tensor::randn(g.value(o).dims(), seed + 100 + i as u64);
        let wv = g.constant(w.clone());
        let p = g.mul(o, wv).unwrap();
        loss_terms.push(g.sum_all(p).unwrap());
        weights.push(w);
    }
    let mut loss = loss_terms[0];
    for &t in &loss_terms[1..] {
        loss = g.add(loss, t).unwrap();
    }
    g.backward(loss).unwrap();

    let mut expect: Option<Tensor> = None;
    for ((u, &o), w) in uses.iter().zip(&outs).zip(&weights).rev() {
        let ones = Tensor::ones(g.value(o).dims());
        let dy = &ones.mul(w).unwrap().map(|v| 0.0 + v);
        let delta = match u {
            // `Op::Mul`'s input gradient: `dy ⊙ c`, then the one-term sum.
            Use::Full(c) => dy.mul(c).unwrap().map(|v| 0.0 + v),
            Use::Slice { axis, start, .. } => unslice(dy, dims, *axis, *start),
        };
        accumulate(&mut expect, delta);
    }
    (g.grad(x).unwrap().clone(), expect.unwrap())
}

fn assert_bitwise(dims: &[usize], uses: &[Use], seed: u64) {
    let (got, want) = tape_and_reference(dims, uses, seed);
    assert_eq!(got.dims(), want.dims());
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want));
}

fn slice(axis: usize, start: usize, end: usize) -> Use {
    Use::Slice { axis, start, end }
}

#[test]
fn bundled_projection_split() {
    // A bundled projection's split: disjoint last-axis windows covering
    // the row.
    let uses = [
        slice(2, 0, 6),
        slice(2, 6, 12),
        slice(2, 12, 20),
        slice(2, 20, 26),
    ];
    assert_bitwise(&[5, 4, 26], &uses, 1);
}

#[test]
fn slices_with_full_consumers_before_and_after() {
    let dims = [4, 6, 10];
    let uses = [
        Use::Full(Tensor::randn(&dims, 7)), // reached last in backward
        slice(2, 0, 3),
        slice(2, 3, 7),
        slice(1, 2, 5), // another axis, overlapping the others
        slice(2, 3, 7), // the same window twice
        slice(0, 1, 2),
        Use::Full(Tensor::randn(&dims, 8)), // reached first in backward
    ];
    assert_bitwise(&dims, &uses, 2);
}

#[test]
fn partial_and_single_slices() {
    // A window that leaves part of the input without any gradient.
    assert_bitwise(&[3, 8], &[slice(1, 2, 5)], 3);
    assert_bitwise(&[3, 8], &[slice(0, 1, 3), slice(1, 0, 8)], 4);
    // A full-tensor consumer first, then one slice.
    let uses = [slice(0, 0, 1), Use::Full(Tensor::randn(&[3, 8], 9))];
    assert_bitwise(&[3, 8], &uses, 5);
}
