//! LayerNormalization kernels.
//!
//! The paper's custom Triton LN kernel (§3.3.1) differs from the stock
//! implementation in three ways, all of which are reproduced here as real
//! algorithms:
//!
//! 1. each "thread block" processes **multiple rows** (here: the row-chunked
//!    loop structure of [`fused_forward`]),
//! 2. normalization statistics come out of the **same kernel** as the
//!    normalized output (no separate mean/variance launches; on this CPU
//!    backend the row statistics use a deterministic striped-lane
//!    reduction, the vectorizable stand-in for Triton's in-block Welford),
//! 3. the backward pass computes weight/bias gradients with a **two-step
//!    reduction** (per-block partial sums into an intermediate buffer, then
//!    a column reduction) instead of atomics.
//!
//! [`naive_forward`]/[`naive_backward`] are the reference implementations;
//! tests assert bit-level-tolerant agreement.
//!
//! The fused kernels run on the parallel CPU backend ([`crate::pool`]):
//! the forward pass partitions rows, the backward pass partitions
//! reduction blocks (step 1) and columns (step 2). Every per-element
//! accumulation order is independent of the partition, so output is
//! bit-identical for every thread count.

use crate::pool::{parallel_for, SendPtr};
use crate::scratch;
use crate::{Result, Tensor, TensorError};

/// Default epsilon used by AlphaFold layer norms.
pub const LN_EPS: f32 = 1e-5;

/// Saved per-row statistics from an LN forward pass, needed for backward.
#[derive(Debug, Clone)]
pub struct LayerNormStats {
    /// Per-row mean, shape `[rows]`.
    pub mean: Vec<f32>,
    /// Per-row reciprocal standard deviation, shape `[rows]`.
    pub rstd: Vec<f32>,
}

fn check_ln_args(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> Result<usize> {
    let inner = *x
        .dims()
        .last()
        .ok_or(TensorError::EmptyInput("layernorm"))?;
    if gamma.dims() != [inner] || beta.dims() != [inner] {
        return Err(TensorError::ShapeMismatch {
            op: "layernorm params",
            lhs: x.dims().to_vec(),
            rhs: gamma.dims().to_vec(),
        });
    }
    if inner == 0 {
        return Err(TensorError::EmptyInput("layernorm"));
    }
    Ok(inner)
}

/// Reference two-pass LayerNorm over the last axis.
///
/// # Errors
///
/// Returns an error if `gamma`/`beta` do not have shape `[last_dim]`.
pub fn naive_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<(Tensor, LayerNormStats)> {
    let inner = check_ln_args(x, gamma, beta)?;
    let rows = x.len() / inner;
    let mut out = x.clone();
    let mut stats = LayerNormStats {
        mean: Vec::with_capacity(rows),
        rstd: Vec::with_capacity(rows),
    };
    for row in out.data_mut().chunks_mut(inner) {
        // Pass 1: mean. Pass 2: variance. (This is the "expensive iterative
        // method" the paper replaces.)
        let mean = row.iter().sum::<f32>() / inner as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / inner as f32;
        let rstd = 1.0 / (var + eps).sqrt();
        for (v, (&g, &b)) in row
            .iter_mut()
            .zip(gamma.data().iter().zip(beta.data().iter()))
        {
            *v = (*v - mean) * rstd * g + b;
        }
        stats.mean.push(mean);
        stats.rstd.push(rstd);
    }
    Ok((out, stats))
}

/// Fused LayerNorm: one kernel produces the normalized output *and* the
/// `(mean, rstd)` statistics the backward pass needs (mirroring the
/// multi-row-per-thread-block Triton kernel — no separate mean/var/normalize
/// launches). Row statistics use the deterministic 8-lane striped reduction
/// of `lane_sum`: a scalar Welford recurrence would carry a divide on the
/// loop, which serializes on a CPU, while the striped two-pass vectorizes.
///
/// # Errors
///
/// Returns an error if `gamma`/`beta` do not have shape `[last_dim]`.
pub fn fused_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<(Tensor, LayerNormStats)> {
    let inner = check_ln_args(x, gamma, beta)?;
    let rows = x.len() / inner;
    let mut out = x.clone();
    let mut stats = LayerNormStats {
        mean: vec![0.0; rows],
        rstd: vec![0.0; rows],
    };
    let out_ptr = SendPtr::new(out.data_mut());
    let mean_ptr = SendPtr::new(&mut stats.mean);
    let rstd_ptr = SendPtr::new(&mut stats.rstd);
    let (gd, bd) = (gamma.data(), beta.data());
    // ~8 scalar ops per element: two reduction passes + normalize pass.
    parallel_for(rows, inner * 8, |range| {
        for r in range {
            // SAFETY: row ranges from parallel_for are disjoint.
            let row = unsafe { out_ptr.slice_mut(r * inner, inner) };
            let mean = lane_sum(row, |v| v) / inner as f32;
            let var = lane_sum(row, |v| (v - mean) * (v - mean)) / inner as f32;
            let rstd = 1.0 / (var + eps).sqrt();
            for (v, (&g, &b)) in row.iter_mut().zip(gd.iter().zip(bd.iter())) {
                *v = (*v - mean) * rstd * g + b;
            }
            // SAFETY: one stats slot per row, rows are disjoint.
            unsafe {
                mean_ptr.slice_mut(r, 1)[0] = mean;
                rstd_ptr.slice_mut(r, 1)[0] = rstd;
            }
        }
    });
    Ok((out, stats))
}

/// Deterministic vectorizable row reduction: accumulates `f(x)` into 8
/// fixed lanes (lane `j` owns elements `j mod 8`) and combines them in a
/// fixed tree, so the result depends only on the data — never on thread
/// count or partitioning. The scalar `iter().sum()` chain this replaces
/// cannot vectorize (FP addition is not reassociable); striping the sum
/// across 8 lanes makes the reduction order explicit *and* SIMD-friendly.
#[inline]
fn lane_sum<F: Fn(f32) -> f32>(xs: &[f32], f: F) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = xs.chunks_exact(8);
    for c in chunks.by_ref() {
        for (lane, &v) in lanes.iter_mut().zip(c.iter()) {
            *lane += f(v);
        }
    }
    let mut s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for &v in chunks.remainder() {
        s += f(v);
    }
    s
}

/// Gradients of a LayerNorm: `(dx, dgamma, dbeta)`.
pub type LayerNormGrads = (Tensor, Tensor, Tensor);

/// Reference backward pass (direct accumulation of `dgamma`/`dbeta` — the
/// moral equivalent of the atomic-add kernel the paper avoids).
///
/// # Errors
///
/// Returns an error on shape mismatch between `dy`, `x`, params, and stats.
pub fn naive_backward(
    dy: &Tensor,
    x: &Tensor,
    gamma: &Tensor,
    stats: &LayerNormStats,
) -> Result<LayerNormGrads> {
    let inner = *x
        .dims()
        .last()
        .ok_or(TensorError::EmptyInput("layernorm"))?;
    let rows = x.len() / inner;
    if dy.dims() != x.dims() || stats.mean.len() != rows {
        return Err(TensorError::ShapeMismatch {
            op: "layernorm backward",
            lhs: dy.dims().to_vec(),
            rhs: x.dims().to_vec(),
        });
    }
    let mut dx = Tensor::zeros(x.dims());
    let mut dgamma = Tensor::zeros(&[inner]);
    let mut dbeta = Tensor::zeros(&[inner]);
    for r in 0..rows {
        let xs = &x.data()[r * inner..(r + 1) * inner];
        let dys = &dy.data()[r * inner..(r + 1) * inner];
        let (mean, rstd) = (stats.mean[r], stats.rstd[r]);
        // xhat and the two row-reductions of the standard LN backward.
        let mut sum_dxhat = 0.0f32;
        let mut sum_dxhat_xhat = 0.0f32;
        for i in 0..inner {
            let xhat = (xs[i] - mean) * rstd;
            let dxhat = dys[i] * gamma.data()[i];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += dxhat * xhat;
            dgamma.data_mut()[i] += dys[i] * xhat;
            dbeta.data_mut()[i] += dys[i];
        }
        let n = inner as f32;
        for i in 0..inner {
            let xhat = (xs[i] - mean) * rstd;
            let dxhat = dys[i] * gamma.data()[i];
            dx.data_mut()[r * inner + i] =
                rstd * (dxhat - sum_dxhat / n - xhat * sum_dxhat_xhat / n);
        }
    }
    Ok((dx, dgamma, dbeta))
}

/// Rows whose backward row sums [`fused_backward`] runs interleaved.
const SUM_ROWS: usize = 8;

/// The backward row sums `(Σ dxhat, Σ dxhat·xhat)` of the `R` rows in `x`
/// and `dy` (`R × inner`, `inner = gamma.len()`). Each row's two sums add
/// in element order, exactly as a row-at-a-time loop does; the `R` rows'
/// chains are interleaved so the adds overlap instead of waiting on one
/// another.
#[inline(always)]
fn row_sums<const R: usize>(
    x: &[f32],
    dy: &[f32],
    gamma: &[f32],
    mean: &[f32],
    rstd: &[f32],
) -> [(f32, f32); R] {
    let inner = gamma.len();
    let xs: [&[f32]; R] = std::array::from_fn(|j| &x[j * inner..][..inner]);
    let dys: [&[f32]; R] = std::array::from_fn(|j| &dy[j * inner..][..inner]);
    let (mean, rstd): ([f32; R], [f32; R]) = (
        std::array::from_fn(|j| mean[j]),
        std::array::from_fn(|j| rstd[j]),
    );
    let mut sums = [(0.0f32, 0.0f32); R];
    for (i, &g) in gamma.iter().enumerate() {
        for j in 0..R {
            let xhat = (xs[j][i] - mean[j]) * rstd[j];
            let dxhat = dys[j][i] * g;
            sums[j].0 += dxhat;
            sums[j].1 += dxhat * xhat;
        }
    }
    sums
}

/// Fused backward pass with the paper's **two-step reduction** for
/// `dgamma`/`dbeta`: rows are grouped into blocks of `block_rows`; each block
/// reduces its sub-region of upstream gradients into an intermediate
/// `[num_blocks, inner]` buffer; a second step reduces each column. This
/// avoids cross-block contention (atomics on a GPU) at the cost of one
/// intermediate buffer.
///
/// # Errors
///
/// Returns an error on shape mismatch, or if `block_rows == 0`.
pub fn fused_backward(
    dy: &Tensor,
    x: &Tensor,
    gamma: &Tensor,
    stats: &LayerNormStats,
    block_rows: usize,
) -> Result<LayerNormGrads> {
    if block_rows == 0 {
        return Err(TensorError::EmptyInput("fused_backward block_rows"));
    }
    let inner = *x
        .dims()
        .last()
        .ok_or(TensorError::EmptyInput("layernorm"))?;
    let rows = x.len() / inner;
    if dy.dims() != x.dims() || stats.mean.len() != rows {
        return Err(TensorError::ShapeMismatch {
            op: "layernorm backward",
            lhs: dy.dims().to_vec(),
            rhs: x.dims().to_vec(),
        });
    }
    let num_blocks = rows.div_ceil(block_rows);
    let mut dx = Tensor::zeros(x.dims());
    let mut dgamma = Tensor::zeros(&[inner]);
    let mut dbeta = Tensor::zeros(&[inner]);
    // Step 1: per-block partial reductions into the intermediate buffer.
    // Blocks are the parallel unit; block boundaries depend only on
    // `block_rows`, never on the thread count, so the reduction order per
    // partial element is fixed.
    scratch::with_zeroed_scratch(2 * num_blocks * inner, |partial| {
        let partial_ptr = SendPtr::new(partial);
        let dx_ptr = SendPtr::new(dx.data_mut());
        let (xd, dyd, gd) = (x.data(), dy.data(), &gamma.data()[..inner]);
        parallel_for(num_blocks, block_rows.min(rows) * inner * 12, |range| {
            for blk in range {
                let r0 = blk * block_rows;
                let r1 = (r0 + block_rows).min(rows);
                // SAFETY: each block owns its partial rows and dx rows.
                let pg = unsafe { partial_ptr.slice_mut(blk * inner, inner) };
                let pb = unsafe { partial_ptr.slice_mut((num_blocks + blk) * inner, inner) };
                let n = inner as f32;
                for r in (r0..r1).step_by(SUM_ROWS) {
                    let w = (r1 - r).min(SUM_ROWS);
                    let (x, dy) = (
                        &xd[r * inner..(r + w) * inner],
                        &dyd[r * inner..(r + w) * inner],
                    );
                    let (mean, rstd) = (&stats.mean[r..r + w], &stats.rstd[r..r + w]);
                    let mut sums = [(0.0f32, 0.0f32); SUM_ROWS];
                    if w == SUM_ROWS {
                        sums = row_sums::<SUM_ROWS>(x, dy, gd, mean, rstd);
                    } else {
                        for (j, sum) in sums[..w].iter_mut().enumerate() {
                            let row = j * inner..(j + 1) * inner;
                            [*sum] = row_sums::<1>(
                                &x[row.clone()],
                                &dy[row],
                                gd,
                                &mean[j..],
                                &rstd[j..],
                            );
                        }
                    }
                    let rows = x.chunks_exact(inner).zip(dy.chunks_exact(inner));
                    for (j, ((xs, dys), &(sum_dxhat, sum_dxhat_xhat))) in
                        rows.zip(&sums).enumerate()
                    {
                        let (mean, rstd) = (mean[j], rstd[j]);
                        for ((g, b), (&x, &dy)) in
                            pg.iter_mut().zip(pb.iter_mut()).zip(xs.iter().zip(dys))
                        {
                            let xhat = (x - mean) * rstd;
                            *g += dy * xhat;
                            *b += dy;
                        }
                        // SAFETY: each block owns its dx rows.
                        let dxs = unsafe { dx_ptr.slice_mut((r + j) * inner, inner) };
                        for ((d, &gamma), (&x, &dy)) in
                            dxs.iter_mut().zip(gd).zip(xs.iter().zip(dys))
                        {
                            let xhat = (x - mean) * rstd;
                            let dxhat = dy * gamma;
                            *d = rstd * (dxhat - sum_dxhat / n - xhat * sum_dxhat_xhat / n);
                        }
                    }
                }
            }
        });
        // Step 2: column reduction of the intermediate buffer, parallel
        // over columns; each column sums blocks in ascending order.
        let dg_ptr = SendPtr::new(dgamma.data_mut());
        let db_ptr = SendPtr::new(dbeta.data_mut());
        let partial_ro: &[f32] = partial;
        parallel_for(inner, num_blocks * 2, |range| {
            for i in range {
                let mut g = 0.0f32;
                let mut b = 0.0f32;
                for blk in 0..num_blocks {
                    g += partial_ro[blk * inner + i];
                    b += partial_ro[(num_blocks + blk) * inner + i];
                }
                // SAFETY: one column slot per item.
                unsafe {
                    dg_ptr.slice_mut(i, 1)[0] = g;
                    db_ptr.slice_mut(i, 1)[0] = b;
                }
            }
        });
    });
    Ok((dx, dgamma, dbeta))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(rows: usize, inner: usize) -> (Tensor, Tensor, Tensor) {
        (
            Tensor::randn(&[rows, inner], 1)
                .mul_scalar(2.0)
                .add_scalar(0.5),
            Tensor::randn(&[inner], 2).mul_scalar(0.1).add_scalar(1.0),
            Tensor::randn(&[inner], 3).mul_scalar(0.1),
        )
    }

    #[test]
    fn forward_normalizes() {
        let x = Tensor::randn(&[8, 64], 4);
        let gamma = Tensor::ones(&[64]);
        let beta = Tensor::zeros(&[64]);
        let (y, _) = naive_forward(&x, &gamma, &beta, LN_EPS).unwrap();
        for row in y.data().chunks(64) {
            let mean: f32 = row.iter().sum::<f32>() / 64.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn fused_matches_naive_forward() {
        let (x, gamma, beta) = setup(13, 128);
        let (y1, s1) = naive_forward(&x, &gamma, &beta, LN_EPS).unwrap();
        let (y2, s2) = fused_forward(&x, &gamma, &beta, LN_EPS).unwrap();
        assert!(y1.allclose(&y2, 1e-4));
        for (a, b) in s1.mean.iter().zip(s2.mean.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        for (a, b) in s1.rstd.iter().zip(s2.rstd.iter()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn fused_backward_matches_naive() {
        let (x, gamma, beta) = setup(10, 32);
        let (_, stats) = fused_forward(&x, &gamma, &beta, LN_EPS).unwrap();
        let dy = Tensor::randn(&[10, 32], 5);
        let (dx1, dg1, db1) = naive_backward(&dy, &x, &gamma, &stats).unwrap();
        for block_rows in [1, 3, 4, 10, 64] {
            let (dx2, dg2, db2) = fused_backward(&dy, &x, &gamma, &stats, block_rows).unwrap();
            assert!(dx1.allclose(&dx2, 1e-5));
            assert!(dg1.allclose(&dg2, 1e-4));
            assert!(db1.allclose(&db2, 1e-4));
        }
    }

    #[test]
    fn fused_backward_is_bitwise_the_row_loop() {
        // 37 rows: four interleaved groups of 8 plus a 5-row tail. With one
        // block, every output is the naive row-at-a-time loop's, bit for
        // bit; with several, dx still is (the partials only regroup the
        // dgamma/dbeta sums).
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for inner in [1, 13, 44] {
            let (x, gamma, beta) = setup(37, inner);
            let (_, stats) = fused_forward(&x, &gamma, &beta, LN_EPS).unwrap();
            let dy = Tensor::randn(&[37, inner], 9);
            let (ndx, ndg, ndb) = naive_backward(&dy, &x, &gamma, &stats).unwrap();
            let (dx, dg, db) = fused_backward(&dy, &x, &gamma, &stats, 64).unwrap();
            assert_eq!(bits(&dx), bits(&ndx), "dx, inner {inner}");
            assert_eq!(bits(&dg), bits(&ndg), "dgamma, inner {inner}");
            assert_eq!(bits(&db), bits(&ndb), "dbeta, inner {inner}");
            for block_rows in [1, 5, 8, 9] {
                let (dx, ..) = fused_backward(&dy, &x, &gamma, &stats, block_rows).unwrap();
                assert_eq!(
                    bits(&dx),
                    bits(&ndx),
                    "dx, inner {inner}, block {block_rows}"
                );
            }
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let inner = 8;
        let x = Tensor::randn(&[3, inner], 6);
        let gamma = Tensor::randn(&[inner], 7).add_scalar(1.0);
        let beta = Tensor::zeros(&[inner]);
        let loss = |x: &Tensor| -> f32 {
            let (y, _) = naive_forward(x, &gamma, &beta, LN_EPS).unwrap();
            // Loss = sum(y * w) for fixed w.
            y.data()
                .iter()
                .enumerate()
                .map(|(i, &v)| v * ((i % 5) as f32 - 2.0))
                .sum()
        };
        let dy = Tensor::from_vec(
            (0..x.len()).map(|i| (i % 5) as f32 - 2.0).collect(),
            &[3, inner],
        )
        .unwrap();
        let (_, stats) = naive_forward(&x, &gamma, &beta, LN_EPS).unwrap();
        let (dx, _, _) = naive_backward(&dy, &x, &gamma, &stats).unwrap();
        let eps = 1e-2f32;
        for i in [0usize, 5, 11, 23] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "idx {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn rejects_bad_params() {
        let x = Tensor::zeros(&[2, 4]);
        let bad = Tensor::zeros(&[3]);
        let ok = Tensor::zeros(&[4]);
        assert!(naive_forward(&x, &bad, &ok, LN_EPS).is_err());
        assert!(fused_forward(&x, &ok, &bad, LN_EPS).is_err());
    }

    #[test]
    fn rejects_zero_block_rows() {
        let (x, gamma, beta) = setup(2, 4);
        let (_, stats) = fused_forward(&x, &gamma, &beta, LN_EPS).unwrap();
        let dy = Tensor::ones(&[2, 4]);
        assert!(fused_backward(&dy, &x, &gamma, &stats, 0).is_err());
    }
}
