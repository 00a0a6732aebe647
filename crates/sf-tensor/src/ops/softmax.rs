//! Softmax over the last axis: the standard three-pass kernel, whose
//! 8-lane max scan and shifted exp with its striped row sum
//! ([`crate::ops::vexp`]) the whole-row fused attention kernel also runs
//! on each logits block.
//!
//! The row loop runs on the parallel CPU backend ([`crate::pool`]); rows
//! are independent, so output is bit-identical for every thread count.

use crate::ops::vexp::{striped_max, vexp_shift_rows_sum};
use crate::pool::{parallel_for, SendPtr};
use crate::scratch::with_scratch;
use crate::{Result, Tensor, TensorError};

/// Elements per block of rows that [`softmax_inplace`] sweeps with all
/// three passes before moving on (8 KiB: the block stays in L1).
const BLOCK_ELEMS: usize = 2048;

/// Numerically-stable softmax over the last axis.
///
/// # Errors
///
/// Returns an error for rank-0 tensors or a zero-size last axis.
pub fn softmax(x: &Tensor) -> Result<Tensor> {
    let mut out = x.clone();
    softmax_inplace(&mut out)?;
    Ok(out)
}

/// In-place variant of [`softmax`], for callers that already own a logits
/// buffer they no longer need (e.g. the attention backward pass, which
/// turns logits into probabilities without a second allocation).
///
/// # Errors
///
/// Returns an error for rank-0 tensors or a zero-size last axis.
pub fn softmax_inplace(x: &mut Tensor) -> Result<()> {
    let rank = x.rank();
    if rank == 0 {
        return Err(TensorError::AxisOutOfRange { axis: 0, rank: 0 });
    }
    let inner = *x.dims().last().expect("rank >= 1");
    if inner == 0 {
        return Err(TensorError::EmptyInput("softmax"));
    }
    let rows = x.len() / inner;
    let ptr = SendPtr::new(x.data_mut());
    // ~6 scalar ops per element: max scan, exp+sum, scale. Each range
    // runs the three passes over blocks of rows that stay in L1, so short
    // rows take their exp 8 lanes wide across row boundaries; every element
    // gets the bits of `softmax_row`.
    parallel_for(rows, inner * 6, |range| {
        let per_block = (BLOCK_ELEMS / inner).min(range.len()).max(1);
        with_scratch(2 * per_block, |buf| {
            let (maxes, sums) = buf.split_at_mut(per_block);
            for start in range.clone().step_by(per_block) {
                let n = per_block.min(range.end - start);
                // SAFETY: row ranges from parallel_for are disjoint.
                let block = unsafe { ptr.slice_mut(start * inner, n * inner) };
                softmax_rows(block, &mut maxes[..n], &mut sums[..n]);
            }
        });
    });
    Ok(())
}

/// Softmax with an additive mask: entries where `mask == 0` receive a large
/// negative bias before the softmax (AlphaFold masks padded MSA rows and
/// residues this way). `mask` must broadcast to `x`'s shape.
///
/// # Errors
///
/// Returns an error on shape mismatch.
pub fn masked_softmax(x: &Tensor, mask: &Tensor) -> Result<Tensor> {
    // -3e4 rather than -inf: matches bf16-safe masking in real pipelines and
    // avoids NaN rows when an entire row is masked.
    let neg = mask.map(|m| if m == 0.0 { -3.0e4 } else { 0.0 });
    softmax(&x.add(&neg)?)
}

/// In-place three-pass softmax on a single row. All three passes run
/// 8 lanes wide: striped max scan, [`vexp_shift_rows_sum`] on the one row
/// (vectorized exp with a fixed-order striped sum), then the scale pass.
pub fn softmax_row(row: &mut [f32]) {
    softmax_rows(row, &mut [0.0], &mut [0.0]);
}

/// The three passes over a block of `maxes.len()` equal rows: every row's
/// striped max, one [`vexp_shift_rows_sum`] over the whole block, then
/// each row's scale by `1 / sum`. Per element the same arithmetic at any
/// block size.
fn softmax_rows(block: &mut [f32], maxes: &mut [f32], sums: &mut [f32]) {
    // An empty row still needs a nonzero chunk size.
    let inner = (block.len() / maxes.len()).max(1);
    for (m, row) in maxes.iter_mut().zip(block.chunks_exact(inner)) {
        *m = striped_max(row);
    }
    vexp_shift_rows_sum(block, maxes, sums);
    for (row, &sum) in block.chunks_exact_mut(inner).zip(sums.iter()) {
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::randn(&[4, 7], 1);
        let s = softmax(&x).unwrap();
        for row in s.data().chunks(7) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_shift_invariance() {
        let x = Tensor::randn(&[3, 5], 2);
        let shifted = x.add_scalar(100.0);
        assert!(softmax(&x)
            .unwrap()
            .allclose(&softmax(&shifted).unwrap(), 1e-5));
    }

    #[test]
    fn softmax_handles_large_magnitudes() {
        let x = Tensor::from_vec(vec![1.0e4, 1.0e4 + 1.0], &[1, 2]).unwrap();
        let s = softmax(&x).unwrap();
        assert!(!s.has_non_finite());
        assert!(s.data()[1] > s.data()[0]);
    }

    #[test]
    fn masked_softmax_zeroes_masked() {
        let x = Tensor::zeros(&[1, 4]);
        let mask = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[1, 4]).unwrap();
        let s = masked_softmax(&x, &mask).unwrap();
        assert!((s.data()[0] - 0.5).abs() < 1e-4);
        assert!(s.data()[1] < 1e-6);
        assert!((s.data()[2] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn masked_softmax_fully_masked_row_is_finite() {
        let x = Tensor::zeros(&[1, 3]);
        let mask = Tensor::zeros(&[1, 3]);
        let s = masked_softmax(&x, &mask).unwrap();
        assert!(!s.has_non_finite());
    }

    #[test]
    fn softmax_rejects_scalar() {
        assert!(softmax(&Tensor::scalar(1.0)).is_err());
    }
}
