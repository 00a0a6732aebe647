//! Vectorized polynomial `exp` — the CPU analogue of the fast `exp` inside
//! the paper's fused Triton softmax kernels.
//!
//! `f32::exp` lowers to a libm call per element, which is the dominant cost
//! of the softmax hot loop (see `BENCH_kernels.json` before this kernel
//! landed: softmax was 1.05× vs seed while LayerNorm was 5×). This module
//! replaces it with a branch-free range-reduced polynomial that the
//! compiler auto-vectorizes 8 lanes wide under the workspace's
//! `x86-64-v3` target:
//!
//! 1. range-reduce `x = n·ln2 + r` with `|r| ≤ ln2/2`, using the
//!    round-to-nearest "magic number" trick and a hi/lo split of `ln2`
//!    (Cephes style) so the reduction is exact to beyond f32 precision;
//! 2. approximate `exp(r)` with a degree-6 minimax polynomial
//!    (max relative error ~2e-8, well under an f32 ulp);
//! 3. scale by `2^n` via exponent-bit construction, split into two factors
//!    so gradual underflow into denormals is handled without branches.
//!
//! Accuracy: ≤ 4 ulp vs `f32::exp` over the full finite range (property
//! tested, including ±inf / NaN / denormal-result edges). Determinism: the
//! per-element operation sequence is fixed — the 8-lane slice paths apply
//! the *same* scalar recipe per lane, and reductions use a fixed striped
//! order — so results are bit-identical at any thread count.

// The constants below are written with their full decimal expansions on
// purpose: LN2_HI is *exactly* 0.693359375 (low mantissa bits zero — the
// whole point of the hi/lo split), and the minimax coefficients document
// the true Cephes values even where f32 rounds the last digit.
#![allow(clippy::excessive_precision)]

/// Lane width of the vectorized paths (AVX2 = 8 × f32).
pub const LANES: usize = 8;

/// Above this input `exp(x)` overflows f32 (`ln(f32::MAX)`).
const EXP_HI: f32 = 88.722_839;
/// Below this input `exp(x)` underflows to zero even as a denormal
/// (`ln(2^-150)`).
const EXP_LO: f32 = -103.972_08;

const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5 * 2^23`: adding then subtracting rounds to nearest integer for
/// |x| < 2^22 without a `round` call (which does not auto-vectorize).
const ROUND_MAGIC: f32 = 12_582_912.0;
/// Hi/lo split of ln2: `LN2_HI` has zeros in its low mantissa bits, so
/// `x - n*LN2_HI` is exact; `LN2_LO` restores full precision.
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
// Degree-6 minimax coefficients for exp(r) on [-ln2/2, ln2/2] (Cephes
// expf): exp(r) ≈ 1 + r + r²·P(r).
const C0: f32 = 1.987_569_15e-4;
const C1: f32 = 1.398_199_95e-3;
const C2: f32 = 8.333_451_9e-3;
const C3: f32 = 4.166_579_6e-2;
const C4: f32 = 1.666_666_55e-1;
const C5: f32 = 5.000_000_1e-1;

/// Fast scalar `exp(x)`: same bit-for-bit recipe as the vectorized slice
/// paths, so mixing scalar tails with lane bodies stays deterministic.
#[inline(always)]
pub fn vexp(x: f32) -> f32 {
    // Clamp into the finite range; saturation is fixed up at the end.
    // NaN survives `clamp` and propagates through the arithmetic.
    let xc = x.clamp(EXP_LO, EXP_HI);
    let nf_magic = xc * LOG2E + ROUND_MAGIC;
    let nf = nf_magic - ROUND_MAGIC;
    let r = (xc - nf * LN2_HI) - nf * LN2_LO;
    // Estrin's scheme instead of Horner: the three pair terms evaluate in
    // parallel, cutting the FMA dependency chain from 6 deep to 3 so
    // out-of-order execution overlaps adjacent lanes/chunks (~1.5× on the
    // softmax hot loop; same coefficients, ≤1 ulp vs the Horner order).
    let r2 = r * r;
    let p01 = C0 * r + C1;
    let p23 = C2 * r + C3;
    let p45 = C4 * r + C5;
    let p = (p01 * r2 + p23) * r2 + p45;
    let q = (p * r) * r + r + 1.0;
    // 2^n as a product of two exponent-constructed factors: n in
    // [-150, 128] splits into halves within the normal exponent range,
    // and the single final rounding handles denormal results correctly.
    // The integer n already sits in the low mantissa bits of `nf_magic`:
    // for |n| < 2^22, bits(n + MAGIC) == bits(MAGIC) + n, so a bit
    // subtraction recovers it. (A `nf as i32` cast is Rust's *saturating*
    // float→int conversion, which lowers to `fptosi.sat` — LLVM refuses to
    // vectorize loops containing it, and the whole kernel falls back to
    // scalar code.) NaN inputs produce a garbage n here, but `q` is
    // already NaN then and NaN·s1·s2 stays NaN.
    let n = (nf_magic.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let n1 = n >> 1;
    let n2 = n - n1;
    let s1 = f32::from_bits(((n1 + 127) << 23) as u32);
    let s2 = f32::from_bits(((n2 + 127) << 23) as u32);
    let y = q * s1 * s2;
    // Saturation fixups (selects, not branches): overflow → +inf,
    // underflow → 0. NaN fails both compares and passes through.
    let y = if x > EXP_HI { f32::INFINITY } else { y };
    if x < EXP_LO {
        0.0
    } else {
        y
    }
}

/// In-place `exp` over a slice, 8 lanes at a time.
pub fn vexp_inplace(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        for v in chunk.iter_mut() {
            *v = vexp(*v);
        }
    }
    for v in chunks.into_remainder() {
        *v = vexp(*v);
    }
}

/// `block[i, j] = exp(block[i, j] - shifts[i])` in place over a row-major
/// block of `shifts.len()` equal rows: each row's subtraction, then one
/// [`vexp_inplace`] over the whole block, so rows shorter than a few lanes
/// (attention logits at s_k = 4–12) run their exp 8 lanes wide across row
/// boundaries instead of ending in a scalar tail each. Every element gets
/// `vexp(x - shift)`, the bits of a per-row loop.
#[inline]
pub fn vexp_shift_rows(block: &mut [f32], shifts: &[f32]) {
    if let Some(row_len) = row_len(block, shifts) {
        for (row, &shift) in block.chunks_exact_mut(row_len).zip(shifts) {
            for v in row {
                *v -= shift;
            }
        }
    }
    vexp_inplace(block);
}

/// The softmax workhorse: [`vexp_shift_rows`], then `sums[i]` = row `i`'s
/// sum via a fixed 8-lane striped reduction (the whole 8-element chunks in
/// eight lane accumulators combined as a fixed tree, then the tail added
/// in order). Deterministic at any thread count: rows are never split
/// across threads. Zero-length rows sum to 0.
#[inline]
pub fn vexp_shift_rows_sum(block: &mut [f32], shifts: &[f32], sums: &mut [f32]) {
    vexp_shift_rows(block, shifts);
    match row_len(block, shifts) {
        Some(row_len) => {
            for (row, sum) in block.chunks_exact(row_len).zip(sums) {
                *sum = striped_sum(row);
            }
        }
        None => sums.fill(0.0),
    }
}

/// The row length of a block of `shifts.len()` rows; `None` when the rows
/// are empty.
#[inline]
fn row_len(block: &[f32], shifts: &[f32]) -> Option<usize> {
    debug_assert!(block.len().is_multiple_of(shifts.len()));
    block.len().checked_div(shifts.len()).filter(|&n| n > 0)
}

/// Sum of a slice in the striped order of [`vexp_shift_rows_sum`].
fn striped_sum(xs: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &v) in acc.iter_mut().zip(chunk) {
            *a += v;
        }
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for &v in chunks.remainder() {
        sum += v;
    }
    sum
}

/// Maximum of a slice via an 8-lane striped scan (breaks the serial `maxss`
/// dependence chain of a plain fold). `f32::max` semantics: NaN entries are
/// ignored unless every entry is NaN. Returns `-inf` for an empty slice.
pub fn striped_max(xs: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (l, &v) in chunk.iter().enumerate() {
            lanes[l] = lanes[l].max(v);
        }
    }
    let mut m = lanes.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for &v in chunks.remainder() {
        m = m.max(v);
    }
    m
}

/// Ulp distance between two f32s of the same sign class (exp outputs are
/// always ≥ 0), treating equal bit patterns / both-NaN as 0 and an
/// inf-vs-finite mismatch as `i64::MAX`.
pub fn ulp_distance(a: f32, b: f32) -> i64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        return 0;
    }
    if a.is_nan() != b.is_nan() {
        return i64::MAX;
    }
    if a.is_infinite() != b.is_infinite() {
        return i64::MAX;
    }
    (a.to_bits() as i64 - b.to_bits() as i64).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_std_exp_within_4_ulp_log_spaced() {
        // Log-spaced magnitudes from 1e-6 up to the overflow threshold,
        // both signs, plus zero.
        let mut worst = 0i64;
        let mut mag = 1e-6f32;
        while mag < 88.0 {
            for &x in &[mag, -mag] {
                let d = ulp_distance(vexp(x), x.exp());
                assert!(d <= 4, "vexp({x}) = {} vs {} ({d} ulp)", vexp(x), x.exp());
                worst = worst.max(d);
            }
            mag *= 1.07;
        }
        assert_eq!(vexp(0.0), 1.0);
        assert!(worst <= 4);
    }

    #[test]
    fn edge_cases() {
        assert_eq!(vexp(f32::INFINITY), f32::INFINITY);
        assert_eq!(vexp(f32::NEG_INFINITY), 0.0);
        assert!(vexp(f32::NAN).is_nan());
        assert_eq!(vexp(100.0), f32::INFINITY);
        assert_eq!(vexp(89.0), f32::INFINITY);
        assert_eq!(vexp(-200.0), 0.0);
        // Denormal-result range: within a couple of denormal ulps of libm.
        for &x in &[-88.0f32, -90.0, -100.0, -103.0] {
            let d = ulp_distance(vexp(x), x.exp());
            assert!(d <= 4, "vexp({x}) = {} vs {} ({d} ulp)", vexp(x), x.exp());
        }
        // Denormal *inputs*: exp(tiny) == 1.0 exactly.
        assert_eq!(vexp(f32::from_bits(1)), 1.0);
        assert_eq!(vexp(-f32::from_bits(1)), 1.0);
    }

    #[test]
    fn slice_paths_match_scalar_bitwise() {
        let xs: Vec<f32> = (0..37).map(|i| (i as f32 - 18.0) * 1.37).collect();
        let mut a = xs.clone();
        vexp_inplace(&mut a);
        for (y, &x) in a.iter().zip(xs.iter()) {
            assert_eq!(y.to_bits(), vexp(x).to_bits());
        }
        // A block of rows, each shifted by its own max.
        let mut b = xs[..36].to_vec();
        let shifts: Vec<f32> = b.chunks(12).map(striped_max).collect();
        let mut sums = [0.0; 3];
        vexp_shift_rows_sum(&mut b, &shifts, &mut sums);
        for (i, (y, &x)) in b.iter().zip(xs.iter()).enumerate() {
            assert_eq!(y.to_bits(), vexp(x - shifts[i / 12]).to_bits());
        }
    }

    #[test]
    fn shift_sum_is_deterministic_and_close() {
        let mut row: Vec<f32> = (0..101)
            .map(|i| ((i * 37) % 19) as f32 * 0.3 - 2.0)
            .collect();
        let m = [striped_max(&row)];
        let (mut s1, mut s2) = ([0.0], [0.0]);
        vexp_shift_rows_sum(&mut row.clone(), &m, &mut s1);
        vexp_shift_rows_sum(&mut row, &m, &mut s2);
        assert_eq!(s1[0].to_bits(), s2[0].to_bits());
        let reference: f64 = row.iter().map(|&w| w as f64).sum();
        assert!((s1[0] as f64 - reference).abs() / reference < 1e-5);
        // Empty rows sum to zero.
        let mut sums = [f32::NAN; 2];
        vexp_shift_rows_sum(&mut [], &[1.0, 2.0], &mut sums);
        assert_eq!(sums, [0.0; 2]);
    }

    #[test]
    fn striped_max_matches_fold() {
        let xs: Vec<f32> = (0..53).map(|i| ((i * 29) % 31) as f32 - 15.0).collect();
        let expect = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(striped_max(&xs), expect);
        assert_eq!(striped_max(&[]), f32::NEG_INFINITY);
    }
}
