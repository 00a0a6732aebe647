//! Blocked general matrix multiplication with batch broadcasting, plus the
//! batched-GEMM bundling primitive the paper uses before MHA (§3.3.1,
//! "GEMM Batching").
//!
//! The engine is a packed, register-tiled GEMM parallelized over
//! batch × row blocks through [`crate::pool`]:
//!
//! - Each distinct B operand is packed into column panels once per call,
//!   in thread-local scratch, so the micro-kernel streams it contiguously
//!   regardless of transposition and no row-block task repacks it. A B
//!   shared by the whole batch (a rank-2 rhs) folds A's leading dims into
//!   rows: one tall product over one packed B.
//! - Panels are `NR` = 16 columns wide and run `MR × NR` = 4 × 16 register
//!   tiles. A panel of at most 8 columns (a head-width product, the tail of
//!   a 40-key logits row) is packed 8 wide and runs 8 × 8 tiles instead, so
//!   no lane multiplies padding.
//! - The micro-kernel *assigns* each finished tile to the output, every
//!   element exactly once (a `k = 0` product assigns its zero sums). A
//!   full-width accumulator row moves as one fixed-size array (vector
//!   stores, no `memcpy` call); only an edge tile copies a runtime width.
//!   So outputs come from [`Tensor::write_once`] with no zero fill.
//! - Each output element is accumulated over `k` in one fixed ascending
//!   pass whatever its tile shape, and row-block boundaries are multiples
//!   of both tile heights, so the result is **bit-identical for every
//!   thread count** (asserted in `tests/parallel_determinism.rs`).
//!
//! [`matmul_bt`] (`a @ b^T`) and [`matmul_at`] (`a^T @ b`) reuse the same
//! engine with stride/packing twists instead of materializing a transposed
//! copy — these are the shapes the attention forward and backward passes
//! actually need. A linear layer runs [`linear`] forward, then `matmul`
//! for its input gradient and [`linear_weight_grad`] for its weight
//! gradient, all with the weight in its stored `[out, in]` layout.

use crate::pool::{parallel_for, SendPtr};
use crate::scratch;
use crate::shape::Shape;
use crate::{Result, Tensor, TensorError};
use std::marker::PhantomData;
use std::mem::MaybeUninit;

/// Cache-blocking tile edge for [`gemm_block`], the seed reference kernel.
const TILE: usize = 32;

/// Rows of a wide micro-tile: a full panel runs `MR × NR` tiles, held
/// entirely in registers.
const MR: usize = 4;
/// Columns of a wide panel (two 8-lane vectors per accumulator row).
const NR: usize = 16;
/// Edge of the narrow tile: a panel of at most `NARROW` columns is packed
/// `NARROW` wide and runs `NARROW × NARROW` tiles, one 8-lane vector per
/// accumulator row, so a head-width product (`n = 8`) multiplies no
/// padding lanes.
const NARROW: usize = 8;
/// Rows per parallel task. A multiple of both tile heights so the
/// register-tile grid is identical no matter where the row partition falls.
const ROW_BLOCK: usize = 32;

/// Batched matrix product `a @ b`.
///
/// Semantics (a subset of numpy `matmul` sufficient for AlphaFold):
/// - `[m, k] @ [k, n] -> [m, n]`
/// - `[..., m, k] @ [..., k, n] -> [..., m, n]` with identical leading dims
/// - `[..., m, k] @ [k, n] -> [..., m, n]` (rhs broadcast over the batch)
/// - 1-D operands are promoted: `[k] @ [k, n] -> [n]`, `[m, k] @ [k] -> [m]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if contraction dimensions disagree
/// or batch dims are incompatible.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    // Promote 1-D operands.
    if a.rank() == 1 {
        let a2 = a.reshape(&[1, a.dims()[0]])?;
        let out = matmul(&a2, b)?;
        let mut shape = *out.shape();
        shape.remove(shape.rank() - 2);
        return Ok(Tensor::from_shaped(shape, out.into_vec()));
    }
    if b.rank() == 1 {
        let b2 = b.reshape(&[b.dims()[0], 1])?;
        let out = matmul(a, &b2)?;
        let mut shape = *out.shape();
        shape.remove(shape.rank() - 1);
        return Ok(Tensor::from_shaped(shape, out.into_vec()));
    }
    batched_gemm(a, b, false, false, "matmul")
}

/// `a @ b^T` without materializing the transpose: `[..., m, k]` against
/// `[..., n, k]` gives `[..., m, n]`, with the same batch-broadcast rules as
/// [`matmul`]. This is the natural layout for `q @ k^T` and for linear
/// layers stored as `[out, in]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on contraction or batch mismatch,
/// or if either operand has rank < 2.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    batched_gemm(a, b, false, true, "matmul_bt")
}

/// `a^T @ b` without materializing the transpose: `[..., k, m]` against
/// `[..., k, n]` gives `[..., m, n]`, with the same batch-broadcast rules as
/// [`matmul`]. This is the `p^T @ dy` / `dlogits^T @ q` shape of the
/// attention backward pass.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on contraction or batch mismatch,
/// or if either operand has rank < 2.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    batched_gemm(a, b, true, false, "matmul_at")
}

/// Shared entry behind [`matmul`] / [`matmul_bt`] / [`matmul_at`]: checks
/// the shapes, resolves batch broadcasting and runs [`gemm`].
fn batched_gemm(a: &Tensor, b: &Tensor, ta: bool, tb: bool, op: &'static str) -> Result<Tensor> {
    if a.rank() < 2 || b.rank() < 2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    // Logical dims after the (virtual) transposes.
    let (am, ak) = if ta {
        (a.dims()[a.rank() - 1], a.dims()[a.rank() - 2])
    } else {
        (a.dims()[a.rank() - 2], a.dims()[a.rank() - 1])
    };
    let (bk, bn) = if tb {
        (b.dims()[b.rank() - 1], b.dims()[b.rank() - 2])
    } else {
        (b.dims()[b.rank() - 2], b.dims()[b.rank() - 1])
    };
    if ak != bk {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }

    let a_batch = &a.dims()[..a.rank() - 2];
    let b_batch = &b.dims()[..b.rank() - 2];
    let (batch_dims, a_shared, b_shared) = if a_batch == b_batch {
        (a_batch, false, false)
    } else if b_batch.is_empty() {
        (a_batch, false, true)
    } else if a_batch.is_empty() {
        (b_batch, true, false)
    } else {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    };

    // Rank 2 beyond an operand's batch dims: no higher than that operand.
    let mut out_shape = Shape::new(batch_dims);
    out_shape.push(am);
    out_shape.push(bn);
    let mut out = Tensor::write_once_shaped(out_shape, op);
    let a = Operand {
        data: a.data(),
        trans: ta,
        shared: a_shared,
    };
    let b = Operand {
        data: b.data(),
        trans: tb,
        shared: b_shared,
    };
    let batch = batch_dims.iter().product();
    gemm(a, b, batch, am, ak, bn, None, out.uninit());
    // SAFETY: `gemm` assigns every element of its `batch·m·n` output.
    Ok(unsafe { out.assume_written() })
}

/// One side of a [`gemm`]: a stored matrix or a contiguous batch of them,
/// read transposed when `trans`, and used by every batch element when
/// `shared`.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    trans: bool,
    shared: bool,
}

/// `batch` products `C_i = A_i @ B_i` of logical `m × k` by `k × n`
/// matrices, assigned to every element of the row-major `c`, with `bias`
/// (length `n`) added to every row when given.
///
/// Each distinct B is packed into panels once, before any product runs, and
/// the row-block tasks then share that packing. A shared B under a
/// non-transposed A folds A's batch into rows, so a `[..., m, k]` input
/// against one weight runs `batch·m / ROW_BLOCK` tasks over one packed B.
/// Every element still accumulates over `k` in the micro-kernel's one
/// ascending pass and the bias is one add on the finished sum, so neither
/// folding nor packing changes a bit.
#[allow(clippy::too_many_arguments)]
fn gemm(
    a: Operand,
    b: Operand,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    c: &mut [MaybeUninit<f32>],
) {
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    // A's matrices are stacked row-major, so a non-transposed batch is one
    // tall matrix with the same row stride.
    let (batch, m) = if b.shared && !a.trans {
        (1, batch * m)
    } else {
        (batch, m)
    };
    // Strides of the logical A over (row, k): a plain row-major matrix, or
    // its stored transpose read column-wise.
    let (ars, acs) = if a.trans { (1, m) } else { (k, 1) };
    let (a_stride, b_stride) = (m * k, k * n);
    // Panel `p` holds columns from `p·NR` and starts `p·k·NR` floats into
    // its B's packing; only the last panel may be packed narrow.
    let panels = n.div_ceil(NR);
    let packed_len = (panels - 1) * k * NR + k * packed_width(n - (panels - 1) * NR);
    let n_packed = if b.shared { 1 } else { batch };

    scratch::with_scratch(n_packed * packed_len, |packed| {
        let pack_ptr = SendPtr::new(packed);
        parallel_for(n_packed * panels, k * NR, |range| {
            for t in range {
                let (bi, p) = (t / panels, t % panels);
                let (j0, jw) = (p * NR, (n - p * NR).min(NR));
                let b_mat = &b.data[bi * b_stride..(bi + 1) * b_stride];
                // SAFETY: each task packs its own panel.
                let dst = unsafe {
                    pack_ptr.slice_mut(bi * packed_len + p * k * NR, k * packed_width(jw))
                };
                let ldb = if b.trans { k } else { n };
                pack_panel(b_mat, ldb, b.trans, k, j0, jw, dst);
            }
        });
        let packed = &*packed;

        let rb_per_mat = m.div_ceil(ROW_BLOCK);
        let task_cost = ROW_BLOCK.min(m) * k * n * 2;
        let out_ptr = SendPtr::uninit(c);
        parallel_for(batch * rb_per_mat, task_cost, |range| {
            for t in range {
                let (bi, rb) = (t / rb_per_mat, t % rb_per_mat);
                let r0 = rb * ROW_BLOCK;
                let r1 = (r0 + ROW_BLOCK).min(m);
                let a_off = if a.shared { 0 } else { bi * a_stride };
                let b_off = if b.shared { 0 } else { bi * packed_len };
                let a_mat = &a.data[a_off..a_off + a_stride];
                let b_packed = &packed[b_off..b_off + packed_len];
                let (c_off, c_len) = (bi * m * n + r0 * n, (r1 - r0) * n);
                // SAFETY: tasks own disjoint (batch, row-block) regions.
                let mut out = Dense::uninit(unsafe { out_ptr.uninit_mut(c_off, c_len) }, n);
                // Every panel runs, even an empty one (`k = 0`): its tiles
                // assign the zero sums.
                for p in 0..panels {
                    let (j0, jw) = (p * NR, (n - p * NR).min(NR));
                    let panel = &b_packed[p * k * NR..][..k * packed_width(jw)];
                    panel_rows(a_mat, ars, acs, r0, r1, k, panel, &mut out, j0, jw);
                }
                if let Some(bias) = bias {
                    // SAFETY: the panels above assigned this whole region.
                    let c_rows = unsafe { out_ptr.slice_mut(c_off, c_len) };
                    for row in c_rows.chunks_exact_mut(n) {
                        for (y, &bv) in row.iter_mut().zip(bias) {
                            *y += bv;
                        }
                    }
                }
            }
        });
    });
}

/// Scratch floats needed to pack one panel of a `k`-deep B.
pub(crate) fn pack_len(k: usize) -> usize {
    k.max(1) * NR
}

/// Packed width of a panel holding `jw` columns: `NARROW` for a narrow
/// panel, else `NR`.
fn packed_width(jw: usize) -> usize {
    if jw <= NARROW {
        NARROW
    } else {
        NR
    }
}

/// Where a GEMM stores its finished accumulator tiles.
pub(crate) trait TileStore {
    /// Stores the first `jw` sums of each accumulator row `r` of `tile`
    /// into output row `row0 + r`, from column `j0`.
    fn store_tile<const W: usize>(&mut self, row0: usize, j0: usize, jw: usize, tile: &[[f32; W]]);
}

/// Assigns the first `jw` sums of `acc` from `dst`. A full row (`jw == W`)
/// moves as one fixed-size array, which compiles to vector stores; an edge
/// row moves as a few fixed-size pieces ([`copy_short`]).
///
/// # Safety
///
/// `dst..dst + jw` must be valid for writes.
#[inline(always)]
unsafe fn assign_row<const W: usize>(dst: *mut f32, jw: usize, acc: &[f32; W]) {
    if jw == W {
        dst.cast::<[f32; W]>().write(*acc);
    } else {
        copy_short(acc.as_ptr(), dst, jw.min(W));
    }
}

/// Copies `n < 16` floats from `src` to `dst` as at most four fixed-size
/// moves (8, 4, 2 and 1 floats, by the bits of `n`): a few vector moves in
/// place of a libc `memcpy` call, which an edge row of a runtime width
/// otherwise compiles to.
///
/// # Safety
///
/// `src..src + n` must be valid for reads and `dst..dst + n` for writes,
/// and the two must not overlap.
#[inline(always)]
unsafe fn copy_short(src: *const f32, dst: *mut f32, n: usize) {
    debug_assert!(n < 16, "copy_short moves fewer than 16 floats");
    let mut j = 0;
    if n & 8 != 0 {
        dst.cast::<[f32; 8]>().write(src.cast::<[f32; 8]>().read());
        j = 8;
    }
    if n & 4 != 0 {
        dst.add(j)
            .cast::<[f32; 4]>()
            .write(src.add(j).cast::<[f32; 4]>().read());
        j += 4;
    }
    if n & 2 != 0 {
        dst.add(j)
            .cast::<[f32; 2]>()
            .write(src.add(j).cast::<[f32; 2]>().read());
        j += 2;
    }
    if n & 1 != 0 {
        dst.add(j).write(src.add(j).read());
    }
}

/// A dense row-major output block with rows `ld` apart: sums are assigned,
/// so the block may start out unwritten.
pub(crate) struct Dense<'a> {
    ptr: *mut f32,
    /// Floats reachable from `ptr`.
    len: usize,
    ld: usize,
    _buf: PhantomData<&'a mut [f32]>,
}

impl<'a> Dense<'a> {
    /// Rows `ld` apart in a written buffer.
    pub(crate) fn new(c: &'a mut [f32], ld: usize) -> Self {
        Dense {
            ptr: c.as_mut_ptr(),
            len: c.len(),
            ld,
            _buf: PhantomData,
        }
    }

    /// Rows `ld` apart in a buffer that may be unwritten.
    pub(crate) fn uninit(c: &'a mut [MaybeUninit<f32>], ld: usize) -> Self {
        Dense {
            ptr: c.as_mut_ptr().cast(),
            len: c.len(),
            ld,
            _buf: PhantomData,
        }
    }
}

impl TileStore for Dense<'_> {
    #[inline(always)]
    fn store_tile<const W: usize>(&mut self, row0: usize, j0: usize, jw: usize, tile: &[[f32; W]]) {
        let Some(last) = tile.len().checked_sub(1) else {
            return;
        };
        assert!(
            (row0 + last) * self.ld + j0 + jw <= self.len,
            "GEMM tile store past its output"
        );
        for (r, acc) in tile.iter().enumerate() {
            // SAFETY: in bounds (checked above) of the block `new` or
            // `uninit` borrowed exclusively.
            unsafe { assign_row(self.ptr.add((row0 + r) * self.ld + j0), jw, acc) };
        }
    }
}

/// The rows of one attention head inside a wider output, `ld` floats
/// apart, interleaved with the heads other work items write. Rows are
/// written through raw pointers, so no two items ever hold overlapping
/// `&mut` slices. A store can multiply the finished sums by a scale before
/// assigning them: the same rounding as a scale pass after the GEMM. The
/// rows may start out unwritten.
pub(crate) struct Strided<'a> {
    ptr: *mut f32,
    /// Floats reachable from `ptr`.
    len: usize,
    ld: usize,
    scale: Option<f32>,
    _buf: PhantomData<&'a mut [f32]>,
}

impl Strided<'_> {
    /// Rows `ld` apart from `ptr`, within the `len` floats after it; the
    /// sums are multiplied by `scale` when given.
    ///
    /// # Safety
    ///
    /// `ptr..ptr + len` must lie in one allocation that outlives the
    /// result, and no other thread may access the elements a GEMM stores
    /// through it (its `n` columns of each row) while it lives.
    pub(crate) unsafe fn new(ptr: *mut f32, len: usize, ld: usize, scale: Option<f32>) -> Self {
        Strided {
            ptr,
            len,
            ld,
            scale,
            _buf: PhantomData,
        }
    }
}

impl TileStore for Strided<'_> {
    #[inline(always)]
    fn store_tile<const W: usize>(&mut self, row0: usize, j0: usize, jw: usize, tile: &[[f32; W]]) {
        let Some(last) = tile.len().checked_sub(1) else {
            return;
        };
        assert!(
            (row0 + last) * self.ld + j0 + jw <= self.len,
            "GEMM tile store past its output"
        );
        for (r, acc) in tile.iter().enumerate() {
            // SAFETY: in bounds (checked above) of the buffer `new`'s
            // contract hands this store alone.
            let dst = unsafe { self.ptr.add((row0 + r) * self.ld + j0) };
            let sums = match self.scale {
                Some(s) => acc.map(|x| x * s),
                None => *acc,
            };
            // SAFETY: as above.
            unsafe { assign_row(dst, jw, &sums) };
        }
    }
}

/// One serial `m × n` product `C = A @ B` on the engine's packed
/// micro-kernel, for fused kernels that run a short GEMM chain per batch
/// element inside their own parallel work item. `a` is stored `[m, k]`
/// (`[k, m]` when `ta`) with its rows `lda` apart, `b` is stored `[k, n]`
/// (`[n, k]` when `tb`) with its rows `ldb` apart, and `c` stores C's rows
/// ([`Dense`], or an attention head's rows in a wider output through
/// [`Strided`]), so any of the three may be a column block of a wider
/// matrix. Every element of `c` is assigned (scaled first when `Strided`
/// asks), `k = 0` included, and `pack` holds at least
/// [`pack_len`]`(k)` floats: B is packed one panel at a time. Every element
/// accumulates over `k` in the batched engine's one ascending pass, so the
/// result is bit-identical to [`matmul`] / [`matmul_bt`] / [`matmul_at`] on
/// the same operands, whatever the leading dimensions. Always inlined, so
/// each call site's constant `ta`/`tb` specialize the stride arithmetic.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn gemm_serial(
    a: &[f32],
    lda: usize,
    ta: bool,
    b: &[f32],
    ldb: usize,
    tb: bool,
    m: usize,
    k: usize,
    n: usize,
    mut c: impl TileStore,
    pack: &mut [f32],
) {
    let (ars, acs) = if ta { (1, lda) } else { (lda, 1) };
    let mut j0 = 0usize;
    while j0 < n {
        let jw = (n - j0).min(NR);
        let panel = &mut pack[..k * packed_width(jw)];
        pack_panel(b, ldb, tb, k, j0, jw, panel);
        panel_rows(a, ars, acs, 0, m, k, panel, &mut c, j0, jw);
        j0 += NR;
    }
}

/// Computes columns `[j0, j0 + jw)` of rows `[r0, r1)` of
/// `C = A_logical @ B_logical` into rows `0..r1 - r0` of `c` from one
/// packed panel: `NARROW × NARROW` tiles on a narrow panel, `MR × NR` tiles
/// otherwise.
#[allow(clippy::too_many_arguments)]
fn panel_rows(
    a: &[f32],
    ars: usize,
    acs: usize,
    r0: usize,
    r1: usize,
    k: usize,
    panel: &[f32],
    c: &mut impl TileStore,
    j0: usize,
    jw: usize,
) {
    if jw <= NARROW {
        tile_rows::<NARROW, NARROW>(a, ars, acs, r0, r1, k, panel, c, j0, jw);
    } else {
        tile_rows::<MR, NR>(a, ars, acs, r0, r1, k, panel, c, j0, jw);
    }
}

/// [`panel_rows`] at one tile shape: `R`-row tiles against a `k × W` panel.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_rows<const R: usize, const W: usize>(
    a: &[f32],
    ars: usize,
    acs: usize,
    r0: usize,
    r1: usize,
    k: usize,
    panel: &[f32],
    c: &mut impl TileStore,
    j0: usize,
    jw: usize,
) {
    let rows = r1 - r0;
    let mut i0 = 0usize;
    while i0 < rows {
        let iw = (rows - i0).min(R);
        micro_tile::<R, W>(a, ars, acs, r0 + i0, iw, k, panel, c, i0, j0, jw);
        i0 += R;
    }
}

/// Packs columns `[j0, j0 + jw)` of the logical B, whose stored rows are
/// `ldb` apart, into a `k × w` panel, `w` = [`packed_width`]`(jw)`
/// (zero-padded beyond `jw` so the micro-kernel runs full vectors).
fn pack_panel(b: &[f32], ldb: usize, tb: bool, k: usize, j0: usize, jw: usize, pack: &mut [f32]) {
    if jw <= NARROW {
        pack_panel_w::<NARROW>(b, ldb, tb, k, j0, jw, pack);
    } else {
        pack_panel_w::<NR>(b, ldb, tb, k, j0, jw, pack);
    }
}

/// [`pack_panel`] at one packed width `W`.
#[inline(always)]
fn pack_panel_w<const W: usize>(
    b: &[f32],
    ldb: usize,
    tb: bool,
    k: usize,
    j0: usize,
    jw: usize,
    pack: &mut [f32],
) {
    let pack = &mut pack[..k * W];
    if tb && jw == W {
        // Stored [n, k]: logical column j is the stored row j, contiguous.
        // Each packed row takes one value from each of the W columns.
        let cols: [&[f32]; W] = std::array::from_fn(|jj| &b[(j0 + jj) * ldb..][..k]);
        for (kk, row) in pack.chunks_exact_mut(W).enumerate() {
            for (x, col) in row.iter_mut().zip(&cols) {
                *x = col[kk];
            }
        }
    } else if tb {
        for jj in 0..jw {
            let col = &b[(j0 + jj) * ldb..][..k];
            for (kk, &v) in col.iter().enumerate() {
                pack[kk * W + jj] = v;
            }
        }
        for jj in jw..W {
            for kk in 0..k {
                pack[kk * W + jj] = 0.0;
            }
        }
    } else {
        for (kk, row) in pack.chunks_exact_mut(W).enumerate() {
            let row: &mut [f32; W] = row.try_into().expect("packed rows are W wide");
            let src = &b[kk * ldb + j0..][..jw];
            match <&[f32; W]>::try_from(src) {
                // A full row moves as one fixed-size array.
                Ok(src) => *row = *src,
                // An edge row: zeros, then a few fixed-size moves.
                Err(_) => {
                    *row = [0.0; W];
                    // SAFETY: `src` holds `jw < W <= 16` floats and `row`
                    // holds `W`; they are different buffers.
                    unsafe { copy_short(src.as_ptr(), row.as_mut_ptr(), jw) };
                }
            }
        }
    }
}

/// The full-tile body of [`micro_tile`]: one independently named `W`-wide
/// accumulator row per listed row `r`, whose A value at step `kk` is
/// `$a_at(kk)(r)`, loaded once per step, then one pass over the panel row
/// updating every accumulator. Named rows (rather than an `[[f32; W]; R]`
/// array, which LLVM vectorized across rows and shuffled back every `k`
/// step) keep the whole tile in vector registers. Evaluates to the tile.
macro_rules! full_tile {
    ($pack:expr, $w:expr, |$kk:ident| $a_at:expr; $(($acc:ident, $av:ident, $r:literal)),+) => {{
        $(let mut $acc = [0.0f32; $w];)+
        for ($kk, brow) in $pack.chunks_exact($w).enumerate() {
            let a_at = $a_at;
            $(let $av = a_at($r);)+
            for jj in 0..$w {
                let bv = brow[jj];
                $($acc[jj] += $av * bv;)+
            }
        }
        [$($acc),+]
    }};
}

/// Register-tiled `iw × W` kernel (`iw ≤ R`, `R` = `MR` or `NARROW`):
/// accumulates over the full `k` range in one fixed ascending pass and
/// *assigns* the tile into `c`. The single pass (same for every tile shape,
/// interior and edge) is what makes parallel output bit-identical to serial.
///
/// A full tile reads A without a bounds check per row and step: read
/// transposed (`ars == 1`) its `R` values at a step are adjacent, one
/// slice per step; read plainly (`acs == 1`) each row is sliced once to
/// its `k` values.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_tile<const R: usize, const W: usize>(
    a: &[f32],
    ars: usize,
    acs: usize,
    row0: usize,
    iw: usize,
    k: usize,
    pack: &[f32],
    c: &mut impl TileStore,
    c_row0: usize,
    j0: usize,
    jw: usize,
) {
    const { assert!(R == MR || R == NARROW, "micro-tiles are 4 or 8 rows") };
    let pack = &pack[..k * W];
    if iw == R && (ars == 1 || acs == 1) {
        macro_rules! tile {
            (|$kk:ident| $a_at:expr) => {
                if R == MR {
                    let tile = full_tile!(pack, W, |$kk| $a_at;
                        (acc0, a0, 0), (acc1, a1, 1), (acc2, a2, 2), (acc3, a3, 3));
                    c.store_tile(c_row0, j0, jw, &tile);
                } else {
                    let tile = full_tile!(pack, W, |$kk| $a_at;
                        (acc0, a0, 0), (acc1, a1, 1), (acc2, a2, 2), (acc3, a3, 3),
                        (acc4, a4, 4), (acc5, a5, 5), (acc6, a6, 6), (acc7, a7, 7));
                    c.store_tile(c_row0, j0, jw, &tile);
                }
            };
        }
        if ars == 1 {
            tile!(|kk| {
                let col: &[f32; R] = a[kk * acs + row0..][..R].try_into().expect("R values");
                move |r: usize| col[r]
            });
        } else {
            let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(row0 + r) * ars..][..k]);
            tile!(|kk| move |r: usize| rows[r][kk]);
        }
        return;
    }
    let mut acc = [[0.0f32; W]; R];
    for (kk, brow) in pack.chunks_exact(W).enumerate() {
        for (r, arow) in acc.iter_mut().enumerate().take(iw) {
            let av = a[(row0 + r) * ars + kk * acs];
            for (x, &bv) in arow.iter_mut().zip(brow.iter()) {
                *x += av * bv;
            }
        }
    }
    c.store_tile(c_row0, j0, jw, &acc[..iw]);
}

/// Rows and width of a `[..., w]` operand of the linear-layer GEMMs: every
/// leading index is one row.
fn rows_of(t: &Tensor) -> (usize, usize) {
    let dims = t.dims();
    let width = dims.last().copied().unwrap_or(1);
    (dims[..dims.len().saturating_sub(1)].iter().product(), width)
}

fn linear_mismatch(op: &'static str, lhs: &Tensor, rhs: &Tensor) -> TensorError {
    TensorError::ShapeMismatch {
        op,
        lhs: lhs.dims().to_vec(),
        rhs: rhs.dims().to_vec(),
    }
}

/// A linear layer's forward pass, `x @ wᵀ + b` over the last axis: `x` is
/// `[..., in]` of any rank ≥ 1, `w` is `[out, in]` as stored and `b` is
/// `[out]`. Every leading index of `x` is one GEMM row against the one
/// packed `w`, and the bias is added in place on each finished row block.
/// Bitwise equal to `x.matmul(&w.transpose()?)?.add(b)?`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `w` is not rank 2, `x`'s last
/// axis is not `w`'s second, or `b` is not `[out]`.
pub fn linear(x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Result<Tensor> {
    let (rows, in_dim) = rows_of(x);
    if x.rank() == 0 || w.rank() != 2 || w.dims()[1] != in_dim {
        return Err(linear_mismatch("linear", x, w));
    }
    let out_dim = w.dims()[0];
    if let Some(b) = b.filter(|b| b.dims() != [out_dim]) {
        return Err(linear_mismatch("linear bias", w, b));
    }
    let mut shape = *x.shape();
    *shape.dims_mut().last_mut().expect("rank >= 1") = out_dim;
    let mut y = Tensor::write_once_shaped(shape, "linear");
    let x = Operand {
        data: x.data(),
        trans: false,
        shared: false,
    };
    let w = Operand {
        data: w.data(),
        trans: true,
        shared: true,
    };
    gemm(
        x,
        w,
        1,
        rows,
        in_dim,
        out_dim,
        b.map(Tensor::data),
        y.uninit(),
    );
    // SAFETY: `gemm` assigns every element of its `rows·out` output.
    Ok(unsafe { y.assume_written() })
}

/// The weight gradient of [`linear`], `dyᵀ @ x` contracted over every
/// leading row: `dy` is `[..., out]`, `x` is `[..., in]` with the same
/// leading dims, the result is `[out, in]` in `w`'s stored layout. It is one
/// GEMM whose `k` runs over all rows, so no per-batch partial products are
/// formed and summed; its tasks are the `out` row blocks.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the leading dims differ or
/// either operand is rank 0.
pub fn linear_weight_grad(dy: &Tensor, x: &Tensor) -> Result<Tensor> {
    let (rows, out_dim) = rows_of(dy);
    let (_, in_dim) = rows_of(x);
    if dy.rank() == 0 || x.rank() == 0 || dy.dims()[..dy.rank() - 1] != x.dims()[..x.rank() - 1] {
        return Err(linear_mismatch("linear_weight_grad", dy, x));
    }
    let mut dw = Tensor::write_once(&[out_dim, in_dim], "linear_weight_grad");
    let dy = Operand {
        data: dy.data(),
        trans: true,
        shared: false,
    };
    let x = Operand {
        data: x.data(),
        trans: false,
        shared: false,
    };
    gemm(dy, x, 1, out_dim, rows, in_dim, None, dw.uninit());
    // SAFETY: `gemm` assigns every element of its `out·in` output.
    Ok(unsafe { dw.assume_written() })
}

/// `c += a @ b` on dense row-major buffers, cache-blocked with an i-k-j
/// inner order (streams `b` rows, accumulates into `c` rows).
///
/// This is the **seed** serial kernel, kept as the baseline that
/// the kernel baseline (`sf-bench --bin kernels`) and the regression tests measure the packed
/// parallel engine against.
pub fn gemm_block(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i0 in (0..m).step_by(TILE) {
        let i1 = (i0 + TILE).min(m);
        for k0 in (0..k).step_by(TILE) {
            let k1 = (k0 + TILE).min(k);
            for i in i0..i1 {
                let crow = &mut c[i * n..(i + 1) * n];
                for kk in k0..k1 {
                    let aik = a[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n..(kk + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                        *cv += aik * bv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                c.data_mut()[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Tensor::randn(&[17, 33], 1);
        let b = Tensor::randn(&[33, 9], 2);
        let c = matmul(&a, &b).unwrap();
        assert!(c.allclose(&naive(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_matches_seed_gemm_block() {
        let (m, k, n) = (37, 19, 23);
        let a = Tensor::randn(&[m, k], 41);
        let b = Tensor::randn(&[k, n], 42);
        let mut c_seed = Tensor::zeros(&[m, n]);
        gemm_block(a.data(), b.data(), c_seed.data_mut(), m, k, n);
        assert!(matmul(&a, &b).unwrap().allclose(&c_seed, 1e-4));
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::randn(&[5, 5], 3);
        let c = matmul(&a, &Tensor::eye(5)).unwrap();
        assert!(c.allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_batched() {
        let a = Tensor::randn(&[2, 3, 4, 5], 4);
        let b = Tensor::randn(&[2, 3, 5, 6], 5);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3, 4, 6]);
        // Spot-check one batch element against the 2-D path.
        let a0 = Tensor::from_vec(a.data()[..20].to_vec(), &[4, 5]).unwrap();
        let b0 = Tensor::from_vec(b.data()[..30].to_vec(), &[5, 6]).unwrap();
        let c0 = matmul(&a0, &b0).unwrap();
        assert!(Tensor::from_vec(c.data()[..24].to_vec(), &[4, 6])
            .unwrap()
            .allclose(&c0, 1e-5));
    }

    #[test]
    fn matmul_rhs_broadcast() {
        let a = Tensor::randn(&[3, 4, 5], 6);
        let b = Tensor::randn(&[5, 2], 7);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 4, 2]);
        let a2 = Tensor::from_vec(a.data()[20..40].to_vec(), &[4, 5]).unwrap();
        let c1 = matmul(&a2, &b).unwrap();
        assert!(Tensor::from_vec(c.data()[8..16].to_vec(), &[4, 2])
            .unwrap()
            .allclose(&c1, 1e-5));
    }

    #[test]
    fn matmul_vector_promotion() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let m = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(matmul(&a, &m).unwrap().dims(), &[2]);
        assert_eq!(matmul(&m, &a).unwrap().dims(), &[2]);
        assert_eq!(matmul(&a, &m).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(matmul(&a, &b).is_err());
        let a3 = Tensor::zeros(&[2, 2, 3]);
        let b3 = Tensor::zeros(&[3, 3, 4]);
        assert!(matmul(&a3, &b3).is_err());
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = Tensor::randn(&[9, 13], 20);
        let b = Tensor::randn(&[7, 13], 21); // logical b^T is [13, 7]
        let expect = matmul(&a, &b.transpose().unwrap()).unwrap();
        let got = matmul_bt(&a, &b).unwrap();
        assert_eq!(got.dims(), &[9, 7]);
        assert_eq!(got.data(), expect.data(), "bt engine must agree bitwise");
    }

    #[test]
    fn matmul_bt_batched_with_broadcast_rhs() {
        let a = Tensor::randn(&[3, 8, 5], 22);
        let b = Tensor::randn(&[6, 5], 23);
        let expect = matmul(&a, &b.transpose().unwrap()).unwrap();
        let got = matmul_bt(&a, &b).unwrap();
        assert_eq!(got.dims(), &[3, 8, 6]);
        assert!(got.allclose(&expect, 1e-6));
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = Tensor::randn(&[13, 9], 24); // logical a^T is [9, 13]
        let b = Tensor::randn(&[13, 7], 25);
        let expect = matmul(&a.transpose().unwrap(), &b).unwrap();
        let got = matmul_at(&a, &b).unwrap();
        assert_eq!(got.dims(), &[9, 7]);
        assert_eq!(got.data(), expect.data(), "at engine must agree bitwise");
    }

    #[test]
    fn matmul_at_batched() {
        let a = Tensor::randn(&[4, 11, 3], 26);
        let b = Tensor::randn(&[4, 11, 5], 27);
        let got = matmul_at(&a, &b).unwrap();
        assert_eq!(got.dims(), &[4, 3, 5]);
        for i in 0..4 {
            let a_i = Tensor::from_vec(a.data()[i * 33..(i + 1) * 33].to_vec(), &[11, 3]).unwrap();
            let b_i = Tensor::from_vec(b.data()[i * 55..(i + 1) * 55].to_vec(), &[11, 5]).unwrap();
            let e_i = matmul(&a_i.transpose().unwrap(), &b_i).unwrap();
            let g_i = Tensor::from_vec(got.data()[i * 15..(i + 1) * 15].to_vec(), &[3, 5]).unwrap();
            assert!(g_i.allclose(&e_i, 1e-5));
        }
    }

    #[test]
    fn transposed_variants_reject_vectors() {
        let v = Tensor::zeros(&[4]);
        let m = Tensor::zeros(&[4, 4]);
        assert!(matmul_bt(&v, &m).is_err());
        assert!(matmul_at(&m, &v).is_err());
    }
}
