//! Microbenchmark for the vectorized `exp` family: libm vs the polynomial
//! `vexp` (scalar loop, `vexp_inplace`, `vexp_shift_rows_sum`), the
//! shifted exp-and-sum over short attention-width rows one row per call
//! and one block per call, plus a pass breakdown of `softmax_row` at the
//! kernel-bench shape. Run with
//! `cargo run --release -p sf-tensor --example vexp_bench`.
use sf_tensor::ops::softmax::softmax_row;
use sf_tensor::ops::vexp::{striped_max, vexp, vexp_inplace, vexp_shift_rows_sum};
use std::time::Instant;

fn best_of<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let n = 1 << 22;
    let base: Vec<f32> = (0..n).map(|i| (i % 177) as f32 * 0.1 - 8.0).collect();
    let mut buf = base.clone();

    let libm_ms = best_of(3, || {
        buf.copy_from_slice(&base);
        for v in buf.iter_mut() {
            *v = v.exp();
        }
        std::hint::black_box(&buf);
    });
    let scalar_ms = best_of(3, || {
        buf.copy_from_slice(&base);
        for v in buf.iter_mut() {
            *v = vexp(*v);
        }
        std::hint::black_box(&buf);
    });
    let inplace_ms = best_of(3, || {
        buf.copy_from_slice(&base);
        vexp_inplace(&mut buf);
        std::hint::black_box(&buf);
    });
    let mut sum = [0.0f32];
    let ss_ms = best_of(3, || {
        buf.copy_from_slice(&base);
        vexp_shift_rows_sum(&mut buf, &[0.5], &mut sum);
        std::hint::black_box(sum);
    });
    println!("exp/elt over {n} elts:");
    println!("  libm {libm_ms:.2}ms  scalar-vexp {scalar_ms:.2}ms  inplace {inplace_ms:.2}ms  shift_rows_sum {ss_ms:.2}ms");

    // Attention-width rows (s_k = 12) in 64-row blocks: the shifted exp
    // and row sums one row per call (each row's exp ends in a scalar
    // tail) against one call per block.
    let (s_k, rows) = (12usize, 64usize);
    let shifts = vec![0.5f32; rows];
    let mut sums = vec![0.0f32; rows];
    let per_row_ms = best_of(3, || {
        buf.copy_from_slice(&base);
        for block in buf.chunks_exact_mut(s_k * rows) {
            for ((row, shift), sum) in block.chunks_exact_mut(s_k).zip(&shifts).zip(&mut sums) {
                vexp_shift_rows_sum(row, std::slice::from_ref(shift), std::slice::from_mut(sum));
            }
        }
        std::hint::black_box(&sums);
    });
    let per_block_ms = best_of(3, || {
        buf.copy_from_slice(&base);
        for block in buf.chunks_exact_mut(s_k * rows) {
            vexp_shift_rows_sum(block, &shifts, &mut sums);
        }
        std::hint::black_box(&sums);
    });
    println!("shifted exp + row sums, rows of {s_k}:");
    println!(
        "  one row per call {per_row_ms:.2}ms  one {rows}-row block per call {per_block_ms:.2}ms"
    );

    // softmax_row pass breakdown at the kernel-bench row length (256).
    let inner = 256usize;
    let serial_max_ms = best_of(3, || {
        let mut acc = 0.0f32;
        for row in base.chunks(inner) {
            acc += row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        }
        std::hint::black_box(acc);
    });
    let striped_max_ms = best_of(3, || {
        let mut acc = 0.0f32;
        for row in base.chunks(inner) {
            acc += striped_max(row);
        }
        std::hint::black_box(acc);
    });
    let normalize_ms = best_of(3, || {
        for v in buf.iter_mut() {
            *v *= 1.000_1;
        }
        std::hint::black_box(&buf);
    });
    let softmax_row_ms = best_of(3, || {
        buf.copy_from_slice(&base);
        for row in buf.chunks_mut(inner) {
            softmax_row(row);
        }
        std::hint::black_box(&buf);
    });
    let copy_ms = best_of(3, || {
        buf.copy_from_slice(&base);
        std::hint::black_box(&buf);
    });
    println!("softmax passes ({} rows of {inner}):", n / inner);
    println!(
        "  serial-max {serial_max_ms:.2}ms  striped-max {striped_max_ms:.2}ms  normalize {normalize_ms:.2}ms  copy {copy_ms:.2}ms  softmax_row {softmax_row_ms:.2}ms"
    );
}
