//! Kernel benchmark baseline: seed-serial vs optimized-serial vs parallel
//! timings for batched GEMM, LayerNorm, softmax, attention with pair bias,
//! the fused gated attention kernel, bundled projections and fused
//! Adam+SWA at AlphaFold-like shapes. Writes
//! `BENCH_kernels.json` in the working directory (override with
//! `--out PATH`; pick threads with `--threads N` or `SF_THREADS`).
//!
//! `--check` additionally enforces the CI regression bounds: vectorized
//! softmax must beat the seed scalar path and the fused attention kernel
//! must not fall behind the composed chain. With `--check` the report is
//! written only where `--out` names, so a check leaves the tracked
//! baseline alone.

use std::process::ExitCode;

use sf_bench::kernel_bench::{run, BenchScale};

fn main() -> ExitCode {
    sf_bench::banner("Kernel baseline");

    let mut threads = 0usize; // 0 = auto (SF_THREADS / core count)
    let mut out = None;
    let mut check = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => {
                    threads = n;
                    i += 2;
                }
                _ => {
                    eprintln!("error: --threads expects a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.get(i + 1) {
                Some(path) => {
                    out = Some(path.clone());
                    i += 2;
                }
                None => {
                    eprintln!("error: --out expects a path");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => {
                check = true;
                i += 1;
            }
            other => {
                eprintln!(
                    "error: unknown argument `{other}` \
                     (expected --threads N, --out PATH, --check)"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let report = run(threads, BenchScale::Full);
    println!("{}", report.to_table());
    if out.is_some() || !check {
        let out = out.unwrap_or_else(|| String::from("BENCH_kernels.json"));
        if let Err(e) = std::fs::write(&out, report.to_json()) {
            eprintln!("error: failed to write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out} ({} threads)", report.threads);
    }
    if check {
        match report.check_fused() {
            Ok(()) => println!("fused-kernel regression check passed"),
            Err(e) => {
                eprintln!("error: fused-kernel regression check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
