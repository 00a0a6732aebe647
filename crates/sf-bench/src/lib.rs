//! Measurement harness for the ScaleFold reproduction.
//!
//! Two kinds of targets:
//!
//! - **Figure/table binaries** (`src/bin/`): each regenerates one table or
//!   figure of the paper's evaluation and prints the same rows/series the
//!   paper reports, annotated with the paper's published numbers —
//!   `table1`, `fig3`, `fig4`, `fig5`, `fig7`, `fig8`, `fig9_10`, `fig11`,
//!   plus `all_figures` which runs the lot (this is what populates
//!   EXPERIMENTS.md).
//! - **The real-kernel baseline** ([`kernel_bench`], run by the `kernels`
//!   binary): the CPU kernels behind the paper's fusions against their
//!   reference counterparts — GEMM, LayerNorm forward and backward,
//!   softmax, attention, fused gated attention, bundled projections and
//!   fused Adam+SWA — written to `BENCH_kernels.json`.
//!
//! Step-level numbers (forward, backward, optimizer, collectives) come from
//! the `trainbench` package, which trains the real stack.

pub mod kernel_bench;

/// Banner printed by every figure binary.
pub fn banner(title: &str) {
    println!("==============================================================");
    println!("ScaleFold-rs reproduction — {title}");
    println!("==============================================================");
}
