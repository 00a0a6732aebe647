//! Kernel benchmark baseline for the parallel CPU backend.
//!
//! Times the hot kernels (batched GEMM, a head-width GEMM, LayerNorm and
//! its backward, softmax, attention with pair bias, fused gated attention,
//! bundled projections, fused Adam+SWA) at AlphaFold-like shapes in three
//! configurations:
//!
//! 1. **seed serial** — the reference each optimization replaced: the
//!    kernels the repo started with ([`sf_tensor::ops::matmul::gemm_block`],
//!    a Welford LayerNorm, `naive_backward`, a plain per-row softmax loop, a
//!    scalar flash attention), four separate projections instead of one
//!    bundled GEMM, and [`sf_optim::Adam`] then [`sf_optim::Swa`] instead of
//!    the fused optimizer pass;
//! 2. **opt serial** — the register-tiled / fused kernels pinned to one
//!    thread (`sf_tensor::pool::set_num_threads(1)`);
//! 3. **parallel** — the same kernels at the requested thread count.
//!
//! Every timing takes the best of several iterations after a warmup run, so
//! the numbers are floor latencies, not averages polluted by allocator or
//! scheduler noise. The two pairs the CI gate ([`KernelBenchReport::check_fused`])
//! compares are the exception: softmax against its seed loop and fused
//! attention against the composed chain run in interleaved repeats at one
//! thread and report medians, so both sides of each ratio see the same
//! host drift. So do the bundled and separate projections (ungated), whose
//! times are too close for best-of to order. Outputs are cross-checked
//! against the references before timing; a silent numerical regression
//! fails the benchmark instead of producing a fast-but-wrong number.
//!
//! The report serializes to JSON by hand (no serde_json in the tree) and is
//! written to `BENCH_kernels.json` by the `kernels` binary.

use std::time::Instant;

use sf_autograd::{Graph, ParamStore};
use sf_data::featurize::featurize;
use sf_data::SyntheticDataset;
use sf_model::{AlphaFold, ModelConfig};
use sf_optim::{Adam, AdamConfig, FusedAdamSwa, Grads, Swa};
use sf_tensor::ops::attention::{attention_fused, MASK_NEG};
use sf_tensor::ops::layernorm::{fused_backward, fused_forward, naive_backward};
use sf_tensor::ops::matmul::{gemm_block, linear, matmul};
use sf_tensor::ops::softmax::softmax;
use sf_tensor::pool;
use sf_tensor::Tensor;

/// The seed repo's production LayerNorm: serial rows, scalar Welford
/// recurrence (loop-carried divide) for the statistics. Kept here verbatim
/// as the benchmark's "before" kernel.
fn seed_layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let inner = *x.dims().last().expect("rank >= 1");
    let mut out = x.clone();
    let (gd, bd) = (gamma.data(), beta.data());
    for row in out.data_mut().chunks_mut(inner) {
        let mut mean = 0.0f32;
        let mut m2 = 0.0f32;
        for (i, &v) in row.iter().enumerate() {
            let delta = v - mean;
            mean += delta / (i + 1) as f32;
            m2 += delta * (v - mean);
        }
        let var = m2 / inner as f32;
        let rstd = 1.0 / (var + eps).sqrt();
        for (v, (&g, &b)) in row.iter_mut().zip(gd.iter().zip(bd.iter())) {
            *v = (*v - mean) * rstd * g + b;
        }
    }
    out
}

/// The seed repo's softmax row kernel: serial max fold and a scalar
/// `f32::exp` (libm call) per element. Kept here verbatim as the
/// benchmark's "before" kernel — the production `softmax_row` now runs on
/// the 8-lane polynomial `vexp`.
fn seed_softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Key-tile width of the seed flash kernel (the Triton `BLOCK_N` analogue).
const SEED_TILE: usize = 16;

/// The seed repo's online-softmax recurrence with scalar `f32::exp`, kept
/// here verbatim as the seed attention's tile fold. Production attention
/// now takes whole rows with the vectorized `vexp`.
struct SeedOnlineSoftmax {
    max: f32,
    denom: f32,
}

impl SeedOnlineSoftmax {
    fn new() -> Self {
        SeedOnlineSoftmax {
            max: f32::NEG_INFINITY,
            denom: 0.0,
        }
    }

    fn fold_tile(&mut self, logits: &[f32], values: &[f32], acc: &mut [f32]) {
        let d = acc.len();
        let tile_max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let new_max = self.max.max(tile_max);
        if new_max == f32::NEG_INFINITY {
            return;
        }
        if self.max != new_max {
            let scale = if self.max == f32::NEG_INFINITY {
                0.0
            } else {
                (self.max - new_max).exp()
            };
            for a in acc.iter_mut() {
                *a *= scale;
            }
            self.denom *= scale;
        }
        for (j, &l) in logits.iter().enumerate() {
            let w = (l - new_max).exp();
            self.denom += w;
            let vrow = &values[j * d..(j + 1) * d];
            for (a, &v) in acc.iter_mut().zip(vrow.iter()) {
                *a += w * v;
            }
        }
        self.max = new_max;
    }

    fn finish(&self, acc: &mut [f32]) {
        if self.denom > 0.0 {
            let inv = 1.0 / self.denom;
            for a in acc.iter_mut() {
                *a *= inv;
            }
        }
    }
}

/// The seed repo's production attention: the serial flash kernel with a
/// scalar q·k dot product per logit (a serial FP chain per key). Kept here
/// verbatim as the benchmark's "before" kernel; bias handling is dropped to
/// the common `[H, S_q, S_k]`-broadcast case the bench exercises.
fn seed_attention(q: &Tensor, k: &Tensor, v: &Tensor, bias: &Tensor, scale: f32) -> Tensor {
    let dims = q.dims();
    let (s_q, d) = (dims[dims.len() - 2], dims[dims.len() - 1]);
    let s_k = k.dims()[k.rank() - 2];
    let batch = q.len() / (s_q * d);
    let heads = bias.dims()[0];
    let mut out = Tensor::zeros(dims);
    let mut logits_tile = [0.0f32; SEED_TILE];
    let (qd, kd, vd, bb) = (q.data(), k.data(), v.data(), bias.data());
    for b in 0..batch {
        let q_base = b * s_q * d;
        let kv_base = b * s_k * d;
        let bias_base = (b % heads) * s_q * s_k;
        for i in 0..s_q {
            let qrow = &qd[q_base + i * d..q_base + (i + 1) * d];
            let orow = &mut out.data_mut()[q_base + i * d..q_base + (i + 1) * d];
            let mut state = SeedOnlineSoftmax::new();
            let mut j0 = 0usize;
            while j0 < s_k {
                let j1 = (j0 + SEED_TILE).min(s_k);
                for (t, j) in (j0..j1).enumerate() {
                    let krow = &kd[kv_base + j * d..kv_base + (j + 1) * d];
                    let mut dot = 0.0f32;
                    for (&qv, &kv) in qrow.iter().zip(krow.iter()) {
                        dot += qv * kv;
                    }
                    logits_tile[t] = dot * scale + bb[bias_base + i * s_k + j];
                }
                let vals = &vd[kv_base + j0 * d..kv_base + j1 * d];
                state.fold_tile(&logits_tile[..j1 - j0], vals, orow);
                j0 = j1;
            }
            state.finish(orow);
        }
    }
    out
}

/// Timings for one kernel at one shape, in milliseconds.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Kernel name (`matmul_batched`, `matmul_head_width`, `layer_norm`,
    /// `layer_norm_backward`, `softmax`, `attention`, `attention_fused`,
    /// `linear_bundled`, `adam_swa`).
    pub name: &'static str,
    /// Human-readable shape description.
    pub shape: String,
    /// Best time of the seed (pre-optimization) serial reference kernel
    /// (`softmax`, `linear_bundled`: median, interleaved with
    /// `opt_serial_ms`).
    pub seed_serial_ms: f64,
    /// Best time of the optimized kernel pinned to one thread (`softmax`,
    /// `linear_bundled`: median, interleaved with `seed_serial_ms`;
    /// `attention_fused`: median, interleaved with the composed chain).
    pub opt_serial_ms: f64,
    /// Best time of the optimized kernel at the report's thread count.
    pub parallel_ms: f64,
    /// The fused kernel against the *composed* (unfused,
    /// current-primitives) op chain — only for rows where a fused kernel
    /// replaces a multi-op chain (`attention_fused`): the mask materialized
    /// into the bias, ungated attention, then a separate sigmoid-multiply.
    pub composed: Option<VersusComposed>,
}

/// The composed chain a fused kernel replaces, timed in one-thread repeats
/// interleaved with the fused kernel's `opt_serial_ms`.
#[derive(Debug, Clone, Copy)]
pub struct VersusComposed {
    /// Median composed-chain time.
    pub composed_ms: f64,
    /// Median over the repeat pairs of `composed / fused`. The two halves
    /// of a pair run back to back, so host drift cancels within it; a
    /// de-fusion regression shows at any thread count.
    pub speedup: f64,
}

impl KernelTiming {
    /// Speedup of the optimized serial kernel over the seed kernel.
    pub fn speedup_opt_vs_seed(&self) -> f64 {
        self.seed_serial_ms / self.opt_serial_ms
    }

    /// Speedup of the parallel kernel over the seed kernel.
    pub fn speedup_parallel_vs_seed(&self) -> f64 {
        self.seed_serial_ms / self.parallel_ms
    }

    /// Speedup of the parallel kernel over its own one-thread run.
    pub fn speedup_parallel_vs_opt(&self) -> f64 {
        self.opt_serial_ms / self.parallel_ms
    }

    /// Speedup of the fused kernel over the composed op chain
    /// ([`VersusComposed::speedup`]; rows with a composed measurement only).
    pub fn speedup_fused_vs_composed(&self) -> Option<f64> {
        self.composed.map(|c| c.speedup)
    }
}

/// A full benchmark run: one [`KernelTiming`] per kernel.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// Thread count used for the parallel column.
    pub threads: usize,
    /// Physical parallelism of the benchmarking host. When this is 1 the
    /// parallel column can only match the serial column — thread speedups
    /// need real cores.
    pub host_cores: usize,
    /// Per-kernel timings.
    pub timings: Vec<KernelTiming>,
}

impl KernelBenchReport {
    /// Renders the report as pretty-printed JSON (hand-rolled; the tree has
    /// no serde_json).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"benchmark\": \"sf-bench kernels\",\n");
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        s.push_str("  \"kernels\": [\n");
        for (i, t) in self.timings.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", t.name));
            s.push_str(&format!("      \"shape\": \"{}\",\n", t.shape));
            s.push_str(&format!(
                "      \"seed_serial_ms\": {:.4},\n",
                t.seed_serial_ms
            ));
            s.push_str(&format!(
                "      \"opt_serial_ms\": {:.4},\n",
                t.opt_serial_ms
            ));
            s.push_str(&format!("      \"parallel_ms\": {:.4},\n", t.parallel_ms));
            if let Some(c) = t.composed {
                s.push_str(&format!("      \"composed_ms\": {:.4},\n", c.composed_ms));
                s.push_str(&format!(
                    "      \"speedup_fused_vs_composed\": {:.2},\n",
                    c.speedup
                ));
            }
            s.push_str(&format!(
                "      \"speedup_opt_vs_seed\": {:.2},\n",
                t.speedup_opt_vs_seed()
            ));
            s.push_str(&format!(
                "      \"speedup_parallel_vs_seed\": {:.2},\n",
                t.speedup_parallel_vs_seed()
            ));
            s.push_str(&format!(
                "      \"speedup_parallel_vs_opt\": {:.2}\n",
                t.speedup_parallel_vs_opt()
            ));
            s.push_str(if i + 1 == self.timings.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// Renders a fixed-width text table for terminal output.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<20} {:<28} {:>12} {:>12} {:>12} {:>8} {:>8}\n",
            "kernel", "shape", "seed_ms", "serial_ms", "parallel_ms", "xSeed", "xSerial"
        ));
        for t in &self.timings {
            s.push_str(&format!(
                "{:<20} {:<28} {:>12.4} {:>12.4} {:>12.4} {:>8.2} {:>8.2}\n",
                t.name,
                t.shape,
                t.seed_serial_ms,
                t.opt_serial_ms,
                t.parallel_ms,
                t.speedup_parallel_vs_seed(),
                t.speedup_parallel_vs_opt()
            ));
            if let Some(c) = t.composed {
                s.push_str(&format!(
                    "{:<20} {:<28} {:>12} {:>12.4} {:>12} {:>8} {:>7.2}x\n",
                    "", "  vs composed chain", "", c.composed_ms, "", "fused", c.speedup
                ));
            }
        }
        s
    }

    /// CI guard against silent de-fusion: the vectorized softmax must beat
    /// the seed scalar path, and the fused attention kernel must not be
    /// slower than the composed op chain it replaces (compared on medians
    /// of interleaved repeats, see [`KernelTiming::speedup_fused_vs_composed`]).
    /// Thresholds are deliberately lenient (shared CI runners are noisy) —
    /// this catches *regressions to the unfused world*, not missed wins.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn check_fused(&self) -> Result<(), String> {
        let softmax = self
            .timings
            .iter()
            .find(|t| t.name == "softmax")
            .ok_or("no softmax row in report")?;
        if softmax.speedup_opt_vs_seed() < 1.2 {
            return Err(format!(
                "fused softmax regressed below the composed path: {:.4} ms vs seed {:.4} ms ({:.2}x < 1.2x)",
                softmax.opt_serial_ms,
                softmax.seed_serial_ms,
                softmax.speedup_opt_vs_seed()
            ));
        }
        let fused = self
            .timings
            .iter()
            .find(|t| t.name == "attention_fused")
            .ok_or("no attention_fused row in report")?;
        match fused.speedup_fused_vs_composed() {
            Some(r) if r < 0.9 => Err(format!(
                "fused attention regressed below the composed chain: median {:.4} ms vs composed {:.4} ms ({r:.2}x < 0.9x)",
                fused.opt_serial_ms,
                fused.composed.map_or(f64::NAN, |c| c.composed_ms)
            )),
            Some(_) => Ok(()),
            None => Err("attention_fused row has no composed_ms measurement".into()),
        }
    }
}

/// Times `f` (already warmed up once) and returns the best of `iters` runs
/// in milliseconds.
fn best_of<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f(); // Warmup: page in buffers, spin up pool workers.
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Times `a` and `b` in `reps` interleaved repeats after one warmup each,
/// alternating which runs first. Returns the median times of `a` and `b`
/// in milliseconds and the median over the pairs of `b_time / a_time`.
fn interleaved_medians(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64, f64) {
    fn time(f: &mut dyn FnMut()) -> f64 {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    }
    fn median(xs: &mut [f64]) -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    }
    a();
    b();
    let (mut ta, mut tb) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for r in 0..reps {
        if r % 2 == 0 {
            ta.push(time(&mut a));
            tb.push(time(&mut b));
        } else {
            tb.push(time(&mut b));
            ta.push(time(&mut a));
        }
    }
    let mut ratios: Vec<f64> = ta.iter().zip(&tb).map(|(ta, tb)| tb / ta).collect();
    (median(&mut ta), median(&mut tb), median(&mut ratios))
}

/// Benchmark scale: full AlphaFold-like shapes for the CLI/binary, tiny
/// shapes for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// AlphaFold-like shapes (the acceptance-criteria sizes).
    Full,
    /// Tiny shapes, for tests.
    Quick,
}

struct BenchShapes {
    iters: usize,
    /// Interleaved repeat pairs behind each CI-gated ratio.
    gate_pairs: usize,
    /// Batched matmul: `[b, m, k] @ [b, k, n]`.
    mm: (usize, usize, usize, usize),
    /// A head-width product, same layout: `n` is the head width.
    head: (usize, usize, usize, usize),
    /// LayerNorm / softmax over an MSA-like activation `[s, r, c]`.
    msa: (usize, usize, usize),
    /// LayerNorm backward over medium-train's pair activation `[r, r, c]`.
    ln_bwd: (usize, usize, usize),
    /// Attention `q/k/v: [b, h, s, d]` with bias `[h, s, s]`.
    attn: (usize, usize, usize, usize),
    /// Four projections of `[s, r, c]` to `h·d` columns each.
    proj: (usize, usize, usize, usize),
}

impl BenchShapes {
    fn for_scale(scale: BenchScale) -> Self {
        match scale {
            // MSA row attention at 128 sequences x 256 residues is the
            // paper's hot loop; matmul is the issue's acceptance shape.
            BenchScale::Full => BenchShapes {
                iters: 5,
                gate_pairs: 21,
                mm: (8, 128, 64, 128),
                // Medium-train's P·V: 160 (row, head) pairs, 40 keys, d = 8.
                head: (160, 40, 40, 8),
                msa: (128, 256, 64),
                ln_bwd: (40, 40, 16),
                attn: (8, 8, 256, 32),
                // Medium-train's MSA row Q/K/V/gate: 4 heads x d = 8.
                proj: (16, 40, 32, 32),
            },
            BenchScale::Quick => BenchShapes {
                iters: 2,
                gate_pairs: 3,
                mm: (2, 16, 8, 16),
                head: (4, 8, 8, 8),
                msa: (4, 8, 16),
                ln_bwd: (4, 8, 16),
                attn: (2, 2, 16, 8),
                proj: (2, 4, 8, 8),
            },
        }
    }
}

/// Times `[b, m, k] @ [b, k, n]`: the seed `gemm_block` loop against the
/// engine at one thread and at `nthreads`, after checking they agree.
fn time_matmul(
    name: &'static str,
    (b, m, k, n): (usize, usize, usize, usize),
    iters: usize,
    nthreads: usize,
) -> KernelTiming {
    let a = Tensor::randn(&[b, m, k], 11);
    let bt = Tensor::randn(&[b, k, n], 12);
    let (ad, bd) = (a.data(), bt.data());
    let seed = || {
        let mut c = vec![0.0f32; b * m * n];
        for i in 0..b {
            gemm_block(
                &ad[i * m * k..(i + 1) * m * k],
                &bd[i * k * n..(i + 1) * k * n],
                &mut c[i * m * n..(i + 1) * m * n],
                m,
                k,
                n,
            );
        }
        c
    };

    // Cross-check first: the seed gemm_block loop and the tiled kernel
    // must agree to rounding.
    let opt = matmul(&a, &bt).expect("bench matmul");
    let seed_t = Tensor::from_vec(seed(), &[b, m, n]).expect("bench seed shape");
    assert!(
        opt.allclose(&seed_t, 1e-4),
        "tiled matmul diverged from gemm_block reference"
    );

    let seed_serial_ms = best_of(iters, || {
        std::hint::black_box(seed());
    });
    pool::set_num_threads(1);
    let opt_serial_ms = best_of(iters, || {
        std::hint::black_box(matmul(&a, &bt).expect("bench matmul"));
    });
    pool::set_num_threads(nthreads);
    let parallel_ms = best_of(iters, || {
        std::hint::black_box(matmul(&a, &bt).expect("bench matmul"));
    });
    KernelTiming {
        name,
        shape: format!("[{b},{m},{k}] @ [{b},{k},{n}]"),
        seed_serial_ms,
        opt_serial_ms,
        parallel_ms,
        composed: None,
    }
}

/// The tiny model's parameters (what the tiny training step updates),
/// initialized by one forward pass, and a random gradient for each slot.
fn tiny_model_params() -> (ParamStore, Vec<Option<Tensor>>) {
    let cfg = ModelConfig::tiny();
    let batch = featurize(&SyntheticDataset::new(61, 1).record(0), &cfg, 61);
    let mut store = ParamStore::new();
    AlphaFold::new(cfg)
        .forward(&mut Graph::new(), &mut store, &batch)
        .expect("bench forward");
    let grads = (0..store.len())
        .map(|slot| Some(Tensor::randn(store.value(slot).dims(), 62 + slot as u64)))
        .collect();
    (store, grads)
}

/// Runs the benchmark at `threads` compute threads (0 = auto) and returns
/// the report. The global thread count is restored afterwards.
///
/// # Panics
///
/// Panics if an optimized kernel's output diverges from its serial
/// reference — a fast-but-wrong kernel must not produce a baseline.
pub fn run(threads: usize, scale: BenchScale) -> KernelBenchReport {
    let prev = pool::num_threads();
    if threads > 0 {
        pool::set_num_threads(threads);
    }
    let nthreads = pool::num_threads();
    let sh = BenchShapes::for_scale(scale);
    let iters = sh.iters;

    let mut timings = Vec::new();

    // --- Batched matmul, then medium's P·V at head width -----------------
    timings.push(time_matmul("matmul_batched", sh.mm, iters, nthreads));
    timings.push(time_matmul("matmul_head_width", sh.head, iters, nthreads));

    // --- LayerNorm ------------------------------------------------------
    {
        let (s, r, c) = sh.msa;
        let x = Tensor::randn(&[s, r, c], 21);
        let gamma = Tensor::ones(&[c]);
        let beta = Tensor::zeros(&[c]);
        let eps = 1e-5;

        let seed_y = seed_layer_norm(&x, &gamma, &beta, eps);
        let (opt_y, _) = fused_forward(&x, &gamma, &beta, eps).expect("bench ln");
        assert!(
            opt_y.allclose(&seed_y, 1e-4),
            "fused layernorm diverged from the seed Welford kernel"
        );

        let seed_serial_ms = best_of(iters, || {
            std::hint::black_box(seed_layer_norm(&x, &gamma, &beta, eps));
        });
        pool::set_num_threads(1);
        let opt_serial_ms = best_of(iters, || {
            std::hint::black_box(fused_forward(&x, &gamma, &beta, eps).expect("bench ln"));
        });
        pool::set_num_threads(nthreads);
        let parallel_ms = best_of(iters, || {
            std::hint::black_box(fused_forward(&x, &gamma, &beta, eps).expect("bench ln"));
        });
        timings.push(KernelTiming {
            name: "layer_norm",
            shape: format!("[{s},{r},{c}]"),
            seed_serial_ms,
            opt_serial_ms,
            parallel_ms,
            composed: None,
        });
    }

    // --- LayerNorm backward: the row loop against the fused kernel ------
    {
        let (s, r, c) = sh.ln_bwd;
        let x = Tensor::randn(&[s, r, c], 22);
        let gamma = Tensor::randn(&[c], 23);
        let beta = Tensor::zeros(&[c]);
        let dy = Tensor::randn(&[s, r, c], 24);
        let (_, stats) = fused_forward(&x, &gamma, &beta, 1e-5).expect("bench ln");
        // The autograd tape's block size.
        let block_rows = 64;
        let fused = || fused_backward(&dy, &x, &gamma, &stats, block_rows).expect("bench ln bwd");
        let naive = || naive_backward(&dy, &x, &gamma, &stats).expect("bench ln bwd");
        let ((dx, dg, db), (ndx, ndg, ndb)) = (fused(), naive());
        assert!(
            dx.data() == ndx.data() && dg.allclose(&ndg, 1e-4) && db.allclose(&ndb, 1e-4),
            "fused layernorm backward diverged from the row loop"
        );

        let seed_serial_ms = best_of(iters, || {
            std::hint::black_box(naive());
        });
        pool::set_num_threads(1);
        let opt_serial_ms = best_of(iters, || {
            std::hint::black_box(fused());
        });
        pool::set_num_threads(nthreads);
        let parallel_ms = best_of(iters, || {
            std::hint::black_box(fused());
        });
        timings.push(KernelTiming {
            name: "layer_norm_backward",
            shape: format!("[{s},{r},{c}]"),
            seed_serial_ms,
            opt_serial_ms,
            parallel_ms,
            composed: None,
        });
    }

    // --- Softmax --------------------------------------------------------
    {
        let (s, r, c) = sh.msa;
        // Attention-logit layout: one [r, r] score matrix per (sequence,
        // head); c plays the head count here to keep sizes MSA-like.
        let x = Tensor::randn(&[s, r, r.min(c) * 4], 31);
        let inner = *x.dims().last().expect("rank 3");
        let rows = x.len() / inner;

        let seed_softmax = |x: &Tensor| {
            let mut y = x.clone();
            for row in y.data_mut().chunks_mut(inner) {
                seed_softmax_row(row);
            }
            y
        };
        let seed_y = seed_softmax(&x);
        let opt_y = softmax(&x).expect("bench softmax");
        assert!(
            opt_y.allclose(&seed_y, 1e-5),
            "parallel softmax diverged from row-loop reference"
        );

        pool::set_num_threads(1);
        let (seed_serial_ms, opt_serial_ms, _) = interleaved_medians(
            sh.gate_pairs,
            || {
                std::hint::black_box(seed_softmax(&x));
            },
            || {
                std::hint::black_box(softmax(&x).expect("bench softmax"));
            },
        );
        pool::set_num_threads(nthreads);
        let parallel_ms = best_of(iters, || {
            std::hint::black_box(softmax(&x).expect("bench softmax"));
        });
        timings.push(KernelTiming {
            name: "softmax",
            shape: format!("[{},{},{}] ({} rows)", s, r, inner, rows),
            seed_serial_ms,
            opt_serial_ms,
            parallel_ms,
            composed: None,
        });
    }

    // --- Attention with pair bias ---------------------------------------
    {
        let (b, h, s, d) = sh.attn;
        let q = Tensor::randn(&[b, h, s, d], 41);
        let k = Tensor::randn(&[b, h, s, d], 42);
        let v = Tensor::randn(&[b, h, s, d], 43);
        let bias = Tensor::randn(&[h, s, s], 44);
        let scale = 1.0 / (d as f32).sqrt();

        let seed_y = seed_attention(&q, &k, &v, &bias, scale);
        let attn = || {
            attention_fused(&q, &k, &v, Some(&bias), None, None, scale)
                .expect("bench attn")
                .out
        };
        assert!(
            attn().allclose(&seed_y, 1e-4),
            "attention diverged from the seed serial kernel"
        );

        let seed_serial_ms = best_of(iters, || {
            std::hint::black_box(seed_attention(&q, &k, &v, &bias, scale));
        });
        pool::set_num_threads(1);
        let opt_serial_ms = best_of(iters, || {
            std::hint::black_box(attn());
        });
        pool::set_num_threads(nthreads);
        let parallel_ms = best_of(iters, || {
            std::hint::black_box(attn());
        });
        timings.push(KernelTiming {
            name: "attention",
            shape: format!("q/k/v [{b},{h},{s},{d}] + bias [{h},{s},{s}]"),
            seed_serial_ms,
            opt_serial_ms,
            parallel_ms,
            composed: None,
        });
    }

    // --- Fused gated attention ------------------------------------------
    // The full evoformer head: scale + pair bias + mask penalty + softmax +
    // sigmoid gate, in one kernel. Three contenders:
    //   seed      — materialized bias+mask add, seed flash kernel (scalar
    //               exp), separate scalar sigmoid-gate multiply;
    //   composed  — the same chain on today's primitives (mask materialized
    //               into the bias, ungated attention, separate
    //               sigmoid-multiply), timed into `composed_ms`;
    //   fused     — `attention_fused`, logits and gate never materialized.
    {
        let (b, h, s, d) = sh.attn;
        let q = Tensor::randn(&[b, h, s, d], 51);
        let k = Tensor::randn(&[b, h, s, d], 52);
        let v = Tensor::randn(&[b, h, s, d], 53);
        let bias = Tensor::randn(&[h, s, s], 54);
        let gate = Tensor::randn(&[b, h, s, d], 55);
        // Pair mask zeroing the last eighth of the keys, as padded crops do.
        let mask = {
            let mut m = Tensor::ones(&[h, s, s]);
            for row in m.data_mut().chunks_mut(s) {
                for mv in row[s - s / 8..].iter_mut() {
                    *mv = 0.0;
                }
            }
            m
        };
        let scale = 1.0 / (d as f32).sqrt();

        let seed_chain = || {
            let biased = {
                let mut t = bias.clone();
                for (bv, &mv) in t.data_mut().iter_mut().zip(mask.data().iter()) {
                    if mv == 0.0 {
                        *bv += MASK_NEG;
                    }
                }
                t
            };
            let att = seed_attention(&q, &k, &v, &biased, scale);
            let mut y = att;
            for (yv, &gv) in y.data_mut().iter_mut().zip(gate.data().iter()) {
                *yv /= 1.0 + (-gv).exp();
            }
            y
        };
        let composed_chain = || {
            let penalty = mask.map(|mv| if mv == 0.0 { MASK_NEG } else { 0.0 });
            let biased = bias.add(&penalty).expect("bench bias+mask");
            let att = attention_fused(&q, &k, &v, Some(&biased), None, None, scale)
                .expect("bench attn")
                .out;
            gate.sigmoid().mul(&att).expect("bench gate")
        };
        let fused_chain = || {
            attention_fused(&q, &k, &v, Some(&bias), Some(&mask), Some(&gate), scale)
                .expect("bench fused attn")
                .out
        };

        let seed_y = seed_chain();
        let composed_y = composed_chain();
        let fused_y = fused_chain();
        assert!(
            composed_y.allclose(&seed_y, 1e-4),
            "composed gated attention diverged from the seed chain"
        );
        assert!(
            fused_y.allclose(&composed_y, 1e-4),
            "fused gated attention diverged from the composed chain"
        );

        let seed_serial_ms = best_of(iters, || {
            std::hint::black_box(seed_chain());
        });
        pool::set_num_threads(1);
        let (opt_serial_ms, composed_ms, speedup) = interleaved_medians(
            sh.gate_pairs,
            || {
                std::hint::black_box(fused_chain());
            },
            || {
                std::hint::black_box(composed_chain());
            },
        );
        pool::set_num_threads(nthreads);
        let parallel_ms = best_of(iters, || {
            std::hint::black_box(fused_chain());
        });
        timings.push(KernelTiming {
            name: "attention_fused",
            shape: format!("q/k/v/g [{b},{h},{s},{d}] + bias/mask [{h},{s},{s}]"),
            seed_serial_ms,
            opt_serial_ms,
            parallel_ms,
            composed: Some(VersusComposed {
                composed_ms,
                speedup,
            }),
        });
    }

    // --- Bundled projections (§3.3.1 GEMM batching) ----------------------
    // Q, K, V and gate of one input as four `linear` calls, as the
    // model's attention sites run them, against one `linear` on the
    // stacked weights, the bundle the paper launches as one GEMM. Stacking
    // the weights is outside the timing. On one CPU thread the bundle is
    // no faster, which is why training keeps four projections.
    {
        let (s, r, c, hd) = sh.proj;
        let x = Tensor::randn(&[s, r, c], 71);
        let ws: Vec<Tensor> = (0..4).map(|i| Tensor::randn(&[hd, c], 72 + i)).collect();
        let gate_bias = Tensor::randn(&[hd], 76);
        let stacked = Tensor::concat(&ws.iter().collect::<Vec<_>>(), 0).expect("bench stack");
        let stacked_bias =
            Tensor::concat(&[&Tensor::zeros(&[3 * hd]), &gate_bias], 0).expect("bench stack");
        let separate = || -> Vec<Tensor> {
            ws.iter()
                .enumerate()
                .map(|(i, w)| linear(&x, w, (i == 3).then_some(&gate_bias)).expect("bench linear"))
                .collect()
        };
        let bundled = || linear(&x, &stacked, Some(&stacked_bias)).expect("bench linear");
        let big = bundled();
        for (i, y) in separate().iter().enumerate() {
            let part = big
                .slice_axis(2, i * hd, (i + 1) * hd)
                .expect("bench slice");
            assert!(
                part.allclose(y, 1e-5),
                "bundled projection {i} diverged from its own linear"
            );
        }

        // Interleaved medians: the two sides are close and each call is
        // short, so sequential best-of reads host drift as a difference.
        pool::set_num_threads(1);
        let (seed_serial_ms, opt_serial_ms, _) = interleaved_medians(
            sh.gate_pairs,
            || {
                std::hint::black_box(separate());
            },
            || {
                std::hint::black_box(bundled());
            },
        );
        pool::set_num_threads(nthreads);
        let parallel_ms = best_of(iters, || {
            std::hint::black_box(bundled());
        });
        timings.push(KernelTiming {
            name: "linear_bundled",
            shape: format!("[{s},{r},{c}] -> 4 x {hd}"),
            seed_serial_ms,
            opt_serial_ms,
            parallel_ms,
            composed: None,
        });
    }

    // --- Adam then SWA against the fused pass (§3.3.1) ------------------
    // One optimizer step over the tiny model's parameters: the name-keyed
    // `Adam::step` followed by `Swa::update`, against the slot-vector
    // `FusedAdamSwa::step_slots` the trainer runs. Each timed call is one
    // more step on the same state, as in training.
    {
        let (params, slot_grads) = tiny_model_params();
        let grads: Grads = slot_grads
            .iter()
            .enumerate()
            .map(|(slot, g)| {
                (
                    params.name(slot).to_string(),
                    g.clone().expect("every slot"),
                )
            })
            .collect();
        let (lr, decay) = (1e-3, 0.99);
        let (mut ref_store, mut adam, mut swa) = (
            params.clone(),
            Adam::new(AdamConfig::default()),
            Swa::new(decay),
        );
        let (mut fused_store, mut fused) = (
            params.clone(),
            FusedAdamSwa::new(AdamConfig::default(), decay),
        );
        // Two steps: the first seeds the averages, the second folds them.
        for _ in 0..2 {
            adam.step(&mut ref_store, &grads, lr);
            swa.update(&ref_store);
            fused.step_slots(&mut fused_store, &slot_grads, lr);
        }
        for (name, p) in ref_store.iter() {
            let same_param = fused_store.get(name).is_some_and(|f| f.data() == p.data());
            let same_avg = fused
                .averaged(name)
                .zip(swa.averaged(name))
                .is_some_and(|(f, r)| f.data() == r.data());
            assert!(
                same_param && same_avg,
                "fused Adam+SWA diverged from Adam then SWA at {name}"
            );
        }

        let seed_serial_ms = best_of(iters, || {
            adam.step(&mut ref_store, &grads, lr);
            swa.update(&ref_store);
        });
        pool::set_num_threads(1);
        let opt_serial_ms = best_of(iters, || {
            fused.step_slots(&mut fused_store, &slot_grads, lr)
        });
        pool::set_num_threads(nthreads);
        let parallel_ms = best_of(iters, || {
            fused.step_slots(&mut fused_store, &slot_grads, lr)
        });
        let elems: usize = (0..params.len()).map(|slot| params.value(slot).len()).sum();
        timings.push(KernelTiming {
            name: "adam_swa",
            shape: format!("{} tensors, {elems} elems (tiny model)", params.len()),
            seed_serial_ms,
            opt_serial_ms,
            parallel_ms,
            composed: None,
        });
    }

    pool::set_num_threads(prev);
    KernelBenchReport {
        threads: nthreads,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_sane_report() {
        let report = run(2, BenchScale::Quick);
        assert_eq!(report.threads, 2);
        assert_eq!(report.timings.len(), 9);
        for t in &report.timings {
            assert!(t.seed_serial_ms.is_finite() && t.seed_serial_ms >= 0.0);
            assert!(t.opt_serial_ms.is_finite() && t.opt_serial_ms >= 0.0);
            assert!(t.parallel_ms.is_finite() && t.parallel_ms >= 0.0);
            assert!(t.speedup_parallel_vs_seed() > 0.0);
        }
        let names: Vec<_> = report.timings.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            [
                "matmul_batched",
                "matmul_head_width",
                "layer_norm",
                "layer_norm_backward",
                "softmax",
                "attention",
                "attention_fused",
                "linear_bundled",
                "adam_swa"
            ]
        );
        let fused = &report.timings[6];
        assert!(fused.composed.is_some());
        assert!(fused.speedup_fused_vs_composed().expect("ratio") > 0.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = KernelBenchReport {
            threads: 4,
            host_cores: 8,
            timings: vec![KernelTiming {
                name: "matmul_batched",
                shape: "[8,128,64] @ [8,64,128]".into(),
                seed_serial_ms: 2.0,
                opt_serial_ms: 1.0,
                parallel_ms: 0.5,
                composed: Some(VersusComposed {
                    composed_ms: 1.5,
                    speedup: 3.0,
                }),
            }],
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"speedup_parallel_vs_seed\": 4.00"));
        assert!(json.contains("\"speedup_parallel_vs_opt\": 2.00"));
        assert!(json.contains("\"composed_ms\": 1.5000"));
        assert!(json.contains("\"speedup_fused_vs_composed\": 3.00"));
        let table = report.to_table();
        assert!(table.contains("matmul_batched"));
    }
}
