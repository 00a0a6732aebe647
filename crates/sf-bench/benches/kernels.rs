//! Microbenchmarks of the real CPU kernels behind the paper's Triton
//! fusions: naive vs fused LayerNorm, naive vs fused attention with pair
//! bias, and individual vs bundled projection GEMMs (Figure 8's kernel
//! stages, measured for real at CPU scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sf_tensor::ops::attention::{attention_fused, naive_attention};
use sf_tensor::ops::layernorm::{fused_backward, fused_forward, naive_backward, naive_forward, LN_EPS};
use sf_tensor::ops::matmul::batched_linear;
use sf_tensor::Tensor;
use std::hint::black_box;

fn bench_layernorm(c: &mut Criterion) {
    let mut group = c.benchmark_group("layernorm");
    group.sample_size(20);
    for &rows in &[256usize, 2048] {
        let cols = 128;
        let x = Tensor::randn(&[rows, cols], 1);
        let gamma = Tensor::ones(&[cols]);
        let beta = Tensor::zeros(&[cols]);
        group.bench_with_input(BenchmarkId::new("naive_fwd", rows), &rows, |b, _| {
            b.iter(|| naive_forward(black_box(&x), &gamma, &beta, LN_EPS).expect("ln"))
        });
        group.bench_with_input(BenchmarkId::new("fused_fwd", rows), &rows, |b, _| {
            b.iter(|| fused_forward(black_box(&x), &gamma, &beta, LN_EPS).expect("ln"))
        });
        let (_, stats) = fused_forward(&x, &gamma, &beta, LN_EPS).expect("ln");
        let dy = Tensor::randn(&[rows, cols], 2);
        group.bench_with_input(BenchmarkId::new("naive_bwd", rows), &rows, |b, _| {
            b.iter(|| naive_backward(black_box(&dy), &x, &gamma, &stats).expect("ln bwd"))
        });
        group.bench_with_input(BenchmarkId::new("fused_bwd", rows), &rows, |b, _| {
            b.iter(|| fused_backward(black_box(&dy), &x, &gamma, &stats, 64).expect("ln bwd"))
        });
    }
    group.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("mha_pair_bias");
    group.sample_size(15);
    for &s in &[32usize, 96] {
        let (h, d) = (4usize, 16usize);
        let q = Tensor::randn(&[h, s, d], 3);
        let k = Tensor::randn(&[h, s, d], 4);
        let v = Tensor::randn(&[h, s, d], 5);
        let bias = Tensor::randn(&[h, s, s], 6);
        let scale = 1.0 / (d as f32).sqrt();
        group.bench_with_input(BenchmarkId::new("naive", s), &s, |b, _| {
            b.iter(|| {
                naive_attention(black_box(&q), &k, &v, Some(&bias), scale).expect("attn")
            })
        });
        group.bench_with_input(BenchmarkId::new("fused", s), &s, |b, _| {
            b.iter(|| {
                attention_fused(black_box(&q), &k, &v, Some(&bias), None, None, scale)
                    .expect("attn")
                    .out
            })
        });
    }
    group.finish();
}

fn bench_gemm_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_batching");
    group.sample_size(20);
    let (rows, cin, cout) = (512usize, 64usize, 64usize);
    let x = Tensor::randn(&[rows, cin], 7);
    let ws: Vec<Tensor> = (0..4).map(|i| Tensor::randn(&[cout, cin], 10 + i)).collect();
    group.bench_function("four_separate_gemms", |b| {
        b.iter(|| {
            for w in &ws {
                black_box(
                    black_box(&x)
                        .matmul(&w.transpose().expect("2d"))
                        .expect("gemm"),
                );
            }
        })
    });
    group.bench_function("bundled_batched_gemm", |b| {
        let refs: Vec<&Tensor> = ws.iter().collect();
        let biases = vec![None; 4];
        b.iter(|| black_box(batched_linear(black_box(&x), &refs, &biases).expect("bundle")))
    });
    group.finish();
}

criterion_group!(benches, bench_layernorm, bench_attention, bench_gemm_batching);
criterion_main!(benches);
