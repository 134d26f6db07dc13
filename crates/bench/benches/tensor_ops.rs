//! Micro-benchmarks for the tensor substrate: the kernels that dominate
//! real training time (GEMM, im2col convolution, pooling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hydronas_tensor::{
    conv2d, conv2d_backward, gemm, max_pool2d, uniform, Epilogue, GemmA, GemmB, Tensor, TensorRng,
};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[32usize, 128, 256] {
        let mut rng = TensorRng::seed_from_u64(1);
        let a = uniform(&[n * n], -1.0, 1.0, &mut rng).into_vec();
        let b = uniform(&[n * n], -1.0, 1.0, &mut rng).into_vec();
        let mut out = vec![0.0f32; n * n];
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            let (a, b) = (GemmA::Slice(&a), GemmB::Slice(&b));
            bench.iter(|| gemm(a, b, &mut out, n, n, n, Epilogue::None));
        });
    }
    group.finish();
}

fn bench_conv_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_forward");
    let mut rng = TensorRng::seed_from_u64(2);
    // The two stem shapes of the search space on a batch-8 of 32x32 tiles.
    for &(kernel, name) in &[(3usize, "k3"), (7, "k7")] {
        let input = uniform(&[8, 5, 32, 32], -1.0, 1.0, &mut rng);
        let weight = uniform(&[32, 5, kernel, kernel], -0.5, 0.5, &mut rng);
        group.bench_function(name, |bench| {
            bench.iter(|| conv2d(&input, &weight, 2, kernel / 2));
        });
    }
    // A backbone 3x3 conv at stage-1 width.
    let input = uniform(&[8, 32, 16, 16], -1.0, 1.0, &mut rng);
    let weight = uniform(&[32, 32, 3, 3], -0.5, 0.5, &mut rng);
    group.bench_function("backbone_3x3", |bench| {
        bench.iter(|| conv2d(&input, &weight, 1, 1));
    });
    group.finish();
}

fn bench_conv_backward(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from_u64(3);
    let input = uniform(&[8, 16, 16, 16], -1.0, 1.0, &mut rng);
    let weight = uniform(&[16, 16, 3, 3], -0.5, 0.5, &mut rng);
    let out = conv2d(&input, &weight, 1, 1);
    let grad = Tensor::ones(out.dims());
    c.bench_function("conv2d_backward", |bench| {
        bench.iter(|| conv2d_backward(&input, &weight, &grad, 1, 1));
    });
}

fn bench_pooling(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from_u64(4);
    let input = uniform(&[8, 32, 16, 16], -1.0, 1.0, &mut rng);
    c.bench_function("max_pool2d_3x3s2", |bench| {
        bench.iter(|| max_pool2d(&input, 3, 2, 1));
    });
}

criterion_group!(
    benches,
    bench_gemm,
    bench_conv_forward,
    bench_conv_backward,
    bench_pooling
);
criterion_main!(benches);
