//! Benchmarks for the geodata substrate (Table 1 workload): tile
//! synthesis, hydrology kernels, and balanced dataset assembly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hydronas_geodata::{
    build_dataset, d8_flow_directions, flow_accumulation, study_regions, synthesize_tile,
    ChannelMode, Heightmap, TileParams,
};

fn bench_tile_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_synthesis");
    for &size in &[16usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, &size| {
            let mut seed = 0u64;
            bench.iter(|| {
                seed += 1;
                synthesize_tile(&TileParams {
                    size,
                    seed,
                    has_crossing: seed.is_multiple_of(2),
                    ..Default::default()
                })
            });
        });
    }
    group.finish();
}

fn bench_hydrology(c: &mut Criterion) {
    let h = Heightmap::generate(64, 3, 12.0, 1.0);
    c.bench_function("d8_plus_accumulation_64", |bench| {
        bench.iter(|| {
            let dirs = d8_flow_directions(&h);
            flow_accumulation(&h, &dirs)
        });
    });
}

fn bench_dataset_build(c: &mut Criterion) {
    // A 1% build of the Table 1 dataset (about 120 tiles across 4 regions).
    let mut group = c.benchmark_group("dataset_build_1pct");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for (mode, name) in [(ChannelMode::Five, "5ch"), (ChannelMode::Seven, "7ch")] {
        group.throughput(Throughput::Elements(120));
        group.bench_function(name, |bench| {
            bench.iter(|| build_dataset(&study_regions(), mode, 32, 0.01, 7));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tile_synthesis,
    bench_hydrology,
    bench_dataset_build
);
criterion_main!(benches);
