//! Benchmarks for the NAS engine (Tables 3-5 workload): per-combination
//! sweeps, the full 1,728-trial experiment, and the search strategies.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hydronas_bench::{combo_trials, run_combo};
use hydronas_nas::space::full_grid;
use hydronas_nas::{
    makespan_lpt, nsga2, random_search, regularized_evolution, run_experiment, EvolutionConfig,
    InputCombo, Nsga2Config, SchedulerConfig, SearchSpace, SurrogateEvaluator,
};

fn bench_single_combo(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_one_combo");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(288));
    group.bench_function("288_trials_surrogate", |bench| {
        bench.iter(|| run_combo(5, 8));
    });
    group.finish();
}

fn bench_full_grid(c: &mut Criterion) {
    // The paper's whole experiment: 1,728 trials (Table 3/4/5, Fig. 3/4).
    let mut group = c.benchmark_group("sweep_full_grid");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(1728));
    group.bench_function("1728_trials_surrogate", |bench| {
        bench.iter(|| {
            run_experiment(
                &full_grid(&SearchSpace::paper()),
                &SurrogateEvaluator::default(),
                &SchedulerConfig::default(),
            )
        });
    });
    group.finish();
}

fn bench_scheduler_overhead(c: &mut Criterion) {
    // Scheduling cost without objective computation noise: a small slice.
    let trials: Vec<_> = combo_trials(5, 8).into_iter().take(32).collect();
    let evaluator = SurrogateEvaluator::default();
    let config = SchedulerConfig {
        injected_failures: 0,
        ..Default::default()
    };
    c.bench_function("scheduler_32_trials", |bench| {
        bench.iter(|| run_experiment(&trials, &evaluator, &config));
    });
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategies");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let space = SearchSpace::paper();
    let combo = InputCombo {
        channels: 7,
        batch_size: 16,
    };
    let evaluator = SurrogateEvaluator::default();
    group.bench_function("random_96", |bench| {
        bench.iter(|| random_search(&space, combo, &evaluator, 96, 3));
    });
    group.bench_function("evolution_96", |bench| {
        bench.iter(|| {
            regularized_evolution(
                &space,
                combo,
                &evaluator,
                &EvolutionConfig {
                    population: 12,
                    sample_size: 4,
                    budget: 96,
                },
                3,
            )
        });
    });
    group.bench_function("nsga2_pop16_gen5", |bench| {
        bench.iter(|| {
            nsga2(
                &space,
                combo,
                &evaluator,
                &Nsga2Config {
                    population: 16,
                    generations: 5,
                    input_hw: 32,
                },
                3,
            )
        });
    });
    group.finish();
}

fn bench_makespan(c: &mut Criterion) {
    let trials = full_grid(&SearchSpace::paper());
    c.bench_function("makespan_lpt_1728x8", |bench| {
        bench.iter(|| makespan_lpt(&trials, 8));
    });
}

criterion_group!(
    benches,
    bench_single_combo,
    bench_full_grid,
    bench_scheduler_overhead,
    bench_strategies,
    bench_makespan
);
criterion_main!(benches);
