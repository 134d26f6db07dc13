//! The compute benchmark runner: times the hot kernels against the
//! frozen pre-optimization baselines ([`hydronas_bench::reference`]) and
//! writes `BENCH_compute.json`.
//!
//! ```text
//! bench [--smoke] [--out PATH] [--gate BASELINE.json]
//! ```
//!
//! * `--smoke` — fewer repetitions, smaller sweep. Shapes are unchanged,
//!   so every throughput number stays comparable to a full run (only
//!   noisier).
//! * `--out PATH` — where to write the report (default
//!   `BENCH_compute.json` in the current directory).
//! * `--gate BASELINE.json` — compare against a committed report and
//!   exit non-zero if any throughput falls below 75% of the baseline.
//!
//! Beyond timing, the run *asserts* the structural claims of the
//! compute-path work: the packed GEMM beats the frozen reference by at
//! least 2x at 256^3, the 8-thread compute pool beats the single-thread
//! path by at least 2x at 512^3 (enforced only on hosts with >= 4
//! cores — an oversubscribed pool records its honest ~1x instead), and
//! the conv2d/conv2d_backward loops perform zero per-sample heap
//! allocations once the scratch arenas are warm (verified through the
//! arena telemetry counters).

use hydronas_bench::reference::{conv2d_reference, gemm_reference};
use hydronas_graph::ArchConfig;
use hydronas_nas::space::{full_grid, SearchSpace};
use hydronas_nas::{run_experiment, SchedulerConfig, SurrogateEvaluator};
use hydronas_nn::{CrossEntropyLoss, Optimizer, ParamVisitor, ResNet, Sgd};
use hydronas_tensor::{
    compute_threads, conv2d, conv2d_backward, gemm, qgemm_nt, set_compute_threads, uniform,
    Epilogue, GemmA, GemmB, QEpilogue, Tensor, TensorRng,
};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::time::Instant;

/// Gate threshold: current throughput must be at least this fraction of
/// the committed baseline.
const GATE_FRACTION: f64 = 0.75;

#[derive(Debug, Serialize, Deserialize)]
struct GemmBench {
    /// `m = k = n` of the timed problem.
    size: u64,
    reference_gflops: f64,
    live_gflops: f64,
    speedup: f64,
}

/// The packed i8 x i8 -> i32 GEMM (requantizing epilogue included)
/// against the f32 packed GEMM at the same shape. The int8 kernel's win
/// is exactness (integer accumulation, bit-identical at any thread
/// count) and 4x-smaller operands, not necessarily raw speed: on hosts
/// whose f32 path runs AVX2+FMA the two land close together, so the
/// ratio is recorded honestly and only the int8 throughput itself is
/// gated against the committed baseline.
#[derive(Debug, Serialize, Deserialize)]
struct Int8GemmBench {
    /// `m = k = n` of the timed problem.
    size: u64,
    f32_gflops: f64,
    /// Billions of i8 multiply-accumulates per second.
    int8_gops: f64,
    /// int8 over f32 wall-clock at the same shape (recorded, not gated).
    speedup_vs_f32: f64,
    avx2: bool,
}

#[derive(Debug, Serialize, Deserialize)]
struct ConvBench {
    forward_reference_ms: f64,
    forward_live_ms: f64,
    forward_speedup: f64,
    backward_live_ms: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct TrainBench {
    batch_size: u64,
    ms_per_step: f64,
    samples_per_s: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct SweepBench {
    trials: u64,
    trials_per_s: f64,
    graph_cache_hits: u64,
    graph_cache_misses: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct ParallelBench {
    /// Cores the host actually exposes (`available_parallelism`).
    host_cores: u64,
    /// Thread count of the multi-thread measurement.
    threads: u64,
    single_thread_gflops: f64,
    multi_thread_gflops: f64,
    /// Multi-thread over single-thread GEMM throughput.
    speedup: f64,
    /// Whether the >= 2x parallel-speedup claim was enforced: an
    /// oversubscribed pool on a small host cannot demonstrate a real
    /// speedup, so the gate only arms when the host has >= 4 cores.
    gate_enforced: bool,
}

#[derive(Debug, Serialize, Deserialize)]
struct ArenaBench {
    hits: u64,
    misses: u64,
    bytes_reused: u64,
    /// Scratch allocations during the steady-state conv loop — the
    /// zero-per-sample-allocation claim, must be 0.
    steady_state_allocs: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    mode: String,
    avx2_fma: bool,
    gemm: GemmBench,
    int8_gemm: Int8GemmBench,
    parallel: ParallelBench,
    conv2d: ConvBench,
    train_step: TrainBench,
    sweep: SweepBench,
    arena: ArenaBench,
}

impl Report {
    /// The higher-is-better numbers the regression gate compares.
    fn throughputs(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("gemm.live_gflops", self.gemm.live_gflops),
            ("int8_gemm.int8_gops", self.int8_gemm.int8_gops),
            ("conv2d.forward_per_s", 1e3 / self.conv2d.forward_live_ms),
            ("conv2d.backward_per_s", 1e3 / self.conv2d.backward_live_ms),
            ("train_step.samples_per_s", self.train_step.samples_per_s),
            ("sweep.trials_per_s", self.sweep.trials_per_s),
        ]
    }
}

/// Median wall time of `reps` calls, in seconds. One untimed warmup call
/// populates caches and scratch arenas first.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn bench_gemm(reps: usize) -> GemmBench {
    let size = 256usize;
    let mut rng = TensorRng::seed_from_u64(11);
    let a = uniform(&[size * size], -1.0, 1.0, &mut rng)
        .as_slice()
        .to_vec();
    let b = uniform(&[size * size], -1.0, 1.0, &mut rng)
        .as_slice()
        .to_vec();
    let mut c = vec![0.0f32; size * size];
    let flops = 2.0 * (size as f64).powi(3);

    let t_ref = time_median(reps, || gemm_reference(&a, &b, &mut c, size, size, size));
    let (a_op, b_op) = (GemmA::Slice(&a), GemmB::Slice(&b));
    let t_live = time_median(reps, || {
        gemm(a_op, b_op, &mut c, size, size, size, Epilogue::None)
    });
    GemmBench {
        size: size as u64,
        reference_gflops: flops / t_ref / 1e9,
        live_gflops: flops / t_live / 1e9,
        speedup: t_ref / t_live,
    }
}

/// Times the packed int8 NT GEMM (with its fused requantize epilogue)
/// against the packed f32 GEMM at the same 256^3 shape. Operands fill
/// the full [-127, 127] range deterministically.
fn bench_int8_gemm(reps: usize) -> Int8GemmBench {
    let size = 256usize;
    let mut rng = TensorRng::seed_from_u64(16);
    let a32 = uniform(&[size * size], -1.0, 1.0, &mut rng)
        .as_slice()
        .to_vec();
    let b32 = uniform(&[size * size], -1.0, 1.0, &mut rng)
        .as_slice()
        .to_vec();
    let mut c32 = vec![0.0f32; size * size];
    let flops = 2.0 * (size as f64).powi(3);
    let (a_op, b_op) = (GemmA::Slice(&a32), GemmB::Slice(&b32));
    let t_f32 = time_median(reps, || {
        gemm(a_op, b_op, &mut c32, size, size, size, Epilogue::None)
    });

    let fill = |salt: u64| -> Vec<i8> {
        (0..size * size)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(salt);
                (((h >> 32) % 255) as i32 - 127) as i8
            })
            .collect()
    };
    let a = fill(1);
    let bt = fill(2);
    let scales = vec![1.0f32 / 127.0; size];
    let bias = vec![0.0f32; size];
    let mut c = vec![0.0f32; size * size];
    let t_int8 = time_median(reps, || {
        let epi = QEpilogue::Rows {
            scales: &scales,
            bias: &bias,
            relu: false,
        };
        qgemm_nt(&a, &bt, &mut c, size, size, size, epi);
    });
    Int8GemmBench {
        size: size as u64,
        f32_gflops: flops / t_f32 / 1e9,
        int8_gops: flops / t_int8 / 1e9,
        speedup_vs_f32: t_f32 / t_int8,
        avx2: avx2(),
    }
}

/// Times the same packed GEMM single-threaded and on an 8-thread pool.
/// Output is bit-identical either way (the determinism contract); only
/// the wall clock moves. On hosts with fewer than 4 cores the pool is
/// oversubscribed and the measurement records ~1x honestly instead of
/// arming the gate.
fn bench_parallel(reps: usize) -> ParallelBench {
    let size = 512usize;
    let threads = 8usize;
    let mut rng = TensorRng::seed_from_u64(15);
    let a = uniform(&[size * size], -1.0, 1.0, &mut rng)
        .as_slice()
        .to_vec();
    let b = uniform(&[size * size], -1.0, 1.0, &mut rng)
        .as_slice()
        .to_vec();
    let mut c = vec![0.0f32; size * size];
    let flops = 2.0 * (size as f64).powi(3);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (a_op, b_op) = (GemmA::Slice(&a), GemmB::Slice(&b));
    let restore = compute_threads();
    set_compute_threads(1);
    let t_single = time_median(reps, || {
        gemm(a_op, b_op, &mut c, size, size, size, Epilogue::None)
    });
    set_compute_threads(threads);
    let t_multi = time_median(reps, || {
        gemm(a_op, b_op, &mut c, size, size, size, Epilogue::None)
    });
    set_compute_threads(restore);

    ParallelBench {
        host_cores: host_cores as u64,
        threads: threads as u64,
        single_thread_gflops: flops / t_single / 1e9,
        multi_thread_gflops: flops / t_multi / 1e9,
        speedup: t_single / t_multi,
        gate_enforced: host_cores >= 4,
    }
}

fn bench_conv(reps: usize) -> ConvBench {
    let mut rng = TensorRng::seed_from_u64(12);
    let input = uniform(&[8, 5, 64, 64], -1.0, 1.0, &mut rng);
    let weight = uniform(&[32, 5, 3, 3], -0.5, 0.5, &mut rng);

    let t_ref = time_median(reps, || {
        let _ = conv2d_reference(&input, &weight, 1, 1);
    });
    let t_live = time_median(reps, || {
        let _ = conv2d(&input, &weight, 1, 1);
    });
    let out = conv2d(&input, &weight, 1, 1);
    let grad_out = Tensor::ones(out.dims());
    let t_bwd = time_median(reps, || {
        let _ = conv2d_backward(&input, &weight, &grad_out, 1, 1);
    });
    ConvBench {
        forward_reference_ms: t_ref * 1e3,
        forward_live_ms: t_live * 1e3,
        forward_speedup: t_ref / t_live,
        backward_live_ms: t_bwd * 1e3,
    }
}

fn bench_train_step(reps: usize) -> TrainBench {
    let arch = ArchConfig {
        in_channels: 5,
        kernel_size: 3,
        stride: 1,
        padding: 1,
        pool: None,
        initial_features: 32,
        num_classes: 2,
    };
    let batch = 8usize;
    let mut rng = TensorRng::seed_from_u64(13);
    let mut model = ResNet::new(&arch, &mut rng);
    let mut opt = Sgd::new(0.01, 0.9, 1e-4);
    let loss_fn = CrossEntropyLoss;
    let input = uniform(&[batch, 5, 32, 32], -1.0, 1.0, &mut rng);
    let targets: Vec<usize> = (0..batch).map(|i| i % 2).collect();

    let t_step = time_median(reps, || {
        model.zero_grad();
        let logits = model.forward(&input, true);
        let (_, grad) = loss_fn.forward_backward(&logits, &targets);
        model.backward(&grad);
        opt.step(&mut model);
    });
    TrainBench {
        batch_size: batch as u64,
        ms_per_step: t_step * 1e3,
        samples_per_s: batch as f64 / t_step,
    }
}

/// Runs a surrogate sweep slice under telemetry: trials/s plus the
/// graph-metrics cache counters it exercises.
fn bench_sweep(trials_wanted: usize) -> SweepBench {
    let trials: Vec<_> = full_grid(&SearchSpace::paper())
        .into_iter()
        .take(trials_wanted)
        .collect();
    let config = SchedulerConfig {
        injected_failures: 0,
        ..Default::default()
    };
    let session = hydronas_telemetry::session();
    let t0 = Instant::now();
    let db = run_experiment(&trials, &SurrogateEvaluator::default(), &config);
    let elapsed = t0.elapsed().as_secs_f64();
    let metrics = session.metrics();
    drop(session);
    assert_eq!(db.valid().len(), trials.len());

    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    SweepBench {
        trials: trials.len() as u64,
        trials_per_s: trials.len() as f64 / elapsed,
        graph_cache_hits: counter("nas.graph_cache.hits"),
        graph_cache_misses: counter("nas.graph_cache.misses"),
    }
}

/// Reproduces the arena-telemetry contract as a runtime check: once the
/// per-thread pools are warm, the conv loops must not allocate.
fn bench_arena(steady_iters: usize) -> ArenaBench {
    // Pin the pool to one thread: task claiming is intentionally racy,
    // so under a multi-thread pool a worker starved during the warmup
    // pass can take its first (cold, allocating) task mid-measurement.
    // The zero-alloc claim is per-thread; one thread measures it
    // exactly.
    let restore = compute_threads();
    set_compute_threads(1);
    let mut rng = TensorRng::seed_from_u64(14);
    let input = uniform(&[4, 3, 16, 16], -1.0, 1.0, &mut rng);
    let weight = uniform(&[8, 3, 3, 3], -0.5, 0.5, &mut rng);

    let session = hydronas_telemetry::session();
    let out = conv2d(&input, &weight, 1, 1);
    let grad_out = Tensor::ones(out.dims());
    let _ = conv2d_backward(&input, &weight, &grad_out, 1, 1);
    let counter = |m: &hydronas_telemetry::MetricsSnapshot, name: &str| {
        m.counters.get(name).copied().unwrap_or(0)
    };
    let warm = session.metrics();
    let warm_misses = counter(&warm, "tensor.arena.misses");

    for _ in 0..steady_iters {
        let _ = conv2d(&input, &weight, 1, 1);
        let _ = conv2d_backward(&input, &weight, &grad_out, 1, 1);
    }
    let steady = session.metrics();
    drop(session);
    set_compute_threads(restore);
    ArenaBench {
        hits: counter(&steady, "tensor.arena.hits"),
        misses: counter(&steady, "tensor.arena.misses"),
        bytes_reused: counter(&steady, "tensor.arena.bytes_reused"),
        steady_state_allocs: counter(&steady, "tensor.arena.misses") - warm_misses,
    }
}

/// Applies the regression gate: every throughput must hold at least
/// [`GATE_FRACTION`] of the committed baseline.
fn check_gate(current: &Report, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read gate baseline {baseline_path}: {e}"))?;
    let baseline: Report = serde_json::from_str(&text)
        .map_err(|e| format!("gate baseline {baseline_path} is not a bench report: {e:?}"))?;
    let base = baseline.throughputs();
    let mut failures = Vec::new();
    for (name, now) in current.throughputs() {
        let Some((_, before)) = base.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let ratio = now / before;
        eprintln!(
            "gate {name}: {now:.2} vs baseline {before:.2} ({:.0}%)",
            ratio * 100.0
        );
        if ratio < GATE_FRACTION {
            failures.push(format!(
                "{name} regressed to {:.0}% of baseline ({now:.2} vs {before:.2})",
                ratio * 100.0
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_compute.json");
    let mut gate_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--gate" => gate_path = Some(args.next().expect("--gate requires a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench [--smoke] [--out PATH] [--gate BASELINE.json]");
                return ExitCode::from(2);
            }
        }
    }
    let (reps, sweep_trials) = if smoke { (5, 72) } else { (21, 288) };

    eprintln!("timing gemm 256^3 ({reps} reps)...");
    let gemm = bench_gemm(reps);
    eprintln!(
        "  reference {:.2} GFLOP/s, live {:.2} GFLOP/s ({:.2}x)",
        gemm.reference_gflops, gemm.live_gflops, gemm.speedup
    );
    eprintln!("timing int8 gemm 256^3 vs f32 ({reps} reps)...");
    let int8_gemm = bench_int8_gemm(reps);
    eprintln!(
        "  f32 {:.2} GFLOP/s, int8 {:.2} GOP/s ({:.2}x, avx2 {})",
        int8_gemm.f32_gflops, int8_gemm.int8_gops, int8_gemm.speedup_vs_f32, int8_gemm.avx2
    );
    eprintln!("timing parallel gemm 512^3, 1 vs 8 threads ({reps} reps)...");
    let parallel = bench_parallel(reps);
    eprintln!(
        "  single {:.2} GFLOP/s, 8-thread {:.2} GFLOP/s ({:.2}x on {} cores, gate {})",
        parallel.single_thread_gflops,
        parallel.multi_thread_gflops,
        parallel.speedup,
        parallel.host_cores,
        if parallel.gate_enforced {
            "enforced"
        } else {
            "recorded only"
        }
    );
    eprintln!("timing conv2d fwd/bwd ({reps} reps)...");
    let conv2d = bench_conv(reps);
    eprintln!(
        "  forward {:.3} ms (reference {:.3} ms, {:.2}x), backward {:.3} ms",
        conv2d.forward_live_ms,
        conv2d.forward_reference_ms,
        conv2d.forward_speedup,
        conv2d.backward_live_ms
    );
    eprintln!("timing train step ({reps} reps)...");
    let train_step = bench_train_step(reps);
    eprintln!("  {:.2} ms/step", train_step.ms_per_step);
    eprintln!("timing surrogate sweep ({sweep_trials} trials)...");
    let sweep = bench_sweep(sweep_trials);
    eprintln!(
        "  {:.0} trials/s, graph cache {} hits / {} misses",
        sweep.trials_per_s, sweep.graph_cache_hits, sweep.graph_cache_misses
    );
    eprintln!("checking arena steady state...");
    let arena = bench_arena(5);
    eprintln!(
        "  {} hits, {} misses, {} bytes reused, {} steady-state allocs",
        arena.hits, arena.misses, arena.bytes_reused, arena.steady_state_allocs
    );

    let report = Report {
        schema: "hydronas-bench-compute/v3".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        avx2_fma: avx2_fma(),
        gemm,
        int8_gemm,
        parallel,
        conv2d,
        train_step,
        sweep,
        arena,
    };

    // The structural claims are hard failures, not just numbers in a
    // file.
    let mut failed = Vec::new();
    if report.gemm.speedup < 2.0 {
        failed.push(format!(
            "packed GEMM speedup {:.2}x is below the required 2x",
            report.gemm.speedup
        ));
    }
    if report.parallel.gate_enforced && report.parallel.speedup < 2.0 {
        failed.push(format!(
            "parallel GEMM speedup {:.2}x on {} cores is below the required 2x",
            report.parallel.speedup, report.parallel.host_cores
        ));
    }
    if !report.int8_gemm.int8_gops.is_finite() || report.int8_gemm.int8_gops <= 0.0 {
        failed.push(format!(
            "int8 GEMM throughput {:.2} GOP/s is not a positive finite number",
            report.int8_gemm.int8_gops
        ));
    }
    if report.arena.steady_state_allocs != 0 {
        failed.push(format!(
            "conv loops allocated {} times in steady state (must be 0)",
            report.arena.steady_state_allocs
        ));
    }
    if report.sweep.graph_cache_hits == 0 {
        failed.push("sweep never hit the graph-metrics cache".to_string());
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");

    if let Some(path) = gate_path {
        if let Err(msg) = check_gate(&report, &path) {
            failed.push(msg);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failed {
            eprintln!("BENCH FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}

fn avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The int8 dot kernel needs AVX2 alone (madd, no FMA).
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
