//! The serving benchmark runner: compiles Pareto-front models into
//! execution plans, times the batching engine, and writes
//! `BENCH_serve.json`.
//!
//! ```text
//! serve [--smoke] [--out PATH] [--gate BASELINE.json] [--slo-p99-ms N]
//!       [--trace PATH] [--metrics PATH] [--overload] [--overload-trace PATH]
//! ```
//!
//! * `--smoke` — fewer repetitions and fewer engine requests. The sweep,
//!   the deployment model, and the batch shapes are identical to a full
//!   run, so every throughput stays gate-comparable to the committed
//!   baseline.
//! * `--out PATH` — where to write the report (default `BENCH_serve.json`,
//!   or `BENCH_serve_smoke.json` with `--smoke`, so a smoke run never
//!   rewrites the committed report).
//! * `--gate BASELINE.json` — compare against a committed report and exit
//!   non-zero if any throughput falls below 75% of the baseline or the
//!   engine p99 total latency exceeds 1/75% of the baseline's. The
//!   baseline is read before the report is written, so a run gated on the
//!   file it writes is compared with the old report, not itself.
//! * `--slo-p99-ms N` — absolute SLO: exit non-zero when the engine's
//!   p99 end-to-end request latency exceeds `N` milliseconds.
//! * `--trace PATH` — write the engine run's Chrome trace (request
//!   lifecycles linked across threads via flow events; open in Perfetto).
//! * `--metrics PATH` — write the engine run's `metrics.json` snapshot
//!   (counters, gauges, histograms, quantile histograms, span rollups).
//! * `--overload` — also run the overload scenario: offer requests at 2x
//!   the engine's measured closed-loop throughput against a bounded
//!   queue with per-request deadlines and the `DropOldest` shed policy,
//!   then drain gracefully. The outcome lands in the report's `overload`
//!   block and its invariants (bounded queue peak, nonzero shedding,
//!   tail latency within the deadline budget, clean drain, three-way
//!   stats/client/telemetry agreement) are hard failures.
//! * `--overload-trace PATH` — write the overload run's Chrome trace.
//!
//! Beyond timing, the run *asserts* the structural claims of the serving
//! work: whole-batch execution must deliver at least 2x the per-sample
//! throughput on the deployment model (the batched im2col + single wide
//! GEMM claim), the true-int8 plan must compress weights at least 3x,
//! shrink the activation footprint, and cost at most 0.5% eval accuracy
//! against the fp32 plan of the same trained weights, the engine must
//! batch concurrent clients (telemetry counters agree with engine
//! stats), and the predictor-vs-measured validation must cover every
//! Pareto-front model of the sweep.

use hydronas_geodata::{build_dataset, study_regions, ChannelMode, TileSet};
use hydronas_graph::CalibrationMethod;
use hydronas_infer::{
    Engine, EngineConfig, ExecutionPlan, InferError, InferRequest, LayerProfile, Numerics,
    QuantizationScheme, ShedPolicy,
};
use hydronas_nas::space::{full_grid, SearchSpace};
use hydronas_nas::{run_experiment, SchedulerConfig, SurrogateEvaluator};
use hydronas_nn::{CrossEntropyLoss, Optimizer, ParamVisitor, ResNet, Sgd};
use hydronas_telemetry::{MetricsSnapshot, QuantileHistogram, QuantileSnapshot};
use hydronas_tensor::{uniform, Tensor, TensorRng};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gate threshold: current throughput must be at least this fraction of
/// the committed baseline.
const GATE_FRACTION: f64 = 0.75;

/// Tile edge for all measurements — the same edge the sweep's latency
/// predictor and memory accounting use, so predicted and measured
/// numbers describe the same workload.
const INPUT_HW: usize = 32;

#[derive(Debug, Serialize, Deserialize)]
struct SingleStream {
    /// Stable key of the deployment model (fastest Pareto-front arch).
    arch: String,
    input_hw: u64,
    latency_ms: f64,
    samples_per_s: f64,
}

/// The per-sample serving baseline: `ResNet::forward(x, false)` one
/// request at a time — the path a deployment had before the plan/engine
/// existed (unfused conv, separate BN and ReLU passes, per-request
/// dispatch).
#[derive(Debug, Serialize, Deserialize)]
struct BaselineEval {
    latency_ms: f64,
    samples_per_s: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct BatchPoint {
    batch: u64,
    ms_per_batch: f64,
    samples_per_s: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Batched {
    /// Best-throughput point of the curve below.
    batch: u64,
    ms_per_batch: f64,
    samples_per_s: f64,
    /// Batched samples/s over the per-sample eval-forward baseline —
    /// the structural >= 2x claim.
    speedup_vs_eval_baseline: f64,
    /// Batched samples/s over the compiled plan's own batch=1 rate
    /// (isolates the batching win from the compilation win).
    speedup_vs_single_stream: f64,
    /// Throughput at each measured batch size.
    curve: Vec<BatchPoint>,
}

/// True int8 execution on the deployment model: the plan quantizes the
/// folded conv/linear weights per output channel, calibrates activation
/// scales on seeded training tiles, and runs every conv and the
/// classifier head through the packed i8 GEMM kernels — no
/// dequantize-on-load anywhere on the hot path.
///
/// The accuracy comparison runs on a *briefly trained* copy of the
/// deployment model (random weights have no decision margins, so their
/// argmax is pure noise); the latency comparison is weight-value
/// independent either way.
#[derive(Debug, Serialize, Deserialize)]
struct Int8Serve {
    fp32_weight_bytes: u64,
    int8_weight_bytes: u64,
    compression: f64,
    /// Peak live activation footprint at the measured batch size —
    /// the int8 plan's im2col buffer packs 1-byte lanes.
    fp32_activation_bytes: u64,
    int8_activation_bytes: u64,
    /// How activation scales were fixed at plan-build time.
    calibration: String,
    calibration_samples: u64,
    train_tiles: u64,
    eval_tiles: u64,
    batch: u64,
    fp32_ms: f64,
    int8_ms: f64,
    /// fp32 batch time over int8 batch time. Recorded honestly, not
    /// gated: on wide-SIMD f32 hosts the int8 path can land near or
    /// below 1x — the int8 win this block *does* gate is footprint
    /// (compression >= 3x) and accuracy (drop <= 0.5%), plus its own
    /// throughput row against the committed baseline.
    speedup_vs_fp32: f64,
    int8_single_stream_ms: f64,
    /// Gate row: int8 whole-batch throughput.
    int8_samples_per_s: f64,
    /// Eval accuracy of each plan on the held-out seeded tiles.
    fp32_accuracy: f64,
    int8_accuracy: f64,
    /// fp32 minus int8 accuracy; hard failure above 0.005.
    accuracy_drop: f64,
    /// Largest absolute logit difference across the whole eval set.
    max_logit_delta: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct EngineBench {
    clients: u64,
    requests: u64,
    batches: u64,
    mean_batch: f64,
    max_batch_observed: u64,
    samples_per_s: f64,
    /// Deepest the request queue ever got.
    queue_peak: u64,
    /// Mean queue wait per request (enqueue → drain), milliseconds.
    mean_wait_ms: f64,
    /// Mean batch execution time, milliseconds.
    mean_exec_ms: f64,
    /// `infer.batches` / `infer.samples` telemetry counters, which must
    /// agree with the engine's own stats.
    telemetry_batches: u64,
    telemetry_samples: u64,
}

/// p50/p95/p99/p99.9 of one latency population, milliseconds.
#[derive(Debug, Serialize, Deserialize)]
struct Quantiles {
    count: u64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

impl Quantiles {
    fn from_snapshot(s: &QuantileSnapshot) -> Quantiles {
        Quantiles {
            count: s.count,
            p50_ms: s.p50,
            p95_ms: s.p95,
            p99_ms: s.p99,
            p999_ms: s.p999,
        }
    }
}

/// The latency-distribution block: tail behaviour of the serving path,
/// single-stream and batched-engine.
#[derive(Debug, Serialize, Deserialize)]
struct LatencyDistribution {
    /// Sequential `run_single` calls — no queueing, pure compute.
    single_stream: Quantiles,
    /// End-to-end request latency through the engine (enqueue →
    /// complete), including queue wait and collection-window stall.
    engine_total: Quantiles,
    /// Queue-wait phase alone (enqueue → batch drain).
    engine_wait: Quantiles,
    /// Batch-execution phase alone (per batch, not per request).
    engine_exec: Quantiles,
}

/// What the engine run's telemetry session captured, beyond the
/// throughput numbers: quantile snapshots for the latency block plus
/// the exportable trace/metrics payloads.
struct EngineObservability {
    total: QuantileSnapshot,
    wait: QuantileSnapshot,
    exec: QuantileSnapshot,
    trace_json: String,
    metrics: MetricsSnapshot,
}

#[derive(Debug, Serialize, Deserialize)]
struct ParetoRow {
    trial: u64,
    arch: String,
    predicted_ms: f64,
    measured_ms: f64,
    /// measured / predicted — a host-vs-modeled-device calibration
    /// factor, expected similar across models if the predictor ranks
    /// correctly.
    ratio: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct ParetoValidation {
    sweep_trials: u64,
    models: u64,
    ratio_min: f64,
    ratio_max: f64,
    rows: Vec<ParetoRow>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    mode: String,
    avx2_fma: bool,
    /// Compute-pool thread count the run was measured at (`HYDRONAS_THREADS`).
    compute_threads: u64,
    baseline_eval: BaselineEval,
    single_stream: SingleStream,
    batched: Batched,
    int8: Int8Serve,
    engine: EngineBench,
    latency: LatencyDistribution,
    /// Per-layer cost table of the deployment model at batch 8.
    layer_profile: LayerProfile,
    pareto: ParetoValidation,
    /// Present when the run included `--overload` (null otherwise — the
    /// field itself is always serialized so reports round-trip).
    overload: Option<OverloadBench>,
}

impl Report {
    /// The higher-is-better numbers the regression gate compares.
    /// Overload entries appear only when the block was measured; the
    /// gate skips names absent from either side.
    fn throughputs(&self) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            (
                "baseline_eval.samples_per_s",
                self.baseline_eval.samples_per_s,
            ),
            (
                "single_stream.samples_per_s",
                self.single_stream.samples_per_s,
            ),
            ("batched.samples_per_s", self.batched.samples_per_s),
            ("int8.samples_per_s", self.int8.int8_samples_per_s),
            ("engine.samples_per_s", self.engine.samples_per_s),
        ];
        if let Some(o) = &self.overload {
            v.push(("overload.goodput_per_s", o.goodput_per_s));
        }
        v
    }

    /// The lower-is-better tail latencies the regression gate compares.
    fn tail_latencies(&self) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            (
                "latency.engine_total.p99_ms",
                self.latency.engine_total.p99_ms,
            ),
            (
                "latency.single_stream.p99_ms",
                self.latency.single_stream.p99_ms,
            ),
        ];
        if let Some(o) = &self.overload {
            v.push(("overload.total.p99_ms", o.total.p99_ms));
        }
        v
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

/// Builds the seeded model for one sweep architecture (random weights:
/// latency depends on shapes, not parameter values).
fn model_for(arch: &hydronas_graph::ArchConfig) -> ResNet {
    let mut rng = TensorRng::seed_from_u64(17);
    ResNet::new(arch, &mut rng)
}

/// Compiles one sweep architecture into a served fp32 plan.
fn plan_for(arch: &hydronas_graph::ArchConfig) -> ExecutionPlan {
    ExecutionPlan::builder(&model_for(arch))
        .build()
        .expect("fp32 plan needs no quantization scheme")
}

fn sample(channels: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seed_from_u64(seed);
    uniform(&[channels, INPUT_HW, INPUT_HW], -1.0, 1.0, &mut rng)
}

fn batch_of(channels: usize, n: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seed_from_u64(seed);
    uniform(&[n, channels, INPUT_HW, INPUT_HW], -1.0, 1.0, &mut rng)
}

/// Times batch=1 plan execution — the per-sample serving baseline.
fn bench_single(plan: &ExecutionPlan, arch_key: String, reps: usize) -> SingleStream {
    let x = sample(plan.arch().in_channels, 21);
    let t = time_median(reps, || {
        let _ = plan.run_single(&x);
    });
    SingleStream {
        arch: arch_key,
        input_hw: INPUT_HW as u64,
        latency_ms: t * 1e3,
        samples_per_s: 1.0 / t,
    }
}

/// Times `forward(x, false)` one sample at a time — the pre-engine
/// serving path every request would otherwise take.
fn bench_baseline(model: &mut ResNet, channels: usize, reps: usize) -> BaselineEval {
    let x = sample(channels, 21);
    let dims = x.dims();
    let batched = Tensor::from_vec(x.as_slice().to_vec(), &[1, dims[0], dims[1], dims[2]]);
    let t = time_median(reps, || {
        let _ = model.forward(&batched, false);
    });
    BaselineEval {
        latency_ms: t * 1e3,
        samples_per_s: 1.0 / t,
    }
}

/// Times whole-batch execution across a batch-size curve and reports the
/// best point with its speedups over both baselines.
fn bench_batch_curve(
    plan: &ExecutionPlan,
    baseline: &BaselineEval,
    single: &SingleStream,
    reps: usize,
) -> Batched {
    let mut curve = Vec::new();
    for batch in [4usize, 8, 16, 32] {
        let x = batch_of(plan.arch().in_channels, batch, 22);
        let t = time_median(reps, || {
            let _ = plan.run_batch(&x);
        });
        curve.push(BatchPoint {
            batch: batch as u64,
            ms_per_batch: t * 1e3,
            samples_per_s: batch as f64 / t,
        });
    }
    let (batch, ms_per_batch, samples_per_s) = curve
        .iter()
        .max_by(|a, b| a.samples_per_s.total_cmp(&b.samples_per_s))
        .map(|p| (p.batch, p.ms_per_batch, p.samples_per_s))
        .expect("curve is non-empty");
    Batched {
        batch,
        ms_per_batch,
        samples_per_s,
        speedup_vs_eval_baseline: samples_per_s / baseline.samples_per_s,
        speedup_vs_single_stream: samples_per_s / single.samples_per_s,
        curve,
    }
}

/// The first `n` tiles of a set as one NCHW batch tensor.
fn tile_batch(set: &TileSet, n: usize) -> Tensor {
    let n = n.min(set.len());
    let dims = set.features.dims();
    let sample = dims[1] * dims[2] * dims[3];
    Tensor::from_vec(
        set.features.as_slice()[..n * sample].to_vec(),
        &[n, dims[1], dims[2], dims[3]],
    )
}

/// Trains the deployment architecture briefly on seeded tiles so the
/// int8-vs-fp32 accuracy comparison runs against real decision margins
/// instead of the argmax noise of random weights. Sequential batches,
/// fixed seed: the trained weights are identical run to run.
fn trained_deploy_model(arch: &hydronas_graph::ArchConfig, train: &TileSet) -> ResNet {
    let mut rng = TensorRng::seed_from_u64(17);
    let mut model = ResNet::new(arch, &mut rng);
    let mut opt = Sgd::new(0.01, 0.9, 1e-4);
    let loss_fn = CrossEntropyLoss;
    let dims = train.features.dims();
    let sample = dims[1] * dims[2] * dims[3];
    let src = train.features.as_slice();
    let n = train.len();
    let batch = 16.min(n);
    for _epoch in 0..4 {
        let mut i = 0usize;
        while i < n {
            let j = (i + batch).min(n);
            let x = Tensor::from_vec(
                src[i * sample..j * sample].to_vec(),
                &[j - i, dims[1], dims[2], dims[3]],
            );
            model.zero_grad();
            let logits = model.forward(&x, true);
            let (_, grad) = loss_fn.forward_backward(&logits, &train.labels[i..j]);
            model.backward(&grad);
            opt.step(&mut model);
            i = j;
        }
    }
    model
}

/// Classifies every tile of `set` through the plan (batches of 32) and
/// returns the accuracy plus the flattened logits for delta comparison.
fn plan_accuracy(plan: &ExecutionPlan, set: &TileSet) -> (f64, Vec<f32>) {
    let dims = set.features.dims();
    let sample = dims[1] * dims[2] * dims[3];
    let src = set.features.as_slice();
    let n = set.len();
    let classes = plan.arch().num_classes;
    let mut logits = Vec::with_capacity(n * classes);
    let mut i = 0usize;
    while i < n {
        let j = (i + 32).min(n);
        let x = Tensor::from_vec(
            src[i * sample..j * sample].to_vec(),
            &[j - i, dims[1], dims[2], dims[3]],
        );
        logits.extend_from_slice(plan.run_batch(&x).as_slice());
        i = j;
    }
    let mut correct = 0usize;
    for (row, &label) in logits.chunks_exact(classes).zip(&set.labels) {
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)
            .expect("num_classes >= 1");
        correct += usize::from(pred == label);
    }
    (correct as f64 / n as f64, logits)
}

/// Runs the deployment model end to end in int8 — per-channel weight
/// quantization, min/max activation calibration on seeded training
/// tiles, packed i8 GEMM convs and classifier — and compares footprint,
/// latency, and eval accuracy against the fp32 plan of the same
/// (briefly trained) weights.
fn bench_int8(arch: &hydronas_graph::ArchConfig, reps: usize) -> Int8Serve {
    let mode = ChannelMode::from_channels(arch.in_channels);
    let train = build_dataset(&study_regions()[..1], mode, INPUT_HW, 0.05, 61);
    let eval = build_dataset(&study_regions()[..1], mode, INPUT_HW, 0.15, 62);
    let model = trained_deploy_model(arch, &train);

    let fp32 = ExecutionPlan::builder(&model)
        .build()
        .expect("fp32 plan needs no quantization scheme");
    let calibration_samples = 32usize.min(train.len());
    let calib = tile_batch(&train, calibration_samples);
    let int8 = ExecutionPlan::builder(&model)
        .numerics(Numerics::QuantizedInt8)
        .quantization(
            QuantizationScheme::per_channel().calibrate(CalibrationMethod::MinMax, &calib),
        )
        .build()
        .expect("int8 plan builds from a calibrated scheme");

    let batch = 8usize;
    let x = tile_batch(&eval, batch);
    let t_fp32 = time_median(reps, || {
        let _ = fp32.run_batch(&x);
    });
    let t_int8 = time_median(reps, || {
        let _ = int8.run_batch(&x);
    });
    let dims = eval.features.dims();
    let one = Tensor::from_vec(
        eval.features.as_slice()[..dims[1] * dims[2] * dims[3]].to_vec(),
        &[dims[1], dims[2], dims[3]],
    );
    let t_single = time_median(reps, || {
        let _ = int8.run_single(&one);
    });

    let (fp32_accuracy, fp32_logits) = plan_accuracy(&fp32, &eval);
    let (int8_accuracy, int8_logits) = plan_accuracy(&int8, &eval);
    let max_logit_delta = fp32_logits
        .iter()
        .zip(&int8_logits)
        .map(|(p, q)| f64::from((p - q).abs()))
        .fold(0.0, f64::max);

    Int8Serve {
        fp32_weight_bytes: fp32.weight_bytes(),
        int8_weight_bytes: int8.weight_bytes(),
        compression: fp32.weight_bytes() as f64 / int8.weight_bytes() as f64,
        fp32_activation_bytes: fp32.activation_bytes(batch, INPUT_HW),
        int8_activation_bytes: int8.activation_bytes(batch, INPUT_HW),
        calibration: "per_channel/minmax".to_string(),
        calibration_samples: calibration_samples as u64,
        train_tiles: train.len() as u64,
        eval_tiles: eval.len() as u64,
        batch: batch as u64,
        fp32_ms: t_fp32 * 1e3,
        int8_ms: t_int8 * 1e3,
        speedup_vs_fp32: t_fp32 / t_int8,
        int8_single_stream_ms: t_single * 1e3,
        int8_samples_per_s: batch as f64 / t_int8,
        fp32_accuracy,
        int8_accuracy,
        accuracy_drop: fp32_accuracy - int8_accuracy,
        max_logit_delta,
    }
}

/// Measures the single-stream latency *distribution*: `n` sequential
/// `run_single` calls through a local quantile histogram.
fn single_stream_distribution(plan: &ExecutionPlan, n: usize) -> Quantiles {
    let x = sample(plan.arch().in_channels, 21);
    let _ = plan.run_single(&x); // warmup
    let mut h = QuantileHistogram::default();
    for _ in 0..n {
        let t0 = Instant::now();
        let _ = plan.run_single(&x);
        h.observe(t0.elapsed().as_secs_f64() * 1e3);
    }
    Quantiles::from_snapshot(&h.snapshot())
}

/// Drives the batching engine with concurrent clients and checks that
/// engine stats and telemetry counters tell the same story. Also
/// captures the session's quantile histograms, Chrome trace, and full
/// metrics snapshot for the report and the `--trace`/`--metrics` flags.
fn bench_engine(
    plan: Arc<ExecutionPlan>,
    clients: usize,
    per_client: usize,
) -> (EngineBench, EngineObservability) {
    let session = hydronas_telemetry::session();
    let engine = Arc::new(Engine::start(
        plan,
        EngineConfig {
            workers: 2,
            max_batch: 8,
            max_wait_ticks: 2,
            tick_us: 200,
            ..EngineConfig::default()
        },
    ));
    let channels = engine.plan().arch().in_channels;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for r in 0..per_client {
                    let x = sample(channels, (c * per_client + r) as u64);
                    let p = engine.infer(x).expect("engine serves while open");
                    assert!(!p.logits.is_empty());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    // Join the workers before snapshotting so every span has closed.
    drop(engine);
    let metrics = session.metrics();
    let trace_json = session.chrome_trace();
    drop(session);
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    let quantile = |name: &str| {
        metrics
            .quantiles
            .get(name)
            .unwrap_or_else(|| panic!("engine run recorded no `{name}` quantiles"))
            .clone()
    };
    let bench = EngineBench {
        clients: clients as u64,
        requests: stats.requests,
        batches: stats.batches,
        mean_batch: stats.mean_batch(),
        max_batch_observed: stats.max_batch_observed,
        samples_per_s: (clients * per_client) as f64 / elapsed,
        queue_peak: stats.queue_peak,
        mean_wait_ms: stats.mean_wait_ms(),
        mean_exec_ms: stats.mean_exec_ms(),
        telemetry_batches: counter("infer.batches"),
        telemetry_samples: counter("infer.samples"),
    };
    let observability = EngineObservability {
        total: quantile("infer.request.total_wall_ms"),
        wait: quantile("infer.request.wait_wall_ms"),
        exec: quantile("infer.batch.exec_wall_ms"),
        trace_json,
        metrics,
    };
    (bench, observability)
}

/// How `close_and_drain` ended the overload run.
#[derive(Debug, Serialize, Deserialize)]
struct OverloadDrain {
    /// Requests still queued at close, failed with `Closed`. Must be 0
    /// here: every handle was awaited before the drain.
    failed: u64,
    timed_out: bool,
}

/// The overload scenario: open-loop arrivals at `target_multiplier`
/// times the engine's measured closed-loop throughput, a bounded queue,
/// per-request deadlines, and a graceful drain at the end.
#[derive(Debug, Serialize, Deserialize)]
struct OverloadBench {
    queue_capacity: u64,
    shed_policy: String,
    /// Per-request deadline on the engine's tick clock...
    deadline_ticks: u64,
    /// ...and its wall equivalent at the configured tick length.
    deadline_ms: f64,
    /// Latency budget for *completed* requests: deadline + collection
    /// window + batch-execution allowance. `p99_within_budget` gates
    /// the total-latency p99 against this.
    budget_ms: f64,
    target_multiplier: f64,
    offered_per_s: f64,
    /// What the pacer actually achieved (sleep granularity).
    achieved_offer_per_s: f64,
    submitted: u64,
    accepted: u64,
    completed: u64,
    /// Refused at submit time (`QueueFull`; zero under `DropOldest`).
    rejected: u64,
    /// Evicted from the bounded queue to admit a newer arrival.
    shed: u64,
    /// Deadline passed while queued; refused at drain time.
    expired: u64,
    acceptance_rate: f64,
    /// Fraction of submitted requests refused one way or another.
    shed_rate: f64,
    /// Completed requests per second of wall time — the number the
    /// regression gate compares, since it is capacity- not load-bound.
    goodput_per_s: f64,
    queue_peak: u64,
    /// End-to-end latency of completed requests.
    total: Quantiles,
    /// Queue-wait of requests that reached a batch.
    wait: Quantiles,
    p99_within_budget: bool,
    drain: OverloadDrain,
}

/// Offers requests at 2x the engine's measured closed-loop rate and
/// verifies the overload-protection invariants: the queue stays
/// bounded, excess load is shed with structured errors, completed
/// requests stay within the deadline budget, engine stats agree with
/// client-observed outcomes and telemetry, and the drain leaves nothing
/// stuck. Violations come back as hard failures.
fn bench_overload(
    plan: Arc<ExecutionPlan>,
    engine_bench: &EngineBench,
    smoke: bool,
) -> (OverloadBench, String, Vec<String>) {
    const DEADLINE_TICKS: u64 = 300;
    let config = EngineConfig {
        workers: 2,
        max_batch: 8,
        max_wait_ticks: 2,
        tick_us: 200,
        queue_capacity: 16,
        shed_policy: ShedPolicy::DropOldest,
        manual_clock: false,
    };
    let deadline_ms = DEADLINE_TICKS as f64 * config.tick_us as f64 / 1e3;
    let window_ms = config.max_wait_ticks as f64 * config.tick_us as f64 / 1e3;
    let budget_ms = deadline_ms + window_ms + (10.0 * engine_bench.mean_exec_ms).max(10.0);
    let target_multiplier = 2.0;
    let offered_per_s = target_multiplier * engine_bench.samples_per_s;
    let duration_s = if smoke { 0.6 } else { 1.5 };
    let n = ((offered_per_s * duration_s).ceil() as usize).clamp(64, 20_000);

    let session = hydronas_telemetry::session();
    let engine = Engine::start(plan, config);
    let channels = engine.plan().arch().in_channels;
    let mut handles = Vec::with_capacity(n);
    let mut rejected = 0u64;
    let t0 = Instant::now();
    for k in 0..n {
        // Absolute-schedule pacing: self-corrects for sleep overshoot,
        // so the offered rate holds on average.
        let due = Duration::from_secs_f64(k as f64 / offered_per_s);
        let now = t0.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let x = sample(channels, 40_000 + k as u64);
        match engine.submit(InferRequest::new(x).deadline_ticks(DEADLINE_TICKS)) {
            Ok(h) => handles.push(h),
            Err(InferError::QueueFull) => rejected += 1,
            Err(e) => panic!("overload submit failed: {e:?}"),
        }
    }
    let offer_elapsed = t0.elapsed().as_secs_f64();
    let (mut completed, mut shed, mut expired) = (0u64, 0u64, 0u64);
    for h in handles {
        match h.wait() {
            Ok(_) => completed += 1,
            Err(InferError::Shed) => shed += 1,
            Err(InferError::DeadlineExceeded) => expired += 1,
            Err(e) => panic!("overload request resolved unexpectedly: {e:?}"),
        }
    }
    let total_elapsed = t0.elapsed().as_secs_f64();
    let drain = engine.close_and_drain(5_000);
    let stats = engine.stats();
    drop(engine);
    let metrics = session.metrics();
    let trace_json = session.chrome_trace();
    drop(session);

    let submitted = n as u64;
    let accepted = submitted - rejected;
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    let quantile_count = |name: &str| metrics.quantiles.get(name).map_or(0, |q| q.count);
    let empty = QuantileHistogram::default().snapshot();
    let total_q = metrics
        .quantiles
        .get("infer.request.total_wall_ms")
        .cloned()
        .unwrap_or_else(|| empty.clone());
    let wait_q = metrics
        .quantiles
        .get("infer.request.wait_wall_ms")
        .cloned()
        .unwrap_or(empty);

    let mut failures = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            failures.push(format!("overload: {msg}"));
        }
    };
    check(
        stats.queue_peak <= config.queue_capacity as u64,
        format!(
            "queue peak {} exceeded capacity {}",
            stats.queue_peak, config.queue_capacity
        ),
    );
    check(
        rejected + shed + expired > 0,
        format!("{target_multiplier}x offered load produced no shedding at all"),
    );
    check(
        completed + rejected + shed + expired == submitted,
        format!(
            "request bookkeeping leaks: {completed} + {rejected} + {shed} + {expired} != {submitted}"
        ),
    );
    check(
        stats.completed == completed
            && stats.shed == shed
            && stats.expired == expired
            && stats.rejected == rejected,
        format!("engine stats disagree with client-observed outcomes: {stats:?}"),
    );
    check(
        counter("infer.shed") == shed && counter("infer.expired") == expired,
        format!(
            "telemetry counters disagree: shed {} vs {shed}, expired {} vs {expired}",
            counter("infer.shed"),
            counter("infer.expired")
        ),
    );
    check(
        total_q.count == completed,
        format!(
            "total-latency quantile covers {} requests, engine completed {completed}",
            total_q.count
        ),
    );
    check(
        quantile_count("infer.request.shed_wall_ms") == shed,
        format!(
            "shed-latency quantile covers {} requests, engine shed {shed}",
            quantile_count("infer.request.shed_wall_ms")
        ),
    );
    check(
        drain.failed == 0 && !drain.timed_out,
        format!("drain left requests stuck: {drain:?}"),
    );
    let p99_within_budget = total_q.p99 <= budget_ms;
    check(
        p99_within_budget,
        format!(
            "completed-request p99 {:.2} ms exceeds the {budget_ms:.2} ms deadline budget",
            total_q.p99
        ),
    );

    let bench = OverloadBench {
        queue_capacity: config.queue_capacity as u64,
        shed_policy: "drop_oldest".to_string(),
        deadline_ticks: DEADLINE_TICKS,
        deadline_ms,
        budget_ms,
        target_multiplier,
        offered_per_s,
        achieved_offer_per_s: submitted as f64 / offer_elapsed,
        submitted,
        accepted,
        completed,
        rejected,
        shed,
        expired,
        acceptance_rate: accepted as f64 / submitted as f64,
        shed_rate: (rejected + shed + expired) as f64 / submitted as f64,
        goodput_per_s: completed as f64 / total_elapsed,
        queue_peak: stats.queue_peak,
        total: Quantiles::from_snapshot(&total_q),
        wait: Quantiles::from_snapshot(&wait_q),
        p99_within_budget,
        drain: OverloadDrain {
            failed: drain.failed,
            timed_out: drain.timed_out,
        },
    };
    (bench, trace_json, failures)
}

/// Runs the surrogate sweep, then measures engine latency for *every*
/// Pareto-front model and compares against the predictor's mean-device
/// estimate.
fn bench_pareto(
    sweep_trials: usize,
    reps: usize,
) -> (ParetoValidation, hydronas_graph::ArchConfig) {
    let trials: Vec<_> = full_grid(&SearchSpace::paper())
        .into_iter()
        .take(sweep_trials)
        .collect();
    let config = SchedulerConfig {
        injected_failures: 0,
        ..Default::default()
    };
    let db = run_experiment(&trials, &SurrogateEvaluator::default(), &config);
    let front = db.pareto_outcomes();
    assert!(!front.is_empty(), "sweep produced an empty Pareto front");

    let mut rows = Vec::with_capacity(front.len());
    let mut fastest: Option<(f64, hydronas_graph::ArchConfig)> = None;
    for outcome in &front {
        let arch = outcome.spec.arch;
        let plan = plan_for(&arch);
        let x = sample(arch.in_channels, 29);
        let t = time_median(reps, || {
            let _ = plan.run_single(&x);
        });
        let measured_ms = t * 1e3;
        eprintln!(
            "  trial {:>3} {}: predicted {:>7.2} ms, measured {:>7.2} ms",
            outcome.spec.id,
            outcome.spec.key(),
            outcome.latency_ms,
            measured_ms
        );
        rows.push(ParetoRow {
            trial: outcome.spec.id as u64,
            arch: outcome.spec.key(),
            predicted_ms: outcome.latency_ms,
            measured_ms,
            ratio: measured_ms / outcome.latency_ms,
        });
        // `Option::is_none_or` needs rust 1.82; the workspace MSRV is 1.75.
        #[allow(clippy::unnecessary_map_or)]
        if fastest
            .as_ref()
            .map_or(true, |(best, _)| outcome.latency_ms < *best)
        {
            fastest = Some((outcome.latency_ms, arch));
        }
    }
    let ratio_min = rows.iter().map(|r| r.ratio).fold(f64::INFINITY, f64::min);
    let ratio_max = rows.iter().map(|r| r.ratio).fold(0.0, f64::max);
    let validation = ParetoValidation {
        sweep_trials: trials.len() as u64,
        models: rows.len() as u64,
        ratio_min,
        ratio_max,
        rows,
    };
    (validation, fastest.expect("front is non-empty").1)
}

/// Applies the regression gate: every throughput must hold at least
/// [`GATE_FRACTION`] of the committed baseline, and every gated tail
/// latency must stay below `baseline / GATE_FRACTION` (the same 25%
/// headroom, applied to a lower-is-better number).
fn check_gate(current: &Report, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read gate baseline {baseline_path}: {e}"))?;
    let baseline: Report = serde_json::from_str(&text)
        .map_err(|e| format!("gate baseline {baseline_path} is not a serve report: {e:?}"))?;
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
    let base_tails = baseline.tail_latencies();
    for (name, now) in current.tail_latencies() {
        let Some((_, before)) = base_tails.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let limit = before / GATE_FRACTION;
        eprintln!("gate {name}: {now:.2} ms vs baseline {before:.2} ms (limit {limit:.2} ms)");
        if now > limit {
            failures.push(format!(
                "{name} regressed to {now:.2} ms (baseline {before:.2} ms, limit {limit:.2} ms)"
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
    let mut out_path: Option<String> = None;
    let mut gate_path: Option<String> = None;
    let mut slo_p99_ms: Option<f64> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut overload = false;
    let mut overload_trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = Some(args.next().expect("--out requires a path")),
            "--gate" => gate_path = Some(args.next().expect("--gate requires a path")),
            "--slo-p99-ms" => {
                let value = args.next().expect("--slo-p99-ms requires a number");
                slo_p99_ms = Some(
                    value
                        .parse::<f64>()
                        .unwrap_or_else(|e| panic!("--slo-p99-ms {value}: {e}")),
                );
            }
            "--trace" => trace_path = Some(args.next().expect("--trace requires a path")),
            "--metrics" => metrics_path = Some(args.next().expect("--metrics requires a path")),
            "--overload" => overload = true,
            "--overload-trace" => {
                overload_trace_path = Some(args.next().expect("--overload-trace requires a path"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: serve [--smoke] [--out PATH] [--gate BASELINE.json] \
                     [--slo-p99-ms N] [--trace PATH] [--metrics PATH] \
                     [--overload] [--overload-trace PATH]"
                );
                return ExitCode::from(2);
            }
        }
    }
    let default_out = if smoke {
        "BENCH_serve_smoke.json"
    } else {
        "BENCH_serve.json"
    };
    let out_path = out_path.unwrap_or_else(|| default_out.to_string());
    // Smoke trims repetitions and per-client request counts only: the
    // sweep (and therefore the deployment model) and the engine's batch
    // shape stay identical to a full run, so smoke throughputs can be
    // gated against the committed full-mode baseline.
    let (reps, sweep_trials, clients, per_client, dist_n) = if smoke {
        (5, 288, 8, 4, 100)
    } else {
        (11, 288, 8, 8, 300)
    };

    eprintln!("sweeping {sweep_trials} trials and validating the Pareto front ({reps} reps)...");
    let (pareto, deploy_arch) = bench_pareto(sweep_trials, reps);
    eprintln!(
        "  {} front models, measured/predicted ratio {:.2}..{:.2}",
        pareto.models, pareto.ratio_min, pareto.ratio_max
    );

    let mut deploy_model = model_for(&deploy_arch);
    let plan = Arc::new(
        ExecutionPlan::builder(&deploy_model)
            .build()
            .expect("fp32 plan needs no quantization scheme"),
    );
    let arch_label = format!(
        "k{}s{}p{}f{}{}",
        deploy_arch.kernel_size,
        deploy_arch.stride,
        deploy_arch.padding,
        deploy_arch.initial_features,
        match deploy_arch.pool {
            Some(p) => format!("-pool{}s{}", p.kernel, p.stride),
            None => String::from("-nopool"),
        }
    );
    eprintln!("timing per-sample eval-forward baseline ({reps} reps)...");
    let baseline_eval = bench_baseline(&mut deploy_model, deploy_arch.in_channels, reps);
    eprintln!(
        "  {:.3} ms ({:.1} samples/s) on {arch_label}",
        baseline_eval.latency_ms, baseline_eval.samples_per_s
    );
    eprintln!("timing single-stream plan latency ({reps} reps)...");
    let single_stream = bench_single(&plan, arch_label, reps);
    eprintln!(
        "  {:.3} ms ({:.1} samples/s)",
        single_stream.latency_ms, single_stream.samples_per_s
    );
    eprintln!("timing whole-batch execution ({reps} reps)...");
    let batched = bench_batch_curve(&plan, &baseline_eval, &single_stream, reps);
    for p in &batched.curve {
        eprintln!(
            "  batch {:>2}: {:.3} ms ({:.1} samples/s)",
            p.batch, p.ms_per_batch, p.samples_per_s
        );
    }
    eprintln!(
        "  best batch {}: {:.2}x eval baseline, {:.2}x plan single-stream",
        batched.batch, batched.speedup_vs_eval_baseline, batched.speedup_vs_single_stream
    );
    eprintln!("training the deployment model and timing int8 vs fp32 execution ({reps} reps)...");
    let int8 = bench_int8(&deploy_arch, reps);
    eprintln!(
        "  {:.2}x smaller, fp32 {:.3} ms vs int8 {:.3} ms ({:.2}x), max logit delta {:.4}",
        int8.compression, int8.fp32_ms, int8.int8_ms, int8.speedup_vs_fp32, int8.max_logit_delta
    );
    eprintln!(
        "  accuracy fp32 {:.4} vs int8 {:.4} (drop {:+.4}) on {} eval tiles",
        int8.fp32_accuracy, int8.int8_accuracy, int8.accuracy_drop, int8.eval_tiles
    );
    eprintln!("driving the batching engine ({clients} clients x {per_client} requests)...");
    let (engine, observability) = bench_engine(Arc::clone(&plan), clients, per_client);
    eprintln!(
        "  {} requests in {} batches (mean {:.2}, max {}), {:.1} samples/s",
        engine.requests,
        engine.batches,
        engine.mean_batch,
        engine.max_batch_observed,
        engine.samples_per_s
    );
    eprintln!(
        "  queue peak {}, mean wait {:.3} ms, mean exec {:.3} ms",
        engine.queue_peak, engine.mean_wait_ms, engine.mean_exec_ms
    );
    let mut overload_failures = Vec::new();
    let mut overload_trace = None;
    let overload_bench = if overload {
        let offered = 2.0 * engine.samples_per_s;
        eprintln!(
            "driving the overload scenario ({offered:.0} offered requests/s, 2x capacity)..."
        );
        let (bench, trace, failures) = bench_overload(Arc::clone(&plan), &engine, smoke);
        eprintln!(
            "  {} submitted: {} completed, {} shed, {} expired, {} rejected (shed rate {:.0}%)",
            bench.submitted,
            bench.completed,
            bench.shed,
            bench.expired,
            bench.rejected,
            bench.shed_rate * 100.0
        );
        eprintln!(
            "  queue peak {}/{}, goodput {:.1}/s, total p99 {:.2} ms (budget {:.2} ms), drain {:?}",
            bench.queue_peak,
            bench.queue_capacity,
            bench.goodput_per_s,
            bench.total.p99_ms,
            bench.budget_ms,
            bench.drain
        );
        overload_failures = failures;
        overload_trace = Some(trace);
        Some(bench)
    } else {
        None
    };
    eprintln!("measuring single-stream latency distribution ({dist_n} samples)...");
    let latency = LatencyDistribution {
        single_stream: single_stream_distribution(&plan, dist_n),
        engine_total: Quantiles::from_snapshot(&observability.total),
        engine_wait: Quantiles::from_snapshot(&observability.wait),
        engine_exec: Quantiles::from_snapshot(&observability.exec),
    };
    eprintln!(
        "  single-stream p50/p99 {:.3}/{:.3} ms, engine total p50/p99 {:.3}/{:.3} ms",
        latency.single_stream.p50_ms,
        latency.single_stream.p99_ms,
        latency.engine_total.p50_ms,
        latency.engine_total.p99_ms
    );
    eprintln!("profiling per-layer costs (batch 8)...");
    let profile_input = batch_of(deploy_arch.in_channels, 8, 27);
    let (_, layer_profile) = plan.profile_batch(&profile_input);
    for layer in &layer_profile.layers {
        eprintln!(
            "  {:<16} {:>8.3} ms {:>5.1}% {:>12} flops",
            layer.name, layer.wall_ms, layer.pct, layer.flops
        );
    }

    let report = Report {
        schema: "hydronas-bench-serve/v5".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        avx2_fma: avx2_fma(),
        compute_threads: hydronas_tensor::compute_threads() as u64,
        baseline_eval,
        single_stream,
        batched,
        int8,
        engine,
        latency,
        layer_profile,
        pareto,
        overload: overload_bench,
    };

    // The structural claims are hard failures, not just numbers in a file.
    let mut failed = overload_failures;
    if report.batched.speedup_vs_eval_baseline < 2.0 {
        failed.push(format!(
            "batched throughput is only {:.2}x the per-sample eval baseline (must be >= 2x)",
            report.batched.speedup_vs_eval_baseline
        ));
    }
    if report.batched.speedup_vs_single_stream < 1.0 {
        failed.push(format!(
            "batching made the compiled plan slower ({:.2}x its own batch=1 rate)",
            report.batched.speedup_vs_single_stream
        ));
    }
    if report.int8.compression < 3.0 {
        failed.push(format!(
            "int8 compression {:.2}x is below the required 3x",
            report.int8.compression
        ));
    }
    if report.int8.accuracy_drop > 0.005 {
        failed.push(format!(
            "int8 eval accuracy dropped {:.4} vs fp32 (must be <= 0.005)",
            report.int8.accuracy_drop
        ));
    }
    if !report.int8.max_logit_delta.is_finite() || report.int8.max_logit_delta > 5.0 {
        failed.push(format!(
            "int8 logits drifted {:.4} from fp32 (must stay finite and < 5)",
            report.int8.max_logit_delta
        ));
    }
    if report.int8.int8_activation_bytes >= report.int8.fp32_activation_bytes {
        failed.push(format!(
            "int8 activation footprint {} B did not shrink below fp32's {} B",
            report.int8.int8_activation_bytes, report.int8.fp32_activation_bytes
        ));
    }
    if report.engine.telemetry_samples != report.engine.requests
        || report.engine.telemetry_batches != report.engine.batches
    {
        failed.push(format!(
            "telemetry disagrees with engine stats ({}/{} samples, {}/{} batches)",
            report.engine.telemetry_samples,
            report.engine.requests,
            report.engine.telemetry_batches,
            report.engine.batches
        ));
    }
    if report.engine.max_batch_observed < 2 {
        failed.push("engine never formed a batch from concurrent clients".to_string());
    }
    if report.pareto.models == 0 {
        failed.push("no Pareto-front models were validated".to_string());
    }
    if report.pareto.rows.iter().any(|r| r.measured_ms <= 0.0) {
        failed.push("a Pareto-front model measured non-positive latency".to_string());
    }
    if report.latency.engine_total.count != report.engine.requests {
        failed.push(format!(
            "latency distribution covers {} requests but the engine served {}",
            report.latency.engine_total.count, report.engine.requests
        ));
    }
    if report.layer_profile.layers.is_empty()
        || report.layer_profile.layers.first().map(|l| l.name.as_str()) != Some("stem")
        || report.layer_profile.layers.last().map(|l| l.name.as_str()) != Some("fc")
        || !report.layer_profile.layers.iter().any(|l| l.flops > 0)
    {
        failed.push("layer profile is missing layers or FLOP attribution".to_string());
    }
    // The trace must link each request's lifecycle across threads: flow
    // arrows ("s"/"f") and the async envelope ("b"/"e") must be present.
    for ph in [
        "\"ph\": \"b\"",
        "\"ph\": \"e\"",
        "\"ph\": \"s\"",
        "\"ph\": \"f\"",
    ] {
        if !observability.trace_json.contains(ph) {
            failed.push(format!("engine trace is missing {ph} flow events"));
        }
    }

    if let Some(path) = gate_path {
        if let Err(msg) = check_gate(&report, &path) {
            failed.push(msg);
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");
    if let Some(path) = &trace_path {
        std::fs::write(path, &observability.trace_json).expect("write trace");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &metrics_path {
        let json = serde_json::to_string_pretty(&observability.metrics).expect("metrics serialize");
        std::fs::write(path, json + "\n").expect("write metrics");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &overload_trace_path {
        let trace = overload_trace
            .as_ref()
            .expect("--overload-trace requires --overload");
        std::fs::write(path, trace).expect("write overload trace");
        eprintln!("wrote {path}");
    }

    if let Some(slo) = slo_p99_ms {
        let p99 = report.latency.engine_total.p99_ms;
        eprintln!("slo: engine p99 {p99:.2} ms vs threshold {slo:.2} ms");
        if p99 > slo {
            failed.push(format!(
                "SLO violation: engine p99 latency {p99:.2} ms exceeds --slo-p99-ms {slo:.2}"
            ));
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
