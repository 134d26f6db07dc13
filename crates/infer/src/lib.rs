//! # hydronas-infer
//!
//! The serving side of the HydroNAS workspace: compile a trained
//! [`hydronas_nn::ResNet`] into an immutable [`ExecutionPlan`] (conv+BN
//! folding into fused per-row bias/ReLU GEMM epilogues, or calibrated int8
//! execution) and serve it through a multi-threaded batching [`Engine`]
//! that aggregates concurrent requests into stacked forward passes over one
//! `Arc`-shared plan.
//!
//! The paper's deliverable is a deployment model — Pareto-selected CNNs
//! classifying drainage crossings on resource-limited devices — and this
//! crate closes the search→serve gap: the same architecture the NAS sweep
//! scored with the latency predictor and the quantized-memory objective
//! can now actually run behind a request front-end, with telemetry on the
//! hot path and measured latency to validate the predictor against.
//!
//! ## Quick example
//!
//! ```
//! use hydronas_infer::{Engine, EngineConfig, ExecutionPlan};
//! use hydronas_nn::ResNet;
//! use hydronas_tensor::TensorRng;
//! use std::sync::Arc;
//!
//! let mut arch = hydronas_graph::ArchConfig::baseline(5);
//! arch.initial_features = 4; // tiny for doc-test speed
//! let mut rng = TensorRng::seed_from_u64(0);
//! let model = ResNet::new(&arch, &mut rng);
//!
//! let plan = Arc::new(ExecutionPlan::builder(&model).build().unwrap());
//! let engine = Engine::start(plan, EngineConfig::default());
//! let x = hydronas_tensor::uniform(&[5, 16, 16], -1.0, 1.0, &mut rng);
//! let prediction = engine.infer(x).unwrap();
//! assert_eq!(prediction.logits.len(), 2);
//! ```
//!
//! For true int8 serving, calibrate a quantized plan through the builder:
//!
//! ```
//! use hydronas_graph::CalibrationMethod;
//! use hydronas_infer::{ExecutionPlan, Numerics, QuantizationScheme};
//! use hydronas_nn::ResNet;
//! use hydronas_tensor::TensorRng;
//!
//! let mut arch = hydronas_graph::ArchConfig::baseline(5);
//! arch.initial_features = 4;
//! let mut rng = TensorRng::seed_from_u64(0);
//! let model = ResNet::new(&arch, &mut rng);
//! let batch = hydronas_tensor::uniform(&[2, 5, 16, 16], -1.0, 1.0, &mut rng);
//!
//! let plan = ExecutionPlan::builder(&model)
//!     .numerics(Numerics::QuantizedInt8)
//!     .quantization(
//!         QuantizationScheme::per_channel().calibrate(CalibrationMethod::MinMax, &batch),
//!     )
//!     .build()
//!     .unwrap();
//! assert!(plan.weight_bytes() > 0);
//! ```

mod engine;
mod plan;

pub use engine::{
    DrainStats, Engine, EngineConfig, EngineConfigBuilder, EngineStats, InferError, InferRequest,
    Prediction, PredictionHandle, RetryConfig, ShedPolicy,
};
pub use plan::{ExecutionPlan, LayerCost, LayerProfile, Numerics, PlanBuilder, QuantizationScheme};

#[cfg(test)]
mod tests {
    use super::*;
    use hydronas_graph::{ArchConfig, CalibrationMethod, PoolConfig};
    use hydronas_nn::ResNet;
    use hydronas_tensor::{approx_eq, uniform, Tensor, TensorRng};
    use std::sync::Arc;

    fn tiny_arch() -> ArchConfig {
        ArchConfig {
            in_channels: 5,
            kernel_size: 3,
            stride: 2,
            padding: 1,
            pool: None,
            initial_features: 4,
            num_classes: 2,
        }
    }

    fn pooled_arch() -> ArchConfig {
        ArchConfig {
            in_channels: 3,
            kernel_size: 7,
            stride: 2,
            padding: 3,
            pool: Some(PoolConfig {
                kernel: 3,
                stride: 2,
            }),
            initial_features: 8,
            num_classes: 4,
        }
    }

    /// A model with non-trivial BN running stats (one train step's worth).
    fn warmed_model(arch: &ArchConfig, seed: u64) -> ResNet {
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut model = ResNet::new(arch, &mut rng);
        let warm = uniform(&[4, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
        let _ = model.forward(&warm, true);
        model
    }

    #[test]
    fn exact_plan_is_bit_identical_to_forward_eval() {
        for (seed, arch) in [tiny_arch(), pooled_arch()].into_iter().enumerate() {
            let model = warmed_model(&arch, seed as u64 + 1);
            let plan = ExecutionPlan::builder(&model)
                .numerics(Numerics::Exact)
                .build()
                .unwrap();
            let mut rng = TensorRng::seed_from_u64(99);
            let x = uniform(&[3, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
            assert_eq!(plan.run_batch(&x), model.forward_eval(&x), "arch {arch:?}");
        }
    }

    #[test]
    fn fused_plan_matches_forward_eval_within_tolerance() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 7);
        let plan = ExecutionPlan::builder(&model).build().unwrap();
        let mut rng = TensorRng::seed_from_u64(42);
        let x = uniform(&[4, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
        let fused = plan.run_batch(&x);
        let reference = model.forward_eval(&x);
        for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!(approx_eq(*a, *b, 1e-3), "{a} vs {b}");
        }
    }

    #[test]
    fn batched_rows_are_bit_identical_to_single_runs() {
        // pooled_arch's deep stages hit the GEMM small/packed divergence
        // zone (k = 8·initial_features·9 > 256 with tiny column counts),
        // exactly where a dispatching kernel would change bits with batch
        // size — the Fused path must hold its always-packed contract there.
        for (arch, seed) in [(tiny_arch(), 11u64), (pooled_arch(), 12u64)] {
            let model = warmed_model(&arch, seed);
            for numerics in [Numerics::Exact, Numerics::Fused] {
                let plan = ExecutionPlan::builder(&model)
                    .numerics(numerics)
                    .build()
                    .unwrap();
                let mut rng = TensorRng::seed_from_u64(5);
                let batch = uniform(&[3, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
                let batched = plan.run_batch(&batch);
                let dims = batch.dims();
                let sample = dims[1] * dims[2] * dims[3];
                for i in 0..dims[0] {
                    let single = Tensor::from_vec(
                        batch.as_slice()[i * sample..(i + 1) * sample].to_vec(),
                        &[dims[1], dims[2], dims[3]],
                    );
                    let classes = batched.dims()[1];
                    assert_eq!(
                        plan.run_single(&single),
                        batched.as_slice()[i * classes..(i + 1) * classes].to_vec(),
                        "row {i} under {numerics:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn int8_quantize_dequantize_forward_eval_parity() {
        // The satellite contract straight through the nn model: replace
        // every weight by its quantize→dequantize image and compare
        // forward_eval logits against fp32 on a seeded batch.
        let arch = tiny_arch();
        let model = warmed_model(&arch, 17);
        let mut rng = TensorRng::seed_from_u64(23);
        let x = uniform(&[4, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
        let reference = model.forward_eval(&x);

        let mut quantized = warmed_model(&arch, 17);
        use hydronas_nn::ParamVisitor;
        quantized.visit_params(&mut |p| {
            let q = hydronas_graph::quantize_tensor(p.value.as_slice());
            let back = q.dequantize();
            p.value.as_mut_slice().copy_from_slice(&back);
        });
        let logits = quantized.forward_eval(&x);
        let mut worst = 0.0f32;
        for (a, b) in logits.as_slice().iter().zip(reference.as_slice()) {
            worst = worst.max((a - b).abs());
        }
        assert!(worst < 0.1, "worst logit delta {worst}");
        assert_eq!(logits.argmax_rows(), reference.argmax_rows());
    }

    #[test]
    fn engine_batch_of_one_is_bit_identical_to_forward_eval() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 19);
        let plan = Arc::new(
            ExecutionPlan::builder(&model)
                .numerics(Numerics::Exact)
                .build()
                .unwrap(),
        );
        let engine = Engine::start(
            plan,
            EngineConfig {
                workers: 1,
                max_batch: 1, // forces batch=1 execution
                max_wait_ticks: 0,
                tick_us: 50,
                ..EngineConfig::default()
            },
        );
        let mut rng = TensorRng::seed_from_u64(31);
        for _ in 0..4 {
            let x = uniform(&[arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
            let dims = x.dims();
            let batched = Tensor::from_vec(x.as_slice().to_vec(), &[1, dims[0], dims[1], dims[2]]);
            let expected = model.forward_eval(&batched);
            let got = engine.infer(x).unwrap();
            assert_eq!(got.batch_size, 1);
            assert_eq!(got.logits, expected.as_slice().to_vec());
            assert_eq!(got.class, expected.argmax_rows()[0]);
        }
    }

    #[test]
    fn concurrent_clients_get_correct_results_and_batches_form() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 23);
        let plan = Arc::new(ExecutionPlan::builder(&model).build().unwrap());
        let engine = Arc::new(Engine::start(
            Arc::clone(&plan),
            EngineConfig {
                workers: 2,
                max_batch: 4,
                max_wait_ticks: 4,
                tick_us: 500,
                ..EngineConfig::default()
            },
        ));
        let mut rng = TensorRng::seed_from_u64(37);
        let inputs: Vec<Tensor> = (0..12)
            .map(|_| uniform(&[arch.in_channels, 32, 32], -1.0, 1.0, &mut rng))
            .collect();
        let expected: Vec<Vec<f32>> = inputs.iter().map(|x| plan.run_single(x)).collect();

        let handles: Vec<_> = inputs
            .iter()
            .map(|x| {
                let engine = Arc::clone(&engine);
                let x = x.clone();
                std::thread::spawn(move || engine.infer(x).unwrap())
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let got = h.join().unwrap();
            assert_eq!(got.logits, expected[i], "request {i}");
            assert!(got.batch_size >= 1 && got.batch_size <= 4);
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 12);
        assert_eq!(stats.batched_samples, 12);
        // With 12 co-arriving requests and max_batch 4, at least one
        // worker must have stacked a multi-sample batch.
        assert!(stats.batches < 12, "no batching happened: {stats:?}");
        assert!(stats.max_batch_observed >= 2);
    }

    /// Regression test: with several workers, one worker can drain the
    /// queue while another is still inside its collection window; the
    /// loser used to execute an *empty* batch and panic in
    /// `Tensor::stack`, silently killing the worker thread. Bursty
    /// traffic over two workers makes the window collision overwhelmingly
    /// likely; every request must still be answered and accounted for.
    #[test]
    fn racing_workers_never_execute_empty_batches() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 43);
        let plan = Arc::new(ExecutionPlan::builder(&model).build().unwrap());
        let engine = Arc::new(Engine::start(
            plan,
            EngineConfig {
                workers: 2,
                max_batch: 4,
                max_wait_ticks: 2,
                tick_us: 100,
                ..EngineConfig::default()
            },
        ));
        let clients = 6;
        let per_client = 4;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut rng = TensorRng::seed_from_u64(100 + c as u64);
                    for _ in 0..per_client {
                        let x = uniform(&[5, 16, 16], -1.0, 1.0, &mut rng);
                        engine.infer(x).expect("no worker may die mid-run");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, (clients * per_client) as u64);
        assert_eq!(stats.batched_samples, stats.requests);
    }

    #[test]
    fn engine_rejects_bad_shapes_and_closes_cleanly() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 29);
        let plan = Arc::new(ExecutionPlan::builder(&model).build().unwrap());
        let engine = Engine::start(plan, EngineConfig::default());
        // Wrong channel count.
        let bad = Tensor::zeros(&[2, 8, 8]);
        match engine.submit(bad) {
            Err(InferError::InputShape {
                expected_channels, ..
            }) => assert_eq!(expected_channels, 5),
            other => panic!("expected shape error, got {other:?}"),
        }
        // Wrong rank.
        assert!(engine.submit(Tensor::zeros(&[1, 5, 8, 8])).is_err());
        engine.close();
        let late = engine.submit(Tensor::zeros(&[5, 8, 8]));
        assert_eq!(late.unwrap_err(), InferError::Closed);
    }

    #[test]
    fn profile_batch_is_bit_identical_to_run_batch() {
        // Profiling and serving share one forward walk; this test is the
        // guard that the timer observer never changes what it observes.
        for (arch, seed) in [(tiny_arch(), 51u64), (pooled_arch(), 52u64)] {
            let model = warmed_model(&arch, seed);
            // hydrobench's `layer.*` metrics key on these names, so they
            // are pinned exactly and must not depend on the numerics.
            let mut expected_names = vec!["stem".to_string()];
            if model.stem_pool().is_some() {
                expected_names.push("stem.pool".to_string());
            }
            for (i, block) in model.blocks().iter().enumerate() {
                expected_names.push(format!("block{i}.conv1"));
                expected_names.push(format!("block{i}.conv2"));
                if block.downsample().is_some() {
                    expected_names.push(format!("block{i}.proj"));
                }
                expected_names.push(format!("block{i}.add_relu"));
            }
            expected_names.push("global_avg_pool".to_string());
            expected_names.push("fc".to_string());
            for numerics in [Numerics::Exact, Numerics::Fused, Numerics::QuantizedInt8] {
                let plan = match numerics {
                    Numerics::QuantizedInt8 => {
                        quantized_plan(&model, &calibration_batch(&arch, seed + 100))
                    }
                    _ => ExecutionPlan::builder(&model)
                        .numerics(numerics)
                        .build()
                        .unwrap(),
                };
                let mut rng = TensorRng::seed_from_u64(53);
                let x = uniform(&[3, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
                let expected = plan.run_batch(&x);
                let (got, profile) = plan.profile_batch(&x);
                assert_eq!(got, expected, "under {numerics:?}");
                assert_eq!(profile.batch, 3);
                let names: Vec<&str> = profile.layers.iter().map(|l| l.name.as_str()).collect();
                assert_eq!(names.first(), Some(&"stem"));
                assert_eq!(names.last(), Some(&"fc"));
                assert!(names.contains(&"block0.conv1"));
                assert!(names.contains(&"global_avg_pool"));
                assert_eq!(names, expected_names, "under {numerics:?}");
                // pooled_arch has a stem pool; tiny_arch does not.
                assert_eq!(names.contains(&"stem.pool"), arch.pool.is_some());
                // Conv layers carry FLOPs, and percentages sum to ~100.
                let stem = &profile.layers[0];
                assert!(stem.flops > 0, "stem FLOPs missing under {numerics:?}");
                let pct_sum: f64 = profile.layers.iter().map(|l| l.pct).sum();
                assert!((pct_sum - 100.0).abs() < 1e-6, "pct sum {pct_sum}");
                assert!(profile.total_wall_ms >= 0.0);
            }
        }
    }

    #[test]
    fn profile_works_inside_a_caller_session_without_polluting_counts() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 57);
        let plan = ExecutionPlan::builder(&model).build().unwrap();
        let mut rng = TensorRng::seed_from_u64(58);
        let x = uniform(&[2, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
        let session = hydronas_telemetry::session();
        let (_, profile) = plan.profile_batch(&x);
        assert!(profile.layers.iter().any(|l| l.flops > 0));
        // The caller's session stays active and keeps the op counters.
        assert!(hydronas_telemetry::enabled());
        let m = session.metrics();
        assert!(m.counters.keys().any(|k| k.ends_with(".flops")));
    }

    #[test]
    fn stats_track_wait_exec_and_queue_peak() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 61);
        let plan = Arc::new(ExecutionPlan::builder(&model).build().unwrap());
        let engine = Engine::start(
            plan,
            EngineConfig {
                workers: 1,
                max_batch: 1,
                max_wait_ticks: 0,
                tick_us: 50,
                ..EngineConfig::default()
            },
        );
        let mut rng = TensorRng::seed_from_u64(62);
        for _ in 0..3 {
            let x = uniform(&[arch.in_channels, 16, 16], -1.0, 1.0, &mut rng);
            engine.infer(x).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 3);
        assert!(stats.queue_peak >= 1, "{stats:?}");
        assert!(stats.exec_us_total > 0, "{stats:?}");
        assert!(stats.mean_exec_ms() > 0.0);
        assert!(stats.mean_wait_ms() >= 0.0);
    }

    #[test]
    fn plan_weight_bytes_track_parameter_count() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 41);
        let plan = ExecutionPlan::builder(&model).build().unwrap();
        // Fused fp32: 4 bytes per conv/fc weight scalar + 4 per folded bias
        // and fc bias scalar. That must cover at least every model weight.
        assert!(plan.weight_bytes() >= 4 * 9 * 4 * 5, "stem weights missing");
        assert_eq!(plan.arch(), &arch);
        assert_eq!(plan.numerics(), Numerics::Fused);
    }

    /// Seeded calibration batch for quantized-plan tests.
    fn calibration_batch(arch: &ArchConfig, seed: u64) -> Tensor {
        let mut rng = TensorRng::seed_from_u64(seed);
        uniform(&[4, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng)
    }

    /// Bounds the int8-vs-fp32 logit drift and checks argmax agreement on
    /// every row whose fp32 top-2 margin comfortably exceeds the drift —
    /// quantization can only legitimately flip a decision when the margin
    /// is inside the perturbation. (The ≤0.5% *accuracy* contract runs on
    /// a trained model in the workspace-level quantized-serving test;
    /// these models are untrained, so raw argmax equality would test
    /// noise.)
    fn assert_quantization_agreement(fp32: &Tensor, int8: &Tensor, delta_bound: f32) {
        let classes = fp32.dims()[1];
        let mut worst = 0.0f32;
        for (p, q) in fp32.as_slice().iter().zip(int8.as_slice()) {
            worst = worst.max((p - q).abs());
        }
        assert!(worst < delta_bound, "worst logit delta {worst}");
        for (i, (f, q)) in fp32
            .argmax_rows()
            .iter()
            .zip(&int8.argmax_rows())
            .enumerate()
        {
            let row = &fp32.as_slice()[i * classes..(i + 1) * classes];
            let mut sorted = row.to_vec();
            sorted.sort_by(f32::total_cmp);
            let margin = sorted[classes - 1] - sorted[classes - 2];
            if margin > 2.0 * worst {
                assert_eq!(f, q, "row {i} flipped despite fp32 margin {margin}");
            }
        }
    }

    fn quantized_plan(model: &ResNet, batch: &Tensor) -> ExecutionPlan {
        ExecutionPlan::builder(model)
            .numerics(Numerics::QuantizedInt8)
            .quantization(
                QuantizationScheme::per_channel().calibrate(CalibrationMethod::MinMax, batch),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_invalid_quantization_setups() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 71);
        let batch = calibration_batch(&arch, 72);
        let reason = |r: Result<ExecutionPlan, InferError>| match r {
            Err(InferError::InvalidQuantization { reason }) => reason,
            Ok(_) => panic!("expected InvalidQuantization, got a plan"),
            Err(other) => panic!("expected InvalidQuantization, got {other:?}"),
        };
        // Quantized numerics without a scheme.
        let r = reason(
            ExecutionPlan::builder(&model)
                .numerics(Numerics::QuantizedInt8)
                .build(),
        );
        assert!(r.contains("QuantizationScheme"), "{r}");
        // A scheme that was never calibrated.
        let r = reason(
            ExecutionPlan::builder(&model)
                .numerics(Numerics::QuantizedInt8)
                .quantization(QuantizationScheme::per_channel())
                .build(),
        );
        assert!(r.contains("calibrat"), "{r}");
        // A scheme attached to f32 numerics.
        let r = reason(
            ExecutionPlan::builder(&model)
                .quantization(
                    QuantizationScheme::per_channel().calibrate(CalibrationMethod::MinMax, &batch),
                )
                .build(),
        );
        assert!(r.contains("QuantizedInt8"), "{r}");
        // An out-of-range percentile.
        let r = reason(
            ExecutionPlan::builder(&model)
                .numerics(Numerics::QuantizedInt8)
                .quantization(
                    QuantizationScheme::per_channel()
                        .calibrate(CalibrationMethod::Percentile(1.5), &batch),
                )
                .build(),
        );
        assert!(r.contains("percentile"), "{r}");
        // A calibration batch with the wrong channel count.
        let bad = Tensor::zeros(&[2, arch.in_channels + 1, 16, 16]);
        let r = reason(
            ExecutionPlan::builder(&model)
                .numerics(Numerics::QuantizedInt8)
                .quantization(
                    QuantizationScheme::per_channel().calibrate(CalibrationMethod::MinMax, &bad),
                )
                .build(),
        );
        assert!(r.contains("channels"), "{r}");
        // A calibration batch that is not NCHW.
        let flat = Tensor::zeros(&[arch.in_channels, 16, 16]);
        let r = reason(
            ExecutionPlan::builder(&model)
                .numerics(Numerics::QuantizedInt8)
                .quantization(
                    QuantizationScheme::per_channel().calibrate(CalibrationMethod::MinMax, &flat),
                )
                .build(),
        );
        assert!(r.contains("NCHW"), "{r}");
        // The error Displays with context.
        let err = InferError::InvalidQuantization {
            reason: "xyz".to_string(),
        };
        assert!(err.to_string().contains("invalid quantization: xyz"));
    }

    #[test]
    fn quantized_plan_tracks_fp32_and_shrinks_weights() {
        for (arch, seed) in [(tiny_arch(), 81u64), (pooled_arch(), 82u64)] {
            let model = warmed_model(&arch, seed);
            let batch = calibration_batch(&arch, seed + 100);
            let fp32 = ExecutionPlan::builder(&model).build().unwrap();
            let int8 = quantized_plan(&model, &batch);
            assert_eq!(int8.numerics(), Numerics::QuantizedInt8);
            // True int8 storage: ~4x smaller than the fp32 plan (biases and
            // per-channel scales keep it under exactly 4).
            let ratio = fp32.weight_bytes() as f64 / int8.weight_bytes() as f64;
            assert!((3.0..4.2).contains(&ratio), "ratio {ratio} for {arch:?}");

            let mut rng = TensorRng::seed_from_u64(seed + 200);
            let x = uniform(&[4, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
            let a = fp32.run_batch(&x);
            let b = int8.run_batch(&x);
            assert_quantization_agreement(&a, &b, 0.8);
        }
    }

    #[test]
    fn quantized_rows_are_bit_identical_to_single_runs() {
        // Static calibration scales mean batch composition cannot leak into
        // per-sample results; integer kernels make each sample exact.
        let arch = pooled_arch();
        let model = warmed_model(&arch, 83);
        let batch = calibration_batch(&arch, 84);
        let plan = quantized_plan(&model, &batch);
        let mut rng = TensorRng::seed_from_u64(85);
        let x = uniform(&[3, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
        let batched = plan.run_batch(&x);
        let dims = x.dims();
        let sample = dims[1] * dims[2] * dims[3];
        let classes = batched.dims()[1];
        for i in 0..dims[0] {
            let single = Tensor::from_vec(
                x.as_slice()[i * sample..(i + 1) * sample].to_vec(),
                &[dims[1], dims[2], dims[3]],
            );
            assert_eq!(
                plan.run_single(&single),
                batched.as_slice()[i * classes..(i + 1) * classes].to_vec(),
                "row {i}"
            );
        }
    }

    #[test]
    fn quantized_engine_serves_bit_identical_to_plan() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 91);
        let batch = calibration_batch(&arch, 92);
        let plan = Arc::new(quantized_plan(&model, &batch));
        let engine = Engine::start(Arc::clone(&plan), EngineConfig::default());
        let mut rng = TensorRng::seed_from_u64(93);
        for _ in 0..3 {
            let x = uniform(&[arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
            let expected = plan.run_single(&x);
            let got = engine.infer(x).unwrap();
            assert_eq!(got.logits, expected);
        }
    }

    #[test]
    fn activation_bytes_reflect_geometry_and_precision() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 95);
        let batch = calibration_batch(&arch, 96);
        let fp32 = ExecutionPlan::builder(&model).build().unwrap();
        let int8 = quantized_plan(&model, &batch);
        let f = fp32.activation_bytes(8, 32);
        let q = int8.activation_bytes(8, 32);
        assert!(f > 0 && q > 0);
        // The quantized path's im2col columns are 1 byte/element vs 4.
        assert!(q < f, "int8 transient bytes {q} not below fp32 {f}");
        // Scaling the batch scales the transient footprint.
        assert!(fp32.activation_bytes(16, 32) > f);
    }

    #[test]
    fn per_tensor_scheme_builds_and_stores_fewer_scale_bytes() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 97);
        let batch = calibration_batch(&arch, 98);
        let per_channel = quantized_plan(&model, &batch);
        let per_tensor = ExecutionPlan::builder(&model)
            .numerics(Numerics::QuantizedInt8)
            .quantization(
                QuantizationScheme::per_tensor().calibrate(CalibrationMethod::MinMax, &batch),
            )
            .build()
            .unwrap();
        // Same payload, fewer stored scales.
        assert!(per_tensor.weight_bytes() < per_channel.weight_bytes());
        // Still close enough to fp32 to agree on this batch's argmax.
        let mut rng = TensorRng::seed_from_u64(99);
        let x = uniform(&[4, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
        let fp32 = ExecutionPlan::builder(&model).build().unwrap();
        assert_quantization_agreement(&fp32.run_batch(&x), &per_tensor.run_batch(&x), 1.2);
    }

    #[test]
    fn percentile_calibration_builds_and_stays_close() {
        let arch = tiny_arch();
        let model = warmed_model(&arch, 101);
        let batch = calibration_batch(&arch, 102);
        let plan = ExecutionPlan::builder(&model)
            .numerics(Numerics::QuantizedInt8)
            .quantization(
                QuantizationScheme::per_channel()
                    .calibrate(CalibrationMethod::Percentile(0.999), &batch),
            )
            .build()
            .unwrap();
        let fp32 = ExecutionPlan::builder(&model).build().unwrap();
        let mut rng = TensorRng::seed_from_u64(103);
        let x = uniform(&[4, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
        assert_quantization_agreement(&fp32.run_batch(&x), &plan.run_batch(&x), 0.8);
    }
}
