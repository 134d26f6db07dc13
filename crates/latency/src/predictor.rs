//! The latency predictor: roofline cost per kernel, summed per device.

use crate::device::{all_devices, DeviceId, DeviceProfile};
use crate::kernels::{decompose, Kernel, KernelKind};
use hydronas_graph::ModelGraph;
use serde::{Deserialize, Serialize};

/// Predicted latency of one model across all devices.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyPrediction {
    /// `(device, latency_ms)` in `all_devices()` order.
    pub per_device: Vec<(DeviceId, f64)>,
    /// Mean across devices — the paper's `latency` column.
    pub mean_ms: f64,
    /// Population standard deviation across devices — `lat_std`.
    pub std_ms: f64,
}

/// Tiling/SIMD utilization of a conv kernel as a function of its output
/// spatial extent: mobile runtimes tile feature maps in 4-wide (often
/// 8-wide) vector strips, so maps that are not multiples of 4 waste lanes
/// in the remainder strip (nn-Meter's per-kernel regressions capture the
/// same sawtooth non-linearity).
pub fn alignment_utilization(out_hw: (usize, usize)) -> f64 {
    let w = out_hw.1.max(1);
    if w.is_multiple_of(4) {
        1.0
    } else if w.is_multiple_of(2) {
        0.85
    } else {
        // Odd maps fall off the vectorized tile path entirely on these
        // runtimes; nn-Meter's kernel measurements show comparable cliffs
        // (a 13x13 conv can be slower than the 16x16 one).
        0.58
    }
}

/// Roofline latency of one kernel on one device, in milliseconds.
pub fn kernel_latency_ms(kernel: &Kernel, device: &DeviceProfile) -> f64 {
    let bytes = (kernel.weight_bytes + kernel.activation_bytes) as f64;
    let mem_ms = bytes / (device.bandwidth_gbs * 1e9) * 1e3;
    let comp_ms = kernel.flops as f64 / (device.peak_gflops * 1e9) * 1e3;
    let util = if kernel.kind == KernelKind::ConvBnRelu {
        alignment_utilization(kernel.out_hw)
    } else {
        1.0
    };
    // The alignment penalty hits compute only: weight/activation streaming
    // is oblivious to spatial tiling, so memory-bound kernels are immune.
    let mut t = device.kernel_overhead_ms + mem_ms.max(comp_ms / util);
    if kernel.kind == KernelKind::MaxPool {
        t += device.pool_penalty_ms;
    }
    t
}

/// Predicts latency of a decomposed kernel list on one device.
pub fn predict_kernels(kernels: &[Kernel], device: &DeviceProfile) -> f64 {
    kernels.iter().map(|k| kernel_latency_ms(k, device)).sum()
}

/// Predicts latency of a model on one device.
pub fn predict(graph: &ModelGraph, device: &DeviceProfile) -> f64 {
    predict_kernels(&decompose(graph), device)
}

/// Predicts latency of an int8-quantized deployment: weight traffic
/// shrinks 4x (kernels stream 1-byte weights), activations and FLOPs are
/// unchanged (we model dequantize-on-load runtimes, the common mobile
/// path; compute still runs fp32/fp16).
pub fn predict_quantized(graph: &ModelGraph, device: &DeviceProfile) -> f64 {
    predict_kernels(&decompose_int8(graph), device)
}

/// [`predict_quantized`] across all four devices.
pub fn predict_all_quantized(graph: &ModelGraph) -> LatencyPrediction {
    aggregate(&decompose_int8(graph))
}

/// The kernels of an int8 deployment: [`decompose`]'s list with every
/// kernel's weight traffic at 1 byte per weight instead of 4.
fn decompose_int8(graph: &ModelGraph) -> Vec<Kernel> {
    let mut kernels = decompose(graph);
    for k in &mut kernels {
        k.weight_bytes /= 4;
    }
    kernels
}

fn aggregate(kernels: &[Kernel]) -> LatencyPrediction {
    let per_device: Vec<(DeviceId, f64)> = all_devices()
        .iter()
        .map(|d| (d.id, predict_kernels(kernels, d)))
        .collect();
    let n = per_device.len() as f64;
    let mean = per_device.iter().map(|(_, v)| v).sum::<f64>() / n;
    let var = per_device
        .iter()
        .map(|(_, v)| (v - mean) * (v - mean))
        .sum::<f64>()
        / n;
    LatencyPrediction {
        per_device,
        mean_ms: mean,
        std_ms: var.sqrt(),
    }
}

/// Predicts across all four devices and aggregates mean/std, matching the
/// paper's `latency`/`lat_std` columns.
pub fn predict_all(graph: &ModelGraph) -> LatencyPrediction {
    let _span = hydronas_telemetry::span("latency.predict", "predict_all");
    let kernels = decompose(graph);
    hydronas_telemetry::add_all(&[
        ("latency.predict.calls", 1),
        ("latency.predict.kernels", kernels.len() as u64),
    ]);
    aggregate(&kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydronas_graph::{ArchConfig, ModelGraph, PoolConfig};

    fn graph(arch: &ArchConfig) -> ModelGraph {
        ModelGraph::from_arch(arch, 32).unwrap()
    }

    fn pareto_arch(pool: Option<PoolConfig>) -> ArchConfig {
        ArchConfig {
            in_channels: 5,
            kernel_size: 3,
            stride: 2,
            padding: 1,
            pool,
            initial_features: 32,
            num_classes: 2,
        }
    }

    #[test]
    fn baseline_latency_band_matches_table5() {
        // Paper Table 5: ResNet-18 latency 31.91 ms (5ch) / 32.46 ms (7ch),
        // lat_std ~20. We assert the calibrated band, not exact digits.
        let p5 = predict_all(&graph(&ArchConfig::baseline(5)));
        assert!((25.0..40.0).contains(&p5.mean_ms), "mean {}", p5.mean_ms);
        assert!((14.0..30.0).contains(&p5.std_ms), "std {}", p5.std_ms);
        let p7 = predict_all(&graph(&ArchConfig::baseline(7)));
        assert!(p7.mean_ms > p5.mean_ms, "7ch should cost slightly more");
        assert!(
            p7.mean_ms - p5.mean_ms < 2.0,
            "channel delta should be small"
        );
    }

    #[test]
    fn pareto_no_pool_band_matches_table4() {
        // Table 4 rows 1/2/4: feat-32 no-pool models at ~8.2 ms, std ~4.6.
        let p = predict_all(&graph(&pareto_arch(None)));
        assert!((6.0..13.0).contains(&p.mean_ms), "mean {}", p.mean_ms);
        assert!((3.0..7.5).contains(&p.std_ms), "std {}", p.std_ms);
    }

    #[test]
    fn pareto_pool_band_matches_table4() {
        // Table 4 rows 3/5: feat-32 pool models at ~18.3 ms, std ~16.
        let p = predict_all(&graph(&pareto_arch(Some(PoolConfig {
            kernel: 3,
            stride: 2,
        }))));
        assert!((14.0..23.0).contains(&p.mean_ms), "mean {}", p.mean_ms);
        assert!(p.std_ms > 10.0, "std {}", p.std_ms);
    }

    #[test]
    fn pooling_split_comes_from_myriad() {
        let no_pool = predict_all(&graph(&pareto_arch(None)));
        let pool = predict_all(&graph(&pareto_arch(Some(PoolConfig {
            kernel: 3,
            stride: 2,
        }))));
        let myriad_delta = no_pool
            .per_device
            .iter()
            .zip(&pool.per_device)
            .find(|((id, _), _)| *id == DeviceId::MyriadVpu)
            .map(|((_, a), (_, b))| b - a)
            .unwrap();
        assert!(myriad_delta > 20.0, "myriad pool delta {myriad_delta}");
        for ((id_a, a), (id_b, b)) in no_pool.per_device.iter().zip(&pool.per_device) {
            assert_eq!(id_a, id_b);
            if *id_a != DeviceId::MyriadVpu {
                // Pooling halves downstream maps, so compute-bound devices
                // may even get slightly faster; either way the shift is
                // small next to the VPU fallback penalty.
                let delta = b - a;
                assert!(
                    delta.abs() < 0.4 * myriad_delta,
                    "{:?} pool delta {delta} vs myriad {myriad_delta}",
                    id_a
                );
            }
        }
    }

    #[test]
    fn weight_bound_regime_quarter_width_is_about_4x_faster() {
        // Compare no-pool variants so the constant Myriad pool penalty does
        // not mask the weight-traffic scaling (Table 5's 31.9 ms baseline
        // vs Table 4's 8.2 ms Pareto rows differ by ~4x).
        let mut wide = ArchConfig::baseline(5);
        wide.pool = None;
        let mut narrow = wide;
        narrow.initial_features = 32;
        let base = predict_all(&graph(&wide));
        let thin = predict_all(&graph(&narrow));
        let ratio = base.mean_ms / thin.mean_ms;
        assert!((2.5..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn stride1_nopool_models_hit_compute_bound_tail() {
        // Table 3's 249.56 ms maximum comes from full-width stride-1
        // no-pool variants where spatial FLOPs dominate.
        let arch = ArchConfig {
            in_channels: 7,
            kernel_size: 7,
            stride: 1,
            padding: 3,
            pool: None,
            initial_features: 64,
            num_classes: 2,
        };
        let p = predict_all(&graph(&arch));
        assert!(p.mean_ms > 80.0, "mean {}", p.mean_ms);
        assert!(p.mean_ms < 400.0, "mean {}", p.mean_ms);
    }

    #[test]
    fn latency_is_positive_and_finite_across_search_space() {
        for kernel in [3, 7] {
            for stride in [1, 2] {
                for padding in [0, 1, 3] {
                    for feat in [32, 48, 64] {
                        let arch = ArchConfig {
                            in_channels: 5,
                            kernel_size: kernel,
                            stride,
                            padding,
                            pool: None,
                            initial_features: feat,
                            num_classes: 2,
                        };
                        let p = predict_all(&graph(&arch));
                        assert!(p.mean_ms.is_finite() && p.mean_ms > 0.0);
                        assert!(p.std_ms.is_finite() && p.std_ms >= 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn int8_baseline_approaches_the_narrow_fp32_models() {
        // Quantizing the stock ResNet-18 cuts its weight traffic 4x; in
        // the weight-bound regime that lands near the fp32 feat-32 Pareto
        // models' latency.
        let base = graph(&ArchConfig::baseline(5));
        let fp32 = predict_all(&base);
        let int8 = predict_all_quantized(&base);
        assert!(
            int8.mean_ms < fp32.mean_ms,
            "{} vs {}",
            int8.mean_ms,
            fp32.mean_ms
        );
        let ratio = fp32.mean_ms / int8.mean_ms;
        assert!((1.5..4.0).contains(&ratio), "ratio {ratio}");
        // Compute-bound models barely benefit.
        let tail = ArchConfig {
            in_channels: 5,
            kernel_size: 7,
            stride: 1,
            padding: 3,
            pool: None,
            initial_features: 64,
            num_classes: 2,
        };
        let t_fp32 = predict_all(&graph(&tail));
        let t_int8 = predict_all_quantized(&graph(&tail));
        assert!(
            t_fp32.mean_ms / t_int8.mean_ms < 1.2,
            "compute-bound ratio {}",
            t_fp32.mean_ms / t_int8.mean_ms
        );
    }

    #[test]
    fn batch_size_does_not_enter_prediction() {
        // The paper reports identical latency for all batch sizes (Table 5)
        // - inference is single-image. Our predictor has no batch input at
        // all; this test documents that invariant via the API surface.
        let a = predict_all(&graph(&ArchConfig::baseline(5)));
        let b = predict_all(&graph(&ArchConfig::baseline(5)));
        assert_eq!(a, b);
    }
}
