//! The per-layer profile computes each layer's FLOPs and bytes from its
//! geometry; this pins them to the tensor kernels' own telemetry counters
//! for one `run_batch` of the same plan on the same batch. Telemetry
//! counters are process-global, so the check lives in a test binary of its
//! own: no other test can run kernels into its session.

use hydronas_graph::{ArchConfig, CalibrationMethod, PoolConfig};
use hydronas_infer::{ExecutionPlan, LayerCost, Numerics, QuantizationScheme};
use hydronas_nn::ResNet;
use hydronas_tensor::{uniform, TensorRng};

/// The weighted layers: every conv, and the fc head, which the plan runs
/// as a 1×1 conv.
fn is_weighted(name: &str) -> bool {
    name == "stem"
        || name == "fc"
        || name.ends_with(".conv1")
        || name.ends_with(".conv2")
        || name.ends_with(".proj")
}

#[test]
fn profile_costs_match_the_kernel_counters() {
    let unpooled = ArchConfig {
        in_channels: 5,
        kernel_size: 3,
        stride: 2,
        padding: 1,
        pool: None,
        initial_features: 4,
        num_classes: 2,
    };
    let pooled = ArchConfig {
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
    };
    for (arch, seed) in [(unpooled, 1u64), (pooled, 2u64)] {
        let mut rng = TensorRng::seed_from_u64(seed);
        let model = ResNet::new(&arch, &mut rng);
        let x = uniform(&[3, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
        for (numerics, conv_counter, gemm_counter, gemm_bytes) in [
            (
                Numerics::Fused,
                "tensor.conv2d_fused.flops",
                "tensor.gemm.flops",
                "tensor.gemm.bytes",
            ),
            (
                Numerics::QuantizedInt8,
                "tensor.conv2d_q8.flops",
                "tensor.qgemm.flops",
                "tensor.qgemm.bytes",
            ),
        ] {
            let mut builder = ExecutionPlan::builder(&model).numerics(numerics);
            if numerics == Numerics::QuantizedInt8 {
                builder = builder.quantization(
                    QuantizationScheme::per_channel().calibrate(CalibrationMethod::MinMax, &x),
                );
            }
            let plan = builder.build().unwrap();
            let counters = {
                let session = hydronas_telemetry::session();
                plan.run_batch(&x);
                session.metrics().counters
            };
            let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
            let (_, profile) = plan.profile_batch(&x);
            let sum = |keep: fn(&str) -> bool, field: fn(&LayerCost) -> u64| -> u64 {
                profile
                    .layers
                    .iter()
                    .filter(|l| keep(&l.name))
                    .map(field)
                    .sum()
            };
            let context = format!("{numerics:?} on {arch:?}");

            // Every weighted layer counted once, whatever kernel runs it.
            assert_eq!(
                sum(is_weighted, |l| l.flops),
                counter(conv_counter),
                "{context}"
            );
            // All FLOPs are GEMM FLOPs (every weighted layer lowers to one).
            assert_eq!(
                sum(|_| true, |l| l.flops),
                counter(gemm_counter),
                "{context}"
            );
            // Pooling bytes follow the pooling kernels' own counters.
            assert_eq!(
                sum(|n| n == "stem.pool", |l| l.bytes),
                counter("tensor.max_pool2d.bytes"),
                "{context}"
            );
            assert_eq!(
                sum(|n| n == "global_avg_pool", |l| l.bytes),
                counter("tensor.avg_pool2d_global.bytes"),
                "{context}"
            );
            // Either numerics issues one GEMM per column tile of each
            // weighted layer, and the profile counts a layer's weight once
            // per tile, so the GEMM byte counter is the profile's GEMM
            // bytes. (The unpooled arch's 16x16 layers run two tiles.)
            assert_eq!(
                sum(is_weighted, |l| l.bytes),
                counter(gemm_bytes),
                "{context}"
            );
        }
    }
}
