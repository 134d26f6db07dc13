//! The per-layer profile computes each layer's FLOPs and bytes from its
//! geometry; this pins them to the tensor kernels' own telemetry counters
//! for one `run_batch` of the same plan on the same batch. Telemetry
//! counters are process-global, so the check lives in a test binary of its
//! own: no other test can run kernels into its session.

use hydronas_graph::{ArchConfig, CalibrationMethod, PoolConfig};
use hydronas_infer::{ExecutionPlan, LayerCost, Numerics, QuantizationScheme};
use hydronas_nn::ResNet;
use hydronas_tensor::{uniform, TensorRng};

fn is_conv(name: &str) -> bool {
    name == "stem"
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
        for (numerics, conv_counter, gemm_counter) in [
            (Numerics::Exact, "tensor.conv2d.flops", "tensor.gemm.flops"),
            (
                Numerics::Fused,
                "tensor.conv2d_fused.flops",
                "tensor.gemm.flops",
            ),
            (
                Numerics::QuantizedInt8,
                "tensor.conv2d_q8.flops",
                "tensor.qgemm.flops",
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

            // Every conv counted once, whatever kernel runs it.
            assert_eq!(
                sum(is_conv, |l| l.flops),
                counter(conv_counter),
                "{context}"
            );
            // All FLOPs are GEMM FLOPs (convs lower to one, the fc is one).
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
            // The fused path issues one GEMM per conv and one for the fc,
            // so its GEMM byte counter is the profile's GEMM bytes.
            if numerics == Numerics::Fused {
                assert_eq!(
                    sum(|n| is_conv(n) || n == "fc", |l| l.bytes),
                    counter("tensor.gemm.bytes"),
                    "{context}"
                );
            }
        }
    }
}
