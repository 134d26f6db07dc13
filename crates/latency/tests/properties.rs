//! Property-based tests for the latency predictor over random points of
//! the search space.

use hydronas_graph::{
    quantized_size_bytes, serialized_size_bytes, ArchConfig, ModelGraph, PoolConfig,
};
use hydronas_latency::{
    all_devices, decompose, predict, predict_all, predict_all_quantized, KernelKind,
};
use proptest::prelude::*;

fn arch_strategy() -> impl Strategy<Value = ArchConfig> {
    (
        prop_oneof![Just(5usize), Just(7)],
        prop_oneof![Just(3usize), Just(7)],
        prop_oneof![Just(1usize), Just(2)],
        prop_oneof![Just(0usize), Just(1), Just(3)],
        prop_oneof![
            Just(None),
            (
                prop_oneof![Just(2usize), Just(3)],
                prop_oneof![Just(1usize), Just(2)]
            )
                .prop_map(|(kernel, stride)| Some(PoolConfig { kernel, stride })),
        ],
        prop_oneof![Just(32usize), Just(48), Just(64)],
    )
        .prop_map(
            |(in_channels, kernel_size, stride, padding, pool, initial_features)| ArchConfig {
                in_channels,
                kernel_size,
                stride,
                padding,
                pool,
                initial_features,
                num_classes: 2,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every valid architecture gets a positive, finite latency on every
    /// device, and the mean/std aggregation is consistent.
    #[test]
    fn predictions_are_finite_and_consistent(arch in arch_strategy()) {
        let graph = ModelGraph::from_arch(&arch, 32).unwrap();
        let pred = predict_all(&graph);
        prop_assert_eq!(pred.per_device.len(), 4);
        let mut sum = 0.0;
        for (_, v) in &pred.per_device {
            prop_assert!(v.is_finite() && *v > 0.0);
            sum += v;
        }
        prop_assert!((pred.mean_ms - sum / 4.0).abs() < 1e-9);
        prop_assert!(pred.std_ms >= 0.0);
        // Per-device prediction agrees with the aggregate.
        for (profile, (id, v)) in all_devices().iter().zip(&pred.per_device) {
            prop_assert_eq!(profile.id, *id);
            prop_assert!((predict(&graph, profile) - v).abs() < 1e-12);
        }
    }

    /// Latency is monotone in feature width (more weights to stream).
    #[test]
    fn latency_monotone_in_width(mut arch in arch_strategy()) {
        let mut last = 0.0f64;
        for feat in [32usize, 48, 64] {
            arch.initial_features = feat;
            let graph = ModelGraph::from_arch(&arch, 32).unwrap();
            let mean = predict_all(&graph).mean_ms;
            prop_assert!(mean > last, "feat {feat}: {mean} <= {last}");
            last = mean;
        }
    }

    /// Quantized models are never slower, and the gain is bounded by the
    /// weight-traffic share (< 4x).
    #[test]
    fn quantization_speedup_is_bounded(arch in arch_strategy()) {
        let graph = ModelGraph::from_arch(&arch, 32).unwrap();
        let fp32 = predict_all(&graph).mean_ms;
        let int8 = predict_all_quantized(&graph).mean_ms;
        prop_assert!(int8 <= fp32 + 1e-9);
        prop_assert!(fp32 / int8 < 4.0, "impossible speedup {}", fp32 / int8);
    }

    /// Kernel decomposition is total and structurally correct for every
    /// architecture: 20 conv kernels, pool count matches the config, and
    /// nothing is left unfused.
    #[test]
    fn decomposition_census(arch in arch_strategy()) {
        let graph = ModelGraph::from_arch(&arch, 32).unwrap();
        let kernels = decompose(&graph);
        let count = |k: KernelKind| kernels.iter().filter(|x| x.kind == k).count();
        prop_assert_eq!(count(KernelKind::ConvBnRelu), 20);
        prop_assert_eq!(count(KernelKind::AddRelu), 8);
        prop_assert_eq!(count(KernelKind::MaxPool), usize::from(arch.pool.is_some()));
        prop_assert_eq!(count(KernelKind::Elementwise), 0);
        prop_assert_eq!(count(KernelKind::Fc), 1);
    }

    /// Serialized size relations hold everywhere: int8 < fp32, where fp32
    /// is the size of the ONNX-like export.
    #[test]
    fn size_relations(arch in arch_strategy()) {
        let graph = ModelGraph::from_arch(&arch, 32).unwrap();
        let fp32 = serialized_size_bytes(&graph);
        let int8 = quantized_size_bytes(&graph).unwrap();
        prop_assert!(int8 < fp32);
        prop_assert!(int8 * 3 > fp32 / 2, "int8 implausibly small");
    }

    /// Deeper stems (larger stride product) never increase the memory
    /// objective: parameters are resolution-independent.
    #[test]
    fn memory_independent_of_stride_and_pool_stride(arch in arch_strategy()) {
        let g1 = ModelGraph::from_arch(&arch, 32).unwrap();
        let mut other = arch;
        other.stride = if arch.stride == 1 { 2 } else { 1 };
        let g2 = ModelGraph::from_arch(&other, 32).unwrap();
        prop_assert_eq!(serialized_size_bytes(&g1), serialized_size_bytes(&g2));
    }
}
