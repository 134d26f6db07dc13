//! The configurable ResNet-18 variant: the trainable twin of
//! [`hydronas_graph::ModelGraph`].

use crate::block::BasicBlock;
use crate::layers::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, Relu};
use crate::param::{Param, ParamVisitor};
use hydronas_graph::ArchConfig;
use hydronas_tensor::{Tensor, TensorRng};

/// A ResNet-18 variant built from one point of the paper's search space.
pub struct ResNet {
    pub arch: ArchConfig,
    stem_conv: Conv2d,
    stem_bn: BatchNorm2d,
    stem_relu: Relu,
    stem_pool: Option<MaxPool2d>,
    stages: Vec<BasicBlock>,
    gap: GlobalAvgPool,
    fc: Linear,
}

impl ResNet {
    /// Builds and initializes the network for `arch`.
    pub fn new(arch: &ArchConfig, rng: &mut TensorRng) -> ResNet {
        let widths = arch.stage_widths();
        let mut stages = Vec::with_capacity(8);
        let mut in_c = arch.initial_features;
        for (stage, &w) in widths.iter().enumerate() {
            for block in 0..2 {
                let stride = if stage > 0 && block == 0 { 2 } else { 1 };
                stages.push(BasicBlock::new(in_c, w, stride, rng));
                in_c = w;
            }
        }
        ResNet {
            arch: *arch,
            stem_conv: Conv2d::new(
                arch.in_channels,
                arch.initial_features,
                arch.kernel_size,
                arch.stride,
                arch.padding,
                rng,
            ),
            stem_bn: BatchNorm2d::new(arch.initial_features),
            stem_relu: Relu::new(),
            stem_pool: arch
                .pool
                .map(|p| MaxPool2d::new(p.kernel, p.stride, p.padding())),
            stages,
            gap: GlobalAvgPool::new(),
            fc: Linear::new(arch.fc_in_features(), arch.num_classes, rng),
        }
    }

    /// Forward pass: `[N, C, H, W] -> logits [N, num_classes]`.
    ///
    /// `train = false` is the model's eval pass: it caches nothing for
    /// [`ResNet::backward`], drops what an earlier training pass cached and
    /// leaves the batch-norm running statistics as they are.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(
            input.dims()[1],
            self.arch.in_channels,
            "input channel mismatch"
        );
        let mut x = self.stem_conv.forward(input, train);
        x = self.stem_bn.forward(&x, train);
        x = self.stem_relu.forward(&x, train);
        if let Some(pool) = self.stem_pool.as_mut() {
            x = pool.forward(&x, train);
        }
        for block in self.stages.iter_mut() {
            x = block.forward(&x, train);
        }
        let pooled = self.gap.forward(&x, train);
        self.fc.forward(&pooled, train)
    }

    /// Backward pass from the loss gradient wrt logits; accumulates
    /// parameter gradients. The gradient wrt the input batch is never
    /// formed: the stem conv computes its weight gradient alone.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let mut g = self.fc.backward(grad_logits);
        g = self.gap.backward(&g);
        for block in self.stages.iter_mut().rev() {
            g = block.backward(&g);
        }
        if let Some(pool) = self.stem_pool.as_mut() {
            g = pool.backward(&g);
        }
        g = self.stem_relu.backward(&g);
        g = self.stem_bn.backward(&g);
        self.stem_conv.backward_weight(&g);
    }

    /// Number of residual blocks (always 8 for ResNet-18).
    pub fn num_blocks(&self) -> usize {
        self.stages.len()
    }

    /// Stem convolution (read access for plan compilation).
    pub fn stem_conv(&self) -> &Conv2d {
        &self.stem_conv
    }

    /// Stem batch norm.
    pub fn stem_bn(&self) -> &BatchNorm2d {
        &self.stem_bn
    }

    /// Optional stem max-pool.
    pub fn stem_pool(&self) -> Option<&MaxPool2d> {
        self.stem_pool.as_ref()
    }

    /// The residual blocks in execution order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.stages
    }

    /// Final classifier head.
    pub fn fc(&self) -> &Linear {
        &self.fc
    }
}

impl ParamVisitor for ResNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem_conv.visit_params(f);
        self.stem_bn.visit_params(f);
        for block in self.stages.iter_mut() {
            block.visit_params(f);
        }
        self.fc.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydronas_graph::{model_cost, ModelGraph, PoolConfig};
    use hydronas_tensor::uniform;

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

    #[test]
    fn forward_produces_logits() {
        let mut rng = TensorRng::seed_from_u64(1);
        let mut model = ResNet::new(&tiny_arch(), &mut rng);
        assert_eq!(model.num_blocks(), 8);
        let x = uniform(&[3, 5, 16, 16], -1.0, 1.0, &mut rng);
        let y = model.forward(&x, false);
        assert_eq!(y.dims(), &[3, 2]);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn param_count_matches_graph_analysis() {
        // The trainable model and the static graph IR must agree on the
        // parameter count for every search-space shape feature.
        let mut rng = TensorRng::seed_from_u64(2);
        for pool in [
            None,
            Some(PoolConfig {
                kernel: 3,
                stride: 2,
            }),
        ] {
            for feat in [4, 8] {
                for kernel in [3, 7] {
                    let arch = ArchConfig {
                        in_channels: 7,
                        kernel_size: kernel,
                        stride: 2,
                        padding: 3,
                        pool,
                        initial_features: feat,
                        num_classes: 2,
                    };
                    let mut model = ResNet::new(&arch, &mut rng);
                    let g = ModelGraph::from_arch(&arch, 32).unwrap();
                    assert_eq!(
                        model.num_params() as u64,
                        model_cost(&g).params,
                        "arch {:?}",
                        arch
                    );
                }
            }
        }
    }

    #[test]
    fn backward_fills_all_gradients() {
        let mut rng = TensorRng::seed_from_u64(3);
        let mut model = ResNet::new(&tiny_arch(), &mut rng);
        let x = uniform(&[2, 5, 16, 16], -1.0, 1.0, &mut rng);
        let y = model.forward(&x, true);
        let g = Tensor::ones(y.dims());
        model.backward(&g);
        assert!(model.grad_norm() > 0.0);
        // Every parameter tensor should have at least one nonzero gradient
        // (dead blocks would indicate a broken skip/backward wiring).
        let mut all_touched = true;
        model.visit_params(&mut |p| {
            if p.grad.as_slice().iter().all(|&v| v == 0.0) {
                all_touched = false;
            }
        });
        assert!(all_touched, "some parameter received no gradient");
    }

    #[test]
    fn pooled_variant_runs() {
        let mut arch = tiny_arch();
        arch.pool = Some(PoolConfig {
            kernel: 2,
            stride: 2,
        });
        let mut rng = TensorRng::seed_from_u64(4);
        let mut model = ResNet::new(&arch, &mut rng);
        let x = uniform(&[1, 5, 32, 32], -1.0, 1.0, &mut rng);
        let y = model.forward(&x, true);
        assert_eq!(y.dims(), &[1, 2]);
        model.backward(&Tensor::ones(y.dims()));
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = TensorRng::seed_from_u64(9);
            let mut model = ResNet::new(&tiny_arch(), &mut rng);
            let x = uniform(&[1, 5, 16, 16], -1.0, 1.0, &mut rng);
            model.forward(&x, false)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn flat_param_roundtrip_preserves_output() {
        let mut rng = TensorRng::seed_from_u64(5);
        let mut model = ResNet::new(&tiny_arch(), &mut rng);
        let x = uniform(&[1, 5, 16, 16], -1.0, 1.0, &mut rng);
        let y1 = model.forward(&x, false);
        let flat = model.flat_params();
        let mut rng2 = TensorRng::seed_from_u64(77);
        let mut model2 = ResNet::new(&tiny_arch(), &mut rng2);
        model2.load_flat_params(&flat);
        // Running stats differ but eval on fresh BN stats... copy them too
        // by running the same warmup: instead compare after loading both
        // from the same source.
        model2.load_flat_params(&flat);
        let y2 = model2.forward(&x, false);
        // BN running stats are identical (both fresh), so outputs match.
        assert_eq!(y1, y2);
    }
}

#[cfg(test)]
mod eval_forward_tests {
    use super::*;
    use hydronas_graph::PoolConfig;
    use hydronas_tensor::uniform;

    fn archs() -> Vec<ArchConfig> {
        vec![
            ArchConfig {
                in_channels: 5,
                kernel_size: 3,
                stride: 2,
                padding: 1,
                pool: None,
                initial_features: 4,
                num_classes: 2,
            },
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
            },
        ]
    }

    /// A model whose batch-norm running statistics moved off their fresh
    /// mean 0 / var 1, so eval exercises the real running-stat expression.
    fn warmed(arch: &ArchConfig, seed: u64) -> (ResNet, TensorRng) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut model = ResNet::new(arch, &mut rng);
        let warm = uniform(&[4, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
        let _ = model.forward(&warm, true);
        (model, rng)
    }

    #[test]
    fn eval_forward_leaves_running_stats_untouched() {
        for (seed, arch) in archs().into_iter().enumerate() {
            let (mut model, mut rng) = warmed(&arch, seed as u64 + 10);
            let x = uniform(&[2, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
            let first = model.forward(&x, false);
            assert_eq!(model.forward(&x, false), first, "arch {arch:?}");
            assert_eq!(model.forward(&x, false), first, "arch {arch:?}");
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn eval_forward_drops_the_training_cache() {
        let arch = archs().remove(1);
        let (mut model, mut rng) = warmed(&arch, 21);
        let x = uniform(&[2, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
        let _ = model.forward(&x, true);
        let logits = model.forward(&x, false);
        model.backward(&Tensor::ones(logits.dims()));
    }
}

impl ResNet {
    /// Exports the trained model as an ONNX-like `HONX` blob (weights in
    /// visit order, matching the static graph's node order).
    pub fn export(&mut self, input_hw: usize) -> Result<bytes::Bytes, hydronas_graph::GraphError> {
        let graph = hydronas_graph::ModelGraph::from_arch(&self.arch, input_hw)?;
        let flat = self.flat_params();
        Ok(hydronas_graph::serialize_model(&graph, Some(&flat)))
    }

    /// Rebuilds a model from an exported blob. The architecture comes from
    /// the blob itself; weights are loaded in graph order.
    pub fn import(blob: &[u8]) -> Result<ResNet, crate::ModelImportError> {
        let model = hydronas_graph::deserialize_model(blob)?;
        let mut rng = TensorRng::seed_from_u64(0);
        let mut net = ResNet::new(&model.arch, &mut rng);
        let flat: Vec<f32> = model
            .initializers
            .iter()
            .flat_map(|(_, b)| b.iter().copied())
            .collect();
        if flat.len() != net.num_params() {
            return Err(crate::ModelImportError::WeightCount {
                expected: net.num_params(),
                actual: flat.len(),
            });
        }
        net.load_flat_params(&flat);
        Ok(net)
    }
}

#[cfg(test)]
mod export_tests {
    use super::*;
    use hydronas_tensor::uniform;

    #[test]
    fn export_import_roundtrip_preserves_inference() {
        let arch = ArchConfig {
            in_channels: 5,
            kernel_size: 3,
            stride: 2,
            padding: 1,
            pool: None,
            initial_features: 4,
            num_classes: 2,
        };
        let mut rng = TensorRng::seed_from_u64(3);
        let mut model = ResNet::new(&arch, &mut rng);
        let blob = model.export(32).unwrap();
        let mut restored = ResNet::import(&blob).unwrap();
        assert_eq!(restored.arch, arch);
        let x = uniform(&[2, 5, 32, 32], -1.0, 1.0, &mut rng);
        assert_eq!(model.forward(&x, false), restored.forward(&x, false));
    }

    #[test]
    fn import_rejects_garbage() {
        match ResNet::import(b"not a model") {
            Err(err) => assert!(matches!(err, crate::ModelImportError::Format(_)), "{err}"),
            Ok(_) => panic!("garbage blob imported"),
        }
    }

    #[test]
    fn import_rejects_truncated_blob() {
        let arch = ArchConfig {
            in_channels: 5,
            kernel_size: 3,
            stride: 2,
            padding: 1,
            pool: None,
            initial_features: 4,
            num_classes: 2,
        };
        let mut rng = TensorRng::seed_from_u64(6);
        let mut model = ResNet::new(&arch, &mut rng);
        let blob = model.export(32).unwrap();
        match ResNet::import(&blob[..blob.len() - 4]) {
            Err(err) => {
                assert!(matches!(err, crate::ModelImportError::Format(_)), "{err}");
                // The inner ONNX error stays reachable through source().
                assert!(std::error::Error::source(&err).is_some());
            }
            Ok(_) => panic!("truncated blob imported"),
        }
    }
}
