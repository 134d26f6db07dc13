//! ResNet basic block: two 3x3 convs with batch norm and a residual skip.

use crate::layers::{BatchNorm2d, Conv2d, Relu};
use crate::param::{Param, ParamVisitor};
use hydronas_tensor::{Tensor, TensorRng};

/// `conv3x3 -> bn -> relu -> conv3x3 -> bn  (+ skip / 1x1 projection) -> relu`
pub struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    downsample: Option<(Conv2d, BatchNorm2d)>,
    relu2: Relu,
}

impl BasicBlock {
    /// New block mapping `in_c -> out_c`; `stride != 1` or a channel change
    /// adds a 1x1 projection on the skip path (torch semantics).
    pub fn new(in_c: usize, out_c: usize, stride: usize, rng: &mut TensorRng) -> BasicBlock {
        let downsample = (stride != 1 || in_c != out_c).then(|| {
            (
                Conv2d::new(in_c, out_c, 1, stride, 0, rng),
                BatchNorm2d::new(out_c),
            )
        });
        BasicBlock {
            conv1: Conv2d::new(in_c, out_c, 3, stride, 1, rng),
            bn1: BatchNorm2d::new(out_c),
            relu1: Relu::new(),
            conv2: Conv2d::new(out_c, out_c, 3, 1, 1, rng),
            bn2: BatchNorm2d::new(out_c),
            downsample,
            relu2: Relu::new(),
        }
    }

    /// True when this block projects its skip path.
    pub fn has_projection(&self) -> bool {
        self.downsample.is_some()
    }

    /// First 3x3 convolution of the main path.
    pub fn conv1(&self) -> &Conv2d {
        &self.conv1
    }

    /// Batch norm after `conv1`.
    pub fn bn1(&self) -> &BatchNorm2d {
        &self.bn1
    }

    /// Second 3x3 convolution of the main path.
    pub fn conv2(&self) -> &Conv2d {
        &self.conv2
    }

    /// Batch norm after `conv2`.
    pub fn bn2(&self) -> &BatchNorm2d {
        &self.bn2
    }

    /// The 1x1 projection on the skip path, when present.
    pub fn downsample(&self) -> Option<(&Conv2d, &BatchNorm2d)> {
        self.downsample.as_ref().map(|(c, b)| (c, b))
    }

    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut main = self.conv1.forward(input, train);
        main = self.bn1.forward(&main, train);
        main = self.relu1.forward(&main, train);
        main = self.conv2.forward(&main, train);
        main = self.bn2.forward(&main, train);
        let skip = match self.downsample.as_mut() {
            Some((conv, bn)) => {
                let s = conv.forward(input, train);
                bn.forward(&s, train)
            }
            None => input.clone(),
        };
        let sum = main.add(&skip);
        self.relu2.forward(&sum, train)
    }

    /// Backward pass; returns the gradient wrt the block input (sum of the
    /// main-path and skip-path contributions).
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g_sum = self.relu2.backward(grad_out);
        // The add fans the gradient out unchanged to both paths.
        let mut g_main = self.bn2.backward(&g_sum);
        g_main = self.conv2.backward(&g_main);
        g_main = self.relu1.backward(&g_main);
        g_main = self.bn1.backward(&g_main);
        let g_input_main = self.conv1.backward(&g_main);

        let g_input_skip = match self.downsample.as_mut() {
            Some((conv, bn)) => {
                let g = bn.backward(&g_sum);
                conv.backward(&g)
            }
            None => g_sum,
        };
        g_input_main.add(&g_input_skip)
    }
}

impl ParamVisitor for BasicBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv, bn)) = self.downsample.as_mut() {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydronas_tensor::uniform;

    #[test]
    fn identity_block_shapes() {
        let mut rng = TensorRng::seed_from_u64(1);
        let mut block = BasicBlock::new(4, 4, 1, &mut rng);
        assert!(!block.has_projection());
        let x = uniform(&[2, 4, 8, 8], -1.0, 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
        let gx = block.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn strided_block_halves_resolution_and_projects() {
        let mut rng = TensorRng::seed_from_u64(2);
        let mut block = BasicBlock::new(4, 8, 2, &mut rng);
        assert!(block.has_projection());
        let x = uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
        let gx = block.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn channel_change_without_stride_still_projects() {
        let mut rng = TensorRng::seed_from_u64(3);
        let block = BasicBlock::new(4, 6, 1, &mut rng);
        assert!(block.has_projection());
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = TensorRng::seed_from_u64(4);
        let (in_c, out_c) = (4, 8);
        let mut block = BasicBlock::new(in_c, out_c, 2, &mut rng);
        let want = 9 * in_c * out_c      // conv1
            + 2 * out_c                  // bn1
            + 9 * out_c * out_c          // conv2
            + 2 * out_c                  // bn2
            + in_c * out_c               // downsample conv 1x1
            + 2 * out_c; // downsample bn
        assert_eq!(block.num_params(), want);
    }

    #[test]
    fn gradient_flows_through_skip_path() {
        // With the main path zeroed out, the input gradient must equal the
        // gradient of relu(skip), proving the skip connection carries signal.
        let mut rng = TensorRng::seed_from_u64(5);
        let mut block = BasicBlock::new(3, 3, 1, &mut rng);
        // Zero the convolutions so main path contributes nothing.
        block.conv1.weight.value.as_mut_slice().fill(0.0);
        block.conv2.weight.value.as_mut_slice().fill(0.0);
        let x = uniform(&[1, 3, 4, 4], 0.1, 1.0, &mut rng); // positive input
        let y = block.forward(&x, true);
        // main = bn2(conv2(...)) = bn2(0) = beta = 0, so y = relu(x) = x.
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
        let gx = block.backward(&Tensor::ones(y.dims()));
        // Skip path passes gradient 1 everywhere (x > 0).
        // conv1 backward contributes 0 (zero weights).
        assert!(gx.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-5));
    }

    #[test]
    fn finite_difference_through_whole_block() {
        let mut rng = TensorRng::seed_from_u64(6);
        let x = uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let gout = uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);

        let make = || {
            let mut r = TensorRng::seed_from_u64(42);
            BasicBlock::new(2, 2, 1, &mut r)
        };
        let mut block = make();
        let _ = block.forward(&x, true);
        let gx = block.backward(&gout);

        let loss = |x: &Tensor| -> f32 {
            let mut b = make();
            let y = b.forward(x, true);
            y.as_slice()
                .iter()
                .zip(gout.as_slice())
                .map(|(a, g)| a * g)
                .sum()
        };
        let eps = 1e-2f32;
        for &idx in &[0usize, 7, 13, 21, 31] {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let num = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[idx]).abs() < 0.1,
                "dx at {idx}: {num} vs {}",
                gx.as_slice()[idx]
            );
        }
    }
}
