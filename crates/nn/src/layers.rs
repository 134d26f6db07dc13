//! Stateful layers with explicit forward/backward passes.
//!
//! Each layer caches whatever its backward pass needs during
//! `forward(x, true)`. `forward(x, false)` is the eval pass: it caches
//! nothing, drops any earlier cache and leaves batch-norm running
//! statistics as they are. Calling `backward` without a training
//! `forward` before it is a logic error and panics.

use crate::param::{Param, ParamVisitor};
use hydronas_tensor::{
    avg_pool2d_global, conv2d, conv2d_backward, conv2d_backward_weight, gemm, kaiming_normal,
    max_pool2d, max_pool2d_backward, Epilogue, GemmA, GemmB, Tensor, TensorRng,
};

/// 2-d convolution without bias (ResNet convention: bias folds into BN).
pub struct Conv2d {
    pub weight: Param,
    pub stride: usize,
    pub padding: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Kaiming-normal initialized conv layer.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Conv2d {
        let fan_in = in_c * kernel * kernel;
        let weight = kaiming_normal(&[out_c, in_c, kernel, kernel], fan_in, rng);
        Conv2d {
            weight: Param::new(weight),
            stride,
            padding,
            cached_input: None,
        }
    }

    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = conv2d(input, &self.weight.value, self.stride, self.padding);
        self.cached_input = train.then(|| input.clone());
        out
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward before forward");
        let (gi, gw) = conv2d_backward(
            input,
            &self.weight.value,
            grad_out,
            self.stride,
            self.padding,
        );
        self.weight.accumulate(&gw);
        gi
    }

    /// [`Conv2d::backward`] for a conv whose input gradient nobody reads,
    /// a network's first conv over the data batch: accumulates the same
    /// weight gradient and computes no input gradient.
    pub(crate) fn backward_weight(&mut self, grad_out: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward before forward");
        let gw = conv2d_backward_weight(
            input,
            &self.weight.value,
            grad_out,
            self.stride,
            self.padding,
        );
        self.weight.accumulate(&gw);
    }
}

impl ParamVisitor for Conv2d {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }
}

/// Batch normalization over the channel axis of NCHW activations.
pub struct BatchNorm2d {
    pub gamma: Param,
    pub beta: Param,
    pub running_mean: Tensor,
    pub running_var: Tensor,
    pub momentum: f32,
    pub eps: f32,
    // Caches for backward.
    cache: Option<BnCache>,
}

struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    pub fn new(channels: usize) -> BatchNorm2d {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    fn channels(&self) -> usize {
        self.gamma.value.numel()
    }

    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().ndim(), 4, "BatchNorm2d expects NCHW");
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        assert_eq!(c, self.channels(), "channel mismatch");
        let plane = h * w;
        let m = (n * plane) as f32;
        let x = input.as_slice();

        // Train mode normalizes by the biased batch statistics and folds
        // them into the running statistics; eval reads the running ones.
        let batch_stats = train.then(|| {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ch in 0..c {
                let mut s = 0.0f32;
                for b in 0..n {
                    let base = (b * c + ch) * plane;
                    s += x[base..base + plane].iter().sum::<f32>();
                }
                mean[ch] = s / m;
                let mut v = 0.0f32;
                for b in 0..n {
                    let base = (b * c + ch) * plane;
                    v += x[base..base + plane]
                        .iter()
                        .map(|&e| (e - mean[ch]) * (e - mean[ch]))
                        .sum::<f32>();
                }
                var[ch] = v / m;
            }
            for ch in 0..c {
                let rm = &mut self.running_mean.as_mut_slice()[ch];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean[ch];
                let rv = &mut self.running_var.as_mut_slice()[ch];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * var[ch];
            }
            (mean, var)
        });
        let (mean, var) = match &batch_stats {
            Some((mean, var)) => (mean.as_slice(), var.as_slice()),
            None => (self.running_mean.as_slice(), self.running_var.as_slice()),
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut out = Tensor::zeros(input.dims());
        // Only backward reads the normalized input, so eval never writes it.
        let mut x_hat = train.then(|| Tensor::zeros(input.dims()));
        {
            let o = out.as_mut_slice();
            let mut xh = x_hat.as_mut().map(Tensor::as_mut_slice);
            let g = self.gamma.value.as_slice();
            let bt = self.beta.value.as_slice();
            for b in 0..n {
                for ch in 0..c {
                    let base = (b * c + ch) * plane;
                    let (mu, is, gg, bb) = (mean[ch], inv_std[ch], g[ch], bt[ch]);
                    for i in base..base + plane {
                        let xi = (x[i] - mu) * is;
                        if let Some(xh) = xh.as_deref_mut() {
                            xh[i] = xi;
                        }
                        o[i] = gg * xi + bb;
                    }
                }
            }
        }
        self.cache = x_hat.map(|x_hat| BnCache { x_hat, inv_std });
        out
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm2d::backward before forward(train)");
        let (n, c, h, w) = (
            grad_out.dims()[0],
            grad_out.dims()[1],
            grad_out.dims()[2],
            grad_out.dims()[3],
        );
        let plane = h * w;
        let m = (n * plane) as f32;
        let dy = grad_out.as_slice();
        let xh = cache.x_hat.as_slice();

        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for b in 0..n {
            for ch in 0..c {
                let base = (b * c + ch) * plane;
                for i in base..base + plane {
                    dgamma[ch] += dy[i] * xh[i];
                    dbeta[ch] += dy[i];
                }
            }
        }
        self.gamma.accumulate(&Tensor::from_slice(&dgamma));
        self.beta.accumulate(&Tensor::from_slice(&dbeta));

        let g = self.gamma.value.as_slice();
        let mut dx = Tensor::zeros(grad_out.dims());
        {
            let d = dx.as_mut_slice();
            for b in 0..n {
                for ch in 0..c {
                    let base = (b * c + ch) * plane;
                    let k = g[ch] * cache.inv_std[ch];
                    let dg_m = dgamma[ch] / m;
                    let db_m = dbeta[ch] / m;
                    for i in base..base + plane {
                        d[i] = k * (dy[i] - db_m - xh[i] * dg_m);
                    }
                }
            }
        }
        dx
    }
}

impl ParamVisitor for BatchNorm2d {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

/// Rectified linear unit; caches the pass-through mask.
#[derive(Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    pub fn new() -> Relu {
        Relu::default()
    }

    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.mask = train.then(|| input.as_slice().iter().map(|&v| v > 0.0).collect());
        input.map(|v| v.max(0.0))
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("Relu::backward before forward(train)");
        assert_eq!(mask.len(), grad_out.numel());
        let mut out = grad_out.clone();
        for (v, &keep) in out.as_mut_slice().iter_mut().zip(mask.iter()) {
            if !keep {
                *v = 0.0;
            }
        }
        out
    }
}

/// Max pooling layer; caches argmax routing for backward.
pub struct MaxPool2d {
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
    cache: Option<(Vec<usize>, Vec<u32>)>,
}

impl MaxPool2d {
    pub fn new(kernel: usize, stride: usize, padding: usize) -> MaxPool2d {
        MaxPool2d {
            kernel,
            stride,
            padding,
            cache: None,
        }
    }

    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (out, arg) = max_pool2d(input, self.kernel, self.stride, self.padding);
        self.cache = train.then(|| (input.dims().to_vec(), arg));
        out
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (dims, arg) = self
            .cache
            .as_ref()
            .expect("MaxPool2d::backward before forward");
        max_pool2d_backward(dims, grad_out, arg, self.kernel, self.stride, self.padding)
    }
}

/// Global average pooling `[N,C,H,W] -> [N,C]`.
#[derive(Default)]
pub struct GlobalAvgPool {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    pub fn new() -> GlobalAvgPool {
        GlobalAvgPool::default()
    }

    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.cached_dims = train.then(|| input.dims().to_vec());
        avg_pool2d_global(input)
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .cached_dims
            .as_ref()
            .expect("GlobalAvgPool::backward before forward");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(grad_out.dims(), &[n, c]);
        let plane = (h * w) as f32;
        let mut out = Tensor::zeros(dims);
        let go = grad_out.as_slice();
        for (i, chunk) in out.as_mut_slice().chunks_mut(h * w).enumerate() {
            chunk.fill(go[i] / plane);
        }
        out
    }
}

/// Fully connected layer with bias: `[N, in] -> [N, out]`.
pub struct Linear {
    pub weight: Param, // [in, out]
    pub bias: Param,   // [out]
    cached_input: Option<Tensor>,
}

impl Linear {
    pub fn new(in_f: usize, out_f: usize, rng: &mut TensorRng) -> Linear {
        let weight = hydronas_tensor::kaiming_uniform(&[in_f, out_f], in_f, rng);
        Linear {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_f])),
            cached_input: None,
        }
    }

    /// Affine map `input · W + b`, caching the input for the backward pass
    /// when `train` is set. Bias is fused into the GEMM's final write-back —
    /// one pass over the output instead of matmul + broadcast add.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().ndim(), 2, "Linear expects [N, in]");
        let (n, in_f) = (input.dims()[0], input.dims()[1]);
        let out_f = self.weight.value.dims()[1];
        let mut out = Tensor::zeros(&[n, out_f]);
        gemm(
            GemmA::Slice(input.as_slice()),
            GemmB::Slice(self.weight.value.as_slice()),
            out.as_mut_slice(),
            n,
            in_f,
            out_f,
            Epilogue::ColBias(self.bias.value.as_slice()),
        );
        self.cached_input = train.then(|| input.clone());
        out
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Linear::backward before forward");
        // dW = x^T dy ; db = sum_rows dy ; dx = dy W^T
        let gw = input.transpose2().matmul(grad_out);
        self.weight.accumulate(&gw);
        self.bias.accumulate(&grad_out.sum_axis0());
        grad_out.matmul(&self.weight.value.transpose2())
    }
}

impl ParamVisitor for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydronas_tensor::{approx_eq, uniform};

    #[test]
    fn relu_forward_backward() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let mut r = Relu::new();
        let y = r.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Tensor::from_slice(&[5.0, 5.0, 5.0]));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn linear_backward_matches_finite_difference() {
        let mut rng = TensorRng::seed_from_u64(1);
        let mut lin = Linear::new(4, 3, &mut rng);
        let x = uniform(&[2, 4], -1.0, 1.0, &mut rng);
        let y = lin.forward(&x, true);
        let gx = lin.backward(&Tensor::ones(y.dims()));
        let eps = 1e-3f32;
        for idx in 0..x.numel() {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let fp = lin.forward(&plus, false).sum();
            let fm = lin.forward(&minus, false).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                approx_eq(num, gx.as_slice()[idx], 3e-2),
                "{num} vs {}",
                gx.as_slice()[idx]
            );
        }
        // Weight gradient for loss=sum: dW[i][j] = sum_batch x[b][i].
        let mut want = [0.0f32; 12];
        for b in 0..2 {
            for i in 0..4 {
                for j in 0..3 {
                    want[i * 3 + j] += x.at(&[b, i]);
                }
            }
        }
        for (a, b) in lin.weight.grad.as_slice().iter().zip(want.iter()) {
            assert!(approx_eq(*a, *b, 1e-4));
        }
        // Bias gradient is the batch count per output.
        assert!(lin
            .bias
            .grad
            .as_slice()
            .iter()
            .all(|&v| (v - 2.0).abs() < 1e-5));
    }

    #[test]
    fn batchnorm_normalizes_in_train_mode() {
        let mut rng = TensorRng::seed_from_u64(2);
        let x = uniform(&[4, 3, 5, 5], -2.0, 5.0, &mut rng);
        let mut bn = BatchNorm2d::new(3);
        let y = bn.forward(&x, true);
        // Per-channel output should be ~zero-mean unit-var (gamma=1,beta=0).
        let (n, c, plane) = (4, 3, 25);
        for ch in 0..c {
            let mut vals = Vec::new();
            for b in 0..n {
                let base = (b * c + ch) * plane;
                vals.extend_from_slice(&y.as_slice()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = TensorRng::seed_from_u64(3);
        let mut bn = BatchNorm2d::new(2);
        // Feed many batches so the running stats converge.
        for _ in 0..200 {
            let batch = uniform(&[8, 2, 3, 3], 1.0, 3.0, &mut rng);
            let _ = bn.forward(&batch, true);
        }
        // Eval output of a constant-2 input should be near (2-mean)*inv_std.
        let x = Tensor::full(&[1, 2, 3, 3], 2.0);
        let y = bn.forward(&x, false);
        // mean(U(1,3)) = 2 so output ~ 0.
        assert!(
            y.as_slice().iter().all(|v| v.abs() < 0.2),
            "{:?}",
            y.as_slice()
        );
    }

    #[test]
    fn batchnorm_backward_finite_difference() {
        let mut rng = TensorRng::seed_from_u64(4);
        let x = uniform(&[2, 2, 3, 3], -1.0, 1.0, &mut rng);
        // Random upstream gradient makes the test sensitive to the full
        // Jacobian, not just row sums.
        let gout = uniform(&[2, 2, 3, 3], -1.0, 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value = Tensor::from_slice(&[1.3, 0.7]);
        bn.beta.value = Tensor::from_slice(&[0.1, -0.2]);

        let _ = bn.forward(&x, true);
        let gx = bn.backward(&gout);

        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            let y = bn.forward(x, true);
            y.as_slice()
                .iter()
                .zip(gout.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2f32;
        for &idx in &[0usize, 5, 9, 17, 23, 35] {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let mut bn_p = BatchNorm2d::new(2);
            bn_p.gamma.value = bn.gamma.value.clone();
            bn_p.beta.value = bn.beta.value.clone();
            let num = (loss(&mut bn_p, &plus) - loss(&mut bn_p, &minus)) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[idx]).abs() < 5e-2,
                "dx at {idx}: {num} vs {}",
                gx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn gap_backward_distributes_evenly() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let mut gap = GlobalAvgPool::new();
        let y = gap.forward(&x, true);
        assert_eq!(y.dims(), &[1, 2]);
        let g = gap.backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]));
        assert_eq!(g.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn conv_layer_accumulates_weight_grad() {
        let mut rng = TensorRng::seed_from_u64(6);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let _ = conv.backward(&Tensor::ones(y.dims()));
        let g1 = conv.weight.grad.clone();
        // A second backward accumulates (does not overwrite).
        let _ = conv.backward(&Tensor::ones(y.dims()));
        for (a, b) in conv.weight.grad.as_slice().iter().zip(g1.as_slice()) {
            assert!(approx_eq(*a, 2.0 * b, 1e-4));
        }
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_without_forward_panics() {
        let mut r = Relu::new();
        let _ = r.backward(&Tensor::zeros(&[1]));
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut rng = TensorRng::seed_from_u64(7);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let x = uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let _ = conv.forward(&x, false);
        assert!(conv.cached_input.is_none());
        // An eval pass also drops what an earlier training pass cached.
        let mut bn = BatchNorm2d::new(1);
        let (mut relu, mut pool, mut gap) =
            (Relu::new(), MaxPool2d::new(2, 2, 0), GlobalAvgPool::new());
        for train in [true, false] {
            let _ = conv.forward(&x, train);
            let _ = bn.forward(&x, train);
            let _ = relu.forward(&x, train);
            let _ = pool.forward(&x, train);
            let _ = gap.forward(&x, train);
        }
        assert!(conv.cached_input.is_none() && bn.cache.is_none() && relu.mask.is_none());
        assert!(pool.cache.is_none() && gap.cached_dims.is_none());
    }
}
