//! Optimizers: SGD with momentum and weight decay.
//!
//! State is keyed by parameter visit position, which the
//! [`ParamVisitor`] contract guarantees is stable.

use crate::param::ParamVisitor;
use hydronas_tensor::Tensor;

/// Common optimizer interface.
pub trait Optimizer {
    /// Applies one update step from accumulated gradients, then leaves the
    /// gradients untouched (call [`ParamVisitor::zero_grad`] separately).
    fn step(&mut self, model: &mut dyn ParamVisitor);
}

/// Stochastic gradient descent with classical momentum and decoupled L2
/// weight decay.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Sgd {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum in [0,1)");
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn ParamVisitor) {
        let mut idx = 0usize;
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        model.visit_params(&mut |p| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(p.value.dims()));
            }
            let v = &mut velocity[idx];
            assert_eq!(v.dims(), p.value.dims(), "optimizer state shape drift");
            let vd = v.as_mut_slice();
            let pv = p.value.as_mut_slice();
            let g = p.grad.as_slice();
            for i in 0..pv.len() {
                let grad = g[i] + wd * pv[i];
                vd[i] = mu * vd[i] + grad;
                pv[i] -= lr * vd[i];
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    /// Quadratic bowl: loss = 0.5 * ||w - target||^2, grad = w - target.
    struct Bowl {
        w: Param,
        target: Vec<f32>,
    }

    impl Bowl {
        fn new(start: &[f32], target: &[f32]) -> Bowl {
            Bowl {
                w: Param::new(Tensor::from_slice(start)),
                target: target.to_vec(),
            }
        }

        fn compute_grad(&mut self) {
            self.w.zero_grad();
            let g: Vec<f32> = self
                .w
                .value
                .as_slice()
                .iter()
                .zip(&self.target)
                .map(|(w, t)| w - t)
                .collect();
            self.w.accumulate(&Tensor::from_slice(&g));
        }

        fn loss(&self) -> f32 {
            self.w
                .value
                .as_slice()
                .iter()
                .zip(&self.target)
                .map(|(w, t)| 0.5 * (w - t) * (w - t))
                .sum()
        }
    }

    impl ParamVisitor for Bowl {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.w);
        }
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut bowl = Bowl::new(&[5.0, -3.0], &[1.0, 2.0]);
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        for _ in 0..200 {
            bowl.compute_grad();
            opt.step(&mut bowl);
        }
        assert!(bowl.loss() < 1e-8, "loss {}", bowl.loss());
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| {
            let mut bowl = Bowl::new(&[10.0], &[0.0]);
            let mut opt = Sgd::new(0.01, momentum, 0.0);
            for _ in 0..100 {
                bowl.compute_grad();
                opt.step(&mut bowl);
            }
            bowl.loss()
        };
        assert!(
            run(0.9) < run(0.0),
            "momentum should converge faster on a bowl"
        );
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        // With zero task gradient, decay alone pulls weights toward zero.
        let mut bowl = Bowl::new(&[4.0], &[4.0]); // grad = 0 at start
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        bowl.compute_grad();
        opt.step(&mut bowl);
        let w = bowl.w.value.as_slice()[0];
        assert!(w < 4.0, "decay should shrink weight, got {w}");
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0, 0.0, 0.0);
    }
}
