//! Property-based tests for the training stack.

use hydronas_nn::{BatchNorm2d, CrossEntropyLoss, Linear, Relu};
use hydronas_tensor::{Tensor, TensorRng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cross-entropy gradient rows sum to zero (softmax minus one-hot).
    #[test]
    fn cross_entropy_grad_rows_sum_to_zero(
        logits in proptest::collection::vec(-5.0f32..5.0, 4 * 3),
        targets in proptest::collection::vec(0usize..3, 4),
    ) {
        let t = Tensor::from_vec(logits, &[4, 3]);
        let (loss, grad) = CrossEntropyLoss.forward_backward(&t, &targets);
        prop_assert!(loss.is_finite() && loss >= 0.0);
        for row in grad.as_slice().chunks(3) {
            let s: f32 = row.iter().sum();
            prop_assert!(s.abs() < 1e-5, "row sums to {s}");
        }
    }

    /// Lower loss for the true class: raising the target logit can only
    /// decrease the loss.
    #[test]
    fn loss_decreases_when_target_logit_rises(
        logits in proptest::collection::vec(-3.0f32..3.0, 3),
        target in 0usize..3,
    ) {
        let t = Tensor::from_vec(logits.clone(), &[1, 3]);
        let (l0, _) = CrossEntropyLoss.forward_backward(&t, &[target]);
        let mut raised = logits;
        raised[target] += 1.0;
        let t2 = Tensor::from_vec(raised, &[1, 3]);
        let (l1, _) = CrossEntropyLoss.forward_backward(&t2, &[target]);
        prop_assert!(l1 <= l0 + 1e-6, "{l1} > {l0}");
    }

    /// ReLU backward never increases gradient magnitude.
    #[test]
    fn relu_backward_is_contraction(
        x in proptest::collection::vec(-2.0f32..2.0, 24),
        g in proptest::collection::vec(-2.0f32..2.0, 24),
    ) {
        let mut relu = Relu::new();
        let _ = relu.forward(&Tensor::from_slice(&x), true);
        let out = relu.backward(&Tensor::from_slice(&g));
        for (o, gi) in out.as_slice().iter().zip(&g) {
            prop_assert!(o.abs() <= gi.abs() + 1e-7);
        }
    }

    /// Linear layers are affine: f(ax) = a f(x) + (1-a) f(0).
    #[test]
    fn linear_is_affine(
        x in proptest::collection::vec(-2.0f32..2.0, 4),
        alpha in -2.0f32..2.0,
    ) {
        let mut rng = TensorRng::seed_from_u64(7);
        let mut lin = Linear::new(4, 3, &mut rng);
        let xt = Tensor::from_vec(x.clone(), &[1, 4]);
        let scaled = Tensor::from_vec(x.iter().map(|v| v * alpha).collect(), &[1, 4]);
        let zero = Tensor::zeros(&[1, 4]);
        let f_x = lin.forward(&xt, false);
        let f_ax = lin.forward(&scaled, false);
        let f_0 = lin.forward(&zero, false);
        for i in 0..3 {
            let want = alpha * f_x.as_slice()[i] + (1.0 - alpha) * f_0.as_slice()[i];
            prop_assert!((f_ax.as_slice()[i] - want).abs() < 1e-3,
                "{} vs {}", f_ax.as_slice()[i], want);
        }
    }

    /// Batch norm output in train mode is bounded by gamma-scaled
    /// normalized extremes regardless of input scale.
    #[test]
    fn batchnorm_output_is_scale_invariant(
        data in proptest::collection::vec(-1.0f32..1.0, 2 * 2 * 9),
        scale in 1.0f32..100.0,
    ) {
        // BN(x) == BN(s * x) in train mode (mean/var rescale together).
        let x1 = Tensor::from_vec(data.clone(), &[2, 2, 3, 3]);
        let x2 = Tensor::from_vec(data.iter().map(|v| v * scale).collect(), &[2, 2, 3, 3]);
        let mut bn1 = BatchNorm2d::new(2);
        let mut bn2 = BatchNorm2d::new(2);
        let y1 = bn1.forward(&x1, true);
        let y2 = bn2.forward(&x2, true);
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            prop_assert!((a - b).abs() < 2e-2, "{a} vs {b}");
        }
    }
}
