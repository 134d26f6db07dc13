//! Property-based tests for the tensor substrate: algebraic identities the
//! kernels must satisfy for any input.

use hydronas_tensor::{
    approx_eq, avg_pool2d_global, conv2d, conv2d_backward, conv_out_dim, gemm, max_pool2d,
    max_pool2d_backward, Epilogue, GemmA, GemmB, Tensor,
};
use proptest::prelude::*;

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-4.0f32..4.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEMM distributes over addition: (A + A') B == AB + A'B.
    #[test]
    fn gemm_is_linear(
        a1 in tensor_strategy(6 * 5),
        a2 in tensor_strategy(6 * 5),
        b in tensor_strategy(5 * 4),
    ) {
        let (m, k, n) = (6, 5, 4);
        let sum: Vec<f32> = a1.iter().zip(&a2).map(|(x, y)| x + y).collect();
        let mut c_sum = vec![0.0; m * n];
        gemm(GemmA::Slice(&sum), GemmB::Slice(&b), &mut c_sum, m, k, n, Epilogue::None);
        let mut c1 = vec![0.0; m * n];
        gemm(GemmA::Slice(&a1), GemmB::Slice(&b), &mut c1, m, k, n, Epilogue::None);
        let mut c2 = vec![0.0; m * n];
        gemm(GemmA::Slice(&a2), GemmB::Slice(&b), &mut c2, m, k, n, Epilogue::None);
        for ((s, x), y) in c_sum.iter().zip(&c1).zip(&c2) {
            prop_assert!(approx_eq(*s, x + y, 1e-3), "{s} vs {}", x + y);
        }
    }

    /// Convolution is linear in the input.
    #[test]
    fn conv_is_linear_in_input(
        x1 in tensor_strategy(2 * 6 * 6),
        x2 in tensor_strategy(2 * 6 * 6),
        w in tensor_strategy(3 * 2 * 3 * 3),
        alpha in -2.0f32..2.0,
    ) {
        let t1 = Tensor::from_vec(x1.clone(), &[1, 2, 6, 6]);
        let t2 = Tensor::from_vec(x2.clone(), &[1, 2, 6, 6]);
        let wt = Tensor::from_vec(w, &[3, 2, 3, 3]);
        let combo = t1.add(&t2.scale(alpha));
        let out_combo = conv2d(&combo, &wt, 1, 1);
        let expect = conv2d(&t1, &wt, 1, 1).add(&conv2d(&t2, &wt, 1, 1).scale(alpha));
        // f32 accumulation order differs between the two sides; allow a
        // few ulps of slack near zero (catastrophic cancellation).
        for (a, b) in out_combo.as_slice().iter().zip(expect.as_slice()) {
            prop_assert!(approx_eq(*a, *b, 5e-3), "{a} vs {b}");
        }
    }

    /// <conv_backward_input(g), x> == <g, conv(x)> — the conv input
    /// gradient is the true adjoint of the forward map.
    #[test]
    fn conv_backward_is_adjoint(
        x in tensor_strategy(2 * 5 * 5),
        w in tensor_strategy(2 * 2 * 3 * 3),
        g in tensor_strategy(2 * 3 * 3),
    ) {
        let xt = Tensor::from_vec(x, &[1, 2, 5, 5]);
        let wt = Tensor::from_vec(w, &[2, 2, 3, 3]);
        let out = conv2d(&xt, &wt, 2, 1);
        prop_assert_eq!(out.dims(), &[1, 2, 3, 3]);
        let gt = Tensor::from_vec(g, &[1, 2, 3, 3]);
        let (gi, _) = conv2d_backward(&xt, &wt, &gt, 2, 1);
        let lhs: f32 = gi.as_slice().iter().zip(xt.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = gt.as_slice().iter().zip(out.as_slice()).map(|(a, b)| a * b).sum();
        prop_assert!(approx_eq(lhs, rhs, 1e-3), "{lhs} vs {rhs}");
    }

    /// Max pooling output elements always exist in the input, and pooling a
    /// constant tensor yields that constant.
    #[test]
    fn max_pool_outputs_come_from_input(x in tensor_strategy(36)) {
        let t = Tensor::from_vec(x.clone(), &[1, 1, 6, 6]);
        let (out, arg) = max_pool2d(&t, 3, 2, 1);
        for (o, &a) in out.as_slice().iter().zip(arg.iter()) {
            prop_assert_eq!(*o, x[a as usize]);
        }
        // The max over each window is >= every element reachable via argmax.
        prop_assert!(out.max() <= t.max() + 1e-6);
    }

    /// Pool backward conserves total gradient mass (every upstream unit of
    /// gradient lands on exactly one input cell).
    #[test]
    fn max_pool_backward_conserves_mass(
        x in tensor_strategy(2 * 6 * 6),
        g in tensor_strategy(2 * 3 * 3),
    ) {
        let t = Tensor::from_vec(x, &[1, 2, 6, 6]);
        let (out, arg) = max_pool2d(&t, 2, 2, 0);
        prop_assert_eq!(out.dims(), &[1, 2, 3, 3]);
        let gt = Tensor::from_vec(g.clone(), &[1, 2, 3, 3]);
        let gi = max_pool2d_backward(t.dims(), &gt, &arg, 2, 2, 0);
        let mass_in: f32 = g.iter().sum();
        prop_assert!(approx_eq(gi.sum(), mass_in, 1e-3));
    }

    /// Global average pooling equals mean per plane.
    #[test]
    fn global_avg_matches_mean(x in tensor_strategy(3 * 4 * 4)) {
        let t = Tensor::from_vec(x.clone(), &[1, 3, 4, 4]);
        let out = avg_pool2d_global(&t);
        for c in 0..3 {
            let mean: f32 = x[c * 16..(c + 1) * 16].iter().sum::<f32>() / 16.0;
            prop_assert!(approx_eq(out.as_slice()[c], mean, 1e-4));
        }
    }

    /// Output-size arithmetic is monotone: more padding never shrinks the
    /// output; larger stride never grows it.
    #[test]
    fn conv_out_dim_monotonicity(
        input in 1usize..64,
        kernel in 1usize..8,
        stride in 1usize..4,
        padding in 0usize..4,
    ) {
        if let Some(base) = conv_out_dim(input, kernel, stride, padding) {
            if let Some(more_pad) = conv_out_dim(input, kernel, stride, padding + 1) {
                prop_assert!(more_pad >= base);
            }
            if let Some(more_stride) = conv_out_dim(input, kernel, stride + 1, padding) {
                prop_assert!(more_stride <= base);
            }
            // Every valid output index maps inside the padded input.
            let last_start = (base - 1) * stride;
            prop_assert!(last_start + kernel <= input + 2 * padding);
        }
    }

    /// Broadcasting add commutes.
    #[test]
    fn broadcast_add_commutes(
        a in tensor_strategy(6),
        b in tensor_strategy(4 * 6),
    ) {
        let ta = Tensor::from_vec(a, &[6]);
        let tb = Tensor::from_vec(b, &[4, 6]);
        let ab = tb.add(&ta);
        let ba = ta.add(&tb);
        prop_assert_eq!(ab.dims(), ba.dims());
        for (x, y) in ab.as_slice().iter().zip(ba.as_slice()) {
            prop_assert!(approx_eq(*x, *y, 1e-6));
        }
    }
}
