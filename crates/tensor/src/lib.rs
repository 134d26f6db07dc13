//! # hydronas-tensor
//!
//! A compact, dependency-light N-dimensional `f32` tensor library with the
//! parallel CPU kernels needed to train convolutional networks from scratch:
//! blocked GEMM, im2col/col2im convolution, max/average pooling, reductions,
//! broadcasting elementwise arithmetic, and deterministic random
//! initialization.
//!
//! This crate is the substrate that replaces PyTorch's tensor runtime in the
//! HydroNAS reproduction. Everything is `f32`, row-major (C-contiguous), and
//! CPU-only; heavy inner loops fan out across the deterministic compute
//! pool ([`parallel`]) along the outermost independent dimension (batch or
//! row block), sized by `HYDRONAS_THREADS` / [`set_compute_threads`] and
//! bit-identical at any thread count. The GEMM at the bottom of the stack
//! is one packed, register-blocked kernel ([`gemm`]) whose operands
//! ([`GemmA`], [`GemmB`]) may be packed ahead of time and whose bias/ReLU
//! [`Epilogue`] is fused into the write-back, and kernel workspaces come
//! from per-thread scratch arenas ([`arena`]) — pool workers included —
//! so the steady-state training loop performs no per-sample heap
//! allocations.
//!
//! ## Quick example
//!
//! ```
//! use hydronas_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

pub mod arena;
mod conv;
mod gemm;
mod init;
mod ops;
pub mod parallel;
mod pool;
mod quant;
mod shape;
mod tensor;

pub use arena::{scratch, scratch_zeroed, Scratch};
pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_backward_weight, conv2d_bias_act, fused_conv_tiles,
    im2col, pack_conv_weight, Conv2dDims, PackedConvWeight,
};
pub use gemm::{gemm, Epilogue, GemmA, GemmB, PackedA, PackedBLayout};
pub use init::{kaiming_normal, kaiming_uniform, uniform, TensorRng};
pub use parallel::{compute_threads, set_compute_threads};
pub use pool::{avg_pool2d_global, max_pool2d, max_pool2d_backward, PoolDims};
pub use quant::{conv2d_q8, qgemm_nt, quantize_slice_i8, QEpilogue, QuantizedConvWeight};
pub use shape::{conv_out_dim, Shape};
pub use tensor::Tensor;

/// Relative-tolerance float comparison used throughout tests and validation.
///
/// Returns `true` when `a` and `b` agree to within `rel` relative tolerance
/// (with an absolute floor of `rel * 1e-2` near zero).
pub fn approx_eq(a: f32, b: f32, rel: f32) -> bool {
    let scale = a.abs().max(b.abs()).max(1e-2);
    (a - b).abs() <= rel * scale
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-7, 1e-5));
        assert!(!approx_eq(1.0, 1.1, 1e-5));
        assert!(approx_eq(0.0, 1e-8, 1e-5));
    }
}
