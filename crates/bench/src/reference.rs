//! Frozen pre-optimization kernels, kept verbatim as the *before* side
//! of the performance trajectory.
//!
//! `gemm_reference` is the original triple-loop saxpy GEMM the packed
//! kernel replaced (including its `aik == 0.0` skip — the NaN-masking
//! bug fixed in the live kernel; preserved here because this module's
//! one job is to measure exactly what shipped before). It must never be
//! used for computation, only timed against.

/// k-dimension tile of the original kernel.
const KC: usize = 256;

/// The pre-change saxpy GEMM: `c[m x n] = a[m x k] * b[k x n]`.
pub fn gemm_reference(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    c.fill(0.0);
    for (i, c_row) in c.chunks_mut(n).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        let mut k0 = 0;
        while k0 < k {
            let k1 = (k0 + KC).min(k);
            for kk in k0..k1 {
                let aik = a_row[kk];
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..kk * n + n];
                for (cj, &bj) in c_row.iter_mut().zip(b_row.iter()) {
                    *cj += aik * bj;
                }
            }
            k0 = k1;
        }
    }
}

/// The pre-change conv2d forward: per-sample im2col into a fresh heap
/// allocation, then the reference GEMM — the allocation-per-sample
/// behavior the arena removed.
pub fn conv2d_reference(
    input: &hydronas_tensor::Tensor,
    weight: &hydronas_tensor::Tensor,
    stride: usize,
    padding: usize,
) -> hydronas_tensor::Tensor {
    use hydronas_tensor::{im2col, Conv2dDims, Tensor};
    let d = Conv2dDims::resolve(input.dims(), weight.dims(), stride, padding)
        .expect("conv2d_reference: kernel does not fit input");
    let mut out = Tensor::zeros(&[d.batch, d.out_c, d.out_h, d.out_w]);
    let in_sz = d.in_c * d.in_h * d.in_w;
    let out_sz = d.out_c * d.out_h * d.out_w;
    let w = weight.as_slice();
    let inp = input.as_slice();
    for (n, out_n) in out.as_mut_slice().chunks_mut(out_sz).enumerate() {
        let mut col = vec![0.0f32; d.col_rows() * d.col_cols()];
        im2col(&inp[n * in_sz..(n + 1) * in_sz], &d, &mut col);
        gemm_reference(w, &col, out_n, d.out_c, d.col_rows(), d.col_cols());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydronas_tensor::{approx_eq, Epilogue, GemmA, GemmB};

    #[test]
    fn reference_gemm_agrees_with_live_kernel_on_finite_data() {
        let (m, k, n) = (33, 300, 47);
        let a: Vec<f32> = (0..m * k).map(|v| ((v % 13) as f32) * 0.1 - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|v| ((v % 17) as f32) * 0.1 - 0.8).collect();
        let mut want = vec![0.0; m * n];
        let (a_op, b_op) = (GemmA::Slice(&a), GemmB::Slice(&b));
        hydronas_tensor::gemm(a_op, b_op, &mut want, m, k, n, Epilogue::None);
        let mut got = vec![0.0; m * n];
        gemm_reference(&a, &b, &mut got, m, k, n);
        for (x, y) in got.iter().zip(want.iter()) {
            assert!(approx_eq(*x, *y, 1e-4), "{x} vs {y}");
        }
    }

    #[test]
    fn reference_gemm_still_masks_nan_behind_zero() {
        // The preserved bug, asserted so nobody "fixes" the baseline: a
        // zero A entry hides NaN in B. The live kernel's regression test
        // asserts the opposite.
        let a = [0.0f32, 0.0];
        let b = [f32::NAN, f32::NAN];
        let mut c = [0.0f32];
        gemm_reference(&a, &b, &mut c, 1, 2, 1);
        assert!(!c[0].is_nan(), "the frozen baseline masks NaN by design");
    }
}
