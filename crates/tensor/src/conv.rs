//! 2-d convolution via im2col + GEMM, with full backward passes.
//!
//! Layout conventions follow PyTorch: activations are NCHW, weights are
//! `[out_c, in_c, kh, kw]`.
//!
//! * Training runs [`conv2d`] and [`conv2d_backward`]. Batch samples are
//!   independent, so both fan out across the batch on the deterministic
//!   compute pool ([`crate::parallel`]): each sample's task owns that
//!   sample's output slice and its GEMM runs inline inside the task, so
//!   results are bit-identical at any thread count.
//! * Serving runs [`conv2d_bias_act`], the one fused conv: a BN-folded
//!   weight packed once by [`pack_conv_weight`], and the whole batch in
//!   one GEMM whose column operand im2col writes in packed panel layout,
//!   the samples unfolding in parallel.

use crate::arena::scratch;
use crate::gemm::{gemm, Epilogue, GemmA, GemmB, PackedA, PackedBLayout};
use crate::parallel::{self, SharedSlice};
use crate::shape::conv_out_dim;
use crate::tensor::Tensor;

/// Resolved convolution geometry for one (input, kernel) pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dDims {
    pub batch: usize,
    pub in_c: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub out_c: usize,
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
    pub out_h: usize,
    pub out_w: usize,
}

impl Conv2dDims {
    /// Validates shapes and computes output extents.
    ///
    /// Returns `None` for any invalid geometry — a kernel that does not
    /// fit the (padded) input (the "collapsed feature map" failure), a
    /// non-square kernel, or an input/weight channel mismatch. The NAS
    /// scheduler rejects such candidates as failed trials; resolving must
    /// therefore never abort the sweep.
    pub fn resolve(
        input_dims: &[usize],
        weight_dims: &[usize],
        stride: usize,
        padding: usize,
    ) -> Option<Conv2dDims> {
        assert_eq!(input_dims.len(), 4, "conv input must be NCHW");
        assert_eq!(weight_dims.len(), 4, "conv weight must be [O,I,Kh,Kw]");
        if weight_dims[2] != weight_dims[3] || input_dims[1] != weight_dims[1] {
            return None;
        }
        let kernel = weight_dims[2];
        let out_h = conv_out_dim(input_dims[2], kernel, stride, padding)?;
        let out_w = conv_out_dim(input_dims[3], kernel, stride, padding)?;
        if out_h == 0 || out_w == 0 {
            return None;
        }
        Some(Conv2dDims {
            batch: input_dims[0],
            in_c: input_dims[1],
            in_h: input_dims[2],
            in_w: input_dims[3],
            out_c: weight_dims[0],
            kernel,
            stride,
            padding,
            out_h,
            out_w,
        })
    }

    /// Rows of the im2col matrix: `in_c * k * k`.
    pub fn col_rows(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Writes one row of a CHW image's column matrix into `dst`
/// (`out_h * out_w` values): the tap `(ky, kx)` of channel `plane` under
/// each output pixel, 0 in the padding. [`im2col`] and the packed im2col
/// of [`conv2d_bias_act`] share it; both visit rows in `(c, ky, kx)`
/// order.
fn unfold_row(plane: &[f32], d: &Conv2dDims, ky: usize, kx: usize, dst: &mut [f32]) {
    for oy in 0..d.out_h {
        let iy = (oy * d.stride + ky) as isize - d.padding as isize;
        let base = oy * d.out_w;
        if iy < 0 || iy >= d.in_h as isize {
            dst[base..base + d.out_w].fill(0.0);
            continue;
        }
        let src_row = &plane[iy as usize * d.in_w..(iy as usize + 1) * d.in_w];
        for ox in 0..d.out_w {
            let ix = (ox * d.stride + kx) as isize - d.padding as isize;
            dst[base + ox] = if ix < 0 || ix >= d.in_w as isize {
                0.0
            } else {
                src_row[ix as usize]
            };
        }
    }
}

/// Unfolds one CHW image into the `[in_c*k*k, out_h*out_w]` column matrix.
pub fn im2col(img: &[f32], d: &Conv2dDims, col: &mut [f32]) {
    assert_eq!(img.len(), d.in_c * d.in_h * d.in_w);
    assert_eq!(col.len(), d.col_rows() * d.col_cols());
    let mut rows = col.chunks_exact_mut(d.col_cols());
    for plane in img.chunks_exact(d.in_h * d.in_w) {
        for ky in 0..d.kernel {
            for kx in 0..d.kernel {
                let dst = rows.next().expect("col holds in_c*k*k rows");
                unfold_row(plane, d, ky, kx, dst);
            }
        }
    }
}

/// Folds a column matrix back into a CHW image, accumulating overlaps —
/// the adjoint of [`im2col`], used for input gradients.
pub fn col2im(col: &[f32], d: &Conv2dDims, img: &mut [f32]) {
    assert_eq!(img.len(), d.in_c * d.in_h * d.in_w);
    assert_eq!(col.len(), d.col_rows() * d.col_cols());
    img.fill(0.0);
    let cols = d.col_cols();
    for c in 0..d.in_c {
        let plane = &mut img[c * d.in_h * d.in_w..(c + 1) * d.in_h * d.in_w];
        for ky in 0..d.kernel {
            for kx in 0..d.kernel {
                let row = (c * d.kernel + ky) * d.kernel + kx;
                let src = &col[row * cols..(row + 1) * cols];
                for oy in 0..d.out_h {
                    let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                    if iy < 0 || iy >= d.in_h as isize {
                        continue;
                    }
                    for ox in 0..d.out_w {
                        let ix = (ox * d.stride + kx) as isize - d.padding as isize;
                        if ix < 0 || ix >= d.in_w as isize {
                            continue;
                        }
                        plane[iy as usize * d.in_w + ix as usize] += src[oy * d.out_w + ox];
                    }
                }
            }
        }
    }
}

/// Convolution forward: `input [N,C,H,W] * weight [O,C,k,k] -> [N,O,H',W']`.
pub fn conv2d(input: &Tensor, weight: &Tensor, stride: usize, padding: usize) -> Tensor {
    let d = Conv2dDims::resolve(input.dims(), weight.dims(), stride, padding)
        .expect("conv2d: kernel does not fit input");
    if hydronas_telemetry::enabled() {
        hydronas_telemetry::add_all(&[
            ("tensor.conv2d.calls", 1),
            (
                "tensor.conv2d.flops",
                (d.batch * 2 * d.out_c * d.col_rows() * d.col_cols()) as u64,
            ),
            (
                "tensor.conv2d.bytes",
                (4 * (input.numel() + weight.numel() + d.batch * d.out_c * d.col_cols())) as u64,
            ),
        ]);
    }
    let mut out = Tensor::zeros(&[d.batch, d.out_c, d.out_h, d.out_w]);
    let in_sz = d.in_c * d.in_h * d.in_w;
    let out_sz = d.out_c * d.out_h * d.out_w;
    let w = weight.as_slice();
    let inp = input.as_slice();

    parallel::par_chunks_mut(out.as_mut_slice(), out_sz, |n, out_n| {
        // im2col fully overwrites the column matrix, so the scratch
        // checkout never clears — zero allocations per sample once
        // the per-thread arena is warm (pool workers included).
        let (cr, cc) = (d.col_rows(), d.col_cols());
        let mut col = scratch(cr * cc);
        im2col(&inp[n * in_sz..(n + 1) * in_sz], &d, &mut col);
        // [out_c, col_rows] x [col_rows, col_cols] -> [out_c, col_cols]
        let (a, b) = (GemmA::Slice(w), GemmB::Slice(&col));
        gemm(a, b, out_n, d.out_c, cr, cc, Epilogue::None);
    });
    out
}

/// A conv weight repacked once into GEMM A panels, for serving paths that
/// run the same immutable weights on every request.
pub struct PackedConvWeight {
    out_c: usize,
    in_c: usize,
    kernel: usize,
    a: PackedA,
}

impl PackedConvWeight {
    /// Output channels.
    pub fn out_c(&self) -> usize {
        self.out_c
    }

    /// Input channels.
    pub fn in_c(&self) -> usize {
        self.in_c
    }

    /// Square kernel extent.
    pub fn kernel(&self) -> usize {
        self.kernel
    }
}

/// Packs an `[O, I, kh, kw]` conv weight into the GEMM panel layout
/// [`conv2d_bias_act`] consumes. Pack once at plan-compile time;
/// every subsequent conv call skips its weight-packing pass entirely.
pub fn pack_conv_weight(weight: &Tensor) -> PackedConvWeight {
    let dims = weight.dims();
    assert_eq!(dims.len(), 4, "conv weight must be [O,I,Kh,Kw]");
    assert_eq!(dims[2], dims[3], "conv kernels are square");
    let (out_c, in_c, kernel) = (dims[0], dims[1], dims[2]);
    PackedConvWeight {
        out_c,
        in_c,
        kernel,
        a: PackedA::pack(weight.as_slice(), out_c, in_c * kernel * kernel),
    }
}

/// [`im2col`] writing straight into a packed-B buffer: each unfolded row
/// is staged in a cache-hot row buffer, then scattered to its panels in
/// `NR`-wide chunks — the row-major `[cr, N*cc]` column matrix is never
/// materialized, and the GEMM's B-packing pass disappears with it. The
/// sample's columns land at `[col0, col0 + out_h*out_w)`.
///
/// # Safety
/// Concurrent callers must target disjoint `col0` column blocks of the
/// same layout; the panel mapping keeps them disjoint in `out`.
unsafe fn im2col_packed(
    img: &[f32],
    d: &Conv2dDims,
    layout: &PackedBLayout,
    out: &SharedSlice<'_, f32>,
    col0: usize,
) {
    assert_eq!(img.len(), d.in_c * d.in_h * d.in_w);
    let mut rowbuf = scratch(d.col_cols());
    let mut r = 0;
    for plane in img.chunks_exact(d.in_h * d.in_w) {
        for ky in 0..d.kernel {
            for kx in 0..d.kernel {
                unfold_row(plane, d, ky, kx, &mut rowbuf);
                layout.write_row_shared(out, r, col0, &rowbuf);
                r += 1;
            }
        }
    }
}

/// Fused inference convolution over a prepacked weight: `conv2d(input,
/// weight) + bias` with an optional ReLU, all applied inside the GEMM's
/// final write-back — the serving path's conv kernel.
///
/// `bias` is per output channel (`len == out_c`), which in the im2col
/// formulation `weight [out_c, cr] x col [cr, cc]` is a per-*row* bias
/// ([`Epilogue::RowBias`] / [`Epilogue::RowBiasRelu`]). This is the
/// execution shape of a conv whose following BatchNorm has been folded
/// into the weights: one GEMM, no separate bias or activation pass over
/// the output.
///
/// The whole batch is one GEMM call against a `[cr, N*cc]` column matrix,
/// which wins twice on a serving box: deep layers with tiny feature maps
/// (`cc` of 1–16) fill the GEMM micro-tiles with real columns instead of
/// padding, and no operand is packed per call — the weight panels were
/// packed once by [`pack_conv_weight`], and every sample's im2col writes
/// its columns directly in packed panel layout, in parallel.
///
/// Numerics: both operands are prepacked, so the GEMM takes its packed
/// path at any shape, and each output column's bits are independent of
/// how many samples share the call — a batch of one is bit-identical to
/// any row of a larger batch.
pub fn conv2d_bias_act(
    input: &Tensor,
    weight: &PackedConvWeight,
    bias: &[f32],
    relu: bool,
    stride: usize,
    padding: usize,
) -> Tensor {
    let wdims = [weight.out_c, weight.in_c, weight.kernel, weight.kernel];
    let d = Conv2dDims::resolve(input.dims(), &wdims, stride, padding)
        .expect("conv2d_bias_act: kernel does not fit input");
    assert_eq!(bias.len(), d.out_c, "bias must be per output channel");
    if hydronas_telemetry::enabled() {
        hydronas_telemetry::add_all(&[
            ("tensor.conv2d_fused.calls", 1),
            (
                "tensor.conv2d_fused.flops",
                (d.batch * 2 * d.out_c * d.col_rows() * d.col_cols()) as u64,
            ),
        ]);
    }
    let cr = d.col_rows();
    let cc = d.col_cols();
    let wide = d.batch * cc;
    let in_sz = d.in_c * d.in_h * d.in_w;
    let inp = input.as_slice();

    let layout = PackedBLayout::new(cr, wide);
    let mut col_pack = scratch(layout.len());
    {
        let shard = SharedSlice::new(&mut col_pack);
        parallel::run_tasks(d.batch, |s| {
            // SAFETY: per-sample column blocks are pairwise disjoint.
            unsafe {
                im2col_packed(
                    &inp[s * in_sz..(s + 1) * in_sz],
                    &d,
                    &layout,
                    &shard,
                    s * cc,
                );
            }
        });
    }
    layout.zero_pad_lanes(&mut col_pack);

    // [out_c, cr] x [cr, N*cc] -> [out_c, N*cc], bias per channel row.
    let mut c_wide = scratch(d.out_c * wide);
    let epi = if relu {
        Epilogue::RowBiasRelu(bias)
    } else {
        Epilogue::RowBias(bias)
    };
    let (a, b) = (GemmA::Packed(&weight.a), GemmB::Packed(&layout, &col_pack));
    gemm(a, b, &mut c_wide, d.out_c, cr, wide, epi);

    // Scatter [out_c, N*cc] back to NCHW.
    let mut out = Tensor::zeros(&[d.batch, d.out_c, d.out_h, d.out_w]);
    let o = out.as_mut_slice();
    for s in 0..d.batch {
        for ch in 0..d.out_c {
            let dst = (s * d.out_c + ch) * cc;
            let src = ch * wide + s * cc;
            o[dst..dst + cc].copy_from_slice(&c_wide[src..src + cc]);
        }
    }
    out
}

/// Convolution backward.
///
/// Given upstream `grad_out [N,O,H',W']`, returns
/// `(grad_input [N,C,H,W], grad_weight [O,C,k,k])`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    padding: usize,
) -> (Tensor, Tensor) {
    let d = Conv2dDims::resolve(input.dims(), weight.dims(), stride, padding)
        .expect("conv2d_backward: kernel does not fit input");
    assert_eq!(grad_out.dims(), &[d.batch, d.out_c, d.out_h, d.out_w]);

    let in_sz = d.in_c * d.in_h * d.in_w;
    let out_sz = d.out_c * d.out_h * d.out_w;
    let cr = d.col_rows();
    let cc = d.col_cols();
    if hydronas_telemetry::enabled() {
        // Two GEMMs per sample (input grad + weight grad), 2*out_c*cr*cc
        // multiply-adds each.
        hydronas_telemetry::add_all(&[
            ("tensor.conv2d_backward.calls", 1),
            (
                "tensor.conv2d_backward.flops",
                (d.batch * 4 * d.out_c * cr * cc) as u64,
            ),
            (
                "tensor.conv2d_backward.bytes",
                (4 * (2 * input.numel() + 2 * weight.numel() + grad_out.numel())) as u64,
            ),
        ]);
    }
    let w_t = weight.reshape(&[d.out_c, cr]).transpose2(); // [cr, out_c]

    let inp = input.as_slice();
    let go = grad_out.as_slice();

    // Per-sample partials land in disjoint slices of one flat scratch
    // buffer (not a Vec per sample), then reduce sequentially in sample
    // order — deterministic for any worker count, and zero per-sample
    // heap allocations once the arenas are warm.
    let gw_sz = d.out_c * cr;
    let mut grad_input = Tensor::zeros(input.dims());
    let mut gw_all = scratch(d.batch * gw_sz);
    parallel::par_chunks_mut2(
        grad_input.as_mut_slice(),
        in_sz,
        &mut gw_all,
        gw_sz,
        |n, gi_n, gw_n| {
            let go_n = &go[n * out_sz..(n + 1) * out_sz];
            // grad wrt columns: W^T [cr, out_c] x grad_out [out_c, cc].
            // The GEMM fully overwrites gcol, so unspecified scratch
            // contents are fine.
            let mut gcol = scratch(cr * cc);
            let (a, b) = (GemmA::Slice(w_t.as_slice()), GemmB::Slice(go_n));
            gemm(a, b, &mut gcol, cr, d.out_c, cc, Epilogue::None);
            col2im(&gcol, &d, gi_n);

            // grad wrt weight: grad_out [out_c, cc] x col^T [cc, cr].
            // The im2col matrix [cr, cc] already *is* col^T in
            // transposed storage, so the GEMM reads it as a transposed B
            // instead of materializing a transposed copy per sample.
            let mut col = scratch(cr * cc);
            im2col(&inp[n * in_sz..(n + 1) * in_sz], &d, &mut col);
            let (a, b) = (GemmA::Slice(go_n), GemmB::Transposed(&col));
            gemm(a, b, gw_n, d.out_c, cc, cr, Epilogue::None);
        },
    );

    let mut grad_weight = Tensor::zeros(weight.dims());
    for gw in gw_all.chunks_exact(gw_sz) {
        for (dst, &src) in grad_weight.as_mut_slice().iter_mut().zip(gw.iter()) {
            *dst += src;
        }
    }
    (grad_input, grad_weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::init::{uniform, TensorRng};

    /// Direct (non-im2col) reference convolution.
    fn naive_conv(input: &Tensor, weight: &Tensor, stride: usize, padding: usize) -> Tensor {
        let d = Conv2dDims::resolve(input.dims(), weight.dims(), stride, padding).unwrap();
        let mut out = Tensor::zeros(&[d.batch, d.out_c, d.out_h, d.out_w]);
        for n in 0..d.batch {
            for o in 0..d.out_c {
                for oy in 0..d.out_h {
                    for ox in 0..d.out_w {
                        let mut acc = 0.0;
                        for c in 0..d.in_c {
                            for ky in 0..d.kernel {
                                for kx in 0..d.kernel {
                                    let iy = (oy * stride + ky) as isize - padding as isize;
                                    let ix = (ox * stride + kx) as isize - padding as isize;
                                    if iy < 0
                                        || ix < 0
                                        || iy >= d.in_h as isize
                                        || ix >= d.in_w as isize
                                    {
                                        continue;
                                    }
                                    acc += input.at(&[n, c, iy as usize, ix as usize])
                                        * weight.at(&[o, c, ky, kx]);
                                }
                            }
                        }
                        *out.at_mut(&[n, o, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1.0 on a single channel is identity.
        let input = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv2d(&input, &weight, 1, 0);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn matches_naive_over_geometry_grid() {
        let mut rng = TensorRng::seed_from_u64(99);
        for &(h, k, s, p) in &[
            (8, 3, 1, 1),
            (8, 3, 2, 1),
            (9, 7, 2, 3),
            (5, 2, 2, 0),
            (6, 3, 1, 0),
        ] {
            let input = uniform(&[2, 3, h, h], -1.0, 1.0, &mut rng);
            let weight = uniform(&[4, 3, k, k], -0.5, 0.5, &mut rng);
            let fast = conv2d(&input, &weight, s, p);
            let slow = naive_conv(&input, &weight, s, p);
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!(
                    approx_eq(*a, *b, 1e-4),
                    "h={h} k={k} s={s} p={p}: {a} vs {b}"
                );
            }
        }
    }

    /// The fused conv must be (a) correct against the direct reference
    /// within float-reassociation tolerance, (b) bit-identical per sample
    /// across batch sizes, and (c) with ReLU exactly `max(0, no-ReLU)`.
    /// The geometry sits in the GEMM small/packed divergence zone
    /// (k = 32·3·3 = 288 > KC, per-sample column count 9) where a
    /// shape-dispatched GEMM would flip paths — and bits — as the batch
    /// grows.
    #[test]
    fn fused_conv_is_correct_and_batch_size_invariant() {
        let mut rng = TensorRng::seed_from_u64(43);
        let (batch, in_c, out_c, h, k, s, p) = (4usize, 32usize, 8usize, 5usize, 3usize, 1, 0);
        let input = uniform(&[batch, in_c, h, h], -1.0, 1.0, &mut rng);
        let weight = uniform(&[out_c, in_c, k, k], -0.5, 0.5, &mut rng);
        let packed = pack_conv_weight(&weight);
        let bias: Vec<f32> = (0..out_c).map(|i| i as f32 * 0.1 - 0.3).collect();
        let reference = naive_conv(&input, &weight, s, p);
        let plane = reference.numel() / (batch * out_c);
        let plain = conv2d_bias_act(&input, &packed, &bias, false, s, p);
        assert_eq!(plain.dims(), reference.dims());
        for (i, (got, want)) in plain
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .enumerate()
        {
            let want = want + bias[(i / plane) % out_c];
            assert!(
                approx_eq(*got, want, 1e-4),
                "fused conv drifted from the direct reference: {got} vs {want}"
            );
        }
        let relu = conv2d_bias_act(&input, &packed, &bias, true, s, p);
        for (&r, &v) in relu.as_slice().iter().zip(plain.as_slice()) {
            assert_eq!(r.to_bits(), v.max(0.0).to_bits(), "ReLU is max(0, no-ReLU)");
        }
        // Each sample re-run alone must reproduce its batched bits.
        for (relu, wide) in [(false, &plain), (true, &relu)] {
            let in_sz = in_c * h * h;
            for sample in 0..batch {
                let one = Tensor::from_vec(
                    input.as_slice()[sample * in_sz..(sample + 1) * in_sz].to_vec(),
                    &[1, in_c, h, h],
                );
                let alone = conv2d_bias_act(&one, &packed, &bias, relu, s, p);
                let plane = alone.numel();
                for (j, (got, want)) in wide.as_slice()[sample * plane..(sample + 1) * plane]
                    .iter()
                    .zip(alone.as_slice())
                    .enumerate()
                {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "sample {sample} elem {j} changed bits with batch size (relu={relu})"
                    );
                }
            }
        }
    }

    /// The packed im2col must write exactly the panels that row-major
    /// im2col plus packing would, so the fused conv equals the all-slice
    /// GEMM over the row-major `[cr, N*cc]` column matrix bit for bit,
    /// with the bias (and ReLU) fused exactly as an unfused pass would
    /// apply them. Geometries cover stride, padding, multi-row-block
    /// out_c and multi-k-block cr, all on the GEMM's packed path.
    #[test]
    fn packed_im2col_matches_row_major_im2col_and_packing() {
        let mut rng = TensorRng::seed_from_u64(47);
        for &(in_c, out_c, h, k, s, p) in &[
            (32usize, 100usize, 7usize, 3usize, 1usize, 1usize),
            (32, 8, 9, 3, 2, 1),
            (3, 24, 9, 7, 2, 3),
        ] {
            let batch = 3;
            let input = uniform(&[batch, in_c, h, h], -1.0, 1.0, &mut rng);
            let weight = uniform(&[out_c, in_c, k, k], -0.5, 0.5, &mut rng);
            let packed = pack_conv_weight(&weight);
            let bias: Vec<f32> = (0..out_c).map(|i| i as f32 * 0.05 - 0.2).collect();
            let d = Conv2dDims::resolve(input.dims(), weight.dims(), s, p).unwrap();
            let (cr, cc) = (d.col_rows(), d.col_cols());
            let (wide, in_sz) = (batch * cc, in_c * h * h);
            let case = format!("in_c={in_c} out_c={out_c} h={h} k={k} s={s} p={p}");

            // Row-major [cr, N*cc]: each sample's im2col in its column block.
            let mut col_wide = vec![0.0f32; cr * wide];
            let mut col = vec![0.0f32; cr * cc];
            for n in 0..batch {
                im2col(&input.as_slice()[n * in_sz..(n + 1) * in_sz], &d, &mut col);
                for r in 0..cr {
                    col_wide[r * wide + n * cc..][..cc].copy_from_slice(&col[r * cc..][..cc]);
                }
            }
            let layout = PackedBLayout::new(cr, wide);
            let mut want_panels = vec![f32::NAN; layout.len()];
            layout.pack(&col_wide, &mut want_panels);
            let mut got_panels = vec![f32::NAN; layout.len()];
            {
                let shard = SharedSlice::new(&mut got_panels);
                for n in 0..batch {
                    let img = &input.as_slice()[n * in_sz..(n + 1) * in_sz];
                    // SAFETY: one writer at a time.
                    unsafe { im2col_packed(img, &d, &layout, &shard, n * cc) };
                }
            }
            layout.zero_pad_lanes(&mut got_panels);
            for (i, (x, y)) in got_panels.iter().zip(&want_panels).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{case}: panel float {i} differs");
            }

            let mut unfused = vec![0.0f32; out_c * wide];
            let (a, b) = (GemmA::Slice(weight.as_slice()), GemmB::Slice(&col_wide));
            gemm(a, b, &mut unfused, out_c, cr, wide, Epilogue::None);
            for &relu in &[false, true] {
                let got = conv2d_bias_act(&input, &packed, &bias, relu, s, p);
                for n in 0..batch {
                    for ch in 0..out_c {
                        for j in 0..cc {
                            let v = unfused[ch * wide + n * cc + j] + bias[ch];
                            let want = if relu { v.max(0.0) } else { v };
                            let x = got.as_slice()[(n * out_c + ch) * cc + j];
                            assert_eq!(
                                x.to_bits(),
                                want.to_bits(),
                                "{case} relu={relu}: sample {n} channel {ch} col {j}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_conv_batch_rows_are_batch_invariant() {
        // A sample's fused-conv output cannot depend on its batch mates —
        // the property the batching engine's bit-identity rests on.
        let mut rng = TensorRng::seed_from_u64(42);
        let a = uniform(&[1, 3, 10, 10], -1.0, 1.0, &mut rng);
        let b = uniform(&[1, 3, 10, 10], -1.0, 1.0, &mut rng);
        let weight = pack_conv_weight(&uniform(&[5, 3, 3, 3], -0.5, 0.5, &mut rng));
        let bias = [0.1, -0.2, 0.3, 0.0, -0.4];
        let both = Tensor::stack(&[a.clone(), b.clone()]).reshape(&[2, 3, 10, 10]);
        let out_both = conv2d_bias_act(&both, &weight, &bias, true, 1, 1);
        let out_a = conv2d_bias_act(&a, &weight, &bias, true, 1, 1);
        let out_b = conv2d_bias_act(&b, &weight, &bias, true, 1, 1);
        let half = out_a.numel();
        assert_eq!(&out_both.as_slice()[..half], out_a.as_slice());
        assert_eq!(&out_both.as_slice()[half..], out_b.as_slice());
    }

    #[test]
    fn resolve_rejects_oversized_kernel() {
        assert!(Conv2dDims::resolve(&[1, 1, 3, 3], &[1, 1, 7, 7], 1, 0).is_none());
        assert!(Conv2dDims::resolve(&[1, 1, 3, 3], &[1, 1, 7, 7], 1, 3).is_some());
    }

    #[test]
    fn resolve_rejects_non_square_kernels_and_channel_mismatch() {
        // Previously assert!-aborts; invalid candidates must be plain
        // `None` rejections so the NAS sweep survives them.
        assert!(Conv2dDims::resolve(&[1, 2, 8, 8], &[4, 2, 3, 5], 1, 1).is_none());
        assert!(Conv2dDims::resolve(&[1, 2, 8, 8], &[4, 3, 3, 3], 1, 1).is_none());
        assert!(Conv2dDims::resolve(&[1, 2, 8, 8], &[4, 2, 3, 3], 1, 1).is_some());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property that makes the backward pass correct.
        let d = Conv2dDims::resolve(&[1, 2, 6, 6], &[3, 2, 3, 3], 2, 1).unwrap();
        let mut rng = TensorRng::seed_from_u64(3);
        let x = uniform(&[d.in_c * d.in_h * d.in_w], -1.0, 1.0, &mut rng);
        let y = uniform(&[d.col_rows() * d.col_cols()], -1.0, 1.0, &mut rng);
        let mut cx = vec![0.0; d.col_rows() * d.col_cols()];
        im2col(x.as_slice(), &d, &mut cx);
        let mut iy = vec![0.0; d.in_c * d.in_h * d.in_w];
        col2im(y.as_slice(), &d, &mut iy);
        let lhs: f32 = cx.iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(iy.iter()).map(|(a, b)| a * b).sum();
        assert!(approx_eq(lhs, rhs, 1e-4), "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = TensorRng::seed_from_u64(17);
        let input = uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let weight = uniform(&[2, 2, 3, 3], -0.5, 0.5, &mut rng);
        let (stride, padding) = (2, 1);

        // Loss = sum(conv(x, w)); analytic grads.
        let out = conv2d(&input, &weight, stride, padding);
        let grad_out = Tensor::ones(out.dims());
        let (gi, gw) = conv2d_backward(&input, &weight, &grad_out, stride, padding);

        let eps = 1e-2f32;
        // Check a scattering of input coordinates.
        for &idx in &[0usize, 7, 13, 24, 33, 49] {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            let num = (conv2d(&plus, &weight, stride, padding).sum()
                - conv2d(&minus, &weight, stride, padding).sum())
                / (2.0 * eps);
            assert!(
                approx_eq(num, gi.as_slice()[idx], 2e-2),
                "input grad at {idx}: {num} vs {}",
                gi.as_slice()[idx]
            );
        }
        // And of weight coordinates.
        for &idx in &[0usize, 5, 11, 17, 23, 35] {
            let mut plus = weight.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = weight.clone();
            minus.as_mut_slice()[idx] -= eps;
            let num = (conv2d(&input, &plus, stride, padding).sum()
                - conv2d(&input, &minus, stride, padding).sum())
                / (2.0 * eps);
            assert!(
                approx_eq(num, gw.as_slice()[idx], 2e-2),
                "weight grad at {idx}: {num} vs {}",
                gw.as_slice()[idx]
            );
        }
    }

    #[test]
    fn batch_samples_are_independent() {
        let mut rng = TensorRng::seed_from_u64(5);
        let a = uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut rng);
        let b = uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut rng);
        let weight = uniform(&[3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let both = Tensor::from_vec(
            a.as_slice().iter().chain(b.as_slice()).copied().collect(),
            &[2, 2, 6, 6],
        );
        let out_both = conv2d(&both, &weight, 1, 1);
        let out_a = conv2d(&a, &weight, 1, 1);
        let out_b = conv2d(&b, &weight, 1, 1);
        let half = out_a.numel();
        assert_eq!(&out_both.as_slice()[..half], out_a.as_slice());
        assert_eq!(&out_both.as_slice()[half..], out_b.as_slice());
    }
}
