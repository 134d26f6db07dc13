//! 2-d convolution via im2col + GEMM, with full backward passes.
//!
//! Layout conventions follow PyTorch: activations are NCHW, weights are
//! `[out_c, in_c, kh, kw]`.
//!
//! * Training runs [`conv2d`] and [`conv2d_backward`] on the serving
//!   convs' column tiles (below). The forward and the input gradient run
//!   one GEMM per tile against a weight packed once per call; the weight
//!   gradient runs one GEMM per sample and reduces the partials in sample
//!   order. A sample's bits are those it gets run alone, at any tiling
//!   and thread count: the packed GEMM fixes each element's summation by
//!   its k blocks alone, and a conv whose per-sample GEMMs fall below the
//!   GEMM's packing break-even runs as one-sample tiles of row-major
//!   operands, so it keeps the unpacked path.
//! * Serving runs two convs through one tile driver: [`conv2d_bias_act`]
//!   over a BN-folded f32 weight packed once by [`pack_conv_weight`], and
//!   [`conv2d_q8`](crate::conv2d_q8) over an int8 weight. A serving plan
//!   runs every weighted layer on them, its classifier head as a 1×1
//!   conv over the pooled `[N, C, 1, 1]` map. The driver cuts
//!   the batch into column tiles of whole samples, about one GEMM column
//!   block each, and runs each tile as one compute-pool task that unfolds
//!   its samples through one tap-offset table, multiplies them while they
//!   are still in cache, and writes its samples' NCHW output.

use crate::arena::{scratch, Scratch};
use crate::gemm::{gemm, Epilogue, GemmA, GemmB, PackedA, PackedBLayout, NC, SMALL_FLOPS};
use crate::parallel;
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
/// each output pixel, 0 in the padding.
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
    assert_eq!(col.len(), d.col_rows() * d.col_cols());
    col2im_rows(col, d.col_cols(), d, img);
}

/// [`col2im`] of a column matrix whose rows start `stride` floats apart:
/// row `r` is `col[r * stride..][..out_h * out_w]`, so one sample's
/// columns fold back straight out of a multi-sample tile. Each input
/// pixel sums its taps in row order, then output order; the in-bounds
/// outputs of one row and output row fold into one input row as a run.
fn col2im_rows(col: &[f32], stride: usize, d: &Conv2dDims, img: &mut [f32]) {
    assert_eq!(img.len(), d.in_c * d.in_h * d.in_w);
    img.fill(0.0);
    let cols = d.col_cols();
    for (c, plane) in img.chunks_exact_mut(d.in_h * d.in_w).enumerate() {
        for ky in 0..d.kernel {
            let oys = tap_range(d, ky, d.in_h, d.out_h);
            for kx in 0..d.kernel {
                let oxs = tap_range(d, kx, d.in_w, d.out_w);
                if oxs.is_empty() {
                    continue;
                }
                let ix0 = oxs.start * d.stride + kx - d.padding;
                let row = (c * d.kernel + ky) * d.kernel + kx;
                let src = &col[row * stride..][..cols];
                for oy in oys.clone() {
                    let iy = oy * d.stride + ky - d.padding;
                    let run = &src[oy * d.out_w..][oxs.clone()];
                    let dst = &mut plane[iy * d.in_w + ix0..];
                    if d.stride == 1 {
                        // A contiguous run, which vectorizes.
                        dst.iter_mut().zip(run).for_each(|(p, &v)| *p += v);
                    } else {
                        let dst = dst.iter_mut().step_by(d.stride);
                        dst.zip(run).for_each(|(p, &v)| *p += v);
                    }
                }
            }
        }
    }
}

/// The outputs `o` in `0..out` whose tap `k` lands inside an input axis
/// of `extent`: `o * stride + k - padding` in `0..extent`.
fn tap_range(d: &Conv2dDims, k: usize, extent: usize, out: usize) -> std::ops::Range<usize> {
    let lo = d.padding.saturating_sub(k).div_ceil(d.stride);
    let hi = (extent + d.padding)
        .saturating_sub(k)
        .div_ceil(d.stride)
        .min(out);
    lo.min(hi)..hi
}

/// Convolution forward: `input [N,C,H,W] * weight [O,C,k,k] -> [N,O,H',W']`.
///
/// Runs on the serving convs' column tiles: each tile of whole samples
/// unfolds straight into packed panels and runs one GEMM against the
/// weight, packed once per call. A conv whose per-sample GEMM falls
/// below the GEMM's packing break-even runs as one-sample tiles of
/// row-major operands instead, so that GEMM keeps its unpacked path.
/// Either way each sample's output is bit-identical to the sample run
/// alone.
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
    let w = weight.as_slice();
    let packed = (!below_break_even(&d)).then(|| PackedA::pack(w, d.out_c, d.col_rows()));
    let a = packed.as_ref().map_or(GemmA::Slice(w), GemmA::Packed);
    conv_tiles(input, &d, train_tile_samples(&d), |tile_in, taps, cols| {
        tile_gemm(a, tile_in, &d, taps, cols, Epilogue::None)
    })
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

/// Samples per column tile when each sample has `cols` output pixels: as
/// many whole samples as fit one GEMM column block, at least one. The
/// width is a scheduling choice, not a numeric one: the packed GEMM fixes
/// each element's summation order by its k blocks alone, so any tiling
/// gives the same bits.
pub(crate) fn tile_samples(cols: usize) -> usize {
    (NC / cols.max(1)).max(1)
}

/// Whether a conv's per-sample GEMMs fall below the GEMM's packing
/// break-even, where two row-major operands take its unpacked path. The
/// forward, input-gradient and weight-gradient GEMMs of one sample share
/// one `m·k·n = out_c·cr·cc`, so this is a property of the conv.
fn below_break_even(d: &Conv2dDims) -> bool {
    d.out_c * d.col_rows() * d.col_cols() < SMALL_FLOPS
}

/// Samples per column tile of a training conv: the serving width, or one
/// [`below_break_even`], where a tile's GEMM must see the single sample's
/// row-major operands to round as the sample's own GEMM always has.
fn train_tile_samples(d: &Conv2dDims) -> usize {
    if below_break_even(d) {
        1
    } else {
        tile_samples(d.col_cols())
    }
}

/// Column tiles, and so GEMM calls, that a serving conv
/// ([`conv2d_bias_act`] or [`conv2d_q8`](crate::conv2d_q8)) runs for
/// `batch` samples of `cols` (`out_h * out_w`) output pixels each. A tile
/// holds whole samples, about one GEMM column block of them; the last
/// tile may be partial.
pub fn fused_conv_tiles(batch: usize, cols: usize) -> usize {
    batch.div_ceil(tile_samples(cols))
}

/// Tap-offset entry for a tap that falls in the padding.
const PAD: u32 = u32::MAX;

/// The unfold's gather table for a tile of `samples` samples: one row
/// of `samples * out_h * out_w` entries per tap `ky * k + kx`. The entry
/// for a tile column (a sample in the tile, then an output pixel) is the
/// offset of that tap's input pixel from the tile input's channel-0
/// plane, or [`PAD`].
fn tap_offsets(d: &Conv2dDims, samples: usize) -> Vec<u32> {
    let in_sz = d.in_c * d.in_h * d.in_w;
    let tap = |o: usize, k: usize, extent: usize| {
        (o * d.stride + k)
            .checked_sub(d.padding)
            .filter(|&i| i < extent)
    };
    let mut taps = Vec::with_capacity(d.kernel * d.kernel * samples * d.col_cols());
    for ky in 0..d.kernel {
        for kx in 0..d.kernel {
            for s in 0..samples {
                for oy in 0..d.out_h {
                    for ox in 0..d.out_w {
                        taps.push(match (tap(oy, ky, d.in_h), tap(ox, kx, d.in_w)) {
                            (Some(iy), Some(ix)) => u32::try_from(s * in_sz + iy * d.in_w + ix)
                                .expect("conv tile input exceeds u32 offsets"),
                            _ => PAD,
                        });
                    }
                }
            }
        }
    }
    taps
}

/// Unfolds one column tile, the whole CHW samples in `tile_in`, straight
/// into `panels` in `layout`'s packed panel order (`[col_rows x
/// samples * col_cols]`): row `(c, ky, kx)` of each panel lane gathers
/// input `c`'s plane at its [`tap_offsets`] entry, 0 in the padding.
fn unfold_tile(
    tile_in: &[f32],
    d: &Conv2dDims,
    taps: &[u32],
    layout: &PackedBLayout,
    panels: &mut [f32],
) {
    let (plane, taps_k) = (d.in_h * d.in_w, d.kernel * d.kernel);
    let (cols, width) = (layout.n(), taps.len() / taps_k);
    layout.for_each_panel(panels, |j0, r0, kc, dst| {
        let nr = dst.len() / kc;
        let lanes = nr.min(cols - j0);
        for (r, out) in (r0..).zip(dst.chunks_exact_mut(nr)) {
            let src = &tile_in[r / taps_k * plane..];
            let offsets = &taps[r % taps_k * width + j0..][..lanes];
            for (o, &at) in out.iter_mut().zip(offsets) {
                *o = src.get(at as usize).copied().unwrap_or(0.0);
            }
            out[lanes..].fill(0.0);
        }
    });
}

/// Unfolds one column tile of CHW samples into the transposed `[cols,
/// col_rows]` patch matrix: row `j` is the patch under tile column `j`,
/// whose entry `(c, ky, kx)` gathers input `c`'s plane at its
/// [`tap_offsets`] entry, 0 in the padding. The int8 conv reads it as its
/// NT GEMM's `Bᵀ`, the weight gradient as its row-major B.
pub(crate) fn unfold_tile_t<T: Copy + Default>(
    tile_in: &[T],
    d: &Conv2dDims,
    taps: &[u32],
    bt: &mut [T],
) {
    let (plane, taps_k) = (d.in_h * d.in_w, d.kernel * d.kernel);
    let width = taps.len() / taps_k;
    for (j, row) in bt.chunks_exact_mut(d.col_rows()).enumerate() {
        for (c, patch) in row.chunks_exact_mut(taps_k).enumerate() {
            let src = &tile_in[c * plane..];
            for (t, v) in patch.iter_mut().enumerate() {
                *v = src
                    .get(taps[t * width + j] as usize)
                    .copied()
                    .unwrap_or_default();
            }
        }
    }
}

/// The convs' tile loop. Runs the `d.batch` samples of `input` as column
/// tiles of `per` whole samples ([`tile_samples`] for the serving convs,
/// [`train_tile_samples`] for the training forward), one compute-pool
/// task per tile, and builds the [`tap_offsets`] table every tile shares
/// once per call. `tile(tile_in, taps, cols)` computes one tile from its
/// samples' CHW input, that table and its column count, and returns the
/// tile's `[out_c, cols]` result, which the driver copies into its
/// samples' NCHW output.
///
/// A body checks its GEMM operand's scratch out before the result's:
/// the other way round, best fit hands the result a buffer of the
/// operand's size and the operand a fresh one, which raises peak RSS.
///
/// A call that fits one tile (batch 1, the deep layers) runs on the
/// caller, and its GEMM fans its row blocks out instead; inside a
/// multi-tile call each tile's GEMM runs inline in its task.
pub(crate) fn conv_tiles<F>(input: &Tensor, d: &Conv2dDims, per: usize, tile: F) -> Tensor
where
    F: Fn(&[f32], &[u32], usize) -> Scratch + Sync,
{
    let (cc, in_sz) = (d.col_cols(), d.in_c * d.in_h * d.in_w);
    let per = per.min(d.batch).max(1);
    let taps = tap_offsets(d, per);
    let inp = input.as_slice();

    let mut out = Tensor::zeros(&[d.batch, d.out_c, d.out_h, d.out_w]);
    parallel::par_chunks_mut(out.as_mut_slice(), per * d.out_c * cc, |t, out_t| {
        let samples = out_t.len() / (d.out_c * cc);
        let cols = samples * cc;
        let c = tile(&inp[t * per * in_sz..][..samples * in_sz], &taps, cols);
        for (s, sample) in out_t.chunks_exact_mut(d.out_c * cc).enumerate() {
            for (ch, dst) in sample.chunks_exact_mut(cc).enumerate() {
                dst.copy_from_slice(&c[ch * cols + s * cc..][..cc]);
            }
        }
    });
    out
}

/// One column tile's GEMM, `epi(a [out_c x cr] x unfold(tile_in) [cr x
/// cols])`, the tile body of every f32 conv. A packed `a` multiplies the
/// tile's samples unfolded straight into packed panels. A row-major `a`
/// (a training conv [`below_break_even`], one sample a tile) multiplies
/// the sample's [`im2col`] matrix, so the GEMM keeps its unpacked path;
/// where that unfold is the identity (1×1, stride 1, no padding, as in
/// the input gradient's view of `grad_out`), the sample's CHW input is
/// that matrix already and goes in as it is.
fn tile_gemm(
    a: GemmA,
    tile_in: &[f32],
    d: &Conv2dDims,
    taps: &[u32],
    cols: usize,
    epi: Epilogue,
) -> Scratch {
    let (m, cr) = (d.out_c, d.col_rows());
    let mut c;
    if let GemmA::Packed(_) = a {
        let layout = PackedBLayout::new(cr, cols);
        let mut panels = scratch(layout.len());
        unfold_tile(tile_in, d, taps, &layout, &mut panels);
        c = scratch(m * cols);
        gemm(a, GemmB::Packed(&layout, &panels), &mut c, m, cr, cols, epi);
    } else if (d.kernel, d.stride, d.padding) == (1, 1, 0) {
        c = scratch(m * cols);
        gemm(a, GemmB::Slice(tile_in), &mut c, m, cr, cols, epi);
    } else {
        let mut col = scratch(cr * cols);
        im2col(tile_in, d, &mut col);
        c = scratch(m * cols);
        gemm(a, GemmB::Slice(&col), &mut c, m, cr, cols, epi);
    }
    c
}

/// Fused inference convolution over a prepacked weight: `conv2d(input,
/// weight) + bias` with an optional ReLU, all applied inside the GEMM's
/// final write-back — the serving path's conv kernel.
///
/// `bias` is per output channel (`len == out_c`), which in the im2col
/// formulation `weight [out_c, cr] x col [cr, cc]` is a per-*row* bias
/// ([`Epilogue::RowBias`] / [`Epilogue::RowBiasRelu`]). This is the
/// execution shape of a conv whose following BatchNorm has been folded
/// into the weights: one GEMM per tile, no separate bias or activation
/// pass over the output.
///
/// The batch runs as [`fused_conv_tiles`] column tiles of whole samples,
/// about one GEMM column block (512 columns) each, one compute-pool task
/// per tile, on the tile driver it shares with
/// [`conv2d_q8`](crate::conv2d_q8). A task unfolds its samples straight
/// into packed panels (gathering through one tap-offset table the call
/// builds and every tile shares), multiplies them against the weight
/// panels [`pack_conv_weight`] packed once, while they are still in cache,
/// and copies its `[out_c, tile]` result into its samples' NCHW output.
/// Deep layers with tiny feature maps (`cc` of 1–16) put many samples in
/// one tile, so their GEMM micro-tiles fill with real columns instead of
/// padding.
///
/// Numerics: both operands are prepacked, so the GEMM takes its packed
/// path at any shape, and each output column's bits are independent of
/// how many samples share the call or the tile — a batch of one is
/// bit-identical to any row of a larger batch.
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
    // [out_c, cr] x [cr, cols] -> [out_c, cols], bias per channel row.
    let epi = if relu {
        Epilogue::RowBiasRelu(bias)
    } else {
        Epilogue::RowBias(bias)
    };
    let (a, per) = (GemmA::Packed(&weight.a), tile_samples(d.col_cols()));
    conv_tiles(input, &d, per, |tile_in, taps, cols| {
        tile_gemm(a, tile_in, &d, taps, cols, epi)
    })
}

/// Convolution backward.
///
/// Given upstream `grad_out [N,O,H',W']`, returns
/// `(grad_input [N,C,H,W], grad_weight [O,C,k,k])`.
///
/// The input gradient runs on [`conv2d`]'s column tiles, one
/// compute-pool task each. Its GEMM, `Wᵀ [cr, O] x grad_out [O, cc]` per
/// sample, is a 1×1 conv of `grad_out` by `Wᵀ`: a tile gathers its
/// samples' `grad_out` columns through the same unfold, runs one GEMM
/// against `Wᵀ` packed once per call, and folds each sample back from its
/// columns of the result. The weight gradient stays one GEMM per sample,
/// one task each, because its k is the sample's pixels; the partials
/// reduce in sample order ([`conv2d_backward_weight`] runs this half
/// alone). Each sample's `grad_input` is bit-identical to the sample run
/// alone, and `grad_weight` to the lone samples' gradients summed in
/// sample order.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    padding: usize,
) -> (Tensor, Tensor) {
    // Two GEMM passes: the input gradient per tile, the weight gradient
    // per sample.
    let d = backward_dims(input, weight, grad_out, stride, padding, 2);
    let in_sz = d.in_c * d.in_h * d.in_w;
    let out_sz = d.out_c * d.out_h * d.out_w;
    let cr = d.col_rows();
    let cc = d.col_cols();
    let go_d = Conv2dDims::resolve(grad_out.dims(), &[cr, d.out_c, 1, 1], 1, 0)
        .expect("a 1x1 kernel fits any map");
    let w_t = weight.reshape(&[d.out_c, cr]).transpose2(); // [cr, out_c]
    let w_t = w_t.as_slice();
    let packed = (!below_break_even(&d)).then(|| PackedA::pack(w_t, cr, d.out_c));
    let a_t = packed.as_ref().map_or(GemmA::Slice(w_t), GemmA::Packed);
    let per = train_tile_samples(&d).min(d.batch).max(1);
    let go_taps = tap_offsets(&go_d, per);
    let go = grad_out.as_slice();

    // grad wrt columns, per tile: Wᵀ [cr, out_c] x grad_out [out_c,
    // cols], each sample folded back from its cc columns of the result.
    let mut grad_input = Tensor::zeros(input.dims());
    parallel::par_chunks_mut(grad_input.as_mut_slice(), per * in_sz, |t, gi_t| {
        let samples = gi_t.len() / in_sz;
        let tile_go = &go[t * per * out_sz..][..samples * out_sz];
        let cols = samples * cc;
        let gcol = tile_gemm(a_t, tile_go, &go_d, &go_taps, cols, Epilogue::None);
        for (s, gi_s) in gi_t.chunks_exact_mut(in_sz).enumerate() {
            col2im_rows(&gcol[s * cc..], cols, &d, gi_s);
        }
    });

    (grad_input, weight_grad(input, grad_out, &d))
}

/// The weight gradient alone of [`conv2d_backward`], bit for bit, for a
/// conv whose input gradient nobody reads: a network's first conv, whose
/// input is the data batch.
pub fn conv2d_backward_weight(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    padding: usize,
) -> Tensor {
    let d = backward_dims(input, weight, grad_out, stride, padding, 1);
    weight_grad(input, grad_out, &d)
}

/// Resolves a backward call's geometry, checks `grad_out` against it and
/// counts the call's `passes` GEMM passes, each `2·out_c·cr·cc`
/// multiply-adds a sample.
fn backward_dims(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    padding: usize,
    passes: usize,
) -> Conv2dDims {
    let d = Conv2dDims::resolve(input.dims(), weight.dims(), stride, padding)
        .expect("conv2d_backward: kernel does not fit input");
    assert_eq!(grad_out.dims(), &[d.batch, d.out_c, d.out_h, d.out_w]);
    if hydronas_telemetry::enabled() {
        let operands = passes * (input.numel() + weight.numel()) + grad_out.numel();
        hydronas_telemetry::add_all(&[
            ("tensor.conv2d_backward.calls", 1),
            (
                "tensor.conv2d_backward.flops",
                (d.batch * passes * 2 * d.out_c * d.col_rows() * d.col_cols()) as u64,
            ),
            ("tensor.conv2d_backward.bytes", (4 * operands) as u64),
        ]);
    }
    d
}

/// The weight gradient, one GEMM per sample: grad_out [out_c, cc] x
/// patches [cc, cr], the sample's patch matrix gathered straight into the
/// transposed layout of its im2col matrix. The partials land in disjoint
/// slices of one flat scratch buffer (not a Vec per sample), then reduce
/// sequentially in sample order — deterministic for any worker count, and
/// zero per-sample heap allocations once the arenas are warm.
fn weight_grad(input: &Tensor, grad_out: &Tensor, d: &Conv2dDims) -> Tensor {
    let (cr, cc) = (d.col_rows(), d.col_cols());
    let (in_sz, out_sz) = (d.in_c * d.in_h * d.in_w, d.out_c * cc);
    let (inp, go) = (input.as_slice(), grad_out.as_slice());
    let taps = tap_offsets(d, 1);
    let gw_sz = d.out_c * cr;
    let mut gw_all = scratch(d.batch * gw_sz);
    parallel::par_chunks_mut(&mut gw_all, gw_sz, |n, gw_n| {
        let mut patches = scratch(cc * cr);
        unfold_tile_t(&inp[n * in_sz..][..in_sz], d, &taps, &mut patches);
        let go_n = &go[n * out_sz..][..out_sz];
        let (a, b) = (GemmA::Slice(go_n), GemmB::Slice(&patches));
        gemm(a, b, gw_n, d.out_c, cc, cr, Epilogue::None);
    });

    let mut grad_weight = Tensor::zeros(&[d.out_c, d.in_c, d.kernel, d.kernel]);
    for gw in gw_all.chunks_exact(gw_sz) {
        for (dst, &src) in grad_weight.as_mut_slice().iter_mut().zip(gw.iter()) {
            *dst += src;
        }
    }
    grad_weight
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

    /// Every column tile's unfold must write exactly the panels that
    /// row-major im2col of its samples plus `PackedBLayout::pack` would,
    /// so the fused conv equals the all-slice GEMM over the row-major
    /// `[cr, N*cc]` column matrix bit for bit, with the bias (and ReLU)
    /// fused exactly as an unfused pass would apply them. Geometries cover
    /// stride, padding, multi-row-block out_c and multi-k-block cr, all on
    /// the GEMM's packed path; the batch-23 calls end in a partial tile,
    /// a 24×24 stride-1 sample is 576 columns, wider than a tile and
    /// spanning two GEMM column blocks, and the plan's classifier head (a
    /// 1×1 conv over 1×1 maps) at batch 600 runs as tiles of 512 and 88
    /// samples.
    #[test]
    fn packed_im2col_matches_row_major_im2col_and_packing() {
        let mut rng = TensorRng::seed_from_u64(47);
        for &(batch, in_c, out_c, h, k, s, p) in &[
            (23usize, 32usize, 100usize, 7usize, 3usize, 1usize, 1usize),
            (23, 32, 8, 9, 3, 2, 1),
            (23, 3, 24, 9, 7, 2, 3),
            (2, 32, 16, 24, 3, 1, 1),
            (600, 288, 3, 1, 1, 1, 0),
        ] {
            let input = uniform(&[batch, in_c, h, h], -1.0, 1.0, &mut rng);
            let weight = uniform(&[out_c, in_c, k, k], -0.5, 0.5, &mut rng);
            let packed = pack_conv_weight(&weight);
            let bias: Vec<f32> = (0..out_c).map(|i| i as f32 * 0.05 - 0.2).collect();
            let d = Conv2dDims::resolve(input.dims(), weight.dims(), s, p).unwrap();
            let (cr, cc) = (d.col_rows(), d.col_cols());
            let (wide, in_sz) = (batch * cc, in_c * h * h);
            let case = format!("batch={batch} in_c={in_c} out_c={out_c} h={h} k={k} s={s} p={p}");

            // Row-major [cr, N*cc]: each sample's im2col in its column block.
            let mut col_wide = vec![0.0f32; cr * wide];
            let mut col = vec![0.0f32; cr * cc];
            for n in 0..batch {
                im2col(&input.as_slice()[n * in_sz..(n + 1) * in_sz], &d, &mut col);
                for r in 0..cr {
                    col_wide[r * wide + n * cc..][..cc].copy_from_slice(&col[r * cc..][..cc]);
                }
            }

            let per = tile_samples(cc).min(batch);
            let tiles = fused_conv_tiles(batch, cc);
            assert!(
                (tiles > 1 && batch % per != 0) || cc > NC,
                "{case}: no tile edge"
            );
            let taps = tap_offsets(&d, per);
            for t in 0..tiles {
                let samples = per.min(batch - t * per);
                let cols = samples * cc;
                let mut col_tile = vec![0.0f32; cr * cols];
                for r in 0..cr {
                    col_tile[r * cols..][..cols]
                        .copy_from_slice(&col_wide[r * wide + t * per * cc..][..cols]);
                }
                let layout = PackedBLayout::new(cr, cols);
                let mut want_panels = vec![f32::NAN; layout.len()];
                layout.pack(&col_tile, &mut want_panels);
                assert!(
                    want_panels.iter().all(|v| v.is_finite()),
                    "{case}: pack missed a lane"
                );
                let mut got_panels = vec![f32::NAN; layout.len()];
                let tile_in = &input.as_slice()[t * per * in_sz..][..samples * in_sz];
                unfold_tile(tile_in, &d, &taps, &layout, &mut got_panels);
                for (i, (x, y)) in got_panels.iter().zip(&want_panels).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{case}: tile {t} panel float {i} differs"
                    );
                }
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

    /// `col2im`'s runs must fold every tap in the order of the plain
    /// per-pixel loop below, so the input gradient keeps its bits. The
    /// geometries cover stride 2 and 3, taps that miss the input on one
    /// side or, with a 7×7 kernel on a 3×3 map, entirely.
    #[test]
    fn col2im_matches_the_per_pixel_fold_bit_for_bit() {
        fn per_pixel(col: &[f32], d: &Conv2dDims, img: &mut [f32]) {
            img.fill(0.0);
            let (s, p) = (d.stride as isize, d.padding as isize);
            for (r, src) in col.chunks_exact(d.col_cols()).enumerate() {
                let (c, ky, kx) = (
                    r / (d.kernel * d.kernel),
                    r / d.kernel % d.kernel,
                    r % d.kernel,
                );
                for (j, &v) in src.iter().enumerate() {
                    let iy = (j / d.out_w) as isize * s + ky as isize - p;
                    let ix = (j % d.out_w) as isize * s + kx as isize - p;
                    if (0..d.in_h as isize).contains(&iy) && (0..d.in_w as isize).contains(&ix) {
                        img[(c * d.in_h + iy as usize) * d.in_w + ix as usize] += v;
                    }
                }
            }
        }
        let mut rng = TensorRng::seed_from_u64(8);
        for &(in_c, h, k, s, p) in &[
            (2usize, 6usize, 3usize, 2usize, 1usize),
            (3, 9, 7, 2, 3),
            (2, 3, 7, 1, 3),
            (2, 5, 2, 2, 0),
            (1, 7, 3, 3, 2),
            (4, 12, 3, 1, 1),
        ] {
            let d = Conv2dDims::resolve(&[1, in_c, h, h], &[1, in_c, k, k], s, p).unwrap();
            let col = uniform(&[d.col_rows() * d.col_cols()], -1.0, 1.0, &mut rng);
            let (mut got, mut want) = (vec![f32::NAN; in_c * h * h], vec![0.0; in_c * h * h]);
            col2im(col.as_slice(), &d, &mut got);
            per_pixel(col.as_slice(), &d, &mut want);
            for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "h={h} k={k} s={s} p={p}: pixel {i}"
                );
            }
        }
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

    /// A training conv's sample must get, inside any batch, the bits it
    /// gets run alone: its `conv2d` output and `conv2d_backward` input
    /// gradient rows `to_bits`-equal, and the batch's weight gradient
    /// equal to the lone samples' weight gradients summed into zeros in
    /// sample order, which `conv2d_backward_weight` must reproduce on its
    /// own. The first case and the last (a 1×1 stride-2
    /// projection) sit below the GEMM's packing break-even; the packed
    /// cases cover a partial last tile (batch 5 at two samples a tile), a
    /// sample wider than a column block (576 columns), `cr` past one k
    /// block, k7 s2 p3, and the 2×2 stage's batch of 32 in one tile.
    #[test]
    fn batch_samples_are_independent() {
        let mut rng = TensorRng::seed_from_u64(5);
        for &(batch, in_c, out_c, h, k, s, p, small) in &[
            (2usize, 2usize, 3usize, 6usize, 3usize, 1usize, 1usize, true),
            (5, 8, 16, 16, 3, 1, 1, false),
            (2, 8, 8, 24, 3, 1, 1, false),
            (3, 32, 8, 5, 3, 1, 1, false),
            (3, 3, 8, 16, 7, 2, 3, false),
            (32, 64, 64, 2, 3, 1, 1, false),
            (3, 8, 16, 12, 1, 2, 0, true),
        ] {
            let input = uniform(&[batch, in_c, h, h], -1.0, 1.0, &mut rng);
            let weight = uniform(&[out_c, in_c, k, k], -0.5, 0.5, &mut rng);
            let d = Conv2dDims::resolve(input.dims(), weight.dims(), s, p).unwrap();
            let case = format!("batch={batch} in_c={in_c} out_c={out_c} h={h} k={k} s={s} p={p}");
            assert_eq!(below_break_even(&d), small, "{case}: wrong GEMM path");
            let out = conv2d(&input, &weight, s, p);
            let grad_out = uniform(out.dims(), -1.0, 1.0, &mut rng);
            let (gi, gw) = conv2d_backward(&input, &weight, &grad_out, s, p);

            let (in_sz, out_sz) = (input.numel() / batch, out.numel() / batch);
            let mut gw_sum = Tensor::zeros(weight.dims());
            for n in 0..batch {
                let x = input.index_axis0(n).reshape(&[1, in_c, h, h]);
                let g = grad_out
                    .index_axis0(n)
                    .reshape(&[1, out_c, d.out_h, d.out_w]);
                let alone = conv2d(&x, &weight, s, p);
                let (gi_n, gw_n) = conv2d_backward(&x, &weight, &g, s, p);
                for (what, got, want) in [
                    ("output", &out.as_slice()[n * out_sz..][..out_sz], &alone),
                    ("grad_input", &gi.as_slice()[n * in_sz..][..in_sz], &gi_n),
                ] {
                    for (j, (x, y)) in got.iter().zip(want.as_slice()).enumerate() {
                        assert_eq!(x.to_bits(), y.to_bits(), "{case}: sample {n} {what} {j}");
                    }
                }
                for (acc, &v) in gw_sum.as_mut_slice().iter_mut().zip(gw_n.as_slice()) {
                    *acc += v;
                }
            }
            let gw_only = conv2d_backward_weight(&input, &weight, &grad_out, s, p);
            for (j, ((x, y), z)) in gw
                .as_slice()
                .iter()
                .zip(gw_sum.as_slice())
                .zip(gw_only.as_slice())
                .enumerate()
            {
                assert_eq!(x.to_bits(), y.to_bits(), "{case}: grad_weight {j}");
                assert_eq!(x.to_bits(), z.to_bits(), "{case}: weight-only {j}");
            }
        }
    }
}
