//! Int8 quantized inference kernels: an i8×i8→i32 GEMM with a fused
//! per-row requantize+bias+ReLU epilogue, and the int8 convolution, which
//! runs on the serving convs' column-tile driver in [`crate::conv`]. An
//! int8 plan runs every weighted layer through that conv, its classifier
//! head included (as a 1×1 conv over the pooled `[N, C, 1, 1]` map).
//!
//! ## Layout and determinism
//!
//! The quantized GEMM is an **NT dot-product kernel**: `A` is `[m, k]`
//! row-major i8 and `B` is supplied *transposed* as `Bᵀ = [n, k]` row-major
//! i8, so every output element is a contiguous-×-contiguous dot product.
//! Accumulation is pure i32 integer arithmetic — products are bounded by
//! `127 × 127 = 16_129`, so an i32 accumulator is exact for any `k` up to
//! ~133 000, far beyond any reduction depth in this codebase. Integer
//! addition is associative, which means the result is **bit-identical for
//! any thread count, any blocking, and any SIMD width by construction**;
//! the epilogue applies exactly one f32 multiply-add per output element, so
//! the f32 rounding is also order-independent. This is a deliberately
//! different determinism story from the f32 GEMM, which must pin its k
//! schedule to stay reproducible.
//!
//! ## Microkernel
//!
//! On x86-64 with AVX2 the dot product runs 32 lanes per iteration via
//! `_mm256_cvtepi8_epi16` + `_mm256_madd_epi16` (pairwise i16×i16→i32 with
//! exact i32 pairwise add). We intentionally do **not** use the
//! `_mm256_maddubs_epi16` (u8×i8) path: its pairwise sum saturates at i16,
//! and `255 × 127 × 2` overflows, so it is only exact with operand-range
//! restrictions we do not want to impose. Sign-extending to i16 first makes
//! the SIMD kernel exactly equal to the scalar fallback on every input.
use crate::arena::{scratch, scratch_i8};
use crate::conv::{conv_tiles, tile_samples, unfold_tile_t, Conv2dDims};
use crate::parallel;
use crate::tensor::Tensor;
use std::sync::OnceLock;

/// Quantizes `src` to i8 into `dst` with a symmetric scale: each value maps
/// to `round(x / scale)` clamped to `[-127, 127]`. Mirrors the element
/// formula of `hydronas_graph`'s `quantize_per_channel` so weight-side and
/// activation-side quantization agree bit-for-bit for the same scale.
pub fn quantize_slice_i8(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_slice_i8 length mismatch");
    assert!(
        scale > 0.0 && scale.is_finite(),
        "quantization scale must be positive and finite, got {scale}"
    );
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (s / scale).round().clamp(-127.0, 127.0) as i8;
    }
}

type DotFn = fn(&[i8], &[i8]) -> i32;

/// Resolves the best available i8 dot-product kernel once per process.
fn dot_kernel() -> DotFn {
    static KERNEL: OnceLock<DotFn> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return dot_i8_avx2_entry;
        }
        dot_i8_scalar
    })
}

fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

#[cfg(target_arch = "x86_64")]
fn dot_i8_avx2_entry(a: &[i8], b: &[i8]) -> i32 {
    // SAFETY: this entry is only installed after `is_x86_feature_detected!`
    // confirmed AVX2 support.
    unsafe { dot_i8_avx2(a, b) }
}

/// 32-lane i8 dot product. Sign-extends both operands to i16 halves and
/// accumulates through `madd_epi16`, which is exact in i32 — see the module
/// docs for why this beats the saturating `maddubs` idiom.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let chunks = k / 32;
    let mut acc = _mm256_setzero_si256();
    for i in 0..chunks {
        let av = _mm256_loadu_si256(a.as_ptr().add(i * 32) as *const __m256i);
        let bv = _mm256_loadu_si256(b.as_ptr().add(i * 32) as *const __m256i);
        let a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(av));
        let a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(av, 1));
        let b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
        let b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
    }
    let hi128 = _mm256_extracti128_si256(acc, 1);
    let sum128 = _mm_add_epi32(_mm256_castsi256_si128(acc), hi128);
    let sum64 = _mm_add_epi32(sum128, _mm_srli_si128(sum128, 8));
    let sum32 = _mm_add_epi32(sum64, _mm_srli_si128(sum64, 4));
    let mut total = _mm_cvtsi128_si32(sum32);
    for i in chunks * 32..k {
        total += i32::from(*a.get_unchecked(i)) * i32::from(*b.get_unchecked(i));
    }
    total
}

fn record_qgemm(m: usize, k: usize, n: usize) {
    if hydronas_telemetry::enabled() {
        hydronas_telemetry::add_all(&[
            ("tensor.qgemm.calls", 1),
            ("tensor.qgemm.flops", (2 * m * k * n) as u64),
            // i8 operands, f32 results.
            ("tensor.qgemm.bytes", (m * k + k * n + 4 * m * n) as u64),
        ]);
    }
}

/// Requantizing epilogue of [`qgemm_nt`]: `C[i][j] = act(acc ×
/// scales[i] + bias[i])`, one f32 multiply-add per exact i32 accumulator,
/// with one scale and bias per output row (`len == m`, the conv's output
/// channel) and `act` ReLU when `relu` is set. Each scale is the
/// *combined* `w_scale × input_scale` that maps the integer accumulator
/// back to real units in one multiply.
#[derive(Clone, Copy)]
pub struct QEpilogue<'a> {
    pub scales: &'a [f32],
    pub bias: &'a [f32],
    pub relu: bool,
}

/// Int8 NT GEMM with a fused requantizing epilogue: `C[i][j] =
/// epi(Σ_k A[i][k]·Bᵀ[j][k])`, `A` `[m, k]` and `Bᵀ` `[n, k]` row-major
/// i8, `C` `[m, n]` f32. Parallelizes over rows of `C`.
///
/// # Panics
/// If an operand, `c`, or the epilogue's scales or bias do not match `m`,
/// `k` and `n`.
pub fn qgemm_nt(a: &[i8], bt: &[i8], c: &mut [f32], m: usize, k: usize, n: usize, epi: QEpilogue) {
    assert_eq!(a.len(), m * k, "A must be [m, k] row-major i8");
    assert_eq!(
        bt.len(),
        n * k,
        "B must be supplied transposed as [n, k] i8"
    );
    assert_eq!(c.len(), m * n, "output must be [m, n]");
    let QEpilogue { scales, bias, relu } = epi;
    assert_eq!(scales.len(), m, "epilogue needs one scale per row");
    assert_eq!(bias.len(), m, "epilogue needs one bias per row");
    record_qgemm(m, k, n);
    if m == 0 || n == 0 {
        return;
    }
    let dot = dot_kernel();
    parallel::par_chunks_mut(c, n, |i, row| {
        let ar = &a[i * k..(i + 1) * k];
        for (j, out) in row.iter_mut().enumerate() {
            // A single f32 multiply-add, so the rounding does not depend
            // on the accumulation order.
            let v = dot(ar, &bt[j * k..(j + 1) * k]) as f32 * scales[i] + bias[i];
            *out = if relu { v.max(0.0) } else { v };
        }
    });
}

/// Per-output-channel symmetrically quantized convolution weight in the
/// `[out_c, in_c·k·k]` row-major layout the NT GEMM consumes directly
/// (each output channel's filter is one contiguous k-vector).
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedConvWeight {
    out_c: usize,
    in_c: usize,
    kernel: usize,
    values: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedConvWeight {
    /// Wraps pre-quantized filter rows. `values` is `[out_c, in_c·k·k]`
    /// row-major; `scales` holds one weight scale per output channel.
    pub fn new(
        values: Vec<i8>,
        scales: Vec<f32>,
        out_c: usize,
        in_c: usize,
        kernel: usize,
    ) -> Self {
        assert_eq!(
            values.len(),
            out_c * in_c * kernel * kernel,
            "quantized weight must be [out_c, in_c*k*k]"
        );
        assert_eq!(
            scales.len(),
            out_c,
            "need one weight scale per output channel"
        );
        assert!(
            scales.iter().all(|s| *s > 0.0 && s.is_finite()),
            "weight scales must be positive and finite"
        );
        QuantizedConvWeight {
            out_c,
            in_c,
            kernel,
            values,
            scales,
        }
    }

    pub fn out_c(&self) -> usize {
        self.out_c
    }

    pub fn in_c(&self) -> usize {
        self.in_c
    }

    pub fn kernel(&self) -> usize {
        self.kernel
    }
}

/// True int8 convolution with fused bias + optional ReLU.
///
/// The f32 input is quantized with the **static** `input_scale` fixed at
/// calibration time (never from the batch itself, so results are
/// batch-composition-invariant), and multiplied against the pre-quantized
/// weight with pure i8×i8→i32 arithmetic. The epilogue folds
/// `w_scale[ch] × input_scale` and the f32 bias into a single multiply-add
/// per output element.
///
/// The batch runs on the column-tile driver it shares with
/// [`conv2d_bias_act`](crate::conv2d_bias_act): the same
/// [`fused_conv_tiles`](crate::fused_conv_tiles) tiles and tap-offset
/// table. Each tile's task quantizes its samples once, gathers the i8
/// values into the transposed `[cols, in_c·k²]` column matrix, and runs
/// one [`qgemm_nt`]. Quantization is elementwise, a padding tap gathers 0
/// (which is `quantize(0.0)`), and i32 accumulation is exact in any
/// grouping, so the bits do not depend on the tiling.
///
/// A tile's three buffers — its quantized input, its column matrix and
/// its f32 result — come from the per-thread scratch arena
/// ([`crate::arena`]), so a warm serving loop allocates nothing per tile.
pub fn conv2d_q8(
    input: &Tensor,
    weight: &QuantizedConvWeight,
    input_scale: f32,
    bias: &[f32],
    relu: bool,
    stride: usize,
    padding: usize,
) -> Tensor {
    assert!(
        input_scale > 0.0 && input_scale.is_finite(),
        "conv2d_q8 input_scale must be positive and finite"
    );
    let wdims = [weight.out_c, weight.in_c, weight.kernel, weight.kernel];
    let d = Conv2dDims::resolve(input.dims(), &wdims, stride, padding)
        .expect("conv2d_q8: kernel does not fit input");
    assert_eq!(
        bias.len(),
        d.out_c,
        "conv2d_q8 needs one bias per output channel"
    );
    let cr = d.col_rows();
    let cc = d.col_cols();
    if hydronas_telemetry::enabled() {
        hydronas_telemetry::add_all(&[
            ("tensor.conv2d_q8.calls", 1),
            (
                "tensor.conv2d_q8.flops",
                (2 * d.batch * d.out_c * cr * cc) as u64,
            ),
        ]);
    }
    let combined: Vec<f32> = weight.scales.iter().map(|s| s * input_scale).collect();
    let epi = QEpilogue {
        scales: &combined,
        bias,
        relu,
    };
    conv_tiles(input, &d, tile_samples(cc), |tile_in, taps, cols| {
        let mut q = scratch_i8(tile_in.len());
        quantize_slice_i8(tile_in, input_scale, &mut q);
        let mut bt = scratch_i8(cols * cr);
        unfold_tile_t(&q, &d, taps, &mut bt);
        let mut c = scratch(d.out_c * cols);
        qgemm_nt(&weight.values, &bt, &mut c, d.out_c, cr, cols, epi);
        c
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_qgemm(a: &[i8], bt: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += i32::from(a[i * k + p]) * i32::from(bt[j * k + p]);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn pattern(len: usize, seed: i32) -> Vec<i8> {
        (0..len)
            .map(|i| (((i as i32).wrapping_mul(31).wrapping_add(seed * 17)) % 255 - 127) as i8)
            .collect()
    }

    /// `qgemm_nt` with unit scales and zero bias: the raw accumulators as
    /// f32, exact while `|acc| < 2^24` (`127² · 100 < 2^24`).
    fn qgemm_exact(a: &[i8], bt: &[i8], m: usize, k: usize, n: usize) -> Vec<f32> {
        let (scales, bias) = (vec![1.0f32; m], vec![0.0f32; m]);
        let epi = QEpilogue {
            scales: &scales,
            bias: &bias,
            relu: false,
        };
        let mut c = vec![0.0f32; m * n];
        qgemm_nt(a, bt, &mut c, m, k, n, epi);
        c
    }

    #[test]
    fn qgemm_matches_naive_reference() {
        for &(m, k, n) in &[(1, 1, 1), (3, 32, 5), (4, 33, 7), (6, 95, 16), (5, 64, 9)] {
            let a = pattern(m * k, 1);
            let bt = pattern(n * k, 2);
            let want: Vec<f32> = naive_qgemm(&a, &bt, m, k, n)
                .into_iter()
                .map(|acc| acc as f32)
                .collect();
            assert_eq!(qgemm_exact(&a, &bt, m, k, n), want, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn qgemm_extreme_values_do_not_saturate() {
        // 127×127 products summed over a k beyond one SIMD tile: the
        // maddubs idiom would saturate here; ours must be exact.
        let k = 96;
        let a = vec![127i8; k];
        let bt = vec![127i8; k];
        assert_eq!(qgemm_exact(&a, &bt, 1, k, 1), [(127 * 127 * k) as f32]);
        let b_neg = vec![-127i8; k];
        assert_eq!(
            qgemm_exact(&a, &b_neg, 1, k, 1),
            [-((127 * 127 * k) as f32)]
        );
    }

    #[test]
    fn row_scaled_epilogue_applies_scale_bias_relu() {
        let a = vec![2i8, -3, 1, 4]; // [2, 2]
        let bt = vec![1i8, 1, 2, -1]; // [2, 2] transposed
        let epi = QEpilogue {
            scales: &[0.5, 1.0],
            bias: &[10.0, -100.0],
            relu: true,
        };
        let mut c = vec![0.0f32; 4];
        qgemm_nt(&a, &bt, &mut c, 2, 2, 2, epi);
        // Row 0: acc = [-1, 7] -> 0.5*acc + 10 = [9.5, 13.5]
        // Row 1: acc = [5, -2] -> 1.0*acc - 100 -> relu -> [0, 0]
        assert_eq!(c, vec![9.5, 13.5, 0.0, 0.0]);
    }

    #[test]
    fn quantize_slice_matches_formula() {
        let src = [0.0f32, 0.6, -0.6, 100.0, -100.0];
        let mut dst = [0i8; 5];
        quantize_slice_i8(&src, 0.5, &mut dst);
        assert_eq!(dst, [0, 1, -1, 127, -127]);
    }

    /// The int8 conv in exact integer arithmetic: the input quantized
    /// element by element, a direct i32 conv over it (padding taps skip),
    /// and one `acc × (w_scale × input_scale) + bias` per output.
    fn direct_conv_q8(
        input: &Tensor,
        weight: &QuantizedConvWeight,
        input_scale: f32,
        bias: &[f32],
        relu: bool,
        stride: usize,
        padding: usize,
    ) -> Vec<f32> {
        let wdims = [weight.out_c, weight.in_c, weight.kernel, weight.kernel];
        let d = Conv2dDims::resolve(input.dims(), &wdims, stride, padding).unwrap();
        let mut q = vec![0i8; input.numel()];
        quantize_slice_i8(input.as_slice(), input_scale, &mut q);
        let k = d.kernel;
        let mut out = Vec::with_capacity(d.batch * d.out_c * d.col_cols());
        for n in 0..d.batch {
            for (o, (&w_scale, &b)) in weight.scales.iter().zip(bias).enumerate() {
                for oy in 0..d.out_h {
                    for ox in 0..d.out_w {
                        let mut acc = 0i32;
                        for c in 0..d.in_c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * stride + ky).checked_sub(padding);
                                    let ix = (ox * stride + kx).checked_sub(padding);
                                    let (Some(iy), Some(ix)) = (iy, ix) else {
                                        continue;
                                    };
                                    if iy >= d.in_h || ix >= d.in_w {
                                        continue;
                                    }
                                    let x = q[((n * d.in_c + c) * d.in_h + iy) * d.in_w + ix];
                                    let w = weight.values[((o * d.in_c + c) * k + ky) * k + kx];
                                    acc += i32::from(x) * i32::from(w);
                                }
                            }
                        }
                        let v = acc as f32 * (w_scale * input_scale) + b;
                        out.push(if relu { v.max(0.0) } else { v });
                    }
                }
            }
        }
        out
    }

    /// The tiled int8 conv equals the exact integer reference bit for bit
    /// at its tile edges: batch 23 ends in a partial tile, a 24×24
    /// stride-1 sample is 576 columns (wider than a tile), the k7 stride-2
    /// and 1×1 stride-2 shapes are the stem's and the projections', and a
    /// 1×1 conv over 1×1 maps at batch 600 is the classifier head's, run
    /// as tiles of 512 and 88 samples. The input range overshoots the
    /// scale, so some values clamp at ±127.
    #[test]
    fn conv_q8_matches_exact_integer_reference() {
        let mut rng = crate::init::TensorRng::seed_from_u64(61);
        for &(batch, in_c, out_c, h, k, s, p) in &[
            (23usize, 4usize, 6usize, 7usize, 3usize, 1usize, 1usize),
            (2, 3, 5, 24, 3, 1, 1),
            (5, 3, 8, 17, 7, 2, 3),
            (6, 8, 4, 9, 1, 2, 0),
            (600, 40, 3, 1, 1, 1, 0),
        ] {
            let case = format!("batch={batch} in_c={in_c} h={h} k={k} s={s} p={p}");
            let input = crate::init::uniform(&[batch, in_c, h, h], -1.5, 1.5, &mut rng);
            let per_out = in_c * k * k;
            let values = pattern(out_c * per_out, k as i32);
            let scales: Vec<f32> = (0..out_c).map(|o| 1e-3 + o as f32 * 2e-4).collect();
            let weight = QuantizedConvWeight::new(values, scales, out_c, in_c, k);
            let bias: Vec<f32> = (0..out_c).map(|o| o as f32 * 0.05 - 0.1).collect();
            let input_scale = 1.0 / 127.0;
            for relu in [false, true] {
                let got = conv2d_q8(&input, &weight, input_scale, &bias, relu, s, p);
                let want = direct_conv_q8(&input, &weight, input_scale, &bias, relu, s, p);
                assert_eq!(got.numel(), want.len(), "{case}");
                for (i, (x, y)) in got.as_slice().iter().zip(&want).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{case} relu={relu}: elem {i}");
                }
            }
        }
        assert_eq!(crate::conv::fused_conv_tiles(23, 7 * 7), 3);
        assert_eq!(crate::conv::fused_conv_tiles(2, 24 * 24), 2);
        assert_eq!(crate::conv::fused_conv_tiles(600, 1), 2);
    }

    #[test]
    fn conv_q8_matches_dequantized_reference() {
        // A 1x1-channel conv small enough to verify by hand through the
        // f32 path: quantize input/weight, run both, compare within the
        // combined quantization error bound.
        let mut rng = crate::init::TensorRng::seed_from_u64(42);
        let input = crate::init::uniform(&[2, 3, 6, 6], -1.0, 1.0, &mut rng);
        let weight = crate::init::uniform(&[4, 3, 3, 3], -0.5, 0.5, &mut rng);
        let bias = vec![0.1f32, -0.2, 0.3, 0.0];
        let out_c = 4;
        let per_out = 27;
        let mut values = vec![0i8; out_c * per_out];
        let mut scales = vec![0.0f32; out_c];
        for o in 0..out_c {
            let row = &weight.as_slice()[o * per_out..][..per_out];
            let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            scales[o] = (max_abs / 127.0).max(f32::MIN_POSITIVE);
            quantize_slice_i8(row, scales[o], &mut values[o * per_out..][..per_out]);
        }
        let input_scale = 1.0 / 127.0;
        let qw = QuantizedConvWeight::new(values, scales.clone(), out_c, 3, 3);
        let got = conv2d_q8(&input, &qw, input_scale, &bias, true, 1, 1);
        let packed = crate::conv::pack_conv_weight(&weight);
        let reference = crate::conv::conv2d_bias_act(&input, &packed, &bias, true, 1, 1);
        assert_eq!(got.dims(), reference.dims());
        let mut max_delta = 0.0f32;
        for (g, r) in got.as_slice().iter().zip(reference.as_slice()) {
            max_delta = max_delta.max((g - r).abs());
        }
        // Error bound: per-tap error ≤ (in_err·|w| + w_err·|x|) summed over
        // 27 taps; generous envelope for these ranges.
        assert!(max_delta < 0.15, "quantized conv drifted: {max_delta}");
    }
}
