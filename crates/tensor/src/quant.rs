//! Int8 quantized inference kernels: packed i8×i8→i32 GEMM with fused
//! requantize+bias+ReLU epilogues, plus a quantizing im2col convolution
//! driver.
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
use crate::conv::Conv2dDims;
use crate::parallel;
use crate::tensor::Tensor;
use std::sync::OnceLock;

/// Quantizes `src` to i8 into `dst` with a symmetric scale: each value maps
/// to `round(x / scale)` clamped to `[-127, 127]`. Mirrors the element
/// formula of `hydronas_graph`'s `quantize_tensor` so weight-side and
/// activation-side quantization agree bit-for-bit for the same scale.
pub fn quantize_slice_i8(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_slice_i8 length mismatch");
    assert!(
        scale > 0.0 && scale.is_finite(),
        "quantization scale must be positive and finite, got {scale}"
    );
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = quantize_one(s, scale);
    }
}

#[inline]
fn quantize_one(v: f32, scale: f32) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
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

/// Requantizing epilogue of [`qgemm_nt`]: `C[i][j] = act(acc × scale +
/// bias)`, one f32 multiply-add per exact i32 accumulator, with `scale`
/// and `bias` indexed by the named axis and `act` ReLU when `relu` is
/// set. Each scale is the *combined* `w_scale × input_scale` that maps
/// the integer accumulator back to real units in one multiply.
#[derive(Clone, Copy)]
pub enum QEpilogue<'a> {
    /// One scale and bias per output row (`len == m`): the convolution
    /// shape, where row `i` is output channel `i`.
    Rows {
        scales: &'a [f32],
        bias: &'a [f32],
        relu: bool,
    },
    /// One scale and bias per output column (`len == n`): the
    /// fully-connected shape, where row `i` is a batch sample and column
    /// `j` an output feature.
    Cols {
        scales: &'a [f32],
        bias: &'a [f32],
        relu: bool,
    },
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
    let (scales, bias, relu, per_row) = match epi {
        QEpilogue::Rows { scales, bias, relu } => (scales, bias, relu, true),
        QEpilogue::Cols { scales, bias, relu } => (scales, bias, relu, false),
    };
    let (axis, len) = if per_row { ("row", m) } else { ("column", n) };
    assert_eq!(scales.len(), len, "epilogue needs one scale per {axis}");
    assert_eq!(bias.len(), len, "epilogue needs one bias per {axis}");
    record_qgemm(m, k, n);
    if m == 0 || n == 0 {
        return;
    }
    // The axis is fixed per call, so each arm compiles its own loop.
    if per_row {
        qgemm_rows(a, bt, c, k, n, |i, _, acc| {
            requant(acc, scales[i], bias[i], relu)
        });
    } else {
        qgemm_rows(a, bt, c, k, n, |_, j, acc| {
            requant(acc, scales[j], bias[j], relu)
        });
    }
}

/// One requantized output: `act(acc × scale + bias)`, a single f32
/// multiply-add, so the rounding does not depend on accumulation order.
#[inline(always)]
fn requant(acc: i32, scale: f32, bias: f32, relu: bool) -> f32 {
    let v = acc as f32 * scale + bias;
    if relu {
        v.max(0.0)
    } else {
        v
    }
}

/// The NT GEMM loop: parallelizes over rows of `C` and writes
/// `epilogue(row, col, acc)` for each exact i32 dot product.
fn qgemm_rows<E>(a: &[i8], bt: &[i8], c: &mut [f32], k: usize, n: usize, epilogue: E)
where
    E: Fn(usize, usize, i32) -> f32 + Sync,
{
    let dot = dot_kernel();
    parallel::par_chunks_mut(c, n, |i, row| {
        let ar = &a[i * k..(i + 1) * k];
        for (j, out) in row.iter_mut().enumerate() {
            *out = epilogue(i, j, dot(ar, &bt[j * k..(j + 1) * k]));
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

    /// Quantized filter values, `[out_c, in_c·k·k]` row-major.
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// Per-output-channel weight scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// True serving bytes: one byte per weight plus one f32 scale per
    /// output channel.
    pub fn weight_bytes(&self) -> u64 {
        self.values.len() as u64 + 4 * self.scales.len() as u64
    }
}

/// Unfolds one CHW image into the **transposed** quantized column matrix
/// `[out_h·out_w, in_c·k·k]`: row `j` is the (quantized) input patch under
/// output pixel `j`, contiguous so the NT GEMM can consume it directly.
/// Out-of-bounds taps quantize to exactly 0, matching f32 zero padding.
fn im2col_t_q8(img: &[f32], d: &Conv2dDims, input_scale: f32, out: &mut [i8]) {
    let cr = d.col_rows();
    debug_assert_eq!(out.len(), d.col_cols() * cr);
    let plane = d.in_h * d.in_w;
    for oy in 0..d.out_h {
        for ox in 0..d.out_w {
            let row = &mut out[(oy * d.out_w + ox) * cr..][..cr];
            let mut idx = 0;
            for c in 0..d.in_c {
                let img_c = &img[c * plane..][..plane];
                for ky in 0..d.kernel {
                    let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                    if iy < 0 || iy >= d.in_h as isize {
                        row[idx..idx + d.kernel].fill(0);
                        idx += d.kernel;
                        continue;
                    }
                    let src = &img_c[iy as usize * d.in_w..][..d.in_w];
                    for kx in 0..d.kernel {
                        let ix = (ox * d.stride + kx) as isize - d.padding as isize;
                        row[idx] = if ix < 0 || ix >= d.in_w as isize {
                            0
                        } else {
                            quantize_one(src[ix as usize], input_scale)
                        };
                        idx += 1;
                    }
                }
            }
        }
    }
}

/// True int8 convolution with fused bias + optional ReLU.
///
/// The f32 input is quantized on the fly with the **static** `input_scale`
/// fixed at calibration time (never from the batch itself, so results are
/// batch-composition-invariant), unfolded into the transposed int8 column
/// matrix, and multiplied against the pre-quantized weight with pure i8×i8→
/// i32 arithmetic. The epilogue folds `w_scale[ch] × input_scale` and the
/// f32 bias into a single multiply-add per output element.
///
/// The int8 column buffer is a plain per-sample allocation: the scratch
/// arena ([`crate::arena`]) is f32-typed, so its zero-alloc guarantee covers
/// the f32 training path only.
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
    let in_sz = d.in_c * d.in_h * d.in_w;
    let out_sz = d.out_c * cc;
    let mut out = Tensor::zeros(&[d.batch, d.out_c, d.out_h, d.out_w]);
    let input_data = input.as_slice();
    parallel::par_chunks_mut(out.as_mut_slice(), out_sz, |n, out_n| {
        let img = &input_data[n * in_sz..(n + 1) * in_sz];
        let mut colt = vec![0i8; cc * cr];
        im2col_t_q8(img, &d, input_scale, &mut colt);
        let epi = QEpilogue::Rows {
            scales: &combined,
            bias,
            relu,
        };
        qgemm_nt(&weight.values, &colt, out_n, d.out_c, cr, cc, epi);
    });
    out
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
        let epi = QEpilogue::Rows {
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
        let epi = QEpilogue::Rows {
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
    fn col_scaled_epilogue_applies_per_column() {
        let a = vec![1i8, 2, 3, 4]; // [2, 2]
        let bt = vec![1i8, 0, 0, 1]; // identity transposed
        let epi = QEpilogue::Cols {
            scales: &[2.0, 0.5],
            bias: &[1.0, -1.0],
            relu: false,
        };
        let mut c = vec![0.0f32; 4];
        qgemm_nt(&a, &bt, &mut c, 2, 2, 2, epi);
        assert_eq!(c, vec![3.0, 0.0, 7.0, 1.0]);
    }

    #[test]
    fn quantize_slice_matches_formula() {
        let src = [0.0f32, 0.6, -0.6, 100.0, -100.0];
        let mut dst = [0i8; 5];
        quantize_slice_i8(&src, 0.5, &mut dst);
        assert_eq!(dst, [0, 1, -1, 127, -127]);
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
