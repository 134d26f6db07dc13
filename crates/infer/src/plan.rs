//! Compilation of a trained [`ResNet`] into a read-only execution plan.
//!
//! The plan is the serving-side twin of the trainable model: every layer is
//! lowered to the exact tensors and fused kernels inference needs, and the
//! result is immutable — one plan can be shared across worker threads behind
//! an `Arc` with no per-thread clones and no interior mutability.
//!
//! Plans are built through the typed [`PlanBuilder`]
//! (`ExecutionPlan::builder(&model)…build()?`).
//!
//! ## Numerics modes
//!
//! * [`Numerics::Exact`] keeps conv and batch norm as separate passes using
//!   the same kernel calls and the same per-element expressions as
//!   [`ResNet::forward_eval`], so plan output is **bit-identical** to the
//!   model's eval forward.
//! * [`Numerics::Fused`] folds each batch norm into the preceding
//!   convolution's weights and bias (`W'[o] = W[o]·γ[o]/√(var[o]+ε)`,
//!   `b'[o] = β[o] − γ[o]·mean[o]/√(var[o]+ε)`) and executes through the
//!   fused per-row bias/ReLU GEMM epilogues — one pass over each output
//!   instead of three. Folding reassociates float arithmetic, so outputs
//!   agree with eval forward only to within a small relative tolerance.
//! * [`Numerics::QuantizedInt8`] folds batch norms the same way, then
//!   quantizes every conv/FC weight to int8 (per-channel or per-tensor
//!   symmetric) and fixes one static input scale per layer from a
//!   calibration batch. At run time convs and the FC execute in pure
//!   i8×i8→i32 arithmetic with a fused requantize+bias+ReLU epilogue
//!   (`acc_i32 × (w_scale·in_scale) + bias`); activations travel between
//!   layers as f32 and are re-quantized at each layer's static scale.
//!   The stored weights are the bytes the kernels read. Scales are fixed
//!   at build time — never derived from the batch being served — so
//!   quantized output keeps the same batch-composition invariance as the
//!   f32 paths, and the integer accumulation makes it bit-identical at any
//!   thread count.
//!
//! ## One forward walk
//!
//! [`ExecutionPlan::run_batch`], [`ExecutionPlan::profile_batch`] and int8
//! calibration all run the same private walk over the layers, which hands
//! each layer and its input to a per-layer observer: nothing on the hot
//! path, a timer when profiling, activation observers when calibrating.
//! A profile therefore times exactly the code `run_batch` runs.

use hydronas_graph::{
    quantize_per_channel, quantize_tensor, ActivationObserver, CalibrationMethod,
};
use hydronas_nn::{BatchNorm2d, Conv2d, Linear, ResNet};
use hydronas_tensor::{
    avg_pool2d_global, conv2d, conv2d_bias_act, conv2d_q8, conv_out_dim, gemm, max_pool2d,
    pack_conv_weight, qgemm_nt, quantize_slice_i8, Epilogue, GemmA, GemmB, PackedBLayout,
    PackedConvWeight, QEpilogue, QuantizedConvWeight, Tensor,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

use crate::engine::InferError;

/// Float-arithmetic contract of a compiled plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Numerics {
    /// Separate conv and batch-norm passes, bit-identical to
    /// [`ResNet::forward_eval`].
    Exact,
    /// Batch norm folded into conv weights and fused bias/ReLU epilogues;
    /// equal to eval forward only up to float re-rounding.
    Fused,
    /// True int8 execution: BN-folded weights quantized to i8, static
    /// calibrated activation scales, conv/FC running on i8×i8→i32 kernels
    /// with fused requantization. Requires a calibrated
    /// [`QuantizationScheme`] via [`PlanBuilder::quantization`].
    QuantizedInt8,
}

/// Weight-scale granularity of a [`QuantizationScheme`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Granularity {
    PerChannel,
    PerTensor,
}

/// How a [`Numerics::QuantizedInt8`] plan quantizes weights and calibrates
/// activation scales.
///
/// Construct with [`per_channel`](Self::per_channel) (one weight scale per
/// output channel — the right default once batch norm is folded in, which
/// stretches channel magnitudes unevenly) or
/// [`per_tensor`](Self::per_tensor) (one scale per weight tensor), then
/// attach a calibration batch:
///
/// ```ignore
/// QuantizationScheme::per_channel().calibrate(CalibrationMethod::MinMax, &batch)
/// ```
#[derive(Clone, Debug)]
pub struct QuantizationScheme {
    granularity: Granularity,
    method: Option<CalibrationMethod>,
    calibration: Option<Tensor>,
}

impl QuantizationScheme {
    /// Per-output-channel symmetric weight scales.
    pub fn per_channel() -> QuantizationScheme {
        QuantizationScheme {
            granularity: Granularity::PerChannel,
            method: None,
            calibration: None,
        }
    }

    /// One symmetric weight scale per tensor. Cheaper metadata, coarser
    /// resolution — see DESIGN.md for the trade-off.
    pub fn per_tensor() -> QuantizationScheme {
        QuantizationScheme {
            granularity: Granularity::PerTensor,
            method: None,
            calibration: None,
        }
    }

    /// Attaches the activation-calibration method and the NCHW batch the
    /// observers run over. The batch fixes every layer's static input
    /// scale at build time; serving never derives scales from live data.
    pub fn calibrate(mut self, method: CalibrationMethod, batch: &Tensor) -> QuantizationScheme {
        self.method = Some(method);
        self.calibration = Some(batch.clone());
        self
    }
}

/// Typed builder for [`ExecutionPlan`] — see [`ExecutionPlan::builder`].
///
/// Invalid combinations surface as
/// [`InferError::InvalidQuantization`] from [`build`](Self::build) instead
/// of panicking mid-compile.
pub struct PlanBuilder<'m> {
    model: &'m ResNet,
    numerics: Numerics,
    quantization: Option<QuantizationScheme>,
}

impl<'m> PlanBuilder<'m> {
    /// Selects the numerics contract (default [`Numerics::Fused`]).
    pub fn numerics(mut self, numerics: Numerics) -> PlanBuilder<'m> {
        self.numerics = numerics;
        self
    }

    /// Attaches the quantization scheme. Required for — and only valid
    /// with — [`Numerics::QuantizedInt8`].
    pub fn quantization(mut self, scheme: QuantizationScheme) -> PlanBuilder<'m> {
        self.quantization = Some(scheme);
        self
    }

    /// Compiles the plan, validating the quantization setup first.
    pub fn build(self) -> Result<ExecutionPlan, InferError> {
        let invalid = |reason: String| InferError::InvalidQuantization { reason };
        match self.numerics {
            Numerics::Exact | Numerics::Fused => {
                if self.quantization.is_some() {
                    return Err(invalid(
                        "a QuantizationScheme only applies to Numerics::QuantizedInt8; \
                         drop .quantization(..) or switch numerics"
                            .to_string(),
                    ));
                }
                Ok(compile_f32(self.model, self.numerics))
            }
            Numerics::QuantizedInt8 => {
                let scheme = self.quantization.ok_or_else(|| {
                    invalid(
                        "Numerics::QuantizedInt8 needs a QuantizationScheme; \
                         call .quantization(QuantizationScheme::per_channel().calibrate(..))"
                            .to_string(),
                    )
                })?;
                let method = scheme.method.ok_or_else(|| {
                    invalid(
                        "QuantizationScheme has no calibration; \
                         call .calibrate(CalibrationMethod, &batch)"
                            .to_string(),
                    )
                })?;
                method.validate().map_err(invalid)?;
                let batch = scheme
                    .calibration
                    .expect("calibrate() always sets the batch");
                if batch.shape().ndim() != 4 {
                    return Err(invalid(format!(
                        "calibration batch must be NCHW, got {} dims",
                        batch.shape().ndim()
                    )));
                }
                if batch.dims()[0] == 0 {
                    return Err(invalid("calibration batch is empty".to_string()));
                }
                if batch.dims()[1] != self.model.arch.in_channels {
                    return Err(invalid(format!(
                        "calibration batch has {} channels but the model expects {}",
                        batch.dims()[1],
                        self.model.arch.in_channels
                    )));
                }
                Ok(compile_quantized(
                    self.model,
                    scheme.granularity,
                    method,
                    &batch,
                ))
            }
        }
    }
}

/// How one conv's batch norm is executed.
enum ConvKind {
    /// Post-conv batch norm applied as its own elementwise pass over the
    /// running statistics, replicating the layer expression bit-for-bit.
    /// Keeps the raw weight tensor because it must go through the same
    /// `conv2d` call `forward_eval` makes.
    Exact {
        weight: Tensor,
        gamma: Vec<f32>,
        beta: Vec<f32>,
        mean: Vec<f32>,
        inv_std: Vec<f32>,
    },
    /// Batch norm folded into the conv weight, which is stored already
    /// packed into GEMM panels ([`pack_conv_weight`]) — the per-call
    /// weight-packing pass is paid once here at compile time. `bias`
    /// rides the GEMM epilogue (per output-channel row).
    Fused {
        weight: PackedConvWeight,
        bias: Vec<f32>,
    },
    /// BN-folded weight quantized to int8; executes through
    /// [`conv2d_q8`]'s i8×i8→i32 kernel with the static calibrated
    /// `input_scale` and a fused requantize+bias(+ReLU) epilogue.
    Quantized {
        weight: QuantizedConvWeight,
        input_scale: f32,
        bias: Vec<f32>,
    },
}

/// One conv + batch-norm (+ optional ReLU) step of the plan.
struct ConvBnOp {
    stride: usize,
    padding: usize,
    relu: bool,
    kind: ConvKind,
}

impl ConvBnOp {
    fn apply(&self, input: &Tensor) -> Tensor {
        match &self.kind {
            ConvKind::Fused { weight, bias } => {
                conv2d_bias_act(input, weight, bias, self.relu, self.stride, self.padding)
            }
            ConvKind::Quantized {
                weight,
                input_scale,
                bias,
            } => conv2d_q8(
                input,
                weight,
                *input_scale,
                bias,
                self.relu,
                self.stride,
                self.padding,
            ),
            ConvKind::Exact {
                weight,
                gamma,
                beta,
                mean,
                inv_std,
            } => {
                let mut x = conv2d(input, weight, self.stride, self.padding);
                let dims = x.dims().to_vec();
                let (n, c, plane) = (dims[0], dims[1], dims[2] * dims[3]);
                let data = x.as_mut_slice();
                for b in 0..n {
                    for ch in 0..c {
                        let base = (b * c + ch) * plane;
                        let (mu, is, gg, bb) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
                        for v in &mut data[base..base + plane] {
                            // Same expression as BatchNorm2d's eval branch;
                            // the trailing max is ReLU and keeps bit-identity
                            // because it reads the already-rounded value.
                            let xi = (*v - mu) * is;
                            let y = gg * xi + bb;
                            *v = if self.relu { y.max(0.0) } else { y };
                        }
                    }
                }
                x
            }
        }
    }

    /// `(out_c, in_c, kernel)` of this conv, whatever its storage.
    fn weight_dims(&self) -> (usize, usize, usize) {
        match &self.kind {
            ConvKind::Exact { weight, .. } => {
                let d = weight.dims();
                (d[0], d[1], d[2])
            }
            ConvKind::Fused { weight, .. } => (weight.out_c(), weight.in_c(), weight.kernel()),
            ConvKind::Quantized { weight, .. } => (weight.out_c(), weight.in_c(), weight.kernel()),
        }
    }

    fn is_quantized(&self) -> bool {
        matches!(self.kind, ConvKind::Quantized { .. })
    }
}

/// One residual block: `conv1(+relu) -> conv2`, plus optional 1x1
/// projection, then `relu(main + skip)`.
struct BlockOp {
    conv1: ConvBnOp,
    conv2: ConvBnOp,
    proj: Option<ConvBnOp>,
}

/// `main = relu(main + skip)` in one in-place pass instead of
/// clone/add/map. Per element this computes exactly
/// `(main + skip).max(0.0)` — the same rounding as forward_eval's separate
/// passes, so every numerics contract survives the fusion.
fn add_relu(main: &mut Tensor, skip: &Tensor) {
    assert_eq!(main.dims(), skip.dims(), "residual shapes must match");
    for (m, s) in main.as_mut_slice().iter_mut().zip(skip.as_slice()) {
        *m = (*m + *s).max(0.0);
    }
}

/// The plan's fully-connected head.
enum FcOp {
    /// f32 weight `[in_f, out_f]`, multiplied through the same GEMM call
    /// `forward_eval` makes, so the bits match the model's own FC.
    Exact { weight: Tensor, bias: Vec<f32> },
    /// f32 weight `[in_f, out_f]` packed once as the GEMM's B operand,
    /// so the head takes the packed path at every batch size and row `i`
    /// of a batch is bit-identical to sample `i` run alone.
    Fused {
        layout: PackedBLayout,
        weight: Vec<f32>,
        bias: Vec<f32>,
    },
    /// Quantized transposed weight `[out_f, in_f]` for the NT int8 GEMM.
    /// `scales[j]` is the combined `w_scale[j] × input_scale` applied in
    /// the column-scaled epilogue.
    Quantized {
        wt: Vec<i8>,
        scales: Vec<f32>,
        input_scale: f32,
        out_f: usize,
        bias: Vec<f32>,
    },
}

impl FcOp {
    fn out_features(&self) -> usize {
        match self {
            FcOp::Exact { weight, .. } => weight.dims()[1],
            FcOp::Fused { layout, .. } => layout.n(),
            FcOp::Quantized { out_f, .. } => *out_f,
        }
    }
}

/// Running tally of serialized weight bytes.
#[derive(Default)]
struct SizeLedger {
    bytes: u64,
}

impl SizeLedger {
    /// Records a truly int8-stored tensor: 1 byte per scalar, one f32 per
    /// stored weight scale, plus one f32 for the layer's static input
    /// scale.
    fn store_int8(&mut self, scalars: usize, stored_scales: usize) {
        self.bytes += scalars as u64 + 4 * stored_scales as u64 + 4;
    }

    fn store_f32(&mut self, values: &[f32]) {
        self.bytes += 4 * values.len() as u64;
    }
}

/// An immutable, compiled inference program for one trained model.
///
/// `&self` everywhere: the plan owns only read-only tensors, so it is
/// `Send + Sync` and one instance serves every engine worker.
pub struct ExecutionPlan {
    arch: hydronas_graph::ArchConfig,
    numerics: Numerics,
    stem: ConvBnOp,
    stem_pool: Option<(usize, usize, usize)>,
    blocks: Vec<BlockOp>,
    fc: FcOp,
    weight_bytes: u64,
}

/// Lowers `model` into a plan: every conv+BN through `conv`, called in
/// walk order (stem, then each block's conv1, conv2 and projection), and
/// the classifier head through `fc`.
fn lower(
    model: &ResNet,
    numerics: Numerics,
    mut conv: impl FnMut(&Conv2d, &BatchNorm2d, &mut SizeLedger) -> ConvKind,
    fc: impl FnOnce(&Linear, &mut SizeLedger) -> FcOp,
) -> ExecutionPlan {
    let mut ledger = SizeLedger::default();
    let mut op = |c: &Conv2d, bn: &BatchNorm2d, relu: bool| ConvBnOp {
        stride: c.stride,
        padding: c.padding,
        relu,
        kind: conv(c, bn, &mut ledger),
    };
    let stem = op(model.stem_conv(), model.stem_bn(), true);
    let blocks = model
        .blocks()
        .iter()
        .map(|b| BlockOp {
            conv1: op(b.conv1(), b.bn1(), true),
            conv2: op(b.conv2(), b.bn2(), false),
            proj: b.downsample().map(|(c, bn)| op(c, bn, false)),
        })
        .collect();
    let fc = fc(model.fc(), &mut ledger);
    ExecutionPlan {
        arch: model.arch,
        numerics,
        stem,
        stem_pool: model.stem_pool().map(|p| (p.kernel, p.stride, p.padding)),
        blocks,
        fc,
        weight_bytes: ledger.bytes,
    }
}

/// Folds a batch norm into its preceding conv, returning the folded weight
/// and bias: `W'[o] = W[o]·γ[o]/√(var[o]+ε)`,
/// `b'[o] = β[o] − γ[o]·mean[o]/√(var[o]+ε)`.
fn fold_conv_bn(conv: &Conv2d, bn: &BatchNorm2d) -> (Tensor, Vec<f32>) {
    let gamma = bn.gamma.value.as_slice();
    let beta = bn.beta.value.as_slice();
    let mean = bn.running_mean.as_slice();
    let w = &conv.weight.value;
    let out_c = w.dims()[0];
    let per_out = w.numel() / out_c;
    let mut folded = w.as_slice().to_vec();
    let mut bias = vec![0.0f32; out_c];
    for o in 0..out_c {
        let inv_std = 1.0 / (bn.running_var.as_slice()[o] + bn.eps).sqrt();
        let g = gamma[o] * inv_std;
        for v in &mut folded[o * per_out..(o + 1) * per_out] {
            *v *= g;
        }
        bias[o] = beta[o] - g * mean[o];
    }
    (Tensor::from_vec(folded, w.dims()), bias)
}

/// Compiles an f32 plan (`Exact` or `Fused`).
fn compile_f32(model: &ResNet, numerics: Numerics) -> ExecutionPlan {
    lower(
        model,
        numerics,
        |conv, bn, ledger| match numerics {
            Numerics::Exact => {
                let weight = conv.weight.value.clone();
                let (gamma, beta) = (bn.gamma.value.as_slice(), bn.beta.value.as_slice());
                let mean = bn.running_mean.as_slice();
                let var = bn.running_var.as_slice();
                for values in [weight.as_slice(), gamma, beta, mean, var] {
                    ledger.store_f32(values);
                }
                ConvKind::Exact {
                    weight,
                    gamma: gamma.to_vec(),
                    beta: beta.to_vec(),
                    mean: mean.to_vec(),
                    inv_std: var.iter().map(|&v| 1.0 / (v + bn.eps).sqrt()).collect(),
                }
            }
            Numerics::Fused => {
                let (weight, bias) = fold_conv_bn(conv, bn);
                ledger.store_f32(weight.as_slice());
                ledger.store_f32(&bias);
                ConvKind::Fused {
                    weight: pack_conv_weight(&weight),
                    bias,
                }
            }
            Numerics::QuantizedInt8 => {
                unreachable!("quantized plans are compiled by compile_quantized")
            }
        },
        |fc, ledger| {
            let weight = fc.weight.value.clone();
            let bias = fc.bias.value.as_slice().to_vec();
            ledger.store_f32(weight.as_slice());
            ledger.store_f32(&bias);
            if numerics == Numerics::Exact {
                return FcOp::Exact { weight, bias };
            }
            let layout = PackedBLayout::new(weight.dims()[0], weight.dims()[1]);
            let mut packed = vec![0.0f32; layout.len()];
            layout.pack(weight.as_slice(), &mut packed);
            FcOp::Fused {
                layout,
                weight: packed,
                bias,
            }
        },
    )
}

/// Quantizes a weight matrix of `rows` output rows per the scheme's
/// granularity and records its int8 payload; returns the i8 values and
/// one scale per row.
fn quantize_weight(
    values: &[f32],
    rows: usize,
    granularity: Granularity,
    ledger: &mut SizeLedger,
) -> (Vec<i8>, Vec<f32>) {
    let (values, scales, stored_scales) = match granularity {
        Granularity::PerChannel => {
            let q = quantize_per_channel(values, rows);
            (q.values, q.scales, rows)
        }
        Granularity::PerTensor => {
            let q = quantize_tensor(values);
            (q.values, vec![q.scale; rows], 1)
        }
    };
    ledger.store_int8(values.len(), stored_scales);
    (values, scales)
}

/// Compiles a [`Numerics::QuantizedInt8`] plan.
///
/// The calibration batch runs through a temporary [`Numerics::Fused`]
/// plan — the same BN-folded f32 network — under a [`Calibrator`], so each
/// scale describes exactly the tensor its layer quantizes at serve time.
/// That plan is dropped before the batch norms are folded again layer by
/// layer and quantized, so the build never holds two f32 copies of the
/// network.
fn compile_quantized(
    model: &ResNet,
    granularity: Granularity,
    method: CalibrationMethod,
    batch: &Tensor,
) -> ExecutionPlan {
    let mut calibrator = Calibrator {
        method,
        scales: Vec::new(),
    };
    compile_f32(model, Numerics::Fused).forward(batch, &mut calibrator);
    let mut scales = calibrator.scales;
    let fc_scale = scales.pop().expect("the walk observes the fc input last");
    let mut conv_scales = scales.into_iter();
    lower(
        model,
        Numerics::QuantizedInt8,
        |conv, bn, ledger| {
            let (weight, bias) = fold_conv_bn(conv, bn);
            let d = weight.dims();
            let (out_c, in_c, kernel) = (d[0], d[1], d[2]);
            let (values, scales) = quantize_weight(weight.as_slice(), out_c, granularity, ledger);
            ledger.store_f32(&bias);
            ConvKind::Quantized {
                weight: QuantizedConvWeight::new(values, scales, out_c, in_c, kernel),
                input_scale: conv_scales.next().expect("one calibrated scale per conv"),
                bias,
            }
        },
        |fc, ledger| {
            // Transpose [in_f, out_f] -> [out_f, in_f] so each output
            // feature is one contiguous NT-GEMM row with its own scale.
            let fc_w = &fc.weight.value;
            let (in_f, out_f) = (fc_w.dims()[0], fc_w.dims()[1]);
            let w = fc_w.as_slice();
            let mut wt = vec![0.0f32; in_f * out_f];
            for i in 0..in_f {
                for o in 0..out_f {
                    wt[o * in_f + i] = w[i * out_f + o];
                }
            }
            let (values, w_scales) = quantize_weight(&wt, out_f, granularity, ledger);
            let bias = fc.bias.value.as_slice().to_vec();
            ledger.store_f32(&bias);
            FcOp::Quantized {
                wt: values,
                scales: w_scales.iter().map(|s| s * fc_scale).collect(),
                input_scale: fc_scale,
                out_f,
                bias,
            }
        },
    )
}

impl ExecutionPlan {
    /// Starts a typed plan build:
    ///
    /// ```ignore
    /// let plan = ExecutionPlan::builder(&model)
    ///     .numerics(Numerics::QuantizedInt8)
    ///     .quantization(
    ///         QuantizationScheme::per_channel()
    ///             .calibrate(CalibrationMethod::MinMax, &calibration_batch),
    ///     )
    ///     .build()?;
    /// ```
    ///
    /// Defaults to [`Numerics::Fused`] with no quantization scheme.
    pub fn builder(model: &ResNet) -> PlanBuilder<'_> {
        PlanBuilder {
            model,
            numerics: Numerics::Fused,
            quantization: None,
        }
    }

    /// The architecture this plan was compiled from.
    pub fn arch(&self) -> &hydronas_graph::ArchConfig {
        &self.arch
    }

    /// The numerics contract the plan was compiled under.
    pub fn numerics(&self) -> Numerics {
        self.numerics
    }

    /// Serialized weight footprint in bytes.
    ///
    /// For quantized plans this is the true serving footprint: 1 byte per
    /// weight scalar, one f32 per stored weight scale (per output channel
    /// or per tensor), one f32 static input scale per layer, and f32
    /// biases. f32 plans count 4 bytes per weight, bias and batch-norm
    /// scalar.
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bytes
    }

    /// Peak transient activation bytes for one forward pass at the given
    /// batch size and square input extent — the serving-memory half of the
    /// Pareto trade-off next to [`weight_bytes`](Self::weight_bytes).
    ///
    /// Counts, per layer, the resident input + im2col column matrix +
    /// output for convs (columns are 1 byte/element on the quantized path,
    /// 4 on f32 paths) and input + quantized staging + output for the FC,
    /// and returns the largest. Pooling and the residual add are reads
    /// over already-counted buffers and never dominate.
    pub fn activation_bytes(&self, batch: usize, input_hw: usize) -> u64 {
        let mut peak = 0;
        let input = [batch, self.arch.in_channels, input_hw, input_hw];
        let _ = self.peak_resident(input, &mut peak);
        peak
    }

    /// Raises `peak` to each layer's [`Geometry::resident`] at input dims
    /// `x`, propagating shapes only, in walk order; stops at the first
    /// window that does not fit.
    fn peak_resident(&self, mut x: [usize; 4], peak: &mut u64) -> Option<()> {
        let mut visit = |layer: Layer<'_>, dims| {
            let geometry = layer.geometry(dims)?;
            *peak = (*peak).max(geometry.resident);
            Some(geometry.out)
        };
        x = visit(Layer::Stem(&self.stem), x)?;
        if let Some(pool) = self.stem_pool {
            x = visit(Layer::StemPool(pool), x)?;
        }
        for (i, block) in self.blocks.iter().enumerate() {
            let main = visit(Layer::Conv1(i, &block.conv1), x)?;
            let main = visit(Layer::Conv2(i, &block.conv2), main)?;
            if let Some(proj) = &block.proj {
                visit(Layer::Proj(i, proj), x)?;
            }
            x = main;
        }
        let pooled = visit(Layer::GlobalAvgPool, x)?;
        visit(Layer::Fc(&self.fc), pooled).map(drop)
    }

    /// The shared FC head: `pooled [N, in_f] -> logits [N, out_f]`.
    fn fc_forward(&self, pooled: &Tensor) -> Tensor {
        let (n, in_f) = (pooled.dims()[0], pooled.dims()[1]);
        let out_f = self.fc.out_features();
        let mut out = Tensor::zeros(&[n, out_f]);
        let (b, bias) = match &self.fc {
            FcOp::Exact { weight, bias } => (GemmB::Slice(weight.as_slice()), bias),
            FcOp::Fused {
                layout,
                weight,
                bias,
            } => (GemmB::Packed(layout, weight), bias),
            FcOp::Quantized {
                wt,
                scales,
                input_scale,
                bias,
                ..
            } => {
                let mut staged = vec![0i8; n * in_f];
                quantize_slice_i8(pooled.as_slice(), *input_scale, &mut staged);
                let epi = QEpilogue::Cols {
                    scales,
                    bias,
                    relu: false,
                };
                qgemm_nt(&staged, wt, out.as_mut_slice(), n, in_f, out_f, epi);
                return out;
            }
        };
        let (a, c) = (GemmA::Slice(pooled.as_slice()), out.as_mut_slice());
        gemm(a, b, c, n, in_f, out_f, Epilogue::ColBias(bias));
        out
    }

    /// The forward walk behind [`run_batch`](Self::run_batch),
    /// [`profile_batch`](Self::profile_batch) and int8 calibration: visits
    /// each layer once — stem, stem pool, each block's conv1, conv2,
    /// projection and add+ReLU, global pool, fc — handing it and its input
    /// to `observer`.
    fn forward<O: LayerObserver>(&self, input: &Tensor, observer: &mut O) -> Tensor {
        assert_eq!(input.shape().ndim(), 4, "plan input must be NCHW");
        assert_eq!(
            input.dims()[1],
            self.arch.in_channels,
            "input channel mismatch"
        );
        let mut x = observer.layer(Layer::Stem(&self.stem), input, || self.stem.apply(input));
        if let Some(pool) = self.stem_pool {
            let (kernel, stride, padding) = pool;
            x = observer.layer(Layer::StemPool(pool), &x, || {
                max_pool2d(&x, kernel, stride, padding).0
            });
        }
        for (i, block) in self.blocks.iter().enumerate() {
            let y = observer.layer(Layer::Conv1(i, &block.conv1), &x, || block.conv1.apply(&x));
            let mut main =
                observer.layer(Layer::Conv2(i, &block.conv2), &y, || block.conv2.apply(&y));
            // Free conv1's output before the projection allocates its own.
            drop(y);
            let proj = block
                .proj
                .as_ref()
                .map(|p| observer.layer(Layer::Proj(i, p), &x, || p.apply(&x)));
            let skip = proj.as_ref().unwrap_or(&x);
            observer.layer(Layer::AddRelu(i), skip, || add_relu(&mut main, skip));
            x = main;
        }
        let pooled = observer.layer(Layer::GlobalAvgPool, &x, || avg_pool2d_global(&x));
        observer.layer(Layer::Fc(&self.fc), &pooled, || self.fc_forward(&pooled))
    }

    /// Runs the plan over a batch: `[N, C, H, W] -> logits [N, classes]`.
    ///
    /// In [`Numerics::Fused`] mode every GEMM on this path has a prepacked
    /// operand (the conv weights and the FC weight are packed at build
    /// time), so it always takes the packed path and row `i` of a batched
    /// run is bit-identical to running sample `i` alone at any batch size. In
    /// [`Numerics::Exact`] mode the plan instead mirrors
    /// `ResNet::forward_eval` call-for-call, so its output is bit-identical
    /// to the model's eval forward at the same batch size.
    /// [`Numerics::QuantizedInt8`] keeps both properties at once: scales
    /// are static and per-sample, and the integer kernels are exact, so
    /// batched rows match single runs bit-for-bit at any thread count.
    pub fn run_batch(&self, input: &Tensor) -> Tensor {
        self.forward(input, &mut ())
    }

    /// Runs one `[C, H, W]` sample and returns its logits.
    pub fn run_single(&self, input: &Tensor) -> Vec<f32> {
        assert_eq!(input.shape().ndim(), 3, "single input must be CHW");
        let dims = input.dims();
        let batched = Tensor::from_vec(input.as_slice().to_vec(), &[1, dims[0], dims[1], dims[2]]);
        self.run_batch(&batched).as_slice().to_vec()
    }

    /// Runs the plan like [`run_batch`](Self::run_batch) — the same walk
    /// over the same kernels, so the logits are bit-identical — while
    /// timing every layer, returning the logits plus a [`LayerProfile`]
    /// with per-layer wall time, FLOPs, bytes, and share of the forward
    /// pass.
    ///
    /// FLOPs and bytes are computed from each layer's geometry (see
    /// [`LayerCost`]), the same for every numerics mode, so profiling
    /// needs no telemetry session and leaves any recorded telemetry as it
    /// is.
    pub fn profile_batch(&self, input: &Tensor) -> (Tensor, LayerProfile) {
        let mut timer = Timer::default();
        let out = self.forward(input, &mut timer);
        (out, timer.finish(input.dims()[0]))
    }
}

/// Cost of one profiled layer (see [`ExecutionPlan::profile_batch`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Layer label, e.g. `"stem"`, `"block2.conv1"`, `"fc"`.
    pub name: String,
    /// Wall-clock time spent in this layer, milliseconds (wall field).
    pub wall_ms: f64,
    /// Multiply-add FLOPs: `2·N·out_c·(in_c·k²)·(oh·ow)` for a conv,
    /// `2·N·in_f·out_f` for the fc, 0 for pooling and the residual add.
    pub flops: u64,
    /// Bytes moved. Convs and the fc count their GEMM's weight, column
    /// (im2col or pooled input) and output once each, operands at the
    /// kernel's element width (1 byte on int8 plans, 4 on f32) and outputs
    /// at 4; pooling counts its input and outputs as its kernels'
    /// telemetry counters do; the residual add counts 0.
    pub bytes: u64,
    /// Share of the whole forward pass's wall time, percent.
    pub pct: f64,
}

/// Per-layer cost table for one profiled forward pass.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerProfile {
    /// Batch size the profiled pass ran at.
    pub batch: usize,
    /// Whole forward pass wall time, milliseconds (wall field).
    pub total_wall_ms: f64,
    /// Layers in execution order.
    pub layers: Vec<LayerCost>,
}

/// One step of the forward walk: which layer runs, with the op it runs.
/// Block layers carry their block index.
#[derive(Clone, Copy)]
enum Layer<'p> {
    Stem(&'p ConvBnOp),
    /// Stem max pool `(kernel, stride, padding)`.
    StemPool((usize, usize, usize)),
    Conv1(usize, &'p ConvBnOp),
    Conv2(usize, &'p ConvBnOp),
    Proj(usize, &'p ConvBnOp),
    AddRelu(usize),
    GlobalAvgPool,
    Fc(&'p FcOp),
}

/// Shape and cost of one layer at one input shape.
#[derive(Default)]
struct Geometry {
    /// Output dims, NCHW; global pooling and the fc yield `[N, F, 1, 1]`.
    out: [usize; 4],
    /// As [`LayerCost::flops`].
    flops: u64,
    /// As [`LayerCost::bytes`].
    bytes: u64,
    /// Transient bytes resident while a conv or the fc runs: f32 input +
    /// column or int8 staging + f32 output. 0 for pooling and the
    /// residual add, which are reads over already-counted buffers and
    /// never dominate.
    resident: u64,
}

impl Layer<'_> {
    /// Label used in [`LayerProfile`]s — hydrobench's `layer.*` metrics
    /// key on these.
    fn name(self) -> String {
        match self {
            Layer::Stem(_) => "stem".to_string(),
            Layer::StemPool(_) => "stem.pool".to_string(),
            Layer::Conv1(i, _) => format!("block{i}.conv1"),
            Layer::Conv2(i, _) => format!("block{i}.conv2"),
            Layer::Proj(i, _) => format!("block{i}.proj"),
            Layer::AddRelu(i) => format!("block{i}.add_relu"),
            Layer::GlobalAvgPool => "global_avg_pool".to_string(),
            Layer::Fc(_) => "fc".to_string(),
        }
    }

    /// Whether the layer quantizes its input on an int8 plan (every conv
    /// and the fc).
    fn quantizes_input(self) -> bool {
        matches!(
            self,
            Layer::Stem(_) | Layer::Conv1(..) | Layer::Conv2(..) | Layer::Proj(..) | Layer::Fc(_)
        )
    }

    /// The layer's [`Geometry`] at input dims `[n, c, h, w]`, or `None`
    /// when its window does not fit the input.
    fn geometry(self, [n, c, h, w]: [usize; 4]) -> Option<Geometry> {
        let conv = |op: &ConvBnOp| {
            let (out_c, in_c, kernel) = op.weight_dims();
            let oh = conv_out_dim(h, kernel, op.stride, op.padding)?;
            let ow = conv_out_dim(w, kernel, op.stride, op.padding)?;
            let elem = if op.is_quantized() { 1 } else { 4 };
            // The im2col GEMM: [out_c, rows] x [rows, cols] -> [out_c, cols].
            let (rows, cols) = (in_c * kernel * kernel, n * oh * ow);
            let column = elem * rows * cols;
            let output = 4 * out_c * cols;
            Some(Geometry {
                out: [n, out_c, oh, ow],
                flops: (2 * out_c * rows * cols) as u64,
                bytes: (elem * out_c * rows + column + output) as u64,
                resident: (4 * n * in_c * h * w + column + output) as u64,
            })
        };
        match self {
            Layer::Stem(op) | Layer::Conv1(_, op) | Layer::Conv2(_, op) | Layer::Proj(_, op) => {
                conv(op)
            }
            Layer::StemPool((kernel, stride, padding)) => {
                let oh = conv_out_dim(h, kernel, stride, padding)?;
                let ow = conv_out_dim(w, kernel, stride, padding)?;
                Some(Geometry {
                    out: [n, c, oh, ow],
                    bytes: (4 * (n * c * h * w + 2 * n * c * oh * ow)) as u64,
                    ..Geometry::default()
                })
            }
            Layer::AddRelu(_) => Some(Geometry {
                out: [n, c, h, w],
                ..Geometry::default()
            }),
            Layer::GlobalAvgPool => Some(Geometry {
                out: [n, c, 1, 1],
                bytes: (4 * (n * c * h * w + n * c)) as u64,
                ..Geometry::default()
            }),
            Layer::Fc(fc) => {
                let (in_f, out_f) = (c, fc.out_features());
                let quantized = matches!(fc, FcOp::Quantized { .. });
                let elem = if quantized { 1 } else { 4 };
                let staging = if quantized { n * in_f } else { 0 };
                let output = 4 * n * out_f;
                Some(Geometry {
                    out: [n, out_f, 1, 1],
                    flops: (2 * n * in_f * out_f) as u64,
                    bytes: (elem * (in_f * out_f + n * in_f) + output) as u64,
                    resident: (4 * n * in_f + staging + output) as u64,
                })
            }
        }
    }
}

/// `dims` padded with trailing 1s to four axes (the pooled `[N, C]`
/// becomes `[N, C, 1, 1]`).
fn nchw(dims: &[usize]) -> [usize; 4] {
    let mut d = [1; 4];
    d[..dims.len()].copy_from_slice(dims);
    d
}

/// Receives every layer of the forward walk, in execution order.
trait LayerObserver {
    /// Runs one layer: `run` computes it from `input` (for the residual
    /// add, the skip operand — the main path is updated in place).
    fn layer<T>(&mut self, layer: Layer<'_>, input: &Tensor, run: impl FnOnce() -> T) -> T;
}

/// The hot path: observes nothing, so the walk compiles down to the bare
/// forward pass and no layer name is ever formatted.
impl LayerObserver for () {
    #[inline(always)]
    fn layer<T>(&mut self, _: Layer<'_>, _: &Tensor, run: impl FnOnce() -> T) -> T {
        run()
    }
}

/// Profiling observer: wall-times each layer and takes its FLOPs and
/// bytes from the layer's [`Geometry`], so it needs no telemetry session.
#[derive(Default)]
struct Timer {
    layers: Vec<LayerCost>,
}

impl LayerObserver for Timer {
    fn layer<T>(&mut self, layer: Layer<'_>, input: &Tensor, run: impl FnOnce() -> T) -> T {
        let geometry = layer.geometry(nchw(input.dims()));
        let start = Instant::now();
        let out = run();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let geometry = geometry.expect("a layer that ran fits its input");
        self.layers.push(LayerCost {
            name: layer.name(),
            wall_ms,
            flops: geometry.flops,
            bytes: geometry.bytes,
            pct: 0.0,
        });
        out
    }
}

impl Timer {
    fn finish(mut self, batch: usize) -> LayerProfile {
        let total_wall_ms: f64 = self.layers.iter().map(|l| l.wall_ms).sum();
        if total_wall_ms > 0.0 {
            for layer in &mut self.layers {
                layer.pct = layer.wall_ms * 100.0 / total_wall_ms;
            }
        }
        LayerProfile {
            batch,
            total_wall_ms,
            layers: self.layers,
        }
    }
}

/// Calibration observer: one [`ActivationObserver`] per quantization
/// point, each fixing the static int8 scale of one layer's input. Scales
/// land in walk order — stem, each block's conv1, conv2 and projection,
/// then the fc — the order [`lower`] builds the layers in.
struct Calibrator {
    method: CalibrationMethod,
    scales: Vec<f32>,
}

impl LayerObserver for Calibrator {
    fn layer<T>(&mut self, layer: Layer<'_>, input: &Tensor, run: impl FnOnce() -> T) -> T {
        if layer.quantizes_input() {
            let mut observer = ActivationObserver::new(self.method);
            observer.observe(input.as_slice());
            self.scales.push(observer.scale());
        }
        run()
    }
}
