//! Post-training int8 quantization — the natural next step the paper's
//! "resource-limited devices" framing points at: a 4x smaller serialized
//! model and proportionally less weight traffic for the memory-bound
//! kernels that dominate tile-resolution inference.
//!
//! Scheme: symmetric affine quantization, `i8` values plus `f32` scales
//! (`w ≈ scale * q`). The size model ([`quantized_size_bytes`]) stores one
//! scale per initializer; the serving plan quantizes each conv weight per
//! output channel ([`quantize_per_channel`]) and calibrates activation
//! scales with an [`ActivationObserver`].

use crate::analysis::node_cost;
use crate::graph::{GraphError, ModelGraph};
use serde::{Deserialize, Serialize};

/// Symmetric quantization of one chunk: appends its int8 values to
/// `values` and returns its scale.
///
/// The scale maps the largest-magnitude weight to ±127; an all-zero chunk
/// gets scale 1 (any scale dequantizes zeros to zeros). A chunk whose
/// largest magnitude is subnormally small gets the minimum positive normal
/// scale: without the floor, `max_abs / 127` can underflow to 0, making
/// `w / scale` produce NaN/inf that `as i8` silently collapses to 0 and
/// `dequantize` cannot invert.
fn quantize_chunk(weights: &[f32], values: &mut Vec<i8>) -> f32 {
    let max_abs = weights.iter().fold(0.0f32, |acc, &w| acc.max(w.abs()));
    let scale = symmetric_scale(max_abs);
    values.extend(
        weights
            .iter()
            .map(|&w| (w / scale).round().clamp(-127.0, 127.0) as i8),
    );
    scale
}

/// Maps a maximum observed magnitude to a symmetric int8 scale, flooring at
/// `f32::MIN_POSITIVE` so division by the scale can never overflow to
/// inf/NaN (see [`quantize_chunk`]).
fn symmetric_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        (max_abs / 127.0).max(f32::MIN_POSITIVE)
    } else {
        1.0
    }
}

/// Per-channel symmetrically quantized tensor: `channels` independent
/// scales, each covering one equal-length contiguous chunk of `values`.
///
/// For a conv weight `[out_c, in_c·k·k]` each output channel's filter gets
/// its own scale, which preserves dynamic range when per-channel magnitudes
/// differ by orders of magnitude — exactly the regime BN-folded weights
/// land in, where the folded `γ/σ` factor stretches channels unevenly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChannelQuantizedTensor {
    /// One scale per channel, in channel order.
    pub scales: Vec<f32>,
    /// Quantized payload, `[channels, len/channels]` row-major.
    pub values: Vec<i8>,
}

/// Per-channel symmetric quantization: splits `weights` into `channels`
/// equal contiguous chunks and quantizes each with its own scale. One
/// channel quantizes the whole blob with one scale.
///
/// Panics if `channels` is zero or does not divide `weights.len()`.
pub fn quantize_per_channel(weights: &[f32], channels: usize) -> ChannelQuantizedTensor {
    assert!(channels > 0, "need at least one channel");
    assert_eq!(
        weights.len() % channels,
        0,
        "weight length {} not divisible into {} channels",
        weights.len(),
        channels
    );
    let per_channel = weights.len() / channels;
    let mut scales = Vec::with_capacity(channels);
    let mut values = Vec::with_capacity(weights.len());
    for chunk in weights.chunks_exact(per_channel) {
        scales.push(quantize_chunk(chunk, &mut values));
    }
    ChannelQuantizedTensor { scales, values }
}

impl ChannelQuantizedTensor {
    /// Number of channels (= number of scales).
    pub fn channels(&self) -> usize {
        self.scales.len()
    }

    /// Reconstructs approximate fp32 weights, channel by channel.
    pub fn dequantize(&self) -> Vec<f32> {
        let per_channel = self.values.len() / self.scales.len().max(1);
        self.values
            .iter()
            .enumerate()
            .map(|(i, &q)| f32::from(q) * self.scales[i / per_channel])
            .collect()
    }

    /// Worst-case absolute reconstruction error within channel `ch`.
    pub fn max_error(&self, ch: usize) -> f32 {
        self.scales[ch] * 0.5
    }
}

/// How an activation-range observer turns observed magnitudes into a
/// clipping range (and thus an int8 scale).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CalibrationMethod {
    /// Clip at the largest magnitude seen: zero clipping error, but one
    /// outlier can stretch the scale and waste resolution.
    MinMax,
}

/// Streams activation values and produces a deterministic symmetric int8
/// scale for them.
///
/// Determinism contract: the resulting scale depends only on the multiset
/// of observed values — never on observation batching, ordering, or thread
/// count — because it folds a max, which is associative and order-free.
#[derive(Clone, Debug)]
pub struct ActivationObserver {
    max_abs: f32,
}

impl ActivationObserver {
    /// New observer for `method`, having seen nothing.
    pub fn new(method: CalibrationMethod) -> Self {
        match method {
            CalibrationMethod::MinMax => ActivationObserver { max_abs: 0.0 },
        }
    }

    /// Folds a batch of activations into the observer. Non-finite values
    /// are ignored (they would otherwise poison the scale forever).
    pub fn observe(&mut self, values: &[f32]) {
        for &v in values {
            if v.is_finite() {
                self.max_abs = self.max_abs.max(v.abs());
            }
        }
    }

    /// The symmetric int8 scale for everything observed so far. An
    /// observer that saw nothing (or only zeros) returns scale 1.
    pub fn scale(&self) -> f32 {
        symmetric_scale(self.max_abs)
    }
}

/// Int8 size accounting: replace the 4-byte weight payload inside the
/// serialized fp32 size with a 1-byte payload plus one f32 scale per
/// parameterized node.
///
/// The subtraction is checked: if the counted payload (`4 * params`) ever
/// exceeds the serialized size — possible only if the serializer and the
/// cost model disagree about which tensors are stored — this reports
/// [`GraphError::QuantizedSizeUnderflow`] instead of wrapping to an
/// astronomically large "size".
fn int8_size_bytes(fp32: u64, params: u64, parameterized_nodes: u64) -> Result<u64, GraphError> {
    let payload = 4 * params;
    let stripped = fp32
        .checked_sub(payload)
        .ok_or(GraphError::QuantizedSizeUnderflow {
            serialized: fp32,
            payload,
        })?;
    Ok(stripped + params + 4 * parameterized_nodes)
}

/// Serialized size of the model with symmetric per-tensor int8 weights, in
/// bytes: the fp32 size ([`serialized_size_bytes`]) with each weight stored
/// in 1 byte instead of 4, plus one f32 scale per parameterized node; graph
/// metadata is unchanged.
///
/// For the current `HONX` serializer the fp32 size always includes the full
/// `4 * params` payload, so the int8 arithmetic cannot underflow; the
/// `Result` contract guards the accounting against future serializer
/// changes (e.g. compressed or externalized weights) rather than silently
/// wrapping.
///
/// [`serialized_size_bytes`]: crate::onnx::serialized_size_bytes
pub fn quantized_size_bytes(graph: &ModelGraph) -> Result<u64, GraphError> {
    let fp32 = crate::onnx::serialized_size_bytes(graph);
    let params: u64 = graph.nodes.iter().map(|n| node_cost(n).params).sum();
    let parameterized_nodes = graph
        .nodes
        .iter()
        .filter(|n| node_cost(n).params > 0)
        .count() as u64;
    int8_size_bytes(fp32, params, parameterized_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::BASELINE_RESNET18;
    use crate::graph::ModelGraph;

    #[test]
    fn quantize_roundtrip_bounds_error() {
        let weights: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.013).collect();
        let q = quantize_per_channel(&weights, 1);
        let back = q.dequantize();
        for (w, b) in weights.iter().zip(&back) {
            assert!((w - b).abs() <= q.max_error(0) + 1e-7, "{w} vs {b}");
        }
    }

    #[test]
    fn extreme_values_map_to_127() {
        let q = quantize_per_channel(&[-2.0, 0.0, 2.0], 1);
        assert_eq!(q.values, vec![-127, 0, 127]);
        assert!((q.scales[0] - 2.0 / 127.0).abs() < 1e-9);
    }

    #[test]
    fn zero_tensor_is_stable() {
        let q = quantize_per_channel(&[0.0; 8], 1);
        assert_eq!(q.scales, vec![1.0]);
        assert!(q.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn int8_model_is_about_4x_smaller() {
        let g = ModelGraph::from_arch(&BASELINE_RESNET18, 32).unwrap();
        let fp32 = crate::onnx::serialized_size_bytes(&g);
        let int8 = quantized_size_bytes(&g).unwrap();
        let ratio = fp32 as f64 / int8 as f64;
        assert!((3.5..4.1).contains(&ratio), "ratio {ratio}");
        // ~44.7 MB -> ~11.2 MB: the int8 ResNet-18 matches the fp32
        // Pareto models' memory budget.
        assert!((int8 as f64 / 1e6 - 11.2).abs() < 0.3);
    }

    #[test]
    fn underflowing_payload_is_an_error_not_a_wrap() {
        // 1000 params -> 4000 B of counted payload against a 100 B
        // "serialized" size. The old unchecked subtraction wrapped this to
        // ~1.8e19 bytes; it must surface as a typed error instead.
        let err = int8_size_bytes(100, 1000, 3).unwrap_err();
        assert_eq!(
            err,
            crate::graph::GraphError::QuantizedSizeUnderflow {
                serialized: 100,
                payload: 4000,
            }
        );
        assert!(err.to_string().contains("underflow"), "{err}");
        // The boundary case is fine: payload exactly consumes the size.
        assert_eq!(int8_size_bytes(4000, 1000, 3).unwrap(), 1000 + 12);
    }

    #[test]
    fn minimal_graph_accounting_is_consistent() {
        // A minimal single-stage graph: the int8 size must stay positive,
        // below fp32, and exactly match the closed-form accounting.
        let arch = crate::arch::ArchConfig {
            in_channels: 1,
            kernel_size: 3,
            stride: 2,
            padding: 1,
            pool: None,
            initial_features: 4,
            num_classes: 2,
        };
        let g = ModelGraph::from_arch(&arch, 16).unwrap();
        let fp32 = crate::onnx::serialized_size_bytes(&g);
        let int8 = quantized_size_bytes(&g).unwrap();
        let params: u64 = g.nodes.iter().map(|n| node_cost(n).params).sum();
        let scales = g.nodes.iter().filter(|n| node_cost(n).params > 0).count() as u64;
        assert!(int8 < fp32);
        assert_eq!(int8, fp32 - 4 * params + params + 4 * scales);
    }

    #[test]
    fn subnormal_tensor_quantizes_without_nan() {
        // Regression: max_abs in the subnormal range made `max_abs / 127`
        // underflow to 0.0, so `w / scale` was NaN (0/0) or inf, which
        // `as i8` silently collapsed to 0 — and dequantize could then
        // produce NaN. The minimum-scale floor keeps everything finite.
        let tiny = f32::MIN_POSITIVE / 2.0; // subnormal
        let q = quantize_per_channel(&[tiny, -tiny, 0.0], 1);
        let scale = q.scales[0];
        assert!(scale > 0.0 && scale.is_finite(), "scale {scale}");
        assert!(
            q.dequantize().iter().all(|v| v.is_finite()),
            "dequantize must stay finite: {:?}",
            q.dequantize()
        );
        // Constant tensors hit the same guard through their shared max.
        let q2 = quantize_per_channel(&[tiny; 5], 1);
        assert!(q2.scales[0] > 0.0 && q2.dequantize().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn per_channel_roundtrip_bounds_error_per_channel() {
        // Two channels with very different ranges: per-channel scales keep
        // the small channel's error proportional to *its* range, not the
        // large channel's.
        let big: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 2.0).collect();
        let small: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 1e-3).collect();
        let mut weights = big.clone();
        weights.extend_from_slice(&small);
        let q = quantize_per_channel(&weights, 2);
        assert_eq!(q.channels(), 2);
        assert!(q.scales[0] > 100.0 * q.scales[1]);
        let back = q.dequantize();
        for (i, (w, b)) in weights.iter().zip(&back).enumerate() {
            let ch = i / 16;
            assert!(
                (w - b).abs() <= q.max_error(ch) + 1e-9,
                "ch {ch}: {w} vs {b}"
            );
        }
        // A per-tensor scale on the same blob would round the entire small
        // channel to zero; per-channel must not.
        assert!(back[16..].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn per_channel_matches_per_tensor_per_chunk() {
        let weights: Vec<f32> = (0..24).map(|i| (i as f32) * 0.1 - 1.0).collect();
        let q = quantize_per_channel(&weights, 3);
        for ch in 0..3 {
            let chunk = &weights[ch * 8..][..8];
            let single = quantize_per_channel(chunk, 1);
            assert_eq!(q.scales[ch], single.scales[0]);
            assert_eq!(&q.values[ch * 8..][..8], &single.values[..]);
        }
    }

    #[test]
    fn minmax_observer_is_order_and_batch_invariant() {
        let data: Vec<f32> = (0..100)
            .map(|i| ((i * 37) % 100) as f32 * 0.03 - 1.5)
            .collect();
        let mut one_shot = ActivationObserver::new(CalibrationMethod::MinMax);
        one_shot.observe(&data);
        let mut chunked = ActivationObserver::new(CalibrationMethod::MinMax);
        for chunk in data.chunks(7) {
            chunked.observe(chunk);
        }
        let mut reversed = ActivationObserver::new(CalibrationMethod::MinMax);
        let rev: Vec<f32> = data.iter().rev().copied().collect();
        reversed.observe(&rev);
        assert_eq!(one_shot.scale().to_bits(), chunked.scale().to_bits());
        assert_eq!(one_shot.scale().to_bits(), reversed.scale().to_bits());
        assert!((one_shot.scale() - 1.5 / 127.0).abs() < 1e-6);
    }

    #[test]
    fn observers_ignore_non_finite_and_empty_input() {
        let mut obs = ActivationObserver::new(CalibrationMethod::MinMax);
        obs.observe(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        assert_eq!(obs.scale(), 1.0); // nothing (finite) observed
        obs.observe(&[0.5]);
        assert!((obs.scale() - 0.5 / 127.0).abs() < 1e-9);
        let empty = ActivationObserver::new(CalibrationMethod::MinMax);
        assert_eq!(empty.scale(), 1.0);
    }

    #[test]
    fn quantization_preserves_sign_and_order() {
        let weights = [-1.0f32, -0.5, 0.0, 0.25, 0.9];
        let q = quantize_per_channel(&weights, 1);
        for w in q.values.windows(2) {
            assert!(w[0] <= w[1], "order violated: {:?}", q.values);
        }
        assert!(q.values[0] < 0 && q.values[4] > 0);
    }
}
