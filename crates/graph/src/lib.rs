//! # hydronas-graph
//!
//! The model-graph intermediate representation shared by every other
//! HydroNAS crate:
//!
//! * [`ArchConfig`] — the search-space point describing one ResNet-18
//!   variant (Figure 2 of the paper): initial conv kernel/stride/padding,
//!   optional max-pool, and the initial output feature width.
//! * [`ModelGraph`] — a flat list of typed nodes with inferred shapes,
//!   produced by [`ModelGraph::from_arch`]. The NAS engine trains the same
//!   architecture via `hydronas-nn`; the latency predictor and memory
//!   estimator consume this IR.
//! * Per-node and whole-model **analysis**: parameter counts, FLOPs,
//!   weight/activation traffic ([`analysis`]).
//! * An **ONNX-like binary serializer** ([`onnx`]) whose file size is the
//!   paper's memory objective.

pub mod analysis;
pub mod arch;
pub mod dot;
pub mod graph;
pub mod onnx;
pub mod quantize;
pub mod summary;

pub use analysis::{model_cost, node_cost, ModelCost, NodeCost};
pub use arch::{ArchConfig, PoolConfig, BASELINE_RESNET18};
pub use dot::to_dot;
pub use graph::{GraphError, ModelGraph, Node, NodeKind};
pub use onnx::{
    deserialize_model, serialize_model, serialized_size_bytes, OnnxError, OnnxLikeModel,
};
pub use quantize::{
    quantize_per_channel, quantized_size_bytes, ActivationObserver, CalibrationMethod,
    ChannelQuantizedTensor,
};
pub use summary::architecture_summary;
