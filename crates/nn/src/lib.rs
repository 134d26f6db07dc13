//! # hydronas-nn
//!
//! A from-scratch CNN training stack — the PyTorch substitute for the
//! HydroNAS reproduction. Layers implement explicit forward/backward
//! passes over [`hydronas_tensor::Tensor`]s; the [`resnet::ResNet`] model
//! builds any point of the paper's search space directly from a
//! [`hydronas_graph::ArchConfig`], so the trained network, the latency
//! predictor, and the memory estimator all describe the same architecture.
//!
//! ## Example: one training step
//!
//! ```
//! use hydronas_graph::ArchConfig;
//! use hydronas_nn::{CrossEntropyLoss, ResNet, Sgd, Optimizer};
//! use hydronas_tensor::TensorRng;
//!
//! let mut arch = ArchConfig::baseline(5);
//! arch.initial_features = 4; // tiny for doc-test speed
//! let mut rng = TensorRng::seed_from_u64(0);
//! let mut model = ResNet::new(&arch, &mut rng);
//! let x = hydronas_tensor::uniform(&[2, 5, 16, 16], -1.0, 1.0, &mut rng);
//! let y = vec![0usize, 1];
//!
//! let logits = model.forward(&x, true);
//! let (loss, grad) = CrossEntropyLoss.forward_backward(&logits, &y);
//! model.backward(&grad);
//! let mut opt = Sgd::new(0.01, 0.9, 0.0);
//! opt.step(&mut model);
//! assert!(loss.is_finite());
//! ```

mod block;
pub mod cancel;
mod error;
pub mod layers;
mod loss;
mod metrics;
mod optim;
mod param;
mod resnet;
mod trainer;

pub use block::BasicBlock;
pub use cancel::CancelToken;
pub use error::ModelImportError;
pub use layers::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, Relu};
pub use loss::CrossEntropyLoss;
pub use metrics::{accuracy, confusion_matrix, f1_score, roc_auc, roc_curve, ClassificationReport};
pub use optim::{Optimizer, Sgd};
pub use param::{Param, ParamVisitor};
pub use resnet::ResNet;
pub use trainer::{kfold_cross_validate, train, Dataset, FoldResult, TrainConfig, TrainResult};
