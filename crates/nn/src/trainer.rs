//! Training loops: minibatch SGD epochs and the paper's 5-fold
//! cross-validation protocol.

use crate::cancel::CancelToken;
use crate::loss::CrossEntropyLoss;
use crate::metrics::ClassificationReport;
use crate::optim::{Optimizer, Sgd};
use crate::param::ParamVisitor;
use crate::resnet::ResNet;
use hydronas_graph::ArchConfig;
use hydronas_tensor::{Tensor, TensorRng};
use serde::{Deserialize, Serialize};

/// An in-memory labeled image set (features `[N, C, H, W]`).
#[derive(Clone, Debug)]
pub struct Dataset {
    pub features: Tensor,
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Validates the feature/label pairing.
    pub fn new(features: Tensor, labels: Vec<usize>) -> Dataset {
        assert_eq!(features.shape().ndim(), 4, "features must be NCHW");
        assert_eq!(
            features.dims()[0],
            labels.len(),
            "feature/label count mismatch"
        );
        Dataset { features, labels }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of channels per image.
    pub fn channels(&self) -> usize {
        self.features.dims()[1]
    }

    /// Gathers a subset by sample index.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let dims = self.features.dims();
        let sample = dims[1] * dims[2] * dims[3];
        let src = self.features.as_slice();
        let mut data = Vec::with_capacity(indices.len() * sample);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "subset index out of range");
            data.extend_from_slice(&src[i * sample..(i + 1) * sample]);
            labels.push(self.labels[i]);
        }
        Dataset {
            features: Tensor::from_vec(data, &[indices.len(), dims[1], dims[2], dims[3]]),
            labels,
        }
    }

    /// Splits indices into `k` near-equal contiguous folds after a seeded
    /// shuffle; returns `(train_indices, val_indices)` per fold.
    pub fn kfold_indices(&self, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
        assert!(k >= 2, "need at least 2 folds");
        assert!(self.len() >= k, "fewer samples than folds");
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = TensorRng::seed_from_u64(seed);
        rng.shuffle(&mut order);
        let mut folds = Vec::with_capacity(k);
        let base = self.len() / k;
        let extra = self.len() % k;
        let mut start = 0usize;
        for f in 0..k {
            let size = base + usize::from(f < extra);
            let val: Vec<usize> = order[start..start + size].to_vec();
            let train: Vec<usize> = order.iter().copied().filter(|i| !val.contains(i)).collect();
            folds.push((train, val));
            start += size;
        }
        folds
    }
}

/// Hyperparameters for one training run (paper defaults: 5 epochs, SGD).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            epochs: 5,
            batch_size: 8,
            learning_rate: 0.01,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 0,
        }
    }
}

/// Outcome of a single training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainResult {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation report after the final epoch.
    pub report: ClassificationReport,
    /// True when a non-finite loss aborted training early.
    pub diverged: bool,
    /// True when a [`CancelToken`] stopped training at an epoch boundary
    /// before every configured epoch ran.
    pub cancelled: bool,
}

/// Outcome of one cross-validation fold.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FoldResult {
    pub fold: usize,
    pub result: TrainResult,
}

/// Runs the model over `data` in eval mode (`forward(x, false)`, which
/// updates no running statistics) and reports metrics.
pub fn evaluate(model: &mut ResNet, data: &Dataset, batch_size: usize) -> ClassificationReport {
    let mut predictions = Vec::with_capacity(data.len());
    let dims = data.features.dims();
    let sample = dims[1] * dims[2] * dims[3];
    let mut i = 0usize;
    while i < data.len() {
        let j = (i + batch_size).min(data.len());
        let batch = Tensor::from_vec(
            data.features.as_slice()[i * sample..j * sample].to_vec(),
            &[j - i, dims[1], dims[2], dims[3]],
        );
        let logits = model.forward(&batch, false);
        predictions.extend(logits.argmax_rows());
        i = j;
    }
    ClassificationReport::from_predictions(&predictions, &data.labels, model.arch.num_classes)
}

/// Trains a fresh model on `train_set`, validating on `val_set`.
///
/// `cancel` is checked at every epoch boundary: a cancelled run stops
/// after the epoch in flight, evaluates the partially trained model, and
/// reports [`TrainResult::cancelled`] instead of tearing anything down
/// mid-step. Pass `&CancelToken::new()` to train uninterrupted.
pub fn train(
    arch: &ArchConfig,
    train_set: &Dataset,
    val_set: &Dataset,
    config: &TrainConfig,
    cancel: &CancelToken,
) -> TrainResult {
    assert_eq!(
        train_set.channels(),
        arch.in_channels,
        "dataset channel mismatch"
    );
    let mut rng = TensorRng::seed_from_u64(config.seed);
    let mut model = ResNet::new(arch, &mut rng);
    let mut opt = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);
    let loss_fn = CrossEntropyLoss;

    // Telemetry is a pure side channel: when no session is active every
    // hook below is a single branch, and nothing here feeds back into
    // the training computation.
    let telemetry_on = hydronas_telemetry::enabled();
    let mut train_span = hydronas_telemetry::span("nn.train", "train");
    train_span.attr("epochs", config.epochs);
    train_span.attr("samples", train_set.len());

    let dims = train_set.features.dims();
    let sample = dims[1] * dims[2] * dims[3];
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let mut diverged = false;
    let mut cancelled = false;

    'epochs: for epoch in 0..config.epochs {
        if cancel.is_cancelled() {
            cancelled = true;
            break 'epochs;
        }
        let epoch_start = telemetry_on.then(std::time::Instant::now);
        let mut correct = 0usize;
        let mut seen = 0usize;
        let mut order: Vec<usize> = (0..train_set.len()).collect();
        let mut shuffle_rng = rng.fork(epoch as u64 + 1);
        shuffle_rng.shuffle(&mut order);
        // A draw that seeds nothing but keeps the epoch stream fixed: the
        // next epoch's shuffle is forked after it, so dropping it would
        // re-seed every epoch after the first and move every trained bit.
        rng.next_u64();

        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let mut data = Vec::with_capacity(chunk.len() * sample);
            let mut targets = Vec::with_capacity(chunk.len());
            for &i in chunk {
                data.extend_from_slice(
                    &train_set.features.as_slice()[i * sample..(i + 1) * sample],
                );
                targets.push(train_set.labels[i]);
            }
            let batch = Tensor::from_vec(data, &[chunk.len(), dims[1], dims[2], dims[3]]);

            model.zero_grad();
            let logits = model.forward(&batch, true);
            let (loss, grad) = loss_fn.forward_backward(&logits, &targets);
            if !loss.is_finite() {
                diverged = true;
                break 'epochs;
            }
            if telemetry_on {
                correct += logits
                    .argmax_rows()
                    .iter()
                    .zip(targets.iter())
                    .filter(|(p, t)| p == t)
                    .count();
                seen += targets.len();
            }
            model.backward(&grad);
            opt.step(&mut model);
            epoch_loss += f64::from(loss);
            batches += 1;
        }
        let mean_loss = epoch_loss / batches.max(1) as f64;
        epoch_losses.push(mean_loss as f32);
        if telemetry_on {
            let step = epoch as f64;
            hydronas_telemetry::push_series("nn.train.loss", step, mean_loss);
            hydronas_telemetry::push_series("nn.train.lr", step, f64::from(config.learning_rate));
            hydronas_telemetry::push_series(
                "nn.train.accuracy_pct",
                step,
                100.0 * correct as f64 / seen.max(1) as f64,
            );
            // Throughput is wall-clock derived (wall field by contract).
            let wall = epoch_start
                .expect("timed when enabled")
                .elapsed()
                .as_secs_f64();
            if wall > 0.0 {
                hydronas_telemetry::push_series(
                    "nn.train.throughput_sps",
                    step,
                    seen as f64 / wall,
                );
            }
        }
    }

    let report = evaluate(&mut model, val_set, config.batch_size);
    TrainResult {
        epoch_losses,
        report,
        diverged,
        cancelled,
    }
}

/// The paper's evaluation protocol: k-fold cross-validation, reporting the
/// mean validation accuracy across folds.
///
/// `cancel` is checked at every fold boundary (and, via [`train`], at
/// every epoch boundary inside a fold): a cancelled run stops scheduling
/// new folds and returns the folds it finished. Callers can detect a
/// partial result by comparing `results.len()` against `k` or by checking
/// [`TrainResult::cancelled`] on the last fold. The mean accuracy is
/// taken over the folds that actually ran.
pub fn kfold_cross_validate(
    arch: &ArchConfig,
    data: &Dataset,
    k: usize,
    config: &TrainConfig,
    cancel: &CancelToken,
) -> (f64, Vec<FoldResult>) {
    let folds = data.kfold_indices(k, config.seed);
    let mut results = Vec::with_capacity(k);
    for (fold, (train_idx, val_idx)) in folds.into_iter().enumerate() {
        if cancel.is_cancelled() {
            break;
        }
        let train_set = data.subset(&train_idx);
        let val_set = data.subset(&val_idx);
        let fold_config = TrainConfig {
            seed: config.seed.wrapping_add(fold as u64),
            ..*config
        };
        let result = train(arch, &train_set, &val_set, &fold_config, cancel);
        results.push(FoldResult { fold, result });
    }
    let mean_acc = results
        .iter()
        .map(|f| f.result.report.accuracy_pct)
        .sum::<f64>()
        / results.len().max(1) as f64;
    (mean_acc, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydronas_tensor::uniform;

    fn tiny_arch() -> ArchConfig {
        ArchConfig {
            in_channels: 2,
            kernel_size: 3,
            stride: 2,
            padding: 1,
            pool: None,
            initial_features: 4,
            num_classes: 2,
        }
    }

    /// A linearly separable toy set: class = sign of channel-0 mean.
    fn toy_dataset(n: usize, hw: usize, seed: u64) -> Dataset {
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut feats = Vec::with_capacity(n * 2 * hw * hw);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            let bias = if label == 0 { -1.0 } else { 1.0 };
            for c in 0..2 {
                for _ in 0..hw * hw {
                    let v = rng.uniform(-0.3, 0.3) + if c == 0 { bias } else { 0.0 };
                    feats.push(v);
                }
            }
            labels.push(label);
        }
        Dataset::new(Tensor::from_vec(feats, &[n, 2, hw, hw]), labels)
    }

    #[test]
    fn subset_gathers_correct_samples() {
        let data = toy_dataset(6, 4, 1);
        let sub = data.subset(&[5, 0, 3]);
        assert_eq!(sub.len(), 3);
        assert_eq!(
            sub.labels,
            vec![data.labels[5], data.labels[0], data.labels[3]]
        );
        assert_eq!(sub.features.index_axis0(1), data.features.index_axis0(0));
    }

    #[test]
    fn kfold_indices_partition_all_samples() {
        let data = toy_dataset(23, 4, 2);
        let folds = data.kfold_indices(5, 7);
        assert_eq!(folds.len(), 5);
        let mut all_val: Vec<usize> = folds.iter().flat_map(|(_, v)| v.clone()).collect();
        all_val.sort_unstable();
        assert_eq!(all_val, (0..23).collect::<Vec<_>>());
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 23);
            assert!(train.iter().all(|i| !val.contains(i)), "train/val overlap");
        }
        // Fold sizes differ by at most 1.
        let sizes: Vec<usize> = folds.iter().map(|(_, v)| v.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn kfold_is_deterministic_per_seed() {
        let data = toy_dataset(20, 4, 3);
        assert_eq!(data.kfold_indices(4, 9), data.kfold_indices(4, 9));
        assert_ne!(data.kfold_indices(4, 9), data.kfold_indices(4, 10));
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let data = toy_dataset(64, 8, 4);
        let (train_idx, val_idx): (Vec<usize>, Vec<usize>) =
            ((0..48).collect(), (48..64).collect());
        let train_set = data.subset(&train_idx);
        let val_set = data.subset(&val_idx);
        let config = TrainConfig {
            epochs: 8,
            batch_size: 8,
            learning_rate: 0.05,
            ..Default::default()
        };
        let result = train(
            &tiny_arch(),
            &train_set,
            &val_set,
            &config,
            &CancelToken::new(),
        );
        assert!(!result.diverged);
        assert_eq!(result.epoch_losses.len(), 8);
        let first = result.epoch_losses[0];
        let last = *result.epoch_losses.last().unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");
        // Separable data should be learned well above chance.
        assert!(
            result.report.accuracy_pct > 70.0,
            "accuracy {}",
            result.report.accuracy_pct
        );
    }

    #[test]
    fn evaluate_counts_every_sample_once() {
        let data = toy_dataset(10, 8, 5);
        let mut rng = TensorRng::seed_from_u64(0);
        let mut model = ResNet::new(&tiny_arch(), &mut rng);
        let report = evaluate(&mut model, &data, 4); // 4+4+2 batching
        assert_eq!(report.samples, 10);
        let total: u64 = report.confusion.iter().flatten().sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn kfold_cross_validation_runs_all_folds() {
        let data = toy_dataset(20, 8, 6);
        let config = TrainConfig {
            epochs: 1,
            batch_size: 4,
            ..Default::default()
        };
        let (mean, folds) =
            kfold_cross_validate(&tiny_arch(), &data, 2, &config, &CancelToken::new());
        assert_eq!(folds.len(), 2);
        assert!((0.0..=100.0).contains(&mean));
        let manual: f64 = folds
            .iter()
            .map(|f| f.result.report.accuracy_pct)
            .sum::<f64>()
            / 2.0;
        assert!((mean - manual).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channel_count_panics() {
        let data = toy_dataset(4, 8, 7); // 2 channels
        let mut arch = tiny_arch();
        arch.in_channels = 5;
        let config = TrainConfig {
            epochs: 1,
            ..Default::default()
        };
        let _ = train(&arch, &data, &data, &config, &CancelToken::new());
    }

    #[test]
    fn pre_cancelled_token_skips_every_epoch() {
        let data = toy_dataset(16, 8, 20);
        let idx: Vec<usize> = (0..16).collect();
        let token = CancelToken::new();
        token.cancel();
        let config = TrainConfig {
            epochs: 4,
            batch_size: 8,
            ..Default::default()
        };
        let result = train(
            &tiny_arch(),
            &data.subset(&idx),
            &data.subset(&idx),
            &config,
            &token,
        );
        assert!(result.cancelled);
        assert!(!result.diverged);
        assert!(result.epoch_losses.is_empty());
        // The untrained model is still evaluated: partial results stay usable.
        assert_eq!(result.report.samples, 16);
    }

    #[test]
    fn uncancelled_run_reports_cancelled_false() {
        let data = toy_dataset(16, 8, 21);
        let idx: Vec<usize> = (0..16).collect();
        let config = TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..Default::default()
        };
        let result = train(
            &tiny_arch(),
            &data.subset(&idx),
            &data.subset(&idx),
            &config,
            &CancelToken::new(),
        );
        assert!(!result.cancelled);
        assert_eq!(result.epoch_losses.len(), 1);
    }

    #[test]
    fn cancelled_kfold_returns_partial_folds() {
        let data = toy_dataset(20, 8, 22);
        let config = TrainConfig {
            epochs: 1,
            batch_size: 4,
            ..Default::default()
        };
        let token = CancelToken::new();
        token.cancel();
        let (_, folds) = kfold_cross_validate(&tiny_arch(), &data, 2, &config, &token);
        assert!(folds.is_empty());
    }

    #[test]
    fn uniform_random_labels_give_chance_accuracy() {
        // Sanity: an untrained model on balanced data sits near 50%.
        let mut rng = TensorRng::seed_from_u64(8);
        let feats = uniform(&[40, 2, 8, 8], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let data = Dataset::new(feats, labels);
        let mut model = ResNet::new(&tiny_arch(), &mut rng);
        let report = evaluate(&mut model, &data, 8);
        assert!(report.accuracy_pct >= 20.0 && report.accuracy_pct <= 80.0);
    }
}
