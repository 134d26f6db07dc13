//! Training-loop telemetry: per-epoch series and the `nn.train` span.
//!
//! Own integration-test binary (own process) so exact series/counter
//! assertions cannot race with unrelated tests.

use hydronas_graph::ArchConfig;
use hydronas_nn::{train, Dataset, TrainConfig};
use hydronas_tensor::{Tensor, TensorRng};
use std::sync::{Mutex, MutexGuard};

/// Serializes this binary's tests: recording is process-global while
/// any session is open, so a training run without a session would otherwise record
/// into the session another test holds and break its exact counts.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

fn toy_dataset(n: usize, hw: usize, seed: u64) -> Dataset {
    let mut rng = TensorRng::seed_from_u64(seed);
    let mut feats = Vec::with_capacity(n * 2 * hw * hw);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % 2;
        let bias = if label == 0 { -1.0 } else { 1.0 };
        for c in 0..2 {
            for _ in 0..hw * hw {
                feats.push(rng.uniform(-0.3, 0.3) + if c == 0 { bias } else { 0.0 });
            }
        }
        labels.push(label);
    }
    Dataset::new(Tensor::from_vec(feats, &[n, 2, hw, hw]), labels)
}

#[test]
fn training_emits_per_epoch_series_and_span() {
    let _serial = serial();
    let data = toy_dataset(32, 8, 4);
    let idx: Vec<usize> = (0..32).collect();
    let config = TrainConfig {
        epochs: 3,
        batch_size: 8,
        ..Default::default()
    };

    let session = hydronas_telemetry::session();
    let result = train(
        &tiny_arch(),
        &data.subset(&idx),
        &data.subset(&idx),
        &config,
    );
    let m = session.metrics();

    // One point per epoch, steps 0..epochs, loss matching TrainResult.
    let loss = &m.series["nn.train.loss"];
    assert_eq!(loss.len(), 3);
    for (epoch, point) in loss.iter().enumerate() {
        assert_eq!(point.step, epoch as f64);
        assert!((point.value - f64::from(result.epoch_losses[epoch])).abs() < 1e-6);
    }
    let acc = &m.series["nn.train.accuracy_pct"];
    assert_eq!(acc.len(), 3);
    assert!(acc.iter().all(|p| (0.0..=100.0).contains(&p.value)));
    let lr = &m.series["nn.train.lr"];
    assert_eq!(lr.len(), 3);
    assert!(lr.iter().all(|p| p.value > 0.0));
    // Throughput is wall-derived so only its presence/positivity is checked.
    assert!(m.series["nn.train.throughput_sps"]
        .iter()
        .all(|p| p.value > 0.0));

    // The whole run is wrapped in one nn.train span.
    assert_eq!(m.spans["nn.train"].count, 1);
    let span = session
        .spans()
        .into_iter()
        .find(|s| s.category == "nn.train")
        .unwrap();
    assert!(span
        .attrs
        .contains(&("epochs".to_string(), "3".to_string())));

    // Training itself runs conv kernels, so op counters are non-zero.
    assert!(m.counters["tensor.conv2d.calls"] > 0);
    assert!(m.counters["tensor.gemm.flops"] > 0);
}

#[test]
fn telemetry_does_not_change_training_results() {
    let _serial = serial();
    let data = toy_dataset(32, 8, 9);
    let idx: Vec<usize> = (0..32).collect();
    let config = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    };
    let plain = train(
        &tiny_arch(),
        &data.subset(&idx),
        &data.subset(&idx),
        &config,
    );
    let observed = {
        let _session = hydronas_telemetry::session();
        train(
            &tiny_arch(),
            &data.subset(&idx),
            &data.subset(&idx),
            &config,
        )
    };
    assert_eq!(plain.epoch_losses, observed.epoch_losses);
    assert_eq!(plain.report.accuracy_pct, observed.report.accuracy_pct);
}
