//! Quickstart: the whole HydroNAS stack in one page.
//!
//! Synthesizes a miniature drainage-crossing dataset, trains a narrow
//! ResNet variant for real, and scores the paper's three objectives
//! (accuracy, predicted latency, serialized memory) for that architecture.
//!
//! Run with: `cargo run --release --example quickstart`

use hydronas::prelude::*;

fn main() {
    // 1. Data: a miniature (1%) build of the paper's four-region dataset
    //    (Table 1), 5-channel tiles (DEM, R, G, B, NIR) at 24x24.
    let tiles = build_paper_dataset(ChannelMode::Five, 24, 0.01, 42);
    println!(
        "dataset: {} tiles, {} channels, {:.0}% positive",
        tiles.len(),
        tiles.mode.channels(),
        100.0 * tiles.positive_fraction()
    );

    // 2. Architecture: one of the paper's non-dominated stems (Table 4):
    //    3x3 stride-2 conv, padding 1, no pool, 32 initial features —
    //    narrowed to 8 features so the CPU demo trains in seconds.
    let arch = ArchConfig {
        in_channels: 5,
        kernel_size: 3,
        stride: 2,
        padding: 1,
        pool: None,
        initial_features: 8,
        num_classes: 2,
    };

    // 3. Real training with 2-fold cross-validation.
    let data = Dataset::new(tiles.features, tiles.labels);
    let config = TrainConfig {
        epochs: 5,
        batch_size: 8,
        learning_rate: 0.05,
        ..Default::default()
    };
    let (mean_acc, folds) = kfold_cross_validate(&arch, &data, 2, &config, &CancelToken::new());
    for f in &folds {
        println!(
            "fold {}: accuracy {:.1}%  (losses {:?})",
            f.fold,
            f.result.report.accuracy_pct,
            f.result
                .epoch_losses
                .iter()
                .map(|l| (l * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }
    println!("mean cross-validated accuracy: {mean_acc:.1}%");

    // 4. Hardware-aware objectives for the *full-width* candidate
    //    (initial_features = 32, what the NAS search would deploy).
    let deploy = ArchConfig {
        initial_features: 32,
        ..arch
    };
    let graph = ModelGraph::from_arch(&deploy, 32).expect("stem fits 32x32 tiles");
    let latency = predict_all(&graph);
    let memory_mb = serialized_size_bytes(&graph) as f64 / 1e6;
    println!("\ndeployment candidate {}:", deploy.key());
    for (device, ms) in &latency.per_device {
        println!("  {:<14} {:>7.2} ms", device.name(), ms);
    }
    println!(
        "  mean {:.2} ms (std {:.2}), serialized size {:.2} MB",
        latency.mean_ms, latency.std_ms, memory_mb
    );

    // 5. Against the stock ResNet-18 baseline.
    let baseline = ModelGraph::from_arch(&BASELINE_RESNET18, 32).unwrap();
    let base_latency = predict_all(&baseline);
    let base_memory = serialized_size_bytes(&baseline) as f64 / 1e6;
    println!(
        "\nResNet-18 baseline: {:.2} ms, {:.2} MB  ->  {:.1}x faster, {:.1}x smaller",
        base_latency.mean_ms,
        base_memory,
        base_latency.mean_ms / latency.mean_ms,
        base_memory / memory_mb
    );
}
