//! Scene-level data pipeline integration: generate watershed scenes,
//! detect drainage crossings hydrologically, extract DEM tiles by
//! segmentation-style sampling, and train a CNN on them — the faithful
//! end-to-end analogue of the paper's data build.

use hydronas::prelude::*;
use hydronas_geodata::{Scene, SceneParams};

/// Builds a 1-channel DEM tile dataset from several scenes.
fn scene_dataset(scenes: usize, tile: usize, seed: u64) -> Dataset {
    let mut rng = TensorRng::seed_from_u64(seed);
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for s in 0..scenes {
        let scene = Scene::generate(&SceneParams {
            seed: seed + s as u64,
            ..Default::default()
        });
        let (centers, tile_labels) = scene.sample_tile_centers(tile, &mut rng);
        for (&(x, y), &label) in centers.iter().zip(&tile_labels) {
            if let Some(dem) = scene.extract_dem_tile(x, y, tile) {
                // Per-tile zero-mean normalization (as the bulk pipeline).
                let mean: f32 = dem.iter().sum::<f32>() / dem.len() as f32;
                data.extend(dem.iter().map(|v| (v - mean) / 3.0));
                labels.push(label);
            }
        }
    }
    let n = labels.len();
    Dataset::new(Tensor::from_vec(data, &[n, 1, tile, tile]), labels)
}

#[test]
fn scenes_supply_enough_balanced_samples() {
    let data = scene_dataset(6, 24, 100);
    assert!(data.len() >= 40, "only {} tiles", data.len());
    let positives = data.labels.iter().filter(|&&l| l == 1).count();
    let frac = positives as f64 / data.len() as f64;
    assert!((0.35..=0.65).contains(&frac), "imbalanced: {frac}");
}

#[test]
fn cnn_learns_hydrologically_detected_crossings() {
    // The hard version of the task: tiles cut from whole scenes (DEM band
    // only), crossings found by flow accumulation rather than scripting.
    let data = scene_dataset(24, 24, 7);
    let arch = ArchConfig {
        in_channels: 1,
        kernel_size: 3,
        stride: 2,
        padding: 1,
        pool: None,
        initial_features: 8,
        num_classes: 2,
    };
    let config = TrainConfig {
        epochs: 15,
        batch_size: 8,
        learning_rate: 0.03,
        ..Default::default()
    };
    let (mean_acc, folds) = kfold_cross_validate(&arch, &data, 2, &config, &CancelToken::new());
    assert_eq!(folds.len(), 2);
    assert!(
        mean_acc > 55.0,
        "scene-trained CNN stuck at chance: {mean_acc:.1}%"
    );
}

#[test]
fn scene_tiles_center_on_the_crossing() {
    // Positive tiles must actually contain the detected crossing cell at
    // their center (the segmentation-centered property the synthesizer
    // mimics).
    let scene = Scene::generate(&SceneParams {
        seed: 3,
        ..Default::default()
    });
    let tile = 24;
    let mut rng = TensorRng::seed_from_u64(0);
    let (centers, labels) = scene.sample_tile_centers(tile, &mut rng);
    for (&(x, y), &label) in centers.iter().zip(&labels) {
        if label == 1 {
            assert!(
                scene.crossings.contains(&(x, y)),
                "positive center ({x},{y}) is not a crossing"
            );
            assert!(scene.extract_dem_tile(x, y, tile).is_some());
        }
    }
}
