//! Dataset assembly: balanced, multi-region, 5- or 7-channel tile sets.

use crate::region::{study_regions, Region};
use crate::tile::{synthesize_tile, TileParams};
use hydronas_tensor::{Tensor, TensorRng};
use serde::{Deserialize, Serialize};

/// Channel packing for the CNN input (paper Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelMode {
    /// `[DEM, R, G, B, NIR]`
    Five,
    /// `[DEM, R, G, B, NIR, NDVI, NDWI]`
    Seven,
}

impl ChannelMode {
    pub fn channels(&self) -> usize {
        match self {
            ChannelMode::Five => 5,
            ChannelMode::Seven => 7,
        }
    }

    /// Parses the paper's integer encoding.
    pub fn from_channels(c: usize) -> ChannelMode {
        match c {
            5 => ChannelMode::Five,
            7 => ChannelMode::Seven,
            other => panic!("unsupported channel count {other} (expected 5 or 7)"),
        }
    }
}

/// A labeled tile set ready for training: features `[N, C, H, W]`.
#[derive(Clone, Debug)]
pub struct TileSet {
    pub features: Tensor,
    pub labels: Vec<usize>,
    /// Region name per sample (for stratified analysis).
    pub region_of: Vec<&'static str>,
    pub mode: ChannelMode,
}

impl TileSet {
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Positive-class fraction (0.5 for the paper's balanced build).
    pub fn positive_fraction(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&l| l == 1).count() as f64 / self.labels.len() as f64
    }
}

/// Synthesizes one sample's channel stack.
fn tile_channels(params: &TileParams, mode: ChannelMode) -> Vec<f32> {
    let t = synthesize_tile(params);
    let mut out = Vec::with_capacity(mode.channels() * t.size * t.size);
    out.extend_from_slice(&t.dem_normalized());
    out.extend_from_slice(&t.red);
    out.extend_from_slice(&t.green);
    out.extend_from_slice(&t.blue);
    out.extend_from_slice(&t.nir);
    if mode == ChannelMode::Seven {
        out.extend_from_slice(&t.ndvi());
        out.extend_from_slice(&t.ndwi());
    }
    out
}

/// Builds a balanced dataset across the given regions.
///
/// `scale` in `(0, 1]` shrinks every region's Table 1 sample count
/// proportionally (at least one positive and one negative per region), so
/// tests and examples can use miniature datasets with the same structure.
pub fn build_dataset(
    regions: &[Region],
    mode: ChannelMode,
    tile_size: usize,
    scale: f64,
    seed: u64,
) -> TileSet {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    assert!(!regions.is_empty(), "need at least one region");

    // Enumerate all (region, index, label) jobs first so synthesis can run
    // in parallel with no shared state.
    struct Job {
        seed: u64,
        positive: bool,
        roughness: f32,
        region: &'static str,
    }
    let mut jobs = Vec::new();
    for r in regions {
        let pos = ((r.true_samples as f64 * scale).round() as usize).max(1);
        let neg = ((r.false_samples as f64 * scale).round() as usize).max(1);
        for i in 0..pos {
            jobs.push(Job {
                seed: seed ^ r.seed_base.wrapping_add(2 * i as u64),
                positive: true,
                roughness: r.roughness(),
                region: r.name,
            });
        }
        for i in 0..neg {
            jobs.push(Job {
                seed: seed ^ r.seed_base.wrapping_add(2 * i as u64 + 1),
                positive: false,
                roughness: r.roughness(),
                region: r.name,
            });
        }
    }

    let per_sample = mode.channels() * tile_size * tile_size;
    let chunks: Vec<Vec<f32>> = jobs
        .iter()
        .map(|job| {
            tile_channels(
                &TileParams {
                    size: tile_size,
                    seed: job.seed,
                    has_crossing: job.positive,
                    roughness: job.roughness,
                    relief_m: 6.0,
                },
                mode,
            )
        })
        .collect();

    let mut data = Vec::with_capacity(jobs.len() * per_sample);
    let mut labels = Vec::with_capacity(jobs.len());
    let mut region_of = Vec::with_capacity(jobs.len());
    for (job, chunk) in jobs.iter().zip(chunks) {
        debug_assert_eq!(chunk.len(), per_sample);
        data.extend_from_slice(&chunk);
        labels.push(usize::from(job.positive));
        region_of.push(job.region);
    }

    // Seeded global shuffle so folds are not region-ordered.
    let mut order: Vec<usize> = (0..labels.len()).collect();
    let mut rng = TensorRng::seed_from_u64(seed.wrapping_add(0x5FFF));
    rng.shuffle(&mut order);
    let mut shuffled = Vec::with_capacity(data.len());
    let mut shuffled_labels = Vec::with_capacity(labels.len());
    let mut shuffled_regions = Vec::with_capacity(labels.len());
    for &i in &order {
        shuffled.extend_from_slice(&data[i * per_sample..(i + 1) * per_sample]);
        shuffled_labels.push(labels[i]);
        shuffled_regions.push(region_of[i]);
    }

    TileSet {
        features: Tensor::from_vec(
            shuffled,
            &[shuffled_labels.len(), mode.channels(), tile_size, tile_size],
        ),
        labels: shuffled_labels,
        region_of: shuffled_regions,
        mode,
    }
}

/// Convenience: the full paper dataset (all four regions) at `scale`.
pub fn build_paper_dataset(mode: ChannelMode, tile_size: usize, scale: f64, seed: u64) -> TileSet {
    build_dataset(&study_regions(), mode, tile_size, scale, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_table1_total() {
        // Counting only — build a minimal-size probe by computing the job
        // list length via a tiny tile to keep the test fast.
        let regions = study_regions();
        let expected: usize = regions.iter().map(|r| r.total_samples()).sum();
        assert_eq!(expected, 12_068);
        // At scale 1/100 the rounded counts still balance per region.
        let set = build_dataset(&regions, ChannelMode::Five, 8, 0.01, 1);
        // round(2022*.01)=20, round(1011*.01)=10, round(613*.01)=6,
        // round(2388*.01)=24, each doubled (balanced true/false).
        assert_eq!(set.len(), 120);
        assert!((set.positive_fraction() - 0.5).abs() < 0.05);
    }

    #[test]
    fn channel_layout_is_stable() {
        let set5 = build_dataset(&study_regions()[..1], ChannelMode::Five, 8, 0.002, 2);
        let set7 = build_dataset(&study_regions()[..1], ChannelMode::Seven, 8, 0.002, 2);
        assert_eq!(set5.features.dims()[1], 5);
        assert_eq!(set7.features.dims()[1], 7);
        // First five channels of the 7-ch set equal the 5-ch set for the
        // same seeds (same tiles, extended stack). Compare per-sample by
        // matching labels+region: the shuffle uses a different RNG offset
        // but identical seed -> identical order.
        assert_eq!(set5.labels, set7.labels);
        let hw = 8 * 8;
        for s in 0..set5.len() {
            let a = &set5.features.as_slice()[s * 5 * hw..s * 5 * hw + 5 * hw];
            let b = &set7.features.as_slice()[s * 7 * hw..s * 7 * hw + 5 * hw];
            assert_eq!(a, b, "sample {s} differs");
        }
    }

    #[test]
    fn ndvi_channel_is_bounded() {
        let set = build_dataset(&study_regions()[..1], ChannelMode::Seven, 8, 0.002, 3);
        let hw = 64;
        for s in 0..set.len() {
            let ndvi = &set.features.as_slice()[s * 7 * hw + 5 * hw..s * 7 * hw + 6 * hw];
            assert!(ndvi.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_dataset(&study_regions()[2..3], ChannelMode::Five, 8, 0.005, 9);
        let b = build_dataset(&study_regions()[2..3], ChannelMode::Five, 8, 0.005, 9);
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
        let c = build_dataset(&study_regions()[2..3], ChannelMode::Five, 8, 0.005, 10);
        assert_ne!(a.features, c.features);
    }

    #[test]
    fn regions_are_mixed_after_shuffle() {
        let set = build_dataset(&study_regions(), ChannelMode::Five, 8, 0.01, 4);
        // The first 20 samples should not all come from one region.
        let first: Vec<&str> = set.region_of.iter().take(20).copied().collect();
        let all_same = first.iter().all(|&r| r == first[0]);
        assert!(!all_same, "shuffle left dataset region-ordered");
    }

    #[test]
    fn mode_from_channels_roundtrip() {
        assert_eq!(ChannelMode::from_channels(5), ChannelMode::Five);
        assert_eq!(ChannelMode::from_channels(7), ChannelMode::Seven);
        assert_eq!(ChannelMode::Five.channels(), 5);
    }

    #[test]
    #[should_panic(expected = "unsupported channel count")]
    fn bad_channel_count_panics() {
        let _ = ChannelMode::from_channels(4);
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_rejected() {
        let _ = build_dataset(&study_regions(), ChannelMode::Five, 8, 0.0, 0);
    }
}
