//! Heightmaps: procedural DEM rasters with basic morphometry.

use crate::noise::fbm;

/// A square single-band elevation raster (meters), row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Heightmap {
    size: usize,
    data: Vec<f32>,
}

impl Heightmap {
    /// Flat raster at a constant elevation.
    pub fn flat(size: usize, elevation: f32) -> Heightmap {
        Heightmap {
            size,
            data: vec![elevation; size * size],
        }
    }

    /// Procedural terrain: fBm relief scaled to `relief_m` meters with a
    /// gentle regional slope (so water has somewhere to go). `roughness`
    /// scales the noise frequency — finer DEM resolutions show more
    /// high-frequency texture.
    pub fn generate(size: usize, seed: u64, relief_m: f32, roughness: f32) -> Heightmap {
        assert!(size >= 2, "heightmap too small");
        let mut data = vec![0.0f32; size * size];
        let inv = 1.0 / size as f32;
        data.chunks_mut(size).enumerate().for_each(|(y, row)| {
            for (x, v) in row.iter_mut().enumerate() {
                let nx = x as f32 * inv * 8.0 * roughness;
                let ny = y as f32 * inv * 8.0 * roughness;
                let relief = fbm(seed, nx, ny, 5, 2.0, 0.5);
                // Regional tilt: drains toward the +x edge.
                let tilt = 0.15 * (1.0 - x as f32 * inv);
                *v = relief_m * (relief + tilt);
            }
        });
        Heightmap { size, data }
    }

    pub fn size(&self) -> usize {
        self.size
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Elevation at `(x, y)`.
    pub fn at(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.size && y < self.size, "coordinate out of range");
        self.data[y * self.size + x]
    }

    /// Mutable elevation access.
    pub fn at_mut(&mut self, x: usize, y: usize) -> &mut f32 {
        assert!(x < self.size && y < self.size, "coordinate out of range");
        &mut self.data[y * self.size + x]
    }

    /// Minimum and maximum elevation.
    pub fn range(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Central-difference slope magnitude (m per cell) at `(x, y)`.
    pub fn slope(&self, x: usize, y: usize) -> f32 {
        let xm = self.at(x.saturating_sub(1), y);
        let xp = self.at((x + 1).min(self.size - 1), y);
        let ym = self.at(x, y.saturating_sub(1));
        let yp = self.at(x, (y + 1).min(self.size - 1));
        let dx = (xp - xm) * 0.5;
        let dy = (yp - ym) * 0.5;
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let a = Heightmap::generate(32, 4, 10.0, 1.0);
        let b = Heightmap::generate(32, 4, 10.0, 1.0);
        assert_eq!(a, b);
        let c = Heightmap::generate(32, 5, 10.0, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn relief_respects_scale() {
        let h = Heightmap::generate(64, 1, 20.0, 1.0);
        let (lo, hi) = h.range();
        assert!(hi - lo > 2.0, "terrain too flat: {}..{}", lo, hi);
        assert!(
            hi - lo <= 20.0 * 1.15 + 1e-3,
            "terrain exceeds relief: {}..{}",
            lo,
            hi
        );
        assert!(lo >= 0.0);
    }

    #[test]
    fn regional_tilt_drains_east() {
        let h = Heightmap::generate(64, 2, 10.0, 0.5);
        // Column means should generally fall toward +x.
        let col_mean = |x: usize| -> f32 { (0..64).map(|y| h.at(x, y)).sum::<f32>() / 64.0 };
        assert!(col_mean(0) > col_mean(63), "no west->east tilt");
    }

    #[test]
    fn roughness_adds_local_variation() {
        let smooth = Heightmap::generate(64, 3, 10.0, 0.4);
        let rough = Heightmap::generate(64, 3, 10.0, 2.0);
        let tv = |h: &Heightmap| -> f32 {
            let mut acc = 0.0;
            for y in 0..64 {
                for x in 0..63 {
                    acc += (h.at(x + 1, y) - h.at(x, y)).abs();
                }
            }
            acc
        };
        assert!(tv(&rough) > tv(&smooth));
    }

    #[test]
    fn flat_has_zero_slope() {
        let h = Heightmap::flat(16, 5.0);
        assert_eq!(h.slope(8, 8), 0.0);
        assert_eq!(h.range(), (5.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_panics() {
        let h = Heightmap::flat(8, 0.0);
        let _ = h.at(8, 0);
    }
}
