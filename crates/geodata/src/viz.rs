//! Raster visualization writers: portable graymap/pixmap (PGM/PPM)
//! renderings of DEMs, masks, and orthophoto tiles — the quick-look
//! artifacts the paper's notebooks produce with matplotlib.

use crate::terrain::Heightmap;
use crate::tile::Tile;

/// Scales an f32 raster to 0..=255 over its own range (constant rasters
/// map to mid-gray).
fn to_gray(values: &[f32]) -> Vec<u8> {
    let lo = values.iter().cloned().fold(f32::INFINITY, f32::min);
    let hi = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if span <= 0.0 {
                128
            } else {
                (255.0 * (v - lo) / span).round().clamp(0.0, 255.0) as u8
            }
        })
        .collect()
}

/// Renders a square f32 raster as binary PGM (P5).
pub fn raster_to_pgm(values: &[f32], width: usize) -> Vec<u8> {
    assert!(
        width > 0 && values.len().is_multiple_of(width),
        "raster shape mismatch"
    );
    let height = values.len() / width;
    let mut out = format!("P5\n{width} {height}\n255\n").into_bytes();
    out.extend(to_gray(values));
    out
}

/// Renders a heightmap as PGM.
pub fn heightmap_to_pgm(h: &Heightmap) -> Vec<u8> {
    raster_to_pgm(h.as_slice(), h.size())
}

/// Renders a boolean mask as PGM (white = true).
pub fn mask_to_pgm(mask: &[bool], width: usize) -> Vec<u8> {
    let values: Vec<f32> = mask.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
    raster_to_pgm(&values, width)
}

/// Renders a tile's orthophoto (R, G, B bands) as binary PPM (P6).
pub fn tile_to_ppm(tile: &Tile) -> Vec<u8> {
    let n = tile.size;
    let mut out = format!("P6\n{n} {n}\n255\n").into_bytes();
    for i in 0..n * n {
        for band in [&tile.red, &tile.green, &tile.blue] {
            out.push((band[i] * 255.0).round().clamp(0.0, 255.0) as u8);
        }
    }
    out
}

/// Parses the header of a PGM/PPM blob: `(magic, width, height, maxval)`.
/// Used by tests and by downstream tooling that needs to sanity-check an
/// export without a full image decoder.
pub fn parse_header(blob: &[u8]) -> Option<(String, usize, usize, usize)> {
    // The payload is binary, so tokenize raw bytes (not UTF-8 text).
    let mut tokens = Vec::with_capacity(4);
    let mut cur = Vec::new();
    for &b in blob {
        if b.is_ascii_whitespace() {
            if !cur.is_empty() {
                tokens.push(String::from_utf8(std::mem::take(&mut cur)).ok()?);
                if tokens.len() == 4 {
                    break;
                }
            }
        } else {
            cur.push(b);
        }
    }
    if tokens.len() < 4 {
        return None;
    }
    let magic = tokens[0].clone();
    if magic != "P5" && magic != "P6" {
        return None;
    }
    let width = tokens[1].parse().ok()?;
    let height = tokens[2].parse().ok()?;
    let maxval = tokens[3].parse().ok()?;
    Some((magic, width, height, maxval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{synthesize_tile, TileParams};

    #[test]
    fn pgm_header_and_payload_size() {
        let h = Heightmap::generate(16, 1, 5.0, 1.0);
        let blob = heightmap_to_pgm(&h);
        let (magic, w, hh, maxval) = parse_header(&blob).unwrap();
        assert_eq!(magic, "P5");
        assert_eq!((w, hh, maxval), (16, 16, 255));
        // Header + exactly one byte per cell.
        let header_len = blob.len() - 256;
        assert_eq!(&blob[header_len..].len(), &256);
    }

    #[test]
    fn gray_mapping_spans_full_range() {
        let values = vec![0.0f32, 5.0, 10.0];
        let g = to_gray(&values);
        assert_eq!(g, vec![0, 128, 255]);
    }

    #[test]
    fn constant_raster_is_mid_gray() {
        let g = to_gray(&[3.0; 9]);
        assert!(g.iter().all(|&v| v == 128));
    }

    #[test]
    fn mask_renders_black_and_white() {
        let blob = mask_to_pgm(&[true, false, false, true], 2);
        let payload = &blob[blob.len() - 4..];
        assert_eq!(payload, &[255, 0, 0, 255]);
    }

    #[test]
    fn ppm_has_three_bytes_per_pixel() {
        let tile = synthesize_tile(&TileParams {
            size: 16,
            seed: 2,
            ..Default::default()
        });
        let blob = tile_to_ppm(&tile);
        let (magic, w, h, _) = parse_header(&blob).unwrap();
        assert_eq!(magic, "P6");
        assert_eq!((w, h), (16, 16));
        let header_len = blob.len() - 3 * 256;
        assert!(header_len > 0);
    }

    #[test]
    fn bad_blobs_are_rejected() {
        assert!(parse_header(b"").is_none());
        assert!(parse_header(b"JUNK 3 3 255\n").is_none());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_width_panics() {
        let _ = raster_to_pgm(&[1.0; 10], 3);
    }
}
