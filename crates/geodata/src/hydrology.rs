//! Surface hydrology over heightmaps: D8 flow routing and accumulation.
//!
//! These are the classic raster-hydrology kernels the reference work
//! (Li et al. 2013; Wu et al. 2023) relies on for deriving drainage
//! networks from LiDAR DEMs — implemented here so the synthetic channels
//! our tiles carve are verifiably "hydrologically real": water routed over
//! the carved DEM concentrates in the carved channel.

use crate::terrain::Heightmap;

/// D8 neighbor offsets (E, SE, S, SW, W, NW, N, NE).
const D8: [(i32, i32); 8] = [
    (1, 0),
    (1, 1),
    (0, 1),
    (-1, 1),
    (-1, 0),
    (-1, -1),
    (0, -1),
    (1, -1),
];

/// Per-cell steepest-descent direction: index into the D8 table, or `None`
/// for pits/flats and cells draining off the raster edge.
pub fn d8_flow_directions(h: &Heightmap) -> Vec<Option<u8>> {
    let n = h.size();
    let mut dirs = vec![None; n * n];
    for y in 0..n {
        for x in 0..n {
            let z = h.at(x, y);
            let mut best: Option<(u8, f32)> = None;
            for (i, (dx, dy)) in D8.iter().enumerate() {
                let nx = x as i32 + dx;
                let ny = y as i32 + dy;
                if nx < 0 || ny < 0 || nx >= n as i32 || ny >= n as i32 {
                    continue;
                }
                let dz = z - h.at(nx as usize, ny as usize);
                let dist = if dx.abs() + dy.abs() == 2 {
                    std::f32::consts::SQRT_2
                } else {
                    1.0
                };
                let grad = dz / dist;
                if grad > 0.0 && best.is_none_or(|(_, g)| grad > g) {
                    best = Some((i as u8, grad));
                }
            }
            dirs[y * n + x] = best.map(|(i, _)| i);
        }
    }
    dirs
}

/// Flow accumulation: number of upstream cells draining through each cell
/// (each cell contributes 1 unit, itself included). Computed by processing
/// cells in descending elevation order, which is cycle-free for D8 on
/// strictly-decreasing links.
pub fn flow_accumulation(h: &Heightmap, dirs: &[Option<u8>]) -> Vec<u32> {
    let n = h.size();
    assert_eq!(dirs.len(), n * n, "direction raster size mismatch");
    let mut order: Vec<usize> = (0..n * n).collect();
    order.sort_by(|&a, &b| {
        let za = h.as_slice()[a];
        let zb = h.as_slice()[b];
        zb.partial_cmp(&za).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut acc = vec![1u32; n * n];
    for &cell in &order {
        if let Some(d) = dirs[cell] {
            let (dx, dy) = D8[d as usize];
            let x = (cell % n) as i32 + dx;
            let y = (cell / n) as i32 + dy;
            debug_assert!(x >= 0 && y >= 0 && x < n as i32 && y < n as i32);
            let downstream = y as usize * n + x as usize;
            acc[downstream] += acc[cell];
        }
    }
    acc
}

/// Cells whose accumulation exceeds `threshold` — the stream network.
pub fn stream_mask(accumulation: &[u32], threshold: u32) -> Vec<bool> {
    accumulation.iter().map(|&a| a > threshold).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plane tilted toward +x: everything flows east.
    fn tilted_plane(n: usize) -> Heightmap {
        let mut h = Heightmap::flat(n, 0.0);
        for y in 0..n {
            for x in 0..n {
                *h.at_mut(x, y) = (n - x) as f32;
            }
        }
        h
    }

    #[test]
    fn tilted_plane_flows_east() {
        let h = tilted_plane(8);
        let dirs = d8_flow_directions(&h);
        for y in 0..8 {
            for x in 0..7 {
                assert_eq!(dirs[y * 8 + x], Some(0), "cell ({x},{y}) should flow E");
            }
            // Last column has no lower in-bounds neighbor.
            assert_eq!(dirs[y * 8 + 7], None);
        }
    }

    #[test]
    fn accumulation_grows_downstream_on_plane() {
        let h = tilted_plane(8);
        let dirs = d8_flow_directions(&h);
        let acc = flow_accumulation(&h, &dirs);
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(acc[y * 8 + x], (x + 1) as u32, "cell ({x},{y})");
            }
        }
    }

    #[test]
    fn accumulation_conserves_cells_into_outlets() {
        // Total inflow at cells with no downstream equals raster size.
        let h = Heightmap::generate(32, 12, 10.0, 1.0);
        let dirs = d8_flow_directions(&h);
        let acc = flow_accumulation(&h, &dirs);
        let outlet_sum: u64 = dirs
            .iter()
            .zip(acc.iter())
            .filter(|(d, _)| d.is_none())
            .map(|(_, &a)| a as u64)
            .sum();
        assert_eq!(outlet_sum, 32 * 32);
    }

    #[test]
    fn valley_concentrates_flow() {
        // A V-shaped valley along the middle row: flow converges into it.
        let n = 16;
        let mut h = Heightmap::flat(n, 0.0);
        for y in 0..n {
            for x in 0..n {
                let valley_dist = (y as f32 - n as f32 / 2.0).abs();
                *h.at_mut(x, y) = valley_dist * 2.0 + (n - x) as f32 * 0.1;
            }
        }
        let dirs = d8_flow_directions(&h);
        let acc = flow_accumulation(&h, &dirs);
        let mid = n / 2;
        // The valley row near the outlet drains most of the raster.
        let valley_acc = acc[mid * n + (n - 2)];
        let ridge_acc = acc[n + (n - 2)];
        assert!(
            valley_acc > 10 * ridge_acc,
            "valley {valley_acc} vs ridge {ridge_acc}"
        );
    }

    #[test]
    fn stream_mask_thresholds() {
        let acc = vec![1, 5, 10, 50];
        assert_eq!(stream_mask(&acc, 9), vec![false, false, true, true]);
        assert_eq!(stream_mask(&acc, 0), vec![true; 4]);
    }

    #[test]
    fn pit_cell_has_no_direction() {
        let mut h = Heightmap::flat(5, 10.0);
        *h.at_mut(2, 2) = 1.0; // pit
        let dirs = d8_flow_directions(&h);
        assert_eq!(dirs[2 * 5 + 2], None);
        // Neighbors drain into the pit.
        assert!(dirs[2 * 5 + 1].is_some());
    }
}
