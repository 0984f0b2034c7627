//! Operational-intensity and roofline analysis for stencil tiles.
//!
//! The paper's Section 3.3 argues from operational intensity: "codes with
//! few FLOPs per grid point exhibit a low operational intensity and thus
//! a low CMTR, making them memory bound", and 3D halos depress the
//! intensity further. This module computes those quantities directly from
//! a stencil and a tile geometry, independent of any simulation.
//!
//! The per-tile traffic derivation ([`TileTraffic`]) is what the
//! `saris-scaleout` manycore estimate (Figure 5 / Table 2) streams
//! through main memory.

use crate::geom::{Extent, Halo};
use crate::stencil::Stencil;

/// Per-tile DMA traffic of a double-buffered stencil sweep.
///
/// This is the single shared derivation of "bytes a tile moves": each
/// input array streams its interior plus *its own* halo in (an array
/// only read at the center, like `ac_iso_cd`'s previous time step,
/// needs no halo), and the output streams its interior out. 3D halos
/// dominate this — the paper's explanation for `star3d2r` and
/// `ac_iso_cd` regressing to memory-boundedness at scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileTraffic {
    /// Bytes streamed in per tile (all input arrays, halo included).
    pub bytes_in: u64,
    /// Bytes streamed out per tile (interior of the output array).
    pub bytes_out: u64,
}

impl TileTraffic {
    /// Derives the traffic for `stencil` on tiles of `tile` (halo
    /// included).
    pub fn for_stencil(stencil: &Stencil, tile: Extent) -> TileTraffic {
        let interior = stencil.interior(tile);
        let mut bytes_in = 0u64;
        for array in stencil.input_arrays() {
            let halo = Halo::covering(
                stencil
                    .taps()
                    .iter()
                    .filter(|t| t.array == array)
                    .map(|t| &t.offset),
            );
            let region = (interior.nx + 2 * halo.rx as usize).min(tile.nx)
                * (interior.ny + 2 * halo.ry as usize).min(tile.ny)
                * if tile.nz == 1 {
                    1
                } else {
                    (interior.nz + 2 * halo.rz as usize).min(tile.nz)
                };
            bytes_in += region as u64 * 8;
        }
        TileTraffic {
            bytes_in,
            bytes_out: interior.len() as u64 * 8,
        }
    }

    /// Total bytes per tile.
    pub fn total(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }
}

/// Operational intensity of one double-buffered tile sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileIntensity {
    /// Floating-point operations per tile.
    pub flops: f64,
    /// DMA bytes per tile (inputs with their own halos in, interior out).
    pub bytes: f64,
    /// FLOPs per byte.
    pub intensity: f64,
}

/// Computes the operational intensity of `stencil` on tiles of `tile`
/// (halo included).
///
/// # Examples
///
/// ```
/// use saris_core::{gallery, roofline, Extent, Space};
///
/// let jacobi = roofline::tile_intensity(&gallery::jacobi_2d(), Extent::new_2d(64, 64));
/// let j3d = roofline::tile_intensity(&gallery::j3d27pt(), Extent::cube(Space::Dim3, 16));
/// // The 27-point 3D code is far more compute-intense per byte.
/// assert!(j3d.intensity > 2.0 * jacobi.intensity);
/// ```
pub fn tile_intensity(stencil: &Stencil, tile: Extent) -> TileIntensity {
    let interior = stencil.interior(tile);
    let flops = stencil.stats().flops as f64 * interior.len() as f64;
    let bytes = TileTraffic::for_stencil(stencil, tile).total() as f64;
    TileIntensity {
        flops,
        bytes,
        intensity: flops / bytes,
    }
}

/// The machine balance (FLOPs per byte at which compute and memory time
/// are equal) for a peak compute rate in FLOPs per cycle and a bandwidth
/// in bytes per cycle.
pub fn machine_balance(peak_flops_per_cycle: f64, bytes_per_cycle: f64) -> f64 {
    peak_flops_per_cycle / bytes_per_cycle
}

/// Attainable FLOPs per cycle under the roofline: the minimum of the
/// compute peak and `intensity * bandwidth`.
pub fn attainable(intensity: f64, peak_flops_per_cycle: f64, bytes_per_cycle: f64) -> f64 {
    peak_flops_per_cycle.min(intensity * bytes_per_cycle)
}

/// Whether a tile sweep is memory-bound at the given machine point.
pub fn is_memory_bound(
    stencil: &Stencil,
    tile: Extent,
    peak_flops_per_cycle: f64,
    bytes_per_cycle: f64,
) -> bool {
    tile_intensity(stencil, tile).intensity < machine_balance(peak_flops_per_cycle, bytes_per_cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;
    use crate::geom::Space;

    fn paper_tile(s: &Stencil) -> Extent {
        match s.space() {
            Space::Dim2 => Extent::new_2d(64, 64),
            Space::Dim3 => Extent::cube(Space::Dim3, 16),
        }
    }

    #[test]
    fn intensity_rises_with_flops_per_point_within_a_family() {
        // Within the 2D star family, more FLOPs per point means more
        // intensity (the Table 1 ordering is by FLOPs per point).
        let j = tile_intensity(&gallery::jacobi_2d(), paper_tile(&gallery::jacobi_2d()));
        let s3 = tile_intensity(&gallery::star2d3r(), paper_tile(&gallery::star2d3r()));
        assert!(s3.intensity > j.intensity);
    }

    #[test]
    fn three_d_halos_depress_intensity() {
        // star3d2r and star2d3r have identical per-point FLOPs (25), but
        // the 3D halo consumes a much larger share of the tile — the
        // paper's "3D halos more strongly reduce the ratio of input to
        // output points in a tile" regression argument.
        let s2 = tile_intensity(&gallery::star2d3r(), paper_tile(&gallery::star2d3r()));
        let s3 = tile_intensity(&gallery::star3d2r(), paper_tile(&gallery::star3d2r()));
        assert!(s3.intensity < s2.intensity);
    }

    #[test]
    fn manticore_balance_splits_the_gallery() {
        // Cluster peak 16 FLOP/cycle vs 12.8 B/cycle share: balance 1.25.
        let balance = machine_balance(16.0, 12.8);
        assert!((balance - 1.25).abs() < 1e-12);
        let jacobi_bound = is_memory_bound(
            &gallery::jacobi_2d(),
            paper_tile(&gallery::jacobi_2d()),
            16.0,
            12.8,
        );
        let j3d_bound = is_memory_bound(
            &gallery::j3d27pt(),
            paper_tile(&gallery::j3d27pt()),
            16.0,
            12.8,
        );
        assert!(jacobi_bound, "jacobi_2d sits below the balance point");
        assert!(!j3d_bound, "j3d27pt sits above it");
    }

    #[test]
    fn attainable_clamps_at_peak() {
        assert_eq!(attainable(10.0, 16.0, 12.8), 16.0);
        assert!((attainable(0.5, 16.0, 12.8) - 6.4).abs() < 1e-12);
    }

    #[test]
    fn ac_iso_cd_counts_both_input_arrays() {
        let s = gallery::ac_iso_cd();
        let t = tile_intensity(&s, paper_tile(&s));
        // u with full halo (16^3) + um interior (8^3) + out interior (8^3).
        let expect_bytes = (4096 + 512 + 512) as f64 * 8.0;
        assert!((t.bytes - expect_bytes).abs() < 1e-9);
    }

    #[test]
    fn traffic_counts_inputs_and_interior() {
        let s = gallery::jacobi_2d();
        let tile = Extent::new_2d(64, 64);
        let t = TileTraffic::for_stencil(&s, tile);
        assert_eq!(t.bytes_in, 64 * 64 * 8);
        assert_eq!(t.bytes_out, 62 * 62 * 8);
        let s3 = gallery::ac_iso_cd();
        let tile3 = Extent::cube(Space::Dim3, 16);
        let t3 = TileTraffic::for_stencil(&s3, tile3);
        // u needs its full radius-4 halo; um is only read at the center.
        assert_eq!(t3.bytes_in, (16 * 16 * 16 + 8 * 8 * 8) * 8);
        assert_eq!(t3.bytes_out, 8 * 8 * 8 * 8);
    }

    #[test]
    fn intensity_and_traffic_share_one_byte_count() {
        for s in gallery::all() {
            let tile = paper_tile(&s);
            let t = tile_intensity(&s, tile);
            let traffic = TileTraffic::for_stencil(&s, tile);
            assert_eq!(t.bytes, traffic.total() as f64, "{}", s.name());
        }
    }
}
