//! The per-code scaleout estimate.

use std::fmt;

use saris_core::rng::SplitMix64;
use saris_core::{Extent, Stencil};

use crate::machine::MachineModel;

// The per-tile traffic derivation lives in `saris_core::roofline`, next
// to the operational-intensity analysis that counts the same bytes;
// re-exported here for continuity.
pub use saris_core::roofline::TileTraffic;

/// What the single-cluster experiments feed into the estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMeasurement {
    /// Cycles one cluster needs to compute one tile.
    pub compute_cycles_per_tile: f64,
    /// FP arithmetic operations (FPU issue slots) per tile.
    pub fpu_ops_per_tile: f64,
    /// Floating-point operations per tile (FMA = 2).
    pub flops_per_tile: f64,
    /// Measured DMA bandwidth utilization (0..1).
    pub dma_utilization: f64,
    /// Per-core runtime ratios (time / mean) within the cluster.
    pub core_imbalance: Vec<f64>,
}

/// The scaleout estimate for one code variant.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleoutEstimate {
    /// Per-tile compute time, including the bootstrapped cluster
    /// imbalance, in cycles.
    pub tc: f64,
    /// Per-tile memory time at the derated cluster bandwidth share.
    pub tm: f64,
    /// Compute-to-memory time ratio (paper Figure 5's CMTR annotation).
    pub cmtr: f64,
    /// Whether the code is memory-bound at scale (`tm > tc`).
    pub memory_bound: bool,
    /// Tiles each cluster processes.
    pub tiles_per_cluster: u64,
    /// Total runtime in cycles.
    pub total_cycles: f64,
    /// Scaled FPU utilization (FPU issue slots per core-cycle).
    pub fpu_util: f64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
}

impl ScaleoutEstimate {
    /// Fraction of the machine's peak compute achieved.
    pub fn fraction_of_peak(&self, machine: &MachineModel) -> f64 {
        self.gflops / machine.peak_gflops()
    }
}

impl fmt::Display for ScaleoutEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "util {:.2}, {:.0} GFLOP/s, CMTR {:.2}{}",
            self.fpu_util,
            self.gflops,
            self.cmtr,
            if self.memory_bound {
                " (memory-bound)"
            } else {
                ""
            }
        )
    }
}

/// Expected makespan inflation when `n` clusters draw their runtimes from
/// the empirical per-core ratio distribution (seeded bootstrap, as the
/// paper's "same distribution for runtime imbalance among clusters as we
/// observe among cores in a cluster").
fn bootstrap_makespan_factor(ratios: &[f64], n: usize, seed: u64) -> f64 {
    if ratios.is_empty() || n == 0 {
        return 1.0;
    }
    let mut rng = SplitMix64::new(seed);
    const ROUNDS: usize = 2000;
    let mut acc = 0.0;
    for _ in 0..ROUNDS {
        let mut max = f64::MIN;
        for _ in 0..n {
            let r = ratios[rng.below(ratios.len() as u64) as usize];
            if r > max {
                max = r;
            }
        }
        acc += max;
    }
    (acc / ROUNDS as f64).max(1.0)
}

/// Number of tiles covering `grid` with interiors of `interior`.
fn tiles_covering(grid: Extent, interior: Extent) -> u64 {
    let per = |g: usize, t: usize| g.div_ceil(t.max(1)) as u64;
    per(grid.nx, interior.nx) * per(grid.ny, interior.ny) * per(grid.nz, interior.nz)
}

/// Produces the scaleout estimate for one code variant.
///
/// `grid` is the global problem (the paper uses 16384^2 for 2D and 512^3
/// for 3D, as in AN5D); `tile` the per-cluster tile including halo.
///
/// # Examples
///
/// The measurement feeding the estimate comes from the execution
/// engine — a workload submission for the tile and a DMA probe for the
/// bandwidth derate:
///
/// ```
/// use saris_codegen::{Session, Variant, Workload};
/// use saris_core::{gallery, Extent};
/// use saris_scaleout::{estimate, ClusterMeasurement, MachineModel};
///
/// # fn main() -> Result<(), saris_codegen::CodegenError> {
/// let session = Session::new();
/// let tile = Extent::new_2d(32, 32);
/// let run = session.submit(
///     &Workload::new(gallery::jacobi_2d())
///         .extent(tile)
///         .input_seed(1)
///         .variant(Variant::Saris)
///         .freeze()?,
/// )?;
/// let dma_util = session
///     .submit(&Workload::dma_probe(tile).freeze()?)?
///     .dma_utilization
///     .expect("probes measure utilization");
/// let report = run.expect_report();
/// let measurement = ClusterMeasurement {
///     compute_cycles_per_tile: report.cycles as f64,
///     fpu_ops_per_tile: report.cores.iter().map(|c| c.fpu.arith as f64).sum(),
///     flops_per_tile: report.flops() as f64,
///     dma_utilization: dma_util,
///     core_imbalance: report.runtime_imbalance(),
/// };
/// let e = estimate(
///     &MachineModel::manticore_256s(),
///     &gallery::jacobi_2d(),
///     tile,
///     Extent::new_2d(16384, 16384),
///     &measurement,
/// );
/// assert!(e.gflops > 0.0 && e.tiles_per_cluster > 0);
/// # Ok(())
/// # }
/// ```
pub fn estimate(
    machine: &MachineModel,
    stencil: &Stencil,
    tile: Extent,
    grid: Extent,
    measurement: &ClusterMeasurement,
) -> ScaleoutEstimate {
    let traffic = TileTraffic::for_stencil(stencil, tile);
    let cluster_bw =
        machine.cluster_bandwidth_bytes_per_cycle() * measurement.dma_utilization.clamp(0.05, 1.0);
    let tm = traffic.total() as f64 / cluster_bw;
    let imbalance = bootstrap_makespan_factor(
        &measurement.core_imbalance,
        machine.clusters_per_group,
        0x5a715,
    );
    let tc = measurement.compute_cycles_per_tile * imbalance;
    let interior = stencil.interior(tile);
    let n_tiles = tiles_covering(grid, interior);
    let tiles_per_cluster = n_tiles.div_ceil(machine.total_clusters() as u64);
    let t_tile = tc.max(tm);
    let total_cycles = tiles_per_cluster as f64 * t_tile;
    let total_ops = measurement.fpu_ops_per_tile * n_tiles as f64;
    let total_flops = measurement.flops_per_tile * n_tiles as f64;
    let core_cycles = total_cycles * machine.total_cores() as f64;
    let fpu_util = total_ops / core_cycles;
    let gflops = total_flops / total_cycles * machine.freq_hz / 1e9;
    ScaleoutEstimate {
        tc,
        tm,
        cmtr: tc / tm,
        memory_bound: tm > tc,
        tiles_per_cluster,
        total_cycles,
        fpu_util,
        gflops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_core::gallery;

    fn measurement(cycles: f64, util: f64) -> ClusterMeasurement {
        // 8 cores at the given utilization.
        let ops = cycles * 8.0 * util;
        ClusterMeasurement {
            compute_cycles_per_tile: cycles,
            fpu_ops_per_tile: ops,
            flops_per_tile: ops * 1.8,
            dma_utilization: 0.9,
            core_imbalance: vec![1.0; 8],
        }
    }

    #[test]
    fn compute_bound_codes_keep_their_utilization() {
        let machine = MachineModel::manticore_256s();
        let s = gallery::j3d27pt();
        let tile = Extent::cube(saris_core::Space::Dim3, 16);
        let grid = Extent::cube(saris_core::Space::Dim3, 512);
        // Long compute per tile -> compute bound.
        let m = measurement(20_000.0, 0.4);
        let e = estimate(&machine, &s, tile, grid, &m);
        assert!(!e.memory_bound, "cmtr {}", e.cmtr);
        assert!((e.fpu_util - 0.4).abs() < 0.05, "util {}", e.fpu_util);
    }

    #[test]
    fn fast_kernels_become_memory_bound() {
        let machine = MachineModel::manticore_256s();
        let s = gallery::jacobi_2d();
        let tile = Extent::new_2d(64, 64);
        let grid = Extent::new_2d(16384, 16384);
        // Very fast compute -> memory bound, utilization degraded.
        let m = measurement(1_500.0, 0.8);
        let e = estimate(&machine, &s, tile, grid, &m);
        assert!(e.memory_bound);
        assert!(e.cmtr < 1.0);
        assert!(e.fpu_util < 0.8);
        // Utilization degrades by exactly the CMTR share.
        let expected = 0.8 * e.tc / e.tm / (e.tc / m.compute_cycles_per_tile);
        assert!(
            (e.fpu_util - expected).abs() < 0.02,
            "{} vs {expected}",
            e.fpu_util
        );
    }

    #[test]
    fn imbalance_inflates_compute_time() {
        let machine = MachineModel::manticore_256s();
        let s = gallery::j3d27pt();
        let tile = Extent::cube(saris_core::Space::Dim3, 16);
        let grid = Extent::cube(saris_core::Space::Dim3, 512);
        let balanced = measurement(20_000.0, 0.4);
        let mut skewed = balanced.clone();
        skewed.core_imbalance = vec![0.9, 0.95, 1.0, 1.0, 1.0, 1.02, 1.05, 1.08];
        let eb = estimate(&machine, &s, tile, grid, &balanced);
        let es = estimate(&machine, &s, tile, grid, &skewed);
        assert!(es.tc > eb.tc);
        assert!(es.fpu_util < eb.fpu_util);
    }

    #[test]
    fn bootstrap_is_deterministic_and_bounded() {
        let ratios = vec![0.9, 1.0, 1.1];
        let a = bootstrap_makespan_factor(&ratios, 4, 7);
        let b = bootstrap_makespan_factor(&ratios, 4, 7);
        assert_eq!(a, b);
        assert!((1.0..=1.1 + 1e-9).contains(&a), "{a}");
        assert_eq!(bootstrap_makespan_factor(&[], 4, 7), 1.0);
    }

    #[test]
    fn tile_counts_cover_grid() {
        assert_eq!(
            tiles_covering(Extent::new_2d(16384, 16384), Extent::new_2d(62, 62)),
            265 * 265
        );
        assert_eq!(
            tiles_covering(
                Extent::cube(saris_core::Space::Dim3, 512),
                Extent::cube(saris_core::Space::Dim3, 14)
            ),
            37u64.pow(3)
        );
    }
}
