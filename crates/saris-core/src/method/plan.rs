//! The complete SARIS plan for one stencil on one tile layout.

use std::fmt;

use saris_isa::IndexWidth;

use crate::error::PlanError;
use crate::layout::ArenaLayout;
use crate::method::index::{build_index_arrays, IndexArrays};
use crate::method::schedule::{CoeffStrategy, PointSchedule, StreamMode};
use crate::stencil::Stencil;

/// Tunable knobs of the SARIS planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SarisOptions {
    /// FP registers the code generator can dedicate to coefficients; the
    /// effective budget also leaves room for the stream registers and the
    /// unrolled slot temporaries.
    pub coeff_reg_budget: usize,
    /// Index-array entry width.
    pub index_width: IndexWidth,
    /// How register-exhausting coefficients are handled.
    pub coeff_strategy: CoeffStrategy,
}

impl Default for SarisOptions {
    fn default() -> SarisOptions {
        SarisOptions {
            // 32 FP registers minus ft0..ft2 (streams) and a handful of
            // temporaries for the deepest schedules.
            coeff_reg_budget: 24,
            index_width: IndexWidth::U16,
            coeff_strategy: CoeffStrategy::default(),
        }
    }
}

/// A fully derived SARIS plan: schedule, index arrays and coefficient
/// stream for one `(stencil, layout, unroll, x-interleave)` combination.
///
/// # Examples
///
/// ```
/// use saris_core::{gallery, layout::ArenaLayout};
/// use saris_core::method::{SarisOptions, SarisPlan};
/// use saris_core::geom::Extent;
///
/// # fn main() -> Result<(), saris_core::error::PlanError> {
/// let s = gallery::jacobi_2d();
/// let layout = ArenaLayout::for_stencil(&s, Extent::new_2d(64, 64));
/// let plan = SarisPlan::derive(&s, &layout, SarisOptions::default(), 2, 4)?;
/// assert_eq!(plan.unroll, 2);
/// assert_eq!(plan.indices.sr0.len(), 2 * 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SarisPlan {
    /// The point-loop schedule (ops + pop sequences).
    pub schedule: PointSchedule,
    /// Static index arrays for one launch window.
    pub indices: IndexArrays,
    /// Coefficient values in pop order for one point, when SR1 streams
    /// coefficients ([`StreamMode::CoeffStream`]); the affine SR1 pattern
    /// walks this table once per point.
    pub coeff_table: Option<Vec<f64>>,
    /// Points per launch window.
    pub unroll: usize,
    /// Index entry width.
    pub index_width: IndexWidth,
    /// Element stride between consecutive points of one core (the x
    /// interleave factor).
    pub x_step_elems: usize,
}

impl SarisPlan {
    /// Derives the plan.
    ///
    /// `unroll` is the number of interleaved points per launch window and
    /// `x_step_elems` the element stride between them (the per-core x
    /// stride, i.e. the interleave factor).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::TileTooSmall`] if the layout's tile has no
    /// interior for this stencil, or [`PlanError::IndexOverflow`] if an
    /// index exceeds the chosen width.
    pub fn derive(
        stencil: &Stencil,
        layout: &ArenaLayout,
        options: SarisOptions,
        unroll: usize,
        x_step_elems: usize,
    ) -> Result<SarisPlan, PlanError> {
        let halo = stencil.halo();
        let tile = layout.extent();
        let interior_fits = tile.nx > 2 * halo.rx as usize
            && tile.ny > 2 * halo.ry as usize
            && (tile.nz == 1 || tile.nz > 2 * halo.rz as usize);
        if !interior_fits {
            return Err(PlanError::TileTooSmall {
                name: stencil.name().to_string(),
            });
        }
        // Leave room for the three stream registers and the unrolled slot
        // temporaries (~3 per slot with coefficient reloads).
        let effective_budget = options
            .coeff_reg_budget
            .min(32usize.saturating_sub(3 + unroll * 3));
        let schedule = PointSchedule::derive(stencil, effective_budget, options.coeff_strategy);
        let indices = build_index_arrays(
            stencil,
            layout,
            &schedule,
            unroll,
            x_step_elems,
            options.index_width,
        )?;
        let coeff_table = match schedule.mode {
            StreamMode::Paired => None,
            StreamMode::CoeffStream => Some(
                schedule
                    .coeff_pops
                    .iter()
                    .map(|&(_, c)| stencil.coeffs()[c].value())
                    .collect(),
            ),
        };
        Ok(SarisPlan {
            schedule,
            indices,
            coeff_table,
            unroll,
            index_width: options.index_width,
            x_step_elems,
        })
    }

    /// The stream partitioning mode.
    pub fn mode(&self) -> StreamMode {
        self.schedule.mode
    }

    /// Bytes of index storage this plan needs in TCDM (both streams).
    pub fn index_bytes(&self) -> usize {
        let n = self.indices.sr0.len() + self.indices.sr1.as_ref().map_or(0, |a| a.len());
        n * self.index_width.bytes()
    }

    /// Setup overhead proxy: indices stored per useful point (the paper
    /// notes "more indices must be stored for fewer point iterations doing
    /// useful compute" as the reason `ac_iso_cd` has the lowest SARIS FPU
    /// utilization).
    pub fn indices_per_point(&self) -> f64 {
        (self.indices.sr0.len() + self.indices.sr1.as_ref().map_or(0, |a| a.len())) as f64
            / self.unroll as f64
    }
}

impl fmt::Display for SarisPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "saris plan: {} mode, unroll {}, {} index bytes",
            self.mode(),
            self.unroll,
            self.index_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;
    use crate::geom::Extent;

    fn plan_for(name: &str, tile: usize, unroll: usize) -> SarisPlan {
        let s = gallery::by_name(name).unwrap();
        let layout = ArenaLayout::for_stencil(&s, Extent::cube(s.space(), tile));
        SarisPlan::derive(&s, &layout, SarisOptions::default(), unroll, 4).unwrap()
    }

    #[test]
    fn all_gallery_codes_plan_at_paper_tiles() {
        for s in gallery::all() {
            let tile = match s.space() {
                crate::geom::Space::Dim2 => 64,
                crate::geom::Space::Dim3 => 16,
            };
            let layout = ArenaLayout::for_stencil(&s, Extent::cube(s.space(), tile));
            for unroll in [1, 2, 4] {
                let plan = SarisPlan::derive(&s, &layout, SarisOptions::default(), unroll, 4)
                    .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
                assert_eq!(plan.unroll, unroll);
                assert_eq!(
                    plan.indices.sr0.len() % unroll,
                    0,
                    "{}: window indices divide by unroll",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn paired_codes_have_no_coeff_table() {
        let plan = plan_for("jacobi_2d", 64, 1);
        assert_eq!(plan.mode(), StreamMode::Paired);
        assert!(plan.coeff_table.is_none());
    }

    #[test]
    fn coeff_stream_table_matches_pop_order() {
        let s = gallery::j3d27pt();
        let layout = ArenaLayout::for_stencil(&s, Extent::cube(s.space(), 16));
        let opts = SarisOptions {
            coeff_strategy: CoeffStrategy::StreamSr1,
            coeff_reg_budget: 20,
            ..SarisOptions::default()
        };
        let plan = SarisPlan::derive(&s, &layout, opts, 1, 4).unwrap();
        assert_eq!(plan.mode(), StreamMode::CoeffStream);
        let table = plan.coeff_table.as_ref().unwrap();
        assert_eq!(table.len(), 28);
        for (i, &v) in table.iter().enumerate() {
            assert_eq!(v, s.coeffs()[plan.schedule.coeff_pops[i].1].value());
        }
    }

    #[test]
    fn hybrid_mode_splits_coefficients() {
        // Default strategy: j3d27pt (28 coefficients) stays paired with
        // the excess reloaded from memory.
        let plan = plan_for("j3d27pt", 16, 2);
        assert_eq!(plan.mode(), StreamMode::Paired);
        assert!(plan.schedule.has_coeff_mem());
        assert!(plan.coeff_table.is_none());
        // Taps split across both streams.
        let pops = plan.schedule.pops_per_point();
        assert_eq!(pops[0] + pops[1], 27);
        assert!(pops[0].abs_diff(pops[1]) <= 1);
    }

    #[test]
    fn tile_too_small_rejected() {
        let s = gallery::ac_iso_cd(); // radius 4 needs tile > 8
        let layout = ArenaLayout::for_stencil(&s, Extent::cube(s.space(), 8));
        let err = SarisPlan::derive(&s, &layout, SarisOptions::default(), 1, 4).unwrap_err();
        assert!(matches!(err, PlanError::TileTooSmall { .. }));
    }

    #[test]
    fn index_bytes_accounting() {
        let plan = plan_for("jacobi_2d", 64, 4);
        // 4 * (3 + 2) indices at 2 bytes.
        assert_eq!(plan.index_bytes(), 4 * 5 * 2);
        assert!((plan.indices_per_point() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ac_iso_cd_has_highest_index_overhead() {
        // The paper singles out ac_iso_cd (largest radius, most loads) as
        // having the largest setup overhead.
        let worst = plan_for("ac_iso_cd", 16, 1).indices_per_point();
        for name in ["jacobi_2d", "j2d5pt", "star2d3r", "star3d2r"] {
            let tile = if gallery::by_name(name).unwrap().space() == crate::geom::Space::Dim2 {
                64
            } else {
                16
            };
            let other = plan_for(name, tile, 1).indices_per_point();
            assert!(worst > other, "{name}: {other} >= {worst}");
        }
    }
}
