//! Golden executor for stencils.
//!
//! This is the semantic ground truth: the simulator-executed kernels
//! produced by `saris-codegen` are verified bit-for-bit (modulo the
//! documented FMA contraction differences between schedules) against this
//! executor.
//!
//! Two paths produce identical bits. [`apply`] is the production path: a
//! data-parallel row sweep ([`crate::simd`]) that evaluates four update
//! points per step with the halo handled by scalar remainder lanes.
//! [`apply_scalar`] is the retained one-point-at-a-time oracle built
//! directly on [`Stencil::eval_point`]; the SIMD path is required (and
//! tested) to match it bit-for-bit across the gallery, including NaN
//! inputs.

use crate::geom::Extent;
use crate::grid::Grid;
use crate::simd;
use crate::stencil::{ArrayRole, Stencil};

/// Checks the input-count and shared-extent contract for `stencil`.
fn check_contract(stencil: &Stencil, inputs: &[&Grid], extent: Extent) {
    let n_inputs = stencil.input_arrays().count();
    assert_eq!(
        inputs.len(),
        n_inputs,
        "{} expects {} input grids",
        stencil.name(),
        n_inputs
    );
    for g in inputs {
        assert_eq!(g.extent(), extent, "grids must share an extent");
    }
}

/// Applies one time iteration of `stencil` over the interior of the tile.
///
/// `inputs` holds one grid per declared *input* array, in declaration
/// order; the output grid is written in place (its halo is left
/// untouched). All grids must share the same extent.
///
/// This runs the data-parallel row sweep — bit-identical to
/// [`apply_scalar`], four update points per step.
///
/// # Panics
///
/// Panics if `inputs` does not match the stencil's input declarations or
/// the grids disagree on extent.
///
/// # Examples
///
/// ```
/// use saris_core::{gallery, reference};
/// use saris_core::grid::Grid;
/// use saris_core::geom::Extent;
///
/// let s = gallery::jacobi_2d();
/// let tile = Extent::new_2d(16, 16);
/// let inp = Grid::pseudo_random(tile, 7);
/// let mut out = Grid::zeros(tile);
/// reference::apply(&s, &[&inp], &mut out);
/// ```
pub fn apply(stencil: &Stencil, inputs: &[&Grid], out: &mut Grid) {
    check_contract(stencil, inputs, out.extent());
    simd::apply_rows(stencil, inputs, out);
}

/// Applies one iteration with the scalar oracle: one point at a time via
/// [`Stencil::eval_point`], exactly as the pre-SIMD golden tier did.
///
/// This is the path the data-parallel [`apply`] is verified against; it
/// also serves as the measured baseline for the `--golden-sweep`
/// benchmark scenario.
///
/// # Panics
///
/// Same conditions as [`apply`].
pub fn apply_scalar(stencil: &Stencil, inputs: &[&Grid], out: &mut Grid) {
    check_contract(stencil, inputs, out.extent());
    let extent = out.extent();
    // Build the full array slot table (inputs in declaration order, the
    // output slot points at a placeholder that eval_point never reads).
    let halo = stencil.halo();
    let mut results = Vec::new();
    {
        let mut slots: Vec<&Grid> = Vec::with_capacity(stencil.arrays().len());
        let mut next_input = 0;
        for decl in stencil.arrays() {
            match decl.role() {
                ArrayRole::Input => {
                    slots.push(inputs[next_input]);
                    next_input += 1;
                }
                ArrayRole::Output => slots.push(out),
            }
        }
        for p in extent.interior_points(halo) {
            results.push((p, stencil.eval_point(&slots, p)));
        }
    }
    for (p, v) in results {
        out.set(p, v);
    }
}

/// Applies one iteration into a fresh zeroed output grid and returns it.
///
/// # Panics
///
/// Same conditions as [`apply`].
pub fn apply_to_new(stencil: &Stencil, inputs: &[&Grid], extent: Extent) -> Grid {
    let mut out = Grid::zeros(extent);
    apply(stencil, inputs, &mut out);
    out
}

/// Like [`apply_to_new`] but with the scalar oracle.
///
/// # Panics
///
/// Same conditions as [`apply`].
pub fn apply_scalar_to_new(stencil: &Stencil, inputs: &[&Grid], extent: Extent) -> Grid {
    let mut out = Grid::zeros(extent);
    apply_scalar(stencil, inputs, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;
    use crate::geom::{Halo, Point};

    #[test]
    fn jacobi_on_constant_grid_is_identity() {
        let s = gallery::jacobi_2d();
        let tile = Extent::new_2d(8, 8);
        let inp = Grid::filled(tile, 2.0);
        let out = apply_to_new(&s, &[&inp], tile);
        // 0.2 * (5 * 2.0) = 2.0 on the interior; halo stays zero.
        for p in tile.interior_points(Halo::uniform(1)) {
            assert!((out.get(p) - 2.0).abs() < 1e-12, "at {p}");
        }
        assert_eq!(out.get(Point::new_2d(0, 0)), 0.0);
    }

    #[test]
    fn jacobi_linear_field_is_preserved() {
        // The 5-point average of a linear field equals the field.
        let s = gallery::jacobi_2d();
        let tile = Extent::new_2d(10, 10);
        let inp = Grid::from_fn(tile, |p| 3.0 * p.x as f64 - 2.0 * p.y as f64);
        let out = apply_to_new(&s, &[&inp], tile);
        for p in tile.interior_points(Halo::uniform(1)) {
            assert!((out.get(p) - inp.get(p)).abs() < 1e-12, "at {p}");
        }
    }

    #[test]
    fn all_gallery_codes_execute() {
        for s in gallery::all() {
            let tile = Extent::cube(s.space(), 2 * s.stats().radius as usize + 4);
            let inputs: Vec<Grid> = s
                .input_arrays()
                .enumerate()
                .map(|(i, _)| Grid::pseudo_random(tile, 100 + i as u64))
                .collect();
            let refs: Vec<&Grid> = inputs.iter().collect();
            let out = apply_to_new(&s, &refs, tile);
            // Outputs must be finite and not all zero on the interior.
            let interior: Vec<f64> = tile.interior_points(s.halo()).map(|p| out.get(p)).collect();
            assert!(!interior.is_empty(), "{}", s.name());
            assert!(interior.iter().all(|v| v.is_finite()), "{}", s.name());
            assert!(
                interior.iter().any(|v| *v != 0.0),
                "{}: all-zero output",
                s.name()
            );
        }
    }

    #[test]
    fn simd_path_matches_scalar_oracle_bitwise() {
        for s in gallery::all() {
            let tile = Extent::cube(s.space(), 2 * s.stats().radius as usize + 5);
            let inputs: Vec<Grid> = s
                .input_arrays()
                .enumerate()
                .map(|(i, _)| Grid::pseudo_random(tile, 42 + i as u64))
                .collect();
            let refs: Vec<&Grid> = inputs.iter().collect();
            let fast = apply_to_new(&s, &refs, tile);
            let oracle = apply_scalar_to_new(&s, &refs, tile);
            for (a, b) in fast.as_slice().iter().zip(oracle.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", s.name());
            }
        }
    }

    #[test]
    fn halo_is_never_written() {
        for s in gallery::all() {
            let tile = Extent::cube(s.space(), 2 * s.stats().radius as usize + 4);
            let inputs: Vec<Grid> = s
                .input_arrays()
                .map(|_| Grid::pseudo_random(tile, 5))
                .collect();
            let refs: Vec<&Grid> = inputs.iter().collect();
            let mut out = Grid::filled(tile, -7.0);
            apply(&s, &refs, &mut out);
            let halo = s.halo();
            let interior: std::collections::HashSet<_> = tile
                .interior_points(halo)
                .map(|p| tile.linear_point(p))
                .collect();
            for p in tile.points() {
                if !interior.contains(&tile.linear_point(p)) {
                    assert_eq!(out.get(p), -7.0, "{}: halo written at {p}", s.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "expects 2 input grids")]
    fn wrong_input_count_panics() {
        let s = gallery::ac_iso_cd();
        let tile = Extent::cube(s.space(), 12);
        let g = Grid::zeros(tile);
        let mut out = Grid::zeros(tile);
        apply(&s, &[&g], &mut out);
    }
}
