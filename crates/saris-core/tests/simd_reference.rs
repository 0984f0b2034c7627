//! SIMD-vs-scalar bit-exactness for the golden reference executor.
//!
//! The data-parallel row sweep behind `reference::apply` must produce
//! grids bit-identical to the retained scalar oracle
//! (`reference::apply_scalar`) for every gallery stencil, both the
//! original and reassociated op sequences, NaN-seeded inputs, and
//! extents whose interior width is not a multiple of the lane count
//! (exercising the scalar remainder lanes).

use saris_core::geom::Extent;
use saris_core::grid::Grid;
use saris_core::reference;
use saris_core::stencil::Stencil;
use saris_core::{gallery, Space};

/// Asserts the SIMD path matches the scalar oracle bit-for-bit on
/// `tile` with the given inputs, and that the halo is preserved.
fn assert_bit_exact(stencil: &Stencil, inputs: &[Grid], tile: Extent, label: &str) {
    let refs: Vec<&Grid> = inputs.iter().collect();
    let mut fast = Grid::filled(tile, -3.25);
    let mut oracle = Grid::filled(tile, -3.25);
    reference::apply(stencil, &refs, &mut fast);
    reference::apply_scalar(stencil, &refs, &mut oracle);
    for (i, (a, b)) in fast.as_slice().iter().zip(oracle.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: lane divergence at flat index {i} ({a:e} vs {b:e})"
        );
    }
}

/// Pseudo-random inputs for `stencil` at `tile`.
fn inputs_for(stencil: &Stencil, tile: Extent, seed: u64) -> Vec<Grid> {
    stencil
        .input_arrays()
        .enumerate()
        .map(|(i, _)| Grid::pseudo_random(tile, seed + i as u64))
        .collect()
}

#[test]
fn every_gallery_stencil_is_bit_exact_in_both_variants() {
    for s in gallery::all() {
        let tile = Extent::cube(s.space(), 2 * s.stats().radius as usize + 6);
        let inputs = inputs_for(&s, tile, 1000);
        assert_bit_exact(&s, &inputs, tile, s.name());
        // The reassociated op sequence is a *different* stencil (split
        // accumulators); the SIMD path must track its op order too.
        for acc in [2, 4] {
            let t = s.reassociated(acc);
            assert_bit_exact(&t, &inputs, tile, &format!("{} acc{acc}", s.name()));
        }
    }
}

#[test]
fn nan_seeded_inputs_propagate_identically() {
    for s in gallery::all() {
        let tile = Extent::cube(s.space(), 2 * s.stats().radius as usize + 5);
        let mut inputs = inputs_for(&s, tile, 2000);
        // Sprinkle NaNs (and signed infinities) through every input so
        // chunks and remainder lanes both hit non-finite operands.
        for (gi, grid) in inputs.iter_mut().enumerate() {
            for (k, v) in grid.as_mut_slice().iter_mut().enumerate() {
                match (k + gi) % 7 {
                    0 => *v = f64::NAN,
                    3 => *v = f64::INFINITY,
                    5 => *v = f64::NEG_INFINITY,
                    _ => {}
                }
            }
        }
        assert_bit_exact(&s, &inputs, tile, &format!("{} nan", s.name()));
    }
}

#[test]
fn non_divisible_interior_widths_hit_remainder_lanes() {
    // 2D widths chosen so the interior (nx - 2*rx) mod 4 covers every
    // residue, including widths narrower than one full chunk.
    let s = gallery::jacobi_2d();
    for nx in [3, 4, 5, 6, 7, 9, 10, 11, 13, 18] {
        let tile = Extent::new_2d(nx, 9);
        let inputs = inputs_for(&s, tile, 3000 + nx as u64);
        assert_bit_exact(&s, &inputs, tile, &format!("jacobi_2d nx={nx}"));
    }
}

#[test]
fn property_sweep_over_odd_extents() {
    // A property-style sweep: every gallery stencil over a lattice of
    // odd (never lane-aligned) extents, distinct per axis so layout
    // bugs (x/y/z confusion, row strides) cannot cancel out.
    for s in gallery::all() {
        let r = s.stats().radius as usize;
        for (da, db) in [(0, 2), (2, 0), (2, 4), (4, 6)] {
            let base = 2 * r + 3;
            let tile = match s.space() {
                Space::Dim2 => Extent::new_2d(base + da, base + db),
                Space::Dim3 => Extent::new_3d(base + da, base + db, base + 2),
            };
            let inputs = inputs_for(&s, tile, 4000 + (da * 10 + db) as u64);
            assert_bit_exact(&s, &inputs, tile, &format!("{} {tile}", s.name()));
        }
    }
}
