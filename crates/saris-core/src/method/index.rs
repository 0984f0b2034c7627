//! Static index-array construction (SARIS step 4, second half).
//!
//! SARIS "encodes the offsets of grid elements accessed in the loop body
//! of stencil codes in index arrays; it then reuses these indices on each
//! point update, using the point's coordinates as an indirection base."
//!
//! Because both indirect streams are launched with the *same* base
//! register (Listing 1d: `SRIR SR0|SR1, t0`), indices of both streams are
//! expressed relative to one common origin, shifted so every index is
//! non-negative (the paper keeps "all indices positive by defining offsets
//! around the iteration origin").

use saris_isa::IndexWidth;

use crate::error::PlanError;
use crate::layout::ArenaLayout;
use crate::method::schedule::PointSchedule;
use crate::stencil::Stencil;

/// The index array of one indirect stream for one launch window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrIndexArray {
    /// Non-negative element indices relative to the common launch base,
    /// in pop order; length = pops-per-point x unroll.
    pub rel_indices: Vec<u64>,
}

impl SrIndexArray {
    /// Number of indices per launch.
    pub fn len(&self) -> usize {
        self.rel_indices.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.rel_indices.is_empty()
    }
}

/// The index arrays of a launch window, plus the shared base adjustment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexArrays {
    /// SR0 indices.
    pub sr0: SrIndexArray,
    /// SR1 indices (absent in coeff-stream mode, where SR1 is affine).
    pub sr1: Option<SrIndexArray>,
    /// Element adjustment added to the update point's anchor element to
    /// form the launch base: `base = &anchor[point] + base_adjust_elems`.
    /// Always `<= 0` (the most negative tap offset).
    pub base_adjust_elems: i64,
}

/// Builds the index arrays for `stencil` under `schedule`, covering
/// `unroll` consecutive interleaved points per launch window
/// (`x_step_elems` elements apart along x).
///
/// The window pop order matches the *slot-interleaved* instruction
/// schedule the code generators emit: the unrolled copies of one
/// scheduled op issue back to back, so indices are grouped per op and
/// repeated across unroll slots (`for op: for slot: for pop-of-op`), not
/// per whole point.
///
/// # Errors
///
/// Returns [`PlanError::IndexOverflow`] if any relative index exceeds
/// `width`'s maximum.
pub fn build_index_arrays(
    stencil: &Stencil,
    layout: &ArenaLayout,
    schedule: &PointSchedule,
    unroll: usize,
    x_step_elems: usize,
    width: IndexWidth,
) -> Result<IndexArrays, PlanError> {
    assert!(unroll >= 1, "unroll must be at least 1");
    // Raw (signed) offsets per SR in slot-interleaved pop order.
    let raw = |pops: &[(usize, usize)]| -> Vec<i64> {
        let mut offs = Vec::with_capacity(pops.len() * unroll);
        let mut i = 0;
        while i < pops.len() {
            let op = pops[i].0;
            let mut j = i;
            while j < pops.len() && pops[j].0 == op {
                j += 1;
            }
            for u in 0..unroll {
                for &(_, tap_idx) in &pops[i..j] {
                    let tap = &stencil.taps()[tap_idx];
                    offs.push(layout.tap_rel_offset(tap) + (u * x_step_elems) as i64);
                }
            }
            i = j;
        }
        offs
    };
    let sr0_raw = raw(&schedule.sr_tap_pops[0]);
    let sr1_raw = raw(&schedule.sr_tap_pops[1]);
    let min_off = sr0_raw
        .iter()
        .chain(sr1_raw.iter())
        .copied()
        .min()
        .unwrap_or(0)
        .min(0);
    let rebase = |offs: Vec<i64>| -> Result<SrIndexArray, PlanError> {
        let mut rel = Vec::with_capacity(offs.len());
        for o in offs {
            let idx = (o - min_off) as u64;
            if idx > width.max_value() {
                return Err(PlanError::IndexOverflow {
                    name: stencil.name().to_string(),
                    index: idx,
                    max: width.max_value(),
                });
            }
            rel.push(idx);
        }
        Ok(SrIndexArray { rel_indices: rel })
    };
    let sr0 = rebase(sr0_raw)?;
    let sr1 = if sr1_raw.is_empty() {
        None
    } else {
        Some(rebase(sr1_raw)?)
    };
    Ok(IndexArrays {
        sr0,
        sr1,
        base_adjust_elems: min_off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;
    use crate::geom::{Extent, Point};
    use crate::method::schedule::PointSchedule;

    fn setup(name: &str, tile: usize) -> (crate::stencil::Stencil, ArenaLayout, PointSchedule) {
        let s = gallery::by_name(name).unwrap();
        let layout = ArenaLayout::for_stencil(&s, Extent::cube(s.space(), tile));
        let sched =
            PointSchedule::derive(&s, 20, crate::method::schedule::CoeffStrategy::StreamSr1);
        (s, layout, sched)
    }

    #[test]
    fn indices_are_nonnegative_and_resolve_correctly() {
        let (s, layout, sched) = setup("jacobi_2d", 64);
        let arrays = build_index_arrays(&s, &layout, &sched, 1, 4, IndexWidth::U16).unwrap();
        // Check that base + index reproduces the tap element for a sample
        // point (at unroll 1 the interleaved order is plain pop order).
        let p = Point::new_2d(10, 20);
        let base = layout.anchor_elem(p) as i64 + arrays.base_adjust_elems;
        for (pop_pos, &(_, tap_idx)) in sched.sr_tap_pops[0].iter().enumerate() {
            let tap = &s.taps()[tap_idx];
            let elem = base + arrays.sr0.rel_indices[pop_pos] as i64;
            let expect = layout.elem_of(tap.array, p.offset(tap.offset)) as i64;
            assert_eq!(elem, expect, "pop {pop_pos}");
        }
        let sr1 = arrays.sr1.as_ref().unwrap();
        for (pop_pos, &(_, tap_idx)) in sched.sr_tap_pops[1].iter().enumerate() {
            let tap = &s.taps()[tap_idx];
            let elem = base + sr1.rel_indices[pop_pos] as i64;
            let expect = layout.elem_of(tap.array, p.offset(tap.offset)) as i64;
            assert_eq!(elem, expect, "sr1 pop {pop_pos}");
        }
    }

    #[test]
    fn unroll_extends_indices_by_x_step() {
        // jacobi_2d pops at most once per op per SR, so the interleaved
        // order is: for each pop position, the 4 unroll copies.
        let (s, layout, sched) = setup("jacobi_2d", 64);
        let u1 = build_index_arrays(&s, &layout, &sched, 1, 4, IndexWidth::U16).unwrap();
        let u4 = build_index_arrays(&s, &layout, &sched, 4, 4, IndexWidth::U16).unwrap();
        assert_eq!(u4.sr0.len(), 4 * u1.sr0.len());
        let per = u1.sr0.len();
        for i in 0..per {
            for step in 0..4 {
                assert_eq!(
                    u4.sr0.rel_indices[i * 4 + step],
                    u1.sr0.rel_indices[i] + (step * 4) as u64,
                    "pop {i} slot {step}"
                );
            }
        }
        // Base adjustment is independent of unroll (windows grow upward).
        assert_eq!(u1.base_adjust_elems, u4.base_adjust_elems);
    }

    #[test]
    fn base_adjust_is_most_negative_offset() {
        let (s, layout, sched) = setup("ac_iso_cd", 16);
        let arrays = build_index_arrays(&s, &layout, &sched, 1, 4, IndexWidth::U16).unwrap();
        // Most negative tap offset of a radius-4 3D star: -4 planes.
        let expect = layout
            .extent()
            .linear_offset(crate::geom::Offset::d3(0, 0, -4));
        assert_eq!(arrays.base_adjust_elems, expect);
        assert!(arrays.sr0.rel_indices.iter().all(|&i| i <= u16::MAX as u64));
    }

    #[test]
    fn coeff_stream_mode_has_no_sr1_indices() {
        let s = gallery::j3d27pt();
        let layout = ArenaLayout::for_stencil(&s, Extent::cube(s.space(), 16));
        let sched =
            PointSchedule::derive(&s, 20, crate::method::schedule::CoeffStrategy::StreamSr1);
        let arrays = build_index_arrays(&s, &layout, &sched, 2, 4, IndexWidth::U16).unwrap();
        assert!(arrays.sr1.is_none());
        assert_eq!(arrays.sr0.len(), 2 * 27);
    }

    #[test]
    fn u8_width_overflows_for_3d() {
        let (s, layout, sched) = setup("star3d2r", 16);
        let err = build_index_arrays(&s, &layout, &sched, 1, 4, IndexWidth::U8).unwrap_err();
        assert!(matches!(err, PlanError::IndexOverflow { .. }));
    }

    #[test]
    fn pack_round_trips_u16() {
        let arr = SrIndexArray {
            rel_indices: vec![0, 513, 65535],
        };
        let bytes = IndexWidth::U16.pack(&arr.rel_indices);
        assert_eq!(bytes.len(), 6);
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), 513);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 65535);
    }

    #[test]
    fn multi_array_indices_reach_second_array() {
        let (s, layout, sched) = setup("ac_iso_cd", 16);
        let arrays = build_index_arrays(&s, &layout, &sched, 1, 4, IndexWidth::U16).unwrap();
        // The um tap (one full array above) must appear in some stream.
        let tile_len = layout.extent().len() as i64;
        let max_idx = arrays
            .sr0
            .rel_indices
            .iter()
            .chain(arrays.sr1.as_ref().unwrap().rel_indices.iter())
            .copied()
            .max()
            .unwrap();
        assert!(
            (max_idx as i64) >= tile_len,
            "expected an index reaching into um (>= {tile_len}), got {max_idx}"
        );
    }
}
