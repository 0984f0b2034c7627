//! Randomized-property tests over the full pipeline, driven by a local
//! seeded generator (no external property-testing dependency): randomly
//! generated stencils and tiles must simulate to exactly the reference
//! result, and the SARIS planner's invariants must hold for arbitrary
//! shapes.

use saris::core::layout::ArenaLayout;
use saris::core::method::PointSchedule;
use saris::prelude::*;

/// The seeded generator driving the case generation.
type Gen = saris::core::rng::SplitMix64;

/// The draws the cases are built from.
trait Draws {
    /// A draw from `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64;
    fn bool(&mut self) -> bool;
}

impl Draws for Gen {
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A random but valid 2D stencil — a weighted sum over `n` distinct taps
/// within `radius`, with optional symmetric pair adds.
fn arb_stencil(g: &mut Gen) -> Stencil {
    let n_taps = g.range(2, 9) as usize;
    let radius = g.range(1, 2) as i32;
    let paired = g.bool();
    let cseed = g.range(0, 999);
    let mut b = StencilBuilder::new("prop", Space::Dim2);
    let inp = b.input("inp");
    b.output("out");
    // Distinct offsets: center plus a deterministic spiral.
    let mut offsets = vec![Offset::CENTER];
    'outer: for r in 1..=radius {
        for (dx, dy) in [(r, 0), (-r, 0), (0, r), (0, -r), (r, r), (-r, -r)] {
            if offsets.len() >= n_taps {
                break 'outer;
            }
            offsets.push(Offset::d2(dx, dy));
        }
    }
    let cv = |i: usize| 0.03 + ((cseed + i as u64 * 37) % 17) as f64 / 100.0;
    if paired && offsets.len() >= 3 {
        // center * c0 + sum of paired (a+b) * ci
        let c0 = b.coeff("c0", cv(0));
        let center = b.tap(inp, offsets[0]);
        let mut acc = b.mul(c0, center);
        let mut i = 1;
        while i + 1 < offsets.len() {
            let t1 = b.tap(inp, offsets[i]);
            let t2 = b.tap(inp, offsets[i + 1]);
            let pair = b.add(t1, t2);
            let c = b.coeff(format!("c{i}"), cv(i));
            acc = b.fma(c, pair, acc);
            i += 2;
        }
        if i < offsets.len() {
            let t = b.tap(inp, offsets[i]);
            let c = b.coeff(format!("c{i}"), cv(i));
            acc = b.fma(c, t, acc);
        }
        b.store(acc);
    } else {
        let c0 = b.coeff("c0", cv(0));
        let t0 = b.tap(inp, offsets[0]);
        let mut acc = b.mul(c0, t0);
        for (i, &o) in offsets.iter().enumerate().skip(1) {
            let t = b.tap(inp, o);
            let c = b.coeff(format!("c{i}"), cv(i));
            acc = b.fma(c, t, acc);
        }
        b.store(acc);
    }
    b.finish().expect("generated stencil is valid")
}

/// Any generated stencil, simulated in either variant without
/// reassociation, reproduces the reference executor bit-for-bit
/// (demanded by `verify(0.0)` inside the submission).
#[test]
fn random_stencils_simulate_exactly() {
    let mut g = Gen::new(0x5a21_0001);
    let session = Session::new();
    for case in 0..12 {
        let stencil = arb_stencil(&mut g);
        let seed = g.range(0, 999);
        let variant = if g.bool() {
            Variant::Saris
        } else {
            Variant::Base
        };
        let unroll = [1usize, 2, 4][g.range(0, 2) as usize];
        let spec = Workload::new(stencil)
            .extent(Extent::new_2d(16, 16))
            .input_seed(seed)
            .options(
                RunOptions::new(variant)
                    .with_unroll(unroll)
                    .with_reassociate(0),
            )
            .verify(0.0)
            .freeze()
            .unwrap();
        match session.submit(&spec) {
            Ok(run) => {
                assert_eq!(
                    run.verify_error,
                    Some(0.0),
                    "case {case}: {variant} u{unroll} diverged"
                );
            }
            // Register pressure may legitimately reject wide unrolls.
            Err(saris::codegen::CodegenError::RegisterPressure { .. }) => {}
            Err(e) => panic!("case {case}: {e}"),
        }
    }
}

/// Planner invariants for arbitrary stencils: indices non-negative and
/// within width, every tap popped exactly once per point, at most one
/// store per point.
#[test]
fn planner_invariants() {
    let mut g = Gen::new(0x5a21_0002);
    for case in 0..16 {
        let stencil = arb_stencil(&mut g);
        let unroll = g.range(1, 4) as usize;
        let tile = Extent::new_2d(24, 24);
        let layout = ArenaLayout::for_stencil(&stencil, tile);
        let plan = SarisPlan::derive(&stencil, &layout, SarisOptions::default(), unroll, 4)
            .expect("plannable");
        let width_max = plan.index_width.max_value();
        for &i in &plan.indices.sr0.rel_indices {
            assert!(i <= width_max, "case {case}");
        }
        if let Some(sr1) = &plan.indices.sr1 {
            for &i in &sr1.rel_indices {
                assert!(i <= width_max, "case {case}");
            }
        }
        assert!(plan.indices.base_adjust_elems <= 0, "case {case}");
        // Tap pops cover every tap exactly once per point.
        let mut seen = vec![0usize; stencil.taps().len()];
        for k in 0..2 {
            for t in plan.schedule.tap_seq(k) {
                seen[t] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "case {case}");
        // Exactly one store per point, and it is last.
        use saris::core::method::SlotDst;
        let stores = plan
            .schedule
            .ops
            .iter()
            .filter(|op| op.dst == SlotDst::Store)
            .count();
        assert_eq!(stores, 1, "case {case}");
    }
}

/// Reassociation preserves values within FP tolerance for arbitrary
/// stencils and accumulator counts.
#[test]
fn reassociation_tolerance() {
    let mut g = Gen::new(0x5a21_0003);
    for case in 0..16 {
        let stencil = arb_stencil(&mut g);
        let acc = g.range(2, 4) as usize;
        let seed = g.range(0, 99);
        let t = stencil.reassociated(acc);
        let tile = Extent::new_2d(12, 12);
        let input = Grid::pseudo_random(tile, seed);
        let a = saris::core::reference::apply_to_new(&stencil, &[&input], tile);
        let b = saris::core::reference::apply_to_new(&t, &[&input], tile);
        assert!(a.max_abs_diff(&b) < 1e-12, "case {case} (acc {acc})");
    }
}

/// The interleave partition covers every interior point exactly once for
/// arbitrary extents.
#[test]
fn interleave_partitions_any_extent() {
    let mut g = Gen::new(0x5a21_0004);
    let plan = InterleavePlan::snitch();
    for _ in 0..64 {
        let nx = g.range(1, 69) as usize;
        let ny = g.range(1, 69) as usize;
        let e = Extent::new_2d(nx, ny);
        let total: usize = (0..plan.cores()).map(|c| plan.points_for_core(e, c)).sum();
        assert_eq!(total, e.len(), "{nx}x{ny}");
    }
}

/// Schedules never double-pop one stream within a single operation for
/// paired-friendly stencils (the generator above).
#[test]
fn no_same_stream_double_pops() {
    let mut g = Gen::new(0x5a21_0005);
    for case in 0..24 {
        let stencil = arb_stencil(&mut g);
        let sched = PointSchedule::derive(&stencil, 24, saris::core::method::CoeffStrategy::Hybrid);
        assert!(!sched.has_same_sr_double_pop(), "case {case}");
    }
}
