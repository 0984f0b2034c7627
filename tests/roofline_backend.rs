//! Roofline-vs-simulation consistency across the full kernel gallery:
//! the analytic tier's estimated cycle counts must track the cycle-level
//! simulation within documented factors, preserve every kernel's
//! memory-/compute-bound classification through the Figure 5 scaleout
//! path, and always flag its numbers as estimates.

use std::sync::Arc;

use saris::prelude::*;
use saris_bench::{
    custom_stencil_family, paper_estimate_workload, paper_tile, paper_workload, scaleout_from,
    CodeResult, PAPER_SEED,
};

/// Allowed estimate/simulation cycle ratio at the paper tiles, where the
/// analytic tier interpolates its calibrated single-cluster measurements
/// (the paper's own methodology). Anything beyond rounding here means
/// the simulator moved and the calibration table in
/// `saris-codegen/src/calibration/gallery.json` needs regenerating
/// (`paper calibration --out PATH`).
const PAPER_TILE_FACTOR: f64 = 1.05;

/// Allowed ratio away from the paper tiles, where the calibrated
/// per-point rates are scaled by the interior size and halo/startup
/// amortization effects the model ignores show up.
const OFF_TILE_FACTOR: f64 = 2.0;

/// Allowed ratio for stencils with no calibration entry at all, where
/// the estimate is the proven cycle lower bound of the spec's kernel
/// (the least over the feasible candidates of a tuned spec). Measured
/// worst over the custom-stencil rows below: 1.21.
const FALLBACK_FACTOR: f64 = 1.3;

fn within(a: f64, b: f64, factor: f64) -> bool {
    a > 0.0 && b > 0.0 && a / b <= factor && b / a <= factor
}

/// One (estimate, simulation) outcome pair for a spec pair.
fn both_tiers(session: &Session, stencil: &Arc<Stencil>, variant: Variant) -> (Outcome, Outcome) {
    let est = session
        .submit(&paper_estimate_workload(stencil, variant))
        .expect("estimate runs");
    let sim = session
        .submit(&paper_workload(stencil, variant))
        .expect("simulation runs");
    (est, sim)
}

#[test]
fn gallery_estimates_track_simulation_at_the_paper_tiles() {
    let session = Session::new();
    for stencil in gallery::all() {
        let stencil = Arc::new(stencil);
        for variant in [Variant::Base, Variant::Saris] {
            let (est, sim) = both_tiers(&session, &stencil, variant);
            assert!(est.telemetry.estimated, "{} is flagged", stencil.name());
            assert!(!sim.telemetry.estimated);
            assert_eq!(est.backend, "roofline");
            assert!(est.grids.is_empty(), "estimates carry no grids");
            let (e, s) = (
                est.expect_report().cycles as f64,
                sim.expect_report().cycles as f64,
            );
            assert!(
                within(e, s, PAPER_TILE_FACTOR),
                "{} {variant}: estimated {e} vs simulated {s} — beyond the \
                 calibration factor {PAPER_TILE_FACTOR}; regenerate the table \
                 with `paper calibration --out PATH`",
                stencil.name()
            );
            // The estimated FPU utilization lands where the measurement
            // does, too.
            let (eu, su) = (
                est.expect_report().fpu_util(),
                sim.expect_report().fpu_util(),
            );
            assert!(
                within(eu, su, PAPER_TILE_FACTOR),
                "{} {variant}: estimated util {eu:.3} vs measured {su:.3}",
                stencil.name()
            );
        }
    }
}

#[test]
fn gallery_estimates_track_simulation_away_from_the_paper_tiles() {
    let session = Session::new();
    for stencil in gallery::all() {
        // A tile the calibration was *not* measured at: the per-point
        // rates must still land within the documented off-tile factor.
        let tile = match stencil.space() {
            Space::Dim2 => Extent::new_2d(48, 48),
            Space::Dim3 => Extent::cube(Space::Dim3, 12),
        };
        let stencil = Arc::new(stencil);
        let spec_at = |fidelity: Option<Fidelity>| {
            let wl = Workload::new(Arc::clone(&stencil))
                .extent(tile)
                .input_seed(PAPER_SEED)
                .variant(Variant::Saris);
            match fidelity {
                Some(f) => wl.fidelity(f),
                None => wl.tune(Tune::Auto),
            }
            .freeze()
            .expect("valid spec")
        };
        let est = session
            .submit(&spec_at(Some(Fidelity::Analytic)))
            .expect("estimate runs");
        let sim = session.submit(&spec_at(None)).expect("simulation runs");
        let (e, s) = (
            est.expect_report().cycles as f64,
            sim.expect_report().cycles as f64,
        );
        assert!(
            within(e, s, OFF_TILE_FACTOR),
            "{} at {tile}: estimated {e} vs simulated {s} beyond factor {OFF_TILE_FACTOR}",
            stencil.name()
        );
    }
}

#[test]
fn uncalibrated_stencils_estimate_within_the_fallback_factor() {
    // Stencils the calibration table has never seen, at the paper tile
    // and off it, fixed and tuned: 6 x 2 x 2 x 2 = 48 rows. Estimates
    // and their bounds come from one session, simulations from another,
    // whose measurements would otherwise calibrate the first.
    let estimates = Session::new();
    let simulations = Session::new();
    for stencil in custom_stencil_family(6) {
        let stencil = Arc::new(stencil);
        for variant in [Variant::Base, Variant::Saris] {
            for extent in [Extent::new_2d(64, 64), Extent::new_2d(24, 24)] {
                for tune in [Tune::Fixed, Tune::Auto] {
                    let row = format!("{} {variant} {extent} {tune:?}", stencil.name());
                    let spec = |fidelity: Fidelity| {
                        Workload::new(Arc::clone(&stencil))
                            .extent(extent)
                            .input_seed(PAPER_SEED)
                            .variant(variant)
                            .tune(tune.clone())
                            .fidelity(fidelity)
                            .freeze()
                            .expect("valid spec")
                    };
                    let est = estimates
                        .submit(&spec(Fidelity::Analytic))
                        .expect("estimate runs");
                    assert!(est.telemetry.estimated, "{row}");
                    // The bound is the one the estimate proved: reading it
                    // again compiles nothing.
                    let compiles = estimates.stats().compiles;
                    let options = RunOptions::new(variant);
                    let bound = |unroll: usize| {
                        let options = options.clone().with_unroll(unroll);
                        estimates.static_bound(&stencil, extent, &options)
                    };
                    let proven = match tune.candidates() {
                        None => bound(options.unroll).expect("the kernel verifies"),
                        Some(candidates) => candidates
                            .iter()
                            .filter_map(|&unroll| bound(unroll).ok())
                            .min_by_key(|b| b.cycles)
                            .expect("a feasible candidate"),
                    };
                    assert_eq!(estimates.stats().compiles, compiles, "{row}");
                    let e = est.expect_report().cycles;
                    assert_eq!(e, proven.cycles, "{row}");
                    let sim = simulations
                        .submit(&spec(Fidelity::Cycles))
                        .expect("simulation runs");
                    let s = sim.expect_report().cycles as f64;
                    assert!(
                        within(e as f64, s, FALLBACK_FACTOR),
                        "{row}: estimated {e} vs simulated {s} beyond factor {FALLBACK_FACTOR}"
                    );
                }
            }
        }
    }
}

/// An uncalibrated estimate is the bound of a kernel that must compile
/// and verify, so a spec the cycle tier refuses is refused here too: a
/// 4-core cluster under the 8-core default interleave plan. With a plan
/// that covers the four cores, the estimate is that kernel's bound.
#[test]
fn uncalibrated_estimates_refuse_what_the_cycle_tier_refuses() {
    let session = Session::new();
    let mut options = RunOptions::new(Variant::Saris);
    options.cluster.n_cores = 4;
    let spec = |options: &RunOptions, fidelity: Fidelity| {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(32, 32))
            .input_seed(PAPER_SEED)
            .options(options.clone())
            .fidelity(fidelity)
            .freeze()
            .expect("valid spec")
    };
    for fidelity in [Fidelity::Analytic, Fidelity::Cycles] {
        let err = session.submit(&spec(&options, fidelity)).unwrap_err();
        assert!(
            matches!(err, CodegenError::InvalidWorkload { .. }),
            "{fidelity}: {err}"
        );
    }
    options.interleave = InterleavePlan::new(2, 2);
    let est = session
        .submit(&spec(&options, Fidelity::Analytic))
        .expect("estimate runs");
    let bound = session
        .static_bound(&gallery::jacobi_2d(), Extent::new_2d(32, 32), &options)
        .expect("the 2x2 kernel verifies");
    assert_eq!(est.expect_report().cycles, bound.cycles);
    assert_eq!(est.expect_report().cores.len(), 4);
}

/// The acceptance property of the analytic tier: feeding its estimate
/// through the same scaleout machinery as the simulator's measurement
/// classifies every gallery kernel into the same memory-/compute-bound
/// regime, in both variants.
#[test]
fn bound_classification_is_preserved_on_every_gallery_kernel() {
    let session = Session::new();
    for stencil in gallery::all() {
        let stencil = Arc::new(stencil);
        let tile = paper_tile(&stencil);
        let dma_util = session
            .submit(&Workload::dma_probe(tile).freeze().expect("valid probe"))
            .expect("probe runs")
            .dma_utilization
            .expect("probes measure");
        for variant in [Variant::Base, Variant::Saris] {
            let (est, sim) = both_tiers(&session, &stencil, variant);
            let result = CodeResult {
                tile,
                stencil: Arc::clone(&stencil),
                base: sim.clone(),
                saris: sim.clone(),
            };
            let from_sim = scaleout_from(&result, &sim, dma_util);
            let from_est = scaleout_from(&result, &est, dma_util);
            assert_eq!(
                from_sim.memory_bound,
                from_est.memory_bound,
                "{} {variant}: simulation says {}, estimate says {} (CMTR {:.2} vs {:.2})",
                stencil.name(),
                if from_sim.memory_bound {
                    "memory"
                } else {
                    "compute"
                },
                if from_est.memory_bound {
                    "memory"
                } else {
                    "compute"
                },
                from_sim.cmtr,
                from_est.cmtr,
            );
        }
    }
}
