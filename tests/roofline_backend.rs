//! Roofline-vs-simulation consistency across the full kernel gallery:
//! the analytic tier's estimated cycle counts must track the cycle-level
//! simulation within documented factors, preserve every kernel's
//! memory-/compute-bound classification through the Figure 5 scaleout
//! path, and always flag its numbers as estimates.

use std::sync::Arc;

use saris::prelude::*;
use saris_bench::{
    paper_estimate_workload, paper_tile, paper_workload, scaleout_from, CodeResult, PAPER_SEED,
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
/// the estimate falls back to first principles (roofline at the
/// measured per-variant efficiency geomeans).
const FALLBACK_FACTOR: f64 = 4.0;

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
    // A stencil the calibration table has never seen: an asymmetric
    // 6-point 2D code built from scratch.
    let stencil = {
        let mut b = StencilBuilder::new("custom6", Space::Dim2);
        let a = b.input("a");
        b.output("out");
        let taps = [
            Offset::CENTER,
            Offset::d2(1, 0),
            Offset::d2(-1, 0),
            Offset::d2(0, 1),
            Offset::d2(0, -1),
            Offset::d2(1, 1),
        ];
        let c = b.coeff("w", 0.125);
        let mut acc = None;
        for t in taps {
            let tap = b.tap(a, t);
            let term = b.mul(c, tap);
            acc = Some(match acc {
                None => term,
                Some(prev) => b.add(prev, term),
            });
        }
        b.store(acc.unwrap());
        b.finish().expect("valid stencil")
    };
    let session = Session::new();
    let spec = |fidelity: Option<Fidelity>| {
        let wl = Workload::new(stencil.clone())
            .extent(Extent::new_2d(64, 64))
            .input_seed(PAPER_SEED)
            .variant(Variant::Saris);
        match fidelity {
            Some(f) => wl.fidelity(f),
            None => wl,
        }
        .freeze()
        .expect("valid spec")
    };
    let est = session
        .submit(&spec(Some(Fidelity::Analytic)))
        .expect("estimate runs");
    let sim = session.submit(&spec(None)).expect("simulation runs");
    let (e, s) = (
        est.expect_report().cycles as f64,
        sim.expect_report().cycles as f64,
    );
    assert!(
        e / s <= FALLBACK_FACTOR && s / e <= FALLBACK_FACTOR,
        "custom stencil: estimated {e} vs simulated {s} beyond factor {FALLBACK_FACTOR}"
    );
    assert!(est.telemetry.estimated);
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
