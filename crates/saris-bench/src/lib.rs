//! # saris-bench — the paper-artifact regeneration harness
//!
//! The `paper` binary regenerates the paper's evaluation, one
//! subcommand per table and figure:
//!
//! | `paper <sub>` | Artifact | Regenerates |
//! |---------------|----------|-------------|
//! | `table1`      | Table 1  | per-code characteristics |
//! | `listing1`    | Sec. 2.1 | point-loop instruction mixes (35% vs 58%) |
//! | `fig3a`       | Fig. 3a  | single-cluster SARIS speedups |
//! | `fig3b`       | Fig. 3b  | FPU utilization and IPC per variant |
//! | `fig4`        | Fig. 4   | cluster power and energy-efficiency gain |
//! | `fig5`        | Fig. 5   | Manticore-256s scaleout estimates |
//! | `table2`      | Table 2  | % of peak vs published approaches |
//! | `all`         | —        | all of the above from one evaluation pass |
//!
//! The `ablation-*` subcommands sweep the design choices DESIGN.md
//! calls out: unroll factor, coefficient strategy, reassociation depth,
//! TCDM bank count, and stream FIFO depth. `calibration` re-measures the
//! analytic tier's baked gallery seed. `verify_kernels` is the separate
//! static-verification CI gate. Timing lives in `benchmark/`, which
//! reads the same numbers through this library.
//!
//! The library part holds the shared evaluation pipeline so every
//! subcommand reports from identical runs. Everything is phrased as
//! [`WorkloadSpec`]s answered by one [`Session`]: the full gallery sweep
//! is a single [`Session::submit_all`] fan-out of tuned, verified specs
//! (one `Arc`-shared stencil per code), each `(code, variant, unroll)`
//! kernel compiles exactly once, and clusters are recycled between runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use saris_codegen::{Fidelity, Outcome, Session, Tune, Variant, Workload, WorkloadSpec};
use saris_core::{gallery, Extent, Grid, Space, Stencil};
use saris_energy::{EnergyModel, PowerReport};
use saris_scaleout::{estimate, ClusterMeasurement, MachineModel, ScaleoutEstimate};

/// The base input seed every paper workload derives its grids from
/// (input array `i` is seeded with `PAPER_SEED + i`).
pub const PAPER_SEED: u64 = 0x5a21_5000;

/// The verification tolerance the harness demands before reporting any
/// number (bit-exact with the reassociation pass disabled).
pub const PAPER_TOLERANCE: f64 = 1e-9;

/// The paper's tile for a stencil: 64^2 (2D) or 16^3 (3D), halo included.
pub fn paper_tile(stencil: &Stencil) -> Extent {
    match stencil.space() {
        Space::Dim2 => Extent::new_2d(64, 64),
        Space::Dim3 => Extent::cube(Space::Dim3, 16),
    }
}

/// The paper's scaleout grid: 16384^2 (2D) or 512^3 (3D), as in AN5D.
pub fn paper_grid(stencil: &Stencil) -> Extent {
    match stencil.space() {
        Space::Dim2 => Extent::new_2d(16384, 16384),
        Space::Dim3 => Extent::cube(Space::Dim3, 512),
    }
}

/// The deterministic input grids a [`PAPER_SEED`]-seeded workload
/// materializes for a stencil.
pub fn paper_inputs(stencil: &Stencil, tile: Extent) -> Vec<Grid> {
    stencil
        .input_arrays()
        .enumerate()
        .map(|(i, _)| Grid::pseudo_random(tile, PAPER_SEED + i as u64))
        .collect()
}

/// The paper workload for one `(code, variant)` pair: the paper tile,
/// seeded inputs, "unroll iff beneficial" tuning, and verification
/// against the golden reference.
pub fn paper_workload(stencil: &Arc<Stencil>, variant: Variant) -> WorkloadSpec {
    Workload::new(Arc::clone(stencil))
        .extent(paper_tile(stencil))
        .input_seed(PAPER_SEED)
        .variant(variant)
        .tune(Tune::Auto)
        .verify(PAPER_TOLERANCE)
        .freeze()
        .expect("paper workloads are valid")
}

/// The estimate-class sibling of [`paper_workload`]: the same code,
/// tile and inputs as an analytic-tier request — answered instantly by
/// the roofline backend with estimate-flagged telemetry, no tuning or
/// verification (the analytic tier measures nothing to tune on, and
/// its grids are the reference output by construction).
pub fn paper_estimate_workload(stencil: &Arc<Stencil>, variant: Variant) -> WorkloadSpec {
    Workload::new(Arc::clone(stencil))
        .extent(paper_tile(stencil))
        .input_seed(PAPER_SEED)
        .variant(variant)
        .fidelity(Fidelity::Analytic)
        .freeze()
        .expect("paper estimate workloads are valid")
}

/// A deterministic family of `n` stencils that are *not* in the gallery
/// (asymmetric 2D stars with k-dependent arm lengths), for exercising
/// the uncalibrated/adaptive paths: the baked calibration table has
/// never seen them, so the first cycle-tier run of each is what teaches
/// the analytic tier.
///
/// # Panics
///
/// Panics if a generated stencil fails validation (a bug in this
/// generator, not a runtime condition).
pub fn custom_stencil_family(n: usize) -> Vec<Stencil> {
    (0..n)
        .map(|k| {
            let mut b = saris_core::StencilBuilder::new(format!("adaptive{k}"), Space::Dim2);
            let a = b.input("a");
            b.output("out");
            // Arm lengths cycle with k, so each family member has a
            // structurally distinct tap set and halo.
            let rx = 1 + (k as i32 % 3);
            let ry = 1 + (k as i32 / 3 % 2);
            let mut offsets = vec![saris_core::Offset::CENTER];
            for d in 1..=rx {
                offsets.push(saris_core::Offset::d2(d, 0));
                offsets.push(saris_core::Offset::d2(-d, 0));
            }
            for d in 1..=ry {
                offsets.push(saris_core::Offset::d2(0, d));
                offsets.push(saris_core::Offset::d2(0, -d));
            }
            let w = b.coeff("w", 1.0 / offsets.len() as f64);
            let mut acc = None;
            for offset in offsets {
                let tap = b.tap(a, offset);
                let term = b.mul(w, tap);
                acc = Some(match acc {
                    None => term,
                    Some(prev) => b.add(prev, term),
                });
            }
            b.store(acc.expect("family stencils have taps"));
            b.finish().expect("family stencils are valid")
        })
        .collect()
}

/// Both tuned variants of one code, verified against the reference.
#[derive(Debug)]
pub struct CodeResult {
    /// The stencil (shared with the specs that produced the outcomes).
    pub stencil: Arc<Stencil>,
    /// Tile extent used.
    pub tile: Extent,
    /// Tuned baseline outcome.
    pub base: Outcome,
    /// Tuned SARIS outcome.
    pub saris: Outcome,
}

impl CodeResult {
    /// SARIS speedup over the baseline.
    pub fn speedup(&self) -> f64 {
        self.base.expect_report().cycles as f64 / self.saris.expect_report().cycles as f64
    }

    /// The code's name.
    pub fn name(&self) -> &str {
        self.stencil.name()
    }

    /// Verification error of the baseline vs the golden reference.
    pub fn base_error(&self) -> f64 {
        self.base.verify_error.unwrap_or(0.0)
    }

    /// Verification error of the SARIS kernel vs the golden reference.
    pub fn saris_error(&self) -> f64 {
        self.saris.verify_error.unwrap_or(0.0)
    }
}

/// Tunes and runs both variants of one gallery code on the paper tile,
/// through the given session (kernels cache, clusters pool). Every
/// outcome is verified inside the submission — the harness never reports
/// numbers from broken kernels.
///
/// # Panics
///
/// Panics if compilation, simulation or verification fails.
pub fn evaluate_code_in(session: &Session, stencil: &Stencil) -> CodeResult {
    let stencil = Arc::new(stencil.clone());
    let submit = |variant| {
        session
            .submit(&paper_workload(&stencil, variant))
            .unwrap_or_else(|e| panic!("{} {variant}: {e}", stencil.name()))
    };
    let base = submit(Variant::Base);
    let saris = submit(Variant::Saris);
    CodeResult {
        tile: paper_tile(&stencil),
        stencil,
        base,
        saris,
    }
}

/// Evaluates all ten gallery codes in Table 1 order through one session:
/// one tuned, verified [`WorkloadSpec`] per `(code, variant)` — sharing
/// each stencil IR behind one `Arc` — fanned out across worker threads
/// with [`Session::submit_all`]. Tuning applies the paper's "unroll iff
/// beneficial" rule per spec.
///
/// # Panics
///
/// Panics if any code fails to compile, run, or verify.
pub fn evaluate_all_in(session: &Session) -> Vec<CodeResult> {
    let codes: Vec<Arc<Stencil>> = gallery::all().into_iter().map(Arc::new).collect();
    let specs: Vec<WorkloadSpec> = codes
        .iter()
        .flat_map(|s| {
            [
                paper_workload(s, Variant::Base),
                paper_workload(s, Variant::Saris),
            ]
        })
        .collect();
    let mut outcomes = session.submit_all(&specs).into_iter();
    codes
        .into_iter()
        .map(|stencil| {
            let mut next = |variant: Variant| {
                outcomes
                    .next()
                    .expect("one outcome per spec")
                    .unwrap_or_else(|e| panic!("{} {variant}: {e}", stencil.name()))
            };
            let base = next(Variant::Base);
            let saris = next(Variant::Saris);
            CodeResult {
                tile: paper_tile(&stencil),
                stencil,
                base,
                saris,
            }
        })
        .collect()
}

/// Geometric mean.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Power estimates for one code result.
pub fn power_of(result: &CodeResult) -> (PowerReport, PowerReport) {
    let model = EnergyModel::gf12lp();
    (
        model.estimate(result.base.expect_report()),
        model.estimate(result.saris.expect_report()),
    )
}

/// The [`ClusterMeasurement`] one outcome's report feeds into the
/// scaleout estimate — works identically for measured (cycle-tier) and
/// estimate-flagged (analytic-tier) outcomes, which is exactly how the
/// roofline backend slots into the Figure 5 path.
pub fn cluster_measurement(run: &Outcome, dma_utilization: f64) -> ClusterMeasurement {
    let report = run.expect_report();
    ClusterMeasurement {
        compute_cycles_per_tile: report.cycles as f64,
        fpu_ops_per_tile: report.cores.iter().map(|c| c.fpu.arith as f64).sum(),
        flops_per_tile: report.flops() as f64,
        dma_utilization,
        core_imbalance: report.runtime_imbalance(),
    }
}

/// The scaleout estimate for one outcome on the paper grid, given a
/// probe-measured DMA utilization.
pub fn scaleout_from(result: &CodeResult, run: &Outcome, dma_util: f64) -> ScaleoutEstimate {
    estimate(
        &MachineModel::manticore_256s(),
        &result.stencil,
        result.tile,
        paper_grid(&result.stencil),
        &cluster_measurement(run, dma_util),
    )
}

/// Scaleout estimates (base, saris) for one code result, using the
/// paper's grids and the DMA utilization measured by a probe workload on
/// a pooled cluster of the given session.
pub fn scaleout_of_in(
    session: &Session,
    result: &CodeResult,
) -> (ScaleoutEstimate, ScaleoutEstimate) {
    let probe = Workload::dma_probe(result.tile)
        .freeze()
        .expect("probe workloads are valid");
    let dma_util = session
        .submit(&probe)
        .expect("dma measurement")
        .dma_utilization
        .expect("probes measure utilization");
    (
        scaleout_from(result, &result.base, dma_util),
        scaleout_from(result, &result.saris, dma_util),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn paper_tiles_match_section_2_3() {
        let s2 = gallery::jacobi_2d();
        let s3 = gallery::j3d27pt();
        assert_eq!(paper_tile(&s2), Extent::new_2d(64, 64));
        assert_eq!(paper_tile(&s3), Extent::cube(Space::Dim3, 16));
        assert_eq!(paper_grid(&s2), Extent::new_2d(16384, 16384));
        assert_eq!(paper_grid(&s3), Extent::cube(Space::Dim3, 512));
    }

    #[test]
    fn paper_workloads_materialize_the_published_inputs() {
        let s = gallery::jacobi_2d();
        let tile = paper_tile(&s);
        // The seeded spec and the documented grids agree, so a sharded
        // coordinator can ship the tiny seeded spec instead of grid data.
        assert_eq!(
            paper_inputs(&s, tile),
            vec![Grid::pseudo_random(tile, PAPER_SEED)]
        );
    }

    #[test]
    fn evaluate_one_small_code_end_to_end() {
        // Full pipeline smoke test on the cheapest code, one session.
        let session = Session::new();
        let r = evaluate_code_in(&session, &gallery::jacobi_2d());
        assert!(r.speedup() > 1.3, "speedup {}", r.speedup());
        assert!(r.base_error() < PAPER_TOLERANCE && r.saris_error() < PAPER_TOLERANCE);
        assert!(r.base.tuning.is_some() && r.saris.tuning.is_some());
        let (pb, ps) = power_of(&r);
        assert!(ps.total_watts() > pb.total_watts());
        let (sb, ss) = scaleout_of_in(&session, &r);
        assert!(ss.fpu_util >= sb.fpu_util * 0.8);
        // Six candidate kernels (2 variants x 3 unrolls), each compiled
        // exactly once; clusters recycled after the first run.
        let stats = session.stats();
        assert!(stats.compiles <= 6, "{stats:?}");
        assert!(stats.clusters_reused >= stats.runs - 1, "{stats:?}");
    }
}
