//! Quickstart: the three fidelity tiers through the serving layer —
//! an instant analytic estimate, cycle-accurate measurements of both
//! variants, a golden-reference verification, and the adaptive
//! `Fidelity::Auto` learn-then-answer loop, all answered by one
//! [`Server`].
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use saris::prelude::*;

fn main() -> Result<(), saris::serve::ServeError> {
    // The paper's simplest code: the PolyBench 5-point Jacobi.
    let stencil = gallery::jacobi_2d();
    println!("stencil: {stencil}");

    // One serving stack for the whole program: kernels cache, clusters
    // are recycled, repeated specs answer from the response cache.
    let server = Server::new()?;
    let workload = |variant| {
        Workload::new(stencil.clone())
            .extent(Extent::new_2d(64, 64))
            .input_seed(42)
            .variant(variant)
    };

    // --- Tier 1: analytic. Is SARIS worth simulating here? The answer
    // comes from calibrated single-cluster measurements (or, for a
    // stencil never measured, its kernel's proven cycle bound) and is
    // flagged as an estimate.
    let estimate = server.submit(
        &workload(Variant::Saris)
            .fidelity(Fidelity::Analytic)
            .freeze()
            .expect("valid workload"),
    )?;
    println!(
        "\nanalytic estimate: ~{} cycles, FPU util ~{:.0}% (estimated: {})",
        estimate.expect_report().cycles,
        100.0 * estimate.expect_report().fpu_util(),
        estimate.telemetry.estimated
    );

    // --- Tier 2: cycle-accurate. Measure both variants with the
    // paper's "unroll iff beneficial" tuning.
    let measure = |variant| {
        server.submit(
            &workload(variant)
                .tune(Tune::Auto)
                .verify(1e-12)
                .freeze()
                .expect("valid workload"),
        )
    };
    let base = measure(Variant::Base)?;
    let saris = measure(Variant::Saris)?;
    println!(
        "base   (unroll {}):  {}",
        base.unroll().unwrap_or(1),
        base.expect_report()
    );
    println!(
        "saris  (unroll {}): {}",
        saris.unroll().unwrap_or(1),
        saris.expect_report()
    );
    let speedup = base.expect_report().cycles as f64 / saris.expect_report().cycles as f64;
    println!(
        "SARIS speedup: {speedup:.2}x  (FPU util {:.0}% -> {:.0}%)",
        100.0 * base.expect_report().fpu_util(),
        100.0 * saris.expect_report().fpu_util()
    );

    // --- Tier 3: golden. Verification against the reference executor
    // already ran inside the measured submissions; the outcome carries
    // the error. An explicit Fidelity::Golden run would produce the
    // reference grids themselves.
    println!(
        "max |error| vs golden reference: {:.2e}",
        saris.verify_error.unwrap_or(0.0)
    );

    // And the calibrated energy model gives the Figure 4 metrics.
    let model = EnergyModel::gf12lp();
    let pb = model.estimate(base.expect_report());
    let ps = model.estimate(saris.expect_report());
    println!(
        "power: {:.0} mW -> {:.0} mW, energy-efficiency gain {:.2}x",
        1e3 * pb.total_watts(),
        1e3 * ps.total_watts(),
        efficiency_gain(&pb, &ps)
    );

    // --- Adaptive fidelity: `Auto` answers from the cheapest tier that
    // meets its accuracy budget. The tuned cycle-tier measurements above
    // already fed the server's live calibration store, so a new tuned
    // Auto request for this shape (different inputs!) is answered
    // analytically — no simulation, telemetry says which tier answered.
    let auto = server.submit(
        &workload(Variant::Saris)
            .input_seed(7)
            .tune(Tune::Auto)
            .fidelity(Fidelity::auto())
            .freeze()
            .expect("valid workload"),
    )?;
    println!(
        "\nauto request answered by the {} tier (estimated: {})",
        auto.telemetry
            .answered_by
            .expect("stencil outcomes record it"),
        auto.telemetry.estimated
    );

    // A repeated request is a response-cache hit: same Arc, no work.
    let cached = measure(Variant::Saris)?;
    assert!(std::sync::Arc::ptr_eq(&saris, &cached));
    let serve = server.stats();
    let engine = server.session().stats();
    println!(
        "serve: {} requests, {} cache hits, {} executed, {} recompute cost \
         units saved; engine: {} runs [{} analytic / {} cycles / {} golden], \
         {} auto answered analytically, {} kernels compiled",
        serve.requests,
        serve.cache_hits,
        serve.executed,
        serve.cost_units_saved,
        engine.runs,
        engine.runs_analytic,
        engine.runs_cycles,
        engine.runs_golden,
        engine.auto_answered_analytic,
        engine.compiles
    );
    Ok(())
}
