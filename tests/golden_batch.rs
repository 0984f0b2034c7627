//! Bulk golden-tier acceptance: `Session::submit_all` fanning golden
//! specs across its workers must preserve order, bits, telemetry, and
//! verification semantics of one `Session::submit` per spec.

use std::sync::Arc;

use saris::prelude::*;

fn tile_of(s: &Stencil) -> Extent {
    match s.space() {
        Space::Dim2 => Extent::new_2d(20, 14),
        Space::Dim3 => Extent::cube(Space::Dim3, 11),
    }
}

fn golden_specs(verify: Option<f64>) -> Vec<WorkloadSpec> {
    let mut specs = Vec::new();
    for (ci, stencil) in gallery::all().into_iter().enumerate() {
        for seed in 0..3u64 {
            let mut w = Workload::new(stencil.clone())
                .extent(tile_of(&stencil))
                .input_seed(9000 + ci as u64 * 10 + seed)
                .fidelity(Fidelity::Golden);
            if let Some(tol) = verify {
                w = w.verify(tol);
            }
            specs.push(w.freeze().expect("valid golden workload"));
        }
    }
    specs
}

/// Batched golden submission returns, per spec and in spec order, grids
/// bit-identical to one-at-a-time submission.
#[test]
fn bulk_golden_matches_serial_submission_bitwise() {
    let specs = golden_specs(None);
    let session = Session::native();
    let batched = session.submit_all(&specs);
    let serial: Vec<_> = specs.iter().map(|s| session.submit(s).unwrap()).collect();
    assert_eq!(batched.len(), serial.len());
    for ((spec, b), s) in specs.iter().zip(&batched).zip(&serial) {
        let b = b.as_ref().expect("golden batch spec succeeds");
        assert_eq!(b.fingerprint, spec.fingerprint());
        assert_eq!(b.backend, "native");
        assert_eq!(b.telemetry.answered_by, Some(Fidelity::Golden));
        assert_eq!(b.telemetry.runs, 1);
        assert_eq!(b.grids.len(), 1);
        let (bg, sg) = (b.expect_output(), s.expect_output());
        assert_eq!(bg.extent(), sg.extent());
        for (x, y) in bg.as_slice().iter().zip(sg.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// In-batch `verify(0.0)` passes: the SIMD outputs are bit-identical to
/// the scalar oracle, so the strictest possible tolerance holds.
#[test]
fn bulk_golden_verification_is_bit_exact_against_the_scalar_oracle() {
    let specs = golden_specs(Some(0.0));
    let session = Session::native();
    for outcome in session.submit_all(&specs) {
        let outcome = outcome.expect("verification passes at tolerance zero");
        assert_eq!(outcome.verify_error, Some(0.0));
    }
}

/// A mixed batch — golden specs interleaved with analytic ones — still
/// answers every spec on its own tier, in order.
#[test]
fn mixed_fidelity_batches_route_per_spec() {
    let stencil = gallery::jacobi_2d();
    let tile = Extent::new_2d(16, 16);
    let mut specs = Vec::new();
    for i in 0..6u64 {
        let fidelity = if i % 2 == 0 {
            Fidelity::Golden
        } else {
            Fidelity::Analytic
        };
        specs.push(
            Workload::new(stencil.clone())
                .extent(tile)
                .input_seed(100 + i)
                .fidelity(fidelity)
                .freeze()
                .unwrap(),
        );
    }
    let session = Session::native();
    let outcomes = session.submit_all(&specs);
    for (i, outcome) in outcomes.iter().enumerate() {
        let outcome = outcome.as_ref().expect("mixed batch spec succeeds");
        if i % 2 == 0 {
            assert_eq!(outcome.backend, "native");
            assert_eq!(outcome.grids.len(), 1);
        } else {
            assert_eq!(outcome.backend, "roofline");
            assert!(outcome.grids.is_empty());
            assert!(outcome.telemetry.estimated);
        }
    }
    let stats = session.stats();
    assert_eq!(stats.runs_golden, 3);
    assert_eq!(stats.runs_analytic, 3);
}

/// Bulk-ineligible golden work (multi-step rotations) still answers
/// correctly through the per-spec path inside `submit_all`.
#[test]
fn rotated_golden_specs_take_the_per_spec_path() {
    let stencil = gallery::jacobi_2d();
    let tile = Extent::new_2d(16, 16);
    let spec = |steps: usize| {
        let mut w = Workload::new(stencil.clone())
            .extent(tile)
            .input_seed(55)
            .fidelity(Fidelity::Golden);
        if steps > 1 {
            w = w.time_steps(steps).rotation(BufferRotation::Alternating);
        }
        w.freeze().unwrap()
    };
    let session = Session::native();
    let batch = session.submit_all(&[spec(3), spec(3), spec(1), spec(1)]);
    let rotated = batch[0].as_ref().unwrap().expect_output();
    let rotated_again = batch[1].as_ref().unwrap().expect_output();
    let single = batch[2].as_ref().unwrap().expect_output();
    assert_eq!(rotated, rotated_again);
    // Three marched steps diverge from a single application.
    assert!(rotated.max_abs_diff(single) > 0.0);
}

/// Shared-input golden batches borrow the same `Arc`ed grids.
#[test]
fn shared_input_golden_batch_is_deterministic() {
    let stencil = gallery::j3d27pt();
    let tile = Extent::cube(Space::Dim3, 10);
    let inputs: Arc<Vec<Grid>> = Arc::new(
        stencil
            .input_arrays()
            .enumerate()
            .map(|(k, _)| Grid::pseudo_random(tile, 31 + k as u64))
            .collect(),
    );
    let make = || {
        Workload::new(stencil.clone())
            .extent(tile)
            .shared_inputs(Arc::clone(&inputs))
            .fidelity(Fidelity::Golden)
            .freeze()
            .unwrap()
    };
    let session = Session::native();
    let outcomes = session.submit_all(&[make(), make(), make(), make()]);
    let first = outcomes[0].as_ref().unwrap().expect_output();
    for outcome in &outcomes[1..] {
        let g = outcome.as_ref().unwrap().expect_output();
        for (x, y) in first.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// `verify` on a golden answer compares it with a reference the backend
/// did not compute — on every path. A golden backend that corrupts each
/// output fails `verify(0.0)` through `submit` and through `submit_all`,
/// spec by spec, while an unverified spec in the same call succeeds.
#[test]
fn corrupted_golden_answers_fail_verification_on_every_path() {
    let plan = FaultPlan {
        corrupt_rate: 1.0,
        ..FaultPlan::seeded(19)
    };
    let session = Session::with_backend(Arc::new(FaultInjectingBackend::new(
        Arc::new(NativeBackend::new()),
        plan,
    )));
    let spec = |seed: u64, verify: bool| {
        let w = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(seed);
        if verify { w.verify(0.0) } else { w }.freeze().unwrap()
    };
    let failed = |result: Result<Outcome, CodegenError>| {
        matches!(result, Err(CodegenError::VerificationFailed { .. }))
    };
    let mut specs: Vec<WorkloadSpec> = (0..6).map(|seed| spec(seed, true)).collect();
    for s in &specs {
        assert!(failed(session.submit(s)), "lone submit must catch it");
    }
    specs.push(spec(6, false));
    let mut results = session.submit_all(&specs);
    let unverified = results.pop().unwrap().expect("nothing checks this one");
    assert_eq!(unverified.verify_error, None);
    assert_eq!(results.len(), 6);
    assert!(results.into_iter().all(failed));
}

/// `submit_all` and a loop of `submit` are one path: equal
/// `verify_error`, bit-equal grids.
#[test]
fn verified_golden_specs_answer_alike_through_submit_and_submit_all() {
    let specs = golden_specs(Some(0.0));
    let session = Session::native();
    let fanned = session.submit_all(&specs);
    for (spec, fanned) in specs.iter().zip(fanned) {
        let (fanned, lone) = (fanned.unwrap(), session.submit(spec).unwrap());
        assert_eq!(fanned.verify_error, Some(0.0));
        assert_eq!(lone.verify_error, fanned.verify_error);
        let (a, b) = (fanned.expect_output(), lone.expect_output());
        assert!(a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
