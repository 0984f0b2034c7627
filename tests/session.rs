//! Execution-engine acceptance tests: kernel-cache behavior across a full
//! gallery sweep, cluster-reset determinism, batch-vs-serial equivalence,
//! and backend agreement with the golden reference — all through the
//! `Workload`/`submit` request/response surface.

use std::sync::Arc;

use saris::prelude::*;

fn tile_of(s: &Stencil) -> Extent {
    match s.space() {
        Space::Dim2 => Extent::new_2d(16, 16),
        Space::Dim3 => Extent::cube(Space::Dim3, 12),
    }
}

fn spec_of(s: &Stencil, variant: Variant, seed: u64) -> WorkloadSpec {
    Workload::new(s.clone())
        .extent(tile_of(s))
        .input_seed(seed)
        .variant(variant)
        .freeze()
        .expect("valid workload")
}

/// A variant sweep over the full gallery through one session compiles
/// each `(stencil, extent, options)` kernel exactly once: the second
/// pass is all cache hits and recompiles nothing.
#[test]
fn gallery_sweep_compiles_each_kernel_exactly_once() {
    let session = Session::new();
    let mut unique_kernels = 0;
    for pass in 0..2 {
        for stencil in gallery::all() {
            for variant in [Variant::Base, Variant::Saris] {
                let run = session.submit(&spec_of(&stencil, variant, 4000)).unwrap();
                if pass == 0 {
                    assert_eq!(
                        run.telemetry.compiles,
                        1,
                        "{} {variant} pass 0",
                        stencil.name()
                    );
                    unique_kernels += 1;
                } else {
                    assert_eq!(
                        run.telemetry.cache_hits,
                        1,
                        "{} {variant} pass 1",
                        stencil.name()
                    );
                }
            }
        }
    }
    let stats = session.stats();
    assert_eq!(stats.compiles, unique_kernels);
    assert_eq!(stats.cache_hits, unique_kernels);
    assert_eq!(session.cached_kernels(), unique_kernels as usize);
    // Every run after the first recycled a pooled cluster, and the
    // default bounds evicted nothing.
    assert_eq!(stats.clusters_reused, stats.runs - 1);
    assert_eq!(stats.evictions, 0);
}

/// A run on a freshly constructed cluster and a rerun on the recycled
/// (reset) cluster produce byte-identical outputs and identical
/// `RunReport`s.
#[test]
fn reset_cluster_matches_fresh_cluster() {
    let stencil = gallery::j2d5pt();
    let spec = Workload::new(stencil.clone())
        .extent(Extent::new_2d(16, 16))
        .input_seed(4000)
        .options(RunOptions::new(Variant::Saris).with_unroll(2))
        .freeze()
        .unwrap();
    let session = Session::new();
    let fresh = session.submit(&spec).unwrap();
    assert_eq!(fresh.telemetry.clusters_reused, 0, "first run constructs");
    let reset = session.submit(&spec).unwrap();
    assert_eq!(reset.telemetry.clusters_reused, 1, "second run recycles");

    let bits = |g: &Grid| -> Vec<u64> { g.as_slice().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(
        bits(fresh.expect_output()),
        bits(reset.expect_output()),
        "outputs must be byte-identical"
    );
    assert_eq!(
        fresh.expect_report(),
        reset.expect_report(),
        "reports must be identical"
    );
}

/// `submit_all` on four-plus specs yields outputs identical to serial
/// submissions, in spec order.
#[test]
fn batch_matches_serial_runs() {
    let session = Session::new();
    let mut specs = Vec::new();
    for (i, name) in ["jacobi_2d", "j2d5pt", "jacobi_2d", "box2d1r", "j2d9pt"]
        .iter()
        .enumerate()
    {
        let stencil = gallery::by_name(name).unwrap();
        let variant = if i % 2 == 0 {
            Variant::Saris
        } else {
            Variant::Base
        };
        specs.push(spec_of(&stencil, variant, 100 * i as u64));
    }
    let results = session.submit_all(&specs);
    assert_eq!(results.len(), specs.len());
    for (spec, result) in specs.iter().zip(results) {
        let batched = result.unwrap_or_else(|e| panic!("{e}"));
        let serial = Session::new().submit(spec).unwrap();
        let bits = |g: &Grid| -> Vec<u64> { g.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            bits(batched.expect_output()),
            bits(serial.expect_output()),
            "{:x}",
            spec.fingerprint()
        );
        assert_eq!(batched.expect_report(), serial.expect_report());
    }
    // jacobi_2d saris appears twice with identical compile options:
    // 4 compiles for 5 specs.
    assert_eq!(session.stats().compiles, 4);
}

/// The simulator backend and the native (golden reference) backend agree
/// with the reference executor to well under 1e-12 on every gallery code.
#[test]
fn backends_agree_with_reference() {
    let sim = Session::new();
    let native = Session::native();
    for stencil in gallery::all() {
        // `verify(1e-12)` makes each backend check itself against the
        // reference executor inside the submission...
        let spec = Workload::new(stencil.clone())
            .extent(tile_of(&stencil))
            .input_seed(4000)
            .variant(Variant::Saris)
            .verify(1e-12)
            .freeze()
            .unwrap();
        let sim_run = sim.submit(&spec).unwrap();
        let native_run = native.submit(&spec).unwrap();
        assert_eq!(
            native_run.verify_error,
            Some(0.0),
            "{}: native is the reference",
            stencil.name()
        );
        // ...and the backends also agree with each other.
        let cross = sim_run
            .expect_output()
            .max_abs_diff(native_run.expect_output());
        assert!(cross < 1e-12, "{}: sim vs native {cross:e}", stencil.name());
    }
    assert_eq!(native.stats().compiles, 0, "native sweeps never compile");
}

/// Time-stepped workloads compile once and stay in lockstep with the
/// reference (checked by in-submission verification).
#[test]
fn session_time_steps_compile_once() {
    let spec = Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(77)
        .options(RunOptions::new(Variant::Saris).with_reassociate(0))
        .time_steps(3)
        .verify(0.0)
        .freeze()
        .unwrap();
    let session = Session::new();
    let run = session.submit(&spec).unwrap();
    assert_eq!(run.reports.len(), 3);
    assert_eq!(run.verify_error, Some(0.0));
    assert_eq!(session.stats().compiles, 1);
    assert_eq!(run.telemetry.runs, 3);
}

/// Session bounds: a tiny kernel cache LRU-evicts and counts it; the
/// cluster pool cap drops idle clusters.
#[test]
fn session_config_bounds_are_enforced() {
    let session = Session::with_config(SessionConfig {
        max_cached_kernels: 2,
        max_pooled_clusters: 1,
    });
    let codes = ["jacobi_2d", "j2d5pt", "box2d1r"];
    let specs: Vec<WorkloadSpec> = codes
        .iter()
        .map(|name| spec_of(&gallery::by_name(name).unwrap(), Variant::Saris, 1))
        .collect();
    for spec in &specs {
        session.submit(spec).unwrap();
    }
    assert!(session.cached_kernels() <= 2);
    assert!(session.pooled_clusters() <= 1);
    assert!(session.stats().evictions >= 1);
}

/// Specs survive a round trip through an arbitrary channel (they are
/// `Clone + Send`), and a clone answers identically — the property a
/// sharded coordinator relies on.
#[test]
fn spec_clones_answer_identically_across_threads() {
    let spec = spec_of(&gallery::jacobi_2d(), Variant::Saris, 9);
    let clone = spec.clone();
    let here = Session::new().submit(&spec).unwrap();
    let there = std::thread::spawn(move || Session::new().submit(&clone).unwrap())
        .join()
        .unwrap();
    assert_eq!(here.fingerprint, there.fingerprint);
    assert_eq!(here.expect_output(), there.expect_output());
    assert_eq!(here.expect_report(), there.expect_report());
}

/// Shared-`Arc` stencils: a whole batch references one stencil IR
/// allocation (the 60-job gallery sweep holds one copy per code).
#[test]
fn batch_specs_share_one_stencil_allocation() {
    let stencil = Arc::new(gallery::jacobi_2d());
    let specs: Vec<WorkloadSpec> = (0..6)
        .map(|seed| {
            Workload::new(Arc::clone(&stencil))
                .extent(Extent::new_2d(16, 16))
                .input_seed(seed)
                .freeze()
                .unwrap()
        })
        .collect();
    for spec in &specs {
        assert!(Arc::ptr_eq(spec.stencil().unwrap(), &stencil));
    }
    // 1 local handle + 6 specs, zero deep copies.
    assert_eq!(Arc::strong_count(&stencil), 7);
}
