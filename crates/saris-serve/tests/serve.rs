//! Serving-layer acceptance tests: single-flight exactly-once execution
//! under concurrency, response-cache bit-identity, and back-pressure on
//! the bounded queue.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use saris_codegen::{
    Backend, BackendRegistry, CodegenError, ExecOutcome, ExecRequest, Fidelity, NativeBackend,
    Session, SessionConfig, Workload, WorkloadSpec,
};
use saris_core::{gallery, Extent, Grid};
use saris_serve::{ServeConfig, Server};

fn spec(seed: u64) -> WorkloadSpec {
    Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(seed)
        .freeze()
        .unwrap()
}

fn bits(grid: &Grid) -> Vec<u64> {
    grid.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The single-flight guarantee: a spec duplicated across many
/// concurrent submitters executes exactly once — every caller shares
/// the one outcome, whether it coalesced onto the flight or hit the
/// cache the flight filled.
#[test]
fn single_flight_executes_a_duplicated_spec_exactly_once() {
    const CALLERS: usize = 16;
    let server = Server::with_config(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let barrier = Barrier::new(CALLERS);
    let outcomes: Vec<Arc<saris_codegen::Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let server = &server;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    server.submit(&spec(7)).expect("spec runs")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Exactly one execution, however the 16 callers raced.
    assert_eq!(server.stats().executed, 1);
    assert_eq!(server.session().stats().runs, 1);
    let stats = server.stats();
    assert_eq!(stats.requests, CALLERS as u64);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.coalesced + stats.cache_hits, CALLERS as u64 - 1);
    // Every caller got the same shared outcome object.
    for outcome in &outcomes {
        assert!(Arc::ptr_eq(outcome, &outcomes[0]));
    }
}

/// Concurrent duplicates of several distinct specs: one execution per
/// unique spec, none lost, none doubled.
#[test]
fn concurrent_mixed_stream_executes_each_unique_spec_once() {
    const UNIQUE: u64 = 3;
    const CALLERS: usize = 12;
    let server = Server::with_config(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let barrier = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for i in 0..CALLERS {
            let server = &server;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let outcome = server.submit(&spec(i as u64 % UNIQUE)).expect("spec runs");
                assert_eq!(outcome.fingerprint, spec(i as u64 % UNIQUE).fingerprint());
            });
        }
    });
    assert_eq!(server.stats().executed, UNIQUE);
    assert_eq!(server.session().stats().runs, UNIQUE);
}

/// A cached response is bit-identical to a fresh execution of the same
/// spec on an independent engine: grids, reports, telemetry-relevant
/// fields — everything a caller could observe.
#[test]
fn cached_outcomes_are_bit_identical_to_fresh_ones() {
    let server = Server::with_config(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let spec = spec(42);
    server.submit(&spec).unwrap(); // populate the cache
    let cached = server.submit(&spec).unwrap();
    assert_eq!(server.stats().cache_hits, 1);
    let fresh = Session::new().submit(&spec).unwrap();
    assert_eq!(cached.grids.len(), fresh.grids.len());
    for (c, f) in cached.grids.iter().zip(&fresh.grids) {
        assert_eq!(bits(c), bits(f), "cached grid must be bit-identical");
    }
    assert_eq!(cached.reports, fresh.reports);
    assert_eq!(cached.fingerprint, fresh.fingerprint);
    assert_eq!(cached.backend, fresh.backend);
}

/// The bounded queue applies back-pressure instead of dropping or
/// reordering: a burst far deeper than the queue completes fully.
#[test]
fn deep_bursts_survive_a_tiny_queue() {
    let server = Server::with_config(ServeConfig {
        workers: 2,
        queue_depth: 2,
        max_cached_responses: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let specs: Vec<WorkloadSpec> = (0..24).map(|i| spec(i % 8)).collect();
    let results = server.submit_all(&specs);
    assert_eq!(results.len(), 24);
    for (s, r) in specs.iter().zip(&results) {
        assert_eq!(r.as_ref().expect("spec runs").fingerprint, s.fingerprint());
    }
    // 8 unique specs executed; the cache bound (4) forced re-executions
    // for evicted repeats at most, never wrong answers.
    assert!(server.stats().executed >= 8);
    assert!(server.stats().cache_evictions >= 4);
}

fn estimate_spec(seed: u64) -> WorkloadSpec {
    Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(seed)
        .fidelity(Fidelity::Analytic)
        .freeze()
        .unwrap()
}

/// Cost-weighted eviction: under cache pressure from cheap analytic
/// responses, the expensive cycle-tier response survives even though it
/// is the *oldest* entry — pure LRU would evict it first.
#[test]
fn eviction_prefers_cheap_to_recompute_responses() {
    let server = Server::with_config(ServeConfig {
        workers: 1,
        max_cached_responses: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let expensive = spec(1); // cycle tier: ~700 cost units
    server.submit(&expensive).unwrap();
    // Flood the cache with cheap analytic entries (1 cost unit each).
    for seed in 0..4 {
        server.submit(&estimate_spec(seed)).unwrap();
    }
    assert_eq!(server.cached_responses(), 2);
    assert_eq!(server.stats().cache_evictions, 3);
    // The cycle-tier entry is still cached: a repeat is a hit, not a
    // re-execution.
    let executed = server.stats().executed;
    server.submit(&expensive).unwrap();
    let stats = server.stats();
    assert_eq!(stats.executed, executed, "expensive entry survived");
    assert!(stats.cost_units_saved >= 700);
    // The evicted analytic entries re-execute on repeat.
    server.submit(&estimate_spec(0)).unwrap();
    assert_eq!(server.stats().executed, executed + 1);
}

/// Hits refresh an entry's standing: among equal-cost entries the
/// policy is exactly LRU, so a recently hit entry outlives an older
/// untouched one (the recency half of the cost-aware policy).
#[test]
fn cache_hits_refresh_recency_under_cost_weighting() {
    let server = Server::with_config(ServeConfig {
        workers: 1,
        max_cached_responses: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    server.submit(&spec(1)).unwrap();
    server.submit(&spec(2)).unwrap();
    server.submit(&spec(1)).unwrap(); // hit: refreshes spec(1)
    server.submit(&spec(3)).unwrap(); // evicts spec(2), the stale one
    let executed = server.stats().executed;
    server.submit(&spec(1)).unwrap(); // still cached
    assert_eq!(server.stats().executed, executed);
    server.submit(&spec(2)).unwrap(); // re-executes
    assert_eq!(server.stats().executed, executed + 1);
}

/// Regression for the executed-counter race: a cache hit must never be
/// observable while the execution that filled the cache is still
/// uncounted. Snapshots taken while submitters hammer one spec must
/// always satisfy `cache_hits > 0 => executed >= 1` and conservation of
/// requests.
#[test]
fn stats_snapshots_never_show_hits_before_executions() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let server = Server::with_config(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = &server;
        let done = &done;
        let watcher = scope.spawn(move || {
            let mut saw_hits = false;
            loop {
                // Read the flag first: the snapshot that follows a set
                // flag holds all 32 requests, so a run that outpaces the
                // watcher is still checked once, hits included.
                let finished = done.load(Ordering::Acquire);
                let stats = server.stats();
                assert!(
                    stats.cache_hits == 0 || stats.executed >= 1,
                    "observed a cache hit before its execution was counted: {stats:?}"
                );
                assert_eq!(
                    stats.requests,
                    stats.cache_hits + stats.cache_misses + stats.coalesced,
                    "request conservation violated: {stats:?}"
                );
                saw_hits |= stats.cache_hits > 0;
                if finished {
                    break saw_hits;
                }
                std::thread::yield_now();
            }
        });
        for _ in 0..4 {
            scope.spawn(move || {
                for _ in 0..8 {
                    server.submit(&spec(9)).expect("spec runs");
                }
            });
        }
        // Submitters finish first (scope joins them after this block
        // returns), then stop the watcher via the flag below once the
        // last handle we spawned here is done; easiest is to join
        // through a dedicated closing thread.
        let closer = scope.spawn(move || {
            // Wait until all 32 submissions are visible, then stop.
            while server.stats().requests < 32 {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
        closer.join().unwrap();
        assert!(watcher.join().unwrap(), "the stress run produced hits");
    });
}

/// Adaptive serving: `Fidelity::Auto` requests escalate exactly once
/// per unique workload shape, then the warmed calibration store answers
/// new (differently seeded) requests analytically — the session's
/// counters record the split.
#[test]
fn auto_requests_warm_the_store_through_the_server() {
    let server = Server::with_config(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let auto_spec = |seed: u64| {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(seed)
            .fidelity(Fidelity::auto())
            .freeze()
            .unwrap()
    };
    let first = server.submit(&auto_spec(1)).unwrap();
    assert_eq!(first.telemetry.answered_by, Some(Fidelity::Cycles));
    // Different seeds are different specs (no response-cache hit), but
    // the same calibration key: all answered analytically now.
    for seed in 2..6 {
        let outcome = server.submit(&auto_spec(seed)).unwrap();
        assert_eq!(outcome.telemetry.answered_by, Some(Fidelity::Analytic));
        assert!(outcome.telemetry.estimated);
    }
    let session = server.session().stats();
    assert_eq!(session.auto_escalated, 1);
    assert_eq!(session.auto_answered_analytic, 4);
    assert_eq!(
        server.stats().cache_hits,
        0,
        "every request was a distinct spec"
    );
    // A response-cache hit on an Auto spec is a hit, not a new decision.
    server.submit(&auto_spec(1)).unwrap();
    assert_eq!(server.stats().cache_hits, 1);
    assert_eq!(server.session().stats().auto_escalated, 1);
}

/// Mixed-fidelity serving: estimate-class requests ride the analytic
/// tier through the same cache, flagged as estimates, and never touch
/// the compiler.
#[test]
fn estimate_requests_serve_from_the_analytic_tier() {
    let server = Server::new().unwrap();
    let estimate_spec = Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(7)
        .fidelity(Fidelity::Analytic)
        .freeze()
        .unwrap();
    let estimate = server.submit(&estimate_spec).unwrap();
    assert_eq!(estimate.backend, "roofline");
    assert!(estimate.telemetry.estimated);
    // Distinct cache identity from the cycle-tier spec of the same work.
    let measured = server.submit(&spec(7)).unwrap();
    assert_eq!(measured.backend, "sim");
    assert!(!measured.telemetry.estimated);
    assert_ne!(estimate.fingerprint, measured.fingerprint);
    assert_eq!(server.stats().executed, 2);
    let session_stats = server.session().stats();
    assert_eq!(session_stats.runs_analytic, 1);
    assert_eq!(session_stats.runs_cycles, 1);
    assert_eq!(
        session_stats.compiles, 1,
        "the analytic run compiled nothing"
    );
}

/// The golden tier behind a gate: a run books that it started, then
/// waits until the gate opens.
#[derive(Default)]
struct Gated {
    started: AtomicBool,
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gated {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

/// Spins until `cond` holds, failing with `what` after 30 s.
fn spin_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::yield_now();
    }
}

impl Backend for Gated {
    fn name(&self) -> &'static str {
        NativeBackend.name()
    }

    fn fidelity(&self) -> Fidelity {
        NativeBackend.fidelity()
    }

    fn needs_kernel(&self) -> bool {
        NativeBackend.needs_kernel()
    }

    fn execute(&self, req: ExecRequest<'_>) -> Result<ExecOutcome, CodegenError> {
        self.started.store(true, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        NativeBackend.execute(req)
    }
}

/// A failing flight delivers its error to *every* coalesced waiter
/// identically: waiters that attached to one execution share the same
/// `Arc<CodegenError>`, the error counter books one error per actual
/// execution, and nothing enters the response cache.
#[test]
fn coalesced_waiters_share_a_failed_flights_error() {
    const WAITERS: usize = 8;
    // j3d27pt at base unroll 4 hits register pressure deterministically.
    let failing = Workload::new(gallery::j3d27pt())
        .extent(Extent::cube(saris_core::Space::Dim3, 8))
        .input_seed(1)
        .variant(saris_codegen::Variant::Base)
        .unroll(4)
        .freeze()
        .unwrap();
    // Occupy the single execution slot with a golden-tier run held at a
    // gate, so the failing spec's flight stays in flight while the
    // waiters pile on. The slow spec's submitter runs it in the idle
    // server's slot; the gate opens once every waiter is admitted.
    let gated = Arc::new(Gated::default());
    let mut registry = BackendRegistry::standard();
    registry.register(Arc::clone(&gated) as Arc<dyn Backend>);
    let session = Session::with_registry(registry, Fidelity::Cycles, SessionConfig::default());
    let server = Server::over(
        session,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let slow = Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(3)
        .fidelity(Fidelity::Golden)
        .freeze()
        .unwrap();
    let barrier = Barrier::new(WAITERS);
    let errors: Vec<saris_serve::ServeError> = std::thread::scope(|scope| {
        let server = &server;
        let barrier = &barrier;
        let slow_handle = scope.spawn(move || server.submit(&slow).expect("slow spec runs"));
        spin_until("the slow spec never ran", || {
            gated.started.load(Ordering::SeqCst)
        });
        let handles: Vec<_> = (0..WAITERS)
            .map(|_| {
                let failing = &failing;
                scope.spawn(move || {
                    barrier.wait();
                    server.submit(failing).expect_err("spec must fail")
                })
            })
            .collect();
        spin_until("the waiters were never admitted", || {
            server.stats().requests == 1 + WAITERS as u64
        });
        gated.open();
        let errors = handles.into_iter().map(|h| h.join().unwrap()).collect();
        slow_handle.join().unwrap();
        errors
    });
    // Every waiter saw an execution error; waiters of one flight share
    // the *same* error allocation, so the number of distinct Arcs equals
    // the number of actual executions — which the error counter matches.
    let arcs: Vec<&Arc<saris_codegen::CodegenError>> = errors
        .iter()
        .map(|e| match e {
            saris_serve::ServeError::Execution(inner) => inner,
            other => panic!("expected an execution error, got {other}"),
        })
        .collect();
    let mut distinct: Vec<&Arc<saris_codegen::CodegenError>> = Vec::new();
    for arc in &arcs {
        if !distinct.iter().any(|seen| Arc::ptr_eq(seen, arc)) {
            distinct.push(arc);
        }
    }
    let stats = server.stats();
    assert_eq!(
        distinct.len() as u64,
        stats.errors,
        "one shared error per failed execution"
    );
    assert!(
        stats.coalesced >= 1,
        "the busy worker forces coalescing: {stats:?}"
    );
    assert_eq!(
        stats.retries, 0,
        "deterministic failures must not burn retries"
    );
    // Error results never enter the GreedyDual cache: only the slow
    // success is cached, and re-submitting the failing spec re-executes.
    assert_eq!(server.cached_responses(), 1);
}

/// Error results never enter the cost-aware response cache, even when
/// interleaved with cacheable successes on the same server.
#[test]
fn failed_results_never_enter_the_response_cache() {
    let failing = Workload::new(gallery::j3d27pt())
        .extent(Extent::cube(saris_core::Space::Dim3, 8))
        .input_seed(1)
        .variant(saris_codegen::Variant::Base)
        .unroll(4)
        .freeze()
        .unwrap();
    let server = Server::with_config(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    server.submit(&spec(1)).unwrap();
    assert!(server.submit(&failing).is_err());
    server.submit(&spec(2)).unwrap();
    assert!(server.submit(&failing).is_err());
    assert_eq!(server.cached_responses(), 2, "only successes are cached");
    let stats = server.stats();
    assert_eq!(stats.errors, 2, "the failure re-executed (never cached)");
    assert_eq!(stats.cache_hits, 0);
}
