//! Chaos acceptance tests: the serving layer driven over a
//! fault-injecting backend. A seeded [`FaultPlan`] decides — purely, per
//! request key and attempt — which backend calls panic, fail
//! transiently, stall, or silently corrupt their output, and the tests
//! assert the server's survival guarantees: no hang, no error lost or
//! double-counted, deterministic outcomes at a fixed seed, bit-identical
//! results for untouched requests, and fail-fast admission once a tier
//! or a spec has proven itself sick.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use saris_codegen::{
    Backend, BackendRegistry, CodegenError, FaultInjectingBackend, FaultKind, FaultPlan, Fidelity,
    RooflineBackend, Session, SessionConfig, SimBackend, Workload, WorkloadSpec,
};
use saris_core::{gallery, Extent, Grid};
use saris_serve::{ResponseHandle, ServeConfig, ServeError, Server};

/// A single-step, untuned cycle-tier spec: exactly one backend call per
/// execution attempt, so the serve layer's retry attempt `k` is the
/// fault plan's attempt `k` for the spec's key — outcomes are decidable
/// from the schedule alone.
fn spec(seed: u64) -> WorkloadSpec {
    Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(seed)
        .freeze()
        .unwrap()
}

/// A server whose cycle tier is the simulator wrapped in fault
/// injection; analytic and golden tiers stay clean (degraded answers
/// must be trustworthy).
fn chaos_server(plan: FaultPlan, config: ServeConfig) -> (Server, Arc<FaultInjectingBackend>) {
    let chaos = Arc::new(FaultInjectingBackend::new(Arc::new(SimBackend), plan));
    let mut registry = BackendRegistry::standard();
    registry.register(Arc::clone(&chaos) as Arc<dyn Backend>);
    let session = Session::with_registry(registry, Fidelity::Cycles, SessionConfig::default());
    let server = Server::over(session, config).expect("spawn serve workers");
    (server, chaos)
}

fn bits(grid: &Grid) -> Vec<u64> {
    grid.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// What `execute_with_retry` must produce for a spec, replayed from the
/// precomputed fault schedule (mirrors the serve policy: panics are
/// final, transient errors retry up to `max_retries`, anything else
/// succeeds), with the retries taken on the way: a schedule that starts
/// `[Error, Panic, ..]` retries once, then panics.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Expected {
    Ok { retries: u64 },
    Panicked { retries: u64 },
    Transient { retries: u64 },
}

impl Expected {
    fn retries(&self) -> u64 {
        match *self {
            Expected::Ok { retries }
            | Expected::Panicked { retries }
            | Expected::Transient { retries } => retries,
        }
    }
}

fn expected(schedule: &[Option<FaultKind>], max_retries: u64) -> Expected {
    let mut attempt = 0u64;
    loop {
        match schedule[attempt as usize] {
            Some(FaultKind::Panic) => return Expected::Panicked { retries: attempt },
            Some(FaultKind::Error) => {
                if attempt < max_retries {
                    attempt += 1;
                } else {
                    return Expected::Transient { retries: attempt };
                }
            }
            // Delays and no-fault attempts succeed; corruption is not in
            // these plans.
            _ => return Expected::Ok { retries: attempt },
        }
    }
}

/// The tentpole soak: a mixed seeded fault plan (panics, transient
/// errors, delays), several submitter threads, a hot duplicated spec,
/// and an invariant-checking snapshot thread — all with degradation,
/// breaker, and quarantine off so every outcome is decidable from the
/// schedule. Proves: no hang, errors counted exactly once, retry and
/// panic counters exact, bit-identical results for untouched requests,
/// and a healthy server afterwards.
#[test]
fn seeded_soak_is_deterministic_and_counts_errors_exactly_once() {
    const UNIQUE: u64 = 12;
    const THREADS: usize = 4;
    const MAX_RETRIES: u64 = 2;
    let mut plan = FaultPlan::seeded(0xC4A05);
    plan.panic_rate = 0.08;
    plan.error_rate = 0.25;
    plan.delay_rate = 0.10;
    plan.delay = Duration::from_millis(1);
    let (server, chaos) = chaos_server(
        plan,
        ServeConfig {
            workers: THREADS,
            max_retries: MAX_RETRIES as u32,
            degrade_to_analytic: false,
            breaker_threshold: 0,
            quarantine_threshold: 0,
            ..ServeConfig::default()
        },
    );

    // Build the unique spec set by scanning seeds in order and classing
    // each precomputed schedule: two slots are reserved for panicking
    // seeds, two for retry-exhausting ones, and the rest fill with
    // successes, so every outcome class is exercised no matter how the
    // plan's hash lands. The scan is pure (no simulation) and, like
    // everything else here, fully deterministic.
    let classify = |s: &WorkloadSpec| {
        let schedule = chaos
            .schedule(s, MAX_RETRIES + 1)
            .expect("stencil specs have keys");
        expected(&schedule, MAX_RETRIES)
    };
    let mut specs: Vec<WorkloadSpec> = Vec::new();
    let mut outcomes: Vec<Expected> = Vec::new();
    // Remaining [success, panic, transient] slots.
    let mut quota = [UNIQUE as usize - 4, 2, 2];
    for seed in 0..100_000 {
        if outcomes.len() == UNIQUE as usize {
            break;
        }
        let s = spec(seed);
        let o = classify(&s);
        let slot = match o {
            Expected::Ok { .. } => 0,
            Expected::Panicked { .. } => 1,
            Expected::Transient { .. } => 2,
        };
        if quota[slot] == 0 {
            continue;
        }
        quota[slot] -= 1;
        specs.push(s);
        outcomes.push(o);
    }
    assert_eq!(
        outcomes.len(),
        UNIQUE as usize,
        "the seed scan must fill every outcome-class quota: {outcomes:?}"
    );
    // The hot spec (duplicated across all threads) must be fault-free
    // across any plausible number of executions so duplication races
    // cannot change its story. Scanning from a distant range keeps it
    // out of the unique set.
    let hot = (1_000_000..)
        .map(spec)
        .find(|s| {
            chaos
                .schedule(s, 16)
                .expect("stencil specs have keys")
                .iter()
                .all(|f| !matches!(f, Some(FaultKind::Panic) | Some(FaultKind::Error)))
        })
        .expect("a fault-free seed exists");

    // Soak: each thread submits a slice of the unique specs plus the hot
    // spec, while a watcher asserts the stats invariants on every
    // snapshot it can grab.
    let done = AtomicBool::new(false);
    let results: Vec<(u64, Result<bool, ServeError>)> = std::thread::scope(|scope| {
        let server = &server;
        let specs = &specs;
        let hot = &hot;
        let done = &done;
        let watcher = scope.spawn(move || {
            while !done.load(Ordering::Acquire) {
                let stats = server.stats();
                assert_eq!(
                    stats.requests,
                    stats.cache_hits
                        + stats.cache_misses
                        + stats.coalesced
                        + stats.breaker_rejections
                        + stats.quarantine_rejections,
                    "request conservation violated mid-soak: {stats:?}"
                );
                assert!(
                    stats.cache_hits == 0 || stats.executed >= 1,
                    "cache hit observed before any execution: {stats:?}"
                );
                assert!(
                    stats.errors <= stats.executed,
                    "more errors than executions: {stats:?}"
                );
                std::thread::yield_now();
            }
        });
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, s) in specs.iter().enumerate() {
                        if i % THREADS == t {
                            mine.push((i as u64, server.submit(s).map(|o| o.telemetry.degraded)));
                        }
                    }
                    mine.push((u64::MAX, server.submit(hot).map(|o| o.telemetry.degraded)));
                    mine
                })
            })
            .collect();
        let results = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        done.store(true, Ordering::Release);
        watcher.join().unwrap();
        results
    });

    // Every unique spec's result matches its precomputed schedule, and
    // no hot-spec submission ever failed or degraded.
    for (idx, result) in &results {
        if *idx == u64::MAX {
            assert_eq!(
                result.as_ref().ok(),
                Some(&false),
                "the fault-free hot spec must always succeed undegraded"
            );
            continue;
        }
        match outcomes[*idx as usize] {
            Expected::Ok { .. } => {
                assert_eq!(
                    result.as_ref().ok(),
                    Some(&false),
                    "spec {idx} must succeed"
                )
            }
            Expected::Panicked { .. } => assert!(
                matches!(result, Err(ServeError::BackendPanicked { .. })),
                "spec {idx} must surface its panic, got {result:?}"
            ),
            Expected::Transient { .. } => {
                let Err(ServeError::Execution(inner)) = result else {
                    panic!("spec {idx} must fail transiently, got {result:?}");
                };
                assert!(matches!(**inner, CodegenError::Transient { .. }));
            }
        }
    }

    // Exactly-once accounting: unique specs execute one flight each, the
    // hot spec exactly one (later duplicates hit the cache or coalesce),
    // and the error/panic/retry counters equal the schedule's totals.
    let stats = server.stats();
    let expect_errors = outcomes
        .iter()
        .filter(|o| !matches!(o, Expected::Ok { .. }))
        .count() as u64;
    let expect_panics = outcomes
        .iter()
        .filter(|o| matches!(o, Expected::Panicked { .. }))
        .count() as u64;
    let expect_retries: u64 = outcomes.iter().map(Expected::retries).sum();
    let expect_recovered = outcomes
        .iter()
        .filter(|o| matches!(o, Expected::Ok { retries } if *retries > 0))
        .count() as u64;
    assert_eq!(stats.executed, UNIQUE + 1, "one flight per unique spec");
    assert_eq!(stats.errors, expect_errors, "errors counted exactly once");
    assert_eq!(stats.panics, expect_panics);
    assert_eq!(stats.retries, expect_retries);
    assert_eq!(stats.recovered, expect_recovered);
    assert_eq!(stats.degraded, 0, "degradation was disabled");
    assert_eq!(stats.requests, UNIQUE + THREADS as u64);

    // Untouched requests are bit-identical to a clean engine's answers.
    let clean = Session::new();
    let mut checked = 0;
    for (s, outcome) in specs.iter().zip(&outcomes) {
        if !matches!(outcome, Expected::Ok { retries: 0 }) {
            continue;
        }
        let served = server.submit(s).expect("clean specs are cached");
        let fresh = clean.submit(s).expect("clean engine runs");
        assert_eq!(served.grids.len(), fresh.grids.len());
        for (a, b) in served.grids.iter().zip(&fresh.grids) {
            assert_eq!(bits(a), bits(b), "chaos must not touch clean requests");
        }
        assert_eq!(served.reports, fresh.reports);
        checked += 1;
    }
    assert!(checked > 0, "the soak seed must leave some specs untouched");

    // The server is still healthy: a fresh fault-free spec serves.
    server.submit(&hot).expect("server survives the soak");
}

/// The soak again, but through the scheduler's surfaces: async
/// admission (`submit_async`) and cost-aware ordering. Faults are
/// injected at *execution* (never at compilation), so which request
/// compiles a shared kernel cannot perturb the per-attempt fault
/// schedule — exactly-once error accounting must survive reordering
/// unchanged.
#[test]
fn scheduler_path_preserves_exactly_once_error_accounting() {
    const UNIQUE: u64 = 12;
    const MAX_RETRIES: u64 = 2;
    let mut plan = FaultPlan::seeded(0x5C4ED);
    plan.panic_rate = 0.08;
    plan.error_rate = 0.25;
    plan.delay_rate = 0.10;
    plan.delay = Duration::from_millis(1);
    let (server, chaos) = chaos_server(
        plan,
        ServeConfig {
            workers: 4,
            max_retries: MAX_RETRIES as u32,
            degrade_to_analytic: false,
            breaker_threshold: 0,
            quarantine_threshold: 0,
            ..ServeConfig::default()
        },
    );
    // Same quota-based seed scan as the synchronous soak: reserve slots
    // for panicking and retry-exhausting seeds so every outcome class is
    // exercised on the scheduler path too.
    let classify = |s: &WorkloadSpec| {
        let schedule = chaos
            .schedule(s, MAX_RETRIES + 1)
            .expect("stencil specs have keys");
        expected(&schedule, MAX_RETRIES)
    };
    let mut specs: Vec<WorkloadSpec> = Vec::new();
    let mut outcomes: Vec<Expected> = Vec::new();
    let mut quota = [UNIQUE as usize - 4, 2, 2];
    for seed in 0..100_000 {
        if outcomes.len() == UNIQUE as usize {
            break;
        }
        let s = spec(seed);
        let o = classify(&s);
        let slot = match o {
            Expected::Ok { .. } => 0,
            Expected::Panicked { .. } => 1,
            Expected::Transient { .. } => 2,
        };
        if quota[slot] == 0 {
            continue;
        }
        quota[slot] -= 1;
        specs.push(s);
        outcomes.push(o);
    }
    assert_eq!(outcomes.len(), UNIQUE as usize);

    // Async admission: every spec enters the scheduler before any
    // result is consumed, so the queue actually reorders and groups.
    let handles: Vec<ResponseHandle> = specs.iter().map(|s| server.submit_async(s)).collect();
    let results: Vec<Result<bool, ServeError>> = handles
        .into_iter()
        .map(|h| h.wait().map(|o| o.telemetry.degraded))
        .collect();

    for (idx, result) in results.iter().enumerate() {
        match outcomes[idx] {
            Expected::Ok { .. } => {
                assert_eq!(
                    result.as_ref().ok(),
                    Some(&false),
                    "spec {idx} must succeed"
                )
            }
            Expected::Panicked { .. } => assert!(
                matches!(result, Err(ServeError::BackendPanicked { .. })),
                "spec {idx} must surface its panic, got {result:?}"
            ),
            Expected::Transient { .. } => {
                let Err(ServeError::Execution(inner)) = result else {
                    panic!("spec {idx} must fail transiently, got {result:?}");
                };
                assert!(matches!(**inner, CodegenError::Transient { .. }));
            }
        }
    }

    // Exactly-once accounting, identical to the FIFO soak's rules.
    let stats = server.stats();
    let expect_errors = outcomes
        .iter()
        .filter(|o| !matches!(o, Expected::Ok { .. }))
        .count() as u64;
    let expect_panics = outcomes
        .iter()
        .filter(|o| matches!(o, Expected::Panicked { .. }))
        .count() as u64;
    let expect_retries: u64 = outcomes.iter().map(Expected::retries).sum();
    assert_eq!(stats.requests, UNIQUE);
    assert_eq!(stats.executed, UNIQUE, "one flight per unique spec");
    assert_eq!(stats.errors, expect_errors, "errors counted exactly once");
    assert_eq!(stats.panics, expect_panics);
    assert_eq!(stats.retries, expect_retries);
    assert_eq!(stats.degraded, 0, "degradation was disabled");
    assert_eq!(
        stats.requests,
        stats.cache_hits + stats.cache_misses + stats.coalesced,
        "conservation on the scheduler path: {stats:?}"
    );

    // Results are bit-identical to a clean serial engine for untouched
    // specs — reordering and grouping changed nothing observable.
    let clean = Session::new();
    let mut checked = 0;
    for (s, outcome) in specs.iter().zip(&outcomes) {
        if !matches!(outcome, Expected::Ok { retries: 0 }) {
            continue;
        }
        let served = server.submit(s).expect("clean specs are cached");
        let fresh = clean.submit(s).expect("clean engine runs");
        for (a, b) in served.grids.iter().zip(&fresh.grids) {
            assert_eq!(bits(a), bits(b), "scheduler must not touch clean results");
        }
        checked += 1;
    }
    assert!(checked > 0, "the soak seed must leave some specs untouched");
}

/// Transient faults are retried with backoff and recover within the
/// retry budget; the injected-fault totals and serve counters agree.
#[test]
fn transient_faults_recover_within_the_retry_budget() {
    // Fail the first attempt of every key, succeed afterwards: rate 1.0
    // would fail every attempt, so instead pick a plan that faults
    // attempt 0 only via a schedule search.
    let mut plan = FaultPlan::seeded(7);
    plan.error_rate = 0.45;
    let (server, chaos) = chaos_server(
        plan,
        ServeConfig {
            workers: 1,
            degrade_to_analytic: false,
            ..ServeConfig::default()
        },
    );
    // Find a spec whose schedule is Error at attempt 0, clean at 1.
    let flaky = (0..)
        .map(spec)
        .find(|s| {
            let schedule = chaos.schedule(s, 2).expect("stencil specs have keys");
            schedule[0] == Some(FaultKind::Error) && schedule[1].is_none()
        })
        .expect("a fail-once seed exists");
    let outcome = server.submit(&flaky).expect("retry must recover");
    assert!(!outcome.telemetry.degraded, "a real answer, not a fallback");
    let stats = server.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.recovered, 1);
    assert_eq!(stats.errors, 0, "recovered flights are not errors");
    assert_eq!(chaos.injected().errors, 1);
}

/// A retry whose backoff would outlive the request's deadline is not
/// taken: the transient failure is final and degrades at once, so the
/// worker never sleeps past the deadline and shutdown does not wait on
/// it.
#[test]
fn retry_backoff_never_outlives_the_deadline() {
    let mut plan = FaultPlan::seeded(7);
    plan.error_rate = 0.45;
    let (server, chaos) = chaos_server(
        plan,
        ServeConfig {
            workers: 1,
            retry_backoff: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    );
    let flaky = (0..)
        .map(spec)
        .find(|s| {
            let schedule = chaos.schedule(s, 2).expect("stencil specs have keys");
            schedule[0] == Some(FaultKind::Error) && schedule[1].is_none()
        })
        .expect("a fail-once seed exists");
    let outcome = server
        .submit_with_deadline(&flaky, Duration::from_millis(200))
        .expect("the transient failure degrades");
    assert!(outcome.telemetry.degraded);
    assert_eq!(outcome.telemetry.answered_by, Some(Fidelity::Analytic));
    let stats = server.stats();
    assert_eq!(
        stats.retries, 0,
        "a 30 s backoff cannot fit a 200 ms deadline"
    );
    assert_eq!(stats.degraded, 1);
    let dropped = Instant::now();
    drop(server);
    assert!(
        dropped.elapsed() < Duration::from_secs(2),
        "the worker was asleep in a backoff: drop took {:?}",
        dropped.elapsed()
    );
}

/// Panic isolation with degradation on: a panicking cycle-tier request
/// is re-answered from the analytic tier, flagged degraded, never
/// cached — and the worker that caught the panic keeps serving.
#[test]
fn panics_degrade_to_analytic_and_are_not_cached() {
    let mut plan = FaultPlan::seeded(3);
    plan.panic_rate = 1.0;
    let (server, chaos) = chaos_server(
        plan,
        ServeConfig {
            workers: 1,
            breaker_threshold: 0,
            quarantine_threshold: 0,
            ..ServeConfig::default()
        },
    );
    let outcome = server.submit(&spec(1)).expect("degradation answers");
    assert!(outcome.telemetry.degraded);
    assert_eq!(outcome.telemetry.answered_by, Some(Fidelity::Analytic));
    assert!(outcome.telemetry.estimated);
    assert_eq!(server.cached_responses(), 0, "degraded answers never cache");
    // The same spec re-executes (and panics, and degrades) again: the
    // degraded answer stood in for one failure, not for the spec.
    let again = server.submit(&spec(1)).expect("degradation answers again");
    assert!(again.telemetry.degraded);
    let stats = server.stats();
    assert_eq!(stats.panics, 2);
    assert_eq!(stats.degraded, 2);
    assert_eq!(stats.errors, 0, "degraded flights are answers, not errors");
    assert_eq!(chaos.injected().panics, 2);
    // A clean analytic request on the same server still serves directly.
    let estimate = server
        .submit(
            &Workload::new(gallery::jacobi_2d())
                .extent(Extent::new_2d(16, 16))
                .input_seed(1)
                .fidelity(Fidelity::Analytic)
                .freeze()
                .unwrap(),
        )
        .expect("analytic tier is clean");
    assert!(!estimate.telemetry.degraded);
}

/// With degradation off, a panic surfaces as `BackendPanicked` carrying
/// the panic message — to the submitter and (per the lib tests) to every
/// coalesced waiter.
#[test]
fn panics_surface_as_errors_when_degradation_is_off() {
    let mut plan = FaultPlan::seeded(3);
    plan.panic_rate = 1.0;
    let (server, _chaos) = chaos_server(
        plan,
        ServeConfig {
            workers: 1,
            degrade_to_analytic: false,
            breaker_threshold: 0,
            quarantine_threshold: 0,
            ..ServeConfig::default()
        },
    );
    let err = server.submit(&spec(1)).expect_err("panic must surface");
    let ServeError::BackendPanicked { message } = &err else {
        panic!("expected BackendPanicked, got {err}");
    };
    assert!(message.contains("chaos: injected panic"), "{message}");
    assert_eq!(server.stats().errors, 1);
}

/// A degraded stand-in runs outside the execution's isolation, and an
/// uncalibrated one compiles a kernel, so it can panic too: that panic
/// is isolated like the execution's, and the original failure answers.
#[test]
fn a_panicking_stand_in_leaves_the_original_failure() {
    let mut plan = FaultPlan::seeded(3);
    plan.panic_rate = 1.0;
    let mut registry = BackendRegistry::standard();
    for tier in [
        Arc::new(SimBackend) as Arc<dyn Backend>,
        Arc::new(RooflineBackend::new()),
    ] {
        registry.register(Arc::new(FaultInjectingBackend::new(tier, plan)));
    }
    let session = Session::with_registry(registry, Fidelity::Cycles, SessionConfig::default());
    let config = ServeConfig {
        workers: 1,
        breaker_threshold: 0,
        quarantine_threshold: 0,
        ..ServeConfig::default()
    };
    let server = Server::over(session, config).expect("spawn serve workers");
    let err = server.submit(&spec(1)).expect_err("both tiers panic");
    assert!(
        matches!(err, ServeError::BackendPanicked { .. }),
        "expected BackendPanicked, got {err}"
    );
    let stats = server.stats();
    assert_eq!((stats.panics, stats.degraded), (2, 0));
}

/// Deadlines: a request with no latency budget left degrades to an
/// analytic answer (or errors when it cannot degrade) instead of
/// waiting, and the expiry is counted.
#[test]
fn expired_deadlines_degrade_or_fail_cleanly() {
    let (server, _chaos) = chaos_server(FaultPlan::seeded(1), ServeConfig::default());
    let outcome = server
        .submit_with_deadline(&spec(1), Duration::ZERO)
        .expect("deadline expiry degrades");
    assert!(outcome.telemetry.degraded);
    assert_eq!(outcome.telemetry.answered_by, Some(Fidelity::Analytic));
    assert!(server.stats().deadline_exceeded >= 1);

    // Golden-tier requests ask for exact grids — no analytic stand-in —
    // so an expired deadline is an error, not a silent estimate.
    let golden = Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(2)
        .fidelity(Fidelity::Golden)
        .freeze()
        .unwrap();
    let err = server
        .submit_with_deadline(&golden, Duration::ZERO)
        .expect_err("golden cannot degrade");
    assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");

    // A generous deadline changes nothing for a healthy request.
    let ok = server
        .submit_with_deadline(&spec(3), Duration::from_secs(60))
        .expect("healthy request within deadline");
    assert!(!ok.telemetry.degraded);
}

/// The per-tier circuit breaker: consecutive infrastructure failures
/// open it, admission then fails fast without executing, and after the
/// cooldown one half-open probe is let through.
#[test]
fn breaker_opens_after_consecutive_infra_failures_and_half_opens() {
    let mut plan = FaultPlan::seeded(11);
    plan.error_rate = 1.0; // every cycle-tier attempt fails transiently
    let (server, _chaos) = chaos_server(
        plan,
        ServeConfig {
            workers: 1,
            max_retries: 0,
            degrade_to_analytic: false,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(20),
            quarantine_threshold: 0,
            ..ServeConfig::default()
        },
    );
    // Two distinct specs fail: the cycles breaker opens.
    for seed in 0..2 {
        let err = server.submit(&spec(seed)).expect_err("injected failure");
        assert!(matches!(err, ServeError::Execution(_)), "{err}");
    }
    let err = server.submit(&spec(2)).expect_err("breaker rejects");
    assert!(
        matches!(err, ServeError::CircuitOpen { tier: "cycles" }),
        "{err}"
    );
    let stats = server.stats();
    assert_eq!(stats.breaker_rejections, 1);
    assert_eq!(stats.executed, 2, "the rejected request never executed");
    // The analytic tier has its own breaker slot: it still serves.
    server
        .submit(
            &Workload::new(gallery::jacobi_2d())
                .extent(Extent::new_2d(16, 16))
                .input_seed(9)
                .fidelity(Fidelity::Analytic)
                .freeze()
                .unwrap(),
        )
        .expect("analytic tier unaffected by the cycles breaker");
    // After the cooldown, one half-open probe executes (and, still
    // faulty, re-opens the breaker).
    std::thread::sleep(Duration::from_millis(30));
    let err = server.submit(&spec(3)).expect_err("half-open probe fails");
    assert!(matches!(err, ServeError::Execution(_)), "{err}");
    assert_eq!(
        server.stats().executed,
        4,
        "the probe really executed (two failures + one analytic + the probe)"
    );
    let err = server.submit(&spec(4)).expect_err("breaker re-opened");
    assert!(matches!(err, ServeError::CircuitOpen { .. }), "{err}");
}

/// Per-spec quarantine: a spec that keeps failing is rejected at
/// admission without burning an execution, while other specs (sharing
/// the same sick tier) are judged on their own record.
#[test]
fn repeatedly_failing_specs_are_quarantined() {
    let mut plan = FaultPlan::seeded(11);
    plan.error_rate = 1.0;
    let (server, _chaos) = chaos_server(
        plan,
        ServeConfig {
            workers: 1,
            max_retries: 0,
            degrade_to_analytic: false,
            breaker_threshold: 0,
            quarantine_threshold: 2,
            ..ServeConfig::default()
        },
    );
    for _ in 0..2 {
        let err = server.submit(&spec(1)).expect_err("injected failure");
        assert!(matches!(err, ServeError::Execution(_)), "{err}");
    }
    let err = server.submit(&spec(1)).expect_err("quarantine rejects");
    assert!(matches!(err, ServeError::Quarantined), "{err}");
    let stats = server.stats();
    assert_eq!(stats.quarantine_rejections, 1);
    assert_eq!(stats.executed, 2, "the quarantined request never executed");
    // A different spec still gets its own chances.
    let err = server
        .submit(&spec(2))
        .expect_err("fails on its own merits");
    assert!(matches!(err, ServeError::Execution(_)), "{err}");
}

/// Silent corruption is the one fault the serving layer cannot see — and
/// the existing golden-oracle cross-check is the defense: a verifying
/// workload catches the flipped bit as a deterministic
/// `VerificationFailed`, which is neither retried nor degraded. The
/// tolerance is zero — untuned kernels are bit-exact against the
/// reference, so a single flipped mantissa bit (possibly a denormal,
/// ~5e-324) is detectable only by demanding exactness.
#[test]
fn silent_corruption_is_caught_by_the_verification_oracle() {
    let mut plan = FaultPlan::seeded(5);
    plan.corrupt_rate = 1.0;
    let (server, chaos) = chaos_server(
        plan,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let verified = Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(1)
        .verify(0.0)
        .freeze()
        .unwrap();
    let err = server
        .submit(&verified)
        .expect_err("oracle catches the flip");
    let ServeError::Execution(inner) = &err else {
        panic!("expected an execution error, got {err}");
    };
    assert!(
        matches!(**inner, CodegenError::VerificationFailed { .. }),
        "{inner}"
    );
    let stats = server.stats();
    assert_eq!(stats.retries, 0, "a wrong answer is not transient");
    assert_eq!(stats.degraded, 0, "verifying workloads never degrade");
    assert_eq!(chaos.injected().corruptions, 1);
    assert_eq!(server.cached_responses(), 0);
}
