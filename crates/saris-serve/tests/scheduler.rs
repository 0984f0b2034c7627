//! Scheduler acceptance tests: asynchronous admission
//! ([`Server::submit_async`] / [`ResponseHandle`]), cost- and
//! deadline-aware ordering with aging, bit-identical answers and one
//! compile per kernel for requests queued behind their peers.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use saris_codegen::{
    Backend, CodegenError, ExecOutcome, ExecRequest, Fidelity, Session, SimBackend, Workload,
    WorkloadSpec,
};
use saris_core::{gallery, Extent, Grid};
use saris_serve::{ResponseHandle, ServeConfig, Server};

/// A fast cycle-tier spec (~2ms simulated).
fn spec(seed: u64) -> WorkloadSpec {
    Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(seed)
        .freeze()
        .unwrap()
}

/// An analytic-tier spec: ~30µs to answer, the interactive class.
fn analytic(seed: u64) -> WorkloadSpec {
    Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(seed)
        .fidelity(Fidelity::Analytic)
        .freeze()
        .unwrap()
}

/// A slow cycle-tier spec (64x64, five time steps — tens of
/// milliseconds of simulation): occupies the single worker long enough
/// for tests to stack the queue behind it.
fn blocker() -> WorkloadSpec {
    Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(64, 64))
        .input_seed(999)
        .time_steps(5)
        .freeze()
        .unwrap()
}

/// The cycle tier, held: every run reports on `entered`, then waits
/// until the test drops the sending half of `release`, so nothing
/// completes before the test has set up what it needs to see happen on
/// completion.
struct Held {
    entered: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl Backend for Held {
    fn name(&self) -> &'static str {
        SimBackend.name()
    }

    fn fidelity(&self) -> Fidelity {
        SimBackend.fidelity()
    }

    fn needs_kernel(&self) -> bool {
        SimBackend.needs_kernel()
    }

    fn execute(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, CodegenError> {
        let _ = self.entered.lock().unwrap().send(());
        // Returns at once, and for good, once the sender is dropped.
        let _ = self.release.lock().unwrap().recv();
        SimBackend.execute(req)
    }
}

fn bits(grid: &Grid) -> Vec<u64> {
    grid.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The async surface end to end: polling never blocks, waiting returns
/// the shared result, and a handle over an already-cached response is
/// complete at birth.
#[test]
fn async_handles_poll_wait_and_share_the_outcome() {
    let server = Server::with_config(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.submit_async(&spec(1));
    // Poll until the worker publishes; polling has no side effects.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle.is_complete() {
        assert!(Instant::now() < deadline, "flight never completed");
        std::thread::yield_now();
    }
    let polled = handle.try_result().expect("complete handles poll Some");
    let waited = handle.wait().expect("healthy spec succeeds");
    assert!(Arc::ptr_eq(polled.as_ref().unwrap(), &waited));
    // A second async submission of the same spec is answered from the
    // cache before the handle is even returned.
    let cached = server.submit_async(&spec(1));
    assert!(cached.is_complete());
    assert!(Arc::ptr_eq(cached.wait().as_ref().unwrap(), &waited));
    let stats = server.stats();
    assert_eq!(stats.executed, 1);
    assert_eq!(stats.cache_hits, 1);
}

/// Completion callbacks fire exactly once per submission — on the
/// worker for pending flights, immediately for already-answered ones —
/// and dropping a handle without waiting loses nothing.
#[test]
fn callbacks_fire_exactly_once_per_submission() {
    const SUBMISSIONS: usize = 10;
    let server = Server::with_config(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let failures = Arc::new(AtomicUsize::new(0));
    for seed in 0..SUBMISSIONS as u64 {
        // Half the seeds duplicate: those coalesce or hit the cache.
        let fired = Arc::clone(&fired);
        let failures = Arc::clone(&failures);
        server
            .submit_async(&spec(seed % 5))
            .on_complete(move |result| {
                fired.fetch_add(1, Ordering::SeqCst);
                if result.is_err() {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
            });
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while fired.load(Ordering::SeqCst) < SUBMISSIONS {
        assert!(Instant::now() < deadline, "callbacks never all fired");
        std::thread::yield_now();
    }
    // Exactly once each: no double delivery, ever.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(fired.load(Ordering::SeqCst), SUBMISSIONS);
    assert_eq!(failures.load(Ordering::SeqCst), 0);
    assert_eq!(server.stats().executed, 5, "five unique specs");
}

/// A callback is caller code on a worker thread: one that panics is
/// isolated and counted, the other callbacks of its flight still get
/// the result, and the worker lives to answer the next request.
#[test]
fn a_panicking_callback_spares_its_flight_and_its_worker() {
    let (release, held) = mpsc::channel();
    let (running, entered) = mpsc::channel();
    let session = Session::with_backend(Arc::new(Held {
        entered: Mutex::new(running),
        release: Mutex::new(held),
    }));
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::over(session, config).unwrap();
    // Two handles on one flight, both attached while the lone worker is
    // held on the blocker, so both callbacks run on it when the flight
    // completes.
    let gate = server.submit_async(&blocker());
    entered.recv().unwrap();
    let (first, second) = (server.submit_async(&spec(1)), server.submit_async(&spec(1)));
    first.on_complete(|_| panic!("callback panics on the worker"));
    let (sender, receiver) = std::sync::mpsc::channel();
    second.on_complete(move |result| sender.send(result).unwrap());
    drop(release);
    gate.wait().expect("blocker completes");
    let delivered = receiver
        .recv_timeout(Duration::from_secs(30))
        .expect("the second callback fires despite the first");
    assert!(delivered.is_ok());
    let golden = Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(2)
        .fidelity(Fidelity::Golden)
        .freeze()
        .unwrap();
    server.submit(&golden).expect("the worker is still there");
    let stats = server.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.coalesced, 1, "both handles shared one flight");
}

/// With aging disabled the cost-aware order is pure slack ordering:
/// jobs enqueued in scrambled deadline order complete tightest-deadline
/// first. Deterministic because the deadlines are seconds apart — far
/// wider than any execution-time jitter.
#[test]
fn cost_aware_order_is_deterministic_at_widely_spaced_deadlines() {
    let server = Server::with_config(ServeConfig {
        workers: 1,
        aging_rate: 0.0,
        ..ServeConfig::default()
    })
    .unwrap();
    // Occupy the lone worker so the queue builds up behind it.
    let gate = server.submit_async(&blocker());
    // Scrambled arrival; slack says 1s, 2s, .., 5s must run in order.
    let order = Arc::new(Mutex::new(Vec::new()));
    let scrambled: [u64; 5] = [3, 1, 5, 2, 4];
    for &slack_secs in &scrambled {
        let order = Arc::clone(&order);
        server
            .submit_async_with_deadline(&analytic(slack_secs), Duration::from_secs(slack_secs))
            .on_complete(move |result| {
                assert!(result.is_ok());
                order.lock().unwrap().push(slack_secs);
            });
    }
    gate.wait().expect("blocker completes");
    let deadline = Instant::now() + Duration::from_secs(30);
    while order.lock().unwrap().len() < scrambled.len() {
        assert!(Instant::now() < deadline, "queued jobs never completed");
        std::thread::yield_now();
    }
    assert_eq!(*order.lock().unwrap(), vec![1, 2, 3, 4, 5]);
}

/// The starvation property: under a continuous interactive flood,
/// deadline-free bulk work still completes because waiting accrues
/// aging credit — and every admitted job (bulk and flood alike)
/// resolves to a completed result.
#[test]
fn aging_prevents_starvation_under_saturation() {
    const BULK: u64 = 6;
    let server = Server::with_config(ServeConfig {
        workers: 1,
        // One second of queue wait is worth five of slack: bulk jumps a
        // fresh 50ms-deadline flood after ~200ms, keeping this test
        // fast while still proving the mechanism.
        aging_rate: 5.0,
        ..ServeConfig::default()
    })
    .unwrap();
    let stop = AtomicBool::new(false);
    let bulk_results = std::thread::scope(|scope| {
        let server = &server;
        let stop = &stop;
        // Flood: two producers hammer unique interactive requests; each
        // carries a 50ms deadline and a fresh seed, so the queue almost
        // always holds an interactive job that outranks un-aged bulk.
        let producers: Vec<_> = (0..2)
            .map(|p| {
                scope.spawn(move || {
                    let mut handles: Vec<ResponseHandle> = Vec::new();
                    let mut seed = 1_000_000 * (p + 1);
                    while !stop.load(Ordering::Acquire) {
                        seed += 1;
                        handles.push(server.submit_async_with_deadline(
                            &analytic(seed),
                            Duration::from_millis(50),
                        ));
                    }
                    handles
                })
            })
            .collect();
        // Bulk: deadline-free cycle-tier work admitted mid-flood.
        let bulk: Vec<ResponseHandle> = (0..BULK)
            .map(|seed| server.submit_async(&spec(seed)))
            .collect();
        let results: Vec<_> = bulk.into_iter().map(ResponseHandle::wait).collect();
        stop.store(true, Ordering::Release);
        for producer in producers {
            for handle in producer.join().unwrap() {
                // Every admitted flood request resolves: answered, or
                // degraded on deadline expiry — never lost, never hung.
                let result = handle.wait();
                assert!(result.is_ok(), "flood request lost: {result:?}");
            }
        }
        results
    });
    for result in &bulk_results {
        let outcome = result.as_ref().expect("bulk completes despite the flood");
        assert!(!outcome.telemetry.degraded, "bulk had no deadline to blow");
    }
    let stats = server.stats();
    assert_eq!(
        stats.requests,
        stats.cache_hits
            + stats.cache_misses
            + stats.coalesced
            + stats.breaker_rejections
            + stats.quarantine_rejections,
        "conservation holds under saturation: {stats:?}"
    );
}

/// Golden specs sharing a compile fingerprint, answered from behind a
/// queue of their peers, are bit-identical to fresh serial execution on
/// a clean engine — and each executes exactly once.
#[test]
fn golden_groups_batch_and_stay_bit_identical() {
    const GROUP: u64 = 8;
    let golden = |seed: u64| {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(seed)
            .fidelity(Fidelity::Golden)
            .freeze()
            .unwrap()
    };
    let server = Server::with_config(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let gate = server.submit_async(&blocker());
    let handles: Vec<ResponseHandle> = (0..GROUP)
        .map(|seed| server.submit_async(&golden(seed)))
        .collect();
    gate.wait().expect("blocker completes");
    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|handle| handle.wait().expect("golden batch succeeds"))
        .collect();
    let stats = server.stats();
    assert_eq!(stats.executed, GROUP + 1);
    // Bit-identity against a clean serial engine.
    let clean = Session::new();
    for (seed, served) in outcomes.iter().enumerate() {
        let fresh = clean.submit(&golden(seed as u64)).expect("serial run");
        assert_eq!(served.grids.len(), fresh.grids.len());
        for (a, b) in served.grids.iter().zip(&fresh.grids) {
            assert_eq!(bits(a), bits(b), "batched grids must match serial");
        }
        assert_eq!(served.reports, fresh.reports);
    }
}

/// Queued cycle-tier specs sharing a kernel compile it once: the first
/// to run compiles, the peers dequeue into kernel-cache hits.
#[test]
fn kernel_groups_compile_once_for_their_peers() {
    const GROUP: u64 = 6;
    let server = Server::with_config(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let gate = server.submit_async(&blocker());
    let handles: Vec<ResponseHandle> = (0..GROUP)
        .map(|seed| server.submit_async(&spec(seed)))
        .collect();
    gate.wait().expect("blocker completes");
    for handle in handles {
        handle.wait().expect("group member succeeds");
    }
    // One compile for the blocker's 64x64 kernel, one for the whole
    // 16x16 group; every other member hit the kernel cache.
    let session = server.session().stats();
    assert_eq!(session.compiles, 2);
    assert!(session.cache_hits >= GROUP - 1, "{session:?}");
}
