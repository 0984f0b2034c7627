//! Scheduler acceptance tests: asynchronous admission
//! ([`Server::submit_async`] / [`ResponseHandle`]), cost- and
//! deadline-aware ordering with aging, bit-identical answers and one
//! compile per kernel for requests queued behind their peers, and
//! run-to-completion: a blocking miss runs on its caller when a slot is
//! free and nothing is queued, and executions never outnumber the
//! workers.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use saris_codegen::{
    Backend, CodegenError, ExecOutcome, ExecRequest, Fidelity, Session, SimBackend, Workload,
    WorkloadSpec,
};
use saris_core::rng::SplitMix64;
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

/// One backend call, as [`Watched`] saw it start.
#[derive(Debug, Clone, Copy)]
struct Run {
    thread: ThreadId,
    /// Whether it ran on one of the server's `saris-serve-*` workers.
    on_worker: bool,
    /// Points of the first input grid: tells the specs of a test apart
    /// by extent.
    points: usize,
}

/// The cycle tier, watched: every run books where it started and how
/// many runs were in progress with it, waits while the gate is closed,
/// and then lingers, so that runs which may overlap do.
struct Watched {
    open: Mutex<bool>,
    opened: Condvar,
    linger: Duration,
    runs: Mutex<Vec<Run>>,
    active: AtomicUsize,
    peak: AtomicUsize,
}

impl Watched {
    fn new(open: bool, linger: Duration) -> Arc<Watched> {
        Arc::new(Watched {
            open: Mutex::new(open),
            opened: Condvar::new(),
            linger,
            runs: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        })
    }

    fn set_open(&self, open: bool) {
        *self.open.lock().unwrap() = open;
        self.opened.notify_all();
    }

    fn runs(&self) -> Vec<Run> {
        self.runs.lock().unwrap().clone()
    }

    /// Spins until `n` runs are in progress.
    fn await_active(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.active.load(Ordering::SeqCst) != n {
            assert!(Instant::now() < deadline, "{n} runs never started");
            std::thread::yield_now();
        }
    }
}

impl Backend for Watched {
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
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        let me = std::thread::current();
        self.runs.lock().unwrap().push(Run {
            thread: me.id(),
            on_worker: me.name().is_some_and(|n| n.starts_with("saris-serve-")),
            points: req.inputs[0].as_slice().len(),
        });
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        std::thread::sleep(self.linger);
        let outcome = SimBackend.execute(req);
        self.active.fetch_sub(1, Ordering::SeqCst);
        outcome
    }
}

fn watched_server(watched: &Arc<Watched>, workers: usize) -> Server {
    let session = Session::with_backend(Arc::clone(watched) as Arc<dyn Backend>);
    Server::over(
        session,
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

/// Run-to-completion: on an idle server a blocking miss runs on the
/// thread that submitted it, with no handoff; a miss that arrives while
/// every slot is busy queues and runs on a worker.
#[test]
fn a_blocking_miss_runs_on_its_caller_unless_every_slot_is_busy() {
    let watched = Watched::new(true, Duration::ZERO);
    let server = watched_server(&watched, 1);
    server.submit(&spec(1)).unwrap();
    let runs = watched.runs();
    assert!(!runs.is_empty());
    let me = std::thread::current().id();
    assert!(runs.iter().all(|run| run.thread == me), "{runs:?}");

    // The lone slot held by an asynchronous miss, which a worker runs.
    watched.set_open(false);
    let held = server.submit_async(&spec(2));
    watched.await_active(1);
    let queued = std::thread::scope(|scope| {
        let queued = scope.spawn(|| (server.submit(&spec(3)), std::thread::current().id()));
        // Admission and the enqueue are one lock hold: once the miss is
        // counted, it is queued.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().cache_misses < 3 {
            assert!(Instant::now() < deadline, "the third miss never arrived");
            std::thread::yield_now();
        }
        watched.set_open(true);
        queued.join().unwrap()
    });
    let (result, submitter) = queued;
    result.unwrap();
    held.wait().unwrap();
    let later = &watched.runs()[runs.len()..];
    assert!(!later.is_empty());
    assert!(
        later
            .iter()
            .all(|run| run.on_worker && run.thread != submitter),
        "{later:?}"
    );
    assert_eq!(server.stats().executed, 3);
}

/// The slot bound holds whoever runs the job: six threads mixing
/// blocking, asynchronous and deadline'd submissions over two workers
/// never have more than two executions in progress at once, and every
/// submission is answered.
#[test]
fn executions_never_outnumber_the_workers() {
    const THREADS: u64 = 6;
    const EACH: u64 = 8;
    let watched = Watched::new(true, Duration::from_millis(1));
    let server = watched_server(&watched, 2);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = &server;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0x5EED ^ t);
                for _ in 0..EACH {
                    let r = rng.next_u64();
                    // Some seeds repeat across threads: those coalesce
                    // or hit.
                    let spec = spec(r % 32);
                    let result = match (r >> 32) % 4 {
                        0 | 1 => server.submit(&spec),
                        2 => server.submit_async(&spec).wait(),
                        _ => server.submit_with_deadline(&spec, Duration::from_secs(30)),
                    };
                    let outcome = result.expect("every submission is answered");
                    assert!(!outcome.telemetry.degraded);
                }
            });
        }
    });
    let peak = watched.peak.load(Ordering::SeqCst);
    assert!(peak <= 2, "{peak} executions ran at once on two workers");
    assert_eq!(watched.runs().len() as u64, server.stats().executed);
}

/// A blocking submit never overtakes a queued job. A submitter holds the
/// lone slot with its own execution while misses queue behind it; the
/// test thread wakes when that execution's flight completes and submits
/// a blocking miss at once, racing the worker the slot's release wakes.
/// Whichever thread runs it, the later miss starts after every queued
/// one.
#[test]
fn a_queued_job_is_never_overtaken_by_a_later_blocking_submit() {
    let watched = Watched::new(false, Duration::ZERO);
    let server = watched_server(&watched, 1);
    // A bigger tile, so its run is told apart from the queued ones.
    let later = Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(24, 24))
        .input_seed(5)
        .freeze()
        .unwrap();
    std::thread::scope(|scope| {
        let server = &server;
        let holder = scope.spawn(move || server.submit(&spec(1)));
        watched.await_active(1);
        let queued: Vec<ResponseHandle> = (2..5)
            .map(|seed| server.submit_async(&spec(seed)))
            .collect();
        let joined = server.submit_async(&spec(1));
        watched.set_open(true);
        joined.wait().unwrap();
        server.submit(&later).unwrap();
        holder.join().unwrap().unwrap();
        for handle in queued {
            handle.wait().unwrap();
        }
    });
    let runs = watched.runs();
    assert_eq!(runs.len(), 5);
    assert!(!runs[0].on_worker, "the holder ran on its submitter");
    let small = runs[0].points;
    assert!(runs[..4].iter().all(|run| run.points == small), "{runs:?}");
    assert_ne!(
        runs[4].points, small,
        "the later submit ran before a queued job"
    );
}

/// A deadline'd caller keeps its contract on an idle server: its miss
/// queues for a worker instead of running on the caller, so the caller
/// gets its degraded answer at the deadline while the flight runs on
/// and still fills the cache.
#[test]
fn a_deadlined_submit_returns_at_expiry_while_its_flight_runs_on() {
    let watched = Watched::new(false, Duration::ZERO);
    let server = watched_server(&watched, 1);
    let waited = std::thread::scope(|scope| {
        let (sender, receiver) = mpsc::channel();
        let server = &server;
        scope.spawn(move || {
            let _ = sender.send(server.submit_with_deadline(&spec(1), Duration::from_millis(200)));
        });
        let waited = receiver.recv_timeout(Duration::from_secs(30));
        // Open before judging, so that a caller stuck in the backend
        // cannot hang the scope.
        watched.await_active(1);
        let runs = watched.runs();
        watched.set_open(true);
        assert!(runs.iter().all(|run| run.on_worker), "{runs:?}");
        waited
    });
    let degraded = waited
        .expect("the caller returned at its deadline")
        .expect("the deadline degrades to an analytic answer");
    assert!(degraded.telemetry.degraded);
    // The flight ran to completion on the worker and was cached.
    let outcome = server.submit(&spec(1)).unwrap();
    assert!(!outcome.telemetry.degraded);
    let stats = server.stats();
    assert_eq!(stats.executed, 1);
    assert_eq!(stats.deadline_exceeded, 1);
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
