//! # saris-serve — the long-lived serving layer over the execution engine
//!
//! A [`Server`] turns a [`Session`] into a service: callers hand it
//! [`WorkloadSpec`]s from any number of threads and get shared
//! [`Outcome`]s back, while the server keeps the per-request cost as low
//! as the traffic allows:
//!
//! * **bounded execution**: at most [`ServeConfig::workers`] executions
//!   run at once (one pooled cluster each via the session), so bursts
//!   queue instead of oversubscribing the machine. A blocking
//!   [`Server::submit`] that misses runs its own execution, on its own
//!   thread, when a slot is free and nothing is queued — no handoff on
//!   the path of the answer. Everything else goes through a **bounded
//!   work queue** that a fixed pool of worker threads drains;
//! * a **fingerprint-keyed, cost-aware response cache** answers repeated
//!   specs without executing anything: a hit is a map probe and an `Arc`
//!   clone. Eviction weighs each response by its *cost of recompute* (a
//!   cycle-tier answer costs ~700x an analytic one, the tier gap
//!   `BENCHMARK.json` tracks as `serve.first_us.{analytic,golden,cycles}`)
//!   and drops cheap ones first instead of going by pure recency;
//! * **single-flight deduplication** coalesces concurrent identical
//!   specs onto one execution whose `Arc<Outcome>` they all share. Flights
//!   and cached responses are rows of one per-spec [`Table`] — the
//!   single-flight table of [`saris_codegen::flight`], which also keeps
//!   the session's kernels — so a spec is running, cached or new;
//! * a **cost- and deadline-aware scheduler** orders the queue by
//!   deadline slack and the same deterministic per-tier recompute costs
//!   the response cache weighs eviction by (cycles ~700x / golden 2x /
//!   analytic 1x), with aging so bulk work cannot starve behind a
//!   stream of interactive requests. A worker takes the best-scored job
//!   when a slot frees, and every execution — a worker's or a blocking
//!   submitter's — runs through [`Session::submit`]: one path from a
//!   spec to its outcome, whatever else is queued; requests that share a
//!   kernel meet in the session's kernel cache, where the first compiles
//!   and the rest hit;
//! * **asynchronous admission** ([`Server::submit_async`]) returns a
//!   [`ResponseHandle`] the producer polls, waits on, or attaches a
//!   completion callback to, so submission decouples from completion and
//!   one producer thread can keep every execution slot fed.
//!
//! Responses are cacheable because specs are deterministic by
//! construction: seeded inputs, a deterministic simulator, and a
//! fingerprint covering everything that affects the result (fidelity
//! tier included). Failed submissions are *not* cached — a retry
//! re-executes.
//!
//! # Fault tolerance
//!
//! The serving layer assumes the execution engine can misbehave — the
//! chaos harness ([`FaultInjectingBackend`]) exists precisely to make it
//! do so on demand — and survives every failure mode it can observe:
//!
//! * **panic isolation** — the thread running an execution, worker or
//!   submitter, catches backend panics (`catch_unwind`), converts them to
//!   [`ServeError::BackendPanicked`], and publishes that to every
//!   coalesced waiter; the flight is always removed and its condvar
//!   always signaled, so nobody hangs on a dead execution;
//! * **poison recovery** — the state lock and each flight's result slot
//!   recover from poisoning and count it in
//!   [`ServeStats::lock_recoveries`]: a panic while a lock is held
//!   degrades one snapshot, never the server;
//! * **deadlines** — [`Server::submit_with_deadline`] (or
//!   [`ServeConfig::default_deadline`]) bounds end-to-end latency:
//!   expiry is enforced while blocked on a full queue, at dequeue, and
//!   in the waiters' timed condvar waits;
//! * **bounded retry** — [`CodegenError::is_transient`] faults are
//!   retried up to [`ServeConfig::max_retries`] times with doubling
//!   backoff; deterministic workload errors are never retried;
//! * **graceful degradation** — when retries are exhausted, a backend
//!   panics, a deadline expires, or a circuit is open, the server
//!   re-answers cycle-tier and auto-routed requests from the analytic
//!   tier instead of failing (the outcome carries
//!   `telemetry.degraded = true` and is never cached);
//! * **circuit breaking & quarantine** — consecutive infrastructure
//!   failures open a per-tier breaker (requests degrade or fail fast
//!   until a cooldown passes), and specs that keep failing are
//!   quarantined by fingerprint until one succeeds.
//!
//! [`FaultInjectingBackend`]: saris_codegen::FaultInjectingBackend
//! [`CodegenError::is_transient`]: saris_codegen::CodegenError::is_transient
//!
//! ```
//! use saris_codegen::{Fidelity, Workload};
//! use saris_core::{gallery, Extent};
//! use saris_serve::Server;
//!
//! # fn main() -> Result<(), saris_serve::ServeError> {
//! let server = Server::new()?;
//! let spec = Workload::new(gallery::jacobi_2d())
//!     .extent(Extent::new_2d(16, 16))
//!     .input_seed(1)
//!     .freeze()
//!     .expect("valid spec");
//! let first = server.submit(&spec)?;
//! let again = server.submit(&spec)?; // answered from the response cache
//! assert!(std::sync::Arc::ptr_eq(&first, &again));
//! let stats = server.stats();
//! assert_eq!((stats.cache_hits, stats.executed), (1, 1));
//!
//! // Estimate-class requests ride the same surface on the analytic tier.
//! let estimate = server.submit(
//!     &Workload::new(gallery::jacobi_2d())
//!         .extent(Extent::new_2d(16, 16))
//!         .input_seed(1)
//!         .fidelity(Fidelity::Analytic)
//!         .freeze()
//!         .expect("valid spec"),
//! )?;
//! assert!(estimate.telemetry.estimated);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use saris_codegen::flight::{relock, wait_until, Flight, Lookup, Table};
use saris_codegen::{CodegenError, Fidelity, Outcome, Session, WorkloadSpec};

pub mod net;

pub use net::{NetClient, NetServer};

/// What a served submission resolves to: a shared outcome, or a shared
/// execution error.
pub type ServeResult = Result<Arc<Outcome>, ServeError>;

/// Why a served submission failed.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The execution engine rejected or failed the workload. The error
    /// is shared (`Arc`) because every coalesced waiter of a failed
    /// flight receives it.
    Execution(Arc<CodegenError>),
    /// The backend panicked while executing the workload. The thread
    /// running the execution caught the unwind, so the panic took down
    /// one execution — not that thread, not the server — and every
    /// coalesced waiter receives this same error.
    BackendPanicked {
        /// The panic payload, when it was a string (the usual case);
        /// `"opaque panic payload"` otherwise.
        message: String,
    },
    /// The request's deadline expired before a result was available —
    /// while blocked on a full queue, while queued, or while waiting on
    /// an in-flight execution.
    DeadlineExceeded,
    /// The fidelity tier this request routes to has seen too many
    /// consecutive infrastructure failures and its circuit breaker is
    /// open; the request was rejected without queueing. Degradation (if
    /// enabled) is attempted first — this error surfaces only when the
    /// analytic tier cannot stand in.
    CircuitOpen {
        /// The backend tier whose breaker is open.
        tier: &'static str,
    },
    /// This exact spec (by fingerprint) has failed too many times in a
    /// row and is quarantined until some submission of it succeeds or
    /// the server is dropped.
    Quarantined,
    /// A worker thread could not be spawned while constructing the
    /// server (resource exhaustion). No server is returned; any workers
    /// already spawned were shut down and joined.
    Spawn {
        /// The OS error that failed the spawn.
        reason: String,
    },
    /// The server shut down before the request could execute.
    ShutDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Execution(e) => write!(f, "execution failed: {e}"),
            ServeError::BackendPanicked { message } => {
                write!(f, "backend panicked: {message}")
            }
            ServeError::DeadlineExceeded => {
                f.write_str("deadline exceeded before the request completed")
            }
            ServeError::CircuitOpen { tier } => {
                write!(f, "circuit breaker open for the `{tier}` tier")
            }
            ServeError::Quarantined => f.write_str("workload quarantined after repeated failures"),
            ServeError::Spawn { reason } => {
                write!(f, "failed to spawn serve worker: {reason}")
            }
            ServeError::ShutDown => f.write_str("server shut down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Execution(e) => Some(&**e),
            _ => None,
        }
    }
}

/// Sizing and fault-tolerance policy of a [`Server`].
// Not `Eq`: `aging_rate` is an `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Executions that run at once, on any thread, and the worker
    /// threads that drain the queue. `0` means one per available CPU.
    /// A blocking [`Server::submit`] may run its own execution in one of
    /// these slots (see the crate docs); a worker takes a queued job only
    /// when a slot is free.
    ///
    /// Default `0`: serving throughput scales with cores, and each
    /// execution holds at most one pooled cluster, so per-CPU sizing
    /// never oversubscribes the simulator.
    pub workers: usize,
    /// Maximum queued (accepted but not yet executing) requests;
    /// submissions beyond this block until a worker drains the queue. A
    /// blocking submission that runs its own execution never queues.
    /// `0` means `1`: a queue that can hold no job would block every
    /// cache miss until its deadline or shutdown.
    ///
    /// Default `256`: deep enough to absorb a gallery-sized burst
    /// without blocking submitters, small enough that a wedged backend
    /// surfaces as blocked submissions (back-pressure) rather than
    /// unbounded memory growth.
    pub queue_depth: usize,
    /// Maximum responses kept in the response cache (`0` disables
    /// response caching; single-flight coalescing still applies to
    /// concurrent duplicates). Beyond it the GreedyDual policy evicts
    /// the entry that is cheapest to recompute and longest unused.
    ///
    /// An entry is the spec (its key) and the whole [`Outcome`] — output
    /// grids, per-core reports, telemetry — so its cost follows the tile:
    /// about 7 KB resident for a 16x16 tile, 33 KB at the paper's 64x64.
    /// A server under steady unique traffic holds the full bound within
    /// a second, so the bound *is* the cache's memory: 256 entries are
    /// ~2 MiB at 16x16 and ~8 MiB at 64x64, per server — and a sharded
    /// deployment runs one server per shard.
    ///
    /// Default `256`. The hot set of every committed workload, test and
    /// example fits in half of that (`serve_hot` draws nine requests in
    /// ten from 128 specs). Raise it when the traffic's reuse distance is
    /// longer than 256 distinct specs *and* a recompute (one tier
    /// execution; the compiled kernel stays in the session's cache
    /// either way) costs more than the memory: watch
    /// [`ServeStats::cache_evictions`] against
    /// [`ServeStats::cache_hits`].
    pub max_cached_responses: usize,
    /// Deadline applied to every [`Server::submit`] /
    /// [`Server::submit_all`] request that does not carry an explicit
    /// one ([`Server::submit_with_deadline`] always wins).
    ///
    /// Default `None`: requests wait as long as execution takes.
    /// Latency-sensitive callers opt in; the serving layer then bounds
    /// queue-full blocking, queue residency, and result waits by the
    /// same instant, degrading to the analytic tier on expiry when
    /// [`degrade_to_analytic`](ServeConfig::degrade_to_analytic) is set.
    pub default_deadline: Option<Duration>,
    /// Retries for *transient* execution faults
    /// ([`CodegenError::is_transient`]); deterministic workload errors
    /// are never retried.
    ///
    /// Default `2` (three attempts total): enough to ride out a blip
    /// without tripling worst-case latency for genuinely-down backends
    /// — the circuit breaker handles those.
    ///
    /// [`CodegenError::is_transient`]: saris_codegen::CodegenError::is_transient
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    ///
    /// Default `1ms`: transient faults in this system are
    /// scheduling-scale (a wedged cluster slot, an injected chaos
    /// fault), not network-scale, so millisecond backoff is enough to
    /// reorder around them without stalling a worker visibly.
    pub retry_backoff: Duration,
    /// Re-answer failed cycle-tier and auto-routed requests from the
    /// analytic tier (marked `telemetry.degraded`, never cached) when
    /// retries are exhausted, the backend panics, a deadline expires, or
    /// a circuit is open.
    ///
    /// Default `true`: the analytic tier's estimate (calibrated
    /// single-cluster rates, or the kernel's proven cycle bound) is
    /// exactly the fast stand-in a degraded answer calls for. Callers
    /// that must never see an estimate where they asked for a
    /// measurement set this to `false` and handle the errors.
    pub degrade_to_analytic: bool,
    /// Consecutive *infrastructure* failures (transient faults, panics)
    /// on one fidelity tier that open its circuit breaker; `0` disables
    /// breaking.
    ///
    /// Default `8`: far above anything deterministic test traffic
    /// produces, low enough that a genuinely wedged backend stops
    /// burning retry budget within a dozen requests.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects (or degrades) requests before
    /// letting one probe request through half-open.
    ///
    /// Default `250ms`: long enough for a transient infrastructure
    /// condition to clear, short enough that tests and interactive
    /// callers see recovery promptly.
    pub breaker_cooldown: Duration,
    /// Final failures (any cause) of one spec fingerprint that
    /// quarantine it — subsequent submissions fail fast with
    /// [`ServeError::Quarantined`] until one succeeds; `0` disables
    /// quarantine.
    ///
    /// Default `8`: a deterministic failure re-submitted a few times in
    /// tests stays visible as an error; only a caller hammering a known
    /// -bad spec gets cut off.
    pub quarantine_threshold: u32,
    /// Aging rate of the scheduler. Each queued job is scored by its
    /// deadline slack plus its modeled recompute cost (the same
    /// deterministic per-tier units the response cache weighs eviction
    /// by: cycles ~700x / golden 2x / analytic 1x); the lowest score
    /// runs next, with arrival order as the deterministic tie-breaker —
    /// arrival order alone is the wrong order whenever a
    /// deadline-carrying estimate queues behind a bulk sweep. Every
    /// second a job waits in the queue subtracts `aging_rate` seconds
    /// from its effective slack, so bulk work cannot starve behind an
    /// unbounded stream of urgent requests. `0.0` disables aging (pure
    /// slack-plus-cost ordering).
    ///
    /// Default `1.0` — waiting one second is worth one second of slack:
    /// a deadline-free bulk job (which schedules as if it had
    /// [`BULK_SLACK_SECS`] of slack) outranks a fresh interactive
    /// request after about a second in queue, which bounds bulk latency
    /// at roughly the interactive deadline scale without ever letting a
    /// sweep preempt a request that is actually about to expire.
    pub aging_rate: f64,
}

impl Default for ServeConfig {
    /// One worker per CPU, a queue deep enough to absorb bursts, a
    /// response cache of 256 entries (a quarter of the session's kernel
    /// cache; see [`ServeConfig::max_cached_responses`]), and the
    /// fault-tolerance defaults documented on each field.
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_depth: 256,
            max_cached_responses: 256,
            default_deadline: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            degrade_to_analytic: true,
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(250),
            quarantine_threshold: 8,
            aging_rate: 1.0,
        }
    }
}

impl ServeConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Serving counters, in the spirit of
/// [`SessionStats`](saris_codegen::SessionStats): everything the cache
/// and single-flight layers saved, next to what actually executed and
/// what the fault-tolerance machinery absorbed.
///
/// Conservation: `requests == cache_hits + cache_misses + coalesced +
/// breaker_rejections + quarantine_rejections`. How `Auto` requests were
/// routed is the session's record
/// ([`SessionStats::auto_answered_analytic`](saris_codegen::SessionStats)
/// and `auto_escalated`); a cache hit makes no routing decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted ([`Server::submit`] calls and
    /// [`Server::submit_all`] elements).
    pub requests: u64,
    /// Requests answered from the response cache (no execution, no
    /// queueing).
    pub cache_hits: u64,
    /// Requests that missed the cache and were enqueued as flight
    /// leaders.
    pub cache_misses: u64,
    /// Responses evicted by the GreedyDual policy beyond
    /// [`ServeConfig::max_cached_responses`]: cheapest to recompute
    /// first, least recently used among equals.
    pub cache_evictions: u64,
    /// Requests coalesced onto an already-in-flight identical spec
    /// (single-flight saves: these neither executed nor queued).
    pub coalesced: u64,
    /// Workloads actually executed, by a worker or by the submitting
    /// thread (deadline-expired jobs dropped at dequeue are not counted
    /// here).
    pub executed: u64,
    /// Executions whose final result was an error (after retries and
    /// degradation; errors propagate to every coalesced waiter and are
    /// never cached).
    pub errors: u64,
    /// Panics caught and isolated on serving threads: a backend that
    /// panicked in an execution or in its degraded stand-in, or a
    /// completion callback
    /// ([`ResponseHandle::on_complete`]) that panicked when its flight
    /// completed.
    pub panics: u64,
    /// Retry attempts made for transient execution faults.
    pub retries: u64,
    /// Executions that failed transiently but succeeded on a retry.
    pub recovered: u64,
    /// Requests re-answered from the analytic tier after an
    /// infrastructure failure, deadline expiry, or open circuit (the
    /// outcome carries `telemetry.degraded` and is never cached).
    pub degraded: u64,
    /// Deadline expiries observed — while blocked on a full queue, at
    /// dequeue, or in a waiter's timed wait.
    pub deadline_exceeded: u64,
    /// Requests rejected (or degraded) because their tier's circuit
    /// breaker was open.
    pub breaker_rejections: u64,
    /// Requests rejected because their spec fingerprint is quarantined.
    pub quarantine_rejections: u64,
    /// Poisoned serve-side locks recovered (a panic unwound through a
    /// critical section; the lock was cleared and service continued).
    pub lock_recoveries: u64,
    /// Total recompute cost the response cache saved: the sum of the
    /// cost units of every cache hit — what those requests would have
    /// paid to re-execute, in analytic-answer units (a cycle-tier run
    /// counts ~700, the measured tier gap).
    pub cost_units_saved: u64,
    /// Retired, always 0: the scheduler no longer forms batches. The
    /// field stays only because the benchmark harness reads it by name;
    /// it goes with that read.
    pub batches_formed: u64,
    /// Retired, always 0, kept for the same reason as
    /// [`batches_formed`](ServeStats::batches_formed). Compiles that
    /// concurrent requests for one kernel did not repeat are counted by
    /// the session ([`SessionStats::compiles_saved`](saris_codegen::SessionStats)).
    pub compiles_saved: u64,
}

/// Relative per-run cost of answering on a tier, in analytic-answer
/// units — the single scale shared by the GreedyDual cache's eviction
/// weights ([`recompute_cost`]) and the scheduler's ordering weights
/// ([`Job::cost`]). The weights follow the measured per-tier cost of a
/// first answer, which `BENCHMARK.json` tracks as
/// `serve.first_us.{analytic,golden,cycles}`:
///
/// * analytic = 1.0 — the roofline tier's ~30µs estimates are the unit;
/// * golden = 2.0 — the data-parallel reference sweep, ~43µs a request;
/// * cycles = 700.0 — tuned cycle-level simulation answers ~700x slower
///   than the roofline tier.
///
/// [`Fidelity::Auto`] is costed like the cycle tier: the expensive
/// outcome it may escalate to. Deterministic by construction, so
/// cost-weighted decisions are reproducible.
fn tier_cost(fidelity: Fidelity) -> f64 {
    match fidelity {
        Fidelity::Analytic => 1.0,
        Fidelity::Golden => 2.0,
        Fidelity::Cycles | Fidelity::Auto { .. } => 700.0,
    }
}

/// Relative cost of recomputing one cached response: the answering
/// tier's [`tier_cost`] scaled by how many kernel executions the
/// workload performed (tuning candidates, time steps) — how much work
/// re-executing the spec would take if the entry were evicted.
fn recompute_cost(outcome: &Outcome) -> f64 {
    // Cycle-tier cost is the conservative default for probes (which
    // always simulate) and for custom backends that don't record a tier.
    let per_run = tier_cost(outcome.telemetry.answered_by.unwrap_or(Fidelity::Cycles));
    per_run * outcome.telemetry.runs.max(1) as f64
}

/// A queued unit of work: the spec, the flight its waiters share, the
/// leader's deadline (enforced again at dequeue), and the scheduling
/// metadata the scheduler orders by.
struct Job {
    spec: WorkloadSpec,
    flight: Arc<Flight<ServeResult>>,
    deadline: Option<Instant>,
    /// Admission order — the deterministic tie-breaker.
    seq: u64,
    enqueued_at: Instant,
    /// Modeled recompute cost in analytic-answer units (the response
    /// cache's scale; see [`recompute_cost`]), fixed at admission.
    cost: f64,
}

/// The slack a deadline-free job schedules with, in seconds: far enough
/// out that every live deadline beats it, close enough that aging
/// ([`ServeConfig::aging_rate`]) promotes waiting bulk work within
/// interactive timescales.
pub const BULK_SLACK_SECS: f64 = 1.0;

/// Seconds one analytic-answer cost unit is worth in the scheduler's
/// score — the measured wall cost of one analytic request (~30µs;
/// `BENCHMARK.json` tracks it as `serve.first_us.analytic`), which makes
/// a ~700-unit cycle-tier job weigh in at ~21ms of slack-equivalent:
/// ahead of nothing urgent, behind everything interactive.
const COST_UNIT_SECS: f64 = 30e-6;

/// A job's scheduling score: deadline slack (seconds; negative once
/// expired) plus modeled cost, minus the aging credit. Lower runs sooner.
fn urgency(job: &Job, now: Instant, aging_rate: f64) -> f64 {
    let slack = match job.deadline {
        None => BULK_SLACK_SECS,
        Some(deadline) => {
            if deadline >= now {
                (deadline - now).as_secs_f64()
            } else {
                -(now - deadline).as_secs_f64()
            }
        }
    };
    let age = now.saturating_duration_since(job.enqueued_at).as_secs_f64();
    slack + job.cost * COST_UNIT_SECS - age * aging_rate
}

/// Picks the next job to run: the lowest [`urgency`]. Pure over its
/// inputs (`now` included), so scheduling decisions are unit-testable
/// without a server. Ties break by admission order, which keeps
/// equal-score traffic deterministically first-in-first-out.
fn pick_index(jobs: &[Job], now: Instant, aging_rate: f64) -> Option<usize> {
    jobs.iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            urgency(a, now, aging_rate)
                .total_cmp(&urgency(b, now, aging_rate))
                .then(a.seq.cmp(&b.seq))
        })
        .map(|(i, _)| i)
}

/// Per-tier consecutive-infrastructure-failure breaker state.
#[derive(Default)]
struct Breaker {
    consecutive: u32,
    open_until: Option<Instant>,
}

/// Breaker slots: [`TIER_NAMES`] indexes. Probes and `Auto` requests
/// route to the cycle tier's slot — that is where their infrastructure
/// risk lives.
const TIER_NAMES: [&str; 3] = ["analytic", "cycles", "golden"];

/// The breaker slot ([`TIER_NAMES`] index) of a planned tier.
fn tier_slot(tier: Fidelity) -> usize {
    match tier {
        Fidelity::Analytic => 0,
        Fidelity::Golden => 2,
        _ => 1,
    }
}

/// Most spec fingerprints the quarantine books hold strikes for. Only a
/// success clears a spec's strikes, and a deterministically failing
/// spec never succeeds: unbounded, the books would keep every distinct
/// failing spec — remote clients' included — for the process's life.
/// At the bound, the spec with the fewest strikes is forgotten.
const QUARANTINE_CAPACITY: usize = 1024;

/// How long [`Server::drop`] waits for workers to finish their in-flight
/// jobs before detaching wedged ones (with a logged warning) instead of
/// hanging the dropping thread forever: an order of magnitude above the
/// slowest single cycle-tier execution in the bench suite, so a healthy
/// server always joins cleanly.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(5);

/// How one job's execution ended, for the breaker and quarantine books
/// ([`State::settle`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Never ran: its deadline expired while it was queued.
    Expired,
    Succeeded,
    /// Failed for good on infrastructure (a panic, a transient fault):
    /// a strike against the spec and against its tier's breaker.
    Faulted,
    /// Failed for good on the workload itself: a strike against the
    /// spec only.
    Failed,
}

/// Everything submitters and workers share, behind one lock
/// ([`Shared::state`]). It is plain data: each serving stage is a
/// thread-free method here, given the config and the time, and the
/// shells on [`Shared`] lock once per stage and run nothing else — no
/// session call, no completion callback — while they hold the lock.
#[derive(Default)]
struct State {
    /// The scheduler queue, unordered: [`pick_index`] decides what runs
    /// next, so changing the ordering never touches the queue.
    jobs: Vec<Job>,
    /// Set at shutdown; no job is queued after it.
    closed: bool,
    /// Admission order of the next led job.
    next_seq: u64,
    /// The single-flight table and the response cache in one: a
    /// response's cost is its [`recompute_cost`].
    specs: Table<WorkloadSpec, Arc<Outcome>, ServeResult>,
    breakers: [Breaker; 3],
    /// Final-failure strikes per spec fingerprint (a success clears the
    /// entry); at most [`QUARANTINE_CAPACITY`] entries.
    quarantine: HashMap<u64, u32>,
    stats: ServeStats,
    /// Workers whose loop is still running; [`Shared::worker_exit`]
    /// signals each decrement so shutdown can wait with a bound.
    live_workers: usize,
    /// Executions running now, on a worker or on a submitting thread:
    /// a job takes a slot when it is picked or claimed and gives it back
    /// at release, once its flight is complete.
    running: usize,
    /// The execution bound, [`ServeConfig::effective_workers`]: `running`
    /// never exceeds it.
    slots: usize,
}

impl State {
    /// The lookup stage: books the request, then answers it from the
    /// cache (refreshing the entry's GreedyDual priority and recency) or
    /// joins the flight already running the spec. A [`Lookup::Miss`]
    /// goes on to [`State::admission`].
    fn lookup(&mut self, spec: &WorkloadSpec) -> Lookup<'_, Arc<Outcome>, ServeResult> {
        self.stats.requests += 1;
        let found = self.specs.lookup(spec);
        match &found {
            Lookup::Hit(_, cost) => {
                self.stats.cache_hits += 1;
                self.stats.cost_units_saved += *cost as u64;
            }
            Lookup::Join(_) => self.stats.coalesced += 1,
            Lookup::Miss => {}
        }
        found
    }

    /// The admission stage for a request that missed: a quarantined
    /// spec or an open breaker on its planned `tier` refuses it;
    /// otherwise a new flight enters the table and its job, stamped with
    /// the admission order and time, goes to the caller, who leads it:
    /// it must queue the job or take the flight back out of the table.
    /// (A leader blocked on a full queue therefore ages from admission.)
    /// An expired breaker cooldown lets exactly one request through
    /// half-open: the counter is reset to one-below-threshold, so its
    /// failure re-opens the breaker immediately and its success resets
    /// it.
    fn admission(
        &mut self,
        config: &ServeConfig,
        spec: &WorkloadSpec,
        tier: Fidelity,
        deadline: Option<Instant>,
        now: Instant,
    ) -> Result<Job, ServeError> {
        if config.quarantine_threshold > 0
            && self
                .quarantine
                .get(&spec.fingerprint())
                .is_some_and(|strikes| *strikes >= config.quarantine_threshold)
        {
            self.stats.quarantine_rejections += 1;
            return Err(ServeError::Quarantined);
        }
        if config.breaker_threshold > 0 {
            let slot = tier_slot(tier);
            let breaker = &mut self.breakers[slot];
            if let Some(open_until) = breaker.open_until {
                if now < open_until {
                    self.stats.breaker_rejections += 1;
                    return Err(ServeError::CircuitOpen {
                        tier: TIER_NAMES[slot],
                    });
                }
                breaker.open_until = None;
                breaker.consecutive = config.breaker_threshold.saturating_sub(1);
            }
        }
        self.stats.cache_misses += 1;
        let flight = self.specs.lead(spec.clone());
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(Job {
            spec: spec.clone(),
            flight,
            deadline,
            seq,
            enqueued_at: now,
            cost: tier_cost(tier) * spec.planned_runs() as f64,
        })
    }

    /// The pick stage: takes the best-scored job ([`pick_index`]) into a
    /// free execution slot, if there is one.
    fn pick(&mut self, config: &ServeConfig, now: Instant) -> Option<Job> {
        if self.running >= self.slots {
            return None;
        }
        let job =
            pick_index(&self.jobs, now, config.aging_rate).map(|i| self.jobs.swap_remove(i))?;
        self.running += 1;
        Some(job)
    }

    /// The claim stage, for a leader whose caller blocks on the result:
    /// takes a free execution slot when nothing is queued, so the new job
    /// is exactly the one the next [`pick`](State::pick) would choose and
    /// may run on the caller's thread without overtaking anything.
    fn claim(&mut self) -> bool {
        let free = !self.closed && self.jobs.is_empty() && self.running < self.slots;
        self.running += usize::from(free);
        free
    }

    /// The settle stage, the single exit of every picked or claimed
    /// job: books the execution and the spec's health, and takes the
    /// flight out of the table — replaced by the response when it is a
    /// real answer, which may evict another. Counters and cache change
    /// together, so no snapshot sees a hit whose execution is not yet
    /// counted. The caller completes the flight once the lock is
    /// released, then [`release`](State::release)s the slot.
    fn settle(
        &mut self,
        config: &ServeConfig,
        spec: &WorkloadSpec,
        tier: Fidelity,
        result: &ServeResult,
        verdict: Verdict,
        now: Instant,
    ) {
        let breaker = &mut self.breakers[tier_slot(tier)];
        match verdict {
            Verdict::Expired => self.stats.deadline_exceeded += 1,
            // A success closes the tier's breaker and clears the spec's
            // quarantine strikes.
            Verdict::Succeeded => {
                *breaker = Breaker::default();
                self.quarantine.remove(&spec.fingerprint());
            }
            // Infrastructure failures advance the breaker, opening it at
            // the threshold.
            Verdict::Faulted | Verdict::Failed => {
                if verdict == Verdict::Faulted && config.breaker_threshold > 0 {
                    breaker.consecutive += 1;
                    if breaker.consecutive >= config.breaker_threshold {
                        breaker.open_until = Some(now + config.breaker_cooldown);
                    }
                }
                self.strike(config, spec.fingerprint());
            }
        }
        if verdict != Verdict::Expired {
            self.stats.executed += 1;
            self.stats.errors += u64::from(result.is_err());
        }
        // Degraded outcomes answer *this* failure, not the spec: a later
        // identical request deserves a real attempt. Eviction is
        // GreedyDual over recompute cost, so cycle-tier responses survive
        // ~700x more cache pressure than analytic estimates, while
        // repeated hits keep any entry fresh.
        let answer = match result {
            Ok(outcome) if !outcome.telemetry.degraded => {
                Some((Arc::clone(outcome), recompute_cost(outcome)))
            }
            _ => None,
        };
        self.stats.cache_evictions += self.specs.settle(spec, answer, config.max_cached_responses);
    }

    /// The release stage, once a settled job's flight is complete (its
    /// callbacks run in the slot): gives the slot back, books the
    /// callbacks that panicked (see [`Flight::complete`]), and says
    /// whether a job is queued for the slot.
    fn release(&mut self, panicked: u64) -> bool {
        self.running -= 1;
        self.stats.panics += panicked;
        !self.jobs.is_empty()
    }

    /// Books a final failure of a spec as a quarantine strike, first
    /// forgetting the spec with the fewest strikes when the books are
    /// full ([`QUARANTINE_CAPACITY`]).
    fn strike(&mut self, config: &ServeConfig, fingerprint: u64) {
        if config.quarantine_threshold == 0 {
            return;
        }
        if self.quarantine.len() >= QUARANTINE_CAPACITY
            && !self.quarantine.contains_key(&fingerprint)
        {
            let (&fewest, _) = self
                .quarantine
                .iter()
                .min_by_key(|(_, strikes)| **strikes)
                .expect("the books are full");
            self.quarantine.remove(&fewest);
        }
        *self.quarantine.entry(fingerprint).or_insert(0) += 1;
    }
}

struct Shared {
    session: Session,
    config: ServeConfig,
    /// The serving core's one lock.
    state: Mutex<State>,
    not_empty: Condvar,
    not_full: Condvar,
    worker_exit: Condvar,
    /// Poisoned-lock recoveries (see [`relock`]).
    recovered: AtomicU64,
}

impl Shared {
    /// Locks the state with poison recovery (see [`relock`]).
    fn lock(&self) -> MutexGuard<'_, State> {
        relock(&self.state, &self.recovered)
    }

    /// The tier a spec is planned on *before* execution: probes always
    /// simulate and `Auto` may escalate to simulation, so both plan as
    /// the cycle tier; otherwise the spec's own tier or the session's
    /// default.
    fn tier(&self, spec: &WorkloadSpec) -> Fidelity {
        match spec.fidelity().unwrap_or(self.session.default_fidelity()) {
            tier if spec.is_probe() || matches!(tier, Fidelity::Auto { .. }) => Fidelity::Cycles,
            tier => tier,
        }
    }

    /// Degrades a failed request to a fresh analytic answer when the
    /// policy and the spec allow it; otherwise returns `err`. Degraded
    /// outcomes carry `telemetry.degraded` and are never cached.
    fn degrade_or(&self, spec: &WorkloadSpec, err: ServeError) -> ServeResult {
        if !self.config.degrade_to_analytic {
            return Err(err);
        }
        // An estimate for a spec the calibration store has no entry for
        // compiles its kernel, so the stand-in can panic where the
        // request did: isolated like the execution, and the original
        // failure is the answer.
        match catch_unwind(AssertUnwindSafe(|| self.session.submit_degraded(spec))) {
            Ok(Ok(outcome)) => {
                self.lock().stats.degraded += 1;
                Ok(Arc::new(outcome))
            }
            // Probes, verifying workloads, and golden requests have no
            // analytic stand-in; the original failure is the answer.
            Ok(Err(_)) => Err(err),
            Err(_) => {
                self.lock().stats.panics += 1;
                Err(err)
            }
        }
    }

    /// The submission path up to (but not including) waiting: lookup,
    /// admission, and — for a leader — a claimed slot or the enqueue,
    /// all under one hold of the lock (a full queue's wait releases it).
    /// `run_here` says the caller blocks on the result with no deadline,
    /// so its leader may run the job itself ([`Wait::Run`]); a caller
    /// with a deadline must be free to return at it while the flight
    /// runs on, and a caller that does not wait leaves its job to the
    /// workers.
    fn begin(&self, spec: &WorkloadSpec, deadline: Option<Instant>, run_here: bool) -> Wait {
        let tier = self.tier(spec);
        let mut state = self.lock();
        let admitted = match state.lookup(spec) {
            Lookup::Hit(outcome, _) => return Wait::Ready(Ok(Arc::clone(outcome))),
            Lookup::Join(flight) => {
                return Wait::Pending {
                    flight,
                    deadline,
                    spec: spec.clone(),
                }
            }
            Lookup::Miss => state.admission(&self.config, spec, tier, deadline, Instant::now()),
        };
        let job = match admitted {
            Ok(job) => job,
            Err(ServeError::Quarantined) => return Wait::Ready(Err(ServeError::Quarantined)),
            // An open breaker degrades.
            Err(err) => {
                drop(state);
                return Wait::Ready(self.degrade_or(spec, err));
            }
        };
        if run_here && state.claim() {
            return Wait::Run(job);
        }
        // Leader: enqueue, blocking while the queue is at capacity —
        // but never past the request's deadline.
        let err = loop {
            if state.closed {
                break ServeError::ShutDown;
            }
            if state.jobs.len() < self.config.queue_depth.max(1) {
                let pending = Wait::Pending {
                    flight: Arc::clone(&job.flight),
                    deadline,
                    spec: spec.clone(),
                };
                state.jobs.push(job);
                // With every slot taken no worker could pick it; the
                // release that frees one wakes a worker instead.
                let wake = state.running < state.slots;
                drop(state);
                if wake {
                    self.not_empty.notify_one();
                }
                return pending;
            }
            let (guard, expired) = wait_until(
                &self.not_full,
                &self.state,
                state,
                deadline,
                &self.recovered,
            );
            state = guard;
            if expired {
                state.stats.deadline_exceeded += 1;
                break ServeError::DeadlineExceeded;
            }
        };
        // The led flight never runs: out of the table, then its
        // waiters wake (unlocked).
        state.specs.abandon(spec);
        drop(state);
        self.complete(&job.flight, Err(err.clone()));
        Wait::Ready(match err {
            ServeError::ShutDown => Err(err),
            _ => self.degrade_or(spec, err),
        })
    }

    /// Completes `flight` and books the callbacks that panicked on the
    /// way (see [`Flight::complete`]) in [`ServeStats::panics`].
    fn complete(&self, flight: &Flight<ServeResult>, result: ServeResult) {
        let panicked = flight.complete(result, &self.recovered);
        if panicked > 0 {
            self.lock().stats.panics += panicked;
        }
    }

    /// Executes one job with panic isolation and bounded retry. Final
    /// infrastructure failures degrade; final deterministic failures
    /// propagate untouched.
    fn execute_with_retry(&self, job: &Job) -> (ServeResult, Verdict) {
        let mut attempt: u32 = 0;
        loop {
            let run = catch_unwind(AssertUnwindSafe(|| self.session.submit(&job.spec)));
            match run {
                Err(payload) => {
                    // A panic is not retried: the unwind may have left
                    // session-side caches for this spec in a recovered-
                    // but-unknown state, and the analytic stand-in is
                    // both safe and cheap.
                    self.lock().stats.panics += 1;
                    let message = panic_message(payload.as_ref());
                    let err = ServeError::BackendPanicked { message };
                    return (self.degrade_or(&job.spec, err), Verdict::Faulted);
                }
                Ok(Ok(outcome)) => {
                    if attempt > 0 {
                        self.lock().stats.recovered += 1;
                    }
                    return (Ok(Arc::new(outcome)), Verdict::Succeeded);
                }
                Ok(Err(err)) => {
                    let transient = err.is_transient();
                    // A retry must finish its backoff before the deadline:
                    // a sleep past it answers nobody and holds a slot.
                    let backoff = self.config.retry_backoff * 2u32.saturating_pow(attempt);
                    let fits = job.deadline.is_none_or(|d| Instant::now() + backoff < d);
                    if transient && attempt < self.config.max_retries && fits {
                        attempt += 1;
                        self.lock().stats.retries += 1;
                        std::thread::sleep(backoff);
                        continue;
                    }
                    let shared = ServeError::Execution(Arc::new(err));
                    if transient {
                        // Retries exhausted (or the deadline too close to
                        // back off once more): infrastructure fault, degrade.
                        return (self.degrade_or(&job.spec, shared), Verdict::Faulted);
                    }
                    // Deterministic workload error: retrying or
                    // degrading would mask a real answer.
                    return (Err(shared), Verdict::Failed);
                }
            }
        }
    }

    /// Executes a picked or claimed job in its slot, on a worker or on
    /// the submitting thread; settles it, completes its flight with the
    /// result it returns, and releases the slot, waking a worker if jobs
    /// are queued for it.
    fn finish(&self, job: Job) -> ServeResult {
        let (result, verdict) = if job.deadline.is_some_and(|d| Instant::now() >= d) {
            // Spent its whole deadline queued: don't burn a cluster on
            // an answer nobody is waiting for.
            let result = self.degrade_or(&job.spec, ServeError::DeadlineExceeded);
            (result, Verdict::Expired)
        } else {
            self.execute_with_retry(&job)
        };
        let (tier, now) = (self.tier(&job.spec), Instant::now());
        self.lock()
            .settle(&self.config, &job.spec, tier, &result, verdict, now);
        let panicked = job.flight.complete(result.clone(), &self.recovered);
        if self.lock().release(panicked) {
            self.not_empty.notify_one();
        }
        result
    }

    /// Worker loop: take the best-scored job once a slot is free, wake
    /// one submitter blocked on the full queue, run the job — until the
    /// queue is closed *and* empty.
    fn work(&self) {
        loop {
            let job = {
                let mut state = self.lock();
                loop {
                    if let Some(job) = state.pick(&self.config, Instant::now()) {
                        break job;
                    }
                    if state.closed && state.jobs.is_empty() {
                        return;
                    }
                    state =
                        wait_until(&self.not_empty, &self.state, state, None, &self.recovered).0;
                }
            };
            self.not_full.notify_one();
            // The flight carries the result to its waiters.
            let _ = self.finish(job);
        }
    }
}

/// Renders a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Decrements `live_workers` when the worker's loop exits — normally or
/// by unwind — so [`Server::drop`]'s bounded wait always sees the truth.
struct WorkerGuard(Arc<Shared>);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.0.lock().live_workers -= 1;
        self.0.worker_exit.notify_all();
    }
}

/// A pending or already-answered submission, or a job its blocking
/// caller runs itself.
// The size skew is fine: exactly one `Wait` exists per submission, on
// the submitting caller's stack, and boxing `Pending` would cost an
// allocation per request on the hot path.
#[allow(clippy::large_enum_variant)]
enum Wait {
    Ready(ServeResult),
    Pending {
        flight: Arc<Flight<ServeResult>>,
        deadline: Option<Instant>,
        spec: WorkloadSpec,
    },
    /// A led job holding a claimed slot ([`State::claim`]): only
    /// [`Wait::wait`] may consume it, since its flight's waiters hang
    /// until it runs. [`ResponseHandle`]s never hold one.
    Run(Job),
}

impl Wait {
    fn wait(self, shared: &Shared) -> ServeResult {
        match self {
            Wait::Ready(result) => result,
            Wait::Run(job) => shared.finish(job),
            Wait::Pending {
                flight,
                deadline,
                spec,
            } => match flight.wait_until(deadline, &shared.recovered) {
                Some(result) => result,
                None => {
                    // This waiter's deadline expired; the flight keeps
                    // running for everyone else.
                    shared.lock().stats.deadline_exceeded += 1;
                    shared.degrade_or(&spec, ServeError::DeadlineExceeded)
                }
            },
        }
    }
}

/// An asynchronously submitted request ([`Server::submit_async`]): the
/// producer's side of a pending (or already-answered) submission. Poll
/// it ([`try_result`](ResponseHandle::try_result)), block on it
/// ([`wait`](ResponseHandle::wait)), or attach a completion callback
/// ([`on_complete`](ResponseHandle::on_complete)) — submission itself
/// never blocks on execution, only on queue back-pressure.
///
/// Dropping the handle abandons nothing: the request stays admitted,
/// executes (or coalesces) normally, and still lands in the response
/// cache — fire-and-forget warming is just `submit_async` plus drop.
pub struct ResponseHandle {
    shared: Arc<Shared>,
    state: Wait,
}

impl ResponseHandle {
    /// Whether the shared result is already available (a subsequent
    /// [`try_result`](ResponseHandle::try_result) returns `Some`).
    pub fn is_complete(&self) -> bool {
        self.try_result().is_some()
    }

    /// Non-blocking poll: the shared result when available, `None` while
    /// the request is still queued or executing. Polling has no deadline
    /// side effects — only [`wait`](ResponseHandle::wait) converts an
    /// expired wait into a degraded answer or error.
    pub fn try_result(&self) -> Option<ServeResult> {
        match &self.state {
            Wait::Ready(result) => Some(result.clone()),
            Wait::Pending { flight, .. } => flight.poll(&self.shared.recovered),
            Wait::Run(_) => unreachable!("asynchronous submissions never run on their caller"),
        }
    }

    /// Blocks until the result is available and returns it, bounded by
    /// the submission's deadline exactly like a synchronous
    /// [`Server::submit`] — on expiry the request degrades to an
    /// analytic answer (when policy and spec allow) or fails with
    /// [`ServeError::DeadlineExceeded`].
    pub fn wait(self) -> ServeResult {
        self.state.wait(&self.shared)
    }

    /// Registers `callback` to be invoked exactly once with the shared
    /// result — immediately on this thread when the result is already
    /// available, otherwise on the thread that completes the flight,
    /// which may be a submitter (keep callbacks short; they run inside
    /// the serving path — one that panics there is caught and counted in
    /// [`ServeStats::panics`], and costs nobody else their answer).
    /// The callback observes the *flight's* result: it fires when the
    /// execution completes even if this submission's deadline expires
    /// first — deadlines bound queue admission, dequeue, and
    /// [`wait`](ResponseHandle::wait), not callback delivery.
    pub fn on_complete<F>(self, callback: F)
    where
        F: FnOnce(ServeResult) + Send + 'static,
    {
        match self.state {
            Wait::Ready(result) => callback(result),
            Wait::Pending { flight, .. } => {
                flight.on_complete(Box::new(callback), &self.shared.recovered);
            }
            Wait::Run(_) => unreachable!("asynchronous submissions never run on their caller"),
        }
    }
}

impl fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResponseHandle")
            .field("complete", &self.is_complete())
            .finish_non_exhaustive()
    }
}

/// A long-lived service answering [`WorkloadSpec`]s over a [`Session`].
///
/// Dropping the server closes the queue, lets the workers drain what
/// was already queued, and joins them — waiting at most five seconds
/// before detaching wedged workers with a logged warning. Requests
/// still blocked on a full queue at shutdown resolve to
/// [`ServeError::ShutDown`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// A server over a fresh simulator-default [`Session`] with default
    /// sizing.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] when a worker thread cannot be created.
    pub fn new() -> Result<Server, ServeError> {
        Server::with_config(ServeConfig::default())
    }

    /// A server over a fresh simulator-default [`Session`] with explicit
    /// sizing.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] when a worker thread cannot be created.
    pub fn with_config(config: ServeConfig) -> Result<Server, ServeError> {
        Server::over(Session::new(), config)
    }

    /// A server over a caller-built session (choose the default fidelity
    /// tier, backend registry, and cache/pool bounds there).
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] when a worker thread cannot be created
    /// (resource exhaustion); any workers spawned before the failure
    /// are shut down and joined, so no threads leak.
    pub fn over(session: Session, config: ServeConfig) -> Result<Server, ServeError> {
        let slots = config.effective_workers();
        let shared = Arc::new(Shared {
            session,
            config,
            state: Mutex::new(State {
                slots,
                ..State::default()
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            worker_exit: Condvar::new(),
            recovered: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(slots);
        for i in 0..slots {
            shared.lock().live_workers += 1;
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("saris-serve-{i}"))
                .spawn(move || {
                    let _live = WorkerGuard(Arc::clone(&worker_shared));
                    worker_shared.work();
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // This worker never started: take back its liveness
                    // count, then shut down the ones that did.
                    let mut state = shared.lock();
                    state.live_workers -= 1;
                    state.closed = true;
                    drop(state);
                    shared.not_empty.notify_all();
                    shared.not_full.notify_all();
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(ServeError::Spawn {
                        reason: e.to_string(),
                    });
                }
            }
        }
        Ok(Server { shared, workers })
    }

    /// Answers one spec, blocking until the result is available: from
    /// the response cache, from an in-flight identical request, or by
    /// an execution — run on this thread when an execution slot is free
    /// and nothing is queued, queued for a worker otherwise.
    /// [`ServeConfig::default_deadline`], when set, bounds the wait, and
    /// then the execution always goes to a worker, so that the caller
    /// can return at the deadline while it runs on.
    ///
    /// # Errors
    ///
    /// [`ServeError::Execution`] when the engine fails the workload
    /// (compilation, simulation, validation, or in-submission
    /// verification), [`ServeError::BackendPanicked`] when the backend
    /// panicked, [`ServeError::DeadlineExceeded`] when the default
    /// deadline expired, [`ServeError::CircuitOpen`] /
    /// [`ServeError::Quarantined`] when admission rejected the request,
    /// [`ServeError::ShutDown`] when the server stops before the
    /// request runs. With
    /// [`degrade_to_analytic`](ServeConfig::degrade_to_analytic) set
    /// (the default), infrastructure failures on degradable specs
    /// return an analytic `Ok` outcome (`telemetry.degraded`) instead.
    pub fn submit(&self, spec: &WorkloadSpec) -> ServeResult {
        let deadline = self.default_deadline();
        self.shared
            .begin(spec, deadline, deadline.is_none())
            .wait(&self.shared)
    }

    /// [`ServeConfig::default_deadline`] counted from now.
    fn default_deadline(&self) -> Option<Instant> {
        self.shared
            .config
            .default_deadline
            .map(|budget| Instant::now() + budget)
    }

    /// Like [`submit`](Server::submit), with an explicit end-to-end
    /// latency budget overriding [`ServeConfig::default_deadline`]. The
    /// deadline is enforced while blocked on a full queue, when the job
    /// is dequeued, and while waiting on the in-flight result; on
    /// expiry the request degrades to an analytic answer (when policy
    /// and spec allow) or fails with [`ServeError::DeadlineExceeded`].
    pub fn submit_with_deadline(&self, spec: &WorkloadSpec, budget: Duration) -> ServeResult {
        let deadline = Some(Instant::now() + budget);
        self.shared.begin(spec, deadline, false).wait(&self.shared)
    }

    /// Submits one spec without blocking on its execution, returning a
    /// [`ResponseHandle`] to poll, wait on, or attach a callback to.
    /// Admission still runs synchronously — cache probe, single-flight
    /// attach, health checks, and queue back-pressure (a full queue
    /// blocks until a slot frees or the deadline expires) — so the
    /// handle always represents an *accepted* request.
    /// [`ServeConfig::default_deadline`] applies when set.
    pub fn submit_async(&self, spec: &WorkloadSpec) -> ResponseHandle {
        ResponseHandle {
            state: self.shared.begin(spec, self.default_deadline(), false),
            shared: Arc::clone(&self.shared),
        }
    }

    /// [`submit_async`](Server::submit_async) with an explicit
    /// end-to-end latency budget overriding
    /// [`ServeConfig::default_deadline`]. The deadline also drives
    /// scheduling priority (slack ordering).
    pub fn submit_async_with_deadline(
        &self,
        spec: &WorkloadSpec,
        budget: Duration,
    ) -> ResponseHandle {
        let deadline = Some(Instant::now() + budget);
        ResponseHandle {
            state: self.shared.begin(spec, deadline, false),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Answers a list of specs, returning results in spec order. All
    /// specs enter the pipeline before any result is awaited, so
    /// distinct specs execute concurrently across the worker pool and
    /// duplicated specs coalesce onto single flights.
    /// [`ServeConfig::default_deadline`] applies per element.
    pub fn submit_all(&self, specs: &[WorkloadSpec]) -> Vec<ServeResult> {
        let pending: Vec<Wait> = specs
            .iter()
            .map(|spec| self.shared.begin(spec, self.default_deadline(), false))
            .collect();
        pending
            .into_iter()
            .map(|wait| wait.wait(&self.shared))
            .collect()
    }

    /// Books a panic caught on a thread that serves this server (a
    /// connection handler) in [`ServeStats::panics`].
    pub(crate) fn book_panic(&self) {
        self.shared.lock().stats.panics += 1;
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.shared.lock().stats;
        stats.lock_recoveries = self.shared.recovered.load(Ordering::Relaxed);
        stats
    }

    /// The underlying execution engine (for its
    /// [`stats`](Session::stats), or to submit directly, bypassing the
    /// serving layers).
    pub fn session(&self) -> &Session {
        &self.shared.session
    }

    /// The server's sizing.
    pub fn config(&self) -> ServeConfig {
        self.shared.config
    }

    /// Responses currently cached.
    pub fn cached_responses(&self) -> usize {
        self.shared.lock().specs.cached()
    }
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.shared.config)
            .field("workers", &self.workers.len())
            .field("cached_responses", &self.cached_responses())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.closed = true;
        // Wake every worker (to drain and exit) and every submitter
        // blocked on a full queue (to observe the shutdown).
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        // Bounded join: wait for the workers to drain, but never hang
        // the dropping thread on a wedged backend — detach instead. No
        // submitter is running an execution of its own: `submit`
        // borrows the server, so only workers can still hold slots.
        let deadline = Instant::now() + SHUTDOWN_TIMEOUT;
        while state.live_workers > 0 {
            let (guard, expired) = wait_until(
                &self.shared.worker_exit,
                &self.shared.state,
                state,
                Some(deadline),
                &self.shared.recovered,
            );
            state = guard;
            if expired {
                break;
            }
        }
        let wedged = state.live_workers;
        drop(state);
        if wedged > 0 {
            eprintln!(
                "saris-serve: {wedged} worker(s) still busy after the {:?} shutdown timeout; \
                 detaching them",
                SHUTDOWN_TIMEOUT
            );
            // Dropping the handles detaches the threads; they own an
            // `Arc<Shared>` via their guard, so nothing they touch is
            // freed under them.
            self.workers.clear();
        } else {
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_codegen::Workload;
    use saris_core::{gallery, Extent};

    fn spec(seed: u64) -> WorkloadSpec {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(seed)
            .freeze()
            .unwrap()
    }

    /// A queued job for scheduler-order tests: `pick_index` is pure over
    /// its inputs, so ordering is testable without a server.
    fn job(seq: u64, now: Instant, cost: f64, slack: Option<Duration>, age: Duration) -> Job {
        Job {
            spec: spec(seq),
            flight: Arc::default(),
            deadline: slack.map(|s| now + s),
            seq,
            enqueued_at: now - age,
            cost,
        }
    }

    #[test]
    fn tight_deadlines_preempt_queued_bulk_work() {
        let now = Instant::now();
        // A bulk cycle-tier sweep (no deadline, cost 700) arrived first;
        // an interactive analytic request with 20ms of slack arrives
        // behind it and must still run first.
        let jobs = vec![
            job(0, now, 700.0, None, Duration::ZERO),
            job(1, now, 1.0, Some(Duration::from_millis(20)), Duration::ZERO),
        ];
        assert_eq!(pick_index(&jobs, now, 1.0), Some(1));
    }

    #[test]
    fn cheap_work_outranks_expensive_work_at_equal_slack() {
        let now = Instant::now();
        let jobs = vec![
            job(0, now, 700.0, None, Duration::ZERO),
            job(1, now, 1.0, None, Duration::ZERO),
        ];
        assert_eq!(pick_index(&jobs, now, 1.0), Some(1));
    }

    #[test]
    fn aging_eventually_promotes_bulk_over_fresh_interactive() {
        let now = Instant::now();
        let bulk_waiting = job(0, now, 700.0, None, Duration::from_secs(2));
        let fresh_interactive = job(1, now, 1.0, Some(Duration::from_millis(20)), Duration::ZERO);
        // With aging, two seconds in queue beats the fresh deadline...
        let jobs = vec![bulk_waiting, fresh_interactive];
        assert_eq!(pick_index(&jobs, now, 1.0), Some(0));
        // ...and with aging disabled the interactive request always wins.
        assert_eq!(pick_index(&jobs, now, 0.0), Some(1));
    }

    #[test]
    fn equal_scores_fall_back_to_arrival_order() {
        let now = Instant::now();
        let jobs = vec![
            job(2, now, 1.0, None, Duration::ZERO),
            job(0, now, 1.0, None, Duration::ZERO),
            job(1, now, 1.0, None, Duration::ZERO),
        ];
        assert_eq!(pick_index(&jobs, now, 1.0), Some(1));
    }

    #[test]
    fn cache_hit_shares_the_outcome() {
        let server = Server::with_config(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let a = server.submit(&spec(1)).unwrap();
        let b = server.submit(&spec(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = server.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.executed, 1);
        assert_eq!(server.session().stats().runs, 1);
    }

    #[test]
    fn disabled_cache_still_single_flights() {
        let server = Server::with_config(ServeConfig {
            workers: 2,
            max_cached_responses: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let results = server.submit_all(&[spec(1), spec(1), spec(2)]);
        assert!(results.iter().all(Result::is_ok));
        let stats = server.stats();
        assert_eq!(stats.cache_hits, 0);
        // The duplicate either coalesced onto the in-flight spec(1) or —
        // if a worker finished that flight before the duplicate's begin
        // ran — re-executed (nothing is cached); never both, never lost.
        assert_eq!(stats.coalesced + stats.executed, 3);
        assert!(stats.executed >= 2, "both unique specs must execute");
        // A later repeat re-executes: nothing was cached.
        let executed_before = server.stats().executed;
        server.submit(&spec(1)).unwrap();
        assert_eq!(server.stats().executed, executed_before + 1);
        assert_eq!(server.cached_responses(), 0);
    }

    #[test]
    fn lru_evicts_beyond_the_bound() {
        let server = Server::with_config(ServeConfig {
            workers: 1,
            max_cached_responses: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        server.submit(&spec(1)).unwrap();
        server.submit(&spec(2)).unwrap();
        server.submit(&spec(1)).unwrap(); // refresh 1
        server.submit(&spec(3)).unwrap(); // evicts 2
        assert_eq!(server.cached_responses(), 2);
        assert_eq!(server.stats().cache_evictions, 1);
        server.submit(&spec(1)).unwrap(); // still cached
        let stats = server.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.executed, 3);
        server.submit(&spec(2)).unwrap(); // re-executes after eviction
        assert_eq!(server.stats().executed, 4);
    }

    #[test]
    fn default_bound_is_256_responses() {
        assert_eq!(ServeConfig::default().max_cached_responses, 256);
        let server = Server::with_config(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        for seed in 0..260 {
            server.submit(&spec(seed)).unwrap();
        }
        assert_eq!(server.cached_responses(), 256);
        assert_eq!(server.stats().cache_evictions, 4);
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        // j3d27pt at base unroll 4 hits register pressure — a
        // deterministic workload error: never retried, never degraded.
        let failing = Workload::new(gallery::j3d27pt())
            .extent(Extent::cube(saris_core::Space::Dim3, 8))
            .input_seed(1)
            .variant(saris_codegen::Variant::Base)
            .unroll(4)
            .freeze()
            .unwrap();
        let server = Server::with_config(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let err = server.submit(&failing).unwrap_err();
        assert!(matches!(err, ServeError::Execution(_)), "{err}");
        assert!(err.to_string().contains("execution failed"));
        assert_eq!(server.cached_responses(), 0);
        let again = server.submit(&failing);
        assert!(again.is_err());
        let stats = server.stats();
        assert_eq!(stats.executed, 2, "errors re-execute on retry");
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.retries, 0, "deterministic errors burn no retries");
        assert_eq!(stats.degraded, 0, "deterministic errors never degrade");
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn submit_all_keeps_spec_order() {
        let server = Server::with_config(ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        })
        .unwrap();
        let specs: Vec<WorkloadSpec> = (0..6).map(|i| spec(i % 3)).collect();
        let results = server.submit_all(&specs);
        assert_eq!(results.len(), 6);
        for (s, r) in specs.iter().zip(&results) {
            assert_eq!(r.as_ref().unwrap().fingerprint, s.fingerprint());
        }
        // Three unique specs executed; the duplicates coalesced or hit.
        assert_eq!(server.stats().executed, 3);
        assert_eq!(server.session().stats().runs, 3);
    }

    #[test]
    fn shutdown_fails_late_requests_cleanly() {
        let server = Server::with_config(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        server.submit(&spec(1)).unwrap();
        let shared = Arc::clone(&server.shared);
        drop(server);
        let wait = shared.begin(&spec(2), None, true);
        assert!(matches!(wait.wait(&shared), Err(ServeError::ShutDown)));
    }

    #[test]
    fn poisoned_locks_recover_and_count() {
        let server = Server::with_config(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        // The worker takes the state lock too, so it is held in a
        // completion callback (which runs unlocked) while the lock is
        // poisoned: the snapshot below, not the worker, finds it. The
        // callback is attached before the worker can see the job.
        let (parked_tx, parked) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        {
            let mut state = server.shared.lock();
            assert!(matches!(state.lookup(&spec(1)), Lookup::Miss));
            let (config, now) = (&server.shared.config, Instant::now());
            let job = state
                .admission(config, &spec(1), Fidelity::Cycles, None, now)
                .unwrap();
            let hold = move |_| {
                parked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            };
            job.flight
                .on_complete(Box::new(hold), &server.shared.recovered);
            state.jobs.push(job);
        }
        server.shared.not_empty.notify_one();
        parked.recv().unwrap();
        // Poison the state lock from a doomed thread.
        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("poison the serve state lock");
        });
        assert!(poisoner.join().is_err());
        assert!(server.shared.state.is_poisoned());
        // The next snapshot recovers, clears the poison, and counts it.
        let stats = server.stats();
        assert_eq!(stats.lock_recoveries, 1);
        assert!(!server.shared.state.is_poisoned());
        release.send(()).unwrap();
        // The server still serves, and the recovery counter does not
        // inflate on subsequent (clean) locks.
        server.submit(&spec(1)).unwrap();
        let stats = server.stats();
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.lock_recoveries, 1);
    }

    #[test]
    fn zero_queue_depth_still_queues_one_job() {
        let server = Server::with_config(ServeConfig {
            workers: 1,
            queue_depth: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let outcome = server
            .submit_with_deadline(&spec(1), Duration::from_secs(2))
            .unwrap();
        assert!(
            !outcome.telemetry.degraded,
            "the miss waited out its deadline"
        );
        assert_eq!(server.stats().deadline_exceeded, 0);
    }

    #[test]
    fn quarantine_books_stay_bounded_and_keep_quarantined_specs() {
        let config = ServeConfig {
            quarantine_threshold: 3,
            ..ServeConfig::default()
        };
        let (mut state, now) = (State::default(), Instant::now());
        let quarantined = spec(1);
        for _ in 0..config.quarantine_threshold {
            state.strike(&config, quarantined.fingerprint());
        }
        for other in 1..=QUARANTINE_CAPACITY as u64 + 64 {
            state.strike(&config, quarantined.fingerprint().wrapping_add(other));
        }
        assert!(state.quarantine.len() <= QUARANTINE_CAPACITY);
        let refused = state.admission(&config, &quarantined, Fidelity::Cycles, None, now);
        assert!(matches!(refused, Err(ServeError::Quarantined)));
    }

    /// The claim stage lets a blocking leader run its own job only when
    /// that job is the one the next pick would choose: never past a
    /// queued job, never over the slot bound, never after shutdown.
    #[test]
    fn claims_wait_behind_queued_jobs_and_within_the_slots() {
        let (config, now) = (ServeConfig::default(), Instant::now());
        let mut state = State {
            slots: 2,
            ..State::default()
        };
        let lead = |state: &mut State, seed| {
            assert!(matches!(state.lookup(&spec(seed)), Lookup::Miss));
            state
                .admission(&config, &spec(seed), Fidelity::Cycles, None, now)
                .unwrap()
        };
        let queued = lead(&mut state, 1);
        state.jobs.push(queued);
        assert!(!state.claim(), "a claim overtook a queued job");
        let picked = state.pick(&config, now).unwrap();
        assert!(state.claim(), "a free slot and an empty queue");
        assert_eq!(state.running, 2);
        let waiting = lead(&mut state, 2);
        state.jobs.push(waiting);
        assert!(state.pick(&config, now).is_none(), "a pick past the slots");
        assert!(!state.claim(), "a claim past the slots");
        let done = answer(&picked.spec, Fidelity::Cycles, false);
        state.settle(
            &config,
            &picked.spec,
            Fidelity::Cycles,
            &done,
            Verdict::Succeeded,
            now,
        );
        assert!(state.release(0), "the freed slot has a job queued for it");
        assert!(!state.claim(), "the queued job goes first");
        assert!(state.pick(&config, now).is_some());
        state.closed = true;
        state.running = 0;
        assert!(!state.claim(), "a claim after shutdown");
    }

    /// A response for `spec` answered on `tier`, built without a session.
    fn answer(spec: &WorkloadSpec, tier: Fidelity, degraded: bool) -> ServeResult {
        Ok(Arc::new(Outcome {
            fingerprint: spec.fingerprint(),
            backend: "test",
            grids: Vec::new(),
            reports: Vec::new(),
            kernel: None,
            tuning: None,
            verify_error: None,
            dma_utilization: None,
            telemetry: saris_codegen::WorkloadTelemetry {
                answered_by: Some(tier),
                degraded,
                ..Default::default()
            },
        }))
    }

    /// The serving stages as a seeded random walk — lookups, leads,
    /// enqueues, claims, abandons, picks and settles over 16 specs, a
    /// cache of 4 and 3 execution slots — with the table and the slots
    /// checked after every step against the flights the walk holds: what
    /// the threaded suites reach only by timing, here deterministically.
    #[test]
    fn seeded_stage_walk_keeps_every_spec_in_one_state() {
        const SPECS: usize = 16;
        let config = ServeConfig {
            max_cached_responses: 4,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(5),
            quarantine_threshold: 3,
            ..ServeConfig::default()
        };
        let specs: Vec<WorkloadSpec> = (0..SPECS as u64).map(spec).collect();
        // Specs 0..12 answer (or expire in the queue) on the cycle and
        // analytic tiers. 12..16 share the golden tier and always fail:
        // 12..14 on infrastructure, tripping its breaker, and 14..16 on
        // the workload; all four end up quarantined.
        let tier = |i: usize| match i {
            12.. => Fidelity::Golden,
            _ if i.is_multiple_of(2) => Fidelity::Cycles,
            _ => Fidelity::Analytic,
        };
        let mut rng = saris_core::rng::SplitMix64::new(0x5EED);
        let mut state = State {
            slots: 3,
            ..State::default()
        };
        let mut now = Instant::now();
        // Jobs the walk leads but has not queued, and jobs it picked or
        // claimed but has not settled; the rest are in `state.jobs`.
        let (mut led, mut picked): (Vec<Job>, Vec<Job>) = (Vec::new(), Vec::new());
        let mut claims = 0;
        for _ in 0..10_000 {
            now += Duration::from_micros(100);
            let r = rng.next_u64();
            let i = (r >> 32) as usize % SPECS;
            match r % 10 {
                0..=3 => match state.lookup(&specs[i]) {
                    Lookup::Hit(outcome, _) => {
                        assert_eq!(outcome.fingerprint, specs[i].fingerprint())
                    }
                    Lookup::Join(flight) => assert!(led
                        .iter()
                        .chain(&state.jobs)
                        .chain(&picked)
                        .any(|job| Arc::ptr_eq(&job.flight, &flight))),
                    Lookup::Miss => {
                        if let Ok(job) = state.admission(&config, &specs[i], tier(i), None, now) {
                            led.push(job);
                        }
                    }
                },
                4 | 5 if !led.is_empty() => {
                    let job = led.swap_remove(i % led.len());
                    match (r >> 8) % 3 {
                        0 => state.jobs.push(job),
                        1 if state.claim() => {
                            claims += 1;
                            picked.push(job);
                        }
                        _ => state.specs.abandon(&job.spec),
                    }
                }
                6 | 7 => picked.extend(state.pick(&config, now)),
                8 | 9 if !picked.is_empty() => {
                    let job = picked.swap_remove(i % picked.len());
                    let n = specs.iter().position(|s| *s == job.spec).unwrap();
                    let (result, verdict) = match (n, (r >> 8) % 4) {
                        (0..12, 0) => (answer(&job.spec, tier(n), true), Verdict::Expired),
                        (0..12, 1) => (Err(ServeError::DeadlineExceeded), Verdict::Expired),
                        (0..12, _) => (answer(&job.spec, tier(n), false), Verdict::Succeeded),
                        (12..14, 0 | 1) => (answer(&job.spec, tier(n), true), Verdict::Faulted),
                        (12..14, _) => (
                            Err(ServeError::BackendPanicked {
                                message: "injected".into(),
                            }),
                            Verdict::Faulted,
                        ),
                        _ => (
                            Err(ServeError::Execution(Arc::new(
                                CodegenError::InvalidWorkload {
                                    reason: "injected".into(),
                                },
                            ))),
                            Verdict::Failed,
                        ),
                    };
                    state.settle(&config, &job.spec, tier(n), &result, verdict, now);
                    state.release(0);
                    if verdict == Verdict::Succeeded {
                        let row = state.specs.flight(&job.spec);
                        assert!(row.is_none(), "settled spec still runs");
                    } else {
                        let row = state.specs.rows().find(|(s, _)| **s == job.spec);
                        assert!(row.is_none(), "a degraded or failed settle left a row");
                    }
                }
                _ => {}
            }
            // Every spec is running (exactly when the walk holds one
            // flight of it, and that flight is the row's), cached, or
            // absent.
            let flights: Vec<&Job> = led.iter().chain(&state.jobs).chain(&picked).collect();
            for s in &specs {
                let mine: Vec<&&Job> = flights.iter().filter(|job| job.spec == *s).collect();
                match state.specs.flight(s) {
                    Some(flight) => {
                        assert_eq!(mine.len(), 1);
                        assert!(Arc::ptr_eq(&mine[0].flight, flight));
                    }
                    None => assert!(mine.is_empty()),
                }
            }
            assert!(state.specs.rows().all(|(s, _)| specs.contains(s)));
            // Every job that holds a slot is one the walk runs.
            assert_eq!(state.running, picked.len());
            assert!(state.running <= state.slots);
            let cached = state.specs.rows().filter(|(_, v)| v.is_some()).count();
            assert_eq!(state.specs.cached(), cached);
            assert!(cached <= config.max_cached_responses);
            let s = state.stats;
            assert_eq!(
                s.requests,
                s.cache_hits
                    + s.cache_misses
                    + s.coalesced
                    + s.breaker_rejections
                    + s.quarantine_rejections,
                "{s:?}"
            );
        }
        // The walk reached every path it checks.
        let s = state.stats;
        for (path, count) in [
            ("hits", s.cache_hits),
            ("joins", s.coalesced),
            ("evictions", s.cache_evictions),
            ("breaker rejections", s.breaker_rejections),
            ("quarantine rejections", s.quarantine_rejections),
            ("expiries", s.deadline_exceeded),
            ("errors", s.errors),
            ("claims", claims),
        ] {
            assert!(count > 0, "the walk never reached {path}: {s:?}");
        }
    }
}
