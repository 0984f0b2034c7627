//! # saris — stencil acceleration with register-mapped indirect streams
//!
//! A full reproduction of *"SARIS: Accelerating Stencil Computations on
//! Energy-Efficient RISC-V Compute Clusters with Indirect Stream
//! Registers"* (DAC 2024) as a Rust workspace, including every substrate
//! the paper depends on:
//!
//! * [`core`] *(saris-core)* — the stencil IR, the ten-code gallery of the
//!   paper's Table 1, the golden reference executor, and the SARIS
//!   planning method itself (stream partitioning, point-loop scheduling,
//!   static index arrays);
//! * [`isa`] *(saris-isa)* — an RV32G-like IR with the SSSR stream-register
//!   and FREP hardware-loop extensions;
//! * [`sim`] *(snitch-sim)* — a cycle-approximate, functional simulator of
//!   the eight-core Snitch cluster (banked TCDM, streamers, FREP
//!   sequencer, DMA, shared I$);
//! * [`codegen`] *(saris-codegen)* — optimized RV32G baseline and
//!   SARIS-accelerated kernel generation, plus the execution engine that
//!   runs them;
//! * [`energy`] *(saris-energy)* — the calibrated power/energy model
//!   behind Figure 4;
//! * [`scaleout`] *(saris-scaleout)* — the analytic Manticore-256s
//!   manycore estimate behind Figure 5 and Table 2;
//! * [`serve`] *(saris-serve)* — the long-lived serving layer: work
//!   queue, worker threads, response cache, single-flight deduplication,
//!   plus the length-prefixed TCP transport that puts a server behind a
//!   socket;
//! * [`shard`] *(saris-shard)* — the consistent-hash coordinator that
//!   scales serving across networked workers, with calibration gossip;
//! * [`verify`] *(saris-verify)* — the static kernel verifier and
//!   cost-bound analyzer gating every compiled program.
//!
//! # Quickstart: three fidelity tiers, one request surface
//!
//! Execution is a typed request/response pair: describe one unit of work
//! with the [`Workload`](codegen::Workload) builder, freeze it into an
//! immutable [`WorkloadSpec`](codegen::WorkloadSpec), and submit it to a
//! [`Session`](codegen::Session). A spec names *how good an answer it
//! needs* with a [`Fidelity`](codegen::Fidelity) tier, and the session
//! routes it through its [`BackendRegistry`](codegen::BackendRegistry):
//!
//! 1. **Analytic** — the [`RooflineBackend`](codegen::RooflineBackend)
//!    answers instantly from calibrated single-cluster measurements plus
//!    a bandwidth model (the paper's own scaleout methodology). Its
//!    cycle counts and utilizations are *estimates*, flagged in
//!    [`WorkloadTelemetry::estimated`](codegen::WorkloadTelemetry::estimated),
//!    and it produces no output grids.
//! 2. **Cycles** — the [`SimBackend`](codegen::SimBackend) measures on
//!    the cycle-approximate Snitch-cluster simulator: the tier behind
//!    every paper figure.
//! 3. **Golden** — the [`NativeBackend`](codegen::NativeBackend) runs
//!    the data-parallel (SIMD) reference executor: bit-true grids, no
//!    timing. The scalar executor is retained as the oracle the SIMD
//!    path is verified against, bit for bit.
//!
//! ```
//! use saris::prelude::*;
//!
//! # fn main() -> Result<(), saris::codegen::CodegenError> {
//! let session = Session::new();
//! let workload = |fidelity| {
//!     Workload::new(gallery::jacobi_2d())
//!         .extent(Extent::new_2d(32, 32))
//!         .input_seed(1)
//!         .variant(Variant::Saris)
//!         .fidelity(fidelity)
//!         .freeze()
//! };
//!
//! // 1. Instant estimate: is this code worth simulating at this size?
//! let estimate = session.submit(&workload(Fidelity::Analytic)?)?;
//! assert!(estimate.telemetry.estimated && estimate.grids.is_empty());
//!
//! // 2. Cycle-accurate measurement on the simulated cluster.
//! let measured = session.submit(&workload(Fidelity::Cycles)?)?;
//! assert!(!measured.telemetry.estimated);
//!
//! // The estimate was in the measurement's ballpark, for free.
//! let (e, m) = (estimate.expect_report().cycles, measured.expect_report().cycles);
//! assert!(e as f64 / m as f64 > 0.25 && (e as f64) / (m as f64) < 4.0);
//!
//! // 3. Golden verify: the reference executor is the ground truth
//! //    (in-submission verification compares against it).
//! let golden = session.submit(
//!     &Workload::new(gallery::jacobi_2d())
//!         .extent(Extent::new_2d(32, 32))
//!         .input_seed(1)
//!         .variant(Variant::Saris)
//!         .verify(1e-12)
//!         .freeze()?,
//! )?;
//! assert!(golden.verify_error.unwrap() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! # Adaptive fidelity: `Fidelity::Auto` and the live calibration loop
//!
//! The analytic tier answers from a shared, *mutable*
//! [`CalibrationStore`](codegen::CalibrationStore): every cycle-tier
//! outcome a session produces feeds the store back (observed cycles,
//! FPU activity, per-core imbalance, reduced to per-point rates), so a
//! long-running engine sharpens its own estimates for the stencils it
//! actually serves — the paper's measure-then-extrapolate methodology
//! run continuously.
//!
//! [`Fidelity::Auto`](codegen::Fidelity::Auto) turns that loop into a
//! routing policy: submit at `Auto { accuracy_budget }` and the session
//! answers analytically when the store's expected error for the spec is
//! within the budget, and otherwise escalates to the cycle tier once —
//! recording the measurement so the *next* identical request is
//! answered analytically. Learn once, answer instantly thereafter:
//!
//! ```
//! use saris::prelude::*;
//!
//! # fn main() -> Result<(), saris::codegen::CodegenError> {
//! let session = Session::new();
//! let auto = Workload::new(gallery::jacobi_2d())
//!     .extent(Extent::new_2d(16, 16))
//!     .input_seed(1)
//!     .variant(Variant::Saris)
//!     .fidelity(Fidelity::auto()) // Auto { accuracy_budget: 0.05 }
//!     .freeze()?;
//!
//! // Cold: the store has no measurement at this tile, so the request
//! // escalates to the simulator — and teaches the store.
//! let first = session.submit(&auto)?;
//! assert_eq!(first.telemetry.answered_by, Some(Fidelity::Cycles));
//!
//! // Warm: the same request is now answered analytically, reproducing
//! // the observed cycle count, flagged as an estimate.
//! let again = session.submit(&auto)?;
//! assert_eq!(again.telemetry.answered_by, Some(Fidelity::Analytic));
//! assert!(again.telemetry.estimated);
//! assert_eq!(
//!     again.expect_report().cycles,
//!     first.expect_report().cycles,
//! );
//! assert_eq!(session.stats().auto_escalated, 1);
//! assert_eq!(session.stats().auto_answered_analytic, 1);
//!
//! // The store itself is first-class: export it, import it into the
//! // next deployment, and start warm.
//! let json = session.calibration().expect("standard registry").to_json();
//! let warm_start = saris::codegen::CalibrationStore::from_json(&json)?;
//! assert_eq!(warm_start.len(), session.calibration().unwrap().len());
//! # Ok(())
//! # }
//! ```
//!
//! Workloads that request verification always escalate under `Auto`
//! (verification needs grids). The serving layer leaves the decision to
//! the session and weighs its response-cache eviction by each entry's
//! cost of recompute — a
//! cycle-tier response is ~700x more expensive to regenerate than an
//! analytic one, and survives cache pressure accordingly.
//!
//! # The execution engine: `Session`, workloads, backends
//!
//! A [`Session`](codegen::Session) is the reusable execution engine
//! behind the bench harness, the examples, and the serving layer. It
//! caches compiled kernels by `(stencil fingerprint, extent, compile
//! options)` — bounded and LRU-evicted per
//! [`SessionConfig`](codegen::SessionConfig) — recycles simulated
//! clusters via `Cluster::reset` instead of reconstructing them, and
//! breaks its [`SessionStats`](codegen::SessionStats) out per fidelity
//! tier (`runs_analytic` / `runs_cycles` / `runs_golden`). The kernel
//! cache, the idle clusters and the counters sit behind the session's
//! one lock: the session lends a cluster to each cycle-tier run and
//! books the run when it takes the cluster back, while compiles,
//! proofs, runs and cluster resets happen outside it.
//!
//! One `submit` surface covers every scenario: fixed runs, the paper's
//! "unroll iff beneficial" tuning ([`Tune`](codegen::Tune)), multi-step
//! sweeps with buffer rotation, DMA-utilization probes
//! ([`Workload::dma_probe`](codegen::Workload::dma_probe)), and threaded
//! batches ([`Session::submit_all`](codegen::Session::submit_all)).
//! Specs are cloneable, hashable and self-contained — sharing stencil IR
//! and input grids behind `Arc`s — which makes them the unit a sharded
//! or async serving layer ships between processes.
//!
//! ```
//! use std::sync::Arc;
//! use saris::prelude::*;
//!
//! # fn main() -> Result<(), saris::codegen::CodegenError> {
//! let session = Session::new(); // default tier: Fidelity::Cycles
//! let stencil = Arc::new(gallery::jacobi_2d());
//!
//! // A tuned, multi-step, verified workload in one request.
//! let spec = Workload::new(Arc::clone(&stencil))
//!     .extent(Extent::new_2d(16, 16))
//!     .input_seed(1)
//!     .tune(Tune::Auto)
//!     .time_steps(3)
//!     .verify(1e-9)
//!     .freeze()?;
//! let outcome = session.submit(&spec)?;
//! assert_eq!(outcome.reports.len(), 3);
//! assert!(outcome.tuning.is_some());
//!
//! // Batches fan out across threads; every spec shares the stencil IR
//! // behind the Arc, and identical kernels compile exactly once.
//! let specs: Vec<WorkloadSpec> = (0..4)
//!     .map(|seed| {
//!         Workload::new(Arc::clone(&stencil))
//!             .extent(Extent::new_2d(16, 16))
//!             .input_seed(seed)
//!             .freeze()
//!     })
//!     .collect::<Result<_, _>>()?;
//! for outcome in session.submit_all(&specs) {
//!     outcome?;
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Bulk golden verification
//!
//! The golden tier is itself data-parallel: [`reference::apply`](core::reference::apply)
//! sweeps rows in four-wide SIMD chunks (bit-exact with the retained
//! scalar oracle by construction — same IEEE primitives, same order,
//! NaN payloads included), and `submit_all` is one fan-out: worker
//! threads pull specs and `submit` each, so a spec takes the same path
//! — and returns the same bits — whether it arrives alone or in a
//! list. That makes "check the whole gallery against ground truth" a
//! bulk operation: submit every spec at
//! [`Fidelity::Golden`](codegen::Fidelity) with `verify(0.0)` and the
//! list executes data-parallel, then re-derives every grid through the
//! scalar oracle ([`reference::apply_scalar`](core::reference::apply_scalar)).
//! A golden answer is checked against that oracle however the spec was
//! submitted — `submit`, `submit_all`, or a server — and tolerance zero
//! holds because the two paths agree bit for bit (`BENCHMARK.json`
//! tracks both as `core.reference_{simd,scalar}_ns_per_point`).
//!
//! ```
//! use std::sync::Arc;
//! use saris::prelude::*;
//!
//! # fn main() -> Result<(), saris::codegen::CodegenError> {
//! let session = Session::native(); // golden tier: no kernel compilation
//! let stencil = Arc::new(gallery::jacobi_2d());
//! let specs: Vec<WorkloadSpec> = (0..4)
//!     .map(|seed| {
//!         Workload::new(Arc::clone(&stencil))
//!             .extent(Extent::new_2d(20, 14))
//!             .input_seed(seed)
//!             .fidelity(Fidelity::Golden)
//!             .verify(0.0) // bit-exact against the scalar oracle
//!             .freeze()
//!     })
//!     .collect::<Result<_, _>>()?;
//! for outcome in session.submit_all(&specs) {
//!     let outcome = outcome?;
//!     assert_eq!(outcome.telemetry.answered_by, Some(Fidelity::Golden));
//!     assert_eq!(outcome.verify_error, Some(0.0));
//!     assert_eq!(outcome.grids.len(), 1);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Static verification: every kernel proven before it runs
//!
//! Stream-register kernels fail *silently*: a misconfigured SSR stride
//! scatters writes across TCDM without a trap, and a broken loop bound
//! hangs the cluster. The [`verify`] crate proves the absence of those
//! failure classes for every compiled program — CFG termination
//! structure, def-use over both register files, every stream job proven
//! inside the kernel's TCDM grants (from its descriptor where its address
//! hull decides, element by element where it does not) — and
//! derives a [`StaticBound`](verify::StaticBound): a cycle count the
//! kernel provably cannot beat (integer issue slots, the FP sequencer's
//! in-order issue schedule, TCDM bank pressure).
//!
//! Sessions gate every fresh compile through the verifier, in every
//! build: error-severity findings reject the kernel as
//! [`CodegenError::StaticVerification`](codegen::CodegenError) before
//! a single cycle is simulated. Each clean kernel's proven bound ranks
//! unroll candidates for the tuner, which never simulates one whose
//! bound cannot beat a measurement it already has, and doubles as a
//! calibration-drift detector — an *analytic* estimate below the proven
//! floor is an impossible number, counted in
//! [`SessionStats::bound_violations`](codegen::SessionStats).
//!
//! ```
//! use saris::prelude::*;
//! use saris::verify::{mutate, Mutation};
//!
//! # fn main() -> Result<(), saris::codegen::CodegenError> {
//! let stencil = gallery::jacobi_2d();
//! let extent = Extent::new_2d(32, 32);
//! let options = RunOptions::new(Variant::Saris);
//!
//! // Every compiled kernel verifies clean, with a provable cycle floor.
//! let kernel = compile(&stencil, extent, &options)?;
//! let report = saris::codegen::verify_kernel(&stencil, &kernel, &options);
//! assert!(!report.has_errors());
//! assert!(report.bound.cycles > 0);
//!
//! // Corrupt one stream stride and the verifier catches it statically.
//! let mut broken = kernel.clone();
//! broken.cores[0].program =
//!     mutate(&broken.cores[0].program, Mutation::SwapSsrStride).expect("has a deep stream");
//! let report = saris::codegen::verify_kernel(&stencil, &broken, &options);
//! assert!(report.has_errors());
//!
//! // Sessions can answer the proven floor directly.
//! let session = Session::new();
//! let bound = session.static_bound(&stencil, extent, &options)?;
//! assert!(bound.cycles > 0 && bound.flops > 0);
//! # Ok(())
//! # }
//! ```
//!
//! # Serving: `saris-serve`
//!
//! For a long-lived service, wrap the session in a
//! [`Server`](serve::Server): a bounded work queue feeding worker
//! threads, a fingerprint-keyed LRU response cache, and single-flight
//! deduplication (concurrent identical specs coalesce onto one
//! execution and share the `Arc<Outcome>`). [`ServeStats`](serve::ServeStats)
//! reports what the cache and coalescing saved.
//!
//! ```
//! use saris::prelude::*;
//!
//! # fn main() -> Result<(), saris::serve::ServeError> {
//! let server = Server::new()?;
//! let spec = Workload::new(gallery::jacobi_2d())
//!     .extent(Extent::new_2d(16, 16))
//!     .input_seed(1)
//!     .freeze()
//!     .expect("valid spec");
//! let first = server.submit(&spec)?;
//! let again = server.submit(&spec)?; // response-cache hit
//! assert!(std::sync::Arc::ptr_eq(&first, &again));
//! assert_eq!(server.stats().executed, 1);
//! # Ok(())
//! # }
//! ```
//!
//! # Fault tolerance & deadlines
//!
//! The server assumes backends can misbehave. A panicking execution is
//! caught and isolated (the worker keeps serving; every coalesced
//! waiter gets the same error), transient errors are retried with
//! exponential backoff, and when a cycle-tier request still cannot be
//! answered — panic, exhausted retries, expired deadline, open circuit
//! breaker — the server re-answers it from the analytic tier, flagged
//! [`degraded`](codegen::WorkloadTelemetry::degraded) and never cached.
//! Per-request deadlines bound how long a caller waits; a per-tier
//! circuit breaker and a per-spec quarantine fail sick work fast at
//! admission. Every knob lives on [`ServeConfig`](serve::ServeConfig),
//! and the [`chaos`](codegen::chaos) module provides the seeded
//! fault-injecting backend the soak tests drive all of this with.
//!
//! ```
//! use saris::prelude::*;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), saris::serve::ServeError> {
//! let server = Server::with_config(ServeConfig {
//!     default_deadline: Some(Duration::from_secs(30)),
//!     max_retries: 2,
//!     degrade_to_analytic: true,
//!     ..ServeConfig::default()
//! })?;
//! let spec = Workload::new(gallery::jacobi_2d())
//!     .extent(Extent::new_2d(16, 16))
//!     .input_seed(1)
//!     .freeze()
//!     .expect("valid spec");
//! // A request with no latency budget left cannot simulate, so the
//! // analytic tier answers it; telemetry says so.
//! let rushed = server.submit_with_deadline(&spec, Duration::ZERO)?;
//! assert!(rushed.telemetry.degraded);
//! assert_eq!(rushed.telemetry.answered_by, Some(Fidelity::Analytic));
//! assert!(server.stats().deadline_exceeded >= 1);
//! // With time to work, a request gets the real measurement. (A
//! // distinct spec: identical concurrent specs coalesce onto one
//! // flight, and the rushed flight above may still be in the queue.)
//! let patient = Workload::new(gallery::jacobi_2d())
//!     .extent(Extent::new_2d(16, 16))
//!     .input_seed(2)
//!     .freeze()
//!     .expect("valid spec");
//! let measured = server.submit_with_deadline(&patient, Duration::from_secs(60))?;
//! assert!(!measured.telemetry.degraded);
//! # Ok(())
//! # }
//! ```
//!
//! # Async submission & scheduling
//!
//! `submit` blocks the calling thread; a service thread should not.
//! [`Server::submit_async`](serve::Server::submit_async) admits a
//! request without waiting and returns a
//! [`ResponseHandle`](serve::ResponseHandle) — poll it with
//! [`try_result`](serve::ResponseHandle::try_result), block on it with
//! [`wait`](serve::ResponseHandle::wait), or attach a completion
//! callback with [`on_complete`](serve::ResponseHandle::on_complete).
//!
//! Admission order is not execution order. The queue is a priority
//! scheduler: each job is ranked by its deadline slack plus a
//! deterministic per-tier recompute cost (a cycle-tier simulation is
//! ~700x an analytic estimate), with aging so bulk work cannot starve.
//! Tight-deadline analytic requests overtake a deadlocked-in-FIFO bulk
//! backlog. Ordering is all the scheduler does: a worker takes the
//! best-ranked job and runs it through the session like any single
//! submission, and jobs sharing a compile fingerprint meet in the
//! session's kernel cache, where the first compiles and the rest hit
//! ([`SessionStats::cache_hits`](codegen::SessionStats)). The cost
//! scale is the measured per-tier first-answer cost `BENCHMARK.json`
//! tracks as `serve.first_us.{analytic,golden,cycles}`.
//!
//! ```
//! use saris::prelude::*;
//!
//! # fn main() -> Result<(), saris::serve::ServeError> {
//! let server = Server::new()?;
//! let spec = |seed| {
//!     Workload::new(gallery::jacobi_2d())
//!         .extent(Extent::new_2d(16, 16))
//!         .input_seed(seed)
//!         .freeze()
//!         .expect("valid spec")
//! };
//!
//! // Admit a batch without blocking; every handle resolves exactly once.
//! let handles: Vec<ResponseHandle> =
//!     (0..4).map(|seed| server.submit_async(&spec(seed))).collect();
//! for handle in handles {
//!     let outcome = handle.wait()?;
//!     assert!(!outcome.telemetry.degraded);
//! }
//!
//! // Or don't wait at all: hand the result to a callback.
//! let (tx, rx) = std::sync::mpsc::channel();
//! server
//!     .submit_async(&spec(99))
//!     .on_complete(move |result| tx.send(result.is_ok()).unwrap());
//! assert!(rx.recv().unwrap());
//! # Ok(())
//! # }
//! ```
//!
//! # Sharded serving: `saris-shard`
//!
//! One server is one process. To scale past it, put each server behind
//! a socket ([`NetServer`](serve::NetServer) speaks a length-prefixed,
//! dependency-free wire protocol that round-trips specs and outcomes
//! bit-identically, NaN payloads included) and route requests through a
//! [`Coordinator`](shard::Coordinator): fingerprints are
//! consistent-hashed across the shards, so every repeat of a spec lands
//! on the shard whose kernel and response caches are already hot. A
//! dead worker is retried within a bounded budget, then marked dead and
//! its keyspace rehashed onto the survivors — accepted requests are
//! never lost (execution is deterministic, so at-least-once retry is
//! safe). [`Coordinator::gossip_round`](shard::Coordinator::gossip_round)
//! exchanges calibration stores between shards with a
//! newest-confidence-wins merge, so a stencil measured on one shard is
//! answered analytically on all of them. `BENCHMARK.json` tracks the
//! networked path's throughput as `sharded_net/ops_per_s`.
//!
//! ```
//! use saris::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workers: Vec<ShardWorker> = (0..2)
//!     .map(|_| ShardWorker::spawn(Server::new().expect("server")))
//!     .collect::<std::io::Result<_>>()?;
//! let coordinator = Coordinator::over(&workers)?;
//!
//! // Requests route by fingerprint; answers are the remote worker's
//! // outcomes, decoded bit-identically.
//! for seed in 0..4 {
//!     let spec = Workload::new(gallery::jacobi_2d())
//!         .extent(Extent::new_2d(16, 16))
//!         .input_seed(seed)
//!         .fidelity(Fidelity::Golden)
//!         .freeze()?;
//!     let outcome = coordinator.submit(&spec)?;
//!     assert_eq!(outcome.fingerprint, spec.fingerprint());
//!     assert_eq!(outcome.grids.len(), 1);
//! }
//! assert_eq!(coordinator.live_shards(), 2);
//!
//! // Spread calibration knowledge across the fleet.
//! coordinator.gossip_round();
//! # Ok(())
//! # }
//! ```
//!
//! To regenerate the paper's tables and figures, see the `saris-bench`
//! crate (`cargo run --release -p saris-bench --bin paper -- all`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use saris_codegen as codegen;
pub use saris_core as core;
pub use saris_energy as energy;
pub use saris_isa as isa;
pub use saris_scaleout as scaleout;
pub use saris_serve as serve;
pub use saris_shard as shard;
pub use saris_verify as verify;
pub use snitch_sim as sim;

/// The most commonly used items, re-exported for `use saris::prelude::*`.
pub mod prelude {
    pub use saris_codegen::{
        compile, Backend, BackendRegistry, BufferRotation, Calibration, CalibrationStore,
        CodegenError, FaultInjectingBackend, FaultKind, FaultPlan, Fidelity, InjectedFaults,
        InputSpec, NativeBackend, Outcome, RooflineBackend, RunOptions, Session, SessionConfig,
        SessionStats, SimBackend, Tune, TuningDecision, Variant, Workload, WorkloadSpec,
        WorkloadTelemetry, DEFAULT_CANDIDATES,
    };
    pub use saris_core::{
        gallery, reference, ArenaLayout, Extent, Grid, Halo, InterleavePlan, Offset, Point,
        SarisOptions, SarisPlan, Space, Stencil, StencilBuilder, StreamMode,
    };
    pub use saris_energy::{efficiency_gain, EnergyModel};
    pub use saris_scaleout::{estimate as scaleout_estimate, MachineModel};
    pub use saris_serve::{
        NetClient, NetServer, ResponseHandle, ServeConfig, ServeError, ServeStats, Server,
    };
    pub use saris_shard::{Coordinator, CoordinatorStats, ShardConfig, ShardWorker};
    pub use saris_verify::{verify_cluster, verify_program, MemoryMap, StaticBound};
    pub use snitch_sim::{Cluster, ClusterConfig, RunReport};
}
