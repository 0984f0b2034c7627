//! The execution engine: a reusable [`Session`] that answers
//! [`WorkloadSpec`]s — caching compiled kernels, pooling reset
//! [`Cluster`] instances, and routing each submission to the
//! [`Fidelity`] tier it asked for through a [`BackendRegistry`].
//!
//! Everything that compiles-and-runs kernels — the paper harness in
//! `saris-bench`, the examples, the tests, the `saris-serve` service —
//! goes through one pair of calls: [`Session::submit`] for one
//! workload, [`Session::submit_all`] to fan a spec list across worker
//! threads. A single surface subsumes one-shot runs, unroll tuning,
//! multi-step sweeps, batches, and DMA-utilization probes, so:
//!
//! * a `(stencil fingerprint, extent, compile options)` kernel compiles
//!   exactly once per session (bounded by
//!   [`SessionConfig::max_cached_kernels`], LRU-evicted beyond that),
//!   however many specs or racing threads ask for it (the kernel cache
//!   is a single-flight [`Table`], like `saris-serve`'s responses), and
//!   the static verifier proves it before it runs;
//! * clusters are recycled via [`Cluster::reset`] instead of being
//!   reconstructed, with the idle pool bounded by
//!   [`SessionConfig::max_pooled_clusters`];
//! * the execution substrate is a three-tier registry: instant
//!   [`RooflineBackend`](crate::RooflineBackend) estimates
//!   ([`Fidelity::Analytic`]), the cycle-approximate [`SimBackend`]
//!   ([`Fidelity::Cycles`]), and the golden-reference
//!   [`NativeBackend`](crate::NativeBackend) ([`Fidelity::Golden`]). A
//!   spec picks its tier with
//!   [`Workload::fidelity`](crate::Workload::fidelity); specs that
//!   don't choose run at the session's default tier, and
//!   [`Fidelity::Auto`] specs are routed adaptively — answered
//!   analytically when the session's live
//!   [`CalibrationStore`] meets their accuracy budget, escalated to the
//!   cycle tier (which feeds the store back) otherwise.
//!
//! The kernel cache, the idle clusters and the counters sit behind the
//! session's one lock, and every stage that touches them — a kernel
//! lookup, a flight's lead and settle, a cluster's acquire and release —
//! is one short hold of it. Nothing compiles, verifies, runs, or resets,
//! constructs or drops a cluster under it.
//!
//! # Examples
//!
//! ```
//! use saris_codegen::{Fidelity, Session, Variant, Workload};
//! use saris_core::{gallery, Extent};
//!
//! # fn main() -> Result<(), saris_codegen::CodegenError> {
//! let session = Session::new();
//! let spec = Workload::new(gallery::jacobi_2d())
//!     .extent(Extent::new_2d(16, 16))
//!     .input_seed(1)
//!     .variant(Variant::Saris)
//!     .freeze()?;
//! let first = session.submit(&spec)?;
//! let again = session.submit(&spec)?;
//! assert_eq!(first.telemetry.compiles, 1);
//! assert_eq!(again.telemetry.cache_hits, 1);
//! assert_eq!(session.stats().compiles, 1);
//!
//! // The same spec as an estimate-class request: answered instantly by
//! // the analytic tier, flagged as an estimate.
//! let estimate = session.submit(
//!     &Workload::new(gallery::jacobi_2d())
//!         .extent(Extent::new_2d(16, 16))
//!         .input_seed(1)
//!         .variant(Variant::Saris)
//!         .fidelity(Fidelity::Analytic)
//!         .freeze()?,
//! )?;
//! assert_eq!(estimate.backend, "roofline");
//! assert!(estimate.telemetry.estimated);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use saris_core::grid::Grid;
use saris_core::stencil::Stencil;
use saris_core::{reference, Extent};
use saris_verify::StaticBound;
use snitch_sim::{Cluster, ClusterConfig, RunReport};

use crate::backends::{Backend, BackendRegistry, ExecRequest, Fidelity, SimBackend};
use crate::calibration::{execution_context, CalibrationStore, Observation};
use crate::error::CodegenError;
use crate::flight::{relock, Lead, Lookup, Table};
use crate::runtime::{
    compile, measure_dma_utilization_on, BufferRotation, CompiledKernel, RunOptions,
};
use crate::tuner::{is_infeasible_width, TuningDecision};
use crate::workload::{Outcome, StencilWork, WorkloadKind, WorkloadSpec, WorkloadTelemetry};

/// The key a compiled kernel is cached under: stencil structure, tile
/// extent, and the compile-relevant option fields. This is the
/// compile-relevant *subset* of a workload's
/// [`fingerprint`](WorkloadSpec::fingerprint), so distinct specs (e.g. a
/// `max_cycles` sweep) still share cached kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct KernelKey {
    stencil: u64,
    extent: Extent,
    options: u64,
}

impl KernelKey {
    /// Derives the cache key for one compilation request.
    pub(crate) fn new(stencil: &Stencil, extent: Extent, options: &RunOptions) -> KernelKey {
        KernelKey {
            stencil: stencil.fingerprint(),
            extent,
            options: options.compile_fingerprint(),
        }
    }
}

/// Bounds on what a [`Session`] keeps alive. Kernels beyond their cap
/// are evicted least recently used first, idle clusters oldest first,
/// and both count in [`SessionStats::evictions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum compiled kernels kept in the cache; beyond it the least
    /// recently used is evicted. `0` disables caching, and concurrent
    /// callers of one kernel still share its compile.
    pub max_cached_kernels: usize,
    /// Maximum idle clusters kept for reuse (`0` disables pooling).
    pub max_pooled_clusters: usize,
}

impl Default for SessionConfig {
    /// Generous defaults: large sweeps stay fully cached (the ten-code
    /// gallery at three unrolls and two variants is 60 kernels).
    fn default() -> SessionConfig {
        SessionConfig {
            max_cached_kernels: 1024,
            max_pooled_clusters: 64,
        }
    }
}

/// Counters describing what a session reused versus rebuilt, and which
/// fidelity tiers answered its runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Successful kernel executions (tuning candidates, batch members,
    /// time steps, DMA probes). A run whose backend or probe fails is
    /// not counted, nor is its cluster's reuse, in any counter below.
    pub runs: u64,
    /// Of [`runs`](SessionStats::runs), how many the analytic
    /// (estimate) tier answered.
    pub runs_analytic: u64,
    /// Of [`runs`](SessionStats::runs), how many the cycle-level
    /// simulation tier answered (DMA probes included — they always
    /// measure on the simulated cluster).
    pub runs_cycles: u64,
    /// Of [`runs`](SessionStats::runs), how many the golden-reference
    /// tier answered.
    pub runs_golden: u64,
    /// [`Fidelity::Auto`] submissions the calibration store answered
    /// analytically (the accuracy budget was met without simulating).
    pub auto_answered_analytic: u64,
    /// [`Fidelity::Auto`] submissions that escalated to the cycle tier —
    /// because the store's confidence missed the budget, or because the
    /// workload requested verification. Each escalation feeds the store,
    /// so identical requests answer analytically afterwards.
    pub auto_escalated: u64,
    /// Kernels compiled (cache misses).
    pub compiles: u64,
    /// Kernel-cache hits.
    pub cache_hits: u64,
    /// Of [`cache_hits`](SessionStats::cache_hits), how many joined a
    /// compile in flight: another thread was compiling the same key,
    /// and the caller took its kernel instead of compiling again. A
    /// joined compile that fails saves nothing; its callers retry.
    pub compiles_saved: u64,
    /// Analytic-tier answers whose estimated cycle count fell *below* a
    /// kernel's statically proven lower bound — an impossible cycle
    /// count, flagging calibration drift in the roofline model.
    pub bound_violations: u64,
    /// Runs that recycled a pooled cluster.
    pub clusters_reused: u64,
    /// Kernels and idle clusters dropped by the [`SessionConfig`]
    /// bounds (LRU-evicted kernels plus clusters released into a full
    /// pool).
    pub evictions: u64,
    /// Simulated cycles the engine skipped via idle fast-forwarding
    /// across all runs (dead time the simulator never stepped through).
    pub cycles_fast_forwarded: u64,
    /// Times the session's lock was recovered from poisoning: a holder
    /// panicked, and the session kept serving instead of cascading.
    /// Nothing runs under the lock but single consistent updates, so the
    /// state stays sound; non-zero values still mean worker threads have
    /// been dying.
    pub lock_recoveries: u64,
}

impl SessionStats {
    fn count_tier(&mut self, fidelity: Fidelity) {
        match fidelity {
            Fidelity::Analytic => self.runs_analytic += 1,
            Fidelity::Cycles => self.runs_cycles += 1,
            Fidelity::Golden => self.runs_golden += 1,
            // Backends serve concrete tiers only; Auto resolves to one
            // of the above before any run is counted.
            Fidelity::Auto { .. } => {}
        }
    }
}

/// A compiled kernel and the cycle lower bound the verifier proved for
/// it when it compiled. The kernel cache holds and hands out the two
/// together, so the tuner, [`Session::static_bound`] and the
/// analytic-tier cross-check that counts
/// [`SessionStats::bound_violations`] read the bound without proving
/// again, and the LRU evicts both together.
struct CachedKernel {
    kernel: Arc<CompiledKernel>,
    bound: StaticBound,
}

/// What a [`Session`]'s callers share, behind its one lock.
#[derive(Default)]
struct State {
    /// The kernel cache, at uniform cost (so exactly LRU). A joined
    /// compile hands its proven kernel, or `None` — try again — on
    /// failure.
    kernels: Table<KernelKey, Arc<CachedKernel>, Option<Arc<CachedKernel>>>,
    /// Idle clusters, each in the state its last run left it: a caller
    /// resets one after taking it, outside the lock.
    clusters: Vec<Cluster>,
    stats: SessionStats,
}

/// One successful run, as [`State::release`] books it.
struct Run {
    fidelity: Fidelity,
    cluster_reused: bool,
    cycles_fast_forwarded: u64,
}

impl State {
    /// Takes an idle cluster configured as `cfg`, if one is pooled.
    fn acquire(&mut self, cfg: &ClusterConfig) -> Option<Cluster> {
        let pos = self.clusters.iter().position(|c| c.config() == cfg)?;
        Some(self.clusters.swap_remove(pos))
    }

    /// Gives back the cluster a run used, if any, and books the run if
    /// it succeeded. A full pool (at most `cap` idle clusters) drops its
    /// oldest cluster, or the released one when `cap` is 0; the dropped
    /// cluster is returned so the caller frees it outside the lock.
    fn release(
        &mut self,
        cluster: Option<Cluster>,
        cap: usize,
        run: Option<Run>,
    ) -> Option<Cluster> {
        if let Some(run) = run {
            self.stats.runs += 1;
            self.stats.count_tier(run.fidelity);
            self.stats.clusters_reused += u64::from(run.cluster_reused);
            self.stats.cycles_fast_forwarded += run.cycles_fast_forwarded;
        }
        let cluster = cluster?;
        if self.clusters.len() < cap {
            self.clusters.push(cluster);
            return None;
        }
        self.stats.evictions += 1;
        if cap == 0 {
            return Some(cluster);
        }
        self.clusters.push(cluster);
        Some(self.clusters.remove(0))
    }
}

/// What one internal kernel execution produced (`output` is `None` on
/// estimate-only backends, which do no per-point work).
struct RunOut {
    output: Option<Grid>,
    report: Option<RunReport>,
    kernel: Option<Arc<CompiledKernel>>,
}

/// A reusable execution engine: kernel cache + idle clusters + a
/// three-tier [`BackendRegistry`].
///
/// Sessions are `Sync`; a single session can serve many worker threads
/// concurrently (that is exactly what [`Session::submit_all`] and the
/// `saris-serve` service do). Each submission runs on the tier its spec
/// requested ([`Workload::fidelity`](crate::Workload::fidelity)); specs
/// that don't choose run at the session's *default* tier —
/// [`Fidelity::Cycles`] for [`Session::new`], [`Fidelity::Golden`] for
/// [`Session::native`], [`Fidelity::Analytic`] for
/// [`Session::analytic`].
pub struct Session {
    registry: BackendRegistry,
    default_fidelity: Fidelity,
    config: SessionConfig,
    /// The session's one lock.
    state: Mutex<State>,
    /// The analytic backend's live calibration table, when it has one
    /// (the standard registry's [`RooflineBackend`](crate::RooflineBackend)
    /// does). Every cycle-tier stencil outcome is fed back into it, and
    /// [`Fidelity::Auto`] routes on its confidence.
    calibration: Option<Arc<CalibrationStore>>,
    /// Poison recoveries on the session's lock; see
    /// [`SessionStats::lock_recoveries`].
    recovered: AtomicU64,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A session defaulting to the cycle-approximate simulator
    /// ([`SimBackend`]).
    pub fn new() -> Session {
        Session::with_default_fidelity(Fidelity::Cycles)
    }

    /// A session defaulting to the golden-reference executor
    /// ([`NativeBackend`](crate::NativeBackend)).
    pub fn native() -> Session {
        Session::with_default_fidelity(Fidelity::Golden)
    }

    /// A session defaulting to the analytic roofline tier
    /// ([`RooflineBackend`](crate::RooflineBackend)).
    pub fn analytic() -> Session {
        Session::with_default_fidelity(Fidelity::Analytic)
    }

    /// A session on the standard registry with the given default tier.
    pub fn with_default_fidelity(default_fidelity: Fidelity) -> Session {
        Session::with_registry(
            BackendRegistry::standard(),
            default_fidelity,
            SessionConfig::default(),
        )
    }

    /// A simulator-default session with explicit cache/pool bounds.
    pub fn with_config(config: SessionConfig) -> Session {
        Session::with_registry(BackendRegistry::standard(), Fidelity::Cycles, config)
    }

    /// A session whose default tier is served by a custom backend (the
    /// backend's own [`Backend::fidelity`] slot in an otherwise standard
    /// registry).
    pub fn with_backend(backend: Arc<dyn Backend>) -> Session {
        let default_fidelity = backend.fidelity();
        let mut registry = BackendRegistry::standard();
        registry.register(backend);
        Session::with_registry(registry, default_fidelity, SessionConfig::default())
    }

    /// A session on an explicit registry, default tier, and bounds.
    pub fn with_registry(
        registry: BackendRegistry,
        default_fidelity: Fidelity,
        config: SessionConfig,
    ) -> Session {
        let calibration = registry.get(Fidelity::Analytic).calibration_store();
        Session {
            registry,
            default_fidelity,
            config,
            state: Mutex::default(),
            calibration,
            recovered: AtomicU64::new(0),
        }
    }

    /// The tier specs run at when they don't request one.
    pub fn default_fidelity(&self) -> Fidelity {
        self.default_fidelity
    }

    /// The backend registry submissions are routed through.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// The live calibration store behind the session's analytic tier,
    /// when its analytic backend exposes one. This is the table every
    /// cycle-tier outcome feeds and [`Fidelity::Auto`] routes on —
    /// export it with
    /// [`CalibrationStore::to_json`], or share it across sessions by
    /// building their registries from
    /// [`RooflineBackend::with_store`](crate::RooflineBackend::with_store).
    pub fn calibration(&self) -> Option<&Arc<CalibrationStore>> {
        self.calibration.as_ref()
    }

    /// The configured cache/pool bounds.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Locks the session state, recovering from poisoning: each
    /// recovery counts in [`SessionStats::lock_recoveries`].
    fn lock(&self) -> MutexGuard<'_, State> {
        relock(&self.state, &self.recovered)
    }

    /// A snapshot of the reuse counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            lock_recoveries: self.recovered.load(Ordering::Relaxed),
            ..self.lock().stats
        }
    }

    /// Number of kernels currently cached (successful compiles only).
    pub fn cached_kernels(&self) -> usize {
        self.lock().kernels.cached()
    }

    /// Number of idle clusters currently pooled.
    pub fn pooled_clusters(&self) -> usize {
        self.lock().clusters.len()
    }

    /// Takes a power-on-state cluster configured as `cfg`: an idle one
    /// reset after the lock is released, or a new one. Returns it and
    /// whether it was recycled.
    fn acquire(&self, cfg: &ClusterConfig) -> (Cluster, bool) {
        let idle = self.lock().acquire(cfg);
        match idle {
            Some(mut cluster) => {
                cluster.reset();
                (cluster, true)
            }
            None => (Cluster::new(cfg.clone()), false),
        }
    }

    /// [`State::release`] in one lock hold; a cluster the bound drops is
    /// dropped after the lock is released.
    fn release(&self, cluster: Option<Cluster>, run: Option<Run>) {
        let dropped = self
            .lock()
            .release(cluster, self.config.max_pooled_clusters, run);
        drop(dropped);
    }

    /// Compiles `stencil` for `extent` through the kernel cache: each
    /// `(stencil fingerprint, extent, compile options)` key compiles at
    /// most once while cached, concurrent callers included. Every fresh
    /// compile passes the static verifier (`saris-verify`) before any
    /// caller sees it. Returns the kernel and whether it was a cache hit.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors, and
    /// [`CodegenError::StaticVerification`] for a kernel with
    /// error-severity findings. Neither is cached nor shared — a failing
    /// key fails again on retry, and callers that joined the failed
    /// compile try for themselves.
    pub fn compile_cached(
        &self,
        stencil: &Stencil,
        extent: Extent,
        options: &RunOptions,
    ) -> Result<(Arc<CompiledKernel>, bool), CodegenError> {
        let (cached, hit) = self.compile_proven(stencil, extent, options)?;
        Ok((Arc::clone(&cached.kernel), hit))
    }

    /// [`Session::compile_cached`], handing out the kernel together with
    /// its proven bound.
    fn compile_proven(
        &self,
        stencil: &Stencil,
        extent: Extent,
        options: &RunOptions,
    ) -> Result<(Arc<CachedKernel>, bool), CodegenError> {
        let key = KernelKey::new(stencil, extent, options);
        let flight = loop {
            let joined = {
                let mut guard = self.lock();
                let state = &mut *guard;
                match state.kernels.lookup(&key) {
                    Lookup::Hit(cached, _) => {
                        state.stats.cache_hits += 1;
                        return Ok((Arc::clone(cached), true));
                    }
                    Lookup::Join(flight) => flight,
                    Lookup::Miss => break state.kernels.lead(key),
                }
            };
            // Another caller is compiling this key: its kernel is a hit
            // that saved a compile. A failed or unwound compile sends
            // `None` instead, and this caller looks the key up again.
            if let Some(cached) = joined.wait_until(None, &self.recovered).flatten() {
                let stats = &mut self.lock().stats;
                stats.cache_hits += 1;
                stats.compiles_saved += 1;
                return Ok((cached, true));
            }
        };
        // This caller leads: if the compile or the gate below fails or
        // unwinds, `lead` takes the row out and wakes the joined callers.
        let lead = Lead {
            state: &self.state,
            recovered: &self.recovered,
            table: |state| &mut state.kernels,
            key,
            flight: Some(flight),
        };
        let kernel = compile(stencil, extent, options)?;
        // The gate: a kernel with error-severity findings is rejected
        // like a failed compile, and a clean one carries its proven cycle
        // lower bound.
        let report = crate::verify::verify_kernel(stencil, &kernel, options);
        if report.has_errors() {
            return Err(CodegenError::StaticVerification {
                name: stencil.name().to_string(),
                findings: report.errors().map(ToString::to_string).collect(),
            });
        }
        let cached = Arc::new(CachedKernel {
            kernel: Arc::new(kernel),
            bound: report.bound,
        });
        {
            let mut guard = self.lock();
            let state = &mut *guard;
            state.stats.compiles += 1;
            let cap = self.config.max_cached_kernels;
            let answer = Some((Arc::clone(&cached), 1.0));
            state.stats.evictions += state.kernels.settle(&key, answer, cap);
        }
        lead.complete(Some(Arc::clone(&cached)));
        Ok((cached, false))
    }

    /// The statically proven cycle lower bound for `stencil` at `extent`
    /// under `options`: the one its kernel was gated with, read from the
    /// kernel cache. A key the cache has evicted is recompiled and
    /// re-proven.
    ///
    /// # Errors
    ///
    /// As [`Session::compile_cached`].
    pub fn static_bound(
        &self,
        stencil: &Stencil,
        extent: Extent,
        options: &RunOptions,
    ) -> Result<StaticBound, CodegenError> {
        let (cached, _) = self.compile_proven(stencil, extent, options)?;
        Ok(cached.bound.clone())
    }

    /// [`Session::compile_proven`], counted in `tel`.
    fn compile_counted(
        &self,
        stencil: &Stencil,
        extent: Extent,
        options: &RunOptions,
        tel: &mut WorkloadTelemetry,
    ) -> Result<Arc<CachedKernel>, CodegenError> {
        let (cached, hit) = self.compile_proven(stencil, extent, options)?;
        if hit {
            tel.cache_hits += 1;
        } else {
            tel.compiles += 1;
        }
        Ok(cached)
    }

    /// One kernel execution: compile (through the cache, when the backend
    /// wants kernels), dispatch to the backend, account telemetry.
    fn run_one(
        &self,
        backend: &dyn Backend,
        stencil: &Stencil,
        inputs: &[&Grid],
        options: &RunOptions,
        tel: &mut WorkloadTelemetry,
    ) -> Result<RunOut, CodegenError> {
        let extent = inputs.first().expect("stencil needs an input").extent();
        let kernel = backend
            .needs_kernel()
            .then(|| self.compile_counted(stencil, extent, options, tel))
            .transpose()?
            .map(|cached| Arc::clone(&cached.kernel));
        self.execute(backend, stencil, inputs, options, kernel, tel)
    }

    /// Dispatches one execution of `kernel` (`None` for backends that
    /// need none) to `backend`, on a cluster the session lends when the
    /// backend needs kernels, and accounts telemetry.
    fn execute(
        &self,
        backend: &dyn Backend,
        stencil: &Stencil,
        inputs: &[&Grid],
        options: &RunOptions,
        kernel: Option<Arc<CompiledKernel>>,
        tel: &mut WorkloadTelemetry,
    ) -> Result<RunOut, CodegenError> {
        let mut lent = backend
            .needs_kernel()
            .then(|| self.acquire(&options.cluster));
        let result = backend.execute(ExecRequest {
            stencil,
            inputs,
            options,
            kernel: kernel.as_ref(),
            cluster: lent.as_mut().map(|(cluster, _)| cluster),
        });
        let cluster_reused = lent.as_ref().is_some_and(|&(_, reused)| reused);
        let fast_forwarded = result
            .as_ref()
            .ok()
            .and_then(|outcome| outcome.report.as_ref())
            .map_or(0, |r| r.cycles_fast_forwarded);
        let run = result.is_ok().then_some(Run {
            fidelity: backend.fidelity(),
            cluster_reused,
            cycles_fast_forwarded: fast_forwarded,
        });
        self.release(lent.map(|(cluster, _)| cluster), run);
        let outcome = result?;
        tel.runs += 1;
        tel.clusters_reused += u64::from(cluster_reused);
        tel.estimated |= outcome.estimated;
        tel.cycles_fast_forwarded += fast_forwarded;
        Ok(RunOut {
            output: outcome.output,
            report: outcome.report,
            kernel,
        })
    }

    /// Answers one [`WorkloadSpec`] — the single entry point subsuming
    /// one-shot runs, unroll tuning, multi-step sweeps, and
    /// DMA-utilization probes.
    ///
    /// # Errors
    ///
    /// Propagates compilation and execution errors,
    /// [`CodegenError::NoCandidates`] when tuning finds no feasible
    /// unroll, and [`CodegenError::VerificationFailed`] when the spec
    /// requested verification and the output diverges beyond tolerance.
    pub fn submit(&self, spec: &WorkloadSpec) -> Result<Outcome, CodegenError> {
        match spec.kind() {
            WorkloadKind::DmaProbe { extent, cluster } => self.submit_probe(spec, *extent, cluster),
            WorkloadKind::Stencil(work) => self.submit_stencil(spec, work),
        }
    }

    /// Re-answers a stencil spec from the analytic tier after its
    /// requested tier failed or blew its deadline — the graceful
    /// degradation path `saris-serve` falls back to. The outcome keeps
    /// the spec's fingerprint but is answered by the roofline backend
    /// and flagged [`WorkloadTelemetry::degraded`], so callers (and
    /// response caches) can tell a stand-in estimate from the
    /// full-fidelity answer the spec asked for.
    ///
    /// # Errors
    ///
    /// [`CodegenError::InvalidWorkload`] for specs an estimate cannot
    /// stand in for: DMA probes (they *are* measurements), verifying
    /// workloads (verification needs output grids), and golden-tier
    /// requests (the caller asked for exact grids). Analytic-tier
    /// failures propagate.
    pub fn submit_degraded(&self, spec: &WorkloadSpec) -> Result<Outcome, CodegenError> {
        let WorkloadKind::Stencil(work) = spec.kind() else {
            return Err(CodegenError::InvalidWorkload {
                reason: "DMA probes measure on the simulated cluster; \
                         there is no analytic answer to degrade to"
                    .to_string(),
            });
        };
        if work.verify.is_some() {
            return Err(CodegenError::InvalidWorkload {
                reason: "verifying workloads need output grids; \
                         the grid-free analytic tier cannot answer them degraded"
                    .to_string(),
            });
        }
        let requested = work.fidelity.unwrap_or(self.default_fidelity);
        if requested == Fidelity::Golden {
            return Err(CodegenError::InvalidWorkload {
                reason: "golden-tier workloads ask for exact grids; \
                         an analytic estimate is no substitute"
                    .to_string(),
            });
        }
        let mut degraded = work.clone();
        degraded.fidelity = Some(Fidelity::Analytic);
        let mut outcome = self.submit_stencil(spec, &degraded)?;
        outcome.telemetry.degraded = true;
        Ok(outcome)
    }

    /// Answers a list of specs, fanning out across worker threads (one
    /// pooled cluster per worker) that each pull the next spec and
    /// [`submit`](Session::submit) it — the same path, spec for spec, as
    /// a loop of `submit`, so outcomes are bit-identical to it. Kernels
    /// flow through the single-flight kernel cache, so identical compile
    /// requests never compile twice even when their workers race.
    /// Outcomes come back in spec order; each spec fails or succeeds
    /// independently.
    pub fn submit_all(&self, specs: &[WorkloadSpec]) -> Vec<Result<Outcome, CodegenError>> {
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(specs.len());
        let next = AtomicUsize::new(0);
        let work = || {
            std::iter::from_fn(|| {
                let i = next.fetch_add(1, Ordering::Relaxed);
                Some((i, self.submit(specs.get(i)?)))
            })
            .collect::<Vec<_>>()
        };
        let mut answered: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("batch worker"))
                .collect()
        });
        answered.sort_unstable_by_key(|&(i, _)| i);
        answered.into_iter().map(|(_, outcome)| outcome).collect()
    }

    fn submit_probe(
        &self,
        spec: &WorkloadSpec,
        extent: Extent,
        cfg: &ClusterConfig,
    ) -> Result<Outcome, CodegenError> {
        let (mut cluster, reused) = self.acquire(cfg);
        let result = measure_dma_utilization_on(extent, &mut cluster);
        let run = result.is_ok().then_some(Run {
            fidelity: Fidelity::Cycles,
            cluster_reused: reused,
            cycles_fast_forwarded: 0,
        });
        self.release(Some(cluster), run);
        let utilization = result?;
        Ok(Outcome {
            fingerprint: spec.fingerprint(),
            // Probes always measure on the simulated cluster, whatever
            // backend the session runs stencils on.
            backend: SimBackend.name(),
            grids: Vec::new(),
            reports: Vec::new(),
            kernel: None,
            tuning: None,
            verify_error: None,
            dma_utilization: Some(utilization),
            telemetry: WorkloadTelemetry {
                runs: 1,
                clusters_reused: u64::from(reused),
                answered_by: Some(Fidelity::Cycles),
                ..WorkloadTelemetry::default()
            },
        })
    }

    /// Resolves the [`Fidelity::Auto`] routing policy for one stencil
    /// workload: escalate to the cycle tier when the workload verifies
    /// (verification needs grids) or when the calibration store's
    /// expected accuracy for the spec — its extent *and* its execution
    /// context (options + tuning policy) — misses the budget; answer
    /// analytically otherwise.
    fn resolve_auto(&self, work: &StencilWork, accuracy_budget: f64) -> Fidelity {
        if work.verify.is_some() {
            return Fidelity::Cycles;
        }
        let analytic_ok = self.calibration.as_ref().is_some_and(|store| {
            store.meets_budget(
                &work.stencil,
                work.options.variant,
                work.options.cluster.n_cores,
                work.extent,
                execution_context(&work.options, &work.tune),
                accuracy_budget,
            )
        });
        if analytic_ok {
            Fidelity::Analytic
        } else {
            Fidelity::Cycles
        }
    }

    /// Feeds one cycle-tier measurement back into the calibration store
    /// (the adaptive-fidelity learning half: see
    /// [`CalibrationStore::observe`]), tagged with the workload's
    /// execution context so only configuration-identical requests treat
    /// it as exact.
    fn feed_calibration(&self, work: &StencilWork, report: &RunReport) {
        let Some(store) = &self.calibration else {
            return;
        };
        let interior = work.stencil.interior(work.extent).len() as u64;
        store.observe(
            &work.stencil,
            work.options.variant,
            work.extent,
            execution_context(&work.options, &work.tune),
            &Observation {
                cycles: report.cycles,
                fpu_ops: report.cores.iter().map(|c| c.fpu.arith).sum(),
                flops: report.flops(),
                interior_points: interior,
                imbalance: report.runtime_imbalance(),
            },
        );
    }

    /// Picks the unroll among `candidates`: the first in list order of
    /// those with the fewest cycles, skipping widths the register file
    /// or FREP sequencer genuinely refuses.
    ///
    /// It proves before it simulates. Every feasible candidate is
    /// compiled, and so proven: on the cycle tier, candidates are
    /// simulated in ascending `(bound, list index)` order, and one that
    /// cannot win is never simulated: its bound exceeds the best cycles
    /// measured so far, or equals them and it comes later in the list.
    /// A bound never exceeds its kernel's simulated cycles, so the pick
    /// is the one simulating every candidate would make. Off the cycle
    /// tier, or with a single feasible candidate, candidates run in list
    /// order and no bound is reported.
    fn tune(
        &self,
        backend: &dyn Backend,
        work: &StencilWork,
        candidates: &[usize],
        inputs: &[&Grid],
        tel: &mut WorkloadTelemetry,
    ) -> Result<(RunOptions, TuningDecision, RunOut), CodegenError> {
        let stencil = &*work.stencil;
        let mut feasible = Vec::with_capacity(candidates.len());
        for &unroll in candidates {
            let options = work.options.clone().with_unroll(unroll);
            match self.compile_counted(stencil, work.extent, &options, tel) {
                Ok(kernel) => feasible.push((options, kernel)),
                Err(e) if is_infeasible_width(&e) => {}
                Err(e) => return Err(e),
            }
        }
        let ranked = backend.fidelity() == Fidelity::Cycles && feasible.len() > 1;
        let mut bounds = Vec::new();
        let mut order = Vec::with_capacity(feasible.len());
        for (i, (options, cached)) in feasible.iter().enumerate() {
            let rank = if ranked { cached.bound.cycles } else { 0 };
            if ranked {
                bounds.push((options.unroll, rank));
            }
            order.push((rank, i));
        }
        order.sort_unstable();
        // `(cycles, index)` of the best candidate simulated so far: a
        // candidate ranked above it cannot win, and neither can any
        // after it in `order`.
        let mut best: Option<(u64, usize, RunOut)> = None;
        let mut measured = Vec::new();
        for (rank, i) in order {
            if best.as_ref().is_some_and(|&(c, j, _)| (rank, i) > (c, j)) {
                break;
            }
            let (options, cached) = &feasible[i];
            let run = self.execute(
                backend,
                stencil,
                inputs,
                options,
                Some(Arc::clone(&cached.kernel)),
                tel,
            )?;
            let cycles = run.report.as_ref().map_or(u64::MAX, |r| r.cycles);
            measured.push((i, options.unroll, cycles));
            if best.as_ref().is_none_or(|&(c, j, _)| (cycles, i) < (c, j)) {
                best = Some((cycles, i, run));
            }
        }
        let (_, winner, run) = best.ok_or(CodegenError::NoCandidates)?;
        measured.sort_unstable();
        let options = feasible.swap_remove(winner).0;
        let decision = TuningDecision {
            unroll: options.unroll,
            measured: measured.into_iter().map(|(_, u, c)| (u, c)).collect(),
            bounds,
        };
        Ok((options, decision, run))
    }

    fn submit_stencil(
        &self,
        spec: &WorkloadSpec,
        work: &StencilWork,
    ) -> Result<Outcome, CodegenError> {
        let fidelity = match work.fidelity.unwrap_or(self.default_fidelity) {
            Fidelity::Auto { accuracy_budget } => {
                let fidelity = self.resolve_auto(work, accuracy_budget);
                let stats = &mut self.lock().stats;
                match fidelity {
                    Fidelity::Analytic => stats.auto_answered_analytic += 1,
                    _ => stats.auto_escalated += 1,
                }
                fidelity
            }
            concrete => concrete,
        };
        let backend = &**self.registry.get(fidelity);
        let stencil = &*work.stencil;
        // Explicit grids are borrowed straight from the spec's `Arc` —
        // only seeded inputs materialize fresh grids, and only the
        // rotated (multi-step) path below copies them into working
        // buffers.
        let seeded_store;
        let inputs: &[Grid] = match &work.inputs {
            crate::workload::InputSpec::Grids(grids) => grids,
            seeded => {
                seeded_store = seeded.materialize(stencil, work.extent);
                &seeded_store
            }
        };
        let mut tel = WorkloadTelemetry::default();

        // Tuning: prove, then measure on the initial inputs (see
        // `Session::tune`). Codegen-free backends have nothing to tune.
        let mut first_run = None;
        let (options, tuning) = if let (Some(candidates), true) =
            (work.tune.candidates(), backend.needs_kernel())
        {
            let refs: Vec<&Grid> = inputs.iter().collect();
            let (options, decision, run) = self.tune(backend, work, candidates, &refs, &mut tel)?;
            first_run = Some(run);
            (options, Some(decision))
        } else {
            (work.options.clone(), None)
        };

        // Time stepping: the winning configuration's first application is
        // reused from tuning; later steps rotate buffers per the spec.
        let mut reports = Vec::new();
        let mut kernel = None;
        let grids = march(work, inputs, |refs| {
            let run = match first_run.take() {
                Some(run) => run,
                None => self.run_one(backend, stencil, refs, &options, &mut tel)?,
            };
            if let Some(report) = run.report {
                reports.push(report);
            }
            if run.kernel.is_some() {
                kernel = run.kernel;
            }
            Ok(run.output)
        })?;

        // Verification: march the golden reference through the same
        // steps and rotation, then compare every final grid.
        let verify_error = match work.verify {
            None => None,
            Some(_) if grids.is_empty() => {
                return Err(CodegenError::InvalidWorkload {
                    reason: format!(
                        "the `{}` backend produces estimates without output grids; \
                         verification needs a grid-producing fidelity tier",
                        backend.name()
                    ),
                })
            }
            Some(tolerance) => {
                // A simulated answer is compared with the data-parallel
                // row sweep; a golden answer *is* that sweep, so it is
                // compared with the retained scalar oracle — a reference
                // its backend did not compute.
                let reference_grids = march(work, inputs, |refs| {
                    Ok(Some(if fidelity == Fidelity::Golden {
                        reference::apply_scalar_to_new(stencil, refs, work.extent)
                    } else {
                        reference::apply_to_new(stencil, refs, work.extent)
                    }))
                })?;
                let error = grids
                    .iter()
                    .zip(&reference_grids)
                    .map(|(a, b)| verify_diff(a, b))
                    .fold(0.0, f64::max);
                if error > tolerance {
                    return Err(CodegenError::VerificationFailed {
                        name: stencil.name().to_string(),
                        error,
                        tolerance,
                    });
                }
                Some(error)
            }
        };

        // The adaptive feedback loop: every cycle-tier measurement — the
        // winning configuration's first step, after any tuning — flows
        // back into the calibration store, so the analytic tier's next
        // answer for this (stencil, variant, cluster shape) reproduces
        // what the simulator just measured.
        if fidelity == Fidelity::Cycles {
            if let Some(report) = reports.first() {
                self.feed_calibration(work, report);
            }
        }
        // The drift detector's other half: an *analytic* estimate below a
        // kernel's statically proven cycle floor is an impossible number —
        // the roofline model (or its calibration data) has drifted. The
        // analytic tier compiles nothing, so only kernels the session
        // has already compiled, and so proven, are checked.
        if fidelity == Fidelity::Analytic {
            let key = KernelKey::new(stencil, work.extent, &options);
            let mut guard = self.lock();
            let state = &mut *guard;
            if let Some(cached) = state.kernels.value_mut(&key) {
                let floor = cached.bound.cycles;
                let low = reports.iter().filter(|r| r.cycles < floor).count();
                state.stats.bound_violations += low as u64;
            }
        }
        // Surface the winning kernel's per-point-visit instruction mix
        // (the paper's Section 2.1 accounting) alongside the cache/pool
        // counters.
        if let Some(k) = &kernel {
            if let Some(cc) = k.cores.first() {
                tel.mix_counts =
                    saris_isa::analysis::point_mix(&cc.program, cc.point_loop.as_ref()).counts();
            }
        }
        tel.answered_by = Some(fidelity);

        Ok(Outcome {
            fingerprint: spec.fingerprint(),
            backend: backend.name(),
            grids,
            reports,
            kernel,
            tuning,
            verify_error,
            dma_utilization: None,
            telemetry: tel,
        })
    }
}

/// NaN-aware verification distance: bitwise-equal elements (including
/// equal infinities and identical NaN payloads) count as zero, and any
/// remaining NaN difference — a kernel producing NaN where the reference
/// does not, or vice versa — counts as infinite, so broken kernels can
/// never slip through a finite tolerance.
fn verify_diff(a: &Grid, b: &Grid) -> f64 {
    let diff = |(x, y): (&f64, &f64)| match (x - y).abs() {
        _ if x.to_bits() == y.to_bits() => 0.0,
        d if d.is_nan() => f64::INFINITY,
        d => d,
    };
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(diff)
        .fold(0.0, f64::max)
}

/// Applies `work`'s time steps to `inputs` with `step`: without a buffer
/// rotation one application, whose output is the only grid; with one,
/// `time_steps` applications, each output rotated in as the youngest
/// field. Estimate-only backends produce no grids: each step then
/// estimates from the same (never-rotated) inputs, and the march
/// returns no grids, like a probe.
fn march(
    work: &StencilWork,
    inputs: &[Grid],
    mut step: impl FnMut(&[&Grid]) -> Result<Option<Grid>, CodegenError>,
) -> Result<Vec<Grid>, CodegenError> {
    let Some(rotation) = work.rotation else {
        let refs: Vec<&Grid> = inputs.iter().collect();
        return Ok(step(&refs)?.into_iter().collect());
    };
    let mut working = inputs.to_vec();
    let mut produced = false;
    for _ in 0..work.time_steps {
        let refs: Vec<&Grid> = working.iter().collect();
        if let Some(output) = step(&refs)? {
            produced = true;
            rotate(&mut working, output, rotation);
        }
    }
    Ok(if produced { working } else { Vec::new() })
}

/// Applies one buffer rotation: the new output becomes the youngest
/// field.
fn rotate(grids: &mut [Grid], output: Grid, rotation: BufferRotation) {
    match rotation {
        BufferRotation::Alternating => grids[0] = output,
        BufferRotation::Leapfrog => {
            let u = std::mem::replace(&mut grids[0], output);
            grids[1] = u;
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("registry", &self.registry)
            .field("default_fidelity", &self.default_fidelity)
            .field("config", &self.config)
            .field("cached_kernels", &self.cached_kernels())
            .field("pooled_clusters", &self.pooled_clusters())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Variant;
    use crate::tuner::{Tune, DEFAULT_CANDIDATES};
    use crate::workload::Workload;
    use saris_core::gallery;

    fn jacobi_spec() -> WorkloadSpec {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(3)
            .variant(Variant::Saris)
            .freeze()
            .unwrap()
    }

    #[test]
    fn cache_hits_on_identical_requests() {
        let spec = jacobi_spec();
        let session = Session::new();
        let a = session.submit(&spec).unwrap();
        let b = session.submit(&spec).unwrap();
        assert_eq!(a.telemetry.compiles, 1);
        assert_eq!(b.telemetry.cache_hits, 1);
        assert_eq!(session.stats().compiles, 1);
        assert_eq!(session.stats().cache_hits, 1);
        assert_eq!(session.cached_kernels(), 1);
        // Identical kernel object, identical results.
        assert!(Arc::ptr_eq(
            a.kernel.as_ref().unwrap(),
            b.kernel.as_ref().unwrap()
        ));
        assert_eq!(a.grids, b.grids);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.fingerprint, spec.fingerprint());
    }

    #[test]
    fn execution_only_knobs_share_kernels() {
        let session = Session::new();
        session.submit(&jacobi_spec()).unwrap();
        let mut budget_opts = RunOptions::new(Variant::Saris);
        budget_opts.max_cycles = 10_000_000;
        let budget = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(3)
            .options(budget_opts)
            .freeze()
            .unwrap();
        assert_ne!(budget.fingerprint(), jacobi_spec().fingerprint());
        let run = session.submit(&budget).unwrap();
        assert_eq!(
            run.telemetry.cache_hits, 1,
            "max_cycles must not force a recompile"
        );
        // Compile-relevant knobs do.
        let unrolled = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(3)
            .unroll(2)
            .freeze()
            .unwrap();
        let run = session.submit(&unrolled).unwrap();
        assert_eq!(run.telemetry.compiles, 1);
        assert_eq!(session.stats().compiles, 2);
    }

    #[test]
    fn pooled_clusters_are_recycled() {
        let spec = jacobi_spec();
        let session = Session::new();
        session.submit(&spec).unwrap();
        assert_eq!(session.pooled_clusters(), 1);
        session.submit(&spec).unwrap();
        assert_eq!(session.pooled_clusters(), 1, "cluster returns to the pool");
        assert_eq!(session.stats().clusters_reused, 1);
    }

    #[test]
    fn native_backend_is_the_reference() {
        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(3)
            .verify(0.0)
            .freeze()
            .unwrap();
        let session = Session::native();
        let run = session.submit(&spec).unwrap();
        assert_eq!(run.backend, "native");
        assert!(run.reports.is_empty() && run.report().is_none());
        assert!(run.kernel.is_none());
        assert_eq!(run.verify_error, Some(0.0), "native output is exact");
        assert_eq!(session.stats().compiles, 0, "native runs never compile");
    }

    #[test]
    fn tuning_skips_infeasible_widths_and_keeps_the_fastest() {
        // j3d27pt at base unroll 4 hits register pressure; the tuner
        // must still return a winner from the feasible set.
        let spec = Workload::new(gallery::j3d27pt())
            .extent(Extent::cube(saris_core::Space::Dim3, 10))
            .input_seed(2)
            .variant(Variant::Base)
            .tune(Tune::Auto)
            .freeze()
            .unwrap();
        let outcome = Session::new().submit(&spec).unwrap();
        let tuning = outcome.tuning.clone().expect("tuned");
        assert!(!tuning.measured.is_empty() && tuning.measured.len() < 3);
        let min = tuning.measured.iter().map(|&(_, c)| c).min().unwrap();
        assert_eq!(outcome.expect_report().cycles, min);
        assert_eq!(outcome.unroll(), Some(tuning.unroll));
    }

    #[test]
    fn tuning_prefers_beneficial_unrolls() {
        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(32, 32))
            .input_seed(1)
            .variant(Variant::Base)
            .tune(Tune::Auto)
            .freeze()
            .unwrap();
        let outcome = Session::new().submit(&spec).unwrap();
        let tuning = outcome.tuning.expect("tuned");
        // Deep chains benefit from unrolling: u > 1 should win.
        assert!(tuning.unroll > 1, "measured: {:?}", tuning.measured);
    }

    #[test]
    fn tuning_proves_before_it_simulates() {
        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(64, 64))
            .input_seed(1)
            .variant(Variant::Saris)
            .tune(Tune::Auto)
            .freeze()
            .unwrap();
        let session = Session::new();
        let outcome = session.submit(&spec).unwrap();
        let tuning = outcome.tuning.clone().expect("tuned");
        // Every width is proven; u4's bound is the lowest, and its
        // measurement beats the other two bounds, so only u4 runs.
        let widths: Vec<usize> = tuning.bounds.iter().map(|&(u, _)| u).collect();
        assert_eq!(widths, DEFAULT_CANDIDATES);
        assert_eq!(tuning.unroll, 4);
        let cycles = outcome.expect_report().cycles;
        assert_eq!(tuning.measured, [(4, cycles)]);
        assert!(tuning.bounds.iter().all(|&(u, b)| u == 4 || b > cycles));
        assert_eq!((outcome.telemetry.runs, outcome.telemetry.compiles), (1, 3));
        assert_eq!(session.stats().runs, 1);
    }

    #[test]
    fn batch_results_keep_spec_order() {
        let stencil = Arc::new(gallery::jacobi_2d());
        let specs: Vec<WorkloadSpec> = (0..4)
            .map(|seed| {
                Workload::new(Arc::clone(&stencil))
                    .extent(Extent::new_2d(16, 16))
                    .input_seed(seed)
                    .verify(1e-12)
                    .freeze()
                    .unwrap()
            })
            .collect();
        let session = Session::new();
        let results = session.submit_all(&specs);
        assert_eq!(results.len(), 4);
        for (spec, result) in specs.iter().zip(results) {
            let outcome = result.expect("spec runs");
            assert_eq!(outcome.fingerprint, spec.fingerprint());
            // Identical to a serial submission on a fresh session.
            let serial = Session::new().submit(spec).unwrap();
            assert_eq!(
                outcome.expect_output().max_abs_diff(serial.expect_output()),
                0.0
            );
        }
        // One shape, one compile, four runs.
        assert_eq!(session.stats().compiles, 1);
        assert_eq!(session.stats().runs, 4);
    }

    #[test]
    fn batch_specs_fail_independently() {
        // j3d27pt at base unroll 4 hits register pressure.
        let specs = vec![
            jacobi_spec(),
            Workload::new(gallery::j3d27pt())
                .extent(Extent::cube(saris_core::Space::Dim3, 8))
                .input_seed(1)
                .variant(Variant::Base)
                .unroll(4)
                .freeze()
                .unwrap(),
        ];
        let results = Session::new().submit_all(&specs);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CodegenError::RegisterPressure { .. })
        ));
    }

    #[test]
    fn verification_failure_is_an_error() {
        // On j2d5pt the default reassociation changes the FP rounding,
        // so demanding bit-exactness must fail...
        let workload = || {
            Workload::new(gallery::j2d5pt())
                .extent(Extent::new_2d(32, 32))
                .input_seed(3)
        };
        let err = Session::new()
            .submit(&workload().verify(0.0).freeze().unwrap())
            .unwrap_err();
        assert!(matches!(err, CodegenError::VerificationFailed { .. }));
        // ...while the documented tolerance passes and reports the error.
        let outcome = Session::new()
            .submit(&workload().verify(1e-12).freeze().unwrap())
            .unwrap();
        let err = outcome.verify_error.expect("verified");
        assert!(err > 0.0 && err < 1e-12);
        // Disabling reassociation restores bit-exactness.
        let exact = workload()
            .options(RunOptions::new(Variant::Saris).with_reassociate(0))
            .verify(0.0)
            .freeze()
            .unwrap();
        let outcome = Session::new().submit(&exact).unwrap();
        assert_eq!(outcome.verify_error, Some(0.0));
    }

    #[test]
    fn kernel_cache_evicts_lru_beyond_the_cap() {
        let session = Session::with_config(SessionConfig {
            max_cached_kernels: 1,
            max_pooled_clusters: 64,
        });
        let u1 = jacobi_spec();
        let u2 = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(3)
            .unroll(2)
            .freeze()
            .unwrap();
        session.submit(&u1).unwrap();
        session.submit(&u2).unwrap(); // evicts u1's kernel
        assert_eq!(session.cached_kernels(), 1);
        assert_eq!(session.stats().evictions, 1);
        let again = session.submit(&u1).unwrap(); // recompiles
        assert_eq!(again.telemetry.compiles, 1);
        assert_eq!(session.stats().compiles, 3);
        assert_eq!(session.stats().evictions, 2);
    }

    #[test]
    fn cluster_pool_respects_its_bound() {
        let session = Session::with_config(SessionConfig {
            max_cached_kernels: 1024,
            max_pooled_clusters: 0,
        });
        let spec = jacobi_spec();
        session.submit(&spec).unwrap();
        session.submit(&spec).unwrap();
        assert_eq!(session.pooled_clusters(), 0, "pooling disabled");
        assert_eq!(session.stats().clusters_reused, 0);
        assert_eq!(session.stats().evictions, 2);
    }

    #[test]
    fn cluster_stages_bound_the_pool_and_book_only_runs() {
        let snitch = ClusterConfig::snitch();
        let mut small = ClusterConfig::snitch();
        small.n_cores = 4;
        let mut state = State::default();
        let run = || Run {
            fidelity: Fidelity::Cycles,
            cluster_reused: true,
            cycles_fast_forwarded: 5,
        };
        // Two fit; the third release drops the oldest idle cluster.
        assert!(state
            .release(Some(Cluster::new(snitch.clone())), 2, None)
            .is_none());
        assert!(state
            .release(Some(Cluster::new(small.clone())), 2, None)
            .is_none());
        let dropped = state.release(Some(Cluster::new(snitch.clone())), 2, Some(run()));
        assert_eq!(dropped.map(|c| c.config().n_cores), Some(8));
        assert_eq!((state.clusters.len(), state.stats.evictions), (2, 1));
        // Acquire matches the configuration, and only runs are booked.
        assert_eq!(state.acquire(&small).map(|c| c.config().n_cores), Some(4));
        assert!(state.acquire(&small).is_none());
        assert!(state.release(None, 2, None).is_none());
        let stats = state.stats;
        assert_eq!((stats.runs, stats.runs_cycles), (1, 1));
        assert_eq!((stats.clusters_reused, stats.cycles_fast_forwarded), (1, 5));
    }

    #[test]
    fn failed_compiles_leave_no_cache_entries() {
        let session = Session::with_config(SessionConfig {
            max_cached_kernels: 2,
            max_pooled_clusters: 64,
        });
        // j3d27pt at base unroll 4 fails on register pressure; the
        // failed key must not linger as an empty entry that occupies
        // LRU capacity.
        let failing = Workload::new(gallery::j3d27pt())
            .extent(Extent::cube(saris_core::Space::Dim3, 8))
            .input_seed(1)
            .variant(Variant::Base)
            .unroll(4)
            .freeze()
            .unwrap();
        assert!(session.submit(&failing).is_err());
        assert_eq!(session.cached_kernels(), 0);
        // Two real kernels now fit the cap without any eviction.
        session.submit(&jacobi_spec()).unwrap();
        let u2 = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(3)
            .unroll(2)
            .freeze()
            .unwrap();
        session.submit(&u2).unwrap();
        assert_eq!(session.cached_kernels(), 2);
        assert_eq!(session.stats().evictions, 0);
    }

    #[test]
    fn concurrent_hits_save_no_compile() {
        // Hits on a cached kernel never wait on a compile: however they
        // race each other, none of them counts as a compile saved.
        let session = Session::new();
        let (stencil, options) = (gallery::jacobi_2d(), RunOptions::new(Variant::Saris));
        let extent = Extent::new_2d(16, 16);
        session.compile_cached(&stencil, extent, &options).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..20_000 {
                        let (_, hit) = session.compile_cached(&stencil, extent, &options).unwrap();
                        assert!(hit);
                    }
                });
            }
        });
        let stats = session.stats();
        assert_eq!((stats.compiles, stats.cache_hits), (1, 80_000));
        assert_eq!(stats.compiles_saved, 0);
    }

    #[test]
    fn proven_bounds_are_evicted_with_their_kernels() {
        let session = Session::with_config(SessionConfig {
            max_cached_kernels: 2,
            ..SessionConfig::default()
        });
        let retained_bounds = || {
            let state = session.state.lock().unwrap();
            state.kernels.rows().filter(|(_, v)| v.is_some()).count()
        };
        let stencil = gallery::jacobi_2d();
        let options = RunOptions::new(Variant::Saris);
        let extent = |k: usize| Extent::new_2d(16 + 2 * k, 16);
        for k in 0..5 {
            session
                .compile_cached(&stencil, extent(k), &options)
                .unwrap();
            assert!(retained_bounds() <= 2, "after key {k}");
        }
        assert_eq!(session.stats().compiles, 5);
        assert_eq!(retained_bounds(), 2);
        // The first key was evicted long ago: its bound is re-proven on
        // a recompile, not remembered.
        let bound = session.static_bound(&stencil, extent(0), &options).unwrap();
        assert_eq!(session.stats().compiles, 6);
        assert_eq!(
            bound,
            Session::new()
                .static_bound(&stencil, extent(0), &options)
                .unwrap()
        );
        assert_eq!(retained_bounds(), 2);
    }

    #[test]
    fn verify_diff_is_nan_aware() {
        let tile = Extent::new_2d(2, 2);
        let zeros = Grid::zeros(tile);
        let mut broken = Grid::zeros(tile);
        broken.set(saris_core::Point::new_2d(0, 0), f64::NAN);
        // NaN against a finite reference is an infinite divergence, not
        // a silently dropped one.
        assert_eq!(verify_diff(&broken, &zeros), f64::INFINITY);
        // Bitwise-identical grids — NaN payloads and infinities
        // included — are a zero diff.
        assert_eq!(verify_diff(&broken, &broken.clone()), 0.0);
        let inf = Grid::filled(tile, f64::INFINITY);
        assert_eq!(verify_diff(&inf, &inf.clone()), 0.0);
        assert_eq!(verify_diff(&inf, &zeros), f64::INFINITY);
    }

    #[test]
    fn fidelity_routes_to_the_matching_tier() {
        let session = Session::new();
        let spec_at = |fidelity| {
            Workload::new(gallery::jacobi_2d())
                .extent(Extent::new_2d(16, 16))
                .input_seed(3)
                .fidelity(fidelity)
                .freeze()
                .unwrap()
        };
        let analytic = session.submit(&spec_at(Fidelity::Analytic)).unwrap();
        assert_eq!(analytic.backend, "roofline");
        assert!(analytic.telemetry.estimated);
        assert!(analytic.expect_report().cycles > 0);
        assert!(
            analytic.grids.is_empty(),
            "estimates do no per-point work and carry no grids"
        );
        let cycles = session.submit(&spec_at(Fidelity::Cycles)).unwrap();
        assert_eq!(cycles.backend, "sim");
        assert!(!cycles.telemetry.estimated);
        assert!(cycles.output().is_some());
        let golden = session.submit(&spec_at(Fidelity::Golden)).unwrap();
        assert_eq!(golden.backend, "native");
        assert!(golden.reports.is_empty());
        assert!(golden.output().is_some());
        let stats = session.stats();
        assert_eq!(
            (stats.runs_analytic, stats.runs_cycles, stats.runs_golden),
            (1, 1, 1)
        );
        assert_eq!(stats.runs, 3);
        assert_eq!(stats.compiles, 1, "only the cycle tier compiles");
    }

    #[test]
    fn default_fidelity_answers_unrouted_specs() {
        let spec = jacobi_spec();
        assert_eq!(spec.fidelity(), None);
        let analytic = Session::analytic();
        let outcome = analytic.submit(&spec).unwrap();
        assert_eq!(outcome.backend, "roofline");
        assert_eq!(analytic.default_fidelity(), Fidelity::Analytic);
        assert_eq!(analytic.stats().runs_analytic, 1);
        // An explicit tier still overrides the session default.
        let routed = analytic
            .submit(
                &Workload::new(gallery::jacobi_2d())
                    .extent(Extent::new_2d(16, 16))
                    .input_seed(3)
                    .fidelity(Fidelity::Golden)
                    .freeze()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(routed.backend, "native");
    }

    #[test]
    fn analytic_tier_does_not_tune() {
        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(3)
            .tune(crate::tuner::Tune::Auto)
            .fidelity(Fidelity::Analytic)
            .freeze()
            .unwrap();
        let outcome = Session::new().submit(&spec).unwrap();
        assert!(outcome.tuning.is_none(), "no cycle measurements to tune on");
        assert!(outcome.kernel.is_none(), "no codegen on the analytic tier");
    }

    #[test]
    fn analytic_default_session_rejects_verification_at_submit() {
        // The freeze-time check only fires for explicit Analytic
        // fidelity; a verifying spec routed to the analytic tier by the
        // *session default* must fail at submission instead of
        // pretending to verify nonexistent grids.
        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(3)
            .verify(1e-9)
            .freeze()
            .unwrap();
        let err = Session::analytic().submit(&spec).unwrap_err();
        assert!(matches!(err, CodegenError::InvalidWorkload { .. }), "{err}");
    }

    #[test]
    fn cycle_runs_feed_the_calibration_store() {
        let session = Session::new();
        let stencil = gallery::jacobi_2d();
        let extent = Extent::new_2d(16, 16);
        let store = session.calibration().expect("standard registry").clone();
        // The baked entry was measured at the paper tile, not 16x16.
        assert_ne!(
            store
                .entry(&stencil, Variant::Saris, 8)
                .expect("baked")
                .extent,
            Some(extent)
        );
        let outcome = session.submit(&jacobi_spec()).unwrap();
        assert_eq!(outcome.telemetry.answered_by, Some(Fidelity::Cycles));
        let entry = store
            .entry(&stencil, Variant::Saris, 8)
            .expect("fed by the run");
        assert_eq!(entry.extent, Some(extent), "observation replaced the seed");
        assert_eq!(entry.confidence, crate::calibration::OBSERVED_CONFIDENCE);
        // The analytic tier now reproduces the measurement exactly.
        let est = session
            .submit(
                &Workload::new(gallery::jacobi_2d())
                    .extent(extent)
                    .input_seed(3)
                    .variant(Variant::Saris)
                    .fidelity(Fidelity::Analytic)
                    .freeze()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(
            est.expect_report().cycles,
            outcome.expect_report().cycles,
            "per-point rates reproduce the observed cycle count"
        );
    }

    #[test]
    fn auto_escalates_then_answers_analytically() {
        let session = Session::new();
        let auto_spec = || {
            Workload::new(gallery::jacobi_2d())
                .extent(Extent::new_2d(16, 16))
                .input_seed(3)
                .variant(Variant::Saris)
                .fidelity(Fidelity::auto())
                .freeze()
                .unwrap()
        };
        // Cold: the baked gallery entry is for the paper tile, so a
        // 16x16 request is off-extent and escalates...
        let first = session.submit(&auto_spec()).unwrap();
        assert_eq!(first.backend, "sim");
        assert_eq!(first.telemetry.answered_by, Some(Fidelity::Cycles));
        assert!(!first.telemetry.estimated);
        // ...which feeds the store, so the identical spec now answers
        // analytically, repeatably.
        for _ in 0..3 {
            let again = session.submit(&auto_spec()).unwrap();
            assert_eq!(again.backend, "roofline");
            assert_eq!(again.telemetry.answered_by, Some(Fidelity::Analytic));
            assert!(again.telemetry.estimated);
            assert!(again.grids.is_empty());
            assert_eq!(
                again.expect_report().cycles,
                first.expect_report().cycles,
                "the analytic answer reproduces the observed measurement"
            );
        }
        let stats = session.stats();
        assert_eq!(stats.auto_escalated, 1);
        assert_eq!(stats.auto_answered_analytic, 3);
        assert_eq!((stats.runs_cycles, stats.runs_analytic), (1, 3));
    }

    #[test]
    fn auto_with_verification_always_escalates() {
        let session = Session::new();
        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(3)
            .variant(Variant::Saris)
            .verify(1e-9)
            .fidelity(Fidelity::auto())
            .freeze()
            .expect("Auto + verify is a valid request");
        for _ in 0..2 {
            // Even with a warmed store (second iteration) verification
            // forces the grid-producing cycle tier.
            let outcome = session.submit(&spec).unwrap();
            assert_eq!(outcome.backend, "sim");
            assert_eq!(outcome.telemetry.answered_by, Some(Fidelity::Cycles));
            assert!(outcome.verify_error.is_some());
            assert!(!outcome.grids.is_empty());
        }
        let stats = session.stats();
        assert_eq!(stats.auto_escalated, 2);
        assert_eq!(stats.auto_answered_analytic, 0);
    }

    #[test]
    fn auto_budget_zero_needs_an_exact_observation() {
        let session = Session::new();
        let spec_with = |budget| {
            // Tuned, default options: the execution context the baked
            // gallery table was measured under.
            Workload::new(gallery::jacobi_2d())
                .extent(Extent::new_2d(64, 64))
                .input_seed(3)
                .variant(Variant::Saris)
                .tune(crate::tuner::Tune::Auto)
                .fidelity(Fidelity::Auto {
                    accuracy_budget: budget,
                })
                .freeze()
                .unwrap()
        };
        // The baked paper-tile entry meets the default 5% budget
        // immediately (no simulation at all)...
        let default_budget = session
            .submit(&spec_with(Fidelity::DEFAULT_ACCURACY_BUDGET))
            .unwrap();
        assert_eq!(
            default_budget.telemetry.answered_by,
            Some(Fidelity::Analytic)
        );
        // ...but a zero budget only accepts live observations.
        let exact = session.submit(&spec_with(0.0)).unwrap();
        assert_eq!(exact.telemetry.answered_by, Some(Fidelity::Cycles));
        let exact = session.submit(&spec_with(0.0)).unwrap();
        assert_eq!(exact.telemetry.answered_by, Some(Fidelity::Analytic));
    }

    #[test]
    fn auto_does_not_trust_observations_from_other_configurations() {
        let base = || {
            Workload::new(gallery::jacobi_2d())
                .extent(Extent::new_2d(16, 16))
                .input_seed(3)
                .variant(Variant::Saris)
        };
        // (observed on the cycle tier, then asked of Auto):
        let cases = [
            // a pessimal fixed unroll, then the tuned configuration;
            (
                base().unroll(2),
                base().tune(Tune::Auto).fidelity(Fidelity::auto()),
            ),
            // concurrent DMA traffic, then none, at a budget that
            // promises an exact observation.
            (
                base().options(RunOptions::new(Variant::Saris).with_concurrent_dma()),
                base().fidelity(Fidelity::Auto {
                    accuracy_budget: 0.0,
                }),
            ),
        ];
        for (i, (observed, asked)) in cases.into_iter().enumerate() {
            let session = Session::new();
            let observed = observed.fidelity(Fidelity::Cycles).freeze().unwrap();
            session.submit(&observed).unwrap();
            // The store holds an entry for this (stencil, variant,
            // cores), but its execution context differs, so trusting it
            // would break the accuracy budget — the request must
            // escalate and measure for itself.
            let asked = asked.freeze().unwrap();
            let first = session.submit(&asked).unwrap();
            assert_eq!(
                first.telemetry.answered_by,
                Some(Fidelity::Cycles),
                "case {i}"
            );
            assert_eq!(session.stats().auto_escalated, 1, "case {i}");
            // The escalation re-observed under the asked context; now
            // the identical request answers analytically with its count.
            let again = session.submit(&asked).unwrap();
            assert_eq!(
                again.telemetry.answered_by,
                Some(Fidelity::Analytic),
                "case {i}"
            );
            assert_eq!(
                again.expect_report().cycles,
                first.expect_report().cycles,
                "case {i}: the analytic answer reproduces the asked configuration's \
                 measurement, not the observed one"
            );
        }
    }

    #[test]
    fn auto_default_session_routes_unrouted_specs() {
        let session = Session::with_default_fidelity(Fidelity::auto());
        let spec = jacobi_spec();
        assert_eq!(spec.fidelity(), None);
        let first = session.submit(&spec).unwrap();
        assert_eq!(first.telemetry.answered_by, Some(Fidelity::Cycles));
        let again = session.submit(&spec).unwrap();
        assert_eq!(again.telemetry.answered_by, Some(Fidelity::Analytic));
        assert_eq!(session.stats().auto_escalated, 1);
        assert_eq!(session.stats().auto_answered_analytic, 1);
    }

    #[test]
    fn dma_probe_reports_utilization() {
        let session = Session::new();
        let probe = Workload::dma_probe(Extent::new_2d(64, 64))
            .freeze()
            .unwrap();
        let outcome = session.submit(&probe).unwrap();
        let util = outcome.dma_utilization.expect("probe measures");
        assert!(util > 0.5 && util <= 1.0, "dma util {util}");
        assert!(outcome.grids.is_empty() && outcome.reports.is_empty());
        assert_eq!(session.stats().runs, 1);
    }
}
