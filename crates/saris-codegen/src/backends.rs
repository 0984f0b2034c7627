//! The backend surface of the execution engine: the [`Fidelity`] axis,
//! the [`Backend`] trait, the three standard tiers, and the
//! [`BackendRegistry`] a [`Session`](crate::Session) routes submissions
//! through.
//!
//! A request names *how good an answer it needs*, not *which engine runs
//! it*:
//!
//! | [`Fidelity`] | backend | answers with |
//! |--------------|---------|--------------|
//! | [`Analytic`](Fidelity::Analytic) | [`RooflineBackend`] | instant estimates from single-cluster measurements + a bandwidth model |
//! | [`Cycles`](Fidelity::Cycles) | [`SimBackend`] | cycle-approximate measurements on the simulated Snitch cluster |
//! | [`Golden`](Fidelity::Golden) | [`NativeBackend`] | exact grids from the data-parallel (SIMD) reference executor, no timing |
//! | [`Auto`](Fidelity::Auto) | *routing policy* | the cheapest of Analytic/Cycles meeting an accuracy budget |
//!
//! A backend answers one request at a time ([`Backend::execute`]);
//! running many at once is the caller's business —
//! [`Session::submit_all`](crate::Session::submit_all) fans specs across
//! worker threads that each call `execute` through the same path as a
//! single submission, whatever the tier.
//!
//! The analytic tier mirrors the paper's own methodology: SARIS sizes
//! its Manticore-256 estimate from single-cluster measurements plus a
//! bandwidth model, so a tier that answers estimate-class requests
//! without paying for simulation is paper-faithful — the roofline
//! backend is that tier, and its numbers are *flagged as
//! estimates* in the outcome telemetry
//! ([`WorkloadTelemetry::estimated`](crate::WorkloadTelemetry::estimated)).
//!
//! The roofline backend's measurements live in a shared, mutable
//! [`CalibrationStore`] — the session feeds every cycle-tier outcome
//! back into it, which is what makes [`Fidelity::Auto`] converge: once a
//! stencil has been simulated once, the store answers subsequent
//! `Auto` requests analytically within the budget (see the
//! [`calibration`](crate::calibration) module).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use saris_core::grid::Grid;
use saris_core::reference;
use saris_core::roofline::{estimate_tile, MachinePoint};
use saris_core::stencil::Stencil;
use snitch_sim::core::IntStats;
use snitch_sim::fpu::FpuStats;
use snitch_sim::ssr::StreamerStats;
use snitch_sim::{CoreReport, DmaStats, RunReport};

use crate::calibration::{Calibration, CalibrationStore};
use crate::error::CodegenError;
use crate::runtime::{execute_on, CompiledKernel, RunOptions, Variant};
use crate::session::ClusterPool;

/// How good an answer a workload needs — the axis a
/// [`BackendRegistry`] dispatches on.
#[derive(Debug, Clone, Copy)]
pub enum Fidelity {
    /// Instant analytic estimates (roofline + calibrated single-cluster
    /// measurements). Cycle counts and utilizations are *estimates* and
    /// are flagged as such in telemetry.
    Analytic,
    /// Cycle-approximate simulation of the Snitch cluster — the
    /// measurement tier behind every paper figure.
    Cycles,
    /// The golden reference executor: exact output grids, no timing.
    Golden,
    /// A routing *policy* rather than a tier: the session answers from
    /// the analytic tier when the calibration store's expected relative
    /// error for the spec is within `accuracy_budget`, and otherwise
    /// escalates to [`Fidelity::Cycles`] — recording the measurement in
    /// the store so the *next* identical request is answered
    /// analytically. Workloads that request verification always
    /// escalate (verification needs grids). Which tier actually
    /// answered lands in
    /// [`WorkloadTelemetry::answered_by`](crate::WorkloadTelemetry::answered_by)
    /// and the session's `auto_answered_analytic` / `auto_escalated`
    /// counters.
    Auto {
        /// The acceptable relative cycle-count error of an analytic
        /// answer (e.g. `0.05` = within 5% of what tuned simulation
        /// would measure). Must be finite and non-negative; a budget of
        /// `0.0` only accepts exact reproductions of live observations.
        accuracy_budget: f64,
    },
}

impl Fidelity {
    /// The three concrete tiers, in increasing cost order
    /// ([`Fidelity::Auto`] is a routing policy over the first two, not a
    /// tier of its own).
    pub const ALL: [Fidelity; 3] = [Fidelity::Analytic, Fidelity::Cycles, Fidelity::Golden];

    /// The default [`Fidelity::Auto`] accuracy budget: 5%, which the
    /// baked gallery calibration satisfies at the paper tiles and any
    /// live observation satisfies at its measured extent.
    pub const DEFAULT_ACCURACY_BUDGET: f64 = 0.05;

    /// [`Fidelity::Auto`] at the
    /// [default budget](Fidelity::DEFAULT_ACCURACY_BUDGET).
    pub fn auto() -> Fidelity {
        Fidelity::Auto {
            accuracy_budget: Fidelity::DEFAULT_ACCURACY_BUDGET,
        }
    }

    fn discriminant(&self) -> u8 {
        match self {
            Fidelity::Analytic => 0,
            Fidelity::Cycles => 1,
            Fidelity::Golden => 2,
            Fidelity::Auto { .. } => 3,
        }
    }
}

// Manual equality/hashing: `Auto` carries its budget as an `f64`, which
// is compared bitwise so `Eq`'s reflexivity holds even for degenerate
// budgets (freeze-time validation rejects them anyway).
impl PartialEq for Fidelity {
    fn eq(&self, other: &Fidelity) -> bool {
        match (self, other) {
            (Fidelity::Auto { accuracy_budget: a }, Fidelity::Auto { accuracy_budget: b }) => {
                a.to_bits() == b.to_bits()
            }
            _ => self.discriminant() == other.discriminant(),
        }
    }
}

impl Eq for Fidelity {}

impl Hash for Fidelity {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.discriminant().hash(state);
        if let Fidelity::Auto { accuracy_budget } = self {
            accuracy_budget.to_bits().hash(state);
        }
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fidelity::Analytic => f.write_str("analytic"),
            Fidelity::Cycles => f.write_str("cycles"),
            Fidelity::Golden => f.write_str("golden"),
            Fidelity::Auto { accuracy_budget } => write!(f, "auto({accuracy_budget})"),
        }
    }
}

/// One execution request handed to a [`Backend`].
pub struct ExecRequest<'a> {
    /// The stencil to apply.
    pub stencil: &'a Stencil,
    /// One grid per declared input array, all of the same extent.
    pub inputs: &'a [&'a Grid],
    /// Execution options.
    pub options: &'a RunOptions,
    /// The cached kernel, when the backend asked for one.
    pub kernel: Option<&'a Arc<CompiledKernel>>,
    /// The session's cluster pool.
    pub pool: &'a ClusterPool,
}

/// What a [`Backend`] produced for one request.
pub struct ExecOutcome {
    /// The computed output tile. `None` for estimate-only backends: an
    /// analytic answer costs no per-point work, which is the entire
    /// point of the tier (outcomes then carry no grids, like DMA
    /// probes).
    pub output: Option<Grid>,
    /// The simulator measurement, when the backend produces one. For
    /// analytic backends this is a *synthesized* report carrying the
    /// estimated cycles/FPU activity in the same shape the simulator
    /// emits (and `estimated` below is set).
    pub report: Option<RunReport>,
    /// Whether a pooled cluster was recycled for this run.
    pub cluster_reused: bool,
    /// Whether the report's numbers are model estimates rather than
    /// measurements.
    pub estimated: bool,
}

/// An execution substrate the [`Session`](crate::Session) dispatches
/// runs to.
pub trait Backend: Send + Sync {
    /// A short identifier (`"sim"`, `"native"`, `"roofline"`, ...).
    fn name(&self) -> &'static str;

    /// The fidelity tier this backend serves (its slot in a
    /// [`BackendRegistry`]). Must be one of the concrete tiers in
    /// [`Fidelity::ALL`] — [`Fidelity::Auto`] is a routing policy, not a
    /// tier a backend can serve.
    fn fidelity(&self) -> Fidelity;

    /// Whether execution consumes compiled kernels. When `true` the
    /// session compiles (through its cache) before calling
    /// [`Backend::execute`]; when `false` no codegen happens at all.
    fn needs_kernel(&self) -> bool;

    /// The live calibration table this backend answers from, when it has
    /// one. Sessions feed every cycle-tier outcome back into the store
    /// of their analytic backend — the default implementation returns
    /// `None` (nothing to feed).
    fn calibration_store(&self) -> Option<Arc<CalibrationStore>> {
        None
    }

    /// Executes one request.
    ///
    /// # Errors
    ///
    /// Propagates compilation or execution errors.
    fn execute(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, CodegenError>;
}

/// The cycle-approximate Snitch-cluster simulator backend: compiles
/// kernels, runs them on pooled clusters, and reports cycles/activity.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimBackend;

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::Cycles
    }

    fn needs_kernel(&self) -> bool {
        true
    }

    fn execute(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, CodegenError> {
        let kernel = req.kernel.expect("sim backend runs need a compiled kernel");
        let (mut cluster, cluster_reused) = req.pool.acquire(&req.options.cluster);
        let result = execute_on(req.stencil, req.inputs, kernel, req.options, &mut cluster);
        // Pool the cluster even after an error: acquisition resets it.
        req.pool.release(cluster);
        let (output, report) = result?;
        Ok(ExecOutcome {
            output: Some(output),
            report: Some(report),
            cluster_reused,
            estimated: false,
        })
    }
}

/// The golden-reference backend: executes the stencil natively with the
/// data-parallel reference executor ([`saris_core::simd`]). Orders of
/// magnitude faster than the simulator and exact by construction (the
/// row sweep is bit-identical to the retained scalar oracle), but
/// produces no cycle report — use it for correctness-only and
/// large-scale scenarios. The output grid of each run is a fresh
/// allocation that belongs to whoever holds the outcome.
#[derive(Debug, Default, Clone, Copy)]
pub struct NativeBackend;

impl NativeBackend {
    /// The golden backend.
    pub fn new() -> NativeBackend {
        NativeBackend
    }
}

impl Backend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::Golden
    }

    fn needs_kernel(&self) -> bool {
        false
    }

    fn execute(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, CodegenError> {
        // `req.inputs` is already the slot slice the executor expects —
        // borrow it directly; the golden path allocates nothing per call
        // beyond the output grid.
        let extent = req.inputs[0].extent();
        Ok(ExecOutcome {
            output: Some(reference::apply_to_new(req.stencil, req.inputs, extent)),
            report: None,
            cluster_reused: false,
            estimated: false,
        })
    }
}

/// The analytic tier: answers requests instantly from the roofline model
/// and a live [`CalibrationStore`] of single-cluster measurements,
/// without compiling or simulating anything.
///
/// * **No grids**: an estimate costs no per-point work at all — that is
///   the entire point of the tier — so analytic outcomes carry an empty
///   grid list, like DMA probes, and verification is rejected on this
///   tier (request [`Fidelity::Golden`] or [`Fidelity::Cycles`] when
///   outputs matter).
/// * The **report** is *synthesized*: estimated cycles, FPU issue
///   slots, FLOPs, and per-core runtimes in the same [`RunReport`]
///   shape the simulator produces — with every stall, TCDM, I$ and DMA
///   counter zero, and the outcome telemetry
///   [flagged](crate::WorkloadTelemetry::estimated) so consumers cannot
///   mistake an estimate for a measurement.
/// * The **store is shared and live**: sessions feed every cycle-tier
///   outcome back into it, so estimates for hot custom stencils sharpen
///   as the session runs (the store starts from the baked gallery
///   table; see [`CalibrationStore::with_gallery`]).
///
/// For calibrated stencils the estimate interpolates measured per-point
/// rates (the paper's methodology of sizing estimates from
/// single-cluster measurements); for unknown stencils it falls back to a
/// first-principles roofline at the configured per-variant FPU
/// efficiencies.
#[derive(Debug, Clone)]
pub struct RooflineBackend {
    /// The machine point estimates are computed against.
    pub point: MachinePoint,
    /// Fallback FPU efficiency (issue slots per core-cycle) for baseline
    /// kernels with no calibration entry — this repository's measured
    /// ten-code geomean.
    pub base_efficiency: f64,
    /// Fallback FPU efficiency for SARIS kernels with no calibration
    /// entry — this repository's measured ten-code geomean.
    pub saris_efficiency: f64,
    store: Arc<CalibrationStore>,
}

impl Default for RooflineBackend {
    fn default() -> RooflineBackend {
        RooflineBackend::new()
    }
}

impl RooflineBackend {
    /// A roofline backend at the Manticore cluster point, answering from
    /// a fresh gallery-seeded [`CalibrationStore`].
    pub fn new() -> RooflineBackend {
        RooflineBackend::with_store(Arc::new(CalibrationStore::with_gallery()))
    }

    /// A roofline backend answering from (and sharing) an explicit
    /// calibration store — e.g. one imported from a previous server's
    /// export, or one shared across several sessions.
    pub fn with_store(store: Arc<CalibrationStore>) -> RooflineBackend {
        RooflineBackend {
            point: MachinePoint::manticore_cluster(),
            base_efficiency: 0.40,
            saris_efficiency: 0.78,
            store,
        }
    }

    /// The live calibration table this backend answers from.
    pub fn store(&self) -> &Arc<CalibrationStore> {
        &self.store
    }

    /// Registers (or replaces) a calibration measurement for a stencil
    /// and variant in the backend's store, keyed by the stencil's
    /// structural fingerprint (and the core count implied by the
    /// imbalance vector's length).
    pub fn calibrate(&self, stencil: &Stencil, variant: Variant, calibration: Calibration) {
        self.store.calibrate(stencil, variant, calibration);
    }

    /// Whether the store holds a calibration measurement for this
    /// stencil and variant, for *any* cluster core count (entries are
    /// per cluster shape; `estimate` only uses the one matching the
    /// request's core count).
    pub fn is_calibrated(&self, stencil: &Stencil, variant: Variant) -> bool {
        !self
            .store
            .calibrated_core_counts(stencil, variant)
            .is_empty()
    }

    fn fallback_efficiency(&self, variant: Variant) -> f64 {
        match variant {
            Variant::Base => self.base_efficiency,
            Variant::Saris => self.saris_efficiency,
        }
    }

    /// The estimated compute cycles, FPU ops and FLOPs for one tile.
    fn estimate(&self, stencil: &Stencil, extent: saris_core::Extent, options: &RunOptions) -> Est {
        let interior = stencil.interior(extent).len() as f64;
        // A calibration only describes the cluster shape it was measured
        // on (the core count is part of the store key); a request for a
        // different core count falls through to the first-principles
        // path, which scales with the cluster size.
        match self
            .store
            .lookup(stencil, options.variant, options.cluster.n_cores)
        {
            Some(cal) => Est {
                cycles: cal.cycles_per_point * interior,
                fpu_ops: cal.fpu_ops_per_point * interior,
                flops: cal.flops_per_point * interior,
                imbalance: cal.imbalance,
            },
            None => {
                let mut point = self.point;
                point.cores = options.cluster.n_cores;
                let est = estimate_tile(
                    stencil,
                    extent,
                    &point,
                    self.fallback_efficiency(options.variant),
                );
                Est {
                    cycles: est.compute_cycles,
                    fpu_ops: est.fpu_ops,
                    flops: est.flops,
                    imbalance: vec![1.0; options.cluster.n_cores],
                }
            }
        }
    }
}

/// Internal per-tile estimate used to synthesize the report.
struct Est {
    cycles: f64,
    fpu_ops: f64,
    flops: f64,
    imbalance: Vec<f64>,
}

impl Backend for RooflineBackend {
    fn name(&self) -> &'static str {
        "roofline"
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::Analytic
    }

    fn needs_kernel(&self) -> bool {
        false
    }

    fn calibration_store(&self) -> Option<Arc<CalibrationStore>> {
        Some(Arc::clone(&self.store))
    }

    fn execute(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, CodegenError> {
        let extent = req.inputs[0].extent();
        let est = self.estimate(req.stencil, extent, req.options);
        let n_cores = req.options.cluster.n_cores.max(1);
        let cycles = est.cycles.round().max(1.0) as u64;
        // Distribute the estimated activity across cores and scale the
        // calibrated imbalance ratios so the slowest core halts at the
        // estimated cycle count (`runtime_imbalance` normalizes by the
        // mean, so the ratio vector survives the scaling).
        let max_ratio = est.imbalance.iter().copied().fold(1.0f64, f64::max);
        let ops_per_core = (est.fpu_ops / n_cores as f64).round() as u64;
        let flops_per_core = (est.flops / n_cores as f64).round() as u64;
        let cores = (0..n_cores)
            .map(|i| {
                let ratio = est.imbalance.get(i).copied().unwrap_or(1.0);
                CoreReport {
                    halted_at: (est.cycles * ratio / max_ratio).round().max(1.0) as u64,
                    int_stats: IntStats::default(),
                    fpu: FpuStats {
                        retired: ops_per_core,
                        offloaded: ops_per_core,
                        arith: ops_per_core,
                        flops: flops_per_core,
                        ..FpuStats::default()
                    },
                    streamers: [StreamerStats::default(); 3],
                    tcdm_wait_cycles: 0,
                }
            })
            .collect();
        let report = RunReport {
            cycles,
            cycles_fast_forwarded: 0,
            cores,
            tcdm_accesses: 0,
            tcdm_conflicts: 0,
            icache_hits: 0,
            icache_misses: 0,
            dma: DmaStats::default(),
            freq_hz: req.options.cluster.freq_hz,
        };
        Ok(ExecOutcome {
            output: None,
            report: Some(report),
            cluster_reused: false,
            estimated: true,
        })
    }
}

/// The backend a session consults for each [`Fidelity`] tier. The
/// standard registry wires [`RooflineBackend`] / [`SimBackend`] /
/// [`NativeBackend`]; [`register`](BackendRegistry::register) swaps any
/// slot for a custom implementation (the slot is chosen by the
/// backend's own [`Backend::fidelity`]).
#[derive(Clone)]
pub struct BackendRegistry {
    analytic: Arc<dyn Backend>,
    cycles: Arc<dyn Backend>,
    golden: Arc<dyn Backend>,
}

impl Default for BackendRegistry {
    fn default() -> BackendRegistry {
        BackendRegistry::standard()
    }
}

impl BackendRegistry {
    /// The standard three tiers: roofline estimates, the cycle-level
    /// simulator, and the golden reference executor.
    pub fn standard() -> BackendRegistry {
        BackendRegistry {
            analytic: Arc::new(RooflineBackend::new()),
            cycles: Arc::new(SimBackend),
            golden: Arc::new(NativeBackend::new()),
        }
    }

    /// Replaces the slot for `backend.fidelity()` with `backend`.
    ///
    /// # Panics
    ///
    /// Panics if the backend claims to serve [`Fidelity::Auto`], which
    /// is a routing policy rather than a tier.
    pub fn register(&mut self, backend: Arc<dyn Backend>) {
        match backend.fidelity() {
            Fidelity::Analytic => self.analytic = backend,
            Fidelity::Cycles => self.cycles = backend,
            Fidelity::Golden => self.golden = backend,
            Fidelity::Auto { .. } => {
                panic!("Fidelity::Auto is a routing policy, not a backend tier")
            }
        }
    }

    /// The backend serving `fidelity`.
    ///
    /// # Panics
    ///
    /// Panics for [`Fidelity::Auto`]: sessions resolve the policy to
    /// [`Fidelity::Analytic`] or [`Fidelity::Cycles`] *before*
    /// dispatching.
    pub fn get(&self, fidelity: Fidelity) -> &Arc<dyn Backend> {
        match fidelity {
            Fidelity::Analytic => &self.analytic,
            Fidelity::Cycles => &self.cycles,
            Fidelity::Golden => &self.golden,
            Fidelity::Auto { .. } => {
                panic!("Fidelity::Auto resolves at submission; no backend serves it directly")
            }
        }
    }
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("analytic", &self.analytic.name())
            .field("cycles", &self.cycles.name())
            .field("golden", &self.golden.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_core::{gallery, Extent};

    #[test]
    fn fidelity_displays_and_orders() {
        let names: Vec<String> = Fidelity::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(names, ["analytic", "cycles", "golden"]);
        assert_eq!(Fidelity::auto().to_string(), "auto(0.05)");
    }

    #[test]
    fn auto_compares_by_budget_bits() {
        assert_eq!(Fidelity::auto(), Fidelity::auto());
        assert_ne!(
            Fidelity::auto(),
            Fidelity::Auto {
                accuracy_budget: 0.5
            }
        );
        assert_ne!(Fidelity::auto(), Fidelity::Analytic);
        // Hashing matches equality.
        let mut set = std::collections::HashSet::new();
        set.insert(Fidelity::auto());
        assert!(set.contains(&Fidelity::auto()));
        assert!(!set.contains(&Fidelity::Auto {
            accuracy_budget: 0.5
        }));
    }

    #[test]
    fn standard_registry_wires_the_three_tiers() {
        let reg = BackendRegistry::standard();
        assert_eq!(reg.get(Fidelity::Analytic).name(), "roofline");
        assert_eq!(reg.get(Fidelity::Cycles).name(), "sim");
        assert_eq!(reg.get(Fidelity::Golden).name(), "native");
        for fidelity in Fidelity::ALL {
            assert_eq!(reg.get(fidelity).fidelity(), fidelity);
        }
        // Only the analytic tier exposes a calibration store.
        assert!(reg.get(Fidelity::Analytic).calibration_store().is_some());
        assert!(reg.get(Fidelity::Cycles).calibration_store().is_none());
        assert!(reg.get(Fidelity::Golden).calibration_store().is_none());
    }

    #[test]
    fn register_replaces_the_matching_slot() {
        let mut reg = BackendRegistry::standard();
        reg.register(Arc::new(NativeBackend::new()));
        assert_eq!(reg.get(Fidelity::Golden).name(), "native");
        assert_eq!(reg.get(Fidelity::Cycles).name(), "sim");
    }

    #[test]
    fn gallery_calibration_covers_both_variants_of_every_code() {
        let backend = RooflineBackend::new();
        for name in gallery::NAMES {
            let stencil = gallery::by_name(name).unwrap();
            for variant in [Variant::Base, Variant::Saris] {
                assert!(
                    backend.is_calibrated(&stencil, variant),
                    "{name} {variant} lacks calibration"
                );
            }
        }
    }

    #[test]
    fn calibrated_estimate_reproduces_the_measurement_at_the_paper_tile() {
        let backend = RooflineBackend::new();
        let stencil = gallery::jacobi_2d();
        let opts = RunOptions::new(Variant::Saris);
        let est = backend.estimate(&stencil, Extent::new_2d(64, 64), &opts);
        assert_eq!(est.cycles.round() as u64, 2985);
        assert_eq!(est.fpu_ops.round() as u64, 19220);
        // And scales with the interior away from the paper tile.
        let half = backend.estimate(&stencil, Extent::new_2d(33, 33), &opts);
        assert!((half.cycles / est.cycles - (31.0 * 31.0) / 3844.0).abs() < 1e-9);
    }

    #[test]
    fn uncalibrated_stencils_fall_back_to_first_principles() {
        let backend = RooflineBackend::with_store(Arc::new(CalibrationStore::new()));
        let stencil = gallery::jacobi_2d();
        assert!(!backend.is_calibrated(&stencil, Variant::Saris));
        let opts = RunOptions::new(Variant::Saris);
        let est = backend.estimate(&stencil, Extent::new_2d(64, 64), &opts);
        let expect = estimate_tile(
            &stencil,
            Extent::new_2d(64, 64),
            &MachinePoint::manticore_cluster(),
            backend.saris_efficiency,
        );
        assert_eq!(est.cycles, expect.compute_cycles);
        // `calibrate` restores the measured path.
        backend.calibrate(
            &stencil,
            Variant::Saris,
            Calibration {
                cycles_per_point: 1.0,
                fpu_ops_per_point: 5.0,
                flops_per_point: 5.0,
                imbalance: vec![1.0; 8],
            },
        );
        let est = backend.estimate(&stencil, Extent::new_2d(64, 64), &opts);
        assert_eq!(est.cycles, 3844.0);
    }

    #[test]
    fn calibration_only_applies_to_the_measured_cluster_shape() {
        let backend = RooflineBackend::new();
        let stencil = gallery::jacobi_2d();
        let tile = Extent::new_2d(64, 64);
        // The gallery table was measured on the 8-core Snitch cluster; a
        // 4-core request must use the first-principles path (which
        // scales with the core count), not the 8-core measurement.
        let mut opts = RunOptions::new(Variant::Saris);
        opts.cluster.n_cores = 4;
        let est = backend.estimate(&stencil, tile, &opts);
        let mut point = MachinePoint::manticore_cluster();
        point.cores = 4;
        let expect = estimate_tile(&stencil, tile, &point, backend.saris_efficiency);
        assert_eq!(est.cycles, expect.compute_cycles);
        assert_eq!(est.imbalance.len(), 4);
        // Half the cores, double the estimated compute time.
        let eight = backend.estimate(&stencil, tile, &RunOptions::new(Variant::Saris));
        assert!(
            est.cycles > eight.cycles,
            "fewer cores must estimate slower"
        );
    }

    #[test]
    fn shared_store_updates_are_visible_to_the_backend() {
        let store = Arc::new(CalibrationStore::new());
        let backend = RooflineBackend::with_store(Arc::clone(&store));
        let stencil = gallery::jacobi_2d();
        let opts = RunOptions::new(Variant::Saris);
        let fallback = backend.estimate(&stencil, Extent::new_2d(64, 64), &opts);
        // Feeding the *store* (as a session does) changes what the
        // backend answers — no re-registration needed.
        store.observe(
            &stencil,
            Variant::Saris,
            Extent::new_2d(64, 64),
            7,
            &crate::calibration::Observation {
                cycles: 2985,
                fpu_ops: 19220,
                flops: 19220,
                interior_points: 3844,
                imbalance: vec![1.0; 8],
            },
        );
        let calibrated = backend.estimate(&stencil, Extent::new_2d(64, 64), &opts);
        assert_ne!(fallback.cycles, calibrated.cycles);
        assert_eq!(calibrated.cycles.round() as u64, 2985);
    }
}
