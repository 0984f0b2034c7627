//! The unified request/response vocabulary of the execution engine.
//!
//! A [`Workload`] is a builder for one self-contained unit of work: which
//! stencil, on what extent, with which inputs, options, tuning policy,
//! how many time steps, and what verification tolerance. Freezing it
//! yields an immutable, cloneable, hashable [`WorkloadSpec`] whose
//! [`fingerprint`](WorkloadSpec::fingerprint) identifies the request —
//! two equal specs produce identical results on the same backend, which
//! is what makes a spec the natural unit to cache, batch, or ship to
//! another process.
//!
//! [`Session::submit`](crate::Session::submit) answers a spec with an
//! [`Outcome`]: final grid states, per-step [`RunReport`]s, the winning
//! compiled kernel, the [`TuningDecision`], the verification error, and
//! per-workload cache/pool [`WorkloadTelemetry`].
//!
//! ```
//! use saris_codegen::{Session, Tune, Variant, Workload};
//! use saris_core::{gallery, Extent};
//!
//! # fn main() -> Result<(), saris_codegen::CodegenError> {
//! let spec = Workload::new(gallery::jacobi_2d())
//!     .extent(Extent::new_2d(32, 32))
//!     .input_seed(42)
//!     .variant(Variant::Saris)
//!     .tune(Tune::Auto)
//!     .verify(1e-12)
//!     .freeze()?;
//! let outcome = Session::new().submit(&spec)?;
//! assert!(outcome.tuning.is_some() && outcome.verify_error.is_some());
//! assert!(outcome.expect_report().cycles > 0);
//! # Ok(())
//! # }
//! ```

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use saris_core::grid::Grid;
use saris_core::key::key_of;
use saris_core::stencil::Stencil;
use saris_core::Extent;
use snitch_sim::{ClusterConfig, RunReport};

use crate::backends::Fidelity;
use crate::error::CodegenError;
use crate::runtime::{BufferRotation, CompiledKernel, RunOptions, Variant};
use crate::tuner::{Tune, TuningDecision};

/// How a workload's input grids are produced.
///
/// Seeded inputs keep the spec tiny and trivially serializable — exactly
/// what a sharded sweep wants to ship between processes. Explicit grids
/// are shared behind an [`Arc`], so cloning a spec (or fanning one job
/// list across a 60-spec gallery sweep) never copies grid data.
#[derive(Debug, Clone)]
pub enum InputSpec {
    /// Deterministic pseudo-random grids: input array `i` becomes
    /// `Grid::pseudo_random(extent, seed + i)`.
    Seeded(u64),
    /// Explicit input grids, one per declared input array, shared across
    /// spec clones.
    Grids(Arc<Vec<Grid>>),
}

// Grid data compares *bitwise* (matching the fingerprint, which hashes
// `f64::to_bits`), so equality stays reflexive even for grids carrying
// NaN payloads.
impl PartialEq for InputSpec {
    fn eq(&self, other: &InputSpec) -> bool {
        match (self, other) {
            (InputSpec::Seeded(a), InputSpec::Seeded(b)) => a == b,
            (InputSpec::Grids(a), InputSpec::Grids(b)) => {
                Arc::ptr_eq(a, b)
                    || (a.len() == b.len()
                        && a.iter().zip(b.iter()).all(|(x, y)| {
                            x.extent() == y.extent()
                                && x.as_slice()
                                    .iter()
                                    .zip(y.as_slice())
                                    .all(|(p, q)| p.to_bits() == q.to_bits())
                        }))
            }
            _ => false,
        }
    }
}

impl Eq for InputSpec {}

/// Grid data by its bits, like equality.
impl Hash for InputSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            InputSpec::Seeded(seed) => seed.hash(state),
            InputSpec::Grids(grids) => {
                for g in grids.iter() {
                    g.extent().hash(state);
                    g.as_slice().iter().for_each(|v| v.to_bits().hash(state));
                }
            }
        }
    }
}

impl InputSpec {
    /// Materializes owned input grids for `stencil` at `extent`.
    pub(crate) fn materialize(&self, stencil: &Stencil, extent: Extent) -> Vec<Grid> {
        match self {
            InputSpec::Seeded(seed) => stencil
                .input_arrays()
                .enumerate()
                .map(|(i, _)| Grid::pseudo_random(extent, seed.wrapping_add(i as u64)))
                .collect(),
            InputSpec::Grids(grids) => (**grids).clone(),
        }
    }
}

/// Builder for one unit of execution-engine work.
///
/// Defaults: SARIS variant, unroll 1, no tuning, one time step, no
/// verification, seed-0 pseudo-random inputs. Call
/// [`freeze`](Workload::freeze) to validate and obtain the immutable
/// [`WorkloadSpec`].
#[derive(Debug, Clone)]
pub struct Workload {
    stencil: Option<Arc<Stencil>>,
    probe_extent: Option<Extent>,
    extent: Option<Extent>,
    inputs: InputSpec,
    options: RunOptions,
    tune: Tune,
    time_steps: usize,
    rotation: Option<BufferRotation>,
    verify: Option<f64>,
    fidelity: Option<Fidelity>,
}

impl Workload {
    /// Starts a stencil workload. Accepts an owned [`Stencil`] or a
    /// shared `Arc<Stencil>` — batch builders should clone one `Arc` per
    /// code so a whole sweep holds a single copy of each stencil IR.
    pub fn new(stencil: impl Into<Arc<Stencil>>) -> Workload {
        Workload::with_defaults(Some(stencil.into()), None)
    }

    fn with_defaults(stencil: Option<Arc<Stencil>>, probe_extent: Option<Extent>) -> Workload {
        Workload {
            stencil,
            probe_extent,
            extent: None,
            inputs: InputSpec::Seeded(0),
            options: RunOptions::new(Variant::Saris),
            tune: Tune::Fixed,
            time_steps: 1,
            rotation: None,
            verify: None,
            fidelity: None,
        }
    }

    /// Starts a DMA-bandwidth-utilization probe for tile-shaped transfers
    /// of `extent` (the paper's "mean DMA bandwidth utilization measured
    /// in our single-cluster experiments"). The probe always measures on
    /// a simulated cluster from the session's pool — whatever backend the
    /// session runs stencils on — using the cluster configuration from
    /// [`options`](Workload::options); the answer lands in
    /// [`Outcome::dma_utilization`] and the outcome reports backend
    /// `"sim"`.
    pub fn dma_probe(extent: Extent) -> Workload {
        Workload::with_defaults(None, Some(extent))
    }

    /// Sets the tile extent (halo included). Required for seeded inputs;
    /// optional (but cross-checked) for explicit grids.
    #[must_use]
    pub fn extent(mut self, extent: Extent) -> Workload {
        self.extent = Some(extent);
        self
    }

    /// Uses deterministic pseudo-random inputs: array `i` is seeded with
    /// `seed + i` (wrapping).
    #[must_use]
    pub fn input_seed(mut self, seed: u64) -> Workload {
        self.inputs = InputSpec::Seeded(seed);
        self
    }

    /// Uses explicit input grids, one per declared input array.
    #[must_use]
    pub fn inputs(mut self, grids: Vec<Grid>) -> Workload {
        self.inputs = InputSpec::Grids(Arc::new(grids));
        self
    }

    /// Uses explicit input grids already shared behind an [`Arc`] (spec
    /// clones and sibling specs reference the same allocation).
    #[must_use]
    pub fn shared_inputs(mut self, grids: Arc<Vec<Grid>>) -> Workload {
        self.inputs = InputSpec::Grids(grids);
        self
    }

    /// Sets the code-generation variant on the current options.
    #[must_use]
    pub fn variant(mut self, variant: Variant) -> Workload {
        self.options.variant = variant;
        self
    }

    /// Replaces the full execution options (variant, unroll, cluster
    /// configuration, planner knobs, ...). Call before
    /// [`variant`](Workload::variant)/[`unroll`](Workload::unroll) if you
    /// combine them.
    #[must_use]
    pub fn options(mut self, options: RunOptions) -> Workload {
        self.options = options;
        self
    }

    /// Sets a fixed unroll factor on the current options (ignored when a
    /// tuning policy is set).
    #[must_use]
    pub fn unroll(mut self, unroll: usize) -> Workload {
        self.options.unroll = unroll;
        self
    }

    /// Sets the unroll-tuning policy.
    #[must_use]
    pub fn tune(mut self, tune: Tune) -> Workload {
        self.tune = tune;
        self
    }

    /// Runs `steps` time iterations, rotating buffers between steps (see
    /// [`rotation`](Workload::rotation); defaults to the stencil's
    /// natural rotation).
    #[must_use]
    pub fn time_steps(mut self, steps: usize) -> Workload {
        self.time_steps = steps;
        self
    }

    /// Sets how grids rotate between time steps.
    #[must_use]
    pub fn rotation(mut self, rotation: BufferRotation) -> Workload {
        self.rotation = Some(rotation);
        self
    }

    /// Verifies the final output against the golden reference executor:
    /// [`Session::submit`](crate::Session::submit) fails with
    /// [`CodegenError::VerificationFailed`] if the largest absolute
    /// difference exceeds `tolerance`, and otherwise reports the measured
    /// error in [`Outcome::verify_error`]. Use `0.0` to demand bit-exact
    /// output.
    #[must_use]
    pub fn verify(mut self, tolerance: f64) -> Workload {
        self.verify = Some(tolerance);
        self
    }

    /// Requests a specific [`Fidelity`] tier: instant analytic estimates
    /// ([`Fidelity::Analytic`]), cycle-approximate simulation
    /// ([`Fidelity::Cycles`]), the golden reference executor
    /// ([`Fidelity::Golden`]), or adaptive routing
    /// ([`Fidelity::Auto`]). Specs that don't choose run at the
    /// session's default tier. Tuning ([`tune`](Workload::tune)) only
    /// measures on the cycle tier; on codegen-free tiers the policy is
    /// inert and no [`TuningDecision`] is produced. The analytic tier
    /// answers without output grids (and therefore rejects
    /// [`verify`](Workload::verify)); its reports are estimates, flagged
    /// in [`WorkloadTelemetry::estimated`].
    ///
    /// [`Fidelity::Auto`] picks the cheapest of the analytic and cycle
    /// tiers meeting its accuracy budget, based on the answering
    /// session's live calibration store — combined with
    /// [`verify`](Workload::verify) it *always* escalates to the cycle
    /// tier (verification is meaningless without grids), unlike plain
    /// `Analytic`, which such a combination rejects at freeze. The tier
    /// that actually answered lands in
    /// [`WorkloadTelemetry::answered_by`].
    #[must_use]
    pub fn fidelity(mut self, fidelity: Fidelity) -> Workload {
        self.fidelity = Some(fidelity);
        self
    }

    /// Validates the request and freezes it into an immutable
    /// [`WorkloadSpec`].
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::InvalidWorkload`] when the request is
    /// inconsistent: no extent for seeded inputs, explicit grids that
    /// mismatch the stencil's input arity or disagree on extent, zero
    /// time steps, an empty tuning candidate list, a non-finite or
    /// negative verification tolerance, or multi-step workloads on
    /// stencils with more than two input arrays and no explicit rotation.
    pub fn freeze(self) -> Result<WorkloadSpec, CodegenError> {
        let invalid = |reason: &str| CodegenError::InvalidWorkload {
            reason: reason.to_string(),
        };
        if let Some(extent) = self.probe_extent {
            // A probe takes only an extent and a cluster configuration;
            // knobs that only make sense for stencil workloads —
            // including the non-cluster option fields — are rejected
            // instead of silently dropped.
            let mut probe_defaults = RunOptions::new(Variant::Saris);
            probe_defaults.cluster = self.options.cluster.clone();
            if self.extent.is_some()
                || self.verify.is_some()
                || self.rotation.is_some()
                || self.time_steps != 1
                || self.tune != Tune::Fixed
                || self.inputs != InputSpec::Seeded(0)
                || self.options != probe_defaults
                || self.fidelity.is_some()
            {
                return Err(invalid(
                    "DMA probes take only an extent and a cluster configuration; \
                     inputs, tuning, time stepping, rotation, verification, \
                     fidelity, and non-cluster options do not apply (probes \
                     always measure on the simulated cluster)",
                ));
            }
            let kind = WorkloadKind::DmaProbe {
                extent,
                cluster: self.options.cluster,
            };
            let fingerprint = key_of(&kind);
            return Ok(WorkloadSpec { kind, fingerprint });
        }
        let stencil = self.stencil.expect("stencil workloads carry a stencil");
        let n_inputs = stencil.input_arrays().count();
        if n_inputs == 0 {
            return Err(invalid("stencil declares no input arrays"));
        }
        let extent = match (&self.inputs, self.extent) {
            (InputSpec::Seeded(_), None) => {
                return Err(invalid("seeded inputs need an explicit extent"))
            }
            (InputSpec::Seeded(_), Some(e)) => e,
            (InputSpec::Grids(grids), declared) => {
                if grids.len() != n_inputs {
                    return Err(invalid(&format!(
                        "{} declares {n_inputs} input arrays, got {} grids",
                        stencil.name(),
                        grids.len()
                    )));
                }
                let e = grids[0].extent();
                if grids.iter().any(|g| g.extent() != e) {
                    return Err(invalid("input grids disagree on extent"));
                }
                if declared.is_some_and(|d| d != e) {
                    return Err(invalid("declared extent disagrees with the input grids"));
                }
                e
            }
        };
        if self.time_steps == 0 {
            return Err(invalid("a workload runs at least one time step"));
        }
        if self.tune.candidates().is_some_and(<[usize]>::is_empty) {
            return Err(invalid("tuning needs at least one unroll candidate"));
        }
        if self.verify.is_some_and(|t| !t.is_finite() || t < 0.0) {
            return Err(invalid(
                "verification tolerance must be finite and non-negative",
            ));
        }
        // Verification needs output grids, which the analytic tier never
        // produces. Three cases: a grid-producing tier verifies, plain
        // `Analytic` is rejected here, and `Auto` stays valid — the
        // session resolves it by *forcing* escalation to the cycle tier.
        if self.fidelity == Some(Fidelity::Analytic) && self.verify.is_some() {
            return Err(invalid(
                "the analytic tier produces estimates without output grids; \
                 verification needs Fidelity::Cycles or Fidelity::Golden \
                 (or Fidelity::Auto, which escalates verifying workloads)",
            ));
        }
        if let Some(Fidelity::Auto { accuracy_budget }) = self.fidelity {
            if !accuracy_budget.is_finite() || accuracy_budget < 0.0 {
                return Err(invalid(
                    "an Auto accuracy budget must be finite and non-negative",
                ));
            }
        }
        let rotation = match (self.rotation, self.time_steps) {
            (Some(r), _) => {
                if r == BufferRotation::Leapfrog && n_inputs != 2 {
                    return Err(invalid(&format!(
                        "leapfrog rotation needs exactly 2 input arrays, got {n_inputs}"
                    )));
                }
                Some(r)
            }
            (None, 1) => None,
            (None, _) => match n_inputs {
                1 | 2 => Some(BufferRotation::natural(&stencil)),
                n => {
                    return Err(invalid(&format!(
                        "no natural rotation for {n} input arrays; set one explicitly"
                    )))
                }
            },
        };
        let kind = WorkloadKind::Stencil(StencilWork {
            stencil,
            extent,
            inputs: self.inputs,
            options: self.options,
            tune: self.tune,
            time_steps: self.time_steps,
            rotation,
            verify: self.verify,
            fidelity: self.fidelity,
        });
        let fingerprint = key_of(&kind);
        Ok(WorkloadSpec { kind, fingerprint })
    }
}

/// The frozen stencil request (all fields validated by
/// [`Workload::freeze`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StencilWork {
    pub stencil: Arc<Stencil>,
    pub extent: Extent,
    pub inputs: InputSpec,
    pub options: RunOptions,
    pub tune: Tune,
    pub time_steps: usize,
    pub rotation: Option<BufferRotation>,
    pub verify: Option<f64>,
    pub fidelity: Option<Fidelity>,
}

/// Every field, the tolerance by its bits.
impl Hash for StencilWork {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let StencilWork {
            stencil,
            extent,
            inputs,
            options,
            tune,
            time_steps,
            rotation,
            verify,
            fidelity,
        } = self;
        let verify = verify.map(f64::to_bits);
        (
            stencil, extent, inputs, options, tune, time_steps, rotation, verify, fidelity,
        )
            .hash(state);
    }
}

/// What kind of work a spec describes.
#[derive(Debug, Clone, PartialEq, Hash)]
pub(crate) enum WorkloadKind {
    Stencil(StencilWork),
    DmaProbe {
        extent: Extent,
        cluster: ClusterConfig,
    },
}

/// An immutable, cloneable, hashable description of one unit of work —
/// the request half of the execution-engine API. Build one with
/// [`Workload`], answer it with
/// [`Session::submit`](crate::Session::submit).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    kind: WorkloadKind,
    fingerprint: u64,
}

// Reflexivity holds: grid data compares bitwise (see `InputSpec`'s
// `PartialEq`), `Workload::freeze` rejects non-finite verification
// tolerances, and the one float cluster parameter (`freq_hz`) is fixed
// configuration that never carries NaN.
impl Eq for WorkloadSpec {}

impl Hash for WorkloadSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.fingerprint.hash(state);
    }
}

impl WorkloadSpec {
    /// A 64-bit identity over every field of the request, nothing left
    /// out: the stencil's [fingerprint](Stencil::fingerprint), extent,
    /// inputs (explicit grids by their bits), every [`RunOptions`] field
    /// (compile- and execution-relevant), tuning policy, time stepping,
    /// rotation, verification tolerance and fidelity; for a probe, its
    /// extent and cluster configuration. Equal specs have equal
    /// fingerprints; the session additionally keys its kernel cache on
    /// the compile-relevant subset, so distinct specs still share
    /// compiled kernels where possible.
    ///
    /// Computed once, at freeze, with the one stable hasher
    /// ([`saris_core::key`]): a spec has the same fingerprint on every
    /// host, toolchain and build, so peers route, cache and quarantine
    /// on it alike.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The stencil this spec applies (`None` for DMA probes).
    pub fn stencil(&self) -> Option<&Arc<Stencil>> {
        match &self.kind {
            WorkloadKind::Stencil(w) => Some(&w.stencil),
            WorkloadKind::DmaProbe { .. } => None,
        }
    }

    /// The handle on the spec's stencil, for the wire decoder's interner
    /// to point at an *equal* stencil that other specs already share —
    /// which leaves every fingerprint as it is.
    pub(crate) fn stencil_mut(&mut self) -> Option<&mut Arc<Stencil>> {
        match &mut self.kind {
            WorkloadKind::Stencil(w) => Some(&mut w.stencil),
            WorkloadKind::DmaProbe { .. } => None,
        }
    }

    /// The tile extent the spec runs on.
    pub fn extent(&self) -> Extent {
        match &self.kind {
            WorkloadKind::Stencil(w) => w.extent,
            WorkloadKind::DmaProbe { extent, .. } => *extent,
        }
    }

    /// The execution options (`None` for DMA probes).
    pub fn options(&self) -> Option<&RunOptions> {
        match &self.kind {
            WorkloadKind::Stencil(w) => Some(&w.options),
            WorkloadKind::DmaProbe { .. } => None,
        }
    }

    /// Number of time steps the spec runs.
    pub fn time_steps(&self) -> usize {
        match &self.kind {
            WorkloadKind::Stencil(w) => w.time_steps,
            WorkloadKind::DmaProbe { .. } => 1,
        }
    }

    /// The fidelity tier this spec requested (`None` means "whatever the
    /// answering session's default is"; always `None` for probes, which
    /// measure on the simulated cluster).
    pub fn fidelity(&self) -> Option<Fidelity> {
        match &self.kind {
            WorkloadKind::Stencil(w) => w.fidelity,
            WorkloadKind::DmaProbe { .. } => None,
        }
    }

    /// Whether this spec is a DMA-utilization probe.
    pub fn is_probe(&self) -> bool {
        matches!(self.kind, WorkloadKind::DmaProbe { .. })
    }

    /// How many kernel executions answering this spec may perform: every
    /// tuning candidate is measured at most once (the tuner skips those
    /// proven unable to win), and the winner's first application is
    /// reused as time step one, so the total is at most
    /// `candidates + time_steps - 1` (and `1` for probes). This is the
    /// deterministic work multiplier cost-aware schedulers and caches
    /// scale the per-tier recompute cost by.
    pub fn planned_runs(&self) -> u64 {
        let WorkloadKind::Stencil(w) = &self.kind else {
            return 1;
        };
        let candidates = w.tune.candidates().map_or(1, <[usize]>::len).max(1) as u64;
        candidates + w.time_steps.saturating_sub(1) as u64
    }

    pub(crate) fn kind(&self) -> &WorkloadKind {
        &self.kind
    }
}

/// Cache/pool activity attributable to one submitted workload (the
/// session-wide totals live in
/// [`SessionStats`](crate::SessionStats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadTelemetry {
    /// Kernel executions this workload performed (tuning candidates and
    /// time steps included).
    pub runs: u64,
    /// Kernels compiled on behalf of this workload (cache misses).
    pub compiles: u64,
    /// Kernel-cache hits this workload enjoyed.
    pub cache_hits: u64,
    /// Executions that recycled a pooled cluster.
    pub clusters_reused: u64,
    /// Simulated cycles the engine skipped via idle fast-forwarding
    /// across this workload's runs (see
    /// [`RunReport::cycles_fast_forwarded`]) — how much dead time the
    /// simulator never had to step through.
    pub cycles_fast_forwarded: u64,
    /// Whether the outcome's reports carry *model estimates* rather than
    /// measurements. Set by analytic-tier backends (e.g.
    /// [`RooflineBackend`](crate::RooflineBackend)): the grids are still
    /// exact, but cycle counts, FPU utilization and per-core runtimes in
    /// [`Outcome::reports`] are synthesized from calibration data or a
    /// kernel's proven cycle bound, and must not be quoted as simulator
    /// measurements.
    pub estimated: bool,
    /// The concrete tier that answered this workload. For most specs
    /// this restates the requested (or session-default) tier; for
    /// [`Fidelity::Auto`] it records the routing decision —
    /// [`Fidelity::Analytic`] when the calibration store met the
    /// accuracy budget, [`Fidelity::Cycles`] when the request escalated.
    /// DMA probes always answer on the cycle tier.
    pub answered_by: Option<Fidelity>,
    /// Whether this outcome is a *degraded* answer: the requested tier
    /// failed (or blew its deadline) and the session re-answered from the
    /// analytic tier via
    /// [`Session::submit_degraded`](crate::Session::submit_degraded).
    /// Degraded answers are always estimates; `answered_by` records
    /// [`Fidelity::Analytic`] regardless of what the spec asked for.
    /// Serving layers must not cache degraded outcomes as if they were
    /// full-fidelity responses.
    pub degraded: bool,
    /// Per-class issue-slot counts of the winning kernel's steady-state
    /// per-point-visit work (the paper's Section 2.1 accounting), in
    /// [`InstrClass::ALL`](saris_isa::analysis::InstrClass::ALL) order.
    /// All zeros on codegen-free backends. Decode with
    /// [`WorkloadTelemetry::instr_mix`].
    pub mix_counts: [u64; 6],
}

impl WorkloadTelemetry {
    /// The kernel's per-point-visit instruction mix — compute vs memory
    /// vs address-calculation issue-slot shares ([`mix_counts`] decoded
    /// into the [`InstrMix`](saris_isa::analysis::InstrMix) vocabulary).
    ///
    /// [`mix_counts`]: WorkloadTelemetry::mix_counts
    pub fn instr_mix(&self) -> saris_isa::analysis::InstrMix {
        saris_isa::analysis::InstrMix::from_counts(self.mix_counts)
    }
}

/// The response half of the execution-engine API: everything one
/// submitted [`WorkloadSpec`] produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Fingerprint of the spec that produced this outcome.
    pub fingerprint: u64,
    /// Which backend executed the workload.
    pub backend: &'static str,
    /// Final grid states, youngest field first: the rotated field set
    /// for time-stepped workloads, the single output tile otherwise.
    /// Empty for DMA probes and analytic estimates (estimate-class
    /// answers do no per-point work).
    pub grids: Vec<Grid>,
    /// One simulator report per executed time step of the winning
    /// configuration (empty on report-free backends and probes).
    pub reports: Vec<RunReport>,
    /// The compiled kernel that ran (`None` on codegen-free backends and
    /// probes). Shared with the session's cache, not cloned.
    pub kernel: Option<Arc<CompiledKernel>>,
    /// The tuning decision, when the spec asked for tuning on a backend
    /// that measures cycles.
    pub tuning: Option<TuningDecision>,
    /// Largest absolute difference against the golden reference, when the
    /// spec requested verification (always within the requested
    /// tolerance — a larger error fails the submission instead).
    pub verify_error: Option<f64>,
    /// Measured DMA bandwidth utilization (probes only).
    pub dma_utilization: Option<f64>,
    /// Cache/pool activity attributable to this workload.
    pub telemetry: WorkloadTelemetry,
}

impl Outcome {
    /// The youngest final grid (the output tile), `None` for probes and
    /// analytic estimates.
    pub fn output(&self) -> Option<&Grid> {
        self.grids.first()
    }

    /// The youngest final grid.
    ///
    /// # Panics
    ///
    /// Panics for probe and analytic-estimate outcomes, which produce
    /// no grids.
    pub fn expect_output(&self) -> &Grid {
        self.grids
            .first()
            .expect("this outcome carries no output grid")
    }

    /// The final step's simulator report, if the backend produced one.
    pub fn report(&self) -> Option<&RunReport> {
        self.reports.last()
    }

    /// The final step's simulator report.
    ///
    /// # Panics
    ///
    /// Panics when the backend produced none (e.g.
    /// [`NativeBackend`](crate::NativeBackend)).
    pub fn expect_report(&self) -> &RunReport {
        self.reports
            .last()
            .unwrap_or_else(|| panic!("the `{}` backend produces no report", self.backend))
    }

    /// Total simulated cycles across all steps.
    pub fn total_cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.cycles).sum()
    }

    /// The unroll factor that ran, from the compiled kernel. `None` on
    /// codegen-free backends (which neither compile nor tune) and for
    /// probes.
    pub fn unroll(&self) -> Option<usize> {
        self.kernel.as_ref().map(|k| k.unroll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_core::gallery;
    use saris_core::parallel::InterleavePlan;

    fn base_workload() -> Workload {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(1)
    }

    #[test]
    fn freeze_requires_extent_for_seeded_inputs() {
        let err = Workload::new(gallery::jacobi_2d()).freeze().unwrap_err();
        assert!(matches!(err, CodegenError::InvalidWorkload { .. }));
    }

    #[test]
    fn freeze_checks_input_arity_and_extents() {
        let tile = Extent::new_2d(16, 16);
        let err = Workload::new(gallery::ac_iso_cd())
            .inputs(vec![Grid::zeros(tile)])
            .freeze()
            .unwrap_err();
        assert!(matches!(err, CodegenError::InvalidWorkload { .. }));
        let err = Workload::new(gallery::jacobi_2d())
            .inputs(vec![Grid::zeros(tile)])
            .extent(Extent::new_2d(8, 8))
            .freeze()
            .unwrap_err();
        assert!(matches!(err, CodegenError::InvalidWorkload { .. }));
    }

    #[test]
    fn freeze_rejects_degenerate_requests() {
        for wl in [
            base_workload().time_steps(0),
            base_workload().tune(Tune::Candidates(vec![])),
            base_workload().verify(f64::NAN),
            base_workload().verify(-1.0),
            // The analytic tier has no grids to verify.
            base_workload().fidelity(Fidelity::Analytic).verify(1e-9),
            // Auto budgets must be finite and non-negative.
            base_workload().fidelity(Fidelity::Auto {
                accuracy_budget: f64::NAN,
            }),
            base_workload().fidelity(Fidelity::Auto {
                accuracy_budget: -0.1,
            }),
            base_workload().fidelity(Fidelity::Auto {
                accuracy_budget: f64::INFINITY,
            }),
            // Leapfrog rotates two fields; jacobi_2d has one.
            base_workload()
                .time_steps(2)
                .rotation(BufferRotation::Leapfrog),
        ] {
            assert!(matches!(
                wl.freeze(),
                Err(CodegenError::InvalidWorkload { .. })
            ));
        }
    }

    #[test]
    fn auto_accepts_verification_unlike_analytic() {
        // The third freeze case: verification on `Auto` is valid (the
        // session escalates it to a grid-producing tier), while plain
        // `Analytic` still rejects it.
        let spec = base_workload()
            .fidelity(Fidelity::auto())
            .verify(1e-9)
            .freeze()
            .expect("Auto + verify freezes");
        assert_eq!(spec.fidelity(), Some(Fidelity::auto()));
        assert!(matches!(
            base_workload()
                .fidelity(Fidelity::Analytic)
                .verify(1e-9)
                .freeze(),
            Err(CodegenError::InvalidWorkload { .. })
        ));
    }

    #[test]
    fn probes_reject_stencil_only_knobs() {
        let extent = Extent::new_2d(16, 16);
        assert!(Workload::dma_probe(extent).freeze().is_ok());
        for wl in [
            Workload::dma_probe(extent).verify(1e-9),
            Workload::dma_probe(extent).time_steps(2),
            Workload::dma_probe(extent).tune(Tune::Auto),
            Workload::dma_probe(extent).input_seed(7),
            Workload::dma_probe(extent).unroll(4),
            Workload::dma_probe(extent).variant(Variant::Base),
            Workload::dma_probe(extent).fidelity(Fidelity::Analytic),
        ] {
            assert!(matches!(
                wl.freeze(),
                Err(CodegenError::InvalidWorkload { .. })
            ));
        }
    }

    #[test]
    fn seeded_inputs_wrap_instead_of_overflowing() {
        // ac_iso_cd has two input arrays; seed u64::MAX + 1 must wrap.
        let s = gallery::ac_iso_cd();
        let tile = Extent::cube(saris_core::Space::Dim3, 8);
        let grids = InputSpec::Seeded(u64::MAX).materialize(&s, tile);
        assert_eq!(grids.len(), 2);
        assert_eq!(grids[1], Grid::pseudo_random(tile, 0));
    }

    #[test]
    fn multi_step_specs_get_the_natural_rotation() {
        let spec = base_workload().time_steps(3).freeze().unwrap();
        let WorkloadKind::Stencil(w) = spec.kind() else {
            panic!("stencil spec");
        };
        assert_eq!(w.rotation, Some(BufferRotation::Alternating));
        let spec = Workload::new(gallery::ac_iso_cd())
            .extent(Extent::cube(saris_core::Space::Dim3, 10))
            .time_steps(2)
            .freeze()
            .unwrap();
        let WorkloadKind::Stencil(w) = spec.kind() else {
            panic!("stencil spec");
        };
        assert_eq!(w.rotation, Some(BufferRotation::Leapfrog));
    }

    #[test]
    fn equal_specs_have_equal_fingerprints() {
        let a = base_workload().freeze().unwrap();
        let b = base_workload().freeze().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_request_knob_moves_the_fingerprint() {
        let base = base_workload().freeze().unwrap().fingerprint();
        let variants = [
            base_workload().input_seed(2),
            base_workload().extent(Extent::new_2d(20, 20)),
            base_workload().variant(Variant::Base),
            base_workload().unroll(2),
            base_workload().tune(Tune::Auto),
            base_workload().time_steps(2),
            base_workload().verify(1e-9),
            base_workload().fidelity(Fidelity::Analytic),
            base_workload().fidelity(Fidelity::auto()),
            base_workload().fidelity(Fidelity::Auto {
                accuracy_budget: 0.5,
            }),
        ];
        for (i, wl) in variants.into_iter().enumerate() {
            assert_ne!(
                wl.freeze().unwrap().fingerprint(),
                base,
                "knob {i} did not change the fingerprint"
            );
        }
        let probe = Workload::dma_probe(Extent::new_2d(16, 16))
            .freeze()
            .unwrap();
        assert_ne!(probe.fingerprint(), base);
        assert!(probe.is_probe());

        // Every `RunOptions` field moves every key over the options but
        // the ones that declare they leave it out: [spec, compile
        // key, execution context].
        let keys = |options: &RunOptions| {
            let spec = base_workload().options(options.clone()).freeze().unwrap();
            [
                spec.fingerprint(),
                options.compile_fingerprint(),
                crate::calibration::execution_context(options, &Tune::Fixed),
            ]
        };
        let defaults = RunOptions::new(Variant::Saris);
        // A new field fails to compile here until it has a row below.
        let RunOptions {
            variant: _,
            unroll: _,
            interleave: _,
            cluster: _,
            saris: _,
            max_cycles: _,
            concurrent_dma: _,
            reassociate: _,
            base_allow_spill: _,
        } = &defaults;
        let all = [true; 3];
        type Knob = (&'static str, fn(&mut RunOptions), [bool; 3]);
        let knobs: [Knob; 11] = [
            ("variant", |o| o.variant = Variant::Base, all),
            ("unroll", |o| o.unroll = 2, all),
            (
                "interleave",
                |o| o.interleave = InterleavePlan::new(2, 4),
                all,
            ),
            ("cluster", |o| o.cluster.n_cores = 4, all),
            ("cluster.freq_hz", |o| o.cluster.freq_hz = 1.25e9, all),
            (
                "cluster.fast_forward",
                |o| o.cluster.fast_forward = false,
                all,
            ),
            ("saris", |o| o.saris.coeff_reg_budget = 5, all),
            ("max_cycles", |o| o.max_cycles = 1, [true, false, false]),
            (
                "concurrent_dma",
                |o| o.concurrent_dma = true,
                [true, false, true],
            ),
            ("reassociate", |o| o.reassociate = 1, all),
            ("base_allow_spill", |o| o.base_allow_spill = true, all),
        ];
        for (field, set, moves) in knobs {
            let mut options = defaults.clone();
            set(&mut options);
            let (moved, kept) = (keys(&options), keys(&defaults));
            for (i, key) in ["spec", "compile", "context"].into_iter().enumerate() {
                assert_eq!(moved[i] != kept[i], moves[i], "{field} vs the {key} key");
            }
        }
    }

    #[test]
    fn explicit_grids_match_their_seeded_equivalent_results() {
        let tile = Extent::new_2d(16, 16);
        let seeded = base_workload().freeze().unwrap();
        let explicit = Workload::new(gallery::jacobi_2d())
            .inputs(vec![Grid::pseudo_random(tile, 1)])
            .freeze()
            .unwrap();
        // Different spec identity (the request differs)...
        assert_ne!(seeded.fingerprint(), explicit.fingerprint());
        // ...but the same materialized inputs.
        let s = gallery::jacobi_2d();
        let WorkloadKind::Stencil(w) = explicit.kind() else {
            panic!()
        };
        assert_eq!(
            w.inputs.materialize(&s, tile),
            InputSpec::Seeded(1).materialize(&s, tile)
        );
    }

    #[test]
    fn nan_grid_specs_stay_reflexive() {
        let tile = Extent::new_2d(16, 16);
        let mut grid = Grid::zeros(tile);
        grid.set(saris_core::Point::new_2d(1, 1), f64::NAN);
        let spec = Workload::new(gallery::jacobi_2d())
            .inputs(vec![grid])
            .freeze()
            .unwrap();
        // Bitwise grid equality keeps Eq's reflexivity contract even
        // with NaN payloads, so specs work as hash-map keys.
        assert_eq!(spec, spec.clone());
        let mut set = std::collections::HashSet::new();
        set.insert(spec.clone());
        assert!(set.contains(&spec));
    }

    #[test]
    fn spec_clones_share_the_stencil_and_grids() {
        let stencil = Arc::new(gallery::jacobi_2d());
        let grids = Arc::new(vec![Grid::zeros(Extent::new_2d(16, 16))]);
        let spec = Workload::new(Arc::clone(&stencil))
            .shared_inputs(Arc::clone(&grids))
            .freeze()
            .unwrap();
        let clone = spec.clone();
        assert!(Arc::ptr_eq(spec.stencil().unwrap(), &stencil));
        assert!(Arc::ptr_eq(clone.stencil().unwrap(), &stencil));
        let WorkloadKind::Stencil(w) = clone.kind() else {
            panic!()
        };
        let InputSpec::Grids(g) = &w.inputs else {
            panic!()
        };
        assert!(Arc::ptr_eq(g, &grids));
    }
}
