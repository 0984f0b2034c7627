//! Deterministic fault injection for the execution engine.
//!
//! The serving stack claims to survive backend failures — this module is
//! how that claim gets tested instead of asserted. A
//! [`FaultInjectingBackend`] wraps any [`Backend`] and, on chosen
//! requests, injects the four runtime failure classes the paper's own
//! failure model motivates (a misconfigured stream register fails
//! *silently* — Scheffler et al., DAC 2024 — which is exactly the
//! `Corrupt` class below):
//!
//! * **`Error`** — the backend returns [`CodegenError::Transient`]
//!   without executing, modeling a wedged cluster or exhausted pool.
//! * **`Panic`** — the backend panics, modeling a crashed worker.
//! * **`Delay`** — execution succeeds but only after a configured stall,
//!   modeling a slow tier; this is what exercises deadlines.
//! * **`Corrupt`** — execution succeeds and the output is *silently*
//!   wrong (one flipped mantissa bit, or a perturbed cycle count for
//!   grid-free outcomes). Only a downstream oracle cross-check
//!   ([`Workload::verify`](crate::Workload::verify)) can catch this.
//!
//! ## Determinism
//!
//! Fault placement must not depend on thread scheduling, or a chaos soak
//! test could never assert anything exact. Each request is reduced to a
//! scheduling-independent **request key** (stencil fingerprint ⊕ extent
//! ⊕ sampled input-grid bits), and the fault decision is a pure hash of
//! `(plan seed, key, attempt index)` — see [`FaultPlan::decide`]. The
//! attempt index counts backend calls *per key*, so a retried request
//! sees the next slot in its own schedule regardless of what other
//! threads are doing. Tests can precompute the exact schedule for a spec
//! with [`FaultInjectingBackend::schedule`] and derive expected
//! outcomes, retry counts, and degraded answers — then assert them.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use saris_core::grid::Grid;
use saris_core::key::{key_of, StableHasher};

use crate::backends::{Backend, ExecOutcome, ExecRequest, Fidelity};
use crate::calibration::CalibrationStore;
use crate::error::CodegenError;
use crate::workload::{WorkloadKind, WorkloadSpec};

/// One injected failure class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Fail the request with [`CodegenError::Transient`] before the
    /// wrapped backend runs.
    Error,
    /// Panic before the wrapped backend runs (no cluster is leaked and
    /// no lock is held at the panic site).
    Panic,
    /// Sleep for [`FaultPlan::delay`], then execute normally.
    Delay,
    /// Execute normally, then silently corrupt the outcome.
    Corrupt,
}

/// A seeded, rate-based plan for which requests fault and how.
///
/// Rates are probabilities in `[0, 1]` evaluated in the fixed order
/// panic → error → delay → corrupt against a single uniform draw per
/// `(key, attempt)`, so their sum is the total fault probability (a sum
/// above 1 saturates). The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault-placement hash; two plans with the same rates
    /// but different seeds fault disjoint-looking request sets.
    pub seed: u64,
    /// Probability of [`FaultKind::Panic`].
    pub panic_rate: f64,
    /// Probability of [`FaultKind::Error`].
    pub error_rate: f64,
    /// Probability of [`FaultKind::Delay`].
    pub delay_rate: f64,
    /// Probability of [`FaultKind::Corrupt`].
    pub corrupt_rate: f64,
    /// How long a [`FaultKind::Delay`] stalls.
    pub delay: Duration,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            panic_rate: 0.0,
            error_rate: 0.0,
            delay_rate: 0.0,
            corrupt_rate: 0.0,
            delay: Duration::ZERO,
        }
    }
}

/// Maps a hash to a uniform draw in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan with this seed and no faults; set rates on the result.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The fault (if any) for attempt `attempt` of the request with this
    /// key. Pure: depends only on the plan's seed/rates and the
    /// arguments, never on scheduling, wall time, or prior calls.
    pub fn decide(&self, key: u64, attempt: u64) -> Option<FaultKind> {
        let draw = unit(key_of(&(self.seed, key, attempt)));
        let mut threshold = 0.0;
        for (rate, kind) in [
            (self.panic_rate, FaultKind::Panic),
            (self.error_rate, FaultKind::Error),
            (self.delay_rate, FaultKind::Delay),
            (self.corrupt_rate, FaultKind::Corrupt),
        ] {
            threshold += rate.max(0.0);
            if draw < threshold {
                return Some(kind);
            }
        }
        None
    }
}

/// Running totals of what a [`FaultInjectingBackend`] has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Requests failed with [`CodegenError::Transient`].
    pub errors: u64,
    /// Requests that panicked.
    pub panics: u64,
    /// Requests that were delayed (and then ran normally).
    pub delays: u64,
    /// Requests whose successful outcome was silently corrupted.
    pub corruptions: u64,
}

/// The scheduling-independent key for one backend request: the stencil,
/// the extent and a bit-sample of each input grid. Two requests with the
/// same stencil, extent, and inputs share a key (and therefore a fault
/// schedule) no matter which thread executes them or when.
pub fn request_key(req: &ExecRequest<'_>) -> u64 {
    let mut state = StableHasher::default();
    req.stencil.hash(&mut state);
    req.inputs.first().map(|g| g.extent()).hash(&mut state);
    for grid in req.inputs {
        let data = grid.as_slice();
        for idx in [0, data.len() / 2, data.len().saturating_sub(1)] {
            data.get(idx).map(|v| v.to_bits()).hash(&mut state);
        }
    }
    state.finish()
}

/// A [`Backend`] wrapper that injects deterministic faults per its
/// [`FaultPlan`] and otherwise delegates to the wrapped backend.
///
/// Register one per tier in a [`BackendRegistry`](crate::BackendRegistry)
/// (it reports the wrapped backend's [`Fidelity`]) to chaos-test
/// everything above the backend boundary: every request reaches a
/// backend through [`Backend::execute`], so every request is eligible
/// for injection.
pub struct FaultInjectingBackend {
    inner: Arc<dyn Backend>,
    plan: FaultPlan,
    attempts: Mutex<HashMap<u64, u64>>,
    errors: AtomicU64,
    panics: AtomicU64,
    delays: AtomicU64,
    corruptions: AtomicU64,
}

impl FaultInjectingBackend {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: Arc<dyn Backend>, plan: FaultPlan) -> FaultInjectingBackend {
        FaultInjectingBackend {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
        }
    }

    /// The plan this wrapper injects from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Totals of everything injected so far.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
        }
    }

    /// The request key a single-time-step submission of `spec` presents
    /// to this backend, or `None` for DMA probes (probes never reach a
    /// backend). Lets tests precompute fault schedules for the exact
    /// specs they submit.
    ///
    /// Accurate for the first time step only: later steps execute on
    /// rotated fields and hash to different keys.
    pub fn key_for(&self, spec: &WorkloadSpec) -> Option<u64> {
        let WorkloadKind::Stencil(work) = spec.kind() else {
            return None;
        };
        let grids = work.inputs.materialize(&work.stencil, work.extent);
        let refs: Vec<&Grid> = grids.iter().collect();
        Some(request_key(&ExecRequest {
            stencil: &work.stencil,
            inputs: &refs,
            options: &work.options,
            kernel: None,
            bound: None,
            cluster: None,
        }))
    }

    /// The first `attempts` entries of `spec`'s fault schedule (attempt
    /// 0 is the first backend call for its key). `None` for probes.
    pub fn schedule(&self, spec: &WorkloadSpec, attempts: u64) -> Option<Vec<Option<FaultKind>>> {
        let key = self.key_for(spec)?;
        Some((0..attempts).map(|a| self.plan.decide(key, a)).collect())
    }

    /// Flips one mantissa bit of the middle output element (or perturbs
    /// the cycle estimate for grid-free outcomes) — a silent wrong
    /// answer, detectable only by an oracle cross-check.
    fn corrupt(outcome: &mut ExecOutcome) {
        if let Some(grid) = &mut outcome.output {
            let data = grid.as_mut_slice();
            if !data.is_empty() {
                let mid = data.len() / 2;
                data[mid] = f64::from_bits(data[mid].to_bits() ^ 1);
                return;
            }
        }
        if let Some(report) = &mut outcome.report {
            report.cycles = report.cycles.wrapping_mul(2).wrapping_add(1);
        }
    }
}

impl Backend for FaultInjectingBackend {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }

    fn needs_kernel(&self) -> bool {
        self.inner.needs_kernel()
    }

    fn calibration_store(&self) -> Option<Arc<CalibrationStore>> {
        self.inner.calibration_store()
    }

    fn execute(&self, req: ExecRequest<'_>) -> Result<ExecOutcome, CodegenError> {
        let key = request_key(&req);
        let attempt = {
            // Recover a poisoned attempt table: it only holds counters,
            // which stay internally consistent even if a holder died.
            let mut attempts = self
                .attempts
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let slot = attempts.entry(key).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            attempt
        };
        match self.plan.decide(key, attempt) {
            Some(FaultKind::Panic) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                // Injected with no lock held; the session's lent cluster
                // unwinds with the caller's stack, so the panic models a
                // crashed worker, not a leaked one.
                panic!("chaos: injected panic (key {key:#018x}, attempt {attempt})");
            }
            Some(FaultKind::Error) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(CodegenError::Transient {
                    reason: format!("chaos: injected fault (key {key:#018x}, attempt {attempt})"),
                })
            }
            Some(FaultKind::Delay) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.plan.delay);
                self.inner.execute(req)
            }
            Some(FaultKind::Corrupt) => {
                let mut outcome = self.inner.execute(req)?;
                self.corruptions.fetch_add(1, Ordering::Relaxed);
                FaultInjectingBackend::corrupt(&mut outcome);
                Ok(outcome)
            }
            None => self.inner.execute(req),
        }
    }
}

impl std::fmt::Debug for FaultInjectingBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjectingBackend")
            .field("inner", &self.inner.name())
            .field("plan", &self.plan)
            .field("injected", &self.injected())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::NativeBackend;
    use crate::workload::Workload;
    use saris_core::{gallery, Extent};

    fn spec(seed: u64) -> WorkloadSpec {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(seed)
            .freeze()
            .unwrap()
    }

    #[test]
    fn decide_is_pure_and_seed_sensitive() {
        let plan = FaultPlan {
            error_rate: 0.5,
            ..FaultPlan::seeded(7)
        };
        for attempt in 0..16 {
            assert_eq!(plan.decide(42, attempt), plan.decide(42, attempt));
        }
        let other = FaultPlan {
            error_rate: 0.5,
            ..FaultPlan::seeded(8)
        };
        let a: Vec<_> = (0..64).map(|k| plan.decide(k, 0)).collect();
        let b: Vec<_> = (0..64).map(|k| other.decide(k, 0)).collect();
        assert_ne!(a, b, "different seeds must place faults differently");
    }

    #[test]
    fn rates_partition_the_draw() {
        // With rates summing to 1 every request faults; the observed mix
        // follows the configured proportions.
        let plan = FaultPlan {
            panic_rate: 0.25,
            error_rate: 0.25,
            delay_rate: 0.25,
            corrupt_rate: 0.25,
            ..FaultPlan::seeded(3)
        };
        let mut counts = [0u32; 4];
        for key in 0..4096 {
            match plan.decide(key, 0) {
                Some(FaultKind::Panic) => counts[0] += 1,
                Some(FaultKind::Error) => counts[1] += 1,
                Some(FaultKind::Delay) => counts[2] += 1,
                Some(FaultKind::Corrupt) => counts[3] += 1,
                None => panic!("rates sum to 1, nothing may pass clean"),
            }
        }
        for c in counts {
            assert!((800..=1250).contains(&c), "skewed fault mix: {counts:?}");
        }
        // Zero-rate plans never fault.
        let quiet = FaultPlan::seeded(3);
        assert!((0..4096).all(|k| quiet.decide(k, 0).is_none()));
    }

    #[test]
    fn request_keys_are_input_sensitive_and_stable() {
        let chaos =
            FaultInjectingBackend::new(Arc::new(NativeBackend::new()), FaultPlan::default());
        let k1 = chaos.key_for(&spec(1)).unwrap();
        let k2 = chaos.key_for(&spec(1)).unwrap();
        let k3 = chaos.key_for(&spec(2)).unwrap();
        assert_eq!(k1, k2, "same spec must hash to the same key");
        assert_ne!(k1, k3, "different inputs must hash to different keys");
    }

    #[test]
    fn injected_error_is_transient_and_counted() {
        let chaos = FaultInjectingBackend::new(
            Arc::new(NativeBackend::new()),
            FaultPlan {
                error_rate: 1.0,
                ..FaultPlan::seeded(1)
            },
        );
        let stencil = gallery::jacobi_2d();
        let grids = [Grid::pseudo_random(Extent::new_2d(8, 8), 0)];
        let refs: Vec<&Grid> = grids.iter().collect();
        let req = ExecRequest {
            stencil: &stencil,
            inputs: &refs,
            options: &crate::RunOptions::new(crate::Variant::Saris),
            kernel: None,
            bound: None,
            cluster: None,
        };
        let err = chaos
            .execute(req)
            .err()
            .expect("injection must fail the request");
        assert!(err.is_transient(), "injected faults must be retryable");
        assert_eq!(chaos.injected().errors, 1);
    }

    #[test]
    fn corruption_is_silent_but_detectable() {
        let clean = NativeBackend::new();
        let chaos = FaultInjectingBackend::new(
            Arc::new(NativeBackend::new()),
            FaultPlan {
                corrupt_rate: 1.0,
                ..FaultPlan::seeded(9)
            },
        );
        let stencil = gallery::jacobi_2d();
        let grids = [Grid::pseudo_random(Extent::new_2d(8, 8), 0)];
        let refs: Vec<&Grid> = grids.iter().collect();
        let opts = crate::RunOptions::new(crate::Variant::Saris);
        let req = || ExecRequest {
            stencil: &stencil,
            inputs: &refs,
            options: &opts,
            kernel: None,
            bound: None,
            cluster: None,
        };
        let good = clean.execute(req()).unwrap().output.unwrap();
        let bad = chaos.execute(req()).unwrap().output.unwrap();
        let diffs = good
            .as_slice()
            .iter()
            .zip(bad.as_slice())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(diffs, 1, "corruption flips exactly one element");
        assert_eq!(chaos.injected().corruptions, 1);
    }

    #[test]
    fn attempts_advance_the_schedule_per_key() {
        // error_rate 0.5 at this seed gives a mixed schedule; the live
        // wrapper must walk the same schedule `decide` predicts.
        let plan = FaultPlan {
            error_rate: 0.5,
            ..FaultPlan::seeded(11)
        };
        let chaos = FaultInjectingBackend::new(Arc::new(NativeBackend::new()), plan);
        let stencil = gallery::jacobi_2d();
        let grids = [Grid::pseudo_random(Extent::new_2d(8, 8), 0)];
        let refs: Vec<&Grid> = grids.iter().collect();
        let opts = crate::RunOptions::new(crate::Variant::Saris);
        let req = || ExecRequest {
            stencil: &stencil,
            inputs: &refs,
            options: &opts,
            kernel: None,
            bound: None,
            cluster: None,
        };
        let key = request_key(&req());
        for attempt in 0..8 {
            let expect = plan.decide(key, attempt);
            let got = chaos.execute(req());
            match expect {
                Some(FaultKind::Error) => assert!(got.is_err(), "attempt {attempt}"),
                None => assert!(got.is_ok(), "attempt {attempt}"),
                other => panic!("unexpected schedule entry {other:?}"),
            }
        }
    }
}
