//! The live calibration subsystem behind the analytic tier: a shared,
//! thread-safe [`CalibrationStore`] of single-cluster measurements that
//! the [`RooflineBackend`](crate::RooflineBackend) answers from and the
//! [`Session`](crate::Session) *feeds* — every cycle-tier outcome flows
//! back into the store as an [`Observation`], so a long-running server
//! sharpens its own estimates for the stencils it actually serves.
//!
//! The paper's scaleout methodology is exactly this loop run once by
//! hand: measure a kernel on one cluster, reduce the measurement to
//! per-point rates, and extrapolate through a bandwidth model. The store
//! makes the loop continuous and first-class:
//!
//! * entries are keyed by the subset of a workload's identity the
//!   analytic model can resolve — stencil structure, code variant, and
//!   cluster core count (deliberately coarser than the kernel-cache key,
//!   so a tuned measurement answers default-option estimate requests);
//! * each entry carries a **confidence** (the expected relative accuracy
//!   of an analytic answer at the extent and [execution
//!   context](execution_context) it was measured under) and an
//!   **age** (observation count plus a logical update tick), which is
//!   what [`Fidelity::Auto`](crate::Fidelity::Auto) routes on;
//! * the store serializes to and from JSON ([`CalibrationStore::to_json`]
//!   / [`CalibrationStore::from_json`]) with bit-exact round-tripping of
//!   every rate, so a warmed store can be exported from one server and
//!   imported into the next (`paper calibration --out PATH` in
//!   `saris-bench` writes one);
//! * the built-in gallery table — the paper's twenty tuned `(code,
//!   variant)` measurements — ships as a baked JSON seed
//!   ([`CalibrationStore::with_gallery`]) in the same format an export
//!   produces.
//!
//! # Examples
//!
//! ```
//! use saris_codegen::{Calibration, CalibrationStore, Variant};
//! use saris_core::{gallery, Extent};
//!
//! let store = CalibrationStore::new();
//! let stencil = gallery::jacobi_2d();
//! assert!(!store.is_calibrated(&stencil, Variant::Saris, 8));
//!
//! store.calibrate(
//!     &stencil,
//!     Variant::Saris,
//!     Calibration {
//!         cycles_per_point: 0.8,
//!         fpu_ops_per_point: 5.0,
//!         flops_per_point: 5.0,
//!         imbalance: vec![1.0; 8],
//!     },
//! );
//! let cal = store.lookup(&stencil, Variant::Saris, 8).expect("calibrated");
//! assert_eq!(cal.cycles_per_point, 0.8);
//!
//! // JSON round-trips reproduce every rate bit-for-bit.
//! let copy = CalibrationStore::from_json(&store.to_json()).expect("parses");
//! assert_eq!(copy.lookup(&stencil, Variant::Saris, 8), Some(cal));
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use saris_core::key::key_of;
use saris_core::stencil::Stencil;
use saris_core::{gallery, Extent};

use crate::error::CodegenError;
use crate::json::{self, JsonError, Reader};
use crate::record::{missing, record, DecStr, Wire};
use crate::runtime::{RunOptions, Variant};
use crate::tuner::Tune;

/// Confidence assigned to the baked-in gallery seed: measured on the
/// deterministic cycle tier at the paper tiles, but pasted into the
/// repository — a simulator change can drift it until the table is
/// regenerated, so it tracks simulation within the documented 1.05
/// calibration factor rather than exactly.
pub const BAKED_CONFIDENCE: f64 = 0.95;

/// Confidence assigned to live observations: the simulator is
/// deterministic, so re-estimating at the observed extent reproduces the
/// observed cycle count exactly.
pub const OBSERVED_CONFIDENCE: f64 = 1.0;

/// Confidence ceiling for estimates *away* from the extent an entry was
/// measured on, where the per-point rates are scaled by the interior
/// size and halo/startup amortization effects the model ignores show up
/// (the documented factor-2 off-tile band).
pub const OFF_EXTENT_CONFIDENCE: f64 = 0.5;

/// The baked-in gallery seed (see [`CalibrationStore::with_gallery`]),
/// regenerable with `paper calibration --out PATH` (`saris-bench`) after
/// simulator changes that move cycle counts.
const GALLERY_JSON: &str = include_str!("calibration/gallery.json");

/// One single-cluster measurement reduced to per-interior-point rates —
/// what the analytic tier scales by a request's interior size to
/// synthesize an estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Measured cycles per interior point.
    pub cycles_per_point: f64,
    /// Measured FPU issue slots per interior point.
    pub fpu_ops_per_point: f64,
    /// Measured FLOPs per interior point.
    pub flops_per_point: f64,
    /// Measured per-core runtime ratios (time / mean) inside the
    /// cluster — what the scaleout bootstrap resamples from. One entry
    /// per core of the measured cluster.
    pub imbalance: Vec<f64>,
}

impl Calibration {
    fn is_finite(&self) -> bool {
        self.cycles_per_point.is_finite()
            && self.fpu_ops_per_point.is_finite()
            && self.flops_per_point.is_finite()
            && !self.imbalance.is_empty()
            && self.imbalance.iter().all(|v| v.is_finite())
    }
}

/// Where a calibration entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationSource {
    /// The built-in gallery seed shipped with the crate.
    Baked,
    /// A live cycle-tier measurement fed through
    /// [`CalibrationStore::observe`] (or registered via
    /// [`CalibrationStore::calibrate`]).
    Observed,
    /// Loaded from a JSON export ([`CalibrationStore::from_json`]).
    Imported,
}

impl fmt::Display for CalibrationSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationSource::Baked => f.write_str("baked"),
            CalibrationSource::Observed => f.write_str("observed"),
            CalibrationSource::Imported => f.write_str("imported"),
        }
    }
}

/// One store entry: the measurement plus the metadata
/// [`Fidelity::Auto`](crate::Fidelity::Auto) routes on.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationEntry {
    /// Structural fingerprint of the measured stencil (the key's first
    /// component).
    pub stencil: u64,
    /// The code variant the measurement ran as.
    pub variant: Variant,
    /// Core count of the measured cluster.
    pub cores: usize,
    /// The stencil's name when it was measured (export/debug metadata;
    /// gallery names re-resolve to fingerprints on import).
    pub name: String,
    /// The per-point rates.
    pub calibration: Calibration,
    /// The tile extent the measurement was taken at (`None` for entries
    /// registered without one, which are treated as off-extent
    /// everywhere).
    pub extent: Option<Extent>,
    /// The [execution context](execution_context) the measurement ran
    /// under (options + tuning policy). Full confidence only applies to
    /// requests with the same context — an observation taken at a
    /// pessimal fixed unroll must not answer a tuned request as if it
    /// were exact. `None` (e.g. manual
    /// [`calibrate`](CalibrationStore::calibrate) registrations) is
    /// treated as context-mismatched everywhere.
    pub context: Option<u64>,
    /// Expected relative accuracy of an analytic answer *at the measured
    /// extent and context* (`1.0` = exact reproduction). Away from
    /// either, the effective confidence is capped at
    /// [`OFF_EXTENT_CONFIDENCE`].
    pub confidence: f64,
    /// How many measurements have fed this entry (the rates are the most
    /// recent observation's; this counts the history).
    pub observations: u64,
    /// Logical store tick of the last update — a relative age:
    /// entries with smaller ticks are staler.
    pub updated_tick: u64,
    /// Provenance of the entry.
    pub source: CalibrationSource,
}

/// What one cycle-tier run measured, before reduction to per-point
/// rates — the payload a [`Session`](crate::Session) feeds back for
/// every simulated stencil outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Measured cycles for the tile.
    pub cycles: u64,
    /// FPU issue slots retired across all cores.
    pub fpu_ops: u64,
    /// FLOPs retired across all cores.
    pub flops: u64,
    /// Interior points of the tile the run swept.
    pub interior_points: u64,
    /// Per-core runtime ratios (time / mean).
    pub imbalance: Vec<f64>,
}

/// The key an entry is stored under: the subset of a workload's identity
/// the analytic per-point-rate model resolves. Deliberately coarser than
/// the kernel-cache key (no extent, no unroll), so one tuned measurement
/// answers estimate requests across tile sizes and option sweeps — the
/// finer request identity (extent, [`execution_context`]) affects the
/// entry's *confidence*, not whether its rates are used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CalKey {
    stencil: u64,
    variant: Variant,
    cores: usize,
}

/// The execution-context tag an observation is recorded under: the
/// stable key of the request's tuning policy and of every option but
/// `max_cycles` (a budget; see [`RunOptions`]). Two requests with the
/// same tag run the identical configuration on the cycle tier, so an
/// observation answers them at full confidence; any other combination
/// (unroll, tuning policy, concurrent DMA, planner knobs, ...) only at
/// [`OFF_EXTENT_CONFIDENCE`] — its rates may be arbitrarily far from
/// what *that* configuration would measure.
pub fn execution_context(options: &RunOptions, tune: &Tune) -> u64 {
    key_of(&(options.without_budget(), tune))
}

#[derive(Default)]
struct Inner {
    entries: HashMap<CalKey, CalibrationEntry>,
    tick: u64,
}

/// A shared, mutable, thread-safe table of single-cluster calibration
/// measurements (see the [module docs](self) for the full story).
///
/// Cloneless sharing: wrap the store in an `Arc` and hand it to both a
/// [`RooflineBackend`](crate::RooflineBackend) (which answers from it)
/// and any number of sessions (which feed it); all access is internally
/// locked.
pub struct CalibrationStore {
    inner: Mutex<Inner>,
}

impl Default for CalibrationStore {
    /// The gallery-seeded store ([`CalibrationStore::with_gallery`]).
    fn default() -> CalibrationStore {
        CalibrationStore::with_gallery()
    }
}

impl fmt::Debug for CalibrationStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("CalibrationStore")
            .field("entries", &inner.entries.len())
            .field("tick", &inner.tick)
            .finish()
    }
}

impl CalibrationStore {
    /// An empty store: every estimate is its kernel's proven cycle bound
    /// and every [`Fidelity::Auto`](crate::Fidelity::Auto) request
    /// escalates until observations arrive.
    pub fn new() -> CalibrationStore {
        CalibrationStore {
            inner: Mutex::default(),
        }
    }

    /// A store seeded with the built-in gallery table: the ten paper
    /// codes, both variants, tuned and measured at the paper tiles on
    /// the deterministic cycle tier. Seed entries are clamped to
    /// [`CalibrationSource::Baked`] / [`BAKED_CONFIDENCE`] whatever the
    /// JSON says.
    ///
    /// # Panics
    ///
    /// Panics if the embedded seed fails to parse or names an unknown
    /// gallery code — a build defect, not a runtime condition.
    pub fn with_gallery() -> CalibrationStore {
        let store =
            CalibrationStore::from_json(GALLERY_JSON).expect("baked gallery calibration parses");
        {
            let mut inner = store.lock();
            for entry in inner.entries.values_mut() {
                entry.source = CalibrationSource::Baked;
                entry.confidence = entry.confidence.min(BAKED_CONFIDENCE);
                // The gallery was measured under the paper flow: default
                // options, "unroll iff beneficial" tuning. Tag the seed
                // accordingly so tuned default-option requests get the
                // baked confidence and anything else is off-context.
                entry.context = Some(execution_context(
                    &RunOptions::new(entry.variant),
                    &Tune::Auto,
                ));
            }
        }
        store
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Every update is one map insert, so a panic elsewhere while the
        // lock was held loses nothing.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn key(stencil: &Stencil, variant: Variant, cores: usize) -> CalKey {
        CalKey {
            stencil: stencil.fingerprint(),
            variant,
            cores,
        }
    }

    /// Registers (or replaces) a calibration for a stencil and variant,
    /// keyed by the stencil's structural fingerprint and the core count
    /// implied by `calibration.imbalance.len()`. The entry records no
    /// measurement extent or [execution context](execution_context), so
    /// it answers estimate requests everywhere but only at
    /// [`OFF_EXTENT_CONFIDENCE`] for
    /// [`Fidelity::Auto`](crate::Fidelity::Auto) routing. Non-finite
    /// rates are ignored.
    pub fn calibrate(&self, stencil: &Stencil, variant: Variant, calibration: Calibration) {
        if !calibration.is_finite() {
            return;
        }
        let cores = calibration.imbalance.len();
        self.upsert(
            CalibrationStore::key(stencil, variant, cores),
            stencil.name().to_string(),
            calibration,
            None,
            None,
            OBSERVED_CONFIDENCE,
            CalibrationSource::Observed,
        );
    }

    /// Feeds one cycle-tier measurement back into the store: the
    /// observation is reduced to per-interior-point rates and recorded at
    /// full [`OBSERVED_CONFIDENCE`] for `extent` under the request's
    /// [execution context](execution_context). Repeat observations
    /// replace the rates (latest wins — the simulator is deterministic,
    /// so same-spec repeats agree) and bump the entry's observation
    /// count and age tick. Degenerate observations (no interior points,
    /// empty imbalance) are ignored.
    pub fn observe(
        &self,
        stencil: &Stencil,
        variant: Variant,
        extent: Extent,
        context: u64,
        observation: &Observation,
    ) {
        if observation.interior_points == 0 || observation.imbalance.is_empty() {
            return;
        }
        let points = observation.interior_points as f64;
        let calibration = Calibration {
            cycles_per_point: observation.cycles as f64 / points,
            fpu_ops_per_point: observation.fpu_ops as f64 / points,
            flops_per_point: observation.flops as f64 / points,
            imbalance: observation.imbalance.clone(),
        };
        if !calibration.is_finite() {
            return;
        }
        let cores = observation.imbalance.len();
        self.upsert(
            CalibrationStore::key(stencil, variant, cores),
            stencil.name().to_string(),
            calibration,
            Some(extent),
            Some(context),
            OBSERVED_CONFIDENCE,
            CalibrationSource::Observed,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn upsert(
        &self,
        key: CalKey,
        name: String,
        calibration: Calibration,
        extent: Option<Extent>,
        context: Option<u64>,
        confidence: f64,
        source: CalibrationSource,
    ) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // An imported entry's count is any `u64`.
        let observations = inner
            .entries
            .get(&key)
            .map_or(0, |e| e.observations)
            .saturating_add(1);
        inner.entries.insert(
            key,
            CalibrationEntry {
                stencil: key.stencil,
                variant: key.variant,
                cores: key.cores,
                name,
                calibration,
                extent,
                context,
                confidence,
                observations,
                updated_tick: tick,
                source,
            },
        );
    }

    /// The calibrated per-point rates for a stencil, variant and cluster
    /// core count, if the store holds a matching entry.
    pub fn lookup(&self, stencil: &Stencil, variant: Variant, cores: usize) -> Option<Calibration> {
        let inner = self.lock();
        inner
            .entries
            .get(&CalibrationStore::key(stencil, variant, cores))
            .map(|e| e.calibration.clone())
    }

    /// A snapshot of the full entry for a stencil, variant and core
    /// count (metadata included).
    pub fn entry(
        &self,
        stencil: &Stencil,
        variant: Variant,
        cores: usize,
    ) -> Option<CalibrationEntry> {
        let inner = self.lock();
        inner
            .entries
            .get(&CalibrationStore::key(stencil, variant, cores))
            .cloned()
    }

    /// Whether the store holds a calibration for this stencil, variant
    /// and cluster core count.
    pub fn is_calibrated(&self, stencil: &Stencil, variant: Variant, cores: usize) -> bool {
        let inner = self.lock();
        inner
            .entries
            .contains_key(&CalibrationStore::key(stencil, variant, cores))
    }

    /// The cluster core counts the store holds calibrations for, for
    /// this stencil and variant (entries are per cluster shape).
    pub fn calibrated_core_counts(&self, stencil: &Stencil, variant: Variant) -> Vec<usize> {
        let fingerprint = stencil.fingerprint();
        let inner = self.lock();
        let mut cores: Vec<usize> = inner
            .entries
            .keys()
            .filter(|k| k.stencil == fingerprint && k.variant == variant)
            .map(|k| k.cores)
            .collect();
        cores.sort_unstable();
        cores
    }

    /// The expected relative accuracy of an analytic answer for this
    /// request: the entry's confidence when both the measured extent and
    /// the [execution context](execution_context) match the request,
    /// capped at [`OFF_EXTENT_CONFIDENCE`] otherwise, and `0.0` when no
    /// entry matches at all (the proven-bound answer carries no accuracy
    /// claim).
    pub fn confidence(
        &self,
        stencil: &Stencil,
        variant: Variant,
        cores: usize,
        extent: Extent,
        context: u64,
    ) -> f64 {
        let inner = self.lock();
        match inner
            .entries
            .get(&CalibrationStore::key(stencil, variant, cores))
        {
            None => 0.0,
            Some(entry) if entry.extent == Some(extent) && entry.context == Some(context) => {
                entry.confidence
            }
            Some(entry) => entry.confidence.min(OFF_EXTENT_CONFIDENCE),
        }
    }

    /// Whether an analytic answer for this request meets an
    /// [`Fidelity::Auto`](crate::Fidelity::Auto) accuracy budget: the
    /// expected relative error (`1 - confidence`) must not exceed the
    /// budget. This is the routing predicate a
    /// [`Session`](crate::Session) evaluates for every `Auto`
    /// submission.
    #[allow(clippy::too_many_arguments)]
    pub fn meets_budget(
        &self,
        stencil: &Stencil,
        variant: Variant,
        cores: usize,
        extent: Extent,
        context: u64,
        accuracy_budget: f64,
    ) -> bool {
        self.confidence(stencil, variant, cores, extent, context) >= 1.0 - accuracy_budget
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every entry, ordered by (name, variant, cores) —
    /// the order [`to_json`](CalibrationStore::to_json) exports in.
    pub fn entries(&self) -> Vec<CalibrationEntry> {
        let mut entries: Vec<CalibrationEntry> = {
            let inner = self.lock();
            inner.entries.values().cloned().collect()
        };
        entries.sort_by(|a, b| {
            (&a.name, a.variant as u8, a.cores).cmp(&(&b.name, b.variant as u8, b.cores))
        });
        entries
    }

    /// Merges another store into this one with **newest-confidence-wins**
    /// semantics: for every key held by `other`, this store adopts the
    /// other entry when it is strictly more confident, or equally
    /// confident but carrying more observations (the "newer" of two
    /// equally accurate histories). Ties — and in particular identical
    /// entries — keep this store's entry untouched, so the merge is
    /// idempotent (`a.merge(&a)` changes nothing, not even age ticks)
    /// and commutative on disjoint key sets. Returns how many entries
    /// were adopted.
    ///
    /// This is the calibration-gossip primitive: shards periodically
    /// export their stores, merge every peer's export, and re-import the
    /// result, so a full-confidence cycle-tier observation taken on one
    /// shard upgrades the analytic tier everywhere without ever
    /// overwriting a *better* local measurement.
    pub fn merge(&self, other: &CalibrationStore) -> usize {
        // Snapshot the other store before taking our own lock: concurrent
        // `a.merge(&b)` / `b.merge(&a)` never hold both locks at once.
        let theirs = {
            let inner = other.lock();
            inner.entries.values().cloned().collect::<Vec<_>>()
        };
        let mut inner = self.lock();
        let mut adopted = 0;
        for entry in theirs {
            let key = CalKey {
                stencil: entry.stencil,
                variant: entry.variant,
                cores: entry.cores,
            };
            let wins = match inner.entries.get(&key) {
                None => true,
                Some(ours) => {
                    entry.confidence > ours.confidence
                        || (entry.confidence == ours.confidence
                            && entry.observations > ours.observations)
                }
            };
            if wins {
                inner.tick += 1;
                let tick = inner.tick;
                inner.entries.insert(
                    key,
                    CalibrationEntry {
                        updated_tick: tick,
                        ..entry
                    },
                );
                adopted += 1;
            }
        }
        adopted
    }

    /// Serializes the store to JSON. Every `f64` is written in Rust's
    /// shortest round-trip decimal form, so
    /// [`from_json`](CalibrationStore::from_json) reproduces it
    /// bit-for-bit. The format is the same one the baked gallery seed
    /// ships in.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n \"version\": 1,\n \"entries\": [\n");
        let entries = self.entries();
        let last = entries.len().saturating_sub(1);
        for (i, e) in entries.into_iter().enumerate() {
            out.push_str("  ");
            let row = Row {
                name: Cow::Borrowed(&e.name),
                stencil: Some(DecStr(e.stencil)),
                variant: e.variant,
                cores: e.cores,
                extent: e.extent,
                context: e.context.map(DecStr),
                cycles_per_point: e.calibration.cycles_per_point,
                fpu_ops_per_point: e.calibration.fpu_ops_per_point,
                flops_per_point: e.calibration.flops_per_point,
                imbalance: e.calibration.imbalance,
                confidence: e.confidence,
                observations: e.observations,
                source: Cow::Owned(e.source.to_string()),
            };
            row.enc(&mut out);
            out.push_str(if i == last { "\n" } else { ",\n" });
        }
        out.push_str(" ]\n}\n");
        out
    }

    /// Parses a store from the JSON format [`to_json`](CalibrationStore::to_json)
    /// emits. Entries whose `name` resolves to a gallery code are
    /// re-keyed by that code's current structural fingerprint (so a
    /// document outlives a change to the code); other entries trust the
    /// serialized fingerprint, which — like the `"context"` tags and
    /// [`WorkloadSpec::fingerprint`](crate::WorkloadSpec::fingerprint) —
    /// is a stable key ([`saris_core::key`]): the same on every host,
    /// toolchain and build that declares the same fields. Imported entries
    /// are marked [`CalibrationSource::Imported`] unless they declare
    /// another source. A row may leave out `"extent"` and `"context"`
    /// (they read as `null`) and, under a gallery name, `"stencil"`; a
    /// rate may also come in the wire's `"0x…"` bit-string form.
    ///
    /// # Errors
    ///
    /// [`CodegenError::Calibration`] when the input is not valid JSON,
    /// declares a `"version"` other than `1`, misses required fields, or
    /// contains non-finite rates.
    pub fn from_json(json: &str) -> Result<CalibrationStore, CodegenError> {
        let mut inner = Inner::default();
        for (i, row) in dec_rows(json).map_err(cal)?.into_iter().enumerate() {
            let at = |msg: &str| cal_err(&format!("entry {i}: {msg}"));
            if row.cores == 0 {
                return Err(at("cores must be positive"));
            }
            let stencil = match (gallery::by_name(&row.name), row.stencil) {
                (Some(code), _) => code.fingerprint(),
                (None, Some(DecStr(fingerprint))) => fingerprint,
                (None, None) => return Err(at("missing \"stencil\"")),
            };
            let calibration = Calibration {
                cycles_per_point: row.cycles_per_point,
                fpu_ops_per_point: row.fpu_ops_per_point,
                flops_per_point: row.flops_per_point,
                imbalance: row.imbalance,
            };
            if !calibration.is_finite() {
                return Err(at("non-finite or empty calibration rates"));
            }
            if calibration.imbalance.len() != row.cores {
                return Err(at("imbalance length disagrees with cores"));
            }
            if !(0.0..=1.0).contains(&row.confidence) {
                return Err(at("confidence must be within 0..=1"));
            }
            inner.tick += 1;
            let tick = inner.tick;
            inner.entries.insert(
                CalKey {
                    stencil,
                    variant: row.variant,
                    cores: row.cores,
                },
                CalibrationEntry {
                    stencil,
                    variant: row.variant,
                    cores: row.cores,
                    name: row.name.into_owned(),
                    calibration,
                    extent: row.extent,
                    context: row.context.map(|DecStr(context)| context),
                    confidence: row.confidence,
                    observations: row.observations,
                    updated_tick: tick,
                    source: match &*row.source {
                        "baked" => CalibrationSource::Baked,
                        _ => CalibrationSource::Imported,
                    },
                },
            );
        }
        Ok(CalibrationStore {
            inner: Mutex::new(inner),
        })
    }
}

/// One entry as the document has it: a [`CalibrationEntry`] with its
/// rates inline, without its age tick.
struct Row<'a> {
    name: Cow<'a, str>,
    stencil: Option<DecStr>,
    variant: Variant,
    cores: usize,
    extent: Option<Extent>,
    context: Option<DecStr>,
    cycles_per_point: f64,
    fpu_ops_per_point: f64,
    flops_per_point: f64,
    imbalance: Vec<f64>,
    confidence: f64,
    observations: u64,
    source: Cow<'a, str>,
}

record! { Row<'_> {
    name, stencil, variant, cores, extent, context,
    cycles_per_point, fpu_ops_per_point, flops_per_point, imbalance,
    confidence, observations, source,
} }

/// The `"entries"` of a calibration document whose `"version"` is `1`
/// or absent; any other version is refused by name.
fn dec_rows(text: &str) -> Result<Vec<Row<'static>>, JsonError> {
    let mut reader = Reader::new(text);
    let r = &mut reader;
    let mut rows = None;
    r.begin_object("calibration document")?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "version" => match r.raw_value()? {
                "1" => {}
                other => {
                    return Err(json::error(&format!(
                        "calibration document version {other} is not supported \
                         (this build reads version 1)"
                    )))
                }
            },
            "entries" => rows = Some(Wire::dec(r, "entries")?),
            _ => r.skip_value()?,
        }
    }
    reader.finish()?;
    rows.ok_or_else(|| missing("calibration document", "entries"))
}

/// Maps a shared-JSON failure ([`crate::json`]) into this module's
/// error vocabulary: [`CodegenError::Calibration`].
fn cal(e: JsonError) -> CodegenError {
    cal_err(&e.reason)
}

/// A [`CodegenError::Calibration`] from a reason string.
fn cal_err(reason: &str) -> CodegenError {
    CodegenError::Calibration {
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Variant;

    fn sample_calibration() -> Calibration {
        Calibration {
            cycles_per_point: 6123.0 / 3844.0,
            fpu_ops_per_point: 5.0,
            flops_per_point: 5.0,
            imbalance: vec![1.01, 0.99, 1.0, 1.0, 1.0, 1.0, 0.98, 1.02],
        }
    }

    #[test]
    fn gallery_seed_covers_both_variants_of_every_code() {
        let store = CalibrationStore::with_gallery();
        assert_eq!(store.len(), 20);
        for name in gallery::NAMES {
            let stencil = gallery::by_name(name).unwrap();
            for variant in [Variant::Base, Variant::Saris] {
                let entry = store.entry(&stencil, variant, 8).unwrap_or_else(|| {
                    panic!("{name} {variant} lacks a baked calibration");
                });
                assert_eq!(entry.source, CalibrationSource::Baked);
                assert_eq!(entry.confidence, BAKED_CONFIDENCE);
                assert!(entry.extent.is_some(), "baked entries record their tile");
            }
        }
    }

    /// A fixed execution-context tag for store-level tests (any value
    /// works — the store only compares tags for equality).
    const CTX: u64 = 0x5a71;

    #[test]
    fn observe_records_per_point_rates_at_full_confidence() {
        let store = CalibrationStore::new();
        let stencil = gallery::jacobi_2d();
        let extent = Extent::new_2d(64, 64);
        store.observe(
            &stencil,
            Variant::Saris,
            extent,
            CTX,
            &Observation {
                cycles: 2985,
                fpu_ops: 19220,
                flops: 19220,
                interior_points: 3844,
                imbalance: vec![1.0; 8],
            },
        );
        let entry = store.entry(&stencil, Variant::Saris, 8).expect("observed");
        assert_eq!(entry.calibration.cycles_per_point, 2985.0 / 3844.0);
        assert_eq!(entry.confidence, OBSERVED_CONFIDENCE);
        assert_eq!(entry.observations, 1);
        assert_eq!(entry.source, CalibrationSource::Observed);
        assert_eq!(entry.context, Some(CTX));
        assert_eq!((entry.variant, entry.cores), (Variant::Saris, 8));
        assert_eq!(entry.stencil, stencil.fingerprint());
        // Confidence is full at the measured extent and context, capped
        // away from either, zero where nothing matches.
        assert_eq!(
            store.confidence(&stencil, Variant::Saris, 8, extent, CTX),
            1.0
        );
        assert_eq!(
            store.confidence(&stencil, Variant::Saris, 8, Extent::new_2d(32, 32), CTX),
            OFF_EXTENT_CONFIDENCE
        );
        assert_eq!(
            store.confidence(&stencil, Variant::Saris, 8, extent, CTX + 1),
            OFF_EXTENT_CONFIDENCE,
            "a different execution context must not be treated as exact"
        );
        assert_eq!(
            store.confidence(&stencil, Variant::Base, 8, extent, CTX),
            0.0
        );
        assert_eq!(
            store.confidence(&stencil, Variant::Saris, 4, extent, CTX),
            0.0
        );
        // A second observation replaces the rates and bumps the count.
        store.observe(
            &stencil,
            Variant::Saris,
            extent,
            CTX,
            &Observation {
                cycles: 3000,
                fpu_ops: 19220,
                flops: 19220,
                interior_points: 3844,
                imbalance: vec![1.0; 8],
            },
        );
        let entry = store.entry(&stencil, Variant::Saris, 8).expect("observed");
        assert_eq!(entry.calibration.cycles_per_point, 3000.0 / 3844.0);
        assert_eq!(entry.observations, 2);
    }

    #[test]
    fn meets_budget_thresholds_on_expected_error() {
        let store = CalibrationStore::with_gallery();
        let stencil = gallery::jacobi_2d();
        let paper = Extent::new_2d(64, 64);
        // The baked seed's context: tuned paper flow on default options.
        let ctx = execution_context(&RunOptions::new(Variant::Saris), &Tune::Auto);
        // Baked entries (confidence 0.95) satisfy a 5% budget at the
        // measured tile and context, but not off-tile, not off-context,
        // and not a 1% budget.
        assert!(store.meets_budget(&stencil, Variant::Saris, 8, paper, ctx, 0.05));
        assert!(!store.meets_budget(&stencil, Variant::Saris, 8, paper, ctx, 0.01));
        assert!(!store.meets_budget(
            &stencil,
            Variant::Saris,
            8,
            Extent::new_2d(48, 48),
            ctx,
            0.05
        ));
        let fixed_ctx = execution_context(&RunOptions::new(Variant::Saris), &Tune::Fixed);
        assert!(
            !store.meets_budget(&stencil, Variant::Saris, 8, paper, fixed_ctx, 0.05),
            "an untuned request must not borrow the tuned measurement as exact"
        );
        // An unknown stencil/core-count never meets a sub-1.0 budget.
        assert!(!store.meets_budget(&stencil, Variant::Saris, 4, paper, ctx, 0.5));
        assert!(store.meets_budget(&stencil, Variant::Saris, 4, paper, ctx, 1.0));
    }

    #[test]
    fn degenerate_observations_and_rates_are_ignored() {
        let store = CalibrationStore::new();
        let stencil = gallery::jacobi_2d();
        store.observe(
            &stencil,
            Variant::Saris,
            Extent::new_2d(64, 64),
            CTX,
            &Observation {
                cycles: 100,
                fpu_ops: 10,
                flops: 10,
                interior_points: 0,
                imbalance: vec![1.0; 8],
            },
        );
        store.calibrate(
            &stencil,
            Variant::Saris,
            Calibration {
                cycles_per_point: f64::NAN,
                fpu_ops_per_point: 5.0,
                flops_per_point: 5.0,
                imbalance: vec![1.0; 8],
            },
        );
        assert!(store.is_empty());
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let store = CalibrationStore::with_gallery();
        store.calibrate(&gallery::jacobi_2d(), Variant::Saris, sample_calibration());
        store.observe(
            &gallery::star3d2r(),
            Variant::Base,
            Extent::new_3d(16, 16, 16),
            CTX,
            &Observation {
                cycles: 7281,
                fpu_ops: 24192,
                flops: 43200,
                interior_points: 1728,
                imbalance: vec![1.000963, 0.999862, 1.0, 1.0, 1.0, 1.0, 1.0, 0.999862],
            },
        );
        let json = store.to_json();
        let copy = CalibrationStore::from_json(&json).expect("round-trip parses");
        assert_eq!(copy.len(), store.len());
        for entry in store.entries() {
            let stencil = gallery::by_name(&entry.name).expect("gallery entry");
            let variant = if copy
                .entry(&stencil, Variant::Base, entry.calibration.imbalance.len())
                .is_some_and(|e| e.calibration == entry.calibration)
            {
                Variant::Base
            } else {
                Variant::Saris
            };
            let restored = copy
                .entry(&stencil, variant, entry.calibration.imbalance.len())
                .expect("entry survives");
            // Bit-for-bit: rates, extent and confidence all survive.
            assert_eq!(restored.calibration, entry.calibration, "{}", entry.name);
            assert_eq!(restored.extent, entry.extent);
            assert_eq!(restored.confidence, entry.confidence);
            assert_eq!(restored.observations, entry.observations);
        }
        // Imports re-mark non-baked sources as "imported", so exports
        // are textually stable from the second round trip onwards.
        let second = copy.to_json();
        let again = CalibrationStore::from_json(&second).expect("parses");
        assert_eq!(again.to_json(), second);
    }

    #[test]
    fn merge_is_idempotent_and_higher_confidence_wins() {
        let store = CalibrationStore::with_gallery();
        let before = store.to_json();
        // Self-merge (via a parsed copy of the identical content after a
        // round trip through the export) adopts nothing: equal
        // confidence and observations keep the local entry.
        assert_eq!(store.merge(&store), 0);
        assert_eq!(store.to_json(), before, "idempotent merges leave no trace");

        // A full-confidence observation beats the baked seed...
        let other = CalibrationStore::new();
        let stencil = gallery::jacobi_2d();
        other.observe(
            &stencil,
            Variant::Saris,
            Extent::new_2d(24, 24),
            CTX,
            &Observation {
                cycles: 500,
                fpu_ops: 2420,
                flops: 2420,
                interior_points: 484,
                imbalance: vec![1.0; 8],
            },
        );
        assert_eq!(store.merge(&other), 1);
        let entry = store.entry(&stencil, Variant::Saris, 8).expect("merged");
        assert_eq!(entry.confidence, OBSERVED_CONFIDENCE);
        assert_eq!(entry.extent, Some(Extent::new_2d(24, 24)));
        // ...and the lower-confidence direction never degrades: merging
        // the baked seed back adopts nothing for this key.
        let reverse = CalibrationStore::with_gallery();
        store.merge(&reverse);
        let entry = store.entry(&stencil, Variant::Saris, 8).expect("kept");
        assert_eq!(
            entry.confidence, OBSERVED_CONFIDENCE,
            "a baked entry must not displace a full-confidence observation"
        );
    }

    #[test]
    fn merge_is_commutative_on_disjoint_keys() {
        let left = CalibrationStore::new();
        let right = CalibrationStore::new();
        left.calibrate(&gallery::jacobi_2d(), Variant::Saris, sample_calibration());
        right.calibrate(&gallery::star3d2r(), Variant::Base, sample_calibration());
        let a = CalibrationStore::new();
        a.merge(&left);
        a.merge(&right);
        let b = CalibrationStore::new();
        b.merge(&right);
        b.merge(&left);
        // Exports sort by (name, variant, cores), so textual equality is
        // order-independent content equality (modulo the age ticks the
        // export deliberately omits).
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn merge_ties_on_confidence_prefer_more_observations() {
        let seen_once = CalibrationStore::new();
        let stencil = gallery::jacobi_2d();
        let obs = Observation {
            cycles: 500,
            fpu_ops: 2420,
            flops: 2420,
            interior_points: 484,
            imbalance: vec![1.0; 8],
        };
        seen_once.observe(&stencil, Variant::Saris, Extent::new_2d(24, 24), CTX, &obs);
        let seen_twice = CalibrationStore::new();
        for _ in 0..2 {
            seen_twice.observe(&stencil, Variant::Saris, Extent::new_2d(32, 32), CTX, &obs);
        }
        // Equal confidence: the longer observation history wins...
        assert_eq!(seen_once.merge(&seen_twice), 1);
        let entry = seen_once
            .entry(&stencil, Variant::Saris, 8)
            .expect("merged");
        assert_eq!(entry.observations, 2);
        assert_eq!(entry.extent, Some(Extent::new_2d(32, 32)));
        // ...and the shorter one never displaces it.
        let shorter = CalibrationStore::new();
        shorter.observe(&stencil, Variant::Saris, Extent::new_2d(24, 24), CTX, &obs);
        assert_eq!(seen_once.merge(&shorter), 0);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for (doc, what) in [
            ("", "empty"),
            ("{", "truncated"),
            ("[]", "not an object"),
            ("{\"version\": 1}", "missing entries"),
            ("{\"version\": 1, \"entries\": [{}]}", "missing fields"),
            (
                "{\"version\": 1, \"entries\": [{\"name\": \"nope\", \"stencil\": \"x\", \
                 \"variant\": \"saris\", \"cores\": 8, \"extent\": null, \
                 \"cycles_per_point\": 1.0, \"fpu_ops_per_point\": 1.0, \
                 \"flops_per_point\": 1.0, \"imbalance\": [1.0], \"confidence\": 0.5, \
                 \"observations\": 1, \"source\": \"observed\"}]}",
                "bad fingerprint and imbalance length",
            ),
        ] {
            assert!(
                matches!(
                    CalibrationStore::from_json(doc),
                    Err(CodegenError::Calibration { .. })
                ),
                "{what} must be rejected"
            );
        }
    }

    #[test]
    fn an_imported_observation_count_cannot_overflow() {
        // A row any peer can send (`import_calibration`): full confidence,
        // so `merge` adopts it over the baked entry, and a count at the
        // top of its type, which the next observation increments.
        let baked = "\"confidence\": 0.95, \"observations\": 1,";
        let forged = "\"confidence\": 1.0, \"observations\": 18446744073709551615,";
        let rows: Vec<String> = CalibrationStore::with_gallery()
            .to_json()
            .lines()
            .map(|row| match row.contains("\"jacobi_2d\"") {
                true => row.replace(baked, forged),
                false => row.to_string(),
            })
            .collect();
        let incoming = CalibrationStore::from_json(&rows.join("\n")).expect("a valid document");
        let session = crate::Session::new();
        let store = session.calibration().expect("standard registry").clone();
        assert_eq!(store.merge(&incoming), 2, "both jacobi_2d variants");
        let spec = crate::Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(1)
            .fidelity(crate::Fidelity::Cycles)
            .freeze()
            .expect("freeze");
        session.submit(&spec).expect("the observation is recorded");
        assert_eq!(store.len(), 20, "the store still answers");
        let entry = store.entry(&gallery::jacobi_2d(), Variant::Saris, 8);
        let entry = entry.expect("observed");
        assert_eq!(entry.observations, u64::MAX);
        assert_eq!(entry.source, CalibrationSource::Observed);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_take_the_store_down() {
        let store = CalibrationStore::with_gallery();
        let poisoner = std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = store.lock();
                panic!("while holding the calibration store lock");
            });
            holder.join()
        });
        assert!(poisoner.is_err() && store.inner.is_poisoned());
        let stencil = gallery::jacobi_2d();
        assert!(store.lookup(&stencil, Variant::Saris, 8).is_some());
        store.observe(
            &stencil,
            Variant::Saris,
            Extent::new_2d(24, 24),
            CTX,
            &Observation {
                cycles: 500,
                fpu_ops: 2420,
                flops: 2420,
                interior_points: 484,
                imbalance: vec![1.0; 8],
            },
        );
        let entry = store.entry(&stencil, Variant::Saris, 8).expect("observed");
        assert_eq!(entry.extent, Some(Extent::new_2d(24, 24)));
        let copy = CalibrationStore::from_json(&store.to_json()).expect("exports");
        assert_eq!(copy.len(), store.len());
    }

    #[test]
    fn documents_of_another_version_are_refused_by_name() {
        let document = CalibrationStore::with_gallery().to_json();
        let unversioned = document.replacen("\"version\": 1,", "", 1);
        assert_ne!(unversioned, document);
        let store = CalibrationStore::from_json(&unversioned).expect("absent reads as 1");
        assert_eq!(store.len(), 20);
        for version in ["2", "\"x\"", "null", "1.0"] {
            let doc = document.replacen("\"version\": 1", &format!("\"version\": {version}"), 1);
            let Err(CodegenError::Calibration { reason }) = CalibrationStore::from_json(&doc)
            else {
                panic!("version {version} was not refused");
            };
            assert!(reason.contains(&format!("version {version} ")), "{reason}");
        }
    }

    #[test]
    fn imported_non_gallery_entries_keep_their_fingerprint() {
        let doc = "{\"version\": 1, \"entries\": [{\"name\": \"custom\", \
                   \"stencil\": \"12345\", \"variant\": \"saris\", \"cores\": 8, \
                   \"extent\": [64, 64, 1], \"cycles_per_point\": 1.5, \
                   \"fpu_ops_per_point\": 5.0, \"flops_per_point\": 5.0, \
                   \"imbalance\": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], \
                   \"confidence\": 1.0, \"observations\": 3, \"source\": \"observed\"}]}";
        let store = CalibrationStore::from_json(doc).expect("parses");
        assert_eq!(store.len(), 1);
        let entry = &store.entries()[0];
        assert_eq!(entry.name, "custom");
        assert_eq!(entry.source, CalibrationSource::Imported);
        assert_eq!(entry.observations, 3);
    }
}
