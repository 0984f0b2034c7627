//! # saris-verify — static kernel verification and cost lower bounds
//!
//! Stream-register kernels fail *silently*: a misconfigured SSR stride or
//! bound scatters writes across TCDM without any trap, and a broken loop
//! bound hangs the cluster. This crate proves the absence of those
//! failure classes for a compiled [`Program`] **without executing a
//! simulator cycle**, by:
//!
//! 1. **CFG recovery** ([`Cfg`]) — basic blocks, reachability, and a
//!    structural every-path-reaches-`halt` check;
//! 2. **bounded concrete interpretation** (internal `interp` module) — SARIS
//!    kernels are closed programs, so an `Uninit | Known | Unknown`
//!    lattice resolves every pointer and loop bound: def-use violations,
//!    stream setup/arm protocol misuse, and the legality of every stream
//!    job against the kernel's [`MemoryMap`]. A job is proven *from its
//!    descriptor* where that is exact: an affine job's address hull
//!    (strides × bounds) or an indirect job's (launch base + the smallest
//!    and largest offset of its index array, decoded once per core) lying
//!    inside one granted region, clear of concurrent DMA writes, settles
//!    every element at once, and the per-bank access counts follow from
//!    the strides / a per-array bank histogram rotated by the base.
//!    Whenever the hull cannot decide — it straddles regions, meets a DMA
//!    span, leaves TCDM, regions overlap, no install image covers the
//!    index array — the job is enumerated element by element instead, so
//!    the first offending address is reported either way;
//! 3. **static cost bounds** ([`CoreBound`]) — integer issue cycles, the
//!    in-order FP issue schedule, and TCDM bank pressure combine into a
//!    [`StaticBound`] that provably lower-bounds the simulated cycle
//!    count, which serving layers answer uncalibrated analytic requests
//!    with. It stays a lower bound under the descriptor proofs: a
//!    proven job contributes exactly the accesses its elements make (the
//!    same counts enumeration gives), and wherever the analysis loses
//!    precision it counts less, never more.
//!
//! [`mutate()`] provides deterministic kernel corruptions (stride swaps,
//! dropped bounds, retargeted branches, removed `halt`s) used to
//! negative-test that each failure class is actually caught.
//!
//! # Examples
//!
//! ```
//! use saris_isa::{Instr, IntReg, ProgramBuilder};
//! use saris_verify::{verify_program, MemoryMap};
//! use snitch_sim::ClusterConfig;
//!
//! let mut b = ProgramBuilder::new();
//! b.li(IntReg::T0, 4);
//! let head = b.bind_here();
//! b.addi(IntReg::T0, IntReg::T0, -1);
//! b.bne(IntReg::T0, IntReg::ZERO, head);
//! b.push(Instr::Halt);
//! let program = b.finish().unwrap();
//!
//! let report = verify_program(&program, &MemoryMap::default(), &ClusterConfig::snitch(), 0);
//! assert!(report.is_clean());
//! assert!(report.bound.cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod cfg;
pub mod diag;
mod interp;
pub mod memmap;
pub mod mutate;

pub use bound::{CoreBound, StaticBound};
pub use cfg::Cfg;
pub use diag::{DiagKind, Diagnostic, Severity};
pub use memmap::{MemoryMap, Region};
pub use mutate::{mutate, Mutation};

use saris_isa::Program;
use snitch_sim::ClusterConfig;

/// The verifier's verdict on one core's program.
#[derive(Debug, Clone)]
pub struct CoreReport {
    /// All findings, in discovery order.
    pub diags: Vec<Diagnostic>,
    /// Whether interpretation reached `halt`.
    pub halted: bool,
    /// This core's cost lower-bound components.
    pub bound: CoreBound,
    /// This core's per-bank TCDM access histogram.
    pub bank_hist: Vec<u64>,
}

impl CoreReport {
    /// Whether no finding at all was produced.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether at least one error-severity finding was produced.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(Diagnostic::is_error)
    }
}

/// The verifier's verdict on a whole cluster's worth of programs.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Findings across all cores.
    pub diags: Vec<Diagnostic>,
    /// The combined cluster cost lower bound.
    pub bound: StaticBound,
}

impl ClusterReport {
    /// Whether no finding at all was produced.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether at least one error-severity finding was produced.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(Diagnostic::is_error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.is_error())
    }
}

/// The one path every program takes: structural validation
/// (`saris_isa::program::validate`), CFG reachability/termination checks,
/// then the interpreter. Structural failures short-circuit — the findings
/// so far come back with no analysis.
fn analyze(
    program: &Program,
    map: &MemoryMap,
    cluster: &ClusterConfig,
    core: usize,
) -> (Vec<Diagnostic>, Option<interp::CoreAnalysis>) {
    if let Err(e) = saris_isa::program::validate(program) {
        let malformed = Diagnostic {
            core,
            at: None,
            kind: DiagKind::Malformed {
                reason: e.to_string(),
            },
        };
        return (vec![malformed], None);
    }
    let mut diags = Cfg::build(program).diagnostics(core);
    let structurally_trapped = diags
        .iter()
        .any(|d| matches!(d.kind, DiagKind::NonTermination { .. }));
    if structurally_trapped {
        return (diags, None);
    }
    let mut analysis = interp::interpret(program, map, cluster, core);
    diags.append(&mut analysis.diags);
    (diags, Some(analysis))
}

/// Statically verifies one core's `program` against its memory grants.
///
/// Runs, in order: structural validation (`saris_isa::program::validate`),
/// CFG reachability/termination checks, and the bounded concrete
/// interpreter (stream legality, def-use, cost accounting). Structural
/// failures short-circuit: a malformed program is reported without
/// attempting interpretation.
pub fn verify_program(
    program: &Program,
    map: &MemoryMap,
    cluster: &ClusterConfig,
    core: usize,
) -> CoreReport {
    match analyze(program, map, cluster, core) {
        (diags, Some(analysis)) => CoreReport {
            diags,
            halted: analysis.halted,
            bound: CoreBound::of(&analysis),
            bank_hist: analysis.bank_hist,
        },
        (diags, None) => CoreReport {
            diags,
            halted: false,
            bound: CoreBound::default(),
            bank_hist: vec![0; cluster.tcdm_banks],
        },
    }
}

/// Statically verifies every core of a cluster and combines the bounds.
///
/// `cores` pairs each core's program with its memory grants (cores may
/// share a program but typically have per-core layouts). Each core goes
/// through exactly what [`verify_program`] runs; a core that fails
/// structurally contributes its findings and no bound.
pub fn verify_cluster(cores: &[(&Program, &MemoryMap)], cluster: &ClusterConfig) -> ClusterReport {
    let mut diags = Vec::new();
    let mut analyses = Vec::with_capacity(cores.len());
    for (core, (program, map)) in cores.iter().enumerate() {
        let (found, analysis) = analyze(program, map, cluster, core);
        diags.extend(found);
        analyses.extend(analysis);
    }
    ClusterReport {
        diags,
        bound: StaticBound::combine(&analyses),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_isa::{AffineCfg, Instr, IntReg, ProgramBuilder, SsrCfg, SsrId, SsrSet, StreamDir};
    use snitch_sim::TCDM_BASE;

    fn arena_map() -> MemoryMap<'static> {
        let mut m = MemoryMap::default();
        m.grant("in", TCDM_BASE, 4096, false);
        m.grant("out", TCDM_BASE + 4096, 4096, true);
        m
    }

    fn streaming_loop() -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Instr::SsrEnable);
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr2,
            // Mirrors the SARIS store shape: a small window-step stride
            // with a large bound, a large plane stride with a small bound
            // (so a stride swap provably escapes the output slot).
            cfg: Box::new(SsrCfg::Affine(AffineCfg {
                dir: StreamDir::Write,
                base: TCDM_BASE + 4096,
                dims: 3,
                strides: [8, 32, 512, 0],
                bounds: [4, 16, 2, 1],
            })),
        });
        b.push(Instr::SsrCommit {
            ssrs: SsrSet::of(SsrId::Ssr2),
        });
        b.li(IntReg::T0, 4);
        let head = b.bind_here();
        b.addi(IntReg::T0, IntReg::T0, -1);
        b.bne(IntReg::T0, IntReg::ZERO, head);
        b.push(Instr::SsrDisable);
        b.push(Instr::Halt);
        b.finish().unwrap()
    }

    #[test]
    fn clean_program_verifies_clean_with_positive_bound() {
        let p = streaming_loop();
        let map = arena_map();
        let report = verify_program(&p, &map, &ClusterConfig::snitch(), 0);
        assert!(report.is_clean(), "{:?}", report.diags);
        assert!(report.halted);
        assert!(report.bound.cycles() > 0);
        assert_eq!(report.bank_hist.iter().sum::<u64>(), 128);
    }

    #[test]
    fn mutations_are_each_caught_with_errors() {
        let p = streaming_loop();
        let map = arena_map();
        for m in Mutation::ALL {
            let mutant = mutate(&p, m).unwrap_or_else(|| panic!("{m} has no site"));
            let report = verify_program(&mutant, &map, &ClusterConfig::snitch(), 0);
            assert!(
                report.has_errors(),
                "mutation {m} escaped: {:?}",
                report.diags
            );
        }
    }

    #[test]
    fn cluster_report_aggregates_cores_and_bounds() {
        let p = streaming_loop();
        let map = arena_map();
        let cores = vec![(&p, &map), (&p, &map)];
        let report = verify_cluster(&cores, &ClusterConfig::snitch());
        assert!(report.is_clean(), "{:?}", report.diags);
        assert_eq!(report.bound.per_core.len(), 2);
        // Both cores hammer the same banks: cluster bank pressure doubles.
        assert_eq!(
            report.bound.cluster_bank_bound,
            2 * report.bound.per_core[0].bank_bound
        );
        assert!(report.bound.cycles >= report.bound.per_core[0].cycles());
    }

    #[test]
    fn malformed_program_short_circuits() {
        let p = Program::from_raw_instrs(vec![Instr::Nop]);
        let report = verify_program(&p, &arena_map(), &ClusterConfig::snitch(), 0);
        assert!(report.has_errors());
        assert!(matches!(report.diags[0].kind, DiagKind::Malformed { .. }));
    }
}
