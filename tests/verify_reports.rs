//! Pinned verifier output: a digest of every [`ClusterReport`] field —
//! each `Diagnostic` rendered, in order, and every `StaticBound` /
//! `CoreBound` component — over gallery × {base, saris} ×
//! `DEFAULT_CANDIDATES` at paper tiles, one concurrent-DMA row, and a set
//! of corrupted kernels (every `Mutation::ALL` mutant of a base and a
//! saris kernel, corrupted and missing index images).
//!
//! `tests/static_verify.rs` checks properties (clean sweep, mutants
//! caught, bound below measurement); a rewrite of the interpreter that
//! reports a *different* first offending address, reorders findings or
//! shifts a bound component by one passes it. The constants below were
//! recorded from the verifier while it still enumerated every stream
//! element and say nothing moved. The digest walks the report field by
//! field (exhaustive destructuring, so a new field fails to compile here
//! until it is hashed) instead of going through `Debug`, whose text is
//! not a contract.

use saris::codegen::{verify_kernel, CompiledKernel};
use saris::prelude::*;
use saris::verify::{mutate, ClusterReport, CoreBound, Diagnostic, Mutation};
use saris_bench::paper_tile;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    fn report(&mut self, r: &ClusterReport) {
        let ClusterReport { diags, bound } = r;
        let StaticBound {
            per_core,
            cluster_bank_bound,
            cycles,
            flops,
        } = bound;
        self.word(diags.len() as u64);
        for d in diags {
            // The structured fields and the rendered line: the line is
            // what users read, the fields are what the session gate acts on.
            let Diagnostic { core, at, kind } = d;
            self.word(*core as u64);
            self.word(at.map_or(u64::MAX, |at| at as u64));
            self.word(u64::from(kind.severity() == saris::verify::Severity::Error));
            self.text(&d.to_string());
        }
        for w in [per_core.len() as u64, *cluster_bank_bound, *cycles, *flops] {
            self.word(w);
        }
        for core in per_core {
            let CoreBound {
                issue_cycles,
                fp_issue,
                bank_bound,
                flops,
            } = core;
            for w in [*issue_cycles, *fp_issue, *bank_bound, *flops] {
                self.word(w);
            }
        }
    }
}

/// A width the code generator refuses for this code (register pressure,
/// FREP body too large) — skipped, as the tuner skips it.
fn refused(e: &CodegenError) -> bool {
    matches!(
        e,
        CodegenError::RegisterPressure { .. } | CodegenError::FrepBodyTooLarge { .. }
    )
}

/// `(feasible widths, findings, digest)` of one gallery code in one
/// variant over `DEFAULT_CANDIDATES` at its paper tile.
fn row(stencil: &Stencil, variant: Variant, dma: bool) -> (u64, u64, u64) {
    let mut digest = Digest::new();
    let (mut kernels, mut findings) = (0, 0);
    for unroll in DEFAULT_CANDIDATES {
        let mut options = RunOptions::new(variant).with_unroll(unroll);
        if dma {
            options = options.with_concurrent_dma();
        }
        let kernel = match compile(stencil, paper_tile(stencil), &options) {
            Ok(kernel) => kernel,
            Err(e) if refused(&e) => continue,
            Err(e) => panic!("{} {variant} u{unroll}: {e}", stencil.name()),
        };
        let report = verify_kernel(stencil, &kernel, &options);
        kernels += 1;
        findings += report.diags.len() as u64;
        digest.word(unroll as u64);
        digest.report(&report);
    }
    (kernels, findings, digest.0)
}

/// Recorded from the element-walking interpreter (the parent of the
/// descriptor-proof rewrite), then re-recorded once when the in-order
/// `fp_issue` component replaced `fpu_cycles` and `latency_chain`: the
/// findings did not move, only the bound components. Must never change
/// in a host-speed PR.
const PINNED: [(&str, Variant, u64, u64, u64); 20] = [
    ("jacobi_2d", Variant::Base, 3, 0, 0x4af6a5c16a4d19bd),
    ("jacobi_2d", Variant::Saris, 3, 0, 0x72d84c04e5e3394e),
    ("j2d5pt", Variant::Base, 3, 0, 0xce827284f56a2c26),
    ("j2d5pt", Variant::Saris, 3, 0, 0x93912f75effbfb3e),
    ("box2d1r", Variant::Base, 3, 0, 0x88a1b09ad7cd825b),
    ("box2d1r", Variant::Saris, 3, 0, 0x6ceb46995284628b),
    ("j2d9pt", Variant::Base, 3, 0, 0x278ed299695e96f5),
    ("j2d9pt", Variant::Saris, 3, 0, 0x32b53280d7e2d829),
    ("j2d9pt_gol", Variant::Base, 3, 0, 0x8d99c7bd1e0b1b94),
    ("j2d9pt_gol", Variant::Saris, 3, 0, 0xbc0a75537e08d7c9),
    ("star2d3r", Variant::Base, 3, 0, 0xa4e79fa5d5f0864b),
    ("star2d3r", Variant::Saris, 3, 0, 0x5d2b0a0dc116e70c),
    ("star3d2r", Variant::Base, 3, 0, 0xcdd4cf19aff3b33e),
    ("star3d2r", Variant::Saris, 3, 0, 0x12b265444ed8ce31),
    ("ac_iso_cd", Variant::Base, 3, 0, 0xd31e2c91a66e006d),
    ("ac_iso_cd", Variant::Saris, 3, 0, 0xa5487a59a3d247d6),
    ("box3d1r", Variant::Base, 1, 0, 0xa042efdb92b4914f),
    ("box3d1r", Variant::Saris, 2, 0, 0x6c1f384b70c63017),
    ("j3d27pt", Variant::Base, 1, 0, 0xb8a335e712bbbb70),
    ("j3d27pt", Variant::Saris, 2, 0, 0x0bf514605d707de1),
];

/// `jacobi_2d` saris with `concurrent_dma`: the `dma_writes` spans are in
/// the map, so every write job is checked against them. No job meets
/// one, so the row equals `jacobi_2d` saris above.
const PINNED_DMA: (u64, u64, u64) = (3, 0, 0x72d84c04e5e3394e);

#[test]
fn gallery_report_digests_are_pinned() {
    let mut got = Vec::new();
    for stencil in gallery::all() {
        for variant in [Variant::Base, Variant::Saris] {
            let (kernels, findings, digest) = row(&stencil, variant, false);
            got.push((
                stencil.name().to_string(),
                variant,
                kernels,
                findings,
                digest,
            ));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, variant, kernels, findings, digest)| {
            format!(
                "    (\"{name}\", Variant::{variant:?}, {kernels}, {findings}, {digest:#018x}),\n"
            )
        })
        .collect();
    assert_eq!(got.len(), PINNED.len(), "gallery changed:\n{table}");
    for ((name, variant, kernels, findings, digest), pinned) in got.iter().zip(PINNED) {
        assert!(
            (name.as_str(), *variant, *kernels, *findings, *digest) == pinned,
            "{name} {variant}: got ({kernels}, {findings}, {digest:#018x}), pinned {pinned:x?}; \
             full table as measured:\n{table}"
        );
    }
    let dma = row(&gallery::jacobi_2d(), Variant::Saris, true);
    assert_eq!(dma, PINNED_DMA, "concurrent_dma row: got {dma:#x?}");
}

/// Which cores of a kernel a corruption is applied to.
#[derive(Debug, Clone, Copy)]
enum Cores {
    First,
    All,
}

/// `kernel` with `mutation` applied to the chosen cores, or `None` where
/// the program has no site for it (base kernels configure no stream).
fn mutant(kernel: &CompiledKernel, mutation: Mutation, cores: Cores) -> Option<CompiledKernel> {
    let mut broken = kernel.clone();
    let n = match cores {
        Cores::First => 1,
        Cores::All => broken.cores.len(),
    };
    for core in &mut broken.cores[..n] {
        core.program = mutate(&core.program, mutation)?;
    }
    Some(broken)
}

/// `(findings, error findings, digest)` over every corruption of one
/// kernel: each `Mutation::ALL` class on core 0 and on all cores; for
/// kernels with index arrays also half of one index array overwritten
/// with all-ones (the walk must stop at the same first address) and all
/// install images dropped (every indirect job unresolved, once).
fn corrupted(stencil: &Stencil, variant: Variant) -> (u64, u64, u64) {
    // With the DMA spans in the map, so the mutants' write jobs take the
    // hazard check as well.
    let options = RunOptions::new(variant).with_concurrent_dma();
    let kernel = compile(stencil, paper_tile(stencil), &options).expect("default width compiles");
    let mut digest = Digest::new();
    let (mut findings, mut errors) = (0, 0);
    let mut take = |digest: &mut Digest, broken: Option<CompiledKernel>| match broken {
        None => digest.word(u64::MAX),
        Some(broken) => {
            let report = verify_kernel(stencil, &broken, &options);
            findings += report.diags.len() as u64;
            errors += report.errors().count() as u64;
            digest.report(&report);
        }
    };
    for mutation in Mutation::ALL {
        for cores in [Cores::First, Cores::All] {
            take(&mut digest, mutant(&kernel, mutation, cores));
        }
    }
    if let Some(first_index) = kernel.map.index.iter().flatten().next() {
        // The second half of every core's replica, whatever the width:
        // 0xffff << 3 leaves TCDM, 0xff << 3 lands 2 KiB further on.
        let mut escaping = kernel.clone();
        let bases: Vec<u64> = (0..kernel.cores.len())
            .map(|c| first_index.base_for(c))
            .collect();
        for (base, bytes) in &mut escaping.install {
            if bases.contains(base) {
                let half = bytes.len() / 2;
                bytes[half..].fill(0xff);
            }
        }
        take(&mut digest, Some(escaping));
        let mut imageless = kernel.clone();
        imageless.install.clear();
        take(&mut digest, Some(imageless));
    }
    (findings, errors, digest.0)
}

/// Recorded with the gallery table above.
const PINNED_CORRUPTED: [(&str, Variant, u64, u64, u64); 4] = [
    ("j2d5pt", Variant::Base, 18, 18, 0xe74a9e24bd7cebe3),
    ("j2d5pt", Variant::Saris, 7724, 36, 0x39c2403df56e9bd0),
    ("star3d2r", Variant::Base, 18, 18, 0x46a1875ee58b138c),
    ("star3d2r", Variant::Saris, 5211, 1755, 0x11fc4e97ea316648),
];

#[test]
fn corrupted_kernel_digests_are_pinned() {
    let mut got = Vec::new();
    for stencil in [gallery::j2d5pt(), gallery::star3d2r()] {
        for variant in [Variant::Base, Variant::Saris] {
            let (findings, errors, digest) = corrupted(&stencil, variant);
            got.push((
                stencil.name().to_string(),
                variant,
                findings,
                errors,
                digest,
            ));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, variant, findings, errors, digest)| {
            format!(
                "    (\"{name}\", Variant::{variant:?}, {findings}, {errors}, {digest:#018x}),\n"
            )
        })
        .collect();
    for ((name, variant, findings, errors, digest), pinned) in got.iter().zip(PINNED_CORRUPTED) {
        assert!(
            (name.as_str(), *variant, *findings, *errors, *digest) == pinned,
            "{name} {variant}: got ({findings}, {errors}, {digest:#018x}), pinned {pinned:x?}; \
             full table as measured:\n{table}"
        );
    }
}
