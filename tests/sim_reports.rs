//! Pinned simulator output: a digest of every [`RunReport`] field and
//! every output-grid bit over gallery × {base, saris} ×
//! `DEFAULT_CANDIDATES` × {paper tile, off-tile} × {no DMA, concurrent
//! DMA}.
//!
//! `tests/fast_forward.rs` proves the fast-forwarding and the stepped
//! engine agree with *each other*; a rewrite that moves both the same way
//! passes it. The constants below were recorded from the simulator before
//! its per-unit fast-forward rewrite and say the numbers did not move at
//! all. The digest walks the report field by field (exhaustive
//! destructuring, so a new field fails to compile here until it is
//! hashed) instead of going through `Debug`, whose text is not a
//! contract.
//!
//! Every run is also repeated with `fast_forward = false` and compared
//! with `assert_eq!` on the whole report, over the full matrix instead of
//! the single tile of `tests/fast_forward.rs`.

use saris::prelude::*;
use snitch_sim::core::{IntStalls, IntStats};
use snitch_sim::dma::DmaStats;
use snitch_sim::fpu::{FpuStalls, FpuStats};
use snitch_sim::ssr::StreamerStats;
use snitch_sim::CoreReport;

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

    fn report(&mut self, r: &RunReport) {
        let RunReport {
            cycles,
            cycles_fast_forwarded,
            cores,
            tcdm_accesses,
            tcdm_conflicts,
            icache_hits,
            icache_misses,
            dma:
                DmaStats {
                    bytes,
                    busy_cycles,
                    descriptors,
                    latency_cycles,
                },
            freq_hz,
        } = r;
        for w in [
            *cycles,
            *cycles_fast_forwarded,
            cores.len() as u64,
            *tcdm_accesses,
            *tcdm_conflicts,
            *icache_hits,
            *icache_misses,
            *bytes,
            *busy_cycles,
            *descriptors,
            *latency_cycles,
            freq_hz.to_bits(),
        ] {
            self.word(w);
        }
        for core in cores {
            self.core(core);
        }
    }

    fn core(&mut self, c: &CoreReport) {
        let CoreReport {
            halted_at,
            int_stats:
                IntStats {
                    retired: int_retired,
                    stalls:
                        IntStalls {
                            offload_full,
                            launch_full,
                            lsu,
                            icache,
                            branch,
                            drain,
                            multi_issue,
                        },
                },
            fpu:
                FpuStats {
                    retired,
                    offloaded,
                    arith,
                    flops,
                    loads,
                    stores,
                    stream_pops,
                    stream_pushes,
                    stalls:
                        FpuStalls {
                            dependency,
                            stream_empty,
                            stream_full,
                            lsu_busy,
                            idle,
                        },
                },
            streamers,
            tcdm_wait_cycles,
        } = c;
        for w in [
            *halted_at,
            *int_retired,
            *offload_full,
            *launch_full,
            *lsu,
            *icache,
            *branch,
            *drain,
            *multi_issue,
            *retired,
            *offloaded,
            *arith,
            *flops,
            *loads,
            *stores,
            *stream_pops,
            *stream_pushes,
            *dependency,
            *stream_empty,
            *stream_full,
            *lsu_busy,
            *idle,
            *tcdm_wait_cycles,
        ] {
            self.word(w);
        }
        for s in streamers {
            let StreamerStats {
                elems,
                idx_fetches,
                jobs,
                idle_full_cycles,
            } = s;
            for w in [*elems, *idx_fetches, *jobs, *idle_full_cycles] {
                self.word(w);
            }
        }
    }

    fn grid(&mut self, g: &Grid) {
        self.word(g.as_slice().len() as u64);
        for v in g.as_slice() {
            self.word(v.to_bits());
        }
    }
}

fn tiles(stencil: &Stencil) -> [Extent; 2] {
    match stencil.space() {
        Space::Dim2 => [Extent::new_2d(64, 64), Extent::new_2d(24, 24)],
        Space::Dim3 => [Extent::cube(Space::Dim3, 16), Extent::cube(Space::Dim3, 10)],
    }
}

fn spec(
    stencil: &Stencil,
    variant: Variant,
    unroll: usize,
    tile: Extent,
    dma: bool,
    ff: bool,
) -> WorkloadSpec {
    let mut opts = RunOptions::new(variant).with_unroll(unroll);
    opts.cluster.fast_forward = ff;
    if dma {
        opts = opts.with_concurrent_dma();
    }
    Workload::new(stencil.clone())
        .extent(tile)
        .input_seed(7)
        .options(opts)
        .freeze()
        .expect("valid workload")
}

/// A width the code generator refuses for this code (register pressure,
/// FREP body too large) — skipped, as the tuner skips it.
fn refused(e: &CodegenError) -> bool {
    matches!(
        e,
        CodegenError::RegisterPressure { .. } | CodegenError::FrepBodyTooLarge { .. }
    )
}

/// `(feasible runs, digest)` of one gallery code in one variant over
/// unrolls × tiles × DMA, in that nesting order.
fn row(session: &Session, stepped: &Session, stencil: &Stencil, variant: Variant) -> (u64, u64) {
    let mut digest = Digest::new();
    let mut runs = 0;
    for unroll in DEFAULT_CANDIDATES {
        for tile in tiles(stencil) {
            for dma in [false, true] {
                let name = format!("{} {variant} u{unroll} {tile:?} dma={dma}", stencil.name());
                let fast = match session.submit(&spec(stencil, variant, unroll, tile, dma, true)) {
                    Ok(outcome) => outcome,
                    Err(e) if refused(&e) => continue,
                    Err(e) => panic!("{name}: {e}"),
                };
                let reference = stepped
                    .submit(&spec(stencil, variant, unroll, tile, dma, false))
                    .unwrap_or_else(|e| panic!("{name} stepped: {e}"));
                assert_eq!(fast.reports.len(), 1, "{name}");
                assert_eq!(reference.reports.len(), 1, "{name}");
                assert_eq!(reference.reports[0].cycles_fast_forwarded, 0, "{name}");
                let mut scrubbed = fast.reports[0].clone();
                scrubbed.cycles_fast_forwarded = 0;
                assert_eq!(scrubbed, reference.reports[0], "{name}: stepped differs");
                assert_eq!(fast.grids.len(), reference.grids.len(), "{name}");
                runs += 1;
                digest.report(&fast.reports[0]);
                for (g, r) in fast.grids.iter().zip(&reference.grids) {
                    assert!(
                        g.as_slice()
                            .iter()
                            .zip(r.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{name}: stepped output bits differ"
                    );
                    digest.grid(g);
                }
            }
        }
    }
    (runs, digest.0)
}

/// Recorded from the simulator as of the parent of the per-unit
/// fast-forward rewrite; must never change in a host-speed PR.
const PINNED: [(&str, Variant, u64, u64); 20] = [
    ("jacobi_2d", Variant::Base, 12, 0xe9127f7a788eb83d),
    ("jacobi_2d", Variant::Saris, 12, 0x1575372eea5ef008),
    ("j2d5pt", Variant::Base, 12, 0x70aa47207ea44095),
    ("j2d5pt", Variant::Saris, 12, 0x04649d33e1258ae6),
    ("box2d1r", Variant::Base, 12, 0x3598b8e62c409117),
    ("box2d1r", Variant::Saris, 12, 0x97a71dab207422a4),
    ("j2d9pt", Variant::Base, 12, 0xc9ef20edd2bfed74),
    ("j2d9pt", Variant::Saris, 12, 0x8f755f1ab354ae2b),
    ("j2d9pt_gol", Variant::Base, 12, 0xba309bfa5fc08efc),
    ("j2d9pt_gol", Variant::Saris, 12, 0x58475897abaf9871),
    ("star2d3r", Variant::Base, 12, 0xbba01cac848eff3b),
    ("star2d3r", Variant::Saris, 12, 0xa9f0a75588e5e70f),
    ("star3d2r", Variant::Base, 12, 0x8f17a869c6925047),
    ("star3d2r", Variant::Saris, 12, 0x7e71c62e7dfd1e9a),
    ("ac_iso_cd", Variant::Base, 12, 0x4659e0dfeb854f05),
    ("ac_iso_cd", Variant::Saris, 12, 0x271450598eeefeb8),
    ("box3d1r", Variant::Base, 4, 0x257f66c87f13ab3e),
    ("box3d1r", Variant::Saris, 8, 0xc3d138dc19a6b4bb),
    ("j3d27pt", Variant::Base, 4, 0x471cba3ed607b7f3),
    ("j3d27pt", Variant::Saris, 8, 0x0b239e456e1b1e96),
];

#[test]
fn gallery_report_digests_are_pinned() {
    let session = Session::new();
    let stepped = Session::new();
    let mut got = Vec::new();
    for stencil in gallery::all() {
        for variant in [Variant::Base, Variant::Saris] {
            let (runs, digest) = row(&session, &stepped, &stencil, variant);
            got.push((stencil.name().to_string(), variant, runs, digest));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, variant, runs, digest)| {
            format!("    (\"{name}\", Variant::{variant:?}, {runs}, {digest:#018x}),\n")
        })
        .collect();
    assert_eq!(got.len(), PINNED.len(), "gallery changed:\n{table}");
    for ((name, variant, runs, digest), (p_name, p_variant, p_runs, p_digest)) in
        got.iter().zip(PINNED)
    {
        assert!(
            name == p_name && *variant == p_variant && *runs == p_runs && *digest == p_digest,
            "{name} {variant}: got ({runs}, {digest:#018x}), pinned {p_name} {p_variant} \
             ({p_runs}, {p_digest:#018x}); full table as measured:\n{table}"
        );
    }
}
