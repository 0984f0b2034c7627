//! Pinned wire documents: a digest of the bytes [`encode_spec`] and
//! [`encode_outcome`] produce.
//!
//! The round-trip tests in `saris-codegen::wire` prove the encoders and
//! decoders agree with *each other*; a rewrite that moves both the same
//! way passes them. The constants below were recorded from the codec
//! before its encoders were rewritten to append to one buffer, and say
//! the documents did not move by a byte — which is also what keeps
//! `wire.spec_bytes` / `wire.outcome_bytes` of the benchmark comparable
//! across that change. They hold in the debug and the release profile.

use saris::codegen::{encode_outcome, encode_spec};
use saris::prelude::*;

/// FNV-1a over the bytes of each document, a `0xff` between documents
/// (no document contains one: they are UTF-8).
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn document(&mut self, text: &str) {
        text.bytes().for_each(|b| self.byte(b));
        self.byte(0xff);
    }
}

fn fidelities() -> [Option<Fidelity>; 5] {
    [
        None,
        Some(Fidelity::Analytic),
        Some(Fidelity::Cycles),
        Some(Fidelity::Golden),
        Some(Fidelity::Auto {
            accuracy_budget: 0.05,
        }),
    ]
}

/// One gallery code × 5 fidelities × 3 tune modes, in that nesting
/// order: `(documents, digest)`.
fn spec_row(stencil: &Stencil) -> (u64, u64) {
    let tunes = [Tune::Fixed, Tune::Auto, Tune::Candidates(vec![1, 2, 4])];
    let mut digest = Digest::new();
    let mut documents = 0;
    for fidelity in fidelities() {
        for tune in &tunes {
            let mut w = Workload::new(stencil.clone())
                .extent(Extent::cube(stencil.space(), 16))
                .input_seed(7)
                .tune(tune.clone());
            if let Some(f) = fidelity {
                w = w.fidelity(f);
            }
            digest.document(&encode_spec(&w.freeze().expect("freeze")));
            documents += 1;
        }
    }
    (documents, digest.0)
}

/// Recorded from the codec as of the parent of the append-in-place
/// encoders; must never change in a host-speed PR.
const PINNED_SPECS: [(&str, u64, u64); 10] = [
    ("jacobi_2d", 15, 0xc345372c51a78a29),
    ("j2d5pt", 15, 0xfd8501aea61fced8),
    ("box2d1r", 15, 0xbe4a0876502f31bb),
    ("j2d9pt", 15, 0x1a12549595f617f5),
    ("j2d9pt_gol", 15, 0x3c4ac756d813caac),
    ("star2d3r", 15, 0xce6e5823bc34a9f3),
    ("star3d2r", 15, 0xd589437e87eef63e),
    ("ac_iso_cd", 15, 0x1354905189733541),
    ("box3d1r", 15, 0xd01854d9ce543124),
    ("j3d27pt", 15, 0x85ac1d85b2a54635),
];

#[test]
fn gallery_spec_documents_are_pinned() {
    let got: Vec<(String, u64, u64)> = gallery::all()
        .iter()
        .map(|stencil| {
            let (documents, digest) = spec_row(stencil);
            (stencil.name().to_string(), documents, digest)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, documents, digest)| {
            format!("    (\"{name}\", {documents}, {digest:#018x}),\n")
        })
        .collect();
    assert_eq!(got.len(), PINNED_SPECS.len(), "gallery changed:\n{table}");
    for ((name, documents, digest), (p_name, p_documents, p_digest)) in got.iter().zip(PINNED_SPECS)
    {
        assert!(
            name == p_name && *documents == p_documents && *digest == p_digest,
            "{name}: got ({documents}, {digest:#018x}), pinned {p_name} ({p_documents}, \
             {p_digest:#018x}); full table as measured:\n{table}"
        );
    }
}

/// Every `RunOptions` field away from its default.
fn unusual_options() -> RunOptions {
    let mut options = RunOptions::new(Variant::Base);
    options.unroll = 3;
    options.interleave = InterleavePlan::new(2, 4);
    options.cluster.n_cores = 4;
    options.cluster.fast_forward = false;
    options.cluster.freq_hz = 1.25e9;
    options.saris.coeff_reg_budget = 5;
    options.saris.index_width = saris::isa::IndexWidth::U32;
    options.saris.coeff_strategy = saris::core::method::CoeffStrategy::StreamSr1;
    options.max_cycles = 123_456;
    options.concurrent_dma = true;
    options.reassociate = 1;
    options.base_allow_spill = true;
    options
}

/// The spec shapes the gallery matrix does not reach, by name.
fn extra_specs() -> Vec<(&'static str, WorkloadSpec)> {
    let extent = Extent::new_2d(8, 8);
    let mut data = vec![0.25f64; extent.len()];
    data[0] = f64::from_bits(0x7ff8_0000_dead_beef); // NaN payload
    data[1] = -0.0;
    data[2] = f64::INFINITY;
    data[3] = f64::MIN_POSITIVE / 2.0; // subnormal
    data[4] = 1.0e300;
    data[5] = -1.0 / 3.0;
    vec![
        (
            "dma_probe",
            Workload::dma_probe(Extent::new_3d(16, 16, 16)).freeze(),
        ),
        (
            "explicit_grids",
            Workload::new(gallery::j2d5pt())
                .extent(extent)
                .inputs(vec![Grid::from_raw(extent, data)])
                .freeze(),
        ),
        (
            "unusual_options",
            Workload::new(gallery::jacobi_2d())
                .extent(Extent::new_2d(24, 24))
                .input_seed(u64::MAX)
                .options(unusual_options())
                .time_steps(3)
                .verify(1e-9)
                .freeze(),
        ),
        (
            "leapfrog",
            Workload::new(gallery::ac_iso_cd())
                .extent(Extent::cube(Space::Dim3, 12))
                .input_seed(3)
                .time_steps(4)
                .rotation(BufferRotation::Leapfrog)
                .freeze(),
        ),
    ]
    .into_iter()
    .map(|(name, spec)| (name, spec.expect("freeze")))
    .collect()
}

/// Real outcomes of every tier from one fresh session, submitted in
/// this order (telemetry counts what the session did before).
fn outcome_specs() -> Vec<(&'static str, WorkloadSpec)> {
    let jacobi = || {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(11)
    };
    vec![
        (
            "cycles_verified",
            jacobi().fidelity(Fidelity::Cycles).verify(1e-9).freeze(),
        ),
        ("golden", jacobi().fidelity(Fidelity::Golden).freeze()),
        ("analytic", jacobi().fidelity(Fidelity::Analytic).freeze()),
        (
            "tuned",
            Workload::new(gallery::j2d5pt())
                .extent(Extent::new_2d(16, 16))
                .input_seed(5)
                .tune(Tune::Candidates(vec![1, 2]))
                .freeze(),
        ),
        (
            "multi_step",
            Workload::new(gallery::star3d2r())
                .extent(Extent::cube(Space::Dim3, 12))
                .input_seed(2)
                .variant(Variant::Base)
                .time_steps(3)
                .freeze(),
        ),
        (
            "dma_probe",
            Workload::dma_probe(Extent::new_2d(32, 32)).freeze(),
        ),
    ]
    .into_iter()
    .map(|(name, spec)| (name, spec.expect("freeze")))
    .collect()
}

/// `(name, document length, digest)` — recorded with the spec rows.
/// Outcomes carry their spec's fingerprint, so the outcome rows move
/// with the key derivation: re-recorded when fingerprints became stable
/// keys, with every other byte unchanged. The tuned outcome was
/// re-recorded once more when the tuner started proving bounds: it
/// carries them, and it simulates one candidate instead of two. The
/// rows with grids were re-recorded when grids became packed bit
/// patterns (format version 2), with every other byte unchanged.
const PINNED_DOCUMENTS: [(&str, usize, u64); 10] = [
    ("spec dma_probe", 616, 0x308ce3c0b11609f8),
    ("spec explicit_grids", 2719, 0xa15a8af26b4b2631),
    ("spec unusual_options", 1453, 0x4201a0fe109cc548),
    ("spec leapfrog", 3058, 0xe5125c3be0086140),
    ("outcome cycles_verified", 6338, 0x4d8129d20cf44121),
    ("outcome golden", 4488, 0xf01a51e84cfec51e),
    ("outcome analytic", 2050, 0x150f893be12a7c8f),
    ("outcome tuned", 6397, 0xe2be0db20f047f99),
    ("outcome multi_step", 33573, 0x6638763c6666add3),
    ("outcome dma_probe", 364, 0x92d856d3cd0266fd),
];

#[test]
fn spec_extras_and_session_outcomes_are_pinned() {
    let mut got: Vec<(String, usize, u64)> = Vec::new();
    let mut record = |name: String, text: String| {
        let mut digest = Digest::new();
        digest.document(&text);
        got.push((name, text.len(), digest.0));
    };
    for (name, spec) in extra_specs() {
        record(format!("spec {name}"), encode_spec(&spec));
    }
    let session = Session::new();
    for (name, spec) in outcome_specs() {
        let outcome = session
            .submit(&spec)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        record(format!("outcome {name}"), encode_outcome(&outcome));
    }
    let table: String = got
        .iter()
        .map(|(name, len, digest)| format!("    (\"{name}\", {len}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED_DOCUMENTS.len(), "cases changed:\n{table}");
    for ((name, len, digest), (p_name, p_len, p_digest)) in got.iter().zip(PINNED_DOCUMENTS) {
        assert!(
            name == p_name && *len == p_len && *digest == p_digest,
            "{name}: got ({len}, {digest:#018x}), pinned {p_name} ({p_len}, {p_digest:#018x}); \
             full table as measured:\n{table}"
        );
    }
}
