//! Pinned keys: the values of every key the stack derives from a
//! request — [`Stencil::fingerprint`], [`RunOptions::compile_fingerprint`],
//! [`WorkloadSpec::fingerprint`] and [`execution_context`].
//!
//! Cache lookups, calibration rows, quarantine books and ring routing
//! hang on these values, and peers built apart must agree on them. They
//! come from one stable hasher over the types' `Hash` impls, so a
//! toolchain that changes how a derive feeds the hasher, or a field
//! added to a keyed type, moves them — and fails here instead of
//! splitting a fleet's caches silently. They hold in the debug and the
//! release profile; integers are hashed as fixed-width little-endian
//! bytes, so they do not depend on the host's word size or byte order.

use saris::codegen::calibration::execution_context;
use saris::prelude::*;

/// FNV-1a over each key's little-endian bytes.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn key(&mut self, key: u64) {
        for b in key.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One stencil × 2 variants × 3 unrolls × 2 tune modes, in that
/// nesting order: the compile key, the spec fingerprint and the
/// execution context of each, digested.
fn matrix_digest(stencil: &Stencil) -> u64 {
    let mut digest = Digest::new();
    for variant in [Variant::Base, Variant::Saris] {
        for unroll in DEFAULT_CANDIDATES {
            let options = RunOptions::new(variant).with_unroll(unroll);
            for tune in [Tune::Fixed, Tune::Auto] {
                let spec = Workload::new(stencil.clone())
                    .extent(Extent::cube(stencil.space(), 16))
                    .input_seed(unroll as u64)
                    .options(options.clone())
                    .tune(tune.clone())
                    .freeze()
                    .expect("freeze");
                digest.key(options.compile_fingerprint());
                digest.key(spec.fingerprint());
                digest.key(execution_context(&options, &tune));
            }
        }
    }
    digest.0
}

/// `(code, Stencil::fingerprint, matrix digest)`; the last row is
/// `j3d27pt` reassociated across three accumulators.
const PINNED_CODES: [(&str, u64, u64); 11] = [
    ("jacobi_2d", 0x83c096c6a6031869, 0x72d444e14a620e2e),
    ("j2d5pt", 0x133359658c40fc19, 0x366a39fbc0a75add),
    ("box2d1r", 0xe8dc4cd5e051a39c, 0xd2131b568f61e91f),
    ("j2d9pt", 0x1efa7f6b1ddeac51, 0xcf9b4f7e89cb901f),
    ("j2d9pt_gol", 0x915b2501c4a1c30a, 0x3378e29398de738a),
    ("star2d3r", 0xc9d6e1a724b13eb8, 0x30ac4775ddbfeb40),
    ("star3d2r", 0x3d70f681c7ed82f3, 0x7364e8a18e933b68),
    ("ac_iso_cd", 0x943fbe999198b333, 0xbe234db4268f1364),
    ("box3d1r", 0x331eb36ccc34d1cf, 0x8b03688005a49537),
    ("j3d27pt", 0x87e5621c16077ee4, 0x418f424bc86ef741),
    ("j3d27pt", 0x2f03a08096c1c4c0, 0xd4e30d431df26ac0),
];

#[test]
fn gallery_keys_are_pinned() {
    let mut codes = gallery::all();
    codes.push(gallery::j3d27pt().reassociated(3));
    let got: Vec<(String, u64, u64)> = codes
        .iter()
        .map(|s| (s.name().to_string(), s.fingerprint(), matrix_digest(s)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, key, digest)| format!("    (\"{name}\", {key:#018x}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED_CODES.len(), "codes changed:\n{table}");
    for ((name, key, digest), (p_name, p_key, p_digest)) in got.iter().zip(PINNED_CODES) {
        assert!(
            name == p_name && *key == p_key && *digest == p_digest,
            "{name}: got ({key:#018x}, {digest:#018x}), pinned {p_name} ({p_key:#018x}, \
             {p_digest:#018x}); full table as measured:\n{table}"
        );
    }
}

/// Options the matrix does not reach: every field away from its
/// default.
fn unusual_options() -> RunOptions {
    let mut options = RunOptions::new(Variant::Base).with_concurrent_dma();
    options.unroll = 3;
    options.interleave = InterleavePlan::new(2, 4);
    options.cluster.n_cores = 4;
    options.cluster.fast_forward = false;
    options.cluster.freq_hz = 1.25e9;
    options.saris.coeff_reg_budget = 5;
    options.max_cycles = 123_456;
    options.reassociate = 1;
    options.base_allow_spill = true;
    options
}

/// The spec shapes the matrix does not reach, by name.
fn extra_specs() -> Vec<(&'static str, WorkloadSpec)> {
    let extent = Extent::new_2d(8, 8);
    let mut data = vec![0.25f64; extent.len()];
    data[0] = f64::from_bits(0x7ff8_0000_dead_beef); // NaN payload
    data[1] = -0.0;
    vec![
        (
            "explicit_grids",
            Workload::new(gallery::j2d5pt())
                .inputs(vec![Grid::from_raw(extent, data)])
                .time_steps(3)
                .rotation(BufferRotation::Alternating)
                .verify(1e-9)
                .fidelity(Fidelity::Auto {
                    accuracy_budget: 0.05,
                })
                .freeze(),
        ),
        (
            "unusual_options",
            Workload::new(gallery::jacobi_2d())
                .extent(Extent::new_2d(24, 24))
                .input_seed(u64::MAX)
                .options(unusual_options())
                .tune(Tune::Candidates(vec![1, 2]))
                .freeze(),
        ),
        (
            "dma_probe",
            Workload::dma_probe(Extent::new_3d(16, 16, 16)).freeze(),
        ),
    ]
    .into_iter()
    .map(|(name, spec)| (name, spec.expect("freeze")))
    .collect()
}

/// `(name, key)`: each extra spec's fingerprint, then the unusual
/// options' compile key and execution context.
const PINNED_EXTRAS: [(&str, u64); 5] = [
    ("explicit_grids", 0x7da41348a55f254c),
    ("unusual_options", 0x42d2c6b68490c550),
    ("dma_probe", 0x8cf9c2c5198bf4a2),
    ("compile_fingerprint", 0x0bce3b13616fe764),
    ("execution_context", 0x939e4bf32fd619d6),
];

#[test]
fn extra_keys_are_pinned() {
    let options = unusual_options();
    let tune = Tune::Candidates(vec![1, 2]);
    let mut got: Vec<(&str, u64)> = extra_specs()
        .iter()
        .map(|(name, spec)| (*name, spec.fingerprint()))
        .collect();
    got.push(("compile_fingerprint", options.compile_fingerprint()));
    got.push(("execution_context", execution_context(&options, &tune)));
    let table: String = got
        .iter()
        .map(|(name, key)| format!("    (\"{name}\", {key:#018x}),\n"))
        .collect();
    assert_eq!(got, PINNED_EXTRAS, "keys as measured:\n{table}");
}
