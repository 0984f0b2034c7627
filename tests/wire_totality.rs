//! Totality of the wire decoders: whatever bytes arrive, the result is
//! a value or an error — never a panic, never a hang-up.
//!
//! Seeded single-byte substitutions, deletions and truncations of valid
//! spec documents, outcome documents and request frames, more than
//! 10,000 in all, go through [`decode_spec`], [`decode_outcome`] and a
//! live [`NetServer`]'s request handling. Every decode runs under
//! `catch_unwind`; everything that decodes must be a **fixed point**:
//! encode it, decode that, encode again — the same bytes. A mutation
//! that still decodes is a different but valid document, so on the
//! server it is *served*: mostly on the tiers that answer in
//! microseconds, and on one cycle-tier row that compiles, verifies and
//! simulates whatever valid stencil a mutation makes. No reply may be a
//! caught panic — what a valid spec does in execution must end in an
//! outcome or a named error.
//!
//! The calibration document has the same budget: mutations of the
//! gallery export go through [`CalibrationStore::from_json`], and a
//! store that imports must re-export to a fixed point *and* keep
//! working — take an observation of every code it names.
//!
//! [`CalibrationStore::from_json`]: saris::codegen::CalibrationStore::from_json

use std::panic::{catch_unwind, AssertUnwindSafe};

use saris::codegen::json;
use saris::codegen::{decode_outcome, decode_spec, encode_outcome, encode_spec};
use saris::core::rng::SplitMix64;
use saris::prelude::*;

/// Bytes that mean something to the tokenizer or to a decoder, plus a
/// few that mean nothing anywhere (the last two are not UTF-8).
const SUBSTITUTES: &[u8] = b"{}[]\",:\\ 0123456789-+.eEx/untrfalsb\0\x7f\xc3\xff";

/// `n` mutations of `document`: a substituted byte, a deleted byte, or
/// a truncation, at seeded positions.
fn mutations(document: &[u8], n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let at = rng.below(document.len() as u64) as usize;
            let mut bytes = document.to_vec();
            match rng.below(8) {
                0 => bytes.truncate(at),
                1 | 2 => drop(bytes.remove(at)),
                _ => bytes[at] = SUBSTITUTES[rng.below(SUBSTITUTES.len() as u64) as usize],
            }
            bytes
        })
        .collect()
}

/// Specs covering every arm of the spec codec: seeded and explicit
/// inputs, every optional field present and absent, a probe, a name the
/// encoder has to escape.
fn spec_documents() -> Vec<String> {
    let mut named = StencilBuilder::new("nämed \"stencil\"\n", Space::Dim3);
    let inp = named.input("in\tput");
    named.output("out");
    let k = named.coeff("k\\", -0.0);
    let c = named.tap(
        inp,
        Offset {
            dx: -1,
            dy: 2,
            dz: -3,
        },
    );
    let r = named.mul(k, c);
    named.store(r);
    let named = named.finish().expect("valid stencil");

    let extent = Extent::new_2d(6, 6);
    let mut data = vec![0.25f64; extent.len()];
    data[0] = f64::from_bits(0x7ff8_0000_dead_beef);
    data[1] = -0.0;
    data[2] = f64::NEG_INFINITY;
    data[3] = 1.0e-310;
    let mut options = RunOptions::new(Variant::Base).with_unroll(2);
    options.interleave = InterleavePlan::new(2, 4);
    options.concurrent_dma = true;
    let specs = [
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(7)
            .fidelity(Fidelity::Golden)
            .freeze(),
        Workload::new(gallery::ac_iso_cd())
            .extent(Extent::cube(Space::Dim3, 12))
            .input_seed(u64::MAX)
            .options(options)
            .tune(Tune::Candidates(vec![1, 2, 4]))
            .time_steps(3)
            .rotation(BufferRotation::Leapfrog)
            .verify(1e-9)
            .fidelity(Fidelity::Auto {
                accuracy_budget: 0.05,
            })
            .freeze(),
        Workload::new(gallery::j2d5pt())
            .inputs(vec![Grid::from_raw(extent, data)])
            .freeze(),
        Workload::new(named)
            .extent(Extent::cube(Space::Dim3, 8))
            .input_seed(1)
            .freeze(),
        Workload::dma_probe(Extent::new_3d(16, 16, 16)).freeze(),
    ];
    specs
        .into_iter()
        .map(|spec| encode_spec(&spec.expect("freeze")))
        .collect()
}

/// Real outcomes of every tier, plus a tuned and a probe one.
fn outcome_documents() -> Vec<String> {
    let session = Session::new();
    let jacobi = || {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(3)
    };
    let specs = [
        jacobi().fidelity(Fidelity::Cycles).verify(1e-9).freeze(),
        jacobi().fidelity(Fidelity::Golden).freeze(),
        jacobi().fidelity(Fidelity::Analytic).freeze(),
        jacobi().tune(Tune::Candidates(vec![1, 2])).freeze(),
        Workload::dma_probe(Extent::new_2d(32, 32)).freeze(),
    ];
    specs
        .into_iter()
        .map(|spec| encode_outcome(&session.submit(&spec.expect("freeze")).expect("submit")))
        .collect()
}

/// Runs `decode` over the mutations of every document; returns how many
/// mutations there were and how many of them still decoded.
fn fuzz<T>(
    documents: &[String],
    per_document: usize,
    decode: impl Fn(&str) -> Result<T, CodegenError>,
    encode: impl Fn(&T) -> String,
) -> (usize, usize) {
    let (mut tried, mut decoded) = (0, 0);
    for (d, document) in documents.iter().enumerate() {
        let original = decode(document).expect("the unmutated document decodes");
        assert_eq!(
            &encode(&original),
            document,
            "document {d} is not canonical"
        );
        for bytes in mutations(document.as_bytes(), per_document, d as u64) {
            // The decoders take `&str`: a frame that is not UTF-8 never
            // reaches them (the frame test below sends those too).
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            tried += 1;
            let result = catch_unwind(AssertUnwindSafe(|| decode(&text)))
                .unwrap_or_else(|_| panic!("decoding panicked on document {d}: {text}"));
            let Ok(value) = result else { continue };
            decoded += 1;
            let canonical = encode(&value);
            let again = decode(&canonical).unwrap_or_else(|e| {
                panic!("re-decoding failed ({e}) for document {d}: {text}\n-> {canonical}")
            });
            assert_eq!(encode(&again), canonical, "document {d}: {text}");
        }
    }
    (tried, decoded)
}

#[test]
fn mutated_spec_documents_never_panic_and_decode_to_fixed_points() {
    let (tried, decoded) = fuzz(&spec_documents(), 1000, decode_spec, encode_spec);
    assert!(tried >= 4500, "only {tried} mutations were valid UTF-8");
    // Both outcomes are exercised: most mutations are refused, and the
    // ones that only change a value are not.
    assert!(decoded > 100 && decoded < tried / 2, "{decoded} of {tried}");
}

#[test]
fn mutated_outcome_documents_never_panic_and_decode_to_fixed_points() {
    let (tried, decoded) = fuzz(&outcome_documents(), 700, decode_outcome, encode_outcome);
    assert!(tried >= 3000, "only {tried} mutations were valid UTF-8");
    assert!(decoded > 100 && decoded < tried, "{decoded} of {tried}");
}

#[test]
fn mutated_request_frames_are_all_answered() {
    let server = Server::with_config(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server");
    let net = NetServer::spawn(server, "127.0.0.1:0").expect("net server");
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let jacobi = |fidelity| {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(7)
            .fidelity(fidelity)
            .freeze()
            .expect("freeze")
    };
    let export = client
        .export_calibration()
        .expect("transport")
        .expect("default sessions calibrate");
    let requests = [
        NetClient::encode_submit(&jacobi(Fidelity::Golden)),
        NetClient::encode_submit(&jacobi(Fidelity::Analytic)),
        format!("{{\"version\": 2, \"op\": \"import_calibration\", \"data\": {export}}}"),
        "{\"version\": 2, \"op\": \"export_calibration\"}".to_string(),
        "{\"version\": 2, \"op\": \"ping\"}".to_string(),
        NetClient::encode_submit(&jacobi(Fidelity::Cycles)),
    ];
    let (mut sent, mut served) = (0, 0);
    for (r, request) in requests.iter().enumerate() {
        // The short requests have few distinct mutations.
        let n = if request.len() > 100 { 1000 } else { 150 };
        for frame in mutations(request.as_bytes(), n, 100 + r as u64) {
            // One frame out, one frame back, whatever the frame: a
            // handler that panicked or hung up fails the exchange.
            let reply = client.exchange(&frame).unwrap_or_else(|e| {
                panic!(
                    "no reply ({e}) to request {r}: {}",
                    String::from_utf8_lossy(&frame)
                )
            });
            let reply = String::from_utf8(reply).expect("replies are UTF-8");
            let document = json::parse(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
            let keys = document.as_object("reply").expect("replies are objects");
            // One answer, next to the envelope's version.
            let version = keys.get("version").map(|v| v.as_u64("version"));
            assert_eq!(version, Some(Ok(2)), "{reply}");
            let answers = keys.keys().filter(|key| *key != "version").count();
            assert_eq!(answers, 1, "{reply}");
            if let Ok(Err(ServeError::BackendPanicked { message })) =
                NetClient::decode_submit_reply(reply.as_bytes())
            {
                panic!(
                    "request {r} panicked ({message}): {}",
                    String::from_utf8_lossy(&frame)
                );
            }
            sent += 1;
            served += usize::from(!keys.contains_key("err"));
            if keys.contains_key("ok") {
                NetClient::decode_submit_reply(reply.as_bytes())
                    .expect("an ok reply decodes")
                    .expect("to an outcome");
            }
        }
    }
    assert!(client.ping().expect("the connection outlived every frame"));
    assert!(sent >= 4300, "{sent} frames");
    assert!(served > 100 && served < sent / 2, "{served} of {sent}");
}

#[test]
fn mutated_calibration_documents_never_panic_and_stay_observable() {
    use saris::codegen::{CalibrationStore, Observation};

    /// Imports `text`; an accepted store must re-export to a fixed
    /// point and take one observation of every gallery code it names.
    fn import(text: &str) -> Result<CalibrationStore, CodegenError> {
        let store = catch_unwind(|| CalibrationStore::from_json(text))
            .unwrap_or_else(|_| panic!("import panicked on: {text}"))?;
        let canonical = store.to_json();
        let again = CalibrationStore::from_json(&canonical)
            .unwrap_or_else(|e| panic!("re-import failed ({e}) for: {text}\n-> {canonical}"));
        assert_eq!(again.to_json(), canonical, "{text}");
        for entry in store.entries() {
            let Some(stencil) = gallery::by_name(&entry.name) else {
                continue;
            };
            let observation = Observation {
                cycles: 500,
                fpu_ops: 2420,
                flops: 2420,
                interior_points: 484,
                imbalance: vec![1.0; entry.cores],
            };
            let extent = Extent::cube(stencil.space(), 24);
            catch_unwind(AssertUnwindSafe(|| {
                store.observe(&stencil, entry.variant, extent, 7, &observation)
            }))
            .unwrap_or_else(|_| panic!("observing {} panicked after: {text}", entry.name));
        }
        assert!(!store.to_json().is_empty(), "the store still answers");
        Ok(store)
    }

    let document = CalibrationStore::with_gallery().to_json();
    assert_eq!(import(&document).expect("the export imports").len(), 20);
    let (mut tried, mut imported) = (0, 0);
    for bytes in mutations(document.as_bytes(), 2500, 200) {
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        tried += 1;
        match import(&text) {
            Ok(_) => imported += 1,
            Err(e) => assert!(matches!(e, CodegenError::Calibration { .. }), "{e}"),
        }
    }
    assert!(tried >= 2000, "only {tried} mutations were valid UTF-8");
    assert!(imported > 100 && imported < tried, "{imported} of {tried}");

    // What a random byte will not find: a count the next observation
    // would overflow, and an extent whose point count does.
    let row = |extent: &str, observations: &str| {
        format!(
            "{{\"version\": 1, \"entries\": [{{\"name\": \"jacobi_2d\", \"stencil\": \"1\", \
             \"variant\": \"saris\", \"cores\": 2, \"extent\": {extent}, \"context\": null, \
             \"cycles_per_point\": 0.75, \"fpu_ops_per_point\": 5.0, \"flops_per_point\": 5.0, \
             \"imbalance\": [1.0, 1.0], \"confidence\": 1.0, \"observations\": {observations}, \
             \"source\": \"observed\"}}]}}"
        )
    };
    let store = import(&row("[64, 64, 1]", "18446744073709551615")).expect("a valid row");
    let entry = &store.entries()[0];
    assert_eq!((entry.observations, entry.cores), (u64::MAX, 2));
    for extent in ["[9223372036854775808, 4, 1]", "[64, 0, 1]", "[64, 64]"] {
        let err = import(&row(extent, "1")).expect_err(extent);
        assert!(matches!(err, CodegenError::Calibration { .. }), "{err}");
    }
}
