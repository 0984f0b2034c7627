//! Pinned calibration documents: a digest of the bytes
//! [`CalibrationStore::to_json`] produces.
//!
//! `calibration.rs`'s own round-trip test proves export and import
//! agree with *each other*; a rewrite that moves both the same way
//! passes it. The constants below were recorded from the hand-written
//! exporter, before it moved onto the shared document table, and say
//! the document — the format `calibration/gallery.json` ships in and
//! `export_calibration` sends — did not move by a byte. They hold in
//! the debug and the release profile.

use saris::codegen::{Calibration, CalibrationStore, Observation};
use saris::prelude::*;

/// FNV-1a over the bytes of a document.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The gallery store after one manual registration (no extent, no
/// context: two `null`s; a name the exporter has to escape) and one
/// live observation (both present, second observation of its key).
fn fed_store() -> CalibrationStore {
    let store = CalibrationStore::with_gallery();
    let mut named = StencilBuilder::new("cu\"stom\"\n", Space::Dim2);
    let inp = named.input("inp");
    named.output("out");
    let c = named.tap(inp, Offset::CENTER);
    let r = named.add(c, c);
    named.store(r);
    store.calibrate(
        &named.finish().expect("valid stencil"),
        Variant::Base,
        Calibration {
            cycles_per_point: 6123.0 / 3844.0,
            fpu_ops_per_point: 1.0,
            flops_per_point: 1.0e-7,
            imbalance: vec![1.01, 0.99, 1.0, 1.0 / 3.0],
        },
    );
    store.observe(
        &gallery::star3d2r(),
        Variant::Base,
        Extent::new_3d(16, 16, 16),
        0x5a71,
        &Observation {
            cycles: 7281,
            fpu_ops: 24192,
            flops: 43200,
            interior_points: 1728,
            imbalance: vec![1.000963, 0.999862, 1.0, 1.0, 1.0, 1.0, 1.0, 0.999862],
        },
    );
    store
}

/// `(name, document length, digest)`. Rows carry the stencil's
/// fingerprint and the execution context, so these move with the key
/// derivation: re-recorded when both became stable keys, with every
/// other byte unchanged.
const PINNED: [(&str, usize, u64); 3] = [
    ("gallery", 9415, 0x3a7b38aa36f6a621),
    ("fed", 9625, 0x402850c103a2aae8),
    ("empty", 36, 0xd5cf7053d4858618),
];

#[test]
fn calibration_documents_are_pinned() {
    let stores = [
        ("gallery", CalibrationStore::with_gallery()),
        ("fed", fed_store()),
        ("empty", CalibrationStore::new()),
    ];
    let got: Vec<(&str, usize, u64)> = stores
        .iter()
        .map(|(name, store)| {
            let text = store.to_json();
            (*name, text.len(), digest(&text))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, len, digest)| format!("    (\"{name}\", {len}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "documents as measured:\n{table}");
}

#[test]
fn exports_are_fixed_points_of_import() {
    for store in [
        CalibrationStore::with_gallery(),
        fed_store(),
        CalibrationStore::new(),
    ] {
        let text = store.to_json();
        let copy = CalibrationStore::from_json(&text).expect("an export imports");
        assert_eq!(copy.len(), store.len());
        // An import re-marks "observed" rows "imported": the document is
        // stable from there on.
        let imported = copy.to_json();
        assert_eq!(imported, text.replace("\"observed\"", "\"imported\""));
        let again = CalibrationStore::from_json(&imported).expect("an export imports");
        assert_eq!(again.to_json(), imported);
    }
}
