//! Degenerate stencil shapes: a copy (the result is one tap, no ops), a
//! dead tail (an op that never reaches the result) and tap-free stencils.
//! Each either is refused by `StencilBuilder::finish` with a named error
//! or, through `Session::submit` on both variants and both timing tiers,
//! answers `Ok` or a named `CodegenError` — never a panic.

use saris::core::StencilError;
use saris::prelude::*;

/// The shapes, as builders not yet finished.
fn shapes() -> Vec<(&'static str, StencilBuilder)> {
    let copy = {
        let mut b = StencilBuilder::new("copy", Space::Dim2);
        let inp = b.input("inp");
        b.output("out");
        let c = b.tap(inp, Offset::CENTER);
        b.store(c);
        b
    };
    let dead_tail = {
        let mut b = StencilBuilder::new("dead_tail", Space::Dim2);
        let inp = b.input("inp");
        b.output("out");
        let w = b.tap(inp, Offset::d2(-1, 0));
        let e = b.tap(inp, Offset::d2(1, 0));
        let s = b.add(w, e);
        let _unused = b.mul(s, s);
        b.store(s);
        b
    };
    let coeff_only = {
        let mut b = StencilBuilder::new("coeff_only", Space::Dim2);
        b.output("out");
        let c = b.coeff("c", 0.5);
        b.store(c);
        b
    };
    let coeff_ops = {
        let mut b = StencilBuilder::new("coeff_ops", Space::Dim2);
        b.output("out");
        let c = b.coeff("c", 0.5);
        let s = b.add(c, c);
        b.store(s);
        b
    };
    vec![
        ("copy", copy),
        ("dead_tail", dead_tail),
        ("coeff_only", coeff_only),
        ("coeff_ops", coeff_ops),
    ]
}

#[test]
fn degenerate_stencils_are_answered_or_refused_by_name() {
    let session = Session::new();
    let mut submitted = 0;
    for (shape, builder) in shapes() {
        let stencil = match builder.finish() {
            Ok(s) => s,
            Err(e) => {
                assert!(
                    matches!(e, StencilError::DeadOp { .. } | StencilError::NoTap { .. }),
                    "{shape}: {e:?}"
                );
                continue;
            }
        };
        for variant in [Variant::Base, Variant::Saris] {
            for fidelity in [Fidelity::Cycles, Fidelity::Analytic] {
                let mut workload = Workload::new(stencil.clone())
                    .extent(Extent::new_2d(32, 32))
                    .input_seed(7)
                    .variant(variant)
                    .fidelity(fidelity);
                if fidelity == Fidelity::Cycles {
                    workload = workload.verify(0.0);
                }
                let spec = workload.freeze().expect("valid workload");
                match session.submit(&spec) {
                    Ok(outcome) => {
                        let verified = outcome.verify_error == Some(0.0);
                        let estimated = fidelity == Fidelity::Analytic;
                        assert!(verified || estimated, "{shape} {variant} {fidelity:?}");
                    }
                    // Base streams nothing; SARIS pairs two index
                    // streams and a copy has one tap to give them.
                    Err(CodegenError::InvalidWorkload { .. }) if variant == Variant::Saris => {}
                    Err(e) => panic!("{shape} {variant} {fidelity:?}: {e}"),
                }
                submitted += 1;
            }
        }
    }
    // Only the copy stencil is a valid stencil.
    assert_eq!(submitted, 4);
}

/// The refusals name what is wrong.
#[test]
fn dead_ops_and_tap_free_stencils_are_refused() {
    let refusals: Vec<_> = shapes()
        .into_iter()
        .filter_map(|(shape, b)| b.finish().err().map(|e| (shape, e)))
        .collect();
    assert!(
        matches!(
            refusals[..],
            [
                ("dead_tail", StencilError::DeadOp { at: 1, .. }),
                ("coeff_only", StencilError::NoTap { .. }),
                ("coeff_ops", StencilError::NoTap { .. }),
            ]
        ),
        "{refusals:?}"
    );
}
