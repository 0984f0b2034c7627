//! In-process checks that a seed fixes the request streams and every
//! exact metric, and that timed work is really done.

use std::time::Instant;

use crate::driver::{stream_fingerprint, Rec, Stages, Workload};
use crate::metrics::Metrics;
use crate::workloads::compile_verify::CompileVerify;
use crate::workloads::serve::{ServeHot, ServeUnique};
use crate::workloads::sharded_net::ShardedNet;
use crate::workloads::sim_gallery::SimGallery;

/// Requests per client the stream comparisons look at.
const HEAD: u64 = 96;

fn ledger_of<W: Workload>(seed: u64) -> (u64, Metrics) {
    let w = W::setup(seed, &mut Stages::start());
    let fingerprint = stream_fingerprint(&w, HEAD);
    let mut next_k = vec![w.start_k(); W::CLIENTS];
    let mut metrics = Metrics::default();
    let rec = w.ledger(&mut next_k, Instant::now(), &mut metrics);
    assert_eq!(rec.failed, 0, "{}: {:?}", W::NAME, rec.first_failure);
    assert_eq!(rec.ops(), W::LEDGER_OPS);
    (fingerprint, metrics)
}

fn assert_exact<W: Workload>(a: &Metrics, b: &Metrics, names: &[&str]) {
    for name in names {
        let (va, vb) = (a.get(name), b.get(name));
        assert!(va.is_some(), "{}: {name} was not measured", W::NAME);
        assert_eq!(
            va.map(f64::to_bits),
            vb.map(f64::to_bits),
            "{}: {name} differs between two runs at one seed",
            W::NAME
        );
    }
}

#[test]
fn sim_gallery_counts_repeat_exactly_at_one_seed() {
    let (fa, a) = ledger_of::<SimGallery>(1);
    let (fb, b) = ledger_of::<SimGallery>(1);
    assert_eq!(fa, fb);
    assert_exact::<SimGallery>(
        &a,
        &b,
        &[
            "sim.cycles.base",
            "sim.cycles.saris",
            "sim.tcdm_accesses",
            "sim.tcdm_conflicts",
            "sim.stall.fpu_dependency",
            "sim.ssr.elems",
            "sim.dma.bytes",
            "sim.fpu_util.saris",
            "verify.bound_tightness",
            "model.speedup_geomean",
            "model.fpu_util_saris_geomean",
            "model.energy_gain_geomean",
            "model.scaleout_speedup_geomean",
            "model.scaleout_fpu_util_saris_geomean",
            "fidelity_err",
        ],
    );
    // The static bound is a lower bound on what the simulator measures.
    let tightness = a.get("verify.bound_tightness").unwrap();
    assert!(tightness > 0.0 && tightness <= 1.0, "{tightness}");
    assert!(a.get("sim.cycles.base").unwrap() > a.get("sim.cycles.saris").unwrap());
    assert_eq!(a.get("session.compiles"), Some(0.0));

    // Another seed shuffles the round and reseeds the inputs; simulated
    // cycles do not depend on either.
    let (fc, c) = ledger_of::<SimGallery>(2);
    assert_ne!(fa, fc);
    assert_exact::<SimGallery>(&a, &c, &["sim.cycles.base", "sim.cycles.saris"]);
}

#[test]
fn compile_verify_counts_repeat_exactly_at_one_seed() {
    let (fa, a) = ledger_of::<CompileVerify>(1);
    let (fb, b) = ledger_of::<CompileVerify>(1);
    assert_eq!(fa, fb);
    assert_exact::<CompileVerify>(
        &a,
        &b,
        &[
            "codegen.instrs_total",
            "codegen.infeasible",
            "verify.error_findings",
            "verify.bound_cycles_total",
        ],
    );
    assert_eq!(a.get("codegen.infeasible"), Some(6.0));
    assert_eq!(a.get("verify.error_findings"), Some(0.0));
    assert_ne!(fa, ledger_of::<CompileVerify>(2).0);
}

#[test]
fn serve_streams_and_cache_counts_follow_the_seed() {
    let (fa, a) = ledger_of::<ServeHot>(1);
    let (fb, b) = ledger_of::<ServeHot>(1);
    assert_eq!(fa, fb);
    assert_exact::<ServeHot>(
        &a,
        &b,
        &[
            "serve.cache_hits",
            "serve.cache_misses",
            "serve.cache_evictions",
            "serve.executed",
            "serve.hit_ratio",
        ],
    );
    let ratio = a.get("serve.hit_ratio").unwrap();
    assert!((0.85..0.95).contains(&ratio), "hot hit ratio {ratio}");
    assert_ne!(fa, ledger_of::<ServeHot>(2).0);

    let (_, unique) = ledger_of::<ServeUnique>(1);
    assert_eq!(unique.get("serve.hit_ratio"), Some(0.0));
    assert_eq!(
        unique.get("serve.executed"),
        Some(ServeUnique::LEDGER_OPS as f64)
    );
    assert!(unique.get("serve.cache_evictions").unwrap() > 0.0);
}

#[test]
fn sharded_net_wire_sizes_and_routing_repeat_at_one_seed() {
    let (fa, a) = ledger_of::<ShardedNet>(1);
    let (fb, b) = ledger_of::<ShardedNet>(1);
    assert_eq!(fa, fb);
    assert_exact::<ShardedNet>(
        &a,
        &b,
        &[
            "wire.spec_bytes",
            "wire.outcome_bytes",
            "shard.routed_imbalance",
            "serve.executed",
        ],
    );
    assert_eq!(a.get("shard.retries"), Some(0.0));
    assert_eq!(a.get("shard.rehashes"), Some(0.0));
    assert_ne!(fa, ledger_of::<ShardedNet>(2).0);
}

#[test]
fn wall_time_grows_with_the_number_of_operations() {
    // `black_box` is a hint; this is the check that the timed calls are
    // not optimised away: four rounds must cost well over one.
    let w = CompileVerify::setup(1, &mut Stages::start());
    let wall = |rounds: u64| {
        let mut rec = Rec::new(false, false, Instant::now());
        let start = Instant::now();
        for k in 0..rounds * CompileVerify::LEDGER_OPS / 5 {
            w.op(0, k, &mut rec);
        }
        assert_eq!(rec.failed, 0, "{:?}", rec.first_failure);
        start.elapsed().as_secs_f64()
    };
    wall(1);
    let (one, four) = (wall(1), wall(4));
    assert!(four > 2.0 * one, "1 round {one} s, 4 rounds {four} s");
}
