//! Integration tests for sharded serving: worker death mid-stream,
//! cross-shard calibration gossip, and bit-identity with single-process
//! execution.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use saris_codegen::{
    BackendRegistry, CalibrationStore, Fidelity, RooflineBackend, Session, SessionConfig, Workload,
    WorkloadSpec,
};
use saris_core::{gallery, Extent};
use saris_serve::{NetClient, ServeConfig, Server};
use saris_shard::{Coordinator, ShardWorker};

/// A simulator-default session whose analytic tier answers from (and
/// whose feedback loop feeds) the given store — the same wiring the
/// serve benchmarks use.
fn session_over(store: &Arc<CalibrationStore>) -> Session {
    let mut registry = BackendRegistry::standard();
    registry.register(Arc::new(RooflineBackend::with_store(Arc::clone(store))));
    Session::with_registry(registry, Fidelity::Cycles, SessionConfig::default())
}

fn worker_over(store: &Arc<CalibrationStore>) -> ShardWorker {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::over(session_over(store), config).expect("server");
    ShardWorker::spawn(server).expect("shard worker")
}

fn analytic_spec(seed: u64) -> WorkloadSpec {
    Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(32, 32))
        .input_seed(seed)
        .fidelity(Fidelity::Analytic)
        .freeze()
        .expect("valid spec")
}

#[test]
fn killing_a_worker_mid_stream_loses_no_accepted_request() {
    let stores: Vec<Arc<CalibrationStore>> = (0..3)
        .map(|_| Arc::new(CalibrationStore::with_gallery()))
        .collect();
    let workers: Vec<ShardWorker> = stores.iter().map(worker_over).collect();
    let coordinator = Arc::new(Coordinator::over(&workers).expect("coordinator"));

    // Four submitter threads race a dozen distinct specs each while the
    // main thread kills worker 0 mid-stream.
    let threads = 4;
    let per_thread = 12;
    let start = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let coordinator = Arc::clone(&coordinator);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                (0..per_thread)
                    .map(|i| coordinator.submit(&analytic_spec((t * per_thread + i) as u64)))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    start.wait();
    std::thread::sleep(Duration::from_millis(5));
    workers[0].kill();

    let mut resolved = 0;
    for handle in handles {
        for result in handle.join().expect("submitter thread must not panic") {
            // Every accepted request resolves — and with two live
            // analytic-capable shards left, resolves successfully.
            let outcome = result.expect("rehash must answer the request");
            assert!(outcome.telemetry.answered_by.is_some());
            resolved += 1;
        }
    }
    assert_eq!(resolved, threads * per_thread);

    // A fresh sweep after the death must also fully succeed: the dead
    // shard's keyspace rehashes onto the survivors, everyone else keeps
    // their warm shard.
    for seed in 100..148u64 {
        coordinator
            .submit(&analytic_spec(seed))
            .expect("post-kill submissions must rehash onto live shards");
    }
    assert_eq!(coordinator.live_shards(), 2, "worker 0 must be marked dead");
    let stats = coordinator.stats();
    assert!(
        stats.rehashes >= 1,
        "some request must have moved off the dead shard: {stats:?}"
    );
}

#[test]
fn gossip_round_moves_calibration_across_shards() {
    let store_a = Arc::new(CalibrationStore::with_gallery());
    let store_b = Arc::new(CalibrationStore::with_gallery());
    let worker_a = worker_over(&store_a);
    let worker_b = worker_over(&store_b);

    // A cycle-tier observation lands on shard A only: 24x24 is not a
    // baked calibration point, so afterwards A's store knows something
    // B's does not.
    let observed = Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(24, 24))
        .input_seed(3)
        .fidelity(Fidelity::Cycles)
        .freeze()
        .expect("valid spec");
    let mut client_a = NetClient::connect(worker_a.addr()).expect("connect A");
    client_a
        .submit(&observed)
        .expect("transport")
        .expect("cycle-tier execution");

    // Before gossip, shard B escalates the Auto twin (its store has no
    // 24x24 observation), which would be a cycle-tier answer. Pin the
    // cheap positive instead: after one gossip round, B answers the
    // twin analytically within the budget.
    let addr_b = worker_b.addr();
    let b_before = store_b.to_json();
    // The workers must outlive the coordinator: dropping a ShardWorker
    // kills its server.
    let workers = [worker_a, worker_b];
    let coordinator = Coordinator::over(&workers).expect("coordinator");
    let adopted = coordinator.gossip_round();
    assert!(
        adopted >= 1,
        "shard B must adopt shard A's fresh observation, adopted {adopted}"
    );
    assert_ne!(
        store_b.to_json(),
        b_before,
        "the merge must land in shard B's live store"
    );

    let twin = Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(24, 24))
        .input_seed(3)
        .fidelity(Fidelity::Auto {
            accuracy_budget: 0.25,
        })
        .freeze()
        .expect("valid spec");
    // Reach shard B directly by address so the test pins *where* the
    // answer comes from.
    let mut client_b = NetClient::connect(addr_b).expect("connect B");
    let answer = client_b
        .submit(&twin)
        .expect("transport")
        .expect("auto answer");
    assert_eq!(
        answer.telemetry.answered_by,
        Some(Fidelity::Analytic),
        "after gossip, shard B must answer the observed spec analytically"
    );
    assert!(answer.telemetry.estimated);

    // A second round with nothing new to say adopts nothing.
    let again = coordinator.gossip_round();
    assert_eq!(again, 0, "gossip must be idempotent");
    assert_eq!(
        coordinator.stats().gossip_adopted,
        (adopted + again) as u64,
        "the coordinator books what its rounds adopted"
    );
}

#[test]
fn sharded_outcomes_are_bit_identical_to_single_process_execution() {
    let stores: Vec<Arc<CalibrationStore>> = (0..2)
        .map(|_| Arc::new(CalibrationStore::with_gallery()))
        .collect();
    let workers: Vec<ShardWorker> = stores.iter().map(worker_over).collect();
    let coordinator = Coordinator::over(&workers).expect("coordinator");

    // A reference single-process server over an identical session.
    let reference_store = Arc::new(CalibrationStore::with_gallery());
    let reference = Server::over(
        session_over(&reference_store),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("reference server");

    let golden = Workload::new(gallery::star3d2r())
        .extent(Extent::new_3d(12, 12, 12))
        .input_seed(9)
        .fidelity(Fidelity::Golden)
        .freeze()
        .expect("valid spec");
    let cycles = Workload::new(gallery::j2d5pt())
        .extent(Extent::new_2d(24, 24))
        .input_seed(4)
        .fidelity(Fidelity::Cycles)
        .freeze()
        .expect("valid spec");

    for spec in [&golden, &cycles] {
        let sharded = coordinator.submit(spec).expect("sharded execution");
        let local = reference.submit(spec).expect("local execution");
        assert_eq!(sharded.fingerprint, local.fingerprint);
        assert_eq!(sharded.grids.len(), local.grids.len());
        for (a, b) in sharded.grids.iter().zip(&local.grids) {
            assert_eq!(a.extent(), b.extent());
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "grid data must be bit-identical");
            }
        }
        assert_eq!(
            sharded.reports.iter().map(|r| r.cycles).collect::<Vec<_>>(),
            local.reports.iter().map(|r| r.cycles).collect::<Vec<_>>(),
            "cycle measurements must match single-process execution"
        );
    }
}
