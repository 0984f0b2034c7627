//! The coordinator's side of the wire codec: requests are encoded and
//! replies decoded outside the per-shard connection lock, and a reply
//! that does not decode is that shard's failure.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener};
use std::sync::Barrier;

use saris_codegen::wire::{read_frame, write_frame, MAX_FRAME_LEN};
use saris_codegen::{Fidelity, Outcome, Session, Workload, WorkloadSpec};
use saris_core::{gallery, Extent};
use saris_serve::{ServeConfig, ServeError, Server};
use saris_shard::{Coordinator, ShardWorker};

fn worker() -> ShardWorker {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    ShardWorker::spawn(Server::with_config(config).expect("server")).expect("shard worker")
}

fn spec(seed: u64, fidelity: Fidelity) -> WorkloadSpec {
    Workload::new(gallery::jacobi_2d())
        .extent(Extent::new_2d(16, 16))
        .input_seed(seed)
        .fidelity(fidelity)
        .freeze()
        .expect("valid spec")
}

/// Fingerprint, reports and every grid bit (telemetry tells each
/// session's own history and is not compared).
fn assert_same_answer(remote: &Outcome, local: &Outcome) {
    assert_eq!(remote.fingerprint, local.fingerprint);
    assert_eq!(remote.reports, local.reports);
    assert_eq!(remote.grids.len(), local.grids.len());
    for (r, l) in remote.grids.iter().zip(&local.grids) {
        assert_eq!(r.extent(), l.extent());
        let same = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
        assert!(r.as_slice().iter().zip(l.as_slice()).all(same));
    }
}

#[test]
fn two_submitters_on_one_shard_get_the_bare_sessions_answers() {
    let workers = [worker()];
    let coordinator = Coordinator::over(&workers).expect("coordinator");
    let bare = Session::new();
    let per_thread = 24u64;
    // Both threads are routed to the one shard from a common start, so
    // one thread's reply is decoded while the other's request is on the
    // connection.
    let start = Barrier::new(2);
    let answers = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..2u64)
            .map(|t| {
                let (coordinator, start) = (&coordinator, &start);
                scope.spawn(move || {
                    start.wait();
                    (0..per_thread)
                        .map(|i| {
                            let tier = if i % 3 == 0 {
                                Fidelity::Cycles
                            } else {
                                Fidelity::Golden
                            };
                            // Every fourth request repeats the one before.
                            let spec = spec(t * per_thread + i - u64::from(i % 4 == 3), tier);
                            let outcome = coordinator.submit(&spec).expect("submit");
                            (spec, outcome)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        submitters
            .into_iter()
            .flat_map(|s| s.join().expect("submitter thread must not panic"))
            .collect::<Vec<_>>()
    });
    assert_eq!(answers.len() as u64, 2 * per_thread);
    for (spec, remote) in &answers {
        assert_same_answer(remote, &bare.submit(spec).expect("bare session"));
    }
    let stats = coordinator.stats();
    assert_eq!(stats.routed, [2 * per_thread]);
    assert_eq!((stats.retries, stats.rehashes), (0, 0));
}

/// A worker that frames correctly and answers each request frame with
/// `reply(frame)`.
fn scripted_worker(reply: fn(&[u8]) -> &'static [u8]) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream);
                while let Ok(frame) = read_frame(&mut reader, MAX_FRAME_LEN) {
                    if write_frame(reader.get_mut(), reply(&frame)).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// A worker that frames correctly and answers every submission with a
/// document that is not a submit reply.
fn garbling_worker() -> SocketAddr {
    scripted_worker(|frame| {
        if frame == b"{\"version\": 2, \"op\": \"ping\"}" {
            b"{\"version\": 2, \"pong\": true}"
        } else {
            b"{\"version\": 2, \"ok\": 7}"
        }
    })
}

#[test]
fn an_undecodable_reply_is_retried_then_rehashed() {
    // Alone, the garbling shard exhausts its one retry and is marked
    // dead.
    let alone = Coordinator::connect(&[garbling_worker()]).expect("coordinator");
    let result = alone.submit(&spec(1, Fidelity::Golden));
    assert!(matches!(result, Err(ServeError::ShutDown)), "{result:?}");
    let stats = alone.stats();
    assert_eq!(stats.routed, [2]);
    assert_eq!((stats.retries, stats.rehashes), (1, 1));
    assert_eq!(alone.live_shards(), 0);

    // Next to a healthy shard, its requests move there and are answered.
    let healthy = worker();
    let pair = Coordinator::connect(&[garbling_worker(), healthy.addr()]).expect("coordinator");
    let routed_to_garbler = (0..)
        .map(|seed| spec(seed, Fidelity::Golden))
        .find(|s| pair.route(s.fingerprint()) == Some(0))
        .expect("some spec routes to shard 0");
    let outcome = pair.submit(&routed_to_garbler).expect("rehashed answer");
    let local = Session::new().submit(&routed_to_garbler).expect("bare");
    assert_same_answer(&outcome, &local);
    let stats = pair.stats();
    assert_eq!(stats.routed, [2, 1]);
    assert_eq!((stats.retries, stats.rehashes), (1, 1));
    assert_eq!(pair.live_shards(), 1);
    assert_eq!(pair.route(routed_to_garbler.fingerprint()), Some(1));
}

#[test]
fn a_peer_of_another_version_is_refused_not_rehashed() {
    // A worker that answered the ping as this version and then answers
    // submissions as one from before frames had a version: each answer
    // is a refusal naming both versions. The shard is not retried, not
    // marked dead, and nothing moves to the healthy one.
    let old = scripted_worker(|frame| {
        if frame == b"{\"version\": 2, \"op\": \"ping\"}" {
            b"{\"version\": 2, \"pong\": true}"
        } else {
            b"{\"ok\": {\"extent\": [1, 1, 1], \"data\": [0.5]}}"
        }
    });
    let healthy = worker();
    let pair = Coordinator::connect(&[old, healthy.addr()]).expect("coordinator");
    let routed_to_old = (0..)
        .map(|seed| spec(seed, Fidelity::Golden))
        .find(|s| pair.route(s.fingerprint()) == Some(0))
        .expect("some spec routes to shard 0");
    for _ in 0..2 {
        match pair.submit(&routed_to_old) {
            Err(ServeError::Execution(e)) => {
                assert!(!e.is_transient());
                let message = e.to_string();
                assert!(
                    message.contains("carries no version (frame version 1)"),
                    "{message}"
                );
                assert!(message.contains("speaks frame version 2"), "{message}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
    let stats = pair.stats();
    assert_eq!(stats.routed, [2, 0]);
    assert_eq!((stats.retries, stats.rehashes), (0, 0));
    assert_eq!(pair.live_shards(), 2);

    // A worker of another version from the start fails the coordinator's
    // construction, by name.
    let newer = scripted_worker(|_| b"{\"version\": 3, \"pong\": true}");
    let err = Coordinator::connect(&[newer]).expect_err("a version-3 worker");
    let message = err.to_string();
    assert!(message.contains("reply is frame version 3"), "{message}");
    assert!(message.contains("speaks frame version 2"), "{message}");
}
