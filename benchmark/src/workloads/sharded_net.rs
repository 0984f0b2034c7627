//! `sharded_net`: two `ShardWorker`s (one serve worker each) behind a
//! `Coordinator` over loopback TCP, driven by two closed-loop clients.
//!
//! Why: the wire codec, framing, TCP transport and ring routing carry
//! the request; the simulator's share of an operation is under one
//! percent. This is the workload that puts a layer's name on the gap
//! between networked and in-process serving.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use saris::codegen::{decode_outcome, decode_spec, encode_outcome, encode_spec};
use saris::prelude::*;

use super::serve::{set_serve_counts, set_session_counts};
use super::{plausible, same_answer, RequestFamily};
use crate::driver::{ledger_pass, Rec, Stages, Workload as Bench};
use crate::metrics::Metrics;
use crate::stats;

/// Requests of the unmeasured warm pass, split between the clients.
const WARM_REQUESTS: u64 = 64;
/// Every this many requests of a client, the answer is compared bit for
/// bit with a bare `Session`'s.
const COMPARE_EVERY: u64 = 50;
/// `Coordinator::route` calls timed together for one `shard.route_ns`
/// sample; a single call is shorter than two clock reads.
const ROUTE_BATCH: u32 = 64;
/// Connections opened for `net.connect_us`.
const CONNECT_PROBES: usize = 8;

/// The terms of the ledger: span name and the metric its median feeds
/// (the twin's serve time is a term without a metric of its own).
const TERMS: [(&str, Option<&str>); 6] = [
    ("wire.encode_spec", Some("wire.encode_spec_us")),
    ("net.ping", Some("net.ping_rtt_us")),
    ("wire.decode_spec", Some("wire.decode_spec_us")),
    ("serve.submit.twin", None),
    ("wire.encode_outcome", Some("wire.encode_outcome_us")),
    ("wire.decode_outcome", Some("wire.decode_outcome_us")),
];

pub struct ShardedNet {
    family: RequestFamily,
    // Declared before the workers so it hangs up before they shut down.
    coordinator: Coordinator,
    /// One direct connection per shard, for the replay's transport
    /// probes (only the single-threaded ledger pass uses them).
    probes: Mutex<Vec<NetClient>>,
    workers: Vec<ShardWorker>,
    /// An in-process server like a shard's, standing in for the time a
    /// shard spends serving in the replayed ledger.
    twin: Server,
    bare: Session,
}

fn shard_server() -> Server {
    Server::with_config(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("spawn serve worker")
}

impl ShardedNet {
    /// Every eighth request of a client repeats the one four back.
    fn request(client: usize, k: u64) -> (u64, u64) {
        let id = |k: u64| k * Self::CLIENTS as u64 + client as u64;
        let source = if k % 8 == 7 { k - 4 } else { k };
        (id(k), id(source))
    }

    fn replay(&self, req: u64, spec: &WorkloadSpec, rec: &mut Rec) -> Result<(), String> {
        let shard = self
            .coordinator
            .route(spec.fingerprint())
            .ok_or("no live shard")?;
        let mut probes = self.probes.lock().expect("probe connections lock");
        let t = &mut rec.tracer;
        let text = t.span("wire.encode_spec", req, || {
            black_box(encode_spec(black_box(spec)))
        });
        // A round trip on a connection that has rested a few hundred
        // milliseconds is answered at once; one sent right behind another
        // waits out the peer's delayed acknowledgement. The coordinator's
        // connections are of the second kind, so that is the ledger's
        // transport term; the first ping only ends the probe's rest.
        t.span("net.ping.rested", req, || probes[shard].ping())
            .map_err(|e| format!("ping: {e}"))?;
        t.span("net.ping", req, || probes[shard].ping())
            .map_err(|e| format!("ping: {e}"))?;
        let decoded = t
            .span("wire.decode_spec", req, || {
                black_box(decode_spec(black_box(&text)))
            })
            .map_err(|e| format!("decode spec: {e}"))?;
        let served = t
            .span("serve.submit.twin", req, || {
                black_box(self.twin.submit(black_box(&decoded)))
            })
            .map_err(|e| format!("twin server: {e}"))?;
        let answer = t.span("wire.encode_outcome", req, || {
            black_box(encode_outcome(black_box(&served)))
        });
        t.span("wire.decode_outcome", req, || {
            black_box(decode_outcome(black_box(&answer)))
        })
        .map_err(|e| format!("decode outcome: {e}"))?;
        // The spec is in that shard's response cache by now, and the
        // probe connection is still in use.
        t.span("net.submit_repeat", req, || probes[shard].submit(spec))
            .map_err(|e| format!("repeat submit: {e}"))?
            .map_err(|e| format!("repeat submit: {e}"))?;
        rec.count("wire.replays", 1);
        rec.count("wire.spec_bytes", text.len() as u64);
        rec.count("wire.outcome_bytes", answer.len() as u64);
        Ok(())
    }
}

impl Bench for ShardedNet {
    const NAME: &'static str = "sharded_net";
    const CLIENTS: usize = 2;
    // One period of the duplicate pattern; an operation waits 44 ms.
    const ROUND: u64 = 8;
    // A round is seven to thirteen timer waits of 44 ms and next to no
    // CPU time: the neighbours do not stretch it, and the fastest rounds
    // are the ones that dodged a wait. The quiet rounds are the faster
    // half.
    const QUIET_SHARE: f64 = 0.5;
    const LEDGER_OPS: u64 = 128;

    fn setup(seed: u64, stages: &mut Stages) -> ShardedNet {
        let family = RequestFamily::new(seed);
        let workers: Vec<ShardWorker> = (0..2)
            .map(|_| ShardWorker::spawn(shard_server()).expect("bind loopback"))
            .collect();
        let coordinator = Coordinator::over(&workers).expect("connect to shards");
        let probes = workers
            .iter()
            .map(|w| NetClient::connect(w.addr()).expect("connect to shard"))
            .collect();
        let (twin, bare) = (shard_server(), Session::new());
        stages.end_stage();
        for spec in family.warm_specs() {
            twin.submit(&spec).expect("warm-up request");
            bare.submit(&spec).expect("warm-up request");
            stages.end_stage();
        }
        let system = ShardedNet {
            family,
            coordinator,
            probes: Mutex::new(probes),
            workers,
            twin,
            bare,
        };
        // The warm pass is the head of the measured stream: it compiles
        // each shard's kernels and leaves its caches as traffic would.
        std::thread::scope(|scope| {
            for client in 0..Self::CLIENTS {
                let system = &system;
                scope.spawn(move || {
                    for k in 0..system.start_k() {
                        let (_, source) = Self::request(client, k);
                        system
                            .coordinator
                            .submit(&system.family.spec(source))
                            .expect("warm pass request");
                    }
                });
            }
        });
        system
    }

    fn start_k(&self) -> u64 {
        WARM_REQUESTS / Self::CLIENTS as u64
    }

    fn op(&self, client: usize, k: u64, rec: &mut Rec) {
        let (req, source) = Self::request(client, k);
        let spec = self.family.spec(source);
        let root = rec.tracer.begin("op", req);
        let start = Instant::now();
        let result = rec.tracer.span("shard.submit", req, || {
            black_box(self.coordinator.submit(black_box(&spec)))
        });
        let latency = start.elapsed();
        let checked = result.map_err(|e| e.to_string()).and_then(|outcome| {
            plausible(&spec, &outcome)?;
            if k.is_multiple_of(COMPARE_EVERY) {
                same_answer(&spec, &outcome, &self.bare)?;
            }
            Ok(())
        });
        match checked {
            Ok(()) => rec.ok(latency),
            Err(why) => rec.fail(|| format!("request {req}: {why}")),
        }
        if rec.ledger {
            let fingerprint = spec.fingerprint();
            let start = Instant::now();
            for _ in 0..ROUTE_BATCH {
                black_box(self.coordinator.route(black_box(fingerprint)));
            }
            rec.sample(
                "shard.route_ns",
                start.elapsed().as_nanos() as f64 / f64::from(ROUTE_BATCH),
            );
        }
        if rec.replays(req) {
            if let Err(why) = self.replay(req, &spec, rec) {
                rec.fail(|| format!("request {req}: replay: {why}"));
            }
        }
        rec.tracer.end(root);
    }

    fn request_fingerprint(&self, client: usize, k: u64) -> u64 {
        self.family.spec(Self::request(client, k).1).fingerprint()
    }

    fn ledger(&self, next_k: &mut [u64], epoch: Instant, out: &mut Metrics) -> Rec {
        let serve_before: Vec<ServeStats> =
            self.workers.iter().map(|w| w.server().stats()).collect();
        let session_before: Vec<SessionStats> = self
            .workers
            .iter()
            .map(|w| w.server().session().stats())
            .collect();
        let routed_before = self.coordinator.stats();

        let mut rec = ledger_pass(self, next_k, epoch);

        let serve: Vec<(ServeStats, ServeStats)> = serve_before
            .into_iter()
            .zip(self.workers.iter().map(|w| w.server().stats()))
            .collect();
        let session: Vec<(SessionStats, SessionStats)> = session_before
            .into_iter()
            .zip(self.workers.iter().map(|w| w.server().session().stats()))
            .collect();
        set_serve_counts(out, &serve);
        set_session_counts(out, &session);

        let routed_after = self.coordinator.stats();
        let routed: Vec<f64> = routed_after
            .routed
            .iter()
            .zip(&routed_before.routed)
            .map(|(after, before)| (after - before) as f64)
            .collect();
        let mean = routed.iter().sum::<f64>() / routed.len() as f64;
        out.set(
            "shard.routed_imbalance",
            routed.iter().fold(0.0, |a: f64, &b| a.max(b)) / mean,
        );
        out.set(
            "shard.retries",
            (routed_after.retries - routed_before.retries) as f64,
        );
        out.set(
            "shard.rehashes",
            (routed_after.rehashes - routed_before.rehashes) as f64,
        );
        out.set(
            "shard.route_ns",
            stats::median(rec.samples("shard.route_ns")),
        );

        for _ in 0..CONNECT_PROBES {
            let addr = self.workers[0].addr();
            let connected = rec.tracer.span("net.connect", u64::MAX, || {
                black_box(NetClient::connect(addr))
            });
            if let Err(e) = connected {
                rec.fail(|| format!("connect probe: {e}"));
            }
        }
        out.set("net.connect_us", rec.tracer.median_us("net.connect"));
        out.set(
            "net.submit_repeat_rtt_us",
            rec.tracer.median_us("net.submit_repeat"),
        );

        // The ledger: what one coordinator submit is made of.
        let submit = rec.tracer.median_us("shard.submit");
        let mut named = 0.0;
        for (span, metric) in TERMS {
            let term = rec.tracer.median_us(span);
            named += term;
            if let Some(metric) = metric {
                out.set(metric, term);
            }
        }
        out.set("shard.submit_us", submit);
        out.set("shard.unattributed_us", submit - named);
        let replays = rec.counted("wire.replays").max(1) as f64;
        out.set(
            "wire.spec_bytes",
            rec.counted("wire.spec_bytes") as f64 / replays,
        );
        out.set(
            "wire.outcome_bytes",
            rec.counted("wire.outcome_bytes") as f64 / replays,
        );
        rec
    }
}
