//! `serve_hot` and `serve_unique`: two closed-loop clients against one
//! in-process `Server` (two workers, the default 1024-entry response
//! cache).
//!
//! `serve_hot` — why: nine requests in ten repeat one of 128 pre-warmed
//! specs, so response-cache lookup, GreedyDual refresh and single-flight
//! carry most operations; the tenth is a never-seen spec. The share is
//! exact, not a coin toss per request: every block of ten requests holds
//! one never-seen spec at a seeded position, and those specs take their
//! ids in order, so every round of a client is the same mix of hits and
//! of (tier, code) misses and the wall times of two rounds compare.
//!
//! The hot set is cycle-tier only. GreedyDual evicts what is cheap to
//! recompute first, however hot it is: with golden and analytic specs in
//! the hot set, those are evicted between two of their own hits once
//! the cache is full, the hit ratio decays from 0.90 to 0.75 within
//! fourteen seconds and goes on falling for minutes, and no run would
//! measure a steady state. Cycle-tier hot specs stay cached, the hit
//! ratio stays at 0.9, and set-up fills the cache so that the first
//! measured insert already evicts.
//!
//! `serve_unique` — why: every spec is distinct, so every operation
//! misses, is admitted, scheduled, possibly batched, executed, inserted
//! and, past 1024 entries, evicts. A hit-path gain that costs insert or
//! evict shows here and not in `serve_hot`.

use std::borrow::Cow;
use std::hint::black_box;
use std::time::Instant;

use saris::prelude::*;

use super::{plausible, same_answer, RequestFamily};
use crate::driver::{ledger_pass, Rec, Stages, Workload as Bench};
use crate::metrics::Metrics;
use crate::rng::SplitMix64;

/// Size of the pre-warmed hot set.
const HOT_SET: usize = 128;
/// Never-seen specs take their ids from here up; the hot set's ids and
/// the cache filler's lie below.
const COLD_IDS: u64 = 1 << 16;
/// The cache filler's ids start here.
const FILLER_IDS: u64 = 1 << 12;
/// `serve_hot` requests come in blocks of this many: one never-seen
/// spec at a seeded position, the others drawn from the hot set.
const BLOCK: u64 = 10;
/// The never-seen specs of a client walk through all fifteen (tier,
/// code) pairs in this many of them.
const MIX_PERIOD: u64 = 15;
/// Every this many requests of a client, the answer is compared bit for
/// bit with a bare `Session`'s.
const COMPARE_EVERY: u64 = 1000;

/// Cache-filling requests of one client that make one stage of the
/// set-up.
const STAGE_REQUESTS: usize = 8;

/// Index of a tier in the per-tier tables below.
fn tier_index(tier: Fidelity) -> usize {
    match tier {
        Fidelity::Cycles => 0,
        Fidelity::Golden => 1,
        _ => 2,
    }
}

/// Per tier: the span of a first-time `Server::submit`, the span of the
/// replayed bare `Session::submit`, and the three metrics they feed.
const FIRST_SPANS: [&str; 3] = [
    "serve.submit.first.cycles",
    "serve.submit.first.golden",
    "serve.submit.first.analytic",
];
const SESSION_SPANS: [&str; 3] = [
    "session.submit.cycles",
    "session.submit.golden",
    "session.submit.analytic",
];

const FIRST_METRICS: [&str; 3] = [
    "serve.first_us.cycles",
    "serve.first_us.golden",
    "serve.first_us.analytic",
];
const SESSION_METRICS: [&str; 3] = [
    "session.submit_us.cycles",
    "session.submit_us.golden",
    "session.submit_us.analytic",
];
const OVERHEAD_METRICS: [&str; 3] = [
    "serve.overhead_us.cycles",
    "serve.overhead_us.golden",
    "serve.overhead_us.analytic",
];

pub struct Serve<const HOT: bool> {
    seed: u64,
    family: RequestFamily,
    hot: Vec<WorkloadSpec>,
    server: Server,
    /// Answers the same specs with no serving layer in front: the
    /// reference of the bit-for-bit check and of the replay.
    bare: Session,
}

pub type ServeHot = Serve<true>;
pub type ServeUnique = Serve<false>;

/// What a request asks for.
enum Asked {
    /// A spec of the hot set, sent before.
    Hot(usize),
    /// The never-seen spec with this id.
    New(u64),
}

impl<const HOT: bool> Serve<HOT> {
    /// Request `k` of `client`: its number and what it asks for.
    fn request(&self, client: usize, k: u64) -> (u64, Asked) {
        let clients = Self::CLIENTS as u64;
        let req = k * clients + client as u64;
        if !HOT {
            return (req, Asked::New(COLD_IDS + req));
        }
        let block = k / BLOCK;
        // Streams 0.. place the never-seen spec in a block, the streams
        // after them draw from the hot set.
        let new_at = SplitMix64::at(self.seed, client as u64, block).below(BLOCK);
        if k % BLOCK == new_at {
            (req, Asked::New(COLD_IDS + block * clients + client as u64))
        } else {
            let index = SplitMix64::at(self.seed, clients + client as u64, k).below(HOT_SET as u64);
            (req, Asked::Hot(index as usize))
        }
    }
}

impl<const HOT: bool> Bench for Serve<HOT> {
    const NAME: &'static str = if HOT { "serve_hot" } else { "serve_unique" };
    const CLIENTS: usize = 2;
    // One walk through the fifteen (tier, code) pairs: about 5 ms.
    const ROUND: u64 = if HOT { MIX_PERIOD * BLOCK } else { MIX_PERIOD };
    const LEDGER_OPS: u64 = if HOT { 56 } else { 136 } * Self::ROUND * Self::CLIENTS as u64;

    fn setup(seed: u64, stages: &mut Stages) -> Self {
        let family = RequestFamily::new(seed);
        let server = Server::with_config(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .expect("spawn serve workers");
        let bare = Session::new();
        for spec in family.warm_specs() {
            server.submit(&spec).expect("warm-up request");
            bare.submit(&spec).expect("warm-up request");
            stages.end_stage();
        }
        let hot: Vec<WorkloadSpec> = (0..FILLER_IDS)
            .filter(|&id| HOT && RequestFamily::tier(id) == Fidelity::Cycles)
            .take(HOT_SET)
            .map(|id| family.spec(id))
            .collect();
        if HOT {
            // The hot set, then never-seen specs up to the cache's
            // capacity, sent as the measured phase sends: by two clients,
            // so that no request waits for a sleeping processor to wake.
            let room = server.config().max_cached_responses - server.cached_responses();
            let fill: Vec<Cow<WorkloadSpec>> = hot
                .iter()
                .map(Cow::Borrowed)
                .chain((FILLER_IDS..).map(|id| Cow::Owned(family.spec(id))))
                .take(room)
                .collect();
            let (mine, theirs) = fill.split_at(fill.len() / 2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for spec in theirs {
                        server.submit(spec).expect("cache-filling request");
                    }
                });
                for batch in mine.chunks(STAGE_REQUESTS) {
                    for spec in batch {
                        server.submit(spec).expect("cache-filling request");
                    }
                    stages.end_stage();
                }
            });
            assert_eq!(
                server.cached_responses(),
                server.config().max_cached_responses,
                "set-up fills the response cache"
            );
        }
        Serve {
            seed,
            family,
            hot,
            server,
            bare,
        }
    }

    fn op(&self, client: usize, k: u64, rec: &mut Rec) {
        let (req, asked) = self.request(client, k);
        let root = rec.tracer.begin("op", req);
        let spec: Cow<WorkloadSpec> = match asked {
            Asked::Hot(index) => Cow::Borrowed(&self.hot[index]),
            Asked::New(id) => Cow::Owned(rec.tracer.span("codegen.freeze", req, || {
                black_box(self.family.spec(black_box(id)))
            })),
        };
        let tier = tier_index(spec.fidelity().expect("serving specs name a tier"));
        let span = match asked {
            Asked::Hot(_) => "serve.submit.repeat",
            Asked::New(_) => FIRST_SPANS[tier],
        };
        let start = Instant::now();
        let result = rec.tracer.span(span, req, || {
            black_box(self.server.submit(black_box(&spec)))
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
        if rec.replays(req) {
            let replayed = rec.tracer.span(SESSION_SPANS[tier], req, || {
                black_box(self.bare.submit(black_box(&spec)))
            });
            if let Err(e) = replayed {
                rec.fail(|| format!("request {req}: bare session replay: {e}"));
            }
        }
        rec.tracer.end(root);
    }

    fn request_fingerprint(&self, client: usize, k: u64) -> u64 {
        match self.request(client, k).1 {
            Asked::Hot(index) => self.hot[index].fingerprint(),
            Asked::New(id) => self.family.spec(id).fingerprint(),
        }
    }

    fn ledger(&self, next_k: &mut [u64], epoch: Instant, out: &mut Metrics) -> Rec {
        let (serve_before, session_before) = (self.server.stats(), self.server.session().stats());
        let rec = ledger_pass(self, next_k, epoch);
        let (serve, session) = (self.server.stats(), self.server.session().stats());
        set_serve_counts(out, &[(serve_before, serve)]);
        set_session_counts(out, &[(session_before, session)]);

        out.set("codegen.freeze_us", rec.tracer.median_us("codegen.freeze"));
        out.set(
            "serve.repeat_us",
            rec.tracer.median_us("serve.submit.repeat"),
        );
        for tier in 0..3 {
            let first = rec.tracer.median_us(FIRST_SPANS[tier]);
            let bare = rec.tracer.median_us(SESSION_SPANS[tier]);
            out.set(FIRST_METRICS[tier], first);
            out.set(SESSION_METRICS[tier], bare);
            out.set(OVERHEAD_METRICS[tier], first - bare);
        }
        rec
    }
}

/// Sets the `serve.*` counters to the summed deltas of one or more
/// servers' `(before, after)` statistics.
pub fn set_serve_counts(out: &mut Metrics, deltas: &[(ServeStats, ServeStats)]) {
    let sum = |field: fn(&ServeStats) -> u64| -> f64 {
        deltas
            .iter()
            .map(|(before, after)| field(after) - field(before))
            .sum::<u64>() as f64
    };
    let hits = sum(|s| s.cache_hits);
    let requests = sum(|s| s.requests);
    out.set("serve.cache_hits", hits);
    out.set("serve.cache_misses", sum(|s| s.cache_misses));
    out.set("serve.cache_evictions", sum(|s| s.cache_evictions));
    out.set("serve.coalesced", sum(|s| s.coalesced));
    out.set("serve.executed", sum(|s| s.executed));
    out.set("serve.batches_formed", sum(|s| s.batches_formed));
    out.set("serve.compiles_saved", sum(|s| s.compiles_saved));
    out.set("serve.errors", sum(|s| s.errors));
    out.set("serve.retries", sum(|s| s.retries));
    out.set(
        "serve.hit_ratio",
        if requests > 0.0 { hits / requests } else { 0.0 },
    );
}

/// Sets the `session.*` counters likewise.
pub fn set_session_counts(out: &mut Metrics, deltas: &[(SessionStats, SessionStats)]) {
    let sum = |field: fn(&SessionStats) -> u64| -> f64 {
        deltas
            .iter()
            .map(|(before, after)| field(after) - field(before))
            .sum::<u64>() as f64
    };
    out.set("session.compiles", sum(|s| s.compiles));
    out.set("session.kernel_cache_hits", sum(|s| s.cache_hits));
    out.set("session.clusters_reused", sum(|s| s.clusters_reused));
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// Hits, and the (tier slot, code) pairs and ids of the never-seen
    /// specs, of one round of one client.
    fn round_mix<const HOT: bool>(
        w: &Serve<HOT>,
        client: usize,
        round: u64,
    ) -> (u64, BTreeSet<(u64, u64)>, Vec<u64>) {
        let (mut hits, mut pairs, mut ids) = (0, BTreeSet::new(), Vec::new());
        let rounds = Serve::<HOT>::ROUND;
        for k in round * rounds..(round + 1) * rounds {
            match w.request(client, k).1 {
                Asked::Hot(_) => hits += 1,
                Asked::New(id) => {
                    pairs.insert((id % TIERS_LEN, id % 3));
                    ids.push(id);
                }
            }
        }
        (hits, pairs, ids)
    }

    const TIERS_LEN: u64 = 5;

    #[test]
    fn every_round_of_a_client_is_the_same_mix() {
        let hot = ServeHot::setup(3, &mut Stages::start());
        let unique = ServeUnique::setup(3, &mut Stages::start());
        let mut seen = BTreeSet::new();
        for client in 0..2 {
            for round in 0..6 {
                let (hits, pairs, ids) = round_mix(&hot, client, round);
                assert_eq!(hits, MIX_PERIOD * (BLOCK - 1));
                assert_eq!(pairs.len() as u64, MIX_PERIOD);
                let (hits, pairs, unique_ids) = round_mix(&unique, client, round);
                assert_eq!((hits, pairs.len() as u64), (0, MIX_PERIOD));
                // No never-seen spec is sent twice, by either client.
                for id in ids {
                    assert!(seen.insert((true, id)), "serve_hot repeats {id}");
                }
                for id in unique_ids {
                    assert!(seen.insert((false, id)), "serve_unique repeats {id}");
                }
            }
        }
    }
}
