//! # saris-shard — sharded serving over networked `saris-serve` workers
//!
//! The single-process serving stack tops out at one machine's worth of
//! request handling. This crate crosses the process boundary with the
//! two pieces `WorkloadSpec` and `CalibrationStore` were designed for
//! (self-contained, hashable, bit-exact JSON):
//!
//! * a [`ShardWorker`] — today's full `saris-serve` stack (scheduler,
//!   GreedyDual response cache, circuit breakers) behind a TCP listener
//!   ([`saris_serve::NetServer`]), speaking the length-prefixed wire
//!   protocol from [`saris_codegen::wire`];
//! * a [`Coordinator`] — a consistent-hash router that owns one framed
//!   connection per worker and routes every spec by its fingerprint.
//!
//! **Fingerprint-affine routing** is the point: all submissions of one
//! spec land on one shard, so that shard's response cache answers
//! repeats, its kernel cache holds the stencil family's compiled
//! kernels, and its calibration store stays hot for the families it
//! owns — warmed throughput then scales with shard count instead of
//! re-paying cache misses everywhere (the placement argument of the
//! paper's scale-out extrapolation). The ring places 256 virtual nodes
//! per shard, so losing a worker moves *only that worker's* keyspace
//! onto its ring successors; every other spec keeps its warm shard.
//! Ring positions, like the fingerprints routed on them, are stable keys
//! ([`saris_core::key`]): coordinators built apart, on any host and
//! toolchain, send a spec to the same shard.
//!
//! **Worker death** is detected as transport failure (connection reset,
//! truncated frame) or an in-band remote `ShutDown`. The coordinator
//! answers with the serving layer's existing vocabulary: bounded
//! retry-with-backoff on the same shard first (transient blips), then
//! the shard is marked dead and the spec **rehashes** onto the next
//! live shard. Execution is deterministic and idempotent, so the
//! resulting at-least-once delivery is safe.
//!
//! **Calibration gossip** ([`Coordinator::gossip_round`]) periodically
//! exports every live shard's calibration store, folds them together
//! with newest-confidence-wins merge ([`CalibrationStore::merge`]),
//! and re-imports the union everywhere — a cycle-tier observation on
//! shard A then answers `Fidelity::Auto` requests analytically on
//! shard B.
//!
//! ```no_run
//! use saris_codegen::{Fidelity, Workload};
//! use saris_core::{gallery, Extent};
//! use saris_serve::Server;
//! use saris_shard::{Coordinator, ShardWorker};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workers: Vec<ShardWorker> = (0..4)
//!     .map(|_| ShardWorker::spawn(Server::new().expect("server")))
//!     .collect::<std::io::Result<_>>()?;
//! let coordinator = Coordinator::over(&workers)?;
//! let spec = Workload::new(gallery::jacobi_2d())
//!     .extent(Extent::new_2d(32, 32))
//!     .input_seed(7)
//!     .fidelity(Fidelity::Golden)
//!     .freeze()?;
//! let outcome = coordinator.submit(&spec)?;
//! assert_eq!(outcome.fingerprint, spec.fingerprint());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use saris_codegen::{CalibrationStore, WorkloadSpec};
use saris_core::key::key_of;
use saris_serve::{NetClient, NetServer, ServeError, ServeResult, Server};

/// Virtual nodes per shard on the hash ring. Enough that one shard's
/// keyspace is spread over many small arcs (so request load balances
/// to within a few percent and a death redistributes evenly) without
/// making ring construction or lookup measurable.
const VNODES_PER_SHARD: usize = 256;

/// Transport-failure retries against the *same* shard before it is
/// declared dead (transient-blip absorption, mirroring
/// `ServeConfig::max_retries`): one reconnect attempt distinguishes a
/// dropped connection from a dead worker without stalling rehash.
const SHARD_RETRIES: u32 = 1;

/// Rehash attempts onto successive live shards after a death before
/// giving up with [`ServeError::ShutDown`]: with fewer shards than
/// that the request has visited every live shard already; more only
/// delays the inevitable.
const MAX_REHASHES: u32 = 4;

/// Backoff before the first retry; doubles per subsequent attempt (the
/// serving layer's `retry_backoff` vocabulary). Worker failures here are
/// process-scale, not WAN-scale.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Timeout for (re)connecting to a shard, so routing around a dead
/// worker is not gated on the OS connect timeout; the breaker cooldown
/// scale.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// One sharded-serving worker: a full [`Server`] behind a TCP listener.
///
/// In production each worker would be its own process on its own
/// machine; here it is its own threads behind its own socket, which
/// exercises the identical wire path and lets tests and benchmarks
/// [`kill`](ShardWorker::kill) one mid-stream.
#[derive(Debug)]
pub struct ShardWorker {
    net: NetServer,
}

impl ShardWorker {
    /// Puts `server` behind an OS-assigned loopback port.
    pub fn spawn(server: Server) -> io::Result<ShardWorker> {
        NetServer::spawn(server, "127.0.0.1:0").map(|net| ShardWorker { net })
    }

    /// The worker's listening address (hand these to
    /// [`Coordinator::connect`]).
    pub fn addr(&self) -> SocketAddr {
        self.net.addr()
    }

    /// The wrapped serving stack, for stats and session inspection.
    pub fn server(&self) -> &Server {
        self.net.server()
    }

    /// Crashes the worker: stops accepting and severs every open
    /// connection mid-conversation. Clients observe exactly what a
    /// dead process looks like.
    pub fn kill(&self) {
        self.net.kill();
    }
}

/// Counters describing what a [`Coordinator`] did so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Requests routed to each shard (by shard index), successful or
    /// not.
    pub routed: Vec<u64>,
    /// Same-shard transport retries.
    pub retries: u64,
    /// Requests that moved to another shard after a death.
    pub rehashes: u64,
    /// Calibration entries adopted across all shards by
    /// [`Coordinator::gossip_round`] calls.
    pub gossip_adopted: u64,
}

struct Shard {
    addr: SocketAddr,
    alive: AtomicBool,
    conn: Mutex<Option<NetClient>>,
    routed: AtomicU64,
}

/// Consistent-hash router over a fixed set of [`ShardWorker`]
/// addresses.
///
/// Thread-safe: any number of threads may [`submit`](Coordinator::submit)
/// concurrently. Each shard is served over one framed connection, so
/// the round trips of requests to the same shard serialize — which
/// models a single-core worker honestly and is exactly the regime the
/// sharded throughput benchmark measures scaling in. Encoding the
/// request and decoding the reply happen outside that connection's
/// lock, on the submitting thread's own time.
pub struct Coordinator {
    shards: Vec<Shard>,
    /// Ring position → shard index. Routing walks clockwise from the
    /// spec fingerprint's ring point to the first *live* shard.
    ring: BTreeMap<u64, usize>,
    retries: AtomicU64,
    rehashes: AtomicU64,
    gossip_adopted: AtomicU64,
}

impl Coordinator {
    /// Connects to every worker in `workers` (convenience over
    /// [`Coordinator::connect`]).
    pub fn over(workers: &[ShardWorker]) -> io::Result<Coordinator> {
        let addrs: Vec<SocketAddr> = workers.iter().map(ShardWorker::addr).collect();
        Coordinator::connect(&addrs)
    }

    /// Connects to every address, pinging each worker so a bad address
    /// fails construction instead of the first request.
    pub fn connect(addrs: &[SocketAddr]) -> io::Result<Coordinator> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a coordinator needs at least one shard",
            ));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        for &addr in addrs {
            let mut client = NetClient::connect_timeout(addr, CONNECT_TIMEOUT)?;
            client.ping()?;
            shards.push(Shard {
                addr,
                alive: AtomicBool::new(true),
                conn: Mutex::new(Some(client)),
                routed: AtomicU64::new(0),
            });
        }
        let mut ring = BTreeMap::new();
        for (index, _) in shards.iter().enumerate() {
            for vnode in 0..VNODES_PER_SHARD {
                ring.insert(key_of(&(index as u64, vnode as u64)), index);
            }
        }
        Ok(Coordinator {
            shards,
            ring,
            retries: AtomicU64::new(0),
            rehashes: AtomicU64::new(0),
            gossip_adopted: AtomicU64::new(0),
        })
    }

    /// The shard a fingerprint routes to right now (`None` when every
    /// shard is dead). Pure ring lookup — no I/O.
    pub fn route(&self, fingerprint: u64) -> Option<usize> {
        let point = key_of(&(fingerprint, u64::MAX));
        self.ring
            .range(point..)
            .chain(self.ring.range(..point))
            .map(|(_, &index)| index)
            .find(|&index| self.shards[index].alive.load(Ordering::SeqCst))
    }

    /// Shards still considered alive.
    pub fn live_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .count()
    }

    /// Counters so far.
    pub fn stats(&self) -> CoordinatorStats {
        CoordinatorStats {
            routed: self
                .shards
                .iter()
                .map(|s| s.routed.load(Ordering::SeqCst))
                .collect(),
            retries: self.retries.load(Ordering::SeqCst),
            rehashes: self.rehashes.load(Ordering::SeqCst),
            gossip_adopted: self.gossip_adopted.load(Ordering::SeqCst),
        }
    }

    /// Routes `spec` to its fingerprint's shard and returns the remote
    /// answer.
    ///
    /// Transport failures retry the same shard (once, after a 1 ms
    /// backoff that doubles per attempt), then mark it dead and rehash
    /// onto the next live shard — every accepted request resolves as a
    /// success or an explicit [`ServeError`]; only when the rehash
    /// budget (four) is exhausted or no live shard remains does it give
    /// up with [`ServeError::ShutDown`].
    pub fn submit(&self, spec: &WorkloadSpec) -> ServeResult {
        // Encoded once, whatever the number of attempts, and — like the
        // decode in `submit_to` — outside every shard's connection lock.
        let request = NetClient::encode_submit(spec);
        let mut backoff = RETRY_BACKOFF;
        let mut rehashes = 0u32;
        let mut attempts_on_shard = 0u32;
        loop {
            let Some(index) = self.route(spec.fingerprint()) else {
                return Err(ServeError::ShutDown);
            };
            self.shards[index].routed.fetch_add(1, Ordering::SeqCst);
            match self.submit_to(index, request.as_bytes()) {
                // A remote `ShutDown` means that worker's serving stack
                // is going away — treat it like a death, not an answer.
                Ok(Err(ServeError::ShutDown)) => {}
                Ok(result) => return result,
                Err(_) => {
                    attempts_on_shard += 1;
                    if attempts_on_shard <= SHARD_RETRIES {
                        self.retries.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                        continue;
                    }
                }
            }
            self.shards[index].alive.store(false, Ordering::SeqCst);
            attempts_on_shard = 0;
            rehashes += 1;
            if rehashes > MAX_REHASHES {
                return Err(ServeError::ShutDown);
            }
            self.rehashes.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
    }

    /// One attempt on one shard. The shard's connection is held for the
    /// exchange of the two frames and no longer: the reply is decoded
    /// after it is released, so submitters routed to one shard wait for
    /// each other's round trips, not for each other's codec work. A
    /// reply that does not decode is that shard's failure like a broken
    /// connection is.
    fn submit_to(&self, index: usize, request: &[u8]) -> io::Result<ServeResult> {
        let shard = &self.shards[index];
        let mut conn = shard.conn.lock().expect("shard connection lock");
        if conn.is_none() {
            *conn = Some(NetClient::connect_timeout(shard.addr, CONNECT_TIMEOUT)?);
        }
        let client = conn.as_mut().expect("connection just established");
        let reply = client.exchange(request);
        if reply.is_err() {
            // A broken connection never carries another request.
            *conn = None;
        }
        drop(conn);
        NetClient::decode_submit_reply(&reply?)
    }

    fn for_each_live<T>(
        &self,
        mut op: impl FnMut(&mut NetClient) -> io::Result<T>,
        mut on_ok: impl FnMut(usize, T),
    ) {
        for (index, shard) in self.shards.iter().enumerate() {
            if !shard.alive.load(Ordering::SeqCst) {
                continue;
            }
            let mut conn = shard.conn.lock().expect("shard connection lock");
            if conn.is_none() {
                match NetClient::connect_timeout(shard.addr, CONNECT_TIMEOUT) {
                    Ok(client) => *conn = Some(client),
                    Err(_) => {
                        shard.alive.store(false, Ordering::SeqCst);
                        continue;
                    }
                }
            }
            let client = conn.as_mut().expect("connection just established");
            match op(client) {
                Ok(value) => on_ok(index, value),
                Err(_) => {
                    *conn = None;
                    shard.alive.store(false, Ordering::SeqCst);
                }
            }
        }
    }

    /// One calibration gossip round: export every live shard's store,
    /// fold the exports together with newest-confidence-wins merge
    /// ([`CalibrationStore::merge`]), and re-import the union into
    /// every live shard. Returns how many entries were adopted across
    /// all shards (0 when stores already agree — the round is
    /// idempotent).
    ///
    /// Shards whose transport fails mid-round are marked dead and
    /// skipped; gossip never blocks serving correctness, it only warms
    /// analytic answers.
    pub fn gossip_round(&self) -> usize {
        let mut exports: Vec<String> = Vec::new();
        self.for_each_live(
            |client| client.export_calibration(),
            |_, export| exports.extend(export),
        );
        let mut merged: Option<CalibrationStore> = None;
        for export in &exports {
            let Ok(store) = CalibrationStore::from_json(export) else {
                continue;
            };
            match &merged {
                None => merged = Some(store),
                Some(union) => {
                    union.merge(&store);
                }
            }
        }
        let Some(union) = merged else {
            return 0;
        };
        let payload = union.to_json();
        let mut adopted = 0usize;
        self.for_each_live(
            |client| client.import_calibration(&payload),
            |_, n| adopted += n,
        );
        self.gossip_adopted
            .fetch_add(adopted as u64, Ordering::SeqCst);
        adopted
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("shards", &self.shards.len())
            .field("live", &self.live_shards())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring-only coordinator (no sockets) for routing tests.
    fn ring_only(n: usize) -> Coordinator {
        let shards = (0..n)
            .map(|i| Shard {
                addr: SocketAddr::from(([127, 0, 0, 1], 1 + i as u16)),
                alive: AtomicBool::new(true),
                conn: Mutex::new(None),
                routed: AtomicU64::new(0),
            })
            .collect::<Vec<_>>();
        let mut ring = BTreeMap::new();
        for (index, _) in shards.iter().enumerate() {
            for vnode in 0..VNODES_PER_SHARD {
                ring.insert(key_of(&(index as u64, vnode as u64)), index);
            }
        }
        Coordinator {
            shards,
            ring,
            retries: AtomicU64::new(0),
            rehashes: AtomicU64::new(0),
            gossip_adopted: AtomicU64::new(0),
        }
    }

    #[test]
    fn routing_is_affine_and_spread() {
        let coordinator = ring_only(4);
        let mut per_shard = [0usize; 4];
        for fingerprint in 0..512u64 {
            let a = coordinator.route(fingerprint).expect("live shard");
            let b = coordinator.route(fingerprint).expect("live shard");
            assert_eq!(a, b, "routing must be deterministic");
            per_shard[a] += 1;
        }
        for (shard, &count) in per_shard.iter().enumerate() {
            assert!(
                count >= 512 / 16,
                "shard {shard} owns only {count}/512 keys — ring badly unbalanced: {per_shard:?}"
            );
        }
    }

    #[test]
    fn a_death_moves_only_the_dead_shards_keys() {
        let coordinator = ring_only(4);
        let before: Vec<usize> = (0..512u64)
            .map(|f| coordinator.route(f).expect("live shard"))
            .collect();
        coordinator.shards[2].alive.store(false, Ordering::SeqCst);
        let mut moved = 0;
        for (fingerprint, &owner) in before.iter().enumerate() {
            let after = coordinator.route(fingerprint as u64).expect("live shard");
            if owner == 2 {
                assert_ne!(after, 2, "dead shard must not be routed to");
                moved += 1;
            } else {
                assert_eq!(
                    after, owner,
                    "key {fingerprint} moved off a live shard — not consistent hashing"
                );
            }
        }
        assert!(moved > 0, "shard 2 owned no keys at all");
    }

    /// Ring positions and routes are stable keys: coordinators built
    /// apart, on any host, route a spec to the same shard.
    #[test]
    fn ring_positions_and_routes_are_pinned() {
        let points = [(0u64, 0u64), (3, 255), (12_345, u64::MAX)].map(|p| key_of(&p));
        assert_eq!(
            points,
            [
                0x32ca_ecc2_8017_2976,
                0x0e58_3b99_8444_6dac,
                0xd9f1_9ab1_e15a_8bf7
            ]
        );
        let coordinator = ring_only(4);
        let routes: Vec<usize> = (0..16u64)
            .map(|f| coordinator.route(f).expect("live shard"))
            .collect();
        assert_eq!(routes, [1, 3, 1, 3, 3, 0, 1, 2, 0, 3, 3, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn all_dead_routes_nowhere() {
        let coordinator = ring_only(2);
        for shard in &coordinator.shards {
            shard.alive.store(false, Ordering::SeqCst);
        }
        assert_eq!(coordinator.route(7), None);
        assert_eq!(coordinator.live_shards(), 0);
    }
}
