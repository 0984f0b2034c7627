//! TCP transport for a [`Server`]: the worker half of sharded serving.
//!
//! A [`NetServer`] puts a full serving stack behind a loopback (or any
//! TCP) listener: each accepted connection gets its own handler thread
//! that reads length-prefixed request frames (see
//! [`saris_codegen::wire`]), dispatches them against the wrapped
//! [`Server`], and writes one reply frame per request. A [`NetClient`]
//! is the matching connection wrapper the `saris-shard` coordinator
//! holds per worker.
//!
//! # Protocol
//!
//! Every frame is a `u32`-LE length prefix followed by a UTF-8 JSON
//! document. Requests are `{"op": ...}` objects; large payloads (specs,
//! outcomes, calibration exports) are embedded as *escaped JSON
//! strings* so each layer parses exactly one document:
//!
//! | request | reply |
//! |---|---|
//! | `{"op": "submit", "spec": "<spec json>"}` | `{"ok": "<outcome json>"}` or `{"err": {...}}` |
//! | `{"op": "export_calibration"}` | `{"calibration": "<store json>" \| null}` |
//! | `{"op": "import_calibration", "data": "<store json>"}` | `{"merged": n}` |
//! | `{"op": "ping"}` | `{"pong": true}` |
//!
//! A reply the client cannot attribute to a request (malformed frame,
//! unknown op) comes back as an `{"err": {"kind": "wire", ...}}`
//! object, which decodes to a **non-transient**
//! [`ServeError::Execution`] — the coordinator must not treat a bad
//! request as worker death. Transport-level failures (connection reset,
//! truncated frame) surface as [`std::io::Error`] and *are* the
//! worker-death signal the coordinator rehashes on.
//!
//! # Framing and latency
//!
//! A frame leaves in one `write` ([`write_frame`] coalesces the length
//! prefix with the payload) and **both** ends set `TCP_NODELAY`:
//! [`NetClient::connect`] on the socket it opens, the accept loop on
//! every socket it accepts. What the pair prevents is the
//! write-write-read stall: with the prefix written on its own and
//! Nagle's algorithm on, the payload is held until the prefix is
//! acknowledged, and the peer — which has nothing to send before the
//! frame is complete — delays that acknowledgement for its timer
//! (~40 ms on Linux). Measured on loopback, 50 `ping`s take 2.2 s that
//! way and 5 ms otherwise. Either measure alone cures a frame that fits
//! one segment; one write also costs a syscall and a packet less, and
//! `TCP_NODELAY` also covers the short last segment of a frame that
//! does not. Each end reads through a [`BufReader`], so a frame that
//! left in one write arrives in one `read`.
//!
//! # Delivery semantics
//!
//! One request frame is answered by exactly one reply frame, in order,
//! per connection. If the connection dies between dispatch and reply,
//! the caller cannot know whether the work executed — retrying on a
//! different shard gives *at-least-once* execution, which is safe here
//! because workload execution is deterministic and idempotent.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use saris_codegen::json::{self, JsonError, Value};
use saris_codegen::wire::{read_frame, write_frame, MAX_FRAME_LEN};
use saris_codegen::{
    decode_outcome, encode_outcome, encode_spec, CalibrationStore, CodegenError, Outcome,
    StencilInterner, WorkloadSpec,
};

use crate::{ServeError, ServeResult, Server, TIER_NAMES};

// ---------------------------------------------------------------------------
// ServeError wire codec
// ---------------------------------------------------------------------------

fn enc_serve_error(e: &ServeError) -> String {
    match e {
        ServeError::Execution(err) => {
            // Transient errors re-wrap as `CodegenError::Transient` on
            // decode, so carry the bare reason; everything else carries
            // its rendered message into `CodegenError::Remote`.
            let detail = match &**err {
                CodegenError::Transient { reason } => reason.clone(),
                other => other.to_string(),
            };
            format!(
                "{{\"kind\": \"execution\", \"transient\": {}, \"detail\": \"{}\"}}",
                err.is_transient(),
                json::escape(&detail)
            )
        }
        ServeError::BackendPanicked { message } => format!(
            "{{\"kind\": \"panicked\", \"message\": \"{}\"}}",
            json::escape(message)
        ),
        ServeError::DeadlineExceeded => "{\"kind\": \"deadline\"}".to_string(),
        ServeError::CircuitOpen { tier } => {
            format!("{{\"kind\": \"circuit\", \"tier\": \"{tier}\"}}")
        }
        ServeError::Quarantined => "{\"kind\": \"quarantined\"}".to_string(),
        ServeError::Spawn { reason } => format!(
            "{{\"kind\": \"spawn\", \"reason\": \"{}\"}}",
            json::escape(reason)
        ),
        ServeError::ShutDown => "{\"kind\": \"shutdown\"}".to_string(),
    }
}

fn wire_reply_err(reason: &str) -> String {
    format!(
        "{{\"err\": {{\"kind\": \"wire\", \"reason\": \"{}\"}}}}",
        json::escape(reason)
    )
}

fn dec_serve_error(v: &Value) -> Result<ServeError, JsonError> {
    let o = v.as_object("serve error")?;
    let kind = o
        .get("kind")
        .ok_or_else(|| json::error("serve error: missing kind"))?
        .as_str("error kind")?;
    match kind {
        "execution" => {
            let detail = o
                .get("detail")
                .ok_or_else(|| json::error("execution error: missing detail"))?
                .as_str("error detail")?
                .to_string();
            let transient = o
                .get("transient")
                .ok_or_else(|| json::error("execution error: missing transient flag"))?
                .as_bool("transient flag")?;
            // The structured `CodegenError` does not survive
            // serialization; what matters for the coordinator's retry
            // policy is only whether the failure was transient.
            let err = if transient {
                CodegenError::Transient { reason: detail }
            } else {
                CodegenError::Remote { detail }
            };
            Ok(ServeError::Execution(Arc::new(err)))
        }
        "wire" => {
            let reason = o
                .get("reason")
                .ok_or_else(|| json::error("wire error: missing reason"))?
                .as_str("wire reason")?
                .to_string();
            Ok(ServeError::Execution(Arc::new(CodegenError::Wire {
                reason,
            })))
        }
        "panicked" => Ok(ServeError::BackendPanicked {
            message: o
                .get("message")
                .ok_or_else(|| json::error("panic error: missing message"))?
                .as_str("panic message")?
                .to_string(),
        }),
        "deadline" => Ok(ServeError::DeadlineExceeded),
        "circuit" => {
            let tier = o
                .get("tier")
                .ok_or_else(|| json::error("circuit error: missing tier"))?
                .as_str("circuit tier")?;
            let tier = TIER_NAMES
                .iter()
                .find(|n| **n == tier)
                .copied()
                .ok_or_else(|| json::error(&format!("unknown breaker tier `{tier}`")))?;
            Ok(ServeError::CircuitOpen { tier })
        }
        "quarantined" => Ok(ServeError::Quarantined),
        "spawn" => Ok(ServeError::Spawn {
            reason: o
                .get("reason")
                .ok_or_else(|| json::error("spawn error: missing reason"))?
                .as_str("spawn reason")?
                .to_string(),
        }),
        "shutdown" => Ok(ServeError::ShutDown),
        other => Err(json::error(&format!("unknown serve error kind `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

struct NetShared {
    server: Server,
    stop: AtomicBool,
    /// One `try_clone` per live connection, keyed by the accept loop's
    /// connection id, kept so [`NetServer::kill`] can sever every
    /// conversation abruptly (worker-death simulation) and a clean
    /// shutdown can unblock handler threads. A handler removes its own
    /// entry when its connection ends, so the registry (and the
    /// descriptors its clones hold open) tracks live connections, not
    /// every connection ever accepted.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Specs this worker decodes share one `Arc<Stencil>` per code, so
    /// the response cache's keys do not each own a copy.
    stencils: StencilInterner,
}

impl NetShared {
    fn conns(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().expect("net connection registry lock")
    }

    fn sever_connections(&self) {
        for (_, conn) in self.conns().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// A [`Server`] listening on a TCP socket — one sharded-serving worker.
///
/// Spawning binds the listener and starts an accept thread; each
/// accepted connection is served by its own handler thread for the
/// connection's lifetime. Dropping the `NetServer` stops accepting,
/// severs open connections, and shuts the wrapped [`Server`] down
/// (waiting on in-flight work per
/// [`ServeConfig::shutdown_timeout`](crate::ServeConfig::shutdown_timeout)).
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Wraps `server` in a listener bound to `addr` (use
    /// `"127.0.0.1:0"` for an OS-assigned loopback port; the bound
    /// address is available via [`NetServer::addr`]).
    pub fn spawn(server: Server, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            server,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            stencils: StencilInterner::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("saris-net-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(NetServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address the listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped serving stack (for stats, session access, tests).
    pub fn server(&self) -> &Server {
        &self.shared.server
    }

    /// Kills the worker abruptly: stops accepting and severs every open
    /// connection mid-conversation, exactly what a crashed worker
    /// process looks like to its clients. The wrapped [`Server`] keeps
    /// its state (it is simply unreachable), so tests can still inspect
    /// it after the "crash".
    pub fn kill(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        self.shared.sever_connections();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.kill();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("stopped", &self.shared.stop.load(Ordering::Relaxed))
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<NetShared>) {
    for id in 0u64.. {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Replies must not wait behind Nagle for the client's delayed
        // ACK (see "Framing and latency"); a socket that cannot take
        // the option is already dead.
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        if let Ok(clone) = stream.try_clone() {
            shared.conns().insert(id, clone);
        }
        let handler_shared = Arc::clone(shared);
        // Handler threads exit when their connection closes (or is
        // severed by kill/drop), so detaching them cannot leak past
        // shutdown.
        let spawned = std::thread::Builder::new()
            .name("saris-net-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &handler_shared);
                handler_shared.conns().remove(&id);
            });
        if spawned.is_err() {
            shared.conns().remove(&id);
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &NetShared) {
    let mut reader = BufReader::new(stream);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(frame) => frame,
            Err(_) => return,
        };
        let reply = respond(shared, &frame);
        if write_frame(reader.get_mut(), reply.as_bytes()).is_err() {
            return;
        }
    }
}

fn respond(shared: &NetShared, frame: &[u8]) -> String {
    match try_respond(shared, frame) {
        Ok(reply) => reply,
        Err(e) => wire_reply_err(&e.reason),
    }
}

fn try_respond(shared: &NetShared, frame: &[u8]) -> Result<String, JsonError> {
    let text = std::str::from_utf8(frame).map_err(|_| json::error("request frame is not UTF-8"))?;
    let doc = json::parse(text)?;
    let o = doc.as_object("request")?;
    let op = o
        .get("op")
        .ok_or_else(|| json::error("request: missing op"))?
        .as_str("op")?;
    match op {
        "submit" => {
            let spec_text = o
                .get("spec")
                .ok_or_else(|| json::error("submit: missing spec"))?
                .as_str("spec")?;
            let spec = match shared.stencils.decode_spec(spec_text) {
                Ok(spec) => spec,
                Err(e) => {
                    // A spec the builder rejects is the requester's
                    // error, answered in-band — not a transport fault.
                    let err = ServeError::Execution(Arc::new(e));
                    return Ok(format!("{{\"err\": {}}}", enc_serve_error(&err)));
                }
            };
            Ok(match shared.server.submit(&spec) {
                Ok(outcome) => format!(
                    "{{\"ok\": \"{}\"}}",
                    json::escape(&encode_outcome(&outcome))
                ),
                Err(e) => format!("{{\"err\": {}}}", enc_serve_error(&e)),
            })
        }
        "export_calibration" => Ok(match shared.server.session().calibration() {
            Some(store) => format!(
                "{{\"calibration\": \"{}\"}}",
                json::escape(&store.to_json())
            ),
            None => "{\"calibration\": null}".to_string(),
        }),
        "import_calibration" => {
            let data = o
                .get("data")
                .ok_or_else(|| json::error("import_calibration: missing data"))?
                .as_str("calibration data")?;
            let incoming = CalibrationStore::from_json(data)
                .map_err(|e| json::error(&format!("calibration import rejected: {e}")))?;
            let merged = match shared.server.session().calibration() {
                Some(store) => store.merge(&incoming),
                None => 0,
            };
            Ok(format!("{{\"merged\": {merged}}}"))
        }
        "ping" => Ok("{\"pong\": true}".to_string()),
        other => Err(json::error(&format!("unknown op `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

fn invalid(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

/// One framed connection to a [`NetServer`] — the per-worker handle the
/// `saris-shard` coordinator routes requests through.
///
/// Every method is a blocking request/reply round trip. An `Err` from
/// any of them means the *transport* failed (the worker is dead or the
/// reply was garbage); a served-but-failed submission comes back as
/// `Ok(Err(ServeError))` instead, so callers can distinguish "rehash
/// onto another shard" from "this workload failed".
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    /// The read half: a clone of `stream` behind a buffer.
    reader: BufReader<TcpStream>,
}

impl NetClient {
    /// Connects to a worker.
    pub fn connect(addr: SocketAddr) -> io::Result<NetClient> {
        NetClient::over(TcpStream::connect(addr)?)
    }

    /// Connects with a timeout, for probing possibly-dead workers
    /// without blocking a coordinator thread on the OS connect timeout.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<NetClient> {
        NetClient::over(TcpStream::connect_timeout(&addr, timeout)?)
    }

    fn over(stream: TcpStream) -> io::Result<NetClient> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(NetClient { stream, reader })
    }

    fn round_trip(&mut self, request: &str) -> io::Result<Value> {
        write_frame(&mut self.stream, request.as_bytes())?;
        let reply = read_frame(&mut self.reader, MAX_FRAME_LEN)?;
        let text = std::str::from_utf8(&reply)
            .map_err(|_| invalid("reply frame is not UTF-8".to_string()))?;
        json::parse(text).map_err(|e| invalid(e.reason))
    }

    /// Submits a spec for remote execution.
    ///
    /// The outer `Result` is transport health; the inner one is the
    /// remote [`ServeResult`]. The decoded outcome carries
    /// `kernel: None` (compiled kernels never cross the wire).
    pub fn submit(&mut self, spec: &WorkloadSpec) -> io::Result<ServeResult> {
        let request = format!(
            "{{\"op\": \"submit\", \"spec\": \"{}\"}}",
            json::escape(&encode_spec(spec))
        );
        let doc = self.round_trip(&request)?;
        let o = doc
            .as_object("submit reply")
            .map_err(|e| invalid(e.reason))?;
        if let Some(ok) = o.get("ok") {
            let text = ok.as_str("outcome").map_err(|e| invalid(e.reason))?;
            let outcome: Outcome =
                decode_outcome(text).map_err(|e| invalid(format!("bad outcome reply: {e}")))?;
            return Ok(Ok(Arc::new(outcome)));
        }
        if let Some(err) = o.get("err") {
            return Ok(Err(dec_serve_error(err).map_err(|e| invalid(e.reason))?));
        }
        Err(invalid(
            "submit reply carries neither ok nor err".to_string(),
        ))
    }

    /// Fetches the worker's calibration store as JSON (`None` when its
    /// session runs without one).
    pub fn export_calibration(&mut self) -> io::Result<Option<String>> {
        let doc = self.round_trip("{\"op\": \"export_calibration\"}")?;
        let o = doc
            .as_object("export reply")
            .map_err(|e| invalid(e.reason))?;
        match o.get("calibration") {
            None => Err(invalid("export reply missing calibration".to_string())),
            Some(Value::Null) => Ok(None),
            Some(v) => Ok(Some(
                v.as_str("calibration")
                    .map_err(|e| invalid(e.reason))?
                    .to_string(),
            )),
        }
    }

    /// Merges a calibration export into the worker's live store
    /// (newest-confidence-wins; see
    /// [`CalibrationStore::merge`]). Returns how many entries the
    /// worker adopted.
    pub fn import_calibration(&mut self, data: &str) -> io::Result<usize> {
        let request = format!(
            "{{\"op\": \"import_calibration\", \"data\": \"{}\"}}",
            json::escape(data)
        );
        let doc = self.round_trip(&request)?;
        let o = doc
            .as_object("import reply")
            .map_err(|e| invalid(e.reason))?;
        match o.get("merged") {
            Some(v) => Ok(v.as_u64("merged count").map_err(|e| invalid(e.reason))? as usize),
            None => Err(invalid("import reply missing merged count".to_string())),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<bool> {
        let doc = self.round_trip("{\"op\": \"ping\"}")?;
        let o = doc.as_object("ping reply").map_err(|e| invalid(e.reason))?;
        match o.get("pong") {
            Some(v) => v.as_bool("pong").map_err(|e| invalid(e.reason)),
            None => Err(invalid("ping reply missing pong".to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use saris_codegen::{Fidelity, Workload};
    use saris_core::{gallery, Extent};

    fn worker() -> NetServer {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::with_config(config).expect("server");
        NetServer::spawn(server, "127.0.0.1:0").expect("net server")
    }

    #[test]
    fn submit_round_trips_over_loopback() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        assert!(client.ping().expect("ping"));

        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(7)
            .fidelity(Fidelity::Golden)
            .freeze()
            .expect("freeze");
        let remote = client.submit(&spec).expect("transport").expect("execution");
        // Bit-identical to answering the same spec locally.
        let local = net.server().submit(&spec).expect("local execution");
        assert_eq!(remote.grids.len(), local.grids.len());
        for (a, b) in remote.grids[0]
            .as_slice()
            .iter()
            .zip(local.grids[0].as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(remote.kernel.is_none());
    }

    #[test]
    fn bad_requests_answer_in_band_and_do_not_kill_the_connection() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");

        // A garbage frame gets a wire error reply, not a hangup.
        write_frame(&mut client.stream, b"not json").expect("write");
        let reply = read_frame(&mut client.stream, MAX_FRAME_LEN).expect("read");
        let doc = json::parse(std::str::from_utf8(&reply).expect("utf8")).expect("parse");
        let err = dec_serve_error(doc.as_object("reply").unwrap().get("err").expect("err"))
            .expect("decode");
        match &err {
            ServeError::Execution(e) => assert!(!e.is_transient()),
            other => panic!("expected an execution error, got {other}"),
        }

        // The connection still works afterwards.
        assert!(client.ping().expect("ping"));
    }

    #[test]
    fn kill_severs_clients_mid_conversation() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        assert!(client.ping().expect("ping"));
        net.kill();
        let spec = Workload::new(gallery::j2d5pt())
            .extent(Extent::new_2d(16, 16))
            .input_seed(1)
            .fidelity(Fidelity::Golden)
            .freeze()
            .expect("freeze");
        assert!(
            client.submit(&spec).is_err(),
            "dead worker must surface as a transport error"
        );
        assert!(NetClient::connect(net.addr()).map_or(true, |mut c| c.ping().is_err()));
    }

    #[test]
    fn serve_errors_round_trip() {
        let cases = [
            ServeError::DeadlineExceeded,
            ServeError::Quarantined,
            ServeError::ShutDown,
            ServeError::CircuitOpen { tier: "cycles" },
            ServeError::BackendPanicked {
                message: "boom \"quoted\"".to_string(),
            },
            ServeError::Spawn {
                reason: "no threads".to_string(),
            },
            ServeError::Execution(Arc::new(CodegenError::Transient {
                reason: "wedged cluster".to_string(),
            })),
            ServeError::Execution(Arc::new(CodegenError::NoCandidates)),
        ];
        for case in &cases {
            let doc = json::parse(&enc_serve_error(case)).expect("parse");
            let decoded = dec_serve_error(&doc).expect("decode");
            match (case, &decoded) {
                (ServeError::Execution(a), ServeError::Execution(b)) => {
                    assert_eq!(a.is_transient(), b.is_transient());
                    if a.is_transient() {
                        assert_eq!(a.to_string(), b.to_string());
                    }
                }
                _ => assert_eq!(case.to_string(), decoded.to_string()),
            }
        }
    }

    #[test]
    fn ping_round_trips_do_not_wait_for_a_delayed_ack() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        let start = std::time::Instant::now();
        for _ in 0..50 {
            assert!(client.ping().expect("ping"));
        }
        // ~5 ms when every frame is sent at once; 2.2 s when each reply
        // sits out the client's 44 ms delayed ACK. Not a timing gate:
        // the two cases are a factor of 400 apart.
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "50 pings took {elapsed:?}"
        );
    }

    #[test]
    fn hung_up_connections_leave_the_registry() {
        let net = worker();
        for _ in 0..200 {
            let mut client = NetClient::connect(net.addr()).expect("connect");
            assert!(client.ping().expect("ping"));
        }
        // Each handler deregisters when it reads its client's EOF; that
        // is asynchronous, so wait for it — bounded, and long only when
        // the registry leaks.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !net.shared.conns().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "{} connections still registered after their clients hung up",
                net.shared.conns().len()
            );
            std::thread::yield_now();
        }
        let mut client = NetClient::connect(net.addr()).expect("connect");
        assert!(client.ping().expect("ping"));
        assert_eq!(net.shared.conns().len(), 1);
    }

    #[test]
    fn decoded_specs_share_one_stencil_per_code() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        let spec = |stencil, seed| {
            Workload::new(stencil)
                .extent(Extent::new_2d(16, 16))
                .input_seed(seed)
                .fidelity(Fidelity::Golden)
                .freeze()
                .expect("freeze")
        };
        for seed in [1, 2] {
            let submitted = spec(gallery::jacobi_2d(), seed);
            client
                .submit(&submitted)
                .expect("transport")
                .expect("execution");
        }
        let decode = |spec: &WorkloadSpec| {
            let decoded = net.shared.stencils.decode_spec(&encode_spec(spec));
            Arc::clone(decoded.expect("decode").stencil().expect("stencil spec"))
        };
        let a = decode(&spec(gallery::jacobi_2d(), 3));
        let b = decode(&spec(gallery::jacobi_2d(), 4));
        assert!(Arc::ptr_eq(&a, &b));
        // The table, `a` and `b` are three owners; the rest are the
        // submitted specs the server still holds as cache keys, which
        // came through the same table.
        assert!(Arc::strong_count(&a) > 3);
        assert!(!Arc::ptr_eq(&a, &decode(&spec(gallery::j2d5pt(), 1))));
    }
}
