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
//! document. Requests are `{"op": ...}` objects, and the documents they
//! carry (specs, outcomes, calibration exports) are **nested as
//! values**, not escaped into strings: no byte is escaped on one side
//! to be unescaped and tokenised a second time on the other. A reply is
//! encoded straight into the buffer it is framed from and decoded where
//! it lies in the frame; a request's embedded document is passed over
//! once by the envelope (validated, nothing converted) and decoded once
//! from that slice of the frame:
//!
//! | request | reply |
//! |---|---|
//! | `{"version": 2, "op": "submit", "spec": {<spec>}}` | `{"version": 2, "ok": {<outcome>}}` or `{"version": 2, "err": {...}}` |
//! | `{"version": 2, "op": "export_calibration"}` | `{"version": 2, "calibration": {<store>} \| null}` |
//! | `{"version": 2, "op": "import_calibration", "data": {<store>}}` | `{"version": 2, "merged": n}` |
//! | `{"version": 2, "op": "ping"}` | `{"version": 2, "pong": true}` |
//!
//! Keys may come in any order (`spec` before `op` is served all the
//! same) and unknown keys are ignored. A frame may nest objects and
//! arrays [`json::MAX_DEPTH`] deep, envelope included — four times what
//! the deepest reply needs; a deeper one is refused by the reader
//! before anything recurses into it.
//!
//! # Versions
//!
//! Every envelope carries the document format's version,
//! [`FRAME_VERSION`]; there is no second encoding. A request of another
//! version, or of none (a peer built before frames had one, version 1),
//! is answered `{"version": 2, "err": {"kind": "wire", ...}}` naming
//! both versions, and a reply of another version decodes to the same
//! non-transient [`ServeError::Execution`] without its answer being
//! read: a mismatched peer is refused in-band, never mis-decoded, and
//! the coordinator neither retries nor rehashes on it.
//!
//! A reply's version comes before its answer, which is decoded where it
//! lies once the version has said how; an answer ahead of the version
//! is passed over, so such a reply carries none. Requests are read
//! whole before they are served, so their keys keep any order.
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

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use saris_codegen::json::{self, JsonError, Reader};
use saris_codegen::wire::{
    decode_outcome_from, encode_outcome_into, encode_spec_into, read_frame, write_frame,
    FRAME_ENVELOPE, FRAME_VERSION, MAX_FRAME_LEN,
};
use saris_codegen::{CalibrationStore, CodegenError, StencilInterner, WorkloadSpec};

use crate::{panic_message, ServeError, ServeResult, Server, TIER_NAMES};

// ---------------------------------------------------------------------------
// ServeError wire codec
// ---------------------------------------------------------------------------

/// Appends `"key": "<escaped text>"` (no braces, no separator).
fn enc_text(out: &mut String, key: &str, text: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\": \"");
    json::escape_into(out, text);
    out.push('"');
}

fn enc_serve_error(out: &mut String, e: &ServeError) {
    out.push_str("{\"kind\": ");
    match e {
        ServeError::Execution(err) => {
            out.push_str("\"execution\", \"transient\": ");
            out.push_str(if err.is_transient() { "true" } else { "false" });
            out.push_str(", ");
            // Transient errors re-wrap as `CodegenError::Transient` on
            // decode, so carry the bare reason; everything else carries
            // its rendered message into `CodegenError::Remote`.
            match &**err {
                CodegenError::Transient { reason } => enc_text(out, "detail", reason),
                other => enc_text(out, "detail", &other.to_string()),
            }
        }
        ServeError::BackendPanicked { message } => {
            out.push_str("\"panicked\", ");
            enc_text(out, "message", message);
        }
        ServeError::DeadlineExceeded => out.push_str("\"deadline\""),
        ServeError::CircuitOpen { tier } => {
            out.push_str("\"circuit\", ");
            enc_text(out, "tier", tier);
        }
        ServeError::Quarantined => out.push_str("\"quarantined\""),
        ServeError::Spawn { reason } => {
            out.push_str("\"spawn\", ");
            enc_text(out, "reason", reason);
        }
        ServeError::ShutDown => out.push_str("\"shutdown\""),
    }
    out.push('}');
}

/// Why a frame whose envelope says `version` is refused, naming both
/// versions; `None` for this build's.
fn version_mismatch(version: Option<u64>, what: &str) -> Option<String> {
    let theirs = match version {
        Some(FRAME_VERSION) => return None,
        Some(v) => format!("is frame version {v}"),
        None => "carries no version (frame version 1)".to_string(),
    };
    Some(format!(
        "{what} {theirs}; this peer speaks frame version {FRAME_VERSION}"
    ))
}

/// Appends an `"err"` member of kind `wire` and closes the envelope.
fn wire_reply_err(out: &mut String, reason: &str) {
    out.push_str("\"err\": {\"kind\": \"wire\", ");
    enc_text(out, "reason", reason);
    out.push_str("}}");
}

fn dec_serve_error(r: &mut Reader<'_>) -> Result<ServeError, JsonError> {
    let (mut kind, mut transient) = (None, None);
    let (mut detail, mut reason, mut message, mut tier) = (None, None, None, None);
    r.begin_object("serve error")?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "kind" => kind = Some(r.str("error kind")?),
            "transient" => transient = Some(r.bool("transient flag")?),
            "detail" => detail = Some(r.str("error detail")?),
            "reason" => reason = Some(r.str("error reason")?),
            "message" => message = Some(r.str("panic message")?),
            "tier" => tier = Some(r.str("circuit tier")?),
            _ => r.skip_value()?,
        }
    }
    let kind = kind.ok_or_else(|| json::error("serve error: missing kind"))?;
    let text = |field: Option<Cow<'_, str>>, missing: &str| {
        field
            .map(Cow::into_owned)
            .ok_or_else(|| json::error(missing))
    };
    match &*kind {
        "execution" => {
            let detail = text(detail, "execution error: missing detail")?;
            let transient =
                transient.ok_or_else(|| json::error("execution error: missing transient flag"))?;
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
        "wire" => Ok(ServeError::Execution(Arc::new(CodegenError::Wire {
            reason: text(reason, "wire error: missing reason")?,
        }))),
        "panicked" => Ok(ServeError::BackendPanicked {
            message: text(message, "panic error: missing message")?,
        }),
        "deadline" => Ok(ServeError::DeadlineExceeded),
        "circuit" => {
            let tier = tier.ok_or_else(|| json::error("circuit error: missing tier"))?;
            let tier = TIER_NAMES
                .iter()
                .find(|n| **n == tier)
                .copied()
                .ok_or_else(|| json::error(&format!("unknown breaker tier `{tier}`")))?;
            Ok(ServeError::CircuitOpen { tier })
        }
        "quarantined" => Ok(ServeError::Quarantined),
        "spawn" => Ok(ServeError::Spawn {
            reason: text(reason, "spawn error: missing reason")?,
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
    /// shutdown can unblock handler threads. A handler's [`Registered`]
    /// guard removes its entry when the handler ends, so the registry
    /// (and the descriptors its clones hold open) tracks live
    /// connections, not every connection ever accepted.
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
/// (waiting on in-flight work for at most five seconds).
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
                let _entry = Registered {
                    shared: &handler_shared,
                    id,
                };
                handle_connection(stream, &handler_shared);
            });
        if spawned.is_err() {
            shared.conns().remove(&id);
        }
    }
}

/// A connection's registry entry, removed when its handler ends — by
/// unwinding too, so the clone cannot hold the socket open past the
/// handler and leave its peer waiting for a reply that never comes.
struct Registered<'a> {
    shared: &'a NetShared,
    id: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        let mut conns = self
            .shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        conns.remove(&self.id);
    }
}

fn handle_connection(stream: TcpStream, shared: &NetShared) {
    let mut reader = BufReader::new(stream);
    // Every reply of the connection is encoded into this one buffer.
    let mut reply = String::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(frame) => frame,
            Err(_) => return,
        };
        isolated(&shared.server, &mut reply, |reply| {
            respond(shared, &frame, reply)
        });
        if write_frame(reader.get_mut(), reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// Runs `respond`, which leaves a reply in `reply`. A panic on the way
/// is answered as [`ServeError::BackendPanicked`] and booked in
/// [`ServeStats::panics`](crate::ServeStats::panics), as a panicking
/// execution is.
fn isolated(server: &Server, reply: &mut String, respond: impl FnOnce(&mut String)) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| respond(&mut *reply))) {
        server.book_panic();
        reply.clear();
        reply.push_str(FRAME_ENVELOPE);
        reply.push_str("\"err\": ");
        let message = format!("request handler: {}", panic_message(payload.as_ref()));
        enc_serve_error(reply, &ServeError::BackendPanicked { message });
        reply.push('}');
    }
}

/// Leaves the reply to `frame` in `reply`.
fn respond(shared: &NetShared, frame: &[u8], reply: &mut String) {
    reply.clear();
    reply.push_str(FRAME_ENVELOPE);
    if let Err(e) = try_respond(shared, frame, reply) {
        reply.truncate(FRAME_ENVELOPE.len());
        wire_reply_err(reply, &e.reason);
    }
}

/// Appends the reply's answer to `reply`, which holds the envelope's
/// version, and closes it.
fn try_respond(shared: &NetShared, frame: &[u8], reply: &mut String) -> Result<(), JsonError> {
    let text = std::str::from_utf8(frame).map_err(|_| json::error("request frame is not UTF-8"))?;
    // The embedded documents are passed over (validated, bounded) and
    // handed to their decoders as slices of the frame once the version
    // and `op` are known, so the keys may come in any order.
    let (mut version, mut op, mut spec, mut data) = (None, None, None, None);
    let mut r = Reader::new(text);
    r.begin_object("request")?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "version" => version = Some(r.u64("request version")?),
            "op" => op = Some(r.str("op")?),
            "spec" => spec = Some(r.raw_value()?),
            "data" => data = Some(r.raw_value()?),
            _ => r.skip_value()?,
        }
    }
    r.finish()?;
    if let Some(reason) = version_mismatch(version, "request") {
        return Err(json::error(&reason));
    }
    match &*op.ok_or_else(|| json::error("request: missing op"))? {
        "submit" => {
            let spec = spec.ok_or_else(|| json::error("submit: missing spec"))?;
            // A spec the builder rejects is the requester's error,
            // answered in-band — not a transport fault.
            let result = shared
                .stencils
                .decode_spec(spec)
                .map_err(|e| ServeError::Execution(Arc::new(e)))
                .and_then(|spec| shared.server.submit(&spec));
            match result {
                Ok(outcome) => {
                    reply.push_str("\"ok\": ");
                    encode_outcome_into(reply, &outcome);
                }
                Err(e) => {
                    reply.push_str("\"err\": ");
                    enc_serve_error(reply, &e);
                }
            }
            reply.push('}');
        }
        "export_calibration" => {
            reply.push_str("\"calibration\": ");
            match shared.server.session().calibration() {
                Some(store) => reply.push_str(&store.to_json()),
                None => reply.push_str("null"),
            }
            reply.push('}');
        }
        "import_calibration" => {
            let data = data.ok_or_else(|| json::error("import_calibration: missing data"))?;
            let incoming = CalibrationStore::from_json(data)
                .map_err(|e| json::error(&format!("calibration import rejected: {e}")))?;
            let merged = match shared.server.session().calibration() {
                Some(store) => store.merge(&incoming),
                None => 0,
            };
            write!(reply, "\"merged\": {merged}}}").expect("writing to a String cannot fail");
        }
        "ping" => reply.push_str("\"pong\": true}"),
        other => return Err(json::error(&format!("unknown op `{other}`"))),
    }
    Ok(())
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

    /// The request frame's payload for submitting `spec`: the first of
    /// the three steps [`NetClient::submit`] is made of. Needs no
    /// connection, so a caller sharing one can encode before taking it.
    pub fn encode_submit(spec: &WorkloadSpec) -> String {
        let mut request = String::with_capacity(2048);
        request.push_str(FRAME_ENVELOPE);
        request.push_str("\"op\": \"submit\", \"spec\": ");
        encode_spec_into(&mut request, spec);
        request.push('}');
        request
    }

    /// Sends one request frame and reads the one reply frame that
    /// answers it — the only step that needs the connection. An `Err`
    /// means the connection is broken and must carry nothing further.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, request)?;
        read_frame(&mut self.reader, MAX_FRAME_LEN)
    }

    /// Decodes the reply frame to a `submit`: the remote [`ServeResult`],
    /// or `Err` for a reply that is not one — which a caller treats as
    /// it treats a failed [`exchange`](NetClient::exchange). A reply of
    /// another frame version is an answer, not a broken reply: a
    /// non-transient [`ServeError::Execution`] naming both versions.
    pub fn decode_submit_reply(reply: &[u8]) -> io::Result<ServeResult> {
        let (mut version, mut ok, mut err) = (None, None, None);
        read_reply(reply, "submit reply", |key, r| {
            match key {
                "version" => version = Some(r.u64("reply version")?),
                "ok" if version == Some(FRAME_VERSION) => ok = Some(decode_outcome_from(r)?),
                "err" if version == Some(FRAME_VERSION) => err = Some(dec_serve_error(r)?),
                _ => r.skip_value()?,
            }
            Ok(())
        })
        .map_err(|e| invalid(format!("bad submit reply: {e}")))?;
        if let Some(reason) = version_mismatch(version, "reply") {
            return Ok(Err(ServeError::Execution(Arc::new(CodegenError::Wire {
                reason,
            }))));
        }
        match (ok, err) {
            (Some(outcome), _) => Ok(Ok(Arc::new(outcome))),
            (None, Some(err)) => Ok(Err(err)),
            (None, None) => Err(invalid(
                "submit reply carries neither ok nor err after its version".to_string(),
            )),
        }
    }

    /// Submits a spec for remote execution.
    ///
    /// The outer `Result` is transport health; the inner one is the
    /// remote [`ServeResult`]. The decoded outcome carries
    /// `kernel: None` (compiled kernels never cross the wire).
    pub fn submit(&mut self, spec: &WorkloadSpec) -> io::Result<ServeResult> {
        let reply = self.exchange(NetClient::encode_submit(spec).as_bytes())?;
        NetClient::decode_submit_reply(&reply)
    }

    /// One exchange whose reply is an object with the one field `key`,
    /// read by `dec`.
    fn ask<T>(
        &mut self,
        request: &str,
        key: &str,
        mut dec: impl FnMut(&mut Reader<'_>) -> Result<T, JsonError>,
    ) -> io::Result<T> {
        let reply = self.exchange(request.as_bytes())?;
        let (mut version, mut answer) = (None, None);
        read_reply(&reply, "reply", |k, r| {
            if k == "version" {
                version = Some(r.u64("reply version")?);
                Ok(())
            } else if k == key && version == Some(FRAME_VERSION) {
                answer = Some(dec(r)?);
                Ok(())
            } else {
                r.skip_value()
            }
        })
        .map_err(|e| invalid(e.reason))?;
        if let Some(reason) = version_mismatch(version, "reply") {
            return Err(invalid(reason));
        }
        answer.ok_or_else(|| invalid(format!("reply missing {key} after its version")))
    }

    /// Fetches the worker's calibration store as JSON (`None` when its
    /// session runs without one).
    pub fn export_calibration(&mut self) -> io::Result<Option<String>> {
        let request = format!("{FRAME_ENVELOPE}\"op\": \"export_calibration\"}}");
        self.ask(&request, "calibration", |r| {
            if r.null()? {
                Ok(None)
            } else {
                r.raw_value().map(|store| Some(store.to_string()))
            }
        })
    }

    /// Merges a calibration export into the worker's live store
    /// (newest-confidence-wins; see
    /// [`CalibrationStore::merge`]). Returns how many entries the
    /// worker adopted.
    ///
    /// `data` is embedded in the request as it is: it must be one JSON
    /// value, as [`NetClient::export_calibration`] and
    /// [`CalibrationStore::to_json`] produce.
    pub fn import_calibration(&mut self, data: &str) -> io::Result<usize> {
        let request = format!("{FRAME_ENVELOPE}\"op\": \"import_calibration\", \"data\": {data}}}");
        self.ask(&request, "merged", |r| {
            r.u64("merged count").map(|merged| merged as usize)
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<bool> {
        let request = format!("{FRAME_ENVELOPE}\"op\": \"ping\"}}");
        self.ask(&request, "pong", |r| r.bool("pong"))
    }
}

/// Reads a reply frame — one JSON object — handing every key, with the
/// reader at its value, to `field`.
fn read_reply<'a>(
    reply: &'a [u8],
    what: &str,
    mut field: impl FnMut(&str, &mut Reader<'a>) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    let text = std::str::from_utf8(reply).map_err(|_| json::error("reply frame is not UTF-8"))?;
    let mut r = Reader::new(text);
    r.begin_object(what)?;
    while let Some(key) = r.next_key()? {
        field(&key, &mut r)?;
    }
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use saris_codegen::json::Value;
    use saris_codegen::{encode_outcome, encode_spec, Fidelity, Workload};
    use saris_core::{gallery, Extent};

    // The older tests below speak to the error codec through owned
    // strings and `json::parse` trees; these adapters put them on the
    // appending encoder and the reader without rewording them.
    fn enc_serve_error(e: &ServeError) -> String {
        let mut out = String::new();
        super::enc_serve_error(&mut out, e);
        out
    }

    fn dec_serve_error(v: &Value) -> Result<ServeError, JsonError> {
        super::dec_serve_error(&mut Reader::new(&render(v)))
    }

    /// A `json::parse` tree as text again.
    fn render(v: &Value) -> String {
        let join = |parts: Vec<String>| parts.join(", ");
        match v {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => n.clone(),
            Value::String(s) => format!("\"{}\"", json::escape(s)),
            Value::Array(a) => format!("[{}]", join(a.iter().map(render).collect())),
            Value::Object(o) => {
                let member =
                    |(k, v): (&String, &Value)| format!("\"{}\": {}", json::escape(k), render(v));
                format!("{{{}}}", join(o.iter().map(member).collect()))
            }
        }
    }

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
    fn an_unwinding_handler_leaves_the_registry_and_its_peer_reads_eof() {
        use std::io::Read;
        let net = worker();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        // Bounded: a leaked clone would keep the socket open forever.
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let (stream, _) = listener.accept().expect("accept");
        let id = u64::MAX;
        net.shared
            .conns()
            .insert(id, stream.try_clone().expect("clone"));
        let handler = std::thread::scope(|s| {
            s.spawn(|| {
                let _entry = Registered {
                    shared: &net.shared,
                    id,
                };
                let _stream = stream;
                panic!("handler unwinds");
            })
            .join()
        });
        assert!(handler.is_err());
        assert!(!net.shared.conns().contains_key(&id));
        let mut byte = [0u8; 1];
        assert_eq!(peer.read(&mut byte).expect("EOF, not a timeout"), 0);
    }

    #[test]
    fn a_panicking_responder_is_answered_and_booked() {
        let net = worker();
        let mut reply = String::new();
        isolated(net.server(), &mut reply, |reply| {
            reply.push_str("half a reply");
            panic!("responder unwinds");
        });
        assert_eq!(net.server().stats().panics, 1);
        match NetClient::decode_submit_reply(reply.as_bytes()).expect("a reply") {
            Err(ServeError::BackendPanicked { message }) => {
                assert!(message.contains("responder unwinds"), "{message}");
            }
            other => panic!("expected a panic answer, got {other:?}"),
        }
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

    fn golden_spec(seed: u64) -> WorkloadSpec {
        Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(seed)
            .fidelity(Fidelity::Golden)
            .freeze()
            .expect("freeze")
    }

    /// One raw frame out, one raw frame back, on the client's connection.
    fn raw_exchange(client: &mut NetClient, request: &[u8]) -> String {
        let reply = client.exchange(request).expect("the connection stays up");
        String::from_utf8(reply).expect("replies are UTF-8")
    }

    /// The in-band error of a reply frame.
    fn reply_error(reply: &str) -> ServeError {
        NetClient::decode_submit_reply(reply.as_bytes())
            .expect("an in-band reply")
            .expect_err("an error reply")
    }

    #[test]
    fn a_frame_of_brackets_is_refused_not_recursed_into() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        // Recursing into either frame as deep as it nests overflows the
        // handler thread's stack, which aborts the whole process.
        let reply = raw_exchange(&mut client, "[".repeat(100_000).as_bytes());
        assert!(
            reply.starts_with("{\"version\": 2, \"err\": {\"kind\": \"wire\""),
            "{reply}"
        );
        assert!(client.ping().expect("ping on the same connection"));
        let frame = format!("{{\"spec\": {}", "[".repeat(100_000));
        let reply = raw_exchange(&mut client, frame.as_bytes());
        assert!(
            reply.starts_with("{\"version\": 2, \"err\": {\"kind\": \"wire\""),
            "{reply}"
        );
        assert!(reply.contains("nests deeper than"), "{reply}");
        assert!(client.ping().expect("ping on the same connection"));
        // The same depth inside a value the envelope only passes over.
        let frame = format!(
            "{{\"op\": \"ping\", \"junk\": {}{}}}",
            "[".repeat(5_000),
            "]".repeat(5_000)
        );
        let reply = raw_exchange(&mut client, frame.as_bytes());
        assert!(reply.contains("nests deeper than"), "{reply}");
        // The bound counts the envelope: 31 levels below it pass.
        let frame = format!(
            "{{\"version\": 2, \"op\": \"ping\", \"junk\": {}{}}}",
            "[".repeat(json::MAX_DEPTH - 1),
            "]".repeat(json::MAX_DEPTH - 1)
        );
        assert_eq!(
            raw_exchange(&mut client, frame.as_bytes()),
            "{\"version\": 2, \"pong\": true}"
        );
    }

    #[test]
    fn a_zero_extent_is_answered_in_band() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        let request = NetClient::encode_submit(&golden_spec(1));
        let zeroed = request.replace("\"extent\": [16, 16, 1]", "\"extent\": [0, 16, 1]");
        assert_ne!(zeroed, request);
        let err = reply_error(&raw_exchange(&mut client, zeroed.as_bytes()));
        match &err {
            ServeError::Execution(e) => {
                assert!(!e.is_transient());
                assert!(e.to_string().contains("not a positive extent"), "{e}");
            }
            other => panic!("expected an execution error, got {other}"),
        }
        assert!(client.ping().expect("ping on the same connection"));
    }

    #[test]
    fn documents_are_nested_and_keys_come_in_any_order() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        let spec = golden_spec(3);

        // `spec` before `op`, an unknown key in between.
        let request = format!(
            "{{\"spec\": {}, \"trace\": [1, {{}}], \"op\": \"submit\", \"version\": 2}}",
            encode_spec(&spec)
        );
        let reply = raw_exchange(&mut client, request.as_bytes());
        let local = net.server().submit(&spec).expect("local execution");
        // The outcome document sits in the reply as it was encoded:
        // nested, not escaped.
        assert_eq!(
            reply,
            format!("{{\"version\": 2, \"ok\": {}}}", encode_outcome(&local))
        );
        assert!(!reply.contains('\\'), "{reply}");
        let remote = NetClient::decode_submit_reply(reply.as_bytes())
            .expect("a submit reply")
            .expect("execution");
        assert_eq!(encode_outcome(&remote), encode_outcome(&local));

        // The request is the spec document inside its envelope, as is.
        assert_eq!(
            NetClient::encode_submit(&spec),
            format!(
                "{{\"version\": 2, \"op\": \"submit\", \"spec\": {}}}",
                encode_spec(&spec)
            )
        );

        // Not a request, and not a reply.
        let reply = raw_exchange(&mut client, b"{\"version\": 2, \"spec\": {}}");
        assert!(reply.contains("request: missing op"), "{reply}");
        for garbage in [
            "",
            "{\"version\": 2, \"ok\": 7}",
            "{\"version\": 2, \"ok\": {}} x",
            "[]",
            "{\"version\": 2, \"pong\": true}",
        ] {
            assert!(
                NetClient::decode_submit_reply(garbage.as_bytes()).is_err(),
                "{garbage:?} is no submit reply"
            );
        }
    }

    #[test]
    fn requests_of_another_version_are_refused_by_name() {
        assert_eq!(FRAME_ENVELOPE, format!("{{\"version\": {FRAME_VERSION}, "));
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        let submit = NetClient::encode_submit(&golden_spec(1));
        let unversioned = submit.replacen("\"version\": 2, ", "", 1);
        assert_ne!(unversioned, submit);
        let cases = [
            (
                "{\"op\": \"ping\"}".to_string(),
                "carries no version (frame version 1)",
            ),
            (unversioned, "carries no version (frame version 1)"),
            (
                "{\"op\": \"ping\", \"version\": 3}".to_string(),
                "is frame version 3",
            ),
            (
                submit.replacen("\"version\": 2", "\"version\": 1", 1),
                "is frame version 1",
            ),
        ];
        for (frame, theirs) in &cases {
            let reply = raw_exchange(&mut client, frame.as_bytes());
            assert!(
                reply.starts_with("{\"version\": 2, \"err\": {\"kind\": \"wire\""),
                "{reply}"
            );
            match reply_error(&reply) {
                ServeError::Execution(e) => {
                    assert!(!e.is_transient());
                    let message = e.to_string();
                    assert!(message.contains(&format!("request {theirs}")), "{message}");
                    assert!(message.contains("speaks frame version 2"), "{message}");
                }
                other => panic!("expected an execution error, got {other}"),
            }
        }
        // Refused before anything was served, on a connection that
        // still works.
        assert_eq!(net.server().stats().requests, 0);
        assert!(client.ping().expect("ping on the same connection"));
    }

    #[test]
    fn replies_of_another_version_are_refused_answers() {
        let net = worker();
        let local = net
            .server()
            .submit(&golden_spec(2))
            .expect("local execution");
        let outcome = encode_outcome(&local);
        let refused = |reply: String, theirs: &str| {
            let result = NetClient::decode_submit_reply(reply.as_bytes());
            match result.expect("an answer, not a transport failure") {
                Err(ServeError::Execution(e)) => {
                    assert!(!e.is_transient());
                    let message = e.to_string();
                    assert!(message.contains(&format!("reply {theirs}")), "{message}");
                    assert!(message.contains("speaks frame version 2"), "{message}");
                }
                other => panic!("expected an execution error, got {other:?}"),
            }
        };
        // A peer from before frames had a version; its answer is not read.
        refused(format!("{{\"ok\": {outcome}}}"), "carries no version");
        refused("{\"ok\": [\"data\"]}".to_string(), "carries no version");
        refused(
            "{\"version\": 3, \"ok\": 7}".to_string(),
            "is frame version 3",
        );
        refused(
            format!("{{\"version\": 2, \"ok\": {outcome}, \"version\": 1}}"),
            "is frame version 1",
        );

        // This version's answer is read after the version, and only there.
        let err = enc_serve_error(&ServeError::Quarantined);
        let first = format!("{{\"version\": 2, \"err\": {err}}}");
        let decoded = NetClient::decode_submit_reply(first.as_bytes()).expect("a submit reply");
        assert!(
            matches!(decoded, Err(ServeError::Quarantined)),
            "{decoded:?}"
        );
        for late in [
            format!("{{\"err\": {err}, \"version\": 2}}"),
            format!("{{\"ok\": {outcome}, \"version\": 2}}"),
        ] {
            let result = NetClient::decode_submit_reply(late.as_bytes());
            assert!(result.is_err(), "{late}: {result:?}");
        }
    }

    #[test]
    fn calibration_round_trips_between_workers() {
        use saris_codegen::{Calibration, Variant};
        use saris_core::{Offset, Space, StencilBuilder};

        let mut b = StencilBuilder::new("we\"ird\nname\\", Space::Dim2);
        let inp = b.input("inp");
        b.output("out");
        let k = b.coeff("k", 0.5);
        let c = b.tap(inp, Offset::CENTER);
        let r = b.mul(k, c);
        b.store(r);
        let stencil = b.finish().expect("valid stencil");

        let (from, to) = (worker(), worker());
        let store = |net: &NetServer| {
            let session = net.server().session();
            Arc::clone(session.calibration().expect("default sessions calibrate"))
        };
        let calibration = Calibration {
            cycles_per_point: 1.0 / 3.0,
            fpu_ops_per_point: 1.25,
            flops_per_point: 2.0,
            imbalance: vec![1.0, 0.1 + 0.2],
        };
        store(&from).calibrate(&stencil, Variant::Saris, calibration.clone());
        assert!(!store(&to).is_calibrated(&stencil, Variant::Saris, 2));

        let mut exporter = NetClient::connect(from.addr()).expect("connect");
        let export = exporter
            .export_calibration()
            .expect("transport")
            .expect("a store");
        assert_eq!(export, store(&from).to_json().trim_end());
        let mut importer = NetClient::connect(to.addr()).expect("connect");
        assert!(importer.import_calibration(&export).expect("import") >= 1);
        assert_eq!(
            store(&to).lookup(&stencil, Variant::Saris, 2),
            Some(calibration)
        );
        assert_eq!(importer.import_calibration(&export).expect("import"), 0);
    }
}
