//! Dependency-free wire codec for shipping workloads and outcomes
//! between processes.
//!
//! `saris-shard` runs one coordinator in front of N worker processes,
//! each hosting a full `saris-serve` stack. The coordinator serializes a
//! [`WorkloadSpec`] here, frames it onto a TCP stream with
//! [`write_frame`], and decodes the worker's [`Outcome`] reply with
//! [`decode_outcome`]. Everything is hand-rolled JSON over the shared
//! [`crate::json`] reader/writer — the workspace carries no external
//! dependencies — and every `f64` crosses the wire bit-exactly:
//!
//! * finite values are written with Rust's shortest-roundtrip `{:?}`
//!   formatting and re-parsed by the correctly-rounded `str::parse`,
//! * non-finite values (NaN payloads in grids must survive) are written
//!   as the hex bit-pattern string `"0x{:016x}"` of [`f64::to_bits`].
//!
//! # Framing
//!
//! A frame is a little-endian `u32` payload length followed by that many
//! bytes of UTF-8 JSON. [`read_frame`] rejects frames longer than the
//! caller's limit (use [`MAX_FRAME_LEN`]) with
//! [`std::io::ErrorKind::InvalidData`], and grows its buffer with the
//! bytes that actually arrive, so a garbage length prefix cannot trigger
//! an allocation the peer has not paid for in payload.
//!
//! # Framing and latency
//!
//! A frame leaves in **one `write`**: [`write_frame`] copies the length
//! prefix and the payload into one buffer (for a payload too large to
//! copy cheaply, the prefix and the payload's first chunk). Sent as two
//! writes, a frame is the write-write-read pattern that Nagle's
//! algorithm and delayed acknowledgements punish together: the payload
//! is held until the prefix is acknowledged, and the peer — with
//! nothing to send back until it has the whole frame — sits on that
//! acknowledgement for its delayed-ACK timer, ~40 ms on Linux, per
//! frame. Writing once removes the pattern whatever the socket's
//! options; both ends of a `saris-serve` connection set `TCP_NODELAY`
//! as well, which covers the short last segment of a frame larger than
//! one segment, and read through a `BufReader`, so the prefix and
//! payload that left in one write arrive in one read.
//!
//! # Decode semantics
//!
//! [`decode_spec`] does not deserialize a [`WorkloadSpec`] field-by-field:
//! it replays the serialized stencil through [`StencilBuilder`] and the
//! serialized workload through the [`Workload`] builder, then calls
//! [`Workload::freeze`]. A decoded spec therefore passed the exact same
//! validation as a locally built one — a forged or corrupted frame
//! cannot smuggle an invalid stencil or workload past the builder — and
//! its fingerprint is recomputed, never trusted from the wire.
//!
//! A long-lived receiver decodes through a [`StencilInterner`]
//! instead: the same replay and validation, after which specs of one
//! code share one `Arc<Stencil>` the way specs built in-process from
//! one `Arc` already do, instead of each owning a private 1–2 KB copy
//! for as long as a response cache keeps it as a key.
//!
//! [`decode_outcome`] rebuilds the [`Outcome`] directly. The `kernel`
//! field (an `Arc<CompiledKernel>` shared with the executing session's
//! cache) does not cross the wire and always decodes as `None`.

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use saris_core::method::CoeffStrategy;
use saris_core::stencil::{ArrayRole, BinKind, Operand, PointOp};
use saris_core::{Extent, Grid, InterleavePlan, Offset, SarisOptions, Space, StencilBuilder};
use saris_isa::IndexWidth;
use snitch_sim::core::{IntStalls, IntStats};
use snitch_sim::fpu::{FpuStalls, FpuStats};
use snitch_sim::ssr::StreamerStats;
use snitch_sim::{ClusterConfig, CoreReport, DmaStats, RunReport};

use crate::backends::Fidelity;
use crate::error::CodegenError;
use crate::json::{self, JsonError, Value};
use crate::runtime::{BufferRotation, RunOptions, Variant};
use crate::tuner::{Tune, TuningDecision};
use crate::workload::{
    InputSpec, Outcome, Workload, WorkloadKind, WorkloadSpec, WorkloadTelemetry,
};

/// Upper bound on a single frame's payload, in bytes (64 MiB).
///
/// Large enough for an [`Outcome`] carrying several full-resolution
/// grids at the paper's problem sizes; small enough that a corrupted
/// length prefix fails fast instead of exhausting memory.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Payloads up to this size are copied behind their length prefix so
/// the whole frame is one `write`; of a larger one only this much is.
const COALESCED_PAYLOAD: usize = 64 * 1024;

/// Writes one length-prefixed frame: a little-endian `u32` byte count
/// followed by `payload`.
///
/// The prefix never travels alone (see *Framing and latency* in the
/// module docs): it is coalesced with the payload — with the first
/// 64 KiB of a payload too large to copy cheaply — into one `write`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload exceeds u32"))?;
    let (head, tail) = payload.split_at(payload.len().min(COALESCED_PAYLOAD));
    let mut first = Vec::with_capacity(4 + head.len());
    first.extend_from_slice(&len.to_le_bytes());
    first.extend_from_slice(head);
    w.write_all(&first)?;
    w.write_all(tail)?;
    w.flush()
}

/// What [`read_frame`] reserves before any payload byte has arrived;
/// beyond it the buffer grows with the bytes that do.
const READ_RESERVE: usize = 64 * 1024;

/// Reads one length-prefixed frame, rejecting payloads longer than
/// `max_len` with [`io::ErrorKind::InvalidData`].
///
/// A clean EOF before the length prefix surfaces as
/// [`io::ErrorKind::UnexpectedEof`] — the peer hung up — and so does a
/// payload shorter than its prefix claims. Memory follows the bytes
/// received, not the claim: a 64 MiB prefix costs the peer 64 MiB of
/// payload before it costs this process 64 MiB of buffer.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} B exceeds the {max_len} B limit"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(READ_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame of {len} B ended after {} B", payload.len()),
        ));
    }
    Ok(payload)
}

fn wire(e: JsonError) -> CodegenError {
    CodegenError::Wire { reason: e.reason }
}

fn get<'a>(
    obj: &'a std::collections::HashMap<String, Value>,
    key: &str,
) -> Result<&'a Value, JsonError> {
    obj.get(key)
        .ok_or_else(|| json::error(&format!("missing field `{key}`")))
}

/// `null` and a missing key both read as `None`.
fn opt<'a>(obj: &'a std::collections::HashMap<String, Value>, key: &str) -> Option<&'a Value> {
    match obj.get(key) {
        None | Some(Value::Null) => None,
        Some(v) => Some(v),
    }
}

// ---------------------------------------------------------------------------
// f64 policy
// ---------------------------------------------------------------------------

fn enc_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("\"0x{:016x}\"", v.to_bits())
    }
}

fn dec_f64(v: &Value, what: &str) -> Result<f64, JsonError> {
    match v {
        Value::Number(_) => v.as_f64(what),
        Value::String(s) => {
            let hex = s.strip_prefix("0x").ok_or_else(|| {
                json::error(&format!("{what}: expected a 0x-prefixed bit string"))
            })?;
            let bits = u64::from_str_radix(hex, 16)
                .map_err(|_| json::error(&format!("{what}: bad f64 bit pattern `{s}`")))?;
            Ok(f64::from_bits(bits))
        }
        _ => Err(json::error(&format!("{what}: expected a number"))),
    }
}

fn dec_u64_str(v: &Value, what: &str) -> Result<u64, JsonError> {
    v.as_str(what)?
        .parse::<u64>()
        .map_err(|_| json::error(&format!("{what}: expected a decimal u64 string")))
}

fn dec_usize(v: &Value, what: &str) -> Result<usize, JsonError> {
    Ok(v.as_u64(what)? as usize)
}

// ---------------------------------------------------------------------------
// Geometry, grids, options
// ---------------------------------------------------------------------------

fn enc_extent(e: Extent) -> String {
    format!("[{}, {}, {}]", e.nx, e.ny, e.nz)
}

fn dec_extent(v: &Value, what: &str) -> Result<Extent, JsonError> {
    let a = v.as_array(what)?;
    if a.len() != 3 {
        return Err(json::error(&format!("{what}: expected [nx, ny, nz]")));
    }
    let nx = dec_usize(&a[0], what)?;
    let ny = dec_usize(&a[1], what)?;
    let nz = dec_usize(&a[2], what)?;
    Ok(if nz == 1 {
        Extent::new_2d(nx, ny)
    } else {
        Extent::new_3d(nx, ny, nz)
    })
}

fn enc_grid(g: &Grid) -> String {
    let mut out = String::with_capacity(g.as_slice().len() * 20 + 64);
    out.push_str("{\"extent\": ");
    out.push_str(&enc_extent(g.extent()));
    out.push_str(", \"data\": [");
    for (i, v) in g.as_slice().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&enc_f64(*v));
    }
    out.push_str("]}");
    out
}

fn dec_grid(v: &Value, what: &str) -> Result<Grid, JsonError> {
    let o = v.as_object(what)?;
    let extent = dec_extent(get(o, "extent")?, "grid extent")?;
    let raw = get(o, "data")?.as_array("grid data")?;
    if raw.len() != extent.len() {
        return Err(json::error(&format!(
            "{what}: {} data points for a {}-point extent",
            raw.len(),
            extent.len()
        )));
    }
    let data = raw
        .iter()
        .map(|v| dec_f64(v, "grid point"))
        .collect::<Result<Vec<f64>, JsonError>>()?;
    Ok(Grid::from_raw(extent, data))
}

fn enc_cluster(c: &ClusterConfig) -> String {
    format!(
        concat!(
            "{{\"n_cores\": {}, \"tcdm_banks\": {}, \"tcdm_bytes\": {}, ",
            "\"main_mem_bytes\": {}, \"main_mem_latency\": {}, ",
            "\"main_mem_bytes_per_cycle\": {}, \"stream_fifo_depth\": {}, ",
            "\"launch_queue_depth\": {}, \"index_fifo_depth\": {}, ",
            "\"fpu_latency_add\": {}, \"fpu_latency_mul\": {}, ",
            "\"fpu_latency_fma\": {}, \"fpu_latency_div\": {}, ",
            "\"fpu_latency_misc\": {}, \"fp_load_latency\": {}, ",
            "\"offload_queue_depth\": {}, \"sequencer_depth\": {}, ",
            "\"branch_taken_penalty\": {}, \"icache_lines\": {}, ",
            "\"icache_line_bytes\": {}, \"icache_miss_penalty\": {}, ",
            "\"dma_beat_bytes\": {}, \"freq_hz\": {}, \"fast_forward\": {}}}"
        ),
        c.n_cores,
        c.tcdm_banks,
        c.tcdm_bytes,
        c.main_mem_bytes,
        c.main_mem_latency,
        c.main_mem_bytes_per_cycle,
        c.stream_fifo_depth,
        c.launch_queue_depth,
        c.index_fifo_depth,
        c.fpu_latency_add,
        c.fpu_latency_mul,
        c.fpu_latency_fma,
        c.fpu_latency_div,
        c.fpu_latency_misc,
        c.fp_load_latency,
        c.offload_queue_depth,
        c.sequencer_depth,
        c.branch_taken_penalty,
        c.icache_lines,
        c.icache_line_bytes,
        c.icache_miss_penalty,
        c.dma_beat_bytes,
        enc_f64(c.freq_hz),
        c.fast_forward,
    )
}

fn dec_cluster(v: &Value) -> Result<ClusterConfig, JsonError> {
    let o = v.as_object("cluster config")?;
    let us = |k: &str| -> Result<usize, JsonError> { dec_usize(get(o, k)?, k) };
    let u32s = |k: &str| -> Result<u32, JsonError> { Ok(get(o, k)?.as_u64(k)? as u32) };
    Ok(ClusterConfig {
        n_cores: us("n_cores")?,
        tcdm_banks: us("tcdm_banks")?,
        tcdm_bytes: us("tcdm_bytes")?,
        main_mem_bytes: us("main_mem_bytes")?,
        main_mem_latency: u32s("main_mem_latency")?,
        main_mem_bytes_per_cycle: us("main_mem_bytes_per_cycle")?,
        stream_fifo_depth: us("stream_fifo_depth")?,
        launch_queue_depth: us("launch_queue_depth")?,
        index_fifo_depth: us("index_fifo_depth")?,
        fpu_latency_add: u32s("fpu_latency_add")?,
        fpu_latency_mul: u32s("fpu_latency_mul")?,
        fpu_latency_fma: u32s("fpu_latency_fma")?,
        fpu_latency_div: u32s("fpu_latency_div")?,
        fpu_latency_misc: u32s("fpu_latency_misc")?,
        fp_load_latency: u32s("fp_load_latency")?,
        offload_queue_depth: us("offload_queue_depth")?,
        sequencer_depth: us("sequencer_depth")?,
        branch_taken_penalty: u32s("branch_taken_penalty")?,
        icache_lines: us("icache_lines")?,
        icache_line_bytes: us("icache_line_bytes")?,
        icache_miss_penalty: u32s("icache_miss_penalty")?,
        dma_beat_bytes: us("dma_beat_bytes")?,
        freq_hz: dec_f64(get(o, "freq_hz")?, "freq_hz")?,
        fast_forward: get(o, "fast_forward")?.as_bool("fast_forward")?,
    })
}

fn enc_options(o: &RunOptions) -> String {
    let index_width = match o.saris.index_width {
        IndexWidth::U8 => "u8",
        IndexWidth::U16 => "u16",
        IndexWidth::U32 => "u32",
    };
    let coeff_strategy = match o.saris.coeff_strategy {
        CoeffStrategy::Hybrid => "hybrid",
        CoeffStrategy::StreamSr1 => "stream_sr1",
    };
    format!(
        concat!(
            "{{\"variant\": \"{}\", \"unroll\": {}, \"interleave\": [{}, {}], ",
            "\"cluster\": {}, \"saris\": {{\"coeff_reg_budget\": {}, ",
            "\"index_width\": \"{}\", \"coeff_strategy\": \"{}\"}}, ",
            "\"max_cycles\": {}, \"concurrent_dma\": {}, ",
            "\"reassociate\": {}, \"base_allow_spill\": {}}}"
        ),
        o.variant,
        o.unroll,
        o.interleave.px(),
        o.interleave.py(),
        enc_cluster(&o.cluster),
        o.saris.coeff_reg_budget,
        index_width,
        coeff_strategy,
        o.max_cycles,
        o.concurrent_dma,
        o.reassociate,
        o.base_allow_spill,
    )
}

fn dec_options(v: &Value) -> Result<RunOptions, JsonError> {
    let o = v.as_object("run options")?;
    let variant = match get(o, "variant")?.as_str("variant")? {
        "base" => Variant::Base,
        "saris" => Variant::Saris,
        other => return Err(json::error(&format!("unknown variant `{other}`"))),
    };
    let interleave = get(o, "interleave")?.as_array("interleave")?;
    if interleave.len() != 2 {
        return Err(json::error("interleave: expected [px, py]"));
    }
    let px = dec_usize(&interleave[0], "interleave px")?;
    let py = dec_usize(&interleave[1], "interleave py")?;
    if px == 0 || py == 0 {
        return Err(json::error("interleave: px and py must be non-zero"));
    }
    let saris_obj = get(o, "saris")?.as_object("saris options")?;
    let index_width = match get(saris_obj, "index_width")?.as_str("index_width")? {
        "u8" => IndexWidth::U8,
        "u16" => IndexWidth::U16,
        "u32" => IndexWidth::U32,
        other => return Err(json::error(&format!("unknown index width `{other}`"))),
    };
    let coeff_strategy = match get(saris_obj, "coeff_strategy")?.as_str("coeff_strategy")? {
        "hybrid" => CoeffStrategy::Hybrid,
        "stream_sr1" => CoeffStrategy::StreamSr1,
        other => return Err(json::error(&format!("unknown coeff strategy `{other}`"))),
    };
    let mut options = RunOptions::new(variant);
    options.unroll = dec_usize(get(o, "unroll")?, "unroll")?;
    options.interleave = InterleavePlan::new(px, py);
    options.cluster = dec_cluster(get(o, "cluster")?)?;
    options.saris = SarisOptions {
        coeff_reg_budget: dec_usize(get(saris_obj, "coeff_reg_budget")?, "coeff_reg_budget")?,
        index_width,
        coeff_strategy,
    };
    options.max_cycles = get(o, "max_cycles")?.as_u64("max_cycles")?;
    options.concurrent_dma = get(o, "concurrent_dma")?.as_bool("concurrent_dma")?;
    options.reassociate = dec_usize(get(o, "reassociate")?, "reassociate")?;
    options.base_allow_spill = get(o, "base_allow_spill")?.as_bool("base_allow_spill")?;
    Ok(options)
}

// ---------------------------------------------------------------------------
// Stencils
// ---------------------------------------------------------------------------

fn enc_operand(op: Operand) -> String {
    match op {
        Operand::Tap(i) => format!("[\"tap\", {i}]"),
        Operand::Coeff(i) => format!("[\"coeff\", {i}]"),
        Operand::Tmp(i) => format!("[\"tmp\", {i}]"),
    }
}

fn dec_operand(v: &Value, what: &str) -> Result<Operand, JsonError> {
    let a = v.as_array(what)?;
    if a.len() != 2 {
        return Err(json::error(&format!("{what}: expected [kind, index]")));
    }
    let idx = dec_usize(&a[1], what)?;
    match a[0].as_str(what)? {
        "tap" => Ok(Operand::Tap(idx)),
        "coeff" => Ok(Operand::Coeff(idx)),
        "tmp" => Ok(Operand::Tmp(idx)),
        other => Err(json::error(&format!(
            "{what}: unknown operand kind `{other}`"
        ))),
    }
}

fn enc_stencil(s: &saris_core::Stencil) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"name\": \"");
    out.push_str(&json::escape(s.name()));
    out.push_str("\", \"space\": \"");
    out.push_str(match s.space() {
        Space::Dim2 => "2d",
        Space::Dim3 => "3d",
    });
    out.push_str("\", \"arrays\": [");
    for (i, a) in s.arrays().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": \"");
        out.push_str(&json::escape(a.name()));
        out.push_str("\", \"role\": \"");
        out.push_str(match a.role() {
            ArrayRole::Input => "input",
            ArrayRole::Output => "output",
        });
        out.push_str("\"}");
    }
    out.push_str("], \"coeffs\": [");
    for (i, c) in s.coeffs().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": \"");
        out.push_str(&json::escape(c.name()));
        out.push_str("\", \"value\": ");
        out.push_str(&enc_f64(c.value()));
        out.push('}');
    }
    out.push_str("], \"taps\": [");
    for (i, t) in s.taps().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "[{}, {}, {}, {}]",
            t.array.index(),
            t.offset.dx,
            t.offset.dy,
            t.offset.dz
        ));
    }
    out.push_str("], \"ops\": [");
    for (i, op) in s.ops().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match op {
            PointOp::Bin { kind, a, b } => {
                let name = match kind {
                    BinKind::Add => "add",
                    BinKind::Sub => "sub",
                    BinKind::Mul => "mul",
                };
                out.push_str(&format!(
                    "[\"{name}\", {}, {}]",
                    enc_operand(*a),
                    enc_operand(*b)
                ));
            }
            PointOp::Fma { a, b, c } => {
                out.push_str(&format!(
                    "[\"fma\", {}, {}, {}]",
                    enc_operand(*a),
                    enc_operand(*b),
                    enc_operand(*c)
                ));
            }
        }
    }
    out.push_str("], \"result\": ");
    out.push_str(&enc_operand(s.result()));
    out.push('}');
    out
}

/// Replays a serialized stencil through [`StencilBuilder`], so decode
/// re-runs the builder's full validation (`finish`).
fn dec_stencil(v: &Value) -> Result<saris_core::Stencil, JsonError> {
    let o = v.as_object("stencil")?;
    let name = get(o, "name")?.as_str("stencil name")?;
    let space = match get(o, "space")?.as_str("stencil space")? {
        "2d" => Space::Dim2,
        "3d" => Space::Dim3,
        other => return Err(json::error(&format!("unknown space `{other}`"))),
    };
    let mut builder = StencilBuilder::new(name, space);
    let mut array_ids = Vec::new();
    for a in get(o, "arrays")?.as_array("arrays")? {
        let ao = a.as_object("array decl")?;
        let aname = get(ao, "name")?.as_str("array name")?;
        let id = match get(ao, "role")?.as_str("array role")? {
            "input" => builder.input(aname),
            "output" => builder.output(aname),
            other => return Err(json::error(&format!("unknown array role `{other}`"))),
        };
        array_ids.push(id);
    }
    for c in get(o, "coeffs")?.as_array("coeffs")? {
        let co = c.as_object("coeff")?;
        let cname = get(co, "name")?.as_str("coeff name")?;
        let value = dec_f64(get(co, "value")?, "coeff value")?;
        builder.coeff(cname, value);
    }
    for t in get(o, "taps")?.as_array("taps")? {
        let ta = t.as_array("tap")?;
        if ta.len() != 4 {
            return Err(json::error("tap: expected [array, dx, dy, dz]"));
        }
        let array = dec_usize(&ta[0], "tap array")?;
        let id = *array_ids
            .get(array)
            .ok_or_else(|| json::error(&format!("tap references unknown array {array}")))?;
        let dx = ta[1].as_i64("tap dx")? as i32;
        let dy = ta[2].as_i64("tap dy")? as i32;
        let dz = ta[3].as_i64("tap dz")? as i32;
        builder.tap(id, Offset { dx, dy, dz });
    }
    for op in get(o, "ops")?.as_array("ops")? {
        let oa = op.as_array("op")?;
        let kind = oa
            .first()
            .ok_or_else(|| json::error("op: empty"))?
            .as_str("op kind")?;
        match kind {
            "add" | "sub" | "mul" => {
                if oa.len() != 3 {
                    return Err(json::error("binary op: expected [kind, a, b]"));
                }
                let a = dec_operand(&oa[1], "op operand")?;
                let b = dec_operand(&oa[2], "op operand")?;
                match kind {
                    "add" => builder.add(a, b),
                    "sub" => builder.sub(a, b),
                    _ => builder.mul(a, b),
                };
            }
            "fma" => {
                if oa.len() != 4 {
                    return Err(json::error("fma op: expected [\"fma\", a, b, c]"));
                }
                let a = dec_operand(&oa[1], "op operand")?;
                let b = dec_operand(&oa[2], "op operand")?;
                let c = dec_operand(&oa[3], "op operand")?;
                builder.fma(a, b, c);
            }
            other => return Err(json::error(&format!("unknown op kind `{other}`"))),
        }
    }
    builder.store(dec_operand(get(o, "result")?, "result")?);
    builder
        .finish()
        .map_err(|e| json::error(&format!("stencil replay rejected: {e}")))
}

// ---------------------------------------------------------------------------
// Fidelity / tuning
// ---------------------------------------------------------------------------

fn enc_fidelity(f: Fidelity) -> String {
    match f {
        Fidelity::Analytic => "\"analytic\"".to_string(),
        Fidelity::Cycles => "\"cycles\"".to_string(),
        Fidelity::Golden => "\"golden\"".to_string(),
        Fidelity::Auto { accuracy_budget } => {
            format!("{{\"auto\": {}}}", enc_f64(accuracy_budget))
        }
    }
}

fn dec_fidelity(v: &Value) -> Result<Fidelity, JsonError> {
    match v {
        Value::String(s) => match s.as_str() {
            "analytic" => Ok(Fidelity::Analytic),
            "cycles" => Ok(Fidelity::Cycles),
            "golden" => Ok(Fidelity::Golden),
            other => Err(json::error(&format!("unknown fidelity `{other}`"))),
        },
        Value::Object(o) => {
            let budget = dec_f64(get(o, "auto")?, "auto accuracy budget")?;
            Ok(Fidelity::Auto {
                accuracy_budget: budget,
            })
        }
        _ => Err(json::error(
            "fidelity: expected a string or {\"auto\": ...}",
        )),
    }
}

fn enc_tune(t: &Tune) -> String {
    match t {
        Tune::Fixed => "\"fixed\"".to_string(),
        Tune::Auto => "\"auto\"".to_string(),
        Tune::Candidates(c) => {
            let list = c
                .iter()
                .map(|u| u.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            format!("{{\"candidates\": [{list}]}}")
        }
    }
}

fn dec_tune(v: &Value) -> Result<Tune, JsonError> {
    match v {
        Value::String(s) => match s.as_str() {
            "fixed" => Ok(Tune::Fixed),
            "auto" => Ok(Tune::Auto),
            other => Err(json::error(&format!("unknown tune mode `{other}`"))),
        },
        Value::Object(o) => {
            let list = get(o, "candidates")?.as_array("tune candidates")?;
            let c = list
                .iter()
                .map(|v| dec_usize(v, "tune candidate"))
                .collect::<Result<Vec<usize>, JsonError>>()?;
            Ok(Tune::Candidates(c))
        }
        _ => Err(json::error(
            "tune: expected a string or {\"candidates\": ...}",
        )),
    }
}

// ---------------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------------

/// Serializes a frozen [`WorkloadSpec`] to its wire JSON.
pub fn encode_spec(spec: &WorkloadSpec) -> String {
    match spec.kind() {
        WorkloadKind::DmaProbe { extent, cluster } => format!(
            "{{\"kind\": \"probe\", \"extent\": {}, \"cluster\": {}}}",
            enc_extent(*extent),
            enc_cluster(cluster)
        ),
        WorkloadKind::Stencil(w) => {
            let mut out = String::with_capacity(2048);
            out.push_str("{\"kind\": \"stencil\", \"stencil\": ");
            out.push_str(&enc_stencil(&w.stencil));
            out.push_str(", \"extent\": ");
            out.push_str(&enc_extent(w.extent));
            out.push_str(", \"inputs\": ");
            match &w.inputs {
                InputSpec::Seeded(seed) => {
                    out.push_str(&format!("{{\"seed\": \"{seed}\"}}"));
                }
                InputSpec::Grids(grids) => {
                    out.push_str("{\"grids\": [");
                    for (i, g) in grids.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&enc_grid(g));
                    }
                    out.push_str("]}");
                }
            }
            out.push_str(", \"options\": ");
            out.push_str(&enc_options(&w.options));
            out.push_str(", \"tune\": ");
            out.push_str(&enc_tune(&w.tune));
            out.push_str(&format!(", \"time_steps\": {}", w.time_steps));
            out.push_str(", \"rotation\": ");
            out.push_str(match w.rotation {
                None => "null",
                Some(BufferRotation::Alternating) => "\"alternating\"",
                Some(BufferRotation::Leapfrog) => "\"leapfrog\"",
            });
            out.push_str(", \"verify\": ");
            match w.verify {
                None => out.push_str("null"),
                Some(t) => out.push_str(&enc_f64(t)),
            }
            out.push_str(", \"fidelity\": ");
            match w.fidelity {
                None => out.push_str("null"),
                Some(f) => out.push_str(&enc_fidelity(f)),
            }
            out.push('}');
            out
        }
    }
}

/// Decodes a wire JSON document back into a [`WorkloadSpec`].
///
/// The document is replayed through the [`Workload`] builder (and its
/// stencil through [`StencilBuilder`]) and re-frozen, so a decoded spec
/// passed the same validation as a locally built one and its
/// fingerprint is recomputed rather than trusted from the wire.
/// Malformed JSON or unknown tags surface as [`CodegenError::Wire`];
/// semantic rejections from [`Workload::freeze`] surface as their
/// original error variants.
pub fn decode_spec(text: &str) -> Result<WorkloadSpec, CodegenError> {
    build_workload(text).map_err(wire)?.freeze()
}

/// Stencils a [`StencilInterner`] remembers. Traffic draws on a handful
/// of codes (the gallery has ten); the bound is what keeps a peer that
/// sends nothing but distinct stencils from growing the table.
const INTERNED_STENCILS: usize = 64;

/// A bounded table of decoded stencils, so the specs a long-lived
/// receiver decodes share one `Arc<Stencil>` per code.
///
/// [`StencilInterner::decode_spec`] is [`decode_spec`] — the same
/// replay through [`StencilBuilder`], the same [`Workload::freeze`],
/// the same errors — followed by one step: a stencil *equal* to one the
/// table holds is replaced by that `Arc`. The table sees a stencil only
/// once `StencilBuilder::finish` has accepted it and the spec around it
/// is frozen, and holds at most 64 of them (the least recently matched
/// makes room for a new one). Nothing is taken from the wire on trust:
/// equal means [`Stencil`](saris_core::Stencil)'s own `PartialEq` over
/// every array, tap, operation and coefficient, tightened to the
/// coefficients' bit patterns (`0.0 == -0.0`, but they are different
/// stencils).
#[derive(Debug, Default)]
pub struct StencilInterner {
    /// Most recently matched first.
    table: Mutex<Vec<Arc<saris_core::Stencil>>>,
}

impl StencilInterner {
    /// An empty table.
    pub fn new() -> StencilInterner {
        StencilInterner::default()
    }

    /// [`decode_spec`], with the decoded stencil shared through the
    /// table.
    pub fn decode_spec(&self, text: &str) -> Result<WorkloadSpec, CodegenError> {
        let mut spec = decode_spec(text)?;
        if let Some(stencil) = spec.stencil_mut() {
            self.intern(stencil);
        }
        Ok(spec)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Arc<saris_core::Stencil>>> {
        // Every update leaves the table a valid list of stencils, so a
        // panic elsewhere while the lock was held loses nothing.
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Points `stencil` at the table's equal stencil, or adds it.
    fn intern(&self, stencil: &mut Arc<saris_core::Stencil>) {
        let mut table = self.lock();
        match table.iter().position(|held| same_stencil(held, stencil)) {
            Some(at) => *stencil = table.remove(at),
            None => table.truncate(INTERNED_STENCILS - 1),
        }
        table.insert(0, Arc::clone(stencil));
    }
}

/// Equal in every respect code generation and execution can observe:
/// `PartialEq`, and coefficient for coefficient the same bits.
fn same_stencil(a: &saris_core::Stencil, b: &saris_core::Stencil) -> bool {
    a == b
        && a.coeffs()
            .iter()
            .zip(b.coeffs())
            .all(|(x, y)| x.value().to_bits() == y.value().to_bits())
}

fn build_workload(text: &str) -> Result<Workload, JsonError> {
    let doc = json::parse(text)?;
    let o = doc.as_object("workload spec")?;
    match get(o, "kind")?.as_str("kind")? {
        "probe" => {
            let extent = dec_extent(get(o, "extent")?, "probe extent")?;
            let mut options = RunOptions::new(Variant::Saris);
            options.cluster = dec_cluster(get(o, "cluster")?)?;
            Ok(Workload::dma_probe(extent).options(options))
        }
        "stencil" => {
            let stencil = dec_stencil(get(o, "stencil")?)?;
            let extent = dec_extent(get(o, "extent")?, "extent")?;
            let mut w = Workload::new(stencil).extent(extent);
            let inputs = get(o, "inputs")?.as_object("inputs")?;
            if let Some(seed) = opt(inputs, "seed") {
                w = w.input_seed(dec_u64_str(seed, "input seed")?);
            } else {
                let grids = get(inputs, "grids")?
                    .as_array("input grids")?
                    .iter()
                    .map(|g| dec_grid(g, "input grid"))
                    .collect::<Result<Vec<Grid>, JsonError>>()?;
                w = w.shared_inputs(Arc::new(grids));
            }
            w = w.options(dec_options(get(o, "options")?)?);
            w = w.tune(dec_tune(get(o, "tune")?)?);
            w = w.time_steps(dec_usize(get(o, "time_steps")?, "time_steps")?);
            if let Some(r) = opt(o, "rotation") {
                let rotation = match r.as_str("rotation")? {
                    "alternating" => BufferRotation::Alternating,
                    "leapfrog" => BufferRotation::Leapfrog,
                    other => return Err(json::error(&format!("unknown rotation `{other}`"))),
                };
                w = w.rotation(rotation);
            }
            if let Some(t) = opt(o, "verify") {
                w = w.verify(dec_f64(t, "verify tolerance")?);
            }
            if let Some(f) = opt(o, "fidelity") {
                w = w.fidelity(dec_fidelity(f)?);
            }
            Ok(w)
        }
        other => Err(json::error(&format!("unknown workload kind `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// The backend names an [`Outcome`] may legitimately carry; decode
/// rejects anything else (the field is `&'static str`).
const BACKEND_NAMES: [&str; 4] = ["sim", "native", "roofline", "chaos"];

fn enc_core(c: &CoreReport) -> String {
    let s = &c.int_stats.stalls;
    let int = format!(
        "[{}, {}, {}, {}, {}, {}, {}, {}]",
        c.int_stats.retired,
        s.offload_full,
        s.launch_full,
        s.lsu,
        s.icache,
        s.branch,
        s.drain,
        s.multi_issue
    );
    let f = &c.fpu;
    let fs = &f.stalls;
    let fpu = format!(
        "[{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}]",
        f.retired,
        f.offloaded,
        f.arith,
        f.flops,
        f.loads,
        f.stores,
        f.stream_pops,
        f.stream_pushes,
        fs.dependency,
        fs.stream_empty,
        fs.stream_full,
        fs.lsu_busy,
        fs.idle
    );
    let streamers = c
        .streamers
        .iter()
        .map(|st| {
            format!(
                "[{}, {}, {}, {}]",
                st.elems, st.idx_fetches, st.jobs, st.idle_full_cycles
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "{{\"halted_at\": {}, \"tcdm_wait_cycles\": {}, ",
            "\"int\": {}, \"fpu\": {}, \"streamers\": [{}]}}"
        ),
        c.halted_at, c.tcdm_wait_cycles, int, fpu, streamers
    )
}

fn nums(v: &Value, what: &str, n: usize) -> Result<Vec<u64>, JsonError> {
    let a = v.as_array(what)?;
    if a.len() != n {
        return Err(json::error(&format!(
            "{what}: expected {n} counters, got {}",
            a.len()
        )));
    }
    a.iter().map(|v| v.as_u64(what)).collect()
}

fn dec_core(v: &Value) -> Result<CoreReport, JsonError> {
    let o = v.as_object("core report")?;
    let int = nums(get(o, "int")?, "int counters", 8)?;
    let fpu = nums(get(o, "fpu")?, "fpu counters", 13)?;
    let streamers_raw = get(o, "streamers")?.as_array("streamers")?;
    if streamers_raw.len() != 3 {
        return Err(json::error("streamers: expected 3 entries"));
    }
    let mut streamers = [StreamerStats::default(); 3];
    for (slot, raw) in streamers.iter_mut().zip(streamers_raw) {
        let s = nums(raw, "streamer counters", 4)?;
        *slot = StreamerStats {
            elems: s[0],
            idx_fetches: s[1],
            jobs: s[2],
            idle_full_cycles: s[3],
        };
    }
    Ok(CoreReport {
        halted_at: get(o, "halted_at")?.as_u64("halted_at")?,
        int_stats: IntStats {
            retired: int[0],
            stalls: IntStalls {
                offload_full: int[1],
                launch_full: int[2],
                lsu: int[3],
                icache: int[4],
                branch: int[5],
                drain: int[6],
                multi_issue: int[7],
            },
        },
        fpu: FpuStats {
            retired: fpu[0],
            offloaded: fpu[1],
            arith: fpu[2],
            flops: fpu[3],
            loads: fpu[4],
            stores: fpu[5],
            stream_pops: fpu[6],
            stream_pushes: fpu[7],
            stalls: FpuStalls {
                dependency: fpu[8],
                stream_empty: fpu[9],
                stream_full: fpu[10],
                lsu_busy: fpu[11],
                idle: fpu[12],
            },
        },
        streamers,
        tcdm_wait_cycles: get(o, "tcdm_wait_cycles")?.as_u64("tcdm_wait_cycles")?,
    })
}

fn enc_report(r: &RunReport) -> String {
    let cores = r.cores.iter().map(enc_core).collect::<Vec<_>>().join(", ");
    format!(
        concat!(
            "{{\"cycles\": {}, \"cycles_fast_forwarded\": {}, ",
            "\"tcdm_accesses\": {}, \"tcdm_conflicts\": {}, ",
            "\"icache_hits\": {}, \"icache_misses\": {}, ",
            "\"dma\": [{}, {}, {}, {}], \"freq_hz\": {}, \"cores\": [{}]}}"
        ),
        r.cycles,
        r.cycles_fast_forwarded,
        r.tcdm_accesses,
        r.tcdm_conflicts,
        r.icache_hits,
        r.icache_misses,
        r.dma.bytes,
        r.dma.busy_cycles,
        r.dma.descriptors,
        r.dma.latency_cycles,
        enc_f64(r.freq_hz),
        cores
    )
}

fn dec_report(v: &Value) -> Result<RunReport, JsonError> {
    let o = v.as_object("run report")?;
    let dma = nums(get(o, "dma")?, "dma counters", 4)?;
    let cores = get(o, "cores")?
        .as_array("cores")?
        .iter()
        .map(dec_core)
        .collect::<Result<Vec<CoreReport>, JsonError>>()?;
    Ok(RunReport {
        cycles: get(o, "cycles")?.as_u64("cycles")?,
        cycles_fast_forwarded: get(o, "cycles_fast_forwarded")?.as_u64("cycles_fast_forwarded")?,
        cores,
        tcdm_accesses: get(o, "tcdm_accesses")?.as_u64("tcdm_accesses")?,
        tcdm_conflicts: get(o, "tcdm_conflicts")?.as_u64("tcdm_conflicts")?,
        icache_hits: get(o, "icache_hits")?.as_u64("icache_hits")?,
        icache_misses: get(o, "icache_misses")?.as_u64("icache_misses")?,
        dma: DmaStats {
            bytes: dma[0],
            busy_cycles: dma[1],
            descriptors: dma[2],
            latency_cycles: dma[3],
        },
        freq_hz: dec_f64(get(o, "freq_hz")?, "freq_hz")?,
    })
}

fn enc_telemetry(t: &WorkloadTelemetry) -> String {
    let answered_by = match t.answered_by {
        None => "null".to_string(),
        Some(f) => enc_fidelity(f),
    };
    let mix = t
        .mix_counts
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "{{\"runs\": {}, \"compiles\": {}, \"cache_hits\": {}, ",
            "\"clusters_reused\": {}, \"cycles_fast_forwarded\": {}, ",
            "\"estimated\": {}, \"answered_by\": {}, \"degraded\": {}, ",
            "\"deadline_capped\": {}, \"mix_counts\": [{}]}}"
        ),
        t.runs,
        t.compiles,
        t.cache_hits,
        t.clusters_reused,
        t.cycles_fast_forwarded,
        t.estimated,
        answered_by,
        t.degraded,
        t.deadline_capped,
        mix
    )
}

fn dec_telemetry(v: &Value) -> Result<WorkloadTelemetry, JsonError> {
    let o = v.as_object("telemetry")?;
    let mix = nums(get(o, "mix_counts")?, "mix_counts", 6)?;
    let mut mix_counts = [0u64; 6];
    mix_counts.copy_from_slice(&mix);
    Ok(WorkloadTelemetry {
        runs: get(o, "runs")?.as_u64("runs")?,
        compiles: get(o, "compiles")?.as_u64("compiles")?,
        cache_hits: get(o, "cache_hits")?.as_u64("cache_hits")?,
        clusters_reused: get(o, "clusters_reused")?.as_u64("clusters_reused")?,
        cycles_fast_forwarded: get(o, "cycles_fast_forwarded")?.as_u64("cycles_fast_forwarded")?,
        estimated: get(o, "estimated")?.as_bool("estimated")?,
        answered_by: match opt(o, "answered_by") {
            None => None,
            Some(f) => Some(dec_fidelity(f)?),
        },
        degraded: get(o, "degraded")?.as_bool("degraded")?,
        deadline_capped: get(o, "deadline_capped")?.as_bool("deadline_capped")?,
        mix_counts,
    })
}

/// Serializes an [`Outcome`] to its wire JSON.
///
/// The `kernel` field (shared with the executing session's cache) does
/// not cross the wire; the decoded outcome carries `kernel: None`.
pub fn encode_outcome(outcome: &Outcome) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{\"fingerprint\": \"{}\", \"backend\": \"{}\"",
        outcome.fingerprint, outcome.backend
    ));
    out.push_str(", \"grids\": [");
    for (i, g) in outcome.grids.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&enc_grid(g));
    }
    out.push_str("], \"reports\": [");
    for (i, r) in outcome.reports.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&enc_report(r));
    }
    out.push_str("], \"tuning\": ");
    match &outcome.tuning {
        None => out.push_str("null"),
        Some(t) => {
            let measured = t
                .measured
                .iter()
                .map(|(u, c)| format!("[{u}, {c}]"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "{{\"unroll\": {}, \"measured\": [{measured}]}}",
                t.unroll
            ));
        }
    }
    out.push_str(", \"verify_error\": ");
    match outcome.verify_error {
        None => out.push_str("null"),
        Some(e) => out.push_str(&enc_f64(e)),
    }
    out.push_str(", \"dma_utilization\": ");
    match outcome.dma_utilization {
        None => out.push_str("null"),
        Some(u) => out.push_str(&enc_f64(u)),
    }
    out.push_str(", \"telemetry\": ");
    out.push_str(&enc_telemetry(&outcome.telemetry));
    out.push('}');
    out
}

/// Decodes a wire JSON document back into an [`Outcome`].
///
/// Grid data, reports and telemetry are restored bit-exactly; the
/// `kernel` field always decodes as `None` (compiled kernels never
/// cross the wire). Malformed documents surface as
/// [`CodegenError::Wire`].
pub fn decode_outcome(text: &str) -> Result<Outcome, CodegenError> {
    dec_outcome_inner(text).map_err(wire)
}

fn dec_outcome_inner(text: &str) -> Result<Outcome, JsonError> {
    let doc = json::parse(text)?;
    let o = doc.as_object("outcome")?;
    let backend_name = get(o, "backend")?.as_str("backend")?;
    let backend = BACKEND_NAMES
        .iter()
        .find(|n| **n == backend_name)
        .copied()
        .ok_or_else(|| json::error(&format!("unknown backend `{backend_name}`")))?;
    let grids = get(o, "grids")?
        .as_array("grids")?
        .iter()
        .map(|g| dec_grid(g, "outcome grid"))
        .collect::<Result<Vec<Grid>, JsonError>>()?;
    let reports = get(o, "reports")?
        .as_array("reports")?
        .iter()
        .map(dec_report)
        .collect::<Result<Vec<RunReport>, JsonError>>()?;
    let tuning = match opt(o, "tuning") {
        None => None,
        Some(t) => {
            let to = t.as_object("tuning")?;
            let measured = get(to, "measured")?
                .as_array("tuning measurements")?
                .iter()
                .map(|m| {
                    let pair = m.as_array("tuning measurement")?;
                    if pair.len() != 2 {
                        return Err(json::error("tuning measurement: expected [unroll, cycles]"));
                    }
                    Ok((
                        dec_usize(&pair[0], "measured unroll")?,
                        pair[1].as_u64("measured cycles")?,
                    ))
                })
                .collect::<Result<Vec<(usize, u64)>, JsonError>>()?;
            Some(TuningDecision {
                unroll: dec_usize(get(to, "unroll")?, "tuned unroll")?,
                measured,
            })
        }
    };
    Ok(Outcome {
        fingerprint: dec_u64_str(get(o, "fingerprint")?, "fingerprint")?,
        backend,
        grids,
        reports,
        kernel: None,
        tuning,
        verify_error: match opt(o, "verify_error") {
            None => None,
            Some(e) => Some(dec_f64(e, "verify_error")?),
        },
        dma_utilization: match opt(o, "dma_utilization") {
            None => None,
            Some(u) => Some(dec_f64(u, "dma_utilization")?),
        },
        telemetry: dec_telemetry(get(o, "telemetry")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_core::gallery;

    fn round_trip(spec: &WorkloadSpec) -> WorkloadSpec {
        let text = encode_spec(spec);
        decode_spec(&text).expect("decode")
    }

    #[test]
    fn gallery_specs_round_trip_across_fidelities_and_tunes() {
        let fidelities = [
            None,
            Some(Fidelity::Analytic),
            Some(Fidelity::Cycles),
            Some(Fidelity::Golden),
            Some(Fidelity::Auto {
                accuracy_budget: 0.05,
            }),
        ];
        let tunes = [Tune::Fixed, Tune::Auto, Tune::Candidates(vec![1, 2, 4])];
        for stencil in gallery::all() {
            let extent = Extent::cube(stencil.space(), 16);
            for fidelity in fidelities {
                for tune in &tunes {
                    let mut w = Workload::new(stencil.clone())
                        .extent(extent)
                        .input_seed(7)
                        .tune(tune.clone());
                    if let Some(f) = fidelity {
                        w = w.fidelity(f);
                    }
                    let spec = w.freeze().expect("freeze");
                    let decoded = round_trip(&spec);
                    assert_eq!(decoded, spec, "{} round trip", stencil.name());
                    assert_eq!(decoded.fingerprint(), spec.fingerprint());
                }
            }
        }
    }

    #[test]
    fn spec_extras_round_trip() {
        // Multi-step + rotation + verification + non-default options.
        let mut options = RunOptions::new(Variant::Base);
        options.unroll = 3;
        options.interleave = InterleavePlan::new(2, 4);
        options.cluster.n_cores = 4;
        options.cluster.fast_forward = true;
        options.saris.index_width = IndexWidth::U32;
        options.saris.coeff_strategy = CoeffStrategy::StreamSr1;
        options.max_cycles = 123_456;
        options.concurrent_dma = true;
        options.reassociate = 1;
        options.base_allow_spill = true;
        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(24, 24))
            .input_seed(11)
            .options(options)
            .time_steps(3)
            .verify(1e-9)
            .freeze()
            .expect("freeze");
        let decoded = round_trip(&spec);
        assert_eq!(decoded, spec);
        assert_eq!(decoded.fingerprint(), spec.fingerprint());

        // Explicit input grids carrying NaN payloads and -0.0 must cross
        // the wire bit-exactly (InputSpec equality compares to_bits).
        let extent = Extent::new_2d(8, 8);
        let mut data = vec![0.25f64; extent.len()];
        data[0] = f64::from_bits(0x7ff8_0000_dead_beef); // NaN payload
        data[1] = -0.0;
        data[2] = f64::INFINITY;
        data[3] = f64::MIN_POSITIVE / 2.0; // subnormal
        let spec = Workload::new(gallery::j2d5pt())
            .extent(extent)
            .inputs(vec![Grid::from_raw(extent, data)])
            .freeze()
            .expect("freeze");
        let decoded = round_trip(&spec);
        assert_eq!(decoded, spec);
        assert_eq!(decoded.fingerprint(), spec.fingerprint());

        // DMA probes.
        let probe = Workload::dma_probe(Extent::new_3d(16, 16, 16))
            .freeze()
            .expect("freeze probe");
        let decoded = round_trip(&probe);
        assert_eq!(decoded, probe);
    }

    #[test]
    fn outcome_round_trips_bit_identically() {
        let extent = Extent::new_2d(4, 4);
        let mut data = vec![1.5f64; extent.len()];
        data[0] = f64::from_bits(0x7ff8_0000_0000_0042);
        data[1] = f64::NEG_INFINITY;
        data[2] = -0.0;
        let mut report = RunReport {
            cycles: 4242,
            cycles_fast_forwarded: 17,
            cores: Vec::new(),
            tcdm_accesses: 999,
            tcdm_conflicts: 3,
            icache_hits: 888,
            icache_misses: 7,
            dma: DmaStats {
                bytes: 2048,
                busy_cycles: 100,
                descriptors: 4,
                latency_cycles: 25,
            },
            freq_hz: 1.0e9,
        };
        let mut core = CoreReport {
            halted_at: 4000,
            int_stats: IntStats::default(),
            fpu: FpuStats::default(),
            streamers: [StreamerStats::default(); 3],
            tcdm_wait_cycles: 55,
        };
        core.int_stats.retired = 1234;
        core.int_stats.stalls.lsu = 9;
        core.fpu.retired = 777;
        core.fpu.flops = 1542;
        core.fpu.stalls.dependency = 31;
        core.streamers[1].elems = 640;
        report.cores.push(core);
        let outcome = Outcome {
            fingerprint: 0xdead_beef_cafe_f00d,
            backend: "sim",
            grids: vec![Grid::from_raw(extent, data)],
            reports: vec![report],
            kernel: None,
            tuning: Some(TuningDecision {
                unroll: 2,
                measured: vec![(1, 5000), (2, 4242)],
            }),
            verify_error: Some(3.5e-13),
            dma_utilization: None,
            telemetry: WorkloadTelemetry {
                runs: 3,
                compiles: 1,
                cache_hits: 2,
                clusters_reused: 2,
                cycles_fast_forwarded: 17,
                estimated: false,
                answered_by: Some(Fidelity::Cycles),
                degraded: false,
                deadline_capped: true,
                mix_counts: [9, 8, 7, 6, 5, 4],
            },
        };
        let decoded = decode_outcome(&encode_outcome(&outcome)).expect("decode");
        assert_eq!(decoded.fingerprint, outcome.fingerprint);
        assert_eq!(decoded.backend, outcome.backend);
        assert_eq!(decoded.grids.len(), 1);
        for (a, b) in decoded.grids[0]
            .as_slice()
            .iter()
            .zip(outcome.grids[0].as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decoded.reports, outcome.reports);
        assert!(decoded.kernel.is_none());
        assert_eq!(decoded.tuning, outcome.tuning);
        assert_eq!(decoded.verify_error, outcome.verify_error);
        assert_eq!(decoded.dma_utilization, outcome.dma_utilization);
        assert_eq!(decoded.telemetry, outcome.telemetry);
    }

    #[test]
    fn garbage_and_truncated_frames_are_rejected() {
        // Truncated payload: length prefix promises more than arrives.
        let mut frame = Vec::new();
        write_frame(&mut frame, b"{\"kind\": \"stencil\"}").expect("write");
        frame.truncate(frame.len() - 4);
        let err = read_frame(&mut frame.as_slice(), MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Oversized length prefix fails fast without allocating.
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let err = read_frame(&mut huge.as_slice(), MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Garbage payloads decode to Wire errors, not panics.
        for garbage in [
            "",
            "not json",
            "{\"kind\": \"sorcery\"}",
            "{\"kind\": \"stencil\"}",
            "{\"kind\": \"probe\", \"extent\": [16, 16]}",
        ] {
            let err = decode_spec(garbage).unwrap_err();
            assert!(
                matches!(err, CodegenError::Wire { .. }),
                "`{garbage}` should fail as a wire error, got: {err}"
            );
        }
        assert!(matches!(
            decode_outcome("{\"backend\": \"warp-drive\"}").unwrap_err(),
            CodegenError::Wire { .. }
        ));

        // A structurally valid document whose stencil fails builder
        // validation is rejected by the replay, not accepted blindly.
        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(1)
            .freeze()
            .expect("freeze");
        let tampered =
            encode_spec(&spec).replace("\"result\": [\"tmp\", ", "\"result\": [\"tmp\", 9");
        assert!(decode_spec(&tampered).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let spec = Workload::new(gallery::star3d2r())
            .extent(Extent::new_3d(16, 16, 16))
            .input_seed(3)
            .freeze()
            .expect("freeze");
        let payload = encode_spec(&spec);
        let mut buf = Vec::new();
        write_frame(&mut buf, payload.as_bytes()).expect("write");
        let read = read_frame(&mut buf.as_slice(), MAX_FRAME_LEN).expect("read");
        let decoded = decode_spec(std::str::from_utf8(&read).expect("utf8")).expect("decode");
        assert_eq!(decoded, spec);
    }

    /// Records the size of every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        // A reply-sized payload: prefix and payload are one write.
        let payload = vec![b'x'; 6 * 1024];
        let mut w = CountingWriter::default();
        write_frame(&mut w, &payload).expect("write");
        assert_eq!(w.writes, [4 + payload.len()]);
        assert_eq!(
            read_frame(&mut w.bytes.as_slice(), MAX_FRAME_LEN).expect("read"),
            payload
        );

        // The empty frame is its prefix, once.
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"").expect("write");
        assert_eq!(w.writes, [4]);

        // A payload too large to copy: the prefix rides with the first
        // chunk, never alone.
        let payload: Vec<u8> = (0..3 * 1024 * 1024 + 17).map(|i| i as u8).collect();
        let mut w = CountingWriter::default();
        write_frame(&mut w, &payload).expect("write");
        assert!(w.writes.len() > 1, "copied a multi-megabyte payload");
        assert!(
            w.writes.iter().all(|&n| n > 4),
            "a write no longer than the prefix: {:?}",
            w.writes
        );
        assert_eq!(
            read_frame(&mut w.bytes.as_slice(), MAX_FRAME_LEN).expect("read"),
            payload
        );
    }

    #[test]
    fn read_frame_buffers_what_arrives_not_what_is_claimed() {
        // The largest prefix the limit admits, then EOF: the claim alone
        // reserves a bounded buffer, and the short payload is an EOF.
        let prefix = (MAX_FRAME_LEN as u32).to_le_bytes();
        let err = read_frame(&mut prefix.as_slice(), MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // A payload larger than the initial reservation still arrives
        // whole, and the bytes after it stay in the reader.
        let payload: Vec<u8> = (0..READ_RESERVE * 3 + 5).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        write_frame(&mut buf, b"next").expect("write");
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).expect("read"), payload);
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).expect("read"), b"next");
    }

    /// `out = k * inp`, one coefficient: the smallest stencil whose
    /// identity hangs on a coefficient's bits.
    fn scaled(k: f64) -> saris_core::Stencil {
        let mut b = StencilBuilder::new("scaled", Space::Dim2);
        let inp = b.input("inp");
        b.output("out");
        let k = b.coeff("k", k);
        let c = b.tap(inp, Offset::CENTER);
        let r = b.mul(k, c);
        b.store(r);
        b.finish().expect("scaled is valid")
    }

    fn spec_text(stencil: saris_core::Stencil, seed: u64) -> String {
        let spec = Workload::new(stencil)
            .extent(Extent::new_2d(16, 16))
            .input_seed(seed)
            .freeze()
            .expect("freeze");
        encode_spec(&spec)
    }

    fn stencil_of(spec: &WorkloadSpec) -> &Arc<saris_core::Stencil> {
        spec.stencil().expect("stencil spec")
    }

    #[test]
    fn interner_shares_equal_stencils_and_only_those() {
        let interner = StencilInterner::new();
        let a = interner
            .decode_spec(&spec_text(gallery::jacobi_2d(), 1))
            .expect("decode");
        let b = interner
            .decode_spec(&spec_text(gallery::jacobi_2d(), 2))
            .expect("decode");
        assert!(Arc::ptr_eq(stencil_of(&a), stencil_of(&b)));
        // Interning changes who owns the stencil, not what was decoded.
        assert_eq!(a, decode_spec(&spec_text(gallery::jacobi_2d(), 1)).unwrap());
        assert_ne!(a.fingerprint(), b.fingerprint());

        // Another code is another stencil, and the first is still held.
        let other = interner
            .decode_spec(&spec_text(gallery::j2d5pt(), 1))
            .expect("decode");
        assert!(!Arc::ptr_eq(stencil_of(&a), stencil_of(&other)));
        let again = interner
            .decode_spec(&spec_text(gallery::jacobi_2d(), 3))
            .expect("decode");
        assert!(Arc::ptr_eq(stencil_of(&a), stencil_of(&again)));

        // One coefficient bit apart — or equal as numbers and apart as
        // bits — is a different stencil, decoded as sent.
        let k = 0.2f64;
        let base = interner.decode_spec(&spec_text(scaled(k), 1)).unwrap();
        let ulp = f64::from_bits(k.to_bits() + 1);
        for (near, far) in [(k, ulp), (0.0, -0.0)] {
            let x = interner.decode_spec(&spec_text(scaled(near), 1)).unwrap();
            let y = interner.decode_spec(&spec_text(scaled(far), 1)).unwrap();
            assert!(!Arc::ptr_eq(stencil_of(&x), stencil_of(&y)));
            assert_eq!(stencil_of(&y).coeffs()[0].value().to_bits(), far.to_bits());
            assert_ne!(x.fingerprint(), y.fingerprint());
        }
        let same = interner.decode_spec(&spec_text(scaled(k), 9)).unwrap();
        assert!(Arc::ptr_eq(stencil_of(&base), stencil_of(&same)));
    }

    #[test]
    fn interner_is_bounded_and_validates_first() {
        let interner = StencilInterner::new();
        let held = || interner.lock().len();
        for i in 0..3 * INTERNED_STENCILS {
            let text = spec_text(scaled(1.0 + i as f64), 1);
            interner.decode_spec(&text).expect("decode");
            assert!(held() <= INTERNED_STENCILS);
        }
        assert_eq!(held(), INTERNED_STENCILS);
        // The most recent stencils are the ones kept.
        let last = scaled(3.0 * INTERNED_STENCILS as f64);
        assert!(interner.lock().iter().any(|s| **s == last));

        // A stencil the builder rejects is rejected here with the same
        // words, and never reaches the table.
        let tampered = spec_text(gallery::jacobi_2d(), 1)
            .replace("\"result\": [\"tmp\", ", "\"result\": [\"tmp\", 9");
        let plain = decode_spec(&tampered).unwrap_err();
        let interned = interner.decode_spec(&tampered).unwrap_err();
        assert!(plain.to_string().contains("stencil replay rejected"));
        assert_eq!(plain.to_string(), interned.to_string());
        assert!(!interner
            .lock()
            .iter()
            .any(|s| s.name() == gallery::jacobi_2d().name()));
        assert_eq!(held(), INTERNED_STENCILS);
    }
}
