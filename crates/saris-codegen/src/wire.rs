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
//! # Encode semantics
//!
//! Every encoder appends to the `String` it is given:
//! [`encode_spec_into`] and [`encode_outcome_into`] write a document
//! where the caller's envelope wants it, so a reply is built once, in
//! the buffer it is framed from. [`encode_spec`] and [`encode_outcome`]
//! are the same encoders over a fresh `String`. The bytes are pinned by
//! `tests/wire_bytes.rs`.
//!
//! # Decode semantics
//!
//! A decoder makes **one pass** over the frame, driving a
//! [`json::Reader`] field by field and writing
//! what it reads where it belongs: grid digits into the grid's
//! `Vec<f64>`, counters into their fixed arrays, tags into their enums.
//! No document tree is built. Numbers are parsed from slices of the
//! frame and strings (names, tags) are borrowed from it unless they
//! contain an escape; nothing borrowed outlives the decode call — a
//! decoded [`WorkloadSpec`] or [`Outcome`] owns all its data, and the
//! frame buffer can be reused as soon as the decoder returns. Keys may
//! come in any order, unknown keys are skipped (validated as JSON), a
//! repeated key keeps its last value, and containers nest at most
//! [`json::MAX_DEPTH`] deep.
//!
//! [`decode_spec`] does not deserialize a [`WorkloadSpec`] field-by-field:
//! what it reads from the frame is replayed — the stencil through
//! [`StencilBuilder`], arrays, coefficients, taps, operations and
//! result in that order, and the workload through the [`Workload`]
//! builder — and then frozen by [`Workload::freeze`]. A decoded spec
//! therefore passed the exact same validation as a locally built one —
//! a forged or corrupted frame cannot smuggle an invalid stencil or
//! workload past the builder — and its fingerprint is recomputed, never
//! trusted from the wire. What the builders would *panic* on instead of
//! rejecting (a zero extent, a zero interleave factor) the decoder
//! rejects first: whatever the bytes, the result is a spec or a
//! [`CodegenError`].
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

use std::borrow::Cow;
use std::fmt::{self, Write as _};
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
use crate::json::{self, JsonError, Kind, Reader};
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

// ---------------------------------------------------------------------------
// Shared shapes
// ---------------------------------------------------------------------------

/// Encodes `items` one after another with `", "` between them.
fn enc_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut enc: impl FnMut(&mut String, T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        enc(out, item)?;
    }
    Ok(())
}

/// `[a, b, ...]` of unsigned counters.
fn enc_counters(out: &mut String, counters: &[u64]) -> fmt::Result {
    out.push('[');
    enc_list(out, counters, |out, c| write!(out, "{c}"))?;
    out.push(']');
    Ok(())
}

/// Decodes the object `$r` is at, field by field in whatever order the
/// document has them, into the named locals. Every `required` key must
/// be present; `optional` decoders yield an `Option` (see [`opt`]) and
/// an absent key reads as `None`; unknown keys are skipped and a
/// repeated key keeps its last value.
macro_rules! fields {
    ($r:ident, $what:expr,
     required { $($key:literal => $var:ident = $dec:expr),* $(,)? }
     $(optional { $($okey:literal => $ovar:ident = $odec:expr),* $(,)? })?) => {
        $(let mut $var = None;)*
        $($(let mut $ovar = None;)*)?
        $r.begin_object($what)?;
        while let Some(key) = $r.next_key()? {
            match &*key {
                $($key => $var = Some($dec),)*
                $($($okey => $ovar = $odec,)*)?
                _ => $r.skip_value()?,
            }
        }
        $(let $var =
            $var.ok_or_else(|| json::error(concat!("missing field `", $key, "`")))?;)*
    };
}

/// `null` reads as `None`, anything else through `dec`.
fn opt<'a, T>(
    r: &mut Reader<'a>,
    dec: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<Option<T>, JsonError> {
    if r.null()? {
        Ok(None)
    } else {
        dec(r).map(Some)
    }
}

/// An array of whatever `item` decodes.
fn list<'a, T>(
    r: &mut Reader<'a>,
    what: &str,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<Vec<T>, JsonError> {
    let mut out = Vec::new();
    r.begin_array(what)?;
    while r.next_element()? {
        out.push(item(r)?);
    }
    Ok(out)
}

/// An array of exactly `N` of whatever `item` decodes.
fn fixed<'a, T: Copy + Default, const N: usize>(
    r: &mut Reader<'a>,
    what: &str,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<[T; N], JsonError> {
    let mut out = [T::default(); N];
    let mut n = 0;
    r.begin_array(what)?;
    while r.next_element()? {
        let value = item(r)?;
        if let Some(slot) = out.get_mut(n) {
            *slot = value;
        }
        n += 1;
    }
    if n != N {
        return Err(json::error(&format!(
            "{what}: expected {N} elements, got {n}"
        )));
    }
    Ok(out)
}

/// An array of exactly `N` unsigned integers.
fn counters<const N: usize>(r: &mut Reader<'_>, what: &str) -> Result<[u64; N], JsonError> {
    fixed(r, what, |r| r.u64(what))
}

/// An unsigned integer that fits the field it is for.
fn dec_uint<T: TryFrom<u64>>(r: &mut Reader<'_>, what: &str) -> Result<T, JsonError> {
    T::try_from(r.u64(what)?).map_err(|_| json::error(&format!("{what} is out of range")))
}

fn dec_u64_str(r: &mut Reader<'_>, what: &str) -> Result<u64, JsonError> {
    r.str(what)?
        .parse::<u64>()
        .map_err(|_| json::error(&format!("{what}: expected a decimal u64 string")))
}

// ---------------------------------------------------------------------------
// f64 policy
// ---------------------------------------------------------------------------

fn enc_f64(out: &mut String, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v:?}")
    } else {
        write!(out, "\"0x{:016x}\"", v.to_bits())
    }
}

fn dec_f64(r: &mut Reader<'_>, what: &str) -> Result<f64, JsonError> {
    match r.peek()? {
        Kind::Number => r.f64(what),
        Kind::String => {
            let s = r.str(what)?;
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

// ---------------------------------------------------------------------------
// Geometry, grids, options
// ---------------------------------------------------------------------------

fn enc_extent(out: &mut String, e: Extent) -> fmt::Result {
    write!(out, "[{}, {}, {}]", e.nx, e.ny, e.nz)
}

/// An extent a locally built spec could carry: every component
/// positive (`Extent::new_2d` / `new_3d` assert it) and a point count
/// that fits `usize` (`Extent::len` multiplies unchecked).
fn dec_extent(r: &mut Reader<'_>, what: &str) -> Result<Extent, JsonError> {
    let [nx, ny, nz]: [usize; 3] = fixed(r, what, |r| dec_uint(r, what))?;
    let points = nx.checked_mul(ny).and_then(|xy| xy.checked_mul(nz));
    if matches!(points, None | Some(0)) {
        return Err(json::error(&format!(
            "{what}: [{nx}, {ny}, {nz}] is not a positive extent"
        )));
    }
    Ok(if nz == 1 {
        Extent::new_2d(nx, ny)
    } else {
        Extent::new_3d(nx, ny, nz)
    })
}

fn enc_grid(out: &mut String, g: &Grid) -> fmt::Result {
    out.push_str("{\"extent\": ");
    enc_extent(out, g.extent())?;
    out.push_str(", \"data\": [");
    enc_list(out, g.as_slice(), |out, v| enc_f64(out, *v))?;
    out.push_str("]}");
    Ok(())
}

fn dec_grid(r: &mut Reader<'_>, what: &str) -> Result<Grid, JsonError> {
    fields!(r, what, required {
        "extent" => extent = dec_extent(r, "grid extent")?,
        "data" => data = list(r, "grid data", |r| dec_f64(r, "grid point"))?,
    });
    if data.len() != extent.len() {
        return Err(json::error(&format!(
            "{what}: {} data points for a {}-point extent",
            data.len(),
            extent.len()
        )));
    }
    Ok(Grid::from_raw(extent, data))
}

fn enc_cluster(out: &mut String, c: &ClusterConfig) -> fmt::Result {
    write!(
        out,
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
            "\"dma_beat_bytes\": {}, \"freq_hz\": "
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
    )?;
    enc_f64(out, c.freq_hz)?;
    write!(out, ", \"fast_forward\": {}}}", c.fast_forward)
}

fn dec_cluster(r: &mut Reader<'_>) -> Result<ClusterConfig, JsonError> {
    fields!(r, "cluster config", required {
        "n_cores" => n_cores = dec_uint(r, "n_cores")?,
        "tcdm_banks" => tcdm_banks = dec_uint(r, "tcdm_banks")?,
        "tcdm_bytes" => tcdm_bytes = dec_uint(r, "tcdm_bytes")?,
        "main_mem_bytes" => main_mem_bytes = dec_uint(r, "main_mem_bytes")?,
        "main_mem_latency" => main_mem_latency = dec_uint(r, "main_mem_latency")?,
        "main_mem_bytes_per_cycle" =>
            main_mem_bytes_per_cycle = dec_uint(r, "main_mem_bytes_per_cycle")?,
        "stream_fifo_depth" => stream_fifo_depth = dec_uint(r, "stream_fifo_depth")?,
        "launch_queue_depth" => launch_queue_depth = dec_uint(r, "launch_queue_depth")?,
        "index_fifo_depth" => index_fifo_depth = dec_uint(r, "index_fifo_depth")?,
        "fpu_latency_add" => fpu_latency_add = dec_uint(r, "fpu_latency_add")?,
        "fpu_latency_mul" => fpu_latency_mul = dec_uint(r, "fpu_latency_mul")?,
        "fpu_latency_fma" => fpu_latency_fma = dec_uint(r, "fpu_latency_fma")?,
        "fpu_latency_div" => fpu_latency_div = dec_uint(r, "fpu_latency_div")?,
        "fpu_latency_misc" => fpu_latency_misc = dec_uint(r, "fpu_latency_misc")?,
        "fp_load_latency" => fp_load_latency = dec_uint(r, "fp_load_latency")?,
        "offload_queue_depth" => offload_queue_depth = dec_uint(r, "offload_queue_depth")?,
        "sequencer_depth" => sequencer_depth = dec_uint(r, "sequencer_depth")?,
        "branch_taken_penalty" => branch_taken_penalty = dec_uint(r, "branch_taken_penalty")?,
        "icache_lines" => icache_lines = dec_uint(r, "icache_lines")?,
        "icache_line_bytes" => icache_line_bytes = dec_uint(r, "icache_line_bytes")?,
        "icache_miss_penalty" => icache_miss_penalty = dec_uint(r, "icache_miss_penalty")?,
        "dma_beat_bytes" => dma_beat_bytes = dec_uint(r, "dma_beat_bytes")?,
        "freq_hz" => freq_hz = dec_f64(r, "freq_hz")?,
        "fast_forward" => fast_forward = r.bool("fast_forward")?,
    });
    Ok(ClusterConfig {
        n_cores,
        tcdm_banks,
        tcdm_bytes,
        main_mem_bytes,
        main_mem_latency,
        main_mem_bytes_per_cycle,
        stream_fifo_depth,
        launch_queue_depth,
        index_fifo_depth,
        fpu_latency_add,
        fpu_latency_mul,
        fpu_latency_fma,
        fpu_latency_div,
        fpu_latency_misc,
        fp_load_latency,
        offload_queue_depth,
        sequencer_depth,
        branch_taken_penalty,
        icache_lines,
        icache_line_bytes,
        icache_miss_penalty,
        dma_beat_bytes,
        freq_hz,
        fast_forward,
    })
}

fn enc_options(out: &mut String, o: &RunOptions) -> fmt::Result {
    let index_width = match o.saris.index_width {
        IndexWidth::U8 => "u8",
        IndexWidth::U16 => "u16",
        IndexWidth::U32 => "u32",
    };
    let coeff_strategy = match o.saris.coeff_strategy {
        CoeffStrategy::Hybrid => "hybrid",
        CoeffStrategy::StreamSr1 => "stream_sr1",
    };
    write!(
        out,
        "{{\"variant\": \"{}\", \"unroll\": {}, \"interleave\": [{}, {}], \"cluster\": ",
        o.variant,
        o.unroll,
        o.interleave.px(),
        o.interleave.py(),
    )?;
    enc_cluster(out, &o.cluster)?;
    write!(
        out,
        concat!(
            ", \"saris\": {{\"coeff_reg_budget\": {}, ",
            "\"index_width\": \"{}\", \"coeff_strategy\": \"{}\"}}, ",
            "\"max_cycles\": {}, \"concurrent_dma\": {}, ",
            "\"reassociate\": {}, \"base_allow_spill\": {}}}"
        ),
        o.saris.coeff_reg_budget,
        index_width,
        coeff_strategy,
        o.max_cycles,
        o.concurrent_dma,
        o.reassociate,
        o.base_allow_spill,
    )
}

fn dec_saris_options(r: &mut Reader<'_>) -> Result<SarisOptions, JsonError> {
    fields!(r, "saris options", required {
        "coeff_reg_budget" => coeff_reg_budget = dec_uint(r, "coeff_reg_budget")?,
        "index_width" => index_width = match &*r.str("index_width")? {
            "u8" => IndexWidth::U8,
            "u16" => IndexWidth::U16,
            "u32" => IndexWidth::U32,
            other => return Err(json::error(&format!("unknown index width `{other}`"))),
        },
        "coeff_strategy" => coeff_strategy = match &*r.str("coeff_strategy")? {
            "hybrid" => CoeffStrategy::Hybrid,
            "stream_sr1" => CoeffStrategy::StreamSr1,
            other => return Err(json::error(&format!("unknown coeff strategy `{other}`"))),
        },
    });
    Ok(SarisOptions {
        coeff_reg_budget,
        index_width,
        coeff_strategy,
    })
}

fn dec_options(r: &mut Reader<'_>) -> Result<RunOptions, JsonError> {
    fields!(r, "run options", required {
        "variant" => variant = match &*r.str("variant")? {
            "base" => Variant::Base,
            "saris" => Variant::Saris,
            other => return Err(json::error(&format!("unknown variant `{other}`"))),
        },
        "unroll" => unroll = dec_uint(r, "unroll")?,
        "interleave" => interleave = fixed(r, "interleave", |r| dec_uint(r, "interleave factor"))?,
        "cluster" => cluster = dec_cluster(r)?,
        "saris" => saris = dec_saris_options(r)?,
        "max_cycles" => max_cycles = r.u64("max_cycles")?,
        "concurrent_dma" => concurrent_dma = r.bool("concurrent_dma")?,
        "reassociate" => reassociate = dec_uint(r, "reassociate")?,
        "base_allow_spill" => base_allow_spill = r.bool("base_allow_spill")?,
    });
    let [px, py]: [usize; 2] = interleave;
    if px == 0 || py == 0 {
        return Err(json::error("interleave: px and py must be non-zero"));
    }
    let mut options = RunOptions::new(variant);
    options.unroll = unroll;
    options.interleave = InterleavePlan::new(px, py);
    options.cluster = cluster;
    options.saris = saris;
    options.max_cycles = max_cycles;
    options.concurrent_dma = concurrent_dma;
    options.reassociate = reassociate;
    options.base_allow_spill = base_allow_spill;
    Ok(options)
}

// ---------------------------------------------------------------------------
// Stencils
// ---------------------------------------------------------------------------

fn enc_operand(out: &mut String, op: Operand) -> fmt::Result {
    match op {
        Operand::Tap(i) => write!(out, "[\"tap\", {i}]"),
        Operand::Coeff(i) => write!(out, "[\"coeff\", {i}]"),
        Operand::Tmp(i) => write!(out, "[\"tmp\", {i}]"),
    }
}

fn dec_operand(r: &mut Reader<'_>, what: &str) -> Result<Operand, JsonError> {
    let shape = || json::error(&format!("{what}: expected [kind, index]"));
    r.begin_array(what)?;
    if !r.next_element()? {
        return Err(shape());
    }
    let kind = r.str(what)?;
    if !r.next_element()? {
        return Err(shape());
    }
    let index = dec_uint(r, what)?;
    if r.next_element()? {
        return Err(shape());
    }
    match &*kind {
        "tap" => Ok(Operand::Tap(index)),
        "coeff" => Ok(Operand::Coeff(index)),
        "tmp" => Ok(Operand::Tmp(index)),
        other => Err(json::error(&format!(
            "{what}: unknown operand kind `{other}`"
        ))),
    }
}

fn enc_name(out: &mut String, name: &str) {
    out.push_str("{\"name\": \"");
    json::escape_into(out, name);
}

fn enc_stencil(out: &mut String, s: &saris_core::Stencil) -> fmt::Result {
    enc_name(out, s.name());
    out.push_str("\", \"space\": \"");
    out.push_str(match s.space() {
        Space::Dim2 => "2d",
        Space::Dim3 => "3d",
    });
    out.push_str("\", \"arrays\": [");
    enc_list(out, s.arrays(), |out, a| {
        enc_name(out, a.name());
        out.push_str("\", \"role\": \"");
        out.push_str(match a.role() {
            ArrayRole::Input => "input",
            ArrayRole::Output => "output",
        });
        out.push_str("\"}");
        Ok(())
    })?;
    out.push_str("], \"coeffs\": [");
    enc_list(out, s.coeffs(), |out, c| {
        enc_name(out, c.name());
        out.push_str("\", \"value\": ");
        enc_f64(out, c.value())?;
        out.push('}');
        Ok(())
    })?;
    out.push_str("], \"taps\": [");
    enc_list(out, s.taps(), |out, t| {
        let o = t.offset;
        write!(out, "[{}, {}, {}, {}]", t.array.index(), o.dx, o.dy, o.dz)
    })?;
    out.push_str("], \"ops\": [");
    enc_list(out, s.ops(), |out, op| {
        let (name, a, b, c) = match *op {
            PointOp::Bin { kind, a, b } => {
                let name = match kind {
                    BinKind::Add => "add",
                    BinKind::Sub => "sub",
                    BinKind::Mul => "mul",
                };
                (name, a, b, None)
            }
            PointOp::Fma { a, b, c } => ("fma", a, b, Some(c)),
        };
        write!(out, "[\"{name}\", ")?;
        enc_operand(out, a)?;
        out.push_str(", ");
        enc_operand(out, b)?;
        if let Some(c) = c {
            out.push_str(", ");
            enc_operand(out, c)?;
        }
        out.push(']');
        Ok(())
    })?;
    out.push_str("], \"result\": ");
    enc_operand(out, s.result())?;
    out.push('}');
    Ok(())
}

fn dec_array_decl<'a>(r: &mut Reader<'a>) -> Result<(Cow<'a, str>, ArrayRole), JsonError> {
    fields!(r, "array decl", required {
        "name" => name = r.str("array name")?,
        "role" => role = match &*r.str("array role")? {
            "input" => ArrayRole::Input,
            "output" => ArrayRole::Output,
            other => return Err(json::error(&format!("unknown array role `{other}`"))),
        },
    });
    Ok((name, role))
}

fn dec_coeff<'a>(r: &mut Reader<'a>) -> Result<(Cow<'a, str>, f64), JsonError> {
    fields!(r, "coeff", required {
        "name" => name = r.str("coeff name")?,
        "value" => value = dec_f64(r, "coeff value")?,
    });
    Ok((name, value))
}

/// `[array, dx, dy, dz]`.
fn dec_tap(r: &mut Reader<'_>) -> Result<[i64; 4], JsonError> {
    fixed(r, "tap", |r| r.i64("tap"))
}

/// `[kind, a, b]` or `["fma", a, b, c]`.
fn dec_op(r: &mut Reader<'_>) -> Result<PointOp, JsonError> {
    r.begin_array("op")?;
    if !r.next_element()? {
        return Err(json::error("op: empty"));
    }
    let kind = r.str("op kind")?;
    let mut operands = [Operand::Tmp(0); 3];
    let mut n = 0;
    while r.next_element()? {
        let operand = dec_operand(r, "op operand")?;
        if let Some(slot) = operands.get_mut(n) {
            *slot = operand;
        }
        n += 1;
    }
    let [a, b, c] = operands;
    let bin = |kind| Ok(PointOp::Bin { kind, a, b });
    match (&*kind, n) {
        ("add", 2) => bin(BinKind::Add),
        ("sub", 2) => bin(BinKind::Sub),
        ("mul", 2) => bin(BinKind::Mul),
        ("fma", 3) => Ok(PointOp::Fma { a, b, c }),
        ("add" | "sub" | "mul", _) => Err(json::error("binary op: expected [kind, a, b]")),
        ("fma", _) => Err(json::error("fma op: expected [\"fma\", a, b, c]")),
        (other, _) => Err(json::error(&format!("unknown op kind `{other}`"))),
    }
}

/// Reads a serialized stencil and replays it through [`StencilBuilder`]
/// — arrays, coefficients, taps, operations, result, whatever order the
/// document had them in — so decode re-runs the builder's full
/// validation (`finish`).
fn dec_stencil(r: &mut Reader<'_>) -> Result<saris_core::Stencil, JsonError> {
    fields!(r, "stencil", required {
        "name" => name = r.str("stencil name")?,
        "space" => space = match &*r.str("stencil space")? {
            "2d" => Space::Dim2,
            "3d" => Space::Dim3,
            other => return Err(json::error(&format!("unknown space `{other}`"))),
        },
        "arrays" => arrays = list(r, "arrays", dec_array_decl)?,
        "coeffs" => coeffs = list(r, "coeffs", dec_coeff)?,
        "taps" => taps = list(r, "taps", dec_tap)?,
        "ops" => ops = list(r, "ops", dec_op)?,
        "result" => result = dec_operand(r, "result")?,
    });
    let mut builder = StencilBuilder::new(name, space);
    let array_ids: Vec<_> = arrays
        .into_iter()
        .map(|(name, role)| match role {
            ArrayRole::Input => builder.input(name),
            ArrayRole::Output => builder.output(name),
        })
        .collect();
    for (name, value) in coeffs {
        builder.coeff(name, value);
    }
    for [array, dx, dy, dz] in taps {
        let id = usize::try_from(array)
            .ok()
            .and_then(|array| array_ids.get(array))
            .ok_or_else(|| json::error(&format!("tap references unknown array {array}")))?;
        let offset =
            |d: i64| i32::try_from(d).map_err(|_| json::error("tap offset is out of range"));
        let (dx, dy, dz) = (offset(dx)?, offset(dy)?, offset(dz)?);
        builder.tap(*id, Offset { dx, dy, dz });
    }
    for op in ops {
        match op {
            PointOp::Bin { kind, a, b } => match kind {
                BinKind::Add => builder.add(a, b),
                BinKind::Sub => builder.sub(a, b),
                BinKind::Mul => builder.mul(a, b),
            },
            PointOp::Fma { a, b, c } => builder.fma(a, b, c),
        };
    }
    builder.store(result);
    builder
        .finish()
        .map_err(|e| json::error(&format!("stencil replay rejected: {e}")))
}

// ---------------------------------------------------------------------------
// Fidelity / tuning
// ---------------------------------------------------------------------------

fn enc_fidelity(out: &mut String, f: Fidelity) -> fmt::Result {
    match f {
        Fidelity::Analytic => out.push_str("\"analytic\""),
        Fidelity::Cycles => out.push_str("\"cycles\""),
        Fidelity::Golden => out.push_str("\"golden\""),
        Fidelity::Auto { accuracy_budget } => {
            out.push_str("{\"auto\": ");
            enc_f64(out, accuracy_budget)?;
            out.push('}');
        }
    }
    Ok(())
}

fn dec_fidelity(r: &mut Reader<'_>) -> Result<Fidelity, JsonError> {
    match r.peek()? {
        Kind::String => match &*r.str("fidelity")? {
            "analytic" => Ok(Fidelity::Analytic),
            "cycles" => Ok(Fidelity::Cycles),
            "golden" => Ok(Fidelity::Golden),
            other => Err(json::error(&format!("unknown fidelity `{other}`"))),
        },
        Kind::Object => {
            fields!(r, "fidelity", required {
                "auto" => accuracy_budget = dec_f64(r, "auto accuracy budget")?,
            });
            Ok(Fidelity::Auto { accuracy_budget })
        }
        _ => Err(json::error(
            "fidelity: expected a string or {\"auto\": ...}",
        )),
    }
}

fn enc_tune(out: &mut String, t: &Tune) -> fmt::Result {
    match t {
        Tune::Fixed => out.push_str("\"fixed\""),
        Tune::Auto => out.push_str("\"auto\""),
        Tune::Candidates(c) => {
            out.push_str("{\"candidates\": [");
            enc_list(out, c, |out, u| write!(out, "{u}"))?;
            out.push_str("]}");
        }
    }
    Ok(())
}

fn dec_tune(r: &mut Reader<'_>) -> Result<Tune, JsonError> {
    match r.peek()? {
        Kind::String => match &*r.str("tune")? {
            "fixed" => Ok(Tune::Fixed),
            "auto" => Ok(Tune::Auto),
            other => Err(json::error(&format!("unknown tune mode `{other}`"))),
        },
        Kind::Object => {
            fields!(r, "tune", required {
                "candidates" => candidates =
                    list(r, "tune candidates", |r| dec_uint(r, "tune candidate"))?,
            });
            Ok(Tune::Candidates(candidates))
        }
        _ => Err(json::error(
            "tune: expected a string or {\"candidates\": ...}",
        )),
    }
}

// ---------------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------------

/// Appends a frozen [`WorkloadSpec`]'s wire JSON to `out`.
pub fn encode_spec_into(out: &mut String, spec: &WorkloadSpec) {
    enc_spec(out, spec).expect("writing to a String cannot fail");
}

/// Serializes a frozen [`WorkloadSpec`] to its wire JSON.
pub fn encode_spec(spec: &WorkloadSpec) -> String {
    let mut out = String::with_capacity(2048);
    encode_spec_into(&mut out, spec);
    out
}

fn enc_spec(out: &mut String, spec: &WorkloadSpec) -> fmt::Result {
    match spec.kind() {
        WorkloadKind::DmaProbe { extent, cluster } => {
            out.push_str("{\"kind\": \"probe\", \"extent\": ");
            enc_extent(out, *extent)?;
            out.push_str(", \"cluster\": ");
            enc_cluster(out, cluster)?;
        }
        WorkloadKind::Stencil(w) => {
            out.push_str("{\"kind\": \"stencil\", \"stencil\": ");
            enc_stencil(out, &w.stencil)?;
            out.push_str(", \"extent\": ");
            enc_extent(out, w.extent)?;
            out.push_str(", \"inputs\": ");
            match &w.inputs {
                InputSpec::Seeded(seed) => write!(out, "{{\"seed\": \"{seed}\"}}")?,
                InputSpec::Grids(grids) => {
                    out.push_str("{\"grids\": [");
                    enc_list(out, grids.iter(), enc_grid)?;
                    out.push_str("]}");
                }
            }
            out.push_str(", \"options\": ");
            enc_options(out, &w.options)?;
            out.push_str(", \"tune\": ");
            enc_tune(out, &w.tune)?;
            write!(out, ", \"time_steps\": {}", w.time_steps)?;
            out.push_str(", \"rotation\": ");
            out.push_str(match w.rotation {
                None => "null",
                Some(BufferRotation::Alternating) => "\"alternating\"",
                Some(BufferRotation::Leapfrog) => "\"leapfrog\"",
            });
            out.push_str(", \"verify\": ");
            enc_opt(out, w.verify, enc_f64)?;
            out.push_str(", \"fidelity\": ");
            enc_opt(out, w.fidelity, enc_fidelity)?;
        }
    }
    out.push('}');
    Ok(())
}

/// `null` for `None`, `enc` of the value otherwise.
fn enc_opt<T>(
    out: &mut String,
    value: Option<T>,
    enc: impl FnOnce(&mut String, T) -> fmt::Result,
) -> fmt::Result {
    match value {
        None => {
            out.push_str("null");
            Ok(())
        }
        Some(value) => enc(out, value),
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
    let mut r = Reader::new(text);
    let workload = dec_workload(&mut r).map_err(wire)?;
    r.finish().map_err(wire)?;
    workload.freeze()
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

/// `{"seed": "<u64>"}` or `{"grids": [...]}`; a seed wins if both are
/// there.
fn dec_inputs(r: &mut Reader<'_>) -> Result<InputSpec, JsonError> {
    fields!(r, "inputs", required {} optional {
        "seed" => seed = opt(r, |r| dec_u64_str(r, "input seed"))?,
        "grids" => grids = opt(r, |r| list(r, "input grids", |r| dec_grid(r, "input grid")))?,
    });
    match (seed, grids) {
        (Some(seed), _) => Ok(InputSpec::Seeded(seed)),
        (None, Some(grids)) => Ok(InputSpec::Grids(Arc::new(grids))),
        (None, None) => Err(json::error("missing field `grids`")),
    }
}

fn dec_workload(r: &mut Reader<'_>) -> Result<Workload, JsonError> {
    fields!(r, "workload spec", required {
        "kind" => kind = r.str("kind")?,
        "extent" => extent = dec_extent(r, "extent")?,
    } optional {
        "cluster" => cluster = Some(dec_cluster(r)?),
        "stencil" => stencil = Some(dec_stencil(r)?),
        "inputs" => inputs = Some(dec_inputs(r)?),
        "options" => options = Some(dec_options(r)?),
        "tune" => tune = Some(dec_tune(r)?),
        "time_steps" => time_steps = Some(dec_uint(r, "time_steps")?),
        "rotation" => rotation = opt(r, |r| match &*r.str("rotation")? {
            "alternating" => Ok(BufferRotation::Alternating),
            "leapfrog" => Ok(BufferRotation::Leapfrog),
            other => Err(json::error(&format!("unknown rotation `{other}`"))),
        })?,
        "verify" => verify = opt(r, |r| dec_f64(r, "verify tolerance"))?,
        "fidelity" => fidelity = opt(r, dec_fidelity)?,
    });
    let missing = |field: &str| json::error(&format!("missing field `{field}`"));
    match &*kind {
        "probe" => {
            let mut options = RunOptions::new(Variant::Saris);
            options.cluster = cluster.ok_or_else(|| missing("cluster"))?;
            Ok(Workload::dma_probe(extent).options(options))
        }
        "stencil" => {
            let mut w = Workload::new(stencil.ok_or_else(|| missing("stencil"))?).extent(extent);
            w = match inputs.ok_or_else(|| missing("inputs"))? {
                InputSpec::Seeded(seed) => w.input_seed(seed),
                InputSpec::Grids(grids) => w.shared_inputs(grids),
            };
            w = w.options(options.ok_or_else(|| missing("options"))?);
            w = w.tune(tune.ok_or_else(|| missing("tune"))?);
            w = w.time_steps(time_steps.ok_or_else(|| missing("time_steps"))?);
            if let Some(rotation) = rotation {
                w = w.rotation(rotation);
            }
            if let Some(tolerance) = verify {
                w = w.verify(tolerance);
            }
            if let Some(fidelity) = fidelity {
                w = w.fidelity(fidelity);
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

fn enc_core(out: &mut String, c: &CoreReport) -> fmt::Result {
    write!(
        out,
        "{{\"halted_at\": {}, \"tcdm_wait_cycles\": {}, \"int\": ",
        c.halted_at, c.tcdm_wait_cycles
    )?;
    let s = &c.int_stats.stalls;
    enc_counters(
        out,
        &[
            c.int_stats.retired,
            s.offload_full,
            s.launch_full,
            s.lsu,
            s.icache,
            s.branch,
            s.drain,
            s.multi_issue,
        ],
    )?;
    out.push_str(", \"fpu\": ");
    let (f, fs) = (&c.fpu, &c.fpu.stalls);
    enc_counters(
        out,
        &[
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
            fs.idle,
        ],
    )?;
    out.push_str(", \"streamers\": [");
    enc_list(out, &c.streamers, |out, st| {
        enc_counters(
            out,
            &[st.elems, st.idx_fetches, st.jobs, st.idle_full_cycles],
        )
    })?;
    out.push_str("]}");
    Ok(())
}

fn dec_core(r: &mut Reader<'_>) -> Result<CoreReport, JsonError> {
    fields!(r, "core report", required {
        "halted_at" => halted_at = r.u64("halted_at")?,
        "tcdm_wait_cycles" => tcdm_wait_cycles = r.u64("tcdm_wait_cycles")?,
        "int" => int = counters::<8>(r, "int counters")?,
        "fpu" => fpu = counters::<13>(r, "fpu counters")?,
        "streamers" => streamers = fixed(r, "streamers", |r| {
            let [elems, idx_fetches, jobs, idle_full_cycles] = counters(r, "streamer counters")?;
            Ok(StreamerStats {
                elems,
                idx_fetches,
                jobs,
                idle_full_cycles,
            })
        })?,
    });
    Ok(CoreReport {
        halted_at,
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
        tcdm_wait_cycles,
    })
}

fn enc_report(out: &mut String, r: &RunReport) -> fmt::Result {
    write!(
        out,
        concat!(
            "{{\"cycles\": {}, \"cycles_fast_forwarded\": {}, ",
            "\"tcdm_accesses\": {}, \"tcdm_conflicts\": {}, ",
            "\"icache_hits\": {}, \"icache_misses\": {}, \"dma\": "
        ),
        r.cycles,
        r.cycles_fast_forwarded,
        r.tcdm_accesses,
        r.tcdm_conflicts,
        r.icache_hits,
        r.icache_misses,
    )?;
    let d = &r.dma;
    enc_counters(
        out,
        &[d.bytes, d.busy_cycles, d.descriptors, d.latency_cycles],
    )?;
    out.push_str(", \"freq_hz\": ");
    enc_f64(out, r.freq_hz)?;
    out.push_str(", \"cores\": [");
    enc_list(out, &r.cores, enc_core)?;
    out.push_str("]}");
    Ok(())
}

fn dec_report(r: &mut Reader<'_>) -> Result<RunReport, JsonError> {
    fields!(r, "run report", required {
        "cycles" => cycles = r.u64("cycles")?,
        "cycles_fast_forwarded" => cycles_fast_forwarded = r.u64("cycles_fast_forwarded")?,
        "tcdm_accesses" => tcdm_accesses = r.u64("tcdm_accesses")?,
        "tcdm_conflicts" => tcdm_conflicts = r.u64("tcdm_conflicts")?,
        "icache_hits" => icache_hits = r.u64("icache_hits")?,
        "icache_misses" => icache_misses = r.u64("icache_misses")?,
        "dma" => dma = counters::<4>(r, "dma counters")?,
        "freq_hz" => freq_hz = dec_f64(r, "freq_hz")?,
        "cores" => cores = list(r, "cores", dec_core)?,
    });
    let [bytes, busy_cycles, descriptors, latency_cycles] = dma;
    Ok(RunReport {
        cycles,
        cycles_fast_forwarded,
        cores,
        tcdm_accesses,
        tcdm_conflicts,
        icache_hits,
        icache_misses,
        dma: DmaStats {
            bytes,
            busy_cycles,
            descriptors,
            latency_cycles,
        },
        freq_hz,
    })
}

fn enc_telemetry(out: &mut String, t: &WorkloadTelemetry) -> fmt::Result {
    write!(
        out,
        concat!(
            "{{\"runs\": {}, \"compiles\": {}, \"cache_hits\": {}, ",
            "\"clusters_reused\": {}, \"cycles_fast_forwarded\": {}, ",
            "\"estimated\": {}, \"answered_by\": "
        ),
        t.runs, t.compiles, t.cache_hits, t.clusters_reused, t.cycles_fast_forwarded, t.estimated,
    )?;
    enc_opt(out, t.answered_by, enc_fidelity)?;
    write!(
        out,
        ", \"degraded\": {}, \"deadline_capped\": {}, \"mix_counts\": ",
        t.degraded, t.deadline_capped
    )?;
    enc_counters(out, &t.mix_counts)?;
    out.push('}');
    Ok(())
}

fn dec_telemetry(r: &mut Reader<'_>) -> Result<WorkloadTelemetry, JsonError> {
    fields!(r, "telemetry", required {
        "runs" => runs = r.u64("runs")?,
        "compiles" => compiles = r.u64("compiles")?,
        "cache_hits" => cache_hits = r.u64("cache_hits")?,
        "clusters_reused" => clusters_reused = r.u64("clusters_reused")?,
        "cycles_fast_forwarded" => cycles_fast_forwarded = r.u64("cycles_fast_forwarded")?,
        "estimated" => estimated = r.bool("estimated")?,
        "degraded" => degraded = r.bool("degraded")?,
        "deadline_capped" => deadline_capped = r.bool("deadline_capped")?,
        "mix_counts" => mix_counts = counters::<6>(r, "mix_counts")?,
    } optional {
        "answered_by" => answered_by = opt(r, dec_fidelity)?,
    });
    Ok(WorkloadTelemetry {
        runs,
        compiles,
        cache_hits,
        clusters_reused,
        cycles_fast_forwarded,
        estimated,
        answered_by,
        degraded,
        deadline_capped,
        mix_counts,
    })
}

/// Appends an [`Outcome`]'s wire JSON to `out`.
///
/// The `kernel` field (shared with the executing session's cache) does
/// not cross the wire; the decoded outcome carries `kernel: None`.
pub fn encode_outcome_into(out: &mut String, outcome: &Outcome) {
    enc_outcome(out, outcome).expect("writing to a String cannot fail");
}

/// Serializes an [`Outcome`] to its wire JSON (see
/// [`encode_outcome_into`]).
pub fn encode_outcome(outcome: &Outcome) -> String {
    // Roomy enough for most documents to be written without regrowing:
    // a grid point is ~20 bytes, a core report ~200.
    let points: usize = outcome.grids.iter().map(|g| g.as_slice().len()).sum();
    let cores: usize = outcome.reports.iter().map(|r| r.cores.len()).sum();
    let mut out = String::with_capacity(1024 + 24 * points + 256 * cores);
    encode_outcome_into(&mut out, outcome);
    out
}

fn enc_outcome(out: &mut String, outcome: &Outcome) -> fmt::Result {
    write!(
        out,
        "{{\"fingerprint\": \"{}\", \"backend\": \"{}\", \"grids\": [",
        outcome.fingerprint, outcome.backend
    )?;
    enc_list(out, &outcome.grids, enc_grid)?;
    out.push_str("], \"reports\": [");
    enc_list(out, &outcome.reports, enc_report)?;
    out.push_str("], \"tuning\": ");
    enc_opt(out, outcome.tuning.as_ref(), |out, t| {
        write!(out, "{{\"unroll\": {}, \"measured\": [", t.unroll)?;
        enc_list(out, &t.measured, |out, (u, c)| write!(out, "[{u}, {c}]"))?;
        out.push_str("]}");
        Ok(())
    })?;
    out.push_str(", \"verify_error\": ");
    enc_opt(out, outcome.verify_error, enc_f64)?;
    out.push_str(", \"dma_utilization\": ");
    enc_opt(out, outcome.dma_utilization, enc_f64)?;
    out.push_str(", \"telemetry\": ");
    enc_telemetry(out, &outcome.telemetry)?;
    out.push('}');
    Ok(())
}

/// Decodes a wire JSON document back into an [`Outcome`].
///
/// Grid data, reports and telemetry are restored bit-exactly; the
/// `kernel` field always decodes as `None` (compiled kernels never
/// cross the wire). Malformed documents surface as
/// [`CodegenError::Wire`].
pub fn decode_outcome(text: &str) -> Result<Outcome, CodegenError> {
    let mut r = Reader::new(text);
    let outcome = decode_outcome_from(&mut r).map_err(wire)?;
    r.finish().map_err(wire)?;
    Ok(outcome)
}

fn dec_tuning(r: &mut Reader<'_>) -> Result<TuningDecision, JsonError> {
    fields!(r, "tuning", required {
        "unroll" => unroll = dec_uint(r, "tuned unroll")?,
        "measured" => measured = list(r, "tuning measurements", |r| {
            let [unroll, cycles] = counters(r, "tuning measurement")?;
            let unroll = usize::try_from(unroll)
                .map_err(|_| json::error("measured unroll is out of range"))?;
            Ok((unroll, cycles))
        })?,
    });
    Ok(TuningDecision { unroll, measured })
}

/// [`decode_outcome`] of the value `r` is at — an outcome embedded in a
/// larger document (a `submit` reply), read where it lies.
pub fn decode_outcome_from(r: &mut Reader<'_>) -> Result<Outcome, JsonError> {
    fields!(r, "outcome", required {
        "fingerprint" => fingerprint = dec_u64_str(r, "fingerprint")?,
        "backend" => backend = {
            let name = r.str("backend")?;
            BACKEND_NAMES
                .iter()
                .find(|n| **n == name)
                .copied()
                .ok_or_else(|| json::error(&format!("unknown backend `{name}`")))?
        },
        "grids" => grids = list(r, "grids", |r| dec_grid(r, "outcome grid"))?,
        "reports" => reports = list(r, "reports", dec_report)?,
        "telemetry" => telemetry = dec_telemetry(r)?,
    } optional {
        "tuning" => tuning = opt(r, dec_tuning)?,
        "verify_error" => verify_error = opt(r, |r| dec_f64(r, "verify_error"))?,
        "dma_utilization" => dma_utilization = opt(r, |r| dec_f64(r, "dma_utilization"))?,
    });
    Ok(Outcome {
        fingerprint,
        backend,
        grids,
        reports,
        kernel: None,
        tuning,
        verify_error,
        dma_utilization,
        telemetry,
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

    fn jacobi_text() -> String {
        spec_text(gallery::jacobi_2d(), 1)
    }

    #[test]
    fn extents_no_builder_would_accept_are_wire_errors() {
        // `Extent::new_2d` / `new_3d` assert positivity: a zero must be
        // refused before it gets there, wherever an extent is read.
        let stencil = jacobi_text();
        let probe = encode_spec(
            &Workload::dma_probe(Extent::new_3d(16, 16, 16))
                .freeze()
                .expect("freeze probe"),
        );
        let grids = encode_spec(
            &Workload::new(gallery::j2d5pt())
                .inputs(vec![Grid::zeros(Extent::new_2d(4, 4))])
                .freeze()
                .expect("freeze"),
        );
        for (text, from, to) in [
            (
                &stencil,
                "\"extent\": [16, 16, 1]",
                "\"extent\": [0, 16, 1]",
            ),
            (
                &stencil,
                "\"extent\": [16, 16, 1]",
                "\"extent\": [16, 16, 0]",
            ),
            (
                &probe,
                "\"extent\": [16, 16, 16]",
                "\"extent\": [16, 0, 16]",
            ),
            (&grids, "\"extent\": [4, 4, 1]", "\"extent\": [4, 0, 1]"),
            // A point count `Extent::len` cannot multiply out.
            (
                &stencil,
                "\"extent\": [16, 16, 1]",
                "\"extent\": [4294967296, 4294967296, 4294967296]",
            ),
        ] {
            let patched = text.replace(from, to);
            assert_ne!(&patched, text, "{from} not found");
            let err = decode_spec(&patched).unwrap_err();
            assert!(
                matches!(&err, CodegenError::Wire { reason } if reason.contains("not a positive extent")),
                "{to}: {err}"
            );
        }
        let outcome = "{\"fingerprint\": \"1\", \"backend\": \"native\", \"grids\": \
                       [{\"extent\": [0, 1, 1], \"data\": []}]}";
        assert!(matches!(
            decode_outcome(outcome).unwrap_err(),
            CodegenError::Wire { .. }
        ));
    }

    #[test]
    fn nesting_is_bounded_wherever_it_appears() {
        // 20,000 levels overflow a handler thread's stack if anything
        // recurses into them; the reader refuses at 33.
        for text in [
            "[".repeat(20_000),
            "{\"kind\":".repeat(20_000),
            format!(
                "{{\"kind\": \"probe\", \"junk\": {}{}}}",
                "[".repeat(20_000),
                "]".repeat(20_000)
            ),
        ] {
            for err in [
                decode_spec(&text).unwrap_err(),
                decode_outcome(&text).unwrap_err(),
            ] {
                assert!(matches!(err, CodegenError::Wire { .. }), "{err}");
            }
            let err = crate::CalibrationStore::from_json(&text).unwrap_err();
            assert!(matches!(err, CodegenError::Calibration { .. }), "{err}");
        }
        let deep = |levels: usize| {
            jacobi_text().replacen(
                "{\"kind\"",
                &format!(
                    "{{\"junk\": {}{}, \"kind\"",
                    "[".repeat(levels),
                    "]".repeat(levels)
                ),
                1,
            )
        };
        decode_spec(&deep(json::MAX_DEPTH - 1)).expect("31 levels inside the document");
        let err = decode_spec(&deep(json::MAX_DEPTH)).unwrap_err();
        assert!(err.to_string().contains("nests deeper than"), "{err}");
    }

    /// A parsed document as text again, every object's keys in
    /// descending order — never the order the encoders write.
    fn rendered(v: &json::Value) -> String {
        use json::Value;
        let join = |parts: Vec<String>| parts.join(", ");
        match v {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => n.clone(),
            Value::String(s) => format!("\"{}\"", json::escape(s)),
            Value::Array(a) => format!("[{}]", join(a.iter().map(rendered).collect())),
            Value::Object(o) => {
                let mut keys: Vec<&String> = o.keys().collect();
                keys.sort_unstable_by(|a, b| b.cmp(a));
                let member = |k: &&String| format!("\"{}\": {}", json::escape(k), rendered(&o[*k]));
                format!("{{{}}}", join(keys.iter().map(member).collect()))
            }
        }
    }

    #[test]
    fn documents_decode_whatever_their_key_order() {
        let spec = Workload::new(gallery::j2d5pt())
            .extent(Extent::new_2d(16, 16))
            .input_seed(5)
            .time_steps(2)
            .verify(1e-9)
            .fidelity(Fidelity::Cycles)
            .freeze()
            .expect("freeze");
        let text = encode_spec(&spec);
        // Taps before the arrays they name, the result before the
        // operations it refers to, the kind after everything.
        let reordered = rendered(&json::parse(&text).expect("parse"));
        assert!(reordered.find("\"taps\"") < reordered.find("\"arrays\""));
        // An unknown key is passed over, a repeated one keeps its last
        // value.
        let padded = reordered.replacen(
            "{\"verify\"",
            "{\"unknown\": [1, {\"a\": null}], \"inputs\": {\"seed\": \"5\"}, \"verify\"",
            1,
        );
        let padded = padded.replacen("{\"seed\": \"5\"}", "{\"seed\": \"99\"}", 1);
        assert!(padded.find("\"99\"") < padded.find("\"5\""), "{padded}");
        for document in [&reordered, &padded] {
            let decoded = decode_spec(document).expect("decode");
            assert_eq!(decoded, spec);
            assert_eq!(decoded.fingerprint(), spec.fingerprint());
            assert_eq!(encode_spec(&decoded), text);
        }

        // Trailing content after either document is refused.
        assert!(decode_spec(&format!("{text} {{}}")).is_err());
        let outcome = "{\"fingerprint\": \"1\", \"backend\": \"native\", \"grids\": [], \
                       \"reports\": [], \"telemetry\": {\"runs\": 0, \"compiles\": 0, \
                       \"cache_hits\": 0, \"clusters_reused\": 0, \"cycles_fast_forwarded\": 0, \
                       \"estimated\": false, \"degraded\": false, \"deadline_capped\": false, \
                       \"mix_counts\": [0, 0, 0, 0, 0, 0]}}";
        let decoded = decode_outcome(outcome).expect("absent optional fields read as None");
        assert!(decoded.tuning.is_none() && decoded.telemetry.answered_by.is_none());
        assert!(decode_outcome(&format!("{outcome}]")).is_err());
    }
}
