//! Dependency-free wire codec for shipping workloads and outcomes
//! between processes.
//!
//! `saris-shard` runs one coordinator in front of N worker processes,
//! each hosting a full `saris-serve` stack. The coordinator serializes a
//! [`WorkloadSpec`] here, frames it onto a TCP stream with
//! [`write_frame`], and decodes the worker's [`Outcome`] reply with
//! [`decode_outcome`]. Everything is JSON over the shared
//! [`crate::json`] reader — the workspace carries no external
//! dependencies — and every `f64` crosses the wire bit-exactly:
//!
//! * a grid's values are **packed**: one string of the 16 lowercase hex
//!   digits of each value's [`f64::to_bits`], back to back, read back
//!   by a fixed-width digit loop — no float formatting or parsing, and
//!   NaN payloads survive like any other bits;
//! * a scalar `f64` (a coefficient, a tolerance, a report's clock) is
//!   written with Rust's shortest-roundtrip `{:?}` formatting and
//!   re-parsed by the correctly-rounded `str::parse`, or, if it is not
//!   finite, as the hex bit-pattern string `"0x{:016x}"`.
//!
//! The documents' format has a version, [`FRAME_VERSION`], which every
//! `saris-serve` frame carries in its envelope: a peer of another
//! version is refused in-band instead of mis-decoded. Version 1 wrote
//! grids as decimal `"data"` arrays; version 2 packs them.
//!
//! # Documents are declared
//!
//! Each struct that crosses the wire is *declared* below, once, as the
//! list of its fields (`record!`, `tags!`, `counters!` — their grammar
//! is in `record.rs`, next to the scalar and container codecs); the
//! encoder and the decoder are both generated from that list. What is
//! replayed through a builder instead of filled into a struct — a
//! stencil, a workload, the tagged unions — implements the same trait
//! by hand.
//!
//! **Adding a field:** add it to the struct, then add its name to the
//! struct's `record!` in the position the document should have it. An
//! `Option` field may be absent from a document, any other is required.
//! The bytes change, so re-pin `tests/wire_bytes.rs`.
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
//! No document tree is built, and nothing decoded borrows from the
//! frame: a decoded [`WorkloadSpec`] or [`Outcome`] owns all its data,
//! and the frame buffer can be reused as soon as the decoder returns.
//! Keys may come in any order, unknown keys are skipped (validated as
//! JSON), a repeated key keeps its last value, and containers nest at
//! most [`json::MAX_DEPTH`] deep. One leniency is intended: where a
//! spec's key may be absent (`"rotation"`, or `"cluster"` of a stencil
//! spec), a `null` reads as absent too.
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
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use saris_core::method::CoeffStrategy;
use saris_core::stencil::{ArrayRole, BinKind, Operand, PointOp};
use saris_core::{
    Extent, Grid, InterleavePlan, Offset, SarisOptions, Space, Stencil, StencilBuilder,
};
use saris_isa::IndexWidth;
use snitch_sim::core::{IntStalls, IntStats};
use snitch_sim::fpu::{FpuStalls, FpuStats};
use snitch_sim::ssr::StreamerStats;
use snitch_sim::{ClusterConfig, CoreReport, DmaStats, RunReport};

use crate::backends::Fidelity;
use crate::error::CodegenError;
use crate::json::{self, JsonError, Kind, Reader};
use crate::record::{counters, enc_seq, fields, missing, record, tags, DecStr, Wire};
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

/// The one spelling of [`FRAME_VERSION`], so that [`FRAME_ENVELOPE`]
/// can splice it into a literal.
macro_rules! frame_version {
    () => {
        2
    };
}

/// The version of the document format, carried by every frame's
/// envelope. Version 2 packs grids as bit patterns; a change to any
/// document's bytes that a peer of this version would misread takes the
/// next one.
pub const FRAME_VERSION: u64 = frame_version!();

/// How every frame's envelope begins: `{"version": FRAME_VERSION, `,
/// followed by the frame's own members.
pub const FRAME_ENVELOPE: &str = concat!("{\"version\": ", frame_version!(), ", ");

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

/// Appends `key` — separator, quoted key and colon, as the document has
/// them — and the value after it.
fn member(out: &mut String, key: &str, value: &impl Wire) {
    out.push_str(key);
    value.enc(out);
}

// ---------------------------------------------------------------------------
// Grids, options
// ---------------------------------------------------------------------------

/// The two lowercase hex digits of every byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let digits = b"0123456789abcdef";
    let mut pairs = [[0u8; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        pairs[byte] = [digits[byte >> 4], digits[byte & 0xf]];
        byte += 1;
    }
    pairs
};

/// What [`HEX_VALUES`] holds for a byte that is not a lowercase hex
/// digit; every digit's value is below it.
const NOT_HEX: u8 = 0x10;

/// The value of every lowercase hex digit, [`NOT_HEX`] for every other
/// byte.
const HEX_VALUES: [u8; 256] = {
    let mut values = [NOT_HEX; 256];
    let mut digit = 0;
    while digit < 16 {
        values[HEX_PAIRS[digit][1] as usize] = digit as u8;
        digit += 1;
    }
    values
};

/// Hex digits of one value.
const DIGITS_PER_VALUE: usize = 16;

/// Appends the packed bit patterns of `values`. The digits are written
/// into a stack buffer and appended a chunk at a time, not pushed one
/// character at a time.
fn push_bits(out: &mut String, values: &[f64]) {
    const CHUNK: usize = 32;
    let mut buf = [0u8; DIGITS_PER_VALUE * CHUNK];
    out.reserve(DIGITS_PER_VALUE * values.len());
    for chunk in values.chunks(CHUNK) {
        for (value, digits) in chunk.iter().zip(buf.chunks_exact_mut(DIGITS_PER_VALUE)) {
            let bytes = value.to_bits().to_be_bytes();
            for (byte, pair) in bytes.iter().zip(digits.chunks_exact_mut(2)) {
                pair.copy_from_slice(&HEX_PAIRS[usize::from(*byte)]);
            }
        }
        let hex = &buf[..DIGITS_PER_VALUE * chunk.len()];
        out.push_str(std::str::from_utf8(hex).expect("hex digits are ASCII"));
    }
}

/// Reads packed bit patterns: 16 lowercase hex digits per value, none
/// between them. No other spelling is accepted, so every value has one.
fn unpack_bits(hex: &str, what: &str) -> Result<Vec<f64>, JsonError> {
    let bytes = hex.as_bytes();
    if !bytes.len().is_multiple_of(DIGITS_PER_VALUE) {
        return Err(json::error(&format!(
            "{what}: {} hex digits are not a whole number of 16-digit values",
            bytes.len()
        )));
    }
    let mut values = Vec::with_capacity(bytes.len() / DIGITS_PER_VALUE);
    for digits in bytes.chunks_exact(DIGITS_PER_VALUE) {
        let (mut bits, mut seen) = (0u64, 0u8);
        for &digit in digits {
            let value = HEX_VALUES[usize::from(digit)];
            seen |= value;
            bits = bits << 4 | u64::from(value & 0xf);
        }
        if seen & NOT_HEX != 0 {
            let (bad, found) = hex
                .char_indices()
                .find(|(_, c)| !matches!(c, '0'..='9' | 'a'..='f'))
                .expect("a character that is not a digit");
            return Err(json::error(&format!(
                "{what}: {found:?} at digit {bad} is not a lowercase hex digit"
            )));
        }
        values.push(f64::from_bits(bits));
    }
    Ok(values)
}

/// `{"extent": [..], "bits": "<hex>"}`: each value as the 16 lowercase
/// hex digits of its [`f64::to_bits`], in value order, with nothing
/// between them. One spelling per value, so an accepted grid
/// re-encodes to the same bytes; an escape in the string is not a
/// digit either. The decimal `"data"` array of format version 1 is
/// refused by name.
impl Wire for Grid {
    fn enc(&self, out: &mut String) {
        member(out, "{\"extent\": ", &self.extent());
        out.push_str(", \"bits\": \"");
        push_bits(out, self.as_slice());
        out.push_str("\"}");
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Grid, JsonError> {
        let (mut extent, mut values) = (None, None);
        r.begin_object(what)?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "extent" => extent = Some(Extent::dec(r, what)?),
                "bits" => {
                    let Cow::Borrowed(hex) = r.str(what)? else {
                        return Err(json::error(&format!(
                            "{what}: an escape in bits is not a lowercase hex digit"
                        )));
                    };
                    values = Some(unpack_bits(hex, what)?);
                }
                "data" => {
                    return Err(json::error(&format!(
                        "{what}: a decimal `data` array is format version 1; \
                         grids are packed `bits` since version {FRAME_VERSION}"
                    )))
                }
                _ => r.skip_value()?,
            }
        }
        let extent = extent.ok_or_else(|| missing(what, "extent"))?;
        let values = values.ok_or_else(|| missing(what, "bits"))?;
        if values.len() != extent.len() {
            return Err(json::error(&format!(
                "{what}: {} values for a {}-point extent",
                values.len(),
                extent.len()
            )));
        }
        Ok(Grid::from_raw(extent, values))
    }
}

/// `[px, py]`, both non-zero (`InterleavePlan::new` asserts it).
impl Wire for InterleavePlan {
    fn enc(&self, out: &mut String) {
        [self.px(), self.py()].enc(out);
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<InterleavePlan, JsonError> {
        let [px, py] = <[usize; 2]>::dec(r, what)?;
        if px == 0 || py == 0 {
            return Err(json::error(&format!("{what}: px and py must be non-zero")));
        }
        Ok(InterleavePlan::new(px, py))
    }
}

tags!(Variant { Base => "base", Saris => "saris" });
tags!(IndexWidth { U8 => "u8", U16 => "u16", U32 => "u32" });
tags!(CoeffStrategy { Hybrid => "hybrid", StreamSr1 => "stream_sr1" });
tags!(BufferRotation { Alternating => "alternating", Leapfrog => "leapfrog" });

record! { ClusterConfig {
    n_cores, tcdm_banks, tcdm_bytes,
    main_mem_bytes, main_mem_latency, main_mem_bytes_per_cycle,
    stream_fifo_depth, launch_queue_depth, index_fifo_depth,
    fpu_latency_add, fpu_latency_mul, fpu_latency_fma, fpu_latency_div, fpu_latency_misc,
    fp_load_latency, offload_queue_depth, sequencer_depth, branch_taken_penalty,
    icache_lines, icache_line_bytes, icache_miss_penalty,
    dma_beat_bytes, freq_hz, fast_forward,
} }

record! { SarisOptions { coeff_reg_budget, index_width, coeff_strategy } }

record! { RunOptions {
    variant, unroll, interleave, cluster, saris,
    max_cycles, concurrent_dma, reassociate, base_allow_spill,
} }

// ---------------------------------------------------------------------------
// Stencils
// ---------------------------------------------------------------------------

tags!(Space { Dim2 => "2d", Dim3 => "3d" });
tags!(ArrayRole { Input => "input", Output => "output" });

/// An array of a stencil as the document has it.
struct ArrayDecl<'a> {
    name: Cow<'a, str>,
    role: ArrayRole,
}
record! { ArrayDecl<'_> { name, role } }

/// A coefficient of a stencil as the document has it.
struct CoeffDecl<'a> {
    name: Cow<'a, str>,
    value: f64,
}
record! { CoeffDecl<'_> { name, value } }

/// `["tap" | "coeff" | "tmp", index]`.
impl Wire for Operand {
    fn enc(&self, out: &mut String) {
        let (kind, index) = match self {
            Operand::Tap(i) => ("[\"tap\", ", i),
            Operand::Coeff(i) => ("[\"coeff\", ", i),
            Operand::Tmp(i) => ("[\"tmp\", ", i),
        };
        member(out, kind, index);
        out.push(']');
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Operand, JsonError> {
        let shape = || json::error(&format!("{what}: expected [kind, index]"));
        r.begin_array(what)?;
        if !r.next_element()? {
            return Err(shape());
        }
        let kind = r.str(what)?;
        if !r.next_element()? {
            return Err(shape());
        }
        let index = usize::dec(r, what)?;
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
}

/// `[kind, a, b]` or `["fma", a, b, c]`.
impl Wire for PointOp {
    fn enc(&self, out: &mut String) {
        let (kind, a, b, c) = match self {
            PointOp::Bin { kind, a, b } => {
                let kind = match kind {
                    BinKind::Add => "[\"add\", ",
                    BinKind::Sub => "[\"sub\", ",
                    BinKind::Mul => "[\"mul\", ",
                };
                (kind, a, b, None)
            }
            PointOp::Fma { a, b, c } => ("[\"fma\", ", a, b, Some(c)),
        };
        member(out, kind, a);
        member(out, ", ", b);
        if let Some(c) = c {
            member(out, ", ", c);
        }
        out.push(']');
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<PointOp, JsonError> {
        r.begin_array(what)?;
        if !r.next_element()? {
            return Err(json::error("op: empty"));
        }
        let kind = r.str("op kind")?;
        let mut operands = [Operand::Tmp(0); 3];
        let mut n = 0;
        while r.next_element()? {
            let operand = Operand::dec(r, "op operand")?;
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
}

/// A stencil is read and then replayed through [`StencilBuilder`] —
/// arrays, coefficients, taps (`[array, dx, dy, dz]`), operations,
/// result, whatever order the document had them in — so decode re-runs
/// the builder's full validation (`finish`).
impl Wire for Stencil {
    fn enc(&self, out: &mut String) {
        member(out, "{\"name\": ", &Cow::Borrowed(self.name()));
        member(out, ", \"space\": ", &self.space());
        out.push_str(", \"arrays\": ");
        enc_seq(out, self.arrays(), |a, out| {
            let (name, role) = (Cow::Borrowed(a.name()), a.role());
            ArrayDecl { name, role }.enc(out)
        });
        out.push_str(", \"coeffs\": ");
        enc_seq(out, self.coeffs(), |c, out| {
            let (name, value) = (Cow::Borrowed(c.name()), c.value());
            CoeffDecl { name, value }.enc(out)
        });
        out.push_str(", \"taps\": ");
        enc_seq(out, self.taps(), |t, out| {
            let o = t.offset;
            [
                t.array.index() as i64,
                o.dx.into(),
                o.dy.into(),
                o.dz.into(),
            ]
            .enc(out)
        });
        out.push_str(", \"ops\": ");
        enc_seq(out, self.ops(), PointOp::enc);
        member(out, ", \"result\": ", &self.result());
        out.push('}');
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Stencil, JsonError> {
        fields!(r, what, {
            "name" => name: Cow<'_, str>,
            "space" => space,
            "arrays" => arrays: Vec<ArrayDecl<'_>>,
            "coeffs" => coeffs: Vec<CoeffDecl<'_>>,
            "taps" => taps: Vec<[i64; 4]>,
            "ops" => ops: Vec<PointOp>,
            "result" => result,
        });
        let mut builder = StencilBuilder::new(name, space);
        let array_ids: Vec<_> = arrays
            .into_iter()
            .map(|ArrayDecl { name, role }| match role {
                ArrayRole::Input => builder.input(name),
                ArrayRole::Output => builder.output(name),
            })
            .collect();
        for CoeffDecl { name, value } in coeffs {
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
}

// ---------------------------------------------------------------------------
// Fidelity / tuning
// ---------------------------------------------------------------------------

/// `"analytic" | "cycles" | "golden"` or `{"auto": budget}`.
impl Wire for Fidelity {
    fn enc(&self, out: &mut String) {
        match self {
            Fidelity::Analytic => out.push_str("\"analytic\""),
            Fidelity::Cycles => out.push_str("\"cycles\""),
            Fidelity::Golden => out.push_str("\"golden\""),
            Fidelity::Auto { accuracy_budget } => {
                member(out, "{\"auto\": ", accuracy_budget);
                out.push('}');
            }
        }
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Fidelity, JsonError> {
        match r.peek()? {
            Kind::String => match &*r.str(what)? {
                "analytic" => Ok(Fidelity::Analytic),
                "cycles" => Ok(Fidelity::Cycles),
                "golden" => Ok(Fidelity::Golden),
                other => Err(json::error(&format!("unknown fidelity `{other}`"))),
            },
            Kind::Object => {
                fields!(r, what, { "auto" => accuracy_budget });
                Ok(Fidelity::Auto { accuracy_budget })
            }
            _ => Err(json::error(
                "fidelity: expected a string or {\"auto\": ...}",
            )),
        }
    }
}

/// `"fixed" | "auto"` or `{"candidates": [unroll, ...]}`.
impl Wire for Tune {
    fn enc(&self, out: &mut String) {
        match self {
            Tune::Fixed => out.push_str("\"fixed\""),
            Tune::Auto => out.push_str("\"auto\""),
            Tune::Candidates(candidates) => {
                member(out, "{\"candidates\": ", candidates);
                out.push('}');
            }
        }
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Tune, JsonError> {
        match r.peek()? {
            Kind::String => match &*r.str(what)? {
                "fixed" => Ok(Tune::Fixed),
                "auto" => Ok(Tune::Auto),
                other => Err(json::error(&format!("unknown tune mode `{other}`"))),
            },
            Kind::Object => {
                fields!(r, what, { "candidates" => candidates });
                Ok(Tune::Candidates(candidates))
            }
            _ => Err(json::error(
                "tune: expected a string or {\"candidates\": ...}",
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------------

/// `{"seed": "<u64>"}` or `{"grids": [...]}`; a seed wins if both are
/// there.
impl Wire for InputSpec {
    fn enc(&self, out: &mut String) {
        match self {
            InputSpec::Seeded(seed) => member(out, "{\"seed\": ", &DecStr(*seed)),
            InputSpec::Grids(grids) => member(out, "{\"grids\": ", &**grids),
        }
        out.push('}');
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<InputSpec, JsonError> {
        fields!(r, what, { "seed" => seed: Option<DecStr>, "grids" => grids: Option<Vec<Grid>> });
        match (seed, grids) {
            (Some(DecStr(seed)), _) => Ok(InputSpec::Seeded(seed)),
            (None, Some(grids)) => Ok(InputSpec::Grids(Arc::new(grids))),
            (None, None) => Err(missing(what, "grids")),
        }
    }
}

/// A spec document's `"kind"`: which of its other keys must be there.
enum SpecKind {
    Probe,
    Stencil,
}
tags!(SpecKind { Probe => "probe", Stencil => "stencil" });

/// Appends a frozen [`WorkloadSpec`]'s wire JSON to `out`.
pub fn encode_spec_into(out: &mut String, spec: &WorkloadSpec) {
    match spec.kind() {
        WorkloadKind::DmaProbe { extent, cluster } => {
            member(out, "{\"kind\": ", &SpecKind::Probe);
            member(out, ", \"extent\": ", extent);
            member(out, ", \"cluster\": ", cluster);
        }
        WorkloadKind::Stencil(w) => {
            member(out, "{\"kind\": ", &SpecKind::Stencil);
            member(out, ", \"stencil\": ", &*w.stencil);
            member(out, ", \"extent\": ", &w.extent);
            member(out, ", \"inputs\": ", &w.inputs);
            member(out, ", \"options\": ", &w.options);
            member(out, ", \"tune\": ", &w.tune);
            member(out, ", \"time_steps\": ", &w.time_steps);
            member(out, ", \"rotation\": ", &w.rotation);
            member(out, ", \"verify\": ", &w.verify);
            member(out, ", \"fidelity\": ", &w.fidelity);
        }
    }
    out.push('}');
}

/// Serializes a frozen [`WorkloadSpec`] to its wire JSON.
pub fn encode_spec(spec: &WorkloadSpec) -> String {
    let mut out = String::with_capacity(2048);
    encode_spec_into(&mut out, spec);
    out
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
/// equal means [`Stencil`]'s own `PartialEq` over
/// every array, tap, operation and coefficient, and over its
/// [fingerprint](Stencil::fingerprint), which keys coefficients by their
/// bits (`0.0 == -0.0`, but they are different stencils).
#[derive(Debug, Default)]
pub struct StencilInterner {
    /// Most recently matched first.
    table: Mutex<Vec<Arc<Stencil>>>,
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

    fn lock(&self) -> MutexGuard<'_, Vec<Arc<Stencil>>> {
        // Every update leaves the table a valid list of stencils, so a
        // panic elsewhere while the lock was held loses nothing.
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Points `stencil` at the table's equal stencil, or adds it.
    fn intern(&self, stencil: &mut Arc<Stencil>) {
        let mut table = self.lock();
        match table.iter().position(|held| **held == **stencil) {
            Some(at) => *stencil = table.remove(at),
            None => table.truncate(INTERNED_STENCILS - 1),
        }
        table.insert(0, Arc::clone(stencil));
    }
}

/// Reads a spec document and replays it through the [`Workload`]
/// builder. `"kind"` says which of the other keys must be there.
fn dec_workload(r: &mut Reader<'_>) -> Result<Workload, JsonError> {
    let what = "workload spec";
    fields!(r, what, {
        "kind" => kind,
        "extent" => extent,
        "cluster" => cluster: Option<ClusterConfig>,
        "stencil" => stencil: Option<Stencil>,
        "inputs" => inputs: Option<InputSpec>,
        "options" => options: Option<RunOptions>,
        "tune" => tune: Option<Tune>,
        "time_steps" => time_steps: Option<usize>,
        "rotation" => rotation: Option<BufferRotation>,
        "verify" => verify: Option<f64>,
        "fidelity" => fidelity: Option<Fidelity>,
    });
    match kind {
        SpecKind::Probe => {
            let mut options = RunOptions::new(Variant::Saris);
            options.cluster = cluster.ok_or_else(|| missing(what, "cluster"))?;
            Ok(Workload::dma_probe(extent).options(options))
        }
        SpecKind::Stencil => {
            let stencil = stencil.ok_or_else(|| missing(what, "stencil"))?;
            let mut w = Workload::new(stencil).extent(extent);
            w = match inputs.ok_or_else(|| missing(what, "inputs"))? {
                InputSpec::Seeded(seed) => w.input_seed(seed),
                InputSpec::Grids(grids) => w.shared_inputs(grids),
            };
            w = w.options(options.ok_or_else(|| missing(what, "options"))?);
            w = w.tune(tune.ok_or_else(|| missing(what, "tune"))?);
            w = w.time_steps(time_steps.ok_or_else(|| missing(what, "time_steps"))?);
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
    }
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

counters!(IntStats [retired]
    + stalls: IntStalls [offload_full, launch_full, lsu, icache, branch, drain, multi_issue]);
counters!(FpuStats [retired, offloaded, arith, flops, loads, stores, stream_pops, stream_pushes]
    + stalls: FpuStalls [dependency, stream_empty, stream_full, lsu_busy, idle]);
counters!(StreamerStats [elems, idx_fetches, jobs, idle_full_cycles]);
counters!(DmaStats [bytes, busy_cycles, descriptors, latency_cycles]);

record! { CoreReport { halted_at, tcdm_wait_cycles, int_stats["int"], fpu, streamers } }

record! { RunReport {
    cycles, cycles_fast_forwarded, tcdm_accesses, tcdm_conflicts, icache_hits, icache_misses,
    dma, freq_hz, cores,
} }

record! { WorkloadTelemetry {
    runs, compiles, cache_hits, clusters_reused, cycles_fast_forwarded,
    estimated, answered_by, degraded, mix_counts,
} }

/// One tuning entry, `[unroll, cycles]`: a measurement or a bound.
impl Wire for (usize, u64) {
    fn enc(&self, out: &mut String) {
        [self.0 as u64, self.1].enc(out);
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<(usize, u64), JsonError> {
        let [unroll, cycles] = <[u64; 2]>::dec(r, what)?;
        let unroll =
            usize::try_from(unroll).map_err(|_| json::error("tuning unroll is out of range"))?;
        Ok((unroll, cycles))
    }
}

record! { TuningDecision { unroll, measured, bounds } }

/// The backend names an [`Outcome`] may legitimately carry; decode
/// rejects anything else (the field is `&'static str`).
const BACKEND_NAMES: [&str; 4] = ["sim", "native", "roofline", "chaos"];

/// [`Outcome::backend`]: one of [`BACKEND_NAMES`].
struct Backend(&'static str);

impl Wire for Backend {
    fn enc(&self, out: &mut String) {
        Cow::Borrowed(self.0).enc(out);
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Backend, JsonError> {
        let name = r.str(what)?;
        let known = BACKEND_NAMES.iter().find(|known| **known == name);
        known
            .copied()
            .map(Backend)
            .ok_or_else(|| json::error(&format!("unknown backend `{name}`")))
    }
}

// The `kernel` (shared with the executing session's cache) does not
// cross the wire.
record! { Outcome {
    fingerprint via DecStr, backend via Backend, grids, reports,
    tuning, verify_error, dma_utilization, telemetry,
} skip { kernel: None } }

/// Appends an [`Outcome`]'s wire JSON to `out`.
///
/// The `kernel` field (shared with the executing session's cache) does
/// not cross the wire; the decoded outcome carries `kernel: None`.
pub fn encode_outcome_into(out: &mut String, outcome: &Outcome) {
    outcome.enc(out);
}

/// Serializes an [`Outcome`] to its wire JSON (see
/// [`encode_outcome_into`]).
pub fn encode_outcome(outcome: &Outcome) -> String {
    // Roomy enough for most documents to be written without regrowing:
    // a grid point is 16 bytes, a core report ~200.
    let points: usize = outcome.grids.iter().map(|g| g.as_slice().len()).sum();
    let cores: usize = outcome.reports.iter().map(|r| r.cores.len()).sum();
    let mut out = String::with_capacity(1024 + DIGITS_PER_VALUE * points + 256 * cores);
    encode_outcome_into(&mut out, outcome);
    out
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

/// [`decode_outcome`] of the value `r` is at — an outcome embedded in a
/// larger document (a `submit` reply), read where it lies.
pub fn decode_outcome_from(r: &mut Reader<'_>) -> Result<Outcome, JsonError> {
    Outcome::dec(r, "outcome")
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
                bounds: vec![(1, 4900), (2, 4100), (4, 4300)],
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
                       [{\"extent\": [0, 1, 1], \"bits\": \"\"}]}";
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

    /// The smallest outcome document the decoder accepts, with `grids`
    /// as its grid list.
    fn outcome_with_grids(grids: &str) -> String {
        format!(
            "{{\"fingerprint\": \"1\", \"backend\": \"native\", \"grids\": [{grids}], \
             \"reports\": [], \"telemetry\": {{\"runs\": 0, \"compiles\": 0, \
             \"cache_hits\": 0, \"clusters_reused\": 0, \"cycles_fast_forwarded\": 0, \
             \"estimated\": false, \"degraded\": false, \"mix_counts\": [0, 0, 0, 0, 0, 0]}}}}"
        )
    }

    #[test]
    fn packed_grids_carry_every_bit_pattern() {
        let patterns: [u64; 16] = [
            0x7ff8_0000_0000_0000, // the quiet NaN
            0x7ff8_0000_dead_beef, // a quiet NaN's payload
            0x7ff0_0000_0000_0001, // a signalling NaN
            0xfff8_0000_0000_0042, // a negative NaN
            0x0000_0000_0000_0000, // +0.0
            0x8000_0000_0000_0000, // -0.0
            0x7ff0_0000_0000_0000, // +inf
            0xfff0_0000_0000_0000, // -inf
            0x0000_0000_0000_0001, // the smallest subnormal
            0x000f_ffff_ffff_ffff, // the largest subnormal
            0x8000_0000_0000_0001, // a negative subnormal
            0x0010_0000_0000_0000, // f64::MIN_POSITIVE
            0x7fef_ffff_ffff_ffff, // f64::MAX
            0x3ff0_0000_0000_0000, // 1.0
            0xbff8_0000_0000_0000, // -1.5
            0x3fb9_9999_9999_999a, // 0.1
        ];
        let values: Vec<f64> = patterns.iter().map(|&bits| f64::from_bits(bits)).collect();
        let extent = Extent::new_2d(4, 4);
        let mut text = String::new();
        Grid::from_raw(extent, values).enc(&mut text);
        let hex: String = patterns.iter().map(|bits| format!("{bits:016x}")).collect();
        assert_eq!(
            text,
            format!("{{\"extent\": [4, 4, 1], \"bits\": \"{hex}\"}}")
        );

        let document = outcome_with_grids(&text);
        let outcome = decode_outcome(&document).expect("decode");
        let decoded: Vec<u64> = outcome.grids[0]
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(decoded, patterns);
        assert_eq!(outcome.grids[0].extent(), extent);
        assert!(encode_outcome(&outcome).contains(&text));
    }

    #[test]
    fn packed_grids_refuse_every_other_spelling() {
        // Four values: 1.5, 0.1, -0.0, and a NaN payload.
        let hex = "3ff80000000000003fb999999999999a80000000000000007ff80000deadbeef";
        let grid = |bits: &str| format!("{{\"extent\": [2, 2, 1], \"bits\": \"{bits}\"}}");
        decode_outcome(&outcome_with_grids(&grid(hex))).expect("the untouched grid decodes");
        let refusals = [
            (
                grid(&hex[1..]),
                "63 hex digits are not a whole number of 16-digit values",
            ),
            (
                grid(&format!("{hex}0")),
                "65 hex digits are not a whole number",
            ),
            (
                grid(&hex.replacen('f', "F", 1)),
                "'F' at digit 1 is not a lowercase hex digit",
            ),
            (
                grid(&hex.replacen("dead", "deag", 1)),
                "'g' at digit 59 is not a lowercase hex",
            ),
            (
                grid(&hex.replacen('a', " ", 1)),
                "' ' at digit 31 is not a lowercase hex",
            ),
            (
                grid(&hex.replacen("80", "é", 1)),
                "'é' at digit 3 is not a lowercase hex",
            ),
            (grid(&hex.replacen('3', "\\u0033", 1)), "an escape in bits"),
            (grid(&hex[16..]), "3 values for a 4-point extent"),
            (
                grid(&format!("{hex}{}", &hex[..16])),
                "5 values for a 4-point extent",
            ),
            (grid(""), "0 values for a 4-point extent"),
            (
                "{\"extent\": [2, 2, 1], \"data\": [1.5, 0.1, -0.0, 0.25]}".to_string(),
                "a decimal `data` array is format version 1",
            ),
            (
                format!("{{\"extent\": [2, 2, 1], \"bits\": \"{hex}\", \"data\": []}}"),
                "grids are packed `bits` since version 2",
            ),
            (
                "{\"extent\": [2, 2, 1]}".to_string(),
                "missing field `bits`",
            ),
            (format!("{{\"bits\": \"{hex}\"}}"), "missing field `extent`"),
            (
                "{\"extent\": [2, 2, 1], \"bits\": [1]}".to_string(),
                "is not a string",
            ),
        ];
        for (text, reason) in &refusals {
            let err = decode_outcome(&outcome_with_grids(text)).unwrap_err();
            assert!(
                matches!(&err, CodegenError::Wire { reason: r } if r.contains(reason)),
                "{text}: expected `{reason}`, got: {err}"
            );
        }

        // Explicit input grids are read by the same decoder.
        let spec = Workload::new(gallery::j2d5pt())
            .inputs(vec![Grid::zeros(Extent::new_2d(4, 4))])
            .freeze()
            .expect("freeze");
        let text = encode_spec(&spec);
        let zeros = "0".repeat(16 * 16);
        assert!(text.contains(&format!("\"bits\": \"{zeros}\"")), "{text}");
        let short = text.replacen(&zeros, &zeros[1..], 1);
        let err = decode_spec(&short).unwrap_err();
        assert!(err.to_string().contains("not a whole number"), "{err}");
    }
}
