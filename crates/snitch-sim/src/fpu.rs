//! The per-core floating-point subsystem: offload queue, FREP sequencer,
//! scoreboarded FP pipeline, FP loads/stores, and stream-register operand
//! plumbing.
//!
//! Snitch offloads every FP instruction from the single-issue integer core
//! into this subsystem, which executes them in order but *concurrently*
//! with subsequent integer instructions — the pseudo-dual-issue the paper
//! relies on. An [`Instr::Frep`] marker makes the
//! sequencer capture the following block and replay it from its buffer, so
//! replayed executions consume no integer-core issue slots at all.
//!
//! FP loads and stores also execute here (Snitch's FP register file lives
//! in the FP subsystem): the integer core resolves their address at
//! offload time and they retire *in order* with the arithmetic stream, so
//! an `fsd` always observes the value of the op that precedes it in
//! program order.
//!
//! # Hot-loop invariants
//!
//! [`FpSubsystem::step`] neither allocates nor clones. Arithmetic arrives
//! pre-decoded as [`FpArithOp`]: operands in fixed arrays, latency
//! resolved against the [`ClusterConfig`], and — for when SSRs are
//! enabled — how many elements the sources pop from each stream and which
//! stream takes the result, so issuing never maps a register to a stream.
//! Queue entries and FREP bodies are one flat `Copy` type: the offload
//! queue is a fixed ring, and every captured body lives in one sequencer
//! ring (capacity reserved at construction) that an FREP marker points
//! into with a start and a length.
//!
//! # Fast-forwarding
//!
//! With [`ClusterConfig::fast_forward`] set, a step that stalls records
//! the stall, and the following steps book the same counter after one
//! re-check instead of re-deriving it from the queue front. LSU grants
//! are absorbed before the guard on every step, so a load that lands
//! while the FPU sleeps scoreboards its register on the cycle it would
//! have. Per stall, the re-check and why nothing else can change the
//! outcome (the FPU issues in order, so while it is stalled it pops no
//! stream, pushes none, and writes no register):
//!
//! * **idle** (queue empty, no replay) — until the queue is non-empty.
//!   An FREP whose body is still streaming in is not recorded: that is a
//!   non-empty queue.
//! * **dependency** on a register with a known `ready_at` — until that
//!   cycle. The stream checks that passed before the scoreboard was
//!   consulted keep passing, because read FIFOs only grow while the FPU
//!   does not pop and a non-empty stream cannot be reconfigured; the
//!   blocking register cannot become ready earlier, because only an
//!   issue or a load grant writes `ready_at`, and the one load that may
//!   be in flight targets a register whose `ready_at` is unknown, not
//!   this one. A dependency on an in-flight load has no known wake-up
//!   cycle and is never recorded.
//! * **stream empty** on stream `i` needing `n` elements — until
//!   `available() >= n`. The streams checked before `i` keep passing, as
//!   above.
//! * **stream full** on the destination stream — until it has space. All
//!   source checks passed and keep passing: FIFOs as above, and a
//!   register that was ready stays ready.
//! * **LSU busy** — until the port is idle and no load or store is
//!   outstanding. This is the first test a memory op makes.
//!
//! What the FPU cannot see is the integer core changing what a stream
//! register *means* under a stalled instruction: `ssr_enable` and
//! `ssr_setup` call [`FpSubsystem::wake`], as does a host register
//! write. (`ssr_disable` waits for the FPU to drain, so it has no
//! instruction to change the meaning of.)
//!
//! [`ClusterConfig::fast_forward`]: crate::config::ClusterConfig::fast_forward

use saris_isa::{FpOperands, FpR4Op, FpROp, FpReg, FpUOp, Instr, SsrId, StreamDir};

use crate::config::ClusterConfig;
use crate::error::SimError;
use crate::mem::{MemOp, MemPort, MemReq};
use crate::ring::Ring;
use crate::ssr::Streamer;

/// Reasons the FP subsystem failed to issue in a cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpuStalls {
    /// Waiting for a source register produced by an earlier FP op.
    pub dependency: u64,
    /// Waiting for data in a read-stream FIFO.
    pub stream_empty: u64,
    /// Waiting for space in a write-stream FIFO.
    pub stream_full: u64,
    /// Waiting for the FP LSU port (outstanding load/store).
    pub lsu_busy: u64,
    /// Nothing to issue (offload queue empty, no replay active).
    pub idle: u64,
}

/// Aggregate FP-subsystem activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpuStats {
    /// FP instructions retired (including FREP replays).
    pub retired: u64,
    /// FP instructions offloaded from the integer core (each consumed an
    /// integer-core issue slot; FREP replays beyond these are "free").
    pub offloaded: u64,
    /// FP *arithmetic* instructions retired (FPU-busy cycles).
    pub arith: u64,
    /// Floating-point operations performed (FMA = 2).
    pub flops: u64,
    /// FP loads retired.
    pub loads: u64,
    /// FP stores retired.
    pub stores: u64,
    /// Stream-register operand pops.
    pub stream_pops: u64,
    /// Stream-register result pushes.
    pub stream_pushes: u64,
    /// Stall breakdown.
    pub stalls: FpuStalls,
}

/// The operation kind of a decoded FP arithmetic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FpArithKind {
    /// Two-operand (`fadd.d` family).
    R(FpROp),
    /// Fused three-operand (`fmadd.d` family).
    R4(FpR4Op),
    /// Single-operand (`fmv.d` family).
    U(FpUOp),
}

impl FpArithKind {
    fn apply(self, v: [f64; 3]) -> f64 {
        match self {
            FpArithKind::R(op) => op.apply(v[0], v[1]),
            FpArithKind::R4(op) => op.apply(v[0], v[1], v[2]),
            FpArithKind::U(op) => op.apply(v[0]),
        }
    }
}

/// One FP arithmetic instruction decoded for allocation-free issue:
/// operand registers in fixed arrays ([`FpOperands`]), the result
/// latency resolved against a [`ClusterConfig`], and the operands'
/// stream-register roles resolved for when SSRs are enabled.
///
/// Built once per program by [`ExecTable::decode`](crate::ExecTable) and
/// handed to [`FpSubsystem::offload_arith`] by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpArithOp {
    kind: FpArithKind,
    operands: FpOperands,
    latency: u32,
    flops: u8,
    /// Elements the sources pop from each stream when SSRs are enabled.
    pops: [u8; 3],
    /// The stream the result is pushed to when SSRs are enabled.
    dst_stream: Option<SsrId>,
}

impl FpArithOp {
    /// Decodes an FP arithmetic instruction ([`Instr::FpR`],
    /// [`Instr::FpR4`], [`Instr::FpU`]), resolving its result latency from
    /// `cfg`. Returns `None` for any other instruction.
    pub fn decode(instr: &Instr, cfg: &ClusterConfig) -> Option<FpArithOp> {
        let operands = instr.fp_operands()?;
        let (kind, latency) = match instr {
            Instr::FpR { op, .. } => (
                FpArithKind::R(*op),
                match op {
                    FpROp::Add | FpROp::Sub => cfg.fpu_latency_add,
                    FpROp::Mul => cfg.fpu_latency_mul,
                    FpROp::Div => cfg.fpu_latency_div,
                    FpROp::Min | FpROp::Max => cfg.fpu_latency_misc,
                },
            ),
            Instr::FpR4 { op, .. } => (FpArithKind::R4(*op), cfg.fpu_latency_fma),
            Instr::FpU { op, .. } => (
                FpArithKind::U(*op),
                match op {
                    FpUOp::Sqrt => cfg.fpu_latency_div,
                    _ => cfg.fpu_latency_misc,
                },
            ),
            _ => unreachable!("fp_operands returned Some for non-arith"),
        };
        let mut pops = [0; 3];
        for ssr in operands.srcs().iter().filter_map(|r| SsrId::of_fp_reg(*r)) {
            pops[ssr.index()] += 1;
        }
        Some(FpArithOp {
            kind,
            operands,
            latency,
            flops: instr.flops() as u8,
            pops,
            dst_stream: SsrId::of_fp_reg(operands.rd),
        })
    }

    /// The decoded operand registers.
    pub fn operands(&self) -> FpOperands {
        self.operands
    }

    /// The resolved result latency in cycles.
    pub fn latency(&self) -> u64 {
        u64::from(self.latency)
    }

    /// Floating-point operations per execution (FMA = 2).
    pub fn flops(&self) -> u64 {
        u64::from(self.flops)
    }

    /// Whether any operand is a stream-capable register.
    fn names_stream_regs(&self) -> bool {
        self.pops != [0; 3] || self.dst_stream.is_some()
    }
}

/// One entry of the offload queue or of a captured FREP body.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FpOp {
    /// Decoded FP arithmetic.
    Arith(FpArithOp),
    /// FP load/store with the address resolved at offload time.
    Mem {
        /// Load (`fld`) or store (`fsd`).
        is_load: bool,
        /// Data register.
        reg: FpReg,
        /// Resolved byte address.
        addr: u64,
    },
    /// An FREP hardware loop (queue only). The body is captured into the
    /// sequencer ring *at offload time* (as on real Snitch), so capture
    /// never depends on execution progress — the integer core can stream
    /// the whole body in and move on to stream launches.
    Frep {
        /// Total executions of the body (`count + 1`).
        total_reps: u64,
        /// Where the body starts in the sequencer ring.
        start: u32,
        /// Body length, in instructions.
        len: u32,
        /// How many of them have been captured so far.
        captured: u32,
    },
}

/// Execution cursor over the front FREP's body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrepCursor {
    reps_remaining: u64,
    pos: u32,
    start: u32,
    len: u32,
}

/// A diagnosed stall (see the module docs): which counter a stalled
/// cycle books and what to re-check before booking it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FpWait {
    Idle,
    Dependency { until: u64 },
    StreamEmpty { ssr: usize, need: usize },
    StreamFull { ssr: usize },
    LsuBusy,
}

/// Sentinel for "load issued, grant not yet seen".
const READY_UNKNOWN: u64 = u64::MAX;

/// Sequencer slots for programs whose FREP bodies are at most
/// `max_body` instructions long: every queue slot can hold an FREP with
/// a full body.
fn seq_capacity(cfg: &ClusterConfig, max_body: usize) -> usize {
    cfg.offload_queue_depth * max_body.min(cfg.sequencer_depth)
}

/// The floating-point subsystem of one core.
#[derive(Debug)]
pub struct FpSubsystem {
    queue: Ring<FpOp>,
    /// Captured FREP bodies, oldest first, as a ring of `seq_capacity`
    /// slots: `seq_len` entries starting at `seq_head`. The storage is
    /// reserved up front and touched only as far as bodies reach.
    seq: Vec<FpOp>,
    seq_capacity: usize,
    seq_head: usize,
    seq_len: usize,
    frep_cursor: Option<FrepCursor>,
    /// Body instructions the most recent FREP marker still expects.
    capture_remaining: usize,
    regs: [f64; FpReg::COUNT],
    ready_at: [u64; FpReg::COUNT],
    /// The FP load/store TCDM port.
    pub lsu_port: MemPort,
    lsu_load_dst: Option<FpReg>,
    lsu_store_busy: bool,
    /// Activity counters.
    pub stats: FpuStats,
    lat_load: u64,
    /// Whether stalls may be recorded in `wait` (the cluster
    /// fast-forwards).
    fast_forward: bool,
    wait: Option<FpWait>,
}

impl FpSubsystem {
    /// Creates an idle FP subsystem.
    pub fn new(cfg: &ClusterConfig) -> FpSubsystem {
        FpSubsystem::with_frep_bound(cfg, cfg.sequencer_depth)
    }

    /// An idle FP subsystem for programs whose FREP bodies are at most
    /// `max_body` instructions long: the sequencer storage, reserved
    /// here so that capturing never allocates, shrinks from the
    /// architectural worst case to what the program can use.
    pub(crate) fn with_frep_bound(cfg: &ClusterConfig, max_body: usize) -> FpSubsystem {
        let seq_capacity = seq_capacity(cfg, max_body);
        let nop = FpOp::Mem {
            is_load: false,
            reg: FpReg::FT0,
            addr: 0,
        };
        FpSubsystem {
            queue: Ring::new(cfg.offload_queue_depth, nop),
            seq: Vec::with_capacity(seq_capacity),
            seq_capacity,
            seq_head: 0,
            seq_len: 0,
            frep_cursor: None,
            capture_remaining: 0,
            regs: [0.0; FpReg::COUNT],
            ready_at: [0; FpReg::COUNT],
            lsu_port: MemPort::new(),
            lsu_load_dst: None,
            lsu_store_busy: false,
            stats: FpuStats::default(),
            lat_load: cfg.fp_load_latency as u64,
            fast_forward: cfg.fast_forward,
            wait: None,
        }
    }

    /// Returns the subsystem to the state
    /// [`with_frep_bound`](FpSubsystem::with_frep_bound) builds for
    /// `max_body`, keeping its storage: the sequencer grows only when
    /// the new bound needs more than it holds.
    pub(crate) fn reload(&mut self, cfg: &ClusterConfig, max_body: usize) {
        let FpSubsystem {
            queue,
            seq,
            seq_capacity: capacity,
            seq_head,
            seq_len,
            frep_cursor,
            capture_remaining,
            regs,
            ready_at,
            lsu_port,
            lsu_load_dst,
            lsu_store_busy,
            stats,
            lat_load: _,
            fast_forward: _,
            wait,
        } = self;
        queue.clear();
        *capacity = seq_capacity(cfg, max_body);
        seq.clear();
        seq.reserve_exact(*capacity);
        *seq_head = 0;
        *seq_len = 0;
        *frep_cursor = None;
        *capture_remaining = 0;
        *regs = [0.0; FpReg::COUNT];
        *ready_at = [0; FpReg::COUNT];
        *lsu_port = MemPort::new();
        *lsu_load_dst = None;
        *lsu_store_busy = false;
        *stats = FpuStats::default();
        *wait = None;
    }

    /// Whether the integer core can offload another FP instruction.
    /// Instructions captured into an open FREP body go to the sequencer
    /// buffer and are not limited by the queue depth.
    pub fn can_offload(&self) -> bool {
        self.capture_remaining > 0 || !self.queue.is_full()
    }

    /// Whether an FREP marker can be offloaded right now (queue slot free
    /// and no body capture still open).
    pub fn can_accept_frep(&self) -> bool {
        self.capture_remaining == 0 && !self.queue.is_full()
    }

    /// The sequencer-ring slot `offset` entries past `start`.
    fn seq_slot(&self, start: usize, offset: usize) -> usize {
        let i = start + offset;
        if i >= self.seq_capacity {
            i - self.seq_capacity
        } else {
            i
        }
    }

    fn push_op(&mut self, op: FpOp) {
        self.stats.offloaded += 1;
        if self.capture_remaining == 0 {
            self.queue.push_back(op);
            return;
        }
        assert!(
            self.seq_len < self.seq_capacity,
            "FREP bodies exceed what the sequencer was sized for"
        );
        let slot = self.seq_slot(self.seq_head, self.seq_len);
        if slot == self.seq.len() {
            self.seq.push(op); // within the reserved capacity
        } else {
            self.seq[slot] = op;
        }
        self.seq_len += 1;
        let Some(FpOp::Frep { captured, .. }) = self.queue.back_mut() else {
            unreachable!("capture without an open frep marker");
        };
        *captured += 1;
        self.capture_remaining -= 1;
    }

    /// Offloads a decoded FP arithmetic instruction.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (check [`Self::can_offload`]).
    pub fn offload_arith(&mut self, op: FpArithOp) {
        assert!(self.can_offload(), "offload queue full");
        self.push_op(FpOp::Arith(op));
    }

    /// Offloads an FP load/store with its resolved byte address.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn offload_mem(&mut self, is_load: bool, reg: FpReg, addr: u64) {
        assert!(self.can_offload(), "offload queue full");
        self.push_op(FpOp::Mem { is_load, reg, addr });
    }

    /// Offloads an FREP marker with its resolved repetition count
    /// (`reps` extra replays; total executions = `reps + 1`). The next
    /// `n_instrs` offloaded FP instructions are captured as its body.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full, a capture is already open, the body
    /// is empty or exceeds the sequencer storage (decoding checks
    /// [`ClusterConfig::frep_body_fits`]), or `reps` is `u64::MAX` (2^64
    /// executions).
    pub fn offload_frep(&mut self, reps: u64, n_instrs: usize) {
        assert!(!self.queue.is_full(), "offload queue full");
        assert_eq!(self.capture_remaining, 0, "nested frep capture");
        assert!(
            (1..=self.seq_capacity).contains(&n_instrs),
            "frep body does not fit sequencer"
        );
        if self.seq_len == 0 {
            // Nothing captured is live: restart at the buffer's front so
            // a loop nest keeps reusing the same few cache lines.
            self.seq_head = 0;
        }
        self.queue.push_back(FpOp::Frep {
            total_reps: reps.checked_add(1).expect("frep of 2^64 executions"),
            start: self.seq_slot(self.seq_head, self.seq_len) as u32,
            len: n_instrs as u32,
            captured: 0,
        });
        self.capture_remaining = n_instrs;
    }

    /// Whether all offloaded work has retired and no memory op is in
    /// flight.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty()
            && self.frep_cursor.is_none()
            && self.capture_remaining == 0
            && !self.lsu_busy()
    }

    /// Whether an FP load or store is still outstanding.
    fn lsu_busy(&self) -> bool {
        self.lsu_load_dst.is_some() || self.lsu_store_busy || !self.lsu_port.is_idle()
    }

    /// Host/debug register read.
    pub fn reg(&self, r: FpReg) -> f64 {
        self.regs[r.index() as usize]
    }

    /// Host/debug register write.
    pub fn set_reg(&mut self, r: FpReg, v: f64) {
        self.regs[r.index() as usize] = v;
        self.ready_at[r.index() as usize] = 0;
        self.wake();
    }

    /// Forgets a recorded stall, so that the next step re-derives it.
    /// For whoever changes, from outside, what the stalled instruction
    /// will see: SSRs switched on, a streamer reconfigured, a register
    /// written by the host.
    pub fn wake(&mut self) {
        self.wait = None;
    }

    /// Books the idle-stall cycles a drained subsystem would have counted
    /// had the cluster stepped through `cycles` dead cycles one by one —
    /// the fast-forward path's counter preservation (see
    /// [`Cluster::run`](crate::Cluster::run)).
    pub(crate) fn skip_idle_cycles(&mut self, cycles: u64) {
        debug_assert!(self.is_drained(), "fast-forward over a live FPU");
        self.stats.stalls.idle += cycles;
    }

    /// Advances one cycle: absorbs LSU grants, then issues at most one FP
    /// operation — from the front FREP's captured body when one is
    /// active, else from the queue.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on stream misuse.
    pub fn step(
        &mut self,
        now: u64,
        core_id: usize,
        ssr_enabled: bool,
        streamers: &mut [Streamer; 3],
    ) -> Result<(), SimError> {
        self.absorb_lsu_grant(now);
        if let Some(wait) = self.wait {
            let holds = match wait {
                FpWait::Idle => self.queue.is_empty(),
                FpWait::Dependency { until } => now < until,
                FpWait::StreamEmpty { ssr, need } => streamers[ssr].available() < need,
                FpWait::StreamFull { ssr } => streamers[ssr].push_space() == 0,
                FpWait::LsuBusy => self.lsu_busy(),
            };
            if holds {
                self.book(wait);
                return Ok(());
            }
            self.wait = None;
        }
        // Activate the front FREP once its body is fully captured.
        if self.frep_cursor.is_none() {
            match self.queue.front() {
                Some(FpOp::Frep {
                    total_reps,
                    start,
                    len,
                    captured,
                }) => {
                    if captured < len {
                        // Body still streaming in from the integer core.
                        self.stats.stalls.idle += 1;
                        return Ok(());
                    }
                    self.frep_cursor = Some(FrepCursor {
                        reps_remaining: total_reps,
                        pos: 0,
                        start,
                        len,
                    });
                }
                Some(_) => {}
                None => {
                    self.stall(FpWait::Idle);
                    return Ok(());
                }
            }
        }
        let op = match self.frep_cursor {
            Some(c) => self.seq[self.seq_slot(c.start as usize, c.pos as usize)],
            None => self.queue.front().expect("checked non-empty"),
        };
        let issued = match op {
            FpOp::Arith(op) => self.try_issue_arith(&op, now, core_id, ssr_enabled, streamers)?,
            FpOp::Mem { is_load, reg, addr } => {
                self.try_issue_mem(now, core_id, ssr_enabled, streamers, is_load, reg, addr)?
            }
            FpOp::Frep { .. } => unreachable!("cursor selects body ops"),
        };
        if issued {
            self.advance_sequencer();
        }
        Ok(())
    }

    /// Counts one stalled cycle.
    fn book(&mut self, wait: FpWait) {
        let stalls = &mut self.stats.stalls;
        *match wait {
            FpWait::Idle => &mut stalls.idle,
            FpWait::Dependency { .. } => &mut stalls.dependency,
            FpWait::StreamEmpty { .. } => &mut stalls.stream_empty,
            FpWait::StreamFull { .. } => &mut stalls.stream_full,
            FpWait::LsuBusy => &mut stalls.lsu_busy,
        } += 1;
    }

    /// Counts one stalled cycle and, when fast-forwarding, records the
    /// stall for the following steps' guard.
    fn stall(&mut self, wait: FpWait) {
        self.book(wait);
        if self.fast_forward {
            self.wait = Some(wait);
        }
    }

    /// Moves sequencing state forward after a successful issue.
    fn advance_sequencer(&mut self) {
        let Some(cursor) = &mut self.frep_cursor else {
            self.queue.pop_front();
            return;
        };
        cursor.pos += 1;
        if cursor.pos == cursor.len {
            cursor.pos = 0;
            cursor.reps_remaining -= 1;
            if cursor.reps_remaining == 0 {
                // Retire the loop and release its body.
                let len = cursor.len as usize;
                self.frep_cursor = None;
                self.queue.pop_front();
                self.seq_head = self.seq_slot(self.seq_head, len);
                self.seq_len -= len;
            }
        }
    }

    fn absorb_lsu_grant(&mut self, now: u64) {
        if let Some(resp) = self.lsu_port.take_completed() {
            if let Some(rd) = self.lsu_load_dst.take() {
                self.regs[rd.index() as usize] = f64::from_bits(resp.data);
                self.ready_at[rd.index() as usize] = now + self.lat_load;
            } else {
                debug_assert!(self.lsu_store_busy, "grant without outstanding op");
                self.lsu_store_busy = false;
            }
        }
    }

    fn try_issue_arith(
        &mut self,
        op: &FpArithOp,
        now: u64,
        core_id: usize,
        ssr_enabled: bool,
        streamers: &mut [Streamer; 3],
    ) -> Result<bool, SimError> {
        let rd = op.operands.rd;
        let srcs = op.operands.srcs();
        // With SSRs off (or no ft0..ft2 operand) every register is plain.
        let streams = ssr_enabled && op.names_stream_regs();
        if streams {
            for (ssr, &need) in op.pops.iter().enumerate() {
                if need > 0 && !self.stream_ready(ssr, need as usize, core_id, streamers)? {
                    return Ok(false);
                }
            }
        }
        for r in srcs {
            let from_stream = streams && r.is_stream_capable();
            if !from_stream && !self.reg_ready(*r, now) {
                return Ok(false);
            }
        }
        let dst_stream = op.dst_stream.filter(|_| streams);
        if let Some(ssr) = dst_stream {
            let s = &streamers[ssr.index()];
            if s.dir() != Some(StreamDir::Write) {
                return Err(SimError::StreamMisuse {
                    core: core_id,
                    ssr: ssr.index(),
                    reason: "write of a non-write stream register",
                });
            }
            if s.push_space() == 0 {
                self.stall(FpWait::StreamFull { ssr: ssr.index() });
                return Ok(false);
            }
        }
        // ---- issue ----
        let mut vals = [0.0f64; 3];
        for (slot, &r) in vals.iter_mut().zip(srcs) {
            *slot = self.read_src(r, streams, streamers);
        }
        let v = op.kind.apply(vals);
        if let Some(ssr) = dst_stream {
            streamers[ssr.index()].push(v);
            self.stats.stream_pushes += 1;
        } else {
            self.regs[rd.index() as usize] = v;
            self.ready_at[rd.index() as usize] = now + op.latency();
        }
        self.stats.arith += 1;
        self.stats.flops += op.flops();
        self.stats.retired += 1;
        Ok(true)
    }

    #[allow(clippy::too_many_arguments)]
    fn try_issue_mem(
        &mut self,
        now: u64,
        core_id: usize,
        ssr_enabled: bool,
        streamers: &mut [Streamer; 3],
        is_load: bool,
        reg: FpReg,
        addr: u64,
    ) -> Result<bool, SimError> {
        if self.lsu_busy() {
            self.stall(FpWait::LsuBusy);
            return Ok(false);
        }
        let stream = ssr_enabled && reg.is_stream_capable();
        if is_load {
            if stream {
                return Err(SimError::StreamMisuse {
                    core: core_id,
                    ssr: reg.index() as usize,
                    reason: "fld into an enabled stream register",
                });
            }
            self.lsu_load_dst = Some(reg);
            self.ready_at[reg.index() as usize] = READY_UNKNOWN;
            self.lsu_port.issue(MemReq {
                addr,
                op: MemOp::Read64,
            });
            self.stats.loads += 1;
        } else {
            let ready = if stream {
                self.stream_ready(reg.index() as usize, 1, core_id, streamers)?
            } else {
                self.reg_ready(reg, now)
            };
            if !ready {
                return Ok(false);
            }
            let v = self.read_src(reg, stream, streamers);
            self.lsu_store_busy = true;
            self.lsu_port.issue(MemReq {
                addr,
                op: MemOp::Write64(v.to_bits()),
            });
            self.stats.stores += 1;
        }
        self.stats.retired += 1;
        Ok(true)
    }

    /// Whether read stream `ssr` holds the `need` elements an instruction
    /// pops from it. Counts one stall if not.
    fn stream_ready(
        &mut self,
        ssr: usize,
        need: usize,
        core_id: usize,
        streamers: &[Streamer; 3],
    ) -> Result<bool, SimError> {
        let s = &streamers[ssr];
        if s.dir() != Some(StreamDir::Read) {
            return Err(SimError::StreamMisuse {
                core: core_id,
                ssr,
                reason: "read of a non-read stream register",
            });
        }
        if s.available() < need {
            self.stall(FpWait::StreamEmpty { ssr, need });
            return Ok(false);
        }
        Ok(true)
    }

    /// Whether the scoreboard has `r` ready at `now`. Counts one stall if
    /// not.
    fn reg_ready(&mut self, r: FpReg, now: u64) -> bool {
        let until = self.ready_at[r.index() as usize];
        if until <= now {
            return true;
        }
        if until == READY_UNKNOWN {
            // An in-flight load: no known cycle to sleep until.
            self.book(FpWait::Dependency { until });
        } else {
            self.stall(FpWait::Dependency { until });
        }
        false
    }

    /// Reads a source operand: a pop when `r` is acting as a stream
    /// register (`stream`), the register file otherwise.
    fn read_src(&mut self, r: FpReg, stream: bool, streamers: &mut [Streamer; 3]) -> f64 {
        if stream && r.is_stream_capable() {
            self.stats.stream_pops += 1;
            return streamers[r.index() as usize].pop();
        }
        self.regs[r.index() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TCDM_BASE;
    use crate::mem::Tcdm;
    use saris_isa::{FpR4Op, FpROp};

    fn cfg() -> ClusterConfig {
        ClusterConfig::snitch()
    }

    fn streamers(cfg: &ClusterConfig) -> [Streamer; 3] {
        [Streamer::new(cfg), Streamer::new(cfg), Streamer::new(cfg)]
    }

    fn decode(instr: Instr) -> FpArithOp {
        FpArithOp::decode(&instr, &cfg()).expect("FP arithmetic")
    }

    fn fadd(rd: u8, rs1: u8, rs2: u8) -> FpArithOp {
        decode(Instr::FpR {
            op: FpROp::Add,
            rd: FpReg::new(rd).unwrap(),
            rs1: FpReg::new(rs1).unwrap(),
            rs2: FpReg::new(rs2).unwrap(),
        })
    }

    #[test]
    fn dependency_stall_matches_latency() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        fp.set_reg(FpReg::FT4, 1.0);
        fp.set_reg(FpReg::FT5, 2.0);
        fp.offload_arith(fadd(3, 4, 5));
        fp.offload_arith(fadd(6, 3, 3));
        let mut retire_cycles = Vec::new();
        for now in 0..20u64 {
            let before = fp.stats.retired;
            fp.step(now, 0, false, &mut ss).unwrap();
            if fp.stats.retired > before {
                retire_cycles.push(now);
            }
        }
        assert_eq!(retire_cycles.len(), 2);
        assert_eq!(
            retire_cycles[1] - retire_cycles[0],
            cfg.fpu_latency_add as u64
        );
        assert_eq!(fp.reg(FpReg::FT6), 6.0);
        assert!(fp.stats.stalls.dependency > 0);
    }

    #[test]
    fn independent_ops_issue_back_to_back() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        for i in 0..4u8 {
            fp.set_reg(FpReg::new(10 + i).unwrap(), i as f64);
        }
        fp.offload_arith(fadd(3, 10, 11));
        fp.offload_arith(fadd(4, 12, 13));
        let mut retired_at = Vec::new();
        for now in 0..10u64 {
            let before = fp.stats.retired;
            fp.step(now, 0, false, &mut ss).unwrap();
            if fp.stats.retired > before {
                retired_at.push(now);
            }
        }
        assert_eq!(retired_at, vec![0, 1], "fully pipelined issue");
    }

    #[test]
    fn frep_replays_block() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        fp.set_reg(FpReg::FT4, 1.0);
        fp.set_reg(FpReg::FT3, 0.0);
        // frep with 3 extra reps of { ft3 += ft4 }: executes 4 times.
        fp.offload_frep(3, 1);
        fp.offload_arith(fadd(3, 3, 4));
        for now in 0..60u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
        }
        assert_eq!(fp.reg(FpReg::FT3), 4.0);
        assert_eq!(fp.stats.retired, 4, "replays count as retired");
        assert!(fp.is_drained());
    }

    #[test]
    fn frep_zero_reps_executes_once() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        fp.set_reg(FpReg::FT4, 2.0);
        fp.offload_frep(0, 1);
        fp.offload_arith(fadd(3, 4, 4));
        for now in 0..20u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
        }
        assert_eq!(fp.reg(FpReg::FT3), 4.0);
        assert_eq!(fp.stats.retired, 1);
        assert!(fp.is_drained());
    }

    #[test]
    fn frep_two_instr_body_interleaves() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        fp.set_reg(FpReg::FT4, 1.0);
        fp.set_reg(FpReg::FT5, 10.0);
        fp.set_reg(FpReg::FT3, 0.0);
        fp.set_reg(FpReg::FT6, 0.0);
        // body: ft3 += ft4; ft6 += ft5 — executed twice.
        fp.offload_frep(1, 2);
        fp.offload_arith(fadd(3, 3, 4));
        fp.offload_arith(fadd(6, 6, 5));
        for now in 0..60u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
        }
        assert_eq!(fp.reg(FpReg::FT3), 2.0);
        assert_eq!(fp.reg(FpReg::FT6), 20.0);
        assert_eq!(fp.stats.retired, 4);
    }

    #[test]
    #[should_panic(expected = "nested frep capture")]
    fn nested_frep_capture_panics() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        fp.offload_frep(1, 2);
        fp.offload_arith(fadd(3, 4, 4));
        // Body of 2 not complete: a second marker is a caller bug.
        fp.offload_frep(1, 1);
    }

    #[test]
    fn back_to_back_freps_replay_in_order() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        fp.set_reg(FpReg::FT4, 1.0);
        fp.set_reg(FpReg::FT5, 10.0);
        // First frep: ft3 += ft4 twice; second frep: ft6 += ft5 thrice.
        fp.offload_frep(1, 1);
        fp.offload_arith(fadd(3, 3, 4));
        fp.offload_frep(2, 1);
        fp.offload_arith(fadd(6, 6, 5));
        for now in 0..100u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
        }
        assert_eq!(fp.reg(FpReg::FT3), 2.0);
        assert_eq!(fp.reg(FpReg::FT6), 30.0);
        assert_eq!(fp.stats.retired, 5);
        assert!(fp.is_drained());
    }

    #[test]
    fn long_frep_body_exceeding_queue_depth_is_captured() {
        // The body (8 instrs) exceeds the offload queue depth (4): capture
        // at offload time must still accept all of it.
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        fp.set_reg(FpReg::FT4, 1.0);
        fp.offload_frep(0, 8);
        for i in 0..8u8 {
            assert!(fp.can_offload(), "capture must bypass queue depth");
            fp.offload_arith(fadd(8 + i, 4, 4));
        }
        for now in 0..50u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
        }
        assert_eq!(fp.stats.retired, 8);
        assert!(fp.is_drained());
    }

    #[test]
    fn fma_counts_two_flops() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        fp.set_reg(FpReg::FT4, 2.0);
        fp.set_reg(FpReg::FT5, 3.0);
        fp.set_reg(FpReg::FT6, 1.0);
        fp.offload_arith(decode(Instr::FpR4 {
            op: FpR4Op::Madd,
            rd: FpReg::FT3,
            rs1: FpReg::FT4,
            rs2: FpReg::FT5,
            rs3: FpReg::FT6,
        }));
        for now in 0..5u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
        }
        assert_eq!(fp.reg(FpReg::FT3), 7.0);
        assert_eq!(fp.stats.flops, 2);
        assert_eq!(fp.stats.arith, 1);
    }

    #[test]
    fn load_store_roundtrip_in_program_order() {
        let cfg = cfg();
        let mut t = Tcdm::new(&cfg);
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        t.write_u64(TCDM_BASE + 64, 2.5f64.to_bits()).unwrap();
        fp.set_reg(FpReg::FT5, 1.5);
        // fld ft4 <- [64]; ft3 = ft4 + ft5; fsd ft3 -> [72].
        fp.offload_mem(true, FpReg::FT4, TCDM_BASE + 64);
        fp.offload_arith(fadd(3, 4, 5));
        fp.offload_mem(false, FpReg::FT3, TCDM_BASE + 72);
        for now in 0..60u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
            t.arbitrate(&mut [&mut fp.lsu_port]).unwrap();
        }
        assert!(fp.is_drained());
        assert_eq!(f64::from_bits(t.read_u64(TCDM_BASE + 72).unwrap()), 4.0);
        assert_eq!(fp.stats.loads, 1);
        assert_eq!(fp.stats.stores, 1);
    }

    #[test]
    fn store_waits_for_producer_in_program_order() {
        // The RAW-through-queue hazard: fsd must see the fadd result even
        // though the core offloads both in the same burst.
        let cfg = cfg();
        let mut t = Tcdm::new(&cfg);
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        fp.set_reg(FpReg::FT4, 3.0);
        fp.set_reg(FpReg::FT3, -99.0); // stale value that must NOT be stored
        fp.offload_arith(fadd(3, 4, 4));
        fp.offload_mem(false, FpReg::FT3, TCDM_BASE + 8);
        for now in 0..60u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
            t.arbitrate(&mut [&mut fp.lsu_port]).unwrap();
        }
        assert_eq!(f64::from_bits(t.read_u64(TCDM_BASE + 8).unwrap()), 6.0);
    }

    #[test]
    fn stream_pop_stall_then_issue() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        ss[0].configure(crate::ssr::tests::indirect_read(
            TCDM_BASE,
            4,
            saris_isa::IndexWidth::U16,
        ));
        fp.set_reg(FpReg::FT4, 1.0);
        fp.offload_arith(decode(Instr::FpR {
            op: FpROp::Add,
            rd: FpReg::FT3,
            rs1: FpReg::FT0,
            rs2: FpReg::FT4,
        }));
        for now in 0..5u64 {
            fp.step(now, 0, true, &mut ss).unwrap();
        }
        assert_eq!(fp.stats.retired, 0);
        assert!(fp.stats.stalls.stream_empty >= 4);
    }

    #[test]
    fn reading_write_stream_is_error() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        ss[2].configure(saris_isa::SsrCfg::Affine(saris_isa::AffineCfg {
            dir: StreamDir::Write,
            base: TCDM_BASE,
            dims: 1,
            strides: [8, 0, 0, 0],
            bounds: [4, 1, 1, 1],
        }));
        fp.offload_arith(decode(Instr::FpR {
            op: FpROp::Add,
            rd: FpReg::FT3,
            rs1: FpReg::FT2,
            rs2: FpReg::FT3,
        }));
        let err = fp.step(0, 0, true, &mut ss).unwrap_err();
        assert!(matches!(err, SimError::StreamMisuse { ssr: 2, .. }));
    }

    #[test]
    fn ft_regs_are_normal_when_ssrs_disabled() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        fp.set_reg(FpReg::FT0, 2.0);
        fp.set_reg(FpReg::FT1, 3.0);
        fp.offload_arith(fadd(2, 0, 1)); // ft2 = ft0 + ft1, all "stream" regs
        for now in 0..5u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
        }
        assert_eq!(fp.reg(FpReg::FT2), 5.0);
    }

    /// `fdiv ft3` (busy for 12 cycles), `fld ft7` whose grant the test
    /// withholds until cycle `grant_at`, then `fadd fs0` over both — in
    /// either source order. Returns the per-cycle stats trace plus, per
    /// cycle, whether the FPU had a stall on record while the load was
    /// still in flight.
    fn dependency_trace(
        fast_forward: bool,
        known_first: bool,
        grant_at: u64,
    ) -> (Vec<FpuStats>, Vec<bool>) {
        let mut cfg = cfg();
        cfg.fast_forward = fast_forward;
        let mut t = Tcdm::new(&cfg);
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        t.write_u64(TCDM_BASE, 2.5f64.to_bits()).unwrap();
        fp.set_reg(FpReg::FT4, 3.0);
        fp.set_reg(FpReg::FT5, 2.0);
        fp.offload_arith(decode(Instr::FpR {
            op: FpROp::Div,
            rd: FpReg::FT3,
            rs1: FpReg::FT4,
            rs2: FpReg::FT5,
        }));
        fp.offload_mem(true, FpReg::FT7, TCDM_BASE);
        let (rs1, rs2) = if known_first { (3, 7) } else { (7, 3) };
        fp.offload_arith(fadd(8, rs1, rs2));
        let mut trace = Vec::new();
        let mut asleep_under_load = Vec::new();
        for now in 0..30u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
            if now >= grant_at {
                t.arbitrate(&mut [&mut fp.lsu_port]).unwrap();
            }
            trace.push(fp.stats);
            asleep_under_load.push(fp.wait.is_some() && fp.lsu_load_dst.is_some());
        }
        assert!(fp.is_drained());
        assert_eq!(fp.reg(FpReg::FS0), 4.0);
        (trace, asleep_under_load)
    }

    #[test]
    fn sleeping_on_a_known_dependency_still_absorbs_a_load_grant() {
        // The divide's result is met first: the FPU sleeps until it is
        // ready, with the load into its other source in flight for the
        // first cycles of the sleep.
        let (stepped, _) = dependency_trace(false, true, 6);
        let (fast, asleep_under_load) = dependency_trace(true, true, 6);
        assert_eq!(fast, stepped, "every counter, every cycle");
        assert!(
            asleep_under_load.iter().filter(|a| **a).count() >= 3,
            "the scenario must put the sleep and the flight in the same cycles"
        );
        // A grant later than the divide: the sleep ends on `ready_at`, and
        // the in-flight source then keeps the add waiting awake.
        let (stepped, _) = dependency_trace(false, true, 20);
        let (fast, _) = dependency_trace(true, true, 20);
        assert_eq!(fast, stepped);
    }

    #[test]
    fn never_sleeps_on_an_in_flight_load() {
        // The load's register is met first: no wake-up cycle is known, so
        // nothing may be recorded while it is in flight.
        let (stepped, _) = dependency_trace(false, false, 6);
        let (fast, asleep_under_load) = dependency_trace(true, false, 6);
        assert_eq!(fast, stepped, "every counter, every cycle");
        assert!(asleep_under_load.iter().all(|a| !a));
    }

    #[test]
    fn idle_counts_when_empty() {
        let cfg = cfg();
        let mut fp = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        for now in 0..3u64 {
            fp.step(now, 0, false, &mut ss).unwrap();
        }
        assert_eq!(fp.stats.stalls.idle, 3);
        assert!(fp.is_drained());
    }

    #[test]
    fn skip_idle_cycles_matches_stepping() {
        // Fast-forwarding a drained FPU books exactly the idle stalls
        // stepping would have.
        let cfg = cfg();
        let mut stepped = FpSubsystem::new(&cfg);
        let mut skipped = FpSubsystem::new(&cfg);
        let mut ss = streamers(&cfg);
        for now in 0..7u64 {
            stepped.step(now, 0, false, &mut ss).unwrap();
        }
        skipped.skip_idle_cycles(7);
        assert_eq!(stepped.stats, skipped.stats);
    }
}
