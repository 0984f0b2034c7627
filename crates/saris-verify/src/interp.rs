//! Bounded concrete interpretation of one core's program.
//!
//! SARIS kernels are *closed* programs: every loop bound, pointer, and
//! stream base is materialized by `li`/`addi` chains at compile time, so a
//! concrete interpreter with an `Uninit | Known | Unknown` value lattice
//! resolves essentially everything without executing the simulator. The
//! interpreter walks the integer pipeline exactly (following concretely
//! resolved branches under a step budget), models the three streamers'
//! setup/stage/arm protocol, and at each `ssr_commit` proves the armed
//! job legal against the kernel's [`MemoryMap`] — this is the heart of
//! the stream-legality proof.
//!
//! It interprets the ops `snitch-sim` already decodes
//! ([`ExecTable::ops`]): operands in fixed arrays, issue cost, FP latency
//! and flops resolved once per pc, FREP bodies replayed over a slice.
//!
//! # Extrapolating an FREP once it is periodic
//!
//! An FREP body is executed rep by rep only until its schedule repeats:
//! no integer op runs inside it, so after a rep that raised no finding
//! and left every FP register as ready *relative to the FP clock* as the
//! rep before it did, every remaining rep is the same rep shifted by the
//! same number of cycles, and all of them are applied in one step
//! ([`Interp::frep`]). Gallery bodies get there after one rep. A body
//! that keeps raising findings, or whose schedule never settles, is
//! executed to its last rep.
//!
//! # Proving a job from its descriptor
//!
//! A stream job is a descriptor — `(base, strides, bounds)`, or an index
//! array relaunched at a moving base — and most jobs are proven from it
//! without visiting an element:
//!
//! * **Affine.** The address *hull* `lo..hi + 8` follows from strides ×
//!   bounds in O(dims); both corners are addresses the job really
//!   touches. If the hull lies inside one granted region with the right
//!   permission and misses every `dma_writes` span, so does every element
//!   in between. The bank histogram is then filled from the job's address
//!   walk, one count per element, with no range check and no division.
//! * **Indirect.** The index array of a configuration does not change
//!   between launches, so it is decoded once per core ([`IndexPlan`]):
//!   smallest and largest offset, and the histogram of element banks
//!   *relative to the launch base's bank*. Each launch is then a hull
//!   check at `base + min_off..base + max_off + 8`, one count per index
//!   fetch, and that histogram added rotated by the base's bank.
//!
//! The proof **declines** — and the job is walked element by element,
//! reporting the first offending address in job order — whenever the hull
//! straddles regions, lacks the permission, touches a DMA span, leaves
//! TCDM (only TCDM addresses have a bank), wraps the address space, has
//! strides or offsets that are not whole words; when the bank count is
//! not a power of two or regions overlap (the first match decides a
//! permission, which a hull cannot see); and when no single install image
//! covers an index array. Declining costs time, never an answer: the walk
//! is the definition, the proof a shortcut that holds only where it is
//! exact. A job of more than [`ADDR_ENUM_CAP`] elements whose hull proof
//! declines is judged by its two corners alone and adds no bank pressure.
//!
//! Along the way the interpreter accumulates everything the static cost
//! bound needs: issue cycles (FREP bodies issued once), flops (every rep,
//! extrapolated ones included), the in-order FP issue schedule (each FP
//! op one cycle after the previous one or once its register sources are
//! ready, whichever is later), and a per-bank TCDM access histogram.
//!
//! Everything here is *optimistic*: where precision is lost (capped
//! jobs, unknown values) the interpreter under-counts and emits a
//! warning rather than inventing cycles, and a proven job counts exactly
//! the accesses its elements make, so the resulting bound stays a true
//! lower bound.

use saris_isa::{
    AffineCfg, FpReg, FrepCount, Hull, IndirectCfg, IntReg, Program, SsrCfg, SsrId, StreamDir,
};
use snitch_sim::{ClusterConfig, ExecTable, Op, TCDM_BASE};

use crate::diag::{DiagKind, Diagnostic};
use crate::memmap::{MemoryMap, RegionLookup};

/// A job of more elements than this is never walked: if its hull proof
/// declines, the corner (min/max address) check takes over.
const ADDR_ENUM_CAP: u64 = 1 << 22;

/// Interpreter step budget; exceeding it yields a non-termination error.
const STEP_BUDGET: u64 = 20_000_000;

/// What the interpreter learned about one core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreAnalysis {
    /// Findings, in discovery order.
    pub diags: Vec<Diagnostic>,
    /// Whether interpretation reached `halt` (false on early bail).
    pub halted: bool,
    /// Integer-pipeline issue cycles (FREP bodies issued once).
    pub issue_cycles: u64,
    /// The cycle after the last FP-subsystem issue when every FP op
    /// (replays, loads and stores included) issues in program order, one
    /// per cycle, no earlier than its register operands are ready.
    pub fp_issue: u64,
    /// Floating-point operations executed (FMAs count 2).
    pub flops: u64,
    /// TCDM accesses per bank (stream elements, index fetches, scalar
    /// memory operations).
    pub bank_hist: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    Uninit,
    Known(i64),
    Unknown,
}

#[derive(Debug, Clone, Copy)]
struct StreamState {
    /// Index into the table's `ssr_setup` payloads.
    cfg: u32,
    set_at: usize,
    armed: bool,
}

/// One indirect configuration's index array, decoded once per core: what
/// every launch of it shares. Exists only when the proof can use it (see
/// [`Interp::index_plan`]).
struct IndexPlan {
    /// Smallest and largest element offset from the launch base.
    min_off: u64,
    max_off: u64,
    /// `(bank offset from the launch base's bank, elements)`.
    footprint: Vec<(usize, u64)>,
}

struct Interp<'a> {
    table: &'a ExecTable,
    map: &'a MemoryMap<'a>,
    regions: RegionLookup,
    cfg: &'a ClusterConfig,
    core: usize,
    /// `tcdm_banks - 1` when that is a mask.
    bank_mask: Option<usize>,
    /// Tests only: never prove a hull, walk every job, and execute every
    /// FREP rep (the reference).
    walk_only: bool,
    /// Jobs the hull proof declined.
    walked: u64,
    /// FREPs whose remaining reps were applied at once.
    extrapolated: u64,

    int: [Val; 32],
    int_reported: [bool; 32],
    fp_def: [bool; 32],
    fp_reported: [bool; 32],
    fp_avail: [u64; 32],

    ssr_enabled: bool,
    streams: [Option<StreamState>; 3],
    staged: [Option<Val>; 3],
    /// Decoded index arrays by `ssr_setup` payload index; `None` where
    /// the configuration has to be walked.
    plans: Vec<(u32, Option<IndexPlan>)>,

    out: CoreAnalysis,
    write_spans: Vec<(u64, u64)>,
    core_stores: Vec<(u64, usize)>,
}

/// Interprets `program` against `map`, reporting findings as `core`.
pub fn interpret(
    program: &Program,
    map: &MemoryMap,
    cfg: &ClusterConfig,
    core: usize,
) -> CoreAnalysis {
    run(program, map, cfg, core, false).0
}

/// [`interpret`], also returning how many jobs were walked and how many
/// FREPs were extrapolated.
fn run(
    program: &Program,
    map: &MemoryMap,
    cfg: &ClusterConfig,
    core: usize,
    walk_only: bool,
) -> (CoreAnalysis, u64, u64) {
    let table = ExecTable::decode(program, cfg);
    let mut interp = Interp {
        table: &table,
        map,
        regions: RegionLookup::new(map),
        cfg,
        core,
        bank_mask: cfg.tcdm_banks.is_power_of_two().then(|| cfg.tcdm_banks - 1),
        walk_only,
        walked: 0,
        extrapolated: 0,
        int: [Val::Uninit; 32],
        int_reported: [false; 32],
        fp_def: [false; 32],
        fp_reported: [false; 32],
        fp_avail: [0; 32],
        ssr_enabled: false,
        streams: [None; 3],
        staged: [None; 3],
        plans: Vec::new(),
        out: CoreAnalysis {
            diags: Vec::new(),
            halted: false,
            issue_cycles: 0,
            fp_issue: 0,
            flops: 0,
            bank_hist: vec![0; cfg.tcdm_banks],
        },
        write_spans: Vec::new(),
        core_stores: Vec::new(),
    };
    interp.int[0] = Val::Known(0);
    (interp.out.issue_cycles, interp.out.fp_issue) = interp.execute();
    let (walked, extrapolated) = (interp.walked, interp.extrapolated);
    (interp.finish(), walked, extrapolated)
}

/// `base + imm` as the hardware computes an address: modulo 2^64.
fn effective(base: i64, imm: i32) -> u64 {
    base.wrapping_add(i64::from(imm)) as u64
}

impl Interp<'_> {
    #[cold]
    fn diag(&mut self, at: Option<usize>, kind: DiagKind) {
        self.out.diags.push(Diagnostic {
            core: self.core,
            at,
            kind,
        });
    }

    #[cold]
    fn budget_exhausted(&mut self, pc: usize) {
        self.diag(
            Some(pc),
            DiagKind::NonTermination {
                reason: format!("step budget ({STEP_BUDGET}) exhausted"),
            },
        );
    }

    /// Reports the first read of an undefined register (of one file:
    /// `reported` is that file's once-per-register flag).
    #[cold]
    fn use_before_def(&mut self, reg: &dyn std::fmt::Display, reported: bool, at: usize) {
        if !reported {
            self.diag(
                Some(at),
                DiagKind::UseBeforeDef {
                    reg: reg.to_string(),
                },
            );
        }
    }

    #[inline(always)]
    fn read_int(&mut self, reg: IntReg, at: usize) -> Val {
        let i = reg.index() as usize;
        match self.int[i] {
            Val::Uninit => {
                let reported = std::mem::replace(&mut self.int_reported[i], true);
                self.use_before_def(&reg, reported, at);
                Val::Unknown
            }
            v => v,
        }
    }

    #[inline]
    fn write_int(&mut self, reg: IntReg, val: Val) {
        if !reg.is_zero() {
            self.int[reg.index() as usize] = val;
        }
    }

    #[inline(always)]
    fn binary(
        &mut self,
        rd: IntReg,
        rs1: IntReg,
        rs2: IntReg,
        at: usize,
        f: impl Fn(i64, i64) -> i64,
    ) {
        let (a, b) = (self.read_int(rs1, at), self.read_int(rs2, at));
        self.write_int(rd, combine(a, b, f));
    }

    /// Reads an FP register for def-use purposes; returns the cycle its
    /// value is ready (streams are always ready).
    #[inline(always)]
    fn read_fp(&mut self, reg: FpReg, at: usize) -> u64 {
        if reg.is_stream_capable() && self.ssr_enabled {
            return 0;
        }
        let i = reg.index() as usize;
        if !self.fp_def[i] {
            let reported = std::mem::replace(&mut self.fp_reported[i], true);
            self.use_before_def(&reg, reported, at);
        }
        self.fp_avail[i]
    }

    /// The bank of the 64-bit word `word` (counted from `TCDM_BASE`).
    fn bank_of(&self, word: u64) -> usize {
        match self.bank_mask {
            Some(mask) => word as usize & mask,
            None => (word % self.cfg.tcdm_banks as u64) as usize,
        }
    }

    #[inline(always)]
    fn touch_bank(&mut self, addr: u64) {
        self.touch_bank_n(addr, 1);
    }

    /// Counts `n` accesses to `addr` if it is a TCDM address.
    #[inline(always)]
    fn touch_bank_n(&mut self, addr: u64, n: u64) {
        let off = addr.wrapping_sub(TCDM_BASE);
        if off < self.cfg.tcdm_bytes as u64 {
            let bank = self.bank_of(off >> 3);
            self.out.bank_hist[bank] += n;
        }
    }

    #[inline(always)]
    fn check_scalar(&mut self, addr: u64, len: u64, write: bool, at: usize) {
        if !self.regions.allows(addr, len, write) {
            self.diag(Some(at), DiagKind::MemOutOfBounds { addr, write });
        }
        self.touch_bank(addr);
        if write {
            self.core_stores.push((addr, at));
        }
    }

    /// Walks the integer pipeline from pc 0 until it halts or the
    /// analysis has to stop; returns the issue cycles spent and the FP
    /// issue clock ([`CoreAnalysis::fp_issue`]).
    ///
    /// This loop is the verifier's whole cost (everything around it is ~2%
    /// of `verify_kernel`). A step is one integer op, or one FP op of an
    /// FREP rep; the step budget counts every rep, but reps past the
    /// point where the body's schedule turns periodic cost nothing
    /// ([`Interp::frep`]), so what remains is the integer loops (~44k
    /// steps per gallery kernel). How the loop is laid out is worth 1.5x:
    /// it is kept a function of its own with the per-step helpers inlined
    /// into it and the rare stream-job logic ([`Interp::ssr_setup`],
    /// [`Interp::commit_job`]) and every diagnostic kept *out* of it, so
    /// the per-step state stays in registers instead of being spilled
    /// around code that almost never runs.
    #[inline(never)]
    fn execute(&mut self) -> (u64, u64) {
        let ops = self.table.ops();
        let taken_penalty = u64::from(self.cfg.branch_taken_penalty);
        let (mut pc, mut steps, mut issue, mut fp_issue) = (0usize, 0u64, 0u64, 0u64);
        loop {
            steps += 1;
            if steps > STEP_BUDGET {
                self.budget_exhausted(pc);
                return (issue, fp_issue);
            }
            let Some(&op) = ops.get(pc) else {
                // `validate` guarantees a terminator; running off the end
                // only happens on raw (mutated) programs.
                self.diag(
                    Some(pc.saturating_sub(1)),
                    DiagKind::NonTermination {
                        reason: "execution ran off the end of the program".into(),
                    },
                );
                return (issue, fp_issue);
            };
            issue += u64::from(op.issue_cost());
            match op {
                Op::Li { rd, imm, .. } => self.write_int(rd, Val::Known(imm)),
                Op::Addi { rd, rs1, imm } => {
                    let v = self.read_int(rs1, pc);
                    self.write_int(
                        rd,
                        combine(v, Val::Known(i64::from(imm)), i64::wrapping_add),
                    );
                }
                Op::Add { rd, rs1, rs2 } => self.binary(rd, rs1, rs2, pc, i64::wrapping_add),
                Op::Sub { rd, rs1, rs2 } => self.binary(rd, rs1, rs2, pc, i64::wrapping_sub),
                Op::Mul { rd, rs1, rs2 } => self.binary(rd, rs1, rs2, pc, i64::wrapping_mul),
                Op::Slli { rd, rs1, shamt } => {
                    let v = match self.read_int(rs1, pc) {
                        Val::Known(a) => Val::Known(a.wrapping_shl(shamt.into())),
                        _ => Val::Unknown,
                    };
                    self.write_int(rd, v);
                }
                Op::Lw { rd, base, imm } => {
                    if let Val::Known(b) = self.read_int(base, pc) {
                        self.check_scalar(effective(b, imm), 4, false, pc);
                    }
                    // TCDM data contents are not modeled.
                    self.write_int(rd, Val::Unknown);
                }
                Op::Sw { rs2, base, imm } => {
                    self.read_int(rs2, pc);
                    if let Val::Known(b) = self.read_int(base, pc) {
                        self.check_scalar(effective(b, imm), 4, true, pc);
                    }
                }
                Op::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    let (a, b) = (self.read_int(rs1, pc), self.read_int(rs2, pc));
                    let (Val::Known(a), Val::Known(b)) = (a, b) else {
                        self.diag(
                            Some(pc),
                            DiagKind::UnresolvedValue {
                                what: "branch condition".into(),
                            },
                        );
                        return (issue, fp_issue);
                    };
                    if cond.eval(a as u64, b as u64) {
                        if target as usize == pc {
                            self.diag(
                                Some(pc),
                                DiagKind::NonTermination {
                                    reason: "taken branch targets itself".into(),
                                },
                            );
                            return (issue, fp_issue);
                        }
                        issue += taken_penalty;
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Jump { target } => {
                    if target as usize == pc {
                        self.diag(
                            Some(pc),
                            DiagKind::NonTermination {
                                reason: "jump targets itself".into(),
                            },
                        );
                        return (issue, fp_issue);
                    }
                    issue += taken_penalty;
                    pc = target as usize;
                    continue;
                }
                Op::FpMem { .. } | Op::FpArith(_) => self.exec_fp(op, pc, &mut fp_issue),
                Op::Frep {
                    count,
                    n_instrs,
                    fits,
                } => {
                    // `fits` is the configuration's verdict
                    // (`ClusterConfig::frep_body_fits`), decoded once for
                    // the verifier and the simulator alike: a body the
                    // simulator refuses stops the program here.
                    if !fits {
                        self.diag(
                            Some(pc),
                            DiagKind::Malformed {
                                reason: format!(
                                    "frep body of {n_instrs} instructions does not fit \
                                     the sequencer (depth {})",
                                    self.cfg.sequencer_depth
                                ),
                            },
                        );
                        return (issue, fp_issue);
                    }
                    let reps = match count {
                        FrepCount::Imm(k) => u64::from(k) + 1,
                        // The sequencer reads the register as unsigned.
                        FrepCount::Reg(r) => match self.read_int(r, pc) {
                            Val::Known(v) => match (v as u64).checked_add(1) {
                                Some(reps) => reps,
                                None => {
                                    self.diag(
                                        Some(pc),
                                        DiagKind::NonTermination {
                                            reason: "frep body executes 2^64 times".into(),
                                        },
                                    );
                                    return (issue, fp_issue);
                                }
                            },
                            _ => {
                                self.diag(
                                    Some(pc),
                                    DiagKind::UnresolvedValue {
                                        what: "frep repetition count".into(),
                                    },
                                );
                                return (issue, fp_issue);
                            }
                        },
                    };
                    let start = pc + 1;
                    let body = &ops[start..(start + n_instrs as usize).min(ops.len())];
                    // Body instructions consume issue slots once (the
                    // sequencer replays them for free).
                    for op in body {
                        issue += u64::from(op.issue_cost());
                    }
                    steps = steps.saturating_add(reps.saturating_mul(body.len() as u64));
                    if steps > STEP_BUDGET {
                        self.budget_exhausted(pc);
                        return (issue, fp_issue);
                    }
                    self.frep(body, start, reps, &mut fp_issue);
                    pc = start + body.len();
                    continue;
                }
                Op::SsrEnable => self.ssr_enabled = true,
                Op::SsrDisable => self.ssr_enabled = false,
                Op::SsrSetup { ssr, cfg, .. } => self.ssr_setup(ssr, cfg, pc),
                Op::SsrSetBase { ssr, rs1 } => {
                    let v = self.read_int(rs1, pc);
                    self.staged[ssr.index()] = Some(v);
                }
                Op::SsrCommit { ssrs } => {
                    for ssr in ssrs.iter() {
                        self.commit_job(ssr, pc);
                    }
                }
                Op::Nop => {}
                Op::Halt => {
                    self.out.halted = true;
                    return (issue, fp_issue);
                }
            }
            pc += 1;
        }
    }

    /// Executes one FP-subsystem op (anything else is ignored: only raw,
    /// unvalidated programs put one in an FREP body).
    ///
    /// Timing follows the FP sequencer: ops issue in program order, at
    /// most one per cycle, each once its register sources are ready —
    /// a RAW stall holds every op behind it, independent or not.
    #[inline(always)]
    fn exec_fp(&mut self, op: Op, pc: usize, fp_issue: &mut u64) {
        let start = match op {
            Op::FpMem {
                is_load: true,
                reg,
                base,
                imm,
            } => {
                if let Val::Known(b) = self.read_int(base, pc) {
                    self.check_scalar(effective(b, imm), 8, false, pc);
                }
                let start = *fp_issue;
                self.fp_def[reg.index() as usize] = true;
                // Ready as soon as issued (optimistic: no TCDM latency).
                self.fp_avail[reg.index() as usize] = start;
                start
            }
            Op::FpMem {
                is_load: false,
                reg,
                base,
                imm,
            } => {
                let start = (*fp_issue).max(self.read_fp(reg, pc));
                if let Val::Known(b) = self.read_int(base, pc) {
                    self.check_scalar(effective(b, imm), 8, true, pc);
                }
                start
            }
            Op::FpArith(fp) => {
                let operands = fp.operands();
                let mut start = *fp_issue;
                for src in operands.srcs() {
                    start = start.max(self.read_fp(*src, pc));
                }
                self.out.flops += fp.flops();
                let rd = operands.rd;
                if !(rd.is_stream_capable() && self.ssr_enabled) {
                    self.fp_def[rd.index() as usize] = true;
                    self.fp_avail[rd.index() as usize] = start + fp.latency();
                }
                start
            }
            _ => return,
        };
        *fp_issue = start + 1;
    }

    /// Executes an FREP body (`start` is the pc of its first op) `reps`
    /// times.
    ///
    /// No integer op runs inside an FREP, so every address, every region
    /// check and `ssr_enabled` are the same in each rep, and a rep's
    /// schedule is a max-plus function of the FP clock and of each
    /// register's readiness relative to it. Once a rep that raised no
    /// finding leaves the same relative readiness as the rep before it
    /// did (the first rep: as the FREP found it), every later rep
    /// repeats it `d` cycles later and raises none
    /// either, so the remaining reps are applied at once: the clock and
    /// every register the body writes move by `k·d`, and the flops, bank
    /// counts and scalar stores of the rep count `k` more times.
    #[inline(never)]
    fn frep(&mut self, body: &[Op], start: usize, reps: u64, fp_issue: &mut u64) {
        let relative = |avail: &[u64; 32], clock: u64| avail.map(|a| a.saturating_sub(clock));
        let mut prev = relative(&self.fp_avail, *fp_issue);
        for done in 1..=reps {
            let (clock, flops) = (*fp_issue, self.out.flops);
            let (diags, stores) = (self.out.diags.len(), self.core_stores.len());
            for (i, &op) in body.iter().enumerate() {
                self.exec_fp(op, start + i, fp_issue);
            }
            let rel = relative(&self.fp_avail, *fp_issue);
            if rel == prev && self.out.diags.len() == diags && !self.walk_only {
                let k = reps - done;
                if k > 0 {
                    self.extrapolated += 1;
                    let d = *fp_issue - clock;
                    *fp_issue += k * d;
                    self.out.flops += k * (self.out.flops - flops);
                    self.repeat_rep(body, k, d, stores);
                }
                return;
            }
            prev = rel;
        }
    }

    /// The rest of `k` more reps of an FREP body whose last rep advanced
    /// the FP clock by `d` and pushed `core_stores[stores..]` (the caller
    /// moves the clock and the flops).
    fn repeat_rep(&mut self, body: &[Op], k: u64, d: u64, stores: usize) {
        let mut written = 0u32;
        for &op in body {
            match op {
                Op::FpMem {
                    is_load,
                    reg,
                    base,
                    imm,
                } => {
                    if is_load {
                        written |= 1 << reg.index();
                    }
                    if let Val::Known(b) = self.int[base.index() as usize] {
                        self.touch_bank_n(effective(b, imm), k);
                    }
                }
                Op::FpArith(fp) => {
                    let rd = fp.operands().rd;
                    if !(rd.is_stream_capable() && self.ssr_enabled) {
                        written |= 1 << rd.index();
                    }
                }
                _ => {}
            }
        }
        for (i, avail) in self.fp_avail.iter_mut().enumerate() {
            if written & (1 << i) != 0 {
                *avail += k * d;
            }
        }
        let end = self.core_stores.len();
        if end > stores {
            self.core_stores.reserve((end - stores) * k as usize);
            for _ in 0..k {
                self.core_stores.extend_from_within(stores..end);
            }
        }
    }

    #[inline(never)]
    fn ssr_setup(&mut self, ssr: SsrId, cfg: u32, pc: usize) {
        if matches!(self.table.ssr_cfg(cfg), SsrCfg::Indirect(_)) && !ssr.supports_indirection() {
            self.diag(Some(pc), DiagKind::IllegalIndirection { ssr });
        }
        if let Some(prev) = self.streams[ssr.index()] {
            if !prev.armed {
                self.diag(Some(prev.set_at), DiagKind::DeadStreamConfig { ssr });
            }
        }
        self.streams[ssr.index()] = Some(StreamState {
            cfg,
            set_at: pc,
            armed: false,
        });
    }

    #[inline(never)]
    fn commit_job(&mut self, ssr: SsrId, pc: usize) {
        let Some(state) = &mut self.streams[ssr.index()] else {
            self.diag(Some(pc), DiagKind::CommitWithoutSetup { ssr });
            return;
        };
        state.armed = true;
        let cfg = state.cfg;
        let staged = self.staged[ssr.index()].take();
        match self.table.ssr_cfg(cfg) {
            SsrCfg::Affine(a) => {
                let extra = match staged {
                    None => 0,
                    Some(Val::Known(v)) => v,
                    Some(_) => {
                        self.diag(
                            Some(pc),
                            DiagKind::UnresolvedValue {
                                what: format!("{ssr} staged base"),
                            },
                        );
                        return;
                    }
                };
                self.affine_job(ssr, &a, a.launch_base(extra as u64), pc);
            }
            SsrCfg::Indirect(i) => {
                let base = match staged {
                    Some(Val::Known(v)) => v as u64,
                    _ => {
                        self.diag(
                            Some(pc),
                            DiagKind::UnresolvedValue {
                                what: format!("{ssr} indirect base"),
                            },
                        );
                        return;
                    }
                };
                self.indirect_job(ssr, cfg, &i, base, pc);
            }
        }
    }

    fn stream_oob(&mut self, ssr: SsrId, addr: u64, dir: StreamDir, pc: usize) {
        self.diag(Some(pc), DiagKind::StreamOutOfBounds { ssr, addr, dir });
    }

    /// The hull proof: whether a job all of whose 8-byte elements lie in
    /// the non-empty range `lo..end` is legal as a whole *and* its
    /// elements all have a bank the mask computes. See the module docs
    /// for each reason to decline.
    fn hull_legal(&mut self, lo: u64, end: u64, dir: StreamDir) -> bool {
        let write = dir == StreamDir::Write;
        !self.walk_only
            && self.bank_mask.is_some()
            && self.regions.disjoint()
            && lo >= TCDM_BASE
            && end - TCDM_BASE <= self.cfg.tcdm_bytes as u64
            && self.regions.allows(lo, end - lo, write)
            && !(write && self.map.overlaps_dma_writes(lo, end - lo))
    }

    fn affine_job(&mut self, ssr: SsrId, a: &AffineCfg, base: u64, pc: usize) {
        let dims = (a.dims as usize).min(a.bounds.len());
        if a.bounds[..dims].contains(&0) {
            self.diag(Some(pc), DiagKind::ZeroBound { ssr });
            return;
        }
        let total = a.bounds[..dims]
            .iter()
            .fold(1u64, |t, &b| t.saturating_mul(u64::from(b)));
        // Past 2^64 the walk and the corner check see wrapped addresses.
        let Hull { lo, hi, in_range } = a.hull(base);
        let whole_words = a.strides[..dims].iter().all(|s| s % 8 == 0);
        let write = a.dir == StreamDir::Write;
        if in_range && whole_words && self.hull_legal(lo, hi + 8, a.dir) {
            if total <= ADDR_ENUM_CAP {
                // Every element is in TCDM and the bank count is a mask.
                let mask = self.bank_mask.expect("the hull proof needs the mask");
                for addr in a.walk(base).take(total as usize) {
                    self.out.bank_hist[((addr - TCDM_BASE) >> 3) as usize & mask] += 1;
                }
            }
            if write {
                self.write_spans.push((lo, hi + 8));
            }
            return;
        }
        self.walked += 1;
        if total > ADDR_ENUM_CAP {
            for corner in [lo, hi] {
                if !self.regions.allows(corner, 8, write) {
                    self.stream_oob(ssr, corner, a.dir, pc);
                    return;
                }
            }
            if write {
                self.write_spans.push((lo, hi.wrapping_add(8)));
            }
            return;
        }
        self.walk_elements(ssr, a.dir, pc, a.walk(base).take(total as usize).map(Some));
    }

    /// Decodes the index array of `i` for [`Interp::indirect_job`], or
    /// declines for every launch of it: the array's bytes must be
    /// provably readable TCDM, one install image must cover them (with no
    /// earlier image shadowing a part — the first image decides a byte),
    /// and every offset must be whole words.
    fn index_plan(&mut self, i: &IndirectCfg) -> Option<IndexPlan> {
        let mask = self.bank_mask?;
        let width = i.idx_width.bytes();
        let count = i.idx_count as usize;
        let end = i.idx_base.checked_add((count * width) as u64)?;
        if count == 0 || !self.hull_legal(i.idx_base, end, StreamDir::Read) {
            return None;
        }
        let mut image = None;
        for &(tbase, bytes) in &self.map.tables {
            let tend = tbase.saturating_add(bytes.len() as u64);
            if tbase <= i.idx_base && end <= tend {
                image = Some(&bytes[(i.idx_base - tbase) as usize..][..count * width]);
                break;
            }
            if tbase < end && i.idx_base < tend {
                return None;
            }
        }
        let mut plan = IndexPlan {
            min_off: u64::MAX,
            max_off: 0,
            footprint: Vec::new(),
        };
        for entry in image?.chunks_exact(width) {
            let off = i.offset(i.idx_width.read(entry));
            if !off.is_multiple_of(8) {
                return None;
            }
            plan.min_off = plan.min_off.min(off);
            plan.max_off = plan.max_off.max(off);
            let bank = (off >> 3) as usize & mask;
            match plan.footprint.iter_mut().find(|(b, _)| *b == bank) {
                Some((_, n)) => *n += 1,
                None => plan.footprint.push((bank, 1)),
            }
        }
        Some(plan)
    }

    fn indirect_job(&mut self, ssr: SsrId, cfg: u32, i: &IndirectCfg, base: u64, pc: usize) {
        let slot = match self.plans.iter().position(|(c, _)| *c == cfg) {
            Some(slot) => slot,
            None => {
                let plan = self.index_plan(i);
                self.plans.push((cfg, plan));
                self.plans.len() - 1
            }
        };
        let hull = self.plans[slot].1.as_ref().and_then(|plan| {
            let lo = base.checked_add(plan.min_off)?;
            Some((lo, base.checked_add(plan.max_off)?.checked_add(8)?))
        });
        let Some((lo, end)) = hull.filter(|&(lo, end)| self.hull_legal(lo, end, i.dir)) else {
            self.indirect_walk(ssr, i, base, pc);
            return;
        };
        let mask = self.bank_mask.expect("the hull proof needs the mask");
        let plan = self.plans[slot].1.as_ref().expect("a hull came from it");
        let hist = &mut self.out.bank_hist;
        for f in 0..i.fetches() {
            hist[((i.fetch_addr(f) - TCDM_BASE) >> 3) as usize & mask] += 1;
        }
        // `base` itself may sit below TCDM; every `base + off` is inside.
        let base_word = (base.wrapping_sub(TCDM_BASE) >> 3) as usize;
        for &(bank, elems) in &plan.footprint {
            hist[(base_word + bank) & mask] += elems;
        }
        if i.dir == StreamDir::Write {
            self.write_spans.push((lo, end));
        }
    }

    /// Walks an indirect job: every index fetch, then every element.
    fn indirect_walk(&mut self, ssr: SsrId, i: &IndirectCfg, base: u64, pc: usize) {
        self.walked += 1;
        let width = i.idx_width.bytes() as u64;
        let per_fetch = i.idx_width.per_fetch() as u64;
        let count = u64::from(i.idx_count);
        // Index fetch traffic: 64-bit reads over the packed index array.
        for f in 0..i.fetches() {
            let faddr = i.fetch_addr(f);
            let fetched = (count - u64::from(f) * per_fetch).min(per_fetch) * width;
            if !self.regions.allows(faddr, fetched, false) {
                self.stream_oob(ssr, faddr, StreamDir::Read, pc);
                return;
            }
            self.touch_bank(faddr);
        }
        let map = self.map;
        let elems = (0..count).map(|n| {
            let entry = map.table_bytes(i.idx_base.wrapping_add(n * width), width as usize)?;
            Some(i.addr(base, i.idx_width.read(entry)))
        });
        self.walk_elements(ssr, i.dir, pc, elems);
    }

    /// The definition of a job's legality: every element, in job order
    /// (`None` for an index entry no install image holds).
    fn walk_elements(
        &mut self,
        ssr: SsrId,
        dir: StreamDir,
        pc: usize,
        elems: impl Iterator<Item = Option<u64>>,
    ) {
        let write = dir == StreamDir::Write;
        let mut unresolved = false;
        let mut dma_flagged = false;
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for addr in elems {
            let Some(addr) = addr else {
                if !unresolved {
                    unresolved = true;
                    self.diag(
                        Some(pc),
                        DiagKind::UnresolvedValue {
                            what: format!("{ssr} index array contents"),
                        },
                    );
                }
                continue;
            };
            if !self.regions.allows(addr, 8, write) {
                self.stream_oob(ssr, addr, dir, pc);
                return;
            }
            self.touch_bank(addr);
            if write {
                lo = lo.min(addr);
                hi = hi.max(addr);
                if !dma_flagged && self.map.overlaps_dma_writes(addr, 8) {
                    dma_flagged = true;
                    self.diag(Some(pc), DiagKind::DmaHazard { addr });
                }
            }
        }
        if write && lo <= hi {
            self.write_spans.push((lo, hi.wrapping_add(8)));
        }
    }

    fn finish(mut self) -> CoreAnalysis {
        if self.out.halted {
            for ssr in SsrId::ALL {
                if let Some(state) = self.streams[ssr.index()] {
                    if !state.armed {
                        self.diag(Some(state.set_at), DiagKind::DeadStreamConfig { ssr });
                    }
                }
            }
        }
        for &(addr, at) in &self.core_stores {
            if self
                .write_spans
                .iter()
                .any(|&(lo, hi)| addr >= lo && addr < hi)
            {
                self.out.diags.push(Diagnostic {
                    core: self.core,
                    at: Some(at),
                    kind: DiagKind::WriteHazard { addr },
                });
            }
        }
        self.out
    }
}

fn combine(a: Val, b: Val, f: impl Fn(i64, i64) -> i64) -> Val {
    match (a, b) {
        (Val::Known(a), Val::Known(b)) => Val::Known(f(a, b)),
        _ => Val::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_isa::{IndexWidth, Instr, ProgramBuilder, SsrSet};

    fn map_with_arena() -> MemoryMap<'static> {
        let mut m = MemoryMap::default();
        m.grant("in", TCDM_BASE, 512, false);
        m.grant("out", TCDM_BASE + 512, 512, true);
        m
    }

    fn snitch() -> ClusterConfig {
        ClusterConfig::snitch()
    }

    /// Interprets with the hull proofs and again walking every job: the
    /// two must agree on everything. Returns the analysis and how many
    /// jobs the proving run still walked.
    fn both_ways(program: &Program, map: &MemoryMap, cfg: &ClusterConfig) -> (CoreAnalysis, u64) {
        let (proving, walked, _) = run(program, map, cfg, 0, false);
        let (walking, ..) = run(program, map, cfg, 0, true);
        assert_eq!(proving, walking, "the hull proof changed an answer");
        (proving, walked)
    }

    #[test]
    fn counted_loop_halts_cleanly() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, 8);
        let head = b.bind_here();
        b.addi(IntReg::T0, IntReg::T0, -1);
        b.bne(IntReg::T0, IntReg::ZERO, head);
        b.push(Instr::Halt);
        let r = interpret(&b.finish().unwrap(), &map_with_arena(), &snitch(), 0);
        assert!(r.halted);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        // 2-cycle li + 8 * (addi + bne) + 7 taken-branch bubbles + halt.
        assert!(r.issue_cycles >= 8 * 2);
    }

    #[test]
    fn use_before_def_is_flagged() {
        let mut b = ProgramBuilder::new();
        b.addi(IntReg::T1, IntReg::T0, 1); // t0 never defined
        b.push(Instr::Halt);
        let r = interpret(&b.finish().unwrap(), &map_with_arena(), &snitch(), 0);
        assert!(r
            .diags
            .iter()
            .any(|d| matches!(&d.kind, DiagKind::UseBeforeDef { reg } if reg == "t0")));
    }

    #[test]
    fn self_branch_is_nontermination() {
        let program = Program::from_raw_instrs(vec![
            Instr::Li {
                rd: IntReg::T0,
                imm: 1,
            },
            Instr::Branch {
                cond: saris_isa::BranchCond::Ne,
                rs1: IntReg::T0,
                rs2: IntReg::ZERO,
                target: 1,
            },
            Instr::Halt,
        ]);
        let r = interpret(&program, &map_with_arena(), &snitch(), 0);
        assert!(!r.halted);
        assert!(r
            .diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::NonTermination { .. })));
    }

    /// `ssr_enable; ssr_setup sr0 cfg; [li t0 base; ssr_set_base sr0 t0;]
    /// ssr_commit sr0` per job, then `ssr_disable; halt`. Raw: hostile
    /// configurations do not pass the builder.
    fn stream_jobs(jobs: &[(SsrCfg, Option<i64>)]) -> Program {
        let mut instrs = vec![Instr::SsrEnable];
        for &(cfg, set_base) in jobs {
            instrs.push(Instr::SsrSetup {
                ssr: SsrId::Ssr0,
                cfg: Box::new(cfg),
            });
            if let Some(base) = set_base {
                instrs.push(Instr::Li {
                    rd: IntReg::T0,
                    imm: base,
                });
                instrs.push(Instr::SsrSetBase {
                    ssr: SsrId::Ssr0,
                    rs1: IntReg::T0,
                });
            }
            instrs.push(Instr::SsrCommit {
                ssrs: SsrSet::of(SsrId::Ssr0),
            });
        }
        instrs.extend([Instr::SsrDisable, Instr::Halt]);
        Program::from_raw_instrs(instrs)
    }

    fn stream_program(cfg: SsrCfg, set_base: Option<i64>) -> Program {
        stream_jobs(&[(cfg, set_base)])
    }

    fn affine(dir: StreamDir, base: u64, strides: [i64; 4], bounds: [u32; 4]) -> SsrCfg {
        SsrCfg::Affine(AffineCfg {
            dir,
            base,
            dims: 4,
            strides,
            bounds,
        })
    }

    fn gather(idx_base: u64, idx_count: u32, dir: StreamDir) -> SsrCfg {
        SsrCfg::Indirect(IndirectCfg {
            dir,
            idx_base,
            idx_count,
            idx_width: IndexWidth::U16,
            shift: 3,
        })
    }

    fn pack_u16(indices: &[u16]) -> Vec<u8> {
        indices.iter().flat_map(|i| i.to_le_bytes()).collect()
    }

    #[test]
    fn affine_in_bounds_job_is_clean_and_counts_banks() {
        let cfg = affine(StreamDir::Read, TCDM_BASE, [8, 64, 0, 0], [8, 8, 1, 1]);
        let (r, walked) = both_ways(&stream_program(cfg, None), &map_with_arena(), &snitch());
        assert!(r.halted);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.bank_hist.iter().sum::<u64>(), 64);
        assert_eq!(walked, 0, "proven from the descriptor");
    }

    #[test]
    fn affine_escape_is_out_of_bounds_error() {
        // One element past the 512-byte arena.
        let cfg = affine(
            StreamDir::Write,
            TCDM_BASE + 512,
            [8, 0, 0, 0],
            [65, 1, 1, 1],
        );
        let (r, walked) = both_ways(&stream_program(cfg, None), &map_with_arena(), &snitch());
        assert!(r.diags.iter().any(
            |d| matches!(d.kind, DiagKind::StreamOutOfBounds { addr, .. }
                if addr == TCDM_BASE + 1024)
        ));
        assert_eq!(r.bank_hist.iter().sum::<u64>(), 64, "the legal prefix");
        assert_eq!(walked, 1);
    }

    #[test]
    fn affine_write_into_readonly_region_is_flagged() {
        let cfg = affine(StreamDir::Write, TCDM_BASE, [8, 0, 0, 0], [4, 1, 1, 1]);
        let (r, _) = both_ways(&stream_program(cfg, None), &map_with_arena(), &snitch());
        assert!(r.diags.iter().any(
            |d| matches!(d.kind, DiagKind::StreamOutOfBounds { addr, .. } if addr == TCDM_BASE)
        ));
    }

    #[test]
    fn zero_bound_is_flagged() {
        let cfg = affine(StreamDir::Read, TCDM_BASE, [8, 64, 0, 0], [8, 0, 1, 1]);
        let r = interpret(&stream_program(cfg, None), &map_with_arena(), &snitch(), 0);
        assert!(r
            .diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::ZeroBound { ssr: SsrId::Ssr0 })));
    }

    #[test]
    fn indirect_job_decodes_installed_indices() {
        // Index array at the start of "out" space, relaunched at three
        // bases: one decode, three hull checks.
        let idx_base = TCDM_BASE + 512;
        let bytes = pack_u16(&[0, 1, 2, 61]);
        let mut map = map_with_arena();
        map.tables.push((idx_base, &bytes));
        let cfg = gather(idx_base, 4, StreamDir::Read);
        let jobs: Vec<_> = [0, 8, 16]
            .map(|step| (cfg, Some((TCDM_BASE + step) as i64)))
            .into();
        let (r, walked) = both_ways(&stream_jobs(&jobs), &map, &snitch());
        assert!(r.halted);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.bank_hist.iter().sum::<u64>(), 3 * (4 + 1));
        assert_eq!(walked, 0);

        // Index 128 points past every granted region: error, and the
        // launch is walked to find where.
        let bytes2 = pack_u16(&[0, 128]);
        let mut map2 = map_with_arena();
        map2.tables.push((idx_base, &bytes2));
        let cfg2 = gather(idx_base, 2, StreamDir::Read);
        let (r2, walked2) = both_ways(
            &stream_program(cfg2, Some(TCDM_BASE as i64)),
            &map2,
            &snitch(),
        );
        assert!(r2.diags.iter().any(
            |d| matches!(d.kind, DiagKind::StreamOutOfBounds { addr, .. }
                if addr == TCDM_BASE + 1024)
        ));
        assert_eq!(walked2, 1);
    }

    #[test]
    fn commit_without_setup_and_dead_config() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::SsrCommit {
            ssrs: SsrSet::of(SsrId::Ssr1),
        });
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr2,
            cfg: Box::new(SsrCfg::Affine(AffineCfg {
                dir: StreamDir::Read,
                base: TCDM_BASE,
                dims: 1,
                strides: [8, 0, 0, 0],
                bounds: [1, 1, 1, 1],
            })),
        });
        b.push(Instr::Halt);
        let r = interpret(&b.finish().unwrap(), &map_with_arena(), &snitch(), 0);
        assert!(r
            .diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::CommitWithoutSetup { ssr: SsrId::Ssr1 })));
        assert!(r
            .diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::DeadStreamConfig { ssr: SsrId::Ssr2 })));
    }

    /// `accumulators` FMA chains, loaded from TCDM, then replayed ten
    /// times by one FREP whose body advances each chain once.
    fn fma_chains(accumulators: &[FpReg]) -> saris_isa::Program {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, TCDM_BASE as i64);
        for &acc in accumulators {
            b.push(Instr::Fld {
                rd: acc,
                base: IntReg::T0,
                imm: 0,
            });
        }
        b.push(Instr::SsrEnable);
        b.push(Instr::Frep {
            count: FrepCount::Imm(9),
            n_instrs: accumulators.len() as u8,
        });
        for &acc in accumulators {
            b.push(Instr::FpR4 {
                op: saris_isa::FpR4Op::Madd,
                rd: acc,
                rs1: FpReg::FT0,
                rs2: FpReg::FT0,
                rs3: acc,
            });
        }
        b.push(Instr::SsrDisable);
        b.push(Instr::Halt);
        b.finish().unwrap()
    }

    #[test]
    fn frep_replays_issue_in_order() {
        let cfg = snitch();
        let fma = u64::from(cfg.fpu_latency_fma);
        let r = interpret(&fma_chains(&[FpReg::FT3]), &map_with_arena(), &cfg, 0);
        assert!(r.halted);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.flops, 20, "10 replays of one FMA");
        // The load issues at 0, the first FMA at 1; each later one waits
        // for its predecessor's result through ft3.
        assert_eq!(r.fp_issue, 1 + 9 * fma + 1);

        // A second, independent chain issues in the first one's shadow:
        // twice the work for one more cycle (two loads, the second chain
        // one issue slot behind the first).
        let r = interpret(
            &fma_chains(&[FpReg::FT3, FpReg::FT4]),
            &map_with_arena(),
            &cfg,
            0,
        );
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.flops, 40);
        assert_eq!(r.fp_issue, 2 + 1 + 9 * fma + 1);
    }

    /// The FREP count register is read as unsigned, as the simulator
    /// reads it: 3 executes the body four times, -2 asks for 2^64 - 1
    /// executions and exhausts the step budget, and -1 (2^64 executions)
    /// is refused by name.
    #[test]
    fn frep_count_register_is_unsigned() {
        let run_count = |count: i64| {
            let mut b = ProgramBuilder::new();
            b.li(IntReg::T0, count);
            b.push(Instr::Frep {
                count: FrepCount::Reg(IntReg::T0),
                n_instrs: 1,
            });
            b.push(Instr::FpR {
                op: saris_isa::FpROp::Add,
                rd: FpReg::FT3,
                rs1: FpReg::FT3,
                rs2: FpReg::FT3,
            });
            b.push(Instr::Halt);
            both_ways(&b.finish().unwrap(), &map_with_arena(), &snitch()).0
        };
        let r = run_count(3);
        assert!(r.halted);
        assert_eq!(r.flops, 4);
        assert!(
            matches!(r.diags.as_slice(), [d] if matches!(d.kind, DiagKind::UseBeforeDef { .. })),
            "{:?}",
            r.diags
        );
        for (count, reason) in [
            (-2, format!("step budget ({STEP_BUDGET}) exhausted")),
            (-1, "frep body executes 2^64 times".to_string()),
        ] {
            let r = run_count(count);
            assert!(!r.halted, "{count}");
            assert_eq!(r.flops, 0, "{count}");
            assert!(
                r.diags.iter().any(|d| d.at == Some(1)
                    && matches!(&d.kind, DiagKind::NonTermination { reason: why } if *why == reason)),
                "{count}: {:?}",
                r.diags
            );
        }
    }

    // --- Every reason the hull proof declines -------------------------

    #[test]
    fn hull_across_two_adjacent_regions_is_walked_and_legal() {
        // Inside the union of "in" and "out", inside neither.
        let cfg = affine(
            StreamDir::Read,
            TCDM_BASE + 448,
            [8, 0, 0, 0],
            [16, 1, 1, 1],
        );
        let (r, walked) = both_ways(&stream_program(cfg, None), &map_with_arena(), &snitch());
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.bank_hist.iter().sum::<u64>(), 16);
        assert_eq!(walked, 1);
    }

    #[test]
    fn write_job_over_a_dma_span_reports_the_walks_first_hazard() {
        let mut map = map_with_arena();
        map.dma_writes.push((TCDM_BASE + 512 + 68, 40));
        let out = TCDM_BASE + 512;
        // Rows of 4 walked backwards: the first element *in job order*
        // inside the span is row 2's last, not the span's lowest address.
        let cfg = affine(StreamDir::Write, out + 24, [-8, 32, 0, 0], [4, 8, 1, 1]);
        let (r, walked) = both_ways(&stream_program(cfg, None), &map, &snitch());
        let hazards: Vec<u64> = r
            .diags
            .iter()
            .filter_map(|d| match d.kind {
                DiagKind::DmaHazard { addr } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(hazards, [out + 88], "{:?}", r.diags);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(walked, 1);

        // The same job beside the span is proven.
        let mut beside = map_with_arena();
        beside.dma_writes.push((out + 256, 64));
        let (r, walked) = both_ways(&stream_program(cfg, None), &beside, &snitch());
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(walked, 0);

        // A scatter through an index array meets the span the same way.
        let bytes = pack_u16(&[12, 2, 11, 3]);
        let mut map = map_with_arena();
        map.tables.push((TCDM_BASE, &bytes));
        map.dma_writes.push((out + 80, 16));
        let cfg = gather(TCDM_BASE, 4, StreamDir::Write);
        let (r, walked) = both_ways(&stream_program(cfg, Some(out as i64)), &map, &snitch());
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert!(matches!(r.diags[0].kind, DiagKind::DmaHazard { addr } if addr == out + 88));
        assert_eq!(walked, 1);
    }

    #[test]
    fn hull_partly_outside_tcdm_counts_only_tcdm_banks() {
        let cfg = snitch();
        let tcdm_end = TCDM_BASE + cfg.tcdm_bytes as u64;
        let mut map = MemoryMap::default();
        map.grant("edge", tcdm_end - 64, 128, true);
        let job = affine(StreamDir::Write, tcdm_end - 64, [8, 0, 0, 0], [16, 1, 1, 1]);
        let (r, walked) = both_ways(&stream_program(job, None), &map, &cfg);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.bank_hist.iter().sum::<u64>(), 8, "8 of 16 are in TCDM");
        assert_eq!(walked, 1);
    }

    #[test]
    fn non_power_of_two_bank_count_takes_the_modulo() {
        let mut cfg = snitch();
        cfg.tcdm_banks = 24;
        let job = affine(StreamDir::Read, TCDM_BASE + 8, [16, 0, 0, 0], [30, 1, 1, 1]);
        let (r, walked) = both_ways(&stream_program(job, None), &map_with_arena(), &cfg);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        let mut want = vec![0u64; 24];
        for k in 0..30 {
            want[(1 + 2 * k) % 24] += 1;
        }
        assert_eq!(r.bank_hist, want);
        assert_eq!(walked, 1);
    }

    #[test]
    fn uncovered_index_array_is_unresolved_exactly_once() {
        let idx_base = TCDM_BASE + 512;
        let cfg = gather(idx_base, 4, StreamDir::Read);
        // No image at all, and an image that stops after two entries.
        let short = pack_u16(&[1, 2]);
        let mut half = map_with_arena();
        half.tables.push((idx_base, &short));
        for (map, elems) in [(map_with_arena(), 0), (half, 2)] {
            let (r, walked) = both_ways(
                &stream_program(cfg, Some(TCDM_BASE as i64)),
                &map,
                &snitch(),
            );
            let unresolved = r
                .diags
                .iter()
                .filter(|d| matches!(d.kind, DiagKind::UnresolvedValue { .. }))
                .count();
            assert_eq!(unresolved, 1, "{:?}", r.diags);
            assert_eq!(r.diags.len(), 1);
            assert_eq!(r.bank_hist.iter().sum::<u64>(), 1 + elems);
            assert_eq!(walked, 1);
        }
        // An earlier image shadowing part of the array decides those
        // bytes, as it does for the walk.
        let (full, shadow) = (pack_u16(&[1, 2, 3, 4]), pack_u16(&[60]));
        let mut map = map_with_arena();
        map.tables.push((idx_base + 4, &shadow));
        map.tables.push((idx_base, &full));
        let (r, walked) = both_ways(
            &stream_program(cfg, Some(TCDM_BASE as i64)),
            &map,
            &snitch(),
        );
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.bank_hist[60 % 32], 1, "entry 2 read from the shadow");
        assert_eq!(walked, 1);
    }

    #[test]
    fn overlapping_regions_first_match_decides_the_permission() {
        let job = affine(
            StreamDir::Write,
            TCDM_BASE + 256,
            [8, 0, 0, 0],
            [8, 1, 1, 1],
        );
        let grants = [("ro", TCDM_BASE, false), ("window", TCDM_BASE + 128, true)];
        for (order, clean) in [([0, 1], false), ([1, 0], true)] {
            let mut map = MemoryMap::default();
            for (name, base, writable) in order.map(|g| grants[g]) {
                map.grant(name, base, 512, writable);
            }
            let (r, walked) = both_ways(&stream_program(job, None), &map, &snitch());
            assert_eq!(r.diags.is_empty(), clean, "{order:?}: {:?}", r.diags);
            if !clean {
                assert!(matches!(
                    r.diags[0].kind,
                    DiagKind::StreamOutOfBounds { addr, .. } if addr == TCDM_BASE + 256
                ));
            }
            assert_eq!(walked, 1);
        }
    }

    #[test]
    fn capped_job_is_judged_by_hull_or_corners_and_adds_no_banks() {
        // 2^23 elements over 8 addresses: inside one region (proven), and
        // with its far corner one past the arena (corner check).
        for (bound0, escapes) in [(8, false), (129, true)] {
            let job = affine(
                StreamDir::Read,
                TCDM_BASE,
                [8, 0, 0, 0],
                [bound0, 1 << 10, 1 << 10, 1],
            );
            let (r, walked) = both_ways(&stream_program(job, None), &map_with_arena(), &snitch());
            assert_eq!(r.bank_hist.iter().sum::<u64>(), 0);
            assert_eq!(walked, u64::from(escapes));
            match r.diags.as_slice() {
                [] => assert!(!escapes),
                [d] => assert!(
                    escapes
                        && matches!(d.kind, DiagKind::StreamOutOfBounds { addr, .. }
                            if addr == TCDM_BASE + 1024)
                ),
                more => panic!("{more:?}"),
            }
        }
    }

    // --- Totality and the proof/walk equivalence ----------------------

    /// A finding or a clean report, never a panic: address arithmetic
    /// wraps like the hardware's, in debug builds too.
    #[test]
    fn hostile_immediates_strides_and_bases_never_panic() {
        let t0_max = Instr::Li {
            rd: IntReg::T0,
            imm: i64::MAX,
        };
        let scalar =
            |access: Instr| Program::from_raw_instrs(vec![t0_max.clone(), access, Instr::Halt]);
        let (t0, t1, ft3) = (IntReg::T0, IntReg::T1, FpReg::FT3);
        let programs = [
            scalar(Instr::Addi {
                rd: t0,
                rs1: t0,
                imm: 1,
            }),
            scalar(Instr::Lw {
                rd: t1,
                base: t0,
                imm: 8,
            }),
            scalar(Instr::Sw {
                rs2: t0,
                base: t0,
                imm: 2047,
            }),
            scalar(Instr::Fld {
                rd: ft3,
                base: t0,
                imm: i32::MAX,
            }),
            scalar(Instr::Fsd {
                rs2: ft3,
                base: t0,
                imm: 8,
            }),
            scalar(Instr::Slli {
                rd: t0,
                rs1: t0,
                shamt: 255,
            }),
            Program::from_raw_instrs(vec![
                t0_max.clone(),
                Instr::Frep {
                    count: FrepCount::Reg(t0),
                    n_instrs: 1,
                },
                Instr::Fld {
                    rd: ft3,
                    base: t0,
                    imm: 0,
                },
                Instr::Halt,
            ]),
        ];
        for program in &programs {
            let (r, _) = both_ways(program, &map_with_arena(), &snitch());
            assert!(r.halted || !r.diags.is_empty());
        }

        let jobs = [
            (
                affine(
                    StreamDir::Write,
                    u64::MAX,
                    [i64::MAX, i64::MIN, -1, 8],
                    [3, 3, 3, 3],
                ),
                None,
            ),
            (
                affine(StreamDir::Read, u64::MAX - 7, [8, 0, 0, 0], [2, 1, 1, 1]),
                None,
            ),
            (
                affine(
                    StreamDir::Read,
                    TCDM_BASE,
                    [i64::MIN, i64::MIN, 0, 0],
                    [u32::MAX; 4],
                ),
                None,
            ),
            (
                affine(StreamDir::Write, 0, [-8, 0, 0, 0], [2, 1, 1, 1]),
                Some(i64::MIN),
            ),
            (
                SsrCfg::Affine(AffineCfg {
                    dir: StreamDir::Read,
                    base: TCDM_BASE,
                    dims: 9,
                    strides: [8; 4],
                    bounds: [2; 4],
                }),
                Some(i64::MAX),
            ),
            (gather(u64::MAX - 3, 16, StreamDir::Read), Some(i64::MAX)),
            (gather(TCDM_BASE, 4, StreamDir::Write), Some(-8)),
            (
                SsrCfg::Indirect(IndirectCfg {
                    dir: StreamDir::Read,
                    idx_base: TCDM_BASE,
                    idx_count: 4,
                    idx_width: IndexWidth::U32,
                    shift: 200,
                }),
                Some(TCDM_BASE as i64),
            ),
        ];
        let image = [0xffu8; 16];
        let mut map = map_with_arena();
        map.tables.push((TCDM_BASE, &image));
        map.tables.push((u64::MAX - 7, &image));
        map.grant("top", u64::MAX - 63, 64, true);
        map.dma_writes.push((u64::MAX - 15, 64));
        for job in jobs {
            let (r, _) = both_ways(&stream_jobs(&[job]), &map, &snitch());
            assert!(r.halted, "{job:?}: {:?}", r.diags);
        }
    }

    /// The tests' only randomness, seeded.
    type Rng = saris_core::rng::SplitMix64;

    trait Pick {
        fn pick<T: Copy>(&mut self, from: &[T]) -> T;
    }

    impl Pick for Rng {
        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }
    }

    /// Property: over seeded random jobs — affine and indirect, both
    /// directions, straddling regions, DMA spans and the TCDM edge — the
    /// proving interpreter and the walking one produce the same analysis,
    /// and the proof is not vacuous (a good share of jobs is proven).
    #[test]
    fn proof_and_walk_agree_on_random_jobs() {
        let cfg = snitch();
        let tcdm_end = TCDM_BASE + cfg.tcdm_bytes as u64;
        let indices: Vec<u8> = {
            let mut rng = Rng::new(7);
            (0..64).map(|_| rng.below(48) as u8).collect()
        };
        let mut map = MemoryMap::default();
        map.grant("in", TCDM_BASE, 2048, false);
        map.grant("out", TCDM_BASE + 2048, 2048, true);
        map.grant("idx", TCDM_BASE + 8192, 64, false);
        map.grant("edge", tcdm_end - 256, 512, true);
        map.tables.push((TCDM_BASE + 8192, &indices));
        map.dma_writes.push((TCDM_BASE + 3072, 256));
        let dirs = [StreamDir::Read, StreamDir::Write];
        let bases = [
            TCDM_BASE,
            TCDM_BASE + 1024,
            TCDM_BASE + 2048,
            TCDM_BASE + 2560,
            TCDM_BASE + 3328,
            tcdm_end - 256,
            tcdm_end - 64,
        ];
        let strides = [8, 8, 8, 16, 64, 256, -8, -64, 0, 4, 12];
        let mut rng = Rng::new(1);
        let (mut jobs_run, mut jobs_walked) = (0, 0);
        for _ in 0..400 {
            let jobs: Vec<(SsrCfg, Option<i64>)> = (0..4)
                .map(|_| {
                    let (dir, base) = (rng.pick(&dirs), rng.pick(&bases) + 8 * rng.below(24));
                    if rng.below(3) == 0 {
                        let cfg = SsrCfg::Indirect(IndirectCfg {
                            dir,
                            idx_base: TCDM_BASE + 8192 + rng.below(40),
                            idx_count: 1 + rng.below(24) as u32,
                            idx_width: rng.pick(&[IndexWidth::U8, IndexWidth::U16]),
                            shift: rng.pick(&[3, 3, 3, 2, 4]),
                        });
                        (cfg, Some(base as i64))
                    } else {
                        let cfg = SsrCfg::Affine(AffineCfg {
                            dir,
                            base,
                            dims: 1 + rng.below(4) as u8,
                            strides: [(); 4].map(|()| rng.pick(&strides)),
                            bounds: [(); 4].map(|()| 1 + rng.below(6) as u32),
                        });
                        (cfg, (rng.below(4) == 0).then(|| 8 * rng.below(16) as i64))
                    }
                })
                .collect();
            let (_, walked) = both_ways(&stream_jobs(&jobs), &map, &cfg);
            jobs_run += jobs.len() as u64;
            jobs_walked += walked;
        }
        assert!(
            jobs_walked * 4 > jobs_run && jobs_walked * 4 < jobs_run * 3,
            "{jobs_walked} of {jobs_run} jobs walked: the mix no longer tests both paths"
        );
    }

    /// A random FP op: every latency class, a load or a store (through
    /// `bases`: a region it may access, one it may not or one it cannot
    /// write, an unknown and an undefined register), over `regs`.
    fn random_fp_op(rng: &mut Rng, regs: &[FpReg], bases: &[IntReg]) -> Instr {
        let [rd, rs1, rs2, rs3] = [(); 4].map(|()| rng.pick(regs));
        let imm = 8 * rng.below(8) as i32;
        match rng.below(8) {
            0 | 1 => Instr::FpR {
                op: rng.pick(&[
                    saris_isa::FpROp::Add,
                    saris_isa::FpROp::Sub,
                    saris_isa::FpROp::Mul,
                    saris_isa::FpROp::Div,
                    saris_isa::FpROp::Min,
                    saris_isa::FpROp::Max,
                ]),
                rd,
                rs1,
                rs2,
            },
            2 | 3 => Instr::FpR4 {
                op: rng.pick(&[
                    saris_isa::FpR4Op::Madd,
                    saris_isa::FpR4Op::Msub,
                    saris_isa::FpR4Op::Nmadd,
                    saris_isa::FpR4Op::Nmsub,
                ]),
                rd,
                rs1,
                rs2,
                rs3,
            },
            4 => Instr::FpU {
                op: rng.pick(&[
                    saris_isa::FpUOp::Mv,
                    saris_isa::FpUOp::Abs,
                    saris_isa::FpUOp::Neg,
                    saris_isa::FpUOp::Sqrt,
                ]),
                rd,
                rs1,
            },
            5 | 6 => Instr::Fld {
                rd,
                base: rng.pick(bases),
                imm,
            },
            _ => Instr::Fsd {
                rs2: rs1,
                base: rng.pick(bases),
                imm,
            },
        }
    }

    /// Property: over seeded random FREP bodies of 1-8 ops — every latency
    /// class, plain and stream-capable registers with SSRs on and off,
    /// loads and stores in and out of bounds and under a stream write's
    /// span, reads of registers nothing wrote, 1-300 reps, straight-line
    /// ops reading the body's results afterwards — the interpreter that
    /// extrapolates periodic FREPs and the one that executes every rep
    /// produce the same analysis, and most FREPs are extrapolated.
    #[test]
    fn extrapolated_and_stepped_freps_agree() {
        let cfg = snitch();
        let map = map_with_arena();
        let (t0, t1, t2, t3, t4) = (IntReg::T0, IntReg::T1, IntReg::T2, IntReg::T3, IntReg::T4);
        // "in" (read-only), "out" (read-write), unmapped, unknown; t4 is
        // never written. Rare picks of the last three keep most bodies
        // free of findings.
        let bases = [t0, t0, t0, t1, t1, t1, t1, t2, t3, t4];
        let regs: Vec<FpReg> = (0..8).map(|i| FpReg::new(i).unwrap()).collect();
        let mut rng = Rng::new(3);
        let (mut freps, mut extrapolated) = (0, 0);
        for case in 0..600 {
            let mut instrs = vec![
                Instr::Li {
                    rd: t0,
                    imm: TCDM_BASE as i64,
                },
                Instr::Li {
                    rd: t1,
                    imm: (TCDM_BASE + 512) as i64,
                },
                Instr::Li {
                    rd: t2,
                    imm: (TCDM_BASE + 4096) as i64,
                },
                Instr::Lw {
                    rd: t3,
                    base: t0,
                    imm: 0,
                },
            ];
            // A stream write over the first 64 bytes of "out": every
            // store there is a write hazard, once per execution.
            if rng.below(2) == 0 {
                instrs.push(Instr::SsrSetup {
                    ssr: SsrId::Ssr2,
                    cfg: Box::new(affine(
                        StreamDir::Write,
                        TCDM_BASE + 512,
                        [8, 0, 0, 0],
                        [8, 1, 1, 1],
                    )),
                });
                instrs.push(Instr::SsrCommit {
                    ssrs: SsrSet::of(SsrId::Ssr2),
                });
            }
            for &reg in &regs {
                if rng.below(3) != 0 {
                    instrs.push(Instr::Fld {
                        rd: reg,
                        base: t0,
                        imm: 0,
                    });
                }
            }
            let ssr = rng.below(2) == 0;
            if ssr {
                instrs.push(Instr::SsrEnable);
            }
            for _ in 0..1 + rng.below(2) {
                let n_instrs = 1 + rng.below(8) as u8;
                instrs.push(Instr::Frep {
                    count: FrepCount::Imm(rng.below(300) as u32),
                    n_instrs,
                });
                for _ in 0..n_instrs {
                    instrs.push(random_fp_op(&mut rng, &regs, &bases));
                }
                for _ in 0..rng.below(4) {
                    instrs.push(random_fp_op(&mut rng, &regs, &bases));
                }
                freps += 1;
            }
            if ssr {
                instrs.push(Instr::SsrDisable);
            }
            instrs.push(Instr::Halt);
            let program = Program::from_raw_instrs(instrs);
            let (stepped, ..) = run(&program, &map, &cfg, 0, true);
            let (fast, _, n) = run(&program, &map, &cfg, 0, false);
            assert_eq!(
                fast, stepped,
                "case {case}: extrapolation changed an answer\n{program}"
            );
            assert!(stepped.halted, "case {case}: {:?}", stepped.diags);
            extrapolated += n;
        }
        assert!(
            extrapolated * 2 > freps,
            "{extrapolated} of {freps} FREPs extrapolated: the mix no longer tests the closed form"
        );
    }
}
