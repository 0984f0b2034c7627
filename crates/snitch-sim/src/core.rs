//! One Snitch core: single-issue integer pipeline plus its FP subsystem
//! and three SSSR streamers.
//!
//! The integer core issues at most one instruction per cycle. FP
//! instructions are *offloaded* to the [`FpSubsystem`] (stalling only when
//! its queue is full), so integer and FP work proceed concurrently —
//! Snitch's pseudo-dual-issue. Stream launches (`ssr_setbase` /
//! `ssr_commit`) execute on the integer side and stall only when a
//! streamer's launch queue is full, which lets launches run ahead of the
//! FPU exactly as in the paper's Listing 1d loop.
//!
//! # Hot-loop invariants
//!
//! Cores execute from a pre-decoded [`ExecTable`] (see
//! [`crate::decode`]): fetching an instruction is a by-value copy of
//! three words from a dense array — no per-cycle clone, no operand
//! `Vec`s, and the `ssr_setup` payload stays behind in the table's side
//! array. [`Core::step`] performs no heap allocation in any state.
//!
//! # Fast-forwarding
//!
//! With [`ClusterConfig::fast_forward`] set, an instruction that cannot
//! issue because of another unit's state leaves the pipeline *blocked*
//! on that state instead of ready. A blocked cycle re-checks the one
//! condition and books the same stall; it does not revisit the
//! instruction cache (the stepped path would not either: the line was
//! fetched on the first visit to this pc), fetch the op, or dispatch on
//! it. The conditions are the ones `execute` tests first for that op,
//! so the counter is the one it would have booked:
//!
//! * FP offload (`fld`/`fsd`/arithmetic) — the offload queue is full;
//! * `frep` — the queue is full or a body capture is open;
//! * `ssr_commit` — some named streamer's launch queue is full (that
//!   every named streamer is configured was checked when the block was
//!   recorded, and a streamer is never unconfigured);
//! * `ssr_disable` — the FP subsystem has not drained.
//!
//! The FP subsystem and the streamers step before the integer pipeline
//! within a cycle, so a slot they free is seen, and used, in the same
//! cycle — blocked or not. Waiting on a stream to drain stays on the
//! stepped path: it watches for a stuck stream every cycle.
//!
//! [`ClusterConfig::fast_forward`]: crate::config::ClusterConfig::fast_forward

use std::sync::Arc;

use saris_isa::FrepCount;

use crate::config::ClusterConfig;
use crate::decode::{ExecTable, Op};
use crate::error::SimError;
use crate::fpu::FpSubsystem;
use crate::icache::ICache;
use crate::mem::{MemOp, MemPort, MemReq};
use crate::ssr::Streamer;

/// Integer-side stall counters (cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntStalls {
    /// FP offload queue full.
    pub offload_full: u64,
    /// Stream launch queue full at `ssr_commit`.
    pub launch_full: u64,
    /// Waiting on integer loads/stores (includes TCDM conflicts).
    pub lsu: u64,
    /// Instruction-cache miss wait.
    pub icache: u64,
    /// Taken-branch bubbles.
    pub branch: u64,
    /// Waiting for streams to drain (`ssr_disable` / reconfiguration).
    pub drain: u64,
    /// Extra cycles of multi-cycle issues (`li` pairs, `ssr_setup`).
    pub multi_issue: u64,
}

/// Integer-side activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntStats {
    /// Integer instructions retired (FP offloads count on the FP side).
    pub retired: u64,
    /// Stall breakdown.
    pub stalls: IntStalls,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntState {
    Ready,
    /// Busy until the given cycle (exclusive).
    StallUntil(u64),
    /// Waiting for an integer load's data.
    WaitLoad {
        rd: saris_isa::IntReg,
    },
    /// Waiting for an integer store's grant.
    WaitStore,
    /// Ready, except that the instruction at `pc` is known not to issue
    /// while the condition holds (fast-forwarding only; see the module
    /// docs).
    Blocked(Block),
    Halted,
}

/// What keeps the instruction at `pc` from issuing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// `FpSubsystem::can_offload` is false.
    Offload,
    /// `FpSubsystem::can_accept_frep` is false.
    Frep,
    /// One of these streamers cannot be armed.
    Launch(saris_isa::SsrSet),
    /// `FpSubsystem::is_drained` is false.
    FpDrain,
}

/// What the integer pipeline will do next, as seen by the cluster's
/// fast-forward scan (see [`Cluster::run`](crate::Cluster::run)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreWake {
    /// Halted: never does anything again.
    Never,
    /// Stalled: provably inert strictly before the given cycle.
    At(u64),
    /// Ready or waiting on memory: may act next cycle.
    Active,
}

/// One core: integer pipeline, FP subsystem, streamers, LSU port.
#[derive(Debug)]
pub struct Core {
    /// Core index within the cluster.
    pub id: usize,
    table: Arc<ExecTable>,
    pc: usize,
    regs: [u64; 32],
    state: IntState,
    ssr_enabled: bool,
    fetched_pc: Option<usize>,
    /// The FP subsystem.
    pub fp: FpSubsystem,
    /// The three SSSR streamers.
    pub streamers: [Streamer; 3],
    /// Integer load/store TCDM port.
    pub lsu_port: MemPort,
    /// Integer-side counters.
    pub stats: IntStats,
    /// Cycle at which this core halted (for imbalance analysis).
    pub halted_at: Option<u64>,
    /// Which of this core's ports held a request after its last step, in
    /// arbitration order: integer LSU, FP LSU, streamers 0..2.
    pub(crate) pending_ports: u8,
    /// Whether stalls may leave the pipeline [`IntState::Blocked`].
    fast_forward: bool,
}

impl Core {
    /// Creates a core executing the decoded `table` from pc 0.
    ///
    /// Tables are shareable: load the same `Arc` onto every core to decode
    /// a program once (see
    /// [`Cluster::load_program_all`](crate::Cluster::load_program_all)).
    pub fn new(id: usize, table: Arc<ExecTable>, cfg: &ClusterConfig) -> Core {
        let fp = FpSubsystem::with_frep_bound(cfg, table.max_frep_body());
        Core {
            id,
            table,
            pc: 0,
            regs: [0; 32],
            state: IntState::Ready,
            ssr_enabled: false,
            fetched_pc: None,
            fp,
            streamers: [Streamer::new(cfg), Streamer::new(cfg), Streamer::new(cfg)],
            lsu_port: MemPort::new(),
            stats: IntStats::default(),
            halted_at: None,
            pending_ports: 0,
            fast_forward: cfg.fast_forward,
        }
    }

    /// Returns the core to the state [`Core::new`] builds for `table`,
    /// keeping the storage of its FP subsystem and streamers.
    pub(crate) fn reload(&mut self, table: Arc<ExecTable>, cfg: &ClusterConfig) {
        let Core {
            id: _,
            table: loaded,
            pc,
            regs,
            state,
            ssr_enabled,
            fetched_pc,
            fp,
            streamers,
            lsu_port,
            stats,
            halted_at,
            pending_ports,
            fast_forward: _,
        } = self;
        fp.reload(cfg, table.max_frep_body());
        *loaded = table;
        *pc = 0;
        *regs = [0; 32];
        *state = IntState::Ready;
        *ssr_enabled = false;
        *fetched_pc = None;
        streamers.iter_mut().for_each(Streamer::reload);
        *lsu_port = MemPort::new();
        *stats = IntStats::default();
        *halted_at = None;
        *pending_ports = 0;
    }

    /// Whether the core has executed `halt`.
    pub fn is_halted(&self) -> bool {
        matches!(self.state, IntState::Halted)
    }

    /// Whether the core and all its units are fully quiescent.
    pub fn is_quiescent(&self) -> bool {
        self.is_halted()
            && self.fp.is_drained()
            && self.streamers.iter().all(Streamer::is_drained)
            && self.lsu_port.is_idle()
    }

    /// The integer pipeline's next-action classification for the
    /// fast-forward scan.
    pub(crate) fn wake(&self) -> CoreWake {
        match self.state {
            IntState::Halted => CoreWake::Never,
            IntState::StallUntil(t) => CoreWake::At(t),
            IntState::Ready
            | IntState::Blocked(_)
            | IntState::WaitLoad { .. }
            | IntState::WaitStore => CoreWake::Active,
        }
    }

    /// Host write of an integer register (kernel arguments).
    pub fn set_reg(&mut self, r: saris_isa::IntReg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    /// Host read of an integer register.
    pub fn reg(&self, r: saris_isa::IntReg) -> u64 {
        self.regs[r.index() as usize]
    }

    /// The current program counter (diagnostics).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// One-line state summary for timeout diagnostics.
    pub fn state_summary(&self) -> String {
        // A blocked pipeline is a ready one that knows what the next
        // cycle will find; the summary does not depend on fast-forwarding.
        let state = match self.state {
            IntState::Blocked(_) => IntState::Ready,
            state => state,
        };
        format!(
            "core {} pc={} state={:?} fp_drained={} streams_drained={:?}",
            self.id,
            self.pc,
            state,
            self.fp.is_drained(),
            [
                self.streamers[0].is_drained(),
                self.streamers[1].is_drained(),
                self.streamers[2].is_drained()
            ]
        )
    }

    /// Advances the whole core by one cycle: streamers, FP subsystem,
    /// then the integer pipeline.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`]s from any unit.
    pub fn step(&mut self, now: u64, icache: &mut ICache) -> Result<(), SimError> {
        for s in &mut self.streamers {
            s.step_if_awake();
        }
        self.fp
            .step(now, self.id, self.ssr_enabled, &mut self.streamers)?;
        self.step_int(now, icache)?;
        let ports = [
            &self.lsu_port,
            &self.fp.lsu_port,
            &self.streamers[0].port,
            &self.streamers[1].port,
            &self.streamers[2].port,
        ];
        self.pending_ports = 0;
        for (slot, port) in ports.into_iter().enumerate() {
            self.pending_ports |= u8::from(port.is_pending()) << slot;
        }
        Ok(())
    }

    /// The port at arbitration slot `slot` (see `pending_ports`).
    pub(crate) fn port_mut(&mut self, slot: usize) -> &mut MemPort {
        match slot {
            0 => &mut self.lsu_port,
            1 => &mut self.fp.lsu_port,
            _ => &mut self.streamers[slot - 2].port,
        }
    }

    /// Records that the instruction at `pc` stalled on `block` this
    /// cycle.
    fn stalled_on(&mut self, block: Block) {
        *self.stall_counter(block) += 1;
        if self.fast_forward {
            self.state = IntState::Blocked(block);
        }
    }

    fn stall_counter(&mut self, block: Block) -> &mut u64 {
        match block {
            Block::Offload | Block::Frep => &mut self.stats.stalls.offload_full,
            Block::Launch(_) => &mut self.stats.stalls.launch_full,
            Block::FpDrain => &mut self.stats.stalls.drain,
        }
    }

    fn still_blocked(&self, block: Block) -> bool {
        match block {
            Block::Offload => !self.fp.can_offload(),
            Block::Frep => !self.fp.can_accept_frep(),
            Block::Launch(ssrs) => !ssrs.iter().all(|s| self.streamers[s.index()].can_arm()),
            Block::FpDrain => !self.fp.is_drained(),
        }
    }

    fn step_int(&mut self, now: u64, icache: &mut ICache) -> Result<(), SimError> {
        match self.state {
            IntState::Halted => return Ok(()),
            IntState::StallUntil(t) => {
                if now < t {
                    return Ok(());
                }
                self.state = IntState::Ready;
            }
            IntState::WaitLoad { rd } => {
                if let Some(resp) = self.lsu_port.take_completed() {
                    self.set_reg(rd, resp.data);
                    // Resume next cycle (writeback).
                    self.state = IntState::StallUntil(now + 1);
                } else {
                    self.stats.stalls.lsu += 1;
                }
                return Ok(());
            }
            IntState::WaitStore => {
                if self.lsu_port.take_completed().is_some() {
                    self.state = IntState::StallUntil(now + 1);
                } else {
                    self.stats.stalls.lsu += 1;
                }
                return Ok(());
            }
            IntState::Blocked(block) => {
                if self.still_blocked(block) {
                    *self.stall_counter(block) += 1;
                    return Ok(());
                }
                self.state = IntState::Ready;
            }
            IntState::Ready => {}
        }
        // Instruction fetch through the shared I$ (once per pc visit).
        if self.fetched_pc != Some(self.pc) {
            let wait = icache.fetch(self.pc, now);
            self.fetched_pc = Some(self.pc);
            if wait > 0 {
                self.stats.stalls.icache += wait as u64;
                self.state = IntState::StallUntil(now + wait as u64);
                return Ok(());
            }
        }
        // By-value fetch from the dense decoded table: no clone, no
        // allocation, no borrow held across execution.
        let op = self.table.get(self.pc).ok_or(SimError::PcOutOfRange {
            core: self.id,
            pc: self.pc,
        })?;
        self.execute(op, now)
    }

    fn advance(&mut self) {
        self.pc += 1;
        self.fetched_pc = None;
        self.stats.retired += 1;
    }

    fn reg_i(&self, r: saris_isa::IntReg) -> u64 {
        self.regs[r.index() as usize]
    }

    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, op: Op, now: u64) -> Result<(), SimError> {
        match op {
            Op::Li { rd, imm, cost } => {
                self.set_reg(rd, imm as u64);
                if cost > 1 {
                    self.stats.stalls.multi_issue += (cost - 1) as u64;
                    self.state = IntState::StallUntil(now + cost as u64);
                }
                self.advance();
            }
            Op::Addi { rd, rs1, imm } => {
                let v = self.reg_i(rs1).wrapping_add(imm as i64 as u64);
                self.set_reg(rd, v);
                self.advance();
            }
            Op::Add { rd, rs1, rs2 } => {
                let v = self.reg_i(rs1).wrapping_add(self.reg_i(rs2));
                self.set_reg(rd, v);
                self.advance();
            }
            Op::Sub { rd, rs1, rs2 } => {
                let v = self.reg_i(rs1).wrapping_sub(self.reg_i(rs2));
                self.set_reg(rd, v);
                self.advance();
            }
            Op::Mul { rd, rs1, rs2 } => {
                let v = self.reg_i(rs1).wrapping_mul(self.reg_i(rs2));
                self.set_reg(rd, v);
                // Shared multiplier: 2-cycle issue.
                self.stats.stalls.multi_issue += 1;
                self.state = IntState::StallUntil(now + 2);
                self.advance();
            }
            Op::Slli { rd, rs1, shamt } => {
                let v = self.reg_i(rs1) << shamt;
                self.set_reg(rd, v);
                self.advance();
            }
            Op::Lw { rd, base, imm } => {
                if !self.lsu_port.is_idle() {
                    self.stats.stalls.lsu += 1;
                    return Ok(());
                }
                let addr = self.reg_i(base).wrapping_add(imm as i64 as u64);
                self.lsu_port.issue(MemReq {
                    addr,
                    op: MemOp::Read32,
                });
                self.state = IntState::WaitLoad { rd };
                self.advance();
            }
            Op::Sw { rs2, base, imm } => {
                if !self.lsu_port.is_idle() {
                    self.stats.stalls.lsu += 1;
                    return Ok(());
                }
                let addr = self.reg_i(base).wrapping_add(imm as i64 as u64);
                let data = self.reg_i(rs2) as u32;
                self.lsu_port.issue(MemReq {
                    addr,
                    op: MemOp::Write32(data),
                });
                self.state = IntState::WaitStore;
                self.advance();
            }
            Op::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(self.reg_i(rs1), self.reg_i(rs2));
                self.stats.retired += 1;
                self.fetched_pc = None;
                if taken {
                    self.pc = target as usize;
                    self.stats.stalls.branch += 1;
                    self.state = IntState::StallUntil(now + 2);
                } else {
                    self.pc += 1;
                }
            }
            Op::Jump { target } => {
                self.stats.retired += 1;
                self.fetched_pc = None;
                self.pc = target as usize;
                self.stats.stalls.branch += 1;
                self.state = IntState::StallUntil(now + 2);
            }
            Op::FpMem {
                is_load,
                reg,
                base,
                imm,
            } => {
                if !self.fp.can_offload() {
                    self.stalled_on(Block::Offload);
                    return Ok(());
                }
                let addr = self.reg_i(base).wrapping_add(imm as i64 as u64);
                self.fp.offload_mem(is_load, reg, addr);
                self.advance();
            }
            Op::FpArith(arith) => {
                if !self.fp.can_offload() {
                    self.stalled_on(Block::Offload);
                    return Ok(());
                }
                self.fp.offload_arith(arith);
                self.advance();
            }
            Op::Frep {
                count,
                n_instrs,
                fits,
            } => {
                if !fits {
                    return Err(SimError::FrepMisuse {
                        core: self.id,
                        reason: "frep body empty or exceeds sequencer buffer",
                    });
                }
                // The count register is read as unsigned: all ones would
                // mean 2^64 executions, which the sequencer cannot count.
                let reps = match count {
                    FrepCount::Imm(c) => c as u64,
                    FrepCount::Reg(r) => self.reg_i(r),
                };
                if reps == u64::MAX {
                    return Err(SimError::FrepMisuse {
                        core: self.id,
                        reason: "frep count register is all ones (2^64 executions)",
                    });
                }
                if !self.fp.can_accept_frep() {
                    self.stalled_on(Block::Frep);
                    return Ok(());
                }
                self.fp.offload_frep(reps, n_instrs as usize);
                self.advance();
            }
            Op::SsrEnable => {
                self.ssr_enabled = true;
                self.fp.wake();
                self.advance();
            }
            Op::SsrDisable => {
                if !self.fp.is_drained() {
                    self.stalled_on(Block::FpDrain);
                    return Ok(());
                }
                for (i, s) in self.streamers.iter().enumerate() {
                    if !s.is_drained() {
                        if s.residue() > 0 && s.port.is_idle() && self.quiescent_residue(i) {
                            return Err(SimError::StreamResidue {
                                core: self.id,
                                ssr: i,
                                left: s.residue(),
                            });
                        }
                        self.stats.stalls.drain += 1;
                        return Ok(());
                    }
                }
                self.ssr_enabled = false;
                self.advance();
            }
            Op::SsrSetup { ssr, cfg, cost } => {
                let s = &mut self.streamers[ssr.index()];
                if !s.is_drained() {
                    self.stats.stalls.drain += 1;
                    return Ok(());
                }
                s.configure(self.table.ssr_cfg(cfg));
                self.fp.wake();
                if cost > 1 {
                    self.stats.stalls.multi_issue += (cost - 1) as u64;
                    self.state = IntState::StallUntil(now + cost as u64);
                }
                self.advance();
            }
            Op::SsrSetBase { ssr, rs1 } => {
                let base = self.reg_i(rs1);
                self.streamers[ssr.index()].stage_base(base);
                self.advance();
            }
            Op::SsrCommit { ssrs } => {
                for ssr in ssrs.iter() {
                    if !self.streamers[ssr.index()].is_configured() {
                        return Err(SimError::CommitUnconfigured {
                            core: self.id,
                            ssr: ssr.index(),
                        });
                    }
                }
                if !ssrs.iter().all(|s| self.streamers[s.index()].can_arm()) {
                    self.stalled_on(Block::Launch(ssrs));
                    return Ok(());
                }
                for ssr in ssrs.iter() {
                    let armed = self.streamers[ssr.index()].arm();
                    debug_assert!(armed, "checked can_arm above");
                }
                self.advance();
            }
            Op::Nop => self.advance(),
            Op::Halt => {
                self.state = IntState::Halted;
                self.halted_at = Some(now);
                self.stats.retired += 1;
            }
        }
        Ok(())
    }

    /// Whether streamer `i` is quiescent apart from residual FIFO data
    /// (definitely stuck, as opposed to still draining).
    fn quiescent_residue(&self, i: usize) -> bool {
        let s = &self.streamers[i];
        // A write stream with queued data but no active job will never
        // drain; a read stream with unread data likewise.
        s.is_configured() && s.residue() > 0 && s.port.is_idle() && !s.can_make_progress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TCDM_BASE;
    use crate::mem::Tcdm;
    use saris_isa::{Instr, IntReg, Program, ProgramBuilder};

    fn table(program: &Program, cfg: &ClusterConfig) -> Arc<ExecTable> {
        Arc::new(ExecTable::decode(program, cfg))
    }

    fn run_core(program: Program, max_cycles: u64) -> (Core, Tcdm, u64) {
        let cfg = ClusterConfig::snitch();
        let mut tcdm = Tcdm::new(&cfg);
        let mut icache = ICache::new(&cfg);
        let mut core = Core::new(0, table(&program, &cfg), &cfg);
        let mut cycle = 0;
        while cycle < max_cycles {
            core.step(cycle, &mut icache).unwrap();
            let mut ports: Vec<&mut MemPort> = vec![&mut core.lsu_port, &mut core.fp.lsu_port];
            for s in &mut core.streamers {
                ports.push(&mut s.port);
            }
            tcdm.arbitrate(&mut ports).unwrap();
            cycle += 1;
            if core.is_quiescent() {
                break;
            }
        }
        (core, tcdm, cycle)
    }

    #[test]
    fn countdown_loop_timing() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, 8);
        let head = b.bind_here();
        b.addi(IntReg::T0, IntReg::T0, -1);
        b.bne(IntReg::T0, IntReg::ZERO, head);
        b.push(Instr::Halt);
        let (core, _, cycles) = run_core(b.finish().unwrap(), 1000);
        assert!(core.is_halted());
        assert_eq!(core.reg(IntReg::T0), 0);
        // 1 (li) + 8*(addi+bne) + 7 taken-branch bubbles + halt + icache
        // cold miss: roughly 28-45 cycles.
        assert!(cycles > 20 && cycles < 60, "cycles = {cycles}");
        // retired: li + 8 addi + 8 bne + halt = 18.
        assert_eq!(core.stats.retired, 18);
    }

    #[test]
    fn int_store_load_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, TCDM_BASE as i64);
        b.li(IntReg::T1, 1234);
        b.push(Instr::Sw {
            rs2: IntReg::T1,
            base: IntReg::T0,
            imm: 16,
        });
        b.push(Instr::Lw {
            rd: IntReg::T2,
            base: IntReg::T0,
            imm: 16,
        });
        b.push(Instr::Halt);
        let (core, _, _) = run_core(b.finish().unwrap(), 1000);
        assert_eq!(core.reg(IntReg::T2), 1234);
    }

    #[test]
    fn fp_offload_runs_concurrently() {
        // A long FP chain offloaded while the int core keeps counting:
        // total time should be far less than the serial sum.
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, TCDM_BASE as i64);
        // Load two operands, chain 4 dependent adds, store.
        b.push(Instr::Fld {
            rd: saris_isa::FpReg::FT3,
            base: IntReg::T0,
            imm: 0,
        });
        b.push(Instr::Fld {
            rd: saris_isa::FpReg::FT4,
            base: IntReg::T0,
            imm: 8,
        });
        for _ in 0..4 {
            b.push(Instr::FpR {
                op: saris_isa::FpROp::Add,
                rd: saris_isa::FpReg::FT3,
                rs1: saris_isa::FpReg::FT3,
                rs2: saris_isa::FpReg::FT4,
            });
        }
        b.push(Instr::Fsd {
            rs2: saris_isa::FpReg::FT3,
            base: IntReg::T0,
            imm: 16,
        });
        // Meanwhile the int core counts down 20 iterations.
        b.li(IntReg::T1, 20);
        let head = b.bind_here();
        b.addi(IntReg::T1, IntReg::T1, -1);
        b.bne(IntReg::T1, IntReg::ZERO, head);
        b.push(Instr::Halt);
        let (core, tcdm, _) = run_core(b.finish().unwrap(), 2000);
        assert!(core.is_quiescent());
        // 0 + 0 initial data, so result is 0; write must have landed.
        assert_eq!(tcdm.read_u64(TCDM_BASE + 16).unwrap(), 0);
        assert_eq!(core.fp.stats.arith, 4);
        assert_eq!(core.fp.stats.loads, 2);
        assert_eq!(core.fp.stats.stores, 1);
    }

    #[test]
    fn halt_records_cycle() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Halt);
        let (core, _, _) = run_core(b.finish().unwrap(), 100);
        assert!(core.halted_at.is_some());
    }

    #[test]
    fn x0_is_immutable() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::ZERO, 42);
        b.addi(IntReg::ZERO, IntReg::ZERO, 5);
        b.push(Instr::Halt);
        let (core, _, _) = run_core(b.finish().unwrap(), 100);
        assert_eq!(core.reg(IntReg::ZERO), 0);
    }

    #[test]
    fn frep_with_register_count() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, 4); // 5 executions
        b.push(Instr::Frep {
            count: saris_isa::FrepCount::Reg(IntReg::T0),
            n_instrs: 1,
        });
        b.push(Instr::FpR {
            op: saris_isa::FpROp::Add,
            rd: saris_isa::FpReg::FT3,
            rs1: saris_isa::FpReg::FT3,
            rs2: saris_isa::FpReg::FT4,
        });
        b.push(Instr::Halt);
        let cfg = ClusterConfig::snitch();
        let mut tcdm = Tcdm::new(&cfg);
        let mut icache = ICache::new(&cfg);
        let program = b.finish().unwrap();
        let mut core = Core::new(0, table(&program, &cfg), &cfg);
        core.fp.set_reg(saris_isa::FpReg::FT4, 2.0);
        for cycle in 0..200 {
            core.step(cycle, &mut icache).unwrap();
            let mut ports: Vec<&mut MemPort> = vec![&mut core.lsu_port, &mut core.fp.lsu_port];
            for s in &mut core.streamers {
                ports.push(&mut s.port);
            }
            tcdm.arbitrate(&mut ports).unwrap();
            if core.is_quiescent() {
                break;
            }
        }
        assert_eq!(core.fp.reg(saris_isa::FpReg::FT3), 10.0);
        assert_eq!(core.fp.stats.retired, 5);
    }
}
