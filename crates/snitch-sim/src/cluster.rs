//! The cluster: cores, TCDM, shared I$, DMA, and the lockstep cycle loop.
//!
//! # Hot-loop invariants
//!
//! [`Cluster::step`] — the innermost function of every simulation — is
//! allocation-free: programs execute from pre-decoded [`ExecTable`]s,
//! every queue is a ring allocated at construction, and arbitration
//! visits the units' ports in place. Nothing on the per-cycle path
//! clones, boxes, or grows.
//!
//! Arbitration never scans for requests. Each core leaves a five-bit
//! summary of its pending ports behind when it steps (a port only
//! becomes pending in its owner's step, and a request that loses
//! arbitration is still pending when the owner next steps); the
//! cluster concatenates the summaries, adds the DMA lanes while a
//! transfer is active, and visits the set bits in rotating order.
//!
//! # Fast-forwarding
//!
//! With [`ClusterConfig::fast_forward`] set (the default) the engine
//! skips work whose outcome it already knows, at two levels. With it
//! clear, every unit is evaluated every cycle; that is the reference the
//! equivalence tests compare against, and a [`RunReport`] differs between
//! the two only in [`RunReport::cycles_fast_forwarded`].
//!
//! **Per unit.** A unit that can do nothing in a cycle except count one
//! stall records why, and until the recorded condition changes, the
//! cycles that follow book the same counter after a single re-check. The
//! guards and the argument for each live with the unit: blocked integer
//! issue in [`crate::core`], FPU stalls in [`crate::fpu`], sleeping
//! streamers in [`crate::ssr`]. The cluster adds two of its own:
//!
//! * **Parked cores.** A halted core whose FP subsystem and streamers
//!   have drained and whose LSU port is idle is never stepped again: a
//!   halted pipeline does not fetch, drained units hold no work, and
//!   nothing outside a core can hand it any. Its one per-cycle effect,
//!   the FPU's idle-stall count, is settled from the cycle it parked at
//!   whenever the counters can be observed (after [`Cluster::step`], at
//!   the end of [`Cluster::run`]).
//! * **Idle DMA.** An engine with no queued or active transfer is not
//!   stepped; its step would return at the first test.
//!
//! **Whole cluster.** [`Cluster::run`] jumps over spans in which *every*
//! unit is inert: each core is halted or stalled until a known cycle,
//! each FP subsystem is drained, each streamer has no job or request in
//! flight, no TCDM port holds a request or response, and the DMA engine
//! is idle or waiting out its main-memory burst latency. The engine then
//! jumps straight to the earliest wakeup (a stall expiry or the DMA's
//! burst-ready cycle), clamped to the cycle budget, and books the few
//! counters that tick even in dead cycles — each live FPU's idle-stall
//! count, the TCDM's rotating arbitration priority, and the DMA's
//! busy/latency cycles while latency-bound — exactly as if the span had
//! been stepped. Only these cycles count as
//! [`RunReport::cycles_fast_forwarded`]; the per-unit guards skip work,
//! not cycles.
//!
//! The equivalence is asserted across the kernel gallery in
//! `tests/fast_forward.rs` and pinned against recorded digests in
//! `tests/sim_reports.rs`.

use std::borrow::Borrow;
use std::sync::Arc;

use saris_isa::Program;

use crate::config::ClusterConfig;
use crate::core::{Core, CoreWake};
use crate::decode::ExecTable;
use crate::dma::{Dma, DmaDescriptor, DmaWake};
use crate::error::SimError;
use crate::icache::ICache;
use crate::mem::{self, MainMemory, Tcdm};
use crate::metrics::{CoreReport, RunReport};

/// TCDM ports owned by one core: integer LSU, FP LSU, three streamers.
const PORTS_PER_CORE: usize = 5;

/// A simulated Snitch cluster.
///
/// Typical host-side flow: write grids/index arrays into TCDM, load one
/// program per core (structurally identical kernels with per-core
/// operands), set argument registers, [`run`](Cluster::run), read back
/// grids and the [`RunReport`].
///
/// # Examples
///
/// ```
/// use snitch_sim::{Cluster, ClusterConfig, TCDM_BASE};
/// use saris_isa::{Instr, IntReg, ProgramBuilder};
///
/// # fn main() -> Result<(), snitch_sim::SimError> {
/// let mut cluster = Cluster::new(ClusterConfig::snitch());
/// // Every core just halts.
/// for core in 0..8 {
///     let mut b = ProgramBuilder::new();
///     b.push(Instr::Halt);
///     cluster.load_program(core, b.finish().expect("valid"));
/// }
/// let report = cluster.run(1_000)?;
/// assert!(report.cycles < 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    cycle: u64,
    tcdm: Tcdm,
    main: MainMemory,
    icache: ICache,
    cores: Vec<Core>,
    dma: Dma,
    /// The implicit one-instruction `halt` program, decoded once.
    halt_table: Arc<ExecTable>,
    /// Cores currently halted — maintained on halt transitions so the run
    /// loop's quiescence scan only happens once everything has halted.
    halted_cores: usize,
    /// Per core, the first cycle it was not stepped for being parked
    /// (see the module docs) and from which its FPU's idle stalls are
    /// still owed; `None` while the core is stepped.
    parked_since: Vec<Option<u64>>,
    /// Whether the last stepped cycle saw a TCDM request. If so, some
    /// port holds a request or an unconsumed response now, and the
    /// whole-cluster skip need not look.
    tcdm_busy: bool,
    /// Cycles [`Cluster::run`] skipped via fast-forwarding since the last
    /// reset (subset of `cycle`).
    fast_forwarded: u64,
}

impl Cluster {
    /// Creates a cluster with all cores executing an implicit `halt`.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        cfg.validate();
        let halt_table = Arc::new(ExecTable::decode(&trivial_halt(), &cfg));
        let cores = (0..cfg.n_cores)
            .map(|i| Core::new(i, Arc::clone(&halt_table), &cfg))
            .collect();
        Cluster {
            tcdm: Tcdm::new(&cfg),
            main: MainMemory::new(&cfg),
            icache: ICache::new(&cfg),
            cores,
            dma: Dma::new(&cfg),
            halt_table,
            cycle: 0,
            halted_cores: 0,
            parked_since: vec![None; cfg.n_cores],
            tcdm_busy: false,
            fast_forwarded: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Returns the cluster to its power-on state — zeroed memories,
    /// cold caches, idle DMA, every core on the implicit `halt` — while
    /// keeping the storage allocations alive.
    ///
    /// A reset cluster is indistinguishable from a freshly constructed
    /// one (same cycle counts, same reports, same output bits), which is
    /// what makes pooling clusters across kernel executions safe; see
    /// the session layer in `saris-codegen`. That includes the hot-loop
    /// scratch state added for the allocation-free cycle path: the halt
    /// counter, the parked cores, the fast-forward tally, and the TCDM
    /// grant scratch all return to power-on values.
    pub fn reset(&mut self) {
        for core in 0..self.cores.len() {
            self.load_table(core, Arc::clone(&self.halt_table));
        }
        self.tcdm.reset();
        self.main.reset();
        self.icache.reset();
        self.dma.reset();
        self.cycle = 0;
        self.tcdm_busy = false;
        self.fast_forwarded = 0;
    }

    /// Loads `program` (owned or borrowed) onto `core`, resetting the
    /// whole core, pre-decoded into the dense execution table the core
    /// runs from.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn load_program(&mut self, core: usize, program: impl Borrow<Program>) {
        let table = ExecTable::decode(program.borrow(), &self.cfg);
        self.load_table(core, Arc::new(table));
    }

    /// Loads the same program onto every core, decoding it once and
    /// sharing the execution table.
    pub fn load_program_all(&mut self, program: impl Borrow<Program>) {
        let table = Arc::new(ExecTable::decode(program.borrow(), &self.cfg));
        for core in 0..self.cores.len() {
            self.load_table(core, Arc::clone(&table));
        }
    }

    /// Returns `core` to power-on, running `table` (see [`Core::reload`]).
    fn load_table(&mut self, core: usize, table: Arc<ExecTable>) {
        self.cores[core].reload(table, &self.cfg);
        self.parked_since[core] = None;
        self.tcdm_busy = false; // only ever a reason not to look
        self.halted_cores = self.cores.iter().filter(|c| c.is_halted()).count();
    }

    /// Mutable access to a core (argument registers, FP registers).
    pub fn core_mut(&mut self, core: usize) -> &mut Core {
        &mut self.cores[core]
    }

    /// Shared access to a core.
    pub fn core(&self, core: usize) -> &Core {
        &self.cores[core]
    }

    /// Host write of an `f64` slice into TCDM.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn write_f64_slice(&mut self, addr: u64, values: &[f64]) -> Result<(), SimError> {
        self.tcdm.write_f64s(addr, values)
    }

    /// Host read of an `f64` slice from TCDM.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn read_f64_slice(&self, addr: u64, len: usize) -> Result<Vec<f64>, SimError> {
        Ok(mem::load_f64s(self.tcdm.read_bytes(addr, len * 8)?))
    }

    /// Host write of raw bytes into TCDM (index arrays).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), SimError> {
        self.tcdm.write_bytes(addr, bytes)
    }

    /// Host zero-fill of `len` `f64` elements in TCDM, without staging a
    /// zeroed buffer on the host side.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn zero_f64_slice(&mut self, addr: u64, len: usize) -> Result<(), SimError> {
        self.tcdm.zero_bytes(addr, len * 8)
    }

    /// Host write of an `f64` slice into simulated main memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn write_main_f64_slice(&mut self, addr: u64, values: &[f64]) -> Result<(), SimError> {
        self.main.write_f64s(addr, values)
    }

    /// Queues a DMA transfer (runs concurrently with compute).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadDmaDescriptor`] for malformed descriptors.
    pub fn dma_enqueue(&mut self, desc: DmaDescriptor) -> Result<(), SimError> {
        self.dma.enqueue(desc)
    }

    /// Advances the cluster one cycle.
    ///
    /// # Errors
    ///
    /// Propagates unit errors.
    pub fn step(&mut self) -> Result<(), SimError> {
        let stepped = self.step_cycle();
        self.settle_parked();
        stepped
    }

    /// One cycle of every unit that has to be evaluated (all of them
    /// unless fast-forwarding; see the module docs), then arbitration.
    /// Parked cores' idle counts are left owing.
    fn step_cycle(&mut self) -> Result<(), SimError> {
        let now = self.cycle;
        let ff = self.cfg.fast_forward;
        let mut pending: u128 = 0;
        for (c, core) in self.cores.iter_mut().enumerate() {
            if self.parked_since[c].is_some() {
                continue;
            }
            let was_halted = core.is_halted();
            core.step(now, &mut self.icache)?;
            // (Past 128 ports `arbitrate` offers every port instead.)
            pending |= u128::from(core.pending_ports)
                .checked_shl((c * PORTS_PER_CORE) as u32)
                .unwrap_or(0);
            if core.is_halted() {
                if !was_halted {
                    self.halted_cores += 1;
                }
                if ff && core.is_quiescent() {
                    self.parked_since[c] = Some(now + 1);
                }
            }
        }
        if !ff || !self.dma.is_idle() {
            self.dma.step(now, &mut self.main)?;
        }
        self.arbitrate(pending)?;
        self.cycle += 1;
        Ok(())
    }

    /// Books the FPU idle stalls parked cores owe up to the current
    /// cycle, making every public counter what stepping would have left.
    fn settle_parked(&mut self) {
        for (core, since) in self.cores.iter_mut().zip(&mut self.parked_since) {
            // (A core parked by a cycle that then faulted in arbitration
            // is parked from a cycle that never came.)
            if let Some(since) = since.as_mut().filter(|since| **since < self.cycle) {
                core.fp.skip_idle_cycles(self.cycle - *since);
                *since = self.cycle;
            }
        }
    }

    /// One TCDM arbitration cycle over the cores' pending ports
    /// (`core_pending`: five bits per core — integer LSU, FP LSU,
    /// streamers 0..2 — as the cores' steps left them) and the DMA
    /// lanes.
    ///
    /// Request-free cycles (integer phases, stall spans) only advance the
    /// rotating priority, and busy cycles offer *only* the pending ports
    /// — in the exact rotating order, reconstructed by splitting the mask
    /// at the priority start — instead of touching all
    /// `cores * 5 + lanes` ports.
    fn arbitrate(&mut self, core_pending: u128) -> Result<(), SimError> {
        let Cluster {
            tcdm, cores, dma, ..
        } = self;
        let n_core_ports = cores.len() * PORTS_PER_CORE;
        let n = n_core_ports + dma.ports.len();
        if n > 128 {
            // Oversized configurations offer every port.
            self.tcdm_busy = false;
            let start = tcdm.begin_cycle(n);
            for i in (start..n).chain(0..start) {
                tcdm.grant(port_mut(cores, dma, i))?;
            }
            return Ok(());
        }
        let mut mask = core_pending;
        if !dma.is_idle() {
            for (k, p) in dma.ports.iter().enumerate() {
                mask |= u128::from(p.is_pending()) << (n_core_ports + k);
            }
        }
        self.tcdm_busy = mask != 0;
        if mask == 0 {
            tcdm.rotate_priority();
            return Ok(());
        }
        let wrap = (1u128 << tcdm.begin_cycle(n)) - 1;
        for mut m in [mask & !wrap, mask & wrap] {
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                tcdm.grant(port_mut(cores, dma, i))?;
            }
        }
        Ok(())
    }

    /// Runs until every core is quiescent and the DMA is idle, or
    /// `max_cycles` elapse. When [`ClusterConfig::fast_forward`] is set
    /// (the default), work with a known outcome is skipped instead of
    /// evaluated — see the module docs for the exact conditions and why
    /// reports stay bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] (with a state dump) if the budget is
    /// exhausted, or any propagated unit error.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunReport, SimError> {
        let result = self.run_unsettled(max_cycles);
        self.settle_parked();
        result.map(|(cycles, skipped)| self.report(cycles, skipped))
    }

    /// The run loop; returns `(cycles, cycles fast-forwarded)`.
    fn run_unsettled(&mut self, max_cycles: u64) -> Result<(u64, u64), SimError> {
        let start = self.cycle;
        let ff_start = self.fast_forwarded;
        let budget_end = start.saturating_add(max_cycles);
        while self.cycle < budget_end {
            // The full quiescence scan only runs once every core has
            // halted (tracked incrementally on halt transitions): while
            // any core is live the cluster cannot be quiescent, so
            // per-cycle scans would be wasted work.
            if self.halted_cores == self.cores.len()
                && self.dma.is_idle()
                && self.cores.iter().all(Core::is_quiescent)
            {
                return Ok((self.cycle - start, self.fast_forwarded - ff_start));
            }
            if self.cfg.fast_forward && !self.tcdm_busy && self.try_fast_forward(budget_end) {
                continue; // re-evaluate quiescence and budget at the new cycle
            }
            self.step_cycle()?;
        }
        Err(SimError::Timeout {
            at_cycle: self.cycle,
            state: self
                .cores
                .iter()
                .map(Core::state_summary)
                .collect::<Vec<_>>()
                .join("; "),
        })
    }

    /// Attempts to jump over a span of dead cycles. Returns `true` (and
    /// advances `cycle`, booking all skipped-cycle counters) only when
    /// every unit is provably inert strictly before the computed wakeup;
    /// returns `false` when anything might act next cycle.
    fn try_fast_forward(&mut self, budget_end: u64) -> bool {
        let now = self.cycle;
        // `u64::MAX` = "no unit ever wakes" (only counters and the
        // timeout budget bound the skip).
        let mut wake = u64::MAX;
        for (core, parked) in self.cores.iter().zip(&self.parked_since) {
            if parked.is_some() {
                continue; // halted, drained, inert: what the tests below ask
            }
            match core.wake() {
                CoreWake::Never => {}
                CoreWake::At(t) => wake = wake.min(t),
                CoreWake::Active => return false,
            }
            // A live FPU or streamer may issue (or count non-idle stalls)
            // any cycle, and an outstanding port holds traffic the next
            // arbitration cycle must see: all must be inert.
            if !core.fp.is_drained() || !core.lsu_port.is_idle() {
                return false;
            }
            if !core.streamers.iter().all(crate::ssr::Streamer::is_inert) {
                return false;
            }
        }
        let mut dma_latency_bound = false;
        match self.dma.wake(now) {
            DmaWake::Idle => {}
            DmaWake::Active => return false,
            DmaWake::LatencyUntil(t) => {
                dma_latency_bound = true;
                wake = wake.min(t);
            }
        }
        let wake = wake.min(budget_end);
        if wake <= now {
            return false;
        }
        // Book everything the skipped cycles would have counted: each
        // drained FPU idles once per cycle (a parked core's is settled
        // from its parking cycle instead), the TCDM's round-robin
        // priority rotates, and a latency-bound DMA accrues busy and
        // latency time. Nothing else ticks in a dead cycle.
        let skipped = wake - now;
        for (core, parked) in self.cores.iter_mut().zip(&self.parked_since) {
            if parked.is_none() {
                core.fp.skip_idle_cycles(skipped);
            }
        }
        self.tcdm.skip_idle_cycles(skipped);
        if dma_latency_bound {
            self.dma.skip_latency_cycles(skipped);
        }
        self.fast_forwarded += skipped;
        self.cycle = wake;
        true
    }

    /// Builds the measurement report for the elapsed window.
    fn report(&self, cycles: u64, cycles_fast_forwarded: u64) -> RunReport {
        let cores = self
            .cores
            .iter()
            .map(|c| CoreReport {
                halted_at: c.halted_at.unwrap_or(cycles),
                int_stats: c.stats,
                fpu: c.fp.stats,
                streamers: [
                    c.streamers[0].stats,
                    c.streamers[1].stats,
                    c.streamers[2].stats,
                ],
                tcdm_wait_cycles: c.lsu_port.wait_cycles
                    + c.fp.lsu_port.wait_cycles
                    + c.streamers.iter().map(|s| s.port.wait_cycles).sum::<u64>(),
            })
            .collect();
        RunReport {
            cycles,
            cycles_fast_forwarded,
            cores,
            tcdm_accesses: self.tcdm.accesses,
            tcdm_conflicts: self.tcdm.conflicts,
            icache_hits: self.icache.hits,
            icache_misses: self.icache.misses,
            dma: self.dma.stats,
            freq_hz: self.cfg.freq_hz,
        }
    }
}

/// The TCDM port at flat arbitration index `i` (per core: integer LSU,
/// FP LSU, streamers 0..2; then the DMA lanes).
fn port_mut<'a>(cores: &'a mut [Core], dma: &'a mut Dma, i: usize) -> &'a mut mem::MemPort {
    let n_core_ports = cores.len() * PORTS_PER_CORE;
    if i < n_core_ports {
        cores[i / PORTS_PER_CORE].port_mut(i % PORTS_PER_CORE)
    } else {
        &mut dma.ports[i - n_core_ports]
    }
}

fn trivial_halt() -> Program {
    let mut b = saris_isa::ProgramBuilder::new();
    b.push(saris_isa::Instr::Halt);
    b.finish().expect("halt program is valid")
}

/// The same scenario on a fast-forwarding and on a stepped cluster.
#[cfg(test)]
fn ff_pair(build: &impl Fn(&mut Cluster)) -> (Cluster, Cluster) {
    let mut fast = Cluster::new(ClusterConfig::snitch());
    let mut stepped_cfg = ClusterConfig::snitch();
    stepped_cfg.fast_forward = false;
    let mut stepped = Cluster::new(stepped_cfg);
    build(&mut fast);
    build(&mut stepped);
    (fast, stepped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TCDM_BASE;
    use saris_isa::{FpR4Op, FpROp, FpReg, Instr, IntReg, ProgramBuilder, SsrId, SsrSet};

    fn halting_cluster() -> Cluster {
        Cluster::new(ClusterConfig::snitch())
    }

    #[test]
    fn empty_cluster_halts_immediately() {
        let mut c = halting_cluster();
        let r = c.run(100).unwrap();
        assert!(r.cycles < 20);
        assert_eq!(r.cores.len(), 8);
    }

    #[test]
    fn tcdm_host_access() {
        let mut c = halting_cluster();
        c.write_f64_slice(TCDM_BASE + 256, &[1.0, 2.5, -3.0])
            .unwrap();
        assert_eq!(
            c.read_f64_slice(TCDM_BASE + 256, 3).unwrap(),
            vec![1.0, 2.5, -3.0]
        );
    }

    #[test]
    fn timeout_reports_state() {
        let mut c = halting_cluster();
        let mut b = ProgramBuilder::new();
        let spin = b.bind_here();
        b.jump(spin); // never halts
        b.push(Instr::Halt);
        c.load_program(0, b.finish().unwrap());
        let err = c.run(200).unwrap_err();
        match err {
            SimError::Timeout { state, .. } => assert!(state.contains("core 0")),
            other => panic!("expected timeout, got {other}"),
        }
    }

    /// The FREP count register is read as unsigned: 3 executes the body
    /// four times, -2 asks for 2^64 - 1 executions and runs out of any
    /// cycle budget, and -1 (2^64 executions) is refused by name.
    #[test]
    fn frep_count_register_is_unsigned() {
        let run = |count: i64| {
            let mut b = ProgramBuilder::new();
            b.li(IntReg::T0, count);
            b.push(Instr::Frep {
                count: saris_isa::FrepCount::Reg(IntReg::T0),
                n_instrs: 1,
            });
            b.push(Instr::FpR {
                op: FpROp::Add,
                rd: FpReg::FT3,
                rs1: FpReg::FT3,
                rs2: FpReg::FT3,
            });
            b.push(Instr::Halt);
            let mut c = halting_cluster();
            c.load_program(0, b.finish().unwrap());
            c.run(10_000)
        };
        assert_eq!(run(3).unwrap().flops(), 4);
        assert!(matches!(run(-2), Err(SimError::Timeout { .. })));
        assert!(matches!(run(-1), Err(SimError::FrepMisuse { core: 0, .. })));
    }

    /// Loads a kernel onto core 0 that streams 8 values through SR0
    /// (indirect), adds a register constant under FREP, and writes the
    /// results through SR2 (affine); returns the output address.
    fn load_stream_kernel(c: &mut Cluster) -> u64 {
        let data = TCDM_BASE; // 8 input values
        let idx = TCDM_BASE + 512; // index array
        let out = TCDM_BASE + 1024;
        c.write_f64_slice(data, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .unwrap();
        // Indices reversed: 7,6,...,0 (u16).
        let mut idx_bytes = Vec::new();
        for i in (0..8u16).rev() {
            idx_bytes.extend_from_slice(&i.to_le_bytes());
        }
        c.write_bytes(idx, &idx_bytes).unwrap();

        let mut b = ProgramBuilder::new();
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr0,
            cfg: Box::new(saris_isa::SsrCfg::Indirect(saris_isa::IndirectCfg {
                dir: saris_isa::StreamDir::Read,
                idx_base: idx,
                idx_count: 8,
                idx_width: saris_isa::IndexWidth::U16,
                shift: 3,
            })),
        });
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr2,
            cfg: Box::new(saris_isa::SsrCfg::Affine(saris_isa::AffineCfg {
                dir: saris_isa::StreamDir::Write,
                base: out,
                dims: 1,
                strides: [8, 0, 0, 0],
                bounds: [8, 1, 1, 1],
            })),
        });
        b.push(Instr::SsrEnable);
        b.li(IntReg::T0, data as i64);
        b.push(Instr::SsrSetBase {
            ssr: SsrId::Ssr0,
            rs1: IntReg::T0,
        });
        b.push(Instr::SsrCommit {
            ssrs: SsrSet::of(SsrId::Ssr0).with(SsrId::Ssr2),
        });
        // ft4 = 100.0 constant via fld from a constant pool.
        b.li(IntReg::T1, (TCDM_BASE + 2048) as i64);
        b.push(Instr::Fld {
            rd: FpReg::FT4,
            base: IntReg::T1,
            imm: 0,
        });
        // frep 8x: ft2 = ft0 + ft4.
        b.push(Instr::Frep {
            count: saris_isa::FrepCount::Imm(7),
            n_instrs: 1,
        });
        b.push(Instr::FpR {
            op: FpROp::Add,
            rd: FpReg::FT2,
            rs1: FpReg::FT0,
            rs2: FpReg::FT4,
        });
        b.push(Instr::SsrDisable);
        b.push(Instr::Halt);
        let program = b.finish().unwrap();
        c.write_f64_slice(TCDM_BASE + 2048, &[100.0]).unwrap();
        c.load_program(0, program);
        out
    }

    /// End-to-end: the streaming kernel of [`load_stream_kernel`].
    #[test]
    fn stream_kernel_end_to_end() {
        let mut c = halting_cluster();
        let out = load_stream_kernel(&mut c);
        let r = c.run(10_000).unwrap();
        let got = c.read_f64_slice(out, 8).unwrap();
        let expect: Vec<f64> = (0..8).rev().map(|i| 100.0 + (i + 1) as f64).collect();
        assert_eq!(got, expect);
        assert_eq!(r.cores[0].fpu.arith, 8);
        assert!(r.cores[0].fpu.stream_pops >= 8);
        assert!(r.cores[0].fpu.stream_pushes >= 8);
    }

    /// Pseudo-dual issue: with FREP, FPU work overlaps integer work so
    /// per-core IPC exceeds 1.
    #[test]
    fn frep_pseudo_dual_issue_ipc() {
        let mut c = halting_cluster();
        let mut b = ProgramBuilder::new();
        // Long FP block under frep + a long int loop, overlapping.
        b.push(Instr::Frep {
            count: saris_isa::FrepCount::Imm(99),
            n_instrs: 2,
        });
        b.push(Instr::FpR4 {
            op: FpR4Op::Madd,
            rd: FpReg::FT3,
            rs1: FpReg::FT4,
            rs2: FpReg::FT5,
            rs3: FpReg::FT3,
        });
        b.push(Instr::FpR4 {
            op: FpR4Op::Madd,
            rd: FpReg::FT6,
            rs1: FpReg::FT4,
            rs2: FpReg::FT5,
            rs3: FpReg::FT6,
        });
        b.li(IntReg::T0, 100);
        let head = b.bind_here();
        b.addi(IntReg::T0, IntReg::T0, -1);
        b.bne(IntReg::T0, IntReg::ZERO, head);
        b.push(Instr::Halt);
        c.load_program(0, b.finish().unwrap());
        let r = c.run(10_000).unwrap();
        let core = &r.cores[0];
        // 200 FP retires + ~204 int retires over ~300 cycles.
        let ipc = core.ipc(core.halted_at.max(1));
        assert!(ipc > 1.05, "pseudo-dual-issue IPC = {ipc:.2}");
    }

    /// Eight cores hammering the same bank must conflict; spread across
    /// banks they must not.
    #[test]
    fn bank_conflicts_visible_in_report() {
        let build = |addr: u64| {
            let mut b = ProgramBuilder::new();
            b.li(IntReg::T0, addr as i64);
            b.li(IntReg::T1, 50);
            let head = b.bind_here();
            b.push(Instr::Fld {
                rd: FpReg::FT3,
                base: IntReg::T0,
                imm: 0,
            });
            b.addi(IntReg::T1, IntReg::T1, -1);
            b.bne(IntReg::T1, IntReg::ZERO, head);
            b.push(Instr::Halt);
            b.finish().unwrap()
        };
        // Same bank for all cores.
        let mut c1 = halting_cluster();
        for core in 0..8 {
            c1.load_program(core, build(TCDM_BASE));
        }
        let r1 = c1.run(100_000).unwrap();
        // Different banks.
        let mut c2 = halting_cluster();
        for core in 0..8 {
            c2.load_program(core, build(TCDM_BASE + core as u64 * 8));
        }
        let r2 = c2.run(100_000).unwrap();
        assert!(
            r1.tcdm_conflicts > 10 * r2.tcdm_conflicts.max(1),
            "same-bank {} vs spread {}",
            r1.tcdm_conflicts,
            r2.tcdm_conflicts
        );
    }

    /// After `reset()` the cluster repeats a run bit- and cycle-exactly,
    /// and host writes from the previous run are gone — also when a
    /// streaming kernel ran first and left its FREP sequencer, offload
    /// queue and streamers, whose storage the reset keeps, configured
    /// and counted.
    #[test]
    fn reset_matches_fresh_cluster() {
        let program = {
            let mut b = ProgramBuilder::new();
            b.li(IntReg::T0, TCDM_BASE as i64);
            b.li(IntReg::T1, 20);
            let head = b.bind_here();
            b.push(Instr::Fld {
                rd: FpReg::FT3,
                base: IntReg::T0,
                imm: 0,
            });
            b.addi(IntReg::T1, IntReg::T1, -1);
            b.bne(IntReg::T1, IntReg::ZERO, head);
            b.push(Instr::Halt);
            b.finish().unwrap()
        };
        let mut c = halting_cluster();
        c.write_f64_slice(TCDM_BASE, &[4.25]).unwrap();
        c.load_program(0, program.clone());
        let first = c.run(100_000).unwrap();
        c.reset();
        // The old payload must be gone, and an idle run must report
        // exactly what a fresh cluster's idle run reports (cold caches
        // included).
        assert_eq!(c.read_f64_slice(TCDM_BASE, 1).unwrap(), vec![0.0]);
        let idle = c.run(100).unwrap();
        let fresh_idle = halting_cluster().run(100).unwrap();
        assert_eq!(idle, fresh_idle);
        // Repeating the identical workload reproduces the identical report.
        c.reset();
        c.write_f64_slice(TCDM_BASE, &[4.25]).unwrap();
        c.load_program(0, program.clone());
        let second = c.run(100_000).unwrap();
        assert_eq!(first, second);

        let mut s = halting_cluster();
        let out = load_stream_kernel(&mut s);
        let streamed = s.run(10_000).unwrap();
        let streamed_out = s.read_f64_slice(out, 8).unwrap();
        s.reset();
        assert_eq!(s.run(100).unwrap(), fresh_idle);
        s.reset();
        assert_eq!(load_stream_kernel(&mut s), out);
        assert_eq!(s.run(10_000).unwrap(), streamed);
        assert_eq!(s.read_f64_slice(out, 8).unwrap(), streamed_out);
        // Another program after the streaming kernel runs as it does on
        // a fresh cluster.
        s.reset();
        s.write_f64_slice(TCDM_BASE, &[4.25]).unwrap();
        s.load_program(0, program);
        assert_eq!(s.run(100_000).unwrap(), first);
        // The kernel's registers are gone too: storing the constant
        // register it loaded stores power-on zero.
        let spill = {
            let mut b = ProgramBuilder::new();
            b.li(IntReg::T0, (TCDM_BASE + 8) as i64);
            b.push(Instr::Fsd {
                rs2: FpReg::FT4,
                base: IntReg::T0,
                imm: 0,
            });
            b.push(Instr::Halt);
            b.finish().unwrap()
        };
        let mut fresh = halting_cluster();
        fresh.load_program(0, spill.clone());
        let fresh_spill = fresh.run(10_000).unwrap();
        s.reset();
        load_stream_kernel(&mut s);
        s.run(10_000).unwrap();
        s.reset();
        s.load_program(0, spill);
        assert_eq!(s.run(10_000).unwrap(), fresh_spill);
        assert_eq!(s.read_f64_slice(TCDM_BASE + 8, 1).unwrap(), vec![0.0]);
    }

    /// Runs the same programs on a fast-forwarding and a stepped cluster
    /// and asserts the reports agree bit-for-bit (modulo the ff tally).
    fn assert_ff_equivalent(build: impl Fn(&mut Cluster), max_cycles: u64) -> RunReport {
        let (mut fast, mut stepped) = ff_pair(&build);
        let fast_report = fast.run(max_cycles).unwrap();
        let stepped_report = stepped.run(max_cycles).unwrap();
        assert_eq!(stepped_report.cycles_fast_forwarded, 0);
        let mut scrubbed = fast_report.clone();
        scrubbed.cycles_fast_forwarded = 0;
        assert_eq!(scrubbed, stepped_report);
        fast_report
    }

    #[test]
    fn fast_forward_skips_idle_halt_tail() {
        // Cores 1..7 halt at cycle 0 (icache hit after core 0's refill
        // insert); core 0 waits out the serialized refill. Those waits
        // are dead cycles the engine must skip — without changing the
        // report at all.
        let report = assert_ff_equivalent(|_| {}, 1_000);
        assert!(report.cycles < 20);
        assert!(
            report.cycles_fast_forwarded > 0,
            "idle refill waits should fast-forward"
        );
    }

    #[test]
    fn fast_forward_skips_dma_latency_windows() {
        let report = assert_ff_equivalent(
            |c| {
                let vals: Vec<f64> = (0..512).map(|i| i as f64).collect();
                c.write_main_f64_slice(crate::config::MAIN_BASE, &vals)
                    .unwrap();
                // Two transfers: each burst start waits out the
                // main-memory latency while every core is halted.
                c.dma_enqueue(DmaDescriptor::copy_1d(
                    crate::config::MAIN_BASE,
                    TCDM_BASE,
                    512 * 8,
                ))
                .unwrap();
                c.dma_enqueue(DmaDescriptor::copy_1d(
                    crate::config::MAIN_BASE,
                    TCDM_BASE + 8192,
                    512 * 8,
                ))
                .unwrap();
            },
            100_000,
        );
        assert_eq!(report.dma.bytes, 2 * 512 * 8);
        // Nearly every latency-wait cycle is dead time (the burst-start
        // cycle itself, where the descriptor activates, is not).
        assert!(
            report.cycles_fast_forwarded >= report.dma.latency_cycles / 2,
            "latency windows ({}) should mostly be skipped (got {})",
            report.dma.latency_cycles,
            report.cycles_fast_forwarded
        );
    }

    #[test]
    fn fast_forward_equivalent_on_compute_with_dma() {
        // The dma_overlaps_with_compute scenario, both ways.
        assert_ff_equivalent(
            |c| {
                let n = 2048;
                let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
                c.write_main_f64_slice(crate::config::MAIN_BASE, &vals)
                    .unwrap();
                c.dma_enqueue(DmaDescriptor::copy_1d(
                    crate::config::MAIN_BASE,
                    TCDM_BASE + 32 * 1024,
                    n * 8,
                ))
                .unwrap();
                let mut b = ProgramBuilder::new();
                b.push(Instr::Frep {
                    count: saris_isa::FrepCount::Imm(499),
                    n_instrs: 1,
                });
                b.push(Instr::FpR {
                    op: FpROp::Add,
                    rd: FpReg::FT3,
                    rs1: FpReg::FT4,
                    rs2: FpReg::FT3,
                });
                b.push(Instr::Halt);
                c.load_program(0, b.finish().unwrap());
            },
            100_000,
        );
    }

    /// Runs `build` to a timeout both ways: same cycle, same state dump,
    /// and the same counters behind it.
    fn assert_timeouts_identical(build: impl Fn(&mut Cluster), budget: u64) {
        let (mut fast, mut stepped) = ff_pair(&build);
        let fast_err = fast.run(budget).unwrap_err();
        let stepped_err = stepped.run(budget).unwrap_err();
        match (fast_err, stepped_err) {
            (
                SimError::Timeout {
                    at_cycle: a,
                    state: sa,
                },
                SimError::Timeout {
                    at_cycle: b,
                    state: sb,
                },
            ) => {
                assert_eq!(a, b);
                assert_eq!(sa, sb);
            }
            other => panic!("expected matching timeouts, got {other:?}"),
        }
        assert_eq!(fast.report(budget, 0), stepped.report(budget, 0));
    }

    #[test]
    fn fast_forward_timeout_is_identical() {
        // A stuck cluster (write stream with residue, no job) spins to
        // the budget; fast-forwarding must report the same timeout cycle.
        assert_timeouts_identical(
            |c| {
                let mut b = ProgramBuilder::new();
                let spin = b.bind_here();
                b.jump(spin);
                b.push(Instr::Halt);
                c.load_program(0, b.finish().unwrap());
            },
            500,
        );
        // The same with every unit asleep when the budget runs out: the
        // FPU waits on a stream nobody launched, the integer pipeline is
        // blocked behind its full queue, the streamers are inert and the
        // other seven cores are parked.
        assert_timeouts_identical(
            |c| {
                let mut b = ProgramBuilder::new();
                b.push(Instr::SsrSetup {
                    ssr: SsrId::Ssr0,
                    cfg: Box::new(saris_isa::SsrCfg::Affine(saris_isa::AffineCfg {
                        dir: saris_isa::StreamDir::Read,
                        base: TCDM_BASE,
                        dims: 1,
                        strides: [8, 0, 0, 0],
                        bounds: [4, 1, 1, 1],
                    })),
                });
                b.push(Instr::SsrEnable);
                for _ in 0..8 {
                    b.push(Instr::FpR {
                        op: FpROp::Add,
                        rd: FpReg::FT3,
                        rs1: FpReg::FT0,
                        rs2: FpReg::FT3,
                    });
                }
                b.push(Instr::Halt);
                c.load_program(0, b.finish().unwrap());
            },
            500,
        );
    }

    #[test]
    fn zero_f64_slice_clears_range() {
        let mut c = halting_cluster();
        c.write_f64_slice(TCDM_BASE + 64, &[1.0, 2.0, 3.0]).unwrap();
        c.zero_f64_slice(TCDM_BASE + 64, 2).unwrap();
        assert_eq!(
            c.read_f64_slice(TCDM_BASE + 64, 3).unwrap(),
            vec![0.0, 0.0, 3.0]
        );
        assert!(c.zero_f64_slice(TCDM_BASE + 128 * 1024 - 8, 2).is_err());
    }

    #[test]
    fn dma_overlaps_with_compute() {
        let mut c = halting_cluster();
        // Preload main memory and queue a big inbound transfer.
        let n = 2048;
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        c.write_main_f64_slice(crate::config::MAIN_BASE, &vals)
            .unwrap();
        c.dma_enqueue(DmaDescriptor::copy_1d(
            crate::config::MAIN_BASE,
            TCDM_BASE + 32 * 1024,
            n * 8,
        ))
        .unwrap();
        // One core spins on FP work meanwhile.
        let mut b = ProgramBuilder::new();
        b.push(Instr::Frep {
            count: saris_isa::FrepCount::Imm(499),
            n_instrs: 1,
        });
        b.push(Instr::FpR {
            op: FpROp::Add,
            rd: FpReg::FT3,
            rs1: FpReg::FT4,
            rs2: FpReg::FT3,
        });
        b.push(Instr::Halt);
        c.load_program(0, b.finish().unwrap());
        let r = c.run(100_000).unwrap();
        assert_eq!(r.dma.bytes, (n * 8) as u64);
        let got = c.read_f64_slice(TCDM_BASE + 32 * 1024, n).unwrap();
        assert_eq!(got, vals);
        assert!(r.dma.busy_bandwidth() > 0.0);
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;
    use crate::config::TCDM_BASE;
    use saris_isa::{FpROp, FpReg, Instr, ProgramBuilder, SsrId, SsrSet};

    /// Committing an unconfigured stream is a hard, diagnosable error.
    #[test]
    fn commit_unconfigured_stream_errors() {
        let mut c = Cluster::new(ClusterConfig::snitch());
        let mut b = ProgramBuilder::new();
        b.push(Instr::SsrCommit {
            ssrs: SsrSet::of(SsrId::Ssr0),
        });
        b.push(Instr::Halt);
        c.load_program(0, b.finish().unwrap());
        let err = c.run(1000).unwrap_err();
        assert!(matches!(
            err,
            SimError::CommitUnconfigured { core: 0, ssr: 0 }
        ));
    }

    /// A kernel that streams more data than it pops is caught at
    /// `ssr_disable` instead of silently dropping elements.
    #[test]
    fn stream_residue_detected_on_disable() {
        let mut c = Cluster::new(ClusterConfig::snitch());
        let mut b = ProgramBuilder::new();
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr0,
            cfg: Box::new(saris_isa::SsrCfg::Affine(saris_isa::AffineCfg {
                dir: saris_isa::StreamDir::Read,
                base: TCDM_BASE,
                dims: 1,
                strides: [8, 0, 0, 0],
                bounds: [4, 1, 1, 1], // streams 4 elements
            })),
        });
        b.push(Instr::SsrEnable);
        b.push(Instr::SsrCommit {
            ssrs: SsrSet::of(SsrId::Ssr0),
        });
        // Pop only one of the four.
        b.push(Instr::FpR {
            op: FpROp::Add,
            rd: FpReg::FT3,
            rs1: FpReg::FT0,
            rs2: FpReg::FT3,
        });
        b.push(Instr::SsrDisable);
        b.push(Instr::Halt);
        c.load_program(0, b.finish().unwrap());
        let err = c.run(10_000).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::StreamResidue {
                    core: 0,
                    ssr: 0,
                    ..
                }
            ),
            "got {err}"
        );
    }

    /// A 4-dimensional affine stream walks the full loop nest in order.
    #[test]
    fn affine_4d_stream_order() {
        let mut c = Cluster::new(ClusterConfig::snitch());
        // Data layout: value = linear index.
        let vals: Vec<f64> = (0..256).map(|i| i as f64).collect();
        c.write_f64_slice(TCDM_BASE, &vals).unwrap();
        // 2x2x2x2 nest with strides 8, 32, 128, 512 bytes.
        let mut b = ProgramBuilder::new();
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr0,
            cfg: Box::new(saris_isa::SsrCfg::Affine(saris_isa::AffineCfg {
                dir: saris_isa::StreamDir::Read,
                base: TCDM_BASE,
                dims: 4,
                strides: [8, 32, 128, 512],
                bounds: [2, 2, 2, 2],
            })),
        });
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr2,
            cfg: Box::new(saris_isa::SsrCfg::Affine(saris_isa::AffineCfg {
                dir: saris_isa::StreamDir::Write,
                base: TCDM_BASE + 8192,
                dims: 1,
                strides: [8, 0, 0, 0],
                bounds: [16, 1, 1, 1],
            })),
        });
        b.push(Instr::SsrEnable);
        b.push(Instr::SsrCommit {
            ssrs: SsrSet::of(SsrId::Ssr0).with(SsrId::Ssr2),
        });
        b.push(Instr::Frep {
            count: saris_isa::FrepCount::Imm(15),
            n_instrs: 1,
        });
        // ft2 = ft0 + 0 (fadd with x0-like zero reg ft3 preset to 0).
        b.push(Instr::FpR {
            op: FpROp::Add,
            rd: FpReg::FT2,
            rs1: FpReg::FT0,
            rs2: FpReg::FT3,
        });
        b.push(Instr::SsrDisable);
        b.push(Instr::Halt);
        c.load_program(0, b.finish().unwrap());
        c.run(100_000).unwrap();
        let got = c.read_f64_slice(TCDM_BASE + 8192, 16).unwrap();
        let expect: Vec<f64> = (0..16)
            .map(|i| {
                let (i0, i1, i2, i3) = (i & 1, (i >> 1) & 1, (i >> 2) & 1, (i >> 3) & 1);
                (i0 + i1 * 4 + i2 * 16 + i3 * 64) as f64
            })
            .collect();
        assert_eq!(got, expect);
    }

    /// 3D DMA descriptors (planes of rows) move the right bytes.
    #[test]
    fn dma_3d_descriptor() {
        let mut c = Cluster::new(ClusterConfig::snitch());
        // 2 planes x 3 rows x 16 bytes, plane stride 256, row stride 64.
        for plane in 0..2u64 {
            for row in 0..3u64 {
                let marker = (plane * 10 + row) as u8 + 1;
                c.write_main_f64_slice(
                    crate::config::MAIN_BASE + plane * 256 + row * 64,
                    &[f64::from_bits(u64::from(marker)), 0.0],
                )
                .unwrap();
            }
        }
        c.dma_enqueue(DmaDescriptor {
            src: crate::config::MAIN_BASE,
            dst: TCDM_BASE,
            inner_bytes: 16,
            counts: [3, 2],
            src_strides: [64, 256],
            dst_strides: [16, 48],
        })
        .unwrap();
        let mut b = ProgramBuilder::new();
        b.push(Instr::Halt);
        c.load_program_all(b.finish().unwrap());
        c.run(100_000).unwrap();
        for plane in 0..2u64 {
            for row in 0..3u64 {
                let marker = (plane * 10 + row) + 1;
                let got = c
                    .read_f64_slice(TCDM_BASE + plane * 48 + row * 16, 1)
                    .unwrap()[0];
                assert_eq!(got.to_bits(), marker, "plane {plane} row {row}");
            }
        }
    }
}

/// One test per fast-forward guard: each scenario runs on a
/// fast-forwarding and a stepped cluster side by side, compared after
/// *every* cycle, then once more through [`Cluster::run`].
#[cfg(test)]
mod guard_tests {
    use super::*;
    use crate::config::{MAIN_BASE, TCDM_BASE};
    use saris_isa::{
        AffineCfg, FpROp, FpReg, FrepCount, Instr, IntReg, Program, ProgramBuilder, SsrCfg, SsrId,
        SsrSet, StreamDir,
    };

    /// Steps both clusters `cycles` times and asserts after every cycle
    /// that each counter of the report and each core's state summary
    /// agree; then reruns both through `run` and compares whole reports.
    /// Returns the fast-forwarded run's report.
    fn assert_lockstep(build: impl Fn(&mut Cluster), cycles: u64) -> RunReport {
        let (mut fast, mut stepped) = ff_pair(&build);
        for cycle in 1..=cycles {
            fast.step().unwrap();
            stepped.step().unwrap();
            assert_eq!(
                fast.report(cycle, 0),
                stepped.report(cycle, 0),
                "counters diverge after cycle {cycle}"
            );
            for (f, s) in fast.cores.iter().zip(&stepped.cores) {
                assert_eq!(f.state_summary(), s.state_summary(), "after cycle {cycle}");
            }
        }
        assert!(
            fast.cores.iter().all(Core::is_quiescent),
            "scenario did not finish in {cycles} cycles"
        );
        let (mut fast, mut stepped) = ff_pair(&build);
        let fast_report = fast.run(cycles).unwrap();
        let stepped_report = stepped.run(cycles).unwrap();
        assert_eq!(stepped_report.cycles_fast_forwarded, 0);
        let mut scrubbed = fast_report.clone();
        scrubbed.cycles_fast_forwarded = 0;
        assert_eq!(scrubbed, stepped_report);
        fast_report
    }

    fn fp_r(op: FpROp, rd: FpReg, rs1: FpReg, rs2: FpReg) -> Instr {
        Instr::FpR { op, rd, rs1, rs2 }
    }

    /// Seven cores hammering `addr`'s bank, so that a load of core 0 from
    /// the same bank waits several cycles for its grant.
    fn load_bank_hammers(c: &mut Cluster, addr: u64, loads: i64) {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, addr as i64);
        b.li(IntReg::T1, loads);
        let head = b.bind_here();
        b.push(Instr::Fld {
            rd: FpReg::FT3,
            base: IntReg::T0,
            imm: 0,
        });
        b.addi(IntReg::T1, IntReg::T1, -1);
        b.bne(IntReg::T1, IntReg::ZERO, head);
        b.push(Instr::Halt);
        let program = b.finish().unwrap();
        for core in 1..8 {
            c.load_program(core, program.clone());
        }
    }

    /// `fdiv` makes `ft3` busy for a known 12 cycles; the `fadd` that
    /// needs it also needs `ft7`, whose `fld` is held up by bank
    /// conflicts. `known_first` picks which of the two the scoreboard
    /// meets first: the known one (the FPU sleeps, and must still absorb
    /// the load's grant on its cycle) or the in-flight one (it must not
    /// sleep at all).
    fn dependency_program(known_first: bool) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, TCDM_BASE as i64);
        b.push(fp_r(FpROp::Div, FpReg::FT3, FpReg::FT5, FpReg::FT6));
        b.push(Instr::Fld {
            rd: FpReg::FT7,
            base: IntReg::T0,
            imm: 0,
        });
        let (rs1, rs2) = if known_first {
            (FpReg::FT3, FpReg::FT7)
        } else {
            (FpReg::FT7, FpReg::FT3)
        };
        b.push(fp_r(FpROp::Add, FpReg::FS0, rs1, rs2));
        b.push(Instr::Fsd {
            rs2: FpReg::FS0,
            base: IntReg::T0,
            imm: 64,
        });
        b.push(Instr::Halt);
        b.finish().unwrap()
    }

    #[test]
    fn fpu_dependency_sleep_with_a_load_in_flight() {
        for known_first in [true, false] {
            let report = assert_lockstep(
                |c| {
                    c.write_f64_slice(TCDM_BASE, &[2.5]).unwrap();
                    load_bank_hammers(c, TCDM_BASE + 8 * 32, 12);
                    c.load_program(0, dependency_program(known_first));
                    c.core_mut(0).fp.set_reg(FpReg::FT5, 3.0);
                    c.core_mut(0).fp.set_reg(FpReg::FT6, 2.0);
                },
                400,
            );
            let fpu = report.cores[0].fpu;
            assert!(
                fpu.stalls.dependency >= 8,
                "the add must wait out the divide: {fpu:?}"
            );
            assert!(
                report.cores[0].tcdm_wait_cycles > 0,
                "the load was meant to lose arbitration"
            );
        }
    }

    #[test]
    fn fpu_wakes_on_exactly_the_ready_at_cycle() {
        // Back-to-back dependent adds: each issues on the very cycle its
        // source becomes ready, so the chain takes latency x length.
        let report = assert_lockstep(
            |c| {
                let mut b = ProgramBuilder::new();
                for _ in 0..6 {
                    b.push(fp_r(FpROp::Add, FpReg::FT3, FpReg::FT3, FpReg::FT4));
                }
                b.push(Instr::Halt);
                c.load_program(0, b.finish().unwrap());
                c.core_mut(0).fp.set_reg(FpReg::FT4, 1.0);
            },
            200,
        );
        let fpu = report.cores[0].fpu;
        let latency = u64::from(ClusterConfig::snitch().fpu_latency_add);
        assert_eq!(fpu.arith, 6);
        // Five waits of `latency - 1` stalled cycles each: one more and
        // the wake-up was late, one fewer and it was early.
        assert_eq!(fpu.stalls.dependency, 5 * (latency - 1));
    }

    #[test]
    fn blocked_offload_resumes_the_cycle_the_queue_frees() {
        let report = assert_lockstep(
            |c| {
                let mut b = ProgramBuilder::new();
                b.push(fp_r(FpROp::Div, FpReg::FT3, FpReg::FT4, FpReg::FT5));
                // Waits out the divide at the queue's front while the
                // integer core fills the queue behind it and blocks.
                b.push(fp_r(FpROp::Add, FpReg::FT6, FpReg::FT3, FpReg::FT4));
                for i in 0..8 {
                    let rd = FpReg::new(8 + i).unwrap();
                    b.push(fp_r(FpROp::Add, rd, FpReg::FT4, FpReg::FT5));
                }
                b.push(Instr::Halt);
                c.load_program(0, b.finish().unwrap());
                c.core_mut(0).fp.set_reg(FpReg::FT4, 6.0);
                c.core_mut(0).fp.set_reg(FpReg::FT5, 3.0);
            },
            200,
        );
        let core = &report.cores[0];
        assert!(core.int_stats.stalls.offload_full >= 5, "{core:?}");
        // Once the divide's consumer issues the FPU retires one op per
        // cycle, and the integer core refills the slot in the same cycle:
        // the queue never runs dry before the program does.
        assert_eq!(core.fpu.arith, 10);
        assert_eq!(
            core.fpu.stalls.idle + core.fpu.stalls.dependency + core.fpu.arith,
            report.cycles,
            "every FPU cycle is an issue, the divide's wait, or idling around the program"
        );
    }

    fn affine(dir: StreamDir, base: u64, elems: u32) -> Box<SsrCfg> {
        Box::new(SsrCfg::Affine(AffineCfg {
            dir,
            base,
            dims: 1,
            strides: [8, 0, 0, 0],
            bounds: [elems, 1, 1, 1],
        }))
    }

    /// `jobs` launches of a four-element read (SSR0) and write (SSR2)
    /// stream pair, copied through one `fadd` per element. The FREP goes
    /// first so the FPU can drain what the launches feed.
    fn copy_program(jobs: u32, commit: SsrSet) -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr0,
            cfg: affine(StreamDir::Read, TCDM_BASE, 4),
        });
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr2,
            cfg: affine(StreamDir::Write, TCDM_BASE + 4096, 4),
        });
        b.push(Instr::SsrEnable);
        b.push(Instr::Frep {
            count: FrepCount::Imm(4 * jobs - 1),
            n_instrs: 1,
        });
        b.push(fp_r(FpROp::Add, FpReg::FT2, FpReg::FT0, FpReg::FT4));
        for _ in 0..jobs {
            b.push(Instr::SsrCommit { ssrs: commit });
        }
        b.push(Instr::SsrDisable);
        b.push(Instr::Halt);
        b.finish().unwrap()
    }

    #[test]
    fn launch_full_with_two_streams_in_one_commit() {
        let report = assert_lockstep(
            |c| {
                c.write_f64_slice(TCDM_BASE, &[1.0, 2.0, 3.0, 4.0]).unwrap();
                let both = SsrSet::of(SsrId::Ssr0).with(SsrId::Ssr2);
                c.load_program(0, copy_program(6, both));
                c.core_mut(0).fp.set_reg(FpReg::FT4, 10.0);
            },
            2_000,
        );
        let core = &report.cores[0];
        assert!(core.int_stats.stalls.launch_full > 0, "{core:?}");
        assert!(core.int_stats.stalls.drain > 0, "{core:?}");
        assert_eq!(core.streamers[0].jobs, 6);
        assert_eq!(core.streamers[2].jobs, 6);
        assert_eq!(core.fpu.stream_pops, 24);
        assert_eq!(core.fpu.stream_pushes, 24);
    }

    #[test]
    fn streamers_sleep_on_full_and_empty_fifos() {
        // One long job each way and an FPU that is slow to start (it
        // waits out a divide first): the read stream fills its FIFO and
        // sleeps on it, the write stream sleeps on an empty one.
        let report = assert_lockstep(
            |c| {
                let vals: Vec<f64> = (0..32).map(f64::from).collect();
                c.write_f64_slice(TCDM_BASE, &vals).unwrap();
                let mut b = ProgramBuilder::new();
                b.push(Instr::SsrSetup {
                    ssr: SsrId::Ssr0,
                    cfg: affine(StreamDir::Read, TCDM_BASE, 32),
                });
                b.push(Instr::SsrSetup {
                    ssr: SsrId::Ssr2,
                    cfg: affine(StreamDir::Write, TCDM_BASE + 4096, 32),
                });
                b.push(Instr::SsrEnable);
                b.push(Instr::SsrCommit {
                    ssrs: SsrSet::of(SsrId::Ssr0).with(SsrId::Ssr2),
                });
                b.push(fp_r(FpROp::Div, FpReg::FT3, FpReg::FT4, FpReg::FT5));
                b.push(Instr::Frep {
                    count: FrepCount::Imm(31),
                    n_instrs: 1,
                });
                // Each element also waits for the previous sum (latency
                // 3), so the FIFOs stay full and empty throughout.
                b.push(fp_r(FpROp::Add, FpReg::FT2, FpReg::FT0, FpReg::FT3));
                b.push(Instr::SsrDisable);
                b.push(Instr::Halt);
                c.load_program(0, b.finish().unwrap());
                c.core_mut(0).fp.set_reg(FpReg::FT4, 1.0);
                c.core_mut(0).fp.set_reg(FpReg::FT5, 1.0);
            },
            2_000,
        );
        let core = &report.cores[0];
        assert_eq!(core.streamers[0].elems, 32);
        assert_eq!(core.streamers[2].elems, 32);
        assert!(core.fpu.stalls.dependency > 0, "{core:?}");
    }

    #[test]
    fn ssr_enable_under_a_sleeping_fpu_changes_what_it_wakes_to() {
        // The add is offloaded with SSRs off and sleeps on the divide's
        // result; `ssr_enable` then turns its `ft0` into a stream read of
        // an unconfigured streamer. Both engines must fault, on the same
        // cycle, instead of the sleeper issuing with the stale meaning.
        let build = |c: &mut Cluster| {
            let mut b = ProgramBuilder::new();
            b.push(fp_r(FpROp::Div, FpReg::FT3, FpReg::FT4, FpReg::FT5));
            b.push(fp_r(FpROp::Add, FpReg::FT6, FpReg::FT3, FpReg::FT0));
            b.push(Instr::SsrEnable);
            b.push(Instr::Halt);
            c.load_program(0, b.finish().unwrap());
        };
        let (mut fast, mut stepped) = ff_pair(&build);
        let fast_err = fast.run(1_000).unwrap_err();
        let stepped_err = stepped.run(1_000).unwrap_err();
        assert!(matches!(
            fast_err,
            SimError::StreamMisuse {
                core: 0,
                ssr: 0,
                ..
            }
        ));
        assert_eq!(fast_err, stepped_err);
        assert_eq!(fast.cycle, stepped.cycle);
        assert_eq!(fast.report(0, 0), stepped.report(0, 0));
    }

    #[test]
    fn memory_faults_surface_on_the_same_cycle() {
        // A misaligned and an unmapped FP load, behind enough work that
        // guards are active when they are granted.
        for addr in [TCDM_BASE + 4, TCDM_BASE + 128 * 1024] {
            let build = |c: &mut Cluster| {
                load_bank_hammers(c, TCDM_BASE, 6);
                let mut b = ProgramBuilder::new();
                b.li(IntReg::T0, addr as i64);
                b.push(fp_r(FpROp::Div, FpReg::FT3, FpReg::FT4, FpReg::FT5));
                b.push(fp_r(FpROp::Add, FpReg::FT6, FpReg::FT3, FpReg::FT4));
                b.push(Instr::Fld {
                    rd: FpReg::FT7,
                    base: IntReg::T0,
                    imm: 0,
                });
                b.push(Instr::Halt);
                c.load_program(0, b.finish().unwrap());
            };
            let (mut fast, mut stepped) = ff_pair(&build);
            let fast_err = fast.run(1_000).unwrap_err();
            let stepped_err = stepped.run(1_000).unwrap_err();
            assert!(
                matches!(
                    fast_err,
                    SimError::Misaligned { .. } | SimError::BadAddress { .. }
                ),
                "{fast_err}"
            );
            assert_eq!(fast_err, stepped_err);
            assert_eq!(fast.cycle, stepped.cycle);
        }
    }

    #[test]
    fn parked_cores_idle_through_a_long_dma_tail() {
        // Every core halts at once; the DMA keeps the cluster running for
        // thousands of cycles in which the parked cores' only activity,
        // the FPU idle count, must keep up — through stepped cycles and
        // through the whole-cluster skips of the burst-latency windows.
        let report = assert_lockstep(
            |c| {
                let vals: Vec<f64> = (0..4096).map(f64::from).collect();
                c.write_main_f64_slice(MAIN_BASE, &vals).unwrap();
                for chunk in 0..4u64 {
                    c.dma_enqueue(DmaDescriptor::copy_1d(
                        MAIN_BASE + chunk * 8192,
                        TCDM_BASE + chunk * 8192,
                        8192,
                    ))
                    .unwrap();
                }
            },
            5_000,
        );
        assert_eq!(report.dma.bytes, 4 * 8192);
        assert!(report.cycles > 500);
        assert!(report.cycles_fast_forwarded > 100);
        for core in &report.cores {
            assert_eq!(
                core.fpu.stalls.idle, report.cycles,
                "an FPU with nothing to do idles every cycle of the run"
            );
        }
    }
}
