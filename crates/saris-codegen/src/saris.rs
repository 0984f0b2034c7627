//! SARIS (SSSR + FREP) kernel generation.
//!
//! Lowers a [`SarisPlan`] to per-core kernels shaped like the paper's
//! Listing 1d: static index arrays installed in TCDM, per-window indirect
//! launches (`ssr_setbase` x2 + `ssr_commit` = the 3-instruction `SRIR`),
//! an affine SR2 write stream, FREP around the unrolled compute block,
//! and — for register-bound codes — an affine SR1 streaming the
//! coefficient sequence from TCDM.
//!
//! The walk is **row-major in two passes**: the first pass sweeps every
//! full U-point window of the whole tile (one FREP, one 4-D affine SR2
//! job), then a single stream reconfiguration switches to width-1 windows
//! and a second pass covers the leftover x positions of every row. Window
//! shape therefore changes at most once per kernel, keeping stream
//! reconfiguration — which stalls until the streams drain — off the
//! critical path, while the x-inner walk spreads TCDM accesses across
//! banks exactly like the paper's row-major loops.

use std::collections::HashMap;

use saris_core::layout::ELEM_BYTES;
use saris_core::method::{SarisPlan, ScheduledOpKind, SlotDst, SlotSrc, StreamMode};
use saris_core::parallel::InterleavePlan;
use saris_core::stencil::Stencil;
use saris_isa::{
    AffineCfg, BranchCond, FpR4Op, FpROp, FpReg, FpUOp, FrepCount, IndirectCfg, Instr, IntReg,
    ProgramBuilder, SsrCfg, SsrId, SsrSet, StreamDir,
};
use snitch_sim::ClusterConfig;

use crate::base::CompiledCore;
use crate::error::CodegenError;
use crate::map::TcdmMap;
use crate::slots::{int_reg_pool, interleave_slots, last_uses, RegPool};
use crate::walk::CoreWalk;

/// The main-window and remainder plans of one SARIS kernel.
#[derive(Debug, Clone)]
pub struct SarisPlans {
    /// Plan covering `unroll` points per launch window.
    pub main: SarisPlan,
    /// Plan covering one point per launch window (leftover columns).
    pub rem: SarisPlan,
}

impl SarisPlans {
    /// The unroll factor of the main windows.
    pub fn unroll(&self) -> usize {
        self.main.unroll
    }

    /// The coefficient-stream table contents (main windows then
    /// remainder), or `None` in paired mode. Values are emitted in the
    /// slot-interleaved pop order the FP block consumes.
    pub fn coeff_stream_tables(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        let main = coeff_stream_table(&self.main)?;
        let rem = coeff_stream_table(&self.rem)?;
        Some((main, rem))
    }
}

/// Builds the coefficient table in slot-interleaved op order: each op
/// group of coefficient pops repeats once per unroll slot.
fn coeff_stream_table(plan: &SarisPlan) -> Option<Vec<f64>> {
    let per_point = plan.coeff_table.as_ref()?;
    let pops = &plan.schedule.coeff_pops;
    debug_assert_eq!(per_point.len(), pops.len());
    let mut table = Vec::with_capacity(per_point.len() * plan.unroll);
    let mut i = 0;
    while i < pops.len() {
        let op = pops[i].0;
        let mut j = i;
        while j < pops.len() && pops[j].0 == op {
            j += 1;
        }
        for _ in 0..plan.unroll {
            table.extend_from_slice(&per_point[i..j]);
        }
        i = j;
    }
    Some(table)
}

/// One window-shape "pass" over the tile: either the U-wide main windows
/// or the width-1 leftover windows.
struct Part<'p> {
    plan: &'p SarisPlan,
    /// Index-array slots (`[sr0, sr1]`) in the map.
    idx_slots: [usize; 2],
    /// Windows per row in this pass.
    windows_per_row: usize,
    /// Byte stride between consecutive windows of a row.
    stride: i64,
    /// Static x offset (bytes) of the pass's first window from the row
    /// origin.
    x_off: i64,
    /// FP block (interleaved unroll slots).
    body: Vec<Instr>,
    /// Coefficient-stream table offset (elements) for this pass.
    coeff_table_off: usize,
    /// Coefficient-stream entries walked per window.
    coeff_per_window: usize,
}

impl Part<'_> {
    /// Total windows of this pass over the whole tile.
    fn total_windows(&self, count_y: usize, count_z: usize) -> usize {
        self.windows_per_row * count_y * count_z
    }
}

struct SarisCtx<'a> {
    stencil: &'a Stencil,
    map: &'a TcdmMap,
    plans: &'a SarisPlans,
    walk: CoreWalk,
    core: usize,
    t0: IntReg,
    x_end: IntReg,
    row_base: IntReg,
    y_cnt: IntReg,
    z_cnt: IntReg,
    coeff_ptr: IntReg,
    scratch: IntReg,
    coeff_regs: Vec<FpReg>,
    slot_pools: Vec<Vec<FpReg>>,
    cfg: &'a ClusterConfig,
}

/// Generates the SARIS kernel for one core.
///
/// # Errors
///
/// Returns [`CodegenError::FrepBodyTooLarge`] when the unrolled block does
/// not fit the FREP sequencer, [`CodegenError::RegisterPressure`] when
/// temporaries plus resident coefficients exceed the FP register file, or
/// [`CodegenError::InvalidWorkload`] when paired streams have one tap to
/// load between them.
pub fn gen_saris_core(
    stencil: &Stencil,
    map: &TcdmMap,
    plans: &SarisPlans,
    interleave: &InterleavePlan,
    core: usize,
    cfg: &ClusterConfig,
) -> Result<CompiledCore, CodegenError> {
    let one_index_stream = [&plans.main, &plans.rem]
        .iter()
        .any(|p| p.indices.sr1.is_none());
    if plans.main.mode() == StreamMode::Paired && one_index_stream {
        return Err(CodegenError::InvalidWorkload {
            reason: format!(
                "SARIS pairs two index streams, and stencil {} loads one tap per point",
                stencil.name()
            ),
        });
    }
    let walk = CoreWalk::compute(stencil, map.layout().extent(), interleave, core);
    if walk.is_empty() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Halt);
        return Ok(CompiledCore {
            program: b.finish()?,
            point_loop: None,
        });
    }
    debug_assert_eq!(
        plans.main.indices.base_adjust_elems, plans.rem.indices.base_adjust_elems,
        "main and remainder plans share the window base"
    );
    let unroll = plans.unroll();
    // Register budget: ft0..ft2 are streams; slots from f3 up; resident
    // coefficients (paired mode only) from f31 down.
    let pool_size = measure_sched_pool(&plans.main);
    let n_coeff_regs = match plans.main.mode() {
        StreamMode::Paired => plans
            .main
            .schedule
            .resident_coeffs()
            .min(stencil.coeffs().len()),
        StreamMode::CoeffStream => 0,
    };
    if 3 + unroll * pool_size + n_coeff_regs > 32 {
        return Err(CodegenError::RegisterPressure {
            name: stencil.name().to_string(),
            unroll,
            needed: 3 + unroll * pool_size + n_coeff_regs,
            available: 32,
        });
    }
    let slot_pools: Vec<Vec<FpReg>> = (0..unroll)
        .map(|u| {
            (3 + u * pool_size..3 + (u + 1) * pool_size)
                .map(|i| FpReg::new(i as u8).expect("index < 32"))
                .collect()
        })
        .collect();
    let coeff_regs: Vec<FpReg> = (0..n_coeff_regs)
        .map(|i| FpReg::new((31 - i) as u8).expect("index < 32"))
        .collect();

    let mut int_pool = int_reg_pool().into_iter();
    let mut take = || int_pool.next().expect("integer registers available");
    let ctx = SarisCtx {
        stencil,
        map,
        plans,
        walk,
        core,
        t0: take(),
        x_end: take(),
        row_base: take(),
        y_cnt: take(),
        z_cnt: take(),
        coeff_ptr: take(),
        scratch: take(),
        coeff_regs,
        slot_pools,
        cfg,
    };
    ctx.emit()
}

impl SarisCtx<'_> {
    fn mode(&self) -> StreamMode {
        self.plans.main.mode()
    }

    fn paired(&self) -> bool {
        self.mode() == StreamMode::Paired
    }

    /// Indirect read config for a plan's stream `sr` for this core.
    fn indirect_cfg(&self, plan: &SarisPlan, sr: usize, idx_slot: usize) -> SsrCfg {
        let arr = if sr == 0 {
            &plan.indices.sr0
        } else {
            plan.indices
                .sr1
                .as_ref()
                .expect("gen_saris_core checked sr1")
        };
        SsrCfg::Indirect(IndirectCfg {
            dir: StreamDir::Read,
            idx_base: self.map.index_base(idx_slot, self.core),
            idx_count: arr.len() as u32,
            idx_width: plan.index_width,
            shift: 3,
        })
    }

    /// Affine coefficient-stream config for one part: walk
    /// `coeff_per_window` entries per window, `windows` windows per job.
    fn coeff_cfg(&self, part: &Part<'_>, windows: usize) -> SsrCfg {
        let base =
            self.map.coeff_stream_base(self.core) + (part.coeff_table_off * ELEM_BYTES) as u64;
        SsrCfg::Affine(AffineCfg {
            dir: StreamDir::Read,
            base,
            dims: 2,
            strides: [ELEM_BYTES as i64, 0, 0, 0],
            bounds: [part.coeff_per_window as u32, windows as u32, 1, 1],
        })
    }

    /// SR2 affine write config for one pass, covering the whole tile in
    /// row-major order: innermost the window's unrolled points, then
    /// windows along the row, then rows, then planes.
    fn store_cfg(&self, part: &Part<'_>) -> SsrCfg {
        let w = self.walk;
        let extent = self.map.layout().extent();
        let base = self.map.addr_of(self.stencil.output(), w.origin()) as i64 + part.x_off;
        SsrCfg::Affine(AffineCfg {
            dir: StreamDir::Write,
            base: base as u64,
            dims: 4,
            strides: [
                (w.px * ELEM_BYTES) as i64,
                part.stride,
                (w.py * extent.nx * ELEM_BYTES) as i64,
                (extent.nx * extent.ny * ELEM_BYTES) as i64,
            ],
            bounds: [
                part.plan.unroll as u32,
                part.windows_per_row as u32,
                w.count_y as u32,
                w.count_z as u32,
            ],
        })
    }

    /// Emits one unroll slot of the scheduled FP block. Register-
    /// exhausting coefficients become static `fld`s from the core's
    /// coefficient-table replica (legal FREP body instructions — the
    /// address is loop-invariant). Destination registers reuse dying
    /// sources, keeping slot pools minimal.
    fn emit_sched_slot(&self, plan: &SarisPlan, slot: usize) -> Result<Vec<Instr>, CodegenError> {
        let sched = &plan.schedule;
        let mut pool = RegPool::new(self.slot_pools[slot].clone());
        let mut tmp_reg: HashMap<usize, FpReg> = HashMap::new();
        let last = last_uses(sched.ops.len(), None, |i| {
            sched.ops[i]
                .srcs
                .iter()
                .filter_map(|s| match s {
                    SlotSrc::Tmp(t) => Some(*t),
                    _ => None,
                })
                .collect()
        });
        let mut out = Vec::with_capacity(sched.ops.len());
        for (i, op) in sched.ops.iter().enumerate() {
            let mut transients: Vec<FpReg> = Vec::new();
            let mut srcs: Vec<FpReg> = Vec::with_capacity(op.srcs.len());
            for src in &op.srcs {
                let r = match src {
                    SlotSrc::Stream(ssr) => ssr.fp_reg(),
                    SlotSrc::CoeffReg(c) => self.coeff_regs[*c],
                    SlotSrc::CoeffMem(c) => {
                        let r = pool.alloc().ok_or_else(|| self.pressure_err(plan))?;
                        out.push(Instr::Fld {
                            rd: r,
                            base: self.coeff_ptr,
                            imm: (*c * ELEM_BYTES) as i32,
                        });
                        transients.push(r);
                        r
                    }
                    SlotSrc::Tmp(t) => *tmp_reg.get(t).expect("tmp defined"),
                };
                srcs.push(r);
            }
            for r in transients {
                pool.free(r);
            }
            for src in &op.srcs {
                if let SlotSrc::Tmp(t) = src {
                    if last[*t] == i {
                        if let Some(r) = tmp_reg.remove(t) {
                            pool.free(r);
                        }
                    }
                }
            }
            let dst = match op.dst {
                SlotDst::Store => SsrId::Ssr2.fp_reg(),
                SlotDst::Tmp(_) => pool.alloc().ok_or_else(|| self.pressure_err(plan))?,
            };
            out.push(match op.kind {
                ScheduledOpKind::Add => Instr::FpR {
                    op: FpROp::Add,
                    rd: dst,
                    rs1: srcs[0],
                    rs2: srcs[1],
                },
                ScheduledOpKind::Sub => Instr::FpR {
                    op: FpROp::Sub,
                    rd: dst,
                    rs1: srcs[0],
                    rs2: srcs[1],
                },
                ScheduledOpKind::Mul => Instr::FpR {
                    op: FpROp::Mul,
                    rd: dst,
                    rs1: srcs[0],
                    rs2: srcs[1],
                },
                ScheduledOpKind::Fma => Instr::FpR4 {
                    op: FpR4Op::Madd,
                    rd: dst,
                    rs1: srcs[0],
                    rs2: srcs[1],
                    rs3: srcs[2],
                },
                ScheduledOpKind::Mv => Instr::FpU {
                    op: FpUOp::Mv,
                    rd: dst,
                    rs1: srcs[0],
                },
            });
            if let SlotDst::Tmp(t) = op.dst {
                tmp_reg.insert(t, dst);
            }
        }
        Ok(out)
    }

    fn pressure_err(&self, plan: &SarisPlan) -> CodegenError {
        CodegenError::RegisterPressure {
            name: self.stencil.name().to_string(),
            unroll: plan.unroll,
            needed: 33,
            available: 32,
        }
    }

    fn emit_block(&self, plan: &SarisPlan) -> Result<Vec<Instr>, CodegenError> {
        let slots: Vec<Vec<Instr>> = (0..plan.unroll)
            .map(|u| self.emit_sched_slot(plan, u))
            .collect::<Result<_, _>>()?;
        Ok(interleave_slots(slots))
    }

    /// Emits the static stream setup instructions of one part.
    fn emit_part_setup(&self, b: &mut ProgramBuilder, part: &Part<'_>, windows: usize) {
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr0,
            cfg: Box::new(self.indirect_cfg(part.plan, 0, part.idx_slots[0])),
        });
        if self.paired() {
            b.push(Instr::SsrSetup {
                ssr: SsrId::Ssr1,
                cfg: Box::new(self.indirect_cfg(part.plan, 1, part.idx_slots[1])),
            });
        } else {
            b.push(Instr::SsrSetup {
                ssr: SsrId::Ssr1,
                cfg: Box::new(self.coeff_cfg(part, windows)),
            });
        }
        b.push(Instr::SsrSetup {
            ssr: SsrId::Ssr2,
            cfg: Box::new(self.store_cfg(part)),
        });
    }

    /// Arms the whole-pass jobs of a part (SR2 write, and the coefficient
    /// stream in coeff mode).
    fn emit_part_arm(&self, b: &mut ProgramBuilder) {
        let mut set = SsrSet::of(SsrId::Ssr2);
        if !self.paired() {
            set = set.with(SsrId::Ssr1);
        }
        b.push(Instr::SsrCommit { ssrs: set });
    }

    /// Emits a window launch (the paper's `SRIR`).
    fn emit_launch(&self, b: &mut ProgramBuilder) {
        b.push(Instr::SsrSetBase {
            ssr: SsrId::Ssr0,
            rs1: self.t0,
        });
        let mut set = SsrSet::of(SsrId::Ssr0);
        if self.paired() {
            b.push(Instr::SsrSetBase {
                ssr: SsrId::Ssr1,
                rs1: self.t0,
            });
            set = set.with(SsrId::Ssr1);
        }
        b.push(Instr::SsrCommit { ssrs: set });
    }

    /// Emits the whole-tile launch nest of one pass (z, y, window).
    /// Expects `row_base` to hold the pass's first window base; leaves it
    /// past the tile. Returns the innermost launch-loop range.
    fn emit_part_loops(
        &self,
        b: &mut ProgramBuilder,
        part: &Part<'_>,
        y_stride: i64,
        plane_adjust: i64,
        is_3d: bool,
    ) -> std::ops::Range<usize> {
        let w = self.walk;
        if is_3d {
            b.li(self.z_cnt, w.count_z as i64);
        }
        let z_head = b.bind_here();
        b.li(self.y_cnt, w.count_y as i64);
        let y_head = b.bind_here();
        b.mv(self.t0, self.row_base);
        let span = part.windows_per_row as i64 * part.stride;
        debug_assert!((-2048..=2047).contains(&span), "row span fits imm");
        b.addi(self.x_end, self.t0, span as i32);
        let x_head = b.bind_here();
        let loop_start = b.here();
        self.emit_launch(b);
        b.addi(self.t0, self.t0, part.stride as i32);
        b.branch(BranchCond::Ne, self.t0, self.x_end, x_head);
        let loop_range = loop_start..b.here();
        Self::emit_bump(b, self.row_base, y_stride, self.scratch);
        b.addi(self.y_cnt, self.y_cnt, -1);
        b.bne(self.y_cnt, IntReg::ZERO, y_head);
        if is_3d {
            Self::emit_bump(b, self.row_base, plane_adjust, self.scratch);
            b.addi(self.z_cnt, self.z_cnt, -1);
            b.bne(self.z_cnt, IntReg::ZERO, z_head);
        }
        loop_range
    }

    fn emit_bump(b: &mut ProgramBuilder, reg: IntReg, delta: i64, scratch: IntReg) {
        if delta == 0 {
            return;
        }
        if (-2048..=2047).contains(&delta) {
            b.addi(reg, reg, delta as i32);
        } else {
            b.li(scratch, delta);
            b.add(reg, reg, scratch);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn emit(self) -> Result<CompiledCore, CodegenError> {
        let w = self.walk;
        let unroll = self.plans.unroll();
        let (count_main, rem) = w.blocks(unroll);
        let extent = self.map.layout().extent();
        let is_3d = extent.nz > 1;
        let y_stride = (w.py * extent.nx * ELEM_BYTES) as i64;
        let plane_adjust =
            (extent.nx * extent.ny * ELEM_BYTES) as i64 - w.count_y as i64 * y_stride;

        let main_body = self.emit_block(&self.plans.main)?;
        let rem_body = self.emit_block(&self.plans.rem)?;
        for body in [&main_body, &rem_body] {
            // The emitted block includes coefficient-reload loads, so the
            // capacity check uses the real length. `u8::MAX` is the
            // encoding limit of `Instr::Frep::n_instrs`.
            if !self.cfg.frep_body_fits(body.len()) || body.len() > u8::MAX as usize {
                return Err(CodegenError::FrepBodyTooLarge {
                    name: self.stencil.name().to_string(),
                    body: body.len(),
                    capacity: self.cfg.sequencer_depth.min(u8::MAX as usize),
                });
            }
        }
        let (main_coeff_len, rem_coeff_off, rem_coeff_len) = match self.plans.coeff_stream_tables()
        {
            Some((m, r)) => (m.len(), m.len(), r.len()),
            None => (0, 0, 0),
        };
        let main_part = Part {
            plan: &self.plans.main,
            idx_slots: [0, 1],
            windows_per_row: count_main,
            stride: (unroll * w.px * ELEM_BYTES) as i64,
            x_off: 0,
            body: main_body,
            coeff_table_off: 0,
            coeff_per_window: main_coeff_len,
        };
        let rem_part = Part {
            plan: &self.plans.rem,
            idx_slots: [2, 3],
            windows_per_row: rem,
            stride: (w.px * ELEM_BYTES) as i64,
            x_off: (count_main * unroll * w.px * ELEM_BYTES) as i64,
            body: rem_body,
            coeff_table_off: rem_coeff_off,
            coeff_per_window: rem_coeff_len,
        };
        let parts: Vec<&Part<'_>> = [
            (count_main > 0).then_some(&main_part),
            (rem > 0).then_some(&rem_part),
        ]
        .into_iter()
        .flatten()
        .collect();

        let mut b = ProgramBuilder::new();
        b.marker("prologue");
        let needs_coeff_ptr = !self.coeff_regs.is_empty()
            || self.plans.main.schedule.has_coeff_mem()
            || self.plans.rem.schedule.has_coeff_mem();
        if self.paired() && needs_coeff_ptr {
            b.li(self.coeff_ptr, self.map.coeff_base(self.core) as i64);
            for (c, &reg) in self.coeff_regs.iter().enumerate() {
                b.push(Instr::Fld {
                    rd: reg,
                    base: self.coeff_ptr,
                    imm: (c * ELEM_BYTES) as i32,
                });
            }
        }
        b.push(Instr::SsrEnable);
        let first_base = self.map.anchor_addr(w.origin()) as i64
            + self.plans.main.indices.base_adjust_elems * ELEM_BYTES as i64;

        let mut point_loop = None;
        for part in &parts {
            b.marker(if part.stride == main_part.stride && count_main > 0 {
                "main pass"
            } else {
                "remainder pass"
            });
            let windows = part.total_windows(w.count_y, w.count_z);
            debug_assert!(windows > 0);
            self.emit_part_setup(&mut b, part, windows);
            self.emit_part_arm(&mut b);
            b.push(Instr::Frep {
                count: FrepCount::Imm((windows - 1) as u32),
                n_instrs: part.body.len() as u8,
            });
            for i in &part.body {
                b.push(i.clone());
            }
            b.li(self.row_base, first_base + part.x_off);
            let range = self.emit_part_loops(&mut b, part, y_stride, plane_adjust, is_3d);
            if point_loop.is_none() {
                point_loop = Some(range);
            }
        }
        b.push(Instr::SsrDisable);
        b.push(Instr::Halt);
        Ok(CompiledCore {
            program: b.finish()?,
            point_loop,
        })
    }
}

/// Dry-run of the scheduled-slot allocator: peak registers considering
/// coefficient-reload transients and destination reuse of dying sources.
fn measure_sched_pool(plan: &SarisPlan) -> usize {
    let sched = &plan.schedule;
    let last = last_uses(sched.ops.len(), None, |i| {
        sched.ops[i]
            .srcs
            .iter()
            .filter_map(|s| match s {
                SlotSrc::Tmp(t) => Some(*t),
                _ => None,
            })
            .collect()
    });
    let mut live = 0usize;
    let mut max = 1usize;
    for (i, op) in sched.ops.iter().enumerate() {
        let transients = op
            .srcs
            .iter()
            .filter(|s| matches!(s, SlotSrc::CoeffMem(_)))
            .count();
        max = max.max(live + transients);
        let dying = op
            .srcs
            .iter()
            .filter(|s| matches!(s, SlotSrc::Tmp(t) if last[*t] == i))
            .count();
        live -= dying;
        if matches!(op.dst, SlotDst::Tmp(_)) {
            live += 1;
            max = max.max(live);
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_core::method::SarisOptions;
    use saris_core::{gallery, ArenaLayout, Extent, Space};

    fn plans_for(s: &Stencil, tile: Extent, unroll: usize) -> (SarisPlans, TcdmMap) {
        let layout = ArenaLayout::for_stencil(s, tile);
        let main = SarisPlan::derive(s, &layout, SarisOptions::default(), unroll, 4).unwrap();
        let rem_opts = SarisOptions {
            coeff_reg_budget: main.schedule.resident_coeffs(),
            ..SarisOptions::default()
        };
        let rem = SarisPlan::derive(s, &layout, rem_opts, 1, 4).unwrap();
        let plans = SarisPlans { main, rem };
        let coeff_stream_len = plans
            .coeff_stream_tables()
            .map_or(0, |(m, r)| m.len() + r.len());
        let width_bytes = plans.main.index_width.bytes();
        let idx_lens = [
            plans.main.indices.sr0.len() * width_bytes,
            plans
                .main
                .indices
                .sr1
                .as_ref()
                .map_or(0, |a| a.len() * width_bytes),
            plans.rem.indices.sr0.len() * width_bytes,
            plans
                .rem
                .indices
                .sr1
                .as_ref()
                .map_or(0, |a| a.len() * width_bytes),
        ];
        let map = TcdmMap::plan(
            s,
            &layout,
            &ClusterConfig::snitch(),
            idx_lens,
            coeff_stream_len,
        )
        .unwrap();
        (plans, map)
    }

    fn tile_of(s: &Stencil) -> Extent {
        match s.space() {
            Space::Dim2 => Extent::new_2d(64, 64),
            Space::Dim3 => Extent::cube(Space::Dim3, 16),
        }
    }

    #[test]
    fn all_gallery_codes_compile() {
        let cfg = ClusterConfig::snitch();
        for s in gallery::all() {
            for unroll in [1, 2] {
                let (plans, map) = plans_for(&s, tile_of(&s), unroll);
                for core in 0..8 {
                    let r = gen_saris_core(&s, &map, &plans, &InterleavePlan::snitch(), core, &cfg);
                    match r {
                        Ok(cc) => assert!(!cc.program.is_empty()),
                        Err(CodegenError::FrepBodyTooLarge { .. }) => {}
                        Err(e) => panic!("{} u{unroll} core{core}: {e}", s.name()),
                    }
                }
            }
        }
    }

    #[test]
    fn launch_loop_matches_listing_1d_shape() {
        // SRIR (3 instrs) + pointer bump + branch = 5 instructions in the
        // paired-mode launch loop.
        let s = gallery::jacobi_2d();
        let (plans, map) = plans_for(&s, tile_of(&s), 1);
        let cc = gen_saris_core(
            &s,
            &map,
            &plans,
            &InterleavePlan::snitch(),
            0,
            &ClusterConfig::snitch(),
        )
        .unwrap();
        let range = cc.point_loop.expect("launch loop exists");
        assert_eq!(range.len(), 5, "\n{}", cc.program);
        let instrs = &cc.program.instrs()[range];
        assert!(matches!(instrs[0], Instr::SsrSetBase { .. }));
        assert!(matches!(instrs[1], Instr::SsrSetBase { .. }));
        assert!(matches!(instrs[2], Instr::SsrCommit { .. }));
        assert!(matches!(instrs[3], Instr::Addi { .. }));
        assert!(matches!(instrs[4], Instr::Branch { .. }));
    }

    fn stream_sr1_plans(s: &Stencil, tile: Extent, unroll: usize) -> (SarisPlans, TcdmMap) {
        let layout = ArenaLayout::for_stencil(s, tile);
        let opts = SarisOptions {
            coeff_strategy: saris_core::method::CoeffStrategy::StreamSr1,
            coeff_reg_budget: 20,
            ..SarisOptions::default()
        };
        let main = SarisPlan::derive(s, &layout, opts, unroll, 4).unwrap();
        let rem = SarisPlan::derive(s, &layout, opts, 1, 4).unwrap();
        let plans = SarisPlans { main, rem };
        let coeff_stream_len = plans
            .coeff_stream_tables()
            .map_or(0, |(m, r)| m.len() + r.len());
        let width_bytes = plans.main.index_width.bytes();
        let idx_lens = [
            plans.main.indices.sr0.len() * width_bytes,
            plans
                .main
                .indices
                .sr1
                .as_ref()
                .map_or(0, |a| a.len() * width_bytes),
            plans.rem.indices.sr0.len() * width_bytes,
            plans
                .rem
                .indices
                .sr1
                .as_ref()
                .map_or(0, |a| a.len() * width_bytes),
        ];
        let map = TcdmMap::plan(
            s,
            &layout,
            &ClusterConfig::snitch(),
            idx_lens,
            coeff_stream_len,
        )
        .unwrap();
        (plans, map)
    }

    #[test]
    fn coeff_mode_launches_only_sr0() {
        let s = gallery::j3d27pt();
        let (plans, map) = stream_sr1_plans(&s, tile_of(&s), 1);
        assert_eq!(plans.main.mode(), StreamMode::CoeffStream);
        let cc = gen_saris_core(
            &s,
            &map,
            &plans,
            &InterleavePlan::snitch(),
            0,
            &ClusterConfig::snitch(),
        )
        .unwrap();
        let range = cc.point_loop.expect("launch loop exists");
        // SetBase SR0 + Commit + bump + branch = 4.
        assert_eq!(range.len(), 4, "\n{}", cc.program);
    }

    #[test]
    fn single_shape_cores_configure_streams_once() {
        // Core 0 on a 64^2 jacobi tile: count_x = 16 = 4 * 4, rem = 0:
        // exactly one SsrSetup per stream register.
        let s = gallery::jacobi_2d();
        let (plans, map) = plans_for(&s, tile_of(&s), 4);
        let cc = gen_saris_core(
            &s,
            &map,
            &plans,
            &InterleavePlan::snitch(),
            0,
            &ClusterConfig::snitch(),
        )
        .unwrap();
        let setups = cc
            .program
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::SsrSetup { .. }))
            .count();
        assert_eq!(setups, 3, "\n{}", cc.program);
    }

    #[test]
    fn ragged_cores_reconfigure_per_part() {
        // Core 2 (cx=2): count_x = 15 -> 3 main columns + 3 leftover:
        // both parts configure their three streams (2D: once each).
        let s = gallery::jacobi_2d();
        let (plans, map) = plans_for(&s, tile_of(&s), 4);
        let cc = gen_saris_core(
            &s,
            &map,
            &plans,
            &InterleavePlan::snitch(),
            2,
            &ClusterConfig::snitch(),
        )
        .unwrap();
        let setups = cc
            .program
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::SsrSetup { .. }))
            .count();
        assert_eq!(setups, 6, "\n{}", cc.program);
    }

    #[test]
    fn coeff_stream_table_interleaves_per_op() {
        let s = gallery::box3d1r();
        let (plans, _) = stream_sr1_plans(&s, tile_of(&s), 2);
        let (main_t, rem_t) = plans.coeff_stream_tables().unwrap();
        assert_eq!(main_t.len(), 54);
        assert_eq!(rem_t.len(), 27);
        assert_eq!(main_t[0], main_t[1], "unroll copies see the same coeff");
        assert_eq!(main_t[0], rem_t[0]);
        assert_eq!(main_t[2], main_t[3]);
        assert_eq!(main_t[2], rem_t[1]);
    }

    #[test]
    fn frep_body_limit_enforced() {
        let s = gallery::j3d27pt(); // 28 ops + coefficient reloads
        let (plans, map) = plans_for(&s, tile_of(&s), 4);
        let mut cfg = ClusterConfig::snitch();
        cfg.sequencer_depth = 64; // 4 * (28 + reloads) > 64
        let err = gen_saris_core(&s, &map, &plans, &InterleavePlan::snitch(), 0, &cfg).unwrap_err();
        assert!(matches!(err, CodegenError::FrepBodyTooLarge { .. }));
    }

    #[test]
    fn measure_pool_is_small() {
        for s in gallery::all() {
            let layout = ArenaLayout::for_stencil(&s, tile_of(&s));
            let plan = SarisPlan::derive(&s, &layout, SarisOptions::default(), 1, 4).unwrap();
            let pool = measure_sched_pool(&plan);
            assert!(pool <= 3, "{}: pool {pool}", s.name());
        }
    }
}
