//! Pre-decoded execution tables: the allocation-free form programs take
//! inside the simulator's hot loop.
//!
//! [`Cluster::load_program`](crate::Cluster::load_program) decodes each
//! loaded [`Program`] exactly once into an [`ExecTable`] — a dense array
//! of decoded ops indexed by pc. Decoding resolves everything the per-cycle
//! path would otherwise recompute or reallocate:
//!
//! * operand registers of FP arithmetic land in fixed arrays
//!   ([`FpArithOp`]), so issuing never builds per-instruction `Vec`s;
//! * FP latencies are resolved against the [`ClusterConfig`] once, so
//!   the FPU issues without a per-op latency match;
//! * the stream-register roles of FP operands (pops per stream,
//!   destination stream) are resolved, so the FPU never maps a register
//!   to a stream while issuing;
//! * multi-cycle issue costs (`li` pairs, `ssr_setup` write counts) are
//!   precomputed;
//! * the `Box<SsrCfg>` payload of [`Instr::SsrSetup`] moves into a side
//!   table of the [`ExecTable`], and the op keeps an index: the rare
//!   `ssr_setup` no longer sets the size of every op.
//!
//! Every decoded op is `Copy` and three words long; a core fetches by
//! value (`table[pc]`) and the cycle loop touches no allocator. See the
//! crate docs for the full list of hot-loop invariants.
//!
//! The decoded ops are also the form external analyzers read
//! ([`ExecTable::ops`], [`ExecTable::ssr_cfg`]): the `saris-verify`
//! interpreter walks them instead of matching `Instr` a second time.

use saris_isa::{Instr, Program, SsrCfg};

use crate::config::ClusterConfig;
use crate::fpu::FpArithOp;

/// One pre-decoded instruction, sized and shaped for by-value fetch.
///
/// Public as a *read-only* view ([`ExecTable::ops`]): an analyzer such as
/// the `saris-verify` interpreter walks the same decoded form the cores
/// execute, with issue costs, FP latencies and flops already resolved,
/// instead of re-deriving them from [`Instr`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // fields mirror the `Instr` variant of the same name
pub enum Op {
    /// `li` with its issue cost resolved (1 or 2 cycles).
    Li {
        rd: saris_isa::IntReg,
        imm: i64,
        cost: u32,
    },
    /// `addi`
    Addi {
        rd: saris_isa::IntReg,
        rs1: saris_isa::IntReg,
        imm: i32,
    },
    /// `add`
    Add {
        rd: saris_isa::IntReg,
        rs1: saris_isa::IntReg,
        rs2: saris_isa::IntReg,
    },
    /// `sub`
    Sub {
        rd: saris_isa::IntReg,
        rs1: saris_isa::IntReg,
        rs2: saris_isa::IntReg,
    },
    /// `mul`
    Mul {
        rd: saris_isa::IntReg,
        rs1: saris_isa::IntReg,
        rs2: saris_isa::IntReg,
    },
    /// `slli`
    Slli {
        rd: saris_isa::IntReg,
        rs1: saris_isa::IntReg,
        shamt: u8,
    },
    /// `lw`
    Lw {
        rd: saris_isa::IntReg,
        base: saris_isa::IntReg,
        imm: i32,
    },
    /// `sw`
    Sw {
        rs2: saris_isa::IntReg,
        base: saris_isa::IntReg,
        imm: i32,
    },
    /// A conditional branch to instruction index `target`.
    Branch {
        cond: saris_isa::BranchCond,
        rs1: saris_isa::IntReg,
        rs2: saris_isa::IntReg,
        target: u32,
    },
    /// An unconditional jump to instruction index `target`.
    Jump { target: u32 },
    /// `fld` (`is_load`) or `fsd`: resolved to the FP LSU at offload time.
    FpMem {
        is_load: bool,
        reg: saris_isa::FpReg,
        base: saris_isa::IntReg,
        imm: i32,
    },
    /// FP arithmetic with operands and latency fully decoded.
    FpArith(FpArithOp),
    /// An FREP hardware loop over the next `n_instrs` ops; `fits` is
    /// [`ClusterConfig::frep_body_fits`] of the decoding configuration.
    Frep {
        count: saris_isa::FrepCount,
        n_instrs: u8,
        fits: bool,
    },
    /// `ssr_enable`
    SsrEnable,
    /// `ssr_disable`
    SsrDisable,
    /// `ssr_setup` with the configuration in the table's side array
    /// ([`ExecTable::ssr_cfg`]) and the issue cost
    /// (configuration-register write count) precomputed.
    SsrSetup {
        ssr: saris_isa::SsrId,
        cfg: u32,
        cost: u32,
    },
    /// `ssr_set_base`
    SsrSetBase {
        ssr: saris_isa::SsrId,
        rs1: saris_isa::IntReg,
    },
    /// `ssr_commit`
    SsrCommit { ssrs: saris_isa::SsrSet },
    /// `nop`
    Nop,
    /// `halt`
    Halt,
}

impl Op {
    /// Issue cycles consumed on the single-issue integer core (`li`
    /// pairs and `ssr_setup` configuration writes cost extra).
    pub fn issue_cost(&self) -> u32 {
        match self {
            Op::Li { cost, .. } | Op::SsrSetup { cost, .. } => *cost,
            _ => 1,
        }
    }
}

/// A [`Program`] decoded once, up front, into dense per-pc ops.
///
/// Tables are immutable and shareable: [`Cluster::load_program_all`]
/// decodes once and hands every core the same `Arc<ExecTable>`.
///
/// [`Cluster::load_program_all`]: crate::Cluster::load_program_all
#[derive(Debug)]
pub struct ExecTable {
    ops: Vec<Op>,
    /// `ssr_setup` payloads, indexed by [`Op::SsrSetup`]'s `cfg`.
    ssr_cfgs: Vec<SsrCfg>,
    /// The longest FREP body in the program (0 without an FREP).
    max_frep_body: usize,
}

impl ExecTable {
    /// Decodes `program` against `cfg` (which supplies the FP latencies).
    pub fn decode(program: &Program, cfg: &ClusterConfig) -> ExecTable {
        let mut ssr_cfgs = Vec::new();
        let ops: Vec<Op> = program
            .instrs()
            .iter()
            .map(|instr| decode_instr(instr, cfg, &mut ssr_cfgs))
            .collect();
        let max_frep_body = ops
            .iter()
            .map(|op| match op {
                Op::Frep { n_instrs, .. } => *n_instrs as usize,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        ExecTable {
            ops,
            ssr_cfgs,
            max_frep_body,
        }
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Every decoded op, indexed by pc.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The decoded op at `pc`, if in range.
    pub(crate) fn get(&self, pc: usize) -> Option<Op> {
        self.ops.get(pc).copied()
    }

    /// The longest FREP body in the program (0 without an FREP).
    pub(crate) fn max_frep_body(&self) -> usize {
        self.max_frep_body
    }

    /// The stream configuration an [`Op::SsrSetup`] of this table names.
    ///
    /// # Panics
    ///
    /// If `index` does not come from an op of this table.
    pub fn ssr_cfg(&self, index: u32) -> SsrCfg {
        self.ssr_cfgs[index as usize]
    }
}

fn decode_instr(instr: &Instr, cfg: &ClusterConfig, ssr_cfgs: &mut Vec<SsrCfg>) -> Op {
    match instr {
        Instr::Li { rd, imm } => Op::Li {
            rd: *rd,
            imm: *imm,
            cost: instr.issue_cost(),
        },
        Instr::Addi { rd, rs1, imm } => Op::Addi {
            rd: *rd,
            rs1: *rs1,
            imm: *imm,
        },
        Instr::Add { rd, rs1, rs2 } => Op::Add {
            rd: *rd,
            rs1: *rs1,
            rs2: *rs2,
        },
        Instr::Sub { rd, rs1, rs2 } => Op::Sub {
            rd: *rd,
            rs1: *rs1,
            rs2: *rs2,
        },
        Instr::Mul { rd, rs1, rs2 } => Op::Mul {
            rd: *rd,
            rs1: *rs1,
            rs2: *rs2,
        },
        Instr::Slli { rd, rs1, shamt } => Op::Slli {
            rd: *rd,
            rs1: *rs1,
            shamt: *shamt,
        },
        Instr::Lw { rd, base, imm } => Op::Lw {
            rd: *rd,
            base: *base,
            imm: *imm,
        },
        Instr::Sw { rs2, base, imm } => Op::Sw {
            rs2: *rs2,
            base: *base,
            imm: *imm,
        },
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => Op::Branch {
            cond: *cond,
            rs1: *rs1,
            rs2: *rs2,
            target: *target as u32,
        },
        Instr::Jump { target } => Op::Jump {
            target: *target as u32,
        },
        Instr::Fld { rd, base, imm } => Op::FpMem {
            is_load: true,
            reg: *rd,
            base: *base,
            imm: *imm,
        },
        Instr::Fsd { rs2, base, imm } => Op::FpMem {
            is_load: false,
            reg: *rs2,
            base: *base,
            imm: *imm,
        },
        Instr::FpR { .. } | Instr::FpR4 { .. } | Instr::FpU { .. } => {
            Op::FpArith(FpArithOp::decode(instr, cfg).expect("FP arithmetic"))
        }
        Instr::Frep { count, n_instrs } => Op::Frep {
            count: *count,
            n_instrs: *n_instrs,
            fits: cfg.frep_body_fits(usize::from(*n_instrs)),
        },
        Instr::SsrEnable => Op::SsrEnable,
        Instr::SsrDisable => Op::SsrDisable,
        Instr::SsrSetup { ssr, cfg: ssr_cfg } => {
            ssr_cfgs.push(**ssr_cfg);
            Op::SsrSetup {
                ssr: *ssr,
                cfg: (ssr_cfgs.len() - 1) as u32,
                cost: instr.issue_cost(),
            }
        }
        Instr::SsrSetBase { ssr, rs1 } => Op::SsrSetBase {
            ssr: *ssr,
            rs1: *rs1,
        },
        Instr::SsrCommit { ssrs } => Op::SsrCommit { ssrs: *ssrs },
        Instr::Nop => Op::Nop,
        Instr::Halt => Op::Halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_isa::{FpROp, FpReg, IntReg, ProgramBuilder};

    #[test]
    fn decode_preserves_length_and_costs() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, 1 << 20); // 2-cycle li
        b.push(Instr::FpR {
            op: FpROp::Add,
            rd: FpReg::FT3,
            rs1: FpReg::FT4,
            rs2: FpReg::FT5,
        });
        b.push(Instr::Halt);
        let program = b.finish().unwrap();
        let cfg = ClusterConfig::snitch();
        let table = ExecTable::decode(&program, &cfg);
        assert_eq!(table.len(), program.len());
        assert!(matches!(table.get(0), Some(Op::Li { cost: 2, .. })));
        match table.get(1) {
            Some(Op::FpArith(op)) => {
                assert_eq!(op.latency(), cfg.fpu_latency_add as u64);
                assert_eq!(op.operands().n_srcs, 2);
            }
            other => panic!("expected decoded FP arithmetic, got {other:?}"),
        }
        assert!(matches!(table.get(2), Some(Op::Halt)));
        assert_eq!(table.get(3), None);
    }

    #[test]
    fn ops_view_exposes_costs_latencies_and_flops() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, 1 << 20); // 2-cycle li
        b.push(Instr::FpR4 {
            op: saris_isa::FpR4Op::Madd,
            rd: FpReg::FT3,
            rs1: FpReg::FT4,
            rs2: FpReg::FT5,
            rs3: FpReg::FT3,
        });
        b.push(Instr::Halt);
        let cfg = ClusterConfig::snitch();
        let table = ExecTable::decode(&b.finish().unwrap(), &cfg);
        let ops = table.ops();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].issue_cost(), 2);
        assert_eq!(ops[1].issue_cost(), 1);
        let Op::FpArith(fma) = ops[1] else {
            panic!("expected decoded FP arithmetic, got {:?}", ops[1]);
        };
        assert_eq!(fma.latency(), cfg.fpu_latency_fma as u64);
        assert_eq!(fma.flops(), 2);
        assert_eq!(ops[2], Op::Halt);
    }

    #[test]
    fn ssr_setup_payload_is_out_of_line() {
        let mut b = ProgramBuilder::new();
        let cfg = saris_isa::SsrCfg::Affine(saris_isa::AffineCfg {
            dir: saris_isa::StreamDir::Read,
            base: crate::config::TCDM_BASE,
            dims: 2,
            strides: [8, 64, 0, 0],
            bounds: [4, 4, 1, 1],
        });
        b.push(Instr::SsrSetup {
            ssr: saris_isa::SsrId::Ssr0,
            cfg: Box::new(cfg),
        });
        b.push(Instr::Halt);
        let table = ExecTable::decode(&b.finish().unwrap(), &ClusterConfig::snitch());
        match table.get(0) {
            Some(Op::SsrSetup {
                cfg: decoded, cost, ..
            }) => {
                assert_eq!(table.ssr_cfg(decoded), cfg);
                assert_eq!(cost, cfg.write_count());
            }
            other => panic!("expected ssr_setup, got {other:?}"),
        }
        // The payload no longer sizes the op a core copies every fetch.
        assert!(std::mem::size_of::<Op>() <= 24);
        assert!(std::mem::size_of::<SsrCfg>() > 24);
    }
}
