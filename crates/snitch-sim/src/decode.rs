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

use saris_isa::{Instr, Program, SsrCfg};

use crate::config::ClusterConfig;
use crate::fpu::FpArithOp;

/// One pre-decoded instruction, sized and shaped for by-value fetch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// `li` with its issue cost resolved (1 or 2 cycles).
    Li {
        rd: saris_isa::IntReg,
        imm: i64,
        cost: u32,
    },
    Addi {
        rd: saris_isa::IntReg,
        rs1: saris_isa::IntReg,
        imm: i32,
    },
    Add {
        rd: saris_isa::IntReg,
        rs1: saris_isa::IntReg,
        rs2: saris_isa::IntReg,
    },
    Sub {
        rd: saris_isa::IntReg,
        rs1: saris_isa::IntReg,
        rs2: saris_isa::IntReg,
    },
    Mul {
        rd: saris_isa::IntReg,
        rs1: saris_isa::IntReg,
        rs2: saris_isa::IntReg,
    },
    Slli {
        rd: saris_isa::IntReg,
        rs1: saris_isa::IntReg,
        shamt: u8,
    },
    Lw {
        rd: saris_isa::IntReg,
        base: saris_isa::IntReg,
        imm: i32,
    },
    Sw {
        rs2: saris_isa::IntReg,
        base: saris_isa::IntReg,
        imm: i32,
    },
    Branch {
        cond: saris_isa::BranchCond,
        rs1: saris_isa::IntReg,
        rs2: saris_isa::IntReg,
        target: u32,
    },
    Jump {
        target: u32,
    },
    /// `fld` (`is_load`) or `fsd`: resolved to the FP LSU at offload time.
    FpMem {
        is_load: bool,
        reg: saris_isa::FpReg,
        base: saris_isa::IntReg,
        imm: i32,
    },
    /// FP arithmetic with operands and latency fully decoded.
    FpArith(FpArithOp),
    Frep {
        count: saris_isa::FrepCount,
        n_instrs: u8,
    },
    SsrEnable,
    SsrDisable,
    /// `ssr_setup` with the configuration in the table's side array
    /// ([`ExecTable::ssr_cfg`]) and the issue cost
    /// (configuration-register write count) precomputed.
    SsrSetup {
        ssr: saris_isa::SsrId,
        cfg: u32,
        cost: u32,
    },
    SsrSetBase {
        ssr: saris_isa::SsrId,
        rs1: saris_isa::IntReg,
    },
    SsrCommit {
        ssrs: saris_isa::SsrSet,
    },
    Nop,
    Halt,
}

/// Static per-instruction metadata resolved at decode time: everything an
/// external analyzer (e.g. the `saris-verify` static cost model) needs
/// about one pc without re-deriving the simulator's latency tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMeta {
    /// Issue cycles consumed on the single-issue integer core (`li`
    /// pairs and `ssr_setup` configuration writes cost extra).
    pub issue_cost: u32,
    /// FPU result latency in cycles, for FP arithmetic ops (`None` for
    /// everything else, including FP loads/stores).
    pub fp_latency: Option<u64>,
    /// Floating-point operations per execution (FMAs count 2).
    pub flops: u64,
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

    /// The decoded op at `pc`, if in range.
    pub(crate) fn get(&self, pc: usize) -> Option<Op> {
        self.ops.get(pc).copied()
    }

    /// The longest FREP body in the program (0 without an FREP).
    pub(crate) fn max_frep_body(&self) -> usize {
        self.max_frep_body
    }

    /// The stream configuration an [`Op::SsrSetup`] of this table names.
    pub(crate) fn ssr_cfg(&self, index: u32) -> SsrCfg {
        self.ssr_cfgs[index as usize]
    }

    /// The decode-time metadata of the op at `pc`, if in range.
    pub fn meta(&self, pc: usize) -> Option<OpMeta> {
        self.ops.get(pc).map(|op| match op {
            Op::Li { cost, .. } | Op::SsrSetup { cost, .. } => OpMeta {
                issue_cost: *cost,
                fp_latency: None,
                flops: 0,
            },
            Op::FpArith(fp) => OpMeta {
                issue_cost: 1,
                fp_latency: Some(fp.latency()),
                flops: fp.flops(),
            },
            _ => OpMeta {
                issue_cost: 1,
                fp_latency: None,
                flops: 0,
            },
        })
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
    fn meta_exposes_costs_latencies_and_flops() {
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
        let li = table.meta(0).unwrap();
        assert_eq!(li.issue_cost, 2);
        assert_eq!(li.fp_latency, None);
        let fma = table.meta(1).unwrap();
        assert_eq!(fma.issue_cost, 1);
        assert_eq!(fma.fp_latency, Some(cfg.fpu_latency_fma as u64));
        assert_eq!(fma.flops, 2);
        assert_eq!(table.meta(3), None);
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
