//! The instruction set understood by the Snitch cluster simulator.
//!
//! This is a structured, RV32G-like intermediate representation rather than
//! an encoding-exact ISA: instructions carry typed registers and resolved
//! immediates. It covers the subset emitted by the stencil code generators
//! plus the two Snitch extensions the paper relies on:
//!
//! * **SSR / SSSR** — stream registers. Static stream geometry is configured
//!   with [`Instr::SsrSetup`] (charged at its real write count), while the
//!   *dynamic* per-window indirection base flows through integer registers
//!   via [`Instr::SsrSetBase`] and is armed by [`Instr::SsrCommit`]; a
//!   two-stream launch is therefore 3 instructions, exactly as in the
//!   paper's Listing 1d.
//! * **FREP** — the [`Instr::Frep`] hardware loop, which replays the
//!   following block of FP instructions from a buffer without consuming
//!   integer-core issue slots (pseudo-dual issue).

use std::fmt;

use crate::reg::{FpReg, IntReg};

/// Identifier of one of the three stream registers.
///
/// `Ssr0`/`Ssr1` are indirection-capable, `Ssr2` is affine-only, mirroring
/// the SSSR configuration of the Snitch cluster used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SsrId {
    /// Stream register 0 (maps `ft0`); supports indirection.
    Ssr0,
    /// Stream register 1 (maps `ft1`); supports indirection.
    Ssr1,
    /// Stream register 2 (maps `ft2`); affine only.
    Ssr2,
}

impl SsrId {
    /// All stream registers in index order.
    pub const ALL: [SsrId; 3] = [SsrId::Ssr0, SsrId::Ssr1, SsrId::Ssr2];

    /// The numeric index (0..3).
    pub fn index(self) -> usize {
        match self {
            SsrId::Ssr0 => 0,
            SsrId::Ssr1 => 1,
            SsrId::Ssr2 => 2,
        }
    }

    /// The FP register this stream maps onto when SSRs are enabled.
    pub fn fp_reg(self) -> FpReg {
        match self {
            SsrId::Ssr0 => FpReg::FT0,
            SsrId::Ssr1 => FpReg::FT1,
            SsrId::Ssr2 => FpReg::FT2,
        }
    }

    /// The stream mapped by an FP register, if any.
    ///
    /// # Examples
    ///
    /// ```
    /// use saris_isa::instr::SsrId;
    /// use saris_isa::reg::FpReg;
    /// assert_eq!(SsrId::of_fp_reg(FpReg::FT1), Some(SsrId::Ssr1));
    /// assert_eq!(SsrId::of_fp_reg(FpReg::FT3), None);
    /// ```
    pub fn of_fp_reg(reg: FpReg) -> Option<SsrId> {
        match reg.index() {
            0 => Some(SsrId::Ssr0),
            1 => Some(SsrId::Ssr1),
            2 => Some(SsrId::Ssr2),
            _ => None,
        }
    }

    /// Whether this stream register supports indirect (index-array) streams.
    pub fn supports_indirection(self) -> bool {
        !matches!(self, SsrId::Ssr2)
    }
}

impl fmt::Display for SsrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sr{}", self.index())
    }
}

/// A set of stream registers, used by [`Instr::SsrCommit`].
///
/// # Examples
///
/// ```
/// use saris_isa::instr::{SsrId, SsrSet};
///
/// let set = SsrSet::of(SsrId::Ssr0).with(SsrId::Ssr1);
/// assert!(set.contains(SsrId::Ssr0));
/// assert!(!set.contains(SsrId::Ssr2));
/// assert_eq!(set.to_string(), "sr0|sr1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SsrSet(u8);

impl SsrSet {
    /// The empty set.
    pub const EMPTY: SsrSet = SsrSet(0);

    /// A set containing a single stream register.
    pub fn of(ssr: SsrId) -> SsrSet {
        SsrSet(1 << ssr.index())
    }

    /// Returns this set with `ssr` added.
    #[must_use]
    pub fn with(self, ssr: SsrId) -> SsrSet {
        SsrSet(self.0 | (1 << ssr.index()))
    }

    /// Whether `ssr` is in the set.
    pub fn contains(self, ssr: SsrId) -> bool {
        self.0 & (1 << ssr.index()) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of stream registers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the members in index order.
    pub fn iter(self) -> impl Iterator<Item = SsrId> {
        SsrId::ALL.into_iter().filter(move |s| self.contains(*s))
    }
}

impl fmt::Display for SsrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        let mut first = true;
        for ssr in self.iter() {
            if !first {
                f.write_str("|")?;
            }
            write!(f, "{ssr}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<SsrId> for SsrSet {
    fn from_iter<T: IntoIterator<Item = SsrId>>(iter: T) -> Self {
        iter.into_iter().fold(SsrSet::EMPTY, SsrSet::with)
    }
}

/// Direction of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamDir {
    /// Memory-to-register: register reads pop stream data.
    Read,
    /// Register-to-memory: register writes push stream data.
    Write,
}

impl fmt::Display for StreamDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamDir::Read => f.write_str("read"),
            StreamDir::Write => f.write_str("write"),
        }
    }
}

/// Width of the entries of an indirection index array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexWidth {
    /// 8-bit unsigned indices (8 per 64-bit fetch).
    U8,
    /// 16-bit unsigned indices (4 per 64-bit fetch).
    U16,
    /// 32-bit unsigned indices (2 per 64-bit fetch).
    U32,
}

impl IndexWidth {
    /// Size of one index in bytes.
    pub fn bytes(self) -> usize {
        match self {
            IndexWidth::U8 => 1,
            IndexWidth::U16 => 2,
            IndexWidth::U32 => 4,
        }
    }

    /// How many indices a single 64-bit memory fetch delivers.
    pub fn per_fetch(self) -> usize {
        8 / self.bytes()
    }

    /// Largest representable index value.
    pub fn max_value(self) -> u64 {
        match self {
            IndexWidth::U8 => u8::MAX as u64,
            IndexWidth::U16 => u16::MAX as u64,
            IndexWidth::U32 => u32::MAX as u64,
        }
    }
}

impl fmt::Display for IndexWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.bytes() * 8)
    }
}

/// Static configuration of an affine (strided loop-nest) stream.
///
/// The address sequence is, for a `dims`-deep nest with innermost dimension
/// 0:
///
/// ```text
/// for i3 in 0..bounds[3] { for i2 in .. { for i1 in .. { for i0 in .. {
///     yield base + i0*strides[0] + i1*strides[1] + i2*strides[2] + i3*strides[3]
/// }}}}
/// ```
///
/// `base` here is the *static* base; if an [`Instr::SsrSetBase`] executes
/// before the arming [`Instr::SsrCommit`], the staged register value is
/// added to `base`. [`crate::stream`] implements the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffineCfg {
    /// Stream direction.
    pub dir: StreamDir,
    /// Static byte base address.
    pub base: u64,
    /// Loop-nest depth, `1..=4`.
    pub dims: u8,
    /// Byte stride per dimension (innermost first).
    pub strides: [i64; 4],
    /// Iteration count per dimension (innermost first).
    pub bounds: [u32; 4],
}

impl AffineCfg {
    /// Total number of elements produced by one job of this stream, or
    /// `None` when `dims` is outside `1..=4` or the count does not fit
    /// the `u32` a streamer counts a job in.
    pub fn total_elems(&self) -> Option<u32> {
        if !(1..=4).contains(&self.dims) {
            return None;
        }
        self.bounds[..self.dims as usize]
            .iter()
            .try_fold(1u32, |n, &b| n.checked_mul(b))
    }

    /// Number of configuration-register writes this setup costs on the core.
    ///
    /// One write per used stride and bound, plus base and job-control words;
    /// this is what [`Instr::SsrSetup`] charges as issue cycles.
    pub fn write_count(&self) -> u32 {
        2 * self.dims as u32 + 2
    }
}

/// Static configuration of an indirect (index-array gather/scatter) stream.
///
/// One *job* (armed by [`Instr::SsrCommit`]) walks the index array once:
///
/// ```text
/// for i in 0..idx_count { yield base + (idx[i] << shift) }
/// ```
///
/// where `base` is the dynamic value staged by [`Instr::SsrSetBase`] and
/// `idx` is the little-endian packed index array at `idx_base`.
/// [`crate::stream`] implements the sequence and the array's format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndirectCfg {
    /// Stream direction.
    pub dir: StreamDir,
    /// Byte address of the index array in TCDM.
    pub idx_base: u64,
    /// Number of indices walked per job.
    pub idx_count: u32,
    /// Width of one index entry.
    pub idx_width: IndexWidth,
    /// Left shift applied to each index (3 for f64 elements).
    pub shift: u8,
}

impl IndirectCfg {
    /// Number of configuration-register writes this setup costs on the core.
    pub fn write_count(&self) -> u32 {
        4
    }
}

/// Static stream configuration: affine or indirect.
///
/// Configurations are plain `Copy` data (no heap payload): simulators can
/// carry them inline in pre-decoded execution tables and hand copies to
/// their streamers without allocating. The `Box` in [`Instr::SsrSetup`]
/// exists only to keep the *instruction* enum small.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsrCfg {
    /// Affine loop-nest stream.
    Affine(AffineCfg),
    /// Indirect index-array stream.
    Indirect(IndirectCfg),
}

impl SsrCfg {
    /// Stream direction.
    pub fn dir(&self) -> StreamDir {
        match self {
            SsrCfg::Affine(a) => a.dir,
            SsrCfg::Indirect(i) => i.dir,
        }
    }

    /// Number of configuration-register writes (issue cycles charged).
    pub fn write_count(&self) -> u32 {
        match self {
            SsrCfg::Affine(a) => a.write_count(),
            SsrCfg::Indirect(i) => i.write_count(),
        }
    }
}

/// Two-operand FP operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpROp {
    /// `fadd.d`
    Add,
    /// `fsub.d`
    Sub,
    /// `fmul.d`
    Mul,
    /// `fdiv.d`
    Div,
    /// `fmin.d`
    Min,
    /// `fmax.d`
    Max,
}

impl FpROp {
    fn mnemonic(self) -> &'static str {
        match self {
            FpROp::Add => "fadd.d",
            FpROp::Sub => "fsub.d",
            FpROp::Mul => "fmul.d",
            FpROp::Div => "fdiv.d",
            FpROp::Min => "fmin.d",
            FpROp::Max => "fmax.d",
        }
    }

    /// Applies the operation to two values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            FpROp::Add => a + b,
            FpROp::Sub => a - b,
            FpROp::Mul => a * b,
            FpROp::Div => a / b,
            FpROp::Min => a.min(b),
            FpROp::Max => a.max(b),
        }
    }
}

/// Fused three-operand FP operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpR4Op {
    /// `fmadd.d`: `rs1 * rs2 + rs3`
    Madd,
    /// `fmsub.d`: `rs1 * rs2 - rs3`
    Msub,
    /// `fnmadd.d`: `-(rs1 * rs2) - rs3`
    Nmadd,
    /// `fnmsub.d`: `-(rs1 * rs2) + rs3`
    Nmsub,
}

impl FpR4Op {
    fn mnemonic(self) -> &'static str {
        match self {
            FpR4Op::Madd => "fmadd.d",
            FpR4Op::Msub => "fmsub.d",
            FpR4Op::Nmadd => "fnmadd.d",
            FpR4Op::Nmsub => "fnmsub.d",
        }
    }

    /// Applies the fused operation (single rounding is not modelled; the
    /// host fused multiply-add is used, which matches RISC-V semantics).
    pub fn apply(self, a: f64, b: f64, c: f64) -> f64 {
        match self {
            FpR4Op::Madd => a.mul_add(b, c),
            FpR4Op::Msub => a.mul_add(b, -c),
            FpR4Op::Nmadd => -a.mul_add(b, c),
            FpR4Op::Nmsub => -a.mul_add(b, -c),
        }
    }
}

/// Single-operand FP operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpUOp {
    /// `fmv.d` (register move; `fsgnj.d rd, rs, rs`)
    Mv,
    /// `fabs.d`
    Abs,
    /// `fneg.d`
    Neg,
    /// `fsqrt.d`
    Sqrt,
}

impl FpUOp {
    fn mnemonic(self) -> &'static str {
        match self {
            FpUOp::Mv => "fmv.d",
            FpUOp::Abs => "fabs.d",
            FpUOp::Neg => "fneg.d",
            FpUOp::Sqrt => "fsqrt.d",
        }
    }

    /// Applies the operation.
    pub fn apply(self, a: f64) -> f64 {
        match self {
            FpUOp::Mv => a,
            FpUOp::Abs => a.abs(),
            FpUOp::Neg => -a,
            FpUOp::Sqrt => a.sqrt(),
        }
    }
}

/// Condition of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `beq`
    Eq,
    /// `bne`
    Ne,
    /// `blt` (signed)
    Lt,
    /// `bge` (signed)
    Ge,
    /// `bltu`
    Ltu,
    /// `bgeu`
    Geu,
}

impl BranchCond {
    fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }

    /// Evaluates the condition on two 64-bit register values.
    ///
    /// Signed comparisons interpret the values as `i64`.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Repetition count of a [`Instr::Frep`] hardware loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrepCount {
    /// Count taken from an integer register at issue time (`frep.o rs1, n`).
    /// The block executes `value + 1` times, as on real hardware.
    Reg(IntReg),
    /// Immediate count: the block executes `imm + 1` times.
    Imm(u32),
}

impl fmt::Display for FrepCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrepCount::Reg(r) => write!(f, "{r}"),
            FrepCount::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// One instruction of the simulated ISA.
///
/// Branch targets are absolute instruction indices within the owning
/// [`Program`](crate::program::Program); they are produced by the
/// [`ProgramBuilder`](crate::program::ProgramBuilder), which performs label
/// resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // ---- integer ----
    /// Load immediate (pseudo-instruction; costs 2 issue cycles when the
    /// value does not fit in 12 bits, mirroring `lui`+`addi`).
    Li {
        /// Destination register.
        rd: IntReg,
        /// Immediate value.
        imm: i64,
    },
    /// `addi rd, rs1, imm`
    Addi {
        /// Destination register.
        rd: IntReg,
        /// Source register.
        rs1: IntReg,
        /// 12-bit signed immediate.
        imm: i32,
    },
    /// `add rd, rs1, rs2`
    Add {
        /// Destination register.
        rd: IntReg,
        /// First source.
        rs1: IntReg,
        /// Second source.
        rs2: IntReg,
    },
    /// `sub rd, rs1, rs2`
    Sub {
        /// Destination register.
        rd: IntReg,
        /// First source.
        rs1: IntReg,
        /// Second source.
        rs2: IntReg,
    },
    /// `mul rd, rs1, rs2` (RV32M; used in kernel prologues)
    Mul {
        /// Destination register.
        rd: IntReg,
        /// First source.
        rs1: IntReg,
        /// Second source.
        rs2: IntReg,
    },
    /// `slli rd, rs1, shamt`
    Slli {
        /// Destination register.
        rd: IntReg,
        /// Source register.
        rs1: IntReg,
        /// Shift amount.
        shamt: u8,
    },
    /// `lw rd, imm(rs1)` — 32-bit load from TCDM.
    Lw {
        /// Destination register.
        rd: IntReg,
        /// Base address register.
        base: IntReg,
        /// 12-bit signed offset.
        imm: i32,
    },
    /// `sw rs2, imm(rs1)` — 32-bit store to TCDM.
    Sw {
        /// Source register.
        rs2: IntReg,
        /// Base address register.
        base: IntReg,
        /// 12-bit signed offset.
        imm: i32,
    },
    /// Conditional branch to an absolute instruction index.
    Branch {
        /// Branch condition.
        cond: BranchCond,
        /// First compared register.
        rs1: IntReg,
        /// Second compared register.
        rs2: IntReg,
        /// Absolute target instruction index.
        target: usize,
    },
    /// Unconditional jump to an absolute instruction index.
    Jump {
        /// Absolute target instruction index.
        target: usize,
    },

    // ---- floating point ----
    /// `fld rd, imm(rs1)` — 64-bit FP load.
    Fld {
        /// Destination FP register.
        rd: FpReg,
        /// Base address register.
        base: IntReg,
        /// 12-bit signed offset.
        imm: i32,
    },
    /// `fsd rs2, imm(rs1)` — 64-bit FP store.
    Fsd {
        /// Source FP register.
        rs2: FpReg,
        /// Base address register.
        base: IntReg,
        /// 12-bit signed offset.
        imm: i32,
    },
    /// Two-operand FP arithmetic.
    FpR {
        /// Operation kind.
        op: FpROp,
        /// Destination FP register.
        rd: FpReg,
        /// First source.
        rs1: FpReg,
        /// Second source.
        rs2: FpReg,
    },
    /// Fused three-operand FP arithmetic.
    FpR4 {
        /// Operation kind.
        op: FpR4Op,
        /// Destination FP register.
        rd: FpReg,
        /// Multiplicand.
        rs1: FpReg,
        /// Multiplier.
        rs2: FpReg,
        /// Addend.
        rs3: FpReg,
    },
    /// Single-operand FP operation.
    FpU {
        /// Operation kind.
        op: FpUOp,
        /// Destination FP register.
        rd: FpReg,
        /// Source register.
        rs1: FpReg,
    },

    // ---- SSR / FREP extensions ----
    /// Enable stream-register semantics for `ft0..ft2` (CSR write).
    SsrEnable,
    /// Disable stream-register semantics (CSR write).
    SsrDisable,
    /// Write the static configuration of a stream register.
    ///
    /// Issue cost equals [`SsrCfg::write_count`] to reflect the real number
    /// of configuration-register writes.
    SsrSetup {
        /// Configured stream.
        ssr: SsrId,
        /// The configuration payload.
        cfg: Box<SsrCfg>,
    },
    /// Stage the dynamic base address of a stream's next job from `rs1`.
    SsrSetBase {
        /// Target stream.
        ssr: SsrId,
        /// Register holding the byte base address.
        rs1: IntReg,
    },
    /// Arm (launch) a job on each stream in `ssrs` using the staged bases.
    SsrCommit {
        /// Streams to arm.
        ssrs: SsrSet,
    },
    /// `frep.o` hardware loop: repeat the following `n_instrs` FP
    /// instructions `count + 1` times from the sequencer buffer.
    Frep {
        /// Repetition count (executions = count + 1).
        count: FrepCount,
        /// Number of subsequent FP instructions in the loop body.
        n_instrs: u8,
    },

    // ---- misc ----
    /// No operation.
    Nop,
    /// Stop this core; the cluster finishes when all cores halt.
    Halt,
}

/// The operand registers of one FP arithmetic instruction, decoded into
/// fixed arrays — the allocation-free form execution tables store so hot
/// loops never build per-instruction operand `Vec`s.
///
/// Only the first [`n_srcs`](FpOperands::n_srcs) entries of
/// [`srcs`](FpOperands::srcs) are meaningful; the rest repeat the first
/// source so the array is always fully initialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpOperands {
    /// Destination register.
    pub rd: FpReg,
    /// Source registers (first `n_srcs` entries).
    pub srcs: [FpReg; 3],
    /// Number of meaningful source registers (1..=3).
    pub n_srcs: u8,
}

impl FpOperands {
    /// The meaningful source registers.
    pub fn srcs(&self) -> &[FpReg] {
        &self.srcs[..self.n_srcs as usize]
    }
}

impl Instr {
    /// Whether this instruction executes in the FP subsystem (and is thus a
    /// legal FREP body instruction and offloaded through the sequencer).
    pub fn is_fp(&self) -> bool {
        matches!(
            self,
            Instr::Fld { .. }
                | Instr::Fsd { .. }
                | Instr::FpR { .. }
                | Instr::FpR4 { .. }
                | Instr::FpU { .. }
        )
    }

    /// Whether this is an FP *arithmetic* operation (counts toward FPU
    /// utilization; loads/stores do not).
    pub fn is_fp_arith(&self) -> bool {
        matches!(
            self,
            Instr::FpR { .. } | Instr::FpR4 { .. } | Instr::FpU { .. }
        )
    }

    /// Floating-point operations contributed by one execution of this
    /// instruction (fused multiply-adds count 2, as in the paper).
    pub fn flops(&self) -> u64 {
        match self {
            Instr::FpR4 { .. } => 2,
            Instr::FpR { .. } => 1,
            Instr::FpU { op, .. } => match op {
                FpUOp::Mv => 0,
                _ => 1,
            },
            _ => 0,
        }
    }

    /// Issue cycles consumed on the single-issue integer core.
    pub fn issue_cost(&self) -> u32 {
        match self {
            Instr::Li { imm, .. } => {
                if (-2048..=2047).contains(imm) {
                    1
                } else {
                    2
                }
            }
            Instr::SsrSetup { cfg, .. } => cfg.write_count(),
            _ => 1,
        }
    }

    /// The decoded operand registers of an FP *arithmetic* instruction
    /// ([`Instr::FpR`], [`Instr::FpR4`], [`Instr::FpU`]), `None` for
    /// everything else.
    pub fn fp_operands(&self) -> Option<FpOperands> {
        match self {
            Instr::FpR { rd, rs1, rs2, .. } => Some(FpOperands {
                rd: *rd,
                srcs: [*rs1, *rs2, *rs1],
                n_srcs: 2,
            }),
            Instr::FpR4 {
                rd, rs1, rs2, rs3, ..
            } => Some(FpOperands {
                rd: *rd,
                srcs: [*rs1, *rs2, *rs3],
                n_srcs: 3,
            }),
            Instr::FpU { rd, rs1, .. } => Some(FpOperands {
                rd: *rd,
                srcs: [*rs1, *rs1, *rs1],
                n_srcs: 1,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instr::Addi { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Instr::Add { rd, rs1, rs2 } => write!(f, "add {rd}, {rs1}, {rs2}"),
            Instr::Sub { rd, rs1, rs2 } => write!(f, "sub {rd}, {rs1}, {rs2}"),
            Instr::Mul { rd, rs1, rs2 } => write!(f, "mul {rd}, {rs1}, {rs2}"),
            Instr::Slli { rd, rs1, shamt } => write!(f, "slli {rd}, {rs1}, {shamt}"),
            Instr::Lw { rd, base, imm } => write!(f, "lw {rd}, {imm}({base})"),
            Instr::Sw { rs2, base, imm } => write!(f, "sw {rs2}, {imm}({base})"),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "{} {rs1}, {rs2}, @{target}", cond.mnemonic()),
            Instr::Jump { target } => write!(f, "j @{target}"),
            Instr::Fld { rd, base, imm } => write!(f, "fld {rd}, {imm}({base})"),
            Instr::Fsd { rs2, base, imm } => write!(f, "fsd {rs2}, {imm}({base})"),
            Instr::FpR { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::FpR4 {
                op,
                rd,
                rs1,
                rs2,
                rs3,
            } => write!(f, "{} {rd}, {rs1}, {rs2}, {rs3}", op.mnemonic()),
            Instr::FpU { op, rd, rs1 } => write!(f, "{} {rd}, {rs1}", op.mnemonic()),
            Instr::SsrEnable => f.write_str("ssr_enable"),
            Instr::SsrDisable => f.write_str("ssr_disable"),
            Instr::SsrSetup { ssr, cfg } => match cfg.as_ref() {
                SsrCfg::Affine(a) => write!(
                    f,
                    "ssr_setup {ssr}, affine {} dims={} base={:#x}",
                    a.dir, a.dims, a.base
                ),
                SsrCfg::Indirect(i) => write!(
                    f,
                    "ssr_setup {ssr}, indirect {} idx@{:#x} n={} {}",
                    i.dir, i.idx_base, i.idx_count, i.idx_width
                ),
            },
            Instr::SsrSetBase { ssr, rs1 } => write!(f, "ssr_setbase {ssr}, {rs1}"),
            Instr::SsrCommit { ssrs } => write!(f, "ssr_commit {ssrs}"),
            Instr::Frep { count, n_instrs } => write!(f, "frep.o {count}, {n_instrs}"),
            Instr::Nop => f.write_str("nop"),
            Instr::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssr_set_operations() {
        let s = SsrSet::of(SsrId::Ssr0).with(SsrId::Ssr2);
        assert_eq!(s.len(), 2);
        assert!(s.contains(SsrId::Ssr0));
        assert!(!s.contains(SsrId::Ssr1));
        assert!(s.contains(SsrId::Ssr2));
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members, vec![SsrId::Ssr0, SsrId::Ssr2]);
        assert_eq!(s.to_string(), "sr0|sr2");
        assert_eq!(SsrSet::EMPTY.to_string(), "none");
    }

    #[test]
    fn ssr_set_from_iterator() {
        let s: SsrSet = [SsrId::Ssr1, SsrId::Ssr0].into_iter().collect();
        assert_eq!(s, SsrSet::of(SsrId::Ssr0).with(SsrId::Ssr1));
    }

    #[test]
    fn ssr_fp_reg_mapping_roundtrip() {
        for ssr in SsrId::ALL {
            assert_eq!(SsrId::of_fp_reg(ssr.fp_reg()), Some(ssr));
        }
    }

    #[test]
    fn indirection_capability() {
        assert!(SsrId::Ssr0.supports_indirection());
        assert!(SsrId::Ssr1.supports_indirection());
        assert!(!SsrId::Ssr2.supports_indirection());
    }

    #[test]
    fn index_width_packing() {
        assert_eq!(IndexWidth::U16.per_fetch(), 4);
        assert_eq!(IndexWidth::U8.per_fetch(), 8);
        assert_eq!(IndexWidth::U32.per_fetch(), 2);
        assert_eq!(IndexWidth::U16.max_value(), 65535);
    }

    #[test]
    fn fp_ops_semantics() {
        assert_eq!(FpROp::Add.apply(1.5, 2.0), 3.5);
        assert_eq!(FpROp::Sub.apply(1.5, 2.0), -0.5);
        assert_eq!(FpROp::Mul.apply(1.5, 2.0), 3.0);
        assert_eq!(FpR4Op::Madd.apply(2.0, 3.0, 1.0), 7.0);
        assert_eq!(FpR4Op::Msub.apply(2.0, 3.0, 1.0), 5.0);
        assert_eq!(FpR4Op::Nmadd.apply(2.0, 3.0, 1.0), -7.0);
        assert_eq!(FpR4Op::Nmsub.apply(2.0, 3.0, 1.0), -5.0);
        assert_eq!(FpUOp::Neg.apply(2.0), -2.0);
        assert_eq!(FpUOp::Abs.apply(-2.0), 2.0);
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Lt.eval((-1i64) as u64, 0));
        assert!(!BranchCond::Ltu.eval((-1i64) as u64, 0));
        assert!(BranchCond::Ge.eval(0, (-1i64) as u64));
        assert!(BranchCond::Geu.eval((-1i64) as u64, 0));
    }

    #[test]
    fn flops_counting() {
        let fma = Instr::FpR4 {
            op: FpR4Op::Madd,
            rd: FpReg::FT3,
            rs1: FpReg::FT4,
            rs2: FpReg::FT5,
            rs3: FpReg::FT3,
        };
        assert_eq!(fma.flops(), 2);
        assert!(fma.is_fp());
        assert!(fma.is_fp_arith());

        let fld = Instr::Fld {
            rd: FpReg::FT3,
            base: IntReg::T0,
            imm: 8,
        };
        assert_eq!(fld.flops(), 0);
        assert!(fld.is_fp());
        assert!(!fld.is_fp_arith());

        let mv = Instr::FpU {
            op: FpUOp::Mv,
            rd: FpReg::FT3,
            rs1: FpReg::FT4,
        };
        assert_eq!(mv.flops(), 0);
    }

    #[test]
    fn issue_costs() {
        assert_eq!(
            Instr::Li {
                rd: IntReg::T0,
                imm: 100
            }
            .issue_cost(),
            1
        );
        assert_eq!(
            Instr::Li {
                rd: IntReg::T0,
                imm: 1 << 20
            }
            .issue_cost(),
            2
        );
        let setup = Instr::SsrSetup {
            ssr: SsrId::Ssr2,
            cfg: Box::new(SsrCfg::Affine(AffineCfg {
                dir: StreamDir::Write,
                base: 0x1000,
                dims: 3,
                strides: [8, 64, 512, 0],
                bounds: [4, 4, 4, 1],
            })),
        };
        assert_eq!(setup.issue_cost(), 8);
    }

    #[test]
    fn affine_total_elems() {
        let a = AffineCfg {
            dir: StreamDir::Read,
            base: 0,
            dims: 3,
            strides: [8, 0, 0, 0],
            bounds: [5, 3, 2, 99],
        };
        assert_eq!(a.total_elems(), Some(30));
        let too_long = AffineCfg {
            dims: 2,
            bounds: [1 << 16, 1 << 16, 1, 1],
            ..a
        };
        assert_eq!(too_long.total_elems(), None);
        let widest = AffineCfg {
            dims: 4,
            bounds: [u32::MAX; 4],
            ..a
        };
        assert_eq!(widest.total_elems(), None);
        for dims in [0, 5] {
            assert_eq!(AffineCfg { dims, ..a }.total_elems(), None);
        }
    }

    #[test]
    fn display_formats() {
        let i = Instr::Branch {
            cond: BranchCond::Ne,
            rs1: IntReg::T0,
            rs2: IntReg::A0,
            target: 7,
        };
        assert_eq!(i.to_string(), "bne t0, a0, @7");
        assert_eq!(
            Instr::Frep {
                count: FrepCount::Imm(15),
                n_instrs: 5
            }
            .to_string(),
            "frep.o 15, 5"
        );
    }
}
