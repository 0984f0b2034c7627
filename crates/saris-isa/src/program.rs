//! Programs and the label-resolving [`ProgramBuilder`].

use std::fmt;

use crate::error::BuildProgramError;
use crate::instr::{BranchCond, Instr, SsrCfg};
use crate::reg::IntReg;

/// A forward-referencable code label handed out by [`ProgramBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A validated, executable instruction sequence.
///
/// Programs are created through [`ProgramBuilder`], which resolves labels
/// and enforces structural invariants (immediate ranges, in-range branch
/// targets, FP-only FREP bodies, termination).
///
/// # Examples
///
/// ```
/// use saris_isa::program::ProgramBuilder;
/// use saris_isa::instr::Instr;
/// use saris_isa::reg::IntReg;
///
/// # fn main() -> Result<(), saris_isa::error::BuildProgramError> {
/// let mut b = ProgramBuilder::new();
/// b.li(IntReg::T0, 4);
/// let loop_head = b.bind_here();
/// b.addi(IntReg::T0, IntReg::T0, -1);
/// b.bne(IntReg::T0, IntReg::ZERO, loop_head);
/// b.push(Instr::Halt);
/// let prog = b.finish()?;
/// assert_eq!(prog.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    instrs: Vec<Instr>,
    /// `(instr index, name)` markers kept for disassembly only.
    markers: Vec<(usize, String)>,
}

impl Program {
    /// The instructions in execution order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `pc`, if in range.
    pub fn get(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// Named positions recorded during construction (for disassembly).
    pub fn markers(&self) -> &[(usize, String)] {
        &self.markers
    }

    /// Iterates over `(index, instr)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Instr)> {
        self.instrs.iter().enumerate()
    }

    /// Builds a program directly from raw instructions, *bypassing*
    /// [`validate`]. Exists so analyzers and negative tests can construct
    /// deliberately malformed programs (dangling branches, missing
    /// `halt`, corrupted stream configurations) that [`ProgramBuilder`]
    /// would refuse; never hand such a program to the simulator without
    /// validating it first.
    pub fn from_raw_instrs(instrs: Vec<Instr>) -> Program {
        Program {
            instrs,
            markers: Vec::new(),
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, instr) in self.instrs.iter().enumerate() {
            for (pos, name) in &self.markers {
                if *pos == i {
                    writeln!(f, "{name}:")?;
                }
            }
            writeln!(f, "  {i:4}  {instr}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum LabelState {
    Unbound,
    Bound(usize),
}

/// Incremental builder for [`Program`]s with label resolution and
/// convenience emitters for common instructions.
///
/// See [`Program`] for a usage example.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    labels: Vec<LabelState>,
    /// Branches awaiting resolution: `(instr index, label)`.
    patches: Vec<(usize, Label)>,
    markers: Vec<(usize, String)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Current position (index of the next pushed instruction).
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Declares a new, not-yet-bound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(LabelState::Unbound);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (a builder bug; rebinding is
    /// also reported as [`BuildProgramError::RebindLabel`] from
    /// [`finish`](Self::finish) when it can be deferred).
    pub fn bind(&mut self, label: Label) {
        match self.labels[label.0] {
            LabelState::Unbound => self.labels[label.0] = LabelState::Bound(self.here()),
            LabelState::Bound(_) => panic!("label {} bound more than once", label.0),
        }
    }

    /// Declares and binds a label at the current position.
    pub fn bind_here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Records a named marker at the current position (disassembly aid).
    pub fn marker(&mut self, name: impl Into<String>) {
        self.markers.push((self.here(), name.into()));
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    /// Appends `li rd, imm`.
    pub fn li(&mut self, rd: IntReg, imm: i64) -> &mut Self {
        self.push(Instr::Li { rd, imm })
    }

    /// Appends `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: IntReg, rs1: IntReg, imm: i32) -> &mut Self {
        self.push(Instr::Addi { rd, rs1, imm })
    }

    /// Appends `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) -> &mut Self {
        self.push(Instr::Add { rd, rs1, rs2 })
    }

    /// Appends `mv rd, rs` (as `addi rd, rs, 0`).
    pub fn mv(&mut self, rd: IntReg, rs: IntReg) -> &mut Self {
        self.addi(rd, rs, 0)
    }

    /// Appends a conditional branch to `label`.
    pub fn branch(
        &mut self,
        cond: BranchCond,
        rs1: IntReg,
        rs2: IntReg,
        label: Label,
    ) -> &mut Self {
        let at = self.here();
        self.patches.push((at, label));
        self.push(Instr::Branch {
            cond,
            rs1,
            rs2,
            target: usize::MAX,
        })
    }

    /// Appends `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: IntReg, rs2: IntReg, label: Label) -> &mut Self {
        self.branch(BranchCond::Ne, rs1, rs2, label)
    }

    /// Appends `blt rs1, rs2, label`.
    pub fn blt(&mut self, rs1: IntReg, rs2: IntReg, label: Label) -> &mut Self {
        self.branch(BranchCond::Lt, rs1, rs2, label)
    }

    /// Appends `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: IntReg, rs2: IntReg, label: Label) -> &mut Self {
        self.branch(BranchCond::Eq, rs1, rs2, label)
    }

    /// Appends an unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        let at = self.here();
        self.patches.push((at, label));
        self.push(Instr::Jump { target: usize::MAX })
    }

    /// Resolves labels, validates, and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildProgramError`] if a referenced label is unbound, an
    /// immediate exceeds its 12-bit field, a branch target is out of range
    /// or lands inside an FREP body, an FREP body contains non-FP
    /// instructions, a stream configuration is one the simulator cannot
    /// represent (an affine nest outside 1–4 dimensions or of more than
    /// `u32::MAX` elements per job, an index shift of 64 bits or more),
    /// or the program can fall off the end without `halt`.
    pub fn finish(mut self) -> Result<Program, BuildProgramError> {
        // Resolve labels.
        for (at, label) in &self.patches {
            let pos = match self.labels[label.0] {
                LabelState::Bound(pos) => pos,
                LabelState::Unbound => {
                    return Err(BuildProgramError::UnboundLabel { label: label.0 })
                }
            };
            match &mut self.instrs[*at] {
                Instr::Branch { target, .. } | Instr::Jump { target } => *target = pos,
                other => unreachable!("patch points at non-branch {other}"),
            }
        }
        let program = Program {
            instrs: self.instrs,
            markers: self.markers,
        };
        validate(&program)?;
        Ok(program)
    }
}

/// Checks the structural invariants of a program.
///
/// # Errors
///
/// See [`ProgramBuilder::finish`].
pub fn validate(program: &Program) -> Result<(), BuildProgramError> {
    let n = program.len();
    // Collect FREP body ranges for the branch-target check.
    let mut frep_body = vec![false; n];
    for (i, instr) in program.iter() {
        match instr {
            Instr::Frep { n_instrs, .. } => {
                let body_start = i + 1;
                let body_end = body_start + *n_instrs as usize;
                if *n_instrs == 0 {
                    return Err(BuildProgramError::InvalidFrepBody {
                        at: i,
                        reason: "frep body is empty",
                    });
                }
                if body_end > n {
                    return Err(BuildProgramError::InvalidFrepBody {
                        at: i,
                        reason: "frep body extends past end of program",
                    });
                }
                for (j, flag) in frep_body[body_start..body_end].iter_mut().enumerate() {
                    if !program.instrs()[body_start + j].is_fp() {
                        return Err(BuildProgramError::InvalidFrepBody {
                            at: i,
                            reason: "frep body contains a non-FP instruction",
                        });
                    }
                    *flag = true;
                }
            }
            Instr::Addi { imm, .. }
            | Instr::Lw { imm, .. }
            | Instr::Sw { imm, .. }
            | Instr::Fld { imm, .. }
            | Instr::Fsd { imm, .. }
                if !(-2048..=2047).contains(imm) =>
            {
                return Err(BuildProgramError::ImmOutOfRange {
                    at: i,
                    imm: *imm as i64,
                });
            }
            Instr::SsrSetup { cfg, .. } => stream_config(i, cfg)?,
            _ => {}
        }
    }
    for (i, instr) in program.iter() {
        if let Instr::Branch { target, .. } | Instr::Jump { target } = instr {
            if *target >= n {
                return Err(BuildProgramError::TargetOutOfRange {
                    at: i,
                    target: *target,
                });
            }
            if frep_body[*target] {
                return Err(BuildProgramError::BranchIntoFrepBody {
                    at: i,
                    target: *target,
                });
            }
        }
    }
    // Termination: the last instruction must be a halt or an unconditional
    // jump (a conditional branch can fall through into nothing).
    match program.instrs().last() {
        Some(Instr::Halt) | Some(Instr::Jump { .. }) => Ok(()),
        _ => Err(BuildProgramError::MissingHalt),
    }
}

/// Refuses a stream configuration the simulator cannot represent: it
/// counts a job's elements in a `u32` and shifts a 64-bit index.
fn stream_config(at: usize, cfg: &SsrCfg) -> Result<(), BuildProgramError> {
    match cfg {
        SsrCfg::Affine(a) if !(1..=4).contains(&a.dims) => {
            Err(BuildProgramError::InvalidAffineStream {
                at,
                reason: "the loop nest must have 1 to 4 dimensions",
            })
        }
        SsrCfg::Affine(a) if a.total_elems().is_none() => {
            Err(BuildProgramError::InvalidAffineStream {
                at,
                reason: "the bounds multiply past u32::MAX elements per job",
            })
        }
        SsrCfg::Indirect(i) if i.shift >= 64 => Err(BuildProgramError::InvalidIndirectStream {
            at,
            reason: "the index shift must be below 64 bits",
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{FpROp, FrepCount};
    use crate::reg::FpReg;

    fn fp_add() -> Instr {
        Instr::FpR {
            op: FpROp::Add,
            rd: FpReg::FT3,
            rs1: FpReg::FT4,
            rs2: FpReg::FT5,
        }
    }

    #[test]
    fn build_simple_loop() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, 4);
        let head = b.bind_here();
        b.addi(IntReg::T0, IntReg::T0, -1);
        b.bne(IntReg::T0, IntReg::ZERO, head);
        b.push(Instr::Halt);
        let p = b.finish().unwrap();
        assert_eq!(p.len(), 4);
        match &p.instrs()[2] {
            Instr::Branch { target, .. } => assert_eq!(*target, 1),
            other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn forward_label() {
        let mut b = ProgramBuilder::new();
        let end = b.label();
        b.beq(IntReg::T0, IntReg::ZERO, end);
        b.addi(IntReg::T0, IntReg::T0, 1);
        b.bind(end);
        b.push(Instr::Halt);
        let p = b.finish().unwrap();
        match &p.instrs()[0] {
            Instr::Branch { target, .. } => assert_eq!(*target, 2),
            other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn unbound_label_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bne(IntReg::T0, IntReg::ZERO, l);
        b.push(Instr::Halt);
        assert_eq!(
            b.finish().unwrap_err(),
            BuildProgramError::UnboundLabel { label: 0 }
        );
    }

    #[test]
    fn missing_halt_is_error() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::T0, 1);
        assert_eq!(b.finish().unwrap_err(), BuildProgramError::MissingHalt);
    }

    #[test]
    fn imm_range_checked() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Fld {
            rd: FpReg::FT3,
            base: IntReg::T0,
            imm: 2048,
        });
        b.push(Instr::Halt);
        assert!(matches!(
            b.finish().unwrap_err(),
            BuildProgramError::ImmOutOfRange { at: 0, imm: 2048 }
        ));
    }

    /// A program that configures one stream with `cfg` at index 0.
    fn stream_program(cfg: SsrCfg) -> Result<Program, BuildProgramError> {
        let mut b = ProgramBuilder::new();
        b.push(Instr::SsrSetup {
            ssr: crate::instr::SsrId::Ssr0,
            cfg: Box::new(cfg),
        });
        b.push(Instr::Halt);
        b.finish()
    }

    fn affine(dims: u8, bounds: [u32; 4]) -> SsrCfg {
        SsrCfg::Affine(crate::instr::AffineCfg {
            dir: crate::instr::StreamDir::Read,
            base: 0x1_0000,
            dims,
            strides: [8, 64, 512, 4096],
            bounds,
        })
    }

    fn indirect(shift: u8) -> SsrCfg {
        SsrCfg::Indirect(crate::instr::IndirectCfg {
            dir: crate::instr::StreamDir::Read,
            idx_base: 0x1_0000,
            idx_count: 8,
            idx_width: crate::instr::IndexWidth::U16,
            shift,
        })
    }

    #[test]
    fn affine_streams_past_u32_elements_are_refused() {
        // 2^16 x 2^16 is one past what a job counts; one less fits.
        let err = stream_program(affine(2, [1 << 16, 1 << 16, 1, 1])).unwrap_err();
        assert!(
            matches!(err, BuildProgramError::InvalidAffineStream { at: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("u32::MAX"), "{err}");
        // Four full bounds overflow even a u64 product.
        let err = stream_program(affine(4, [u32::MAX; 4])).unwrap_err();
        assert!(matches!(
            err,
            BuildProgramError::InvalidAffineStream { at: 0, .. }
        ));
        stream_program(affine(2, [(1 << 16) - 1, 1 << 16, 1, 1])).unwrap();
        // Bounds past `dims` do not count.
        stream_program(affine(1, [u32::MAX, u32::MAX, 0, 0])).unwrap();
    }

    #[test]
    fn affine_streams_outside_four_dimensions_are_refused() {
        for dims in [0, 5, u8::MAX] {
            let err = stream_program(affine(dims, [4, 4, 4, 4])).unwrap_err();
            assert!(
                matches!(err, BuildProgramError::InvalidAffineStream { at: 0, .. }),
                "{err}"
            );
            assert!(err.to_string().contains("1 to 4 dimensions"), "{err}");
        }
        stream_program(affine(4, [4, 4, 4, 4])).unwrap();
    }

    #[test]
    fn indirect_shifts_of_64_bits_are_refused() {
        for shift in [64, u8::MAX] {
            let err = stream_program(indirect(shift)).unwrap_err();
            assert!(
                matches!(err, BuildProgramError::InvalidIndirectStream { at: 0, .. }),
                "{err}"
            );
            assert!(err.to_string().contains("below 64 bits"), "{err}");
        }
        stream_program(indirect(63)).unwrap();
    }

    #[test]
    fn frep_body_must_be_fp() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Frep {
            count: FrepCount::Imm(3),
            n_instrs: 2,
        });
        b.push(fp_add());
        b.li(IntReg::T0, 0); // non-FP inside body
        b.push(Instr::Halt);
        assert!(matches!(
            b.finish().unwrap_err(),
            BuildProgramError::InvalidFrepBody { at: 0, .. }
        ));
    }

    #[test]
    fn frep_body_past_end_is_error() {
        let mut b = ProgramBuilder::new();
        b.push(fp_add());
        b.push(Instr::Frep {
            count: FrepCount::Imm(3),
            n_instrs: 4,
        });
        b.push(fp_add());
        b.push(Instr::Halt);
        assert!(matches!(
            b.finish().unwrap_err(),
            BuildProgramError::InvalidFrepBody { at: 1, .. }
        ));
    }

    #[test]
    fn branch_into_frep_body_is_error() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Frep {
            count: FrepCount::Imm(1),
            n_instrs: 1,
        });
        let inside = b.bind_here();
        b.push(fp_add());
        b.bne(IntReg::T0, IntReg::ZERO, inside);
        b.push(Instr::Halt);
        assert!(matches!(
            b.finish().unwrap_err(),
            BuildProgramError::BranchIntoFrepBody { .. }
        ));
    }

    #[test]
    fn valid_frep_program() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Frep {
            count: FrepCount::Imm(7),
            n_instrs: 1,
        });
        b.push(fp_add());
        b.push(Instr::Halt);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn display_includes_markers() {
        let mut b = ProgramBuilder::new();
        b.marker("entry");
        b.li(IntReg::T0, 1);
        b.push(Instr::Halt);
        let p = b.finish().unwrap();
        let text = p.to_string();
        assert!(text.contains("entry:"), "missing marker in:\n{text}");
        assert!(text.contains("li t0, 1"), "missing instr in:\n{text}");
    }
}
