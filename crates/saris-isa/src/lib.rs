//! # saris-isa — RV32G-like IR with SSSR and FREP extensions
//!
//! This crate defines the instruction set executed by the `snitch-sim`
//! cluster simulator and emitted by the `saris-codegen` stencil code
//! generators. It mirrors the software-visible architecture of the PULP
//! Snitch cluster used in the SARIS paper (DAC 2024):
//!
//! * a single-issue RV32G-like integer core front end,
//! * a double-precision FP subsystem reached by instruction offloading,
//! * three **stream registers** mapped onto `ft0..ft2` — two
//!   indirection-capable, one affine — configured statically with
//!   [`instr::Instr::SsrSetup`] and launched dynamically with
//!   [`instr::Instr::SsrSetBase`] + [`instr::Instr::SsrCommit`]
//!   (3 instructions for a two-stream launch, exactly the paper's `SRIR`),
//! * the **FREP** hardware loop ([`instr::Instr::Frep`]).
//!
//! It is an IR rather than a bit-exact encoding: instructions carry typed
//! registers and resolved immediates, and programs are validated by
//! [`program::ProgramBuilder`].
//!
//! # Examples
//!
//! Build and disassemble a tiny kernel:
//!
//! ```
//! use saris_isa::program::ProgramBuilder;
//! use saris_isa::instr::Instr;
//! use saris_isa::reg::IntReg;
//!
//! # fn main() -> Result<(), saris_isa::error::BuildProgramError> {
//! let mut b = ProgramBuilder::new();
//! b.marker("count down from 3");
//! b.li(IntReg::T0, 3);
//! let head = b.bind_here();
//! b.addi(IntReg::T0, IntReg::T0, -1);
//! b.bne(IntReg::T0, IntReg::ZERO, head);
//! b.push(Instr::Halt);
//! let program = b.finish()?;
//! println!("{program}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod error;
pub mod instr;
pub mod program;
pub mod reg;
pub mod stream;

pub use error::BuildProgramError;
pub use instr::{
    AffineCfg, BranchCond, FpOperands, FpR4Op, FpROp, FpUOp, FrepCount, IndexWidth, IndirectCfg,
    Instr, SsrCfg, SsrId, SsrSet, StreamDir,
};
pub use program::{Label, Program, ProgramBuilder};
pub use reg::{FpReg, IntReg};
pub use stream::{AffineWalk, Hull};
