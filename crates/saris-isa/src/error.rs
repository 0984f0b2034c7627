//! Error types for program construction and validation.

use std::error::Error;
use std::fmt;

/// An error raised while building or validating a [`Program`].
///
/// [`Program`]: crate::program::Program
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildProgramError {
    /// A label was referenced by a branch but never bound to a position.
    UnboundLabel {
        /// The label's numeric id.
        label: usize,
    },
    /// A label was bound more than once.
    RebindLabel {
        /// The label's numeric id.
        label: usize,
    },
    /// An immediate does not fit the 12-bit signed field of its instruction.
    ImmOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The immediate value.
        imm: i64,
    },
    /// A branch or jump target is outside the program.
    TargetOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The resolved target.
        target: usize,
    },
    /// An FREP body contains a non-FP instruction or extends past the end
    /// of the program.
    InvalidFrepBody {
        /// Index of the `frep` instruction.
        at: usize,
        /// Explanation of the violation.
        reason: &'static str,
    },
    /// A branch target lands inside an FREP body.
    BranchIntoFrepBody {
        /// Index of the offending branch.
        at: usize,
        /// The resolved target.
        target: usize,
    },
    /// The program has no `halt` on some path (detected as: the final
    /// instruction can fall through).
    MissingHalt,
    /// An affine stream configuration the simulator cannot represent.
    InvalidAffineStream {
        /// Index of the `ssr_setup` instruction.
        at: usize,
        /// Explanation of the violation.
        reason: &'static str,
    },
    /// An indirect stream configuration the simulator cannot represent.
    InvalidIndirectStream {
        /// Index of the `ssr_setup` instruction.
        at: usize,
        /// Explanation of the violation.
        reason: &'static str,
    },
}

impl fmt::Display for BuildProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildProgramError::UnboundLabel { label } => {
                write!(f, "label {label} referenced but never bound")
            }
            BuildProgramError::RebindLabel { label } => {
                write!(f, "label {label} bound more than once")
            }
            BuildProgramError::ImmOutOfRange { at, imm } => {
                write!(
                    f,
                    "immediate {imm} at instruction {at} exceeds 12-bit range"
                )
            }
            BuildProgramError::TargetOutOfRange { at, target } => {
                write!(f, "branch at {at} targets out-of-range index {target}")
            }
            BuildProgramError::InvalidFrepBody { at, reason } => {
                write!(f, "invalid frep body at {at}: {reason}")
            }
            BuildProgramError::BranchIntoFrepBody { at, target } => {
                write!(f, "branch at {at} targets {target} inside an frep body")
            }
            BuildProgramError::MissingHalt => {
                write!(f, "program can fall off the end without a halt")
            }
            BuildProgramError::InvalidAffineStream { at, reason } => {
                write!(f, "invalid affine stream at {at}: {reason}")
            }
            BuildProgramError::InvalidIndirectStream { at, reason } => {
                write!(f, "invalid indirect stream at {at}: {reason}")
            }
        }
    }
}

impl Error for BuildProgramError {}
