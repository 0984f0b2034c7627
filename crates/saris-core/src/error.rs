//! Error types for stencil construction and planning.

use std::error::Error;
use std::fmt;

/// An error raised while building or validating a
/// [`Stencil`](crate::stencil::Stencil).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StencilError {
    /// No output array was declared.
    NoOutput {
        /// Stencil name.
        name: String,
    },
    /// No result operand was stored.
    NoResult {
        /// Stencil name.
        name: String,
    },
    /// An operand references a nonexistent tap/coefficient.
    BadOperand {
        /// Stencil name.
        name: String,
        /// Index of the offending operation.
        at: usize,
    },
    /// A temporary is used at or before its defining operation.
    UseBeforeDef {
        /// Stencil name.
        name: String,
        /// Index of the offending operation.
        at: usize,
        /// The temporary index used.
        tmp: usize,
    },
    /// A declared tap is never read.
    UnusedTap {
        /// Stencil name.
        name: String,
        /// Index of the unused tap.
        at: usize,
    },
    /// A declared coefficient is never read.
    UnusedCoeff {
        /// Stencil name.
        name: String,
        /// Index of the unused coefficient.
        at: usize,
    },
    /// An operation's value never reaches the stored result.
    DeadOp {
        /// Stencil name.
        name: String,
        /// Index of the last such operation.
        at: usize,
    },
    /// No tap reads the grid (the result is a constant).
    NoTap {
        /// Stencil name.
        name: String,
    },
    /// A 2D stencil uses a `dz != 0` offset.
    OffsetOutsideSpace {
        /// Stencil name.
        name: String,
    },
    /// The declared output array does not have the output role.
    OutputRoleMismatch {
        /// Stencil name.
        name: String,
    },
    /// A tap reads from the output array.
    TapOnOutput {
        /// Stencil name.
        name: String,
    },
}

impl fmt::Display for StencilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StencilError::NoOutput { name } => write!(f, "stencil {name} has no output array"),
            StencilError::NoResult { name } => write!(f, "stencil {name} stores no result"),
            StencilError::BadOperand { name, at } => {
                write!(f, "stencil {name} op {at} references a nonexistent operand")
            }
            StencilError::UseBeforeDef { name, at, tmp } => {
                write!(f, "stencil {name} op {at} uses t{tmp} before definition")
            }
            StencilError::UnusedTap { name, at } => {
                write!(f, "stencil {name} declares unused tap {at}")
            }
            StencilError::UnusedCoeff { name, at } => {
                write!(f, "stencil {name} declares unused coefficient {at}")
            }
            StencilError::DeadOp { name, at } => {
                write!(f, "stencil {name} op {at} never reaches the result")
            }
            StencilError::NoTap { name } => write!(f, "stencil {name} reads no tap"),
            StencilError::OffsetOutsideSpace { name } => {
                write!(f, "2D stencil {name} uses a z offset")
            }
            StencilError::OutputRoleMismatch { name } => {
                write!(f, "stencil {name} output array lacks the output role")
            }
            StencilError::TapOnOutput { name } => {
                write!(f, "stencil {name} reads from its output array")
            }
        }
    }
}

impl Error for StencilError {}

/// An error raised while planning SARIS streams for a stencil.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An index does not fit the chosen index width.
    IndexOverflow {
        /// Stencil name.
        name: String,
        /// The index value that overflowed.
        index: u64,
        /// The maximum representable value.
        max: u64,
    },
    /// The tile is too small for the stencil's halo.
    TileTooSmall {
        /// Stencil name.
        name: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::IndexOverflow { name, index, max } => {
                write!(
                    f,
                    "stencil {name}: index {index} exceeds width maximum {max}"
                )
            }
            PlanError::TileTooSmall { name } => {
                write!(f, "stencil {name}: tile smaller than twice the halo")
            }
        }
    }
}

impl Error for PlanError {}
