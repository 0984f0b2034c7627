//! Diagnostics produced by the static verifier.
//!
//! Every finding carries the core it concerns, the instruction index it
//! anchors to (when one exists), and a structured [`DiagKind`]. Severity
//! is derived from the kind: **errors** are conditions that would corrupt
//! memory, read garbage, or hang the cluster; **warnings** are legal but
//! suspicious (dead stream configurations, potential write races) or mark
//! places where the analysis had to give up.

use std::fmt;

use saris_isa::{SsrId, StreamDir};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Legal but suspicious, or the analysis lost precision.
    Warning,
    /// Would corrupt memory, read undefined data, or never halt.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// The structured payload of one finding.
#[derive(Debug, Clone, PartialEq)]
pub enum DiagKind {
    /// The program failed structural validation
    /// (`saris_isa::program::validate`) or the cluster's limits.
    Malformed {
        /// The validation error, rendered.
        reason: String,
    },
    /// A basic block can never execute.
    Unreachable {
        /// First instruction index of the dead block.
        block_start: usize,
    },
    /// Execution can never reach `halt` (CFG proof or interpreter step
    /// budget exhausted / provable self-loop).
    NonTermination {
        /// Why termination could not be established.
        reason: String,
    },
    /// An integer or FP register is read before any instruction defines it.
    UseBeforeDef {
        /// Rendered register name.
        reg: String,
    },
    /// A stream job touches an address outside the memory regions the
    /// kernel's TCDM layout grants it (in the given direction).
    StreamOutOfBounds {
        /// The offending stream.
        ssr: SsrId,
        /// First out-of-bounds byte address.
        addr: u64,
        /// Whether the access was a stream read or write.
        dir: StreamDir,
    },
    /// A scalar load/store (`lw`/`sw`/`fld`/`fsd`) lands outside the
    /// regions the layout grants it.
    MemOutOfBounds {
        /// The offending byte address.
        addr: u64,
        /// Whether it was a write.
        write: bool,
    },
    /// An affine stream dimension inside `dims` has a zero bound: the job
    /// would produce no elements and permanently starve its consumer.
    ZeroBound {
        /// The offending stream.
        ssr: SsrId,
    },
    /// `ssr_commit` arms a stream that was never configured.
    CommitWithoutSetup {
        /// The offending stream.
        ssr: SsrId,
    },
    /// An indirect configuration targets the affine-only stream register.
    IllegalIndirection {
        /// The offending stream.
        ssr: SsrId,
    },
    /// A stream configuration is written but never armed before being
    /// overwritten or before `halt`.
    DeadStreamConfig {
        /// The configured-but-unused stream.
        ssr: SsrId,
    },
    /// A core store lands inside the address range of a stream write job:
    /// the streamer and the core race on TCDM ordering.
    WriteHazard {
        /// The contested byte address.
        addr: u64,
    },
    /// A stream write job overlaps a region the DMA engine writes
    /// concurrently (only flagged when the kernel runs with overlapped
    /// DMA).
    DmaHazard {
        /// The overlapping stream write address range start.
        addr: u64,
    },
    /// The interpreter hit a value it could not resolve statically
    /// (data-dependent branch, unknown stream base) and stopped early;
    /// later properties of this core are unchecked.
    UnresolvedValue {
        /// What could not be resolved.
        what: String,
    },
}

impl DiagKind {
    /// The severity implied by this kind.
    pub fn severity(&self) -> Severity {
        match self {
            DiagKind::Malformed { .. }
            | DiagKind::NonTermination { .. }
            | DiagKind::UseBeforeDef { .. }
            | DiagKind::StreamOutOfBounds { .. }
            | DiagKind::MemOutOfBounds { .. }
            | DiagKind::ZeroBound { .. }
            | DiagKind::CommitWithoutSetup { .. }
            | DiagKind::IllegalIndirection { .. } => Severity::Error,
            DiagKind::Unreachable { .. }
            | DiagKind::DeadStreamConfig { .. }
            | DiagKind::WriteHazard { .. }
            | DiagKind::DmaHazard { .. }
            | DiagKind::UnresolvedValue { .. } => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagKind::Malformed { reason } => write!(f, "malformed program: {reason}"),
            DiagKind::Unreachable { block_start } => {
                write!(f, "unreachable block at @{block_start}")
            }
            DiagKind::NonTermination { reason } => {
                write!(f, "cannot prove termination: {reason}")
            }
            DiagKind::UseBeforeDef { reg } => write!(f, "{reg} read before definition"),
            DiagKind::StreamOutOfBounds { ssr, addr, dir } => {
                write!(f, "{ssr} {dir} stream escapes its regions at {addr:#x}")
            }
            DiagKind::MemOutOfBounds { addr, write } => {
                let what = if *write { "store" } else { "load" };
                write!(f, "scalar {what} outside granted regions at {addr:#x}")
            }
            DiagKind::ZeroBound { ssr } => {
                write!(f, "{ssr} affine dimension has zero bound inside dims")
            }
            DiagKind::CommitWithoutSetup { ssr } => {
                write!(f, "{ssr} armed without a prior ssr_setup")
            }
            DiagKind::IllegalIndirection { ssr } => {
                write!(f, "{ssr} does not support indirect streams")
            }
            DiagKind::DeadStreamConfig { ssr } => {
                write!(f, "{ssr} configured but never armed")
            }
            DiagKind::WriteHazard { addr } => {
                write!(f, "core store races a stream write job at {addr:#x}")
            }
            DiagKind::DmaHazard { addr } => {
                write!(
                    f,
                    "stream write overlaps concurrent DMA writes near {addr:#x}"
                )
            }
            DiagKind::UnresolvedValue { what } => {
                write!(f, "static analysis stopped: unresolved {what}")
            }
        }
    }
}

/// One verifier finding, located on one core's program.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Index of the core whose program the finding concerns.
    pub core: usize,
    /// Instruction index the finding anchors to, when one exists.
    pub at: Option<usize>,
    /// The structured finding.
    pub kind: DiagKind,
}

impl Diagnostic {
    /// Severity of the finding (derived from the kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }

    /// Whether this finding is an error.
    pub fn is_error(&self) -> bool {
        self.severity() == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core {}: {}: ", self.core, self.severity())?;
        if let Some(at) = self.at {
            write!(f, "@{at}: ")?;
        }
        write!(f, "{}", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_split_matches_design() {
        assert_eq!(
            DiagKind::ZeroBound { ssr: SsrId::Ssr2 }.severity(),
            Severity::Error
        );
        assert_eq!(
            DiagKind::DeadStreamConfig { ssr: SsrId::Ssr0 }.severity(),
            Severity::Warning
        );
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn display_carries_core_and_anchor() {
        let d = Diagnostic {
            core: 3,
            at: Some(17),
            kind: DiagKind::StreamOutOfBounds {
                ssr: SsrId::Ssr2,
                addr: 0x1_0808,
                dir: StreamDir::Write,
            },
        };
        let s = d.to_string();
        assert!(s.contains("core 3"), "{s}");
        assert!(s.contains("@17"), "{s}");
        assert!(s.contains("0x10808"), "{s}");
        assert!(s.contains("error"), "{s}");
    }
}
