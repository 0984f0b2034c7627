//! The "unroll iff beneficial" tuning policy (paper Section 2.3: codes
//! "further unroll their point loops up to four-fold iff beneficial to
//! performance").
//!
//! Tuning is requested declaratively: set [`Tune::Auto`] (or
//! [`Tune::Candidates`]) on a [`Workload`](crate::Workload) and
//! [`Session::submit`](crate::Session::submit) compiles every candidate
//! through the session's kernel cache, skips widths the register file or
//! FREP sequencer genuinely refuses, keeps the fastest, and reports the
//! decision in [`Outcome::tuning`](crate::Outcome::tuning).
//!
//! On the cycle tier it proves before it simulates. Each feasible
//! candidate's cycle lower bound ([`saris_verify::StaticBound`], which
//! models the FP sequencer's in-order issue and so tells unroll widths
//! apart) ranks the candidates, they are simulated in that order, and a
//! candidate whose bound cannot beat the best measurement so far is never
//! simulated. Because the bound never exceeds the simulated cycles, the
//! winner is the one measuring every candidate would pick.

use std::hash::{Hash, Hasher};

use crate::error::CodegenError;

/// The default unroll candidates (the paper's "up to four-fold").
pub const DEFAULT_CANDIDATES: [usize; 3] = [1, 2, 4];

/// How a workload picks its unroll factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tune {
    /// Use the unroll factor set in the workload's
    /// [`RunOptions`](crate::RunOptions) as-is (no tuning).
    Fixed,
    /// Tune over the paper's candidates ([`DEFAULT_CANDIDATES`]) and keep
    /// the fastest feasible one.
    Auto,
    /// Tune over an explicit candidate list and keep the fastest feasible
    /// one (the first in list order on a tie).
    Candidates(Vec<usize>),
}

/// As derived, but candidate by candidate: a derived `Vec<usize>` hash
/// writes the slice's native bytes, which differ between hosts.
impl Hash for Tune {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        if let Tune::Candidates(candidates) = self {
            candidates.len().hash(state);
            candidates.iter().for_each(|c| c.hash(state));
        }
    }
}

impl Tune {
    /// The candidate unroll factors this policy tunes over (`None` for
    /// [`Tune::Fixed`]).
    pub fn candidates(&self) -> Option<&[usize]> {
        match self {
            Tune::Fixed => None,
            Tune::Auto => Some(&DEFAULT_CANDIDATES),
            Tune::Candidates(c) => Some(c),
        }
    }
}

/// What the tuner decided for one workload: the winning unroll factor,
/// the cycle counts it measured and the bounds that spared the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuningDecision {
    /// The winning unroll factor.
    pub unroll: usize,
    /// `(unroll, cycles)` for every candidate that was run, in candidate
    /// order. A feasible candidate missing here was proven unable to win.
    pub measured: Vec<(usize, u64)>,
    /// `(unroll, proven cycle lower bound)` for every feasible candidate,
    /// in candidate order. Empty where bounds rank nothing: off the cycle
    /// tier, or with a single feasible candidate.
    pub bounds: Vec<(usize, u64)>,
}

/// Whether an error marks an unroll width that is genuinely not
/// implementable (register pressure, FREP capacity) — the tuner skips
/// such candidates instead of aborting, which is exactly the paper's
/// register-bound story.
pub(crate) fn is_infeasible_width(err: &CodegenError) -> bool {
    matches!(
        err,
        CodegenError::RegisterPressure { .. } | CodegenError::FrepBodyTooLarge { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_candidates_expose_the_paper_defaults() {
        assert_eq!(Tune::Fixed.candidates(), None);
        assert_eq!(Tune::Auto.candidates(), Some(&DEFAULT_CANDIDATES[..]));
        assert_eq!(Tune::Candidates(vec![1, 3]).candidates(), Some(&[1, 3][..]));
    }

    #[test]
    fn infeasible_widths_are_exactly_the_register_bound_errors() {
        assert!(is_infeasible_width(&CodegenError::RegisterPressure {
            name: "x".into(),
            unroll: 4,
            needed: 40,
            available: 32,
        }));
        assert!(is_infeasible_width(&CodegenError::FrepBodyTooLarge {
            name: "x".into(),
            body: 20,
            capacity: 16,
        }));
        assert!(!is_infeasible_width(&CodegenError::NoCandidates));
    }
}
