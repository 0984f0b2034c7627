//! Static cost lower bounds derived from the interpreter's accounting.
//!
//! Each per-core component is individually a true lower bound on that
//! core's runtime, so their maximum is too:
//!
//! * **issue cycles** — the integer pipeline is single-issue; every
//!   instruction (FREP bodies once) costs at least its issue cycles;
//! * **FP issue** — Snitch's FP sequencer issues in program order, one
//!   op per cycle (replays, loads and stores included), and an op waits
//!   until its register sources are ready. Replaying that schedule with
//!   zero-latency loads and streams that never run dry gives the cycle
//!   after the last FP issue. Because the sequencer is in order, one RAW
//!   stall also holds every independent op behind it — the stall that
//!   unrolling hides by interleaving points, so this is the component
//!   that tells unroll widths apart. It covers both older components:
//!   the FPU's one-op-per-cycle occupancy (every op advances it by at
//!   least one) and every RAW latency path that some later op reads. A
//!   result nobody reads adds no latency: the simulator does not wait
//!   for it either;
//! * **bank bound** — a TCDM bank serves one 64-bit access per cycle, so
//!   the busiest bank's access count bounds the core (and, summed across
//!   cores, the cluster).
//!
//! The cluster bound is the max over cores plus the cross-core bank
//! pressure: every component is optimistic (no stalls, no conflicts, no
//! icache misses modeled), so `StaticBound::cycles` is provably ≤ the
//! simulated cycle count. The serving layer's analytic tier answers
//! with it for requests its calibration store has no measurement for,
//! and the tuner uses it as a proof that an unroll cannot beat one it
//! has already simulated.

use std::fmt;

use crate::interp::CoreAnalysis;

/// Lower-bound components for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreBound {
    /// Integer-pipeline issue cycles (FREP bodies issued once).
    pub issue_cycles: u64,
    /// The cycle after the last FP issue of the in-order schedule.
    pub fp_issue: u64,
    /// Accesses on this core's busiest TCDM bank.
    pub bank_bound: u64,
    /// Floating-point operations executed (FMAs count 2).
    pub flops: u64,
}

impl CoreBound {
    /// The core's cycle lower bound: the max of all components.
    pub fn cycles(&self) -> u64 {
        self.issue_cycles.max(self.fp_issue).max(self.bank_bound)
    }

    pub(crate) fn of(analysis: &CoreAnalysis) -> CoreBound {
        CoreBound {
            issue_cycles: analysis.issue_cycles,
            fp_issue: analysis.fp_issue,
            bank_bound: analysis.bank_hist.iter().copied().max().unwrap_or(0),
            flops: analysis.flops,
        }
    }
}

/// A proven cycle lower bound for one compiled kernel on one cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticBound {
    /// Per-core components.
    pub per_core: Vec<CoreBound>,
    /// Accesses on the busiest TCDM bank, summed across cores (banks are
    /// shared: the whole cluster waits on the hottest one).
    pub cluster_bank_bound: u64,
    /// The cluster cycle lower bound.
    pub cycles: u64,
    /// Total floating-point operations across cores.
    pub flops: u64,
}

impl StaticBound {
    pub(crate) fn combine(cores: &[CoreAnalysis]) -> StaticBound {
        let per_core: Vec<CoreBound> = cores.iter().map(CoreBound::of).collect();
        let n_banks = cores.iter().map(|c| c.bank_hist.len()).max().unwrap_or(0);
        let cluster_bank_bound = (0..n_banks)
            .map(|b| {
                cores
                    .iter()
                    .map(|c| c.bank_hist.get(b).copied().unwrap_or(0))
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        let cycles = per_core
            .iter()
            .map(CoreBound::cycles)
            .max()
            .unwrap_or(0)
            .max(cluster_bank_bound);
        let flops = per_core.iter().map(|c| c.flops).sum();
        StaticBound {
            per_core,
            cluster_bank_bound,
            cycles,
            flops,
        }
    }
}

impl StaticBound {
    /// The component that sets [`StaticBound::cycles`]: `"issue"`,
    /// `"fp_issue"`, `"bank"` (one core's busiest bank) or
    /// `"cluster bank"`, the first in that order on a tie.
    pub fn binding(&self) -> &'static str {
        let reaches = |component: fn(&CoreBound) -> u64| {
            self.per_core.iter().any(|c| component(c) == self.cycles)
        };
        if reaches(|c| c.issue_cycles) {
            "issue"
        } else if reaches(|c| c.fp_issue) {
            "fp_issue"
        } else if reaches(|c| c.bank_bound) {
            "bank"
        } else {
            "cluster bank"
        }
    }
}

impl fmt::Display for StaticBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "≥{} cycles ({} cores, bank bound {}, {} flops)",
            self.cycles,
            self.per_core.len(),
            self.cluster_bank_bound,
            self.flops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis(issue: u64, fp_issue: u64, hist: Vec<u64>) -> CoreAnalysis {
        CoreAnalysis {
            diags: Vec::new(),
            halted: true,
            issue_cycles: issue,
            fp_issue,
            flops: 2 * fp_issue,
            bank_hist: hist,
        }
    }

    #[test]
    fn core_bound_is_component_max() {
        let b = CoreBound::of(&analysis(100, 250, vec![10, 40, 5]));
        assert_eq!(b.bank_bound, 40);
        assert_eq!(b.cycles(), 250);
        let bound = StaticBound::combine(&[analysis(100, 250, vec![10, 40, 5])]);
        assert_eq!(bound.binding(), "fp_issue");
        let bound = StaticBound::combine(&[analysis(300, 250, vec![10, 40, 5])]);
        assert_eq!(bound.binding(), "issue");
    }

    #[test]
    fn cluster_bound_sums_bank_pressure_across_cores() {
        // Two cores each do 300 accesses on bank 0: neither core alone is
        // bank-bound, but the shared bank serves 600 accesses total.
        let cores = vec![
            analysis(100, 100, vec![300, 0]),
            analysis(100, 100, vec![300, 0]),
        ];
        let bound = StaticBound::combine(&cores);
        assert_eq!(bound.cluster_bank_bound, 600);
        assert_eq!(bound.cycles, 600);
        assert_eq!(bound.flops, 400);
        assert_eq!(bound.binding(), "cluster bank");
        let one = StaticBound::combine(&cores[..1]);
        assert_eq!((one.cycles, one.binding()), (300, "bank"));
    }
}
