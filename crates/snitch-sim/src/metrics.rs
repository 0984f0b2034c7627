//! Run reports: the measurement interface of the simulator.
//!
//! A [`RunReport`] is extracted after a cluster run and carries exactly
//! the quantities the paper's evaluation plots: FPU utilization, per-core
//! IPC, runtimes and their imbalance, stall/conflict breakdowns, stream
//! and DMA activity. The energy model and the manycore scaleout both
//! consume it.

use std::fmt;

use crate::core::{IntStalls, IntStats};
use crate::dma::DmaStats;
use crate::fpu::FpuStats;
use crate::ssr::StreamerStats;

/// Per-core measurement summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreReport {
    /// Cycle at which this core halted (kernel runtime for this core).
    pub halted_at: u64,
    /// Integer-side counters.
    pub int_stats: IntStats,
    /// FP-side counters.
    pub fpu: FpuStats,
    /// Per-streamer counters.
    pub streamers: [StreamerStats; 3],
    /// TCDM wait cycles across this core's ports (LSU + FP LSU +
    /// streamers).
    pub tcdm_wait_cycles: u64,
}

impl CoreReport {
    /// Retired instructions as the paper counts them: every integer-core
    /// issue slot (which includes each FP offload once) plus the *extra*
    /// FREP replays the sequencer produced without integer issue slots.
    pub fn retired(&self) -> u64 {
        let replays = self.fpu.retired.saturating_sub(self.fpu.offloaded);
        self.int_stats.retired + replays
    }

    /// Instructions per cycle over the given runtime. A single-issue core
    /// without FREP caps at 1.0; FREP replays push it beyond
    /// (pseudo-dual issue).
    pub fn ipc(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.retired() as f64 / cycles as f64
        }
    }

    /// FPU utilization: FP arithmetic issues per cycle (peak = 1).
    pub fn fpu_util(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.fpu.arith as f64 / cycles as f64
        }
    }
}

/// Whole-cluster measurement summary for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total cycles until every core halted and all units drained.
    pub cycles: u64,
    /// Of [`cycles`](RunReport::cycles), how many the engine skipped via
    /// idle fast-forwarding instead of stepping (0 when disabled via
    /// [`ClusterConfig::fast_forward`](crate::ClusterConfig::fast_forward)).
    /// Every other field is bit-identical whether or not dead cycles were
    /// skipped — this is a throughput diagnostic, not a timing input.
    pub cycles_fast_forwarded: u64,
    /// Per-core reports.
    pub cores: Vec<CoreReport>,
    /// Total TCDM accesses granted.
    pub tcdm_accesses: u64,
    /// Total TCDM conflict (lost-arbitration) events.
    pub tcdm_conflicts: u64,
    /// Instruction-cache hits.
    pub icache_hits: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// DMA counters.
    pub dma: DmaStats,
    /// Clock frequency the run assumed (for wall-clock conversions).
    pub freq_hz: f64,
}

impl RunReport {
    /// Mean FPU utilization across cores over the full run
    /// (the paper's Figure 3b / Figure 5 metric).
    pub fn fpu_util(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores
            .iter()
            .map(|c| c.fpu_util(self.cycles))
            .sum::<f64>()
            / self.cores.len() as f64
    }

    /// Mean per-core IPC (integer + FP retires per cycle; FREP replays
    /// retire on the FP side, which is how a single-issue core exceeds 1).
    pub fn ipc(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores.iter().map(|c| c.ipc(self.cycles)).sum::<f64>() / self.cores.len() as f64
    }

    /// Total floating-point operations performed.
    pub fn flops(&self) -> u64 {
        self.cores.iter().map(|c| c.fpu.flops).sum()
    }

    /// Achieved GFLOP/s at the configured clock.
    pub fn gflops(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.flops() as f64 / self.cycles as f64 * self.freq_hz / 1e9
    }

    /// Per-core halt times normalized by their mean — the runtime
    /// imbalance distribution the scaleout model bootstraps from.
    pub fn runtime_imbalance(&self) -> Vec<f64> {
        let times: Vec<f64> = self.cores.iter().map(|c| c.halted_at as f64).collect();
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        if mean == 0.0 {
            return vec![1.0; times.len()];
        }
        times.iter().map(|t| t / mean).collect()
    }

    /// Max-over-mean core runtime (1.0 = perfectly balanced).
    pub fn imbalance_factor(&self) -> f64 {
        self.runtime_imbalance().into_iter().fold(1.0f64, f64::max)
    }

    /// Sum of all cores' integer stalls.
    pub fn total_int_stalls(&self) -> IntStalls {
        let mut acc = IntStalls::default();
        for c in &self.cores {
            let s = c.int_stats.stalls;
            acc.offload_full += s.offload_full;
            acc.launch_full += s.launch_full;
            acc.lsu += s.lsu;
            acc.icache += s.icache;
            acc.branch += s.branch;
            acc.drain += s.drain;
            acc.multi_issue += s.multi_issue;
        }
        acc
    }

    /// Wall-clock seconds of the run at the configured frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / self.freq_hz
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run: {} cycles, FPU util {:.1}%, IPC {:.2}, {} flops ({:.1} GFLOP/s)",
            self.cycles,
            100.0 * self.fpu_util(),
            self.ipc(),
            self.flops(),
            self.gflops()
        )?;
        write!(
            f,
            "     tcdm: {} accesses / {} conflicts; icache: {} misses; imbalance {:.3}",
            self.tcdm_accesses,
            self.tcdm_conflicts,
            self.icache_misses,
            self.imbalance_factor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(halts: &[u64], arith: &[u64], cycles: u64) -> RunReport {
        let cores = halts
            .iter()
            .zip(arith)
            .map(|(&h, &a)| CoreReport {
                halted_at: h,
                int_stats: IntStats::default(),
                fpu: FpuStats {
                    arith: a,
                    retired: a,
                    offloaded: 0, // all counted as replays for this test
                    flops: 2 * a,
                    ..Default::default()
                },
                streamers: [StreamerStats::default(); 3],
                tcdm_wait_cycles: 0,
            })
            .collect();
        RunReport {
            cycles,
            cycles_fast_forwarded: 0,
            cores,
            tcdm_accesses: 0,
            tcdm_conflicts: 0,
            icache_hits: 0,
            icache_misses: 0,
            dma: DmaStats::default(),
            freq_hz: 1e9,
        }
    }

    #[test]
    fn util_and_ipc() {
        let r = report_with(&[100, 100], &[50, 100], 100);
        assert!((r.fpu_util() - 0.75).abs() < 1e-12);
        assert!((r.ipc() - 0.75).abs() < 1e-12);
        assert_eq!(r.flops(), 300);
        assert!((r.gflops() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance() {
        let r = report_with(&[80, 120], &[1, 1], 120);
        let imb = r.runtime_imbalance();
        assert!((imb[0] - 0.8).abs() < 1e-12);
        assert!((imb[1] - 1.2).abs() < 1e-12);
        assert!((r.imbalance_factor() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn display_contains_key_metrics() {
        let r = report_with(&[10], &[5], 10);
        let s = r.to_string();
        assert!(s.contains("FPU util"), "{s}");
        assert!(s.contains("IPC"), "{s}");
    }

    #[test]
    fn zero_cycles_degenerate() {
        let r = report_with(&[], &[], 0);
        assert_eq!(r.fpu_util(), 0.0);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.gflops(), 0.0);
    }
}
