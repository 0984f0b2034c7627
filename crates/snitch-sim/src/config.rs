//! Cluster configuration.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Byte address where TCDM is mapped (non-zero to catch null pointers).
pub const TCDM_BASE: u64 = 0x0001_0000;

/// Byte address where simulated main memory is mapped.
pub const MAIN_BASE: u64 = 0x8000_0000;

/// Static parameters of the simulated Snitch cluster.
///
/// Defaults ([`ClusterConfig::snitch`]) follow the paper's platform: eight
/// single-issue RV32G cores with DP FPUs, 128 KiB of TCDM across 32 banks
/// at 64-bit granularity, a 512-bit DMA engine, SSSR streamers and FREP
/// sequencers, clocked at 1 GHz.
///
/// # Examples
///
/// ```
/// let cfg = snitch_sim::ClusterConfig::snitch();
/// assert_eq!(cfg.n_cores, 8);
/// assert_eq!(cfg.tcdm_banks, 32);
/// assert_eq!(cfg.tcdm_bytes, 128 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of compute cores.
    pub n_cores: usize,
    /// Number of TCDM banks (64-bit wide each).
    pub tcdm_banks: usize,
    /// Total TCDM capacity in bytes.
    pub tcdm_bytes: usize,
    /// Simulated main-memory capacity in bytes (DMA-visible).
    pub main_mem_bytes: usize,
    /// Fixed latency of a main-memory burst start, in cycles.
    pub main_mem_latency: u32,
    /// Peak main-memory bandwidth in bytes per cycle.
    pub main_mem_bytes_per_cycle: usize,
    /// Stream data-FIFO depth per streamer (elements).
    pub stream_fifo_depth: usize,
    /// Armed-job queue depth per streamer (allows launch run-ahead).
    pub launch_queue_depth: usize,
    /// Index FIFO depth per streamer (prefetched indices).
    pub index_fifo_depth: usize,
    /// FPU latency of add/sub (cycles).
    pub fpu_latency_add: u32,
    /// FPU latency of multiply (cycles).
    pub fpu_latency_mul: u32,
    /// FPU latency of fused multiply-add (cycles).
    pub fpu_latency_fma: u32,
    /// FPU latency of divide/sqrt (cycles).
    pub fpu_latency_div: u32,
    /// FPU latency of moves/min/max/abs/neg (cycles).
    pub fpu_latency_misc: u32,
    /// Extra latency of an FP load after its TCDM grant (cycles).
    pub fp_load_latency: u32,
    /// FP-subsystem offload queue depth (instructions).
    pub offload_queue_depth: usize,
    /// FREP sequencer buffer capacity (instructions). Sized to hold the
    /// largest unrolled stencil blocks (the hardware ring buffer is
    /// smaller, but Snitch's sequencer can also stream longer bodies; we
    /// model the capacity generously and let code generators bound their
    /// unroll factors against it).
    pub sequencer_depth: usize,
    /// Extra bubble cycles after a taken branch.
    pub branch_taken_penalty: u32,
    /// Shared instruction-cache capacity in lines.
    pub icache_lines: usize,
    /// Instruction-cache line size in bytes.
    pub icache_line_bytes: usize,
    /// Instruction-cache refill penalty per line (cycles).
    pub icache_miss_penalty: u32,
    /// DMA beat width in bytes (512 bit = 64 B).
    pub dma_beat_bytes: usize,
    /// Clock frequency in hertz (used for derived wall-time metrics).
    pub freq_hz: f64,
    /// Whether [`Cluster::run`](crate::Cluster::run) may fast-forward
    /// across provably dead cycles (all cores halted or stalled, no
    /// memory traffic in flight, DMA idle or waiting out its burst
    /// latency). Reports are identical either way — fast-forwarding
    /// preserves every cycle and counter bit-for-bit and additionally
    /// reports how much it skipped — so this stays on except when
    /// exercising the stepped path (equivalence tests, debugging).
    pub fast_forward: bool,
}

/// Every field, `freq_hz` by its bits (the one float; a new field fails
/// to compile here until it is hashed too).
impl Hash for ClusterConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ClusterConfig {
            n_cores,
            tcdm_banks,
            tcdm_bytes,
            main_mem_bytes,
            main_mem_latency,
            main_mem_bytes_per_cycle,
            stream_fifo_depth,
            launch_queue_depth,
            index_fifo_depth,
            fpu_latency_add,
            fpu_latency_mul,
            fpu_latency_fma,
            fpu_latency_div,
            fpu_latency_misc,
            fp_load_latency,
            offload_queue_depth,
            sequencer_depth,
            branch_taken_penalty,
            icache_lines,
            icache_line_bytes,
            icache_miss_penalty,
            dma_beat_bytes,
            freq_hz,
            fast_forward,
        } = self;
        (
            (
                n_cores,
                tcdm_banks,
                tcdm_bytes,
                main_mem_bytes,
                main_mem_latency,
                main_mem_bytes_per_cycle,
                stream_fifo_depth,
                launch_queue_depth,
                index_fifo_depth,
                fpu_latency_add,
                fpu_latency_mul,
                fpu_latency_fma,
            ),
            (
                fpu_latency_div,
                fpu_latency_misc,
                fp_load_latency,
                offload_queue_depth,
                sequencer_depth,
                branch_taken_penalty,
                icache_lines,
                icache_line_bytes,
                icache_miss_penalty,
                dma_beat_bytes,
                freq_hz.to_bits(),
                fast_forward,
            ),
        )
            .hash(state);
    }
}

impl ClusterConfig {
    /// The paper's Snitch cluster configuration.
    pub fn snitch() -> ClusterConfig {
        ClusterConfig {
            n_cores: 8,
            tcdm_banks: 32,
            tcdm_bytes: 128 * 1024,
            main_mem_bytes: 16 * 1024 * 1024,
            main_mem_latency: 40,
            main_mem_bytes_per_cycle: 64,
            stream_fifo_depth: 4,
            launch_queue_depth: 2,
            index_fifo_depth: 8,
            fpu_latency_add: 3,
            fpu_latency_mul: 3,
            fpu_latency_fma: 4,
            fpu_latency_div: 12,
            fpu_latency_misc: 2,
            fp_load_latency: 1,
            offload_queue_depth: 4,
            sequencer_depth: 128,
            branch_taken_penalty: 1,
            icache_lines: 128,
            icache_line_bytes: 64,
            icache_miss_penalty: 8,
            dma_beat_bytes: 64,
            freq_hz: 1.0e9,
            fast_forward: true,
        }
    }

    /// Words (64-bit) per TCDM bank.
    pub fn words_per_bank(&self) -> usize {
        self.tcdm_bytes / 8 / self.tcdm_banks
    }

    /// Instructions per I$ line (4-byte encodings).
    pub fn instrs_per_icache_line(&self) -> usize {
        self.icache_line_bytes / 4
    }

    /// Whether an FREP body of `n_instrs` instructions fits the
    /// sequencer: at least one instruction, at most
    /// [`sequencer_depth`](ClusterConfig::sequencer_depth). The simulator
    /// refuses any other body with
    /// [`SimError::FrepMisuse`](crate::SimError::FrepMisuse), so code
    /// generators and the static verifier check it too.
    pub fn frep_body_fits(&self, n_instrs: usize) -> bool {
        (1..=self.sequencer_depth).contains(&n_instrs)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero cores/banks, TCDM
    /// not divisible by banks, zero-depth queues).
    pub fn validate(&self) {
        assert!(self.n_cores > 0, "need at least one core");
        assert!(self.tcdm_banks > 0, "need at least one bank");
        assert_eq!(
            self.tcdm_bytes % (self.tcdm_banks * 8),
            0,
            "TCDM must divide evenly into 64-bit banks"
        );
        assert!(self.stream_fifo_depth > 0, "stream FIFO depth must be > 0");
        assert!(
            self.launch_queue_depth > 0,
            "launch queue depth must be > 0"
        );
        assert!(
            self.offload_queue_depth > 0,
            "offload queue depth must be > 0"
        );
        assert!(self.sequencer_depth > 0, "sequencer depth must be > 0");
        assert!(
            self.dma_beat_bytes.is_multiple_of(8) && self.dma_beat_bytes > 0,
            "DMA beat must be a positive multiple of 8 bytes"
        );
        assert!(self.icache_line_bytes.is_multiple_of(4) && self.icache_line_bytes > 0);
    }
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig::snitch()
    }
}

impl fmt::Display for ClusterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores, {} KiB TCDM / {} banks, {} MHz",
            self.n_cores,
            self.tcdm_bytes / 1024,
            self.tcdm_banks,
            self.freq_hz / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snitch_defaults() {
        let cfg = ClusterConfig::snitch();
        cfg.validate();
        assert_eq!(cfg.words_per_bank(), 512);
        assert_eq!(cfg.instrs_per_icache_line(), 16);
        assert_eq!(ClusterConfig::default(), cfg);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn invalid_tcdm_split_panics() {
        let mut cfg = ClusterConfig::snitch();
        cfg.tcdm_bytes = 1000;
        cfg.validate();
    }

    #[test]
    fn display() {
        let s = ClusterConfig::snitch().to_string();
        assert!(s.contains("8 cores"), "{s}");
        assert!(s.contains("128 KiB"), "{s}");
    }
}
