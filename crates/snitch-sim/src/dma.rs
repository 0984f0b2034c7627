//! The cluster DMA engine: descriptor-driven 1D/2D/3D bulk transfers
//! between main memory and TCDM.
//!
//! Models the 512-bit (64 B/cycle) mover of the Snitch cluster: the TCDM
//! side issues up to eight 64-bit word accesses per cycle through its own
//! ports (contending with the cores), and the main-memory side applies a
//! fixed burst-start latency plus a bytes-per-cycle ceiling. Transfers are
//! *functional* — bytes really move — so double-buffered kernels compute
//! on DMA-delivered data.

use std::collections::VecDeque;

use crate::config::{ClusterConfig, MAIN_BASE};
use crate::error::SimError;
use crate::mem::{MainMemory, MemOp, MemPort, MemReq};

/// A rectangular (up to 3D) transfer descriptor.
///
/// The transfer copies `counts[1] x counts[0]` runs of `inner_bytes`
/// contiguous bytes; run `(j, i)` reads from
/// `src + j*src_strides[1] + i*src_strides[0]` and writes the analogous
/// destination address. For 1D transfers set both counts to 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaDescriptor {
    /// Source base byte address (main memory or TCDM).
    pub src: u64,
    /// Destination base byte address (the other memory).
    pub dst: u64,
    /// Contiguous bytes per inner run (multiple of 8).
    pub inner_bytes: usize,
    /// Outer repeat counts (`[rows, planes]`), both at least 1.
    pub counts: [u32; 2],
    /// Source strides per outer dimension, in bytes.
    pub src_strides: [i64; 2],
    /// Destination strides per outer dimension, in bytes.
    pub dst_strides: [i64; 2],
}

impl DmaDescriptor {
    /// A flat 1D copy.
    pub fn copy_1d(src: u64, dst: u64, bytes: usize) -> DmaDescriptor {
        DmaDescriptor {
            src,
            dst,
            inner_bytes: bytes,
            counts: [1, 1],
            src_strides: [0, 0],
            dst_strides: [0, 0],
        }
    }

    /// A 2D copy: `rows` runs of `row_bytes`, with the given strides.
    pub fn copy_2d(
        src: u64,
        dst: u64,
        row_bytes: usize,
        rows: u32,
        src_stride: i64,
        dst_stride: i64,
    ) -> DmaDescriptor {
        DmaDescriptor {
            src,
            dst,
            inner_bytes: row_bytes,
            counts: [rows, 1],
            src_strides: [src_stride, 0],
            dst_strides: [dst_stride, 0],
        }
    }

    /// Total bytes moved by this descriptor.
    pub fn total_bytes(&self) -> u64 {
        self.inner_bytes as u64 * self.counts[0] as u64 * self.counts[1] as u64
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.inner_bytes == 0 || !self.inner_bytes.is_multiple_of(8) {
            return Err(SimError::BadDmaDescriptor {
                reason: "inner run must be a positive multiple of 8 bytes",
            });
        }
        if !self.src.is_multiple_of(8) || !self.dst.is_multiple_of(8) {
            return Err(SimError::BadDmaDescriptor {
                reason: "src/dst must be 8-byte aligned",
            });
        }
        if self.counts[0] == 0 || self.counts[1] == 0 {
            return Err(SimError::BadDmaDescriptor {
                reason: "outer counts must be at least 1",
            });
        }
        let src_main = self.src >= MAIN_BASE;
        let dst_main = self.dst >= MAIN_BASE;
        if src_main == dst_main {
            return Err(SimError::BadDmaDescriptor {
                reason: "transfers must connect main memory and TCDM",
            });
        }
        Ok(())
    }

    /// Whether data flows from main memory into TCDM.
    fn is_inbound(&self) -> bool {
        self.src >= MAIN_BASE
    }
}

/// DMA activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Total bytes moved (completed word grants).
    pub bytes: u64,
    /// Cycles with at least one active descriptor.
    pub busy_cycles: u64,
    /// Completed descriptors.
    pub descriptors: u64,
    /// Cycles spent waiting on the main-memory burst latency.
    pub latency_cycles: u64,
}

impl DmaStats {
    /// Achieved bandwidth over the engine's busy time, in bytes/cycle.
    pub fn busy_bandwidth(&self) -> f64 {
        if self.busy_cycles == 0 {
            0.0
        } else {
            self.bytes as f64 / self.busy_cycles as f64
        }
    }

    /// Bandwidth utilization against a peak in bytes/cycle.
    pub fn utilization(&self, peak_bytes_per_cycle: f64) -> f64 {
        (self.busy_bandwidth() / peak_bytes_per_cycle).min(1.0)
    }
}

/// What the DMA engine will do next, as seen by the cluster's
/// fast-forward scan (see [`Cluster::run`](crate::Cluster::run)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DmaWake {
    /// No queued or active transfer: never acts until a new enqueue.
    Idle,
    /// Waiting out the main-memory burst latency: inert strictly before
    /// the given cycle, but counting busy/latency cycles while waiting.
    LatencyUntil(u64),
    /// Moving data (or about to): may act next cycle.
    Active,
}

#[derive(Debug)]
struct ActiveTransfer {
    desc: DmaDescriptor,
    /// Next word (by flat word index within the descriptor) to issue.
    issued_words: u64,
    /// Words completed (grants absorbed).
    completed_words: u64,
    total_words: u64,
    /// Main-memory burst ready cycle.
    main_ready_at: u64,
}

impl ActiveTransfer {
    /// Byte addresses (src, dst) of flat word `w`.
    fn word_addrs(&self, w: u64) -> (u64, u64) {
        let words_per_run = (self.desc.inner_bytes / 8) as u64;
        let run = w / words_per_run;
        let within = (w % words_per_run) * 8;
        let i = run % self.desc.counts[0] as u64;
        let j = run / self.desc.counts[0] as u64;
        let src = (self.desc.src as i64
            + i as i64 * self.desc.src_strides[0]
            + j as i64 * self.desc.src_strides[1]) as u64
            + within;
        let dst = (self.desc.dst as i64
            + i as i64 * self.desc.dst_strides[0]
            + j as i64 * self.desc.dst_strides[1]) as u64
            + within;
        (src, dst)
    }
}

/// The DMA engine.
#[derive(Debug)]
pub struct Dma {
    queue: VecDeque<DmaDescriptor>,
    active: Option<ActiveTransfer>,
    /// TCDM-side word ports (one per lane of the 512-bit interface).
    pub ports: Vec<MemPort>,
    /// In-flight word per port: `(flat_word, is_tcdm_read)`.
    inflight: Vec<Option<u64>>,
    main_latency: u32,
    words_per_cycle: usize,
    /// Activity counters.
    pub stats: DmaStats,
}

impl Dma {
    /// Creates an idle engine per `cfg`.
    pub fn new(cfg: &ClusterConfig) -> Dma {
        let lanes = cfg.dma_beat_bytes / 8;
        let main_words = cfg.main_mem_bytes_per_cycle / 8;
        Dma {
            queue: VecDeque::new(),
            active: None,
            ports: (0..lanes).map(|_| MemPort::new()).collect(),
            inflight: vec![None; lanes],
            main_latency: cfg.main_mem_latency,
            words_per_cycle: lanes.min(main_words.max(1)),
            stats: DmaStats::default(),
        }
    }

    /// Queues a transfer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadDmaDescriptor`] for malformed descriptors.
    pub fn enqueue(&mut self, desc: DmaDescriptor) -> Result<(), SimError> {
        desc.validate()?;
        self.queue.push_back(desc);
        Ok(())
    }

    /// Whether all queued transfers have completed.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_none()
    }

    /// Returns the engine to its power-on state: drops queued and active
    /// transfers, idles every lane port, and zeroes the counters.
    pub fn reset(&mut self) {
        self.queue.clear();
        self.active = None;
        for port in &mut self.ports {
            *port = MemPort::new();
        }
        self.inflight.fill(None);
        self.stats = DmaStats::default();
    }

    /// The engine's next-action classification for the cluster's
    /// fast-forward scan at cycle `now`.
    pub(crate) fn wake(&self, now: u64) -> DmaWake {
        if self.is_idle() {
            // Lanes only carry the active transfer's words.
            return DmaWake::Idle;
        }
        if self.ports.iter().any(|p| !p.is_idle()) {
            // A grant to absorb (or a request in flight): active.
            return DmaWake::Active;
        }
        match &self.active {
            None => {
                if self.queue.is_empty() {
                    DmaWake::Idle
                } else {
                    // A queued descriptor starts next step.
                    DmaWake::Active
                }
            }
            Some(t) => {
                if now < t.main_ready_at {
                    DmaWake::LatencyUntil(t.main_ready_at)
                } else {
                    DmaWake::Active
                }
            }
        }
    }

    /// Books the counters `cycles` burst-latency wait steps would have
    /// accumulated — the fast-forward path's counter preservation for an
    /// engine classified [`DmaWake::LatencyUntil`]: each waited cycle is
    /// both busy and latency-bound.
    pub(crate) fn skip_latency_cycles(&mut self, cycles: u64) {
        debug_assert!(self.active.is_some(), "latency skip without a transfer");
        self.stats.busy_cycles += cycles;
        self.stats.latency_cycles += cycles;
    }

    /// Advances one cycle: absorb TCDM grants, start transfers, issue up
    /// to one beat's worth of word accesses.
    ///
    /// # Errors
    ///
    /// Propagates main-memory address errors.
    pub fn step(&mut self, now: u64, main: &mut MainMemory) -> Result<(), SimError> {
        // Absorb grants.
        if let Some(t) = &mut self.active {
            for (lane, port) in self.ports.iter_mut().enumerate() {
                if let Some(resp) = port.take_completed() {
                    let w = self.inflight[lane].take().expect("grant without inflight");
                    if t.desc.is_inbound() {
                        // TCDM write completed.
                        let _ = resp;
                    } else {
                        // TCDM read completed -> write word to main memory.
                        let (_, dst) = t.word_addrs(w);
                        main.write_bytes(dst, &resp.data.to_le_bytes())?;
                    }
                    t.completed_words += 1;
                    self.stats.bytes += 8;
                }
            }
            if t.completed_words == t.total_words {
                self.active = None;
                self.stats.descriptors += 1;
            }
        }
        // Start the next descriptor.
        if self.active.is_none() {
            if let Some(desc) = self.queue.pop_front() {
                let total_words = desc.total_bytes() / 8;
                self.active = Some(ActiveTransfer {
                    desc,
                    issued_words: 0,
                    completed_words: 0,
                    total_words,
                    main_ready_at: now + self.main_latency as u64,
                });
            }
        }
        let Some(t) = &mut self.active else {
            return Ok(());
        };
        self.stats.busy_cycles += 1;
        if now < t.main_ready_at {
            self.stats.latency_cycles += 1;
            return Ok(());
        }
        // Issue up to one beat of word accesses on idle lanes.
        let mut issued_this_cycle = 0;
        for lane in 0..self.ports.len() {
            if issued_this_cycle >= self.words_per_cycle {
                break;
            }
            if t.issued_words >= t.total_words || !self.ports[lane].is_idle() {
                continue;
            }
            let w = t.issued_words;
            let (src, dst) = t.word_addrs(w);
            if t.desc.is_inbound() {
                // Read from main memory now (bandwidth modeled by the
                // per-cycle word cap), write to TCDM through the port.
                let bytes = main.read_bytes(src, 8)?;
                let word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                self.ports[lane].issue(MemReq {
                    addr: dst,
                    op: MemOp::Write64(word),
                });
            } else {
                self.ports[lane].issue(MemReq {
                    addr: src,
                    op: MemOp::Read64,
                });
            }
            self.inflight[lane] = Some(w);
            t.issued_words += 1;
            issued_this_cycle += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TCDM_BASE;
    use crate::mem::Tcdm;

    fn setup() -> (ClusterConfig, Tcdm, MainMemory, Dma) {
        let cfg = ClusterConfig::snitch();
        let t = Tcdm::new(&cfg);
        let m = MainMemory::new(&cfg);
        let d = Dma::new(&cfg);
        (cfg, t, m, d)
    }

    fn run_dma(t: &mut Tcdm, m: &mut MainMemory, d: &mut Dma, max: u64) -> u64 {
        for cycle in 0..max {
            d.step(cycle, m).unwrap();
            t.arbitrate_slice(&mut d.ports).unwrap();
            if d.is_idle() {
                return cycle;
            }
        }
        panic!("dma did not finish in {max} cycles");
    }

    #[test]
    fn inbound_1d_copy() {
        let (_, mut t, mut m, mut d) = setup();
        let payload: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        m.write_bytes(MAIN_BASE + 4096, &payload).unwrap();
        d.enqueue(DmaDescriptor::copy_1d(
            MAIN_BASE + 4096,
            TCDM_BASE + 512,
            256,
        ))
        .unwrap();
        run_dma(&mut t, &mut m, &mut d, 10_000);
        assert_eq!(t.read_bytes(TCDM_BASE + 512, 256).unwrap(), &payload[..]);
        assert_eq!(d.stats.bytes, 256);
        assert_eq!(d.stats.descriptors, 1);
    }

    #[test]
    fn outbound_1d_copy() {
        let (_, mut t, mut m, mut d) = setup();
        let payload: Vec<u8> = (0..128u32).map(|i| (i * 3) as u8).collect();
        t.write_bytes(TCDM_BASE + 64, &payload).unwrap();
        d.enqueue(DmaDescriptor::copy_1d(
            TCDM_BASE + 64,
            MAIN_BASE + 1024,
            128,
        ))
        .unwrap();
        run_dma(&mut t, &mut m, &mut d, 10_000);
        assert_eq!(m.read_bytes(MAIN_BASE + 1024, 128).unwrap(), &payload[..]);
    }

    #[test]
    fn strided_2d_copy_gathers_rows() {
        let (_, mut t, mut m, mut d) = setup();
        // 4 rows of 16 bytes at stride 64 in main, packed in TCDM.
        for row in 0..4u64 {
            let data = [row as u8 + 1; 16];
            m.write_bytes(MAIN_BASE + row * 64, &data).unwrap();
        }
        d.enqueue(DmaDescriptor::copy_2d(MAIN_BASE, TCDM_BASE, 16, 4, 64, 16))
            .unwrap();
        run_dma(&mut t, &mut m, &mut d, 10_000);
        for row in 0..4u64 {
            let got = t.read_bytes(TCDM_BASE + row * 16, 16).unwrap();
            assert!(got.iter().all(|&b| b == row as u8 + 1), "row {row}");
        }
        assert_eq!(d.stats.bytes, 64);
    }

    #[test]
    fn bandwidth_approaches_peak_for_large_transfers() {
        let (cfg, mut t, mut m, mut d) = setup();
        let bytes = 32 * 1024;
        d.enqueue(DmaDescriptor::copy_1d(MAIN_BASE, TCDM_BASE, bytes))
            .unwrap();
        let cycles = run_dma(&mut t, &mut m, &mut d, 100_000);
        let peak = cfg.dma_beat_bytes as f64;
        let bw = bytes as f64 / cycles as f64;
        assert!(
            bw > 0.7 * peak,
            "large copy should be near peak: {bw:.1} B/cy vs {peak}"
        );
        assert!(d.stats.utilization(peak) > 0.7);
    }

    #[test]
    fn descriptors_queue_in_order() {
        let (_, mut t, mut m, mut d) = setup();
        m.write_bytes(MAIN_BASE, &[7; 8]).unwrap();
        m.write_bytes(MAIN_BASE + 8, &[9; 8]).unwrap();
        d.enqueue(DmaDescriptor::copy_1d(MAIN_BASE, TCDM_BASE, 8))
            .unwrap();
        d.enqueue(DmaDescriptor::copy_1d(MAIN_BASE + 8, TCDM_BASE + 8, 8))
            .unwrap();
        run_dma(&mut t, &mut m, &mut d, 10_000);
        assert_eq!(t.read_bytes(TCDM_BASE, 8).unwrap(), &[7; 8]);
        assert_eq!(t.read_bytes(TCDM_BASE + 8, 8).unwrap(), &[9; 8]);
        assert_eq!(d.stats.descriptors, 2);
    }

    #[test]
    fn bad_descriptors_rejected() {
        let (_, _, _, mut d) = setup();
        assert!(d
            .enqueue(DmaDescriptor::copy_1d(MAIN_BASE, MAIN_BASE + 64, 8))
            .is_err());
        assert!(d
            .enqueue(DmaDescriptor::copy_1d(MAIN_BASE, TCDM_BASE, 7))
            .is_err());
        assert!(d
            .enqueue(DmaDescriptor::copy_1d(MAIN_BASE + 1, TCDM_BASE, 8))
            .is_err());
        let mut zero = DmaDescriptor::copy_1d(MAIN_BASE, TCDM_BASE, 8);
        zero.counts = [0, 1];
        assert!(d.enqueue(zero).is_err());
    }
}
