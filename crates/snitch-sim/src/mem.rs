//! TCDM storage, memory ports, and per-bank arbitration.
//!
//! Every memory requester in the cluster (core LSUs, FP LSUs, streamers,
//! DMA lanes) owns a [`MemPort`]. Each cycle the cluster offers the ports
//! with pending requests to the arbiter in rotating round-robin order,
//! and the arbiter grants at most one access per bank. Ungranted
//! requests stay pending and are retried automatically — that retry time
//! is what the paper's "TCDM access contention" stalls are made of.
//!
//! # Hot-loop invariants
//!
//! [`Tcdm::grant`] is the whole per-request cost: one range check yields
//! the byte offset, from which both the bank and the storage index
//! follow; the per-cycle bank reservations are bits of a word that
//! [`Tcdm::begin_cycle`] clears, and the rotating start is kept reduced
//! modulo the port count instead of divided out every cycle. A port
//! holds its one request or its one response word behind a state byte,
//! and a response is the read data and nothing else — no owner reads
//! more.
//!
//! Where a fault surfaces is part of the model: an unmapped address when
//! the request is *offered* (even if its bank is taken this cycle), a
//! misaligned one when it is *granted*.
//!
//! # Fast-forwarding
//!
//! The arbiter has no guard of its own; it is told less. The cluster
//! offers only ports with a pending request, which is exact because
//! [`Tcdm::grant`] ignores any other port, and offers them in the order
//! the full rotation would reach them. A cycle with no request at all is
//! `Tcdm::rotate_priority`: the rotating priority advances and nothing
//! else does, which is all a full rotation over idle ports changes.

use std::fmt;

use crate::config::{ClusterConfig, MAIN_BASE, TCDM_BASE};
use crate::error::SimError;

/// A memory access operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MemOp {
    /// 64-bit read.
    #[default]
    Read64,
    /// 64-bit write of the payload.
    Write64(u64),
    /// 32-bit read (zero-extended into the response).
    Read32,
    /// 32-bit write of the payload's low half.
    Write32(u32),
}

/// A pending TCDM request held by a [`MemPort`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemReq {
    /// Byte address (must be naturally aligned for the op width).
    pub addr: u64,
    /// The operation.
    pub op: MemOp,
}

/// A completed response delivered back through the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResp {
    /// Read data (0 for writes).
    pub data: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum PortState {
    #[default]
    Idle,
    /// `req` awaits a grant.
    Pending,
    /// `data` awaits its owner.
    Completed,
}

/// One requester's interface to the TCDM interconnect.
///
/// A port holds at most one in-flight request. `issue` sets it pending;
/// arbitration moves it to `completed`; the owner consumes the response on
/// its next step via [`MemPort::take_completed`].
#[derive(Debug, Default)]
pub struct MemPort {
    state: PortState,
    /// The request, meaningful while pending.
    req: MemReq,
    /// The read data, meaningful while completed.
    data: u64,
    /// Cycles this port spent waiting for a grant (conflict time).
    pub wait_cycles: u64,
    /// Number of granted requests.
    pub grants: u64,
}

impl MemPort {
    /// Creates an idle port.
    pub fn new() -> MemPort {
        MemPort::default()
    }

    /// Whether the port can accept a new request.
    pub fn is_idle(&self) -> bool {
        self.state == PortState::Idle
    }

    /// Whether a request is awaiting a grant.
    pub fn is_pending(&self) -> bool {
        self.state == PortState::Pending
    }

    /// Issues a request.
    ///
    /// # Panics
    ///
    /// Panics if the port is not idle (owner bug).
    pub fn issue(&mut self, req: MemReq) {
        assert!(self.is_idle(), "port already busy");
        self.req = req;
        self.state = PortState::Pending;
    }

    /// Takes a completed response, if any.
    pub fn take_completed(&mut self) -> Option<MemResp> {
        let resp = self.completed()?;
        self.state = PortState::Idle;
        Some(resp)
    }

    /// Peeks the completed response without consuming it.
    pub fn completed(&self) -> Option<MemResp> {
        (self.state == PortState::Completed).then_some(MemResp { data: self.data })
    }
}

/// The tightly-coupled data memory: word-interleaved banked storage.
#[derive(Debug)]
pub struct Tcdm {
    data: Vec<u8>,
    banks: usize,
    /// `banks - 1` when the bank count is a power of two, so the per-
    /// request bank computation is a mask instead of a modulo.
    bank_mask: Option<usize>,
    /// Rotating arbitration offset.
    rr: usize,
    /// `rr % rr_ports`, maintained incrementally so that the cluster's
    /// fixed port count costs no division per cycle; any other port
    /// count re-derives it.
    rr_start: usize,
    rr_ports: usize,
    /// This cycle's bank reservations, one bit per bank (64 banks per
    /// word). Allocated once and cleared every arbitration cycle.
    granted: Vec<u64>,
    /// Total conflict grants lost (a request existed but another was
    /// granted on the same bank that cycle).
    pub conflicts: u64,
    /// Total granted accesses.
    pub accesses: u64,
}

impl Tcdm {
    /// Creates zeroed TCDM per `cfg`.
    pub fn new(cfg: &ClusterConfig) -> Tcdm {
        Tcdm {
            data: vec![0; cfg.tcdm_bytes],
            banks: cfg.tcdm_banks,
            bank_mask: cfg.tcdm_banks.is_power_of_two().then(|| cfg.tcdm_banks - 1),
            rr: 0,
            rr_start: 0,
            rr_ports: 1,
            granted: vec![0; cfg.tcdm_banks.div_ceil(64)],
            conflicts: 0,
            accesses: 0,
        }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the memory is empty (never for constructed instances).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The bank servicing a byte address (word-interleaved, 64-bit words).
    pub fn bank_of(&self, addr: u64) -> Result<usize, SimError> {
        Ok(self.bank_at(self.offset_of(addr)?))
    }

    fn bank_at(&self, off: usize) -> usize {
        match self.bank_mask {
            Some(mask) => (off >> 3) & mask,
            None => (off / 8) % self.banks,
        }
    }

    fn offset_of(&self, addr: u64) -> Result<usize, SimError> {
        if addr < TCDM_BASE || addr >= TCDM_BASE + self.data.len() as u64 {
            return Err(SimError::BadAddress { addr });
        }
        Ok((addr - TCDM_BASE) as usize)
    }

    /// Host/debug read of a 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] for unmapped or misaligned
    /// addresses.
    pub fn read_u64(&self, addr: u64) -> Result<u64, SimError> {
        if !addr.is_multiple_of(8) {
            return Err(SimError::Misaligned { addr, width: 8 });
        }
        let off = self.offset_of(addr)?;
        Ok(u64::from_le_bytes(
            self.data[off..off + 8].try_into().expect("8 bytes"),
        ))
    }

    /// Host/debug write of a 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] for unmapped or misaligned
    /// addresses.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), SimError> {
        if !addr.is_multiple_of(8) {
            return Err(SimError::Misaligned { addr, width: 8 });
        }
        let off = self.offset_of(addr)?;
        self.data[off..off + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// The storage range of `len` bytes at `addr`.
    fn range_of(&self, addr: u64, len: usize) -> Result<std::ops::Range<usize>, SimError> {
        let off = self.offset_of(addr)?;
        if off + len > self.data.len() {
            return Err(SimError::BadAddress {
                addr: addr + len as u64,
            });
        }
        Ok(off..off + len)
    }

    /// Host write of raw bytes (used to install index arrays and grids).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), SimError> {
        let range = self.range_of(addr, bytes.len())?;
        self.data[range].copy_from_slice(bytes);
        Ok(())
    }

    /// Host read of raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], SimError> {
        Ok(&self.data[self.range_of(addr, len)?])
    }

    /// Host write of an `f64` slice, word by word into the storage (no
    /// staged byte image).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn write_f64s(&mut self, addr: u64, values: &[f64]) -> Result<(), SimError> {
        let range = self.range_of(addr, values.len() * 8)?;
        store_f64s(&mut self.data[range], values);
        Ok(())
    }

    /// Host zero-fill of a byte range (no staging buffer, unlike
    /// [`Tcdm::write_bytes`] with a zeroed slice).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn zero_bytes(&mut self, addr: u64, len: usize) -> Result<(), SimError> {
        let range = self.range_of(addr, len)?;
        self.data[range].fill(0);
        Ok(())
    }

    /// Returns the memory to its power-on state (zeroed storage, zeroed
    /// counters) without releasing the allocation.
    pub fn reset(&mut self) {
        self.data.fill(0);
        self.rr = 0;
        self.rr_start = 0;
        self.granted.fill(0);
        self.conflicts = 0;
        self.accesses = 0;
    }

    /// Performs a granted access at byte offset `off` (already range
    /// checked), faulting on misalignment.
    fn execute(&mut self, req: MemReq, off: usize) -> Result<u64, SimError> {
        let width = match req.op {
            MemOp::Read64 | MemOp::Write64(_) => 8,
            MemOp::Read32 | MemOp::Write32(_) => 4,
        };
        if !req.addr.is_multiple_of(width) {
            return Err(SimError::Misaligned {
                addr: req.addr,
                width,
            });
        }
        // In range and aligned, and the capacity is a multiple of 8: the
        // whole access is inside the storage.
        let bytes = &mut self.data[off..off + width as usize];
        Ok(match req.op {
            MemOp::Read64 => u64::from_le_bytes((&*bytes).try_into().expect("8 bytes")),
            MemOp::Read32 => u32::from_le_bytes((&*bytes).try_into().expect("4 bytes")) as u64,
            MemOp::Write64(v) => {
                bytes.copy_from_slice(&v.to_le_bytes());
                0
            }
            MemOp::Write32(v) => {
                bytes.copy_from_slice(&v.to_le_bytes());
                0
            }
        })
    }

    /// Begins one arbitration cycle over `n_ports` requesters: clears the
    /// bank reservations, advances the rotating round-robin priority and
    /// returns the index it starts at. Offer pending ports to
    /// [`Tcdm::grant`] from that index upwards, then the wrap-around.
    ///
    /// # Panics
    ///
    /// Panics if `n_ports` is zero.
    pub fn begin_cycle(&mut self, n_ports: usize) -> usize {
        assert!(n_ports > 0, "arbitration needs at least one port");
        if n_ports != self.rr_ports {
            self.rr_ports = n_ports;
            self.rr_start = self.rr % n_ports;
        }
        let start = self.rr_start;
        self.rotate_priority();
        self.granted.fill(0);
        start
    }

    /// Offers one port's pending request (a port with none is skipped):
    /// grants it if its bank is still free this cycle and the access is
    /// valid, and says whether it did. Losers stay pending and accumulate
    /// wait time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] for an unmapped request, granted
    /// or not, and [`SimError::Misaligned`] for a misaligned granted one.
    pub fn grant(&mut self, port: &mut MemPort) -> Result<bool, SimError> {
        if !port.is_pending() {
            return Ok(false);
        }
        let req = port.req;
        let off = self.offset_of(req.addr)?;
        let bank = self.bank_at(off);
        let (word, bit) = (bank / 64, 1u64 << (bank % 64));
        if self.granted[word] & bit != 0 {
            self.conflicts += 1;
            port.wait_cycles += 1;
            return Ok(false);
        }
        self.granted[word] |= bit;
        port.data = self.execute(req, off)?;
        self.accesses += 1;
        port.grants += 1;
        port.state = PortState::Completed;
        Ok(true)
    }

    /// Arbitrates one cycle over `ports`: grants at most one request per
    /// bank with a rotating round-robin start, executes granted accesses,
    /// and leaves losers pending (accumulating their wait time).
    ///
    /// This is the gathered-list convenience over
    /// [`begin_cycle`](Tcdm::begin_cycle)/[`grant`](Tcdm::grant); the
    /// cluster's cycle loop visits only its pending ports.
    ///
    /// # Errors
    ///
    /// Returns the first address/alignment error encountered.
    pub fn arbitrate(&mut self, ports: &mut [&mut MemPort]) -> Result<(), SimError> {
        self.arbitrate_generic(ports)
    }

    /// [`arbitrate`](Tcdm::arbitrate) over a contiguous slice of owned
    /// ports (e.g. the DMA engine's lanes) without collecting references.
    ///
    /// # Errors
    ///
    /// Returns the first address/alignment error encountered.
    pub fn arbitrate_slice(&mut self, ports: &mut [MemPort]) -> Result<(), SimError> {
        self.arbitrate_generic(ports)
    }

    /// The rotating offer loop behind both `arbitrate` flavors.
    fn arbitrate_generic<P: std::borrow::BorrowMut<MemPort>>(
        &mut self,
        ports: &mut [P],
    ) -> Result<(), SimError> {
        if ports.is_empty() {
            return Ok(());
        }
        let start = self.begin_cycle(ports.len());
        let (wrapped, first) = ports.split_at_mut(start);
        for port in first.iter_mut().chain(wrapped) {
            self.grant(port.borrow_mut())?;
        }
        Ok(())
    }

    /// Advances the rotating priority by one arbitration cycle — all
    /// that a cycle in which no port has a pending request does.
    pub(crate) fn rotate_priority(&mut self) {
        self.rr = self.rr.wrapping_add(1);
        self.rr_start += 1;
        // `rr == 0` is the counter wrapping, where `rr % n` restarts too.
        if self.rr_start == self.rr_ports || self.rr == 0 {
            self.rr_start = 0;
        }
    }

    /// [`rotate_priority`](Tcdm::rotate_priority) `cycles` times over —
    /// the whole-cluster fast-forward's equivalent of calling
    /// [`arbitrate`](Tcdm::arbitrate) with all-idle ports that often.
    pub(crate) fn skip_idle_cycles(&mut self, cycles: u64) {
        self.rr = self.rr.wrapping_add(cycles as usize);
        self.rr_start = self.rr % self.rr_ports;
    }
}

impl fmt::Display for Tcdm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TCDM {} KiB / {} banks ({} accesses, {} conflicts)",
            self.data.len() / 1024,
            self.banks,
            self.accesses,
            self.conflicts
        )
    }
}

/// Simulated main memory behind the DMA engine: flat storage with a
/// bandwidth/latency model applied by the DMA, not here.
///
/// Writes maintain a dirty byte-range watermark so [`MainMemory::reset`]
/// zeroes only what was touched: most kernel executions never write main
/// memory at all, and a pooled cluster's reset must not pay for wiping a
/// pristine 16 MiB arena.
#[derive(Debug)]
pub struct MainMemory {
    data: Vec<u8>,
    /// Byte range `[lo, hi)` written since the last reset.
    dirty: Option<(usize, usize)>,
}

impl MainMemory {
    /// Creates zeroed main memory per `cfg`.
    pub fn new(cfg: &ClusterConfig) -> MainMemory {
        MainMemory {
            data: vec![0; cfg.main_mem_bytes],
            dirty: None,
        }
    }

    fn offset_of(&self, addr: u64, len: usize) -> Result<usize, SimError> {
        if addr < MAIN_BASE || addr + len as u64 > MAIN_BASE + self.data.len() as u64 {
            return Err(SimError::BadAddress { addr });
        }
        Ok((addr - MAIN_BASE) as usize)
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], SimError> {
        let off = self.offset_of(addr, len)?;
        Ok(&self.data[off..off + len])
    }

    /// Writes raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), SimError> {
        self.dirty_range(addr, bytes.len())?.copy_from_slice(bytes);
        Ok(())
    }

    /// Writes an `f64` slice, word by word into the storage (no staged
    /// byte image).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if the range is unmapped.
    pub fn write_f64s(&mut self, addr: u64, values: &[f64]) -> Result<(), SimError> {
        store_f64s(self.dirty_range(addr, values.len() * 8)?, values);
        Ok(())
    }

    /// The `len` bytes at `addr` for writing, marked dirty.
    fn dirty_range(&mut self, addr: u64, len: usize) -> Result<&mut [u8], SimError> {
        let off = self.offset_of(addr, len)?;
        let (lo, hi) = self.dirty.unwrap_or((off, off));
        self.dirty = Some((lo.min(off), hi.max(off + len)));
        Ok(&mut self.data[off..off + len])
    }

    /// Returns the memory to its power-on state without releasing the
    /// allocation, zeroing only the bytes written since the last reset.
    pub fn reset(&mut self) {
        if let Some((lo, hi)) = self.dirty.take() {
            self.data[lo..hi].fill(0);
        }
    }
}

/// Stores `values` little-endian into `dst` (8 bytes each).
fn store_f64s(dst: &mut [u8], values: &[f64]) {
    for (word, v) in dst.chunks_exact_mut(8).zip(values) {
        word.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Decodes a little-endian byte image into `f64`s (8 bytes each).
pub(crate) fn load_f64s(src: &[u8]) -> Vec<f64> {
    src.chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcdm() -> Tcdm {
        Tcdm::new(&ClusterConfig::snitch())
    }

    #[test]
    fn word_interleaved_banking() {
        let t = tcdm();
        assert_eq!(t.bank_of(TCDM_BASE).unwrap(), 0);
        assert_eq!(t.bank_of(TCDM_BASE + 8).unwrap(), 1);
        assert_eq!(t.bank_of(TCDM_BASE + 8 * 31).unwrap(), 31);
        assert_eq!(t.bank_of(TCDM_BASE + 8 * 32).unwrap(), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut t = tcdm();
        t.write_u64(TCDM_BASE + 16, 0xDEAD_BEEF_0123_4567).unwrap();
        assert_eq!(t.read_u64(TCDM_BASE + 16).unwrap(), 0xDEAD_BEEF_0123_4567);
        let v = 1.5f64.to_bits();
        t.write_u64(TCDM_BASE + 24, v).unwrap();
        assert_eq!(f64::from_bits(t.read_u64(TCDM_BASE + 24).unwrap()), 1.5);
    }

    #[test]
    fn bad_addresses_rejected() {
        let mut t = tcdm();
        assert!(matches!(t.read_u64(0), Err(SimError::BadAddress { .. })));
        assert!(matches!(
            t.read_u64(TCDM_BASE + 128 * 1024),
            Err(SimError::BadAddress { .. })
        ));
        assert!(matches!(
            t.read_u64(TCDM_BASE + 4),
            Err(SimError::Misaligned { .. })
        ));
        assert!(matches!(
            t.write_bytes(TCDM_BASE + 128 * 1024 - 2, &[0; 4]),
            Err(SimError::BadAddress { .. })
        ));
    }

    #[test]
    fn conflict_free_grants_same_cycle() {
        let mut t = tcdm();
        let mut a = MemPort::new();
        let mut b = MemPort::new();
        a.issue(MemReq {
            addr: TCDM_BASE,
            op: MemOp::Read64,
        });
        b.issue(MemReq {
            addr: TCDM_BASE + 8, // different bank
            op: MemOp::Read64,
        });
        t.arbitrate(&mut [&mut a, &mut b]).unwrap();
        assert!(a.take_completed().is_some());
        assert!(b.take_completed().is_some());
        assert_eq!(t.conflicts, 0);
    }

    #[test]
    fn same_bank_conflicts_serialize() {
        let mut t = tcdm();
        let mut a = MemPort::new();
        let mut b = MemPort::new();
        a.issue(MemReq {
            addr: TCDM_BASE,
            op: MemOp::Read64,
        });
        b.issue(MemReq {
            addr: TCDM_BASE + 8 * 32, // same bank 0
            op: MemOp::Read64,
        });
        t.arbitrate(&mut [&mut a, &mut b]).unwrap();
        let done = a.completed().is_some() as u32 + b.completed().is_some() as u32;
        assert_eq!(done, 1, "exactly one grant on a conflicted bank");
        assert_eq!(t.conflicts, 1);
        let _ = a.take_completed();
        let _ = b.take_completed();
        t.arbitrate(&mut [&mut a, &mut b]).unwrap();
        let done2 = a.completed().is_some() as u32 + b.completed().is_some() as u32;
        assert_eq!(done2, 1, "loser granted next cycle");
    }

    #[test]
    fn round_robin_is_fair() {
        // Two ports fighting for the same bank should alternate.
        let mut t = tcdm();
        let mut a = MemPort::new();
        let mut b = MemPort::new();
        for _ in 0..10 {
            if a.is_idle() {
                a.issue(MemReq {
                    addr: TCDM_BASE,
                    op: MemOp::Read64,
                });
            }
            if b.is_idle() {
                b.issue(MemReq {
                    addr: TCDM_BASE + 8 * 32,
                    op: MemOp::Read64,
                });
            }
            t.arbitrate(&mut [&mut a, &mut b]).unwrap();
            let _ = a.take_completed();
            let _ = b.take_completed();
        }
        assert!(
            a.grants >= 4 && b.grants >= 4,
            "a={} b={}",
            a.grants,
            b.grants
        );
    }

    #[test]
    fn write_then_read_through_ports() {
        let mut t = tcdm();
        let mut p = MemPort::new();
        p.issue(MemReq {
            addr: TCDM_BASE + 40,
            op: MemOp::Write64(77),
        });
        t.arbitrate(&mut [&mut p]).unwrap();
        assert!(p.take_completed().is_some());
        p.issue(MemReq {
            addr: TCDM_BASE + 40,
            op: MemOp::Read64,
        });
        t.arbitrate(&mut [&mut p]).unwrap();
        assert_eq!(p.take_completed().unwrap().data, 77);
    }

    #[test]
    fn word32_access() {
        let mut t = tcdm();
        let mut p = MemPort::new();
        p.issue(MemReq {
            addr: TCDM_BASE + 4,
            op: MemOp::Write32(0xABCD),
        });
        t.arbitrate(&mut [&mut p]).unwrap();
        let _ = p.take_completed();
        p.issue(MemReq {
            addr: TCDM_BASE + 4,
            op: MemOp::Read32,
        });
        t.arbitrate(&mut [&mut p]).unwrap();
        assert_eq!(p.take_completed().unwrap().data, 0xABCD);
        // The containing 64-bit word sees the bytes at the right offset.
        assert_eq!(t.read_u64(TCDM_BASE).unwrap(), 0xABCD << 32);
    }

    #[test]
    fn main_memory_roundtrip() {
        let mut m = MainMemory::new(&ClusterConfig::snitch());
        m.write_bytes(MAIN_BASE + 100, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_bytes(MAIN_BASE + 100, 3).unwrap(), &[1, 2, 3]);
        assert!(m.read_bytes(MAIN_BASE - 1, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "port already busy")]
    fn double_issue_panics() {
        let mut p = MemPort::new();
        let req = MemReq {
            addr: TCDM_BASE,
            op: MemOp::Read64,
        };
        p.issue(req);
        p.issue(req);
    }
}
