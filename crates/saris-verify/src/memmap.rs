//! The memory-permission model the verifier checks stream and scalar
//! accesses against.
//!
//! A [`MemoryMap`] describes, for one core, which byte ranges the kernel's
//! TCDM layout grants it — input/output arrays, coefficient tables, index
//! arrays, guard padding — plus two extras the analysis needs:
//!
//! * **tables**: byte images of memory installed before the run (index
//!   arrays, coefficient streams). The verifier decodes indirect-stream
//!   index values out of these, which is what lets it resolve gather and
//!   scatter addresses exactly. Images are *borrowed*: the cores of one
//!   kernel share them instead of each map owning a copy.
//! * **dma_writes**: address spans an overlapped DMA transfer writes
//!   while the kernel runs, for write-hazard detection.
//!
//! The map is deliberately generic — plain named ranges — so the verifier
//! depends only on `saris-isa`/`snitch-sim` and any code generator can
//! describe its layout.

/// One granted byte range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region<'a> {
    /// Human-readable name (shows up in diagnostics and reports).
    pub name: &'a str,
    /// First byte address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Whether the kernel may write this range (reading is always allowed
    /// inside a granted region).
    pub writable: bool,
}

impl Region<'_> {
    /// Whether `addr..addr + len` lies entirely inside this region.
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.saturating_add(len) <= self.base.saturating_add(self.len)
    }
}

/// The memory grants and pre-installed contents visible to one core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryMap<'a> {
    /// Granted regions. Accesses must land entirely inside one region;
    /// where regions overlap, the first one containing an access decides
    /// its permission.
    pub regions: Vec<Region<'a>>,
    /// Pre-installed byte images, as `(base address, bytes)` pairs; used
    /// to decode indirect-stream index arrays.
    pub tables: Vec<(u64, &'a [u8])>,
    /// Address spans `(base, len)` written by DMA concurrently with the
    /// kernel (empty unless the run overlaps transfers with compute).
    pub dma_writes: Vec<(u64, u64)>,
}

impl<'a> MemoryMap<'a> {
    /// Adds a granted region.
    pub fn grant(&mut self, name: &'a str, base: u64, len: u64, writable: bool) {
        self.regions.push(Region {
            name,
            base,
            len,
            writable,
        });
    }

    /// The region fully containing `addr..addr + len`, if any.
    pub fn region_of(&self, addr: u64, len: u64) -> Option<&Region<'a>> {
        self.regions.iter().find(|r| r.contains(addr, len))
    }

    /// Whether `addr..addr + len` may be read.
    pub fn readable(&self, addr: u64, len: u64) -> bool {
        self.region_of(addr, len).is_some()
    }

    /// Whether `addr..addr + len` may be written.
    pub fn writable(&self, addr: u64, len: u64) -> bool {
        self.region_of(addr, len).is_some_and(|r| r.writable)
    }

    /// Reads `n` installed bytes at `addr`, if a table image covers them.
    pub fn table_bytes(&self, addr: u64, n: usize) -> Option<&'a [u8]> {
        self.tables.iter().find_map(|(base, bytes)| {
            let off = addr.checked_sub(*base)? as usize;
            bytes.get(off..off.checked_add(n)?)
        })
    }

    /// Whether `addr..addr + len` overlaps any concurrent DMA write span.
    pub fn overlaps_dma_writes(&self, addr: u64, len: u64) -> bool {
        let end = addr.saturating_add(len);
        self.dma_writes
            .iter()
            .any(|&(base, dlen)| addr < base.saturating_add(dlen) && base < end)
    }
}

/// [`MemoryMap::region_of`] for a caller that asks thousands of times:
/// the same answers, from spans resolved once and a last-hit cache per
/// direction (a loop that loads from one array and stores to another
/// alternates between two regions, not among all of them).
///
/// The cache is only consulted when the regions are pairwise disjoint —
/// then at most one region can contain an access, so a hit *is* the first
/// match. Every kernel `saris-codegen` emits has disjoint regions; a map
/// with overlaps falls back to the in-order scan on every query.
pub(crate) struct RegionLookup {
    /// `(base, end, writable)` per region, in map order (`end` saturated
    /// exactly as [`Region::contains`] saturates it).
    spans: Vec<(u64, u64, bool)>,
    disjoint: bool,
    /// The region that answered the last read / the last write.
    last: [usize; 2],
}

impl RegionLookup {
    pub(crate) fn new(map: &MemoryMap) -> RegionLookup {
        let spans: Vec<(u64, u64, bool)> = map
            .regions
            .iter()
            .map(|r| (r.base, r.base.saturating_add(r.len), r.writable))
            .collect();
        let disjoint = spans
            .iter()
            .enumerate()
            .all(|(i, a)| spans[..i].iter().all(|b| a.0 >= b.1 || b.0 >= a.1));
        RegionLookup {
            spans,
            disjoint,
            last: [0; 2],
        }
    }

    /// Whether no two regions share a byte.
    pub(crate) fn disjoint(&self) -> bool {
        self.disjoint
    }

    /// Whether the non-empty range `addr..addr + len` may be accessed in
    /// the given direction: the first region fully containing it exists
    /// and, for a write, is writable.
    #[inline]
    pub(crate) fn allows(&mut self, addr: u64, len: u64, write: bool) -> bool {
        debug_assert!(len > 0, "an empty range sits in two adjacent regions");
        let end = addr.saturating_add(len);
        let inside = |&(base, rend, _): &(u64, u64, bool)| addr >= base && end <= rend;
        let last = &mut self.last[usize::from(write)];
        let hit = match self.spans.get(*last) {
            Some(span) if self.disjoint && inside(span) => *last,
            _ => match self.spans.iter().position(inside) {
                Some(hit) => hit,
                None => return false,
            },
        };
        *last = hit;
        self.spans[hit].2 || !write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> MemoryMap<'static> {
        let mut m = MemoryMap::default();
        m.grant("in", 0x1000, 0x100, false);
        m.grant("out", 0x2000, 0x100, true);
        m.tables.push((0x1000, &[1, 2, 3, 4]));
        m.dma_writes.push((0x1080, 0x10));
        m
    }

    #[test]
    fn containment_and_permissions() {
        let m = map();
        assert!(m.readable(0x1000, 8));
        assert!(m.readable(0x10f8, 8));
        assert!(!m.readable(0x10f9, 8), "straddles the region end");
        assert!(!m.writable(0x1000, 8), "read-only region");
        assert!(m.writable(0x2000, 8));
        assert!(!m.readable(0x3000, 8));
        assert_eq!(m.region_of(0x2004, 4).unwrap().name, "out");
    }

    #[test]
    fn table_reads() {
        let m = map();
        assert_eq!(m.table_bytes(0x1001, 2), Some(&[2u8, 3][..]));
        assert_eq!(m.table_bytes(0x1003, 2), None, "runs past the image");
        assert_eq!(m.table_bytes(0x0fff, 1), None);
    }

    #[test]
    fn dma_overlap() {
        let m = map();
        assert!(m.overlaps_dma_writes(0x1088, 8));
        assert!(m.overlaps_dma_writes(0x1078, 16), "partial overlap counts");
        assert!(!m.overlaps_dma_writes(0x1090, 8));
        assert!(!m.overlaps_dma_writes(0x1070, 0x10));
    }

    /// The cached lookup and the map's own scan agree on every query, in
    /// any query order, with and without overlapping regions.
    #[test]
    fn lookup_agrees_with_the_in_order_scan() {
        let mut overlapping = map();
        // A writable window over the tail of read-only "in", granted
        // later: "in" still decides where both contain the access.
        overlapping.grant("window", 0x1080, 0x100, true);
        let mut saturating = map();
        saturating.grant("top", u64::MAX - 0x10, 0x100, true);
        for (m, disjoint) in [(map(), true), (overlapping, false), (saturating, true)] {
            let mut lookup = RegionLookup::new(&m);
            assert_eq!(lookup.disjoint(), disjoint);
            let probes = [
                0x1000,
                0x2000,
                0x10f8,
                0x1080,
                0x1100,
                0x1178,
                0x10fc,
                0x2004,
                0x0ff8,
                0x3000,
                u64::MAX - 8,
                u64::MAX - 4,
            ];
            for &a in probes.iter().chain(probes.iter().rev()) {
                for len in [4, 8, 0x80] {
                    assert_eq!(
                        lookup.allows(a, len, false),
                        m.readable(a, len),
                        "{a:#x}+{len}"
                    );
                    assert_eq!(
                        lookup.allows(a, len, true),
                        m.writable(a, len),
                        "{a:#x}+{len}"
                    );
                }
            }
        }
    }
}
