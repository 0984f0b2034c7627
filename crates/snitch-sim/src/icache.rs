//! Shared instruction-cache model.
//!
//! All cores execute structurally identical kernels (the same binary with
//! per-core operands on real hardware), so lines are tagged by instruction
//! line index alone and shared across cores. The model captures the two
//! effects the paper mentions: cold-start misses and capacity pressure
//! from large unrolled kernels. A single refill port serializes
//! concurrent misses.
//!
//! # Hot-loop invariants
//!
//! Line indices are dense (pc / line size), so residency is tracked in a
//! flat stamp vector instead of a hash map: a fetch on the hot path is a
//! shift (the usual power-of-two line size; a division otherwise) and an
//! array load, and the only allocation is the one-time growth of the
//! stamp vector to a program's largest line index. LRU behavior is
//! identical to the previous map-based model (stamps are unique and
//! monotonic, so the eviction minimum is unambiguous).

use crate::config::ClusterConfig;

/// Shared L1 instruction cache (fully associative, LRU).
#[derive(Debug)]
pub struct ICache {
    /// Last-use stamp per line index; 0 means "not resident".
    stamps: Vec<u64>,
    /// Number of resident lines (nonzero stamps).
    resident: usize,
    capacity: usize,
    instrs_per_line: usize,
    /// `log2(instrs_per_line)` when that is a power of two.
    line_shift: Option<u32>,
    miss_penalty: u32,
    /// The single refill port is busy until this cycle.
    refill_free_at: u64,
    use_stamp: u64,
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
}

impl ICache {
    /// Creates an empty cache per `cfg`.
    pub fn new(cfg: &ClusterConfig) -> ICache {
        ICache {
            stamps: vec![0; cfg.icache_lines],
            resident: 0,
            capacity: cfg.icache_lines,
            instrs_per_line: cfg.instrs_per_icache_line(),
            line_shift: cfg
                .instrs_per_icache_line()
                .is_power_of_two()
                .then(|| cfg.instrs_per_icache_line().trailing_zeros()),
            miss_penalty: cfg.icache_miss_penalty,
            refill_free_at: 0,
            use_stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the line containing instruction index `pc` at `now`.
    /// Returns the stall cycles the fetching core must wait (0 on a hit).
    pub fn fetch(&mut self, pc: usize, now: u64) -> u32 {
        let line = match self.line_shift {
            Some(shift) => pc >> shift,
            None => pc / self.instrs_per_line,
        };
        if line >= self.stamps.len() {
            // One-time growth to the program's largest line index; never
            // triggered again on the same program.
            self.stamps.resize(line + 1, 0);
        }
        self.use_stamp += 1;
        if self.stamps[line] != 0 {
            self.stamps[line] = self.use_stamp;
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        // Evict LRU if full (misses only — hits never scan).
        if self.resident >= self.capacity {
            let lru = self
                .stamps
                .iter()
                .enumerate()
                .filter(|(_, &s)| s != 0)
                .min_by_key(|(_, &s)| s)
                .map(|(i, _)| i)
                .expect("resident lines exist");
            self.stamps[lru] = 0;
        } else {
            self.resident += 1;
        }
        self.stamps[line] = self.use_stamp;
        // Serialize refills through the single port.
        let start = self.refill_free_at.max(now);
        let done = start + self.miss_penalty as u64;
        self.refill_free_at = done;
        (done - now) as u32
    }

    /// Returns the cache to its power-on state (cold lines, zeroed
    /// counters, idle refill port) without releasing the stamp storage.
    pub fn reset(&mut self) {
        self.stamps.fill(0);
        self.resident = 0;
        self.refill_free_at = 0;
        self.use_stamp = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ICache {
        ICache::new(&ClusterConfig::snitch())
    }

    #[test]
    fn cold_miss_then_hits() {
        let mut c = cache();
        let wait = c.fetch(0, 0);
        assert!(wait > 0, "first access misses");
        for pc in 1..16 {
            assert_eq!(c.fetch(pc, 10), 0, "same line hits at pc {pc}");
        }
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits, 15);
    }

    #[test]
    fn concurrent_misses_serialize_on_refill_port() {
        let mut c = cache();
        let w1 = c.fetch(0, 0);
        let w2 = c.fetch(100, 0); // different line, same cycle
        assert!(w2 > w1, "second refill waits for the port: {w1} vs {w2}");
    }

    #[test]
    fn capacity_eviction_lru() {
        let cfg = ClusterConfig::snitch();
        let mut c = ICache::new(&cfg);
        let per = cfg.instrs_per_icache_line();
        // Fill all lines.
        for l in 0..cfg.icache_lines {
            c.fetch(l * per, 0);
        }
        // Touch line 0 so line 1 is LRU.
        assert_eq!(c.fetch(0, 1000), 0);
        // A new line evicts line 1.
        assert!(c.fetch(cfg.icache_lines * per, 1000) > 0);
        assert!(c.fetch(0, 2000) == 0, "line 0 stays resident");
        assert!(c.fetch(per, 2000) > 0, "line 1 was evicted");
    }
}
