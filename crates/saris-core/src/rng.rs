//! SplitMix64 (Steele, Lea & Flood, *Fast Splittable Pseudorandom Number
//! Generators*, OOPSLA 2014): the workspace's one seeded generator.
//! Pseudo-random grids, the scale-out bootstrap and every seeded test
//! draw from it, so each draw sequence is a pure function of its seed on
//! every host.

/// The golden-ratio increment added to the state before every draw.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose first draw mixes `seed + GAMMA`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n`, by modulo: the bias is below `n / 2^64`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_sequence() {
        // The first outputs of the reference implementation from seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(42);
        assert!((0..1_000).all(|_| rng.below(7) < 7));
    }
}
