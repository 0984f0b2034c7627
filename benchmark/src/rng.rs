//! SplitMix64: the one seeded generator every stream derives from.

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A generator for one `(seed, stream, index)` position, so a
    /// request is a pure function of where it sits in its stream.
    pub fn at(seed: u64, stream: u64, index: u64) -> SplitMix64 {
        let mut rng = SplitMix64(seed);
        let a = rng.next_u64();
        let mut rng = SplitMix64(a ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let b = rng.next_u64();
        SplitMix64(b ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-50 for
    /// the small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert_ne!(
            SplitMix64::at(1, 0, 5).next_u64(),
            SplitMix64::at(1, 1, 5).next_u64()
        );
        assert_ne!(
            SplitMix64::at(1, 0, 5).next_u64(),
            SplitMix64::at(1, 0, 6).next_u64()
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..21).collect();
        SplitMix64::new(7).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..21).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
