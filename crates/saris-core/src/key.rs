//! The workspace's one key derivation: every fingerprint, cache key,
//! calibration context, fault-schedule key and ring position is
//! [`key_of`] a value whose type derives [`Hash`] (float fields are
//! written by their bits). A field is keyed by being declared; a key
//! that leaves fields out says so where it is defined. Keys are stable
//! across hosts, toolchains and builds; `tests/keys.rs` pins them.

use std::hash::{Hash, Hasher};

/// SipHash-2-4 with zero keys and platform-independent integer writes:
/// at least as collision-resistant as std's `HashMap` hasher
/// (SipHash-1-3), which the keys must be — caches compare keys only,
/// and a network server derives them from whatever a peer sends.
#[derive(Debug, Clone, Default)]
pub struct StableHasher(#[allow(deprecated)] std::hash::SipHasher);

macro_rules! le_writes {
    ($($write:ident($ty:ty) as $wide:ty),* $(,)?) => {$(
        #[inline]
        fn $write(&mut self, i: $ty) {
            self.0.write(&(i as $wide).to_le_bytes());
        }
    )*};
}

impl Hasher for StableHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    le_writes!(
        write_u16(u16) as u16,
        write_u32(u32) as u32,
        write_u64(u64) as u64,
        write_u128(u128) as u128,
        write_usize(usize) as u64,
        write_i16(i16) as i16,
        write_i32(i32) as i32,
        write_i64(i64) as i64,
        write_i128(i128) as i128,
        write_isize(isize) as i64,
    );

    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The stable 64-bit key of `value`.
pub fn key_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut state = StableHasher::default();
    value.hash(&mut state);
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(deprecated)]
    fn is_siphash_2_4() {
        // The SipHash paper's test vector (its Appendix A): message
        // 00..0e under key 00..0f.
        let mut h = StableHasher(std::hash::SipHasher::new_with_keys(
            0x0706_0504_0302_0100,
            0x0f0e_0d0c_0b0a_0908,
        ));
        h.write(&(0u8..15).collect::<Vec<_>>());
        assert_eq!(h.finish(), 0xa129_ca61_49be_45e5);
    }

    #[test]
    fn integers_are_fixed_width_little_endian() {
        let bytes = |b: &[u8]| {
            let mut h = StableHasher::default();
            h.write(b);
            h.finish()
        };
        assert_eq!(key_of(&0x0102usize), bytes(&[2, 1, 0, 0, 0, 0, 0, 0]));
        assert_eq!(
            key_of(&-2isize),
            bytes(&[0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff])
        );
        assert_eq!(key_of(&0x0102u16), bytes(&[2, 1]));
        assert_eq!(key_of(&0x0102_0304u32), bytes(&[4, 3, 2, 1]));
        // Splitting the bytes across writes does not move the key.
        let mut h = StableHasher::default();
        h.write_u8(2);
        h.write(&[1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(h.finish(), key_of(&0x0102u64));
    }
}
