//! Stream address generation: the one implementation of the address
//! sequences [`AffineCfg`] and [`IndirectCfg`] document and of the index
//! arrays' byte format, shared by the simulator's streamers and DMA
//! engine, the static verifier and the code generator. Addresses are
//! computed modulo 2^64, as the hardware computes them.

use crate::instr::{AffineCfg, IndexWidth, IndirectCfg};

/// An affine job's element addresses in job order (innermost dimension
/// fastest), one add per element: a counter that advances adds its
/// stride, one that wraps gives back its whole extent. Endless: after the
/// last element every counter wraps and the job starts over.
#[derive(Debug, Clone, Copy)]
pub struct AffineWalk {
    /// Address of the next element.
    addr: u64,
    dims: usize,
    counters: [u32; 4],
    strides: [i64; 4],
    bounds: [u32; 4],
    /// `strides[d] * (bounds[d] - 1)`: what dimension `d` gives back when
    /// its counter wraps.
    rewinds: [i64; 4],
}

impl Iterator for AffineWalk {
    type Item = u64;

    /// The next element's address (always `Some`).
    #[inline(always)]
    fn next(&mut self) -> Option<u64> {
        let addr = self.addr;
        for d in 0..self.dims {
            self.counters[d] += 1;
            if self.counters[d] < self.bounds[d] {
                self.addr = self.addr.wrapping_add(self.strides[d] as u64);
                break;
            }
            self.counters[d] = 0;
            self.addr = self.addr.wrapping_sub(self.rewinds[d] as u64);
        }
        Some(addr)
    }
}

/// The lowest and highest element address of an affine job, modulo 2^64
/// (both are element addresses), and whether every 8-byte element lies in
/// `lo..hi + 8` with no address wrapping past 0 or 2^64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Hull {
    pub lo: u64,
    pub hi: u64,
    pub in_range: bool,
}

impl AffineCfg {
    /// The base a job launches at: the static base plus the value staged
    /// by [`Instr::SsrSetBase`](crate::Instr::SsrSetBase) (0 if none).
    pub fn launch_base(&self, staged: u64) -> u64 {
        self.base.wrapping_add(staged)
    }

    /// Loop-nest depth of the walk: `dims`, of which at most 4 count.
    fn depth(&self) -> usize {
        (self.dims as usize).min(4)
    }

    /// The addresses of the job launched at `base`, in job order.
    pub fn walk(&self, base: u64) -> AffineWalk {
        AffineWalk {
            addr: base,
            dims: self.depth(),
            counters: [0; 4],
            strides: self.strides,
            bounds: self.bounds,
            rewinds: std::array::from_fn(|d| {
                self.strides[d].wrapping_mul(i64::from(self.bounds[d]) - 1)
            }),
        }
    }

    /// The address of element `k = i0 + bounds[0] * (i1 + bounds[1] *
    /// (i2 + …))` of the job launched at `base`; past the last element
    /// the job starts over, as in [`AffineCfg::walk`].
    ///
    /// # Panics
    ///
    /// Panics if a used bound is 0 (such a job has no elements).
    pub fn addr(&self, base: u64, mut k: u64) -> u64 {
        let mut addr = base;
        for d in 0..self.depth() {
            let bound = u64::from(self.bounds[d]);
            addr = addr.wrapping_add((k % bound).wrapping_mul(self.strides[d] as u64));
            k /= bound;
        }
        addr
    }

    /// The address hull of the job launched at `base`, in O(dims): each
    /// dimension at the end its stride makes lowest or highest. A used
    /// bound of 0 counts as 1.
    pub fn hull(&self, base: u64) -> Hull {
        let (mut lo, mut hi) = (i128::from(base), i128::from(base));
        for d in 0..self.depth() {
            let span = i128::from(self.strides[d]) * i128::from(self.bounds[d].max(1) - 1);
            lo += span.min(0);
            hi += span.max(0);
        }
        Hull {
            lo: lo as u64,
            hi: hi as u64,
            in_range: lo >= 0 && hi + 8 <= i128::from(u64::MAX),
        }
    }
}

impl IndirectCfg {
    /// The byte offset index `idx` adds to the launch base: `idx << shift`,
    /// bits past 2^64 dropped (the shift is taken modulo 64).
    pub fn offset(&self, idx: u64) -> u64 {
        idx.wrapping_shl(self.shift.into())
    }

    /// The element index `idx` selects in the job launched at `base`.
    pub fn addr(&self, base: u64, idx: u64) -> u64 {
        base.wrapping_add(self.offset(idx))
    }

    /// How many 64-bit fetches read one job's indices.
    pub fn fetches(&self) -> u32 {
        self.idx_count.div_ceil(self.idx_width.per_fetch() as u32)
    }

    /// The address of fetch `f`, which delivers the indices from
    /// `f * per_fetch` on.
    pub fn fetch_addr(&self, f: u32) -> u64 {
        self.idx_base.wrapping_add(u64::from(f) * 8)
    }
}

impl IndexWidth {
    /// Packs `indices` little-endian at this width (higher bits dropped).
    pub fn pack(self, indices: &[u64]) -> Vec<u8> {
        indices
            .iter()
            .flat_map(|idx| idx.to_le_bytes().into_iter().take(self.bytes()))
            .collect()
    }

    /// Index `k` of a 64-bit fetch from a packed array (the first index
    /// is in the lowest bits).
    #[inline(always)]
    pub fn unpack(self, word: u64, k: usize) -> u64 {
        (word >> (8 * self.bytes() * k)) & self.max_value()
    }

    /// The index in one packed entry, as its bytes sit in memory.
    pub fn read(self, entry: &[u8]) -> u64 {
        let mut word = [0; 8];
        word[..entry.len()].copy_from_slice(entry);
        self.unpack(u64::from_le_bytes(word), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::StreamDir;

    /// SplitMix64 (the crate has no dependencies to draw one from).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random affine job: 1-4 dims, strides negative, zero or positive
    /// (words, bytes or huge), bounds up to the `u32` element cap.
    fn random_affine(rng: &mut Rng) -> AffineCfg {
        let dims = 1 + rng.below(4) as u8;
        let mut bounds = [1u32; 4];
        let mut left = u64::from(u32::MAX);
        for b in bounds.iter_mut().take(dims as usize) {
            let cap = match rng.below(3) {
                0 => 4,
                1 => 64,
                _ => left,
            };
            *b = 1 + rng.below(cap.min(left)) as u32;
            left /= u64::from(*b);
        }
        let strides = std::array::from_fn(|_| match rng.below(4) {
            0 => 0,
            1 => 8 * (rng.below(64) as i64 - 32),
            2 => rng.below(1 << 12) as i64 - (1 << 11),
            _ => rng.next() as i64,
        });
        AffineCfg {
            dir: StreamDir::Read,
            base: rng.next(),
            dims,
            strides,
            bounds,
        }
    }

    /// The doc comment's formula: `base + Σ i_d * strides[d]`, modulo 2^64.
    fn formula(a: &AffineCfg, base: u64, i: [u64; 4]) -> u64 {
        (0..a.dims as usize).fold(base, |addr, d| {
            addr.wrapping_add(i[d].wrapping_mul(a.strides[d] as u64))
        })
    }

    /// The loop counters of element `k`, innermost first.
    fn counters(a: &AffineCfg, mut k: u64) -> [u64; 4] {
        std::array::from_fn(|d| {
            let b = u64::from(if d < a.dims as usize { a.bounds[d] } else { 1 });
            let i = k % b;
            k /= b;
            i
        })
    }

    #[test]
    fn walk_addr_hull_and_formula_agree_on_random_jobs() {
        let mut rng = Rng(0x5A15);
        for _ in 0..2_000 {
            let a = random_affine(&mut rng);
            let base = a.launch_base(rng.next());
            let total = u64::from(a.total_elems().expect("bounds fit the cap"));
            // The first elements, and a stretch at a random point of the
            // job reached by `addr` and continued by a fresh walk's skip.
            let start = rng.below(total);
            let mut walk = a.walk(base);
            for k in 0..total.min(300) {
                let expect = formula(&a, base, counters(&a, k));
                assert_eq!(walk.next(), Some(expect), "{a:?} element {k}");
                assert_eq!(a.addr(base, k), expect, "{a:?} element {k}");
            }
            for k in start..total.min(start + 50) {
                assert_eq!(
                    a.addr(base, k),
                    formula(&a, base, counters(&a, k)),
                    "{a:?} element {k}"
                );
            }
            // The hull's corners are the elements with every counter at
            // the end its stride makes lowest (highest).
            let hull = a.hull(base);
            let corner = |high: bool| {
                std::array::from_fn(|d| {
                    let last = if d < a.dims as usize {
                        a.bounds[d] - 1
                    } else {
                        0
                    };
                    let up = (a.strides[d] > 0) == high;
                    u64::from(if up { last } else { 0 })
                })
            };
            assert_eq!(hull.lo, formula(&a, base, corner(false)), "{a:?}");
            assert_eq!(hull.hi, formula(&a, base, corner(true)), "{a:?}");
            if hull.in_range && total <= 4096 {
                assert!(a
                    .walk(base)
                    .take(total as usize)
                    .all(|x| (hull.lo..=hull.hi).contains(&x)));
            }
        }
    }

    #[test]
    fn a_walk_starts_over_after_its_last_element() {
        let a = AffineCfg {
            dir: StreamDir::Write,
            base: 0x100,
            dims: 2,
            strides: [8, -64, 0, 0],
            bounds: [2, 3, 1, 1],
        };
        let base = a.launch_base(0x1000);
        let addrs: Vec<u64> = a.walk(base).take(8).collect();
        assert_eq!(
            addrs,
            [0x1100, 0x1108, 0x10C0, 0x10C8, 0x1080, 0x1088, 0x1100, 0x1108]
        );
        assert_eq!(a.addr(base, 7), 0x1108);
        let hull = a.hull(base);
        assert_eq!((hull.lo, hull.hi, hull.in_range), (0x1080, 0x1108, true));
        let wraps = a.hull(0x20);
        assert!(!wraps.in_range);
        assert_eq!(wraps.lo, 0x20u64.wrapping_sub(128));
    }

    #[test]
    fn index_pack_unpack_and_offset_round_trip() {
        let mut rng = Rng(0x1D5);
        for width in [IndexWidth::U8, IndexWidth::U16, IndexWidth::U32] {
            for _ in 0..200 {
                let n = 1 + rng.below(40) as usize;
                let indices: Vec<u64> = (0..n).map(|_| rng.next()).collect();
                let cfg = IndirectCfg {
                    dir: StreamDir::Read,
                    idx_base: rng.next() & !7,
                    idx_count: n as u32,
                    idx_width: width,
                    shift: rng.below(64) as u8,
                };
                let bytes = width.pack(&indices);
                assert_eq!(bytes.len(), n * width.bytes());
                let base = rng.next();
                // What the streamer sees: 64-bit words from `fetch_addr`.
                let mut seen = 0;
                for f in 0..cfg.fetches() {
                    let at = (cfg.fetch_addr(f) - cfg.idx_base) as usize;
                    let mut word = [0; 8];
                    let end = bytes.len().min(at + 8);
                    word[..end - at].copy_from_slice(&bytes[at..end]);
                    let word = u64::from_le_bytes(word);
                    for k in 0..width.per_fetch().min(n - seen) {
                        let idx = indices[seen] & width.max_value();
                        assert_eq!(width.unpack(word, k), idx);
                        assert_eq!(cfg.offset(idx), idx << cfg.shift);
                        assert_eq!(cfg.addr(base, idx), base.wrapping_add(idx << cfg.shift));
                        seen += 1;
                    }
                }
                assert_eq!(seen, n);
                // What the verifier sees: one entry at a time.
                for (entry, &idx) in bytes.chunks_exact(width.bytes()).zip(&indices) {
                    assert_eq!(width.read(entry), idx & width.max_value());
                }
            }
        }
    }
}
