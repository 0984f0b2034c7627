//! Owned double-precision grids with halo-aware helpers.

use std::fmt;

use crate::geom::{Extent, Halo, Offset, Point};

/// A dense, row-major `f64` grid (the unit of data stencils operate on).
///
/// The extent *includes* any halo; which region is "interior" is decided by
/// the stencil's halo at execution time, matching the paper's tiles
/// ("a 64^2 or 16^3 grid tile including halos").
///
/// # Examples
///
/// ```
/// use saris_core::grid::Grid;
/// use saris_core::geom::{Extent, Point};
///
/// let mut g = Grid::zeros(Extent::new_2d(8, 8));
/// g.set(Point::new_2d(3, 4), 2.5);
/// assert_eq!(g.get(Point::new_2d(3, 4)), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    extent: Extent,
    data: Vec<f64>,
}

impl Grid {
    /// A grid of zeros.
    pub fn zeros(extent: Extent) -> Grid {
        Grid {
            extent,
            data: vec![0.0; extent.len()],
        }
    }

    /// A grid filled with `value`.
    pub fn filled(extent: Extent, value: f64) -> Grid {
        Grid {
            extent,
            data: vec![value; extent.len()],
        }
    }

    /// A grid initialized from a function of the point.
    pub fn from_fn(extent: Extent, mut f: impl FnMut(Point) -> f64) -> Grid {
        let mut data = Vec::with_capacity(extent.len());
        for p in extent.points() {
            data.push(f(p));
        }
        Grid { extent, data }
    }

    /// A deterministic pseudo-random grid in `[-1, 1)`, seeded by `seed`.
    ///
    /// Draws from [`SplitMix64`](crate::rng::SplitMix64), so tests and
    /// benches get reproducible data.
    pub fn pseudo_random(extent: Extent, seed: u64) -> Grid {
        let mut rng = crate::rng::SplitMix64::new(seed.wrapping_add(crate::rng::GAMMA));
        Grid::from_fn(extent, |_| {
            // 53 random mantissa bits -> [0, 1) -> [-1, 1).
            let bits = rng.next_u64() >> 11;
            (bits as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    /// Builds a grid from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != extent.len()`.
    pub fn from_raw(extent: Extent, data: Vec<f64>) -> Grid {
        assert_eq!(
            data.len(),
            extent.len(),
            "data length must match extent {extent}"
        );
        Grid { extent, data }
    }

    /// The grid extent (including halo).
    pub fn extent(&self) -> Extent {
        self.extent
    }

    /// Read a point.
    ///
    /// # Panics
    ///
    /// Panics if the point is out of range.
    #[inline]
    pub fn get(&self, p: Point) -> f64 {
        self.data[self.extent.linear_point(p)]
    }

    /// Read `p + o`.
    #[inline]
    pub fn get_off(&self, p: Point, o: Offset) -> f64 {
        self.get(p.offset(o))
    }

    /// Write a point.
    #[inline]
    pub fn set(&mut self, p: Point, value: f64) {
        let i = self.extent.linear_point(p);
        self.data[i] = value;
    }

    /// The backing row-major slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The backing row-major slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Largest absolute difference on the interior region (the halo is
    /// excluded because kernels do not write it).
    pub fn max_abs_diff_interior(&self, other: &Grid, halo: Halo) -> f64 {
        assert_eq!(self.extent, other.extent, "grids must share an extent");
        self.extent
            .interior_points(halo)
            .map(|p| (self.get(p) - other.get(p)).abs())
            .fold(0.0, f64::max)
    }

    /// Largest absolute difference anywhere.
    pub fn max_abs_diff(&self, other: &Grid) -> f64 {
        assert_eq!(self.extent, other.extent, "grids must share an extent");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Grid[{}]", self.extent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut g = Grid::zeros(Extent::new_2d(4, 4));
        assert_eq!(g.get(Point::new_2d(2, 2)), 0.0);
        g.set(Point::new_2d(2, 2), 1.5);
        assert_eq!(g.get(Point::new_2d(2, 2)), 1.5);
    }

    #[test]
    fn from_fn_layout() {
        let e = Extent::new_2d(3, 2);
        let g = Grid::from_fn(e, |p| (p.y * 10 + p.x) as f64);
        assert_eq!(g.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn pseudo_random_is_deterministic_and_bounded() {
        let e = Extent::new_3d(4, 4, 4);
        let a = Grid::pseudo_random(e, 42);
        let b = Grid::pseudo_random(e, 42);
        let c = Grid::pseudo_random(e, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn diff_interior_ignores_halo() {
        let e = Extent::new_2d(4, 4);
        let a = Grid::zeros(e);
        let mut b = Grid::zeros(e);
        b.set(Point::new_2d(0, 0), 99.0); // halo corner
        assert_eq!(a.max_abs_diff_interior(&b, Halo::uniform(1)), 0.0);
        assert_eq!(a.max_abs_diff(&b), 99.0);
        b.set(Point::new_2d(1, 1), 2.0); // interior
        assert_eq!(a.max_abs_diff_interior(&b, Halo::uniform(1)), 2.0);
    }

    #[test]
    fn get_off() {
        let e = Extent::new_2d(4, 4);
        let g = Grid::from_fn(e, |p| p.x as f64);
        assert_eq!(g.get_off(Point::new_2d(1, 1), Offset::d2(1, 0)), 2.0);
        assert_eq!(g.get_off(Point::new_2d(1, 1), Offset::d2(-1, 1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "data length must match")]
    fn from_raw_length_checked() {
        let _ = Grid::from_raw(Extent::new_2d(2, 2), vec![0.0; 3]);
    }

    #[test]
    fn display() {
        let g = Grid::zeros(Extent::new_3d(2, 3, 4));
        assert_eq!(g.to_string(), "Grid[2x3x4]");
    }
}
