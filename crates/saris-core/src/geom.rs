//! Grid geometry: extents, points, and stencil offsets.
//!
//! Grids are up to three-dimensional and stored row-major with `x`
//! contiguous, matching the paper's `[z][y][x]` indexing.

use std::fmt;

/// Dimensionality of a stencil or grid (2D or 3D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Two-dimensional (`[y][x]`).
    Dim2,
    /// Three-dimensional (`[z][y][x]`).
    Dim3,
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Space::Dim2 => f.write_str("2D"),
            Space::Dim3 => f.write_str("3D"),
        }
    }
}

/// The extent of a grid: `nx * ny * nz` elements (`nz == 1` for 2D).
///
/// # Examples
///
/// ```
/// use saris_core::geom::Extent;
///
/// let e = Extent::new_2d(64, 64);
/// assert_eq!(e.len(), 4096);
/// assert_eq!(e.linear(3, 2, 0), 2 * 64 + 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// Elements along `x` (contiguous axis).
    pub nx: usize,
    /// Elements along `y`.
    pub ny: usize,
    /// Elements along `z` (1 for 2D grids).
    pub nz: usize,
}

impl Extent {
    /// A 2D extent (`nz = 1`).
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn new_2d(nx: usize, ny: usize) -> Extent {
        assert!(nx > 0 && ny > 0, "extents must be positive");
        Extent { nx, ny, nz: 1 }
    }

    /// A 3D extent.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new_3d(nx: usize, ny: usize, nz: usize) -> Extent {
        assert!(nx > 0 && ny > 0 && nz > 0, "extents must be positive");
        Extent { nx, ny, nz }
    }

    /// A cubic extent for the given space: `n x n` or `n x n x n`.
    pub fn cube(space: Space, n: usize) -> Extent {
        match space {
            Space::Dim2 => Extent::new_2d(n, n),
            Space::Dim3 => Extent::new_3d(n, n, n),
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Whether the extent is degenerate (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The space this extent lives in.
    pub fn space(&self) -> Space {
        if self.nz == 1 {
            Space::Dim2
        } else {
            Space::Dim3
        }
    }

    /// Row-major linear index of `(x, y, z)` with `x` contiguous.
    #[inline]
    pub fn linear(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z * self.ny + y) * self.nx + x
    }

    /// Linear index of a [`Point`].
    #[inline]
    pub fn linear_point(&self, p: Point) -> usize {
        self.linear(p.x, p.y, p.z)
    }

    /// The signed element distance a given [`Offset`] moves in linear
    /// (row-major) space, independent of the reference point.
    #[inline]
    pub fn linear_offset(&self, o: Offset) -> i64 {
        o.dx as i64 + (self.nx as i64) * (o.dy as i64 + (self.ny as i64) * o.dz as i64)
    }

    /// Whether `p + o` stays inside the extent.
    pub fn contains_offset(&self, p: Point, o: Offset) -> bool {
        let x = p.x as i64 + o.dx as i64;
        let y = p.y as i64 + o.dy as i64;
        let z = p.z as i64 + o.dz as i64;
        x >= 0
            && y >= 0
            && z >= 0
            && (x as usize) < self.nx
            && (y as usize) < self.ny
            && (z as usize) < self.nz
    }

    /// Iterates all points in the extent (x fastest).
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        (0..nz)
            .flat_map(move |z| (0..ny).flat_map(move |y| (0..nx).map(move |x| Point { x, y, z })))
    }

    /// Iterates the interior points at distance `>= halo` from every face
    /// (for the axes that the halo affects; 2D grids ignore the z halo).
    pub fn interior_points(&self, halo: Halo) -> impl Iterator<Item = Point> + '_ {
        let zr = if self.nz == 1 {
            0..1
        } else {
            halo.rz as usize..self.nz.saturating_sub(halo.rz as usize)
        };
        let (nx, ny) = (self.nx, self.ny);
        let (rx, ry) = (halo.rx as usize, halo.ry as usize);
        zr.flat_map(move |z| {
            (ry..ny.saturating_sub(ry))
                .flat_map(move |y| (rx..nx.saturating_sub(rx)).map(move |x| Point { x, y, z }))
        })
    }

    /// Extent of the interior region for a halo (saturating at zero).
    pub fn interior_extent(&self, halo: Halo) -> Extent {
        let nx = self.nx.saturating_sub(2 * halo.rx as usize).max(1);
        let ny = self.ny.saturating_sub(2 * halo.ry as usize).max(1);
        let nz = if self.nz == 1 {
            1
        } else {
            self.nz.saturating_sub(2 * halo.rz as usize).max(1)
        };
        Extent { nx, ny, nz }
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nz == 1 {
            write!(f, "{}x{}", self.nx, self.ny)
        } else {
            write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
        }
    }
}

/// A grid point (non-negative coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Point {
    /// `x` coordinate (contiguous axis).
    pub x: usize,
    /// `y` coordinate.
    pub y: usize,
    /// `z` coordinate (0 for 2D).
    pub z: usize,
}

impl Point {
    /// Creates a 2D point.
    pub fn new_2d(x: usize, y: usize) -> Point {
        Point { x, y, z: 0 }
    }

    /// Creates a 3D point.
    pub fn new_3d(x: usize, y: usize, z: usize) -> Point {
        Point { x, y, z }
    }

    /// The point displaced by `o`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any coordinate would become negative.
    pub fn offset(&self, o: Offset) -> Point {
        Point {
            x: (self.x as i64 + o.dx as i64) as usize,
            y: (self.y as i64 + o.dy as i64) as usize,
            z: (self.z as i64 + o.dz as i64) as usize,
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// A signed displacement from a grid point — one leg of a stencil shape.
///
/// # Examples
///
/// ```
/// use saris_core::geom::Offset;
///
/// let west = Offset::d2(-1, 0);
/// assert_eq!(west.max_abs(), 1);
/// assert_eq!(west.to_string(), "(-1, 0, 0)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Offset {
    /// Displacement along `x`.
    pub dx: i32,
    /// Displacement along `y`.
    pub dy: i32,
    /// Displacement along `z`.
    pub dz: i32,
}

impl Offset {
    /// The zero offset (the center point).
    pub const CENTER: Offset = Offset {
        dx: 0,
        dy: 0,
        dz: 0,
    };

    /// A 2D offset (`dz = 0`).
    pub fn d2(dx: i32, dy: i32) -> Offset {
        Offset { dx, dy, dz: 0 }
    }

    /// A 3D offset.
    pub fn d3(dx: i32, dy: i32, dz: i32) -> Offset {
        Offset { dx, dy, dz }
    }

    /// The largest absolute displacement along any axis (the offset's
    /// contribution to the stencil radius).
    pub fn max_abs(&self) -> u32 {
        self.dx
            .unsigned_abs()
            .max(self.dy.unsigned_abs())
            .max(self.dz.unsigned_abs())
    }

    /// The opposite offset.
    pub fn negated(&self) -> Offset {
        Offset {
            dx: -self.dx,
            dy: -self.dy,
            dz: -self.dz,
        }
    }

    /// Whether this offset is the center.
    pub fn is_center(&self) -> bool {
        *self == Offset::CENTER
    }
}

impl fmt::Display for Offset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.dx, self.dy, self.dz)
    }
}

/// Per-axis halo radii required around the interior of a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Halo {
    /// Radius along `x`.
    pub rx: u32,
    /// Radius along `y`.
    pub ry: u32,
    /// Radius along `z`.
    pub rz: u32,
}

impl Halo {
    /// A uniform halo on all axes.
    pub fn uniform(r: u32) -> Halo {
        Halo {
            rx: r,
            ry: r,
            rz: r,
        }
    }

    /// The halo covering a set of offsets.
    pub fn covering<'a>(offsets: impl IntoIterator<Item = &'a Offset>) -> Halo {
        let mut h = Halo::default();
        for o in offsets {
            h.rx = h.rx.max(o.dx.unsigned_abs());
            h.ry = h.ry.max(o.dy.unsigned_abs());
            h.rz = h.rz.max(o.dz.unsigned_abs());
        }
        h
    }

    /// The largest radius along any axis (the paper's "Rad." column).
    pub fn max_radius(&self) -> u32 {
        self.rx.max(self.ry).max(self.rz)
    }
}

impl fmt::Display for Halo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}, {}]", self.rx, self.ry, self.rz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_linear_roundtrip() {
        let e = Extent::new_3d(5, 4, 3);
        let mut seen = vec![false; e.len()];
        for p in e.points() {
            let i = e.linear_point(p);
            assert!(!seen[i], "duplicate linear index {i}");
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn x_is_contiguous() {
        let e = Extent::new_3d(8, 4, 2);
        assert_eq!(e.linear(1, 0, 0) - e.linear(0, 0, 0), 1);
        assert_eq!(e.linear(0, 1, 0) - e.linear(0, 0, 0), 8);
        assert_eq!(e.linear(0, 0, 1) - e.linear(0, 0, 0), 32);
    }

    #[test]
    fn linear_offset_matches_point_displacement() {
        let e = Extent::new_3d(7, 5, 4);
        let p = Point::new_3d(3, 2, 1);
        for o in [
            Offset::d3(1, 0, 0),
            Offset::d3(-2, 1, 0),
            Offset::d3(0, -1, 2),
            Offset::d3(-1, -1, -1),
        ] {
            let q = p.offset(o);
            let diff = e.linear_point(q) as i64 - e.linear_point(p) as i64;
            assert_eq!(diff, e.linear_offset(o), "offset {o}");
        }
    }

    #[test]
    fn interior_points_respect_halo() {
        let e = Extent::new_2d(6, 5);
        let pts: Vec<_> = e.interior_points(Halo::uniform(1)).collect();
        assert_eq!(pts.len(), 4 * 3);
        assert!(pts
            .iter()
            .all(|p| p.x >= 1 && p.x <= 4 && p.y >= 1 && p.y <= 3));
        // 2D grids ignore the z halo entirely.
        let pts3: Vec<_> = e.interior_points(Halo::uniform(1)).collect();
        assert_eq!(pts.len(), pts3.len());
    }

    #[test]
    fn interior_extent_2d_ignores_z() {
        let e = Extent::new_2d(64, 64);
        let i = e.interior_extent(Halo::uniform(3));
        assert_eq!(i, Extent::new_2d(58, 58));
    }

    #[test]
    fn interior_extent_3d() {
        let e = Extent::new_3d(16, 16, 16);
        let i = e.interior_extent(Halo::uniform(2));
        assert_eq!(i, Extent::new_3d(12, 12, 12));
    }

    #[test]
    fn halo_covering() {
        let offs = [
            Offset::d3(-3, 0, 0),
            Offset::d3(0, 2, 0),
            Offset::d3(1, 1, -1),
        ];
        let h = Halo::covering(&offs);
        assert_eq!(
            h,
            Halo {
                rx: 3,
                ry: 2,
                rz: 1
            }
        );
        assert_eq!(h.max_radius(), 3);
    }

    #[test]
    fn offset_helpers() {
        let o = Offset::d3(-2, 1, 0);
        assert_eq!(o.negated(), Offset::d3(2, -1, 0));
        assert!(Offset::CENTER.is_center());
        assert_eq!(o.max_abs(), 2);
    }

    #[test]
    fn contains_offset() {
        let e = Extent::new_2d(4, 4);
        let p = Point::new_2d(0, 3);
        assert!(!e.contains_offset(p, Offset::d2(-1, 0)));
        assert!(!e.contains_offset(p, Offset::d2(0, 1)));
        assert!(e.contains_offset(p, Offset::d2(1, -1)));
    }

    #[test]
    fn extent_display() {
        assert_eq!(Extent::new_2d(64, 32).to_string(), "64x32");
        assert_eq!(Extent::new_3d(4, 5, 6).to_string(), "4x5x6");
        assert_eq!(Extent::cube(Space::Dim3, 16), Extent::new_3d(16, 16, 16));
    }

    #[test]
    #[should_panic(expected = "extents must be positive")]
    fn zero_extent_panics() {
        let _ = Extent::new_2d(0, 4);
    }
}
