//! Integer grid points with Manhattan metrics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point on the routing grid, in grid coordinates.
///
/// Coordinates are signed so that intermediate geometric constructions
/// (e.g. tilted-rectangle corners in the DME algorithm) may temporarily
/// leave the chip area; the [`Grid`](crate::Grid) clamps when rasterizing.
///
/// # Examples
///
/// ```
/// use pacor_grid::Point;
///
/// let a = Point::new(1, 2);
/// let b = Point::new(4, 6);
/// assert_eq!(a.manhattan(b), 7);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Point {
    /// Horizontal grid coordinate.
    pub x: i32,
    /// Vertical grid coordinate.
    pub y: i32,
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[inline]
    pub const fn new(x: i32, y: i32) -> Self {
        Self { x, y }
    }

    /// Manhattan (L1) distance to `other`.
    ///
    /// This is the metric used for all channel-length estimation in PACOR
    /// (Section 4.2: "the path length is estimated by Manhattan distance").
    #[inline]
    pub fn manhattan(self, other: Point) -> u64 {
        (self.x as i64 - other.x as i64).unsigned_abs()
            + (self.y as i64 - other.y as i64).unsigned_abs()
    }

    /// Chebyshev (L∞) distance to `other`; used by the loop search that
    /// expands square rings around a blocked merging node.
    #[inline]
    pub fn chebyshev(self, other: Point) -> u64 {
        (self.x as i64 - other.x as i64)
            .unsigned_abs()
            .max((self.y as i64 - other.y as i64).unsigned_abs())
    }

    /// The four axis-aligned neighbors, in deterministic order
    /// (left, right, down, up).
    #[inline]
    pub fn neighbors4(self) -> [Point; 4] {
        [
            Point::new(self.x - 1, self.y),
            Point::new(self.x + 1, self.y),
            Point::new(self.x, self.y - 1),
            Point::new(self.x, self.y + 1),
        ]
    }

    /// Returns `true` if `other` is an axis-aligned unit-distance neighbor.
    #[inline]
    pub fn is_adjacent(self, other: Point) -> bool {
        self.manhattan(other) == 1
    }

    /// Rotated coordinates `(x + y, y - x)` used for Manhattan-to-Chebyshev
    /// transforms when manipulating tilted rectangular regions (TRRs) in
    /// the DME merging-segment computation.
    #[inline]
    pub fn to_rotated(self) -> (i64, i64) {
        (self.x as i64 + self.y as i64, self.y as i64 - self.x as i64)
    }

    /// Inverse of [`Point::to_rotated`], rounding to the nearest grid point
    /// when the rotated coordinates have mismatched parity (Lemma 1 of the
    /// paper: odd Manhattan distance makes merging segments off-grid).
    ///
    /// Returns the snapped point and `true` when snapping introduced a
    /// half-unit rounding (the "rounding error" the paper eliminates by
    /// detouring afterwards).
    #[inline]
    pub fn from_rotated_snapped(u: i64, v: i64) -> (Point, bool) {
        // x = (u - v)/2, y = (u + v)/2; integral iff u, v share parity.
        let exact = (u - v).rem_euclid(2) == 0;
        let x = (u - v).div_euclid(2);
        let y = (u + v + ((u + v).rem_euclid(2))) / 2; // round y up on odd sum
        let x = if exact { x } else { (u - v + 1).div_euclid(2) };
        (Point::new(x as i32, y as i32), !exact)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i32, i32)> for Point {
    fn from((x, y): (i32, i32)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_basic() {
        assert_eq!(Point::new(0, 0).manhattan(Point::new(0, 0)), 0);
        assert_eq!(Point::new(0, 0).manhattan(Point::new(3, 4)), 7);
        assert_eq!(Point::new(-2, -3).manhattan(Point::new(2, 3)), 10);
    }

    #[test]
    fn manhattan_is_symmetric() {
        let a = Point::new(17, -4);
        let b = Point::new(-3, 12);
        assert_eq!(a.manhattan(b), b.manhattan(a));
    }

    #[test]
    fn chebyshev_basic() {
        assert_eq!(Point::new(0, 0).chebyshev(Point::new(3, 4)), 4);
        assert_eq!(Point::new(1, 1).chebyshev(Point::new(1, 1)), 0);
    }

    #[test]
    fn neighbors_are_adjacent() {
        let p = Point::new(5, 5);
        for n in p.neighbors4() {
            assert!(p.is_adjacent(n));
            assert_eq!(p.manhattan(n), 1);
        }
    }

    #[test]
    fn neighbors_are_distinct() {
        let p = Point::new(0, 0);
        let ns = p.neighbors4();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(ns[i], ns[j]);
            }
        }
    }

    #[test]
    fn rotated_roundtrip_even() {
        let p = Point::new(7, 11);
        let (u, v) = p.to_rotated();
        let (q, snapped) = Point::from_rotated_snapped(u, v);
        assert_eq!(p, q);
        assert!(!snapped);
    }

    #[test]
    fn rotated_snap_reports_rounding() {
        // u, v of mismatched parity cannot come from a grid point.
        let (q, snapped) = Point::from_rotated_snapped(3, 0);
        assert!(snapped);
        // The snapped point must be within 1 unit of the exact preimage
        // (1.5, 1.5) in both axes.
        assert!((q.x - 1).abs() <= 1 && (q.y - 1).abs() <= 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Point::new(-1, 2).to_string(), "(-1, 2)");
    }

    #[test]
    fn from_tuple() {
        let p: Point = (3, 4).into();
        assert_eq!(p, Point::new(3, 4));
    }
}
