//! Tilted rectangular regions in rotated coordinates.
//!
//! A *tilted rectangular region* (TRR) is the Minkowski sum of a Manhattan
//! segment with a Manhattan ball — the shape of all DME merging regions.
//! Under the rotation `(u, v) = (x + y, y − x)` the Manhattan metric
//! becomes the Chebyshev metric and every TRR becomes an axis-aligned
//! rectangle, closed under the two operations DME needs: inflation by a
//! radius and intersection.
//!
//! Coordinates here are stored in **half-units** (doubled), so that the
//! merging radii — which are half-integral when Manhattan distances are
//! odd (Lemma 1 of the paper) — stay exactly representable as integers.

use pacor_grid::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle in doubled rotated coordinates; the image of
/// a tilted rectangular region of the routing plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Trr {
    /// Minimum `u = 2(x + y)`.
    pub u_min: i64,
    /// Maximum `u`.
    pub u_max: i64,
    /// Minimum `v = 2(y − x)`.
    pub v_min: i64,
    /// Maximum `v`.
    pub v_max: i64,
}

impl Trr {
    /// The TRR of a single grid point (a rotated point).
    pub fn from_point(p: Point) -> Self {
        let u = 2 * (p.x as i64 + p.y as i64);
        let v = 2 * (p.y as i64 - p.x as i64);
        Self {
            u_min: u,
            u_max: u,
            v_min: v,
            v_max: v,
        }
    }

    /// Returns `true` when the region is a single rotated point.
    pub fn is_point(&self) -> bool {
        self.u_min == self.u_max && self.v_min == self.v_max
    }

    /// Inflates by `r` half-units in the Chebyshev metric — the Minkowski
    /// sum with a Manhattan ball of radius `r/2` grid units.
    ///
    /// # Panics
    ///
    /// Panics when `r < 0`.
    pub fn inflate(&self, r: i64) -> Trr {
        assert!(r >= 0, "inflation radius must be non-negative");
        Trr {
            u_min: self.u_min - r,
            u_max: self.u_max + r,
            v_min: self.v_min - r,
            v_max: self.v_max + r,
        }
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersect(&self, other: &Trr) -> Option<Trr> {
        let t = Trr {
            u_min: self.u_min.max(other.u_min),
            u_max: self.u_max.min(other.u_max),
            v_min: self.v_min.max(other.v_min),
            v_max: self.v_max.min(other.v_max),
        };
        (t.u_min <= t.u_max && t.v_min <= t.v_max).then_some(t)
    }

    /// Chebyshev distance to another region in half-units — equal to
    /// twice the minimum Manhattan distance between the underlying tilted
    /// regions.
    pub fn distance(&self, other: &Trr) -> i64 {
        let du = (other.u_min - self.u_max)
            .max(self.u_min - other.u_max)
            .max(0);
        let dv = (other.v_min - self.v_max)
            .max(self.v_min - other.v_max)
            .max(0);
        du.max(dv)
    }

    /// Chebyshev distance from a rotated point `(u, v)` in half-units.
    pub fn distance_to(&self, u: i64, v: i64) -> i64 {
        let du = (self.u_min - u).max(u - self.u_max).max(0);
        let dv = (self.v_min - v).max(v - self.v_max).max(0);
        du.max(dv)
    }

    /// The point of the region closest (Chebyshev) to `(u, v)`.
    pub fn closest_to(&self, u: i64, v: i64) -> (i64, i64) {
        (
            u.clamp(self.u_min, self.u_max),
            v.clamp(self.v_min, self.v_max),
        )
    }

    /// Center of the region (rounded toward `u_min`/`v_min`).
    pub fn center(&self) -> (i64, i64) {
        (
            self.u_min + (self.u_max - self.u_min) / 2,
            self.v_min + (self.v_max - self.v_min) / 2,
        )
    }

    /// The four corners `(u, v)` of the region.
    pub fn corners(&self) -> [(i64, i64); 4] {
        [
            (self.u_min, self.v_min),
            (self.u_min, self.v_max),
            (self.u_max, self.v_min),
            (self.u_max, self.v_max),
        ]
    }

    /// Maps a rotated half-unit point back to the nearest grid point,
    /// returning the point and the snapping displacement in half-units
    /// (0 when the point was exactly on grid; Lemma 1 situations give a
    /// positive displacement).
    pub fn snap_to_grid(u: i64, v: i64) -> (Point, i64) {
        // Exact preimage: x = (u - v) / 4, y = (u + v) / 4. Rounding x
        // and y independently can slide diagonally off a merging segment
        // (both half-values rounding the same way change u by 2 while v
        // stays), so evaluate the four surrounding grid points and keep
        // the one with minimal rotated-space error.
        let (x4, y4) = (u - v, u + v);
        let xs = [x4.div_euclid(4), x4.div_euclid(4) + 1];
        let ys = [y4.div_euclid(4), y4.div_euclid(4) + 1];
        let mut best: Option<(Point, i64)> = None;
        for &x in &xs {
            for &y in &ys {
                let (pu, pv) = (2 * (x + y), 2 * (y - x));
                let err = (pu - u).abs().max((pv - v).abs());
                let p = Point::new(x as i32, y as i32);
                if best.map(|(_, e)| err < e).unwrap_or(true) {
                    best = Some((p, err));
                }
            }
        }
        best.expect("candidate set nonempty")
    }

    /// Region-aware snap: the grid point nearest to rotated target
    /// `(u, v)` whose rotated image lies *inside* this region, when one
    /// exists within a 2-cell neighbourhood; otherwise the plain
    /// [`Trr::snap_to_grid`] result. Keeping the merging node on the
    /// merging region preserves the equidistance DME budgeted, even when
    /// the region's center itself is off-lattice (Lemma 1).
    pub fn snap_into(&self, u: i64, v: i64) -> (Point, i64) {
        let (x4, y4) = (u - v, u + v);
        let (x0, y0) = (x4.div_euclid(4), y4.div_euclid(4));
        let mut best_inside: Option<(Point, i64)> = None;
        for dx in -2..=2i64 {
            for dy in -2..=2i64 {
                let (x, y) = (x0 + dx, y0 + dy);
                let (pu, pv) = (2 * (x + y), 2 * (y - x));
                if self.distance_to(pu, pv) != 0 {
                    continue;
                }
                let err = (pu - u).abs().max((pv - v).abs());
                let p = Point::new(x as i32, y as i32);
                let better = match best_inside {
                    None => true,
                    Some((bp, be)) => err < be || (err == be && (p.y, p.x) < (bp.y, bp.x)),
                };
                if better {
                    best_inside = Some((p, err));
                }
            }
        }
        best_inside.unwrap_or_else(|| Trr::snap_to_grid(u, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_roundtrip() {
        for p in [Point::new(0, 0), Point::new(3, -2), Point::new(7, 11)] {
            let t = Trr::from_point(p);
            assert!(t.is_point());
            let (q, err) = Trr::snap_to_grid(t.u_min, t.v_min);
            assert_eq!(q, p);
            assert_eq!(err, 0);
        }
    }

    #[test]
    fn distance_matches_manhattan() {
        let a = Trr::from_point(Point::new(0, 0));
        let b = Trr::from_point(Point::new(3, 4));
        // Half-units: distance = 2 × Manhattan.
        assert_eq!(a.distance(&b), 14);
        assert_eq!(a.distance(&a), 0);
    }

    #[test]
    fn inflate_then_distance() {
        let a = Trr::from_point(Point::new(0, 0)).inflate(6); // radius 3 grid units
        let b = Trr::from_point(Point::new(10, 0));
        // Manhattan gap: 10 − 3 = 7 grid units = 14 half-units.
        assert_eq!(a.distance(&b), 14);
    }

    #[test]
    fn intersect_balls_is_merging_segment() {
        // Classic DME: two points at Manhattan distance 6; radii 3 and 3.
        let a = Trr::from_point(Point::new(0, 0)).inflate(6);
        let b = Trr::from_point(Point::new(6, 0)).inflate(6);
        let m = a.intersect(&b).expect("balls touch");
        // The merging segment is the diagonal through (3, 0): in rotated
        // half-units u ∈ [6−6, 6+6]∩[12−6,0+6] = [6,6]? compute: a = u,v ∈ [−6,6];
        // b: u ∈ [12−6, 12+6] = [6,18], v ∈ [−12−6, −12+6]+... just assert
        // it is a diagonal segment containing the midpoint (3, 0).
        let mid = Trr::from_point(Point::new(3, 0));
        assert!(m.intersect(&mid).is_some());
        // A segment: degenerate in exactly one axis.
        assert!(m.u_min == m.u_max || m.v_min == m.v_max);
    }

    #[test]
    fn disjoint_intersection_is_none() {
        let a = Trr::from_point(Point::new(0, 0)).inflate(2);
        let b = Trr::from_point(Point::new(9, 9)).inflate(2);
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn closest_point_clamps() {
        let t = Trr {
            u_min: 0,
            u_max: 10,
            v_min: -4,
            v_max: 4,
        };
        assert_eq!(t.closest_to(20, 0), (10, 0));
        assert_eq!(t.closest_to(5, -9), (5, -4));
        assert_eq!(t.closest_to(5, 0), (5, 0));
        assert_eq!(t.distance_to(20, 0), 10);
        assert_eq!(t.distance_to(5, 0), 0);
    }

    #[test]
    fn snap_reports_half_unit_error() {
        // A rotated point between grid points: u=2, v=0 → x = 0.5, y = 0.5.
        let (p, err) = Trr::snap_to_grid(2, 0);
        assert!(err > 0);
        // The snapped point is within one grid unit of the exact preimage.
        assert!(p.manhattan(Point::new(0, 0)) <= 1 || p.manhattan(Point::new(1, 1)) <= 1);
    }

    #[test]
    fn corners_and_center_inside() {
        let t = Trr {
            u_min: 0,
            u_max: 8,
            v_min: 2,
            v_max: 6,
        };
        for (u, v) in t.corners() {
            assert_eq!(t.distance_to(u, v), 0);
        }
        let (cu, cv) = t.center();
        assert_eq!(t.distance_to(cu, cv), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_inflation_panics() {
        Trr::from_point(Point::new(0, 0)).inflate(-1);
    }
}
