//! Minimum-length *bounded* routing — Section 6 of the paper.
//!
//! Detouring for length matching needs a router that computes "a path
//! with length not less than the target length `Lt`". The paper modifies
//! A\* so that the G value may only *increase* and F penalizes estimated
//! totals below the bound. This module implements the same contract with
//! a complete search: for each feasible length `L ≥ Lt` (respecting grid
//! parity) it runs a depth-first search for a self-avoiding path of
//! *exactly* length `L`, pruned by the Manhattan-distance reachability
//! bound and a node budget. The first `L` that succeeds is minimal above
//! the bound, which is exactly the paper's objective.
//!
//! Self-avoidance matters: a control channel may not overlap itself
//! without violating the minimum-spacing design rule, so revisiting a
//! cell is forbidden (the plain A\* of the paper implicitly guarantees
//! this only for shortest paths).
//!
//! The DFS keeps its visited marks in a thread-local grid vector
//! (DESIGN.md §13.2) sized once per grid, so a length attempt costs in
//! proportion to the nodes it visits. Its work shows in the
//! `detour.dfs_nodes` and `detour.exhausted` counters, flushed once per
//! call.

use pacor_grid::{GridLen, GridPath, ObsMap, Point};
use std::cell::RefCell;

/// Minimum-length bounded router.
///
/// Both endpoints must lie on the obstacle map: the DFS indexes its
/// visited marks by grid cell, so a call with an endpoint outside the
/// map returns `None`.
///
/// # Examples
///
/// ```
/// use pacor_grid::{Grid, ObsMap, Point};
/// use pacor_route::BoundedAStar;
///
/// let grid = Grid::new(10, 10)?;
/// let obs = ObsMap::new(&grid);
/// let router = BoundedAStar::new(&obs);
/// // Straight distance is 4; ask for at least 8.
/// let path = router
///     .route_at_least(Point::new(1, 1), Point::new(5, 1), 8)
///     .expect("open grid has room to wiggle");
/// assert_eq!(path.len(), 8);
/// # Ok::<(), pacor_grid::GridError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BoundedAStar<'a> {
    obs: &'a ObsMap,
    /// DFS node budget per exact-length attempt.
    node_budget: u64,
    /// How far above max(lt, d) to keep trying before giving up.
    max_overshoot: GridLen,
}

impl<'a> BoundedAStar<'a> {
    /// Creates a bounded router with default budgets (200 000 DFS nodes
    /// per length, overshoot window of 64 grid units).
    pub fn new(obs: &'a ObsMap) -> Self {
        Self {
            obs,
            node_budget: 200_000,
            max_overshoot: 64,
        }
    }

    /// Overrides the per-length DFS node budget.
    pub fn with_node_budget(mut self, budget: u64) -> Self {
        self.node_budget = budget;
        self
    }

    /// Overrides the overshoot window: with `d` the Manhattan distance
    /// between the endpoints, lengths in `[max(lt, d), max(lt, d) +
    /// max_overshoot]` are attempted.
    pub fn with_max_overshoot(mut self, overshoot: GridLen) -> Self {
        self.max_overshoot = overshoot;
        self
    }

    /// Finds a self-avoiding obstacle-free path from `source` to `target`
    /// of length ≥ `lt`, as short above `lt` as possible. Endpoint cells
    /// are exempt from blockage (they sit on the net being detoured).
    ///
    /// Returns `None` when no such path exists within the overshoot
    /// window and node budget, or when an endpoint lies outside the map.
    pub fn route_at_least(&self, source: Point, target: Point, lt: GridLen) -> Option<GridPath> {
        // The window starts at the first length a path can have; grid
        // parity makes every path length ≡ d (mod 2).
        let d = source.manhattan(target);
        let base = lt.max(d);
        self.search(
            source,
            target,
            base + (base - d) % 2,
            base + self.max_overshoot,
        )
    }

    /// Finds a self-avoiding path of *exactly* `len` grid units, or
    /// `None` when none exists (or the node budget runs out, or an
    /// endpoint lies outside the map).
    pub fn route_exact(&self, source: Point, target: Point, len: GridLen) -> Option<GridPath> {
        let d = source.manhattan(target);
        if len < d || (len - d) % 2 == 1 {
            return None;
        }
        self.search(source, target, len, len)
    }

    /// Tries the lengths `first, first + 2, …` up to `limit` and returns
    /// the first path found; `first` has the parity of the endpoints'
    /// distance.
    fn search(
        &self,
        source: Point,
        target: Point,
        first: GridLen,
        limit: GridLen,
    ) -> Option<GridPath> {
        let (width, height) = (self.obs.width() as usize, self.obs.height() as usize);
        let on_map =
            |p: Point| p.x >= 0 && p.y >= 0 && (p.x as usize) < width && (p.y as usize) < height;
        if !on_map(source) || !on_map(target) {
            return None;
        }
        let mut stats = DfsStats::default();
        let found = DFS_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.fit(width, height);
            let mut len = first;
            while len <= limit {
                if let Some(path) = self.exact(source, target, len, &mut scratch, &mut stats) {
                    return Some(path);
                }
                len += 2;
            }
            None
        });
        pacor_obs::counter_add("detour.dfs_nodes", stats.nodes);
        pacor_obs::counter_add("detour.exhausted", stats.exhausted);
        found
    }

    /// One exact-length attempt; `len` is feasible by distance and parity.
    fn exact(
        &self,
        source: Point,
        target: Point,
        len: GridLen,
        scratch: &mut DfsScratch,
        stats: &mut DfsStats,
    ) -> Option<GridPath> {
        if len == 0 {
            return Some(GridPath::singleton(source));
        }
        let mut dfs = Dfs {
            blocked: self.obs.blocked_cells(),
            width: scratch.width,
            height: scratch.height,
            visited: &mut scratch.visited,
            target,
            stack: Vec::with_capacity(len as usize + 1),
            budget: self.node_budget,
            cut: false,
        };
        let i = dfs.index(source);
        dfs.visited[i] = true;
        dfs.stack.push(source);
        let found = dfs.step(len);
        stats.nodes += self.node_budget - dfs.budget;
        stats.exhausted += u64::from(dfs.cut);
        // Backtracking unmarked every cell it left, so the marks still
        // set are the stack's: the found path, or just the source.
        for &p in &dfs.stack {
            let i = dfs.index(p);
            dfs.visited[i] = false;
        }
        found.then(|| GridPath::new(dfs.stack).expect("DFS path is connected"))
    }
}

/// DFS work of one call, flushed to `pacor-obs` when the call returns.
#[derive(Debug, Default)]
struct DfsStats {
    /// [`Dfs::step`] entries: one per node charged to a length's budget.
    nodes: u64,
    /// Lengths whose search stopped at the node budget.
    exhausted: u64,
}

/// Reusable visited marks: a cell is marked while it is on the current
/// DFS path. Every attempt clears its marks before it returns.
#[derive(Debug, Default)]
struct DfsScratch {
    width: usize,
    height: usize,
    visited: Vec<bool>,
}

impl DfsScratch {
    /// Sizes the marks for a `width × height` grid; a new size starts a
    /// fresh unmarked vector.
    fn fit(&mut self, width: usize, height: usize) {
        if self.width != width || self.height != height {
            self.width = width;
            self.height = height;
            self.visited = vec![false; width * height];
        }
    }
}

thread_local! {
    /// Per-thread DFS marks, reused by every bounded route on the thread.
    static DFS_SCRATCH: RefCell<DfsScratch> = RefCell::new(DfsScratch::default());
}

/// The state of one exact-length attempt.
struct Dfs<'s> {
    blocked: &'s [bool],
    width: usize,
    height: usize,
    visited: &'s mut [bool],
    target: Point,
    /// The path so far, source first.
    stack: Vec<Point>,
    budget: u64,
    /// Set when a node found the budget spent.
    cut: bool,
}

impl Dfs<'_> {
    #[inline]
    fn index(&self, p: Point) -> usize {
        p.y as usize * self.width + p.x as usize
    }

    /// Extends the path by exactly `remaining` steps to the target;
    /// `true` when it succeeds, with the path left on the stack.
    fn step(&mut self, remaining: GridLen) -> bool {
        if self.budget == 0 {
            self.cut = true;
            return false;
        }
        self.budget -= 1;
        let cur = *self.stack.last().expect("stack nonempty");
        let target = self.target;
        if remaining == 0 {
            return cur == target;
        }
        // Neighbour order: every neighbour is one step closer to the
        // target or one step farther. When the path must beeline (no
        // slack left), closer ones go first; otherwise farther ones go
        // first, burning slack while the tail can still reach the
        // target. Each group keeps `Point::neighbors4` order.
        let need = cur.manhattan(target);
        let closer_first = need == remaining;
        let rem = remaining - 1;
        for closer in [closer_first, !closer_first] {
            for n in cur.neighbors4() {
                let nd = n.manhattan(target);
                if (nd < need) != closer {
                    continue;
                }
                if n.x < 0 || n.y < 0 || n.x as usize >= self.width || n.y as usize >= self.height {
                    continue; // off the map: never the (on-map) target
                }
                let i = self.index(n);
                if self.visited[i] {
                    continue;
                }
                // Target is exempt from blockage; transit must be free.
                if self.blocked[i] && n != target {
                    continue;
                }
                if nd > rem || (rem - nd) % 2 == 1 {
                    continue; // unreachable in exactly `rem` steps
                }
                self.stack.push(n);
                self.visited[i] = true;
                if self.step(rem) {
                    return true;
                }
                self.stack.pop();
                self.visited[i] = false;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacor_grid::Grid;

    fn open(w: u32, h: u32) -> ObsMap {
        ObsMap::new(&Grid::new(w, h).unwrap())
    }

    fn assert_self_avoiding(p: &GridPath) {
        let mut seen = std::collections::HashSet::new();
        for c in p.iter() {
            assert!(seen.insert(*c), "cell {c} revisited");
        }
    }

    #[test]
    fn trivial_bound_gives_shortest() {
        let obs = open(8, 8);
        let p = BoundedAStar::new(&obs)
            .route_at_least(Point::new(0, 0), Point::new(3, 0), 0)
            .unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn meets_exact_parity_compatible_bound() {
        let obs = open(10, 10);
        let p = BoundedAStar::new(&obs)
            .route_at_least(Point::new(1, 1), Point::new(4, 1), 7)
            .unwrap();
        assert_eq!(p.len(), 7);
        assert_self_avoiding(&p);
    }

    #[test]
    fn rounds_up_on_parity_mismatch() {
        let obs = open(10, 10);
        // Distance 3 (odd); bound 6 (even) → minimum feasible is 7.
        let p = BoundedAStar::new(&obs)
            .route_at_least(Point::new(1, 1), Point::new(4, 1), 6)
            .unwrap();
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn long_detours_in_open_space() {
        let obs = open(12, 12);
        let p = BoundedAStar::new(&obs)
            .route_at_least(Point::new(2, 2), Point::new(3, 2), 21)
            .unwrap();
        assert_eq!(p.len(), 21);
        assert_self_avoiding(&p);
        assert_eq!(p.source(), Point::new(2, 2));
        assert_eq!(p.target(), Point::new(3, 2));
    }

    #[test]
    fn avoids_obstacles_while_detouring() {
        let mut g = Grid::new(10, 10).unwrap();
        for y in 3..10 {
            g.set_obstacle(Point::new(5, y));
        }
        let obs = ObsMap::new(&g);
        let p = BoundedAStar::new(&obs)
            .route_at_least(Point::new(2, 5), Point::new(8, 5), 12)
            .unwrap();
        assert!(p.len() >= 12);
        assert_self_avoiding(&p);
        for c in p.iter() {
            assert!(!obs.is_blocked(*c));
        }
    }

    #[test]
    fn exact_length_impossible_cases() {
        let obs = open(6, 6);
        let r = BoundedAStar::new(&obs);
        // Shorter than Manhattan distance.
        assert!(r
            .route_exact(Point::new(0, 0), Point::new(3, 0), 2)
            .is_none());
        // Wrong parity.
        assert!(r
            .route_exact(Point::new(0, 0), Point::new(3, 0), 4)
            .is_none());
    }

    #[test]
    fn zero_length_same_cell() {
        let obs = open(4, 4);
        let p = BoundedAStar::new(&obs)
            .route_exact(Point::new(2, 2), Point::new(2, 2), 0)
            .unwrap();
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn corridor_caps_detour_length() {
        // 1-wide corridor: only the straight path exists; a bound above
        // its length is unsatisfiable.
        let mut g = Grid::new(8, 3).unwrap();
        for x in 0..8 {
            g.set_obstacle(Point::new(x, 0));
            g.set_obstacle(Point::new(x, 2));
        }
        let obs = ObsMap::new(&g);
        let r = BoundedAStar::new(&obs).with_max_overshoot(10);
        assert!(r
            .route_at_least(Point::new(0, 1), Point::new(7, 1), 0)
            .is_some());
        assert!(r
            .route_at_least(Point::new(0, 1), Point::new(7, 1), 9)
            .is_none());
    }

    #[test]
    fn endpoints_exempt_from_blockage() {
        let mut g = Grid::new(6, 6).unwrap();
        g.set_obstacle(Point::new(0, 0));
        g.set_obstacle(Point::new(4, 0));
        let obs = ObsMap::new(&g);
        let p = BoundedAStar::new(&obs)
            .route_at_least(Point::new(0, 0), Point::new(4, 0), 4)
            .unwrap();
        assert_eq!(p.source(), Point::new(0, 0));
        assert_eq!(p.target(), Point::new(4, 0));
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let obs = open(10, 10);
        let r = BoundedAStar::new(&obs).with_node_budget(3);
        assert!(r
            .route_exact(Point::new(0, 0), Point::new(5, 5), 20)
            .is_none());
    }

    #[test]
    fn window_starts_at_the_first_feasible_length() {
        // d = 90 exceeds the bound plus the default overshoot of 64.
        let obs = open(100, 3);
        let p = BoundedAStar::new(&obs)
            .route_at_least(Point::new(0, 1), Point::new(90, 1), 0)
            .expect("open grid routes straight");
        assert_eq!(p.len(), 90);
        // d = 10 against a bound of 5 and an overshoot of 2.
        let obs = open(14, 4);
        let p = BoundedAStar::new(&obs)
            .with_max_overshoot(2)
            .route_at_least(Point::new(1, 1), Point::new(11, 1), 5)
            .expect("open grid routes straight");
        assert_eq!(p.len(), 10);
        // With the bound above d, the window still ends at lt + overshoot.
        let r = BoundedAStar::new(&obs).with_max_overshoot(2);
        assert_eq!(
            r.route_at_least(Point::new(1, 1), Point::new(2, 1), 4)
                .unwrap()
                .len(),
            5
        );
    }

    #[test]
    fn out_of_map_endpoints_are_rejected() {
        let obs = open(6, 6);
        let r = BoundedAStar::new(&obs);
        let inside = Point::new(2, 2);
        for outside in [
            Point::new(-1, 2),
            Point::new(6, 2),
            Point::new(2, -1),
            Point::new(2, 6),
        ] {
            assert!(r.route_at_least(inside, outside, 0).is_none(), "{outside}");
            assert!(r.route_at_least(outside, inside, 0).is_none(), "{outside}");
            assert!(r.route_exact(outside, outside, 0).is_none(), "{outside}");
        }
        assert_eq!(
            r.route_at_least(inside, Point::new(5, 2), 0).unwrap().len(),
            3
        );
    }

    #[test]
    fn counters_report_dfs_nodes_and_exhausted_lengths() {
        // A 3x3 pocket holds at most 9 cells, so no path of length 12 or
        // more exists inside it; a budget of 40 nodes cuts each such
        // length off, while length 2 is found in 3 nodes.
        let mut g = Grid::new(7, 7).unwrap();
        for i in 0..7 {
            for edge in [
                Point::new(i, 1),
                Point::new(i, 5),
                Point::new(1, i),
                Point::new(5, i),
            ] {
                g.set_obstacle(edge);
            }
        }
        let obs = ObsMap::new(&g);
        let r = BoundedAStar::new(&obs)
            .with_node_budget(40)
            .with_max_overshoot(4);
        let (s, t) = (Point::new(2, 3), Point::new(4, 3));
        let session = pacor_obs::Session::begin();
        assert!(r.route_at_least(s, t, 12).is_none());
        assert_eq!(r.route_at_least(s, t, 0).unwrap().len(), 2);
        let report = session.finish();
        assert_eq!(
            report.counter("detour.exhausted"),
            3,
            "lengths 12, 14 and 16"
        );
        assert_eq!(report.counter("detour.dfs_nodes"), 3 * 40 + 3);
    }

    #[test]
    fn scratch_follows_grid_size_changes() {
        let (small, large) = (open(4, 4), open(12, 12));
        for _ in 0..2 {
            let p = BoundedAStar::new(&large)
                .route_at_least(Point::new(0, 0), Point::new(11, 11), 30)
                .unwrap();
            assert_eq!(p.len(), 30);
            assert_self_avoiding(&p);
            let q = BoundedAStar::new(&small)
                .route_at_least(Point::new(0, 0), Point::new(3, 0), 9)
                .unwrap();
            assert_eq!(q.len(), 9);
            assert_self_avoiding(&q);
        }
    }

    #[test]
    fn every_attempt_leaves_the_marks_clear() {
        let marked = || DFS_SCRATCH.with(|s| s.borrow().visited.iter().filter(|&&v| v).count());
        let obs = open(8, 8);
        let (s, t) = (Point::new(1, 1), Point::new(6, 6));
        // Found, impossible (longer than the grid's 64 cells allow) and
        // cut off by the node budget.
        assert!(BoundedAStar::new(&obs).route_at_least(s, t, 20).is_some());
        assert_eq!(marked(), 0);
        assert!(BoundedAStar::new(&obs)
            .with_max_overshoot(0)
            .route_at_least(s, t, 70)
            .is_none());
        assert_eq!(marked(), 0);
        assert!(BoundedAStar::new(&obs)
            .with_node_budget(5)
            .with_max_overshoot(0)
            .route_at_least(s, t, 40)
            .is_none());
        assert_eq!(marked(), 0);
    }

    #[test]
    fn result_is_minimal_above_bound() {
        let obs = open(14, 14);
        for lt in [5u64, 8, 11, 16] {
            let p = BoundedAStar::new(&obs)
                .route_at_least(Point::new(3, 3), Point::new(6, 4), lt)
                .unwrap();
            let d = 4u64;
            let expect = if lt <= d {
                d
            } else if (lt - d).is_multiple_of(2) {
                lt
            } else {
                lt + 1
            };
            assert_eq!(p.len(), expect, "bound {lt}");
        }
    }
}
