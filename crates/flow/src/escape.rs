//! The escape-routing network — constraints (6)–(12) of the paper.
//!
//! Escape routing connects each routed cluster to a boundary control pin.
//! The paper's min-cost-flow formulation is realized here by a
//! node-splitting construction:
//!
//! * every free grid cell becomes an `in`/`out` node pair joined by a
//!   unit-capacity arc — this is constraint (12): at most one channel per
//!   cell, no crossings;
//! * movement arcs `out(c) → in(d)` of cost 1 join adjacent free cells —
//!   flow conservation on ordinary cells is constraint (9);
//! * obstacle cells get no node at all — constraint (8);
//! * boundary cells that are not candidate control pins are treated as
//!   obstacles — the `Gb` part of constraint (8);
//! * each source (tree root `Gc`, path midpoint, any-path-point `Cq`, or
//!   single valve `Gs`) is a node fed by the super source and fanning out
//!   to the *out*-nodes of its exit cells, so flow may originate on a
//!   routed path but never enter one — constraints (6), (7), (10), (11);
//! * each candidate pin's `out` node drains to the super sink with unit
//!   capacity;
//! * an *overflow* arc from every source node straight to the sink at a
//!   prohibitive cost `β` realizes the `−β·(Σx)` objective term: the
//!   solver maximizes the number of truly routed sources first and total
//!   channel length second (Theorem 1 behaviour).

use crate::{EdgeId, MinCostFlow};
use pacor_grid::{GridPath, ObsMap, Point};
use serde::{Deserialize, Serialize};

/// What a source represents, per Section 5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SourceKind {
    /// Root of a DME Steiner tree (length-matching cluster of > 2 valves).
    TreeRoot,
    /// Middle point of the two-valve path (length-matching pair).
    PathMidpoint,
    /// Any point on the routed cluster paths (unconstrained cluster).
    AnyPathPoint,
    /// A single valve connecting directly to a pin.
    SingleValve,
}

/// One escape-routing source: a set of cells the connection may leave
/// from. For [`SourceKind::TreeRoot`], [`SourceKind::PathMidpoint`] and
/// [`SourceKind::SingleValve`] this is a single cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EscapeSource {
    /// The role of this source.
    pub kind: SourceKind,
    /// Cells flow may exit from.
    pub cells: Vec<Point>,
    /// Optional per-cell exit preference *tiers*, aligned with `cells`.
    /// One tier outweighs any possible routing-length difference, so the
    /// flow uses a higher-tier exit only when every lower-tier exit is
    /// infeasible — a pair keeps its midpoint unless the midpoint is
    /// walled in. Empty = all exits equal (tier 0).
    pub tap_costs: Vec<i64>,
}

impl EscapeSource {
    /// A single-cell source.
    pub fn at(kind: SourceKind, cell: Point) -> Self {
        Self {
            kind,
            cells: vec![cell],
            tap_costs: Vec::new(),
        }
    }

    /// The exit tier of `cells[i]` (0 when no tiers were provided).
    pub(crate) fn tap_cost(&self, i: usize) -> i64 {
        self.tap_costs.get(i).copied().unwrap_or(0)
    }
}

/// Result of solving an [`EscapeNetwork`].
#[derive(Debug, Clone)]
pub struct EscapeOutcome {
    /// Per source (input order): the escape path (from exit cell to pin,
    /// inclusive) and the pin reached, or `None` when the source
    /// overflowed (could not be routed this round).
    pub routes: Vec<Option<(GridPath, Point)>>,
    /// Total routed channel length, in grid units.
    pub total_length: u64,
    /// Number of successfully routed sources.
    pub routed: usize,
}

impl EscapeOutcome {
    /// Completion rate in `[0, 1]`.
    pub fn completion_rate(&self) -> f64 {
        if self.routes.is_empty() {
            1.0
        } else {
            self.routed as f64 / self.routes.len() as f64
        }
    }
}

/// One tap tier and the overflow cost β of an escape network over
/// `n_cells` grid cells. One tier outweighs any achievable path length;
/// β in turn dominates every tap tier a source can stack, so the solver
/// maximizes the number of routed sources first. Any larger β admits
/// exactly the same augmentations.
pub(crate) fn costs(n_cells: usize, sources: &[EscapeSource]) -> (i64, i64) {
    let tier = n_cells as i64 + 1;
    let max_tier: i64 = sources
        .iter()
        .flat_map(|s| s.tap_costs.iter().copied())
        .max()
        .unwrap_or(0)
        .max(1);
    (tier, (max_tier + 2) * tier + 4 * n_cells as i64 + 16)
}

/// Walks one routed unit from its exit cell along the next hops of the
/// flow to the pin it drains into. `next_of` and `pin_at` take row-major
/// cell indices of a grid `width` cells wide.
pub(crate) fn walk_route(
    exit: Point,
    width: usize,
    next_of: impl Fn(usize) -> Option<usize>,
    pin_at: impl Fn(usize) -> bool,
) -> (GridPath, Point) {
    let idx = |p: Point| p.y as usize * width + p.x as usize;
    let mut cells = vec![exit];
    let mut cur = exit;
    let pin = loop {
        if pin_at(idx(cur)) && cells.len() > 1 {
            break cur;
        }
        let Some(nxt) = next_of(idx(cur)) else {
            // Arrived at a pin that is also the exit's first hop.
            break cur;
        };
        cur = Point::new((nxt % width) as i32, (nxt / width) as i32);
        cells.push(cur);
    };
    (GridPath::new(cells).expect("flow walk is connected"), pin)
}

/// Grid-to-flow-network construction for escape routing, solved by the
/// generic [`MinCostFlow`]. This is the reference the grid-native
/// [`GridEscape`](crate::GridEscape) must reproduce route for route.
#[derive(Debug)]
pub struct EscapeNetwork {
    mcf: MinCostFlow,
    super_source: usize,
    super_sink: usize,
    n_sources: usize,
    /// Grid width, for cell-index ↔ point conversion during extraction.
    width: usize,
    /// Total grid cells (`width * height`).
    n_cells: usize,
    /// The overflow cost: augmentations reaching this true path cost are
    /// pure overflow (no grid arcs), so the solve bails out instead.
    beta: i64,
    /// Per source: (exit cell, edge source-node → out(cell)).
    exit_edges: Vec<Vec<(Point, EdgeId)>>,
    /// Per source: overflow edge id.
    overflow_edges: Vec<EdgeId>,
    /// Per source: direct source → sink edge when an exit cell is itself a
    /// pin (zero-length escape).
    direct_pin_edges: Vec<Vec<(Point, EdgeId)>>,
    /// Movement arcs: from cell, to cell, edge.
    move_edges: Vec<(Point, Point, EdgeId)>,
    /// Pin drain arcs: pin cell, edge out(pin) → sink.
    pin_edges: Vec<(Point, EdgeId)>,
}

impl EscapeNetwork {
    /// Builds the network.
    ///
    /// `obs` must already have every routed cluster path and every
    /// permanent obstacle blocked. `pins` are the candidate control pin
    /// cells; pins blocked in `obs` or off the map are skipped. Cells in
    /// `sources` may (and normally do) appear blocked in `obs` — they are
    /// exit points, not transit cells.
    pub fn build(obs: &ObsMap, sources: &[EscapeSource], pins: &[Point]) -> Self {
        let (w, h) = (obs.width() as i32, obs.height() as i32);
        let n_cells = (w * h) as usize;

        // Node ids: in(cell) = 2*cell_idx, out(cell) = 2*cell_idx + 1,
        // then one node per source, then super source / sink.
        let cell_idx = |p: Point| (p.y * w + p.x) as usize;

        // Cells eligible for transit: in bounds, unblocked, and — for
        // boundary cells — a candidate pin (constraint (8), Gb).
        // Precomputed as flat per-cell masks: the build queries each cell
        // up to five times (own pass + four neighbors).
        let mut pin_mask = vec![false; n_cells];
        for &p in pins {
            if p.x >= 0 && p.y >= 0 && p.x < w && p.y < h {
                pin_mask[cell_idx(p)] = true;
            }
        }
        let is_boundary = |p: Point| p.x == 0 || p.y == 0 || p.x == w - 1 || p.y == h - 1;
        let mut transit = vec![false; n_cells];
        for y in 0..h {
            for x in 0..w {
                let p = Point::new(x, y);
                transit[cell_idx(p)] =
                    !obs.is_blocked(p) && (!is_boundary(p) || pin_mask[cell_idx(p)]);
            }
        }
        // In-bounds points only — callers bounds-check first.
        let transit_ok = |p: Point| transit[cell_idx(p)];
        let pin_set = |p: Point| pin_mask[cell_idx(p)];
        let n_sources = sources.len();
        let super_source = 2 * n_cells + n_sources;
        let super_sink = super_source + 1;
        let mut mcf = MinCostFlow::new(2 * n_cells + n_sources + 2);

        // Split arcs + movement arcs.
        let mut move_edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let p = Point::new(x, y);
                if !transit_ok(p) {
                    continue;
                }
                let ci = cell_idx(p);
                mcf.add_edge(2 * ci, 2 * ci + 1, 1, 0);
                for q in p.neighbors4() {
                    if q.x >= 0 && q.y >= 0 && q.x < w && q.y < h && transit_ok(q) {
                        let e = mcf.add_edge(2 * ci + 1, 2 * cell_idx(q), 1, 1);
                        move_edges.push((p, q, e));
                    }
                }
            }
        }

        // Pins drain to the super sink (unit capacity: one cluster per pin).
        let mut pin_edges = Vec::new();
        for &p in pins {
            if p.x < 0 || p.y < 0 || p.x >= w || p.y >= h || obs.is_blocked(p) {
                continue;
            }
            let e = mcf.add_edge(2 * cell_idx(p) + 1, super_sink, 1, 0);
            pin_edges.push((p, e));
        }

        let (tier, beta) = costs(n_cells, sources);
        let mut exit_edges = Vec::new();
        let mut overflow_edges = Vec::new();
        let mut direct_pin_edges = Vec::new();
        for (si, src) in sources.iter().enumerate() {
            let s_node = 2 * n_cells + si;
            mcf.add_edge(super_source, s_node, 1, 0);
            let mut exits = Vec::new();
            let mut directs = Vec::new();
            for (k, &c) in src.cells.iter().enumerate() {
                if c.x < 0 || c.y < 0 || c.x >= w || c.y >= h {
                    continue;
                }
                if pin_set(c) && !obs.is_blocked(c) {
                    // The source already sits on a usable pin.
                    let e = mcf.add_edge(s_node, super_sink, 1, src.tap_cost(k) * tier);
                    directs.push((c, e));
                    continue;
                }
                // Exit into the cell's out-node: flow originates on the
                // routed path but transit through it stays impossible.
                let ci = cell_idx(c);
                let e = mcf.add_edge(s_node, 2 * ci + 1, 1, src.tap_cost(k) * tier);
                exits.push((c, e));
                // Blocked exit cells (routed cluster paths) were skipped by
                // the transit pass above; give their out-node movement arcs
                // so the escape can actually leave the path.
                if !transit_ok(c) {
                    for q in c.neighbors4() {
                        if q.x >= 0 && q.y >= 0 && q.x < w && q.y < h && transit_ok(q) {
                            let e = mcf.add_edge(2 * ci + 1, 2 * cell_idx(q), 1, 1);
                            move_edges.push((c, q, e));
                        }
                    }
                }
            }
            overflow_edges.push(mcf.add_edge(s_node, super_sink, 1, beta));
            exit_edges.push(exits);
            direct_pin_edges.push(directs);
        }

        Self {
            mcf,
            super_source,
            super_sink,
            n_sources,
            width: w as usize,
            n_cells,
            beta,
            exit_edges,
            overflow_edges,
            direct_pin_edges,
            move_edges,
            pin_edges,
        }
    }

    /// Solves the flow and extracts per-source escape paths.
    ///
    /// The flow solve bails out once the cheapest augmenting path costs
    /// `β`: the only paths at that price are pure source → sink overflow
    /// arcs (every real route is strictly cheaper by construction), and
    /// SSP path costs never decrease, so each source left without flow
    /// would have overflowed anyway — it is reported unrouted exactly as
    /// if its overflow arc had been saturated.
    pub fn solve(mut self) -> EscapeOutcome {
        let want = self.n_sources as i64;
        let result = self
            .mcf
            .solve_until(self.super_source, self.super_sink, want, self.beta);

        let w = self.width;
        let idx = |p: Point| p.y as usize * w + p.x as usize;

        // Adjacency of saturated movement arcs, and the set of pins used,
        // as flat per-cell arrays (`u32::MAX` = no outgoing flow).
        let mut next_of = vec![u32::MAX; self.n_cells];
        for &(from, to, e) in &self.move_edges {
            if self.mcf.edge_flow(e) > 0 {
                next_of[idx(from)] = idx(to) as u32;
            }
        }
        let mut pin_at = vec![false; self.n_cells];
        for &(p, e) in &self.pin_edges {
            if self.mcf.edge_flow(e) > 0 {
                pin_at[idx(p)] = true;
            }
        }

        let mut routes = Vec::with_capacity(self.n_sources);
        let mut total_length = 0u64;
        let mut routed = 0usize;
        let mut overflowed = 0usize;
        for si in 0..self.n_sources {
            if self.mcf.edge_flow(self.overflow_edges[si]) > 0 {
                overflowed += 1;
                routes.push(None);
                continue;
            }
            // Zero-length direct pin?
            if let Some(&(pin, _)) = self.direct_pin_edges[si]
                .iter()
                .find(|(_, e)| self.mcf.edge_flow(*e) > 0)
            {
                routes.push(Some((GridPath::singleton(pin), pin)));
                routed += 1;
                continue;
            }
            // Walk the unit flow from the chosen exit cell to a pin.
            let Some(exit) = self.exit_edges[si]
                .iter()
                .find(|(_, e)| self.mcf.edge_flow(*e) > 0)
                .map(|(c, _)| *c)
            else {
                // No flow at all: the source was cut off by the β
                // bail-out. Unrouted, same as a saturated overflow arc.
                routes.push(None);
                continue;
            };
            let route = walk_route(
                exit,
                w,
                |c| (next_of[c] != u32::MAX).then_some(next_of[c] as usize),
                |c| pin_at[c],
            );
            total_length += route.0.len();
            routed += 1;
            routes.push(Some(route));
        }
        debug_assert_eq!(
            result.flow,
            (routed + overflowed) as i64,
            "every flow unit ends at a pin, a direct pin, or an overflow arc"
        );

        EscapeOutcome {
            routes,
            total_length,
            routed,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridEscape;
    use pacor_grid::Grid;

    fn open_map(w: u32, h: u32) -> ObsMap {
        ObsMap::new(&Grid::new(w, h).unwrap())
    }

    /// Solves with the reference network and the grid solver, asserting
    /// identical routes.
    fn solve(obs: &ObsMap, sources: &[EscapeSource], pins: &[Point]) -> EscapeOutcome {
        let reference = EscapeNetwork::build(obs, sources, pins).solve();
        let grid = GridEscape::new().solve(obs, sources, pins);
        assert_eq!(shape(&reference), shape(&grid), "grid solve diverged");
        reference
    }

    #[test]
    fn single_source_reaches_nearest_pin() {
        let obs = open_map(9, 9);
        let sources = vec![EscapeSource::at(SourceKind::SingleValve, Point::new(4, 4))];
        let pins = vec![Point::new(0, 4), Point::new(8, 8)];
        let out = solve(&obs, &sources, &pins);
        assert_eq!(out.routed, 1);
        let (path, pin) = out.routes[0].as_ref().unwrap();
        assert_eq!(*pin, Point::new(0, 4));
        assert_eq!(path.len(), 4);
        assert_eq!(path.source(), Point::new(4, 4));
        assert_eq!(path.target(), Point::new(0, 4));
    }

    #[test]
    fn no_pins_overflows() {
        let obs = open_map(5, 5);
        let sources = vec![EscapeSource::at(SourceKind::SingleValve, Point::new(2, 2))];
        let out = solve(&obs, &sources, &[]);
        assert_eq!(out.routed, 0);
        assert!(out.routes[0].is_none());
        assert_eq!(out.completion_rate(), 0.0);
    }

    #[test]
    fn two_sources_two_pins_disjoint_paths() {
        let obs = open_map(9, 9);
        let sources = vec![
            EscapeSource::at(SourceKind::SingleValve, Point::new(4, 3)),
            EscapeSource::at(SourceKind::SingleValve, Point::new(4, 5)),
        ];
        let pins = vec![Point::new(0, 3), Point::new(0, 5)];
        let out = solve(&obs, &sources, &pins);
        assert_eq!(out.routed, 2);
        // Paths must be vertex-disjoint (constraint 12).
        let a = out.routes[0].as_ref().unwrap().0.cells().to_vec();
        let b = out.routes[1].as_ref().unwrap().0.cells().to_vec();
        for c in &a {
            assert!(!b.contains(c), "paths share cell {c}");
        }
        assert_eq!(out.total_length, 8);
    }

    #[test]
    fn contention_for_single_pin() {
        let obs = open_map(7, 7);
        let sources = vec![
            EscapeSource::at(SourceKind::SingleValve, Point::new(3, 2)),
            EscapeSource::at(SourceKind::SingleValve, Point::new(3, 4)),
        ];
        let pins = vec![Point::new(0, 3)];
        let out = solve(&obs, &sources, &pins);
        // Only one can win the pin; the other overflows.
        assert_eq!(out.routed, 1);
        assert_eq!(out.routes.iter().filter(|r| r.is_none()).count(), 1);
    }

    #[test]
    fn any_path_point_source_uses_best_exit() {
        let mut grid = Grid::new(9, 9).unwrap();
        // The routed cluster path occupies a horizontal run; block it.
        let path_cells: Vec<Point> = (2..=6).map(|x| Point::new(x, 4)).collect();
        for &c in &path_cells {
            grid.set_obstacle(c);
        }
        let obs = ObsMap::new(&grid);
        let sources = vec![EscapeSource {
            kind: SourceKind::AnyPathPoint,
            cells: path_cells,
            tap_costs: Vec::new(),
        }];
        let pins = vec![Point::new(8, 4)];
        let out = solve(&obs, &sources, &pins);
        assert_eq!(out.routed, 1);
        let (path, _) = out.routes[0].as_ref().unwrap();
        // Best exit is the path end at (6,4): two steps to the pin...
        // boundary cell (8,4) is the pin; (7,4) is transit.
        assert_eq!(path.source(), Point::new(6, 4));
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn obstacles_force_detours() {
        let mut grid = Grid::new(9, 9).unwrap();
        // Wall with a gap at y=7.
        for y in 0..7 {
            grid.set_obstacle(Point::new(2, y));
        }
        let obs = ObsMap::new(&grid);
        let sources = vec![EscapeSource::at(SourceKind::TreeRoot, Point::new(4, 1))];
        let pins = vec![Point::new(0, 1)];
        let out = solve(&obs, &sources, &pins);
        assert_eq!(out.routed, 1);
        let (path, _) = out.routes[0].as_ref().unwrap();
        // Must climb to y>=7 and back: strictly longer than Manhattan (4).
        assert!(path.len() > 4);
        for c in path.iter() {
            assert!(!obs.is_blocked(*c) || *c == path.source());
        }
    }

    #[test]
    fn boundary_without_pin_is_not_transit() {
        let obs = open_map(5, 5);
        let sources = vec![EscapeSource::at(SourceKind::SingleValve, Point::new(2, 2))];
        let pins = vec![Point::new(4, 2)];
        let out = solve(&obs, &sources, &pins);
        let (path, _) = out.routes[0].as_ref().unwrap();
        // No path cell other than the pin may lie on the boundary.
        for c in path.iter().take(path.cells().len() - 1) {
            assert!(
                c.x > 0 && c.y > 0 && c.x < 4 && c.y < 4,
                "transit cell {c} on boundary"
            );
        }
    }

    #[test]
    fn source_on_pin_routes_with_zero_length() {
        let obs = open_map(5, 5);
        let pin = Point::new(0, 2);
        let sources = vec![EscapeSource::at(SourceKind::SingleValve, pin)];
        let out = solve(&obs, &sources, &[pin]);
        assert_eq!(out.routed, 1);
        let (path, p) = out.routes[0].as_ref().unwrap();
        assert_eq!(*p, pin);
        assert_eq!(path.len(), 0);
    }

    #[test]
    fn maximizes_routed_count_over_length() {
        // One source close to the only contested pin, another far; with a
        // second distant pin available, both must route even though the
        // near source could hog the close pin cheaply.
        let obs = open_map(11, 11);
        let sources = vec![
            EscapeSource::at(SourceKind::SingleValve, Point::new(1, 5)),
            EscapeSource::at(SourceKind::SingleValve, Point::new(3, 5)),
        ];
        let pins = vec![Point::new(0, 5), Point::new(10, 5)];
        let out = solve(&obs, &sources, &pins);
        assert_eq!(out.routed, 2);
    }

    #[test]
    fn tap_costs_steer_the_exit_choice() {
        // Two equally-close exits; the costed one must lose.
        let obs = open_map(9, 9);
        let src = EscapeSource {
            kind: SourceKind::PathMidpoint,
            cells: vec![Point::new(4, 3), Point::new(4, 5)],
            tap_costs: vec![10, 0],
        };
        let pins = vec![Point::new(0, 3), Point::new(0, 5)];
        let out = solve(&obs, &[src], &pins);
        let (path, _) = out.routes[0].as_ref().unwrap();
        assert_eq!(
            path.source(),
            Point::new(4, 5),
            "flow must dodge the costed tap"
        );
    }

    #[test]
    fn costed_tap_still_used_when_free_tap_is_walled() {
        let mut grid = Grid::new(9, 9).unwrap();
        // Wall off the free tap completely.
        for p in [
            Point::new(3, 5),
            Point::new(5, 5),
            Point::new(4, 4),
            Point::new(4, 6),
        ] {
            grid.set_obstacle(p);
        }
        let obs = ObsMap::new(&grid);
        let src = EscapeSource {
            kind: SourceKind::PathMidpoint,
            cells: vec![Point::new(4, 3), Point::new(4, 5)],
            tap_costs: vec![10, 0],
        };
        let pins = vec![Point::new(0, 3)];
        let out = solve(&obs, &[src], &pins);
        let (path, _) = out.routes[0].as_ref().unwrap();
        assert_eq!(
            path.source(),
            Point::new(4, 3),
            "costed tap is the only exit"
        );
    }

    #[test]
    fn empty_sources_trivially_complete() {
        let obs = open_map(4, 4);
        let out = solve(&obs, &[], &[Point::new(0, 0)]);
        assert_eq!(out.routed, 0);
        assert_eq!(out.completion_rate(), 1.0);
    }

    /// Comparable form of an outcome: per-source (cells, pin) or None.
    #[allow(clippy::type_complexity)]
    fn shape(out: &EscapeOutcome) -> (Vec<Option<(Vec<Point>, Point)>>, u64, usize) {
        (
            out.routes
                .iter()
                .map(|r| r.as_ref().map(|(p, pin)| (p.cells().to_vec(), *pin)))
                .collect(),
            out.total_length,
            out.routed,
        )
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Random scenario: obstacles, boundary pins (sometimes none, one,
    /// or listed twice), and mixed sources — walled singletons, random
    /// walk paths with optional tap tiers and repeated cells, sources
    /// sitting on pins (blocked or free), and the odd unblocked exit.
    fn random_scenario(seed: u64) -> (ObsMap, Vec<EscapeSource>, Vec<Point>) {
        let mut st = seed;
        let mut next = move |m: usize| (lcg(&mut st) as usize) % m;
        let (w, h) = (8 + next(10), 8 + next(10));
        let grid = Grid::new(w as u32, h as u32).unwrap();
        let mut obs = ObsMap::new(&grid);
        for _ in 0..w * h / 7 {
            obs.block(Point::new(next(w) as i32, next(h) as i32));
        }
        let pin_count = match next(8) {
            0 => 0,
            1 => 1,
            _ => 2 + next(4),
        };
        let mut pins = Vec::new();
        for _ in 0..pin_count * 4 {
            if pins.len() == pin_count {
                break;
            }
            let p = if next(2) == 0 {
                Point::new(next(w) as i32, if next(2) == 0 { 0 } else { h as i32 - 1 })
            } else {
                Point::new(if next(2) == 0 { 0 } else { w as i32 - 1 }, next(h) as i32)
            };
            if !pins.contains(&p) && !obs.is_blocked(p) {
                pins.push(p);
            }
        }
        if !pins.is_empty() && next(6) == 0 {
            pins.push(pins[next(pins.len())]);
        }
        let mut sources = Vec::new();
        for _ in 0..if pins.len() == 1 {
            2 + next(3)
        } else {
            1 + next(4)
        } {
            let start = Point::new(1 + next(w - 2) as i32, 1 + next(h - 2) as i32);
            match next(6) {
                0 | 1 => {
                    // A free exit cell is also transit; rare in flows.
                    if next(6) != 0 {
                        obs.block(start);
                    }
                    sources.push(EscapeSource::at(SourceKind::SingleValve, start));
                }
                2 if !pins.is_empty() => {
                    // A source on a pin: a direct arc when the pin is
                    // free, a non-transit exit when it is blocked.
                    let pin = pins[next(pins.len())];
                    if next(2) == 0 {
                        obs.block(pin);
                    }
                    sources.push(EscapeSource::at(SourceKind::SingleValve, pin));
                }
                _ => {
                    // Short random-walk path source with optional tap tiers.
                    let mut cells = vec![start];
                    let mut cur = start;
                    for _ in 0..2 + next(5) {
                        let q = cur.neighbors4()[next(4)];
                        if q.x <= 0 || q.y <= 0 || q.x >= w as i32 - 1 || q.y >= h as i32 - 1 {
                            continue;
                        }
                        if !cells.contains(&q) {
                            cells.push(q);
                            cur = q;
                        }
                    }
                    obs.block_all(cells.iter().copied());
                    if next(4) == 0 {
                        cells.push(cells[next(cells.len())]);
                    }
                    let tap_costs = if next(2) == 0 {
                        cells.iter().map(|_| next(3) as i64).collect()
                    } else {
                        Vec::new()
                    };
                    sources.push(EscapeSource {
                        kind: SourceKind::AnyPathPoint,
                        cells,
                        tap_costs,
                    });
                }
            }
        }
        (obs, sources, pins)
    }

    /// Two sources offering the same cell interleave the reference's
    /// movement arcs per source — outside the grid solver's contract.
    fn sources_share_a_cell(sources: &[EscapeSource]) -> bool {
        let mut seen: Vec<Point> = Vec::new();
        for src in sources {
            let mut own = src.cells.clone();
            own.sort();
            own.dedup();
            if own.iter().any(|c| seen.contains(c)) {
                return true;
            }
            seen.extend(own);
        }
        false
    }

    #[test]
    fn grid_solver_matches_reference_on_random_scenarios() {
        // Covered features, counted per compared scenario.
        let (mut compared, mut no_pins, mut contested, mut direct, mut blocked_pin_exit) =
            (0, 0, 0, 0, 0);
        let (mut repeated_cell, mut tiered, mut free_exit, mut unrouted) = (0, 0, 0, 0);
        let mut solver = GridEscape::new();
        for seed in 0..300u64 {
            let (obs, sources, pins) = random_scenario(seed * 7 + 1);
            if sources_share_a_cell(&sources) {
                continue;
            }
            let reference = EscapeNetwork::build(&obs, &sources, &pins).solve();
            let grid = solver.solve(&obs, &sources, &pins);
            assert_eq!(
                shape(&reference),
                shape(&grid),
                "seed {seed}: grid solve diverged"
            );
            compared += 1;
            no_pins += pins.is_empty() as usize;
            contested += (pins.len() == 1 && sources.len() >= 2) as usize;
            let on_pin = |c: &Point| pins.contains(c);
            direct += sources
                .iter()
                .any(|s| s.cells.iter().any(|c| on_pin(c) && !obs.is_blocked(*c)))
                as usize;
            blocked_pin_exit += sources
                .iter()
                .any(|s| s.cells.iter().any(|c| on_pin(c) && obs.is_blocked(*c)))
                as usize;
            repeated_cell += sources
                .iter()
                .any(|s| (1..s.cells.len()).any(|i| s.cells[..i].contains(&s.cells[i])))
                as usize;
            tiered += sources.iter().any(|s| s.tap_costs.iter().any(|&t| t > 0)) as usize;
            free_exit += sources
                .iter()
                .any(|s| s.cells.iter().any(|c| !on_pin(c) && !obs.is_blocked(*c)))
                as usize;
            unrouted += (reference.routed < sources.len()) as usize;
        }
        assert!(compared >= 200, "only {compared} scenarios compared");
        for (feature, hits) in [
            ("no pins", no_pins),
            ("one contested pin", contested),
            ("direct pin exit", direct),
            ("blocked pin exit", blocked_pin_exit),
            ("repeated source cell", repeated_cell),
            ("tap tiers", tiered),
            ("free exit cell", free_exit),
            ("unrouted source", unrouted),
        ] {
            assert!(hits >= 5, "{feature}: only {hits} scenarios");
        }
    }
}
