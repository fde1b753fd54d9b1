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
//!
//! [`GridEscape`](crate::GridEscape) solves this network without
//! building it; only the tests' optimality certificate builds it
//! explicitly.

use pacor_grid::{GridPath, Point};
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

/// Result of one escape solve ([`GridEscape::solve`](crate::GridEscape::solve)).
#[derive(Debug, Clone, PartialEq)]
pub struct EscapeOutcome {
    /// Per source (input order): the escape path (from exit cell to pin,
    /// inclusive) and the pin reached, or `None` when the source
    /// overflowed (could not be routed this round).
    pub routes: Vec<Option<(GridPath, Point)>>,
    /// Total routed channel length, in grid units.
    pub total_length: u64,
    /// Number of successfully routed sources.
    pub routed: usize,
    /// The search effort the solve took.
    pub work: EscapeWork,
}

/// Search effort of one escape solve, reported by the flow as the
/// `escape.dijkstras` and `escape.touched` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EscapeWork {
    /// Shortest-path searches run, fresh or resumed.
    pub dijkstras: u64,
    /// Node labels those searches assigned: each node counts once per
    /// search that labels it.
    pub touched: u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::certify;
    use crate::GridEscape;
    use pacor_grid::{Grid, ObsMap};

    fn open_map(w: u32, h: u32) -> ObsMap {
        ObsMap::new(&Grid::new(w, h).unwrap())
    }

    /// Solves with the grid solver and certifies the outcome optimal.
    fn solve(obs: &ObsMap, sources: &[EscapeSource], pins: &[Point]) -> EscapeOutcome {
        let out = GridEscape::new().solve(obs, sources, pins);
        certify(obs, sources, pins, &out).unwrap_or_else(|e| panic!("not optimal: {e}"));
        out
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
                _ => sources.push(path_source(&mut next, &mut obs, start)),
            }
        }
        (obs, sources, pins)
    }

    /// Short random-walk path source from `start`, blocked in `obs`,
    /// with the odd repeated cell and optional tap tiers.
    fn path_source(
        next: &mut impl FnMut(usize) -> usize,
        obs: &mut ObsMap,
        start: Point,
    ) -> EscapeSource {
        let (w, h) = (obs.width() as i32, obs.height() as i32);
        let mut cells = vec![start];
        let mut cur = start;
        for _ in 0..2 + next(5) {
            let q = cur.neighbors4()[next(4)];
            if q.x <= 0 || q.y <= 0 || q.x >= w - 1 || q.y >= h - 1 {
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
        EscapeSource {
            kind: SourceKind::AnyPathPoint,
            cells,
            tap_costs,
        }
    }

    /// Two sources offering the same cell.
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

    const SCENARIOS: u64 = 300;

    #[test]
    fn grid_solver_is_certified_optimal_on_random_scenarios() {
        // Covered features, counted per scenario.
        let (mut no_pins, mut contested, mut direct, mut blocked_pin_exit) = (0, 0, 0, 0);
        let (mut repeated_cell, mut tiered, mut free_exit, mut unrouted) = (0, 0, 0, 0);
        let mut shared_cell = 0;
        let mut solver = GridEscape::new();
        for seed in 0..SCENARIOS {
            let (obs, sources, pins) = random_scenario(seed * 7 + 1);
            let out = solver.solve(&obs, &sources, &pins);
            if let Err(e) = certify(&obs, &sources, &pins, &out) {
                panic!("seed {seed}: grid solve not optimal: {e}");
            }
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
            unrouted += (out.routed < sources.len()) as usize;
            shared_cell += sources_share_a_cell(&sources) as usize;
        }
        for (feature, hits) in [
            ("no pins", no_pins),
            ("one contested pin", contested),
            ("direct pin exit", direct),
            ("blocked pin exit", blocked_pin_exit),
            ("repeated source cell", repeated_cell),
            ("tap tiers", tiered),
            ("free exit cell", free_exit),
            ("unrouted source", unrouted),
            ("cell shared by two sources", shared_cell),
        ] {
            assert!(hits >= 5, "{feature}: only {hits} scenarios");
        }
    }

    /// Oversubscribed scenario: more sources than pins, every pin on the
    /// west edge, and disjoint sources that are singletons or
    /// random-walk paths. Sources that lose the race for a pin, or sit
    /// walled in, are popped and found dead by the searches that route
    /// the others; a routed path source can be re-routed through
    /// another of its cells.
    fn oversubscribed_scenario(seed: u64) -> (ObsMap, Vec<EscapeSource>, Vec<Point>) {
        let mut st = seed;
        let mut next = move |m: usize| (lcg(&mut st) as usize) % m;
        let (w, h) = (12 + next(24), 12 + next(24));
        let mut obs = ObsMap::new(&Grid::new(w as u32, h as u32).unwrap());
        for _ in 0..w * h / 10 {
            obs.block(Point::new(next(w) as i32, next(h) as i32));
        }
        let pins: Vec<Point> = (1..h as i32 - 1)
            .map(|y| Point::new(0, y))
            .filter(|&p| next(3) == 0 && !obs.is_blocked(p))
            .collect();
        let want = pins.len() + 2 + next(pins.len() + 3);
        let mut sources = Vec::new();
        for _ in 0..4 * want {
            if sources.len() == want {
                break;
            }
            let p = Point::new(1 + next(w - 2) as i32, 1 + next(h - 2) as i32);
            if obs.is_blocked(p) {
                continue;
            }
            let src = if next(2) == 0 {
                obs.block(p);
                EscapeSource::at(SourceKind::SingleValve, p)
            } else {
                path_source(&mut next, &mut obs, p)
            };
            // Sources stay disjoint; a walk into another source's cells
            // stays an obstacle. Two sources routed out of one shared
            // exit cell are extracted onto the same route (ROADMAP
            // item 3), a defect this test is not about.
            if !sources
                .iter()
                .any(|s: &EscapeSource| s.cells.iter().any(|c| src.cells.contains(c)))
            {
                sources.push(src);
            }
        }
        (obs, sources, pins)
    }

    /// A search that reaches the sink at distance 0 is resumed from the
    /// routed source's pop instead of started over. The resumed search
    /// must pop exactly what a fresh one would, so both solvers return
    /// the same outcome, search count included, and resuming never
    /// labels more nodes.
    #[test]
    fn rewound_searches_equal_fresh_ones() {
        let mut fresh = GridEscape::fresh_only();
        let mut random = GridEscape::new();
        let mut oversubscribed = GridEscape::new();
        for seed in 0..SCENARIOS {
            for (family, rewound, (obs, sources, pins)) in [
                ("random", &mut random, random_scenario(seed * 7 + 1)),
                (
                    "oversubscribed",
                    &mut oversubscribed,
                    oversubscribed_scenario(seed * 11 + 5),
                ),
            ] {
                let want = fresh.solve(&obs, &sources, &pins);
                let mut got = rewound.solve(&obs, &sources, &pins);
                certify(&obs, &sources, &pins, &got)
                    .unwrap_or_else(|e| panic!("{family} seed {seed}: not optimal: {e}"));
                assert!(
                    got.work.touched <= want.work.touched,
                    "{family} seed {seed}: resuming labelled more nodes"
                );
                got.work.touched = want.work.touched;
                assert_eq!(got, want, "{family} seed {seed}");
                if family == "oversubscribed" {
                    assert!(
                        sources.len() > pins.len(),
                        "seed {seed}: not oversubscribed"
                    );
                }
            }
        }
        assert_eq!(fresh.rewinds(), (0, 0));
        // Most rewinds must skip the flood of a source found dead before
        // the routed one, or the test would pass with a trivial rewind.
        let (rewinds, after_dead) = oversubscribed.rewinds();
        assert!(
            after_dead >= 150,
            "only {after_dead} of {rewinds} rewinds skip a dead source"
        );
    }

    /// Dropping any routed source's route frees a path cheaper than its
    /// overflow arc, so the certificate must reject the outcome.
    #[test]
    fn certificate_rejects_a_dropped_route() {
        let mut solver = GridEscape::new();
        let mut mutated = 0;
        for seed in 0..SCENARIOS {
            let (obs, sources, pins) = random_scenario(seed * 7 + 1);
            let mut out = solver.solve(&obs, &sources, &pins);
            let Some(i) = out.routes.iter().position(Option::is_some) else {
                continue;
            };
            let (path, _) = out.routes[i].take().unwrap();
            out.routed -= 1;
            out.total_length -= path.len();
            let err = certify(&obs, &sources, &pins, &out)
                .expect_err(&format!("seed {seed}: dropping source {i} went unnoticed"));
            assert!(err.contains("negative-cost cycle"), "seed {seed}: {err}");
            mutated += 1;
        }
        assert!(mutated >= 200, "only {mutated} scenarios route a source");
    }

    /// A one-source outcome routed along `cells`, in place of the
    /// solver's.
    fn routed_along(cells: impl IntoIterator<Item = (i32, i32)>) -> EscapeOutcome {
        let cells = cells.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let path = GridPath::new(cells).unwrap();
        EscapeOutcome {
            total_length: path.len(),
            routes: vec![Some((path.clone(), path.target()))],
            routed: 1,
            work: EscapeWork::default(),
        }
    }

    #[test]
    fn certificate_rejects_a_longer_detour() {
        let obs = open_map(9, 9);
        let sources = [EscapeSource::at(SourceKind::SingleValve, Point::new(4, 4))];
        let pins = [Point::new(0, 4)];
        assert_eq!(solve(&obs, &sources, &pins).total_length, 4);
        // Six steps via row 5, where four along row 4 suffice.
        let detour = routed_along([(4, 4), (4, 5), (3, 5), (2, 5), (1, 5), (1, 4), (0, 4)]);
        let err = certify(&obs, &sources, &pins, &detour).unwrap_err();
        assert!(err.contains("negative-cost cycle"), "{err}");
    }

    #[test]
    fn certificate_rejects_a_route_through_a_blocked_cell() {
        let mut grid = Grid::new(9, 9).unwrap();
        grid.set_obstacle(Point::new(2, 4));
        let obs = ObsMap::new(&grid);
        let sources = [EscapeSource::at(SourceKind::SingleValve, Point::new(4, 4))];
        let pins = [Point::new(0, 4)];
        solve(&obs, &sources, &pins);
        let straight = routed_along((0..=4).rev().map(|x| (x, 4)));
        let err = certify(&obs, &sources, &pins, &straight).unwrap_err();
        assert!(err.contains("no free arc"), "{err}");
    }

    #[test]
    fn certificate_rejects_a_costed_tap_beside_an_equal_free_tap() {
        // `tap_costs_steer_the_exit_choice`, with the costed tap taken.
        let obs = open_map(9, 9);
        let sources = [EscapeSource {
            kind: SourceKind::PathMidpoint,
            cells: vec![Point::new(4, 3), Point::new(4, 5)],
            tap_costs: vec![10, 0],
        }];
        let pins = [Point::new(0, 3), Point::new(0, 5)];
        solve(&obs, &sources, &pins);
        let costed = routed_along((0..=4).rev().map(|x| (x, 3)));
        let err = certify(&obs, &sources, &pins, &costed).unwrap_err();
        assert!(err.contains("negative-cost cycle"), "{err}");
    }
}
