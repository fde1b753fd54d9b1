//! Property-based tests for the routers.

use pacor_grid::{Grid, ObsMap, Point};
use pacor_route::{AStar, BoundedAStar, NegotiationRouter, RipUpPolicy, RouteRequest};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// Reference BFS shortest-path length, or `None` when unreachable.
fn bfs_len(obs: &ObsMap, from: Point, to: Point) -> Option<u64> {
    if from == to {
        return Some(0);
    }
    let mut dist = std::collections::HashMap::new();
    dist.insert(from, 0u64);
    let mut q = VecDeque::from([from]);
    while let Some(p) = q.pop_front() {
        for n in p.neighbors4() {
            if n == to {
                return Some(dist[&p] + 1);
            }
            if !obs.is_blocked(n) && !dist.contains_key(&n) {
                dist.insert(n, dist[&p] + 1);
                q.push_back(n);
            }
        }
    }
    None
}

fn build_map(obst: &HashSet<(i32, i32)>, w: u32, h: u32) -> ObsMap {
    let mut grid = Grid::new(w, h).unwrap();
    for &(x, y) in obst {
        grid.set_obstacle(Point::new(x, y));
    }
    ObsMap::new(&grid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn astar_is_optimal_vs_bfs(
        obst in prop::collection::hash_set((0i32..12, 0i32..12), 0..40),
        sx in 0i32..12, sy in 0i32..12,
        tx in 0i32..12, ty in 0i32..12,
    ) {
        let mut obst = obst;
        obst.remove(&(sx, sy));
        obst.remove(&(tx, ty));
        let obs = build_map(&obst, 12, 12);
        let (s, t) = (Point::new(sx, sy), Point::new(tx, ty));
        let astar = AStar::new(&obs).point_to_point(s, t);
        let reference = bfs_len(&obs, s, t);
        match (astar, reference) {
            (Some(p), Some(l)) => {
                prop_assert_eq!(p.len(), l, "A* not optimal");
                prop_assert_eq!(p.source(), s);
                prop_assert_eq!(p.target(), t);
                for c in p.cells().iter().skip(1) {
                    prop_assert!(!obs.is_blocked(*c) || *c == t);
                }
            }
            (None, None) => {}
            (a, b) => prop_assert!(false, "reachability mismatch: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn astar_multi_target_returns_nearest(
        sx in 0i32..10, sy in 0i32..10,
        targets in prop::collection::vec((0i32..10, 0i32..10), 1..5),
    ) {
        let obs = build_map(&HashSet::new(), 10, 10);
        let s = Point::new(sx, sy);
        let tgts: Vec<Point> = targets.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let p = AStar::new(&obs).route(&[s], &tgts).expect("open grid routes");
        let best = tgts.iter().map(|t| s.manhattan(*t)).min().unwrap();
        prop_assert_eq!(p.len(), best);
        prop_assert!(tgts.contains(&p.target()));
    }

    #[test]
    fn bounded_router_respects_bound(
        sx in 1i32..10, sy in 1i32..10,
        tx in 1i32..10, ty in 1i32..10,
        extra in 0u64..12,
    ) {
        prop_assume!((sx, sy) != (tx, ty));
        let obs = build_map(&HashSet::new(), 12, 12);
        let (s, t) = (Point::new(sx, sy), Point::new(tx, ty));
        let d = s.manhattan(t);
        let lt = d + extra;
        if let Some(p) = BoundedAStar::new(&obs).route_at_least(s, t, lt) {
            prop_assert!(p.len() >= lt);
            // Minimality above the bound: parity forces at most +1.
            prop_assert!(p.len() <= lt + 1);
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.target(), t);
            // Self-avoiding.
            let mut seen = HashSet::new();
            for c in p.cells() {
                prop_assert!(seen.insert(*c), "revisited {c}");
            }
        }
    }

    /// The grid is wide enough that d exceeds the default overshoot
    /// window of 64, so the window must start at d, not at the bound.
    #[test]
    fn bounded_router_zero_bound_equals_shortest(
        sx in 0i32..90, sy in 0i32..6, tx in 0i32..90, ty in 0i32..6,
    ) {
        let obs = build_map(&HashSet::new(), 90, 6);
        let (s, t) = (Point::new(sx, sy), Point::new(tx, ty));
        let p = BoundedAStar::new(&obs).route_at_least(s, t, 0).expect("open grid");
        prop_assert_eq!(p.len(), s.manhattan(t));
    }

    #[test]
    fn ripup_policies_share_invariants(
        obst in prop::collection::hash_set((0i32..14, 0i32..14), 0..30),
        terminals in prop::collection::hash_set((0i32..14, 0i32..14), 4..10),
    ) {
        // Pair up distinct free terminals into point-to-point requests.
        let mut obst = obst;
        for t in &terminals {
            obst.remove(t);
        }
        let cells: Vec<Point> = terminals.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let edges: Vec<RouteRequest> = cells
            .chunks_exact(2)
            .map(|c| RouteRequest::point_to_point(c[0], c[1]))
            .collect();
        prop_assume!(!edges.is_empty());

        let base = build_map(&obst, 14, 14);
        let mut obs_full = base.clone();
        let mut obs_inc = base.clone();
        let full = NegotiationRouter::new()
            .with_ripup_policy(RipUpPolicy::Full)
            .route_all(&mut obs_full, &edges);
        let inc = NegotiationRouter::new()
            .with_ripup_policy(RipUpPolicy::Incremental)
            .route_all(&mut obs_inc, &edges);

        // Round 1 runs identical logic under both policies (the policies
        // only differ in what they rip *between* rounds), so a one-round
        // run under either policy forces the exact same one-round run
        // under the other.
        prop_assert_eq!(full.iterations == 1, inc.iterations == 1,
            "one-round convergence must not depend on the rip-up policy \
             (full {} rounds, incremental {})", full.iterations, inc.iterations);
        if full.iterations == 1 {
            prop_assert_eq!(full.complete, inc.complete);
            prop_assert_eq!(full.ripups, inc.ripups);
            for (e, (pf, pi)) in full.paths.iter().zip(&inc.paths).enumerate() {
                match (pf, pi) {
                    (Some(a), Some(b)) => prop_assert_eq!(a.cells(), b.cells(),
                        "edge {e}: single-round paths diverge"),
                    (None, None) => {}
                    _ => prop_assert!(false, "edge {e}: single-round routability diverges"),
                }
            }
        }

        // Per-policy invariants hold regardless of contention.
        for (obs, out, label) in [
            (&obs_full, &full, "full"),
            (&obs_inc, &inc, "incremental"),
        ] {
            prop_assert_eq!(out.complete, out.paths.iter().all(Option::is_some));
            prop_assert!(out.iterations >= 1 && out.iterations <= 10);
            if out.complete {
                // Lengths respect the Manhattan lower bound, and — being
                // self-avoiding — never exceed the grid area. (No fixed
                // detour window is sound here: accumulated history costs
                // can push a contended net on an arbitrarily long legal
                // excursion.)
                for (e, req) in edges.iter().enumerate() {
                    let lower = req.sources[0].manhattan(req.targets[0]);
                    let len = out.paths[e].as_ref().unwrap().len();
                    prop_assert!(len >= lower,
                        "{label} edge {e}: len {len} below Manhattan bound {lower}");
                    prop_assert!(len < (14 * 14) as u64,
                        "{label} edge {e}: len {len} exceeds the grid area");
                }
                // Routed cells stay blocked, and paths are disjoint except
                // at terminals (A* exempts source/target cells from
                // blockage, so a path may cross another net's endpoint).
                let endpoints: HashSet<Point> = edges
                    .iter()
                    .flat_map(|r| r.sources.iter().chain(&r.targets))
                    .copied()
                    .collect();
                let mut seen: HashSet<Point> = HashSet::new();
                for p in out.paths.iter().flatten() {
                    for c in p.cells() {
                        prop_assert!(obs.is_blocked(*c));
                        prop_assert!(seen.insert(*c) || endpoints.contains(c),
                            "{label}: paths overlap at non-terminal {c}");
                    }
                }
            } else {
                // Failure restores the map to its pre-negotiation state.
                prop_assert_eq!(obs.blocked_count(), base.blocked_count(),
                    "{label}: failed negotiation must restore the map");
            }
        }
    }

    #[test]
    fn negotiation_outcome_consistency(
        rows in prop::collection::vec((1i32..10, 1i32..10), 1..4),
    ) {
        // Horizontal nets on distinct rows of a 12-wide grid.
        let mut rows = rows;
        rows.sort_by_key(|r| (r.1, r.0));
        rows.dedup_by_key(|r| r.1); // one net per row y
        let mut obs = build_map(&HashSet::new(), 12, 12);
        let edges: Vec<RouteRequest> = rows
            .iter()
            .map(|&(x, y)| RouteRequest::point_to_point(Point::new(x.min(9), y), Point::new(11, y)))
            .collect();
        let out = NegotiationRouter::new().route_all(&mut obs, &edges);
        prop_assert_eq!(out.complete, out.paths.iter().all(Option::is_some));
        prop_assert!(out.iterations >= 1);
        if out.complete {
            // All paths blocked and pairwise disjoint.
            let mut seen: HashSet<Point> = HashSet::new();
            for p in out.paths.iter().flatten() {
                for c in p.cells() {
                    prop_assert!(obs.is_blocked(*c));
                    prop_assert!(seen.insert(*c), "paths overlap at {c}");
                }
            }
        }
    }
}
