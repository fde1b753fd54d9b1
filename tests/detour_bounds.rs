//! Detour-stage guarantees (Algorithm 2 + the bounded router backing it):
//! after detouring, every member of a matched cluster carries a channel
//! length inside `[maxL − δ, maxL]`, and no detoured path ever crosses a
//! cell that is blocked for it in the obstacle map.

use pacor_repro::grid::{Grid, GridPath, ObsMap, Point};
use pacor_repro::pacor::{
    detour_cluster, BenchDesign, FlowConfig, PacorFlow, RoutedCluster, RoutedKind,
};
use pacor_repro::route::BoundedAStar;
use pacor_repro::valves::{Cluster, ClusterId, ValveId};

/// Asserts the length-matching window for every complete, matched
/// length-constrained cluster: `maxL − δ ≤ len_i ≤ maxL`.
fn assert_window(rc: &RoutedCluster, delta: u64, context: &str) {
    let Some(lens) = rc.member_lengths() else {
        return;
    };
    let max_l = *lens.iter().max().expect("nonempty cluster");
    for (i, &len) in lens.iter().enumerate() {
        assert!(
            len + delta >= max_l && len <= max_l,
            "{context}: member {i} length {len} outside [{} - {delta}, {}]",
            max_l,
            max_l
        );
    }
}

#[test]
fn flow_detours_land_in_the_matching_window() {
    for design in [BenchDesign::S1, BenchDesign::S2, BenchDesign::S4] {
        let problem = design.synthesize(42);
        let (_, routed) = PacorFlow::new(FlowConfig::default())
            .run_detailed(&problem)
            .expect("bench designs route");
        let mut checked = 0usize;
        for rc in &routed {
            if rc.cluster.is_length_matched() && rc.is_complete() && rc.is_matched(problem.delta) {
                assert_window(rc, problem.delta, &format!("{design:?}"));
                checked += 1;
            }
        }
        assert!(
            checked > 0,
            "{design:?} produced no matched clusters to check"
        );
    }
}

#[test]
fn flow_detours_never_cross_foreign_obstacles() {
    // Rebuild the obstacle map from scratch (permanent obstacles plus
    // every OTHER net's cells) and check each cluster's geometry against
    // it — a detoured path may touch its own net, never anyone else's.
    let problem = BenchDesign::S4.synthesize(42);
    let (_, routed) = PacorFlow::new(FlowConfig::default())
        .run_detailed(&problem)
        .expect("S4 routes");
    let grid = problem.grid().unwrap();
    for (i, rc) in routed.iter().enumerate() {
        let mut obs = ObsMap::new(&grid);
        for (j, other) in routed.iter().enumerate() {
            if i == j {
                continue;
            }
            obs.block_all(other.net_cells());
            if let Some((esc, _)) = &other.escape {
                obs.block_all(esc.cells().iter().copied());
            }
        }
        for c in rc.net_cells() {
            assert!(
                !obs.is_blocked(c),
                "cluster {i} cell {c} overlaps an obstacle or foreign net"
            );
        }
    }
}

/// A hand-built pair whose halves are 2 and 6 units long (mismatch 4).
fn asymmetric_pair(obs: &mut ObsMap) -> RoutedCluster {
    let cells: Vec<Point> = (0..=8).map(|x| Point::new(x, 8)).collect();
    obs.block_all(cells.iter().copied());
    let junction = Point::new(2, 8);
    let half_a = GridPath::new(cells[..=2].to_vec()).unwrap();
    let mut rev = cells[2..].to_vec();
    rev.reverse();
    let half_b = GridPath::new(rev).unwrap();
    RoutedCluster {
        cluster: Cluster::new(ClusterId(0), vec![ValveId(0), ValveId(1)], true),
        member_positions: vec![Point::new(0, 8), Point::new(8, 8)],
        kind: RoutedKind::LmPair {
            junction,
            half_a,
            half_b,
        },
        escape: None,
    }
}

#[test]
fn detour_cluster_respects_window_and_obstacles() {
    for delta in [0u64, 1, 2] {
        let mut grid = Grid::new(18, 18).unwrap();
        // Scatter obstacles near the short half so the detour has to
        // steer around them.
        for p in [
            Point::new(1, 6),
            Point::new(2, 10),
            Point::new(3, 7),
            Point::new(0, 10),
        ] {
            grid.set_obstacle(p);
        }
        let mut obs = ObsMap::new(&grid);
        let mut rc = asymmetric_pair(&mut obs);
        let matched = detour_cluster(&mut obs, &mut rc, delta, &FlowConfig::default());
        assert!(matched, "δ={delta}: pair should match on an open grid");
        assert_window(&rc, delta, &format!("δ={delta}"));
        // The rewired net must avoid the permanent obstacles entirely.
        let clean = ObsMap::new(&grid);
        for c in rc.net_cells() {
            assert!(!clean.is_blocked(c), "δ={delta}: net crosses obstacle {c}");
        }
        // And the map must account for exactly the new net.
        for c in rc.net_cells() {
            assert!(obs.is_blocked(c), "δ={delta}: net cell {c} left unblocked");
        }
    }
}

#[test]
fn bounded_router_overshoot_stays_within_delta_window() {
    // The detour stage calls route_at_least(lt) with overshoot δ+2 and
    // lt = len + deficit ≤ maxL − δ: the result must never exceed the
    // window the stage is trying to hit.
    let obs = ObsMap::new(&Grid::new(24, 24).unwrap());
    for (lt, overshoot) in [(8u64, 2u64), (13, 3), (20, 4)] {
        let router = BoundedAStar::new(&obs).with_max_overshoot(overshoot);
        let path = router
            .route_at_least(Point::new(4, 12), Point::new(10, 12), lt)
            .expect("open grid detours");
        assert!(
            path.len() >= lt && path.len() <= lt + overshoot,
            "length {} outside [{lt}, {}]",
            path.len(),
            lt + overshoot
        );
        // Self-avoiding: no cell twice.
        let mut seen = std::collections::HashSet::new();
        for c in path.cells() {
            assert!(seen.insert(*c), "cell {c} repeated");
        }
    }
}

#[test]
fn bounded_router_avoids_obstacles_under_length_pressure() {
    // Force the detour through a slit: the lengthened path must thread
    // it without ever touching a blocked cell.
    let mut grid = Grid::new(20, 20).unwrap();
    for y in 0..20 {
        if y != 10 {
            grid.set_obstacle(Point::new(9, y));
        }
    }
    let obs = ObsMap::new(&grid);
    let path = BoundedAStar::new(&obs)
        .with_max_overshoot(4)
        .route_at_least(Point::new(5, 10), Point::new(14, 10), 15)
        .expect("slit admits a lengthened path");
    assert!(path.len() >= 15);
    for c in path.cells() {
        assert!(!obs.is_blocked(*c), "path crosses blocked cell {c}");
    }
}
