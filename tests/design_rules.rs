//! Design-rule verification: after the full flow, no two nets may share a
//! routing cell (the paper's constraint (12) and minimum-spacing rule:
//! one channel per routing track).

use pacor_repro::grid::Point;
use pacor_repro::pacor::{BenchDesign, FlowConfig, PacorFlow, Problem, RoutedKind};
use pacor_repro::valves::{Valve, ValveId};
use std::collections::HashMap;

/// Re-runs the flow stages manually to collect per-net cells, then checks
/// pairwise disjointness. (The public report does not expose geometry, so
/// this test drives the stage API.)
fn assert_disjoint_nets(problem: &Problem) {
    use pacor_repro::pacor::stages::{escape_all, route_lm_clusters, route_ordinary_clusters};
    use pacor_repro::valves::Cluster;

    let grid = problem.grid().unwrap();
    let mut obs = pacor_repro::grid::ObsMap::new(&grid);
    for v in problem.valves.iter() {
        obs.block(v.position());
    }
    let clusters = problem.valves.cluster_greedy(&problem.lm_clusters);
    let positions_of = |c: &Cluster| {
        c.members()
            .iter()
            .map(|m| problem.valves.get(*m).unwrap().position())
            .collect::<Vec<_>>()
    };
    let mut next_id = clusters.len() as u32;
    let (lm, ordinary): (Vec<_>, Vec<_>) = clusters
        .into_iter()
        .partition(|c| c.is_length_matched() && c.len() >= 2);
    let lm_input: Vec<_> = lm
        .into_iter()
        .map(|c| {
            let p = positions_of(&c);
            (c, p)
        })
        .collect();
    let cfg = FlowConfig::default();
    let lm_out = route_lm_clusters(&mut obs, lm_input, &cfg);
    let mut routed = lm_out.routed;
    let mut ord: Vec<_> = ordinary
        .into_iter()
        .map(|c| {
            let p = positions_of(&c);
            (c, p)
        })
        .collect();
    for (c, p) in lm_out.failed {
        ord.push((Cluster::new(c.id(), c.members().to_vec(), false), p));
    }
    routed.extend(route_ordinary_clusters(&mut obs, ord, &mut next_id, &cfg));
    escape_all(&mut obs, &mut routed, &problem.pins, &cfg, &mut next_id);

    // Collect every net's cells: internal + escape.
    let mut owner: HashMap<Point, usize> = HashMap::new();
    for (i, rc) in routed.iter().enumerate() {
        let mut cells = rc.net_cells();
        if let Some((esc, _)) = &rc.escape {
            // The first escape cell is the junction on the net itself.
            cells.extend(esc.cells().iter().skip(1).copied());
        }
        for c in cells {
            if let Some(prev) = owner.insert(c, i) {
                assert_eq!(
                    prev, i,
                    "cell {c} shared by nets {prev} and {i} in {}",
                    problem.name
                );
            }
        }
    }
}

/// The public `run_detailed` geometry must satisfy the same disjointness
/// rule end-to-end (including detours, which the stage-driven variant
/// above does not run).
fn assert_detailed_disjoint(design: BenchDesign, seed: u64) {
    let problem = design.synthesize(seed);
    let (report, routed) = PacorFlow::new(FlowConfig::default())
        .run_detailed(&problem)
        .expect("valid design");
    assert_eq!(report.completion_rate(), 1.0);
    let mut owner: HashMap<Point, usize> = HashMap::new();
    for (i, rc) in routed.iter().enumerate() {
        let mut cells = rc.net_cells();
        if let Some((esc, _)) = &rc.escape {
            cells.extend(esc.cells().iter().skip(1).copied());
        }
        for c in cells {
            if let Some(prev) = owner.insert(c, i) {
                assert_eq!(prev, i, "cell {c} shared by nets {prev} and {i}");
            }
        }
    }
}

#[test]
fn detailed_flow_nets_disjoint() {
    for design in [
        BenchDesign::S1,
        BenchDesign::S2,
        BenchDesign::S3,
        BenchDesign::S4,
    ] {
        assert_detailed_disjoint(design, 42);
    }
}

#[test]
fn detailed_flow_nets_disjoint_other_seeds() {
    for seed in [1, 3, 8] {
        assert_detailed_disjoint(BenchDesign::S3, seed);
    }
}

#[test]
fn nets_disjoint_on_s1_to_s3() {
    for design in [BenchDesign::S1, BenchDesign::S2, BenchDesign::S3] {
        assert_disjoint_nets(&design.synthesize(42));
    }
}

#[test]
fn nets_disjoint_on_s4() {
    assert_disjoint_nets(&BenchDesign::S4.synthesize(42));
}

#[test]
fn nets_disjoint_across_seeds() {
    for seed in [0, 5, 9] {
        assert_disjoint_nets(&BenchDesign::S2.synthesize(seed));
    }
}

#[test]
fn escape_paths_end_on_distinct_pins() {
    use pacor_repro::pacor::stages::{escape_all, route_ordinary_clusters};
    let problem = BenchDesign::S3.synthesize(42);
    let grid = problem.grid().unwrap();
    let mut obs = pacor_repro::grid::ObsMap::new(&grid);
    for v in problem.valves.iter() {
        obs.block(v.position());
    }
    // Route everything as ordinary clusters for simplicity.
    let clusters = problem.valves.cluster_greedy(&problem.lm_clusters);
    let input: Vec<_> = clusters
        .into_iter()
        .map(|c| {
            let p: Vec<_> = c
                .members()
                .iter()
                .map(|m| problem.valves.get(*m).unwrap().position())
                .collect();
            (c, p)
        })
        .collect();
    let mut next_id = 100;
    let mut routed = route_ordinary_clusters(&mut obs, input, &mut next_id, &FlowConfig::default());
    escape_all(
        &mut obs,
        &mut routed,
        &problem.pins,
        &FlowConfig::default(),
        &mut next_id,
    );
    let pins: Vec<Point> = routed
        .iter()
        .filter_map(|rc| rc.escape.as_ref().map(|(_, p)| *p))
        .collect();
    let mut dedup = pins.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), pins.len(), "two clusters share a pin");
}

#[test]
fn lm_pair_junction_lies_on_both_halves() {
    let problem = Problem::builder("pair", 16, 16)
        .valve(Valve::new(
            ValveId(0),
            Point::new(3, 8),
            "0".parse().unwrap(),
        ))
        .valve(Valve::new(
            ValveId(1),
            Point::new(11, 8),
            "0".parse().unwrap(),
        ))
        .lm_cluster(vec![ValveId(0), ValveId(1)])
        .pins([Point::new(0, 8)])
        .build()
        .unwrap();
    use pacor_repro::pacor::stages::route_lm_clusters;
    use pacor_repro::valves::Cluster;
    let grid = problem.grid().unwrap();
    let mut obs = pacor_repro::grid::ObsMap::new(&grid);
    obs.block(Point::new(3, 8));
    obs.block(Point::new(11, 8));
    let c = Cluster::new(
        pacor_repro::valves::ClusterId(0),
        vec![ValveId(0), ValveId(1)],
        true,
    );
    let out = route_lm_clusters(
        &mut obs,
        vec![(c, vec![Point::new(3, 8), Point::new(11, 8)])],
        &FlowConfig::default(),
    );
    match &out.routed[0].kind {
        RoutedKind::LmPair {
            junction,
            half_a,
            half_b,
        } => {
            assert_eq!(half_a.target(), *junction);
            assert_eq!(half_b.target(), *junction);
            assert_eq!(half_a.source(), Point::new(3, 8));
            assert_eq!(half_b.source(), Point::new(11, 8));
        }
        other => panic!("expected pair, got {other:?}"),
    }
}
