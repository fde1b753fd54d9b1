//! Composing a custom flow from the public stage API — the use case
//! docs/GUIDE.md §5 documents: reorder stages, skip stages, instrument
//! between them.

use pacor_repro::grid::ObsMap;
use pacor_repro::pacor::stages::{escape_all, route_lm_clusters, route_ordinary_clusters};
use pacor_repro::pacor::{detour_cluster, verify_layout, BenchDesign, FlowConfig, Problem};
use pacor_repro::valves::Cluster;

/// A "no-detour" flow: everything PACOR does except stage 6.
fn run_without_detour(problem: &Problem) -> Vec<pacor_repro::pacor::RoutedCluster> {
    let cfg = FlowConfig::default();
    let grid = problem.grid().unwrap();
    let mut obs = ObsMap::new(&grid);
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
    routed
}

#[test]
fn detour_stage_is_what_creates_matches() {
    // Without detouring, wired mismatches remain; adding a manual detour
    // pass afterwards recovers them — demonstrating stage composition.
    let problem = BenchDesign::S4.synthesize(42);
    let mut routed = run_without_detour(&problem);
    assert!(verify_layout(&problem, &routed).is_empty());

    let before: usize = routed
        .iter()
        .filter(|rc| rc.cluster.is_length_matched() && rc.is_matched(problem.delta))
        .count();

    // Manual stage 6.
    let grid = problem.grid().unwrap();
    let mut obs = ObsMap::new(&grid);
    for v in problem.valves.iter() {
        obs.block(v.position());
    }
    for rc in &routed {
        obs.block_all(rc.net_cells());
        if let Some((esc, _)) = &rc.escape {
            obs.block_all(esc.cells().iter().skip(1).copied());
        }
    }
    let cfg = FlowConfig::default();
    for rc in routed.iter_mut() {
        if rc.cluster.is_length_matched() && rc.is_complete() {
            detour_cluster(&mut obs, rc, problem.delta, &cfg);
        }
    }
    let after: usize = routed
        .iter()
        .filter(|rc| rc.cluster.is_length_matched() && rc.is_matched(problem.delta))
        .count();
    assert!(after >= before, "detour must never lose matches");
    assert!(
        verify_layout(&problem, &routed).is_empty(),
        "manual detour keeps geometry clean"
    );
}

#[test]
fn escape_only_flow_for_pre_routed_singletons() {
    // Skip LM and MST stages entirely: treat every valve as a singleton
    // and run escape alone — a legitimate minimal flow for chips without
    // synchronization requirements.
    let problem = BenchDesign::S3.synthesize(7);
    let grid = problem.grid().unwrap();
    let mut obs = ObsMap::new(&grid);
    for v in problem.valves.iter() {
        obs.block(v.position());
    }
    let mut routed: Vec<_> = problem
        .valves
        .iter()
        .enumerate()
        .map(|(i, v)| pacor_repro::pacor::RoutedCluster {
            cluster: Cluster::new(
                pacor_repro::valves::ClusterId(i as u32),
                vec![v.id()],
                false,
            ),
            member_positions: vec![v.position()],
            kind: pacor_repro::pacor::RoutedKind::Singleton,
            escape: None,
        })
        .collect();
    let mut next_id = routed.len() as u32;
    escape_all(
        &mut obs,
        &mut routed,
        &problem.pins,
        &FlowConfig::default(),
        &mut next_id,
    );
    // One pin per valve: needs enough pins (S3 has 93 pins for 15 valves).
    assert!(routed.iter().all(|rc| rc.is_complete()));
    assert!(verify_layout(&problem, &routed).is_empty());
}
