//! The traced run: the flat stage pipeline of `PacorFlow::run_detailed`
//! rebuilt from the crate's public stage functions, with each call timed
//! from outside and the counters read from an enclosing observability
//! session. Nothing inside the program is instrumented for it.

use pacor::grid::{ObsMap, Point};
use pacor::obs::{ObsReport, Session};
use pacor::stages::{escape_all, route_lm_clusters, route_ordinary_clusters};
use pacor::valves::Cluster;
use pacor::{detour_cluster, FlowError, FlowVariant, RoutedCluster};
use std::time::{Duration, Instant};

use crate::workload::{Outcome, Route};

/// Wall-clock of each flow stage in one traced route.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimes {
    pub clustering: Duration,
    pub lm_routing: Duration,
    pub mst_routing: Duration,
    pub escape: Duration,
    pub detour: Duration,
}

impl StageTimes {
    pub fn total(&self) -> Duration {
        self.clustering + self.lm_routing + self.mst_routing + self.escape + self.detour
    }

    pub fn add(&mut self, other: &StageTimes) {
        self.clustering += other.clustering;
        self.lm_routing += other.lm_routing;
        self.mst_routing += other.mst_routing;
        self.escape += other.escape;
        self.detour += other.detour;
    }
}

/// Everything one traced route yields.
pub struct Traced {
    /// The composed result, for comparison with `PacorFlow::run_detailed`.
    pub outcome: Outcome,
    /// Per-cluster channel lengths in routed order.
    pub cluster_lengths: Vec<u64>,
    pub wall: Duration,
    pub stages: StageTimes,
    pub counters: ObsReport,
    /// Length-matching clusters entering `route_lm_clusters`.
    pub lm_in: u64,
    /// Multi-valve clusters entering `escape_all`.
    pub escape_multi_in: u64,
    /// Clusters handed to `detour_cluster`, and how many came out matched.
    pub detoured: u64,
    pub detour_matched: u64,
}

/// Routes `route` stage by stage, timing each stage call.
pub fn run_traced(route: &Route) -> Result<Traced, FlowError> {
    let problem = &route.problem;
    let config = &route.config;
    problem.validate()?;
    let grid = problem.grid()?;
    let session = Session::begin();
    let start = Instant::now();
    let mut stages = StageTimes::default();
    let mut obs = ObsMap::new(&grid);

    // 1. Clustering, then every valve cell becomes an obstacle.
    let t = Instant::now();
    let clusters = problem.valves.cluster_greedy(&problem.lm_clusters);
    stages.clustering = t.elapsed();
    for v in problem.valves.iter() {
        obs.block(v.position());
    }
    let mut next_id = clusters.len() as u32;
    let paired: Vec<(Cluster, Vec<Point>)> = clusters
        .into_iter()
        .map(|c| {
            let positions = c
                .members()
                .iter()
                .map(|m| {
                    problem
                        .valves
                        .get(*m)
                        .expect("clustering uses known valves")
                        .position()
                })
                .collect();
            (c, positions)
        })
        .collect();
    let (lm_input, mut ordinary): (Vec<_>, Vec<_>) = paired
        .into_iter()
        .partition(|(c, _)| c.is_length_matched() && c.len() >= 2);
    let lm_in = lm_input.len() as u64;

    // 2. Length-matching clusters.
    let t = Instant::now();
    let lm_out = route_lm_clusters(&mut obs, lm_input, config);
    stages.lm_routing = t.elapsed();
    let mut routed: Vec<RoutedCluster> = lm_out.routed;

    // 3. Failed LM clusters are demoted and routed with the ordinary ones.
    for (c, p) in lm_out.failed {
        ordinary.push((Cluster::new(c.id(), c.members().to_vec(), false), p));
    }
    let t = Instant::now();
    routed.extend(route_ordinary_clusters(
        &mut obs,
        ordinary,
        &mut next_id,
        config,
    ));
    stages.mst_routing = t.elapsed();

    // 4–6. Escape, with detouring before it (Detour First) or after it.
    let (mut detoured, mut detour_matched) = (0, 0);
    let mut detour = |obs: &mut ObsMap, routed: &mut [RoutedCluster], complete_only: bool| {
        let t = Instant::now();
        for rc in routed.iter_mut() {
            if rc.cluster.is_length_matched() && (!complete_only || rc.is_complete()) {
                detoured += 1;
                detour_matched += u64::from(detour_cluster(obs, rc, problem.delta, config));
            }
        }
        stages.detour += t.elapsed();
    };
    if config.variant == FlowVariant::DetourFirst {
        detour(&mut obs, &mut routed, false);
    }
    let escape_multi_in = routed.iter().filter(|rc| rc.cluster.len() >= 2).count() as u64;
    let t = Instant::now();
    escape_all(&mut obs, &mut routed, &problem.pins, config, &mut next_id);
    let escape = t.elapsed();
    if config.variant != FlowVariant::DetourFirst {
        detour(&mut obs, &mut routed, true);
    }
    stages.escape = escape;
    let wall = start.elapsed();
    let counters = session.finish();

    let mut outcome = Outcome {
        valves_routed: 0,
        valves_total: problem.valve_count(),
        matched: 0,
        total_length: 0,
    };
    let mut cluster_lengths = Vec::with_capacity(routed.len());
    for rc in &routed {
        let len = rc.total_length();
        cluster_lengths.push(len);
        outcome.total_length += len;
        if rc.is_complete() {
            outcome.valves_routed += rc.cluster.len();
            if rc.cluster.is_length_matched() && rc.is_matched(problem.delta) {
                outcome.matched += 1;
            }
        }
    }
    Ok(Traced {
        outcome,
        cluster_lengths,
        wall,
        stages,
        counters,
        lm_in,
        escape_multi_in,
        detoured,
        detour_matched,
    })
}
