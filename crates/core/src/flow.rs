//! The PACOR flow orchestrator (Fig. 2 of the paper).

use crate::escape_stage::escape_all;
use crate::lm_routing::route_lm_clusters;
use crate::mst_routing::route_ordinary_clusters;
use crate::{
    detour_cluster, ClusterReport, FlowConfig, FlowError, FlowVariant, Problem, RouteReport,
    RoutedCluster,
};
use pacor_grid::{GridLen, ObsMap, Point};
use pacor_valves::Cluster;
use std::time::Instant;

/// The complete control-layer routing flow.
///
/// # Examples
///
/// ```
/// use pacor::{BenchDesign, FlowConfig, FlowVariant, PacorFlow};
///
/// let problem = BenchDesign::S1.synthesize(1);
/// let flow = PacorFlow::new(FlowConfig::for_variant(FlowVariant::Pacor));
/// let report = flow.run(&problem)?;
/// assert!(report.completion_rate() > 0.99);
/// # Ok::<(), pacor::FlowError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PacorFlow {
    config: FlowConfig,
}

impl PacorFlow {
    /// Creates a flow with the given configuration.
    pub fn new(config: FlowConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Runs all six stages on `problem` and reports the Table 2 metrics.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidProblem`] when the problem fails
    /// validation.
    pub fn run(&self, problem: &Problem) -> Result<RouteReport, FlowError> {
        self.run_detailed(problem).map(|(report, _)| report)
    }

    /// Like [`PacorFlow::run`], additionally returning the routed
    /// clusters with their full geometry (internal nets, escape paths,
    /// pin assignments) — for rendering, verification, or downstream
    /// export.
    ///
    /// # Errors
    ///
    /// Same as [`PacorFlow::run`].
    pub fn run_detailed(
        &self,
        problem: &Problem,
    ) -> Result<(RouteReport, Vec<RoutedCluster>), FlowError> {
        problem.validate()?;
        let start = Instant::now();
        // The flow always records its own observability session, so the
        // report carries counter totals even without an outer (CLI)
        // session; nested sessions merge upward on finish.
        let obs_session = pacor_obs::Session::begin();
        let grid = problem.grid()?;
        let mut obs = ObsMap::new(&grid);
        pacor_obs::emit(pacor_obs::Event::FlowStarted {
            design: problem.name.clone(),
            width: grid.width(),
            height: grid.height(),
            valves: problem.valve_count() as u64,
            pins: problem.pins.len() as u64,
            lm_clusters: problem.lm_clusters.len() as u64,
            variant: self.config.variant.label().to_string(),
        });

        // ---- Stage 1: valve clustering -------------------------------
        // Length-matching clusters are pinned; remaining valves cluster
        // greedily by compatibility (broadcast addressing).
        let stage = pacor_obs::stage("clustering", &[]);
        let clusters = problem.valves.cluster_greedy(&problem.lm_clusters);
        stage.exit(clusters.len() as u64);
        let positions_of = |c: &Cluster| {
            c.members()
                .iter()
                .map(|m| {
                    problem
                        .valves
                        .get(*m)
                        .expect("clustering uses known valves")
                        .position()
                })
                .collect::<Vec<_>>()
        };

        // Block every valve cell: terminals are never transit cells for
        // foreign nets (A* exempts a net's own endpoints).
        for v in problem.valves.iter() {
            obs.block(v.position());
        }

        let clusters_multi = clusters.iter().filter(|c| c.len() >= 2).count();
        let mut next_cluster_id = clusters.len() as u32;
        let paired: Vec<(Cluster, Vec<Point>)> = clusters
            .into_iter()
            .map(|c| {
                let p = positions_of(&c);
                (c, p)
            })
            .collect();

        // ---- Stages 2–6: detailed routing -----------------------------
        let routed = run_stage_pipeline(
            &mut obs,
            paired,
            &problem.pins,
            problem.delta,
            &self.config,
            &mut next_cluster_id,
        );

        // ---- Flight-recorder epilogue ---------------------------------
        // Per-cluster outcomes (in routed order, which is deterministic)
        // and a final occupancy snapshot — the post-mortem's ground truth
        // for what stayed unrouted and where the chip ended up congested.
        if pacor_obs::recording() {
            for rc in &routed {
                pacor_obs::emit(pacor_obs::Event::ClusterOutcome {
                    cluster: rc.cluster.id().0,
                    valves: rc.cluster.len() as u32,
                    lm: rc.cluster.is_length_matched(),
                    complete: rc.is_complete(),
                });
            }
            pacor_obs::flight_snapshot(pacor_obs::CongestionSnapshot {
                kind: pacor_obs::SnapshotKind::Final,
                session: 0,
                round: 0,
                width: grid.width(),
                height: grid.height(),
                occupancy: obs.blocked_cells().iter().map(|&b| u8::from(b)).collect(),
                heat_milli: Vec::new(),
            });
        }

        let obs_report = obs_session.finish();
        let metrics = crate::FlowMetrics {
            counters: obs_report
                .counters()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        };
        let report = self.report(problem, &routed, clusters_multi, start, metrics);
        let complete = report.clusters.iter().filter(|c| c.complete).count() as u64;
        pacor_obs::emit(pacor_obs::Event::FlowFinished {
            routed: complete,
            failed: report.clusters.len() as u64 - complete,
            matched: report.matched_clusters as u64,
            total_length: report.total_length,
            completion_milli: (report.completion_rate() * 1000.0).round() as u64,
            events: 0,
            elapsed_us: 0,
        });
        Ok((report, routed))
    }

    fn report(
        &self,
        problem: &Problem,
        routed: &[RoutedCluster],
        clusters_multi: usize,
        start: Instant,
        metrics: crate::FlowMetrics,
    ) -> RouteReport {
        let mut clusters = Vec::with_capacity(routed.len());
        let mut matched_clusters = 0usize;
        let mut matched_length = 0;
        let mut total_length = 0;
        let mut valves_routed = 0usize;
        for rc in routed {
            let matched =
                rc.cluster.is_length_matched() && rc.is_complete() && rc.is_matched(problem.delta);
            let len = rc.total_length();
            total_length += len;
            if matched {
                matched_clusters += 1;
                matched_length += len;
            }
            if rc.is_complete() {
                valves_routed += rc.cluster.len();
            }
            clusters.push(ClusterReport {
                size: rc.cluster.len(),
                length_constrained: rc.cluster.is_length_matched(),
                matched,
                complete: rc.is_complete(),
                total_length: len,
                mismatch: rc.mismatch(),
            });
        }
        RouteReport {
            design: problem.name.clone(),
            variant: self.config.variant.label().to_string(),
            clusters_multi,
            matched_clusters,
            matched_length,
            total_length,
            valves_routed,
            valves_total: problem.valve_count(),
            runtime: start.elapsed(),
            metrics,
            clusters,
        }
    }
}

/// Stages 2–6 of the flow: LM routing, MST routing, the Detour-First
/// variant's early detour, escape routing with rip-up/de-clustering,
/// and final detouring — over `obs`, consuming `clusters` paired with
/// their precomputed member positions.
fn run_stage_pipeline(
    obs: &mut ObsMap,
    clusters: Vec<(Cluster, Vec<Point>)>,
    pins: &[Point],
    delta: GridLen,
    config: &FlowConfig,
    next_cluster_id: &mut u32,
) -> Vec<RoutedCluster> {
    let (lm_input, mut ordinary_input): (Vec<_>, Vec<_>) = clusters
        .into_iter()
        .partition(|(c, _)| c.is_length_matched() && c.len() >= 2);

    // ---- Stage 2: length-matching cluster routing -----------------
    let lm_count = lm_input.len() as u64;
    let stage = pacor_obs::stage("lm_routing", &[("clusters", lm_count)]);
    let lm_out = route_lm_clusters(obs, lm_input, config);
    stage.exit(lm_count);
    pacor_obs::counter_sample("astar.expansions");
    let mut routed: Vec<RoutedCluster> = lm_out.routed;

    // ---- Stage 3: MST routing (ordinary + failed LM clusters) -----
    // Failed LM clusters are re-routed as ordinary clusters (their
    // length-matching flag is dropped — they no longer count as
    // candidates for matching).
    for (c, p) in lm_out.failed {
        let demoted = Cluster::new(c.id(), c.members().to_vec(), false);
        ordinary_input.push((demoted, p));
    }
    let mst_count = ordinary_input.len() as u64;
    let stage = pacor_obs::stage("mst_routing", &[("clusters", mst_count)]);
    routed.extend(route_ordinary_clusters(
        obs,
        ordinary_input,
        next_cluster_id,
        config,
    ));
    stage.exit(mst_count);
    pacor_obs::counter_sample("astar.expansions");

    // ---- Stage 3.5: Detour-First variant --------------------------
    if config.variant == FlowVariant::DetourFirst {
        let stage = pacor_obs::stage("detour", &[]);
        let mut detoured = 0u64;
        for rc in routed.iter_mut() {
            if rc.cluster.is_length_matched() {
                detour_cluster(obs, rc, delta, config);
                detoured += 1;
            }
        }
        stage.exit(detoured);
    }

    // ---- Stages 4–5: escape routing with rip-up/de-clustering -----
    let stage = pacor_obs::stage("escape", &[]);
    escape_all(obs, &mut routed, pins, config, next_cluster_id);
    stage.exit(routed.len() as u64);
    pacor_obs::counter_sample("astar.expansions");

    // ---- Stage 6: final path detouring ----------------------------
    if config.variant != FlowVariant::DetourFirst {
        let stage = pacor_obs::stage("detour", &[]);
        let mut detoured = 0u64;
        for rc in routed.iter_mut() {
            if rc.cluster.is_length_matched() && rc.is_complete() {
                detour_cluster(obs, rc, delta, config);
                detoured += 1;
            }
        }
        stage.exit(detoured);
    }
    pacor_obs::counter_sample("astar.expansions");

    routed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchDesign;

    #[test]
    fn s1_routes_completely() {
        let problem = BenchDesign::S1.synthesize(42);
        let report = PacorFlow::new(FlowConfig::default()).run(&problem).unwrap();
        assert_eq!(report.completion_rate(), 1.0, "{report}");
        assert_eq!(report.valves_total, 5);
    }

    #[test]
    fn s1_matches_its_pairs() {
        let problem = BenchDesign::S1.synthesize(42);
        let report = PacorFlow::new(FlowConfig::default()).run(&problem).unwrap();
        // S1 has two LM clusters; the paper matches both.
        assert!(report.matched_clusters >= 1, "{report}");
        assert!(report.matched_length <= report.total_length);
    }

    #[test]
    fn all_variants_run_s2() {
        let problem = BenchDesign::S2.synthesize(7);
        for v in FlowVariant::ALL {
            let report = PacorFlow::new(FlowConfig::for_variant(v))
                .run(&problem)
                .unwrap();
            assert!(
                report.completion_rate() > 0.9,
                "{} incomplete: {report}",
                v.label()
            );
        }
    }

    #[test]
    fn invalid_problem_is_rejected() {
        let p = Problem::builder("bad", 8, 8)
            .pin(pacor_grid::Point::new(4, 4))
            .build_unchecked();
        assert!(PacorFlow::default().run(&p).is_err());
    }

    #[test]
    fn empty_problem_reports_trivially() {
        let p = Problem::builder("empty", 8, 8).build().unwrap();
        let report = PacorFlow::default().run(&p).unwrap();
        assert_eq!(report.completion_rate(), 1.0);
        assert_eq!(report.total_length, 0);
        assert_eq!(report.clusters_multi, 0);
    }
}
