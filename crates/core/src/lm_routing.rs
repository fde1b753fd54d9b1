//! Length-matching cluster routing (Section 4): candidate construction,
//! MWCP selection, negotiation-based wiring.

use crate::{FlowConfig, FlowVariant, RoutedCluster, RoutedKind};
use pacor_clique::{select_one_per_group, SelectionInstance};
use pacor_dme::{candidates, candidates_with_alternates, CandidateConfig, SteinerTree};
use pacor_grid::{olcost, GridPath, ObsMap, Point};
use pacor_route::{NegotiationRouter, RouteRequest};
use pacor_valves::Cluster;

/// Result of the length-matching routing stage.
#[derive(Debug)]
pub struct LmOutcome {
    /// Clusters routed with their internal nets wired (and blocked in the
    /// obstacle map).
    pub routed: Vec<RoutedCluster>,
    /// Clusters that could not be routed under the constraint; the caller
    /// re-routes them as ordinary clusters (paper Section 7).
    pub failed: Vec<(Cluster, Vec<Point>)>,
}

/// Routes all length-matching clusters.
///
/// `clusters` carries each cluster with its member positions. Two-valve
/// clusters are wired directly (no DME); larger clusters go through
/// candidate construction and — unless the variant is
/// [`FlowVariant::WithoutSelection`] — MWCP-based selection. All edges
/// are then wired together by the negotiation router; clusters owning
/// unroutable edges are dropped to the failed list and the remainder is
/// retried.
pub fn route_lm_clusters(
    obs: &mut ObsMap,
    clusters: Vec<(Cluster, Vec<Point>)>,
    config: &FlowConfig,
) -> LmOutcome {
    // Phase 1: candidates for every ≥3-valve cluster, in cluster order.
    let tree_clusters = dme_candidates(obs, &clusters, config);
    if pacor_obs::recording() {
        pacor_obs::emit(pacor_obs::Event::DmeProgress {
            clusters: tree_clusters.len() as u64,
            candidates: tree_clusters.iter().map(|(_, c)| c.len() as u64).sum(),
        });
    }

    // Phase 2: selection (Eqs. 2–4) or first-candidate. Either way the
    // picked tree is moved out of its candidate list, not cloned.
    let selected: Vec<(usize, SteinerTree)> = match config.variant {
        FlowVariant::WithoutSelection => tree_clusters
            .into_iter()
            .map(|(i, mut c)| (i, c.swap_remove(0)))
            .collect(),
        _ => select_trees(tree_clusters, config),
    };

    // Phase 3: negotiation routing of all cluster edges together, dropping
    // clusters with unroutable edges until the set completes.
    let mut active: Vec<LmNet> = Vec::new();
    for (i, tree) in selected {
        active.push(LmNet::Tree {
            cluster_idx: i,
            tree,
        });
    }
    for (i, (cluster, positions)) in clusters.iter().enumerate() {
        if cluster.len() == 2 {
            active.push(LmNet::Pair {
                cluster_idx: i,
                a: positions[0],
                b: positions[1],
            });
        }
    }

    let router = NegotiationRouter::new()
        .with_gamma(config.gamma)
        .with_history_params(config.history_base, config.history_alpha);

    // Every cluster leaves this function exactly once — into `routed` or
    // into `failed` — so hold them in take-able slots instead of cloning
    // cluster + position vectors per materialization.
    let mut slots: Vec<Option<(Cluster, Vec<Point>)>> = clusters.into_iter().map(Some).collect();
    let mut failed_idx: Vec<usize> = Vec::new();
    // Per-slot "already retried with alternate topologies" flag.
    let mut retried = vec![false; slots.len()];
    let mut routed: Vec<RoutedCluster> = Vec::new();
    loop {
        // Build the edge list and the request → net mapping.
        let mut requests: Vec<RouteRequest> = Vec::new();
        let mut owner: Vec<usize> = Vec::new();
        for (ni, net) in active.iter().enumerate() {
            // Tag each request with its cluster id so the flight
            // recorder can attribute per-net outcomes to clusters.
            let cid = slots[net.cluster_idx()]
                .as_ref()
                .expect("cluster still pending")
                .0
                .id()
                .0;
            for (s, t) in net.edges() {
                requests.push(RouteRequest::point_to_point(s, t).with_net(cid));
                owner.push(ni);
            }
        }
        let outcome = router.route_all(obs, &requests);
        if outcome.complete {
            // Materialize RoutedClusters in `active` order, moving each
            // cluster out of its slot.
            let mut path_iter = outcome.paths.into_iter();
            for net in std::mem::take(&mut active) {
                let n_edges = net.edges().len();
                let paths: Vec<GridPath> = path_iter
                    .by_ref()
                    .take(n_edges)
                    .map(|p| p.expect("complete outcome"))
                    .collect();
                let (cluster, positions) = slots[net.cluster_idx()]
                    .take()
                    .expect("cluster materialized once");
                routed.push(net.materialize(cluster, positions, paths));
            }
            break;
        }
        // Clusters owning a failed edge get one *reconstruction* retry —
        // the paper's "the DME tree needs to be reconstructed" — with
        // candidates drawn from alternate connection topologies; a second
        // failure demotes them to ordinary routing.
        let mut dropped: Vec<usize> = outcome
            .paths
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(req, _)| owner[req])
            .collect();
        dropped.sort_unstable();
        dropped.dedup();
        for &ni in dropped.iter().rev() {
            let net = active.remove(ni);
            let ci = net.cluster_idx();
            let slot = slots[ci].as_ref().expect("cluster still pending");
            let cid = slot.0.id().0;
            let positions = &slot.1;
            let is_tree = matches!(net, LmNet::Tree { .. });
            if is_tree && !retried[ci] && positions.len() <= 6 {
                retried[ci] = true;
                pacor_obs::emit(pacor_obs::Event::LmReconstructed { cluster: cid });
                let alts = candidates_with_alternates(
                    positions,
                    Some(obs),
                    CandidateConfig {
                        max_candidates: config.max_candidates * 2,
                        ..CandidateConfig::default()
                    },
                    4,
                );
                if let Some(tree) = alts.into_iter().min_by_key(|t| t.total_length()) {
                    active.push(LmNet::Tree {
                        cluster_idx: ci,
                        tree,
                    });
                    continue;
                }
            }
            pacor_obs::emit(pacor_obs::Event::LmDemoted { cluster: cid });
            failed_idx.push(ci);
        }
        if active.is_empty() {
            break;
        }
    }

    let failed = failed_idx
        .into_iter()
        .map(|i| slots[i].take().expect("cluster failed once"))
        .collect();
    LmOutcome { routed, failed }
}

/// Re-routes a single length-matching cluster in the current obstacle
/// state (used by the rip-up stage after its old net was ripped out).
/// Returns `None` when it cannot be wired; successful nets are blocked
/// in `obs`.
pub fn reroute_lm_cluster(
    obs: &mut ObsMap,
    cluster: Cluster,
    positions: Vec<Point>,
    config: &FlowConfig,
) -> Option<RoutedCluster> {
    let mut out = route_lm_clusters(obs, vec![(cluster, positions)], config);
    out.routed.pop()
}

/// DME candidate trees (Section 4.1) for every ≥3-valve cluster, keyed
/// by cluster index, inside one `lm.candidates` span.
fn dme_candidates(
    obs: &ObsMap,
    clusters: &[(Cluster, Vec<Point>)],
    config: &FlowConfig,
) -> Vec<(usize, Vec<SteinerTree>)> {
    let big: Vec<(usize, &Vec<Point>)> = clusters
        .iter()
        .enumerate()
        .filter(|(_, (cluster, _))| cluster.len() >= 3)
        .map(|(i, (_, positions))| (i, positions))
        .collect();
    if big.is_empty() {
        return Vec::new();
    }
    let _span = pacor_obs::span_with("lm.candidates", &[("clusters", big.len() as u64)]);
    let dme = CandidateConfig {
        max_candidates: config.max_candidates,
        ..CandidateConfig::default()
    };
    big.into_iter()
        .map(|(i, positions)| {
            let cands = candidates(positions, Some(obs), dme);
            pacor_obs::record("dme.candidates", cands.len() as u64);
            (i, cands)
        })
        .collect()
}

/// Candidate Steiner tree selection via the MWCP (Section 4.2).
fn select_trees(
    tree_clusters: Vec<(usize, Vec<SteinerTree>)>,
    config: &FlowConfig,
) -> Vec<(usize, SteinerTree)> {
    if tree_clusters.is_empty() {
        return Vec::new();
    }
    let _span = pacor_obs::span_with("lm.select", &[("clusters", tree_clusters.len() as u64)]);
    // Normalizing constant: max ΔL over all candidates of all clusters.
    let max_dl = tree_clusters
        .iter()
        .flat_map(|(_, c)| c.iter().map(|t| t.mismatch()))
        .max()
        .unwrap_or(0)
        .max(1) as f64;

    // Node weights: Cm = −λ · ΔL / max ΔL  (Eq. 2).
    let groups: Vec<Vec<f64>> = tree_clusters
        .iter()
        .map(|(_, cands)| {
            cands
                .iter()
                .map(|t| -config.lambda * t.mismatch() as f64 / max_dl)
                .collect()
        })
        .collect();
    let mut inst = SelectionInstance::new(groups);

    // Pair costs: Co = −(1−λ) · Σ olcost over edge pairs (Eqs. 3–4),
    // added cluster pair by cluster pair.
    for ga in 0..tree_clusters.len() {
        for gb in (ga + 1)..tree_clusters.len() {
            let mut scored = 0;
            for (ia, ta) in tree_clusters[ga].1.iter().enumerate() {
                for (ib, tb) in tree_clusters[gb].1.iter().enumerate() {
                    let mut overlap = 0.0;
                    for ea in ta.edges() {
                        for eb in tb.edges() {
                            overlap += olcost(ea, eb);
                        }
                    }
                    if overlap > 0.0 {
                        inst.add_pair_cost((ga, ia), (gb, ib), -(1.0 - config.lambda) * overlap);
                        scored += 1;
                    }
                }
            }
            pacor_obs::counter_add("mwcp.pair_scores", scored);
        }
    }

    let sel = select_one_per_group(&inst);
    pacor_obs::counter_add("mwcp.components", sel.components as u64);
    pacor_obs::counter_add("mwcp.nodes", sel.nodes);
    // Only a degraded selection lists `mwcp.budget_hits` in the metrics.
    if sel.budget_hits > 0 {
        pacor_obs::counter_add("mwcp.budget_hits", sel.budget_hits as u64);
    }
    tree_clusters
        .into_iter()
        .zip(&sel.picks)
        .map(|((i, mut cands), &pick)| (i, cands.swap_remove(pick)))
        .collect()
}

/// Internal net under construction.
enum LmNet {
    Tree {
        cluster_idx: usize,
        tree: SteinerTree,
    },
    Pair {
        cluster_idx: usize,
        a: Point,
        b: Point,
    },
}

impl LmNet {
    fn cluster_idx(&self) -> usize {
        match self {
            LmNet::Tree { cluster_idx, .. } | LmNet::Pair { cluster_idx, .. } => *cluster_idx,
        }
    }

    /// Edge endpoints to wire, child → parent for trees.
    fn edges(&self) -> Vec<(Point, Point)> {
        match self {
            LmNet::Tree { tree, .. } => tree.edges(),
            LmNet::Pair { a, b, .. } => vec![(*a, *b)],
        }
    }

    fn materialize(
        self,
        cluster: Cluster,
        member_positions: Vec<Point>,
        paths: Vec<GridPath>,
    ) -> RoutedCluster {
        match self {
            LmNet::Tree { tree, .. } => RoutedCluster {
                cluster,
                member_positions,
                kind: RoutedKind::LmTree {
                    tree,
                    edge_paths: paths,
                },
                escape: None,
            },
            LmNet::Pair { .. } => {
                let full = paths.into_iter().next().expect("pair has one edge");
                let cells = full.cells();
                let mid = cells.len() / 2;
                let junction = cells[mid];
                let half_a = GridPath::new(cells[..=mid].to_vec()).expect("prefix connected");
                let mut rev = cells[mid..].to_vec();
                rev.reverse();
                let half_b = GridPath::new(rev).expect("suffix connected");
                RoutedCluster {
                    cluster,
                    member_positions,
                    kind: RoutedKind::LmPair {
                        junction,
                        half_a,
                        half_b,
                    },
                    escape: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacor_grid::Grid;
    use pacor_valves::{ClusterId, ValveId};

    fn open(w: u32, h: u32) -> ObsMap {
        ObsMap::new(&Grid::new(w, h).unwrap())
    }

    fn cluster(id: u32, n: u32, lm: bool) -> Cluster {
        Cluster::new(ClusterId(id), (0..n).map(ValveId).collect(), lm)
    }

    #[test]
    fn pair_cluster_splits_at_midpoint() {
        let mut obs = open(12, 12);
        let positions = vec![Point::new(1, 5), Point::new(9, 5)];
        let out = route_lm_clusters(
            &mut obs,
            vec![(cluster(0, 2, true), positions)],
            &FlowConfig::default(),
        );
        assert!(out.failed.is_empty());
        assert_eq!(out.routed.len(), 1);
        match &out.routed[0].kind {
            RoutedKind::LmPair {
                junction,
                half_a,
                half_b,
            } => {
                assert_eq!(half_a.len() + half_b.len(), 8);
                assert!(half_a.len().abs_diff(half_b.len()) <= 1);
                assert_eq!(half_a.target(), *junction);
                assert_eq!(half_b.target(), *junction);
            }
            other => panic!("expected pair, got {other:?}"),
        }
        // Matched before escape: both halves within 1.
        assert!(out.routed[0].mismatch().unwrap() <= 1);
    }

    #[test]
    fn tree_cluster_routes_all_edges() {
        let mut obs = open(24, 24);
        let positions = vec![
            Point::new(2, 2),
            Point::new(20, 2),
            Point::new(2, 20),
            Point::new(20, 20),
        ];
        let out = route_lm_clusters(
            &mut obs,
            vec![(cluster(0, 4, true), positions)],
            &FlowConfig::default(),
        );
        assert_eq!(out.routed.len(), 1);
        match &out.routed[0].kind {
            RoutedKind::LmTree { tree, edge_paths } => {
                assert_eq!(edge_paths.len(), tree.edge_indices().len());
                // Symmetric cluster: wired lengths match estimates.
                assert!(out.routed[0].mismatch().unwrap() <= 2);
            }
            other => panic!("expected tree, got {other:?}"),
        }
        // Net cells are blocked in the obstacle map.
        for c in out.routed[0].net_cells() {
            assert!(obs.is_blocked(c));
        }
    }

    #[test]
    fn multiple_clusters_share_the_grid() {
        let mut obs = open(30, 30);
        let c0 = (
            cluster(0, 2, true),
            vec![Point::new(2, 5), Point::new(12, 5)],
        );
        let c1 = (
            cluster(1, 2, true),
            vec![Point::new(2, 10), Point::new(12, 10)],
        );
        let c2 = (
            cluster(2, 3, true),
            vec![Point::new(20, 20), Point::new(27, 20), Point::new(23, 27)],
        );
        let out = route_lm_clusters(&mut obs, vec![c0, c1, c2], &FlowConfig::default());
        assert_eq!(out.routed.len(), 3);
        assert!(out.failed.is_empty());
        // Nets are pairwise disjoint.
        for i in 0..3 {
            for j in (i + 1)..3 {
                let a = out.routed[i].net_cells();
                let b = out.routed[j].net_cells();
                for c in &a {
                    assert!(!b.contains(c), "nets {i}/{j} share {c}");
                }
            }
        }
    }

    #[test]
    fn unroutable_cluster_lands_in_failed() {
        // Split the chip with a full wall; a pair straddling it fails and a
        // local pair succeeds.
        let mut grid = Grid::new(15, 15).unwrap();
        for y in 0..15 {
            grid.set_obstacle(Point::new(7, y));
        }
        let mut obs = ObsMap::new(&grid);
        let out = route_lm_clusters(
            &mut obs,
            vec![
                (
                    cluster(0, 2, true),
                    vec![Point::new(2, 7), Point::new(12, 7)],
                ),
                (
                    cluster(1, 2, true),
                    vec![Point::new(1, 1), Point::new(5, 1)],
                ),
            ],
            &FlowConfig::default(),
        );
        assert_eq!(out.failed.len(), 1);
        assert_eq!(out.routed.len(), 1);
        assert_eq!(out.routed[0].cluster.id(), ClusterId(1));
    }

    #[test]
    fn without_selection_uses_first_candidate() {
        let mut obs = open(26, 26);
        let positions = vec![
            Point::new(2, 2),
            Point::new(22, 4),
            Point::new(4, 22),
            Point::new(20, 20),
        ];
        let cfg = FlowConfig::for_variant(FlowVariant::WithoutSelection);
        let out = route_lm_clusters(&mut obs, vec![(cluster(0, 4, true), positions)], &cfg);
        assert_eq!(out.routed.len(), 1);
    }

    #[test]
    fn empty_input_is_empty_outcome() {
        let mut obs = open(8, 8);
        let out = route_lm_clusters(&mut obs, vec![], &FlowConfig::default());
        assert!(out.routed.is_empty());
        assert!(out.failed.is_empty());
    }
}
