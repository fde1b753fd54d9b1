//! MST-based routing of clusters without the length-matching constraint
//! (paper Section 3, "MST-based cluster routing").

use crate::{FlowConfig, RoutedCluster, RoutedKind};
use pacor_grid::{GridPath, ObsMap, Point};
use pacor_route::{AStar, AStarScratch};
use pacor_valves::Cluster;
use std::collections::VecDeque;

/// Routes one ordinary cluster: valves are connected in minimum-spanning-
/// tree order, each new valve joining the already-routed net by
/// point-to-path A\* (which subsumes the point-to-point and path-to-path
/// modes of the paper). Successful paths are blocked in `obs`.
///
/// Returns `None` — with `obs` untouched — when some valve cannot reach
/// the net; the caller de-clusters and retries.
pub fn route_mst_cluster(
    obs: &mut ObsMap,
    cluster: &Cluster,
    positions: &[Point],
) -> Option<RoutedCluster> {
    let mut scratch = AStarScratch::new();
    route_mst_owned(obs, cluster.clone(), positions.to_vec(), &mut scratch).ok()
}

/// Owned-input worker behind [`route_mst_cluster`]: consumes the cluster
/// and positions (handing them back on failure, so the batch loop never
/// clones) and reuses the caller's A\* scratch across clusters.
fn route_mst_owned(
    obs: &mut ObsMap,
    cluster: Cluster,
    positions: Vec<Point>,
    scratch: &mut AStarScratch,
) -> Result<RoutedCluster, (Cluster, Vec<Point>)> {
    assert_eq!(cluster.len(), positions.len(), "positions per member");
    if cluster.len() == 1 {
        // No internal net; the valve cell itself is the terminal. Block it
        // so other nets cannot run through the valve.
        obs.block(positions[0]);
        return Ok(RoutedCluster {
            cluster,
            member_positions: positions,
            kind: RoutedKind::Singleton,
            escape: None,
        });
    }

    // Prim order: start at valve 0, repeatedly take the valve closest to
    // the connected set (by Manhattan distance).
    let n = positions.len();
    let mut in_net = vec![false; n];
    in_net[0] = true;
    let mut order: Vec<usize> = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let next = (0..n)
            .filter(|&i| !in_net[i])
            .min_by_key(|&i| {
                (0..n)
                    .filter(|&j| in_net[j])
                    .map(|j| positions[i].manhattan(positions[j]))
                    .min()
                    .unwrap_or(u64::MAX)
            })
            .expect("some valve remains");
        in_net[next] = true;
        order.push(next);
    }

    let cp = obs.checkpoint();
    let mut net_cells: Vec<Point> = vec![positions[0]];
    let mut paths: Vec<GridPath> = Vec::new();
    for &i in &order {
        match AStar::new(obs).route_with_scratch(&[positions[i]], &net_cells, scratch) {
            Some(p) => {
                obs.block_all(p.cells().iter().copied());
                net_cells.extend(p.cells().iter().copied());
                paths.push(p);
            }
            None => {
                obs.rollback(cp);
                return Err((cluster, positions));
            }
        }
    }
    // Ensure the lone starting valve cell is blocked even when every path
    // attached elsewhere.
    obs.block(positions[0]);

    Ok(RoutedCluster {
        cluster,
        member_positions: positions,
        kind: RoutedKind::Mst { paths },
        escape: None,
    })
}

/// Routes a batch of ordinary clusters one by one in FIFO order, with
/// de-clustering on failure: a cluster that fails is split in half
/// (recursively, down to singletons, which always succeed), and both
/// halves rejoin the back of the queue. Cluster ids of split-off parts
/// are assigned from `next_id` upward.
///
/// No `config` field changes MST routing; the parameter keeps the
/// stage signatures uniform.
pub fn route_ordinary_clusters(
    obs: &mut ObsMap,
    clusters: Vec<(Cluster, Vec<Point>)>,
    next_id: &mut u32,
    _config: &FlowConfig,
) -> Vec<RoutedCluster> {
    pacor_obs::counter_add("mst.clusters", clusters.len() as u64);
    let batch = clusters.len() as u64;
    let mut queue: VecDeque<(Cluster, Vec<Point>)> = clusters.into();
    let mut out = Vec::new();
    let mut scratch = AStarScratch::new();
    while let Some((cluster, positions)) = queue.pop_front() {
        match route_mst_owned(obs, cluster, positions, &mut scratch) {
            Ok(rc) => {
                pacor_obs::emit(pacor_obs::Event::MstCommit {
                    cluster: rc.cluster.id().0,
                    edges: mst_edges(&rc) as u32,
                    length: rc.total_length(),
                });
                out.push(rc)
            }
            Err((cluster, positions)) => split_into(&mut queue, cluster, positions, next_id),
        }
    }
    if pacor_obs::recording() {
        let committed = out.len() as u64;
        pacor_obs::emit(pacor_obs::Event::MstProgress {
            clusters: batch,
            committed,
            splits: committed.saturating_sub(batch),
            edges: out.iter().map(mst_edges).sum(),
        });
    }
    out
}

/// Splits a failed cluster in half and appends both halves (with their
/// member positions) to `queue`. Panics on singletons, which cannot fail.
fn split_into(
    queue: &mut VecDeque<(Cluster, Vec<Point>)>,
    cluster: Cluster,
    positions: Vec<Point>,
    next_id: &mut u32,
) {
    let parent = cluster.id().0;
    match cluster.split(*next_id) {
        Some((a, b)) => {
            pacor_obs::emit(pacor_obs::Event::MstSplit {
                parent,
                low: *next_id,
                high: *next_id + 1,
            });
            *next_id += 2;
            let pos_of = |c: &Cluster| {
                c.members()
                    .iter()
                    .map(|m| {
                        let k = cluster
                            .members()
                            .iter()
                            .position(|x| x == m)
                            .expect("member of parent");
                        positions[k]
                    })
                    .collect::<Vec<_>>()
            };
            let (pa, pb) = (pos_of(&a), pos_of(&b));
            queue.extend([(a, pa), (b, pb)]);
        }
        None => {
            // A singleton can never fail above; defensive fallback.
            unreachable!("singleton cluster routing cannot fail");
        }
    }
}

/// Routed MST tree edges of `rc` (0 for other kinds).
fn mst_edges(rc: &RoutedCluster) -> u64 {
    match &rc.kind {
        RoutedKind::Mst { paths } => paths.len() as u64,
        _ => 0,
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

    fn cluster(n: u32) -> Cluster {
        Cluster::new(ClusterId(0), (0..n).map(ValveId).collect(), false)
    }

    #[test]
    fn singleton_blocks_valve_cell() {
        let mut obs = open(6, 6);
        let rc = route_mst_cluster(&mut obs, &cluster(1), &[Point::new(3, 3)]).unwrap();
        assert!(matches!(rc.kind, RoutedKind::Singleton));
        assert!(obs.is_blocked(Point::new(3, 3)));
    }

    #[test]
    fn pair_routes_direct() {
        let mut obs = open(10, 10);
        let rc = route_mst_cluster(&mut obs, &cluster(2), &[Point::new(1, 1), Point::new(7, 1)])
            .unwrap();
        assert_eq!(rc.total_length(), 6);
        for c in rc.net_cells() {
            assert!(obs.is_blocked(c));
        }
    }

    #[test]
    fn steiner_sharing_via_point_to_path() {
        // The third valve may connect anywhere on the existing *path*, so
        // the total can never exceed the plain MST bound (7 + 7 = 14) and
        // often beats it by attaching mid-path.
        let mut obs = open(12, 12);
        let rc = route_mst_cluster(
            &mut obs,
            &cluster(3),
            &[Point::new(1, 5), Point::new(9, 5), Point::new(5, 8)],
        )
        .unwrap();
        assert!(rc.total_length() <= 14, "length {}", rc.total_length());
        // The second connection terminates on the first path's cells
        // (point-to-path), not necessarily on a valve.
        match &rc.kind {
            RoutedKind::Mst { paths } => {
                assert_eq!(paths.len(), 2);
                assert!(paths[0].contains(paths[1].target()));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn blocked_cluster_returns_none_and_restores() {
        let mut grid = Grid::new(9, 9).unwrap();
        for y in 0..9 {
            grid.set_obstacle(Point::new(4, y));
        }
        let mut obs = ObsMap::new(&grid);
        let before = obs.blocked_count();
        let r = route_mst_cluster(&mut obs, &cluster(2), &[Point::new(1, 1), Point::new(7, 1)]);
        assert!(r.is_none());
        assert_eq!(obs.blocked_count(), before);
    }

    #[test]
    fn declustering_splits_unroutable() {
        let mut grid = Grid::new(9, 9).unwrap();
        for y in 0..9 {
            grid.set_obstacle(Point::new(4, y));
        }
        let mut obs = ObsMap::new(&grid);
        let mut next_id = 10;
        let out = route_ordinary_clusters(
            &mut obs,
            vec![(cluster(2), vec![Point::new(1, 1), Point::new(7, 1)])],
            &mut next_id,
            &FlowConfig::default(),
        );
        // Split into two singletons.
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|rc| matches!(rc.kind, RoutedKind::Singleton)));
        assert_eq!(next_id, 12);
    }

    #[test]
    fn batch_routes_in_order() {
        let mut obs = open(14, 14);
        let mut next_id = 5;
        let out = route_ordinary_clusters(
            &mut obs,
            vec![
                (
                    Cluster::new(ClusterId(0), vec![ValveId(0), ValveId(1)], false),
                    vec![Point::new(1, 1), Point::new(5, 1)],
                ),
                (
                    Cluster::new(ClusterId(1), vec![ValveId(2)], false),
                    vec![Point::new(10, 10)],
                ),
            ],
            &mut next_id,
            &FlowConfig::default(),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(next_id, 5);
    }

    #[test]
    #[should_panic(expected = "positions per member")]
    fn mismatched_positions_panic() {
        let mut obs = open(6, 6);
        route_mst_cluster(&mut obs, &cluster(2), &[Point::new(1, 1)]);
    }
}
