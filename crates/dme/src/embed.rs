//! The two-phase DME embedding: bottom-up merging regions, top-down
//! merging-node placement with grid snapping and obstacle avoidance.

use crate::{SteinerTree, Topology, TreeNode, Trr};
use pacor_grid::{ObsMap, Point};

/// Where inside a merging region the top-down phase places the merging
/// node. `Closest` is the classic DME choice (nearest point to the placed
/// parent, preserving the budgeted radius); the corner/center policies
/// generate the *different merging node choices* of Fig. 3 that seed the
/// candidate-tree pool. When a policy point would overdraw the radius
/// budget to the parent, the placement falls back to the closest point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmbedPolicy {
    /// Nearest feasible point to the parent (canonical DME).
    Closest,
    /// Center of the merging region.
    Center,
    /// Corner with minimum `u`, minimum `v`.
    CornerLL,
    /// Corner with minimum `u`, maximum `v`.
    CornerLH,
    /// Corner with maximum `u`, minimum `v`.
    CornerHL,
    /// Corner with maximum `u`, maximum `v`.
    CornerHH,
}

impl EmbedPolicy {
    /// All policies, in candidate-generation order.
    pub const ALL: [EmbedPolicy; 6] = [
        EmbedPolicy::Closest,
        EmbedPolicy::Center,
        EmbedPolicy::CornerLL,
        EmbedPolicy::CornerLH,
        EmbedPolicy::CornerHL,
        EmbedPolicy::CornerHH,
    ];

    fn region_point(self, r: &Trr) -> (i64, i64) {
        match self {
            EmbedPolicy::Closest | EmbedPolicy::Center => r.center(),
            EmbedPolicy::CornerLL => (r.u_min, r.v_min),
            EmbedPolicy::CornerLH => (r.u_min, r.v_max),
            EmbedPolicy::CornerHL => (r.u_max, r.v_min),
            EmbedPolicy::CornerHH => (r.u_max, r.v_max),
        }
    }
}

/// Bottom-up merge bookkeeping for one topology node.
#[derive(Debug, Clone)]
struct MergeNode {
    region: Trr,
    /// Ideal path length from this node to every sink below, half-units.
    len: i64,
    /// Children: arena index plus assigned merge radius (half-units).
    children: Vec<(usize, i64)>,
    sink: Option<usize>,
    /// Half-units of skew introduced by odd-parity radius rounding here.
    rounding: i64,
}

/// Deferred-merge embedding builder for one cluster of sinks.
///
/// # Examples
///
/// ```
/// use pacor_dme::{balanced_bipartition, DmeBuilder};
/// use pacor_grid::Point;
///
/// let sinks = vec![Point::new(0, 0), Point::new(6, 0)];
/// let topo = balanced_bipartition(&sinks);
/// let tree = DmeBuilder::new(&sinks).embed(&topo);
/// assert_eq!(tree.mismatch(), 0); // both sinks equidistant to the root
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DmeBuilder<'a> {
    sinks: &'a [Point],
    obs: Option<&'a ObsMap>,
    policy: EmbedPolicy,
    /// Maximum loop-search radius when dodging obstacles.
    max_search_radius: u32,
}

impl<'a> DmeBuilder<'a> {
    /// Creates a builder over `sinks` with no obstacles and the canonical
    /// `Closest` policy.
    pub fn new(sinks: &'a [Point]) -> Self {
        Self {
            sinks,
            obs: None,
            policy: EmbedPolicy::Closest,
            max_search_radius: 64,
        }
    }

    /// Attaches an obstacle map; blocked merging nodes are displaced by an
    /// expanding loop search (the paper's top-down workaround).
    pub fn with_obstacles(mut self, obs: &'a ObsMap) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Selects the merging-node placement policy.
    pub fn with_policy(mut self, policy: EmbedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the obstacle loop-search radius cap.
    pub fn with_max_search_radius(mut self, r: u32) -> Self {
        self.max_search_radius = r;
        self
    }

    /// Runs both DME phases and returns the embedded tree.
    ///
    /// # Panics
    ///
    /// Panics when `topology` references a sink index outside the sink
    /// list, or when the sink list is empty.
    pub fn embed(&self, topology: &Topology) -> SteinerTree {
        self.embed_with_stats(topology).0
    }

    /// Like [`DmeBuilder::embed`], additionally returning the total
    /// radius-rounding slack accumulated across merges, in half grid
    /// units — the Lemma 1 "rounding error" that the detouring stage
    /// later eliminates. Zero means every merge radius was exact.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DmeBuilder::embed`].
    pub fn embed_with_stats(&self, topology: &Topology) -> (SteinerTree, i64) {
        assert!(!self.sinks.is_empty(), "cannot embed without sinks");
        // Phase 1: bottom-up merging regions.
        let mut arena: Vec<MergeNode> = Vec::new();
        let root = self.merge_up(topology, &mut arena);

        // Phase 2: top-down placement.
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut sink_nodes = vec![usize::MAX; self.sinks.len()];
        let root_region = arena[root].region;
        let (ru, rv) = self.policy.region_point(&root_region);
        let mut snap_slack = 0i64;
        let root_point = self.materialize(&root_region, ru, rv, &mut snap_slack);
        self.place(
            root,
            root_point,
            None,
            &arena,
            &mut nodes,
            &mut sink_nodes,
            &mut snap_slack,
        );
        let root_idx = 0;
        debug_assert!(sink_nodes.iter().all(|&s| s != usize::MAX));
        let merge_rounding: i64 = arena.iter().map(|n| n.rounding).sum();
        (
            SteinerTree::new(nodes, root_idx, sink_nodes),
            merge_rounding + snap_slack,
        )
    }

    /// Bottom-up phase; returns the arena index of the subtree's merge
    /// node.
    fn merge_up(&self, topo: &Topology, arena: &mut Vec<MergeNode>) -> usize {
        match topo {
            Topology::Leaf(i) => {
                assert!(*i < self.sinks.len(), "sink index out of range");
                arena.push(MergeNode {
                    region: Trr::from_point(self.sinks[*i]),
                    len: 0,
                    children: Vec::new(),
                    sink: Some(*i),
                    rounding: 0,
                });
                arena.len() - 1
            }
            Topology::Internal(a, b) => {
                let ia = self.merge_up(a, arena);
                let ib = self.merge_up(b, arena);
                let (ra_region, la) = (arena[ia].region, arena[ia].len);
                let (rb_region, lb) = (arena[ib].region, arena[ib].len);
                let d = ra_region.distance(&rb_region);

                let (ra, rb, len, rounding) = if (la - lb).abs() <= d {
                    // Balanced merge; round odd budgets, recording skew.
                    let num = d + lb - la;
                    let ra = num / 2;
                    let rb = d - ra;
                    let rounding = (num % 2).abs();
                    (ra, rb, la + ra, rounding)
                } else if la > lb + d {
                    // Left subtree is longer: meet on the left region and
                    // budget the full gap to the right child (to be made
                    // up by detouring the actual wires).
                    (0, la - lb, la, 0)
                } else {
                    (lb - la, 0, lb, 0)
                };

                let region = ra_region
                    .inflate(ra)
                    .intersect(&rb_region.inflate(rb))
                    .expect("radii span the inter-region gap");
                arena.push(MergeNode {
                    region,
                    len,
                    children: vec![(ia, ra), (ib, rb)],
                    sink: None,
                    rounding,
                });
                arena.len() - 1
            }
        }
    }

    /// Top-down phase: place `node` at `point`, then each child at the
    /// feasible region point chosen by the policy.
    #[allow(clippy::too_many_arguments)]
    fn place(
        &self,
        node: usize,
        point: Point,
        parent: Option<usize>,
        arena: &[MergeNode],
        nodes: &mut Vec<TreeNode>,
        sink_nodes: &mut [usize],
        snap_slack: &mut i64,
    ) {
        let idx = nodes.len();
        nodes.push(TreeNode {
            point,
            parent,
            sink: arena[node].sink,
        });
        if let Some(s) = arena[node].sink {
            sink_nodes[s] = idx;
        }
        let trr = Trr::from_point(point);
        let (pu, pv) = (trr.u_min, trr.v_min);
        for &(child, radius) in &arena[node].children {
            let region = arena[child].region;
            let target = if arena[child].sink.is_some() {
                // Sinks are fixed valve positions: place verbatim.
                self.sinks[arena[child].sink.expect("leaf has sink")]
            } else {
                // Policy point if it stays within the radius budget, else
                // the closest point of the region to the parent.
                let (qu, qv) = {
                    let (cu, cv) = match self.policy {
                        EmbedPolicy::Closest => region.closest_to(pu, pv),
                        p => {
                            let cand = p.region_point(&region);
                            if region
                                .distance_to(pu, pv)
                                .max((cand.0 - pu).abs().max((cand.1 - pv).abs()))
                                <= radius
                            {
                                cand
                            } else {
                                region.closest_to(pu, pv)
                            }
                        }
                    };
                    (cu, cv)
                };
                self.materialize(&region, qu, qv, snap_slack)
            };
            self.place(
                child,
                target,
                Some(idx),
                arena,
                nodes,
                sink_nodes,
                snap_slack,
            );
        }
    }

    /// Converts a rotated half-unit point to a concrete free grid cell:
    /// snap to grid (Lemma 1 rounding), then loop-search around blockages.
    fn materialize(&self, region: &Trr, u: i64, v: i64, snap_slack: &mut i64) -> Point {
        let (p, err) = region.snap_into(u, v);
        *snap_slack += err;
        match self.obs {
            None => p,
            Some(obs) => {
                if !obs.is_blocked(p) {
                    return p;
                }
                // Expanding square loops (the paper's encircling loops).
                for r in 1..=self.max_search_radius as i32 {
                    let mut ring: Vec<Point> = Vec::new();
                    for dx in -r..=r {
                        ring.push(Point::new(p.x + dx, p.y - r));
                        ring.push(Point::new(p.x + dx, p.y + r));
                    }
                    for dy in (-r + 1)..r {
                        ring.push(Point::new(p.x - r, p.y + dy));
                        ring.push(Point::new(p.x + r, p.y + dy));
                    }
                    // Deterministic preference: closest Manhattan first.
                    ring.sort_by_key(|q| (p.manhattan(*q), q.x, q.y));
                    if let Some(q) = ring.into_iter().find(|q| !obs.is_blocked(*q)) {
                        return q;
                    }
                }
                p // fully enclosed: return the snap; routing will fail loudly
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balanced_bipartition;
    use pacor_grid::Grid;

    fn embed_simple(sinks: &[Point]) -> SteinerTree {
        let topo = balanced_bipartition(sinks);
        DmeBuilder::new(sinks).embed(&topo)
    }

    #[test]
    fn two_sinks_even_distance_zero_mismatch() {
        let t = embed_simple(&[Point::new(0, 0), Point::new(6, 0)]);
        assert_eq!(t.mismatch(), 0);
        assert_eq!(t.full_path_length(0), 3);
        assert_eq!(t.full_path_length(1), 3);
    }

    #[test]
    fn two_sinks_odd_distance_snaps_within_one() {
        // Manhattan distance 5: the exact midpoint is off-grid (Lemma 1).
        let t = embed_simple(&[Point::new(0, 0), Point::new(5, 0)]);
        assert!(
            t.mismatch() <= 1,
            "mismatch {} exceeds rounding",
            t.mismatch()
        );
        assert_eq!(t.full_path_length(0) + t.full_path_length(1), 5);
    }

    #[test]
    fn symmetric_quad_is_perfectly_matched() {
        let t = embed_simple(&[
            Point::new(2, 2),
            Point::new(10, 2),
            Point::new(2, 10),
            Point::new(10, 10),
        ]);
        assert_eq!(t.mismatch(), 0);
        assert_eq!(t.sink_count(), 4);
        // Root should land at the center of symmetry.
        assert_eq!(t.root(), Point::new(6, 6));
    }

    #[test]
    fn asymmetric_sinks_balance_by_radius() {
        // Three sinks; the far one gets a longer branch from the merge
        // node, which DME balances via radii.
        let sinks = [Point::new(0, 0), Point::new(4, 0), Point::new(20, 0)];
        let t = embed_simple(&sinks);
        // ΔL small (rounding only, ≤ 2 from two merges).
        assert!(t.mismatch() <= 2, "mismatch {}", t.mismatch());
    }

    #[test]
    fn sink_positions_are_preserved() {
        let sinks = [
            Point::new(1, 7),
            Point::new(9, 3),
            Point::new(4, 12),
            Point::new(14, 8),
        ];
        let t = embed_simple(&sinks);
        for (i, &s) in sinks.iter().enumerate() {
            assert_eq!(t.sink_point(i), s, "sink {i} moved");
        }
    }

    #[test]
    fn detour_case_longer_subtree() {
        // Cluster where one pair is far apart and the other adjacent: the
        // short pair's subtree needs a detour budget; merging must not
        // panic and mismatch stays bounded by rounding.
        let sinks = [
            Point::new(0, 0),
            Point::new(30, 0),
            Point::new(15, 1),
            Point::new(15, 2),
        ];
        let t = embed_simple(&sinks);
        assert_eq!(t.sink_count(), 4);
        // Mismatch reflects the unbalanced geometry; the *budgeted*
        // lengths are equal but embedding distance can only under-deliver
        // (fixed later by wire detours). Sanity: mismatch is bounded by
        // the span of the cluster.
        assert!(t.mismatch() <= 31);
    }

    #[test]
    fn obstacle_displaces_merging_node() {
        let sinks = [Point::new(0, 4), Point::new(8, 4)];
        let mut grid = Grid::new(16, 16).unwrap();
        grid.set_obstacle(Point::new(4, 4)); // exact midpoint
        let obs = ObsMap::new(&grid);
        let topo = balanced_bipartition(&sinks);
        let t = DmeBuilder::new(&sinks).with_obstacles(&obs).embed(&topo);
        assert!(!obs.is_blocked(t.root()), "root must dodge the obstacle");
        assert!(t.root().manhattan(Point::new(4, 4)) <= 2);
    }

    #[test]
    fn policies_produce_valid_trees() {
        let sinks = [
            Point::new(0, 0),
            Point::new(12, 2),
            Point::new(3, 9),
            Point::new(10, 11),
        ];
        let topo = balanced_bipartition(&sinks);
        for policy in EmbedPolicy::ALL {
            let t = DmeBuilder::new(&sinks).with_policy(policy).embed(&topo);
            assert_eq!(t.sink_count(), 4, "{policy:?}");
            for (i, &s) in sinks.iter().enumerate() {
                assert_eq!(t.sink_point(i), s, "{policy:?} sink {i}");
            }
            // Tree must be connected: every full path ends at the root.
            for i in 0..4 {
                let path = t.full_path_nodes(i);
                assert_eq!(*path.last().unwrap(), t.root_index());
            }
        }
    }

    #[test]
    fn policies_differ_in_embedding() {
        // A diagonal pair has a genuine (non-degenerate) merging segment
        // from (0, 8) to (8, 0); axis-collinear pairs collapse to a point.
        let sinks = [Point::new(0, 0), Point::new(8, 8)];
        let topo = balanced_bipartition(&sinks);
        let roots: std::collections::HashSet<Point> = EmbedPolicy::ALL
            .iter()
            .map(|&p| DmeBuilder::new(&sinks).with_policy(p).embed(&topo).root())
            .collect();
        assert!(
            roots.len() >= 2,
            "policies should explore the merging region"
        );
    }

    #[test]
    fn rounding_stats_reflect_parity() {
        // Even distance: zero rounding. Odd distance: one half-unit.
        let even = [Point::new(0, 0), Point::new(6, 0)];
        let topo = balanced_bipartition(&even);
        let (_, r) = DmeBuilder::new(&even).embed_with_stats(&topo);
        assert_eq!(r, 0);
        let odd = [Point::new(0, 0), Point::new(5, 0)];
        let topo = balanced_bipartition(&odd);
        let (_, r) = DmeBuilder::new(&odd).embed_with_stats(&topo);
        assert!(r > 0, "odd distance must round (Lemma 1)");
    }

    #[test]
    #[should_panic(expected = "cannot embed without sinks")]
    fn empty_sinks_panics() {
        let topo = Topology::Leaf(0);
        DmeBuilder::new(&[]).embed(&topo);
    }
}
