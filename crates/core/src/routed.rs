//! Routed clusters — the shared state the flow stages hand around.

use pacor_dme::SteinerTree;
use pacor_flow::{EscapeSource, SourceKind};
use pacor_grid::{GridLen, GridPath, Point};
use pacor_valves::{Cluster, ValveId};

/// How a cluster's internal net was realized.
#[derive(Debug, Clone)]
pub enum RoutedKind {
    /// Length-matching cluster of ≥ 3 valves: a DME Steiner tree whose
    /// edges were wired by the negotiation router. `edge_paths[i]` wires
    /// `tree.edge_indices()[i]`, oriented child → parent.
    LmTree {
        /// The selected candidate Steiner tree.
        tree: SteinerTree,
        /// Wired tree edges, aligned with [`SteinerTree::edge_indices`].
        edge_paths: Vec<GridPath>,
    },
    /// Length-matching pair: the direct valve-to-valve connection, split
    /// at its midpoint where the escape channel T-joins (Section 5 (2)).
    LmPair {
        /// Junction cell (the midpoint of the original path).
        junction: Point,
        /// First valve's half, oriented valve → junction.
        half_a: GridPath,
        /// Second valve's half, oriented valve → junction.
        half_b: GridPath,
    },
    /// Unconstrained multi-valve cluster: MST edges wired by A\*.
    Mst {
        /// Wired MST connections (point-to-point or point-to-path).
        paths: Vec<GridPath>,
    },
    /// Single valve; no internal net.
    Singleton,
}

/// A cluster with its internal net (and, once escape routing has run, its
/// connection to a control pin).
#[derive(Debug, Clone)]
pub struct RoutedCluster {
    /// The valve cluster.
    pub cluster: Cluster,
    /// Member valve positions, aligned with `cluster.members()`.
    pub member_positions: Vec<Point>,
    /// Internal net realization.
    pub kind: RoutedKind,
    /// Escape path (source cell → pin, inclusive) and the pin, when escape
    /// routing succeeded.
    pub escape: Option<(GridPath, Point)>,
}

impl RoutedCluster {
    /// The wired paths of the internal net (none for a singleton), in a
    /// fixed order; cells shared by two paths appear in both.
    pub(crate) fn net_paths(&self) -> impl Iterator<Item = &GridPath> {
        let (paths, halves): (&[GridPath], [Option<&GridPath>; 2]) = match &self.kind {
            RoutedKind::LmTree { edge_paths, .. } => (edge_paths, [None, None]),
            RoutedKind::LmPair { half_a, half_b, .. } => (&[], [Some(half_a), Some(half_b)]),
            RoutedKind::Mst { paths } => (paths, [None, None]),
            RoutedKind::Singleton => (&[], [None, None]),
        };
        paths.iter().chain(halves.into_iter().flatten())
    }

    /// All grid cells occupied by the internal net (escape excluded).
    pub fn net_cells(&self) -> Vec<Point> {
        let mut cells: Vec<Point> = match self.kind {
            RoutedKind::Singleton => self.member_positions.clone(),
            _ => self
                .net_paths()
                .flat_map(|p| p.cells().iter().copied())
                .collect(),
        };
        cells.sort();
        cells.dedup();
        cells
    }

    /// The escape-routing source for this cluster (Section 5 cases).
    pub fn escape_source(&self) -> EscapeSource {
        match &self.kind {
            RoutedKind::LmTree { tree, .. } => EscapeSource::at(SourceKind::TreeRoot, tree.root()),
            RoutedKind::LmPair { half_a, half_b, .. } => {
                // The midpoint is preferred, but a tightly folded pair can
                // enclose its own midpoint with its own cells; offer the
                // cells within ±2 of the midpoint as alternative taps (the
                // detour stage re-balances the ±2k of induced mismatch).
                // Valve endpoints are never taps.
                let mut cells = Vec::new();
                let mut tap_costs = Vec::new();
                for k in 0..=2usize {
                    for half in [half_a, half_b] {
                        let c = half.cells();
                        // c runs valve → junction; offset k back from the
                        // junction end.
                        if c.len() >= k + 2 {
                            let cell = c[c.len() - 1 - k];
                            if !cells.contains(&cell) {
                                cells.push(cell);
                                // Tier k: the flow may tap k cells off the
                                // midpoint only when every closer tap is
                                // walled in (each step costs 2 of induced
                                // mismatch the detour stage must repair).
                                tap_costs.push(k as i64);
                            }
                        }
                    }
                }
                EscapeSource {
                    kind: SourceKind::PathMidpoint,
                    cells,
                    tap_costs,
                }
            }
            RoutedKind::Mst { .. } => EscapeSource {
                kind: SourceKind::AnyPathPoint,
                cells: self.net_cells(),
                tap_costs: Vec::new(),
            },
            RoutedKind::Singleton => {
                EscapeSource::at(SourceKind::SingleValve, self.member_positions[0])
            }
        }
    }

    /// Escape channel length (0 when escape has not run / failed).
    pub fn escape_length(&self) -> GridLen {
        self.escape.as_ref().map(|(p, _)| p.len()).unwrap_or(0)
    }

    /// Routed channel length from each member valve to the control pin,
    /// aligned with `cluster.members()`. `None` for kinds where the
    /// notion is per-cluster rather than per-valve (MST / singleton
    /// clusters have no length-matching constraint to check).
    pub fn member_lengths(&self) -> Option<Vec<GridLen>> {
        let esc = self.escape_length();
        match &self.kind {
            RoutedKind::LmTree { tree, edge_paths } => {
                // Edges are (child, parent): the child node keys its edge.
                let mut edge_of_child = vec![usize::MAX; tree.nodes().len()];
                for (i, (child, _)) in tree.edge_indices().into_iter().enumerate() {
                    edge_of_child[child] = i;
                }
                let mut out = Vec::with_capacity(tree.sink_count());
                for sink in 0..tree.sink_count() {
                    let nodes = tree.full_path_nodes(sink);
                    let mut len = esc;
                    for w in nodes.windows(2) {
                        len += edge_paths[edge_of_child[w[0]]].len();
                    }
                    out.push(len);
                }
                Some(out)
            }
            RoutedKind::LmPair { half_a, half_b, .. } => {
                Some(vec![half_a.len() + esc, half_b.len() + esc])
            }
            _ => None,
        }
    }

    /// Length mismatch `max − min` over member channel lengths, when the
    /// cluster carries the length-matching constraint.
    pub fn mismatch(&self) -> Option<GridLen> {
        let lens = self.member_lengths()?;
        let max = *lens.iter().max()?;
        let min = *lens.iter().min()?;
        Some(max - min)
    }

    /// Returns `true` when the cluster is length-matched within `delta`.
    /// Unconstrained clusters are vacuously unmatched (they don't count
    /// toward the paper's "#Matched Clusters").
    pub fn is_matched(&self, delta: GridLen) -> bool {
        matches!(self.mismatch(), Some(m) if m <= delta)
    }

    /// Total channel length: internal net plus escape, in grid units.
    pub fn total_length(&self) -> GridLen {
        let internal: GridLen = match &self.kind {
            RoutedKind::LmTree { edge_paths, .. } => edge_paths.iter().map(|p| p.len()).sum(),
            RoutedKind::LmPair { half_a, half_b, .. } => half_a.len() + half_b.len(),
            RoutedKind::Mst { paths } => paths.iter().map(|p| p.len()).sum(),
            RoutedKind::Singleton => 0,
        };
        internal + self.escape_length()
    }

    /// Returns `true` when every member valve is connected to a pin.
    pub fn is_complete(&self) -> bool {
        self.escape.is_some()
    }

    /// Member valve ids.
    pub fn members(&self) -> &[ValveId] {
        self.cluster.members()
    }

    /// Records a committed escape, re-splitting a pair's halves when the
    /// escape tapped the net off-midpoint (the junction moves to the tap
    /// cell; the detour stage re-balances the halves afterwards).
    ///
    /// # Panics
    ///
    /// Panics when a pair escape starts on a cell that is not on the
    /// pair's path — the escape solver guarantees it starts on a source
    /// cell.
    pub fn commit_escape(&mut self, path: GridPath, pin: Point) {
        if let RoutedKind::LmPair {
            junction,
            half_a,
            half_b,
        } = &mut self.kind
        {
            let tap = path.source();
            if tap != *junction {
                // Rebuild the full valve-to-valve path and re-split at the
                // tap. Halves run valve → junction, so the full path is
                // half_a forward plus half_b reversed.
                let mut full = half_a.cells().to_vec();
                let mut rev = half_b.cells().to_vec();
                rev.reverse();
                full.extend_from_slice(&rev[1..]);
                let at = full
                    .iter()
                    .position(|&c| c == tap)
                    .expect("pair escape starts on the pair's path");
                let new_a = GridPath::new(full[..=at].to_vec()).expect("prefix connected");
                let mut tail = full[at..].to_vec();
                tail.reverse();
                let new_b = GridPath::new(tail).expect("suffix connected");
                *junction = tap;
                *half_a = new_a;
                *half_b = new_b;
            }
        }
        self.escape = Some((path, pin));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacor_valves::ClusterId;

    fn pair_cluster() -> RoutedCluster {
        // Valves at (0,0) and (4,0); straight path; junction (2,0).
        let full: Vec<Point> = (0..=4).map(|x| Point::new(x, 0)).collect();
        let half_a = GridPath::new(full[..=2].to_vec()).unwrap();
        let mut bcells = full[2..].to_vec();
        bcells.reverse();
        let half_b = GridPath::new(bcells).unwrap();
        RoutedCluster {
            cluster: Cluster::new(ClusterId(0), vec![ValveId(0), ValveId(1)], true),
            member_positions: vec![Point::new(0, 0), Point::new(4, 0)],
            kind: RoutedKind::LmPair {
                junction: Point::new(2, 0),
                half_a,
                half_b,
            },
            escape: Some((
                GridPath::new(vec![Point::new(2, 0), Point::new(2, 1), Point::new(2, 2)]).unwrap(),
                Point::new(2, 2),
            )),
        }
    }

    #[test]
    fn pair_lengths_and_match() {
        let rc = pair_cluster();
        assert_eq!(rc.member_lengths(), Some(vec![4, 4]));
        assert_eq!(rc.mismatch(), Some(0));
        assert!(rc.is_matched(0));
        assert_eq!(rc.total_length(), 4 + 2);
        assert!(rc.is_complete());
    }

    #[test]
    fn pair_escape_source_prefers_junction_with_fallback_taps() {
        let rc = pair_cluster();
        let src = rc.escape_source();
        assert_eq!(src.kind, SourceKind::PathMidpoint);
        // The junction leads; nearby path cells follow as alternate taps;
        // valve endpoints are excluded.
        assert_eq!(src.cells[0], Point::new(2, 0));
        assert!(src.cells.contains(&Point::new(1, 0)));
        assert!(src.cells.contains(&Point::new(3, 0)));
        assert!(!src.cells.contains(&Point::new(0, 0)));
        assert!(!src.cells.contains(&Point::new(4, 0)));
    }

    #[test]
    fn commit_escape_retaps_off_midpoint() {
        let mut rc = pair_cluster();
        rc.escape = None;
        // Escape taps one cell east of the junction.
        let esc = GridPath::new(vec![Point::new(3, 0), Point::new(3, 1)]).unwrap();
        rc.commit_escape(esc, Point::new(3, 1));
        match &rc.kind {
            RoutedKind::LmPair {
                junction,
                half_a,
                half_b,
            } => {
                assert_eq!(*junction, Point::new(3, 0));
                assert_eq!(half_a.len(), 3);
                assert_eq!(half_b.len(), 1);
                assert_eq!(half_a.target(), *junction);
                assert_eq!(half_b.target(), *junction);
            }
            _ => unreachable!(),
        }
        // Lengths now reflect the new split (escape len 1 added to both).
        assert_eq!(rc.member_lengths(), Some(vec![4, 2]));
    }

    #[test]
    fn singleton_accounting() {
        let rc = RoutedCluster {
            cluster: Cluster::new(ClusterId(1), vec![ValveId(7)], false),
            member_positions: vec![Point::new(3, 3)],
            kind: RoutedKind::Singleton,
            escape: None,
        };
        assert_eq!(rc.total_length(), 0);
        assert_eq!(rc.mismatch(), None);
        assert!(!rc.is_matched(10));
        assert!(!rc.is_complete());
        assert_eq!(rc.net_cells(), vec![Point::new(3, 3)]);
        assert_eq!(rc.escape_source().kind, SourceKind::SingleValve);
    }

    #[test]
    fn mst_source_covers_all_cells() {
        let rc = RoutedCluster {
            cluster: Cluster::new(ClusterId(2), vec![ValveId(0), ValveId(1)], false),
            member_positions: vec![Point::new(0, 0), Point::new(2, 0)],
            kind: RoutedKind::Mst {
                paths: vec![GridPath::new(vec![
                    Point::new(0, 0),
                    Point::new(1, 0),
                    Point::new(2, 0),
                ])
                .unwrap()],
            },
            escape: None,
        };
        let src = rc.escape_source();
        assert_eq!(src.kind, SourceKind::AnyPathPoint);
        assert_eq!(src.cells.len(), 3);
        assert_eq!(rc.total_length(), 2);
    }

    #[test]
    fn net_cells_deduplicates() {
        let rc = pair_cluster();
        let cells = rc.net_cells();
        // Junction is shared by both halves but appears once.
        assert_eq!(cells.len(), 5);
    }
}
