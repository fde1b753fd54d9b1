//! The valve compatibility graph.

use crate::{Valve, ValveId};
use serde::{Deserialize, Serialize};

/// Undirected compatibility graph over a set of valves.
///
/// Node `i` is the valve at index `i` of the construction order; an edge
/// `(i, j)` means the valves' activation sequences are compatible
/// (Definition 4) and hence may share a control pin.
///
/// # Examples
///
/// ```
/// use pacor_valves::{CompatGraph, Valve, ValveId};
/// use pacor_grid::Point;
///
/// let valves = vec![
///     Valve::new(ValveId(0), Point::new(0, 0), "0X".parse()?),
///     Valve::new(ValveId(1), Point::new(1, 0), "01".parse()?),
///     Valve::new(ValveId(2), Point::new(2, 0), "10".parse()?),
/// ];
/// let g = CompatGraph::from_valves(&valves);
/// assert!(g.are_compatible(ValveId(0), ValveId(1)));
/// assert!(!g.are_compatible(ValveId(1), ValveId(2)));
/// # Ok::<(), pacor_valves::ParseSequenceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompatGraph {
    ids: Vec<ValveId>,
    /// Row-major upper-triangular adjacency, indexed by position in `ids`.
    adj: Vec<bool>,
    n: usize,
}

impl CompatGraph {
    /// Builds the graph from pairwise sequence compatibility.
    pub fn from_valves(valves: &[Valve]) -> Self {
        let n = valves.len();
        let mut adj = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                adj[i * n + j] = i != j && valves[i].is_compatible(&valves[j]);
            }
        }
        Self {
            ids: valves.iter().map(|v| v.id()).collect(),
            adj,
            n,
        }
    }

    /// Builds the graph from an explicit edge list (the paper's problem
    /// statement supplies "the valve compatibility information, i.e.,
    /// pairs of valves that are compatible with each other").
    pub fn from_pairs(ids: Vec<ValveId>, pairs: &[(ValveId, ValveId)]) -> Self {
        let n = ids.len();
        let pos = |id: ValveId| ids.iter().position(|x| *x == id);
        let mut adj = vec![false; n * n];
        for &(a, b) in pairs {
            if let (Some(i), Some(j)) = (pos(a), pos(b)) {
                if i != j {
                    adj[i * n + j] = true;
                    adj[j * n + i] = true;
                }
            }
        }
        Self { ids, adj, n }
    }

    /// Number of valves (nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for the empty graph.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The valve ids in node order.
    #[inline]
    pub fn ids(&self) -> &[ValveId] {
        &self.ids
    }

    fn pos(&self, id: ValveId) -> Option<usize> {
        self.ids.iter().position(|x| *x == id)
    }

    /// Returns `true` when the two valves are compatible. Unknown ids are
    /// never compatible.
    pub fn are_compatible(&self, a: ValveId, b: ValveId) -> bool {
        match (self.pos(a), self.pos(b)) {
            (Some(i), Some(j)) => i != j && self.adj[i * self.n + j],
            _ => false,
        }
    }

    /// Degree (number of compatible partners) of a valve.
    pub fn degree(&self, id: ValveId) -> usize {
        match self.pos(id) {
            Some(i) => (0..self.n).filter(|&j| self.adj[i * self.n + j]).count(),
            None => 0,
        }
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().filter(|b| **b).count() / 2
    }

    /// Returns `true` when every pair in `members` is compatible — the
    /// validity condition for a cluster.
    pub fn is_clique(&self, members: &[ValveId]) -> bool {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                if !self.are_compatible(members[i], members[j]) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacor_grid::Point;

    fn valves(seqs: &[&str]) -> Vec<Valve> {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| {
                Valve::new(
                    ValveId(i as u32),
                    Point::new(i as i32, 0),
                    s.parse().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn from_valves_edges() {
        let g = CompatGraph::from_valves(&valves(&["0X", "01", "10"]));
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 1);
        assert!(g.are_compatible(ValveId(0), ValveId(1)));
        assert!(!g.are_compatible(ValveId(0), ValveId(2)));
    }

    #[test]
    fn self_loops_excluded() {
        let g = CompatGraph::from_valves(&valves(&["XX"]));
        assert!(!g.are_compatible(ValveId(0), ValveId(0)));
        assert_eq!(g.degree(ValveId(0)), 0);
    }

    #[test]
    fn from_pairs_symmetric() {
        let ids: Vec<_> = (0..3).map(ValveId).collect();
        let g = CompatGraph::from_pairs(ids, &[(ValveId(0), ValveId(2))]);
        assert!(g.are_compatible(ValveId(0), ValveId(2)));
        assert!(g.are_compatible(ValveId(2), ValveId(0)));
        assert!(!g.are_compatible(ValveId(0), ValveId(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn from_pairs_ignores_unknown() {
        let g = CompatGraph::from_pairs(vec![ValveId(0)], &[(ValveId(0), ValveId(9))]);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.are_compatible(ValveId(0), ValveId(9)));
    }

    #[test]
    fn clique_check() {
        let g = CompatGraph::from_valves(&valves(&["XX", "0X", "X1", "10"]));
        assert!(g.is_clique(&[ValveId(0), ValveId(1)]));
        assert!(g.is_clique(&[ValveId(0), ValveId(1), ValveId(2)]));
        // v1="0X" vs v3="10" clash at step 0.
        assert!(!g.is_clique(&[ValveId(1), ValveId(3)]));
        // Empty and singleton member lists are trivially cliques.
        assert!(g.is_clique(&[]));
        assert!(g.is_clique(&[ValveId(2)]));
    }

    #[test]
    fn degree_counts_partners() {
        let g = CompatGraph::from_valves(&valves(&["XX", "00", "11"]));
        assert_eq!(g.degree(ValveId(0)), 2);
        assert_eq!(g.degree(ValveId(1)), 1);
        assert_eq!(g.degree(ValveId(9)), 0);
    }
}
