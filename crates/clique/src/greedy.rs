//! Greedy clique construction.

use crate::{CliqueSolution, WeightedGraph};

/// Greedy MWCP constructor: repeatedly add the feasible node with the
/// largest positive marginal gain.
///
/// Used as the warm start of [`BitBranchAndBound`](crate::BitBranchAndBound)
/// and as the first phase of [`TabuLocalSearch`](crate::TabuLocalSearch).
/// Deterministic: ties break toward the smaller node index.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

impl Greedy {
    /// Builds a maximal clique greedily by weight gain.
    pub fn solve(self, graph: &WeightedGraph) -> CliqueSolution {
        let n = graph.len();
        let mut clique: Vec<usize> = Vec::new();
        let mut candidates: Vec<usize> = (0..n).collect();

        loop {
            let mut best: Option<(usize, f64)> = None;
            for &v in &candidates {
                let gain = graph.marginal_gain(&clique, v);
                let better = match best {
                    None => gain > 0.0,
                    Some((_, bg)) => gain > bg,
                };
                if better {
                    best = Some((v, gain));
                }
            }
            let Some((v, _)) = best else { break };
            clique.push(v);
            candidates.retain(|&u| u != v && graph.adjacent(u, v));
        }

        CliqueSolution::from_nodes(graph, clique)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_best_singleton_when_isolated() {
        let mut g = WeightedGraph::new(3);
        g.set_node_weight(0, 2.0);
        g.set_node_weight(1, 7.0);
        g.set_node_weight(2, 7.0); // tie: prefer lower index
        let s = Greedy.solve(&g);
        assert_eq!(s.nodes, vec![1]);
    }

    #[test]
    fn grows_through_positive_edges() {
        let mut g = WeightedGraph::new(3);
        for v in 0..3 {
            g.set_node_weight(v, 1.0);
        }
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(0, 2, 2.0);
        let s = Greedy.solve(&g);
        assert_eq!(s.nodes, vec![0, 1, 2]);
        assert_eq!(s.weight, 9.0);
    }

    #[test]
    fn stops_at_negative_gain() {
        let mut g = WeightedGraph::new(2);
        g.set_node_weight(0, 5.0);
        g.set_node_weight(1, 1.0);
        g.add_edge(0, 1, -3.0); // adding 1 would lose 2
        let s = Greedy.solve(&g);
        assert_eq!(s.nodes, vec![0]);
    }

    #[test]
    fn empty_when_all_negative() {
        let mut g = WeightedGraph::new(4);
        for v in 0..4 {
            g.set_node_weight(v, -1.0);
        }
        let s = Greedy.solve(&g);
        assert!(s.nodes.is_empty());
        assert_eq!(s.weight, 0.0);
    }

    #[test]
    fn result_is_always_a_clique() {
        let mut g = WeightedGraph::new(5);
        for v in 0..5 {
            g.set_node_weight(v, 1.0);
        }
        g.add_edge(0, 1, 0.5);
        g.add_edge(2, 3, 0.5);
        g.add_edge(3, 4, 0.5);
        let s = Greedy.solve(&g);
        assert!(g.is_clique(&s.nodes));
    }
}
