//! Tabu local search refinement for the MWCP.

use crate::{CliqueSolution, Greedy, WeightedGraph};

/// Local search over clique space with add / drop / swap moves and a
/// short-term tabu list, seeded by [`Greedy`].
///
/// This is the anytime fallback for selection components wider than the
/// 128-node masks of [`BitBranchAndBound`](crate::BitBranchAndBound);
/// PACOR's paper mentions having implemented "graph-based" heuristics
/// alongside the ILP — this plays that role.
#[derive(Debug, Clone, Copy)]
pub struct TabuLocalSearch {
    iterations: usize,
    tabu_tenure: usize,
}

impl TabuLocalSearch {
    /// Creates a search running `iterations` move steps.
    pub fn new(iterations: usize) -> Self {
        Self {
            iterations,
            tabu_tenure: 7,
        }
    }

    /// Overrides the tabu tenure (steps a reversed move stays forbidden).
    pub fn with_tenure(mut self, tenure: usize) -> Self {
        self.tabu_tenure = tenure;
        self
    }

    /// Runs the search.
    pub fn solve(self, graph: &WeightedGraph) -> CliqueSolution {
        let n = graph.len();
        if n == 0 {
            return CliqueSolution::empty();
        }
        let seed = Greedy.solve(graph);
        let mut current = seed.nodes.clone();
        let mut current_w = seed.weight;
        let mut best = seed;
        // tabu[v] = first iteration at which touching v is allowed again.
        let mut tabu = vec![0usize; n];

        for it in 1..=self.iterations {
            // Enumerate moves: add a feasible node, drop a member, or swap
            // (drop one member to admit an otherwise-infeasible node).
            let mut best_move: Option<(Vec<usize>, f64)> = None;
            let mut consider = |nodes: Vec<usize>, w: f64, touched: usize| {
                let aspiration = w > best.weight;
                if tabu[touched] > it && !aspiration {
                    return;
                }
                if best_move.as_ref().map(|(_, bw)| w > *bw).unwrap_or(true) {
                    best_move = Some((nodes, w));
                }
            };

            for v in 0..n {
                if current.contains(&v) {
                    // Drop v.
                    let rest: Vec<usize> = current.iter().copied().filter(|&u| u != v).collect();
                    let w = graph.weight_of(&rest);
                    consider(rest, w, v);
                } else {
                    let blockers: Vec<usize> = current
                        .iter()
                        .copied()
                        .filter(|&u| !graph.adjacent(u, v))
                        .collect();
                    match blockers.len() {
                        0 => {
                            // Add v.
                            let mut with = current.clone();
                            with.push(v);
                            let w = current_w + graph.marginal_gain(&current, v);
                            consider(with, w, v);
                        }
                        1 => {
                            // Swap blockers[0] -> v.
                            let mut with: Vec<usize> = current
                                .iter()
                                .copied()
                                .filter(|&u| u != blockers[0])
                                .collect();
                            with.push(v);
                            let w = graph.weight_of(&with);
                            consider(with, w, v);
                        }
                        _ => {}
                    }
                }
            }

            let Some((nodes, w)) = best_move else { break };
            // Mark the symmetric difference tabu.
            for &v in nodes.iter().chain(current.iter()) {
                let in_old = current.contains(&v);
                let in_new = nodes.contains(&v);
                if in_old != in_new {
                    tabu[v] = it + self.tabu_tenure;
                }
            }
            current = nodes;
            current_w = w;
            if current_w > best.weight {
                best = CliqueSolution {
                    nodes: current.clone(),
                    weight: current_w,
                };
            }
        }
        best.nodes.sort_unstable();
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitBranchAndBound;

    #[test]
    fn refines_past_greedy_trap() {
        // Greedy grabs node 0 (weight 10) which blocks the pair {1,2}
        // (combined 14); local search must escape via drop/swap.
        let mut g = WeightedGraph::new(3);
        g.set_node_weight(0, 10.0);
        g.set_node_weight(1, 7.0);
        g.set_node_weight(2, 7.0);
        g.add_edge(1, 2, 0.0);
        let greedy = Greedy.solve(&g);
        assert_eq!(greedy.nodes, vec![0]);
        let refined = TabuLocalSearch::new(50).solve(&g);
        assert_eq!(refined.nodes, vec![1, 2]);
        assert_eq!(refined.weight, 14.0);
    }

    #[test]
    fn never_worse_than_greedy() {
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..10 {
            let n = 10;
            let mut g = WeightedGraph::new(n);
            for v in 0..n {
                g.set_node_weight(v, next() * 8.0 - 2.0);
            }
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() < 0.5 {
                        g.add_edge(u, v, next() * 4.0 - 2.0);
                    }
                }
            }
            let greedy = Greedy.solve(&g);
            let tabu = TabuLocalSearch::new(100).solve(&g);
            assert!(tabu.weight + 1e-9 >= greedy.weight);
            assert!(g.is_clique(&tabu.nodes));
        }
    }

    #[test]
    fn close_to_exact_on_small_instances() {
        let mut g = WeightedGraph::new(8);
        for v in 0..8 {
            g.set_node_weight(v, (v as f64) / 2.0);
        }
        for u in 0..8usize {
            for v in (u + 1)..8 {
                if (u + v) % 3 != 0 {
                    g.add_edge(u, v, -0.1);
                }
            }
        }
        let exact = BitBranchAndBound::new().solve(&g);
        let tabu = TabuLocalSearch::new(300).solve(&g);
        assert!(tabu.weight <= exact.weight + 1e-9);
        assert!(tabu.weight >= 0.8 * exact.weight);
    }

    #[test]
    fn zero_iterations_returns_greedy() {
        let mut g = WeightedGraph::new(2);
        g.set_node_weight(0, 3.0);
        let s = TabuLocalSearch::new(0).solve(&g);
        assert_eq!(s.nodes, vec![0]);
    }
}
