//! Bitset-accelerated branch-and-bound maximum weight clique for graphs
//! of up to 128 nodes — the exact solver behind PACOR's selection.
//!
//! Candidate sets are `u128` masks: adjacency filtering is a single AND,
//! and the coloring upper bound over a candidate set is a few mask
//! sweeps. A greedy clique seeds the incumbent, and the search visits at
//! most [`NODE_BUDGET`] nodes. Past that it stops and returns the best
//! clique found so far, which is never worse than the greedy one.

use crate::{CliqueSolution, Greedy, WeightedGraph};

/// Search nodes one [`BitBranchAndBound`] search may visit. A whole
/// selection of a paper design needs a few dozen and one of the
/// `lm_congested` bench chip's seeds up to ~80 000; a dense component the
/// search cannot close within the budget stops after a fraction of a
/// second (release build) with its incumbent instead of running for
/// minutes.
pub const NODE_BUDGET: u64 = 1_000_000;

/// Largest graph the solver takes: the width of its `u128` node masks.
pub(crate) const MAX_NODES: usize = 128;

/// Exact MWCP solver over `u128` node masks (graphs of ≤ 128 nodes),
/// exact up to [`NODE_BUDGET`] search nodes.
///
/// # Examples
///
/// ```
/// use pacor_clique::{BitBranchAndBound, WeightedGraph};
///
/// let mut g = WeightedGraph::new(3);
/// g.set_node_weight(0, 2.0);
/// g.set_node_weight(1, 2.0);
/// g.set_node_weight(2, 3.0);
/// g.add_edge(0, 1, 0.5);
/// let best = BitBranchAndBound::new().solve(&g);
/// assert_eq!(best.nodes, vec![0, 1]); // 4.5 beats 3.0
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BitBranchAndBound;

/// The outcome of one [`BitBranchAndBound::search`].
#[derive(Debug, Clone, PartialEq)]
pub struct BitSearch {
    /// The best clique found: the optimum unless `budget_hit`.
    pub solution: CliqueSolution,
    /// Search nodes visited (≤ [`NODE_BUDGET`]).
    pub nodes: u64,
    /// The search stopped at [`NODE_BUDGET`] before proving `solution`
    /// optimal.
    pub budget_hit: bool,
}

impl BitBranchAndBound {
    /// Creates the solver.
    pub fn new() -> Self {
        Self
    }

    /// Solves the MWCP: [`Self::search`] without its statistics.
    ///
    /// # Panics
    ///
    /// Panics when the graph has more than 128 nodes.
    pub fn solve(&self, graph: &WeightedGraph) -> CliqueSolution {
        self.search(graph).solution
    }

    /// Searches for a maximum weight clique, stopping after
    /// [`NODE_BUDGET`] search nodes.
    ///
    /// # Panics
    ///
    /// Panics when the graph has more than 128 nodes.
    pub fn search(&self, graph: &WeightedGraph) -> BitSearch {
        let n = graph.len();
        assert!(n <= MAX_NODES, "bitset solver supports at most 128 nodes");
        if n == 0 {
            return BitSearch {
                solution: CliqueSolution::empty(),
                nodes: 0,
                budget_hit: false,
            };
        }

        // Branch order: descending optimistic potential
        // `max(0, node_w(v) + Σ_u max(0, edge_w(v, u)))`;
        // `order[i]` is the node branched at depth rank i.
        let pot: Vec<f64> = (0..n)
            .map(|v| {
                let edge_pot: f64 = (0..n)
                    .filter_map(|u| graph.edge_weight(v, u))
                    .filter(|w| *w > 0.0)
                    .sum();
                (graph.node_weight(v) + edge_pot).max(0.0)
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| pot[b].partial_cmp(&pot[a]).expect("finite weights"));

        // Adjacency masks live in *rank space* so candidate pruning is a
        // single mask intersection.
        let mut adj = vec![0u128; n]; // by rank
        for (r, &v) in order.iter().enumerate() {
            for (q, &u) in order.iter().enumerate() {
                if graph.adjacent(v, u) {
                    adj[r] |= 1 << q;
                }
            }
        }
        let pot_ranked: Vec<f64> = order.iter().map(|&v| pot[v]).collect();

        let warm = Greedy.solve(graph);
        let mut search = Search {
            graph,
            order,
            pot_ranked,
            adj,
            current: Vec::new(),
            best: if warm.weight > 0.0 {
                warm
            } else {
                CliqueSolution::empty()
            },
            nodes: 0,
        };
        let finished = search.branch(u128::MAX >> (MAX_NODES - n), 0.0);
        let mut solution = search.best;
        solution.nodes.sort_unstable();
        BitSearch {
            solution,
            nodes: search.nodes,
            budget_hit: !finished,
        }
    }
}

/// The state of one branch-and-bound search.
struct Search<'a> {
    graph: &'a WeightedGraph,
    order: Vec<usize>,
    pot_ranked: Vec<f64>,
    adj: Vec<u128>,
    /// Node ids of the clique under construction.
    current: Vec<usize>,
    best: CliqueSolution,
    nodes: u64,
}

impl Search<'_> {
    /// `candidates` holds the ranks still eligible; every member is
    /// adjacent to everything in `current`. Returns `false` when the node
    /// budget ran out, which unwinds the whole search.
    fn branch(&mut self, candidates: u128, cur_weight: f64) -> bool {
        if self.nodes == NODE_BUDGET {
            return false;
        }
        self.nodes += 1;
        if cur_weight > self.best.weight {
            self.best = CliqueSolution {
                nodes: self.current.clone(),
                weight: cur_weight,
            };
        }
        // Coloring bound: partition the candidates into classes of
        // mutually non-adjacent ranks; any clique takes at most one node
        // per class, so Σ (max potential per class) bounds every
        // extension. Far tighter than the plain potential sum on the
        // dense multipartite graphs the selection front-end produces.
        let mut bound = cur_weight;
        let mut rem = candidates;
        while rem != 0 {
            let mut class_members = 0u128;
            let mut class_max = 0.0f64;
            let mut avail = rem;
            while avail != 0 {
                let r = avail.trailing_zeros() as usize;
                avail &= avail - 1;
                if self.adj[r] & class_members == 0 {
                    class_members |= 1 << r;
                    class_max = class_max.max(self.pot_ranked[r]);
                }
            }
            rem &= !class_members;
            bound += class_max;
        }
        if bound <= self.best.weight {
            return true;
        }

        let mut m = candidates;
        while m != 0 {
            let r = m.trailing_zeros() as usize;
            m &= m - 1; // ranks > r remain in m
            let v = self.order[r];
            let gain = self.graph.marginal_gain(&self.current, v);
            self.current.push(v);
            let finished = self.branch(m & self.adj[r], cur_weight + gain);
            self.current.pop();
            if !finished {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_graph(seed: u128, n: usize, density: f64) -> WeightedGraph {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u128 << 53) as f64
        };
        let mut g = WeightedGraph::new(n);
        for v in 0..n {
            g.set_node_weight(v, next() * 10.0 - 3.0);
        }
        for u in 0..n {
            for v in (u + 1)..n {
                if next() < density {
                    g.add_edge(u, v, next() * 4.0 - 2.0);
                }
            }
        }
        g
    }

    /// The best clique weight over all node subsets.
    fn subset_brute_force(g: &WeightedGraph) -> f64 {
        let n = g.len();
        (0u32..1 << n)
            .map(|mask| (0..n).filter(|&v| mask & (1 << v) != 0).collect::<Vec<_>>())
            .filter(|nodes| g.is_clique(nodes))
            .map(|nodes| g.weight_of(&nodes))
            .fold(0.0, f64::max)
    }

    #[test]
    fn agrees_with_subset_brute_force() {
        for seed in 0..20 {
            let n = 6 + (seed as usize % 9);
            let g = random_graph(seed, n, 0.55);
            let search = BitBranchAndBound::new().search(&g);
            let a = &search.solution;
            let best = subset_brute_force(&g);
            assert!(
                (a.weight - best).abs() < 1e-9,
                "seed {seed}: bitset {} vs brute force {best}",
                a.weight,
            );
            assert!(g.is_clique(&a.nodes));
            assert!((g.weight_of(&a.nodes) - a.weight).abs() < 1e-9);
            assert!(!search.budget_hit && search.nodes >= 1);
        }
    }

    #[test]
    fn empty_and_singleton() {
        let s = BitBranchAndBound::new().search(&WeightedGraph::new(0));
        assert!(s.solution.nodes.is_empty());
        assert_eq!((s.nodes, s.budget_hit), (0, false));
        let mut g = WeightedGraph::new(1);
        g.set_node_weight(0, 5.0);
        let s = BitBranchAndBound::new().solve(&g);
        assert_eq!(s.nodes, vec![0]);
        assert_eq!(s.weight, 5.0);
    }

    #[test]
    fn all_negative_prefers_empty() {
        let mut g = WeightedGraph::new(4);
        for v in 0..4 {
            g.set_node_weight(v, -1.0);
        }
        let s = BitBranchAndBound::new().solve(&g);
        assert!(s.nodes.is_empty());
    }

    #[test]
    fn dense_64_node_selection_instance() {
        // 16 groups × 4 candidates with cardinality bonus: the coloring
        // bound makes this near-instant (the potential-sum bound cannot
        // prune multipartite instances at all).
        let (groups, items) = (16usize, 4usize);
        let n = groups * items;
        let mut g = WeightedGraph::new(n);
        for v in 0..n {
            g.set_node_weight(v, 100.0 - (v % items) as f64);
        }
        for u in 0..n {
            for v in (u + 1)..n {
                if u / items != v / items {
                    g.add_edge(u, v, if (u * v) % 7 == 0 { -1.0 } else { 0.0 });
                }
            }
        }
        let s = BitBranchAndBound::new().search(&g);
        assert_eq!(s.solution.nodes.len(), groups, "one pick per group");
        assert!(g.is_clique(&s.solution.nodes));
        assert!(!s.budget_hit);
    }

    #[test]
    #[should_panic(expected = "at most 128 nodes")]
    fn too_large_panics() {
        BitBranchAndBound::new().solve(&WeightedGraph::new(129));
    }
}
