//! One-candidate-per-group selection via the MWCP — the exact shape of
//! PACOR's candidate Steiner tree selection (Section 4.2).
//!
//! Groups are clusters; items are candidate Steiner trees. Item weights
//! are the (non-positive) mismatch costs `Cm` of Eq. (2); pair weights are
//! the (non-positive) overlap costs `Co` of Eq. (3) between items of
//! *different* groups. The paper builds a graph whose maximum weight
//! clique is the selection. With all weights non-positive the literal
//! maximum weight clique would be empty, so — like the ILP formulation,
//! which constrains one pick per cluster — we add a constant cardinality
//! bonus `B` to every node, large enough that any clique with more
//! members outweighs any clique with fewer. The optimum then selects one
//! item from every group whenever the conflict graph admits it (it always
//! does: cross-group pairs are always adjacent).
//!
//! Groups that no chain of pair costs joins cannot influence each other's
//! pick, so [`select_one_per_group`] solves each connected component of
//! the pair-cost graph as its own, much smaller, clique instance. The
//! split is exact: every pair cost lies inside one component, so the
//! objective is the sum of the component objectives.

use crate::bitset::MAX_NODES;
use crate::{BitBranchAndBound, CliqueSolution, TabuLocalSearch, WeightedGraph};
use serde::{Deserialize, Serialize};

/// A cross-group pair cost entry: `((group_a, item_a), (group_b, item_b),
/// cost)`.
pub type PairCost = ((usize, usize), (usize, usize), f64);

/// A selection instance: groups of items with weights and cross-group
/// pair costs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SelectionInstance {
    /// `groups[g]` = item weights (`Cm`, usually ≤ 0) of group `g`'s
    /// candidates.
    pub groups: Vec<Vec<f64>>,
    /// Cross-group pair costs (`Co`, usually ≤ 0):
    /// `((group_a, item_a), (group_b, item_b), cost)`. Pairs not listed
    /// cost 0. Entries with `group_a == group_b` are ignored.
    pub pair_costs: Vec<PairCost>,
}

impl SelectionInstance {
    /// Creates an instance with the given per-group candidate weights.
    pub fn new(groups: Vec<Vec<f64>>) -> Self {
        Self {
            groups,
            pair_costs: Vec::new(),
        }
    }

    /// Adds a cross-group pair cost.
    pub fn add_pair_cost(&mut self, a: (usize, usize), b: (usize, usize), cost: f64) {
        self.pair_costs.push((a, b, cost));
    }

    /// Total number of items across groups.
    pub fn item_count(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    fn flat_index(&self, group: usize, item: usize) -> usize {
        self.groups[..group].iter().map(Vec::len).sum::<usize>() + item
    }

    /// The listed pair costs between existing items of two different
    /// groups, in listing order; every other entry is ignored.
    fn valid_pairs(&self) -> impl Iterator<Item = &PairCost> {
        self.pair_costs.iter().filter(|((ga, ia), (gb, ib), _)| {
            ga != gb
                && self.groups.get(*ga).is_some_and(|g| *ia < g.len())
                && self.groups.get(*gb).is_some_and(|g| *ib < g.len())
        })
    }

    /// Builds the MWCP graph with cardinality bonus `bonus` per node.
    /// Exposed (hidden) so the equivalence property tests can pin the
    /// production graph builder to [`Self::to_graph_reference`].
    #[doc(hidden)]
    pub fn to_graph(&self, bonus: f64) -> WeightedGraph {
        let n = self.item_count();
        let mut g = WeightedGraph::new(n);
        let mut idx = 0;
        for group in &self.groups {
            for &w in group {
                g.set_node_weight(idx, w + bonus);
                idx += 1;
            }
        }
        // Cross-group items are adjacent (cost 0 unless listed): groups
        // occupy consecutive flat-index blocks, so the conflict graph is
        // complete multipartite and fills in one pass.
        let sizes: Vec<usize> = self.groups.iter().map(Vec::len).collect();
        g.connect_multipartite(&sizes, 0.0);
        for &((ga, ia), (gb, ib), cost) in self.valid_pairs() {
            let (u, v) = (self.flat_index(ga, ia), self.flat_index(gb, ib));
            g.add_edge(u, v, cost);
        }
        g
    }

    /// Pre-rewrite reference implementation of [`Self::to_graph`],
    /// retained for the equivalence property tests
    /// (`tests/selection_equivalence.rs`) — the same pattern as
    /// `AStar::route_reference`. Builds the conflict graph one
    /// `add_edge` call per cross-group pair, exactly as the builder
    /// shipped; the production kernel must produce an equal
    /// [`WeightedGraph`].
    #[doc(hidden)]
    pub fn to_graph_reference(&self, bonus: f64) -> WeightedGraph {
        let n = self.item_count();
        let mut g = WeightedGraph::new(n);
        let mut owner = vec![0usize; n];
        let mut idx = 0;
        for (gi, group) in self.groups.iter().enumerate() {
            for &w in group {
                g.set_node_weight(idx, w + bonus);
                owner[idx] = gi;
                idx += 1;
            }
        }
        for u in 0..n {
            for v in (u + 1)..n {
                if owner[u] != owner[v] {
                    g.add_edge(u, v, 0.0);
                }
            }
        }
        for &((ga, ia), (gb, ib), cost) in &self.pair_costs {
            if ga == gb || ga >= self.groups.len() || gb >= self.groups.len() {
                continue;
            }
            if ia >= self.groups[ga].len() || ib >= self.groups[gb].len() {
                continue;
            }
            let (u, v) = (self.flat_index(ga, ia), self.flat_index(gb, ib));
            g.add_edge(u, v, cost);
        }
        g
    }

    /// A cardinality bonus strictly dominating every possible cost sum,
    /// so maximum weight ⇒ maximum cardinality ⇒ one pick per group.
    /// Exposed (hidden) for the equivalence property tests.
    #[doc(hidden)]
    pub fn dominating_bonus(&self) -> f64 {
        let node_mag: f64 = self
            .groups
            .iter()
            .flatten()
            .map(|w| w.abs())
            .fold(0.0, f64::max);
        let pair_mag: f64 = self.pair_costs.iter().map(|(_, _, c)| c.abs()).sum();
        let k = self.groups.len().max(1) as f64;
        // Each pick contributes ≥ -(node_mag + pair_mag); make the bonus
        // outweigh losing everything k times over, plus margin.
        (node_mag + pair_mag) * (k + 1.0) + 1.0
    }

    /// Splits the instance into the connected components of its
    /// pair-cost graph (groups are vertices, valid pair costs edges).
    /// Each component comes with its member groups in ascending order
    /// and its sub-instance, whose group `i` is member `i` and whose pair
    /// costs keep their listing order. Components are ordered by their
    /// smallest group.
    fn components(&self) -> Vec<(Vec<usize>, SelectionInstance)> {
        fn root(parent: &mut [usize], mut g: usize) -> usize {
            while parent[g] != g {
                parent[g] = parent[parent[g]];
                g = parent[g];
            }
            g
        }
        let n = self.groups.len();
        let mut parent: Vec<usize> = (0..n).collect();
        for &((ga, _), (gb, _), _) in self.valid_pairs() {
            let (ra, rb) = (root(&mut parent, ga), root(&mut parent, gb));
            parent[ra.max(rb)] = ra.min(rb);
        }
        let mut component = vec![0usize; n];
        let mut local = vec![0usize; n];
        let mut parts: Vec<(Vec<usize>, SelectionInstance)> = Vec::new();
        for g in 0..n {
            // Roots are their component's smallest group, so each root
            // opens its component before any other member joins it.
            let r = root(&mut parent, g);
            if r == g {
                component[g] = parts.len();
                parts.push(Default::default());
            } else {
                component[g] = component[r];
            }
            let (members, sub) = &mut parts[component[g]];
            local[g] = members.len();
            members.push(g);
            sub.groups.push(self.groups[g].clone());
        }
        for &((ga, ia), (gb, ib), cost) in self.valid_pairs() {
            parts[component[ga]]
                .1
                .add_pair_cost((local[ga], ia), (local[gb], ib), cost);
        }
        parts
    }

    /// One pick per group from a clique of [`Self::to_graph`]. A group
    /// the clique misses (only a heuristic solve can) gets its heaviest
    /// item, so the picks are always complete.
    fn picks_from(&self, solution: &CliqueSolution) -> Vec<usize> {
        let item_of: Vec<(usize, usize)> = self
            .groups
            .iter()
            .enumerate()
            .flat_map(|(g, items)| (0..items.len()).map(move |i| (g, i)))
            .collect();
        let mut picks = vec![usize::MAX; self.groups.len()];
        for &node in &solution.nodes {
            let (g, i) = item_of[node];
            picks[g] = i;
        }
        for (g, p) in picks.iter_mut().enumerate() {
            if *p == usize::MAX {
                *p = self.groups[g]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("nonempty group");
            }
        }
        picks
    }

    /// The objective `Σ Cm + Σ Co` of one pick per group.
    fn cost_of(&self, picks: &[usize]) -> f64 {
        let mut cost: f64 = picks
            .iter()
            .enumerate()
            .map(|(g, &i)| self.groups[g][i])
            .sum();
        for &((ga, ia), (gb, ib), c) in self.valid_pairs() {
            if picks[ga] == ia && picks[gb] == ib {
                cost += c;
            }
        }
        cost
    }
}

/// Result of a selection: the picked item index per group, the raw cost
/// (sum of picked `Cm` plus active `Co`, bonus excluded), and how much
/// searching it took.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSelection {
    /// `picks[g]` = selected item of group `g`.
    pub picks: Vec<usize>,
    /// Objective value without the cardinality bonus (≤ 0 in PACOR).
    pub cost: f64,
    /// Connected components of the pair-cost graph, each solved on its
    /// own.
    pub components: usize,
    /// Branch-and-bound search nodes visited over all components.
    pub nodes: u64,
    /// Components whose search stopped at
    /// [`NODE_BUDGET`](crate::NODE_BUDGET) and kept its incumbent.
    pub budget_hits: usize,
}

/// Selects one item per group maximizing `Σ Cm + Σ Co`.
///
/// Each connected component of the pair-cost graph is solved on its own:
/// exactly by [`BitBranchAndBound`] up to 128 items (within its
/// [`NODE_BUDGET`](crate::NODE_BUDGET)), by [`TabuLocalSearch`] beyond.
///
/// # Panics
///
/// Panics when some group is empty — a cluster always has at least one
/// candidate Steiner tree.
///
/// # Examples
///
/// ```
/// use pacor_clique::{select_one_per_group, SelectionInstance};
///
/// let mut inst = SelectionInstance::new(vec![vec![0.0, -0.5], vec![0.0, 0.0], vec![-1.0]]);
/// // Candidate (0,0) heavily overlaps candidate (1,0).
/// inst.add_pair_cost((0, 0), (1, 0), -3.0);
/// let sel = select_one_per_group(&inst);
/// // Best: pick (0,0) with (1,1): cost 0. Picking (0,0)+(1,0) costs -3,
/// // picking (0,1)+anything costs -0.5. Group 2 has its own component.
/// assert_eq!(sel.picks, vec![0, 1, 0]);
/// assert_eq!(sel.cost, -1.0);
/// assert_eq!(sel.components, 2);
/// ```
pub fn select_one_per_group(inst: &SelectionInstance) -> GroupSelection {
    assert!(
        inst.groups.iter().all(|g| !g.is_empty()),
        "every group needs at least one candidate"
    );
    let components = inst.components();
    let mut picks = vec![0; inst.groups.len()];
    let (mut nodes, mut budget_hits) = (0, 0);
    for (members, sub) in &components {
        let graph = sub.to_graph(sub.dominating_bonus());
        let solution = if graph.len() <= MAX_NODES {
            let search = BitBranchAndBound::new().search(&graph);
            nodes += search.nodes;
            budget_hits += usize::from(search.budget_hit);
            search.solution
        } else {
            TabuLocalSearch::new(20 * graph.len()).solve(&graph)
        };
        for (&g, pick) in members.iter().zip(sub.picks_from(&solution)) {
            picks[g] = pick;
        }
    }
    GroupSelection {
        cost: inst.cost_of(&picks),
        picks,
        components: components.len(),
        nodes,
        budget_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Greedy;

    /// Brute-force optimal selection for small instances.
    fn brute(inst: &SelectionInstance) -> f64 {
        fn rec(inst: &SelectionInstance, g: usize, picks: &mut Vec<usize>, best: &mut f64) {
            if g == inst.groups.len() {
                let mut cost: f64 = picks
                    .iter()
                    .enumerate()
                    .map(|(gi, &i)| inst.groups[gi][i])
                    .sum();
                for &((ga, ia), (gb, ib), c) in &inst.pair_costs {
                    if ga != gb && picks[ga] == ia && picks[gb] == ib {
                        cost += c;
                    }
                }
                if cost > *best {
                    *best = cost;
                }
                return;
            }
            for i in 0..inst.groups[g].len() {
                picks.push(i);
                rec(inst, g + 1, picks, best);
                picks.pop();
            }
        }
        let mut best = f64::NEG_INFINITY;
        rec(inst, 0, &mut Vec::new(), &mut best);
        best
    }

    /// A deterministic stream of uniform samples in `[0, 1)`.
    fn uniform(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(11);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    /// `ngroups` groups of `items` candidates (`items` = 0: 1..=3 each)
    /// with every cross-group pair costed with probability `density`.
    fn random_instance(
        next: &mut impl FnMut() -> f64,
        ngroups: usize,
        items: usize,
        density: f64,
    ) -> SelectionInstance {
        let groups: Vec<Vec<f64>> = (0..ngroups)
            .map(|_| {
                let k = if items == 0 {
                    1 + (next() * 3.0) as usize
                } else {
                    items
                };
                (0..k).map(|_| -next() * 2.0).collect()
            })
            .collect();
        let mut inst = SelectionInstance::new(groups.clone());
        for ga in 0..ngroups {
            for gb in (ga + 1)..ngroups {
                for ia in 0..groups[ga].len() {
                    for ib in 0..groups[gb].len() {
                        if next() < density {
                            inst.add_pair_cost((ga, ia), (gb, ib), -next() * 3.0);
                        }
                    }
                }
            }
        }
        inst
    }

    #[test]
    fn picks_one_per_group() {
        let inst = SelectionInstance::new(vec![vec![-1.0, -2.0], vec![-3.0], vec![0.0, -0.1]]);
        let sel = select_one_per_group(&inst);
        assert_eq!(sel.picks.len(), 3);
        assert_eq!(sel.picks, vec![0, 0, 0]);
        assert!((sel.cost - (-4.0)).abs() < 1e-9);
        assert_eq!((sel.components, sel.budget_hits), (3, 0));
    }

    #[test]
    fn avoids_costly_pairs() {
        let mut inst = SelectionInstance::new(vec![vec![0.0, -0.2], vec![0.0, -0.2]]);
        inst.add_pair_cost((0, 0), (1, 0), -5.0);
        let sel = select_one_per_group(&inst);
        // Optimal: one side dodges the pair at -0.2, total -0.2.
        assert!((sel.cost - (-0.2)).abs() < 1e-9);
        assert!(!(sel.picks[0] == 0 && sel.picks[1] == 0));
        assert_eq!(sel.components, 1);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut next = uniform(99);
        for trial in 0..15 {
            let inst = random_instance(&mut next, 2 + trial % 3, 0, 0.4);
            let sel = select_one_per_group(&inst);
            let opt = brute(&inst);
            assert!(
                (sel.cost - opt).abs() < 1e-9,
                "trial {trial}: got {} expected {}",
                sel.cost,
                opt
            );
        }
    }

    #[test]
    fn split_cost_is_the_sum_of_component_optima() {
        let mut next = uniform(7);
        for trial in 0..12 {
            // 2..=4 independent parts of 1..=3 groups each, interleaved
            // into one instance so components are not contiguous.
            let parts: Vec<SelectionInstance> = (0..2 + trial % 3)
                .map(|_| {
                    let ngroups = 1 + (next() * 3.0) as usize;
                    random_instance(&mut next, ngroups, 0, 0.5)
                })
                .collect();
            let mut slots: Vec<(usize, usize)> = parts
                .iter()
                .enumerate()
                .flat_map(|(p, inst)| (0..inst.groups.len()).map(move |g| (p, g)))
                .collect();
            slots.sort_by_key(|&(p, g)| (g, p));
            let at = |p: usize, g: usize| slots.iter().position(|&s| s == (p, g)).unwrap();
            let mut inst = SelectionInstance::new(
                slots
                    .iter()
                    .map(|&(p, g)| parts[p].groups[g].clone())
                    .collect(),
            );
            for (p, part) in parts.iter().enumerate() {
                for &((ga, ia), (gb, ib), c) in &part.pair_costs {
                    inst.add_pair_cost((at(p, ga), ia), (at(p, gb), ib), c);
                }
            }

            let sel = select_one_per_group(&inst);
            let expect: f64 = parts.iter().map(brute).sum();
            assert!(
                (sel.cost - expect).abs() < 1e-9,
                "trial {trial}: got {} expected Σ component optima {expect}",
                sel.cost
            );
            assert!(sel.components >= parts.len());
            assert_eq!(sel.budget_hits, 0);
        }
    }

    #[test]
    fn ties_in_unrelated_groups_do_not_multiply_the_search() {
        // Chip1's stall in miniature: the optimum pays one overlap cost,
        // which the coloring bound ignores, so one search over all groups
        // would branch over every combination of the 30 tied pairs.
        let mut groups = vec![vec![0.0, 0.0]; 30];
        groups.extend([vec![0.0], vec![0.0]]);
        let mut inst = SelectionInstance::new(groups);
        inst.add_pair_cost((30, 0), (31, 0), -1.0);
        let sel = select_one_per_group(&inst);
        assert_eq!((sel.components, sel.budget_hits), (31, 0));
        assert!(sel.nodes < 100, "{} search nodes", sel.nodes);
        assert_eq!(sel.cost, -1.0);
    }

    #[test]
    fn budget_keeps_a_complete_selection_at_least_as_good_as_greedy() {
        // One dense component: 30 groups × 4 candidates, every
        // cross-group pair costed with probability 0.3. Far beyond what
        // the search can close within its node budget.
        let inst = random_instance(&mut uniform(3), 30, 4, 0.3);
        let sel = select_one_per_group(&inst);
        assert_eq!((sel.components, sel.budget_hits), (1, 1));
        assert_eq!(sel.nodes, crate::NODE_BUDGET);
        assert_eq!(sel.picks.len(), 30);
        assert!(sel.picks.iter().all(|&p| p < 4));
        assert!((inst.cost_of(&sel.picks) - sel.cost).abs() < 1e-9);
        let greedy = Greedy.solve(&inst.to_graph(inst.dominating_bonus()));
        let greedy_cost = inst.cost_of(&inst.picks_from(&greedy));
        assert!(
            sel.cost >= greedy_cost,
            "budgeted {} below greedy {greedy_cost}",
            sel.cost
        );
    }

    #[test]
    fn heuristic_fallback_is_complete() {
        // 65 + 65 + 2 = 132 items joined into one component by pair
        // costs: past the bitset width, so tabu search solves it.
        let mut inst = SelectionInstance::new(vec![
            (0..65).map(|i| -(i as f64) / 10.0).collect(),
            (0..65).map(|i| -((i * 7) % 65) as f64 / 10.0).collect(),
            vec![0.0, -1.0],
        ]);
        inst.add_pair_cost((0, 0), (1, 0), -2.0);
        inst.add_pair_cost((1, 0), (2, 0), -2.0);
        let sel = select_one_per_group(&inst);
        assert_eq!((sel.components, sel.nodes), (1, 0));
        assert_eq!(sel.picks.len(), 3);
        assert!(sel.picks[0] < 65 && sel.picks[1] < 65 && sel.picks[2] < 2);
        assert!((inst.cost_of(&sel.picks) - sel.cost).abs() < 1e-9);
    }

    #[test]
    fn empty_instance() {
        let sel = select_one_per_group(&SelectionInstance::default());
        assert!(sel.picks.is_empty());
        assert_eq!(sel.cost, 0.0);
        assert_eq!(sel.components, 0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_group_panics() {
        select_one_per_group(&SelectionInstance::new(vec![vec![], vec![0.0]]));
    }

    #[test]
    fn single_group_picks_heaviest() {
        let inst = SelectionInstance::new(vec![vec![-3.0, -0.5, -2.0]]);
        let sel = select_one_per_group(&inst);
        assert_eq!(sel.picks, vec![1]);
    }
}
