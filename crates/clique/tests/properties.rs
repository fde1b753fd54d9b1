//! Property-based tests for the MWCP solvers.

use pacor_clique::{
    select_one_per_group, BitBranchAndBound, Greedy, SelectionInstance, TabuLocalSearch,
    WeightedGraph,
};
use proptest::prelude::*;

/// Strategy: a random node/edge weighted graph of up to `n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = WeightedGraph> {
    (2..=max_n).prop_flat_map(|n| {
        let weights = prop::collection::vec(-4.0f64..8.0, n);
        let edges =
            prop::collection::vec(((0..n), (0..n), -3.0f64..3.0), 0..(n * (n - 1) / 2).max(1));
        (weights, edges).prop_map(move |(ws, es)| {
            let mut g = WeightedGraph::new(n);
            for (v, w) in ws.into_iter().enumerate() {
                g.set_node_weight(v, w);
            }
            for (u, v, w) in es {
                if u != v {
                    g.add_edge(u, v, w);
                }
            }
            g
        })
    })
}

/// Brute-force optimum over all subsets.
fn brute_force(g: &WeightedGraph) -> f64 {
    let n = g.len();
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let nodes: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
        if g.is_clique(&nodes) {
            best = best.max(g.weight_of(&nodes));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_matches_brute_force(g in arb_graph(9)) {
        let search = BitBranchAndBound::new().search(&g);
        let exact = &search.solution;
        prop_assert!(g.is_clique(&exact.nodes));
        prop_assert!((exact.weight - brute_force(&g)).abs() < 1e-9);
        prop_assert!(!search.budget_hit);
    }

    #[test]
    fn heuristics_are_feasible_and_bounded_by_exact(g in arb_graph(10)) {
        let exact = BitBranchAndBound::new().solve(&g);
        for sol in [Greedy.solve(&g), TabuLocalSearch::new(60).solve(&g)] {
            prop_assert!(g.is_clique(&sol.nodes));
            prop_assert!(sol.weight <= exact.weight + 1e-9);
            prop_assert!(sol.weight >= 0.0);
            prop_assert!((g.weight_of(&sol.nodes) - sol.weight).abs() < 1e-9);
        }
    }

    #[test]
    fn tabu_dominates_greedy(g in arb_graph(10)) {
        let greedy = Greedy.solve(&g);
        let tabu = TabuLocalSearch::new(80).solve(&g);
        prop_assert!(tabu.weight + 1e-9 >= greedy.weight);
    }

    #[test]
    fn selection_always_picks_one_per_group(
        sizes in prop::collection::vec(1usize..4, 1..5),
        costs in prop::collection::vec(-3.0f64..0.0, 16),
    ) {
        let groups: Vec<Vec<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(g, &k)| (0..k).map(|i| costs[(g * 3 + i) % costs.len()]).collect())
            .collect();
        let inst = SelectionInstance::new(groups.clone());
        let sel = select_one_per_group(&inst);
        prop_assert_eq!(sel.picks.len(), groups.len());
        for (g, &pick) in sel.picks.iter().enumerate() {
            prop_assert!(pick < groups[g].len());
        }
        // Cost equals the sum of picked node weights (no pair costs here).
        let expect: f64 = sel.picks.iter().enumerate().map(|(g, &i)| groups[g][i]).sum();
        prop_assert!((sel.cost - expect).abs() < 1e-9);
    }

    #[test]
    fn selection_exact_beats_or_ties_any_fixed_choice(
        seed in 0u64..1000,
    ) {
        // Construct a 3-group instance with pair costs from the seed.
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let groups = vec![vec![next(), next()], vec![next(), next()], vec![next()]];
        let mut inst = SelectionInstance::new(groups);
        for ga in 0..3usize {
            for gb in (ga + 1)..3 {
                inst.add_pair_cost((ga, 0), (gb, 0), next().min(0.0));
            }
        }
        let sel = select_one_per_group(&inst);
        // Compare against the all-zeros and all-lasts fixed choices.
        for fixed in [[0usize, 0, 0], [1, 1, 0]] {
            let mut cost: f64 = fixed
                .iter()
                .enumerate()
                .map(|(g, &i)| inst.groups[g][i.min(inst.groups[g].len() - 1)])
                .sum();
            for &((ga, ia), (gb, ib), c) in &inst.pair_costs {
                let fa = fixed[ga].min(inst.groups[ga].len() - 1);
                let fb = fixed[gb].min(inst.groups[gb].len() - 1);
                if fa == ia && fb == ib {
                    cost += c;
                }
            }
            prop_assert!(sel.cost >= cost - 1e-9);
        }
    }
}
