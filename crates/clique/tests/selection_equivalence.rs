//! Property tests pinning the MWCP graph builder to its retained
//! pre-rewrite reference (`SelectionInstance::to_graph_reference`),
//! the same pattern as `AStar::route_reference`. The production
//! builder may fill the dense adjacency differently, but the resulting
//! `WeightedGraph` — node weights, every edge, every non-edge — must
//! be equal, which pins everything downstream (clique solvers,
//! `select_one_per_group`) byte-for-byte.

use pacor_clique::{select_one_per_group, SelectionInstance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministically derives a random selection instance from the
/// proptest-chosen scalars: `ngroups` groups of 1..=4 candidates with
/// negative mismatch weights, plus random cross-group pair costs —
/// including a sprinkling of malformed entries (same-group and
/// out-of-range indices) that both builders must skip identically.
fn setup(seed: u64, ngroups: usize, pair_density: u32) -> SelectionInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let k = rng.gen_range(1usize..=4);
        groups.push(
            (0..k)
                .map(|_| -(rng.gen_range(0u32..2000) as f64) / 1000.0)
                .collect(),
        );
    }
    let mut inst = SelectionInstance::new(groups);
    for ga in 0..ngroups {
        for gb in 0..ngroups {
            for ia in 0..inst.groups[ga].len() {
                for ib in 0..inst.groups[gb].len() {
                    if rng.gen_range(0u32..100) < pair_density {
                        inst.add_pair_cost(
                            (ga, ia),
                            (gb, ib),
                            -(rng.gen_range(0u32..3000) as f64) / 1000.0,
                        );
                    }
                }
            }
        }
        // Out-of-range entries are ignored by contract; both builders
        // must agree on that too.
        if rng.gen_range(0u32..100) < 20 {
            inst.add_pair_cost((ga, 99), (ngroups + 1, 0), -1.0);
        }
    }
    inst
}

proptest! {
    #[test]
    fn graph_builder_matches_reference(
        seed in 0u64..u64::MAX,
        ngroups in 1usize..6,
        pair_density in 0u32..60,
    ) {
        let inst = setup(seed, ngroups, pair_density);
        let bonus = inst.dominating_bonus();
        let fast = inst.to_graph(bonus);
        let reference = inst.to_graph_reference(bonus);
        prop_assert_eq!(&fast, &reference, "MWCP graphs diverged");
    }

    #[test]
    fn selection_is_complete_and_in_range(
        seed in 0u64..u64::MAX,
        ngroups in 1usize..5,
        pair_density in 0u32..50,
    ) {
        let inst = setup(seed, ngroups, pair_density);
        let sel = select_one_per_group(&inst);
        prop_assert_eq!(sel.picks.len(), ngroups);
        for (g, &p) in sel.picks.iter().enumerate() {
            prop_assert!(p < inst.groups[g].len());
        }
    }
}
