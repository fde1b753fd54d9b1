//! Property-based tests for valve compatibility and clustering.

use pacor_grid::Point;
use pacor_valves::{ActivationSequence, ActivationStatus, Valve, ValveId, ValveSet};
use proptest::prelude::*;

fn arb_status() -> impl Strategy<Value = ActivationStatus> {
    prop_oneof![
        Just(ActivationStatus::Open),
        Just(ActivationStatus::Closed),
        Just(ActivationStatus::DontCare),
    ]
}

fn arb_sequence(len: usize) -> impl Strategy<Value = ActivationSequence> {
    prop::collection::vec(arb_status(), len).prop_map(ActivationSequence::new)
}

fn arb_valve_set(n: usize, len: usize) -> impl Strategy<Value = ValveSet> {
    prop::collection::vec(arb_sequence(len), n).prop_map(|seqs| {
        seqs.into_iter()
            .enumerate()
            .map(|(i, s)| Valve::new(ValveId(i as u32), Point::new(i as i32, 0), s))
            .collect()
    })
}

proptest! {
    #[test]
    fn compatibility_symmetric_and_reflexive(a in arb_sequence(6), b in arb_sequence(6)) {
        prop_assert!(a.is_compatible(&a));
        prop_assert_eq!(a.is_compatible(&b), b.is_compatible(&a));
    }

    #[test]
    fn parse_display_roundtrip(s in arb_sequence(12)) {
        let text = s.to_string();
        let back: ActivationSequence = text.parse().unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn greedy_clusters_partition_and_are_cliques(set in arb_valve_set(10, 4)) {
        let clusters = set.cluster_greedy(&[]);
        // Partition: every valve appears exactly once.
        let mut seen: Vec<ValveId> = clusters.iter().flat_map(|c| c.members().to_vec()).collect();
        seen.sort();
        let expected: Vec<ValveId> = set.iter().map(|v| v.id()).collect();
        prop_assert_eq!(seen, expected);
        // Clique: every pair in a cluster is compatible.
        let g = set.compat_graph();
        for c in &clusters {
            prop_assert!(g.is_clique(c.members()));
        }
    }

    #[test]
    fn exact_cover_lower_bounds_greedy(set in arb_valve_set(8, 3)) {
        let exact = set.min_clique_cover_exact();
        let greedy = set.cluster_greedy(&[]).len();
        prop_assert!(exact <= greedy);
        prop_assert!(greedy <= set.len());
        // Exact cover is at least the count implied by a crude bound: each
        // cluster has >= 1 valve.
        prop_assert!(exact >= 1 || set.is_empty());
    }

    #[test]
    fn compat_graph_matches_pairwise(set in arb_valve_set(7, 3)) {
        let g = set.compat_graph();
        for a in set.iter() {
            for b in set.iter() {
                let expect = a.id() != b.id() && a.is_compatible(b);
                prop_assert_eq!(g.are_compatible(a.id(), b.id()), expect);
            }
        }
    }
}
