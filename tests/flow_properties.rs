//! Property-based end-to-end tests: random small problems through the
//! complete PACOR flow, checking structural invariants that must hold
//! for *any* input — report consistency, design-rule cleanliness, and
//! the length-matching guarantee on matched clusters.

use pacor_repro::grid::Point;
use pacor_repro::pacor::{EscapeSolver, FlowConfig, FlowVariant, PacorFlow, Problem};
use pacor_repro::route::RipUpPolicy;
use pacor_repro::valves::{ActivationSequence, ActivationStatus, Valve, ValveId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A random, always-valid problem on a 20×20 grid: valves on distinct
/// interior cells (with a one-cell moat), cluster structure implied by
/// the generated activation codes, pins on the west edge.
fn arb_problem() -> impl Strategy<Value = Problem> {
    let valve_cells = prop::collection::hash_set((2i32..18, 2i32..18), 2..8);
    let codes = prop::collection::vec(0u8..4, 8);
    let obstacles = prop::collection::hash_set((1i32..19, 1i32..19), 0..14);
    (valve_cells, codes, obstacles).prop_map(|(cells, codes, obstacles)| {
        // Sort for determinism (hash-set iteration order varies), then
        // enforce the moat by greedy filtering.
        let mut cells: Vec<(i32, i32)> = cells.into_iter().collect();
        cells.sort_unstable();
        let mut obstacles: Vec<(i32, i32)> = obstacles.into_iter().collect();
        obstacles.sort_unstable();
        let mut taken: Vec<Point> = Vec::new();
        for &(x, y) in &cells {
            let p = Point::new(x, y);
            let crowded = taken.iter().any(|q| q.chebyshev(p) <= 1);
            if !crowded {
                taken.push(p);
            }
        }
        if taken.is_empty() {
            taken.push(Point::new(9, 9));
        }
        let code_of = |k: u8| -> ActivationSequence {
            (0..3)
                .map(|b| {
                    if (k >> b) & 1 == 1 {
                        ActivationStatus::Closed
                    } else {
                        ActivationStatus::Open
                    }
                })
                .collect()
        };
        let mut builder = Problem::builder("prop", 20, 20).delta(1);
        let mut groups: HashMap<u8, Vec<ValveId>> = HashMap::new();
        for (i, &p) in taken.iter().enumerate() {
            let k = codes[i % codes.len()];
            let id = ValveId(i as u32);
            builder = builder.valve(Valve::new(id, p, code_of(k)));
            groups.entry(k).or_default().push(id);
        }
        // Every multi-valve compatibility class becomes an LM cluster.
        for ids in groups.into_values() {
            if ids.len() >= 2 {
                builder = builder.lm_cluster(ids);
            }
        }
        for &(x, y) in &obstacles {
            let p = Point::new(x, y);
            if !taken.iter().any(|q| q.chebyshev(p) <= 1) {
                builder = builder.obstacle(p);
            }
        }
        builder = builder.pins((1..19).step_by(2).map(|y| Point::new(0, y)));
        builder.build().expect("generated problems are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn report_is_internally_consistent(problem in arb_problem()) {
        let report = PacorFlow::new(FlowConfig::default())
            .run(&problem)
            .expect("valid problem");
        prop_assert!(report.valves_routed <= report.valves_total);
        prop_assert!(report.matched_clusters <= report.clusters_multi);
        prop_assert!(report.matched_length <= report.total_length);
        let sum: u64 = report.clusters.iter().map(|c| c.total_length).sum();
        prop_assert_eq!(sum, report.total_length);
        let routed_valves: usize = report
            .clusters
            .iter()
            .filter(|c| c.complete)
            .map(|c| c.size)
            .sum();
        prop_assert_eq!(routed_valves, report.valves_routed);
    }

    #[test]
    fn matched_clusters_obey_delta(problem in arb_problem()) {
        let report = PacorFlow::new(FlowConfig::default())
            .run(&problem)
            .expect("valid problem");
        for c in &report.clusters {
            if c.matched {
                prop_assert!(c.length_constrained);
                prop_assert!(c.complete);
                let m = c.mismatch.expect("matched implies per-member lengths");
                prop_assert!(m <= problem.delta);
            }
        }
    }

    #[test]
    fn geometry_is_design_rule_clean(problem in arb_problem()) {
        let (_, routed) = PacorFlow::new(FlowConfig::default())
            .run_detailed(&problem)
            .expect("valid problem");
        let obstacle_set: HashSet<Point> = problem.obstacles.iter().copied().collect();
        let mut owner: HashMap<Point, usize> = HashMap::new();
        for (i, rc) in routed.iter().enumerate() {
            let mut cells = rc.net_cells();
            if let Some((esc, pin)) = &rc.escape {
                cells.extend(esc.cells().iter().skip(1).copied());
                prop_assert!(problem.pins.contains(pin), "escape ends off-pin");
            }
            for c in cells {
                prop_assert!(!obstacle_set.contains(&c), "net through obstacle {c}");
                if let Some(prev) = owner.insert(c, i) {
                    prop_assert_eq!(prev, i, "cell {} shared by two nets", c);
                }
            }
        }
    }

    #[test]
    fn incremental_escape_matches_reference(problem in arb_problem()) {
        // The grid-native escape solver must route the *identical*
        // geometry as the explicit-network reference, across the
        // de-cluster and rip-up sequences these dense random instances
        // provoke, under either negotiation rip-up policy.
        for policy in [RipUpPolicy::Incremental, RipUpPolicy::Full] {
            let base = FlowConfig::default().with_ripup_policy(policy);
            let (_, inc) = PacorFlow::new(base.with_escape_solver(EscapeSolver::Incremental))
                .run_detailed(&problem)
                .expect("valid problem");
            let (_, reference) = PacorFlow::new(base.with_escape_solver(EscapeSolver::Reference))
                .run_detailed(&problem)
                .expect("valid problem");
            prop_assert_eq!(inc.len(), reference.len());
            for (a, b) in inc.iter().zip(reference.iter()) {
                prop_assert_eq!(a.cluster.id(), b.cluster.id());
                prop_assert_eq!(a.net_cells(), b.net_cells(), "net geometry diverged");
                let esc = |rc: &pacor_repro::pacor::RoutedCluster| {
                    rc.escape.as_ref().map(|(p, pin)| (p.cells().to_vec(), *pin))
                };
                prop_assert_eq!(esc(a), esc(b), "escape geometry diverged");
            }
        }
    }

    #[test]
    fn variants_agree_on_completion_metrics(problem in arb_problem()) {
        // All variants must report consistent totals for the same input
        // (counts, not lengths — routing differs).
        let mut totals = Vec::new();
        for v in FlowVariant::ALL {
            let r = PacorFlow::new(FlowConfig::for_variant(v))
                .run(&problem)
                .expect("valid problem");
            prop_assert_eq!(r.valves_total, problem.valve_count());
            prop_assert_eq!(r.clusters_multi, problem.lm_clusters.len());
            totals.push(r.valves_routed);
        }
        // On a 20×20 with few valves, the strongest variant always
        // completes; adversarial generated instances (a full-height
        // "wall pair" crossing all traffic) may cost a weaker variant a
        // single valve. The benchmark designs (tests/full_flow.rs,
        // tests/chips.rs) assert strict 100 % completion.
        prop_assert!(
            totals.iter().any(|&t| t == problem.valve_count()),
            "no variant completed: {totals:?}"
        );
        prop_assert!(
            totals.iter().all(|&t| t + 1 >= problem.valve_count()),
            "variant lost more than one valve: {totals:?}"
        );
    }
}
