//! End-to-end integration tests: the full PACOR flow on synthesized
//! benchmark designs, checked for completion, design-rule cleanliness,
//! and the length-matching guarantee.

use pacor_repro::grid::Point;
use pacor_repro::pacor::{BenchDesign, FlowConfig, FlowVariant, PacorFlow, Problem};
use pacor_repro::valves::{Valve, ValveId};

#[test]
fn s1_all_variants_complete() {
    let problem = BenchDesign::S1.synthesize(42);
    for variant in FlowVariant::ALL {
        let report = PacorFlow::new(FlowConfig::for_variant(variant))
            .run(&problem)
            .expect("valid problem");
        assert_eq!(
            report.completion_rate(),
            1.0,
            "{} failed completion on S1",
            variant.label()
        );
    }
}

#[test]
fn s2_and_s3_complete_with_matches() {
    for design in [BenchDesign::S2, BenchDesign::S3] {
        let problem = design.synthesize(42);
        let report = PacorFlow::new(FlowConfig::default())
            .run(&problem)
            .expect("valid problem");
        assert_eq!(report.completion_rate(), 1.0, "{:?}", design);
        assert!(
            report.matched_clusters >= problem.lm_clusters.len() / 2,
            "{:?}: only {}/{} matched",
            design,
            report.matched_clusters,
            problem.lm_clusters.len()
        );
    }
}

#[test]
fn matched_clusters_respect_delta() {
    let problem = BenchDesign::S3.synthesize(7);
    let report = PacorFlow::new(FlowConfig::default())
        .run(&problem)
        .expect("valid problem");
    for c in &report.clusters {
        if c.matched {
            let m = c.mismatch.expect("matched clusters have a mismatch value");
            assert!(m <= problem.delta, "matched cluster with mismatch {m}");
        }
    }
}

#[test]
fn matched_length_bounded_by_total() {
    for seed in [1, 2, 3] {
        let problem = BenchDesign::S2.synthesize(seed);
        let report = PacorFlow::new(FlowConfig::default())
            .run(&problem)
            .expect("valid problem");
        assert!(report.matched_length <= report.total_length);
        assert!(report.matched_clusters <= report.clusters_multi);
    }
}

#[test]
fn report_cluster_details_are_consistent() {
    let problem = BenchDesign::S4.synthesize(42);
    let report = PacorFlow::new(FlowConfig::default())
        .run(&problem)
        .expect("valid problem");
    let sum: u64 = report.clusters.iter().map(|c| c.total_length).sum();
    assert_eq!(sum, report.total_length);
    let valves: usize = report
        .clusters
        .iter()
        .filter(|c| c.complete)
        .map(|c| c.size)
        .sum();
    assert_eq!(valves, report.valves_routed);
    let total_valves: usize = report.clusters.iter().map(|c| c.size).sum();
    assert_eq!(total_valves, report.valves_total);
}

#[test]
fn seeds_vary_but_all_complete_on_s1() {
    for seed in 0..8 {
        let problem = BenchDesign::S1.synthesize(seed);
        let report = PacorFlow::new(FlowConfig::default())
            .run(&problem)
            .expect("valid problem");
        assert_eq!(report.completion_rate(), 1.0, "seed {seed}");
    }
}

#[test]
fn hand_built_problem_with_obstacle_field() {
    // A dense diagonal obstacle field; the flow must still connect both
    // pairs with matched lengths.
    let mut builder = Problem::builder("obstacle-field", 24, 24).delta(1);
    for k in 0..20 {
        builder = builder.obstacle(Point::new(k + 2, (k * 7) % 20 + 2));
    }
    let problem = builder
        .valve(Valve::new(
            ValveId(0),
            Point::new(4, 12),
            "01".parse().unwrap(),
        ))
        .valve(Valve::new(
            ValveId(1),
            Point::new(18, 12),
            "01".parse().unwrap(),
        ))
        .valve(Valve::new(
            ValveId(2),
            Point::new(12, 4),
            "10".parse().unwrap(),
        ))
        .valve(Valve::new(
            ValveId(3),
            Point::new(12, 18),
            "10".parse().unwrap(),
        ))
        .lm_cluster(vec![ValveId(0), ValveId(1)])
        .lm_cluster(vec![ValveId(2), ValveId(3)])
        .pins((1..23).step_by(2).map(|i| Point::new(i, 0)))
        .build()
        .expect("valid problem");
    let report = PacorFlow::new(FlowConfig::default())
        .run(&problem)
        .expect("flow runs");
    assert_eq!(report.completion_rate(), 1.0);
    assert_eq!(report.clusters_multi, 2);
}

#[test]
fn zero_delta_forces_exact_matching() {
    // δ = 0: lengths must be exactly equal; only even-distance pairs can
    // match perfectly (odd ones carry a parity-forced mismatch of 1).
    let problem = Problem::builder("exact", 20, 20)
        .delta(0)
        .valve(Valve::new(
            ValveId(0),
            Point::new(4, 10),
            "01".parse().unwrap(),
        ))
        .valve(Valve::new(
            ValveId(1),
            Point::new(12, 10),
            "01".parse().unwrap(),
        ))
        .lm_cluster(vec![ValveId(0), ValveId(1)])
        .pins((1..19).step_by(2).map(|i| Point::new(0, i)))
        .build()
        .expect("valid");
    let report = PacorFlow::new(FlowConfig::default()).run(&problem).unwrap();
    assert_eq!(report.completion_rate(), 1.0);
    // Distance 8 (even): the midpoint split is exact.
    assert_eq!(report.matched_clusters, 1);
    assert_eq!(report.clusters[0].mismatch, Some(0));
}

#[test]
fn incompatible_valves_get_separate_pins() {
    // Three mutually incompatible valves: three clusters, three pins.
    let problem = Problem::builder("pins", 16, 16)
        .valve(Valve::new(
            ValveId(0),
            Point::new(4, 4),
            "001".parse().unwrap(),
        ))
        .valve(Valve::new(
            ValveId(1),
            Point::new(8, 8),
            "010".parse().unwrap(),
        ))
        .valve(Valve::new(
            ValveId(2),
            Point::new(12, 4),
            "100".parse().unwrap(),
        ))
        .pins((1..15).step_by(2).map(|i| Point::new(i, 0)))
        .build()
        .expect("valid");
    let report = PacorFlow::new(FlowConfig::default()).run(&problem).unwrap();
    assert_eq!(report.completion_rate(), 1.0);
    assert_eq!(report.clusters.len(), 3);
}
