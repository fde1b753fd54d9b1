//! Serde round-trip tests for every serializable public type — problems
//! and reports must survive the JSON interchange the CLI uses.

use pacor_repro::grid::{DesignRules, GridPath, Point, Rect};
use pacor_repro::pacor::{
    BenchDesign, FlowConfig, FlowMetrics, FlowVariant, PacorFlow, Problem, RouteReport,
};
use pacor_repro::valves::{ActivationSequence, Cluster, ClusterId, Valve, ValveId};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn point_and_rect() {
    let p = Point::new(-3, 17);
    assert_eq!(roundtrip(&p), p);
    let r = Rect::from_corners(Point::new(0, 0), Point::new(5, 9));
    assert_eq!(roundtrip(&r), r);
}

#[test]
fn grid_path() {
    let path = GridPath::new(vec![Point::new(0, 0), Point::new(1, 0), Point::new(1, 1)]).unwrap();
    let back = roundtrip(&path);
    assert_eq!(back, path);
    assert_eq!(back.len(), 2);
}

#[test]
fn design_rules() {
    let rules = DesignRules::new(80.0, 120.0).unwrap();
    let back = roundtrip(&rules);
    assert_eq!(back.pitch_um(), rules.pitch_um());
}

#[test]
fn activation_sequence_and_valve() {
    let seq: ActivationSequence = "01X10".parse().unwrap();
    assert_eq!(roundtrip(&seq), seq);
    let valve = Valve::new(ValveId(3), Point::new(7, 7), seq);
    assert_eq!(roundtrip(&valve), valve);
}

#[test]
fn cluster() {
    let c = Cluster::new(ClusterId(2), vec![ValveId(0), ValveId(5)], true);
    let back = roundtrip(&c);
    assert_eq!(back, c);
    assert!(back.is_length_matched());
}

#[test]
fn whole_problem() {
    let problem = BenchDesign::S2.synthesize(9);
    let back: Problem = roundtrip(&problem);
    assert_eq!(back.valve_count(), problem.valve_count());
    assert_eq!(back.lm_clusters, problem.lm_clusters);
    assert_eq!(back.pins, problem.pins);
    assert_eq!(back.obstacles, problem.obstacles);
    back.validate().expect("round-tripped problem stays valid");
}

#[test]
fn whole_report() {
    let problem = BenchDesign::S1.synthesize(42);
    let report = PacorFlow::new(FlowConfig::default()).run(&problem).unwrap();
    assert!(
        !report.metrics.counters.is_empty(),
        "a real run must carry counters through the round-trip"
    );
    let back: RouteReport = roundtrip(&report);
    assert_eq!(back, report);
}

#[test]
fn flow_metrics_roundtrip() {
    let metrics = FlowMetrics {
        counters: vec![
            ("astar.expansions".to_string(), 12345),
            ("negotiate.rounds".to_string(), 2),
        ],
    };
    let back = roundtrip(&metrics);
    assert_eq!(back, metrics);
    assert_eq!(back.counter("astar.expansions"), 12345);
}

#[test]
fn flow_config_roundtrip_preserves_variant() {
    for v in FlowVariant::ALL {
        let cfg = FlowConfig::for_variant(v);
        let back: FlowConfig = roundtrip(&cfg);
        assert_eq!(back, cfg);
    }
}

#[test]
fn routed_problem_from_roundtripped_input_matches() {
    // Routing the round-tripped problem gives the identical report —
    // serialization must not perturb anything the flow consumes.
    let problem = BenchDesign::S1.synthesize(3);
    let back: Problem = roundtrip(&problem);
    let a = PacorFlow::new(FlowConfig::default()).run(&problem).unwrap();
    let b = PacorFlow::new(FlowConfig::default()).run(&back).unwrap();
    assert_eq!(a.total_length, b.total_length);
    assert_eq!(a.matched_clusters, b.matched_clusters);
    assert_eq!(a.clusters, b.clusters);
}
