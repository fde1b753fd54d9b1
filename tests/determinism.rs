//! Determinism guarantees of the flow (docs/GUIDE.md §"Determinism"):
//! for a fixed problem, the flow produces byte-identical reports and
//! routed geometry run to run. The only nondeterministic field is the
//! wall-clock `runtime`, which is normalized away before comparing —
//! the `metrics.counters` totals are deterministic and compared in
//! full.

use pacor_repro::pacor::{
    run_digest, synthesize_params, BenchDesign, DesignParams, FlowConfig, PacorFlow, Problem,
    RouteReport, RoutedCluster,
};
use std::time::Duration;

/// Serialized report with `runtime` zeroed out. Everything else —
/// including the full observability counter totals — stays in the
/// comparison.
fn normalized(report: &RouteReport) -> String {
    let mut r = report.clone();
    r.runtime = Duration::ZERO;
    serde_json::to_string(&r).expect("reports serialize")
}

/// The full routed geometry, printed deterministically.
fn geometry(routed: &[RoutedCluster]) -> String {
    format!("{routed:?}")
}

fn run(design: BenchDesign) -> (String, String) {
    let problem = design.synthesize(42);
    let (report, routed) = PacorFlow::default()
        .run_detailed(&problem)
        .expect("bench designs route");
    (normalized(&report), geometry(&routed))
}

#[test]
fn repeated_runs_are_byte_identical() {
    for design in [BenchDesign::S1, BenchDesign::S2, BenchDesign::S3] {
        let first = run(design);
        let second = run(design);
        assert_eq!(first.0, second.0, "{design:?} report drifted across runs");
        assert_eq!(first.1, second.1, "{design:?} geometry drifted across runs");
    }
}

/// A chip dense enough that negotiation actually rips paths up, so the
/// rip-up's victim selection and history bumps are on the hook. Sparse
/// designs converge in one round and would not exercise rip-up at all.
fn dense_chip() -> Problem {
    let dense = DesignParams {
        name: "D1-dense24",
        width: 24,
        height: 24,
        valves: 18,
        control_pins: 40,
        obstacles: 50,
        multi_clusters: 8,
        pairs_only: false,
    };
    synthesize_params(dense, 42)
}

#[test]
fn dense_chip_is_byte_identical_run_to_run() {
    // The report, the geometry and, under a recording session, the
    // deterministic digest bytes must repeat: this is the test that
    // byte-compares the digest on a contended chip.
    let problem = dense_chip();
    let run = || {
        let config = FlowConfig::default();
        let session = pacor_repro::pacor::obs::Session::begin();
        let (report, routed) = PacorFlow::new(config)
            .run_detailed(&problem)
            .expect("dense chip routes");
        let digest = run_digest(&problem, &config, &report, &session.finish());
        (
            normalized(&report),
            geometry(&routed),
            digest.deterministic_json(),
        )
    };
    let first = run();
    let second = run();
    assert!(
        first.0.contains("\"negotiate.ripups\""),
        "the dense chip must reach a rip-up"
    );
    assert_eq!(first.0, second.0, "report drifted across runs");
    assert_eq!(first.1, second.1, "geometry drifted across runs");
    assert_eq!(first.2, second.2, "digest bytes drifted across runs");
}

#[test]
fn normalization_only_hides_wall_clock_fields() {
    // Guard the normalizer itself: two different designs must still
    // produce different normalized reports.
    let a = run(BenchDesign::S1);
    let b = run(BenchDesign::S2);
    assert_ne!(a.0, b.0);
}
