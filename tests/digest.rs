//! Run-digest integration tests: the deterministic document must be
//! byte-identical run to run, and the structural differ must stay quiet
//! across repeated runs while flagging genuine quality regressions.
//! A committed digest of S1 must keep parsing and compare clean against
//! a fresh route, so `tables compare` still reads older records: it was
//! written while `outcome` repeated five counter totals and the `astar.*`
//! totals sat in `wall.work_counters`.

use pacor_repro::pacor::{
    self, obs, synthesize_params, BenchDesign, DesignParams, FlowConfig, PacorFlow,
};

/// A chip with more clusters than control pins: partial completion,
/// so the digest's cluster and outcome fields exercise the unrouted
/// paths too (same fixture as the post-mortem CLI test).
const STARVED: DesignParams = DesignParams {
    name: "T1-starved",
    width: 20,
    height: 20,
    valves: 8,
    control_pins: 2,
    obstacles: 0,
    multi_clusters: 3,
    pairs_only: true,
};

fn starved_digest() -> obs::RunDigest {
    let problem = synthesize_params(STARVED, 42);
    let config = FlowConfig::default();
    let session = obs::Session::begin();
    let report = PacorFlow::new(config).run(&problem).expect("routes");
    let obs_report = session.finish();
    pacor::run_digest(&problem, &config, &report, &obs_report)
}

#[test]
fn repeated_runs_share_a_digest_and_diff_clean() {
    let base = starved_digest();
    let again = starved_digest();
    assert_eq!(
        again.deterministic_json(),
        base.deterministic_json(),
        "deterministic digest diverged across runs"
    );
    let diff = obs::diff_runs(&base, &again);
    assert!(
        !diff.has_verdicts(),
        "repeated runs must diff clean:\n{}",
        obs::render_diff(&diff, 20)
    );
}

#[test]
fn differ_flags_injected_quality_and_span_regressions() {
    let base = starved_digest();
    let mut bad = base.clone();
    // A quality drift and a +30% span blow-up well past both noise
    // gates (25% relative AND 25 ms absolute).
    bad.outcome.total_length += 17;
    let span = bad.wall.spans.first_mut().expect("run has root spans");
    span.excl_us = 200_000;
    let mut worse = bad.clone();
    worse.wall.spans[0].excl_us = 260_000;
    let diff = obs::diff_runs(&bad, &worse);
    assert!(
        diff.span_changed.iter().any(|s| s.regressed),
        "a +30%/+60ms exclusive-time jump must register as regressed"
    );
    let diff = obs::diff_runs(&base, &bad);
    assert!(diff.has_verdicts());
    assert!(
        diff.quality
            .iter()
            .any(|e| e.what == "outcome.total_length"),
        "total_length drift must surface as a quality verdict"
    );
}

/// The digest of S1 at design seed 42 that `pacor-cli route --quiet
/// --digest-out FILE S1` wrote in the older layout, committed under
/// tests/fixtures/digest/.
const COMMITTED_S1: &str = include_str!("fixtures/digest/S1.json");

#[test]
fn committed_s1_digest_parses_and_matches_a_fresh_route() {
    let committed = obs::RunDigest::from_json(COMMITTED_S1).expect("committed digest parses");
    // Built the way `route --digest-out` builds it: an outer session
    // around a default-config run.
    let problem = BenchDesign::S1.synthesize(42);
    let config = FlowConfig::default();
    let session = obs::Session::begin();
    let report = PacorFlow::new(config).run(&problem).expect("routes");
    let obs_report = session.finish();
    let fresh = pacor::run_digest(&problem, &config, &report, &obs_report);
    assert_eq!(
        fresh.deterministic_json(),
        committed.deterministic_json(),
        "a fresh S1 digest drifted from the committed one"
    );
    let diff = obs::diff_runs(&committed, &fresh);
    assert!(
        !diff.has_verdicts(),
        "the committed S1 digest must diff clean:\n{}",
        obs::render_diff(&diff, 20)
    );
}
