//! Run-digest integration tests: the deterministic document must be
//! byte-identical run to run and across the equivalence axis (the
//! rip-up policy), and the structural differ must stay quiet across it
//! while flagging genuine quality regressions.

use pacor_repro::pacor::route::RipUpPolicy;
use pacor_repro::pacor::{
    self, obs, synthesize_params, DesignParams, FlowConfig, PacorFlow,
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

fn digest_with(config: FlowConfig) -> obs::RunDigest {
    let problem = synthesize_params(STARVED, 42);
    let session = obs::Session::begin();
    let report = PacorFlow::new(config).run(&problem).expect("routes");
    let obs_report = session.finish();
    pacor::run_digest(&problem, &config, &report, &obs_report)
}

#[test]
fn deterministic_json_is_byte_identical_across_the_full_equivalence_matrix() {
    let baseline = digest_with(FlowConfig::default()).deterministic_json();
    for policy in [RipUpPolicy::Full, RipUpPolicy::Incremental] {
        let doc = digest_with(FlowConfig::default().with_ripup_policy(policy)).deterministic_json();
        assert_eq!(
            doc, baseline,
            "deterministic digest diverged under {policy:?}"
        );
    }
}

#[test]
fn differ_stays_quiet_across_equivalence_axes() {
    let base = digest_with(FlowConfig::default());
    let other = digest_with(FlowConfig::default().with_ripup_policy(RipUpPolicy::Full));
    let diff = obs::diff_runs(&base, &other);
    assert!(
        !diff.has_verdicts(),
        "equivalence-axis runs must diff clean:\n{}",
        obs::render_diff(&diff, 20)
    );
    // The wall section still reports the axis change as information.
    assert!(diff.wall.iter().any(|e| e.what == "wall.policy"));
}

#[test]
fn differ_flags_injected_quality_and_span_regressions() {
    let base = digest_with(FlowConfig::default());
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
