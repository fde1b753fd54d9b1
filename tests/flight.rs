//! Flight-recorder determinism (docs/OBSERVABILITY.md): the post-mortem
//! report and the ASCII heatmap are **byte-identical** run to run, and
//! the report's rip-ups by reason add up to the rip-up counter.

use pacor_repro::pacor::obs;
use pacor_repro::pacor::{synthesize_params, DesignParams, FlowConfig, PacorFlow};

/// A chip with more clusters than control pins: negotiation converges
/// in its first round (sparse, pairs only), but escape routing *must*
/// leave nets unrouted — the post-mortem has real failures to explain.
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

/// The contended chip of `tests/determinism.rs`: negotiation rips up,
/// and the report must still repeat exactly.
const DENSE: DesignParams = DesignParams {
    name: "D1-dense24",
    width: 24,
    height: 24,
    valves: 18,
    control_pins: 40,
    obstacles: 50,
    multi_clusters: 8,
    pairs_only: false,
};

fn run_recorded(params: DesignParams) -> (String, String) {
    let problem = synthesize_params(params, 42);
    obs::flight_install(obs::RecorderConfig::default());
    PacorFlow::default().run(&problem).expect("chip runs");
    let log = obs::flight_take().expect("recorder installed");
    (obs::post_mortem_json(&log), obs::render_heatmap(&log))
}

#[test]
fn report_bytes_invariant_on_contended_chip() {
    let (base_report, base_heat) = run_recorded(DENSE);
    assert!(
        base_report.contains("\"ripups\""),
        "dense chip report must carry negotiation data"
    );
    let (report, heat) = run_recorded(DENSE);
    assert_eq!(report, base_report, "report drifted across runs");
    assert_eq!(heat, base_heat, "heatmap drifted across runs");
}

#[test]
fn no_recorder_means_no_log() {
    let problem = synthesize_params(STARVED, 42);
    PacorFlow::new(FlowConfig::default())
        .run(&problem)
        .expect("chip runs");
    assert!(
        obs::flight_take().is_none(),
        "a run without flight_install must leave no recorder behind"
    );
}

#[test]
fn tiny_capacity_drops_events_but_keeps_a_valid_report() {
    let problem = synthesize_params(DENSE, 42);
    obs::flight_install(obs::RecorderConfig {
        capacity: 8,
        snapshot_cadence: 1,
        ..obs::RecorderConfig::default()
    });
    PacorFlow::new(FlowConfig::default())
        .run(&problem)
        .expect("chip runs");
    let log = obs::flight_take().expect("recorder installed");
    assert!(
        log.dropped_events() > 0,
        "a dense run must overflow an 8-event ring"
    );
    assert_eq!(log.events().len(), 8, "ring keeps exactly its capacity");
    let report = obs::post_mortem_json(&log);
    assert!(report.contains("\"dropped_events\": "));
    // Still well-formed JSON even with most of the run dropped.
    serde_json::from_str::<serde::Value>(&report).expect("report parses");
}

#[test]
fn report_is_a_pure_function_of_the_log() {
    let (a, ha) = run_recorded(STARVED);
    // The report must be non-trivial: a failing chip names its unrouted
    // nets, and the run produced events and snapshots.
    assert!(
        a.contains("\"unrouted_nets\": [\n    {\"cluster\": "),
        "starved chip must leave nets unrouted:\n{a}"
    );
    assert!(a.contains("\"schema\": \"pacor-postmortem-v2\""));
    assert!(ha.contains("congestion heatmap"));
    let (b, hb) = run_recorded(STARVED);
    assert_eq!(a, b, "same run, same bytes");
    assert_eq!(ha, hb);
}

/// The post-mortem keeps only the totals that no counter holds; its one
/// split of a counted total, the rip-ups by reason, must add up to the
/// counter, and the totals the run digest pins must be gone.
#[test]
fn post_mortem_splits_add_up_to_the_counters() {
    let problem = synthesize_params(DENSE, 42);
    let session = obs::Session::begin();
    obs::flight_install(obs::RecorderConfig::default());
    PacorFlow::default().run(&problem).expect("chip runs");
    let log = obs::flight_take().expect("recorder installed");
    let counters = session.finish();
    let text = obs::post_mortem_json(&log);
    let doc: serde::Value = serde_json::from_str(&text).expect("report parses");
    let int = |v: &serde::Value| match v {
        serde::Value::Int(i) => *i,
        other => panic!("expected an integer, got {other:?}"),
    };

    let negotiation = doc.field("negotiation").unwrap();
    let serde::Value::Object(reasons) = negotiation.field("ripups_by_reason").unwrap() else {
        panic!("ripups_by_reason must be an object:\n{text}");
    };
    let by_reason: i64 = reasons.iter().map(|(_, n)| int(n)).sum();
    let ripups = counters.counter("negotiate.ripups");
    assert!(ripups > 0, "the dense chip must rip up");
    assert_eq!(by_reason, ripups as i64, "rip-ups by reason:\n{text}");
    assert_eq!(int(doc.field("dropped_events").unwrap()), 0);
    assert!(
        int(negotiation.field("failed_attempts").unwrap())
            <= int(negotiation.field("attempts").unwrap()),
        "{text}"
    );
    for key in ["outcome", "lm_clusters", "detour", "mst"] {
        assert!(doc.field(key).is_err(), "the digest holds {key}:\n{text}");
    }
}
