//! Flight-recorder determinism (docs/OBSERVABILITY.md): the post-mortem
//! report and the ASCII heatmap are **byte-identical** at any worker
//! thread count, because every event is emitted at a session-thread
//! commit point. They are additionally
//! identical across the two rip-up policies whenever the policies route
//! the same result (they coincide while every negotiation session
//! converges without a failed round — see DESIGN.md).

use pacor_repro::pacor::obs;
use pacor_repro::pacor::route::RipUpPolicy;
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
/// so the two rip-up policies legitimately diverge — each must still be
/// thread-count-invariant on its own.
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

fn run_recorded(params: DesignParams, threads: usize, policy: RipUpPolicy) -> (String, String) {
    let problem = synthesize_params(params, 42);
    let config = FlowConfig::default()
        .with_threads(threads)
        .with_ripup_policy(policy);
    obs::flight_install(obs::RecorderConfig::default());
    PacorFlow::new(config).run(&problem).expect("chip runs");
    let log = obs::flight_take().expect("recorder installed");
    (obs::post_mortem_json(&log), obs::render_heatmap(&log))
}

#[test]
fn report_bytes_invariant_across_threads_modes_and_policies() {
    let (base_report, base_heat) = run_recorded(STARVED, 1, RipUpPolicy::Incremental);
    // The report must be non-trivial: a failing chip names its unrouted
    // nets, and the run produced events and snapshots.
    assert!(
        !base_report.contains("\"unrouted\": []"),
        "starved chip must leave nets unrouted:\n{base_report}"
    );
    assert!(base_report.contains("\"schema\": \"pacor-postmortem-v1\""));
    assert!(base_heat.contains("congestion heatmap"));
    for threads in [1usize, 2, 4, 8] {
        for policy in [RipUpPolicy::Full, RipUpPolicy::Incremental] {
            let (report, heat) = run_recorded(STARVED, threads, policy);
            assert_eq!(
                report, base_report,
                "report drifted at threads={threads} {policy:?}"
            );
            assert_eq!(
                heat, base_heat,
                "heatmap drifted at threads={threads} {policy:?}"
            );
        }
    }
}

#[test]
fn report_bytes_invariant_per_policy_on_contended_chip() {
    for policy in [RipUpPolicy::Full, RipUpPolicy::Incremental] {
        let (base_report, base_heat) = run_recorded(DENSE, 1, policy);
        assert!(
            base_report.contains("\"ripups\""),
            "dense chip report must carry negotiation data"
        );
        for threads in [2usize, 4] {
            let (report, heat) = run_recorded(DENSE, threads, policy);
            assert_eq!(
                report, base_report,
                "{policy:?} report drifted at threads={threads}"
            );
            assert_eq!(
                heat, base_heat,
                "{policy:?} heatmap drifted at threads={threads}"
            );
        }
    }
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
    let (a, ha) = run_recorded(STARVED, 1, RipUpPolicy::Incremental);
    let (b, hb) = run_recorded(STARVED, 1, RipUpPolicy::Incremental);
    assert_eq!(a, b, "same run, same bytes");
    assert_eq!(ha, hb);
}
