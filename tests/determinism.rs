//! Determinism guarantees of the flow (docs/GUIDE.md §"Determinism"):
//! for a fixed problem, the flow produces byte-identical reports and
//! routed geometry run-to-run AND at any worker-thread count. The only
//! nondeterministic fields are the wall-clock ones (`runtime`, the
//! stage durations and the configured `threads` inside `metrics`),
//! which are normalized away before comparing — the `metrics.counters`
//! totals and task counts are deterministic and compared in full.

use pacor_repro::pacor::route::RipUpPolicy;
use pacor_repro::pacor::{
    synthesize_params, BenchDesign, DesignParams, FlowConfig, FlowMetrics, PacorFlow, RouteReport,
    RoutedCluster,
};
use std::time::Duration;

/// Serialized report with the wall-clock fields (and the machine-local
/// parallelism info they carry) zeroed out. Everything else — including
/// the full observability counter totals and the per-stage task counts —
/// stays in the comparison.
fn normalized(report: &RouteReport) -> String {
    let mut r = report.clone();
    r.runtime = Duration::ZERO;
    r.metrics = FlowMetrics {
        threads: 0,
        lm_candidate_tasks: r.metrics.lm_candidate_tasks,
        lm_scoring_tasks: r.metrics.lm_scoring_tasks,
        counters: r.metrics.counters.clone(),
        ..FlowMetrics::default()
    };
    serde_json::to_string(&r).expect("reports serialize")
}

/// The full routed geometry, printed deterministically.
fn geometry(routed: &[RoutedCluster]) -> String {
    format!("{routed:?}")
}

fn run(design: BenchDesign, threads: usize) -> (String, String) {
    let problem = design.synthesize(42);
    let flow = PacorFlow::new(FlowConfig::default().with_threads(threads));
    let (report, routed) = flow.run_detailed(&problem).expect("bench designs route");
    (normalized(&report), geometry(&routed))
}

#[test]
fn repeated_runs_are_byte_identical() {
    for design in [BenchDesign::S1, BenchDesign::S2, BenchDesign::S3] {
        let first = run(design, 1);
        let second = run(design, 1);
        assert_eq!(first.0, second.0, "{design:?} report drifted across runs");
        assert_eq!(first.1, second.1, "{design:?} geometry drifted across runs");
    }
}

#[test]
fn thread_count_does_not_change_the_result() {
    for design in [BenchDesign::S1, BenchDesign::S2, BenchDesign::S3] {
        let single = run(design, 1);
        let multi = run(design, 4);
        assert_eq!(
            single.0, multi.0,
            "{design:?} report differs between 1 and 4 threads"
        );
        assert_eq!(
            single.1, multi.1,
            "{design:?} geometry differs between 1 and 4 threads"
        );
    }
}

#[test]
fn flow_metrics_counters_are_thread_count_invariant() {
    // The counter totals come from per-task frames merged in item order,
    // so every total — A* expansions included — must agree exactly
    // between a sequential and a fanned-out run.
    for design in [BenchDesign::S1, BenchDesign::S2] {
        let problem = design.synthesize(42);
        let run = |threads: usize| {
            PacorFlow::new(FlowConfig::default().with_threads(threads))
                .run(&problem)
                .expect("bench designs route")
                .metrics
        };
        let single = run(1);
        let multi = run(4);
        assert_eq!(
            single.counters, multi.counters,
            "{design:?} counter totals differ between 1 and 4 threads"
        );
        assert_eq!(single.lm_candidate_tasks, multi.lm_candidate_tasks);
        assert_eq!(single.lm_scoring_tasks, multi.lm_scoring_tasks);
        assert!(
            single.counter("astar.expansions") > 0,
            "{design:?} must report A* work"
        );
        assert!(single.counter("astar.queries") > 0);
    }
}

#[test]
fn ripup_policies_are_thread_count_invariant() {
    // A chip dense enough that negotiation actually rips paths up, so
    // the incremental policy's owner-index bookkeeping is on the hook:
    // its victim selection and history bumps must be identical whether
    // the LM stage fans out across threads or runs sequentially.
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
    let problem = synthesize_params(dense, 42);
    for policy in [RipUpPolicy::Full, RipUpPolicy::Incremental] {
        let run = |threads: usize| {
            let flow = PacorFlow::new(
                FlowConfig::default()
                    .with_threads(threads)
                    .with_ripup_policy(policy),
            );
            let (report, routed) = flow.run_detailed(&problem).expect("dense chip routes");
            (normalized(&report), geometry(&routed))
        };
        let single = run(1);
        let multi = run(4);
        assert_eq!(
            single.0, multi.0,
            "{policy:?} report differs between 1 and 4 threads"
        );
        assert_eq!(
            single.1, multi.1,
            "{policy:?} geometry differs between 1 and 4 threads"
        );
    }
}

#[test]
fn negotiation_modes_are_thread_count_invariant() {
    // The whole flow — report, geometry, and the observability counter
    // totals — must be byte-identical at every worker-thread count,
    // under both rip-up policies. The same dense chip as
    // `ripup_policies_are_thread_count_invariant`: sparse designs
    // converge in one round and would not exercise rip-up at all. This
    // is the test that byte-compares `metrics_json` on a contended chip.
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
    let problem = synthesize_params(dense, 42);
    for policy in [RipUpPolicy::Full, RipUpPolicy::Incremental] {
        let run = |threads: usize| {
            let session = pacor_repro::pacor::obs::Session::begin();
            let flow = PacorFlow::new(
                FlowConfig::default()
                    .with_threads(threads)
                    .with_ripup_policy(policy),
            );
            let (report, routed) = flow.run_detailed(&problem).expect("dense chip routes");
            let metrics = pacor_repro::pacor::obs::metrics_json(&session.finish());
            (normalized(&report), geometry(&routed), metrics)
        };
        let baseline = run(1);
        for threads in [2, 4, 8] {
            let multi = run(threads);
            assert_eq!(
                baseline.0, multi.0,
                "{policy:?} report differs between 1 and {threads} threads"
            );
            assert_eq!(
                baseline.1, multi.1,
                "{policy:?} geometry differs between 1 and {threads} threads"
            );
            assert_eq!(
                baseline.2, multi.2,
                "{policy:?} metrics bytes differ between 1 and {threads} threads"
            );
        }
    }
}

#[test]
fn normalization_only_hides_wall_clock_fields() {
    // Guard the normalizer itself: two different designs must still
    // produce different normalized reports.
    let a = run(BenchDesign::S1, 1);
    let b = run(BenchDesign::S2, 1);
    assert_ne!(a.0, b.0);
}
