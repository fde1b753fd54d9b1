//! Observability-layer integration tests: the trace export and the run
//! digest of a real flow run, their schema shape, and their
//! determinism.

use pacor_repro::pacor::{obs, run_digest, BenchDesign, FlowConfig, PacorFlow};
use serde::Value;

/// Runs a design under an outer observability session (the way the CLI
/// wires `--trace-out`) and returns the session's report.
fn traced_run(design: BenchDesign) -> obs::ObsReport {
    let problem = design.synthesize(42);
    let session = obs::Session::begin();
    PacorFlow::default()
        .run(&problem)
        .expect("bench designs route");
    session.finish()
}

/// The deterministic part of a design's run digest, built the way the
/// CLI's `--digest-out` builds it.
fn digest_of(design: BenchDesign) -> String {
    let problem = design.synthesize(42);
    let config = FlowConfig::default();
    let session = obs::Session::begin();
    let report = PacorFlow::new(config)
        .run(&problem)
        .expect("bench designs route");
    run_digest(&problem, &config, &report, &session.finish()).deterministic_json()
}

#[test]
fn chrome_trace_is_an_array_of_well_formed_events() {
    let report = traced_run(BenchDesign::S1);
    let json = obs::chrome_trace(&report);
    let value: Value = serde_json::from_str(&json).expect("trace is valid JSON");
    let Value::Array(events) = &value else {
        panic!("trace root must be a JSON array");
    };
    assert!(!events.is_empty());
    for event in events {
        assert!(
            matches!(event.field("name").unwrap(), Value::Str(_)),
            "name must be a string"
        );
        let Value::Str(ph) = event.field("ph").unwrap() else {
            panic!("ph must be a string");
        };
        // Every non-metadata event carries the mandatory keys;
        // metadata (`ph: "M"`) events are timestamp-free by design.
        let mandatory: &[&str] = if ph == "M" {
            &["name", "ph", "pid", "args"]
        } else {
            &["name", "ph", "ts", "pid", "tid"]
        };
        for key in mandatory {
            event
                .field(key)
                .unwrap_or_else(|_| panic!("event missing `{key}`: {event:?}"));
        }
        assert!(
            ["X", "i", "C", "M"].contains(&ph.as_str()),
            "unknown phase {ph}"
        );
    }
    // The trace names its process and its thread, and carries
    // the counter totals as a zero-duration `run.totals` span.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| match e.field("name") {
            Ok(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    for expected in ["process_name", "thread_name", "run.totals"] {
        assert!(names.contains(&expected), "trace must carry {expected}");
    }
}

#[test]
fn trace_spans_cover_every_stage() {
    let report = traced_run(BenchDesign::S1);
    for stage in [
        "stage.clustering",
        "stage.lm_routing",
        "stage.mst_routing",
        "stage.escape",
        "stage.detour",
    ] {
        assert!(report.span_count(stage) >= 1, "missing span for {stage}");
    }
    // The A* expansion counter is exported as a plottable series.
    let has_series = report
        .events()
        .iter()
        .any(|e| matches!(e, obs::TraceEvent::Counter { name, .. } if *name == "astar.expansions"));
    assert!(has_series, "expected an astar.expansions counter series");
}

#[test]
fn digest_is_byte_identical_run_to_run() {
    for design in [BenchDesign::S1, BenchDesign::S2] {
        let first = digest_of(design);
        let second = digest_of(design);
        assert_eq!(first, second, "{design:?} digests differ between runs");
        // And it must be valid JSON carrying the counters and histograms.
        let value: Value = serde_json::from_str(&first).expect("digest JSON parses");
        value.field("counters").expect("counters section");
        value.field("histograms").expect("histograms section");
    }
}

#[test]
fn flow_session_populates_report_counters() {
    let problem = BenchDesign::S1.synthesize(42);
    // No outer session: the flow's own nested session must still fill
    // the report's metrics.
    let report = PacorFlow::new(FlowConfig::default())
        .run(&problem)
        .expect("routes");
    assert!(report.metrics.counter("astar.expansions") > 0);
    assert!(report.metrics.counter("astar.queries") > 0);
    assert!(report.metrics.counter("negotiate.rounds") > 0);
    // Counters arrive name-sorted (the binary-search lookup relies on it).
    let names: Vec<&str> = report
        .metrics
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
}
