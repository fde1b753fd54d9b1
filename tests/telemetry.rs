//! Streaming-telemetry determinism (docs/OBSERVABILITY.md): the raw
//! `pacor-telemetry-v1` JSONL stream, collected in deterministic mode
//! (wall-clock fields zeroed), is **byte-identical** run to run — the
//! same guarantee the flight recorder makes (`tests/flight.rs`).

use pacor_bench::collect_telemetry;
use pacor_repro::pacor::obs;
use pacor_repro::pacor::{synthesize_params, BenchDesign, DesignParams, FlowConfig, PacorFlow};

/// The starved chip of `tests/flight.rs`: converges in one round but
/// leaves nets unrouted.
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

/// The contended chip: negotiation rips up.
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

fn kind_count(lines: &[String], kind: &str) -> usize {
    let needle = format!("\"kind\":\"{kind}\"");
    lines.iter().filter(|l| l.contains(&needle)).count()
}

#[test]
fn stream_bytes_invariant_run_to_run() {
    let starved = collect_telemetry(STARVED, 42);
    assert!(starved.len() > 1, "the stream must carry events");
    assert_eq!(
        collect_telemetry(STARVED, 42),
        starved,
        "starved stream drifted"
    );
    let dense = collect_telemetry(DENSE, 42);
    assert!(
        kind_count(&dense, "round_progress") > 0,
        "dense chip stream must carry negotiation rounds"
    );
    assert_eq!(collect_telemetry(DENSE, 42), dense, "dense stream drifted");
}

#[test]
fn stream_shape_matches_run_counters() {
    // Collect the stream and the run's metrics in the same run: an
    // outer obs session absorbs the flow's counters while the
    // deterministic telemetry stream records into memory.
    let problem = synthesize_params(DENSE, 42);
    let config = FlowConfig::default();
    let sink = obs::MemorySink::new();
    let lines_handle = sink.lines();
    let session = obs::Session::begin();
    obs::telemetry_install(obs::TelemetryConfig::deterministic(), vec![Box::new(sink)]);
    PacorFlow::new(config).run(&problem).expect("chip runs");
    let emitted = obs::telemetry_take().expect("telemetry installed");
    let report = session.finish();
    let lines = lines_handle.lock().expect("sink lines").clone();

    // Envelope: versioned flow_started first, flow_finished last, and
    // the terminal event's own count agrees with the stream length.
    let first = lines.first().expect("stream is non-empty");
    assert!(first.contains("\"kind\":\"flow_started\""), "got {first}");
    assert!(first.contains("\"schema\":\"pacor-telemetry-v1\""));
    assert!(first.contains("\"design\":\"D1-dense24\""));
    let last = lines.last().expect("stream is non-empty");
    assert!(last.contains("\"kind\":\"flow_finished\""), "got {last}");
    assert!(
        last.contains(&format!("\"events\":{}", lines.len() - 1)),
        "flow_finished must count every prior event: {last}"
    );
    assert_eq!(emitted.expect("no sink errors"), lines.len() as u64);

    // Stage coverage: every stage enters exactly once and exits exactly
    // once, and entries precede exits pairwise.
    for stage in [
        "clustering",
        "lm_routing",
        "mst_routing",
        "escape",
        "detour",
    ] {
        let entered = lines
            .iter()
            .position(|l| l.contains(&format!("\"kind\":\"stage_entered\",\"stage\":\"{stage}\"")));
        let exited = lines
            .iter()
            .position(|l| l.contains(&format!("\"kind\":\"stage_exited\",\"stage\":\"{stage}\"")));
        let (e, x) = (
            entered.unwrap_or_else(|| panic!("{stage} never entered")),
            exited.unwrap_or_else(|| panic!("{stage} never exited")),
        );
        assert!(e < x, "{stage} exit precedes its entry");
    }

    // Per-round events match the negotiation counter, and deterministic
    // mode zeroes every wall-clock field.
    assert_eq!(
        kind_count(&lines, "round_progress") as u64,
        report.counter("negotiate.rounds"),
        "one round_progress per negotiation round"
    );
    for l in &lines {
        if let Some(rest) = l.split("\"elapsed_us\":").nth(1) {
            assert!(
                rest.starts_with('0'),
                "deterministic stream must zero elapsed_us: {l}"
            );
        }
    }

    // Every line is parseable JSON carrying the schema tag.
    for l in &lines {
        serde_json::from_str::<serde::Value>(l).expect("telemetry lines parse");
        assert!(l.contains("\"schema\":\"pacor-telemetry-v1\""));
    }
}

#[test]
fn no_install_means_no_stream() {
    let problem = synthesize_params(STARVED, 42);
    PacorFlow::new(FlowConfig::default())
        .run(&problem)
        .expect("chip runs");
    assert!(
        obs::telemetry_take().is_none(),
        "a run without telemetry_install must leave no stream behind"
    );
}

#[test]
fn zero_budgets_fire_once_per_stage_on_a_real_run() {
    // Timing mode with every budget at zero: each stage must trip its
    // alarm exactly once, immediately before that stage's exit event.
    let problem = synthesize_params(STARVED, 42);
    let sink = obs::MemorySink::new();
    let lines_handle = sink.lines();
    let cfg = obs::TelemetryConfig {
        deterministic: false,
        heartbeat_ms: 0,
        budgets: obs::StageBudgets {
            clustering: 0,
            lm_routing: 0,
            mst_routing: 0,
            escape: 0,
            detour: 0,
        },
    };
    obs::telemetry_install(cfg, vec![Box::new(sink)]);
    PacorFlow::new(FlowConfig::default())
        .run(&problem)
        .expect("chip runs");
    obs::telemetry_take()
        .expect("telemetry installed")
        .expect("no sink errors");
    let lines = lines_handle.lock().expect("sink lines").clone();
    for stage in [
        "clustering",
        "lm_routing",
        "mst_routing",
        "escape",
        "detour",
    ] {
        let alarms: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.contains("\"kind\":\"budget_exceeded\"")
                    && l.contains(&format!("\"stage\":\"{stage}\""))
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(alarms.len(), 1, "{stage} must alarm exactly once");
        let exit = lines
            .iter()
            .position(|l| l.contains(&format!("\"kind\":\"stage_exited\",\"stage\":\"{stage}\"")))
            .expect("stage exits");
        assert!(alarms[0] < exit, "{stage} alarm must precede its exit");
    }
}

#[test]
fn each_stage_reports_one_clock_reading() {
    // Timing mode: the stage's exit event and its trace span must
    // carry the same duration.
    let problem = BenchDesign::S2.synthesize(42);
    let sink = obs::MemorySink::new();
    let lines_handle = sink.lines();
    let session = obs::Session::begin();
    obs::telemetry_install(obs::TelemetryConfig::default(), vec![Box::new(sink)]);
    PacorFlow::new(FlowConfig::default())
        .run(&problem)
        .expect("S2 routes");
    obs::telemetry_take()
        .expect("telemetry installed")
        .expect("no sink errors");
    let trace = session.finish();
    let lines = lines_handle.lock().expect("sink lines").clone();
    for stage in [
        "clustering",
        "lm_routing",
        "mst_routing",
        "escape",
        "detour",
    ] {
        let prefix = format!("\"kind\":\"stage_exited\",\"stage\":\"{stage}\"");
        let exited: Vec<&String> = lines.iter().filter(|l| l.contains(&prefix)).collect();
        assert_eq!(exited.len(), 1, "{stage} exits once");
        let rest = exited[0]
            .split("\"elapsed_us\":")
            .nth(1)
            .expect("elapsed_us");
        let elapsed_us: u64 = rest.trim_end_matches('}').parse().expect("integer µs");
        let span = format!("stage.{stage}");
        let durs: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                obs::TraceEvent::Span { name, dur, .. } if *name == span => Some(*dur),
                _ => None,
            })
            .collect();
        assert_eq!(durs, [elapsed_us], "{span} span vs stage_exited");
    }
}
