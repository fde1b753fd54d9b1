//! Anti-rot guard for `docs/OBSERVABILITY.md`: run a smoke flow that
//! exercises both rip-up policies, MST splits, the last-resort escape
//! phase and length-matching detours with the flight recorder
//! installed and the telemetry stream collecting, and assert that
//! every counter, histogram, span and event kind actually emitted
//! appears in the catalog. Adding an emit site without cataloging it
//! fails here. The Counters, Histograms, Spans and Events tables are
//! also checked the other way: each row must be emitted by the smoke
//! flow or sit in [`NEVER_FIRES`], so a deleted emit site cannot leave
//! a stale row behind.

use pacor_repro::pacor::obs::{self, TraceEvent};
use pacor_repro::pacor::route::RipUpPolicy;
use pacor_repro::pacor::{
    self, synthesize_params, BenchDesign, DesignParams, FlowConfig, PacorFlow, FLOW_BENCH_CHIPS,
};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Dense enough that negotiation rips up and escape recovers, so the
/// rarer emit sites (rip-up, de-clustering) all fire.
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

/// Catalogued names the smoke flow never emits, each with the reason it
/// stays catalogued.
const NEVER_FIRES: [(&str, &str); 5] = [
    (
        "lm.reconstructed",
        "fires only when negotiation leaves an edge of a 3-6 valve LM tree \
         unrouted; no smoke chip does (their failures demote 2-valve pairs)",
    ),
    (
        "lm_reconstructed",
        "the event `lm.reconstructed` is derived from",
    ),
    (
        "mwcp.budget_hits",
        "fires only when one selection component needs more than \
         `NODE_BUDGET` search nodes, far more than the smoke chips' \
         selections need (crates/bench/tests/lm_congested_chip.rs pins a \
         route that hits it)",
    ),
    ("heartbeat", "timing mode only"),
    ("budget_exceeded", "timing mode only"),
];

/// The catalog tables checked both ways, each with the fewest rows a
/// correct parse can yield.
const TWO_WAY_TABLES: [(&str, usize); 4] = [
    ("Counters", 10),
    ("Events", 20),
    ("Spans", 10),
    ("Histograms", 2),
];

fn read_catalog() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/OBSERVABILITY.md"
    ))
    .expect("docs/OBSERVABILITY.md exists")
}

/// The backticked first-column names of the catalog table under the
/// `## {heading}` section.
fn table_names(catalog: &str, heading: &str) -> Vec<String> {
    let section = catalog
        .split("\n## ")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("catalog has a `## {heading}` section"));
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .map(|l| l[..l.find('`').expect("name is backticked")].to_string())
        .collect()
}

/// Every counter, histogram, span and event kind the smoke flow emits
/// (run once per test binary).
fn smoke_flow_names() -> &'static BTreeSet<String> {
    static NAMES: OnceLock<BTreeSet<String>> = OnceLock::new();
    NAMES.get_or_init(run_smoke_flow)
}

fn run_smoke_flow() -> BTreeSet<String> {
    let problem = synthesize_params(DENSE, 42);

    let session = obs::Session::begin();
    let config = FlowConfig::default().with_threads(4);
    obs::flight_install(obs::RecorderConfig::default());
    let sink = obs::MemorySink::new();
    let lines_handle = sink.lines();
    obs::telemetry_install(obs::TelemetryConfig::deterministic(), vec![Box::new(sink)]);
    let mut kinds: BTreeSet<&'static str> = BTreeSet::new();
    for policy in [RipUpPolicy::Full, RipUpPolicy::Incremental] {
        PacorFlow::new(config.with_ripup_policy(policy))
            .run(&problem)
            .expect("dense chip routes");
    }
    // B2-dense48 splits MST clusters and reaches the last-resort escape
    // phase (`mst.splits`, `mst_split`, `escape.phase3`); the 24² chip
    // does neither.
    let b2 = FLOW_BENCH_CHIPS
        .iter()
        .find(|c| c.name == "B2-dense48")
        .expect("B2-dense48 is a bench chip");
    PacorFlow::new(config)
        .run(&synthesize_params(*b2, 42))
        .expect("B2 routes");
    // S2 inserts length-matching detour segments; the dense chip does not.
    PacorFlow::new(config)
        .run(&BenchDesign::S2.synthesize(42))
        .expect("S2 routes");
    let log = obs::flight_take().expect("recorder installed");
    obs::telemetry_take()
        .expect("telemetry installed")
        .expect("no sink errors");
    kinds.extend(log.events().iter().map(|e| e.kind()));
    let report = session.finish();

    // Stream kinds pulled from the raw JSONL stream, so the doc's
    // Events table rots as loudly for them as for the ring kinds.
    let telemetry_kinds: BTreeSet<String> = lines_handle
        .lock()
        .expect("sink lines")
        .iter()
        .map(|l| {
            let rest = l.split("\"kind\":\"").nth(1).expect("line carries kind");
            rest[..rest.find('"').expect("kind is quoted")].to_string()
        })
        .collect();
    assert!(
        telemetry_kinds.contains("round_progress") && telemetry_kinds.contains("escape_progress"),
        "smoke flow too tame to guard the telemetry catalog: {telemetry_kinds:?}"
    );

    let mut names: BTreeSet<String> = BTreeSet::new();
    names.extend(report.counters().map(|(n, _)| n.to_string()));
    names.extend(report.histograms().map(|(n, _)| n.to_string()));
    for event in report.events() {
        match event {
            TraceEvent::Span { name, .. } | TraceEvent::Counter { name, .. } => {
                names.insert(name.to_string());
            }
        }
    }
    names.extend(kinds.iter().map(|k| k.to_string()));
    names.extend(telemetry_kinds);
    assert!(
        names.contains("negotiate.ripups")
            && names.contains("rip_up")
            && names.contains("detour_segment"),
        "smoke flow too tame to guard the catalog: {names:?}"
    );
    names
}

#[test]
fn every_emitted_name_is_catalogued() {
    let names = smoke_flow_names();
    let catalog = read_catalog();
    let missing: Vec<&String> = names
        .iter()
        .filter(|n| !catalog.contains(&format!("`{n}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "emitted names missing from docs/OBSERVABILITY.md: {missing:?}"
    );
}

/// Checks the named catalog tables the other way round: every row is
/// emitted by the smoke flow or allowlisted in [`NEVER_FIRES`], and no
/// allowlisted name fires.
fn assert_rows_are_emitted(headings: &[&str]) {
    let names = smoke_flow_names();
    let catalog = read_catalog();
    let mut rows = Vec::new();
    for &(heading, min_rows) in TWO_WAY_TABLES.iter().filter(|(h, _)| headings.contains(h)) {
        let table = table_names(&catalog, heading);
        assert!(
            table.len() >= min_rows,
            "`## {heading}` table parsed too small: {table:?}"
        );
        rows.extend(table);
    }
    let never: BTreeSet<&str> = NEVER_FIRES.iter().map(|&(name, _)| name).collect();
    let stale: Vec<&String> = rows
        .iter()
        .filter(|r| !names.contains(*r) && !never.contains(r.as_str()))
        .collect();
    assert!(
        stale.is_empty(),
        "catalogued names the smoke flow never emits (stale rows?): {stale:?}"
    );
    for name in never {
        assert!(
            TWO_WAY_TABLES
                .iter()
                .any(|&(heading, _)| table_names(&catalog, heading).iter().any(|r| r == name)),
            "{name} is allowlisted but not catalogued"
        );
        assert!(
            !names.contains(name),
            "{name} now fires in the smoke flow; drop it from NEVER_FIRES"
        );
    }
}

#[test]
fn every_catalogued_counter_and_event_is_emitted() {
    assert_rows_are_emitted(&["Counters", "Events"]);
}

#[test]
fn every_catalogued_span_and_histogram_is_emitted() {
    assert_rows_are_emitted(&["Spans", "Histograms"]);
}

/// Recursively collects every object key of a JSON value.
fn collect_keys(value: &serde::Value, keys: &mut BTreeSet<String>) {
    match value {
        serde::Value::Object(entries) => {
            for (k, v) in entries {
                keys.insert(k.clone());
                collect_keys(v, keys);
            }
        }
        serde::Value::Array(items) => {
            for v in items {
                collect_keys(v, keys);
            }
        }
        _ => {}
    }
}

#[test]
fn digest_and_diff_schema_keys_are_catalogued() {
    let problem = synthesize_params(DENSE, 42);
    let config = FlowConfig::default();
    let session = obs::Session::begin();
    let report = PacorFlow::new(config).run(&problem).expect("routes");
    let obs_report = session.finish();
    let digest = pacor::run_digest(&problem, &config, &report, &obs_report);

    // A perturbed clone populates every rundiff section: fingerprint
    // drift, quality drift, counter drift, and span add/remove/change.
    let mut other = digest.clone();
    other.fingerprint.config[1].1 = "0.987".to_string();
    other.outcome.total_length += 1;
    if let Some(c) = other.counters.first_mut() {
        c.1 += 1;
    }
    let moved = other.wall.spans.remove(0);
    other.wall.spans.push(obs::SpanNode {
        name: "added.span".to_string(),
        ..moved
    });
    let diff = obs::diff_runs(&digest, &other);
    assert!(
        !diff.fingerprint.is_empty()
            && !diff.quality.is_empty()
            && !diff.metrics.is_empty()
            && !diff.span_added.is_empty()
            && !diff.span_removed.is_empty(),
        "perturbation too tame to guard every rundiff section"
    );

    let mut keys: BTreeSet<String> = BTreeSet::new();
    let digest_doc: serde::Value =
        serde_json::from_str(&digest.to_json()).expect("digest JSON parses");
    collect_keys(&digest_doc, &mut keys);
    let diff_doc: serde::Value =
        serde_json::from_str(&obs::diff_json(&diff)).expect("diff JSON parses");
    collect_keys(&diff_doc, &mut keys);
    assert!(
        keys.contains("fingerprint") && keys.contains("span_changed") && keys.contains("slack"),
        "schema walk too tame to guard the catalog: {keys:?}"
    );

    let catalog = read_catalog();
    let missing: Vec<&String> = keys
        .iter()
        .filter(|k| !catalog.contains(&format!("`{k}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "digest/diff schema keys missing from docs/OBSERVABILITY.md: {missing:?}"
    );
}
