//! Golden end-to-end snapshots of the benchmark-suite chips.
//!
//! Every stage rewrite in this repository must be behavior-identical:
//! same routed lengths, same completion, same negotiation/escape work,
//! byte-identical post-mortem report and deterministic telemetry
//! stream. These tests lock each bench chip
//! (at the shared `BENCH_SEED`) against fixtures committed under
//! `tests/fixtures/golden/`, so an optimization PR can swap a kernel
//! and prove nothing observable moved.
//!
//! Regenerate fixtures after an *intentional* routing change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_flow -- --include-ignored
//! ```
//!
//! The largest chip (`B3-dense96`) is `#[ignore]`d because a debug-mode
//! run takes minutes; `make golden` runs it in release as part of
//! `make verify`. Its telemetry stream (~122 KB) is not pinned;
//! B0–B2's are, B2's reaching escape phase 3.

use pacor_bench::{collect_telemetry, BENCH_SEED, FLOW_BENCH_CHIPS, FLOW_SMOKE_CHIP};
use pacor_repro::pacor::obs;
use pacor_repro::pacor::{synthesize_params, DesignParams, PacorFlow};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden"
    ))
}

/// The deterministic scalar outcome of one run, serialized as the
/// metrics fixture. Key order is fixed by serde_json's BTreeMap map
/// representation, so the bytes are stable.
fn metrics_snapshot(params: DesignParams) -> String {
    let problem = synthesize_params(params, BENCH_SEED);
    let report = PacorFlow::default()
        .run(&problem)
        .expect("bench chips route");
    let c = |name: &str| report.metrics.counter(name);
    // Hand-built JSON (the vendored serde_json has no `json!`): fixed
    // key order, `{:?}` for the f64 (shortest round-trip formatting).
    format!(
        "{{\n  \"chip\": \"{}\",\n  \"seed\": {},\n  \
         \"total_length\": {},\n  \"completion_rate\": {:?},\n  \
         \"valves_routed\": {},\n  \"valves_total\": {},\n  \
         \"matched_clusters\": {},\n  \"matched_length\": {},\n  \
         \"clusters_multi\": {},\n  \"rounds\": {},\n  \"ripups\": {},\n  \
         \"escape_rounds\": {},\n  \"escape_ripped\": {},\n  \
         \"escape_declustered\": {},\n  \"astar_queries\": {},\n  \
         \"astar_expansions\": {},\n  \"detour_segments\": {}\n}}\n",
        params.name,
        BENCH_SEED,
        report.total_length,
        report.completion_rate(),
        report.valves_routed,
        report.valves_total,
        report.matched_clusters,
        report.matched_length,
        report.clusters_multi,
        c("negotiate.rounds"),
        c("negotiate.ripups"),
        c("escape.rounds"),
        c("escape.ripped"),
        c("escape.declustered"),
        c("astar.queries"),
        c("astar.expansions"),
        c("detour.segments"),
    )
}

/// The post-mortem report bytes of one flight-recorded run.
fn postmortem_snapshot(params: DesignParams) -> String {
    let problem = synthesize_params(params, BENCH_SEED);
    obs::flight_install(obs::RecorderConfig::default());
    PacorFlow::default()
        .run(&problem)
        .expect("bench chips route");
    let log = obs::flight_take().expect("recorder installed");
    obs::post_mortem_json(&log)
}

fn check_or_update(name: &str, actual: &str) {
    let path = fixture_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(fixture_dir()).expect("fixture dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_flow -- --include-ignored",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden snapshot {name} drifted — a supposedly behavior-identical \
         change moved observable output (rerun with UPDATE_GOLDEN=1 only \
         if the change is intentional)"
    );
}

/// The deterministic-mode `pacor-telemetry-v1` stream of one run, one
/// event per line.
fn telemetry_snapshot(params: DesignParams) -> String {
    let mut lines = collect_telemetry(params, BENCH_SEED).join("\n");
    lines.push('\n');
    lines
}

/// Checks the chip's metrics and post-mortem fixtures, plus its
/// telemetry stream when `stream` is set.
fn check_chip(params: DesignParams, stream: bool) {
    check_or_update(&format!("{}.json", params.name), &metrics_snapshot(params));
    check_or_update(
        &format!("{}.report.json", params.name),
        &postmortem_snapshot(params),
    );
    if stream {
        check_or_update(
            &format!("{}.telemetry.jsonl", params.name),
            &telemetry_snapshot(params),
        );
    }
}

#[test]
fn golden_b0_smoke16() {
    check_chip(FLOW_SMOKE_CHIP, true);
}

#[test]
fn golden_b1_dense24() {
    check_chip(FLOW_BENCH_CHIPS[0], true);
}

#[test]
fn golden_b2_dense48() {
    check_chip(FLOW_BENCH_CHIPS[1], true);
}

#[test]
#[ignore = "minutes in debug; `make golden` runs it in release"]
fn golden_b3_dense96() {
    check_chip(FLOW_BENCH_CHIPS[2], false);
}
