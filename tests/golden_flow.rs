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
//! Each chip's `<chip>.digest.json` is the deterministic part of its
//! run digest: the outcome, every per-cluster verdict, every counter
//! and every histogram summary. It is the one committed record of what
//! a bench chip routed and counted; BENCH_flow.json refers to it by
//! hash (`digest_hash`).
//!
//! Regenerate fixtures after an *intentional* routing change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_flow
//! ```
//!
//! B3's telemetry stream (~122 KB) and B4's are not pinned; B0–B2's
//! are, B2's reaching escape phase 3.

use pacor_bench::{collect_telemetry, BENCH_SEED, FLOW_BENCH_CHIPS, FLOW_SMOKE_CHIP};
use pacor_repro::pacor::obs;
use pacor_repro::pacor::{run_digest, synthesize_params, DesignParams, FlowConfig, PacorFlow};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden"
    ))
}

/// The deterministic part of one run's digest and its post-mortem,
/// recorded the way `route --digest-out --report-out` records them: an
/// outer session and the flight recorder around a default run.
fn digest_and_postmortem(params: DesignParams) -> (String, String) {
    let problem = synthesize_params(params, BENCH_SEED);
    let config = FlowConfig::default();
    let session = obs::Session::begin();
    obs::flight_install(obs::RecorderConfig::default());
    let report = PacorFlow::new(config)
        .run(&problem)
        .expect("bench chips route");
    let log = obs::flight_take().expect("recorder installed");
    let digest = run_digest(&problem, &config, &report, &session.finish());
    (digest.deterministic_json(), obs::post_mortem_json(&log))
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
             UPDATE_GOLDEN=1 cargo test --test golden_flow",
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

/// Checks the chip's digest and post-mortem fixtures, plus its
/// telemetry stream when `stream` is set.
fn check_chip(params: DesignParams, stream: bool) {
    let (digest, postmortem) = digest_and_postmortem(params);
    check_or_update(&format!("{}.digest.json", params.name), &digest);
    check_or_update(&format!("{}.report.json", params.name), &postmortem);
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
fn golden_b3_dense96() {
    check_chip(FLOW_BENCH_CHIPS[2], false);
}

#[test]
fn golden_b4_dense256() {
    check_chip(FLOW_BENCH_CHIPS[3], false);
}
