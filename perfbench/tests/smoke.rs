//! Runs the benchmark on its `smoke` workload (S2 under all three
//! variants) and checks the result line against `BENCHMARK.json`: every
//! metric it names is printed with its unit, every operation is correct,
//! and the traced run's composed outcome equals the flow's (a mismatch
//! would count as a failed operation).

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Value, name: &str) -> &'a str {
    match v.field(name).unwrap() {
        Value::Str(s) => s,
        other => panic!("`{name}` is not a string: {other:?}"),
    }
}

fn array<'a>(v: &'a Value, name: &str) -> &'a [Value] {
    match v.field(name).unwrap() {
        Value::Array(items) => items,
        other => panic!("`{name}` is not an array: {other:?}"),
    }
}

/// Runs the benchmark and returns its last stdout line, parsed.
fn run(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_pacor-perfbench"))
        .args(args)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

fn check(trace: &str, section: &str) {
    let result = run(&[
        "--workload",
        "smoke",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert_eq!(result.field("correct").unwrap(), &Value::Bool(true));
    assert_eq!(result.field("failed").unwrap(), &Value::Int(0));
    assert!(matches!(result.field("attempted").unwrap(), Value::Int(n) if *n >= 1));
    let metrics = result.field("metrics").unwrap();
    let expected = array(&manifest(), section).to_vec();
    let Value::Object(printed) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(printed.len(), expected.len(), "{section}: metric count");
    for m in &expected {
        let name = str_field(m, "name");
        let got = metrics
            .field(name)
            .unwrap_or_else(|_| panic!("{name} missing"));
        assert_eq!(str_field(got, "unit"), str_field(m, "unit"), "{name} unit");
        assert!(
            matches!(got.field("value").unwrap(), Value::Float(_) | Value::Int(_)),
            "{name} value"
        );
    }
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    check("0", "end_to_end");
}

#[test]
fn traced_run_matches_the_flow_and_the_manifest() {
    check("1", "per_layer");
}

#[test]
fn held_out_design_is_recorded() {
    let result = run(&[
        "--workload",
        "smoke",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--design-seed",
        "7",
    ]);
    assert_eq!(result.field("correct").unwrap(), &Value::Bool(true));
}

#[test]
fn unknown_workload_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_pacor-perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
