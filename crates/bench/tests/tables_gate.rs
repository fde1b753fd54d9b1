//! End-to-end tests of the `tables compare` / `tables regress` gates:
//! the differ must exit non-zero on a seeded perturbation (quality
//! drift + a >25%-and->25ms span regression) and stay green on clean
//! inputs, and the regress rule engine must reproduce the baseline
//! determinism gate against fixture files.

use pacor::{obs, FlowConfig, PacorFlow};
use pacor_bench::{FlowBenchEntry, FlowBenchReport};
use std::process::Command;

fn tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn work_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pacor_tables_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn real_digest() -> obs::RunDigest {
    let problem = pacor::BenchDesign::S1.synthesize(42);
    let config = FlowConfig::default();
    let session = obs::Session::begin();
    let report = PacorFlow::new(config).run(&problem).expect("routes");
    let obs_report = session.finish();
    pacor::run_digest(&problem, &config, &report, &obs_report)
}

#[test]
fn compare_is_quiet_on_identical_digests_and_flags_seeded_perturbation() {
    let dir = work_dir();
    let mut base = real_digest();
    // Pin the first root span's exclusive time high enough that a +30%
    // injection clears both noise gates (25% relative AND 25 ms).
    base.wall.spans.first_mut().expect("run has spans").excl_us = 100_000;
    let base_path = dir.join("base_digest.json");
    std::fs::write(&base_path, base.to_json()).unwrap();

    // Identical inputs: zero verdicts, zero exit.
    let ok = tables(&[
        "compare",
        base_path.to_str().unwrap(),
        base_path.to_str().unwrap(),
    ]);
    assert!(ok.status.success(), "self-compare must exit 0");
    let out = String::from_utf8_lossy(&ok.stdout);
    assert!(out.contains("OK: no differences beyond noise"), "{out}");

    // Seeded perturbation: a routed-length drift plus a +30% (+30 ms)
    // span regression.
    let mut bad = base.clone();
    bad.outcome.total_length += 17;
    bad.wall.spans[0].excl_us = 130_000;
    let bad_path = dir.join("bad_digest.json");
    std::fs::write(&bad_path, bad.to_json()).unwrap();

    let diff_path = dir.join("diff.json");
    let fail = tables(&[
        "compare",
        base_path.to_str().unwrap(),
        bad_path.to_str().unwrap(),
        "--out",
        diff_path.to_str().unwrap(),
    ]);
    assert_eq!(fail.status.code(), Some(1), "verdicts must exit 1");
    let out = String::from_utf8_lossy(&fail.stdout);
    assert!(out.contains("outcome.total_length"), "{out}");
    assert!(out.contains("FAIL:"), "{out}");
    // The span regression ranks in the span table with its sizes.
    assert!(out.contains("100.0"), "base span ms must print: {out}");
    assert!(out.contains("130.0"), "new span ms must print: {out}");
    // And the machine-readable rundiff document landed.
    let diff_text = std::fs::read_to_string(&diff_path).unwrap();
    assert!(diff_text.contains("\"schema\": \"pacor-rundiff-v1\""));
}

#[test]
fn compare_rejects_unreadable_input() {
    let out = tables(&["compare", "/no/such/a.json", "/no/such/b.json"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("reading"), "{err}");
}

fn committed_baseline() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_flow.json")
}

#[test]
fn regress_accepts_the_committed_baseline_fixture_and_flags_drift() {
    let dir = work_dir();
    let baseline = committed_baseline();
    let text = std::fs::read_to_string(&baseline).unwrap();
    let report: FlowBenchReport = serde_json::from_str(&text).unwrap();
    let fixture = FlowBenchReport {
        seed: report.seed,
        repeat: 1,
        entries: report
            .entries
            .into_iter()
            .filter(|e| e.chip == "B1-dense24")
            .collect(),
    };
    assert!(
        !fixture.entries.is_empty(),
        "baseline must carry B1 entries"
    );
    let clean_path = dir.join("regress_clean.json");
    std::fs::write(&clean_path, serde_json::to_string_pretty(&fixture).unwrap()).unwrap();
    let ok = tables(&[
        "regress",
        baseline.to_str().unwrap(),
        "--chip",
        "B1-dense24",
        "--current",
        clean_path.to_str().unwrap(),
    ]);
    assert!(
        ok.status.success(),
        "baseline must pass against itself: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let out = String::from_utf8_lossy(&ok.stdout);
    assert!(
        out.contains("7 deterministic fields"),
        "summary must count the gated fields: {out}"
    );

    // One deterministic counter off by one: the gate must fail. The
    // escape solver's label count is one of them, so a change to how
    // much it searches needs a re-baseline.
    for (field, bump) in [
        ("rounds", (|e| e.rounds += 1) as fn(&mut FlowBenchEntry)),
        ("escape_touched", |e| e.escape_touched += 1),
    ] {
        let mut drifted = fixture.clone();
        bump(&mut drifted.entries[0]);
        let drift_path = dir.join("regress_drift.json");
        std::fs::write(&drift_path, serde_json::to_string_pretty(&drifted).unwrap()).unwrap();
        let fail = tables(&[
            "regress",
            baseline.to_str().unwrap(),
            "--chip",
            "B1-dense24",
            "--current",
            drift_path.to_str().unwrap(),
        ]);
        assert_eq!(fail.status.code(), Some(1), "{field}");
        let err = String::from_utf8_lossy(&fail.stderr);
        assert!(err.contains("drift"), "{err}");
        assert!(err.contains(field), "{err}");
    }
}

#[test]
fn regress_accepts_the_whole_committed_baseline_as_current() {
    // A full `bench_flow` output carries every chip; `--current` must be
    // filtered to the gated chip like the baseline, or the other chips'
    // entries would count as drift (and, for a small chip, trip the
    // large-tier gates).
    let baseline = committed_baseline();
    let path = baseline.to_str().unwrap();
    for (chip, summary) in [
        ("B1-dense24", "2 B1-dense24 entries match the baseline"),
        ("B4-dense256", "B4-dense256 tier matches the baseline"),
    ] {
        let out = tables(&["regress", path, "--chip", chip, "--current", path]);
        assert!(
            out.status.success(),
            "{chip}: the baseline must pass against itself: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(summary), "{chip}: {stdout}");
    }
}

#[test]
fn regress_fails_an_entry_whose_stages_do_not_add_up_to_its_wall_clock() {
    let dir = work_dir();
    let baseline = committed_baseline();
    let text = std::fs::read_to_string(&baseline).unwrap();
    let report: FlowBenchReport = serde_json::from_str(&text).unwrap();
    let mut fixture = FlowBenchReport {
        seed: report.seed,
        repeat: 1,
        entries: report
            .entries
            .into_iter()
            .filter(|e| e.chip == "B3-dense96")
            .collect(),
    };
    // 2 ms outside every stage on a ~200 ms run: over 1 ms but under
    // 5% of wall_ms, so within the rule.
    fixture.entries[0].wall_ms += 2.0;
    // 30% of wall_ms outside every stage: past both thresholds.
    fixture.entries[1].wall_ms *= 1.3;
    let path = dir.join("regress_attribution.json");
    std::fs::write(&path, serde_json::to_string_pretty(&fixture).unwrap()).unwrap();
    let out = tables(&[
        "regress",
        baseline.to_str().unwrap(),
        "--chip",
        "B3-dense96",
        "--current",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("attribution gap"), "{err}");
    assert!(err.contains("\"incremental\""), "{err}");
    assert!(
        !err.contains("\"full\""),
        "a 2 ms gap under 5% of wall_ms must pass: {err}"
    );
    assert!(err.contains("1 check(s) failed"), "{err}");
}

#[test]
fn regress_enforces_the_stage_budget_rule() {
    let dir = work_dir();
    let baseline = committed_baseline();
    let text = std::fs::read_to_string(&baseline).unwrap();
    let report: FlowBenchReport = serde_json::from_str(&text).unwrap();
    let mut fixture = FlowBenchReport {
        seed: report.seed,
        repeat: 1,
        entries: report
            .entries
            .into_iter()
            .filter(|e| e.chip == "B1-dense24")
            .collect(),
    };
    // 25% over but under the 25 ms absolute floor: within budget.
    fixture.entries[0].stage_ms.escape += fixture.entries[0].stage_ms.escape * 0.3 + 1.0;
    // Past both gates: over budget.
    fixture.entries[1].stage_ms.lm_routing = fixture.entries[1].stage_ms.lm_routing * 1.3 + 30.0;
    let path = dir.join("regress_budget.json");
    std::fs::write(&path, serde_json::to_string_pretty(&fixture).unwrap()).unwrap();
    let out = tables(&[
        "regress",
        baseline.to_str().unwrap(),
        "--chip",
        "B1-dense24",
        "--current",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget blown"), "{err}");
    assert!(err.contains("lm_routing"), "{err}");
    assert!(
        !err.contains(") escape:"),
        "the sub-25ms bump must stay within budget: {err}"
    );
}
