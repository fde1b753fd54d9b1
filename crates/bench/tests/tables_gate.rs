//! End-to-end tests of the `tables compare` / `tables regress` gates:
//! the differ must exit non-zero on a seeded perturbation (quality
//! drift + a >25%-and->25ms span regression) and stay green on clean
//! inputs, and the regress gate must fail a different run, an
//! unattributed wall-clock and a blown stage budget on fixture files.
//! The committed baseline must name the golden digests by hash, and
//! `bench_flow` must refuse its retired flags.

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

fn committed_report() -> FlowBenchReport {
    let text = std::fs::read_to_string(committed_baseline()).unwrap();
    serde_json::from_str(&text).unwrap()
}

/// The committed baseline's `chip` entries, as a one-chip report.
fn baseline_fixture(chip: &str) -> FlowBenchReport {
    let report = committed_report();
    let entries: Vec<FlowBenchEntry> = report
        .entries
        .into_iter()
        .filter(|e| e.chip == chip)
        .collect();
    assert!(!entries.is_empty(), "baseline must carry {chip} entries");
    FlowBenchReport {
        seed: report.seed,
        repeat: 1,
        entries,
    }
}

/// `tables regress` of `chip` against the committed baseline, with
/// `current` written to `file` as the fresh run.
fn regress(chip: &str, current: &FlowBenchReport, file: &str) -> std::process::Output {
    let path = work_dir().join(file);
    std::fs::write(&path, serde_json::to_string_pretty(current).unwrap()).unwrap();
    tables(&[
        "regress",
        committed_baseline().to_str().unwrap(),
        "--chip",
        chip,
        "--current",
        path.to_str().unwrap(),
    ])
}

#[test]
fn regress_accepts_the_committed_baseline_fixture_and_flags_drift() {
    let fixture = baseline_fixture("B1-dense24");
    let ok = regress("B1-dense24", &fixture, "regress_clean.json");
    assert!(
        ok.status.success(),
        "baseline must pass against itself: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let out = String::from_utf8_lossy(&ok.stdout);
    assert!(
        out.contains("B1-dense24 is the baseline's run and keeps its 5 stage budgets"),
        "summary must name the run check and count the budgets: {out}"
    );

    // A run that routed or counted anything differently hashes
    // differently: its timings cannot be judged against the baseline's.
    let mut drifted = fixture.clone();
    drifted.entries[0].digest_hash += 1;
    let fail = regress("B1-dense24", &drifted, "regress_drift.json");
    assert_eq!(fail.status.code(), Some(1));
    let err = String::from_utf8_lossy(&fail.stderr);
    assert!(
        err.contains("different run: B1-dense24 digest_hash"),
        "{err}"
    );
    assert!(err.contains("B1-dense24.digest.json"), "{err}");
    assert!(err.contains("make bench-flow"), "{err}");
}

#[test]
fn baseline_hashes_name_the_golden_digests() {
    // Each committed entry times the run its chip's golden digest pins.
    for e in committed_report().entries {
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "../../tests/fixtures/golden/{}.digest.json",
            e.chip
        ));
        let digest = std::fs::read(&golden).expect("every bench chip has a golden digest");
        assert_eq!(e.digest_hash, obs::fnv1a64(&digest), "{}", e.chip);
    }
}

#[test]
fn bench_flow_rejects_the_retired_flags() {
    // `bench_flow` takes neither a telemetry cross-check nor a run
    // ledger: both flags are unknown options (exit 2), so a script that
    // still passes one fails before anything is benchmarked.
    for args in [&["--events"][..], &["--ledger", "runs.jsonl"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_flow"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown argument {}", args[0])),
            "{err}"
        );
    }
}

#[test]
fn regress_accepts_the_whole_committed_baseline_as_current() {
    // A full `bench_flow` output carries every chip; `--current` must be
    // filtered to the gated chip like the baseline, or the other chips'
    // entries would count as different runs.
    let baseline = committed_baseline();
    let path = baseline.to_str().unwrap();
    for (chip, summary) in [
        (
            "B1-dense24",
            "B1-dense24 is the baseline's run and keeps its",
        ),
        (
            "B4-dense256",
            "B4-dense256 is the baseline's run; stage times add up",
        ),
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
    let fixture = baseline_fixture("B3-dense96");
    let regress_with = |bump: fn(&mut FlowBenchEntry)| {
        let mut current = fixture.clone();
        bump(&mut current.entries[0]);
        regress("B3-dense96", &current, "regress_attribution.json")
    };
    // 2 ms outside every stage on a ~140 ms run: over 1 ms but under
    // 5% of wall_ms, so within the rule.
    let out = regress_with(|e| e.wall_ms += 2.0);
    assert!(
        out.status.success(),
        "a 2 ms gap under 5% of wall_ms must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // 30% of wall_ms outside every stage: past both thresholds.
    let out = regress_with(|e| e.wall_ms *= 1.3);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("attribution gap"), "{err}");
    assert!(err.contains("1 check(s) failed"), "{err}");
}

#[test]
fn regress_enforces_the_stage_budget_rule() {
    let mut fixture = baseline_fixture("B1-dense24");
    let entry = &mut fixture.entries[0];
    // 25% over but under the 25 ms absolute floor: within budget.
    entry.stage_ms.escape += entry.stage_ms.escape * 0.3 + 1.0;
    // Past both gates: over budget.
    entry.stage_ms.lm_routing = entry.stage_ms.lm_routing * 1.3 + 30.0;
    let out = regress("B1-dense24", &fixture, "regress_budget.json");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget blown"), "{err}");
    assert!(err.contains("lm_routing"), "{err}");
    assert!(
        !err.contains("B1-dense24 escape:"),
        "the sub-25ms bump must stay within budget: {err}"
    );
}
