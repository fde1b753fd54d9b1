//! End-to-end tests of the `pacor` command-line binary.

use std::process::Command;

fn pacor(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pacor-cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn no_args_prints_usage() {
    let out = pacor(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn synth_emits_problem_json() {
    let out = pacor(&["synth", "S1", "7"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"name\": \"S1\""));
    assert!(text.contains("\"valves\""));
    assert!(text.contains("\"pins\""));
}

#[test]
fn synth_rejects_unknown_design() {
    let out = pacor(&["synth", "S99"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown design"));
}

#[test]
fn route_by_design_name() {
    let out = pacor(&["route", "S1"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"matched_clusters\""));
    assert!(text.contains("\"valves_routed\": 5"));
}

#[test]
fn synth_then_route_roundtrip() {
    let synth = pacor(&["synth", "S2", "3"]);
    assert!(synth.status.success());
    let dir = std::env::temp_dir().join("pacor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s2.json");
    std::fs::write(&path, &synth.stdout).unwrap();
    let route = pacor(&["route", path.to_str().unwrap()]);
    assert!(route.status.success());
    let text = String::from_utf8_lossy(&route.stdout);
    assert!(text.contains("\"design\": \"S2\""));
    assert!(text.contains("\"valves_total\": 10"));
}

#[test]
fn route_rejects_garbage_file() {
    let dir = std::env::temp_dir().join("pacor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.json");
    std::fs::write(&path, b"{ not json").unwrap();
    let out = pacor(&["route", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parsing"));
}

#[test]
fn route_rejects_unknown_flag() {
    let out = pacor(&["route", "--tracee-out", "x.json", "S1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option --tracee-out"), "{err}");
    assert!(
        err.contains("--trace-out"),
        "should list supported flags: {err}"
    );
}

#[test]
fn synth_rejects_any_flag() {
    let out = pacor(&["synth", "--threads", "2", "S1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --threads"));
}

#[test]
fn route_quiet_suppresses_report() {
    let out = pacor(&["route", "--quiet", "S1"]);
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "--quiet must print nothing");
}

#[test]
fn route_writes_trace_and_metrics_files() {
    let dir = std::env::temp_dir().join("pacor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("s1_trace.json");
    let metrics = dir.join("s1_metrics.json");
    let out = pacor(&[
        "route",
        "--quiet",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "S1",
    ]);
    assert!(out.status.success());
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.trim_start().starts_with('['));
    assert!(trace_text.contains("\"ph\":\"X\""), "needs span events");
    assert!(trace_text.contains("stage.escape"));
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(metrics_text.contains("\"counters\""));
    assert!(metrics_text.contains("astar.expansions"));
}

#[test]
fn route_accepts_both_ripup_policies() {
    for policy in ["full", "incremental"] {
        let out = pacor(&["route", "--ripup-policy", policy, "S1"]);
        assert!(out.status.success(), "--ripup-policy {policy} must route");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("\"valves_routed\": 5"), "{policy}: {text}");
    }
}

#[test]
fn route_rejects_bad_ripup_policy() {
    let out = pacor(&["route", "--ripup-policy", "sometimes", "S1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("expected full or incremental"),
        "must name the accepted values: {err}"
    );
}

#[test]
fn route_rejects_bad_negotiation_mode() {
    // Negotiation is serial only, so `--negotiation-mode` is an unknown
    // option (exit 2), never a file name.
    let out = pacor(&["route", "--negotiation-mode", "serial", "S1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown option --negotiation-mode"),
        "must reject the flag as unknown: {err}"
    );
}

#[test]
fn route_rejects_bad_escape_solver() {
    // Escape routing has one solver, so `--escape-solver` is an unknown
    // option (exit 2), never a file name.
    let out = pacor(&["route", "--escape-solver", "reference", "S1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown option --escape-solver"),
        "must reject the flag as unknown: {err}"
    );
}

#[test]
fn route_rejects_the_retired_routing_mode_flags() {
    // Routing is flat only and single-threaded, so `--routing-mode`,
    // `--gcell-size` and `--threads` are unknown options (exit 2),
    // never file names.
    for cmd in ["route", "render", "table2"] {
        for flag in [
            ["--routing-mode", "flat"],
            ["--gcell-size", "8"],
            ["--threads", "2"],
        ] {
            let out = pacor(&[cmd, flag[0], flag[1], "S1"]);
            assert_eq!(out.status.code(), Some(2), "{cmd} {flag:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains(&format!("unknown option {}", flag[0])),
                "{cmd} must reject {} as unknown: {err}",
                flag[0]
            );
        }
    }
}

#[test]
fn render_emits_svg() {
    let out = pacor(&["render", "S1"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("<svg"));
    assert!(text.trim_end().ends_with("</svg>"));
}

#[test]
fn table2_prints_all_synth_designs() {
    let out = pacor(&["table2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for d in ["S1", "S2", "S3", "S4", "S5"] {
        assert!(text.contains(d), "missing {d}");
    }
    assert!(text.contains("PACOR"));
    assert!(text.contains("w/o Sel"));
}

#[test]
fn route_writes_post_mortem_report() {
    let dir = std::env::temp_dir().join("pacor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s2_postmortem.json");
    let out = pacor(&[
        "route",
        "--quiet",
        "--report-out",
        path.to_str().unwrap(),
        "S2",
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).unwrap();
    // The report round-trips through the serde layer and exposes its
    // sections as typed values.
    let v: serde::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(
        v.field("schema").unwrap(),
        &serde::Value::Str("pacor-postmortem-v1".into())
    );
    let outcome = v.field("outcome").unwrap();
    assert_eq!(outcome.field("clusters").unwrap(), &serde::Value::Int(5));
    for section in [
        "unrouted_nets",
        "negotiation",
        "history",
        "hot_cells",
        "lm_clusters",
        "escape",
        "snapshots",
    ] {
        assert!(v.field(section).is_ok(), "report must carry {section}");
    }
}

#[test]
fn report_out_names_unrouted_nets_on_a_failing_chip() {
    // A chip with more clusters than control pins cannot fully escape;
    // the post-mortem must name the unrouted nets.
    let starved = pacor_repro::pacor::DesignParams {
        name: "T1-starved",
        width: 20,
        height: 20,
        valves: 8,
        control_pins: 2,
        obstacles: 0,
        multi_clusters: 3,
        pairs_only: true,
    };
    let problem = pacor_repro::pacor::synthesize_params(starved, 42);
    let dir = std::env::temp_dir().join("pacor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let problem_path = dir.join("starved.json");
    std::fs::write(
        &problem_path,
        serde_json::to_string_pretty(&problem).unwrap(),
    )
    .unwrap();
    let report_path = dir.join("starved_postmortem.json");
    let out = pacor(&[
        "route",
        "--quiet",
        "--report-out",
        report_path.to_str().unwrap(),
        problem_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&report_path).unwrap();
    let v: serde::Value = serde_json::from_str(&text).unwrap();
    let unrouted = v.field("outcome").unwrap().field("unrouted").unwrap();
    match unrouted {
        serde::Value::Array(ids) => assert!(
            !ids.is_empty(),
            "starved chip must report unrouted nets: {text}"
        ),
        other => panic!("unrouted must be an array, got {other:?}"),
    }
    match v.field("unrouted_nets").unwrap() {
        serde::Value::Array(nets) => assert!(!nets.is_empty()),
        other => panic!("unrouted_nets must be an array, got {other:?}"),
    }
}

#[test]
fn stream_out_writes_versioned_jsonl() {
    let dir = std::env::temp_dir().join("pacor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s1_stream.jsonl");
    let out = pacor(&[
        "route",
        "--quiet",
        "--stream-out",
        path.to_str().unwrap(),
        "S1",
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 2, "stream must carry events: {text}");
    for l in &lines {
        serde_json::from_str::<serde::Value>(l).expect("every line parses");
        assert!(l.contains("\"schema\":\"pacor-telemetry-v1\""), "{l}");
    }
    let first = lines.first().unwrap();
    assert!(first.contains("\"kind\":\"flow_started\""), "{first}");
    assert!(first.contains("\"design\":\"S1\""));
    let last = lines.last().unwrap();
    assert!(last.contains("\"kind\":\"flow_finished\""), "{last}");
    assert!(
        last.contains(&format!("\"events\":{}", lines.len() - 1)),
        "terminal event must count the stream: {last}"
    );
    // The temp file must be gone after a clean finish (atomic rename).
    assert!(
        !dir.join("s1_stream.jsonl.tmp").exists(),
        "clean finish must leave no temp file"
    );
}

#[test]
fn stream_out_dash_streams_to_stderr() {
    let out = pacor(&["route", "--quiet", "--stream-out", "-", "S1"]);
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "--quiet must keep stdout empty");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"kind\":\"flow_started\""), "{err}");
    assert!(err.contains("\"kind\":\"flow_finished\""), "{err}");
}

#[test]
fn quiet_suppresses_progress_ticker() {
    // `--progress` prints a human ticker on stderr; `--quiet` must
    // silence it entirely — stdout AND stderr stay empty.
    let loud = pacor(&["route", "--progress", "S1"]);
    assert!(loud.status.success());
    let loud_err = String::from_utf8_lossy(&loud.stderr);
    assert!(
        loud_err.contains("[pacor]"),
        "--progress must tick on stderr: {loud_err}"
    );
    let quiet = pacor(&["route", "--progress", "--quiet", "S1"]);
    assert!(quiet.status.success());
    assert!(quiet.stdout.is_empty(), "--quiet must print no report");
    assert!(
        quiet.stderr.is_empty(),
        "--quiet must silence the ticker and any heartbeat: {}",
        String::from_utf8_lossy(&quiet.stderr)
    );
}

#[test]
fn watchdog_derives_budgets_from_bench_baselines() {
    // Point the watchdog at the committed bench report: the run must
    // succeed and (being far under 4x budgets) emit no alarms.
    let dir = std::env::temp_dir().join("pacor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s1_watchdog.jsonl");
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_flow.json");
    let out = pacor(&[
        "route",
        "--quiet",
        "--watchdog",
        bench,
        "--stream-out",
        path.to_str().unwrap(),
        "S1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"kind\":\"flow_finished\""));
    assert!(
        !text.contains("\"kind\":\"budget_exceeded\""),
        "a tiny chip must stay within 4x bench budgets: {text}"
    );
}

#[test]
fn watchdog_rejects_unreadable_baseline() {
    let out = pacor(&["route", "--watchdog", "/no/such/bench.json", "S1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("reading"), "must name the failure: {err}");
}

#[test]
fn digest_out_writes_versioned_digest() {
    let dir = std::env::temp_dir().join("pacor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s2_digest.json");
    let out = pacor(&[
        "route",
        "--quiet",
        "--digest-out",
        path.to_str().unwrap(),
        "S2",
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("\"schema\": \"pacor-rundigest-v1\""),
        "{text}"
    );
    for section in [
        "\"fingerprint\"",
        "\"outcome\"",
        "\"clusters\"",
        "\"counters\"",
        "\"histograms\"",
        "\"wall\"",
    ] {
        assert!(text.contains(section), "digest must carry {section}");
    }
    // The wall-clock sub-object renders last, so everything before it
    // is the deterministic prefix other runs can be byte-compared on.
    assert!(
        text.find("\"wall\"").unwrap() > text.find("\"histograms\"").unwrap(),
        "wall must render last: {text}"
    );
}

#[test]
fn digest_deterministic_prefix_identical_across_policies() {
    let dir = std::env::temp_dir().join("pacor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |extra: &[&str], file: &str| {
        let path = dir.join(file);
        let mut args = vec!["route", "--quiet", "--digest-out", path.to_str().unwrap()];
        args.extend_from_slice(extra);
        args.push("S2");
        let out = pacor(&args);
        assert!(out.status.success(), "{extra:?} must route");
        let text = std::fs::read_to_string(&path).unwrap();
        let wall = text.find("\"wall\"").expect("digest has a wall object");
        text[..wall].to_string()
    };
    let base = run(&[], "d_base.json");
    let full = run(&["--ripup-policy", "full"], "d_full.json");
    assert_eq!(base, full, "rip-up policy must not move the prefix");
}

#[test]
fn ledger_accumulates_one_line_per_run() {
    let dir = std::env::temp_dir().join("pacor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("runs.jsonl");
    let _ = std::fs::remove_file(&path);
    for _ in 0..2 {
        let out = pacor(&["route", "--quiet", "--ledger", path.to_str().unwrap(), "S1"]);
        assert!(out.status.success());
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 2, "one compact line per run: {text}");
    for l in &lines {
        assert!(l.contains("\"schema\": \"pacor-rundigest-v1\""), "{l}");
        serde_json::from_str::<serde::Value>(l).expect("every ledger line parses");
    }
    assert!(
        !dir.join("runs.jsonl.tmp").exists(),
        "atomic append must leave no temp file"
    );
}

#[test]
fn export_flags_error_cleanly_on_missing_parent_dir() {
    let missing = std::env::temp_dir()
        .join("pacor_cli_no_such_dir")
        .join("out.json");
    let _ = std::fs::remove_dir_all(missing.parent().unwrap());
    for flag in [
        "--report-out",
        "--metrics-out",
        "--trace-out",
        "--stream-out",
        "--digest-out",
        "--ledger",
    ] {
        let out = pacor(&["route", "--quiet", flag, missing.to_str().unwrap(), "S1"]);
        assert!(!out.status.success(), "{flag} must fail, not succeed");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("writing"),
            "{flag} must report the path: {err}"
        );
        assert!(
            !err.contains("panicked"),
            "{flag} must error, not panic: {err}"
        );
    }
}
