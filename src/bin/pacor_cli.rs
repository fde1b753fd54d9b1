//! `pacor` — command-line front-end for the PACOR routing flow.
//!
//! ```text
//! pacor synth <design> [seed]                    write a problem JSON to stdout
//! pacor route [options] <problem.json|design>    run the flow, report JSON to stdout
//! pacor render <problem.json|design>             run the flow, SVG to stdout
//! pacor table2 [--full]                          regenerate the paper's Table 2
//! ```
//!
//! `<design>` is one of `Chip1 Chip2 S1 S2 S3 S4 S5`; `route` and
//! `render` additionally accept the dense flow-benchmark chips
//! (`B0-smoke16 B1-dense24 B2-dense48 B3-dense96 B4-dense256
//! B5-dense512`). Anything else is treated as a path to a problem JSON
//! produced by `pacor synth` (or by hand — the schema is
//! `pacor::Problem`'s serde form).
//!
//! `route` options:
//!
//! * `--trace-out <path>` — write the run's Chrome trace-event JSON
//!   (loadable in `chrome://tracing` or Perfetto).
//! * `--metrics-out <path>` — write the run's flat metrics JSON
//!   (counters + histograms with quantiles; byte-identical run to
//!   run).
//! * `--report-out <path>` — install the flight recorder around the run
//!   and write the post-mortem report JSON (hottest cells, contended
//!   nets, per-cluster LM slack, escape bottlenecks; byte-identical run
//!   to run, and under either rip-up policy whenever both route the
//!   same result).
//! * `--ripup-policy full|incremental` — what negotiation rips up between
//!   failed rounds (default `incremental`; `full` is the paper's
//!   Algorithm 1, kept for ablation).
//! * `--quiet` — suppress the report JSON on stdout (and the
//!   `--progress` ticker).
//! * `--stream-out <path|->` — stream live telemetry events as
//!   `pacor-telemetry-v1` JSONL (one event per line). A path is
//!   written atomically (temp file + rename on clean finish, so a
//!   killed run never leaves a torn file); `-` streams to stderr
//!   line-by-line.
//! * `--progress` — human one-line round ticker on stderr
//!   (auto-disabled by `--quiet`).
//! * `--watchdog <bench.json>` — arm the stage watchdog: per-stage
//!   wall-clock budgets derived from the committed `stage_ms`
//!   baselines in a bench report (4x each stage's worst committed
//!   time, floored at 50 ms), emitting structured `budget_exceeded`
//!   events plus a 1 s heartbeat while a stage runs long.
//! * `--digest-out <path>` — write the run's `pacor-rundigest-v1`
//!   record (config fingerprint, deterministic outcome/counters/
//!   histograms, per-cluster LM slack, span tree). Everything outside
//!   the trailing `wall` sub-object is byte-identical run to run, and
//!   under either rip-up policy whenever both route the same result;
//!   compare two digests with `tables compare`.
//! * `--ledger <path>` — atomically append the same digest as one
//!   compact line to an append-only `RUNS.jsonl` run ledger, so later
//!   runs can find their baseline (`pacor_obs::latest_baseline`).
//!
//! Unknown `--flags` are rejected with an error rather than silently
//! treated as file names.

use pacor::route::RipUpPolicy;
use pacor::{BenchDesign, FlowConfig, FlowVariant, PacorFlow, Problem, RouteReport};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("synth") => cmd_synth(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("table2") => cmd_table2(&args[1..]),
        _ => {
            eprintln!(
                "usage: pacor synth <design> [seed]\n       pacor route [--trace-out FILE] [--metrics-out FILE] [--report-out FILE] [--digest-out FILE] [--ledger FILE] [--stream-out FILE|-] [--progress] [--watchdog BENCH.json] [--ripup-policy full|incremental] [--quiet] <problem.json|design>\n       pacor render <problem.json|design>\n       pacor table2 [--full]"
            );
            2
        }
    };
    std::process::exit(code);
}

fn design_of(name: &str) -> Option<BenchDesign> {
    match name {
        "Chip1" => Some(BenchDesign::Chip1),
        "Chip2" => Some(BenchDesign::Chip2),
        "S1" => Some(BenchDesign::S1),
        "S2" => Some(BenchDesign::S2),
        "S3" => Some(BenchDesign::S3),
        "S4" => Some(BenchDesign::S4),
        "S5" => Some(BenchDesign::S5),
        _ => None,
    }
}

/// Parsed command options.
#[derive(Debug, Default)]
struct Options {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    report_out: Option<String>,
    digest_out: Option<String>,
    ledger: Option<String>,
    stream_out: Option<String>,
    progress: bool,
    watchdog: Option<String>,
    ripup_policy: Option<RipUpPolicy>,
    quiet: bool,
    full: bool,
    positional: Vec<String>,
}

/// Parses `args` accepting only the flags named in `allowed`. Any other
/// `--flag` — including an allowed flag's typo — is an error, so a
/// mistyped option can never be swallowed as a file name.
fn parse_options(args: &[String], allowed: &[&str]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        if flag.starts_with("--") && !allowed.contains(&flag) {
            return Err(if allowed.is_empty() {
                format!("unknown option {flag} (this command takes no options)")
            } else {
                format!("unknown option {flag} (supported: {})", allowed.join(" "))
            });
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--trace-out" => opts.trace_out = Some(value()?),
            "--metrics-out" => opts.metrics_out = Some(value()?),
            "--report-out" => opts.report_out = Some(value()?),
            "--digest-out" => opts.digest_out = Some(value()?),
            "--ledger" => opts.ledger = Some(value()?),
            "--stream-out" => opts.stream_out = Some(value()?),
            "--progress" => opts.progress = true,
            "--watchdog" => opts.watchdog = Some(value()?),
            "--ripup-policy" => {
                let v = value()?;
                opts.ripup_policy = Some(RipUpPolicy::parse(&v).ok_or_else(|| {
                    format!("--ripup-policy: expected full or incremental, got {v:?}")
                })?);
            }
            "--quiet" => opts.quiet = true,
            "--full" => opts.full = true,
            _ => opts.positional.push(a.clone()),
        }
    }
    Ok(opts)
}

/// The dense flow-benchmark chips, routable by name like the Table 1
/// designs.
fn bench_chip_of(name: &str) -> Option<pacor::DesignParams> {
    std::iter::once(pacor::FLOW_SMOKE_CHIP)
        .chain(pacor::FLOW_BENCH_CHIPS)
        .chain(std::iter::once(pacor::FLOW_HUGE_CHIP))
        .find(|c| c.name == name)
}

fn load_problem(arg: &str, seed: u64) -> Result<Problem, String> {
    if let Some(design) = design_of(arg) {
        return Ok(design.synthesize(seed));
    }
    if let Some(chip) = bench_chip_of(arg) {
        return Ok(pacor::synthesize_params(chip, seed));
    }
    let text = std::fs::read_to_string(arg).map_err(|e| format!("reading {arg}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {arg}: {e}"))
}

fn cmd_synth(args: &[String]) -> i32 {
    let opts = match parse_options(args, &[]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("synth: {e}");
            return 2;
        }
    };
    let Some(name) = opts.positional.first() else {
        eprintln!("synth: missing design name");
        return 2;
    };
    let Some(design) = design_of(name) else {
        eprintln!("synth: unknown design {name}");
        return 2;
    };
    let seed = opts
        .positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let problem = design.synthesize(seed);
    println!(
        "{}",
        serde_json::to_string_pretty(&problem).expect("problems serialize")
    );
    0
}

/// Writes the observability exports requested by `--trace-out` /
/// `--metrics-out` from a finished outer session.
fn write_exports(opts: &Options, report: &pacor::obs::ObsReport) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        pacor::obs::atomic_write(path, pacor::obs::chrome_trace(report))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &opts.metrics_out {
        pacor::obs::atomic_write(path, pacor::obs::metrics_json(report))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// Derives the watchdog's per-stage wall-clock budgets from a
/// committed bench report (`BENCH_flow.json`): four times each stage's
/// worst committed `stage_ms`, floored at 50 ms so sub-millisecond
/// stages never alarm on scheduler jitter.
fn load_budgets(path: &str) -> Result<pacor::obs::StageBudgets, String> {
    fn ms_of(v: &serde_json::Value) -> f64 {
        match v {
            serde_json::Value::Float(f) => *f,
            serde_json::Value::Int(i) => *i as f64,
            serde_json::Value::UInt(u) => *u as f64,
            _ => 0.0,
        }
    }
    let bad = |e: &dyn std::fmt::Display| format!("parsing {path}: {e}");
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let report: serde_json::Value = serde_json::from_str(&text).map_err(|e| bad(&e))?;
    let serde_json::Value::Array(entries) = report.field("entries").map_err(|e| bad(&e))? else {
        return Err(format!("parsing {path}: `entries` is not an array"));
    };
    const STAGES: [&str; 5] = [
        "clustering",
        "lm_routing",
        "mst_routing",
        "escape",
        "detour",
    ];
    let mut maxima = [0.0f64; 5];
    for entry in entries {
        let stage_ms = entry.field("stage_ms").map_err(|e| bad(&e))?;
        for (slot, name) in maxima.iter_mut().zip(STAGES) {
            *slot = slot.max(ms_of(stage_ms.field(name).map_err(|e| bad(&e))?));
        }
    }
    let budget = |ms: f64| ((ms * 4.0).ceil() as u64).max(50);
    Ok(pacor::obs::StageBudgets {
        clustering: budget(maxima[0]),
        lm_routing: budget(maxima[1]),
        mst_routing: budget(maxima[2]),
        escape: budget(maxima[3]),
        detour: budget(maxima[4]),
    })
}

fn cmd_route(args: &[String]) -> i32 {
    let opts = match parse_options(
        args,
        &[
            "--trace-out",
            "--metrics-out",
            "--report-out",
            "--digest-out",
            "--ledger",
            "--stream-out",
            "--progress",
            "--watchdog",
            "--ripup-policy",
            "--quiet",
        ],
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("route: {e}");
            return 2;
        }
    };
    let Some(arg) = opts.positional.first() else {
        eprintln!("route: missing problem file or design name");
        return 2;
    };
    let problem = match load_problem(arg, 42) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("route: {e}");
            return 1;
        }
    };
    // An outer observability session captures the flow's events (the
    // flow's own nested session merges upward into it on finish).
    let wants_obs = opts.trace_out.is_some()
        || opts.metrics_out.is_some()
        || opts.digest_out.is_some()
        || opts.ledger.is_some();
    let session = wants_obs.then(pacor::obs::Session::begin);
    let config = FlowConfig::default().with_ripup_policy(opts.ripup_policy.unwrap_or_default());
    if opts.report_out.is_some() {
        pacor::obs::flight_install(pacor::obs::RecorderConfig::default());
    }
    // Streaming telemetry: a JSONL sink for `--stream-out`, a human
    // ticker for `--progress` (unless `--quiet`), and watchdog budgets
    // plus a heartbeat when `--watchdog` names a bench baseline.
    let ticker = opts.progress && !opts.quiet;
    if opts.stream_out.is_some() || ticker || opts.watchdog.is_some() {
        let mut sinks: Vec<Box<dyn pacor::obs::TelemetrySink>> = Vec::new();
        if let Some(path) = &opts.stream_out {
            if path == "-" {
                sinks.push(Box::new(pacor::obs::WriterSink::stderr()));
            } else {
                match pacor::obs::StreamWriter::create(path) {
                    Ok(w) => sinks.push(Box::new(w)),
                    Err(e) => {
                        eprintln!("route: writing {path}: {e}");
                        return 1;
                    }
                }
            }
        }
        if ticker {
            sinks.push(Box::new(pacor::obs::TickerSink));
        }
        let mut cfg = pacor::obs::TelemetryConfig::default();
        if let Some(bench) = &opts.watchdog {
            match load_budgets(bench) {
                Ok(budgets) => {
                    cfg.budgets = budgets;
                    cfg.heartbeat_ms = 1000;
                }
                Err(e) => {
                    eprintln!("route: {e}");
                    return 1;
                }
            }
        }
        pacor::obs::telemetry_install(cfg, sinks);
    }
    let result = PacorFlow::new(config).run(&problem);
    let telemetry_result = pacor::obs::telemetry_take();
    let flight_log = pacor::obs::flight_take();
    let obs_report = session.map(pacor::obs::Session::finish);
    if let Some(Err(e)) = telemetry_result {
        let path = opts.stream_out.as_deref().unwrap_or("-");
        eprintln!("route: writing {path}: {e}");
        return 1;
    }
    match result {
        Ok(report) => {
            if let Some(obs_report) = &obs_report {
                if let Err(e) = write_exports(&opts, obs_report) {
                    eprintln!("route: {e}");
                    return 1;
                }
            }
            if let Some(path) = &opts.report_out {
                let log = flight_log.expect("recorder was installed");
                let json = pacor::obs::post_mortem_json(&log);
                if let Err(e) = pacor::obs::atomic_write(path, json) {
                    eprintln!("route: writing {path}: {e}");
                    return 1;
                }
            }
            if opts.digest_out.is_some() || opts.ledger.is_some() {
                let obs_report = obs_report.as_ref().expect("outer session was begun");
                let digest = pacor::run_digest(&problem, &config, &report, obs_report);
                if let Some(path) = &opts.digest_out {
                    if let Err(e) = pacor::obs::atomic_write(path, digest.to_json()) {
                        eprintln!("route: writing {path}: {e}");
                        return 1;
                    }
                }
                if let Some(path) = &opts.ledger {
                    if let Err(e) = pacor::obs::ledger_append(std::path::Path::new(path), &digest) {
                        eprintln!("route: writing {path}: {e}");
                        return 1;
                    }
                }
            }
            if !opts.quiet {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report).expect("reports serialize")
                );
            }
            0
        }
        Err(e) => {
            eprintln!("route: {e}");
            1
        }
    }
}

fn cmd_render(args: &[String]) -> i32 {
    let opts = match parse_options(args, &[]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("render: {e}");
            return 2;
        }
    };
    let Some(arg) = opts.positional.first() else {
        eprintln!("render: missing problem file or design name");
        return 2;
    };
    let problem = match load_problem(arg, 42) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("render: {e}");
            return 1;
        }
    };
    match PacorFlow::default().run_detailed(&problem) {
        Ok((_, routed)) => {
            print!("{}", pacor::render_svg(&problem, &routed, 12));
            0
        }
        Err(e) => {
            eprintln!("render: {e}");
            1
        }
    }
}

fn cmd_table2(args: &[String]) -> i32 {
    let opts = match parse_options(args, &["--full"]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("table2: {e}");
            return 2;
        }
    };
    let designs: Vec<BenchDesign> = if opts.full {
        BenchDesign::ALL.to_vec()
    } else {
        BenchDesign::SYNTH.to_vec()
    };
    println!("{}", RouteReport::table_header());
    for d in designs {
        let problem = d.synthesize(42);
        for v in FlowVariant::ALL {
            match PacorFlow::new(FlowConfig::for_variant(v)).run(&problem) {
                Ok(r) => println!("{}", r.table_row()),
                Err(e) => {
                    eprintln!("table2: {e}");
                    return 1;
                }
            }
        }
    }
    0
}
