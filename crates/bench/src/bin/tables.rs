//! Regenerates the paper's tables and figures from the reproduction.
//!
//! ```sh
//! cargo run --release -p pacor-bench --bin tables -- table1
//! cargo run --release -p pacor-bench --bin tables -- table2 [--full]
//! cargo run --release -p pacor-bench --bin tables -- fig3
//! cargo run --release -p pacor-bench --bin tables -- ablation
//! cargo run --release -p pacor-bench --bin tables -- sweep
//! cargo run --release -p pacor-bench --bin tables -- stages [--full]
//! cargo run --release -p pacor-bench --bin tables -- heatmap [design]
//! cargo run --release -p pacor-bench --bin tables -- all [--full]
//! cargo run --release -p pacor-bench --bin tables -- compare BASE.json NEW.json [--out FILE]
//! cargo run --release -p pacor-bench --bin tables -- regress BASELINE.json [--chip NAME] [--current FILE]
//! ```
//!
//! `--full` includes the Chip1/Chip2-scale designs (about a second in
//! release instead of a few milliseconds).
//! `stages` prints the span-summed per-stage wall-clock breakdown
//! (clustering / LM / MST / escape / detour) per design, the same
//! attribution `bench_flow` records as `stage_ms`, so a wall-clock
//! movement can be pinned on the stage that caused it.
//! `heatmap` runs one design (default S5) with the flight recorder
//! installed and renders the ASCII congestion heatmap plus a post-mortem
//! summary.
//!
//! `compare` diffs two `pacor-rundigest-v1` files (from `pacor-cli
//! route --digest-out`), printing the ranked span/quality/counter
//! tables of the structural differ and exiting 1 when any difference
//! is beyond the noise thresholds; `--out FILE` additionally writes
//! the machine-readable `pacor-rundiff-v1` document.
//!
//! `regress` is the Rust reimplementation of the old inline-Python
//! `make bench-check` gate: it re-runs one benchmark chip's schedule
//! (or reads a prior `bench_flow` output via `--current FILE`) and
//! checks it against the committed BENCH_flow.json baseline —
//! deterministic-field equality and stage attribution (Σ `stage_ms`
//! within 5% or 1 ms of `wall_ms`) for every entry, the 25%-and-25ms
//! stage and escape sub-stage budgets for small chips, and the
//! completion gate for chips at or above the large tier. Exits 1 on
//! any failure.

use pacor::{BenchDesign, FlowConfig, FlowVariant, RouteReport};
use pacor_bench::{
    bench_policies, lambda_ablation, metrics_header, metrics_row, negotiation_ablation, run_config,
    run_flow_bench, run_variant, seed_sweep, table1_header, table1_row, FlowBenchEntry,
    FlowBenchReport, StageMs, SweepCell, BENCH_SEED, FLOW_BENCH_CHIPS, FLOW_HUGE_CHIP, LAMBDAS,
    LARGE_WIDTH, ROBUSTNESS_SEEDS, VARIANT_SWEEP_SEEDS,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let what = args.first().map(String::as_str).unwrap_or("all");

    match what {
        "table1" => table1(),
        "table2" => table2(full),
        "fig3" => fig3(),
        "ablation" => ablation(),
        "sweep" => sweep(),
        "stages" => stages(full),
        "heatmap" => heatmap(args.get(1).map(String::as_str)),
        "compare" => compare(&args[1..]),
        "regress" => regress(&args[1..]),
        "all" => {
            table1();
            println!();
            table2(full);
            println!();
            fig3();
            println!();
            ablation();
            println!();
            stages(full);
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; use table1|table2|fig3|ablation|stages|sweep|heatmap|compare|regress|all"
            );
            std::process::exit(2);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("tables: {msg}");
    std::process::exit(2);
}

/// `compare BASE.json NEW.json [--out FILE]` — structural diff of two
/// run digests, exit 1 when any difference is beyond noise.
fn compare(args: &[String]) {
    let mut files: Vec<&str> = Vec::new();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => die("compare: --out requires a value"),
            },
            flag if flag.starts_with("--") => {
                die(&format!("compare: unknown flag {flag:?}"));
            }
            path => files.push(path),
        }
    }
    let [base_path, new_path] = files[..] else {
        die("usage: tables compare BASE.json NEW.json [--out FILE]");
    };
    let load = |path: &str| -> pacor::obs::RunDigest {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("compare: reading {path}: {e}")));
        pacor::obs::RunDigest::from_json(&text)
            .unwrap_or_else(|e| die(&format!("compare: parsing {path}: {e}")))
    };
    let base = load(base_path);
    let new = load(new_path);
    let diff = pacor::obs::diff_runs(&base, &new);
    if let Some(path) = out {
        if let Err(e) = pacor::obs::atomic_write(&path, pacor::obs::diff_json(&diff)) {
            die(&format!("compare: writing {path}: {e}"));
        }
        eprintln!("compare: wrote {path}");
    }
    print!("{}", pacor::obs::render_diff(&diff, 12));
    if diff.has_verdicts() {
        std::process::exit(1);
    }
}

/// A named accessor into one [`FlowBenchEntry`] field.
type FieldOf<T> = (&'static str, fn(&FlowBenchEntry) -> T);

/// The deterministic per-entry fields `regress` holds byte-equal
/// against the baseline: the old Makefile Python gate's four plus the
/// escape solver's work counters.
const REGRESS_FIELDS: [FieldOf<u64>; 6] = [
    ("rounds", |e| e.rounds),
    ("ripups", |e| e.ripups),
    ("scratch_resets", |e| e.scratch_resets),
    ("escape_dijkstras", |e| e.escape_dijkstras),
    ("escape_touched", |e| e.escape_touched),
    ("total_length", |e| e.total_length),
];

/// The small-chip stage budgets, as (name, accessor) pairs.
const REGRESS_STAGES: [FieldOf<f64>; 5] = [
    ("clustering", |e| e.stage_ms.clustering),
    ("lm_routing", |e| e.stage_ms.lm_routing),
    ("mst_routing", |e| e.stage_ms.mst_routing),
    ("escape", |e| e.stage_ms.escape),
    ("detour", |e| e.stage_ms.detour),
];

/// The escape sub-stage budgets, as (name, accessor) pairs.
const REGRESS_ESCAPE: [FieldOf<f64>; 4] = [
    ("escape.net_solve", |e| e.escape_ms.net_solve),
    ("escape.phase1", |e| e.escape_ms.phase1),
    ("escape.phase2", |e| e.escape_ms.phase2),
    ("escape.phase3", |e| e.escape_ms.phase3),
];

fn entry_key(e: &FlowBenchEntry) -> (String, String, usize) {
    (e.chip.clone(), e.policy.clone(), e.threads)
}

/// Re-runs one chip's `bench_flow` schedule in-process at repeat 1 —
/// the same matrix the binary would produce for `--chip NAME`.
fn bench_chip_entries(chip_name: &str) -> Vec<FlowBenchEntry> {
    let chip = FLOW_BENCH_CHIPS
        .iter()
        .chain(std::iter::once(&FLOW_HUGE_CHIP))
        .find(|c| c.name == chip_name)
        .copied()
        .unwrap_or_else(|| die(&format!("regress: no benchmark chip named {chip_name:?}")));
    bench_policies(&chip)
        .iter()
        .map(|&policy| run_flow_bench(chip, policy, 1, BENCH_SEED, 1))
        .collect()
}

/// `regress BASELINE.json [--chip NAME] [--current FILE]` — the
/// determinism and performance-budget gate formerly inlined as Python
/// in the Makefile's `bench-check` recipe. Same rules, same pass/fail:
///
/// * every fresh entry of the chip must match its baseline entry
///   (keyed by chip × policy × threads) on the deterministic fields,
///   including exact `completion_rate` equality, with matching entry
///   counts — a `--current` file is filtered to the chip just like the
///   baseline, so a full `bench_flow` output checks cleanly;
/// * every fresh entry's stage times must add up to its wall-clock:
///   the unattributed `wall_ms − Σ stage_ms` fails when it is over 5%
///   of `wall_ms` AND over 1 ms;
/// * chips below [`LARGE_WIDTH`] get the per-stage and escape
///   sub-stage wall-clock budgets (fail when > 25% AND > 25 ms over
///   baseline — [`pacor::obs::timing_regressed`]);
/// * chips at or above it get the large-tier completion gate instead:
///   every entry must route every valve.
fn regress(args: &[String]) {
    let mut baseline_path: Option<&str> = None;
    let mut chip = "B1-dense24".to_string();
    let mut current_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chip" => match it.next() {
                Some(v) => chip = v.clone(),
                None => die("regress: --chip requires a value"),
            },
            "--current" => match it.next() {
                Some(v) => current_path = Some(v.clone()),
                None => die("regress: --current requires a value"),
            },
            flag if flag.starts_with("--") => die(&format!("regress: unknown flag {flag:?}")),
            path if baseline_path.is_none() => baseline_path = Some(path),
            extra => die(&format!("regress: unexpected argument {extra:?}")),
        }
    }
    let Some(baseline_path) = baseline_path else {
        die("usage: tables regress BASELINE.json [--chip NAME] [--current FILE]");
    };
    // A typo'd chip name is a usage error (exit 2); a known chip with
    // no baseline rows is a gate failure (exit 1) further down.
    if !FLOW_BENCH_CHIPS
        .iter()
        .chain(std::iter::once(&FLOW_HUGE_CHIP))
        .any(|c| c.name == chip)
    {
        die(&format!("regress: no benchmark chip named {chip:?}"));
    }
    let load_report = |path: &str| -> FlowBenchReport {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("regress: reading {path}: {e}")));
        serde_json::from_str(&text)
            .unwrap_or_else(|e| die(&format!("regress: parsing {path}: {e}")))
    };
    let baseline: Vec<FlowBenchEntry> = load_report(baseline_path)
        .entries
        .into_iter()
        .filter(|e| e.chip == chip)
        .collect();
    if baseline.is_empty() {
        fail(&format!("baseline has no {chip} entries"));
    }
    let current: Vec<FlowBenchEntry> = match &current_path {
        Some(path) => load_report(path)
            .entries
            .into_iter()
            .filter(|e| e.chip == chip)
            .collect(),
        None => bench_chip_entries(&chip),
    };

    let mut failures: Vec<String> = Vec::new();
    if current.len() != baseline.len() {
        failures.push(format!(
            "entry count differs: current {} vs baseline {}",
            current.len(),
            baseline.len()
        ));
    }
    for e in &current {
        let key = entry_key(e);
        let attributed: f64 = REGRESS_STAGES.iter().map(|(_, get)| get(e)).sum();
        let gap = e.wall_ms - attributed;
        if gap > 0.05 * e.wall_ms && gap > 1.0 {
            failures.push(format!(
                "attribution gap (>5% and >1ms of wall_ms outside every stage): {key:?}: \
                 wall {:.1} ms - stages {attributed:.1} ms = {gap:.1} ms ({:.1}%)",
                e.wall_ms,
                100.0 * gap / e.wall_ms
            ));
        }
        if e.width >= LARGE_WIDTH && e.completion_rate != 1.0 {
            failures.push(format!(
                "{chip} must fully route: {key:?} completed {:.1}%",
                e.completion_rate * 100.0
            ));
        }
        let Some(base) = baseline.iter().find(|b| entry_key(b) == key) else {
            failures.push(format!("baseline has no entry for {key:?}"));
            continue;
        };
        for (field, get) in REGRESS_FIELDS {
            if get(base) != get(e) {
                failures.push(format!(
                    "drift vs baseline: {key:?} {field}: {} -> {}",
                    get(base),
                    get(e)
                ));
            }
        }
        // Exact equality, like the Python gate's `!=` on parsed floats.
        if base.completion_rate != e.completion_rate {
            failures.push(format!(
                "drift vs baseline: {key:?} completion_rate: {} -> {}",
                base.completion_rate, e.completion_rate
            ));
        }
        if e.width < LARGE_WIDTH {
            for (stage, get) in REGRESS_STAGES.iter().chain(REGRESS_ESCAPE.iter()) {
                if pacor::obs::timing_regressed(get(base), get(e)) {
                    failures.push(format!(
                        "budget blown (>25% and >25ms over baseline): {key:?} {stage}: \
                         {:.1} ms -> {:.1} ms",
                        get(base),
                        get(e)
                    ));
                }
            }
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("regress: FAIL: {f}");
        }
        fail(&format!("{} check(s) failed for {chip}", failures.len()));
    }
    if current.iter().all(|e| e.width < LARGE_WIDTH) {
        println!(
            "regress: {} {chip} entries match the baseline on {} deterministic fields, \
             {} stage budgets and {} escape sub-stage budgets; stage times add up",
            current.len(),
            REGRESS_FIELDS.len() + 1,
            REGRESS_STAGES.len(),
            REGRESS_ESCAPE.len()
        );
    } else {
        println!(
            "regress: {chip} tier matches the baseline on {} deterministic fields and \
             completes; stage times add up",
            REGRESS_FIELDS.len() + 1
        );
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("regress: {msg}");
    std::process::exit(1);
}

/// Table 1: benchmark design parameters.
fn table1() {
    println!("== Table 1: design parameters ==");
    println!("{}", table1_header());
    for d in BenchDesign::ALL {
        println!("{}", table1_row(d));
    }
}

/// Table 2: three-variant self-comparison over every design.
fn table2(full: bool) {
    println!("== Table 2: computational simulation (seed {BENCH_SEED}, δ=1) ==");
    println!("{}", RouteReport::table_header());
    let designs: Vec<BenchDesign> = if full {
        BenchDesign::ALL.to_vec()
    } else {
        BenchDesign::SYNTH.to_vec()
    };
    let mut matched = [0usize; 3];
    let mut total_len = [0u64; 3];
    let mut reports: Vec<RouteReport> = Vec::new();
    for d in designs {
        for (k, v) in FlowVariant::ALL.into_iter().enumerate() {
            let r = run_variant(d, v, BENCH_SEED);
            matched[k] += r.matched_clusters;
            total_len[k] += r.total_length;
            println!("{}", r.table_row());
            reports.push(r);
        }
        println!();
    }
    println!("-- hot-path counters (pacor-obs) --");
    println!("{}", metrics_header());
    for r in &reports {
        println!("{}", metrics_row(r));
    }
    println!();
    println!("-- aggregate over designs --");
    for (k, v) in FlowVariant::ALL.into_iter().enumerate() {
        println!(
            "{:<13} matched {:>4}  total length {:>8}",
            v.label(),
            matched[k],
            total_len[k]
        );
    }
    if !full {
        println!("(run with --full to include Chip1/Chip2)");
    }
}

/// Figure 3: candidate Steiner trees for a four-valve cluster.
fn fig3() {
    use pacor::dme::{candidates, CandidateConfig};
    use pacor::grid::Point;
    println!("== Figure 3: DME candidate Steiner trees (4 sinks) ==");
    let sinks = vec![
        Point::new(2, 2),
        Point::new(14, 6),
        Point::new(4, 12),
        Point::new(12, 16),
    ];
    let cands = candidates(&sinks, None, CandidateConfig::default());
    println!(
        "{:<10} {:>10} {:>12} {:>10}",
        "candidate", "root", "total len", "ΔL"
    );
    for (k, t) in cands.iter().enumerate() {
        println!(
            "{:<10} {:>10} {:>12} {:>10}",
            k,
            t.root().to_string(),
            t.total_length(),
            t.mismatch()
        );
    }
    println!(
        "{} distinct candidates from one topology; every ΔL ≤ rounding",
        cands.len()
    );
}

/// Seed sweeps: PACOR over [`ROBUSTNESS_SEEDS`] per design — robustness
/// of the single-seed numbers — then the three variants summed over
/// [`VARIANT_SWEEP_SEEDS`] and every synthetic design.
fn sweep() {
    let seeds = ROBUSTNESS_SEEDS.end - ROBUSTNESS_SEEDS.start;
    println!("== Seed sweep: {seeds} seeds per design, PACOR variant ==");
    println!(
        "{:<8} {:>14} {:>18} {:>10}",
        "Design", "matched (avg)", "completion (min)", "len (avg)"
    );
    for c in seed_sweep(&[FlowVariant::Pacor], ROBUSTNESS_SEEDS) {
        println!(
            "{:<8} {:>11.1}/{:<2} {:>17.0}% {:>10.0}",
            c.design.params().name,
            c.matched as f64 / c.runs as f64,
            c.design.params().multi_clusters,
            c.min_completion * 100.0,
            c.total_length as f64 / c.runs as f64
        );
    }

    let seeds = VARIANT_SWEEP_SEEDS.end - VARIANT_SWEEP_SEEDS.start;
    println!();
    println!("== Variant sweep: S1–S5 × {seeds} seeds, summed ==");
    println!(
        "{:<13} {:>9} {:>9} {:>10} {:>17}",
        "Method", "matched", "clusters", "total len", "completion (min)"
    );
    let cells = seed_sweep(&FlowVariant::ALL, VARIANT_SWEEP_SEEDS);
    for v in FlowVariant::ALL {
        let of_v: Vec<&SweepCell> = cells.iter().filter(|c| c.variant == v).collect();
        println!(
            "{:<13} {:>9} {:>9} {:>10} {:>16.0}%",
            v.label(),
            of_v.iter().map(|c| c.matched).sum::<usize>(),
            of_v.iter().map(|c| c.clusters()).sum::<usize>(),
            of_v.iter().map(|c| c.total_length).sum::<u64>(),
            of_v.iter().map(|c| c.min_completion).fold(1.0, f64::min) * 100.0
        );
    }
}

/// Per-stage wall-clock breakdown: where each design's flow run spends
/// its time, summed from the `stage.*` observability spans — the same
/// attribution `bench_flow` persists as `stage_ms` in BENCH_flow.json.
fn stages(full: bool) {
    println!("== Per-stage wall-clock, ms (PACOR variant, seed {BENCH_SEED}) ==");
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Design", "wall", "cluster", "lm", "mst", "escape", "detour"
    );
    let designs: Vec<BenchDesign> = if full {
        BenchDesign::ALL.to_vec()
    } else {
        BenchDesign::SYNTH.to_vec()
    };
    let mut rows: Vec<(String, f64, StageMs)> = designs
        .into_iter()
        .map(|d| {
            // The outer session captures the flow's spans (its nested
            // session merges upward on finish).
            let session = pacor::obs::Session::begin();
            let r = run_variant(d, FlowVariant::Pacor, BENCH_SEED);
            let s = StageMs::of(&session.finish());
            (r.design.clone(), r.runtime.as_secs_f64() * 1e3, s)
        })
        .collect();
    // Costliest design first, so the design worth optimizing leads.
    let stage_total =
        |s: &StageMs| s.clustering + s.lm_routing + s.mst_routing + s.escape + s.detour;
    rows.sort_by(|a, b| stage_total(&b.2).total_cmp(&stage_total(&a.2)));
    let mut wall_sum = 0.0;
    let mut sums = StageMs::default();
    for (design, wall, s) in &rows {
        println!(
            "{:<8} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            design, wall, s.clustering, s.lm_routing, s.mst_routing, s.escape, s.detour
        );
        wall_sum += wall;
        sums.clustering += s.clustering;
        sums.lm_routing += s.lm_routing;
        sums.mst_routing += s.mst_routing;
        sums.escape += s.escape;
        sums.detour += s.detour;
    }
    println!(
        "{:<8} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
        "total",
        wall_sum,
        sums.clustering,
        sums.lm_routing,
        sums.mst_routing,
        sums.escape,
        sums.detour
    );
    if !full {
        println!("(run with --full to include Chip1/Chip2)");
    }
}

/// Congestion heatmap: one design under the flight recorder, rendered
/// as ASCII plus the post-mortem headline numbers.
fn heatmap(design: Option<&str>) {
    let name = design.unwrap_or("S5");
    let Some(d) = BenchDesign::ALL
        .into_iter()
        .find(|d| d.params().name == name)
    else {
        eprintln!("heatmap: unknown design {name:?}");
        std::process::exit(2);
    };
    let cfg = FlowConfig::default();
    pacor::obs::flight_install(pacor::obs::RecorderConfig::default());
    let r = run_config(d, cfg, BENCH_SEED);
    let log = pacor::obs::flight_take().expect("recorder installed");
    println!("== Congestion heatmap: {name} (seed {BENCH_SEED}) ==");
    println!(
        "completion {:.0}%  matched {}  total length {}",
        r.completion_rate() * 100.0,
        r.matched_clusters,
        r.total_length
    );
    println!(
        "recorder: {} events ({} dropped), {} snapshots, {} sessions",
        log.events().len(),
        log.dropped_events(),
        log.snapshots().len(),
        log.sessions()
    );
    println!();
    print!("{}", pacor::obs::render_heatmap(&log));
}

/// Ablations: λ (Eq. 2/3 weighting) and negotiation parameters (γ, α).
fn ablation() {
    println!("== Ablation A1: λ weighting of mismatch vs overlap (S3–S5) ==");
    println!(
        "{:<8} {:>6} {:>9} {:>10}",
        "Design", "λ", "#Matched", "TotalLen"
    );
    for (k, (lambda, r)) in lambda_ablation().into_iter().enumerate() {
        if k > 0 && k % LAMBDAS.len() == 0 {
            println!();
        }
        println!(
            "{:<8} {:>6.1} {:>9} {:>10}",
            r.design, lambda, r.matched_clusters, r.total_length
        );
    }
    println!();

    println!("== Ablation A2: negotiation γ and history α (S5) ==");
    println!(
        "{:<6} {:>6} {:>9} {:>10} {:>7}",
        "γ", "α", "#Matched", "TotalLen", "Compl"
    );
    for (gamma, alpha, r) in negotiation_ablation() {
        println!(
            "{:<6} {:>6.2} {:>9} {:>10} {:>6.0}%",
            gamma,
            alpha,
            r.matched_clusters,
            r.total_length,
            r.completion_rate() * 100.0
        );
    }
}
