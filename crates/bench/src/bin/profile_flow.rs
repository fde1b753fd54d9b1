//! `profile_flow` — per-stage wall-clock attribution for one chip.
//!
//! ```text
//! profile_flow [--chip NAME] [--variant pacor|wo-sel|detour-first]
//!              [--seed N] [--trace-out FILE] [--top N]
//! ```
//!
//! Synthesizes one chip (default the largest dense bench chip,
//! `B3-dense96`) — a paper design (`Chip1 Chip2 S1`–`S5`), a dense
//! flow-benchmark chip (`B0-smoke16`, `B1`–`B4`) or `lm_congested`, the
//! Chip1 cluster mix on 128² of the `perfbench` workload of that name —
//! from design seed `N` (default the shared bench seed, 42), so any
//! `perfbench` catalog design can be profiled, held-out seed 7 included.
//! It runs the full flow once under an observability session with the
//! chosen variant (default `pacor`), and prints every span name's
//! **inclusive** and **exclusive** wall-clock (exclusive = inclusive
//! minus the time spent in child spans), sorted
//! by exclusive time, then the escape solver's work counters
//! (`escape.dijkstras`, `escape.touched`) and the bounded detour DFS's
//! (`detour.dfs_nodes`, `detour.exhausted`). This is the profile that
//! decides which stage the next optimization PR attacks — `make
//! profile` wraps it.
//!
//! `--trace-out FILE` additionally writes the Chrome trace-event JSON
//! for the run, loadable in Perfetto for a zoomable view of the same
//! data.

use pacor::obs::{span_tree, TraceEvent};
use pacor::{synthesize_params, BenchDesign, DesignParams, FlowConfig, FlowVariant, PacorFlow};
use pacor_bench::{BENCH_SEED, FLOW_BENCH_CHIPS, FLOW_SMOKE_CHIP, LM_CONGESTED_CHIP};
use std::collections::BTreeMap;

fn main() {
    let mut chip_name = "B3-dense96".to_string();
    let mut variant = FlowVariant::Pacor;
    let mut seed = BENCH_SEED;
    let mut trace_out: Option<String> = None;
    let mut top = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--chip" => match args.next() {
                Some(v) => chip_name = v,
                None => return usage("--chip requires a value"),
            },
            "--variant" => match args.next().as_deref().and_then(FlowVariant::parse) {
                Some(v) => variant = v,
                None => return usage("--variant requires pacor, wo-sel or detour-first"),
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => seed = n,
                None => return usage("--seed requires a non-negative integer"),
            },
            "--trace-out" => match args.next() {
                Some(v) => trace_out = Some(v),
                None => return usage("--trace-out requires a value"),
            },
            "--top" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => top = n,
                _ => return usage("--top requires a positive integer"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    let chips: Vec<DesignParams> = BenchDesign::ALL
        .iter()
        .map(|d| d.params())
        .chain(FLOW_BENCH_CHIPS)
        .chain([FLOW_SMOKE_CHIP, LM_CONGESTED_CHIP])
        .collect();
    let Some(chip) = chips.iter().find(|c| c.name == chip_name) else {
        let names: Vec<&str> = chips.iter().map(|c| c.name).collect();
        return usage(&format!("unknown chip {chip_name:?}; available: {names:?}"));
    };

    let problem = synthesize_params(*chip, seed);
    let config = FlowConfig::for_variant(variant);
    // Warm-up run so first-touch costs don't skew the profile.
    PacorFlow::new(config)
        .run(&problem)
        .expect("synthesized designs are valid");

    let session = pacor::obs::Session::begin();
    let start = std::time::Instant::now();
    PacorFlow::new(config)
        .run(&problem)
        .expect("synthesized designs are valid");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = session.finish();

    if let Some(path) = &trace_out {
        let json = pacor::obs::chrome_trace(&report);
        if let Err(e) = pacor::obs::atomic_write(path, json) {
            eprintln!("profile_flow: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("profile_flow: wrote {path}");
    }

    let rows = span_profile(report.events());
    println!(
        "profile_flow: {} ({}x{}, {}, design seed {seed}), wall {wall_ms:.1} ms — top {top} spans by exclusive time",
        chip.name,
        chip.width,
        chip.height,
        variant.label()
    );
    println!(
        "{:<22} {:>7} {:>12} {:>12} {:>7}",
        "span", "count", "incl_ms", "excl_ms", "excl%"
    );
    for row in rows.iter().take(top) {
        println!(
            "{:<22} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            row.name,
            row.count,
            row.inclusive_us as f64 / 1e3,
            row.exclusive_us as f64 / 1e3,
            100.0 * row.exclusive_us as f64 / (wall_ms * 1e3)
        );
    }
    println!(
        "escape work: {} searches, {} node labels",
        report.counter("escape.dijkstras"),
        report.counter("escape.touched")
    );
    println!(
        "detour work: {} DFS nodes, {} lengths exhausted the node budget",
        report.counter("detour.dfs_nodes"),
        report.counter("detour.exhausted")
    );
}

/// Aggregated timing of every span sharing one name.
#[derive(Default)]
struct SpanRow {
    name: String,
    count: u64,
    inclusive_us: u64,
    exclusive_us: u64,
}

/// Sums [`span_tree`]'s nodes by span name, wherever they nest: each
/// span's exclusive time is its duration minus the durations of its
/// *direct* children. Sorted by exclusive time, largest first.
fn span_profile(events: &[TraceEvent]) -> Vec<SpanRow> {
    let mut by_name: BTreeMap<String, SpanRow> = BTreeMap::new();
    for root in span_tree(events) {
        root.walk("", &mut |_, node| {
            let row = by_name.entry(node.name.clone()).or_default();
            row.count += node.count;
            row.inclusive_us += node.incl_us;
            row.exclusive_us += node.excl_us;
        });
    }
    let mut rows: Vec<SpanRow> = by_name
        .into_iter()
        .map(|(name, row)| SpanRow { name, ..row })
        .collect();
    rows.sort_by(|a, b| {
        b.exclusive_us
            .cmp(&a.exclusive_us)
            .then(a.name.cmp(&b.name))
    });
    rows
}

fn usage(err: &str) {
    eprintln!(
        "profile_flow: {err}\nusage: profile_flow [--chip NAME] [--variant pacor|wo-sel|detour-first] [--seed N] [--trace-out FILE] [--top N]"
    );
    std::process::exit(2);
}
