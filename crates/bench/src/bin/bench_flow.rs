//! `bench_flow` — end-to-end PACOR flow benchmark over both rip-up
//! policies, writing `BENCH_flow.json`.
//!
//! ```text
//! bench_flow [--out FILE] [--repeat N] [--smoke] [--huge] [--chip NAME] [--events] [--ledger FILE]
//! ```
//!
//! Runs the full flow (clustering → LM routing → MST routing → escape →
//! detour) over the dense synthesized chips of
//! [`pacor_bench::FLOW_BENCH_CHIPS`], once per rip-up policy on one
//! thread, and records wall-clock (end-to-end and inside the
//! `negotiate` spans; best of `--repeat` runs, default 3), a per-stage
//! `stage_ms` breakdown (span-summed clustering / lm_routing /
//! mst_routing / escape / detour wall-clock, so speedups attribute to
//! the stage that earned them), an `escape_ms` sub-breakdown of the
//! escape stage (net_solve / phase1 / phase2 / phase3,
//! span-summed and min-across-repeats like `stage_ms`), plus the
//! `negotiate.rounds` / `negotiate.ripups` / `astar.scratch_resets`
//! counter totals.
//!
//! **Large chips** (width ≥ 256, i.e. the B4-dense256 tier and the
//! opt-in `--huge` B5-dense512) run a reduced schedule — repeats capped
//! at 2 and a three-entry routing comparison instead of one entry per
//! policy: flat serial, hierarchical serial, and hierarchical with
//! 4 region-parallel threads (see DESIGN.md §15). Every multi-thread
//! entry gets a `scaling_efficiency` (serial wall / its wall) relative
//! to the 1-thread entry with the same chip, policy and routing mode;
//! entries that scale *backwards* on a host with more than one CPU are
//! warned about on stderr.
//!
//! `--smoke` swaps the chip list for the single tiny
//! [`pacor_bench::FLOW_SMOKE_CHIP`] so CI can exercise the harness
//! cheaply; `--chip NAME` keeps only the named chip (for
//! `make bench-check`-style baseline comparisons) and implies `--huge`
//! when the huge chip is named. Default output path: `BENCH_flow.json`;
//! the file is written atomically (temp + rename).
//!
//! `--events` adds an opt-in per-entry sanity column on stderr: one
//! extra (untimed) run per entry with the deterministic telemetry
//! stream installed, reporting the event count and asserting the
//! stream's `round_progress` events match the entry's
//! `negotiate.rounds` counter. The JSON schema is unchanged.
//!
//! `--ledger FILE` additionally appends one `pacor-rundigest-v1` line
//! per entry (from the last timed repeat) to the given run-ledger
//! JSONL, so bench runs accumulate history that `tables compare` can
//! diff (see docs/OBSERVABILITY.md §"Run digests").

use pacor::route::RipUpPolicy;
use pacor::{DesignParams, RoutingMode};
use pacor_bench::{
    collect_telemetry, fill_scaling_efficiency, run_flow_bench_with_digest, FlowBenchEntry,
    FlowBenchReport, BENCH_SEED, FLOW_BENCH_CHIPS, FLOW_HUGE_CHIP, FLOW_SMOKE_CHIP, LARGE_WIDTH,
};

fn main() {
    let mut out = String::from("BENCH_flow.json");
    let mut repeat = 3u32;
    let mut smoke = false;
    let mut huge = false;
    let mut events = false;
    let mut chip_filter: Option<String> = None;
    let mut ledger: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(v) => out = v,
                None => return usage("--out requires a value"),
            },
            "--ledger" => match args.next() {
                Some(v) => ledger = Some(v),
                None => return usage("--ledger requires a value"),
            },
            "--repeat" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => repeat = n,
                _ => return usage("--repeat requires a positive integer"),
            },
            "--smoke" => smoke = true,
            "--huge" => huge = true,
            "--events" => events = true,
            "--chip" => match args.next() {
                Some(v) => chip_filter = Some(v),
                None => return usage("--chip requires a value"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    let mut chips: Vec<DesignParams> = if smoke {
        vec![FLOW_SMOKE_CHIP]
    } else {
        FLOW_BENCH_CHIPS.to_vec()
    };
    if huge || chip_filter.as_deref() == Some(FLOW_HUGE_CHIP.name) {
        chips.push(FLOW_HUGE_CHIP);
    }
    if let Some(name) = &chip_filter {
        chips.retain(|c| c.name == *name);
        if chips.is_empty() {
            return usage(&format!("--chip: no benchmark chip named {name:?}"));
        }
    }

    let mut report = FlowBenchReport {
        seed: BENCH_SEED,
        repeat,
        entries: Vec::new(),
    };
    let mut digests: Vec<pacor::obs::RunDigest> = Vec::new();
    for chip in chips {
        let mut chip_entries: Vec<FlowBenchEntry> = Vec::new();
        if chip.width >= LARGE_WIDTH {
            // Large tier: routing-mode comparison at capped repeats.
            let configs = [
                (RoutingMode::Flat, 1usize),
                (RoutingMode::Hierarchical, 1),
                (RoutingMode::Hierarchical, 4),
            ];
            for (routing, threads) in configs {
                let (entry, digest) = run_flow_bench_with_digest(
                    chip,
                    RipUpPolicy::Incremental,
                    routing,
                    threads,
                    BENCH_SEED,
                    repeat.min(2),
                );
                print_entry(&entry, String::new());
                chip_entries.push(entry);
                digests.push(digest);
            }
        } else {
            for policy in [RipUpPolicy::Full, RipUpPolicy::Incremental] {
                // Counter totals come from the flow's own per-run obs
                // session (carried in the report), so entries cannot
                // bleed.
                let (entry, digest) = run_flow_bench_with_digest(
                    chip,
                    policy,
                    RoutingMode::Flat,
                    1,
                    BENCH_SEED,
                    repeat,
                );
                // Opt-in telemetry sanity: one extra untimed run with
                // the deterministic stream installed; its round events
                // must agree with the counters the timed runs report.
                let events_col = if events {
                    let lines = collect_telemetry(chip, policy, 1, BENCH_SEED);
                    let round_events = lines
                        .iter()
                        .filter(|l| l.contains("\"kind\":\"round_progress\""))
                        .count() as u64;
                    assert_eq!(
                        round_events, entry.rounds,
                        "{} {}: round_progress events diverge from negotiate.rounds",
                        entry.chip, entry.policy
                    );
                    format!("  events {:>5}", lines.len())
                } else {
                    String::new()
                };
                print_entry(&entry, events_col);
                chip_entries.push(entry);
                digests.push(digest);
            }
        }
        for (chip, policy, routing, threads, eff) in fill_scaling_efficiency(&mut chip_entries) {
            eprintln!(
                "bench_flow: WARNING: {chip} {policy} {routing} t={threads} ran {:.2}x the serial \
                 wall-clock — parallel slower than serial on a {}-CPU host",
                1.0 / eff,
                pacor_bench::host_cpus(),
            );
        }
        report.entries.extend(chip_entries);
    }

    let json = serde_json::to_string_pretty(&report).expect("reports serialize");
    if let Err(e) = pacor::obs::atomic_write(&out, json + "\n") {
        eprintln!("bench_flow: writing {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("bench_flow: wrote {out}");
    if let Some(path) = ledger {
        let path = std::path::Path::new(&path);
        for digest in &digests {
            if let Err(e) = pacor::obs::ledger_append(path, digest) {
                eprintln!("bench_flow: appending to ledger {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        eprintln!(
            "bench_flow: appended {} digest(s) to {}",
            digests.len(),
            path.display()
        );
    }
}

fn print_entry(entry: &FlowBenchEntry, events_col: String) {
    let s = &entry.stage_ms;
    let e = &entry.escape_ms;
    eprintln!(
        "{:<12} {:<12} {:<13} t={} {:>9.1} ms  neg {:>8.1} ms  stages clu {:>6.1} lm {:>7.1} mst {:>6.1} esc {:>6.1} det {:>6.1}  esc[slv {:>6.1} p1 {:>6.1} p2 {:>5.1} p3 {:>5.1}]  rounds {:>4}  ripups {:>5}  complete {:>5.1}%{}",
        entry.chip,
        entry.policy,
        entry.routing,
        entry.threads,
        entry.wall_ms,
        entry.negotiate_ms,
        s.clustering,
        s.lm_routing,
        s.mst_routing,
        s.escape,
        s.detour,
        e.net_solve,
        e.phase1,
        e.phase2,
        e.phase3,
        entry.rounds,
        entry.ripups,
        entry.completion_rate * 100.0,
        events_col
    );
}

fn usage(err: &str) {
    eprintln!(
        "bench_flow: {err}\nusage: bench_flow [--out FILE] [--repeat N] [--smoke] [--huge] [--chip NAME] [--events] [--ledger FILE]"
    );
    std::process::exit(2);
}
