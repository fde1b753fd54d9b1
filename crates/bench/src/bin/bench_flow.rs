//! `bench_flow` — end-to-end PACOR flow benchmark, writing
//! `BENCH_flow.json`.
//!
//! ```text
//! bench_flow [--out FILE] [--repeat N] [--smoke] [--huge] [--chip NAME]
//! ```
//!
//! Runs the full flow (clustering → LM routing → MST routing → escape →
//! detour) over the dense synthesized chips of
//! [`pacor_bench::FLOW_BENCH_CHIPS`], one entry per chip, and
//! records wall-clock (end-to-end and inside the
//! `negotiate` spans; best of `--repeat` runs, default 3), a per-stage
//! `stage_ms` breakdown (span-summed clustering / lm_routing /
//! mst_routing / escape / detour wall-clock, so speedups attribute to
//! the stage that earned them), an `escape_ms` sub-breakdown of the
//! escape stage (net_solve / phase1 / phase2 / phase3,
//! span-summed and min-across-repeats like `stage_ms`), and the
//! `digest_hash` of the timed run. What the run routed and counted is
//! not repeated here: the hash names the chip's golden digest
//! (`tests/fixtures/golden/<chip>.digest.json`), which holds it.
//!
//! **Large chips** (width ≥ 256, i.e. the B4-dense256 tier and the
//! opt-in `--huge` B5-dense512) run a reduced schedule: repeats capped
//! at 2.
//!
//! `--smoke` swaps the chip list for the single tiny
//! [`pacor_bench::FLOW_SMOKE_CHIP`] so CI can exercise the harness
//! cheaply; `--chip NAME` keeps only the named chip (for
//! `make bench-check`-style baseline comparisons) and implies `--huge`
//! when the huge chip is named. Default output path: `BENCH_flow.json`;
//! the file is written atomically (temp + rename).

use pacor::DesignParams;
use pacor_bench::{
    run_flow_bench, FlowBenchEntry, FlowBenchReport, BENCH_SEED, FLOW_BENCH_CHIPS, FLOW_HUGE_CHIP,
    FLOW_SMOKE_CHIP, LARGE_WIDTH,
};

fn main() {
    let mut out = String::from("BENCH_flow.json");
    let mut repeat = 3u32;
    let mut smoke = false;
    let mut huge = false;
    let mut chip_filter: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(v) => out = v,
                None => return usage("--out requires a value"),
            },
            "--repeat" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => repeat = n,
                _ => return usage("--repeat requires a positive integer"),
            },
            "--smoke" => smoke = true,
            "--huge" => huge = true,
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
    for chip in chips {
        let chip_repeat = if chip.width >= LARGE_WIDTH {
            repeat.min(2)
        } else {
            repeat
        };
        let entry = run_flow_bench(chip, BENCH_SEED, chip_repeat);
        print_entry(&entry);
        report.entries.push(entry);
    }

    let json = serde_json::to_string_pretty(&report).expect("reports serialize");
    if let Err(e) = pacor::obs::atomic_write(&out, json + "\n") {
        eprintln!("bench_flow: writing {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("bench_flow: wrote {out}");
}

fn print_entry(entry: &FlowBenchEntry) {
    let s = &entry.stage_ms;
    let e = &entry.escape_ms;
    eprintln!(
        "{:<12} {:>9.1} ms  neg {:>8.1} ms  stages clu {:>6.1} lm {:>7.1} mst {:>6.1} esc {:>6.1} det {:>6.1}  esc[slv {:>6.1} p1 {:>6.1} p2 {:>5.1} p3 {:>5.1}]  digest_hash {}",
        entry.chip,
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
        entry.digest_hash
    );
}

fn usage(err: &str) {
    eprintln!(
        "bench_flow: {err}\nusage: bench_flow [--out FILE] [--repeat N] [--smoke] [--huge] [--chip NAME]"
    );
    std::process::exit(2);
}
