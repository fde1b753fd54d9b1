//! `LM_CONGESTED_CHIP` copies the private design parameters of the
//! `perfbench` workload `lm_congested`, so `profile_flow --chip
//! lm_congested --seed N` can profile any design of that workload's
//! catalog. This test pins the copy to `perfbench`'s golden record:
//! routed from the recorded design seeds, it must reproduce the recorded
//! outcomes, so a change to either copy of the parameters fails here.
//!
//! Under PACOR, design seed 3 of the same chip yields the one selection
//! instance among design seeds 1–11 and 42 that the MWCP node budget
//! cuts short; it is pinned here so the budget keeps that route finite.

use pacor::{synthesize_params, FlowConfig, FlowVariant, PacorFlow};
use pacor_bench::{BENCH_SEED, LM_CONGESTED_CHIP};

/// `perfbench`'s recorded route outcomes, one `g(...)` row per route.
const GOLDEN: &str = include_str!("../../../perfbench/src/golden.rs");

/// The recorded `[valves_routed, valves_total, matched, total_length]`
/// of `route` on design seed `seed` of workload `lm_congested`.
fn recorded(seed: u64, route: &str) -> [u64; 4] {
    let prefix = format!("g(\"lm_congested\", {seed}, \"{route}\",");
    let row = GOLDEN
        .lines()
        .map(str::trim)
        .find_map(|line| line.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no golden row for {route} on design seed {seed}"));
    let fields: Vec<u64> = row
        .trim_end_matches("),")
        .split(',')
        .map(|f| f.trim().parse().expect("numeric golden field"))
        .collect();
    fields.try_into().expect("four golden fields")
}

#[test]
fn lm_congested_chip_reproduces_perfbench_golden_record() {
    let variant = FlowVariant::WithoutSelection;
    let route = format!("{} {}", LM_CONGESTED_CHIP.name, variant.label());
    let problem = synthesize_params(LM_CONGESTED_CHIP, BENCH_SEED);
    let report = PacorFlow::new(FlowConfig::for_variant(variant))
        .run(&problem)
        .expect("lm_congested routes");
    let got = [
        report.valves_routed as u64,
        report.valves_total as u64,
        report.matched_clusters as u64,
        report.total_length,
    ];
    assert_eq!(
        got,
        recorded(BENCH_SEED, &route),
        "{route}, design seed {BENCH_SEED}"
    );
}

#[test]
fn lm_congested_seed_3_selection_stops_at_the_node_budget() {
    // One connected component of 21 clusters and 59 candidate trees:
    // solved exactly the route takes ~28 s in release; the budgeted
    // search keeps its incumbent and the route completes.
    let problem = synthesize_params(LM_CONGESTED_CHIP, 3);
    let report = PacorFlow::new(FlowConfig::for_variant(FlowVariant::Pacor))
        .run(&problem)
        .expect("lm_congested routes");
    assert_eq!(report.completion_rate(), 1.0);
    assert!(report.metrics.counter("mwcp.budget_hits") >= 1);
    assert!(report.metrics.counter("mwcp.nodes") >= pacor::clique::NODE_BUDGET);
}
