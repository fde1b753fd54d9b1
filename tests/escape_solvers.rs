//! The two escape solvers must route the identical report on the dense
//! 48×48 benchmark chip — the densest chip that still runs in seconds,
//! with enough escape contention to exercise de-clustering, rip-up
//! recovery and the last-resort phase. Wall-clock fields and work
//! counters aside, any diff is a solver-equivalence bug.

use pacor_bench::{BENCH_SEED, FLOW_BENCH_CHIPS};
use pacor_repro::pacor::{
    synthesize_params, EscapeSolver, FlowConfig, FlowMetrics, PacorFlow, RouteReport,
};
use std::time::Duration;

fn route(solver: EscapeSolver) -> RouteReport {
    let chip = FLOW_BENCH_CHIPS
        .iter()
        .find(|c| c.name == "B2-dense48")
        .expect("B2-dense48 is a bench chip");
    let problem = synthesize_params(*chip, BENCH_SEED);
    let mut report = PacorFlow::new(FlowConfig::default().with_escape_solver(solver))
        .run(&problem)
        .expect("bench chips route");
    report.runtime = Duration::ZERO;
    report.metrics = FlowMetrics::default();
    report
}

#[test]
fn grid_and_reference_solvers_route_b2_dense48_identically() {
    let grid = route(EscapeSolver::Incremental);
    let reference = route(EscapeSolver::Reference);
    assert!(
        grid.valves_routed < grid.valves_total,
        "B2-dense48 must stay escape-contended to exercise recovery"
    );
    assert_eq!(
        serde_json::to_string(&grid).unwrap(),
        serde_json::to_string(&reference).unwrap()
    );
}
