//! Shared helpers for the PACOR benchmark harness.
//!
//! The binaries and criterion benches in this crate regenerate every
//! table and figure of the paper's evaluation (see DESIGN.md §5):
//!
//! * `tables table1` — design parameters (Table 1),
//! * `tables table2` — the three-variant self-comparison (Table 2),
//! * `tables fig3`   — DME candidate Steiner trees (Figure 3),
//! * `tables ablation` — λ / negotiation-parameter ablations (A1/A2),
//! * `tables sweep` — the Table 2 metrics over many design seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pacor::route::RipUpPolicy;
use pacor::{
    synthesize_params, BenchDesign, DesignParams, FlowConfig, FlowVariant, PacorFlow, RouteReport,
    RoutingMode,
};
use serde::{Deserialize, Serialize};

/// The seed every reported experiment uses, for reproducibility.
pub const BENCH_SEED: u64 = 42;

/// Chips at or above this width get the reduced large-chip benchmark
/// schedule (routing-mode comparison at capped repeats instead of one
/// entry per rip-up policy), and the large-tier rules in
/// `tables regress` (completion + scaling gates instead of per-stage
/// wall-clock budgets).
pub const LARGE_WIDTH: u32 = 256;

/// Runs one design under one variant and returns its report.
///
/// # Panics
///
/// Panics when the synthesized problem fails to route-validate — a
/// harness bug rather than an experiment outcome.
pub fn run_variant(design: BenchDesign, variant: FlowVariant, seed: u64) -> RouteReport {
    let problem = design.synthesize(seed);
    PacorFlow::new(FlowConfig::for_variant(variant))
        .run(&problem)
        .expect("synthesized designs are valid")
}

/// Runs one design under a custom configuration.
///
/// # Panics
///
/// Same as [`run_variant`].
pub fn run_config(design: BenchDesign, config: FlowConfig, seed: u64) -> RouteReport {
    let problem = design.synthesize(seed);
    PacorFlow::new(config)
        .run(&problem)
        .expect("synthesized designs are valid")
}

/// Formats a Table 1 row for a design.
pub fn table1_row(design: BenchDesign) -> String {
    let p = design.params();
    format!(
        "{:<8} {:>4}x{:<4} {:>8} {:>12} {:>6}",
        p.name, p.width, p.height, p.valves, p.control_pins, p.obstacles
    )
}

/// The Table 1 header matching [`table1_row`].
pub fn table1_header() -> String {
    format!(
        "{:<8} {:>9} {:>8} {:>12} {:>6}",
        "Design", "Size", "#Valves", "#ControlPin", "#Obs"
    )
}

/// The hot-path counters printed alongside Table 2, in column order.
const METRIC_COLUMNS: [(&str, &str); 6] = [
    ("astar.queries", "A*qry"),
    ("astar.expansions", "A*exp"),
    ("negotiate.rounds", "NegRnd"),
    ("negotiate.ripups", "RipUp"),
    ("escape.declustered", "Declus"),
    ("detour.segments", "DetSeg"),
];

/// Formats a counter row for a report: the deterministic hot-path
/// totals the flow's observability layer collected during the run.
pub fn metrics_row(report: &RouteReport) -> String {
    let mut row = format!("{:<8} {:<13}", report.design, report.variant);
    for (name, _) in METRIC_COLUMNS {
        row.push_str(&format!(" {:>9}", report.metrics.counter(name)));
    }
    row
}

/// The header matching [`metrics_row`].
pub fn metrics_header() -> String {
    let mut row = format!("{:<8} {:<13}", "Design", "Method");
    for (_, label) in METRIC_COLUMNS {
        row.push_str(&format!(" {label:>9}"));
    }
    row
}

// ---------------------------------------------------------------------------
// Ablations and seed sweeps (`tables ablation` / `tables sweep`), also
// gated against EXPERIMENTS.md by the root package's `tests/chips.rs`.

/// Designs of ablation A1.
pub const LAMBDA_DESIGNS: [BenchDesign; 3] = [BenchDesign::S3, BenchDesign::S4, BenchDesign::S5];

/// λ values of ablation A1; the paper fixes 0.1.
pub const LAMBDAS: [f64; 4] = [0.0, 0.1, 0.5, 0.9];

/// Negotiation iteration thresholds γ of ablation A2.
pub const GAMMAS: [u32; 3] = [1, 3, 10];

/// History decays α of ablation A2.
pub const ALPHAS: [f64; 3] = [0.05, 0.1, 0.5];

/// Ablation A1: every [`LAMBDA_DESIGNS`] design routed at every λ of
/// [`LAMBDAS`] (seed [`BENCH_SEED`]), design-major.
pub fn lambda_ablation() -> Vec<(f64, RouteReport)> {
    LAMBDA_DESIGNS
        .into_iter()
        .flat_map(|d| {
            LAMBDAS.map(|lambda| {
                let cfg = FlowConfig {
                    lambda,
                    ..FlowConfig::default()
                };
                (lambda, run_config(d, cfg, BENCH_SEED))
            })
        })
        .collect()
}

/// Ablation A2: S5 routed under every (γ, α) of [`GAMMAS`] ×
/// [`ALPHAS`] (seed [`BENCH_SEED`]), γ-major.
pub fn negotiation_ablation() -> Vec<(u32, f64, RouteReport)> {
    GAMMAS
        .into_iter()
        .flat_map(|gamma| {
            ALPHAS.map(|history_alpha| {
                let cfg = FlowConfig {
                    gamma,
                    history_alpha,
                    ..FlowConfig::default()
                };
                (
                    gamma,
                    history_alpha,
                    run_config(BenchDesign::S5, cfg, BENCH_SEED),
                )
            })
        })
        .collect()
}

/// Design seeds of the robustness sweep (PACOR only).
pub const ROBUSTNESS_SEEDS: std::ops::Range<u64> = 0..10;

/// Design seeds of the three-variant sweep.
pub const VARIANT_SWEEP_SEEDS: std::ops::Range<u64> = 0..12;

/// One synthetic design under one variant, summed over a seed sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// The design.
    pub design: BenchDesign,
    /// The flow variant.
    pub variant: FlowVariant,
    /// Routes run, one per seed.
    pub runs: usize,
    /// Matched clusters, summed over the runs.
    pub matched: usize,
    /// Total channel length, summed over the runs.
    pub total_length: u64,
    /// The lowest completion rate of any run.
    pub min_completion: f64,
}

impl SweepCell {
    /// Multi-valve clusters routed over the runs: the most `matched`
    /// can reach.
    pub fn clusters(&self) -> usize {
        self.runs * self.design.params().multi_clusters as usize
    }
}

/// Routes every synthetic design (S1–S5) under each of `variants` at
/// every seed of `seeds`; one cell per design and variant, design-major.
pub fn seed_sweep(variants: &[FlowVariant], seeds: std::ops::Range<u64>) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for design in BenchDesign::SYNTH {
        for &variant in variants {
            let mut cell = SweepCell {
                design,
                variant,
                runs: 0,
                matched: 0,
                total_length: 0,
                min_completion: 1.0,
            };
            for seed in seeds.clone() {
                let r = run_variant(design, variant, seed);
                cell.runs += 1;
                cell.matched += r.matched_clusters;
                cell.total_length += r.total_length;
                cell.min_completion = cell.min_completion.min(r.completion_rate());
            }
            cells.push(cell);
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// End-to-end flow benchmark (`bench_flow` binary → BENCH_flow.json).

// The dense flow-benchmark chip definitions live in `pacor`'s bench
// suite (next to `DesignParams` and the Table 1 designs) so the CLI can
// synthesize and route them by name; re-exported here for the harness.
pub use pacor::{FLOW_BENCH_CHIPS, FLOW_HUGE_CHIP, FLOW_SMOKE_CHIP};

/// The chip of `perfbench`'s `lm_congested` workload: Chip1's cluster
/// mix on a denser 128² grid, for `profile_flow --chip lm_congested`.
/// A copy of `perfbench`'s private parameters; the
/// `lm_congested_chip` test pins it to `perfbench`'s golden record.
pub const LM_CONGESTED_CHIP: DesignParams = DesignParams {
    name: "lm_congested",
    width: 128,
    height: 128,
    valves: 176,
    control_pins: 500,
    obstacles: 400,
    multi_clusters: 40,
    pairs_only: false,
};

/// One (chip × rip-up policy × routing mode × threads) measurement of
/// the end-to-end flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowBenchEntry {
    /// Chip name (see [`FLOW_BENCH_CHIPS`]).
    pub chip: String,
    /// Grid width.
    pub width: u32,
    /// Grid height.
    pub height: u32,
    /// Valve count.
    pub valves: u32,
    /// Rip-up policy label (`full` / `incremental`).
    pub policy: String,
    /// Routing mode label (`flat` / `hierarchical`).
    pub routing: String,
    /// Worker threads configured for the run.
    pub threads: usize,
    /// CPUs the measuring host exposed. The scaling gate in
    /// `make bench-check` only applies where the hardware can actually
    /// parallelize — a 1-CPU container serializes every thread count.
    pub host_cpus: usize,
    /// End-to-end wall-clock of the best repeat, in milliseconds.
    pub wall_ms: f64,
    /// Serial-baseline wall-clock divided by this entry's: the speedup
    /// earned by this entry's extra threads over the 1-thread entry with
    /// the same chip, policy and routing mode (1.0 for that baseline
    /// itself, and for entries with no baseline in the same run).
    pub scaling_efficiency: f64,
    /// Wall-clock spent inside `negotiate` spans on the best-negotiate
    /// repeat, in milliseconds.
    pub negotiate_ms: f64,
    /// `negotiate.rounds` counter total.
    pub rounds: u64,
    /// `negotiate.ripups` counter total.
    pub ripups: u64,
    /// `astar.scratch_resets` counter total.
    pub scratch_resets: u64,
    /// Total routed control-channel length, grid units.
    pub total_length: u64,
    /// Fraction of valves connected (1.0 = everything routed).
    pub completion_rate: f64,
    /// Span-summed wall-clock per flow stage (best across repeats, like
    /// `wall_ms`), so speedups can be attributed to the stage that
    /// earned them.
    pub stage_ms: StageMs,
    /// Escape-stage sub-breakdown (best across repeats, like
    /// `stage_ms`), attributing the escape wall-clock to the
    /// min-cost-flow solves and the three phases.
    pub escape_ms: EscapeMs,
}

/// Per-stage wall-clock breakdown of one flow run, in milliseconds.
/// Each field sums the durations of the matching `stage.*` span
/// (inclusive — escape includes its flow solves, detour its A\* calls).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StageMs {
    /// `stage.clustering` spans.
    pub clustering: f64,
    /// `stage.lm_routing` spans (includes negotiation rounds).
    pub lm_routing: f64,
    /// `stage.mst_routing` spans.
    pub mst_routing: f64,
    /// `stage.escape` spans.
    pub escape: f64,
    /// `stage.detour` spans (both detour passes).
    pub detour: f64,
}

impl StageMs {
    /// Extracts the breakdown from an observability report.
    pub fn of(report: &pacor::obs::ObsReport) -> Self {
        Self {
            clustering: span_ms_of(report, "stage.clustering"),
            lm_routing: span_ms_of(report, "stage.lm_routing"),
            mst_routing: span_ms_of(report, "stage.mst_routing"),
            escape: span_ms_of(report, "stage.escape"),
            detour: span_ms_of(report, "stage.detour"),
        }
    }

    /// Field-wise minimum, mirroring the best-of-repeats `wall_ms` rule.
    fn min(self, other: Self) -> Self {
        Self {
            clustering: self.clustering.min(other.clustering),
            lm_routing: self.lm_routing.min(other.lm_routing),
            mst_routing: self.mst_routing.min(other.mst_routing),
            escape: self.escape.min(other.escape),
            detour: self.detour.min(other.detour),
        }
    }
}

/// Escape-stage wall-clock sub-breakdown of one flow run, in
/// milliseconds. Each field sums the durations of the matching
/// `escape.*` span, so an escape regression (or speedup) attributes to
/// the round solves or to a specific phase. The two axes overlap:
/// `net_solve` slices the stage by activity, `phase1`–`phase3` slice it
/// by protocol phase (each phase span encloses its solve spans, plus
/// phase-local work such as blocker analysis and re-routing ripped
/// victims).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EscapeMs {
    /// `escape.net_solve` spans (one cold min-cost-flow solve per round).
    pub net_solve: f64,
    /// `escape.phase1` spans (global rounds with de-clustering).
    pub phase1: f64,
    /// `escape.phase2` spans (pending-only solves plus rip-up recovery).
    pub phase2: f64,
    /// `escape.phase3` spans (last-resort global re-solves).
    pub phase3: f64,
}

impl EscapeMs {
    /// Extracts the sub-breakdown from an observability report.
    pub fn of(report: &pacor::obs::ObsReport) -> Self {
        Self {
            net_solve: span_ms_of(report, "escape.net_solve"),
            phase1: span_ms_of(report, "escape.phase1"),
            phase2: span_ms_of(report, "escape.phase2"),
            phase3: span_ms_of(report, "escape.phase3"),
        }
    }

    /// Field-wise minimum, mirroring the best-of-repeats `wall_ms` rule.
    fn min(self, other: Self) -> Self {
        Self {
            net_solve: self.net_solve.min(other.net_solve),
            phase1: self.phase1.min(other.phase1),
            phase2: self.phase2.min(other.phase2),
            phase3: self.phase3.min(other.phase3),
        }
    }
}

/// The `BENCH_flow.json` document: one entry per benchmark configuration
/// of each chip (see `bench_flow`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowBenchReport {
    /// Synthesis seed shared by every entry.
    pub seed: u64,
    /// Repeats per entry (wall-clock is the minimum across them).
    pub repeat: u32,
    /// Measurements, in chip-then-policy order.
    pub entries: Vec<FlowBenchEntry>,
}

/// CPUs the current host exposes to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fills in `scaling_efficiency` across one run's entries: each
/// multi-thread entry is related to the 1-thread entry sharing its chip,
/// policy and routing mode. Returns the (chip, policy, routing, threads,
/// efficiency) tuples of every entry that scaled *backwards* — parallel
/// slower than serial — on a host that could have parallelized, so the
/// caller can warn about them.
pub fn fill_scaling_efficiency(
    entries: &mut [FlowBenchEntry],
) -> Vec<(String, String, String, usize, f64)> {
    let serial_walls: Vec<(String, String, String, f64)> = entries
        .iter()
        .filter(|e| e.threads == 1)
        .map(|e| (e.chip.clone(), e.policy.clone(), e.routing.clone(), e.wall_ms))
        .collect();
    let mut regressions = Vec::new();
    for e in entries.iter_mut().filter(|e| e.threads > 1) {
        let Some((_, _, _, serial)) = serial_walls
            .iter()
            .find(|(c, p, r, _)| *c == e.chip && *p == e.policy && *r == e.routing)
        else {
            continue;
        };
        e.scaling_efficiency = serial / e.wall_ms;
        if e.scaling_efficiency < 1.0 && e.host_cpus > 1 {
            regressions.push((
                e.chip.clone(),
                e.policy.clone(),
                e.routing.clone(),
                e.threads,
                e.scaling_efficiency,
            ));
        }
    }
    regressions
}

/// Sums the durations of every span with the given name in an
/// observability report, in milliseconds.
fn span_ms_of(report: &pacor::obs::ObsReport, span: &str) -> f64 {
    report
        .events()
        .iter()
        .filter_map(|e| match e {
            pacor::obs::TraceEvent::Span { name, dur, .. } if *name == span => Some(*dur),
            _ => None,
        })
        .sum::<u64>() as f64
        / 1e3
}

/// Runs the full flow on one synthesized chip under one rip-up policy,
/// routing mode and thread count, `repeat` times, and reports the best
/// wall-clock (end-to-end, and inside the `negotiate` spans) alongside
/// the (repeat-invariant) counter totals. One untimed warm-up run
/// precedes the timed repeats so first-touch costs (page faults,
/// allocator growth) don't land on whichever configuration happens to
/// run first.
///
/// # Panics
///
/// Panics when the flow errors out or the counters differ between
/// repeats — both harness bugs, not experiment outcomes.
pub fn run_flow_bench(
    params: DesignParams,
    policy: RipUpPolicy,
    routing: RoutingMode,
    threads: usize,
    seed: u64,
    repeat: u32,
) -> FlowBenchEntry {
    run_flow_bench_with_digest(params, policy, routing, threads, seed, repeat).0
}

/// [`run_flow_bench`], additionally returning the `pacor-rundigest-v1`
/// record of the *last* timed repeat (deterministic fields are
/// repeat-invariant; the wall-clock facts are that repeat's). This is
/// what `bench_flow --ledger` appends to the run ledger so bench
/// entries can be diffed with `tables compare`.
///
/// # Panics
///
/// Same as [`run_flow_bench`].
pub fn run_flow_bench_with_digest(
    params: DesignParams,
    policy: RipUpPolicy,
    routing: RoutingMode,
    threads: usize,
    seed: u64,
    repeat: u32,
) -> (FlowBenchEntry, pacor::obs::RunDigest) {
    let problem = synthesize_params(params, seed);
    let config = FlowConfig::default()
        .with_ripup_policy(policy)
        .with_routing_mode(routing)
        .with_threads(threads);
    PacorFlow::new(config)
        .run(&problem)
        .expect("synthesized designs are valid");
    let mut entry: Option<FlowBenchEntry> = None;
    let mut digest: Option<pacor::obs::RunDigest> = None;
    for _ in 0..repeat.max(1) {
        // An outer observability session captures the run's spans (the
        // flow's nested session merges upward into it on finish), so the
        // negotiation phase can be timed without touching the flow.
        let session = pacor::obs::Session::begin();
        let report = PacorFlow::new(config)
            .run(&problem)
            .expect("synthesized designs are valid");
        let obs = session.finish();
        digest = Some(pacor::run_digest(&problem, &config, &report, &obs));
        let negotiate_ms = span_ms_of(&obs, "negotiate");
        let stage_ms = StageMs::of(&obs);
        let escape_ms = EscapeMs::of(&obs);
        let wall_ms = report.runtime.as_secs_f64() * 1e3;
        match &mut entry {
            None => {
                entry = Some(FlowBenchEntry {
                    chip: params.name.to_string(),
                    width: params.width,
                    height: params.height,
                    valves: params.valves,
                    policy: policy.label().to_string(),
                    routing: routing.label().to_string(),
                    threads,
                    host_cpus: host_cpus(),
                    wall_ms,
                    scaling_efficiency: 1.0,
                    negotiate_ms,
                    rounds: report.metrics.counter("negotiate.rounds"),
                    ripups: report.metrics.counter("negotiate.ripups"),
                    scratch_resets: report.metrics.counter("astar.scratch_resets"),
                    total_length: report.total_length,
                    completion_rate: report.completion_rate(),
                    stage_ms,
                    escape_ms,
                });
            }
            Some(e) => {
                assert_eq!(e.ripups, report.metrics.counter("negotiate.ripups"));
                e.wall_ms = e.wall_ms.min(wall_ms);
                e.negotiate_ms = e.negotiate_ms.min(negotiate_ms);
                e.stage_ms = e.stage_ms.min(stage_ms);
                e.escape_ms = e.escape_ms.min(escape_ms);
            }
        }
    }
    (entry.expect("repeat >= 1"), digest.expect("repeat >= 1"))
}

/// Runs the flow once with a deterministic in-memory telemetry stream
/// installed and returns the raw JSONL lines. This is the event stream
/// the invariance tests byte-compare across thread counts and policies,
/// and the one `bench_flow --events` sanity-checks against the entry's
/// counters.
///
/// # Panics
///
/// Panics when the flow errors out — a harness bug, not an experiment
/// outcome.
pub fn collect_telemetry(
    params: DesignParams,
    policy: RipUpPolicy,
    threads: usize,
    seed: u64,
) -> Vec<String> {
    let problem = synthesize_params(params, seed);
    let config = FlowConfig::default()
        .with_ripup_policy(policy)
        .with_threads(threads);
    let sink = pacor::obs::MemorySink::new();
    let lines = sink.lines();
    pacor::obs::telemetry_install(
        pacor::obs::TelemetryConfig::deterministic(),
        vec![Box::new(sink)],
    );
    let result = PacorFlow::new(config).run(&problem);
    pacor::obs::telemetry_take()
        .expect("telemetry installed")
        .expect("a memory sink cannot fail");
    result.expect("synthesized designs are valid");
    let collected = lines.lock().expect("telemetry sink lock").clone();
    collected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_variant_completes_s1() {
        let r = run_variant(BenchDesign::S1, FlowVariant::Pacor, BENCH_SEED);
        assert_eq!(r.completion_rate(), 1.0);
    }

    #[test]
    fn table1_row_contains_params() {
        let row = table1_row(BenchDesign::S3);
        assert!(row.contains("S3"));
        assert!(row.contains("52x52"));
        assert!(row.contains("93"));
    }

    #[test]
    fn metrics_row_prints_counter_totals() {
        let r = run_variant(BenchDesign::S1, FlowVariant::Pacor, BENCH_SEED);
        let row = metrics_row(&r);
        assert!(row.contains("S1"));
        assert!(
            row.contains(&r.metrics.counter("astar.expansions").to_string()),
            "row must carry the expansion total: {row}"
        );
        let header = metrics_header();
        assert!(header.contains("A*exp"));
    }
}
