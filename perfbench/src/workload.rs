//! The benchmark's workloads: which designs each one routes, under which
//! flow variant, and the recorded outcome every operation must reproduce.

use crate::golden::{Golden, GOLDEN, HELD_OUT_SEED};
use pacor::{
    synthesize_params, BenchDesign, DesignParams, FlowConfig, FlowVariant, Problem, RouteReport,
    FLOW_BENCH_CHIPS,
};

/// Chip1's cluster mix (40 multi-valve clusters of up to four valves) on
/// a denser 128² grid, so negotiation has to rip up and retry.
const LM_CONGESTED: DesignParams = DesignParams {
    name: "lm_congested",
    width: 128,
    height: 128,
    valves: 176,
    control_pins: 500,
    obstacles: 400,
    multi_clusters: 40,
    pairs_only: false,
};

/// One workload of `BENCHMARK.json`, plus the tiny `smoke` workload the
/// benchmark's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EscapeRecovery,
    LmCongested,
    PaperTable2,
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EscapeRecovery,
        Workload::LmCongested,
        Workload::PaperTable2,
        Workload::Smoke,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EscapeRecovery => "escape_recovery",
            Workload::LmCongested => "lm_congested",
            Workload::PaperTable2 => "paper_table2",
            Workload::Smoke => "smoke",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The design seeds this workload routes, in recorded order: every
    /// recorded design except the held-out one. Every run routes all of
    /// them, so every `--seed` does the same work.
    pub fn catalog(self) -> Vec<u64> {
        let mut seeds = self.recorded_seeds();
        seeds.retain(|&s| s != HELD_OUT_SEED);
        seeds
    }

    /// Every design seed with a recorded outcome, held-out one included.
    pub fn recorded_seeds(self) -> Vec<u64> {
        let mut seeds: Vec<u64> = Vec::new();
        for g in self.golden() {
            if !seeds.contains(&g.design_seed) {
                seeds.push(g.design_seed);
            }
        }
        seeds
    }

    fn golden(self) -> impl Iterator<Item = &'static Golden> {
        GOLDEN.iter().filter(move |g| g.workload == self.name())
    }

    /// The routes of one operation on the design synthesized from
    /// `design_seed`. Every config is single-threaded and flat.
    pub fn routes(self, design_seed: u64) -> Vec<Route> {
        match self {
            Workload::EscapeRecovery => {
                let b3 = FLOW_BENCH_CHIPS
                    .into_iter()
                    .find(|p| p.name == "B3-dense96")
                    .expect("B3-dense96 is a flow bench chip");
                vec![Route::new(
                    synthesize_params(b3, design_seed),
                    FlowVariant::Pacor,
                )]
            }
            Workload::LmCongested => vec![Route::new(
                synthesize_params(LM_CONGESTED, design_seed),
                FlowVariant::WithoutSelection,
            )],
            // Table 2 order. Chip1 runs only w/o Sel: under PACOR and
            // Detour First it stalls in MWCP selection.
            Workload::PaperTable2 => BenchDesign::ALL
                .into_iter()
                .flat_map(|design| {
                    let problem = design.synthesize(design_seed);
                    FlowVariant::ALL
                        .into_iter()
                        .filter(move |&v| {
                            design != BenchDesign::Chip1 || v == FlowVariant::WithoutSelection
                        })
                        .map(move |v| Route::new(problem.clone(), v))
                })
                .collect(),
            Workload::Smoke => {
                let problem = BenchDesign::S2.synthesize(design_seed);
                FlowVariant::ALL
                    .into_iter()
                    .map(|v| Route::new(problem.clone(), v))
                    .collect()
            }
        }
    }

    /// The recorded outcome of `route` on `design_seed`, if any.
    pub fn expected(self, design_seed: u64, route: &str) -> Option<Outcome> {
        self.golden()
            .find(|g| g.design_seed == design_seed && g.route == route)
            .map(|g| Outcome {
                valves_routed: g.valves_routed,
                valves_total: g.valves_total,
                matched: g.matched,
                total_length: g.total_length,
            })
    }
}

/// One `PacorFlow::run`: a design under one flow variant.
pub struct Route {
    pub name: String,
    pub problem: Problem,
    pub config: FlowConfig,
}

impl Route {
    fn new(problem: Problem, variant: FlowVariant) -> Self {
        Self {
            name: format!("{} {}", problem.name, variant.label()),
            problem,
            config: FlowConfig::for_variant(variant),
        }
    }
}

/// The deterministic result of one route, compared against the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub valves_routed: usize,
    pub valves_total: usize,
    pub matched: usize,
    pub total_length: u64,
}

impl Outcome {
    pub fn of(report: &RouteReport) -> Self {
        Self {
            valves_routed: report.valves_routed,
            valves_total: report.valves_total,
            matched: report.matched_clusters,
            total_length: report.total_length,
        }
    }
}
