//! Recorded deterministic outcomes: the catalog of designs each workload
//! routes, and what every route of them must produce. Regenerate a
//! workload's rows with `--workload <name> --record <designs>` after a
//! deliberate change to the flow's results.

/// The design seed recorded for every workload but kept out of its
/// catalog; `--design-seed 7` runs it to check a workload's stage mix on
/// a design that was not used to choose the workload.
pub const HELD_OUT_SEED: u64 = 7;

/// One recorded route outcome.
pub struct Golden {
    pub workload: &'static str,
    pub design_seed: u64,
    pub route: &'static str,
    pub valves_routed: usize,
    pub valves_total: usize,
    pub matched: usize,
    pub total_length: u64,
}

const fn g(
    workload: &'static str,
    design_seed: u64,
    route: &'static str,
    valves_routed: usize,
    valves_total: usize,
    matched: usize,
    total_length: u64,
) -> Golden {
    Golden {
        workload,
        design_seed,
        route,
        valves_routed,
        valves_total,
        matched,
        total_length,
    }
}

#[rustfmt::skip]
pub const GOLDEN: &[Golden] = &[
    g("escape_recovery", 42, "B3-dense96 PACOR", 164, 200, 0, 3852),
    g("escape_recovery", 1, "B3-dense96 PACOR", 156, 200, 0, 3608),
    g("escape_recovery", 2, "B3-dense96 PACOR", 168, 200, 1, 4064),
    g("escape_recovery", 3, "B3-dense96 PACOR", 163, 200, 0, 3645),
    g("escape_recovery", 4, "B3-dense96 PACOR", 167, 200, 0, 3827),
    g("escape_recovery", 5, "B3-dense96 PACOR", 166, 200, 0, 3717),
    g("escape_recovery", 6, "B3-dense96 PACOR", 162, 200, 0, 3575),
    g("escape_recovery", 8, "B3-dense96 PACOR", 161, 200, 1, 3523),
    g("escape_recovery", 9, "B3-dense96 PACOR", 167, 200, 2, 3811),
    g("escape_recovery", 10, "B3-dense96 PACOR", 165, 200, 0, 4136),
    g("escape_recovery", 7, "B3-dense96 PACOR", 165, 200, 0, 3676),
    g("lm_congested", 42, "lm_congested w/o Sel", 176, 176, 23, 4079),
    g("lm_congested", 1, "lm_congested w/o Sel", 176, 176, 27, 3413),
    g("lm_congested", 2, "lm_congested w/o Sel", 176, 176, 18, 4146),
    g("lm_congested", 3, "lm_congested w/o Sel", 176, 176, 26, 4105),
    g("lm_congested", 5, "lm_congested w/o Sel", 176, 176, 19, 4389),
    g("lm_congested", 6, "lm_congested w/o Sel", 176, 176, 34, 3403),
    g("lm_congested", 8, "lm_congested w/o Sel", 176, 176, 26, 3785),
    g("lm_congested", 9, "lm_congested w/o Sel", 176, 176, 8, 4680),
    g("lm_congested", 10, "lm_congested w/o Sel", 176, 176, 25, 4016),
    g("lm_congested", 11, "lm_congested w/o Sel", 176, 176, 23, 3923),
    g("lm_congested", 7, "lm_congested w/o Sel", 176, 176, 33, 3608),
    g("paper_table2", 42, "Chip1 w/o Sel", 176, 176, 32, 4525),
    g("paper_table2", 42, "Chip2 w/o Sel", 56, 56, 22, 1554),
    g("paper_table2", 42, "Chip2 Detour First", 56, 56, 22, 1554),
    g("paper_table2", 42, "Chip2 PACOR", 56, 56, 22, 1554),
    g("paper_table2", 42, "S1 w/o Sel", 5, 5, 2, 27),
    g("paper_table2", 42, "S1 Detour First", 5, 5, 2, 27),
    g("paper_table2", 42, "S1 PACOR", 5, 5, 2, 27),
    g("paper_table2", 42, "S2 w/o Sel", 10, 10, 2, 88),
    g("paper_table2", 42, "S2 Detour First", 10, 10, 2, 92),
    g("paper_table2", 42, "S2 PACOR", 10, 10, 2, 92),
    g("paper_table2", 42, "S3 w/o Sel", 15, 15, 5, 157),
    g("paper_table2", 42, "S3 Detour First", 15, 15, 5, 157),
    g("paper_table2", 42, "S3 PACOR", 15, 15, 5, 157),
    g("paper_table2", 42, "S4 w/o Sel", 20, 20, 7, 239),
    g("paper_table2", 42, "S4 Detour First", 20, 20, 7, 239),
    g("paper_table2", 42, "S4 PACOR", 20, 20, 7, 239),
    g("paper_table2", 42, "S5 w/o Sel", 40, 40, 12, 777),
    g("paper_table2", 42, "S5 Detour First", 40, 40, 12, 777),
    g("paper_table2", 42, "S5 PACOR", 40, 40, 12, 777),
    g("paper_table2", 7, "Chip1 w/o Sel", 176, 176, 30, 4794),
    g("paper_table2", 7, "Chip2 w/o Sel", 56, 56, 22, 1634),
    g("paper_table2", 7, "Chip2 Detour First", 56, 56, 22, 1634),
    g("paper_table2", 7, "Chip2 PACOR", 56, 56, 22, 1634),
    g("paper_table2", 7, "S1 w/o Sel", 5, 5, 2, 24),
    g("paper_table2", 7, "S1 Detour First", 5, 5, 2, 24),
    g("paper_table2", 7, "S1 PACOR", 5, 5, 2, 24),
    g("paper_table2", 7, "S2 w/o Sel", 10, 10, 0, 48),
    g("paper_table2", 7, "S2 Detour First", 10, 10, 0, 48),
    g("paper_table2", 7, "S2 PACOR", 10, 10, 0, 48),
    g("paper_table2", 7, "S3 w/o Sel", 15, 15, 5, 144),
    g("paper_table2", 7, "S3 Detour First", 15, 15, 5, 144),
    g("paper_table2", 7, "S3 PACOR", 15, 15, 5, 144),
    g("paper_table2", 7, "S4 w/o Sel", 20, 20, 7, 280),
    g("paper_table2", 7, "S4 Detour First", 20, 20, 7, 277),
    g("paper_table2", 7, "S4 PACOR", 20, 20, 7, 280),
    g("paper_table2", 7, "S5 w/o Sel", 40, 40, 13, 729),
    g("paper_table2", 7, "S5 Detour First", 40, 40, 13, 734),
    g("paper_table2", 7, "S5 PACOR", 40, 40, 13, 734),
    g("smoke", 42, "S2 w/o Sel", 10, 10, 2, 88),
    g("smoke", 42, "S2 Detour First", 10, 10, 2, 92),
    g("smoke", 42, "S2 PACOR", 10, 10, 2, 92),
    g("smoke", 7, "S2 w/o Sel", 10, 10, 0, 48),
    g("smoke", 7, "S2 Detour First", 10, 10, 0, 48),
    g("smoke", 7, "S2 PACOR", 10, 10, 0, 48),
];
