//! The paper's Table 2 designs at full scale: every route of Chip1,
//! Chip2 and S1–S5 under the three variants must complete, keep the
//! paper's shape claims, and reproduce EXPERIMENTS.md's "This
//! reproduction" table. The ablation and seed-sweep tables are checked
//! against the loops `tables ablation` and `tables sweep` print. Every
//! table is parsed from the file, so the doc cannot drift from the code.

use pacor_bench::{
    lambda_ablation, negotiation_ablation, seed_sweep, SweepCell, ALPHAS, GAMMAS, LAMBDAS,
    LAMBDA_DESIGNS, ROBUSTNESS_SEEDS, VARIANT_SWEEP_SEEDS,
};
use pacor_repro::pacor::{BenchDesign, FlowConfig, FlowVariant, PacorFlow, RouteReport};

/// Design seed of the Table 2 runs (`pacor_bench::BENCH_SEED`).
const SEED: u64 = 42;

fn route(design: BenchDesign, variant: FlowVariant) -> RouteReport {
    PacorFlow::new(FlowConfig::for_variant(variant))
        .run(&design.synthesize(SEED))
        .expect("valid")
}

/// The cells of the first table after `marker` in EXPERIMENTS.md, header
/// row first; the `|---|` separator row is dropped.
fn doc_table(marker: &str) -> Vec<Vec<String>> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md exists");
    let (_, after) = doc
        .split_once(marker)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has a {marker:?} table"));
    let mut rows: Vec<Vec<String>> = after
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect();
    assert!(rows.len() > 2, "{marker:?}: no table rows");
    rows.remove(1);
    rows
}

/// The `(design, variant label, matched clusters, total length)` cells of
/// EXPERIMENTS.md's "This reproduction" table; the runtime after the
/// second `/` of each cell is ignored.
fn documented_table2() -> Vec<(String, String, usize, u64)> {
    let mut rows = doc_table("\nThis reproduction").into_iter();
    let header = rows.next().expect("table header");
    let mut cells = Vec::new();
    for row in rows {
        for (label, cell) in header.iter().zip(&row).skip(2) {
            let fields: Vec<&str> = cell.split('/').map(str::trim).collect();
            assert_eq!(
                fields.len(),
                3,
                "{}: cell {cell:?} is not M / L / T",
                row[0]
            );
            cells.push((
                row[0].clone(),
                label.clone(),
                fields[0].parse().expect("matched clusters"),
                fields[1].parse().expect("total length"),
            ));
        }
    }
    cells
}

#[test]
fn table2_routes_match_experiments_md() {
    let documented = documented_table2();
    assert_eq!(
        documented.len(),
        21,
        "7 designs × 3 variants: {documented:?}"
    );
    for design in BenchDesign::ALL {
        let name = design.params().name;
        for variant in FlowVariant::ALL {
            let report = route(design, variant);
            let label = variant.label();
            assert_eq!(report.completion_rate(), 1.0, "{name} {label}");
            assert_eq!(
                report.metrics.counter("mwcp.budget_hits"),
                0,
                "{name} {label}: selection must stay exact on the paper suite"
            );
            let doc = documented
                .iter()
                .find(|(d, v, _, _)| d == name && v == label)
                .unwrap_or_else(|| panic!("EXPERIMENTS.md has no {name} {label} cell"));
            assert_eq!(
                (report.matched_clusters, report.total_length),
                (doc.2, doc.3),
                "{name} {label}: routed (matched, length) vs EXPERIMENTS.md"
            );
        }
    }
}

#[test]
fn chip2_all_variants_identical_and_complete() {
    let mut results = Vec::new();
    for v in FlowVariant::ALL {
        let r = route(BenchDesign::Chip2, v);
        assert_eq!(r.completion_rate(), 1.0, "{}", v.label());
        results.push((r.matched_clusters, r.total_length));
    }
    // Paper: "All the three methods obtain same solution quality on
    // Chip2" — pairs-only clusters with abundant routing resources.
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    assert_eq!(results[0].0, 22, "all 22 pair clusters matched");
}

#[test]
fn chip1_pacor_dominates_without_selection() {
    let wo_sel = route(BenchDesign::Chip1, FlowVariant::WithoutSelection);
    let pacor = route(BenchDesign::Chip1, FlowVariant::Pacor);
    assert_eq!(wo_sel.completion_rate(), 1.0);
    assert_eq!(pacor.completion_rate(), 1.0);
    // Paper: candidate selection matches more clusters (24 vs 13 of 40).
    assert!(
        pacor.matched_clusters > wo_sel.matched_clusters,
        "PACOR {} ≤ w/o Sel {}",
        pacor.matched_clusters,
        wo_sel.matched_clusters
    );
    // Significant portion matched (paper: 24/40; ours routes ≥ that).
    assert!(pacor.matched_clusters * 2 >= pacor.clusters_multi);
}

#[test]
fn chip1_matched_clusters_satisfy_delta() {
    let problem = BenchDesign::Chip1.synthesize(SEED);
    let (report, routed) = PacorFlow::new(FlowConfig::default())
        .run_detailed(&problem)
        .expect("valid");
    assert_eq!(report.completion_rate(), 1.0);
    for rc in &routed {
        if rc.cluster.is_length_matched() && rc.is_complete() {
            if let Some(m) = rc.mismatch() {
                if m <= problem.delta {
                    // counted as matched — verify per-member lengths agree
                    let lens = rc.member_lengths().expect("LM cluster");
                    let max = lens.iter().max().unwrap();
                    let min = lens.iter().min().unwrap();
                    assert!(max - min <= problem.delta);
                }
            }
        }
    }
}

/// A `#Matched / total length` cell, as the ablation tables print it.
fn matched_length(r: &RouteReport) -> String {
    format!("{} / {}", r.matched_clusters, r.total_length)
}

#[test]
fn ablations_match_experiments_md() {
    // A1: one row per design, one column per λ.
    let mut expected = vec![std::iter::once("Design".to_string())
        .chain(LAMBDAS.map(|l| format!("λ = {l}")))
        .collect::<Vec<_>>()];
    for (design, runs) in LAMBDA_DESIGNS
        .iter()
        .zip(lambda_ablation().chunks(LAMBDAS.len()))
    {
        let mut row = vec![design.params().name.to_string()];
        row.extend(runs.iter().map(|(_, r)| matched_length(r)));
        expected.push(row);
    }
    assert_eq!(
        doc_table("## A1"),
        expected,
        "A1 table vs `tables ablation`"
    );

    // A2: one row per γ, one column per α; every route completes.
    let mut expected = vec![std::iter::once("γ \\ α".to_string())
        .chain(ALPHAS.map(|a| a.to_string()))
        .collect::<Vec<_>>()];
    for (gamma, runs) in GAMMAS
        .iter()
        .zip(negotiation_ablation().chunks(ALPHAS.len()))
    {
        assert!(runs.iter().all(|(_, _, r)| r.completion_rate() == 1.0));
        let mut row = vec![gamma.to_string()];
        row.extend(runs.iter().map(|(_, _, r)| matched_length(r)));
        expected.push(row);
    }
    assert_eq!(
        doc_table("## A2"),
        expected,
        "A2 table vs `tables ablation`"
    );
}

fn percent(completion: f64) -> String {
    format!("{:.0} %", completion * 100.0)
}

#[test]
fn seed_sweeps_match_experiments_md() {
    let mut expected = vec![vec![
        "Design".to_string(),
        "Mean matched".into(),
        "Min completion".into(),
        "Mean length".into(),
    ]];
    for c in seed_sweep(&[FlowVariant::Pacor], ROBUSTNESS_SEEDS) {
        expected.push(vec![
            c.design.params().name.to_string(),
            format!(
                "{:.1} / {}",
                c.matched as f64 / c.runs as f64,
                c.design.params().multi_clusters
            ),
            percent(c.min_completion),
            format!("{:.0}", c.total_length as f64 / c.runs as f64),
        ]);
    }
    assert_eq!(
        doc_table("Robustness of the single-seed numbers"),
        expected,
        "robustness table vs `tables sweep`"
    );

    let cells = seed_sweep(&FlowVariant::ALL, VARIANT_SWEEP_SEEDS);
    let mut expected = vec![vec![
        "Variant".to_string(),
        "Matched".into(),
        "Total length".into(),
        "Min completion".into(),
    ]];
    for v in FlowVariant::ALL {
        let of_v: Vec<&SweepCell> = cells.iter().filter(|c| c.variant == v).collect();
        expected.push(vec![
            v.label().to_string(),
            format!(
                "{} / {}",
                of_v.iter().map(|c| c.matched).sum::<usize>(),
                of_v.iter().map(|c| c.clusters()).sum::<usize>()
            ),
            of_v.iter().map(|c| c.total_length).sum::<u64>().to_string(),
            percent(of_v.iter().map(|c| c.min_completion).fold(1.0, f64::min)),
        ]);
    }
    assert_eq!(
        doc_table("Variant sweep"),
        expected,
        "variant-sweep table vs `tables sweep`"
    );
}
