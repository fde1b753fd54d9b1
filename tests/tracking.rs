//! Regression-tracking test: the headline reproduction claims of
//! EXPERIMENTS.md, asserted with enough slack to survive benign
//! algorithm tweaks but tight enough to catch real regressions.

use pacor_repro::pacor::{verify_layout, BenchDesign, FlowConfig, FlowVariant, PacorFlow};

#[test]
fn headline_claims_hold_on_seed_42() {
    // Per-design floors for PACOR (measured values: 2, 1, 5, 7, 13).
    let floors = [
        (BenchDesign::S1, 2usize),
        (BenchDesign::S2, 1),
        (BenchDesign::S3, 4),
        (BenchDesign::S4, 6),
        (BenchDesign::S5, 11),
    ];
    for (design, floor) in floors {
        let problem = design.synthesize(42);
        let (report, routed) = PacorFlow::new(FlowConfig::default())
            .run_detailed(&problem)
            .expect("valid design");
        assert_eq!(
            report.completion_rate(),
            1.0,
            "{:?} lost completion",
            design
        );
        assert!(
            report.matched_clusters >= floor,
            "{:?}: matched {} < floor {}",
            design,
            report.matched_clusters,
            floor
        );
        assert!(
            verify_layout(&problem, &routed).is_empty(),
            "{:?} has geometry violations",
            design
        );
    }
}

#[test]
fn selection_never_hurts_on_aggregate() {
    // Over a few seeds, PACOR (with selection) matches at least as many
    // clusters in total as the selection-less variant.
    let mut with_sel = 0usize;
    let mut without = 0usize;
    for design in [BenchDesign::S3, BenchDesign::S4, BenchDesign::S5] {
        for seed in [0u64, 1, 2] {
            let problem = design.synthesize(seed);
            with_sel += PacorFlow::new(FlowConfig::for_variant(FlowVariant::Pacor))
                .run(&problem)
                .unwrap()
                .matched_clusters;
            without += PacorFlow::new(FlowConfig::for_variant(FlowVariant::WithoutSelection))
                .run(&problem)
                .unwrap()
                .matched_clusters;
        }
    }
    assert!(
        with_sel >= without,
        "selection regressed: {with_sel} < {without}"
    );
}

#[test]
fn all_variants_complete_every_synth_design() {
    for design in BenchDesign::SYNTH {
        let problem = design.synthesize(42);
        for v in FlowVariant::ALL {
            let report = PacorFlow::new(FlowConfig::for_variant(v))
                .run(&problem)
                .unwrap();
            assert_eq!(
                report.completion_rate(),
                1.0,
                "{:?} {} incomplete",
                design,
                v.label()
            );
        }
    }
}
