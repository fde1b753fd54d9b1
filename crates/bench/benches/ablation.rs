//! Ablation benches for the design choices DESIGN.md calls out:
//! A1 — the λ weighting between mismatch cost (Eq. 2) and overlap cost
//! (Eq. 3) in candidate selection; A2 — the negotiation parameters γ/α.
//!
//! These measure *runtime* sensitivity; the quality sensitivity is
//! reported by `tables -- ablation`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pacor::{BenchDesign, FlowConfig, PacorFlow};
use pacor_bench::{ALPHAS, GAMMAS, LAMBDAS};

fn bench_lambda(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_lambda");
    group.sample_size(10);
    let problem = BenchDesign::S3.synthesize(42);
    for lambda in LAMBDAS {
        group.bench_with_input(
            BenchmarkId::from_parameter(lambda),
            &lambda,
            |b, &lambda| {
                let cfg = FlowConfig {
                    lambda,
                    ..FlowConfig::default()
                };
                let flow = PacorFlow::new(cfg);
                b.iter(|| flow.run(&problem).expect("valid"))
            },
        );
    }
    group.finish();
}

fn bench_negotiation_params(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_negotiation");
    group.sample_size(10);
    let problem = BenchDesign::S4.synthesize(42);
    for gamma in GAMMAS {
        group.bench_with_input(BenchmarkId::new("gamma", gamma), &gamma, |b, &gamma| {
            let cfg = FlowConfig {
                gamma,
                ..FlowConfig::default()
            };
            let flow = PacorFlow::new(cfg);
            b.iter(|| flow.run(&problem).expect("valid"))
        });
    }
    for alpha in ALPHAS {
        group.bench_with_input(BenchmarkId::new("alpha", alpha), &alpha, |b, &alpha| {
            let cfg = FlowConfig {
                history_alpha: alpha,
                ..FlowConfig::default()
            };
            let flow = PacorFlow::new(cfg);
            b.iter(|| flow.run(&problem).expect("valid"))
        });
    }
    group.finish();
}

fn bench_candidate_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_candidates");
    group.sample_size(10);
    let problem = BenchDesign::S5.synthesize(42);
    for k in [1usize, 3, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let cfg = FlowConfig {
                max_candidates: k,
                ..FlowConfig::default()
            };
            let flow = PacorFlow::new(cfg);
            b.iter(|| flow.run(&problem).expect("valid"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lambda,
    bench_negotiation_params,
    bench_candidate_count
);
criterion_main!(benches);
