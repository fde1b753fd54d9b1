//! Component micro-benchmarks: A\* search, negotiation routing, min-cost
//! flow escape, bounded-length detouring, and the MWCP solvers — the
//! building blocks whose costs dominate the flow stages.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pacor::clique::{BitBranchAndBound, Solver, WeightedGraph};
use pacor::netflow::{EscapeSource, GridEscape, SourceKind};
use pacor::grid::{Grid, ObsMap, Point};
use pacor::route::{AStar, BoundedAStar, NegotiationRouter, RouteRequest};

fn obstacle_grid(n: u32) -> ObsMap {
    let mut grid = Grid::new(n, n).unwrap();
    // Deterministic scattered obstacles, ~5% density.
    for k in 0..(n * n / 20) {
        let x = (k * 37) % n;
        let y = (k * 61) % n;
        grid.set_obstacle(Point::new(x as i32, y as i32));
    }
    ObsMap::new(&grid)
}

fn bench_astar(c: &mut Criterion) {
    let mut group = c.benchmark_group("astar_point_to_point");
    for n in [32u32, 64, 128] {
        let obs = obstacle_grid(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &obs, |b, obs| {
            let astar = AStar::new(obs);
            b.iter(|| {
                astar
                    .point_to_point(Point::new(1, 1), Point::new(n as i32 - 2, n as i32 - 2))
                    .expect("scattered obstacles leave a path")
            })
        });
    }
    group.finish();
}

fn bench_negotiation(c: &mut Criterion) {
    let mut group = c.benchmark_group("negotiation_router");
    group.sample_size(20);
    for nets in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(nets), &nets, |b, &nets| {
            b.iter_with_setup(
                || {
                    let obs = obstacle_grid(64);
                    let edges: Vec<RouteRequest> = (0..nets)
                        .map(|k| {
                            let y = 2 + (k as i32 * 58) / nets as i32;
                            RouteRequest::point_to_point(
                                Point::new(2, y),
                                Point::new(61, 61 - y),
                            )
                        })
                        .collect();
                    (obs, edges)
                },
                |(mut obs, edges)| NegotiationRouter::new().route_all(&mut obs, &edges),
            )
        });
    }
    group.finish();
}

fn bench_escape_mcf(c: &mut Criterion) {
    let mut group = c.benchmark_group("escape_min_cost_flow");
    group.sample_size(10);
    for sources in [4usize, 8, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(sources),
            &sources,
            |b, &sources| {
                let obs = obstacle_grid(64);
                let srcs: Vec<EscapeSource> = (0..sources)
                    .map(|k| {
                        EscapeSource::at(
                            SourceKind::SingleValve,
                            Point::new(10 + (k as i32 * 43) % 44, 10 + (k as i32 * 17) % 44),
                        )
                    })
                    .collect();
                let pins: Vec<Point> = (1..63).step_by(3).map(|x| Point::new(x, 0)).collect();
                let mut grid = GridEscape::new();
                b.iter(|| grid.solve(&obs, &srcs, &pins))
            },
        );
    }
    group.finish();
}

fn bench_bounded_router(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounded_length_detour");
    let obs = ObsMap::new(&Grid::new(32, 32).unwrap());
    for extra in [4u64, 12, 24] {
        group.bench_with_input(BenchmarkId::from_parameter(extra), &extra, |b, &extra| {
            let router = BoundedAStar::new(&obs);
            b.iter(|| {
                router
                    .route_at_least(Point::new(4, 16), Point::new(14, 16), 10 + extra)
                    .expect("open grid detours")
            })
        });
    }
    group.finish();
}

fn bench_mwcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mwcp_solvers");
    // Selection-shaped instance: 8 groups × 4 candidates.
    let (groups, items) = (8usize, 4usize);
    let n = groups * items;
    let mut g = WeightedGraph::new(n);
    for v in 0..n {
        g.set_node_weight(v, 100.0 - (v % items) as f64);
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if u / items != v / items {
                let w = if (u + v) % 3 == 0 { -2.0 } else { 0.0 };
                g.add_edge(u, v, w);
            }
        }
    }
    group.bench_function("exact_32_nodes", |b| {
        b.iter(|| Solver::Exact.solve(&g))
    });
    group.bench_function("bitset_exact_32_nodes", |b| {
        b.iter(|| BitBranchAndBound::new().solve(&g))
    });
    group.bench_function("greedy_32_nodes", |b| {
        b.iter(|| Solver::Greedy.solve(&g))
    });
    group.bench_function("tabu_32_nodes", |b| {
        b.iter(|| Solver::LocalSearch { iterations: 100 }.solve(&g))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_astar,
    bench_negotiation,
    bench_escape_mcf,
    bench_bounded_router,
    bench_mwcp
);
criterion_main!(benches);
