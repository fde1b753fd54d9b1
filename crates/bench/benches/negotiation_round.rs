//! Negotiation-router benchmark: a full `route_all` on a dense crossing
//! workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pacor::grid::{Grid, ObsMap, Point};
use pacor::route::{NegotiationRouter, RouteRequest};

/// Deterministic scattered obstacles, ~5% density (the kernels bench's
/// recipe), on a 48×48 grid — the B2-dense48 scale where negotiation
/// genuinely collides and re-rounds.
fn obstacle_grid(n: u32) -> ObsMap {
    let mut grid = Grid::new(n, n).unwrap();
    for k in 0..(n * n / 20) {
        let x = (k * 37) % n;
        let y = (k * 61) % n;
        grid.set_obstacle(Point::new(x as i32, y as i32));
    }
    ObsMap::new(&grid)
}

/// A deterministic mix of long crossing nets and short local nets whose
/// straight routes collide, forcing multi-round negotiation.
fn crossing_requests(n: i32, count: usize) -> Vec<RouteRequest> {
    let mut reqs = Vec::with_capacity(count);
    for k in 0..count as i32 {
        let a = 1 + (k * 7) % (n - 2);
        let b = 1 + (k * 11) % (n - 2);
        let req = if k % 2 == 0 {
            // Horizontal span at row `a`.
            RouteRequest::point_to_point(Point::new(1, a), Point::new(n - 2, b))
        } else {
            // Vertical span at column `a`.
            RouteRequest::point_to_point(Point::new(a, 1), Point::new(b, n - 2))
        };
        reqs.push(req);
    }
    reqs
}

fn bench_negotiation_round(c: &mut Criterion) {
    let n = 48u32;
    let obs = obstacle_grid(n);
    let edges = crossing_requests(n as i32, 40);
    let mut group = c.benchmark_group("negotiation_round");
    let router = NegotiationRouter::new();
    group.bench_with_input(BenchmarkId::new("route_all", n), &obs, |b, obs| {
        b.iter(|| {
            let mut fresh = obs.clone();
            router.route_all(&mut fresh, &edges)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_negotiation_round);
criterion_main!(benches);
