//! Routing-engine kernel benchmarks: the flat-array A\* kernel against
//! the `HashMap` reference kernel it replaced, and DME candidate
//! generation, the LM routing stage's `lm.candidates` work.
//!
//! The kernels return bit-identical paths (see the equivalence proptests
//! in `crates/route/tests/astar_equivalence.rs`), so these numbers
//! compare cost only.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pacor::dme::{candidates, CandidateConfig};
use pacor::grid::{Grid, ObsMap, Point};
use pacor::route::{AStar, AStarScratch, HistoryCost};

/// An `n`×`n` grid with deterministic scattered obstacles, ~5% density.
fn scattered_grid(n: u32) -> Grid {
    let mut grid = Grid::new(n, n).unwrap();
    for k in 0..(n * n / 20) {
        let x = (k * 37) % n;
        let y = (k * 61) % n;
        grid.set_obstacle(Point::new(x as i32, y as i32));
    }
    grid
}

fn obstacle_grid(n: u32) -> ObsMap {
    ObsMap::new(&scattered_grid(n))
}

/// Flat-array kernel vs reference kernel on the corner-to-corner and
/// point-to-path queries the MST/negotiation stages issue. Grid sizes
/// bracket the Table 2 designs (Chip1 is 120×120).
fn bench_astar_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("astar_kernel");
    for n in [32u32, 64, 128] {
        let obs = obstacle_grid(n);
        let far = Point::new(n as i32 - 2, n as i32 - 2);
        group.bench_with_input(BenchmarkId::new("flat", n), &obs, |b, obs| {
            let astar = AStar::new(obs);
            let mut scratch = AStarScratch::new();
            b.iter(|| {
                astar
                    .route_with_scratch(&[Point::new(1, 1)], &[far], &mut scratch)
                    .expect("scattered obstacles leave a path")
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &obs, |b, obs| {
            let astar = AStar::new(obs);
            b.iter(|| {
                astar
                    .route_reference(&[Point::new(1, 1)], &[far])
                    .expect("scattered obstacles leave a path")
            })
        });
    }
    // History-weighted corner-to-corner queries, the form every
    // negotiation round issues: fractional step costs spread the open
    // list over many distinct f values.
    for n in [64u32, 128] {
        let obs = obstacle_grid(n);
        let mut history = HistoryCost::new(n, n);
        for k in 0..n as i32 * 4 {
            history.bump(Point::new((k * 7) % n as i32, (k * 13) % n as i32));
        }
        let far = Point::new(n as i32 - 2, n as i32 - 2);
        group.bench_with_input(BenchmarkId::new("flat_history", n), &obs, |b, obs| {
            let astar = AStar::with_history(obs, &history);
            let mut scratch = AStarScratch::new();
            b.iter(|| {
                astar
                    .route_with_scratch(&[Point::new(1, 1)], &[far], &mut scratch)
                    .expect("scattered obstacles leave a path")
            })
        });
    }
    // Multi-target form (point-to-path): many targets stress the target
    // bookkeeping that moved from a HashSet to stamped flat arrays.
    let n = 64u32;
    let obs = obstacle_grid(n);
    let targets: Vec<Point> = (1..63).map(|x| Point::new(x, 60)).collect();
    group.bench_with_input(BenchmarkId::new("flat_multi", n), &obs, |b, obs| {
        let astar = AStar::new(obs);
        let mut scratch = AStarScratch::new();
        b.iter(|| {
            astar
                .route_with_scratch(&[Point::new(31, 2)], &targets, &mut scratch)
                .expect("row is reachable")
        })
    });
    group.bench_with_input(BenchmarkId::new("reference_multi", n), &obs, |b, obs| {
        let astar = AStar::new(obs);
        b.iter(|| {
            astar
                .route_reference(&[Point::new(31, 2)], &targets)
                .expect("row is reachable")
        })
    });
    // Unreachable target (the failure path of negotiation rip-up in the
    // LM routing stage): the target sits in a small walled pocket while
    // the source side is the rest of the chip.
    for n in [64u32, 128] {
        let (obs, source, target) = sealed_target_grid(n);
        let mut history = HistoryCost::new(n, n);
        for k in 0..n as i32 * 4 {
            history.bump(Point::new((k * 7) % n as i32, (k * 13) % n as i32));
        }
        for (label, weighted) in [
            ("flat_unreachable", false),
            ("flat_unreachable_history", true),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &obs, |b, obs| {
                let astar = if weighted {
                    AStar::with_history(obs, &history)
                } else {
                    AStar::new(obs)
                };
                let mut scratch = AStarScratch::new();
                b.iter(|| {
                    assert!(astar
                        .route_with_scratch(&[source], &[target], &mut scratch)
                        .is_none())
                })
            });
        }
    }
    group.finish();
}

/// [`obstacle_grid`] with a target near the far corner walled into a
/// 3x3 pocket, plus a source in the opposite corner.
fn sealed_target_grid(n: u32) -> (ObsMap, Point, Point) {
    let mut grid = scattered_grid(n);
    let target = Point::new(n as i32 - 6, n as i32 - 6);
    for d in -2..=2 {
        for p in [
            Point::new(target.x + d, target.y - 2),
            Point::new(target.x + d, target.y + 2),
            Point::new(target.x - 2, target.y + d),
            Point::new(target.x + 2, target.y + d),
        ] {
            grid.set_obstacle(p);
        }
    }
    (ObsMap::new(&grid), Point::new(1, 1), target)
}

/// DME candidate generation for a batch of clusters, one after the
/// other, as the LM routing stage runs it.
fn bench_dme_candidates(c: &mut Criterion) {
    let mut group = c.benchmark_group("dme_candidates");
    let obs = obstacle_grid(96);
    // Twelve 4-sink clusters scattered over the chip.
    let clusters: Vec<Vec<Point>> = (0..12)
        .map(|k| {
            let bx = 4 + (k % 4) * 22;
            let by = 4 + (k / 4) * 28;
            vec![
                Point::new(bx, by),
                Point::new(bx + 14, by + 2),
                Point::new(bx + 3, by + 17),
                Point::new(bx + 15, by + 15),
            ]
        })
        .collect();
    group.bench_function("12x4_sinks", |b| {
        b.iter(|| {
            clusters
                .iter()
                .map(|sinks| candidates(sinks, Some(&obs), CandidateConfig::default()))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_astar_kernels, bench_dme_candidates);
criterion_main!(benches);
