//! Escape-solver benchmarks: the reference explicit-network build +
//! min-cost-flow solve against the grid-native `GridEscape` solve on the
//! same synthetic occupancy — one cold escape round, which is what every
//! escape round of the flow pays. Sizes bracket the dense flow-benchmark
//! chips (48², 96²) and reach the paper's Chip2 (231 × 265).
//!
//! Both solvers route identical results (the randomized equivalence
//! test in `crates/flow/src/escape.rs` and the
//! `incremental_escape_matches_reference` proptest), so these numbers
//! compare cost only.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pacor::grid::{Grid, ObsMap, Point};
use pacor::netflow::{EscapeNetwork, EscapeSource, GridEscape, SourceKind};

/// Synthetic escape occupancy on a `w × h` grid: ~5% scattered
/// obstacles, singleton valve sources on a 7 × 7 lattice over the
/// interior, pins along the west and east edges — the shape of a
/// phase-1 escape round after MST routing committed its nets.
fn scenario(w: u32, h: u32) -> (ObsMap, Vec<EscapeSource>, Vec<Point>) {
    let mut grid = Grid::new(w, h).unwrap();
    for k in 0..(w * h / 20) {
        let x = (k * 37) % w;
        let y = (k * 61) % h;
        grid.set_obstacle(Point::new(x as i32, y as i32));
    }
    let mut obs = ObsMap::new(&grid);
    let mut sources = Vec::new();
    let (sx, sy) = (w as i32 / 8, h as i32 / 8);
    for j in 1..8 {
        for i in 1..8 {
            let p = Point::new(i * sx, j * sy);
            if !obs.is_blocked(p) {
                obs.block(p);
                sources.push(EscapeSource::at(SourceKind::SingleValve, p));
            }
        }
    }
    let mut pins = Vec::new();
    for y in (1..h as i32 - 1).step_by(3) {
        for x in [0, w as i32 - 1] {
            let p = Point::new(x, y);
            if !obs.is_blocked(p) {
                pins.push(p);
            }
        }
    }
    (obs, sources, pins)
}

fn bench_escape_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("escape_solve");
    group.sample_size(20);
    for (w, h) in [(48u32, 48u32), (96, 96), (231, 265)] {
        let (obs, sources, pins) = scenario(w, h);
        let size = format!("{w}x{h}");
        group.bench_with_input(
            BenchmarkId::new("reference_build_solve", &size),
            &size,
            |b, _| b.iter(|| EscapeNetwork::build(&obs, &sources, &pins).solve().routed),
        );
        let mut grid = GridEscape::new();
        group.bench_with_input(BenchmarkId::new("grid_solve", &size), &size, |b, _| {
            b.iter(|| grid.solve(&obs, &sources, &pins).routed)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_escape_solve);
criterion_main!(benches);
