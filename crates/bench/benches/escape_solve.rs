//! Escape-solver benchmark: one cold `GridEscape` solve on a synthetic
//! occupancy — what every escape round of the flow pays. Sizes bracket
//! the dense flow-benchmark chips (48², 96²) and reach the paper's
//! Chip2 (231 × 265).
//!
//! Two pin layouts per size. `grid_solve` has pins on every third row
//! of the west and east edges. `grid_solve_oversubscribed` has pins on
//! every sixth row of the west edge only, fewer than the sources: the
//! shape of a late recovery solve, where sources that lose the race
//! for a pin are found dead by every later search. That is the case
//! the solver's search rewind (DESIGN §14.5) saves most on.
//!
//! `grid_solve_solo` (96² and 231 × 265) routes one source among the
//! other, blocked lattice valves to the two-edge pins: the shape of
//! escape recovery's solo solve, which claims a freed corridor for one
//! walled-in valve. Its search is short, so loading the network's cell
//! flags is a large share of it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pacor::grid::{Grid, ObsMap, Point};
use pacor::netflow::{EscapeSource, GridEscape, SourceKind};

/// Synthetic escape occupancy on a `w × h` grid: ~5% scattered
/// obstacles, singleton valve sources on a 7 × 7 lattice over the
/// interior, and pins every `pin_step` rows along the west edge, and
/// the east edge too when `east` is set.
fn scenario(
    w: u32,
    h: u32,
    pin_step: usize,
    east: bool,
) -> (ObsMap, Vec<EscapeSource>, Vec<Point>) {
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
    let edges: &[i32] = if east { &[0, w as i32 - 1] } else { &[0] };
    let mut pins = Vec::new();
    for y in (1..h as i32 - 1).step_by(pin_step) {
        for &x in edges {
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
        let size = format!("{w}x{h}");
        for (name, pin_step, east) in [
            ("grid_solve", 3, true),
            ("grid_solve_oversubscribed", 6, false),
        ] {
            let (obs, sources, pins) = scenario(w, h, pin_step, east);
            assert!(
                east || pins.len() < sources.len(),
                "{name} {size}: {} pins for {} sources",
                pins.len(),
                sources.len()
            );
            let mut grid = GridEscape::new();
            group.bench_with_input(BenchmarkId::new(name, &size), &size, |b, _| {
                b.iter(|| grid.solve(&obs, &sources, &pins).routed)
            });
        }
    }
    for (w, h) in [(96u32, 96u32), (231, 265)] {
        let size = format!("{w}x{h}");
        let (obs, sources, pins) = scenario(w, h, 3, true);
        let solo = [sources[sources.len() / 2].clone()];
        let mut grid = GridEscape::new();
        group.bench_with_input(BenchmarkId::new("grid_solve_solo", &size), &size, |b, _| {
            b.iter(|| grid.solve(&obs, &solo, &pins).routed)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_escape_solve);
criterion_main!(benches);
