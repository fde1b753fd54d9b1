//! Exact-output lock for [`NegotiationRouter::route_all`].
//!
//! 150 seeded scenarios are negotiated under both rip-up policies and
//! every outcome is compared line by line with
//! `tests/fixtures/negotiation_outcomes.txt`. Grid widths sit on both
//! sides of a 64-cell word boundary (17 to 179 cells), with 5–30%
//! obstacles. Each scenario holds a crossing pair of point-to-point
//! requests plus a few random ones, and one of five shapes:
//!
//! * `open`: no extra walls;
//! * `sealed-target`: one request's target sits in a small ring, so its
//!   search fails through the target-side probe and the source flood;
//! * `sealed-source`: one request's source sits in a ring, so its
//!   search drains the open list of a small pocket;
//! * `split`: a full-height wall cuts the grid in two, so every request
//!   across it drains one half;
//! * `mixed`: all three walls at once.
//!
//! A line records each request's path (or `none`), the iteration and
//! rip-up counts, completion and the run's `astar.expansions` and
//! `astar.unreachable` counters. The rip-up policy decides which nets a
//! failed search evicts, so a change to the victim rule, to the failed
//! region or to the expansion count shows up here.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pacor-route --test negotiation_fixture
//! ```

use pacor_grid::{Cell, Grid, GridPath, ObsMap, Point};
use pacor_route::{NegotiationRouter, RipUpPolicy, RouteRequest};
use std::fmt::Write;

const SCENARIOS: u64 = 150;
/// Widths on both sides of the 64-cell word boundary.
const WIDTHS: [u64; 8] = [17, 63, 64, 65, 127, 128, 129, 179];
const SHAPES: [&str; 5] = ["open", "sealed-target", "sealed-source", "split", "mixed"];
const GAMMAS: [u32; 3] = [3, 5, 10];

/// splitmix64: a fixed generator, so the scenarios do not move when a
/// dependency's RNG changes.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// One negotiation problem: its obstacles and requests.
struct Scenario {
    header: String,
    grid: Grid,
    edges: Vec<RouteRequest>,
    gamma: u32,
}

/// Blocks the square ring at Chebyshev distance `r` around `c`.
fn ring(grid: &mut Grid, c: Point, r: i32) {
    for d in -r..=r {
        for p in [
            Point::new(c.x + d, c.y - r),
            Point::new(c.x + d, c.y + r),
            Point::new(c.x - r, c.y + d),
            Point::new(c.x + r, c.y + d),
        ] {
            if grid.in_bounds(p) {
                grid.set_obstacle(p);
            }
        }
    }
}

/// Builds scenario `k`.
fn scenario(k: u64) -> Scenario {
    let mut rng = SplitMix(0x0E60_7100 ^ k);
    let w = WIDTHS[(k % 8) as usize] as u32;
    let h = rng.range(8, 28) as u32;
    let shape = SHAPES[(k / 8 % 5) as usize];
    let gamma = GAMMAS[(k % 3) as usize];
    let density = rng.range(5, 30);
    let mut grid = Grid::new(w, h).expect("positive dimensions");
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            if rng.range(0, 99) < density {
                grid.set_obstacle(Point::new(x, y));
            }
        }
    }
    let cell = |rng: &mut SplitMix| {
        Point::new(
            rng.range(0, w as u64 - 1) as i32,
            rng.range(0, h as u64 - 1) as i32,
        )
    };
    // A crossing pair with interior terminals: a horizontal and a
    // vertical request whose straight routes cross, so one of them has
    // to go around the other's end.
    let (w_, h_) = (w as u64, h as u64);
    let (x0, x1) = (rng.range(1, w_ / 3), rng.range(2 * w_ / 3, w_ - 2));
    let (y0, y1) = (rng.range(1, h_ / 3), rng.range(2 * h_ / 3, h_ - 2));
    let (mx, my) = (rng.range(x0 + 1, x1 - 1), rng.range(y0 + 1, y1 - 1));
    let at = |x: u64, y: u64| Point::new(x as i32, y as i32);
    let mut edges = vec![
        RouteRequest::point_to_point(at(x0, my), at(x1, my)),
        RouteRequest::point_to_point(at(mx, y0), at(mx, y1)),
    ];
    for _ in 0..rng.range(1, 2) {
        let s = cell(&mut rng);
        let t = cell(&mut rng);
        edges.push(RouteRequest::point_to_point(s, t));
    }
    // A multi-source request: a short horizontal run to one cell.
    let s = cell(&mut rng);
    let run: Vec<Point> = (0..3)
        .map(|d| Point::new((s.x + d).min(w as i32 - 1), s.y))
        .collect();
    let mut sources = run.clone();
    sources.dedup();
    edges.push(RouteRequest {
        sources,
        targets: vec![cell(&mut rng)],
        net: u32::MAX,
    });

    // Terminals start out free; the walls below may still cover some.
    for e in &edges {
        for &p in e.sources.iter().chain(&e.targets) {
            grid.set_cell(p, Cell::Free).unwrap();
        }
    }
    let sealed_target = matches!(shape, "sealed-target" | "mixed");
    let sealed_source = matches!(shape, "sealed-source" | "mixed");
    if sealed_target {
        let e = rng.range(2, edges.len() as u64 - 1) as usize;
        ring(&mut grid, edges[e].targets[0], rng.range(1, 2) as i32);
    }
    if sealed_source {
        let e = rng.range(2, edges.len() as u64 - 1) as usize;
        ring(&mut grid, edges[e].sources[0], rng.range(1, 2) as i32);
    }
    if matches!(shape, "split" | "mixed") {
        let x = rng.range(2, w as u64 - 3) as i32;
        for y in 0..h as i32 {
            grid.set_obstacle(Point::new(x, y));
        }
    }
    let header = format!(
        "{k} {w}x{h} {shape} obstacles={} gamma={gamma} edges={}",
        grid.obstacle_count(),
        edges.len()
    );
    Scenario {
        header,
        grid,
        edges,
        gamma,
    }
}

/// A path as its first cell and run-length-encoded moves, e.g.
/// `3,4:R12D3L2` (R/L along x, D/U along +y/−y).
fn encode(path: &GridPath) -> String {
    let cells = path.cells();
    let mut out = format!("{},{}:", cells[0].x, cells[0].y);
    let mut run: Option<(char, u32)> = None;
    for pair in cells.windows(2) {
        let step = match (pair[1].x - pair[0].x, pair[1].y - pair[0].y) {
            (1, 0) => 'R',
            (-1, 0) => 'L',
            (0, 1) => 'D',
            (0, -1) => 'U',
            other => panic!("non-unit step {other:?}"),
        };
        run = match run {
            Some((c, n)) if c == step => Some((c, n + 1)),
            Some((c, n)) => {
                write!(out, "{c}{n}").unwrap();
                Some((step, 1))
            }
            None => Some((step, 1)),
        };
    }
    if let Some((c, n)) = run {
        write!(out, "{c}{n}").unwrap();
    }
    out
}

/// Negotiates scenario `k` under `policy` and renders its fixture line.
fn outcome_line(sc: &Scenario, policy: RipUpPolicy) -> String {
    let mut obs = ObsMap::new(&sc.grid);
    let session = pacor_obs::Session::begin();
    let out = NegotiationRouter::new()
        .with_gamma(sc.gamma)
        .with_ripup_policy(policy)
        .route_all(&mut obs, &sc.edges);
    let counters = session.finish();
    let mut line = format!(
        "{} {} -> iterations={} ripups={} complete={} expansions={} unreachable={}",
        sc.header,
        policy.label(),
        out.iterations,
        out.ripups,
        out.complete,
        counters.counter("astar.expansions"),
        counters.counter("astar.unreachable"),
    );
    for p in &out.paths {
        match p {
            Some(p) => write!(line, " {}", encode(p)).unwrap(),
            None => line.push_str(" none"),
        }
    }
    line
}

#[test]
fn negotiation_matches_fixture() {
    let mut actual = Vec::new();
    for k in 0..SCENARIOS {
        let sc = scenario(k);
        for policy in [RipUpPolicy::Full, RipUpPolicy::Incremental] {
            actual.push(outcome_line(&sc, policy));
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/negotiation_outcomes.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, actual.join("\n") + "\n").expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {path} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test -p pacor-route --test negotiation_fixture"
        )
    });
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(expected.len(), actual.len(), "scenario count");
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(got, want, "negotiation outcome drifted");
    }
    // The fixture must keep exercising every outcome it locks: complete
    // and incomplete runs, rip-ups, and probe-settled failures.
    let count = |pat: &str| actual.iter().filter(|l| l.contains(pat)).count();
    let total = actual.len();
    for (what, n) in [
        ("complete", count("complete=true")),
        ("incomplete", count("complete=false")),
        ("without rip-ups", count("ripups=0 ")),
        ("without a sealed target", count("unreachable=0 ")),
    ] {
        assert!(n > total / 10 && n < total, "{n} of {total} {what}");
    }
}
