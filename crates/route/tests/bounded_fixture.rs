//! Exact-output lock for [`BoundedAStar::route_at_least`].
//!
//! 200 seeded scenarios — 8–20-cell grids with 10–30% obstacles, a
//! bound `lt` between the Manhattan distance d and d + 12, and DFS node
//! budgets of 50, 500 and 200 000 — are routed and every result (the
//! path's cells, or `none`) is compared line by line with
//! `tests/fixtures/bounded_at_least.txt`. The small budgets make some
//! lengths stop at the budget, so the fixture pins where a cut-off
//! search gives up as well as which path a complete one finds: any
//! change to the DFS's neighbour order or its budget accounting shows
//! up here.
//!
//! The bound never falls below d, so the scenarios do not depend on
//! where the overshoot window starts when d exceeds the bound.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pacor-route --test bounded_fixture
//! ```

use pacor_grid::{Grid, ObsMap, Point};
use pacor_route::BoundedAStar;
use std::fmt::Write;

const SCENARIOS: u64 = 200;
const BUDGETS: [u64; 3] = [50, 500, 200_000];
/// Overshoot windows, cycled independently of the budgets; 64 is the
/// router's default.
const OVERSHOOTS: [u64; 4] = [0, 4, 8, 64];

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

/// Routes scenario `k` and renders its fixture line.
fn scenario_line(k: u64) -> String {
    let mut rng = SplitMix(0xB0DE_D000 ^ k);
    let w = rng.range(8, 20) as u32;
    let h = rng.range(8, 20) as u32;
    let density = rng.range(10, 30);
    let mut grid = Grid::new(w, h).expect("positive dimensions");
    let mut obstacles = 0;
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            if rng.range(0, 99) < density {
                grid.set_obstacle(Point::new(x, y));
                obstacles += 1;
            }
        }
    }
    let obs = ObsMap::new(&grid);
    let cell = |rng: &mut SplitMix| {
        Point::new(
            rng.range(0, w as u64 - 1) as i32,
            rng.range(0, h as u64 - 1) as i32,
        )
    };
    let s = cell(&mut rng);
    let t = cell(&mut rng);
    let lt = s.manhattan(t) + rng.range(0, 12);
    let budget = BUDGETS[(k % 3) as usize];
    let overshoot = OVERSHOOTS[(k / 3 % 4) as usize];
    let result = BoundedAStar::new(&obs)
        .with_node_budget(budget)
        .with_max_overshoot(overshoot)
        .route_at_least(s, t, lt);
    let mut line = format!(
        "{k} {w}x{h} obstacles={obstacles} budget={budget} overshoot={overshoot} \
         s={},{} t={},{} lt={lt} ->",
        s.x, s.y, t.x, t.y
    );
    match result {
        None => line.push_str(" none"),
        Some(p) => {
            write!(line, " len={}:", p.len()).unwrap();
            for c in p.cells() {
                write!(line, " {},{}", c.x, c.y).unwrap();
            }
        }
    }
    line
}

#[test]
fn route_at_least_matches_fixture() {
    let actual: Vec<String> = (0..SCENARIOS).map(scenario_line).collect();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/bounded_at_least.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, actual.join("\n") + "\n").expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {path} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test -p pacor-route --test bounded_fixture"
        )
    });
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(expected.len(), actual.len(), "scenario count");
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(got, want, "bounded router output drifted");
    }
    // The fixture must keep exercising both outcomes.
    let found = actual.iter().filter(|l| !l.ends_with("none")).count();
    assert!(
        found > 50 && found < actual.len(),
        "{found} of {} found",
        actual.len()
    );
}
