//! Property tests pinning the flat-array A\* kernel to its references.
//!
//! Two oracles, two strengths of claim:
//!
//! * against the retained `HashMap` kernel ([`AStar::route_reference`])
//!   the new kernel must be **bit-identical** — same cells, same order —
//!   because both break ties the same way (f, then g, then `Point`);
//! * against an independent textbook Dijkstra (written here, no
//!   heuristic, no shared code) the returned path must have the same
//!   **cost** — this guards against both kernels sharing a bug.
//!
//! A query with an off-map target has no route: the flat kernel returns
//! `None` without consulting either oracle.
//!
//! Walled-terminal cases pin the flat kernel's failure path: whether a
//! failure is settled by the target-side probe and its flood or by
//! draining the A\* open list, the failed region must hold exactly the
//! cells of an independent BFS of the sources' free component, and its
//! popcount and the `astar.expansions` counter must both equal that
//! component's size. On every query the scratch's own expansion count
//! must equal that counter, and a routed query must expand as many
//! cells as the reference kernel.

use pacor_grid::{Grid, GridPath, ObsMap, Point};
use pacor_route::{AStar, AStarScratch, HistoryCost};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// Mirrors the router's fixed-point scale for history costs.
const SCALE: u64 = 1024;

fn step_cost(hist: Option<&HistoryCost>, p: Point) -> u64 {
    match hist {
        Some(h) => SCALE + (h.cost(p) * SCALE as f64).round() as u64,
        None => SCALE,
    }
}

/// Plain multi-source Dijkstra under the router's rules (targets exempt
/// from blockage, cost charged on the entered cell). Returns the
/// minimum total cost, or `None` when unreachable.
fn dijkstra_cost(
    obs: &ObsMap,
    hist: Option<&HistoryCost>,
    sources: &[Point],
    targets: &[Point],
) -> Option<u64> {
    let target_set: HashSet<Point> = targets.iter().copied().collect();
    for &s in sources {
        if target_set.contains(&s) {
            return Some(0);
        }
    }
    let mut dist: HashMap<Point, u64> = sources.iter().map(|&s| (s, 0)).collect();
    let mut heap: BinaryHeap<Reverse<(u64, Point)>> =
        sources.iter().map(|&s| Reverse((0, s))).collect();
    while let Some(Reverse((d, p))) = heap.pop() {
        if dist.get(&p).is_some_and(|&best| best < d) {
            continue;
        }
        if target_set.contains(&p) {
            return Some(d);
        }
        for q in p.neighbors4() {
            if obs.is_blocked(q) && !target_set.contains(&q) {
                continue;
            }
            let nd = d + step_cost(hist, q);
            if nd < dist.get(&q).copied().unwrap_or(u64::MAX) {
                dist.insert(q, nd);
                heap.push(Reverse((nd, q)));
            }
        }
    }
    None
}

/// Total cost of a returned path under the same charging rule.
fn path_cost(hist: Option<&HistoryCost>, path: &GridPath) -> u64 {
    path.cells()
        .iter()
        .skip(1)
        .map(|&c| step_cost(hist, c))
        .sum()
}

struct Setup {
    obs: ObsMap,
    hist: HistoryCost,
    sources: Vec<Point>,
    targets: Vec<Point>,
    /// Whether one target lies off the map.
    off_map: bool,
}

/// Deterministically derives a random obstacle grid plus terminals from
/// the proptest-chosen scalars.
fn setup(w: u32, h: u32, seed: u64, density: u32, nsrc: usize, ntgt: usize) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut grid = Grid::new(w, h).unwrap();
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            if rng.gen_range(0u32..100) < density {
                grid.set_obstacle(Point::new(x, y));
            }
        }
    }
    let rand_point =
        |rng: &mut StdRng| Point::new(rng.gen_range(0..w as i32), rng.gen_range(0..h as i32));
    let sources: Vec<Point> = (0..nsrc).map(|_| rand_point(&mut rng)).collect();
    let mut targets: Vec<Point> = (0..ntgt).map(|_| rand_point(&mut rng)).collect();
    let off_map = seed.is_multiple_of(5);
    if off_map {
        // Occasionally aim at an off-map target: the flat kernel must
        // refuse the query.
        targets.push(Point::new(w as i32, rng.gen_range(0..h as i32)));
    }
    let mut hist = HistoryCost::new(w, h);
    for _ in 0..(w * h / 4) {
        let p = rand_point(&mut rng);
        for _ in 0..rng.gen_range(1u32..4) {
            hist.bump(p);
        }
    }
    Setup {
        obs: ObsMap::new(&grid),
        hist,
        sources,
        targets,
        off_map,
    }
}

proptest! {
    #[test]
    fn unit_cost_kernels_agree(
        w in 4u32..20,
        h in 4u32..20,
        seed in 0u64..u64::MAX,
        density in 0u32..45,
        nsrc in 1usize..4,
        ntgt in 1usize..4,
    ) {
        let s = setup(w, h, seed, density, nsrc, ntgt);
        let astar = AStar::new(&s.obs);
        let flat = astar.route(&s.sources, &s.targets);
        if s.off_map {
            prop_assert_eq!(flat, None, "an off-map target has no route");
            return Ok(());
        }
        let reference = astar.route_reference(&s.sources, &s.targets);
        prop_assert_eq!(&flat, &reference, "kernels returned different paths");

        let oracle = dijkstra_cost(&s.obs, None, &s.sources, &s.targets);
        match (&flat, oracle) {
            (Some(path), Some(cost)) => {
                prop_assert_eq!(path_cost(None, path), cost, "suboptimal path");
            }
            (None, None) => {}
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "reachability disagrees with Dijkstra: got {got:?}, want cost {want:?}"
                )));
            }
        }
    }

    #[test]
    fn history_weighted_kernels_agree(
        w in 4u32..18,
        h in 4u32..18,
        seed in 0u64..u64::MAX,
        density in 0u32..35,
        nsrc in 1usize..3,
        ntgt in 1usize..3,
    ) {
        let s = setup(w, h, seed, density, nsrc, ntgt);
        let astar = AStar::with_history(&s.obs, &s.hist);
        let flat = astar.route(&s.sources, &s.targets);
        if s.off_map {
            prop_assert_eq!(flat, None, "an off-map target has no route");
            return Ok(());
        }
        let reference = astar.route_reference(&s.sources, &s.targets);
        prop_assert_eq!(&flat, &reference, "history kernels returned different paths");

        let oracle = dijkstra_cost(&s.obs, Some(&s.hist), &s.sources, &s.targets);
        match (&flat, oracle) {
            (Some(path), Some(cost)) => {
                prop_assert_eq!(path_cost(Some(&s.hist), path), cost, "suboptimal path");
            }
            (None, None) => {}
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "reachability disagrees with Dijkstra: got {got:?}, want cost {want:?}"
                )));
            }
        }
    }
}

/// The cells an A\* that expands everything it can reach touches: the
/// sources plus every free cell reachable from them through free cells.
/// A plain queue BFS over `Point`s, sharing no code with the kernel.
fn source_component(obs: &ObsMap, sources: &[Point]) -> HashSet<Point> {
    let mut seen: HashSet<Point> = sources.iter().copied().collect();
    let mut queue: VecDeque<Point> = seen.iter().copied().collect();
    while let Some(p) = queue.pop_front() {
        for q in p.neighbors4() {
            if !obs.is_blocked(q) && seen.insert(q) {
                queue.push_back(q);
            }
        }
    }
    seen
}

/// How a query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Outcome {
    Routed,
    /// Failed; the reachability probe proved it and the kernel flooded.
    Sealed,
    /// Failed after the A\* drained its open list.
    Drained,
}

/// Runs one flat-kernel query in a recording session and checks it: the
/// path equals the reference kernel's, the scratch's expansion count
/// equals the counter (and, when routed, the reference kernel's), and a
/// failure leaves the failed region and the expansion counter exactly as
/// the BFS oracle predicts.
fn check_query(
    obs: &ObsMap,
    hist: Option<&HistoryCost>,
    sources: &[Point],
    targets: &[Point],
) -> Result<Outcome, TestCaseError> {
    let astar = match hist {
        Some(h) => AStar::with_history(obs, h),
        None => AStar::new(obs),
    };
    let mut scratch = AStarScratch::new();
    let session = pacor_obs::Session::begin();
    let flat = astar.route_with_scratch(sources, targets, &mut scratch);
    let counters = session.finish();
    let session = pacor_obs::Session::begin();
    let reference = astar.route_reference(sources, targets);
    let reference_counters = session.finish();
    prop_assert_eq!(&flat, &reference, "kernels returned different paths");
    prop_assert_eq!(
        scratch.expansions(),
        counters.counter("astar.expansions"),
        "scratch expansion count differs from the counter"
    );
    if flat.is_some() {
        prop_assert_eq!(counters.counter("astar.unreachable"), 0);
        // Both kernels pop in (f, g, Point) order and skip stale
        // entries, so they expand the same cells: a cell expanded twice,
        // or one popped out of order, changes the count. Only the
        // reference expands a repeated source once per copy.
        let distinct: HashSet<Point> = sources.iter().copied().collect();
        if distinct.len() == sources.len() {
            prop_assert_eq!(
                scratch.expansions(),
                reference_counters.counter("astar.expansions"),
                "routed query expanded a different number of cells than the reference"
            );
        }
        return Ok(Outcome::Routed);
    }

    let want = source_component(obs, sources);
    let width = obs.width() as usize;
    let region = scratch
        .failed_region()
        .expect("a failed search leaves its region");
    let touched: HashSet<Point> = region
        .iter()
        .map(|i| Point::new((i % width) as i32, (i / width) as i32))
        .collect();
    prop_assert_eq!(
        &touched,
        &want,
        "failed region differs from the source component"
    );
    prop_assert_eq!(
        region.count(),
        want.len() as u64,
        "failed region's popcount differs from the component size"
    );
    prop_assert_eq!(
        counters.counter("astar.expansions"),
        want.len() as u64,
        "expansion count differs from the component size"
    );
    match counters.counter("astar.unreachable") {
        0 => Ok(Outcome::Drained),
        1 => Ok(Outcome::Sealed),
        n => Err(TestCaseError::fail(format!(
            "one query counted {n} probe-settled failures"
        ))),
    }
}

/// [`check_query`] without and with a history layer; both must end the
/// same way, since history only reweights steps.
fn check_both(obs: &ObsMap, sources: &[Point], targets: &[Point]) -> Outcome {
    let mut hist = HistoryCost::new(obs.width(), obs.height());
    for y in 0..obs.height() as i32 {
        for x in 0..obs.width() as i32 {
            for _ in 0..((x * 3 + y * 5) % 4) {
                hist.bump(Point::new(x, y));
            }
        }
    }
    let plain = check_query(obs, None, sources, targets).unwrap();
    let weighted = check_query(obs, Some(&hist), sources, targets).unwrap();
    assert_eq!(plain, weighted, "history changed how the query ended");
    plain
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

#[test]
fn sealed_target_pocket_is_settled_by_the_probe() {
    let mut grid = Grid::new(24, 20).unwrap();
    ring(&mut grid, Point::new(16, 12), 3); // 5x5 pocket
    let obs = ObsMap::new(&grid);
    let outcome = check_both(&obs, &[Point::new(2, 2)], &[Point::new(16, 12)]);
    assert_eq!(outcome, Outcome::Sealed);
}

#[test]
fn sealed_source_pocket_drains_the_open_list() {
    // The target side is the open grid, far beyond the probe budget.
    let mut grid = Grid::new(24, 20).unwrap();
    ring(&mut grid, Point::new(5, 5), 2);
    let obs = ObsMap::new(&grid);
    let outcome = check_both(&obs, &[Point::new(5, 5)], &[Point::new(20, 17)]);
    assert_eq!(outcome, Outcome::Drained);
}

#[test]
fn wall_splitting_two_large_halves_drains_the_open_list() {
    let mut grid = Grid::new(30, 16).unwrap();
    for y in 0..16 {
        grid.set_obstacle(Point::new(14, y));
    }
    let obs = ObsMap::new(&grid);
    let outcome = check_both(&obs, &[Point::new(3, 8)], &[Point::new(25, 3)]);
    assert_eq!(outcome, Outcome::Drained);
    // Swapping the sides changes nothing.
    let outcome = check_both(&obs, &[Point::new(25, 3)], &[Point::new(3, 8)]);
    assert_eq!(outcome, Outcome::Drained);
}

#[test]
fn multi_cell_target_rows_in_a_sealed_corridor() {
    // A corridor of 12 free cells at y = 10, walled above, below and at
    // both ends; the whole row is the target (an existing path).
    let mut grid = Grid::new(24, 20).unwrap();
    for x in 4..=17 {
        grid.set_obstacle(Point::new(x, 9));
        grid.set_obstacle(Point::new(x, 11));
    }
    grid.set_obstacle(Point::new(4, 10));
    grid.set_obstacle(Point::new(17, 10));
    let obs = ObsMap::new(&grid);
    let row: Vec<Point> = (5..=16).map(|x| Point::new(x, 10)).collect();
    assert_eq!(check_both(&obs, &[Point::new(1, 1)], &row), Outcome::Sealed);

    // A target row longer than the probe budget: the probe gives up at
    // once and the A* proves the failure by draining.
    let mut grid = Grid::new(90, 12).unwrap();
    for x in 0..90 {
        grid.set_obstacle(Point::new(x, 6));
    }
    let obs = ObsMap::new(&grid);
    let row: Vec<Point> = (0..80).map(|x| Point::new(x, 9)).collect();
    assert_eq!(
        check_both(&obs, &[Point::new(40, 2)], &row),
        Outcome::Drained
    );
}

#[test]
fn duplicate_and_blocked_terminals() {
    let mut grid = Grid::new(20, 20).unwrap();
    ring(&mut grid, Point::new(14, 14), 2);
    // One source on a lone obstacle, listed twice, plus a free one.
    grid.set_obstacle(Point::new(3, 3));
    let obs = ObsMap::new(&grid);
    let t = Point::new(14, 14);
    let sources = [Point::new(3, 3), Point::new(3, 3), Point::new(6, 2)];
    assert_eq!(check_both(&obs, &sources, &[t, t]), Outcome::Sealed);

    // A blocked target inside the pocket (its own net's cell).
    let mut walled = grid.clone();
    walled.set_obstacle(Point::new(13, 14));
    let obs = ObsMap::new(&walled);
    assert_eq!(
        check_both(&obs, &sources, &[Point::new(13, 14), t]),
        Outcome::Sealed
    );

    // A target that is itself walled in on all four sides.
    let mut cell = Grid::new(12, 12).unwrap();
    for q in Point::new(6, 6).neighbors4() {
        cell.set_obstacle(q);
    }
    cell.set_obstacle(Point::new(6, 6));
    let obs = ObsMap::new(&cell);
    assert_eq!(
        check_both(&obs, &[Point::new(0, 0)], &[Point::new(6, 6)]),
        Outcome::Sealed
    );
    // A blocked source in its wall steps straight onto it: routable.
    assert_eq!(
        check_both(
            &obs,
            &[Point::new(0, 0), Point::new(6, 5)],
            &[Point::new(6, 6)]
        ),
        Outcome::Routed
    );

    // So does a source on the pocket's ring.
    let obs = ObsMap::new(&grid);
    assert_eq!(
        check_both(&obs, &[Point::new(14, 12)], &[t]),
        Outcome::Routed
    );
}

/// A random obstacle grid and history layer whose terminals are often
/// walled into square rings: around the first target (with the extra
/// targets near it, inside the ring when there is one), around the
/// first source, or both. Targets and sources are sometimes repeated.
fn walled_setup(seed: u64) -> (ObsMap, HistoryCost, Vec<Point>, Vec<Point>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (w, h) = (rng.gen_range(6u32..28), rng.gen_range(6u32..28));
    let density = rng.gen_range(0u32..30);
    let mut grid = Grid::new(w, h).unwrap();
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            if rng.gen_range(0u32..100) < density {
                grid.set_obstacle(Point::new(x, y));
            }
        }
    }
    let rand_point =
        |rng: &mut StdRng| Point::new(rng.gen_range(0..w as i32), rng.gen_range(0..h as i32));
    let t0 = rand_point(&mut rng);
    let s0 = rand_point(&mut rng);
    let (ring_t, ring_s) = (rng.gen_range(0i32..5), rng.gen_range(0i32..4));
    if ring_t > 0 {
        ring(&mut grid, t0, ring_t);
    }
    if ring_s > 0 {
        ring(&mut grid, s0, ring_s);
    }
    let mut targets = vec![t0];
    for _ in 1..rng.gen_range(1usize..5) {
        let r = ring_t.max(2) - 1;
        let p = Point::new(t0.x + rng.gen_range(-r..=r), t0.y + rng.gen_range(-r..=r));
        if grid.in_bounds(p) {
            targets.push(p);
        }
    }
    if rng.gen_range(0u32..3) == 0 {
        targets.push(t0);
    }
    let s1 = if rng.gen_range(0u32..2) == 0 {
        rand_point(&mut rng)
    } else {
        s0
    };
    let mut hist = HistoryCost::new(w, h);
    for _ in 0..(w * h / 3) {
        hist.bump(rand_point(&mut rng));
    }
    (ObsMap::new(&grid), hist, vec![s0, s1], targets)
}

/// Randomized walled terminals, with and without history. A plain seed
/// loop rather than a proptest, so it can assert that every way a query
/// ends is covered.
#[test]
fn walled_terminals_fail_like_an_exhausted_search() {
    let mut seen: HashMap<Outcome, usize> = HashMap::new();
    for seed in 0..400u64 {
        let (obs, hist, sources, targets) = walled_setup(seed);
        for hist in [None, Some(&hist)] {
            let outcome = check_query(&obs, hist, &sources, &targets)
                .unwrap_or_else(|e| panic!("seed {seed}, history {}: {e:?}", hist.is_some()));
            *seen.entry(outcome).or_default() += 1;
        }
    }
    for outcome in [Outcome::Routed, Outcome::Sealed, Outcome::Drained] {
        let hits = seen.get(&outcome).copied().unwrap_or(0);
        assert!(
            hits >= 40,
            "{outcome:?} covered only {hits} times: {seen:?}"
        );
    }
}
