//! Deterministic fixed-seed ensemble of negotiation problems.
//!
//! 1500 random 14×14 cases, each with fewer than 30 obstacles and 2–4
//! point-to-point requests, are negotiated with the default router and
//! summed: rip-ups, complete cases and contended cases (more than one
//! round). The seed is pinned, so the sums are exact and the test never
//! flakes; any change to what a round rips, to the history steering or
//! to when the loop gives up shifts them. It complements the 150
//! line-by-line scenarios of `negotiation_fixture.rs` with breadth.

use pacor_grid::{Grid, ObsMap, Point};
use pacor_route::{NegotiationRouter, RouteRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 1500;
const SIZE: i32 = 14;

fn random_case(rng: &mut StdRng) -> (ObsMap, Vec<RouteRequest>) {
    let mut grid = Grid::new(SIZE as u32, SIZE as u32).unwrap();
    let mut cells = std::collections::HashSet::new();
    for _ in 0..rng.gen_range(0..30) {
        cells.insert(Point::new(rng.gen_range(0..SIZE), rng.gen_range(0..SIZE)));
    }
    let n_terms: usize = 2 * rng.gen_range(2..5usize);
    let mut terms = Vec::new();
    while terms.len() < n_terms {
        let p = Point::new(rng.gen_range(0..SIZE), rng.gen_range(0..SIZE));
        if !cells.contains(&p) && !terms.contains(&p) {
            terms.push(p);
        }
    }
    for c in &cells {
        grid.set_obstacle(*c);
    }
    let edges = terms
        .chunks_exact(2)
        .map(|c| RouteRequest::point_to_point(c[0], c[1]))
        .collect();
    (ObsMap::new(&grid), edges)
}

#[test]
fn ensemble_totals_are_pinned() {
    let mut rng = StdRng::seed_from_u64(1);
    let (mut ripups, mut complete, mut contended) = (0u64, 0usize, 0usize);
    for _ in 0..CASES {
        let (mut obs, edges) = random_case(&mut rng);
        let out = NegotiationRouter::new().route_all(&mut obs, &edges);
        ripups += out.ripups;
        complete += usize::from(out.complete);
        contended += usize::from(out.iterations > 1);
    }
    assert_eq!(
        (ripups, complete, contended),
        (1610, 1445, 212),
        "(rip-ups, complete cases, contended cases) over {CASES} cases"
    );
}
