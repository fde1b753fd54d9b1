//! Property-based tests for the grid-native escape solver.

use pacor_flow::{EscapeSource, GridEscape, SourceKind};
use pacor_grid::{Grid, ObsMap, Point};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn escape_paths_are_valid_and_disjoint(
        srcs in prop::collection::hash_set((3i32..13, 3i32..13), 1..5),
        obst in prop::collection::hash_set((1i32..15, 1i32..15), 0..12),
    ) {
        let mut grid = Grid::new(16, 16).unwrap();
        let sources: Vec<Point> = srcs.iter().map(|&(x, y)| Point::new(x, y)).collect();
        for &(x, y) in &obst {
            let p = Point::new(x, y);
            if !sources.contains(&p) {
                grid.set_obstacle(p);
            }
        }
        let mut obs = ObsMap::new(&grid);
        for &s in &sources {
            obs.block(s);
        }
        let escape_sources: Vec<EscapeSource> = sources
            .iter()
            .map(|&s| EscapeSource::at(SourceKind::SingleValve, s))
            .collect();
        let pins: Vec<Point> = (1..15).step_by(2).map(|x| Point::new(x, 0)).collect();
        let out = GridEscape::new().solve(&obs, &escape_sources, &pins);

        let mut used: HashSet<Point> = HashSet::new();
        let mut pins_used: HashSet<Point> = HashSet::new();
        for (k, route) in out.routes.iter().enumerate() {
            if let Some((path, pin)) = route {
                // Path starts at the source, ends at the pin.
                prop_assert_eq!(path.source(), sources[k]);
                prop_assert_eq!(path.target(), *pin);
                prop_assert!(pins.contains(pin));
                prop_assert!(pins_used.insert(*pin), "pin reused");
                // Transit cells avoid obstacles and other paths.
                for c in path.cells().iter().skip(1) {
                    prop_assert!(!grid.is_obstacle(*c), "path through obstacle {c}");
                    prop_assert!(used.insert(*c), "cell {c} reused");
                }
            }
        }
        prop_assert_eq!(
            out.routed,
            out.routes.iter().flatten().count()
        );
    }

    #[test]
    fn escape_routed_count_is_maximal_for_single_source(
        sx in 2i32..14, sy in 2i32..14,
    ) {
        // With one source and an open grid, the source always routes.
        let grid = Grid::new(16, 16).unwrap();
        let mut obs = ObsMap::new(&grid);
        let s = Point::new(sx, sy);
        obs.block(s);
        let pins = vec![Point::new(0, 8)];
        let out = GridEscape::new().solve(
            &obs,
            &[EscapeSource::at(SourceKind::SingleValve, s)],
            &pins,
        );
        prop_assert_eq!(out.routed, 1);
        // And its length is the Manhattan distance (open grid optimality).
        let (path, _) = out.routes[0].as_ref().unwrap();
        prop_assert_eq!(path.len(), s.manhattan(Point::new(0, 8)));
    }
}
