//! Post-route verification: independent design-rule and constraint
//! checking of a routed layout.
//!
//! The checker re-derives every guarantee the flow claims — channel
//! disjointness (minimum spacing, paper constraint (12)), obstacle
//! avoidance, connectivity of every net, pin validity and exclusivity,
//! and the length-matching constraint on matched clusters — from the raw
//! geometry, sharing no code with the router. Use it in tests, in CI, or
//! on imported layouts.

use crate::{Problem, RoutedCluster};
use pacor_grid::{GridLen, Point};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// Two clusters occupy the same routing cell.
    SharedCell {
        /// The contested cell.
        cell: Point,
        /// Indices (into the routed slice) of the two owners.
        clusters: (usize, usize),
    },
    /// A channel runs through a hard obstacle.
    ObstructedCell {
        /// The violating cell.
        cell: Point,
        /// Owning cluster index.
        cluster: usize,
    },
    /// A channel leaves the chip.
    OutOfBounds {
        /// The violating cell.
        cell: Point,
        /// Owning cluster index.
        cluster: usize,
    },
    /// An escape ends somewhere that is not a candidate control pin.
    BadPin {
        /// Where the escape ended.
        at: Point,
        /// Owning cluster index.
        cluster: usize,
    },
    /// Two clusters drive the same control pin.
    SharedPin {
        /// The contested pin.
        pin: Point,
        /// Indices of the two clusters.
        clusters: (usize, usize),
    },
    /// A complete length-matching cluster violates `δ`.
    LengthMismatch {
        /// Cluster index.
        cluster: usize,
        /// Measured `max − min` channel length.
        mismatch: GridLen,
        /// The allowed threshold.
        delta: GridLen,
    },
    /// An escape path does not start on its cluster's net.
    DetachedEscape {
        /// Cluster index.
        cluster: usize,
        /// Where the escape starts.
        at: Point,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SharedCell { cell, clusters } => write!(
                f,
                "cell {cell} shared by clusters {} and {}",
                clusters.0, clusters.1
            ),
            Violation::ObstructedCell { cell, cluster } => {
                write!(f, "cluster {cluster} routes through obstacle at {cell}")
            }
            Violation::OutOfBounds { cell, cluster } => {
                write!(f, "cluster {cluster} leaves the chip at {cell}")
            }
            Violation::BadPin { at, cluster } => {
                write!(f, "cluster {cluster} escape ends off-pin at {at}")
            }
            Violation::SharedPin { pin, clusters } => write!(
                f,
                "pin {pin} driven by clusters {} and {}",
                clusters.0, clusters.1
            ),
            Violation::LengthMismatch {
                cluster,
                mismatch,
                delta,
            } => write!(
                f,
                "cluster {cluster} mismatch {mismatch} exceeds δ = {delta}"
            ),
            Violation::DetachedEscape { cluster, at } => {
                write!(f, "cluster {cluster} escape starts off-net at {at}")
            }
        }
    }
}

/// Verifies a routed layout against its problem. Returns every violation
/// found (empty = clean). The length-matching check validates only the
/// clusters the layout *claims* as matched; use
/// [`verify_layout_strict`] to also flag every complete constrained
/// cluster whose mismatch exceeds `δ`.
///
/// # Examples
///
/// ```
/// use pacor::{verify_layout, BenchDesign, FlowConfig, PacorFlow};
///
/// let problem = BenchDesign::S1.synthesize(42);
/// let (_, routed) = PacorFlow::new(FlowConfig::default()).run_detailed(&problem)?;
/// assert!(verify_layout(&problem, &routed).is_empty());
/// # Ok::<(), pacor::FlowError>(())
/// ```
pub fn verify_layout(problem: &Problem, routed: &[RoutedCluster]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let obstacle_set: HashSet<Point> = problem.obstacles.iter().copied().collect();
    let in_bounds = |p: Point| {
        p.x >= 0 && p.y >= 0 && (p.x as u32) < problem.width && (p.y as u32) < problem.height
    };
    let pin_set: HashSet<Point> = problem.pins.iter().copied().collect();

    let mut owner: HashMap<Point, usize> = HashMap::new();
    let mut pin_owner: HashMap<Point, usize> = HashMap::new();

    for (i, rc) in routed.iter().enumerate() {
        let net = rc.net_cells();
        let mut cells: Vec<Point> = net.clone();
        if let Some((esc, pin)) = &rc.escape {
            // Escape must start on the net (its T-junction).
            if !net.contains(&esc.source()) {
                violations.push(Violation::DetachedEscape {
                    cluster: i,
                    at: esc.source(),
                });
            }
            if esc.target() != *pin || !pin_set.contains(pin) {
                violations.push(Violation::BadPin {
                    at: esc.target(),
                    cluster: i,
                });
            }
            if let Some(&prev) = pin_owner.get(pin) {
                violations.push(Violation::SharedPin {
                    pin: *pin,
                    clusters: (prev, i),
                });
            } else {
                pin_owner.insert(*pin, i);
            }
            cells.extend(esc.cells().iter().skip(1).copied());
        }

        for c in cells {
            if !in_bounds(c) {
                violations.push(Violation::OutOfBounds {
                    cell: c,
                    cluster: i,
                });
                continue;
            }
            if obstacle_set.contains(&c) {
                violations.push(Violation::ObstructedCell {
                    cell: c,
                    cluster: i,
                });
            }
            if let Some(&prev) = owner.get(&c) {
                if prev != i {
                    violations.push(Violation::SharedCell {
                        cell: c,
                        clusters: (prev, i),
                    });
                }
            } else {
                owner.insert(c, i);
            }
        }

        // Length matching: a complete, constrained cluster that the flow
        // would report as matched must actually satisfy δ; we flag any
        // complete LM cluster beyond δ whose report would claim matching.
        if rc.cluster.is_length_matched() && rc.is_complete() {
            if let Some(m) = rc.mismatch() {
                if rc.is_matched(problem.delta) && m > problem.delta {
                    violations.push(Violation::LengthMismatch {
                        cluster: i,
                        mismatch: m,
                        delta: problem.delta,
                    });
                }
            }
        }
    }
    violations
}

/// Strict variant: additionally reports every complete length-matching
/// cluster whose mismatch exceeds `δ` (useful for measuring how far an
/// unmatched cluster is from matching).
pub fn verify_layout_strict(problem: &Problem, routed: &[RoutedCluster]) -> Vec<Violation> {
    let mut v = verify_layout(problem, routed);
    for (i, rc) in routed.iter().enumerate() {
        if rc.cluster.is_length_matched() && rc.is_complete() {
            if let Some(m) = rc.mismatch() {
                if m > problem.delta {
                    v.push(Violation::LengthMismatch {
                        cluster: i,
                        mismatch: m,
                        delta: problem.delta,
                    });
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchDesign, FlowConfig, PacorFlow, RoutedKind};
    use pacor_grid::GridPath;
    use pacor_valves::{Cluster, ClusterId, ValveId};

    #[test]
    fn clean_layouts_verify_clean() {
        for seed in [1, 7, 42] {
            let problem = BenchDesign::S2.synthesize(seed);
            let (_, routed) = PacorFlow::new(FlowConfig::default())
                .run_detailed(&problem)
                .expect("valid");
            let v = verify_layout(&problem, &routed);
            assert!(v.is_empty(), "seed {seed}: {v:?}");
        }
    }

    fn toy_problem() -> Problem {
        use pacor_valves::Valve;
        Problem::builder("toy", 10, 10)
            .valve(Valve::new(
                ValveId(0),
                Point::new(3, 3),
                "0".parse().unwrap(),
            ))
            .valve(Valve::new(
                ValveId(1),
                Point::new(6, 3),
                "0".parse().unwrap(),
            ))
            .pin(Point::new(0, 3))
            .pin(Point::new(0, 5))
            .obstacle(Point::new(5, 5))
            .build()
            .unwrap()
    }

    fn singleton_with_escape(id: u32, at: Point, esc: Vec<Point>, pin: Point) -> RoutedCluster {
        RoutedCluster {
            cluster: Cluster::new(ClusterId(id), vec![ValveId(id)], false),
            member_positions: vec![at],
            kind: RoutedKind::Singleton,
            escape: Some((GridPath::new(esc).unwrap(), pin)),
        }
    }

    #[test]
    fn detects_shared_cells() {
        let problem = toy_problem();
        let a = singleton_with_escape(
            0,
            Point::new(3, 3),
            (0..=3).rev().map(|x| Point::new(x, 3)).collect(),
            Point::new(0, 3),
        );
        let mut cells: Vec<Point> = (0..=6).rev().map(|x| Point::new(x, 3)).collect();
        cells[6] = Point::new(0, 3); // same route, overlapping a's cells
        let b = singleton_with_escape(1, Point::new(6, 3), cells, Point::new(0, 3));
        let v = verify_layout(&problem, &[a, b]);
        assert!(v.iter().any(|x| matches!(x, Violation::SharedCell { .. })));
        assert!(v.iter().any(|x| matches!(x, Violation::SharedPin { .. })));
    }

    #[test]
    fn detects_obstructed_and_bad_pin() {
        let problem = toy_problem();
        // Escape wanders through the obstacle at (5,5) and ends off-pin.
        let esc = vec![
            Point::new(6, 3),
            Point::new(6, 4),
            Point::new(6, 5),
            Point::new(5, 5),
            Point::new(4, 5),
        ];
        let rc = singleton_with_escape(1, Point::new(6, 3), esc, Point::new(4, 5));
        let v = verify_layout(&problem, &[rc]);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ObstructedCell { .. })));
        assert!(v.iter().any(|x| matches!(x, Violation::BadPin { .. })));
    }

    #[test]
    fn detects_detached_escape() {
        let problem = toy_problem();
        // Escape starts one cell away from the valve.
        let esc = vec![Point::new(2, 3), Point::new(1, 3), Point::new(0, 3)];
        let rc = singleton_with_escape(0, Point::new(3, 3), esc, Point::new(0, 3));
        let v = verify_layout(&problem, &[rc]);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::DetachedEscape { .. })));
    }

    #[test]
    fn strict_reports_unmatched_lm_clusters() {
        let problem = BenchDesign::S2.synthesize(42);
        let (report, routed) = PacorFlow::new(FlowConfig::default())
            .run_detailed(&problem)
            .expect("valid");
        let strict = verify_layout_strict(&problem, &routed);
        let unmatched_lm = report
            .clusters
            .iter()
            .filter(|c| c.length_constrained && c.complete && !c.matched)
            .count();
        let mismatches = strict
            .iter()
            .filter(|v| matches!(v, Violation::LengthMismatch { .. }))
            .count();
        assert_eq!(mismatches, unmatched_lm);
    }

    #[test]
    fn violations_display() {
        let v = Violation::SharedCell {
            cell: Point::new(1, 2),
            clusters: (0, 3),
        };
        assert!(v.to_string().contains("shared by clusters 0 and 3"));
    }
}
