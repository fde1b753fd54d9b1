//! Benchmark design synthesizer matching Table 1 of the paper.
//!
//! The paper evaluates two real biochips (Chip1, Chip2) and five
//! synthesized testcases (S1–S5). The real chip layouts are not public,
//! so this module synthesizes *all seven* designs from the published
//! parameters — grid size, valve count, candidate control pin count,
//! obstacle count (Table 1) and multi-valve cluster count (Table 2) —
//! using a seeded RNG for reproducibility. The routing flow consumes
//! nothing beyond these parameters, so the substitution preserves the
//! experimental shape (see DESIGN.md).

use crate::Problem;
use pacor_grid::{Grid, Point};
use pacor_valves::{ActivationSequence, ActivationStatus, Valve, ValveId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Published parameters of one benchmark design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DesignParams {
    /// Design name.
    pub name: &'static str,
    /// Grid width (Table 1 "Size", first dimension).
    pub width: u32,
    /// Grid height (Table 1 "Size", second dimension).
    pub height: u32,
    /// Number of valves (Table 1 "#Valves").
    pub valves: u32,
    /// Number of candidate control pins (Table 1 "#Control pin").
    pub control_pins: u32,
    /// Number of obstructed routing cells (Table 1 "#Obs").
    pub obstacles: u32,
    /// Number of clusters with ≥ 2 valves (Table 2 "#Clusters").
    pub multi_clusters: u32,
    /// `true` when every multi-valve cluster is a two-valve pair (the
    /// paper notes Chip2 "has only clusters with two valves").
    pub pairs_only: bool,
}

/// The seven benchmark designs of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenchDesign {
    /// Real biochip 1: 179×413, 176 valves, 556 pins, 1800 obstacles.
    Chip1,
    /// Real biochip 2: 231×265, 56 valves, 495 pins, 1863 obstacles.
    Chip2,
    /// Synthesized: 12×12, 5 valves.
    S1,
    /// Synthesized: 22×22, 10 valves.
    S2,
    /// Synthesized: 52×52, 15 valves.
    S3,
    /// Synthesized: 72×72, 20 valves.
    S4,
    /// Synthesized: 152×152, 40 valves.
    S5,
}

impl BenchDesign {
    /// All designs in Table 1 order.
    pub const ALL: [BenchDesign; 7] = [
        BenchDesign::Chip1,
        BenchDesign::Chip2,
        BenchDesign::S1,
        BenchDesign::S2,
        BenchDesign::S3,
        BenchDesign::S4,
        BenchDesign::S5,
    ];

    /// The synthesized testcases only (S1–S5).
    pub const SYNTH: [BenchDesign; 5] = [
        BenchDesign::S1,
        BenchDesign::S2,
        BenchDesign::S3,
        BenchDesign::S4,
        BenchDesign::S5,
    ];

    /// Published parameters for this design (Tables 1 and 2).
    pub fn params(self) -> DesignParams {
        match self {
            BenchDesign::Chip1 => DesignParams {
                name: "Chip1",
                width: 179,
                height: 413,
                valves: 176,
                control_pins: 556,
                obstacles: 1800,
                multi_clusters: 40,
                pairs_only: false,
            },
            BenchDesign::Chip2 => DesignParams {
                name: "Chip2",
                width: 231,
                height: 265,
                valves: 56,
                control_pins: 495,
                obstacles: 1863,
                multi_clusters: 22,
                pairs_only: true,
            },
            BenchDesign::S1 => DesignParams {
                name: "S1",
                width: 12,
                height: 12,
                valves: 5,
                control_pins: 14,
                obstacles: 9,
                multi_clusters: 2,
                pairs_only: false,
            },
            BenchDesign::S2 => DesignParams {
                name: "S2",
                width: 22,
                height: 22,
                valves: 10,
                control_pins: 40,
                obstacles: 54,
                multi_clusters: 2,
                pairs_only: false,
            },
            BenchDesign::S3 => DesignParams {
                name: "S3",
                width: 52,
                height: 52,
                valves: 15,
                control_pins: 93,
                obstacles: 0,
                multi_clusters: 5,
                pairs_only: false,
            },
            BenchDesign::S4 => DesignParams {
                name: "S4",
                width: 72,
                height: 72,
                valves: 20,
                control_pins: 139,
                obstacles: 27,
                multi_clusters: 7,
                pairs_only: false,
            },
            BenchDesign::S5 => DesignParams {
                name: "S5",
                width: 152,
                height: 152,
                valves: 40,
                control_pins: 306,
                obstacles: 135,
                multi_clusters: 13,
                pairs_only: false,
            },
        }
    }

    /// Synthesizes a reproducible problem instance with this design's
    /// published parameters. The same `seed` always yields the same
    /// instance.
    ///
    /// # Panics
    ///
    /// Panics if the synthesized instance fails validation — a synthesizer
    /// bug, not a user error.
    pub fn synthesize(self, seed: u64) -> Problem {
        synthesize(self.params(), seed)
    }
}

/// Synthesizes a problem from explicit parameters rather than one of the
/// paper's designs. The end-to-end benchmark harness uses this to build
/// chips denser than Table 1's, where negotiation actually has to rip up
/// and retry.
///
/// # Panics
///
/// Panics when the parameters leave no room to place every cluster (the
/// synthesizer keeps a one-cell moat around valves).
pub fn synthesize_params(p: DesignParams, seed: u64) -> Problem {
    synthesize(p, seed)
}

/// Chips the end-to-end flow benchmark runs, smallest to largest.
///
/// Table 1's designs are too sparse to exercise negotiation (every one
/// converges in a single round), so these are denser synthesized chips —
/// more multi-valve clusters packed per unit area plus a heavier obstacle
/// field — where the first routing pass genuinely collides and the rip-up
/// policies diverge. The larger two are deliberately oversubscribed: the
/// escape stage cannot connect every valve (completion < 100%, identical
/// across policies), which keeps the negotiation loop under pressure for
/// the whole run instead of only its first seconds.
pub const FLOW_BENCH_CHIPS: [DesignParams; 4] = [
    DesignParams {
        name: "B1-dense24",
        width: 24,
        height: 24,
        valves: 18,
        control_pins: 40,
        obstacles: 50,
        multi_clusters: 8,
        pairs_only: false,
    },
    DesignParams {
        name: "B2-dense48",
        width: 48,
        height: 48,
        valves: 100,
        control_pins: 110,
        obstacles: 280,
        multi_clusters: 44,
        pairs_only: false,
    },
    DesignParams {
        name: "B3-dense96",
        width: 96,
        height: 96,
        valves: 200,
        control_pins: 200,
        obstacles: 700,
        multi_clusters: 88,
        pairs_only: false,
    },
    // FPVA-scale tier (arXiv:1705.04996): the largest default chip,
    // pin-rich enough to finish at 100% completion so the tier can
    // gate correctness (verify-clean routing) as well as speed.
    DesignParams {
        name: "B4-dense256",
        width: 256,
        height: 256,
        valves: 400,
        control_pins: 700,
        obstacles: 2800,
        multi_clusters: 150,
        pairs_only: false,
    },
];

/// The opt-in 512² chip `bench_flow --huge` adds on top of
/// [`FLOW_BENCH_CHIPS`] — FPVA-scale stress, too slow for the default
/// benchmark run.
pub const FLOW_HUGE_CHIP: DesignParams = DesignParams {
    name: "B5-dense512",
    width: 512,
    height: 512,
    valves: 900,
    control_pins: 1600,
    obstacles: 9000,
    multi_clusters: 340,
    pairs_only: false,
};

/// The single tiny chip `bench_flow --smoke` (and `make bench-smoke`)
/// runs so CI can exercise the harness in well under a second.
pub const FLOW_SMOKE_CHIP: DesignParams = DesignParams {
    name: "B0-smoke16",
    width: 16,
    height: 16,
    valves: 10,
    control_pins: 24,
    obstacles: 20,
    multi_clusters: 4,
    pairs_only: false,
};

/// Cluster size plan: every multi-cluster starts as a pair; spare valves
/// are reserved for singletons (~¼ of the valves) and the rest grow the
/// multi-clusters round-robin up to size 4.
fn size_plan(p: &DesignParams) -> Vec<u32> {
    let m = p.multi_clusters as usize;
    let mut sizes = vec![2u32; m];
    let spare = p.valves.saturating_sub(2 * p.multi_clusters);
    let reserve = if p.pairs_only {
        spare
    } else {
        spare.min(p.valves.div_ceil(4))
    };
    let mut distribute = spare - reserve;
    let mut i = 0;
    while distribute > 0 && !sizes.is_empty() {
        if sizes[i] < 4 {
            sizes[i] += 1;
            distribute -= 1;
        }
        i = (i + 1) % sizes.len();
        if sizes.iter().all(|&s| s >= 4) {
            break; // remaining spares become singletons
        }
    }
    sizes
}

fn synthesize(p: DesignParams, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5043_4F52); // "PCOR"
    let grid = Grid::new(p.width, p.height).expect("published sizes are valid");

    // Obstacles: distinct interior cells.
    let mut obstacle_set = std::collections::HashSet::new();
    let margin = 1i32;
    while (obstacle_set.len() as u32) < p.obstacles {
        let x = rng.gen_range(margin..p.width as i32 - margin);
        let y = rng.gen_range(margin..p.height as i32 - margin);
        obstacle_set.insert(Point::new(x, y));
    }

    // Cluster plan.
    let sizes = size_plan(&p);
    let singles = p.valves - sizes.iter().sum::<u32>();
    let n_clusters = sizes.len() as u32 + singles;

    // Distinct activation codes per cluster (no don't-cares ⇒ clusters are
    // exactly the compatibility classes).
    let code_len = (32 - (n_clusters.max(2) - 1).leading_zeros()).max(3) as usize;
    let code = |k: u32| -> ActivationSequence {
        (0..code_len)
            .map(|b| {
                if (k >> b) & 1 == 1 {
                    ActivationStatus::Closed
                } else {
                    ActivationStatus::Open
                }
            })
            .collect()
    };

    // Valve placement.
    let vmargin = 2i32.min(p.width as i32 / 4).max(1);
    let mut used: std::collections::HashSet<Point> = obstacle_set.clone();
    let free_cell = |rng: &mut StdRng,
                     used: &std::collections::HashSet<Point>,
                     cx: i32,
                     cy: i32,
                     radius: i32|
     -> Option<Point> {
        for _ in 0..200 {
            let x =
                (cx + rng.gen_range(-radius..=radius)).clamp(vmargin, p.width as i32 - 1 - vmargin);
            let y = (cy + rng.gen_range(-radius..=radius))
                .clamp(vmargin, p.height as i32 - 1 - vmargin);
            let q = Point::new(x, y);
            // Keep a one-cell moat (full 8-neighborhood) around existing
            // valves and obstacles: real designs place valves with routing
            // feasibility in mind, and diagonal valve blobs create
            // capacity-1 pockets no router can fully serve.
            let crowded = (-1..=1).any(|dx| {
                (-1..=1).any(|dy| {
                    (dx != 0 || dy != 0) && used.contains(&Point::new(q.x + dx, q.y + dy))
                })
            });
            if !used.contains(&q) && !crowded {
                return Some(q);
            }
        }
        None
    };

    let mut valves = Vec::new();
    let mut lm_clusters = Vec::new();
    let mut next_valve = 0u32;
    for (k, &size) in sizes.iter().enumerate() {
        // Cluster center with room for the whole group.
        let spread = (3 + 2 * size as i32)
            .min(p.width.min(p.height) as i32 / 2 - 1)
            .max(2);
        let mut members = Vec::new();
        'place: for _ in 0..100 {
            members.clear();
            let cx = rng.gen_range(
                vmargin + spread..=(p.width as i32 - 1 - vmargin - spread).max(vmargin + spread),
            );
            let cy = rng.gen_range(
                vmargin + spread..=(p.height as i32 - 1 - vmargin - spread).max(vmargin + spread),
            );
            let mut tentative = used.clone();
            for _ in 0..size {
                match free_cell(&mut rng, &tentative, cx, cy, spread) {
                    Some(q) => {
                        tentative.insert(q);
                        members.push(q);
                    }
                    None => continue 'place,
                }
            }
            used = tentative;
            break;
        }
        assert_eq!(
            members.len(),
            size as usize,
            "synthesizer could not place cluster {k} of {}",
            p.name
        );
        let ids: Vec<ValveId> = members
            .iter()
            .map(|&pos| {
                let id = ValveId(next_valve);
                next_valve += 1;
                valves.push(Valve::new(id, pos, code(k as u32)));
                id
            })
            .collect();
        lm_clusters.push(ids);
    }
    for s in 0..singles {
        let cx = rng.gen_range(vmargin..p.width as i32 - vmargin);
        let cy = rng.gen_range(vmargin..p.height as i32 - vmargin);
        let pos = free_cell(&mut rng, &used, cx, cy, p.width.min(p.height) as i32 / 2)
            .expect("grid has room for singleton valves");
        used.insert(pos);
        let id = ValveId(next_valve);
        next_valve += 1;
        valves.push(Valve::new(id, pos, code(sizes.len() as u32 + s)));
    }

    // Control pins: evenly spaced free boundary cells.
    let boundary: Vec<Point> = grid
        .boundary_points()
        .filter(|b| !obstacle_set.contains(b))
        .collect();
    let want = (p.control_pins as usize).min(boundary.len());
    let mut pins = Vec::with_capacity(want);
    for i in 0..want {
        pins.push(boundary[i * boundary.len() / want]);
    }
    pins.dedup();

    let mut obstacles: Vec<Point> = obstacle_set.into_iter().collect();
    obstacles.sort();
    let mut builder = Problem::builder(p.name, p.width, p.height)
        .delta(1)
        .pins(pins)
        .obstacles(obstacles);
    for v in valves {
        builder = builder.valve(v);
    }
    for c in lm_clusters {
        builder = builder.lm_cluster(c);
    }
    builder.build().expect("synthesized design is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_match_table1() {
        let p = BenchDesign::Chip1.params();
        assert_eq!((p.width, p.height), (179, 413));
        assert_eq!(p.valves, 176);
        assert_eq!(p.control_pins, 556);
        assert_eq!(p.obstacles, 1800);
        let p = BenchDesign::S3.params();
        assert_eq!((p.width, p.height), (52, 52));
        assert_eq!(p.obstacles, 0);
    }

    #[test]
    fn size_plans_cover_valves() {
        for d in BenchDesign::ALL {
            let p = d.params();
            let sizes = size_plan(&p);
            assert_eq!(sizes.len() as u32, p.multi_clusters, "{}", p.name);
            let multi: u32 = sizes.iter().sum();
            assert!(multi <= p.valves, "{}", p.name);
            assert!(sizes.iter().all(|&s| (2..=4).contains(&s)), "{}", p.name);
            if p.pairs_only {
                assert!(sizes.iter().all(|&s| s == 2), "{}", p.name);
            }
        }
    }

    #[test]
    fn s1_synthesis_matches_parameters() {
        let prob = BenchDesign::S1.synthesize(42);
        assert_eq!(prob.valve_count(), 5);
        assert_eq!(prob.obstacles.len(), 9);
        assert_eq!(prob.lm_clusters.len(), 2);
        assert_eq!(prob.width, 12);
        prob.validate().unwrap();
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = BenchDesign::S2.synthesize(7);
        let b = BenchDesign::S2.synthesize(7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn different_seeds_differ() {
        let a = BenchDesign::S2.synthesize(1);
        let b = BenchDesign::S2.synthesize(2);
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn all_synth_designs_validate() {
        for d in BenchDesign::SYNTH {
            let prob = d.synthesize(11);
            prob.validate().unwrap();
            let p = d.params();
            assert_eq!(prob.valve_count() as u32, p.valves, "{}", p.name);
            assert_eq!(prob.obstacles.len() as u32, p.obstacles, "{}", p.name);
            assert_eq!(
                prob.lm_clusters.len() as u32,
                p.multi_clusters,
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn chip2_is_pairs_only() {
        let prob = BenchDesign::Chip2.synthesize(3);
        assert!(prob.lm_clusters.iter().all(|c| c.len() == 2));
        assert_eq!(prob.lm_clusters.len(), 22);
    }

    #[test]
    fn pins_are_on_free_boundary() {
        let prob = BenchDesign::S4.synthesize(9);
        let grid = prob.grid().unwrap();
        for &p in &prob.pins {
            assert!(grid.is_boundary(p));
            assert!(!grid.is_obstacle(p));
        }
        assert!(!prob.pins.is_empty());
    }

    #[test]
    fn clusters_are_compatibility_classes() {
        let prob = BenchDesign::S3.synthesize(5);
        // Valves in the same LM cluster share a code; across clusters the
        // codes differ.
        for c in &prob.lm_clusters {
            let s0 = prob.valves.get(c[0]).unwrap().sequence().clone();
            for &m in c {
                assert_eq!(prob.valves.get(m).unwrap().sequence(), &s0);
            }
        }
    }
}
