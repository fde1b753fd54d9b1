//! Candidate Steiner tree enumeration (Fig. 3 of the paper).

use crate::{balanced_bipartition, DmeBuilder, EmbedPolicy, SteinerTree};

use pacor_grid::{ObsMap, Point};

/// Configuration for candidate generation.
#[derive(Debug, Clone, Copy)]
pub struct CandidateConfig {
    /// Maximum number of candidates to return (≥ 1).
    pub max_candidates: usize,
    /// Loop-search radius for obstacle avoidance.
    pub max_search_radius: u32,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        Self {
            max_candidates: 6,
            max_search_radius: 64,
        }
    }
}

/// Computes up to `config.max_candidates` distinct candidate Steiner
/// trees for one length-matching cluster by varying the merging-node
/// placement policy (the different choices of Fig. 3 (b)–(d)).
///
/// Candidates are deduplicated by their full node embedding; the list is
/// never empty and the canonical `Closest`-policy tree always comes
/// first. All candidates share the same balanced-bipartition topology, as
/// in the paper.
///
/// # Panics
///
/// Panics when `sinks` is empty or `config.max_candidates == 0`.
///
/// # Examples
///
/// ```
/// use pacor_dme::{candidates, CandidateConfig};
/// use pacor_grid::Point;
///
/// let sinks = vec![
///     Point::new(0, 0),
///     Point::new(10, 0),
///     Point::new(0, 10),
///     Point::new(10, 10),
/// ];
/// let cands = candidates(&sinks, None, CandidateConfig::default());
/// assert!(!cands.is_empty());
/// assert!(cands.iter().all(|t| t.sink_count() == 4));
/// ```
pub fn candidates(
    sinks: &[Point],
    obs: Option<&ObsMap>,
    config: CandidateConfig,
) -> Vec<SteinerTree> {
    assert!(!sinks.is_empty(), "cluster needs at least one sink");
    assert!(config.max_candidates >= 1, "need at least one candidate");
    let topo = balanced_bipartition(sinks);

    let mut out: Vec<SteinerTree> = Vec::new();
    let mut hashes: Vec<u64> = Vec::new();
    for policy in EmbedPolicy::ALL {
        if out.len() >= config.max_candidates {
            break;
        }
        let mut builder = DmeBuilder::new(sinks)
            .with_policy(policy)
            .with_max_search_radius(config.max_search_radius);
        if let Some(o) = obs {
            builder = builder.with_obstacles(o);
        }
        let tree = builder.embed(&topo);
        if !is_duplicate(&tree, &out, &mut hashes) {
            out.push(tree);
        }
    }
    out
}

/// 64-bit FNV-1a over a tree's node-embedding sequence. Candidates whose
/// hashes differ cannot share an embedding, so [`is_duplicate`] falls
/// back to the full point-by-point comparison only on a hash match —
/// replacing the all-pairs O(pool · nodes) scan per new candidate.
fn embedding_hash(tree: &SteinerTree) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for n in tree.nodes() {
        for v in [n.point.x as u64, n.point.y as u64] {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h ^ tree.nodes().len() as u64
}

/// Appends `tree`'s hash to `hashes` and reports whether the pool already
/// holds a tree with the identical node embedding (first occurrence
/// wins, exactly like the pre-rewrite pairwise scan).
fn is_duplicate(tree: &SteinerTree, out: &[SteinerTree], hashes: &mut Vec<u64>) -> bool {
    let h = embedding_hash(tree);
    let duplicate = hashes.iter().zip(out).any(|(&hh, t)| {
        hh == h
            && t.nodes().len() == tree.nodes().len()
            && t.nodes()
                .iter()
                .zip(tree.nodes())
                .all(|(a, b)| a.point == b.point)
    });
    if !duplicate {
        hashes.push(h);
    }
    duplicate
}

/// Like [`candidates`], additionally exploring *alternate connection
/// topologies* — the paper's reconstruction fallback when the canonical
/// balanced-bipartition tree cannot be wired. All `(2n−3)!!` topologies
/// are ranked by embedded total length and the best `max_topologies`
/// contribute candidates (deduplicated). Falls back to [`candidates`]
/// for clusters of more than 6 sinks, where enumeration is infeasible.
///
/// # Panics
///
/// Same conditions as [`candidates`].
pub fn candidates_with_alternates(
    sinks: &[Point],
    obs: Option<&ObsMap>,
    config: CandidateConfig,
    max_topologies: usize,
) -> Vec<SteinerTree> {
    assert!(!sinks.is_empty(), "cluster needs at least one sink");
    if sinks.len() > 6 || max_topologies <= 1 {
        return candidates(sinks, obs, config);
    }
    let mut topos = crate::all_topologies(sinks.len());
    // Rank by canonical embedded length, cheapest first.
    let mut scored: Vec<(u64, usize)> = topos
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut b = DmeBuilder::new(sinks);
            if let Some(o) = obs {
                b = b.with_obstacles(o);
            }
            (b.embed(t).total_length(), i)
        })
        .collect();
    scored.sort();
    scored.truncate(max_topologies);
    let keep: Vec<usize> = scored.into_iter().map(|(_, i)| i).collect();
    let mut k = 0;
    topos.retain(|_| {
        let keep_it = keep.contains(&k);
        k += 1;
        keep_it
    });

    let mut out: Vec<SteinerTree> = Vec::new();
    let mut hashes: Vec<u64> = Vec::new();
    for topo in &topos {
        for policy in EmbedPolicy::ALL {
            if out.len() >= config.max_candidates {
                return out;
            }
            let mut builder = DmeBuilder::new(sinks)
                .with_policy(policy)
                .with_max_search_radius(config.max_search_radius);
            if let Some(o) = obs {
                builder = builder.with_obstacles(o);
            }
            let tree = builder.embed(topo);
            if !is_duplicate(&tree, &out, &mut hashes) {
                out.push(tree);
            }
        }
    }
    out
}

/// Pre-rewrite reference implementation of [`candidates`], retained for
/// the equivalence property tests (`tests/candidates_equivalence.rs`) —
/// the same pattern as `AStar::route_reference`. Deduplicates by the
/// quadratic all-pairs node-embedding scan the function shipped with;
/// the production kernel must return the identical candidate list.
#[doc(hidden)]
pub fn candidates_reference(
    sinks: &[Point],
    obs: Option<&ObsMap>,
    config: CandidateConfig,
) -> Vec<SteinerTree> {
    assert!(!sinks.is_empty(), "cluster needs at least one sink");
    assert!(config.max_candidates >= 1, "need at least one candidate");
    let topo = balanced_bipartition(sinks);

    let mut out: Vec<SteinerTree> = Vec::new();
    for policy in EmbedPolicy::ALL {
        if out.len() >= config.max_candidates {
            break;
        }
        let mut builder = DmeBuilder::new(sinks)
            .with_policy(policy)
            .with_max_search_radius(config.max_search_radius);
        if let Some(o) = obs {
            builder = builder.with_obstacles(o);
        }
        let tree = builder.embed(&topo);
        let duplicate = out.iter().any(|t| {
            t.nodes().len() == tree.nodes().len()
                && t.nodes()
                    .iter()
                    .zip(tree.nodes())
                    .all(|(a, b)| a.point == b.point)
        });
        if !duplicate {
            out.push(tree);
        }
    }
    out
}

/// Pre-rewrite reference implementation of [`candidates_with_alternates`];
/// see [`candidates_reference`].
#[doc(hidden)]
pub fn candidates_with_alternates_reference(
    sinks: &[Point],
    obs: Option<&ObsMap>,
    config: CandidateConfig,
    max_topologies: usize,
) -> Vec<SteinerTree> {
    assert!(!sinks.is_empty(), "cluster needs at least one sink");
    if sinks.len() > 6 || max_topologies <= 1 {
        return candidates_reference(sinks, obs, config);
    }
    let mut topos = crate::all_topologies(sinks.len());
    let mut scored: Vec<(u64, usize)> = topos
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut b = DmeBuilder::new(sinks);
            if let Some(o) = obs {
                b = b.with_obstacles(o);
            }
            (b.embed(t).total_length(), i)
        })
        .collect();
    scored.sort();
    scored.truncate(max_topologies);
    let keep: Vec<usize> = scored.into_iter().map(|(_, i)| i).collect();
    let mut k = 0;
    topos.retain(|_| {
        let keep_it = keep.contains(&k);
        k += 1;
        keep_it
    });

    let mut out: Vec<SteinerTree> = Vec::new();
    for topo in &topos {
        for policy in EmbedPolicy::ALL {
            if out.len() >= config.max_candidates {
                return out;
            }
            let mut builder = DmeBuilder::new(sinks)
                .with_policy(policy)
                .with_max_search_radius(config.max_search_radius);
            if let Some(o) = obs {
                builder = builder.with_obstacles(o);
            }
            let tree = builder.embed(topo);
            let duplicate = out.iter().any(|t| {
                t.nodes().len() == tree.nodes().len()
                    && t.nodes()
                        .iter()
                        .zip(tree.nodes())
                        .all(|(a, b)| a.point == b.point)
            });
            if !duplicate {
                out.push(tree);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacor_grid::Grid;

    #[test]
    fn at_least_one_candidate() {
        let sinks = vec![Point::new(1, 1), Point::new(9, 1)];
        let c = candidates(&sinks, None, CandidateConfig::default());
        assert!(!c.is_empty());
    }

    #[test]
    fn candidates_are_distinct() {
        let sinks = vec![
            Point::new(0, 0),
            Point::new(14, 0),
            Point::new(0, 14),
            Point::new(14, 14),
        ];
        let c = candidates(&sinks, None, CandidateConfig::default());
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                let same = c[i]
                    .nodes()
                    .iter()
                    .zip(c[j].nodes())
                    .all(|(a, b)| a.point == b.point);
                assert!(!same, "candidates {i} and {j} identical");
            }
        }
    }

    #[test]
    fn respects_max_candidates() {
        let sinks = vec![
            Point::new(0, 0),
            Point::new(14, 2),
            Point::new(2, 14),
            Point::new(12, 12),
        ];
        let c = candidates(
            &sinks,
            None,
            CandidateConfig {
                max_candidates: 2,
                ..CandidateConfig::default()
            },
        );
        assert!(c.len() <= 2);
    }

    #[test]
    fn all_candidates_have_small_mismatch_in_open_space() {
        let sinks = vec![
            Point::new(0, 0),
            Point::new(12, 0),
            Point::new(0, 12),
            Point::new(12, 12),
        ];
        for t in candidates(&sinks, None, CandidateConfig::default()) {
            // Perfectly symmetric cluster: every policy embeds mismatch 0
            // up to rounding.
            assert!(t.mismatch() <= 2, "mismatch {}", t.mismatch());
        }
    }

    #[test]
    fn obstacle_aware_candidates_avoid_blockage() {
        let sinks = vec![Point::new(0, 6), Point::new(12, 6)];
        let mut grid = Grid::new(20, 20).unwrap();
        for y in 4..9 {
            grid.set_obstacle(Point::new(6, y));
        }
        let obs = ObsMap::new(&grid);
        let c = candidates(&sinks, Some(&obs), CandidateConfig::default());
        for t in &c {
            assert!(!obs.is_blocked(t.root()), "root on obstacle");
        }
    }

    #[test]
    fn alternates_expand_the_pool() {
        let sinks = vec![
            Point::new(0, 0),
            Point::new(14, 2),
            Point::new(2, 14),
            Point::new(12, 12),
        ];
        let base = candidates(&sinks, None, CandidateConfig::default());
        let wide = candidates_with_alternates(
            &sinks,
            None,
            CandidateConfig {
                max_candidates: 24,
                ..CandidateConfig::default()
            },
            4,
        );
        assert!(wide.len() >= base.len(), "{} < {}", wide.len(), base.len());
        for t in &wide {
            assert_eq!(t.sink_count(), 4);
        }
    }

    #[test]
    fn alternates_fall_back_for_large_clusters() {
        let sinks: Vec<Point> = (0..8).map(|i| Point::new(i * 3, (i % 3) * 5)).collect();
        let a = candidates_with_alternates(&sinks, None, CandidateConfig::default(), 4);
        let b = candidates(&sinks, None, CandidateConfig::default());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn alternates_include_cheapest_topology_first() {
        // Collinear sinks: the chain topology is cheapest; alternates must
        // not produce a worse *best* candidate than the plain pool.
        let sinks = vec![Point::new(0, 0), Point::new(6, 0), Point::new(12, 0)];
        let base_best = candidates(&sinks, None, CandidateConfig::default())
            .iter()
            .map(|t| t.total_length())
            .min()
            .unwrap();
        let wide_best = candidates_with_alternates(&sinks, None, CandidateConfig::default(), 3)
            .iter()
            .map(|t| t.total_length())
            .min()
            .unwrap();
        assert!(wide_best <= base_best);
    }

    #[test]
    #[should_panic(expected = "at least one sink")]
    fn empty_sinks_panics() {
        candidates(&[], None, CandidateConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn zero_max_panics() {
        candidates(
            &[Point::new(0, 0)],
            None,
            CandidateConfig {
                max_candidates: 0,
                ..CandidateConfig::default()
            },
        );
    }
}
