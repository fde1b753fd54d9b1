//! Balanced-bipartition connection topology (Section 4.1).
//!
//! The paper adopts the balanced bipartition (BB) approach of the DME
//! clock-routing work: recursively bipartition the sink set into two
//! subsets of (near-)equal cardinality minimizing the sum of subset
//! diameters. With unit sink capacitances this yields a balanced binary
//! tree.

use pacor_grid::Point;

/// A connection topology over sink indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// A sink, by index into the sink list.
    Leaf(usize),
    /// An internal merge of two subtrees.
    Internal(Box<Topology>, Box<Topology>),
}

impl Topology {
    /// Number of sinks in the subtree.
    pub fn sink_count(&self) -> usize {
        match self {
            Topology::Leaf(_) => 1,
            Topology::Internal(a, b) => a.sink_count() + b.sink_count(),
        }
    }

    /// Depth of the topology (a leaf has depth 0).
    pub fn depth(&self) -> usize {
        match self {
            Topology::Leaf(_) => 0,
            Topology::Internal(a, b) => 1 + a.depth().max(b.depth()),
        }
    }

    /// Sink indices in left-to-right order.
    pub fn sinks(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_sinks(&mut out);
        out
    }

    fn collect_sinks(&self, out: &mut Vec<usize>) {
        match self {
            Topology::Leaf(i) => out.push(*i),
            Topology::Internal(a, b) => {
                a.collect_sinks(out);
                b.collect_sinks(out);
            }
        }
    }
}

/// Manhattan diameter of a point set (max pairwise distance).
fn diameter(points: &[Point]) -> u64 {
    let mut d = 0;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            d = d.max(points[i].manhattan(points[j]));
        }
    }
    d
}

/// Computes the balanced-bipartition topology for `sinks`.
///
/// Splits are balanced (`⌊n/2⌋` / `⌈n/2⌉`). For subsets of up to 12
/// points every balanced split is enumerated and the one with minimum
/// diameter sum chosen; larger subsets are split at the median of the
/// longer bounding-box axis (the standard geometric BB heuristic), which
/// keeps the construction `O(n log² n)`.
///
/// # Panics
///
/// Panics on an empty sink list.
pub fn balanced_bipartition(sinks: &[Point]) -> Topology {
    assert!(!sinks.is_empty(), "topology needs at least one sink");
    let idx: Vec<usize> = (0..sinks.len()).collect();
    bb(sinks, &idx)
}

fn bb(sinks: &[Point], subset: &[usize]) -> Topology {
    match subset.len() {
        1 => Topology::Leaf(subset[0]),
        2 => Topology::Internal(
            Box::new(Topology::Leaf(subset[0])),
            Box::new(Topology::Leaf(subset[1])),
        ),
        n if n <= 12 => {
            let (left, right) = best_balanced_split(sinks, subset);
            Topology::Internal(Box::new(bb(sinks, &left)), Box::new(bb(sinks, &right)))
        }
        _ => {
            let (left, right) = median_split(sinks, subset);
            Topology::Internal(Box::new(bb(sinks, &left)), Box::new(bb(sinks, &right)))
        }
    }
}

/// Enumerates *every* distinct connection topology over `n` sinks — all
/// unordered full binary trees with labeled leaves, `(2n−3)!!` of them.
///
/// This powers the paper's failure fallback "the DME tree needs to be
/// reconstructed": when the balanced-bipartition topology cannot be
/// wired, alternative merge orders often can. Exponential, so `n` is
/// capped at 6 (15 topologies for n = 4, 105 for n = 5, 945 for n = 6).
///
/// # Panics
///
/// Panics when `n == 0` or `n > 6`.
///
/// # Examples
///
/// ```
/// use pacor_dme::all_topologies;
///
/// assert_eq!(all_topologies(2).len(), 1);
/// assert_eq!(all_topologies(3).len(), 3);
/// assert_eq!(all_topologies(4).len(), 15);
/// ```
pub fn all_topologies(n: usize) -> Vec<Topology> {
    assert!(n >= 1, "need at least one sink");
    assert!(n <= 6, "topology enumeration is (2n-3)!!; capped at n = 6");
    let idx: Vec<usize> = (0..n).collect();
    enumerate(&idx)
}

fn enumerate(subset: &[usize]) -> Vec<Topology> {
    if subset.len() == 1 {
        return vec![Topology::Leaf(subset[0])];
    }
    let mut out = Vec::new();
    // Keep subset[0] on the left to kill mirror duplicates; enumerate
    // every split of the remaining elements.
    let rest = &subset[1..];
    let m = rest.len();
    for mask in 0u32..(1 << m) {
        let mut left = vec![subset[0]];
        let mut right = Vec::new();
        for (k, &s) in rest.iter().enumerate() {
            if mask & (1 << k) != 0 {
                left.push(s);
            } else {
                right.push(s);
            }
        }
        if right.is_empty() {
            continue;
        }
        for l in enumerate(&left) {
            for r in enumerate(&right) {
                out.push(Topology::Internal(Box::new(l.clone()), Box::new(r.clone())));
            }
        }
    }
    out
}

/// Exhaustive minimum-diameter-sum balanced split (n ≤ 12).
fn best_balanced_split(sinks: &[Point], subset: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = subset.len();
    let half = n / 2;
    let mut best: Option<(u64, Vec<usize>, Vec<usize>)> = None;
    // Fix element 0 on the left to halve the symmetric search space.
    for mask in 0u32..(1 << (n - 1)) {
        let mut left = vec![subset[0]];
        let mut right = Vec::new();
        for (k, &s) in subset.iter().enumerate().skip(1) {
            if mask & (1 << (k - 1)) != 0 {
                left.push(s);
            } else {
                right.push(s);
            }
        }
        if left.len() != half && left.len() != n - half {
            continue;
        }
        let pts = |ids: &[usize]| ids.iter().map(|&i| sinks[i]).collect::<Vec<_>>();
        let cost = diameter(&pts(&left)) + diameter(&pts(&right));
        if best.as_ref().map(|(c, _, _)| cost < *c).unwrap_or(true) {
            best = Some((cost, left, right));
        }
    }
    let (_, l, r) = best.expect("some balanced split exists");
    (l, r)
}

/// Median split along the longer bounding-box axis.
fn median_split(sinks: &[Point], subset: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let xs: Vec<i32> = subset.iter().map(|&i| sinks[i].x).collect();
    let ys: Vec<i32> = subset.iter().map(|&i| sinks[i].y).collect();
    let span_x = xs.iter().max().unwrap() - xs.iter().min().unwrap();
    let span_y = ys.iter().max().unwrap() - ys.iter().min().unwrap();
    let mut order: Vec<usize> = subset.to_vec();
    if span_x >= span_y {
        order.sort_by_key(|&i| (sinks[i].x, sinks[i].y, i));
    } else {
        order.sort_by_key(|&i| (sinks[i].y, sinks[i].x, i));
    }
    let half = order.len() / 2;
    let right = order.split_off(half);
    (order, right)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one sink")]
    fn empty_panics() {
        balanced_bipartition(&[]);
    }

    #[test]
    fn single_sink_is_leaf() {
        let t = balanced_bipartition(&[Point::new(3, 3)]);
        assert_eq!(t, Topology::Leaf(0));
        assert_eq!(t.sink_count(), 1);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn pair_is_one_merge() {
        let t = balanced_bipartition(&[Point::new(0, 0), Point::new(5, 5)]);
        assert_eq!(t.sink_count(), 2);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn four_sinks_balanced_tree() {
        let sinks = vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(10, 10),
            Point::new(11, 10),
        ];
        let t = balanced_bipartition(&sinks);
        assert_eq!(t.depth(), 2);
        // Near pairs should group: {0,1} and {2,3}.
        if let Topology::Internal(a, b) = &t {
            let mut ga = a.sinks();
            let mut gb = b.sinks();
            ga.sort();
            gb.sort();
            let groups = [ga, gb];
            assert!(groups.contains(&vec![0, 1]));
            assert!(groups.contains(&vec![2, 3]));
        } else {
            panic!("expected internal root");
        }
    }

    #[test]
    fn all_sinks_covered_exactly_once() {
        let sinks: Vec<Point> = (0..9).map(|i| Point::new(i * 3 % 7, i)).collect();
        let t = balanced_bipartition(&sinks);
        let mut s = t.sinks();
        s.sort();
        assert_eq!(s, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn even_count_is_perfectly_balanced() {
        let sinks: Vec<Point> = (0..8).map(|i| Point::new(i, i * 2 % 5)).collect();
        let t = balanced_bipartition(&sinks);
        if let Topology::Internal(a, b) = &t {
            assert_eq!(a.sink_count(), 4);
            assert_eq!(b.sink_count(), 4);
        } else {
            panic!("expected internal root");
        }
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn large_set_uses_median_split() {
        let sinks: Vec<Point> = (0..40).map(|i| Point::new(i % 8, i / 8)).collect();
        let t = balanced_bipartition(&sinks);
        assert_eq!(t.sink_count(), 40);
        if let Topology::Internal(a, b) = &t {
            assert_eq!(a.sink_count(), 20);
            assert_eq!(b.sink_count(), 20);
        }
    }

    #[test]
    fn all_topologies_counts_match_double_factorial() {
        // (2n-3)!! = 1, 1, 3, 15, 105, 945 for n = 1..6.
        for (n, count) in [
            (1usize, 1usize),
            (2, 1),
            (3, 3),
            (4, 15),
            (5, 105),
            (6, 945),
        ] {
            assert_eq!(all_topologies(n).len(), count, "n = {n}");
        }
    }

    #[test]
    fn all_topologies_are_distinct_and_cover_sinks() {
        let topos = all_topologies(4);
        for t in &topos {
            let mut s = t.sinks();
            s.sort();
            assert_eq!(s, vec![0, 1, 2, 3]);
        }
        // Structural distinctness via debug form.
        let mut forms: Vec<String> = topos.iter().map(|t| format!("{t:?}")).collect();
        forms.sort();
        forms.dedup();
        assert_eq!(forms.len(), topos.len());
    }

    #[test]
    #[should_panic(expected = "capped at n = 6")]
    fn all_topologies_rejects_large_n() {
        all_topologies(7);
    }

    #[test]
    fn bb_topology_is_among_all_topologies() {
        let sinks: Vec<Point> = vec![
            Point::new(0, 0),
            Point::new(9, 1),
            Point::new(2, 8),
            Point::new(7, 7),
        ];
        let bb = balanced_bipartition(&sinks);
        let all = all_topologies(4);
        // Compare by unordered structure: the sink multiset per internal
        // node; cheap proxy — debug form after canonicalization is
        // overkill, so check that *some* enumerated topology yields the
        // same sorted leaf order under the same recursive splits.
        assert!(all.iter().any(|t| topo_eq(t, &bb)));
    }

    /// Unordered structural equality of topologies.
    fn topo_eq(a: &Topology, b: &Topology) -> bool {
        match (a, b) {
            (Topology::Leaf(x), Topology::Leaf(y)) => x == y,
            (Topology::Internal(al, ar), Topology::Internal(bl, br)) => {
                (topo_eq(al, bl) && topo_eq(ar, br)) || (topo_eq(al, br) && topo_eq(ar, bl))
            }
            _ => false,
        }
    }

    #[test]
    fn diameter_sum_beats_naive_split_on_clusters() {
        // Two tight clusters far apart; exhaustive BB must not mix them.
        let sinks = vec![
            Point::new(0, 0),
            Point::new(0, 1),
            Point::new(1, 0),
            Point::new(50, 50),
            Point::new(50, 51),
            Point::new(51, 50),
        ];
        let t = balanced_bipartition(&sinks);
        if let Topology::Internal(a, b) = &t {
            let mut ga = a.sinks();
            ga.sort();
            let mut gb = b.sinks();
            gb.sort();
            let groups = [ga, gb];
            assert!(groups.contains(&vec![0, 1, 2]));
            assert!(groups.contains(&vec![3, 4, 5]));
        }
    }
}
