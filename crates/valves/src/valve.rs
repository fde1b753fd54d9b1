//! Valves and valve sets.

use crate::{ActivationSequence, Cluster, ClusterId, CompatGraph};
use pacor_grid::Point;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a valve, dense from 0 within one design.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ValveId(pub u32);

impl fmt::Display for ValveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A microvalve on the control layer: position plus activation sequence.
///
/// # Examples
///
/// ```
/// use pacor_valves::{Valve, ValveId};
/// use pacor_grid::Point;
///
/// let v = Valve::new(ValveId(3), Point::new(10, 4), "0X1".parse()?);
/// assert_eq!(v.id(), ValveId(3));
/// assert_eq!(v.position(), Point::new(10, 4));
/// # Ok::<(), pacor_valves::ParseSequenceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Valve {
    id: ValveId,
    position: Point,
    sequence: ActivationSequence,
}

impl Valve {
    /// Creates a valve.
    pub fn new(id: ValveId, position: Point, sequence: ActivationSequence) -> Self {
        Self {
            id,
            position,
            sequence,
        }
    }

    /// The valve identifier.
    #[inline]
    pub fn id(&self) -> ValveId {
        self.id
    }

    /// Grid position of the valve (its control-channel terminal).
    #[inline]
    pub fn position(&self) -> Point {
        self.position
    }

    /// The activation sequence driving this valve.
    #[inline]
    pub fn sequence(&self) -> &ActivationSequence {
        &self.sequence
    }

    /// Compatibility per Definition 4.
    pub fn is_compatible(&self, other: &Valve) -> bool {
        self.sequence.is_compatible(&other.sequence)
    }
}

/// The set of all valves in a design, indexed by [`ValveId`].
///
/// Valve ids must be dense (`0..n`) — [`ValveSet::insert`] keeps the
/// backing vector sorted by id and `get` is O(1).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ValveSet {
    valves: Vec<Valve>,
}

impl ValveSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of valves.
    #[inline]
    pub fn len(&self) -> usize {
        self.valves.len()
    }

    /// Returns `true` when the set has no valves.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.valves.is_empty()
    }

    /// Inserts a valve, replacing any valve with the same id.
    pub fn insert(&mut self, valve: Valve) {
        match self.valves.binary_search_by_key(&valve.id, |v| v.id) {
            Ok(i) => self.valves[i] = valve,
            Err(i) => self.valves.insert(i, valve),
        }
    }

    /// Looks up a valve by id.
    pub fn get(&self, id: ValveId) -> Option<&Valve> {
        self.valves
            .binary_search_by_key(&id, |v| v.id)
            .ok()
            .map(|i| &self.valves[i])
    }

    /// Iterates over valves in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, Valve> {
        self.valves.iter()
    }

    /// Builds the pairwise compatibility graph (Definition 4) over the set.
    pub fn compat_graph(&self) -> CompatGraph {
        CompatGraph::from_valves(&self.valves)
    }

    /// Greedy minimum-clique-cover clustering (paper Section 3, "a fast
    /// heuristic algorithm is used to compute the clusters").
    ///
    /// `pinned` clusters — the length-matching clusters given in the
    /// problem input — are kept atomic: their valves are removed from the
    /// free pool and re-emitted as-is, flagged with the length-matching
    /// constraint.
    ///
    /// The heuristic is largest-first sequential coloring on the
    /// *complement* graph: valves are sorted by ascending don't-care count
    /// (most constrained first) and each valve joins the first existing
    /// cluster it is compatible with (checking pairwise compatibility with
    /// every member), else founds a new cluster.
    ///
    /// # Panics
    ///
    /// Panics if a `pinned` cluster references an unknown valve id, or if
    /// a pinned cluster is not pairwise compatible (the paper requires the
    /// length-matching constraint to conform with compatibility).
    pub fn cluster_greedy(&self, pinned: &[Vec<ValveId>]) -> Vec<Cluster> {
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut pinned_members: Vec<ValveId> = Vec::new();

        for (k, ids) in pinned.iter().enumerate() {
            let members: Vec<&Valve> = ids
                .iter()
                .map(|id| {
                    self.get(*id)
                        .expect("pinned cluster references unknown valve")
                })
                .collect();
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    assert!(
                        members[i].is_compatible(members[j]),
                        "pinned length-matching cluster {k} contains incompatible valves {} and {}",
                        members[i].id(),
                        members[j].id()
                    );
                }
            }
            pinned_members.extend(ids.iter().copied());
            clusters.push(Cluster::new(
                ClusterId(clusters.len() as u32),
                ids.clone(),
                true,
            ));
        }

        // Free valves, most constrained (fewest don't-cares) first; ties by
        // id for determinism.
        let mut free: Vec<&Valve> = self
            .valves
            .iter()
            .filter(|v| !pinned_members.contains(&v.id))
            .collect();
        free.sort_by_key(|v| (v.sequence().dont_care_count(), v.id()));

        let first_free = clusters.len();
        for v in free {
            let mut placed = false;
            for c in clusters[first_free..].iter_mut() {
                let all_ok = c
                    .members()
                    .iter()
                    .all(|m| self.get(*m).map(|mv| mv.is_compatible(v)).unwrap_or(false));
                if all_ok {
                    c.push(v.id());
                    placed = true;
                    break;
                }
            }
            if !placed {
                clusters.push(Cluster::new(
                    ClusterId(clusters.len() as u32),
                    vec![v.id()],
                    false,
                ));
            }
        }
        clusters
    }

    /// Exact minimum clique cover by exhaustive search over set
    /// partitions with branch-and-bound; exponential, intended for
    /// validating the greedy heuristic on small inputs (≤ ~14 valves).
    ///
    /// Returns the minimum number of pairwise-compatible clusters needed
    /// to cover all valves (ignoring pinned clusters).
    pub fn min_clique_cover_exact(&self) -> usize {
        let n = self.valves.len();
        if n == 0 {
            return 0;
        }
        assert!(
            n <= 20,
            "exact clique cover is exponential; use ≤ 20 valves"
        );
        let compat: Vec<Vec<bool>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| self.valves[i].is_compatible(&self.valves[j]))
                    .collect()
            })
            .collect();
        let mut best = self.cluster_greedy(&[]).len();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        fn rec(
            i: usize,
            n: usize,
            compat: &[Vec<bool>],
            groups: &mut Vec<Vec<usize>>,
            best: &mut usize,
        ) {
            if groups.len() >= *best {
                return; // cannot improve
            }
            if i == n {
                *best = groups.len();
                return;
            }
            for g in 0..groups.len() {
                if groups[g].iter().all(|&m| compat[m][i]) {
                    groups[g].push(i);
                    rec(i + 1, n, compat, groups, best);
                    groups[g].pop();
                }
            }
            groups.push(vec![i]);
            rec(i + 1, n, compat, groups, best);
            groups.pop();
        }
        rec(0, n, &compat, &mut groups, &mut best);
        best
    }
}

impl FromIterator<Valve> for ValveSet {
    fn from_iter<I: IntoIterator<Item = Valve>>(iter: I) -> Self {
        let mut set = ValveSet::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

impl Extend<Valve> for ValveSet {
    fn extend<I: IntoIterator<Item = Valve>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a ValveSet {
    type Item = &'a Valve;
    type IntoIter = std::slice::Iter<'a, Valve>;

    fn into_iter(self) -> Self::IntoIter {
        self.valves.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valve(id: u32, seq: &str) -> Valve {
        Valve::new(
            ValveId(id),
            Point::new(id as i32, 0),
            seq.parse().expect("valid sequence"),
        )
    }

    fn set(seqs: &[&str]) -> ValveSet {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| valve(i as u32, s))
            .collect()
    }

    #[test]
    fn insert_get_replace() {
        let mut s = ValveSet::new();
        s.insert(valve(2, "01"));
        s.insert(valve(0, "0X"));
        s.insert(valve(2, "11"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(ValveId(2)).unwrap().sequence().to_string(), "11");
        assert!(s.get(ValveId(5)).is_none());
    }

    #[test]
    fn iter_is_id_ordered() {
        let mut s = ValveSet::new();
        for id in [5, 1, 3, 0] {
            s.insert(valve(id, "X"));
        }
        let ids: Vec<_> = s.iter().map(|v| v.id().0).collect();
        assert_eq!(ids, vec![0, 1, 3, 5]);
    }

    #[test]
    fn greedy_merges_compatible() {
        let s = set(&["01X", "0XX", "X1X"]);
        let clusters = s.cluster_greedy(&[]);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].members().len(), 3);
    }

    #[test]
    fn greedy_separates_incompatible() {
        let s = set(&["000", "111"]);
        let clusters = s.cluster_greedy(&[]);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn greedy_covers_all_valves_exactly_once() {
        let s = set(&["01X", "10X", "0XX", "X0X", "111", "X11"]);
        let clusters = s.cluster_greedy(&[]);
        let mut seen: Vec<ValveId> = clusters.iter().flat_map(|c| c.members().to_vec()).collect();
        seen.sort();
        let expected: Vec<_> = (0..6).map(ValveId).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn greedy_clusters_are_pairwise_compatible() {
        let s = set(&["01X", "0X1", "X11", "00X", "1XX", "X1X"]);
        for c in s.cluster_greedy(&[]) {
            let ms = c.members();
            for i in 0..ms.len() {
                for j in (i + 1)..ms.len() {
                    assert!(s.get(ms[i]).unwrap().is_compatible(s.get(ms[j]).unwrap()));
                }
            }
        }
    }

    #[test]
    fn pinned_clusters_stay_atomic() {
        let s = set(&["0XX", "X0X", "XX0", "111"]);
        let clusters = s.cluster_greedy(&[vec![ValveId(0), ValveId(1)]]);
        assert!(clusters[0].is_length_matched());
        assert_eq!(clusters[0].members(), &[ValveId(0), ValveId(1)]);
        // Valve 2 is compatible with 0 and 1 but must not join the pinned
        // cluster; it forms/joins a free cluster.
        assert!(clusters[1..]
            .iter()
            .any(|c| c.members().contains(&ValveId(2))));
    }

    #[test]
    #[should_panic(expected = "incompatible valves")]
    fn pinned_incompatible_panics() {
        let s = set(&["000", "111"]);
        s.cluster_greedy(&[vec![ValveId(0), ValveId(1)]]);
    }

    #[test]
    fn exact_cover_matches_greedy_on_easy_cases() {
        let s = set(&["0X", "X0", "11"]);
        assert_eq!(s.min_clique_cover_exact(), 2);
        let g = s.cluster_greedy(&[]).len();
        assert!(g >= 2);
    }

    #[test]
    fn exact_cover_beats_or_ties_greedy() {
        // A case engineered so greedy may be suboptimal but exact is 2:
        // {0:"0X1", 1:"01X"} merge, {2:"1X0", 3:"10X"} merge.
        let s = set(&["0X1", "01X", "1X0", "10X"]);
        let exact = s.min_clique_cover_exact();
        let greedy = s.cluster_greedy(&[]).len();
        assert!(exact <= greedy);
        assert_eq!(exact, 2);
    }

    #[test]
    fn empty_set_clusters_empty() {
        let s = ValveSet::new();
        assert!(s.cluster_greedy(&[]).is_empty());
        assert_eq!(s.min_clique_cover_exact(), 0);
    }
}
