//! Broadcast-addressing support: the merged driver sequence of a cluster
//! and pin-count accounting.
//!
//! Under the broadcast addressing scheme (paper Section 3, following
//! Minhass et al.'s control synthesis), every cluster of pairwise
//! compatible valves is driven by one control pin. The pressure source
//! behind that pin must emit a sequence compatible with *every* member —
//! the fold of [`ActivationSequence::unify`] over the cluster. This
//! module computes those driver sequences and the pin-count statistics
//! the clustering stage optimizes.

use crate::{ActivationSequence, Cluster, ValveSet};

/// The control-pin program for one cluster: the most specific activation
/// sequence compatible with every member valve.
///
/// # Examples
///
/// ```
/// use pacor_valves::{driver_sequence, Valve, ValveId, ValveSet};
/// use pacor_grid::Point;
///
/// let mut set = ValveSet::new();
/// set.insert(Valve::new(ValveId(0), Point::new(0, 0), "0X1".parse()?));
/// set.insert(Valve::new(ValveId(1), Point::new(1, 0), "X01".parse()?));
/// let clusters = set.cluster_greedy(&[]);
/// let driver = driver_sequence(&set, &clusters[0]).expect("compatible");
/// assert_eq!(driver.to_string(), "001");
/// # Ok::<(), pacor_valves::ParseSequenceError>(())
/// ```
pub fn driver_sequence(valves: &ValveSet, cluster: &Cluster) -> Option<ActivationSequence> {
    let mut iter = cluster.members().iter();
    let first = valves.get(*iter.next()?)?;
    let mut acc = first.sequence().clone();
    for id in iter {
        let v = valves.get(*id)?;
        acc = acc.unify(v.sequence())?;
    }
    Some(acc)
}

/// Pin-count statistics of a clustering — the quantity valve clustering
/// minimizes ("minimize the number of clusters so as to minimize the
/// number of control pins").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressingStats {
    /// Number of control pins needed (= number of clusters).
    pub pins: usize,
    /// Number of valves addressed.
    pub valves: usize,
    /// Largest cluster size.
    pub max_cluster: usize,
    /// Number of singleton clusters (valves with a private pin).
    pub singletons: usize,
}

impl AddressingStats {
    /// Computes the statistics for a clustering.
    pub fn of(clusters: &[Cluster]) -> Self {
        Self {
            pins: clusters.len(),
            valves: clusters.iter().map(Cluster::len).sum(),
            max_cluster: clusters.iter().map(Cluster::len).max().unwrap_or(0),
            singletons: clusters.iter().filter(|c| c.len() == 1).count(),
        }
    }

    /// Pin savings versus direct addressing (one pin per valve), in
    /// `[0, 1)`.
    pub fn pin_savings(&self) -> f64 {
        if self.valves == 0 {
            0.0
        } else {
            1.0 - self.pins as f64 / self.valves as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Valve, ValveId};
    use pacor_grid::Point;

    fn set(seqs: &[&str]) -> ValveSet {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| {
                Valve::new(
                    ValveId(i as u32),
                    Point::new(i as i32, 0),
                    s.parse().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn driver_is_most_specific() {
        let s = set(&["0XX", "X1X", "XX0"]);
        let clusters = s.cluster_greedy(&[]);
        assert_eq!(clusters.len(), 1);
        let d = driver_sequence(&s, &clusters[0]).unwrap();
        assert_eq!(d.to_string(), "010");
    }

    #[test]
    fn driver_of_singleton_is_its_sequence() {
        let s = set(&["01X"]);
        let clusters = s.cluster_greedy(&[]);
        let d = driver_sequence(&s, &clusters[0]).unwrap();
        assert_eq!(d.to_string(), "01X");
    }

    #[test]
    fn driver_compatible_with_every_member() {
        let s = set(&["0XX1", "X0X1", "00XX"]);
        let clusters = s.cluster_greedy(&[]);
        for c in &clusters {
            let d = driver_sequence(&s, c).unwrap();
            for m in c.members() {
                assert!(d.is_compatible(s.get(*m).unwrap().sequence()));
            }
        }
    }

    #[test]
    fn driver_none_for_unknown_member() {
        use crate::ClusterId;
        let s = set(&["0"]);
        let c = Cluster::new(ClusterId(0), vec![ValveId(9)], false);
        assert!(driver_sequence(&s, &c).is_none());
    }

    #[test]
    fn stats_basic() {
        let s = set(&["0X", "X0", "11", "1X"]);
        let clusters = s.cluster_greedy(&[]);
        let stats = AddressingStats::of(&clusters);
        assert_eq!(stats.valves, 4);
        assert_eq!(stats.pins, clusters.len());
        assert!(stats.pins < 4, "compatible valves must share pins");
        assert!(stats.pin_savings() > 0.0);
        assert!(stats.max_cluster >= 2);
    }

    #[test]
    fn stats_empty() {
        let stats = AddressingStats::of(&[]);
        assert_eq!(stats.pins, 0);
        assert_eq!(stats.pin_savings(), 0.0);
        assert_eq!(stats.max_cluster, 0);
    }
}
