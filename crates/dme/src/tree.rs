//! Embedded Steiner trees and their length bookkeeping.

use pacor_grid::{GridLen, Point};
use serde::{Deserialize, Serialize};

/// A node of an embedded Steiner tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeNode {
    /// Embedded grid position.
    pub point: Point,
    /// Parent node index (`None` for the root).
    pub parent: Option<usize>,
    /// Sink index when this node is a leaf (valve), `None` for internal
    /// merging nodes.
    pub sink: Option<usize>,
}

/// An embedded Steiner tree over a cluster of valves.
///
/// Produced by [`DmeBuilder::embed`](crate::DmeBuilder::embed). Stores the
/// merging-node positions and parent links; edge geometry stays abstract
/// (lengths are estimated by Manhattan distance until the negotiation
/// router wires the edges).
///
/// The *full path* of a sink (Definition 5 of the paper) is the sequence
/// of edges from the sink up to the root; [`SteinerTree::full_path_length`]
/// and [`SteinerTree::mismatch`] implement Eq. (1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SteinerTree {
    nodes: Vec<TreeNode>,
    root: usize,
    /// node index of each sink, by sink index.
    sink_nodes: Vec<usize>,
}

impl SteinerTree {
    /// Assembles a tree from parts.
    ///
    /// # Panics
    ///
    /// Panics when `root` or any parent/sink index is out of range, or
    /// when the root has a parent.
    pub fn new(nodes: Vec<TreeNode>, root: usize, sink_nodes: Vec<usize>) -> Self {
        assert!(root < nodes.len(), "root index out of range");
        assert!(nodes[root].parent.is_none(), "root must not have a parent");
        for n in &nodes {
            if let Some(p) = n.parent {
                assert!(p < nodes.len(), "parent index out of range");
            }
        }
        for &s in &sink_nodes {
            assert!(s < nodes.len(), "sink node index out of range");
        }
        Self {
            nodes,
            root,
            sink_nodes,
        }
    }

    /// The nodes of the tree.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Index of the root node.
    pub fn root_index(&self) -> usize {
        self.root
    }

    /// Position of the root (the escape-routing source for the cluster).
    pub fn root(&self) -> Point {
        self.nodes[self.root].point
    }

    /// Number of sinks (valves).
    pub fn sink_count(&self) -> usize {
        self.sink_nodes.len()
    }

    /// Node index of sink `i`.
    pub fn sink_node(&self, i: usize) -> usize {
        self.sink_nodes[i]
    }

    /// Position of sink `i`.
    pub fn sink_point(&self, i: usize) -> Point {
        self.nodes[self.sink_nodes[i]].point
    }

    /// All tree edges as `(child point, parent point)` pairs, in node
    /// order.
    pub fn edges(&self) -> Vec<(Point, Point)> {
        self.nodes
            .iter()
            .filter_map(|n| n.parent.map(|p| (n.point, self.nodes[p].point)))
            .collect()
    }

    /// Tree edges as `(child node index, parent node index)` pairs.
    pub fn edge_indices(&self) -> Vec<(usize, usize)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.parent.map(|p| (i, p)))
            .collect()
    }

    /// The node indices along sink `i`'s full path, from the sink to the
    /// root inclusive (Definition 5 / Definition 6 ordering).
    pub fn full_path_nodes(&self, sink: usize) -> Vec<usize> {
        let mut out = vec![self.sink_nodes[sink]];
        while let Some(p) = self.nodes[*out.last().expect("nonempty")].parent {
            out.push(p);
        }
        out
    }

    /// Estimated (Manhattan) length of sink `i`'s full path.
    pub fn full_path_length(&self, sink: usize) -> GridLen {
        let path = self.full_path_nodes(sink);
        path.windows(2)
            .map(|w| self.nodes[w[0]].point.manhattan(self.nodes[w[1]].point))
            .sum()
    }

    /// Length mismatch `ΔL = max(full paths) − min(full paths)` (Eq. 1).
    /// Zero for single-sink trees.
    pub fn mismatch(&self) -> GridLen {
        let lens: Vec<GridLen> = (0..self.sink_count())
            .map(|i| self.full_path_length(i))
            .collect();
        match (lens.iter().max(), lens.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// Total estimated wirelength (sum of Manhattan edge lengths).
    pub fn total_length(&self) -> GridLen {
        self.edges().iter().map(|(a, b)| a.manhattan(*b)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built tree:      root(5,5)
    ///                        /         \
    ///                   m(2,5)        s2(9,5)   <- sink 2 directly
    ///                  /      \
    ///             s0(0,3)   s1(0,7)
    fn sample() -> SteinerTree {
        let nodes = vec![
            TreeNode {
                point: Point::new(5, 5),
                parent: None,
                sink: None,
            },
            TreeNode {
                point: Point::new(2, 5),
                parent: Some(0),
                sink: None,
            },
            TreeNode {
                point: Point::new(0, 3),
                parent: Some(1),
                sink: Some(0),
            },
            TreeNode {
                point: Point::new(0, 7),
                parent: Some(1),
                sink: Some(1),
            },
            TreeNode {
                point: Point::new(9, 5),
                parent: Some(0),
                sink: Some(2),
            },
        ];
        SteinerTree::new(nodes, 0, vec![2, 3, 4])
    }

    #[test]
    fn full_paths() {
        let t = sample();
        assert_eq!(t.full_path_nodes(0), vec![2, 1, 0]);
        assert_eq!(t.full_path_length(0), 4 + 3);
        assert_eq!(t.full_path_length(1), 4 + 3);
        assert_eq!(t.full_path_length(2), 4);
    }

    #[test]
    fn mismatch_is_max_minus_min() {
        let t = sample();
        assert_eq!(t.mismatch(), 3);
    }

    #[test]
    fn edges_and_total_length() {
        let t = sample();
        assert_eq!(t.edges().len(), 4);
        assert_eq!(t.total_length(), 3 + 4 + 4 + 4);
    }

    #[test]
    fn root_accessors() {
        let t = sample();
        assert_eq!(t.root(), Point::new(5, 5));
        assert_eq!(t.root_index(), 0);
        assert_eq!(t.sink_count(), 3);
        assert_eq!(t.sink_point(1), Point::new(0, 7));
    }

    #[test]
    #[should_panic(expected = "root must not have a parent")]
    fn parented_root_panics() {
        let nodes = vec![TreeNode {
            point: Point::new(0, 0),
            parent: Some(0),
            sink: None,
        }];
        SteinerTree::new(nodes, 0, vec![]);
    }

    #[test]
    fn singleton_tree() {
        let nodes = vec![TreeNode {
            point: Point::new(4, 4),
            parent: None,
            sink: Some(0),
        }];
        let t = SteinerTree::new(nodes, 0, vec![0]);
        assert_eq!(t.mismatch(), 0);
        assert_eq!(t.total_length(), 0);
        assert_eq!(t.full_path_length(0), 0);
    }
}
