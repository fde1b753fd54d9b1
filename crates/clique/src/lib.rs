//! Maximum weight clique solvers for the PACOR reproduction.
//!
//! PACOR selects one candidate Steiner tree per cluster by formulating a
//! maximum weight clique problem (MWCP, Section 4.2): each candidate tree
//! becomes a node weighted by its length-mismatch cost (Eq. 2), and each
//! pair of trees from *different* clusters gets an edge weighted by their
//! overlap cost (Eq. 3). Because same-cluster candidates share no edge, a
//! clique picks at most one tree per cluster; the maximum weight clique is
//! the selection.
//!
//! The paper solves the MWCP with a Gurobi ILP. This crate substitutes a
//! bitset **branch-and-bound** solver, seeded by a greedy clique, plus a
//! tabu local search for instances wider than its 128-node masks.
//! [`select_one_per_group`] first splits a selection into the connected
//! components of its pair-cost graph, which keeps each search small: on
//! the paper's designs it returns the optimum the ILP would. A search
//! that exceeds [`NODE_BUDGET`] nodes stops and keeps its best clique, so
//! one dense component degrades the selection instead of stalling it.
//!
//! # Examples
//!
//! ```
//! use pacor_clique::{select_one_per_group, SelectionInstance};
//!
//! // Two clusters with two candidate trees each; candidate 0 of both
//! // is the better-matched tree, but those two trees overlap.
//! let mut inst = SelectionInstance::new(vec![vec![0.0, -0.4], vec![0.0, -0.2]]);
//! inst.add_pair_cost((0, 0), (1, 0), -1.0);
//! let sel = select_one_per_group(&inst);
//! assert_eq!(sel.picks, vec![0, 1]); // -0.2 beats -0.4 and -1.0
//! assert_eq!(sel.budget_hits, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod graph;
mod greedy;
mod local_search;
mod selection;

pub use bitset::{BitBranchAndBound, BitSearch, NODE_BUDGET};
pub use graph::{CliqueSolution, WeightedGraph};
pub use greedy::Greedy;
pub use local_search::TabuLocalSearch;
pub use selection::{select_one_per_group, GroupSelection, PairCost, SelectionInstance};
