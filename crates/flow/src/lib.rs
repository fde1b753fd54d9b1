//! Minimum-cost flow and the PACOR escape-routing network.
//!
//! Section 5 of the paper formulates escape routing — connecting the
//! already-routed clusters to boundary control pins — as a minimum cost
//! flow problem whose objective `min Σ l·f − β Σ x` simultaneously
//! maximizes the number of routed connections and minimizes total channel
//! length. The paper solves the LP with Gurobi; this crate substitutes an
//! integral **successive-shortest-path** solver with Dijkstra and Johnson
//! potentials. On the escape network every node has unit capacity, the
//! constraint matrix is an (integral) network matrix, so the LP optimum is
//! attained at an integral point and the substitution is exact.
//!
//! * [`GridEscape`] — the escape solver the flow runs: the node-split
//!   network realizing constraints (6)–(12) of the paper, kept implicit
//!   in per-cell flag words and solved cold, plus flow-to-path
//!   extraction;
//! * [`EscapeNetwork`] — the same network built explicitly for the
//!   general [`MinCostFlow`] solver, kept as the reference that
//!   [`GridEscape`] must reproduce route for route.
//!
//! # Examples
//!
//! ```
//! use pacor_flow::MinCostFlow;
//!
//! let mut mcf = MinCostFlow::new(4);
//! let s = 0; let t = 3;
//! mcf.add_edge(s, 1, 1, 1);
//! mcf.add_edge(s, 2, 1, 2);
//! mcf.add_edge(1, t, 1, 1);
//! mcf.add_edge(2, t, 1, 2);
//! let result = mcf.solve(s, t, 2);
//! assert_eq!(result.flow, 2);
//! assert_eq!(result.cost, 6); // 1+1 via node 1, 2+2 via node 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod escape;
mod grid;
mod mcf;
mod queue;

pub use escape::{EscapeNetwork, EscapeOutcome, EscapeSource, SourceKind};
pub use grid::GridEscape;
pub use mcf::{EdgeId, FlowResult, MinCostFlow};
