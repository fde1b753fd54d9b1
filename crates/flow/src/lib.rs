//! The PACOR escape-routing network and its grid-native solver.
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
//! [`GridEscape`] solves the node-split network realizing constraints
//! (6)–(12) of the paper, kept implicit in per-cell flag words and
//! solved cold, and extracts one path per routed source. Its tests
//! check every outcome against the min-cost-flow optimality conditions
//! on an explicitly rebuilt network.
//!
//! # Examples
//!
//! ```
//! use pacor_flow::{EscapeSource, GridEscape, SourceKind};
//! use pacor_grid::{Grid, ObsMap, Point};
//!
//! let obs = ObsMap::new(&Grid::new(9, 9).unwrap());
//! let sources = [EscapeSource::at(SourceKind::SingleValve, Point::new(4, 4))];
//! let pins = [Point::new(0, 4), Point::new(8, 8)];
//! let out = GridEscape::new().solve(&obs, &sources, &pins);
//! assert_eq!(out.routed, 1);
//! let (path, pin) = out.routes[0].as_ref().unwrap();
//! assert_eq!(*pin, Point::new(0, 4)); // the nearer pin
//! assert_eq!(path.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod certificate;
mod escape;
mod grid;
mod queue;

pub use escape::{EscapeOutcome, EscapeSource, SourceKind};
pub use grid::GridEscape;
