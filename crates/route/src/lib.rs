//! Grid routers for the PACOR reproduction.
//!
//! Three routing engines, matching Sections 3, 4.3 and 6 of the paper:
//!
//! * [`AStar`] — A\* search over the routing grid with point-to-point,
//!   point-to-path and path-to-path modes (multi-source / multi-target),
//!   used by the MST-based cluster routing;
//! * [`NegotiationRouter`] — Algorithm 1: iterative rip-up & reroute of a
//!   set of tree edges with PathFinder-style history costs
//!   (`Ch ← b + α·Ch`, Eq. 5) that progressively discourage congested
//!   cells;
//! * [`BoundedAStar`] — the minimum-length *bounded* router of Section 6:
//!   returns a self-avoiding path whose length is at least a prescribed
//!   lower bound (and as close above it as the search can achieve), used
//!   to detour short full paths for length matching.
//!
//! # Examples
//!
//! ```
//! use pacor_grid::{Grid, ObsMap, Point};
//! use pacor_route::AStar;
//!
//! let grid = Grid::new(8, 8)?;
//! let obs = ObsMap::new(&grid);
//! let path = AStar::new(&obs)
//!     .point_to_point(Point::new(0, 0), Point::new(5, 3))
//!     .expect("open grid always routes");
//! assert_eq!(path.len(), 8);
//! # Ok::<(), pacor_grid::GridError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod astar;
mod bounded;
mod history;
mod negotiation;
mod parallel;

pub use astar::{AStar, AStarScratch};
pub use bounded::BoundedAStar;
pub use history::HistoryCost;
pub use negotiation::{
    NegotiationOutcome, NegotiationRouter, NetOrdering, RipUpPolicy, RouteRequest,
};
pub use parallel::{effective_threads, parallel_map, parallel_map_with};
