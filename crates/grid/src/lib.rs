//! Geometry and routing-grid substrate for the PACOR reproduction.
//!
//! The control layer of a flow-based microfluidic biochip is routed on a
//! uniform grid whose pitch is derived from the minimum channel width and
//! spacing design rules (PACOR, Section 4.1). This crate provides:
//!
//! * [`Point`] / [`Rect`] — integer Manhattan geometry,
//! * [`Grid`] — the routing grid with cell states,
//! * [`ObsMap`] — the boolean obstacle map used by the negotiation router
//!   (Algorithm 1 of the paper), with checkpoint/rollback for rip-up,
//! * [`DesignRules`] — physical-to-grid conversion,
//! * [`GridPath`] — a routed channel segment with length accounting,
//! * the [`olcost`] bounding-box overlap cost of Eq. (4).
//!
//! # Examples
//!
//! ```
//! use pacor_grid::{Grid, Point};
//!
//! let mut grid = Grid::new(10, 10)?;
//! grid.set_obstacle(Point::new(3, 3));
//! assert!(grid.is_obstacle(Point::new(3, 3)));
//! assert_eq!(Point::new(0, 0).manhattan(Point::new(3, 4)), 7);
//! # Ok::<(), pacor_grid::GridError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod grid;
mod obsmap;
mod overlap;
mod path;
mod point;
mod rect;
mod rules;

pub use error::GridError;
pub use grid::{Cell, Grid};
pub use obsmap::ObsMap;
pub use overlap::{bbox_of_edge, olcost};
pub use path::GridPath;
pub use point::Point;
pub use rect::Rect;
pub use rules::DesignRules;

/// Length measured in routing-grid units (edges traversed).
///
/// The paper measures all channel lengths in grid units; the
/// length-matching threshold `δ` is expressed in the same unit.
pub type GridLen = u64;
