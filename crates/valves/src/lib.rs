//! Valve model for the PACOR reproduction: activation sequences,
//! compatibility, and max-clique valve clustering.
//!
//! In flow-based biochips each microvalve is driven by a "0-1-X" sequence
//! over discrete time steps (Definition 1 of the paper). Two valves may
//! share a control pin only when their sequences are *compatible*
//! (Definitions 2–4), i.e. agree at every step up to don't-cares. Valve
//! clustering under the broadcast addressing scheme partitions the valves
//! into pairwise-compatible groups — a minimum clique cover of the
//! compatibility graph — to minimize the number of control pins.
//!
//! # Examples
//!
//! ```
//! use pacor_valves::{ActivationSequence, Valve, ValveId, ValveSet};
//! use pacor_grid::Point;
//!
//! let a: ActivationSequence = "01X".parse()?;
//! let b: ActivationSequence = "0XX".parse()?;
//! assert!(a.is_compatible(&b));
//!
//! let mut set = ValveSet::new();
//! set.insert(Valve::new(ValveId(0), Point::new(1, 1), a));
//! set.insert(Valve::new(ValveId(1), Point::new(5, 5), b));
//! let clusters = set.cluster_greedy(&[]);
//! assert_eq!(clusters.len(), 1); // compatible valves share one pin
//! # Ok::<(), pacor_valves::ParseSequenceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod compat;
mod sequence;
mod valve;

pub use cluster::{Cluster, ClusterId};
pub use compat::CompatGraph;
pub use sequence::{ActivationSequence, ActivationStatus, ParseSequenceError};
pub use valve::{Valve, ValveId, ValveSet};
