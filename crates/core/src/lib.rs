//! PACOR — practical control-layer routing flow with length-matching
//! constraint for flow-based microfluidic biochips.
//!
//! This crate is a from-scratch reproduction of the DAC 2015 paper by
//! Yao, Ho and Cai. Given valve positions, valve compatibility, clusters
//! with a length-matching threshold `δ`, candidate control pin positions
//! and design rules, PACOR computes control channel routing connecting
//! every valve to a control pin, minimizing total channel length while
//! routing as many clusters as possible with matched lengths.
//!
//! The flow (Fig. 2 of the paper) runs in six stages:
//!
//! 1. **Valve clustering** — max-clique partition of the compatibility
//!    graph ([`pacor_valves`]);
//! 2. **Length-matching cluster routing** — DME candidate Steiner trees
//!    ([`pacor_dme`]), MWCP selection ([`pacor_clique`]), negotiation
//!    routing ([`pacor_route`]);
//! 3. **MST-based cluster routing** for unconstrained clusters;
//! 4. **Escape routing** to control pins by min-cost flow
//!    ([`pacor_flow`]);
//! 5. **De-clustering & rip-up** on escape failures;
//! 6. **Path detouring** for length matching (Algorithm 2, minimum-length
//!    bounded routing).
//!
//! # Examples
//!
//! ```
//! use pacor::{BenchDesign, FlowConfig, PacorFlow};
//!
//! let problem = BenchDesign::S1.synthesize(42);
//! let report = PacorFlow::new(FlowConfig::default()).run(&problem)?;
//! assert_eq!(report.completion_rate(), 1.0);
//! println!("{report}");
//! # Ok::<(), pacor::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench_suite;
mod config;
mod detour;
mod digest;
mod error;
mod escape_stage;
mod flow;
mod lm_routing;
mod mst_routing;
mod physics;
mod problem;
mod render;
mod report;
mod routed;
mod verify;

pub use bench_suite::{
    synthesize_params, BenchDesign, DesignParams, FLOW_BENCH_CHIPS, FLOW_HUGE_CHIP, FLOW_SMOKE_CHIP,
};

/// Individual flow stages, exposed for advanced composition (custom
/// flows, ablations, stage-level benchmarking).
pub mod stages {
    pub use crate::escape_stage::{escape_all, EscapeStats};
    pub use crate::lm_routing::{reroute_lm_cluster, route_lm_clusters, LmOutcome};
    pub use crate::mst_routing::{route_mst_cluster, route_ordinary_clusters};
}

pub use config::{FlowConfig, FlowVariant};
pub use detour::detour_cluster;
pub use digest::{config_fingerprint, problem_hash, run_digest};
pub use error::FlowError;
pub use flow::PacorFlow;
pub use physics::PropagationModel;
pub use problem::{Problem, ProblemBuilder};
pub use render::{render_ascii, render_svg};
pub use report::{ClusterReport, FlowMetrics, RouteReport};
pub use routed::{RoutedCluster, RoutedKind};
pub use verify::{verify_layout, verify_layout_strict, Violation};

// Re-export the substrate crates so downstream users need only `pacor`.
pub use pacor_clique as clique;
pub use pacor_dme as dme;
pub use pacor_flow as netflow;
pub use pacor_grid as grid;
pub use pacor_obs as obs;
pub use pacor_route as route;
pub use pacor_valves as valves;
