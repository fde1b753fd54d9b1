//! Flow configuration and self-comparison variants.

use pacor_route::RipUpPolicy;
use serde::{Deserialize, Serialize};

/// Which version of the flow to run — the paper's Table 2 compares three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FlowVariant {
    /// The full PACOR flow (candidate selection + final-stage detouring).
    #[default]
    Pacor,
    /// "w/o Sel": skip the MWCP candidate Steiner tree selection and take
    /// the first (canonical) candidate for every cluster.
    WithoutSelection,
    /// "Detour First": detour for length matching immediately after the
    /// negotiation-based routing, before escape routing.
    DetourFirst,
}

impl FlowVariant {
    /// All three variants, in the paper's column order.
    pub const ALL: [FlowVariant; 3] = [
        FlowVariant::WithoutSelection,
        FlowVariant::DetourFirst,
        FlowVariant::Pacor,
    ];

    /// The paper's column label.
    pub fn label(self) -> &'static str {
        match self {
            FlowVariant::Pacor => "PACOR",
            FlowVariant::WithoutSelection => "w/o Sel",
            FlowVariant::DetourFirst => "Detour First",
        }
    }

    /// Parses a CLI-style name (`pacor` / `wo-sel` / `detour-first`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pacor" => Some(FlowVariant::Pacor),
            "wo-sel" => Some(FlowVariant::WithoutSelection),
            "detour-first" => Some(FlowVariant::DetourFirst),
            _ => None,
        }
    }
}

/// How the flow traverses the chip: one flat pass, or a hierarchical
/// global-then-detailed split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RoutingMode {
    /// One detailed pass over the whole chip (the paper's flow).
    #[default]
    Flat,
    /// Coarsen the chip into capacity-tracked gcells, assign each
    /// cluster a congestion-aware corridor, then run the detailed flow
    /// per vertical region stripe — deterministically in parallel —
    /// and stitch cross-region clusters in a final repair pass.
    Hierarchical,
}

impl RoutingMode {
    /// Parses a CLI-style name (`flat` / `hierarchical`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "flat" => Some(RoutingMode::Flat),
            "hierarchical" => Some(RoutingMode::Hierarchical),
            _ => None,
        }
    }

    /// The CLI-facing name.
    pub fn label(self) -> &'static str {
        match self {
            RoutingMode::Flat => "flat",
            RoutingMode::Hierarchical => "hierarchical",
        }
    }
}

/// Tunable parameters of the flow, defaulting to the paper's values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Flow variant to run.
    pub variant: FlowVariant,
    /// Mismatch-vs-overlap weighting λ in Eqs. (2)/(3); paper: 0.1.
    pub lambda: f64,
    /// Negotiation iteration threshold γ (Algorithm 1); paper: 10.
    pub gamma: u32,
    /// History base cost `b`; paper: 1.0.
    pub history_base: f64,
    /// History decay α (Eq. 5); paper: 0.1.
    pub history_alpha: f64,
    /// Detouring iteration threshold θ (Algorithm 2); paper: 10.
    pub theta: u32,
    /// Maximum escape-routing rip-up / de-clustering rounds.
    pub max_ripup_rounds: u32,
    /// Candidate Steiner trees per cluster.
    pub max_candidates: usize,
    /// DFS node budget per exact-length attempt in the bounded router.
    pub detour_node_budget: u64,
    /// Worker threads for the data-parallel stages (DME candidate
    /// generation, MWCP pair scoring). Results are merged in fixed
    /// cluster order, so any value yields bit-identical routing; 1
    /// disables the fan-out entirely.
    pub thread_count: usize,
    /// What negotiation rips up between failed rounds. `Incremental`
    /// (the default) keeps converged paths; `Full` is the paper's
    /// Algorithm 1 verbatim, kept for ablation.
    pub ripup_policy: RipUpPolicy,
    /// Flight-recorder event-ring capacity (oldest events dropped on
    /// overflow). Only read when a recorder is installed.
    pub recorder_capacity: usize,
    /// Negotiation rounds between flight-recorder congestion snapshots
    /// (round 1 and final rounds are always captured).
    pub recorder_cadence: u32,
    /// Flat single-pass routing (the default) or the hierarchical
    /// global-then-detailed split for large chips.
    pub routing_mode: RoutingMode,
    /// Gcell tile side in grid cells for the hierarchical global stage.
    /// A tile at least as large as the chip degenerates to one region
    /// and reproduces the flat flow byte-for-byte.
    pub gcell_size: u32,
    /// Halo in grid cells added around each cluster's bounding box when
    /// deciding whether it fits a single region stripe.
    pub region_halo: u32,
    /// The escape stage is running inside a hierarchical region/stitch
    /// window: skip the last-resort phase — a pin-starved window would
    /// churn through hopeless global rounds there; failures bubble up to
    /// the whole-chip repair pass instead, which runs with this off.
    pub escape_windowed: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            variant: FlowVariant::Pacor,
            lambda: 0.1,
            gamma: 10,
            history_base: 1.0,
            history_alpha: 0.1,
            theta: 10,
            max_ripup_rounds: 5,
            max_candidates: 6,
            detour_node_budget: 200_000,
            thread_count: 1,
            ripup_policy: RipUpPolicy::default(),
            recorder_capacity: pacor_obs::RecorderConfig::default().capacity,
            recorder_cadence: pacor_obs::RecorderConfig::default().snapshot_cadence,
            routing_mode: RoutingMode::Flat,
            gcell_size: 64,
            region_halo: 2,
            escape_windowed: false,
        }
    }
}

impl FlowConfig {
    /// The default configuration for a given variant.
    pub fn for_variant(variant: FlowVariant) -> Self {
        Self {
            variant,
            ..Self::default()
        }
    }

    /// Sets the worker-thread count for the data-parallel stages
    /// (0 is treated as 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.thread_count = threads.max(1);
        self
    }

    /// Sets the negotiation rip-up policy.
    pub fn with_ripup_policy(mut self, ripup_policy: RipUpPolicy) -> Self {
        self.ripup_policy = ripup_policy;
        self
    }

    /// Sets the flight-recorder event capacity.
    pub fn with_recorder_capacity(mut self, capacity: usize) -> Self {
        self.recorder_capacity = capacity;
        self
    }

    /// Sets the flight-recorder snapshot cadence (0 is treated as 1).
    pub fn with_recorder_cadence(mut self, cadence: u32) -> Self {
        self.recorder_cadence = cadence.max(1);
        self
    }

    /// Sets the routing mode (flat or hierarchical).
    pub fn with_routing_mode(mut self, routing_mode: RoutingMode) -> Self {
        self.routing_mode = routing_mode;
        self
    }

    /// Sets the gcell tile side for the hierarchical global stage
    /// (0 is treated as 1).
    pub fn with_gcell_size(mut self, gcell_size: u32) -> Self {
        self.gcell_size = gcell_size.max(1);
        self
    }

    /// Sets the region halo for the hierarchical partitioner.
    pub fn with_region_halo(mut self, region_halo: u32) -> Self {
        self.region_halo = region_halo;
        self
    }

    /// Enables or disables the escape stage's last-resort phase.
    pub fn with_escape_windowed(mut self, on: bool) -> Self {
        self.escape_windowed = on;
        self
    }

    /// The [`pacor_obs::RecorderConfig`] these knobs describe, for
    /// callers that install a flight recorder around the flow.
    pub fn recorder_config(&self) -> pacor_obs::RecorderConfig {
        pacor_obs::RecorderConfig {
            capacity: self.recorder_capacity,
            snapshot_cadence: self.recorder_cadence,
            ..pacor_obs::RecorderConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FlowConfig::default();
        assert_eq!(c.variant, FlowVariant::Pacor);
        assert_eq!(c.lambda, 0.1);
        assert_eq!(c.gamma, 10);
        assert_eq!(c.history_base, 1.0);
        assert_eq!(c.history_alpha, 0.1);
        assert_eq!(c.theta, 10);
        assert_eq!(c.thread_count, 1, "parallelism is opt-in");
        assert_eq!(c.ripup_policy, RipUpPolicy::Incremental);
        assert_eq!(c.recorder_config(), pacor_obs::RecorderConfig::default());
        assert_eq!(c.routing_mode, RoutingMode::Flat, "hierarchy is opt-in");
        assert_eq!(c.gcell_size, 64);
        assert_eq!(c.region_halo, 2);
        assert!(!c.escape_windowed, "flat escape always runs to the end");
    }

    #[test]
    fn routing_mode_parse() {
        assert_eq!(RoutingMode::parse("flat"), Some(RoutingMode::Flat));
        assert_eq!(
            RoutingMode::parse("hierarchical"),
            Some(RoutingMode::Hierarchical)
        );
        assert_eq!(RoutingMode::parse("Hierarchical"), None);
        assert_eq!(RoutingMode::Flat.label(), "flat");
        assert_eq!(RoutingMode::Hierarchical.label(), "hierarchical");
        let c = FlowConfig::default()
            .with_routing_mode(RoutingMode::Hierarchical)
            .with_gcell_size(0)
            .with_region_halo(5);
        assert_eq!(c.routing_mode, RoutingMode::Hierarchical);
        assert_eq!(c.gcell_size, 1, "a zero tile would loop forever");
        assert_eq!(c.region_halo, 5);
    }

    #[test]
    fn recorder_knobs_reach_the_recorder_config() {
        let c = FlowConfig::default()
            .with_recorder_capacity(128)
            .with_recorder_cadence(2);
        assert_eq!(c.recorder_config().capacity, 128);
        assert_eq!(c.recorder_config().snapshot_cadence, 2);
        assert_eq!(
            FlowConfig::default()
                .with_recorder_cadence(0)
                .recorder_cadence,
            1,
            "cadence 0 would divide by zero; clamp to every round"
        );
    }

    #[test]
    fn variant_labels() {
        assert_eq!(FlowVariant::Pacor.label(), "PACOR");
        assert_eq!(FlowVariant::WithoutSelection.label(), "w/o Sel");
        assert_eq!(FlowVariant::DetourFirst.label(), "Detour First");
        assert_eq!(FlowVariant::ALL.len(), 3);
        for (name, v) in [
            ("pacor", FlowVariant::Pacor),
            ("wo-sel", FlowVariant::WithoutSelection),
            ("detour-first", FlowVariant::DetourFirst),
        ] {
            assert_eq!(FlowVariant::parse(name), Some(v));
        }
        assert_eq!(FlowVariant::parse("PACOR"), None);
    }

    #[test]
    fn for_variant_sets_variant_only() {
        let c = FlowConfig::for_variant(FlowVariant::DetourFirst);
        assert_eq!(c.variant, FlowVariant::DetourFirst);
        assert_eq!(c.lambda, FlowConfig::default().lambda);
    }
}
