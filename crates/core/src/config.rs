//! Flow configuration and self-comparison variants.

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
