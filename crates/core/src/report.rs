//! Routing reports — the columns of Table 2.

use pacor_grid::GridLen;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// The hot-path counter totals collected by [`pacor_obs`] during the
/// run, deterministic — byte-identical run to run. Stage times live in
/// the `stage.*` spans of an observability session around the run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlowMetrics {
    /// Name-sorted `(counter, total)` pairs from the observability layer
    /// (A\* expansions, queue pushes, rip-ups, detour deltas, …).
    ///
    /// Stored as a sorted vec rather than a map so the serialized form
    /// round-trips through the in-tree serde and stays ordered.
    pub counters: Vec<(String, u64)>,
}

impl FlowMetrics {
    /// Looks up a counter total by name; absent counters read as 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }
}

/// Per-cluster routing result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Number of member valves.
    pub size: usize,
    /// Whether the cluster carried the length-matching constraint when it
    /// was routed.
    pub length_constrained: bool,
    /// Whether it ended up matched within δ.
    pub matched: bool,
    /// Whether every member reached a control pin.
    pub complete: bool,
    /// Total channel length (internal + escape), grid units.
    pub total_length: GridLen,
    /// Final mismatch `max − min` over member lengths (None for
    /// unconstrained clusters).
    pub mismatch: Option<GridLen>,
}

/// Whole-design routing result — one row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteReport {
    /// Design name.
    pub design: String,
    /// Variant label ("PACOR", "w/o Sel", "Detour First").
    pub variant: String,
    /// Number of clusters with at least two valves (the paper's
    /// "#Clusters" column counts only these).
    pub clusters_multi: usize,
    /// Number of length-matching clusters routed within δ
    /// ("#Matched Clusters").
    pub matched_clusters: usize,
    /// Total channel length of the matched clusters
    /// ("Total matched channel length").
    pub matched_length: GridLen,
    /// Total channel length over all clusters ("Total channel length").
    pub total_length: GridLen,
    /// Number of valves connected to a pin.
    pub valves_routed: usize,
    /// Total number of valves.
    pub valves_total: usize,
    /// Wall-clock runtime of the flow.
    pub runtime: Duration,
    /// Hot-path counter totals (rip-ups, escape rounds, A\* work, …).
    pub metrics: FlowMetrics,
    /// Per-cluster details.
    pub clusters: Vec<ClusterReport>,
}

impl RouteReport {
    /// Routing completion rate in `[0, 1]` (the paper reports 100%
    /// everywhere).
    pub fn completion_rate(&self) -> f64 {
        if self.valves_total == 0 {
            1.0
        } else {
            self.valves_routed as f64 / self.valves_total as f64
        }
    }

    /// One row in the style of Table 2.
    pub fn table_row(&self) -> String {
        format!(
            "{:<8} {:<13} {:>9} {:>8} {:>14} {:>12} {:>9.2}s {:>6.0}%",
            self.design,
            self.variant,
            self.clusters_multi,
            self.matched_clusters,
            self.matched_length,
            self.total_length,
            self.runtime.as_secs_f64(),
            self.completion_rate() * 100.0
        )
    }

    /// The header matching [`RouteReport::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<8} {:<13} {:>9} {:>8} {:>14} {:>12} {:>10} {:>7}",
            "Design",
            "Method",
            "#Clusters",
            "#Matched",
            "MatchedLen",
            "TotalLen",
            "Runtime",
            "Compl"
        )
    }
}

impl fmt::Display for RouteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", RouteReport::table_header())?;
        write!(f, "{}", self.table_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RouteReport {
        RouteReport {
            design: "S1".into(),
            variant: "PACOR".into(),
            clusters_multi: 2,
            matched_clusters: 2,
            matched_length: 28,
            total_length: 36,
            valves_routed: 5,
            valves_total: 5,
            runtime: Duration::from_millis(10),
            metrics: FlowMetrics::default(),
            clusters: vec![],
        }
    }

    #[test]
    fn completion_rate_full() {
        assert_eq!(report().completion_rate(), 1.0);
    }

    #[test]
    fn completion_rate_partial() {
        let mut r = report();
        r.valves_routed = 4;
        assert!((r.completion_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn completion_rate_empty_design() {
        let mut r = report();
        r.valves_total = 0;
        r.valves_routed = 0;
        assert_eq!(r.completion_rate(), 1.0);
    }

    #[test]
    fn table_row_contains_fields() {
        let row = report().table_row();
        assert!(row.contains("S1"));
        assert!(row.contains("PACOR"));
        assert!(row.contains("36"));
        assert!(row.contains("100%"));
    }

    #[test]
    fn counter_lookup_uses_sorted_names() {
        let m = FlowMetrics {
            counters: vec![
                ("astar.expansions".into(), 42),
                ("negotiate.rounds".into(), 3),
            ],
        };
        assert_eq!(m.counter("astar.expansions"), 42);
        assert_eq!(m.counter("negotiate.rounds"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn display_includes_header() {
        let s = report().to_string();
        assert!(s.contains("#Matched"));
        assert!(s.lines().count() >= 2);
    }
}
