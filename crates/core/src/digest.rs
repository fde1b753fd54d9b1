//! Builds the [`RunDigest`] summary of one flow run.
//!
//! The flow itself stays digest-agnostic: callers that hold the
//! problem, the config, the [`RouteReport`] and an observability
//! session's [`ObsReport`] (the CLI's `--digest-out`) assemble the
//! digest here. See `pacor_obs::RunDigest` for the schema and
//! determinism contract.

use crate::{FlowConfig, Problem, RouteReport};
use pacor_obs::{
    fnv1a64, span_tree, ClusterDigest, Fingerprint, HistogramSummary, ObsReport, Outcome,
    RunDigest, WallFacts,
};

/// A stable hash of the full problem instance. The `Problem` `Debug`
/// form spells out every field — geometry, valves, compatibility,
/// clusters, δ, pins, obstacles — so FNV-1a over it changes whenever
/// any routing input changes, without `pacor` needing a JSON encoder.
pub fn problem_hash(problem: &Problem) -> u64 {
    fnv1a64(format!("{problem:?}").as_bytes())
}

/// Every `FlowConfig` field as ordered (name, value) pairs — exactly
/// the knobs that change the routed result.
pub fn config_fingerprint(config: &FlowConfig) -> Vec<(String, String)> {
    let pair = |k: &str, v: String| (k.to_string(), v);
    vec![
        pair("variant", config.variant.label().to_string()),
        pair("lambda", format!("{}", config.lambda)),
        pair("gamma", format!("{}", config.gamma)),
        pair("history_base", format!("{}", config.history_base)),
        pair("history_alpha", format!("{}", config.history_alpha)),
        pair("theta", format!("{}", config.theta)),
        pair("max_ripup_rounds", format!("{}", config.max_ripup_rounds)),
        pair("max_candidates", format!("{}", config.max_candidates)),
        pair(
            "detour_node_budget",
            format!("{}", config.detour_node_budget),
        ),
    ]
}

/// Assembles the `pacor-rundigest-v1` record for one finished run from
/// the inputs, the routed result, and the observability session that
/// wrapped the run.
pub fn run_digest(
    problem: &Problem,
    config: &FlowConfig,
    report: &RouteReport,
    obs: &ObsReport,
) -> RunDigest {
    let fingerprint = Fingerprint {
        chip: problem.name.clone(),
        chip_hash: problem_hash(problem),
        config: config_fingerprint(config),
    };
    let outcome = Outcome {
        completion_milli: (report.completion_rate() * 1000.0).round() as u64,
        total_length: report.total_length,
        matched_clusters: report.matched_clusters as u64,
        matched_length: report.matched_length,
        clusters_multi: report.clusters_multi as u64,
        valves_routed: report.valves_routed as u64,
        valves_total: report.valves_total as u64,
    };
    let clusters = report
        .clusters
        .iter()
        .map(|c| ClusterDigest {
            size: c.size as u64,
            lm: c.length_constrained,
            complete: c.complete,
            matched: c.matched,
            length: c.total_length,
            mismatch: c.mismatch,
            slack: c.mismatch.map(|m| problem.delta as i64 - m as i64),
        })
        .collect();
    RunDigest {
        fingerprint,
        outcome,
        clusters,
        counters: obs
            .counters()
            .map(|(name, total)| (name.to_string(), total))
            .collect(),
        histograms: obs
            .histograms()
            .map(|(name, hist)| (name.to_string(), HistogramSummary::of(hist)))
            .collect(),
        wall: WallFacts {
            // Quantized to the rendered precision (3 decimals) so a
            // digest re-parsed from disk compares equal to the
            // in-memory one.
            wall_ms: (report.runtime.as_secs_f64() * 1_000_000.0).round() / 1000.0,
            spans: span_tree(obs.events()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchDesign, PacorFlow};

    #[test]
    fn digest_reflects_problem_config_and_outcome() {
        let problem = BenchDesign::S1.synthesize(42);
        let config = FlowConfig::default();
        let session = pacor_obs::Session::begin();
        let report = PacorFlow::new(config).run(&problem).expect("routes");
        let obs = session.finish();
        let digest = run_digest(&problem, &config, &report, &obs);

        assert_eq!(digest.fingerprint.chip, problem.name);
        assert_eq!(digest.fingerprint.chip_hash, problem_hash(&problem));
        assert_eq!(digest.outcome.completion_milli, 1000);
        assert_eq!(digest.outcome.total_length, report.total_length);
        assert_eq!(digest.clusters.len(), report.clusters.len());
        // Every counter the session saw, A* work included, in name order.
        let counters: Vec<(&str, u64)> = obs.counters().collect();
        assert!(digest
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .eq(counters));
        assert!(
            digest.counters.iter().any(|(n, _)| n == "negotiate.rounds"),
            "negotiation counters captured"
        );
        assert!(
            digest.counters.iter().any(|(n, _)| n.starts_with("astar.")),
            "A* counters captured"
        );
        assert!(!digest.wall.spans.is_empty(), "span tree captured");
        // LM slack is measured against the problem's δ.
        let lm = digest
            .clusters
            .iter()
            .find(|c| c.lm && c.mismatch.is_some())
            .expect("S1 has an LM cluster");
        assert_eq!(
            lm.slack,
            lm.mismatch.map(|m| problem.delta as i64 - m as i64)
        );
        // And the document round-trips.
        let back = pacor_obs::RunDigest::from_json(&digest.to_json()).expect("parses");
        assert_eq!(back, digest);
    }

    #[test]
    fn problem_hash_tracks_every_input() {
        let a = BenchDesign::S1.synthesize(42);
        let b = BenchDesign::S1.synthesize(43);
        assert_ne!(problem_hash(&a), problem_hash(&b), "seed changes the hash");
        let mut c = a.clone();
        c.delta += 1;
        assert_ne!(problem_hash(&a), problem_hash(&c), "δ changes the hash");
        assert_eq!(problem_hash(&a), problem_hash(&a.clone()));
    }

    #[test]
    fn fingerprint_tracks_config_changes() {
        let base = FlowConfig::default();
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&FlowConfig::default())
        );
        let mut tuned = base;
        tuned.lambda = 0.5;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&tuned));
    }
}
