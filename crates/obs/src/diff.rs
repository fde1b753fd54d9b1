//! Structural run diffing (`pacor-rundiff-v1`).
//!
//! [`diff_runs`] compares two [`RunDigest`]s and produces a
//! [`RunDiff`]: fingerprint drift, outcome/cluster quality deltas,
//! deterministic counter and histogram deltas, and a span-tree diff
//! with exclusive-time deltas ranked by regression. Every
//! *deterministic* delta is a verdict — those fields cannot jitter, so
//! any change is a real change. *Timing* deltas become verdicts only
//! past the noise rule shared with the bench budgets: a stage has
//! regressed when it is both 25% and 25 ms slower
//! ([`timing_regressed`]), so wall-clock jitter never flags.

use crate::digest::{RunDigest, SpanNode};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Schema tag carried by every diff document.
pub const DIFF_SCHEMA: &str = "pacor-rundiff-v1";

/// Relative slowdown a timing must exceed before it can flag (25%).
pub const NOISE_RELATIVE: f64 = 0.25;

/// Absolute slowdown a timing must also exceed before it can flag.
pub const NOISE_ABS_MS: f64 = 25.0;

/// The shared noise rule: `new` has regressed against `base` only when
/// it is both 25% slower *and* more than 25 ms slower.
pub fn timing_regressed(base_ms: f64, new_ms: f64) -> bool {
    new_ms > base_ms * (1.0 + NOISE_RELATIVE) && new_ms - base_ms > NOISE_ABS_MS
}

/// How serious one diff entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Shown for context; never fails a gate.
    Info,
    /// A real change — deterministic drift or past-noise timing.
    Verdict,
}

/// One compared value: a named before/after pair with a severity.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// What changed (e.g. `outcome.total_length`,
    /// `span stage.escape excl_ms`, `counter negotiate.ripups`).
    pub what: String,
    /// Baseline value, rendered.
    pub base: String,
    /// New value, rendered.
    pub new: String,
    /// Whether this entry counts against the gate.
    pub severity: Severity,
}

impl DiffEntry {
    fn verdict(what: impl Into<String>, base: impl ToString, new: impl ToString) -> Self {
        DiffEntry {
            what: what.into(),
            base: base.to_string(),
            new: new.to_string(),
            severity: Severity::Verdict,
        }
    }

    fn info(what: impl Into<String>, base: impl ToString, new: impl ToString) -> Self {
        DiffEntry {
            what: what.into(),
            base: base.to_string(),
            new: new.to_string(),
            severity: Severity::Info,
        }
    }
}

/// One span-tree node present in both runs, with its exclusive-time
/// movement.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDelta {
    /// `/`-joined path from the root (e.g. `flow/stage.escape`).
    pub path: String,
    /// Baseline exclusive ms.
    pub base_excl_ms: f64,
    /// New exclusive ms.
    pub new_excl_ms: f64,
    /// Baseline span count.
    pub base_count: u64,
    /// New span count.
    pub new_count: u64,
    /// Whether the movement clears the noise rule.
    pub regressed: bool,
}

/// The full comparison of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Chip and chip-hash agreement and any config drift.
    pub fingerprint: Vec<DiffEntry>,
    /// Outcome and per-cluster quality deltas (always verdicts).
    pub quality: Vec<DiffEntry>,
    /// Deterministic counter/histogram deltas (always verdicts).
    pub metrics: Vec<DiffEntry>,
    /// Spans present in both runs, ranked worst regression first.
    pub span_changed: Vec<SpanDelta>,
    /// Span paths only in the new run (info unless past noise).
    pub span_added: Vec<DiffEntry>,
    /// Span paths only in the baseline (info unless past noise).
    pub span_removed: Vec<DiffEntry>,
    /// End-to-end wall-clock movement (verdict only past noise).
    pub wall: Vec<DiffEntry>,
}

impl RunDiff {
    /// Every entry that counts against the gate, in render order.
    pub fn verdicts(&self) -> Vec<&DiffEntry> {
        let mut out: Vec<&DiffEntry> = Vec::new();
        for section in [
            &self.fingerprint,
            &self.quality,
            &self.metrics,
            &self.span_added,
            &self.span_removed,
            &self.wall,
        ] {
            out.extend(section.iter().filter(|e| e.severity == Severity::Verdict));
        }
        out
    }

    /// Whether the diff carries any verdict — deterministic drift,
    /// past-noise span regression, or past-noise wall regression.
    pub fn has_verdicts(&self) -> bool {
        !self.verdicts().is_empty() || self.span_changed.iter().any(|s| s.regressed)
    }
}

fn flatten_spans(spans: &[SpanNode], out: &mut BTreeMap<String, (u64, u64)>) {
    for s in spans {
        s.walk("", &mut |path, node| {
            let slot = out.entry(path).or_insert((0, 0));
            slot.0 += node.count;
            slot.1 += node.excl_us;
        });
    }
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// Compares `new` against `base`.
pub fn diff_runs(base: &RunDigest, new: &RunDigest) -> RunDiff {
    let mut fingerprint = Vec::new();
    if base.fingerprint.chip != new.fingerprint.chip {
        fingerprint.push(DiffEntry::verdict(
            "fingerprint.chip",
            &base.fingerprint.chip,
            &new.fingerprint.chip,
        ));
    }
    if base.fingerprint.chip_hash != new.fingerprint.chip_hash {
        fingerprint.push(DiffEntry::verdict(
            "fingerprint.chip_hash",
            format!("{:016x}", base.fingerprint.chip_hash),
            format!("{:016x}", new.fingerprint.chip_hash),
        ));
    }
    let base_cfg: BTreeMap<&str, &str> = base
        .fingerprint
        .config
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let new_cfg: BTreeMap<&str, &str> = new
        .fingerprint
        .config
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    for (key, bv) in &base_cfg {
        match new_cfg.get(key) {
            Some(nv) if nv == bv => {}
            Some(nv) => fingerprint.push(DiffEntry::verdict(format!("config.{key}"), bv, nv)),
            None => fingerprint.push(DiffEntry::verdict(format!("config.{key}"), bv, "(absent)")),
        }
    }
    for (key, nv) in &new_cfg {
        if !base_cfg.contains_key(key) {
            fingerprint.push(DiffEntry::verdict(format!("config.{key}"), "(absent)", nv));
        }
    }

    // -- quality: outcome fields + per-cluster verdicts -------------------
    let mut quality = Vec::new();
    let bo = &base.outcome;
    let no = &new.outcome;
    for (name, b, n) in [
        (
            "outcome.completion_milli",
            bo.completion_milli,
            no.completion_milli,
        ),
        ("outcome.total_length", bo.total_length, no.total_length),
        (
            "outcome.matched_clusters",
            bo.matched_clusters,
            no.matched_clusters,
        ),
        (
            "outcome.matched_length",
            bo.matched_length,
            no.matched_length,
        ),
        (
            "outcome.clusters_multi",
            bo.clusters_multi,
            no.clusters_multi,
        ),
        ("outcome.valves_routed", bo.valves_routed, no.valves_routed),
        ("outcome.valves_total", bo.valves_total, no.valves_total),
    ] {
        if b != n {
            quality.push(DiffEntry::verdict(name, b, n));
        }
    }
    if base.clusters.len() != new.clusters.len() {
        quality.push(DiffEntry::verdict(
            "clusters.count",
            base.clusters.len(),
            new.clusters.len(),
        ));
    }
    for (i, (bc, nc)) in base.clusters.iter().zip(new.clusters.iter()).enumerate() {
        if bc != nc {
            quality.push(DiffEntry::verdict(
                format!("clusters[{i}]"),
                format!(
                    "len {} matched {} slack {:?}",
                    bc.length, bc.matched, bc.slack
                ),
                format!(
                    "len {} matched {} slack {:?}",
                    nc.length, nc.matched, nc.slack
                ),
            ));
        }
    }

    // -- deterministic counters + histograms ------------------------------
    let mut metrics = Vec::new();
    let base_counters: BTreeMap<&str, u64> = base
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let new_counters: BTreeMap<&str, u64> =
        new.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut counter_names: Vec<&str> = base_counters
        .keys()
        .chain(new_counters.keys())
        .copied()
        .collect();
    counter_names.sort_unstable();
    counter_names.dedup();
    for name in counter_names {
        // An absent counter reads 0: a stage that stops emitting is a
        // change, not a schema error.
        let b = base_counters.get(name).copied().unwrap_or(0);
        let n = new_counters.get(name).copied().unwrap_or(0);
        if b != n {
            metrics.push(DiffEntry::verdict(format!("counter {name}"), b, n));
        }
    }
    let base_hists: BTreeMap<&str, _> = base
        .histograms
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let new_hists: BTreeMap<&str, _> = new
        .histograms
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let mut hist_names: Vec<&str> = base_hists.keys().chain(new_hists.keys()).copied().collect();
    hist_names.sort_unstable();
    hist_names.dedup();
    for name in hist_names {
        let b = base_hists.get(name).copied().unwrap_or_default();
        let n = new_hists.get(name).copied().unwrap_or_default();
        if b != n {
            metrics.push(DiffEntry::verdict(
                format!("histogram {name}"),
                format!("n={} sum={} p95={}", b.count, b.sum, b.p95),
                format!("n={} sum={} p95={}", n.count, n.sum, n.p95),
            ));
        }
    }

    // -- span tree --------------------------------------------------------
    let mut base_spans = BTreeMap::new();
    let mut new_spans = BTreeMap::new();
    flatten_spans(&base.wall.spans, &mut base_spans);
    flatten_spans(&new.wall.spans, &mut new_spans);
    let mut span_changed = Vec::new();
    let mut span_added = Vec::new();
    let mut span_removed = Vec::new();
    for (path, (b_count, b_excl)) in &base_spans {
        match new_spans.get(path) {
            Some((n_count, n_excl)) => {
                let base_excl_ms = ms(*b_excl);
                let new_excl_ms = ms(*n_excl);
                span_changed.push(SpanDelta {
                    path: path.clone(),
                    base_excl_ms,
                    new_excl_ms,
                    base_count: *b_count,
                    new_count: *n_count,
                    regressed: timing_regressed(base_excl_ms, new_excl_ms),
                });
            }
            None => {
                // Removed spans are context unless real time vanished.
                let entry = if ms(*b_excl) > NOISE_ABS_MS {
                    DiffEntry::verdict(
                        format!("span -{path}"),
                        format!("{:.1} ms", ms(*b_excl)),
                        "(absent)",
                    )
                } else {
                    DiffEntry::info(
                        format!("span -{path}"),
                        format!("{:.1} ms", ms(*b_excl)),
                        "(absent)",
                    )
                };
                span_removed.push(entry);
            }
        }
    }
    for (path, (_, n_excl)) in &new_spans {
        if !base_spans.contains_key(path) {
            let entry = if ms(*n_excl) > NOISE_ABS_MS {
                DiffEntry::verdict(
                    format!("span +{path}"),
                    "(absent)",
                    format!("{:.1} ms", ms(*n_excl)),
                )
            } else {
                DiffEntry::info(
                    format!("span +{path}"),
                    "(absent)",
                    format!("{:.1} ms", ms(*n_excl)),
                )
            };
            span_added.push(entry);
        }
    }
    // Worst regression first: by the amount the noise budget is
    // exceeded, then by absolute delta.
    span_changed.sort_by(|a, b| {
        let ka = (a.new_excl_ms - a.base_excl_ms, a.regressed);
        let kb = (b.new_excl_ms - b.base_excl_ms, b.regressed);
        kb.1.cmp(&ka.1)
            .then(kb.0.partial_cmp(&ka.0).unwrap_or(std::cmp::Ordering::Equal))
            .then_with(|| a.path.cmp(&b.path))
    });

    // -- wall clock -------------------------------------------------------
    let (bw, nw) = (base.wall.wall_ms, new.wall.wall_ms);
    let wall = vec![if timing_regressed(bw, nw) {
        DiffEntry::verdict("wall_ms", format!("{bw:.1}"), format!("{nw:.1}"))
    } else {
        DiffEntry::info("wall_ms", format!("{bw:.1}"), format!("{nw:.1}"))
    }];

    RunDiff {
        fingerprint,
        quality,
        metrics,
        span_changed,
        span_added,
        span_removed,
        wall,
    }
}

/// Renders the diff as a `pacor-rundiff-v1` JSON document.
pub fn diff_json(diff: &RunDiff) -> String {
    fn push_entries(out: &mut String, name: &str, entries: &[DiffEntry]) {
        let _ = write!(out, "  \"{name}\": [");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"what\": ");
            crate::export::push_json_string(out, &e.what);
            out.push_str(", \"base\": ");
            crate::export::push_json_string(out, &e.base);
            out.push_str(", \"new\": ");
            crate::export::push_json_string(out, &e.new);
            let _ = write!(out, ", \"verdict\": {}}}", e.severity == Severity::Verdict);
        }
        if !entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
    }
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{DIFF_SCHEMA}\",");
    push_entries(&mut out, "fingerprint", &diff.fingerprint);
    out.push_str(",\n");
    push_entries(&mut out, "quality", &diff.quality);
    out.push_str(",\n");
    push_entries(&mut out, "metrics", &diff.metrics);
    out.push_str(",\n  \"span_changed\": [");
    for (i, s) in diff.span_changed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"path\": ");
        crate::export::push_json_string(&mut out, &s.path);
        let _ = write!(
            out,
            ", \"base_excl_ms\": {:.3}, \"new_excl_ms\": {:.3}, \"base_count\": {}, \"new_count\": {}, \"regressed\": {}}}",
            s.base_excl_ms, s.new_excl_ms, s.base_count, s.new_count, s.regressed
        );
    }
    if !diff.span_changed.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    push_entries(&mut out, "span_added", &diff.span_added);
    out.push_str(",\n");
    push_entries(&mut out, "span_removed", &diff.span_removed);
    out.push_str(",\n");
    push_entries(&mut out, "wall", &diff.wall);
    let _ = write!(out, ",\n  \"has_verdicts\": {}\n}}\n", diff.has_verdicts());
    out
}

/// Renders the diff as ranked ASCII tables (the `tables compare`
/// output). Deterministic sections print every entry; the span table
/// prints regressions first and caps healthy rows at `max_span_rows`.
pub fn render_diff(diff: &RunDiff, max_span_rows: usize) -> String {
    fn section(out: &mut String, title: &str, entries: &[DiffEntry]) {
        if entries.is_empty() {
            return;
        }
        let _ = writeln!(out, "== {title} ==");
        let what_w = entries
            .iter()
            .map(|e| e.what.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let base_w = entries
            .iter()
            .map(|e| e.base.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for e in entries {
            let mark = if e.severity == Severity::Verdict {
                "!!"
            } else {
                "  "
            };
            let _ = writeln!(
                out,
                "{mark} {:<what_w$}  {:>base_w$} -> {}",
                e.what, e.base, e.new
            );
        }
        out.push('\n');
    }
    let mut out = String::new();
    section(&mut out, "fingerprint drift", &diff.fingerprint);
    section(&mut out, "quality", &diff.quality);
    section(&mut out, "deterministic metrics", &diff.metrics);
    section(&mut out, "spans added", &diff.span_added);
    section(&mut out, "spans removed", &diff.span_removed);

    if !diff.span_changed.is_empty() {
        let _ = writeln!(out, "== span exclusive time (worst first) ==");
        let path_w = diff
            .span_changed
            .iter()
            .map(|s| s.path.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut shown = 0usize;
        for s in &diff.span_changed {
            if !s.regressed && shown >= max_span_rows {
                continue;
            }
            shown += 1;
            let mark = if s.regressed { "!!" } else { "  " };
            let _ = writeln!(
                out,
                "{mark} {:<path_w$}  {:>10.1} -> {:>10.1} ms  ({:+.1} ms, x{} -> x{})",
                s.path,
                s.base_excl_ms,
                s.new_excl_ms,
                s.new_excl_ms - s.base_excl_ms,
                s.base_count,
                s.new_count
            );
        }
        let hidden = diff.span_changed.len() - shown;
        if hidden > 0 {
            let _ = writeln!(out, "   ... {hidden} unchanged span paths within noise");
        }
        out.push('\n');
    }
    section(&mut out, "wall clock", &diff.wall);

    let verdicts = diff.verdicts().len() + diff.span_changed.iter().filter(|s| s.regressed).count();
    if verdicts == 0 {
        let _ = writeln!(out, "OK: no differences beyond noise");
    } else {
        let _ = writeln!(out, "FAIL: {verdicts} verdict(s) beyond noise");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::tests::sample_digest;

    #[test]
    fn noise_rule_requires_both_thresholds() {
        assert!(!timing_regressed(100.0, 124.0), "under 25% relative");
        assert!(!timing_regressed(10.0, 30.0), "under 25 ms absolute");
        assert!(timing_regressed(100.0, 130.0), "both thresholds cleared");
        assert!(!timing_regressed(100.0, 90.0), "improvements never flag");
        assert!(timing_regressed(0.0, 26.0), "new work from nothing flags");
    }

    #[test]
    fn identical_runs_diff_clean() {
        let d = sample_digest();
        let diff = diff_runs(&d, &d);
        assert!(!diff.has_verdicts(), "self-diff must be clean: {diff:?}");
        assert!(render_diff(&diff, 20).contains("OK: no differences beyond noise"));
    }

    #[test]
    fn wall_jitter_within_noise_never_flags() {
        let base = sample_digest();
        let mut new = base.clone();
        new.wall.wall_ms *= 1.2; // 20% slower but well under 25 ms absolute
        let diff = diff_runs(&base, &new);
        assert!(!diff.has_verdicts(), "{diff:?}");
    }

    #[test]
    fn deterministic_drift_always_flags() {
        let base = sample_digest();
        let mut new = base.clone();
        new.outcome.total_length += 7;
        let segments = new
            .counters
            .iter_mut()
            .find(|(n, _)| n == "detour.segments");
        segments.expect("sample counts detour segments").1 += 1;
        new.clusters[0].slack = Some(-3);
        let diff = diff_runs(&base, &new);
        assert!(diff.has_verdicts());
        let whats: Vec<&str> = diff.verdicts().iter().map(|e| e.what.as_str()).collect();
        assert!(whats.contains(&"outcome.total_length"));
        assert!(whats.contains(&"counter detour.segments"));
        assert!(whats.iter().any(|w| w.starts_with("clusters[0]")));
        assert!(render_diff(&diff, 20).contains("FAIL:"));
    }

    #[test]
    fn absent_counter_reads_zero() {
        let base = sample_digest();
        let mut new = base.clone();
        new.counters.retain(|(n, _)| n != "detour.segments");
        let diff = diff_runs(&base, &new);
        let entry = diff
            .verdicts()
            .iter()
            .find(|e| e.what == "counter detour.segments")
            .cloned()
            .cloned()
            .expect("dropped counter flags");
        assert_eq!((entry.base.as_str(), entry.new.as_str()), ("3", "0"));
    }

    #[test]
    fn span_regression_past_noise_flags_and_ranks_first() {
        let base = sample_digest();
        let mut new = base.clone();
        // stage.escape excl 3000 µs -> 33 000 µs: +30 ms and > 25%.
        new.wall.spans[0].excl_us = 33_000;
        new.wall.spans[0].incl_us = 35_000;
        let diff = diff_runs(&base, &new);
        assert!(diff.has_verdicts());
        assert_eq!(diff.span_changed[0].path, "stage.escape");
        assert!(diff.span_changed[0].regressed);
        // The child moved by nothing: present, not regressed.
        assert!(diff
            .span_changed
            .iter()
            .any(|s| s.path == "stage.escape/escape.net_solve" && !s.regressed));
    }

    #[test]
    fn small_added_lanes_are_info_large_ones_verdicts() {
        let base = sample_digest();
        let mut new = base.clone();
        new.wall.spans.push(SpanNode {
            name: "lm.candidates".into(),
            count: 8,
            incl_us: 2_000,
            excl_us: 2_000,
            children: vec![],
        });
        let diff = diff_runs(&base, &new);
        assert!(!diff.has_verdicts(), "2 ms lane is context: {diff:?}");
        let mut big = base.clone();
        big.wall.spans.push(SpanNode {
            name: "stage.mystery".into(),
            count: 1,
            incl_us: 60_000,
            excl_us: 60_000,
            children: vec![],
        });
        let diff = diff_runs(&base, &big);
        assert!(diff.has_verdicts(), "60 ms of new work must flag");
    }

    #[test]
    fn diff_json_is_well_formed_and_tagged() {
        let base = sample_digest();
        let mut new = base.clone();
        new.outcome.matched_clusters -= 1;
        let text = diff_json(&diff_runs(&base, &new));
        let v = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(DIFF_SCHEMA));
        assert_eq!(v.get("has_verdicts").unwrap().as_bool(), Some(true));
        assert!(!v.get("quality").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn config_drift_is_a_fingerprint_verdict() {
        let base = sample_digest();
        let mut new = base.clone();
        new.fingerprint.config[1].1 = "0.5".into();
        let diff = diff_runs(&base, &new);
        let whats: Vec<&str> = diff.verdicts().iter().map(|e| e.what.as_str()).collect();
        assert_eq!(whats, vec!["config.lambda"]);
    }
}
