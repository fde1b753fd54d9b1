//! Versioned run digests (`pacor-rundigest-v1`).
//!
//! A [`RunDigest`] is the one summary of a flow run: a config
//! fingerprint (chip hash plus the deterministic `FlowConfig` fields),
//! the route-quality outcome (completion, lengths, matched clusters,
//! per-cluster LM slack), every counter total and histogram quantile,
//! and — isolated in the single `wall` sub-object — everything
//! wall-clock-dependent: end-to-end wall-clock and the span tree with
//! inclusive/exclusive time. Tallies such as negotiation rounds or
//! escape rip-ups live in the counters only.
//!
//! Everything outside `wall` is byte-identical run to run — the same
//! guarantee the post-mortem report makes, extended to a comparable
//! cross-run record.
//! [`RunDigest::deterministic_json`] renders exactly that invariant
//! part. The golden tests pin it for every bench chip, and each
//! BENCH_flow.json entry carries its FNV-1a hash as `digest_hash`.

use crate::json::Json;
use crate::{Histogram, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Schema tag carried by every digest document.
pub const DIGEST_SCHEMA: &str = "pacor-rundigest-v1";

/// 64-bit FNV-1a over arbitrary bytes — the stable, dependency-free
/// hash behind the fingerprint's `chip_hash` and a bench entry's
/// `digest_hash`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// What run a digest belongs to: the chip and the deterministic
/// configuration fields. Two runs with equal fingerprints are expected
/// to produce byte-identical deterministic sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Chip/design name.
    pub chip: String,
    /// FNV-1a hash of the full problem instance (geometry, valves,
    /// sequences, pins, obstacles, δ).
    pub chip_hash: u64,
    /// Deterministic config fields as ordered (name, value) pairs.
    pub config: Vec<(String, String)>,
}

/// The deterministic outcome of one run — the quality fields a config
/// or code change is judged by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    /// Routing completion in per-mille (1000 = every valve connected).
    pub completion_milli: u64,
    /// Total routed channel length, grid units.
    pub total_length: u64,
    /// Length-matching clusters matched within δ.
    pub matched_clusters: u64,
    /// Total channel length of the matched clusters.
    pub matched_length: u64,
    /// Clusters with at least two valves.
    pub clusters_multi: u64,
    /// Valves connected to a pin.
    pub valves_routed: u64,
    /// Total valves.
    pub valves_total: u64,
}

/// Per-cluster routing verdict with LM slack against the δ window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterDigest {
    /// Member valves.
    pub size: u64,
    /// Whether the cluster carried the length-matching constraint.
    pub lm: bool,
    /// Whether every member reached a pin.
    pub complete: bool,
    /// Whether it matched within δ.
    pub matched: bool,
    /// Total channel length.
    pub length: u64,
    /// Final `max − min` length mismatch (None when unconstrained).
    pub mismatch: Option<u64>,
    /// `δ − mismatch` (negative = over the window; None when
    /// unconstrained).
    pub slack: Option<i64>,
}

/// The summary of one histogram: count, sum, extremes and integral
/// nearest-rank quantiles, so the summary is as deterministic as the
/// histogram itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSummary {
    /// Summarizes a live histogram.
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
        }
    }
}

/// One aggregated node of the span tree: every span sharing this name
/// at this nesting position, with inclusive and exclusive wall-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// How many spans aggregated into this node.
    pub count: u64,
    /// Summed span durations, µs.
    pub incl_us: u64,
    /// Inclusive time minus the inclusive time of direct children, µs.
    pub excl_us: u64,
    /// Direct children, name-sorted.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Depth-first walk: calls `f` with the `/`-joined path and node.
    pub fn walk<'a>(&'a self, prefix: &str, f: &mut impl FnMut(String, &'a SpanNode)) {
        let path = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix}/{}", self.name)
        };
        f(path.clone(), self);
        for c in &self.children {
            c.walk(&path, f);
        }
    }
}

/// The wall-clock-dependent facts of one run, isolated so the rest of
/// the digest can be byte-compared across runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WallFacts {
    /// End-to-end wall-clock, milliseconds.
    pub wall_ms: f64,
    /// The aggregated span tree with inclusive/exclusive time.
    pub spans: Vec<SpanNode>,
}

/// One run's complete digest (see the module docs for the layout and
/// the determinism contract).
#[derive(Debug, Clone, PartialEq)]
pub struct RunDigest {
    /// What was run.
    pub fingerprint: Fingerprint,
    /// How it came out.
    pub outcome: Outcome,
    /// Per-cluster verdicts with LM slack, in routed order.
    pub clusters: Vec<ClusterDigest>,
    /// Counter totals, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// The wall-clock sub-object.
    pub wall: WallFacts,
}

/// Reconstructs the aggregated span tree from a flat close-ordered
/// event stream: a closing span claims every maximal earlier span its
/// `[ts, ts + dur]` window contains as a direct child; the root spans
/// then aggregate recursively by name. `profile_flow` sums the nodes
/// by span name for its per-span table.
pub fn span_tree(events: &[TraceEvent]) -> Vec<SpanNode> {
    struct Raw {
        name: &'static str,
        ts: u64,
        end: u64,
        children: Vec<Raw>,
    }
    let mut roots: Vec<Raw> = Vec::new();
    for e in events {
        let TraceEvent::Span { name, ts, dur, .. } = e else {
            continue;
        };
        let end = ts + dur;
        let mut children = Vec::new();
        while let Some(last) = roots.last() {
            if last.ts >= *ts && last.end <= end {
                children.push(roots.pop().expect("peeked"));
            } else {
                break;
            }
        }
        children.reverse();
        roots.push(Raw {
            name,
            ts: *ts,
            end,
            children,
        });
    }
    fn aggregate(raws: Vec<Raw>) -> Vec<SpanNode> {
        let mut groups: BTreeMap<&'static str, (u64, u64, u64, Vec<Raw>)> = BTreeMap::new();
        for r in raws {
            let child_us: u64 = r.children.iter().map(|c| c.end - c.ts).sum();
            let g = groups.entry(r.name).or_insert((0, 0, 0, Vec::new()));
            g.0 += 1;
            g.1 += r.end - r.ts;
            g.2 += child_us;
            g.3.extend(r.children);
        }
        groups
            .into_iter()
            .map(|(name, (count, incl_us, child_us, children))| SpanNode {
                name: name.to_string(),
                count,
                incl_us,
                excl_us: incl_us.saturating_sub(child_us),
                children: aggregate(children),
            })
            .collect()
    }
    aggregate(roots)
}

// ---------------------------------------------------------------------------
// Rendering.

fn render_hist(out: &mut String, h: &HistogramSummary) {
    let _ = write!(
        out,
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
    );
}

fn render_spans(out: &mut String, spans: &[SpanNode]) {
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": ");
        crate::export::push_json_string(out, &s.name);
        let _ = write!(
            out,
            ", \"count\": {}, \"incl_us\": {}, \"excl_us\": {}, \"children\": ",
            s.count, s.incl_us, s.excl_us
        );
        render_spans(out, &s.children);
        out.push('}');
    }
    out.push(']');
}

impl RunDigest {
    /// Renders the digest as a pretty-printed JSON document, the `wall`
    /// sub-object last — everything before the `"wall"` key is the
    /// deterministic record.
    pub fn to_json(&self) -> String {
        let mut out = self.render_deterministic();
        let _ = write!(
            out,
            ",\n  \"wall\": {{\"wall_ms\": {:.3}, \"spans\": ",
            self.wall.wall_ms
        );
        render_spans(&mut out, &self.wall.spans);
        out.push_str("}\n}\n");
        out
    }

    /// Renders [`RunDigest::to_json`]'s document without its `wall`
    /// member: the byte-comparable identity of the run, pretty-printed
    /// so that a committed digest diffs line by line.
    pub fn deterministic_json(&self) -> String {
        let mut out = self.render_deterministic();
        out.push_str("\n}\n");
        out
    }

    /// The document up to, not including, the separator before `wall`
    /// and the closing brace.
    fn render_deterministic(&self) -> String {
        let mut out = format!("{{\n  \"schema\": \"{DIGEST_SCHEMA}\",\n");

        // -- fingerprint --------------------------------------------------
        out.push_str("  \"fingerprint\": {\"chip\": ");
        crate::export::push_json_string(&mut out, &self.fingerprint.chip);
        let _ = write!(
            out,
            ", \"chip_hash\": {}, \"config\": {{",
            self.fingerprint.chip_hash
        );
        for (i, (k, v)) in self.fingerprint.config.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            crate::export::push_json_string(&mut out, k);
            out.push_str(": ");
            crate::export::push_json_string(&mut out, v);
        }
        out.push_str("}},\n");

        // -- outcome ------------------------------------------------------
        let o = &self.outcome;
        let _ = writeln!(
            out,
            "  \"outcome\": {{\"completion_milli\": {}, \"total_length\": {}, \"matched_clusters\": {}, \"matched_length\": {}, \"clusters_multi\": {}, \"valves_routed\": {}, \"valves_total\": {}}},",
            o.completion_milli,
            o.total_length,
            o.matched_clusters,
            o.matched_length,
            o.clusters_multi,
            o.valves_routed,
            o.valves_total
        );

        // -- clusters -----------------------------------------------------
        out.push_str("  \"clusters\": [");
        for (i, c) in self.clusters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"size\": {}, \"lm\": {}, \"complete\": {}, \"matched\": {}, \"length\": {}, \"mismatch\": ",
                c.size, c.lm, c.complete, c.matched, c.length
            );
            match c.mismatch {
                Some(m) => {
                    let _ = write!(out, "{m}");
                }
                None => out.push_str("null"),
            }
            out.push_str(", \"slack\": ");
            match c.slack {
                Some(s) => {
                    let _ = write!(out, "{s}");
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        if !self.clusters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        // -- counters + histograms -----------------------------------------
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            crate::export::push_json_string(&mut out, name);
            let _ = write!(out, ": {v}");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            crate::export::push_json_string(&mut out, name);
            out.push_str(": ");
            render_hist(&mut out, h);
        }
        out.push('}');
        out
    }

    /// Parses a digest back from its [`RunDigest::to_json`] form.
    ///
    /// Older digests still parse: outcome keys beyond the seven quality
    /// fields (the negotiation and escape tallies, which the counters
    /// hold) are ignored, and a `wall.work_counters` or
    /// `wall.work_histograms` map (where `astar.*` totals used to live)
    /// is merged into `counters` or `histograms`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: invalid
    /// JSON, a wrong/missing schema tag, or a missing required field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = crate::json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != DIGEST_SCHEMA {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let fp = v.get("fingerprint").ok_or("missing fingerprint")?;
        let fingerprint = Fingerprint {
            chip: fp
                .get("chip")
                .and_then(Json::as_str)
                .ok_or("fingerprint.chip")?
                .to_string(),
            chip_hash: fp
                .get("chip_hash")
                .and_then(Json::as_u64)
                .ok_or("fingerprint.chip_hash")?,
            config: fp
                .get("config")
                .and_then(Json::as_obj)
                .ok_or("fingerprint.config")?
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("fingerprint.config.{k} is not a string"))
                })
                .collect::<Result<_, _>>()?,
        };
        let ou = v.get("outcome").ok_or("missing outcome")?;
        let u = |key: &str| -> Result<u64, String> {
            ou.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("outcome.{key}"))
        };
        let outcome = Outcome {
            completion_milli: u("completion_milli")?,
            total_length: u("total_length")?,
            matched_clusters: u("matched_clusters")?,
            matched_length: u("matched_length")?,
            clusters_multi: u("clusters_multi")?,
            valves_routed: u("valves_routed")?,
            valves_total: u("valves_total")?,
        };
        let clusters = v
            .get("clusters")
            .and_then(Json::as_arr)
            .ok_or("missing clusters")?
            .iter()
            .map(|c| {
                let cu = |key: &str| -> Result<u64, String> {
                    c.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("clusters[].{key}"))
                };
                let cb = |key: &str| -> Result<bool, String> {
                    c.get(key)
                        .and_then(Json::as_bool)
                        .ok_or_else(|| format!("clusters[].{key}"))
                };
                Ok(ClusterDigest {
                    size: cu("size")?,
                    lm: cb("lm")?,
                    complete: cb("complete")?,
                    matched: cb("matched")?,
                    length: cu("length")?,
                    mismatch: c.get("mismatch").and_then(Json::as_u64),
                    slack: c.get("slack").and_then(Json::as_i64),
                })
            })
            .collect::<Result<_, String>>()?;
        let mut counters = parse_counter_map(v.get("counters").ok_or("missing counters")?)?;
        let mut histograms = parse_hist_map(v.get("histograms").ok_or("missing histograms")?)?;
        let w = v.get("wall").ok_or("missing wall")?;
        if let Some(old) = w.get("work_counters") {
            counters.extend(parse_counter_map(old)?);
            counters.sort_by(|a, b| a.0.cmp(&b.0));
        }
        if let Some(old) = w.get("work_histograms") {
            histograms.extend(parse_hist_map(old)?);
            histograms.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let wall = WallFacts {
            wall_ms: w
                .get("wall_ms")
                .and_then(Json::as_f64)
                .ok_or("wall.wall_ms")?,
            spans: parse_spans(w.get("spans").ok_or("wall.spans")?)?,
        };
        Ok(RunDigest {
            fingerprint,
            outcome,
            clusters,
            counters,
            histograms,
            wall,
        })
    }
}

fn parse_counter_map(v: &Json) -> Result<Vec<(String, u64)>, String> {
    v.as_obj()
        .ok_or("counter map is not an object")?
        .iter()
        .map(|(k, val)| {
            val.as_u64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("counter {k} is not a u64"))
        })
        .collect()
}

fn parse_hist_map(v: &Json) -> Result<Vec<(String, HistogramSummary)>, String> {
    v.as_obj()
        .ok_or("histogram map is not an object")?
        .iter()
        .map(|(k, val)| {
            let f = |key: &str| -> Result<u64, String> {
                val.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("histogram {k}.{key}"))
            };
            Ok((
                k.clone(),
                HistogramSummary {
                    count: f("count")?,
                    sum: f("sum")?,
                    min: f("min")?,
                    max: f("max")?,
                    p50: f("p50")?,
                    p95: f("p95")?,
                    p99: f("p99")?,
                },
            ))
        })
        .collect()
}

fn parse_spans(v: &Json) -> Result<Vec<SpanNode>, String> {
    v.as_arr()
        .ok_or("spans is not an array")?
        .iter()
        .map(|s| {
            let f = |key: &str| -> Result<u64, String> {
                s.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("span.{key}"))
            };
            Ok(SpanNode {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span.name")?
                    .to_string(),
                count: f("count")?,
                incl_us: f("incl_us")?,
                excl_us: f("excl_us")?,
                children: parse_spans(s.get("children").ok_or("span.children")?)?,
            })
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_digest() -> RunDigest {
        RunDigest {
            fingerprint: Fingerprint {
                chip: "T1".into(),
                chip_hash: 0xdead_beef,
                config: vec![
                    ("variant".into(), "PACOR".into()),
                    ("lambda".into(), "0.1".into()),
                ],
            },
            outcome: Outcome {
                completion_milli: 1000,
                total_length: 148,
                matched_clusters: 3,
                matched_length: 90,
                clusters_multi: 4,
                valves_routed: 12,
                valves_total: 12,
            },
            clusters: vec![
                ClusterDigest {
                    size: 3,
                    lm: true,
                    complete: true,
                    matched: true,
                    length: 30,
                    mismatch: Some(0),
                    slack: Some(1),
                },
                ClusterDigest {
                    size: 1,
                    lm: false,
                    complete: true,
                    matched: false,
                    length: 5,
                    mismatch: None,
                    slack: None,
                },
            ],
            counters: vec![
                ("astar.expansions".into(), 999),
                ("detour.segments".into(), 3),
                ("negotiate.rounds".into(), 2),
            ],
            histograms: vec![(
                "dme.candidates".into(),
                HistogramSummary {
                    count: 4,
                    sum: 12,
                    min: 1,
                    max: 6,
                    p50: 2,
                    p95: 6,
                    p99: 6,
                },
            )],
            wall: WallFacts {
                wall_ms: 12.345,
                spans: vec![SpanNode {
                    name: "stage.escape".into(),
                    count: 1,
                    incl_us: 5000,
                    excl_us: 3000,
                    children: vec![SpanNode {
                        name: "escape.net_solve".into(),
                        count: 2,
                        incl_us: 2000,
                        excl_us: 2000,
                        children: vec![],
                    }],
                }],
            },
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let d = sample_digest();
        let text = d.to_json();
        let back = RunDigest::from_json(&text).expect("parses");
        assert_eq!(back, d, "round-trip drift in: {text}");
    }

    #[test]
    fn digests_with_retired_wall_labels_still_parse() {
        // Digests written while the rip-up policy was selectable open
        // `wall` with `policy`; those written while the escape solver
        // and the routing mode were selectable also carry
        // `wall.escape_solver` and `wall.routing`, and those written
        // while the thread count was configurable `threads`.
        let d = sample_digest();
        let text = d.to_json();
        for retired in [
            "\"policy\": \"full\", ",
            "\"policy\": \"incremental\", \"escape_solver\": \"incremental\", \"routing\": \"hierarchical\", ",
            "\"threads\": 4, \"policy\": \"incremental\", ",
        ] {
            let old = text.replacen("\"wall\": {", &format!("\"wall\": {{{retired}"), 1);
            assert_ne!(old, text, "wall object present");
            assert_eq!(RunDigest::from_json(&old).expect("parses"), d, "{retired}");
        }
    }

    #[test]
    fn digests_with_outcome_tallies_and_work_maps_still_parse() {
        // Older digests repeat five counter totals in `outcome` and keep
        // the `astar.*` totals in `wall.work_counters` and
        // `wall.work_histograms`: the tallies are dropped and the maps
        // merge back into `counters` and `histograms`, name-sorted.
        let mut d = sample_digest();
        let path_len = HistogramSummary {
            count: 1,
            sum: 5,
            min: 5,
            max: 5,
            p50: 5,
            p95: 5,
            p99: 5,
        };
        d.histograms.insert(0, ("astar.path_len".into(), path_len));
        let hist = "\"astar.path_len\": {\"count\": 1, \"sum\": 5, \"min\": 5, \"max\": 5, \"p50\": 5, \"p95\": 5, \"p99\": 5}";
        let tallies = "\"rounds\": 2, \"ripups\": 0, \"escape_rounds\": 1, \"escape_declustered\": 0, \"escape_ripped\": 0";
        let work = format!(
            "\"work_counters\": {{\"astar.expansions\": 999}}, \"work_histograms\": {{{hist}}}"
        );
        let mut old = d.to_json();
        for (from, to) in [
            (
                "\"valves_total\": 12}".to_string(),
                format!("\"valves_total\": 12, {tallies}}}"),
            ),
            ("\"astar.expansions\": 999, ".to_string(), String::new()),
            (format!("{hist}, "), String::new()),
            (
                "\"wall_ms\": 12.345, ".to_string(),
                format!("\"wall_ms\": 12.345, {work}, "),
            ),
        ] {
            assert!(old.contains(&from), "{from} in {old}");
            old = old.replacen(&from, &to, 1);
        }
        assert_eq!(RunDigest::from_json(&old).expect("parses"), d, "{old}");
    }

    #[test]
    fn wall_is_rendered_last_and_outside_the_deterministic_part() {
        let d = sample_digest();
        let full = d.to_json();
        let wall_at = full.find("\"wall\"").expect("wall present");
        assert!(
            full[wall_at..].find("\"outcome\"").is_none(),
            "nothing deterministic may follow wall"
        );
        let det = d.deterministic_json();
        let body = det.strip_suffix("\n}\n").expect("a closed document");
        assert!(
            full.starts_with(&format!("{body},\n  \"wall\": {{")),
            "the full document is the deterministic one plus wall: {det}"
        );
        assert!(!det.contains("\"wall\""));
        assert!(!det.contains("wall_ms"));
        let mut other = d.clone();
        other.wall.wall_ms = 99999.0;
        other.wall.spans.clear();
        assert_eq!(det, other.deterministic_json());
    }

    #[test]
    fn span_tree_reconstructs_nesting_and_exclusive_time() {
        // Close-ordered stream: child (10..40) closes before parent
        // (0..100); a second root of the same name must merge with it.
        let events = vec![
            TraceEvent::Span {
                name: "inner",
                ts: 10,
                dur: 30,
                args: vec![],
            },
            TraceEvent::Span {
                name: "outer",
                ts: 0,
                dur: 100,
                args: vec![],
            },
            TraceEvent::Span {
                name: "outer",
                ts: 100,
                dur: 50,
                args: vec![],
            },
        ];
        let tree = span_tree(&events);
        assert_eq!(tree.len(), 1);
        let outer = &tree[0];
        assert_eq!((outer.name.as_str(), outer.count), ("outer", 2));
        assert_eq!(outer.incl_us, 150);
        assert_eq!(outer.excl_us, 120, "30 µs belong to the child");
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].incl_us, 30);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn span_walk_yields_slash_paths() {
        let d = sample_digest();
        let mut paths = Vec::new();
        for s in &d.wall.spans {
            s.walk("", &mut |p, _| paths.push(p));
        }
        assert_eq!(paths, vec!["stage.escape", "stage.escape/escape.net_solve"]);
    }
}
