//! Post-mortem report generation from a [`FlightLog`].
//!
//! [`post_mortem_json`] distills a drained flight recorder into a
//! diagnostic JSON document: which nets stayed unrouted and what walled
//! them in, the most-contended nets, the hottest cells and history-cost
//! percentiles, and the escape-stage bottleneck cells. It keeps only
//! totals that no counter holds; the run digest carries the outcome,
//! the per-cluster verdicts and every counter. [`render_heatmap`] draws
//! the same congestion data as an ASCII grid for terminal triage.
//!
//! # Determinism
//!
//! Both outputs are pure functions of the log. Because emit sites live
//! only at the flow's deterministic commit points, the bytes repeat
//! run to run.

use crate::recorder::{FlightLog, SnapshotKind};
use crate::Event;
use crate::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write;

/// How many entries the ranked lists (hot cells, contended nets,
/// bottleneck cells) keep.
const TOP_K: usize = 10;

/// Frontier-cell cap per unrouted net in the report.
const FRONTIER_K: usize = 8;

#[derive(Default)]
struct NetStats {
    attempts: u64,
    failures: u64,
    ripups: u64,
    last_round: u32,
}

/// Renders the post-mortem diagnostic report as a deterministic,
/// pretty-printed JSON document (see module docs for the guarantees).
pub fn post_mortem_json(log: &FlightLog) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"pacor-postmortem-v2\",");

    // Per-net and aggregate negotiation statistics.
    let mut nets: BTreeMap<u32, NetStats> = BTreeMap::new();
    let mut ripups_by_reason: BTreeMap<&'static str, u64> = BTreeMap::new();
    // (cluster id, valves, lm) of every cluster that stayed unrouted.
    let mut unrouted: Vec<(u32, u32, bool)> = Vec::new();
    let mut escape_failed = 0u64;
    // (blocked cluster id) -> the walls around its pocket.
    let mut blocked: BTreeMap<u32, &Event> = BTreeMap::new();
    // (y, x) -> number of EscapeBlocked frontiers the cell appears in.
    let mut bottleneck: BTreeMap<(i32, i32), u64> = BTreeMap::new();

    for event in log.events() {
        match event {
            Event::NetAttempt {
                round, net, routed, ..
            } => {
                let s = nets.entry(*net).or_default();
                s.attempts += 1;
                if !routed {
                    s.failures += 1;
                }
                s.last_round = s.last_round.max(*round);
            }
            Event::RipUp { net, reason, .. } => {
                nets.entry(*net).or_default().ripups += 1;
                *ripups_by_reason.entry(reason.label()).or_default() += 1;
            }
            Event::ClusterOutcome {
                cluster,
                valves,
                lm,
                complete: false,
            } => unrouted.push((*cluster, *valves, *lm)),
            Event::EscapeFailed { .. } => escape_failed += 1,
            Event::EscapeBlocked {
                cluster, frontier, ..
            } => {
                blocked.insert(*cluster, event);
                for cell in frontier {
                    *bottleneck.entry((cell.y, cell.x)).or_default() += 1;
                }
            }
            // The rest carry no evidence of their own (stream kinds
            // never reach the ring).
            _ => {}
        }
    }
    unrouted.sort_by_key(|&(cluster, ..)| cluster);

    // -- unrouted nets with their escape walls ------------------------
    out.push_str("  \"unrouted_nets\": [");
    for (i, &(cluster, valves, lm)) in unrouted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"cluster\": {cluster}, \"valves\": {valves}, \"lm\": {lm}"
        );
        if let Some(Event::EscapeBlocked {
            pocket,
            blockers,
            frontier,
            ..
        }) = blocked.get(&cluster)
        {
            let _ = write!(
                out,
                ", \"pocket_cells\": {pocket}, \"blockers\": {}, \"contended_cells\": [",
                json_u32_list(blockers)
            );
            for (j, cell) in frontier.iter().take(FRONTIER_K).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"x\": {}, \"y\": {}, \"owner\": {}}}",
                    cell.x, cell.y, cell.owner
                );
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("\n  ],\n");

    // -- negotiation totals that no counter holds ---------------------
    let attempts: u64 = nets.values().map(|s| s.attempts).sum();
    let failures: u64 = nets.values().map(|s| s.failures).sum();
    let _ = write!(
        out,
        "  \"negotiation\": {{\"sessions\": {}, \"attempts\": {attempts}, \"failed_attempts\": {failures}, \"ripups_by_reason\": {{",
        log.sessions()
    );
    for (i, (label, n)) in ripups_by_reason.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{label}\": {n}");
    }
    out.push_str("}},\n");

    // -- most-contended nets ------------------------------------------
    let mut contended: Vec<(&u32, &NetStats)> = nets
        .iter()
        .filter(|(_, s)| s.failures + s.ripups > 0)
        .collect();
    contended.sort_by(|a, b| (b.1.failures, b.1.ripups, a.0).cmp(&(a.1.failures, a.1.ripups, b.0)));
    out.push_str("  \"contended_nets\": [");
    for (i, (net, s)) in contended.iter().take(TOP_K).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"net\": {net}, \"failures\": {}, \"ripups\": {}, \"last_round\": {}}}",
            s.failures, s.ripups, s.last_round
        );
    }
    out.push_str("\n  ],\n");

    // -- history heat: percentiles + hottest cells --------------------
    let heat_snapshot = log
        .snapshots()
        .iter()
        .rev()
        .find(|s| s.kind == SnapshotKind::Round && !s.heat_milli.is_empty());
    let mut heat_hist = Histogram::default();
    let mut hot: Vec<(u32, u32, u32)> = Vec::new(); // (heat, y, x)
    if let Some(snap) = heat_snapshot {
        for (i, &h) in snap.heat_milli.iter().enumerate() {
            if h > 0 {
                heat_hist.observe(h as u64);
                hot.push((h, i as u32 / snap.width, i as u32 % snap.width));
            }
        }
    }
    hot.sort_by(|a, b| (b.0, a.1, a.2).cmp(&(a.0, b.1, b.2)));
    let _ = writeln!(
        out,
        "  \"history\": {{\"hot_cells\": {}, \"p50_milli\": {}, \"p95_milli\": {}, \"p99_milli\": {}, \"max_milli\": {}}},",
        heat_hist.count(),
        heat_hist.p50(),
        heat_hist.p95(),
        heat_hist.p99(),
        heat_hist.max()
    );
    out.push_str("  \"hot_cells\": [");
    for (i, (h, y, x)) in hot.iter().take(TOP_K).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {{\"x\": {x}, \"y\": {y}, \"heat_milli\": {h}}}");
    }
    out.push_str("\n  ],\n");

    // -- escape bottlenecks -------------------------------------------
    let mut walls: Vec<(&(i32, i32), &u64)> = bottleneck.iter().collect();
    walls.sort_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
    let _ = write!(
        out,
        "  \"escape\": {{\"failed\": {escape_failed}, \"bottleneck_cells\": ["
    );
    for (i, ((y, x), n)) in walls.iter().take(TOP_K).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"x\": {x}, \"y\": {y}, \"blocking\": {n}}}");
    }
    out.push_str("]},\n");

    // -- recorder health ----------------------------------------------
    let _ = writeln!(
        out,
        "  \"snapshots\": {{\"recorded\": {}, \"dropped\": {}}},",
        log.snapshots().len(),
        log.dropped_snapshots()
    );
    let _ = writeln!(out, "  \"dropped_events\": {}", log.dropped_events());
    out.push_str("}\n");
    out
}

fn json_u32_list(values: &[u32]) -> String {
    let mut s = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
    s
}

/// Renders the log's congestion data as an ASCII heatmap.
///
/// Occupancy comes from the latest snapshot (the final one when the
/// flow completed), history heat from the latest mid-negotiation
/// snapshot, and cells on an escape-blocking frontier are marked `B`.
/// `#` is an occupied cell, `.` a free one, digits `1`–`9` scale the
/// relative history heat of free cells.
pub fn render_heatmap(log: &FlightLog) -> String {
    let Some(occ) = log.snapshots().last() else {
        return String::from("(no congestion snapshots recorded)\n");
    };
    let heat = log
        .snapshots()
        .iter()
        .rev()
        .find(|s| s.kind == SnapshotKind::Round && !s.heat_milli.is_empty());
    let (w, h) = (occ.width as usize, occ.height as usize);
    let max_heat = heat
        .map(|s| s.heat_milli.iter().copied().max().unwrap_or(0))
        .unwrap_or(0);
    let mut walls: Vec<(i32, i32)> = Vec::new();
    for event in log.events() {
        if let Event::EscapeBlocked { frontier, .. } = event {
            walls.extend(frontier.iter().map(|c| (c.x, c.y)));
        }
    }
    walls.sort_unstable();
    walls.dedup();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "congestion heatmap {w}x{h} ({}, max heat {max_heat} milli)",
        match occ.kind {
            SnapshotKind::Final => String::from("final occupancy"),
            SnapshotKind::Round => format!("session {} round {}", occ.session, occ.round),
        }
    );
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            let cell_heat = heat.and_then(|s| s.heat_milli.get(i).copied()).unwrap_or(0);
            let c = if walls.binary_search(&(x as i32, y as i32)).is_ok() {
                'B'
            } else if occ.occupancy.get(i).copied().unwrap_or(0) != 0 {
                '#'
            } else if cell_heat > 0 && max_heat > 0 {
                let level = 1 + (cell_heat as u64 * 8 / max_heat as u64).min(8);
                char::from_digit(level as u32, 10).unwrap_or('9')
            } else {
                '.'
            };
            out.push(c);
        }
        out.push('\n');
    }
    out.push_str("legend: '#' occupied  'B' escape-blocking  '.' free  1-9 history heat\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{flight_install, flight_snapshot, flight_take, RecorderConfig};
    use crate::{emit, negotiation_start, CongestionSnapshot, FrontierCell, RipReason};

    fn sample_log() -> FlightLog {
        flight_install(RecorderConfig::default());
        let s = negotiation_start(2);
        for (net, routed) in [(4u32, true), (9u32, false)] {
            emit(Event::NetAttempt {
                session: s,
                round: 1,
                net,
                routed,
                length: if routed { 11 } else { 0 },
                expanded: 20,
                flood: if routed { 0 } else { 5 },
            });
        }
        emit(Event::RipUp {
            session: s,
            round: 1,
            net: 4,
            reason: RipReason::ContendedWall,
        });
        flight_snapshot(CongestionSnapshot {
            kind: SnapshotKind::Round,
            session: s,
            round: 1,
            width: 3,
            height: 2,
            occupancy: vec![1, 0, 0, 0, 1, 0],
            heat_milli: vec![0, 1500, 0, 0, 300, 0],
        });
        emit(Event::EscapeBlocked {
            cluster: 9,
            pocket: 4,
            blockers: vec![4],
            frontier: vec![FrontierCell {
                x: 1,
                y: 0,
                owner: 4,
            }],
        });
        for (cluster, complete) in [(4u32, true), (9u32, false)] {
            emit(Event::ClusterOutcome {
                cluster,
                valves: 2,
                lm: true,
                complete,
            });
        }
        flight_snapshot(CongestionSnapshot {
            kind: SnapshotKind::Final,
            session: 0,
            round: 0,
            width: 3,
            height: 2,
            occupancy: vec![1, 1, 0, 0, 1, 0],
            heat_milli: Vec::new(),
        });
        flight_take().unwrap()
    }

    #[test]
    fn post_mortem_names_unrouted_nets_and_walls() {
        let log = sample_log();
        let json = post_mortem_json(&log);
        assert!(
            json.contains("\"schema\": \"pacor-postmortem-v2\""),
            "{json}"
        );
        // Only the failed cluster is named, with the walls of its pocket.
        assert!(
            json.contains(
                "\"unrouted_nets\": [\n    {\"cluster\": 9, \"valves\": 2, \"lm\": true,"
            ),
            "{json}"
        );
        assert!(!json.contains("\"cluster\": 4"), "{json}");
        assert!(json.contains("\"pocket_cells\": 4"), "{json}");
        assert!(json.contains("\"blockers\": [4]"), "{json}");
        assert!(
            json.contains("{\"x\": 1, \"y\": 0, \"owner\": 4}"),
            "{json}"
        );
        assert!(json.contains("\"contended_wall\": 1"), "{json}");
        assert!(json.contains("\"max_milli\": 1500"), "{json}");
        // The hottest cell leads the ranking.
        assert!(
            json.contains("{\"x\": 1, \"y\": 0, \"heat_milli\": 1500}"),
            "{json}"
        );
    }

    #[test]
    fn post_mortem_is_a_pure_function_of_the_log() {
        let log = sample_log();
        assert_eq!(post_mortem_json(&log), post_mortem_json(&log));
        let log2 = sample_log();
        assert_eq!(post_mortem_json(&log), post_mortem_json(&log2));
    }

    #[test]
    fn heatmap_renders_grid_with_markers() {
        let log = sample_log();
        let map = render_heatmap(&log);
        // 3x2 grid: row 0 is "#B." (occupied, escape wall, free) and
        // row 1 shows the milder heat on the occupied centre cell.
        assert!(map.contains("congestion heatmap 3x2"), "{map}");
        assert!(map.contains("#B.\n.#.\n"), "{map}");
        assert!(map.contains("legend:"), "{map}");
    }

    #[test]
    fn heatmap_without_snapshots_degrades_gracefully() {
        flight_install(RecorderConfig::default());
        let log = flight_take().unwrap();
        assert_eq!(render_heatmap(&log), "(no congestion snapshots recorded)\n");
    }
}
