//! Post-mortem report generation from a [`FlightLog`].
//!
//! [`post_mortem_json`] distills a drained flight recorder into a
//! diagnostic JSON document: which nets stayed unrouted and what walled
//! them in, the most-contended nets, the hottest cells and history-cost
//! percentiles, per-cluster LM slack against the δ window, and the
//! escape-stage bottleneck cells. [`render_heatmap`] draws the same
//! congestion data as an ASCII grid for terminal triage.
//!
//! # Determinism
//!
//! Both outputs are pure functions of the log. Because emit sites live
//! only at the flow's deterministic commit points, the bytes repeat
//! run to run. Across rip-up policies the
//! report is identical whenever the policies produce the same routed
//! state (they provably coincide while every negotiation session
//! converges without a failed round).

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
    let _ = writeln!(out, "  \"schema\": \"pacor-postmortem-v1\",");

    // Per-net and aggregate negotiation statistics.
    let mut nets: BTreeMap<u32, NetStats> = BTreeMap::new();
    let mut ripups_by_reason: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut outcomes: Vec<&Event> = Vec::new();
    let mut escape_failed = 0u64;
    let mut declustered = 0u64;
    let mut escape_rips = 0u64;
    let mut detour_segments = 0u64;
    let mut detour_added = 0u64;
    let mut mst_commits = 0u64;
    let mut mst_splits = 0u64;
    // (blocked cluster id) -> the walls around its pocket.
    let mut blocked: BTreeMap<u32, &Event> = BTreeMap::new();
    // (y, x) -> number of EscapeBlocked frontiers the cell appears in.
    let mut bottleneck: BTreeMap<(i32, i32), u64> = BTreeMap::new();
    // Session id of the last round seen per session, to count rounds.
    let mut session_rounds: BTreeMap<u32, u32> = BTreeMap::new();

    for event in log.events() {
        match event {
            Event::NetAttempt {
                session,
                round,
                net,
                routed,
                ..
            } => {
                let s = nets.entry(*net).or_default();
                s.attempts += 1;
                if !routed {
                    s.failures += 1;
                }
                s.last_round = s.last_round.max(*round);
                let r = session_rounds.entry(*session).or_default();
                *r = (*r).max(*round);
            }
            Event::RipUp { net, reason, .. } => {
                nets.entry(*net).or_default().ripups += 1;
                *ripups_by_reason.entry(reason.label()).or_default() += 1;
            }
            Event::ClusterOutcome { .. } => outcomes.push(event),
            Event::EscapeFailed { .. } => escape_failed += 1,
            Event::Declustered { .. } => declustered += 1,
            Event::EscapeRip { .. } => escape_rips += 1,
            Event::EscapeBlocked {
                cluster, frontier, ..
            } => {
                blocked.insert(*cluster, event);
                for cell in frontier {
                    *bottleneck.entry((cell.y, cell.x)).or_default() += 1;
                }
            }
            Event::DetourSegment { added, .. } => {
                detour_segments += 1;
                detour_added += added;
            }
            Event::MstCommit { .. } => mst_commits += 1,
            Event::MstSplit { .. } => mst_splits += 1,
            // The rest carry no aggregate of their own (stream kinds
            // never reach the ring).
            _ => {}
        }
    }
    let rounds: u64 = session_rounds.values().map(|&r| r as u64).sum();

    // -- outcome ------------------------------------------------------
    let mut unrouted: Vec<u32> = Vec::new();
    let mut complete = 0u64;
    let mut matched = 0u64;
    let mut lm_total = 0u64;
    let mut total_length = 0u64;
    for o in &outcomes {
        if let Event::ClusterOutcome {
            cluster,
            lm,
            complete: c,
            matched: m,
            length,
            ..
        } = o
        {
            if *c {
                complete += 1;
            } else {
                unrouted.push(*cluster);
            }
            if *m {
                matched += 1;
            }
            if *lm {
                lm_total += 1;
            }
            total_length += length;
        }
    }
    unrouted.sort_unstable();
    let _ = writeln!(
        out,
        "  \"outcome\": {{\"clusters\": {}, \"complete\": {complete}, \"unrouted\": {}, \"lm_clusters\": {lm_total}, \"matched\": {matched}, \"total_length\": {total_length}}},",
        outcomes.len(),
        json_u32_list(&unrouted)
    );

    // -- unrouted nets with their escape walls ------------------------
    out.push_str("  \"unrouted_nets\": [");
    for (i, &cluster) in unrouted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (valves, lm) = outcomes
            .iter()
            .find_map(|o| match o {
                Event::ClusterOutcome {
                    cluster: c,
                    valves,
                    lm,
                    ..
                } if *c == cluster => Some((*valves, *lm)),
                _ => None,
            })
            .unwrap_or((0, false));
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

    // -- negotiation aggregates ---------------------------------------
    let attempts: u64 = nets.values().map(|s| s.attempts).sum();
    let failures: u64 = nets.values().map(|s| s.failures).sum();
    let total_ripups: u64 = nets.values().map(|s| s.ripups).sum();
    let _ = write!(
        out,
        "  \"negotiation\": {{\"sessions\": {}, \"rounds\": {rounds}, \"attempts\": {attempts}, \"failed_attempts\": {failures}, \"ripups\": {total_ripups}, \"ripups_by_reason\": {{",
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

    // -- per-cluster LM slack vs the δ window -------------------------
    out.push_str("  \"lm_clusters\": [");
    let mut first = true;
    for o in &outcomes {
        if let Event::ClusterOutcome {
            cluster,
            lm: true,
            matched,
            length,
            mismatch,
            delta,
            ..
        } = o
        {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"cluster\": {cluster}, \"length\": {length}, \"delta\": {delta}, \"mismatch\": "
            );
            match mismatch {
                Some(m) => {
                    let _ = write!(out, "{m}, \"slack\": {}", *delta as i64 - *m as i64);
                }
                None => out.push_str("null, \"slack\": null"),
            }
            let _ = write!(out, ", \"matched\": {matched}}}");
        }
    }
    out.push_str("\n  ],\n");

    // -- escape bottlenecks -------------------------------------------
    let mut walls: Vec<(&(i32, i32), &u64)> = bottleneck.iter().collect();
    walls.sort_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
    let _ = write!(
        out,
        "  \"escape\": {{\"failed\": {escape_failed}, \"declustered\": {declustered}, \"ripped\": {escape_rips}, \"bottleneck_cells\": ["
    );
    for (i, ((y, x), n)) in walls.iter().take(TOP_K).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"x\": {x}, \"y\": {y}, \"blocking\": {n}}}");
    }
    out.push_str("]},\n");

    // -- remaining aggregates -----------------------------------------
    let _ = writeln!(
        out,
        "  \"detour\": {{\"segments\": {detour_segments}, \"added_length\": {detour_added}}},"
    );
    let _ = writeln!(
        out,
        "  \"mst\": {{\"commits\": {mst_commits}, \"splits\": {mst_splits}}},"
    );
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
                matched: complete,
                length: if complete { 11 } else { 0 },
                mismatch: if complete { Some(0) } else { None },
                delta: 1,
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
        assert!(json.contains("\"unrouted\": [9]"), "{json}");
        assert!(json.contains("\"pocket_cells\": 4"), "{json}");
        assert!(json.contains("\"blockers\": [4]"), "{json}");
        assert!(
            json.contains("{\"x\": 1, \"y\": 0, \"owner\": 4}"),
            "{json}"
        );
        assert!(json.contains("\"contended_wall\": 1"), "{json}");
        assert!(json.contains("\"slack\": 1"), "{json}");
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
