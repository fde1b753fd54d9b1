//! Escape routing with rip-up and de-clustering (paper Sections 3 and 5),
//! in three escalating phases:
//!
//! 1. **Global rounds** — rip every escape and re-solve the whole
//!    min-cost flow so early winners cannot starve late arrivals;
//!    failed multi-valve clusters are *de-clustered* into singletons
//!    (their internal nets ripped), trading matching for routability.
//! 2. **Incremental recovery** — committed escapes stay put; a failed
//!    singleton flood-fills to its blocking frontier, rips the walling
//!    clusters (length-matching clusters only when no unconstrained
//!    blocker exists — the paper's "higher rip-up cost"), claims the
//!    freed corridor alone, and the victims re-route behind temporary
//!    pocket guards so a deterministic router cannot rebuild the wall.
//!    Valve cells are never attributed as rippable and each cluster is
//!    ripped at most three times (cycle breaker).
//! 3. **Last resort** — every round rips all escapes, re-solves
//!    globally, and de-clusters every multi-valve net still walling a
//!    failure (analysis runs in the escape-free state, so every wall
//!    found is an internal net). Strictly reduces the multi-cluster
//!    count, so it provably reaches the max-completion state.

use crate::lm_routing::reroute_lm_cluster;
use crate::mst_routing::route_mst_cluster;
use crate::{FlowConfig, RoutedCluster, RoutedKind};
use pacor_flow::{EscapeOutcome, EscapeSource, GridEscape};
use pacor_grid::{GridPath, ObsMap, Point};
use pacor_valves::{Cluster, ClusterId};
use std::collections::{HashMap, HashSet, VecDeque};

/// Statistics of the escape stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EscapeStats {
    /// Rip-up / de-clustering rounds executed (≥ 1).
    pub rounds: u32,
    /// Clusters de-clustered to singletons along the way.
    pub declustered: usize,
    /// Blocking clusters ripped up and re-routed.
    pub ripped: usize,
}

/// Valves whose cluster currently holds an escape — escape progress in
/// the objective's units (cluster counts change as de-clustering splits
/// clusters).
fn valves_escaped(routed: &[RoutedCluster]) -> u64 {
    routed
        .iter()
        .filter(|rc| rc.escape.is_some())
        .map(|rc| rc.cluster.len() as u64)
        .sum()
}

/// One cold min-cost-flow solve over the current obstacle map, inside
/// the span `name`, counting its searches and node labels.
fn solve(
    solver: &mut GridEscape,
    obs: &ObsMap,
    sources: &[EscapeSource],
    pins: &[Point],
    name: &'static str,
) -> EscapeOutcome {
    let _s = pacor_obs::span(name);
    let outcome = solver.solve(obs, sources, pins);
    pacor_obs::counter_add("escape.dijkstras", outcome.work.dijkstras);
    pacor_obs::counter_add("escape.touched", outcome.work.touched);
    outcome
}

/// Records an escape route and blocks its cells. Cell 0 lies on the
/// cluster net, which is already blocked.
fn commit(obs: &mut ObsMap, rc: &mut RoutedCluster, (path, pin): (GridPath, Point)) {
    obs.block_all(path.cells().iter().skip(1).copied());
    rc.commit_escape(path, pin);
}

/// Takes every committed escape back and frees its cells past cell 0.
fn rip_all_escapes(obs: &mut ObsMap, routed: &mut [RoutedCluster]) {
    for rc in routed.iter_mut() {
        if let Some((esc, _)) = rc.escape.take() {
            obs.unblock_all(esc.cells().iter().skip(1).copied());
        }
    }
}

/// Dissolves a multi-valve cluster into singletons, appended to `routed`
/// with fresh ids from `next_id`; its valve cells stay blocked.
/// `free_nets` unblocks its internal nets. A rip-up victim passes
/// `false`: its nets were freed at rip time, and victims re-routed
/// since may hold those cells.
fn decluster(
    obs: &mut ObsMap,
    routed: &mut Vec<RoutedCluster>,
    rc: RoutedCluster,
    free_nets: bool,
    next_id: &mut u32,
    stats: &mut EscapeStats,
) {
    stats.declustered += 1;
    pacor_obs::counter_add("escape.declustered", 1);
    pacor_obs::flight(|| pacor_obs::FlightEvent::Declustered {
        cluster: rc.cluster.id().0,
    });
    if free_nets {
        obs.unblock_all(rc.net_cells());
    }
    for (&m, &pos) in rc.cluster.members().iter().zip(&rc.member_positions) {
        obs.block(pos);
        routed.push(singleton(ClusterId(*next_id), m, pos));
        *next_id += 1;
    }
}

/// Connects every routed cluster to a control pin; see the module docs
/// for the recovery mechanics. On return, successful escape paths are
/// recorded in each cluster and blocked in `obs`; `routed` may contain
/// more clusters than it started with (splits). New cluster ids are
/// assigned from `next_id`.
pub fn escape_all(
    obs: &mut ObsMap,
    routed: &mut Vec<RoutedCluster>,
    pins: &[Point],
    config: &FlowConfig,
    next_id: &mut u32,
) -> EscapeStats {
    let mut solver = GridEscape::new();
    let mut stats = EscapeStats::default();
    // Anti-thrash: how often each cluster id has been ripped. A cluster
    // ripped three times becomes off-limits to further rip-up — two nets
    // cyclically evicting each other would otherwise burn every round.
    // Ids are dense from `next_id`, so a flat id-indexed vec suffices.
    let mut rip_counts: Vec<u32> = Vec::new();

    // ---- Phase 1: global rounds ---------------------------------------
    // Rip every escape and re-solve the whole min-cost flow, so early
    // winners cannot starve late-declustered valves; recover multi-valve
    // failures by de-clustering.
    let phase_span = pacor_obs::span("escape.phase1");
    for _ in 0..config.max_ripup_rounds {
        stats.rounds += 1;
        pacor_obs::counter_add("escape.rounds", 1);
        rip_all_escapes(obs, routed);
        let n_sources = routed.len();
        let sources: Vec<_> = routed.iter().map(|rc| rc.escape_source()).collect();
        let outcome = solve(&mut solver, obs, &sources, pins, "escape.net_solve");
        let mut failed: Vec<usize> = Vec::new();
        for (i, route) in outcome.routes.into_iter().enumerate() {
            match route {
                Some(route) => commit(obs, &mut routed[i], route),
                None => failed.push(i),
            }
        }
        pacor_obs::progress(|| pacor_obs::ProgressEvent::EscapeProgress {
            phase: 1,
            round: stats.rounds,
            pending: n_sources as u64,
            failed: failed.len() as u64,
            valves_routed: valves_escaped(routed),
            declustered: stats.declustered as u64,
            ripped: stats.ripped as u64,
        });
        if failed.is_empty() {
            return stats;
        }
        for &i in &failed {
            pacor_obs::instant(
                "escape.phase1_failed",
                &[
                    ("round", stats.rounds as u64),
                    ("cluster", routed[i].cluster.id().0 as u64),
                ],
            );
            pacor_obs::flight(|| pacor_obs::FlightEvent::EscapeFailed {
                phase: 1,
                round: stats.rounds,
                cluster: routed[i].cluster.id().0,
            });
        }
        let mut any_multi = false;
        failed.sort_unstable();
        for &i in failed.iter().rev() {
            if routed[i].cluster.len() >= 2 {
                any_multi = true;
                let rc = routed.remove(i);
                decluster(obs, routed, rc, true, next_id, &mut stats);
            }
        }
        if !any_multi {
            break; // only walled-in singletons remain: phase 2
        }
    }
    drop(phase_span);

    // ---- Phase 2: incremental recovery --------------------------------
    // Committed escapes now stay put. Remaining failures rip the nets
    // walling them in, claim the freed corridor alone, and the victims
    // re-route (internals immediately, escapes in the next iteration's
    // pending-only solve).
    let phase_span = pacor_obs::span("escape.phase2");
    for _ in 0..config.max_ripup_rounds {
        let pending: Vec<usize> = (0..routed.len())
            .filter(|&i| routed[i].escape.is_none())
            .collect();
        if pending.is_empty() {
            return stats;
        }
        stats.rounds += 1;
        pacor_obs::counter_add("escape.rounds", 1);
        let sources: Vec<_> = pending.iter().map(|&i| routed[i].escape_source()).collect();
        let outcome = solve(&mut solver, obs, &sources, pins, "escape.net_solve");
        let mut failed: Vec<usize> = Vec::new();
        for (k, route) in outcome.routes.into_iter().enumerate() {
            let i = pending[k];
            match route {
                Some(route) => commit(obs, &mut routed[i], route),
                None => failed.push(i),
            }
        }
        pacor_obs::progress(|| pacor_obs::ProgressEvent::EscapeProgress {
            phase: 2,
            round: stats.rounds,
            pending: pending.len() as u64,
            failed: failed.len() as u64,
            valves_routed: valves_escaped(routed),
            declustered: stats.declustered as u64,
            ripped: stats.ripped as u64,
        });
        if failed.is_empty() {
            continue;
        }

        let mut progress = false;
        // De-cluster multi-valve failures (ripped victims re-enter here).
        let mut singles_failed: Vec<Point> = Vec::new();
        failed.sort_unstable();
        for &i in failed.iter().rev() {
            pacor_obs::flight(|| pacor_obs::FlightEvent::EscapeFailed {
                phase: 2,
                round: stats.rounds,
                cluster: routed[i].cluster.id().0,
            });
            if routed[i].cluster.len() >= 2 {
                progress = true;
                let rc = routed.remove(i);
                decluster(obs, routed, rc, true, next_id, &mut stats);
            } else {
                singles_failed.push(routed[i].member_positions[0]);
            }
        }

        for &source in &singles_failed {
            let find = |routed: &Vec<RoutedCluster>| {
                routed.iter().position(|rc| {
                    rc.escape.is_none() && rc.cluster.len() == 1 && rc.member_positions[0] == source
                })
            };
            let Some(mut cur) = find(routed) else {
                continue;
            };
            // Peel blocking shells until the source can escape: a pocket
            // may be walled by several nets nested behind one another.
            // Shell pockets may overlap; the guard placement below
            // tolerates duplicates, so a flat vec replaces the set.
            let mut victims: Vec<RoutedCluster> = Vec::new();
            let mut pocket: Vec<Point> = Vec::new();
            for shell in 0..4 {
                let (blockers, shell_pocket, walls) =
                    blocking_clusters(obs, routed, cur, source, &rip_counts);
                let blocked_id = routed[cur].cluster.id().0;
                record_blocked(routed, blocked_id, &shell_pocket, &blockers, &walls);
                pocket.extend(shell_pocket);
                pacor_obs::instant(
                    "escape.shell",
                    &[("shell", shell as u64), ("blockers", blockers.len() as u64)],
                );
                if blockers.is_empty() {
                    break; // walled by hard obstacles / valves: unrecoverable
                }
                progress = true;
                let mut blockers = blockers;
                blockers.sort_unstable();
                for &b in blockers.iter().rev() {
                    let rc = routed.remove(b);
                    stats.ripped += 1;
                    pacor_obs::counter_add("escape.ripped", 1);
                    pacor_obs::flight(|| pacor_obs::FlightEvent::EscapeRip {
                        victim: rc.cluster.id().0,
                        blocked: blocked_id,
                    });
                    let id = rc.cluster.id().0 as usize;
                    if rip_counts.len() <= id {
                        rip_counts.resize(id + 1, 0);
                    }
                    rip_counts[id] += 1;
                    obs.unblock_all(rc.net_cells());
                    if let Some((esc, _)) = &rc.escape {
                        obs.unblock_all(esc.cells().iter().skip(1).copied());
                    }
                    // Valve cells are physical and never become routable —
                    // re-block them at once so the freed-corridor escape
                    // below cannot run through a valve.
                    for &pos in &rc.member_positions {
                        obs.block(pos);
                    }
                    victims.push(rc);
                }
                cur = find(routed).expect("failed singleton still present");
                // Claim the freed corridor before the victims re-route.
                let sources = [routed[cur].escape_source()];
                let solo = solve(&mut solver, obs, &sources, pins, "escape.solo_solve");
                if let Some(Some(route)) = solo.routes.into_iter().next() {
                    commit(obs, &mut routed[cur], route);
                    break;
                }
                pacor_obs::instant("escape.solo_failed", &[("shell", shell as u64)]);
            }
            // Guard the pocket and its one-cell rim while the victims
            // re-route, so a deterministic router cannot simply rebuild
            // the wall it was just evicted from.
            let mut guards: Vec<Point> = Vec::new();
            for &p in &pocket {
                for q in std::iter::once(p).chain(p.neighbors4()) {
                    if !obs.is_blocked(q) {
                        obs.block(q);
                        guards.push(q);
                    }
                }
            }
            // Re-route the victims' internal nets; their escapes re-solve
            // in the next pending-only iteration. Victims that cannot
            // re-route are de-clustered.
            for rc in victims {
                let positions = &rc.member_positions;
                let rerouted = match &rc.kind {
                    RoutedKind::Singleton => {
                        obs.block(positions[0]);
                        Some(RoutedCluster {
                            escape: None,
                            ..rc.clone()
                        })
                    }
                    RoutedKind::Mst { .. } => {
                        let members = rc.cluster.members().to_vec();
                        let demoted = Cluster::new(rc.cluster.id(), members, false);
                        route_mst_cluster(obs, &demoted, positions)
                    }
                    RoutedKind::LmPair { .. } | RoutedKind::LmTree { .. } => {
                        reroute_lm_cluster(obs, rc.cluster.clone(), positions.clone(), config)
                    }
                };
                match rerouted {
                    Some(mut new_rc) => {
                        new_rc.escape = None;
                        routed.push(new_rc);
                    }
                    None => decluster(obs, routed, rc, false, next_id, &mut stats),
                }
            }
            obs.unblock_all(guards);
        }
        if !progress {
            break;
        }
    }
    drop(phase_span);

    if routed.iter().all(|rc| rc.escape.is_some()) {
        return stats; // phase 2's final round completed everything
    }

    // ---- Phase 3: last resort ------------------------------------------
    // Re-routing around the walls failed (wall-shaped nets *must* span
    // their gap wherever they are wired). Trade matching for completion:
    // every round rips ALL escapes and re-solves the global min-cost
    // flow. Blocker analysis runs in this escape-free state, so every
    // wall found is an internal *net*; the owning multi-valve clusters
    // are de-clustered, strictly reducing the multi-cluster count each
    // round — the loop provably reaches a state where the flow routes
    // everything physically reachable past valves and hard obstacles.
    let _phase_span = pacor_obs::span("escape.phase3");
    for _ in 0..routed.len() + 4 {
        rip_all_escapes(obs, routed);
        let n_sources = routed.len();
        let sources: Vec<_> = routed.iter().map(|rc| rc.escape_source()).collect();
        let outcome = solve(&mut solver, obs, &sources, pins, "escape.net_solve");
        let valves_routed: u64 = outcome
            .routes
            .iter()
            .zip(routed.iter())
            .filter(|(route, _)| route.is_some())
            .map(|(_, rc)| rc.cluster.len() as u64)
            .sum();
        let failed_sources: Vec<Point> = outcome
            .routes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(i, _)| routed[i].member_positions[0])
            .collect();

        let mut progress = false;
        if !failed_sources.is_empty() {
            stats.rounds += 1;
            pacor_obs::counter_add("escape.rounds", 1);
            for &source in &failed_sources {
                let Some(cur) = routed
                    .iter()
                    .position(|rc| rc.member_positions[0] == source)
                else {
                    continue;
                };
                // No escapes are blocked right now, so every attributed
                // frontier cell belongs to an internal net. Rip limits no
                // longer apply: completion outranks everything.
                let (blockers, pocket, walls) = blocking_clusters(obs, routed, cur, source, &[]);
                let blocked_id = routed[cur].cluster.id().0;
                pacor_obs::flight(|| pacor_obs::FlightEvent::EscapeFailed {
                    phase: 3,
                    round: stats.rounds,
                    cluster: blocked_id,
                });
                record_blocked(routed, blocked_id, &pocket, &blockers, &walls);
                let mut blockers = blockers;
                blockers.sort_unstable();
                for &b in blockers.iter().rev() {
                    if routed[b].cluster.len() < 2 {
                        continue;
                    }
                    progress = true;
                    let rc = routed.remove(b);
                    decluster(obs, routed, rc, true, next_id, &mut stats);
                }
            }
        }
        pacor_obs::progress(|| pacor_obs::ProgressEvent::EscapeProgress {
            phase: 3,
            round: stats.rounds,
            pending: n_sources as u64,
            failed: failed_sources.len() as u64,
            valves_routed,
            declustered: stats.declustered as u64,
            ripped: stats.ripped as u64,
        });
        if progress {
            continue; // discard this round's escapes; re-solve globally
        }
        // Complete, or no wall left to dissolve: commit and finish.
        for (i, route) in outcome.routes.into_iter().enumerate() {
            if let Some(route) = route {
                commit(obs, &mut routed[i], route);
            }
        }
        return stats;
    }
    stats
}

fn singleton(id: ClusterId, valve: pacor_valves::ValveId, pos: Point) -> RoutedCluster {
    RoutedCluster {
        cluster: Cluster::new(id, vec![valve], false),
        member_positions: vec![pos],
        kind: RoutedKind::Singleton,
        escape: None,
    }
}

/// Flood-fills free cells from `source` and returns the indices of the
/// routed clusters whose cells form the blocking frontier — the nets
/// walling the source in. Unconstrained blockers are preferred (listed
/// exhaustively); length-matching blockers are included only when no
/// unconstrained blocker exists. The failed cluster itself (`exclude`)
/// never appears, valve cells are never attributed (ripping a cluster
/// cannot free a physical valve), and clusters already ripped three
/// times are off-limits (cycle breaker).
///
/// Also returns the pocket (the free cells reached, each exactly once)
/// and the attributed frontier cells with their owning routed-cluster
/// *indices*, sorted by (y, x) and capped — the flight recorder's
/// escape-bottleneck evidence.
///
/// `rip_counts` is indexed by cluster id (dense from `next_id`); ids
/// beyond its length count as never ripped, so `&[]` disables the limit.
fn blocking_clusters(
    obs: &ObsMap,
    routed: &[RoutedCluster],
    exclude: usize,
    source: Point,
    rip_counts: &[u32],
) -> (Vec<usize>, Vec<Point>, Vec<(Point, usize)>) {
    BLOCK_SCRATCH.with(|s| {
        blocking_clusters_flat(
            &mut s.borrow_mut(),
            obs,
            routed,
            exclude,
            source,
            rip_counts,
        )
    })
}

/// Flat per-cell scratch reused across [`blocking_clusters`] calls.
/// Validity of every slot is epoch-stamped (`*_at[i] == epoch`), so one
/// counter bump per call replaces clearing four dense maps; the arrays
/// are only ever zeroed when the grid (or cluster count) outgrows them.
struct BlockScratch {
    n_cells: usize,
    /// Owning routed-cluster index per cell, valid when `owner_at` matches.
    owner: Vec<u32>,
    owner_at: Vec<u32>,
    /// Cell holds a physical valve (never attributable to a rip).
    valve_at: Vec<u32>,
    /// Cell reached by the current flood fill.
    seen_at: Vec<u32>,
    /// Per routed-cluster index: already recorded as a frontier owner.
    front_at: Vec<u32>,
    epoch: u32,
}

thread_local! {
    static BLOCK_SCRATCH: std::cell::RefCell<BlockScratch> =
        const {
            std::cell::RefCell::new(BlockScratch {
                n_cells: 0,
                owner: Vec::new(),
                owner_at: Vec::new(),
                valve_at: Vec::new(),
                seen_at: Vec::new(),
                front_at: Vec::new(),
                epoch: 0,
            })
        };
}

fn blocking_clusters_flat(
    s: &mut BlockScratch,
    obs: &ObsMap,
    routed: &[RoutedCluster],
    exclude: usize,
    source: Point,
    rip_counts: &[u32],
) -> (Vec<usize>, Vec<Point>, Vec<(Point, usize)>) {
    let (w, h) = (obs.width() as usize, obs.height() as usize);
    let n_cells = w * h;
    if s.n_cells < n_cells {
        // Grown slots start at stamp 0; the epoch never goes backwards,
        // so every pre-existing stamp stays strictly below the next one.
        s.n_cells = n_cells;
        s.owner.resize(n_cells, 0);
        s.owner_at.resize(n_cells, 0);
        s.valve_at.resize(n_cells, 0);
        s.seen_at.resize(n_cells, 0);
    }
    if s.front_at.len() < routed.len() {
        s.front_at.resize(routed.len(), 0);
    }
    if s.epoch == u32::MAX {
        s.owner_at.fill(0);
        s.valve_at.fill(0);
        s.seen_at.fill(0);
        s.front_at.fill(0);
        s.epoch = 0;
    }
    s.epoch += 1;
    let epoch = s.epoch;
    let idx = |p: Point| -> Option<usize> {
        (p.x >= 0 && p.y >= 0 && (p.x as usize) < w && (p.y as usize) < h)
            .then(|| p.y as usize * w + p.x as usize)
    };

    // Cells that can never be freed by a rip: every valve position.
    for rc in routed {
        for &pos in &rc.member_positions {
            if let Some(ci) = idx(pos) {
                s.valve_at[ci] = epoch;
            }
        }
    }
    // Cell ownership of committed geometry (later clusters overwrite
    // earlier ones on shared cells, exactly like the map it replaces).
    for (i, rc) in routed.iter().enumerate() {
        let ripped = rip_counts
            .get(rc.cluster.id().0 as usize)
            .copied()
            .unwrap_or(0);
        if i == exclude || ripped >= 3 {
            continue;
        }
        for c in rc.net_cells() {
            if let Some(ci) = idx(c) {
                if s.valve_at[ci] != epoch {
                    s.owner[ci] = i as u32;
                    s.owner_at[ci] = epoch;
                }
            }
        }
        if let Some((esc, _)) = &rc.escape {
            for &c in esc.cells() {
                if let Some(ci) = idx(c) {
                    if s.valve_at[ci] != epoch {
                        s.owner[ci] = i as u32;
                        s.owner_at[ci] = epoch;
                    }
                }
            }
        }
    }

    // BFS over free cells from the source; `pocket` is the queue, its
    // cells before `head` expanded.
    let mut pocket: Vec<Point> = vec![source];
    let mut frontier_owners: Vec<usize> = Vec::new();
    let mut frontier_cells: Vec<(Point, usize)> = Vec::new();
    if let Some(ci) = idx(source) {
        s.seen_at[ci] = epoch;
    }
    let blocked = obs.blocked_cells();
    // Bound the flood to a local neighbourhood: blockage is local, and a
    // full-chip flood on every failure would be wasteful.
    let limit = 4096usize;
    let mut head = 0;
    while head < pocket.len() && pocket.len() <= limit {
        let p = pocket[head];
        head += 1;
        for q in p.neighbors4() {
            let Some(qi) = idx(q) else { continue };
            if s.seen_at[qi] == epoch {
                continue;
            }
            if blocked[qi] {
                if s.owner_at[qi] == epoch {
                    let o = s.owner[qi] as usize;
                    if s.front_at[o] != epoch {
                        s.front_at[o] = epoch;
                        frontier_owners.push(o);
                    }
                    frontier_cells.push((q, o));
                }
                continue;
            }
            s.seen_at[qi] = epoch;
            pocket.push(q);
        }
    }

    let unconstrained: Vec<usize> = frontier_owners
        .iter()
        .copied()
        .filter(|&i| !routed[i].cluster.is_length_matched())
        .collect();
    let picks = if !unconstrained.is_empty() {
        unconstrained
    } else {
        frontier_owners
    };
    frontier_cells.sort_unstable_by_key(|&(p, o)| (p.y, p.x, o));
    frontier_cells.dedup();
    frontier_cells.truncate(32);
    (picks, pocket, frontier_cells)
}

/// Pre-rewrite reference implementation of [`blocking_clusters`],
/// retained for the equivalence tests below — the same pattern as
/// `AStar::route_reference`. Builds per-call `HashMap`/`HashSet` state;
/// the flat kernel must agree with it on picks (as a set), pocket, and
/// frontier cells.
#[allow(dead_code)]
fn blocking_clusters_reference(
    obs: &ObsMap,
    routed: &[RoutedCluster],
    exclude: usize,
    source: Point,
    rip_counts: &HashMap<u32, u32>,
) -> (Vec<usize>, HashSet<Point>, Vec<(Point, usize)>) {
    // Cells that can never be freed by a rip: every valve position.
    let valve_cells: HashSet<Point> = routed
        .iter()
        .flat_map(|rc| rc.member_positions.iter().copied())
        .collect();
    // Cell ownership of committed geometry.
    let mut owner: HashMap<Point, usize> = HashMap::new();
    for (i, rc) in routed.iter().enumerate() {
        if i == exclude || rip_counts.get(&rc.cluster.id().0).copied().unwrap_or(0) >= 3 {
            continue;
        }
        for c in rc.net_cells() {
            if !valve_cells.contains(&c) {
                owner.insert(c, i);
            }
        }
        if let Some((esc, _)) = &rc.escape {
            for c in esc.cells() {
                if !valve_cells.contains(c) {
                    owner.insert(*c, i);
                }
            }
        }
    }

    // BFS over free cells from the source.
    let mut seen: HashSet<Point> = HashSet::new();
    let mut frontier_owners: HashSet<usize> = HashSet::new();
    let mut frontier_cells: Vec<(Point, usize)> = Vec::new();
    let mut queue = VecDeque::new();
    queue.push_back(source);
    seen.insert(source);
    // Bound the flood to a local neighbourhood: blockage is local, and a
    // full-chip flood on every failure would be wasteful.
    let limit = 4096usize;
    while let Some(p) = queue.pop_front() {
        if seen.len() > limit {
            break;
        }
        for q in p.neighbors4() {
            if seen.contains(&q) {
                continue;
            }
            if obs.is_blocked(q) {
                if let Some(&o) = owner.get(&q) {
                    frontier_owners.insert(o);
                    frontier_cells.push((q, o));
                }
                continue;
            }
            seen.insert(q);
            queue.push_back(q);
        }
    }

    let unconstrained: Vec<usize> = frontier_owners
        .iter()
        .copied()
        .filter(|&i| !routed[i].cluster.is_length_matched())
        .collect();
    let picks = if !unconstrained.is_empty() {
        unconstrained
    } else {
        frontier_owners.into_iter().collect()
    };
    frontier_cells.sort_unstable_by_key(|&(p, o)| (p.y, p.x, o));
    frontier_cells.dedup();
    frontier_cells.truncate(32);
    (picks, seen, frontier_cells)
}

/// Records [`pacor_obs::FlightEvent::EscapeBlocked`] for a walled-in
/// cluster: resolves blocker indices and frontier owners to cluster ids
/// (only when a recorder is active).
fn record_blocked(
    routed: &[RoutedCluster],
    blocked: u32,
    pocket: &[Point],
    blockers: &[usize],
    frontier: &[(Point, usize)],
) {
    if !pacor_obs::flight_active() {
        return;
    }
    let mut ids: Vec<u32> = blockers.iter().map(|&b| routed[b].cluster.id().0).collect();
    ids.sort_unstable();
    let frontier: Vec<pacor_obs::FrontierCell> = frontier
        .iter()
        .map(|&(p, o)| pacor_obs::FrontierCell {
            x: p.x,
            y: p.y,
            owner: routed[o].cluster.id().0,
        })
        .collect();
    let pocket = pocket.len() as u32;
    pacor_obs::flight(move || pacor_obs::FlightEvent::EscapeBlocked {
        cluster: blocked,
        pocket,
        blockers: ids,
        frontier,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacor_grid::{Grid, GridPath};
    use pacor_valves::ValveId;

    fn mk_singleton(id: u32, p: Point) -> RoutedCluster {
        singleton(ClusterId(id), ValveId(id), p)
    }

    #[test]
    fn simple_escape_connects_all() {
        let grid = Grid::new(12, 12).unwrap();
        let mut obs = ObsMap::new(&grid);
        obs.block(Point::new(5, 5));
        obs.block(Point::new(5, 8));
        let mut routed = vec![
            mk_singleton(0, Point::new(5, 5)),
            mk_singleton(1, Point::new(5, 8)),
        ];
        let pins = vec![Point::new(0, 5), Point::new(0, 8)];
        let mut next_id = 10;
        let stats = escape_all(
            &mut obs,
            &mut routed,
            &pins,
            &FlowConfig::default(),
            &mut next_id,
        );
        assert_eq!(stats.declustered, 0);
        assert!(routed.iter().all(|rc| rc.is_complete()));
        for rc in &routed {
            for c in rc.escape.as_ref().unwrap().0.cells() {
                assert!(obs.is_blocked(*c));
            }
        }
    }

    #[test]
    fn declusters_when_no_pins() {
        let grid = Grid::new(12, 12).unwrap();
        let mut obs = ObsMap::new(&grid);
        let path = GridPath::new((1..=9).map(|y| Point::new(6, y)).collect()).unwrap();
        obs.block_all(path.cells().iter().copied());
        let half_a = GridPath::new(path.cells()[..=4].to_vec()).unwrap();
        let mut rev = path.cells()[4..].to_vec();
        rev.reverse();
        let half_b = GridPath::new(rev).unwrap();
        let mut routed = vec![RoutedCluster {
            cluster: Cluster::new(ClusterId(0), vec![ValveId(0), ValveId(1)], true),
            member_positions: vec![Point::new(6, 1), Point::new(6, 9)],
            kind: RoutedKind::LmPair {
                junction: Point::new(6, 5),
                half_a,
                half_b,
            },
            escape: None,
        }];
        let mut next_id = 10;
        let stats = escape_all(
            &mut obs,
            &mut routed,
            &[],
            &FlowConfig::default(),
            &mut next_id,
        );
        assert_eq!(stats.declustered, 1);
        assert_eq!(routed.len(), 2);
        assert!(routed.iter().all(|rc| !rc.is_complete()));
    }

    #[test]
    fn ripup_frees_walled_in_singleton() {
        // A singleton at (6,6) fully enclosed by another cluster's ring
        // net; rip-up must dissolve the wall and route both.
        let grid = Grid::new(14, 14).unwrap();
        let mut obs = ObsMap::new(&grid);
        // Ring of an MST net around the singleton.
        let mut ring_cells: Vec<Point> = Vec::new();
        for x in 4..=8 {
            ring_cells.push(Point::new(x, 4));
            ring_cells.push(Point::new(x, 8));
        }
        for y in 5..=7 {
            ring_cells.push(Point::new(4, y));
            ring_cells.push(Point::new(8, y));
        }
        obs.block_all(ring_cells.iter().copied());
        // Build a connected path covering the ring (order matters only for
        // GridPath validity; walk the perimeter).
        let mut walk: Vec<Point> = Vec::new();
        for x in 4..=8 {
            walk.push(Point::new(x, 4));
        }
        for y in 5..=8 {
            walk.push(Point::new(8, y));
        }
        for x in (4..8).rev() {
            walk.push(Point::new(x, 8));
        }
        for y in (5..8).rev() {
            walk.push(Point::new(4, y));
        }
        let ring_path = GridPath::new(walk).unwrap();
        let mut routed = vec![
            RoutedCluster {
                cluster: Cluster::new(ClusterId(0), vec![ValveId(0), ValveId(1)], false),
                member_positions: vec![Point::new(4, 4), Point::new(8, 8)],
                kind: RoutedKind::Mst {
                    paths: vec![ring_path],
                },
                escape: None,
            },
            mk_singleton(1, Point::new(6, 6)),
        ];
        obs.block(Point::new(6, 6));
        let pins = vec![Point::new(0, 6), Point::new(0, 9), Point::new(13, 6)];
        let mut next_id = 10;
        let stats = escape_all(
            &mut obs,
            &mut routed,
            &pins,
            &FlowConfig::default(),
            &mut next_id,
        );
        assert!(stats.ripped >= 1, "wall must be ripped: {stats:?}");
        let singleton_done = routed
            .iter()
            .any(|rc| rc.member_positions == vec![Point::new(6, 6)] && rc.is_complete());
        assert!(singleton_done, "walled-in valve must escape");
    }

    #[test]
    fn hard_obstacle_enclosure_is_unrecoverable() {
        // Enclosed by *grid* obstacles: no cluster to rip; stage ends with
        // the valve unrouted.
        let mut grid = Grid::new(10, 10).unwrap();
        for p in [
            Point::new(4, 5),
            Point::new(6, 5),
            Point::new(5, 4),
            Point::new(5, 6),
        ] {
            grid.set_obstacle(p);
        }
        let mut obs = ObsMap::new(&grid);
        obs.block(Point::new(5, 5));
        let mut routed = vec![mk_singleton(0, Point::new(5, 5))];
        let mut next_id = 1;
        let stats = escape_all(
            &mut obs,
            &mut routed,
            &[Point::new(0, 5)],
            &FlowConfig::default(),
            &mut next_id,
        );
        assert!(!routed[0].is_complete());
        assert_eq!(stats.ripped, 0);
    }

    #[test]
    fn contention_resolved_by_distant_pin() {
        let grid = Grid::new(16, 16).unwrap();
        let mut obs = ObsMap::new(&grid);
        obs.block(Point::new(2, 8));
        obs.block(Point::new(4, 8));
        let mut routed = vec![
            mk_singleton(0, Point::new(2, 8)),
            mk_singleton(1, Point::new(4, 8)),
        ];
        let pins = vec![Point::new(0, 8), Point::new(15, 8)];
        let mut next_id = 10;
        escape_all(
            &mut obs,
            &mut routed,
            &pins,
            &FlowConfig::default(),
            &mut next_id,
        );
        assert!(routed.iter().all(|rc| rc.is_complete()));
        let p0 = routed[0].escape.as_ref().unwrap().1;
        let p1 = routed[1].escape.as_ref().unwrap().1;
        assert_ne!(p0, p1);
    }

    #[test]
    fn lm_blockers_ripped_only_as_last_resort() {
        // The singleton is walled by an LM pair's net on one side and hard
        // obstacles elsewhere; the LM cluster must be ripped (no
        // unconstrained alternative) and re-routed.
        let mut grid = Grid::new(14, 14).unwrap();
        // Hard walls: north, east, south of the pocket at (10..13, 5..8).
        for y in 4..=9 {
            grid.set_obstacle(Point::new(13, y));
        }
        for x in 10..=13 {
            grid.set_obstacle(Point::new(x, 4));
            grid.set_obstacle(Point::new(x, 9));
        }
        let mut obs = ObsMap::new(&grid);
        // LM pair net runs vertically at x=9, sealing the pocket's west.
        let cells: Vec<Point> = (3..=10).map(|y| Point::new(9, y)).collect();
        obs.block_all(cells.iter().copied());
        let half_a = GridPath::new(cells[..=3].to_vec()).unwrap();
        let mut rev = cells[3..].to_vec();
        rev.reverse();
        let half_b = GridPath::new(rev).unwrap();
        let mut routed = vec![
            RoutedCluster {
                cluster: Cluster::new(ClusterId(0), vec![ValveId(0), ValveId(1)], true),
                member_positions: vec![Point::new(9, 3), Point::new(9, 10)],
                kind: RoutedKind::LmPair {
                    junction: Point::new(9, 6),
                    half_a,
                    half_b,
                },
                escape: None,
            },
            mk_singleton(2, Point::new(11, 6)),
        ];
        obs.block(Point::new(11, 6));
        let pins = vec![Point::new(0, 6), Point::new(0, 10), Point::new(6, 0)];
        let mut next_id = 10;
        let stats = escape_all(
            &mut obs,
            &mut routed,
            &pins,
            &FlowConfig::default(),
            &mut next_id,
        );
        assert!(stats.ripped >= 1);
        let pocket_valve = routed
            .iter()
            .find(|rc| rc.member_positions == vec![Point::new(11, 6)])
            .unwrap();
        assert!(pocket_valve.is_complete(), "pocket valve must escape");
    }

    /// The flat epoch-stamped kernel must agree with the retained
    /// `HashMap`/`HashSet` reference on randomized routed layouts:
    /// identical pick *sets* (both callers sort), identical pockets,
    /// identical attributed frontier cells.
    #[test]
    fn flat_blocking_clusters_matches_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for trial in 0..60 {
            let (w, h) = (10 + next(12), 10 + next(12));
            let grid = Grid::new(w as u32, h as u32).unwrap();
            let mut obs = ObsMap::new(&grid);
            for _ in 0..w * h / 6 {
                obs.block(Point::new(next(w) as i32, next(h) as i32));
            }
            let n = 3 + next(6);
            let mut routed: Vec<RoutedCluster> = Vec::new();
            for id in 0..n as u32 {
                let start = Point::new(next(w) as i32, next(h) as i32);
                if next(3) == 0 {
                    obs.block(start);
                    routed.push(mk_singleton(id, start));
                    continue;
                }
                // Random-walk net, occasionally revisiting cells.
                let mut cells = vec![start];
                let mut cur = start;
                for _ in 0..3 + next(9) {
                    let q = cur.neighbors4()[next(4)];
                    if q.x < 0 || q.y < 0 || q.x >= w as i32 || q.y >= h as i32 {
                        continue;
                    }
                    cells.push(q);
                    cur = q;
                }
                obs.block_all(cells.iter().copied());
                let path = GridPath::new(cells.clone()).unwrap();
                let escape = (next(2) == 0).then(|| {
                    let pin = *cells.last().unwrap();
                    (GridPath::new(vec![pin]).unwrap(), pin)
                });
                routed.push(RoutedCluster {
                    cluster: Cluster::new(
                        ClusterId(id),
                        vec![ValveId(id), ValveId(id + 100)],
                        next(3) == 0,
                    ),
                    member_positions: vec![start, cur],
                    kind: RoutedKind::Mst { paths: vec![path] },
                    escape,
                });
            }
            let mut rip_counts = vec![0u32; n];
            let mut rip_map = HashMap::new();
            for id in 0..n as u32 {
                if next(4) == 0 {
                    rip_counts[id as usize] = 3;
                    rip_map.insert(id, 3);
                }
            }
            let exclude = next(n);
            let source = routed[exclude].member_positions[0];
            let (mut picks_f, pocket_f, walls_f) =
                blocking_clusters(&obs, &routed, exclude, source, &rip_counts);
            let (mut picks_r, pocket_r, walls_r) =
                blocking_clusters_reference(&obs, &routed, exclude, source, &rip_map);
            picks_f.sort_unstable();
            picks_r.sort_unstable();
            assert_eq!(picks_f, picks_r, "trial {trial}: picks diverged");
            let pocket_set: HashSet<Point> = pocket_f.iter().copied().collect();
            assert_eq!(
                pocket_set.len(),
                pocket_f.len(),
                "trial {trial}: flat pocket holds duplicates"
            );
            assert_eq!(pocket_set, pocket_r, "trial {trial}: pocket diverged");
            assert_eq!(walls_f, walls_r, "trial {trial}: frontier diverged");
        }
    }
}
