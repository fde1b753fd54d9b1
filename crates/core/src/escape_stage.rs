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
//!    found is an internal net). Each round that goes on strictly
//!    lowers the number of multi-valve clusters, so the loop ends. It
//!    does not maximise the valves routed: de-clustering a routed pair
//!    turns one pin into two, and a run can end below its best round
//!    (B3-dense96 at design seed 42 peaks at 173 valves after phase 1's
//!    second round and ends at 164).

use crate::lm_routing::reroute_lm_cluster;
use crate::mst_routing::route_mst_cluster;
use crate::{FlowConfig, RoutedCluster, RoutedKind};
use pacor_flow::{EscapeOutcome, EscapeSource, GridEscape};
use pacor_grid::{CellRows, GridPath, ObsMap, Point};
use pacor_valves::{Cluster, ClusterId};

/// The escape stage's running tallies, reported by its
/// `escape_progress` events (the `escape.rounds`, `escape.declustered`
/// and `escape.ripped` counters hold the totals).
#[derive(Default)]
struct EscapeStats {
    /// Rip-up / de-clustering rounds executed so far.
    rounds: u32,
    /// Clusters de-clustered to singletons so far.
    declustered: usize,
    /// Blocking clusters ripped up so far.
    ripped: usize,
}

impl EscapeStats {
    /// The `escape_progress` event of a phase-`phase` round whose solve
    /// routed `pending - failed` of `pending` escapes.
    fn round_event(
        &self,
        phase: u32,
        pending: usize,
        failed: usize,
        valves_routed: u64,
    ) -> pacor_obs::Event {
        pacor_obs::Event::EscapeProgress {
            phase,
            round: self.rounds,
            pending: pending as u64,
            failed: failed as u64,
            valves_routed,
            declustered: self.declustered as u64,
            ripped: self.ripped as u64,
        }
    }
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
    pacor_obs::emit(pacor_obs::Event::Declustered {
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

/// Re-routes the ripped `victims`' internal nets into `routed`; their
/// escapes re-solve in the next pending-only round. A victim that cannot
/// re-route is de-clustered.
fn reroute_victims(
    obs: &mut ObsMap,
    routed: &mut Vec<RoutedCluster>,
    victims: Vec<RoutedCluster>,
    config: &FlowConfig,
    next_id: &mut u32,
    stats: &mut EscapeStats,
) {
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
            None => decluster(obs, routed, rc, false, next_id, stats),
        }
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
) {
    let (width, height) = (obs.width() as usize, obs.height() as usize);
    EscapeRun {
        obs,
        routed,
        pins,
        config,
        next_id,
        solver: GridEscape::new(),
        stats: EscapeStats::default(),
        rip_counts: Vec::new(),
        flood: Flood::default(),
        pocket: CellRows::new(width, height),
        guard: CellRows::new(width, height),
    }
    .run()
}

/// One run of the escape stage: the state it routes, its solver and the
/// recovery bookkeeping kept from the first round to the last.
struct EscapeRun<'a> {
    obs: &'a mut ObsMap,
    routed: &'a mut Vec<RoutedCluster>,
    pins: &'a [Point],
    config: &'a FlowConfig,
    /// Next fresh cluster id for de-clustered singletons.
    next_id: &'a mut u32,
    solver: GridEscape,
    stats: EscapeStats,
    /// Anti-thrash: how often each cluster id has been ripped. A cluster
    /// ripped three times becomes off-limits to further rip-up — two nets
    /// cyclically evicting each other would otherwise burn every round.
    /// Ids are dense from `next_id`, so a flat id-indexed vec suffices.
    rip_counts: Vec<u32>,
    flood: Flood,
    /// The pockets of the singleton in recovery, over every shell.
    pocket: CellRows,
    /// The cells fenced while its victims re-route.
    guard: CellRows,
}

impl EscapeRun<'_> {
    /// Runs the phases in turn, each only if the one before left a
    /// cluster without an escape.
    fn run(mut self) {
        if !self.global_rounds() {
            self.recovery();
            if self.routed.iter().any(|rc| rc.escape.is_none()) {
                self.last_resort();
            }
        }
    }

    /// Phase 1: rip every escape and re-solve the whole min-cost flow,
    /// so early winners cannot starve late-declustered valves; recover
    /// multi-valve failures by de-clustering. Returns `true` when every
    /// cluster escaped.
    fn global_rounds(&mut self) -> bool {
        let _phase_span = pacor_obs::span("escape.phase1");
        for _ in 0..self.config.max_ripup_rounds {
            self.stats.rounds += 1;
            pacor_obs::counter_add("escape.rounds", 1);
            self.rip_all_escapes();
            let n_sources = self.routed.len();
            let sources: Vec<_> = self.routed.iter().map(|rc| rc.escape_source()).collect();
            let outcome = self.solve(&sources, "escape.net_solve");
            let mut failed: Vec<usize> = Vec::new();
            for (i, route) in outcome.routes.into_iter().enumerate() {
                match route {
                    Some(route) => self.commit(i, route),
                    None => failed.push(i),
                }
            }
            let valves_routed = valves_escaped(self.routed);
            pacor_obs::emit(
                self.stats
                    .round_event(1, n_sources, failed.len(), valves_routed),
            );
            if failed.is_empty() {
                return true;
            }
            for &i in &failed {
                pacor_obs::emit(pacor_obs::Event::EscapeFailed {
                    phase: 1,
                    round: self.stats.rounds,
                    cluster: self.routed[i].cluster.id().0,
                });
            }
            let mut any_multi = false;
            failed.sort_unstable();
            for &i in failed.iter().rev() {
                if self.routed[i].cluster.len() >= 2 {
                    any_multi = true;
                    let rc = self.routed.remove(i);
                    self.decluster(rc, true);
                }
            }
            if !any_multi {
                break; // only walled-in singletons remain: phase 2
            }
        }
        false
    }

    /// Phase 2: committed escapes now stay put. Remaining failures rip
    /// the nets walling them in, claim the freed corridor alone, and the
    /// victims re-route (internals immediately, escapes in the next
    /// iteration's pending-only solve).
    fn recovery(&mut self) {
        let _phase_span = pacor_obs::span("escape.phase2");
        for _ in 0..self.config.max_ripup_rounds {
            let pending: Vec<usize> = (0..self.routed.len())
                .filter(|&i| self.routed[i].escape.is_none())
                .collect();
            if pending.is_empty() {
                return;
            }
            self.stats.rounds += 1;
            pacor_obs::counter_add("escape.rounds", 1);
            let sources: Vec<_> = pending
                .iter()
                .map(|&i| self.routed[i].escape_source())
                .collect();
            let outcome = self.solve(&sources, "escape.net_solve");
            let mut failed: Vec<usize> = Vec::new();
            for (k, route) in outcome.routes.into_iter().enumerate() {
                let i = pending[k];
                match route {
                    Some(route) => self.commit(i, route),
                    None => failed.push(i),
                }
            }
            let valves_routed = valves_escaped(self.routed);
            pacor_obs::emit(
                self.stats
                    .round_event(2, pending.len(), failed.len(), valves_routed),
            );
            if failed.is_empty() {
                continue;
            }

            let mut progress = false;
            // De-cluster multi-valve failures (ripped victims re-enter here).
            let mut singles_failed: Vec<Point> = Vec::new();
            failed.sort_unstable();
            for &i in failed.iter().rev() {
                pacor_obs::emit(pacor_obs::Event::EscapeFailed {
                    phase: 2,
                    round: self.stats.rounds,
                    cluster: self.routed[i].cluster.id().0,
                });
                if self.routed[i].cluster.len() >= 2 {
                    progress = true;
                    let rc = self.routed.remove(i);
                    self.decluster(rc, true);
                } else {
                    singles_failed.push(self.routed[i].member_positions[0]);
                }
            }
            for &source in &singles_failed {
                progress |= self.free_walled_in(source);
            }
            if !progress {
                break;
            }
        }
    }

    /// Recovers the failed singleton at `source`: peels the shells of
    /// nets walling it in, rips them, claims the freed corridor alone,
    /// and re-routes the victims behind guards. Returns `true` when some
    /// net was ripped.
    fn free_walled_in(&mut self, source: Point) -> bool {
        let find = |routed: &[RoutedCluster]| {
            routed.iter().position(|rc| {
                rc.escape.is_none() && rc.cluster.len() == 1 && rc.member_positions[0] == source
            })
        };
        let Some(mut cur) = find(self.routed) else {
            return false;
        };
        let mut progress = false;
        // Peel blocking shells until the source can escape: a pocket
        // may be walled by several nets nested behind one another.
        let mut victims: Vec<RoutedCluster> = Vec::new();
        self.pocket.clear();
        for _ in 0..4 {
            let mut blockers = {
                let _blocking = pacor_obs::span("escape.blocking");
                self.flood
                    .blocking_clusters(self.obs, self.routed, cur, source, &self.rip_counts)
            };
            let blocked_id = self.routed[cur].cluster.id().0;
            record_blocked(self.routed, blocked_id, &self.flood, &blockers);
            if !blockers.is_empty() || !victims.is_empty() {
                // Every shell's pocket is fenced while the victims re-route.
                self.flood.add_pocket_to(&mut self.pocket);
            }
            if blockers.is_empty() {
                break; // walled by hard obstacles / valves: unrecoverable
            }
            progress = true;
            blockers.sort_unstable();
            for &b in blockers.iter().rev() {
                let rc = self.routed.remove(b);
                self.stats.ripped += 1;
                pacor_obs::emit(pacor_obs::Event::EscapeRip {
                    victim: rc.cluster.id().0,
                    blocked: blocked_id,
                });
                let id = rc.cluster.id().0 as usize;
                if self.rip_counts.len() <= id {
                    self.rip_counts.resize(id + 1, 0);
                }
                self.rip_counts[id] += 1;
                self.obs.unblock_all(rc.net_cells());
                if let Some((esc, _)) = &rc.escape {
                    self.obs.unblock_all(esc.cells().iter().skip(1).copied());
                }
                // Valve cells are physical and never become routable —
                // re-block them at once so the freed-corridor escape
                // below cannot run through a valve.
                for &pos in &rc.member_positions {
                    self.obs.block(pos);
                }
                victims.push(rc);
            }
            cur = find(self.routed).expect("failed singleton still present");
            // Claim the freed corridor before the victims re-route.
            let sources = [self.routed[cur].escape_source()];
            let solo = self.solve(&sources, "escape.solo_solve");
            if let Some(Some(route)) = solo.routes.into_iter().next() {
                self.commit(cur, route);
                break;
            }
        }
        let _reroute = pacor_obs::span("escape.reroute");
        if !victims.is_empty() {
            // Fence the pockets and their one-cell rim while the victims
            // re-route, so a deterministic router cannot simply rebuild
            // the wall it was just evicted from.
            self.pocket.dilate_into(&mut self.guard);
            self.guard.union_with(&self.pocket);
            let EscapeRun {
                obs,
                routed,
                config,
                next_id,
                stats,
                guard,
                ..
            } = self;
            obs.fenced(guard, |obs| {
                reroute_victims(obs, routed, victims, config, next_id, stats)
            });
        }
        progress
    }

    /// Phase 3, the last resort: re-routing around the walls failed
    /// (wall-shaped nets *must* span their gap wherever they are wired).
    /// Trade matching for completion: every round rips ALL escapes and
    /// re-solves the global min-cost flow. Blocker analysis runs in this
    /// escape-free state, so every wall found is an internal *net*; the
    /// owning multi-valve clusters are de-clustered, so each round that
    /// goes on strictly lowers the number of multi-valve clusters and
    /// the loop ends. The state it ends in need not route the most
    /// valves: a de-clustered pair needs two pins where it needed one,
    /// and the last round's routes are committed, not the best round's.
    fn last_resort(&mut self) {
        let _phase_span = pacor_obs::span("escape.phase3");
        for _ in 0..self.routed.len() + 4 {
            self.rip_all_escapes();
            let n_sources = self.routed.len();
            let sources: Vec<_> = self.routed.iter().map(|rc| rc.escape_source()).collect();
            let outcome = self.solve(&sources, "escape.net_solve");
            let valves_routed: u64 = outcome
                .routes
                .iter()
                .zip(self.routed.iter())
                .filter(|(route, _)| route.is_some())
                .map(|(_, rc)| rc.cluster.len() as u64)
                .sum();
            let failed_sources: Vec<Point> = outcome
                .routes
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_none())
                .map(|(i, _)| self.routed[i].member_positions[0])
                .collect();

            let mut progress = false;
            if !failed_sources.is_empty() {
                self.stats.rounds += 1;
                pacor_obs::counter_add("escape.rounds", 1);
                for &source in &failed_sources {
                    let Some(cur) = self
                        .routed
                        .iter()
                        .position(|rc| rc.member_positions[0] == source)
                    else {
                        continue;
                    };
                    // No escapes are blocked right now, so every attributed
                    // frontier cell belongs to an internal net. Rip limits no
                    // longer apply: completion outranks everything.
                    let mut blockers = {
                        let _blocking = pacor_obs::span("escape.blocking");
                        self.flood
                            .blocking_clusters(self.obs, self.routed, cur, source, &[])
                    };
                    let blocked_id = self.routed[cur].cluster.id().0;
                    pacor_obs::emit(pacor_obs::Event::EscapeFailed {
                        phase: 3,
                        round: self.stats.rounds,
                        cluster: blocked_id,
                    });
                    record_blocked(self.routed, blocked_id, &self.flood, &blockers);
                    blockers.sort_unstable();
                    for &b in blockers.iter().rev() {
                        if self.routed[b].cluster.len() < 2 {
                            continue;
                        }
                        progress = true;
                        let rc = self.routed.remove(b);
                        self.decluster(rc, true);
                    }
                }
            }
            pacor_obs::emit(self.stats.round_event(
                3,
                n_sources,
                failed_sources.len(),
                valves_routed,
            ));
            if progress {
                continue; // discard this round's escapes; re-solve globally
            }
            // Complete, or no wall left to dissolve: commit and finish.
            for (i, route) in outcome.routes.into_iter().enumerate() {
                if let Some(route) = route {
                    self.commit(i, route);
                }
            }
            return;
        }
    }

    /// One cold min-cost-flow solve over the current obstacle map, inside
    /// the span `name`, counting its searches and node labels.
    fn solve(&mut self, sources: &[EscapeSource], name: &'static str) -> EscapeOutcome {
        let _s = pacor_obs::span(name);
        let outcome = self.solver.solve(self.obs, sources, self.pins);
        pacor_obs::counter_add("escape.dijkstras", outcome.work.dijkstras);
        pacor_obs::counter_add("escape.touched", outcome.work.touched);
        outcome
    }

    /// Records an escape route for `routed[i]` and blocks its cells.
    /// Cell 0 lies on the cluster net, which is already blocked.
    fn commit(&mut self, i: usize, (path, pin): (GridPath, Point)) {
        self.obs.block_all(path.cells().iter().skip(1).copied());
        self.routed[i].commit_escape(path, pin);
    }

    /// Takes every committed escape back and frees its cells past cell 0.
    fn rip_all_escapes(&mut self) {
        for rc in self.routed.iter_mut() {
            if let Some((esc, _)) = rc.escape.take() {
                self.obs.unblock_all(esc.cells().iter().skip(1).copied());
            }
        }
    }

    /// Dissolves a multi-valve cluster into singletons; see [`decluster`].
    fn decluster(&mut self, rc: RoutedCluster, free_nets: bool) {
        decluster(
            self.obs,
            self.routed,
            rc,
            free_nets,
            self.next_id,
            &mut self.stats,
        );
    }
}

fn singleton(id: ClusterId, valve: pacor_valves::ValveId, pos: Point) -> RoutedCluster {
    RoutedCluster {
        cluster: Cluster::new(id, vec![valve], false),
        member_positions: vec![pos],
        kind: RoutedKind::Singleton,
        escape: None,
    }
}

/// Free cell of [`Flood`]'s map.
const FREE: u8 = 0;
/// Blocked cell not yet met by the flood, or a valve wall.
const BLOCKED: u8 = 1;
/// Pocket cell, or off the map. `FREE | SEEN == SEEN`.
const SEEN: u8 = 2;
/// Blocked cell next to an expanded pocket cell. `BLOCKED | SEEN == WALL`.
const WALL: u8 = 3;
/// No routed cluster owns the wall cell.
const NO_OWNER: u32 = u32::MAX;
/// The flood stops expanding once its pocket holds more cells than
/// this: blockage is local, and a full-chip flood on every failure
/// would be wasteful.
const FLOOD_CAP: usize = 4096;

/// The flood of one failed source and its walls, over scratch that one
/// run reuses for every call; see [`Flood::blocking_clusters`].
///
/// Cells are indexed on a padded copy of the map, with one off-map cell
/// on every side, so a step is an index offset and never a bounds test.
#[derive(Debug, Default)]
struct Flood {
    width: usize,
    height: usize,
    /// Width of the padded map, `width + 2`.
    pw: usize,
    /// Per padded cell: [`FREE`], [`BLOCKED`], [`SEEN`] or [`WALL`].
    map: Vec<u8>,
    /// The last pocket in BFS order, as padded indices: `queue[..pocket]`.
    queue: Vec<u32>,
    pocket: usize,
    /// The last flood's walls in the order it met them, each once:
    /// `walls[..n_walls]`.
    walls: Vec<u32>,
    n_walls: usize,
    /// Per padded cell: the routed index owning it. [`NO_OWNER`] except
    /// at the last flood's attributed walls.
    owner: Vec<u32>,
    /// Per routed index: already listed as a blocker of this flood.
    picked: Vec<bool>,
}

impl Flood {
    /// Flood-fills free cells from `source` and returns the indices of
    /// the routed clusters whose cells form the blocking frontier — the
    /// nets walling the source in. Unconstrained blockers are preferred
    /// (listed exhaustively); length-matching blockers are included only
    /// when no unconstrained blocker exists. The failed cluster itself
    /// (`exclude`) never appears, valve cells are never attributed
    /// (ripping a cluster cannot free a physical valve), and clusters
    /// already ripped three times are off-limits (cycle breaker).
    ///
    /// The pocket (the free cells reached, each exactly once) and the
    /// attributed walls stay readable until the next call:
    /// [`Flood::add_pocket_to`] and [`Flood::evidence`].
    ///
    /// `rip_counts` is indexed by cluster id (dense from `next_id`); ids
    /// beyond its length count as never ripped, so `&[]` disables the limit.
    fn blocking_clusters(
        &mut self,
        obs: &ObsMap,
        routed: &[RoutedCluster],
        exclude: usize,
        source: Point,
        rip_counts: &[u32],
    ) -> Vec<usize> {
        self.flood(obs, source);
        self.attribute(routed, exclude, rip_counts);
        let mut owners: Vec<usize> = Vec::new();
        self.picked
            .resize(self.picked.len().max(routed.len()), false);
        for &c in &self.walls[..self.n_walls] {
            let o = self.owner[c as usize];
            if o != NO_OWNER && !self.picked[o as usize] {
                self.picked[o as usize] = true;
                owners.push(o as usize);
            }
        }
        for &o in &owners {
            self.picked[o] = false;
        }
        let unconstrained: Vec<usize> = owners
            .iter()
            .copied()
            .filter(|&i| !routed[i].cluster.is_length_matched())
            .collect();
        if unconstrained.is_empty() {
            owners
        } else {
            unconstrained
        }
    }

    /// The BFS from `source` over a fresh padded copy of `obs`: FIFO, in
    /// `Point::neighbors4` order, stopping once the pocket passes
    /// [`FLOOD_CAP`]. When the cap binds, that order decides which cells
    /// enter the pocket and which walls the flood meets.
    fn flood(&mut self, obs: &ObsMap, source: Point) {
        let (w, h) = (obs.width() as usize, obs.height() as usize);
        let pw = w + 2;
        if (self.width, self.height) != (w, h) {
            let n = pw * (h + 2);
            *self = Flood {
                width: w,
                height: h,
                pw,
                map: vec![SEEN; n],
                queue: vec![0; n],
                walls: vec![0; n],
                owner: vec![NO_OWNER; n],
                ..Flood::default()
            };
        }
        for &c in &self.walls[..self.n_walls] {
            self.owner[c as usize] = NO_OWNER;
        }
        // The border keeps SEEN from the allocation.
        for (row, blocked) in self.map[pw..]
            .chunks_exact_mut(pw)
            .zip(obs.blocked_cells().chunks_exact(w))
        {
            for (m, &b) in row[1..=w].iter_mut().zip(blocked) {
                *m = u8::from(b);
            }
        }
        let s = self.index(source).expect("escape sources lie on the map");
        // Local slices keep the buffers' addresses and lengths in
        // registers across the loop's stores.
        let (map, queue, walls) = (&mut self.map[..], &mut self.queue[..], &mut self.walls[..]);
        map[s] = SEEN;
        queue[0] = s as u32;
        let (mut len, mut n_walls, mut head) = (1, 0, 0);
        while head < len && len <= FLOOD_CAP {
            let p = queue[head] as usize;
            head += 1;
            for q in [p - 1, p + 1, p - pw, p + pw] {
                // Each cell is pushed at most once, so neither list can
                // outgrow the map; the slot past its end is scratch.
                let v = map[q];
                map[q] = v | SEEN;
                queue[len] = q as u32;
                len += usize::from(v == FREE);
                walls[n_walls] = q as u32;
                n_walls += usize::from(v == BLOCKED);
            }
        }
        self.pocket = len;
        self.n_walls = n_walls;
    }

    /// Gives each wall its owner: one pass over the routed clusters'
    /// net and escape cells, where a later cluster overwrites an earlier
    /// one on a shared cell. Valve walls, `exclude` and clusters ripped
    /// three times stay unattributed.
    fn attribute(&mut self, routed: &[RoutedCluster], exclude: usize, rip_counts: &[u32]) {
        for rc in routed {
            for &pos in &rc.member_positions {
                if let Some(k) = self.index(pos) {
                    if self.map[k] == WALL {
                        self.map[k] = BLOCKED;
                    }
                }
            }
        }
        for (i, rc) in routed.iter().enumerate() {
            let ripped = rip_counts
                .get(rc.cluster.id().0 as usize)
                .copied()
                .unwrap_or(0);
            if i == exclude || ripped >= 3 {
                continue;
            }
            let escape = rc.escape.as_ref().map(|(esc, _)| esc);
            for path in rc.net_paths().chain(escape) {
                for &c in path.cells() {
                    if let Some(k) = self.index(c) {
                        if self.map[k] == WALL {
                            self.owner[k] = i as u32;
                        }
                    }
                }
            }
        }
    }

    /// Padded index of an on-map cell.
    #[inline]
    fn index(&self, p: Point) -> Option<usize> {
        let (x, y) = (p.x as usize, p.y as usize);
        (p.x >= 0 && p.y >= 0 && x < self.width && y < self.height)
            .then(|| (y + 1) * self.pw + x + 1)
    }

    /// The cell at a padded index.
    #[inline]
    fn point_of(&self, c: u32) -> Point {
        let pw = self.pw as u32;
        Point::new((c % pw) as i32 - 1, (c / pw) as i32 - 1)
    }

    /// Adds the last pocket to `rows`, a set over the map: its cells are
    /// the map's [`SEEN`] cells.
    fn add_pocket_to(&self, rows: &mut CellRows) {
        rows.union_from(&self.map[self.pw + 1..], self.pw, |&v| v == SEEN);
    }

    /// The last flood's attributed walls with their owners' routed
    /// indices, sorted by (y, x) and capped — the flight recorder's
    /// escape-bottleneck evidence.
    fn evidence(&self) -> Vec<(Point, usize)> {
        let mut cells: Vec<(u32, u32)> = self.walls[..self.n_walls]
            .iter()
            .map(|&c| (c, self.owner[c as usize]))
            .filter(|&(_, o)| o != NO_OWNER)
            .collect();
        // Padded indices are row-major, so they sort by (y, x).
        cells.sort_unstable();
        cells.truncate(32);
        cells
            .into_iter()
            .map(|(c, o)| (self.point_of(c), o as usize))
            .collect()
    }
}

/// Emits [`pacor_obs::Event::EscapeBlocked`] for a walled-in cluster from
/// the flood that just ran: resolves blocker indices and wall owners to
/// cluster ids (only when recording).
fn record_blocked(routed: &[RoutedCluster], blocked: u32, flood: &Flood, blockers: &[usize]) {
    if !pacor_obs::recording() {
        return;
    }
    let mut ids: Vec<u32> = blockers.iter().map(|&b| routed[b].cluster.id().0).collect();
    ids.sort_unstable();
    let frontier: Vec<pacor_obs::FrontierCell> = flood
        .evidence()
        .into_iter()
        .map(|(p, o)| pacor_obs::FrontierCell {
            x: p.x,
            y: p.y,
            owner: routed[o].cluster.id().0,
        })
        .collect();
    pacor_obs::emit(pacor_obs::Event::EscapeBlocked {
        cluster: blocked,
        pocket: flood.pocket as u32,
        blockers: ids,
        frontier,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacor_grid::{Grid, GridPath};
    use pacor_valves::ValveId;
    use std::collections::{HashMap, HashSet, VecDeque};

    /// Runs [`escape_all`] with the default config inside an
    /// observability session and returns what it counted.
    fn escape_counted(
        obs: &mut ObsMap,
        routed: &mut Vec<RoutedCluster>,
        pins: &[Point],
        next_id: &mut u32,
    ) -> pacor_obs::ObsReport {
        let session = pacor_obs::Session::begin();
        escape_all(obs, routed, pins, &FlowConfig::default(), next_id);
        session.finish()
    }

    fn mk_singleton(id: u32, p: Point) -> RoutedCluster {
        singleton(ClusterId(id), ValveId(id), p)
    }

    /// Pre-rewrite reference implementation of [`blocking_clusters`], the
    /// oracle of the equivalence test below. Builds per-call
    /// `HashMap`/`HashSet` state; the flat kernel must agree with it on
    /// picks (as a set), pocket, and frontier cells.
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
        let counted = escape_counted(&mut obs, &mut routed, &pins, &mut next_id);
        assert_eq!(counted.counter("escape.declustered"), 0);
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
        let counted = escape_counted(&mut obs, &mut routed, &[], &mut next_id);
        assert_eq!(counted.counter("escape.declustered"), 1);
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
        let counted = escape_counted(&mut obs, &mut routed, &pins, &mut next_id);
        assert!(counted.counter("escape.ripped") >= 1, "wall must be ripped");
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
        let counted = escape_counted(&mut obs, &mut routed, &[Point::new(0, 5)], &mut next_id);
        assert!(!routed[0].is_complete());
        assert_eq!(counted.counter("escape.ripped"), 0);
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
        let counted = escape_counted(&mut obs, &mut routed, &pins, &mut next_id);
        assert!(counted.counter("escape.ripped") >= 1);
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
    ///
    /// The first 60 trials are small grids whose floods end on their
    /// own. The last 24 are sparse grids of at least 72×72 where the
    /// flood stops at its 4096-cell cap: there the BFS order decides
    /// which cells enter the pocket and which walls it meets, so the
    /// two kernels must expand cells in the same FIFO order.
    #[test]
    fn flat_blocking_clusters_matches_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        let mut capped = 0;
        let mut flood = Flood::default();
        for trial in 0..84 {
            let large = trial >= 60;
            let (w, h) = if large {
                (72 + next(25), 72 + next(25))
            } else {
                (10 + next(12), 10 + next(12))
            };
            let grid = Grid::new(w as u32, h as u32).unwrap();
            let mut obs = ObsMap::new(&grid);
            for _ in 0..w * h / if large { 30 } else { 6 } {
                obs.block(Point::new(next(w) as i32, next(h) as i32));
            }
            let n = if large { 12 + next(20) } else { 3 + next(6) };
            // Random walk from `cur`, occasionally revisiting cells.
            let walk = |cur: &mut Point, steps: usize, next: &mut dyn FnMut(usize) -> usize| {
                let mut cells = vec![*cur];
                for _ in 0..steps {
                    let q = cur.neighbors4()[next(4)];
                    if q.x < 0 || q.y < 0 || q.x >= w as i32 || q.y >= h as i32 {
                        continue;
                    }
                    cells.push(q);
                    *cur = q;
                }
                cells
            };
            let mut routed: Vec<RoutedCluster> = Vec::new();
            for id in 0..n as u32 {
                let start = Point::new(next(w) as i32, next(h) as i32);
                if next(3) == 0 {
                    obs.block(start);
                    routed.push(mk_singleton(id, start));
                    continue;
                }
                let mut cur = start;
                let steps = if large { 8 + next(40) } else { 3 + next(9) };
                let cells = walk(&mut cur, steps, &mut next);
                obs.block_all(cells.iter().copied());
                let path = GridPath::new(cells.clone()).unwrap();
                let escape = (next(2) == 0).then(|| {
                    let mut pin = *cells.last().unwrap();
                    let esc = if large {
                        let steps = next(30);
                        walk(&mut pin, steps, &mut next)
                    } else {
                        vec![pin]
                    };
                    obs.block_all(esc.iter().copied());
                    (GridPath::new(esc).unwrap(), pin)
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
            // A flood from another source first, so the compared one runs
            // on used scratch.
            let other = routed[(exclude + 1) % n].member_positions[0];
            flood.blocking_clusters(&obs, &routed, exclude, other, &rip_counts);
            let mut picks_f = flood.blocking_clusters(&obs, &routed, exclude, source, &rip_counts);
            let mut pocket_f = CellRows::new(w, h);
            flood.add_pocket_to(&mut pocket_f);
            let walls_f = flood.evidence();
            let (mut picks_r, pocket_r, walls_r) =
                blocking_clusters_reference(&obs, &routed, exclude, source, &rip_map);
            picks_f.sort_unstable();
            picks_r.sort_unstable();
            assert_eq!(picks_f, picks_r, "trial {trial}: picks diverged");
            let pocket_set: HashSet<Point> = pocket_f
                .iter()
                .map(|i| Point::new((i % w) as i32, (i / w) as i32))
                .collect();
            assert_eq!(
                flood.pocket,
                pocket_set.len(),
                "trial {trial}: flat pocket holds duplicates"
            );
            assert_eq!(pocket_set, pocket_r, "trial {trial}: pocket diverged");
            assert_eq!(walls_f, walls_r, "trial {trial}: frontier diverged");
            capped += usize::from(flood.pocket > 4096);
        }
        assert!(
            capped >= 12,
            "only {capped} of 24 large trials hit the flood cap"
        );
    }
}
