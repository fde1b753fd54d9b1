//! Negotiation-based detailed routing — Algorithm 1 of the paper.
//!
//! Each round routes its pending nets one by one against the live
//! obstacle state, so every net sees the paths committed before it in
//! the round. Between rounds the failed nets and the routed paths that
//! wall them in are ripped up, and the history cost steers the retry;
//! a round that fails more nets than the one before rips every path
//! (Algorithm 1's rip-all step). DESIGN.md §9 describes the loop and
//! §10 why it stays serial.

use crate::{AStar, AStarScratch, HistoryCost};
use pacor_grid::{CellRows, GridPath, ObsMap, Point};
use pacor_obs::{Event, RipReason, SnapshotKind};

/// "Untagged" sentinel for [`RouteRequest::net`].
const NO_NET: u32 = u32::MAX;

/// One tree edge to route: any source cell to any target cell.
///
/// For DME tree edges both sides are single points; for point-to-path and
/// path-to-path connections the cell lists carry the whole path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRequest {
    /// Candidate start cells.
    pub sources: Vec<Point>,
    /// Candidate end cells.
    pub targets: Vec<Point>,
    /// Net id the flight recorder attributes this request to
    /// (`u32::MAX` = untagged; events then fall back to the request
    /// index). Callers tag with their cluster id via
    /// [`RouteRequest::with_net`].
    pub net: u32,
}

impl RouteRequest {
    /// A point-to-point request.
    pub fn point_to_point(source: Point, target: Point) -> Self {
        Self {
            sources: vec![source],
            targets: vec![target],
            net: NO_NET,
        }
    }

    /// Tags the request with a net id for flight-recorder attribution.
    pub fn with_net(mut self, net: u32) -> Self {
        self.net = net;
        self
    }
}

/// The flight-recorder net id of request `e`: its tag, or the request
/// index when untagged.
fn net_id(edges: &[RouteRequest], e: usize) -> u32 {
    match edges[e].net {
        NO_NET => e as u32,
        net => net,
    }
}

/// Builds a mid-negotiation congestion snapshot: per-cell occupancy of
/// the current routed state plus the history cost quantized to integer
/// milli-units (both deterministic, so the snapshot bytes are too).
fn congestion_snapshot(
    session: u32,
    round: u32,
    obs: &ObsMap,
    history: &HistoryCost,
) -> pacor_obs::CongestionSnapshot {
    let (w, h) = (obs.width(), obs.height());
    let mut occupancy = Vec::with_capacity((w * h) as usize);
    let mut heat_milli = Vec::with_capacity((w * h) as usize);
    for y in 0..h {
        for x in 0..w {
            let p = Point::new(x as i32, y as i32);
            occupancy.push(u8::from(obs.is_blocked(p)));
            heat_milli.push((history.cost(p) * 1000.0).round() as u32);
        }
    }
    pacor_obs::CongestionSnapshot {
        kind: SnapshotKind::Round,
        session,
        round,
        width: w,
        height: h,
        occupancy,
        heat_milli,
    }
}

/// Result of a [`NegotiationRouter::route_all`] run.
#[derive(Debug, Clone)]
pub struct NegotiationOutcome {
    /// Routed paths, in request order; `None` for edges that still failed
    /// in the final iteration.
    pub paths: Vec<Option<GridPath>>,
    /// Number of negotiation iterations executed.
    pub iterations: u32,
    /// `true` when every edge routed.
    pub complete: bool,
    /// Routed paths ripped up across all iterations (the work the
    /// negotiation threw away; 0 when everything routed first try).
    pub ripups: u64,
}

impl NegotiationOutcome {
    /// Total routed length in grid units.
    pub fn total_length(&self) -> u64 {
        self.paths.iter().flatten().map(|p| p.len()).sum()
    }
}

/// Outcome of one net's attempt within a round, produced in attempt
/// order by [`attempt_round`].
enum Attempt {
    /// Routed; the path's cells are already blocked in the obstacle map.
    /// The second field is the search's expansion count.
    Routed(GridPath, u32),
    /// Unroutable this round. Carries the search's expansion count —
    /// the size of the free region it flooded, its contended cells —
    /// or `None` when the search was opaque: A\* returns `None` without
    /// searching for an off-map terminal or an empty endpoint list. The
    /// rip-up answers an opaque failure by ripping every routed path.
    Failed(Option<u32>),
}

impl Attempt {
    /// The `net_attempt` event reporting this outcome for `net` in
    /// round `round` of negotiation session `session`. A failed search
    /// reports its flood as both its expansions and its frontier.
    fn event(&self, session: u32, round: u32, net: u32) -> Event {
        let (routed, length, expanded, flood) = match self {
            Attempt::Routed(p, expanded) => (true, p.len(), *expanded, 0),
            Attempt::Failed(flood) => {
                let cells = flood.unwrap_or(0);
                (false, 0, cells, cells)
            }
        };
        Event::NetAttempt {
            session,
            round,
            net,
            routed,
            length,
            expanded,
            flood,
        }
    }
}

/// Attempts every net of `pending`, in order, against the live state:
/// each routed path is blocked in `obs` before the next net searches.
/// Returns one [`Attempt`] per pending net, and ORs the region each
/// failed search flooded into `contended`.
fn attempt_round(
    obs: &mut ObsMap,
    history: &HistoryCost,
    edges: &[RouteRequest],
    pending: &[usize],
    scratch: &mut AStarScratch,
    contended: &mut CellRows,
) -> Vec<Attempt> {
    pending
        .iter()
        .map(|&e| {
            let req = &edges[e];
            let path = AStar::with_history(obs, history).route_with_scratch(
                &req.sources,
                &req.targets,
                scratch,
            );
            match path {
                Some(p) => {
                    obs.block_all(p.cells().iter().copied());
                    Attempt::Routed(p, scratch.expansions() as u32)
                }
                None => match scratch.failed_region() {
                    Some(region) => {
                        contended.union_with(region);
                        Attempt::Failed(Some(scratch.expansions() as u32))
                    }
                    None => Attempt::Failed(None),
                },
            }
        })
        .collect()
}

/// Negotiation-based router (Algorithm 1): sequentially route every edge,
/// treating earlier paths as obstacles; when some edge fails, rip up the
/// failed edges and the routed paths that wall them in, bump the history
/// cost along every ripped path (Eq. 5), and retry — at most `γ`
/// iterations.
///
/// Unlike the original PathFinder, which negotiates *global-routing*
/// congestion, this is detailed routing: a cell holds at most one channel,
/// so "congestion" is binary and the history cost steers A\* toward
/// less-contended regions across iterations.
#[derive(Debug, Clone, Copy)]
pub struct NegotiationRouter {
    /// Maximum number of iterations (`γ`, paper default 10).
    pub gamma: u32,
    /// History base cost (`b`, paper default 1.0).
    pub base: f64,
    /// History decay (`α`, paper default 0.1).
    pub alpha: f64,
}

impl Default for NegotiationRouter {
    fn default() -> Self {
        Self {
            gamma: 10,
            base: 1.0,
            alpha: 0.1,
        }
    }
}

impl NegotiationRouter {
    /// Creates a router with the paper's defaults (γ=10, b=1.0, α=0.1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the iteration threshold γ.
    pub fn with_gamma(mut self, gamma: u32) -> Self {
        self.gamma = gamma;
        self
    }

    /// Overrides the history parameters.
    pub fn with_history_params(mut self, base: f64, alpha: f64) -> Self {
        self.base = base;
        self.alpha = alpha;
        self
    }

    /// Routes every request in `edges`, in request order; successful
    /// paths are left blocked in `obs` **only** when the whole set
    /// completes (so the caller can stack stages); on failure `obs` is
    /// restored.
    ///
    /// Converged paths stay put between rounds; only failed edges and
    /// the routed paths that wall them in are ripped up and retried, and
    /// history is bumped only along ripped paths. A failed A\* search
    /// expands the entire free region reachable from its sources, so the
    /// scratch's failed region is the contended region for free. The
    /// round ORs those regions into one bit-row set; the cells next to
    /// it are the walls, and every routed path that crosses one is
    /// evicted. A round that fails more edges than the one before, or
    /// that has an opaque failure, rips every routed path instead.
    ///
    /// One [`AStarScratch`] is held across the whole negotiation loop, so
    /// every query reuses the same buffers instead of re-borrowing the
    /// thread-local scratch.
    pub fn route_all(&self, obs: &mut ObsMap, edges: &[RouteRequest]) -> NegotiationOutcome {
        let _span = pacor_obs::span_with("negotiate", &[("edges", edges.len() as u64)]);
        let session = pacor_obs::negotiation_start(edges.len() as u32);
        let mut scratch = AStarScratch::new();
        let (width, height) = (obs.width() as usize, obs.height() as usize);
        let mut history =
            HistoryCost::with_params(obs.width(), obs.height(), self.base, self.alpha);
        let outer_cp = obs.checkpoint();
        let mut paths: Vec<Option<GridPath>> = vec![None; edges.len()];
        let mut iterations = 0u32;
        let mut ripups = 0u64;

        // Edges to attempt this round, in request order (all of them in
        // round 1; ripped ones afterwards).
        let mut pending: Vec<usize> = (0..edges.len()).collect();
        // Marks per edge: rip this round.
        let mut rip = vec![false; edges.len()];
        // The union of the round's failed regions (the contended cells)
        // and the cells next to it (the walls).
        let mut contended = CellRows::new(width, height);
        let mut walls = CellRows::new(width, height);
        // Regression detection: a plateauing failed-edge count is normal
        // while history accumulates on the contended cells, but a *rising*
        // one means the last eviction actively made the round worse —
        // local rip-up is thrashing. That round rips every routed path,
        // Algorithm 1's rip-all step with the history accumulated so far,
        // which re-plans every net at once.
        let mut prev_failed = usize::MAX;

        loop {
            iterations += 1;
            pacor_obs::counter_add("negotiate.rounds", 1);
            let _round = pacor_obs::span_with("negotiate.round", &[("round", iterations as u64)]);
            let mut failed: Vec<usize> = Vec::new();
            contended.clear();
            // An opaque failure leaves no region in `contended` to pick
            // victims with, so its round rips every routed path.
            let mut opaque = false;
            let attempts =
                attempt_round(obs, &history, edges, &pending, &mut scratch, &mut contended);
            for (attempt, &e) in attempts.into_iter().zip(&pending) {
                pacor_obs::emit(attempt.event(session, iterations, net_id(edges, e)));
                match attempt {
                    Attempt::Routed(p, _) => paths[e] = Some(p),
                    Attempt::Failed(flood) => {
                        failed.push(e);
                        opaque |= flood.is_none();
                    }
                }
            }
            if pacor_obs::flight_snapshot_due(
                iterations,
                failed.is_empty() || iterations >= self.gamma,
            ) {
                pacor_obs::flight_snapshot(congestion_snapshot(session, iterations, obs, &history));
            }
            if pacor_obs::recording() {
                let routed_total = paths.iter().flatten().count() as u64;
                pacor_obs::emit(Event::RoundProgress {
                    session,
                    round: iterations,
                    rounds_left: if failed.is_empty() {
                        0
                    } else {
                        self.gamma.saturating_sub(iterations)
                    },
                    attempted: pending.len() as u64,
                    routed: routed_total,
                    failed: failed.len() as u64,
                    ripups,
                    pressure: history.pressure_cells(),
                    completion_milli: routed_total * 1000 / edges.len().max(1) as u64,
                    elapsed_us: 0,
                    eta_us: 0,
                });
            }

            if failed.is_empty() {
                return NegotiationOutcome {
                    paths,
                    iterations,
                    complete: true,
                    ripups,
                };
            }
            if iterations >= self.gamma {
                // Leave the partial result rolled back: the caller
                // decides what to do with the failure.
                obs.rollback(outer_cp);
                return NegotiationOutcome {
                    paths,
                    iterations,
                    complete: false,
                    ripups,
                };
            }

            let rip_all = opaque || failed.len() > prev_failed;
            prev_failed = failed.len();

            // Victim selection: routed paths crossing the frontier of the
            // contended region (the flooded cells are free by definition,
            // so the walls are their blocked neighbors). Every routed
            // path is tested, those routed after a failed search in the
            // same round included.
            let _ripup = pacor_obs::span("negotiate.ripup");
            rip.iter_mut().for_each(|r| *r = rip_all);
            for &e in &failed {
                rip[e] = true;
            }
            if !rip_all {
                contended.dilate_into(&mut walls);
                for (r, p) in rip.iter_mut().zip(&paths) {
                    if let Some(p) = p {
                        *r |= p.cells().iter().any(|&c| walls.contains(c));
                    }
                }
            }

            // Rip up: bump history only along ripped paths, and re-block
            // the kept paths after rolling the transient state back.
            let victim_reason = if opaque {
                RipReason::Opaque
            } else if rip_all {
                RipReason::Escalated
            } else {
                RipReason::ContendedWall
            };
            let mut round_ripups = 0u64;
            for (e, slot) in paths.iter_mut().enumerate() {
                if !rip[e] {
                    continue;
                }
                if let Some(p) = slot.take() {
                    round_ripups += 1;
                    pacor_obs::emit(Event::RipUp {
                        session,
                        round: iterations,
                        net: net_id(edges, e),
                        reason: victim_reason,
                    });
                    history.bump_all([p.cells()]);
                }
            }
            ripups += round_ripups;
            pacor_obs::counter_add("negotiate.ripups", round_ripups);
            obs.rollback(outer_cp);
            for p in paths.iter().flatten() {
                obs.block_all(p.cells().iter().copied());
            }
            pending = (0..edges.len()).filter(|&e| rip[e]).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacor_grid::Grid;

    fn open(w: u32, h: u32) -> ObsMap {
        ObsMap::new(&Grid::new(w, h).unwrap())
    }

    #[test]
    fn independent_edges_route_first_try() {
        let mut obs = open(10, 10);
        let edges = vec![
            RouteRequest::point_to_point(Point::new(0, 0), Point::new(5, 0)),
            RouteRequest::point_to_point(Point::new(0, 5), Point::new(5, 5)),
        ];
        let out = NegotiationRouter::new().route_all(&mut obs, &edges);
        assert!(out.complete);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.total_length(), 10);
    }

    #[test]
    fn routed_paths_stay_blocked_on_success() {
        let mut obs = open(6, 6);
        let edges = vec![RouteRequest::point_to_point(
            Point::new(0, 0),
            Point::new(3, 0),
        )];
        let out = NegotiationRouter::new().route_all(&mut obs, &edges);
        assert!(out.complete);
        for c in out.paths[0].as_ref().unwrap().iter() {
            assert!(obs.is_blocked(*c));
        }
    }

    #[test]
    fn negotiation_resolves_crossing_demand() {
        // Two nets whose straight routes would cross; the planar solution
        // sends the vertical net around the horizontal net's endpoints
        // (interior terminals leave room at x=0 and x=8).
        let mut obs = open(9, 9);
        let edges = vec![
            RouteRequest::point_to_point(Point::new(1, 4), Point::new(7, 4)),
            RouteRequest::point_to_point(Point::new(4, 1), Point::new(4, 7)),
        ];
        let out = NegotiationRouter::new().route_all(&mut obs, &edges);
        assert!(out.complete, "9x9 grid has room to dodge");
        // Disjointness.
        let a = out.paths[0].as_ref().unwrap();
        let b = out.paths[1].as_ref().unwrap();
        for c in a.iter() {
            assert!(!b.contains(*c));
        }
    }

    #[test]
    fn impossible_set_fails_and_restores_obsmap() {
        // A 1-cell-wide corridor cannot carry two nets.
        let mut g = Grid::new(7, 3).unwrap();
        for x in 0..7 {
            g.set_obstacle(Point::new(x, 0));
            g.set_obstacle(Point::new(x, 2));
        }
        let mut obs = ObsMap::new(&g);
        let before = obs.blocked_count();
        let edges = vec![
            RouteRequest::point_to_point(Point::new(0, 1), Point::new(6, 1)),
            RouteRequest::point_to_point(Point::new(1, 1), Point::new(5, 1)),
        ];
        let out = NegotiationRouter::new()
            .with_gamma(3)
            .route_all(&mut obs, &edges);
        assert!(!out.complete);
        assert_eq!(out.iterations, 3);
        assert_eq!(obs.blocked_count(), before, "failure must restore the map");
    }

    #[test]
    fn order_dependent_conflict_resolved_by_history() {
        // Edge 1 routed greedily blocks edge 2's only corridor; after a
        // failed iteration the history cost pushes edge 1 to its
        // alternative, freeing the corridor.
        let mut g = Grid::new(7, 5).unwrap();
        // Corridors at y=1 and y=3 between walls.
        for x in 1..6 {
            g.set_obstacle(Point::new(x, 2));
        }
        // Edge 2's terminals only connect through y=1: block its access
        // to other rows.
        g.set_obstacle(Point::new(0, 0));
        g.set_obstacle(Point::new(6, 0));
        let mut obs = ObsMap::new(&g);
        let edges = vec![
            // Edge 1 can use either corridor (terminals on open columns).
            RouteRequest::point_to_point(Point::new(0, 1), Point::new(6, 1)),
            // Edge 2 must use row 1 (terminals inside row 1).
            RouteRequest::point_to_point(Point::new(1, 0), Point::new(5, 0)),
        ];
        let out = NegotiationRouter::new().route_all(&mut obs, &edges);
        assert!(out.complete, "negotiation should converge");
        assert!(out.iterations >= 1);
    }

    #[test]
    fn empty_edge_list_is_trivially_complete() {
        let mut obs = open(4, 4);
        let out = NegotiationRouter::new().route_all(&mut obs, &[]);
        assert!(out.complete);
        assert_eq!(out.paths.len(), 0);
        assert_eq!(out.total_length(), 0);
    }

    #[test]
    fn incremental_keeps_untouched_paths() {
        // Edge 0 routes along y=0 far from the congestion around x=5.
        // When edges 1 and 2 fight over the center gap, edge 0's path
        // must survive untouched: it is identical to a solo route.
        let mut g = Grid::new(11, 11).unwrap();
        // A wall with a single gap at (5, 5) splits rows 4..=6.
        for x in 1..10 {
            if x != 5 {
                g.set_obstacle(Point::new(x, 5));
            }
        }
        let mut obs = ObsMap::new(&g);
        let solo = {
            let mut fresh = obs.clone();
            let out = NegotiationRouter::new().route_all(
                &mut fresh,
                &[RouteRequest::point_to_point(
                    Point::new(0, 0),
                    Point::new(10, 0),
                )],
            );
            out.paths[0].clone().unwrap()
        };
        let edges = vec![
            RouteRequest::point_to_point(Point::new(0, 0), Point::new(10, 0)),
            RouteRequest::point_to_point(Point::new(5, 3), Point::new(5, 7)),
            RouteRequest::point_to_point(Point::new(3, 4), Point::new(7, 6)),
        ];
        let out = NegotiationRouter::new().route_all(&mut obs, &edges);
        assert!(out.complete);
        assert_eq!(out.paths[0].as_ref().unwrap().cells(), solo.cells());
    }

    #[test]
    fn opaque_failure_rips_every_routed_net_each_round() {
        // Request 1's target lies off the map, so A* answers it with
        // `None` without searching: no failed region names its walls,
        // and every failed round rips every routed path instead.
        let mut obs = open(8, 8);
        let before = obs.blocked_cells().to_vec();
        let edges = vec![
            RouteRequest::point_to_point(Point::new(0, 0), Point::new(7, 0)),
            RouteRequest::point_to_point(Point::new(0, 3), Point::new(8, 3)),
            RouteRequest::point_to_point(Point::new(0, 6), Point::new(7, 6)),
        ];
        let gamma = 4;
        pacor_obs::flight_install(pacor_obs::RecorderConfig::default());
        let out = NegotiationRouter::new()
            .with_gamma(gamma)
            .route_all(&mut obs, &edges);
        let log = pacor_obs::flight_take().expect("recorder installed");

        assert!(!out.complete);
        assert_eq!(out.iterations, gamma);
        assert!(out.paths[1].is_none());
        assert_eq!(obs.blocked_cells(), before, "failure must restore the map");
        for round in 1..=gamma {
            let mut routed = Vec::new();
            for e in log.events() {
                match *e {
                    Event::NetAttempt {
                        round: r,
                        net,
                        routed: true,
                        ..
                    } if r == round => routed.push(net),
                    Event::NetAttempt {
                        round: r,
                        net: 1,
                        routed,
                        expanded,
                        flood,
                        ..
                    } if r == round => {
                        assert_eq!((routed, expanded, flood), (false, 0, 0), "round {round}")
                    }
                    _ => {}
                }
            }
            assert_eq!(routed, vec![0, 2], "round {round}");
            let ripped: Vec<(u32, RipReason)> = log
                .events()
                .iter()
                .filter_map(|e| match *e {
                    Event::RipUp {
                        round: r,
                        net,
                        reason,
                        ..
                    } if r == round => Some((net, reason)),
                    _ => None,
                })
                .collect();
            // The last round returns the failure without ripping.
            let want = if round < gamma {
                vec![(0, RipReason::Opaque), (2, RipReason::Opaque)]
            } else {
                vec![]
            };
            assert_eq!(ripped, want, "round {round}");
        }
        assert_eq!(out.ripups, 2 * u64::from(gamma - 1));
    }

    /// Routes `edges` once (γ = 1) under an obs session and a flight
    /// recorder; returns the `net_attempt` events and `astar.expansions`.
    fn recorded_single_round(obs: &mut ObsMap, edges: &[RouteRequest]) -> (Vec<Event>, u64) {
        let session = pacor_obs::Session::begin();
        pacor_obs::flight_install(pacor_obs::RecorderConfig::default());
        NegotiationRouter::new().with_gamma(1).route_all(obs, edges);
        let log = pacor_obs::flight_take().expect("recorder installed");
        let expansions = session.finish().counter("astar.expansions");
        let attempts = log
            .events()
            .iter()
            .filter(|e| e.kind() == "net_attempt")
            .cloned()
            .collect();
        (attempts, expansions)
    }

    #[test]
    fn net_attempt_expanded_counts_the_search() {
        let edge = [RouteRequest::point_to_point(
            Point::new(1, 1),
            Point::new(7, 1),
        )];
        // Routable: a wall with a gap at the bottom row forces a detour.
        let mut g = Grid::new(9, 9).unwrap();
        for y in 0..8 {
            g.set_obstacle(Point::new(4, y));
        }
        let (attempts, expansions) = recorded_single_round(&mut ObsMap::new(&g), &edge);
        match attempts.as_slice() {
            [Event::NetAttempt {
                routed: true,
                expanded,
                flood: 0,
                ..
            }] => {
                assert!(expansions > 0);
                assert_eq!(*expanded as u64, expansions);
            }
            other => panic!("expected one routed attempt, got {other:?}"),
        }
        // Walled in: the failed attempt reports its flood as expanded.
        g.set_obstacle(Point::new(4, 8));
        let (attempts, expansions) = recorded_single_round(&mut ObsMap::new(&g), &edge);
        match attempts.as_slice() {
            [Event::NetAttempt {
                routed: false,
                expanded,
                flood,
                ..
            }] => {
                assert!(*flood > 0);
                assert_eq!(expanded, flood);
                assert_eq!(*flood as u64, expansions);
            }
            other => panic!("expected one failed attempt, got {other:?}"),
        }
    }

    #[test]
    fn gamma_one_gives_single_shot() {
        let mut obs = open(5, 5);
        let edges = vec![
            RouteRequest::point_to_point(Point::new(0, 2), Point::new(4, 2)),
            RouteRequest::point_to_point(Point::new(2, 0), Point::new(2, 4)),
        ];
        let out = NegotiationRouter::new()
            .with_gamma(1)
            .route_all(&mut obs, &edges);
        assert_eq!(out.iterations, 1);
        // On a 5x5 the second net may or may not complete in one shot —
        // but the call must report consistently.
        assert_eq!(out.complete, out.paths.iter().all(Option::is_some));
    }
}
