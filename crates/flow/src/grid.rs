//! The grid-native cold escape solver.
//!
//! [`GridEscape`] solves the node-split network of the escape
//! formulation (module docs of `escape.rs`) without materializing it.
//! The cell part of the network is implicit: per cell one flag word
//! holds the transit and neighbour bits, the movement and pin-drain
//! capacities, and the unit-flow bits of the split arc, the four
//! movement arcs in each direction, and the pin drain; neighbours are
//! found by index arithmetic. Only each source's feed, exit, direct-pin
//! and overflow arcs are explicit. Every call solves cold — zero flow,
//! zero potentials — by successive shortest paths with Dijkstra and
//! Johnson potentials. Which of several optimal flows comes out is
//! fixed by these rules, and the golden snapshots pin the routes they
//! give:
//!
//! * **Node order.** `in(c) = 2c` and `out(c) = 2c + 1` over row-major
//!   cells, then one node per source in input order, then the super
//!   source and the sink. The queue pops ascending `(distance, node)`.
//! * **Arc order.** Strict improvement keeps the first of equal offers,
//!   so among parallel arcs the first one tried wins: a source's arcs
//!   are tried in its cell-list order with the overflow arc last.
//!   Parallel copies of a movement or drain arc (a cell listed twice)
//!   are one arc of capacity ≥ 2: every such arc carries at most one
//!   unit, because the node it enters passes at most one.
//! * **Costs.** One tap tier is the chip's cell count + 1; β dominates
//!   every tier a source can stack (`costs` in `escape.rs`).
//! * **Extraction.** Sources walk their units out in input order, each
//!   leaving a cell by its last flowing movement arc in `neighbors4`
//!   order that no earlier walk took, so sources sharing an exit cell
//!   get distinct routes.

use crate::escape::{costs, walk_route, EscapeOutcome, EscapeSource, EscapeWork};
use crate::queue::{assert_potential_drift, LevelQueue, NodeState, QueueMark};
use pacor_grid::{GridPath, ObsMap, Point};
use std::cell::Cell;

// Per-cell flag word. Directions follow `Point::neighbors4`: 0 = x − 1,
// 1 = x + 1, 2 = y − 1, 3 = y + 1; the opposite of `d` is `d ^ 1`.
/// Bits 0–3: the neighbour in direction `d` is in bounds and transit.
const NB: u32 = 0xF;
/// Bits 4–7: a unit flows `out(c) → in(neighbour d)`.
const OUT: u32 = 4;
/// Bits 8–11: a unit flows `out(neighbour d) → in(c)`.
const IN: u32 = 8;
const TRANSIT: u32 = 1 << 12;
/// A unit flows through the split arc `in(c) → out(c)`.
const SPLIT_FLOW: u32 = 1 << 13;
/// A unit drains `out(c) → sink`.
const DRAIN_FLOW: u32 = 1 << 14;
/// Two bits: capacity of each movement arc leaving `out(c)` — 0, 1, or
/// 2 standing for "≥ 2" (no arc ever carries more than one unit).
const MOVE_CAP: u32 = 15;
/// Two bits: pin-drain capacity, saturating like [`MOVE_CAP`].
const DRAIN_CAP: u32 = 17;
/// Some source exits into `out(c)` through an explicit arc.
const EXIT: u32 = 1 << 19;

// Parent codes: the low three bits tag the arc that reached a node; a
// movement tag is the direction from the node's cell to its parent's.
const TAG_SPLIT: u32 = 4;
const TAG_FEED: u32 = 5;
/// Payload: the pin cell.
const TAG_DRAIN: u32 = 6;
/// Payload: explicit arc index · 2 + 1 when traversed in reverse.
const TAG_ARC: u32 = 7;

const NONE: u32 = u32::MAX;

#[inline]
fn cap_of(f: u32, at: u32) -> u32 {
    (f >> at) & 3
}

#[inline]
fn bump_cap(f: &mut u32, at: u32) {
    let c = (cap_of(*f, at) + 1).min(2);
    *f = (*f & !(3 << at)) | (c << at);
}

/// One explicit arc leaving a source node.
#[derive(Debug, Clone, Copy)]
struct Arc {
    /// Head node: `out(cell)` for an exit, the sink for a direct-pin or
    /// overflow arc.
    to: u32,
    cost: i32,
    /// The exit or pin cell ([`NONE`] for the overflow arc).
    cell: u32,
    /// Index of the source the arc leaves.
    src: u32,
    /// Next exit arc into the same cell ([`NONE`] ends the list).
    next_at: u32,
    flow: bool,
}

/// The search state at a level-0 pop of a fed source: where the search
/// rewinds to once a zero-distance path fills that source's feed.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Index of the popped source.
    src: u32,
    /// `touched` length at the pop.
    touched: u32,
    /// `undo` length at the pop.
    undo: u32,
    queue: QueueMark,
}

/// Cold escape solver over the implicit node-split grid network; see the
/// module docs. Reusing one value across calls reuses its scratch.
#[derive(Debug, Default)]
pub struct GridEscape {
    width: usize,
    cells: Vec<u32>,
    /// Per cell of the map padded by one cell on every side: 1 when the
    /// cell is transit. Scratch of [`Self::load`].
    transit: Vec<u8>,
    /// Per cell: first exit arc into it ([`NONE`] when none).
    exit_head: Vec<u32>,
    arcs: Vec<Arc>,
    /// Source `i` owns `arcs[arc_start[i]..arc_start[i + 1]]`, overflow
    /// last.
    arc_start: Vec<u32>,
    /// Per source: the super-source feed carries its unit.
    feed: Vec<bool>,
    node: Vec<NodeState>,
    prev: Vec<u32>,
    touched: Vec<u32>,
    queue: LevelQueue,
    /// The current search's fed-source pops at level 0, in pop order.
    marks: Vec<Mark>,
    /// `(node, dist, prev)` before each level-0 improvement of a
    /// labelled node, so a rewind can restore the labels.
    undo: Vec<(u32, i32, u32)>,
    work: EscapeWork,
    /// Never rewind: every search starts fresh.
    #[cfg(test)]
    fresh_only: bool,
    /// Rewinds so far, and those that skip a dead source's flood.
    #[cfg(test)]
    rewinds: (u64, u64),
}

impl GridEscape {
    /// An empty solver; scratch grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A solver that never rewinds, so every search starts fresh.
    #[cfg(test)]
    pub(crate) fn fresh_only() -> Self {
        Self {
            fresh_only: true,
            ..Self::default()
        }
    }

    /// Rewinds so far, and how many of them skip the flood of a source
    /// popped before the routed one.
    #[cfg(test)]
    pub(crate) fn rewinds(&self) -> (u64, u64) {
        self.rewinds
    }

    /// Routes `sources` to `pins` over `obs` and extracts the per-source
    /// paths: a min-cost flow, so the most sources routed, then the least
    /// channel length plus tap tiers.
    pub fn solve(
        &mut self,
        obs: &ObsMap,
        sources: &[EscapeSource],
        pins: &[Point],
    ) -> EscapeOutcome {
        let beta = self.load(obs, sources, pins);
        let flow = self.augment(sources.len() as i64, beta);
        self.extract(flow)
    }

    /// Resets the network to zero flow over `obs` and writes the cell
    /// flags and explicit source arcs. Returns β.
    fn load(&mut self, obs: &ObsMap, sources: &[EscapeSource], pins: &[Point]) -> i64 {
        let (w, h) = (obs.width() as usize, obs.height() as usize);
        let n = w * h;
        self.width = w;
        self.cells.clear();
        self.cells.resize(n, 0);
        self.exit_head.clear();
        self.exit_head.resize(n, NONE);
        let in_bounds = |p: Point| p.x >= 0 && p.y >= 0 && (p.x as usize) < w && (p.y as usize) < h;
        let idx = |p: Point| p.y as usize * w + p.x as usize;

        // Pin multiplicity parks in the drain-capacity bits, then the
        // transit pass keeps it only on unblocked pins (constraint (8):
        // boundary cells that are not pins are obstacles).
        for &p in pins {
            if in_bounds(p) {
                bump_cap(&mut self.cells[idx(p)], DRAIN_CAP);
            }
        }
        // Transit flags, one byte per cell on a copy padded by one
        // never-transit cell on every side: the neighbour pass below
        // reads each cell's four neighbours at fixed offsets, without a
        // bounds test.
        let pw = w + 2;
        self.transit.clear();
        self.transit.resize(pw * (h + 2), 0);
        for (y, ((row, blocked), padded)) in self
            .cells
            .chunks_exact_mut(w)
            .zip(obs.blocked_cells().chunks_exact(w))
            .zip(self.transit[pw..].chunks_exact_mut(pw))
            .enumerate()
        {
            let inner_row = y > 0 && y + 1 < h;
            for (x, ((f, &blocked), t)) in row
                .iter_mut()
                .zip(blocked)
                .zip(&mut padded[1..=w])
                .enumerate()
            {
                let interior = inner_row & (x > 0) & (x + 1 < w);
                let transit = !blocked & ((cap_of(*f, DRAIN_CAP) != 0) | interior);
                *f &= !(u32::from(blocked) * (3 << DRAIN_CAP));
                *f |= u32::from(transit) * (TRANSIT | 1 << MOVE_CAP);
                *t = u8::from(transit);
            }
        }
        let transit = &self.transit;
        let at = |row: usize, col: usize| &transit[row * pw + col..][..w];
        for (y, row) in self.cells.chunks_exact_mut(w).enumerate() {
            // Padded row y + 1 holds grid row y, padded column x + 1 column x.
            let sides = at(y + 1, 0).iter().zip(at(y + 1, 2));
            let ends = at(y, 1).iter().zip(at(y + 2, 1));
            for (f, ((&left, &right), (&up, &down))) in row.iter_mut().zip(sides.zip(ends)) {
                *f |= u32::from(left)
                    | u32::from(right) << 1
                    | u32::from(up) << 2
                    | u32::from(down) << 3;
            }
        }

        let (tier, beta) = costs(n, sources);
        let sink = (2 * n + sources.len() + 1) as u32;
        self.arcs.clear();
        self.arc_start.clear();
        for (si, src) in sources.iter().enumerate() {
            self.arc_start.push(self.arcs.len() as u32);
            for (k, &p) in src.cells.iter().enumerate() {
                if !in_bounds(p) {
                    continue;
                }
                let c = idx(p);
                let mut arc = Arc {
                    to: sink,
                    cost: i32::try_from(src.tap_cost(k) * tier).expect("tap cost exceeds i32"),
                    cell: c as u32,
                    src: si as u32,
                    next_at: NONE,
                    flow: false,
                };
                let f = &mut self.cells[c];
                if cap_of(*f, DRAIN_CAP) == 0 {
                    // Exit into the cell's out-node: flow originates on
                    // the routed path but never transits it, and a
                    // blocked exit gains its out-node's movement arcs.
                    arc.to = 2 * c as u32 + 1;
                    arc.next_at = self.exit_head[c];
                    self.exit_head[c] = self.arcs.len() as u32;
                    if *f & TRANSIT == 0 {
                        bump_cap(f, MOVE_CAP);
                    }
                    *f |= EXIT;
                }
                self.arcs.push(arc);
            }
            self.arcs.push(Arc {
                to: sink,
                cost: i32::try_from(beta).expect("overflow cost exceeds i32"),
                cell: NONE,
                src: si as u32,
                next_at: NONE,
                flow: false,
            });
        }
        self.arc_start.push(self.arcs.len() as u32);

        let n_nodes = 2 * n + sources.len() + 2;
        self.feed.clear();
        self.feed.resize(sources.len(), false);
        self.node.clear();
        self.node.resize(n_nodes, NodeState::CLEAN);
        self.prev.resize(n_nodes, NONE);
        self.touched.clear();
        self.work = EscapeWork::default();
        beta
    }

    /// The successive-shortest-path loop on the implicit network:
    /// augments up to `want` unit paths, stopping early when the sink is
    /// unreachable or the next path costs `β`. Every real route is
    /// cheaper than β and path costs never decrease, so each source left
    /// without flow would only have overflowed. Returns the units routed.
    ///
    /// A search that reaches the sink at distance 0 leaves every
    /// potential as it is, so the next search resumes it from where it
    /// popped the routed source instead of starting over ([`Self::rewind`],
    /// DESIGN §14.5); it pops the same nodes in the same order.
    fn augment(&mut self, want: i64, beta: i64) -> i64 {
        let n2 = 2 * self.cells.len();
        let ns = self.feed.len();
        let (s, t) = (n2 + ns, n2 + ns + 1);
        let w = self.width as isize;
        let step = [-1, 1, -w, w];
        let mut flow = 0;
        let mut resume = false;
        while flow < want {
            // `touched` lists the nodes whose `dist` is set (a rewound
            // source may be listed twice); the potential update below
            // resets them.
            let labelled = self.touched.len();
            if !resume {
                self.queue.reset(t + 1);
                self.marks.clear();
                self.undo.clear();
                self.node[s].dist = 0;
                self.touched.push(s as u32);
                self.queue.push(s, 0);
            }
            'search: while let Some((popped, d)) = {
                let node = &self.node;
                self.queue.pop(|v| node[v].dist, node[t].dist)
            } {
                let mut u = popped;
                'node: loop {
                    let pu = self.node[u].pot;
                    macro_rules! relax {
                        ($v:expr, $cost:expr, $code:expr) => {
                            relax!($v, $cost, $code, false)
                        };
                        // `next`: a tight improvement makes `v` the very
                        // next pop, so settle it right away.
                        ($v:expr, $cost:expr, $code:expr, $next:expr) => {{
                            let v: usize = $v;
                            let st = self.node[v];
                            let nd = d + $cost + pu - st.pot;
                            debug_assert!(nd >= d, "negative reduced cost");
                            if nd < st.dist {
                                if st.dist == i32::MAX {
                                    self.touched.push(v as u32);
                                } else if d == 0 {
                                    self.undo.push((v as u32, st.dist, self.prev[v]));
                                }
                                self.node[v].dist = nd;
                                self.prev[v] = $code;
                                if nd == d && v == t {
                                    // Tight relaxation into the sink: no
                                    // later settle can improve it or (by
                                    // strict improvement) reassign its
                                    // parent, and the remaining plateau
                                    // settles shift every potential by
                                    // zero, so settle it here.
                                    break 'search;
                                }
                                if nd == d && $next {
                                    u = v;
                                    continue 'node;
                                }
                                self.queue.push(v, nd);
                            }
                        }};
                    }
                    if u < n2 {
                        let c = u >> 1;
                        let f = self.cells[c];
                        if u & 1 == 0 {
                            let mut m = (f >> IN) & 0xF;
                            if f & (TRANSIT | SPLIT_FLOW) == TRANSIT {
                                // With no reversed inflow to relax, out(c)
                                // = u + 1 is the lowest id left at this
                                // level once the tight split reaches it.
                                relax!(u + 1, 0, TAG_SPLIT, m == 0);
                            }
                            while m != 0 {
                                let dir = m.trailing_zeros();
                                m &= m - 1;
                                let p = (c as isize + step[dir as usize]) as usize;
                                relax!(2 * p + 1, -1, dir ^ 1);
                            }
                        } else {
                            let cap = cap_of(f, MOVE_CAP);
                            if cap != 0 {
                                let mut m = f & NB;
                                if cap == 1 {
                                    m &= !(f >> OUT);
                                }
                                while m != 0 {
                                    let dir = m.trailing_zeros();
                                    m &= m - 1;
                                    let q = (c as isize + step[dir as usize]) as usize;
                                    relax!(2 * q, 1, dir ^ 1);
                                }
                            }
                            let drain = cap_of(f, DRAIN_CAP);
                            if drain > 1 || (drain == 1 && f & DRAIN_FLOW == 0) {
                                relax!(t, 0, (c as u32) << 3 | TAG_DRAIN);
                            }
                            if f & SPLIT_FLOW != 0 {
                                relax!(u - 1, 0, TAG_SPLIT);
                            }
                            if f & EXIT != 0 {
                                let mut a = self.exit_head[c];
                                while a != NONE {
                                    let arc = self.arcs[a as usize];
                                    if arc.flow {
                                        relax!(
                                            n2 + arc.src as usize,
                                            -arc.cost,
                                            (2 * a + 1) << 3 | TAG_ARC
                                        );
                                    }
                                    a = arc.next_at;
                                }
                            }
                        }
                    } else if u < s {
                        let si = u - n2;
                        if d == 0 && self.prev[u] == TAG_FEED {
                            self.marks.push(Mark {
                                src: si as u32,
                                touched: self.touched.len() as u32,
                                undo: self.undo.len() as u32,
                                queue: self.queue.mark(),
                            });
                        }
                        for a in self.arc_start[si]..self.arc_start[si + 1] {
                            let arc = self.arcs[a as usize];
                            if !arc.flow {
                                relax!(arc.to as usize, arc.cost, (2 * a) << 3 | TAG_ARC);
                            }
                        }
                    } else {
                        // The super source; the sink is never popped. A
                        // reversed feed cannot improve the super source,
                        // which sits at distance 0 below every reduced cost.
                        for si in 0..ns {
                            if !self.feed[si] {
                                relax!(n2 + si, 0, TAG_FEED);
                            }
                        }
                    }
                    break;
                }
            }
            self.work.dijkstras += 1;
            self.work.touched += (self.touched.len() - labelled) as u64;
            let dt = self.node[t].dist;
            if dt == i32::MAX {
                break; // t unreachable: maximal flow attained
            }
            if (dt as i64) + (self.node[t].pot as i64) - (self.node[s].pot as i64) >= beta {
                break;
            }
            #[cfg(test)]
            let rewind = dt == 0 && !self.fresh_only;
            #[cfg(not(test))]
            let rewind = dt == 0;
            if !rewind {
                for &v in &self.touched {
                    let st = &mut self.node[v as usize];
                    if st.dist < dt {
                        st.pot += st.dist - dt;
                    }
                    st.dist = i32::MAX;
                }
                self.touched.clear();
                assert_potential_drift(self.node[s].pot);
            }
            // `routed`: the node the path leaves `s` through.
            let (mut v, mut routed) = (t, t);
            while v != s {
                routed = v;
                v = self.flip(v, &step);
            }
            if rewind {
                self.rewind(routed - n2);
            }
            resume = rewind;
            flow += 1;
        }
        flow
    }

    /// Rewinds the search that just routed source `si` along a
    /// zero-distance path to where it popped `si`, and drops `si`.
    /// Every node popped before `si` keeps its arcs and reduced costs,
    /// so a fresh search would repeat those pops and reach this state,
    /// except that `si`'s feed is now full (DESIGN §14.5).
    fn rewind(&mut self, si: usize) {
        let n2 = 2 * self.cells.len();
        let k = self
            .marks
            .iter()
            .rposition(|m| m.src as usize == si)
            .expect("a zero-distance path leaves through a marked source");
        #[cfg(test)]
        {
            self.rewinds.0 += 1;
            self.rewinds.1 += u64::from(k > 0);
        }
        let mark = self.marks[k];
        self.marks.truncate(k);
        for &(v, dist, prev) in self.undo[mark.undo as usize..].iter().rev() {
            self.node[v as usize].dist = dist;
            self.prev[v as usize] = prev;
        }
        self.undo.truncate(mark.undo as usize);
        for &v in &self.touched[mark.touched as usize..] {
            self.node[v as usize].dist = i32::MAX;
        }
        self.touched.truncate(mark.touched as usize);
        // `si` stays listed in `touched`; the reset skips it unlabelled.
        self.node[n2 + si].dist = i32::MAX;
        // At `si`'s pop every queued level-0 node was a source above it:
        // each cell id is lower and would have popped first.
        let node = &self.node;
        let plateau = (n2 + si + 1..n2 + self.feed.len()).filter(|&v| node[v].dist == 0);
        self.queue.rewind(&mark.queue, plateau);
    }

    /// Pushes one unit across the arc that reached `v` on the current
    /// shortest-path tree and returns the arc's tail.
    fn flip(&mut self, v: usize, step: &[isize; 4]) -> usize {
        let n2 = 2 * self.cells.len();
        let code = self.prev[v];
        let payload = (code >> 3) as usize;
        match code & 7 {
            dir @ 0..=3 => {
                let c = v >> 1;
                let p = (c as isize + step[dir as usize]) as usize;
                if v & 1 == 0 {
                    // out(p) → in(c) forward.
                    debug_assert_eq!(
                        self.cells[c] & 1 << (IN + dir),
                        0,
                        "movement carries one unit"
                    );
                    self.cells[p] |= 1 << (OUT + (dir ^ 1));
                    self.cells[c] |= 1 << (IN + dir);
                    2 * p + 1
                } else {
                    // out(c) → in(p) cancelled.
                    self.cells[c] &= !(1 << (OUT + dir));
                    self.cells[p] &= !(1 << (IN + (dir ^ 1)));
                    2 * p
                }
            }
            TAG_SPLIT => {
                let c = v >> 1;
                if v & 1 == 1 {
                    self.cells[c] |= SPLIT_FLOW;
                    v - 1
                } else {
                    self.cells[c] &= !SPLIT_FLOW;
                    v + 1
                }
            }
            TAG_FEED => {
                self.feed[v - n2] = true;
                n2 + self.feed.len()
            }
            TAG_DRAIN => {
                self.cells[payload] |= DRAIN_FLOW;
                2 * payload + 1
            }
            _ => {
                let arc = &mut self.arcs[payload >> 1];
                if payload & 1 == 0 {
                    arc.flow = true;
                    n2 + arc.src as usize
                } else {
                    arc.flow = false;
                    2 * arc.cell as usize + 1
                }
            }
        }
    }

    /// Per-source routes from the flow bits: the source's first arc that
    /// carries flow, then the next hops from its exit cell to a pin.
    /// Consumes the movement-flow bits it walks.
    fn extract(&mut self, flow: i64) -> EscapeOutcome {
        let w = self.width;
        let point_of = |c: usize| Point::new((c % w) as i32, (c / w) as i32);
        // Several units leave a cell only at an exit cell: one listed by
        // several sources, or an unblocked one that also carries transit
        // flow. Each walk leaves a cell by its last flowing movement arc
        // in `neighbors4` order and clears that arc's bit, so the next
        // unit out of the cell takes another arc.
        let cells = Cell::from_mut(&mut self.cells[..]).as_slice_of_cells();
        let next_of = |c: usize| {
            let f = cells[c].get();
            let m = (f >> OUT) & 0xF;
            (m != 0).then(|| {
                let dir = 31 - m.leading_zeros() as usize;
                cells[c].set(f & !(1 << (OUT as usize + dir)));
                [c.wrapping_sub(1), c + 1, c.wrapping_sub(w), c + w][dir]
            })
        };
        let pin_at = |c: usize| cells[c].get() & DRAIN_FLOW != 0;
        let mut routes = Vec::with_capacity(self.feed.len());
        let mut total_length = 0u64;
        let mut routed = 0usize;
        let mut overflowed = 0usize;
        for si in 0..self.feed.len() {
            let arcs = &self.arcs[self.arc_start[si] as usize..self.arc_start[si + 1] as usize];
            let (overflow, taps) = arcs.split_last().expect("every source has an overflow arc");
            if overflow.flow {
                overflowed += 1;
                routes.push(None);
                continue;
            }
            // No flow at all: the source was cut off by the β bail-out.
            let Some(tap) = taps.iter().find(|a| a.flow) else {
                routes.push(None);
                continue;
            };
            let cell = point_of(tap.cell as usize);
            let route = if tap.cell as usize * 2 + 1 == tap.to as usize {
                walk_route(cell, w, next_of, pin_at)
            } else {
                (GridPath::singleton(cell), cell)
            };
            total_length += route.0.len();
            routed += 1;
            routes.push(Some(route));
        }
        debug_assert_eq!(
            flow,
            (routed + overflowed) as i64,
            "every flow unit ends at a pin, a direct pin, or an overflow arc"
        );
        EscapeOutcome {
            routes,
            total_length,
            routed,
            work: self.work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacor_grid::Grid;

    /// The flags [`GridEscape::load`] must give cell `(x, y)` when no
    /// source exits into it, straight from their definitions: a free
    /// cell is transit when it is a pin or off the boundary, a blocked
    /// pin drains nothing, and the neighbour bits mark the in-bounds
    /// transit neighbours in `Point::neighbors4` order.
    fn cell_flags(obs: &ObsMap, pins: &[Point], p: Point) -> u32 {
        let (w, h) = (obs.width() as i32, obs.height() as i32);
        let in_bounds = |q: Point| q.x >= 0 && q.y >= 0 && q.x < w && q.y < h;
        let drain = |q: Point| pins.iter().filter(|&&pin| pin == q).count().min(2) as u32;
        let transit = |q: Point| {
            let interior = q.x > 0 && q.y > 0 && q.x + 1 < w && q.y + 1 < h;
            in_bounds(q) && !obs.is_blocked(q) && (drain(q) > 0 || interior)
        };
        let mut f = 0;
        for (d, q) in p.neighbors4().into_iter().enumerate() {
            f |= u32::from(transit(q)) << d;
        }
        if transit(p) {
            f |= TRANSIT | 1 << MOVE_CAP;
        }
        if !obs.is_blocked(p) {
            f |= drain(p) << DRAIN_CAP;
        }
        f
    }

    #[test]
    fn load_flags_match_their_definition() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        let mut solver = GridEscape::new();
        for w in [1usize, 63, 64, 65, 96] {
            for trial in 0..6 {
                let h = [1, 2, 3, 17, 64, 96][trial];
                let mut obs = ObsMap::new(&Grid::new(w as u32, h as u32).unwrap());
                let density = 1 + next(4);
                for y in 0..h {
                    for x in 0..w {
                        if next(8) < density {
                            obs.block(Point::new(x as i32, y as i32));
                        }
                    }
                }
                // Pins on the boundary and inside, some listed twice or
                // three times, some off the map.
                let mut pins: Vec<Point> = Vec::new();
                for _ in 0..(w + h) / 2 + 2 {
                    let p = match next(4) {
                        0 => Point::new(next(w) as i32, 0),
                        1 => Point::new(0, next(h) as i32),
                        2 => Point::new(next(w) as i32, next(h) as i32),
                        _ => Point::new(w as i32, next(h) as i32),
                    };
                    for _ in 0..1 + next(3) {
                        pins.push(p);
                    }
                }
                solver.load(&obs, &[], &pins);
                for y in 0..h {
                    for x in 0..w {
                        let p = Point::new(x as i32, y as i32);
                        assert_eq!(
                            solver.cells[y * w + x],
                            cell_flags(&obs, &pins, p),
                            "{w}x{h} map, cell {p}"
                        );
                    }
                }
            }
        }
    }
}
