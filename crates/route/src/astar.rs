//! A\* search over the routing grid: point-to-point, point-to-path and
//! path-to-path modes.
//!
//! Two kernels back the public API:
//!
//! * the **flat-array kernel** ([`AStar::route_with_scratch`]) keeps
//!   g-scores, parents and visited/target marks in grid-indexed vectors
//!   inside a reusable [`AStarScratch`], invalidated in O(1) between
//!   queries by a generation counter. One open list serves unit-cost
//!   and history-weighted searches alike: f never decreases under the
//!   consistent Manhattan heuristic, so radix buckets on f feed a small
//!   heap on `(g, point)` at the current f.
//! * the **reference kernel** ([`AStar::route_reference`]) is the
//!   original `HashMap`/`BinaryHeap` implementation, kept as the
//!   executable specification for equivalence tests and benchmarks.
//!
//! Both kernels expand cells in the exact same order — ties on f are
//! broken by smaller g, then smaller [`Point`] (x, then y) — so they
//! return bit-identical paths, not merely equal-cost ones.
//!
//! The flat kernel also has a cheap failure path. Before its open list
//! starts draining, a BFS from the targets over free cells, capped at
//! `PROBE_CELLS` cells, looks for a cell next to a source. When it runs
//! out of cells first, the targets sit in a sealed pocket and no path
//! exists; the query then floods the sources' free component in bit
//! rows ([`CellRows::flood`]) and returns `None`, leaving the same
//! region and expansion count as an A\* that expands everything it can
//! reach (DESIGN.md §7).

use crate::HistoryCost;
use pacor_grid::{CellRows, GridPath, ObsMap, Point};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Fixed-point scale for fractional history costs inside the integer A\*
/// priority queue.
const SCALE: u64 = 1024;

/// "No parent" marker in [`AStarScratch::parent`].
const NO_PARENT: u32 = u32::MAX;

/// Cell budget of the target-side reachability probe: a target pocket
/// of up to this many cells is proven unreachable without an A\* search.
/// Larger target regions make the probe give up and the A\* run as
/// usual.
const PROBE_CELLS: usize = 64;

/// Per-query kernel counters, accumulated locally (plain integer adds)
/// and flushed to `pacor-obs` once per query — the hot loops never
/// touch thread-local state, so an unconfigured run pays only one
/// `pacor_obs::active()` check per query.
#[derive(Debug, Clone, Copy, Default)]
struct KernelStats {
    /// Cells popped off the open list (or flooded). Unlike the other
    /// counts, the flat kernel keeps this one in both instantiations,
    /// for [`AStarScratch::expansions`].
    expansions: u64,
    bucket_pushes: u64,
    heap_pushes: u64,
    /// Failures settled by the reachability probe and its flood.
    unreachable: u64,
}

impl KernelStats {
    /// Flushes the per-query counts into the active recording frame,
    /// if any. `resets` distinguishes flat-kernel queries (which bump
    /// the scratch generation) from reference-kernel queries.
    fn flush(&self, resets: u64) {
        if !pacor_obs::active() {
            return;
        }
        pacor_obs::counter_add("astar.queries", 1);
        pacor_obs::counter_add("astar.scratch_resets", resets);
        pacor_obs::counter_add("astar.expansions", self.expansions);
        pacor_obs::counter_add("astar.bucket_pushes", self.bucket_pushes);
        pacor_obs::counter_add("astar.heap_pushes", self.heap_pushes);
        pacor_obs::counter_add("astar.unreachable", self.unreachable);
    }
}

/// Orders like [`Point`]'s derived `Ord` (x, then y) for cells of a grid
/// `height` cells tall.
#[inline]
fn point_key(p: Point, height: usize) -> u32 {
    (p.x as usize * height + p.y as usize) as u32
}

/// `SCALE + round(cost · SCALE)`, the fixed-point cost of entering a
/// cell with history cost `cost`, without a libm call (`f64::round`
/// compiles to one on the default x86-64 target). For a non-negative
/// `x` below 2^52 the fraction `x − trunc(x)` is exact, so adding 1
/// when it is at least one half rounds half away from zero exactly as
/// `f64::round` does. The reference kernel keeps the `f64::round` form
/// as the oracle.
#[inline]
fn history_step(cost: f64) -> u64 {
    let x = cost * SCALE as f64;
    let t = x as u64;
    SCALE + t + u64::from(x - t as f64 >= 0.5)
}

/// Grid indices of the in-bounds 4-neighbors of cell `i`, in
/// [`Point::neighbors4`] order.
///
/// The probe steps by this index form; the drain loop steps by
/// [`Point::neighbors4`] plus a bounds check, since it needs each
/// neighbor's coordinates for the heuristic and the tie-break key. The
/// two forms must list the same cells in the same order;
/// `neighbor_indices_match_neighbors4` pins that.
#[inline]
fn neighbor_indices(i: usize, width: usize, height: usize) -> impl Iterator<Item = usize> {
    let (x, y) = (i % width, i / width);
    // Compacted without branches: an off-map slot is written, then
    // overwritten by the next one, since only in-map slots advance `n`.
    let mut cells = [0; 4];
    let mut n = 0;
    for (on_map, q) in [
        (x > 0, i.wrapping_sub(1)),
        (x + 1 < width, i + 1),
        (y > 0, i.wrapping_sub(width)),
        (y + 1 < height, i + width),
    ] {
        cells[n] = q;
        n += usize::from(on_map);
    }
    cells.into_iter().take(n)
}

/// A queued cell whose f lies above the current level.
#[derive(Debug, Clone, Copy)]
struct Pending {
    f: u64,
    g: u64,
    key: u32,
    idx: u32,
}

/// The A\* open list: pops `(g, idx)` in exact `(f, g, point key)` order,
/// the order of the reference kernel's heap.
///
/// Every step costs at least `SCALE` and the Manhattan heuristic falls
/// by at most `SCALE` per step, so no push has an f below the last
/// popped one: the queue is monotone. Entries at the current f (the
/// *level*) sit in a binary heap on `(g, key)`. Later ones wait in radix
/// buckets: bucket `b` holds the entries whose f first differs from the
/// level's in bit `b`, so a lower bucket holds only smaller f values.
/// When the level empties, the lowest occupied bucket yields the next
/// level and spreads its other entries over lower buckets. Each entry
/// moves down at most 64 times, and a level never needs a linear scan
/// for its minimum.
#[derive(Debug, Default)]
struct OpenQueue {
    /// The level's f; no queued entry has a smaller one.
    f: u64,
    /// `(g, key, idx)` of the entries whose f equals the level's.
    level: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// 64 radix buckets, allocated on first use.
    buckets: Vec<Vec<Pending>>,
    /// Bit `b` is set when `buckets[b]` is non-empty.
    occupied: u64,
}

impl OpenQueue {
    fn clear(&mut self) {
        self.f = 0;
        self.level.clear();
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.buckets[b].clear();
            self.occupied &= self.occupied - 1;
        }
    }

    #[inline]
    fn push(&mut self, f: u64, g: u64, key: u32, idx: u32) {
        debug_assert!(f >= self.f, "consistent heuristic keeps f monotone");
        if f == self.f {
            self.level.push(Reverse((g, key, idx)));
        } else {
            self.stash(Pending { f, g, key, idx });
        }
    }

    /// Files an entry above the level into its radix bucket.
    #[inline]
    fn stash(&mut self, e: Pending) {
        let b = 63 - (e.f ^ self.f).leading_zeros() as usize;
        if self.buckets.is_empty() {
            self.buckets.resize_with(64, Vec::new);
        }
        self.buckets[b].push(e);
        self.occupied |= 1 << b;
    }

    /// The next `(g, idx)` in `(f, g, key)` order, stale entries
    /// included.
    #[inline]
    fn pop(&mut self) -> Option<(u64, u32)> {
        loop {
            if let Some(Reverse((g, _, idx))) = self.level.pop() {
                return Some((g, idx));
            }
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            self.f = bucket.iter().map(|e| e.f).min().expect("occupied bucket");
            for e in bucket.drain(..) {
                if e.f == self.f {
                    self.level.push(Reverse((e.g, e.key, e.idx)));
                } else {
                    self.stash(e);
                }
            }
            self.buckets[b] = bucket; // keep the allocation
        }
    }
}

/// Reusable per-thread search state for the flat-array A\* kernel.
///
/// Allocates grid-sized vectors once and reuses them across queries; a
/// generation counter makes cross-query invalidation free (a cell's
/// `g`/`parent` entries are live only when its `stamp` equals the
/// current generation). Hold one and feed it to
/// [`AStar::route_with_scratch`], or use [`AStar::route`] which keeps
/// one in thread-local storage.
#[derive(Debug, Default)]
pub struct AStarScratch {
    width: usize,
    height: usize,
    generation: u32,
    g: Vec<u64>,
    /// Parent links of a search.
    parent: Vec<u32>,
    stamp: Vec<u32>,
    target_stamp: Vec<u32>,
    /// The reachability probe's visited cells, cleared before the probe
    /// returns.
    bfs_stamp: Vec<u32>,
    /// The open list.
    open: OpenQueue,
    /// Per-query kernel counters, reset by [`AStarScratch::begin`].
    stats: KernelStats,
    /// A failed query's region (see [`AStarScratch::failed_region`]):
    /// the flood's result, or the drained search's stamps packed into
    /// rows on first request.
    region: CellRows,
    /// `true` once `region` holds the most recent query's region.
    region_ready: bool,
    /// The flood's passable mask: the free cells plus the sources.
    passable: CellRows,
    /// The reachability probe's BFS queue: the distinct targets, then
    /// cells until it holds a few more than [`PROBE_CELLS`] entries.
    probe: Vec<u32>,
}

impl AStarScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a query over a `width × height` grid: resizes buffers if
    /// the grid changed and advances the generation counter.
    fn begin(&mut self, width: usize, height: usize) {
        if self.width != width || self.height != height {
            let n = width * height;
            self.width = width;
            self.height = height;
            self.g = vec![0; n];
            self.parent = vec![NO_PARENT; n];
            self.stamp = vec![0; n];
            self.target_stamp = vec![0; n];
            self.bfs_stamp = vec![0; n];
            self.region = CellRows::new(width, height);
            self.passable = CellRows::new(width, height);
            self.generation = 0;
        }
        if self.generation == u32::MAX {
            // Stamp wrap-around: pay one full clear every 2^32 queries.
            self.stamp.fill(0);
            self.target_stamp.fill(0);
            self.bfs_stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.open.clear();
        self.stats = KernelStats::default();
        self.region_ready = false;
    }

    #[inline]
    fn point_of(&self, idx: usize) -> Point {
        Point::new((idx % self.width) as i32, (idx / self.width) as i32)
    }

    /// The cells a *failed* query reached: its sources and every free
    /// cell 4-connected to them through free cells. That is the entire
    /// region the query contended for, which the incremental negotiation
    /// rip-up ORs into the round's contended set to find the routed nets
    /// that wall a failed net in.
    ///
    /// After a probe-settled failure this is the flood's result as it
    /// stands. After a drained A\* the first call packs the cells the
    /// search stamped into the rows; a drained search stamps exactly
    /// that region, since it expands every cell it can reach.
    ///
    /// Only meaningful directly after [`AStar::route_with_scratch`]
    /// returned `None` from the flat kernel on this scratch; the
    /// out-of-bounds early return does not touch the scratch, so
    /// callers must check terminal bounds themselves before trusting
    /// this view.
    pub fn failed_region(&mut self) -> &CellRows {
        if !self.region_ready {
            let generation = self.generation;
            self.region.fill_from(&self.stamp, |&s| s == generation);
            self.region_ready = true;
        }
        &self.region
    }

    /// How many cells the most recent query *expanded*: popped off its
    /// open list, or flooded on the probe-settled failure path. This is
    /// the query's `astar.expansions` contribution, kept whether or not
    /// a recording frame is active. After a *failed* search it equals
    /// the count of [`AStarScratch::failed_region`]: the open list
    /// drains completely, or the flood counts every cell it reaches.
    ///
    /// Only meaningful directly after the flat kernel ran on this
    /// scratch.
    pub fn expansions(&self) -> u64 {
        self.stats.expansions
    }

    /// Follows the parent chain from `idx` back to a source and returns
    /// the forward (source → target) path.
    fn reconstruct(&self, mut idx: usize) -> GridPath {
        let mut cells = vec![self.point_of(idx)];
        while self.parent[idx] != NO_PARENT {
            idx = self.parent[idx] as usize;
            cells.push(self.point_of(idx));
        }
        cells.reverse();
        GridPath::new(cells).expect("A* path is connected")
    }
}

thread_local! {
    /// Per-thread default scratch used by [`AStar::route`].
    static THREAD_SCRATCH: RefCell<AStarScratch> = RefCell::new(AStarScratch::new());
}

/// A\* router over an [`ObsMap`].
///
/// The MST-based cluster routing of the paper uses "point-to-point,
/// point-to-path, and path-to-path A\* search algorithms" — all are
/// special cases of multi-source / multi-target search, provided here by
/// [`AStar::route`]. Source and target cells are exempt from blockage
/// (they usually lie on the net's own already-routed cells); all transit
/// cells must be free.
///
/// An optional [`HistoryCost`] adds the negotiation penalty: entering
/// cell `g` costs `1 + Ch(g)` instead of 1. Path *length* reported by the
/// returned [`GridPath`] is always the plain edge count.
#[derive(Debug, Clone, Copy)]
pub struct AStar<'a> {
    obs: &'a ObsMap,
    history: Option<&'a HistoryCost>,
}

impl<'a> AStar<'a> {
    /// Creates a router without history costs.
    pub fn new(obs: &'a ObsMap) -> Self {
        Self { obs, history: None }
    }

    /// Attaches negotiation history costs.
    ///
    /// # Panics
    ///
    /// Panics when `history` covers a different grid than `obs`: the
    /// flat kernel reads it by the map's grid index.
    pub fn with_history(obs: &'a ObsMap, history: &'a HistoryCost) -> Self {
        assert_eq!(
            history.dims(),
            (obs.width(), obs.height()),
            "history costs over a different grid than the obstacle map"
        );
        Self {
            obs,
            history: Some(history),
        }
    }

    /// The reference kernel's step cost: the `f64::round` form that
    /// [`history_step`] must match.
    #[inline]
    fn step_cost(&self, p: Point) -> u64 {
        match self.history {
            Some(h) => SCALE + (h.cost(p) * SCALE as f64).round() as u64,
            None => SCALE,
        }
    }

    /// The flat kernel's step cost into the cell with grid index `i`.
    #[inline]
    fn step_cost_at(&self, i: usize) -> u64 {
        match self.history {
            Some(h) => history_step(h.cost_at(i)),
            None => SCALE,
        }
    }

    /// Routes from any cell of `sources` to any cell of `targets`,
    /// minimizing total (history-weighted) cost. Returns `None` when no
    /// path exists, and when any source or target lies outside the
    /// obstacle map.
    ///
    /// The returned path starts on a source cell and ends on a target
    /// cell. When a source *is* a target, the result is that single cell.
    ///
    /// Runs the flat-array kernel on a thread-local [`AStarScratch`];
    /// use [`AStar::route_with_scratch`] to manage the scratch yourself.
    pub fn route(&self, sources: &[Point], targets: &[Point]) -> Option<GridPath> {
        THREAD_SCRATCH
            .with(|scratch| self.route_with_scratch(sources, targets, &mut scratch.borrow_mut()))
    }

    /// [`AStar::route`] with an explicit scratch, for callers that hold
    /// their own.
    ///
    /// Terminals outside the obstacle map cannot be grid-indexed, so a
    /// query with any source or target off the map returns `None`.
    /// (The reference kernel instead treats such a cell as
    /// blocked-but-targetable; the flow never asks, since valves and
    /// pins are validated in bounds.)
    pub fn route_with_scratch(
        &self,
        sources: &[Point],
        targets: &[Point],
        scratch: &mut AStarScratch,
    ) -> Option<GridPath> {
        if sources.is_empty() || targets.is_empty() {
            return None;
        }
        let width = self.obs.width() as usize;
        let height = self.obs.height() as usize;
        let in_bounds =
            |p: Point| p.x >= 0 && p.y >= 0 && (p.x as usize) < width && (p.y as usize) < height;
        if !sources.iter().chain(targets).all(|&p| in_bounds(p)) {
            return None;
        }

        scratch.begin(width, height);
        // Monomorphize on whether a recording frame is listening: the
        // untracked instantiation compiles the counter updates away
        // entirely, so unconfigured runs keep the pre-obs codegen. The
        // tracked twin stays outlined so only one copy of the search
        // loop lands in this (hot) function body.
        if pacor_obs::active() {
            self.flat_search_tracked(sources, targets, scratch)
        } else {
            self.flat_search::<false>(sources, targets, scratch)
        }
    }

    /// The recording variant of the kernel: counts expansions and queue
    /// pushes, then flushes them into the active `pacor-obs` frame.
    #[cold]
    #[inline(never)]
    fn flat_search_tracked(
        &self,
        sources: &[Point],
        targets: &[Point],
        scratch: &mut AStarScratch,
    ) -> Option<GridPath> {
        let result = self.flat_search::<true>(sources, targets, scratch);
        scratch.stats.flush(1);
        result
    }

    /// The flat-kernel search body, monomorphized on `TRACK`: the
    /// `false` instantiation carries no counter updates at all.
    #[inline(always)]
    fn flat_search<const TRACK: bool>(
        &self,
        sources: &[Point],
        targets: &[Point],
        scratch: &mut AStarScratch,
    ) -> Option<GridPath> {
        let width = scratch.width;
        let generation = scratch.generation;
        let index = |p: Point| p.y as usize * width + p.x as usize;

        for &t in targets {
            scratch.target_stamp[index(t)] = generation;
        }
        for &s in sources {
            if scratch.target_stamp[index(s)] == generation {
                return Some(GridPath::singleton(s));
            }
        }

        let h = |p: Point| -> u64 {
            // Admissible: cheapest conceivable remaining cost is one SCALE
            // per grid step of the nearest target.
            targets.iter().map(|&t| p.manhattan(t)).min().unwrap_or(0) * SCALE
        };

        for &s in sources {
            let i = index(s);
            if scratch.stamp[i] == generation {
                continue; // duplicate source
            }
            scratch.stamp[i] = generation;
            scratch.g[i] = 0;
            scratch.parent[i] = NO_PARENT;
            scratch
                .open
                .push(h(s), 0, point_key(s, scratch.height), i as u32);
            if TRACK {
                self.count_push(&mut scratch.stats);
            }
        }

        if self.targets_sealed(targets, scratch, generation) {
            return self.flood_sources::<TRACK>(sources, targets, scratch);
        }
        self.drain::<TRACK>(scratch, generation, h)
    }

    /// Counts one open-list push, split by query kind as the counters
    /// report it: `astar.bucket_pushes` for unit-cost searches,
    /// `astar.heap_pushes` for history-weighted ones.
    #[inline]
    fn count_push(&self, stats: &mut KernelStats) {
        match self.history {
            None => stats.bucket_pushes += 1,
            Some(_) => stats.heap_pushes += 1,
        }
    }

    /// The reachability probe: a BFS from the targets over free cells,
    /// run once the sources are stamped. Every path ends in a (possibly
    /// empty) run of free cells next to a target, so when the BFS runs
    /// out of cells without stepping next to a source, no path exists
    /// and the result is `true`. Reaching a source, or visiting more
    /// than [`PROBE_CELLS`] cells, gives `false` and the A\* runs as
    /// before. The probe keeps its visited marks in `bfs_stamp` and
    /// clears them before returning, so the flood can reuse it.
    fn targets_sealed(
        &self,
        targets: &[Point],
        scratch: &mut AStarScratch,
        generation: u32,
    ) -> bool {
        let (width, height) = (scratch.width, scratch.height);
        let blocked = self.obs.blocked_cells();
        let AStarScratch {
            stamp,
            bfs_stamp,
            probe,
            ..
        } = scratch;
        probe.clear();
        for &t in targets {
            let i = t.y as usize * width + t.x as usize;
            if bfs_stamp[i] != generation {
                bfs_stamp[i] = generation;
                probe.push(i as u32);
            }
        }
        let mut sealed = true;
        let mut head = 0;
        'bfs: while head < probe.len() {
            if probe.len() > PROBE_CELLS {
                sealed = false;
                break;
            }
            let p = probe[head] as usize;
            head += 1;
            for q in neighbor_indices(p, width, height) {
                if stamp[q] == generation {
                    // Only sources are stamped yet: a source steps
                    // straight into this pocket.
                    sealed = false;
                    break 'bfs;
                }
                if !blocked[q] && bfs_stamp[q] != generation {
                    bfs_stamp[q] = generation;
                    probe.push(q as u32);
                }
            }
        }
        for &i in probe.iter() {
            bfs_stamp[i as usize] = 0; // no live generation is 0
        }
        sealed
    }

    /// The failure path behind a sealing probe: floods the sources'
    /// component of the free cells (plus the sources themselves) in bit
    /// rows, and counts it the way the exhausted A\* would: one
    /// expansion per cell it reaches (DESIGN.md §7). The region stays
    /// behind as [`AStarScratch::failed_region`].
    fn flood_sources<const TRACK: bool>(
        &self,
        sources: &[Point],
        targets: &[Point],
        scratch: &mut AStarScratch,
    ) -> Option<GridPath> {
        let AStarScratch {
            region, passable, ..
        } = scratch;
        passable.fill_from(self.obs.blocked_cells(), |&blocked| !blocked);
        region.clear();
        for &s in sources {
            passable.insert(s);
            region.insert(s);
        }
        region.flood(passable);
        debug_assert!(
            targets
                .iter()
                .all(|t| t.neighbors4().iter().all(|&q| !region.contains(q))),
            "a sealed target borders the flood"
        );
        scratch.stats.expansions += region.count();
        scratch.region_ready = true;
        if TRACK {
            scratch.stats.unreachable += 1;
        }
        None
    }

    /// Drains the open list in `(f, g, point key)` order until a target
    /// pops. Every cell is entered at `step_cost`, so one loop serves
    /// unit-cost and history-weighted searches.
    fn drain<const TRACK: bool>(
        &self,
        scratch: &mut AStarScratch,
        generation: u32,
        h: impl Fn(Point) -> u64,
    ) -> Option<GridPath> {
        let (width, height) = (scratch.width, scratch.height);
        let blocked = self.obs.blocked_cells();
        while let Some((g, idx)) = scratch.open.pop() {
            let p_idx = idx as usize;
            if scratch.g[p_idx] < g {
                continue; // stale entry
            }
            scratch.stats.expansions += 1;
            if scratch.target_stamp[p_idx] == generation {
                return Some(scratch.reconstruct(p_idx));
            }
            let p = scratch.point_of(p_idx);
            for q in p.neighbors4() {
                if q.x < 0 || q.y < 0 || (q.x as usize) >= width || (q.y as usize) >= height {
                    continue; // off-map neighbors are never in-bounds targets
                }
                let qi = q.y as usize * width + q.x as usize;
                // Transit must be free; targets are exempt from blockage.
                if blocked[qi] && scratch.target_stamp[qi] != generation {
                    continue;
                }
                let ng = g + self.step_cost_at(qi);
                let cur = if scratch.stamp[qi] == generation {
                    scratch.g[qi]
                } else {
                    u64::MAX
                };
                if ng < cur {
                    scratch.stamp[qi] = generation;
                    scratch.g[qi] = ng;
                    scratch.parent[qi] = p_idx as u32;
                    scratch
                        .open
                        .push(ng + h(q), ng, point_key(q, height), qi as u32);
                    if TRACK {
                        self.count_push(&mut scratch.stats);
                    }
                }
            }
        }
        None
    }

    /// The original `HashMap`/`HashSet`/`BinaryHeap` kernel, kept as the
    /// executable specification: equivalence proptests and the kernel
    /// benchmarks compare the flat-array kernel against it.
    pub fn route_reference(&self, sources: &[Point], targets: &[Point]) -> Option<GridPath> {
        if sources.is_empty() || targets.is_empty() {
            return None;
        }
        if pacor_obs::active() {
            self.reference_search_tracked(sources, targets)
        } else {
            let mut stats = KernelStats::default();
            self.reference_search::<false>(sources, targets, &mut stats)
        }
    }

    /// The recording variant of the reference kernel; see
    /// [`AStar::flat_search_tracked`].
    #[cold]
    #[inline(never)]
    fn reference_search_tracked(&self, sources: &[Point], targets: &[Point]) -> Option<GridPath> {
        let mut stats = KernelStats::default();
        let result = self.reference_search::<true>(sources, targets, &mut stats);
        stats.flush(0);
        result
    }

    /// The reference-kernel search body, split out so its counters
    /// flush on every exit path.
    #[inline(always)]
    fn reference_search<const TRACK: bool>(
        &self,
        sources: &[Point],
        targets: &[Point],
        stats: &mut KernelStats,
    ) -> Option<GridPath> {
        let target_set: HashSet<Point> = targets.iter().copied().collect();
        for &s in sources {
            if target_set.contains(&s) {
                return Some(GridPath::singleton(s));
            }
        }

        let h = |p: Point| -> u64 {
            targets.iter().map(|&t| p.manhattan(t)).min().unwrap_or(0) * SCALE
        };

        let mut dist: HashMap<Point, u64> = HashMap::new();
        let mut prev: HashMap<Point, Point> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, Point)>> = BinaryHeap::new();
        for &s in sources {
            dist.insert(s, 0);
            heap.push(Reverse((h(s), 0, s)));
            if TRACK {
                stats.heap_pushes += 1;
            }
        }

        while let Some(Reverse((_, g, p))) = heap.pop() {
            if dist.get(&p).copied().unwrap_or(u64::MAX) < g {
                continue;
            }
            if TRACK {
                stats.expansions += 1;
            }
            if target_set.contains(&p) {
                // Reconstruct.
                let mut cells = vec![p];
                let mut cur = p;
                while let Some(&q) = prev.get(&cur) {
                    cells.push(q);
                    cur = q;
                }
                cells.reverse();
                return Some(GridPath::new(cells).expect("A* path is connected"));
            }
            for q in p.neighbors4() {
                // Transit must be free; targets are exempt from blockage.
                if self.obs.is_blocked(q) && !target_set.contains(&q) {
                    continue;
                }
                let ng = g + self.step_cost(q);
                if ng < dist.get(&q).copied().unwrap_or(u64::MAX) {
                    dist.insert(q, ng);
                    prev.insert(q, p);
                    heap.push(Reverse((ng + h(q), ng, q)));
                    if TRACK {
                        stats.heap_pushes += 1;
                    }
                }
            }
        }
        None
    }

    /// Point-to-point routing.
    pub fn point_to_point(&self, source: Point, target: Point) -> Option<GridPath> {
        self.route(&[source], &[target])
    }

    /// Point-to-path routing: connect `source` to the nearest cell of an
    /// existing path.
    pub fn point_to_path(&self, source: Point, path: &GridPath) -> Option<GridPath> {
        self.route(&[source], path.cells())
    }

    /// Path-to-path routing: connect two existing paths by the cheapest
    /// bridge.
    pub fn path_to_path(&self, a: &GridPath, b: &GridPath) -> Option<GridPath> {
        self.route(a.cells(), b.cells())
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
    fn neighbor_indices_match_neighbors4() {
        for (w, h) in [(1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (7, 5)] {
            for i in 0..w * h {
                let p = Point::new((i % w) as i32, (i / w) as i32);
                let want: Vec<usize> = p
                    .neighbors4()
                    .into_iter()
                    .filter(|q| q.x >= 0 && q.y >= 0 && (q.x as usize) < w && (q.y as usize) < h)
                    .map(|q| q.y as usize * w + q.x as usize)
                    .collect();
                let got: Vec<usize> = neighbor_indices(i, w, h).collect();
                assert_eq!(got, want, "cell {p:?} of a {w}x{h} grid");
            }
        }
    }

    #[test]
    fn straight_line_is_manhattan_optimal() {
        let obs = open(10, 10);
        let p = AStar::new(&obs)
            .point_to_point(Point::new(1, 1), Point::new(7, 4))
            .unwrap();
        assert_eq!(p.len(), 9);
        assert_eq!(p.source(), Point::new(1, 1));
        assert_eq!(p.target(), Point::new(7, 4));
    }

    #[test]
    fn detours_around_wall() {
        let mut g = Grid::new(9, 9).unwrap();
        for y in 0..8 {
            g.set_obstacle(Point::new(4, y));
        }
        let obs = ObsMap::new(&g);
        let p = AStar::new(&obs)
            .point_to_point(Point::new(1, 1), Point::new(7, 1))
            .unwrap();
        assert!(p.len() > 6);
        for c in p.iter() {
            assert!(!obs.is_blocked(*c));
        }
    }

    #[test]
    fn fully_walled_is_unroutable() {
        let mut g = Grid::new(9, 9).unwrap();
        for y in 0..9 {
            g.set_obstacle(Point::new(4, y));
        }
        let obs = ObsMap::new(&g);
        assert!(AStar::new(&obs)
            .point_to_point(Point::new(1, 1), Point::new(7, 1))
            .is_none());
    }

    #[test]
    fn source_equals_target() {
        let obs = open(5, 5);
        let p = AStar::new(&obs)
            .point_to_point(Point::new(2, 2), Point::new(2, 2))
            .unwrap();
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn empty_terminals_return_none() {
        let obs = open(5, 5);
        let astar = AStar::new(&obs);
        assert!(astar.route(&[], &[Point::new(0, 0)]).is_none());
        assert!(astar.route(&[Point::new(0, 0)], &[]).is_none());
    }

    #[test]
    fn point_to_path_hits_nearest_cell() {
        let obs = open(12, 12);
        let path = GridPath::new((0..10).map(|x| Point::new(x, 8)).collect()).unwrap();
        let p = AStar::new(&obs)
            .point_to_path(Point::new(3, 2), &path)
            .unwrap();
        assert_eq!(p.target(), Point::new(3, 8));
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn path_to_path_bridges_shortest_gap() {
        let obs = open(12, 12);
        let a = GridPath::new((0..5).map(|x| Point::new(x, 1)).collect()).unwrap();
        let b = GridPath::new((0..5).map(|x| Point::new(x, 9)).collect()).unwrap();
        let p = AStar::new(&obs).path_to_path(&a, &b).unwrap();
        assert_eq!(p.len(), 8);
        assert!(a.contains(p.source()));
        assert!(b.contains(p.target()));
    }

    #[test]
    fn blocked_targets_are_reachable_endpoints() {
        // Target on an occupied cell (its own net) must still terminate.
        let mut g = Grid::new(7, 7).unwrap();
        g.set_obstacle(Point::new(5, 5));
        let obs = ObsMap::new(&g);
        let p = AStar::new(&obs)
            .point_to_point(Point::new(1, 1), Point::new(5, 5))
            .unwrap();
        assert_eq!(p.target(), Point::new(5, 5));
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn history_cost_diverts_route() {
        // Two equal-length corridors; poison one with history.
        let mut g = Grid::new(7, 5).unwrap();
        for x in 1..6 {
            g.set_obstacle(Point::new(x, 2)); // wall between rows 1 and 3
        }
        let obs = ObsMap::new(&g);
        let mut hist = HistoryCost::new(7, 5);
        // Poison row 1 (the y=1 corridor).
        for x in 0..7 {
            for _ in 0..5 {
                hist.bump(Point::new(x, 1));
            }
        }
        let astar = AStar::with_history(&obs, &hist);
        // From (0,2)?? blocked col... route from (0,1)..(6,1) area: choose
        // endpoints reachable via both corridors: (0,0) to (6,4) forces a
        // corridor choice at x=0 or x=6.
        let p = astar
            .point_to_point(Point::new(0, 0), Point::new(6, 4))
            .unwrap();
        // The route must dodge the poisoned row-1 interior when possible;
        // count poisoned-row cells used.
        let row1 = p.iter().filter(|c| c.y == 1).count();
        let p_plain = AStar::new(&obs)
            .point_to_point(Point::new(0, 0), Point::new(6, 4))
            .unwrap();
        assert_eq!(p.len(), p_plain.len()); // same geometric length exists
        assert!(
            row1 <= 1,
            "history should steer away from row 1, used {row1} cells"
        );
    }

    #[test]
    fn multi_source_picks_closest() {
        let obs = open(10, 10);
        let p = AStar::new(&obs)
            .route(&[Point::new(0, 0), Point::new(8, 8)], &[Point::new(9, 9)])
            .unwrap();
        assert_eq!(p.source(), Point::new(8, 8));
        assert_eq!(p.len(), 2);
    }

    /// A scattering of obstacles that leaves the grid connected.
    fn peppered(w: u32, h: u32) -> ObsMap {
        let mut g = Grid::new(w, h).unwrap();
        for y in 0..h as i32 {
            for x in 0..w as i32 {
                // Deterministic pseudo-random sprinkle, ~30% density.
                if (x * 7 + y * 13) % 10 < 3 && (x + y) % 4 != 0 {
                    g.set_obstacle(Point::new(x, y));
                }
            }
        }
        ObsMap::new(&g)
    }

    #[test]
    fn kernel_matches_reference_geometry() {
        let obs = peppered(24, 18);
        let astar = AStar::new(&obs);
        let mut scratch = AStarScratch::new();
        for (s, t) in [
            (Point::new(0, 0), Point::new(23, 17)),
            (Point::new(5, 16), Point::new(20, 1)),
            (Point::new(12, 9), Point::new(12, 9)),
        ] {
            let flat = astar.route_with_scratch(&[s], &[t], &mut scratch);
            let reference = astar.route_reference(&[s], &[t]);
            assert_eq!(flat, reference, "kernels diverge for {s} -> {t}");
        }
    }

    #[test]
    fn kernel_matches_reference_with_history() {
        let obs = peppered(20, 20);
        let mut hist = HistoryCost::new(20, 20);
        for i in 0..20 {
            hist.bump(Point::new(i, (i * 3) % 20));
            hist.bump(Point::new(10, i));
        }
        let astar = AStar::with_history(&obs, &hist);
        let mut scratch = AStarScratch::new();
        let sources = [Point::new(0, 0), Point::new(19, 0)];
        let targets = [Point::new(0, 19), Point::new(19, 19)];
        let flat = astar.route_with_scratch(&sources, &targets, &mut scratch);
        let reference = astar.route_reference(&sources, &targets);
        assert_eq!(flat, reference);
    }

    #[test]
    fn scratch_reuse_across_grids_and_queries() {
        let mut scratch = AStarScratch::new();
        let small = open(6, 6);
        let large = peppered(30, 10);
        for _ in 0..3 {
            let p = AStar::new(&small)
                .route_with_scratch(&[Point::new(0, 0)], &[Point::new(5, 5)], &mut scratch)
                .unwrap();
            assert_eq!(p.len(), 10);
            let q = AStar::new(&large).route_with_scratch(
                &[Point::new(0, 0)],
                &[Point::new(29, 9)],
                &mut scratch,
            );
            assert_eq!(
                q,
                AStar::new(&large).route_reference(&[Point::new(0, 0)], &[Point::new(29, 9)])
            );
        }
    }

    #[test]
    fn expansions_cover_path_and_drain_on_failure() {
        let mut g = Grid::new(9, 9).unwrap();
        for y in 0..8 {
            g.set_obstacle(Point::new(4, y));
        }
        let obs = ObsMap::new(&g);
        let astar = AStar::new(&obs);
        let mut scratch = AStarScratch::new();
        let (s, t) = ([Point::new(1, 1)], [Point::new(7, 1)]);
        let p = astar.route_with_scratch(&s, &t, &mut scratch).unwrap();
        let untracked = scratch.expansions();
        // Every path cell was popped, and nothing outside the touched set.
        assert!(untracked >= p.cells().len() as u64);
        let touched = scratch
            .stamp
            .iter()
            .filter(|&&s| s == scratch.generation)
            .count();
        assert!(untracked <= touched as u64);
        // The recording instantiation counts the same pops and flushes
        // exactly that many to the `astar.expansions` counter.
        let session = pacor_obs::Session::begin();
        astar.route_with_scratch(&s, &t, &mut scratch).unwrap();
        let counted = session.finish().counter("astar.expansions");
        assert_eq!(scratch.expansions(), untracked);
        assert_eq!(counted, untracked);
        // Failed searches, settled by the probe's flood (a 4x9 target
        // side) and by a drained open list (9x9 on both sides, past the
        // probe's cap): the region is the whole source side of the wall,
        // and every cell of it is expanded once.
        for width in [9u32, 19] {
            let mut g = Grid::new(width, 9).unwrap();
            for y in 0..9 {
                g.set_obstacle(Point::new(width as i32 / 2, y));
            }
            let obs = ObsMap::new(&g);
            let t = [Point::new(width as i32 - 2, 1)];
            let session = pacor_obs::Session::begin();
            assert!(AStar::new(&obs)
                .route_with_scratch(&s, &t, &mut scratch)
                .is_none());
            let sealed = session.finish().counter("astar.unreachable");
            assert_eq!(sealed, u64::from(width == 9), "width {width}");
            let expansions = scratch.expansions();
            let region = scratch.failed_region().clone();
            let w = width as usize;
            let source_side: Vec<usize> = (0..w * 9).filter(|i| i % w < w / 2).collect();
            assert_eq!(
                region.iter().collect::<Vec<_>>(),
                source_side,
                "width {width}"
            );
            assert_eq!(
                expansions,
                region.count(),
                "failed search must drain its queue"
            );
            assert_eq!(
                scratch.failed_region(),
                &region,
                "a second call gives the same region"
            );
        }
    }

    #[test]
    fn history_step_matches_f64_round() {
        let reference = |c: f64| SCALE + (c * SCALE as f64).round() as u64;
        let mut costs = vec![0.0, 1.0, 1.1, 1.11, 1e-9, 0.25, 1e6];
        // Costs whose product with SCALE is exactly k + 0.5, and the
        // neighbouring doubles on either side.
        for k in 0..4096u32 {
            let c = (f64::from(k) + 0.5) / SCALE as f64;
            costs.extend([
                c,
                f64::from_bits(c.to_bits() - 1),
                f64::from_bits(c.to_bits() + 1),
            ]);
        }
        // Eq. 5 bump chains under several (b, α).
        for (b, a) in [(1.0, 0.1), (0.5, 0.5), (2.0, 0.9), (0.3, 1.0), (1.7, 0.0)] {
            let mut h = HistoryCost::with_params(1, 1, b, a);
            for _ in 0..200 {
                h.bump(Point::new(0, 0));
                costs.push(h.cost_at(0));
            }
        }
        for c in costs {
            assert_eq!(history_step(c), reference(c), "cost {c:e}");
        }
    }

    #[test]
    fn out_of_bounds_terminals_return_none() {
        // An off-map source or target cannot be grid-indexed: the query
        // has no answer, even where the reference kernel would reach
        // the cell as a blocked endpoint.
        let obs = open(5, 5);
        let astar = AStar::new(&obs);
        let on = Point::new(0, 2);
        let oob = Point::new(5, 2); // one column past the right edge
        assert!(astar.route_reference(&[on], &[oob]).is_some());
        assert_eq!(astar.point_to_point(on, oob), None, "off-map target");
        assert_eq!(astar.point_to_point(oob, on), None, "off-map source");
        let mut scratch = AStarScratch::default();
        assert_eq!(
            astar.route_with_scratch(&[on, Point::new(-1, 0)], &[Point::new(4, 4)], &mut scratch),
            None,
            "one off-map source among several"
        );
    }
}
