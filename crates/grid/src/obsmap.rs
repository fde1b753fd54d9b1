//! Transient obstacle map with checkpoint/rollback.
//!
//! Algorithm 1 of the paper constructs an `ObsMap` ("a two-dimensional
//! array of boolean values") over the routing grid, marks routed paths as
//! obstacles, and *resets* those flags when the negotiation iteration rips
//! everything up. The rip-up & reroute loop of the overall flow needs the
//! same mechanics, so the map records a journal of set bits that can be
//! rolled back to a checkpoint in O(#changes).

use crate::{CellRows, Grid, Point};

/// Journal entry for a cell whose transient block was removed again via
/// [`ObsMap::unblock`] — skipped during rollback.
const TOMBSTONE: usize = usize::MAX;

/// A boolean obstacle layer over a [`Grid`], with undo support.
///
/// Permanent obstacles from the grid are folded in at construction time;
/// everything added afterwards is transient and can be rolled back.
///
/// # Examples
///
/// ```
/// use pacor_grid::{Grid, ObsMap, Point};
///
/// let grid = Grid::new(8, 8)?;
/// let mut obs = ObsMap::new(&grid);
/// let cp = obs.checkpoint();
/// obs.block(Point::new(2, 2));
/// assert!(obs.is_blocked(Point::new(2, 2)));
/// obs.rollback(cp);
/// assert!(!obs.is_blocked(Point::new(2, 2)));
/// # Ok::<(), pacor_grid::GridError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ObsMap {
    width: u32,
    height: u32,
    blocked: Vec<bool>,
    journal: Vec<usize>,
    /// Per cell: its live position in `journal`, or [`TOMBSTONE`] when the
    /// cell has no transient block. Makes [`ObsMap::unblock`] O(1) — the
    /// escape stage rips thousands of cells per round, and a linear
    /// journal scan per cell made that quadratic.
    slot: Vec<usize>,
}

/// Opaque checkpoint token for [`ObsMap::rollback`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Checkpoint(usize);

impl ObsMap {
    /// Builds the map from a grid, copying its permanent obstacles and
    /// occupied cells as blocked.
    pub fn new(grid: &Grid) -> Self {
        let blocked: Vec<bool> = (0..grid.len())
            .map(|i| !grid.is_routable(grid.point_of(i)))
            .collect();
        let slot = vec![TOMBSTONE; blocked.len()];
        Self {
            width: grid.width(),
            height: grid.height(),
            blocked,
            journal: Vec::new(),
            slot,
        }
    }

    /// Map width in cells.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Map height in cells.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn index_of(&self, p: Point) -> Option<usize> {
        if p.x >= 0 && p.y >= 0 && (p.x as u32) < self.width && (p.y as u32) < self.height {
            Some(p.y as usize * self.width as usize + p.x as usize)
        } else {
            None
        }
    }

    /// Returns `true` when `p` is blocked (out-of-bounds counts as blocked).
    #[inline]
    pub fn is_blocked(&self, p: Point) -> bool {
        match self.index_of(p) {
            Some(i) => self.blocked[i],
            None => true,
        }
    }

    /// The blocked flag of every cell, row-major (`y * width + x`): the
    /// index-based view of [`ObsMap::is_blocked`] for grid-wide sweeps.
    #[inline]
    pub fn blocked_cells(&self) -> &[bool] {
        &self.blocked
    }

    /// Blocks `p` transiently; records the change for rollback. Blocking an
    /// already-blocked cell is a no-op that records nothing.
    pub fn block(&mut self, p: Point) {
        if let Some(i) = self.index_of(p) {
            if !self.blocked[i] {
                self.blocked[i] = true;
                self.slot[i] = self.journal.len();
                self.journal.push(i);
            }
        }
    }

    /// Blocks every cell of `path`.
    pub fn block_all<I: IntoIterator<Item = Point>>(&mut self, path: I) {
        for p in path {
            self.block(p);
        }
    }

    /// Removes a transient block from `p` (rip-up of a routed path cell).
    /// Permanent obstacles inherited from the grid cannot be unblocked —
    /// only cells blocked through [`ObsMap::block`] after construction.
    ///
    /// The cell's journal entry is tombstoned in place (O(1)), so
    /// outstanding checkpoints stay valid: later entries keep their
    /// positions, and a rollback simply skips the tombstone.
    pub fn unblock(&mut self, p: Point) {
        if let Some(i) = self.index_of(p) {
            let pos = self.slot[i];
            if pos != TOMBSTONE {
                self.journal[pos] = TOMBSTONE;
                self.slot[i] = TOMBSTONE;
                self.blocked[i] = false;
            }
        }
    }

    /// Unblocks every cell of `path`.
    pub fn unblock_all<I: IntoIterator<Item = Point>>(&mut self, path: I) {
        for p in path {
            self.unblock(p);
        }
    }

    /// Blocks every free cell of `cells` while `f` runs, frees exactly
    /// those cells again when it returns, and returns its result.
    ///
    /// The fence stays out of the journal: it records nothing, so a
    /// checkpoint taken inside `f` never sees it and a rollback inside
    /// `f` keeps it, and [`ObsMap::unblock`] leaves a fenced cell
    /// blocked, like a permanent obstacle. Cells blocked before the call
    /// stay blocked after it.
    ///
    /// # Panics
    ///
    /// Panics when `cells` is a set over a grid of another size.
    ///
    /// # Examples
    ///
    /// ```
    /// use pacor_grid::{CellRows, Grid, ObsMap, Point};
    ///
    /// let mut obs = ObsMap::new(&Grid::new(8, 8)?);
    /// let mut guard = CellRows::new(8, 8);
    /// guard.insert(Point::new(3, 3));
    /// let cp = obs.checkpoint();
    /// obs.fenced(&guard, |obs| {
    ///     assert!(obs.is_blocked(Point::new(3, 3)));
    ///     assert_eq!(obs.checkpoint(), cp);
    /// });
    /// assert!(!obs.is_blocked(Point::new(3, 3)));
    /// # Ok::<(), pacor_grid::GridError>(())
    /// ```
    pub fn fenced<R>(&mut self, cells: &CellRows, f: impl FnOnce(&mut Self) -> R) -> R {
        assert_eq!(
            (cells.width(), cells.height()),
            (self.width as usize, self.height as usize),
            "fence over another grid"
        );
        let fence: Vec<usize> = cells.iter().filter(|&i| !self.blocked[i]).collect();
        for &i in &fence {
            self.blocked[i] = true;
        }
        let out = f(self);
        for &i in &fence {
            // Nothing inside `f` can free a fenced cell: it has no journal
            // entry to roll back or tombstone.
            debug_assert!(self.blocked[i] && self.slot[i] == TOMBSTONE);
            self.blocked[i] = false;
        }
        out
    }

    /// Takes a checkpoint of the current transient state.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.journal.len())
    }

    /// Rolls back every transient block recorded after `cp`.
    ///
    /// # Panics
    ///
    /// Panics when `cp` comes from a different map "timeline" (i.e. the
    /// journal is already shorter than the checkpoint).
    pub fn rollback(&mut self, cp: Checkpoint) {
        assert!(
            cp.0 <= self.journal.len(),
            "checkpoint {0} beyond journal length {1}",
            cp.0,
            self.journal.len()
        );
        while self.journal.len() > cp.0 {
            let i = self.journal.pop().expect("journal nonempty");
            if i != TOMBSTONE {
                self.blocked[i] = false;
                self.slot[i] = TOMBSTONE;
            }
        }
    }

    /// Clears *all* transient blocks, keeping the permanent ones.
    pub fn reset(&mut self) {
        self.rollback(Checkpoint(0));
    }

    /// Number of blocked cells (permanent + transient).
    pub fn blocked_count(&self) -> usize {
        self.blocked.iter().filter(|b| **b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cell;

    fn grid_with_obstacle() -> Grid {
        let mut g = Grid::new(6, 6).unwrap();
        g.set_obstacle(Point::new(0, 0));
        g.set_cell(Point::new(5, 5), Cell::Occupied(1)).unwrap();
        g
    }

    #[test]
    fn inherits_permanent_obstacles() {
        let obs = ObsMap::new(&grid_with_obstacle());
        assert!(obs.is_blocked(Point::new(0, 0)));
        assert!(obs.is_blocked(Point::new(5, 5)));
        assert!(!obs.is_blocked(Point::new(3, 3)));
        assert_eq!(obs.blocked_count(), 2);
    }

    #[test]
    fn out_of_bounds_is_blocked() {
        let obs = ObsMap::new(&Grid::new(4, 4).unwrap());
        assert!(obs.is_blocked(Point::new(-1, 2)));
        assert!(obs.is_blocked(Point::new(4, 2)));
    }

    #[test]
    fn block_and_rollback() {
        let mut obs = ObsMap::new(&Grid::new(4, 4).unwrap());
        let cp = obs.checkpoint();
        obs.block_all([Point::new(1, 1), Point::new(2, 1), Point::new(3, 1)]);
        assert_eq!(obs.blocked_count(), 3);
        obs.rollback(cp);
        assert_eq!(obs.blocked_count(), 0);
    }

    #[test]
    fn nested_checkpoints() {
        let mut obs = ObsMap::new(&Grid::new(4, 4).unwrap());
        obs.block(Point::new(0, 0));
        let cp1 = obs.checkpoint();
        obs.block(Point::new(1, 0));
        let cp2 = obs.checkpoint();
        obs.block(Point::new(2, 0));
        obs.rollback(cp2);
        assert!(obs.is_blocked(Point::new(1, 0)));
        assert!(!obs.is_blocked(Point::new(2, 0)));
        obs.rollback(cp1);
        assert!(obs.is_blocked(Point::new(0, 0)));
        assert!(!obs.is_blocked(Point::new(1, 0)));
    }

    #[test]
    fn double_block_rolls_back_once() {
        let mut obs = ObsMap::new(&Grid::new(4, 4).unwrap());
        let cp = obs.checkpoint();
        obs.block(Point::new(2, 2));
        obs.block(Point::new(2, 2));
        obs.rollback(cp);
        assert!(!obs.is_blocked(Point::new(2, 2)));
    }

    #[test]
    fn reset_keeps_permanent() {
        let mut obs = ObsMap::new(&grid_with_obstacle());
        obs.block(Point::new(3, 3));
        obs.reset();
        assert!(obs.is_blocked(Point::new(0, 0)));
        assert!(!obs.is_blocked(Point::new(3, 3)));
    }

    #[test]
    fn unblock_removes_transient_only() {
        let mut obs = ObsMap::new(&grid_with_obstacle());
        obs.block(Point::new(2, 2));
        obs.unblock(Point::new(2, 2));
        assert!(!obs.is_blocked(Point::new(2, 2)));
        // Permanent obstacle survives unblock.
        obs.unblock(Point::new(0, 0));
        assert!(obs.is_blocked(Point::new(0, 0)));
    }

    #[test]
    fn unblock_all_rips_up_a_path() {
        let mut obs = ObsMap::new(&Grid::new(6, 6).unwrap());
        let path = [Point::new(1, 1), Point::new(2, 1), Point::new(3, 1)];
        obs.block_all(path);
        assert_eq!(obs.blocked_count(), 3);
        obs.unblock_all(path);
        assert_eq!(obs.blocked_count(), 0);
    }

    #[test]
    fn unblock_keeps_checkpoints_usable() {
        let mut obs = ObsMap::new(&Grid::new(6, 6).unwrap());
        obs.block(Point::new(1, 1));
        let cp = obs.checkpoint(); // journal length 1
        obs.block(Point::new(2, 2));
        obs.unblock(Point::new(1, 1)); // tombstone the pre-checkpoint entry
        obs.rollback(cp); // must not panic
        assert!(!obs.is_blocked(Point::new(1, 1)));
        // Post-checkpoint entries keep their journal positions across the
        // tombstoning, so the rollback still reaches them.
        assert!(!obs.is_blocked(Point::new(2, 2)));
    }

    #[test]
    fn reblock_after_unblock_rolls_back() {
        let mut obs = ObsMap::new(&Grid::new(6, 6).unwrap());
        let cp = obs.checkpoint();
        obs.block(Point::new(3, 3));
        obs.unblock(Point::new(3, 3));
        obs.block(Point::new(3, 3)); // fresh journal entry, new position
        assert!(obs.is_blocked(Point::new(3, 3)));
        obs.rollback(cp);
        assert!(!obs.is_blocked(Point::new(3, 3)));
        assert_eq!(obs.blocked_count(), 0);
    }

    /// A fence over a mix of free, transient and permanent cells.
    fn fenced_setup() -> (ObsMap, CellRows) {
        let mut obs = ObsMap::new(&grid_with_obstacle());
        obs.block(Point::new(2, 2));
        let mut fence = CellRows::new(6, 6);
        for p in [
            Point::new(0, 0), // permanent obstacle
            Point::new(2, 2), // transient block
            Point::new(3, 2),
            Point::new(3, 3),
        ] {
            fence.insert(p);
        }
        (obs, fence)
    }

    #[test]
    fn fence_blocks_its_free_cells_only_inside() {
        let (mut obs, fence) = fenced_setup();
        let count = obs.blocked_count();
        let inside = obs.fenced(&fence, |obs| {
            assert!(obs.is_blocked(Point::new(3, 2)));
            assert!(obs.is_blocked(Point::new(3, 3)));
            assert!(!obs.is_blocked(Point::new(4, 4)));
            obs.blocked_count()
        });
        assert_eq!(inside, count + 2);
        assert!(!obs.is_blocked(Point::new(3, 2)));
        assert!(!obs.is_blocked(Point::new(3, 3)));
        assert_eq!(obs.blocked_count(), count);
    }

    #[test]
    fn fence_keeps_earlier_blocks() {
        let (mut obs, fence) = fenced_setup();
        obs.fenced(&fence, |_| ());
        assert!(obs.is_blocked(Point::new(0, 0)), "permanent obstacle");
        assert!(obs.is_blocked(Point::new(2, 2)), "transient block");
        // The transient block keeps its journal entry.
        obs.unblock(Point::new(2, 2));
        assert!(!obs.is_blocked(Point::new(2, 2)));
    }

    #[test]
    fn rollback_inside_a_fence_keeps_the_fence() {
        let (mut obs, fence) = fenced_setup();
        obs.fenced(&fence, |obs| {
            let cp = obs.checkpoint();
            obs.block(Point::new(4, 4));
            obs.block(Point::new(3, 3)); // fenced: already blocked, no entry
            obs.unblock(Point::new(3, 2)); // fenced: nothing to lift
            obs.rollback(cp);
            assert!(!obs.is_blocked(Point::new(4, 4)));
            assert!(obs.is_blocked(Point::new(3, 2)));
            assert!(obs.is_blocked(Point::new(3, 3)));
            assert!(obs.is_blocked(Point::new(2, 2)));
        });
        assert!(!obs.is_blocked(Point::new(3, 3)));
        assert!(obs.is_blocked(Point::new(2, 2)));
    }

    #[test]
    fn fence_adds_no_journal_entry() {
        let (mut obs, fence) = fenced_setup();
        let cp = obs.checkpoint();
        obs.fenced(&fence, |obs| assert_eq!(obs.checkpoint(), cp));
        assert_eq!(obs.checkpoint(), cp);
        assert_eq!(obs.journal.len(), 1);
    }

    #[test]
    #[should_panic(expected = "fence over another grid")]
    fn fence_over_another_grid_panics() {
        let mut obs = ObsMap::new(&Grid::new(4, 4).unwrap());
        obs.fenced(&CellRows::new(4, 5), |_| ());
    }

    #[test]
    #[should_panic(expected = "beyond journal length")]
    fn rollback_past_journal_panics() {
        let mut obs = ObsMap::new(&Grid::new(4, 4).unwrap());
        obs.block(Point::new(1, 1));
        let cp = obs.checkpoint();
        obs.reset();
        obs.rollback(cp);
    }
}
