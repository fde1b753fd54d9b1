//! The successive-shortest-path Dijkstra queue of
//! [`GridEscape`](crate::GridEscape).
//!
//! The solver pushes only on strict improvement, so the queue never
//! holds two live entries with equal `(distance, node)`; any structure
//! that pops ascending `(distance, node)` therefore reproduces the
//! binary-heap pop order exactly. Grid escape networks relax most arcs
//! at reduced cost 0, so nearly every push lands on the distance level
//! currently being popped — the *plateau*. Plateau nodes live in a
//! two-level bitset over node ids and pop by find-first-set in
//! ascending id. Strictly farther nodes wait in radix buckets keyed by
//! the highest bit in which their distance differs from the level
//! (Dijkstra distances never drop below the level, so the buckets stay
//! valid as it rises) and move into the bitset one level at a time.
//!
//! While the queue stays at level 0 its buckets only grow, so a
//! [`QueueMark`] of their lengths lets the solver rewind a search that
//! never left level 0 (DESIGN §14.5).

/// Per-node Dijkstra state: tentative distance and Johnson potential in
/// one 8-byte record, so the two random reads per relaxed arc share a
/// cache line. Reduced distances live in `[0, β]` and the offset-form
/// potential drift is guarded by [`assert_potential_drift`], so `i32`
/// suffices. `i32::MAX` is the "unvisited" sentinel: distances are only
/// stored after comparing strictly below the current value, so the
/// sentinel can never be confused with a finite distance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeState {
    pub(crate) dist: i32,
    pub(crate) pot: i32,
}

impl NodeState {
    pub(crate) const CLEAN: NodeState = NodeState {
        dist: i32::MAX,
        pot: 0,
    };
}

/// Offset-form potentials drift downward by the sink distance per
/// augmentation (the super source tracks the full `-Σdt`). Escape-scale
/// solves stay far below this bound; a pathological chain must fail
/// loudly rather than overflow `i32` silently.
#[inline]
pub(crate) fn assert_potential_drift(source_pot: i32) {
    assert!(
        source_pot > i32::MIN / 2,
        "Johnson potential drift exceeds i32 range"
    );
}

/// The radix-bucket lengths of a level-0 [`LevelQueue`], taken by
/// [`LevelQueue::mark`] for [`LevelQueue::rewind`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueMark([u32; BUCKETS]);

/// Bucket `b` holds distances whose highest bit differing from the
/// level is bit `b − 1`; bucket 0 stays empty.
const BUCKETS: usize = 33;

/// Monotone `(distance, node)` priority queue: plateau bitset plus
/// radix buckets.
#[derive(Debug, Clone, Default)]
pub(crate) struct LevelQueue {
    bits: Vec<u64>,
    sum: Vec<u64>,
    /// No summary word below this index is non-zero.
    lo: usize,
    /// Bucket `b ≥ 1` holds the `(distance, node)` entries whose
    /// distance first differs from `level` in bit `b − 1`.
    buckets: Vec<Vec<(u32, u32)>>,
    /// The distance level the bitset holds.
    level: u32,
}

impl LevelQueue {
    /// Empties the queue for node ids `< n`; the first level is 0.
    pub(crate) fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
            self.sum.resize(words.div_ceil(64), 0);
        }
        self.clear_plateau();
        self.buckets.resize(BUCKETS, Vec::new());
        for b in &mut self.buckets {
            b.clear();
        }
        self.level = 0;
    }

    fn clear_plateau(&mut self) {
        for si in 0..self.sum.len() {
            let mut sw = self.sum[si];
            while sw != 0 {
                self.bits[(si << 6) + sw.trailing_zeros() as usize] = 0;
                sw &= sw - 1;
            }
            self.sum[si] = 0;
        }
        self.lo = self.sum.len();
    }

    /// The bucket lengths now; valid for [`Self::rewind`] while the
    /// level stays 0.
    pub(crate) fn mark(&self) -> QueueMark {
        QueueMark(std::array::from_fn(|b| self.buckets[b].len() as u32))
    }

    /// Drops every bucket entry pushed since `mark` and makes `plateau`
    /// the queued level-0 nodes. The queue must not have left level 0
    /// since the mark: only then have its buckets only grown.
    pub(crate) fn rewind(&mut self, mark: &QueueMark, plateau: impl IntoIterator<Item = usize>) {
        debug_assert_eq!(self.level, 0, "rewind past a level change");
        self.clear_plateau();
        for (b, &len) in self.buckets.iter_mut().zip(&mark.0) {
            b.truncate(len as usize);
        }
        for v in plateau {
            self.push(v, 0);
        }
    }

    /// Queues `v` at tentative distance `d` (never below the level).
    #[inline]
    pub(crate) fn push(&mut self, v: usize, d: i32) {
        let d = d as u32;
        if d == self.level {
            self.bits[v >> 6] |= 1 << (v & 63);
            self.sum[v >> 12] |= 1 << ((v >> 6) & 63);
            self.lo = self.lo.min(v >> 12);
        } else {
            let b = 32 - (d ^ self.level).leading_zeros() as usize;
            self.buckets[b].push((d, v as u32));
        }
    }

    /// Pops the next node in ascending `(distance, node)` order together
    /// with its distance; `dist` reads a node's current tentative
    /// distance (bucket entries it contradicts are stale and dropped).
    ///
    /// Returns `None` when the queue is exhausted **or** the next level
    /// equals `stop` — the SSP sink-settle cutoff: once the sink's
    /// tentative distance is the lowest level left, no remaining settle
    /// can improve it, reassign its parent, or shift any potential.
    #[inline]
    pub(crate) fn pop(&mut self, dist: impl Fn(usize) -> i32, stop: i32) -> Option<(usize, i32)> {
        loop {
            if let Some(v) = self.first() {
                let w = v >> 6;
                self.bits[w] &= !(1 << (v & 63));
                if self.bits[w] == 0 {
                    self.sum[w >> 6] &= !(1 << (w & 63));
                }
                return Some((v, self.level as i32));
            }
            // Plateau drained: the lowest non-empty bucket holds the next
            // level. Drop its stale entries, raise the level to its least
            // live distance, and re-file the bucket: that level's nodes
            // land in the bitset, the rest in lower buckets.
            let b = (1..self.buckets.len()).find(|&b| !self.buckets[b].is_empty())?;
            let mut next = u32::MAX;
            self.buckets[b].retain(|&(d, v)| {
                let live = d as i32 == dist(v as usize);
                if live {
                    next = next.min(d);
                }
                live
            });
            if next == u32::MAX {
                continue;
            }
            if next as i32 == stop {
                return None;
            }
            self.level = next;
            let mut refile = std::mem::take(&mut self.buckets[b]);
            for &(d, v) in &refile {
                self.push(v as usize, d as i32);
            }
            refile.clear();
            self.buckets[b] = refile;
        }
    }

    /// Lowest queued plateau node, via the summary words then one leaf.
    #[inline]
    fn first(&mut self) -> Option<usize> {
        while self.lo < self.sum.len() {
            let sw = self.sum[self.lo];
            if sw != 0 {
                let w = (self.lo << 6) + sw.trailing_zeros() as usize;
                return Some((w << 6) + self.bits[w].trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_ascending_distance_then_node() {
        let dist = [0, 3, 0, 3, 5, 0, 9, 1 << 20];
        let mut q = LevelQueue::default();
        q.reset(dist.len());
        for (v, &d) in dist.iter().enumerate().rev() {
            q.push(v, d);
        }
        let mut order = Vec::new();
        while let Some((v, d)) = q.pop(|v| dist[v], i32::MAX) {
            order.push((d, v));
        }
        assert_eq!(
            order,
            vec![
                (0, 0),
                (0, 2),
                (0, 5),
                (3, 1),
                (3, 3),
                (5, 4),
                (9, 6),
                (1 << 20, 7)
            ]
        );
    }

    #[test]
    fn later_pushes_at_the_level_pop_by_node_id() {
        let dist = [0, 2, 2, 2];
        let mut q = LevelQueue::default();
        q.reset(dist.len());
        q.push(0, 0);
        q.push(3, 2);
        assert_eq!(q.pop(|v| dist[v], i32::MAX), Some((0, 0)));
        assert_eq!(q.pop(|v| dist[v], i32::MAX), Some((3, 2)));
        // Relaxed while level 2 is being popped: lower ids come first.
        q.push(2, 2);
        q.push(1, 2);
        assert_eq!(q.pop(|v| dist[v], i32::MAX), Some((1, 2)));
        assert_eq!(q.pop(|v| dist[v], i32::MAX), Some((2, 2)));
        assert_eq!(q.pop(|v| dist[v], i32::MAX), None);
    }

    #[test]
    fn stops_at_the_sink_level_and_skips_stale_entries() {
        let mut dist = [0, 4, 4, 2];
        let mut q = LevelQueue::default();
        q.reset(dist.len());
        q.push(0, 0);
        q.push(1, 6);
        dist[1] = 4; // improved after the first push: (6, 1) is stale
        q.push(1, 4);
        q.push(2, 4);
        q.push(3, 2);
        assert_eq!(q.pop(|v| dist[v], 4), Some((0, 0)));
        assert_eq!(q.pop(|v| dist[v], 4), Some((3, 2)));
        assert_eq!(q.pop(|v| dist[v], 4), None, "level 4 is the sink's");
        // Without the cutoff the stale (6, 1) never surfaces.
        let mut order = Vec::new();
        while let Some(e) = q.pop(|v| dist[v], i32::MAX) {
            order.push(e);
        }
        assert_eq!(order, vec![(1, 4), (2, 4)]);
    }

    #[test]
    fn rewind_drops_later_bucket_pushes_and_requeues_the_plateau() {
        let dist = [0, 0, 0, 5, 3, 0, 7];
        let mut q = LevelQueue::default();
        q.reset(dist.len());
        q.push(0, 0);
        q.push(5, 0);
        q.push(3, 5);
        assert_eq!(q.pop(|v| dist[v], i32::MAX), Some((0, 0)));
        let mark = q.mark();
        q.push(4, 3);
        q.push(6, 7);
        q.push(1, 0);
        assert_eq!(q.pop(|v| dist[v], i32::MAX), Some((1, 0)));
        // Back to the mark, with node 2 queued in place of node 5.
        q.rewind(&mark, [2]);
        let mut order = Vec::new();
        while let Some(e) = q.pop(|v| dist[v], i32::MAX) {
            order.push(e);
        }
        assert_eq!(order, vec![(2, 0), (3, 5)]);
    }
}
