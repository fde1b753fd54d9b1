//! A set of grid cells stored as bit rows.

use crate::Point;

/// Bits per storage word.
const WORD: usize = 64;

/// A set of cells of a `width × height` grid, one row of `u64` words
/// per grid row: bit `x % 64` of word `x / 64` of row `y` holds cell
/// `(x, y)`.
///
/// Rows never share a word, so a shift along a row cannot carry a cell
/// into the next row, and bits past the last column always stay 0. A
/// whole-grid operation therefore touches `height · ⌈width / 64⌉`
/// words: 256 on a 128×128 grid, against 16,384 cells.
///
/// Grid indices are row-major (`y * width + x`), as in
/// [`ObsMap::blocked_cells`](crate::ObsMap::blocked_cells).
///
/// # Examples
///
/// ```
/// use pacor_grid::{CellRows, Point};
///
/// // A 70×3 strip with a wall across column 66.
/// let free: Vec<bool> = (0..70 * 3).map(|i| i % 70 != 66).collect();
/// let mut passable = CellRows::new(70, 3);
/// passable.fill_from(&free, |&f| f);
/// let mut region = CellRows::new(70, 3);
/// region.insert(Point::new(0, 1));
/// region.flood(&passable);
/// assert_eq!(region.count(), 66 * 3);
/// assert!(region.contains(Point::new(65, 2)));
/// assert!(!region.contains(Point::new(67, 1)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellRows {
    width: usize,
    height: usize,
    /// Words per row, `⌈width / 64⌉`.
    stride: usize,
    words: Vec<u64>,
}

impl CellRows {
    /// An empty set over a `width × height` grid.
    pub fn new(width: usize, height: usize) -> Self {
        let stride = width.div_ceil(WORD);
        Self {
            width,
            height,
            stride,
            words: vec![0; stride * height],
        }
    }

    /// Removes every cell.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Word index and bit mask of an in-map cell, `None` off the map.
    #[inline]
    fn slot(&self, p: Point) -> Option<(usize, u64)> {
        let (x, y) = (p.x as usize, p.y as usize);
        (p.x >= 0 && p.y >= 0 && x < self.width && y < self.height)
            .then(|| (y * self.stride + x / WORD, 1 << (x % WORD)))
    }

    /// Adds cell `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` lies off the map.
    #[inline]
    pub fn insert(&mut self, p: Point) {
        let (k, bit) = self.slot(p).expect("cell on the map");
        self.words[k] |= bit;
    }

    /// `true` when `p` is a member; off-map cells never are.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.slot(p)
            .is_some_and(|(k, bit)| self.words[k] & bit != 0)
    }

    /// Number of members.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The members' grid indices (`y * width + x`), ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .chunks_exact(self.stride.max(1))
            .enumerate()
            .flat_map(move |(y, row)| {
                row.iter().enumerate().flat_map(move |(k, &word)| {
                    let base = y * self.width + k * WORD;
                    let mut bits = word;
                    std::iter::from_fn(move || {
                        (bits != 0).then(|| {
                            let b = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            base + b
                        })
                    })
                })
            })
    }

    /// Replaces the set with the cells whose entry in `cells` (one per
    /// cell, row-major) satisfies `member`.
    ///
    /// # Panics
    ///
    /// Panics when `cells` does not hold exactly `width × height` entries.
    pub fn fill_from<T>(&mut self, cells: &[T], member: impl Fn(&T) -> bool) {
        assert_eq!(cells.len(), self.width * self.height, "one entry per cell");
        if self.width == 0 {
            return;
        }
        for (row, words) in cells
            .chunks_exact(self.width)
            .zip(self.words.chunks_exact_mut(self.stride))
        {
            for (part, word) in row.chunks(WORD).zip(words) {
                let mut bits = 0;
                let mut octets = part.chunks_exact(8);
                for (j, o) in (&mut octets).enumerate() {
                    let bytes: [u8; 8] = std::array::from_fn(|b| u8::from(member(&o[b])));
                    bits |= gather8(u64::from_le_bytes(bytes)) << (8 * j);
                }
                let base = part.len() - octets.remainder().len();
                for (b, c) in octets.remainder().iter().enumerate() {
                    bits |= u64::from(member(c)) << (base + b);
                }
                *word = bits;
            }
        }
    }

    /// Adds every member of `other`, a set over the same grid.
    pub fn union_with(&mut self, other: &CellRows) {
        self.check_same_grid(other);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Grows the set to every cell of `passable` that is 4-connected to
    /// a member through cells of `passable`: the members' connected
    /// components in that mask. Every member must be passable.
    ///
    /// Works on whole rows: a row takes in the bits of its neighbour
    /// rows that fall on its passable cells, then fills each passable
    /// run it touches with one carry-propagating add per word and
    /// direction. A row that grows puts its neighbours back on the
    /// worklist, so the loop ends when no row grows.
    pub fn flood(&mut self, passable: &CellRows) {
        self.check_same_grid(passable);
        debug_assert!(
            self.words
                .iter()
                .zip(&passable.words)
                .all(|(w, p)| w & !p == 0),
            "flood seeds must be passable"
        );
        let (height, stride) = (self.height, self.stride);
        // Rows to revisit, each listed at most once.
        let mut queued = vec![false; height];
        let mut work: Vec<usize> = Vec::new();
        for y in 0..height {
            if self.row(y).iter().any(|&w| w != 0) {
                for n in y.saturating_sub(1)..(y + 2).min(height) {
                    enqueue(n, &mut queued, &mut work);
                }
            }
        }
        let mut grown = vec![0u64; stride];
        while let Some(y) = work.pop() {
            let mask = passable.row(y);
            for (k, g) in grown.iter_mut().enumerate() {
                let i = y * stride + k;
                let mut seed = self.words[i];
                if y > 0 {
                    seed |= self.words[i - stride] & mask[k];
                }
                if y + 1 < height {
                    seed |= self.words[i + stride] & mask[k];
                }
                *g = seed;
            }
            fill_runs(&mut grown, mask);
            queued[y] = false;
            // A filled row is closed under its own runs, so only the
            // rows next to a grown one need another look.
            if grown[..] != *self.row(y) {
                self.words[y * stride..(y + 1) * stride].copy_from_slice(&grown);
                if y > 0 {
                    enqueue(y - 1, &mut queued, &mut work);
                }
                if y + 1 < height {
                    enqueue(y + 1, &mut queued, &mut work);
                }
            }
        }
    }

    /// Overwrites `out`, a set over the same grid, with the 4-neighbour
    /// dilation of this set: every in-map cell with a member among its
    /// 4 neighbours. A member itself is in the dilation only when
    /// another member neighbours it.
    pub fn dilate_into(&self, out: &mut CellRows) {
        self.check_same_grid(out);
        let (height, stride) = (self.height, self.stride);
        for y in 0..height {
            let row = self.row(y);
            for k in 0..stride {
                let w = row[k];
                // Cell x takes its left neighbour x − 1 (a shift up) and
                // its right neighbour x + 1 (a shift down), carrying
                // across the row's words but never past its ends.
                let from_left = (w << 1) | if k > 0 { row[k - 1] >> 63 } else { 0 };
                let from_right = (w >> 1) | if k + 1 < stride { row[k + 1] << 63 } else { 0 };
                let mut d = from_left | from_right;
                if y > 0 {
                    d |= self.words[(y - 1) * stride + k];
                }
                if y + 1 < height {
                    d |= self.words[(y + 1) * stride + k];
                }
                out.words[y * stride + k] = d;
            }
            if let Some(last) = out.words[y * stride..(y + 1) * stride].last_mut() {
                *last &= self.tail_mask();
            }
        }
    }

    /// The words of row `y`.
    #[inline]
    fn row(&self, y: usize) -> &[u64] {
        &self.words[y * self.stride..(y + 1) * self.stride]
    }

    /// The bits of a row's last word that lie on the map.
    fn tail_mask(&self) -> u64 {
        match self.width % WORD {
            0 => u64::MAX,
            r => (1 << r) - 1,
        }
    }

    fn check_same_grid(&self, other: &CellRows) {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "cell sets over different grids"
        );
    }
}

/// Puts row `y` on the worklist unless it is already there.
fn enqueue(y: usize, queued: &mut [bool], work: &mut Vec<usize>) {
    if !queued[y] {
        queued[y] = true;
        work.push(y);
    }
}

/// Packs the low bit of each byte of `bytes` (each 0 or 1) into bits
/// 0..8: the multiply moves byte `i` to bit `56 + i`, and no two
/// partial products share a bit, so nothing carries.
#[inline]
fn gather8(bytes: u64) -> u64 {
    bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// The bits of `mask` from the lowest bit of `seed` in each run of
/// `mask` to that run's end (towards bit 63). Adding a run's seeds to
/// the run carries from its lowest seed through its end and clears
/// those bits; the XOR recovers them, and seeds higher in the run are
/// put back by the OR. Every `seed` bit must lie in `mask`.
#[inline]
fn fill_up(mask: u64, seed: u64) -> u64 {
    ((mask.wrapping_add(seed) ^ mask) | seed) & mask
}

/// [`fill_up`] towards bit 0, through bit reversal.
#[inline]
fn fill_down(mask: u64, seed: u64) -> u64 {
    fill_up(mask.reverse_bits(), seed.reverse_bits()).reverse_bits()
}

/// Grows `seed`, a row of words within `mask`, to every run of `mask`
/// it touches: one pass towards higher x with a carry across words,
/// which reaches each touched run's end, then one pass back, which
/// reaches its start.
fn fill_runs(seed: &mut [u64], mask: &[u64]) {
    let mut carry = 0;
    for (s, &m) in seed.iter_mut().zip(mask) {
        *s = fill_up(m, *s | (carry & m));
        carry = *s >> 63;
    }
    let mut carry = 0;
    for (s, &m) in seed.iter_mut().zip(mask).rev() {
        *s = fill_down(m, *s | ((carry << 63) & m));
        carry = *s & 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_up_and_down_cover_seeded_runs() {
        let mask = 0b0111_1011_1100u64;
        assert_eq!(fill_up(mask, 0b0000_0000_0100), 0b0000_0011_1100);
        assert_eq!(fill_up(mask, 0b0001_0000_1000), 0b0111_0011_1000);
        assert_eq!(fill_down(mask, 0b0001_0000_1000), 0b0001_1000_1100);
        let mut row = [1u64 << 63, 0];
        fill_runs(&mut row, &[u64::MAX << 60, 0b111]);
        assert_eq!(row, [u64::MAX << 60, 0b111]);
    }

    #[test]
    fn gather8_packs_bytes() {
        for v in 0u64..256 {
            let bytes: [u8; 8] = std::array::from_fn(|b| (v >> b & 1) as u8);
            assert_eq!(gather8(u64::from_le_bytes(bytes)), v);
        }
    }

    #[test]
    fn empty_grids_are_empty() {
        let mut rows = CellRows::new(0, 3);
        rows.fill_from::<bool>(&[], |&b| b);
        assert_eq!(rows.iter().count(), 0);
        let mut out = CellRows::new(0, 3);
        rows.dilate_into(&mut out);
        assert_eq!(out.count(), 0);
    }
}
