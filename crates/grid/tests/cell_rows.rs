//! Property tests pinning [`CellRows`] to per-cell oracles.
//!
//! Widths straddle the 64-bit word boundary (1, 63, 64, 65, 127, 128,
//! 129, 179), so row ends inside a word, at its last bit and one bit
//! into the next word are all covered:
//!
//! * the flood equals a BFS over [`Point::neighbors4`] inside the mask;
//! * the dilation equals the union of each member's in-map neighbours,
//!   with nothing wrapping from one row's end into the next row and
//!   nothing past the last column;
//! * iteration yields the members' `y * width + x` in ascending order,
//!   and the count, membership, insertion and union agree with the
//!   oracle.

use pacor_grid::{CellRows, Point};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;

const WIDTHS: [usize; 8] = [1, 63, 64, 65, 127, 128, 129, 179];

/// splitmix64, for the per-cell draws of one case.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A per-cell mask, row-major: each cell is set with probability
/// `percent`%.
fn random_cells(w: usize, h: usize, percent: u64, seed: u64) -> Vec<bool> {
    let mut rng = SplitMix(seed);
    (0..w * h).map(|_| rng.next() % 100 < percent).collect()
}

fn point(i: usize, w: usize) -> Point {
    Point::new((i % w) as i32, (i / w) as i32)
}

fn rows_of(cells: &[bool], w: usize, h: usize) -> CellRows {
    let mut rows = CellRows::new(w, h);
    rows.fill_from(cells, |&c| c);
    rows
}

/// Checks `rows` against the oracle `want`: ascending iteration, count
/// and per-cell membership (plus the off-map ring around it).
fn assert_same(rows: &CellRows, want: &[bool], w: usize, h: usize) -> Result<(), TestCaseError> {
    let listed: Vec<usize> = rows.iter().collect();
    let expected: Vec<usize> = (0..w * h).filter(|&i| want[i]).collect();
    prop_assert_eq!(&listed, &expected, "members of a {}x{} set", w, h);
    prop_assert_eq!(rows.count(), expected.len() as u64);
    for y in -1..=h as i32 {
        for x in -1..=w as i32 {
            let p = Point::new(x, y);
            let on_map = x >= 0 && y >= 0 && x < w as i32 && y < h as i32;
            let member = on_map && want[y as usize * w + x as usize];
            prop_assert_eq!(rows.contains(p), member, "membership of {}", p);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fill_iter_and_union_match_cells(
        wi in 0usize..8, h in 1usize..20,
        pa in 0u64..101, pb in 0u64..101, seed in 0u64..1_000_000,
    ) {
        let w = WIDTHS[wi];
        let a = random_cells(w, h, pa, seed);
        let b = random_cells(w, h, pb, seed ^ 0xFFFF);
        let mut rows = rows_of(&a, w, h);
        assert_same(&rows, &a, w, h)?;
        rows.union_with(&rows_of(&b, w, h));
        let both: Vec<bool> = a.iter().zip(&b).map(|(x, y)| *x || *y).collect();
        assert_same(&rows, &both, w, h)?;
        let p = point(seed as usize % (w * h), w);
        rows.insert(p);
        let mut more = both.clone();
        more[p.y as usize * w + p.x as usize] = true;
        assert_same(&rows, &more, w, h)?;
        rows.clear();
        assert_same(&rows, &vec![false; w * h], w, h)?;
    }

    #[test]
    fn flood_equals_bfs(
        wi in 0usize..8, h in 1usize..24,
        blocked in 0u64..70, seeds in 1usize..5, seed in 0u64..1_000_000,
    ) {
        let w = WIDTHS[wi];
        let free: Vec<bool> = random_cells(w, h, blocked, seed).iter().map(|b| !b).collect();
        let mut passable = rows_of(&free, w, h);
        let mut rng = SplitMix(seed ^ 0x5EED);
        let mut region = CellRows::new(w, h);
        let mut want = vec![false; w * h];
        let mut queue = VecDeque::new();
        for _ in 0..seeds {
            // Seeds may sit on blocked cells, as blocked sources do: the
            // caller makes them passable.
            let p = point(rng.next() as usize % (w * h), w);
            passable.insert(p);
            region.insert(p);
            let i = p.y as usize * w + p.x as usize;
            if !want[i] {
                want[i] = true;
                queue.push_back(p);
            }
        }
        let open = |q: Point| {
            q.x >= 0 && q.y >= 0 && (q.x as usize) < w && (q.y as usize) < h
                && passable.contains(q)
        };
        while let Some(p) = queue.pop_front() {
            for q in p.neighbors4().into_iter().filter(|&q| open(q)) {
                let i = q.y as usize * w + q.x as usize;
                if !want[i] {
                    want[i] = true;
                    queue.push_back(q);
                }
            }
        }
        region.flood(&passable);
        assert_same(&region, &want, w, h)?;
    }

    #[test]
    fn dilation_is_the_neighbour_union(
        wi in 0usize..8, h in 1usize..20,
        percent in 0u64..40, seed in 0u64..1_000_000,
    ) {
        let w = WIDTHS[wi];
        let cells = random_cells(w, h, percent, seed);
        let mut want = vec![false; w * h];
        for (i, _) in cells.iter().enumerate().filter(|(_, &c)| c) {
            for q in point(i, w).neighbors4() {
                if q.x >= 0 && q.y >= 0 && (q.x as usize) < w && (q.y as usize) < h {
                    want[q.y as usize * w + q.x as usize] = true;
                }
            }
        }
        // A stale output is overwritten, not OR-ed into.
        let mut out = rows_of(&vec![true; w * h], w, h);
        rows_of(&cells, w, h).dilate_into(&mut out);
        assert_same(&out, &want, w, h)?;
    }
}

#[test]
fn row_ends_do_not_leak_into_the_next_row() {
    for w in WIDTHS {
        // Only the last column of row 0 and the first column of row 2.
        let h = 3;
        let mut rows = CellRows::new(w, h);
        rows.insert(Point::new(w as i32 - 1, 0));
        rows.insert(Point::new(0, 2));
        let mut out = CellRows::new(w, h);
        rows.dilate_into(&mut out);
        let listed: Vec<usize> = out.iter().collect();
        let mut want = vec![
            w - 1 + w, // below the row-0 member
            w,         // above the row-2 member
        ];
        if w > 1 {
            want.push(w - 2); // left of the row-0 member
            want.push(2 * w + 1); // right of the row-2 member
        }
        want.sort_unstable();
        want.dedup(); // one column: both members dilate into (0, 1)
        assert_eq!(listed, want, "width {w}");
        // A full passable grid floods completely from one corner.
        let mut all = CellRows::new(w, h);
        all.fill_from(&vec![true; w * h], |&c| c);
        let mut region = CellRows::new(w, h);
        region.insert(Point::new(w as i32 - 1, h as i32 - 1));
        region.flood(&all);
        assert_eq!(region, all, "width {w}");
    }
}
