//! PathFinder-style history costs — Eq. (5) of the paper.

use pacor_grid::Point;

/// Per-cell history cost for negotiation-based routing.
///
/// Each grid cell `g` carries a cost `Ch(g)` that starts at 0 and is
/// bumped whenever an iteration ends with failed edges, per Eq. (5):
///
/// ```text
/// Ch(g)_{r+1} = b_g + α · Ch(g)_r
/// ```
///
/// with defaults `b = 1.0`, `α = 0.1` from the paper. Cells that were
/// occupied in many failed iterations accumulate cost and become less
/// attractive to the A\* search — "less likely to be occupied by the
/// routing paths unless there are no alternative routing solutions".
#[derive(Debug, Clone)]
pub struct HistoryCost {
    width: u32,
    height: u32,
    costs: Vec<f64>,
    base: f64,
    alpha: f64,
}

impl HistoryCost {
    /// Creates an all-zero history for a `width × height` grid with the
    /// paper's defaults (`b = 1.0`, `α = 0.1`).
    pub fn new(width: u32, height: u32) -> Self {
        Self::with_params(width, height, 1.0, 0.1)
    }

    /// Creates a history with explicit `b` and `α`.
    ///
    /// # Panics
    ///
    /// Panics when `b < 0` or `α < 0` — negative parameters would turn
    /// congestion history into a reward.
    pub fn with_params(width: u32, height: u32, base: f64, alpha: f64) -> Self {
        assert!(
            base >= 0.0 && alpha >= 0.0,
            "history parameters must be non-negative"
        );
        Self {
            width,
            height,
            costs: vec![0.0; width as usize * height as usize],
            base,
            alpha,
        }
    }

    #[inline]
    fn index_of(&self, p: Point) -> Option<usize> {
        if p.x >= 0 && p.y >= 0 && (p.x as u32) < self.width {
            let i = p.y as usize * self.width as usize + p.x as usize;
            (i < self.costs.len()).then_some(i)
        } else {
            None
        }
    }

    /// Current history cost of a cell (0 for out-of-bounds points).
    #[inline]
    pub fn cost(&self, p: Point) -> f64 {
        self.index_of(p).map(|i| self.costs[i]).unwrap_or(0.0)
    }

    /// Current history cost of the cell with grid index `i`
    /// (`y * width + x`): the index form of [`HistoryCost::cost`], for
    /// searches that already hold the index.
    ///
    /// # Panics
    ///
    /// Panics when `i` lies past the grid.
    #[inline]
    pub(crate) fn cost_at(&self, i: usize) -> f64 {
        self.costs[i]
    }

    /// The grid's `(width, height)`.
    pub(crate) fn dims(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Applies Eq. (5) to one cell.
    pub fn bump(&mut self, p: Point) {
        if let Some(i) = self.index_of(p) {
            self.costs[i] = self.base + self.alpha * self.costs[i];
        }
    }

    /// Applies Eq. (5) to every cell of every path in `paths` — the
    /// step-18 update of Algorithm 1.
    pub fn bump_all<'a, I>(&mut self, paths: I)
    where
        I: IntoIterator<Item = &'a [Point]>,
    {
        for path in paths {
            for &p in path {
                self.bump(p);
            }
        }
    }

    /// The fixed point `b / (1 − α)` that repeated bumps converge to
    /// (for `α < 1`). Exposed for tests and for tuning ablations.
    pub fn saturation(&self) -> f64 {
        if self.alpha < 1.0 {
            self.base / (1.0 - self.alpha)
        } else {
            f64::INFINITY
        }
    }

    /// Number of cells carrying nonzero accumulated history — the
    /// cheap congestion-pressure signal the telemetry stream reports
    /// per round. Deterministic: bumps happen in canonical net order.
    pub fn pressure_cells(&self) -> u64 {
        self.costs.iter().filter(|&&c| c > 0.0).count() as u64
    }

    /// Resets every cell's history to zero.
    pub fn clear(&mut self) {
        self.costs.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let h = HistoryCost::new(4, 4);
        assert_eq!(h.cost(Point::new(2, 2)), 0.0);
    }

    #[test]
    fn bump_follows_equation_5() {
        let mut h = HistoryCost::new(4, 4);
        let p = Point::new(1, 1);
        h.bump(p);
        assert!((h.cost(p) - 1.0).abs() < 1e-12);
        h.bump(p);
        assert!((h.cost(p) - 1.1).abs() < 1e-12);
        h.bump(p);
        assert!((h.cost(p) - 1.11).abs() < 1e-12);
    }

    #[test]
    fn bumps_monotonically_approach_saturation() {
        let mut h = HistoryCost::with_params(2, 2, 1.0, 0.1);
        let p = Point::new(0, 0);
        let sat = h.saturation();
        let mut last = 0.0;
        for _ in 0..50 {
            h.bump(p);
            let c = h.cost(p);
            assert!(c >= last); // strictly increasing until fp convergence
            assert!(c <= sat + 1e-9);
            last = c;
        }
        assert!((last - sat).abs() < 1e-6);
    }

    #[test]
    fn out_of_bounds_is_silent() {
        let mut h = HistoryCost::new(2, 2);
        h.bump(Point::new(-1, 0));
        h.bump(Point::new(9, 9));
        assert_eq!(h.cost(Point::new(9, 9)), 0.0);
    }

    #[test]
    fn bump_all_touches_every_cell() {
        let mut h = HistoryCost::new(4, 4);
        let p1 = [Point::new(0, 0), Point::new(1, 0)];
        let p2 = [Point::new(3, 3)];
        h.bump_all([&p1[..], &p2[..]]);
        assert!(h.cost(Point::new(0, 0)) > 0.0);
        assert!(h.cost(Point::new(1, 0)) > 0.0);
        assert!(h.cost(Point::new(3, 3)) > 0.0);
        assert_eq!(h.cost(Point::new(2, 2)), 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut h = HistoryCost::new(2, 2);
        h.bump(Point::new(0, 0));
        h.clear();
        assert_eq!(h.cost(Point::new(0, 0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_alpha_panics() {
        HistoryCost::with_params(2, 2, 1.0, -0.5);
    }
}
