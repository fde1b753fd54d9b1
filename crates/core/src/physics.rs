//! Pressure-propagation model: turn routed channel lengths into arrival
//! times and synchronization skews.
//!
//! The paper's motivation (Section 1) is physical: "Using the flexible
//! PDMS material, pressure propagation is very slow from the control pin
//! to the corresponding valve(s) through the control channel", and the
//! propagation time grows with channel length — which is why matched
//! *lengths* imply matched *switching times*. This module provides the
//! simplest first-order model consistent with that argument: a constant
//! effective propagation speed over channel length, configurable for the
//! device technology. It quantifies what a residual mismatch of `ΔL`
//! grid tracks costs in microseconds of valve skew.

use crate::RoutedCluster;
use pacor_grid::{DesignRules, GridLen};
use serde::{Deserialize, Serialize};

/// First-order pressure-propagation model.
///
/// # Examples
///
/// ```
/// use pacor::PropagationModel;
/// use pacor::grid::DesignRules;
///
/// let model = PropagationModel::typical_pdms(DesignRules::typical_pdms());
/// // A 50-track channel (10 mm at 200 μm pitch) takes 0.1 s at 0.1 m/s.
/// let t = model.delay_us(50);
/// assert!((t - 100_000.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PropagationModel {
    rules: DesignRules,
    /// Effective pressure-front speed in the channel, m/s.
    speed_m_per_s: f64,
}

impl PropagationModel {
    /// Creates a model from design rules and an effective speed (m/s).
    ///
    /// # Panics
    ///
    /// Panics when `speed_m_per_s` is not finite and positive.
    pub fn new(rules: DesignRules, speed_m_per_s: f64) -> Self {
        assert!(
            speed_m_per_s.is_finite() && speed_m_per_s > 0.0,
            "propagation speed must be positive"
        );
        Self {
            rules,
            speed_m_per_s,
        }
    }

    /// A conservative PDMS figure: pressure fronts in soft elastomer
    /// channels are orders of magnitude slower than acoustic speeds;
    /// 0.1 m/s represents the slow-propagation regime the paper warns
    /// about for portable (low driving pressure) devices.
    pub fn typical_pdms(rules: DesignRules) -> Self {
        Self::new(rules, 0.1)
    }

    /// The design rules in use.
    pub fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// Effective speed (m/s).
    pub fn speed_m_per_s(&self) -> f64 {
        self.speed_m_per_s
    }

    /// Propagation delay of a channel of `len` grid tracks, in µs.
    pub fn delay_us(&self, len: GridLen) -> f64 {
        let meters = self.rules.physical_length_um(len) * 1e-6;
        meters / self.speed_m_per_s * 1e6
    }

    /// Worst-case switching skew of a routed cluster, in µs: the delay
    /// difference between its longest and shortest member channels.
    /// `None` for clusters without per-member lengths (unconstrained).
    pub fn cluster_skew_us(&self, rc: &RoutedCluster) -> Option<f64> {
        let lens = rc.member_lengths()?;
        let max = *lens.iter().max()?;
        let min = *lens.iter().min()?;
        Some(self.delay_us(max - min))
    }

    /// The largest length mismatch `δ` (grid tracks) that keeps cluster
    /// skew below `budget_us` microseconds — the inverse problem a
    /// designer solves when choosing the threshold for
    /// [`Problem::delta`](crate::Problem).
    pub fn delta_for_skew_budget(&self, budget_us: f64) -> GridLen {
        if budget_us <= 0.0 {
            return 0;
        }
        let meters = budget_us * 1e-6 * self.speed_m_per_s;
        let um = meters * 1e6;
        // Epsilon guards the floor against round-trip floating-point dust
        // (delay_us followed by delta_for_skew_budget must be ≥ identity).
        (um / self.rules.pitch_um() + 1e-9).floor() as GridLen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutedKind;
    use pacor_grid::{GridPath, Point};
    use pacor_valves::{Cluster, ClusterId, ValveId};

    fn model() -> PropagationModel {
        PropagationModel::typical_pdms(DesignRules::typical_pdms())
    }

    #[test]
    fn delay_scales_linearly() {
        let m = model();
        assert_eq!(m.delay_us(0), 0.0);
        assert!((m.delay_us(10) - 2.0 * m.delay_us(5)).abs() < 1e-9);
    }

    #[test]
    fn skew_budget_roundtrip() {
        let m = model();
        for delta in [0u64, 1, 5, 40] {
            let budget = m.delay_us(delta);
            // The recovered δ for that budget is at least `delta`.
            assert!(m.delta_for_skew_budget(budget) >= delta);
            // And a hair under the budget gives strictly less.
            if delta > 0 {
                assert!(m.delta_for_skew_budget(budget * 0.99) < delta);
            }
        }
        assert_eq!(m.delta_for_skew_budget(-1.0), 0);
    }

    #[test]
    fn cluster_skew_from_member_lengths() {
        let cells: Vec<Point> = (0..=6).map(|x| Point::new(x, 0)).collect();
        let half_a = GridPath::new(cells[..=2].to_vec()).unwrap();
        let mut rev = cells[2..].to_vec();
        rev.reverse();
        let half_b = GridPath::new(rev).unwrap();
        let rc = RoutedCluster {
            cluster: Cluster::new(ClusterId(0), vec![ValveId(0), ValveId(1)], true),
            member_positions: vec![Point::new(0, 0), Point::new(6, 0)],
            kind: RoutedKind::LmPair {
                junction: Point::new(2, 0),
                half_a,
                half_b,
            },
            escape: None,
        };
        let m = model();
        // Halves are 2 and 4 → skew = delay(2).
        let skew = m.cluster_skew_us(&rc).unwrap();
        assert!((skew - m.delay_us(2)).abs() < 1e-9);
    }

    #[test]
    fn singleton_has_no_skew() {
        let rc = RoutedCluster {
            cluster: Cluster::new(ClusterId(0), vec![ValveId(0)], false),
            member_positions: vec![Point::new(0, 0)],
            kind: RoutedKind::Singleton,
            escape: None,
        };
        assert!(model().cluster_skew_us(&rc).is_none());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_speed_panics() {
        PropagationModel::new(DesignRules::typical_pdms(), 0.0);
    }
}
