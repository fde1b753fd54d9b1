//! Fixed-bucket histograms for hot-path value distributions.

/// Number of power-of-two buckets; values ≥ 2^(BUCKETS−2) share the last.
const BUCKETS: usize = 17;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `0` counts zeros, bucket `i ≥ 1` counts values in
/// `[2^(i−1), 2^i)`, and the final bucket absorbs everything larger.
/// All state is integral, so merging and exporting are exactly
/// reproducible — no floating-point quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one sample. The sum saturates rather than wraps.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    fn bucket_of(value: u64) -> usize {
        ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The bucket counts, low to high.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Lower bound of bucket `i` (0, then 2^(i−1)).
    fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Nearest-rank percentile estimate for `percent` ∈ [0, 100].
    ///
    /// The 0-based rank is `⌊(count−1)·percent/100⌋`; the estimate is
    /// the lower bound of the bucket holding that rank, clamped to the
    /// observed `[min, max]`. Entirely integral, so merging order
    /// cannot perturb it. When every sample lands on its
    /// bucket's lower bound (powers of two, zeros, or a constant
    /// sample) the estimate is **exact**; otherwise it under-reports by
    /// less than one bucket width.
    pub fn quantile(&self, percent: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if percent >= 100 {
            return self.max;
        }
        let rank = ((self.count - 1) as u128 * percent as u128 / 100) as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum > rank {
                return Self::bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(50)
    }

    /// 95th-percentile estimate (see [`Histogram::quantile`]).
    pub fn p95(&self) -> u64 {
        self.quantile(95)
    }

    /// 99th-percentile estimate (see [`Histogram::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 1); // 4
        assert_eq!(h.buckets()[11], 1); // 1024
        assert_eq!(h.buckets()[BUCKETS - 1], 1); // overflow bucket
    }

    #[test]
    fn empty_histogram_reports_zero_min() {
        let h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_matches_sequential_observation() {
        let mut all = Histogram::default();
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 0..100u64 {
            all.observe(v * 31 % 257);
            if v % 2 == 0 {
                a.observe(v * 31 % 257);
            } else {
                b.observe(v * 31 % 257);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn quantiles_exact_on_distinct_powers_of_two() {
        // Sorted samples: [1, 2, 4, 8, 16, 32, 64, 128] — one per
        // bucket, each equal to its bucket's lower bound, so the
        // nearest-rank estimate is exact.
        let mut h = Histogram::default();
        for i in 0..8u32 {
            h.observe(1u64 << i);
        }
        // rank(p) = floor(7p/100): p50 → 3, p95 → 6, p99 → 6.
        assert_eq!(h.p50(), 8);
        assert_eq!(h.p95(), 64);
        assert_eq!(h.p99(), 64);
        assert_eq!(h.quantile(0), 1);
        assert_eq!(h.quantile(100), 128);
    }

    #[test]
    fn quantiles_exact_on_constant_and_tiny_samples() {
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.observe(7);
        }
        // One bucket; the clamp to [min, max] = [7, 7] makes every
        // percentile exactly 7.
        assert_eq!((h.p50(), h.p95(), h.p99()), (7, 7, 7));

        let mut single = Histogram::default();
        single.observe(1000);
        assert_eq!((single.p50(), single.p99()), (1000, 1000));

        let empty = Histogram::default();
        assert_eq!((empty.p50(), empty.p95(), empty.p99()), (0, 0, 0));
    }

    #[test]
    fn quantiles_exact_on_zeros_and_monotone() {
        let mut h = Histogram::default();
        for v in [0u64, 0, 0, 0, 0, 0, 0, 0, 0, 1024] {
            h.observe(v);
        }
        // rank(50) = 4 → bucket 0 → 0; rank(95) = 8 → still 0;
        // rank(99) = 8 → 0. Only rank 9 reaches the outlier.
        assert_eq!((h.p50(), h.p95(), h.p99()), (0, 0, 0));
        assert_eq!(h.quantile(100), 1024);
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
    }

    #[test]
    fn quantiles_clamped_within_observed_range() {
        let mut h = Histogram::default();
        // 5 and 7 share bucket [4, 8); the bucket floor 4 is below the
        // observed min, so the clamp must lift the estimate to 5.
        h.observe(5);
        h.observe(7);
        assert_eq!(h.p50(), 5);
        assert_eq!(h.quantile(100), 7);
    }

    #[test]
    fn merging_empty_is_identity() {
        let mut h = Histogram::default();
        h.observe(5);
        let before = h.clone();
        h.merge(&Histogram::default());
        assert_eq!(h, before);
    }
}
