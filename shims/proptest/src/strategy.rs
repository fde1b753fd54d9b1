//! Value-generation strategies (no shrinking).

use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Generates an intermediate value, then a dependent strategy from
    /// it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.base.sample(rng)).sample(rng)
    }
}

/// Boxes a strategy for storage in a [`Union`] (used by `prop_oneof!`).
pub fn boxed<S: Strategy + 'static>(strategy: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(strategy)
}

/// Uniform choice among several strategies of one value type.
pub struct Union<T> {
    branches: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Creates a union; panics if `branches` is empty.
    pub fn new(branches: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(
            !branches.is_empty(),
            "prop_oneof! needs at least one branch"
        );
        Self { branches }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.branches.len() as u64) as usize;
        self.branches[idx].sample(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty => $wide:ty),+ $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add(rng.below(span) as $wide) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as $wide).wrapping_add(rng.below(span + 1) as $wide) as $t
            }
        }
    )+};
}

impl_int_range_strategy!(
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        // Floating rounding can land exactly on the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty strategy range");
        lo + rng.unit_f64() * (hi - lo)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..500 {
            let v = (-5i32..5).sample(&mut rng);
            assert!((-5..5).contains(&v));
            let u = (2usize..=4).sample(&mut rng);
            assert!((2..=4).contains(&u));
            let f = (-1.5f64..0.25).sample(&mut rng);
            assert!((-1.5..0.25).contains(&f));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = TestRng::new(2);
        let s = (1usize..4)
            .prop_flat_map(|n| crate::collection::vec(0u8..10, n).prop_map(move |v| (n, v)));
        for _ in 0..100 {
            let (n, v) = s.sample(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn union_samples_all_branches() {
        let mut rng = TestRng::new(3);
        let s = Union::new(vec![boxed(Just(1u8)), boxed(Just(2u8))]);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2]);
    }
}
