//! Workspace-local stand-in for `proptest`.
//!
//! The build environment cannot reach a crates registry, so the
//! workspace vendors the slice of the proptest DSL its property tests
//! use: the [`strategy::Strategy`] trait with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, `prop::collection::{vec,
//! hash_set}`, `Just`, `prop_oneof!`, and the `proptest!` /
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from upstream: cases are generated from a fixed seed
//! derived from the test's module path (fully deterministic across
//! runs and machines), and failing inputs are **not shrunk** — the
//! panic message reports the case number instead.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Collection strategies (`prop::collection::vec`, `::hash_set`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive size interval for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `HashSet<S::Value>` with a size drawn from `size`.
    ///
    /// Duplicate samples are retried; generation panics if the element
    /// space cannot supply the minimum requested size.
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// See [`hash_set`].
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            let mut out = HashSet::with_capacity(n);
            let mut attempts = 0usize;
            let max_attempts = n * 64 + 256;
            while out.len() < n {
                out.insert(self.element.sample(rng));
                attempts += 1;
                if attempts >= max_attempts {
                    assert!(
                        out.len() >= self.size.lo,
                        "hash_set strategy could not reach minimum size {} \
                         (element space too small?)",
                        self.size.lo
                    );
                    break;
                }
            }
            out
        }
    }
}

/// The usual single-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Runs each embedded `#[test] fn name(pat in strategy, ...) { body }`
/// against `ProptestConfig::cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_inner!(@cfg($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_inner!(
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_inner {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$meta:meta])+
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])+
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::test_runner::run_cases(
                concat!(module_path!(), "::", stringify!($name)),
                &__config,
                |__rng| {
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), __rng);)+
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_inner!(@cfg($cfg) $($rest)*);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?} == {:?}`", __l, __r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?} == {:?}`: {}", __l, __r, format!($($fmt)+));
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?} != {:?}`", __l, __r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?} != {:?}`: {}", __l, __r, format!($($fmt)+));
    }};
}

/// Discards the current case (it is regenerated, not counted) unless
/// `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Picks uniformly among the listed strategies (all must share a value
/// type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::boxed($strat)),+
        ])
    };
}
