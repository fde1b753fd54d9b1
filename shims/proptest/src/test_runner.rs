//! Deterministic case runner.

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case's assumptions don't hold; generate a fresh one.
    Reject,
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    /// An assertion failure carrying `message`.
    pub fn fail(message: impl Into<String>) -> Self {
        Self::Fail(message.into())
    }
}

/// Deterministic SplitMix64 stream used for all generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Unbiased uniform sample of `[0, span)`.
    ///
    /// # Panics
    ///
    /// Panics when `span` is zero.
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "cannot sample an empty interval");
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % span;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 mantissa bits of a u64.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a over the test's module path, so every test gets a distinct
/// but machine-independent seed.
fn seed_for(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drives one property: runs `config.cases` accepted cases, regenerating
/// rejected ones, and panics (without shrinking) on the first failure.
///
/// Like upstream proptest, the `PROPTEST_CASES` environment variable
/// overrides the configured case count, so CI or a developer can stress
/// a property harder without editing the test.
pub fn run_cases<F>(name: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases);
    let seed = seed_for(name);
    let mut rng = TestRng::new(seed);
    let max_rejects = u64::from(cases) * 16 + 256;
    let mut rejects = 0u64;
    let mut accepted = 0u32;
    while accepted < cases {
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject) => {
                rejects += 1;
                assert!(
                    rejects <= max_rejects,
                    "proptest `{name}`: too many rejected cases ({rejects}); \
                     weaken the prop_assume! conditions"
                );
            }
            Err(TestCaseError::Fail(message)) => {
                panic!("proptest `{name}` failed at case {accepted} (seed {seed:#x}): {message}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_requested_cases() {
        let mut n = 0u32;
        run_cases("t", &ProptestConfig::with_cases(17), |_| {
            n += 1;
            Ok(())
        });
        assert_eq!(n, 17);
    }

    #[test]
    fn rejects_are_regenerated() {
        let mut calls = 0u32;
        run_cases("t2", &ProptestConfig::with_cases(5), |rng| {
            calls += 1;
            if rng.below(2) == 0 {
                Err(TestCaseError::Reject)
            } else {
                Ok(())
            }
        });
        assert!(calls > 5);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn failure_panics() {
        run_cases("t3", &ProptestConfig::with_cases(5), |_| {
            Err(TestCaseError::fail("boom"))
        });
    }
}
