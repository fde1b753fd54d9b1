//! Workspace-local stand-in for `criterion`.
//!
//! A minimal wall-clock benchmark harness exposing the criterion API
//! surface this workspace's benches use (`benchmark_group`,
//! `bench_function`, `bench_with_input`, `Bencher::iter`,
//! `iter_with_setup`, `criterion_group!`, `criterion_main!`). Each
//! benchmark is calibrated to a small time budget, then timed over
//! several samples; the median per-iteration time is printed.
//!
//! Knobs via environment variables:
//! * `PACOR_BENCH_BUDGET_MS` — per-benchmark sample budget
//!   (default 300 ms),
//! * `PACOR_BENCH_FILTER` — substring filter on benchmark ids.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Prevents the optimizer from const-folding a benchmarked value away.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// The benchmark driver.
pub struct Criterion {
    budget: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let budget_ms = std::env::var("PACOR_BENCH_BUDGET_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300u64);
        Self {
            budget: Duration::from_millis(budget_ms),
            filter: std::env::var("PACOR_BENCH_FILTER")
                .ok()
                .filter(|f| !f.is_empty()),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.into(), &mut f);
    }

    fn run<F>(&mut self, id: &str, f: &mut F)
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            budget: self.budget,
            samples: Vec::new(),
        };
        f(&mut bencher);
        let mut samples = bencher.samples;
        if samples.is_empty() {
            println!("{id:<56} (no measurement)");
            return;
        }
        samples.sort();
        let median = samples[samples.len() / 2];
        let min = samples[0];
        println!(
            "{id:<56} median {:>12}  min {:>12}  ({} samples)",
            format_ns(median),
            format_ns(min),
            samples.len()
        );
    }
}

fn format_ns(ns: u128) -> String {
    let mut out = String::new();
    if ns >= 1_000_000_000 {
        let _ = write!(out, "{:.3} s", ns as f64 / 1e9);
    } else if ns >= 1_000_000 {
        let _ = write!(out, "{:.3} ms", ns as f64 / 1e6);
    } else if ns >= 1_000 {
        let _ = write!(out, "{:.3} µs", ns as f64 / 1e3);
    } else {
        let _ = write!(out, "{ns} ns");
    }
    out
}

/// A group of benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for criterion compatibility; the stand-in derives its
    /// sample count from the time budget instead.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into().id);
        self.criterion.run(&full, &mut f);
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.into().id);
        self.criterion
            .run(&full, &mut |b: &mut Bencher| f(b, input));
    }

    /// Ends the group (measurement already happened eagerly).
    pub fn finish(self) {}
}

/// A benchmark identifier.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> Self {
        Self { id: id.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    budget: Duration,
    samples: Vec<u128>,
}

impl Bencher {
    /// Times `routine`, amortizing over enough iterations to fill the
    /// sample budget.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Calibrate: how many iterations fit a per-sample slice?
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(20));
        let per_sample = self.budget / 12;
        let iters = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let deadline = Instant::now() + self.budget;
        while self.samples.len() < 12 && Instant::now() < deadline {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples
                .push(t0.elapsed().as_nanos() / u128::from(iters));
        }
        if self.samples.is_empty() {
            // Budget too small for even one sample: keep the calibration.
            self.samples.push(once.as_nanos());
        }
    }

    /// Like [`iter`](Self::iter), but re-creates untimed input state
    /// before each timed run.
    pub fn iter_with_setup<S, I, O, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let deadline = Instant::now() + self.budget;
        loop {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.samples.push(t0.elapsed().as_nanos());
            if self.samples.len() >= 12 || Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// Bundles benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion {
            budget: Duration::from_millis(5),
            filter: None,
        };
        let mut ran = 0u64;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                ran += 1;
                ran
            })
        });
        assert!(ran > 0);
    }

    #[test]
    fn iter_with_setup_passes_input() {
        let mut c = Criterion {
            budget: Duration::from_millis(2),
            filter: None,
        };
        let mut group = c.benchmark_group("g");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("f", 3), &3u32, |b, &x| {
            b.iter_with_setup(|| x * 2, |y| y + 1)
        });
        group.finish();
    }

    #[test]
    fn filter_skips_benchmarks() {
        let mut c = Criterion {
            budget: Duration::from_millis(2),
            filter: Some("nomatch".into()),
        };
        let mut ran = false;
        c.bench_function("skipped", |b| {
            ran = true;
            b.iter(|| 1)
        });
        assert!(!ran);
    }
}
