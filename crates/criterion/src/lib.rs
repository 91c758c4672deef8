//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a small wall-clock benchmarking harness exposing the subset of the
//! criterion API used by `crates/bench`: [`Criterion`], benchmark groups,
//! [`Bencher::iter`], `black_box`, and the [`criterion_group!`] macro.
//! Each benchmark is warmed up, then timed over a fixed number of samples;
//! the mean, minimum, and median per-iteration times are printed. There are
//! no statistical comparisons against saved baselines.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a computation whose result is unused.
pub(crate) fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    default_sample_size: usize,
}

impl Criterion {
    /// Accepted for API compatibility; command-line filters are ignored.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Print the closing line of a benchmark run.
    pub fn final_summary(&self) {
        println!("benchmarks complete");
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: if self.default_sample_size == 0 {
                10
            } else {
                self.default_sample_size
            },
        }
    }
}

/// A named group of benchmarks sharing a sample size.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            result: None,
        };
        f(&mut bencher);
        let label = if self.name.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.name, name)
        };
        match bencher.result {
            Some(summary) => println!(
                "{label:<50} mean {:>12?}  min {:>12?}  median {:>12?}  ({} samples)",
                summary.mean, summary.min, summary.median, summary.samples
            ),
            None => println!("{label:<50} (no measurement: Bencher::iter was not called)"),
        }
    }

    /// End the group (printing nothing extra; kept for API compatibility).
    pub fn finish(self) {}
}

#[derive(Debug, Clone, Copy)]
struct Summary {
    mean: Duration,
    min: Duration,
    median: Duration,
    samples: usize,
}

/// Timer handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    result: Option<Summary>,
}

impl Bencher {
    /// Time `routine`, discarding its output (through `black_box`).
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warm-up and batch-size calibration: aim for samples of at least
        // ~2 ms so fast routines are timed over many iterations.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let batch =
            (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

        let mut samples: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            samples.push(start.elapsed() / batch as u32);
        }
        samples.sort();
        let total: Duration = samples.iter().sum();
        self.result = Some(Summary {
            mean: total / samples.len() as u32,
            min: samples[0],
            median: samples[samples.len() / 2],
            samples: samples.len(),
        });
    }
}

/// Collect benchmark functions into a single callable entry point.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("unit");
        group.sample_size(3);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.finish();
    }

    criterion_group!(unit_group, sample_bench);

    #[test]
    fn group_runs_and_measures() {
        unit_group();
    }

    #[test]
    fn bench_without_iter_does_not_panic() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("");
        group.bench_function("noop", |_b| {});
        group.finish();
        c.final_summary();
    }

    #[test]
    fn black_box_returns_value() {
        assert_eq!(black_box(42), 42);
    }
}
