//! Offline subset of `criterion`.
//!
//! Implements the API shape the workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function` / `bench_with_input`, `Bencher::iter`,
//! `BenchmarkId`, `black_box`, and the `criterion_group!` /
//! `criterion_main!` macros — with plain wall-clock timing instead of the
//! real crate's statistical machinery. Each benchmark runs a short warm-up,
//! then `sample_size` timed batches, and prints the per-iteration mean and
//! min. There are no HTML reports or regression baselines; the repo
//! benchmark (`BENCHMARK.json`, `benchmark/`) is the tracked perf
//! measurement.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prevents the optimizer from discarding a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Entry point handed to benchmark functions.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_bench(id, self.default_sample_size, f);
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Accepted for API compatibility; the shim sizes runs by sample count.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        f: F,
    ) -> &mut Self {
        run_bench(&format!("{}/{}", self.name, id), self.sample_size, f);
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Display,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_bench(&format!("{}/{}", self.name, id), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// A function + parameter benchmark identifier.
pub struct BenchmarkId {
    repr: String,
}

impl BenchmarkId {
    /// Identifier `function_name/parameter`.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            repr: format!("{function_name}/{parameter}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.repr)
    }
}

/// Timing harness handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Times repeated calls of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and batch sizing: aim for samples of at least ~1ms so
        // Instant overhead stays negligible, but cap the calibration work.
        let start = Instant::now();
        black_box(f());
        let one = start.elapsed().max(Duration::from_nanos(1));
        let target = Duration::from_millis(1);
        let iters = (target.as_nanos() / one.as_nanos()).clamp(1, 100_000) as u64;
        self.iters_per_sample = iters;
        for _ in 0..self.samples.capacity() {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples.push(t.elapsed());
        }
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(id: &str, sample_size: usize, mut f: F) {
    let mut b = Bencher {
        samples: Vec::with_capacity(sample_size),
        iters_per_sample: 1,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{id:<50} (no samples)");
        return;
    }
    let per_iter = |d: &Duration| d.as_nanos() as f64 / b.iters_per_sample as f64;
    let mean = b.samples.iter().map(per_iter).sum::<f64>() / b.samples.len() as f64;
    let min = b.samples.iter().map(per_iter).fold(f64::INFINITY, f64::min);
    println!(
        "{id:<50} mean {:>12} min {:>12}  ({} samples x {} iters)",
        format_ns(mean),
        format_ns(min),
        b.samples.len(),
        b.iters_per_sample
    );
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Collects benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups.
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
    fn bench_function_runs() {
        let mut c = Criterion::default();
        let mut calls = 0u64;
        c.bench_function("noop", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        assert!(calls > 0);
    }

    #[test]
    fn group_api_shapes() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3).measurement_time(Duration::from_millis(1));
        g.bench_function("f", |b| b.iter(|| black_box(1 + 1)));
        g.bench_with_input(BenchmarkId::new("with", 7), &7u32, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        g.finish();
    }
}
