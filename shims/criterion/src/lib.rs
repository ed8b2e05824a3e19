//! Offline stand-in for `criterion`.
//!
//! Provides the macro and builder surface the filterwatch benches use —
//! `criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! `Bencher::iter`/`iter_batched`, `BatchSize`, `black_box` — backed by
//! a simple warmup-plus-measure loop that prints median ns/iter. No
//! statistical analysis, plots or HTML reports.

// A bench harness times on the wall clock and reads its smoke and
// output toggles from the environment; nothing it measures feeds a
// simulation.
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How a batched setup's cost relates to the routine (ignored by the
/// shim; batches are always rebuilt per iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Declared per-iteration work volume, used to report a throughput
/// figure (records/sec or bytes/sec) alongside the median latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Each iteration processes this many logical elements (records).
    Elements(u64),
    /// Each iteration processes this many bytes.
    Bytes(u64),
}

impl Throughput {
    /// Render `amount / median_ns` as a human-readable rate.
    fn rate(&self, median_ns: u64) -> String {
        let (amount, unit) = match self {
            Throughput::Elements(n) => (*n, "elem"),
            Throughput::Bytes(n) => (*n, "B"),
        };
        if median_ns == 0 {
            return format!("inf {unit}/s");
        }
        let per_sec = amount as f64 * 1e9 / median_ns as f64;
        if per_sec >= 1e6 {
            format!("{:.3} M{unit}/s", per_sec / 1e6)
        } else if per_sec >= 1e3 {
            format!("{:.3} K{unit}/s", per_sec / 1e3)
        } else {
            format!("{per_sec:.1} {unit}/s")
        }
    }
}

/// Benchmark harness entry point.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // Smoke mode (CI): shrink the loop so every bench still runs
        // end-to-end — catching panics and determinism regressions —
        // without paying for statistically meaningful timings. The
        // builder methods clamp to these limits too, so a bench's own
        // config cannot talk its way back into a long run.
        if std::env::var_os("FILTERWATCH_BENCH_SMOKE").is_some() {
            return Criterion {
                sample_size: 3,
                measurement_time: Duration::from_millis(50),
                warm_up_time: Duration::from_millis(10),
                smoke: true,
            };
        }
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
            smoke: false,
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = if self.smoke {
            self.sample_size
        } else {
            n.max(2)
        };
        self
    }

    /// Target wall time spent measuring each benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d.min(self.measurement_time_cap());
        self
    }

    /// Target wall time spent warming up each benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = if self.smoke {
            self.warm_up_time.min(d)
        } else {
            d
        };
        self
    }

    fn measurement_time_cap(&self) -> Duration {
        if self.smoke {
            self.measurement_time
        } else {
            Duration::MAX
        }
    }

    /// Run one benchmark and print its median time per iteration.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (median, n) = self.measure(f);
        println!("bench: {name:<40} {median:>12} ns/iter (n={n})");
        record_result(name, median);
        self
    }

    /// Start a named group of related benchmarks. The group can declare
    /// a per-iteration [`Throughput`], which adds a records/sec (or
    /// bytes/sec) column to every bench it runs.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }

    /// Warmup, calibrate, and collect timed samples for one routine.
    fn measure<F>(&mut self, mut f: F) -> (u64, usize)
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: Vec::new(),
            iters_per_sample: 1,
            budget: self.warm_up_time,
            warmup: true,
        };
        // Warmup pass: also calibrates iterations per sample.
        f(&mut bencher);
        bencher.warmup = false;
        bencher.budget = self.measurement_time;
        bencher.samples.clear();
        let mut runs = 0usize;
        while bencher.samples.len() < self.sample_size && runs < self.sample_size * 4 {
            f(&mut bencher);
            runs += 1;
        }
        let mut samples = bencher.samples;
        samples.sort_unstable();
        let median = samples.get(samples.len() / 2).copied().unwrap_or(0);
        (median, samples.len())
    }

    /// Run all registered groups (used by `criterion_main!`).
    pub fn final_summary(&self) {}
}

/// A group of benchmarks sharing a name prefix and an optional
/// throughput declaration (see [`Criterion::benchmark_group`]).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare how much work one iteration of subsequent benches does.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark in the group, printing `group/name`, median
    /// ns/iter and — when a throughput is declared — the implied rate.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (median, n) = self.criterion.measure(f);
        let full = format!("{}/{}", self.name, name);
        match self.throughput {
            Some(t) => println!(
                "bench: {full:<40} {median:>12} ns/iter  {:>14} (n={n})",
                t.rate(median)
            ),
            None => println!("bench: {full:<40} {median:>12} ns/iter (n={n})"),
        }
        record_result(&full, median);
        self
    }

    /// End the group (parity with the real criterion API).
    pub fn finish(self) {}
}

/// When `FILTERWATCH_BENCH_OUT` names a file, append one
/// `name\tmedian_ns` line per finished benchmark. The bench-regression
/// gate (`bench_gate` in filterwatch-bench) reads these lines back and
/// compares them against the checked-in BENCH_*.json baselines. Write
/// failures are reported on stderr but never fail the bench run itself.
fn record_result(name: &str, median_ns: u64) {
    use std::io::Write;
    let Some(path) = std::env::var_os("FILTERWATCH_BENCH_OUT") else {
        return;
    };
    let opened = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path);
    let written = opened.and_then(|mut f| writeln!(f, "{name}\t{median_ns}"));
    if let Err(e) = written {
        eprintln!(
            "criterion shim: cannot record to {}: {e}",
            path.to_string_lossy()
        );
    }
}

/// Passed to each benchmark closure; runs and times the routine.
pub struct Bencher {
    samples: Vec<u64>,
    iters_per_sample: u64,
    budget: Duration,
    warmup: bool,
}

impl Bencher {
    /// Time `routine` repeatedly.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        if self.warmup {
            // Calibrate so one sample is roughly 1ms of work.
            let start = Instant::now();
            let mut iters: u64 = 0;
            while start.elapsed() < self.budget.min(Duration::from_millis(50)) {
                black_box(routine());
                iters += 1;
            }
            self.iters_per_sample = (iters / 50).max(1);
            return;
        }
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            black_box(routine());
        }
        let elapsed = start.elapsed();
        self.samples
            .push((elapsed.as_nanos() / u128::from(self.iters_per_sample)) as u64);
    }

    /// Time `routine` over inputs built by `setup`; setup cost is not
    /// included in the measurement. As with real criterion, the
    /// routine's outputs are collected and dropped *outside* the timed
    /// region — a routine returning a large structure (say, a rebuilt
    /// index) is not billed for tearing it down.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if self.warmup {
            black_box(routine(setup()));
            self.iters_per_sample = 1;
            return;
        }
        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        let mut outputs = Vec::with_capacity(self.iters_per_sample.max(1) as usize);
        for _ in 0..self.iters_per_sample.max(1) {
            let input = setup();
            let start = Instant::now();
            outputs.push(black_box(routine(input)));
            total += start.elapsed();
            iters += 1;
        }
        drop(outputs);
        self.samples
            .push((total.as_nanos() / u128::from(iters.max(1))) as u64);
    }
}

/// Define a benchmark group. Supports both the positional form
/// `criterion_group!(benches, f, g)` and the config form
/// `criterion_group!{ name = benches; config = expr; targets = f, g }`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!{
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Define the benchmark binary's `main` running the given groups.
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

    fn tiny_bench(c: &mut Criterion) {
        c.bench_function("shim_smoke", |b| b.iter(|| black_box(1u64) + 1));
        c.bench_function("shim_batched", |b| {
            b.iter_batched(
                || vec![1u32; 16],
                |v| v.iter().sum::<u32>(),
                BatchSize::SmallInput,
            )
        });
    }

    #[test]
    fn harness_runs() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(50))
            .warm_up_time(Duration::from_millis(10));
        tiny_bench(&mut c);
    }

    #[test]
    fn grouped_bench_with_throughput_runs() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("group");
        group.throughput(Throughput::Elements(128));
        group.bench_function("summed", |b| b.iter(|| (0..128u32).sum::<u32>()));
        group.finish();
    }

    #[test]
    fn throughput_rate_formats() {
        assert_eq!(Throughput::Elements(1_000).rate(1_000_000), "1.000 Melem/s");
        assert_eq!(Throughput::Bytes(500).rate(1_000_000_000), "500.0 B/s");
        assert_eq!(Throughput::Elements(10).rate(0), "inf elem/s");
    }
}
