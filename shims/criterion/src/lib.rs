//! Offline API-subset shim of `criterion`.
//!
//! Supports the `criterion_group!`/`criterion_main!` + `bench_function`
//! surface the workspace's benches use, backed by a plain wall-clock timing
//! loop: one warm-up iteration, then `sample_size` timed iterations, with
//! mean/min/max printed per benchmark. There is no statistical analysis,
//! HTML report, outlier rejection or machine-readable output: the
//! paper-figure benches print their figure and a rough regeneration time,
//! and performance is gated by the repository benchmark (`benchmark/`)
//! instead.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark driver handed to every target of a `criterion_group!`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the number of timed iterations per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    /// Times `routine` and prints a one-line summary.
    pub fn bench_function<F>(&mut self, id: &str, mut routine: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        routine(&mut bencher);
        if bencher.samples.is_empty() {
            println!("{id:<40} (no samples — b.iter was never called)");
            return self;
        }
        let total: Duration = bencher.samples.iter().sum();
        let mean = total / bencher.samples.len() as u32;
        let min = *bencher.samples.iter().min().expect("non-empty");
        let max = *bencher.samples.iter().max().expect("non-empty");
        println!(
            "{id:<40} mean {:>12} min {:>12} max {:>12} ({} samples)",
            fmt_duration(mean),
            fmt_duration(min),
            fmt_duration(max),
            bencher.samples.len(),
        );
        self
    }
}

/// Per-benchmark iteration driver (the `b` in `b.iter(..)`).
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Runs `f` once to warm up, then `sample_size` timed iterations.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        black_box(f()); // warm-up, untimed
        self.samples.clear();
        self.samples.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(f());
            self.samples.push(start.elapsed());
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// Declares a benchmark group: a plain function that runs every target.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench binary's `main`, running every group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_warmup_plus_samples() {
        let mut calls = 0usize;
        Criterion::default()
            .sample_size(5)
            .bench_function("counting", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 6, "1 warm-up + 5 timed iterations");
    }

    #[test]
    fn duration_formatting_covers_all_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert!(fmt_duration(Duration::from_micros(12)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(12)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
