//! What one workload run measures: phases with request counts and latency
//! histograms, throughput windows, CPU cost, and the workload-specific
//! numbers that are reported but not gated.

use crate::hist::Histogram;
use crate::model::Model;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Throughput is the median over this many equal windows of a phase.
pub const WINDOWS: usize = 10;

/// Untimed warm-up before every measured run.
pub const WARMUP: Duration = Duration::from_secs(1);

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `rows_per_s` or `rate16k.p99_us`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `us` or `rows/s`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Open-loop generator bookkeeping.
#[derive(Clone)]
pub struct OpenLoop {
    /// Scheduled gap between two sends, microseconds.
    pub interval_us: f64,
    /// How late each send left relative to its due time.
    pub late: Histogram,
}

/// One measured phase of a workload.
#[derive(Clone)]
pub struct Phase {
    /// Phase name (`rate4k`, `saturation`, `batches`, ...).
    pub name: &'static str,
    /// Measured wall time, seconds.
    pub seconds: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered with a report equal to the reference.
    pub ok: u64,
    /// Requests refused, shed, timed out, lost, or answered wrongly.
    pub failed: u64,
    /// Rows one request carries (1 for single-row requests).
    pub rows_per_request: u64,
    /// Per-request latency.
    pub latency: Histogram,
    /// Rows per second in each of [`WINDOWS`] equal windows.
    pub window_rates: Vec<f64>,
    /// Present for open-loop phases.
    pub open_loop: Option<OpenLoop>,
}

impl Phase {
    /// An open-loop phase is invalid when its generator's p99 lateness
    /// exceeds the send interval: the load it claims was not offered.
    pub fn valid(&self) -> bool {
        self.open_loop
            .as_ref()
            .is_none_or(|open| open.late.quantile_us(0.99) <= open.interval_us)
    }

    /// Median of the window throughputs.
    pub fn rows_per_s(&self) -> f64 {
        median(&self.window_rates)
    }

    /// p50 and the supported tail of this phase's latency, prefixed with
    /// the phase name, with sample counts.
    pub fn latency_metrics(&self, prefix: &str) -> Vec<Metric> {
        let mut out = vec![Metric::new(
            format!("{prefix}p50_us"),
            self.latency.quantile_us(0.5),
            "us",
        )];
        if let Some((tail, label)) = self.latency.supported_tail() {
            out.push(Metric::new(
                format!("{prefix}{label}_us"),
                self.latency.quantile_us(tail),
                "us",
            ));
        }
        out.push(Metric::new(
            format!("{prefix}samples"),
            self.latency.count() as f64,
            "count",
        ));
        out
    }
}

/// Counts rows into [`WINDOWS`] equal time windows. A window's rate is
/// its rows over the exact time from the previous window's last
/// completion to its own, so completions quantised to whole batches do not
/// quantise the rate.
#[derive(Clone)]
pub struct Windows {
    start: Instant,
    width: Duration,
    rows: [u64; WINDOWS],
    last: [Option<Instant>; WINDOWS],
}

impl Windows {
    /// Windows tiling `duration` from `start`.
    pub fn new(start: Instant, duration: Duration) -> Windows {
        Windows {
            start,
            width: duration / WINDOWS as u32,
            rows: [0; WINDOWS],
            last: [None; WINDOWS],
        }
    }

    /// Counts `rows` completed at `at` (late completions land in the last
    /// window).
    pub fn add(&mut self, at: Instant, rows: u64) {
        let offset = at.saturating_duration_since(self.start).as_nanos();
        let index = ((offset / self.width.as_nanos().max(1)) as usize).min(WINDOWS - 1);
        self.rows[index] += rows;
        self.last[index] = self.last[index].max(Some(at));
    }

    /// Adds another window set counted over the same span.
    pub fn merge(&mut self, other: &Windows) {
        for i in 0..WINDOWS {
            self.rows[i] += other.rows[i];
            self.last[i] = self.last[i].max(other.last[i]);
        }
    }

    /// Rows per second in each window (0 for a window with no completion).
    pub fn rates(&self) -> Vec<f64> {
        let mut previous = self.start;
        (0..WINDOWS)
            .map(|i| match self.last[i] {
                Some(last) if last > previous => {
                    let rate = self.rows[i] as f64 / (last - previous).as_secs_f64();
                    previous = last;
                    rate
                }
                _ => 0.0,
            })
            .collect()
    }
}

/// Median of a sample (0 when empty); floats ordered by `total_cmp`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, the spread the benchmark's
/// run-to-run steadiness is judged by. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Everything one measured run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// The measured phases, in order.
    pub phases: Vec<Phase>,
    /// Gated: rows per second.
    pub rows_per_s: f64,
    /// Gated: the workload's headline request latency median, µs.
    pub p50_us: f64,
    /// Gated: process CPU per served row, µs (load generator excluded).
    pub cpu_us_per_row: f64,
    /// Reported alongside, not gated.
    pub reported: Vec<Metric>,
    /// Requests attempted, warm-up included.
    pub attempted: u64,
    /// Requests failed or answered wrongly, warm-up included.
    pub failed: u64,
}

/// A workload: set up from a seed, then measured for a duration.
pub trait Workload: Sized {
    /// Generates inputs, fits, deploys and binds: everything from the seed
    /// to the first measured request.
    fn setup(seed: u64) -> Self;

    /// The trained model and request pool behind the workload.
    fn model(&self) -> &Model;

    /// Runs the 1 s warm-up, then measures for `seconds`. With a tracer,
    /// the sampled requests' spans are recorded into it.
    fn measure(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Outcome;
}

/// Rows the fleet shed, and tiles its deadline flusher drained because no
/// caller did, since set-up, summed over replicas.
pub fn supervision_metrics(fleet: &hmd_serve::ShardedFleet, endpoint: &str) -> Vec<Metric> {
    let health = fleet.replica_health(endpoint).unwrap_or_default();
    let shed: u64 = health
        .iter()
        .map(|h| h.shed_overload + h.shed_circuit)
        .sum();
    let expired: u64 = health.iter().map(|h| h.expired_flushes).sum();
    vec![
        Metric::new("serve.shed_rows", shed as f64, "count"),
        Metric::new("serve.expired_flushes", expired as f64, "count"),
    ]
}

/// CPU seconds the process spent between two readings, minus what the
/// load generator's own threads spent.
pub fn served_cpu_s(process_before: f64, process_after: f64, generator_s: f64) -> f64 {
    (process_after - process_before - generator_s).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn window_rates_use_exact_completion_times() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let mut windows = Windows::new(start, Duration::from_secs(10));
        windows.add(at(500), 10);
        windows.add(at(1000), 10);
        windows.add(at(1500), 30);
        windows.add(at(4500), 60);
        windows.add(at(60_000), 1);
        let zero = 0.0;
        assert_eq!(
            windows.rates(),
            vec![
                20.0,
                40.0,
                zero,
                zero,
                20.0,
                zero,
                zero,
                zero,
                zero,
                1.0 / 55.5
            ]
        );
    }
}
