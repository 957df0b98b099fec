//! Constant-memory latency recorder shared by every workload.
//!
//! A log-linear histogram in the HdrHistogram style (Gil Tene): values below
//! 256 ns get one bucket each, larger values fall into 128 linear
//! sub-buckets per power of two. Any value is therefore kept to within
//! 1/128 (< 0.8 %) of itself, and the bucket array has a fixed size no
//! matter how many samples arrive — unlike a `Vec<Duration>` of samples,
//! which would grow to tens of megabytes over a multi-million-row run and
//! show up in the peak-RSS metric it is supposed to help measure.

use std::time::Duration;

/// Sub-bucket resolution: 2^7 linear buckets per power of two.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this get exact unit buckets.
const LINEAR: u64 = 2 * SUB;
/// Enough buckets to index any `u64`.
const BUCKETS: usize = (LINEAR + (64 - (SUB_BITS as u64 + 1)) * SUB) as usize;

/// A fixed-size latency histogram over nanosecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < LINEAR {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros() as u64; // >= SUB_BITS + 1
        let mantissa = value >> (exp - SUB_BITS as u64); // in [SUB, 2 * SUB)
        (LINEAR + (exp - SUB_BITS as u64 - 1) * SUB + (mantissa - SUB)) as usize
    }

    /// Lower bound and width of bucket `index`.
    fn bucket(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < LINEAR {
            return (index, 1);
        }
        let k = index - LINEAR;
        let shift = k / SUB + 1;
        ((SUB + k % SUB) << shift, 1 << shift)
    }

    /// Records one value in nanoseconds.
    pub fn record_ns(&mut self, value: u64) {
        self.counts[Histogram::index(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Records one duration.
    pub fn record(&mut self, value: Duration) {
        self.record_ns(u64::try_from(value.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in nanoseconds, interpolated linearly
    /// inside its bucket so that two runs rarely read the same value to the
    /// last digit. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (seen + count) as f64 > rank {
                let (lower, width) = Histogram::bucket(index);
                let within = (rank - seen as f64 + 0.5) / count as f64;
                let value = lower as f64 + within * width as f64;
                return value.min(self.max as f64);
            }
            seen += count;
        }
        self.max as f64
    }

    /// The `q`-quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    /// The highest of p999, p99 and p90 that still has at least ten samples
    /// beyond it (the tail the sample size supports), with its label.
    pub fn supported_tail(&self) -> Option<(f64, &'static str)> {
        [(0.999, "p999"), (0.99, "p99"), (0.9, "p90")]
            .into_iter()
            .find(|(q, _)| (1.0 - q) * self.total as f64 >= 10.0)
    }

    /// Bytes the bucket array occupies on the heap.
    #[cfg(test)]
    pub fn heap_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::splitmix;

    #[test]
    fn buckets_tile_the_value_range() {
        for value in (0..5000u64).chain([1 << 20, (1 << 40) + 12345, u64::MAX]) {
            let (lower, width) = Histogram::bucket(Histogram::index(value));
            assert!(lower <= value, "{value} below its bucket {lower}");
            assert!(
                value - lower < width,
                "{value} past its bucket {lower}+{width}"
            );
        }
        assert_eq!(Histogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_one_percent_of_exact() {
        let mut state = 2021;
        let mut exact = Vec::new();
        let mut hist = Histogram::new();
        for _ in 0..200_000 {
            // Log-uniform over 100 ns .. 100 ms: every bucket regime.
            let unit = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let value = (100.0 * 1e6f64.powf(unit)) as u64;
            exact.push(value as f64);
            hist.record_ns(value);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let truth = exact[(q * (exact.len() - 1) as f64).round() as usize];
            let estimate = hist.quantile_ns(q);
            let error = (estimate - truth).abs() / truth;
            assert!(error < 0.01, "q{q}: {estimate} vs exact {truth} ({error})");
        }
    }

    #[test]
    fn memory_stays_flat_as_samples_grow() {
        let mut hist = Histogram::new();
        let before = hist.heap_bytes();
        let mut state = 7;
        for _ in 0..2_000_000 {
            hist.record_ns(splitmix(&mut state) >> (splitmix(&mut state) % 64));
        }
        assert_eq!(hist.heap_bytes(), before);
        assert!(before < 64 * 1024, "bucket array is {before} bytes");
        assert_eq!(hist.count(), 2_000_000);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..1000 {
            a.record_ns(v);
            b.record_ns(v + 1000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        let median = a.quantile_ns(0.5);
        assert!((median - 1000.0).abs() < 10.0, "median {median}");
    }
}
