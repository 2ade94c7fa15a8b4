//! Measurement utilities: counters, binned time series, rate meters and
//! log-bucket histograms.
//!
//! These are the building blocks for reproducing the paper's figures:
//! Fig 1b (retransmission ratio over time) and Fig 1c (sending rate over
//! time) are [`TimeSeries`] of ratios/rates binned on simulated time;
//! Fig 1d and Fig 5 are scalar summaries.

use crate::time::{Nanos, TimeDelta};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A time series that accumulates samples into fixed-width time bins.
///
/// Each bin stores a sum and a sample count, so the caller can extract
/// per-bin means (e.g. average sending rate per 10 µs window).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin_width: TimeDelta,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// A series with the given bin width.
    pub fn new(bin_width: TimeDelta) -> Self {
        assert!(bin_width.as_nanos() > 0, "bin width must be positive");
        TimeSeries {
            bin_width,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Record `value` at time `at`.
    pub fn record(&mut self, at: Nanos, value: f64) {
        let bin = (at.as_nanos() / self.bin_width.as_nanos()) as usize;
        if bin >= self.sums.len() {
            self.sums.resize(bin + 1, 0.0);
            self.counts.resize(bin + 1, 0);
        }
        self.sums[bin] += value;
        self.counts[bin] += 1;
    }

    /// Bin width.
    pub fn bin_width(&self) -> TimeDelta {
        self.bin_width
    }

    /// Number of bins (including empty interior bins).
    pub fn num_bins(&self) -> usize {
        self.sums.len()
    }

    /// Mean of samples in bin `i`, or `None` for empty bins.
    pub fn bin_mean(&self, i: usize) -> Option<f64> {
        match self.counts.get(i) {
            Some(&c) if c > 0 => Some(self.sums[i] / c as f64),
            _ => None,
        }
    }

    /// `(bin_start_time, mean)` pairs for all non-empty bins.
    pub fn means(&self) -> Vec<(Nanos, f64)> {
        (0..self.num_bins())
            .filter_map(|i| {
                self.bin_mean(i)
                    .map(|m| (Nanos(i as u64 * self.bin_width.as_nanos()), m))
            })
            .collect()
    }

    /// Overall mean across all samples.
    pub fn overall_mean(&self) -> Option<f64> {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return None;
        }
        Some(self.sums.iter().sum::<f64>() / total as f64)
    }
}

/// Converts byte deliveries over time into a throughput series (bits/s).
///
/// Bytes recorded in each bin are divided by the bin duration, yielding the
/// average rate within that bin — the standard way throughput-over-time
/// plots (Fig 1c) are produced.
#[derive(Debug, Clone)]
pub struct RateMeter {
    bin_width: TimeDelta,
    bytes: Vec<u64>,
    total_bytes: u64,
    first: Option<Nanos>,
    last: Nanos,
}

impl RateMeter {
    /// A meter with the given bin width.
    pub fn new(bin_width: TimeDelta) -> Self {
        assert!(bin_width.as_nanos() > 0, "bin width must be positive");
        RateMeter {
            bin_width,
            bytes: Vec::new(),
            total_bytes: 0,
            first: None,
            last: Nanos::ZERO,
        }
    }

    /// Record `n` bytes delivered at time `at`.
    pub fn record(&mut self, at: Nanos, n: u64) {
        let bin = (at.as_nanos() / self.bin_width.as_nanos()) as usize;
        if bin >= self.bytes.len() {
            self.bytes.resize(bin + 1, 0);
        }
        self.bytes[bin] += n;
        self.total_bytes += n;
        if self.first.is_none() {
            self.first = Some(at);
        }
        self.last = self.last.max(at);
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// `(bin_start_time, gbps)` for every bin in range (empty bins are 0).
    pub fn series_gbps(&self) -> Vec<(Nanos, f64)> {
        let width_s = self.bin_width.as_secs_f64();
        self.bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                (
                    Nanos(i as u64 * self.bin_width.as_nanos()),
                    (b as f64 * 8.0) / width_s / 1e9,
                )
            })
            .collect()
    }

    /// Mean throughput in Gbit/s between the first and last record.
    pub fn mean_gbps(&self) -> f64 {
        match self.first {
            None => 0.0,
            Some(first) => {
                let span = self.last.since(first).as_secs_f64();
                if span <= 0.0 {
                    0.0
                } else {
                    (self.total_bytes as f64 * 8.0) / span / 1e9
                }
            }
        }
    }
}

/// A histogram with logarithmic buckets, good enough for latency tails.
///
/// Bucket `i` covers `[2^i, 2^(i+1))`; values are `u64` (e.g. nanoseconds).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile `q` in `[0,1]`: upper bound of the bucket that
    /// contains the q-th sample.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.count as f64).ceil() as u64;
        let target = target.max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper edge of bucket i, clamped to observed max.
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn timeseries_bins_and_means() {
        let mut ts = TimeSeries::new(TimeDelta::from_micros(10));
        ts.record(Nanos::from_micros(1), 2.0);
        ts.record(Nanos::from_micros(9), 4.0);
        ts.record(Nanos::from_micros(15), 10.0);
        assert_eq!(ts.num_bins(), 2);
        assert_eq!(ts.bin_mean(0), Some(3.0));
        assert_eq!(ts.bin_mean(1), Some(10.0));
        assert_eq!(ts.overall_mean(), Some(16.0 / 3.0));
    }

    #[test]
    fn timeseries_empty_bins_are_none() {
        let mut ts = TimeSeries::new(TimeDelta::from_micros(1));
        ts.record(Nanos::from_micros(5), 1.0);
        assert_eq!(ts.bin_mean(0), None);
        assert_eq!(ts.bin_mean(5), Some(1.0));
        assert_eq!(ts.means().len(), 1);
    }

    #[test]
    fn rate_meter_gbps() {
        let mut rm = RateMeter::new(TimeDelta::from_micros(1));
        // 12500 bytes in 1 us = 100 Gbps.
        rm.record(Nanos(100), 12_500);
        let series = rm.series_gbps();
        assert_eq!(series.len(), 1);
        assert!((series[0].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rate_meter_mean_spans_first_to_last() {
        let mut rm = RateMeter::new(TimeDelta::from_micros(1));
        rm.record(Nanos::ZERO, 12_500);
        rm.record(Nanos::from_micros(1), 12_500);
        // 25 KB over 1 us -> 200 Gbps (span is first..last).
        assert!((rm.mean_gbps() - 200.0).abs() < 1e-9);
        assert_eq!(rm.total_bytes(), 25_000);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        let p50 = h.quantile(0.5).unwrap();
        assert!((256..=1023).contains(&p50), "p50 bucket edge {p50}");
        assert_eq!(h.quantile(1.0), Some(1000));
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_zero_value() {
        let mut h = LogHistogram::new();
        h.record(0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.quantile(0.5), Some(0));
    }
}
