//! Order statistics for timing samples.
//!
//! Timings are reported as a median with quartiles; a tail percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a timing may be reported at, ascending.
pub const PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Sum that is +0 for an empty slice (`Iterator::sum` gives −0).
pub fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |acc, v| acc + v)
}

/// The fastest (smallest) sample; infinite for an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median (mean of the two middle samples for an even count); 0 for an
/// empty slice so a workload that does not exercise a layer reports 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the rule the driver's
/// spread check uses). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| -> f64 {
        // Exclusive method: position i*(n+1)/4, 1-based, clamped.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Nearest-rank percentile `p` (0–100) of the samples; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p).max(1) - 1]
}

/// Nearest rank of percentile `p` among `n` samples, `ceil(p·n/100)`, in
/// integer arithmetic (`p` has at most one decimal).
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).min(n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of [`PERCENTILES`] that `n` samples support, i.e. that
/// leaves at least [`MIN_BEYOND`] samples beyond it. `None` when even
/// the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(sum(&[]).to_bits(), 0.0f64.to_bits(), "+0, not -0");
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).expect("ten samples");
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).expect("two samples");
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(2_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(samples_beyond(2_000, 99.0), 20);
    }
}
