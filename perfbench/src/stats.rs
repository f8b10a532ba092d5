//! Small statistics helpers shared by the timed and traced modes.

use gbooster_telemetry::HistogramSnapshot;

/// Median of `values` (the mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value, both bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `q`-quantile of a latency histogram, interpolated linearly
/// inside the bucket that holds it (the rule Prometheus'
/// `histogram_quantile` uses).
///
/// [`HistogramSnapshot::quantile`] returns the bucket's upper bound,
/// so a quantile that stays in one bucket reads the same for every
/// seed. The interpolation uses only the snapshot's public queries:
/// the bucket's upper bound from `quantile`, and its lower bound and
/// population from `count_over`, which is constant across one bucket.
pub fn interpolated_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let upper = h.quantile(q);
    let above = h.count_over(upper);
    // Smallest value in the same bucket as `upper`: `count_over` is
    // non-increasing and equals `above` exactly on that bucket.
    let (mut lo, mut hi) = (0u64, upper);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if h.count_over(mid) == above {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let lower = lo.max(h.min());
    let in_bucket = if lo == 0 {
        n - above
    } else {
        h.count_over(lo - 1) - above
    };
    let below = n - above - in_bucket;
    let rank = (q * n as f64).max(1.0);
    let frac = ((rank - below as f64) / in_bucket as f64).clamp(0.0, 1.0);
    lower as f64 + (upper - lower) as f64 * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn interpolation_stays_inside_the_bucket_and_tracks_the_samples() {
        let mut h = HistogramSnapshot::default();
        for v in 5_000..6_000u64 {
            h.record_one(v);
        }
        let p50 = interpolated_quantile(&h, 0.5);
        assert!((p50 - 5_500.0).abs() < 200.0, "p50 {p50}");
        assert!(p50 <= h.quantile(0.5) as f64);
        let p99 = interpolated_quantile(&h, 0.99);
        assert!(p99 > p50 && p99 <= 5_999.0, "p99 {p99}");
    }

    #[test]
    fn exact_region_is_exact() {
        let mut h = HistogramSnapshot::default();
        for v in 1..=100u64 {
            h.record_one(v);
        }
        assert_eq!(interpolated_quantile(&h, 0.5), 50.0);
    }
}
