//! Order statistics over per-operation samples.
//!
//! Percentiles use the nearest-rank definition: the smallest sample with at
//! least `q·n` samples at or below it. Every reported quantile is therefore
//! a measured value, never an interpolation or a histogram bucket bound.

/// Nearest-rank percentile, `q` in `(0, 1]`. Panics on an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// True when at least ten samples lie above the `q` percentile, the least
/// tail a reported high percentile must rest on.
pub fn tail_is_backed(n: usize, q: f64) -> bool {
    n >= 10 && n - (q * n as f64).ceil() as usize >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[-1.0, 10.0]), 4.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.9), 90.0);
        assert_eq!(percentile(&[7.0, 7.0, 1.0], 0.5), 7.0);
    }

    #[test]
    fn tail_backing_needs_ten_samples_beyond() {
        assert!(!tail_is_backed(99, 0.9));
        assert!(tail_is_backed(100, 0.9));
        assert!(!tail_is_backed(9, 0.5));
        assert!(tail_is_backed(20, 0.5));
    }
}
