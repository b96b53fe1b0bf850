//! Order statistics for reported timings.
//!
//! A quantile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; below that it would be decided by a handful of outliers.

/// Samples that must lie beyond a reported quantile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank quantile `q ∈ (0, 1)` of `xs`, or `None` unless at
/// least [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200: rank 190, ten samples above.
        assert_eq!(tail_quantile(&xs, 0.95), Some(190.0));
        // p99 of 200: rank 198, only two above.
        assert_eq!(tail_quantile(&xs, 0.99), None);
        // p99 of 1000: rank 990, ten above.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.99), Some(990.0));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.99), None);
        // The median of 20 has exactly ten above it.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.5), Some(10.0));
        assert_eq!(tail_quantile(&xs[..19], 0.5), None);
    }
}
