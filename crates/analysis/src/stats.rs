//! Statistics over `f64` samples: the streaming [`OnlineStats`]
//! accumulator (Welford update, Chan merge) the campaign reducer folds
//! thousand-seed cells into, 95 % confidence intervals and the exact
//! paired sign test.

/// Streaming moment accumulator: count, mean, centred second moment
/// (M2), min and max — O(1) memory whatever the sample count.
///
/// `record` is Welford's update; [`merge`](Self::merge) is Chan's
/// parallel combination, mathematically associative, so per-shard
/// partials folded in a *fixed* order reproduce the same bits whatever
/// the worker count that produced them (the campaign reducer's
/// determinism contract). Merging in a different order is still correct
/// to ~1 ulp but not bit-identical — fix the fold order, not the
/// thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineStats {
    /// Samples recorded.
    pub count: u64,
    /// Running mean (0 when empty).
    pub mean: f64,
    /// Sum of squared deviations from the mean (Welford's M2).
    pub m2: f64,
    /// Smallest sample (+∞ when empty).
    pub min: f64,
    /// Largest sample (−∞ when empty).
    pub max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample (Welford's update).
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Fold `other` into `self` (Chan's parallel merge).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.mean += d * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Unbiased sample variance (`None` below two samples).
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count >= 2).then(|| (self.m2 / (self.count - 1) as f64).max(0.0))
    }

    /// Sample standard deviation (`None` below two samples).
    pub fn std_dev(&self) -> Option<f64> {
        self.sample_variance().map(f64::sqrt)
    }

    /// Standard error of the mean (`None` below two samples).
    pub fn sem(&self) -> Option<f64> {
        self.std_dev().map(|s| s / (self.count as f64).sqrt())
    }

    /// Two-sided 95 % confidence interval for the mean, using the
    /// Student-t critical value at `count − 1` degrees of freedom.
    /// `None` below two samples.
    pub fn ci95(&self) -> Option<(f64, f64)> {
        let half = t_critical_975(self.count - 1) * self.sem()?;
        Some((self.mean - half, self.mean + half))
    }
}

/// Two-sided 97.5 % Student-t critical value at `df` degrees of
/// freedom (the multiplier for a 95 % CI). Exact table through df 30,
/// conventional anchors beyond; df 0 (a single sample) returns +∞ —
/// one observation pins no interval.
pub fn t_critical_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df as usize - 1],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// Exact two-sided sign test: p-value of observing a split at least as
/// lopsided as `pos` vs `neg` under H₀ "positive and negative flips
/// are equally likely" (ties excluded by the caller). `None` when
/// there are no flips at all.
///
/// Computed as `2 · P(X ≤ min(pos, neg))` for `X ~ Bin(pos+neg, ½)`,
/// capped at 1, via log-space binomial terms — exact to f64 and
/// overflow-free for thousand-seed campaigns.
pub fn sign_test_two_sided(pos: u64, neg: u64) -> Option<f64> {
    let n = pos + neg;
    if n == 0 {
        return None;
    }
    let k = pos.min(neg);
    let ln_2n = n as f64 * std::f64::consts::LN_2;
    let mut ln_choose = 0.0; // ln C(n, 0)
    let mut cdf = 0.0;
    for i in 0..=k {
        cdf += (ln_choose - ln_2n).exp();
        ln_choose += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    Some((2.0 * cdf).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_the_batch_summary() {
        let samples = [3.5, -1.0, 2.25, 9.0, 0.5, 4.75, -2.0];
        let mut o = OnlineStats::new();
        for &x in &samples {
            o.record(x);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let pop_var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert_eq!(o.count as usize, samples.len());
        assert!((o.mean - mean).abs() < 1e-12);
        assert_eq!(o.min, -2.0);
        assert_eq!(o.max, 9.0);
        assert!((o.m2 / n - pop_var).abs() < 1e-12);
        assert!(o.sample_variance().unwrap() > pop_var);
    }

    #[test]
    fn online_merge_equals_single_pass() {
        let samples: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 50.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &samples {
            whole.record(x);
        }
        let mut merged = OnlineStats::new();
        for chunk in samples.chunks(7) {
            let mut part = OnlineStats::new();
            for &x in chunk {
                part.record(x);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        assert!((merged.mean - whole.mean).abs() < 1e-9);
        assert!((merged.m2 - whole.m2).abs() < 1e-6);
        // Merging an empty accumulator is a no-op in both directions.
        let before = merged.clone();
        merged.merge(&OnlineStats::new());
        assert_eq!(merged, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn ci95_shrinks_with_samples_and_needs_two() {
        let mut one = OnlineStats::new();
        one.record(5.0);
        assert_eq!(one.ci95(), None);

        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        for i in 0..5 {
            small.record(10.0 + (i % 2) as f64);
        }
        for i in 0..500 {
            large.record(10.0 + (i % 2) as f64);
        }
        let (slo, shi) = small.ci95().unwrap();
        let (llo, lhi) = large.ci95().unwrap();
        assert!(slo < small.mean && small.mean < shi);
        assert!(lhi - llo < shi - slo, "more samples, tighter interval");
    }

    #[test]
    fn t_table_is_monotone_toward_the_normal_quantile() {
        let mut prev = f64::INFINITY;
        for df in 1..=200 {
            let t = t_critical_975(df);
            assert!(t <= prev, "t must not increase with df");
            assert!(t >= 1.960);
            prev = t;
        }
        assert_eq!(t_critical_975(0), f64::INFINITY);
        assert_eq!(t_critical_975(1_000_000), 1.960);
    }

    #[test]
    fn sign_test_matches_hand_computed_cases() {
        assert_eq!(sign_test_two_sided(0, 0), None);
        // Balanced splits are maximally unsurprising.
        assert_eq!(sign_test_two_sided(5, 5), Some(1.0));
        // n=5, k=0: 2·(1/32) = 0.0625.
        let p = sign_test_two_sided(5, 0).unwrap();
        assert!((p - 0.0625).abs() < 1e-12);
        // Symmetry.
        assert_eq!(sign_test_two_sided(8, 2), sign_test_two_sided(2, 8));
        // A lopsided thousand-flip split is vanishingly unlikely.
        let p = sign_test_two_sided(900, 100).unwrap();
        assert!(p > 0.0 && p < 1e-100, "p = {p}");
    }
}
