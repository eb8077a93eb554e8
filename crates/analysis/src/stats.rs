//! Descriptive statistics of repeated measurements and the confidence
//! intervals of the sampling estimators.

/// Summary statistics of a sample of real values.
///
/// Produced by [`Summary::from_values`]; all fields are plain data so reports
/// can format them freely.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean (0.0 for the empty sample).
    pub mean: f64,
    /// Unbiased sample variance (0.0 when `count < 2`).
    pub variance: f64,
    /// Standard deviation, `sqrt(variance)`.
    pub std_dev: f64,
    /// Smallest value (0.0 for the empty sample).
    pub min: f64,
    /// Largest value (0.0 for the empty sample).
    pub max: f64,
    /// Median (0.0 for the empty sample).
    pub median: f64,
}

impl Summary {
    /// Computes the summary of `values`.
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                variance: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
            };
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = if count < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Summary {
            count,
            mean,
            variance,
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median,
        }
    }

    /// Computes the summary of integer values (radii).
    #[must_use]
    pub fn from_integers(values: &[usize]) -> Self {
        let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        Summary::from_values(&as_f64)
    }

    /// Half-width of the 95% confidence interval of the mean,
    /// `t₀.₉₇₅(n−1) · s / √n`.
    ///
    /// The interval assumes the sample mean is approximately normal (exact
    /// for normal data, asymptotic otherwise by the CLT); the Student-t
    /// critical value ([`t_critical_95`]) widens it for small samples, where
    /// the plug-in standard deviation `s` is itself noisy. With fewer than
    /// two observations there are **zero degrees of freedom** — the variance
    /// is not estimable — so the half-width is `f64::INFINITY`, never a
    /// silent `0.0` claiming perfect precision.
    #[must_use]
    pub fn confidence_95(&self) -> f64 {
        if self.count < 2 {
            f64::INFINITY
        } else {
            t_critical_95(self.count - 1) * self.std_dev / (self.count as f64).sqrt()
        }
    }
}

/// Two-sided 95% Student-t critical value (the 0.975 quantile) for `df`
/// degrees of freedom.
///
/// Exact to three decimals for `df ≤ 30`, then a coarse bracket down to the
/// normal limit `1.96` — enough resolution for confidence intervals whose
/// inputs are Monte-Carlo estimates themselves. `df = 0` has no defined
/// critical value and returns `f64::INFINITY`.
#[must_use]
pub fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.96,
    }
}

/// Half-width of the 95% CI of a mean estimated from a **without-replacement**
/// sample of `summary.count` draws out of a population of `population` units:
/// `t₀.₉₇₅(k−1) · √((1 − k/N) · s²/k)`.
///
/// The `(1 − k/N)` factor is the finite population correction — a census
/// (`k ≥ N`) has zero sampling error by construction and returns `0.0`
/// exactly. A non-census sample with fewer than two draws has no estimable
/// variance and returns `f64::INFINITY`.
#[must_use]
pub fn fpc_half_width_95(summary: &Summary, population: usize) -> f64 {
    let k = summary.count;
    if k >= population {
        return 0.0;
    }
    if k < 2 {
        return f64::INFINITY;
    }
    let fpc = 1.0 - k as f64 / population as f64;
    t_critical_95(k - 1) * (fpc * summary.variance / k as f64).sqrt()
}

/// One stratum of a stratified without-replacement sample: the stratum's
/// population size and the [`Summary`] of the values sampled from it.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumStat {
    /// Number of population units in the stratum (`N_h`).
    pub population: usize,
    /// Summary of the `k_h` sampled values from this stratum.
    pub summary: Summary,
}

/// A stratified mean estimate with its combined confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratifiedMean {
    /// The stratified estimator `Σ (N_h/N) · mean_h` of the population mean.
    pub mean: f64,
    /// 95% half-width from the combined stratified variance (see
    /// [`stratified_mean_ci`]).
    pub half_width_95: f64,
}

/// Combines per-stratum sample summaries into the stratified estimate of the
/// population mean and its 95% confidence half-width.
///
/// Estimator: `ŷ = Σ_h W_h · mean_h` with `W_h = N_h / N`. Variance (only
/// within-stratum terms survive — the design removes between-stratum
/// variance): `V̂ = Σ_h W_h² (1 − k_h/N_h) s_h²/k_h`. The critical value is
/// Student-t with the conservative pooled degrees of freedom
/// `Σ_h (k_h − 1)` over strata that contribute variance (fully-sampled
/// strata contribute none). Degenerate designs are gated, not silently
/// zeroed: a non-empty stratum sampled zero times, or sampled once without
/// being a census, makes the half-width `f64::INFINITY`.
///
/// Strata with `population == 0` are ignored. Returns a zero estimate with
/// infinite half-width when every stratum is empty.
#[must_use]
pub fn stratified_mean_ci(strata: &[StratumStat]) -> StratifiedMean {
    let total: usize = strata.iter().map(|s| s.population).sum();
    if total == 0 {
        return StratifiedMean { mean: 0.0, half_width_95: f64::INFINITY };
    }
    let mut mean = 0.0;
    let mut variance = 0.0;
    let mut df = 0usize;
    let mut undefined = false;
    for stratum in strata {
        let n_h = stratum.population;
        if n_h == 0 {
            continue;
        }
        let k_h = stratum.summary.count;
        let w_h = n_h as f64 / total as f64;
        if k_h == 0 {
            undefined = true;
            continue;
        }
        mean += w_h * stratum.summary.mean;
        if k_h >= n_h {
            continue; // census stratum: zero sampling variance, no df needed.
        }
        if k_h < 2 {
            undefined = true;
            continue;
        }
        let fpc = 1.0 - k_h as f64 / n_h as f64;
        variance += w_h * w_h * fpc * stratum.summary.variance / k_h as f64;
        df += k_h - 1;
    }
    let half_width_95 = if undefined {
        f64::INFINITY
    } else if df == 0 {
        0.0 // every stratum was a census.
    } else {
        t_critical_95(df) * variance.sqrt()
    };
    StratifiedMean { mean, half_width_95 }
}

/// Smallest without-replacement sample size whose 95% CI half-width is at
/// most `target_half_width`, for a population of `population` units with
/// (anticipated) standard deviation `std_dev`.
///
/// Solves `1.96 · √((1 − n/N) σ²/n) ≤ h` via the classic two-step: the
/// infinite-population size `n₀ = (1.96 σ / h)²` deflated by the finite
/// population correction, `n = n₀ / (1 + n₀/N)`, rounded up. Clamped to
/// `[2, N]` so the returned size always has estimable variance; a
/// non-positive `target_half_width` demands a census and returns `N`.
#[must_use]
pub fn sample_size_for_half_width(
    std_dev: f64,
    target_half_width: f64,
    population: usize,
) -> usize {
    if population <= 2 {
        return population;
    }
    if target_half_width <= 0.0 {
        return population;
    }
    let n0 = (1.96 * std_dev / target_half_width).powi(2);
    let fpc_adjusted = n0 / (1.0 + n0 / population as f64);
    (fpc_adjusted.ceil() as usize).clamp(2, population)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_simple_sample() {
        let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.variance - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!(s.confidence_95() > 0.0);
    }

    #[test]
    fn summary_of_odd_sample_has_middle_median() {
        let s = Summary::from_values(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn summary_of_empty_and_singleton() {
        // Regression: with zero degrees of freedom the half-width must be
        // infinite — a 0.0 here once let estimators claim perfect precision
        // from a single observation.
        let empty = Summary::from_values(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.confidence_95(), f64::INFINITY);

        let one = Summary::from_values(&[7.0]);
        assert_eq!(one.count, 1);
        assert_eq!(one.mean, 7.0);
        assert_eq!(one.variance, 0.0);
        assert_eq!(one.median, 7.0);
        assert_eq!(one.confidence_95(), f64::INFINITY);
    }

    #[test]
    fn t_critical_widens_small_samples_and_converges_to_normal() {
        assert_eq!(t_critical_95(0), f64::INFINITY);
        assert_eq!(t_critical_95(1), 12.706);
        assert!(t_critical_95(5) > t_critical_95(10));
        assert!(t_critical_95(10) > t_critical_95(30));
        assert_eq!(t_critical_95(200), 1.96);
        // Monotone non-increasing across the whole table.
        for df in 1..130 {
            assert!(t_critical_95(df) >= t_critical_95(df + 1), "df={df}");
        }
    }

    #[test]
    fn fpc_half_width_gates_census_and_degenerate_samples() {
        let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0]);
        // A census has no sampling error at all.
        assert_eq!(fpc_half_width_95(&s, 4), 0.0);
        // A strict sample shrinks with the correction factor.
        let hw10 = fpc_half_width_95(&s, 10);
        let hw1000 = fpc_half_width_95(&s, 1000);
        assert!(hw10 > 0.0 && hw10 < hw1000);
        // hw → t·s/√k as N → ∞.
        let unadjusted = t_critical_95(3) * s.std_dev / 2.0;
        assert!((hw1000 - unadjusted).abs() / unadjusted < 0.01);
        // One draw from a larger population: variance not estimable.
        let one = Summary::from_values(&[7.0]);
        assert_eq!(fpc_half_width_95(&one, 10), f64::INFINITY);
        assert_eq!(fpc_half_width_95(&one, 1), 0.0);
    }

    #[test]
    fn stratified_mean_matches_weighted_means_and_census_is_exact() {
        let strata = [
            StratumStat { population: 30, summary: Summary::from_values(&[1.0, 3.0]) },
            StratumStat { population: 10, summary: Summary::from_values(&[10.0, 14.0]) },
        ];
        let est = stratified_mean_ci(&strata);
        assert!((est.mean - (0.75 * 2.0 + 0.25 * 12.0)).abs() < 1e-12);
        assert!(est.half_width_95.is_finite() && est.half_width_95 > 0.0);

        // Fully-sampled strata: exact estimate, zero half-width.
        let census = [
            StratumStat { population: 2, summary: Summary::from_values(&[1.0, 3.0]) },
            StratumStat { population: 2, summary: Summary::from_values(&[10.0, 14.0]) },
        ];
        let exact = stratified_mean_ci(&census);
        assert!((exact.mean - 7.0).abs() < 1e-12);
        assert_eq!(exact.half_width_95, 0.0);
    }

    #[test]
    fn stratified_mean_gates_unsampled_and_singleton_strata() {
        // A non-empty stratum with no draws cannot be extrapolated.
        let missing = [
            StratumStat { population: 5, summary: Summary::from_values(&[2.0, 4.0]) },
            StratumStat { population: 5, summary: Summary::from_values(&[]) },
        ];
        assert_eq!(stratified_mean_ci(&missing).half_width_95, f64::INFINITY);
        // One draw from a non-census stratum: zero degrees of freedom.
        let singleton = [
            StratumStat { population: 5, summary: Summary::from_values(&[2.0, 4.0]) },
            StratumStat { population: 5, summary: Summary::from_values(&[9.0]) },
        ];
        assert_eq!(stratified_mean_ci(&singleton).half_width_95, f64::INFINITY);
        // Empty strata are ignored entirely.
        let padded = [
            StratumStat { population: 0, summary: Summary::from_values(&[]) },
            StratumStat { population: 4, summary: Summary::from_values(&[1.0, 2.0, 3.0]) },
        ];
        assert!(stratified_mean_ci(&padded).half_width_95.is_finite());
        assert_eq!(stratified_mean_ci(&[]).half_width_95, f64::INFINITY);
    }

    #[test]
    fn sample_size_solver_hits_the_target_half_width() {
        let sigma = 5.0;
        let n = sample_size_for_half_width(sigma, 0.5, 100_000);
        // Check the solved size actually achieves the target (normal z).
        let achieved = 1.96 * sigma * ((1.0 - n as f64 / 100_000.0) / n as f64).sqrt();
        assert!(achieved <= 0.5, "n={n} achieves {achieved}");
        // And is not wastefully large: one fewer draw misses the target.
        let under = 1.96 * sigma * ((1.0 - (n - 1) as f64 / 100_000.0) / (n - 1) as f64).sqrt();
        assert!(under > 0.5, "n={n} is minimal");
        // The FPC caps the demand at a census.
        assert_eq!(sample_size_for_half_width(sigma, 0.0, 50), 50);
        assert_eq!(sample_size_for_half_width(sigma, 1e-9, 50), 50);
        // Zero variance still returns an estimable size.
        assert_eq!(sample_size_for_half_width(0.0, 1.0, 50), 2);
        assert_eq!(sample_size_for_half_width(1.0, 1.0, 2), 2);
    }

    #[test]
    fn summary_from_integers() {
        let s = Summary::from_integers(&[1, 1, 4]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.max, 4.0);
    }
}
