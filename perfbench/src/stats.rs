//! The arithmetic every reported number goes through: nearest-rank
//! percentiles, medians and per-unit normalisation (span self time lives
//! with the recorder in `trace`).

/// Nearest-rank percentile of `samples` at `per_mille` thousandths
/// (`500` = median). `samples` need not be sorted; an empty slice gives 0.
#[must_use]
pub fn percentile(samples: &[u64], per_mille: u32) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, per_mille)
}

/// [`percentile`] on an already ascending slice.
#[must_use]
pub fn percentile_sorted(sorted: &[u64], per_mille: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Nearest rank: the smallest value with at least p of the samples at or
    // below it.
    let rank = (sorted.len() as u64 * u64::from(per_mille)).div_ceil(1000).max(1);
    sorted[(rank - 1) as usize]
}

/// How many samples lie strictly above the `per_mille` percentile: a tail
/// percentile is worth reporting only with at least ten samples beyond it.
#[must_use]
pub fn beyond(sorted: &[u64], per_mille: u32) -> usize {
    let cut = percentile_sorted(sorted, per_mille);
    sorted.len() - sorted.partition_point(|&v| v <= cut)
}

/// Median of floating-point values (mean of the middle pair for even
/// counts); 0 for an empty slice.
#[must_use]
pub fn median_f64(values: &[f64]) -> f64 {
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

/// Mean of the samples at or below the `per_mille` percentile: a mean
/// that a few preempted outliers cannot move. 0 for an empty slice.
#[must_use]
pub fn trimmed_mean(samples: &[u64], per_mille: u32) -> f64 {
    let cut = percentile(samples, per_mille);
    let kept: Vec<u64> = samples.iter().copied().filter(|&v| v <= cut).collect();
    per_unit(kept.iter().sum(), kept.len() as u64)
}

/// `total` nanoseconds spread over `units` units of work; 0 when no work
/// was done, so an idle layer never divides by zero.
#[must_use]
pub fn per_unit(total_ns: u64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        total_ns as f64 / units as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&samples, 500), 50);
        assert_eq!(percentile(&samples, 900), 90);
        assert_eq!(percentile(&samples, 990), 99);
        assert_eq!(percentile(&samples, 1000), 100);
        assert_eq!(percentile(&samples, 0), 1);
        assert_eq!(percentile(&[7], 990), 7);
        assert_eq!(percentile(&[], 500), 0);
        // Three samples: the median is the second, p90 the third.
        assert_eq!(percentile(&[30, 10, 20], 500), 20);
        assert_eq!(percentile(&[30, 10, 20], 900), 30);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(beyond(&sorted, 990), 10);
        assert_eq!(beyond(&sorted, 900), 100);
        // Ties at the cut are not beyond it.
        assert_eq!(beyond(&[1, 2, 2, 2], 500), 0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_the_outliers_above_the_cut() {
        let mut samples = vec![10; 99];
        samples.push(1_000_000);
        assert_eq!(trimmed_mean(&samples, 990), 10.0);
        assert_eq!(trimmed_mean(&[1, 2, 3, 6], 1000), 3.0);
        assert_eq!(trimmed_mean(&[], 990), 0.0);
    }

    #[test]
    fn per_unit_normalisation() {
        assert_eq!(per_unit(1_000, 4), 250.0);
        assert_eq!(per_unit(5, 0), 0.0);
    }
}
