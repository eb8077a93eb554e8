//! The paper's predictions, as executable formulas.
//!
//! Each experiment compares a measured curve against the growth shape the
//! paper proves or cites. This module centralises those reference curves so
//! benches, examples and tests all use the same ones.

use avglocal_analysis::a000788::total_bit_count;
use avglocal_analysis::logstar::{linial_threshold, log_star};
use avglocal_analysis::sequences::expected_random_radius_largest_id;

/// Worst-case (over identifier permutations) **total** radius of the
/// largest-ID algorithm on the `n`-cycle, as bounded in Section 2:
/// `a(n-1) + ⌊n/2⌋` (the segment left after removing the winner, plus the
/// winner's own cost).
#[must_use]
pub fn largest_id_worst_total(n: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    total_bit_count(n as u64 - 1) + (n as u64) / 2
}

/// Worst-case **average** radius of the largest-ID algorithm on the
/// `n`-cycle: [`largest_id_worst_total`] divided by `n`. The paper proves
/// this is `Θ(log n)`.
#[must_use]
pub fn largest_id_worst_average(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    largest_id_worst_total(n) as f64 / n as f64
}

/// Worst-case radius of the largest-ID problem under the classical measure:
/// `⌊n/2⌋` (the winner must see the whole cycle). This is the `Θ(n)` side of
/// the paper's exponential separation.
#[must_use]
pub fn largest_id_worst_case(n: usize) -> usize {
    n / 2
}

/// Expected average radius of the largest-ID algorithm when identifiers are a
/// uniformly random permutation (the Section 4 question): `≈ ½·ln n + O(1)`.
#[must_use]
pub fn largest_id_random_average(n: usize) -> f64 {
    expected_random_radius_largest_id(n as u64)
}

/// The paper's Theorem 1 lower bound on the average radius of 3-colouring
/// the `n`-ring: `Ω(log* n)`, instantiated with the constant of the proof,
/// `½·log*(n/2)`.
#[must_use]
pub fn coloring_average_lower_bound(n: usize) -> f64 {
    f64::from(linial_threshold(n as u64))
}

/// The Cole–Vishkin upper bound on every node's radius for 3-colouring with
/// `bits`-bit identifiers: the number of colour-shrinking iterations plus the
/// three reduction rounds. With 64-bit identifiers this is 7.
#[must_use]
pub fn cole_vishkin_upper_bound(bits: u32) -> usize {
    avglocal_algorithms::cole_vishkin::cv_iterations_for_bits(bits) + 3
}

/// `log*` of `n`, re-exported for plotting convenience.
#[must_use]
pub fn log_star_of(n: usize) -> u32 {
    log_star(n as u64)
}

/// A single theory-versus-measurement comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Instance size.
    pub n: usize,
    /// The value the paper's analysis predicts.
    pub predicted: f64,
    /// The value the simulator measured.
    pub measured: f64,
}

impl Comparison {
    /// Ratio `measured / predicted` (`NaN` when the prediction is 0).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.measured / self.predicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_total_small_values() {
        // a(n-1) + n/2 for n = 4: a(3) = 4, plus 2.
        assert_eq!(largest_id_worst_total(4), 6);
        assert_eq!(largest_id_worst_total(5), 7);
        assert_eq!(largest_id_worst_total(0), 0);
        assert_eq!(largest_id_worst_total(1), 0);
    }

    #[test]
    fn worst_average_is_logarithmic() {
        let a1k = largest_id_worst_average(1 << 10);
        let a1m = largest_id_worst_average(1 << 20);
        // Doubling the exponent roughly doubles the average (Θ(log n)).
        assert!(a1m / a1k > 1.7 && a1m / a1k < 2.3, "ratio {}", a1m / a1k);
        // And it is exponentially smaller than the worst case.
        assert!(a1m < largest_id_worst_case(1 << 20) as f64 / 1000.0);
    }

    #[test]
    fn random_average_is_below_worst_average() {
        for k in [6u32, 10, 14] {
            let n = 1usize << k;
            assert!(largest_id_random_average(n) <= largest_id_worst_average(n));
        }
    }

    #[test]
    fn coloring_bound_and_upper_bound() {
        assert!(coloring_average_lower_bound(1 << 16) >= 2.0);
        assert!(coloring_average_lower_bound(16) >= 1.0);
        assert_eq!(cole_vishkin_upper_bound(64), 7);
        assert_eq!(cole_vishkin_upper_bound(8), 6);
        // The upper bound dominates the lower bound for every realistic n.
        for k in [4u32, 8, 16, 20] {
            let n = 1usize << k;
            assert!(cole_vishkin_upper_bound(64) as f64 >= coloring_average_lower_bound(n));
        }
    }

    #[test]
    fn log_star_wrapper() {
        assert_eq!(log_star_of(65_536), 4);
        assert_eq!(log_star_of(16), 3);
    }

    #[test]
    fn comparison_ratios() {
        let c = Comparison { n: 100, predicted: 4.0, measured: 5.0 };
        assert!((c.ratio() - 1.25).abs() < 1e-12);
        let zero = Comparison { n: 10, predicted: 0.0, measured: 0.0 };
        assert!(zero.ratio().is_nan());
    }
}
