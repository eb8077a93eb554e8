//! # avglocal-analysis
//!
//! The mathematical companion of the `avglocal` reproduction of
//! *"Brief Announcement: Average Complexity for the LOCAL Model"*
//! (Feuilloley, PODC 2015): everything the paper proves or cites that can be
//! computed exactly, so simulations can be checked against theory.
//!
//! * [`recurrence`] — the Section 2 recurrence `a(p)` for the worst-case
//!   total radius of the largest-ID algorithm, plus an explicit worst-case
//!   identifier assignment realising it;
//! * [`a000788`] — OEIS A000788 (total 1-bits up to `n`), the closed form of
//!   the same sequence, with its `Θ(n log n)` envelope;
//! * [`logstar`] — the iterated logarithm and power towers behind Linial's
//!   bound and the paper's Theorem 1;
//! * [`sequences`] — harmonic numbers and the expected radius under uniformly
//!   random identifiers (the paper's Section 4 question);
//! * [`stats`] — summary statistics of per-trial values and the confidence
//!   intervals behind the sampling estimators (radius quantiles are not
//!   computed here: every radius quantile is the nearest-rank point of the
//!   core crate's `RadiusCdf`);
//! * [`fit`] — growth-model fitting used by the experiment harness to decide
//!   which asymptotic shape measured curves follow.
//!
//! The crate is dependency-free and purely numeric.
//!
//! # Example
//!
//! ```
//! use avglocal_analysis::{a000788, recurrence};
//!
//! // The paper's recurrence coincides with OEIS A000788.
//! let a = recurrence::segment_worst_totals(64);
//! assert_eq!(a[64], a000788::total_bit_count(64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod a000788;
pub mod fit;
pub mod logstar;
pub mod recurrence;
pub mod sequences;
pub mod stats;

pub use fit::{best_model, fit_scale, rank_models, Fit, GrowthModel};
pub use logstar::{log2_ceil, log2_floor, log_star, tower};
pub use stats::{
    fpc_half_width_95, sample_size_for_half_width, stratified_mean_ci, t_critical_95,
    StratifiedMean, StratumStat, Summary,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The fast A000788 evaluation agrees with the naive sum.
        #[test]
        fn a000788_fast_equals_naive(n in 0u64..5000) {
            prop_assert_eq!(a000788::total_bit_count(n), a000788::total_bit_count_naive(n));
        }

        /// The recurrence value equals A000788 for every length.
        #[test]
        fn recurrence_equals_bit_sums(n in 0usize..300) {
            let a = recurrence::segment_worst_totals(n);
            prop_assert_eq!(a[n], a000788::total_bit_count(n as u64));
        }

        /// log* is monotone and tiny.
        #[test]
        fn log_star_monotone(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(log_star(lo) <= log_star(hi));
            prop_assert!(log_star(hi) <= 5);
        }

        /// The worst-case segment assignment is always a permutation of 0..p.
        #[test]
        fn worst_assignment_is_permutation(p in 0usize..200) {
            let ids = recurrence::worst_case_segment_assignment(p);
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..p as u64).collect::<Vec<_>>());
        }

        /// Summary statistics stay within the sample range.
        #[test]
        fn summary_bounds(values in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let s = Summary::from_values(&values);
            prop_assert!(s.min <= s.mean && s.mean <= s.max);
            prop_assert!(s.min <= s.median && s.median <= s.max);
            prop_assert!(s.std_dev >= 0.0);
        }

        /// Fitting exact model data recovers the scale factor.
        #[test]
        fn fit_recovers_scale(c in 0.1f64..50.0) {
            let xs: Vec<f64> = (4..16).map(|k| (1u64 << k) as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|x| c * x.log2()).collect();
            let fit = fit_scale(&xs, &ys, GrowthModel::Logarithmic);
            prop_assert!((fit.scale - c).abs() < 1e-6);
            prop_assert!(fit.rmse < 1e-6);
        }
    }
}
