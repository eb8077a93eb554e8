//! Fitting measured curves against the paper's asymptotic shapes.
//!
//! The brief announcement states asymptotic bounds (`Θ(log n)`, `Θ(n log n)`,
//! `Ω(log* n)`, `Θ(n)`). To "reproduce" them on finite data the experiment
//! harness fits a single scale factor `c` for each candidate growth model and
//! reports which model explains the measurements best. This is deliberately
//! simple — least squares on a one-parameter family — because the goal is to
//! distinguish growth *shapes* (logarithmic vs. linear vs. n·log n), not to
//! estimate constants precisely.

use crate::logstar::log_star;

/// A one-parameter growth model `y ≈ c · f(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GrowthModel {
    /// `f(n) = 1`.
    Constant,
    /// `f(n) = log2(n)` (0 for `n <= 1`).
    Logarithmic,
    /// `f(n) = log*(n)`.
    LogStar,
    /// `f(n) = n`.
    Linear,
    /// `f(n) = n·log2(n)`.
    NLogN,
    /// `f(n) = sqrt(n)`.
    Sqrt,
}

impl GrowthModel {
    /// All models the harness considers.
    pub const ALL: [GrowthModel; 6] = [
        GrowthModel::Constant,
        GrowthModel::Logarithmic,
        GrowthModel::LogStar,
        GrowthModel::Sqrt,
        GrowthModel::Linear,
        GrowthModel::NLogN,
    ];

    /// Evaluates the basis function `f(n)`.
    #[must_use]
    pub fn basis(&self, n: f64) -> f64 {
        match self {
            GrowthModel::Constant => 1.0,
            GrowthModel::Logarithmic => {
                if n <= 1.0 {
                    0.0
                } else {
                    n.log2()
                }
            }
            GrowthModel::LogStar => f64::from(log_star(n.max(0.0) as u64)),
            GrowthModel::Linear => n,
            GrowthModel::NLogN => {
                if n <= 1.0 {
                    0.0
                } else {
                    n * n.log2()
                }
            }
            GrowthModel::Sqrt => n.max(0.0).sqrt(),
        }
    }

    /// Human-readable name used in report tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            GrowthModel::Constant => "c",
            GrowthModel::Logarithmic => "c·log n",
            GrowthModel::LogStar => "c·log* n",
            GrowthModel::Linear => "c·n",
            GrowthModel::NLogN => "c·n·log n",
            GrowthModel::Sqrt => "c·sqrt n",
        }
    }
}

/// Result of fitting one [`GrowthModel`] to data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fit {
    /// The model that was fitted.
    pub model: GrowthModel,
    /// The fitted scale factor `c`.
    pub scale: f64,
    /// Root-mean-square error of the fit, in the units of `y`.
    pub rmse: f64,
    /// RMSE divided by the mean of `|y|`; a scale-free quality measure.
    pub relative_error: f64,
}

/// Fits `y ≈ c · f(x)` by least squares for a single model.
///
/// Returns a degenerate fit (scale 0, infinite error) when the inputs are
/// empty, of unequal length, or the basis is identically zero on the data.
#[must_use]
pub fn fit_scale(xs: &[f64], ys: &[f64], model: GrowthModel) -> Fit {
    if xs.is_empty() || xs.len() != ys.len() {
        return Fit { model, scale: 0.0, rmse: f64::INFINITY, relative_error: f64::INFINITY };
    }
    let basis: Vec<f64> = xs.iter().map(|&x| model.basis(x)).collect();
    let denom: f64 = basis.iter().map(|b| b * b).sum();
    let scale = if denom == 0.0 {
        0.0
    } else {
        basis.iter().zip(ys).map(|(b, y)| b * y).sum::<f64>() / denom
    };
    let sq_err: f64 = basis
        .iter()
        .zip(ys)
        .map(|(b, y)| {
            let e = y - scale * b;
            e * e
        })
        .sum();
    let rmse = (sq_err / xs.len() as f64).sqrt();
    let mean_abs_y = ys.iter().map(|y| y.abs()).sum::<f64>() / ys.len() as f64;
    let relative_error = if mean_abs_y == 0.0 { f64::INFINITY } else { rmse / mean_abs_y };
    Fit { model, scale, rmse, relative_error }
}

/// Fits every model in [`GrowthModel::ALL`] and returns the fits sorted by
/// ascending RMSE (best first).
#[must_use]
pub fn rank_models(xs: &[f64], ys: &[f64]) -> Vec<Fit> {
    let mut fits: Vec<Fit> = GrowthModel::ALL.iter().map(|&m| fit_scale(xs, ys, m)).collect();
    fits.sort_by(|a, b| a.rmse.partial_cmp(&b.rmse).expect("rmse is never NaN"));
    fits
}

/// The single best-fitting model for the data.
#[must_use]
pub fn best_model(xs: &[f64], ys: &[f64]) -> GrowthModel {
    rank_models(xs, ys).first().map(|f| f.model).unwrap_or(GrowthModel::Constant)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xs() -> Vec<f64> {
        (4..15).map(|k| (1u64 << k) as f64).collect()
    }

    #[test]
    fn recovers_logarithmic_data() {
        let x = xs();
        let y: Vec<f64> = x.iter().map(|v| 1.7 * v.log2()).collect();
        let fit = fit_scale(&x, &y, GrowthModel::Logarithmic);
        assert!((fit.scale - 1.7).abs() < 1e-9);
        assert!(fit.rmse < 1e-9);
        assert_eq!(best_model(&x, &y), GrowthModel::Logarithmic);
    }

    #[test]
    fn recovers_linear_data() {
        let x = xs();
        let y: Vec<f64> = x.iter().map(|v| 0.5 * v).collect();
        assert_eq!(best_model(&x, &y), GrowthModel::Linear);
    }

    #[test]
    fn recovers_nlogn_data() {
        let x = xs();
        let y: Vec<f64> = x.iter().map(|v| 0.5 * v * v.log2()).collect();
        assert_eq!(best_model(&x, &y), GrowthModel::NLogN);
    }

    #[test]
    fn distinguishes_logstar_from_log() {
        let x: Vec<f64> = (2..18).map(|k| (1u64 << k) as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| f64::from(log_star(v as u64))).collect();
        let best = best_model(&x, &y);
        assert!(
            best == GrowthModel::LogStar || best == GrowthModel::Constant,
            "log* data should not look logarithmic or linear, got {best:?}"
        );
        let log_fit = fit_scale(&x, &y, GrowthModel::Logarithmic);
        let star_fit = fit_scale(&x, &y, GrowthModel::LogStar);
        assert!(star_fit.rmse < log_fit.rmse);
    }

    #[test]
    fn degenerate_inputs() {
        let fit = fit_scale(&[], &[], GrowthModel::Linear);
        assert_eq!(fit.scale, 0.0);
        assert!(fit.rmse.is_infinite());
        let fit = fit_scale(&[1.0], &[1.0, 2.0], GrowthModel::Linear);
        assert!(fit.rmse.is_infinite());
        // Basis identically zero: log on n = 1.
        let fit = fit_scale(&[1.0, 1.0], &[3.0, 3.0], GrowthModel::Logarithmic);
        assert_eq!(fit.scale, 0.0);
    }

    #[test]
    fn rank_models_sorted_by_error() {
        let x = xs();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let ranked = rank_models(&x, &y);
        assert_eq!(ranked[0].model, GrowthModel::Linear);
        for w in ranked.windows(2) {
            assert!(w[0].rmse <= w[1].rmse);
        }
    }

    #[test]
    fn model_names_are_distinct() {
        let mut names: Vec<&str> = GrowthModel::ALL.iter().map(GrowthModel::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GrowthModel::ALL.len());
    }
}
