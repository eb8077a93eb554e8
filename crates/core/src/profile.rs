//! Radius profiles: the per-node costs an execution produced.

use avglocal_analysis::{histogram, Summary};
use avglocal_graph::NodeId;
use avglocal_runtime::{BallExecution, Execution};

use crate::error::{CoreError, Result};

/// The per-node radii `r(v)` of one execution, in node order.
///
/// This is the raw material of both of the paper's measures: the classical
/// worst case is the maximum entry, the paper's measure is the mean.
///
/// # Examples
///
/// ```
/// use avglocal::RadiusProfile;
///
/// let profile = RadiusProfile::new(vec![1, 1, 1, 5]);
/// assert_eq!(profile.max(), 5);
/// assert_eq!(profile.average(), 2.0);
/// assert_eq!(profile.total(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadiusProfile {
    radii: Vec<usize>,
}

impl RadiusProfile {
    /// Wraps a vector of per-node radii.
    #[must_use]
    pub fn new(radii: Vec<usize>) -> Self {
        RadiusProfile { radii }
    }

    /// Extracts the profile of a ball-view execution.
    #[must_use]
    pub fn from_ball_execution<O>(execution: &BallExecution<O>) -> Self {
        RadiusProfile { radii: execution.radii().to_vec() }
    }

    /// Extracts the profile of a round-based execution (the decision rounds).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOutput`] if some node never decided.
    pub fn from_execution<O: Clone>(execution: &Execution<O>) -> Result<Self> {
        if !execution.is_complete() {
            return Err(CoreError::InvalidOutput { problem: "incomplete execution".to_string() });
        }
        Ok(RadiusProfile { radii: execution.decision_rounds() })
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.radii.len()
    }

    /// Returns `true` for the empty profile.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.radii.is_empty()
    }

    /// Radius of a specific node.
    #[must_use]
    pub fn radius(&self, node: NodeId) -> Option<usize> {
        self.radii.get(node.index()).copied()
    }

    /// The raw radii, in node order.
    #[must_use]
    pub fn radii(&self) -> &[usize] {
        &self.radii
    }

    /// The classical measure: `max_v r(v)` (0 for the empty profile).
    #[must_use]
    pub fn max(&self) -> usize {
        self.radii.iter().copied().max().unwrap_or(0)
    }

    /// The smallest radius (0 for the empty profile).
    #[must_use]
    pub fn min(&self) -> usize {
        self.radii.iter().copied().min().unwrap_or(0)
    }

    /// The total cost `Σ_v r(v)`.
    #[must_use]
    pub fn total(&self) -> usize {
        self.radii.iter().sum()
    }

    /// The paper's measure: `Σ_v r(v) / n` (0.0 for the empty profile).
    #[must_use]
    pub fn average(&self) -> f64 {
        if self.radii.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.radii.len() as f64
        }
    }

    /// Nearest-rank quantile of the radii, in thousandths (`500` = median,
    /// `900` = 90th percentile; values above 1000 are clamped): the value at
    /// index `round(q · (n - 1))` of the sorted radii, read off
    /// [`RadiusProfile::cdf`]. Returns 0.0 for the empty profile.
    #[must_use]
    pub fn quantile(&self, per_mille: u16) -> f64 {
        self.cdf().quantile(per_mille)
    }

    /// The exact radius distribution of the profile (see
    /// [`crate::RadiusCdf`]): every quantile and tail of the execution in
    /// one mergeable report.
    #[must_use]
    pub fn cdf(&self) -> crate::RadiusCdf {
        crate::RadiusCdf::from_radii(&self.radii)
    }

    /// Fraction of nodes with radius at most `r`.
    #[must_use]
    pub fn fraction_within(&self, r: usize) -> f64 {
        if self.radii.is_empty() {
            return 0.0;
        }
        self.radii.iter().filter(|&&x| x <= r).count() as f64 / self.radii.len() as f64
    }

    /// Summary statistics of the radii.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::from_integers(&self.radii)
    }

    /// Histogram of the radii (`result[r]` = number of nodes with radius `r`).
    #[must_use]
    pub fn histogram(&self) -> Vec<usize> {
        histogram(&self.radii)
    }

    /// Consumes the profile and returns the radii.
    #[must_use]
    pub fn into_radii(self) -> Vec<usize> {
        self.radii
    }
}

impl From<Vec<usize>> for RadiusProfile {
    fn from(radii: Vec<usize>) -> Self {
        RadiusProfile::new(radii)
    }
}

impl FromIterator<usize> for RadiusProfile {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        RadiusProfile::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_algorithms::LargestId;
    use avglocal_graph::{generators, IdAssignment};
    use avglocal_runtime::{FrozenExecutor, GatherAdapter, Knowledge, SyncExecutor};

    #[test]
    fn basic_statistics() {
        let p = RadiusProfile::new(vec![2, 4, 6]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.max(), 6);
        assert_eq!(p.min(), 2);
        assert_eq!(p.total(), 12);
        assert_eq!(p.average(), 4.0);
        assert_eq!(p.radius(NodeId::new(1)), Some(4));
        assert_eq!(p.radius(NodeId::new(9)), None);
        assert_eq!(p.histogram()[2], 1);
        assert_eq!(p.summary().count, 3);
    }

    #[test]
    fn empty_profile() {
        let p = RadiusProfile::new(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.max(), 0);
        assert_eq!(p.min(), 0);
        assert_eq!(p.average(), 0.0);
        assert_eq!(p.fraction_within(10), 0.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let p = RadiusProfile::new(vec![5, 1, 3, 2, 4]);
        assert_eq!(p.quantile(0), 1.0);
        assert_eq!(p.quantile(500), 3.0);
        assert_eq!(p.quantile(1000), 5.0);
        assert_eq!(RadiusProfile::new(vec![]).quantile(500), 0.0);
        // Any input order; an even count rounds the rank half up
        // (round(0.5 * 3) = 2); a single radius is every quantile.
        let p = RadiusProfile::new(vec![4, 1, 3, 2]);
        assert_eq!(p.quantile(0), 1.0);
        assert_eq!(p.quantile(500), 3.0);
        assert_eq!(p.quantile(1000), 4.0);
        assert_eq!(RadiusProfile::new(vec![7]).quantile(250), 7.0);
    }

    #[test]
    fn fraction_within_is_a_cdf() {
        let p = RadiusProfile::new(vec![1, 2, 3, 4]);
        assert_eq!(p.fraction_within(0), 0.0);
        assert_eq!(p.fraction_within(2), 0.5);
        assert_eq!(p.fraction_within(4), 1.0);
        assert_eq!(p.fraction_within(100), 1.0);
        // The full distribution report agrees point by point.
        let cdf = p.cdf();
        for r in 0..=5 {
            assert_eq!(cdf.fraction_within(r), p.fraction_within(r), "r={r}");
        }
        for per_mille in [0u16, 250, 500, 750, 1000] {
            assert_eq!(cdf.quantile(per_mille), p.quantile(per_mille), "q={per_mille}");
        }
    }

    #[test]
    fn conversions() {
        let p: RadiusProfile = vec![1, 2].into();
        assert_eq!(p.total(), 3);
        let q: RadiusProfile = [3usize, 4].into_iter().collect();
        assert_eq!(q.total(), 7);
        assert_eq!(q.into_radii(), vec![3, 4]);
    }

    #[test]
    fn profiles_from_both_executors_agree() {
        let mut g = generators::cycle(15).unwrap();
        IdAssignment::Shuffled { seed: 2 }.apply(&mut g).unwrap();
        let ball = FrozenExecutor::new(&g).run(&LargestId, Knowledge::none()).unwrap();
        let rounds =
            SyncExecutor::new().run(&g, &GatherAdapter::new(LargestId), Knowledge::none()).unwrap();
        let p1 = RadiusProfile::from_ball_execution(&ball);
        let p2 = RadiusProfile::from_execution(&rounds).unwrap();
        assert_eq!(p1, p2);
    }
}
