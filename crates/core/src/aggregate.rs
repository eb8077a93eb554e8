//! Aggregate service endpoints: whole-population measurements as one call.
//!
//! Feuilloley's question — "how long does it take for an *ordinary* node
//! with an ordinary ID to output?" — is a claim about the **population** of
//! nodes, not any single one. The service layer's batched query path
//! ([`RadiusQueryService::query_batch`]) shards a whole generation across
//! the persistent pool in one admitted request; this module folds that
//! sharded radius vector through the measurement layer ([`MeasureSet`]) so a
//! complete E-style distributional measurement — every measure, the exact
//! CDF ([`MeasureSet::cdf`]) and any quantile ([`MeasureSet::get`]) —
//! becomes **one service call on one pinned epoch**.
//!
//! The fold happens on the reply's own pinned generation: the
//! [`BatchReply`] keeps its epoch's frozen snapshot alive, so the measures
//! are computed against exactly the graph that produced the radii, however
//! many publishes land in between.
//!
//! The endpoints live in this crate (not `avglocal-service`) because the
//! measurement layer sits above the service layer in the dependency order;
//! they are provided as an extension trait, [`AggregateQueries`], blanket
//! implemented for every batch-capable service.

use avglocal_runtime::BallAlgorithm;
use avglocal_service::{QueryOptions, QueryRequest, RadiusQueryService};

use crate::measure::MeasureSet;
use crate::profile::RadiusProfile;

#[cfg(doc)]
use avglocal_service::BatchReply;

/// The full measure set of a generation, from one batched call.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuresReply {
    /// Epoch of the generation the measures describe.
    pub epoch: u64,
    /// Worst-case, average, median and weighted measures over the
    /// generation's radius profile.
    pub measures: MeasureSet,
}

/// The aggregate endpoint over a batch-capable [`RadiusQueryService`]: fold
/// a whole pinned generation's sharded radius vector into the paper's
/// distributional measures in one admitted service call.
///
/// The endpoint issues one [`QueryRequest::all`] batch (one admission slot,
/// one shared deadline budget) and requires every entry to complete:
/// a deadline expiring mid-batch surfaces as the same typed
/// [`ServiceError::DeadlineExceeded`](avglocal_service::ServiceError::DeadlineExceeded)
/// a single query would report, via [`BatchReply::radii`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use avglocal::prelude::*;
/// use avglocal::service::{QueryOptions, RadiusQueryService, ServiceConfig, TestClock};
/// use avglocal::AggregateQueries;
/// use avglocal::runtime::examples::NaiveLargestId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ring = generators::cycle(64)?;
/// IdAssignment::Shuffled { seed: 7 }.apply(&mut ring)?;
/// let service = RadiusQueryService::new(
///     NaiveLargestId,
///     Knowledge::none(),
///     ring.freeze(),
///     Arc::new(TestClock::new()),
///     ServiceConfig::default(),
/// );
/// // The paper's separation, measured through the service in one call:
/// let reply = service.query_measures(QueryOptions::new())?;
/// assert_eq!(reply.measures.pair().worst_case, 32.0);
/// assert!(reply.measures.pair().average < 8.0);
/// // The same reply carries the whole distribution: any quantile.
/// assert_eq!(reply.measures.cdf.observations(), 64);
/// assert!(reply.measures.get(Measure::Quantile { per_mille: 990 }).unwrap() <= 32.0);
/// # Ok(())
/// # }
/// ```
pub trait AggregateQueries {
    /// The full [`MeasureSet`] — worst-case, average, median, weighted, and
    /// the exact radius CDF every quantile is read from — of the pinned
    /// generation's whole population, computed against the reply's own
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Same as [`RadiusQueryService::query_batch`], plus the typed
    /// deadline/probe error of the first incomplete entry when the shared
    /// budget expired mid-batch.
    fn query_measures(&self, options: QueryOptions) -> avglocal_service::Result<MeasuresReply>;
}

impl<A> AggregateQueries for RadiusQueryService<A>
where
    A: BallAlgorithm + Sync,
    A::Output: Send,
{
    fn query_measures(&self, options: QueryOptions) -> avglocal_service::Result<MeasuresReply> {
        let reply = self.query_batch(&QueryRequest::all(options))?;
        let radii = reply.radii()?;
        let profile = RadiusProfile::new(radii);
        let measures = MeasureSet::of_csr(&profile, reply.generation().session().csr());
        Ok(MeasuresReply { epoch: reply.epoch(), measures })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::cdf::RadiusCdf;
    use crate::measure::Measure;
    use avglocal_graph::{generators, IdAssignment, NodeId};
    use avglocal_runtime::examples::NaiveLargestId;
    use avglocal_runtime::Knowledge;
    use avglocal_service::{ServiceConfig, ServiceError, TestClock};

    fn service_on_shuffled_cycle(n: usize, seed: u64) -> RadiusQueryService<NaiveLargestId> {
        let mut g = generators::cycle(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
        RadiusQueryService::new(
            NaiveLargestId,
            Knowledge::none(),
            g.freeze(),
            Arc::new(TestClock::new()),
            ServiceConfig::default(),
        )
    }

    #[test]
    fn aggregate_replies_match_the_sequential_measurement() {
        let service = service_on_shuffled_cycle(48, 11);
        let pinned = service.pin();
        let reference =
            pinned.session().run_sequential(&NaiveLargestId, Knowledge::none()).unwrap();
        let radii: Vec<usize> = (0..48).map(|v| reference.radius(NodeId::new(v))).collect();
        let profile = RadiusProfile::new(radii.clone());

        let measures = service.query_measures(QueryOptions::new()).unwrap();
        assert_eq!(measures.epoch, 1);
        assert_eq!(measures.measures, MeasureSet::of_csr(&profile, pinned.session().csr()));
        // The reply carries the whole distribution and answers any quantile.
        assert_eq!(measures.measures.cdf, RadiusCdf::from_radii(&radii));
        assert_eq!(
            measures.measures.get(Measure::Quantile { per_mille: 500 }),
            Some(RadiusCdf::from_radii(&radii).quantile(500))
        );
    }

    #[test]
    fn aggregates_pin_one_epoch_across_swaps() {
        let service = service_on_shuffled_cycle(36, 5);
        service.publish_csr(generators::cycle(36).unwrap().freeze()).unwrap();
        let reply = service.query_measures(QueryOptions::new()).unwrap();
        assert_eq!(reply.epoch, 2, "aggregates serve the currently pinned generation");
    }

    #[test]
    fn expired_aggregate_surfaces_the_single_query_deadline_error() {
        // An autoticking clock with a zero budget cancels every probe at
        // radius 0; the aggregate must refuse to fold a partial vector.
        let mut g = generators::cycle(32).unwrap();
        IdAssignment::Shuffled { seed: 2 }.apply(&mut g).unwrap();
        let service = RadiusQueryService::new(
            NaiveLargestId,
            Knowledge::none(),
            g.freeze(),
            Arc::new(TestClock::with_autotick(1)),
            ServiceConfig::default(),
        );
        let err = service.query_measures(QueryOptions::new().with_deadline(0)).unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded { budget: 0, radius: 0 }), "{err:?}");
    }
}
