//! Service tunables and the validating builder.
//!
//! [`ServiceConfig`] stays a plain `Copy` struct with public fields — tests
//! and embedders can still write `ServiceConfig { max_in_flight: 1, ..Default::default() }`
//! — but the recommended construction path is [`ServiceConfig::builder`],
//! which rejects the degenerate settings a literal silently accepts: a
//! zero admission bound sheds every request, a zero backoff base makes
//! latest-consistency retries spin without ever yielding the clock, and a
//! zero batch shard size would divide by zero when sharding a batch.

use std::fmt;

/// Tunables of a [`RadiusQueryService`](crate::RadiusQueryService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Admission bound: requests beyond this many in flight are shed.
    pub max_in_flight: usize,
    /// Deadline budget, in clock ticks, of queries that do not bring their
    /// own ([`u64::MAX`] = effectively unlimited).
    pub default_deadline: u64,
    /// Backoff before retry `k` (1-based) of a latest-consistency query is
    /// `backoff_base << (k - 1)` ticks, saturating at `u64::MAX`.
    pub backoff_base: u64,
    /// Optional ball-radius hard limit applied to every generation's
    /// session (see [`avglocal_runtime::FrozenExecutor::with_max_radius`]).
    pub max_radius: Option<usize>,
    /// Nodes per dynamically claimed shard of a batched query. `1` (the
    /// default) is pure per-node dynamic scheduling — the right choice for
    /// the paper's skewed per-node costs; larger shards amortise claim
    /// traffic on huge uniform batches.
    pub batch_shard: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 64,
            default_deadline: u64::MAX,
            backoff_base: 1,
            max_radius: None,
            batch_shard: 1,
        }
    }
}

impl ServiceConfig {
    /// A validating builder seeded with the defaults.
    #[must_use]
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder { config: ServiceConfig::default() }
    }
}

/// Builder for [`ServiceConfig`]; see [`ServiceConfig::builder`].
///
/// # Examples
///
/// ```
/// use avglocal_service::{InvalidConfig, ServiceConfig};
///
/// let config = ServiceConfig::builder().max_in_flight(8).batch_shard(16).build().unwrap();
/// assert_eq!(config.max_in_flight, 8);
///
/// let err = ServiceConfig::builder().backoff_base(0).build().unwrap_err();
/// assert_eq!(err, InvalidConfig::ZeroBackoffBase);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the admission bound. Zero is rejected by [`Self::build`].
    #[must_use]
    pub fn max_in_flight(mut self, bound: usize) -> Self {
        self.config.max_in_flight = bound;
        self
    }

    /// Sets the default deadline budget in clock ticks.
    #[must_use]
    pub fn default_deadline(mut self, ticks: u64) -> Self {
        self.config.default_deadline = ticks;
        self
    }

    /// Sets the backoff base. Zero is rejected by [`Self::build`].
    #[must_use]
    pub fn backoff_base(mut self, ticks: u64) -> Self {
        self.config.backoff_base = ticks;
        self
    }

    /// Sets the optional ball-radius hard limit.
    #[must_use]
    pub fn max_radius(mut self, limit: Option<usize>) -> Self {
        self.config.max_radius = limit;
        self
    }

    /// Sets the batch shard size. Zero is rejected by [`Self::build`].
    #[must_use]
    pub fn batch_shard(mut self, nodes: usize) -> Self {
        self.config.batch_shard = nodes;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// A typed [`InvalidConfig`] naming the first degenerate setting: zero
    /// `max_in_flight` (the service would shed everything), zero
    /// `backoff_base` (retries would spin without sleeping), or zero
    /// `batch_shard` (batches could not be sharded).
    pub fn build(self) -> std::result::Result<ServiceConfig, InvalidConfig> {
        if self.config.max_in_flight == 0 {
            return Err(InvalidConfig::ZeroMaxInFlight);
        }
        if self.config.backoff_base == 0 {
            return Err(InvalidConfig::ZeroBackoffBase);
        }
        if self.config.batch_shard == 0 {
            return Err(InvalidConfig::ZeroBatchShard);
        }
        Ok(self.config)
    }
}

/// A degenerate [`ServiceConfig`] rejected by
/// [`ServiceConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvalidConfig {
    /// `max_in_flight == 0`: every request would be shed at admission.
    ZeroMaxInFlight,
    /// `backoff_base == 0`: latest-consistency retries would never back
    /// off, spinning on the clock.
    ZeroBackoffBase,
    /// `batch_shard == 0`: a batch could not be split into shards.
    ZeroBatchShard,
}

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidConfig::ZeroMaxInFlight => {
                write!(f, "max_in_flight must be positive: a zero bound sheds every request")
            }
            InvalidConfig::ZeroBackoffBase => {
                write!(f, "backoff_base must be positive: zero backoff spins on retry")
            }
            InvalidConfig::ZeroBatchShard => {
                write!(f, "batch_shard must be positive: batches are sharded by this size")
            }
        }
    }
}

impl std::error::Error for InvalidConfig {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(ServiceConfig::builder().build().unwrap(), ServiceConfig::default());
    }

    #[test]
    fn builder_rejects_each_degenerate_setting() {
        assert_eq!(
            ServiceConfig::builder().max_in_flight(0).build().unwrap_err(),
            InvalidConfig::ZeroMaxInFlight
        );
        assert_eq!(
            ServiceConfig::builder().backoff_base(0).build().unwrap_err(),
            InvalidConfig::ZeroBackoffBase
        );
        assert_eq!(
            ServiceConfig::builder().batch_shard(0).build().unwrap_err(),
            InvalidConfig::ZeroBatchShard
        );
    }

    #[test]
    fn builder_sets_every_field() {
        let config = ServiceConfig::builder()
            .max_in_flight(4)
            .default_deadline(100)
            .backoff_base(2)
            .max_radius(Some(9))
            .batch_shard(32)
            .build()
            .unwrap();
        let expected = ServiceConfig {
            max_in_flight: 4,
            default_deadline: 100,
            backoff_base: 2,
            max_radius: Some(9),
            batch_shard: 32,
        };
        assert_eq!(config, expected);
    }
}
