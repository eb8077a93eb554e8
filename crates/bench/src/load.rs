//! Sustained-load generator for the resilient radius-query service.
//!
//! Drives a fixed number of reader threads through a fixed per-reader query
//! script, against the [`RadiusQueryService`] single-query path, its
//! **batched** path ([`service_batch_load`]: the script chunked into
//! `query_batch` requests sharded across the persistent pool), or the bare
//! [`FrozenExecutor`] session the service wraps. All paths walk the same
//! node sequences, so their total radii must agree bit for bit — the
//! single-vs-raw qps gap is the service layer's per-query overhead (the
//! `service` block of `BENCH_e1.json`), and the batched-vs-single gap is
//! the batching win (the `service_batch` block).
//!
//! All timing flows through the service's [`WallClock`] (microsecond ticks
//! behind the audited [`Clock`] seam), so this module itself stays free of
//! direct wall-clock reads.

use std::sync::Arc;

use avglocal::algorithms::LargestId;
use avglocal::graph::{generators, NodeId};
use avglocal::runtime::{FrozenExecutor, Knowledge, ProbeOptions};
use avglocal_service::{
    Clock, QueryOptions, QueryRequest, RadiusQueryService, ServiceConfig, WallClock,
};

/// Shape of one load run: `readers` threads each issue
/// `queries_per_reader` queries, round-robin over the nodes of a
/// `nodes`-cycle (reader `r` walks nodes `r, r + readers, r + 2·readers, …`
/// modulo `nodes`).
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Cycle size the generation is built on.
    pub nodes: usize,
    /// Number of concurrent reader threads.
    pub readers: usize,
    /// Queries each reader issues.
    pub queries_per_reader: usize,
}

/// Outcome of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Node queries that completed with an answer (batched runs count every
    /// batch entry).
    pub completed: u64,
    /// Sum of the returned ball radii (the cross-path agreement check).
    pub total_radius: u64,
    /// Wall time of the whole run, in clock ticks (µs).
    pub elapsed_us: u64,
    /// Sustained completed node queries per second (batch entries count
    /// individually, so single and batched runs are directly comparable).
    pub qps: f64,
    /// Median per-request latency, µs (per batch in batched runs).
    pub p50_us: u64,
    /// 99th-percentile per-request latency, µs (per batch in batched runs).
    pub p99_us: u64,
    /// Worst per-request latency, µs.
    pub max_us: u64,
}

/// The node sequence reader `r` walks under `config`.
fn reader_script(config: &LoadConfig, reader: usize) -> impl Iterator<Item = NodeId> + '_ {
    let nodes = config.nodes;
    (0..config.queries_per_reader).map(move |q| NodeId::new((reader + q * config.readers) % nodes))
}

/// Nearest-rank quantile of an already-sorted latency list.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn report(
    clock: &WallClock,
    started_us: u64,
    mut latencies: Vec<u64>,
    total_radius: u64,
    completed: u64,
) -> LoadReport {
    let elapsed_us = clock.now().saturating_sub(started_us).max(1);
    latencies.sort_unstable();
    LoadReport {
        completed,
        total_radius,
        elapsed_us,
        qps: completed as f64 / (elapsed_us as f64 / 1e6),
        p50_us: quantile(&latencies, 0.50),
        p99_us: quantile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
    }
}

/// Runs the load through the full service layer: admission, deadline
/// bookkeeping and epoch pinning on every query.
///
/// # Panics
///
/// Panics if the cycle cannot be built or any query fails — under this
/// load shape (`max_in_flight >= readers`, unbounded deadline) every query
/// must complete.
#[must_use]
pub fn service_load(config: &LoadConfig) -> LoadReport {
    let csr = generators::cycle(config.nodes).expect("load cycles are valid").freeze();
    let service_config =
        ServiceConfig { max_in_flight: config.readers.max(1) * 2, ..ServiceConfig::default() };
    let clock = WallClock::new();
    let service = RadiusQueryService::new(
        LargestId,
        Knowledge::none(),
        csr,
        Arc::new(WallClock::new()),
        service_config,
    );
    let started = clock.now();
    let per_reader = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.readers)
            .map(|reader| {
                let service = &service;
                let clock = &clock;
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(config.queries_per_reader);
                    let mut total_radius = 0u64;
                    for node in reader_script(config, reader) {
                        let before = clock.now();
                        let reply = service
                            .query_with(node, QueryOptions::new())
                            .expect("load queries complete");
                        latencies.push(clock.now().saturating_sub(before));
                        total_radius += reply.radius as u64;
                    }
                    (latencies, total_radius)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load readers do not panic"))
            .collect::<Vec<_>>()
    });
    let mut latencies = Vec::new();
    let mut total_radius = 0u64;
    for (reader_latencies, reader_radius) in per_reader {
        latencies.extend(reader_latencies);
        total_radius += reader_radius;
    }
    let completed = latencies.len() as u64;
    report(&clock, started, latencies, total_radius, completed)
}

/// Runs the same per-reader node scripts through the **batched** query
/// path: each reader splits its script into batches of `batch_size` nodes
/// and issues one [`RadiusQueryService::query_batch`] per batch — one
/// admission slot and one generation pin per batch, the node set sharded
/// across the persistent pool.
///
/// The walked node multiset is identical to [`service_load`] on the same
/// config, so `total_radius` must agree bit for bit across the two paths;
/// the qps difference is the batching win the `service_batch` block of
/// `BENCH_e1.json` records and gates.
///
/// # Panics
///
/// Panics if the cycle cannot be built, a batch is shed, or any batch
/// entry fails — under this load shape (unbounded deadline, in-bounds
/// nodes) every entry must complete.
#[must_use]
pub fn service_batch_load(config: &LoadConfig, batch_size: usize) -> LoadReport {
    let csr = generators::cycle(config.nodes).expect("load cycles are valid").freeze();
    let service_config =
        ServiceConfig { max_in_flight: config.readers.max(1) * 2, ..ServiceConfig::default() };
    let clock = WallClock::new();
    let service = RadiusQueryService::new(
        LargestId,
        Knowledge::none(),
        csr,
        Arc::new(WallClock::new()),
        service_config,
    );
    let batch_size = batch_size.max(1);
    let started = clock.now();
    let per_reader = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.readers)
            .map(|reader| {
                let service = &service;
                let clock = &clock;
                scope.spawn(move || {
                    let script: Vec<NodeId> = reader_script(config, reader).collect();
                    let mut latencies = Vec::with_capacity(script.len().div_ceil(batch_size));
                    let mut total_radius = 0u64;
                    let mut completed = 0u64;
                    for chunk in script.chunks(batch_size) {
                        let request = QueryRequest::nodes(chunk.to_vec(), QueryOptions::new());
                        let before = clock.now();
                        let reply = service.query_batch(&request).expect("load batches admit");
                        latencies.push(clock.now().saturating_sub(before));
                        let radii = reply.radii().expect("load batch entries complete");
                        total_radius += radii.iter().map(|&r| r as u64).sum::<u64>();
                        completed += radii.len() as u64;
                    }
                    (latencies, total_radius, completed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load readers do not panic"))
            .collect::<Vec<_>>()
    });
    let mut latencies = Vec::new();
    let mut total_radius = 0u64;
    let mut completed = 0u64;
    for (reader_latencies, reader_radius, reader_completed) in per_reader {
        latencies.extend(reader_latencies);
        total_radius += reader_radius;
        completed += reader_completed;
    }
    report(&clock, started, latencies, total_radius, completed)
}

/// Runs the identical load straight on a shared [`FrozenExecutor`] session:
/// no admission, no deadlines, no generation bookkeeping. The baseline the
/// service's overhead is measured against.
///
/// # Panics
///
/// Panics if the cycle cannot be built or a probe fails.
#[must_use]
pub fn raw_probe_load(config: &LoadConfig) -> LoadReport {
    let csr = generators::cycle(config.nodes).expect("load cycles are valid").freeze();
    let session = FrozenExecutor::from_csr(csr);
    let clock = WallClock::new();
    let started = clock.now();
    let per_reader = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.readers)
            .map(|reader| {
                let session = &session;
                let clock = &clock;
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(config.queries_per_reader);
                    let mut total_radius = 0u64;
                    for node in reader_script(config, reader) {
                        let before = clock.now();
                        let mut never = |_: usize| false;
                        let options = ProbeOptions::new().with_cancel(&mut never);
                        let (_, radius) = session
                            .run_node_with(node, &LargestId, Knowledge::none(), options)
                            .expect("load probes complete");
                        latencies.push(clock.now().saturating_sub(before));
                        total_radius += radius as u64;
                    }
                    (latencies, total_radius)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load readers do not panic"))
            .collect::<Vec<_>>()
    });
    let mut latencies = Vec::new();
    let mut total_radius = 0u64;
    for (reader_latencies, reader_radius) in per_reader {
        latencies.extend(reader_latencies);
        total_radius += reader_radius;
    }
    let completed = latencies.len() as u64;
    report(&clock, started, latencies, total_radius, completed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: LoadConfig = LoadConfig { nodes: 32, readers: 2, queries_per_reader: 16 };

    #[test]
    fn service_and_raw_paths_agree_on_total_radius() {
        let service = service_load(&SMALL);
        let raw = raw_probe_load(&SMALL);
        assert_eq!(service.total_radius, raw.total_radius);
        assert_eq!(service.completed, 32);
        assert_eq!(raw.completed, 32);
    }

    #[test]
    fn batched_path_agrees_with_the_single_query_path() {
        let single = service_load(&SMALL);
        for batch_size in [1usize, 5, 16, 100] {
            let batched = service_batch_load(&SMALL, batch_size);
            assert_eq!(batched.total_radius, single.total_radius, "batch_size {batch_size}");
            assert_eq!(batched.completed, 32, "batch_size {batch_size}");
        }
    }

    #[test]
    fn reports_are_internally_consistent() {
        let run = service_load(&SMALL);
        assert!(run.qps > 0.0);
        assert!(run.p50_us <= run.p99_us);
        assert!(run.p99_us <= run.max_us);
        assert!(run.elapsed_us >= 1);
    }

    #[test]
    fn reader_scripts_cover_disjoint_residues() {
        let config = LoadConfig { nodes: 12, readers: 3, queries_per_reader: 4 };
        let walked: Vec<_> = reader_script(&config, 1).map(NodeId::index).collect();
        assert_eq!(walked, vec![1, 4, 7, 10]);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.50), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&[], 0.99), 0);
        assert_eq!(quantile(&[7], 0.50), 7);
    }
}
