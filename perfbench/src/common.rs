//! What every workload shares: arguments, the result record, the
//! end-to-end metric set, the cold-start chain and the run's scratch
//! directory.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use avglocal::graph::{ComponentMode, Graph, IdAssignment, Topology};
use avglocal::runtime::{BallAlgorithm, Knowledge};
use avglocal::service::{
    RadiusQueryService, ServiceConfig, SnapshotStore, StatsSnapshot, WallClock,
};

use crate::stats;
use crate::trace::{self, span, Recorder};

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Seconds of measured load.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Measured load duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// Measured duration of each half of a traced run (untraced, then
    /// traced).
    #[must_use]
    pub fn half(&self) -> Duration {
        Duration::from_millis(self.seconds * 500)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value rests on (1 for a single measurement or a count).
    pub samples: u64,
}

impl Metric {
    /// A metric resting on `samples` samples.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric { name, value, unit, samples }
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Correctness or conservation violations, one line each.
    pub errors: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Counts one operation; `Err` counts it failed and keeps the first few
    /// reasons.
    pub fn tally<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(reason) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(reason);
                }
                None
            }
        }
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds another report's tallies, violations and notes.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Every `stride`-th operation latency, ns.
    pub latencies: Vec<u64>,
    /// Operations completed without failure.
    pub ok: u64,
    /// Tallies and violations.
    pub report: Report,
    /// Wall time from the common start to the last thread's stop, s.
    pub secs: f64,
    /// The load threads' spans, merged, when the loop was traced.
    pub spans: Option<Recorder>,
}

/// Runs `threads` closed-loop load threads until `duration` has passed.
/// Thread `t` calls `op(t, i)` for `i = 0, 1, …`; the call returns the
/// latency it measured or why it failed. Every `stride`-th latency is kept
/// (a systematic subsample, so the kept set stays small at high rates).
/// With `traced`, each thread records spans into its own recorder.
pub fn closed_loop<F>(threads: u64, duration: Duration, stride: u64, traced: bool, op: F) -> LoopOut
where
    F: Fn(u64, u64) -> Result<u64, String> + Sync,
{
    let start = Instant::now();
    let outs: Vec<LoopOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let op = &op;
                scope.spawn(move || {
                    if traced {
                        trace::install(t);
                    }
                    let mut out = LoopOut::default();
                    let mut i = 0;
                    while start.elapsed() < duration {
                        match out.report.tally(op(t, i)) {
                            Some(ns) if i % stride == 0 => out.latencies.push(ns),
                            _ => {}
                        }
                        i += 1;
                    }
                    out.ok = out.report.attempted - out.report.failed;
                    out.secs = start.elapsed().as_secs_f64();
                    out.spans = trace::take();
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut merged = LoopOut::default();
    for out in outs {
        merged.latencies.extend(out.latencies);
        merged.ok += out.ok;
        merged.report.absorb(out.report);
        merged.secs = merged.secs.max(out.secs);
        if let Some(spans) = out.spans {
            match merged.spans.as_mut() {
                Some(all) => all.merge(spans),
                None => merged.spans = Some(spans),
            }
        }
    }
    merged
}

/// Nanoseconds elapsed since `start`.
#[must_use]
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident memory of this process, MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics every workload reports, from its set-up times,
/// its completed units of work and its per-operation latencies.
///
/// The latency tail is p90 on every workload: on a 2-vCPU Xeon VM shared
/// with other tenants, a query's p99 moved by ±18 % between runs of the
/// same code and its p90 by ±5 %. The p99 and the sample counts beyond
/// both are noted for readers.
pub fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    work_per_s: f64,
    latencies_ns: &mut [u64],
) -> Result<(), String> {
    latencies_ns.sort_unstable();
    let samples = latencies_ns.len() as u64;
    let us = |per_mille| stats::percentile_sorted(latencies_ns, per_mille) as f64 / 1e3;
    report.note(format!(
        "latency: {samples} samples; p50 {:.3} us, p90 {:.3} us ({} beyond), p99 {:.3} us ({} beyond)",
        us(500),
        us(900),
        stats::beyond(latencies_ns, 900),
        us(990),
        stats::beyond(latencies_ns, 990)
    ));
    report.metrics.extend([
        Metric::new("setup_s", stats::median_f64(setup_s), "s", setup_s.len() as u64),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB", 1),
        Metric::new("throughput_per_s", work_per_s, "1/s", samples),
        Metric::new("latency_p50_us", us(500), "us", samples),
        Metric::new("latency_p90_us", us(900), "us", samples),
    ]);
    Ok(())
}

/// A scratch directory for snapshot stores and the written trace, inside
/// the build directory of the checkout (`CARGO_TARGET_DIR`, else
/// `perfbench/target`). Removed when dropped, except for the trace.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
    next: u32,
}

impl WorkDir {
    /// Creates the run's directory.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn create(workload: &str) -> Result<WorkDir, String> {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let root = target.join("perfbench-runs").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(WorkDir { root, next: 0 })
    }

    /// A fresh, empty store directory.
    pub fn store(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("store-{}", self.next))
    }

    /// Where the traced run's spans are written (next to the run
    /// directories, so it outlives them).
    #[must_use]
    pub fn trace_file(&self, name: &str) -> PathBuf {
        self.root.with_file_name(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The cold-start chain up to a serving service: build the topology, assign
/// identifiers, freeze, persist the snapshot, recover it from disk and
/// start the service on the recovered snapshot.
///
/// # Errors
///
/// Any failing step, described.
pub fn cold_start<A: BallAlgorithm>(
    topology: &Topology,
    n: usize,
    ids: &IdAssignment,
    store_dir: &Path,
    algorithm: A,
) -> Result<(Graph, RadiusQueryService<A>), String> {
    let mut graph =
        span("graph.build", n as u64, || topology.build_for(n, ComponentMode::RequireConnected))
            .map_err(|e| format!("build: {e}"))?;
    span("graph.assign", n as u64, || ids.apply(&mut graph)).map_err(|e| format!("ids: {e}"))?;
    let csr = span("graph.freeze", 2 * graph.edge_count() as u64, || graph.freeze());
    let store = SnapshotStore::open(store_dir).map_err(|e| format!("store: {e}"))?;
    span("service.persist", 1, || store.persist(1, &csr)).map_err(|e| format!("persist: {e}"))?;
    let recovery = span("service.recover", 1, || store.recover());
    let (epoch, recovered) = recovery.durable.ok_or("nothing recovered")?;
    if epoch != 1 || recovered != csr {
        return Err(format!("recovered epoch {epoch} differs from the persisted snapshot"));
    }
    let service = span("service.new", 1, || {
        RadiusQueryService::new(
            algorithm,
            Knowledge::none(),
            recovered,
            Arc::new(WallClock::new()),
            ServiceConfig::default(),
        )
    });
    Ok((graph, service))
}

/// Differences of the service counters between two snapshots, by name.
#[must_use]
pub fn stats_delta(after: &StatsSnapshot, before: &StatsSnapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("service.admitted", after.admitted - before.admitted),
        ("service.shed", after.shed - before.shed),
        ("service.deadline_expired", after.deadline_expired - before.deadline_expired),
        ("service.stale", after.stale - before.stale),
        ("service.batches", after.batches - before.batches),
        ("service.batch_entries", after.batch_entries - before.batch_entries),
        ("service.publishes", after.publishes - before.publishes),
        ("service.publish_rejected", after.publish_rejected - before.publish_rejected),
    ]
}

/// Checks the conservation laws the load generator can see from outside:
/// every attempt was admitted or shed, every sample request is one batch
/// holding exactly the probes drawn, every publisher call published, and
/// no request expired, went stale or was rejected.
pub fn check_conservation(
    report: &mut Report,
    delta: &[(&'static str, u64)],
    attempted: u64,
    batches: u64,
    entries: u64,
    publishes: u64,
) {
    let get = |name: &str| delta.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
    let expect = [
        ("admitted + shed", get("service.admitted") + get("service.shed"), attempted),
        ("batches", get("service.batches"), batches),
        ("batch_entries", get("service.batch_entries"), entries),
        ("publishes", get("service.publishes"), publishes),
        ("deadline_expired", get("service.deadline_expired"), 0),
        ("stale", get("service.stale"), 0),
        ("publish_rejected", get("service.publish_rejected"), 0),
    ];
    for (what, seen, want) in expect {
        report.check(seen == want, || format!("conservation: {what} is {seen}, expected {want}"));
    }
}

/// The pool's worker-respawn count (must not move during a run).
#[must_use]
pub fn respawns() -> u64 {
    rayon::pool::worker_respawn_count() as u64
}
