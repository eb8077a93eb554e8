//! End-to-end chaos and crash-safety for the resilient radius-query service.
//!
//! Two robustness claims of the service layer are exercised here at
//! integration scale (CI runs this file on both the `AVG_LOCAL_THREADS=1`
//! and `AVG_LOCAL_THREADS=4` legs):
//!
//! * **chaos**: the deterministic harness in `avglocal_service::chaos`
//!   drives concurrent readers through scripted generation swaps, torn
//!   publishes, failpoint panic storms, worker kills, deadline expiries and
//!   batched queries racing the swaps (including deadline storms that expire
//!   whole batches mid-flight) — every completed answer, single or batch
//!   entry, must be bit-identical to the sequential reference on the
//!   generation it was served from, and every failure must surface as its
//!   typed error;
//! * **crash-safe persistence**: a [`SnapshotStore`] that crashed mid-write
//!   recovers deterministically to the last durable generation, and the
//!   service restarted on it keeps answering bit-identically.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

use avglocal::graph::{generators, CsrGraph, GraphError, IdAssignment, NodeId};
use avglocal::runtime::examples::NaiveLargestId;
use avglocal::runtime::{BallAlgorithm, FrozenExecutor, Knowledge, LocalView};
use avglocal_service::chaos::{run_chaos, ChaosPlan};
use avglocal_service::{
    QueryOptions, RadiusQueryService, ServiceConfig, ServiceError, SnapshotStore, TestClock,
};

/// A cycle on `n` nodes with a shuffled identifier table, frozen.
fn shuffled_cycle(n: usize, seed: u64) -> CsrGraph {
    let mut graph = generators::cycle(n).expect("cycles are valid");
    IdAssignment::Shuffled { seed }.apply(&mut graph).expect("shuffles are permutations");
    graph.freeze()
}

/// A fresh directory under the target-local tmpdir, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("service_chaos_{tag}"));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("stale scratch directory is removable");
    }
    dir
}

#[test]
fn default_chaos_plan_holds_every_invariant() {
    let report = run_chaos(&ChaosPlan::default());
    assert_eq!(report.mismatches, 0, "served answer diverged from its generation's reference");
    assert_eq!(report.unexpected_errors, 0, "an untyped or unexpected error escaped");
    assert!(report.completed > 0, "chaos run completed no queries");
    assert!(report.published > 0, "chaos run published no generations");
    assert!(report.publish_rejected > 0, "torn publishes never exercised validation");
    assert!(report.publish_panicked > 0, "panic storms never exercised rollback");
    assert!(report.deadline_expired > 0, "deadline faults never fired");
    assert!(report.batches > 0, "chaos run issued no batched queries");
    assert!(report.batch_entries > 0, "batched queries probed no entries");
    assert!(report.batch_expired > 0, "deadline storms never expired a batch mid-flight");
}

/// Decides immediately everywhere, but the probe of `hold_id` parks until
/// `release` is raised — a deterministic way to keep an admission slot
/// occupied regardless of core count or scheduling.
struct HoldAtNode {
    hold_id: u64,
    entered: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl BallAlgorithm for HoldAtNode {
    type Output = u64;

    fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<u64> {
        let id = view.center_identifier().value();
        if id == self.hold_id {
            self.entered.store(true, SeqCst);
            while !self.release.load(SeqCst) {
                std::thread::yield_now();
            }
        }
        Some(id)
    }
}

#[test]
fn admission_pressure_sheds_with_the_typed_overload_error() {
    // A single admission slot, held open by a parked probe: the concurrent
    // query must be shed with the typed `Overloaded`, and once the slot
    // frees, the same query completes.
    let graph = generators::cycle(8).expect("cycles are valid");
    let hold_id = graph.identifier(NodeId::new(0)).value();
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let algorithm =
        HoldAtNode { hold_id, entered: Arc::clone(&entered), release: Arc::clone(&release) };
    let config = ServiceConfig { max_in_flight: 1, ..ServiceConfig::default() };
    let service = RadiusQueryService::new(
        algorithm,
        Knowledge::none(),
        graph.freeze(),
        Arc::new(TestClock::new()),
        config,
    );

    std::thread::scope(|scope| {
        let holder = scope.spawn(|| service.query_with(NodeId::new(0), QueryOptions::new()));
        while !entered.load(SeqCst) {
            std::thread::yield_now();
        }
        match service.query_with(NodeId::new(1), QueryOptions::new()) {
            Err(ServiceError::Overloaded { in_flight, limit }) => {
                assert_eq!(in_flight, 1);
                assert_eq!(limit, 1);
            }
            other => panic!("expected Overloaded while the slot is held, got {other:?}"),
        }
        release.store(true, SeqCst);
        let held = holder.join().expect("holder does not panic").expect("held query completes");
        assert_eq!(held.output, hold_id);
    });

    let after =
        service.query_with(NodeId::new(1), QueryOptions::new()).expect("freed slot admits again");
    assert_eq!(after.output, graph.identifier(NodeId::new(1)).value());
    let stats = service.stats();
    assert_eq!(stats.shed, 1, "exactly the blocked query was shed");
    assert_eq!(stats.admitted, 2, "the held and the retried query were admitted");
}

#[test]
fn chaos_seeds_vary_the_storm_but_never_the_invariants() {
    for seed in [1u64, 0xdead_beef, u64::MAX / 3] {
        let plan = ChaosPlan {
            seed,
            readers: 3,
            queries_per_reader: 80,
            publish_attempts: 12,
            ..ChaosPlan::default()
        };
        let report = run_chaos(&plan);
        assert_eq!(report.mismatches, 0, "seed {seed}");
        assert_eq!(report.unexpected_errors, 0, "seed {seed}");
        assert!(report.completed > 0, "seed {seed}");
        assert!(report.batches > 0, "seed {seed}: batches raced no swaps");
    }
}

#[test]
fn restart_after_torn_write_recovers_the_last_durable_generation() {
    let store = SnapshotStore::open(scratch("torn")).expect("store opens on a fresh directory");

    // Three durable generations with distinct shuffled identifier tables.
    let mut graphs = Vec::new();
    for epoch in 1u64..=3 {
        let csr = shuffled_cycle(30, 0xbeef ^ epoch);
        store.persist(epoch, &csr).expect("persist succeeds");
        graphs.push(csr);
    }

    // The crash: epoch 4 tears mid-write, leaving half a snapshot under the
    // final name (the worst case — rename happened, data did not).
    let torn = graphs[2].to_bytes();
    fs::write(store.path_for(4), &torn[..torn.len() / 2]).expect("scratch dir is writable");
    // A leftover temp file from the same crash must also be ignored.
    fs::write(store.dir().join("gen-00000000000000000005.snap.tmp"), b"partial")
        .expect("scratch dir is writable");

    let recovery = store.recover();
    let (epoch, durable) = recovery.durable.expect("a durable generation survives");
    assert_eq!(epoch, 3, "recovery must fall back to the newest clean epoch");
    assert_eq!(durable, graphs[2], "recovered snapshot is bit-identical to what was persisted");
    assert_eq!(recovery.skipped.len(), 1, "exactly the torn epoch is skipped");
    assert!(
        matches!(recovery.skipped[0].1, GraphError::CorruptSnapshot { .. }),
        "torn write surfaces as typed corruption, got {:?}",
        recovery.skipped[0].1
    );

    // The restarted service serves bit-identical answers on the recovered
    // generation.
    let reference = FrozenExecutor::from_csr(durable.clone())
        .run_sequential(&NaiveLargestId, Knowledge::none())
        .expect("largest-ID terminates");
    let service = RadiusQueryService::new(
        NaiveLargestId,
        Knowledge::none(),
        durable,
        Arc::new(TestClock::new()),
        ServiceConfig::default(),
    );
    for v in 0..30 {
        let node = NodeId::new(v);
        let reply =
            service.query_with(node, QueryOptions::new()).expect("recovered service answers");
        assert_eq!(&reply.output, reference.output(node));
        assert_eq!(reply.radius, reference.radius(node));
        assert_eq!(reply.epoch, 1, "a restart begins a fresh epoch sequence");
    }
}

#[test]
fn a_fully_torn_store_recovers_to_nothing_without_panicking() {
    let store = SnapshotStore::open(scratch("all_torn")).expect("store opens");
    let csr = generators::cycle(12).expect("cycles are valid").freeze();
    let bytes = csr.to_bytes();
    for epoch in 1u64..=3 {
        fs::write(store.path_for(epoch), &bytes[..bytes.len() / 3]).expect("writable");
    }
    let recovery = store.recover();
    assert!(recovery.durable.is_none(), "no clean snapshot must mean no durable generation");
    assert_eq!(recovery.skipped.len(), 3);
    for (path, error) in &recovery.skipped {
        assert!(
            matches!(error, GraphError::CorruptSnapshot { .. }),
            "{}: expected typed corruption, got {error:?}",
            path.display()
        );
    }
}

#[test]
fn persist_then_recover_round_trips_across_service_epochs() {
    // The publish-and-persist loop a deployment would run: every published
    // generation is persisted under its epoch; a restart recovers the newest.
    let store = SnapshotStore::open(scratch("epochs")).expect("store opens");
    let initial = generators::cycle(24).expect("cycles are valid").freeze();
    let service = RadiusQueryService::new(
        NaiveLargestId,
        Knowledge::none(),
        initial.clone(),
        Arc::new(TestClock::new()),
        ServiceConfig::default(),
    );
    store.persist(service.current_epoch(), &initial).expect("persist epoch 1");

    for seed in 0..3u64 {
        let next = shuffled_cycle(24, seed);
        let epoch = service.publish_csr(next.clone()).expect("publish succeeds");
        store.persist(epoch, &next).expect("persist published epoch");
    }

    let recovery = store.recover();
    let (epoch, durable) = recovery.durable.expect("the last publish is durable");
    assert_eq!(epoch, service.current_epoch());
    assert!(recovery.skipped.is_empty());
    let pinned = service.pin();
    assert_eq!(pinned.epoch(), epoch);
    assert_eq!(durable.node_count(), pinned.node_count());
}
