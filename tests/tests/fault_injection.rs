//! Fault injection against the executors, through the pool's failpoints.
//!
//! The `rayon` compat pool exposes a test-only failpoint facility
//! (`rayon::failpoints`): a plan armed on the publishing thread makes worker
//! chunks panic and/or stall on a schedule. These tests drive real
//! [`FrozenExecutor`] runs through injected panic storms and
//! delays to prove the robustness claims stated in the pool docs:
//!
//! * a panic storm never kills the process or wedges the pool;
//! * the panic (or typed error) re-thrown from a parallel run is the first
//!   one **in node order**, deterministically, however chunks interleave;
//! * a session remains fully usable — bit-identical results — after a
//!   poisoned run;
//! * a worker killed *outside* any job boundary (`failpoints::kill_workers`)
//!   is respawned by the pool supervisor and the pool keeps serving.
//!
//! CI runs this file under both `AVG_LOCAL_THREADS=1` (inline execution,
//! where injected panics propagate directly) and `AVG_LOCAL_THREADS=4` (the
//! work-stealing pool), so both execution paths face the same storms.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use avglocal::prelude::*;
use avglocal::runtime::examples::NaiveLargestId;
use avglocal::runtime::{BallAlgorithm, LocalView, RuntimeError};
use avglocal_integration_tests::shuffled_ring;
use proptest::prelude::*;
use rayon::failpoints::{arm, disarm, Plan};

/// Refuses to decide whenever the centre carries a marked identifier — those
/// nodes saturate their component and report `NonTerminating`.
struct RefuseMarked {
    refuse: HashSet<u64>,
}

impl BallAlgorithm for RefuseMarked {
    type Output = u64;

    fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<u64> {
        let id = view.center_identifier().value();
        if self.refuse.contains(&id) {
            None
        } else {
            Some(id)
        }
    }
}

/// Panics (on purpose) for every centre whose identifier is below the
/// threshold, naming the centre's (globally unique) identifier so payloads
/// are comparable across runs.
struct PanicBelow {
    threshold: u64,
}

impl BallAlgorithm for PanicBelow {
    type Output = u64;

    fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<u64> {
        let id = view.center_identifier().value();
        assert!(id >= self.threshold, "deliberate panic at id {id}");
        Some(id)
    }
}

/// The message carried by a caught panic, whatever payload type it used.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[test]
fn injected_panic_storms_leave_the_session_usable() {
    let graph = shuffled_ring(512, 9);
    let session = FrozenExecutor::new(&graph);
    let baseline = session.run(&NaiveLargestId, Knowledge::none()).unwrap();

    for round in 0..3 {
        // Every chunk claim panics: the entire run is one panic storm.
        arm(Plan::new().panic_every(1));
        let storm =
            catch_unwind(AssertUnwindSafe(|| session.run(&NaiveLargestId, Knowledge::none())));
        disarm();
        let payload = storm.expect_err("a full panic storm must surface as a panic");
        assert!(
            payload_message(payload.as_ref()).contains("injected failpoint panic"),
            "round {round}: unexpected payload"
        );

        // The poisoned session keeps answering, bit-identically.
        let after = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
        assert_eq!(after.outputs(), baseline.outputs(), "round {round}");
        assert_eq!(after.radii(), baseline.radii(), "round {round}");
    }
}

#[test]
fn algorithm_panics_rethrow_the_first_node_in_order() {
    let graph = shuffled_ring(384, 21);
    let session = FrozenExecutor::new(&graph);
    // Roughly a quarter of the nodes panic; the payload re-thrown must name
    // the first panicking node in *index* order (via its unique identifier),
    // not whichever worker happened to fail first.
    let threshold = 96;
    let expected_id = (0..graph.node_count())
        .map(|v| graph.identifier(NodeId::new(v)).value())
        .find(|&id| id < threshold)
        .expect("some node carries a small identifier");
    let algorithm = PanicBelow { threshold };

    for round in 0..4 {
        let caught = catch_unwind(AssertUnwindSafe(|| session.run(&algorithm, Knowledge::none())));
        let payload = caught.expect_err("marked nodes must panic the run");
        assert_eq!(
            payload_message(payload.as_ref()),
            format!("deliberate panic at id {expected_id}"),
            "round {round}"
        );
    }
}

#[test]
fn first_typed_error_in_node_order_survives_delay_injection() {
    let graph = shuffled_ring(256, 5);
    let session = FrozenExecutor::new(&graph);
    // Mark three identifiers scattered across the ring; the reported
    // `NonTerminating` node must be the smallest index among them.
    let marked: HashSet<u64> =
        [40, 170, 230].iter().map(|&v| graph.identifier(NodeId::new(v)).value()).collect();
    let algorithm = RefuseMarked { refuse: marked };

    let want = session
        .run_sequential(&algorithm, Knowledge::none())
        .expect_err("refusing nodes must error");
    assert_eq!(want, RuntimeError::NonTerminating { node: NodeId::new(40) });

    for round in 0..4 {
        arm(Plan::new().delay_every(3, 80));
        let got = session.run(&algorithm, Knowledge::none());
        disarm();
        let got = got.expect_err("refusing nodes must error");
        assert_eq!(got, want, "round {round}");
    }
}

#[test]
fn killed_workers_are_respawned_and_the_pool_keeps_serving() {
    // Inline execution has no worker threads to kill; the supervisor path
    // only exists on a real pool.
    if rayon::current_num_threads() < 2 {
        return;
    }
    let graph = shuffled_ring(256, 3);
    let session = FrozenExecutor::new(&graph);
    let baseline = session.run(&NaiveLargestId, Knowledge::none()).unwrap();

    let before = rayon::pool::worker_respawn_count();
    rayon::failpoints::kill_workers(2);

    // Keep submitting jobs until both kill tokens have been consumed (each
    // kills one worker at a job boundary) and the supervisor has respawned
    // the casualties. Every run that completes meanwhile must stay
    // bit-identical — a dying worker never corrupts or wedges a job.
    let mut rounds = 0usize;
    while rayon::pool::worker_respawn_count() < before + 2 {
        let run = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
        assert_eq!(run.outputs(), baseline.outputs(), "round {rounds}");
        assert_eq!(run.radii(), baseline.radii(), "round {rounds}");
        rounds += 1;
        assert!(rounds < 500, "kill tokens never consumed after {rounds} runs");
    }

    // The fully respawned pool still serves, bit-identically.
    for round in 0..3 {
        let after = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
        assert_eq!(after.outputs(), baseline.outputs(), "post-respawn round {round}");
        assert_eq!(after.radii(), baseline.radii(), "post-respawn round {round}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random delay plans perturb which worker claims which chunk when;
    /// outputs and radii must stay bit-identical to the sequential reference.
    #[test]
    fn delayed_interleavings_stay_bit_identical_to_sequential(
        n in 8usize..160,
        seed in 0u64..64,
        every in 1u64..5,
        micros in 0u64..150,
    ) {
        let graph = shuffled_ring(n, seed);
        let session = FrozenExecutor::new(&graph);
        let want = session.run_sequential(&NaiveLargestId, Knowledge::none()).unwrap();

        arm(Plan::new().delay_every(every, micros));
        let stealing = session.run(&NaiveLargestId, Knowledge::none());
        disarm();

        let stealing = stealing.unwrap();
        prop_assert_eq!(stealing.outputs(), want.outputs());
        prop_assert_eq!(stealing.radii(), want.radii());
    }
}
