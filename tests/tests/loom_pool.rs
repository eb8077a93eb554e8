//! Model-checking suite for the `compat/rayon` worker pool.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg avg_local_loom"`,
//! which swaps the pool's synchronization seam (`compat/rayon/src/sync.rs`)
//! to the vendored `compat/loom` checker. Every test below DFS-explores all
//! thread interleavings of a small pool protocol instance within the
//! default preemption bound and fails on any data race (memory-ordering
//! aware — a racy `Relaxed` publication is caught even on schedules where
//! the accesses happen to land safely), deadlock, or assertion violation.
//!
//! What this suite proves about `pool.rs`, exhaustively at model size:
//!
//! * the enter-under-injector-lock / remove-before-wait / `inside`-count
//!   job-lifetime protocol: the caller's teardown never races a worker still
//!   inside the job (any such race would be reported on the job's cells);
//! * `MaybeUninit` soundness of the output slots: every claimed index is
//!   written exactly once, and each write happens-before the caller's read
//!   (the model-side `collect_outputs` reads every slot through the
//!   instrumented cell);
//! * panic capture: a panicking work item is contained, the pool state
//!   stays usable, and the propagated payload is the panicking item with
//!   the smallest index, on every interleaving.

#![cfg(avg_local_loom)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rayon::pool::{run_chunked_on, worker_step, Shared};

/// Silences the default panic hook around `f`: the pool tests below inject
/// panicking work items whose unwinds are caught by the pool's own
/// `catch_unwind`, and the default hook would print a backtrace for each of
/// the hundreds of explored schedules.
fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(hook);
    result
}

/// A model worker: a spawned thread making `steps` bounded injector scans
/// (enter under the lock, run without it) — `worker_loop` minus the blocking
/// wait, so every model iteration terminates.
fn spawn_worker(shared: &Arc<Shared>, index: usize, steps: usize) -> loom::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    loom::thread::spawn(move || {
        for _ in 0..steps {
            worker_step(&shared, index);
        }
    })
}

#[test]
fn chunk_job_outputs_written_exactly_once_and_in_order() {
    loom::model(|| {
        let shared = Arc::new(Shared::with_threads(2));
        let runs_per_index: Arc<Vec<AtomicUsize>> =
            Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());
        let worker = spawn_worker(&shared, 1, 2);
        let counts = Arc::clone(&runs_per_index);
        // len 2, so chunk_size is 1: two independently claimable chunks.
        let results = run_chunked_on(
            &shared,
            2,
            || (),
            move |(), i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
                i * 10
            },
        );
        worker.join().unwrap();
        // Deterministic by position, no matter who claimed what…
        assert_eq!(results, vec![0, 10]);
        // …and every index was processed exactly once.
        for counter in runs_per_index.iter() {
            assert_eq!(counter.load(Ordering::Relaxed), 1);
        }
    });
}

#[test]
fn chunk_job_reuses_one_state_per_participant() {
    loom::model(|| {
        let shared = Arc::new(Shared::with_threads(2));
        let inits = Arc::new(AtomicUsize::new(0));
        let worker = spawn_worker(&shared, 1, 2);
        let init_count = Arc::clone(&inits);
        let results = run_chunked_on(
            &shared,
            2,
            move || init_count.fetch_add(1, Ordering::Relaxed),
            |state, i| (*state, i),
        );
        worker.join().unwrap();
        // At most one lazily-built state per participant, and every result
        // is tagged with a valid participant state id.
        let states_built = inits.load(Ordering::Relaxed);
        assert!((1..=2).contains(&states_built), "built {states_built} states");
        for (index, (state_id, i)) in results.into_iter().enumerate() {
            assert!(state_id < states_built);
            assert_eq!(i, index);
        }
    });
}

#[test]
fn panicking_item_is_contained_and_pool_survives() {
    quiet_panics(|| {
        loom::model(|| {
            let shared = Arc::new(Shared::with_threads(2));
            let worker = spawn_worker(&shared, 1, 2);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_chunked_on(
                    &shared,
                    2,
                    || (),
                    |(), i| {
                        if i == 0 {
                            panic!("item 0 failed");
                        }
                        i
                    },
                )
            }));
            let payload = outcome.expect_err("index 0 always panics");
            let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "item 0 failed");
            worker.join().unwrap();
            // The same pool state is still fully usable afterwards.
            let results = run_chunked_on(&shared, 2, || (), |(), i| i + 1);
            assert_eq!(results, vec![1, 2]);
        });
    });
}

#[test]
fn smallest_index_panic_wins_on_every_interleaving() {
    quiet_panics(|| {
        loom::model(|| {
            let shared = Arc::new(Shared::with_threads(2));
            let worker = spawn_worker(&shared, 1, 2);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_chunked_on(&shared, 2, || (), |(), i| -> usize { panic!("item {i} failed") })
            }));
            // Both items panic; with chunk size 1 the two panics can be
            // recorded in either order, but the *propagated* payload must be
            // index 0's on every schedule (first-in-node-order selection).
            let payload = outcome.expect_err("every item panics");
            let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(message, "item 0 failed");
            worker.join().unwrap();
        });
    });
}

/// Scheduler-regression canary (see the sibling canaries in
/// `compat/loom/tests/model.rs`): pins the size of the explored schedule
/// space for the smallest real pool model, one two-item chunk job with one
/// model worker. A change to the scheduler, the preemption bounding, or the
/// pool's operation count shifts this number — update it deliberately,
/// never to make CI pass.
#[test]
fn exploration_canary_chunk_job() {
    let stats = loom::Builder::default().check(|| {
        let shared = Arc::new(Shared::with_threads(2));
        let worker = spawn_worker(&shared, 1, 1);
        let results = run_chunked_on(&shared, 2, || (), |(), i| i);
        assert_eq!(results, vec![0, 1]);
        worker.join().unwrap();
    });
    assert_eq!(stats.iterations, CANARY_CHUNK_JOB);
}

/// Pinned schedule-space size for the canary model above, at the default
/// preemption bound of 2.
const CANARY_CHUNK_JOB: usize = 187;
