//! Allocation gate for the sweep's trial loop: a trial re-labels the graph
//! its pool participant already holds instead of cloning the instance, so
//! the allocations one more trial costs are a fixed handful of per-trial
//! buffers (identifier tables, outputs, the measure fold), independent of
//! the node count. Cloning the instance per trial would cost at least one
//! allocation per node (its adjacency lists).
//!
//! Each participant clones the instance once, so the count depends on how
//! many participants join a sweep; the gate pins the pool to one
//! participant, which makes the count exact on any machine. The whole
//! binary holds exactly this one test so the counting allocator observes
//! nothing but the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use avglocal::prelude::*;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards `layout` unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's `ptr`/`layout` pair, whose validity is
    // the caller's `dealloc` contract, unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's arguments, whose validity is the
    // caller's `realloc` contract, unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by one largest-ID cycle sweep row of `trials` trials.
fn sweep_allocations(n: usize, trials: usize) -> u64 {
    let sweep = Sweep::on(Problem::LargestId, Topology::Cycle, vec![n])
        .with_policy(AssignmentPolicy::Random { base_seed: 3 })
        .with_trials(trials);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = sweep.run().expect("a largest-ID cycle sweep succeeds");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(result.rows[0].trials, trials);
    allocations
}

/// Allocations per trial beyond the first, averaged over 8 extra trials.
fn per_extra_trial(n: usize) -> u64 {
    const EXTRA: u64 = 8;
    let one = sweep_allocations(n, 1);
    let many = sweep_allocations(n, 1 + EXTRA as usize);
    (many - one) / EXTRA
}

#[test]
fn extra_sweep_trials_allocate_independently_of_n() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("the pool is pinned before its first use");
    // Warm-up: any one-time setup lands outside the measured sweeps.
    sweep_allocations(64, 2);

    let small = per_extra_trial(256);
    let large = per_extra_trial(4096);
    assert!(
        large < 4096 / 8,
        "one more trial must not allocate per node: {large} allocations per trial at n = 4096"
    );
    assert!(
        large.abs_diff(small) <= 4,
        "allocations per trial must not grow with n: {small} at n = 256, {large} at n = 4096"
    );
}
