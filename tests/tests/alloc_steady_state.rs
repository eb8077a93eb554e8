//! Verifies the acceptance criterion that the incremental [`BallGrower`]
//! performs **no heap allocation in the steady state**: once its scratch
//! buffers have warmed up on one full-component growth, re-centring and
//! re-growing (the per-node probe loop of the executor) must not allocate.
//!
//! The whole binary holds exactly this one test so the counting allocator
//! observes nothing but the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use avglocal::algorithms::LargestId;
use avglocal::graph::BallGrower;
use avglocal::prelude::*;
use avglocal::runtime::{BallAlgorithm, Knowledge, LocalView};

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

#[test]
fn grower_steady_state_does_not_allocate() {
    let n = 512usize;
    let graph = topology_with_assignment(&Topology::Cycle, n, &IdAssignment::Identity)
        .expect("a 512-cycle is a valid instance");
    let csr = graph.freeze();
    let knowledge = Knowledge::none();

    // Warm-up: one full growth sizes every scratch buffer to its maximum
    // (the component has the same size from every centre).
    let mut grower = BallGrower::new(&csr, NodeId::new(0));
    while !grower.is_saturated() {
        grower.grow();
    }

    // Steady state: the exact probe loop the executor drives per node —
    // reset, consult the algorithm on the lazy view at each radius, grow.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut decisions = 0usize;
    for center in 0..n {
        grower.reset(NodeId::new(center));
        loop {
            let view = LocalView::from_grower(&grower);
            if let Some(_decision) = LargestId.decide(&view, &knowledge) {
                decisions += 1;
                break;
            }
            assert!(!view.is_saturated(), "largest-ID always decides on a saturated view");
            grower.grow();
        }
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(decisions, n);
    assert_eq!(
        allocations, 0,
        "the incremental probe loop must not allocate in the steady state \
         ({allocations} allocations over {n} nodes)"
    );
}
