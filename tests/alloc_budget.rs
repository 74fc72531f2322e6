//! Allocation budget of successor generation.
//!
//! Every step of the explorer copies terms, places continuations and
//! canonicalizes the successor; on the unreduced `Pm3` ladder that is
//! most of a verification's work, and heap traffic is a large part of
//! its cost (two explorer threads contend on the allocator).  This test
//! pins how many heap allocations an explored edge may cost, so a change
//! that puts paths back on the heap or copies continuations once per
//! substitution fails here rather than only in a benchmark.
//!
//! It lives in its own test binary because it installs a counting global
//! allocator.  The count is thread-local and the exploration runs on one
//! worker (the calling thread), so tests running concurrently in other
//! threads do not perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spi_auth_repro::auth::{ReduceOptions, Verifier};
use spi_auth_repro::protocols::multi;

/// The system allocator, counting the calling thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are the caller's; counting touches only
// a thread-local `Cell` (const-initialized, with no destructor, so
// touching it never allocates or registers anything).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// At most this many heap allocations per explored edge (about 20 when
/// this test was written; 68 with heap paths and one continuation copy
/// per substitution).
const BUDGET_PER_EDGE: u64 = 32;

#[test]
fn pm3_exploration_stays_within_its_allocation_budget() {
    let protocol = multi::challenge_response("c", "observe");
    let verifier = Verifier::new(["c"])
        .sessions(2)
        .workers(1)
        .reduce(ReduceOptions::none());
    let before = ALLOCS.with(Cell::get);
    let lts = verifier.explore(&protocol).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    let edges = lts.stats.edges as u64;
    // The unreduced Pm3 two-session space under the intruder.
    assert_eq!((lts.stats.states, lts.stats.edges), (5_605, 27_326));
    assert!(
        allocs <= BUDGET_PER_EDGE * edges,
        "{allocs} allocations for {edges} edges: {:.1} per edge, budget {BUDGET_PER_EDGE}",
        allocs as f64 / edges as f64
    );
}
