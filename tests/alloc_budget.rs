//! Allocation and heap budgets of exploration.
//!
//! Every step of the explorer copies terms, places continuations and
//! canonicalizes the successor; on the unreduced `Pm3` ladder that is
//! most of a verification's work, and heap traffic is a large part of
//! its cost (two explorer threads contend on the allocator).  One test
//! pins how many heap allocations an explored edge may cost, so a change
//! that puts paths back on the heap or copies continuations once per
//! substitution fails here rather than only in a benchmark.  Another
//! pins the peak live heap of a campaign schedule, so a change that
//! makes decision-only explorations hold step descriptions or payloads
//! again fails here too.
//!
//! They live in their own test binary because it installs a counting
//! global allocator.  The counts are thread-local and each measured run
//! stays on one worker (the calling thread), so tests running
//! concurrently in other threads do not perturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spi_auth_repro::auth::{ReduceOptions, ScheduleOutcome, Verifier};
use spi_auth_repro::protocols::multi;

/// The system allocator, counting the calling thread's allocations and
/// tracking its live bytes and their high-water mark.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation that changes the live bytes by `delta`.
fn count(delta: i64) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    grow(delta);
}

/// Changes the live bytes by `delta`, raising the high-water mark.
fn grow(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are the caller's; counting touches only
// a thread-local `Cell` (const-initialized, with no destructor, so
// touching it never allocates or registers anything).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
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

/// At most this many bytes of live heap above the starting point while
/// one Pm3 campaign schedule is classified (about 26.8 MB when every
/// decision-only edge still held a full step description).
const SCHEDULE_PEAK_BYTES: i64 = 20_000_000;

#[test]
fn a_pm3_campaign_schedule_peaks_within_its_heap_budget() {
    let pm3 = multi::challenge_response("c", "observe");
    let pm = multi::abstract_protocol("c", "observe").unwrap();
    let verifier = Verifier::new(["c"]).sessions(2).no_intruder().workers(1);
    let mut opts = verifier.campaign_options(2);
    // Enumeration index 12 of the depth-2 campaign on `c` is the largest
    // schedule, `reorder:c:1+replay:c:1` (12,616 concrete states).
    opts.schedule_range = Some((12, 1));
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let report = verifier.run_campaign(&pm3, &pm, &opts).unwrap();
    let peak = PEAK.with(Cell::get) - start;
    assert_eq!(report.results.len(), 1);
    assert_eq!(report.results[0].key, "reorder:c:1+replay:c:1@1");
    assert!(
        matches!(report.results[0].outcome, ScheduleOutcome::Survives { .. }),
        "Pm3 survives the schedule: {report:?}"
    );
    assert!(
        peak <= SCHEDULE_PEAK_BYTES,
        "peak live heap {peak} bytes, budget {SCHEDULE_PEAK_BYTES}"
    );
}

#[test]
fn a_reused_canonicalizer_hashes_a_configuration_without_allocating() {
    use spi_auth_repro::semantics::{CanonHasher, Canonicalizer, Config};
    let pm3 = multi::challenge_response("c", "observe");
    let lts = Verifier::new(["c"])
        .sessions(2)
        .no_intruder()
        .workers(1)
        .explore(&pm3)
        .unwrap();
    // The configuration with the longest key: the most names to number.
    let cfg = (0..lts.stats.states)
        .map(|i| lts.config(i))
        .max_by_key(|c| c.canonical_key().len())
        .unwrap();
    let digest = |canon: &mut Canonicalizer, cfg: &Config| {
        canon.clear();
        let mut h = CanonHasher::new();
        cfg.write_canonical(canon, &mut h);
        h.finish()
    };
    let mut canon = Canonicalizer::new();
    let first = digest(&mut canon, cfg);
    let before = ALLOCS.with(Cell::get);
    let second = digest(&mut canon, cfg);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(second, first);
    assert!(canon.journal().len() > 1, "the key numbers restricted names");
    assert_eq!(allocs, 0, "the second key allocated {allocs} times");
}
