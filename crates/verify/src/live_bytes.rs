//! The unit tests' counting global allocator: the calling thread's live
//! heap bytes, so a test can bound what a finished structure retains.
//!
//! The count is thread-local, so tests running concurrently in other
//! threads do not perturb it; a measured computation must run on the
//! calling thread alone (one explorer worker).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, tracking the calling thread's live bytes.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(delta: i64) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are the caller's; counting touches only a
// thread-local `Cell` (const-initialized, with no destructor, so
// touching it never allocates or registers anything).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The calling thread's live heap bytes: what it allocated minus what it
/// freed (meaningful as a difference between two readings).
pub(crate) fn live() -> i64 {
    LIVE.with(Cell::get)
}
