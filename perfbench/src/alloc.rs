//! A counting global allocator (all threads), armed only in traced runs
//! so untraced runs pay one relaxed load per allocation and never write
//! a shared cache line. The benchmark's own work (generating messages,
//! verifying deliveries) runs inside [`harness`] and is not counted, so
//! the count is the bus's allocations on every thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_HARNESS: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.load(Ordering::Relaxed) && !IN_HARNESS.try_with(Cell::get).unwrap_or(true) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs benchmark-side work whose allocations are not the bus's.
pub fn harness<R>(f: impl FnOnce() -> R) -> R {
    let outer = IN_HARNESS.with(|h| h.replace(true));
    let r = f();
    IN_HARNESS.with(|h| h.set(outer));
    r
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a statistics counter, which touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as our caller's (`layout` is non-zero size).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's, under the same contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting; returns the count so far.
pub fn arm() -> u64 {
    ARMED.store(true, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

/// Stops counting; returns the count so far.
pub fn disarm() -> u64 {
    ARMED.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}
