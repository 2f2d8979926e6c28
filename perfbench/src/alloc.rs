//! Heap-allocation counting for the separate `allocs_per_unit` passes.
//!
//! The repository's `count-allocs` feature (`doqlab_simnet::alloc_count`)
//! installs a counting allocator for the whole binary that increments one
//! process-wide atomic on every allocation, so with two workers every
//! allocation of the timed passes writes one cache line both cores share.
//! Built with that feature instead, the benchmark counted the same
//! allocations, but the timed passes of `handshake` and `lossy` ran about
//! a fifth slower on a 2-vCPU VM (README.md, "Allocation counting") —
//! more than any bound. This allocator counts the same events — `alloc`,
//! `alloc_zeroed` and `realloc`, never `dealloc` — on a per-thread
//! counter, and only while [`set_counting`] has switched it on: timed
//! passes pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Switch counting on or off, for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted on the calling thread so far.
pub fn thread_allocations() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn record() {
        if COUNTING.load(Ordering::Relaxed) {
            // try_with: the slot may already be gone during thread
            // teardown; losing those counts is fine.
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter update neither
// allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_switched_on() {
        set_counting(true);
        let before = thread_allocations();
        let v: Vec<u8> = Vec::with_capacity(64);
        assert!(v.capacity() >= 64);
        assert_eq!(thread_allocations(), before + 1);
        set_counting(false);
        let off = thread_allocations();
        let w: Vec<u8> = Vec::with_capacity(64);
        assert!(w.capacity() >= 64);
        assert_eq!(thread_allocations(), off);
    }
}
