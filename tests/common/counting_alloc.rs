//! The counting allocator of the allocation-budget and store-footprint
//! tests. Each of those binaries includes this file and declares
//! [`CountingAlloc`] its `#[global_allocator]`; it counts allocation calls
//! per thread and process-wide, and tracks the bytes currently live.
#![allow(dead_code)] // each binary reads the counters it needs

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocation calls made by this thread (a `realloc` counts as one).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread asked for (a `realloc` counts its new size).
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

// Statistics: neither publishes other data, so `Relaxed`.
/// Allocation calls made by the whole process.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting on the way.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    // `try_with`: a thread that is tearing down has no counter left, and
    // nothing measured runs there.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + size as u64));
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

fn on_free(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// integers, touch no allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the trait's contract for `alloc` is `System`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the trait's contract for `alloc_zeroed` is `System`'s own.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the trait's contract for `dealloc` is `System`'s own.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` was returned by this allocator (hence by
        // `System`) for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the trait's contract for `realloc` is `System`'s own.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator and `new_size`
        // is the caller's obligation, both passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the bytes it asked the allocator
/// for on this thread.
pub fn counted_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_BYTES.with(Cell::get);
    let out = f();
    (out, ALLOC_BYTES.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the allocations the process made
/// meanwhile: `f`'s own, on whatever threads, when nothing else runs.
pub fn counted_process_wide<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = PROCESS_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, PROCESS_ALLOCS.load(Ordering::Relaxed) - before)
}

/// Bytes of heap live right now, process-wide.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}
