//! Counting `#[global_allocator]`: every heap allocation of the process
//! (driver thread and pool workers alike) bumps four process-wide
//! counters. Allocation counts are the benchmark's deterministic
//! host-side cost — unlike time they repeat run to run, so they are
//! gated tightly (see `metrics::END_TO_END`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts on the way.
pub struct CountingAlloc;

// Statistics only — none of these publishes other data, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the trait's contract for `alloc` is `System`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: the trait's contract for `alloc_zeroed` is `System`'s own.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: the trait's contract for `dealloc` is `System`'s own.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by
        // `System`) for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    // SAFETY: the trait's contract for `realloc` is `System`'s own.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator and `new_size`
        // is the caller's obligation, both passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// A reading of the allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls since process start (a `realloc` counts one).
    pub allocs: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
}

impl AllocSnapshot {
    /// `(allocs, bytes)` requested between `earlier` and `self`.
    pub fn since(&self, earlier: &AllocSnapshot) -> (u64, u64) {
        (self.allocs - earlier.allocs, self.bytes - earlier.bytes)
    }
}

/// Reads the counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    }
}

/// Restarts high-water tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// High-water live bytes since the last [`reset_peak`].
pub fn peak_live() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
