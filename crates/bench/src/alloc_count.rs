//! The counting global allocator the allocation-gated bench binaries
//! (`throughput_series`, `cache_series`) include with `#[path]`: every
//! `alloc`/`realloc`/`alloc_zeroed` bumps one relaxed atomic.
//!
//! The allocator is installed only with the `count-alloc` feature,
//! because the counter taxes every allocation in the process, including
//! the workload generator; without it [`total`] stays 0. It lives
//! outside the library, which forbids unsafe code.

use staged_sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Whether allocations are being counted (the `count-alloc` feature).
pub fn enabled() -> bool {
    cfg!(feature = "count-alloc")
}

/// Allocations made by the process so far.
pub fn total() -> u64 {
    ALLOCS.load(Ordering::Relaxed) // lint: allow(relaxed)
}

#[cfg(feature = "count-alloc")]
mod counting {
    use super::ALLOCS;
    use staged_sync::atomic::Ordering;
    use std::alloc::{GlobalAlloc, Layout, System};

    struct Counting;

    // SAFETY: delegates directly to `System`; the counter has no effect
    // on the returned pointers or layouts.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the caller's layout contract passes to `System`
            // unchanged.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator (which delegates
            // to `System`) with the same layout.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `ptr`/`layout` describe a live `System` block and
            // the caller guarantees `new_size` is valid.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the caller's layout contract passes to `System`
            // unchanged.
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;
}
