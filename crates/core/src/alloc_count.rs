//! A counting [`GlobalAlloc`] wrapper around the system allocator,
//! compiled only with the `alloc-count` feature. Installed as the global
//! allocator of this crate's own unit tests (where it pins the training
//! step's allocations) and of `hwpr-bench`'s `alloc_free` proofs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts every `alloc`/`realloc` before delegating to [`System`].
pub struct CountingAllocator;

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Number of heap allocations since process start (every thread's).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The allocation count once no thread has allocated for a few
/// milliseconds. The test harness thread that starts a test (and reports
/// the previous one) may still be allocating when the test body begins,
/// so every measured window opens here.
pub fn settled_allocations() -> u64 {
    let mut seen = allocations();
    for _ in 0..200 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let now = allocations();
        if now == seen {
            break;
        }
        seen = now;
    }
    seen
}

#[cfg(test)]
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;
