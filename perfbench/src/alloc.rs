//! Counting global allocator: allocations, bytes requested, and the
//! high-water mark of live heap bytes.
//!
//! Counters are process-wide relaxed atomics; they publish no other data.
//! Passes that run cells on several worker threads therefore see the sum of
//! all workers, which is what a pass-level figure wants.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counters are plain atomics that never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        grew(layout.size());
        // SAFETY: same contract as this method.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: same contract as this method.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: same contract as this method.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation counters at one instant.
#[derive(Copy, Clone, Debug)]
pub struct Snapshot {
    /// Allocations (including reallocations) so far.
    pub allocations: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// The counters now.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocations: ALLOCATIONS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restart the live-heap high-water mark from the current live bytes, and
/// return them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}
