//! The counting allocator behind every `*.allocs_per_*` metric: the system
//! allocator plus one process-wide counter of `alloc`/`realloc` calls,
//! modelled on `tests/zero_alloc_codec.rs`. Counting is switched on only
//! for the traced pass; switched off, each allocation pays one relaxed load,
//! so the untraced end-to-end numbers are taken on an allocator that does
//! what `System` does.
//!
//! The counter sees every thread — the reactor's included, which is the
//! point of `reactor.allocs_per_req` — so a count is exact only while the
//! threads a measurement does not mean to charge are idle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// System allocator with a switchable allocation counter.
pub struct CountingAlloc;

// Both are statistics that publish no other data, hence `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is atomic counter
// traffic, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`, `layout` and `new_size` obligations are passed
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off (process-wide).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far; read it at two boundaries and subtract.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, because the switch is process-wide and libtest runs tests on
    // parallel threads: no other test in this binary touches the switch, so
    // "off" is exact here, and "on" is a lower bound (other tests' heap
    // traffic may be counted too).
    #[test]
    fn counts_only_while_switched_on() {
        let before = allocations();
        let off: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 32]).collect();
        assert_eq!(allocations(), before, "switched off: nothing is counted");
        set_counting(true);
        let on: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 32]).collect();
        set_counting(false);
        let counted = allocations() - before;
        assert!(counted >= 65, "64 buffers and their holder, got {counted}");
        let settled = allocations();
        drop((off, on));
        assert_eq!(allocations(), settled, "frees are never counted");
    }
}
