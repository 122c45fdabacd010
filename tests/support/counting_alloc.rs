//! The counting `#[global_allocator]` of the heap-traffic tests: a thin
//! wrapper over `System` that counts, **per thread**, the allocations it
//! serves, the bytes live and the peak of live bytes. libtest runs a file's
//! tests on parallel threads (and allocates on its own), so a process-wide
//! count would charge one test with its neighbours' heap traffic; each
//! measuring thread reads only its own counts.
//!
//! A test file takes it in with
//! `#[path = "support/counting_alloc.rs"] mod counting_alloc;`.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with per-thread allocation, live-byte and peak counters.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching them from inside
    // the allocator neither allocates nor can find them torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Charges `allocations` and `bytes` (negative on release) to the calling
/// thread.
fn charge(allocations: u64, bytes: isize) {
    ALLOCATIONS.with(|count| count.set(count.get() + allocations));
    let live = LIVE.with(|live| {
        live.set(live.get() + bytes);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter updates touch only thread-local `Cell`s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(1, layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge(0, -(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(1, new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations (reallocations included) the calling thread performed while
/// running `f`.
pub fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Bytes the calling thread has live now (what it allocated minus what it
/// freed, since it started).
pub fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// The most bytes the calling thread had live at once while running `f`, over
/// what it held when `f` started.
pub fn peak_live_bytes_during<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let before = live_bytes();
    PEAK.with(|peak| peak.set(before));
    let result = f();
    (result, PEAK.with(Cell::get) - before)
}
