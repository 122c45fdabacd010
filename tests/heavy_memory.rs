//! Memory is part of the round engine's contract: beyond its result, a round
//! holds `O(n + block + leftover)` bytes, never a buffer sized by the number
//! of balls. This test runs `A_heavy` under a byte-counting allocator and
//! bounds the **peak live heap** of one call by a budget no `O(m)` buffer
//! fits in — a `Vec<u64>` of identities alone is 8 bytes per ball, a
//! `Vec<u32>` of targets another 4 — so neither can creep back unseen.
//!
//! The counter is a thin `#[global_allocator]` wrapper that counts **per
//! thread** (the pattern of `tests/zero_alloc_codec.rs`): libtest and any
//! neighbouring test allocate on their own threads, and the default
//! `HeavyAllocator` is sequential, so every byte of the call is charged to
//! the thread that makes it and to no other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parallel_balanced_allocations::prelude::*;

/// System allocator with per-thread live-byte and peak-live-byte counters.
struct ByteCountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching them from inside
    // the allocator neither allocates nor can find them torn down.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Charges `bytes` (negative on release) to the calling thread.
fn charge(bytes: isize) {
    let live = LIVE.with(|live| {
        live.set(live.get() + bytes);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter updates touch only thread-local `Cell`s.
unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: ByteCountingAlloc = ByteCountingAlloc;

/// The most bytes the calling thread had live at once while running `f`, over
/// what it held when `f` started.
fn peak_live_bytes_during<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let result = f();
    (result, PEAK.with(Cell::get) - before)
}

#[test]
fn a_heavy_call_peaks_under_four_bytes_per_ball() {
    let (m, n) = (1u64 << 20, 1usize << 8);
    let (outcome, peak) = peak_live_bytes_during(|| HeavyAllocator::default().allocate(m, n, 7));
    assert!(outcome.is_complete(m));
    let per_ball = peak as f64 / m as f64;
    println!("peak live heap {peak} B = {per_ball:.2} B/ball for m = {m}");
    assert!(
        peak < 4 * m as isize,
        "peak live heap {peak} B = {per_ball:.2} B/ball for m = {m}: an O(m) buffer is back"
    );
    // The counter does count: the result alone holds 4 + 8 bytes per bin.
    assert!(peak >= 12 * n as isize, "peak live heap {peak} B");
}
