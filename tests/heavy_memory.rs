//! Memory is part of the round engine's contract: beyond its result, a round
//! holds `O(n + leftover)` bytes, never a buffer sized by the number of balls.
//! This test runs `A_heavy` under a byte-counting allocator and bounds the
//! **peak live heap** of one call by a budget no `O(m)` buffer fits in — a
//! `Vec<u64>` of identities alone is 8 bytes per ball, a `Vec<u32>` of targets
//! another 4 — so neither can creep back unseen.
//!
//! The counter is the per-thread `#[global_allocator]` of
//! `tests/support/counting_alloc.rs`: libtest and any neighbouring test
//! allocate on their own threads, and the default `HeavyAllocator` is
//! sequential, so every byte of the call is charged to the thread that makes
//! it and to no other.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::peak_live_bytes_during;
use parallel_balanced_allocations::prelude::*;

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
