//! Bins as atomic counters.
//!
//! The threshold rule "a bin with load `ℓ` accepts up to `T − ℓ` requests" maps
//! directly onto a bounded atomic increment: a ball's request succeeds iff the
//! bin's counter was still below the threshold at the moment of the
//! compare-and-swap. Which of several concurrent requesters wins is decided by
//! the hardware — the paper's "arbitrary subset" rule — so the shared-memory
//! execution is a legitimate member of the same algorithm family.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::padded::CachePadded;

/// A fixed-size array of atomic bin load counters.
///
/// Each counter is [`CachePadded`] onto its own cache line: concurrent
/// routers hammer *different* bins from different threads, and without
/// padding sixteen `AtomicU32`s share one 64-byte line, so every placement
/// invalidates the line under fifteen innocent neighbours (false sharing).
/// The cost is 64 bytes per bin instead of 4 — cheap at the bin counts the
/// experiments run, and bounded by the caller choosing `n`.
#[derive(Debug, Default)]
pub struct AtomicBins {
    loads: Vec<CachePadded<AtomicU32>>,
}

impl AtomicBins {
    /// Creates `n` empty bins.
    pub fn new(n: usize) -> Self {
        Self {
            loads: (0..n)
                .map(|_| CachePadded::new(AtomicU32::new(0)))
                .collect(),
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True when there are no bins.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Attempts to place one ball into `bin` subject to the cumulative threshold
    /// `threshold`. Returns `true` on success. Lock-free; linearises on the
    /// bin's counter.
    pub fn try_acquire(&self, bin: usize, threshold: u32) -> bool {
        self.loads[bin]
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |current| {
                if current < threshold {
                    Some(current + 1)
                } else {
                    None
                }
            })
            .is_ok()
    }

    /// Unconditionally places one ball into `bin` (no threshold). Used by the
    /// streaming engine, whose policies decide the bin *before* the increment.
    pub fn add(&self, bin: usize) -> u32 {
        self.loads[bin].fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Unconditionally places `count` balls into `bin` with one atomic
    /// increment; returns the new load. The batched form of
    /// [`AtomicBins::add`], used when a commit groups placements per bin
    /// (e.g. seeding resident loads) so the counter is touched once instead
    /// of `count` times.
    pub fn add_many(&self, bin: usize, count: u32) -> u32 {
        self.loads[bin].fetch_add(count, Ordering::AcqRel) + count
    }

    /// Removes one ball from `bin` if it is non-empty (ball departure in
    /// dynamic/streaming workloads). Returns `false` when the bin was empty.
    pub fn try_release(&self, bin: usize) -> bool {
        self.loads[bin]
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |current| {
                current.checked_sub(1)
            })
            .is_ok()
    }

    /// Removes up to `count` balls from `bin` with one CAS loop; returns how
    /// many were actually released (fewer than `count` only when the bin ran
    /// out). The batched form of [`AtomicBins::try_release`]: the whole
    /// decrement linearises at a single successful compare-and-swap, so
    /// concurrent releasers can never drive a bin negative between them.
    pub fn try_release_many(&self, bin: usize, count: u32) -> u32 {
        let mut released = 0;
        let _ = self.loads[bin].fetch_update(Ordering::AcqRel, Ordering::Acquire, |current| {
            released = current.min(count);
            Some(current - released)
        });
        released
    }

    /// Current load of `bin` (relaxed read; exact once the round has quiesced).
    pub fn load(&self, bin: usize) -> u32 {
        self.loads[bin].load(Ordering::Acquire)
    }

    /// Snapshot of all loads.
    pub fn snapshot(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Snapshot of all loads into a caller-owned vector (overwritten), so a
    /// caller that snapshots repeatedly allocates once.
    pub fn snapshot_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.loads.iter().map(|l| l.load(Ordering::Acquire)));
    }

    /// Sum of all loads.
    pub fn total(&self) -> u64 {
        self.loads
            .iter()
            .map(|l| l.load(Ordering::Acquire) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_acquire_respects_threshold() {
        let bins = AtomicBins::new(2);
        for _ in 0..5 {
            assert!(bins.try_acquire(0, 5));
        }
        assert!(!bins.try_acquire(0, 5));
        assert_eq!(bins.load(0), 5);
        assert_eq!(bins.load(1), 0);
        // Raising the threshold allows more.
        assert!(bins.try_acquire(0, 6));
        assert_eq!(bins.load(0), 6);
        assert_eq!(bins.total(), 6);
        assert_eq!(bins.snapshot(), vec![6, 0]);
    }

    #[test]
    fn add_and_release_roundtrip() {
        let bins = AtomicBins::new(2);
        assert_eq!(bins.add(0), 1);
        assert_eq!(bins.add(0), 2);
        assert_eq!(bins.add(1), 1);
        assert!(bins.try_release(0));
        assert_eq!(bins.load(0), 1);
        assert!(bins.try_release(0));
        assert!(!bins.try_release(0), "empty bin must not go negative");
        assert_eq!(bins.load(0), 0);
        assert_eq!(bins.total(), 1);
    }

    #[test]
    fn batched_add_and_release_clamp_at_zero() {
        let bins = AtomicBins::new(2);
        assert_eq!(bins.add_many(0, 5), 5);
        assert_eq!(bins.add_many(0, 3), 8);
        assert_eq!(bins.add_many(1, 0), 0, "a zero add is a no-op");
        assert_eq!(bins.try_release_many(0, 3), 3);
        assert_eq!(bins.load(0), 5);
        // Releasing more than resident drains the bin and reports the truth.
        assert_eq!(bins.try_release_many(0, 100), 5);
        assert_eq!(bins.load(0), 0);
        assert_eq!(bins.try_release_many(0, 1), 0, "empty bin releases nothing");
        assert_eq!(bins.total(), 0);
    }

    #[test]
    fn concurrent_batched_releases_conserve() {
        // 4 threads release in chunks of 3 from a bin holding 100: exactly
        // 100 releases must succeed in total, never driving the bin negative.
        let bins = Arc::new(AtomicBins::new(1));
        bins.add_many(0, 100);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let bins = Arc::clone(&bins);
            handles.push(std::thread::spawn(move || {
                let mut released = 0u32;
                for _ in 0..20 {
                    released += bins.try_release_many(0, 3);
                }
                released
            }));
        }
        let released: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(released, 100);
        assert_eq!(bins.load(0), 0);
    }

    #[test]
    fn counters_do_not_share_cache_lines() {
        let bins = AtomicBins::new(4);
        for pair in bins.loads.windows(2) {
            let a = &*pair[0] as *const AtomicU32 as usize;
            let b = &*pair[1] as *const AtomicU32 as usize;
            assert_eq!(a % 64, 0, "counter not line-aligned");
            assert!(b - a >= 64, "adjacent bin counters share a cache line");
        }
    }

    #[test]
    fn empty_and_len() {
        let bins = AtomicBins::new(0);
        assert!(bins.is_empty());
        assert_eq!(bins.len(), 0);
        let bins = AtomicBins::new(3);
        assert!(!bins.is_empty());
        assert_eq!(bins.len(), 3);
    }

    #[test]
    fn concurrent_acquires_never_exceed_threshold() {
        // 8 threads hammer a single bin with threshold 1000; exactly 1000 must win.
        let bins = Arc::new(AtomicBins::new(1));
        let threshold = 1000u32;
        let mut handles = Vec::new();
        for _ in 0..8 {
            let bins = Arc::clone(&bins);
            handles.push(std::thread::spawn(move || {
                let mut wins = 0u32;
                for _ in 0..500 {
                    if bins.try_acquire(0, threshold) {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total_wins: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total_wins, threshold);
        assert_eq!(bins.load(0), threshold);
    }

    #[test]
    fn concurrent_acquires_across_many_bins_conserve_totals() {
        let n = 64usize;
        let bins = Arc::new(AtomicBins::new(n));
        let cap = 10u32;
        let mut handles = Vec::new();
        for t in 0..4 {
            let bins = Arc::clone(&bins);
            handles.push(std::thread::spawn(move || {
                let mut accepted = 0u64;
                for i in 0..n as u64 * 20 {
                    let bin = ((i * 31 + t * 17) % n as u64) as usize;
                    if bins.try_acquire(bin, cap) {
                        accepted += 1;
                    }
                }
                accepted
            }));
        }
        let accepted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(accepted, bins.total());
        assert_eq!(bins.total(), (n as u64) * cap as u64);
        assert!(bins.snapshot().iter().all(|&l| l == cap));
    }
}
