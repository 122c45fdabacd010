//! The shard layer: bins partitioned into contiguous shards.
//!
//! Load counters live in one flat [`AtomicBins`] array (the same lock-free
//! bounded-increment substrate the concurrent executor uses), so placements
//! from any thread are linearisable without locks. Each shard additionally
//! owns a small mutex-guarded bookkeeping record ([`ShardStats`]) — accepted /
//! departed totals and the peak load ever observed in the shard — which the
//! grouped commits update once per (shard, group), keeping lock traffic
//! negligible.

use std::sync::Mutex;

use pba_concurrent::AtomicBins;

/// Per-shard bookkeeping, updated under the shard's lock.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Balls placed into this shard over the stream's lifetime.
    pub accepted: u64,
    /// Balls departed from this shard.
    pub departed: u64,
    /// Highest load ever observed on a bin of this shard.
    pub peak_load: u32,
}

/// Reusable scratch of a grouped commit — [`ShardedBins::place_unrecorded_with`]
/// and then [`ShardedBins::settle_group_with`], the commit of every drained
/// batch and every served sub-group — owned by whoever commits repeatedly (an
/// engine's drain side, a caller thread), so a warmed commit allocates
/// nothing. Every counter in it is zero between commits.
#[derive(Debug, Default)]
pub struct SettleScratch {
    /// Balls of the group per bin.
    delta: Vec<u32>,
    /// Room for the bins with a non-zero delta, in first-touch order (as
    /// long as the longest group counted so far).
    touched: Vec<u32>,
    /// Per bin, during a settle that walks the request order: the running
    /// load relative to the group's start, and its largest value at a place
    /// — `(0, i32::MIN)` between commits; empty until a group interleaves.
    running: Vec<(i32, i32)>,
    /// Per shard: the bookkeeping the open group owes it, zero between
    /// commits (the place half counts `accepted`).
    settled: Vec<ShardStats>,
}

/// Counts `bins` into `delta` (one slot per bin of an `n`-bin array, all zero
/// on entry and on return) and calls `commit(bin, count)` once per distinct
/// bin, in first-touch order. Counting costs a plain increment per ball;
/// everything that needs an atomic or a lock then happens per distinct bin.
fn for_each_distinct(
    bins: &[u32],
    n: usize,
    delta: &mut Vec<u32>,
    touched: &mut Vec<u32>,
    mut commit: impl FnMut(usize, u32),
) {
    delta.resize(n, 0);
    // Every ball writes its bin at the end of the touched list and only a
    // first touch advances the end: whether a ball is its bin's first is a
    // coin flip the branch predictor loses, so there is no branch.
    if touched.len() < bins.len() {
        touched.resize(bins.len(), 0);
    }
    let mut distinct = 0;
    for &bin in bins {
        let count = &mut delta[bin as usize];
        touched[distinct] = bin;
        distinct += (*count == 0) as usize;
        *count += 1;
    }
    for &bin in &touched[..distinct] {
        commit(bin as usize, std::mem::take(&mut delta[bin as usize]));
    }
}

/// `n` bins split into `shards` contiguous ranges.
#[derive(Debug)]
pub struct ShardedBins {
    bins: AtomicBins,
    shards: usize,
    stats: Vec<Mutex<ShardStats>>,
}

impl ShardedBins {
    /// Creates `n` empty bins in `shards` shards (clamped to `[1, n]`).
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        Self {
            bins: AtomicBins::new(n),
            shards,
            stats: (0..shards)
                .map(|_| Mutex::new(ShardStats::default()))
                .collect(),
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when there are no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning `bin`: `⌊bin·S/n⌋`, the inverse of [`Self::shard_start`].
    pub fn shard_of(&self, bin: usize) -> usize {
        debug_assert!(bin < self.len());
        bin * self.shards / self.len()
    }

    /// First bin of shard `s`: `⌈s·n/S⌉` (so shard `s` owns
    /// `[start(s), start(s+1))`, consistent with [`Self::shard_of`]).
    pub fn shard_start(&self, s: usize) -> usize {
        (s * self.len()).div_ceil(self.shards)
    }

    /// Places one ball into `bin` and updates the owning shard's stats — a
    /// migration's commit; routes, a single one included, go through
    /// [`ShardedBins::place_unrecorded_with`].
    pub fn place(&self, bin: usize) {
        let new_load = self.bins.add(bin);
        let mut stats = self.stats[self.shard_of(bin)].lock().expect("shard lock");
        stats.accepted += 1;
        stats.peak_load = stats.peak_load.max(new_load);
    }

    /// Places `count` balls into `bin` with **one** atomic increment (no
    /// shard stats; the engine folds them in when it seeds); returns the new
    /// load. Used when whole per-bin populations are committed at once, e.g.
    /// seeding resident loads.
    pub fn place_many_unrecorded(&self, bin: usize, count: u32) -> u32 {
        self.bins.add_many(bin, count)
    }

    /// Places a group of balls — one entry of `bins` per ball — with **one**
    /// atomic increment per distinct bin and one stats-lock acquisition per
    /// touched shard: the grouped commit's pair, on a scratch of its own.
    /// Equivalent to calling [`ShardedBins::place`] once per entry. The
    /// allocating convenience form, for callers that commit a group once.
    pub fn place_group(&self, bins: &[u32]) {
        let mut scratch = SettleScratch::default();
        self.place_unrecorded_with(bins, &mut scratch, |_, _| {});
        let places = std::iter::repeat_n(true, bins.len());
        self.settle_group_with(bins, &[], places, &mut scratch);
    }

    /// Places a group of balls — one entry of `bins` per ball — with **one**
    /// atomic increment per distinct bin, calling `per_bin(bin, count)` once
    /// per distinct bin (the per-bin metrics hook), and counts them as
    /// accepted into `scratch`, each shard's peak the largest final load
    /// among the bins the group touched there; the shard stats are written
    /// by the [`ShardedBins::settle_group_with`] that must follow. Loads
    /// only grow in this half, so that peak is the running peak of a loop
    /// of [`ShardedBins::place`].
    pub fn place_unrecorded_with(
        &self,
        bins: &[u32],
        scratch: &mut SettleScratch,
        mut per_bin: impl FnMut(usize, u32),
    ) {
        let SettleScratch {
            delta,
            touched,
            settled,
            ..
        } = scratch;
        settled.resize(self.shards, ShardStats::default());
        for_each_distinct(bins, self.len(), delta, touched, |bin, count| {
            let new_load = self.bins.add_many(bin, count);
            let stats = &mut settled[self.shard_of(bin)];
            stats.accepted += count as u64;
            stats.peak_load = stats.peak_load.max(new_load);
            per_bin(bin, count);
        });
    }

    /// The second half of a group begun by
    /// [`ShardedBins::place_unrecorded_with`]: removes the `departed` balls
    /// (one grouped decrement per distinct bin) and writes each touched
    /// shard's stats under one lock. `order` lists the group's places
    /// (`true`, the balls of `placed` in turn) and departures (`false`, those
    /// of `departed`) in request order, and each shard's peak is taken from
    /// its bins' running loads in that order — what a loop of
    /// [`ShardedBins::place`] and [`ShardedBins::depart`] records. Once a
    /// departure precedes a place, loads can fall inside a group, so the
    /// largest final load is no longer the peak; until then it is, and the
    /// peaks the place half took stand. With `placed` or `departed` empty no
    /// departure can precede a place, so `order` is not walked. Returns how
    /// many balls departed.
    pub fn settle_group_with(
        &self,
        placed: &[u32],
        departed: &[u32],
        order: impl Iterator<Item = bool> + Clone,
        scratch: &mut SettleScratch,
    ) -> u64 {
        let SettleScratch {
            delta,
            touched,
            running,
            settled,
        } = scratch;
        settled.resize(self.shards, ShardStats::default());
        let mut taken = 0u64;
        for_each_distinct(departed, self.len(), delta, touched, |bin, count| {
            let released = self.bins.try_release_many(bin, count) as u64;
            settled[self.shard_of(bin)].departed += released;
            taken += released;
        });
        let mixed = !placed.is_empty() && !departed.is_empty();
        if mixed && order.clone().skip_while(|&place| place).any(|place| place) {
            running.resize(self.len(), (0, i32::MIN));
            self.settle_peaks(placed, departed, order, running, settled);
        }
        for (shard, owed) in settled.iter_mut().enumerate() {
            if owed.accepted > 0 || owed.departed > 0 {
                let mut stats = self.stats[shard].lock().expect("shard lock");
                stats.accepted += owed.accepted;
                stats.departed += owed.departed;
                stats.peak_load = stats.peak_load.max(owed.peak_load);
                *owed = ShardStats::default();
            }
        }
        taken
    }

    /// Replaces the peaks in `settled` by each shard's largest running load
    /// at a place, walking `order` over the loads the group left.
    fn settle_peaks(
        &self,
        placed: &[u32],
        departed: &[u32],
        order: impl Iterator<Item = bool>,
        running: &mut [(i32, i32)],
        settled: &mut [ShardStats],
    ) {
        settled.iter_mut().for_each(|owed| owed.peak_load = 0);
        let (mut places, mut departures) = (placed.iter(), departed.iter());
        for place in order {
            if place {
                let bin = *places.next().expect("a place per placed ball") as usize;
                let (load, peak) = &mut running[bin];
                *load += 1;
                *peak = (*peak).max(*load);
            } else {
                let bin = *departures.next().expect("a departure per departed ball");
                running[bin as usize].0 -= 1;
            }
        }
        // A placed bin's load before the group is its load now less the
        // group's net change to it: exact with one caller, and clamped at
        // zero for when other callers' releases race the read.
        for &bin in placed {
            let (net, top) = std::mem::replace(&mut running[bin as usize], (0, i32::MIN));
            if top != i32::MIN {
                let before = self.bins.load(bin as usize) as i64 - net as i64;
                let stats = &mut settled[self.shard_of(bin as usize)];
                stats.peak_load = stats.peak_load.max((before + top as i64).max(0) as u32);
            }
        }
        for &bin in departed {
            running[bin as usize].0 = 0;
        }
    }

    /// Folds seeded balls into shard `shard`'s bookkeeping under its lock.
    pub(crate) fn record_batch(&self, shard: usize, accepted: u64, peak_load: u32) {
        let mut stats = self.stats[shard].lock().expect("shard lock");
        stats.accepted += accepted;
        stats.peak_load = stats.peak_load.max(peak_load);
    }

    /// Removes one ball from `bin` (if non-empty) and updates shard stats.
    pub fn depart(&self, bin: usize) -> bool {
        let ok = self.bins.try_release(bin);
        if ok {
            let mut stats = self.stats[self.shard_of(bin)].lock().expect("shard lock");
            stats.departed += 1;
        }
        ok
    }

    /// Removes a group of balls — one entry of `bins` per ball — committing
    /// **one** grouped atomic decrement per distinct bin
    /// ([`AtomicBins::try_release_many`]) and taking each touched shard's
    /// stats lock once: [`ShardedBins::settle_group_with`] with departures
    /// only, on a scratch of its own. Equivalent to calling
    /// [`ShardedBins::depart`] once per entry: each bin's decrement clamps
    /// at zero exactly where the loop's `try_release` calls would start
    /// failing. Returns how many balls actually departed (`bins.len()`
    /// unless some bin underflowed — a caller bug, never silent).
    pub fn release_group(&self, bins: &[u32]) -> u64 {
        let departures = std::iter::repeat_n(false, bins.len());
        self.settle_group_with(&[], bins, departures, &mut SettleScratch::default())
    }

    /// Current load of `bin`.
    pub fn load(&self, bin: usize) -> u32 {
        self.bins.load(bin)
    }

    /// Snapshot of all loads.
    pub fn snapshot(&self) -> Vec<u32> {
        self.bins.snapshot()
    }

    /// Snapshot of all loads into a caller-owned vector (overwritten).
    pub fn snapshot_into(&self, out: &mut Vec<u32>) {
        self.bins.snapshot_into(out);
    }

    /// Sum of all loads (balls currently resident).
    pub fn total(&self) -> u64 {
        self.bins.total()
    }

    /// Copy of shard `s`'s bookkeeping.
    pub fn shard_stats(&self, s: usize) -> ShardStats {
        *self.stats[s].lock().expect("shard lock")
    }

    /// Bookkeeping of every shard.
    pub fn all_shard_stats(&self) -> Vec<ShardStats> {
        (0..self.shards).map(|s| self.shard_stats(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_partition_is_contiguous_and_complete() {
        for (n, shards) in [(8, 3), (64, 4), (7, 7), (10, 1), (5, 9)] {
            let sb = ShardedBins::new(n, shards);
            let s = sb.shard_count();
            assert!(s >= 1 && s <= n);
            // Every bin maps to exactly one shard consistent with the ranges.
            for bin in 0..n {
                let shard = sb.shard_of(bin);
                assert!(sb.shard_start(shard) <= bin);
                assert!(bin < sb.shard_start(shard + 1));
            }
            // No shard is empty.
            for shard in 0..s {
                assert!(sb.shard_start(shard) < sb.shard_start(shard + 1));
            }
            // Shard starts are non-decreasing and cover [0, n).
            assert_eq!(sb.shard_start(0), 0);
            assert_eq!(sb.shard_start(s), n);
        }
    }

    #[test]
    fn place_and_depart_update_stats() {
        let sb = ShardedBins::new(4, 2);
        sb.place(0);
        sb.place(0);
        sb.place(3);
        assert_eq!(sb.total(), 3);
        assert_eq!(sb.shard_stats(0).accepted, 2);
        assert_eq!(sb.shard_stats(0).peak_load, 2);
        assert_eq!(sb.shard_stats(1).accepted, 1);
        assert!(sb.depart(0));
        assert_eq!(sb.shard_stats(0).departed, 1);
        assert_eq!(sb.total(), 2);
        assert!(!sb.depart(1), "empty bin");
        // Peak load is sticky even after departures.
        assert_eq!(sb.shard_stats(0).peak_load, 2);
    }

    #[test]
    fn batched_unrecorded_place_equals_repeated_singles() {
        let a = ShardedBins::new(4, 2);
        let b = ShardedBins::new(4, 2);
        assert_eq!(a.place_many_unrecorded(1, 5), 5);
        for _ in 0..5 {
            b.place_many_unrecorded(1, 1);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.place_many_unrecorded(1, 2), 7);
    }

    #[test]
    fn unrecorded_place_plus_record_batch_equals_place() {
        let a = ShardedBins::new(8, 2);
        let b = ShardedBins::new(8, 2);
        for bin in [0usize, 1, 1, 5, 7, 7, 7] {
            a.place(bin);
        }
        let mut peaks = [0u32; 2];
        let mut counts = [0u64; 2];
        for bin in [0usize, 1, 1, 5, 7, 7, 7] {
            let load = b.place_many_unrecorded(bin, 1);
            let s = b.shard_of(bin);
            peaks[s] = peaks[s].max(load);
            counts[s] += 1;
        }
        for s in 0..2 {
            b.record_batch(s, counts[s], peaks[s]);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.all_shard_stats(), b.all_shard_stats());
    }

    #[test]
    fn place_group_equals_a_loop_of_places() {
        let grouped = ShardedBins::new(8, 3);
        let looped = ShardedBins::new(8, 3);
        // Seed uneven resident loads so peaks differ per shard.
        for sb in [&grouped, &looped] {
            for bin in [0usize, 0, 6, 6, 6, 3] {
                sb.place(bin);
            }
        }
        let group: Vec<u32> = vec![7, 0, 2, 2, 6, 0, 7, 3, 6, 6];
        grouped.place_group(&group);
        for &bin in &group {
            looped.place(bin as usize);
        }
        assert_eq!(grouped.snapshot(), looped.snapshot());
        assert_eq!(grouped.all_shard_stats(), looped.all_shard_stats());
        // An empty group is a no-op.
        grouped.place_group(&[]);
        assert_eq!(grouped.all_shard_stats(), looped.all_shard_stats());
    }

    #[test]
    fn scratch_commits_equal_the_per_ball_loops_on_every_shape() {
        use pba_model::rng::SplitMix64;
        // One shard; shards that divide the bins and shards that do not; one
        // bin per shard; a single bin.
        let mut rng = SplitMix64::new(5);
        let mut scratch = SettleScratch::default();
        for (n, shards) in [(1, 1), (8, 1), (8, 4), (8, 3), (30, 4), (7, 7), (1000, 7)] {
            let grouped = ShardedBins::new(n, shards);
            let looped = ShardedBins::new(n, shards);
            let mut commits = vec![0u64; n];
            let mut expected_commits = vec![0u64; n];
            // Empty, singleton, one bin repeated, sparse, and a group several
            // times longer than `n` (every bin repeated) — each on top of the
            // loads the earlier groups left, through one reused scratch.
            for len in [0, 1, 5, n / 2 + 1, 4 * n + 3] {
                let group: Vec<u32> = match len {
                    5 => vec![(n - 1) as u32; 5],
                    _ => (0..len).map(|_| rng.gen_index(n) as u32).collect(),
                };
                grouped.place_unrecorded_with(&group, &mut scratch, |bin, count| {
                    assert!(count > 0, "only touched bins are reported");
                    commits[bin] += count as u64;
                });
                let places = std::iter::repeat_n(true, group.len());
                grouped.settle_group_with(&group, &[], places, &mut scratch);
                for &bin in &group {
                    looped.place(bin as usize);
                    expected_commits[bin as usize] += 1;
                }
                assert_eq!(grouped.snapshot(), looped.snapshot(), "n {n} S {shards}");
                assert_eq!(grouped.all_shard_stats(), looped.all_shard_stats());
                assert_eq!(commits, expected_commits);
                // Release a prefix of what was just placed, the same way.
                let leaving = &group[..len / 2];
                let departed = grouped.release_group(leaving);
                assert_eq!(departed, leaving.len() as u64);
                for &bin in leaving {
                    assert!(looped.depart(bin as usize));
                }
                assert_eq!(grouped.snapshot(), looped.snapshot(), "n {n} S {shards}");
                assert_eq!(grouped.all_shard_stats(), looped.all_shard_stats());
            }
        }
    }

    #[test]
    fn a_settled_group_records_the_running_peaks_of_the_loop() {
        use pba_model::rng::SplitMix64;
        let mut rng = SplitMix64::new(9);
        let mut scratch = SettleScratch::default();
        for (n, shards) in [(1, 1), (8, 3), (30, 4), (7, 7)] {
            let (grouped, looped) = (ShardedBins::new(n, shards), ShardedBins::new(n, shards));
            for round in 0..20 {
                // Ball `i` of `placed` may leave again as `departed[i]`, and
                // only after its place, so no bin underflows; otherwise the
                // order interleaves the two at random, or puts every place
                // first.
                let len = 1 + rng.gen_index(3 * n + 4);
                let placed: Vec<u32> = (0..len).map(|_| rng.gen_index(n) as u32).collect();
                let departed = &placed[..rng.gen_index(len + 1)];
                let (mut places, mut departures, mut order) = (0, 0, Vec::new());
                while places < len || departures < departed.len() {
                    let place = places < len
                        && (departures == places
                            || departures == departed.len()
                            || rng.next_u64().is_multiple_of(2));
                    order.push(place);
                    *if place { &mut places } else { &mut departures } += 1;
                }
                if round % 3 == 0 {
                    // Every place first: the peaks the place half took.
                    order.sort_by_key(|&place| !place);
                }
                grouped.place_unrecorded_with(&placed, &mut scratch, |_, _| {});
                let order_of = || order.iter().copied();
                let taken = grouped.settle_group_with(&placed, departed, order_of(), &mut scratch);
                assert_eq!(taken, departed.len() as u64);
                let (mut placed, mut departed) = (placed.iter(), departed.iter());
                for place in order_of() {
                    match place {
                        true => looped.place(*placed.next().unwrap() as usize),
                        false => assert!(looped.depart(*departed.next().unwrap() as usize)),
                    }
                }
                assert_eq!(grouped.snapshot(), looped.snapshot());
                let at = format!("n {n} S {shards} round {round}");
                assert_eq!(grouped.all_shard_stats(), looped.all_shard_stats(), "{at}");
            }
        }
    }

    #[test]
    fn a_settle_walks_the_request_order_only_when_departures_meet_places() {
        let sb = ShardedBins::new(8, 3);
        let mut scratch = SettleScratch::default();
        let group = [7, 0, 2, 2, 6];
        sb.place_unrecorded_with(&group, &mut scratch, |_, _| {});
        let places = std::iter::repeat_n(true, group.len());
        sb.settle_group_with(&group, &[], places, &mut scratch);
        assert!(scratch.running.is_empty(), "a departure-free settle");
        // A place-free settle: what `release_group` runs.
        let departures = std::iter::repeat_n(false, 3);
        sb.settle_group_with(&[], &[2, 6, 0], departures, &mut scratch);
        assert!(scratch.running.is_empty(), "a place-free settle");
        // A departure before a place: the walk runs, and leaves every slot
        // of `running` at rest.
        sb.place_unrecorded_with(&[2], &mut scratch, |_, _| {});
        sb.settle_group_with(&[2], &[7], [false, true].into_iter(), &mut scratch);
        assert_eq!(scratch.running, vec![(0, i32::MIN); 8]);
        assert_eq!(sb.snapshot(), vec![0, 0, 2, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn release_group_equals_a_loop_of_departs() {
        let grouped = ShardedBins::new(8, 3);
        let looped = ShardedBins::new(8, 3);
        for sb in [&grouped, &looped] {
            for bin in [0usize, 0, 2, 3, 6, 6, 6, 7, 7] {
                sb.place(bin);
            }
        }
        let group: Vec<u32> = vec![7, 0, 2, 6, 0, 7, 6, 6];
        assert_eq!(grouped.release_group(&group), group.len() as u64);
        for &bin in &group {
            assert!(looped.depart(bin as usize));
        }
        assert_eq!(grouped.snapshot(), looped.snapshot());
        assert_eq!(grouped.all_shard_stats(), looped.all_shard_stats());
        // An empty group is a no-op; an underflowing group reports the truth
        // (bin 2 is empty now, so only the bin-3 ball departs).
        assert_eq!(grouped.release_group(&[]), 0);
        assert_eq!(grouped.release_group(&[2, 3, 2]), 1);
        assert_eq!(grouped.load(3), 0);
    }

    #[test]
    fn concurrent_places_conserve() {
        use std::sync::Arc;
        let sb = Arc::new(ShardedBins::new(32, 4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let sb = Arc::clone(&sb);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    sb.place(((i * 7 + t * 13) % 32) as usize);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sb.total(), 4000);
        let accepted: u64 = sb.all_shard_stats().iter().map(|s| s.accepted).sum();
        assert_eq!(accepted, 4000);
    }
}
