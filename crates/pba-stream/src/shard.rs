//! The shard layer: the engine's load counters and their grouped commits.
//!
//! A bin's load is the sum of two lanes, split by writer:
//!
//! * the **route lane**, one flat [`AtomicBins`] array (the same lock-free
//!   bounded-increment substrate the concurrent executor uses): every route,
//!   release, migration, reroute and seed writes it with atomic
//!   read-modify-writes, so placements from any thread are linearisable
//!   without locks;
//! * the **push lane**, which only a drained batch's commit writes. A drain
//!   has one writer by construction — the sole owner's `&mut self`, or the
//!   handle's drain lock — and the lane is written only through the one
//!   `PushLane` token made with the bins, which lives on the drain side. So
//!   a drain commits each bin with a plain load and store, no locked
//!   instruction.
//!
//! A group of balls — a drained batch, a served sub-group's routes or its
//! departures — is counted per bin first and then committed with one write
//! per distinct bin. Departures take from the route lane only: every ticket
//! names a ball placed there, and a pushed ball has no ticket, so nothing
//! releases it. The loads are the engine's only per-bin books: the paper and
//! the batched model judge the load vector's maximum and gap, and every
//! policy decides from stale loads alone.

use std::sync::atomic::{AtomicU32, Ordering};

use pba_concurrent::AtomicBins;

/// Reusable scratch of a grouped commit ([`ShardedBins::place_counted`],
/// a drain's push-lane commit, [`ShardedBins::release_counted`]), owned
/// by whoever commits repeatedly (an engine's drain side, a caller thread),
/// so a warmed commit allocates nothing. Every count in it is zero between
/// commits.
#[derive(Debug, Default)]
pub struct GroupCounts {
    /// Balls of the group per bin.
    delta: Vec<u32>,
    /// Room for the bins with a non-zero delta, in first-touch order (as
    /// long as the longest group counted so far).
    touched: Vec<u32>,
}

impl GroupCounts {
    /// Counts `bins` into `delta` (one slot per bin of an `n`-bin array, all
    /// zero on entry and on return) and calls `commit(bin, count)` once per
    /// distinct bin, in first-touch order. Counting costs a plain increment
    /// per ball; every write to a lane then happens per distinct bin.
    fn for_each_distinct(&mut self, bins: &[u32], n: usize, mut commit: impl FnMut(usize, u32)) {
        let Self { delta, touched } = self;
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
}

/// The right to write the push lane of one [`ShardedBins`]
/// ([`ShardedBins::place_pushed`]). It is neither `Clone` nor `Default`:
/// [`ShardedBins::with_push_lane`] makes the one token of its bins, the
/// engine core keeps it on its drain side, and so the lane has one writer at
/// a time, whoever holds the drain.
#[derive(Debug)]
pub(crate) struct PushLane(());

/// The loads of `n` bins, committed one ball or one group at a time.
///
/// Nothing here uses the shard count [`ShardedBins::new`] takes: the loads
/// are two flat arrays and hold no per-shard state. The engine hands its
/// shard count to the ticket ledger, which does partition by it.
#[derive(Debug)]
pub struct ShardedBins {
    /// The route lane: every writer but a drain's commit, by atomic RMW.
    bins: AtomicBins,
    /// The push lane: a drain's commits alone, by plain store.
    pushed: Box<[AtomicU32]>,
}

impl ShardedBins {
    /// Creates `n` empty bins (`_shards` is unused; see the type docs). Their
    /// push lane has no writer: only the engine core's constructor takes the
    /// lane's one token.
    pub fn new(n: usize, _shards: usize) -> Self {
        Self::with_push_lane(n).0
    }

    /// Creates `n` empty bins and the one token that may write their push
    /// lane.
    pub(crate) fn with_push_lane(n: usize) -> (Self, PushLane) {
        let bins = Self {
            bins: AtomicBins::new(n),
            pushed: (0..n).map(|_| AtomicU32::new(0)).collect(),
        };
        (bins, PushLane(()))
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when there are no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Places one ball into `bin`'s route lane — a migration's commit;
    /// routes, a single one included, go through
    /// [`ShardedBins::place_counted`].
    pub fn place(&self, bin: usize) {
        self.bins.add(bin);
    }

    /// Places `count` balls into `bin`'s route lane with **one** atomic
    /// increment; returns the bin's new load. Used when whole per-bin
    /// populations are committed at once, e.g. seeding resident loads.
    pub fn place_many_unrecorded(&self, bin: usize, count: u32) -> u32 {
        self.bins.add_many(bin, count) + self.pushed[bin].load(Ordering::Acquire)
    }

    /// Places a group of balls — one entry of `bins` per ball — with **one**
    /// atomic increment per distinct bin: [`ShardedBins::place_counted`] on
    /// a scratch of its own. Equivalent to calling [`ShardedBins::place`]
    /// once per entry. The allocating convenience form, for callers that
    /// commit a group once.
    pub fn place_group(&self, bins: &[u32]) {
        self.place_counted(bins, &mut GroupCounts::default());
    }

    /// Places a group of balls — one entry of `bins` per ball — into the
    /// route lane with **one** atomic increment per distinct bin: the commit
    /// of every served sub-group's routes, safe against any number of
    /// concurrent writers. A drained batch commits into the push lane
    /// instead, with plain stores (see the [module docs](self)).
    pub fn place_counted(&self, bins: &[u32], counts: &mut GroupCounts) {
        counts.for_each_distinct(bins, self.len(), |bin, count| {
            self.bins.add_many(bin, count);
        });
    }

    /// Places a drained batch — one entry of `bins` per ball — into the push
    /// lane: the same counting as [`ShardedBins::place_counted`], then one
    /// plain load and `Release` store per distinct bin instead of a locked
    /// read-modify-write.
    ///
    /// The one rule: the push lane has a single writer at a time. `&mut
    /// PushLane` is that rule, since the bins make one token and the engine
    /// keeps it on its drain side, which one thread holds at a time (the
    /// owner's `&mut self`, or the handle's drain lock). Successive holders
    /// are ordered by that lock, so each one's `Relaxed` load sees the last
    /// one's store; the `Release` store pairs with the `Acquire` loads of
    /// [`ShardedBins::load`], [`ShardedBins::snapshot_into`] and
    /// [`ShardedBins::total`], as the route lane's read-modify-writes do.
    pub(crate) fn place_pushed(&self, bins: &[u32], counts: &mut GroupCounts, _: &mut PushLane) {
        counts.for_each_distinct(bins, self.len(), |bin, count| {
            let lane = &self.pushed[bin];
            lane.store(lane.load(Ordering::Relaxed) + count, Ordering::Release);
        });
    }

    /// Removes one ball from `bin`'s route lane, if it holds one. A bin
    /// that holds only pushed balls keeps them: those have no ticket, so no
    /// departure is theirs.
    pub fn depart(&self, bin: usize) -> bool {
        self.bins.try_release(bin)
    }

    /// Removes a group of balls — one entry of `bins` per ball — with **one**
    /// grouped atomic decrement per distinct bin:
    /// [`ShardedBins::release_counted`] on a scratch of its own.
    pub fn release_group(&self, bins: &[u32]) -> u64 {
        self.release_counted(bins, &mut GroupCounts::default())
    }

    /// Removes a group of balls — one entry of `bins` per ball — committing
    /// **one** grouped atomic decrement per distinct bin of the route lane
    /// ([`AtomicBins::try_release_many`]): the departures of a served
    /// sub-group. Equivalent to calling [`ShardedBins::depart`] once per
    /// entry: each bin's decrement clamps at zero exactly where the loop's
    /// `try_release` calls would start failing, and like `depart` it never
    /// takes a pushed ball. Returns how many balls actually departed
    /// (`bins.len()` unless some bin underflowed — a caller bug, never
    /// silent).
    pub fn release_counted(&self, bins: &[u32], counts: &mut GroupCounts) -> u64 {
        let mut taken = 0u64;
        counts.for_each_distinct(bins, self.len(), |bin, count| {
            taken += self.bins.try_release_many(bin, count) as u64;
        });
        taken
    }

    /// Current load of `bin`: both lanes.
    pub fn load(&self, bin: usize) -> u32 {
        self.bins.load(bin) + self.pushed[bin].load(Ordering::Acquire)
    }

    /// Snapshot of all loads.
    pub fn snapshot(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Snapshot of all loads into a caller-owned vector (overwritten).
    pub fn snapshot_into(&self, out: &mut Vec<u32>) {
        self.bins.snapshot_into(out);
        for (load, pushed) in out.iter_mut().zip(&self.pushed[..]) {
            *load += pushed.load(Ordering::Acquire);
        }
    }

    /// Sum of all loads (balls currently resident).
    pub fn total(&self) -> u64 {
        let pushed: u64 = self
            .pushed
            .iter()
            .map(|lane| lane.load(Ordering::Acquire) as u64)
            .sum();
        self.bins.total() + pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_and_depart_update_stats() {
        let sb = ShardedBins::new(4, 2);
        sb.place(0);
        sb.place(0);
        sb.place(3);
        assert_eq!(sb.total(), 3);
        assert!(sb.depart(0));
        assert_eq!(sb.total(), 2);
        assert!(!sb.depart(1), "empty bin");
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
    fn place_group_equals_a_loop_of_places() {
        let grouped = ShardedBins::new(8, 3);
        let looped = ShardedBins::new(8, 3);
        // Seed uneven resident loads.
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
        // An empty group is a no-op.
        grouped.place_group(&[]);
        assert_eq!(grouped.snapshot(), looped.snapshot());
    }

    #[test]
    fn scratch_commits_equal_the_per_ball_loops_on_every_shape() {
        use pba_model::rng::SplitMix64;
        // Bins few and many, a single bin.
        let mut rng = SplitMix64::new(5);
        let mut counts = GroupCounts::default();
        for n in [1, 8, 30, 7, 1000] {
            let grouped = ShardedBins::new(n, 4);
            let looped = ShardedBins::new(n, 4);
            // Empty, singleton, one bin repeated, sparse, and a group several
            // times longer than `n` (every bin repeated) — each on top of the
            // loads the earlier groups left, through one reused scratch.
            for len in [0, 1, 5, n / 2 + 1, 4 * n + 3] {
                let group: Vec<u32> = match len {
                    5 => vec![(n - 1) as u32; 5],
                    _ => (0..len).map(|_| rng.gen_index(n) as u32).collect(),
                };
                grouped.place_counted(&group, &mut counts);
                for &bin in &group {
                    looped.place(bin as usize);
                }
                assert_eq!(grouped.snapshot(), looped.snapshot(), "n {n}");
                // Release a prefix of what was just placed, the same way.
                let leaving = &group[..len / 2];
                let departed = grouped.release_counted(leaving, &mut counts);
                assert_eq!(departed, leaving.len() as u64);
                for &bin in leaving {
                    assert!(looped.depart(bin as usize));
                }
                assert_eq!(grouped.snapshot(), looped.snapshot(), "n {n}");
            }
        }
    }

    #[test]
    fn the_lanes_add_up_and_departures_never_take_a_pushed_ball() {
        use pba_model::rng::SplitMix64;
        let mut rng = SplitMix64::new(11);
        let mut counts = GroupCounts::default();
        for n in [1, 7, 64] {
            let (sb, mut lane) = ShardedBins::with_push_lane(n);
            // The reference: each bin's balls by lane.
            let (mut routed, mut pushed) = (vec![0u64; n], vec![0u64; n]);
            let mut out = Vec::new();
            for step in 0..400 {
                let group: Vec<u32> = (0..rng.gen_index(3 * n + 1))
                    .map(|_| rng.gen_index(n) as u32)
                    .collect();
                match rng.gen_index(4) {
                    0 => {
                        sb.place_pushed(&group, &mut counts, &mut lane);
                        group.iter().for_each(|&bin| pushed[bin as usize] += 1);
                    }
                    1 => {
                        sb.place_counted(&group, &mut counts);
                        group.iter().for_each(|&bin| routed[bin as usize] += 1);
                    }
                    2 => {
                        let bin = group.first().map_or(0, |&bin| bin as usize);
                        assert_eq!(sb.depart(bin), routed[bin] > 0, "n {n} step {step}");
                        routed[bin] = routed[bin].saturating_sub(1);
                    }
                    _ => {
                        // A departure takes from the route lane alone, and
                        // clamps there.
                        let mut taken = 0;
                        for &bin in &group {
                            let bin = bin as usize;
                            taken += (routed[bin] > 0) as u64;
                            routed[bin] = routed[bin].saturating_sub(1);
                        }
                        assert_eq!(sb.release_counted(&group, &mut counts), taken);
                    }
                }
                let loads: Vec<u64> = routed.iter().zip(&pushed).map(|(r, p)| r + p).collect();
                for (bin, &load) in loads.iter().enumerate() {
                    assert_eq!(sb.load(bin) as u64, load, "n {n} step {step} bin {bin}");
                }
                sb.snapshot_into(&mut out);
                let snapshot: Vec<u64> = out.iter().map(|&load| load as u64).collect();
                assert_eq!(snapshot, loads, "n {n} step {step}");
                assert_eq!(sb.total(), loads.iter().sum::<u64>(), "n {n} step {step}");
            }
            // A bin holding only pushed balls gives none of them up.
            let bin = n - 1;
            while sb.depart(bin) {}
            sb.place_pushed(&[bin as u32; 3], &mut counts, &mut lane);
            let load = sb.load(bin);
            assert!(load >= 3);
            assert!(!sb.depart(bin));
            assert_eq!(sb.release_counted(&[bin as u32; 2], &mut counts), 0);
            assert_eq!(sb.load(bin), load);
        }
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
    }
}
