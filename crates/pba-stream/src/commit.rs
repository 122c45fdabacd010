//! The **commit** stage of the streaming pipeline: turning a group of keys —
//! one drained batch, or one routed group — into bin placements.
//!
//! A commit is two steps, run by the one engine core for a drained batch and
//! a routed group alike (which is how `route` ≡ `push` + `drain` holds):
//!
//! 1. **choose** ([`choose_into`]) — every ball picks its bin as a pure
//!    function of `(stale snapshot, key)`. Everything constant across the
//!    batch is decided once, in the [`Chooser`]; the per-ball kernel keeps its
//!    candidates in a fixed buffer and touches no heap. There is one loop: it
//!    runs on the calling thread, and only a batch long enough to pay for a
//!    thread spawn ([`PARALLEL_MIN_SPAN`]) is cut into contiguous spans that
//!    scoped threads run the same loop over.
//! 2. **commit** ([`ShardedBins::place_group_with`]) — the chosen bins are
//!    counted into a per-bin delta scratch, then committed with one atomic
//!    add per distinct bin, one stats-lock acquisition per touched shard and
//!    one `route.bin_commits` add per distinct bin. Always on the calling
//!    thread: at a few atomics per distinct bin there is nothing to fan out.

use pba_obs::CounterVec;
use rayon::prelude::*;
use rayon::ThreadPool;

use crate::policy::Chooser;
use crate::shard::{GroupScratch, ShardedBins};

/// Fewest balls a thread is handed in the choose step; a batch shorter than
/// two such spans is chosen on the calling thread, so below that the
/// `parallel` flag and the thread count are no-ops.
///
/// A ball costs ≈ 8 ns to choose, so the 4096-ball batch of the
/// `stream-drain` workload is ≈ 33 µs of work in all — about what spawning
/// one scoped thread costs. That figure is two-choice over 1000 or 1024
/// bins, from a throw-away harness timing `Chooser::choose_span` over 4096
/// keys on the 2-vCPU build host: median 8.2 ns and best 4.2 of twelve
/// runs, where the same harness read 10.8 ns at 1024 bins and 18.2 at 1000
/// while each candidate was a `SplitMix64` draw ranged by division.
///
/// The cutoff itself was measured on that host when the kernel read ≈ 6 ns,
/// with another throw-away harness (ticks of `B` pushes + `drain_ready` on a
/// `StreamAllocator`, two-choice over 1024 bins, metrics installed;
/// `.sequential()` against `.num_threads(2)`, each thread choosing `B/2`
/// balls; best of three per side, four runs). Handing a span to a parked
/// pool worker, two threads ran the drain at 0.57–0.93 of the sequential
/// speed at `B` = 4 Ki, 0.71–0.96 at 8 Ki, 0.91–1.00 at 16 Ki, 0.97–1.03 at
/// 32 Ki, and from 64 Ki up between 0.92 and 1.55. Spawning a scoped thread
/// per drain instead, they ran at 1.22–1.68 at 64 Ki, 1.18–1.61 at 128 Ki
/// and 1.16–1.74 at 256 Ki. 64 Ki is therefore the shortest batch that is
/// split, and this is half of it.
pub const PARALLEL_MIN_SPAN: usize = 1 << 15;

/// Which threads a choose step may use.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Execution<'a> {
    /// [`StreamConfig::parallel`](crate::StreamConfig::parallel): whether a
    /// long batch may be cut into spans at all.
    pub(crate) parallel: bool,
    /// The engine's thread count
    /// ([`StreamConfig::num_threads`](crate::StreamConfig::num_threads));
    /// `None` uses the ambient one.
    pub(crate) pool: Option<&'a ThreadPool>,
}

impl Execution<'static> {
    /// The calling thread only — what a routed group uses.
    pub(crate) const INLINE: Self = Self {
        parallel: false,
        pool: None,
    };
}

/// Reusable buffers of a commit, owned by whoever commits repeatedly (an
/// engine's drain side, a routing thread), so a warmed commit allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct CommitScratch {
    /// The chosen bin of every ball of the group, in group order.
    pub(crate) chosen: Vec<u32>,
    /// The grouped commit's per-bin and per-shard counters.
    pub(crate) group: GroupScratch,
}

/// Step 1 — choose: overwrites `chosen` with the bin of every item, in item
/// order. A pure function of `(chooser, keys)`, so the spans of a long batch
/// can run in any order on any thread and still fill the same vector: each
/// span is [`Chooser::choose_span`] over its own window of `chosen`.
pub(crate) fn choose_into<K: Sync>(
    chooser: &Chooser<'_>,
    items: &[K],
    key_of: impl Fn(&K) -> u64 + Sync,
    execution: Execution<'_>,
    chosen: &mut Vec<u32>,
) {
    // Every slot is overwritten below; only the length matters.
    chosen.resize(items.len(), 0);
    if !execution.parallel || items.len() < 2 * PARALLEL_MIN_SPAN {
        return chooser.choose_span(items, key_of, chosen);
    }
    let spans: Vec<&[K]> = items.chunks(PARALLEL_MIN_SPAN).collect();
    let mut run = || {
        chosen
            .par_chunks_mut(PARALLEL_MIN_SPAN)
            .zip(spans.par_iter())
            .with_min_len(1)
            .for_each(|(window, span)| chooser.choose_span(span, &key_of, window))
    };
    match execution.pool {
        Some(pool) => pool.install(run),
        None => run(),
    }
}

/// Step 2 — commit: places `scratch.chosen` (see
/// [`ShardedBins::place_group_with`]), counting each distinct bin's balls
/// into `bin_commits` when metrics are installed.
pub(crate) fn place_chosen(
    bins: &ShardedBins,
    scratch: &mut CommitScratch,
    bin_commits: Option<&CounterVec>,
) {
    bins.place_group_with(&scratch.chosen, &mut scratch.group, |bin, count| {
        if let Some(bin_commits) = bin_commits {
            bin_commits.add(bin, count as u64);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{choose_bin, ChoiceCtx, Policy};

    fn ctx(snapshot: &[u32]) -> ChoiceCtx<'_> {
        ChoiceCtx {
            snapshot,
            weights: None,
            batch_threshold: 0,
            capacity_thresholds: &[],
            seed: 3,
            bins: snapshot.len(),
            active: None,
            active_weights: None,
            counters: None,
        }
    }

    #[test]
    fn parallel_and_sequential_choose_agree() {
        let snapshot: Vec<u32> = (0..64u32).map(|i| (i * 5) % 11).collect();
        let ctx = ctx(&snapshot);
        // Long enough to be cut into spans, with a tail that is not a
        // multiple of the span.
        let keys: Vec<u64> = (0..(4 * PARALLEL_MIN_SPAN as u64 + 77))
            .map(|id| id * 17)
            .collect();
        let chooser = Chooser::new(Policy::TwoChoice, &ctx);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("pool");
        let mut inline = Vec::new();
        let mut pooled = Vec::new();
        choose_into(&chooser, &keys, |&k| k, Execution::INLINE, &mut inline);
        let execution = Execution {
            parallel: true,
            pool: Some(&pool),
        };
        choose_into(&chooser, &keys, |&k| k, execution, &mut pooled);
        assert_eq!(inline, pooled);
        let mut candidates = Vec::new();
        for (at, &key) in keys.iter().enumerate().step_by(997) {
            let one = choose_bin(Policy::TwoChoice, &ctx, key, &mut candidates);
            assert_eq!(inline[at], one, "key {key}");
        }
    }

    #[test]
    fn commit_batch_equals_choosing_and_placing_ball_by_ball() {
        let snapshot: Vec<u32> = (0..30u32).map(|i| (i * 7) % 5).collect();
        let ctx = ctx(&snapshot);
        let keys: Vec<u64> = (0..500u64).map(|id| id * 31 + 5).collect();
        // 30 bins in 4 shards: the shard ranges are uneven.
        let grouped = ShardedBins::new(30, 4);
        let looped = ShardedBins::new(30, 4);
        let commits = CounterVec::detached(30);
        let mut scratch = CommitScratch::default();
        let mut candidates = Vec::new();
        for policy in [Policy::TwoChoice, Policy::DChoice(3), Policy::OneChoice] {
            let chooser = Chooser::new(policy, &ctx);
            let chosen = &mut scratch.chosen;
            choose_into(&chooser, &keys, |&k| k, Execution::INLINE, chosen);
            place_chosen(&grouped, &mut scratch, Some(&commits));
            for (&key, &bin) in keys.iter().zip(&scratch.chosen) {
                assert_eq!(bin, choose_bin(policy, &ctx, key, &mut candidates));
                looped.place(bin as usize);
            }
        }
        assert_eq!(grouped.snapshot(), looped.snapshot());
        assert_eq!(grouped.all_shard_stats(), looped.all_shard_stats());
        let loads: Vec<u64> = looped.snapshot().iter().map(|&l| l as u64).collect();
        assert_eq!(commits.values(), loads);
    }
}
