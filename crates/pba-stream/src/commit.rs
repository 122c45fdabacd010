//! The **choose** step of the streaming pipeline's commit stage: turning a
//! group of keys — one drained batch, or one routed group — into the bin of
//! every ball.
//!
//! A commit is two steps, run by the one engine core for a drained batch and
//! a routed group alike (which is how `route` ≡ `push` + `drain` holds):
//!
//! 1. **choose** ([`choose_into`]) — every ball picks its bin as a pure
//!    function of `(stale snapshot, key)`. Everything constant across the
//!    batch is decided once, in the [`Chooser`], and the sampler, the
//!    policy's rule and the candidate buffer once per span; so the per-ball
//!    kernel is one rule's loop, which matches no policy, keeps its
//!    candidates in a fixed buffer and touches no heap. A uniform ball's
//!    first attempt is read straight off its key's hash; only a ball whose
//!    draws reject or repeat runs the redraw loop. The span runs on the
//!    calling thread, and only a batch long enough to pay for a thread spawn
//!    ([`PARALLEL_MIN_SPAN`]) is cut into contiguous spans that scoped
//!    threads run the same loop over.
//! 2. **place** — the shard layer's grouped commit: the balls are counted
//!    per bin, then each distinct bin's count is added to the loads, the
//!    engine's only per-bin books, with no lock. A routed group adds with
//!    one atomic read-modify-write per distinct bin ([`place_counted`]), as
//!    any number of callers may commit at once; a drained batch has one
//!    writer, the drain holder, so it adds with a plain load and store into
//!    the loads' push lane ([`place_pushed`]), no locked instruction at
//!    all. Always on the calling thread: at one write per distinct bin
//!    there is nothing to fan out.
//!
//! [`place_counted`]: crate::shard::ShardedBins::place_counted
//! [`place_pushed`]: crate::shard::ShardedBins::place_pushed

use rayon::prelude::*;
use rayon::ThreadPool;

use crate::policy::Chooser;

/// Fewest balls a thread is handed in the choose step; a batch shorter than
/// two such spans is chosen on the calling thread, so below that the thread
/// count is a no-op.
///
/// A two-choice ball costs ≈ 3–6.5 ns to choose, so the 4096-ball batch of
/// the `stream-drain` workload is ≈ 12–27 µs of work in all. That figure is
/// two-choice over 1000 or 1024 bins, from a throw-away harness timing
/// `Chooser::choose_span` over 4096 pushed balls on the 2-vCPU build host:
/// medians of fifteen runs, ranging that far between passes on a shared
/// host.
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
/// split, and this is half of it. A faster kernel makes this cutoff *less*
/// likely to pay for a thread, not more: the spawn costs the same, and a
/// span of this length now holds less work than it did then. It is not
/// retuned, since no host with a free second CPU has been measured.
pub const PARALLEL_MIN_SPAN: usize = 1 << 15;

/// Overwrites `chosen` with the bin of every key, in key order, on the
/// threads `pool` allows (the engine's own
/// [`StreamConfig::num_threads`](crate::StreamConfig::num_threads); `None`
/// is the ambient count). A pure function of `(chooser, keys)`, so the spans
/// of a long batch can run in any order on any thread and still fill the
/// same vector: each span is [`Chooser::choose_span`] over its own window of
/// `chosen`. A routed group never spawns: it calls `choose_span` itself.
pub(crate) fn choose_into(
    chooser: &Chooser<'_>,
    keys: &[u64],
    pool: Option<&ThreadPool>,
    chosen: &mut Vec<u32>,
) {
    // Every slot is overwritten below; only the length matters.
    chosen.resize(keys.len(), 0);
    if keys.len() < 2 * PARALLEL_MIN_SPAN {
        return chooser.choose_span(keys, chosen);
    }
    let spans: Vec<&[u64]> = keys.chunks(PARALLEL_MIN_SPAN).collect();
    let mut run = || {
        chosen
            .par_chunks_mut(PARALLEL_MIN_SPAN)
            .zip(spans.par_iter())
            .with_min_len(1)
            .for_each(|(window, span)| chooser.choose_span(span, window))
    };
    match pool {
        Some(pool) => pool.install(run),
        None => run(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{choose_bin, ChoiceCtx, Policy};
    use crate::shard::{GroupCounts, ShardedBins};

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
        let mut inline = vec![0; keys.len()];
        let mut pooled = Vec::new();
        chooser.choose_span(&keys, &mut inline);
        choose_into(&chooser, &keys, Some(&pool), &mut pooled);
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
        let grouped = ShardedBins::new(30, 4);
        let looped = ShardedBins::new(30, 4);
        let (mut chosen, mut counts) = (Vec::new(), GroupCounts::default());
        let mut candidates = Vec::new();
        for policy in [Policy::TwoChoice, Policy::DChoice(3), Policy::OneChoice] {
            let chooser = Chooser::new(policy, &ctx);
            choose_into(&chooser, &keys, None, &mut chosen);
            grouped.place_counted(&chosen, &mut counts);
            for (&key, &bin) in keys.iter().zip(&chosen) {
                assert_eq!(bin, choose_bin(policy, &ctx, key, &mut candidates));
                looped.place(bin as usize);
            }
        }
        assert_eq!(grouped.snapshot(), looped.snapshot());
    }
}
