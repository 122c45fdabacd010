//! The exact per-ball ("agent") engine.
//!
//! Plays the synchronous round of Section 3 verbatim:
//!
//! 1. every unallocated ball samples its target bin(s) from its own stream,
//! 2. every bin computes its acceptance quota and grants accepts to at most that
//!    many of its requesters (in arrival order — the paper allows an arbitrary
//!    choice),
//! 3. every ball that received at least one accept commits to one accepting bin
//!    and notifies the remaining accepting bins (which do not count it).
//!
//! The only state carried across rounds is each bin's committed load and the set
//! of unallocated balls, exactly as in the model.
//!
//! # One blocked pass per round
//!
//! A round is **one pass over fixed-size blocks of balls**: a block's targets
//! are sampled into a cache-resident scratch, the block is resolved in arrival
//! order, and the scratch is reused for the next block. Beyond the result
//! itself a round therefore holds `O(n + block + leftover)` memory — the
//! per-bin vectors, one block of targets and identities, and the list of balls
//! rejected so far — never `O(m)`:
//!
//! * **No request-count pass.** A bin grants `min(quota, requests)` accepts,
//!   in arrival order. When a request is resolved, the accepts its bin has
//!   granted so far number at most the *earlier* requests to that bin, which is
//!   fewer than all of them; so "fewer than `min(quota, requests)` granted" is
//!   exactly "fewer than `quota` granted", for every degree, distinct choices
//!   or not. The quota vector, computed once at the top of the round from the
//!   committed loads, is all a bin needs — which is the paper's model.
//! * **No identity vector.** Until the first round that rejects a ball, the
//!   unallocated set of [`run_agent_engine`] *is* the range `0..m`; it is walked
//!   block by block, and the list of unallocated balls grows from empty (to
//!   `m̃₁ ≈ m^{2/3} n^{1/3}` under `A_heavy`'s schedule, not `m`).
//!
//! Sampling (step 1) is the dominant cost and optionally goes through the rayon
//! shim, block by block; because every ball's choices are a pure function of
//! `(seed, ball, round)`, parallel and sequential executions produce identical
//! requests and therefore identical results. (A block is below the shim's
//! split cutoff, so the parallel path runs on the calling thread too; see
//! `BLOCK_SLOTS`.) The seed and round halves of that function are mixed once
//! per round into [`SplitMix64::substream_key`], so a degree-1 request costs
//! three `mix64`s — the ball's, the generator state's and the draw — where
//! [`SplitMix64::for_stream`] per ball would cost five.

use rayon::prelude::*;

use crate::engine::{EngineConfig, EngineResult};
use crate::metrics::{MessageCensus, MessageTotals, RoundRecord};
use crate::protocol::{Protocol, RoundCtx};
use crate::rng::SplitMix64;

/// Request slots (balls × degree) sampled and then resolved at a time, in both
/// execution modes. At 16 Ki slots the block's scratch — 4 B per target, 8 B per
/// identity, 192 KiB at most — is still cache-resident when the resolve reads
/// it back, beside the per-bin vectors. With sampling at three mixes per ball,
/// blocks four times and a quarter the size each ran `A_heavy` (2^22 balls,
/// 2^10 bins) at 0.97–0.98 of this size's throughput, the median of 12
/// alternating runs (7.4 ns per ball here, 7.5–7.6 there): neither is faster.
///
/// A block is also shorter than the 2 × 32 Ki items the rayon shim needs
/// before it spawns a second thread, so [`EngineConfig::parallel`] never
/// splits one: it changes no result and uses no other thread. It is not free
/// either: in alternating runs of `A_heavy` (2^22 balls, 2^10 bins, 14 pairs)
/// the flag ran at 0.86 of the sequential speed in the median — the cost of
/// the `par_chunks_mut` call site, since the plain loop in both branches
/// measures 1.00. The flag stays while the benchmark names it.
const BLOCK_SLOTS: usize = 1 << 14;

/// The balls a run starts with.
#[derive(Clone, Copy)]
enum Balls<'a> {
    /// Every identity in `0..m` — a range, never a vector.
    All(u64),
    /// An explicit list, in arrival order.
    Listed(&'a [u64]),
}

impl<'a> Balls<'a> {
    fn len(&self) -> usize {
        match *self {
            Balls::All(m) => m as usize,
            Balls::Listed(list) => list.len(),
        }
    }

    /// The identities at positions `start..start + len`: a window of the list,
    /// or that piece of the range written into `scratch`.
    fn block<'s>(&self, start: usize, len: usize, scratch: &'s mut Vec<u64>) -> &'s [u64]
    where
        'a: 's,
    {
        match *self {
            Balls::All(_) => {
                scratch.clear();
                scratch.extend(start as u64..(start + len) as u64);
                scratch
            }
            Balls::Listed(list) => &list[start..start + len],
        }
    }

    fn to_vec(self) -> Vec<u64> {
        match self {
            Balls::All(m) => (0..m).collect(),
            Balls::Listed(list) => list.to_vec(),
        }
    }
}

/// Runs `protocol` on `m` balls and `n` bins with master seed `seed`.
///
/// # Panics
/// Panics if `n == 0` while `m > 0` (there is nowhere to put the balls).
pub fn run_agent_engine<P: Protocol + ?Sized>(
    protocol: &P,
    m: u64,
    n: usize,
    seed: u64,
    config: &EngineConfig,
) -> EngineResult {
    run_rounds(protocol, Balls::All(m), m, n, seed, config)
}

/// Runs `protocol` on an explicit set of (still unallocated) ball identities.
///
/// This entry point exists so that multi-phase algorithms (`A_heavy`) can hand the
/// leftover balls of one phase to another protocol — possibly on a different
/// (virtual) bin count — while keeping per-ball message attribution consistent.
/// `m_total` is the size of the *original* instance and is only used for the
/// protocol's [`RoundCtx`] and for sizing the per-ball census.
pub fn run_agent_engine_on<P: Protocol + ?Sized>(
    protocol: &P,
    initial_balls: &[u64],
    m_total: u64,
    n: usize,
    seed: u64,
    config: &EngineConfig,
) -> EngineResult {
    run_rounds(
        protocol,
        Balls::Listed(initial_balls),
        m_total,
        n,
        seed,
        config,
    )
}

fn run_rounds<P: Protocol + ?Sized>(
    protocol: &P,
    initial: Balls<'_>,
    m_total: u64,
    n: usize,
    seed: u64,
    config: &EngineConfig,
) -> EngineResult {
    assert!(
        n > 0 || initial.len() == 0,
        "cannot allocate {} balls into zero bins",
        initial.len()
    );

    let mut committed: Vec<u32> = vec![0; n];
    let mut census = MessageCensus::new(n, config.track_per_ball.then_some(m_total));
    let tracks_balls = census.tracks_balls();
    let mut totals = MessageTotals::default();
    let mut per_round: Vec<RoundRecord> = Vec::new();
    let mut rounds_run = 0usize;

    // The unallocated set is `initial` until a round has sampled, `unallocated`
    // from then on; `rejected` collects the next one.
    let mut unallocated: Vec<u64> = Vec::new();
    let mut rejected: Vec<u64> = Vec::new();
    let mut sampled = false;

    // Scratch reused across blocks and rounds: accepts each bin may still grant
    // this round, and one block of targets and identities.
    let mut room: Vec<u32> = vec![0; n];
    let mut targets: Vec<u32> = Vec::new();
    let mut block_ids: Vec<u64> = Vec::new();

    for round in 0..protocol.max_rounds() {
        let balls = if sampled {
            Balls::Listed(&unallocated)
        } else {
            initial
        };
        let u = balls.len();
        let ctx = RoundCtx {
            round,
            n_bins: n,
            m_total,
            remaining: u as u64,
        };
        if u == 0 || protocol.give_up(&ctx) {
            break;
        }
        rounds_run += 1;

        let degree = protocol.degree(&ctx);
        if degree == 0 {
            // A "collect" round in which balls stay silent; nothing can change, so
            // record it (if tracing) and move on.
            if config.record_rounds {
                per_round.push(RoundRecord {
                    round,
                    unallocated_before: ctx.remaining,
                    unallocated_after: ctx.remaining,
                    requests: 0,
                    accepts: 0,
                    committed: 0,
                    global_threshold: protocol.global_threshold(&ctx),
                });
            }
            continue;
        }
        let distinct = protocol.distinct_choices() && degree > 1;
        let round_key = SplitMix64::substream_key(seed, round as u64);
        let sample_for = |ball: u64, slots: &mut [u32]| {
            let mut rng = SplitMix64::for_stream_under(round_key, ball);
            if distinct {
                fill_distinct_slots(&mut rng, n, slots);
            } else {
                for slot in slots.iter_mut() {
                    *slot = rng.gen_index(n) as u32;
                }
            }
        };

        for (b, room) in room.iter_mut().enumerate() {
            *room = protocol.bin_quota(b as u32, committed[b], &ctx);
        }
        rejected.clear();
        let mut round_accepts: u64 = 0;
        let mut round_committed: u64 = 0;
        let mut round_notifications: u64 = 0;

        let block_balls = (BLOCK_SLOTS / degree).max(1);
        targets.resize(block_balls.min(u) * degree, 0);
        for start in (0..u).step_by(block_balls) {
            let ids = balls.block(start, block_balls.min(u - start), &mut block_ids);
            let targets = &mut targets[..ids.len() * degree];

            // ---- Step 1: the block's balls sample their target bins. ----
            if config.parallel {
                targets
                    .par_chunks_mut(degree)
                    .zip(ids.par_iter())
                    .for_each(|(slots, &ball)| sample_for(ball, slots));
            } else {
                for (slots, &ball) in targets.chunks_mut(degree).zip(ids) {
                    sample_for(ball, slots);
                }
            }

            // ---- Steps 2 and 3: bins answer in arrival order; balls commit and
            // notify. ----
            for (slots, &ball) in targets.chunks(degree).zip(ids) {
                // The ball joins the first bin that accepts it; an accept after
                // the first only costs a notification to that bin.
                let mut joined = 0u32;
                let mut accepts_for_ball = 0u32;
                for &t in slots {
                    let b = t as usize;
                    census.per_bin_received[b] += 1;
                    if room[b] > 0 {
                        room[b] -= 1;
                        if accepts_for_ball == 0 {
                            joined = t;
                        } else {
                            census.per_bin_received[b] += 1;
                        }
                        accepts_for_ball += 1;
                    }
                }
                if accepts_for_ball > 0 {
                    committed[joined as usize] += 1;
                    round_committed += 1;
                } else {
                    rejected.push(ball);
                }
                let extra = accepts_for_ball.saturating_sub(1);
                round_accepts += accepts_for_ball as u64;
                round_notifications += extra as u64;
                if tracks_balls {
                    census.per_ball_sent[ball as usize] += degree as u32 + extra;
                }
            }
        }

        let round_requests = (u * degree) as u64;
        totals.requests += round_requests;
        totals.responses += round_requests; // every request is answered (accept or decline)
        totals.accepts += round_accepts;
        totals.notifications += round_notifications;

        if config.record_rounds {
            per_round.push(RoundRecord {
                round,
                unallocated_before: u as u64,
                unallocated_after: rejected.len() as u64,
                requests: round_requests,
                accepts: round_accepts,
                committed: round_committed,
                global_threshold: protocol.global_threshold(&ctx),
            });
        }

        std::mem::swap(&mut unallocated, &mut rejected);
        sampled = true;
    }

    // Only a run in which no round sampled (no balls, no rounds, or the protocol
    // gave up at once) still has to list its initial balls.
    let remaining_balls = if sampled {
        unallocated
    } else {
        initial.to_vec()
    };
    EngineResult {
        loads: committed,
        rounds: rounds_run,
        remaining: remaining_balls.len() as u64,
        remaining_balls,
        totals,
        per_round,
        census,
    }
}

/// Fills `slots` with [`SplitMix64::fill_distinct`]'s draws; with fewer bins
/// than slots every bin is listed once and the last one repeated to keep slot
/// arity (the ball simply contacts that bin once more). Kept out of line:
/// inlined into the round's sampling closure, the always-inlined draw loop
/// slowed `A_heavy`'s degree-1 phase 1, which never takes this branch, by
/// 7.6 % (`oneshot-heavy` throughput, 2-vCPU host, 6 runs a side).
#[inline(never)]
fn fill_distinct_slots(rng: &mut SplitMix64, n: usize, slots: &mut [u32]) {
    let kept = slots.len().min(n);
    rng.fill_distinct(n, &mut slots[..kept]);
    let last = slots[kept - 1];
    slots[kept..].fill(last);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{FixedThresholdProtocol, PerBinThresholdProtocol};

    fn ideal_threshold(m: u64, n: usize) -> u32 {
        m.div_ceil(n as u64) as u32
    }

    /// The executable spec: the round as the engine played it before it was
    /// blocked, transcribed literally — sample every ball, count requests and
    /// grant `min(quota, requests)` per bin, resolve in arrival order — with
    /// every buffer the blocked loop does without.
    fn reference_engine(
        protocol: &dyn Protocol,
        initial_balls: &[u64],
        m_total: u64,
        n: usize,
        seed: u64,
        config: &EngineConfig,
    ) -> EngineResult {
        let mut unallocated = initial_balls.to_vec();
        let mut committed = vec![0u32; n];
        let mut census = MessageCensus::new(n, config.track_per_ball.then_some(m_total));
        let mut totals = MessageTotals::default();
        let mut per_round = Vec::new();
        let mut rounds = 0;
        for round in 0..protocol.max_rounds() {
            let ctx = RoundCtx {
                round,
                n_bins: n,
                m_total,
                remaining: unallocated.len() as u64,
            };
            if unallocated.is_empty() || protocol.give_up(&ctx) {
                break;
            }
            rounds += 1;
            let degree = protocol.degree(&ctx);
            let mut record = RoundRecord {
                round,
                unallocated_before: ctx.remaining,
                unallocated_after: ctx.remaining,
                requests: ctx.remaining * degree as u64,
                accepts: 0,
                committed: 0,
                global_threshold: protocol.global_threshold(&ctx),
            };
            if degree > 0 {
                // Step 1: every unallocated ball samples its target bins.
                let mut targets: Vec<u32> = Vec::new();
                for &ball in &unallocated {
                    let mut rng = SplitMix64::for_stream(seed, ball, round as u64);
                    if protocol.distinct_choices() && degree > 1 {
                        let mut buf = vec![0; degree.min(n)];
                        rng.fill_distinct(n, &mut buf);
                        targets.extend((0..degree).map(|i| buf[i.min(buf.len() - 1)]));
                    } else {
                        targets.extend((0..degree).map(|_| rng.gen_index(n) as u32));
                    }
                }
                // Step 2: bins count requests and compute grants.
                let mut requests = vec![0u32; n];
                targets.iter().for_each(|&t| requests[t as usize] += 1);
                let granted: Vec<u32> = (0..n)
                    .map(|b| {
                        protocol
                            .bin_quota(b as u32, committed[b], &ctx)
                            .min(requests[b])
                    })
                    .collect();
                // Step 3: balls receive responses, commit, and notify.
                let mut taken = vec![0u32; n];
                let mut next = Vec::new();
                for (slots, &ball) in targets.chunks(degree).zip(&unallocated) {
                    let mut accepting: Vec<usize> = Vec::new();
                    for b in slots.iter().map(|&t| t as usize) {
                        census.per_bin_received[b] += 1;
                        if taken[b] < granted[b] {
                            taken[b] += 1;
                            accepting.push(b);
                        }
                    }
                    record.accepts += accepting.len() as u64;
                    let extra = accepting.len().saturating_sub(1);
                    if let Some((&joined, others)) = accepting.split_first() {
                        committed[joined] += 1;
                        record.committed += 1;
                        totals.notifications += extra as u64;
                        others.iter().for_each(|&b| census.per_bin_received[b] += 1);
                    } else {
                        next.push(ball);
                    }
                    if config.track_per_ball {
                        census.per_ball_sent[ball as usize] += (degree + extra) as u32;
                    }
                }
                totals.requests += record.requests;
                totals.responses += record.requests;
                totals.accepts += record.accepts;
                record.unallocated_after = next.len() as u64;
                unallocated = next;
            }
            if config.record_rounds {
                per_round.push(record);
            }
        }
        EngineResult {
            loads: committed,
            rounds,
            remaining: unallocated.len() as u64,
            remaining_balls: unallocated,
            totals,
            per_round,
            census,
        }
    }

    /// `ScheduledThresholdProtocol` in miniature (it lives downstream, in
    /// `pba-algorithms`): a cumulative threshold per round, giving up when the
    /// schedule runs out. A zero degree scripts a silent "collect" round, and
    /// degrees above one are *not* distinct, which no shipped protocol offers.
    struct Scheduled {
        thresholds: Vec<u32>,
        degrees: Vec<usize>,
    }

    impl Protocol for Scheduled {
        fn name(&self) -> &str {
            "scheduled"
        }
        fn degree(&self, ctx: &RoundCtx) -> usize {
            self.degrees[ctx.round % self.degrees.len()]
        }
        fn bin_quota(&self, _bin: u32, committed: u32, ctx: &RoundCtx) -> u32 {
            self.thresholds[ctx.round].saturating_sub(committed)
        }
        fn global_threshold(&self, ctx: &RoundCtx) -> Option<u64> {
            Some(self.thresholds[ctx.round] as u64)
        }
        fn give_up(&self, ctx: &RoundCtx) -> bool {
            ctx.round >= self.thresholds.len()
        }
    }

    /// `LightProtocol` in miniature: capacity-2 bins and distinct choices whose
    /// number doubles every round, capped by a `4n / remaining` message budget
    /// and by `n` — so late rounds have a handful of balls of very high degree.
    struct Doubling;

    impl Protocol for Doubling {
        fn name(&self) -> &str {
            "doubling"
        }
        fn degree(&self, ctx: &RoundCtx) -> usize {
            let budget = (4 * ctx.n_bins / ctx.remaining.max(1) as usize).max(1);
            (1usize << ctx.round.min(20)).min(budget).min(ctx.n_bins)
        }
        fn distinct_choices(&self) -> bool {
            true
        }
        fn bin_quota(&self, _bin: u32, committed: u32, _ctx: &RoundCtx) -> u32 {
            2u32.saturating_sub(committed)
        }
        fn max_rounds(&self) -> usize {
            64
        }
    }

    fn assert_same(name: &str, got: &EngineResult, want: &EngineResult) {
        assert_eq!(got.loads, want.loads, "{name}: loads");
        assert_eq!(got.rounds, want.rounds, "{name}: rounds");
        assert_eq!(got.remaining, want.remaining, "{name}: remaining");
        assert_eq!(
            got.remaining_balls, want.remaining_balls,
            "{name}: remaining_balls"
        );
        assert_eq!(got.totals, want.totals, "{name}: totals");
        assert_eq!(got.per_round, want.per_round, "{name}: per_round");
        assert_eq!(
            got.census.per_bin_received, want.census.per_bin_received,
            "{name}: per_bin_received"
        );
        assert_eq!(
            got.census.per_ball_sent, want.census.per_ball_sent,
            "{name}: per_ball_sent"
        );
    }

    #[test]
    fn blocked_rounds_equal_the_three_step_reference_field_by_field() {
        let fixed = |t, d| Box::new(FixedThresholdProtocol::new(t, d)) as Box<dyn Protocol>;
        let mut too_tight = FixedThresholdProtocol::new(3, 1);
        too_tight.max_rounds = 7;
        // (name, protocol, bins); thresholds suit the ball counts below.
        let cases: Vec<(&str, Box<dyn Protocol>, usize)> = vec![
            (
                "scheduled",
                Box::new(Scheduled {
                    thresholds: vec![110, 124, 127, 129],
                    degrees: vec![1],
                }),
                512,
            ),
            (
                "scheduled, silent rounds, repeated choices",
                Box::new(Scheduled {
                    thresholds: vec![0, 100, 100, 125, 125, 133],
                    degrees: vec![0, 3],
                }),
                500,
            ),
            ("fixed d=1", fixed(258, 1), 257),
            ("fixed d=2", fixed(257, 2), 257),
            ("fixed d=5", fixed(1320, 5), 50),
            ("too tight, hits max_rounds", Box::new(too_tight), 100),
            (
                "per-bin thresholds",
                Box::new(PerBinThresholdProtocol::new((0..300).collect(), 2).with_max_rounds(9)),
                300,
            ),
            ("doubling", Box::new(Doubling), 40_000),
            ("fewer bins than choices", fixed(22_000, 5), 3),
        ];
        // Nothing, one ball, and both sides of one block of degree 1 (which is
        // `d` blocks of degree `d`).
        let sizes = [0, 1, BLOCK_SLOTS - 1, BLOCK_SLOTS, BLOCK_SLOTS + 1];
        for (name, protocol, n) in &cases {
            for (i, &m) in sizes.iter().enumerate() {
                let m = m as u64;
                let seed = 1000 + i as u64;
                for track in [false, true] {
                    let config = EngineConfig::sequential().with_per_ball_tracking(track);
                    let all: Vec<u64> = (0..m).collect();
                    let want = reference_engine(protocol.as_ref(), &all, m, *n, seed, &config);
                    for parallel in [false, true] {
                        let config = EngineConfig { parallel, ..config };
                        let got = run_agent_engine(protocol.as_ref(), m, *n, seed, &config);
                        let label = format!("{name}, m={m}, track={track}, parallel={parallel}");
                        assert_same(&label, &got, &want);
                    }
                }
            }
            // An explicit subset, in an order that is not sorted, of a larger
            // instance — and without round records.
            let subset: Vec<u64> = (0..40_000u64).rev().filter(|b| b % 3 != 1).collect();
            let config = EngineConfig::parallel()
                .with_per_ball_tracking(true)
                .with_round_records(false);
            let want = reference_engine(protocol.as_ref(), &subset, 40_000, *n, 5, &config);
            let got = run_agent_engine_on(protocol.as_ref(), &subset, 40_000, *n, 5, &config);
            assert_same(&format!("{name}, subset"), &got, &want);
            assert!(got.per_round.is_empty());
        }
    }

    #[test]
    fn a_run_that_never_samples_lists_its_initial_balls() {
        let mut p = FixedThresholdProtocol::new(5, 1);
        p.max_rounds = 0;
        let r = run_agent_engine(&p, 5, 2, 1, &EngineConfig::sequential());
        assert_eq!(r.rounds, 0);
        assert_eq!(r.remaining, 5);
        assert_eq!(r.remaining_balls, vec![0, 1, 2, 3, 4]);
        let r = run_agent_engine_on(&p, &[9, 4], 10, 2, 1, &EngineConfig::sequential());
        assert_eq!(r.remaining_balls, vec![9, 4]);
    }

    #[test]
    fn fixed_threshold_allocates_everything_with_slack() {
        let m = 10_000u64;
        let n = 100usize;
        // Threshold with +10 slack: everything must eventually be placed.
        let p = FixedThresholdProtocol::new(ideal_threshold(m, n) + 10, 1);
        let r = run_agent_engine(&p, m, n, 42, &EngineConfig::sequential());
        assert_eq!(r.remaining, 0);
        assert_eq!(r.loads.iter().map(|&l| l as u64).sum::<u64>(), m);
        assert!(r.loads.iter().all(|&l| l <= ideal_threshold(m, n) + 10));
        assert!(r.rounds >= 1);
    }

    #[test]
    fn conservation_holds_even_when_capacity_is_insufficient() {
        let m = 1000u64;
        let n = 10usize;
        // Capacity 50 per bin = 500 slots total: exactly 500 balls must remain.
        let p = FixedThresholdProtocol::new(50, 1);
        let mut proto = p;
        proto.max_rounds = 200;
        let r = run_agent_engine(&proto, m, n, 7, &EngineConfig::sequential());
        let allocated: u64 = r.loads.iter().map(|&l| l as u64).sum();
        assert_eq!(allocated + r.remaining, m);
        assert_eq!(allocated, 500);
        assert_eq!(r.remaining, 500);
        assert!(r.loads.iter().all(|&l| l == 50));
    }

    #[test]
    fn parallel_and_sequential_agree_for_degree_one() {
        let m = 20_000u64;
        let n = 64usize;
        let p = FixedThresholdProtocol::new(ideal_threshold(m, n) + 5, 1);
        let seq = run_agent_engine(&p, m, n, 123, &EngineConfig::sequential());
        let par = run_agent_engine(&p, m, n, 123, &EngineConfig::parallel());
        assert_eq!(seq.loads, par.loads);
        assert_eq!(seq.rounds, par.rounds);
        assert_eq!(seq.totals, par.totals);
        assert_eq!(seq.remaining, par.remaining);
    }

    #[test]
    fn different_seeds_give_different_executions() {
        let m = 5_000u64;
        let n = 32usize;
        let p = FixedThresholdProtocol::new(ideal_threshold(m, n) + 2, 1);
        let a = run_agent_engine(&p, m, n, 1, &EngineConfig::sequential());
        let b = run_agent_engine(&p, m, n, 2, &EngineConfig::sequential());
        assert_ne!(a.loads, b.loads);
    }

    #[test]
    fn per_ball_tracking_counts_at_least_one_message_per_ball() {
        let m = 2_000u64;
        let n = 16usize;
        let p = FixedThresholdProtocol::new(ideal_threshold(m, n) + 4, 1);
        let r = run_agent_engine(
            &p,
            m,
            n,
            5,
            &EngineConfig::sequential().with_per_ball_tracking(true),
        );
        assert_eq!(r.census.per_ball_sent.len(), m as usize);
        assert!(r.census.per_ball_sent.iter().all(|&c| c >= 1));
        let total_sent: u64 = r.census.per_ball_sent.iter().map(|&c| c as u64).sum();
        assert_eq!(total_sent, r.totals.requests + r.totals.notifications);
    }

    #[test]
    fn per_bin_received_matches_request_totals_for_degree_one() {
        let m = 3_000u64;
        let n = 20usize;
        let p = FixedThresholdProtocol::new(ideal_threshold(m, n) + 3, 1);
        let r = run_agent_engine(&p, m, n, 9, &EngineConfig::sequential());
        let received: u64 = r.census.per_bin_received.iter().sum();
        // Degree 1 => no notifications, so received messages == requests.
        assert_eq!(r.totals.notifications, 0);
        assert_eq!(received, r.totals.requests);
    }

    #[test]
    fn degree_two_places_faster_than_degree_one_under_tight_threshold() {
        let m = 40_000u64;
        let n = 64usize;
        let t = ideal_threshold(m, n) + 1;
        let d1 = FixedThresholdProtocol::new(t, 1);
        let d2 = FixedThresholdProtocol::new(t, 2);
        let r1 = run_agent_engine(&d1, m, n, 11, &EngineConfig::sequential());
        let r2 = run_agent_engine(&d2, m, n, 11, &EngineConfig::sequential());
        assert_eq!(r1.remaining, 0);
        assert_eq!(r2.remaining, 0);
        assert!(
            r2.rounds <= r1.rounds,
            "degree 2 should not be slower: d1={} d2={}",
            r1.rounds,
            r2.rounds
        );
        // Degree-2 balls may receive two accepts and must notify the second bin.
        assert!(r2.totals.notifications > 0);
    }

    #[test]
    fn per_bin_threshold_protocol_respects_every_cap() {
        let n = 8usize;
        let thresholds: Vec<u32> = (1..=n as u32).map(|i| i * 3).collect();
        let total_capacity: u64 = thresholds.iter().map(|&t| t as u64).sum();
        let m = total_capacity + 50;
        let p = PerBinThresholdProtocol::new(thresholds.clone(), 1).with_max_rounds(500);
        let r = run_agent_engine(&p, m, n, 3, &EngineConfig::sequential());
        for (b, &load) in r.loads.iter().enumerate() {
            assert!(load <= thresholds[b], "bin {b} exceeded its threshold");
        }
        assert_eq!(r.remaining, m - total_capacity);
    }

    #[test]
    fn round_records_trace_monotone_unallocated_counts() {
        let m = 8_000u64;
        let n = 32usize;
        let p = FixedThresholdProtocol::new(ideal_threshold(m, n) + 2, 1);
        let r = run_agent_engine(&p, m, n, 17, &EngineConfig::sequential());
        assert_eq!(r.per_round.len(), r.rounds);
        let mut prev = m;
        for rec in &r.per_round {
            assert_eq!(rec.unallocated_before, prev);
            assert!(rec.unallocated_after <= rec.unallocated_before);
            assert_eq!(
                rec.committed,
                rec.unallocated_before - rec.unallocated_after
            );
            prev = rec.unallocated_after;
        }
        assert_eq!(prev, 0);
    }

    #[test]
    fn zero_balls_and_zero_bins_edge_cases() {
        let p = FixedThresholdProtocol::new(5, 1);
        let r = run_agent_engine(&p, 0, 4, 1, &EngineConfig::sequential());
        assert_eq!(r.rounds, 0);
        assert_eq!(r.remaining, 0);
        assert_eq!(r.loads, vec![0, 0, 0, 0]);

        let r2 = run_agent_engine(&p, 0, 0, 1, &EngineConfig::sequential());
        assert_eq!(r2.loads.len(), 0);
        assert_eq!(r2.remaining, 0);
    }

    #[test]
    #[should_panic(expected = "zero bins")]
    fn balls_with_zero_bins_panics() {
        let p = FixedThresholdProtocol::new(5, 1);
        let _ = run_agent_engine(&p, 10, 0, 1, &EngineConfig::sequential());
    }

    #[test]
    fn run_on_subset_of_balls_preserves_identities() {
        let p = FixedThresholdProtocol::new(100, 1);
        let balls: Vec<u64> = vec![1_000_000, 2_000_000, 3_000_000];
        let r = run_agent_engine_on(
            &p,
            &balls,
            4_000_000,
            4,
            99,
            &EngineConfig::sequential().with_per_ball_tracking(true),
        );
        assert_eq!(r.remaining, 0);
        assert_eq!(r.loads.iter().map(|&l| l as u64).sum::<u64>(), 3);
        // Only the three named balls sent messages.
        let senders: Vec<u64> = r
            .census
            .per_ball_sent
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(senders, balls);
    }

    #[test]
    fn max_rounds_caps_execution() {
        // Zero capacity: nothing is ever placed, engine must stop at max_rounds.
        let mut p = FixedThresholdProtocol::new(0, 1);
        p.max_rounds = 5;
        let r = run_agent_engine(&p, 100, 4, 1, &EngineConfig::sequential());
        assert_eq!(r.rounds, 5);
        assert_eq!(r.remaining, 100);
        assert_eq!(r.loads, vec![0, 0, 0, 0]);
    }
}
