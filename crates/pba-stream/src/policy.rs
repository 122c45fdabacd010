//! Allocation policies over **stale** load snapshots.
//!
//! The defining property of the batched model (Los & Sauerwald 2022) is that
//! every ball of a batch decides from the load vector *as of the previous
//! batch boundary* — the in-flight placements of its own batch are invisible.
//! A policy is therefore a pure function
//! `(stale snapshot, candidate bins, batch threshold) → chosen bin`,
//! which is what makes the sharded drain embarrassingly parallel and bit-wise
//! identical to the sequential drain.
//!
//! Candidate bins are a pure hash of the ball's key (see
//! [`candidate_bins`]), so a repeated key always contends for the same
//! candidate set — the consistent-hashing behaviour of a real router.
//!
//! ## One hash per key
//!
//! The model asks only that a ball's candidates be uniform, independent
//! across balls and a pure function of `(seed, key)`. So uniform candidates
//! are drawn from **one 64-bit hash of the key**: `h = mix64(key ^
//! stream_key)`, where `stream_key` is [`SplitMix64::stream_key`] of the seed
//! and the candidate stream, computed once per batch. `h` and the words after
//! it (`w' = mix64(w + 0x9e37_79b9_7f4a_7c15)`) are cut into 32-bit draws,
//! high half first, and each draw is ranged into the sampling domain `[0, D)`
//! by Lemire's multiply-shift: the index is `(x·D) >> 32` for the first draw
//! `x` whose low 32 bits of `x·D` are at least `(2³² − D) mod D`. That is
//! exactly uniform, the threshold is computed once per batch so no draw
//! divides, and a power-of-two `D` never rejects. A two-choice ball over any
//! bin count costs one `mix64`.
//!
//! ## Weighted (heterogeneous) policies
//!
//! Two policies are **weight-aware**: [`Policy::WeightedTwoChoice`] and
//! [`Policy::CapacityThreshold`]. When the stream carries non-uniform
//! [`BinWeights`](pba_model::weights::BinWeights), they sample candidates
//! proportionally to weight (alias table, driven by the key's
//! [`SplitMix64::for_substream`] generator) and balance the **normalized
//! load** `load_i / w_i` instead of the raw load. The remaining policies are
//! deliberately weight-*oblivious* — they serve as the "what if the router
//! ignored capacities" baseline that experiment E13 measures against.
//!
//! When the weights are uniform, [`BinWeights::resolve`](pba_model::weights::BinWeights::resolve)
//! canonicalises them to `None` and [`choose_bin`] takes exactly the
//! unweighted code path (same draws, same comparisons), so a uniform
//! weighted configuration is a **strict no-op** — bit-identical to the
//! unweighted engine, as enforced by `tests/weighted_properties.rs`.

use pba_model::rng::{mix64, SplitMix64};
use pba_model::weights::ResolvedWeights;

use crate::metrics::PolicyCounters;

/// Stream used to derive candidate bins from `(seed, key)`.
const CANDIDATE_STREAM: u64 = 0x5742_a11c;

/// A placement policy for one ball, applied to stale loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The ball joins its first candidate unconditionally (single-choice).
    OneChoice,
    /// Two candidates; the ball joins the one with the smaller stale load
    /// (ties to the earlier candidate) — the classic two-choice rule.
    TwoChoice,
    /// `d` candidates; least stale load wins (`Greedy[d]` on stale info).
    DChoice(usize),
    /// The paper's threshold rule adapted to streaming: the ball joins the
    /// first candidate whose stale load is below the batch threshold
    /// `⌈(resident + batch)/n⌉ + slack`, falling back to the least-loaded
    /// candidate when all are at or above it. Uses `d` candidates.
    Threshold {
        /// Number of candidate bins.
        d: usize,
        /// Additive slack over the post-batch mean.
        slack: u32,
    },
    /// Weighted two-choice (heterogeneous bins): two candidates sampled
    /// proportionally to bin weight; the ball joins the candidate with the
    /// smaller **normalized** stale load `load / weight` (ties to the earlier
    /// candidate). With uniform weights this is exactly [`Policy::TwoChoice`].
    WeightedTwoChoice,
    /// Capacity-aware threshold with **overflow retry**: the ball joins the
    /// first of `d` weight-proportional candidates whose stale load is below
    /// that bin's capacity share `⌈(resident + batch)·w_i/W⌉ + slack`. If all
    /// candidates are at or above their threshold (an overflow), the ball
    /// retries once with a fresh candidate set, then falls back to the
    /// least-normalized-loaded candidate seen across both sets.
    CapacityThreshold {
        /// Number of candidate bins per attempt.
        d: usize,
        /// Additive slack over each bin's capacity-fair share.
        slack: u32,
    },
}

impl Policy {
    /// Number of candidate bins this policy samples per ball (per attempt —
    /// [`Policy::CapacityThreshold`] may sample a second set on overflow).
    pub fn choices(&self) -> usize {
        match *self {
            Policy::OneChoice => 1,
            Policy::TwoChoice | Policy::WeightedTwoChoice => 2,
            Policy::DChoice(d) => d.max(1),
            Policy::Threshold { d, .. } | Policy::CapacityThreshold { d, .. } => d.max(1),
        }
    }

    /// True for policies that consult bin weights (sampling and comparison);
    /// the rest ignore weights entirely and act as the oblivious baseline.
    pub fn is_weight_aware(&self) -> bool {
        matches!(
            *self,
            Policy::WeightedTwoChoice | Policy::CapacityThreshold { .. }
        )
    }

    /// Display name used in tables and reports.
    pub fn name(&self) -> String {
        match *self {
            Policy::OneChoice => "one-choice".to_string(),
            Policy::TwoChoice => "two-choice".to_string(),
            Policy::DChoice(d) => format!("{d}-choice"),
            Policy::Threshold { d, slack } => format!("threshold(d={d},slack={slack})"),
            Policy::WeightedTwoChoice => "weighted-two-choice".to_string(),
            Policy::CapacityThreshold { d, slack } => {
                format!("capacity-threshold(d={d},slack={slack})")
            }
        }
    }

    /// Picks the bin for one ball from an already-sampled candidate set.
    /// `snapshot` is the stale load vector, `candidates` the ball's candidate
    /// bins (non-empty), and `batch_threshold` the precomputed threshold for
    /// this batch (only used by the threshold rules).
    ///
    /// This is the **unweighted** picker: the weight-aware policies degrade
    /// to their uniform-weight behaviour here (weighted two-choice → plain
    /// least-loaded; capacity threshold → flat threshold, no retry). The
    /// engine drives the full weighted logic through [`choose_bin`], which
    /// also owns candidate sampling and the overflow retry.
    pub fn pick(&self, snapshot: &[u32], candidates: &[u32], batch_threshold: u32) -> u32 {
        debug_assert!(!candidates.is_empty());
        match *self {
            Policy::OneChoice => candidates[0],
            Policy::TwoChoice | Policy::DChoice(_) | Policy::WeightedTwoChoice => {
                least_loaded(snapshot, candidates)
            }
            Policy::Threshold { .. } | Policy::CapacityThreshold { .. } => {
                for &c in candidates {
                    if snapshot[c as usize] < batch_threshold {
                        return c;
                    }
                }
                least_loaded(snapshot, candidates)
            }
        }
    }
}

/// Everything a policy needs to place one ball of a batch. Borrowed
/// immutably, so one `ChoiceCtx` is shared by every worker of a parallel
/// drain (placements stay pure functions of `(stale snapshot, key)`).
#[derive(Debug, Clone, Copy)]
pub struct ChoiceCtx<'a> {
    /// The stale load vector of the previous batch boundary.
    pub snapshot: &'a [u32],
    /// Resolved non-uniform weights, or `None` for the uniform no-op path.
    pub weights: Option<&'a ResolvedWeights>,
    /// Scalar batch threshold `⌈(resident + batch)/n⌉ + slack` (used by
    /// [`Policy::Threshold`], and by [`Policy::CapacityThreshold`] when the
    /// weights are uniform).
    pub batch_threshold: u32,
    /// Per-bin capacity thresholds `⌈(resident + batch)·w_i/W⌉ + slack`;
    /// empty unless the policy is [`Policy::CapacityThreshold`] and the
    /// weights are non-uniform.
    pub capacity_thresholds: &'a [u32],
    /// Master seed (candidates are a pure hash of `(seed, key)`).
    pub seed: u64,
    /// Number of bins `n` (the snapshot length — the engine's slot
    /// capacity when membership is in play).
    pub bins: usize,
    /// Elastic membership: the sorted **active** slots policies may sample,
    /// or `None` when every slot of `[0, bins)` serves (the fixed-`n` fast
    /// path — no indirection, no extra RNG cost). Candidates are drawn over
    /// `active.len()` and mapped through this list, so a membership whose
    /// active set is `0..n` consumes the identical RNG stream as `None`,
    /// and one with gaps consumes exactly the stream of a compacted
    /// fresh engine over the surviving bins.
    pub active: Option<&'a [u32]>,
    /// Resolved weights **restricted to the active slots** (index space of
    /// `active`, used only for sampling), or `None` when the surviving
    /// weights are uniform. [`ChoiceCtx::weights`] stays in global slot
    /// space for load comparisons and capacity thresholds.
    pub active_weights: Option<&'a ResolvedWeights>,
    /// Fallback counters (`None` = uninstrumented — zero metric
    /// instructions). Write-only: nothing here feeds back into the choice,
    /// so instrumented and bare runs place identically.
    pub counters: Option<&'a PolicyCounters>,
}

impl ChoiceCtx<'_> {
    /// The overflow threshold of `bin`: its capacity share when per-bin
    /// thresholds were computed, the flat batch threshold otherwise.
    fn threshold_of(&self, bin: u32) -> u32 {
        if self.capacity_thresholds.is_empty() {
            self.batch_threshold
        } else {
            self.capacity_thresholds[bin as usize]
        }
    }
}

/// Samples candidates and picks the bin for one ball — the single definition
/// every policy, weighted or not, goes through: build the batch's chooser,
/// choose one key. A pure function of `(ctx, key)`. `candidates` is unused —
/// candidates live on the chooser's stack — and stays in the signature for
/// the callers outside this crate that still pass a scratch vector.
///
/// With `ctx.weights == None` and no membership, the ball's first attempt is
/// exactly [`candidate_bins`] + [`Policy::pick`] — the strict uniform no-op.
/// A weight-aware policy on non-uniform weights samples through the alias
/// table instead, from the key's [`SplitMix64::for_substream`] generator.
pub fn choose_bin(
    policy: Policy,
    ctx: &ChoiceCtx<'_>,
    key: u64,
    _candidates: &mut Vec<u32>,
) -> u32 {
    Chooser::new(policy, ctx).choose_one(key)
}

/// Everything about a choice that is constant across a batch, decided once:
/// the sampling domain and `d` clamped to it, the domain's multiply-shift
/// rejection threshold, whether candidates are drawn weight-proportionally,
/// and the `(seed, CANDIDATE_STREAM)` half of each ball's hash.
/// [`Chooser::choose_span`] is then the choose loop of every drain, route
/// and migration.
pub(crate) struct Chooser<'a> {
    policy: Policy,
    ctx: ChoiceCtx<'a>,
    /// Candidates per attempt: `d` clamped to `[1, domain]`.
    d: usize,
    /// Uniform indices over the sampling domain: the active slots under
    /// membership, every bin otherwise.
    range: UniformRange,
    /// The alias table candidates are drawn from — in the index space of the
    /// domain — when the policy is weight-aware and the weights non-uniform.
    sampler: Option<&'a ResolvedWeights>,
    stream_key: u64,
}

impl<'a> Chooser<'a> {
    pub(crate) fn new(policy: Policy, ctx: &ChoiceCtx<'a>) -> Self {
        // Elastic membership: draw over the active domain, then map the drawn
        // positions to global slot indices. The draws are exactly those of a
        // fixed engine over `active.len()` bins, so an identity active set is
        // a strict no-op and a gapped one matches the compacted fresh engine
        // bit for bit.
        let (domain, weights) = match ctx.active {
            Some(active) => (active.len(), ctx.active_weights),
            None => (ctx.bins, ctx.weights),
        };
        let sampler = weights.filter(|_| policy.is_weight_aware());
        debug_assert!(sampler.is_none_or(|weights| weights.len() == domain));
        Self {
            policy,
            ctx: *ctx,
            d: policy.choices().min(domain.max(1)),
            range: UniformRange::new(domain),
            sampler,
            stream_key: SplitMix64::stream_key(ctx.seed, CANDIDATE_STREAM),
        }
    }

    /// Chooses the bin of every item of a span: `out[i]` is the bin of the
    /// ball with key `key_of(&items[i])`. The one choose loop. The sampler
    /// is matched once here, not per ball; the `d` match then only picks the
    /// candidate buffer the loop runs over, so that for the `d` the policies
    /// actually use the buffer is a stack array whose length the compiler
    /// knows — candidates then live in registers, and the sampling and
    /// comparison loops unroll. A larger `d` runs the same loop over a heap
    /// buffer.
    pub(crate) fn choose_span<K>(&self, items: &[K], key_of: impl Fn(&K) -> u64, out: &mut [u32]) {
        debug_assert_eq!(items.len(), out.len());
        match self.sampler {
            None => self.span_with(
                items,
                |item| KeyDraws::new(self.stream_key, key_of(item)),
                out,
            ),
            Some(weights) => self.span_with(
                items,
                |item| WeightedDraws {
                    rng: SplitMix64::for_substream(self.stream_key, key_of(item)),
                    weights,
                },
                out,
            ),
        }
    }

    /// The bin of the single ball with key `key` (a span of one).
    pub(crate) fn choose_one(&self, key: u64) -> u32 {
        let mut bin = 0;
        self.choose_span(&[key], |&key| key, std::slice::from_mut(&mut bin));
        bin
    }

    #[inline(always)]
    fn span_with<K, D: Draws>(&self, items: &[K], draws_of: impl Fn(&K) -> D, out: &mut [u32]) {
        match self.d {
            1 => self.span_over([0; 1], items, draws_of, out),
            2 => self.span_over([0; 2], items, draws_of, out),
            3 => self.span_over([0; 3], items, draws_of, out),
            4 => self.span_over([0; 4], items, draws_of, out),
            d => self.span_over(vec![0; d], items, draws_of, out),
        }
    }

    #[inline(always)]
    fn span_over<K, D: Draws, B: AsMut<[u32]> + Clone>(
        &self,
        mut first: B,
        items: &[K],
        draws_of: impl Fn(&K) -> D,
        out: &mut [u32],
    ) {
        // The overflow retry's second attempt: same length, its own buffer.
        let mut retry = first.clone();
        let (first, retry) = (first.as_mut(), retry.as_mut());
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = self.choose(draws_of(item), first, retry);
        }
    }

    /// The bin of the ball whose candidates `draws` yields; `first` and
    /// `retry` are `d` slots of candidate scratch each.
    #[inline(always)]
    fn choose(&self, mut draws: impl Draws, first: &mut [u32], retry: &mut [u32]) -> u32 {
        let ctx = &self.ctx;
        self.sample(&mut draws, first);
        match self.policy {
            Policy::OneChoice => first[0],
            Policy::TwoChoice | Policy::DChoice(_) => least_loaded(ctx.snapshot, first),
            Policy::Threshold { .. } => {
                for &c in first.iter() {
                    if ctx.snapshot[c as usize] < ctx.batch_threshold {
                        return c;
                    }
                }
                if let Some(counters) = ctx.counters {
                    counters.threshold_fallback.inc();
                }
                least_loaded(ctx.snapshot, first)
            }
            Policy::WeightedTwoChoice => least_normalized(ctx, first, &[]),
            Policy::CapacityThreshold { .. } => {
                if let Some(c) = first_below_capacity(ctx, first) {
                    return c;
                }
                // Overflow retry: every first-attempt candidate is at or above
                // its capacity share, so draw one fresh set from the same stream
                // (still a pure function of (seed, key)) before giving up.
                if let Some(counters) = ctx.counters {
                    counters.overflow_retry.inc();
                }
                self.sample(&mut draws, retry);
                if let Some(c) = first_below_capacity(ctx, retry) {
                    return c;
                }
                // Both sets overflowed: concede and take the least normalized
                // load among everything seen.
                if let Some(counters) = ctx.counters {
                    counters.overflow_fallback.inc();
                }
                least_normalized(ctx, first, retry)
            }
        }
    }

    /// Fills `out` (one attempt, `d` slots) with distinct candidates from
    /// the ball's draws, mapped to slots under membership.
    #[inline(always)]
    fn sample(&self, draws: &mut impl Draws, out: &mut [u32]) {
        draws.fill(self, out);
        if let Some(active) = self.ctx.active {
            for slot in out {
                *slot = active[*slot as usize];
            }
        }
    }
}

/// One ball's candidate draws. Each [`Draws::fill`] writes one attempt of
/// distinct domain indices and continues the ball's stream, so the overflow
/// retry draws a fresh set that is still a pure function of `(seed, key)`.
trait Draws {
    fn fill(&mut self, chooser: &Chooser<'_>, out: &mut [u32]);
}

/// Weight-proportional candidates: the alias table over the key's
/// [`SplitMix64::for_substream`] generator.
struct WeightedDraws<'w> {
    rng: SplitMix64,
    weights: &'w ResolvedWeights,
}

impl Draws for WeightedDraws<'_> {
    #[inline(always)]
    fn fill(&mut self, chooser: &Chooser<'_>, out: &mut [u32]) {
        let fallback_draws = self.weights.fill_distinct(&mut self.rng, out);
        if fallback_draws > 0 {
            if let Some(counters) = chooser.ctx.counters {
                counters
                    .weighted_uniform_fallback
                    .add(fallback_draws as u64);
            }
        }
    }
}

/// Added to a word of a key's hash to derive the next word.
const WORD_STEP: u64 = 0x9e37_79b9_7f4a_7c15;

/// A ball's uniform 32-bit draws: the halves of `mix64(key ^ stream_key)`
/// and of the words after it, high half first (see the [module
/// docs](self)). A word is mixed only when its first half is drawn.
#[derive(Debug, Clone, Copy)]
struct KeyDraws {
    word: u64,
    drawn: u32,
}

impl KeyDraws {
    #[inline(always)]
    fn new(stream_key: u64, key: u64) -> Self {
        Self {
            word: mix64(key ^ stream_key),
            drawn: 0,
        }
    }

    #[inline(always)]
    fn next(&mut self) -> u32 {
        let high = self.drawn.is_multiple_of(2);
        if high && self.drawn > 0 {
            self.word = mix64(self.word.wrapping_add(WORD_STEP));
        }
        self.drawn += 1;
        if high {
            (self.word >> 32) as u32
        } else {
            self.word as u32
        }
    }
}

impl Draws for KeyDraws {
    #[inline(always)]
    fn fill(&mut self, chooser: &Chooser<'_>, out: &mut [u32]) {
        chooser.range.fill(self, out);
    }
}

/// Exactly uniform indices in `[0, len)` from 32-bit draws, by Lemire's
/// multiply-shift: `(x·len) >> 32` for the first draw `x` whose low 32 bits
/// of `x·len` reach `reject_below = (2³² − len) mod len`. The threshold is
/// the only division, paid once; it is 0 when `len` is a power of two.
#[derive(Debug, Clone, Copy)]
struct UniformRange {
    len: u32,
    reject_below: u32,
}

impl UniformRange {
    /// The range over `len` indices. An empty domain ranges as `len = 1`
    /// would reject (never) but yields index 0, as a chooser over no bins
    /// always has.
    fn new(len: usize) -> Self {
        let len = u32::try_from(len).expect("a sampling domain has at most u32::MAX bins");
        let divisor = len.max(1);
        Self {
            len,
            reject_below: divisor.wrapping_neg() % divisor,
        }
    }

    #[inline(always)]
    fn index(&self, draws: &mut KeyDraws) -> u32 {
        loop {
            let product = u64::from(draws.next()) * u64::from(self.len);
            if product as u32 >= self.reject_below {
                return (product >> 32) as u32;
            }
        }
    }

    /// Fills `out` with distinct indices, slot by slot (so that over an
    /// array every index is a constant), redrawing a repeat. `out` may be at
    /// most `len` long (one slot over an empty domain); at exactly `len` it
    /// becomes `0..len` and nothing is drawn.
    #[inline(always)]
    fn fill(&self, draws: &mut KeyDraws, out: &mut [u32]) {
        debug_assert!(out.len() <= self.len.max(1) as usize);
        if out.len() == self.len as usize {
            for (slot, index) in out.iter_mut().zip(0u32..) {
                *slot = index;
            }
            return;
        }
        for filled in 0..out.len() {
            out[filled] = loop {
                let candidate = self.index(draws);
                if !out[..filled].contains(&candidate) {
                    break candidate;
                }
            };
        }
    }
}

/// First candidate whose stale load is strictly below its capacity threshold.
fn first_below_capacity(ctx: &ChoiceCtx<'_>, candidates: &[u32]) -> Option<u32> {
    candidates
        .iter()
        .copied()
        .find(|&c| ctx.snapshot[c as usize] < ctx.threshold_of(c))
}

/// The candidate with the smallest **normalized** stale load `load / weight`
/// among `candidates` followed by `more`; ties break to the earliest
/// candidate. Falls back to the raw-load comparison when the weights are
/// uniform (`None`), where the two orders coincide.
fn least_normalized(ctx: &ChoiceCtx<'_>, candidates: &[u32], more: &[u32]) -> u32 {
    let mut best = candidates[0];
    for &c in candidates[1..].iter().chain(more) {
        let (load, best_load) = (ctx.snapshot[c as usize], ctx.snapshot[best as usize]);
        let better = match ctx.weights {
            // load_c/w_c < load_best/w_best  ⇔  load_c·w_best < load_best·w_c
            // (cross-multiplied to avoid the division; weights are positive).
            Some(weights) => {
                load as f64 * weights.weight(best as usize)
                    < best_load as f64 * weights.weight(c as usize)
            }
            None => load < best_load,
        };
        if better {
            best = c;
        }
    }
    best
}

/// The candidate with the smallest stale load; ties break to the earliest
/// candidate so the choice is deterministic.
fn least_loaded(snapshot: &[u32], candidates: &[u32]) -> u32 {
    let mut best = candidates[0];
    let mut best_load = snapshot[best as usize];
    for &c in &candidates[1..] {
        let load = snapshot[c as usize];
        if load < best_load {
            best = c;
            best_load = load;
        }
    }
    best
}

/// Derives the candidate bins of a ball with key `key`: `d` distinct bins
/// (fewer only when `n < d`), a pure function of `(seed, key)` — the
/// reference for the uniform candidates every policy draws. The key is
/// hashed once and its 32-bit draws are ranged into `[0, n)` by
/// multiply-shift, as the [module docs](self) specify.
pub fn candidate_bins(seed: u64, key: u64, d: usize, n: usize, out: &mut Vec<u32>) {
    out.clear();
    out.resize(d.max(1).min(n), 0);
    let mut draws = KeyDraws::new(SplitMix64::stream_key(seed, CANDIDATE_STREAM), key);
    UniformRange::new(n).fill(&mut draws, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_choice_ignores_loads() {
        let snapshot = vec![100, 0, 0];
        assert_eq!(Policy::OneChoice.pick(&snapshot, &[0, 1], 0), 0);
        assert_eq!(Policy::OneChoice.choices(), 1);
    }

    #[test]
    fn two_choice_takes_less_loaded_with_deterministic_ties() {
        let snapshot = vec![5, 3, 3, 9];
        assert_eq!(Policy::TwoChoice.pick(&snapshot, &[0, 1], 0), 1);
        assert_eq!(
            Policy::TwoChoice.pick(&snapshot, &[1, 2], 0),
            1,
            "tie → first"
        );
        assert_eq!(
            Policy::TwoChoice.pick(&snapshot, &[2, 1], 0),
            2,
            "tie → first"
        );
        assert_eq!(Policy::DChoice(3).pick(&snapshot, &[3, 0, 2], 0), 2);
    }

    #[test]
    fn threshold_prefers_first_below_threshold() {
        let snapshot = vec![10, 4, 2];
        let p = Policy::Threshold { d: 2, slack: 0 };
        // First candidate below T wins even if the second is emptier.
        assert_eq!(p.pick(&snapshot, &[1, 2], 5), 1);
        // All candidates at/above T → least loaded.
        assert_eq!(p.pick(&snapshot, &[0, 1], 4), 1);
        assert_eq!(p.choices(), 2);
    }

    #[test]
    fn candidates_are_distinct_deterministic_and_key_stable() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        candidate_bins(7, 42, 2, 64, &mut a);
        candidate_bins(7, 42, 2, 64, &mut b);
        assert_eq!(a, b, "same (seed, key) → same candidates");
        assert_eq!(a.len(), 2);
        assert_ne!(a[0], a[1]);
        candidate_bins(7, 43, 2, 64, &mut b);
        assert_ne!(a, b, "different keys should (almost surely) differ");
        candidate_bins(8, 42, 2, 64, &mut b);
        assert_ne!(a, b, "different seeds should (almost surely) differ");
    }

    #[test]
    fn candidates_clamp_to_bin_count() {
        let mut out = Vec::new();
        candidate_bins(1, 5, 4, 2, &mut out);
        assert_eq!(out, vec![0, 1], "d > n returns every bin");
    }

    #[test]
    fn policy_names_are_distinct() {
        let names = [
            Policy::OneChoice.name(),
            Policy::TwoChoice.name(),
            Policy::DChoice(3).name(),
            Policy::Threshold { d: 2, slack: 1 }.name(),
            Policy::WeightedTwoChoice.name(),
            Policy::CapacityThreshold { d: 2, slack: 1 }.name(),
        ];
        let mut dedup = names.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    fn uniform_ctx<'a>(snapshot: &'a [u32], threshold: u32) -> ChoiceCtx<'a> {
        ChoiceCtx {
            snapshot,
            weights: None,
            batch_threshold: threshold,
            capacity_thresholds: &[],
            seed: 9,
            bins: snapshot.len(),
            active: None,
            active_weights: None,
            counters: None,
        }
    }

    /// The uniform draw stream of the module docs, transcribed literally:
    /// `w0 = mix64(key ^ stream_key)`, `w(i+1) = mix64(w(i) + 0x9e37…7c15)`,
    /// each word two 32-bit draws, high half first.
    fn reference_draws(seed: u64, key: u64) -> impl Iterator<Item = u32> {
        let h = mix64(key ^ SplitMix64::stream_key(seed, CANDIDATE_STREAM));
        std::iter::successors(Some(h), |w| {
            Some(mix64(w.wrapping_add(0x9e37_79b9_7f4a_7c15)))
        })
        .flat_map(|w| [(w >> 32) as u32, w as u32])
    }

    /// An index in `[0, d)`: `(x·d) >> 32` for the first draw `x` whose low
    /// 32 bits of `x·d` are at least `t = (2³² − d) mod d`, with `t` taken
    /// over `d.max(1)`.
    fn reference_index(draws: &mut impl Iterator<Item = u32>, d: usize) -> u32 {
        let d = d as u64;
        let t = ((1u64 << 32) - d.max(1)) % d.max(1);
        loop {
            let product = u64::from(draws.next().expect("the stream is endless")) * d;
            if product % (1 << 32) >= t {
                return (product >> 32) as u32;
            }
        }
    }

    /// `k` distinct uniform indices in `[0, n)` appended to `out` (every
    /// index, drawing nothing, when `k ≥ n`).
    fn reference_distinct(
        draws: &mut impl Iterator<Item = u32>,
        n: usize,
        k: usize,
        out: &mut Vec<u32>,
    ) {
        let start = out.len();
        if k >= n {
            out.extend(0..n as u32);
            return;
        }
        while out.len() - start < k {
            let candidate = reference_index(draws, n);
            if !out[start..].contains(&candidate) {
                out.push(candidate);
            }
        }
    }

    #[test]
    fn choose_bin_matches_candidate_bins_plus_pick_when_unweighted() {
        // The uniform no-op invariant at the policy level: choose_bin must be
        // byte-for-byte the candidate_bins + pick composition, and
        // candidate_bins the literal derivation.
        let snapshot: Vec<u32> = (0..64u32).map(|i| (i * 7) % 13).collect();
        let mut scratch = Vec::new();
        let mut reference = Vec::new();
        let mut literal = Vec::new();
        for policy in [
            Policy::OneChoice,
            Policy::TwoChoice,
            Policy::DChoice(3),
            Policy::Threshold { d: 2, slack: 1 },
        ] {
            let ctx = uniform_ctx(&snapshot, 6);
            for key in 0..500u64 {
                let chosen = choose_bin(policy, &ctx, key, &mut scratch);
                candidate_bins(ctx.seed, key, policy.choices(), ctx.bins, &mut reference);
                literal.clear();
                let mut draws = reference_draws(ctx.seed, key);
                reference_distinct(&mut draws, ctx.bins, policy.choices(), &mut literal);
                assert_eq!(reference, literal, "policy {} key {key}", policy.name());
                let expected = policy.pick(&snapshot, &reference, ctx.batch_threshold);
                assert_eq!(chosen, expected, "policy {} key {key}", policy.name());
            }
        }
    }

    /// `choose_bin` as the derivation specifies it — candidates in a `Vec`,
    /// one rejection loop over the whole vector, nothing hoisted: uniform
    /// candidates from [`reference_draws`], weight-proportional ones from
    /// the key's `for_stream` generator — kept as the reference the chooser
    /// must reproduce draw for draw.
    fn reference_choose_bin(policy: Policy, ctx: &ChoiceCtx<'_>, key: u64) -> u32 {
        fn sample(
            policy: Policy,
            ctx: &ChoiceCtx<'_>,
            rng: &mut SplitMix64,
            draws: &mut impl Iterator<Item = u32>,
            out: &mut Vec<u32>,
        ) {
            let (n, weights) = match ctx.active {
                Some(active) => (active.len(), ctx.active_weights),
                None => (ctx.bins, ctx.weights),
            };
            let k = policy.choices().max(1).min(n.max(1));
            let start = out.len();
            match weights.filter(|_| policy.is_weight_aware()) {
                Some(weights) if k >= n => {
                    assert_eq!(weights.len(), n);
                    out.extend(0..n as u32);
                }
                Some(weights) => {
                    let mut rejections = 0u32;
                    while out.len() - start < k {
                        let candidate = if rejections < 64 {
                            weights.sample(rng)
                        } else {
                            rng.gen_index(n) as u32
                        };
                        if out[start..].contains(&candidate) {
                            rejections += 1;
                        } else {
                            out.push(candidate);
                            rejections = 0;
                        }
                    }
                }
                None => reference_distinct(draws, n, k, out),
            }
            if let Some(active) = ctx.active {
                for slot in &mut out[start..] {
                    *slot = active[*slot as usize];
                }
            }
        }
        let mut candidates = Vec::new();
        let mut rng = SplitMix64::for_stream(ctx.seed, CANDIDATE_STREAM, key);
        let mut draws = reference_draws(ctx.seed, key);
        sample(policy, ctx, &mut rng, &mut draws, &mut candidates);
        match policy {
            Policy::OneChoice => candidates[0],
            Policy::TwoChoice | Policy::DChoice(_) => least_loaded(ctx.snapshot, &candidates),
            Policy::Threshold { .. } => candidates
                .iter()
                .copied()
                .find(|&c| ctx.snapshot[c as usize] < ctx.batch_threshold)
                .unwrap_or_else(|| least_loaded(ctx.snapshot, &candidates)),
            Policy::WeightedTwoChoice => least_normalized(ctx, &candidates, &[]),
            Policy::CapacityThreshold { .. } => {
                if let Some(c) = first_below_capacity(ctx, &candidates) {
                    return c;
                }
                let retry_start = candidates.len();
                sample(policy, ctx, &mut rng, &mut draws, &mut candidates);
                first_below_capacity(ctx, &candidates[retry_start..])
                    .unwrap_or_else(|| least_normalized(ctx, &candidates, &[]))
            }
        }
    }

    /// One grid cell: a span of keys through the chooser against the
    /// reference, the one-key entry point and — where it applies, i.e. no
    /// weights, no membership and no retry — `candidate_bins` + `pick`.
    fn assert_chooser_matches_reference(policy: Policy, ctx: &ChoiceCtx<'_>) {
        let keys: Vec<u64> = (0..200u64).map(|k| k * 0x9e37 + 5).collect();
        let mut span = vec![0u32; keys.len()];
        Chooser::new(policy, ctx).choose_span(&keys, |&k| k, &mut span);
        let picks = ctx.weights.is_none()
            && ctx.active.is_none()
            && !matches!(policy, Policy::CapacityThreshold { .. });
        let mut scratch = Vec::new();
        for (&key, &chosen) in keys.iter().zip(&span) {
            let label = format!(
                "policy {} n {} weighted {} active {:?} key {key}",
                policy.name(),
                ctx.bins,
                ctx.weights.is_some(),
                ctx.active.map(<[u32]>::len),
            );
            assert_eq!(chosen, reference_choose_bin(policy, ctx, key), "{label}");
            assert_eq!(
                chosen,
                choose_bin(policy, ctx, key, &mut scratch),
                "{label}"
            );
            if picks {
                candidate_bins(ctx.seed, key, policy.choices(), ctx.bins, &mut scratch);
                let picked = policy.pick(ctx.snapshot, &scratch, ctx.batch_threshold);
                assert_eq!(chosen, picked, "{label}");
            }
        }
    }

    #[test]
    fn chooser_reproduces_the_reference_stream_on_the_whole_grid() {
        use pba_model::weights::BinWeights;
        for n in [1usize, 2, 3, 7, 64, 1000] {
            // Loads that differ between neighbours and repeat, so ties, strict
            // orders and threshold crossings all occur.
            let snapshot: Vec<u32> = (0..n as u32).map(|i| (i * 7) % 13).collect();
            let capacity: Vec<u32> = (0..n as u32).map(|i| 4 + (i * 5) % 9).collect();
            let identity: Vec<u32> = (0..n as u32).collect();
            // Every third slot drained (never the last survivor).
            let gapped: Vec<u32> = (0..n as u32).filter(|b| n < 3 || b % 3 != 1).collect();
            let tiers = (n >= 4).then(|| {
                BinWeights::power_of_two_tiers(&[(n / 4, 2), (n / 4, 1), (n - 2 * (n / 4), 0)])
                    .resolve(n)
                    .expect("tiered weights are non-uniform")
            });
            for (weights, active) in [
                (None, None),
                (None, Some(&identity)),
                (None, Some(&gapped)),
                (tiers.as_ref(), None),
                (tiers.as_ref(), Some(&identity)),
                (tiers.as_ref(), Some(&gapped)),
            ] {
                // The sampling table lives in the index space of the active
                // list.
                let active_weights = weights.zip(active).and_then(|(weights, active)| {
                    let surviving = active.iter().map(|&b| weights.weight(b as usize));
                    BinWeights::explicit(surviving.collect()).resolve(active.len())
                });
                let ctx = ChoiceCtx {
                    snapshot: &snapshot,
                    weights,
                    batch_threshold: 6,
                    capacity_thresholds: if weights.is_some() { &capacity } else { &[] },
                    seed: 11,
                    bins: n,
                    active: active.map(|active| &active[..]),
                    active_weights: active_weights.as_ref(),
                    counters: None,
                };
                assert_chooser_matches_reference(Policy::OneChoice, &ctx);
                assert_chooser_matches_reference(Policy::TwoChoice, &ctx);
                assert_chooser_matches_reference(Policy::WeightedTwoChoice, &ctx);
                // d ≥ n for the small n: every bin is a candidate.
                for d in [1usize, 2, 3, 5] {
                    assert_chooser_matches_reference(Policy::DChoice(d), &ctx);
                    assert_chooser_matches_reference(Policy::Threshold { d, slack: 1 }, &ctx);
                    assert_chooser_matches_reference(
                        Policy::CapacityThreshold { d, slack: 0 },
                        &ctx,
                    );
                }
            }
        }
    }

    /// Pearson's statistic of `counts` against equal expected counts.
    fn chi_square(counts: &[u64]) -> f64 {
        let total: u64 = counts.iter().sum();
        let expected = total as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum()
    }

    /// The χ² critical value at p = 10⁻⁶ for `df` degrees of freedom, by
    /// Wilson–Hilferty (z = 4.7534 is the normal's 10⁻⁶ upper quantile).
    fn critical(df: usize) -> f64 {
        let df = df as f64;
        let v = 2.0 / (9.0 * df);
        df * (1.0 - v + 4.753_424 * v.sqrt()).powi(3)
    }

    #[test]
    fn uniform_candidates_pass_chi_square() {
        const KEYS: usize = 1 << 16;
        let sequential: Vec<u64> = (0..KEYS as u64).collect();
        let mut rng = SplitMix64::new(0x0c41);
        let hashed: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
        let mut out = Vec::new();
        for d in [64usize, 100] {
            for (label, keys) in [("sequential", &sequential), ("splitmix", &hashed)] {
                let mut first = vec![0u64; d];
                let mut second = vec![0u64; d];
                let mut pair = vec![0u64; d * d];
                let mut adjacent = vec![0u64; d * d];
                let mut previous = None;
                for (i, &key) in keys.iter().enumerate() {
                    candidate_bins(3, key, 2, d, &mut out);
                    let (a, b) = (out[0] as usize, out[1] as usize);
                    assert_ne!(a, b);
                    first[a] += 1;
                    second[b] += 1;
                    pair[a * d + b] += 1;
                    // Keys 2j and 2j + 1: disjoint pairs, so the cells are
                    // independent samples.
                    if i % 2 == 1 {
                        adjacent[previous.expect("an even key came first") * d + a] += 1;
                    }
                    previous = Some(a);
                }
                // A pair never repeats a bin: only its d·(d − 1) off-diagonal
                // cells can fill.
                let off_diagonal: Vec<u64> = (0..d * d)
                    .filter(|cell| cell / d != cell % d)
                    .map(|cell| pair[cell])
                    .collect();
                for (what, counts) in [
                    ("first", &first[..]),
                    ("second", &second[..]),
                    ("pair", &off_diagonal[..]),
                    ("adjacent firsts", &adjacent[..]),
                ] {
                    let (statistic, bound) = (chi_square(counts), critical(counts.len() - 1));
                    assert!(
                        statistic < bound,
                        "{label} keys, d = {d}, {what}: χ² = {statistic:.1} ≥ {bound:.1}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranged_indices_stay_below_the_domain_and_powers_of_two_never_reject() {
        for len in [
            1usize,
            2,
            3,
            7,
            64,
            100,
            1000,
            1024,
            1 << 31,
            (1 << 31) + 1,
            u32::MAX as usize,
        ] {
            let range = UniformRange::new(len);
            let t = ((1u64 << 32) - len as u64) % len as u64;
            assert_eq!(u64::from(range.reject_below), t, "len {len}");
            assert_eq!(t == 0, len.is_power_of_two(), "len {len}");
            for key in 0..2000u64 {
                let mut draws = KeyDraws::new(0x5eed, key);
                assert!(
                    (range.index(&mut draws) as usize) < len,
                    "len {len} key {key}"
                );
                if len.is_power_of_two() {
                    assert_eq!(draws.drawn, 1, "len {len} key {key} rejected a draw");
                }
            }
        }
        // An empty domain ranges as one index and draws it.
        let empty = UniformRange::new(0);
        assert_eq!(empty.reject_below, 0);
        assert_eq!(empty.index(&mut KeyDraws::new(0, 9)), 0);
    }

    #[test]
    fn weighted_two_choice_balances_normalized_load() {
        use pba_model::weights::BinWeights;
        // Bin 0 has weight 4 and load 6 (normalized 1.5); bin 1 has weight 1
        // and load 2 (normalized 2). Raw comparison prefers bin 1; the
        // normalized comparison must prefer bin 0.
        let weights = BinWeights::explicit(vec![4.0, 1.0, 1.0])
            .resolve(3)
            .unwrap();
        let snapshot = vec![6u32, 2, 50];
        let ctx = ChoiceCtx {
            snapshot: &snapshot,
            weights: Some(&weights),
            batch_threshold: 0,
            capacity_thresholds: &[],
            seed: 1,
            bins: 3,
            active: None,
            active_weights: None,
            counters: None,
        };
        assert_eq!(least_normalized(&ctx, &[0, 1], &[]), 0);
        assert_eq!(least_normalized(&ctx, &[1, 0], &[]), 0);
        // Exact normalized tie (8/4 vs 2/1) breaks to the earlier candidate.
        let snapshot = vec![8u32, 2, 50];
        let ctx = ChoiceCtx {
            snapshot: &snapshot,
            ..ctx
        };
        assert_eq!(least_normalized(&ctx, &[1, 0], &[]), 1);
        assert_eq!(least_normalized(&ctx, &[0, 1], &[]), 0);
    }

    #[test]
    fn capacity_threshold_uses_per_bin_thresholds_and_retries() {
        use pba_model::weights::BinWeights;
        let weights = BinWeights::explicit(vec![4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
            .resolve(8)
            .unwrap();
        // Every bin is saturated except bin 0 (threshold 8, load 3): whatever
        // candidates are drawn, every ball must end up in a bin that was
        // below its threshold if one was ever sampled, and the retry gives it
        // a second chance to find one.
        let snapshot = vec![3u32, 9, 9, 9, 9, 9, 9, 9];
        let caps = vec![8u32, 2, 2, 2, 2, 2, 2, 2];
        let ctx = ChoiceCtx {
            snapshot: &snapshot,
            weights: Some(&weights),
            batch_threshold: 2,
            capacity_thresholds: &caps,
            seed: 77,
            bins: 8,
            active: None,
            active_weights: None,
            counters: None,
        };
        let policy = Policy::CapacityThreshold { d: 2, slack: 0 };
        let mut scratch = Vec::new();
        let mut found_bin0 = 0usize;
        for key in 0..200u64 {
            let chosen = choose_bin(policy, &ctx, key, &mut scratch);
            if chosen == 0 {
                found_bin0 += 1;
                // Bin 0 is the only below-threshold bin.
                assert!(snapshot[chosen as usize] < caps[chosen as usize]);
            }
        }
        // Weighted sampling gives bin 0 a 4/11 share per draw and the retry
        // doubles the attempts, so a large majority of balls must find it.
        assert!(found_bin0 > 120, "only {found_bin0}/200 found the open bin");
    }

    #[test]
    fn capacity_threshold_overflow_falls_back_to_least_normalized() {
        use pba_model::weights::BinWeights;
        let weights = BinWeights::explicit(vec![4.0, 1.0]).resolve(2).unwrap();
        // Both bins saturated: fall back to least normalized (12/4 = 3 < 4/1).
        let snapshot = vec![12u32, 4];
        let caps = vec![2u32, 2];
        let ctx = ChoiceCtx {
            snapshot: &snapshot,
            weights: Some(&weights),
            batch_threshold: 2,
            capacity_thresholds: &caps,
            seed: 5,
            bins: 2,
            active: None,
            active_weights: None,
            counters: None,
        };
        let mut scratch = Vec::new();
        for key in 0..50u64 {
            let chosen = choose_bin(
                Policy::CapacityThreshold { d: 2, slack: 0 },
                &ctx,
                key,
                &mut scratch,
            );
            assert_eq!(chosen, 0, "key {key}");
        }
    }

    #[test]
    fn identity_active_set_is_a_strict_noop() {
        // active = 0..n must consume the same RNG stream and choose the same
        // bins as active = None, for every policy shape.
        let snapshot: Vec<u32> = (0..32u32).map(|i| (i * 5) % 11).collect();
        let identity: Vec<u32> = (0..32u32).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for policy in [
            Policy::OneChoice,
            Policy::TwoChoice,
            Policy::DChoice(4),
            Policy::Threshold { d: 3, slack: 0 },
            Policy::WeightedTwoChoice,
            Policy::CapacityThreshold { d: 2, slack: 0 },
        ] {
            let bare = uniform_ctx(&snapshot, 4);
            let mapped = ChoiceCtx {
                active: Some(&identity),
                ..bare
            };
            for key in 0..300u64 {
                assert_eq!(
                    choose_bin(policy, &bare, key, &mut a),
                    choose_bin(policy, &mapped, key, &mut b),
                    "policy {} key {key}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn gapped_active_set_matches_a_compacted_domain() {
        // A membership engine sampling over the active list must choose the
        // same *backends* a fresh engine over the surviving bins chooses
        // (positions map through the sorted active list).
        let full_snapshot = vec![3u32, 99, 5, 99, 7, 2, 99, 4];
        let active = vec![0u32, 2, 4, 5, 7]; // bins 1, 3, 6 drained
        let compact_snapshot: Vec<u32> =
            active.iter().map(|&b| full_snapshot[b as usize]).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for policy in [Policy::TwoChoice, Policy::DChoice(3), Policy::OneChoice] {
            let elastic = ChoiceCtx {
                snapshot: &full_snapshot,
                active: Some(&active),
                ..uniform_ctx(&full_snapshot, 0)
            };
            let compact = uniform_ctx(&compact_snapshot, 0);
            for key in 0..300u64 {
                let chosen = choose_bin(policy, &elastic, key, &mut a);
                let compacted = choose_bin(policy, &compact, key, &mut b);
                assert_eq!(
                    chosen,
                    active[compacted as usize],
                    "policy {} key {key}",
                    policy.name()
                );
                assert!(active.contains(&chosen), "never samples a drained bin");
            }
        }
    }

    #[test]
    fn weighted_active_sampling_uses_the_restricted_alias_table() {
        use pba_model::weights::BinWeights;
        // Capacity 6, bins 1 and 3 drained; the surviving weights are skewed
        // so the weighted path exercises the restricted alias table.
        let active = vec![0u32, 2, 4, 5];
        let full = vec![4.0, 9.0, 1.0, 9.0, 1.0, 2.0];
        let restricted: Vec<f64> = active.iter().map(|&b| full[b as usize]).collect();
        let active_resolved = BinWeights::explicit(restricted.clone()).resolve(4).unwrap();
        let full_resolved = BinWeights::explicit(full).resolve(6).unwrap();
        let compact_resolved = BinWeights::explicit(restricted).resolve(4).unwrap();
        let full_snapshot = vec![8u32, 99, 2, 99, 2, 4];
        let compact_snapshot: Vec<u32> =
            active.iter().map(|&b| full_snapshot[b as usize]).collect();
        let elastic = ChoiceCtx {
            snapshot: &full_snapshot,
            weights: Some(&full_resolved),
            batch_threshold: 0,
            capacity_thresholds: &[],
            seed: 13,
            bins: 6,
            active: Some(&active),
            active_weights: Some(&active_resolved),
            counters: None,
        };
        let compact = ChoiceCtx {
            snapshot: &compact_snapshot,
            weights: Some(&compact_resolved),
            batch_threshold: 0,
            capacity_thresholds: &[],
            seed: 13,
            bins: 4,
            active: None,
            active_weights: None,
            counters: None,
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        for key in 0..300u64 {
            let chosen = choose_bin(Policy::WeightedTwoChoice, &elastic, key, &mut a);
            let compacted = choose_bin(Policy::WeightedTwoChoice, &compact, key, &mut b);
            assert_eq!(chosen, active[compacted as usize], "key {key}");
        }
    }

    #[test]
    fn weight_awareness_flags() {
        assert!(Policy::WeightedTwoChoice.is_weight_aware());
        assert!(Policy::CapacityThreshold { d: 2, slack: 0 }.is_weight_aware());
        assert!(!Policy::TwoChoice.is_weight_aware());
        assert!(!Policy::Threshold { d: 2, slack: 0 }.is_weight_aware());
        assert_eq!(Policy::WeightedTwoChoice.choices(), 2);
        assert_eq!(Policy::CapacityThreshold { d: 3, slack: 0 }.choices(), 3);
    }
}
