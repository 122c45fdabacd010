//! Deterministic, splittable pseudo-random number generation.
//!
//! Reproducibility requirement: an algorithm run is fully determined by
//! `(algorithm, m, n, seed)`. Inside a round, every ball's random bin choices are
//! a pure function of `(seed, ball_id, round, draw_index)`, so the agent engine can
//! sample them in any order (sequentially or from rayon worker threads) and still
//! produce bit-identical executions.
//!
//! We use the SplitMix64 generator (Steele, Lea, Flood 2014) — a tiny, fast,
//! full-period 64-bit generator that is more than adequate for simulation work —
//! together with a mixing function to derive independent streams.

/// SplitMix64 pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// Finalizer from SplitMix64 / MurmurHash3; used both for advancing the stream and
/// for deriving per-agent stream seeds.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Creates a generator from a seed. Different seeds yield statistically
    /// independent streams for simulation purposes.
    pub fn new(seed: u64) -> Self {
        Self {
            // Pre-mix so that small consecutive seeds do not yield correlated
            // first outputs.
            state: mix64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Derives a generator for a `(seed, stream, substream)` triple. Used to give
    /// each ball in each round its own independent stream. This body is the
    /// spec: the two splits below hoist one half of it out of a loop.
    pub fn for_stream(seed: u64, stream: u64, substream: u64) -> Self {
        let a = mix64(seed ^ 0xa076_1d64_78bd_642f);
        let b = mix64(
            stream
                .wrapping_add(0xe703_7ed1_a0b4_28db)
                .wrapping_mul(0x8ebc_6af0_9c88_c6e3),
        );
        let c = mix64(substream.wrapping_add(0x5896_36e0_8cda_3e7b));
        Self {
            state: mix64(a ^ b.rotate_left(23) ^ c.rotate_left(47)),
        }
    }

    /// The `(seed, stream)` half of [`SplitMix64::for_stream`] — two of its
    /// four mixes — for a caller that derives many substreams of one stream
    /// (the streaming drain derives one per ball):
    /// `for_substream(stream_key(seed, stream), substream)` is
    /// `for_stream(seed, stream, substream)` (pinned by a test).
    #[inline]
    pub fn stream_key(seed: u64, stream: u64) -> u64 {
        let a = mix64(seed ^ 0xa076_1d64_78bd_642f);
        let b = mix64(
            stream
                .wrapping_add(0xe703_7ed1_a0b4_28db)
                .wrapping_mul(0x8ebc_6af0_9c88_c6e3),
        );
        a ^ b.rotate_left(23)
    }

    /// The generator of `substream` under a [`SplitMix64::stream_key`].
    #[inline]
    pub fn for_substream(stream_key: u64, substream: u64) -> Self {
        let c = mix64(substream.wrapping_add(0x5896_36e0_8cda_3e7b));
        Self {
            state: mix64(stream_key ^ c.rotate_left(47)),
        }
    }

    /// The `(seed, substream)` half of [`SplitMix64::for_stream`], the other
    /// split: for a caller that derives many streams under one substream (a
    /// round engine derives one per ball, all under the round's number):
    /// `for_stream_under(substream_key(seed, substream), stream)` is
    /// `for_stream(seed, stream, substream)` (pinned by a test).
    #[inline]
    pub fn substream_key(seed: u64, substream: u64) -> u64 {
        let a = mix64(seed ^ 0xa076_1d64_78bd_642f);
        let c = mix64(substream.wrapping_add(0x5896_36e0_8cda_3e7b));
        a ^ c.rotate_left(47)
    }

    /// The generator of `stream` under a [`SplitMix64::substream_key`].
    #[inline]
    pub fn for_stream_under(substream_key: u64, stream: u64) -> Self {
        let b = mix64(
            stream
                .wrapping_add(0xe703_7ed1_a0b4_28db)
                .wrapping_mul(0x8ebc_6af0_9c88_c6e3),
        );
        Self {
            state: mix64(substream_key ^ b.rotate_left(23)),
        }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Uniform integer in `[0, bound)`. Returns `0` when `bound == 0`.
    ///
    /// Uses rejection sampling on the top bits so the result is exactly uniform.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Rejection sampling: draw from the largest multiple of `bound` below 2^64.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// A standard normal variate via the Box–Muller transform.
    pub fn gen_normal(&mut self) -> f64 {
        // Avoid u1 == 0 so the logarithm is finite.
        let u1 = (self.next_u64() >> 11) as f64 + 1.0;
        let u1 = u1 * (1.0 / (1u64 << 53) as f64);
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.gen_index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Fills `out` with `out.len()` distinct indices from `[0, bound)`, drawn
    /// slot by slot and redrawn on a repeat — rejection, which suits the
    /// lengths every protocol in this workspace uses (`O(1)` or `O(log n)`
    /// against `bound`). `out` may be at most `bound` long; at exactly
    /// `bound` it becomes `0..bound` and no randomness is consumed.
    // Always inlined: over a fixed-length array the loops below unroll and
    // the candidates stay in registers.
    #[inline(always)]
    pub fn fill_distinct(&mut self, bound: usize, out: &mut [u32]) {
        debug_assert!(out.len() <= bound);
        if out.len() == bound {
            for (slot, index) in out.iter_mut().zip(0u32..) {
                *slot = index;
            }
            return;
        }
        // Slot by slot, so that over an array every index is a constant.
        for filled in 0..out.len() {
            out[filled] = loop {
                let candidate = self.gen_index(bound) as u32;
                if !out[..filled].contains(&candidate) {
                    break candidate;
                }
            };
        }
    }
}

/// A reproducible **sequence of seeds/generators** derived from one root:
/// `(root, stream)` names the family, `index` selects a member. Stress tests
/// give each caller thread `seq.rng(t)`, trace generators give each trace
/// `seq.seed(i)` — varying the root varies *every* member together, so a
/// whole suite re-runs under a new seed without touching any call site
/// (previously each site hardcoded its own `for_stream(seed, TAG, k)`
/// triple, which made the root impossible to thread through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSeq {
    root: u64,
    stream: u64,
}

impl SeedSeq {
    /// The seed family `(root, stream)`. `stream` is a caller-chosen tag that
    /// keeps two families with the same root statistically independent.
    pub const fn new(root: u64, stream: u64) -> Self {
        Self { root, stream }
    }

    /// The root this family derives from.
    pub const fn root(&self) -> u64 {
        self.root
    }

    /// Member `index` as a ready generator.
    pub fn rng(&self, index: u64) -> SplitMix64 {
        SplitMix64::for_stream(self.root, self.stream, index)
    }

    /// Member `index` as a derived 64-bit seed (for APIs that take a seed
    /// rather than a generator). Equal to the first draw of [`SeedSeq::rng`]'s
    /// sibling stream, so it never aliases the generator's own outputs.
    pub fn seed(&self, index: u64) -> u64 {
        self.rng(index ^ 0x5eed_5eed_5eed_5eed).next_u64()
    }

    /// A nested family rooted at member `index` (same stream tag).
    pub fn child(&self, index: u64) -> SeedSeq {
        SeedSeq::new(self.seed(index), self.stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn a_stream_key_and_its_substreams_are_for_stream_in_two_steps() {
        // Both splits, against `for_stream`'s own body: every triple over a
        // grid with both ends of `u64` and the wrap-around of each constant.
        let grid = [0, 1, 7, 0x5742_a11c, 1 << 63, u64::MAX - 1, u64::MAX];
        for seed in grid {
            for stream in grid {
                for substream in grid {
                    let whole = SplitMix64::for_stream(seed, stream, substream);
                    assert_eq!(
                        SplitMix64::for_substream(SplitMix64::stream_key(seed, stream), substream),
                        whole,
                    );
                    assert_eq!(
                        SplitMix64::for_stream_under(
                            SplitMix64::substream_key(seed, substream),
                            stream
                        ),
                        whole,
                    );
                }
            }
        }
    }

    #[test]
    fn stream_derivation_is_deterministic_and_distinct() {
        let a1 = SplitMix64::for_stream(7, 100, 3);
        let a2 = SplitMix64::for_stream(7, 100, 3);
        assert_eq!(a1, a2);
        let b = SplitMix64::for_stream(7, 101, 3);
        let c = SplitMix64::for_stream(7, 100, 4);
        assert_ne!(a1, b);
        assert_ne!(a1, c);
        assert_ne!(b, c);
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = SplitMix64::new(3);
        assert_eq!(rng.gen_range(0), 0);
        assert_eq!(rng.gen_range(1), 0);
        for bound in [2u64, 3, 7, 10, 1024, 1000003] {
            for _ in 0..200 {
                let v = rng.gen_range(bound);
                assert!(v < bound, "v = {v} >= bound = {bound}");
            }
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SplitMix64::new(11);
        let bound = 10u64;
        let n = 100_000;
        let mut counts = [0u32; 10];
        for _ in 0..n {
            counts[rng.gen_range(bound) as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i} deviates by {dev}");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval_with_reasonable_mean() {
        let mut rng = SplitMix64::new(5);
        let mut sum = 0.0;
        let n = 50_000;
        for _ in 0..n {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = SplitMix64::new(9);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-0.3));
        assert!(rng.gen_bool(1.5));
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn gen_normal_moments() {
        let mut rng = SplitMix64::new(17);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = rng.gen_normal();
            assert!(x.is_finite());
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(23);
        let mut xs: Vec<u32> = (0..1000).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
        // And it should actually move things around.
        let fixed = xs
            .iter()
            .enumerate()
            .filter(|(i, &v)| *i as u32 == v)
            .count();
        assert!(fixed < 50);
    }

    #[test]
    fn shuffle_short_slices() {
        let mut rng = SplitMix64::new(1);
        let mut empty: Vec<u32> = vec![];
        rng.shuffle(&mut empty);
        let mut one = vec![42u32];
        rng.shuffle(&mut one);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = SplitMix64::new(31);
        let mut out = [0; 10];
        rng.fill_distinct(100, &mut out);
        let mut dedup = out.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "samples must be distinct");
        assert!(out.iter().all(|&x| x < 100));

        // As many slots as indices: every index once, and no draw.
        let mut all = [0; 5];
        let before = rng.clone();
        rng.fill_distinct(5, &mut all);
        assert_eq!(all, [0, 1, 2, 3, 4]);
        assert_eq!(rng, before);

        // No slots: nothing drawn.
        rng.fill_distinct(0, &mut []);
        assert_eq!(rng, before);
    }

    #[test]
    fn sample_distinct_appends_after_existing_content() {
        // Filling the tail of a buffer leaves what is before (and after) it.
        let mut rng = SplitMix64::new(37);
        let mut out = [999u32; 7];
        rng.fill_distinct(50, &mut out[1..6]);
        assert_eq!((out[0], out[6]), (999, 999));
        assert!(out[1..6].iter().all(|&x| x < 50));
    }

    #[test]
    fn ball_round_rng_streams_are_independent_enough() {
        // Two different balls in the same round must get different first choices
        // most of the time (for a large range).
        let round = SplitMix64::substream_key(99, 0);
        let mut collisions = 0;
        for ball in 0..1000u64 {
            let mut a = SplitMix64::for_stream_under(round, ball);
            let mut b = SplitMix64::for_stream_under(round, ball + 1);
            if a.gen_range(1 << 20) == b.gen_range(1 << 20) {
                collisions += 1;
            }
        }
        assert!(collisions < 5);
    }

    #[test]
    fn seed_seq_members_are_reproducible_and_distinct() {
        let seq = SeedSeq::new(42, 0xc0c0);
        assert_eq!(seq.root(), 42);
        // Reproducible: the same member twice is the same stream.
        let mut a = seq.rng(3);
        let mut b = SeedSeq::new(42, 0xc0c0).rng(3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Distinct across members, streams, and roots.
        assert_ne!(seq.rng(0), seq.rng(1));
        assert_ne!(seq.rng(0), SeedSeq::new(42, 0xbeef).rng(0));
        assert_ne!(seq.rng(0), SeedSeq::new(43, 0xc0c0).rng(0));
        // Derived seeds differ per member and do not alias the member's own
        // generator outputs.
        assert_ne!(seq.seed(0), seq.seed(1));
        assert_ne!(seq.seed(5), seq.rng(5).next_u64());
        // A nested family is itself reproducible and root-sensitive.
        assert_eq!(seq.child(2), seq.child(2));
        assert_ne!(seq.child(2), seq.child(3));
        assert_ne!(seq.child(2), SeedSeq::new(43, 0xc0c0).child(2));
    }

    #[test]
    fn mix64_is_not_identity_and_is_deterministic() {
        // mix64 fixes 0 (a well-known property of the SplitMix64 finalizer); any
        // non-zero input must move.
        assert_ne!(mix64(1), 1);
        assert_ne!(mix64(0xdead_beef), 0xdead_beef);
        assert_eq!(mix64(12345), mix64(12345));
        assert_ne!(mix64(1), mix64(2));
    }
}
