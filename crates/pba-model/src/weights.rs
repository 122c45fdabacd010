//! Heterogeneous bin weights (capacities) and weighted sampling.
//!
//! The SPAA'19 model assumes identical bins; a production router serves
//! **heterogeneous backends** — machines with 1×, 2×, 4× the capacity of the
//! smallest tier. This module is the model-level vocabulary for that setting:
//!
//! * [`BinWeights`] — a declarative description of per-bin weights: uniform,
//!   an explicit vector, or power-of-two capacity tiers (the common hardware
//!   shape: a few big boxes, many small ones).
//! * [`ResolvedWeights`] — the materialised form used on hot paths: a per-bin
//!   weight vector, per-bin shares `w_i / W`, and an [`AliasTable`] for `O(1)`
//!   weighted index sampling.
//! * [`AliasTable`] — Walker/Vose alias method: after an `O(n)` build, one
//!   weighted draw costs one uniform index plus one uniform float, regardless
//!   of the weight distribution.
//!
//! ## The uniform no-op invariant
//!
//! [`BinWeights::resolve`] returns `None` whenever the described weights are
//! all equal (any constant, not just `1.0` — weights are scale-free). Callers
//! branch on that `Option`: `None` means *take exactly the unweighted code
//! path*, consuming the RNG stream in exactly the same order as a build
//! without weights. This is what makes "weights = uniform" a **strict no-op**
//! — bit-identical results, not merely statistically equivalent ones — and it
//! is enforced by property tests in the streaming crate. Weighted sampling
//! draws the RNG differently (index + float per draw instead of index per
//! draw), so routing uniform weights through the weighted path would silently
//! change every placement; canonicalising to `None` here makes that mistake
//! impossible by construction.

use crate::rng::SplitMix64;

/// One tier of identically-weighted bins (see
/// [`BinWeights::power_of_two_tiers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightTier {
    /// Number of bins in this tier.
    pub bins: usize,
    /// Weight exponent: every bin of the tier has weight `2^exponent`.
    pub exponent: u32,
}

/// Per-bin weights (relative capacities) for a heterogeneous allocation
/// instance. Weights are scale-free: only the ratios `w_i / w_j` matter.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum BinWeights {
    /// Every bin has the same weight. Valid for any bin count.
    #[default]
    Uniform,
    /// One explicit positive weight per bin.
    Explicit(Vec<f64>),
    /// Power-of-two capacity tiers, laid out consecutively: the first
    /// `tiers[0].bins` bins have weight `2^tiers[0].exponent`, and so on.
    PowerOfTwoTiers(Vec<WeightTier>),
}

impl BinWeights {
    /// Uniform weights (the classic identical-bins model).
    pub fn uniform() -> Self {
        Self::Uniform
    }

    /// Explicit per-bin weights. Every weight must be finite and positive.
    pub fn explicit(weights: Vec<f64>) -> Self {
        assert!(
            !weights.is_empty(),
            "explicit weights need at least one bin"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "bin weights must be finite and positive"
        );
        Self::Explicit(weights)
    }

    /// Power-of-two tiers from `(bins, exponent)` pairs: `(32, 2)` means 32
    /// bins of weight 4. A `(count, exp)` description matches how real fleets
    /// are provisioned (a few double- or quadruple-size backends).
    pub fn power_of_two_tiers(tiers: &[(usize, u32)]) -> Self {
        assert!(!tiers.is_empty(), "tier list must be non-empty");
        assert!(
            tiers.iter().all(|&(bins, _)| bins > 0),
            "every tier needs at least one bin"
        );
        Self::PowerOfTwoTiers(
            tiers
                .iter()
                .map(|&(bins, exponent)| WeightTier { bins, exponent })
                .collect(),
        )
    }

    /// The bin count this description prescribes, or `None` for
    /// [`BinWeights::Uniform`], which fits any instance size.
    pub fn prescribed_bins(&self) -> Option<usize> {
        match self {
            Self::Uniform => None,
            Self::Explicit(w) => Some(w.len()),
            Self::PowerOfTwoTiers(tiers) => Some(tiers.iter().map(|t| t.bins).sum()),
        }
    }

    /// Materialises the per-bin weight vector for an `n`-bin instance.
    /// Panics when the description prescribes a different bin count.
    pub fn to_vec(&self, n: usize) -> Vec<f64> {
        if let Some(prescribed) = self.prescribed_bins() {
            assert_eq!(
                prescribed, n,
                "weights describe {prescribed} bins but the instance has {n}"
            );
        }
        match self {
            Self::Uniform => vec![1.0; n],
            Self::Explicit(w) => w.clone(),
            Self::PowerOfTwoTiers(tiers) => {
                let mut out = Vec::with_capacity(n);
                for tier in tiers {
                    out.extend(std::iter::repeat_n(
                        (1u64 << tier.exponent) as f64,
                        tier.bins,
                    ));
                }
                out
            }
        }
    }

    /// True when every bin of an `n`-bin instance gets the same weight (any
    /// constant — weights are scale-free).
    pub fn is_uniform_for(&self, n: usize) -> bool {
        match self {
            Self::Uniform => true,
            Self::Explicit(w) => w.len() == n && w.iter().all(|&x| x == w[0]),
            Self::PowerOfTwoTiers(tiers) => {
                self.prescribed_bins() == Some(n)
                    && tiers.iter().all(|t| t.exponent == tiers[0].exponent)
            }
        }
    }

    /// The hot-path form, or `None` when the weights are uniform for `n` bins
    /// — see the module docs for why uniform **must** canonicalise to `None`
    /// (the strict no-op invariant).
    pub fn resolve(&self, n: usize) -> Option<ResolvedWeights> {
        if self.is_uniform_for(n) {
            return None;
        }
        Some(ResolvedWeights::new(self.to_vec(n)))
    }

    /// Integer capacities for algorithms that expand each bin into weight-many
    /// virtual bins: weights are scaled so the smallest becomes 1 and rounded
    /// to the nearest integer (minimum 1). Exact for power-of-two tiers and
    /// any explicit vector whose ratios are integral.
    pub fn integer_capacities(&self, n: usize) -> Vec<u32> {
        let weights = self.to_vec(n);
        let min = weights.iter().copied().fold(f64::INFINITY, f64::min);
        weights
            .iter()
            .map(|&w| ((w / min).round().max(1.0)) as u32)
            .collect()
    }

    /// Short display name for tables (e.g. `"uniform"`, `"tiers 4:2:1"`).
    pub fn name(&self) -> String {
        match self {
            Self::Uniform => "uniform".to_string(),
            Self::Explicit(w) => format!("explicit[{}]", w.len()),
            Self::PowerOfTwoTiers(tiers) => {
                let ratios: Vec<String> = tiers
                    .iter()
                    .map(|t| (1u64 << t.exponent).to_string())
                    .collect();
                format!("tiers {}", ratios.join(":"))
            }
        }
    }
}

/// Materialised weights: the per-bin vector, total, and an alias table for
/// `O(1)` weighted sampling. Built once per allocator, shared by every batch.
#[derive(Debug, Clone)]
pub struct ResolvedWeights {
    weights: Vec<f64>,
    total: f64,
    alias: AliasTable,
}

impl ResolvedWeights {
    /// Builds the resolved form from a positive per-bin weight vector.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "bin weights must be finite and positive"
        );
        let total = weights.iter().sum();
        let alias = AliasTable::new(&weights);
        Self {
            weights,
            total,
            alias,
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when there are no bins (never, by construction, but clippy
    /// expects `is_empty` next to `len`).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Weight of `bin`.
    pub fn weight(&self, bin: usize) -> f64 {
        self.weights[bin]
    }

    /// The full weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Sum of all weights `W`.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The fair share `w_i / W` of `bin`.
    pub fn share(&self, bin: usize) -> f64 {
        self.weights[bin] / self.total
    }

    /// Draws one bin with probability proportional to its weight.
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        self.alias.sample(rng)
    }

    /// Fills `out` with `out.len()` **distinct** bins, each drawn
    /// proportionally to weight. `out` may be at most
    /// [`ResolvedWeights::len`] long; at exactly that it becomes `0..n` and no
    /// randomness is consumed. Duplicate draws are rejected and redrawn; for
    /// each remaining slot the expected number of redraws is `~1/(1 − s)`
    /// where `s` is the total share already drawn, so with the small lengths
    /// the policies use (`{1, 2, d}`, `d ≪ n`) and non-degenerate weights this
    /// is a handful of draws. Pathological skew (one bin holding share → 1)
    /// would make pure rejection effectively unbounded, so after
    /// `MAX_CONSECUTIVE_REJECTIONS` (64) collisions in a row the remaining
    /// slots fall back to uniform draws — still deterministic in the RNG
    /// stream, guaranteed to terminate, and only reachable when the weighted
    /// distribution over the remaining bins is near-degenerate anyway.
    ///
    /// Returns the number of **uniform-fallback draws** taken (0 on the normal
    /// path) so callers can surface the degradation in a metrics counter — the
    /// no-silent-drops rule: a fallback that changes the sampling distribution
    /// must be observable.
    pub fn fill_distinct(&self, rng: &mut SplitMix64, out: &mut [u32]) -> u32 {
        let n = self.len();
        debug_assert!(out.len() <= n);
        if out.len() == n {
            for (slot, index) in out.iter_mut().zip(0u32..) {
                *slot = index;
            }
            return 0;
        }
        let mut fallback_draws = 0u32;
        for filled in 0..out.len() {
            let mut rejections = 0u32;
            out[filled] = loop {
                let candidate = if rejections < MAX_CONSECUTIVE_REJECTIONS {
                    self.alias.sample(rng)
                } else {
                    fallback_draws += 1;
                    rng.gen_index(n) as u32
                };
                if !out[..filled].contains(&candidate) {
                    break candidate;
                }
                rejections += 1;
            };
        }
        fallback_draws
    }
}

/// Consecutive duplicate draws tolerated by
/// [`ResolvedWeights::fill_distinct`] before it degrades the remaining
/// slots to uniform sampling. Hitting 64 collisions in a row has probability
/// `s^64` when the already-drawn candidates hold share `s` of the weight —
/// negligible below `s ≈ 0.9`, so the fallback only engages for
/// near-degenerate skews, where uniform rejection then terminates in
/// `O(n/(n−k))` expected draws.
const MAX_CONSECUTIVE_REJECTIONS: u32 = 64;

/// Walker/Vose alias table: `O(n)` build, `O(1)` weighted index sampling.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability of each slot (scaled to mean 1).
    prob: Vec<f64>,
    /// Fallback index of each slot.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from positive weights (need not be normalised).
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "alias table needs at least one weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "alias table weights must be finite and positive"
        );
        let total: f64 = weights.iter().sum();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        // Vose's stable two-stack partition into under- and over-full slots.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            // Slot `l` donates the deficit of slot `s`.
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers: both stacks drain to slots of probability ~1.
        for s in small.into_iter().chain(large) {
            prob[s as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index proportional to its weight: one uniform slot plus one
    /// uniform float, independent of the weight distribution.
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let slot = rng.gen_index(self.len());
        if rng.gen_f64() < self.prob[slot] {
            slot as u32
        } else {
            self.alias[slot]
        }
    }
}

/// Normalized load `load_i / w_i` of every bin: the quantity weighted policies
/// balance. For uniform weights this is the raw load vector.
pub fn normalized_loads(loads: &[u32], weights: &ResolvedWeights) -> Vec<f64> {
    assert_eq!(loads.len(), weights.len());
    loads
        .iter()
        .zip(weights.weights())
        .map(|(&l, &w)| l as f64 / w)
        .collect()
}

/// Weighted gap `max_i(load_i / w_i) − (Σ load) / W`: how far the worst bin
/// sits above the capacity-fair mean. Coincides with the classic
/// `max − mean` gap when all weights are equal.
pub fn weighted_gap(loads: &[u32], weights: &ResolvedWeights) -> f64 {
    assert_eq!(loads.len(), weights.len());
    if loads.is_empty() {
        return 0.0;
    }
    let total: u64 = loads.iter().map(|&l| l as u64).sum();
    let max_norm = loads
        .iter()
        .zip(weights.weights())
        .map(|(&l, &w)| l as f64 / w)
        .fold(0.0f64, f64::max);
    max_norm - total as f64 / weights.total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_layout_and_names() {
        let w = BinWeights::power_of_two_tiers(&[(2, 2), (3, 1), (4, 0)]);
        assert_eq!(w.prescribed_bins(), Some(9));
        assert_eq!(
            w.to_vec(9),
            vec![4.0, 4.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
        );
        assert_eq!(w.name(), "tiers 4:2:1");
        assert_eq!(BinWeights::uniform().name(), "uniform");
        assert_eq!(w.integer_capacities(9), vec![4, 4, 2, 2, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn uniform_detection_is_scale_free() {
        assert!(BinWeights::Uniform.is_uniform_for(7));
        assert!(BinWeights::explicit(vec![3.5; 4]).is_uniform_for(4));
        assert!(!BinWeights::explicit(vec![1.0, 2.0]).is_uniform_for(2));
        assert!(BinWeights::power_of_two_tiers(&[(2, 3), (2, 3)]).is_uniform_for(4));
        assert!(!BinWeights::power_of_two_tiers(&[(2, 3), (2, 1)]).is_uniform_for(4));
        // Resolve canonicalises every uniform description to None.
        assert!(BinWeights::Uniform.resolve(5).is_none());
        assert!(BinWeights::explicit(vec![2.0; 5]).resolve(5).is_none());
        assert!(BinWeights::explicit(vec![1.0, 4.0, 1.0, 1.0, 1.0])
            .resolve(5)
            .is_some());
    }

    #[test]
    #[should_panic(expected = "describe")]
    fn mismatched_bin_count_panics() {
        BinWeights::explicit(vec![1.0, 2.0]).to_vec(3);
    }

    #[test]
    fn resolved_shares_sum_to_one() {
        let r = BinWeights::power_of_two_tiers(&[(1, 2), (2, 0)])
            .resolve(3)
            .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.total(), 6.0);
        let share_sum: f64 = (0..3).map(|b| r.share(b)).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert_eq!(r.weight(0), 4.0);
    }

    #[test]
    fn alias_table_matches_weights_statistically() {
        let weights = [1.0, 2.0, 4.0, 1.0];
        let table = AliasTable::new(&weights);
        let mut rng = SplitMix64::new(7);
        let draws = 200_000;
        let mut counts = [0u64; 4];
        for _ in 0..draws {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let measured = counts[i] as f64 / draws as f64;
            let expected = w / total;
            assert!(
                (measured - expected).abs() < 0.01,
                "index {i}: measured {measured:.4}, expected {expected:.4}"
            );
        }
    }

    #[test]
    fn alias_table_handles_extreme_skew_and_single_entry() {
        let table = AliasTable::new(&[1.0]);
        let mut rng = SplitMix64::new(1);
        assert_eq!(table.sample(&mut rng), 0);

        let table = AliasTable::new(&[1e-6, 1.0, 1e-6]);
        let mut hits = [0u64; 3];
        for _ in 0..10_000 {
            hits[table.sample(&mut rng) as usize] += 1;
        }
        assert!(hits[1] > 9_900, "middle index should dominate: {hits:?}");
    }

    #[test]
    fn weighted_sampling_is_deterministic() {
        let r = BinWeights::power_of_two_tiers(&[(4, 1), (4, 0)])
            .resolve(8)
            .unwrap();
        let draw = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            let mut out = [0; 3];
            r.fill_distinct(&mut rng, &mut out);
            out
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn sample_distinct_is_distinct_and_clamps() {
        let r = BinWeights::explicit(vec![1.0, 8.0, 1.0, 1.0])
            .resolve(4)
            .unwrap();
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            let mut out = [0; 2];
            r.fill_distinct(&mut rng, &mut out);
            assert_ne!(out[0], out[1]);
        }
        // As many slots as bins: every bin once, no draw.
        let mut all = [0; 4];
        let before = rng.clone();
        r.fill_distinct(&mut rng, &mut all);
        assert_eq!(all, [0, 1, 2, 3]);
        assert_eq!(rng, before);
    }

    #[test]
    fn sample_distinct_terminates_under_pathological_skew() {
        // One bin holds share 1 − 2e-9: pure rejection would need ~5e8 alias
        // draws for the second distinct candidate; the uniform fallback must
        // keep this instant and still return distinct bins.
        let r = BinWeights::explicit(vec![1e9, 1.0, 1.0])
            .resolve(3)
            .unwrap();
        let mut rng = SplitMix64::new(2);
        let mut total_fallbacks = 0u64;
        for _ in 0..1_000 {
            let mut out = [0; 2];
            total_fallbacks += r.fill_distinct(&mut rng, &mut out) as u64;
            assert_ne!(out[0], out[1]);
        }
        assert!(
            total_fallbacks > 0,
            "pathological skew must engage (and report) the uniform fallback"
        );
    }

    #[test]
    fn sample_distinct_reports_zero_fallbacks_on_the_normal_path() {
        let r = BinWeights::explicit(vec![1.0, 2.0, 3.0, 4.0])
            .resolve(4)
            .unwrap();
        let mut rng = SplitMix64::new(9);
        for _ in 0..200 {
            assert_eq!(r.fill_distinct(&mut rng, &mut [0; 2]), 0);
        }
        // The all-bins path is also fallback-free.
        assert_eq!(r.fill_distinct(&mut rng, &mut [0; 4]), 0);
    }

    #[test]
    fn weighted_sampling_prefers_heavy_bins() {
        let r = BinWeights::power_of_two_tiers(&[(1, 3), (7, 0)])
            .resolve(8)
            .unwrap();
        let mut rng = SplitMix64::new(11);
        let mut first_hits = 0u64;
        for _ in 0..20_000 {
            let mut out = [0; 1];
            r.fill_distinct(&mut rng, &mut out);
            if out[0] == 0 {
                first_hits += 1;
            }
        }
        // Bin 0 holds 8/15 of the weight.
        let rate = first_hits as f64 / 20_000.0;
        assert!((rate - 8.0 / 15.0).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn gap_helpers_reduce_to_classic_forms_when_uniform() {
        let r = ResolvedWeights::new(vec![1.0; 4]);
        let loads = [3u32, 1, 2, 2];
        assert_eq!(normalized_loads(&loads, &r), vec![3.0, 1.0, 2.0, 2.0]);
        assert!((weighted_gap(&loads, &r) - 1.0).abs() < 1e-12); // max 3 − mean 2

        let r = ResolvedWeights::new(vec![4.0, 1.0]);
        let loads = [4u32, 4];
        // Normalized: [1, 4]; fair mean = 8/5.
        assert!((weighted_gap(&loads, &r) - (4.0 - 8.0 / 5.0)).abs() < 1e-12);
    }

    #[test]
    fn integer_capacities_rescale_to_smallest() {
        let w = BinWeights::explicit(vec![0.5, 1.0, 2.0]);
        assert_eq!(w.integer_capacities(3), vec![1, 2, 4]);
        assert_eq!(BinWeights::Uniform.integer_capacities(3), vec![1, 1, 1]);
    }
}
