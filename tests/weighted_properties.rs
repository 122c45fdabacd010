//! Property tests for weighted multi-backend routing:
//!
//! 1. **Strict uniform no-op** — a stream configured with uniform weights
//!    (including explicit constant vectors and single-tier layouts) is
//!    bit-identical to the unweighted engine, for every policy.
//! 2. **Normalized-load dominance** — on skewed capacity tiers the weighted
//!    policies keep the max normalized load below the weight-oblivious
//!    baseline.
//! 3. **Weighted asymmetric reduction** — unit capacities reproduce the
//!    unweighted asymmetric algorithm exactly; tiered capacities keep its
//!    constant-round, `O(1)`-normalized-excess guarantees.

#[path = "support/policies.rs"]
mod policies;

use proptest::prelude::*;

use parallel_balanced_allocations::algorithms::{
    AsymmetricAllocator, AsymmetricConfig, WeightedAsymmetricAllocator,
};
use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::stream::Policy;
use policies::POLICIES;

fn push_keys(stream: &mut StreamAllocator, count: u64, key_seed: u64) {
    let mut rng = SplitMix64::for_stream(key_seed, 0x3e1, 0);
    for _ in 0..count {
        stream.push(rng.next_u64());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Uniform weights — in any spelling — are a strict no-op: bit-identical
    /// loads and gap trajectories against the unweighted engine.
    #[test]
    fn uniform_weights_are_bit_identical_to_unweighted(
        n_exp in 3u32..8,
        batch in 1usize..200,
        balls in 1u64..3_000,
        seed in 0u64..1_000,
        policy_idx in 0usize..POLICIES.len(),
        constant in 1u32..100,
        spelling in 0usize..3,
    ) {
        let n = 1usize << n_exp;
        let policy = POLICIES[policy_idx];
        let weights = match spelling {
            0 => BinWeights::Uniform,
            1 => BinWeights::explicit(vec![constant as f64 / 4.0; n]),
            _ => BinWeights::power_of_two_tiers(&[(n / 2, 3), (n / 2, 3)]),
        };
        let cfg = StreamConfig::new(n).policy(policy).batch_size(batch).seed(seed);
        let mut plain = StreamAllocator::new(cfg.clone());
        let mut weighted = StreamAllocator::new(cfg.weights(weights));
        prop_assert!(weighted.weights().is_none(), "uniform must resolve to None");
        push_keys(&mut plain, balls, seed);
        push_keys(&mut weighted, balls, seed);
        plain.flush();
        weighted.flush();
        prop_assert_eq!(plain.loads(), weighted.loads());
        prop_assert_eq!(plain.gap_trajectory(), weighted.gap_trajectory());
    }

    /// Unit capacities make the weighted asymmetric allocator reproduce the
    /// unweighted one bit for bit (the algorithms-level no-op invariant).
    #[test]
    fn unit_capacity_asymmetric_is_bit_identical(
        n_exp in 6u32..9,
        ratio_exp in 4u32..8,
        seed in 0u64..100,
    ) {
        let n = 1usize << n_exp;
        let m = (n as u64) << ratio_exp;
        let weighted = WeightedAsymmetricAllocator::new(vec![1; n], AsymmetricConfig::default());
        let w = weighted.allocate(m, n, seed);
        let u = AsymmetricAllocator::default().allocate(m, n, seed);
        prop_assert_eq!(w.loads, u.loads);
        prop_assert_eq!(w.rounds, u.rounds);
        prop_assert_eq!(w.census.per_bin_received, u.census.per_bin_received);
    }
}

/// The acceptance scenario: on a 4:2:1 capacity tier mix, weighted
/// two-choice achieves a lower max normalized load than weight-oblivious
/// two-choice on the same stream, and the capacity threshold stays near the
/// fair level too.
#[test]
fn weighted_two_choice_beats_oblivious_on_4_2_1_tiers() {
    let n = 128usize;
    let weights = BinWeights::power_of_two_tiers(&[(16, 2), (32, 1), (80, 0)]);
    let total_weight: f64 = weights.to_vec(n).iter().sum();
    let m = 64 * n as u64;
    let fair = m as f64 / total_weight;
    let base = StreamConfig::new(n).batch_size(n).seed(1).weights(weights);
    let run = |policy: Policy| {
        let mut stream = StreamAllocator::new(base.clone().policy(policy));
        push_keys(&mut stream, m, 5);
        stream.flush();
        stream.max_normalized_load()
    };
    let oblivious = run(Policy::TwoChoice);
    let weighted = run(Policy::WeightedTwoChoice);
    let capacity = run(Policy::CapacityThreshold { d: 2, slack: 2 });
    assert!(
        weighted < oblivious,
        "weighted {weighted:.1} must beat oblivious {oblivious:.1}"
    );
    assert!(
        weighted < 1.35 * fair,
        "weighted max normalized load {weighted:.1} should stay near fair {fair:.1}"
    );
    assert!(
        capacity < oblivious,
        "capacity threshold {capacity:.1} must beat oblivious {oblivious:.1}"
    );
}

/// Tiered weighted asymmetric allocation keeps constant rounds and O(1)
/// normalized excess (the weighted Theorem 3 analogue).
#[test]
fn weighted_asymmetric_keeps_constant_rounds_on_tiers() {
    let mut caps = vec![4u32; 32];
    caps.extend(vec![2u32; 64]);
    caps.extend(vec![1u32; 160]);
    let alloc = WeightedAsymmetricAllocator::new(caps, AsymmetricConfig::default());
    for seed in 0..3u64 {
        let m = 1u64 << 19;
        let (out, trace) = alloc.allocate_traced(m, seed);
        assert!(out.is_complete(m));
        assert!(out.rounds <= 9, "{} rounds", out.rounds);
        assert_eq!(trace.virtual_bins, 32 * 4 + 64 * 2 + 160);
        let excess = alloc.normalized_excess(&out, m);
        assert!(excess <= 16.0, "normalized excess {excess:.1}");
    }
}
