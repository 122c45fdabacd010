//! Property tests for the execution layer: results are **bit-identical for
//! any worker count**.
//!
//! The rayon shim (under the ambient thread count or a
//! `StreamConfig::num_threads` engine's own) may cut every batch into a
//! different number of chunks, but parallelism only ever partitions index
//! ranges — it never reorders RNG consumption — so the sequential drain, the
//! sharded parallel drain under 1/2/4 threads, and the synchronous
//! `Router::route` stream must all produce the same loads, gap trajectories
//! and shard stats, for all six policies, weighted and unweighted.
//!
//! The drain splits a batch only from two spans of `PARALLEL_MIN_SPAN`
//! (2 × 32 Ki balls) up — below that every thread count runs the same inline
//! loop — so the drain property uses batches of exactly that size, plus a
//! trailing partial batch that is chosen inline: the split code path is
//! exercised even where the ambient machine is single-core. The routed
//! property is synchronous and keeps short batches.

use proptest::prelude::*;

use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::model::BinWeights;
use parallel_balanced_allocations::stream::{Policy, StreamAllocator, StreamConfig};

/// All six streaming policies (the weight-aware ones degrade to their
/// unweighted twins under uniform weights — still distinct code paths).
const POLICIES: [Policy; 6] = [
    Policy::OneChoice,
    Policy::TwoChoice,
    Policy::DChoice(3),
    Policy::Threshold { d: 2, slack: 1 },
    Policy::WeightedTwoChoice,
    Policy::CapacityThreshold { d: 2, slack: 2 },
];

/// The shortest batch the drain cuts into spans for several threads.
const POOLED_BATCH: usize = 1 << 16;
const ROUTED_BATCH: usize = 4096;
const ROUTED_BATCHES: usize = 4;

fn keys(count: usize, key_seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::for_stream(key_seed, 0xec5, 0);
    (0..count).map(|_| rng.next_u64()).collect()
}

fn weightings(n: usize) -> [BinWeights; 2] {
    [
        BinWeights::Uniform,
        BinWeights::power_of_two_tiers(&[(n / 8, 2), (n / 4, 1), (5 * n / 8, 0)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Sequential drain ≡ sharded drain under 1, 2 and 4 workers, for every
    /// policy and weighting.
    #[test]
    fn drains_are_bit_identical_for_any_worker_count(
        seed in 0u64..1_000,
        key_seed in 0u64..1_000,
    ) {
        let n = 64usize;
        let stream_keys = keys(POOLED_BATCH + POOLED_BATCH / 4, key_seed);
        for weights in weightings(n) {
            for policy in POLICIES {
                let cfg = StreamConfig::new(n)
                    .policy(policy)
                    .batch_size(POOLED_BATCH)
                    .shards(8)
                    .seed(seed)
                    .weights(weights.clone());
                let mut reference = StreamAllocator::new(cfg.clone().sequential());
                for &key in &stream_keys {
                    reference.push(key);
                }
                reference.flush();
                prop_assert!(reference.conserves_balls());
                for threads in [1usize, 2, 4] {
                    let mut sharded =
                        StreamAllocator::new(cfg.clone().num_threads(threads));
                    for &key in &stream_keys {
                        sharded.push(key);
                    }
                    sharded.flush();
                    prop_assert_eq!(
                        sharded.loads(),
                        reference.loads(),
                        "loads diverged: policy {}, weights {}, threads {}",
                        policy.name(),
                        weights.name(),
                        threads
                    );
                    prop_assert_eq!(
                        sharded.gap_trajectory(),
                        reference.gap_trajectory(),
                        "gap trajectory diverged: policy {}, threads {}",
                        policy.name(),
                        threads
                    );
                    prop_assert_eq!(
                        sharded.shard_stats(),
                        reference.shard_stats(),
                        "shard stats diverged: policy {}, threads {}",
                        policy.name(),
                        threads
                    );
                }
            }
        }
    }

    /// The synchronous `Router::route` stream reproduces the drained engines
    /// bit for bit under every worker count (full batches, so the threshold
    /// policies' projected batch length equals the true one).
    #[test]
    fn route_streams_are_bit_identical_for_any_worker_count(
        seed in 0u64..1_000,
        key_seed in 0u64..1_000,
    ) {
        let n = 64usize;
        let stream_keys = keys(ROUTED_BATCH * ROUTED_BATCHES, key_seed);
        for weights in weightings(n) {
            for policy in POLICIES {
                let cfg = StreamConfig::new(n)
                    .policy(policy)
                    .batch_size(ROUTED_BATCH)
                    .shards(8)
                    .seed(seed)
                    .weights(weights.clone());
                let mut reference = StreamAllocator::new(cfg.clone().sequential());
                for &key in &stream_keys {
                    reference.push(key);
                }
                reference.flush();
                for threads in [1usize, 2, 4] {
                    let mut routed = StreamAllocator::new(cfg.clone().num_threads(threads));
                    for &key in &stream_keys {
                        routed.route(key).expect("streaming route is infallible");
                    }
                    prop_assert_eq!(
                        routed.loads(),
                        reference.loads(),
                        "route loads diverged: policy {}, weights {}, threads {}",
                        policy.name(),
                        weights.name(),
                        threads
                    );
                    prop_assert_eq!(
                        routed.gap_trajectory(),
                        reference.gap_trajectory(),
                        "route gap trajectory diverged: policy {}, threads {}",
                        policy.name(),
                        threads
                    );
                    prop_assert!(routed.conserves_balls());
                    prop_assert_eq!(routed.resident_tickets(), stream_keys.len());
                }
            }
        }
    }
}
