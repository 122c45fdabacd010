//! Counting-allocator proof that a warmed streaming drain touches the heap
//! **zero** times: one tick — `batch` pushes and the `drain_ready` that
//! chooses, commits and closes the batch — reuses the engine's own buffers
//! for everything (the pending balls, the chosen bins, the grouped commit's
//! per-bin deltas and per-shard bookkeeping, the capacity thresholds, the
//! stale snapshot, the active-load gather of a membership engine, the capped
//! gap trajectory). Both shells are ticked: the owned `StreamAllocator`, and
//! the shared `ConcurrentRouter` handle, whose pushes go through its inbox
//! and whose drain swaps that inbox into its locked drain side. At the
//! benchmark's batch size the drain also runs on the calling thread whatever
//! `num_threads` says, so no thread is spawned either.
//!
//! The counter counts **per thread** (`tests/support/counting_alloc.rs`):
//! libtest allocates on threads of its own.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::Arc;

use counting_alloc::allocations_during;
use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::stream::{
    ConcurrentRouter, Policy, StreamAllocator, StreamConfig,
};

const BINS: usize = 1024;
const BATCH: usize = 4096;
/// Small, so the warm-up fills the trajectory to twice the cap and the
/// measured ticks include its compaction.
const TRAJECTORY_CAP: usize = 8;

/// Warms an engine with ticks of `tick` (push one batch, drain it), then
/// asserts that as many ticks again allocate nothing.
fn assert_warm_ticks_never_allocate(at: &str, mut tick: impl FnMut(&mut SplitMix64) -> usize) {
    let mut keys = SplitMix64::new(0xd7a1);
    let mut ticks = |keys: &mut SplitMix64| {
        for _ in 0..4 * TRAJECTORY_CAP {
            assert_eq!(tick(keys), 1);
        }
    };
    ticks(&mut keys);
    let allocations = allocations_during(|| ticks(&mut keys));
    assert_eq!(allocations, 0, "{at}: a warmed tick allocated");
}

#[test]
fn a_warmed_push_and_drain_tick_never_touches_the_heap() {
    let tiers = BinWeights::power_of_two_tiers(&[(BINS / 4, 2), (BINS / 4, 1), (BINS / 2, 0)]);
    // The benchmark's shape; the policy that fills per-bin capacity
    // thresholds every batch; and a membership engine (gapped active set),
    // whose boundary gathers the active loads.
    let shapes: [(&str, Policy, bool, bool); 3] = [
        ("two-choice", Policy::TwoChoice, false, false),
        (
            "capacity-threshold, tiered",
            Policy::CapacityThreshold { d: 2, slack: 2 },
            true,
            false,
        ),
        (
            "two-choice, tiered, gapped",
            Policy::WeightedTwoChoice,
            true,
            true,
        ),
    ];
    for (name, policy, weighted, gapped) in shapes {
        for threads in [0usize, 4] {
            let mut config = StreamConfig::new(BINS)
                .policy(policy)
                .batch_size(BATCH)
                .shards(8)
                .seed(7);
            config.trajectory_cap = TRAJECTORY_CAP;
            config = if threads == 0 {
                config.sequential()
            } else {
                config.num_threads(threads)
            };
            if weighted {
                config = config.weights(tiers.clone());
            }
            let mut owned = StreamAllocator::new(config.clone());
            owned.install_metrics(Arc::new(MetricsRegistry::new()));
            let shared = ConcurrentRouter::with_metrics(config, Arc::new(MetricsRegistry::new()));
            if gapped {
                let mut plan = MembershipPlan::new();
                for bin in (0..BINS as u32).step_by(16) {
                    plan = plan.drain(bin);
                }
                owned.stage_membership(plan.clone());
                shared.stage_membership(plan);
            }
            let at = format!("{name}, num_threads({threads})");
            assert_warm_ticks_never_allocate(&format!("{at}, StreamAllocator"), |keys| {
                for _ in 0..BATCH {
                    owned.push(keys.next_u64());
                }
                owned.drain_ready()
            });
            assert_warm_ticks_never_allocate(&format!("{at}, ConcurrentRouter"), |keys| {
                for _ in 0..BATCH {
                    shared.push(keys.next_u64());
                }
                shared.drain_ready()
            });
            assert!(owned.conserves_balls() && shared.conserves_balls());
            for trajectory in [owned.gap_trajectory(), &shared.gap_trajectory()] {
                assert_eq!(trajectory.len().min(TRAJECTORY_CAP), TRAJECTORY_CAP);
            }
        }
    }
}
