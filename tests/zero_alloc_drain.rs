//! Counting-allocator proof that a warmed streaming drain touches the heap
//! **zero** times: one tick — `batch` pushes and the `drain_ready` that
//! chooses, commits and closes the batch — reuses the engine's own buffers
//! for everything (the pending balls, the chosen bins, the commit's per-bin
//! deltas, the capacity thresholds, the stale snapshot, the active-load
//! gather of a membership engine, the capped gap trajectory). At the
//! benchmark's batch size the drain also runs on the calling thread whatever
//! `num_threads` says, so no job is boxed for a pool either.
//!
//! The counter counts **per thread** (`tests/support/counting_alloc.rs`):
//! libtest and idle pool workers allocate on threads of their own.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::Arc;

use counting_alloc::allocations_during;
use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::stream::{Policy, StreamAllocator, StreamConfig};

const BINS: usize = 1024;
const BATCH: usize = 4096;
/// Small, so the warm-up fills the trajectory to twice the cap and the
/// measured ticks include its compaction.
const TRAJECTORY_CAP: usize = 8;

fn tick(engine: &mut StreamAllocator, keys: &mut SplitMix64) {
    for _ in 0..BATCH {
        engine.push(keys.next_u64());
    }
    assert_eq!(engine.drain_ready(), 1);
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
            let mut engine = StreamAllocator::new(config);
            engine.install_metrics(Arc::new(MetricsRegistry::new()));
            if gapped {
                let mut plan = MembershipPlan::new();
                for bin in (0..BINS as u32).step_by(16) {
                    plan = plan.drain(bin);
                }
                engine.stage_membership(plan);
            }
            let mut keys = SplitMix64::new(0xd7a1);
            for _ in 0..4 * TRAJECTORY_CAP {
                tick(&mut engine, &mut keys);
            }
            let allocations = allocations_during(|| {
                for _ in 0..4 * TRAJECTORY_CAP {
                    tick(&mut engine, &mut keys);
                }
            });
            assert_eq!(
                allocations, 0,
                "{name}, num_threads({threads}): a warmed tick allocated"
            );
            assert!(engine.conserves_balls());
            assert_eq!(
                engine.gap_trajectory().len().min(TRAJECTORY_CAP),
                TRAJECTORY_CAP
            );
        }
    }
}
