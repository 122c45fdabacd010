//! Property tests for the observability layer.
//!
//! Three families of guarantees:
//!
//! 1. **Metrics are write-only** — installing a `MetricsRegistry` must not
//!    perturb a single placement: the instrumented engine stays bit-identical
//!    to its bare run for every policy and weighting (the allocation path
//!    never *reads* a metric, so it cannot steer on one).
//! 2. **The books balance** — under `k` concurrent callers with interleaved
//!    releases, `route.routed − route.released` equals the resident-ticket
//!    count, and `route.placed − route.released` equals the resident balls
//!    (the metrics-side image of the conservation invariant).
//! 3. **No silent drops** — each forced rejection/fallback path (a forged
//!    ticket, the threshold all-above fallthrough, the capacity overflow
//!    retry, the weighted sampler's uniform degradation) must leave a visible
//!    increment in its named counter.

#[path = "support/policies.rs"]
mod policies;

use std::sync::Arc;

use proptest::prelude::*;

use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::model::{BinWeights, Ticket};
use parallel_balanced_allocations::obs::MetricsRegistry;
use parallel_balanced_allocations::stream::{
    ConcurrentRouter, Policy, StreamAllocator, StreamConfig,
};
use policies::POLICIES;

fn keys(count: usize, key_seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::for_stream(key_seed, 0x0b5, 0);
    (0..count).map(|_| rng.next_u64()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// (1) Bit-identity: for every policy × weighting, the instrumented
    /// `StreamAllocator` produces exactly the loads of the bare one. The
    /// 1-caller `ConcurrentRouter` runs the same core, so the same metric
    /// writes; the model test holds its placements to the model.
    #[test]
    fn installed_registry_never_perturbs_placements(
        seed in 1u64..1_000,
        key_seed in 1u64..1_000,
    ) {
        let n = 64usize;
        let batch = 128usize;
        let keys = keys(batch * 3 + 17, key_seed);
        for policy in POLICIES {
            for weights in [
                BinWeights::Uniform,
                BinWeights::power_of_two_tiers(&[(8, 2), (16, 1), (40, 0)]),
            ] {
                let cfg = StreamConfig::new(n)
                    .policy(policy)
                    .batch_size(batch)
                    .seed(seed)
                    .weights(weights);

                let mut bare = StreamAllocator::new(cfg.clone());
                for &key in &keys {
                    bare.route(key).expect("infallible");
                }

                let mut instrumented = StreamAllocator::new(cfg.clone());
                instrumented.install_metrics(Arc::new(MetricsRegistry::new()));
                for &key in &keys {
                    instrumented.route(key).expect("infallible");
                }
                prop_assert_eq!(
                    bare.loads(),
                    instrumented.loads(),
                    "instrumented StreamAllocator diverged under {:?}",
                    policy
                );
            }
        }
    }

    /// (2) Under k callers with interleaved releases, the registry's books
    /// balance: `routed − released == resident tickets`, `placed == routed`,
    /// `placed − released == resident` and the batch counter matches the
    /// router's boundary book.
    #[test]
    fn counters_balance_under_concurrent_callers(
        seed in 1u64..1_000,
        callers in 1usize..=4,
    ) {
        let n = 32usize;
        let per_caller = 300u64;
        let registry = Arc::new(MetricsRegistry::new());
        let router = ConcurrentRouter::with_metrics(
            StreamConfig::new(n).batch_size(64).seed(seed),
            Arc::clone(&registry),
        );
        std::thread::scope(|scope| {
            for t in 0..callers {
                let router = router.clone();
                scope.spawn(move || {
                    let mut rng = SplitMix64::for_stream(seed, 0x0b52, t as u64);
                    let mut open: Vec<Ticket> = Vec::new();
                    for _ in 0..per_caller {
                        let placement =
                            router.route(rng.next_u64()).expect("infallible");
                        open.push(placement.ticket);
                        // Release roughly every third routed ball, from the
                        // middle, so releases interleave with routes.
                        if open.len() > 2 && rng.next_u64().is_multiple_of(3) {
                            let ticket = open.swap_remove(open.len() / 2);
                            router.release(ticket).expect("own ticket releases once");
                        }
                    }
                });
            }
        });
        let snap = registry.snapshot();
        let routed = snap.counter("route.routed");
        let released = snap.counter("route.released");
        prop_assert_eq!(routed, callers as u64 * per_caller);
        prop_assert_eq!(
            routed - released,
            router.resident_tickets() as u64,
            "routed − released must equal resident tickets at quiescence"
        );
        prop_assert_eq!(routed - released, router.resident());
        let placed = snap.counter("route.placed");
        prop_assert_eq!(placed, routed, "route-path placements all commit");
        prop_assert_eq!(
            placed - released,
            router.resident(),
            "the counters' image of conservation"
        );
        prop_assert_eq!(snap.counter("router.stream_batches"), router.batches());
        prop_assert!(router.conserves_balls());
    }
}

/// (3a) A forged ticket is rejected by both engines and the rejection is
/// visible in `route.rejected_unknown_ticket` — never silently dropped.
#[test]
fn forged_tickets_increment_the_rejection_counter() {
    let registry = Arc::new(MetricsRegistry::new());
    let mut stream = StreamAllocator::new(StreamConfig::new(8).batch_size(8).seed(3));
    stream.install_metrics(Arc::clone(&registry));
    let placement = stream.route(11).expect("infallible");
    assert!(stream.release(Ticket::new(99, 0)).is_err());
    assert!(stream.release(placement.ticket).is_ok());
    // Double release: the ticket is no longer resident.
    assert!(stream.release(placement.ticket).is_err());
    assert_eq!(
        registry.snapshot().counter("route.rejected_unknown_ticket"),
        2
    );

    let registry = Arc::new(MetricsRegistry::new());
    let router = ConcurrentRouter::with_metrics(
        StreamConfig::new(8).batch_size(8).seed(3),
        Arc::clone(&registry),
    );
    let placement = router.route(11).expect("infallible");
    assert!(router.release(Ticket::new(99, 0)).is_err());
    assert!(router.release(placement.ticket).is_ok());
    assert!(router.release(placement.ticket).is_err());
    assert_eq!(
        registry.snapshot().counter("route.rejected_unknown_ticket"),
        2
    );
}

/// Routes `fill` balls, releases all but a few, then routes one more batch.
/// After the mass release the *fresh* resident count (which prices the next
/// batch's thresholds) is far below the *stale* snapshot loads (published at
/// the last boundary, before the releases) — so every candidate of the next
/// batch sits at/above its threshold and the policy's overflow path must
/// fire. Returns the registry for counter assertions.
fn run_overflow_scenario(policy: Policy) -> Arc<MetricsRegistry> {
    let registry = Arc::new(MetricsRegistry::new());
    let batch = 64usize;
    let mut stream = StreamAllocator::new(
        StreamConfig::new(4)
            .policy(policy)
            .batch_size(batch)
            .seed(5),
    );
    stream.install_metrics(Arc::clone(&registry));
    let mut tickets = Vec::new();
    for key in keys(4 * batch, 9) {
        tickets.push(stream.route(key).expect("infallible").ticket);
    }
    // Stale loads now show ~64 balls per bin; dropping the resident count to
    // 16 prices the next batch's thresholds at ~(16+64)/4 = 20 ≪ 64.
    for ticket in tickets.drain(16..) {
        stream.release(ticket).expect("own ticket releases once");
    }
    for key in keys(batch, 11) {
        stream.route(key).expect("infallible");
    }
    assert!(stream.conserves_balls());
    registry
}

/// (3b) The threshold policy's all-above fallthrough (stale loads at/above
/// the batch threshold) is counted in `policy.threshold_fallback`.
#[test]
fn threshold_fallback_path_is_visible() {
    let registry = run_overflow_scenario(Policy::Threshold { d: 2, slack: 0 });
    let snap = registry.snapshot();
    assert!(
        snap.counter("policy.threshold_fallback") > 0,
        "a post-release batch must find every candidate above the threshold"
    );
}

/// (3c) The capacity policy's overflow retry and the both-sets-overflowed
/// concession are counted.
#[test]
fn capacity_overflow_paths_are_visible() {
    let registry = run_overflow_scenario(Policy::CapacityThreshold { d: 2, slack: 0 });
    let snap = registry.snapshot();
    assert!(
        snap.counter("policy.overflow_retry") > 0,
        "a post-release batch must overflow every first-set capacity share"
    );
    assert!(
        snap.counter("policy.overflow_fallback") > 0,
        "the retry set draws from the same overflowing bins"
    );
}

/// (3d) The weighted sampler's uniform degradation under near-degenerate
/// skew (the alias table's distinct-candidate collision cap) is counted in
/// `policy.weighted_uniform_fallback`.
#[test]
fn weighted_uniform_fallback_path_is_visible() {
    let registry = Arc::new(MetricsRegistry::new());
    // 2^24 : 1 capacity skew across 4 bins: the alias table almost always
    // draws the huge bin, so sampling two *distinct* candidates hits the
    // collision cap and degrades to uniform draws.
    let weights = BinWeights::power_of_two_tiers(&[(1, 24), (3, 0)]);
    let mut stream = StreamAllocator::new(
        StreamConfig::new(4)
            .policy(Policy::WeightedTwoChoice)
            .batch_size(64)
            .seed(7)
            .weights(weights),
    );
    stream.install_metrics(Arc::clone(&registry));
    for key in keys(512, 13) {
        stream.route(key).expect("infallible");
    }
    let snap = registry.snapshot();
    assert!(
        snap.counter("policy.weighted_uniform_fallback") > 0,
        "near-degenerate skew must degrade distinct sampling to uniform draws"
    );
    assert!(stream.conserves_balls());
}
