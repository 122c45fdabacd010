//! Property tests for the unified `Router` API:
//!
//! 1. **Release round-trips conservation** — across arbitrary route/release
//!    interleavings every ticket releases exactly once, loads return to zero
//!    when everything is released, and `conserves_balls` holds throughout,
//!    on both streaming shells driven through `&mut dyn Router`.
//! 2. **Reweighting suffix equivalence** — `set_weights` applied mid-stream
//!    conserves balls and, from the boundary where it takes effect, drains
//!    bit-identically to a fresh engine constructed with the new weights over
//!    the same resident loads — for every policy, weighted or not.
//! 3. **One-shot adapter fidelity** — `OneShotRouter` over `HeavyAllocator`
//!    (and the baselines) reproduces `allocate()` loads exactly once every
//!    placement is routed, and releases validate.
//!
//! A routed key and a pushed-and-drained one are each checked against the
//! executable model of the batched process (`tests/model_properties.rs`),
//! which chooses both the same way from the same stale snapshot.

#[path = "support/policies.rs"]
mod policies;

use proptest::prelude::*;

use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::model::router::{OneShotRouter, RouteError, Router};
use parallel_balanced_allocations::model::weights::BinWeights;
use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::stream::ReweightLog;
use policies::POLICIES;

/// A 4:2:1 tier mix over `n` bins (n must be a multiple of 8).
fn tier_mix(n: usize) -> BinWeights {
    BinWeights::power_of_two_tiers(&[(n / 8, 2), (n / 4, 1), (5 * n / 8, 0)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Route/release interleavings conserve balls; releasing every live
    /// ticket returns the loads to zero — on the sole owner and on a clone of
    /// the shared handle, both driven through `&mut dyn Router`.
    #[test]
    fn release_round_trips_conservation(
        n_exp in 3u32..7,
        batch in 1usize..100,
        waves in 1usize..5,
        per_wave in 1u64..300,
        release_every in 2u64..5,
        seed in 0u64..1_000,
    ) {
        let n = 1usize << n_exp;
        let config = StreamConfig::new(n).batch_size(batch).seed(seed);
        let mut stream = StreamAllocator::new(config.clone());
        let handle = ConcurrentRouter::new(config);
        let mut caller = handle.clone();
        // Each engine draws its own copy of the key sequence and keeps its
        // own live tickets.
        let mut lanes: [(SplitMix64, Vec<Ticket>); 2] =
            std::array::from_fn(|_| (SplitMix64::for_stream(seed, 0x70_07, 0), Vec::new()));
        for _ in 0..waves {
            let routers: [&mut dyn Router; 2] = [&mut stream, &mut caller];
            for (router, (keys, live)) in routers.into_iter().zip(&mut lanes) {
                for i in 0..per_wave {
                    let placement = router.route(keys.next_u64()).unwrap();
                    prop_assert_eq!(placement.bin, placement.ticket.bin());
                    if i % release_every == 0 {
                        router.release(placement.ticket).unwrap();
                    } else {
                        live.push(placement.ticket);
                    }
                }
            }
            prop_assert!(stream.conserves_balls());
            prop_assert!(handle.conserves_balls());
        }
        prop_assert_eq!(stream.resident_tickets() as u64, stream.resident());
        prop_assert_eq!(handle.resident_tickets() as u64, handle.resident());
        let [(_, stream_live), (_, handle_live)] = lanes;
        for ticket in stream_live {
            stream.release(ticket).unwrap();
            prop_assert!(stream.conserves_balls());
        }
        for ticket in handle_live {
            handle.release(ticket).unwrap();
            prop_assert!(handle.conserves_balls());
        }
        prop_assert_eq!(stream.resident(), 0);
        prop_assert_eq!(handle.resident(), 0);
        for router in [&stream as &dyn Router, &handle] {
            prop_assert_eq!(router.loads(), vec![0u32; n]);
            let stats = router.stats();
            prop_assert_eq!(stats.routed, waves as u64 * per_wave);
            prop_assert_eq!(stats.released, stats.routed);
        }
    }

    /// Mid-stream reweighting conserves balls and the post-boundary drains
    /// match a fresh engine with the new weights and the same resident loads,
    /// bit for bit.
    #[test]
    fn set_weights_suffix_matches_fresh_engine(
        n_exp in 3u32..7,
        prefix_batches in 1u64..12,
        suffix_batches in 1u64..12,
        seed in 0u64..1_000,
        policy_idx in 0usize..6,
        invert in 0usize..2,
    ) {
        let n = 1usize << n_exp;
        let policy = POLICIES[policy_idx];
        let (before, after) = if invert == 1 {
            (tier_mix(n), BinWeights::Uniform)
        } else {
            (BinWeights::Uniform, tier_mix(n))
        };
        let cfg = StreamConfig::new(n)
            .policy(policy)
            .batch_size(n)
            .seed(seed)
            .weights(before);
        let mut stream = StreamAllocator::new(cfg.clone());
        let mut keys = SplitMix64::for_stream(seed, 0x70_09, 2);
        for _ in 0..(prefix_batches * n as u64) {
            stream.push(keys.next_u64());
        }
        stream.drain_ready();
        let loads_at_switch = stream.loads();
        let boundary = stream.gap_trajectory().len();

        stream.set_weights(after.clone());
        let suffix_keys: Vec<u64> = (0..suffix_batches * n as u64)
            .map(|_| keys.next_u64())
            .collect();
        for &key in &suffix_keys {
            stream.push(key);
        }
        stream.drain_ready();
        prop_assert!(stream.conserves_balls());

        let mut fresh =
            StreamAllocator::with_resident_loads(cfg.weights(after), &loads_at_switch);
        for &key in &suffix_keys {
            fresh.push(key);
        }
        fresh.drain_ready();
        prop_assert!(fresh.conserves_balls());
        prop_assert_eq!(fresh.loads(), stream.loads());
        prop_assert_eq!(
            fresh.gap_trajectory(),
            &stream.gap_trajectory()[boundary..]
        );
    }

    /// The one-shot adapter reproduces the wrapped allocator's loads exactly
    /// for any route-call count, and errors cleanly past capacity.
    #[test]
    fn one_shot_router_matches_allocate(
        m in 1u64..3_000,
        n_exp in 2u32..7,
        seed in 0u64..1_000,
    ) {
        let n = 1usize << n_exp;
        let reference = HeavyAllocator::default().allocate(m, n, seed);
        let mut router = OneShotRouter::new(HeavyAllocator::default(), m, n, seed);
        for key in 0..m {
            router.route(key).unwrap();
        }
        prop_assert_eq!(router.loads(), reference.loads);
        prop_assert_eq!(
            router.route(0).unwrap_err(),
            RouteError::Exhausted { capacity: m }
        );
    }
}

/// A reweighting staged mid-batch is deferred to the next boundary — the
/// `ReweightLog` observer pins the exact batch index.
#[test]
fn reweight_fires_at_the_recorded_boundary() {
    use std::sync::{Arc, Mutex};
    let n = 32usize;
    let mut stream = StreamAllocator::new(StreamConfig::new(n).batch_size(n).seed(3));
    let log = Arc::new(Mutex::new(ReweightLog::new()));
    stream.add_observer(log.clone());
    let mut keys = SplitMix64::new(5);
    for _ in 0..(4 * n as u64) {
        stream.route(keys.next_u64()).unwrap();
    }
    stream.set_weights(tier_mix(n));
    assert!(log.lock().unwrap().records().is_empty(), "staged only");
    for _ in 0..(2 * n as u64) {
        stream.route(keys.next_u64()).unwrap();
    }
    let records = log.lock().unwrap().records().to_vec();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].batch_index, 4);
    assert!(!records[0].uniform);
    assert!(stream.conserves_balls());
}

/// The one-shot adapter over every standard baseline reproduces its loads —
/// the `Router` interface really does cover the whole engine landscape.
#[test]
fn one_shot_router_covers_the_baseline_landscape() {
    let m = 2_048u64;
    let n = 64usize;
    let seed = 9u64;
    for baseline in parallel_balanced_allocations::baselines::standard_baselines() {
        let reference = baseline.allocate(m, n, seed);
        let mut router = OneShotRouter::new(&baseline, m, n, seed);
        for key in 0..m {
            router.route(key).unwrap();
        }
        assert_eq!(
            router.loads(),
            reference.loads,
            "adapter diverged for {}",
            router.name()
        );
    }
}

/// Released one-shot placements validate: double releases fail, loads drop.
#[test]
fn one_shot_router_release_validates() {
    let mut router = OneShotRouter::new(HeavyAllocator::default(), 512, 16, 1);
    let mut tickets = Vec::new();
    for key in 0..512u64 {
        tickets.push(router.route(key).unwrap().ticket);
    }
    for &ticket in &tickets {
        router.release(ticket).unwrap();
    }
    assert_eq!(router.loads(), vec![0u32; 16]);
    assert!(matches!(
        router.release(tickets[0]),
        Err(RouteError::UnknownTicket { .. })
    ));
    let stats = router.stats();
    assert_eq!(stats.routed, 512);
    assert_eq!(stats.released, 512);
    assert_eq!(stats.resident, 0);
}
