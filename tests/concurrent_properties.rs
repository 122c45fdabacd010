//! The concurrency contract of the `ConcurrentRouter` serving core:
//!
//! 1. **1-thread bit-identity** — `ConcurrentRouter` and `StreamAllocator`
//!    are two ownership shells over one engine core, so with a single caller
//!    their `route` / `release` paths agree by construction. What is tested
//!    is where the code differs: the handle's `push`/`drain_ready`/`flush`
//!    path (a locked inbox the drainer takes whole) is bit-identical to the
//!    owner's direct push (loads, gap trajectory and batch counts all
//!    agree)
//!    — including with routes and releases interleaved, and under any
//!    `PBA_THREADS` worker count (drain parallelism only partitions index
//!    ranges) — and the batched `route_many` surface, a grouped call on the
//!    handle, is bit-identical to a loop of `route` calls on the owner, for
//!    all six policies under uniform *and* tiered weights and every group
//!    size.
//! 2. **k-thread conservation** — under concurrent route/release churn from
//!    many caller threads (one-at-a-time *and* grouped `route_many` calls,
//!    with membership staging interleaved), no ball is lost or duplicated:
//!    conservation holds at quiescence, open tickets equal routed −
//!    released, every live ticket releases exactly once, double releases are
//!    rejected, and boundaries fire once per `batch_size` routed balls.
//!    Producers pushing while another thread drains lose no ball, and the
//!    batches come out as the id-ordered owner's.
//! 3. **Snapshot-epoch monotonicity** — epochs observed by concurrent
//!    readers never go backwards, equal the batch-boundary count at
//!    quiescence, and fire once per `batch_size` routed balls.
//! 4. **Gap trajectory bounds** — the measured online gap stays within the
//!    batched-model envelope (staleness of at most the in-flight balls, so
//!    O((k·b)/n + log n) for two-choice at k callers).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use parallel_balanced_allocations::model::rng::SeedSeq;
use parallel_balanced_allocations::model::weights::BinWeights;
use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::stream::Policy;

const POLICIES: [Policy; 6] = [
    Policy::OneChoice,
    Policy::TwoChoice,
    Policy::DChoice(3),
    Policy::Threshold { d: 2, slack: 1 },
    Policy::WeightedTwoChoice,
    Policy::CapacityThreshold { d: 2, slack: 2 },
];

/// A 4:2:1 tier mix over `n` bins (n must be a multiple of 8).
fn tier_mix(n: usize) -> BinWeights {
    BinWeights::power_of_two_tiers(&[(n / 8, 2), (n / 4, 1), (5 * n / 8, 0)])
}

/// Every test derives its randomness from a [`SeedSeq`] family: one root per
/// test, one stream tag per purpose, member index = thread/case — no two
/// call sites share a hardcoded `(seed, stream, index)` triple by accident.
fn keys(count: u64, seed: u64) -> Vec<u64> {
    let mut rng = SeedSeq::new(seed, 0xc0c0).rng(0);
    (0..count).map(|_| rng.next_u64()).collect()
}

/// Batched bit-identity: `route_many` groups of every shape — singletons,
/// misaligned odd sizes, bigger than a whole batch — on the shared handle
/// match a loop of `route` calls on the sole owner ball for ball, for all 6
/// policies × uniform/tiered weights × drain threads {1, 4}, with releases
/// interleaved between groups. Placements, ticket ids, loads, gap
/// trajectories and batch counts must all agree exactly.
#[test]
fn route_many_is_bit_identical_to_looped_route() {
    let n = 64usize;
    let sizes = [1usize, 3, 8, 17, 33, 2];
    for policy in POLICIES {
        for weights in [BinWeights::Uniform, tier_mix(n)] {
            for threads in [1usize, 4] {
                let cfg = StreamConfig::new(n)
                    .policy(policy)
                    .batch_size(32)
                    .seed(41)
                    .num_threads(threads)
                    .weights(weights.clone());
                let mut looped = StreamAllocator::new(cfg.clone());
                let grouped = ConcurrentRouter::new(cfg);
                let keys = keys(32 * 10 + 13, 19);
                let mut held_l = Vec::new();
                let mut held_g = Vec::new();
                let mut cursor = 0usize;
                let mut wave = 0usize;
                while cursor < keys.len() {
                    let take = sizes[wave % sizes.len()].min(keys.len() - cursor);
                    let group = &keys[cursor..cursor + take];
                    for &key in group {
                        held_l.push(looped.route(key).expect("infallible"));
                    }
                    let g = grouped.route_many(group).expect("infallible");
                    assert_eq!(g.len(), take);
                    for i in 0..take {
                        let l = &held_l[cursor + i];
                        assert_eq!(
                            g[i].bin,
                            l.bin,
                            "group diverged: {} {} threads={threads} ball {}",
                            policy.name(),
                            weights.name(),
                            cursor + i
                        );
                        assert_eq!(g[i].ticket.id(), l.ticket.id());
                    }
                    held_g.extend(g);
                    // Retire an earlier ball every few groups so the grouped
                    // engine sees departures between calls too.
                    if wave % 4 == 3 {
                        let at = cursor / 2;
                        looped.release(held_l[at].ticket).expect("live ticket");
                        grouped.release(held_g[at].ticket).expect("live ticket");
                    }
                    cursor += take;
                    wave += 1;
                }
                assert_eq!(grouped.loads(), looped.loads(), "{}", policy.name());
                assert_eq!(grouped.gap_trajectory(), looped.gap_trajectory());
                assert_eq!(grouped.batches(), looped.snapshot().batches);
                assert_eq!(grouped.flush(), looped.flush());
                assert_eq!(grouped.gap_trajectory(), looped.gap_trajectory());
                assert!(grouped.conserves_balls() && looped.conserves_balls());
            }
        }
    }
}

/// 1-thread bit-identity, push path: `push` + `drain_ready` + `flush`
/// through the handle's inbox matches the buffered engine, with route traffic
/// interleaved between drains (mixed-surface usage).
#[test]
fn one_thread_push_drain_bit_identity_with_interleaved_routes() {
    let n = 48usize;
    for policy in POLICIES {
        let cfg = StreamConfig::new(n)
            .policy(policy)
            .batch_size(64)
            .seed(23)
            .shards(4)
            .weights(tier_mix(n));
        let concurrent = ConcurrentRouter::new(cfg.clone());
        let mut classic = StreamAllocator::new(cfg);
        let mut rng = SeedSeq::new(1, 0xab).rng(0);
        for wave in 0..6u64 {
            for _ in 0..150 {
                let key = rng.next_u64();
                concurrent.push(key);
                classic.push(key);
            }
            assert_eq!(concurrent.drain_ready(), classic.drain_ready());
            // Interleaved handle traffic (an open routed batch must not
            // disturb the push-path boundaries).
            for _ in 0..=(wave % 3) {
                let key = rng.next_u64();
                assert_eq!(
                    concurrent.route(key).unwrap().bin,
                    classic.route(key).unwrap().bin
                );
            }
            assert_eq!(concurrent.loads(), classic.loads(), "wave {wave}");
        }
        assert_eq!(concurrent.flush(), classic.flush());
        assert_eq!(concurrent.loads(), classic.loads(), "{}", policy.name());
        assert_eq!(concurrent.gap_trajectory(), classic.gap_trajectory());
        assert_eq!(concurrent.pending(), 0);
        assert!(concurrent.conserves_balls());
    }
}

/// Four producers `push` on clones of the handle while a fifth thread keeps
/// calling `drain_ready`: whenever the drains fall, batches are cut from the
/// arrival sequence in id order, so after a `flush` the loads and the gap
/// trajectory equal the owner's fed the same keys in id order.
#[test]
fn k_producer_pushes_under_a_racing_drain_match_the_id_ordered_owner() {
    let (n, batch, producers, per_producer) = (32usize, 64usize, 4u64, 1_000u64);
    let pushes = producers * per_producer;
    let seeds = SeedSeq::new(5, 0x9054);
    for policy in POLICIES {
        let cfg = StreamConfig::new(n)
            .policy(policy)
            .batch_size(batch)
            .seed(17);
        let router = ConcurrentRouter::new(cfg.clone());
        let done = AtomicBool::new(false);
        // Producers and drainer start together, so drains land mid-push.
        let start = &Barrier::new(producers as usize + 1);
        let mut arrivals: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let drainer = scope.spawn(|| {
                start.wait();
                loop {
                    let last = done.load(Ordering::Acquire);
                    router.drain_ready();
                    if last {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
            let handles: Vec<_> = (0..producers)
                .map(|t| {
                    let router = router.clone();
                    scope.spawn(move || {
                        start.wait();
                        let mut rng = seeds.rng(t);
                        (0..per_producer)
                            .map(|_| {
                                let key = rng.next_u64();
                                (router.push(key), key)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let arrivals = handles
                .into_iter()
                .flat_map(|h| h.join().expect("producer thread"))
                .collect();
            done.store(true, Ordering::Release);
            drainer.join().expect("drain thread");
            arrivals
        });
        router.flush();
        assert_eq!(router.pending(), 0);
        assert_eq!(router.resident(), pushes);
        assert!(router.conserves_balls());
        assert_eq!(router.batches(), pushes.div_ceil(batch as u64));

        arrivals.sort_unstable();
        let mut owner = StreamAllocator::new(cfg);
        for &(id, key) in &arrivals {
            assert_eq!(owner.push(key), id, "{}", policy.name());
        }
        owner.flush();
        assert_eq!(router.loads(), owner.loads(), "{}", policy.name());
        assert_eq!(router.gap_trajectory(), owner.gap_trajectory());
    }
}

/// k-thread conservation and ticket-ledger consistency under concurrent
/// route/release churn: no lost or duplicated tickets for any interleaving.
#[test]
fn k_thread_churn_conserves_and_keeps_ledger_consistent() {
    let n = 64usize;
    let callers = 8u64;
    let per_caller = 3_000u64;
    let seeds = SeedSeq::new(3, 0xc4a7);
    for weights in [BinWeights::Uniform, tier_mix(n)] {
        let router = ConcurrentRouter::new(
            StreamConfig::new(n)
                .policy(Policy::TwoChoice)
                .batch_size(128)
                .seed(seeds.root())
                .weights(weights),
        );
        let kept: Vec<Ticket> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|t| {
                    let router = router.clone();
                    scope.spawn(move || {
                        let mut rng = seeds.rng(t);
                        let mut kept = Vec::new();
                        for i in 0..per_caller {
                            let placement = router.route(rng.next_u64()).unwrap();
                            if i % 3 == 0 {
                                kept.push(placement.ticket);
                            } else {
                                router.release(placement.ticket).expect("fresh ticket");
                            }
                        }
                        kept
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("caller thread"))
                .collect()
        });
        // Quiescent: every counter must reconcile exactly.
        assert!(router.conserves_balls());
        let stats = router.stats();
        assert_eq!(stats.routed, callers * per_caller);
        assert_eq!(stats.released, callers * per_caller - kept.len() as u64);
        assert_eq!(router.resident(), kept.len() as u64);
        assert_eq!(router.resident_tickets(), kept.len());
        let per_bin: usize = (0..n).map(|b| router.tickets_in(b)).sum();
        assert_eq!(per_bin, kept.len(), "ledger shards agree with total");
        for ticket in kept {
            router.release(ticket).expect("kept tickets release once");
            assert!(router.release(ticket).is_err(), "double release rejected");
        }
        assert_eq!(router.loads(), vec![0; n]);
        assert!(router.conserves_balls());
    }
}

/// Snapshot epochs observed by concurrent readers are monotone, and at
/// quiescence equal the boundary count (one per `batch_size` routed balls).
#[test]
fn snapshot_epochs_are_monotone_under_concurrent_routing() {
    let n = 32usize;
    let batch = 64usize;
    let callers = 4u64;
    let per_caller = 4_000u64;
    let router = ConcurrentRouter::new(StreamConfig::new(n).batch_size(batch).seed(11));
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let router = router.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0u64;
            let mut observed = 0u64;
            while !stop.load(Ordering::Acquire) {
                let epoch = router.snapshot_epoch();
                assert!(epoch >= last, "epoch went backwards: {last} -> {epoch}");
                last = epoch;
                observed += 1;
                // The published snapshot itself must be coherent: it is an
                // Arc to an immutable boundary vector, so its total can
                // never exceed what has been placed so far. Nothing is
                // released here, so loads only grow and the fresh total read
                // *afterwards* bounds it; the `routed` counter does not — a
                // route commits its load before it counts itself, and a
                // boundary may publish in between.
                let stale: u64 = router.stale_loads().iter().map(|&l| l as u64).sum();
                assert!(stale <= router.resident());
            }
            (last, observed)
        })
    };
    std::thread::scope(|scope| {
        for t in 0..callers {
            let router = router.clone();
            scope.spawn(move || {
                for i in 0..per_caller {
                    router.route(t * 1_000_000 + i).unwrap();
                }
            });
        }
    });
    stop.store(true, Ordering::Release);
    let (last_seen, observed) = watcher.join().expect("watcher");
    assert!(observed > 0);
    let expected = callers * per_caller / batch as u64;
    assert_eq!(router.batches(), expected);
    assert_eq!(router.snapshot_epoch(), expected);
    assert!(last_seen <= expected);
    assert_eq!(router.gap_trajectory().len() as u64, expected);
}

/// The measured gap trajectory stays inside the batched-model envelope at
/// k callers: staleness is at most the batch plus in-flight balls, so the
/// two-choice gap is O((k·b)/n + log n) — asserted with a generous constant
/// (the point is "bounded, not growing with total arrivals").
#[test]
fn gap_trajectory_bounds_hold_under_concurrency() {
    let n = 64usize;
    let batch = 128usize;
    let callers = 4u64;
    let per_caller = 16_000u64;
    let seeds = SeedSeq::new(29, 0x9a9);
    let router = ConcurrentRouter::new(StreamConfig::new(n).batch_size(batch).seed(seeds.root()));
    std::thread::scope(|scope| {
        for t in 0..callers {
            let router = router.clone();
            scope.spawn(move || {
                let mut rng = seeds.rng(t);
                for _ in 0..per_caller {
                    router.route(rng.next_u64()).unwrap();
                }
            });
        }
    });
    let envelope = 4.0 * (callers as usize * batch) as f64 / n as f64 + 4.0 * (n as f64).log2();
    let trajectory = router.gap_trajectory();
    assert!(!trajectory.is_empty());
    let worst = trajectory.iter().copied().fold(0.0f64, f64::max);
    assert!(
        worst <= envelope,
        "gap {worst:.1} escaped the staleness envelope {envelope:.1}"
    );
    // Bounded over time: the tail of the run is no worse than the envelope
    // either (no drift with total arrivals).
    let final_gap = *trajectory.last().unwrap();
    assert!(final_gap <= envelope);
    assert!(router.conserves_balls());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomised 1-thread bit-identity: arbitrary bins/batch/seed and mixed
    /// route + push/drain traffic agree with the classic engine exactly.
    #[test]
    fn one_thread_mixed_traffic_matches_classic(
        n_exp in 3u32..7,
        batch in 1usize..120,
        waves in 1usize..5,
        per_wave in 1u64..250,
        routes_per_wave in 0u64..40,
        seed in 0u64..1_000,
    ) {
        let n = 1usize << n_exp;
        let cfg = StreamConfig::new(n).batch_size(batch).seed(seed);
        let concurrent = ConcurrentRouter::new(cfg.clone());
        let mut classic = StreamAllocator::new(cfg);
        let mut rng = SeedSeq::new(seed, 0x777).rng(0);
        for _ in 0..waves {
            for _ in 0..per_wave {
                let key = rng.next_u64();
                concurrent.push(key);
                classic.push(key);
            }
            prop_assert_eq!(concurrent.drain_ready(), classic.drain_ready());
            for _ in 0..routes_per_wave {
                let key = rng.next_u64();
                let a = concurrent.route(key).unwrap();
                let b = classic.route(key).unwrap();
                prop_assert_eq!(a.bin, b.bin);
            }
            prop_assert_eq!(concurrent.loads(), classic.loads());
        }
        prop_assert_eq!(concurrent.flush(), classic.flush());
        prop_assert_eq!(concurrent.loads(), classic.loads());
        prop_assert_eq!(concurrent.gap_trajectory(), classic.gap_trajectory());
        prop_assert_eq!(concurrent.batches(), classic.snapshot().batches);
        prop_assert!(concurrent.conserves_balls());
    }

    /// k callers interleave grouped `route_many` calls, releases and
    /// membership staging under arbitrary shapes; for every schedule the
    /// ledger reconciles exactly at quiescence and boundaries fire once per
    /// `batch_size` routed balls (membership staging never adds or swallows
    /// a boundary).
    #[test]
    fn k_caller_route_many_churn_conserves_and_fires_boundaries(
        callers in 2u64..5,
        waves in 4usize..10,
        group_max in 1usize..48,
        batch in 8usize..96,
        seed in 0u64..1_000,
    ) {
        let n = 32usize;
        let router = ConcurrentRouter::new(
            StreamConfig::new(n)
                .policy(Policy::TwoChoice)
                .batch_size(batch)
                .seed(seed)
                .reserve_bins(4),
        );
        let seeds = SeedSeq::new(seed, 0xface);
        let kept: Vec<Ticket> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|t| {
                    let router = router.clone();
                    let seeds = &seeds;
                    scope.spawn(move || {
                        let mut rng = seeds.rng(t);
                        let mut kept = Vec::new();
                        for wave in 0..waves {
                            let size = (rng.next_u64() as usize % group_max) + 1;
                            let group: Vec<u64> =
                                (0..size).map(|_| rng.next_u64()).collect();
                            let placements =
                                router.route_many(&group).expect("infallible");
                            assert_eq!(placements.len(), size);
                            for (i, placement) in placements.into_iter().enumerate() {
                                if (wave + i) % 3 == 0 {
                                    kept.push(placement.ticket);
                                } else {
                                    router.release(placement.ticket).expect("fresh ticket");
                                }
                            }
                            // Interleave membership churn: drains stay inside
                            // the low half of the slots so active bins never
                            // run out; adds beyond the reserve are rejected
                            // (and counted) at the boundary, not dropped.
                            if wave % 3 == t as usize % 3 {
                                let plan = if wave % 2 == 0 {
                                    MembershipPlan::new()
                                        .drain((rng.next_u64() % (n as u64 / 2)) as u32)
                                } else {
                                    MembershipPlan::new().add(1.0)
                                };
                                router.stage_membership(plan);
                            }
                        }
                        kept
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("caller thread"))
                .collect()
        });
        // Quiescent, pre-flush: one boundary per `batch_size` routed balls.
        let stats = router.stats();
        prop_assert_eq!(stats.batches, stats.routed / batch as u64);
        prop_assert!(router.conserves_balls());
        prop_assert_eq!(router.resident_tickets() as u64, stats.routed - stats.released);
        prop_assert_eq!(router.resident_tickets(), kept.len());
        let per_bin: usize = (0..router.capacity()).map(|b| router.tickets_in(b)).sum();
        prop_assert_eq!(per_bin, kept.len(), "ledger shards agree with total");
        for ticket in kept {
            router.release(ticket).expect("kept tickets release once");
            prop_assert!(router.release(ticket).is_err(), "double release rejected");
        }
        prop_assert!(router.conserves_balls());
    }
}
