//! The concurrency contract of the `ConcurrentRouter` serving core. What one
//! caller gets from it, grouped or not, is pinned against the executable
//! model of the batched process (`tests/model_properties.rs`); this suite
//! covers k callers:
//!
//! 1. **k-thread conservation** — under concurrent route/release churn from
//!    many caller threads (one-at-a-time *and* grouped `route_many` calls,
//!    with membership staging interleaved), no ball is lost or duplicated:
//!    conservation holds at quiescence, open tickets equal routed −
//!    released, every live ticket releases exactly once, double releases are
//!    rejected, and boundaries fire once per `batch_size` routed balls.
//!    Producers pushing while another thread drains lose no ball, and the
//!    batches come out as the id-ordered owner's. Drains racing routes and
//!    releases on the same few bins keep every book: the drain's commits
//!    (the loads' push lane) and the routes' and releases' (the route lane)
//!    never take or lose each other's balls.
//! 2. **Snapshot-epoch monotonicity** — epochs observed by concurrent
//!    readers never go backwards, equal the batch-boundary count at
//!    quiescence, and fire once per `batch_size` routed balls.
//! 3. **Gap trajectory bounds** — the measured online gap stays within the
//!    batched-model envelope (staleness of at most the in-flight balls, so
//!    O((k·b)/n + log n) for two-choice at k callers).

#[path = "support/policies.rs"]
mod policies;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use parallel_balanced_allocations::model::rng::SeedSeq;
use parallel_balanced_allocations::model::router::WireRequest;
use parallel_balanced_allocations::model::weights::BinWeights;
use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::stream::Policy;
use policies::POLICIES;

/// A 4:2:1 tier mix over `n` bins (n must be a multiple of 8).
fn tier_mix(n: usize) -> BinWeights {
    BinWeights::power_of_two_tiers(&[(n / 8, 2), (n / 4, 1), (5 * n / 8, 0)])
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

/// One thread pushes and drains for as long as three callers route, serve
/// wire runs and release over the same four bins, so every drain's commit
/// (the one writer of the loads' push lane) races routes and releases (the
/// route lane) on every bin. At quiescence the books reconcile; once every
/// ticket is released, exactly the pushed balls remain.
#[test]
fn drains_racing_routes_and_releases_on_the_same_bins_keep_the_books() {
    let (n, batch, callers, waves) = (4usize, 16usize, 3u64, 300usize);
    let seeds = SeedSeq::new(9, 0xd7a1);
    for policy in POLICIES {
        let router = ConcurrentRouter::new(
            StreamConfig::new(n)
                .policy(policy)
                .batch_size(batch)
                .seed(seeds.root()),
        );
        let done = AtomicBool::new(false);
        let start = &Barrier::new(callers as usize + 1);
        let (kept, pushes): (Vec<Ticket>, u64) = std::thread::scope(|scope| {
            let pusher = scope.spawn(|| {
                start.wait();
                let mut rng = seeds.rng(callers);
                let mut pushes = 0u64;
                while !done.load(Ordering::Acquire) {
                    for _ in 0..24 {
                        router.push(rng.next_u64());
                    }
                    pushes += 24;
                    router.drain_ready();
                }
                pushes
            });
            let handles: Vec<_> = (0..callers)
                .map(|t| {
                    let router = router.clone();
                    scope.spawn(move || {
                        start.wait();
                        let mut rng = seeds.rng(t);
                        let mut kept = Vec::new();
                        let mut served = Vec::new();
                        for wave in 0..waves {
                            let size = rng.next_u64() as usize % 12 + 1;
                            let group: Vec<u64> = (0..size).map(|_| rng.next_u64()).collect();
                            let placements = router.route_many(&group).expect("infallible");
                            // Release a third by ticket, a third by wire id in
                            // a run with fresh routes, and keep the rest.
                            let mut run = Vec::new();
                            for (i, placement) in placements.into_iter().enumerate() {
                                let ticket = placement.ticket;
                                match (wave + i) % 3 {
                                    0 => router.release(ticket).expect("fresh ticket"),
                                    1 => {
                                        run.push(WireRequest::Route(rng.next_u64()));
                                        run.push(WireRequest::Release(router.wire_id(&ticket)));
                                    }
                                    _ => kept.push(ticket),
                                }
                            }
                            router.serve_wire(&run, &mut served);
                            for (request, ticket) in run.iter().zip(&served) {
                                let ticket = ticket.expect("a resident ball releases by wire id");
                                if let WireRequest::Route(_) = request {
                                    kept.push(ticket);
                                }
                            }
                        }
                        kept
                    })
                })
                .collect();
            // Stop the pusher before a failed caller's panic is raised, or
            // the scope would wait on it forever.
            let callers: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            done.store(true, Ordering::Release);
            let pushes = pusher.join().expect("push thread");
            let kept = callers
                .into_iter()
                .flat_map(|caller| caller.expect("caller thread"))
                .collect();
            (kept, pushes)
        });
        router.flush();
        let name = policy.name();
        assert_eq!(router.pending(), 0, "{name}");
        assert!(router.conserves_balls(), "{name}");
        let loads = router.loads();
        let total: u64 = loads.iter().map(|&load| load as u64).sum();
        assert_eq!(total, router.resident(), "{name}");
        assert_eq!(router.resident(), pushes + kept.len() as u64, "{name}");
        for (bin, &load) in loads.iter().enumerate() {
            assert!(load as usize >= router.tickets_in(bin), "{name} bin {bin}");
        }
        for ticket in kept {
            router.release(ticket).expect("kept tickets release once");
        }
        let total: u64 = router.loads().iter().map(|&load| load as u64).sum();
        assert_eq!(total, pushes, "{name}: the pushed balls remain");
        assert!(router.conserves_balls(), "{name}");
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
