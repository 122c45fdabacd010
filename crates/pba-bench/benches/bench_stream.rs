//! Criterion bench for the streaming engine: push + drain throughput of the
//! sequential vs sharded drain paths, the policy cost on the hot path, the
//! weighted (alias-table) choice path vs the unweighted one, the drain on
//! dedicated worker pools of different sizes (the `num_threads` knob over the
//! persistent pool of the rayon shim), concurrent routing through one
//! shared `ConcurrentRouter` handle at 1/2/4 caller threads, the cost of
//! the metrics registry on the route hot path (instrumented vs bare), and two
//! pairs of arms that must read the same: `route_many(32)` on a never-staged
//! router against one that staged an empty membership plan, and
//! `release_many(32)` on a never-migrated router against one whose single
//! migration is long over.
use std::collections::VecDeque;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pba_stream::{
    BinWeights, ConcurrentRouter, MembershipPlan, Policy, StreamAllocator, StreamConfig,
};

fn run_stream(config: StreamConfig, m: u64, key_seed: u64) -> f64 {
    let mut stream = StreamAllocator::new(config);
    let mut keys = pba_model::rng::SplitMix64::new(key_seed);
    for _ in 0..m {
        stream.push(keys.next_u64());
    }
    stream.flush();
    stream.gap_trajectory().last().copied().unwrap_or(0.0)
}

fn bench_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    let n = 1usize << 10;
    let m = 1u64 << 18;

    group.bench_function("two_choice_sequential", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            std::hint::black_box(run_stream(
                StreamConfig::new(n).batch_size(n).seed(seed).sequential(),
                m,
                seed,
            ))
        });
    });
    for shards in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("two_choice_sharded", shards),
            &shards,
            |b, &shards| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    std::hint::black_box(run_stream(
                        StreamConfig::new(n).batch_size(n).seed(seed).shards(shards),
                        m,
                        seed,
                    ))
                });
            },
        );
    }
    group.bench_function("threshold_policy", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            std::hint::black_box(run_stream(
                StreamConfig::new(n)
                    .policy(Policy::Threshold { d: 2, slack: 2 })
                    .batch_size(n)
                    .seed(seed),
                m,
                seed,
            ))
        });
    });
    // The weighted hot path: alias-table candidate sampling + normalized-load
    // comparison on a 4:2:1 capacity tier mix, against the unweighted
    // two_choice_sequential baseline above (same n, m, batch).
    let weights = BinWeights::power_of_two_tiers(&[(n / 8, 2), (n / 4, 1), (5 * n / 8, 0)]);
    for (name, policy) in [
        ("weighted_two_choice_tiers", Policy::WeightedTwoChoice),
        (
            "capacity_threshold_tiers",
            Policy::CapacityThreshold { d: 2, slack: 2 },
        ),
    ] {
        let weights = weights.clone();
        group.bench_function(name, move |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                std::hint::black_box(run_stream(
                    StreamConfig::new(n)
                        .policy(policy)
                        .batch_size(n)
                        .seed(seed)
                        .weights(weights.clone()),
                    m,
                    seed,
                ))
            });
        });
    }
    // Dedicated-pool drains: the same sharded workload on engine-owned pools
    // of 1/2/4 workers. Batch 65536 is the shortest the drain hands to a pool
    // (two spans of `commit::PARALLEL_MIN_SPAN`), so these arms against
    // `two_choice_sequential` are the check that the cutoff still sits where
    // threads stop losing; on a single-core host the counts tie.
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("two_choice_pool_threads", threads),
            &threads,
            |b, &threads| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    std::hint::black_box(run_stream(
                        StreamConfig::new(n)
                            .batch_size(1 << 16)
                            .seed(seed)
                            .shards(8)
                            .num_threads(threads),
                        m,
                        seed,
                    ))
                });
            },
        );
    }
    // Concurrent-route arms: the same keyed workload routed through one
    // shared ConcurrentRouter handle by 1/2/4 caller threads (the E16
    // serving-core shape). The 1-caller arm prices the shared-handle
    // overhead (epoch snapshot clone + atomics + sharded ledger) against
    // two_choice_sequential; the multi-caller arms scale only on multi-core
    // hosts.
    let m_route = m / 4; // route() is per-ball synchronous; keep iters short
    for callers in [1u64, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("concurrent_route_callers", callers),
            &callers,
            |b, &callers| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    let router = ConcurrentRouter::new(
                        StreamConfig::new(n).batch_size(n).seed(seed).shards(8),
                    );
                    let per_caller = m_route / callers;
                    std::thread::scope(|scope| {
                        for t in 0..callers {
                            let router = router.clone();
                            let key_seed = seed ^ (t << 32);
                            scope.spawn(move || {
                                let mut keys = pba_model::rng::SplitMix64::new(key_seed);
                                for _ in 0..per_caller {
                                    std::hint::black_box(
                                        router.route(keys.next_u64()).expect("infallible"),
                                    );
                                }
                            });
                        }
                    });
                    std::hint::black_box(router.stats().gap)
                });
            },
        );
    }
    // The price of observability: the same 1-caller routed workload with the
    // metrics registry installed (every route is +3 relaxed counter
    // increments and a CounterVec slot) vs the bare router, whose `None`
    // metrics slot is the disabled fast path — zero metric instructions.
    // The two arms must also produce identical placements (metrics are
    // write-only); the property tests enforce that, this arm prices it.
    for (name, instrumented) in [
        ("route_instrumented_vs_bare/bare", false),
        ("route_instrumented_vs_bare/instrumented", true),
    ] {
        group.bench_function(name, move |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let config = StreamConfig::new(n).batch_size(n).seed(seed).shards(8);
                let router = if instrumented {
                    ConcurrentRouter::with_metrics(
                        config,
                        std::sync::Arc::new(pba_obs::MetricsRegistry::new()),
                    )
                } else {
                    ConcurrentRouter::new(config)
                };
                let mut keys = pba_model::rng::SplitMix64::new(seed);
                for _ in 0..m_route {
                    std::hint::black_box(router.route(keys.next_u64()).expect("infallible"));
                }
                std::hint::black_box(router.stats().gap)
            });
        });
    }
    // The cost of having staged anything, ever: groups of 32 routed and
    // released through a router nobody touched, and through one that staged
    // (and, at its first batch, applied) an empty plan. There is one
    // topology path, so the arms run the same code and must read the same;
    // while staging still flipped a router onto per-ball commits for the
    // rest of its life, the second arm read 1.6× the first.
    for (name, staged) in [
        ("route_many_32/never_staged", false),
        ("route_many_32/staged_empty_plan", true),
    ] {
        group.bench_function(name, move |b| {
            let router = ConcurrentRouter::new(StreamConfig::new(n).batch_size(256).seed(7));
            if staged {
                router.stage_membership(MembershipPlan::new());
            }
            let mut keys = pba_model::rng::SplitMix64::new(7);
            let mut group_keys = [0u64; 32];
            let mut tickets = Vec::with_capacity(group_keys.len());
            b.iter(|| {
                for _ in 0..m_route / group_keys.len() as u64 {
                    group_keys.fill_with(|| keys.next_u64());
                    let placements = router.route_many(&group_keys).expect("infallible");
                    tickets.clear();
                    tickets.extend(placements.iter().map(|placement| placement.ticket));
                    router.release_many(&tickets).expect("just issued");
                }
                std::hint::black_box(router.stats().gap)
            });
        });
    }
    // The cost of having migrated anything, ever: groups of 32 routed while
    // the 32 oldest of 2^12 FIFO residents are released, through a router
    // that never migrated and through one that drained a bin, migrated its
    // residents and has since turned its resident set over three times — no
    // migrated ball is left. A migration rewrites one ledger entry in place
    // and leaves nothing behind, so the arms must read the same; while the
    // first migration still switched every later `release_many` to a loop
    // of single redeems, the second arm read 1.4–1.5× the first.
    for (name, migrated) in [
        ("release_many_32/never_migrated", false),
        ("release_many_32/migrated_once", true),
    ] {
        group.bench_function(name, move |b| {
            let router =
                ConcurrentRouter::new(StreamConfig::new(n).batch_size(256).shards(8).seed(7));
            let mut keys = pba_model::rng::SplitMix64::new(7);
            let mut resident = VecDeque::with_capacity((1 << 12) + 32);
            let mut route_group = |resident: &mut VecDeque<_>| {
                let group_keys: [u64; 32] = std::array::from_fn(|_| keys.next_u64());
                let placements = router.route_many(&group_keys).expect("infallible");
                resident.extend(placements.iter().map(|placement| placement.ticket));
            };
            let release_oldest = |resident: &mut VecDeque<_>| {
                let oldest: Vec<_> = resident.drain(..32).collect();
                router.release_many(&oldest).expect("resident tickets");
            };
            while resident.len() < 1 << 12 {
                route_group(&mut resident);
            }
            if migrated {
                router.stage_membership(MembershipPlan::new().drain(3));
            }
            // 512 routes carry the staged drain past a batch boundary; the
            // emptied bin is then retired and commissioned again, so both
            // arms route over the same 1024 active bins, and the rest of
            // the 3× turnover retires every migrated ball.
            for turn in 0..3 * (1 << 12) / 32 {
                if migrated && turn == 512 / 32 {
                    assert!(router.migrate_drained() > 0, "bin 3 held residents");
                    router.stage_membership(MembershipPlan::new().remove(3).add(1.0));
                }
                route_group(&mut resident);
                release_oldest(&mut resident);
            }
            assert_eq!(router.active_bins().len(), n);
            b.iter(|| {
                for _ in 0..m_route / 32 {
                    route_group(&mut resident);
                    release_oldest(&mut resident);
                }
                std::hint::black_box(router.stats().gap)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
