//! Criterion bench for the streaming engine: push + drain throughput of the
//! sequential vs sharded drain paths, the policy cost on the hot path, the
//! weighted (alias-table) choice path vs the unweighted one, the drain on
//! dedicated worker pools of different sizes (the `num_threads` knob over the
//! persistent pool of the rayon shim), concurrent routing through one
//! shared `ConcurrentRouter` handle at 1/2/4 caller threads, and the cost of
//! the metrics registry on the route hot path (instrumented vs bare).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pba_stream::{BinWeights, ConcurrentRouter, Policy, StreamAllocator, StreamConfig};

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
    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
