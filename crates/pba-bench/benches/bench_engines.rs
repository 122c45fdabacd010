//! Criterion bench for experiment E8: the four execution substrates running the
//! same fixed-threshold protocol, plus the agent engine on `A_heavy`'s phase 1.
use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use pba_algorithms::{HeavyAllocator, ScheduledThresholdProtocol};
use pba_concurrent::{run_actor_threshold, run_concurrent_threshold};
use pba_model::engine::{run_agent_engine, run_count_engine, EngineConfig};
use pba_model::protocol::{FixedThresholdProtocol, Protocol};

fn bench_agent(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    protocol: &dyn Protocol,
    m: u64,
    n: usize,
    parallel: bool,
) {
    let config = EngineConfig {
        parallel,
        ..EngineConfig::default()
    };
    group.bench_function(name, |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            std::hint::black_box(run_agent_engine(protocol, m, n, seed, &config))
        });
    });
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_engines");
    group.sample_size(10);
    let n = 1usize << 9;
    let m = (n as u64) << 9;
    let t = (m / n as u64) as u32 + 8;
    let mut fixed = FixedThresholdProtocol::new(t, 1);
    fixed.max_rounds = 10_000;
    bench_agent(&mut group, "agent_engine", &fixed, m, n, false);
    bench_agent(&mut group, "agent_engine_parallel", &fixed, m, n, true);
    // Phase 1 of `A_heavy` at the repo benchmark's ratio, m/n = 4096: nearly
    // every ball is placed in round 0, so this is the engine's cost per ball.
    let heavy_m = (n as u64) << 12;
    let scheduled =
        ScheduledThresholdProtocol::new(HeavyAllocator::default().schedule_for(heavy_m, n));
    bench_agent(
        &mut group,
        "agent_engine_scheduled_4096",
        &scheduled,
        heavy_m,
        n,
        false,
    );
    bench_agent(
        &mut group,
        "agent_engine_scheduled_4096_parallel",
        &scheduled,
        heavy_m,
        n,
        true,
    );
    group.bench_function("count_engine", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            std::hint::black_box(run_count_engine(&fixed, m, n, seed))
        });
    });
    group.bench_function("shared_memory_atomics", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            std::hint::black_box(run_concurrent_threshold(m, n, t, 10_000, seed))
        });
    });
    group.bench_function("actor_channels", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            std::hint::black_box(run_actor_threshold(m, n, t, 10_000, 4, seed))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
