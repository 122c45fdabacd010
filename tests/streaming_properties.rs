//! Property tests for the streaming engine (`pba-stream`):
//!
//! 1. **Conservation** — across arbitrary push/drain/release cycles (churn
//!    retires residents through ticketed `route`/`release`),
//!    `arrived == placed + pending` and `placed − departed == Σ loads`.
//! 2. **Keyed placements** — a hot key only ever reaches its fixed candidate
//!    set.
//! 3. **Static-workload fidelity** — on an equivalent static workload the
//!    streaming engine reproduces the behaviour of the one-shot machinery:
//!    one-choice matches the count engine's single-round multinomial gap, and
//!    batched two-choice matches the one-shot batched-two-choice baseline.
//!
//! A drain whose choose step is cut into spans for several threads is pinned
//! to the sequential one by the `pba-stream` unit tests and
//! `tests/execution_properties.rs`; a batch shorter than two spans is chosen
//! inline whatever the shard or thread count, so drains of that size are
//! checked against the executable model of the batched process instead
//! (`tests/model_properties.rs`).

use proptest::prelude::*;

use parallel_balanced_allocations::baselines::BatchedTwoChoiceAllocator;
use parallel_balanced_allocations::model::engine::run_count_engine;
use parallel_balanced_allocations::model::protocol::FixedThresholdProtocol;
use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::model::Allocator;
use parallel_balanced_allocations::stream::{Policy, StreamAllocator, StreamConfig};

/// Deterministic uniform key stream for the tests.
fn push_keys(stream: &mut StreamAllocator, count: u64, key_seed: u64) {
    let mut rng = SplitMix64::for_stream(key_seed, 0x7e57, 0);
    for _ in 0..count {
        stream.push(rng.next_u64());
    }
}

fn gap_of(loads: &[u32]) -> f64 {
    let total: u64 = loads.iter().map(|&l| l as u64).sum();
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    max - total as f64 / loads.len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation across interleaved push / drain / depart cycles.
    #[test]
    fn conservation_across_push_drain_depart_cycles(
        n_exp in 3u32..8,
        batch in 1usize..300,
        cycles in 1usize..6,
        pushes in 1u64..500,
        seed in 0u64..1_000,
    ) {
        let n = 1usize << n_exp;
        let mut stream = StreamAllocator::new(
            StreamConfig::new(n).batch_size(batch).seed(seed),
        );
        let mut churn_rng = SplitMix64::for_stream(seed, 0xdead, 1);
        let mut routed: u64 = 0;
        let mut departed: u64 = 0;
        for cycle in 0..cycles {
            push_keys(&mut stream, pushes, seed ^ cycle as u64);
            stream.drain_ready();
            prop_assert!(stream.conserves_balls(), "after drain in cycle {}", cycle);
            // Retire residents through ticketed churn: route a few balls
            // (the only ones that carry handles — pushed balls stay
            // anonymous) and release a ticket sampled from a random bin.
            for _ in 0..(pushes / 4) {
                stream.route(churn_rng.next_u64()).unwrap();
                routed += 1;
                let bin = churn_rng.gen_index(n);
                if let Some(ticket) = stream.ticket_in(bin) {
                    stream.release(ticket).unwrap();
                    departed += 1;
                }
            }
            prop_assert!(stream.conserves_balls(), "after churn in cycle {}", cycle);
        }
        stream.flush();
        prop_assert!(stream.conserves_balls());
        prop_assert_eq!(stream.pending(), 0);
        let placed: u64 = cycles as u64 * pushes + routed;
        let snapshot = stream.snapshot();
        prop_assert_eq!(snapshot.arrived, placed);
        prop_assert_eq!(snapshot.placed, placed);
        prop_assert_eq!(snapshot.departed, departed);
        prop_assert_eq!(stream.resident_tickets() as u64, routed - departed);
        prop_assert_eq!(
            snapshot.loads.iter().map(|&l| l as u64).sum::<u64>(),
            placed - snapshot.departed
        );
    }

    /// Each hot key only ever reaches its fixed candidate set.
    #[test]
    fn keyed_placements_are_consistent(
        n_exp in 4u32..9,
        key in 0u64..1_000_000,
        seed in 0u64..1_000,
    ) {
        let n = 1usize << n_exp;
        let mut stream = StreamAllocator::new(
            StreamConfig::new(n).policy(Policy::TwoChoice).batch_size(32).seed(seed),
        );
        for _ in 0..256 {
            stream.push(key);
        }
        stream.flush();
        let touched = stream.loads().iter().filter(|&&l| l > 0).count();
        prop_assert!(touched <= 2, "hot key touched {} bins", touched);
    }
}

/// The stream's one-choice policy on a static workload matches the count
/// engine's single-round multinomial process (the same `(m, n)` one-shot
/// instance) in gap, up to seed noise.
#[test]
fn one_choice_gap_matches_count_engine_on_static_workload() {
    let n = 256usize;
    let m = 1u64 << 16;
    let seeds: u64 = 5;
    let mut stream_mean = 0.0;
    let mut engine_mean = 0.0;
    for seed in 0..seeds {
        let mut stream = StreamAllocator::new(
            StreamConfig::new(n)
                .policy(Policy::OneChoice)
                .batch_size(n)
                .seed(seed),
        );
        push_keys(&mut stream, m, seed);
        stream.flush();
        stream_mean += gap_of(&stream.loads()) / seeds as f64;

        // One round of an uncapped fixed-threshold protocol = single choice.
        let mut protocol = FixedThresholdProtocol::new(u32::MAX, 1);
        protocol.max_rounds = 1;
        let result = run_count_engine(&protocol, m, n, seed);
        assert_eq!(result.remaining, 0);
        engine_mean += gap_of(&result.loads) / seeds as f64;
    }
    let ratio = stream_mean / engine_mean;
    assert!(
        (0.6..=1.6).contains(&ratio),
        "stream one-choice gap {stream_mean:.1} vs count engine {engine_mean:.1} (ratio {ratio:.2})"
    );
}

/// The stream's two-choice policy with batch size `b` matches the one-shot
/// batched-two-choice baseline with the same batch size, up to seed noise.
#[test]
fn two_choice_gap_matches_batched_baseline_on_static_workload() {
    let n = 256usize;
    let m = 1u64 << 16;
    let batch = n;
    let seeds: u64 = 5;
    let mut stream_mean = 0.0;
    let mut baseline_mean = 0.0;
    for seed in 0..seeds {
        let mut stream = StreamAllocator::new(
            StreamConfig::new(n)
                .policy(Policy::TwoChoice)
                .batch_size(batch)
                .seed(seed),
        );
        push_keys(&mut stream, m, seed);
        stream.flush();
        stream_mean += gap_of(&stream.loads()) / seeds as f64;

        let out = BatchedTwoChoiceAllocator::with_batch_size(batch).allocate(m, n, seed);
        assert!(out.is_complete(m));
        baseline_mean += gap_of(&out.loads) / seeds as f64;
    }
    let diff = (stream_mean - baseline_mean).abs();
    assert!(
        diff <= 3.0,
        "stream two-choice gap {stream_mean:.2} vs batched baseline {baseline_mean:.2}"
    );
}
