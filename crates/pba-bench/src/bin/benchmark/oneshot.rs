//! `oneshot-heavy`: the paper's `A_heavy` itself — repeated calls of
//! `HeavyAllocator::default().allocate(2^22, 2^10, seed + i)`. Only
//! `pba-algorithms` and `pba-model`'s round engine run; the serving layers do
//! nothing, so a serving optimisation must leave this workload flat and a
//! refactor of shared `pba-model` code cannot silently slow the reproduction
//! of Theorem 1. `balance_gap` here is the paper's headline quantity: the
//! mean excess of the maximum load over `m/n`.

use std::time::Instant;

use pba_algorithms::{
    HeavyAllocator, HeavyConfig, LightAllocator, LightConfig, ScheduledThresholdProtocol,
    VirtualBinMap,
};
use pba_model::engine::{run_agent_engine, run_count_engine, EngineConfig};
use pba_model::outcome::{AllocationOutcome, Allocator};
use pba_model::rng::mix64;

use crate::affinity::{self, Confinement};
use crate::alloc_count;
use crate::metrics::Metrics;
use crate::pass::{loads_fnv, set_up, Outcome, PassTimes, Scale, TimedPass, Traced};
use crate::trace::{Tracer, NO_SPAN};

/// Balls per call (`m`), the operations of one unit.
const BALLS: u64 = 1 << 22;
/// Bins (`n`): `m/n = 4096`, deep in the heavily loaded case.
const BINS: usize = 1 << 10;
/// Timed calls per nominal second (128 at the default 16 s).
const CALLS_PER_SECOND: u64 = 8;
/// Theorem 1 promises `m/n + O(1)`; the repository's tests pin the constant.
const MAX_EXCESS: i64 = 8;

/// One call with its output checks; returns the excess over `⌈m/n⌉`.
fn check_call(outcome: &mut Outcome, allocation: &AllocationOutcome, call: u64) -> i64 {
    let excess = allocation.excess(BALLS);
    outcome.check(allocation.is_complete(BALLS), || {
        format!("call {call}: allocation incomplete")
    });
    outcome.check(allocation.conserves_balls(BALLS), || {
        format!("call {call}: balls not conserved")
    });
    outcome.check(allocation.loads.len() == BINS, || {
        format!("call {call}: a ball left [0, n)")
    });
    outcome.check(excess <= MAX_EXCESS, || {
        format!("call {call}: excess {excess} > {MAX_EXCESS}")
    });
    excess
}

/// `calls` timed calls; returns the times, the mean excess and the loads of
/// the last call.
fn timed_pass(
    allocator: &HeavyAllocator,
    seed: u64,
    calls: u64,
    outcome: &mut Outcome,
) -> (PassTimes, f64, Vec<u32>) {
    let mut pass = TimedPass::begin(calls, BALLS);
    let mut excess_sum = 0i64;
    let mut last_loads = Vec::new();
    for call in 0..calls {
        let started = Instant::now();
        let allocation = allocator.allocate(BALLS, BINS, seed.wrapping_add(call));
        pass.unit_done(started, Instant::now());
        excess_sum += check_call(outcome, &allocation, call);
        last_loads = allocation.loads;
    }
    (pass.finish(), excess_sum as f64 / calls as f64, last_loads)
}

/// The allocator built and warmed: what `setup_s` pays for.
fn ready(seed: u64, calls: u64) -> HeavyAllocator {
    let allocator = HeavyAllocator::default();
    for call in 0..(calls / 32).max(1) {
        std::hint::black_box(allocator.allocate(BALLS, BINS, seed.wrapping_add(call)));
    }
    allocator
}

/// The untraced run.
pub fn run(seed: u64, scale: Scale) -> Result<Outcome, String> {
    let calls = scale.count(CALLS_PER_SECOND, 1);
    let (allocator, setup_s) = set_up(|| Ok::<_, String>(ready(seed, calls)))?;
    let mut outcome = Outcome::default();
    let (times, excess_mean, _) = timed_pass(&allocator, seed, calls, &mut outcome);
    outcome.set_end_to_end(&setup_s, &times, excess_mean);
    outcome.set_ok_ratio();
    Ok(outcome)
}

/// The traced run: an untraced reference pass; the same calls through
/// `allocate_traced` under a span each; the two phases driven separately
/// through their public entry points on a quarter of the seeds; the same
/// seeds with and without `HeavyConfig::parallel` on all CPUs; and the count
/// engine on phase 1.
pub fn trace(seed: u64, scale: Scale, cpus: Option<&Confinement>, tracer: &mut Tracer) -> Traced {
    let calls = scale.count(CALLS_PER_SECOND, 1);
    let allocator = ready(seed, calls);
    let mut checks = Outcome::default();
    let (reference, _, _) = timed_pass(&allocator, seed, calls, &mut checks);

    let mut pass = TimedPass::begin(calls, BALLS);
    let mut call_ns = Vec::with_capacity(calls as usize);
    let (mut rounds, mut phase1_rounds, mut phase2_rounds) = (0usize, 0usize, 0usize);
    let (mut requests, mut accepts, mut leftover) = (0u64, 0u64, 0u64);
    let (mut messages_per_ball, mut excess_sum, mut excess_max) = (0.0f64, 0i64, i64::MIN);
    let mut last_loads = Vec::new();
    alloc_count::set_counting(true);
    let allocations_before = alloc_count::allocations();
    for call in 0..calls {
        let started = Instant::now();
        let (allocation, phases) = allocator.allocate_traced(BALLS, BINS, seed.wrapping_add(call));
        let ended = Instant::now();
        pass.unit_done(started, ended);
        let (a, b) = (tracer.ns_of(started), tracer.ns_of(ended));
        tracer.record("heavy.allocate", a, b, NO_SPAN, call as u32);
        call_ns.push(b - a);
        rounds += allocation.rounds;
        phase1_rounds += phases.phase1_rounds;
        phase2_rounds += phases.phase2_rounds;
        requests += allocation.messages.requests;
        accepts += allocation.messages.accepts;
        leftover += phases.leftover_after_phase1;
        messages_per_ball += allocation.messages.per_ball(BALLS);
        let excess = check_call(&mut checks, &allocation, call);
        excess_sum += excess;
        excess_max = excess_max.max(excess);
        last_loads = allocation.loads;
    }
    let allocations = alloc_count::allocations() - allocations_before;
    alloc_count::set_counting(false);
    let times = pass.finish();

    // The two phases through their own public entry points, exactly as
    // `allocate_traced` chains them.
    let replays = (calls / 4).max(1);
    let first_phase_span = tracer.spans().len();
    let (mut phase1_messages, mut phase2_balls) = (0u64, 0u64);
    for call in 0..replays {
        let call_seed = seed.wrapping_add(call);
        let protocol = ScheduledThresholdProtocol::new(allocator.schedule_for(BALLS, BINS));
        let unit = tracer.open("heavy.phases", NO_SPAN, call as u32);
        let span = tracer.open("heavy.phase1", unit, call as u32);
        let phase1 = run_agent_engine(&protocol, BALLS, BINS, call_seed, &EngineConfig::default());
        tracer.close(span);
        let map = VirtualBinMap::sized_for(BINS, phase1.remaining_balls.len() as u64);
        let span = tracer.open("heavy.phase2", unit, call as u32);
        let phase2 = LightAllocator::new(LightConfig::default()).allocate_balls(
            &phase1.remaining_balls,
            BALLS,
            map.n_virtual(),
            mix64(call_seed ^ 0x5_1bba_11e5_u64),
            false,
        );
        tracer.close(span);
        tracer.close(unit);
        checks.check(phase2.remaining == 0, || {
            format!("phase replay {call}: {} stragglers", phase2.remaining)
        });
        phase1_messages += phase1.totals.requests + phase1.totals.responses;
        phase2_balls += phase1.remaining;
    }
    let phases = tracer.totals_from(first_phase_span);
    let (phase1_ns, phase2_ns) = (
        phases["heavy.phase1"].total_ns,
        phases["heavy.phase2"].total_ns,
    );

    // With every CPU allowed: the reference pass again, and the first seeds
    // with and without `HeavyConfig::parallel`.
    let parallel = HeavyAllocator::new(HeavyConfig {
        parallel: true,
        ..HeavyConfig::default()
    });
    let (all_cpus, parallel_speedup) = affinity::on_all_cpus(cpus, || {
        let (all_cpus, _, _) = timed_pass(&allocator, seed, calls, &mut checks);
        let mut replay_ns = |allocator: &HeavyAllocator| {
            let started = Instant::now();
            for call in 0..replays {
                let allocation = allocator.allocate(BALLS, BINS, seed.wrapping_add(call));
                check_call(&mut checks, &allocation, call);
            }
            started.elapsed().as_nanos() as f64
        };
        let sequential_ns = replay_ns(&allocator);
        (all_cpus, sequential_ns / replay_ns(&parallel))
    });

    let protocol = ScheduledThresholdProtocol::new(allocator.schedule_for(BALLS, BINS));
    let started = Instant::now();
    let counted = run_count_engine(&protocol, BALLS, BINS, seed);
    let count_engine_ns = started.elapsed().as_nanos() as f64;
    std::hint::black_box(counted);

    let per_call = |total: f64| total / calls as f64;
    let mut metrics = Metrics::default();
    metrics.set(
        "heavy.ns_per_ball",
        call_ns.iter().sum::<u64>() as f64 / (calls * BALLS) as f64,
    );
    metrics.set(
        "heavy.phase1_ns_per_ball",
        phase1_ns as f64 / (replays * BALLS) as f64,
    );
    metrics.set(
        "heavy.phase2_ns_per_leftover",
        phase2_ns as f64 / phase2_balls.max(1) as f64,
    );
    metrics.set("heavy.rounds", per_call(rounds as f64));
    metrics.set("heavy.phase1_rounds", per_call(phase1_rounds as f64));
    metrics.set("heavy.phase2_rounds", per_call(phase2_rounds as f64));
    metrics.set("heavy.messages_per_ball", per_call(messages_per_ball));
    metrics.set(
        "heavy.accept_ratio",
        accepts as f64 / requests.max(1) as f64,
    );
    metrics.set(
        "heavy.leftover_per_bin",
        per_call(leftover as f64) / BINS as f64,
    );
    metrics.set("heavy.excess_mean", per_call(excess_sum as f64));
    metrics.set("heavy.excess_max", excess_max as f64);
    metrics.set("heavy.parallel_speedup", parallel_speedup);
    metrics.set("heavy.allocs_per_run", per_call(allocations as f64));
    metrics.set(
        "agent_engine.ns_per_message",
        phase1_ns as f64 / phase1_messages.max(1) as f64,
    );
    metrics.set("count_engine.ns_per_ball", count_engine_ns / BALLS as f64);
    Traced {
        metrics,
        attempted: times.ops,
        overhead_ratio: times.ns_per_op() / reference.ns_per_op(),
        all_cpus_ns_per_op: all_cpus.ns_per_op(),
        reference,
        loads_fnv: loads_fnv(&last_loads),
        failures: checks.failures,
    }
}
