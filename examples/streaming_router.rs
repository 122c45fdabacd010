//! End-to-end streaming router demo.
//!
//! Zipfian keyed traffic arrives over time and is routed onto `n` backend
//! bins in batches of 1024 by the sharded streaming engine (≥4 shards). Every
//! ball decides from the load snapshot of the previous batch boundary — the
//! batched/stale-information model of Los & Sauerwald (2022). The demo prints
//! the online gap trajectory of the two-choice policy and then compares its
//! final gap against single-choice on the *same* stream.
//!
//! Run with: `cargo run --release --example streaming_router`

use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::stream::{run_scenario, ScenarioConfig};

fn main() {
    let bins = 256usize;
    let shards = 4usize;
    let batch = 1024usize;
    let ticks = 512u64;
    let rate = 512usize;
    let seed = 2024u64;

    let arrivals = ArrivalProcess::Zipf {
        keys: 1 << 15,
        exponent: 0.9,
        rate,
    };
    println!("== streaming_router ==");
    println!(
        "bins = {bins}, shards = {shards}, batch = {batch}, ticks = {ticks}, \
         rate = {rate}/tick, arrivals = Zipf(s=0.9, keys=2^15)"
    );

    let scenario = ScenarioConfig::growth(ticks, arrivals);
    let base = StreamConfig::new(bins)
        .shards(shards)
        .batch_size(batch)
        .seed(seed);

    let two = run_scenario(&scenario, base.clone().policy(StreamPolicy::TwoChoice));
    let one = run_scenario(&scenario, base.policy(StreamPolicy::OneChoice));

    println!("\nonline gap trajectory (two-choice), every 16th batch:");
    println!("{:>8} {:>10}", "batch", "gap");
    let trajectory = two.router.gap_trajectory();
    for (i, gap) in trajectory.iter().enumerate() {
        if i % 16 == 0 || i + 1 == trajectory.len() {
            println!("{:>8} {:>10.2}", i + 1, gap);
        }
    }

    let snap = two.router.snapshot();
    println!("\ntwo-choice final state:");
    println!("  arrived   = {}", snap.arrived);
    println!("  placed    = {}", snap.placed);
    println!("  batches   = {}", snap.batches);
    println!(
        "  load p50/p90/p99/max = {:.0}/{:.0}/{:.0}/{:.0}",
        snap.load_quantiles[0],
        snap.load_quantiles[1],
        snap.load_quantiles[2],
        snap.load_quantiles[3]
    );

    println!(
        "\nfinal gap:  two-choice = {:.2}   single-choice = {:.2}",
        two.final_gap, one.final_gap
    );
    println!(
        "mean gap:   two-choice = {:.2}   single-choice = {:.2}",
        two.mean_gap, one.mean_gap
    );

    assert!(two.router.conserves_balls(), "conservation violated");
    assert!(
        two.final_gap < one.final_gap,
        "two-choice ({}) must beat single-choice ({}) on this stream",
        two.final_gap,
        one.final_gap
    );
    println!("\nOK: two-choice beats single-choice under batched stale loads.");
}
