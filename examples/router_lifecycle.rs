//! The unified Router API, end to end: **route → observe → runtime reweight →
//! release**.
//!
//! A heterogeneous fleet (4:2:1 capacity tiers) serves keyed traffic through
//! the streaming engine behind the `Router` interface. Mid-run, the fleet is
//! re-provisioned **while serving**: `set_weights` flips the capacity mix to
//! 1:1:4 and the engine applies it at the next batch boundary — a
//! `ReweightLog` observer records exactly which one. Connections then start
//! closing: tickets issued at route time are released back, with validation
//! (a double release is rejected, not silently absorbed).
//!
//! The same `drive` function also runs the one-shot `A_heavy` allocator
//! through `OneShotRouter`, and a clone of the shared serving handle
//! (`ConcurrentRouter`, whose own methods take `&self`) — one interface,
//! all three routers.
//!
//! Run with: `cargo run --release --example router_lifecycle`

use std::sync::{Arc, Mutex};

use parallel_balanced_allocations::model::SplitMix64;
use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::stream::{Policy, ReweightLog};

/// Routes `count` keys through any engine behind the Router interface and
/// returns the issued tickets.
fn drive(router: &mut dyn Router, keys: &mut SplitMix64, count: u64) -> Vec<Ticket> {
    (0..count)
        .map(|_| {
            router
                .route(keys.next_u64())
                .expect("within capacity")
                .ticket
        })
        .collect()
}

fn main() {
    let n = 64usize;
    let batch = n;
    // Balls per phase (a whole number of batches).
    let half = 64 * n as u64;
    // Phase 1 fleet: a few big boxes — 8×4, 16×2, 40×1 (W = 104).
    let tiers_421 = BinWeights::power_of_two_tiers(&[(8, 2), (16, 1), (40, 0)]);
    // Re-provisioned fleet, 1:1:4: the former big boxes shrink to weight 1
    // and the former small tier is upgraded to weight 4 (W = 184).
    let tiers_114 = BinWeights::power_of_two_tiers(&[(8, 0), (16, 0), (40, 2)]);

    println!("== router_lifecycle ==");
    println!(
        "fleet = {n} bins, batch = {batch}; phase 1 weights {} (W = 104), \
         phase 2 weights {} (W = 184)",
        tiers_421.name(),
        tiers_114.name()
    );

    // --- route (phase 1: 4:2:1 fleet) ------------------------------------
    let mut stream = StreamAllocator::new(
        StreamConfig::new(n)
            .policy(Policy::WeightedTwoChoice)
            .batch_size(batch)
            .seed(7)
            .weights(tiers_421),
    );
    let log = Arc::new(Mutex::new(ReweightLog::new()));
    stream.add_observer(log.clone());

    let mut keys = SplitMix64::new(2026);
    let mut tickets = drive(&mut stream, &mut keys, half);
    println!(
        "\nphase 1: routed {} requests in {} batches, weighted gap = {:.2}, \
         max normalized load = {:.1}",
        Router::stats(&stream).routed,
        Router::stats(&stream).batches,
        Router::stats(&stream).gap,
        stream.max_normalized_load()
    );

    // --- runtime reweight (applied at the next batch boundary) -----------
    stream.set_weights(tiers_114);
    println!(
        "\nstaged reweight 4:2:1 → 1:1:4 (observers so far: {} records — \
         nothing fires until the boundary)",
        log.lock().unwrap().records().len()
    );
    tickets.extend(drive(&mut stream, &mut keys, half));
    let records = log.lock().unwrap().records().to_vec();
    assert_eq!(records.len(), 1, "exactly one reweighting must fire");
    println!(
        "phase 2: reweight took effect at batch {} with {} residents; \
         weighted gap now {:.2}, max normalized load = {:.1}",
        records[0].batch_index,
        records[0].resident,
        Router::stats(&stream).gap,
        stream.max_normalized_load()
    );

    // --- release (connections close; tickets validate) -------------------
    let to_release = tickets.len() / 2;
    for ticket in tickets.drain(..to_release) {
        stream.release(ticket).expect("live ticket");
    }
    let double = tickets[0];
    stream.release(double).expect("live ticket");
    let rejected = stream.release(double);
    assert!(matches!(rejected, Err(RouteError::UnknownTicket { .. })));
    let stats = Router::stats(&stream);
    println!(
        "\nreleased {} tickets; a repeated release was rejected ({}); \
         resident = {}, conservation = {}",
        stats.released,
        rejected.unwrap_err(),
        stats.resident,
        stream.conserves_balls()
    );
    assert!(stream.conserves_balls(), "conservation violated");
    assert_eq!(stats.released, to_release as u64 + 1);

    // --- the same interface over a one-shot engine -----------------------
    let m = 32 * n as u64;
    let mut one_shot = OneShotRouter::new(HeavyAllocator::default(), m, n, 7);
    let reference = HeavyAllocator::default().allocate(m, n, 7);
    let one_shot_tickets = drive(&mut one_shot, &mut keys, m);
    assert_eq!(
        Router::loads(&one_shot),
        reference.loads,
        "adapter must reproduce allocate() exactly"
    );
    one_shot.release(one_shot_tickets[0]).expect("live ticket");
    println!(
        "\none-shot A_heavy behind the same interface: routed {} balls, \
         loads identical to allocate(), gap = {:.2}",
        m,
        one_shot.stats().gap
    );

    // --- the same interface over the shared serving handle ----------------
    let handle = ConcurrentRouter::new(StreamConfig::new(n).batch_size(batch).seed(7));
    let mut caller = handle.clone();
    let served = drive(&mut caller, &mut keys, half);
    caller.release(served[0]).expect("live ticket");
    let stats = handle.stats();
    assert_eq!((stats.routed, stats.released), (half, 1));
    assert!(handle.conserves_balls(), "conservation violated");
    println!(
        "\nshared handle behind the same interface: one clone routed {} balls \
         in {} batches; the original handle sees resident = {}, gap = {:.2}",
        stats.routed, stats.batches, stats.resident, stats.gap
    );

    println!("\nOK: route → observe → reweight → release, one Router API over all three routers.");
}
