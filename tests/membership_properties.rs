//! Property tests for **elastic cluster membership** (the `pba-membership`
//! lifecycle wired through both streaming engines):
//!
//! 1. **Strict no-op** — staging an empty membership plan, or the weights
//!    already in force, perturbs nothing: bit-identical placements (routed
//!    one by one and in randomly cut groups), loads, gap trajectories and
//!    batch counts versus an untouched twin, for
//!    every policy and weight configuration.
//! 2. **Post-drain suffix equivalence** — after a `Drain` takes effect, the
//!    engine's subsequent drains are bit-identical (through the
//!    order-preserving bijection of the sorted active set) to a *fresh*
//!    engine built over only the surviving bins via `with_resident_loads` —
//!    the membership sibling of the reweighting suffix equivalence in
//!    `tests/router_properties.rs`.
//! 3. **Lifecycle accounting** — a drain → migrate → remove → re-add cycle
//!    conserves balls, loses no tickets, and every accepted/rejected event
//!    and migration shows up in the `membership.*` counters, on the sole
//!    owner and, with caller threads racing the scale events, on the shared
//!    handle.
//!
//! What one caller gets through scale events from either shell is pinned
//! against the executable model of the batched process in
//! `tests/model_properties.rs`, empty plans and re-staged weights included.

#[path = "support/policies.rs"]
mod policies;

use std::sync::Arc;

use parallel_balanced_allocations::membership::BinState;
use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::model::router::Placement;
use parallel_balanced_allocations::obs::MetricsRegistry;
use parallel_balanced_allocations::stream::{
    BinWeights, ConcurrentRouter, MembershipPlan, Policy, StreamAllocator, StreamConfig,
};
use policies::POLICIES;

fn keys(count: u64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::for_stream(seed, 0x3117, 0);
    (0..count).map(|_| rng.next_u64()).collect()
}

fn weight_variants() -> Vec<(&'static str, BinWeights)> {
    vec![
        ("uniform", BinWeights::Uniform),
        (
            "tiers",
            BinWeights::power_of_two_tiers(&[(4, 2), (8, 1), (20, 0)]),
        ),
    ]
}

/// The stagings that must change nothing, each staged mid-batch: an empty
/// plan, and the weights already in force (`BinWeights::Uniform` on the
/// uniform engines) — which publishes a topology equal to the one it
/// replaces.
#[derive(Debug, Clone, Copy)]
enum NoOp {
    EmptyPlan,
    SameWeights,
}

/// Cuts `keys` into groups of random length 1..=40 — with batches of 16,
/// groups that end inside, on and beyond a batch boundary.
fn random_groups(keys: &[u64], seed: u64) -> Vec<&[u64]> {
    let mut rng = SplitMix64::new(seed);
    let mut groups = Vec::new();
    let mut rest = keys;
    while !rest.is_empty() {
        let (group, tail) = rest.split_at((1 + rng.next_u64() as usize % 40).min(rest.len()));
        groups.push(group);
        rest = tail;
    }
    groups
}

/// What two engines' placements can be compared by (tickets also carry a
/// per-engine realm).
fn ids_and_bins(placements: &[Placement]) -> Vec<(u64, usize)> {
    placements.iter().map(|p| (p.ticket.id(), p.bin)).collect()
}

/// One strict-no-op case: route, stage `noop` mid-batch, route one by one,
/// in random groups and through `push` + `flush` — against an untouched twin
/// that sees the same calls. Nothing may differ, down to the RNG stream.
fn assert_staging_is_a_strict_noop(policy: Policy, weights: &BinWeights, noop: NoOp) {
    let cfg = StreamConfig::new(32)
        .policy(policy)
        .batch_size(16)
        .seed(11)
        .weights(weights.clone());
    let mut staged = StreamAllocator::new(cfg.clone());
    staged.install_metrics(Arc::new(MetricsRegistry::new()));
    let mut untouched = StreamAllocator::new(cfg);
    untouched.install_metrics(Arc::new(MetricsRegistry::new()));
    for key in keys(100, 1) {
        assert_eq!(
            staged.route(key).unwrap().bin,
            untouched.route(key).unwrap().bin
        );
    }
    match noop {
        NoOp::EmptyPlan => staged.stage_membership(MembershipPlan::new()),
        NoOp::SameWeights => staged.set_weights(weights.clone()),
    }
    for key in keys(200, 2) {
        assert_eq!(
            staged.route(key).unwrap().bin,
            untouched.route(key).unwrap().bin
        );
    }
    for group in random_groups(&keys(600, 3), 4) {
        assert_eq!(
            ids_and_bins(&staged.route_many(group).unwrap()),
            ids_and_bins(&untouched.route_many(group).unwrap())
        );
    }
    for key in keys(150, 5) {
        staged.push(key);
        untouched.push(key);
    }
    assert_eq!(staged.flush(), untouched.flush());
    assert_eq!(staged.loads(), untouched.loads());
    assert_eq!(staged.gap_trajectory(), untouched.gap_trajectory());
    assert_eq!(staged.snapshot().batches, untouched.snapshot().batches);
    assert!(staged.conserves_balls());
}

/// Every policy × weight configuration × no-op staging; the last case named
/// in a failing test's captured output is the one that failed.
#[test]
fn empty_plan_is_a_strict_noop_on_the_stream_allocator() {
    for policy in POLICIES {
        for (label, weights) in weight_variants() {
            for noop in [NoOp::EmptyPlan, NoOp::SameWeights] {
                eprintln!("case: policy {} weights {label} {noop:?}", policy.name());
                assert_staging_is_a_strict_noop(policy, &weights, noop);
            }
        }
    }
}

/// After a drain takes effect, every subsequent batch must be bit-identical
/// to a fresh engine built over only the surviving bins (seeded with their
/// loads via `with_resident_loads`), mapped through the sorted active set.
#[test]
fn post_drain_suffix_is_bit_identical_to_a_compacted_fresh_engine() {
    let drained_bin = 5u32;
    for policy in POLICIES {
        for (label, weights) in weight_variants() {
            let bins = 32usize;
            let cfg = StreamConfig::new(bins)
                .policy(policy)
                .batch_size(16)
                .seed(17)
                .weights(weights.clone());
            let mut elastic = StreamAllocator::new(cfg.clone());
            // Grow organically to a boundary (exact multiple of the batch).
            for key in keys(320, 6) {
                elastic.push(key);
            }
            assert_eq!(elastic.drain_ready(), 20);
            elastic.stage_membership(MembershipPlan::new().drain(drained_bin));
            // Force the staged drain to apply (one full batch).
            for key in keys(16, 7) {
                elastic.push(key);
            }
            assert_eq!(elastic.drain_ready(), 1);
            let membership = elastic.membership();
            assert_eq!(membership.state(drained_bin as usize), BinState::Draining);
            let active: Vec<u32> = membership.active().to_vec();
            assert_eq!(active.len(), bins - 1);

            // The compacted twin: surviving bins only, surviving weights,
            // seeded with the surviving loads (order-preserving bijection
            // through the sorted active set).
            let elastic_loads = elastic.loads();
            let surviving_loads: Vec<u32> = active
                .iter()
                .map(|&bin| elastic_loads[bin as usize])
                .collect();
            let resolved = cfg.weights.resolve(bins);
            let surviving_weights = match &resolved {
                None => BinWeights::Uniform,
                Some(resolved) => BinWeights::explicit(
                    active
                        .iter()
                        .map(|&bin| resolved.weight(bin as usize))
                        .collect(),
                ),
            };
            let compact_cfg = StreamConfig::new(bins - 1)
                .policy(policy)
                .batch_size(16)
                .seed(17)
                .weights(surviving_weights);
            let mut compact = StreamAllocator::with_resident_loads(compact_cfg, &surviving_loads);

            // Identical suffix: same keys, gathered loads must match the
            // compacted engine's loads batch for batch.
            let before = elastic.gap_trajectory().len();
            for key in keys(480, 8) {
                elastic.push(key);
                compact.push(key);
            }
            assert_eq!(elastic.drain_ready(), compact.drain_ready());
            let elastic_loads = elastic.loads();
            let gathered: Vec<u32> = active
                .iter()
                .map(|&bin| elastic_loads[bin as usize])
                .collect();
            assert_eq!(
                gathered,
                compact.loads(),
                "policy {} weights {label}",
                policy.name()
            );
            assert_eq!(
                elastic.gap_trajectory()[before..],
                compact.gap_trajectory()[..],
                "policy {} weights {label}",
                policy.name()
            );
            assert!(elastic.conserves_balls());
        }
    }
}

/// The full lifecycle on the single-threaded engine, with every transition
/// accounted: drain → forced migration → remove at zero occupancy → re-add,
/// plus rejected events (remove-while-occupied, drain-of-drained).
#[test]
fn drain_migrate_remove_add_cycle_conserves_and_accounts() {
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = StreamConfig::new(8).batch_size(8).seed(29);
    let mut stream = StreamAllocator::new(cfg);
    stream.install_metrics(Arc::clone(&registry));
    let mut tickets = Vec::new();
    for key in keys(64, 11) {
        tickets.push(stream.route(key).unwrap());
    }
    let victim = 2u32;
    let victim_tickets = stream.tickets_in(victim as usize);
    assert!(victim_tickets > 0, "the victim bin should hold residents");

    // Drain, plus an illegal remove (still occupied) in the same plan.
    stream.stage_membership(MembershipPlan::new().drain(victim).remove(victim));
    for key in keys(8, 12) {
        stream.route(key).unwrap();
    }
    let membership = stream.membership();
    assert_eq!(membership.state(victim as usize), BinState::Draining);

    // Forced migration routes every ticketed resident through the live
    // policy; loads move, totals do not.
    let before = stream.resident();
    let migrated = stream.migrate_drained();
    assert_eq!(migrated, victim_tickets as u64);
    assert_eq!(stream.resident(), before, "migration moves, never drops");
    assert_eq!(stream.load(victim as usize), 0);
    assert_eq!(stream.tickets_in(victim as usize), 0);
    assert!(stream.conserves_balls());

    // Now the remove is legal; a second drain of the same bin is not.
    stream.stage_membership(MembershipPlan::new().remove(victim).drain(victim));
    for key in keys(8, 13) {
        stream.route(key).unwrap();
    }
    assert_eq!(
        stream.membership().state(victim as usize),
        BinState::Retired
    );

    // Re-commission: the lowest retired slot (the one just removed).
    stream.stage_membership(MembershipPlan::new().add(1.0));
    for key in keys(8, 14) {
        stream.route(key).unwrap();
    }
    assert_eq!(stream.membership().state(victim as usize), BinState::Active);

    // Every ticket still redeems — including migrated ones.
    for ticket in tickets {
        stream.release(ticket.ticket).unwrap();
    }
    assert!(stream.conserves_balls());

    let snap = registry.snapshot();
    assert_eq!(snap.counter("membership.adds"), 1);
    assert_eq!(snap.counter("membership.drains"), 1);
    assert_eq!(snap.counter("membership.removes"), 1);
    assert_eq!(snap.counter("membership.migrations"), victim_tickets as u64);
    assert_eq!(snap.counter("membership.rejected_removes"), 1);
    assert_eq!(snap.counter("membership.rejected_drains"), 1);
}

/// The same lifecycle on the shared-handle router while caller threads keep
/// routing: conservation and ticket consistency hold for every interleaving,
/// and undone routes (the drain race) are counted, never silent.
#[test]
fn concurrent_scale_cycle_under_contention_conserves() {
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = StreamConfig::new(16)
        .batch_size(64)
        .seed(31)
        .reserve_bins(2);
    let router = ConcurrentRouter::with_metrics(cfg, Arc::clone(&registry));
    let mut workers = Vec::new();
    for t in 0..4u64 {
        let router = router.clone();
        workers.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(t + 41);
            let mut kept = Vec::new();
            for i in 0..3_000u64 {
                let placement = router.route(rng.next_u64()).unwrap();
                if i % 3 == 0 {
                    kept.push(placement.ticket);
                } else {
                    router.release(placement.ticket).unwrap();
                }
            }
            kept
        }));
    }
    // Scale events race the traffic: drain two bins, migrate, re-add.
    router.stage_membership(MembershipPlan::new().drain(0).drain(7));
    while router.membership().state(0) != BinState::Draining {
        std::thread::yield_now();
    }
    router.migrate_drained();
    router.stage_membership(MembershipPlan::new().add(1.0));
    let kept: Vec<_> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("worker"))
        .collect();
    router.flush();
    // Draining bins took no *new* placements after the drain applied and a
    // migration sweep at quiescence leaves them empty.
    router.migrate_drained();
    assert_eq!(router.tickets_in(7), 0);
    assert!(router.conserves_balls());
    assert_eq!(router.resident(), kept.len() as u64);
    assert_eq!(router.resident_tickets(), kept.len());
    for ticket in kept {
        router.release(ticket).unwrap();
    }
    assert_eq!(router.resident(), 0);
    assert!(router.conserves_balls());
    let snap = registry.snapshot();
    assert_eq!(snap.counter("membership.drains"), 2);
    assert_eq!(snap.counter("membership.adds"), 1);
    assert_eq!(snap.counter("route.routed"), 12_000);
    assert_eq!(snap.counter("route.released"), 12_000);
}
