use super::*;
use crate::outcome::{AllocationOutcome, Allocator};

/// Deterministic fake allocator: bin i gets i balls (plus remainder dumping
/// into the last bin) — enough structure to exercise the adapter.
struct Staircase;
impl Allocator for Staircase {
    fn name(&self) -> String {
        "staircase".into()
    }
    fn allocate(&self, m: u64, n: usize, _seed: u64) -> AllocationOutcome {
        let mut loads = vec![0u32; n];
        for ball in 0..m {
            loads[(ball % n as u64) as usize] += 1;
        }
        AllocationOutcome {
            loads,
            rounds: 1,
            ..Default::default()
        }
    }
}

#[test]
fn ledger_rejects_double_release_and_forgeries() {
    let ledger = SharedTicketLedger::new(2, 1);
    let t = ledger.issue(7, 1);
    assert!(ledger.redeem(t).is_ok());
    assert_eq!(
        ledger.redeem(t),
        Err(RouteError::UnknownTicket { ticket: t })
    );
    // A hand-made ticket carries the reserved realm 0: rejected even
    // when its (id, bin) — and its handle — name a resident ball.
    let resident = ledger.issue(8, 1);
    let forged = Ticket {
        handle: resident.handle,
        ..Ticket::new(8, 1)
    };
    assert!(matches!(
        ledger.redeem(forged),
        Err(RouteError::UnknownTicket { .. })
    ));
    assert!(ledger.redeem_many(&[forged, forged]).is_none());
    assert_eq!(ledger.len(), 1);
}

#[test]
fn shared_ledger_matches_single_threaded_semantics() {
    let shared = SharedTicketLedger::new(8, 3);
    let t1 = shared.issue(10, 2);
    let t2 = shared.issue(11, 2);
    let t3 = shared.issue(12, 7);
    assert_eq!(shared.len(), 3);
    assert_eq!(shared.count_in(2), 2);
    assert_eq!(shared.resident_in(2), Some(t2));
    assert_eq!(shared.resident_in(3), None);
    // Redeeming the older ticket exercises the swap-remove repointing.
    assert_eq!(shared.redeem(t1), Ok(2));
    assert_eq!(shared.resident_in(2), Some(t2));
    assert_eq!(
        shared.redeem(t1),
        Err(RouteError::UnknownTicket { ticket: t1 }),
        "double release"
    );
    // Forged (realm-0) and out-of-range tickets are rejected.
    assert!(shared.redeem(Ticket::new(11, 2)).is_err());
    assert!(matches!(
        shared.redeem(Ticket {
            id: 99,
            bin: 800,
            ..t1
        }),
        Err(RouteError::UnknownTicket { .. })
    ));
    assert_eq!(shared.redeem(t2), Ok(2));
    assert_eq!(shared.redeem(t3), Ok(7));
    assert!(shared.is_empty());
}

#[test]
fn shared_ledger_issue_many_matches_a_loop_of_issues() {
    // Two ledgers built back to back share the bin/shard geometry; one
    // takes the grouped path, the other the loop. Tickets, per-bin
    // counts and resident_in answers must agree (ids are what matter —
    // realms necessarily differ).
    let grouped = SharedTicketLedger::new(8, 3);
    let looped = SharedTicketLedger::new(8, 3);
    let bins: Vec<u32> = vec![7, 0, 2, 2, 5, 0, 7, 3];
    let tickets = grouped.issue_many(100, &bins);
    let one_by_one: Vec<Ticket> = bins
        .iter()
        .enumerate()
        .map(|(i, &b)| looped.issue(100 + i as u64, b as usize))
        .collect();
    assert_eq!(tickets.len(), bins.len());
    for (t, l) in tickets.iter().zip(&one_by_one) {
        assert_eq!((t.id(), t.bin()), (l.id(), l.bin()));
    }
    assert_eq!(grouped.len(), looped.len());
    for bin in 0..8 {
        assert_eq!(grouped.count_in(bin), looped.count_in(bin));
        assert_eq!(
            grouped.resident_in(bin).map(|t| t.id()),
            looped.resident_in(bin).map(|t| t.id()),
            "occupancy-list order must match the loop"
        );
    }
    // Every grouped ticket redeems exactly once.
    for ticket in tickets {
        assert_eq!(grouped.redeem(ticket), Ok(ticket.bin()));
        assert!(grouped.redeem(ticket).is_err());
    }
    assert!(grouped.is_empty());
    assert!(grouped.issue_many(0, &[]).is_empty());
}

#[test]
fn shared_ledger_rejects_foreign_tickets() {
    let a = SharedTicketLedger::new(4, 2);
    let b = SharedTicketLedger::new(4, 2);
    let from_a = a.issue(0, 1);
    let from_b = b.issue(0, 1);
    assert_ne!(from_a, from_b, "realms differ");
    assert!(b.redeem(from_a).is_err());
    assert_eq!(b.len(), 1);
    assert!(b.redeem(from_b).is_ok());
    assert!(a.redeem(from_a).is_ok());
}

#[test]
fn shared_ledger_survives_concurrent_issue_release_churn() {
    use std::sync::Arc;
    let ledger = Arc::new(SharedTicketLedger::new(16, 4));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let ledger = Arc::clone(&ledger);
        handles.push(std::thread::spawn(move || {
            let mut kept = Vec::new();
            for i in 0..500u64 {
                let id = t * 1_000_000 + i;
                let ticket = ledger.issue(id, ((id * 7) % 16) as usize);
                if i % 3 == 0 {
                    kept.push(ticket);
                } else {
                    ledger.redeem(ticket).expect("own fresh ticket");
                }
            }
            kept
        }));
    }
    let kept: Vec<Ticket> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("churn thread"))
        .collect();
    assert_eq!(ledger.len(), kept.len());
    let per_bin: usize = (0..16).map(|b| ledger.count_in(b)).sum();
    assert_eq!(per_bin, kept.len());
    for ticket in kept {
        ledger.redeem(ticket).expect("kept ticket resident");
        assert!(ledger.redeem(ticket).is_err(), "double release");
    }
    assert!(ledger.is_empty());
}

#[test]
fn ledger_migration_chain_follows_to_the_latest_bin() {
    // 8 bins in 3 shards: A → B crosses shards, B → C stays in one.
    let ledger = SharedTicketLedger::new(8, 3);
    let ticket = ledger.issue(1, 0);
    let at_b = ledger.migrate(ticket, 4).expect("resident at A");
    let at_c = ledger.migrate(at_b, 5).expect("resident at B");
    assert_eq!((at_c.id(), at_c.bin()), (1, 5));
    assert_eq!(
        ledger.wire_id(&at_c),
        ledger.wire_id(&ticket),
        "one wire id"
    );
    assert!(ledger.migrate(at_b, 7).is_none(), "B's ticket is stale");
    assert_eq!(ledger.redeem(ticket), Ok(5));
    assert!(ledger.is_empty());
    assert!(ledger.redeem(at_c).is_err(), "double release");
}

#[test]
fn shared_ledger_migration_keeps_old_tickets_redeemable() {
    // 8 bins in 3 shards: migrate within a shard and across shards.
    let ledger = SharedTicketLedger::new(8, 3);
    let same_shard = ledger.issue(1, 0);
    let cross_shard = ledger.issue(2, 1);
    assert!(ledger.migrate(same_shard, 1).is_some(), "within shard 0");
    assert!(
        ledger.migrate(cross_shard, 7).is_some(),
        "shard 0 → shard 2"
    );
    assert_eq!(ledger.count_in(0), 0);
    assert_eq!(ledger.count_in(1), 1);
    assert_eq!(ledger.count_in(7), 1);
    assert_eq!(ledger.redeem(same_shard), Ok(1));
    assert_eq!(ledger.redeem(cross_shard), Ok(7));
    assert!(ledger.is_empty());
    assert!(ledger.redeem(cross_shard).is_err(), "double release");
    assert!(ledger.migrate(cross_shard, 1).is_none(), "unknown ball");
    let resident = ledger.issue(3, 0);
    assert!(ledger.migrate(resident, 800).is_none(), "out of range");
    assert_eq!(ledger.resident_in(0), Some(resident), "and left in place");
}

#[test]
fn shared_ledger_fresh_ticket_after_migration_clears_the_record() {
    let ledger = SharedTicketLedger::new(4, 2);
    let old = ledger.issue(5, 0);
    assert!(ledger.migrate(old, 3).is_some());
    // A fresh ticket at the current bin (what `resident_in` hands churn
    // drivers) redeems like the old one would…
    let fresh = ledger.resident_in(3).expect("migrated ball resident");
    assert_eq!((fresh.bin(), fresh.handle), (3, old.handle));
    assert_eq!(ledger.redeem(fresh), Ok(3));
    // …and the stale pre-migration handle is now a double release.
    assert!(ledger.redeem(old).is_err());
    assert!(ledger.is_empty());
}

#[test]
fn shared_ledger_migration_races_with_redeem() {
    use std::sync::Arc;
    // One thread migrates balls 0..N round-robin across bins while
    // another releases them via their original tickets; every ball must
    // be released exactly once whatever the interleaving.
    let ledger = Arc::new(SharedTicketLedger::new(8, 4));
    let tickets: Vec<Ticket> = (0..400u64).map(|id| ledger.issue(id, 0)).collect();
    let migrator = {
        let ledger = Arc::clone(&ledger);
        let tickets = tickets.clone();
        std::thread::spawn(move || {
            for (id, ticket) in (0..400u64).zip(tickets) {
                if let Some(moved) = ledger.migrate(ticket, (1 + id % 7) as usize) {
                    ledger.migrate(moved, (7 - id % 7) as usize);
                }
            }
        })
    };
    let mut released = 0u64;
    for ticket in tickets {
        if ledger.redeem(ticket).is_ok() {
            released += 1;
        }
    }
    migrator.join().expect("migrator thread");
    // Some redeems may observe the ball mid-flight and fail spuriously is
    // NOT allowed: every ball was resident somewhere the whole time.
    assert_eq!(released, 400, "every original ticket must redeem");
    assert!(ledger.is_empty());
}

#[test]
fn membership_change_observer_hook_defaults_to_noop() {
    struct Silent;
    impl RouterObserver for Silent {}
    Silent.on_membership(&MembershipChange {
        batch_index: 3,
        added: &[(4, 2.0)],
        drained: &[0],
        removed: &[],
        active: &[1, 2, 3, 4],
        resident: 10,
    });
}

#[test]
fn one_shot_router_reproduces_allocate_loads_exactly() {
    let m = 103u64;
    let n = 8usize;
    let reference = Staircase.allocate(m, n, 0);
    let mut router = OneShotRouter::new(Staircase, m, n, 0);
    for key in 0..m {
        router.route(key).expect("within capacity");
    }
    assert_eq!(router.loads(), reference.loads);
    assert_eq!(router.target_loads(), reference.loads.as_slice());
    let err = router.route(0).unwrap_err();
    assert_eq!(err, RouteError::Exhausted { capacity: m });
    assert!(err.to_string().contains("exhausted"));
}

#[test]
fn one_shot_router_prefix_is_round_robin_balanced() {
    let n = 8usize;
    let mut router = OneShotRouter::new(Staircase, 64, n, 0);
    for key in 0..n as u64 {
        router.route(key).unwrap();
    }
    // One full round-robin pass touches every bin once.
    assert_eq!(router.loads(), vec![1; n]);
}

#[test]
fn one_shot_router_release_updates_loads_and_stats() {
    let mut router = OneShotRouter::new(Staircase, 16, 4, 0);
    let mut tickets = Vec::new();
    for key in 0..16u64 {
        tickets.push(router.route(key).unwrap().ticket);
    }
    let stats = router.stats();
    assert_eq!(stats.routed, 16);
    assert_eq!(stats.resident, 16);
    assert_eq!(stats.batches, 1);
    for t in tickets.drain(..) {
        router.release(t).unwrap();
    }
    assert_eq!(router.loads(), vec![0; 4]);
    let stats = router.stats();
    assert_eq!(stats.released, 16);
    assert_eq!(stats.resident, 0);
    assert_eq!(stats.gap, 0.0);
}

#[test]
fn default_route_many_loops_route_and_short_circuits() {
    // Two identical one-shot routers: the default `route_many` must
    // equal the explicit loop, and exhaustion mid-group must surface the
    // same error the loop hits (placements before it stay committed).
    let mut grouped = OneShotRouter::new(Staircase, 10, 4, 0);
    let mut looped = OneShotRouter::new(Staircase, 10, 4, 0);
    let keys: Vec<u64> = (0..8).collect();
    let many = grouped.route_many(&keys).expect("within capacity");
    let one: Vec<Placement> = keys.iter().map(|&k| looped.route(k).unwrap()).collect();
    assert_eq!(many.len(), one.len());
    for (m, o) in many.iter().zip(&one) {
        assert_eq!(m.bin, o.bin);
        assert_eq!(m.ticket.id(), o.ticket.id());
    }
    assert_eq!(grouped.loads(), looped.loads());
    // 2 placements remain; a group of 3 fails but commits the first 2.
    let err = grouped.route_many(&[8, 9, 10]).unwrap_err();
    assert_eq!(err, RouteError::Exhausted { capacity: 10 });
    assert_eq!(grouped.stats().routed, 10);
    assert!(grouped.route_many(&[]).expect("empty group").is_empty());
}

#[test]
fn router_is_object_safe() {
    let mut router = OneShotRouter::new(Staircase, 4, 2, 0);
    let dynamic: &mut dyn Router = &mut router;
    let placement = dynamic.route(1).unwrap();
    assert_eq!(placement.bin, placement.ticket.bin());
    dynamic.release(placement.ticket).unwrap();
    assert_eq!(dynamic.stats().resident, 0);
}

#[test]
fn observer_hooks_default_to_noops() {
    struct Silent;
    impl RouterObserver for Silent {}
    let mut obs = Silent;
    obs.on_batch(&BatchEvent {
        batch_index: 1,
        batch_len: 4,
        loads: &[1, 1, 1, 1],
        gap: 0.0,
        resident: 4,
    });
    obs.on_reweight(&ReweightEvent {
        batch_index: 1,
        loads: &[1, 1, 1, 1],
        weights: None,
        resident: 4,
    });
    obs.on_release(&ReleaseEvent {
        ticket: Ticket::new(0, 0),
        load_after: 0,
        resident: 3,
    });
}

#[test]
fn route_error_display_is_informative() {
    let t = Ticket::new(3, 1);
    let msg = RouteError::UnknownTicket { ticket: t }.to_string();
    assert!(msg.contains("ball 3"));
    assert!(msg.contains("bin 1"));
}
