//! Memory is part of the ticket ledger's contract: a resident ticket costs a
//! 16-byte slab entry plus a 4-byte slot in its bin's occupancy list, each
//! inside a `Vec` that holds at most twice what it needs — **40 bytes of
//! heap per resident ticket** at the worst point of the growth cycle, and
//! nothing that grows with the number of tickets ever *issued*. This test
//! churns a ledger under a byte-counting allocator and holds it to that: an
//! id-keyed map beside the slab (≥ 17 bytes a bucket before its load-factor
//! slack), `u64` list slots, or a free list that is not reused would each
//! break the bound.
//!
//! The counter is the per-thread `#[global_allocator]` of
//! `tests/support/counting_alloc.rs`: libtest allocates on its own threads,
//! every ledger call here runs on the test's thread, so each byte is charged
//! to the test that caused it. What is measured is the heap the ledger took
//! *since it was built empty* — its fixed per-bin headers are not per-ticket
//! cost — with the test's own ticket queue allocated up front.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::collections::VecDeque;

use counting_alloc::live_bytes;
use parallel_balanced_allocations::model::router::{SharedTicketLedger, Ticket};
use parallel_balanced_allocations::model::SplitMix64;

const BINS: usize = 1024;
const SHARDS: usize = 8;
const GROUP: usize = 32;

/// A ledger under FIFO churn: route a group, release the oldest group.
struct Churn {
    ledger: SharedTicketLedger,
    resident: VecDeque<Ticket>,
    keys: SplitMix64,
    next_id: u64,
    /// Thread-live bytes when the ledger was built and empty.
    empty: isize,
}

impl Churn {
    fn new(residents: usize) -> Self {
        let resident = VecDeque::with_capacity(residents + GROUP);
        let ledger = SharedTicketLedger::new(BINS, SHARDS);
        Self {
            ledger,
            resident,
            keys: SplitMix64::new(7),
            next_id: 0,
            empty: live_bytes(),
        }
    }

    fn issue(&mut self, bins: &[u32]) {
        self.resident
            .extend(self.ledger.issue_many(self.next_id, bins));
        self.next_id += bins.len() as u64;
    }

    fn issue_random_group(&mut self) {
        let bins: [u32; GROUP] =
            std::array::from_fn(|_| (self.keys.next_u64() % BINS as u64) as u32);
        self.issue(&bins);
    }

    fn redeem_oldest_group(&mut self) {
        let mut group = [Ticket::new(0, 0); GROUP];
        group.fill_with(|| self.resident.pop_front().expect("a resident group"));
        let bins = self.ledger.redeem_many(&group);
        assert!(bins.is_some(), "resident tickets redeem as a group");
    }

    /// Heap bytes the ledger holds beyond its empty self.
    fn ledger_bytes(&self) -> isize {
        live_bytes() - self.empty
    }
}

fn assert_bytes_per_ticket(residents: usize) {
    let mut churn = Churn::new(residents);
    while churn.resident.len() < residents {
        churn.issue_random_group();
    }
    for _ in 0..4 * residents / GROUP {
        churn.issue_random_group();
        churn.redeem_oldest_group();
    }
    assert_eq!(churn.ledger.len(), residents);
    let churned = churn.ledger_bytes();
    let per_ticket = churned as f64 / residents as f64;
    println!(
        "{residents} resident tickets after 4x turnover: {churned} B = {per_ticket:.1} B/ticket"
    );
    assert!(
        churned <= 40 * residents as isize,
        "{churned} B of ledger heap for {residents} resident tickets = {per_ticket:.1} B/ticket"
    );
    // The counter does count: the entries and list slots alone are 20 bytes.
    assert!(churned >= 20 * residents as isize, "{churned} B");

    // Drain to empty, then file the same balls-per-bin again: every slot
    // comes off the free list and every list fits its old capacity.
    let bins: Vec<u32> = churn.resident.iter().map(|t| t.bin() as u32).collect();
    let with_replay_buffer = churn.ledger_bytes();
    while !churn.resident.is_empty() {
        churn.redeem_oldest_group();
    }
    assert!(churn.ledger.is_empty());
    for group in bins.chunks(GROUP) {
        churn.issue(group);
    }
    assert_eq!(churn.ledger.len(), residents);
    assert!(
        churn.ledger_bytes() <= with_replay_buffer,
        "a drain and refill grew the ledger by {} B",
        churn.ledger_bytes() - with_replay_buffer
    );
}

#[test]
fn a_resident_ticket_costs_at_most_forty_bytes_at_a_power_of_two() {
    // 2^16 over 8 shards is 8192 a shard: every slab has just doubled.
    assert_bytes_per_ticket(1 << 16);
}

#[test]
fn a_resident_ticket_costs_at_most_forty_bytes_between_powers_of_two() {
    assert_bytes_per_ticket(3 << 15);
}
