//! Memory is part of the serving path's contract: a client holds a resident
//! ball's wire id, and the server holds nothing for it but the ticket
//! ledger's slab entry and list slot — at most **44 bytes of heap per
//! resident ticket** all told (the ledger's own ≤ 40 of
//! `tests/ledger_memory.rs`, plus slack for the router's per-batch
//! bookkeeping). An id-keyed table beside the ledger — the park map this
//! bound replaced cost 66–88 bytes a ticket — would break it.
//!
//! The counter is the per-thread `#[global_allocator]` of
//! `tests/support/counting_alloc.rs`; every request here is fed through
//! [`Session::feed`] on the test's own thread, on the serving benchmark's
//! router shape, so each byte is charged to the test that caused it. What is
//! measured is the heap taken *since the session was connected and empty*,
//! with the test's own buffers allocated up front.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::collections::VecDeque;

use counting_alloc::live_bytes;
use parallel_balanced_allocations::model::SplitMix64;
use parallel_balanced_allocations::net::codec::push_u64;
use parallel_balanced_allocations::net::{ConnState, Session};
use parallel_balanced_allocations::stream::{ConcurrentRouter, Policy, StreamConfig};

/// Requests of one kind per window: 32 `ROUTE`, then 32 `RELEASE`.
const GROUP: usize = 32;

/// A session under FIFO churn over the benchmark's router shape.
struct Churn {
    session: Session,
    conn: ConnState,
    /// Wire ids of the resident balls, oldest first.
    resident: VecDeque<u64>,
    keys: SplitMix64,
    request: Vec<u8>,
    replies: Vec<u8>,
    /// Thread-live bytes when the session was connected and empty.
    empty: isize,
}

impl Churn {
    fn new(residents: usize) -> Self {
        let resident = VecDeque::with_capacity(residents + GROUP);
        let (request, replies) = (
            Vec::with_capacity(64 * GROUP),
            Vec::with_capacity(64 * GROUP),
        );
        let config = StreamConfig::new(256)
            .policy(Policy::TwoChoice)
            .batch_size(256)
            .shards(8)
            .seed(7);
        let session = Session::new(ConcurrentRouter::new(config));
        let conn = session.connect();
        Self {
            session,
            conn,
            resident,
            keys: SplitMix64::new(7),
            request,
            replies,
            empty: live_bytes(),
        }
    }

    /// Feeds the rendered request window; returns its reply lines' bytes.
    fn feed(&mut self) -> &[u8] {
        self.replies.clear();
        self.session
            .feed(&mut self.conn, &self.request, &mut self.replies);
        &self.replies
    }

    fn route_group(&mut self) {
        self.request.clear();
        for _ in 0..GROUP {
            self.request.extend_from_slice(b"ROUTE ");
            push_u64(&mut self.request, self.keys.next_u64());
            self.request.push(b'\n');
        }
        let mut ids = [0u64; GROUP];
        let lines = self.feed().split(|&b| b == b'\n').filter(|l| !l.is_empty());
        for (id, line) in ids.iter_mut().zip(lines) {
            let text = std::str::from_utf8(line).expect("ASCII");
            assert!(text.starts_with("OK "), "{text}");
            *id = text.rsplit(' ').next().unwrap().parse().expect("wire id");
        }
        self.resident.extend(ids);
    }

    fn release_oldest_group(&mut self) {
        self.request.clear();
        for _ in 0..GROUP {
            self.request.extend_from_slice(b"RELEASE ");
            let oldest = self.resident.pop_front().expect("a resident group");
            push_u64(&mut self.request, oldest);
            self.request.push(b'\n');
        }
        let released = self.feed().split(|&b| b == b'\n');
        assert_eq!(released.filter(|l| l.starts_with(b"OK ")).count(), GROUP);
    }

    /// Heap bytes the session and its router hold beyond their empty selves.
    fn serving_bytes(&self) -> isize {
        live_bytes() - self.empty
    }
}

fn assert_bytes_per_ticket(residents: usize) {
    let mut churn = Churn::new(residents);
    while churn.resident.len() < residents {
        churn.route_group();
    }
    for _ in 0..4 * residents / GROUP {
        churn.route_group();
        churn.release_oldest_group();
    }
    assert_eq!(churn.session.router().resident_tickets(), residents);
    let churned = churn.serving_bytes();
    let per_ticket = churned as f64 / residents as f64;
    println!(
        "{residents} resident tickets after 4x turnover: {churned} B = {per_ticket:.1} B/ticket"
    );
    assert!(
        churned <= 44 * residents as isize,
        "{churned} B of serving heap for {residents} resident tickets = {per_ticket:.1} B/ticket"
    );
    // The counter does count: the entries and list slots alone are 20 bytes.
    assert!(churned >= 20 * residents as isize, "{churned} B");
}

#[test]
fn a_resident_ticket_costs_at_most_forty_four_bytes_on_the_wire_at_a_power_of_two() {
    assert_bytes_per_ticket(1 << 16);
}

#[test]
fn a_resident_ticket_costs_at_most_forty_four_bytes_on_the_wire_between_powers_of_two() {
    assert_bytes_per_ticket(3 << 15);
}
