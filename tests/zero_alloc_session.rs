//! Counting proofs of the serving session's cost per window — heap
//! allocations and ledger locks — beside the codec's (`zero_alloc_codec.rs`)
//! and the drain's (`zero_alloc_drain.rs`) zero-alloc proofs.
//!
//! A warmed window of 32 `ROUTE` + 32 `RELEASE` lines through
//! `Session::feed`, on the benchmark's router shape, pipelined (32 then 32)
//! or interleaved (alternating), is one `serve_wire` call and:
//!
//! * allocates **nothing**: every result vector is reused scratch, and the
//!   ledger pass locks one shard at a time, so it holds no guard vector;
//! * takes **one ledger shard lock per home shard per sub-group** — at most
//!   8 at this shape — counted exactly by
//!   `SharedTicketLedger::locks_taken`. A sub-group ends at the route that
//!   fills the open batch, so a window holds one, or two when it closes a
//!   batch with requests after the closing route.
//!
//! A single call is a run of one: a warmed `route` — on the handle or on the
//! sole owner, `StreamAllocator` — and a warmed `release` each allocate
//! **nothing** and take exactly **one** ledger lock. `release_many` is a
//! loop of `release`: on 32 live tickets, nothing allocated and 32 locks.
//!
//! Both counters are per thread (`tests/support/counting_alloc.rs`, and a
//! thread-local in the ledger): libtest runs tests on parallel threads.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use counting_alloc::allocations_during;
use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::model::SharedTicketLedger;
use parallel_balanced_allocations::net::codec::push_u64;
use parallel_balanced_allocations::net::ConnState;
use parallel_balanced_allocations::prelude::*;

/// Lines of each verb per window: the benchmark's serve shape.
const RUN: usize = 32;
/// The benchmark's router shape.
const BINS: usize = 256;
const BATCH: u64 = 256;
const SHARDS: usize = 8;

/// What one window cost.
struct Cost {
    allocations: u64,
    locks: u64,
    /// Σ over the window's sub-groups of the home shards each touched.
    home_shards: u64,
    /// The most home shards one sub-group touched.
    widest: usize,
    sub_groups: u64,
}

/// One client connection that keeps a FIFO of the wire ids it holds.
struct Client {
    session: Session,
    conn: ConnState,
    keys: SplitMix64,
    held: VecDeque<u64>,
    /// Routes served so far: where the batch boundaries fall.
    routed: u64,
    request: Vec<u8>,
    replies: Vec<u8>,
}

/// The benchmark's router, metrics installed.
fn serving_router() -> ConcurrentRouter {
    let mut config = StreamConfig::new(BINS)
        .policy(StreamPolicy::TwoChoice)
        .batch_size(BATCH as usize)
        .shards(SHARDS)
        .seed(7);
    // The gap trajectory grows by doubling up to twice its cap, one entry per
    // batch — amortized, not per window; a small cap ends it in warm-up.
    config.trajectory_cap = 16;
    ConcurrentRouter::with_metrics(config, Arc::new(MetricsRegistry::new()))
}

impl Client {
    fn new() -> Self {
        let session = Session::new(serving_router());
        let conn = session.connect();
        Self {
            session,
            conn,
            keys: SplitMix64::new(0x5e55),
            held: VecDeque::new(),
            routed: 0,
            request: Vec::new(),
            replies: Vec::new(),
        }
    }

    /// Builds the next window — `routes` new keys and a release of the
    /// `releases` oldest held ids, all routes first or (as many of each)
    /// alternating route first — feeds it in one chunk, checks the replies,
    /// and returns what `Session::feed` cost.
    fn window(&mut self, routes: usize, releases: usize, interleaved: bool) -> Cost {
        assert!(!interleaved || routes == releases);
        let releasing: Vec<u64> = self.held.drain(..releases).collect();
        let order: Vec<bool> = (0..routes + releases)
            .map(|i| if interleaved { i % 2 == 0 } else { i < routes })
            .collect();
        self.request.clear();
        let mut next_release = releasing.iter();
        for &route in &order {
            if route {
                self.request.extend_from_slice(b"ROUTE ");
                push_u64(&mut self.request, self.keys.next_u64());
            } else {
                self.request.extend_from_slice(b"RELEASE ");
                push_u64(&mut self.request, *next_release.next().expect("a held id"));
            }
            self.request.push(b'\n');
        }
        self.replies.clear();
        let (session, conn) = (&mut self.session, &mut self.conn);
        let (request, replies) = (&self.request, &mut self.replies);
        let locks_before = SharedTicketLedger::locks_taken();
        let allocations = allocations_during(|| session.feed(conn, request, replies));
        let locks = SharedTicketLedger::locks_taken() - locks_before;

        let text = std::str::from_utf8(&self.replies).expect("ASCII replies");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), routes + releases);
        let mut releasing = releasing.into_iter();
        let (mut home_shards, mut widest, mut sub_groups) = (0, 0, 0);
        let mut touched = BTreeSet::new();
        for (at, (&route, line)) in order.iter().zip(&lines).enumerate() {
            let mut fields = line.split(' ').skip(1);
            let bin: usize = fields
                .next()
                .and_then(|bin| bin.parse().ok())
                .expect("OK <bin>");
            if route {
                let id = fields.next().and_then(|id| id.parse().ok());
                self.held.push_back(id.expect("OK <bin> <id>"));
                touched.insert(bin * SHARDS / BINS);
                self.routed += 1;
            } else {
                assert!(line.starts_with("OK "), "release reply {line:?}");
                let wire = releasing.next().expect("one reply per release");
                touched.insert((wire >> 32) as usize % SHARDS);
            }
            let fills_batch = route && self.routed.is_multiple_of(BATCH);
            if fills_batch || at + 1 == lines.len() {
                home_shards += touched.len() as u64;
                widest = widest.max(touched.len());
                sub_groups += 1;
                touched.clear();
            }
        }
        Cost {
            allocations,
            locks,
            home_shards,
            widest,
            sub_groups,
        }
    }
}

fn warmed_client() -> Client {
    let mut client = Client::new();
    // Preload 4096 residents in whole windows of routes, so every later
    // route group sits inside one batch. Then warm up: the FIFO churn walks
    // each bin's occupancy list and each shard's slab up to their peak
    // sizes (amortized growth, done by window ≈ 160 of this seed), in both
    // window shapes.
    for _ in 0..4096 / RUN {
        client.window(RUN, 0, false);
    }
    for i in 0..256 {
        client.window(RUN, RUN, i % 2 == 1);
    }
    client
}

#[test]
fn a_warmed_window_allocates_nothing_pipelined_or_interleaved() {
    let mut client = warmed_client();
    // 512 windows of each shape: 65 536 requests, so 16 latency fan-outs
    // (every 4096) and 128 batch boundaries fall inside the measurement.
    for interleaved in [false, true] {
        let per_window = (0..512).map(|_| client.window(RUN, RUN, interleaved).allocations);
        let other: Vec<(usize, u64)> = per_window.enumerate().filter(|&(_, n)| n != 0).collect();
        assert!(
            other.is_empty(),
            "interleaved {interleaved}: (window, allocations): {other:?}"
        );
    }
    let router = client.session.router();
    assert_eq!(router.resident(), 4096);
    assert!(router.conserves_balls());
}

#[test]
fn a_warmed_window_takes_one_ledger_lock_per_home_shard_per_sub_group() {
    let mut client = warmed_client();
    for interleaved in [false, true] {
        let mut sub_groups = 0;
        for window in 0..64 {
            let cost = client.window(RUN, RUN, interleaved);
            let at = format!("interleaved {interleaved}, window {window}");
            assert_eq!(cost.locks, cost.home_shards, "{at}");
            assert!(cost.widest <= SHARDS, "{at}");
            assert!(cost.locks <= SHARDS as u64 * cost.sub_groups, "{at}");
            sub_groups += cost.sub_groups;
        }
        // 64 windows of 32 routes close 8 batches, and in either shape
        // requests follow the closing route: those windows hold two
        // sub-groups. One call per request would take 64 locks a window.
        assert_eq!(sub_groups, 64 + 8, "interleaved {interleaved}");
    }
}

/// Runs `f`, returning its result with the heap allocations and ledger locks
/// it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let locks_before = SharedTicketLedger::locks_taken();
    let mut result = None;
    let allocations = allocations_during(|| result = Some(f()));
    let locks = SharedTicketLedger::locks_taken() - locks_before;
    (result.expect("ran"), (allocations, locks))
}

#[test]
fn a_warmed_single_route_or_release_allocates_nothing_and_locks_once() {
    let router = serving_router();
    let mut owner = StreamAllocator::new(router.config().clone());
    let mut keys = SplitMix64::new(0x5e55);
    let mut held = VecDeque::new();
    // 4096 residents on each, then FIFO churn: one key routed on each and
    // each one's oldest ball released, per step. The first 16 384 steps warm
    // up; the next 16 384 are measured, across 64 batch boundaries.
    const WARM: usize = 4096 + 16_384;
    for step in 0..WARM + 16_384 {
        let key = keys.next_u64();
        let (shared, shared_route) = counted(|| router.route(key).expect("infallible"));
        let (owned, owned_route) = counted(|| owner.route(key).expect("infallible"));
        assert_eq!(shared.bin, owned.bin, "step {step}: one core");
        held.push_back((shared.ticket, owned.ticket));
        if step < 4096 {
            continue;
        }
        let (shared, owned) = held.pop_front().expect("a held ball");
        let ((), shared_release) = counted(|| router.release(shared).expect("a live ticket"));
        let ((), owned_release) = counted(|| owner.release(owned).expect("a live ticket"));
        if step >= WARM {
            let costs = [shared_route, owned_route, shared_release, owned_release];
            assert_eq!(costs, [(0, 1); 4], "step {step}: (allocations, locks)");
        }
    }
    assert_eq!(router.loads(), owner.loads());
    // `release_many` is the loop of `release`: 32 tickets, 32 locks.
    let oldest: Vec<Ticket> = held.drain(..RUN).map(|(shared, _)| shared).collect();
    let ((), cost) = counted(|| router.release_many(&oldest).expect("live tickets"));
    assert_eq!(cost, (0, RUN as u64));
    assert_eq!(router.resident(), 4096 - RUN as u64);
    assert!(router.conserves_balls());
}
