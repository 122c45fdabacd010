//! Counting-allocator proof of the serving session's heap traffic per
//! pipelined window — the third zero-alloc proof, beside the codec's
//! (`zero_alloc_codec.rs`) and the drain's (`zero_alloc_drain.rs`).
//!
//! A warmed window of 32 `ROUTE` + 32 `RELEASE` lines through
//! `Session::feed`, on the benchmark's router shape, allocates **exactly
//! once**: the ledger's shard-guard vector for the route group's
//! `issue_group`. Every result vector is the caller's reused scratch
//! (`route_many_into`, `release_wire`), and the release run's one ledger
//! pass locks one shard at a time, so it holds no guard vector at all.
//!
//! The counter is per thread (`tests/support/counting_alloc.rs`): libtest
//! runs tests on parallel threads and allocates on its own.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::collections::VecDeque;
use std::sync::Arc;

use counting_alloc::allocations_during;
use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::net::codec::push_u64;
use parallel_balanced_allocations::net::ConnState;
use parallel_balanced_allocations::prelude::*;

/// Lines of each verb per window: the benchmark's `serve-pipelined` shape.
const RUN: usize = 32;

/// One client connection that keeps a FIFO of the wire ids it holds.
struct Client {
    session: Session,
    conn: ConnState,
    keys: SplitMix64,
    held: VecDeque<u64>,
    request: Vec<u8>,
    replies: Vec<u8>,
}

impl Client {
    /// Builds the next window — `routes` new keys, then a release of the
    /// `releases` oldest held ids — feeds it in one chunk, checks the
    /// replies, and returns the allocations `Session::feed` performed.
    fn window(&mut self, routes: usize, releases: usize) -> u64 {
        self.request.clear();
        for _ in 0..routes {
            self.request.extend_from_slice(b"ROUTE ");
            push_u64(&mut self.request, self.keys.next_u64());
            self.request.push(b'\n');
        }
        for id in self.held.drain(..releases) {
            self.request.extend_from_slice(b"RELEASE ");
            push_u64(&mut self.request, id);
            self.request.push(b'\n');
        }
        self.replies.clear();
        let (session, conn) = (&mut self.session, &mut self.conn);
        let (request, replies) = (&self.request, &mut self.replies);
        let allocations = allocations_during(|| session.feed(conn, request, replies));
        let text = std::str::from_utf8(&self.replies).expect("ASCII replies");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), routes + releases);
        for line in &lines[..routes] {
            let id = line.rsplit(' ').next().and_then(|id| id.parse().ok());
            self.held.push_back(id.expect("OK <bin> <id>"));
        }
        for line in &lines[routes..] {
            assert!(line.starts_with("OK "), "release reply {line:?}");
        }
        allocations
    }
}

#[test]
fn a_warmed_pipelined_window_allocates_exactly_once() {
    let mut config = StreamConfig::new(256)
        .policy(StreamPolicy::TwoChoice)
        .batch_size(256)
        .shards(8)
        .seed(7);
    // The gap trajectory grows by doubling up to twice its cap, one entry
    // per batch — amortized, not per window; a small cap ends it in warm-up.
    config.trajectory_cap = 16;
    let router = ConcurrentRouter::with_metrics(config, Arc::new(MetricsRegistry::new()));
    let session = Session::new(router);
    let conn = session.connect();
    let mut client = Client {
        session,
        conn,
        keys: SplitMix64::new(0x5e55),
        held: VecDeque::new(),
        request: Vec::new(),
        replies: Vec::new(),
    };
    // Preload 4096 residents in whole windows of routes, so every later
    // route group sits inside one batch. Then warm up: the FIFO churn walks
    // each bin's occupancy list and each shard's slab up to their peak
    // sizes (amortized growth, done by window ≈ 160 of this seed).
    for _ in 0..4096 / RUN {
        client.window(RUN, 0);
    }
    for _ in 0..256 {
        client.window(RUN, RUN);
    }
    // 512 windows: 32 768 requests, so 8 latency fan-outs (every 4096) and
    // 64 batch boundaries fall inside the measurement.
    let per_window = (0..512).map(|_| client.window(RUN, RUN));
    let other: Vec<(usize, u64)> = per_window.enumerate().filter(|&(_, n)| n != 1).collect();
    assert!(
        other.is_empty(),
        "the route group's shard-guard vector and nothing else; (window, count): {other:?}"
    );
    let router = client.session.router();
    assert_eq!(router.resident(), 4096);
    assert!(router.conserves_balls());
}
