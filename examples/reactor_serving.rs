//! The event-driven serving path, end to end: a metrics-instrumented
//! `ConcurrentRouter` behind the **reactor** TCP front-end, pipelined
//! loopback clients driving it, and the registry snapshot proving the
//! batched paths really ran.
//!
//! The clients pipeline: each writes a whole window of `ROUTE` lines before
//! reading any reply, so contiguous runs reach the server back-to-back and
//! each run of `ROUTE`/`RELEASE` lines executes as one `serve_wire` call
//! instead of one engine call per request. A one-request-at-a-time `LineClient` speaks the same
//! protocol and rides along for the abuse and membership phases.
//!
//! The run:
//!
//! 1. builds a router with a shared `MetricsRegistry` and starts a
//!    `ReactorServer` (raw `epoll` on Linux, portable fallback elsewhere);
//! 2. spawns pipelined client threads (window of 64), plus deliberate
//!    protocol abuse that must land in named counters, never vanish;
//! 3. drives the membership verbs (`ADD`/`DRAIN`/`MIGRATE`) through the
//!    same line protocol to show the elastic path works over the reactor;
//! 4. snapshots the registry and asserts the books balance — the
//!    no-silent-drops ledger, placed minus released equal to the resident
//!    balls, a nonzero route-latency histogram covering every route — then
//!    repeats a short smoke pass with `force_fallback_poller` so both
//!    `Poller` implementations are exercised in one run; each pass logs its
//!    snapshot's text rendering to stderr, the way a deployment would.
//!
//! Run with: `cargo run --release --example reactor_serving`

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use parallel_balanced_allocations::obs::MetricsRegistry;
use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::stream::Policy;

/// One pipelined client: `requests` keys in windows of `window` — write the
/// whole window, read the replies, release the issued ids the same way.
fn pipelined_client(addr: SocketAddr, stream_id: u64, requests: u64, window: usize) {
    let stream = TcpStream::connect(addr).expect("connect loopback");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut line = String::new();
    let mut ids = Vec::with_capacity(window);
    let mut sent = 0u64;
    while sent < requests {
        let burst = window.min((requests - sent) as usize);
        let mut batch = String::new();
        for i in 0..burst {
            let key = (stream_id << 32) | (sent + i as u64);
            batch.push_str(&format!("ROUTE {key}\n"));
        }
        writer.write_all(batch.as_bytes()).expect("write window");
        ids.clear();
        for _ in 0..burst {
            line.clear();
            reader.read_line(&mut line).expect("read route reply");
            let mut parts = line.split_whitespace();
            assert_eq!(parts.next(), Some("OK"), "route reply: {line:?}");
            let _bin = parts.next().expect("bin field");
            let id: u64 = parts.next().expect("id field").parse().expect("ticket id");
            ids.push(id);
        }
        let mut batch = String::new();
        for id in &ids {
            batch.push_str(&format!("RELEASE {id}\n"));
        }
        writer.write_all(batch.as_bytes()).expect("write releases");
        for _ in 0..burst {
            line.clear();
            reader.read_line(&mut line).expect("read release reply");
            assert!(line.starts_with("OK "), "an issued id releases: {line:?}");
        }
        sent += burst as u64;
    }
}

fn serve_round(force_fallback: bool, clients: usize, requests: u64) -> u64 {
    let registry = Arc::new(MetricsRegistry::new());
    let router = ConcurrentRouter::with_metrics(
        StreamConfig::new(32)
            .policy(Policy::TwoChoice)
            .batch_size(256)
            .shards(4)
            .reserve_bins(1) // one retired slot for the ADD to commission
            .seed(42),
        Arc::clone(&registry),
    );
    let server = ReactorServer::start(
        router,
        ReactorConfig {
            force_fallback_poller: force_fallback,
            ..ReactorConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let window = 64usize;

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..clients {
            scope.spawn(move || pipelined_client(addr, t as u64, requests, window));
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    // Protocol abuse — must be counted by name, never silently dropped.
    let mut client = LineClient::connect(addr).expect("connect for abuse");
    assert_eq!(
        client.release(u64::MAX).unwrap(),
        None,
        "forged id rejected"
    );
    assert_eq!(client.request("GARBAGE").unwrap(), "ERR bad-request");

    // The elastic-membership verbs flow through the same reactor protocol.
    // Staged events apply at the next batch boundary, so: route and keep
    // the wire ids, stage the scale events, route past a flush to apply
    // them, then migrate the drained bin's residents and release every id.
    let mut open = Vec::new();
    for key in 0..64u64 {
        open.push(client.route(1 << 40 | key).expect("route over tcp").1);
    }
    client.stage_drain(0).expect("stage DRAIN over tcp");
    client.stage_add_tiered(1.0, 2).expect("stage ADD over tcp");
    for key in 0..8u64 {
        open.push(client.route(1 << 41 | key).expect("route over tcp").1);
    }
    client.flush().expect("flush applies the staged events");
    let migrated = client.migrate().expect("MIGRATE over tcp");
    assert_eq!(server.router().tickets_in(0), 0, "drained bin emptied");
    for id in open.drain(..) {
        assert!(client.release(id).unwrap().is_some(), "wire ids redeem");
    }
    let extra = 72u64; // membership-phase routes, all released above
    client.flush().expect("flush over tcp");

    assert!(
        server.router().conserves_balls(),
        "conservation at shutdown"
    );
    let resident = server.router().resident();
    assert_eq!(resident, 0, "all windows released");
    server.shutdown();

    let total = clients as u64 * requests + extra;
    let snap = registry.snapshot();
    assert_eq!(snap.counter("route.routed"), total);
    assert_eq!(snap.counter("route.released"), total);
    assert_eq!(snap.counter("server.unknown_ticket"), 1);
    assert_eq!(snap.counter("server.bad_request"), 1);
    assert_eq!(snap.counter("server.connections"), clients as u64 + 1);
    assert_eq!(snap.counter("membership.adds"), 1);
    assert_eq!(snap.counter("membership.drains"), 1);
    assert_eq!(snap.counter("membership.migrations"), migrated);
    // Every request is attributed to exactly one reactor thread.
    let per_reactor: u64 = (0..ReactorConfig::default().reactors)
        .map(|i| snap.counter(&format!("server.reactor{i}.requests")))
        .sum();
    assert_eq!(per_reactor, snap.counter("server.requests"));
    // Conservation on the counters: every placed ball not released is still
    // resident (a forced migration moves a ball, so it touches neither).
    assert_eq!(
        snap.counter("route.placed") - snap.counter("route.released"),
        resident
    );
    // The server's own latency histogram saw every routed request.
    let latency = snap
        .histogram("server.route_latency_ns")
        .expect("latency recorded");
    assert_eq!(latency.count, total, "nonzero histogram covers every route");
    assert!(latency.p99 >= latency.p50 && latency.p50 > 0);

    let poller = if force_fallback {
        "fallback poll loop"
    } else if cfg!(target_os = "linux") {
        "raw epoll"
    } else {
        "fallback poll loop"
    };
    println!(
        "[{poller}] served {} requests in {:.2}s ({:.0} req/s wall; 1-core \
         containers serialise the clients, so treat throughput as a smoke \
         number), {} batches, {migrated} keys migrated off the drained bin",
        snap.counter("server.requests"),
        elapsed,
        snap.counter("server.requests") as f64 / elapsed,
        snap.counter("router.stream_batches"),
    );
    println!(
        "[{poller}] route latency over tcp: p50 {:.1}us p90 {:.1}us p99 {:.1}us \
         ({} samples)",
        latency.p50 as f64 / 1e3,
        latency.p90 as f64 / 1e3,
        latency.p99 as f64 / 1e3,
        latency.count
    );
    // Log the snapshot, the way a deployment would.
    eprint!("{}", snap.render_text());
    total
}

fn main() {
    println!("== reactor_serving ==");
    // Main pass: the platform's best poller (epoll on Linux).
    let total = serve_round(false, 4, 2_000);
    // Smoke pass: the portable fallback, same protocol, same assertions.
    let smoke = serve_round(true, 2, 200);
    println!("all books balanced across both pollers ({total} + {smoke} routes)");
}
