//! Property tests for the serving path:
//!
//! 1. **Codec ≡ `&str` reference** — the zero-allocation byte-slice
//!    `parse_request` classifies arbitrary lines (valid, malformed, and
//!    non-UTF-8) exactly as a plain `&str` + `split_ascii_whitespace`
//!    restatement of the verb table does, with non-UTF-8 mapping to a bad
//!    request — and so does the splitter's fast path wherever it takes a
//!    line, canonical-edge lines included by construction.
//! 2. **`serve_wire` ≡ looped decode + `release`** over arbitrary
//!    partitions of a departure stream into runs of wire-id releases, with
//!    a repeat, a never-issued id and a stale id spliced in: the same
//!    outcomes, observer event stream and final loads.
//! 3. **Pipelined serving stress** — k concurrent pipelined connections
//!    (6 and 64) through the reactor front-end conserve every ball and drop
//!    nothing.
//! 4. **Chunking immunity** — one fixed request stream fed to a socket-free
//!    `Session` under arbitrary chunkings (cuts inside lines, inside the
//!    oversized line) produces the identical reply bytes and router state
//!    as the one-chunk run: what TCP does to segment boundaries can never
//!    change an answer.
//! 5. **One protocol, three transports** — the same stream written whole
//!    to the reactor on epoll and on the fallback poller gets the
//!    in-process `Session`'s reply bytes and router state exactly.
//! 6. **A mixed run is one call, exactly** — random interleaved
//!    `ROUTE`/`RELEASE` streams fed whole (every run one `serve_wire` call)
//!    and fed one line per `feed` leave identical replies, stats, loads,
//!    gap trajectories, epochs, resident tickets and observer events.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::model::router::ReleaseEvent;
use parallel_balanced_allocations::model::{RouterObserver, Ticket, WireRequest};
use parallel_balanced_allocations::net::codec::{parse_canonical_line, parse_request, Request};
use parallel_balanced_allocations::net::{
    ReactorConfig, ReactorServer, Session, MAX_ADD_TIER, MAX_LINE_LEN,
};
use parallel_balanced_allocations::obs::MetricsRegistry;
use parallel_balanced_allocations::prelude::*;

// ---------------------------------------------------------------------------
// 1. Codec ≡ &str reference
// ---------------------------------------------------------------------------

/// The reference classification: decode as UTF-8 (the codec maps anything
/// else to `Bad`), then `split_ascii_whitespace` over the verb table.
fn reference_parse(line: &[u8]) -> Request {
    let Ok(text) = std::str::from_utf8(line) else {
        return Request::Bad;
    };
    let mut parts = text.split_ascii_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("ROUTE"), Some(key), None) => match key.parse::<u64>() {
            Ok(key) => Request::Route { key },
            Err(_) => Request::Bad,
        },
        (Some("RELEASE"), Some(id), None) => match id.parse::<u64>() {
            Ok(id) => Request::Release { id },
            Err(_) => Request::Bad,
        },
        (Some("ADD"), Some(weight), tier) => {
            let tier = match tier {
                None => Some(0u32),
                Some(t) => t.parse::<u32>().ok().filter(|&t| t <= MAX_ADD_TIER),
            };
            match (weight.parse::<f64>(), tier, parts.next()) {
                (Ok(weight), Some(tier), None) if weight.is_finite() && weight > 0.0 => {
                    Request::Add {
                        weight: weight * (1u64 << tier) as f64,
                    }
                }
                _ => Request::Bad,
            }
        }
        (Some("DRAIN"), Some(bin), None) => match bin.parse::<u32>() {
            Ok(bin) => Request::Drain { bin },
            Err(_) => Request::Bad,
        },
        (Some("REMOVE"), Some(bin), None) => match bin.parse::<u32>() {
            Ok(bin) => Request::Remove { bin },
            Err(_) => Request::Bad,
        },
        (Some("MIGRATE"), None, None) => Request::Migrate,
        (Some("FLUSH"), None, None) => Request::Flush,
        (Some("STATS"), None, None) => Request::Stats,
        _ => Request::Bad,
    }
}

/// Builds one pseudo-random request line: sometimes a well-formed verb,
/// sometimes a near-miss (bad number, trailing token, huge tier), sometimes
/// arbitrary bytes including non-UTF-8 and interior control characters.
fn arbitrary_line(rng: &mut SplitMix64) -> Vec<u8> {
    let verbs = [
        "ROUTE", "RELEASE", "ADD", "DRAIN", "REMOVE", "MIGRATE", "FLUSH", "STATS",
    ];
    let mut line = Vec::new();
    let pick = |rng: &mut SplitMix64, n: usize| (rng.next_u64() % n as u64) as usize;
    match rng.next_u64() % 7 {
        // Well-formed verb with plausible arguments.
        0 | 1 => {
            let verb = verbs[(rng.next_u64() % verbs.len() as u64) as usize];
            line.extend_from_slice(verb.as_bytes());
            match verb {
                "ROUTE" | "RELEASE" => {
                    line.push(b' ');
                    line.extend_from_slice(rng.next_u64().to_string().as_bytes());
                }
                "DRAIN" | "REMOVE" => {
                    line.push(b' ');
                    line.extend_from_slice((rng.next_u64() as u32).to_string().as_bytes());
                }
                "ADD" => {
                    line.push(b' ');
                    let weight = (rng.next_u64() % 1000) as f64 / 8.0;
                    line.extend_from_slice(format!("{weight}").as_bytes());
                    if rng.next_u64().is_multiple_of(2) {
                        line.push(b' ');
                        line.extend_from_slice((rng.next_u64() % 40).to_string().as_bytes());
                    }
                }
                _ => {}
            }
        }
        // Near-miss: right verb, wrong shape.
        2 | 3 => {
            let verb = verbs[(rng.next_u64() % verbs.len() as u64) as usize];
            line.extend_from_slice(verb.as_bytes());
            match rng.next_u64() % 4 {
                0 => line.extend_from_slice(b" not-a-number"),
                1 => line.extend_from_slice(b" 12 extra"),
                2 => line.extend_from_slice(b" -3"),
                _ => line.extend_from_slice(b"  "),
            }
        }
        // Arbitrary ASCII-ish soup with odd whitespace.
        4 => {
            let len = (rng.next_u64() % 40) as usize;
            for _ in 0..len {
                let c = match rng.next_u64() % 8 {
                    0 => b' ',
                    1 => b'\t',
                    2..=4 => b'A' + (rng.next_u64() % 26) as u8,
                    5 | 6 => b'0' + (rng.next_u64() % 10) as u8,
                    _ => b'!',
                };
                line.push(c);
            }
        }
        // The codec fast path's edges: canonical `ROUTE`/`RELEASE` lines and
        // every near miss — separators, digit counts around 20, `u64::MAX`
        // and one past it, zero padding, signs, and tails.
        6 => {
            line.extend_from_slice([&b"ROUTE"[..], b"RELEASE", b"route", b"ROUTE5"][pick(rng, 4)]);
            line.extend_from_slice([&b" "[..], b" ", b" ", b"  ", b"\t", b""][pick(rng, 6)]);
            let digits = 1 + pick(rng, 23);
            match pick(rng, 6) {
                0 => line.extend_from_slice(b"18446744073709551615"),
                1 => line.extend_from_slice(b"18446744073709551616"),
                2 => {
                    line.extend_from_slice(format!("{:0digits$}", rng.next_u64() % 1000).as_bytes())
                }
                3 => line.extend_from_slice([&b"+5"[..], b"-5", b""][pick(rng, 3)]),
                _ => line.extend((0..digits).map(|_| b'0' + pick(rng, 10) as u8)),
            }
            line.extend_from_slice([&b""[..], b"", b"", b"\r", b" ", b"x"][pick(rng, 6)]);
        }
        // Arbitrary bytes, frequently invalid UTF-8.
        _ => {
            let len = (rng.next_u64() % 32) as usize;
            for _ in 0..len {
                line.push((rng.next_u64() % 256) as u8);
            }
        }
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The byte-slice codec classifies every generated line exactly as the
    /// `&str` reference does.
    #[test]
    fn codec_matches_the_str_reference_parse(seed in 0u64..10_000) {
        let mut rng = SplitMix64::for_stream(seed, 0xc0dec, 0);
        for _ in 0..200 {
            let line = arbitrary_line(&mut rng);
            prop_assert_eq!(
                parse_request(&line),
                reference_parse(&line),
                "line {:?}",
                String::from_utf8_lossy(&line)
            );
            // The splitter's fast path, where it takes the line, agrees too.
            let terminated = [&line[..], b"\n"].concat();
            if let (false, Some(split)) = (line.contains(&b'\n'), parse_canonical_line(&terminated)) {
                prop_assert_eq!(split, (reference_parse(&line), terminated.len()));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. serve_wire ≡ looped decode + release
// ---------------------------------------------------------------------------

/// Records `(id, bin, load_after, resident)` per release event.
#[derive(Default)]
struct Tape {
    events: Vec<(u64, usize, u32, u64)>,
}

impl RouterObserver for Tape {
    fn on_release(&mut self, event: &ReleaseEvent) {
        self.events.push((
            event.ticket.id(),
            event.ticket.bin(),
            event.load_after,
            event.resident,
        ));
    }
}

/// A fresh taped router with `per` routed balls.
fn taped_router(
    bins: usize,
    per: u64,
    seed: u64,
) -> (ConcurrentRouter, Vec<Ticket>, Arc<Mutex<Tape>>) {
    let router = ConcurrentRouter::new(
        StreamConfig::new(bins)
            .batch_size(bins)
            .seed(seed)
            .shards(4),
    );
    let tape = Arc::new(Mutex::new(Tape::default()));
    router.add_observer(Arc::clone(&tape) as Arc<Mutex<dyn RouterObserver + Send>>);
    let mut rng = SplitMix64::for_stream(seed, 0x7e57, 1);
    let keys: Vec<u64> = (0..per).map(|_| rng.next_u64()).collect();
    let tickets = router
        .route_many(&keys)
        .expect("routing is infallible")
        .into_iter()
        .map(|p| p.ticket)
        .collect();
    (router, tickets, tape)
}

/// The wire ids of every resident ball of a [`taped_router`], in issue
/// order, with three ids spliced in at random places: a repeat, a
/// never-issued id and a stale one. The stale id is `tickets[victim]`'s,
/// released and then routed over until a new ball takes its slot; the
/// newcomers join `tickets`. Identically seeded routers and `rng`s build
/// identical streams.
fn wire_stream(
    router: &ConcurrentRouter,
    tickets: &mut Vec<Ticket>,
    victim: usize,
    rng: &mut SplitMix64,
) -> Vec<u64> {
    let gone = tickets.remove(victim);
    let stale = router.wire_id(&gone);
    router.release(gone).expect("resident");
    loop {
        let ticket = router
            .route(rng.next_u64())
            .expect("routing is infallible")
            .ticket;
        tickets.push(ticket);
        if router.wire_id(&ticket) >> 32 == stale >> 32 {
            break;
        }
    }
    let mut stream: Vec<u64> = tickets.iter().map(|t| router.wire_id(t)).collect();
    let repeat = stream[(rng.next_u64() % stream.len() as u64) as usize];
    let never_issued = (repeat >> 32) << 32 | 0xdead_beef;
    for id in [repeat, never_issued, stale] {
        let at = (rng.next_u64() % (stream.len() as u64 + 1)) as usize;
        stream.insert(at, id);
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A departure stream as wire ids, with a repeat, a never-issued
    /// id and a stale id in a reused slot spliced in, through arbitrary
    /// partitions into `serve_wire` runs of releases: the per-id outcomes,
    /// the observer events and the final loads are the loop's — decode each
    /// id (it names a resident ball or nothing), release what it names. The
    /// runs' events come from the grouped walk over each sub-group, cut
    /// wherever the partition cuts; the loop's from `release`.
    #[test]
    fn serve_wire_release_partitions_match_the_decode_and_release_loop(
        bins_exp in 2u32..6,
        per in 2u64..300,
        chunk_seed in 0u64..1_000,
        seed in 0u64..1_000,
    ) {
        let bins = 1usize << bins_exp;
        let victim = (chunk_seed % per) as usize;
        let (looped, mut tickets, loop_tape) = taped_router(bins, per, seed);
        let mut rng = SplitMix64::for_stream(seed, 0x3e1e, 5);
        let stream = wire_stream(&looped, &mut tickets, victim, &mut rng);
        let mut named: HashMap<u64, Ticket> =
            tickets.iter().map(|ticket| (looped.wire_id(ticket), *ticket)).collect();
        let loop_outcomes: Vec<Option<(u64, usize)>> = stream
            .iter()
            .map(|wire| {
                let ticket = named.remove(wire)?;
                looped.release(ticket).expect("a decoded ball releases");
                Some((ticket.id(), ticket.bin()))
            })
            .collect();

        let (fused, mut tickets2, fused_tape) = taped_router(bins, per, seed);
        let mut rng = SplitMix64::for_stream(seed, 0x3e1e, 5);
        prop_assert_eq!(&wire_stream(&fused, &mut tickets2, victim, &mut rng), &stream);
        let mut chunk_rng = SplitMix64::for_stream(chunk_seed, 0xc41a, 2);
        let stream: Vec<WireRequest> = stream.into_iter().map(WireRequest::Release).collect();
        let mut outcomes = Vec::new();
        let mut out = Vec::new();
        let mut at = 0usize;
        while at < stream.len() {
            let hi = (at + 1 + (chunk_rng.next_u64() % 97) as usize).min(stream.len());
            fused.serve_wire(&stream[at..hi], &mut out);
            outcomes.extend(out.iter().map(|ticket| ticket.map(|t| (t.id(), t.bin()))));
            at = hi;
        }
        prop_assert_eq!(outcomes.iter().filter(|o| o.is_none()).count(), 3);
        prop_assert_eq!(&outcomes, &loop_outcomes);
        prop_assert_eq!(
            &loop_tape.lock().unwrap().events,
            &fused_tape.lock().unwrap().events
        );
        prop_assert_eq!(looped.loads(), fused.loads());
        prop_assert!(fused.conserves_balls());
        prop_assert_eq!(fused.resident(), 0);
    }
}

// ---------------------------------------------------------------------------
// 3. Pipelined serving stress
// ---------------------------------------------------------------------------

/// One pipelined client: routes `keys` in windows, then releases every
/// issued ticket the same way; returns the ids it was issued.
fn pipelined_client(
    addr: std::net::SocketAddr,
    seed: u64,
    stream_id: u64,
    keys: u64,
    window: usize,
) -> Vec<u64> {
    let raw = TcpStream::connect(addr).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let mut writer = raw.try_clone().expect("clone");
    let mut reader = BufReader::new(raw);
    let mut rng = SplitMix64::for_stream(seed, 0x57e5, stream_id);
    let mut ids = Vec::with_capacity(keys as usize);
    let mut line = String::new();
    let mut sent = 0u64;
    while sent < keys {
        let take = window.min((keys - sent) as usize);
        let mut request = String::new();
        for _ in 0..take {
            use std::fmt::Write as _;
            let _ = writeln!(request, "ROUTE {}", rng.next_u64());
        }
        writer.write_all(request.as_bytes()).expect("write routes");
        for _ in 0..take {
            line.clear();
            assert_ne!(
                reader.read_line(&mut line).expect("reply"),
                0,
                "server hung up"
            );
            let id: u64 = line
                .trim_end()
                .rsplit(' ')
                .next()
                .and_then(|id| id.parse().ok())
                .expect("OK <bin> <id>");
            ids.push(id);
        }
        sent += take as u64;
    }
    let mut released = 0usize;
    while released < ids.len() {
        let take = window.min(ids.len() - released);
        let mut request = String::new();
        for id in &ids[released..released + take] {
            use std::fmt::Write as _;
            let _ = writeln!(request, "RELEASE {id}");
        }
        writer
            .write_all(request.as_bytes())
            .expect("write releases");
        for _ in 0..take {
            line.clear();
            assert_ne!(
                reader.read_line(&mut line).expect("reply"),
                0,
                "server hung up"
            );
            assert!(line.starts_with("OK "), "release reply: {line:?}");
        }
        released += take;
    }
    ids
}

/// k pipelined connections against one reactor server: every ball routed is
/// released, the drop ledger stays empty, and the request counter accounts
/// for every line.
#[test]
fn pipelined_connections_conserve_and_drop_nothing() {
    for (connections, per) in [(6u64, 200u64), (64, 40)] {
        pipelined_connections(connections, per);
    }
}

fn pipelined_connections(connections: u64, per: u64) {
    let (window, seed) = (17usize, 41u64);
    let registry = Arc::new(MetricsRegistry::new());
    let router = ConcurrentRouter::with_metrics(
        StreamConfig::new(32).batch_size(32).seed(seed).shards(4),
        Arc::clone(&registry),
    );
    let server = ReactorServer::start(router, ReactorConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let all_ids: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| scope.spawn(move || pipelined_client(addr, seed, c, per, window)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    // Ids are unique across connections: the ticket ledger issued each once.
    let mut flat: Vec<u64> = all_ids.into_iter().flatten().collect();
    flat.sort_unstable();
    flat.dedup();
    assert_eq!(flat.len() as u64, connections * per, "no id issued twice");
    assert!(server.router().conserves_balls());
    assert_eq!(server.router().resident(), 0, "every ball released");
    server.shutdown();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("route.routed"), connections * per);
    assert_eq!(snap.counter("route.released"), connections * per);
    assert_eq!(snap.counter("server.requests"), 2 * connections * per);
    assert_eq!(snap.counter("server.bad_request"), 0);
    assert_eq!(snap.counter("server.unknown_ticket"), 0);
    assert_eq!(snap.counter("route.rejected_unknown_ticket"), 0);
}

/// The same stress through the portable fallback poller: identical
/// invariants, so the non-epoll path serves correctly too.
#[test]
fn pipelined_stress_on_the_fallback_poller() {
    let (connections, per, window, seed) = (3u64, 120u64, 11usize, 43u64);
    let registry = Arc::new(MetricsRegistry::new());
    let router = ConcurrentRouter::with_metrics(
        StreamConfig::new(16).batch_size(16).seed(seed).shards(4),
        Arc::clone(&registry),
    );
    let config = ReactorConfig {
        force_fallback_poller: true,
        ..ReactorConfig::default()
    };
    let server = ReactorServer::start(router, config).expect("bind loopback");
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for c in 0..connections {
            scope.spawn(move || pipelined_client(addr, seed, c, per, window));
        }
    });
    assert!(server.router().conserves_balls());
    assert_eq!(server.router().resident(), 0);
    server.shutdown();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("route.routed"), connections * per);
    assert_eq!(snap.counter("server.bad_request"), 0);
}

// ---------------------------------------------------------------------------
// 4. Chunking immunity
// ---------------------------------------------------------------------------

/// The router every served stream runs against.
fn serving_router(seed: u64) -> ConcurrentRouter {
    ConcurrentRouter::new(StreamConfig::new(16).batch_size(16).seed(seed).shards(4))
}

/// Feeds `stream` to a session over a fresh router, cut at `cuts` (sorted
/// offsets), and returns the concatenated reply bytes plus the router's
/// final state. Wire ids name ledger slots deterministically, so identically
/// seeded routers issue identical ids for identical keys.
fn serve_chunked(seed: u64, stream: &[u8], cuts: &[usize]) -> (Vec<u8>, RouterStats, Vec<u32>) {
    let mut session = Session::new(serving_router(seed));
    let mut conn = session.connect();
    let mut replies = Vec::new();
    let mut at = 0usize;
    for &cut in cuts.iter().chain(std::iter::once(&stream.len())) {
        session.feed(&mut conn, &stream[at..cut], &mut replies);
        at = cut;
    }
    let router = session.router();
    (replies, router.stats(), router.loads())
}

/// A session fed one line per `feed`, to learn the wire id each `ROUTE`
/// of a stream under construction is issued — what a client learns from its
/// replies before it sends a `RELEASE`.
struct Planner {
    session: Session,
    conn: parallel_balanced_allocations::net::ConnState,
}

impl Planner {
    fn new(router: ConcurrentRouter) -> Self {
        let session = Session::new(router);
        let conn = session.connect();
        Self { session, conn }
    }

    /// Feeds one line; returns its reply line without the newline.
    fn say(&mut self, line: &[u8]) -> String {
        let mut reply = Vec::new();
        self.session.feed(&mut self.conn, line, &mut reply);
        String::from_utf8(reply)
            .expect("ASCII replies")
            .trim_end()
            .to_string()
    }

    /// Feeds `ROUTE key`; returns the issued wire id.
    fn route(&mut self, line: &str) -> u64 {
        let reply = self.say(line.as_bytes());
        reply
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .expect("OK <bin> <id>")
    }
}

/// One valid mixed request stream: ROUTE runs split by a STATS and by one
/// oversized line, an interleaved run (each further ROUTE followed by the
/// RELEASE of the oldest held id), then RELEASE runs of every id still held
/// with a bogus id spliced in, a FLUSH, and a final STATS. Returns the bytes
/// and the span of the oversized line.
fn mixed_stream(seed: u64, routes: usize) -> (Vec<u8>, std::ops::Range<usize>) {
    let mut rng = SplitMix64::for_stream(seed, 0xc4a7, 3);
    let route_lines: Vec<String> = (0..routes)
        .map(|_| format!("ROUTE {}\n", rng.next_u64()))
        .collect();
    let mut planner = Planner::new(serving_router(seed));
    let mut held = std::collections::VecDeque::new();
    let mut stream = Vec::new();
    for line in &route_lines[..routes / 2] {
        held.push_back(planner.route(line));
        stream.extend_from_slice(line.as_bytes());
    }
    stream.extend_from_slice(b"STATS\n");
    planner.say(b"STATS\n");
    let oversized_start = stream.len();
    stream.extend(std::iter::repeat_n(b'x', MAX_LINE_LEN * 2 + 37));
    stream.push(b'\n');
    let oversized = oversized_start..stream.len();
    planner.say(&stream[oversized.clone()]);
    for line in &route_lines[routes / 2..] {
        held.push_back(planner.route(line));
        stream.extend_from_slice(line.as_bytes());
        let release = format!("RELEASE {}\n", held.pop_front().expect("held"));
        planner.say(release.as_bytes());
        stream.extend_from_slice(release.as_bytes());
    }
    let tail = held.len();
    for (i, id) in held.into_iter().enumerate() {
        if i == tail / 3 {
            stream.extend_from_slice(b"RELEASE 18446744073709551615\n");
        }
        if i == 2 * tail / 3 {
            stream.extend_from_slice(b"FLUSH\n");
        }
        stream.extend_from_slice(format!("RELEASE {id}\n").as_bytes());
    }
    stream.extend_from_slice(b"STATS\n");
    (stream, oversized)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary chunkings of one request stream — single bytes, cuts inside
    /// a verb, inside a number, inside the oversized line — produce the
    /// one-chunk run's reply bytes and final router state exactly.
    #[test]
    fn arbitrary_chunkings_produce_the_identical_reply_stream(
        seed in 0u64..1_000,
        routes in 8usize..120,
        chunk_seed in 0u64..10_000,
    ) {
        let (stream, oversized) = mixed_stream(seed, routes);
        let whole = serve_chunked(seed, &stream, &[]);
        // The stream is well-formed apart from its two deliberate abuses.
        let text = std::str::from_utf8(&whole.0).expect("ASCII replies");
        prop_assert_eq!(text.lines().count(), 2 * routes + 5, "one reply per line");
        prop_assert_eq!(text.matches("ERR bad-request").count(), 1);
        prop_assert_eq!(text.matches("ERR unknown-ticket").count(), 1);
        prop_assert_eq!(whole.1.routed, routes as u64);
        prop_assert_eq!(whole.1.resident, 0);

        // Random cuts at three scales (bytes, lines, many lines), plus one
        // forced inside the first verb and two inside the oversized line —
        // before and after the point where the cap is crossed.
        let mut rng = SplitMix64::for_stream(chunk_seed, 0xc4a7, 4);
        let mut cuts = vec![
            3,
            oversized.start + MAX_LINE_LEN / 2,
            oversized.start + MAX_LINE_LEN + 300,
        ];
        let mut at = 0usize;
        loop {
            at += 1 + (rng.next_u64() % [7, 90, 2_500][(rng.next_u64() % 3) as usize]) as usize;
            if at >= stream.len() {
                break;
            }
            cuts.push(at);
        }
        cuts.sort_unstable();
        cuts.dedup();
        let chunked = serve_chunked(seed, &stream, &cuts);
        prop_assert!(chunked.0 == whole.0, "reply bytes differ under cuts {:?}", cuts);
        prop_assert_eq!(chunked.1, whole.1);
        prop_assert_eq!(chunked.2, whole.2);
    }
}

// ---------------------------------------------------------------------------
// 5. One protocol, three transports
// ---------------------------------------------------------------------------

/// Writes `stream` whole to a reactor over a fresh [`serving_router`], reads
/// back `lines` reply lines, and returns their bytes plus the router's final
/// state.
fn serve_over_tcp(
    seed: u64,
    stream: &[u8],
    lines: usize,
    config: ReactorConfig,
) -> (Vec<u8>, RouterStats, Vec<u32>) {
    let server = ReactorServer::start(serving_router(seed), config).expect("bind loopback");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    raw.write_all(stream).expect("write the stream");
    let mut replies = Vec::new();
    for _ in 0..lines {
        let n = reader.read_until(b'\n', &mut replies).expect("reply");
        assert_ne!(n, 0, "server hung up");
    }
    let router = server.router();
    let state = (replies, router.stats(), router.loads());
    server.shutdown();
    state
}

/// The mixed stream — ROUTE and RELEASE runs, STATS, FLUSH, a bogus id and
/// an oversized line — gets the same reply bytes and router state from the
/// in-process `Session`, the reactor on the platform poller and the reactor
/// on the fallback poller. The transport moves bytes; it never changes an
/// answer.
#[test]
fn the_reactor_on_either_poller_replies_byte_for_byte_as_the_session() {
    for (seed, routes) in [(29u64, 8usize), (30, 57), (31, 120)] {
        let (stream, _) = mixed_stream(seed, routes);
        let session = serve_chunked(seed, &stream, &[]);
        for force_fallback_poller in [false, true] {
            let config = ReactorConfig {
                force_fallback_poller,
                ..ReactorConfig::default()
            };
            let reactor = serve_over_tcp(seed, &stream, 2 * routes + 5, config);
            assert!(
                reactor.0 == session.0,
                "seed {seed}, fallback poller {force_fallback_poller}: reply bytes differ\n\
                 reactor: {:?}\nsession: {:?}",
                String::from_utf8_lossy(&reactor.0),
                String::from_utf8_lossy(&session.0)
            );
            assert_eq!(reactor.1, session.1, "seed {seed}: router stats");
            assert_eq!(reactor.2, session.2, "seed {seed}: loads");
        }
    }
}

// ---------------------------------------------------------------------------
// 6. A mixed run is one call, exactly
// ---------------------------------------------------------------------------

/// Every observer event, in order, as text.
#[derive(Default)]
struct EventLog(Vec<String>);

impl RouterObserver for EventLog {
    fn on_route(&mut self, e: &parallel_balanced_allocations::model::router::RouteEvent) {
        let (id, bin) = (e.ticket.id(), e.ticket.bin());
        self.0
            .push(format!("route {} {id} {bin} {}", e.key, e.resident));
    }

    fn on_release(&mut self, e: &ReleaseEvent) {
        let (id, bin) = (e.ticket.id(), e.ticket.bin());
        self.0.push(format!(
            "release {id} {bin} {} {}",
            e.load_after, e.resident
        ));
    }

    fn on_batch(&mut self, e: &parallel_balanced_allocations::model::router::BatchEvent<'_>) {
        self.0.push(format!(
            "batch {} {} {:?} {} {}",
            e.batch_index, e.batch_len, e.loads, e.gap, e.resident
        ));
    }

    fn on_membership(
        &mut self,
        e: &parallel_balanced_allocations::model::router::MembershipChange<'_>,
    ) {
        self.0.push(format!(
            "membership {} {:?} {:?} {:?}",
            e.batch_index, e.drained, e.removed, e.active
        ));
    }
}

/// The router shape of one exactness case: 16 bins, batch 3, 16 or 50,
/// 1, 4 or 8 shards, two-choice or a threshold policy (whose batches price
/// at their first route, after the releases ahead of it).
fn exactness_router(shape: usize, seed: u64) -> ConcurrentRouter {
    let policy = match shape % 2 {
        0 => StreamPolicy::TwoChoice,
        _ => StreamPolicy::Threshold { d: 2, slack: 1 },
    };
    let batch = [3, 16, 50][shape / 2 % 3];
    let shards = [1, 4, 8][shape / 6 % 3];
    let config = StreamConfig::new(16)
        .policy(policy)
        .batch_size(batch)
        .shards(shards)
        .seed(seed);
    ConcurrentRouter::new(config)
}

/// A random stream of interleaved `ROUTE`/`RELEASE` runs split by `DRAIN`,
/// `REMOVE`, `MIGRATE`, `FLUSH` and `STATS` lines. Releases name ids issued
/// earlier — often earlier in the same run — and repeats, bogus ids, and ids
/// sent a few lines before the route that is issued them (which name nothing
/// yet, so the stream stays what its planner saw).
fn interleaved_stream(shape: usize, seed: u64, lines: usize) -> Vec<u8> {
    let mut rng = SplitMix64::for_stream(seed, 0x1e7e, 6);
    let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut planner = Planner::new(exactness_router(shape, seed));
    let (mut held, mut gone) = (Vec::new(), Vec::new());
    let mut issued = Vec::new(); // (line, id) of every route
    let mut stream: Vec<String> = Vec::new();
    while stream.len() < lines {
        let line = match below(100) {
            45..=79 if !held.is_empty() => {
                let id: u64 = held.swap_remove(below(held.len()));
                gone.push(id);
                format!("RELEASE {id}\n")
            }
            80..=84 if !gone.is_empty() => format!("RELEASE {}\n", gone[below(gone.len())]),
            85..=87 => format!("RELEASE {}\n", below(usize::MAX) as u64),
            88 => format!("DRAIN {}\n", below(16)),
            89 => format!("REMOVE {}\n", below(16)),
            90 => "MIGRATE\n".to_string(),
            91 => "FLUSH\n".to_string(),
            92 => "STATS\n".to_string(),
            _ => format!("ROUTE {}\n", below(1 << 40)),
        };
        if line.starts_with("ROUTE") {
            let id = planner.route(&line);
            held.push(id);
            issued.push((stream.len(), id));
        } else {
            planner.say(line.as_bytes());
        }
        stream.push(line);
    }
    let mut early: Vec<(usize, u64)> = (0..lines / 10)
        .filter(|_| !issued.is_empty())
        .map(|_| {
            let (at, id) = issued[below(issued.len())];
            (at - below(at.min(8) + 1), id)
        })
        .collect();
    early.sort_unstable_by(|a, b| b.cmp(a));
    for (at, id) in early {
        stream.insert(at, format!("RELEASE {id}\n"));
    }
    stream.concat().into_bytes()
}

/// Everything the exactness check compares, after `stream` is fed to a
/// fresh [`exactness_router`] whole (one chunk: every run one `serve_wire`
/// call) or one line per `feed`.
fn served_state(shape: usize, seed: u64, stream: &[u8], whole: bool, observe: bool) -> String {
    let router = exactness_router(shape, seed);
    let log = Arc::new(Mutex::new(EventLog::default()));
    if observe {
        router.add_observer(Arc::clone(&log) as Arc<Mutex<dyn RouterObserver + Send>>);
    }
    let mut session = Session::new(router.clone());
    let mut conn = session.connect();
    let mut replies = Vec::new();
    if whole {
        session.feed(&mut conn, stream, &mut replies);
    } else {
        for line in stream.split_inclusive(|&b| b == b'\n') {
            session.feed(&mut conn, line, &mut replies);
        }
    }
    format!(
        "replies {}\nstats {:?}\nloads {:?}\ngaps {:?}\nepoch {} tickets {}\nevents {:?}",
        String::from_utf8(replies).expect("ASCII replies"),
        router.stats(),
        router.loads(),
        router.gap_trajectory(),
        router.snapshot_epoch(),
        router.resident_tickets(),
        log.lock().unwrap().0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stream fed whole — each maximal `ROUTE`/`RELEASE` run one
    /// `serve_wire` call, in sub-groups that cross batch boundaries — leaves
    /// exactly the state the same stream leaves fed one line per `feed`:
    /// reply bytes, stats, loads, the gap trajectory, the snapshot epoch, the resident tickets and, with an
    /// observer attached, its event stream. Both sides tell events by the
    /// same grouped walk, over sub-groups cut differently: whole runs, or
    /// runs of one line.
    #[test]
    fn a_mixed_run_served_whole_matches_one_line_per_feed(
        shape in 0usize..36,
        lines in 20usize..400,
        seed in 0u64..10_000,
    ) {
        let (shape, observe) = (shape % 18, shape >= 18);
        let stream = interleaved_stream(shape, seed, lines);
        let whole = served_state(shape, seed, &stream, true, observe);
        let one_by_one = served_state(shape, seed, &stream, false, observe);
        prop_assert!(whole == one_by_one, "whole:\n{}\none line per feed:\n{}", whole, one_by_one);
    }
}
