//! The committed **serving-path trajectory**: microbenchmarks of the
//! reactor front-end rendered as tables for `BENCH_serve.json` (written by
//! the `bench_snapshot` binary, drift-checked by its `--check` mode).
//!
//! Four tables:
//!
//! * **CODEC** — ns per request line through the zero-allocation byte-slice
//!   codec (`pba_net::codec`): parse-only over a representative request mix,
//!   render-only over the reply writers, and the combined round trip. This
//!   is the pure CPU cost of the protocol, no sockets.
//! * **SERVE** — end-to-end req/s through a live [`ReactorServer`] at
//!   1/4/16/64 pipelining connections, every connection routing then
//!   releasing its keys in pipelined windows. Conservation and the
//!   no-silent-drops ledger are asserted per row.
//! * **RELEASE** — per-ticket cost of looped `release` vs grouped
//!   `release_many` at group sizes 1/64/256 on one [`ConcurrentRouter`]
//!   handle: the departure-side twin of the ROUTE table in
//!   [`crate::route_bench`]. The grouped surface redeems whole ledger shards
//!   under one lock and decrements bins in grouped atomic passes, so its
//!   per-ticket cost must fall as the group grows; the observer-visible
//!   event stream is asserted bit-identical to the looped run.
//! * **GUARD** — one protocol, three transports: the *same* deterministic
//!   pipelined session driven through a [`Session`] in-process (no socket at
//!   all), through the [`ReactorServer`] on the platform poller, and through
//!   the reactor on the portable fallback poller, asserting byte-identical
//!   reply streams and identical router statistics. The transport moves
//!   bytes; it never changes an answer.
//!
//! Timing columns (ns/op, req/s, ratios) are machine-dependent — on a 1-core
//! container reactor threads and clients serialise — so the committed
//! snapshot is compared structurally: [`structural_fingerprint`] keeps the
//! workload-shape and invariant columns and drops every timing cell.
//!
//! [`ReactorServer`]: pba_net::ReactorServer
//! [`Session`]: pba_net::Session
//! [`ConcurrentRouter`]: pba_stream::ConcurrentRouter

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pba_model::rng::SplitMix64;
use pba_model::router::{ReleaseEvent, RouterObserver, Ticket};
use pba_net::codec::{
    parse_request, write_err_unknown_ticket, write_ok_bin, write_ok_route, write_stats, Request,
};
use pba_net::{ReactorConfig, ReactorServer, Session};
use pba_obs::{drops_of, MetricsRegistry};
use pba_stats::{Align, Cell, Table};
use pba_stream::{ConcurrentRouter, StreamConfig};

/// Bins (= batch size) of the benchmark router.
const BINS: usize = 256;

/// Keys routed/released per benchmark unit (quick / full).
fn per_unit(quick: bool) -> u64 {
    if quick {
        32 * 1024
    } else {
        256 * 1024
    }
}

// ---------------------------------------------------------------------------
// CODEC
// ---------------------------------------------------------------------------

/// The CODEC table: parse / render / round-trip cost per request line.
pub fn codec_cost(quick: bool) -> Table {
    codec_cost_sized(per_unit(quick))
}

fn codec_cost_sized(iterations: u64) -> Table {
    let mut table = Table::with_alignments(
        "CODEC: zero-alloc protocol codec — ns per request line (timing smoke on 1-core)",
        &[
            ("op", Align::Left),
            ("lines", Align::Right),
            ("wall ms", Align::Right),
            ("ns/line", Align::Right),
            ("parsed ok", Align::Left),
        ],
    );
    // A representative request mix, ROUTE/RELEASE-heavy like real serving
    // traffic, with one malformed line so the error path is priced in.
    let lines: &[&[u8]] = &[
        b"ROUTE 8412974097",
        b"RELEASE 90833",
        b"ROUTE 17",
        b"RELEASE 18446744073709551615",
        b"ROUTE 4096",
        b"STATS",
        b"ROUTE notanumber",
        b"FLUSH",
    ];
    // Parse-only: every line through `parse_request`, accumulating a checksum
    // so the loop cannot be optimised away.
    let mut ok = 0u64;
    let start = Instant::now();
    for i in 0..iterations {
        let line = lines[(i % lines.len() as u64) as usize];
        if !matches!(parse_request(line), Request::Bad) {
            ok += 1;
        }
    }
    let parse_s = start.elapsed().as_secs_f64();
    // One line of the 8-line mix is malformed, so with `iterations` a
    // multiple of the mix length exactly 7/8 of the lines parse.
    debug_assert_eq!(iterations % lines.len() as u64, 0);
    let expect_ok = iterations / lines.len() as u64 * (lines.len() as u64 - 1);
    table.push_row([
        Cell::from("parse"),
        Cell::from(iterations),
        Cell::from(parse_s * 1e3),
        Cell::from(parse_s * 1e9 / iterations as f64),
        Cell::from(if ok == expect_ok { "yes" } else { "NO" }),
    ]);
    // Render-only: the reply writers into one reusable buffer, cleared per
    // reply like the reactor clears per flush.
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    let start = Instant::now();
    let mut bytes = 0u64;
    for i in 0..iterations {
        buf.clear();
        match i % 4 {
            0 => write_ok_route(&mut buf, (i % 256) as usize, i),
            1 => write_ok_bin(&mut buf, (i % 256) as usize),
            2 => write_stats(&mut buf, i, i / 2, i / 2, i / 256),
            _ => write_err_unknown_ticket(&mut buf),
        }
        bytes += buf.len() as u64;
    }
    let render_s = start.elapsed().as_secs_f64();
    table.push_row([
        Cell::from("render"),
        Cell::from(iterations),
        Cell::from(render_s * 1e3),
        Cell::from(render_s * 1e9 / iterations as f64),
        Cell::from(if bytes > 0 { "yes" } else { "NO" }),
    ]);
    // Round trip: parse a line, render the matching reply — the codec's
    // whole share of one served request.
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    let start = Instant::now();
    let mut ok = 0u64;
    for i in 0..iterations {
        let line = lines[(i % lines.len() as u64) as usize];
        buf.clear();
        match parse_request(line) {
            Request::Route { key } => write_ok_route(&mut buf, (key % 256) as usize, i),
            Request::Release { id } => write_ok_bin(&mut buf, (id % 256) as usize),
            Request::Stats => write_stats(&mut buf, i, i, 0, i / 256),
            _ => write_err_unknown_ticket(&mut buf),
        }
        if !buf.is_empty() {
            ok += 1;
        }
    }
    let round_s = start.elapsed().as_secs_f64();
    table.push_row([
        Cell::from("parse+render"),
        Cell::from(iterations),
        Cell::from(round_s * 1e3),
        Cell::from(round_s * 1e9 / iterations as f64),
        Cell::from(if ok == iterations { "yes" } else { "NO" }),
    ]);
    table
}

// ---------------------------------------------------------------------------
// SERVE
// ---------------------------------------------------------------------------

/// Drives one pipelined route-then-release session over a raw socket:
/// `keys` ROUTE lines written `window` at a time (replies read back before
/// the next window), then the issued ids released the same way. Returns the
/// ids issued, in reply order.
fn pipelined_session(
    addr: std::net::SocketAddr,
    seed: u64,
    stream_id: u64,
    keys: u64,
    window: usize,
) -> std::io::Result<Vec<u64>> {
    let raw = TcpStream::connect(addr)?;
    raw.set_nodelay(true)?;
    let mut writer = raw.try_clone()?;
    let mut reader = BufReader::new(raw);
    let mut rng = SplitMix64::for_stream(seed, 0x5e7e, stream_id);
    let mut ids = Vec::with_capacity(keys as usize);
    let mut request = String::new();
    let mut line = String::new();
    let mut sent = 0u64;
    while sent < keys {
        let take = window.min((keys - sent) as usize);
        request.clear();
        for _ in 0..take {
            use std::fmt::Write as _;
            let _ = writeln!(request, "ROUTE {}", rng.next_u64());
        }
        writer.write_all(request.as_bytes())?;
        for _ in 0..take {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let id: u64 = line
                .trim_end()
                .rsplit(' ')
                .next()
                .and_then(|id| id.parse().ok())
                .ok_or(std::io::ErrorKind::InvalidData)?;
            ids.push(id);
        }
        sent += take as u64;
    }
    let mut released = 0usize;
    while released < ids.len() {
        let take = window.min(ids.len() - released);
        request.clear();
        for id in &ids[released..released + take] {
            use std::fmt::Write as _;
            let _ = writeln!(request, "RELEASE {id}");
        }
        writer.write_all(request.as_bytes())?;
        for _ in 0..take {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            if !line.starts_with("OK ") {
                return Err(std::io::ErrorKind::InvalidData.into());
            }
        }
        released += take;
    }
    Ok(ids)
}

/// The SERVE table: end-to-end pipelined throughput through the reactor
/// front-end at 1/4/16/64 connections.
pub fn serve_throughput(quick: bool) -> Table {
    serve_throughput_sized(per_unit(quick) / 4)
}

fn serve_throughput_sized(total_keys: u64) -> Table {
    let seed = 19u64;
    let window = 64usize;
    let mut table = Table::with_alignments(
        "SERVE: reactor front-end — pipelined route+release req/s by connection count (timing smoke on 1-core)",
        &[
            ("connections", Align::Right),
            ("requests", Align::Right),
            ("wall ms", Align::Right),
            ("req/s", Align::Right),
            ("drops", Align::Right),
            ("conserved", Align::Left),
        ],
    );
    for connections in [1u64, 4, 16, 64] {
        let per_conn = (total_keys / connections).max(64);
        let registry = Arc::new(MetricsRegistry::new());
        let router = ConcurrentRouter::with_metrics(
            StreamConfig::new(BINS)
                .batch_size(BINS)
                .seed(seed)
                .shards(8),
            Arc::clone(&registry),
        );
        let server = ReactorServer::start(router, ReactorConfig::default()).expect("bind");
        let addr = server.local_addr();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..connections {
                scope.spawn(move || {
                    pipelined_session(addr, seed, c, per_conn, window).expect("pipelined session")
                });
            }
        });
        let seconds = start.elapsed().as_secs_f64();
        let requests = 2 * connections * per_conn;
        let conserved = server.router().conserves_balls() && server.router().resident() == 0;
        server.shutdown();
        table.push_row([
            Cell::from(connections),
            Cell::from(requests),
            Cell::from(seconds * 1e3),
            Cell::from(requests as f64 / seconds),
            Cell::from(drops_of(&registry.snapshot())),
            Cell::from(if conserved { "yes" } else { "NO" }),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// RELEASE
// ---------------------------------------------------------------------------

/// Records the observer-visible release stream: `(ticket id, bin,
/// load_after, resident)` per event — the bit-identity witness between
/// looped and grouped releases.
#[derive(Default)]
struct ReleaseTape {
    events: Vec<(u64, u32, u32, u64)>,
}

impl RouterObserver for ReleaseTape {
    fn on_release(&mut self, event: &ReleaseEvent) {
        self.events.push((
            event.ticket.id(),
            event.ticket.bin() as u32,
            event.load_after,
            event.resident,
        ));
    }
}

/// Routes `per` keys on a fresh instrumented router and returns the router,
/// its registry, the issued tickets (in route order) and — when `taped` —
/// an attached release tape.
fn seeded_router(
    per: u64,
    seed: u64,
    taped: bool,
) -> (
    ConcurrentRouter,
    Arc<MetricsRegistry>,
    Vec<Ticket>,
    Arc<Mutex<ReleaseTape>>,
) {
    let registry = Arc::new(MetricsRegistry::new());
    let router = ConcurrentRouter::with_metrics(
        StreamConfig::new(BINS)
            .batch_size(BINS)
            .seed(seed)
            .shards(8),
        Arc::clone(&registry),
    );
    let tape = Arc::new(Mutex::new(ReleaseTape::default()));
    if taped {
        router.add_observer(Arc::clone(&tape) as Arc<Mutex<dyn RouterObserver + Send>>);
    }
    let mut rng = SplitMix64::for_stream(seed, 0x7e1e, 0);
    let mut keys = Vec::with_capacity(per as usize);
    keys.extend((0..per).map(|_| rng.next_u64()));
    let tickets: Vec<Ticket> = router
        .route_many(&keys)
        .expect("infallible")
        .into_iter()
        .map(|p| p.ticket)
        .collect();
    (router, registry, tickets, tape)
}

/// The RELEASE table: looped `release` vs grouped `release_many` per-ticket
/// cost, with the observer event stream asserted bit-identical.
pub fn release_hot_path(quick: bool) -> Table {
    release_hot_path_sized(per_unit(quick))
}

fn release_hot_path_sized(per: u64) -> Table {
    let seed = 23u64;
    let mut table = Table::with_alignments(
        "RELEASE: departure hot path — release vs release_many ns per ticket (timing smoke on 1-core)",
        &[
            ("surface", Align::Left),
            ("released", Align::Right),
            ("wall ms", Align::Right),
            ("ns/op", Align::Right),
            ("vs release", Align::Right),
            ("drops", Align::Right),
            ("conserved", Align::Left),
            ("≡ looped release", Align::Left),
        ],
    );
    let mut reference: Option<Vec<(u64, u32, u32, u64)>> = None;
    let mut baseline_ns = 0.0f64;
    for (surface, group) in [
        ("release", 0usize),
        ("release_many(1)", 1),
        ("release_many(64)", 64),
        ("release_many(256)", 256),
    ] {
        // Bit-identity first, on a separate untimed pass with the recording
        // observer attached: the grouped surface must emit the exact release
        // event stream the looped surface emits. The timed passes then run
        // WITHOUT the observer so the per-event tape push does not dilute
        // the amortization being measured.
        let identity_per = per.min(8 * 1024);
        let identical = {
            let (router, _, tickets, tape) = seeded_router(identity_per, seed, true);
            tape.lock().expect("tape").events.clear();
            release_all(&router, &tickets, group);
            let events = std::mem::take(&mut tape.lock().expect("tape").events);
            assert_eq!(events.len(), identity_per as usize, "one event per release");
            *reference.get_or_insert_with(|| events.clone()) == events
        };
        // Warm-up pass, then best-of-5 timed passes on fresh
        // identically-seeded routers (each pass must depart from the same
        // resident state).
        {
            let (router, _, tickets, _) = seeded_router(per.min(4 * 1024), seed ^ 0x5eed, false);
            release_all(&router, &tickets, group);
        }
        let mut seconds = f64::INFINITY;
        let mut best: Option<(ConcurrentRouter, Arc<MetricsRegistry>)> = None;
        for _ in 0..5 {
            let (router, registry, tickets, _) = seeded_router(per, seed, false);
            // Only the departures are on the clock.
            let start = Instant::now();
            release_all(&router, &tickets, group);
            let pass = start.elapsed().as_secs_f64();
            if pass < seconds {
                seconds = pass;
                best = Some((router, registry));
            }
        }
        let (router, registry) = best.expect("five passes ran");
        let ns = seconds * 1e9 / per as f64;
        if group == 0 {
            baseline_ns = ns;
        }
        table.push_row([
            Cell::from(surface),
            Cell::from(per),
            Cell::from(seconds * 1e3),
            Cell::from(ns),
            Cell::from(format!("{:.2}x", ns / baseline_ns)),
            Cell::from(drops_of(&registry.snapshot())),
            Cell::from(if router.conserves_balls() && router.resident() == 0 {
                "yes"
            } else {
                "NO"
            }),
            Cell::from(if identical { "yes" } else { "NO" }),
        ]);
    }
    table
}

/// Releases every ticket: `group == 0` loops `release`, `group ≥ 1` calls
/// `release_many` in groups of that size.
fn release_all(router: &ConcurrentRouter, tickets: &[Ticket], group: usize) {
    if group == 0 {
        for &ticket in tickets {
            router.release(ticket).expect("issued ticket releases");
        }
    } else {
        for chunk in tickets.chunks(group) {
            router.release_many(chunk).expect("issued tickets release");
        }
    }
}

// ---------------------------------------------------------------------------
// GUARD
// ---------------------------------------------------------------------------

/// Drives one deterministic mixed pipeline (ROUTE runs, RELEASE runs, STATS
/// and FLUSH interleaved) and returns the full reply stream. `exchange`
/// is the transport: it delivers one pipelined request window and returns
/// the reply lines (`expect` of them) that window produced.
fn guard_session(
    seed: u64,
    keys: u64,
    mut exchange: impl FnMut(&str, usize) -> std::io::Result<String>,
) -> std::io::Result<String> {
    use std::fmt::Write as _;
    let mut rng = SplitMix64::for_stream(seed, 0x6a5d, 0);
    let window = 32usize;
    let mut replies = String::new();
    let mut ids: Vec<u64> = Vec::new();
    let mut sent = 0u64;
    while sent < keys {
        let take = window.min((keys - sent) as usize);
        let mut request = String::new();
        for _ in 0..take {
            let _ = writeln!(request, "ROUTE {}", rng.next_u64());
        }
        // Every window ends with a STATS probe riding the same pipeline, so
        // the guard also pins the interleaving of batched and single verbs.
        request.push_str("STATS\n");
        let reply = exchange(&request, take + 1)?;
        for line in reply.lines().take(take) {
            let id: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|id| id.parse().ok())
                .ok_or(std::io::ErrorKind::InvalidData)?;
            ids.push(id);
        }
        replies.push_str(&reply);
        sent += take as u64;
    }
    replies.push_str(&exchange("FLUSH\n", 1)?);
    // Release everything in pipelined windows, with one bogus id spliced in
    // to pin the grouped-release error path to the looped semantics.
    ids.insert(ids.len() / 2, u64::MAX);
    for chunk in ids.chunks(window) {
        let mut request = String::new();
        for id in chunk {
            let _ = writeln!(request, "RELEASE {id}");
        }
        replies.push_str(&exchange(&request, chunk.len())?);
    }
    replies.push_str(&exchange("STATS\n", 1)?);
    Ok(replies)
}

/// The TCP transport of [`guard_session`]: write the window, read its reply
/// lines back.
fn guard_over_tcp(addr: std::net::SocketAddr, seed: u64, keys: u64) -> std::io::Result<String> {
    let raw = TcpStream::connect(addr)?;
    raw.set_nodelay(true)?;
    let mut writer = raw.try_clone()?;
    let mut reader = BufReader::new(raw);
    guard_session(seed, keys, |request, expect| {
        writer.write_all(request.as_bytes())?;
        let mut reply = String::new();
        for _ in 0..expect {
            if reader.read_line(&mut reply)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
        }
        Ok(reply)
    })
}

/// The GUARD table: the same deterministic session through an in-process
/// [`Session`] and through the reactor on both pollers, reply streams
/// asserted byte-identical.
pub fn server_guard(quick: bool) -> Table {
    server_guard_sized(per_unit(quick) / 8)
}

fn server_guard_sized(keys: u64) -> Table {
    let seed = 29u64;
    let mut table = Table::with_alignments(
        "GUARD: one protocol, three transports — identical session, identical replies (timing smoke on 1-core)",
        &[
            ("server", Align::Left),
            ("requests", Align::Right),
            ("wall ms", Align::Right),
            ("req/s", Align::Right),
            ("routed", Align::Right),
            ("released", Align::Right),
            ("drops", Align::Right),
            ("conserved", Align::Left),
            ("identical replies", Align::Left),
        ],
    );
    let mut reference: Option<String> = None;
    for kind in ["session", "reactor", "reactor-fallback"] {
        let registry = Arc::new(MetricsRegistry::new());
        let router = ConcurrentRouter::with_metrics(
            StreamConfig::new(BINS)
                .batch_size(BINS)
                .seed(seed)
                .shards(8),
            Arc::clone(&registry),
        );
        // Only the session itself is on the clock, never server start-up or
        // shutdown.
        let (replies, seconds) = if kind == "session" {
            let mut session = Session::new(router);
            let mut conn = session.connect();
            let start = Instant::now();
            let replies = guard_session(seed, keys, |request, _| {
                let mut reply = Vec::new();
                session.feed(&mut conn, request.as_bytes(), &mut reply);
                String::from_utf8(reply).map_err(|_| std::io::ErrorKind::InvalidData.into())
            });
            let seconds = start.elapsed().as_secs_f64();
            session.flush_latency(&mut conn);
            (replies, seconds)
        } else {
            let config = ReactorConfig {
                force_fallback_poller: kind == "reactor-fallback",
                ..ReactorConfig::default()
            };
            let server = ReactorServer::start(router, config).expect("bind loopback");
            let start = Instant::now();
            let replies = guard_over_tcp(server.local_addr(), seed, keys);
            let seconds = start.elapsed().as_secs_f64();
            server.shutdown();
            (replies, seconds)
        };
        let replies = replies.expect("guard session");
        let snap = registry.snapshot();
        let routed = snap.counter("route.routed");
        let released = snap.counter("route.released");
        // The session splices exactly one bogus RELEASE, so the expected
        // drop ledger is exactly 1 (server.unknown_ticket).
        let drops = drops_of(&registry.snapshot());
        let requests = keys + keys.div_ceil(32) + 1 + (keys + 1) + 1;
        let identical = *reference.get_or_insert_with(|| replies.clone()) == replies;
        table.push_row([
            Cell::from(kind),
            Cell::from(requests),
            Cell::from(seconds * 1e3),
            Cell::from(requests as f64 / seconds),
            Cell::from(routed),
            Cell::from(released),
            Cell::from(drops),
            Cell::from(if routed == keys && released == keys {
                "yes"
            } else {
                "NO"
            }),
            Cell::from(if identical { "yes" } else { "NO" }),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// Columns that are part of the committed snapshot's *structure* — workload
/// shape and invariants, never timing. `bench_snapshot -- --check` fails if
/// any of these cells drift from the committed `BENCH_serve.json`.
const STRUCTURAL_COLUMNS: &[&str] = &[
    "op",
    "lines",
    "parsed ok",
    "connections",
    "requests",
    "surface",
    "released",
    "routed",
    "server",
    "drops",
    "conserved",
    "≡ looped release",
    "identical replies",
];

/// Renders the timing-free fingerprint of the serving tables: title, column
/// list, and per row only the `STRUCTURAL_COLUMNS` cells.
pub fn structural_fingerprint(tables: &[&Table]) -> String {
    let mut out = String::new();
    for table in tables {
        out.push_str(table.title());
        out.push('|');
        let names = table.column_names();
        out.push_str(&names.join(","));
        for row in table.rows() {
            out.push('|');
            let cells: Vec<String> = row
                .iter()
                .zip(names.iter())
                .filter(|(_, name)| STRUCTURAL_COLUMNS.contains(name))
                .map(|(cell, name)| format!("{name}={}", cell.0))
                .collect();
            out.push_str(&cells.join(","));
        }
        out.push(';');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The structural invariants the committed snapshot pins, asserted on a
    /// small fresh run.
    #[test]
    fn serve_tables_hold_their_structural_invariants() {
        let codec = codec_cost_sized(4 * 1024);
        assert_eq!(codec.n_rows(), 3);
        for row in codec.rows() {
            assert_eq!(row[4].0, "yes", "codec op {} sane", row[0].0);
        }

        let release = release_hot_path_sized(2 * 1024);
        assert_eq!(release.n_rows(), 4, "release + 3 group sizes");
        for row in release.rows() {
            assert_eq!(row[5].0, "0", "drops on {}", row[0].0);
            assert_eq!(row[6].0, "yes", "conserved on {}", row[0].0);
            assert_eq!(
                row[7].0, "yes",
                "grouped release ≡ looped release on {}",
                row[0].0
            );
        }

        let guard = server_guard_sized(512);
        assert_eq!(guard.n_rows(), 3, "session, reactor, reactor-fallback");
        for row in guard.rows() {
            assert_eq!(row[6].0, "1", "exactly the spliced bogus release");
            assert_eq!(row[7].0, "yes", "conserved on {}", row[0].0);
            assert_eq!(row[8].0, "yes", "replies identical on {}", row[0].0);
        }

        let serve = serve_throughput_sized(2 * 1024);
        assert_eq!(serve.n_rows(), 4, "1/4/16/64 connections");
        for row in serve.rows() {
            assert_eq!(row[4].0, "0", "drops at {} connections", row[0].0);
            assert_eq!(row[5].0, "yes", "conserved at {} connections", row[0].0);
        }

        // The fingerprint is stable across runs (timing excluded).
        let again = release_hot_path_sized(2 * 1024);
        assert_eq!(
            structural_fingerprint(&[&release]),
            structural_fingerprint(&[&again])
        );
    }
}
