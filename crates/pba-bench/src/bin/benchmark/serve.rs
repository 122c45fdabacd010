//! The two serving workloads: a `ConcurrentRouter` behind a one-reactor
//! `ReactorServer` on loopback, driven closed-loop by one client thread over
//! two connections with one 64-request window in flight on each, against
//! 65 536 resident tickets (`m/n = 256`, the heavily loaded regime).
//!
//! `serve-pipelined` and `serve-interleaved` send the same requests, bytes
//! and syscalls; only the order inside a window differs — 32 `ROUTE` lines
//! then 32 `RELEASE` lines, or the two alternating — which decides whether
//! the reactor finds runs of 32 to hand to `route_many`/`release_many` or
//! runs of 1.
//!
//! The traced pass adds client-side spans to the live run and a **layer
//! replay**: the reactor's internals cannot be spanned from outside, so the
//! same request generator feeds the codec and the router in-process, with
//! the run grouping the reactor would use, and what the live run costs
//! beyond those spans is reported as `reactor.residual_ns_per_req`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use pba_model::rng::SplitMix64;
use pba_net::codec::{parse_request, push_u64, write_ok_bin, write_ok_route, Request};
use pba_net::{ReactorConfig, ReactorServer};
use pba_obs::{MetricsRegistry, MetricsSnapshot};
use pba_stream::{ConcurrentRouter, Policy, StreamConfig, Ticket};

use crate::affinity::{self, Confinement};
use crate::alloc_count;
use crate::metrics::Metrics;
use crate::pass::{loads_fnv, set_up, Outcome, PassTimes, Scale, TimedPass, Traced};
use crate::procfs;
use crate::stats;
use crate::trace::{Tracer, NO_SPAN};

pub const BINS: usize = 256;
pub const BATCH: usize = 256;
pub const SHARDS: usize = 8;
pub const ROUTER_SEED: u64 = 7;
/// Tickets resident throughout: preloaded, then released first-in-first-out
/// as fast as new ones are routed.
pub const RESIDENT: u64 = 65_536;
/// Requests per window, the unit of latency.
pub const WINDOW: usize = 64;
const CONNECTIONS: usize = 2;
/// Requests per nominal second of warm-up (2^20 at the default 16 s).
const WARMUP_PER_SECOND: u64 = 1 << 16;
/// Requests per nominal second the layer replay covers.
const REPLAY_PER_SECOND: u64 = 1 << 15;
/// The gap envelope `b/n + log2 n` of the batched model.
const GAP_ENVELOPE: f64 = (BATCH / BINS) as f64 + 8.0;
/// A count is cut into windows for two connections and sixteen slices.
const COUNT_MULTIPLE: u64 = (WINDOW * CONNECTIONS * stats::SLICES) as u64;

/// The order of requests inside a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// 32 `ROUTE` lines, then 32 `RELEASE` lines.
    Pipelined,
    /// `ROUTE` and `RELEASE` alternating line by line.
    Interleaved,
}

impl Mix {
    /// Length of the runs the reactor finds in a window.
    pub fn run_length(self) -> usize {
        match self {
            Mix::Pipelined => WINDOW / 2,
            Mix::Interleaved => 1,
        }
    }

    /// Timed requests per nominal second (20 971 520 and 16 777 216 at the
    /// default 16 s), sized so that the pass lasts about that long.
    fn requests_per_second(self) -> u64 {
        match self {
            Mix::Pipelined => 5 << 18,
            Mix::Interleaved => 1 << 20,
        }
    }
}

/// Is line `i` of a window a `ROUTE`? `None` is the preload: all of them.
fn is_route(mix: Option<Mix>, i: usize) -> bool {
    match mix {
        None => true,
        Some(Mix::Pipelined) => i < WINDOW / 2,
        Some(Mix::Interleaved) => i.is_multiple_of(2),
    }
}

pub fn router_config() -> StreamConfig {
    StreamConfig::new(BINS)
        .policy(Policy::TwoChoice)
        .batch_size(BATCH)
        .shards(SHARDS)
        .seed(ROUTER_SEED)
}

/// The no-silent-drops ledger: every rejection path of the serving stack has
/// a named counter, and on these workloads all of them must stay zero.
pub fn drops_of(snapshot: &MetricsSnapshot) -> u64 {
    snapshot.counter("route.rejected_unknown_ticket")
        + snapshot.counter("server.bad_request")
        + snapshot.counter("server.unknown_ticket")
        + snapshot.counter("ingress.late_arrivals")
        + snapshot.counter("observer.errors")
        + snapshot.sum_counters("policy.")
}

/// The request generator, shared by the live client and the layer replay so
/// both see the same stream: fresh uniform keys for `ROUTE`, the oldest
/// resident ids for `RELEASE`.
struct Requests {
    keys: SplitMix64,
    resident: VecDeque<u64>,
}

impl Requests {
    fn new(seed: u64) -> Self {
        Self {
            keys: SplitMix64::for_stream(seed, 0x5e7e, 0),
            resident: VecDeque::with_capacity(RESIDENT as usize + 4 * WINDOW),
        }
    }

    /// Renders one window into `out` (cleared first).
    fn window(&mut self, mix: Option<Mix>, out: &mut Vec<u8>) {
        out.clear();
        for i in 0..WINDOW {
            if is_route(mix, i) {
                out.extend_from_slice(b"ROUTE ");
                push_u64(out, self.keys.next_u64());
            } else {
                out.extend_from_slice(b"RELEASE ");
                let oldest = self
                    .resident
                    .pop_front()
                    .expect("resident set never drains");
                push_u64(out, oldest);
            }
            out.push(b'\n');
        }
    }
}

/// `OK <bin>[ <id>]` → `(bin, id)`; anything else is a failed operation.
fn parse_reply(line: &[u8], route: bool) -> Option<(u64, u64)> {
    let mut fields = std::str::from_utf8(line).ok()?.split(' ');
    if fields.next()? != "OK" {
        return None;
    }
    let bin: u64 = fields.next()?.parse().ok()?;
    let id = if route {
        fields.next()?.parse().ok()?
    } else {
        0
    };
    (fields.next().is_none() && bin < BINS as u64).then_some((bin, id))
}

struct Connection {
    stream: TcpStream,
    request: Vec<u8>,
    reply: Vec<u8>,
    sent_at: Instant,
    /// Index of the window in flight, and its span in a traced pass.
    window: u32,
    span: u32,
}

/// What the client counted on its own side of the wire.
#[derive(Debug, Default, Clone, Copy)]
struct ClientTotals {
    requests: u64,
    routed: u64,
    released: u64,
    failed_replies: u64,
    bytes_out: u64,
    bytes_in: u64,
}

/// A live server with its client connections.
struct Session {
    server: ReactorServer,
    registry: Arc<MetricsRegistry>,
    connections: Vec<Connection>,
    requests: Requests,
    totals: ClientTotals,
}

impl Session {
    /// Server up, connections open, resident set preloaded, warm-up done:
    /// everything `setup_s` pays for.
    fn ready(mix: Mix, seed: u64, scale: Scale) -> io::Result<Self> {
        let registry = Arc::new(MetricsRegistry::new());
        let router = ConcurrentRouter::with_metrics(router_config(), Arc::clone(&registry));
        let server = ReactorServer::start(
            router,
            ReactorConfig {
                reactors: 1,
                ..ReactorConfig::default()
            },
        )?;
        let mut connections = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            let stream = TcpStream::connect(server.local_addr())?;
            stream.set_nodelay(true)?;
            connections.push(Connection {
                stream,
                request: Vec::with_capacity(32 * WINDOW),
                reply: vec![0u8; 32 * WINDOW],
                sent_at: Instant::now(),
                window: 0,
                span: NO_SPAN,
            });
        }
        let mut session = Self {
            server,
            registry,
            connections,
            requests: Requests::new(seed),
            totals: ClientTotals::default(),
        };
        let mut untraced = Tracer::off();
        session.drive(None, RESIDENT / WINDOW as u64, None, &mut untraced)?;
        let warmup = scale.count(WARMUP_PER_SECOND, COUNT_MULTIPLE);
        session.drive(Some(mix), warmup / WINDOW as u64, None, &mut untraced)?;
        Ok(session)
    }

    /// Sends `windows` windows closed-loop: write A, write B, then read A's
    /// replies → write A's next window → the same for B, so one window is in
    /// flight on each connection and both threads stay busy.
    fn drive(
        &mut self,
        mix: Option<Mix>,
        windows: u64,
        mut pass: Option<&mut TimedPass>,
        tracer: &mut Tracer,
    ) -> io::Result<()> {
        let lanes = self.connections.len() as u64;
        for turn in 0..windows + lanes {
            let lane = (turn % lanes) as usize;
            if turn >= lanes {
                self.complete(lane, mix, pass.as_deref_mut(), tracer)?;
            }
            if turn < windows {
                self.send(lane, mix, turn as u32, tracer)?;
            }
        }
        Ok(())
    }

    fn send(
        &mut self,
        lane: usize,
        mix: Option<Mix>,
        window: u32,
        tracer: &mut Tracer,
    ) -> io::Result<()> {
        let connection = &mut self.connections[lane];
        self.requests.window(mix, &mut connection.request);
        connection.sent_at = Instant::now();
        connection.window = window;
        connection.stream.write_all(&connection.request)?;
        if tracer.is_on() {
            let sent_ns = tracer.ns_of(connection.sent_at);
            connection.span = tracer.record("client.window", sent_ns, 0, NO_SPAN, window);
            let written_ns = tracer.now_ns();
            tracer.record("client.write", sent_ns, written_ns, connection.span, window);
        }
        self.totals.requests += WINDOW as u64;
        self.totals.bytes_out += connection.request.len() as u64;
        Ok(())
    }

    /// Reads the replies of the window in flight on `lane`; its latency runs
    /// from the `write` to the last reply byte.
    fn complete(
        &mut self,
        lane: usize,
        mix: Option<Mix>,
        pass: Option<&mut TimedPass>,
        tracer: &mut Tracer,
    ) -> io::Result<()> {
        let connection = &mut self.connections[lane];
        let wait_from_ns = if tracer.is_on() { tracer.now_ns() } else { 0 };
        let mut filled = 0usize;
        let mut lines = 0usize;
        while lines < WINDOW {
            if filled == connection.reply.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "replies overflow the window buffer",
                ));
            }
            let n = connection.stream.read(&mut connection.reply[filled..])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            lines += connection.reply[filled..filled + n]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            filled += n;
        }
        let done = Instant::now();
        if let Some(pass) = pass {
            pass.unit_done(connection.sent_at, done);
        }
        if tracer.is_on() {
            let done_ns = tracer.ns_of(done);
            tracer.record(
                "client.read_wait",
                wait_from_ns,
                done_ns,
                connection.span,
                connection.window,
            );
            tracer.close_at(connection.span, done_ns);
        }
        self.totals.bytes_in += filled as u64;
        // One window is in flight per connection, so the buffer now holds
        // exactly its replies, in request order.
        let replies = connection.reply[..filled].split(|&b| b == b'\n');
        for (i, line) in replies.take(WINDOW).enumerate() {
            let route = is_route(mix, i);
            match parse_reply(line, route) {
                Some((_, id)) if route => {
                    self.requests.resident.push_back(id);
                    self.totals.routed += 1;
                }
                Some(_) => self.totals.released += 1,
                None => self.totals.failed_replies += 1,
            }
        }
        Ok(())
    }

    /// One `STATS` round trip: `(routed, released, resident, batches)`.
    fn stats_probe(&mut self) -> io::Result<[u64; 4]> {
        let stream = &mut self.connections[0].stream;
        stream.write_all(b"STATS\n")?;
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while byte[0] != b'\n' {
            stream.read_exact(&mut byte)?;
            line.push(byte[0]);
        }
        let text = String::from_utf8_lossy(&line);
        let mut numbers = text
            .split_ascii_whitespace()
            .filter_map(|field| field.parse::<u64>().ok());
        let mut stats = [0u64; 4];
        for slot in &mut stats {
            *slot = numbers.next().ok_or(io::ErrorKind::InvalidData)?;
        }
        Ok(stats)
    }

    fn router(&self) -> &ConcurrentRouter {
        self.server.router()
    }

    /// Runs the timed pass and returns it with the gap averaged over exactly
    /// the batch boundaries that fell inside it.
    fn timed_pass(
        &mut self,
        mix: Mix,
        requests: u64,
        tracer: &mut Tracer,
    ) -> io::Result<(PassTimes, f64)> {
        let windows = requests / WINDOW as u64;
        let gap_before = self.router().gap_stats();
        let mut pass = TimedPass::begin(windows, WINDOW as u64);
        self.drive(Some(mix), windows, Some(&mut pass), tracer)?;
        let times = pass.finish();
        let gap_after = self.router().gap_stats();
        let boundaries = gap_after.count() - gap_before.count();
        let gap = (gap_after.sum() - gap_before.sum()) / boundaries.max(1) as f64;
        Ok((times, gap))
    }

    /// The output checks of a serve run.
    fn check_outputs(&mut self, outcome: &mut Outcome, gap: f64) -> io::Result<()> {
        let totals = self.totals;
        let resident = totals.routed - totals.released;
        let probe = self.stats_probe()?;
        let router = self.router().clone();
        outcome.failed += totals.failed_replies;
        outcome.check(totals.failed_replies == 0, || {
            format!(
                "{} replies were not a well-formed OK with bin < {BINS}",
                totals.failed_replies
            )
        });
        outcome.check(
            probe[..3] == [totals.routed, totals.released, resident],
            || {
                format!(
                "STATS says routed/released/resident {:?}, the client counted {} / {} / {resident}",
                &probe[..3],
                totals.routed,
                totals.released
            )
            },
        );
        outcome.check(router.conserves_balls(), || {
            "conserves_balls() is false".into()
        });
        outcome.check(router.resident() == resident, || {
            format!(
                "router holds {} resident, the client {resident}",
                router.resident()
            )
        });
        outcome.check(self.requests.resident.len() as u64 == RESIDENT, || {
            format!("resident set drifted to {}", self.requests.resident.len())
        });
        outcome.check(gap <= GAP_ENVELOPE, || {
            format!("balance gap {gap:.3} exceeds b/n + log2 n = {GAP_ENVELOPE}")
        });
        let snapshot = self.registry.snapshot();
        let drops = drops_of(&snapshot);
        outcome.failed += drops;
        outcome.check(drops == 0, || {
            format!("{drops} operations hit a drop counter")
        });
        // The STATS probe is the one request beyond the client's windows.
        outcome.check(
            snapshot.counter("server.requests") == totals.requests + 1,
            || {
                format!(
                    "server.requests = {}, the client sent {} + 1",
                    snapshot.counter("server.requests"),
                    totals.requests
                )
            },
        );
        Ok(())
    }
}

fn io_error(mix: Mix, error: io::Error) -> String {
    format!("serve ({mix:?}): {error}")
}

/// The untraced run: sets up several times, times the last session.
pub fn run(mix: Mix, seed: u64, scale: Scale) -> Result<Outcome, String> {
    let (mut session, setup_s) =
        set_up(|| Session::ready(mix, seed, scale)).map_err(|e| io_error(mix, e))?;
    let requests = scale.count(mix.requests_per_second(), COUNT_MULTIPLE);
    let (times, gap) = session
        .timed_pass(mix, requests, &mut Tracer::off())
        .map_err(|e| io_error(mix, e))?;
    let mut outcome = Outcome::default();
    outcome.set_end_to_end(&setup_s, &times, gap);
    session
        .check_outputs(&mut outcome, gap)
        .map_err(|e| io_error(mix, e))?;
    outcome.set_ok_ratio();
    Ok(outcome)
}

/// The traced run: an untraced reference pass, the same pass with client
/// spans and counters on, then the layer replay.
pub fn trace(
    mix: Mix,
    seed: u64,
    scale: Scale,
    cpus: Option<&Confinement>,
    tracer: &mut Tracer,
) -> Result<Traced, String> {
    let requests = scale.count(mix.requests_per_second(), COUNT_MULTIPLE);
    let reference_pass = || {
        let mut session = Session::ready(mix, seed, scale)?;
        let (times, _) = session.timed_pass(mix, requests, &mut Tracer::off())?;
        Ok(times)
    };
    let reference = reference_pass().map_err(|e| io_error(mix, e))?;
    // Client and reactor with a CPU each, the shape an operator deploys.
    let all_cpus = affinity::on_all_cpus(cpus, reference_pass).map_err(|e| io_error(mix, e))?;

    let mut session = Session::ready(mix, seed, scale).map_err(|e| io_error(mix, e))?;
    let before = session.totals;
    let server_before = session.registry.snapshot().counter("server.requests");
    let switches_before = procfs::context_switches();
    alloc_count::set_counting(true);
    let allocations_before = alloc_count::allocations();
    let first_span = tracer.spans().len();
    let live = session.timed_pass(mix, requests, tracer);
    let allocations = alloc_count::allocations() - allocations_before;
    alloc_count::set_counting(false);
    let (times, gap) = live.map_err(|e| io_error(mix, e))?;
    let switches = switches_before
        .zip(procfs::context_switches())
        .map(|(before, after)| after.saturating_sub(before));
    let mut checks = Outcome::default();
    session
        .check_outputs(&mut checks, gap)
        .map_err(|e| io_error(mix, e))?;
    let snapshot = session.registry.snapshot();
    let totals = session.totals;
    let per_request = |count: u64| count as f64 / requests as f64;

    let mut metrics = Metrics::default();
    metrics.set(
        "reactor.requests",
        (snapshot.counter("server.requests") - server_before) as f64,
    );
    metrics.set_available(
        "reactor.ctx_switches_per_kreq",
        switches.map(|s| per_request(s) * 1e3),
    );
    metrics.set("reactor.allocs_per_req", per_request(allocations));
    // The mean, not a quantile: the registry's quantiles are bucket
    // midpoints and read the same on every run.
    metrics.set(
        "reactor.server_route_ns_mean",
        snapshot
            .histogram("server.route_latency_ns")
            .map_or(f64::NAN, |h| h.mean),
    );
    metrics.set(
        "reactor.bytes_in_per_req",
        per_request(totals.bytes_out - before.bytes_out),
    );
    metrics.set(
        "reactor.bytes_out_per_req",
        per_request(totals.bytes_in - before.bytes_in),
    );

    // Client spans of this pass only (the caller's tracer may hold more).
    let windows = (requests / WINDOW as u64) as f64;
    let (mut write_ns, mut wait_ns) = (0u64, 0u64);
    for span in &tracer.spans()[first_span..] {
        match span.name {
            "client.write" => write_ns += span.end_ns - span.start_ns,
            "client.read_wait" => wait_ns += span.end_ns - span.start_ns,
            _ => {}
        }
    }
    metrics.set("client.write_ns_per_window", write_ns as f64 / windows);
    metrics.set("client.read_wait_ns_per_window", wait_ns as f64 / windows);
    metrics.set(
        "client.read_wait_share",
        wait_ns as f64 / times.wall_ns as f64,
    );
    metrics.set("client.rtt_p99_us", times.unit_percentile_us(0.99));
    metrics.set("client.rtt_p999_us", times.unit_percentile_us(0.999));
    let fnv = loads_fnv(&session.router().loads());
    drop(session);

    let replayed = scale.count(REPLAY_PER_SECOND, WINDOW as u64);
    let mut failures = checks.failures;
    let layers = replay(mix, seed, replayed, tracer, &mut failures);
    // Half the requests are routes, half releases; each is parsed once and
    // answered once.
    let spanned = layers.parse_ns + layers.render_ns + (layers.route_ns + layers.release_ns) / 2.0;
    metrics.set(
        "reactor.residual_ns_per_req",
        reference.ns_per_op() - spanned,
    );
    metrics.merge(layers.metrics);

    Ok(Traced {
        metrics,
        attempted: times.ops,
        overhead_ratio: times.ns_per_op() / reference.ns_per_op(),
        all_cpus_ns_per_op: all_cpus.ns_per_op(),
        reference,
        loads_fnv: fnv,
        failures,
    })
}

struct Replayed {
    metrics: Metrics,
    parse_ns: f64,
    render_ns: f64,
    route_ns: f64,
    release_ns: f64,
}

/// A router preloaded with the resident set, as the live server is after
/// setup, with its tickets in release order.
fn preloaded_router(
    requests: &mut Requests,
) -> (ConcurrentRouter, Arc<MetricsRegistry>, VecDeque<Ticket>) {
    let registry = Arc::new(MetricsRegistry::new());
    let router = ConcurrentRouter::with_metrics(router_config(), Arc::clone(&registry));
    let mut tickets = VecDeque::with_capacity(RESIDENT as usize + 4 * WINDOW);
    let mut keys = Vec::with_capacity(WINDOW);
    for _ in 0..RESIDENT / WINDOW as u64 {
        keys.clear();
        keys.extend((0..WINDOW).map(|_| requests.keys.next_u64()));
        for placement in router.route_many(&keys).expect("routing is infallible") {
            requests.resident.push_back(placement.ticket.id());
            tickets.push_back(placement.ticket);
        }
    }
    (router, registry, tickets)
}

/// The layer replay: `requests` requests from the same generator, pushed
/// through `parse_request`, `route_many`/`release_many` in the runs the
/// reactor would form, and the reply writers — one span per call.
fn replay(
    mix: Mix,
    seed: u64,
    requests: u64,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> Replayed {
    let mut generator = Requests::new(seed);
    let (router, registry, mut tickets) = preloaded_router(&mut generator);
    let windows = requests / WINDOW as u64;
    let mut bytes = Vec::with_capacity(32 * WINDOW);
    let mut parsed: Vec<Request> = Vec::with_capacity(WINDOW);
    let mut keys: Vec<u64> = Vec::with_capacity(WINDOW);
    let mut run: Vec<Ticket> = Vec::with_capacity(WINDOW);
    // What the reply writers will be handed: `(bin, Some(id))` for a route.
    let mut answers: Vec<(usize, Option<u64>)> = Vec::with_capacity(WINDOW);
    let mut replies: Vec<u8> = Vec::with_capacity(32 * WINDOW);
    let (mut codec_allocations, mut router_allocations, mut bad_lines) = (0u64, 0u64, 0u64);
    let first_span = tracer.spans().len();
    alloc_count::set_counting(true);
    for w in 0..windows as u32 {
        generator.window(Some(mix), &mut bytes);
        let window = tracer.open("replay.window", NO_SPAN, w);

        let allocations = alloc_count::allocations();
        let span = tracer.open("codec.parse", window, w);
        parsed.clear();
        parsed.extend(
            bytes[..bytes.len() - 1]
                .split(|&b| b == b'\n')
                .map(parse_request),
        );
        tracer.close(span);
        codec_allocations += alloc_count::allocations() - allocations;

        answers.clear();
        let mut i = 0;
        while i < parsed.len() {
            let start = i;
            let allocations = alloc_count::allocations();
            match parsed[i] {
                Request::Route { .. } => {
                    keys.clear();
                    while let Some(Request::Route { key }) = parsed.get(i) {
                        keys.push(*key);
                        i += 1;
                    }
                    let span = tracer.open("router.route_many", window, w);
                    let placements = router.route_many(&keys).expect("routing is infallible");
                    tracer.close(span);
                    for placement in placements {
                        generator.resident.push_back(placement.ticket.id());
                        tickets.push_back(placement.ticket);
                        answers.push((placement.bin, Some(placement.ticket.id())));
                    }
                }
                Request::Release { .. } => {
                    run.clear();
                    while let Some(Request::Release { id }) = parsed.get(i) {
                        // The generator released the oldest ids, so the
                        // oldest tickets are theirs (the reactor's park map
                        // does this lookup by id).
                        let ticket = tickets.pop_front().expect("resident set never drains");
                        debug_assert_eq!(ticket.id(), *id);
                        run.push(ticket);
                        i += 1;
                    }
                    let span = tracer.open("router.release_many", window, w);
                    let released = router.release_many(&run);
                    tracer.close(span);
                    if released.is_err() {
                        bad_lines += run.len() as u64;
                    }
                    answers.extend(run.iter().map(|ticket| (ticket.bin(), None)));
                }
                _ => {
                    bad_lines += 1;
                    i += 1;
                }
            }
            router_allocations += alloc_count::allocations() - allocations;
            debug_assert!(i > start);
        }

        let allocations = alloc_count::allocations();
        let span = tracer.open("codec.render", window, w);
        replies.clear();
        for &(bin, id) in &answers {
            match id {
                Some(id) => write_ok_route(&mut replies, bin, id),
                None => write_ok_bin(&mut replies, bin),
            }
        }
        tracer.close(span);
        codec_allocations += alloc_count::allocations() - allocations;
        tracer.close(window);
    }
    alloc_count::set_counting(false);

    // Per-call medians of this replay's spans, net of the clock read.
    let totals = tracer.totals_from(first_span);
    let per = |name: &str, calls: usize| {
        totals
            .get(name)
            .map_or(f64::NAN, |t| t.median_net_ns as f64 / calls as f64)
    };
    let group = mix.run_length();
    let (parse_ns, render_ns) = (per("codec.parse", WINDOW), per("codec.render", WINDOW));
    let route_ns = per("router.route_many", group);
    let release_ns = per("router.release_many", group);
    let mut metrics = Metrics::default();
    metrics.set("codec.parse_ns_per_line", parse_ns);
    metrics.set("codec.render_ns_per_reply", render_ns);
    metrics.set(
        "codec.allocs_per_req",
        codec_allocations as f64 / requests as f64,
    );
    metrics.set("codec.bad_lines", bad_lines as f64);
    metrics.set("router.route_many_ns_per_key", route_ns);
    metrics.set("router.release_many_ns_per_ticket", release_ns);
    metrics.set(
        "router.allocs_per_key",
        router_allocations as f64 / requests as f64,
    );
    let stats = router.stats();
    metrics.set("router.batches", stats.batches as f64);
    let snapshot = registry.snapshot();
    metrics.set("router.drops", drops_of(&snapshot) as f64);
    metrics.set("policy.fallbacks", snapshot.sum_counters("policy.") as f64);
    let gap = router.gap_stats();
    metrics.set("router.gap_mean", gap.mean());
    metrics.set("router.gap_max", gap.max());

    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(format!("layer replay: {what}"));
        }
    };
    check(
        bad_lines == 0,
        format!("{bad_lines} lines did not parse or release"),
    );
    check(
        stats.batches == stats.routed / BATCH as u64,
        format!("{} batches for {} routed", stats.batches, stats.routed),
    );
    check(
        stats.routed == RESIDENT + requests / 2,
        format!("routed {}", stats.routed),
    );
    check(
        router.conserves_balls() && stats.resident == RESIDENT,
        format!("resident {} after the replay", stats.resident),
    );
    Replayed {
        metrics,
        parse_ns,
        render_ns,
        route_ns,
        release_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_have_the_shape_each_mix_promises() {
        let mut requests = Requests::new(1);
        requests.resident.extend(100..200u64);
        let mut bytes = Vec::new();
        for (mix, runs) in [(Mix::Pipelined, 2), (Mix::Interleaved, WINDOW)] {
            requests.window(Some(mix), &mut bytes);
            let lines: Vec<Request> = bytes[..bytes.len() - 1]
                .split(|&b| b == b'\n')
                .map(parse_request)
                .collect();
            assert_eq!(lines.len(), WINDOW);
            let routes = lines
                .iter()
                .filter(|r| matches!(r, Request::Route { .. }))
                .count();
            assert_eq!(routes, WINDOW / 2, "{mix:?}: half routes, half releases");
            assert!(!lines.contains(&Request::Bad));
            let found = 1 + lines
                .windows(2)
                .filter(|pair| std::mem::discriminant(&pair[0]) != std::mem::discriminant(&pair[1]))
                .count();
            assert_eq!(found, runs, "{mix:?}: runs of {}", mix.run_length());
        }
        // Releases went out oldest first.
        assert_eq!(requests.resident.front(), Some(&164));
    }

    #[test]
    fn replies_parse_strictly() {
        assert_eq!(parse_reply(b"OK 17 90833", true), Some((17, 90833)));
        assert_eq!(parse_reply(b"OK 255", false), Some((255, 0)));
        assert_eq!(parse_reply(b"OK 256", false), None, "bin out of range");
        assert_eq!(parse_reply(b"OK 3", true), None, "a route reply has an id");
        assert_eq!(
            parse_reply(b"OK 3 4", false),
            None,
            "a release reply has none"
        );
        assert_eq!(parse_reply(b"ERR unknown-ticket", false), None);
        assert_eq!(parse_reply(b"", true), None);
    }
}
