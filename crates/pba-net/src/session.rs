//! The socket-free request executor: everything the serving path does
//! between "bytes arrived" and "reply bytes are ready", with no socket, no
//! poller and no thread in sight.
//!
//! A [`Session`] takes request bytes in whatever chunks the transport
//! delivers them and appends reply bytes to a caller-owned buffer. The
//! [`reactor`](crate::reactor) is one caller (one `Session` per reactor
//! thread, one [`ConnState`] per socket); tests and any in-process
//! embedding are the others. Because replies depend only on the
//! request *stream* — never on how it was chunked — a session driven
//! in-process answers byte for byte what the same stream gets over TCP.
//!
//! What lives here:
//!
//! * **No ticket state.** Clients hold wire ids that name ledger slots;
//!   `RELEASE` redeems them through the router's shared ledger
//!   ([`ConcurrentRouter::serve_wire`]), so any connection releases one.
//! * **Line splitting.** Complete lines are parsed in place out of the
//!   connection's read buffer ([`parse_canonical_line`] in one pass, else
//!   [`parse_request`]); in steady state the buffer holds at most one
//!   partial line. A line longer than [`MAX_LINE_LEN`] is answered with
//!   `ERR bad-request` as soon as the cap is crossed and its bytes are
//!   discarded up to the next newline — a hostile unterminated "line" can
//!   never balloon the buffer, and the connection keeps serving.
//! * **Run batching.** A maximal run of already-buffered `ROUTE` and
//!   `RELEASE` lines, in whatever order they arrive, is **one**
//!   [`serve_wire`] call: the router serves it in sub-groups that each end
//!   at the route filling the open batch, with one ledger pass per
//!   sub-group (each touched shard locked once; a repeated id names nothing
//!   the second time) and grouped atomic updates instead of per-request
//!   overhead. Routes get `OK <bin> <id>`, releases `OK <bin>` or
//!   `ERR unknown-ticket`. Grouping never waits for more input and never
//!   reorders replies: one reply line per request, in order.
//! * **No heap allocation per request.** Scratch vectors belong to the
//!   session, line and latency state to the connection, the reply buffer to
//!   the caller; all are reused. A warmed window of 32 `ROUTE` + 32
//!   `RELEASE` allocates nothing, pipelined or interleaved
//!   (`tests/zero_alloc_session.rs`).
//!
//! ## Metrics
//!
//! With an instrumented router the session resolves `server.connections`,
//! `server.requests`, `server.bad_request`, `server.unknown_ticket` and the
//! `server.route_latency_ns` histogram against the router's registry; a
//! reactor's session adds `server.reactor{i}.requests` /
//! `server.reactor{i}.route_latency_ns` for spotting imbalance across the
//! pool. A run is timed once: the latency histograms get the run's time ÷
//! its requests, recorded once per `ROUTE`, so their count still equals the
//! requests routed. Latency is recorded in the connection's
//! [`LocalHistogram`] (plain integer arithmetic on the request path) and
//! fanned out every `MERGE_EVERY` requests, and by
//! [`Session::flush_latency`] when the connection goes away.
//!
//! [`serve_wire`]: pba_stream::ConcurrentRouter::serve_wire

use std::time::Instant;

use pba_membership::MembershipPlan;
use pba_model::router::{Ticket, WireRequest};
use pba_obs::{Counter, HistogramHandle, LocalHistogram, MetricsRegistry};
use pba_stream::ConcurrentRouter;

use crate::codec::{
    parse_canonical_line, parse_request, write_err_bad_request, write_err_unknown_ticket,
    write_ok_bin, write_ok_count, write_ok_route, write_ok_staged, write_stats, Request,
    MAX_LINE_LEN,
};

/// Requests between fan-outs of a connection's local latency histogram into
/// the shared and per-reactor histograms.
const MERGE_EVERY: u64 = 4096;

/// Server-wide metric handles (resolved iff the router carries a registry).
struct ServerMetrics {
    connections: Counter,
    requests: Counter,
    bad_request: Counter,
    unknown_ticket: Counter,
    route_latency: HistogramHandle,
}

impl ServerMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            connections: registry.counter("server.connections"),
            requests: registry.counter("server.requests"),
            bad_request: registry.counter("server.bad_request"),
            unknown_ticket: registry.counter("server.unknown_ticket"),
            route_latency: registry.histogram("server.route_latency_ns"),
        }
    }
}

/// Per-reactor metric handles: `server.reactor{i}.*`.
struct ReactorMetrics {
    requests: Counter,
    route_latency: HistogramHandle,
}

impl ReactorMetrics {
    fn resolve(registry: &MetricsRegistry, index: usize) -> Self {
        Self {
            requests: registry.counter(&format!("server.reactor{index}.requests")),
            route_latency: registry.histogram(&format!("server.reactor{index}.route_latency_ns")),
        }
    }
}

/// The protocol state of one connection: what survives between two
/// [`Session::feed`] calls on the same byte stream. Obtained from
/// [`Session::connect`].
#[derive(Debug)]
pub struct ConnState {
    /// Unconsumed request bytes; complete lines are parsed and drained in
    /// place, so in steady state this holds at most one partial line.
    read_buf: Vec<u8>,
    /// An oversized line was answered; bytes are being dropped until the
    /// next newline.
    discarding: bool,
    local_latency: LocalHistogram,
    since_merge: u64,
}

/// The request executor over one [`ConcurrentRouter`] (see the
/// [module docs](self)).
///
/// ```
/// use pba_net::Session;
/// use pba_stream::{ConcurrentRouter, Policy, StreamConfig};
///
/// let router = ConcurrentRouter::new(
///     StreamConfig::new(64).policy(Policy::TwoChoice).batch_size(128).seed(7),
/// );
/// let mut session = Session::new(router);
/// let mut conn = session.connect();
/// let mut replies = Vec::new();
/// // Chunk boundaries are arbitrary: a line may arrive in pieces.
/// session.feed(&mut conn, b"ROUTE 42\nSTA", &mut replies);
/// session.feed(&mut conn, b"TS\n", &mut replies);
/// let replies = String::from_utf8(replies).unwrap();
/// assert!(replies.starts_with("OK "));
/// assert!(replies.ends_with("OK routed 1 released 0 resident 1 batches 0\n"));
/// ```
pub struct Session {
    router: ConcurrentRouter,
    metrics: Option<ServerMetrics>,
    reactor_metrics: Option<ReactorMetrics>,
    // Reusable scratch, so the request path stays allocation-free.
    requests: Vec<Request>,
    /// The run of `ROUTE` and `RELEASE` requests being served.
    run: Vec<WireRequest>,
    /// What the run was served: one ticket (or none) per request.
    tickets: Vec<Option<Ticket>>,
}

impl Session {
    /// A session driving `router` (a cheap handle clone; the caller keeps
    /// its own for direct inspection).
    pub fn new(router: ConcurrentRouter) -> Self {
        Self {
            metrics: router
                .metrics()
                .map(|m| ServerMetrics::resolve(&m.registry)),
            router,
            reactor_metrics: None,
            requests: Vec::new(),
            run: Vec::new(),
            tickets: Vec::new(),
        }
    }

    /// A sibling session for reactor thread `index`: same router, its own
    /// scratch and `server.reactor{index}.*` handles.
    pub(crate) fn for_reactor(&self, index: usize) -> Self {
        let registry = self.router.metrics().map(|m| &m.registry);
        Self {
            reactor_metrics: registry.map(|r| ReactorMetrics::resolve(r, index)),
            ..Self::new(self.router.clone())
        }
    }

    /// The router this session drives.
    pub fn router(&self) -> &ConcurrentRouter {
        &self.router
    }

    /// Opens the protocol state of one new connection (counted under
    /// `server.connections`).
    pub fn connect(&self) -> ConnState {
        if let Some(metrics) = &self.metrics {
            metrics.connections.inc();
        }
        ConnState {
            read_buf: Vec::new(),
            discarding: false,
            local_latency: LocalHistogram::new(),
            since_merge: 0,
        }
    }

    /// Consumes the next `bytes` of `conn`'s request stream: executes every
    /// line they complete (with run batching) and appends one reply line per
    /// request to `replies`, in order. A trailing partial line stays
    /// buffered in `conn` for the next call.
    pub fn feed(&mut self, conn: &mut ConnState, bytes: &[u8], replies: &mut Vec<u8>) {
        conn.read_buf.extend_from_slice(bytes);
        self.requests.clear();
        let buf = &mut conn.read_buf;
        let mut start = 0usize;
        loop {
            if conn.discarding {
                match buf[start..].iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        start += nl + 1;
                        conn.discarding = false;
                    }
                    None => {
                        start = buf.len();
                        break;
                    }
                }
                continue;
            }
            if let Some((request, len)) = parse_canonical_line(&buf[start..]) {
                self.requests.push(request);
                start += len;
                continue;
            }
            match buf[start..].iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let line = &buf[start..start + nl];
                    if line.len() > MAX_LINE_LEN {
                        self.requests.push(Request::Bad);
                    } else {
                        self.requests.push(parse_request(line));
                    }
                    start += nl + 1;
                }
                None => {
                    if buf.len() - start > MAX_LINE_LEN {
                        // An unterminated line already over the cap: answer
                        // now, drop bytes until its newline finally shows up.
                        self.requests.push(Request::Bad);
                        conn.discarding = true;
                        start = buf.len();
                    }
                    break;
                }
            }
        }
        buf.drain(..start);
        if !self.requests.is_empty() {
            self.execute(conn, replies);
        }
    }

    /// The peer stopped sending. A partial line still buffered is a
    /// truncated request — the client may have died halfway through writing
    /// it — so it is dropped, visibly (`server.bad_request`), never executed.
    pub fn end_of_input(&self, conn: &ConnState) {
        if !conn.read_buf.is_empty() && !conn.discarding {
            if let Some(metrics) = &self.metrics {
                metrics.bad_request.inc();
            }
        }
    }

    /// The end of the run that starts at `i`: its `ROUTE` and `RELEASE`
    /// requests, in order, gathered into `run`. Any other request is a run of
    /// one, with `run` left empty.
    fn gather_run(&mut self, i: usize) -> usize {
        let wire = |request: &Request| match *request {
            Request::Route { key } => Some(WireRequest::Route(key)),
            Request::Release { id } => Some(WireRequest::Release(id)),
            _ => None,
        };
        self.run.clear();
        self.run.extend(self.requests[i..].iter().map_while(wire));
        i + self.run.len().max(1)
    }

    /// Executes the parsed requests in order, serving each maximal run of
    /// `ROUTE` and `RELEASE` lines through one `serve_wire` call. One reply
    /// line per request, in request order.
    fn execute(&mut self, conn: &mut ConnState, replies: &mut Vec<u8>) {
        let mut i = 0;
        while i < self.requests.len() {
            let end = self.gather_run(i);
            self.count_requests((end - i) as u64);
            if self.run.is_empty() {
                self.execute_single(self.requests[i], replies);
            } else {
                self.serve_run(conn, replies);
            }
            conn.since_merge += (end - i) as u64;
            i = end;
        }
        if conn.since_merge >= MERGE_EVERY {
            self.flush_latency(conn);
            conn.since_merge = 0;
        }
    }

    /// Serves the gathered run in one router call, timed once: each `ROUTE`
    /// records the run's time ÷ its requests.
    fn serve_run(&mut self, conn: &mut ConnState, replies: &mut Vec<u8>) {
        let start = Instant::now();
        self.router.serve_wire(&self.run, &mut self.tickets);
        let per_request = start.elapsed().as_nanos() as u64 / self.run.len() as u64;
        let mut routed = 0;
        for (request, ticket) in self.run.iter().zip(&self.tickets) {
            match (request, ticket) {
                (WireRequest::Route(_), Some(ticket)) => {
                    routed += 1;
                    let id = self.router.wire_id(ticket);
                    write_ok_route(replies, ticket.bin(), id);
                }
                (WireRequest::Route(_), None) => unreachable!("every route is issued a ticket"),
                (WireRequest::Release(_), Some(ticket)) => write_ok_bin(replies, ticket.bin()),
                (WireRequest::Release(_), None) => {
                    // Never issued, already released or repeated in the run:
                    // the router counted nothing for it, so the server-side
                    // counter is its only trace.
                    if let Some(metrics) = &self.metrics {
                        metrics.unknown_ticket.inc();
                    }
                    write_err_unknown_ticket(replies);
                }
            }
        }
        conn.local_latency.record_n(per_request, routed);
    }

    /// Executes one non-batchable request.
    fn execute_single(&self, request: Request, replies: &mut Vec<u8>) {
        let router = &self.router;
        match request {
            Request::Route { .. } | Request::Release { .. } => {
                unreachable!("served as a run by execute()")
            }
            Request::Flush => write_ok_count(replies, router.flush() as u64),
            Request::Stats => {
                let stats = router.stats();
                write_stats(
                    replies,
                    stats.routed,
                    stats.released,
                    stats.resident,
                    stats.batches,
                );
            }
            Request::Add { weight } => {
                router.stage_membership(MembershipPlan::new().add(weight));
                write_ok_staged(replies);
            }
            Request::Drain { bin } => {
                router.stage_membership(MembershipPlan::new().drain(bin));
                write_ok_staged(replies);
            }
            Request::Remove { bin } => {
                router.stage_membership(MembershipPlan::new().remove(bin));
                write_ok_staged(replies);
            }
            Request::Migrate => write_ok_count(replies, router.migrate_drained()),
            Request::Bad => {
                if let Some(metrics) = &self.metrics {
                    metrics.bad_request.inc();
                }
                write_err_bad_request(replies);
            }
        }
    }

    fn count_requests(&self, n: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.requests.add(n);
        }
        if let Some(metrics) = &self.reactor_metrics {
            metrics.requests.add(n);
        }
    }

    /// Fans out whatever latency samples `conn` still holds locally:
    /// copy-merge into the shared `server.route_latency_ns` aggregate,
    /// drain-merge into this reactor's own histogram. Every sample lands in
    /// both exactly once. Runs by itself every `MERGE_EVERY` requests; call
    /// it once more when the connection goes away.
    pub fn flush_latency(&self, conn: &mut ConnState) {
        if let Some(metrics) = &self.metrics {
            metrics.route_latency.merge_local_copy(&conn.local_latency);
        }
        if let Some(metrics) = &self.reactor_metrics {
            metrics.route_latency.merge_local(&mut conn.local_latency);
        } else if self.metrics.is_some() {
            // No per-reactor sink: still reset so the copy-merge above
            // cannot double-count on the next merge.
            conn.local_latency = LocalHistogram::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_obs::MetricsSnapshot;
    use pba_stream::{Policy, StreamConfig};
    use std::sync::Arc;

    /// One instrumented session with one open connection; `say` feeds whole
    /// lines and returns the reply lines they produced.
    struct Harness {
        session: Session,
        conn: ConnState,
    }

    impl Harness {
        fn new(config: StreamConfig) -> Self {
            let router = ConcurrentRouter::with_metrics(
                config.policy(Policy::TwoChoice).seed(11),
                Arc::new(MetricsRegistry::new()),
            );
            let session = Session::new(router);
            let conn = session.connect();
            Self { session, conn }
        }

        fn say(&mut self, bytes: &[u8]) -> Vec<String> {
            let mut replies = Vec::new();
            self.session.feed(&mut self.conn, bytes, &mut replies);
            String::from_utf8(replies)
                .expect("replies are ASCII")
                .lines()
                .map(str::to_string)
                .collect()
        }

        /// `ROUTE key` → the issued id.
        fn route(&mut self, key: u64) -> u64 {
            let replies = self.say(format!("ROUTE {key}\n").as_bytes());
            let mut parts = replies[0].split(' ');
            assert_eq!(parts.next(), Some("OK"), "{replies:?}");
            parts.nth(1).expect("id field").parse().expect("id")
        }

        fn router(&self) -> &ConcurrentRouter {
            self.session.router()
        }

        fn finish(mut self) -> MetricsSnapshot {
            self.session.flush_latency(&mut self.conn);
            let metrics = self.session.router().metrics().expect("instrumented");
            metrics.registry.snapshot()
        }
    }

    #[test]
    fn unknown_tickets_and_bad_requests_are_counted_not_dropped() {
        let mut h = Harness::new(StreamConfig::new(8).batch_size(8));
        assert_eq!(h.say(b"RELEASE 99999\n"), ["ERR unknown-ticket"]);
        assert_eq!(h.say(b"NONSENSE line\n"), ["ERR bad-request"]);
        assert_eq!(h.say(b"ROUTE notanumber\n"), ["ERR bad-request"]);
        let id = h.route(7);
        let release = format!("RELEASE {id}\n");
        assert!(h.say(release.as_bytes())[0].starts_with("OK "));
        // Double release: the server no longer holds the ticket.
        assert_eq!(h.say(release.as_bytes()), ["ERR unknown-ticket"]);
        // Bad membership requests are counted, not staged.
        assert_eq!(h.say(b"ADD -1\nDRAIN x\n"), ["ERR bad-request"; 2]);
        let snap = h.finish();
        assert_eq!(snap.counter("server.unknown_ticket"), 2);
        assert_eq!(snap.counter("server.bad_request"), 4);
        assert_eq!(
            snap.counter("server.requests"),
            8,
            "every line is one request"
        );
        assert_eq!(snap.counter("server.connections"), 1);
        // Neither forged release reached the router.
        assert_eq!(snap.counter("route.rejected_unknown_ticket"), 0);
    }

    #[test]
    fn wire_ids_that_name_no_resident_ball_never_reach_the_router() {
        // One ledger shard, so a wire id is `slot << 32 | id` and a route
        // takes the most recently vacated slot.
        let mut h = Harness::new(StreamConfig::new(8).batch_size(8).shards(1));
        let release = |h: &mut Harness, id: u64| h.say(format!("RELEASE {id}\n").as_bytes());
        let refused = ["ERR unknown-ticket"];
        let counts = |h: &Harness| {
            let snap = h
                .router()
                .metrics()
                .expect("instrumented")
                .registry
                .snapshot();
            let unknown = snap.counter("server.unknown_ticket");
            (unknown, snap.counter("route.rejected_unknown_ticket"))
        };
        // An empty server: the smallest and the largest wire id.
        assert_eq!(release(&mut h, 0), refused);
        assert_eq!(release(&mut h, u64::MAX), refused);
        assert_eq!(counts(&h), (2, 0));
        let ids: Vec<u64> = (0..3).map(|key| h.route(key)).collect();
        assert_eq!(ids, [0, 1 << 32 | 1, 2 << 32 | 2]);
        // A handle past every slab; the right handle, wrong generation bits.
        assert_eq!(release(&mut h, 3 << 32 | 3), refused);
        assert_eq!(release(&mut h, ids[1] + 1), refused);
        assert_eq!(counts(&h), (4, 0));
        // A double release.
        assert!(release(&mut h, ids[1])[0].starts_with("OK "));
        assert_eq!(release(&mut h, ids[1]), refused);
        // A stale id whose slot the free list handed to the next route.
        let tenant = h.route(3);
        assert_eq!(tenant, 1 << 32 | 3);
        assert_eq!(release(&mut h, ids[1]), refused);
        // One id twice in one run: the first line releases, the second is
        // the double release.
        let twice = h.say(format!("RELEASE {tenant}\nRELEASE {tenant}\n").as_bytes());
        assert!(twice[0].starts_with("OK "), "{twice:?}");
        assert_eq!(twice[1], "ERR unknown-ticket");
        assert_eq!(counts(&h), (7, 0), "no refused id reached the router");
        assert_eq!(h.router().stats().released, 2);
    }

    #[test]
    fn empty_and_malformed_lines_get_bad_request_and_the_session_survives() {
        let mut h = Harness::new(StreamConfig::new(8).batch_size(8));
        // An empty line is a request like any other: one reply, counted.
        assert_eq!(h.say(b"\n"), ["ERR bad-request"]);
        // A key that overflows u64 must not panic the parser.
        assert_eq!(
            h.say(b"ROUTE 99999999999999999999999\n"),
            ["ERR bad-request"]
        );
        // Whitespace-only and trailing-garbage lines too.
        assert_eq!(h.say(b"   \n"), ["ERR bad-request"]);
        assert_eq!(h.say(b"ROUTE 1 2\n"), ["ERR bad-request"]);
        // The connection is still healthy afterwards.
        let id = h.route(5);
        assert!(h.say(format!("RELEASE {id}\n").as_bytes())[0].starts_with("OK "));
        let snap = h.finish();
        assert_eq!(snap.counter("server.bad_request"), 4);
        assert_eq!(snap.counter("server.requests"), 6);
        assert_eq!(snap.counter("route.routed"), 1);
    }

    #[test]
    fn oversized_lines_get_bad_request_terminated_or_not() {
        let mut h = Harness::new(StreamConfig::new(8).batch_size(8));
        // Case 1: a complete oversized line, newline included, one chunk.
        let mut big = vec![b'x'; MAX_LINE_LEN * 2];
        big.push(b'\n');
        assert_eq!(h.say(&big), ["ERR bad-request"]);
        // Case 2: an unterminated oversized line is answered as soon as the
        // cap is crossed, holds no memory while its tail trickles in, and
        // the request after its newline is served normally.
        assert_eq!(h.say(&vec![b'y'; MAX_LINE_LEN + 1]), ["ERR bad-request"]);
        assert!(h.say(&vec![b'y'; MAX_LINE_LEN * 2]).is_empty());
        assert!(h.conn.read_buf.is_empty(), "discarded, not buffered");
        let replies = h.say(b"tail\nROUTE 5\n");
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert!(replies[0].starts_with("OK "), "{replies:?}");
        assert_eq!(h.router().stats().routed, 1);
        let snap = h.finish();
        assert_eq!(snap.counter("server.bad_request"), 2);
        assert_eq!(snap.counter("server.requests"), 3);
    }

    #[test]
    fn pipelined_routes_batch_through_route_many_and_stay_ordered() {
        // A whole pipeline of ROUTE lines in one chunk executes as one
        // `serve_wire` call; replies come back one per line, in order, with
        // distinct ids, and the router sees every ball.
        let mut h = Harness::new(StreamConfig::new(32).batch_size(16));
        let mut request = String::new();
        for key in 0..40u64 {
            request.push_str(&format!("ROUTE {key}\n"));
        }
        request.push_str("STATS\n");
        let replies = h.say(request.as_bytes());
        assert_eq!(replies.len(), 41);
        let mut ids = std::collections::HashSet::new();
        for (i, reply) in replies[..40].iter().enumerate() {
            let mut parts = reply.split(' ');
            assert_eq!(parts.next(), Some("OK"), "reply {i}: {reply}");
            let bin: usize = parts.next().unwrap().parse().unwrap();
            assert!(bin < 32);
            assert!(ids.insert(parts.next().unwrap().parse::<u64>().unwrap()));
        }
        assert!(
            replies[40].starts_with("OK routed 40 released 0 resident 40"),
            "{}",
            replies[40]
        );
        // Full 16-ball batches closed exactly as a one-at-a-time client
        // would close them: ⌊40/16⌋ = 2 boundaries.
        assert_eq!(h.router().batches(), 2);
        let snap = h.finish();
        assert_eq!(snap.counter("route.routed"), 40);
        // Every grouped route is still one request and one latency sample —
        // and one call means one shared per-request figure.
        assert_eq!(snap.counter("server.requests"), 41);
        let latency = snap.histogram("server.route_latency_ns").expect("recorded");
        assert_eq!(latency.count, 40);
        assert_eq!(latency.p50, latency.max, "one serve_wire call");
    }

    #[test]
    fn an_interleaved_run_is_one_call_in_request_order() {
        // Six routes, then one chunk alternating a route with the release
        // of the oldest held id, a bogus id and a repeat at its end: one run,
        // one reply per line, in order.
        let mut h = Harness::new(StreamConfig::new(16).batch_size(4).shards(4));
        let mut held: std::collections::VecDeque<u64> = (0..6).map(|key| h.route(key)).collect();
        let mut request = String::new();
        let mut released = Vec::new();
        for key in 6..12u64 {
            let id = held.pop_front().expect("held");
            request.push_str(&format!("ROUTE {key}\nRELEASE {id}\n"));
            released.push(id);
        }
        request.push_str(&format!(
            "RELEASE {}\nRELEASE {}\nSTATS\n",
            u64::MAX,
            released[0]
        ));
        let replies = h.say(request.as_bytes());
        assert_eq!(replies.len(), 15);
        for pair in replies[..12].chunks(2) {
            assert_eq!(pair[0].split(' ').count(), 3, "OK <bin> <id>: {pair:?}");
            assert_eq!(pair[1].split(' ').count(), 2, "OK <bin>: {pair:?}");
        }
        assert_eq!(replies[12..14], ["ERR unknown-ticket"; 2]);
        assert_eq!(replies[14], "OK routed 12 released 6 resident 6 batches 3");
        let snap = h.finish();
        assert_eq!(snap.counter("server.requests"), 6 + 15);
        assert_eq!(snap.counter("server.unknown_ticket"), 2);
        // One latency sample per route, the run's included.
        let latency = snap.histogram("server.route_latency_ns").expect("recorded");
        assert_eq!(latency.count, 12);
    }

    #[test]
    fn add_verb_accepts_a_tier_and_rejects_garbage() {
        let mut h = Harness::new(StreamConfig::new(8).batch_size(8).reserve_bins(1));
        // Tiered add: weight 1.5 in capacity class 2^3 stages weight 12.
        assert_eq!(h.say(b"ADD 1.5 3\n"), ["OK staged"]);
        for key in 0..4u64 {
            h.route(key);
        }
        assert_eq!(h.say(b"FLUSH\n"), ["OK 1"]);
        assert_eq!(
            h.router().slot_weight(8),
            12.0,
            "staged weight is weight·2^tier"
        );
        // Tier validation: non-integer, negative, oversized, and trailing
        // garbage are all bad requests — counted, never staged.
        let over_cap = format!("ADD 1.0 {}\n", crate::MAX_ADD_TIER + 1);
        for garbage in [
            "ADD 1.0 x\n",
            "ADD 1.0 -2\n",
            over_cap.as_str(),
            "ADD 1.0 2 extra\n",
            "ADD nope 2\n",
        ] {
            assert_eq!(h.say(garbage.as_bytes()), ["ERR bad-request"], "{garbage}");
        }
        let snap = h.finish();
        assert_eq!(snap.counter("server.bad_request"), 5);
        assert_eq!(snap.counter("membership.adds"), 1);
    }

    #[test]
    fn flush_closes_the_open_partial_batch() {
        let mut h = Harness::new(StreamConfig::new(16).batch_size(64));
        for key in 0..10u64 {
            h.route(key);
        }
        assert_eq!(h.say(b"FLUSH\n"), ["OK 1"]);
        assert_eq!(h.router().batches(), 1);
        assert_eq!(h.say(b"FLUSH\n"), ["OK 0"], "nothing left open");
    }
}
