//! The event-driven reactor front-end: a small fixed pool of reactor
//! threads, each owning a set of nonblocking connections, driven by
//! readiness polling through the [`Poller`] trait.
//!
//! This is the TCP face of [`pba_stream::ConcurrentRouter`]. It owns
//! **sockets only**: every byte it reads goes to a [`Session`], which splits
//! lines, batches `ROUTE`/`RELEASE` runs and renders replies (see
//! [`crate::session`] for the executor and [`crate::codec`] for the wire
//! protocol); every byte the session renders goes back out through
//! `flush_writes`.
//!
//! * **A reactor pool, not a thread per connection.**
//!   `ReactorConfig::reactors` threads serve every connection; the acceptor
//!   hands each new socket to a reactor round-robin via a per-reactor inbox.
//!   A thousand idle connections cost a thousand idle epoll registrations,
//!   not a thousand stacks.
//! * **Readiness polling.** Each reactor sleeps in [`Poller::poll`] (raw
//!   `epoll` on Linux, a portable nonblocking poll loop elsewhere — see
//!   [`crate::poller`]) and only touches sockets with bytes waiting.
//! * **Reused buffers.** One read scratch per reactor, one reply buffer per
//!   connection, the session's scratch vectors per reactor: the steady-state
//!   request path performs no heap allocation per request.
//!
//! ## Truncated lines
//!
//! A line truncated by the peer closing mid-write is dropped and counted
//! ([`Session::end_of_input`]); the server keeps serving everyone else.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pba_stream::ConcurrentRouter;

use crate::poller::{new_poller, Poller};
use crate::session::{ConnState, Session};

/// Bytes read per `read` call into a reactor's reusable scratch buffer.
const READ_CHUNK: usize = 8192;

/// Upper bound on one readiness poll — the latency with which an idle
/// reactor notices shutdown or a newly accepted connection. Also the
/// acceptor's poll interval. Connections with buffered bytes never wait on
/// it (level-triggered polling reports them immediately).
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Configuration for [`ReactorServer::start`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Bind address; the default `127.0.0.1:0` picks a free loopback port
    /// (read it back via [`ReactorServer::local_addr`]).
    pub addr: String,
    /// Reactor threads serving all connections (clamped ≥ 1). Two saturate
    /// the router on small machines; scale with core count for fan-in
    /// benchmarks.
    pub reactors: usize,
    /// Forces the portable [`FallbackPoller`](crate::poller::FallbackPoller)
    /// even where epoll is available — tests use this to exercise both
    /// implementations on one machine.
    pub force_fallback_poller: bool,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            reactors: 2,
            force_fallback_poller: false,
        }
    }
}

/// What the acceptor and the reactors share besides the session state.
struct NetShared {
    /// One inbox per reactor: the acceptor pushes new sockets, the owning
    /// reactor drains them at its next tick.
    inboxes: Vec<Mutex<Vec<TcpStream>>>,
    shutdown: AtomicBool,
}

/// A running reactor TCP front-end over one [`ConcurrentRouter`] (see the
/// [module docs](self)).
///
/// ```no_run
/// use pba_net::{LineClient, ReactorConfig, ReactorServer};
/// use pba_stream::{ConcurrentRouter, Policy, StreamConfig};
///
/// let router = ConcurrentRouter::new(
///     StreamConfig::new(64).policy(Policy::TwoChoice).batch_size(128).seed(7),
/// );
/// let server = ReactorServer::start(router, ReactorConfig::default()).unwrap();
/// let mut client = LineClient::connect(server.local_addr()).unwrap();
/// let (bin, id) = client.route(42).unwrap();
/// assert!(bin < 64);
/// assert_eq!(client.release(id).unwrap(), Some(bin));
/// server.shutdown();
/// ```
pub struct ReactorServer {
    shared: Arc<NetShared>,
    router: ConcurrentRouter,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ReactorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorServer")
            .field("local_addr", &self.local_addr)
            .field("reactors", &self.reactors.len())
            .finish()
    }
}

impl ReactorServer {
    /// Binds `config.addr`, starts the acceptor and the reactor pool. The
    /// server drives `router` (a cheap handle clone; the caller keeps its
    /// own for direct inspection) until [`ReactorServer::shutdown`] or drop.
    pub fn start(router: ConcurrentRouter, config: ReactorConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let reactors = config.reactors.max(1);
        let session = Session::new(router.clone());
        let shared = Arc::new(NetShared {
            inboxes: (0..reactors).map(|_| Mutex::new(Vec::new())).collect(),
            shutdown: AtomicBool::new(false),
        });
        let mut reactor_handles = Vec::with_capacity(reactors);
        for index in 0..reactors {
            let shared = Arc::clone(&shared);
            let poller = new_poller(config.force_fallback_poller)?;
            let session = session.for_reactor(index);
            reactor_handles.push(std::thread::spawn(move || {
                Reactor::new(index, shared, poller, session).run()
            }));
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(Self {
            shared,
            router,
            local_addr,
            acceptor: Some(acceptor),
            reactors: reactor_handles,
        })
    }

    /// The bound address (the resolved port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router this server drives.
    pub fn router(&self) -> &ConcurrentRouter {
        &self.router
    }

    /// Stops accepting, wakes every reactor at its next poll timeout, and
    /// joins the whole pool. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.reactors.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Polls the non-blocking listener and deals each connection to a reactor
/// inbox round-robin, until shutdown.
fn accept_loop(listener: TcpListener, shared: Arc<NetShared>) {
    let mut next = 0usize;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Replies are tiny; without nodelay Nagle + delayed ACK turns
                // every round trip into a multi-millisecond stall.
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                shared.inboxes[next]
                    .lock()
                    .expect("reactor inbox")
                    .push(stream);
                next = (next + 1) % shared.inboxes.len();
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
}

/// One connection owned by a reactor.
struct Conn {
    stream: TcpStream,
    /// Partial-line, discard and latency state between reads.
    state: ConnState,
    /// Rendered-but-unsent reply bytes (`write_at` marks the sent prefix);
    /// retried every tick until drained.
    write_buf: Vec<u8>,
    write_at: usize,
}

/// One reactor thread: a poller, a slab of connections, the read scratch,
/// and the session that executes what the sockets deliver.
struct Reactor {
    index: usize,
    shared: Arc<NetShared>,
    poller: Box<dyn Poller>,
    session: Session,
    /// Slab: token == slot index; `None` slots are on the free list.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    ready: Vec<usize>,
    scratch: Vec<u8>,
}

impl Reactor {
    fn new(
        index: usize,
        shared: Arc<NetShared>,
        poller: Box<dyn Poller>,
        session: Session,
    ) -> Self {
        Self {
            index,
            shared,
            poller,
            session,
            conns: Vec::new(),
            free: Vec::new(),
            ready: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
        }
    }

    fn run(mut self) {
        while !self.shared.shutdown.load(Ordering::Acquire) {
            self.adopt_new_connections();
            let mut ready = std::mem::take(&mut self.ready);
            if self.poller.poll(&mut ready, POLL_INTERVAL).is_err() {
                // A broken poller leaves only the portable behaviour:
                // treat everything as ready so no connection starves.
                ready.clear();
                ready.extend(
                    self.conns
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.is_some())
                        .map(|(i, _)| i),
                );
            }
            for &slot in &ready {
                self.handle_readable(slot);
            }
            self.ready = ready;
            self.retry_pending_writes();
        }
        // Shutdown: fan out whatever latency samples are still local.
        for slot in 0..self.conns.len() {
            if let Some(mut conn) = self.conns[slot].take() {
                self.session.flush_latency(&mut conn.state);
            }
        }
    }

    fn adopt_new_connections(&mut self) {
        let incoming = std::mem::take(
            &mut *self.shared.inboxes[self.index]
                .lock()
                .expect("reactor inbox"),
        );
        for stream in incoming {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            if self.poller.register(&stream, slot).is_err() {
                self.free.push(slot);
                continue;
            }
            self.conns[slot] = Some(Conn {
                stream,
                state: self.session.connect(),
                write_buf: Vec::new(),
                write_at: 0,
            });
        }
    }

    /// Reads everything currently buffered on `slot`'s socket, feeds it to
    /// the session, and writes the replies. Closes the connection on EOF or
    /// I/O error.
    fn handle_readable(&mut self, slot: usize) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return; // spurious token (fallback poller, or already closed)
        };
        let mut close = false;
        loop {
            match (&conn.stream).read(&mut self.scratch) {
                Ok(0) => {
                    close = true;
                    self.session.end_of_input(&conn.state);
                    break;
                }
                Ok(n) => {
                    self.session
                        .feed(&mut conn.state, &self.scratch[..n], &mut conn.write_buf);
                    if n < READ_CHUNK {
                        break;
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        if flush_writes(&mut conn).is_err() {
            close = true;
        }
        if close {
            self.drop_conn(conn, slot);
        } else {
            self.conns[slot] = Some(conn);
        }
    }

    /// Deregisters and closes `conn` (the socket closes when it drops).
    fn drop_conn(&mut self, mut conn: Conn, slot: usize) {
        let _ = self.poller.deregister(&conn.stream, slot);
        self.session.flush_latency(&mut conn.state);
        self.free.push(slot);
    }

    fn retry_pending_writes(&mut self) {
        for slot in 0..self.conns.len() {
            let pending = self.conns[slot]
                .as_ref()
                .is_some_and(|c| c.write_at < c.write_buf.len());
            if !pending {
                continue;
            }
            let mut conn = self.conns[slot].take().expect("checked above");
            if flush_writes(&mut conn).is_err() {
                self.drop_conn(conn, slot);
            } else {
                self.conns[slot] = Some(conn);
            }
        }
    }
}

/// Writes as much pending reply data as the socket accepts right now.
/// `Ok(())` means "done or would block" (retry next tick); `Err` means the
/// connection is dead.
fn flush_writes(conn: &mut Conn) -> io::Result<()> {
    while conn.write_at < conn.write_buf.len() {
        match (&conn.stream).write(&conn.write_buf[conn.write_at..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.write_at += n,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    conn.write_buf.clear();
    conn.write_at = 0;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineClient, MAX_LINE_LEN};
    use pba_obs::MetricsRegistry;
    use pba_stream::{Policy, StreamConfig};
    use std::io::{BufRead, BufReader};

    fn instrumented_server(bins: usize, batch: usize, config: ReactorConfig) -> ReactorServer {
        let registry = Arc::new(MetricsRegistry::new());
        let router = ConcurrentRouter::with_metrics(
            StreamConfig::new(bins)
                .policy(Policy::TwoChoice)
                .batch_size(batch)
                .seed(11),
            registry,
        );
        ReactorServer::start(router, config).expect("bind loopback")
    }

    #[test]
    fn route_release_round_trip_over_tcp() {
        let server = instrumented_server(32, 16, ReactorConfig::default());
        let mut client = LineClient::connect(server.local_addr()).unwrap();
        let mut ids = Vec::new();
        for key in 0..48u64 {
            let (bin, id) = client.route(key).unwrap();
            assert!(bin < 32);
            ids.push(id);
        }
        assert_eq!(server.router().resident(), 48);
        for id in ids {
            assert!(client.release(id).unwrap().is_some());
        }
        assert_eq!(server.router().resident(), 0);
        assert!(server.router().conserves_balls());
        let registry = Arc::clone(&server.router().metrics().unwrap().registry);
        server.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("route.routed"), 48);
        assert_eq!(snap.counter("route.released"), 48);
        assert_eq!(snap.counter("server.requests"), 96);
        assert_eq!(snap.counter("server.connections"), 1);
        assert_eq!(snap.counter("router.stream_batches"), 3);
        let latency = snap.histogram("server.route_latency_ns").expect("recorded");
        assert_eq!(latency.count, 48);
        // The per-reactor breakdown sums to the aggregate.
        let per_reactor: u64 = (0..2)
            .map(|i| snap.counter(&format!("server.reactor{i}.requests")))
            .sum();
        assert_eq!(per_reactor, 96);
    }

    #[test]
    fn round_trip_on_the_fallback_poller() {
        let server = instrumented_server(
            16,
            8,
            ReactorConfig {
                force_fallback_poller: true,
                ..ReactorConfig::default()
            },
        );
        let mut client = LineClient::connect(server.local_addr()).unwrap();
        let mut ids = Vec::new();
        for key in 0..24u64 {
            ids.push(client.route(key).unwrap().1);
        }
        for id in ids {
            assert!(client.release(id).unwrap().is_some());
        }
        assert!(server.router().conserves_balls());
        assert_eq!(server.router().resident(), 0);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_get_one_reply_each_in_order() {
        let server = instrumented_server(16, 8, ReactorConfig::default());
        let addr = server.local_addr();
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_nodelay(true).unwrap();
        raw.write_all(b"ROUTE 1\nROUTE 2\nNONSENSE\nSTATS\nFLUSH\n")
            .unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut replies = Vec::new();
        for _ in 0..5 {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
            replies.push(line.trim_end().to_string());
        }
        assert!(replies[0].starts_with("OK "), "{}", replies[0]);
        assert!(replies[1].starts_with("OK "), "{}", replies[1]);
        assert_eq!(replies[2], "ERR bad-request");
        assert!(
            replies[3].starts_with("OK routed 2 released 0 resident 2"),
            "{}",
            replies[3]
        );
        assert_eq!(replies[4], "OK 1", "flush closes the 2-ball open batch");
        assert_eq!(server.router().stats().routed, 2);
        server.shutdown();
    }

    #[test]
    fn pipelined_releases_batch_and_stay_ordered() {
        // ROUTE a pipeline, then RELEASE the whole set in one pipeline with
        // a bogus id spliced into the middle: replies must come back one per
        // line, in order, with exactly one ERR at the splice point.
        let server = instrumented_server(32, 16, ReactorConfig::default());
        let addr = server.local_addr();
        let mut client = LineClient::connect(addr).unwrap();
        let mut ids = Vec::new();
        for key in 0..40u64 {
            ids.push(client.route(key).unwrap().1);
        }
        drop(client);
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_nodelay(true).unwrap();
        let mut request = String::new();
        for (i, id) in ids.iter().enumerate() {
            if i == 20 {
                request.push_str("RELEASE 999999999\n");
            }
            request.push_str(&format!("RELEASE {id}\n"));
        }
        raw.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        for i in 0..41 {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
            if i == 20 {
                assert_eq!(line.trim_end(), "ERR unknown-ticket");
            } else {
                assert!(line.starts_with("OK "), "reply {i}: {line}");
            }
        }
        assert_eq!(server.router().resident(), 0);
        assert!(server.router().conserves_balls());
        let registry = Arc::clone(&server.router().metrics().unwrap().registry);
        server.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("route.released"), 40);
        assert_eq!(snap.counter("server.unknown_ticket"), 1);
    }

    #[test]
    fn oversized_lines_get_bad_request_not_a_hangup() {
        let server = instrumented_server(8, 8, ReactorConfig::default());
        let addr = server.local_addr();
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_nodelay(true).unwrap();
        // One oversized "line" (no newline until far past the cap), then a
        // legitimate request on the same connection.
        let oversized = vec![b'x'; MAX_LINE_LEN * 3];
        raw.write_all(&oversized).unwrap();
        raw.write_all(b"\nROUTE 5\n").unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        assert_eq!(line.trim_end(), "ERR bad-request");
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        assert!(line.starts_with("OK "), "{line}");
        assert_eq!(server.router().stats().routed, 1);
        let registry = Arc::clone(&server.router().metrics().unwrap().registry);
        server.shutdown();
        assert_eq!(registry.snapshot().counter("server.bad_request"), 1);
    }

    #[test]
    fn mid_line_disconnect_leaves_the_server_serving() {
        let server = instrumented_server(8, 8, ReactorConfig::default());
        let addr = server.local_addr();
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"ROUTE 123").unwrap(); // no newline
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        // Gone mid-line. The reactor counts the truncated line and only then
        // closes its end, so seeing that close orders the count before
        // everything below — whichever reactor serves the next client, and
        // however late `shutdown()` would otherwise have let this one see
        // the EOF.
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        assert_eq!(raw.read(&mut [0u8; 8]).unwrap(), 0, "server closes too");
        let mut client = LineClient::connect(addr).unwrap();
        let (_bin, id) = client.route(9).unwrap();
        assert!(client.release(id).unwrap().is_some());
        assert_eq!(server.router().stats().routed, 1);
        assert!(server.router().conserves_balls());
        let registry = Arc::clone(&server.router().metrics().unwrap().registry);
        server.shutdown();
        assert_eq!(registry.snapshot().counter("server.bad_request"), 1);
    }

    #[test]
    fn concurrent_clients_share_one_router() {
        let server = instrumented_server(64, 32, ReactorConfig::default());
        let addr = server.local_addr();
        let mut threads = Vec::new();
        for t in 0..4u64 {
            threads.push(std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).unwrap();
                let mut ids = Vec::new();
                for i in 0..100 {
                    ids.push(client.route(t * 1_000 + i).unwrap().1);
                }
                for id in ids {
                    assert!(client.release(id).unwrap().is_some());
                }
            }));
        }
        for thread in threads {
            thread.join().unwrap();
        }
        let mut client = LineClient::connect(addr).unwrap();
        let stats = client.request("STATS").unwrap();
        assert!(
            stats.starts_with("OK routed 400 released 400 resident 0"),
            "{stats}"
        );
        assert!(server.router().conserves_balls());
        server.shutdown();
    }

    #[test]
    fn membership_verbs_drive_a_scale_cycle_over_the_wire() {
        use pba_membership::BinState;
        let registry = Arc::new(MetricsRegistry::new());
        let router = ConcurrentRouter::with_metrics(
            StreamConfig::new(8)
                .policy(Policy::TwoChoice)
                .batch_size(8)
                .seed(11)
                .reserve_bins(1),
            registry,
        );
        let server = ReactorServer::start(router, ReactorConfig::default()).expect("bind");
        let mut client = LineClient::connect(server.local_addr()).unwrap();
        let mut ids = Vec::new();
        for key in 0..32u64 {
            ids.push(client.route(key).unwrap());
        }
        client.stage_drain(3).unwrap();
        client.stage_add(1.0).unwrap();
        for key in 100..108u64 {
            client.route(key).unwrap();
        }
        client.flush().unwrap();
        let membership = server.router().membership();
        assert_eq!(membership.state(3), BinState::Draining);
        assert_eq!(
            membership.state(8),
            BinState::Active,
            "commissioned reserve slot"
        );
        let migrated = client.migrate().unwrap();
        assert_eq!(server.router().tickets_in(3), 0);
        client.stage_remove(3).unwrap();
        for key in 200..208u64 {
            client.route(key).unwrap();
        }
        client.flush().unwrap();
        assert_eq!(server.router().membership().state(3), BinState::Retired);
        // Every id still redeems, migrated or not, and the reply names the
        // bin the ball left: the one `tickets_in` counted it in, never 3.
        assert!(ids.iter().any(|&(bin, _)| bin == 3), "bin 3 had residents");
        let router = server.router();
        for (routed_to, id) in ids {
            let counted: Vec<usize> = (0..router.capacity())
                .map(|b| router.tickets_in(b))
                .collect();
            let bin = client.release(id).unwrap().expect("resident");
            assert_eq!(router.tickets_in(bin) + 1, counted[bin], "id {id}");
            if routed_to == 3 {
                assert_ne!(bin, 3, "id {id} was migrated");
            }
        }
        assert!(server.router().conserves_balls());
        let registry = Arc::clone(&server.router().metrics().unwrap().registry);
        server.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("membership.drains"), 1);
        assert_eq!(snap.counter("membership.adds"), 1);
        assert_eq!(snap.counter("membership.removes"), 1);
        assert_eq!(snap.counter("membership.migrations"), migrated);
    }
}
