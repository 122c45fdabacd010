//! The unified **`Router`** API: handle-based routing over any allocation
//! engine in the workspace.
//!
//! The workspace grew two disjoint user-facing surfaces: the one-shot
//! [`Allocator`](crate::outcome::Allocator) family (`allocate(m, n, seed)` →
//! final loads) and the
//! streaming `StreamAllocator` (`push` / `drain` / `depart`). A service-shaped
//! caller — a load balancer routing requests onto backends — wants neither: it
//! wants to **route one key now**, hold a **handle** for the placement, and
//! later **release** that handle when the connection closes. This module is
//! that interface:
//!
//! * [`Router`] — `route(key) → Placement`, `release(Ticket)`, `loads()`,
//!   `stats()`; object-safe, so experiments and examples can drive any engine
//!   — one-shot, single-owner streaming or the shared serving handle —
//!   through `&mut dyn Router`.
//! * [`Ticket`] / [`Placement`] — the handle a `route` call returns. Departures
//!   go through `release(ticket)` instead of a raw bin index, which lets an
//!   engine validate them (double release, foreign tickets) and lets scenario
//!   drivers express churn policies in terms of *which resident ball* leaves.
//! * [`RouteError`] — the typed error surface of both operations.
//! * [`RouterObserver`] — pluggable per-boundary hooks (`on_batch`,
//!   `on_reweight`, `on_release`) so metrics become sinks wired into the drain
//!   loop instead of ad-hoc polling.
//! * [`SharedTicketLedger`] — the one resident-ball table behind every
//!   `Router` implementation: per-bin-shard slabs that a ticket indexes
//!   directly, issue/redeem callable from many threads at once; a run of
//!   [`WireRequest`]s issues and redeems in one lock pass.
//! * [`OneShotRouter`] — the adapter that lifts any one-shot `Allocator`
//!   into the `Router` interface by precomputing its allocation and handing
//!   out the placements one `route` call at a time.
//!
//! The streaming implementations live in the `pba-stream` crate:
//! `StreamAllocator` (the sole owner) and `ConcurrentRouter` (a cloneable
//! `Arc` handle whose inherent methods take `&self`, so many caller threads
//! share one router) both implement `Router`. Concurrency is a property of
//! the handle, not of a second trait; this module holds the
//! engine-independent vocabulary.

mod ledger;
mod observer;
mod one_shot;
#[cfg(test)]
mod tests;

pub use ledger::SharedTicketLedger;
pub use observer::{
    BatchEvent, MembershipChange, ReleaseEvent, ReweightEvent, RouteEvent, RouterObserver,
};
pub use one_shot::OneShotRouter;

/// A handle for one routed (resident) ball: the ball's id within its router,
/// the bin it was placed into, and the issuing router's **realm** — a
/// process-unique ledger id. Tickets are issued by [`Router::route`] and
/// consumed by [`Router::release`]; routers validate all three parts, so a
/// forged, double-released or foreign ticket (one issued by a *different*
/// router, even with a colliding id and bin) fails with
/// [`RouteError::UnknownTicket`] instead of corrupting loads.
///
/// A ticket also carries the ball's 32-bit ledger **handle** (its slab slot
/// and home shard), which the ball keeps for life: `release` indexes the
/// ledger with it instead of searching, whatever bin the ticket names, and
/// the ball's wire id is built from it. The handle is not part of a ticket's
/// identity: equality and hashing read `(id, bin, realm)` only, so two
/// tickets for the same resident ball at the same bin (the one `route`
/// returned and one read back from the ledger) compare equal.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    id: u64,
    bin: u32,
    handle: u32,
    realm: u64,
}

impl PartialEq for Ticket {
    fn eq(&self, other: &Self) -> bool {
        (self.id, self.bin, self.realm) == (other.id, other.bin, other.realm)
    }
}

impl Eq for Ticket {}

impl std::hash::Hash for Ticket {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.id, self.bin, self.realm).hash(state);
    }
}

impl Ticket {
    /// Assembles a ticket with the reserved realm `0`. Routers hand out
    /// tickets themselves; a manually constructed ticket never names a live
    /// placement and every `release` rejects it — useful only for tests.
    pub fn new(id: u64, bin: u32) -> Self {
        Self {
            id,
            bin,
            handle: u32::MAX,
            realm: 0,
        }
    }

    /// The ball id, unique within the issuing router.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The bin the ball resides in.
    pub fn bin(&self) -> usize {
        self.bin as usize
    }
}

/// The result of routing one key: the chosen bin plus the ticket to release
/// the placement later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Handle for the resident ball (pass to [`Router::release`]).
    pub ticket: Ticket,
    /// The bin the ball was placed into (same as `ticket.bin()`).
    pub bin: usize,
}

/// One request of a serving run, as a client sends it: route a key, or
/// release the ball a wire id ([`SharedTicketLedger::wire_id`]) names. A run
/// of them in any order settles through one ledger pass
/// ([`SharedTicketLedger::settle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRequest {
    /// Route a ball with this key.
    Route(u64),
    /// Release the resident ball this wire id names, if any.
    Release(u64),
}

/// Typed errors of the [`Router`] surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// A one-shot engine ran out of precomputed placements: it was built for a
    /// fixed number of balls and every one of them has been routed.
    Exhausted {
        /// The ball capacity the engine was built for.
        capacity: u64,
    },
    /// The released ticket does not name a resident ball — it was already
    /// released, belongs to another router, or was forged.
    UnknownTicket {
        /// The offending ticket.
        ticket: Ticket,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Exhausted { capacity } => {
                write!(f, "router exhausted: all {capacity} placements routed")
            }
            Self::UnknownTicket { ticket } => write!(
                f,
                "unknown ticket (ball {} / bin {}): already released or foreign",
                ticket.id(),
                ticket.bin()
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// Aggregate counters every router reports through [`Router::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterStats {
    /// Balls routed (tickets issued) over the router's lifetime.
    pub routed: u64,
    /// Tickets released.
    pub released: u64,
    /// Balls currently resident (`routed − released` for pure-router use;
    /// streaming engines may also count balls placed through the batch API).
    pub resident: u64,
    /// Number of bins.
    pub bins: usize,
    /// Load-information refreshes: batch boundaries for a streaming engine,
    /// `1` for a one-shot engine (its information is always final).
    pub batches: u64,
    /// Current gap of the fresh loads (`max − mean`, weighted where the engine
    /// carries non-uniform weights).
    pub gap: f64,
}

/// A keyed routing engine with handle-based departures — the one interface the
/// one-shot and streaming engines share. Object-safe: drive any engine as
/// `&mut dyn Router`. A shared-handle implementation
/// (`pba_stream::ConcurrentRouter`) keeps `&self` inherent methods and
/// implements this trait by delegating to them, so each caller thread drives
/// its own clone of the handle.
pub trait Router {
    /// Routes one key: places a ball and returns its [`Placement`].
    fn route(&mut self, key: u64) -> Result<Placement, RouteError>;

    /// Routes a group of keys, returning one [`Placement`] per key in key
    /// order. Observably equivalent to calling [`Router::route`] once per
    /// key — engines with a native batched path (the streaming allocators)
    /// amortize per-route overhead (snapshot reads, threshold pricing,
    /// ledger locking) across the group while staying **bit-identical** to
    /// the loop, splitting groups that straddle a batch boundary so
    /// thresholds re-price exactly where the one-at-a-time path would.
    ///
    /// On error the group stops at the failing key: placements already
    /// committed stay committed (same as the loop the default impl runs).
    fn route_many(&mut self, keys: &[u64]) -> Result<Vec<Placement>, RouteError> {
        keys.iter().map(|&key| self.route(key)).collect()
    }

    /// Releases a previously issued ticket (the ball departs its bin).
    fn release(&mut self, ticket: Ticket) -> Result<(), RouteError>;

    /// Releases a group of tickets: [`Router::release`] once per ticket, in
    /// order. On error the group stops at the failing ticket: releases
    /// already committed stay committed, and the error names the ticket
    /// that failed. No engine overrides the loop — a departure only has to
    /// be visible at the next batch boundary, and the grouped departure
    /// path is the serving one (`ConcurrentRouter::serve_wire`).
    fn release_many(&mut self, tickets: &[Ticket]) -> Result<(), RouteError> {
        tickets.iter().try_for_each(|&ticket| self.release(ticket))
    }

    /// Current per-bin loads.
    fn loads(&self) -> Vec<u32>;

    /// Aggregate routing statistics.
    fn stats(&self) -> RouterStats;
}
