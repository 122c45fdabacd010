//! The **engine core** of the streaming pipeline, and its shared-handle
//! shell: `route(key)` callable from many threads at once.
//!
//! The paper's balls act *in parallel as separate agents*; the batched model
//! (Los & Sauerwald 2022) is what makes that implementable: every ball of a
//! batch decides from the **stale snapshot of the previous batch boundary**,
//! so in-flight placements never need to see each other. The core therefore
//! needs almost no synchronisation on its hot path:
//!
//! ```text
//!   caller threads                 ┌───────────────────────────────┐
//!   route(key) ──► read stale ────►│ choose_bin  (pure fn of       │
//!   route(key) ──► snapshot   ────►│   stale snapshot + key)       │
//!   route(key) ──► (EpochCell)────►│                               │
//!                                  └──────────────┬────────────────┘
//!                                                 ▼
//!                                   commit: AtomicBins increment
//!                                   ticket: SharedTicketLedger
//!                                                 ▼
//!                              every `batch_size` commits, ONE thread
//!                              borrows the boundary book: fresh loads →
//!                              gap/observers → EpochCell::publish_with
//!                              (epoch += 1) — the next stale snapshot
//! ```
//!
//! * **Snapshot** — the stale load vector is epoch-published through
//!   [`pba_concurrent::EpochCell`]: readers clone an `Arc`, the boundary
//!   thread refills the buffer the previous boundary displaced, swaps it in
//!   and bumps a monotone epoch. Epoch == batch boundaries completed.
//! * **Commit** — routes are lock-free atomic increments on
//!   [`pba_concurrent::AtomicBins`] (the route lane of [`ShardedBins`]); a
//!   drained batch, which has one writer, is plain stores to the bins' push
//!   lane. Tickets are issued and released through the bin-sharded
//!   [`pba_model::router::SharedTicketLedger`] — a slab per shard that the
//!   ticket indexes, so neither direction hashes.
//!
//! ## One core, two ownership shells
//!
//! The private `Core` holds that lock-free state and **every** method of the
//! engine — route, release, pricing, the boundary, staged weights and
//! membership, migration. What it does not hold is the state only one thread
//! may write at a time: the boundary book (batch count, gap trajectory), the
//! membership side (lifecycle table, staged changes) and the drain side
//! (arrivals in arrival order, commit scratch). That state belongs to a
//! *shell*, which lends it to the core call by call (`Lend`):
//!
//! * [`ConcurrentRouter`] — the cloneable `Arc` handle — keeps each piece
//!   behind its own mutex and lends by locking; its
//!   [`push`](ConcurrentRouter::push) locks an inbox, stamps the arrival
//!   under that lock and appends it, and the draining thread moves the
//!   inbox into the drain side's buffer whole (the crate-private ingress
//!   stage).
//! * [`StreamAllocator`](crate::StreamAllocator) — the sole owner — keeps
//!   them as plain fields and lends by reborrowing, so nothing is locked, its
//!   accessors hand out references, and its `push` is one plain increment
//!   and a `Vec` push into that same buffer.
//!
//! ## Determinism contract
//!
//! `route`, `route_many`, `release`, the drain, the boundary and every
//! staged change are the *same code* on both shells, so with one
//! caller they agree **by construction**. The shells differ only in how a
//! pushed ball reaches the drain buffer — through a locked inbox or
//! directly — and stamping under the inbox lock keeps the inbox in arrival
//! order. What one caller must get is written down once, as an executable
//! model of the batched process (`tests/support/model.rs`), and
//! `tests/model_properties.rs` drives the model, the sole owner and a
//! 1-caller handle through the same random operations: after every one the
//! three agree on placements, loads, batch count, gap trajectory and tickets,
//! for every policy. Candidate bins are a pure hash of `(seed, key)`, so
//! every placement is reproducible from the arrival sequence alone.
//!
//! With **k caller threads**, placements of a batch race the boundary: a
//! ball may commit while another thread publishes the next snapshot, and the
//! published loads may include early commits of the following batch. That is
//! *additional staleness of at most the in-flight balls* — exactly the
//! regime the batched model prices (experiment E10) — so the load-level
//! guarantees survive while bit-level reproducibility intentionally does
//! not. What holds for **every** interleaving: conservation
//! (`placed − departed == Σ loads`), ticket-ledger consistency (no lost or
//! duplicated tickets, double releases rejected), epoch monotonicity, and
//! one boundary per `batch_size` routed balls.
//!
//! ## Elastic membership and reweighting
//!
//! Topology is **epoch-published** like the stale snapshot, and there is one
//! topology path: every engine publishes a `Topology` from construction (the
//! identity one — every configured bin active — unless slots are reserved)
//! and every route, drain, boundary and pricing reads it. A
//! [`MembershipPlan`] staged through [`ConcurrentRouter::stage_membership`]
//! — or weights staged through [`ConcurrentRouter::set_weights`] — is applied
//! at the next batch boundary under the boundary book, then the new active
//! set and weight resolves are published through a second
//! [`pba_concurrent::EpochCell`]. A route reads the topology with one `Arc`
//! clone, a routed group once for the whole group. The topology itself says
//! when sampling needs no indirection: while every slot is active, policies
//! draw over `[0, n)` directly — the same RNG stream and the same cost as an
//! engine with no membership at all — so staging nothing, an empty plan or
//! uniform weights changes neither placements nor speed.
//!
//! A route that commits to a bin a racing scale event has just drained is
//! **undone** and retried against the fresh topology (counted under
//! `membership.rejected_routes_to_draining` — never silent). Every route is
//! a routed group, a single `route` a group of one, so there is one recheck:
//! one atomic read after the group's commit — the topology cell's epoch
//! against the epoch the group chose under — and only a publication in
//! between makes it look at lifecycle states. It then takes each drained
//! bin's whole delta back, re-chooses exactly its keys under that fresh view,
//! commits them and looks again. With one caller the race cannot occur.
//! Draining bins keep their residents and tickets until
//! released or force-migrated ([`ConcurrentRouter::migrate_drained`]); a
//! `Remove` retires a slot only at zero occupancy (ledger + loads).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

use pba_concurrent::EpochCell;
use pba_membership::{BinState, Membership, MembershipPlan};
use pba_model::router::{
    BatchEvent, MembershipChange, Placement, ReleaseEvent, ReweightEvent, RouteError, RouteEvent,
    Router, RouterObserver, RouterStats, SharedTicketLedger, Ticket, WireRequest,
};
use pba_model::weights::{normalized_loads, BinWeights, ResolvedWeights};
use pba_stats::OnlineStats;

use crate::commit;
use crate::engine::StreamConfig;
use crate::metrics::StreamMetrics;
use crate::observer::GapTrajectoryObserver;
use crate::policy::{ChoiceCtx, Chooser};
use crate::shard::{GroupCounts, PushLane, ShardedBins};
use crate::snapshot::{self, uses_thresholds, StreamSnapshot};

#[cfg(test)]
thread_local! {
    /// How often this thread's commits had to look at a fresh topology (see
    /// `Core::topology_moved_since`) — what the no-change tests count.
    static TOPOLOGY_RECHECKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

thread_local! {
    /// Per-thread scratch of the request path (`Core::serve`, and the
    /// routes `Core::route` and `Core::route_many_into` serve through it): a
    /// `&self` core cannot keep one buffer for all its callers, so each
    /// caller thread keeps its own and a warmed thread serves a run without
    /// allocating.
    static GROUP_COMMIT: std::cell::RefCell<GroupCommit> =
        std::cell::RefCell::new(GroupCommit::default());
}

/// One caller thread's scratch for its grouped calls (see `GROUP_COMMIT`).
#[derive(Default)]
struct GroupCommit {
    /// The chosen bins of a sub-group's routes.
    chosen: Vec<u32>,
    /// The grouped load commits' per-bin counts.
    counts: GroupCounts,
    /// The route keys of the sub-group being served.
    keys: Vec<u64>,
    /// The bins its releases took balls out of, in request order.
    departed: Vec<u32>,
    /// `Core::serve_routes`'s tickets, lent out for the call.
    tickets: Vec<Option<Ticket>>,
    /// Per bin, the load change the sub-group's observer events have still
    /// to tell (`Core::notify_group`), lent out for the walk; zero between
    /// walks.
    net: Vec<i32>,
}

/// The placement a served route's ticket records.
fn placement(ticket: &Option<Ticket>) -> Placement {
    let ticket = ticket.expect("every route is issued a ticket");
    Placement {
        ticket,
        bin: ticket.bin(),
    }
}

/// How a shell lends the core one piece of single-writer state: the sole
/// owner reborrows a field, the shared handle locks the mutex it lives behind.
pub(crate) enum Lend<'a, T> {
    /// A field of [`StreamAllocator`](crate::StreamAllocator).
    Owned(&'a mut T),
    /// A mutex of the [`ConcurrentRouter`] handle.
    Locked(&'a Mutex<T>),
}

impl<T> Lend<'_, T> {
    /// Runs `f` with exclusive access — what `Mutex::lock` is to the handle,
    /// and free for the owner.
    fn with<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        match self {
            Self::Owned(state) => f(state),
            Self::Locked(mutex) => f(&mut mutex.lock().expect("single-writer state lock")),
        }
    }
}

/// The single-writer state every routing call may need: the boundary book
/// (when the call opens or closes a batch) and the membership side (when
/// that boundary applies staged changes). Lock order: boundary, then
/// membership, then the observer chain.
pub(crate) struct Writer<'a> {
    pub(crate) boundary: Lend<'a, BoundaryBook>,
    pub(crate) membership: Lend<'a, MembershipSide>,
}

/// The thresholds of one routed batch, priced lazily by the **first** route
/// call of the batch (so the resident count they see includes every release
/// up to that call) and shared by the rest of the batch through the
/// `OnceLock`.
#[derive(Debug)]
struct RouteThresholds {
    /// Flat batch threshold (`Policy::Threshold`, and the uniform-weights
    /// fallback of `Policy::CapacityThreshold`).
    flat: u32,
    /// Per-bin capacity thresholds (non-uniform `CapacityThreshold` only).
    capacity: Vec<u32>,
}

/// Boundary-side bookkeeping, written by one thread at a time: boundaries
/// are rare (once per `batch_size` placements), so the handle's lock around
/// it is cold. External observer sinks live in the separate
/// [`ObserverChain`] mutex — fan-out to arbitrary user code must never run
/// inside the boundary's critical section, which routes touching the
/// boundary (closers, staged-change appliers) wait on.
#[derive(Debug)]
pub(crate) struct BoundaryBook {
    /// Batch boundaries completed (== the published epoch).
    batches: u64,
    /// The default observer: per-batch gap trajectory + streaming stats.
    gap: GapTrajectoryObserver,
    /// Scratch: the active bins' loads, gathered for the boundary gap of a
    /// topology with inactive slots (reused).
    gap_scratch: Vec<u32>,
}

impl BoundaryBook {
    /// Batch boundaries completed so far.
    pub(crate) fn batches(&self) -> u64 {
        self.batches
    }

    /// The built-in gap observer (trajectory + streaming stats).
    pub(crate) fn gap(&self) -> &GapTrajectoryObserver {
        &self.gap
    }
}

/// The external observer sinks, behind their own mutex so the per-route and
/// per-release taps (and the deferred boundary fan-out) serialise on this
/// lock alone — never on the boundary lock. Lock order: the boundary lock
/// may be held while taking this one (boundary → observers); the reverse
/// never happens.
struct ObserverChain(Vec<Arc<Mutex<dyn RouterObserver + Send>>>);

impl std::fmt::Debug for ObserverChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverChain")
            .field("observers", &self.0.len())
            .finish()
    }
}

/// One boundary's `on_batch` payload, captured inside the boundary's
/// critical section and fired through the observer chain **after** it ends —
/// the contention surgery that keeps slow observers from stalling routes
/// that need the boundary.
struct DeferredBatchEvent {
    batch_index: u64,
    batch_len: usize,
    loads: Arc<Vec<u32>>,
    gap: f64,
    resident: u64,
}

/// Drain-side state (the push path), written by one thread at a time so
/// exactly one thread batches and drains while routes proceed.
#[derive(Debug)]
pub(crate) struct DrainSide {
    /// The keys of the arrivals not yet drained, in arrival order: the sole
    /// owner pushes here directly, the handle's drainer moves its inbox in
    /// whole.
    pub(crate) buffer: Vec<u64>,
    /// The one writer's right to the loads' push lane, which every drained
    /// batch commits into.
    lane: PushLane,
    /// Scratch: the chosen bin of every ball of the batch being drained.
    chosen: Vec<u32>,
    /// Scratch of the batch's grouped load commit.
    counts: GroupCounts,
    /// Scratch: per-bin capacity thresholds of the batch being drained.
    capacity: Vec<u32>,
}

/// The epoch-published view of the topology: everything a route needs to
/// sample, price and commit against the current active set, bundled into one
/// immutable value so a reader sees a *consistent* topology with a single
/// `Arc` clone (never an active set from one epoch priced by the resolve of
/// another). Published from construction — the identity topology of an
/// engine nobody has scaled yet is a topology like any other.
#[derive(Debug)]
struct Topology {
    /// Sorted active slots — the sampling domain.
    active: Vec<u32>,
    /// Per-slot lifecycle states (capacity-length) for the post-commit
    /// draining recheck.
    states: Vec<BinState>,
    /// The resolve restricted to the active slots; `None` when the survivors
    /// are uniform (the exact unweighted code paths).
    active_resolved: Option<ResolvedWeights>,
    /// Capacity-wide effective resolve for slot-indexed load comparisons,
    /// `Some` iff `active_resolved` is, so uniform survivors run the strict
    /// unweighted paths of a compacted fixed router.
    resolved: Option<Arc<ResolvedWeights>>,
}

impl Topology {
    /// Derives the published view from the authoritative lifecycle table.
    fn of(table: &Membership) -> Self {
        let active = table.active().to_vec();
        let slot_weights = table.slot_weights();
        let surviving: Vec<f64> = active
            .iter()
            .map(|&bin| slot_weights[bin as usize])
            .collect();
        let active_resolved = BinWeights::explicit(surviving).resolve(active.len());
        let resolved = active_resolved.as_ref().map(|_| {
            Arc::new(
                BinWeights::explicit(slot_weights.to_vec())
                    .resolve(slot_weights.len())
                    .expect("non-uniform active weights imply non-uniform slot weights"),
            )
        });
        Self {
            active,
            states: table.states().to_vec(),
            active_resolved,
            resolved,
        }
    }

    /// The indirection sampling and measuring go through: the active slots,
    /// or `None` while **every** slot is active — then positions are slots,
    /// policies draw over `[0, n)` directly and loads are measured in place.
    fn sampled(&self) -> Option<&[u32]> {
        (self.active.len() < self.states.len()).then_some(&self.active[..])
    }

    /// The gap of `loads` under this topology's weights: classic
    /// `max − mean` when uniform, weighted `max_i(load_i/w_i) − (Σ load)/W`
    /// otherwise, over the **active** bins only (gathered into `scratch`
    /// when some slot is not) — draining and retired slots hold balls no
    /// placement decision can see.
    fn gap_of(&self, loads: &[u32], scratch: &mut Vec<u32>) -> f64 {
        snapshot::gap_of_loads(
            loads,
            self.sampled(),
            self.active_resolved.as_ref(),
            scratch,
        )
    }
}

/// Staged-but-unapplied elastic state, written by one thread at a time.
/// Staging is rare (a scale event, not a request), so the handle's lock
/// around it is cold; routes read the applied state through the
/// epoch-published [`Topology`] instead.
#[derive(Debug)]
pub(crate) struct MembershipSide {
    /// The authoritative lifecycle table (the applied state).
    table: Membership,
    /// Membership events staged since the last boundary.
    pending: MembershipPlan,
    /// Weights staged since the last boundary, applied after any staged
    /// membership events.
    pending_weights: Option<BinWeights>,
}

impl MembershipSide {
    /// The authoritative lifecycle table.
    pub(crate) fn table(&self) -> &Membership {
        &self.table
    }
}

/// The one streaming engine: the lock-free state and every method (see the
/// [module docs](self)). Single-writer state arrives as `&mut` parameters
/// or a [`Writer`], lent by whichever shell owns this core.
#[derive(Debug)]
pub(crate) struct Core {
    config: StreamConfig,
    /// Lock-free load counters.
    bins: ShardedBins,
    /// The epoch-published stale snapshot every route decides from.
    published: EpochCell<Vec<u32>>,
    /// The open routed batch's lazily priced thresholds; swapped for a fresh
    /// (unpriced) cell at every routed-batch close. Only threshold policies
    /// ever touch it.
    route_thresholds: RwLock<Arc<OnceLock<RouteThresholds>>>,
    /// Balls routed since the last routed-batch boundary.
    open_routed: AtomicU64,
    /// Next ball id (route and push share the arrival sequence): every
    /// arrival but the seeded balls.
    next_ball: AtomicU64,
    /// Anonymous balls seeded at construction, arrived and placed at once.
    seeded: u64,
    placed: AtomicU64,
    /// Balls departed — every one a released ticket.
    departed: AtomicU64,
    routed: AtomicU64,
    /// External observer sinks (see [`ObserverChain`] for the lock order).
    observers: Mutex<ObserverChain>,
    /// Fast-path guard: skip the observer lock on routes/releases when no
    /// external observer is registered.
    has_observers: AtomicBool,
    /// Resident-ball table (bin-sharded, thread-safe): only routed balls are
    /// ticketed; pushed balls are anonymous.
    ledger: SharedTicketLedger,
    /// The epoch-published topology every route, drain and boundary decides
    /// from; its epoch counts the scale and reweight events applied so far.
    topology: EpochCell<Topology>,
    /// Something is staged and unapplied — checked wherever a batch opens or
    /// closes.
    has_pending_membership: AtomicBool,
    /// The drain's own thread count when [`StreamConfig::num_threads`] is
    /// positive.
    pool: Option<rayon::ThreadPool>,
    /// Resolved metric handles ([`Core::install_metrics`]); `None` is the
    /// disabled fast path — zero metric instructions anywhere.
    metrics: Option<StreamMetrics>,
}

/// What every [`ConcurrentRouter`] clone shares: the core, the single-writer
/// state it borrows, each piece behind its own mutex. Lock order: drain,
/// then inbox; drain, then boundary (see [`Writer`] for the rest).
#[derive(Debug)]
struct Shared {
    core: Core,
    /// The keys of pushed arrivals no drain has taken yet, in id order.
    inbox: Mutex<Vec<u64>>,
    drain: Mutex<DrainSide>,
    boundary: Mutex<BoundaryBook>,
    membership: Mutex<MembershipSide>,
}

impl Shared {
    /// Lends the boundary book and the membership side by lock.
    fn writer(&self) -> Writer<'_> {
        Writer {
            boundary: Lend::Locked(&self.boundary),
            membership: Lend::Locked(&self.membership),
        }
    }
}

/// A cloneable, `Arc`-backed handle to one concurrent streaming router.
/// Every method takes `&self`; clone the handle into as many caller threads
/// as you like — they all route against the same bins, ledger and snapshot.
/// See the [module docs](self) for the pipeline and the determinism
/// contract.
///
/// ```
/// use pba_stream::{ConcurrentRouter, Policy, StreamConfig};
///
/// let router = ConcurrentRouter::new(
///     StreamConfig::new(16).policy(Policy::TwoChoice).batch_size(32).seed(7),
/// );
/// let handles: Vec<_> = (0..4)
///     .map(|t| {
///         let router = router.clone();
///         std::thread::spawn(move || {
///             (0..100u64)
///                 .map(|i| router.route(t * 1_000 + i).expect("infallible").ticket)
///                 .collect::<Vec<_>>()
///         })
///     })
///     .collect();
/// let tickets: Vec<_> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
/// assert_eq!(router.resident(), 400);
/// for ticket in tickets {
///     router.release(ticket).expect("each ticket releases once");
/// }
/// assert_eq!(router.resident(), 0);
/// assert!(router.conserves_balls());
/// ```
#[derive(Debug, Clone)]
pub struct ConcurrentRouter {
    shared: Arc<Shared>,
}

impl ConcurrentRouter {
    /// Creates an empty concurrent router over `config.bins` bins.
    ///
    /// The full [`StreamConfig`] vocabulary applies — policy, batch size,
    /// shards (which also shard the ticket ledger),
    /// seed, weights, `num_threads` for the drain path.
    pub fn new(config: StreamConfig) -> Self {
        Self::build(config, None)
    }

    /// Like [`ConcurrentRouter::new`], but with every streaming metric
    /// resolved against `registry`. Metrics are **write-only** for the
    /// router — no allocation decision reads one — so an instrumented router
    /// produces bit-identical placements to a bare one. See
    /// [`crate::metrics`] for the counter inventory.
    pub fn with_metrics(config: StreamConfig, registry: Arc<pba_obs::MetricsRegistry>) -> Self {
        Self::build(config, Some(registry))
    }

    fn build(config: StreamConfig, registry: Option<Arc<pba_obs::MetricsRegistry>>) -> Self {
        let (mut core, book, side, drain) = Core::new(config);
        if let Some(registry) = registry {
            core.install_metrics(registry);
        }
        Self {
            shared: Arc::new(Shared {
                inbox: Mutex::default(),
                drain: Mutex::new(drain),
                boundary: Mutex::new(book),
                membership: Mutex::new(side),
                core,
            }),
        }
    }

    /// The resolved metric handles, when the router was built via
    /// [`ConcurrentRouter::with_metrics`] (their registry is
    /// `metrics().unwrap().registry`).
    pub fn metrics(&self) -> Option<&StreamMetrics> {
        self.shared.core.metrics()
    }

    /// The configuration this router was built with. `config().weights`
    /// stays the construction-time value; [`ConcurrentRouter::weights`]
    /// follows runtime reweighting.
    pub fn config(&self) -> &StreamConfig {
        self.shared.core.config()
    }

    /// Routes one key from any thread: chooses a bin against the current
    /// epoch snapshot, commits the placement (atomic increment), issues a
    /// [`Ticket`], and — if this ball completes a batch — advances the
    /// boundary and publishes the next snapshot. It is
    /// [`ConcurrentRouter::route_many`] on a group of one, through the same
    /// per-thread scratch, so a warmed call allocates nothing.
    ///
    /// Routing is infallible (the `Result` is the shared router surface);
    /// the error arm is never taken.
    pub fn route(&self, key: u64) -> Result<Placement, RouteError> {
        self.shared.core.route(&mut self.shared.writer(), key)
    }

    /// Routes a group of keys from any thread — the amortized hot path, and
    /// the all-`ROUTE` case of [`ConcurrentRouter::serve_wire`]. The group is
    /// processed in sub-groups capped at the open batch's remaining room, and
    /// each sub-group pays the per-route overhead **once**: one topology
    /// read, one thresholds fetch (priced lazily like the first route of a
    /// batch), one epoch-cell read, one grouped load commit
    /// ([`ShardedBins::place_counted`]) with one draining recheck after it
    /// (an epoch compare; see the module docs), one ledger lock per touched
    /// shard ([`SharedTicketLedger::settle`]) and whole-group counter adds.
    ///
    /// With one caller this is bit-identical to looping
    /// [`ConcurrentRouter::route`], a group of one (property-tested across
    /// every policy × weights × thread count); with `k` callers the group's
    /// placements
    /// interleave with other callers' exactly as individual routes would,
    /// and every boundary still closes after `batch_size` routed balls.
    pub fn route_many(&self, keys: &[u64]) -> Result<Vec<Placement>, RouteError> {
        let mut placements = Vec::with_capacity(keys.len());
        let core = &self.shared.core;
        core.route_many_into(&mut self.shared.writer(), keys, &mut placements)?;
        Ok(placements)
    }

    /// Simulates a **bin crash** from any thread: force-releases every
    /// *ticketed* resident ball of `bin` through the normal release path
    /// (ledger redeem → depart → [`ReleaseEvent`]), returning how many
    /// tickets were evicted. A crash is a burst of departures, not a silent
    /// loss: ledger and load vector stay consistent, so conservation keeps
    /// holding. Anonymous pushed balls hold no tickets and survive. Racing
    /// routes may land new balls on the crashed bin after the sweep — the
    /// returned count is exact only at quiescence.
    pub fn crash_bin(&self, bin: usize) -> u64 {
        self.shared.core.crash_bin(bin)
    }

    /// Releases a routed ball from any thread: validates the ticket against
    /// the shared ledger (double releases and foreign tickets fail with
    /// [`RouteError::UnknownTicket`]), departs its bin, and notifies
    /// observers. Like every load change, the departure reaches the policies
    /// at the next batch boundary.
    pub fn release(&self, ticket: Ticket) -> Result<(), RouteError> {
        self.shared.core.release(ticket)
    }

    /// Releases a group of routed balls from any thread: a loop of
    /// [`ConcurrentRouter::release`], stopping at the first ticket that
    /// fails (releases before it stay committed). Grouped departures are
    /// [`serve_wire`](ConcurrentRouter::serve_wire)'s, which settles a run
    /// of wire-id releases in one ledger pass.
    pub fn release_many(&self, tickets: &[Ticket]) -> Result<(), RouteError> {
        tickets.iter().try_for_each(|&ticket| self.release(ticket))
    }

    /// See [`SharedTicketLedger::wire_id`].
    pub fn wire_id(&self, ticket: &Ticket) -> u64 {
        self.shared.core.ledger.wire_id(ticket)
    }

    /// Serves a run of wire requests — routes and releases by wire id, in
    /// any order — writing into `out` (overwritten, one entry per request,
    /// in order) each route's ticket and each release's released ticket, at
    /// the bin its ball left, or `None` when its wire id names no resident
    /// ball: never issued, already released, repeated within the run, or
    /// issued only by a later route of the run.
    ///
    /// Every ball of a batch decides against the same stale snapshot, so the
    /// requests of a batch commute up to its boundary, and the run is served
    /// in sub-groups that each end at the route filling the open batch. A
    /// sub-group's routes are chosen under one view and committed with one
    /// draining recheck; one ledger pass ([`SharedTicketLedger::settle`])
    /// then issues and redeems in request order, locking each touched shard
    /// once; the released balls depart in one grouped decrement, and
    /// counters are added once.
    ///
    /// With one caller this leaves every observable exactly as serving the
    /// requests one at a time does — tickets, loads, snapshot epochs, the
    /// gap trajectory and counters (property-tested). When
    /// the open batch has no route yet and its first route will price
    /// thresholds or apply staged changes, releases ahead of that route are
    /// settled first, so both see them as the loop does. Observers hear each
    /// sub-group's events once it is settled, in request order and before
    /// the boundary it may close, each carrying what the loop reports. A
    /// `None` reaches neither the loads nor the observers nor
    /// `route.rejected_unknown_ticket`.
    pub fn serve_wire(&self, requests: &[WireRequest], out: &mut Vec<Option<Ticket>>) {
        out.clear();
        let core = &self.shared.core;
        core.serve(&mut self.shared.writer(), requests, |&request| request, out)
    }

    /// Buffers one arriving ball (fire and forget) from any thread; returns
    /// its arrival id. The id is stamped under the inbox lock, so the inbox
    /// stays in arrival order. Nothing is allocated until some thread calls
    /// [`ConcurrentRouter::drain_ready`] (or [`ConcurrentRouter::flush`]).
    pub fn push(&self, key: u64) -> u64 {
        let mut inbox = self.inbox();
        let id = self.shared.core.stamp();
        inbox.push(key);
        id
    }

    fn inbox(&self) -> MutexGuard<'_, Vec<u64>> {
        self.shared.inbox.lock().expect("inbox lock")
    }

    /// Takes in every pushed ball and drains every *full* batch;
    /// returns the number of batches drained. Balls beyond the last full
    /// batch stay buffered. Any thread may call this; one drain runs at a
    /// time (serialised by the drain lock) while routes keep flowing.
    pub fn drain_ready(&self) -> usize {
        let mut side = self.sequenced();
        let mut writer = self.shared.writer();
        self.shared
            .core
            .drain_batches(&mut writer, &mut side, false)
    }

    /// Closes a partially filled routed batch (so its boundary is recorded)
    /// and drains everything buffered, including a final partial batch;
    /// returns the number of batch boundaries produced. Exact when callers
    /// are quiescent (the natural shutdown/checkpoint moment); concurrent
    /// routes simply land in the next batch.
    pub fn flush(&self) -> usize {
        let mut side = self.sequenced();
        self.shared.core.flush(&mut self.shared.writer(), &mut side)
    }

    /// Takes the drain lock and moves the inbox into its buffer. The buffer
    /// holds at most the undrained remainder of earlier takes, and every
    /// inbox id was stamped after that take, so the move is a swap or an
    /// append and the buffer stays in arrival order.
    fn sequenced(&self) -> MutexGuard<'_, DrainSide> {
        let mut side = self.shared.drain.lock().expect("drain lock");
        let mut inbox = self.inbox();
        if side.buffer.is_empty() {
            std::mem::swap(&mut side.buffer, &mut inbox);
        } else {
            side.buffer.append(&mut inbox);
        }
        drop(inbox);
        side
    }

    /// Registers an external observer, notified (after the built-in gap
    /// observer) on every batch boundary and release. The caller keeps its
    /// own `Arc` handle to read the sink back.
    pub fn add_observer(&self, observer: Arc<Mutex<dyn RouterObserver + Send>>) {
        self.shared.core.add_observer(observer);
    }

    /// Stages a membership plan from any thread, applied (in staging order,
    /// before any staged weights) at the **next batch boundary**: the
    /// in-flight batch finishes on the old topology, then the lifecycle
    /// table transitions, `membership.*` counters account for every accepted
    /// and rejected event, [`RouterObserver::on_membership`] fires (only
    /// when something actually changed), and the new active set is
    /// epoch-published. Staging twice before a boundary concatenates the
    /// plans in order; an identity plan (or an empty one) is a strict no-op.
    pub fn stage_membership(&self, plan: MembershipPlan) {
        let mut side = self.shared.membership.lock().expect("membership lock");
        self.shared.core.stage_membership(&mut side, plan);
    }

    /// Stages new bin weights from any thread, applied at the next batch
    /// boundary after any staged membership events: the in-flight batch
    /// finishes under the old weights, then the alias table, capacity
    /// thresholds and gap measure are rebuilt and
    /// [`RouterObserver::on_reweight`] fires with the resolve restricted to
    /// the surviving bins. Non-uniform weights must describe one weight per
    /// **capacity slot** (`bins + reserve_bins`; retired slots carry
    /// placeholders the next `Add` overwrites); uniform weights return the
    /// router to the strict unweighted path.
    pub fn set_weights(&self, weights: BinWeights) {
        let mut side = self.shared.membership.lock().expect("membership lock");
        self.shared.core.set_weights(&mut side, weights);
    }

    /// Force-migrates every **ticketed** resident of every draining bin
    /// through the live policy (same candidate sampling over the active
    /// set, keyed by ball id — the original routing key is not retained —
    /// with thresholds priced with the migration volume as the batch).
    /// Loads move (place + depart per ball) but `placed`/`departed` totals
    /// do not — a migration is a move, not an arrival — so conservation is
    /// untouched; outstanding tickets keep redeeming against the ball's new
    /// bin. Anonymous pushed balls hold no handle and stay put. A resident
    /// released concurrently mid-migration is simply skipped. Returns the
    /// number of migrations, also counted under `membership.migrations`.
    pub fn migrate_drained(&self) -> u64 {
        self.shared.core.migrate_drained()
    }

    /// Total slot capacity (`bins + reserve_bins` — the length of every
    /// per-bin vector this router exposes).
    pub fn capacity(&self) -> usize {
        self.shared.core.capacity()
    }

    /// A copy of the membership lifecycle table, taken under the membership
    /// lock: every configured bin active (and every reserved slot retired)
    /// until a staged plan says otherwise. Staged events show only once a
    /// boundary has applied them.
    pub fn membership(&self) -> Membership {
        let side = self.shared.membership.lock().expect("membership lock");
        side.table().clone()
    }

    /// [`Self::membership`] and whether membership events wait for the next
    /// boundary, read under one lock so no boundary falls between the two.
    pub(crate) fn membership_and_staged(&self) -> (Membership, bool) {
        let side = self.shared.membership.lock().expect("membership lock");
        (side.table().clone(), !side.pending.is_empty())
    }

    /// Fresh per-bin loads.
    pub fn loads(&self) -> Vec<u32> {
        self.shared.core.loads()
    }

    /// Fresh load of one bin (no allocation).
    pub fn load(&self, bin: usize) -> u32 {
        self.shared.core.load(bin)
    }

    /// Balls currently resident (`placed − departed`).
    pub fn resident(&self) -> u64 {
        self.shared.core.resident()
    }

    /// Balls pushed and not yet drained: the inbox plus what earlier drains
    /// left below one batch, read under both locks (in the drainer's order)
    /// so a ball moving from one to the other is never missed.
    pub fn pending(&self) -> usize {
        let side = self.shared.drain.lock().expect("drain lock");
        side.buffer.len() + self.inbox().len()
    }

    /// Batch boundaries completed so far (== the snapshot epoch).
    pub fn batches(&self) -> u64 {
        self.shared.boundary.lock().expect("boundary lock").batches
    }

    /// The epoch of the currently published stale snapshot: 0 at birth,
    /// +1 per batch boundary, strictly monotone. Concurrent observers can
    /// use it to tell which boundary a snapshot belongs to.
    pub fn snapshot_epoch(&self) -> u64 {
        self.shared.core.snapshot_epoch()
    }

    /// The stale snapshot routes currently decide from (the published
    /// epoch's loads; cheap — one `Arc` clone).
    pub fn stale_loads(&self) -> Arc<Vec<u32>> {
        self.shared.core.published.load()
    }

    /// The resolved non-uniform weights placements currently run under —
    /// after a runtime reweighting or scale event, the ones it installed —
    /// or `None` when the router runs the uniform (unweighted) configuration.
    pub fn weights(&self) -> Option<Arc<ResolvedWeights>> {
        self.shared.core.weights()
    }

    /// The effective weight of one slot: [`ConcurrentRouter::weights`] at
    /// `bin` (commissioned slots included), 1.0 when uniform.
    pub fn slot_weight(&self, bin: usize) -> f64 {
        self.shared.core.slot_weight(bin)
    }

    /// Fresh normalized loads `load_i / w_i` (the raw loads as `f64` for a
    /// uniform router).
    pub fn normalized_loads(&self) -> Vec<f64> {
        self.shared.core.normalized_loads()
    }

    /// Largest fresh normalized load `max_i(load_i / w_i)` (raw max load
    /// when uniform).
    pub fn max_normalized_load(&self) -> f64 {
        self.shared.core.max_normalized_load()
    }

    /// The gap after recent batch boundaries, in order (cloned out of the
    /// boundary book; the most recent [`StreamConfig::trajectory_cap`]
    /// entries at least).
    pub fn gap_trajectory(&self) -> Vec<f64> {
        let book = self.shared.boundary.lock().expect("boundary lock");
        book.gap.trajectory().to_vec()
    }

    /// Streaming statistics over the per-batch gaps (copied out).
    pub fn gap_stats(&self) -> OnlineStats {
        *self
            .shared
            .boundary
            .lock()
            .expect("boundary lock")
            .gap
            .stats()
    }

    /// Resident tickets (balls placed via [`ConcurrentRouter::route`] and
    /// not yet released). Anonymous pushed balls are not counted.
    pub fn resident_tickets(&self) -> usize {
        self.shared.core.resident_tickets()
    }

    /// Resident tickets in `bin`.
    pub fn tickets_in(&self, bin: usize) -> usize {
        self.shared.core.tickets_in(bin)
    }

    /// A resident ticket of `bin`, if any — the handle churn drivers pass to
    /// [`ConcurrentRouter::release`] after choosing a bin to retire from.
    /// Deterministic given the routing/release history, but not necessarily
    /// the most recently routed ball (releases reorder the occupancy list).
    pub fn ticket_in(&self, bin: usize) -> Option<Ticket> {
        self.shared.core.ticket_in(bin)
    }

    /// A full point-in-time snapshot. Counters are read individually (no
    /// stop-the-world), so under concurrent traffic the fields are each
    /// correct but may straddle in-flight operations; at quiescence the
    /// snapshot is exact.
    pub fn snapshot(&self) -> StreamSnapshot {
        self.shared
            .core
            .snapshot(self.pending() as u64, self.batches())
    }

    /// The conservation invariant: `placed − departed == Σ loads` and
    /// `arrived == placed + pending`. Exact at quiescence (no route/release
    /// in flight); under concurrent traffic the reads may straddle an
    /// in-flight ball.
    pub fn conserves_balls(&self) -> bool {
        self.shared.core.conserves_balls(self.pending() as u64)
    }

    /// Aggregate routing statistics.
    pub fn stats(&self) -> RouterStats {
        self.shared.core.stats(self.batches())
    }
}

/// The handle behind the one routing interface: each method delegates to the
/// inherent `&self` one, so `&mut dyn Router` drives a clone of the handle
/// exactly as it drives a [`StreamAllocator`](crate::StreamAllocator).
impl Router for ConcurrentRouter {
    fn route(&mut self, key: u64) -> Result<Placement, RouteError> {
        ConcurrentRouter::route(self, key)
    }

    fn route_many(&mut self, keys: &[u64]) -> Result<Vec<Placement>, RouteError> {
        ConcurrentRouter::route_many(self, keys)
    }

    fn release(&mut self, ticket: Ticket) -> Result<(), RouteError> {
        ConcurrentRouter::release(self, ticket)
    }

    fn loads(&self) -> Vec<u32> {
        ConcurrentRouter::loads(self)
    }

    fn stats(&self) -> RouterStats {
        ConcurrentRouter::stats(self)
    }
}

impl Core {
    /// An empty engine over `config.bins` bins, with the single-writer state
    /// its shell is to own: the boundary book, the membership side and the
    /// drain side, which holds the one token of the loads' push lane.
    pub(crate) fn new(config: StreamConfig) -> (Self, BoundaryBook, MembershipSide, DrainSide) {
        assert!(config.bins > 0, "a stream needs at least one bin");
        let config = StreamConfig {
            batch_size: config.batch_size.max(1),
            ..config
        };
        if let Some(prescribed) = config.weights.prescribed_bins() {
            assert_eq!(
                prescribed, config.bins,
                "weights describe {prescribed} bins but the stream has {}",
                config.bins
            );
        }
        let capacity = config.bins + config.reserve_bins;
        // Uniform weights of any constant canonicalise to 1.0 per slot.
        let slot_weights = match config.weights.resolve(config.bins) {
            Some(resolved) => resolved.weights().to_vec(),
            None => vec![1.0; config.bins],
        };
        let table = Membership::new(config.bins, capacity, &slot_weights);
        let (bins, lane) = ShardedBins::with_push_lane(capacity);
        let book = BoundaryBook {
            batches: 0,
            gap: GapTrajectoryObserver::new(config.trajectory_cap),
            gap_scratch: Vec::new(),
        };
        let core = Self {
            published: EpochCell::new(vec![0; capacity]),
            route_thresholds: RwLock::new(Arc::new(OnceLock::new())),
            open_routed: AtomicU64::new(0),
            next_ball: AtomicU64::new(0),
            seeded: 0,
            placed: AtomicU64::new(0),
            departed: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            observers: Mutex::new(ObserverChain(Vec::new())),
            has_observers: AtomicBool::new(false),
            ledger: SharedTicketLedger::new(capacity, config.shards),
            topology: EpochCell::new(Topology::of(&table)),
            has_pending_membership: AtomicBool::new(false),
            pool: (config.num_threads > 0).then(|| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(config.num_threads)
                    .build()
                    .expect("stream drain pool")
            }),
            bins,
            config,
            metrics: None,
        };
        let side = MembershipSide {
            table,
            pending: MembershipPlan::new(),
            pending_weights: None,
        };
        let drain = DrainSide {
            buffer: Vec::new(),
            lane,
            chosen: Vec::new(),
            counts: GroupCounts::default(),
            capacity: Vec::new(),
        };
        (core, book, side, drain)
    }

    /// Resolves the metric handles the engine records into (write-only; see
    /// [`StreamMetrics`]).
    pub(crate) fn install_metrics(&mut self, registry: Arc<pba_obs::MetricsRegistry>) {
        self.metrics = Some(StreamMetrics::resolve(registry));
    }

    /// Seeds the bins with `loads` **anonymous** resident balls (no tickets)
    /// and republishes them as the stale snapshot at epoch 0 — the state an
    /// engine reaches at a batch boundary with those loads.
    pub(crate) fn seed_resident_loads(&mut self, loads: &[u32]) {
        let slots = self.capacity();
        assert_eq!(loads.len(), slots, "one resident load per capacity slot");
        for (bin, &load) in loads.iter().enumerate() {
            if load > 0 {
                self.bins.place_many_unrecorded(bin, load);
            }
        }
        let total = self.bins.total();
        *self.placed.get_mut() = total;
        self.seeded = total;
        self.published = EpochCell::new(loads.to_vec());
    }

    /// Stamps one arrival from any thread: the next id of the sequence route
    /// and push share.
    fn stamp(&self) -> u64 {
        self.next_ball.fetch_add(1, Ordering::AcqRel)
    }

    /// [`Core::stamp`] for the sole owner: `&mut` proves no other thread can
    /// be stamping, so the counter advances by a plain increment.
    pub(crate) fn stamp_owned(&mut self) -> u64 {
        let next = self.next_ball.get_mut();
        *next += 1;
        *next - 1
    }

    /// Visits every observer, skipping (and counting, when metrics are
    /// installed) observers whose lock was poisoned by a panic in an earlier
    /// hook: a skipped observer is a dropped event, and `observer.errors`
    /// makes the drop visible.
    fn each_observer(
        &self,
        observers: &[Arc<Mutex<dyn RouterObserver + Send>>],
        mut visit: impl FnMut(&mut (dyn RouterObserver + Send)),
    ) {
        for obs in observers {
            match obs.lock() {
                Ok(mut guard) => visit(&mut *guard),
                Err(_) => {
                    if let Some(metrics) = &self.metrics {
                        metrics.observer_errors.inc();
                    }
                }
            }
        }
    }

    /// Registers an external observer (see [`ObserverChain`]).
    pub(crate) fn add_observer(&self, observer: Arc<Mutex<dyn RouterObserver + Send>>) {
        self.observers
            .lock()
            .expect("observer chain")
            .0
            .push(observer);
        self.has_observers.store(true, Ordering::Release);
    }

    /// Routes one key: [`Core::serve`] over a run of one route.
    pub(crate) fn route(&self, writer: &mut Writer<'_>, key: u64) -> Result<Placement, RouteError> {
        Ok(self.serve_routes(writer, &[key], |tickets| placement(&tickets[0])))
    }

    /// Routes a group of keys into `out` (overwritten): [`Core::serve`] over
    /// a run of routes only; see [`ConcurrentRouter::route_many`].
    pub(crate) fn route_many_into(
        &self,
        writer: &mut Writer<'_>,
        keys: &[u64],
        out: &mut Vec<Placement>,
    ) -> Result<(), RouteError> {
        self.serve_routes(writer, keys, |tickets| {
            out.clear();
            out.extend(tickets.iter().map(placement));
        });
        Ok(())
    }

    /// Serves a run of routes into this thread's ticket scratch (see
    /// `GROUP_COMMIT`) and hands `f` their tickets, one per key.
    fn serve_routes<T>(
        &self,
        writer: &mut Writer<'_>,
        keys: &[u64],
        f: impl FnOnce(&[Option<Ticket>]) -> T,
    ) -> T {
        let lend = |scratch: &std::cell::RefCell<GroupCommit>| {
            std::mem::take(&mut scratch.borrow_mut().tickets)
        };
        let mut tickets = GROUP_COMMIT.with(lend);
        tickets.clear();
        self.serve(writer, keys, |&key| WireRequest::Route(key), &mut tickets);
        let result = f(&tickets);
        GROUP_COMMIT.with(|scratch| scratch.borrow_mut().tickets = tickets);
        result
    }

    /// Serves a run of routes and releases in request order, appending one
    /// entry per request to `out`; see [`ConcurrentRouter::serve_wire`].
    pub(crate) fn serve<R>(
        &self,
        writer: &mut Writer<'_>,
        requests: &[R],
        kind: impl Fn(&R) -> WireRequest + Copy,
        out: &mut Vec<Option<Ticket>>,
    ) {
        let mut rest = requests;
        while !rest.is_empty() {
            let (take, routes) = self.sub_group(rest, kind);
            let (group, tail) = rest.split_at(take);
            rest = tail;
            self.serve_group(writer, group, routes, kind, out);
        }
    }

    /// The sub-group `requests` starts with, as `(requests, routes)`: up to
    /// and including the route that fills the open batch, so the boundary
    /// (and any staged re-pricing) lands exactly where the one-at-a-time
    /// loop puts it. While the open batch has no route yet and its first
    /// route will price thresholds or apply staged changes, the releases
    /// ahead of that route form a sub-group of their own, so that pricing
    /// and staging see their departures as the loop does.
    fn sub_group<R>(&self, requests: &[R], kind: impl Fn(&R) -> WireRequest) -> (usize, usize) {
        // Racing callers can push `open_routed` past the cap between the read
        // and our commit — the same overshoot racing individual routes
        // produce; `max(1)` guarantees progress.
        let open = self.open_routed.load(Ordering::Acquire);
        let room = (self.config.batch_size as u64).saturating_sub(open).max(1) as usize;
        let opening = open == 0
            && (uses_thresholds(self.config.policy)
                || self.has_pending_membership.load(Ordering::Acquire));
        let mut routes = 0;
        for (at, request) in requests.iter().enumerate() {
            if let WireRequest::Route(_) = kind(request) {
                if opening && routes == 0 && at > 0 {
                    return (at, 0);
                }
                routes += 1;
                if routes == room {
                    return (at + 1, routes);
                }
            }
        }
        (requests.len(), routes)
    }

    /// Serves one sub-group in one pass: its routes chosen under one view and
    /// committed with one draining recheck, one ledger pass that issues and
    /// redeems in request order, the redeemed balls departed in one grouped
    /// decrement, then the counters added once and the batch closed if the
    /// sub-group filled it.
    fn serve_group<R>(
        &self,
        writer: &mut Writer<'_>,
        group: &[R],
        routes: usize,
        kind: impl Fn(&R) -> WireRequest + Copy,
        out: &mut Vec<Option<Ticket>>,
    ) {
        if routes > 0 {
            self.apply_staged_at_batch_open(writer);
        }
        let settled = out.len();
        let taken = GROUP_COMMIT.with(|scratch| {
            let GroupCommit {
                chosen,
                counts,
                keys,
                departed,
                ..
            } = &mut *scratch.borrow_mut();
            keys.clear();
            keys.extend(group.iter().filter_map(|request| match kind(request) {
                WireRequest::Route(key) => Some(key),
                WireRequest::Release(_) => None,
            }));
            let base = if routes > 0 {
                // Read once per sub-group what `route` reads once per key.
                let (seen, ()) = self.with_route_chooser(|_, chooser| {
                    chosen.resize(keys.len(), 0);
                    chooser.choose_span(keys, chosen)
                });
                self.commit_group(seen, keys, chosen, counts)
            } else {
                chosen.clear();
                0
            };
            self.ledger.settle(group, kind, base, chosen, out);
            let served = group.iter().map(kind).zip(&out[settled..]);
            departed.clear();
            departed.extend(served.filter_map(|(request, ticket)| match request {
                WireRequest::Route(_) => None,
                WireRequest::Release(_) => ticket.map(|ticket| ticket.bin() as u32),
            }));
            let taken = self.bins.release_counted(departed, counts);
            // Every redeemed ball held a load unit: nothing can underflow
            // unless ledger and bins diverged (a bug, as in `migrate_drained`).
            assert_eq!(
                taken,
                departed.len() as u64,
                "a redeemed ball held a load unit"
            );
            if taken > 0 {
                self.departed.fetch_add(taken, Ordering::AcqRel);
                if let Some(metrics) = &self.metrics {
                    metrics.released.add(taken);
                }
            }
            taken
        });
        if self.has_observers.load(Ordering::Acquire) {
            // Before the boundary this sub-group may close, so a recorder
            // sees each arrival strictly before its batch event.
            self.notify_group(group, kind, &out[settled..], routes, taken);
        }
        if routes > 0 {
            let open = self.open_routed.fetch_add(routes as u64, Ordering::AcqRel) + routes as u64;
            if open >= self.config.batch_size as u64 {
                self.close_routed_batches(writer, false);
            }
        }
    }

    /// Fires each served request's `on_route` or `on_release`, in request
    /// order, through the observers in chain order. With one caller every
    /// event reports what serving its request alone does: the resident count
    /// and each departure's bin load are walked back from what the sub-group
    /// left — `routes` balls placed, `taken` departed.
    fn notify_group<R>(
        &self,
        group: &[R],
        kind: impl Fn(&R) -> WireRequest,
        served: &[Option<Ticket>],
        routes: usize,
        taken: u64,
    ) {
        let told = || {
            let served = group.iter().map(&kind).zip(served);
            served.filter_map(|(request, ticket)| Some((request, (*ticket)?)))
        };
        let change = |request| match request {
            WireRequest::Route(_) => 1,
            WireRequest::Release(_) => -1,
        };
        // `net[bin]`: the change the requests not yet told make to `bin`, so
        // its load after a request is its load now less `net[bin]`.
        let mut net = GROUP_COMMIT.with(|scratch| std::mem::take(&mut scratch.borrow_mut().net));
        net.resize(self.capacity(), 0);
        told().for_each(|(request, ticket)| net[ticket.bin()] += change(request));
        let mut resident = (self.resident_now() + taken).saturating_sub(routes as u64);
        let chain = self.observers.lock().expect("observer chain");
        for (request, ticket) in told() {
            let bin = ticket.bin();
            net[bin] -= change(request);
            resident = resident.saturating_add_signed(change(request).into());
            if let WireRequest::Route(key) = request {
                let event = RouteEvent {
                    key,
                    ticket,
                    resident,
                };
                self.each_observer(&chain.0, |observer| observer.on_route(&event));
            } else {
                let event = ReleaseEvent {
                    ticket,
                    load_after: self.bins.load(bin).saturating_add_signed(-net[bin]),
                    resident,
                };
                self.each_observer(&chain.0, |observer| observer.on_release(&event));
            }
        }
        GROUP_COMMIT.with(|scratch| scratch.borrow_mut().net = net);
    }

    /// Commits the routes of a sub-group chosen under topology epoch `seen` —
    /// one atomic increment per distinct bin — re-routes whatever a scale
    /// event published since has drained from under it, and returns the
    /// group's first ball id, for the ledger to ticket `chosen` from.
    fn commit_group(
        &self,
        seen: u64,
        group: &[u64],
        chosen: &mut [u32],
        counts: &mut GroupCounts,
    ) -> u64 {
        self.bins.place_counted(chosen, counts);
        if self.topology_moved_since(seen) {
            self.reroute_drained(group, chosen, counts);
        }
        let take = group.len() as u64;
        let base = self.next_ball.fetch_add(take, Ordering::AcqRel);
        self.placed.fetch_add(take, Ordering::AcqRel);
        self.routed.fetch_add(take, Ordering::AcqRel);
        if let Some(metrics) = &self.metrics {
            metrics.routed.add(take);
            metrics.placed.add(take);
        }
        base
    }

    /// The cold half of a grouped commit's draining recheck, once a topology
    /// was published after the group chose: under the fresh view, every ball
    /// of `chosen` whose bin it no longer serves is taken back (one grouped
    /// decrement per distinct bin), counted under
    /// `membership.rejected_routes_to_draining`, re-chosen under that same
    /// view and placed again — then the re-placed balls are rechecked, until
    /// no publication came in between.
    fn reroute_drained(&self, keys: &[u64], chosen: &mut [u32], counts: &mut GroupCounts) {
        let mut moving: Vec<usize> = (0..chosen.len()).collect();
        loop {
            let mut undone = Vec::new();
            let (seen, ()) = self.with_route_chooser(|fresh, chooser| {
                moving.retain(|&at| fresh.states[chosen[at] as usize] != BinState::Active);
                for &at in &moving {
                    let again = chooser.choose_one(keys[at]);
                    undone.push(std::mem::replace(&mut chosen[at], again));
                }
            });
            if undone.is_empty() {
                return;
            }
            let taken_back = self.bins.release_group(&undone);
            assert_eq!(
                taken_back,
                undone.len() as u64,
                "undo of placements just made"
            );
            if let Some(metrics) = &self.metrics {
                let rejected = &metrics.membership.rejected_routes_to_draining;
                rejected.add(undone.len() as u64);
            }
            let again: Vec<u32> = moving.iter().map(|&at| chosen[at]).collect();
            self.bins.place_counted(&again, counts);
            if !self.topology_moved_since(seen) {
                return;
            }
        }
    }

    /// Force-releases every ticketed resident of `bin`; see
    /// [`ConcurrentRouter::crash_bin`].
    pub(crate) fn crash_bin(&self, bin: usize) -> u64 {
        let mut evicted = 0;
        while let Some(ticket) = self.ledger.resident_in(bin) {
            if self.release(ticket).is_ok() {
                evicted += 1;
            }
        }
        evicted
    }

    /// Releases one routed ball: redeem, depart, count, notify.
    pub(crate) fn release(&self, ticket: Ticket) -> Result<(), RouteError> {
        // A redeemed ticket names a resident ball, so its bin is empty only
        // if ledger and bins diverged (a bug, not a caller error): the
        // release then fails rather than corrupt loads.
        let redeemed = self.ledger.redeem(ticket).ok();
        let Some(bin) = redeemed.filter(|&bin| self.bins.depart(bin)) else {
            if let Some(metrics) = &self.metrics {
                metrics.rejected_unknown_ticket.inc();
            }
            return Err(RouteError::UnknownTicket { ticket });
        };
        self.departed.fetch_add(1, Ordering::AcqRel);
        if let Some(metrics) = &self.metrics {
            metrics.released.inc();
        }
        if self.has_observers.load(Ordering::Acquire) {
            let event = ReleaseEvent {
                ticket,
                load_after: self.bins.load(bin),
                // O(1): the counters track Σ loads exactly; an O(n) scan per
                // departure would make churn cost O(departures·n).
                resident: self.resident_now(),
            };
            let chain = self.observers.lock().expect("observer chain");
            self.each_observer(&chain.0, |observer| observer.on_release(&event));
        }
        Ok(())
    }

    /// Stages a membership plan for the next batch boundary.
    pub(crate) fn stage_membership(&self, side: &mut MembershipSide, plan: MembershipPlan) {
        side.pending.extend(plan);
        self.has_pending_membership.store(true, Ordering::Release);
    }

    /// Stages new bin weights for the next batch boundary.
    pub(crate) fn set_weights(&self, side: &mut MembershipSide, weights: BinWeights) {
        if let Some(prescribed) = weights.prescribed_bins() {
            let slots = self.capacity();
            assert_eq!(
                prescribed, slots,
                "weights describe {prescribed} bins but the engine has {slots} slots"
            );
        }
        side.pending_weights = Some(weights);
        self.has_pending_membership.store(true, Ordering::Release);
    }

    /// Force-migrates the ticketed residents of every draining bin; see
    /// [`ConcurrentRouter::migrate_drained`].
    pub(crate) fn migrate_drained(&self) -> u64 {
        let topology = self.topology.load();
        let draining: Vec<u32> = topology
            .states
            .iter()
            .enumerate()
            .filter(|&(_, &state)| state == BinState::Draining)
            .map(|(bin, _)| bin as u32)
            .collect();
        let volume: u64 = draining
            .iter()
            .map(|&bin| self.ledger.count_in(bin as usize) as u64)
            .sum();
        if volume == 0 {
            return 0;
        }
        let mut capacity = Vec::new();
        let flat = self.price_batch(&topology, volume, &mut capacity);
        let stale = self.published.load();
        let ctx = self.choice_ctx(&topology, &stale, flat, &capacity);
        let chooser = Chooser::new(self.config.policy, &ctx);
        let mut migrated = 0u64;
        for &bin in &draining {
            while let Some(ticket) = self.ledger.resident_in(bin as usize) {
                let target = chooser.choose_one(ticket.id()) as usize;
                self.bins.place(target);
                if self.ledger.migrate(ticket, target).is_some() {
                    assert!(
                        self.bins.depart(bin as usize),
                        "a migrated resident held a load unit"
                    );
                    migrated += 1;
                    if let Some(metrics) = &self.metrics {
                        metrics.membership.migrations.inc();
                    }
                } else {
                    // The resident raced a concurrent release; undo the
                    // speculative placement.
                    self.bins.depart(target);
                }
            }
        }
        migrated
    }

    /// The configuration this engine was built with.
    pub(crate) fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The installed metric handles, if any.
    pub(crate) fn metrics(&self) -> Option<&StreamMetrics> {
        self.metrics.as_ref()
    }

    /// Total slot capacity (`bins + reserve_bins`): the length of every
    /// per-bin array for the engine's whole lifetime.
    pub(crate) fn capacity(&self) -> usize {
        self.config.bins + self.config.reserve_bins
    }

    /// Fresh per-bin loads.
    pub(crate) fn loads(&self) -> Vec<u32> {
        self.bins.snapshot()
    }

    /// Fresh load of one bin.
    pub(crate) fn load(&self, bin: usize) -> u32 {
        self.bins.load(bin)
    }

    /// Balls currently resident (`Σ loads`).
    pub(crate) fn resident(&self) -> u64 {
        self.bins.total()
    }

    /// The epoch of the published stale snapshot (== boundaries completed).
    pub(crate) fn snapshot_epoch(&self) -> u64 {
        self.published.epoch()
    }

    /// The weights placements currently run under: the published
    /// topology's capacity-wide resolve.
    pub(crate) fn weights(&self) -> Option<Arc<ResolvedWeights>> {
        self.topology.load().resolved.clone()
    }

    /// Fresh normalized loads `load_i / w_i` (raw loads when uniform).
    pub(crate) fn normalized_loads(&self) -> Vec<f64> {
        let loads = self.bins.snapshot();
        match self.weights() {
            None => loads.iter().map(|&l| l as f64).collect(),
            Some(weights) => normalized_loads(&loads, &weights),
        }
    }

    /// Largest fresh normalized load `max_i(load_i / w_i)`.
    pub(crate) fn max_normalized_load(&self) -> f64 {
        self.normalized_loads().into_iter().fold(0.0f64, f64::max)
    }

    /// The effective weight of one slot: [`Core::weights`] at `bin`, 1.0
    /// when uniform.
    pub(crate) fn slot_weight(&self, bin: usize) -> f64 {
        self.weights().map_or(1.0, |weights| weights.weight(bin))
    }

    /// Resident tickets (routed and not yet released).
    pub(crate) fn resident_tickets(&self) -> usize {
        self.ledger.len()
    }

    /// Resident tickets in `bin`.
    pub(crate) fn tickets_in(&self, bin: usize) -> usize {
        self.ledger.count_in(bin)
    }

    /// A resident ticket of `bin`, if any.
    pub(crate) fn ticket_in(&self, bin: usize) -> Option<Ticket> {
        self.ledger.resident_in(bin)
    }

    /// A full point-in-time snapshot; `pending` and `batches` are the
    /// shell's to supply.
    pub(crate) fn snapshot(&self, pending: u64, batches: u64) -> StreamSnapshot {
        let topology = self.topology.load();
        StreamSnapshot::assemble(
            self.bins.snapshot(),
            (*self.published.load()).clone(),
            self.arrived(),
            self.placed.load(Ordering::Acquire),
            self.departed.load(Ordering::Acquire),
            pending,
            batches,
            topology.sampled(),
            topology.active_resolved.as_ref(),
        )
    }

    /// The conservation invariant: `placed − departed == Σ loads` and
    /// `arrived == placed + pending`.
    pub(crate) fn conserves_balls(&self, pending: u64) -> bool {
        let placed = self.placed.load(Ordering::Acquire);
        self.resident_now() == self.bins.total() && self.arrived() == placed + pending
    }

    /// Balls arrived so far: the seeded ones and every id stamped.
    fn arrived(&self) -> u64 {
        self.seeded + self.next_ball.load(Ordering::Acquire)
    }

    /// Aggregate routing statistics; `batches` is the shell's to supply.
    pub(crate) fn stats(&self, batches: u64) -> RouterStats {
        let loads = self.bins.snapshot();
        let topology = self.topology.load();
        RouterStats {
            routed: self.routed.load(Ordering::Acquire),
            released: self.departed.load(Ordering::Acquire),
            resident: loads.iter().map(|&l| l as u64).sum(),
            bins: topology.active.len(),
            batches,
            gap: topology.gap_of(&loads, &mut Vec::new()),
        }
    }

    /// Applies staged membership/weight changes if this call sits at a batch
    /// boundary — no routed batch open — which is where they are due: the
    /// in-flight batch finishes on the topology it was priced under. Cheap
    /// when nothing is staged (one atomic read).
    fn apply_staged_at_batch_open(&self, writer: &mut Writer<'_>) {
        if !self.has_pending_membership.load(Ordering::Acquire)
            || self.open_routed.load(Ordering::Acquire) != 0
        {
            return;
        }
        let (boundary, membership) = (&mut writer.boundary, &mut writer.membership);
        boundary.with(|book| {
            if self.open_routed.load(Ordering::Acquire) == 0 {
                membership.with(|side| self.apply_staged_changes(book, side));
            }
        });
    }

    /// The pricing context of one batch: the stale snapshot, its thresholds
    /// and the weights and sampling domain of `topology`.
    fn choice_ctx<'a>(
        &'a self,
        topology: &'a Topology,
        stale: &'a [u32],
        flat: u32,
        capacity: &'a [u32],
    ) -> ChoiceCtx<'a> {
        ChoiceCtx {
            snapshot: stale,
            weights: topology.resolved.as_deref(),
            batch_threshold: flat,
            capacity_thresholds: capacity,
            seed: self.config.seed,
            bins: self.capacity(),
            active: topology.sampled(),
            active_weights: topology.active_resolved.as_ref(),
            counters: self.metrics.as_ref().map(|m| &m.policy),
        }
    }

    /// Runs `f` with the chooser of the open routed batch — the published
    /// topology and epoch snapshot plus, for a threshold policy, the batch's
    /// thresholds, priced once, at its first route (lazily, so the priced
    /// resident count includes every release up to the moment the batch
    /// opens) — and returns the topology epoch `f` chose under with its
    /// result. `f` is handed that topology too, so a draining recheck judges
    /// bins by the view it re-chooses under. Both cells are read under their
    /// read locks, not cloned out: `f` only chooses.
    fn with_route_chooser<R>(&self, f: impl FnOnce(&Topology, &Chooser<'_>) -> R) -> (u64, R) {
        let policy = self.config.policy;
        self.topology.with(|seen, topology| {
            let priced;
            let (flat, capacity): (u32, &[u32]) = if uses_thresholds(policy) {
                priced = self.priced_route_thresholds(topology);
                let thresholds = priced.get().expect("priced above");
                (thresholds.flat, &thresholds.capacity)
            } else {
                (0, &[])
            };
            self.published.with(|_, stale| {
                let ctx = self.choice_ctx(topology, stale, flat, capacity);
                (seen, f(topology, &Chooser::new(policy, &ctx)))
            })
        })
    }

    /// Whether a topology was published after epoch `seen` — the question
    /// every commit's draining recheck starts with, and nearly always ends
    /// with: one atomic read, and while no scale or reweight event has been
    /// applied in between there is nothing a placement chosen under `seen`
    /// could have missed.
    fn topology_moved_since(&self, seen: u64) -> bool {
        let moved = self.topology.epoch() != seen;
        #[cfg(test)]
        TOPOLOGY_RECHECKS.with(|count| count.set(count.get() + moved as u64));
        moved
    }

    /// Applies everything staged — membership events first (the topology the
    /// new weights will describe), then weights — and epoch-publishes the
    /// resulting topology. Runs the lifecycle state machine with the
    /// ledger/loads occupancy predicate, counts every accepted *and*
    /// rejected event and fires `on_membership` / `on_reweight`. Caller holds
    /// the boundary book, so routes see the new topology before any later
    /// boundary.
    fn apply_staged_changes(&self, book: &mut BoundaryBook, side: &mut MembershipSide) {
        self.has_pending_membership.store(false, Ordering::Release);
        let plan = std::mem::take(&mut side.pending);
        let staged_weights = side.pending_weights.take();
        let outcome = if plan.is_empty() {
            None
        } else {
            let bins = &self.bins;
            let ledger = &self.ledger;
            let outcome = side.table.apply(&plan, |bin| {
                bins.load(bin as usize) > 0 || ledger.count_in(bin as usize) > 0
            });
            if let Some(metrics) = &self.metrics {
                let counters = &metrics.membership;
                counters.adds.add(outcome.added.len() as u64);
                counters.drains.add(outcome.drained.len() as u64);
                counters.removes.add(outcome.removed.len() as u64);
                counters.rejected_adds.add(outcome.rejected_adds);
                counters.rejected_drains.add(outcome.rejected_drains);
                counters.rejected_removes.add(outcome.rejected_removes);
            }
            Some(outcome)
        };
        let reweighted = if let Some(weights) = staged_weights {
            let capacity = self.capacity();
            let values: Vec<f64> = match weights.resolve(capacity) {
                Some(resolved) => (0..capacity).map(|i| resolved.weight(i)).collect(),
                None => vec![1.0; capacity],
            };
            side.table.set_slot_weights(&values);
            true
        } else {
            false
        };
        let changed = outcome.as_ref().is_some_and(|o| o.changed());
        if !changed && !reweighted {
            return;
        }
        let topology = Topology::of(&side.table);
        if changed {
            let outcome = outcome.as_ref().expect("changed implies an applied plan");
            let event = MembershipChange {
                batch_index: book.batches,
                added: &outcome.added,
                drained: &outcome.drained,
                removed: &outcome.removed,
                active: &topology.active,
                resident: self.resident_now(),
            };
            book.gap.on_membership(&event);
            let chain = self.observers.lock().expect("observer chain");
            self.each_observer(&chain.0, |observer| observer.on_membership(&event));
        }
        if reweighted {
            // Report the *current* loads (an O(n) snapshot — reweights are
            // rare): the stale snapshot omits departures since the last
            // boundary, which would make the event's loads and resident
            // fields inconsistent.
            let loads = self.bins.snapshot();
            let event = ReweightEvent {
                batch_index: book.batches,
                loads: &loads,
                weights: topology.active_resolved.as_ref(),
                resident: self.resident_now(),
            };
            book.gap.on_reweight(&event);
            let chain = self.observers.lock().expect("observer chain");
            self.each_observer(&chain.0, |observer| observer.on_reweight(&event));
        }
        self.topology.publish(topology);
        // The open batch (if any) was priced under the old topology; the
        // next batch must re-price over the surviving weight mass.
        self.reset_route_thresholds();
    }

    /// `placed − departed` from two separate atomic reads, saturating:
    /// under concurrent traffic `departed` can be observed ahead of the
    /// earlier-read `placed` (a release racing the reads), and the counter
    /// pair must degrade to a near value, not wrap. Exact at quiescence.
    fn resident_now(&self) -> u64 {
        self.placed
            .load(Ordering::Acquire)
            .saturating_sub(self.departed.load(Ordering::Acquire))
    }

    /// Prices a batch of `batch_len` balls over the balls resident right
    /// now — routed batches, drained batches and migrations alike. Returns
    /// the flat threshold ([`snapshot::batch_threshold`]) and fills
    /// `capacity` with the per-bin thresholds of a weighted
    /// [`Policy::CapacityThreshold`](crate::Policy) (left empty otherwise).
    /// Pricing runs over the **active** bins and the balls resident in them,
    /// as a compacted engine over just those bins would: balls stranded on
    /// draining bins are leaving, and counting them would inflate the
    /// survivors' fair share.
    fn price_batch(&self, topology: &Topology, batch_len: u64, capacity: &mut Vec<u32>) -> u32 {
        let policy = self.config.policy;
        // Only a threshold policy reads the resident count; the rest skip
        // the O(n) walk behind it.
        let resident = if uses_thresholds(policy) {
            let active = topology.active.iter();
            active.map(|&bin| self.bins.load(bin as usize) as u64).sum()
        } else {
            0
        };
        snapshot::fill_capacity_thresholds_into(
            policy,
            topology.active_resolved.as_ref(),
            &topology.active,
            resident,
            self.capacity(),
            batch_len,
            capacity,
        );
        snapshot::batch_threshold(policy, resident, topology.active.len(), batch_len)
    }

    /// Returns the open routed batch's threshold cell, priced (the first
    /// caller computes; everyone else reuses). The projected batch length is
    /// the full `batch_size` — a router cannot know how many requests the
    /// batch will eventually have (push-mode partial flushes price their
    /// true length; full batches are identical either way).
    fn priced_route_thresholds(&self, topology: &Topology) -> Arc<OnceLock<RouteThresholds>> {
        let cell = Arc::clone(&self.route_thresholds.read().expect("threshold lock"));
        cell.get_or_init(|| {
            let mut capacity = Vec::new();
            let flat = self.price_batch(topology, self.config.batch_size as u64, &mut capacity);
            RouteThresholds { flat, capacity }
        });
        cell
    }

    /// Swaps in a fresh (unpriced) threshold cell for the next routed batch.
    fn reset_route_thresholds(&self) {
        if uses_thresholds(self.config.policy) {
            *self.route_thresholds.write().expect("threshold lock") = Arc::new(OnceLock::new());
        }
    }

    /// Closes as many *full* routed batches as have accumulated — called by
    /// the ball whose commit filled one; the boundary book serialises racing
    /// closers and the loop absorbs a backlog (several batches' worth of
    /// commits can pile up before the first closer gets the lock) — and,
    /// with `include_partial` (flush), the partial batch left open after
    /// them. Returns whether that partial batch produced a boundary.
    ///
    /// A close *is* a batch boundary, so staged changes must not survive
    /// past it: they are applied once the batch events are out.
    fn close_routed_batches(&self, writer: &mut Writer<'_>, include_partial: bool) -> bool {
        let batch = self.config.batch_size as u64;
        let closed_partial = self.at_boundary(writer, |book, deferred| loop {
            let open = self.open_routed.load(Ordering::Acquire);
            let partial = include_partial && open > 0 && open < batch;
            if open < batch && !partial {
                break false;
            }
            let batch_len = open.min(batch);
            self.open_routed.fetch_sub(batch_len, Ordering::AcqRel);
            self.advance_boundary(book, batch_len as usize, deferred);
            self.reset_route_thresholds();
            if partial {
                break true;
            }
        });
        self.apply_staged_at_batch_open(writer);
        closed_partial
    }

    /// The batch boundary: publishes the fresh loads as the next epoch's
    /// stale snapshot (into the buffer the previous boundary displaced),
    /// records their gap — under the weights the batch ran with — and
    /// captures the `on_batch` payload for the **deferred** external
    /// fan-out (see [`Core::at_boundary`], which every caller runs inside).
    fn advance_boundary(
        &self,
        book: &mut BoundaryBook,
        batch_len: usize,
        deferred: &mut Vec<DeferredBatchEvent>,
    ) {
        book.batches += 1;
        let (epoch, loads) = self
            .published
            .publish_with(|loads| self.bins.snapshot_into(loads));
        debug_assert_eq!(epoch, book.batches, "epoch tracks batch boundaries");
        let gap = self.topology.load().gap_of(&loads, &mut book.gap_scratch);
        let event = BatchEvent {
            batch_index: book.batches,
            batch_len,
            loads: &loads,
            gap,
            resident: self.resident_now(),
        };
        book.gap.on_batch(&event);
        if let Some(metrics) = &self.metrics {
            metrics.batches.inc();
            metrics.gap.set(gap);
            metrics.resident.set(event.resident as f64);
        }
        if self.has_observers.load(Ordering::Acquire) {
            deferred.push(DeferredBatchEvent {
                batch_index: event.batch_index,
                batch_len,
                gap,
                resident: event.resident,
                loads,
            });
        }
    }

    /// Runs `f` inside the boundary's critical section, then fires the
    /// `on_batch` events it captured through the observer chain — after the
    /// section has ended, so user code never runs inside it. The chain lock
    /// is acquired **before** the boundary book is given back (boundary →
    /// observers is the sanctioned order), so batch events reach external
    /// observers in boundary order even when several closers race.
    fn at_boundary<R>(
        &self,
        writer: &mut Writer<'_>,
        f: impl FnOnce(&mut BoundaryBook, &mut Vec<DeferredBatchEvent>) -> R,
    ) -> R {
        let mut deferred = Vec::new();
        let (result, chain) = writer.boundary.with(|book| {
            let result = f(book, &mut deferred);
            let fan_out = !deferred.is_empty();
            (
                result,
                fan_out.then(|| self.observers.lock().expect("observer chain")),
            )
        });
        let Some(chain) = chain else {
            return result;
        };
        for d in &deferred {
            let event = BatchEvent {
                batch_index: d.batch_index,
                batch_len: d.batch_len,
                loads: &d.loads,
                gap: d.gap,
                resident: d.resident,
            };
            self.each_observer(&chain.0, |observer| observer.on_batch(&event));
        }
        result
    }

    /// Closes a partially filled routed batch (so its boundary is recorded)
    /// and drains everything in `side`'s buffer, including a final partial
    /// batch; returns the number of batch boundaries produced.
    pub(crate) fn flush(&self, writer: &mut Writer<'_>, side: &mut DrainSide) -> usize {
        let closed = self.close_routed_batches(writer, true) as usize;
        closed + self.drain_batches(writer, side, true)
    }

    /// Drains `side`'s buffer (arrival order) in `batch_size` windows
    /// without copying balls out — batches are slices of it — plus the
    /// partial tail when `include_partial`; an undrained tail is compacted
    /// to the front. Returns the number of batches drained.
    pub(crate) fn drain_batches(
        &self,
        writer: &mut Writer<'_>,
        side: &mut DrainSide,
        include_partial: bool,
    ) -> usize {
        let batch_size = self.config.batch_size;
        let DrainSide {
            buffer,
            lane,
            chosen,
            counts,
            capacity,
        } = side;
        let mut drain = |batch| self.drain_batch(writer, batch, lane, chosen, counts, capacity);
        let mut drained = 0;
        let mut start = 0;
        while buffer.len() - start >= batch_size {
            drain(&buffer[start..start + batch_size]);
            start += batch_size;
            drained += 1;
        }
        if include_partial && start < buffer.len() {
            drain(&buffer[start..]);
            start = buffer.len();
            drained += 1;
        }
        buffer.drain(..start);
        drained
    }

    /// Allocates one pushed batch against the published snapshot — choose,
    /// then the grouped commit every served sub-group's routes make (the two
    /// steps of [`crate::commit`]) — and advances the boundary.
    fn drain_batch(
        &self,
        writer: &mut Writer<'_>,
        batch: &[u64],
        lane: &mut PushLane,
        chosen: &mut Vec<u32>,
        counts: &mut GroupCounts,
        capacity: &mut Vec<u32>,
    ) {
        // A batch starts here, so staged changes take effect — unless a
        // *routed* batch is still open: its thresholds were priced under the
        // old topology, so the change waits for the boundary that closes it.
        self.apply_staged_at_batch_open(writer);
        let topology = self.topology.load();
        let threshold = self.price_batch(&topology, batch.len() as u64, capacity);
        let stale = self.published.load();
        let ctx = self.choice_ctx(&topology, &stale, threshold, capacity);
        let chooser = Chooser::new(self.config.policy, &ctx);
        commit::choose_into(&chooser, batch, self.pool.as_ref(), chosen);
        self.bins.place_pushed(chosen, counts, lane);
        self.placed.fetch_add(batch.len() as u64, Ordering::AcqRel);
        if let Some(metrics) = &self.metrics {
            metrics.placed.add(batch.len() as u64);
        }
        self.at_boundary(writer, |book, deferred| {
            self.advance_boundary(book, batch.len(), deferred)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use pba_model::rng::SplitMix64;
    use pba_model::weights::BinWeights;

    fn keys(count: u64, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..count).map(|_| rng.next_u64()).collect()
    }

    /// A router with metrics, 64 routed residents and no routed batch open —
    /// the quiet state the hand-stepped scale races below start from.
    fn settled_router() -> ConcurrentRouter {
        let registry = Arc::new(pba_obs::MetricsRegistry::new());
        let config = StreamConfig::new(16).batch_size(64).seed(5);
        let router = ConcurrentRouter::with_metrics(config, registry);
        router.route_many(&keys(64, 1)).unwrap();
        assert_eq!(router.batches(), 1);
        router
    }

    /// Stages `change` and applies it on the spot, the way another caller's
    /// batch boundary would between this caller's choose and its commit.
    fn apply_now(router: &ConcurrentRouter, change: impl FnOnce(&ConcurrentRouter)) {
        let shared = &router.shared;
        change(router);
        shared.core.apply_staged_at_batch_open(&mut shared.writer());
        assert!(!shared.core.has_pending_membership.load(Ordering::Acquire));
    }

    fn drain_now(router: &ConcurrentRouter, bin: usize) {
        apply_now(router, |router| {
            router.stage_membership(MembershipPlan::new().drain(bin as u32))
        });
        assert_eq!(router.membership().state(bin), BinState::Draining);
    }

    /// The choose half of a routed sub-group, as `route_many` runs it;
    /// returns the topology epoch the group chose under.
    fn choose_group(core: &Core, group: &[u64], chosen: &mut Vec<u32>) -> u64 {
        let choose = |_: &Topology, chooser: &Chooser<'_>| {
            chosen.resize(group.len(), 0);
            chooser.choose_span(group, chosen)
        };
        core.with_route_chooser(choose).0
    }

    fn rejected_routes(router: &ConcurrentRouter) -> u64 {
        let metrics = router.metrics().expect("built with metrics");
        metrics.membership.rejected_routes_to_draining.get()
    }

    fn topology_rechecks() -> u64 {
        TOPOLOGY_RECHECKS.with(std::cell::Cell::get)
    }

    #[test]
    fn a_group_whose_bin_drains_before_its_commit_takes_it_back_and_reroutes() {
        // A group of 32, and a group of one: what `route(key)` serves.
        for size in [32, 1] {
            let router = settled_router();
            let core = &router.shared.core;
            let group = keys(size, 2);
            let (mut chosen, mut counts) = (Vec::new(), GroupCounts::default());

            // Step 1: the group chooses, under topology epoch 0.
            let seen = choose_group(core, &group, &mut chosen);
            assert_eq!(seen, 0);
            let first_choice = chosen.clone();
            let victim = first_choice[0] as usize;
            let hits = first_choice.iter().filter(|&&bin| bin as usize == victim);
            let hits = hits.count() as u64;
            let load_before = router.load(victim);
            assert!(
                load_before > 0,
                "the undo must not be able to hide in a zero"
            );

            // Step 2: a scale event drains one of the chosen bins — epoch 1.
            drain_now(&router, victim);
            assert_eq!(core.topology.epoch(), 1);
            assert_eq!(rejected_routes(&router), 0);

            // Step 3: the group commits. One look at the fresh topology; the
            // victim's whole delta comes back; exactly its keys move.
            let rechecks = topology_rechecks();
            let base = core.commit_group(seen, &group, &mut chosen, &mut counts);
            let tickets = core.ledger.issue_many(base, &chosen);
            assert_eq!(topology_rechecks() - rechecks, 1);
            assert_eq!(rejected_routes(&router), hits);
            assert_eq!(router.load(victim), load_before);
            for (ticket, &first) in tickets.iter().zip(&first_choice) {
                if first as usize == victim {
                    assert_ne!(ticket.bin(), victim, "re-routed off the drained bin");
                } else {
                    assert_eq!(ticket.bin(), first as usize, "everyone else stays put");
                }
            }
            let metrics = router.metrics().unwrap();
            assert_eq!(metrics.placed.get(), 64 + size, "a reroute adds no ball");
            assert!(router.conserves_balls());
            router.release_many(&tickets).expect("every ticket redeems");
            assert_eq!(router.resident(), 64);
            assert!(router.conserves_balls());
        }
    }

    #[test]
    fn commits_look_at_the_topology_only_after_a_publication() {
        let router = settled_router();
        let core = &router.shared.core;
        let rechecks = topology_rechecks();
        // Nothing staged, then an empty plan staged and applied: no
        // publication, so no commit loads a topology.
        for round in 0..2 {
            for group in keys(256, 20 + round).chunks(32) {
                router.route_many(group).unwrap();
            }
            apply_now(&router, |router| {
                router.stage_membership(MembershipPlan::new())
            });
        }
        assert_eq!(core.topology.epoch(), 0);
        assert_eq!(topology_rechecks(), rechecks);

        // A publication that drains nothing costs the one commit it races
        // one look, rejects nothing and moves nobody.
        let group = keys(32, 3);
        let (mut chosen, mut counts) = (Vec::new(), GroupCounts::default());
        let seen = choose_group(core, &group, &mut chosen);
        let first_choice = chosen.clone();
        apply_now(&router, |router| router.set_weights(BinWeights::Uniform));
        assert_eq!(core.topology.epoch(), 1);
        let base = core.commit_group(seen, &group, &mut chosen, &mut counts);
        core.ledger.issue_many(base, &chosen);
        assert_eq!(topology_rechecks(), rechecks + 1);
        assert_eq!((chosen, rejected_routes(&router)), (first_choice, 0));
        router.route_many(&keys(32, 4)).unwrap();
        router.route(7).unwrap();
        assert_eq!(topology_rechecks(), rechecks + 1);
        assert!(router.conserves_balls());
    }

    #[test]
    fn concurrent_callers_conserve_and_release_cleanly() {
        let router = ConcurrentRouter::new(StreamConfig::new(64).batch_size(256).seed(1));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let router = router.clone();
            handles.push(std::thread::spawn(move || {
                let mut kept = Vec::new();
                let mut rng = SplitMix64::new(t + 100);
                for i in 0..2_000u64 {
                    let placement = router.route(rng.next_u64()).unwrap();
                    if i % 4 == 0 {
                        kept.push(placement.ticket);
                    } else {
                        router.release(placement.ticket).unwrap();
                    }
                }
                kept
            }));
        }
        let kept: Vec<Ticket> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect();
        assert!(router.conserves_balls());
        assert_eq!(router.resident(), kept.len() as u64);
        assert_eq!(router.resident_tickets(), kept.len());
        let stats = router.stats();
        assert_eq!(stats.routed, 8_000);
        assert_eq!(stats.released, 8_000 - kept.len() as u64);
        for ticket in kept {
            router.release(ticket).unwrap();
            assert!(router.release(ticket).is_err(), "double release rejected");
        }
        assert_eq!(router.resident(), 0);
        assert_eq!(router.loads(), vec![0; 64]);
        assert!(router.conserves_balls());
    }

    #[test]
    fn boundaries_fire_once_per_batch_under_concurrency() {
        let router = ConcurrentRouter::new(StreamConfig::new(16).batch_size(100).seed(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let router = router.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    router.route(t * 10_000 + i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 4000 routed balls in batches of 100 → exactly 40 boundaries once
        // quiescent, and the epoch tracks them.
        assert_eq!(router.batches(), 40);
        assert_eq!(router.snapshot_epoch(), 40);
        assert_eq!(router.gap_trajectory().len(), 40);
        assert_eq!(*router.stale_loads(), router.loads(), "at a boundary");
    }

    #[test]
    fn a_poisoned_observer_costs_one_error_per_event_it_misses() {
        struct Deaf;
        impl RouterObserver for Deaf {}
        let router = settled_router();
        let held = router.route_many(&keys(16, 7)).unwrap();
        let victim = Arc::new(Mutex::new(Deaf));
        router.add_observer(victim.clone());
        let poisoned = std::thread::spawn(move || {
            let _guard = victim.lock().expect("the first locker");
            panic!("poisoning the observer's lock");
        });
        assert!(poisoned.join().is_err());
        // 16 routes and 16 releases interleaved: one sub-group (the open
        // batch has room for every route), 32 events, none of them heard.
        let run: Vec<WireRequest> = keys(16, 8)
            .into_iter()
            .zip(&held)
            .flat_map(|(key, placement)| {
                let wire = router.wire_id(&placement.ticket);
                [WireRequest::Route(key), WireRequest::Release(wire)]
            })
            .collect();
        let errors = &router.metrics().unwrap().observer_errors;
        let before = errors.get();
        let mut out = Vec::new();
        router.serve_wire(&run, &mut out);
        assert!(out.iter().all(Option::is_some) && router.batches() == 1);
        assert_eq!(errors.get() - before, run.len() as u64);
    }

    #[test]
    fn observers_hear_batches_and_releases() {
        use pba_model::router::RouterObserver;
        #[derive(Default)]
        struct Counter {
            batches: u64,
            balls: u64,
            releases: u64,
        }
        impl RouterObserver for Counter {
            fn on_batch(&mut self, event: &BatchEvent<'_>) {
                self.batches += 1;
                self.balls += event.batch_len as u64;
            }
            fn on_release(&mut self, _event: &ReleaseEvent) {
                self.releases += 1;
            }
        }
        let router = ConcurrentRouter::new(StreamConfig::new(8).batch_size(4).seed(9));
        let counter = Arc::new(Mutex::new(Counter::default()));
        router.add_observer(counter.clone());
        let mut tickets = Vec::new();
        for key in 0..20u64 {
            tickets.push(router.route(key).unwrap().ticket);
        }
        router.release(tickets[0]).unwrap();
        router.release(tickets[1]).unwrap();
        let seen = counter.lock().unwrap();
        assert_eq!(seen.batches, 5);
        assert_eq!(seen.balls, 20);
        assert_eq!(seen.releases, 2);
    }

    #[test]
    fn weights_follow_a_staged_reweight_on_both_shells() {
        use crate::engine::StreamAllocator;
        let cfg = StreamConfig::new(8)
            .policy(Policy::WeightedTwoChoice)
            .batch_size(8)
            .seed(3);
        let tiers = BinWeights::power_of_two_tiers(&[(4, 1), (4, 0)]);
        let handle = ConcurrentRouter::new(cfg.clone());
        let mut owner = StreamAllocator::new(cfg);
        handle.set_weights(tiers.clone());
        owner.set_weights(tiers);
        assert!(handle.weights().is_none() && owner.weights().is_none());
        // One routed batch: the staged tiers apply where it opens.
        for key in keys(8, 1) {
            handle.route(key).unwrap();
            owner.route(key).unwrap();
        }
        for weights in [handle.weights(), owner.weights()] {
            let weights = weights.expect("placements run under the staged tiers");
            assert_eq!(weights.weights(), [2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]);
        }
        for bin in 0..8 {
            let expected = if bin < 4 { 2.0 } else { 1.0 };
            assert_eq!(handle.slot_weight(bin), expected);
            assert_eq!(owner.slot_weight(bin), expected);
        }
        // The construction-time configuration is not rewritten.
        assert_eq!(handle.config().weights, BinWeights::Uniform);
        assert_eq!(owner.config().weights, BinWeights::Uniform);
    }

    #[test]
    fn handle_clones_share_one_router() {
        let a = ConcurrentRouter::new(StreamConfig::new(8).batch_size(8).seed(2));
        let b = a.clone();
        let ticket = a.route(7).unwrap().ticket;
        assert_eq!(b.resident(), 1);
        b.release(ticket).unwrap();
        assert_eq!(a.resident(), 0);
        assert_eq!(a.stats().routed, 1);
    }

    #[test]
    #[should_panic(expected = "weights describe")]
    fn mismatched_weight_count_panics() {
        ConcurrentRouter::new(StreamConfig::new(8).weights(BinWeights::explicit(vec![1.0, 2.0])));
    }
}
