//! The **concurrent serving core**: a shared-handle router over the streaming
//! pipeline, with `route(key)` callable from many threads at once.
//!
//! The paper's balls act *in parallel as separate agents*; the batched model
//! (Los & Sauerwald 2022) is what makes that implementable: every ball of a
//! batch decides from the **stale snapshot of the previous batch boundary**,
//! so in-flight placements never need to see each other. A concurrent router
//! therefore needs almost no synchronisation on its hot path:
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
//!                              takes the boundary lock: fresh loads →
//!                              gap/observers → EpochCell::publish
//!                              (epoch += 1) — the next stale snapshot
//! ```
//!
//! * **Ingress** — [`ConcurrentRouter::route`] places synchronously (the
//!   caller learns its bin and gets a [`Ticket`]); [`ConcurrentRouter::push`]
//!   is the fire-and-forget path: balls are stamped with a monotone arrival
//!   id and parked on sharded MPMC lanes (the crate-private ingress stage),
//!   then sequenced (sorted by arrival id) and batch-drained by whichever
//!   thread calls [`ConcurrentRouter::drain_ready`].
//! * **Snapshot** — the stale load vector is epoch-published through
//!   [`pba_concurrent::EpochCell`]: readers clone an `Arc` (a read-lock held
//!   for one pointer copy), the boundary thread swaps in the next snapshot
//!   and bumps a monotone epoch. Epoch == batch boundaries completed.
//! * **Commit** — placements are lock-free atomic increments on
//!   [`pba_concurrent::AtomicBins`] (via [`ShardedBins`]); tickets are issued
//!   and released through the bin-sharded
//!   [`pba_model::router::SharedTicketLedger`].
//!
//! ## Determinism contract
//!
//! With **one caller thread** the pipeline is **bit-identical** to
//! [`StreamAllocator`](crate::StreamAllocator): `route` matches `route`,
//! `push`/`drain_ready`/`flush` match their buffered twins — same loads, same
//! gap trajectory, same shard stats, same batch count, for every policy
//! (property-tested in `tests/concurrent_properties.rs`). Candidate bins are
//! a pure hash of `(seed, key)` and pushed balls are re-sequenced by arrival
//! id, so each shard's placements are reproducible from the arrival sequence
//! alone.
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
//! Topology is **epoch-published** like the stale snapshot: a
//! [`MembershipPlan`] staged through any handle
//! ([`ConcurrentRouter::stage_membership`]) — or weights staged through
//! [`ConcurrentRouter::set_weights`], the shared-handle reweighting this
//! router once lacked — is applied at the next batch boundary under the
//! boundary lock, then the new active set and weight resolves are published
//! through a second [`pba_concurrent::EpochCell`]. Routes read the topology
//! with one `Arc` clone; a router that never stages anything skips even that
//! (an `AtomicBool` fast path) and runs the exact fixed-membership code.
//!
//! A route can race a drain: choose against topology epoch `e`, commit after
//! `e + 1` drained its bin. The commit is then **undone** (the placement is
//! departed, counted under `membership.rejected_routes_to_draining` — never
//! silent) and the route retries against the fresh topology; with one caller
//! the race cannot occur, preserving the determinism contract. Draining bins
//! keep their residents and tickets until released or force-migrated
//! ([`ConcurrentRouter::migrate_drained`]); a `Remove` retires a slot only
//! at zero occupancy (ledger + loads).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use pba_concurrent::EpochCell;
use pba_membership::{BinState, Membership, MembershipPlan};
use pba_model::router::{
    BatchEvent, ConcurrentRouter as ConcurrentRouterApi, MembershipChange, Placement, ReleaseEvent,
    ReweightEvent, RouteError, RouteEvent, RouterObserver, RouterStats, SharedTicketLedger, Ticket,
};
use pba_model::weights::{normalized_loads, BinWeights, ResolvedWeights};
use pba_stats::OnlineStats;

use crate::commit::{self, CommitScratch, Execution};
use crate::engine::StreamConfig;
use crate::ingress::{PendingBall, ShardedIngress};
use crate::metrics::StreamMetrics;
use crate::observer::GapTrajectoryObserver;
use crate::policy::{ChoiceCtx, Chooser};
use crate::shard::{ShardStats, ShardedBins};
use crate::snapshot::{self, uses_thresholds, StreamSnapshot};

thread_local! {
    /// Per-thread commit scratch of the grouped paths
    /// ([`ConcurrentRouter::route_many`], [`ConcurrentRouter::release_many`]):
    /// the single-threaded engine reuses a member buffer, which a shared
    /// `&self` handle cannot, so each caller thread keeps its own and a
    /// warmed thread commits a group without allocating.
    static GROUP_COMMIT: std::cell::RefCell<CommitScratch> =
        std::cell::RefCell::new(CommitScratch::default());
}

/// The thresholds of one routed batch, priced lazily by the **first** route
/// call of the batch (so the resident count they see includes every release
/// up to that call — the same moment the single-threaded engine prices them)
/// and shared by the rest of the batch through the `OnceLock`.
#[derive(Debug)]
struct RouteThresholds {
    /// Flat batch threshold (`Policy::Threshold`, and the uniform-weights
    /// fallback of `Policy::CapacityThreshold`).
    flat: u32,
    /// Per-bin capacity thresholds (non-uniform `CapacityThreshold` only).
    capacity: Vec<u32>,
}

/// Boundary-side bookkeeping, serialised under one mutex: boundaries are
/// rare (once per `batch_size` placements), so the lock is cold. External
/// observer sinks live in the separate [`ObserverChain`] mutex — fan-out to
/// arbitrary user code must never run inside this lock's critical section,
/// which routes touching the boundary (closers, staged-change appliers)
/// wait on.
#[derive(Debug)]
struct BoundaryBook {
    /// Batch boundaries completed (== the published epoch).
    batches: u64,
    /// The default observer: per-batch gap trajectory + streaming stats.
    gap: GapTrajectoryObserver,
    /// Scratch: the active bins' loads, gathered for an elastic router's
    /// boundary gap (reused).
    gap_scratch: Vec<u32>,
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

/// One boundary's `on_batch` payload, captured under the boundary lock and
/// fired through the observer chain **after** it is released — the
/// contention surgery that keeps slow observers from stalling routes that
/// need the boundary.
struct DeferredBatchEvent {
    batch_index: u64,
    batch_len: usize,
    loads: Vec<u32>,
    gap: f64,
    resident: u64,
}

/// Drain-side state (the push path), serialised under one mutex so exactly
/// one thread sequences and drains at a time while routes proceed.
#[derive(Debug, Default)]
struct DrainSide {
    /// Sequenced arrivals not yet drained (the tail below one batch).
    buffer: Vec<PendingBall>,
    /// Scratch of the commit stage (reused).
    commit: CommitScratch,
    /// Scratch: per-bin capacity thresholds of the batch being drained.
    capacity: Vec<u32>,
}

/// The epoch-published view of the elastic topology: everything a route
/// needs to sample, price and commit against the current active set, bundled
/// into one immutable value so a reader sees a *consistent* topology with a
/// single `Arc` clone (never an active set from one epoch priced by the
/// resolve of another).
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
    /// `Some` iff `active_resolved` is — the same canonicalisation the
    /// single-threaded engine applies, so uniform survivors run the strict
    /// unweighted paths of a compacted fixed router.
    resolved: Option<ResolvedWeights>,
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
            BinWeights::explicit(slot_weights.to_vec())
                .resolve(slot_weights.len())
                .expect("non-uniform active weights imply non-uniform slot weights")
        });
        Self {
            active,
            states: table.states().to_vec(),
            active_resolved,
            resolved,
        }
    }
}

/// Staged-but-unapplied elastic state, serialised under one mutex. Staging
/// is rare (a scale event, not a request), so the lock is cold; routes read
/// the applied state through the epoch-published [`Topology`] instead.
#[derive(Debug)]
struct MembershipSide {
    /// The authoritative lifecycle table (the applied state).
    table: Membership,
    /// Membership events staged since the last boundary.
    pending: MembershipPlan,
    /// Weights staged via [`ConcurrentRouter::set_weights`] since the last
    /// boundary, applied after any staged membership events.
    pending_weights: Option<BinWeights>,
}

/// Shared state behind every [`ConcurrentRouter`] handle.
#[derive(Debug)]
struct Core {
    config: StreamConfig,
    /// Non-uniform weights resolved once at construction; `None` keeps every
    /// hot path on the exact unweighted code (the strict no-op invariant).
    resolved: Option<ResolvedWeights>,
    /// Lock-free load counters + per-shard stats.
    bins: ShardedBins,
    /// The epoch-published stale snapshot every route decides from.
    published: EpochCell<Vec<u32>>,
    /// The open routed batch's lazily priced thresholds; swapped for a fresh
    /// (unpriced) cell at every routed-batch close. Only threshold policies
    /// ever touch it.
    route_thresholds: RwLock<Arc<OnceLock<RouteThresholds>>>,
    /// Balls routed since the last routed-batch boundary.
    open_routed: AtomicU64,
    /// Next ball id (route and push share the arrival sequence).
    next_ball: AtomicU64,
    arrived: AtomicU64,
    placed: AtomicU64,
    departed: AtomicU64,
    routed: AtomicU64,
    released: AtomicU64,
    /// MPMC arrival lanes of the push path.
    ingress: ShardedIngress,
    drain: Mutex<DrainSide>,
    boundary: Mutex<BoundaryBook>,
    /// External observer sinks (see [`ObserverChain`] for the lock order).
    observers: Mutex<ObserverChain>,
    /// Fast-path guard: skip the observer lock on routes/releases when no
    /// external observer is registered.
    has_observers: AtomicBool,
    /// Resident-ball table (bin-sharded, thread-safe).
    ledger: SharedTicketLedger,
    /// Authoritative lifecycle table + staged membership/weight changes.
    membership: Mutex<MembershipSide>,
    /// The epoch-published topology elastic routes decide from.
    topology: EpochCell<Topology>,
    /// Fast-path guard: `false` until membership or weights are first staged
    /// (or from birth when `reserve_bins > 0`); a fixed router's routes never
    /// touch the topology cell.
    has_membership: AtomicBool,
    /// Something is staged and unapplied — checked at batch open, where the
    /// single-threaded engine applies its staged changes.
    has_pending_membership: AtomicBool,
    /// Dedicated drain pool when [`StreamConfig::num_threads`] is positive.
    pool: Option<rayon::ThreadPool>,
    /// Resolved metric handles ([`ConcurrentRouter::with_metrics`]); `None`
    /// is the disabled fast path — zero metric instructions anywhere.
    metrics: Option<StreamMetrics>,
}

impl Core {
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
}

/// An arrival stamped into the sequence but **not yet delivered** to the
/// ingress lanes — the handle [`ConcurrentRouter::stamp_delayed`] returns and
/// [`ConcurrentRouter::deliver_delayed`] consumes. Fault plans use the pair
/// to script out-of-order arrival delivery: hold a stamped ball across a
/// drain and its eventual delivery is a *late arrival* the ingress counts
/// (`ingress.late_arrivals`) instead of silently reordering.
#[derive(Debug)]
pub struct DelayedArrival {
    ball: PendingBall,
}

impl DelayedArrival {
    /// The arrival id this ball was stamped with.
    pub fn id(&self) -> u64 {
        self.ball.id
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
    core: Arc<Core>,
}

impl ConcurrentRouter {
    /// Creates an empty concurrent router over `config.bins` bins.
    ///
    /// The full [`StreamConfig`] vocabulary applies — policy, batch size,
    /// shards (which also shard the ingress lanes and the ticket ledger),
    /// seed, weights, `parallel`/`num_threads` for the drain path.
    pub fn new(config: StreamConfig) -> Self {
        Self::build(config, None)
    }

    /// Like [`ConcurrentRouter::new`], but with every streaming metric
    /// resolved against `registry`. Metrics are **write-only** for the
    /// router — no allocation decision reads one — so an instrumented router
    /// produces bit-identical placements to a bare one (and the 1-caller
    /// determinism contract against [`StreamAllocator`](crate::engine::StreamAllocator)
    /// is untouched). See [`crate::metrics`] for the counter inventory.
    pub fn with_metrics(config: StreamConfig, registry: Arc<pba_obs::MetricsRegistry>) -> Self {
        let capacity = config.bins + config.reserve_bins;
        Self::build(config, Some(StreamMetrics::resolve(registry, capacity)))
    }

    fn build(config: StreamConfig, metrics: Option<StreamMetrics>) -> Self {
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
        let resolved = config.weights.resolve(config.bins);
        let capacity = config.bins + config.reserve_bins;
        let slot_weights: Vec<f64> = match &resolved {
            Some(resolved) => (0..config.bins).map(|i| resolved.weight(i)).collect(),
            None => vec![1.0; config.bins],
        };
        let table = Membership::new(config.bins, capacity, &slot_weights);
        let topology = Topology::of(&table);
        let bins = ShardedBins::new(capacity, config.shards);
        let shard_count = bins.shard_count();
        Self {
            core: Arc::new(Core {
                resolved,
                published: EpochCell::new(vec![0; capacity]),
                route_thresholds: RwLock::new(Arc::new(OnceLock::new())),
                open_routed: AtomicU64::new(0),
                next_ball: AtomicU64::new(0),
                arrived: AtomicU64::new(0),
                placed: AtomicU64::new(0),
                departed: AtomicU64::new(0),
                routed: AtomicU64::new(0),
                released: AtomicU64::new(0),
                ingress: ShardedIngress::new(shard_count),
                drain: Mutex::new(DrainSide::default()),
                boundary: Mutex::new(BoundaryBook {
                    batches: 0,
                    gap: GapTrajectoryObserver::new(config.trajectory_cap),
                    gap_scratch: Vec::new(),
                }),
                observers: Mutex::new(ObserverChain(Vec::new())),
                has_observers: AtomicBool::new(false),
                ledger: SharedTicketLedger::new(capacity, shard_count),
                membership: Mutex::new(MembershipSide {
                    table,
                    pending: MembershipPlan::new(),
                    pending_weights: None,
                }),
                topology: EpochCell::new(topology),
                // A reserve makes the router elastic from birth: the retired
                // tail must be invisible to sampling, which only the
                // topology-aware paths guarantee.
                has_membership: AtomicBool::new(config.reserve_bins > 0),
                has_pending_membership: AtomicBool::new(false),
                pool: (config.num_threads > 0).then(|| {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(config.num_threads)
                        .build()
                        .expect("stream drain pool")
                }),
                bins,
                config,
                metrics,
            }),
        }
    }

    /// The resolved metric handles, when the router was built via
    /// [`ConcurrentRouter::with_metrics`] (their registry is
    /// `metrics().unwrap().registry`).
    pub fn metrics(&self) -> Option<&StreamMetrics> {
        self.core.metrics.as_ref()
    }

    /// The configuration this router runs with.
    pub fn config(&self) -> &StreamConfig {
        &self.core.config
    }

    /// Routes one key from any thread: chooses a bin against the current
    /// epoch snapshot, commits the placement (atomic increment), issues a
    /// [`Ticket`], and — if this ball completes a batch — advances the
    /// boundary and publishes the next snapshot.
    ///
    /// Routing is infallible (the `Result` is the shared router surface);
    /// the error arm is never taken.
    pub fn route(&self, key: u64) -> Result<Placement, RouteError> {
        let core = &*self.core;
        core.apply_staged_at_batch_open();
        let bin = core.choose_and_place(key);
        let id = core.next_ball.fetch_add(1, Ordering::AcqRel);
        core.arrived.fetch_add(1, Ordering::AcqRel);
        core.placed.fetch_add(1, Ordering::AcqRel);
        core.routed.fetch_add(1, Ordering::AcqRel);
        if let Some(metrics) = &core.metrics {
            metrics.routed.inc();
            metrics.placed.inc();
            metrics.bin_commits.inc(bin);
        }
        let ticket = core.ledger.issue(id, bin);
        if core.has_observers.load(Ordering::Acquire) {
            // The per-arrival tap: fired before this ball can close a batch,
            // so a recorder sees the arrival strictly before its boundary
            // event (matching the single-threaded engine's ordering in the
            // 1-caller case).
            let event = RouteEvent {
                key,
                ticket,
                resident: core.resident_now(),
            };
            let chain = core.observers.lock().expect("observer chain");
            core.each_observer(&chain.0, |observer| observer.on_route(&event));
        }
        let open = core.open_routed.fetch_add(1, Ordering::AcqRel) + 1;
        if open >= core.config.batch_size as u64 {
            core.close_full_routed_batches();
        }
        Ok(Placement { ticket, bin })
    }

    /// Routes a group of keys from any thread — the amortized hot path. The
    /// group is processed in sub-groups capped at the open batch's remaining
    /// room, and each sub-group pays the per-route overhead **once**: one
    /// topology read, one thresholds fetch (priced lazily like the first
    /// route of a batch), one epoch-cell read, one grouped load commit
    /// ([`ShardedBins::place_group_with`] — fixed-membership routers only; an
    /// elastic router re-checks each bin's lifecycle state per ball exactly
    /// like [`ConcurrentRouter::route`]), one ledger pass per touched shard
    /// ([`SharedTicketLedger::issue_many`]), and whole-group counter adds.
    ///
    /// With one caller this is bit-identical to looping
    /// [`ConcurrentRouter::route`] (property-tested across every policy ×
    /// weights × thread count); with `k` callers the group's placements
    /// interleave with other callers' exactly as individual routes would,
    /// and every boundary still closes after `batch_size` routed balls.
    pub fn route_many(&self, keys: &[u64]) -> Result<Vec<Placement>, RouteError> {
        // A singleton group amortizes nothing: delegate to `route` so the
        // batched surface costs one `Vec` over the one-at-a-time path.
        if let [key] = keys {
            return self.route(*key).map(|placement| vec![placement]);
        }
        let core = &*self.core;
        let policy = core.config.policy;
        let mut placements = Vec::with_capacity(keys.len());
        let mut rest = keys;
        while !rest.is_empty() {
            core.apply_staged_at_batch_open();
            // Cap the sub-group at the open batch's remaining room so the
            // boundary lands exactly where the one-at-a-time loop would put
            // it. Racing callers can push `open_routed` past the cap between
            // the read and our commit — the same overshoot racing individual
            // routes produce; `max(1)` guarantees progress.
            let open = core.open_routed.load(Ordering::Acquire);
            let room = (core.config.batch_size as u64).saturating_sub(open).max(1) as usize;
            let take = rest.len().min(room);
            let (group, tail) = rest.split_at(take);
            rest = tail;

            // Read once per sub-group what `route` reads once per key.
            let topology = core.topology_if_elastic();
            let priced;
            let (flat, capacity): (u32, &[u32]) = if uses_thresholds(policy) {
                priced = core.priced_route_thresholds();
                let thresholds = priced.get().expect("priced above");
                (thresholds.flat, &thresholds.capacity)
            } else {
                (0, &[])
            };
            let stale = core.published.load();
            let (weights, active, active_weights) = match &topology {
                Some(t) => (
                    t.resolved.as_ref(),
                    Some(&t.active[..]),
                    t.active_resolved.as_ref(),
                ),
                None => (core.resolved.as_ref(), None, None),
            };
            let ctx = ChoiceCtx {
                snapshot: &stale,
                weights,
                batch_threshold: flat,
                capacity_thresholds: capacity,
                seed: core.config.seed,
                bins: core.capacity(),
                active,
                active_weights,
                counters: core.metrics.as_ref().map(|m| &m.policy),
            };
            let chooser = Chooser::new(policy, &ctx);
            let bin_commits = core.metrics.as_ref().map(|m| &m.bin_commits);
            let tickets = GROUP_COMMIT.with(|scratch| {
                let scratch = &mut *scratch.borrow_mut();
                commit::choose_into(
                    &chooser,
                    group,
                    |&key| key,
                    Execution::INLINE,
                    &mut scratch.chosen,
                );
                match &topology {
                    // Fixed membership: the drain's grouped commit — one
                    // atomic increment per distinct bin, one stats lock per
                    // touched shard.
                    None => commit::place_chosen(&core.bins, scratch, bin_commits),
                    // Elastic: each placement needs the post-commit draining
                    // recheck (and possibly an undo + re-route), so commits
                    // stay per ball — the choose above still amortized the
                    // reads.
                    Some(_) => {
                        for (slot, &key) in scratch.chosen.iter_mut().zip(group) {
                            let mut bin = *slot as usize;
                            core.bins.place(bin);
                            if core.topology.load().states[bin] != BinState::Active {
                                assert!(core.bins.depart(bin), "undo of a placement just made");
                                if let Some(metrics) = &core.metrics {
                                    metrics.membership.rejected_routes_to_draining.inc();
                                }
                                bin = core.choose_and_place(key);
                                *slot = bin as u32;
                            }
                            if let Some(bin_commits) = bin_commits {
                                bin_commits.inc(bin);
                            }
                        }
                    }
                }
                let base = core.next_ball.fetch_add(take as u64, Ordering::AcqRel);
                core.arrived.fetch_add(take as u64, Ordering::AcqRel);
                core.placed.fetch_add(take as u64, Ordering::AcqRel);
                core.routed.fetch_add(take as u64, Ordering::AcqRel);
                if let Some(metrics) = &core.metrics {
                    metrics.routed.add(take as u64);
                    metrics.placed.add(take as u64);
                }
                core.ledger.issue_many(base, &scratch.chosen)
            });
            if core.has_observers.load(Ordering::Acquire) {
                // Per-arrival taps fire in arrival order, before this group
                // can close its batch, with the same resident counts the
                // loop would report (exact with one caller).
                let resident_base = core.resident_now().saturating_sub(take as u64);
                let chain = core.observers.lock().expect("observer chain");
                for (offset, (&key, &ticket)) in group.iter().zip(tickets.iter()).enumerate() {
                    let event = RouteEvent {
                        key,
                        ticket,
                        resident: resident_base + offset as u64 + 1,
                    };
                    core.each_observer(&chain.0, |observer| observer.on_route(&event));
                }
            }
            placements.extend(tickets.into_iter().map(|ticket| Placement {
                ticket,
                bin: ticket.bin(),
            }));
            let open = core.open_routed.fetch_add(take as u64, Ordering::AcqRel) + take as u64;
            if open >= core.config.batch_size as u64 {
                core.close_full_routed_batches();
            }
        }
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
        let mut evicted = 0;
        while let Some(ticket) = self.core.ledger.resident_in(bin) {
            if self.release(ticket).is_ok() {
                evicted += 1;
            }
        }
        evicted
    }

    /// Stamps one arriving ball with its arrival id **without delivering
    /// it** — the fault-injection half of [`ConcurrentRouter::push`]. The
    /// ball occupies its slot in the arrival sequence immediately (later
    /// pushes get later ids), but it only reaches the ingress lanes when the
    /// returned [`DelayedArrival`] is handed to
    /// [`ConcurrentRouter::deliver_delayed`]. Delivering after a drain has
    /// already sequenced past its id makes it a **late arrival**: the next
    /// drain counts it in `ingress.late_arrivals` and sequences it at the
    /// drain tail (documented reordering, not a silent drop).
    pub fn stamp_delayed(&self, key: u64) -> DelayedArrival {
        let core = &*self.core;
        let id = core.next_ball.fetch_add(1, Ordering::AcqRel);
        core.arrived.fetch_add(1, Ordering::AcqRel);
        DelayedArrival {
            ball: PendingBall { id, key },
        }
    }

    /// Delivers a ball previously stamped by
    /// [`ConcurrentRouter::stamp_delayed`]; returns its arrival id.
    pub fn deliver_delayed(&self, delayed: DelayedArrival) -> u64 {
        let id = delayed.ball.id;
        self.core.ingress.enqueue(delayed.ball);
        id
    }

    /// Releases a routed ball from any thread: validates the ticket against
    /// the shared ledger (double releases and foreign tickets fail with
    /// [`RouteError::UnknownTicket`]), departs its bin, and notifies
    /// observers. Like every load change, the departure reaches the policies
    /// at the next batch boundary.
    pub fn release(&self, ticket: Ticket) -> Result<(), RouteError> {
        let core = &*self.core;
        let bin = match core.ledger.redeem(ticket) {
            Ok(bin) => bin,
            Err(err) => {
                if let Some(metrics) = &core.metrics {
                    metrics.rejected_unknown_ticket.inc();
                }
                return Err(err);
            }
        };
        if !core.bins.depart(bin) {
            // Defensive: a redeemed ticket names a resident ball, so its bin
            // cannot be empty unless ledger and bins diverged (a bug, not a
            // caller error). Fail the release rather than corrupt loads.
            if let Some(metrics) = &core.metrics {
                metrics.rejected_unknown_ticket.inc();
            }
            return Err(RouteError::UnknownTicket { ticket });
        }
        core.departed.fetch_add(1, Ordering::AcqRel);
        core.released.fetch_add(1, Ordering::AcqRel);
        if let Some(metrics) = &core.metrics {
            metrics.released.inc();
        }
        if core.has_observers.load(Ordering::Acquire) {
            let event = ReleaseEvent {
                ticket,
                load_after: core.bins.load(bin),
                resident: core.resident_now(),
            };
            let chain = core.observers.lock().expect("observer chain");
            core.each_observer(&chain.0, |observer| observer.on_release(&event));
        }
        Ok(())
    }

    /// Releases a group of routed balls from any thread — the amortized
    /// departure path, the release-side twin of
    /// [`ConcurrentRouter::route_many`]. The group pays the per-release
    /// overhead **once**: one ledger pass per touched shard
    /// ([`SharedTicketLedger::redeem_many`] — a single commit pass under the
    /// shard locks with exact rollback, so the group redeems atomically),
    /// one grouped load
    /// decrement per distinct bin ([`ShardedBins::release_group_with`]), and
    /// whole-group counter adds.
    ///
    /// With one caller this is bit-identical to looping
    /// [`ConcurrentRouter::release`] (property-tested): per-release
    /// [`ReleaseEvent`]s still fire in ticket order with the same running
    /// `load_after`/`resident` values the loop would report. Any ticket the
    /// grouped redeem cannot take (forged, double-released, an in-group
    /// duplicate, or a live migration record) sends the **whole** group —
    /// nothing committed yet — down the one-at-a-time loop, which supplies
    /// the documented stop-at-first-error behaviour exactly.
    pub fn release_many(&self, tickets: &[Ticket]) -> Result<(), RouteError> {
        // A singleton group amortizes nothing: delegate to `release`.
        if let [ticket] = tickets {
            return self.release(*ticket);
        }
        let core = &*self.core;
        let Some(chosen) = core.ledger.redeem_many(tickets) else {
            // Cold path (bad ticket or migration in flight): the grouped
            // redeem committed nothing, so the loop reproduces the
            // one-at-a-time semantics — including which ticket errors and
            // which releases stay committed — exactly.
            return tickets.iter().try_for_each(|&ticket| self.release(ticket));
        };
        let taken = GROUP_COMMIT.with(|scratch| {
            core.bins
                .release_group_with(&chosen, &mut scratch.borrow_mut().group)
        });
        core.departed.fetch_add(taken, Ordering::AcqRel);
        core.released.fetch_add(taken, Ordering::AcqRel);
        if let Some(metrics) = &core.metrics {
            metrics.released.add(taken);
        }
        if taken < tickets.len() as u64 {
            // Defensive: every redeemed ticket named a resident ball, so no
            // bin can underflow unless ledger and bins diverged (a bug, not
            // a caller error — same stance as the one-at-a-time path).
            if let Some(metrics) = &core.metrics {
                metrics
                    .rejected_unknown_ticket
                    .add(tickets.len() as u64 - taken);
            }
            return Err(RouteError::UnknownTicket {
                ticket: tickets[taken as usize],
            });
        }
        if core.has_observers.load(Ordering::Acquire) {
            // Per-departure taps fire in ticket order with the running
            // counts the loop would report (exact with one caller), and
            // `resident` counts down to the post-group total.
            let resident_final = core.resident_now();
            let loads_after = commit::loads_after_each_release(&core.bins, &chosen);
            let chain = core.observers.lock().expect("observer chain");
            for (offset, (&ticket, load_after)) in tickets.iter().zip(loads_after).enumerate() {
                let event = ReleaseEvent {
                    ticket,
                    load_after,
                    resident: resident_final + (tickets.len() - 1 - offset) as u64,
                };
                core.each_observer(&chain.0, |observer| observer.on_release(&event));
            }
        }
        Ok(())
    }

    /// Buffers one arriving ball (fire and forget) on the sharded MPMC
    /// ingress; returns its arrival id. Nothing is allocated until some
    /// thread calls [`ConcurrentRouter::drain_ready`] (or
    /// [`ConcurrentRouter::flush`]).
    pub fn push(&self, key: u64) -> u64 {
        let core = &*self.core;
        let id = core.next_ball.fetch_add(1, Ordering::AcqRel);
        core.arrived.fetch_add(1, Ordering::AcqRel);
        core.ingress.enqueue(PendingBall { id, key });
        id
    }

    /// Sequences every queued pushed ball and drains every *full* batch;
    /// returns the number of batches drained. Balls beyond the last full
    /// batch stay buffered. Any thread may call this; one drain runs at a
    /// time (serialised by the drain lock) while routes keep flowing.
    pub fn drain_ready(&self) -> usize {
        self.core.drain_buffered(false)
    }

    /// Closes a partially filled routed batch (so its boundary is recorded)
    /// and drains everything buffered, including a final partial batch;
    /// returns the number of batch boundaries produced. Exact when callers
    /// are quiescent (the natural shutdown/checkpoint moment); concurrent
    /// routes simply land in the next batch.
    pub fn flush(&self) -> usize {
        let closed = self.core.close_partial_routed_batch() as usize;
        closed + self.core.drain_buffered(true)
    }

    /// Registers an external observer, notified (after the built-in gap
    /// observer) on every batch boundary and release. The caller keeps its
    /// own `Arc` handle to read the sink back.
    pub fn add_observer(&self, observer: Arc<Mutex<dyn RouterObserver + Send>>) {
        let core = &*self.core;
        core.observers
            .lock()
            .expect("observer chain")
            .0
            .push(observer);
        core.has_observers.store(true, Ordering::Release);
    }

    /// Stages a membership plan from any thread, applied (in staging order,
    /// before any staged weights) at the **next batch boundary**: the
    /// in-flight batch finishes on the old topology, then the lifecycle
    /// table transitions, `membership.*` counters account for every accepted
    /// and rejected event, [`RouterObserver::on_membership`] fires, and the
    /// new active set is epoch-published. With one caller this matches
    /// [`StreamAllocator::stage_membership`](crate::StreamAllocator::stage_membership)
    /// bit for bit; an identity plan (or an empty one) is a strict no-op.
    pub fn stage_membership(&self, plan: MembershipPlan) {
        let core = &*self.core;
        let mut side = core.membership.lock().expect("membership lock");
        side.pending.extend(plan);
        core.has_membership.store(true, Ordering::Release);
        core.has_pending_membership.store(true, Ordering::Release);
    }

    /// Stages new bin weights from any thread — the shared-handle
    /// reweighting this router's earlier revisions lacked — applied at the
    /// next batch boundary after any staged membership events. Non-uniform
    /// weights must describe one weight per **capacity slot**
    /// (`bins + reserve_bins`; retired slots carry placeholders the next
    /// `Add` overwrites); uniform weights return the router to the strict
    /// unweighted path. Fires [`RouterObserver::on_reweight`] with the
    /// resolve restricted to the surviving bins.
    pub fn set_weights(&self, weights: BinWeights) {
        let core = &*self.core;
        if let Some(prescribed) = weights.prescribed_bins() {
            let slots = core.capacity();
            assert_eq!(
                prescribed, slots,
                "weights describe {prescribed} bins but the router has {slots} slots"
            );
        }
        let mut side = core.membership.lock().expect("membership lock");
        side.pending_weights = Some(weights);
        core.has_membership.store(true, Ordering::Release);
        core.has_pending_membership.store(true, Ordering::Release);
    }

    /// Force-migrates every **ticketed** resident of every draining bin
    /// through the live policy (same candidate sampling over the active
    /// set, thresholds priced with the migration volume as the batch).
    /// Loads move (place + depart per ball) but `placed`/`departed` totals
    /// do not — a migration is a move, not an arrival — so conservation is
    /// untouched; outstanding tickets keep redeeming against the ball's new
    /// bin. A resident released concurrently mid-migration is simply
    /// skipped. Returns the number of migrations, also counted under
    /// `membership.migrations`.
    pub fn migrate_drained(&self) -> u64 {
        let core = &*self.core;
        let Some(topology) = core.topology_if_elastic() else {
            return 0;
        };
        let draining: Vec<u32> = topology
            .states
            .iter()
            .enumerate()
            .filter(|&(_, &state)| state == BinState::Draining)
            .map(|(bin, _)| bin as u32)
            .collect();
        let volume: u64 = draining
            .iter()
            .map(|&bin| core.ledger.count_in(bin as usize) as u64)
            .sum();
        if volume == 0 {
            return 0;
        }
        let policy = core.config.policy;
        let resident = core.active_resident(&topology);
        let flat = snapshot::batch_threshold(policy, resident, topology.active.len(), volume);
        let mut capacity_thresholds = Vec::new();
        snapshot::fill_active_capacity_thresholds_into(
            policy,
            topology.active_resolved.as_ref(),
            &topology.active,
            resident,
            core.capacity(),
            volume,
            &mut capacity_thresholds,
        );
        let stale = core.published.load();
        let ctx = ChoiceCtx {
            snapshot: &stale,
            weights: topology.resolved.as_ref(),
            batch_threshold: flat,
            capacity_thresholds: &capacity_thresholds,
            seed: core.config.seed,
            bins: core.capacity(),
            active: Some(&topology.active),
            active_weights: topology.active_resolved.as_ref(),
            counters: core.metrics.as_ref().map(|m| &m.policy),
        };
        let chooser = Chooser::new(policy, &ctx);
        let mut migrated = 0u64;
        for &bin in &draining {
            while let Some(ticket) = core.ledger.resident_in(bin as usize) {
                let target = chooser.choose_one(ticket.id()) as usize;
                core.bins.place(target);
                if core.ledger.migrate(ticket.id(), bin as usize, target) {
                    assert!(
                        core.bins.depart(bin as usize),
                        "a migrated resident held a load unit"
                    );
                    migrated += 1;
                    if let Some(metrics) = &core.metrics {
                        metrics.membership.migrations.inc();
                        metrics.bin_commits.inc(target);
                    }
                } else {
                    // The resident raced a concurrent release; undo the
                    // speculative placement.
                    core.bins.depart(target);
                }
            }
        }
        migrated
    }

    /// Total slot capacity (`bins + reserve_bins` — the length of every
    /// per-bin vector this router exposes).
    pub fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// The sorted active bins of an elastic router; `None` while the router
    /// is fixed (no reserve, nothing ever staged), where every configured
    /// bin is implicitly active.
    pub fn active_bins(&self) -> Option<Vec<u32>> {
        self.core
            .topology_if_elastic()
            .map(|topology| topology.active.clone())
    }

    /// Per-slot lifecycle states of an elastic router (`None` while fixed).
    pub fn bin_states(&self) -> Option<Vec<BinState>> {
        self.core
            .topology_if_elastic()
            .map(|topology| topology.states.clone())
    }

    /// Fresh per-bin loads.
    pub fn loads(&self) -> Vec<u32> {
        self.core.bins.snapshot()
    }

    /// Fresh load of one bin (no allocation).
    pub fn load(&self, bin: usize) -> u32 {
        self.core.bins.load(bin)
    }

    /// Balls currently resident (`placed − departed`).
    pub fn resident(&self) -> u64 {
        self.core.bins.total()
    }

    /// Balls buffered on the ingress (or sequenced but below one batch) and
    /// not yet drained.
    pub fn pending(&self) -> u64 {
        let core = &*self.core;
        core.ingress.queued() + core.drain.lock().expect("drain lock").buffer.len() as u64
    }

    /// Batch boundaries completed so far (== the snapshot epoch).
    pub fn batches(&self) -> u64 {
        self.core.boundary.lock().expect("boundary lock").batches
    }

    /// The epoch of the currently published stale snapshot: 0 at birth,
    /// +1 per batch boundary, strictly monotone. Concurrent observers can
    /// use it to tell which boundary a snapshot belongs to.
    pub fn snapshot_epoch(&self) -> u64 {
        self.core.published.epoch()
    }

    /// The stale snapshot routes currently decide from (the published
    /// epoch's loads; cheap — one `Arc` clone).
    pub fn stale_loads(&self) -> Arc<Vec<u32>> {
        self.core.published.load()
    }

    /// The resolved non-uniform weights, or `None` when the router runs the
    /// uniform (unweighted) configuration.
    pub fn weights(&self) -> Option<&ResolvedWeights> {
        self.core.resolved.as_ref()
    }

    /// The effective weight of one slot: the elastic topology's resolved
    /// weight when membership is live (commissioned slots included),
    /// otherwise the configured weight (1.0 when uniform).
    pub fn slot_weight(&self, bin: usize) -> f64 {
        let topology = self.core.topology_if_elastic();
        let weights = match &topology {
            Some(topology) => topology.resolved.as_ref(),
            None => self.core.resolved.as_ref(),
        };
        weights.map_or(1.0, |weights| weights.weight(bin))
    }

    /// Fresh normalized loads `load_i / w_i` (the raw loads as `f64` for a
    /// uniform router).
    pub fn normalized_loads(&self) -> Vec<f64> {
        let loads = self.core.bins.snapshot();
        let topology = self.core.topology_if_elastic();
        let weights = match &topology {
            Some(topology) => topology.resolved.as_ref(),
            None => self.core.resolved.as_ref(),
        };
        match weights {
            None => loads.iter().map(|&l| l as f64).collect(),
            Some(weights) => normalized_loads(&loads, weights),
        }
    }

    /// Largest fresh normalized load `max_i(load_i / w_i)` (raw max load
    /// when uniform).
    pub fn max_normalized_load(&self) -> f64 {
        self.normalized_loads().into_iter().fold(0.0f64, f64::max)
    }

    /// The gap after recent batch boundaries, in order (cloned out of the
    /// boundary book; the most recent [`StreamConfig::trajectory_cap`]
    /// entries at least).
    pub fn gap_trajectory(&self) -> Vec<f64> {
        self.core
            .boundary
            .lock()
            .expect("boundary lock")
            .gap
            .trajectory()
            .to_vec()
    }

    /// Streaming statistics over the per-batch gaps (copied out).
    pub fn gap_stats(&self) -> OnlineStats {
        *self
            .core
            .boundary
            .lock()
            .expect("boundary lock")
            .gap
            .stats()
    }

    /// Resident tickets (balls placed via [`ConcurrentRouter::route`] and
    /// not yet released). Anonymous pushed balls are not counted.
    pub fn resident_tickets(&self) -> usize {
        self.core.ledger.len()
    }

    /// Resident tickets in `bin`.
    pub fn tickets_in(&self, bin: usize) -> usize {
        self.core.ledger.count_in(bin)
    }

    /// A resident ticket of `bin`, if any (see
    /// [`pba_model::router::TicketLedger::resident_in`] for the determinism
    /// caveat).
    pub fn ticket_in(&self, bin: usize) -> Option<Ticket> {
        self.core.ledger.resident_in(bin)
    }

    /// Per-shard bookkeeping.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.core.bins.all_shard_stats()
    }

    /// A full point-in-time snapshot. Counters are read individually (no
    /// stop-the-world), so under concurrent traffic the fields are each
    /// correct but may straddle in-flight operations; at quiescence the
    /// snapshot is exact.
    pub fn snapshot(&self) -> StreamSnapshot {
        let core = &*self.core;
        let topology = core.topology_if_elastic();
        StreamSnapshot::assemble(
            core.bins.snapshot(),
            (*core.published.load()).clone(),
            core.arrived.load(Ordering::Acquire),
            core.placed.load(Ordering::Acquire),
            core.departed.load(Ordering::Acquire),
            self.pending(),
            self.batches(),
            match &topology {
                Some(topology) => topology.resolved.as_ref(),
                None => core.resolved.as_ref(),
            },
            topology.as_ref().map(|topology| &topology.active[..]),
            topology
                .as_ref()
                .and_then(|topology| topology.active_resolved.as_ref()),
        )
    }

    /// The conservation invariant: `placed − departed == Σ loads` and
    /// `arrived == placed + pending`. Exact at quiescence (no route/release
    /// in flight); under concurrent traffic the reads may straddle an
    /// in-flight ball.
    pub fn conserves_balls(&self) -> bool {
        let core = &*self.core;
        let placed = core.placed.load(Ordering::Acquire);
        let departed = core.departed.load(Ordering::Acquire);
        let arrived = core.arrived.load(Ordering::Acquire);
        // Saturate: two separate atomic reads, so under in-flight traffic
        // `departed` can be observed ahead of the earlier-read `placed`.
        placed.saturating_sub(departed) == core.bins.total() && arrived == placed + self.pending()
    }

    /// Aggregate routing statistics.
    pub fn stats(&self) -> RouterStats {
        let core = &*self.core;
        let loads = core.bins.snapshot();
        let (bins, gap) = match core.topology_if_elastic() {
            Some(topology) => {
                let mut scratch = Vec::new();
                (
                    topology.active.len(),
                    snapshot::gap_of_active_loads(
                        &loads,
                        &topology.active,
                        topology.active_resolved.as_ref(),
                        &mut scratch,
                    ),
                )
            }
            None => (
                core.config.bins,
                snapshot::gap_of_loads(&loads, core.resolved.as_ref()),
            ),
        };
        RouterStats {
            routed: core.routed.load(Ordering::Acquire),
            released: core.released.load(Ordering::Acquire),
            resident: loads.iter().map(|&l| l as u64).sum(),
            bins,
            batches: self.batches(),
            gap,
        }
    }
}

impl ConcurrentRouterApi for ConcurrentRouter {
    fn route(&self, key: u64) -> Result<Placement, RouteError> {
        ConcurrentRouter::route(self, key)
    }

    fn route_many(&self, keys: &[u64]) -> Result<Vec<Placement>, RouteError> {
        ConcurrentRouter::route_many(self, keys)
    }

    fn release(&self, ticket: Ticket) -> Result<(), RouteError> {
        ConcurrentRouter::release(self, ticket)
    }

    fn release_many(&self, tickets: &[Ticket]) -> Result<(), RouteError> {
        ConcurrentRouter::release_many(self, tickets)
    }

    fn loads(&self) -> Vec<u32> {
        ConcurrentRouter::loads(self)
    }

    fn stats(&self) -> RouterStats {
        ConcurrentRouter::stats(self)
    }
}

impl Core {
    /// Total slot capacity (`bins + reserve_bins`); the length of every
    /// per-bin array. Slots above the active count exist but are never
    /// sampled.
    fn capacity(&self) -> usize {
        self.config.bins + self.config.reserve_bins
    }

    /// The published topology, or `None` for a fixed-membership router (the
    /// fast path: one relaxed-ish atomic read, no `Arc` traffic).
    fn topology_if_elastic(&self) -> Option<Arc<Topology>> {
        self.has_membership
            .load(Ordering::Acquire)
            .then(|| self.topology.load())
    }

    /// Applies staged membership/weight changes if this call sits at a batch
    /// open (`open_routed == 0`) — the same moment the single-threaded
    /// engine applies its staged changes, so 1-caller runs stay
    /// bit-identical. Cheap when nothing is staged (one atomic read).
    fn apply_staged_at_batch_open(&self) {
        if !self.has_pending_membership.load(Ordering::Acquire)
            || self.open_routed.load(Ordering::Acquire) != 0
        {
            return;
        }
        let mut book = self.boundary.lock().expect("boundary lock");
        if self.open_routed.load(Ordering::Acquire) == 0 {
            self.apply_staged_changes(&mut book);
        }
    }

    /// The bin-selection core of one route: choose against the published
    /// epoch snapshot, commit the placement, and (elastic routers only)
    /// re-check the bin's lifecycle state after the commit, undoing and
    /// retrying against the fresh topology if a scale event drained it
    /// between choose and place. Returns the bin the ball landed in.
    fn choose_and_place(&self, key: u64) -> usize {
        let policy = self.config.policy;
        loop {
            let topology = self.topology_if_elastic();
            // Threshold policies price the open batch once, at its first
            // route (lazily, so the priced resident count matches the
            // single-threaded engine's batch-open moment exactly in the
            // 1-caller case).
            let priced;
            let (flat, capacity): (u32, &[u32]) = if uses_thresholds(policy) {
                priced = self.priced_route_thresholds();
                let thresholds = priced.get().expect("priced above");
                (thresholds.flat, &thresholds.capacity)
            } else {
                (0, &[])
            };
            let stale = self.published.load();
            let (weights, active, active_weights) = match &topology {
                Some(t) => (
                    t.resolved.as_ref(),
                    Some(&t.active[..]),
                    t.active_resolved.as_ref(),
                ),
                None => (self.resolved.as_ref(), None, None),
            };
            let ctx = ChoiceCtx {
                snapshot: &stale,
                weights,
                batch_threshold: flat,
                capacity_thresholds: capacity,
                seed: self.config.seed,
                bins: self.capacity(),
                active,
                active_weights,
                counters: self.metrics.as_ref().map(|m| &m.policy),
            };
            let bin = Chooser::new(policy, &ctx).choose_one(key) as usize;
            self.bins.place(bin);
            if topology.is_none() {
                return bin;
            }
            // Re-read the topology *after* the commit: a scale event may have
            // drained this bin between choose and place. The undone placement
            // is counted (`membership.rejected_routes_to_draining`) and the
            // route retries against the fresh topology; with one caller the
            // race cannot occur.
            if self.topology.load().states[bin] == BinState::Active {
                return bin;
            }
            assert!(self.bins.depart(bin), "undo of a placement just made");
            if let Some(metrics) = &self.metrics {
                metrics.membership.rejected_routes_to_draining.inc();
            }
        }
    }

    /// Applies everything staged — membership events first, then weights —
    /// and epoch-publishes the resulting topology. Fires `on_membership` /
    /// `on_reweight` through the observer chain and counts every accepted
    /// and rejected lifecycle event. Caller holds the boundary lock, so the
    /// new topology becomes visible to routes before any later boundary.
    fn apply_staged_changes(&self, book: &mut BoundaryBook) {
        let mut side = self.membership.lock().expect("membership lock");
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

    /// Returns the open routed batch's threshold cell, priced (the first
    /// caller computes; everyone else reuses). The projected batch length is
    /// the full `batch_size` — a router cannot know how many requests the
    /// batch will eventually have.
    fn priced_route_thresholds(&self) -> Arc<OnceLock<RouteThresholds>> {
        let cell = Arc::clone(&self.route_thresholds.read().expect("threshold lock"));
        cell.get_or_init(|| {
            let projected = self.config.batch_size as u64;
            let mut capacity = Vec::new();
            let flat = match self.topology_if_elastic() {
                Some(topology) => {
                    // Re-price over the surviving weight mass: resident counts
                    // active bins only (draining residents are leaving), the
                    // fair share splits over the active slots.
                    let resident = self.active_resident(&topology);
                    snapshot::fill_active_capacity_thresholds_into(
                        self.config.policy,
                        topology.active_resolved.as_ref(),
                        &topology.active,
                        resident,
                        self.capacity(),
                        projected,
                        &mut capacity,
                    );
                    snapshot::batch_threshold(
                        self.config.policy,
                        resident,
                        topology.active.len(),
                        projected,
                    )
                }
                None => {
                    let resident = self.bins.total();
                    snapshot::fill_capacity_thresholds_into(
                        self.config.policy,
                        self.resolved.as_ref(),
                        resident,
                        self.config.bins,
                        projected,
                        &mut capacity,
                    );
                    snapshot::batch_threshold(
                        self.config.policy,
                        resident,
                        self.config.bins,
                        projected,
                    )
                }
            };
            RouteThresholds { flat, capacity }
        });
        cell
    }

    /// Fresh resident total over the **active** bins only — the count
    /// thresholds are priced with under elastic membership (matches a
    /// compacted fixed engine's `bins.total()` for the suffix-equivalence
    /// property).
    fn active_resident(&self, topology: &Topology) -> u64 {
        topology
            .active
            .iter()
            .map(|&bin| self.bins.load(bin as usize) as u64)
            .sum()
    }

    /// Swaps in a fresh (unpriced) threshold cell for the next routed batch.
    fn reset_route_thresholds(&self) {
        if uses_thresholds(self.config.policy) {
            *self.route_thresholds.write().expect("threshold lock") = Arc::new(OnceLock::new());
        }
    }

    /// Closes as many *full* routed batches as have accumulated. Called by
    /// the ball whose commit filled a batch; the boundary lock serialises
    /// racing closers and the loop absorbs a backlog (several batches' worth
    /// of commits can pile up before the first closer gets the lock).
    fn close_full_routed_batches(&self) {
        let batch = self.config.batch_size as u64;
        let mut deferred = Vec::new();
        let mut book = self.boundary.lock().expect("boundary lock");
        while self.open_routed.load(Ordering::Acquire) >= batch {
            self.open_routed.fetch_sub(batch, Ordering::AcqRel);
            self.advance_boundary(&mut book, batch as usize, &mut deferred);
            self.reset_route_thresholds();
        }
        self.fire_deferred_after(book, deferred);
    }

    /// Closes the open routed batch even if partial (flush semantics).
    /// Returns `true` when a boundary was produced.
    fn close_partial_routed_batch(&self) -> bool {
        let batch = self.config.batch_size as u64;
        let mut deferred = Vec::new();
        let mut book = self.boundary.lock().expect("boundary lock");
        // Full batches first: a racing closer may not have reached the lock.
        while self.open_routed.load(Ordering::Acquire) >= batch {
            self.open_routed.fetch_sub(batch, Ordering::AcqRel);
            self.advance_boundary(&mut book, batch as usize, &mut deferred);
            self.reset_route_thresholds();
        }
        let open = self.open_routed.load(Ordering::Acquire);
        if open == 0 {
            self.fire_deferred_after(book, deferred);
            return false;
        }
        self.open_routed.fetch_sub(open, Ordering::AcqRel);
        self.advance_boundary(&mut book, open as usize, &mut deferred);
        self.reset_route_thresholds();
        // This *is* a batch boundary: staged scale events must not survive
        // past it (mirrors the single-threaded `close_open_batch`).
        if self.has_pending_membership.load(Ordering::Acquire) {
            self.apply_staged_changes(&mut book);
        }
        self.fire_deferred_after(book, deferred);
        true
    }

    /// The batch boundary: reads the fresh loads, records the gap, captures
    /// the `on_batch` payload for the **deferred** external fan-out, and
    /// publishes the loads as the next epoch's stale snapshot. Caller holds
    /// the boundary lock; external observers are notified only after it is
    /// released (see [`Core::fire_deferred_after`]) so user code never runs
    /// inside the boundary's critical section.
    fn advance_boundary(
        &self,
        book: &mut BoundaryBook,
        batch_len: usize,
        deferred: &mut Vec<DeferredBatchEvent>,
    ) {
        book.batches += 1;
        let loads = self.bins.snapshot();
        let gap = match self.topology_if_elastic() {
            Some(topology) => snapshot::gap_of_active_loads(
                &loads,
                &topology.active,
                topology.active_resolved.as_ref(),
                &mut book.gap_scratch,
            ),
            None => snapshot::gap_of_loads(&loads, self.resolved.as_ref()),
        };
        let event = BatchEvent {
            batch_index: book.batches,
            batch_len,
            loads: &loads,
            gap,
            resident: self.resident_now(),
        };
        book.gap.on_batch(&event);
        if self.has_observers.load(Ordering::Acquire) {
            deferred.push(DeferredBatchEvent {
                batch_index: event.batch_index,
                batch_len,
                loads: loads.clone(),
                gap,
                resident: event.resident,
            });
        }
        if let Some(metrics) = &self.metrics {
            metrics.batches.inc();
            metrics.gap.set(gap);
            metrics.resident.set(event.resident as f64);
        }
        let epoch = self.published.publish(loads);
        debug_assert_eq!(epoch, book.batches, "epoch tracks batch boundaries");
    }

    /// Releases the boundary lock and fires the captured `on_batch` events
    /// through the observer chain. The chain lock is acquired **before** the
    /// boundary lock is dropped (boundary → observers is the sanctioned
    /// order), so batch events reach external observers in boundary order
    /// even when several closers race.
    fn fire_deferred_after(
        &self,
        book: std::sync::MutexGuard<'_, BoundaryBook>,
        deferred: Vec<DeferredBatchEvent>,
    ) {
        if deferred.is_empty() {
            return;
        }
        let chain = self.observers.lock().expect("observer chain");
        drop(book);
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
    }

    /// Sequences queued pushed balls and drains them in `batch_size`
    /// windows; the undrained tail stays in the (sorted) buffer.
    fn drain_buffered(&self, include_partial: bool) -> usize {
        let mut side = self.drain.lock().expect("drain lock");
        let (_, late) = self.ingress.collect_into(&mut side.buffer);
        if late > 0 {
            if let Some(metrics) = &self.metrics {
                metrics.ingress_late.add(late);
            }
        }
        let batch_size = self.config.batch_size;
        let DrainSide {
            buffer,
            commit,
            capacity,
        } = &mut *side;
        let mut drained = 0;
        let mut start = 0;
        while buffer.len() - start >= batch_size {
            self.drain_batch(&buffer[start..start + batch_size], commit, capacity);
            start += batch_size;
            drained += 1;
        }
        if include_partial && start < buffer.len() {
            self.drain_batch(&buffer[start..], commit, capacity);
            start = buffer.len();
            drained += 1;
        }
        buffer.drain(..start);
        drained
    }

    /// Allocates one pushed batch against the published snapshot — choose,
    /// commit (the shared stage of [`crate::commit`]) — and advances the
    /// boundary.
    fn drain_batch(
        &self,
        batch: &[PendingBall],
        scratch: &mut CommitScratch,
        capacity: &mut Vec<u32>,
    ) {
        if batch.is_empty() {
            return;
        }
        let policy = self.config.policy;
        // Staged scale events apply at batch open here too (mirroring the
        // single-threaded drain path), but only when no routed batch is
        // open — a mid-batch route stream keeps its topology to the close.
        self.apply_staged_at_batch_open();
        let topology = self.topology_if_elastic();
        // Only a threshold policy reads the resident count; the rest skip
        // the O(n) walk behind it.
        let priced = uses_thresholds(policy);
        let threshold = match &topology {
            Some(topology) => {
                let resident = if priced {
                    self.active_resident(topology)
                } else {
                    0
                };
                snapshot::fill_active_capacity_thresholds_into(
                    policy,
                    topology.active_resolved.as_ref(),
                    &topology.active,
                    resident,
                    self.capacity(),
                    batch.len() as u64,
                    capacity,
                );
                snapshot::batch_threshold(
                    policy,
                    resident,
                    topology.active.len(),
                    batch.len() as u64,
                )
            }
            None => {
                let resident = if priced { self.bins.total() } else { 0 };
                snapshot::fill_capacity_thresholds_into(
                    policy,
                    self.resolved.as_ref(),
                    resident,
                    self.config.bins,
                    batch.len() as u64,
                    capacity,
                );
                snapshot::batch_threshold(policy, resident, self.config.bins, batch.len() as u64)
            }
        };
        let stale = self.published.load();
        let (weights, active, active_weights) = match &topology {
            Some(t) => (
                t.resolved.as_ref(),
                Some(&t.active[..]),
                t.active_resolved.as_ref(),
            ),
            None => (self.resolved.as_ref(), None, None),
        };
        let ctx = ChoiceCtx {
            snapshot: &stale,
            weights,
            batch_threshold: threshold,
            capacity_thresholds: capacity,
            seed: self.config.seed,
            bins: self.capacity(),
            active,
            active_weights,
            counters: self.metrics.as_ref().map(|m| &m.policy),
        };
        commit::commit_batch(
            policy,
            &ctx,
            batch,
            |ball| ball.key,
            Execution {
                parallel: self.config.parallel,
                pool: self.pool.as_ref(),
            },
            &self.bins,
            scratch,
            self.metrics.as_ref().map(|m| &m.bin_commits),
        );
        self.placed.fetch_add(batch.len() as u64, Ordering::AcqRel);
        if let Some(metrics) = &self.metrics {
            metrics.placed.add(batch.len() as u64);
        }
        let mut deferred = Vec::new();
        let mut book = self.boundary.lock().expect("boundary lock");
        self.advance_boundary(&mut book, batch.len(), &mut deferred);
        self.fire_deferred_after(book, deferred);
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

    #[test]
    fn single_caller_route_is_bit_identical_to_stream_allocator() {
        use crate::engine::StreamAllocator;
        let weights = BinWeights::power_of_two_tiers(&[(8, 2), (16, 1), (40, 0)]);
        for policy in [
            Policy::OneChoice,
            Policy::TwoChoice,
            Policy::DChoice(3),
            Policy::Threshold { d: 2, slack: 1 },
            Policy::WeightedTwoChoice,
            Policy::CapacityThreshold { d: 2, slack: 2 },
        ] {
            let cfg = StreamConfig::new(64)
                .policy(policy)
                .batch_size(128)
                .seed(31)
                .weights(weights.clone());
            let concurrent = ConcurrentRouter::new(cfg.clone());
            let mut reference = StreamAllocator::new(cfg);
            for key in keys(128 * 10 + 17, 5) {
                let a = concurrent.route(key).unwrap();
                let b = reference.route(key).unwrap();
                assert_eq!(a.bin, b.bin, "policy {}", policy.name());
            }
            assert_eq!(concurrent.loads(), reference.loads());
            assert_eq!(concurrent.gap_trajectory(), reference.gap_trajectory());
            assert_eq!(concurrent.shard_stats(), reference.shard_stats());
            assert_eq!(concurrent.batches(), reference.snapshot().batches);
            assert_eq!(concurrent.flush(), reference.flush());
            assert_eq!(concurrent.loads(), reference.loads());
            assert_eq!(concurrent.gap_trajectory(), reference.gap_trajectory());
            assert!(concurrent.conserves_balls());
        }
    }

    #[test]
    fn single_caller_push_drain_is_bit_identical_to_stream_allocator() {
        use crate::engine::StreamAllocator;
        let cfg = StreamConfig::new(32).batch_size(64).seed(9).shards(4);
        let concurrent = ConcurrentRouter::new(cfg.clone());
        let mut reference = StreamAllocator::new(cfg);
        for key in keys(1000, 3) {
            concurrent.push(key);
            reference.push(key);
        }
        assert_eq!(concurrent.pending(), 1000);
        assert_eq!(concurrent.drain_ready(), reference.drain_ready());
        assert_eq!(concurrent.loads(), reference.loads());
        assert_eq!(concurrent.pending(), reference.pending() as u64);
        assert_eq!(concurrent.flush(), reference.flush());
        assert_eq!(concurrent.loads(), reference.loads());
        assert_eq!(concurrent.gap_trajectory(), reference.gap_trajectory());
        assert_eq!(concurrent.shard_stats(), reference.shard_stats());
        assert!(concurrent.conserves_balls());
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
