//! The incremental streaming allocator.
//!
//! [`StreamAllocator`] is the online counterpart of the one-shot
//! [`pba_model::Allocator`]s: balls are **pushed** as they arrive, buffered,
//! and **drained** in batches of `batch_size`. Every ball of a batch chooses
//! its bin from the load *snapshot taken at the previous batch boundary* —
//! the batched / outdated-information model of Los & Sauerwald (2022) — so
//! the placements of a batch are mutually independent and the drain can run
//! sharded and parallel without changing a single placement relative to the
//! sequential drain.
//!
//! Gap tracking is online: after each batch the allocator fires a
//! [`BatchEvent`] through the observer chain; the default
//! [`GapTrajectoryObserver`] records `max load − mean load` into a trajectory
//! and a streaming [`OnlineStats`] accumulator. With
//! non-uniform [`BinWeights`] the recorded gap is the **weighted** gap
//! `max_i(load_i/w_i) − (Σ load)/W` — the normalized-load form that coincides
//! with the classic gap when all weights are equal, so uniform configurations
//! remain bit-identical.
//!
//! ## The router surface
//!
//! Besides the batch API (`push` / `drain_ready` / `flush`), the engine
//! implements [`Router`] natively: [`StreamAllocator::route`] places one ball
//! *synchronously* against the current stale snapshot and returns a
//! [`Placement`] whose [`Ticket`] later releases the ball through
//! [`StreamAllocator::release`]. Because every placement of a batch is a pure
//! function of `(stale snapshot, key)`, routing balls one at a time and
//! advancing the snapshot every `batch_size` placements produces **bit
//! identical** loads, gap trajectories and shard stats to buffering the same
//! keys and draining them in batches — the batched model does not care who
//! holds the buffer. (One caveat: the threshold policies project a *full*
//! batch when routing, since a router cannot know how many requests a batch
//! will eventually have; push-mode partial flushes use the true batch length.
//! Full batches are identical either way.)
//!
//! Runtime reweighting ([`StreamAllocator::set_weights`]) takes effect at the
//! next batch boundary: the in-flight batch finishes under the old weights,
//! then the alias table, capacity thresholds and gap measure are rebuilt, and
//! every subsequent drain is bit-identical to a fresh engine constructed with
//! the new weights over the same resident loads (see
//! [`StreamAllocator::with_resident_loads`]).
//!
//! ## Elastic membership
//!
//! Bins have a lifecycle (see the `pba-membership` crate): a
//! [`MembershipPlan`] staged through [`StreamAllocator::stage_membership`] is
//! applied at the **next batch boundary** — exactly like staged weights, and
//! strictly before them — after which policies sample only the *active* bins,
//! thresholds and the gap re-price over the surviving weight mass, and
//! draining bins stop receiving placements while their residents (and
//! tickets) stay valid. [`StreamAllocator::migrate_drained`] force-migrates
//! ticketed residents off draining bins through the live policy, and a
//! `Remove` retires a slot only at zero occupancy. The engine's arrays are
//! sized once, to `bins + reserve_bins` **capacity slots**; scaling out
//! re-commissions the lowest retired slot, so no array ever reallocates. An
//! engine that never stages a plan (and reserves no slots) runs the exact
//! fixed-membership code paths, and staging an identity (empty) plan is a
//! strict no-op — bit-identical loads, RNG streams and gap trajectories.

use std::fmt;
use std::sync::{Arc, Mutex};

use pba_membership::{Membership, MembershipPlan};
use pba_model::router::{
    BatchEvent, MembershipChange, Placement, ReleaseEvent, ReweightEvent, RouteError, RouteEvent,
    Router, RouterObserver, RouterStats, Ticket, TicketLedger,
};
use pba_model::weights::{normalized_loads, BinWeights, ResolvedWeights};
use pba_stats::{LoadMetrics, OnlineStats};

// Re-exported here because the snapshot type was historically defined in this
// module; `pba_stream::engine::StreamSnapshot` keeps resolving.
pub use crate::snapshot::StreamSnapshot;

use crate::commit::{self, CommitScratch, Execution};
use crate::ingress::PendingBall;
use crate::metrics::StreamMetrics;
use crate::observer::GapTrajectoryObserver;
use crate::policy::{ChoiceCtx, Chooser, Policy};
use crate::shard::{ShardStats, ShardedBins};
use crate::snapshot;

/// Configuration of a [`StreamAllocator`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Number of bins (`n`).
    pub bins: usize,
    /// Number of bin shards for the parallel drain (clamped to `[1, bins]`).
    pub shards: usize,
    /// Batch size `b`: how many buffered balls one drain step allocates with
    /// one (stale) load snapshot.
    pub batch_size: usize,
    /// Placement policy.
    pub policy: Policy,
    /// Master seed; together with each ball's key it determines candidates.
    pub seed: u64,
    /// Whether `drain` may cut a long batch's choose step into spans for a
    /// worker pool (`true`) or always runs on the calling thread (`false`).
    /// Both produce identical loads, and batches below 64 Ki balls run on
    /// the calling thread either way (below that the pool hand-off costs
    /// more than the choosing it hands off).
    pub parallel: bool,
    /// Most recent per-batch gap entries retained in the trajectory. A
    /// long-running stream drains batches forever, so the trajectory must not
    /// grow with uptime; [`OnlineStats`] keeps the full-history summary
    /// regardless. Default `65536`.
    pub trajectory_cap: usize,
    /// Worker-thread count of the parallel drain. `0` (the default) uses the
    /// ambient pool — whatever `ThreadPool::install` scope the caller runs
    /// drains under, or the global pool (`PBA_THREADS` / core count). A
    /// positive value gives this engine its **own** dedicated pool of that
    /// size, so engine parallelism is configured here instead of ambiently.
    /// Results are bit-identical for every worker count (parallelism only
    /// partitions index ranges; it never reorders RNG consumption).
    ///
    /// Caveat: when the drain itself runs *inside* a pool task (e.g. engines
    /// driven from a `par_iter`), nested parallel operations fall back to
    /// inline execution — the dedicated pool is then idle and the drain runs
    /// sequentially (results unchanged, the inner parallelism just does not
    /// materialise). Drive engines from plain threads to combine outer and
    /// inner parallelism.
    pub num_threads: usize,
    /// Per-bin weights (relative backend capacities). Uniform by default;
    /// uniform weights — including explicit constant vectors — are a strict
    /// no-op relative to the unweighted engine (see [`BinWeights::resolve`]).
    pub weights: BinWeights,
    /// Pre-reserved **retired** bin slots for elastic membership: the engine
    /// is sized to `bins + reserve_bins` capacity slots, of which the first
    /// `bins` start active and the rest wait for an `Add`. `0` (the default)
    /// keeps the engine on the exact fixed-membership code paths until a
    /// plan is staged (scale-out is then limited to slots freed by removes).
    pub reserve_bins: usize,
}

impl StreamConfig {
    /// A reasonable default: two-choice, batch = n, 4 shards, parallel drain.
    pub fn new(bins: usize) -> Self {
        Self {
            bins,
            shards: 4,
            batch_size: bins.max(1),
            policy: Policy::TwoChoice,
            seed: 0,
            parallel: true,
            trajectory_cap: 1 << 16,
            num_threads: 0,
            weights: BinWeights::Uniform,
            reserve_bins: 0,
        }
    }

    /// Sets the policy (builder style).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the batch size (builder style).
    pub fn batch_size(mut self, b: usize) -> Self {
        self.batch_size = b.max(1);
        self
    }

    /// Sets the shard count (builder style).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the sequential drain path (builder style).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Sets the parallel drain's worker count (builder style); `0` keeps the
    /// ambient pool. See [`StreamConfig::num_threads`].
    pub fn num_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads;
        self
    }

    /// Sets the bin weights (builder style). Non-uniform weights must
    /// prescribe exactly `bins` bins.
    pub fn weights(mut self, weights: BinWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Reserves extra retired bin slots for elastic scale-out (builder
    /// style). See [`StreamConfig::reserve_bins`].
    pub fn reserve_bins(mut self, reserve: usize) -> Self {
        self.reserve_bins = reserve;
        self
    }
}

/// External observers, shared handles so callers keep access to their sinks
/// while the engine notifies them. Interior mutability (one lock per event,
/// only at batch boundaries / departures) keeps the hot path lock-free.
#[derive(Default)]
struct Observers(Vec<Arc<Mutex<dyn RouterObserver + Send>>>);

impl Observers {
    /// Visits every observer, skipping (and counting, when metrics are
    /// installed) observers whose lock was poisoned by a panic in an earlier
    /// hook — a skipped observer is a dropped event, and the no-silent-drops
    /// rule says dropped events must be visible in `observer.errors`.
    fn each(
        &self,
        errors: Option<&pba_obs::Counter>,
        mut visit: impl FnMut(&mut (dyn RouterObserver + Send)),
    ) {
        for obs in &self.0 {
            match obs.lock() {
                Ok(mut guard) => visit(&mut *guard),
                Err(_) => {
                    if let Some(errors) = errors {
                        errors.inc();
                    }
                }
            }
        }
    }

    fn notify_batch(&self, event: &BatchEvent<'_>, errors: Option<&pba_obs::Counter>) {
        self.each(errors, |obs| obs.on_batch(event));
    }

    fn notify_route(&self, event: &RouteEvent, errors: Option<&pba_obs::Counter>) {
        self.each(errors, |obs| obs.on_route(event));
    }

    fn notify_reweight(&self, event: &ReweightEvent<'_>, errors: Option<&pba_obs::Counter>) {
        self.each(errors, |obs| obs.on_reweight(event));
    }

    fn notify_release(&self, event: &ReleaseEvent, errors: Option<&pba_obs::Counter>) {
        self.each(errors, |obs| obs.on_release(event));
    }

    fn notify_membership(&self, event: &MembershipChange<'_>, errors: Option<&pba_obs::Counter>) {
        self.each(errors, |obs| obs.on_membership(event));
    }
}

impl fmt::Debug for Observers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Observers({})", self.0.len())
    }
}

/// Elastic-membership state of a [`StreamAllocator`]: the lifecycle table
/// plus the weight resolves it keeps cached between boundaries.
#[derive(Debug)]
struct MembershipState {
    /// The per-slot lifecycle table (active set, states, slot weights).
    table: Membership,
    /// Plans staged since the last boundary, applied (in staging order) when
    /// the next batch opens.
    pending: MembershipPlan,
    /// The weight resolve **restricted to the active slots** — what sampling
    /// and pricing use; `None` when the surviving weights are uniform, which
    /// keeps the engine on the exact unweighted paths a compacted fresh
    /// engine over the active bins would run (the suffix-equivalence
    /// invariant).
    active_resolved: Option<ResolvedWeights>,
}

/// Online, sharded, batched streaming allocator.
#[derive(Debug)]
pub struct StreamAllocator {
    config: StreamConfig,
    bins: ShardedBins,
    /// Stale load vector: the state at the last batch boundary.
    stale: Vec<u32>,
    pending: Vec<PendingBall>,
    next_ball: u64,
    arrived: u64,
    placed: u64,
    departed: u64,
    batches: u64,
    /// The default observer: per-batch gap trajectory + streaming stats.
    gap: GapTrajectoryObserver,
    /// External observer sinks, notified after the default observer.
    observers: Observers,
    /// Resident-ball table for handle-based routing: only balls placed via
    /// [`StreamAllocator::route`] are ticketed; `push`ed balls are anonymous.
    tickets: TicketLedger,
    /// Balls routed (tickets issued).
    routed: u64,
    /// Tickets released (a subset of `departed`).
    released: u64,
    /// Balls routed since the last batch boundary (the open routed batch).
    open_batch: usize,
    /// Weights staged by [`StreamAllocator::set_weights`], applied at the
    /// next batch boundary.
    pending_weights: Option<BinWeights>,
    /// Scratch of the commit stage — the chosen bins of the batch or group
    /// in flight and the grouped commit's counters (reused).
    commit_scratch: CommitScratch,
    /// Scratch: the active bins' loads, gathered for a membership engine's
    /// boundary gap (reused).
    gap_scratch: Vec<u32>,
    /// Non-uniform weights resolved once at construction (and re-resolved at
    /// reweighting boundaries); `None` keeps every hot path on the exact
    /// unweighted code (the strict no-op invariant).
    resolved: Option<ResolvedWeights>,
    /// Scratch: per-bin capacity thresholds of the batch being drained (only
    /// filled for [`Policy::CapacityThreshold`] on non-uniform weights).
    capacity_scratch: Vec<u32>,
    /// The flat threshold of the open routed batch (projected full batch).
    route_threshold: u32,
    /// Per-bin capacity thresholds of the open routed batch (kept separate
    /// from `capacity_scratch` so interleaved `drain_ready` calls cannot
    /// clobber an open batch's thresholds).
    route_capacity: Vec<u32>,
    /// Dedicated worker pool of the parallel drain when
    /// [`StreamConfig::num_threads`] is positive; `None` drains on the
    /// ambient (installed or global) pool.
    pool: Option<rayon::ThreadPool>,
    /// Resolved metric handles ([`StreamAllocator::install_metrics`]);
    /// `None` is the disabled fast path — zero metric instructions anywhere.
    metrics: Option<StreamMetrics>,
    /// Elastic-membership state. `None` — the lifetime default of an engine
    /// with no reserve slots and no staged plan — keeps every hot path on
    /// the exact fixed-membership code; created eagerly when
    /// [`StreamConfig::reserve_bins`] is positive, lazily on the first
    /// [`StreamAllocator::stage_membership`] otherwise. When present,
    /// `resolved` holds the **capacity-wide** resolve used for candidate
    /// comparisons (`None` when the surviving weights are uniform), while
    /// `MembershipState::active_resolved` drives sampling and pricing.
    membership: Option<MembershipState>,
}

impl StreamAllocator {
    /// Creates an empty stream over `config.bins` bins.
    pub fn new(config: StreamConfig) -> Self {
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
        // Reserve slots make membership real from birth: the retired tail
        // must be invisible to sampling, so the membership table (with its
        // identity active set over the first `bins` slots) exists eagerly.
        let membership = (config.reserve_bins > 0).then(|| MembershipState {
            table: Membership::new(
                config.bins,
                capacity,
                &Self::slot_weight_values(resolved.as_ref(), config.bins),
            ),
            pending: MembershipPlan::new(),
            active_resolved: resolved.clone(),
        });
        let mut stream = Self {
            bins: ShardedBins::new(capacity, config.shards),
            stale: vec![0; capacity],
            pending: Vec::with_capacity(config.batch_size),
            next_ball: 0,
            arrived: 0,
            placed: 0,
            departed: 0,
            batches: 0,
            gap: GapTrajectoryObserver::new(config.trajectory_cap),
            observers: Observers::default(),
            tickets: TicketLedger::new(capacity),
            routed: 0,
            released: 0,
            open_batch: 0,
            pending_weights: None,
            commit_scratch: CommitScratch::default(),
            gap_scratch: Vec::new(),
            resolved,
            capacity_scratch: Vec::new(),
            route_threshold: 0,
            route_capacity: Vec::new(),
            pool: (config.num_threads > 0).then(|| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(config.num_threads)
                    .build()
                    .expect("stream drain pool")
            }),
            metrics: None,
            membership,
            config,
        };
        if stream.membership.is_some() {
            // Canonicalize `resolved` to the capacity-wide form membership
            // comparisons index by slot id (retired tails included).
            stream.refresh_membership_weights();
        }
        stream
    }

    /// Per-slot weight values of the first `bins` slots: the raw resolved
    /// weights, or `1.0` placeholders for a uniform configuration (weights
    /// are scale-free, so any constant is the same configuration).
    fn slot_weight_values(resolved: Option<&ResolvedWeights>, bins: usize) -> Vec<f64> {
        match resolved {
            Some(resolved) => (0..bins).map(|i| resolved.weight(i)).collect(),
            None => vec![1.0; bins],
        }
    }

    /// Installs a metrics registry: resolves every handle the engine records
    /// into (see [`StreamMetrics`]) so the hot path pays one relaxed atomic
    /// per event and zero registry locks. Metrics are write-only — placements
    /// and RNG streams are bit-identical with and without a registry.
    pub fn install_metrics(&mut self, registry: Arc<pba_obs::MetricsRegistry>) {
        self.metrics = Some(StreamMetrics::resolve(registry, self.capacity()));
    }

    /// The installed metric handles, if any.
    pub fn metrics(&self) -> Option<&StreamMetrics> {
        self.metrics.as_ref()
    }

    /// Creates a stream whose bins already hold `loads` **anonymous** resident
    /// balls (no tickets), with the stale snapshot advanced to match — i.e.
    /// the state an engine reaches at a batch boundary with those loads. This
    /// is the reference constructor of the reweighting equivalence property:
    /// after [`StreamAllocator::set_weights`] takes effect, the suffix of
    /// drains is bit-identical to a fresh engine built here with the new
    /// weights and the loads at the reweighting boundary.
    pub fn with_resident_loads(config: StreamConfig, loads: &[u32]) -> Self {
        let mut stream = Self::new(config);
        assert_eq!(
            loads.len(),
            stream.capacity(),
            "resident loads describe {} bins but the stream has {} slots",
            loads.len(),
            stream.capacity()
        );
        for (bin, &load) in loads.iter().enumerate() {
            if load > 0 {
                stream.bins.place_many_unrecorded(bin, load);
            }
        }
        // Fold the seeded balls into the shard bookkeeping so stats stay
        // consistent with an engine that placed them one by one.
        for s in 0..stream.bins.shard_count() {
            let range = stream.bins.shard_start(s)..stream.bins.shard_start(s + 1);
            let accepted: u64 = loads[range.clone()].iter().map(|&l| l as u64).sum();
            let peak = loads[range].iter().copied().max().unwrap_or(0);
            stream.bins.record_batch(s, accepted, peak);
        }
        let total = stream.bins.total();
        stream.placed = total;
        stream.arrived = total;
        stream.bins.snapshot_into(&mut stream.stale);
        stream
    }

    /// The configuration this stream runs with.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Buffers one arriving ball with router key `key`; returns its ball id.
    /// Nothing is allocated until [`StreamAllocator::drain_ready`] (or
    /// [`StreamAllocator::flush`]) runs.
    pub fn push(&mut self, key: u64) -> u64 {
        let id = self.next_ball;
        self.next_ball += 1;
        self.arrived += 1;
        self.pending.push(PendingBall { id, key });
        id
    }

    /// Drains every *full* batch currently buffered; returns the number of
    /// batches drained. Balls beyond the last full batch stay buffered.
    pub fn drain_ready(&mut self) -> usize {
        self.drain_buffered(false)
    }

    /// Drains everything that is buffered, including a final partial batch,
    /// and closes a partially filled routed batch (so its boundary is
    /// recorded). Returns the number of batch boundaries produced.
    pub fn flush(&mut self) -> usize {
        let closed = self.close_open_batch() as usize;
        closed + self.drain_buffered(true)
    }

    /// Drains the buffer in `batch_size` windows without copying balls out:
    /// the buffer is taken whole, batches are slices of it, and only an
    /// undrained tail (if any) is compacted back.
    fn drain_buffered(&mut self, include_partial: bool) -> usize {
        let mut buffer = std::mem::take(&mut self.pending);
        let batch_size = self.config.batch_size;
        let mut drained = 0;
        let mut start = 0;
        while buffer.len() - start >= batch_size {
            self.drain_batch(&buffer[start..start + batch_size]);
            start += batch_size;
            drained += 1;
        }
        if include_partial && start < buffer.len() {
            self.drain_batch(&buffer[start..]);
            start = buffer.len();
            drained += 1;
        }
        buffer.drain(..start);
        self.pending = buffer;
        drained
    }

    /// Routes one ball **synchronously**: places it against the current stale
    /// snapshot, issues a [`Ticket`], and advances the snapshot once
    /// `batch_size` balls have been routed since the last boundary. For the
    /// same keys this is bit-identical to `push` + `drain_ready` (see the
    /// module docs); unlike `push`, the caller learns the bin immediately and
    /// holds a handle to release the placement later.
    ///
    /// Streaming routing is infallible (the `Result` is the shared
    /// [`Router`] surface); the error arm is never taken.
    pub fn route(&mut self, key: u64) -> Result<Placement, RouteError> {
        if self.open_batch == 0 {
            // A routed batch opens here: apply staged membership and weights
            // and compute the batch thresholds, projecting a full batch (a
            // router cannot know how many requests the batch will have).
            self.apply_staged_changes();
            self.route_threshold = self.batch_threshold(self.config.batch_size as u64);
            let mut thresholds = std::mem::take(&mut self.route_capacity);
            self.fill_capacity_thresholds_into(self.config.batch_size as u64, &mut thresholds);
            self.route_capacity = thresholds;
        }
        let bin = {
            let ctx = ChoiceCtx {
                snapshot: &self.stale,
                weights: self.resolved.as_ref(),
                batch_threshold: self.route_threshold,
                capacity_thresholds: &self.route_capacity,
                seed: self.config.seed,
                bins: self.capacity(),
                active: self.membership.as_ref().map(|s| s.table.active()),
                active_weights: self
                    .membership
                    .as_ref()
                    .and_then(|s| s.active_resolved.as_ref()),
                counters: self.metrics.as_ref().map(|m| &m.policy),
            };
            Chooser::new(self.config.policy, &ctx).choose_one(key)
        };
        self.bins.place(bin as usize);
        let id = self.next_ball;
        self.next_ball += 1;
        self.arrived += 1;
        self.placed += 1;
        self.routed += 1;
        self.open_batch += 1;
        if let Some(metrics) = &self.metrics {
            metrics.routed.inc();
            metrics.placed.inc();
            metrics.bin_commits.inc(bin as usize);
        }
        let ticket = self.tickets.issue(id, bin as usize);
        if !self.observers.0.is_empty() {
            // The per-arrival tap trace recorders hang off. Fires before the
            // boundary this arrival may complete, so a recorder sees the
            // arrival strictly before its batch event.
            let event = RouteEvent {
                key,
                ticket,
                resident: self.placed - self.departed,
            };
            self.observers
                .notify_route(&event, self.metrics.as_ref().map(|m| &m.observer_errors));
        }
        if self.open_batch >= self.config.batch_size {
            self.close_open_batch();
        }
        Ok(Placement {
            ticket,
            bin: bin as usize,
        })
    }

    /// Routes a group of keys, bit-identical to calling
    /// [`StreamAllocator::route`] once per key but with the per-route
    /// overhead amortized: the group is split at batch boundaries (so staged
    /// changes apply and thresholds re-price exactly where the loop would),
    /// and within each sub-group the pricing context is built once, the
    /// chosen bins are committed as per-bin grouped deltas
    /// ([`ShardedBins::place_group_with`] — one atomic increment per distinct
    /// bin), and the counters advance by whole-group adds.
    ///
    /// Streaming routing is infallible; the `Result` is the shared
    /// [`Router`] surface.
    pub fn route_many(&mut self, keys: &[u64]) -> Result<Vec<Placement>, RouteError> {
        // A singleton group amortizes nothing: delegate to `route` so the
        // batched surface costs one `Vec` over the one-at-a-time path.
        if let [key] = keys {
            return self.route(*key).map(|placement| vec![placement]);
        }
        let mut placements = Vec::with_capacity(keys.len());
        let mut rest = keys;
        while !rest.is_empty() {
            if self.open_batch == 0 {
                // Same batch-open sequence as `route`.
                self.apply_staged_changes();
                self.route_threshold = self.batch_threshold(self.config.batch_size as u64);
                let mut thresholds = std::mem::take(&mut self.route_capacity);
                self.fill_capacity_thresholds_into(self.config.batch_size as u64, &mut thresholds);
                self.route_capacity = thresholds;
            }
            // Never cross the boundary inside a sub-group: the remainder of
            // the open batch caps the group, so the boundary (and any staged
            // re-pricing) lands exactly where the one-at-a-time loop puts it.
            let take = rest.len().min(self.config.batch_size - self.open_batch);
            let (group, tail) = rest.split_at(take);
            rest = tail;

            // Choose every bin of the sub-group against the batch's fixed
            // pricing — `ChoiceCtx` is constant within a batch, so one build
            // serves the whole sub-group — and commit them as grouped
            // per-bin deltas: the drain's commit stage, on this thread.
            let ctx = ChoiceCtx {
                snapshot: &self.stale,
                weights: self.resolved.as_ref(),
                batch_threshold: self.route_threshold,
                capacity_thresholds: &self.route_capacity,
                seed: self.config.seed,
                bins: self.capacity(),
                active: self.membership.as_ref().map(|s| s.table.active()),
                active_weights: self
                    .membership
                    .as_ref()
                    .and_then(|s| s.active_resolved.as_ref()),
                counters: self.metrics.as_ref().map(|m| &m.policy),
            };
            commit::commit_batch(
                self.config.policy,
                &ctx,
                group,
                |&key| key,
                Execution::INLINE,
                &self.bins,
                &mut self.commit_scratch,
                self.metrics.as_ref().map(|m| &m.bin_commits),
            );
            let chosen = &self.commit_scratch.chosen;
            let base = self.next_ball;
            self.next_ball += take as u64;
            self.arrived += take as u64;
            self.placed += take as u64;
            self.routed += take as u64;
            self.open_batch += take;
            if let Some(metrics) = &self.metrics {
                metrics.routed.add(take as u64);
                metrics.placed.add(take as u64);
            }
            let notify = !self.observers.0.is_empty();
            let resident_base = self.placed - self.departed - take as u64;
            for (offset, (&key, &bin)) in group.iter().zip(chosen.iter()).enumerate() {
                let ticket = self.tickets.issue(base + offset as u64, bin as usize);
                if notify {
                    // Per-arrival taps fire in arrival order with the same
                    // resident counts the loop would report.
                    let event = RouteEvent {
                        key,
                        ticket,
                        resident: resident_base + offset as u64 + 1,
                    };
                    self.observers
                        .notify_route(&event, self.metrics.as_ref().map(|m| &m.observer_errors));
                }
                placements.push(Placement {
                    ticket,
                    bin: bin as usize,
                });
            }
            if self.open_batch >= self.config.batch_size {
                self.close_open_batch();
            }
        }
        Ok(placements)
    }

    /// Simulates a **bin crash**: force-releases every *ticketed* resident
    /// ball of `bin` through the normal release path (ledger redeem → depart
    /// → [`ReleaseEvent`]), returning how many tickets were evicted. After a
    /// crash the ledger and the load vector stay consistent — a crash is a
    /// burst of departures, not a silent loss — so conservation and ledger
    /// invariants must keep holding. Anonymous `push`-placed balls hold no
    /// tickets and therefore survive (the engine has no handle to evict
    /// them); fault harnesses route their traffic to make crashes total.
    pub fn crash_bin(&mut self, bin: usize) -> u64 {
        let mut evicted = 0;
        while let Some(ticket) = self.tickets.resident_in(bin) {
            self.release(ticket)
                .expect("ledger-resident ticket must release");
            evicted += 1;
        }
        evicted
    }

    /// Releases a routed ball: validates the ticket against the resident
    /// table, departs its bin, and notifies observers. Double releases and
    /// foreign tickets fail with [`RouteError::UnknownTicket`]. Like every
    /// load change, the departure reaches the policies at the next batch
    /// boundary.
    pub fn release(&mut self, ticket: Ticket) -> Result<(), RouteError> {
        let bin = match self.tickets.redeem(ticket) {
            Ok(bin) => bin,
            Err(err) => {
                if let Some(metrics) = &self.metrics {
                    metrics.rejected_unknown_ticket.inc();
                }
                return Err(err);
            }
        };
        if !self.bins.depart(bin) {
            // Defensive: a redeemed ticket names a resident ball, so its bin
            // cannot be empty unless the ledger and the bins diverged (a bug,
            // not a caller error). Fail the release rather than corrupt loads.
            if let Some(metrics) = &self.metrics {
                metrics.rejected_unknown_ticket.inc();
            }
            return Err(RouteError::UnknownTicket { ticket });
        }
        self.departed += 1;
        self.released += 1;
        if let Some(metrics) = &self.metrics {
            metrics.released.inc();
        }
        let event = ReleaseEvent {
            ticket,
            load_after: self.bins.load(bin),
            // O(1): the counters track Σ loads exactly (`conserves_balls`);
            // an O(n) `bins.total()` scan per departure would reintroduce
            // the O(departures·n) churn cost.
            resident: self.placed - self.departed,
        };
        self.gap.on_release(&event);
        self.observers
            .notify_release(&event, self.metrics.as_ref().map(|m| &m.observer_errors));
        Ok(())
    }

    /// Releases a group of tickets — the grouped surface of
    /// [`StreamAllocator::release`], bit-identical to looping it (the group
    /// stops at the first failing ticket; prior releases stay committed).
    /// The tickets are redeemed in order, then their bins depart through the
    /// same grouped commit the routes arrive by
    /// ([`ShardedBins::release_group_with`]: one decrement per distinct bin,
    /// one stats lock per touched shard) and the counters advance by
    /// whole-group adds; [`ReleaseEvent`]s still fire per ticket, in order,
    /// with the running values the loop would report.
    pub fn release_many(&mut self, tickets: &[Ticket]) -> Result<(), RouteError> {
        // A singleton group amortizes nothing: delegate to `release`.
        if let [ticket] = tickets {
            return self.release(*ticket);
        }
        let CommitScratch { chosen, group } = &mut self.commit_scratch;
        chosen.clear();
        let mut result = Ok(());
        for &ticket in tickets {
            match self.tickets.redeem(ticket) {
                Ok(bin) => chosen.push(bin as u32),
                Err(err) => {
                    result = Err(err);
                    break;
                }
            }
        }
        let mut rejected = result.is_err() as u64;
        let taken = self.bins.release_group_with(chosen, group);
        self.departed += taken;
        self.released += taken;
        if taken < chosen.len() as u64 {
            // Defensive: a redeemed ticket names a resident ball, so no bin
            // can underflow unless the ledger and the bins diverged (a bug,
            // not a caller error — same stance as the one-at-a-time path).
            rejected += chosen.len() as u64 - taken;
            result = Err(RouteError::UnknownTicket {
                ticket: tickets[taken as usize],
            });
        }
        if let Some(metrics) = &self.metrics {
            metrics.released.add(taken);
            metrics.rejected_unknown_ticket.add(rejected);
        }
        if !self.observers.0.is_empty() && taken == chosen.len() as u64 {
            // Per-departure taps fire in ticket order with the running
            // counts the loop would report.
            let loads_after = commit::loads_after_each_release(&self.bins, chosen);
            let resident_final = self.placed - self.departed;
            for (offset, (&ticket, load_after)) in tickets.iter().zip(loads_after).enumerate() {
                let event = ReleaseEvent {
                    ticket,
                    load_after,
                    resident: resident_final + (chosen.len() - 1 - offset) as u64,
                };
                self.observers
                    .notify_release(&event, self.metrics.as_ref().map(|m| &m.observer_errors));
            }
        }
        result
    }

    /// Stages new bin weights, applied at the **next batch boundary**: the
    /// in-flight batch finishes under the old weights, then the alias table,
    /// capacity thresholds and gap measure are rebuilt and
    /// [`RouterObserver::on_reweight`] fires. From that boundary on, drains
    /// are bit-identical to a fresh engine constructed with the new weights
    /// over the same resident loads. Non-uniform weights must describe
    /// exactly `bins` bins — or, once the engine is membership-aware, one
    /// weight per **capacity slot** (retired slots carry placeholders the
    /// next `Add` overwrites); uniform weights (any constant) return the
    /// engine to the strict unweighted path.
    pub fn set_weights(&mut self, weights: BinWeights) {
        if let Some(prescribed) = weights.prescribed_bins() {
            let slots = if self.membership.is_some() {
                self.capacity()
            } else {
                self.config.bins
            };
            assert_eq!(
                prescribed, slots,
                "weights describe {prescribed} bins but the stream has {slots}",
            );
        }
        self.pending_weights = Some(weights);
    }

    /// Stages a [`MembershipPlan`], applied at the **next batch boundary**
    /// and strictly *before* any staged weights: the in-flight batch finishes
    /// under the old topology, then the active set, alias tables, capacity
    /// thresholds and gap measure are rebuilt over the surviving bins and
    /// [`RouterObserver::on_membership`] fires (only when something actually
    /// changed; every rejected event is counted under
    /// `membership.rejected_*`). Staging twice before a boundary
    /// concatenates the plans in order. An empty plan is a strict no-op.
    pub fn stage_membership(&mut self, plan: MembershipPlan) {
        self.ensure_membership();
        self.membership
            .as_mut()
            .expect("membership exists after ensure")
            .pending
            .extend(plan);
    }

    /// Creates the membership state lazily (identity active set over the
    /// configured bins, zero reserve) the first time an engine without
    /// reserve slots stages a plan. A strict no-op for placements: an
    /// identity active set samples and prices exactly like the
    /// fixed-membership paths.
    fn ensure_membership(&mut self) {
        if self.membership.is_some() {
            return;
        }
        self.membership = Some(MembershipState {
            table: Membership::new(
                self.config.bins,
                self.capacity(),
                &Self::slot_weight_values(self.resolved.as_ref(), self.config.bins),
            ),
            pending: MembershipPlan::new(),
            // Identity active set: the restricted resolve IS the full one.
            active_resolved: self.resolved.clone(),
        });
    }

    /// Registers an external observer, notified (after the built-in gap
    /// observer) on every batch boundary, reweighting and release. The caller
    /// keeps its own `Arc` handle to read the sink back.
    pub fn add_observer(&mut self, observer: Arc<Mutex<dyn RouterObserver + Send>>) {
        self.observers.0.push(observer);
    }

    /// Applies everything staged for the next boundary: membership first
    /// (the topology the new weights will describe), then weights. Called at
    /// batch starts — i.e. the boundary after which the changes govern
    /// placements — and a no-op when nothing is staged.
    fn apply_staged_changes(&mut self) {
        self.apply_pending_membership();
        self.apply_pending_weights();
    }

    /// Applies membership plans staged by
    /// [`StreamAllocator::stage_membership`]: runs the lifecycle state
    /// machine with the ledger/loads occupancy predicate, bumps the
    /// `membership.*` counters (accepted *and* rejected — nothing is
    /// silent), rebuilds the cached weight resolves, and fires
    /// [`RouterObserver::on_membership`] when the topology changed.
    fn apply_pending_membership(&mut self) {
        let Some(state) = &mut self.membership else {
            return;
        };
        if state.pending.is_empty() {
            return;
        }
        let plan = std::mem::take(&mut state.pending);
        let bins = &self.bins;
        let tickets = &self.tickets;
        let outcome = state.table.apply(&plan, |bin| {
            bins.load(bin as usize) > 0 || tickets.count_in(bin as usize) > 0
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
        if !outcome.changed() {
            return;
        }
        self.refresh_membership_weights();
        let state = self.membership.as_ref().expect("membership just applied");
        let event = MembershipChange {
            batch_index: self.batches,
            added: &outcome.added,
            drained: &outcome.drained,
            removed: &outcome.removed,
            active: state.table.active(),
            resident: self.placed - self.departed,
        };
        self.gap.on_membership(&event);
        self.observers
            .notify_membership(&event, self.metrics.as_ref().map(|m| &m.observer_errors));
    }

    /// Rebuilds the cached weight resolves after a membership or weight
    /// change: the active-restricted resolve (sampling + pricing) and the
    /// capacity-wide resolve (candidate comparisons, indexed by slot id).
    /// When the surviving weights are uniform **both** are `None`, putting
    /// the engine on the exact unweighted paths of a compacted fresh engine
    /// over the active bins.
    fn refresh_membership_weights(&mut self) {
        let Some(state) = &mut self.membership else {
            return;
        };
        let surviving: Vec<f64> = state
            .table
            .active()
            .iter()
            .map(|&bin| state.table.slot_weights()[bin as usize])
            .collect();
        state.active_resolved = BinWeights::explicit(surviving).resolve(state.table.active_count());
        self.resolved = if state.active_resolved.is_some() {
            // Non-uniform survivors imply a non-uniform slot vector, so the
            // capacity-wide resolve always exists here.
            BinWeights::explicit(state.table.slot_weights().to_vec())
                .resolve(state.table.capacity())
        } else {
            None
        };
    }

    /// Applies weights staged by [`StreamAllocator::set_weights`]. Called at
    /// batch starts — i.e. the boundary after which the new weights govern
    /// placements — and a no-op when nothing is staged.
    fn apply_pending_weights(&mut self) {
        let Some(weights) = self.pending_weights.take() else {
            return;
        };
        match &mut self.membership {
            Some(state) => {
                let capacity = state.table.capacity();
                let values = match weights.resolve(capacity) {
                    Some(resolved) => (0..capacity).map(|i| resolved.weight(i)).collect(),
                    None => vec![1.0; capacity],
                };
                state.table.set_slot_weights(&values);
                self.config.weights = weights;
                self.refresh_membership_weights();
            }
            None => {
                self.resolved = weights.resolve(self.config.bins);
                self.config.weights = weights;
            }
        }
        // Report the *current* loads (an O(n) snapshot — reweights are rare):
        // the stale snapshot omits departures since the last boundary, which
        // would make the event's loads and resident fields inconsistent.
        let loads = self.bins.snapshot();
        let event = ReweightEvent {
            batch_index: self.batches,
            loads: &loads,
            // Membership engines report the resolve that governs placement
            // and gap: the one restricted to the surviving bins.
            weights: match &self.membership {
                Some(state) => state.active_resolved.as_ref(),
                None => self.resolved.as_ref(),
            },
            resident: self.placed - self.departed,
        };
        self.gap.on_reweight(&event);
        self.observers
            .notify_reweight(&event, self.metrics.as_ref().map(|m| &m.observer_errors));
    }

    /// Closes the open routed batch (if any): advances the snapshot, records
    /// the gap (under the weights the batch ran with), fires `on_batch`, and
    /// then applies any staged weights — this *is* a batch boundary, so a
    /// `set_weights` staged mid-batch must not survive past it (mirroring the
    /// push path, where `drain_batch` applies staged weights at the start of
    /// the next batch). Returns `true` when a boundary was produced.
    fn close_open_batch(&mut self) -> bool {
        if self.open_batch == 0 {
            return false;
        }
        let batch_len = self.open_batch;
        self.open_batch = 0;
        self.batches += 1;
        self.advance_boundary(batch_len);
        self.apply_staged_changes();
        true
    }

    /// Allocates one batch against the stale snapshot — choose, commit (the
    /// shared stage of [`crate::commit`]) — then advances the snapshot to the
    /// new loads and records the gap.
    fn drain_batch(&mut self, batch: &[PendingBall]) {
        if batch.is_empty() {
            return;
        }
        // A batch starts here: this is the boundary where staged weights take
        // effect — unless a *routed* batch is still open. Its thresholds were
        // priced under the old weights, so applying mid-flight would let the
        // open batch's remaining placements run under new weights against old
        // thresholds; the staged change instead waits for the boundary that
        // closes it (`close_open_batch`).
        if self.open_batch == 0 {
            self.apply_staged_changes();
        }
        let threshold = self.batch_threshold(batch.len() as u64);
        let mut thresholds = std::mem::take(&mut self.capacity_scratch);
        self.fill_capacity_thresholds_into(batch.len() as u64, &mut thresholds);
        self.capacity_scratch = thresholds;

        let ctx = ChoiceCtx {
            snapshot: &self.stale,
            weights: self.resolved.as_ref(),
            batch_threshold: threshold,
            capacity_thresholds: &self.capacity_scratch,
            seed: self.config.seed,
            bins: self.capacity(),
            active: self.membership.as_ref().map(|s| s.table.active()),
            active_weights: self
                .membership
                .as_ref()
                .and_then(|s| s.active_resolved.as_ref()),
            counters: self.metrics.as_ref().map(|m| &m.policy),
        };
        commit::commit_batch(
            self.config.policy,
            &ctx,
            batch,
            |ball| ball.key,
            Execution {
                parallel: self.config.parallel,
                pool: self.pool.as_ref(),
            },
            &self.bins,
            &mut self.commit_scratch,
            self.metrics.as_ref().map(|m| &m.bin_commits),
        );
        if let Some(metrics) = &self.metrics {
            metrics.placed.add(batch.len() as u64);
        }

        self.placed += batch.len() as u64;
        self.batches += 1;

        self.advance_boundary(batch.len());
    }

    /// The batch boundary: advances the stale snapshot to the fresh loads and
    /// fires `on_batch` through the observer chain — the default
    /// [`GapTrajectoryObserver`] first (keeping the gap trajectory
    /// bit-identical to the pre-observer engine), then external sinks.
    fn advance_boundary(&mut self, batch_len: usize) {
        self.bins.snapshot_into(&mut self.stale);
        let mut scratch = std::mem::take(&mut self.gap_scratch);
        let gap = self.gap_of_loads(&self.stale, &mut scratch);
        self.gap_scratch = scratch;
        let event = BatchEvent {
            batch_index: self.batches,
            batch_len,
            loads: &self.stale,
            gap,
            resident: self.placed - self.departed,
        };
        if let Some(metrics) = &self.metrics {
            metrics.batches.inc();
            metrics.gap.set(gap);
            metrics.resident.set(event.resident as f64);
        }
        self.gap.on_batch(&event);
        self.observers
            .notify_batch(&event, self.metrics.as_ref().map(|m| &m.observer_errors));
    }

    /// Balls resident in **active** bins (the population thresholds re-price
    /// over): the full resident count for a fixed-membership engine, the
    /// active-bin loads only once bins drain — balls stranded on draining
    /// bins are leaving, and counting them would inflate the fair share of
    /// the survivors.
    fn active_resident(&self) -> u64 {
        match &self.membership {
            Some(state) => state
                .table
                .active()
                .iter()
                .map(|&bin| self.bins.load(bin as usize) as u64)
                .sum(),
            None => self.bins.total(),
        }
    }

    /// The batch threshold of the paper-style [`Policy::Threshold`] rule over
    /// the current resident population (see [`snapshot::batch_threshold`]) —
    /// the **active** population and bin count once membership is elastic.
    fn batch_threshold(&self, batch_len: u64) -> u32 {
        let bins = match &self.membership {
            Some(state) => state.table.active_count(),
            None => self.config.bins,
        };
        snapshot::batch_threshold(self.config.policy, self.priced_resident(), bins, batch_len)
    }

    /// The resident count thresholds are priced over ([`Self::active_resident`]);
    /// `0`, which nothing reads, for a policy that prices none — every batch
    /// of every other policy is spared the `O(n)` count.
    fn priced_resident(&self) -> u64 {
        if snapshot::uses_thresholds(self.config.policy) {
            self.active_resident()
        } else {
            0
        }
    }

    /// Per-bin capacity thresholds of [`Policy::CapacityThreshold`] over the
    /// current resident population (see
    /// [`snapshot::fill_capacity_thresholds_into`]). The drain path and the
    /// route path keep separate buffers, so an interleaved `drain_ready`
    /// cannot clobber an open routed batch's thresholds.
    fn fill_capacity_thresholds_into(&self, batch_len: u64, out: &mut Vec<u32>) {
        match &self.membership {
            Some(state) => snapshot::fill_active_capacity_thresholds_into(
                self.config.policy,
                state.active_resolved.as_ref(),
                state.table.active(),
                self.priced_resident(),
                self.capacity(),
                batch_len,
                out,
            ),
            None => snapshot::fill_capacity_thresholds_into(
                self.config.policy,
                self.resolved.as_ref(),
                self.priced_resident(),
                self.config.bins,
                batch_len,
                out,
            ),
        }
    }

    /// The gap of a load vector under this stream's weights: classic
    /// `max − mean` when uniform, weighted `max_i(load_i/w_i) − (Σ load)/W`
    /// otherwise. Membership engines measure the **active** bins only —
    /// draining and retired slots hold balls no placement decision can see.
    /// `scratch` is where a membership engine gathers those active loads.
    fn gap_of_loads(&self, loads: &[u32], scratch: &mut Vec<u32>) -> f64 {
        match &self.membership {
            Some(state) => snapshot::gap_of_active_loads(
                loads,
                state.table.active(),
                state.active_resolved.as_ref(),
                scratch,
            ),
            None => snapshot::gap_of_loads(loads, self.resolved.as_ref()),
        }
    }

    /// Fresh per-bin loads.
    pub fn loads(&self) -> Vec<u32> {
        self.bins.snapshot()
    }

    /// Fresh load of one bin (no allocation; see [`StreamAllocator::loads`]
    /// for the full vector).
    pub fn load(&self, bin: usize) -> u32 {
        self.bins.load(bin)
    }

    /// Balls currently resident (`placed − departed`).
    pub fn resident(&self) -> u64 {
        self.bins.total()
    }

    /// The resolved non-uniform weights, or `None` when the stream runs the
    /// uniform (unweighted) configuration.
    pub fn weights(&self) -> Option<&ResolvedWeights> {
        self.resolved.as_ref()
    }

    /// Total bin slots the engine is sized to: `bins + reserve_bins`. Every
    /// per-bin array (loads, stale snapshot, ledger, thresholds) has this
    /// length for the engine's whole lifetime; elasticity never reallocates.
    pub fn capacity(&self) -> usize {
        self.config.bins + self.config.reserve_bins
    }

    /// The membership lifecycle table, once this engine is membership-aware
    /// (`None` for a fixed-membership engine that never staged a plan and
    /// reserves no slots).
    pub fn membership(&self) -> Option<&Membership> {
        self.membership.as_ref().map(|state| &state.table)
    }

    /// Force-migrates every **ticketed** resident off the draining bins,
    /// re-routing each through the live policy against the current stale
    /// snapshot (keyed by its ball id — the original routing key is not
    /// retained) with thresholds priced for the migration volume. Old ticket
    /// handles stay redeemable: the ledger follows the ball to its new bin.
    /// Anonymous `push`-placed balls hold no handle and stay put (they keep
    /// blocking a `Remove` until the bin empties otherwise). Loads move
    /// (place + depart per ball) but `placed`/`departed` totals do not — a
    /// migration is a move, not an arrival — so conservation is untouched.
    /// Returns the number of migrations, also counted under
    /// `membership.migrations`.
    pub fn migrate_drained(&mut self) -> u64 {
        let Some(state) = &self.membership else {
            return 0;
        };
        let draining = state.table.draining();
        if draining.is_empty() {
            return 0;
        }
        let volume: u64 = draining
            .iter()
            .map(|&bin| self.tickets.count_in(bin as usize) as u64)
            .sum();
        if volume == 0 {
            return 0;
        }
        let threshold = self.batch_threshold(volume);
        let mut thresholds = std::mem::take(&mut self.capacity_scratch);
        self.fill_capacity_thresholds_into(volume, &mut thresholds);
        let state = self.membership.as_ref().expect("membership checked above");
        let ctx = ChoiceCtx {
            snapshot: &self.stale,
            weights: self.resolved.as_ref(),
            batch_threshold: threshold,
            capacity_thresholds: &thresholds,
            seed: self.config.seed,
            bins: self.capacity(),
            active: Some(state.table.active()),
            active_weights: state.active_resolved.as_ref(),
            counters: self.metrics.as_ref().map(|m| &m.policy),
        };
        let chooser = Chooser::new(self.config.policy, &ctx);
        let mut migrated = 0u64;
        for bin in draining {
            while let Some(ticket) = self.tickets.resident_in(bin as usize) {
                let target = chooser.choose_one(ticket.id());
                self.bins.place(target as usize);
                assert!(
                    self.bins.depart(bin as usize),
                    "draining bin with a resident ticket must hold load"
                );
                let moved = self
                    .tickets
                    .migrate(ticket.id(), bin as usize, target as usize);
                debug_assert!(moved, "a ledger-resident ticket must migrate");
                migrated += 1;
                if let Some(metrics) = &self.metrics {
                    metrics.membership.migrations.inc();
                    metrics.bin_commits.inc(target as usize);
                }
            }
        }
        self.capacity_scratch = thresholds;
        migrated
    }

    /// Fresh normalized loads `load_i / w_i` (the raw loads as `f64` for a
    /// uniform stream).
    pub fn normalized_loads(&self) -> Vec<f64> {
        let loads = self.bins.snapshot();
        match &self.resolved {
            None => loads.iter().map(|&l| l as f64).collect(),
            Some(weights) => normalized_loads(&loads, weights),
        }
    }

    /// Largest fresh normalized load `max_i(load_i / w_i)` — the quantity the
    /// weighted policies minimise (raw max load when uniform).
    pub fn max_normalized_load(&self) -> f64 {
        self.normalized_loads().into_iter().fold(0.0f64, f64::max)
    }

    /// Balls buffered but not yet drained.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The gap after recent drained batches, in order (the most recent
    /// [`StreamConfig::trajectory_cap`] entries at least; use
    /// [`StreamAllocator::gap_stats`] for full-history aggregates). Served by
    /// the default [`GapTrajectoryObserver`].
    pub fn gap_trajectory(&self) -> &[f64] {
        self.gap.trajectory()
    }

    /// Streaming statistics over the per-batch gaps.
    pub fn gap_stats(&self) -> &OnlineStats {
        self.gap.stats()
    }

    /// Resident tickets (balls placed via [`StreamAllocator::route`] and not
    /// yet released). Anonymous `push`-placed balls are not counted.
    pub fn resident_tickets(&self) -> usize {
        self.tickets.len()
    }

    /// Resident tickets in `bin`.
    pub fn tickets_in(&self, bin: usize) -> usize {
        self.tickets.count_in(bin)
    }

    /// A resident ticket of `bin` — the handle churn drivers pass to
    /// [`StreamAllocator::release`] after choosing a bin to retire from.
    /// Deterministic given the routing/release history, but not necessarily
    /// the most recently routed ball (releases reorder the occupancy list;
    /// see [`TicketLedger::resident_in`]).
    pub fn ticket_in(&self, bin: usize) -> Option<Ticket> {
        self.tickets.resident_in(bin)
    }

    /// Per-shard bookkeeping.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.bins.all_shard_stats()
    }

    /// Summary metrics of the current (fresh) load vector.
    pub fn load_metrics(&self) -> LoadMetrics {
        LoadMetrics::from_loads(&self.bins.snapshot())
    }

    /// A full point-in-time snapshot.
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot::assemble(
            self.bins.snapshot(),
            self.stale.clone(),
            self.arrived,
            self.placed,
            self.departed,
            self.pending.len() as u64,
            self.batches,
            self.resolved.as_ref(),
            self.membership.as_ref().map(|s| s.table.active()),
            self.membership
                .as_ref()
                .and_then(|s| s.active_resolved.as_ref()),
        )
    }

    /// The conservation invariant every streaming run must satisfy:
    /// `placed − departed == Σ loads` and `arrived == placed + pending`.
    pub fn conserves_balls(&self) -> bool {
        self.placed - self.departed == self.bins.total()
            && self.arrived == self.placed + self.pending.len() as u64
    }
}

impl Router for StreamAllocator {
    fn route(&mut self, key: u64) -> Result<Placement, RouteError> {
        StreamAllocator::route(self, key)
    }

    fn route_many(&mut self, keys: &[u64]) -> Result<Vec<Placement>, RouteError> {
        StreamAllocator::route_many(self, keys)
    }

    fn release(&mut self, ticket: Ticket) -> Result<(), RouteError> {
        StreamAllocator::release(self, ticket)
    }

    fn release_many(&mut self, tickets: &[Ticket]) -> Result<(), RouteError> {
        StreamAllocator::release_many(self, tickets)
    }

    fn loads(&self) -> Vec<u32> {
        StreamAllocator::loads(self)
    }

    fn stats(&self) -> RouterStats {
        let loads = self.bins.snapshot();
        RouterStats {
            routed: self.routed,
            released: self.released,
            resident: self.bins.total(),
            bins: match &self.membership {
                Some(state) => state.table.active_count(),
                None => self.config.bins,
            },
            batches: self.batches,
            gap: self.gap_of_loads(&loads, &mut Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_model::rng::SplitMix64;

    fn push_uniform(stream: &mut StreamAllocator, count: u64, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..count {
            stream.push(rng.next_u64());
        }
    }

    #[test]
    fn push_buffers_until_batch_is_full() {
        let mut s = StreamAllocator::new(StreamConfig::new(8).batch_size(4));
        for k in 0..3 {
            s.push(k);
        }
        assert_eq!(s.drain_ready(), 0, "no full batch yet");
        assert_eq!(s.pending(), 3);
        assert_eq!(s.resident(), 0);
        s.push(3);
        assert_eq!(s.drain_ready(), 1);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.resident(), 4);
        assert!(s.conserves_balls());
    }

    #[test]
    fn flush_drains_partial_batches() {
        let mut s = StreamAllocator::new(StreamConfig::new(8).batch_size(100));
        push_uniform(&mut s, 42, 1);
        assert_eq!(s.drain_ready(), 0);
        assert_eq!(s.flush(), 1);
        assert_eq!(s.resident(), 42);
        assert_eq!(s.pending(), 0);
        assert!(s.conserves_balls());
    }

    #[test]
    fn sequential_and_parallel_drains_are_identical() {
        for policy in [
            Policy::OneChoice,
            Policy::TwoChoice,
            Policy::DChoice(3),
            Policy::Threshold { d: 2, slack: 1 },
        ] {
            let cfg = StreamConfig::new(64)
                .policy(policy)
                .batch_size(128)
                .seed(99);
            let mut par = StreamAllocator::new(cfg.clone().shards(8));
            let mut seq = StreamAllocator::new(cfg.sequential());
            push_uniform(&mut par, 10_000, 5);
            push_uniform(&mut seq, 10_000, 5);
            par.flush();
            seq.flush();
            assert_eq!(par.loads(), seq.loads(), "policy {}", policy.name());
            assert_eq!(par.gap_trajectory(), seq.gap_trajectory());
        }
    }

    #[test]
    fn parallel_paths_engage_for_large_batches_and_match_sequential() {
        // The small-batch equivalence test above is chosen inline whatever
        // the flag says; this one is not: a batch of three spans is cut up
        // and handed to the 4-thread pool, and the trailing partial batch
        // (half a span) is chosen inline again.
        const BATCH: usize = 3 * commit::PARALLEL_MIN_SPAN;
        const BALLS: u64 = (BATCH + commit::PARALLEL_MIN_SPAN / 2) as u64;
        let cfg = StreamConfig::new(64)
            .policy(Policy::TwoChoice)
            .batch_size(BATCH)
            .shards(8)
            .seed(17);
        let mut par = StreamAllocator::new(cfg.clone());
        let mut seq = StreamAllocator::new(cfg.sequential());
        push_uniform(&mut par, BALLS, 3);
        push_uniform(&mut seq, BALLS, 3);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        pool.install(|| par.flush());
        seq.flush();
        assert_eq!(par.loads(), seq.loads());
        assert_eq!(par.gap_trajectory(), seq.gap_trajectory());
        assert_eq!(par.shard_stats(), seq.shard_stats());
        assert!(par.conserves_balls() && seq.conserves_balls());
    }

    #[test]
    fn num_threads_knob_is_load_and_trajectory_invariant() {
        // A dedicated drain pool of any size must reproduce the ambient-pool
        // run exactly: parallelism partitions index ranges, it never reorders
        // RNG consumption. A batch of two spans is the shortest the pool sees.
        const BATCH: usize = 2 * commit::PARALLEL_MIN_SPAN;
        const BALLS: u64 = BATCH as u64 + 4_000;
        let base = StreamConfig::new(64)
            .policy(Policy::TwoChoice)
            .batch_size(BATCH)
            .shards(8)
            .seed(41);
        let mut ambient = StreamAllocator::new(base.clone());
        push_uniform(&mut ambient, BALLS, 9);
        ambient.flush();
        for threads in [1usize, 2, 4] {
            let mut dedicated = StreamAllocator::new(base.clone().num_threads(threads));
            assert_eq!(dedicated.config().num_threads, threads);
            push_uniform(&mut dedicated, BALLS, 9);
            dedicated.flush();
            assert_eq!(dedicated.loads(), ambient.loads(), "threads = {threads}");
            assert_eq!(dedicated.gap_trajectory(), ambient.gap_trajectory());
            assert_eq!(dedicated.shard_stats(), ambient.shard_stats());
        }
    }

    #[test]
    fn two_choice_beats_one_choice_on_the_same_stream() {
        let m = 200_000u64;
        let base = StreamConfig::new(256).batch_size(256).seed(7);
        let mut one = StreamAllocator::new(base.clone().policy(Policy::OneChoice));
        let mut two = StreamAllocator::new(base.policy(Policy::TwoChoice));
        push_uniform(&mut one, m, 11);
        push_uniform(&mut two, m, 11);
        one.flush();
        two.flush();
        let g1 = *one.gap_trajectory().last().unwrap();
        let g2 = *two.gap_trajectory().last().unwrap();
        assert!(
            g2 < g1 / 2.0,
            "two-choice gap {g2} should be far below one-choice gap {g1}"
        );
    }

    #[test]
    fn ticketed_departures_keep_conservation_and_reduce_load() {
        // Departures go through route()/release(Ticket) — the raw-bin
        // depart() shim is gone. Mixed traffic: anonymous pushed balls plus
        // ticketed routed balls; releases retire only the ticketed ones.
        let mut s = StreamAllocator::new(StreamConfig::new(16).batch_size(16).seed(3));
        push_uniform(&mut s, 160, 2);
        s.drain_ready();
        assert_eq!(s.resident(), 160);
        let placement = s.route(0xfeed).unwrap();
        assert_eq!(s.resident(), 161);
        let load_before = s.load(placement.bin);
        s.release(placement.ticket).unwrap();
        assert_eq!(s.resident(), 160);
        assert_eq!(s.load(placement.bin), load_before - 1);
        assert!(s.conserves_balls());
        // A ticket can only be released once; anonymous balls stay resident.
        assert!(s.release(placement.ticket).is_err());
        assert_eq!(s.resident(), 160);
        assert_eq!(s.resident_tickets(), 0);
    }

    #[test]
    fn gap_trajectory_grows_one_entry_per_batch() {
        let mut s = StreamAllocator::new(StreamConfig::new(32).batch_size(64).seed(1));
        push_uniform(&mut s, 640, 8);
        assert_eq!(s.drain_ready(), 10);
        assert_eq!(s.gap_trajectory().len(), 10);
        assert_eq!(s.gap_stats().count(), 10);
        assert_eq!(s.snapshot().batches, 10);
    }

    #[test]
    fn gap_trajectory_is_capped_for_long_streams() {
        let mut cfg = StreamConfig::new(8).batch_size(1).seed(1);
        cfg.trajectory_cap = 10;
        let mut s = StreamAllocator::new(cfg);
        for k in 0..100u64 {
            s.push(k);
            s.drain_ready();
        }
        // Bounded retention (≤ 2×cap) but full-history aggregates.
        assert!(
            s.gap_trajectory().len() <= 20,
            "{}",
            s.gap_trajectory().len()
        );
        assert!(s.gap_trajectory().len() >= 10);
        assert_eq!(s.gap_stats().count(), 100);
        assert_eq!(s.snapshot().batches, 100);
    }

    #[test]
    fn snapshot_reports_consistent_counters() {
        let mut s = StreamAllocator::new(StreamConfig::new(16).batch_size(10).seed(2));
        push_uniform(&mut s, 25, 4);
        s.drain_ready();
        let snap = s.snapshot();
        assert_eq!(snap.arrived, 25);
        assert_eq!(snap.placed, 20);
        assert_eq!(snap.pending, 5);
        assert_eq!(snap.departed, 0);
        assert_eq!(snap.loads.iter().map(|&l| l as u64).sum::<u64>(), 20);
        assert_eq!(
            snap.stale_loads, snap.loads,
            "at a batch boundary they agree"
        );
        assert!(snap.load_quantiles[3] >= snap.load_quantiles[0]);
        assert!(snap.gap >= 0.0);
    }

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let run = || {
            let mut s =
                StreamAllocator::new(StreamConfig::new(64).batch_size(50).seed(77).shards(8));
            push_uniform(&mut s, 5_000, 6);
            s.flush();
            s.loads()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn repeated_hot_key_lands_on_its_candidate_set() {
        // A single hot key must only ever hit its ≤2 candidate bins: the
        // consistent-hashing behaviour a keyed router relies on.
        let mut s = StreamAllocator::new(StreamConfig::new(64).batch_size(32).seed(5));
        for _ in 0..640 {
            s.push(0xfeed);
        }
        s.flush();
        let nonzero = s.loads().iter().filter(|&&l| l > 0).count();
        assert!(nonzero <= 2, "hot key spread over {nonzero} bins");
        assert_eq!(s.resident(), 640);
    }

    #[test]
    fn uniform_weights_are_a_strict_noop() {
        // An explicit constant weight vector (any constant) must produce the
        // exact loads and gap trajectory of the default unweighted engine,
        // for every policy — including the weight-aware ones.
        use pba_model::weights::BinWeights;
        for policy in [
            Policy::OneChoice,
            Policy::TwoChoice,
            Policy::DChoice(3),
            Policy::Threshold { d: 2, slack: 1 },
            Policy::WeightedTwoChoice,
            Policy::CapacityThreshold { d: 2, slack: 1 },
        ] {
            let base = StreamConfig::new(64).policy(policy).batch_size(96).seed(3);
            let mut plain = StreamAllocator::new(base.clone());
            let mut weighted =
                StreamAllocator::new(base.weights(BinWeights::explicit(vec![2.5; 64])));
            push_uniform(&mut plain, 6_000, 9);
            push_uniform(&mut weighted, 6_000, 9);
            plain.flush();
            weighted.flush();
            assert_eq!(plain.loads(), weighted.loads(), "policy {}", policy.name());
            assert_eq!(plain.gap_trajectory(), weighted.gap_trajectory());
            assert!(weighted.weights().is_none(), "uniform must resolve to None");
        }
    }

    #[test]
    fn weighted_two_choice_under_uniform_weights_equals_two_choice() {
        let base = StreamConfig::new(128).batch_size(128).seed(11);
        let mut two = StreamAllocator::new(base.clone().policy(Policy::TwoChoice));
        let mut weighted = StreamAllocator::new(base.policy(Policy::WeightedTwoChoice));
        push_uniform(&mut two, 20_000, 4);
        push_uniform(&mut weighted, 20_000, 4);
        two.flush();
        weighted.flush();
        assert_eq!(two.loads(), weighted.loads());
        assert_eq!(two.gap_trajectory(), weighted.gap_trajectory());
    }

    #[test]
    fn weighted_sequential_and_parallel_drains_are_identical() {
        use pba_model::weights::BinWeights;
        let weights = BinWeights::power_of_two_tiers(&[(8, 2), (16, 1), (40, 0)]);
        for policy in [
            Policy::WeightedTwoChoice,
            Policy::CapacityThreshold { d: 2, slack: 2 },
        ] {
            let cfg = StreamConfig::new(64)
                .policy(policy)
                .batch_size(128)
                .seed(23)
                .weights(weights.clone());
            let mut par = StreamAllocator::new(cfg.clone().shards(8));
            let mut seq = StreamAllocator::new(cfg.sequential());
            push_uniform(&mut par, 10_000, 6);
            push_uniform(&mut seq, 10_000, 6);
            par.flush();
            seq.flush();
            assert_eq!(par.loads(), seq.loads(), "policy {}", policy.name());
            assert_eq!(par.gap_trajectory(), seq.gap_trajectory());
            assert!(par.conserves_balls());
        }
    }

    #[test]
    fn weighted_two_choice_beats_oblivious_two_choice_on_tiers() {
        use pba_model::weights::BinWeights;
        // 4:2:1 capacity tiers. The weight-oblivious policy equalises raw
        // loads, overloading the weight-1 tier relative to its capacity; the
        // weighted policy balances load/weight and must achieve a lower max
        // normalized load.
        let n = 112usize;
        let weights = BinWeights::power_of_two_tiers(&[(16, 2), (32, 1), (64, 0)]);
        let base = StreamConfig::new(n).batch_size(n).seed(7).weights(weights);
        let mut oblivious = StreamAllocator::new(base.clone().policy(Policy::TwoChoice));
        let mut weighted = StreamAllocator::new(base.policy(Policy::WeightedTwoChoice));
        push_uniform(&mut oblivious, 64 * n as u64, 13);
        push_uniform(&mut weighted, 64 * n as u64, 13);
        oblivious.flush();
        weighted.flush();
        let o = oblivious.max_normalized_load();
        let w = weighted.max_normalized_load();
        assert!(
            w < 0.8 * o,
            "weighted max normalized load {w:.1} should be well below oblivious {o:.1}"
        );
        assert!(weighted.conserves_balls());
    }

    #[test]
    fn capacity_threshold_tracks_capacity_shares() {
        use pba_model::weights::BinWeights;
        let n = 48usize;
        let weights = BinWeights::power_of_two_tiers(&[(8, 2), (40, 0)]);
        let mut s = StreamAllocator::new(
            StreamConfig::new(n)
                .policy(Policy::CapacityThreshold { d: 2, slack: 3 })
                .batch_size(n)
                .seed(19)
                .weights(weights),
        );
        push_uniform(&mut s, 72 * n as u64, 29);
        s.flush();
        // Total weight W = 8·4 + 40·1 = 72, so the fair normalized level is
        // (72·n)/W = n = 48 balls per unit weight; stale info plus slack can
        // overshoot by a bounded amount only.
        let max_norm = s.max_normalized_load();
        assert!(
            max_norm < 48.0 + 16.0,
            "capacity threshold let a bin run to {max_norm:.1} per unit weight"
        );
        assert!(s.conserves_balls());
    }

    #[test]
    #[should_panic(expected = "weights describe")]
    fn mismatched_weight_count_panics() {
        use pba_model::weights::BinWeights;
        StreamAllocator::new(StreamConfig::new(8).weights(BinWeights::explicit(vec![1.0, 2.0])));
    }

    #[test]
    fn route_matches_push_drain_bit_identically() {
        // The route path advances the snapshot every batch_size placements,
        // so for the same keys (m divisible by the batch) it must reproduce
        // the push+drain engine exactly: loads, gap trajectory, shard stats
        // and batch count — for every policy, weighted ones included.
        use pba_model::weights::BinWeights;
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
            let mut routed = StreamAllocator::new(cfg.clone());
            let mut pushed = StreamAllocator::new(cfg);
            let mut keys = SplitMix64::new(12);
            for _ in 0..(128 * 40) {
                let key = keys.next_u64();
                routed.route(key).unwrap();
                pushed.push(key);
            }
            pushed.drain_ready();
            assert_eq!(routed.loads(), pushed.loads(), "policy {}", policy.name());
            assert_eq!(routed.gap_trajectory(), pushed.gap_trajectory());
            assert_eq!(routed.shard_stats(), pushed.shard_stats());
            assert_eq!(routed.snapshot().batches, pushed.snapshot().batches);
            assert!(routed.conserves_balls());
            assert_eq!(routed.resident_tickets(), 128 * 40);
            assert_eq!(pushed.resident_tickets(), 0, "pushed balls are anonymous");
        }
    }

    #[test]
    fn route_tickets_release_and_validate() {
        let mut s = StreamAllocator::new(StreamConfig::new(16).batch_size(8).seed(5));
        let mut tickets = Vec::new();
        for key in 0..64u64 {
            let placement = s.route(key).unwrap();
            assert_eq!(placement.bin, placement.ticket.bin());
            tickets.push(placement.ticket);
        }
        assert_eq!(s.resident(), 64);
        assert_eq!(s.resident_tickets(), 64);
        let stats = Router::stats(&s);
        assert_eq!(stats.routed, 64);
        assert_eq!(stats.batches, 8);
        // Release everything: loads return to zero, conservation holds.
        for t in tickets.drain(..) {
            s.release(t).unwrap();
            assert!(s.conserves_balls());
        }
        assert_eq!(s.resident(), 0);
        assert_eq!(s.loads(), vec![0; 16]);
        assert_eq!(Router::stats(&s).released, 64);
        // Double release and forged tickets are rejected.
        let dead = s.route(1).unwrap().ticket;
        s.release(dead).unwrap();
        assert_eq!(
            s.release(dead),
            Err(RouteError::UnknownTicket { ticket: dead })
        );
        let forged = Ticket::new(9999, 0);
        assert!(matches!(
            s.release(forged),
            Err(RouteError::UnknownTicket { .. })
        ));
    }

    #[test]
    fn flush_closes_a_partial_routed_batch() {
        let mut s = StreamAllocator::new(StreamConfig::new(8).batch_size(10).seed(2));
        for key in 0..5u64 {
            s.route(key).unwrap();
        }
        assert_eq!(s.snapshot().batches, 0, "open batch not yet closed");
        assert_eq!(s.flush(), 1);
        assert_eq!(s.snapshot().batches, 1);
        assert_eq!(s.gap_trajectory().len(), 1);
        assert_eq!(s.resident(), 5);
        assert!(s.conserves_balls());
        assert_eq!(s.flush(), 0, "nothing left to close");
    }

    #[test]
    fn set_weights_applies_at_the_next_batch_boundary() {
        use crate::observer::ReweightLog;
        use pba_model::weights::BinWeights;
        let n = 16usize;
        let mut s = StreamAllocator::new(StreamConfig::new(n).batch_size(n).seed(4));
        let log = Arc::new(Mutex::new(ReweightLog::new()));
        s.add_observer(log.clone());
        push_uniform(&mut s, 3 * n as u64, 1);
        s.drain_ready();
        assert!(s.weights().is_none());
        // Stage tiers mid-stream: nothing changes until the next batch.
        s.set_weights(BinWeights::power_of_two_tiers(&[(4, 1), (12, 0)]));
        assert!(s.weights().is_none(), "staged, not yet applied");
        assert!(log.lock().unwrap().records().is_empty());
        push_uniform(&mut s, n as u64, 2);
        s.drain_ready();
        assert!(s.weights().is_some(), "applied at the boundary");
        let records = log.lock().unwrap().records().to_vec();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].batch_index, 3, "after the 3 pre-switch batches");
        assert_eq!(records[0].resident, 3 * n as u64);
        assert!(!records[0].uniform);
        assert!(s.conserves_balls());
        // Re-weighting back to a constant vector returns to the strict
        // unweighted path.
        s.set_weights(BinWeights::explicit(vec![7.0; n]));
        push_uniform(&mut s, n as u64, 3);
        s.drain_ready();
        assert!(s.weights().is_none());
        assert!(log.lock().unwrap().records().last().unwrap().uniform);
    }

    #[test]
    fn set_weights_staged_mid_routed_batch_applies_when_it_closes() {
        use crate::observer::ReweightLog;
        use pba_model::weights::BinWeights;
        let n = 16usize;
        let mut s = StreamAllocator::new(StreamConfig::new(n).batch_size(10).seed(6));
        let log = Arc::new(Mutex::new(ReweightLog::new()));
        s.add_observer(log.clone());
        for key in 0..5u64 {
            s.route(key).unwrap();
        }
        // Staged mid-open-batch: nothing applies while the batch is in flight…
        s.set_weights(BinWeights::power_of_two_tiers(&[(4, 1), (12, 0)]));
        assert!(s.weights().is_none());
        assert!(log.lock().unwrap().records().is_empty());
        // …but closing the batch IS a boundary, so the staged weights must
        // not survive past it (the closing batch's gap is still recorded
        // under the old weights — it ran under them).
        s.flush();
        assert!(s.weights().is_some(), "applied at the flush boundary");
        let records = log.lock().unwrap().records().to_vec();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].batch_index, 1);
        assert_eq!(s.gap_trajectory().len(), 1);
        assert!(s.conserves_balls());
    }

    #[test]
    fn set_weights_staged_mid_routed_batch_survives_interleaved_push_drains() {
        // A push-mode drain is NOT the boundary that may apply staged weights
        // while a routed batch is open: the open batch's thresholds were
        // priced under the old weights, so the change must wait for the
        // boundary that closes it.
        use pba_model::weights::BinWeights;
        let n = 16usize;
        let mut s = StreamAllocator::new(StreamConfig::new(n).batch_size(10).seed(8));
        for key in 0..5u64 {
            s.route(key).unwrap();
        }
        s.set_weights(BinWeights::power_of_two_tiers(&[(4, 1), (12, 0)]));
        // Interleaved push traffic drains a full batch while the routed batch
        // is still open — the staged weights must not apply here.
        push_uniform(&mut s, 10, 3);
        s.drain_ready();
        assert!(
            s.weights().is_none(),
            "staged weights applied mid-open routed batch"
        );
        // Closing the routed batch is a boundary: now they apply.
        for key in 5..10u64 {
            s.route(key).unwrap();
        }
        assert!(
            s.weights().is_some(),
            "applied once the routed batch closed"
        );
        assert!(s.conserves_balls());
    }

    #[test]
    fn observers_see_every_batch_and_release() {
        use pba_model::router::{BatchEvent, ReleaseEvent, RouterObserver};
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
        let counter = Arc::new(Mutex::new(Counter::default()));
        let mut s = StreamAllocator::new(StreamConfig::new(8).batch_size(4).seed(9));
        s.add_observer(counter.clone());
        let mut tickets = Vec::new();
        for key in 0..20u64 {
            tickets.push(s.route(key).unwrap().ticket);
        }
        s.release(tickets[0]).unwrap();
        s.release(tickets[1]).unwrap();
        let seen = counter.lock().unwrap();
        assert_eq!(seen.batches, 5);
        assert_eq!(seen.balls, 20);
        assert_eq!(seen.releases, 2);
    }

    #[test]
    fn with_resident_loads_matches_an_organically_grown_engine() {
        // Grow an engine to a boundary, then clone its loads into a fresh
        // engine via with_resident_loads: both must drain an identical suffix
        // (same loads, same per-batch gaps, same shard stats).
        let cfg = StreamConfig::new(32).batch_size(64).seed(8);
        let mut grown = StreamAllocator::new(cfg.clone());
        push_uniform(&mut grown, 640, 4);
        grown.drain_ready();
        let mut seeded = StreamAllocator::with_resident_loads(cfg, &grown.loads());
        assert_eq!(seeded.loads(), grown.loads());
        assert_eq!(seeded.resident(), grown.resident());
        assert_eq!(seeded.shard_stats(), grown.shard_stats());
        assert!(seeded.conserves_balls());
        let before = grown.gap_trajectory().len();
        push_uniform(&mut grown, 320, 5);
        push_uniform(&mut seeded, 320, 5);
        grown.drain_ready();
        seeded.drain_ready();
        assert_eq!(seeded.loads(), grown.loads());
        assert_eq!(seeded.gap_trajectory(), &grown.gap_trajectory()[before..]);
    }

    #[test]
    fn threshold_policy_respects_threshold_when_feasible() {
        // With generous slack the threshold rule behaves like "first fit
        // below T", so no bin exceeds mean + slack + batch contention bound.
        let mut s = StreamAllocator::new(
            StreamConfig::new(64)
                .policy(Policy::Threshold { d: 2, slack: 4 })
                .batch_size(64)
                .seed(13),
        );
        push_uniform(&mut s, 64 * 100, 21);
        s.flush();
        let metrics = s.load_metrics();
        assert_eq!(metrics.total_balls, 6400);
        // Stale info within a batch can overshoot by the batch's worth of
        // collisions on one bin, but not by orders of magnitude.
        assert!(
            metrics.excess_over_ceil_avg <= 16,
            "threshold excess {}",
            metrics.excess_over_ceil_avg
        );
    }
}
