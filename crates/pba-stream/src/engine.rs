//! The incremental streaming allocator: the engine core with a **sole
//! owner**.
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
//! There is one implementation of that engine, the core in
//! [`crate::concurrent`] (pipeline, gap tracking, elastic membership and
//! reweighting are described there), and this type is one of its two
//! ownership shells — the other is the shared [`crate::ConcurrentRouter`] handle.
//! A sole owner adds only what `&mut self` lets it do better: the
//! single-writer state — boundary book, membership side, drain side — sits
//! in plain fields and is lent to the core by reborrow, so no call locks
//! anything; [`StreamAllocator::push`] is two plain increments and a `Vec`
//! push, with no inbox to lock; and the accessors hand out references
//! ([`StreamAllocator::gap_trajectory`], [`StreamAllocator::gap_stats`],
//! [`StreamAllocator::membership`]) where the handle has to copy out from
//! under a lock. Everything else on this page is a one-line delegation.
//!
//! ## The router surface
//!
//! Besides the batch API (`push` / `drain_ready` / `flush`), the engine
//! implements [`Router`]: [`StreamAllocator::route`] places one ball
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
//! Runtime reweighting ([`StreamAllocator::set_weights`]) and elastic
//! membership ([`StreamAllocator::stage_membership`], the `pba-membership`
//! lifecycle) take effect at the next batch boundary. The engine's arrays
//! are sized once, to `bins + reserve_bins` **capacity slots**, so scaling
//! out never reallocates; while every slot is active policies sample
//! `[0, n)` directly, and staging an identity (empty) plan is a strict no-op
//! — bit-identical loads, RNG streams and gap trajectories, at the same
//! cost.

use std::sync::{Arc, Mutex};

use pba_membership::{Membership, MembershipPlan};
use pba_model::router::{Placement, RouteError, Router, RouterObserver, RouterStats, Ticket};
use pba_model::weights::{BinWeights, ResolvedWeights};
use pba_stats::OnlineStats;

// Re-exported here because the snapshot type was historically defined in this
// module; `pba_stream::engine::StreamSnapshot` keeps resolving.
pub use crate::snapshot::StreamSnapshot;

use crate::concurrent::{BoundaryBook, Core, DrainSide, Lend, MembershipSide, Writer};
use crate::ingress::PendingBall;
use crate::policy::Policy;
use crate::shard::ShardStats;

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
    /// Whether `drain` may cut a long batch's choose step into spans for
    /// scoped threads (`true`) or always runs on the calling thread
    /// (`false`). Both produce identical loads, and batches below 64 Ki
    /// balls run on the calling thread either way (below that a thread spawn
    /// costs more than the choosing it hands off).
    pub parallel: bool,
    /// Most recent per-batch gap entries retained in the trajectory. A
    /// long-running stream drains batches forever, so the trajectory must not
    /// grow with uptime; [`OnlineStats`] keeps the full-history summary
    /// regardless. Default `65536`.
    pub trajectory_cap: usize,
    /// Thread count of the parallel drain. `0` (the default) uses the
    /// ambient count — whatever `ThreadPool::install` scope the caller runs
    /// drains under, else `PBA_THREADS`, else the core count. A positive
    /// value gives this engine its **own** thread count, so engine
    /// parallelism is configured here instead of ambiently. Results are
    /// bit-identical for every thread count (parallelism only partitions
    /// index ranges; it never reorders RNG consumption).
    ///
    /// Caveat: when the drain itself runs *inside* a chunk of another
    /// parallel operation (e.g. engines driven from a `par_chunks_mut`),
    /// nested parallel operations run inline — the drain then runs
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
    /// `bins` start active and the rest wait for an `Add`. With `0` (the
    /// default) scale-out is limited to slots freed by removes.
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

    /// Sets the parallel drain's thread count (builder style); `0` keeps the
    /// ambient count. See [`StreamConfig::num_threads`].
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

/// Online, sharded, batched streaming allocator — the single-owner shell of
/// the engine core (see the [module docs](self)). Where a method's behaviour
/// is the core's own, its full description is on the shared handle's method
/// of the same name ([`crate::ConcurrentRouter`]).
#[derive(Debug)]
pub struct StreamAllocator {
    core: Core,
    /// Batch count and gap trajectory, written at boundaries.
    book: BoundaryBook,
    /// Lifecycle table and staged membership / weight changes.
    side: MembershipSide,
    /// The push buffer (arrival order is call order) and the drain's scratch.
    drain: DrainSide,
}

impl StreamAllocator {
    /// Creates an empty stream over `config.bins` bins.
    pub fn new(config: StreamConfig) -> Self {
        let (core, book, side) = Core::new(config);
        Self {
            core,
            book,
            side,
            drain: DrainSide::default(),
        }
    }

    /// Creates a stream whose bins already hold `loads` **anonymous** resident
    /// balls (no tickets), with the stale snapshot advanced to match — i.e.
    /// the state an engine reaches at a batch boundary with those loads,
    /// except that no boundary is counted (epoch and batch count start at 0).
    /// This is the reference constructor of the reweighting equivalence
    /// property: after [`StreamAllocator::set_weights`] takes effect, the
    /// suffix of drains is bit-identical to a fresh engine built here with
    /// the new weights and the loads at the reweighting boundary.
    pub fn with_resident_loads(config: StreamConfig, loads: &[u32]) -> Self {
        let mut stream = Self::new(config);
        stream.core.seed_resident_loads(loads);
        stream
    }

    /// Installs a metrics registry: resolves every handle the engine records
    /// into (see [`crate::StreamMetrics`]) so the hot path pays one relaxed atomic
    /// per event and zero registry locks. Metrics are write-only — placements
    /// and RNG streams are bit-identical with and without a registry — and
    /// installing one mid-stream changes nothing but where later events are
    /// counted.
    pub fn install_metrics(&mut self, registry: Arc<pba_obs::MetricsRegistry>) {
        self.core.install_metrics(registry);
    }

    /// The configuration this stream was built with. `config().weights`
    /// stays the construction-time value; [`StreamAllocator::weights`]
    /// follows runtime reweighting.
    pub fn config(&self) -> &StreamConfig {
        self.core.config()
    }

    /// Lends the core this owner's boundary book and membership side.
    fn lent(&mut self) -> (&Core, Writer<'_>, &mut DrainSide) {
        let writer = Writer {
            boundary: Lend::Owned(&mut self.book),
            membership: Lend::Owned(&mut self.side),
        };
        (&self.core, writer, &mut self.drain)
    }

    /// Buffers one arriving ball with router key `key`; returns its ball id —
    /// the next of the one arrival sequence `push` and `route` share.
    /// Nothing is allocated until [`StreamAllocator::drain_ready`] (or
    /// [`StreamAllocator::flush`]) runs.
    pub fn push(&mut self, key: u64) -> u64 {
        let id = self.core.stamp_owned();
        self.drain.buffer.push(PendingBall { id, key });
        id
    }

    /// Drains every *full* batch currently buffered; returns the number of
    /// batches drained. Balls beyond the last full batch stay buffered.
    pub fn drain_ready(&mut self) -> usize {
        let (core, mut writer, drain) = self.lent();
        core.drain_batches(&mut writer, drain, false)
    }

    /// Drains everything that is buffered, including a final partial batch,
    /// and closes a partially filled routed batch (so its boundary is
    /// recorded). Returns the number of batch boundaries produced.
    pub fn flush(&mut self) -> usize {
        let (core, mut writer, drain) = self.lent();
        core.flush(&mut writer, drain)
    }

    /// Routes one ball **synchronously**: places it against the current stale
    /// snapshot, issues a [`Ticket`], and advances the snapshot once
    /// `batch_size` balls have been routed since the last boundary. For the
    /// same keys this is bit-identical to `push` + `drain_ready` (see the
    /// module docs); unlike `push`, the caller learns the bin immediately and
    /// holds a handle to release the placement later. Infallible — the
    /// `Result` is the shared [`Router`] surface.
    pub fn route(&mut self, key: u64) -> Result<Placement, RouteError> {
        let (core, mut writer, _) = self.lent();
        core.route(&mut writer, key)
    }

    /// Routes a group of keys through one amortized pass, bit-identical to
    /// calling [`StreamAllocator::route`] once per key; see
    /// [`crate::ConcurrentRouter::route_many`].
    pub fn route_many(&mut self, keys: &[u64]) -> Result<Vec<Placement>, RouteError> {
        let (core, mut writer, _) = self.lent();
        let mut placements = Vec::with_capacity(keys.len());
        core.route_many_into(&mut writer, keys, &mut placements)?;
        Ok(placements)
    }

    /// Simulates a **bin crash**: force-releases every *ticketed* resident of
    /// `bin` and returns how many; see [`crate::ConcurrentRouter::crash_bin`].
    /// Anonymous `push`-placed balls hold no tickets and survive, so fault
    /// harnesses route their traffic to make crashes total.
    pub fn crash_bin(&mut self, bin: usize) -> u64 {
        self.core.crash_bin(bin)
    }

    /// Releases a routed ball; double releases and foreign tickets fail with
    /// [`RouteError::UnknownTicket`]. See [`crate::ConcurrentRouter::release`].
    pub fn release(&mut self, ticket: Ticket) -> Result<(), RouteError> {
        self.core.release(ticket)
    }

    /// Releases a group of tickets, bit-identical to looping
    /// [`StreamAllocator::release`] (the group stops at the first failing
    /// ticket; prior releases stay committed); see
    /// [`crate::ConcurrentRouter::release_many`].
    pub fn release_many(&mut self, tickets: &[Ticket]) -> Result<(), RouteError> {
        self.core.release_many(tickets)
    }

    /// Stages new bin weights, applied at the **next batch boundary**; see
    /// [`crate::ConcurrentRouter::set_weights`]. From that boundary on, drains are
    /// bit-identical to a fresh engine constructed with the new weights over
    /// the same resident loads ([`StreamAllocator::with_resident_loads`]).
    pub fn set_weights(&mut self, weights: BinWeights) {
        self.core.set_weights(&mut self.side, weights);
    }

    /// Stages a [`MembershipPlan`], applied at the **next batch boundary**
    /// and strictly *before* any staged weights; see
    /// [`crate::ConcurrentRouter::stage_membership`].
    pub fn stage_membership(&mut self, plan: MembershipPlan) {
        self.core.stage_membership(&mut self.side, plan);
    }

    /// Registers an external observer, notified (after the built-in gap
    /// observer) on every batch boundary, reweighting and release. The caller
    /// keeps its own `Arc` handle to read the sink back.
    pub fn add_observer(&mut self, observer: Arc<Mutex<dyn RouterObserver + Send>>) {
        self.core.add_observer(observer);
    }

    /// Fresh per-bin loads.
    pub fn loads(&self) -> Vec<u32> {
        self.core.loads()
    }

    /// Fresh load of one bin (no allocation).
    pub fn load(&self, bin: usize) -> u32 {
        self.core.load(bin)
    }

    /// Balls currently resident (`placed − departed`).
    pub fn resident(&self) -> u64 {
        self.core.resident()
    }

    /// The resolved non-uniform weights placements currently run under —
    /// after a runtime reweighting or scale event, the ones it installed —
    /// or `None` when the stream runs the uniform (unweighted) configuration.
    pub fn weights(&self) -> Option<Arc<ResolvedWeights>> {
        self.core.weights()
    }

    /// The effective weight of one slot: [`StreamAllocator::weights`] at
    /// `bin` (commissioned slots included), 1.0 when uniform.
    pub fn slot_weight(&self, bin: usize) -> f64 {
        self.core.slot_weight(bin)
    }

    /// Total bin slots the engine is sized to: `bins + reserve_bins`. Every
    /// per-bin array (loads, stale snapshot, ledger, thresholds) has this
    /// length for the engine's whole lifetime; elasticity never reallocates.
    pub fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// The membership lifecycle table: every configured bin active (and
    /// every reserved slot retired) until a staged plan says otherwise.
    pub fn membership(&self) -> &Membership {
        self.side.table()
    }

    /// Force-migrates every **ticketed** resident off the draining bins
    /// through the live policy and returns how many moved; see
    /// [`crate::ConcurrentRouter::migrate_drained`].
    pub fn migrate_drained(&mut self) -> u64 {
        self.core.migrate_drained()
    }

    /// Fresh normalized loads `load_i / w_i` (the raw loads as `f64` for a
    /// uniform stream).
    pub fn normalized_loads(&self) -> Vec<f64> {
        self.core.normalized_loads()
    }

    /// Largest fresh normalized load `max_i(load_i / w_i)` — the quantity the
    /// weighted policies minimise (raw max load when uniform).
    pub fn max_normalized_load(&self) -> f64 {
        self.core.max_normalized_load()
    }

    /// Balls buffered but not yet drained.
    pub fn pending(&self) -> usize {
        self.drain.buffer.len()
    }

    /// The epoch of the stale snapshot the next batch decides from: 0 at
    /// birth, +1 per batch boundary.
    pub fn snapshot_epoch(&self) -> u64 {
        self.core.snapshot_epoch()
    }

    /// The gap after recent drained batches, in order (the most recent
    /// [`StreamConfig::trajectory_cap`] entries at least; use
    /// [`StreamAllocator::gap_stats`] for full-history aggregates).
    pub fn gap_trajectory(&self) -> &[f64] {
        self.book.gap().trajectory()
    }

    /// Streaming statistics over the per-batch gaps.
    pub fn gap_stats(&self) -> &OnlineStats {
        self.book.gap().stats()
    }

    /// Resident tickets (balls placed via [`StreamAllocator::route`] and not
    /// yet released). Anonymous `push`-placed balls are not counted.
    pub fn resident_tickets(&self) -> usize {
        self.core.resident_tickets()
    }

    /// Resident tickets in `bin`.
    pub fn tickets_in(&self, bin: usize) -> usize {
        self.core.tickets_in(bin)
    }

    /// A resident ticket of `bin`, if any — what churn drivers release after
    /// choosing a bin to retire from; see [`crate::ConcurrentRouter::ticket_in`].
    pub fn ticket_in(&self, bin: usize) -> Option<Ticket> {
        self.core.ticket_in(bin)
    }

    /// Per-shard bookkeeping.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.core.shard_stats()
    }

    /// A full point-in-time snapshot.
    pub fn snapshot(&self) -> StreamSnapshot {
        self.core
            .snapshot(self.pending() as u64, self.book.batches())
    }

    /// The conservation invariant every streaming run must satisfy:
    /// `placed − departed == Σ loads` and `arrived == placed + pending`.
    pub fn conserves_balls(&self) -> bool {
        self.core.conserves_balls(self.pending() as u64)
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
        self.core.stats(self.book.batches())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit;
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
        // and chosen on four threads, and the trailing partial batch
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
        // An engine thread count of any size must reproduce the ambient run
        // exactly: parallelism partitions index ranges, it never reorders
        // RNG consumption. A batch of two spans is the shortest that splits.
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
    fn push_and_route_share_one_monotone_arrival_sequence() {
        // The owner's plain `push` stamp and the core's atomic `route` stamp
        // advance the same counter: ids interleave without gaps or repeats.
        let mut s = StreamAllocator::new(StreamConfig::new(8).batch_size(4).seed(1));
        let mut ids = Vec::new();
        for key in 0..30u64 {
            ids.push(match key % 3 {
                0 => s.push(key),
                1 => s.route(key).unwrap().ticket.id(),
                _ => s.route_many(&[key, key + 100]).unwrap()[1].ticket.id() - 1,
            });
            if key % 7 == 0 {
                s.drain_ready();
            }
        }
        let expected: Vec<u64> = (0..30u64).map(|k| k + k / 3).collect();
        assert_eq!(ids, expected, "one id per push/route, two per pair");
        s.flush();
        assert_eq!(s.snapshot().arrived, 40);
        assert!(s.conserves_balls());
    }

    #[test]
    fn pending_counts_the_buffered_tail_across_partial_drains_and_flush() {
        let mut s = StreamAllocator::new(StreamConfig::new(8).batch_size(10).seed(2));
        push_uniform(&mut s, 25, 1);
        assert_eq!(s.pending(), 25);
        assert_eq!((s.drain_ready(), s.pending()), (2, 5), "the tail stays");
        assert_eq!((s.drain_ready(), s.pending()), (0, 5));
        // The tail keeps its place in front of later arrivals.
        push_uniform(&mut s, 7, 2);
        assert_eq!(s.pending(), 12);
        assert_eq!((s.drain_ready(), s.pending()), (1, 2));
        assert!(s.conserves_balls(), "arrived == placed + pending");
        assert_eq!((s.flush(), s.pending()), (1, 0));
        assert_eq!((s.flush(), s.pending()), (0, 0));
        assert_eq!((s.resident(), s.snapshot().batches), (32, 4));
        assert!(s.conserves_balls());
    }

    #[test]
    fn install_metrics_after_traffic_keeps_loads_tickets_and_batches() {
        let cfg = StreamConfig::new(16).batch_size(8).seed(6);
        let mut bare = StreamAllocator::new(cfg.clone());
        let mut late = StreamAllocator::new(cfg);
        for key in 0..19u64 {
            bare.route(key).unwrap();
            late.route(key).unwrap();
        }
        let earlier = [bare.route(19).unwrap(), late.route(19).unwrap()];
        let state = |s: &StreamAllocator| (s.loads(), s.resident_tickets(), s.snapshot().batches);
        let before = state(&late);
        let registry = Arc::new(pba_obs::MetricsRegistry::new());
        late.install_metrics(registry.clone());
        assert_eq!(state(&late), before);
        // Earlier tickets still release, later traffic places identically and
        // only it is counted.
        bare.release(earlier[0].ticket).unwrap();
        late.release(earlier[1].ticket).unwrap();
        for key in 20..40u64 {
            assert_eq!(late.route(key).unwrap().bin, bare.route(key).unwrap().bin);
        }
        assert_eq!(state(&late), state(&bare));
        assert_eq!(late.gap_trajectory(), bare.gap_trajectory());
        let counted = registry.snapshot();
        assert_eq!(counted.counter("route.routed"), 20);
        assert_eq!(counted.counter("route.released"), 1);
        assert!(late.conserves_balls());
    }

    #[test]
    fn with_resident_loads_starts_at_epoch_zero_with_the_snapshot_advanced() {
        let loads: Vec<u32> = (0..16).map(|bin| 3 * bin % 7).collect();
        let total: u64 = loads.iter().map(|&l| l as u64).sum();
        let s = StreamAllocator::with_resident_loads(StreamConfig::new(16).batch_size(8), &loads);
        let snap = s.snapshot();
        assert_eq!(snap.stale_loads, loads, "the next batch already sees them");
        assert_eq!(snap.loads, loads);
        let counted = (s.snapshot_epoch(), snap.batches, s.gap_trajectory().len());
        assert_eq!(counted, (0, 0, 0), "no boundary counted");
        assert_eq!(
            [snap.arrived, snap.placed, snap.departed],
            [total, total, 0]
        );
        assert_eq!((s.resident(), s.resident_tickets()), (total, 0));
        assert!(s.conserves_balls());
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
        let metrics = pba_stats::LoadMetrics::from_loads(&s.loads());
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
