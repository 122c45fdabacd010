//! # pba-stream
//!
//! An **online, sharded, batched streaming allocation engine** — the dynamic
//! counterpart of the one-shot allocators in this workspace.
//!
//! The SPAA'19 paper allocates all `m` balls in a few synchronous rounds; a
//! production router instead sees balls *arrive over time* and must place each
//! one with whatever load information it has. Los & Sauerwald,
//! *Balanced Allocations in Batches: Simplified and Generalized* (2022), show
//! that the two-choice machinery survives this regime: if balls are allocated
//! in batches of size `b` and every ball of a batch only sees the loads from
//! the previous batch boundary (stale info), the gap stays `O(b/n + log n)` —
//! so batching/staleness costs a quantifiable, bounded amount of balance.
//! This crate implements exactly that model and makes the trade-offs
//! measurable (experiments E10–E12 in [`pba_workloads`-style tables]).
//!
//! * [`concurrent`] — the **one engine core** and its shared-handle shell.
//!   The core is a staged pipeline — the ingress stage (arrival stamping and
//!   buffering), the [`snapshot`] stage (stale loads, thresholds, gap measure)
//!   and the commit stage (choose, then one grouped commit per batch) are
//!   separate modules — over lock-free state: reads go to an epoch-published
//!   stale snapshot ([`pba_concurrent::EpochCell`]), commits are atomic
//!   increments, tickets flow through the bin-sharded
//!   [`pba_model::router::SharedTicketLedger`]. [`ConcurrentRouter`] is the
//!   cloneable, `Arc`-backed handle whose `route(key)` is callable from many
//!   caller threads at once; its pushes are stamped under an inbox lock, so
//!   they queue in arrival order. With `k` callers, conservation, ticket
//!   consistency and epoch monotonicity hold for every interleaving.
//! * [`engine`] — [`StreamAllocator`]: the same core with a **sole owner** —
//!   the incremental `push` / `drain` / `snapshot` API. Balls buffer (a plain
//!   `Vec`) until a batch of `b` is ready; a drain allocates the batch
//!   against the **stale** snapshot and then advances the snapshot. Because
//!   every placement decision is a pure function of `(stale snapshot, ball
//!   key)`, a drain whose choose step is cut into spans for several threads
//!   is bit-identical to the sequential one. `route` / `release` and the drain
//!   are the handle's by construction; the handle's pushes merely reach the
//!   same buffer through a lock.
//! * [`shard`] — [`ShardedBins`]: the lock-free load counters, the engine's
//!   only per-bin books; a group of balls is counted per bin and committed
//!   with one write per distinct bin: an atomic add to the route lane (from
//!   [`pba_concurrent`]) for routes, a plain store to the push lane, which
//!   the one drain holder alone writes, for a drained batch.
//! * [`policy`] — [`Policy`]: single-choice, two-choice, `d`-choice and the
//!   paper-style threshold rule, all over stale loads; candidate bins are a
//!   consistent hash of the ball's key. Heterogeneous backends are served by
//!   the weight-aware [`Policy::WeightedTwoChoice`] (sample ∝ weight, balance
//!   `load/weight`) and [`Policy::CapacityThreshold`] (per-bin capacity
//!   shares with one overflow retry); uniform weights are a **strict no-op**
//!   relative to the unweighted engine.
//! * [`observer`] — built-in [`RouterObserver`] sinks: the default
//!   [`GapTrajectoryObserver`] (the engine's own gap tracking, reimplemented
//!   as the first client of the observer hooks) and [`ReweightLog`].
//! * [`arrival`] — [`ArrivalProcess`]: uniform, Zipf-skewed and bursty
//!   arrival streams.
//! * [`scenario`] — [`ScenarioConfig`] / [`run_scenario`]: the one scenario
//!   driver. Ticks of arrivals, optional churn (ticket releases, load- or
//!   capacity-proportional) and an optional script of scale events
//!   ([`ScaleEvent`]: ramp-up, flash crowd, rolling restart, scale-to-zero)
//!   drive the 1-caller [`ConcurrentRouter`]; the [`ScenarioReport`] carries
//!   the online gap, migration volume and active fraction.
//!
//! Drain parallelism is explicit: [`StreamConfig::num_threads`] gives an
//! engine its own thread count (`0` = the ambient count: an installed
//! `ThreadPool`, else `PBA_THREADS`, else the core count). Results are
//! **bit-identical for every thread count** — parallelism only partitions
//! index ranges, it never reorders RNG consumption.
//!
//! The engine also implements the unified [`Router`] interface of
//! [`pba_model::router`]: [`StreamAllocator::route`] places one ball
//! synchronously (bit-identical to `push` + `drain` for the same keys) and
//! returns a [`Ticket`]; [`StreamAllocator::release`] retires it with
//! validation. `StreamAllocator::set_weights` re-weights a **running** stream
//! at the next batch boundary.
//!
//! Both shells are **elastic**, through one epoch-published topology that
//! exists from construction (every configured bin active): a
//! [`MembershipPlan`] staged through `stage_membership` commissions, drains
//! or retires bins at the next batch boundary (see the `pba_membership`
//! crate for the lifecycle), and an engine nothing was ever staged on runs
//! the same code at the same cost as one that staged an empty plan. Draining
//! bins leave the sampling set but keep their residents until released or
//! force-migrated via `migrate_drained`; `StreamConfig::reserve_bins`
//! pre-allocates retired slots for scale-up without reallocation.
//!
//! ## Quick start
//!
//! ```
//! use pba_stream::{Policy, StreamAllocator, StreamConfig};
//!
//! let mut stream = StreamAllocator::new(
//!     StreamConfig::new(64).policy(Policy::TwoChoice).batch_size(64).seed(42),
//! );
//! for key in 0..10_000u64 {
//!     stream.push(key);
//! }
//! stream.flush();
//! assert!(stream.conserves_balls());
//! assert_eq!(stream.resident(), 10_000);
//! // The online gap trajectory has one entry per drained batch.
//! assert!(!stream.gap_trajectory().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
mod commit;
pub mod concurrent;
pub mod engine;
mod ingress;
pub mod metrics;
pub mod observer;
pub mod policy;
pub mod scenario;
pub mod shard;
pub mod snapshot;

pub use arrival::{ArrivalProcess, ArrivalSampler, UNIQUE_KEYS};
pub use commit::PARALLEL_MIN_SPAN;
pub use concurrent::ConcurrentRouter;
pub use engine::{StreamAllocator, StreamConfig};
pub use metrics::{MembershipCounters, PolicyCounters, StreamMetrics};
pub use observer::{GapTrajectoryObserver, ReweightLog, ReweightRecord};
pub use policy::{candidate_bins, choose_bin, ChoiceCtx, Policy};
pub use scenario::{
    run_scenario, run_scenario_on, ChurnMode, ScaleEvent, ScenarioConfig, ScenarioReport,
};
pub use shard::ShardedBins;
pub use snapshot::StreamSnapshot;

// Re-exported so weighted stream configurations need only this crate.
pub use pba_model::router::{
    BatchEvent, MembershipChange, Placement, ReleaseEvent, ReweightEvent, RouteError, RouteEvent,
    Router, RouterObserver, RouterStats, Ticket, WireRequest,
};
pub use pba_model::weights::{BinWeights, ResolvedWeights};

// Re-exported so elastic stream configurations need only this crate: stage a
// `MembershipPlan` on either shell, inspect `BinState`s through the
// `membership()` accessor.
pub use pba_membership::{ApplyOutcome, BinState, MembershipEvent, MembershipPlan};

// Re-exported so callers can set a drain's thread count without naming the
// vendored shim: `StreamConfig::num_threads` covers the per-engine case,
// `ThreadPool::install` the ambient one.
pub use rayon::{ThreadPool, ThreadPoolBuilder};
