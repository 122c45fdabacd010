//! # Parallel Balanced Allocations: The Heavily Loaded Case — reproduction
//!
//! This crate is the façade of a full reproduction of
//! *Parallel Balanced Allocations: The Heavily Loaded Case*
//! (Christoph Lenzen, Merav Parter, Eylon Yogev — SPAA 2019, arXiv:1904.07532).
//!
//! The paper studies the parallel balls-into-bins problem in the heavily loaded
//! regime `m ≫ n` and shows that a simple symmetric threshold algorithm achieves
//! a maximal bin load of `m/n + O(1)` within `O(log log(m/n) + log* n)`
//! synchronous rounds, that this round count is optimal for uniform threshold
//! algorithms, and that an asymmetric variant needs only `O(1)` rounds.
//!
//! The workspace is organised as one crate per subsystem; this façade re-exports
//! them under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `pba-model` | the synchronous message-passing model: protocol trait, agent/count engines, RNG streams, message accounting, heterogeneous bin weights ([`BinWeights`](model::BinWeights)), [`Allocator`](model::Allocator), the unified [`Router`](model::Router) interface (handle-based routing, [`OneShotRouter`](model::OneShotRouter), pluggable [`RouterObserver`](model::RouterObserver)s) |
//! | [`algorithms`] | `pba-algorithms` | `A_heavy`, `A_light` (LW16 substrate), the asymmetric superbin algorithm and its constant-round weighted variant, the trivial deterministic sweep, the naive fixed-threshold strawman, threshold schedules |
//! | [`baselines`] | `pba-baselines` | single-choice, sequential `Greedy[d]`, always-go-left, batched two-choice |
//! | [`lowerbound`] | `pba-lowerbound` | the Section 4 apparatus: rejection census, class decomposition, degree simulation, round predictions |
//! | [`concurrent`] | `pba-concurrent` | shared-memory execution: atomic bins, rayon executor, crossbeam actor executor, speed-up harness |
//! | [`membership`] | `pba-membership` | elastic bin lifecycle: [`Membership`](membership::Membership) state machine (active/draining/retired slots), [`MembershipPlan`](membership::MembershipPlan)s staged via `&self` handles and applied at batch boundaries |
//! | [`stream`] | `pba-stream` | the online, sharded, batched streaming allocation engine (two-choice on stale loads, weighted two-choice and capacity-aware thresholds for heterogeneous backends, arrival processes, ticket-based churn scenarios, runtime reweighting) — a native [`Router`](model::Router) — plus the **concurrent serving core** ([`ConcurrentRouter`](stream::ConcurrentRouter): a cloneable shared handle routing from many threads at once over epoch-published snapshots, and a `Router` too) |
//! | [`stats`] | `pba-stats` | tails, histograms, load metrics, fits, tables, multi-seed aggregation |
//! | [`obs`] | `pba-obs` | the observability substrate: [`MetricsRegistry`](obs::MetricsRegistry) (counters, gauges, log-bucketed latency histograms) and its text/JSON snapshots, the "no silent drops" counter inventory |
//! | [`replay`] | `pba-replay` | deterministic trace replay: the versioned trace codec ([`Trace`](replay::Trace)), [`TraceRecorder`](replay::TraceRecorder), the [`replay()`](replay::replay::replay) driver (any engine × all policies), golden-snapshot hashing, and the scripted fault-injection harness ([`FaultPlan`](replay::FaultPlan)) with post-fault invariant checks |
//! | [`net`] | `pba-net` | the serving path, whole: the line protocol and its zero-allocation codec, the socket-free [`Session`](net::Session) executor (wire ids resolved through the router's ticket ledger, line splitting, batched `ROUTE`/`RELEASE` pipelining), the [`ReactorServer`](net::ReactorServer) TCP front-end (a fixed pool of reactor threads driving nonblocking connections via raw `epoll` on Linux, portable poll-loop fallback elsewhere) and the blocking [`LineClient`](net::LineClient) |
//! | [`workloads`] | `pba-workloads` | experiment configurations and the E1–E19 experiment definitions |
//!
//! ## Quick start
//!
//! ```
//! use parallel_balanced_allocations::prelude::*;
//!
//! let m = 1u64 << 16;       // balls
//! let n = 1usize << 8;      // bins
//! let outcome = HeavyAllocator::default().allocate(m, n, 42);
//!
//! assert!(outcome.is_complete(m));
//! // Theorem 1: the excess over ⌈m/n⌉ is O(1).
//! assert!(outcome.excess(m) <= 8);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index and measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pba_algorithms as algorithms;
pub use pba_baselines as baselines;
pub use pba_concurrent as concurrent;
pub use pba_lowerbound as lowerbound;
pub use pba_membership as membership;
pub use pba_model as model;
pub use pba_net as net;
pub use pba_obs as obs;
pub use pba_replay as replay;
pub use pba_stats as stats;
pub use pba_stream as stream;
pub use pba_workloads as workloads;

/// The most common imports for library users.
pub mod prelude {
    pub use pba_algorithms::{
        AsymmetricAllocator, HeavyAllocator, HeavyConfig, LightAllocator, LightConfig,
        NaiveThresholdAllocator, TrivialAllocator, WeightedAsymmetricAllocator,
    };
    pub use pba_baselines::{GreedyDAllocator, SingleChoiceAllocator};
    pub use pba_membership::{BinState, Membership, MembershipEvent, MembershipPlan};
    pub use pba_model::{
        AllocationOutcome, Allocator, BinWeights, EngineConfig, OneShotRouter, Placement,
        RouteError, Router, RouterObserver, RouterStats, Ticket, WireRequest,
    };
    pub use pba_net::{
        LineClient, ReactorConfig, ReactorServer, Session, MAX_ADD_TIER, MAX_LINE_LEN,
    };
    pub use pba_obs::{MetricsRegistry, MetricsSnapshot};
    pub use pba_replay::{
        replay::replay, Fault, FaultPlan, ReplayConfig, ReplayEngine, Trace, TraceRecorder,
    };
    pub use pba_stats::{LoadMetrics, Table};
    pub use pba_stream::{
        ArrivalProcess, ConcurrentRouter, Policy as StreamPolicy, StreamAllocator, StreamConfig,
        ThreadPool, ThreadPoolBuilder,
    };
}

/// The arXiv identifier of the reproduced paper.
pub const PAPER_ARXIV_ID: &str = "1904.07532";

/// The venue of the reproduced paper.
pub const PAPER_VENUE: &str = "SPAA 2019";

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let out = HeavyAllocator::default().allocate(1 << 12, 1 << 6, 1);
        assert!(out.is_complete(1 << 12));
        assert_eq!(crate::PAPER_VENUE, "SPAA 2019");
        assert!(crate::PAPER_ARXIV_ID.contains("1904"));
    }
}
