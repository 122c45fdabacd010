//! # pba-model
//!
//! The synchronous message-passing **balls-into-bins model** that all algorithms in
//! this workspace run on, reproducing the model of Section 3 of
//! *Parallel Balanced Allocations: The Heavily Loaded Case* (Lenzen, Parter, Yogev,
//! SPAA 2019):
//!
//! > The system consists of `m` balls and `n` bins, and operates in the synchronous
//! > message passing model, where each round consists of the following steps.
//! > 1. Balls perform local computations and send messages to arbitrary bins.
//! > 2. Bins receive these messages, perform local computations and send messages to
//! >    any balls they have been contacted by in this or earlier rounds.
//! > 3. Balls receive these messages and may commit to a bin (and terminate).
//!
//! The crate provides:
//!
//! * [`rng`] — deterministic, splittable pseudo-random streams so that every ball's
//!   random choices in every round are a pure function of `(seed, ball, round)`;
//!   this makes sequential and parallel executions bit-identical.
//! * [`ids`] — strongly typed ball / bin identifiers.
//! * [`metrics`] — message accounting (who sent how many messages of which kind) and
//!   per-round records; the message-complexity claims of Theorems 1, 3, 5 and 6 are
//!   verified against these counters.
//! * [`protocol`] — the [`Protocol`] trait describing a
//!   *uniform threshold style* protocol: per-round ball degree and per-bin
//!   acceptance quota. This captures the algorithm family of Section 4 and is the
//!   interface both engines execute.
//! * [`sampling`] — binomial / multinomial samplers used by the count engine.
//! * [`engine`] — two executors:
//!   the **agent engine** (exact per-ball simulation, sequential or rayon-parallel)
//!   and the **count engine** (per-bin multinomial counts only; scales to huge `m`).
//! * [`outcome`] — the [`AllocationOutcome`] result type
//!   and the [`Allocator`] trait shared by every algorithm and
//!   baseline crate.
//! * [`weights`] — heterogeneous bin weights ([`BinWeights`]:
//!   uniform / explicit / power-of-two tiers), alias-table weighted sampling, and
//!   the normalized-load helpers used by the weighted routing policies.
//! * [`router`] — the unified service-shaped [`Router`] interface
//!   (`route(key) → Placement`, handle-based `release(Ticket)`, typed
//!   [`RouteError`], pluggable [`RouterObserver`] hooks) shared by both
//!   streaming shells (the sole owner and the shared serving handle) and,
//!   via [`OneShotRouter`], every one-shot allocator; plus the thread-safe
//!   [`SharedTicketLedger`] behind it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod ids;
pub mod metrics;
pub mod outcome;
pub mod protocol;
pub mod rng;
pub mod router;
pub mod sampling;
pub mod weights;

pub use engine::{run_agent_engine, run_count_engine, EngineConfig, EngineResult};
pub use ids::{BallId, BinId};
pub use metrics::{MessageTotals, RoundRecord};
pub use outcome::{AllocationOutcome, Allocator};
pub use protocol::{Protocol, RoundCtx};
pub use rng::{SeedSeq, SplitMix64};
pub use router::{
    BatchEvent, MembershipChange, OneShotRouter, Placement, ReleaseEvent, ReweightEvent,
    RouteError, RouteEvent, Router, RouterObserver, RouterStats, SharedTicketLedger, Ticket,
    WireRequest,
};
pub use weights::{AliasTable, BinWeights, ResolvedWeights, WeightTier};
