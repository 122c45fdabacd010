//! Deterministic trace replay and fault injection for the PBA workspace.
//!
//! This crate turns the workspace's determinism contract — with one caller,
//! [`pba_stream::ConcurrentRouter`] places every ball as a pure function of
//! the trace — into **replayable, committable evidence**:
//!
//! | module | provides |
//! |---|---|
//! | [`trace`] | compact versioned text codec for request traces ([`Trace`], [`TraceEvent`]) |
//! | [`record`] | [`TraceRecorder`], a [`pba_model::router::RouterObserver`] that taps a live engine into a trace |
//! | [`generate`] | generators freezing the scenario arrival processes (uniform / Zipf / bursty / churn) into traces |
//! | [`replay`] | [`replay()`](replay::replay): any trace × 1-caller, k-caller or one-shot engine × all policies × weights → [`ReplayOutcome`] |
//! | [`golden`] | stable snapshot lines + diffing for `tests/golden/*.snap` (regenerate via `replay_golden --bless`) |
//! | [`fault`] | [`FaultPlan`]: scripted bin crashes, delayed/duplicated releases, reordering, observer poisoning/backpressure, injected into the clean replay's own loop |
//! | [`invariants`] | conservation / ledger / epoch checks the fault harness runs after every injection |
//!
//! The golden workflow: `cargo run -p pba-bench --bin replay_golden --
//! --bless` regenerates `tests/golden/`, plain `replay_golden` (and CI)
//! diffs and fails on drift. Faulted replays must leave every invariant
//! intact while firing the fault's named `fault.*` counter — silence is the
//! only failure mode this crate refuses to allow, so a scripted fault the
//! run never reaches fails too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod generate;
pub mod golden;
pub mod invariants;
pub mod record;
pub mod replay;
pub mod trace;

pub use fault::{Fault, FaultCheck, FaultPlan, FaultRun};
pub use generate::{bursty_trace, churn_trace, record_scenario, uniform_trace, zipf_trace};
pub use golden::{diff_golden, fnv1a64, golden_line, hash_f64s, hash_u32s};
pub use record::TraceRecorder;
pub use replay::{ReplayConfig, ReplayEngine, ReplayError, ReplayOutcome};
pub use trace::{Trace, TraceError, TraceEvent, TRACE_HEADER, TRACE_HEADER_V2};
