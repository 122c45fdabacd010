//! # pba-workloads
//!
//! Experiment configurations, sweeps, the multi-seed runner, and the experiment
//! definitions E1–E17 listed in DESIGN.md. Every experiment returns
//! [`pba_stats::Table`]s; the `pba-bench` binaries print them and EXPERIMENTS.md
//! records them, so "regenerate table X" is always one `cargo run` away.
//!
//! * [`config`] — instance and sweep descriptions (`n`, `m/n` ratios, seeds).
//! * [`runner`] — drives any set of [`pba_model::Allocator`]s over a sweep and
//!   aggregates excess load, rounds and message statistics across seeds.
//! * [`experiments`] — the E1–E17 experiment functions (each with a `quick`
//!   mode used by tests and a full mode used by the report binaries); E10–E14
//!   drive the streaming engine of `pba-stream` — E12 through the handle-based
//!   router surface (ticket churn), E14 through runtime reweighting — E15
//!   measures the execution layer itself (drain throughput vs thread count
//!   at the shortest batch the drain splits), E16 the concurrent serving
//!   core, and E17 the observability layer under serving load
//!   (route/release through the TCP front-end, latency from the server's
//!   own histogram, the no-silent-drops counter ledger).
//! * [`report`] — renders the experiment tables into the Markdown body of
//!   EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod report;
pub mod runner;

pub use config::{InstanceConfig, SweepConfig};
pub use runner::{run_sweep, summaries_to_table, AllocatorRunSummary};
