//! # pba-obs
//!
//! The **observability substrate** of the workspace: a lock-light
//! [`MetricsRegistry`] of named metrics and the snapshots it renders.
//!
//! The paper's guarantees are stated in rounds, messages and gap; a serving
//! system additionally needs *operational* numbers — how many requests were
//! routed, how many rejections each fallback path absorbed, what the route
//! latency distribution looks like. This crate provides the vocabulary the
//! router/stream/server layers record into:
//!
//! * [`Counter`] — a monotone `u64`, one relaxed `fetch_add` per event. The
//!   hot-path primitive: routing threads only ever touch counters.
//! * [`Gauge`] — a last-value `f64` (gap, resident count), set at batch
//!   boundaries.
//! * [`Histogram`] — a log-bucketed latency histogram (~12.5 % relative
//!   resolution over the full `u64` nanosecond range). Atomic, so it can be
//!   recorded into directly; latency-critical recorders accumulate into a
//!   thread-local [`LocalHistogram`] instead and merge it in at natural
//!   boundaries (a batch boundary, a connection close), keeping the per-event
//!   cost at plain integer arithmetic.
//! * [`MetricsRegistry`] — interns metrics by name and hands out cheap
//!   cloneable handles. Handle operations never take the registry lock; the
//!   lock guards only name→handle interning and snapshotting.
//! * [`MetricsSnapshot`] — a point-in-time copy of every metric, renderable
//!   as text or JSON.
//!
//! ## The "no silent drops" rule
//!
//! The workspace-wide acceptance rule this crate exists to enforce: **every
//! rejection or fallback path increments a named counter**. A request that is
//! refused, retried, degraded or redirected must be observable in a
//! [`MetricsSnapshot`] — tests assert the counters, and a clean run's zeros
//! are themselves evidence. See `DESIGN.md` ("Observability layer") for the
//! full counter inventory.
//!
//! ## Determinism
//!
//! Metrics are write-only from the measured code's perspective: nothing in
//! the allocation path ever *reads* a metric to make a decision, so an
//! installed registry cannot perturb RNG streams or placements. With a
//! registry installed the engines remain bit-identical to their
//! uninstrumented runs (property-tested in `tests/observability_properties.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod histogram;
pub mod registry;

pub use fault::{drops_of, FaultCounters};
pub use histogram::{Histogram, HistogramSummary, LocalHistogram};
pub use registry::{Counter, Gauge, HistogramHandle, MetricsRegistry, MetricsSnapshot};
