//! Resolved metric handles for the streaming engines.
//!
//! The engines never hold a registry reference on the hot path; at
//! construction (or [`install`](StreamMetrics::resolve)) they resolve every
//! metric they will ever touch into a [`StreamMetrics`] bundle of cheap
//! cloneable handles, and at runtime each event is one relaxed `fetch_add`.
//! An engine whose metrics slot is `None` executes **zero** metric
//! instructions — the disabled fast path the benchmark metric
//! `obs.route_overhead_ratio` prices the enabled path against.
//!
//! ## Counter inventory (the no-silent-drops ledger)
//!
//! Every rejection or fallback path in the streaming stack maps to exactly
//! one counter here:
//!
//! | counter | path |
//! |---|---|
//! | `route.rejected_unknown_ticket` | `release` of a forged/double/foreign ticket |
//! | `policy.threshold_fallback` | [`Policy::Threshold`](crate::Policy) — all candidates at/above the batch threshold |
//! | `policy.overflow_retry` | [`Policy::CapacityThreshold`](crate::Policy) — first candidate set overflowed, fresh set drawn |
//! | `policy.overflow_fallback` | [`Policy::CapacityThreshold`](crate::Policy) — both sets overflowed, least-normalized concession |
//! | `policy.weighted_uniform_fallback` | weighted `fill_distinct` degraded to uniform draws |
//! | `observer.errors` | an external observer's lock was poisoned; its hooks were skipped |
//! | `membership.rejected_adds` | `Add` staged with no retired slot left (or a bad weight) |
//! | `membership.rejected_drains` | `Drain` of a non-active bin, or of the last active bin |
//! | `membership.rejected_removes` | `Remove` of a non-draining or still-occupied bin |
//! | `membership.rejected_routes_to_draining` | a concurrent route landed on a bin drained between snapshot and commit; the placement was undone and retried |
//!
//! Metrics are **write-only** for the engines: no allocation decision ever
//! reads one, so installing metrics cannot perturb RNG streams or placements
//! (property-tested in `tests/observability_properties.rs`).

use std::sync::Arc;

use pba_obs::{Counter, Gauge, MetricsRegistry};

/// Counters for the policy-level fallback paths, shared by reference with
/// every choose worker of a parallel drain (handles are `Sync`; increments
/// are relaxed atomics, so workers never serialize on them).
#[derive(Debug, Clone, Default)]
pub struct PolicyCounters {
    /// `Threshold` found no candidate below the batch threshold.
    pub threshold_fallback: Counter,
    /// `CapacityThreshold` drew a fresh candidate set after an overflow.
    pub overflow_retry: Counter,
    /// `CapacityThreshold` conceded after both sets overflowed.
    pub overflow_fallback: Counter,
    /// Weighted distinct sampling degraded to uniform draws (near-degenerate
    /// skew); counts individual fallback draws.
    pub weighted_uniform_fallback: Counter,
}

impl PolicyCounters {
    /// Resolves the `policy.*` handles against `registry`.
    pub fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            threshold_fallback: registry.counter("policy.threshold_fallback"),
            overflow_retry: registry.counter("policy.overflow_retry"),
            overflow_fallback: registry.counter("policy.overflow_fallback"),
            weighted_uniform_fallback: registry.counter("policy.weighted_uniform_fallback"),
        }
    }
}

/// Counters for the elastic-membership verbs (see the `membership` façade
/// module): every accepted lifecycle transition, every migration, and every
/// rejection — no membership outcome is silent.
#[derive(Debug, Clone, Default)]
pub struct MembershipCounters {
    /// Bins commissioned (`Add` accepted).
    pub adds: Counter,
    /// Bins moved to draining (`Drain` accepted).
    pub drains: Counter,
    /// Bins retired (`Remove` accepted).
    pub removes: Counter,
    /// Ticketed residents force-migrated off draining bins.
    pub migrations: Counter,
    /// `Add` events rejected (capacity exhausted or bad weight).
    pub rejected_adds: Counter,
    /// `Drain` events rejected (not active, or last active bin).
    pub rejected_drains: Counter,
    /// `Remove` events rejected (not draining, or still occupied).
    pub rejected_removes: Counter,
    /// Concurrent routes undone because their bin drained mid-flight.
    pub rejected_routes_to_draining: Counter,
}

impl MembershipCounters {
    /// Resolves the `membership.*` handles against `registry`.
    pub fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            adds: registry.counter("membership.adds"),
            drains: registry.counter("membership.drains"),
            removes: registry.counter("membership.removes"),
            migrations: registry.counter("membership.migrations"),
            rejected_adds: registry.counter("membership.rejected_adds"),
            rejected_drains: registry.counter("membership.rejected_drains"),
            rejected_removes: registry.counter("membership.rejected_removes"),
            rejected_routes_to_draining: registry.counter("membership.rejected_routes_to_draining"),
        }
    }
}

/// Every handle a streaming engine records into, resolved once. Cloning is
/// cheap (each handle is an `Arc`), so the concurrent router's shared core
/// and each drained batch can carry the same bundle.
#[derive(Debug, Clone)]
pub struct StreamMetrics {
    /// The registry the handles came from (kept so engines can lend it out
    /// for snapshots).
    pub registry: Arc<MetricsRegistry>,
    /// Tickets issued (successful `route` calls).
    pub routed: Counter,
    /// Tickets redeemed (successful `release` calls).
    pub released: Counter,
    /// `release` calls rejected with `UnknownTicket`.
    pub rejected_unknown_ticket: Counter,
    /// Balls committed to bins by drained batches and routed groups
    /// (migrations and reroutes move a ball, so they leave it alone).
    pub placed: Counter,
    /// Batch boundaries crossed.
    pub batches: Counter,
    /// Gap at the latest boundary.
    pub gap: Gauge,
    /// Resident balls at the latest boundary.
    pub resident: Gauge,
    /// External observers skipped because their lock was poisoned.
    pub observer_errors: Counter,
    /// The policy-level fallback counters.
    pub policy: PolicyCounters,
    /// The elastic-membership lifecycle counters.
    pub membership: MembershipCounters,
}

impl StreamMetrics {
    /// Resolves every streaming handle against `registry`.
    pub fn resolve(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            routed: registry.counter("route.routed"),
            released: registry.counter("route.released"),
            rejected_unknown_ticket: registry.counter("route.rejected_unknown_ticket"),
            placed: registry.counter("route.placed"),
            batches: registry.counter("router.stream_batches"),
            gap: registry.gauge("router.stream_gap"),
            resident: registry.gauge("router.stream_resident"),
            observer_errors: registry.counter("observer.errors"),
            policy: PolicyCounters::resolve(&registry),
            membership: MembershipCounters::resolve(&registry),
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_underlying_cells() {
        let registry = Arc::new(MetricsRegistry::new());
        let a = StreamMetrics::resolve(Arc::clone(&registry));
        let b = a.clone();
        a.routed.inc();
        b.routed.inc();
        assert_eq!(registry.snapshot().counter("route.routed"), 2);
    }
}
