//! Fault-injection counters: the named evidence trail of the replay harness.
//!
//! The workspace's "no silent drops" rule extends to *injected* failures:
//! when a fault plan crashes a bin, delays a release or reorders arrivals,
//! the harness must be able to point at a named counter that fired — an
//! injected fault that leaves no metric trace is indistinguishable from a
//! fault that silently corrupted state. [`FaultCounters`] bundles one counter
//! per fault class, resolved against the same [`MetricsRegistry`] the engine
//! records into, so a single [`MetricsSnapshot`]
//! shows engine-side effects (`route.rejected_unknown_ticket`,
//! `observer.errors`) next to the harness-side injection counts (`fault.*`).
//!
//! | Counter | Incremented when |
//! |---|---|
//! | `fault.bin_crash_releases` | a bin crash force-released one ticket |
//! | `fault.delayed_releases` | a scripted release was postponed past its due point |
//! | `fault.duplicated_releases` | a release was replayed a second time (and rejected) |
//! | `fault.reordered_arrivals` | an arrival was routed out of trace order (a reversed window) |
//! | `fault.dropped_releases` | a scripted release was skipped entirely (its ball stays resident) |
//! | `fault.poisoned_observers` | an observer was poisoned by an injected panic |
//! | `fault.backpressure_dropped` | a bounded observer queue shed one event |
//! | `fault.bins_added` | a bin was commissioned mid-trace by an injected scale-up |
//! | `fault.bins_drained` | a bin was put into draining mid-trace by an injected scale-down |
//!
//! The engine-side half of that trail has one total: [`drops_of`], the
//! no-silent-drops sum every harness, bench and experiment reports.

use std::sync::Arc;

use crate::registry::{Counter, MetricsRegistry, MetricsSnapshot};

/// The no-silent-drops sum of one snapshot: every rejection, fallback and
/// skipped-event counter the engines and the serving layer fire (`server.*`
/// read 0 when no server is attached). 0 on a clean run — and a test forces
/// each path to prove it counts.
pub fn drops_of(snapshot: &MetricsSnapshot) -> u64 {
    snapshot.counter("route.rejected_unknown_ticket")
        + snapshot.counter("server.unknown_ticket")
        + snapshot.counter("server.bad_request")
        + snapshot.counter("observer.errors")
        + snapshot.sum_counters("policy.")
}

/// One counter per injected fault class (see the [module docs](self) for the
/// name → meaning table). Handles are cheap clones; resolve once per plan.
#[derive(Debug, Clone)]
pub struct FaultCounters {
    /// `fault.bin_crash_releases` — tickets force-released by bin crashes.
    pub bin_crash_releases: Counter,
    /// `fault.delayed_releases` — releases postponed past their due point.
    pub delayed_releases: Counter,
    /// `fault.duplicated_releases` — releases replayed (and rejected) twice.
    pub duplicated_releases: Counter,
    /// `fault.reordered_arrivals` — arrivals routed out of trace order.
    pub reordered_arrivals: Counter,
    /// `fault.dropped_releases` — scripted releases skipped entirely.
    pub dropped_releases: Counter,
    /// `fault.poisoned_observers` — observers poisoned by injected panics.
    pub poisoned_observers: Counter,
    /// `fault.backpressure_dropped` — events shed by bounded observer queues.
    pub backpressure_dropped: Counter,
    /// `fault.bins_added` — bins commissioned mid-trace by injected scale-ups.
    pub bins_added: Counter,
    /// `fault.bins_drained` — bins drained mid-trace by injected scale-downs.
    pub bins_drained: Counter,
}

impl FaultCounters {
    /// Resolves (interning on first use) every fault counter in `registry`.
    pub fn resolve(registry: &Arc<MetricsRegistry>) -> Self {
        Self {
            bin_crash_releases: registry.counter("fault.bin_crash_releases"),
            delayed_releases: registry.counter("fault.delayed_releases"),
            duplicated_releases: registry.counter("fault.duplicated_releases"),
            reordered_arrivals: registry.counter("fault.reordered_arrivals"),
            dropped_releases: registry.counter("fault.dropped_releases"),
            poisoned_observers: registry.counter("fault.poisoned_observers"),
            backpressure_dropped: registry.counter("fault.backpressure_dropped"),
            bins_added: registry.counter("fault.bins_added"),
            bins_drained: registry.counter("fault.bins_drained"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_counters_resolve_and_share_the_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let counters = FaultCounters::resolve(&registry);
        counters.bin_crash_releases.inc();
        counters.reordered_arrivals.add(3);
        let again = FaultCounters::resolve(&registry);
        again.bin_crash_releases.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("fault.bin_crash_releases"), 2);
        assert_eq!(snap.counter("fault.reordered_arrivals"), 3);
        assert_eq!(snap.counter("fault.delayed_releases"), 0);
        assert_eq!(snap.sum_counters("fault."), 5);
    }
}
