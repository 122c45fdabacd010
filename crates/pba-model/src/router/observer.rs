//! Observer hooks of the [`Router`](super::Router) surface: the boundary
//! events streaming engines fire and the [`RouterObserver`] sink trait.

use super::Ticket;
use crate::weights::ResolvedWeights;

/// One batch boundary: the load snapshot just advanced after `batch_len`
/// placements. Fired by streaming engines after every drained batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchEvent<'a> {
    /// 1-based index of the batch that just completed.
    pub batch_index: u64,
    /// Balls placed by this batch.
    pub batch_len: usize,
    /// The fresh loads at the boundary (also the next stale snapshot).
    pub loads: &'a [u32],
    /// The (weighted) gap of `loads`.
    pub gap: f64,
    /// Balls resident after the batch.
    pub resident: u64,
}

/// A runtime reweighting taking effect: fired at the batch boundary where the
/// new weights replace the old ones (see `StreamAllocator::set_weights`).
#[derive(Debug, Clone, Copy)]
pub struct ReweightEvent<'a> {
    /// Batches completed before the new weights take effect.
    pub batch_index: u64,
    /// The loads the new weights inherit.
    pub loads: &'a [u32],
    /// The newly resolved weights (`None` = the engine is now uniform).
    pub weights: Option<&'a ResolvedWeights>,
    /// Balls resident at the boundary.
    pub resident: u64,
}

/// A ticket release (departure).
#[derive(Debug, Clone, Copy)]
pub struct ReleaseEvent {
    /// The released ticket.
    pub ticket: Ticket,
    /// The bin's load after the departure.
    pub load_after: u32,
    /// Balls resident after the departure.
    pub resident: u64,
}

/// One routed arrival: a key was placed synchronously and a ticket issued.
/// This is the per-arrival tap trace recorders hang off — `on_batch` samples
/// only boundaries, but a request trace needs every `(key, ticket)` pair in
/// arrival order to be replayable.
#[derive(Debug, Clone, Copy)]
pub struct RouteEvent {
    /// The router key the caller presented.
    pub key: u64,
    /// The issued ticket (its id is the arrival id; its bin the placement).
    pub ticket: Ticket,
    /// Balls resident after the placement.
    pub resident: u64,
}

/// A membership change taking effect at a batch boundary: bins were
/// commissioned, started draining, or retired. Fired only when at least one
/// staged event was accepted (a fully rejected plan fires counters, not
/// observers).
#[derive(Debug, Clone, Copy)]
pub struct MembershipChange<'a> {
    /// Batches completed before the change took effect.
    pub batch_index: u64,
    /// Newly commissioned slots, as `(slot, weight)`.
    pub added: &'a [(u32, f64)],
    /// Slots that moved to draining (out of the sampling set).
    pub drained: &'a [u32],
    /// Slots retired (empty, reusable).
    pub removed: &'a [u32],
    /// The post-change active set (sorted slot indices).
    pub active: &'a [u32],
    /// Balls resident at the boundary.
    pub resident: u64,
}

/// Pluggable metrics sink for router lifecycles. All hooks default to no-ops,
/// so an observer implements only what it cares about. Streaming engines call
/// `on_route` per routed (ticketed) arrival, `on_batch` once per drained
/// batch (the natural sampling boundary of the batched model — within a batch
/// loads are stale anyway), `on_reweight` when a
/// [`set_weights`](crate::weights::BinWeights) change takes effect, and
/// `on_release` per departure.
pub trait RouterObserver {
    /// A key was routed and its ticket issued (fires before any batch
    /// boundary the arrival completes).
    fn on_route(&mut self, _event: &RouteEvent) {}

    /// A batch finished and the load snapshot advanced.
    fn on_batch(&mut self, _event: &BatchEvent<'_>) {}

    /// New bin weights took effect at a batch boundary.
    fn on_reweight(&mut self, _event: &ReweightEvent<'_>) {}

    /// A membership change (add / drain / remove) took effect at a batch
    /// boundary.
    fn on_membership(&mut self, _event: &MembershipChange<'_>) {}

    /// A resident ball departed through [`Router::release`](super::Router::release).
    fn on_release(&mut self, _event: &ReleaseEvent) {}
}
