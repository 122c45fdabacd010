//! # pba-membership
//!
//! The **bin lifecycle** state machine behind elastic cluster membership:
//! which bin slots are serving traffic ([`BinState::Active`]), which are
//! winding down ([`BinState::Draining`]), and which are empty capacity
//! waiting to be (re)commissioned ([`BinState::Retired`]).
//!
//! The crate is deliberately engine-agnostic — no RNG, no loads, no
//! tickets — so the same state machine backs the single-threaded
//! `StreamAllocator` and the shared-handle `ConcurrentRouter` in
//! `pba-stream`. Engines stage a [`MembershipPlan`] (a small script of
//! [`MembershipEvent`]s) and apply it **only at batch boundaries** via
//! [`Membership::apply`], mirroring how runtime reweighting is staged: within
//! a batch the topology is immutable, so every ball of the batch routes
//! against one consistent membership — the same stale-information discipline
//! the batched model applies to loads.
//!
//! ## Lifecycle
//!
//! ```text
//!            Add{weight}                Drain{bin}
//!   Retired ────────────▶ Active ────────────────▶ Draining
//!      ▲                                               │
//!      └───────────────────────────────────────────────┘
//!                 Remove{bin}  (legal only at zero occupancy)
//! ```
//!
//! * `Add{weight}` commissions the **lowest retired slot** (slot indices are
//!   stable engine bin indices; reuse keeps every fixed-capacity array —
//!   loads, ledger shards, alias tables — index-compatible for the engine's
//!   whole lifetime). Rejected when no retired slot remains.
//! * `Drain{bin}` moves an active bin out of the sampling set; resident
//!   balls stay put and their tickets stay valid. Rejected for non-active
//!   bins and for the **last** active bin (a router with an empty active set
//!   could not place anything).
//! * `Remove{bin}` retires a draining bin. The state machine itself cannot
//!   see occupancy, so [`Membership::apply`] takes an `occupied` predicate —
//!   engines pass their ledger/loads — and rejects the removal while balls
//!   remain. Rejected outright for bins not in `Draining` (a bin must drain
//!   before it can be removed).
//!
//! Every rejection is **counted, never silent**: [`ApplyOutcome`] reports
//! per-verb rejection tallies that engines surface as `membership.rejected_*`
//! counters, upholding the workspace's no-silent-drops rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The lifecycle state of one bin slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinState {
    /// Serving: the bin is in the sampling set and receives placements.
    Active,
    /// Winding down: no new placements, but resident balls (and their
    /// tickets) remain valid until released or migrated.
    Draining,
    /// Decommissioned capacity: empty, invisible to policies, reusable by a
    /// future `Add`.
    Retired,
}

impl BinState {
    /// Short lowercase name (`active` / `draining` / `retired`) for logs and
    /// the line protocol.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Active => "active",
            Self::Draining => "draining",
            Self::Retired => "retired",
        }
    }
}

/// One staged membership change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MembershipEvent {
    /// Commission the lowest retired slot with the given weight.
    Add {
        /// Capacity weight of the new bin (must be finite and positive).
        weight: f64,
    },
    /// Move an active bin to `Draining` (stop placements, keep residents).
    Drain {
        /// The bin slot to drain.
        bin: u32,
    },
    /// Retire a draining bin (legal only at zero occupancy).
    Remove {
        /// The bin slot to retire.
        bin: u32,
    },
}

/// A small script of membership changes, staged as a unit and applied at one
/// batch boundary. Builder-style:
///
/// ```
/// use pba_membership::MembershipPlan;
/// let plan = MembershipPlan::new().add(2.0).drain(0).remove(3);
/// assert_eq!(plan.events().len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MembershipPlan {
    events: Vec<MembershipEvent>,
}

impl MembershipPlan {
    /// An empty plan (applying it is a strict no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an `Add{weight}` event.
    #[allow(clippy::should_implement_trait)] // builder verb, not arithmetic
    pub fn add(mut self, weight: f64) -> Self {
        self.events.push(MembershipEvent::Add { weight });
        self
    }

    /// Appends a `Drain{bin}` event.
    pub fn drain(mut self, bin: u32) -> Self {
        self.events.push(MembershipEvent::Drain { bin });
        self
    }

    /// Appends a `Remove{bin}` event.
    pub fn remove(mut self, bin: u32) -> Self {
        self.events.push(MembershipEvent::Remove { bin });
        self
    }

    /// Appends an arbitrary event.
    pub fn push(mut self, event: MembershipEvent) -> Self {
        self.events.push(event);
        self
    }

    /// The staged events, in application order.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// True when the plan stages nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges another plan's events after this one's (staging twice before a
    /// boundary concatenates).
    pub fn extend(&mut self, other: MembershipPlan) {
        self.events.extend(other.events);
    }

    /// Retired slots an engine must reserve so that no `Add` of this plan,
    /// applied in order, finds its capacity exhausted: an add first reuses a
    /// slot freed by an earlier `Remove` (the lowest-retired-slot rule of
    /// [`Membership::apply`]), and only the adds that find none need fresh
    /// reserve.
    pub fn needed_reserve(&self) -> usize {
        let mut freed = 0usize;
        let mut reserve = 0usize;
        for event in &self.events {
            match event {
                MembershipEvent::Remove { .. } => freed += 1,
                MembershipEvent::Add { .. } if freed > 0 => freed -= 1,
                MembershipEvent::Add { .. } => reserve += 1,
                MembershipEvent::Drain { .. } => {}
            }
        }
        reserve
    }
}

impl FromIterator<MembershipEvent> for MembershipPlan {
    fn from_iter<I: IntoIterator<Item = MembershipEvent>>(events: I) -> Self {
        Self {
            events: events.into_iter().collect(),
        }
    }
}

/// What one [`Membership::apply`] call actually did: the accepted changes
/// (with slot assignments for adds) and the per-verb rejection counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ApplyOutcome {
    /// Commissioned slots, as `(slot, weight)` in event order.
    pub added: Vec<(u32, f64)>,
    /// Slots moved to `Draining`.
    pub drained: Vec<u32>,
    /// Slots retired.
    pub removed: Vec<u32>,
    /// `Add` events rejected (no retired slot left, or non-finite /
    /// non-positive weight).
    pub rejected_adds: u64,
    /// `Drain` events rejected (bin not active, or last active bin).
    pub rejected_drains: u64,
    /// `Remove` events rejected (bin not draining, or still occupied).
    pub rejected_removes: u64,
}

impl ApplyOutcome {
    /// True when at least one event was accepted (the topology changed).
    pub fn changed(&self) -> bool {
        !self.added.is_empty() || !self.drained.is_empty() || !self.removed.is_empty()
    }

    /// Total rejected events.
    pub fn rejected(&self) -> u64 {
        self.rejected_adds + self.rejected_drains + self.rejected_removes
    }
}

/// The membership table of a fixed-capacity engine: per-slot lifecycle
/// states, per-slot weights, and the sorted active set policies sample from.
///
/// Capacity is fixed at construction (`initial + reserve` slots); elasticity
/// is expressed entirely through state transitions, so every engine-side
/// array keyed by bin index stays valid across scale events.
#[derive(Debug, Clone)]
pub struct Membership {
    /// Per-slot lifecycle state (`len == capacity`).
    states: Vec<BinState>,
    /// Per-slot weight (`len == capacity`; retired slots hold a `1.0`
    /// placeholder that the commissioning `Add` overwrites).
    weights: Vec<f64>,
    /// Sorted slot indices currently `Active`.
    active: Vec<u32>,
}

impl Membership {
    /// A membership over `capacity` slots where slots `[0, initial)` start
    /// `Active` with the given weights and the rest start `Retired`.
    ///
    /// Panics if `initial` is zero, exceeds `capacity`, or
    /// `initial_weights.len() != initial`.
    pub fn new(initial: usize, capacity: usize, initial_weights: &[f64]) -> Self {
        assert!(initial > 0, "membership needs at least one active bin");
        assert!(initial <= capacity, "initial bins exceed capacity");
        assert_eq!(initial_weights.len(), initial, "one weight per initial bin");
        let mut states = vec![BinState::Retired; capacity];
        let mut weights = vec![1.0; capacity];
        for (slot, &w) in initial_weights.iter().enumerate() {
            assert!(w.is_finite() && w > 0.0, "bin weight must be positive");
            states[slot] = BinState::Active;
            weights[slot] = w;
        }
        Self {
            states,
            weights,
            active: (0..initial as u32).collect(),
        }
    }

    /// Total slots (active + draining + retired) — the engine's fixed
    /// capacity.
    pub fn capacity(&self) -> usize {
        self.states.len()
    }

    /// The sorted active slots (the sampling domain).
    pub fn active(&self) -> &[u32] {
        &self.active
    }

    /// The lifecycle state of `bin`.
    pub fn state(&self, bin: usize) -> BinState {
        self.states[bin]
    }

    /// All per-slot states.
    pub fn states(&self) -> &[BinState] {
        &self.states
    }

    /// Per-slot weights (`len == capacity`); only entries of non-retired
    /// slots are meaningful.
    pub fn slot_weights(&self) -> &[f64] {
        &self.weights
    }

    /// Replaces every slot weight at once (runtime reweighting across a
    /// membership-aware engine). Panics on length mismatch or a non-finite /
    /// non-positive weight.
    pub fn set_slot_weights(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.capacity(), "one weight per slot");
        for &w in weights {
            assert!(w.is_finite() && w > 0.0, "bin weight must be positive");
        }
        self.weights.clear();
        self.weights.extend_from_slice(weights);
    }

    /// Applies a plan event by event, consulting `occupied` before retiring
    /// a slot. Returns what changed and what was rejected; the membership is
    /// left in the post-plan state (accepted events apply even when later
    /// events are rejected — the plan is a script, not a transaction).
    pub fn apply(
        &mut self,
        plan: &MembershipPlan,
        mut occupied: impl FnMut(u32) -> bool,
    ) -> ApplyOutcome {
        let mut outcome = ApplyOutcome::default();
        for event in plan.events() {
            match *event {
                MembershipEvent::Add { weight } => {
                    let slot = self
                        .states
                        .iter()
                        .position(|&s| s == BinState::Retired)
                        .map(|s| s as u32);
                    match slot {
                        Some(slot) if weight.is_finite() && weight > 0.0 => {
                            self.states[slot as usize] = BinState::Active;
                            self.weights[slot as usize] = weight;
                            let at = self.active.partition_point(|&b| b < slot);
                            self.active.insert(at, slot);
                            outcome.added.push((slot, weight));
                        }
                        _ => outcome.rejected_adds += 1,
                    }
                }
                MembershipEvent::Drain { bin } => {
                    let legal = (bin as usize) < self.capacity()
                        && self.states[bin as usize] == BinState::Active
                        && self.active.len() > 1;
                    if legal {
                        self.states[bin as usize] = BinState::Draining;
                        let at = self.active.partition_point(|&b| b < bin);
                        debug_assert_eq!(self.active[at], bin);
                        self.active.remove(at);
                        outcome.drained.push(bin);
                    } else {
                        outcome.rejected_drains += 1;
                    }
                }
                MembershipEvent::Remove { bin } => {
                    let legal = (bin as usize) < self.capacity()
                        && self.states[bin as usize] == BinState::Draining
                        && !occupied(bin);
                    if legal {
                        self.states[bin as usize] = BinState::Retired;
                        self.weights[bin as usize] = 1.0;
                        outcome.removed.push(bin);
                    } else {
                        outcome.rejected_removes += 1;
                    }
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, capacity: usize) -> Membership {
        Membership::new(n, capacity, &vec![1.0; n])
    }

    #[test]
    fn initial_layout_is_active_prefix_retired_suffix() {
        let m = Membership::new(3, 5, &[1.0, 2.0, 3.0]);
        assert_eq!(m.capacity(), 5);
        assert_eq!(m.active(), &[0, 1, 2]);
        assert_eq!(m.state(2), BinState::Active);
        assert_eq!(m.state(3), BinState::Retired);
        assert_eq!(m.slot_weights(), &[1.0, 2.0, 3.0, 1.0, 1.0]);
        assert!(!m.states().contains(&BinState::Draining));
    }

    #[test]
    fn add_reuses_the_lowest_retired_slot() {
        let mut m = uniform(2, 4);
        let out = m.apply(&MembershipPlan::new().add(5.0), |_| false);
        assert_eq!(out.added, vec![(2, 5.0)]);
        assert_eq!(m.active(), &[0, 1, 2]);
        // Drain slot 0, retire it, then add again: slot 0 is reused before 3.
        let out = m.apply(&MembershipPlan::new().drain(0).remove(0), |_| false);
        assert_eq!(out.drained, vec![0]);
        assert_eq!(out.removed, vec![0]);
        assert_eq!(m.active(), &[1, 2]);
        let out = m.apply(&MembershipPlan::new().add(7.0), |_| false);
        assert_eq!(out.added, vec![(0, 7.0)]);
        assert_eq!(m.active(), &[0, 1, 2]);
        assert_eq!(m.slot_weights()[0], 7.0);
    }

    #[test]
    fn add_rejects_when_capacity_is_exhausted_or_weight_is_bad() {
        let mut m = uniform(2, 3);
        let out = m.apply(
            &MembershipPlan::new()
                .add(1.0)
                .add(1.0)
                .add(f64::NAN)
                .add(0.0),
            |_| false,
        );
        assert_eq!(out.added, vec![(2, 1.0)]);
        assert_eq!(out.rejected_adds, 3, "full capacity + NaN + zero weight");
        assert_eq!(m.active(), &[0, 1, 2]);
    }

    #[test]
    fn drain_rejects_non_active_and_last_active() {
        let mut m = uniform(2, 2);
        let out = m.apply(
            &MembershipPlan::new().drain(5).drain(0).drain(0).drain(1),
            |_| false,
        );
        // bin 5 out of range; bin 0 drains; second drain of 0 not active;
        // bin 1 is the last active bin.
        assert_eq!(out.drained, vec![0]);
        assert_eq!(out.rejected_drains, 3);
        assert_eq!(m.active(), &[1]);
        assert_eq!(m.state(0), BinState::Draining);
    }

    #[test]
    fn remove_requires_draining_and_zero_occupancy() {
        let mut m = uniform(3, 3);
        // Removing an active bin is rejected (must drain first).
        let out = m.apply(&MembershipPlan::new().remove(0), |_| false);
        assert_eq!(out.rejected_removes, 1);
        // Drained but occupied: rejected, stays draining.
        m.apply(&MembershipPlan::new().drain(0), |_| false);
        let out = m.apply(&MembershipPlan::new().remove(0), |b| b == 0);
        assert_eq!(out.rejected_removes, 1);
        assert_eq!(m.state(0), BinState::Draining);
        // Empty: retires and resets the slot weight placeholder.
        let out = m.apply(&MembershipPlan::new().remove(0), |_| false);
        assert_eq!(out.removed, vec![0]);
        assert_eq!(m.state(0), BinState::Retired);
        assert_eq!(m.slot_weights()[0], 1.0);
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let mut m = uniform(4, 6);
        let before = (m.active().to_vec(), m.states().to_vec());
        let out = m.apply(&MembershipPlan::new(), |_| true);
        assert!(!out.changed());
        assert_eq!(out.rejected(), 0);
        assert_eq!((m.active().to_vec(), m.states().to_vec()), before);
    }

    #[test]
    fn plans_are_scripts_not_transactions() {
        let mut m = uniform(2, 3);
        // add succeeds, then an illegal remove is rejected without rolling
        // the add back.
        let out = m.apply(&MembershipPlan::new().add(1.0).remove(1), |_| false);
        assert_eq!(out.added.len(), 1);
        assert_eq!(out.rejected_removes, 1);
        assert!(out.changed());
        assert_eq!(m.active(), &[0, 1, 2]);
    }

    #[test]
    fn extend_concatenates_staged_plans() {
        let mut a = MembershipPlan::new().drain(1);
        a.extend(MembershipPlan::new().add(2.0));
        assert_eq!(a.events().len(), 2);
        assert!(matches!(a.events()[1], MembershipEvent::Add { .. }));
    }

    #[test]
    fn needed_reserve_counts_adds_no_earlier_remove_frees_a_slot_for() {
        assert_eq!(MembershipPlan::new().needed_reserve(), 0);
        // The first add finds no freed slot; the second reuses bin 0's.
        let plan = MembershipPlan::new().add(1.0).drain(0).remove(0).add(1.0);
        assert_eq!(plan.needed_reserve(), 1);
        // A remove after the add cannot lend it its slot.
        let plan: MembershipPlan = [
            MembershipEvent::Add { weight: 1.0 },
            MembershipEvent::Remove { bin: 0 },
        ]
        .into_iter()
        .collect();
        assert_eq!(plan.needed_reserve(), 1);
    }

    #[test]
    fn set_slot_weights_replaces_all_slots() {
        let mut m = uniform(2, 3);
        m.set_slot_weights(&[2.0, 3.0, 4.0]);
        assert_eq!(m.slot_weights(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn state_names_are_stable() {
        assert_eq!(BinState::Active.name(), "active");
        assert_eq!(BinState::Draining.name(), "draining");
        assert_eq!(BinState::Retired.name(), "retired");
    }
}
