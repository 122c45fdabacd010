//! The batched stale-snapshot process (Los & Sauerwald, *Balanced Allocations
//! in Batches*) as DESIGN.md states it: what one caller gets from either
//! streaming shell, and what every k-caller history has to order into.
//!
//! Every ball decides from the loads of the last batch boundary, which falls
//! after `batch_size` routed balls, when a flush closes a partial routed
//! batch, and at every drained batch. A threshold policy prices over the
//! active bins: a routed batch at its first route with the full `batch_size`,
//! a drained batch with its length, a migration with its volume. Staged
//! changes apply through [`Membership::apply`] only where no routed batch is
//! open, and every choice is the public [`choose_bin`]. No atomics, shards,
//! epochs, sub-groups or scratch buffers.

use std::collections::BTreeMap;

use parallel_balanced_allocations::membership::{BinState, Membership, MembershipPlan};
use parallel_balanced_allocations::model::weights::{weighted_gap, ResolvedWeights};
use parallel_balanced_allocations::stream::{
    choose_bin, BinWeights, ChoiceCtx, Policy, StreamConfig,
};

/// A batch's flat threshold and, for a weighted capacity threshold, one per
/// slot (empty otherwise).
type Prices = (u32, Vec<u32>);

/// `weights` over `slots` slots; uniform ones (any constant) are 1.0 each.
fn per_slot(weights: &BinWeights, slots: usize) -> Vec<f64> {
    let resolved = weights.resolve(slots);
    resolved.map_or_else(|| vec![1.0; slots], |resolved| resolved.weights().to_vec())
}

/// One streaming engine with one caller.
pub struct Model {
    pub config: StreamConfig,
    /// Fresh loads, one per capacity slot.
    pub loads: Vec<u32>,
    /// The loads of the last boundary: what every choice reads.
    stale: Vec<u32>,
    pub table: Membership,
    staged: (MembershipPlan, Option<BinWeights>),
    /// Balls routed since the last routed boundary, and the thresholds the
    /// first of them priced.
    open_routed: usize,
    route_prices: Option<Prices>,
    /// Pushed keys not yet drained, in arrival order.
    pub pending: Vec<u64>,
    /// Resident routed balls: ball id → bin.
    pub tickets: BTreeMap<u64, usize>,
    /// The next ball id; routes and pushes share the sequence.
    next_id: u64,
    pub batches: u64,
    pub gaps: Vec<f64>,
}

impl Model {
    pub fn new(config: &StreamConfig) -> Self {
        let slots = config.bins + config.reserve_bins;
        let weights = per_slot(&config.weights, config.bins);
        Self {
            config: config.clone(),
            loads: vec![0; slots],
            stale: vec![0; slots],
            table: Membership::new(config.bins, slots, &weights),
            staged: (MembershipPlan::new(), None),
            open_routed: 0,
            route_prices: None,
            pending: Vec::new(),
            tickets: BTreeMap::new(),
            next_id: 0,
            batches: 0,
            gaps: Vec::new(),
        }
    }

    /// Routes one ball; returns its id and bin.
    pub fn route(&mut self, key: u64) -> (u64, usize) {
        if self.open_routed == 0 {
            self.apply_staged();
            self.route_prices = Some(self.price(self.config.batch_size as u64));
        }
        let bin = self.choose(key, self.route_prices.as_ref().expect("priced"));
        self.loads[bin] += 1;
        let id = self.stamp();
        self.tickets.insert(id, bin);
        self.open_routed += 1;
        if self.open_routed == self.config.batch_size {
            self.close_routed_batch();
        }
        (id, bin)
    }

    /// Releases ball `id`; returns the bin it left, or `None` when no
    /// resident ball has that id.
    pub fn release(&mut self, id: u64) -> Option<usize> {
        let bin = self.tickets.remove(&id)?;
        self.loads[bin] -= 1;
        Some(bin)
    }

    /// Releases every ticketed ball of `bin`; returns how many.
    pub fn crash_bin(&mut self, bin: usize) -> u64 {
        let before = self.tickets.len();
        self.tickets.retain(|_, &mut at| at != bin);
        let evicted = before - self.tickets.len();
        self.loads[bin] -= evicted as u32;
        evicted as u64
    }

    /// Buffers one anonymous ball; returns its id.
    pub fn push(&mut self, key: u64) -> u64 {
        self.pending.push(key);
        self.stamp()
    }

    /// Drains every full batch; returns how many.
    pub fn drain_ready(&mut self) -> usize {
        let full = self.pending.len() / self.config.batch_size;
        (0..full).for_each(|_| self.drain(self.config.batch_size));
        full
    }

    /// Closes an open routed batch and drains everything pushed; returns how
    /// many boundaries that made.
    pub fn flush(&mut self) -> usize {
        let mut boundaries = (self.open_routed > 0) as usize;
        if boundaries > 0 {
            self.close_routed_batch();
        }
        self.apply_staged();
        while !self.pending.is_empty() {
            self.drain(self.pending.len().min(self.config.batch_size));
            boundaries += 1;
        }
        boundaries
    }

    pub fn stage_membership(&mut self, plan: MembershipPlan) {
        self.staged.0.extend(plan);
    }

    pub fn set_weights(&mut self, weights: BinWeights) {
        self.staged.1 = Some(weights);
    }

    /// Moves every ticketed ball of a draining bin through the policy, keyed
    /// by its id; returns how many moved.
    pub fn migrate_drained(&mut self) -> u64 {
        let draining = |bin: usize| self.table.state(bin) == BinState::Draining;
        let tickets = self.tickets.iter().map(|(&id, &bin)| (id, bin));
        let moving: Vec<(u64, usize)> = tickets.filter(|&(_, bin)| draining(bin)).collect();
        if moving.is_empty() {
            return 0;
        }
        let prices = self.price(moving.len() as u64);
        for &(id, from) in &moving {
            let to = self.choose(id, &prices);
            self.loads[from] -= 1;
            self.loads[to] += 1;
            self.tickets.insert(id, to);
        }
        moving.len() as u64
    }

    fn stamp(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Places the first `len` pending balls as one batch and closes it.
    fn drain(&mut self, len: usize) {
        if self.open_routed == 0 {
            self.apply_staged();
        }
        let prices = self.price(len as u64);
        for key in self.pending.drain(..len).collect::<Vec<_>>() {
            let bin = self.choose(key, &prices);
            self.loads[bin] += 1;
        }
        self.boundary();
    }

    fn close_routed_batch(&mut self) {
        self.open_routed = 0;
        self.route_prices = None;
        self.boundary();
        self.apply_staged();
    }

    /// A batch boundary: the fresh loads become the stale copy, and the gap
    /// of the active bins under their weights joins the trajectory.
    fn boundary(&mut self) {
        self.batches += 1;
        self.stale.clone_from(&self.loads);
        let active = self.active_loads();
        let gap = match self.weights().0 {
            Some(weights) => weighted_gap(&active, &weights),
            None => {
                let total: u64 = active.iter().map(|&l| l as u64).sum();
                let max = active.iter().copied().max().unwrap_or(0) as f64;
                max - total as f64 / active.len() as f64
            }
        };
        self.gaps.push(gap);
    }

    /// Applies what is staged: membership first, then weights.
    fn apply_staged(&mut self) {
        let (plan, weights) = std::mem::take(&mut self.staged);
        let (loads, tickets) = (&self.loads, &self.tickets);
        let occupied = |bin| loads[bin] > 0 || tickets.values().any(|&at| at == bin);
        self.table.apply(&plan, |bin| occupied(bin as usize));
        if let Some(weights) = weights {
            let slots = self.loads.len();
            self.table.set_slot_weights(&per_slot(&weights, slots));
        }
    }

    fn active_loads(&self) -> Vec<u32> {
        let active = self.table.active().iter();
        active.map(|&bin| self.loads[bin as usize]).collect()
    }

    /// The weights of the active bins and of every slot, both `None` while
    /// the active bins are uniform.
    fn weights(&self) -> (Option<ResolvedWeights>, Option<ResolvedWeights>) {
        let slot_weights = self.table.slot_weights();
        let active = self.table.active().iter();
        let active: Vec<f64> = active.map(|&bin| slot_weights[bin as usize]).collect();
        let active = BinWeights::explicit(active.clone()).resolve(active.len());
        let slots = active
            .as_ref()
            .map(|_| ResolvedWeights::new(slot_weights.to_vec()));
        (active, slots)
    }

    /// Prices a batch of `len` balls over the balls resident in active bins.
    fn price(&self, len: u64) -> Prices {
        let slack = match self.config.policy {
            Policy::Threshold { slack, .. } | Policy::CapacityThreshold { slack, .. } => slack,
            _ => return (0, Vec::new()),
        };
        let active = self.table.active();
        let post = self.active_loads().iter().map(|&l| l as u64).sum::<u64>() + len;
        let mut capacity = Vec::new();
        if let (Policy::CapacityThreshold { .. }, Some(weights)) =
            (self.config.policy, self.weights().0)
        {
            capacity.resize(self.loads.len(), 0);
            for (at, &bin) in active.iter().enumerate() {
                capacity[bin as usize] = (post as f64 * weights.share(at)).ceil() as u32 + slack;
            }
        }
        (post.div_ceil(active.len() as u64) as u32 + slack, capacity)
    }

    /// The bin the policy picks for `key` from the stale copy.
    fn choose(&self, key: u64, (flat, capacity): &Prices) -> usize {
        let (active_weights, weights) = self.weights();
        let active = self.table.active();
        let ctx = ChoiceCtx {
            snapshot: &self.stale,
            weights: weights.as_ref(),
            batch_threshold: *flat,
            capacity_thresholds: capacity,
            seed: self.config.seed,
            bins: self.loads.len(),
            active: (active.len() < self.loads.len()).then_some(active),
            active_weights: active_weights.as_ref(),
            counters: None,
        };
        choose_bin(self.config.policy, &ctx, key, &mut Vec::new()) as usize
    }
}
