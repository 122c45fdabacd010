//! One oracle for the batched engine. The executable model of the batched
//! process (`tests/support/model.rs`), a `StreamAllocator` and a 1-caller
//! `ConcurrentRouter` take the same random operations, and after every one
//! all three must agree on what it returned (bins, ids, counts and errors),
//! the loads, the batch count, the gap trajectory's bits, the pending balls,
//! the active bins and the tickets of every slot. `serve_wire` runs of mixed
//! verbs and `crash_bin` exist on the handle only; the owner and the model
//! serve the same requests one at a time. Each shell has its own random shard
//! count and the ambient drain thread count. A case runs all six policies ×
//! uniform and tiered weights × 0 and 2 reserve slots (8–24 bins, batches of
//! 1–48), and every operation kind must fire in each of those 24 runs.

#[path = "support/policies.rs"]
mod policies;

#[path = "support/model.rs"]
mod model;

use std::collections::BTreeMap;

use proptest::prelude::*;

use model::Model;
use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::stream::{
    BinState, BinWeights, ConcurrentRouter, MembershipPlan, Placement, StreamAllocator,
    StreamConfig, Ticket, WireRequest,
};
use policies::POLICIES;

/// Operations per (policy, weights, reserve) run.
const OPS: usize = 240;

/// Every operation kind, split at spaces; each variant of a reweighting or a
/// staging is a kind of its own.
const KINDS: &str = "route route_many release release_forged push drain_ready flush \
    weights_uniform weights_tiered weights_again stage_add stage_drain stage_remove stage_empty \
    migrate_drained serve_wire crash_bin";

/// A quarter of the slots at weight 4, a quarter at 2, the rest at 1.
fn tiered(slots: usize) -> BinWeights {
    let quarter = slots / 4;
    BinWeights::power_of_two_tiers(&[(quarter, 2), (quarter, 1), (slots - 2 * quarter, 0)])
}

/// The three engines of one run.
struct Run {
    model: Model,
    owner: StreamAllocator,
    handle: ConcurrentRouter,
    /// Every ball ever routed, by id: its owner's ticket, its handle's ticket
    /// and the wire id the handle gave it.
    held: BTreeMap<u64, (Ticket, Ticket, u64)>,
    rng: SplitMix64,
    slots: usize,
}

impl Run {
    fn new(config: StreamConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let (owner, handle) = (1 + rng.gen_index(8), 1 + rng.gen_index(8));
        Self {
            model: Model::new(&config),
            owner: StreamAllocator::new(config.clone().shards(owner)),
            handle: ConcurrentRouter::new(config.clone().shards(handle)),
            held: BTreeMap::new(),
            rng,
            slots: config.bins + config.reserve_bins,
        }
    }

    /// A random resident ball, if any.
    fn resident(&mut self) -> Option<u64> {
        let at = self.rng.gen_index(self.model.tickets.len().max(1));
        self.model.tickets.keys().nth(at).copied()
    }

    /// A random routed ball, if it has left.
    fn departed(&mut self) -> Option<u64> {
        let at = self.rng.gen_index(self.held.len().max(1));
        let id = *self.held.keys().nth(at)?;
        (!self.model.tickets.contains_key(&id)).then_some(id)
    }

    /// Routes `key` on the model, checks both shells' placements against it
    /// and records the ball.
    fn routed(&mut self, key: u64, owner: Placement, handle: Ticket) -> Result<(), String> {
        let (id, bin) = self.model.route(key);
        prop_assert_eq!((owner.ticket.id(), owner.bin), (id, bin), "owner route");
        prop_assert_eq!((handle.id(), handle.bin()), (id, bin), "handle route");
        let wire = self.handle.wire_id(&handle);
        self.held.insert(id, (owner.ticket, handle, wire));
        Ok(())
    }

    /// Runs one operation of `kind`; returns whether it fired (a release
    /// needs a resident ball).
    fn step(&mut self, kind: &str) -> Result<bool, String> {
        let slot = self.rng.gen_index(self.slots);
        match kind {
            "route" => {
                let key = self.rng.next_u64();
                let handle = self.handle.route(key).expect("infallible").ticket;
                let owner = self.owner.route(key).expect("infallible");
                self.routed(key, owner, handle)?;
            }
            "route_many" => {
                let len = 1 + self.rng.gen_index(2 * self.model.config.batch_size + 3);
                let keys: Vec<u64> = (0..len).map(|_| self.rng.next_u64()).collect();
                let handle = self.handle.route_many(&keys).expect("infallible");
                let owner = self.owner.route_many(&keys).expect("infallible");
                prop_assert_eq!((handle.len(), owner.len()), (len, len));
                for ((&key, owner), handle) in keys.iter().zip(owner).zip(handle) {
                    self.routed(key, owner, handle.ticket)?;
                }
            }
            "release" => {
                let Some(id) = self.resident() else {
                    return Ok(false);
                };
                let (owner, handle, _) = self.held[&id];
                let shells = (self.owner.release(owner), self.handle.release(handle));
                prop_assert!(
                    shells.0.is_ok() && shells.1.is_ok() && self.model.release(id).is_some()
                );
            }
            "release_forged" => {
                // A ticket already redeemed, one no router issued (realm 0)
                // for a resident ball, or an id never issued at all.
                let (owner, handle, id) = match (self.rng.gen_index(3), self.departed()) {
                    (0, Some(id)) => (self.held[&id].0, self.held[&id].1, Some(id)),
                    (1, _) if !self.model.tickets.is_empty() => {
                        let id = self.resident().expect("a resident ball");
                        let forged = Ticket::new(id, self.model.tickets[&id] as u32);
                        (forged, forged, None)
                    }
                    _ => {
                        let forged = Ticket::new(u64::MAX - self.rng.gen_index(99) as u64, 0);
                        (forged, forged, Some(forged.id()))
                    }
                };
                let shells = (self.owner.release(owner), self.handle.release(handle));
                prop_assert!(shells.0.is_err() && shells.1.is_err());
                prop_assert_eq!(id.and_then(|id| self.model.release(id)), None);
            }
            "push" => {
                for _ in 0..1 + self.rng.gen_index(2 * self.model.config.batch_size) {
                    let key = self.rng.next_u64();
                    let id = self.model.push(key);
                    prop_assert_eq!((self.owner.push(key), self.handle.push(key)), (id, id));
                }
            }
            "drain_ready" => {
                let drained = self.model.drain_ready();
                let shells = (self.owner.drain_ready(), self.handle.drain_ready());
                prop_assert_eq!(shells, (drained, drained));
            }
            "flush" => {
                let boundaries = self.model.flush();
                let shells = (self.owner.flush(), self.handle.flush());
                prop_assert_eq!(shells, (boundaries, boundaries));
            }
            "weights_uniform" | "weights_tiered" | "weights_again" => {
                let weights = match kind {
                    "weights_uniform" => BinWeights::Uniform,
                    "weights_tiered" => tiered(self.slots),
                    _ => BinWeights::explicit(self.model.table.slot_weights().to_vec()),
                };
                self.model.set_weights(weights.clone());
                self.owner.set_weights(weights.clone());
                self.handle.set_weights(weights);
            }
            "stage_add" | "stage_drain" | "stage_remove" | "stage_empty" => {
                let draining = (0..self.slots)
                    .filter(|&bin| self.model.table.state(bin) == BinState::Draining)
                    .nth(self.rng.gen_index(self.slots));
                let plan = match kind {
                    "stage_add" => MembershipPlan::new().add(1.0 + self.rng.gen_index(2) as f64),
                    "stage_drain" => MembershipPlan::new().drain(slot as u32),
                    "stage_remove" => MembershipPlan::new().remove(draining.unwrap_or(slot) as u32),
                    _ => MembershipPlan::new(),
                };
                self.model.stage_membership(plan.clone());
                self.owner.stage_membership(plan.clone());
                self.handle.stage_membership(plan);
            }
            "migrate_drained" => {
                let moved = self.model.migrate_drained();
                let shells = (self.owner.migrate_drained(), self.handle.migrate_drained());
                prop_assert_eq!(shells, (moved, moved));
            }
            "serve_wire" => self.serve_wire()?,
            "crash_bin" => {
                let evicted = self.model.crash_bin(slot);
                prop_assert_eq!(self.handle.crash_bin(slot), evicted);
                let mut by_owner = 0;
                while let Some(ticket) = self.owner.ticket_in(slot) {
                    prop_assert!(self.owner.release(ticket).is_ok());
                    by_owner += 1;
                }
                prop_assert_eq!(by_owner, evicted);
            }
            _ => unreachable!("unknown operation {kind}"),
        }
        Ok(true)
    }

    /// One mixed-verb run through the handle's `serve_wire`, which the owner
    /// and the model then serve one request at a time. A release names a
    /// resident ball, a departed one (or one an earlier request of the run
    /// took), or no ball at all.
    fn serve_wire(&mut self) -> Result<(), String> {
        let mut run: Vec<(WireRequest, Option<u64>)> = Vec::new();
        for _ in 0..1 + self.rng.gen_index(2 * self.model.config.batch_size + 3) {
            let named = match self.rng.gen_index(4) {
                0 | 1 => {
                    run.push((WireRequest::Route(self.rng.next_u64()), None));
                    continue;
                }
                2 => self.resident(),
                _ => self.departed(),
            };
            let nobody = u64::MAX - self.rng.gen_index(99) as u64;
            let wire = named.map_or(nobody, |id| self.held[&id].2);
            run.push((WireRequest::Release(wire), named));
        }
        let requests: Vec<WireRequest> = run.iter().map(|&(request, _)| request).collect();
        let mut out = Vec::new();
        self.handle.serve_wire(&requests, &mut out);
        prop_assert_eq!(out.len(), run.len());
        for (&(request, named), served) in run.iter().zip(out) {
            if let WireRequest::Route(key) = request {
                let owner = self.owner.route(key).expect("infallible");
                self.routed(key, owner, served.ok_or("a route is always served")?)?;
                continue;
            }
            let left = named.and_then(|id| self.model.release(id));
            let by_owner = named.is_some_and(|id| self.owner.release(self.held[&id].0).is_ok());
            prop_assert_eq!(by_owner, left.is_some());
            let expected = left.zip(named).map(|(bin, id)| (id, bin));
            prop_assert_eq!(served.map(|ticket| (ticket.id(), ticket.bin())), expected);
        }
        Ok(())
    }

    /// What all three must agree on after every operation.
    fn agree(&self) -> Result<(), String> {
        let (model, owner, handle) = (&self.model, &self.owner, &self.handle);
        let bits = |gaps: &[f64]| gaps.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(&owner.loads(), &model.loads, "owner loads");
        prop_assert_eq!(&handle.loads(), &model.loads, "handle loads");
        let batches = (owner.batches(), handle.batches());
        prop_assert_eq!(batches, (model.batches, model.batches));
        prop_assert_eq!(bits(owner.gap_trajectory()), bits(&model.gaps));
        prop_assert_eq!(bits(&handle.gap_trajectory()), bits(&model.gaps));
        let mut tickets = vec![0; self.slots];
        model.tickets.values().for_each(|&bin| tickets[bin] += 1);
        for (bin, &count) in tickets.iter().enumerate() {
            let shells = (owner.tickets_in(bin), handle.tickets_in(bin));
            prop_assert_eq!(shells, (count, count), "tickets in bin {}", bin);
        }
        let active = model.table.active();
        prop_assert_eq!(owner.membership().active(), active);
        prop_assert_eq!(handle.membership().active().to_vec(), active);
        prop_assert_eq!(handle.stats().bins, active.len());
        let pending = (owner.pending(), handle.pending());
        prop_assert_eq!(pending, (model.pending.len(), model.pending.len()));
        prop_assert!(owner.conserves_balls() && handle.conserves_balls());
        Ok(())
    }
}

/// One (policy, weights, reserve) run of `OPS` random operations; returns how
/// often each kind fired.
fn run_case(config: StreamConfig, seed: u64) -> Result<BTreeMap<&'static str, usize>, String> {
    let kinds: Vec<&str> = KINDS.split_whitespace().collect();
    let mut run = Run::new(config, seed);
    let mut fired = BTreeMap::new();
    for step in 0..OPS {
        let kind = kinds[run.rng.gen_index(kinds.len())];
        let context = |e| format!("step {step} {kind}: {e}");
        if run.step(kind).map_err(context)? {
            *fired.entry(kind).or_insert(0) += 1;
        }
        run.agree().map_err(context)?;
    }
    Ok(fired)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn the_model_the_owner_and_the_handle_agree_after_every_op(seed in 0u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        for policy in POLICIES {
            for weighted in [false, true] {
                for reserve in [0usize, 2] {
                    let (bins, batch) = (8 + rng.gen_index(17), 1 + rng.gen_index(48));
                    let weights = if weighted { tiered(bins) } else { BinWeights::Uniform };
                    let case = format!(
                        "{} weights {} bins {bins} reserve {reserve} batch {batch}",
                        policy.name(),
                        weights.name()
                    );
                    let config = StreamConfig::new(bins)
                        .policy(policy)
                        .batch_size(batch)
                        .seed(rng.next_u64())
                        .weights(weights)
                        .reserve_bins(reserve);
                    let fired = run_case(config, rng.next_u64());
                    let fired = fired.map_err(|e| format!("{case}: {e}"))?;
                    let missing = KINDS.split_whitespace().filter(|kind| !fired.contains_key(kind));
                    let missing: Vec<&str> = missing.collect();
                    prop_assert!(missing.is_empty(), "{}: never fired: {:?}", case, missing);
                    prop_assert!(fired.values().sum::<usize>() >= 200, "{}: {:?}", case, fired);
                }
            }
        }
    }
}
