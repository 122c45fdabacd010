//! [`OneShotRouter`]: any one-shot [`Allocator`] behind the [`Router`]
//! interface.

use super::{Placement, RouteError, Router, RouterStats, SharedTicketLedger, Ticket};
use crate::outcome::Allocator;

/// Lifts any one-shot [`Allocator`] into the [`Router`] interface.
///
/// A one-shot algorithm decides the whole `(m, n, seed)` allocation at once —
/// its random choices are internal, not keyed — so the adapter runs the
/// allocation up front and deals the resulting placements out one
/// [`route`](Router::route) call at a time, round-robin across the bins so a
/// partially consumed router is still balanced. The `key` argument is ignored
/// (documented deviation: keyed consistent hashing is the streaming engine's
/// contract); after `m` routed balls further routes fail with
/// [`RouteError::Exhausted`].
///
/// After exactly `m` `route` calls, [`Router::loads`] equals the
/// [`Allocator::allocate`] loads bit for bit — the adapter invents nothing.
#[derive(Debug)]
pub struct OneShotRouter<A> {
    allocator: A,
    /// Ball i (in route order) → its bin.
    placements: Vec<u32>,
    /// Final loads of the precomputed allocation (the target of `placements`).
    target_loads: Vec<u32>,
    /// Live loads: grows as balls are routed, shrinks as tickets release.
    live: Vec<u32>,
    /// One shard: a single owner never contends for the lock.
    ledger: SharedTicketLedger,
    cursor: u64,
    released: u64,
}

impl<A: Allocator> OneShotRouter<A> {
    /// Runs `allocator` on the `(m, n, seed)` instance and wraps the outcome
    /// as a router of exactly `m` placements.
    pub fn new(allocator: A, m: u64, n: usize, seed: u64) -> Self {
        assert!(n > 0, "a router needs at least one bin");
        let outcome = allocator.allocate(m, n, seed);
        assert!(
            outcome.conserves_balls(m),
            "allocator {} lost balls",
            allocator.name()
        );
        // Deal the final loads out round-robin: cycle the bins, placing one
        // ball per still-unfilled bin, so any route-call prefix is spread
        // across the whole fleet instead of filling bin 0 first. Exhausted
        // bins leave the cycle (`retain` keeps ascending order, so the dealt
        // sequence is exactly the skip-scan's), making this O(m + n) instead
        // of O(max_load · n) — a skewed outcome no longer pays a full fleet
        // scan per load level.
        let mut remaining = outcome.loads.clone();
        let mut placements = Vec::with_capacity(outcome.allocated() as usize);
        let mut open: Vec<u32> = (0..n as u32)
            .filter(|&bin| remaining[bin as usize] > 0)
            .collect();
        while !open.is_empty() {
            open.retain(|&bin| {
                let left = &mut remaining[bin as usize];
                *left -= 1;
                placements.push(bin);
                *left > 0
            });
        }
        Self {
            allocator,
            placements,
            target_loads: outcome.loads,
            live: vec![0; n],
            ledger: SharedTicketLedger::new(n, 1),
            cursor: 0,
            released: 0,
        }
    }

    /// The wrapped allocator's display name.
    pub fn name(&self) -> String {
        self.allocator.name()
    }

    /// Total placements the router was built with.
    pub fn capacity(&self) -> u64 {
        self.placements.len() as u64
    }

    /// The final loads of the underlying one-shot allocation (what
    /// [`Router::loads`] converges to after every placement is routed).
    pub fn target_loads(&self) -> &[u32] {
        &self.target_loads
    }
}

impl<A: Allocator> Router for OneShotRouter<A> {
    fn route(&mut self, _key: u64) -> Result<Placement, RouteError> {
        let Some(&bin) = self.placements.get(self.cursor as usize) else {
            return Err(RouteError::Exhausted {
                capacity: self.capacity(),
            });
        };
        let id = self.cursor;
        self.cursor += 1;
        self.live[bin as usize] += 1;
        let ticket = self.ledger.issue(id, bin as usize);
        Ok(Placement {
            ticket,
            bin: bin as usize,
        })
    }

    fn release(&mut self, ticket: Ticket) -> Result<(), RouteError> {
        let bin = self.ledger.redeem(ticket)?;
        debug_assert!(self.live[bin] > 0);
        self.live[bin] -= 1;
        self.released += 1;
        Ok(())
    }

    fn loads(&self) -> Vec<u32> {
        self.live.clone()
    }

    fn stats(&self) -> RouterStats {
        let total: u64 = self.live.iter().map(|&l| l as u64).sum();
        let max = self.live.iter().copied().max().unwrap_or(0) as f64;
        let gap = if self.live.is_empty() {
            0.0
        } else {
            max - total as f64 / self.live.len() as f64
        };
        RouterStats {
            routed: self.cursor,
            released: self.released,
            resident: total,
            bins: self.live.len(),
            batches: 1,
            gap,
        }
    }
}
