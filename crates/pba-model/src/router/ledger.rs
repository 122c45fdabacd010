//! [`SharedTicketLedger`]: the resident-ball table behind every router.
//!
//! **Layout.** The bins are cut into contiguous shards, one mutex each (the
//! `⌊bin·S/n⌋` partition, `S` the streaming engine's configured shard
//! count). A ball's **home** is the shard of the bin it was issued to, and it keeps
//! that home, and its slot there, for life. A shard is a **slab**: a `Vec` of
//! 16-byte entries `{ id, bin, idx }` whose vacant slots form a LIFO free
//! list threaded through the entries themselves, plus one occupancy list of
//! *slots* per bin — per bin of the whole ledger, since a migrated ball
//! stays home whatever bin it is in. `idx` is the entry's position in the
//! list of its current `bin`, so a release is a swap-remove and one
//! re-point — no search, no hashing. The `S·n` list headers cost 24 bytes
//! each whether used or not: 48 KiB at the serving shape (256 bins, 8
//! shards), 192 KiB at the largest experiment shape (1024 bins, 8 shards).
//!
//! **Handles and liveness.** A [`Ticket`] carries its ball's 32-bit
//! **handle** `slot·S + home`, so a ticket finds its entry with one lock and
//! one index whatever bin it names. It is live iff its realm is this
//! ledger's and `slab[slot]` is resident with its `id`. Ball ids are never
//! reissued, so a reused slot fails the `id` comparison: the id doubles as
//! the slot's generation and a released ticket can never match a later
//! tenant of its slot.
//!
//! **Migration.** [`SharedTicketLedger::migrate`] rewrites the entry's `bin`
//! and moves its slot from one list to another, under the home shard's lock
//! alone. Every other ledger operation also locks only home shards, one at
//! a time.
//!
//! **Wire ids.** Only this module knows the number a client holds for a
//! ticket ([`wire_id`](SharedTicketLedger::wire_id)): the handle over the
//! ball id mod 2³². It names the ball for life, and
//! [`settle`](SharedTicketLedger::settle) issues and redeems a run of
//! [`WireRequest`]s with each touched shard locked once.
//!
//! **Lock count.** Every shard-lock acquisition bumps a counter of the
//! acquiring thread ([`SharedTicketLedger::locks_taken`]): a plain
//! thread-local increment, no atomic, so tests can gate lock traffic exactly.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use super::{RouteError, Ticket, WireRequest};

thread_local! {
    /// Ledger shard locks this thread has acquired, over every ledger.
    static LOCKS_TAKEN: Cell<u64> = const { Cell::new(0) };
}

/// Source of unique ledger realm ids (0 is reserved for manually constructed
/// tickets, so a hand-made ticket can never match a ledger).
static NEXT_REALM: AtomicU64 = AtomicU64::new(1);

/// [`Entry::bin`] of a vacant slot.
const VACANT: u32 = u32::MAX;
/// End of a shard's free list.
const NO_SLOT: u32 = u32::MAX;

/// One slab slot. Resident: the ball `id` in (global) bin `bin`, at position
/// `idx` of that bin's occupancy list. Vacant: `bin == VACANT`
/// and `idx` is the next free slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u64,
    bin: u32,
    idx: u32,
}

/// The balls homed in one shard, with an occupancy list for every bin.
#[derive(Debug)]
struct Shard {
    /// Slots of this shard's resident balls per bin (unordered: a release
    /// swap-removes).
    by_bin: Vec<Vec<u32>>,
    slab: Vec<Entry>,
    /// Head of the free list: the most recently vacated slot.
    free: u32,
    /// Resident balls (slab slots in some bin's list).
    live: usize,
}

impl Shard {
    fn new(bins: usize) -> Self {
        Self {
            by_bin: vec![Vec::new(); bins],
            slab: Vec::new(),
            free: NO_SLOT,
            live: 0,
        }
    }

    /// Files ball `id` at the tail of `bin`'s list and returns its slot: the
    /// most recently vacated one, or a new one when none is free.
    fn issue(&mut self, id: u64, bin: usize) -> u32 {
        let entry = Entry { id, bin: 0, idx: 0 };
        let slot = match self.free {
            NO_SLOT => {
                self.slab.push(entry);
                self.slab.len() as u32 - 1
            }
            vacant => {
                self.free = std::mem::replace(&mut self.slab[vacant as usize], entry).idx;
                vacant
            }
        };
        self.link(slot, bin);
        self.live += 1;
        slot
    }

    /// The resident entry at `slot`, if `names` accepts its ball id.
    fn resident(&mut self, slot: u32, names: impl FnOnce(u64) -> bool) -> Option<&mut Entry> {
        let entry = self.slab.get_mut(slot as usize)?;
        (entry.bin != VACANT && names(entry.id)).then_some(entry)
    }

    /// Files `slot` at the tail of `bin`'s list.
    fn link(&mut self, slot: u32, bin: usize) {
        let list = &mut self.by_bin[bin];
        let entry = &mut self.slab[slot as usize];
        (entry.bin, entry.idx) = (bin as u32, list.len() as u32);
        list.push(slot);
    }

    /// Takes resident `slot` out of its bin's list: a swap-remove and a
    /// re-point of the former tail.
    fn unlink(&mut self, slot: u32) {
        let entry = self.slab[slot as usize];
        let list = &mut self.by_bin[entry.bin as usize];
        list.swap_remove(entry.idx as usize);
        if let Some(&tail) = list.get(entry.idx as usize) {
            self.slab[tail as usize].idx = entry.idx;
        }
    }

    /// Vacates resident `slot` onto the free list; returns the bin its ball
    /// was in.
    fn remove(&mut self, slot: u32) -> u32 {
        self.unlink(slot);
        self.live -= 1;
        let entry = &mut self.slab[slot as usize];
        entry.idx = std::mem::replace(&mut self.free, slot);
        std::mem::replace(&mut entry.bin, VACANT)
    }
}

/// The thread-safe resident-ball table behind handle-based routing: ball id
/// ↔ bin with a per-bin occupancy list, O(1) issue, redeem and migrate by
/// index, and per-bin sampling hooks for churn drivers. Bins are sharded
/// into contiguous ranges with one mutex per shard, so operations on balls
/// homed in different shards proceed in parallel; a ticket names its ball's
/// home shard, so every one-ball operation locks exactly one shard. Every
/// ledger carries a process-unique **realm** id stamped into the tickets it
/// issues, so a ticket from one router can never redeem against another
/// even when ball ids, bins and slots collide.
///
/// Each shard is a slab the ticket indexes: a ticket is live iff its realm
/// matches and its slot holds its id, so neither issue nor redeem searches
/// or hashes, and a resident ticket costs at most 40 bytes of heap. A
/// single-owner router ([`OneShotRouter`](super::OneShotRouter)) holds the
/// same type with one shard.
#[derive(Debug)]
pub struct SharedTicketLedger {
    /// This ledger's process-unique realm id (shared by every shard).
    realm: u64,
    /// Number of (global) bins.
    bins: usize,
    shards: Vec<Mutex<Shard>>,
}

impl SharedTicketLedger {
    /// An empty ledger over `n` bins in `shards` contiguous bin shards
    /// (clamped to `[1, n]`), with a fresh realm.
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        Self {
            realm: NEXT_REALM.fetch_add(1, Ordering::Relaxed),
            bins: n,
            shards: (0..shards).map(|_| Mutex::new(Shard::new(n))).collect(),
        }
    }

    /// The index of the shard owning `bin`: `⌊bin·S/n⌋`.
    fn shard_index(&self, bin: usize) -> usize {
        bin * self.shards.len() / self.bins
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        LOCKS_TAKEN.with(|taken| taken.set(taken.get() + 1));
        self.shards[shard].lock().expect("ledger shard")
    }

    /// Ledger shard locks the calling thread has acquired so far, over every
    /// ledger in the process: the exact lock traffic of whatever it ran.
    pub fn locks_taken() -> u64 {
        LOCKS_TAKEN.with(Cell::get)
    }

    fn ticket(&self, id: u64, bin: u32, handle: u32) -> Ticket {
        Ticket {
            id,
            bin,
            handle,
            realm: self.realm,
        }
    }

    /// The handle `slot·S + shard`, checked to fit 32 bits.
    fn handle(&self, shard: usize, slot: u32) -> u32 {
        let handle = slot as u64 * self.shards.len() as u64 + shard as u64;
        u32::try_from(handle).expect("a shard's slab outgrew the 32-bit handle")
    }

    /// The `(home shard, slot)` a handle names.
    fn unhandle(&self, handle: u32) -> (usize, u32) {
        let shards = self.shards.len() as u32;
        ((handle % shards) as usize, handle / shards)
    }

    /// The wire id of a ticket this ledger issued: its handle over its ball
    /// id mod 2³² — the same for every ticket of the ball, migrated or not.
    /// A stale one names its slot's tenant again once the tenant's id agrees
    /// mod 2³² — ids are sequential, never capabilities.
    pub fn wire_id(&self, ticket: &Ticket) -> u64 {
        (ticket.handle as u64) << 32 | (ticket.id as u32) as u64
    }

    /// Settles a run of requests in request order, appending one entry per
    /// request to `out`. Route `r` of the run (counting routes only) issues
    /// ball `base + r` into bin `bins[r]` and gets its ticket. A release
    /// gets the ticket — at its ball's current bin — of the resident ball
    /// its wire id names, and takes that ball out; else `None`, also for a
    /// repeat whose ball an earlier request took, and for an id whose ball a
    /// later route of the run issues.
    ///
    /// Exactly what the requests leave one at a time, in one lock pass:
    /// each touched shard is locked once, ascending, one at a time, and
    /// takes its own requests in request order. That is exact because an
    /// issue or a redeem touches only its ball's home shard, so no shard's
    /// outcome depends on another's.
    pub fn settle<R>(
        &self,
        requests: &[R],
        kind: impl Fn(&R) -> WireRequest,
        base: u64,
        bins: &[u32],
        out: &mut Vec<Option<Ticket>>,
    ) {
        const END: u64 = u64::MAX; // the end of a stub chain
        let start = out.len();
        out.resize(start + requests.len(), None); // every entry is overwritten below
        let out = &mut out[start..];
        for block in (0..self.shards.len()).step_by(64) {
            // A request of this block's shards (up to 64) waits in `out` as a
            // stub whose `realm` links the next request of its shard, in
            // request order: each shard walks only its own, and only they are
            // scanned. An issue's stub holds the ball id and bin, a redeem's
            // the wire id and the slot it names.
            let mut storage = [END; 64];
            let heads = &mut storage[..(self.shards.len() - block).min(64)];
            let mut route = bins.len();
            for (at, request) in requests.iter().enumerate().rev() {
                let (shard, mut stub) = match kind(request) {
                    WireRequest::Route(_) => {
                        route -= 1;
                        let bin = bins[route];
                        let id = base + route as u64;
                        (self.shard_index(bin as usize), self.ticket(id, bin, 0))
                    }
                    WireRequest::Release(wire) => {
                        let handle = (wire >> 32) as u32;
                        let (shard, slot) = self.unhandle(handle);
                        (shard, self.ticket(wire, slot, handle))
                    }
                };
                if let Some(head) = heads.get_mut(shard.wrapping_sub(block)) {
                    stub.realm = std::mem::replace(head, at as u64);
                    out[at] = Some(stub);
                }
            }
            for (offset, &head) in heads.iter().enumerate().filter(|&(_, &h)| h != END) {
                let home = block + offset;
                let mut shard = self.lock(home);
                let mut at = head;
                while at != END {
                    let stub = out[at as usize].expect("a chained stub");
                    out[at as usize] = match kind(&requests[at as usize]) {
                        WireRequest::Route(_) => {
                            let slot = shard.issue(stub.id, stub.bin as usize);
                            Some(self.ticket(stub.id, stub.bin, self.handle(home, slot)))
                        }
                        WireRequest::Release(_) => {
                            let named = |id: u64| id as u32 == stub.id as u32;
                            let id = shard.resident(stub.bin, named).map(|entry| entry.id);
                            id.map(|id| self.ticket(id, shard.remove(stub.bin), stub.handle))
                        }
                    };
                    at = stub.realm;
                }
            }
        }
    }

    /// Records a placement and returns its ticket. Locks only the bin's
    /// shard, the ball's home.
    pub fn issue(&self, id: u64, bin: usize) -> Ticket {
        let home = self.shard_index(bin);
        let slot = self.lock(home).issue(id, bin);
        self.ticket(id, bin as u32, self.handle(home, slot))
    }

    /// Records a group of placements — ball ids `base..base + bins.len()`,
    /// one entry of `bins` per ball — and returns their tickets in input
    /// order: a [`settle`](Self::settle) run of issues only, so every
    /// *touched* shard is locked once per group instead of once per ball,
    /// and each bin's occupancy list and each shard's slot assignment end up
    /// exactly as the one-at-a-time loop would leave them.
    pub fn issue_many(&self, base: u64, bins: &[u32]) -> Vec<Ticket> {
        let mut tickets = Vec::with_capacity(bins.len());
        self.settle(bins, |_| WireRequest::Route(0), base, bins, &mut tickets);
        let issued = tickets.into_iter();
        issued.map(|ticket| ticket.expect("an issue")).collect()
    }

    /// Moves the resident ball `ticket` names from `ticket.bin()` to bin
    /// `to`: the entry's bin is rewritten and its slot moves between two
    /// lists, under the home shard's lock alone. The ball keeps its slot, so
    /// every ticket and the wire id of the ball stay valid. Returns the
    /// ball's ticket at `to`, or `None` when `ticket` is not live, the ball
    /// is no longer in `ticket.bin()`, or `to` is out of range.
    pub fn migrate(&self, ticket: Ticket, to: usize) -> Option<Ticket> {
        if ticket.realm != self.realm || to >= self.bins {
            return None;
        }
        let (home, slot) = self.unhandle(ticket.handle);
        let mut shard = self.lock(home);
        shard
            .resident(slot, |id| id == ticket.id)
            .filter(|entry| entry.bin == ticket.bin)?;
        shard.unlink(slot);
        shard.link(slot, to);
        Some(self.ticket(ticket.id, to as u32, ticket.handle))
    }

    /// Validates and removes a ticket, returning the bin the ball resided in
    /// (which differs from `ticket.bin()` if the ball was migrated since the
    /// ticket was issued). The check and the removal are atomic under the
    /// home shard's lock, so concurrent double releases of the same ticket
    /// resolve to exactly one success.
    pub fn redeem(&self, ticket: Ticket) -> Result<usize, RouteError> {
        if ticket.realm == self.realm {
            let (home, slot) = self.unhandle(ticket.handle);
            let mut shard = self.lock(home);
            if shard.resident(slot, |id| id == ticket.id).is_some() {
                return Ok(shard.remove(slot) as usize);
            }
        }
        Err(RouteError::UnknownTicket { ticket })
    }

    /// Redeems `tickets` in order with [`redeem`](Self::redeem), returning
    /// each ball's current bin — or `None` at the first ticket that is not
    /// live (forged, foreign, already redeemed, or a repeat of an earlier
    /// ticket of the group), with the tickets before it staying redeemed.
    pub fn redeem_many(&self, tickets: &[Ticket]) -> Option<Vec<u32>> {
        let mut bins = Vec::with_capacity(tickets.len());
        for &ticket in tickets {
            bins.push(self.redeem(ticket).ok()? as u32);
        }
        Some(bins)
    }

    /// Number of resident (unreleased) tickets across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.lock(s).live).sum()
    }

    /// True when no tickets are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident tickets in `bin`, whichever shards they are homed in.
    pub fn count_in(&self, bin: usize) -> usize {
        (0..self.shards.len())
            .map(|s| self.lock(s).by_bin[bin].len())
            .sum()
    }

    /// A resident ticket of `bin`, if any — the handle churn drivers release
    /// after choosing a bin to retire from. Deterministic given the ledger's
    /// operation history: the tail of the bin's occupancy list in its own
    /// shard, else — the bin holds only immigrants — in the next shard up
    /// (wrapping) that homes one of its balls. That is **not** necessarily
    /// the most recently placed ball: releases compact the lists via
    /// swap-remove, which reorders them. Balls are exchangeable for every
    /// load-level property, so churn semantics only need *a* resident.
    pub fn resident_in(&self, bin: usize) -> Option<Ticket> {
        let own = self.shard_index(bin);
        let shards = self.shards.len();
        (own..shards).chain(0..own).find_map(|home| {
            let shard = self.lock(home);
            let &slot = shard.by_bin[bin].last()?;
            let id = shard.slab[slot as usize].id;
            Some(self.ticket(id, bin as u32, self.handle(home, slot)))
        })
    }
}

#[cfg(test)]
mod tests {
    //! Hand-stepped checks of what the slab and the one-slot migration are
    //! for: each step is made explicitly and the exact state asserted after
    //! it. The behavioural suite over the public surface is `router::tests`.
    use super::*;

    /// `len`, every `count_in` and every `resident_in` of a ledger.
    fn state(ledger: &SharedTicketLedger) -> (usize, Vec<(usize, Option<Ticket>)>) {
        let per_bin = (0..ledger.bins).map(|bin| (ledger.count_in(bin), ledger.resident_in(bin)));
        (ledger.len(), per_bin.collect())
    }

    /// Settles a run of releases by wire id into `out` (overwritten).
    fn redeem_run(ledger: &SharedTicketLedger, wires: &[u64], out: &mut Vec<Option<Ticket>>) {
        out.clear();
        ledger.settle(wires, |&wire| WireRequest::Release(wire), 0, &[], out);
    }

    /// The redeem of one wire id: a run of one.
    fn release_one(ledger: &SharedTicketLedger, wire: u64) -> Option<Ticket> {
        let mut out = Vec::new();
        redeem_run(ledger, &[wire], &mut out);
        out[0]
    }

    /// Tickets with their handles, which `==` does not compare.
    fn with_handles(tickets: &[Option<Ticket>]) -> Vec<Option<(Ticket, u32)>> {
        let pair = |ticket: &Option<Ticket>| ticket.map(|t| (t, t.handle));
        tickets.iter().map(pair).collect()
    }

    #[test]
    fn a_wire_id_follows_its_ball_through_migrations_in_one_slot() {
        // Bins 0..4 live in shard 0, bins 4..8 in shard 1.
        let ledger = SharedTicketLedger::new(8, 2);
        let ball = ledger.issue(5, 1);
        let neighbour = ledger.issue(6, 2);
        let wire = ledger.wire_id(&ball);
        assert_eq!(wire, 5, "handle 0·2 + 0 over id 5");
        assert_eq!(
            std::mem::size_of::<Ticket>(),
            24,
            "the ticket carries no wire state"
        );
        assert_eq!(ledger.wire_id(&neighbour), (2 << 32) | 6, "handle 1·2 + 0");

        // (i) Cross-shard, then within shard 1: the ball stays in slot 0 of
        // its home shard 0, which files it under bin 7 now — one list entry,
        // one wire id.
        let hop = ledger.migrate(ball, 6).expect("resident");
        let now = ledger.migrate(hop, 7).expect("resident");
        assert_eq!((now.bin(), now.handle), (7, ball.handle));
        assert_eq!((ledger.wire_id(&hop), ledger.wire_id(&now)), (wire, wire));
        let home = ledger.lock(0);
        assert_eq!((home.slab[0].id, home.slab[0].bin), (5, 7));
        assert_eq!((home.by_bin[1].len(), home.by_bin[6].len()), (0, 0));
        assert_eq!(home.by_bin[7], [0]);
        drop(home);
        assert!(
            ledger.lock(1).by_bin.iter().all(Vec::is_empty),
            "shard 1 homes nothing"
        );
        assert_eq!((ledger.count_in(7), ledger.resident_in(7)), (1, Some(now)));
        // The slot is simply occupied: the next issue to shard 0 takes slot 2.
        assert_eq!(ledger.issue(7, 0).handle, 2 * 2);
        assert_eq!(ledger.redeem(neighbour), Ok(2));
        let refill = ledger.issue(8, 3);
        assert_eq!(refill.handle, neighbour.handle);
        assert_eq!((ledger.len(), ledger.count_in(7)), (3, 1));

        // (ii) Released through the wire, the ball reports its current bin
        // and its slot is the next one shard 0 hands out.
        let released = release_one(&ledger, wire);
        assert_eq!(with_handles(&[released]), with_handles(&[Some(now)]));
        assert_eq!(release_one(&ledger, wire), None, "a double release");
        let tenant = ledger.issue(9, 1);
        assert_eq!(tenant.handle, ball.handle);
        assert_eq!(release_one(&ledger, wire), None, "the tenant's id differs");
        assert_eq!(release_one(&ledger, ledger.wire_id(&tenant)), Some(tenant));

        // (iii) Released through a fresh `resident_in` ticket instead, the
        // wire id names nothing and the slot is free all the same.
        let other = ledger.issue(10, 3);
        let other_wire = ledger.wire_id(&other);
        ledger.migrate(other, 5).expect("resident");
        let fresh = ledger.resident_in(5).expect("migrated ball resident");
        assert_eq!(ledger.wire_id(&fresh), other_wire);
        assert_eq!(ledger.redeem(fresh), Ok(5));
        assert_eq!(release_one(&ledger, other_wire), None);
        assert_eq!(ledger.issue(11, 0).handle, other.handle);
    }

    #[test]
    fn a_decode_racing_a_migration_sees_the_old_bin_or_the_new() {
        use std::sync::mpsc;
        use std::time::Duration;
        // Bin 1 lives in shard 0, bin 7 in shard 1: a cross-shard migration.
        let ledger = SharedTicketLedger::new(8, 2);
        let ball = ledger.issue(5, 1);
        let wire = ledger.wire_id(&ball);
        let (tx, rx) = mpsc::channel();
        let migrated = std::thread::scope(|scope| {
            // Step 1 — a decode holds the ball's home shard 0: it reads the
            // entry at its old bin, and a migration waits for the lock.
            let home = ledger.lock(0);
            scope.spawn(|| tx.send(ledger.migrate(ball, 7)).unwrap());
            assert!(
                rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "waiting"
            );
            assert_eq!((home.slab[0].id, home.slab[0].bin), (5, 1));
            assert_eq!(home.by_bin[1], [0]);
            // Step 2 — bin 7's shard 1 stays locked, and the migration still
            // completes: it rewrites the entry in place under the one lock.
            let target = ledger.lock(1);
            drop(home);
            let done = rx.recv_timeout(Duration::from_secs(10));
            drop(target);
            done.expect("migrate locks only the home shard")
        });
        let migrated = migrated.expect("resident");
        assert_eq!((migrated.bin(), migrated.handle), (7, ball.handle));
        // Step 3 — a decode now finds the same slot at the new bin.
        let home = ledger.lock(0);
        assert_eq!((home.slab[0].id, home.slab[0].bin), (5, 7));
        assert_eq!((home.by_bin[1].len(), &home.by_bin[7][..]), (0, &[0][..]));
        drop(home);
        let released = release_one(&ledger, wire);
        assert_eq!(with_handles(&[released]), with_handles(&[Some(migrated)]));
        assert!(ledger.is_empty());
    }

    #[test]
    fn a_stale_wire_id_names_a_reused_slot_again_after_two_to_the_thirty_two_ids() {
        let ledger = SharedTicketLedger::new(4, 1);
        let gone = ledger.issue(1, 2);
        let wire = ledger.wire_id(&gone);
        assert_eq!(ledger.redeem(gone), Ok(2));
        let tenant = ledger.issue(2, 2);
        assert_eq!(tenant.handle, gone.handle);
        assert_eq!(release_one(&ledger, wire), None);
        assert_eq!(ledger.redeem(tenant), Ok(2));
        // The documented limit: ids that agree mod 2^32 share wire ids.
        let alias = ledger.issue(1 + (1 << 32), 2);
        assert_eq!(alias.handle, gone.handle);
        assert_eq!(release_one(&ledger, wire), Some(alias));
    }

    #[test]
    fn one_migration_leaves_nothing_sticky() {
        let ledger = SharedTicketLedger::new(8, 2);
        let bins: Vec<u32> = (0..32).map(|i| i % 8).collect();
        let group = ledger.issue_many(0, &bins);
        let mut old = ledger.issue(100, 1);
        let mut fresh = ledger.migrate(old, 6).expect("resident");

        // (i) The migrated ball stays resident; redeeming a group of
        // never-migrated tickets leaves it alone.
        assert_eq!(ledger.redeem_many(&group), Some(bins.clone()));
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.resident_in(6), Some(fresh));

        // (ii) A group holding the migrated ball's stale pre-migration
        // ticket — or its fresh one — redeems it too, and reports the bin
        // the ball is in now.
        let mut expected = bins.clone();
        expected.insert(17, 6);
        for stale in [true, false] {
            let group = ledger.issue_many(200, &bins);
            let mut with_migrated = group.clone();
            with_migrated.insert(17, if stale { old } else { fresh });
            assert_eq!(ledger.redeem_many(&with_migrated), Some(expected.clone()));
            assert!(ledger.is_empty());
            old = ledger.issue(100, 1);
            fresh = ledger.migrate(old, 6).expect("resident");
        }

        // (iii) Both tickets of one ball in one group are that ball twice:
        // the first redeems it, the second stops the group, and what came
        // before stays redeemed — the loop of `redeem`.
        let group = ledger.issue_many(300, &bins);
        let mut twice = group.clone();
        twice.insert(3, old);
        twice.insert(20, fresh);
        assert_eq!(ledger.redeem_many(&twice), None);
        assert_eq!(ledger.len(), 13, "group[19..] is left");
        assert_eq!(
            ledger.redeem(fresh),
            Err(RouteError::UnknownTicket { ticket: fresh })
        );
        assert_eq!(ledger.redeem_many(&group[19..]), Some(bins[19..].to_vec()));
        assert!(ledger.is_empty());
    }

    #[test]
    fn a_reused_slot_does_not_revive_its_former_ticket() {
        let ledger = SharedTicketLedger::new(4, 1);
        let keep = ledger.issue(0, 2);
        let gone = ledger.issue(1, 2);
        assert_eq!(ledger.redeem(gone), Ok(2));
        // The free list is LIFO: the very next issue — same bin, so only the
        // id tells the tenants apart — lands in the vacated slot.
        let tenant = ledger.issue(2, 2);
        assert_eq!(tenant.handle, gone.handle);
        let before = state(&ledger);
        assert_eq!(
            ledger.redeem(gone),
            Err(RouteError::UnknownTicket { ticket: gone })
        );
        assert_eq!(ledger.redeem_many(&[gone, keep]), None);
        assert_eq!(state(&ledger), before, "stopped at its first ticket");
        // Stopped at its second ticket: the first stays redeemed.
        assert_eq!(ledger.redeem_many(&[keep, gone]), None);
        assert_eq!((ledger.len(), ledger.resident_in(2)), (1, Some(tenant)));
        assert_eq!(ledger.redeem_many(&[tenant]), Some(vec![2]));
        assert!(ledger.is_empty());
    }

    #[test]
    fn group_operations_work_past_sixty_four_shards() {
        // One bin per shard: shards 65 and 129 lie past the first of the
        // ledger pass's 64-shard blocks.
        let ledger = SharedTicketLedger::new(130, 130);
        let bins = [65u32, 3, 129, 65];
        let group = ledger.issue_many(0, &bins);
        assert_eq!((ledger.len(), ledger.count_in(65)), (4, 2));
        let hop = ledger.migrate(group[1], 67).expect("resident");
        assert_eq!(ledger.redeem_many(&group[2..]), Some(vec![129, 65]));
        assert_eq!(ledger.redeem_many(&[group[0], hop]), Some(vec![65, 67]));
        assert!(ledger.is_empty());
    }

    #[test]
    fn a_run_of_wire_ids_decodes_in_one_pass() {
        // Bins 0..4 live in shard 0, bins 4..8 in shard 1.
        let ledger = SharedTicketLedger::new(8, 2);
        let (a, b, c) = (ledger.issue(0, 1), ledger.issue(1, 5), ledger.issue(2, 2));
        let ball = ledger.issue(3, 6);
        let (gone, stale) = (ledger.issue(4, 7), ledger.issue(5, 0));
        let kept = ledger.issue(7, 4);
        assert_eq!(ledger.redeem(gone), Ok(7), "shard 1, slot 2 is vacant");
        assert_eq!(ledger.redeem(stale), Ok(0));
        let tenant = ledger.issue(6, 3);
        assert_eq!(tenant.handle, stale.handle, "the stale id's slot, reused");
        let now = ledger.migrate(ball, 2).expect("resident");

        let wire = |ticket: &Ticket| ledger.wire_id(ticket);
        let run = [
            wire(&a),
            wire(&b),
            wire(&a),      // repeated
            wire(&ball),   // the migrated ball, at its current bin
            wire(&gone),   // a vacant slot
            wire(&now),    // the migrated ball again: the same id
            wire(&stale),  // a stale id in a reused slot
            wire(&tenant), // that slot's tenant
            wire(&c),
        ];
        let mut out = vec![None; 11];
        redeem_run(&ledger, &run, &mut out);
        let expected = [
            Some(a),
            Some(b),
            None,
            Some(now),
            None,
            None,
            None,
            Some(tenant),
            Some(c),
        ];
        assert_eq!(with_handles(&out), with_handles(&expected));
        // Only the ball the run did not name is left, where it was.
        assert_eq!((ledger.len(), ledger.resident_in(4)), (1, Some(kept)));

        // `out` is overwritten, and a repeat of the run names nothing.
        redeem_run(&ledger, &run[..2], &mut out);
        assert_eq!(out, [None, None]);
        assert_eq!(ledger.redeem(kept), Ok(4));
        assert!(ledger.is_empty());
    }

    #[test]
    fn a_mixed_run_settles_in_request_order_with_one_lock_per_touched_shard() {
        // Bins 0..4 live in shard 0, bins 4..8 in shard 1, bins 8..12 in
        // shard 2, which the run never touches.
        let ledger = SharedTicketLedger::new(12, 3);
        let (a, b) = (ledger.issue(0, 1), ledger.issue(1, 5));
        // Ball 2 goes to bin 2, slot 1 of shard 0: its wire id is known
        // before it is issued.
        let two = (ledger.handle(0, 1) as u64) << 32 | 2;
        let run = [
            WireRequest::Release(two), // before its id is issued: nothing
            WireRequest::Route(20),    // ball 2 → bin 2
            WireRequest::Release(ledger.wire_id(&a)),
            WireRequest::Route(30),    // ball 3 → bin 3, in the slot `a` freed
            WireRequest::Release(two), // issued earlier in the run
            WireRequest::Release(ledger.wire_id(&a)), // a repeat
            WireRequest::Route(40),    // ball 4 → bin 6, in shard 1
        ];
        let locks = SharedTicketLedger::locks_taken();
        let mut out = vec![None];
        ledger.settle(&run, |&request| request, 2, &[2, 3, 6], &mut out);
        assert_eq!(SharedTicketLedger::locks_taken() - locks, 2, "shards 0, 1");
        let ball = |id, bin, handle| Some(ledger.ticket(id, bin, handle));
        let expected = [
            None, // `out` is appended to
            None,
            ball(2, 2, ledger.handle(0, 1)),
            Some(a),
            ball(3, 3, a.handle),
            ball(2, 2, ledger.handle(0, 1)),
            None,
            ball(4, 6, ledger.handle(1, 1)),
        ];
        assert_eq!(with_handles(&out), with_handles(&expected));
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.resident_in(3), expected[4]);
        assert_eq!(ledger.resident_in(5), Some(b));
        assert_eq!(ledger.resident_in(6), expected[7]);
    }

    #[test]
    fn a_run_of_wire_ids_decodes_past_sixty_four_shards() {
        // One bin per shard: shards 1, 65 and 129 share a chain.
        let ledger = SharedTicketLedger::new(130, 130);
        let group = ledger.issue_many(0, &[65, 1, 129, 65, 3]);
        let wire: Vec<u64> = group.iter().map(|ticket| ledger.wire_id(ticket)).collect();
        let run = [
            wire[2], wire[0], wire[1], wire[0], wire[3], wire[4], wire[2],
        ];
        let mut out = Vec::new();
        redeem_run(&ledger, &run, &mut out);
        let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(|i| Some(group[i]));
        assert_eq!(out, [c, a, b, None, d, e, None]);
        assert!(ledger.is_empty());
    }
}
