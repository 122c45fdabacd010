//! [`SharedTicketLedger`]: the resident-ball table behind every router.
//!
//! **Layout.** The bins are cut into contiguous shards, one mutex each (the
//! same `⌊bin·S/n⌋` partition the streaming engine's `ShardedBins` uses). A
//! shard is a **slab**: a `Vec` of 16-byte entries `{ id, bin, idx }` whose
//! vacant slots form a LIFO free list threaded through the entries
//! themselves, plus one occupancy list of *slots* per bin. `idx` is the
//! entry's position in its bin's list, so a release is a swap-remove and one
//! re-point — no search, no hashing.
//!
//! **Liveness.** A [`Ticket`] carries the slot its ball was filed under. It
//! is live iff its realm is this ledger's and `slab[slot]` holds its `id`
//! and `bin`. Ball ids are never reissued, so a reused slot fails the `id`
//! comparison: the id doubles as the slot's generation and a released
//! ticket can never match a later tenant of its slot.
//!
//! **Wire ids.** Only this module knows the number a client holds for a
//! ticket ([`wire_id`](SharedTicketLedger::wire_id)): the slot's 32-bit
//! **handle** over the ball id mod 2³², decoded a run at a time, each shard
//! the run names locked once.
//!
//! **Migration.** [`SharedTicketLedger::migrate`] re-files a resident ball
//! under another bin (redeem + issue under both shard locks) and is the only
//! thing that makes a ticket *stale but still owed a release*: the ball now
//! sits in another slot, perhaps another shard. The ledger keeps one cold
//! side table for that, `moved: id → (bin, slot, origin)`, and nothing about
//! it is sticky:
//!
//! * the re-filed entry carries a flag, so only *its* redeem touches `moved`;
//! * a ticket that misses directly consults `moved` only while a count of
//!   live records is non-zero — and that count, like the record, is written
//!   while `migrate` still holds its shard locks, so a redeem that finds the
//!   old slot vacated also finds the record;
//! * [`SharedTicketLedger::redeem_many`] refuses a group only for a ticket
//!   *in that group* that does not validate directly; what happened to other
//!   balls earlier in the process does not matter.
//!
//! A wire id names the ball's *issue* slot, so its first migration leaves
//! that slot a **tombstone** (id kept, in no list, not free) whose handle the
//! record keeps as `origin`, and a decode follows the record. The redeem
//! that retires the record frees the tombstone after its own lock drops.
//!
//! **Lock order.** Shard locks ascend by shard index; `moved` may be taken
//! while shard locks are held, never the other way round.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use super::{RouteError, Ticket};

/// Source of unique ledger realm ids (0 is reserved for manually constructed
/// tickets, so a hand-made ticket can never match a ledger).
static NEXT_REALM: AtomicU64 = AtomicU64::new(1);

/// Flag in [`Entry::idx`]: `migrate` filed this ball here, and `moved` holds
/// its record.
const MIGRATED: u32 = 1 << 31;
/// Flag in [`Entry::idx`]: a `redeem_many` validation pass has matched a
/// ticket of its group to this entry, or a `tickets_of_wire` pass an id of
/// its run. Set and cleared under the shard lock within one call; a second
/// match in the same group or run is a duplicate.
const CLAIMED: u32 = 1 << 30;
/// The bits of [`Entry::idx`] that hold the occupancy-list position.
const POSITION: u32 = !(MIGRATED | CLAIMED);
/// [`Entry::bin`] of a vacant slot. Tickets are range-checked against the
/// bin count first, so no ticket's bin compares equal to it.
const VACANT: u32 = u32::MAX;
/// [`Entry::bin`] of a migrated ball's issue slot (see the module docs).
const TOMBSTONE: u32 = u32::MAX - 1;
/// End of a shard's free list.
const NO_SLOT: u32 = u32::MAX;

/// One slab slot. Resident: the ball `id` in (global) bin `bin`, at position
/// `idx & POSITION` of that bin's occupancy list. Vacant: `bin == VACANT`
/// and `idx` is the next free slot. Tombstone: `bin == TOMBSTONE`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u64,
    bin: u32,
    idx: u32,
}

/// The tickets of a contiguous bin range `[start, start + by_bin.len())`.
/// Bin arguments are **global** bin indices; the lists are indexed relative
/// to `start`, so a shard pays no memory for bins other shards own.
#[derive(Debug)]
struct Shard {
    start: usize,
    /// Slots of the resident balls per bin (unordered; swap-removed).
    by_bin: Vec<Vec<u32>>,
    slab: Vec<Entry>,
    /// Head of the free list: the most recently vacated slot.
    free: u32,
    /// Resident balls (slab slots in some bin's list).
    live: usize,
}

impl Shard {
    fn new(start: usize, len: usize) -> Self {
        Self {
            start,
            by_bin: vec![Vec::new(); len],
            slab: Vec::new(),
            free: NO_SLOT,
            live: 0,
        }
    }

    /// Files ball `id` at the tail of `bin`'s list and returns its slot: the
    /// most recently vacated one, or a new one when none is free.
    fn issue(&mut self, id: u64, bin: usize, flags: u32) -> u32 {
        let list = &mut self.by_bin[bin - self.start];
        debug_assert!(list.len() < CLAIMED as usize, "position overruns the flags");
        let entry = Entry {
            id,
            bin: bin as u32,
            idx: list.len() as u32 | flags,
        };
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
        list.push(slot);
        self.live += 1;
        slot
    }

    /// The entry `ticket` names, if it is live (see the module docs).
    fn entry_mut(&mut self, ticket: &Ticket) -> Option<&mut Entry> {
        self.slab
            .get_mut(ticket.slot as usize)
            .filter(|entry| entry.id == ticket.id && entry.bin == ticket.bin)
    }

    /// Vacates resident `slot`: unlinks it, then frees it.
    fn remove(&mut self, slot: u32) {
        self.unlink(slot);
        self.free(slot);
    }

    /// Takes resident `slot` out of its bin's list: a swap-remove and a
    /// re-point of the former tail (keeping that entry's flags).
    fn unlink(&mut self, slot: u32) {
        let entry = self.slab[slot as usize];
        let list = &mut self.by_bin[entry.bin as usize - self.start];
        let at = entry.idx & POSITION;
        list.swap_remove(at as usize);
        if let Some(&tail) = list.get(at as usize) {
            let idx = &mut self.slab[tail as usize].idx;
            *idx = (*idx & !POSITION) | at;
        }
        self.live -= 1;
    }

    /// Pushes unlinked `slot` onto the free list.
    fn free(&mut self, slot: u32) {
        let entry = &mut self.slab[slot as usize];
        (entry.bin, entry.idx) = (VACANT, self.free);
        self.free = slot;
    }
}

/// The shard locks a multi-bin operation holds, indexed by shard (`None`: a
/// shard it did not lock).
type Locked<'a> = Vec<Option<MutexGuard<'a, Shard>>>;

/// The thread-safe resident-ball table behind handle-based routing: ball id
/// ↔ bin with a per-bin occupancy list, O(1) issue and redeem by index, and
/// per-bin sampling hooks for churn drivers. Bins are sharded into
/// contiguous ranges with one mutex per shard, so issues and redeems against
/// different shards proceed in parallel; a ticket names its bin, so every
/// operation but a cross-shard [`migrate`](Self::migrate) locks exactly one
/// shard. Every ledger carries a process-unique **realm** id stamped into
/// the tickets it issues, so a ticket from one router can never redeem
/// against another even when ball ids, bins and slots collide.
///
/// Each shard is a slab the ticket indexes: a ticket is live iff its realm
/// matches and its slot holds its id and bin, so neither issue nor redeem
/// searches or hashes, and a resident ticket costs at most 40 bytes of heap.
/// A single-owner router ([`OneShotRouter`](super::OneShotRouter)) holds the
/// same type with one shard.
#[derive(Debug)]
pub struct SharedTicketLedger {
    /// This ledger's process-unique realm id (shared by every shard).
    realm: u64,
    /// Number of (global) bins.
    bins: usize,
    shards: Vec<Mutex<Shard>>,
    /// Balls re-filed by [`migrate`](Self::migrate): ball id → current
    /// `(bin, slot)` and its tombstone's handle. While the shard holding a
    /// `MIGRATED` entry is locked, that entry has exactly one record here.
    moved: Mutex<std::collections::HashMap<u64, (u32, u32, u32)>>,
    /// `moved.len()`, readable without the lock (and written under it).
    /// `migrate` increments it while it holds the shard locks, so a redeem
    /// that locks a shard later and finds its slot vacated reads the new
    /// count: the shard mutex orders the two, `Release`/`Acquire` says so.
    live_moves: AtomicUsize,
}

impl SharedTicketLedger {
    /// An empty ledger over `n` bins in `shards` contiguous bin shards
    /// (clamped to `[1, n]`), with a fresh realm.
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        Self {
            realm: NEXT_REALM.fetch_add(1, Ordering::Relaxed),
            bins: n,
            shards: (0..shards)
                .map(|s| {
                    let start = (s * n).div_ceil(shards);
                    let end = ((s + 1) * n).div_ceil(shards);
                    Mutex::new(Shard::new(start, end - start))
                })
                .collect(),
            moved: Mutex::default(),
            live_moves: AtomicUsize::new(0),
        }
    }

    /// The index of the shard owning `bin`: `⌊bin·S/n⌋`.
    fn shard_index(&self, bin: usize) -> usize {
        bin * self.shards.len() / self.bins
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        self.shards[shard].lock().expect("ledger shard")
    }

    /// Locks the shards owning `bins` in ascending shard order — the one
    /// order every multi-shard operation uses, so they cannot deadlock.
    fn lock_shards_of(&self, bins: impl Iterator<Item = usize>) -> Locked<'_> {
        // The touched set is 64 bits wide: past 64 shards indices alias and
        // a few untouched shards are locked along, which costs but is safe.
        let bit = |shard: usize| 1u64 << (shard % 64);
        let touched = bins.fold(0, |set, bin| set | bit(self.shard_index(bin)));
        let lock = |shard| (touched & bit(shard) != 0).then(|| self.lock(shard));
        (0..self.shards.len()).map(lock).collect()
    }

    /// The locked shard owning `bin`.
    fn shard_in<'g>(&self, locked: &'g mut Locked<'_>, bin: usize) -> &'g mut Shard {
        let shard = &mut locked[self.shard_index(bin)];
        shard.as_deref_mut().expect("locked by lock_shards_of")
    }

    fn ticket(&self, id: u64, bin: u32, slot: u32) -> Ticket {
        Ticket {
            id,
            bin,
            slot,
            realm: self.realm,
        }
    }

    /// `ticket`'s slot handle `slot·S + shard`, checked to fit 32 bits.
    fn handle(&self, ticket: &Ticket) -> u32 {
        let shards = self.shards.len() as u64;
        let handle = ticket.slot as u64 * shards + self.shard_index(ticket.bin()) as u64;
        u32::try_from(handle).expect("a shard's slab outgrew the 32-bit wire handle")
    }

    /// The `(shard, slot)` a handle names.
    fn unhandle(&self, handle: u32) -> (usize, u32) {
        let shards = self.shards.len() as u32;
        ((handle % shards) as usize, handle / shards)
    }

    /// The wire id of a ticket this ledger issued: its slot's handle over its
    /// ball id mod 2³². A stale one names its slot's tenant again once the
    /// tenant's id agrees mod 2³² — ids are sequential, never capabilities.
    pub fn wire_id(&self, ticket: &Ticket) -> u64 {
        (self.handle(ticket) as u64) << 32 | (ticket.id as u32) as u64
    }

    /// Decodes a run of wire ids into `out` (overwritten, in order): the
    /// ticket of the resident ball each names (through a tombstone, the
    /// migrated ball's current one), else `None` — also for a migrated ball's
    /// current slot and for every repeat of an id within the run. One lock
    /// pass: each named shard is locked once, ascending, one at a time; an
    /// id's first occurrence sets `CLAIMED`, cleared before the unlock.
    pub fn tickets_of_wire(&self, wires: &[u64], out: &mut Vec<Option<Ticket>>) {
        const END: u64 = u64::MAX; // the end of a stub chain
        out.resize(wires.len(), None); // every entry is overwritten below
        for block in (0..self.shards.len()).step_by(64) {
            // An id of this block's 64 shards waits in `out` as a stub (`id`
            // the wire id, `slot` its slot) whose `realm` links the next id
            // of its shard, in input order: each shard walks only its own.
            let mut heads = [END; 64];
            for (at, &wire) in wires.iter().enumerate().rev() {
                let (shard, slot) = self.unhandle((wire >> 32) as u32);
                if let Some(head) = heads.get_mut(shard.wrapping_sub(block)) {
                    let mut stub = self.ticket(wire, shard as u32, slot);
                    stub.realm = std::mem::replace(head, at as u64);
                    out[at] = Some(stub);
                }
            }
            for (offset, &head) in heads.iter().enumerate().filter(|&(_, &h)| h != END) {
                let mut shard = self.lock(block + offset);
                // A live id's first occurrence claims its entry; any other is
                // refused, its slot pointed past the slab.
                let mut at = head;
                while at != END {
                    let stub = out[at as usize].as_mut().expect("a chained stub");
                    let named = |e: &&mut Entry| e.bin != VACANT && e.id as u32 == stub.id as u32;
                    match shard.slab.get_mut(stub.slot as usize).filter(named) {
                        Some(e) if e.idx & (MIGRATED | CLAIMED) == 0 => e.idx |= CLAIMED,
                        _ => stub.slot = NO_SLOT,
                    }
                    at = stub.realm;
                }
                // Each claim clears, and its stub becomes the entry's ticket.
                let mut at = head;
                while at != END {
                    let stub = out[at as usize].expect("a chained stub");
                    out[at as usize] = shard.slab.get_mut(stub.slot as usize).and_then(|entry| {
                        entry.idx &= !CLAIMED;
                        let id = entry.id;
                        match entry.bin {
                            TOMBSTONE => {
                                let moved = self.moved.lock().expect("ledger moved");
                                moved.get(&id).map(|&(bin, at, _)| self.ticket(id, bin, at))
                            }
                            bin => Some(self.ticket(id, bin, stub.slot)),
                        }
                    });
                    at = stub.realm;
                }
            }
        }
    }

    /// Records a placement and returns its ticket. Locks only the bin's
    /// shard.
    pub fn issue(&self, id: u64, bin: usize) -> Ticket {
        let slot = self.lock(self.shard_index(bin)).issue(id, bin, 0);
        self.ticket(id, bin as u32, slot)
    }

    /// Records a group of placements — ball ids `base..base + bins.len()`,
    /// one entry of `bins` per ball — and returns their tickets in input
    /// order. The grouped form of [`SharedTicketLedger::issue`]: every
    /// *touched* shard is locked once per group instead of once per ball.
    /// The balls are issued in input (id) order, so each bin's occupancy
    /// list — and each shard's slot assignment — ends up exactly as the
    /// one-at-a-time loop would leave it.
    pub fn issue_many(&self, base: u64, bins: &[u32]) -> Vec<Ticket> {
        let mut tickets = Vec::with_capacity(bins.len());
        self.issue_group(base, bins, |ticket| tickets.push(ticket));
        tickets
    }

    /// [`issue_many`](Self::issue_many), handing each ticket to `each` in
    /// input order instead of collecting them.
    pub fn issue_group(&self, base: u64, bins: &[u32], mut each: impl FnMut(Ticket)) {
        let mut locked = self.lock_shards_of(bins.iter().map(|&bin| bin as usize));
        for (offset, &bin) in bins.iter().enumerate() {
            let id = base + offset as u64;
            let shard = self.shard_in(&mut locked, bin as usize);
            each(self.ticket(id, bin, shard.issue(id, bin as usize, 0)));
        }
    }

    /// Moves the resident ball `ticket` names to bin `to` without retiring
    /// any handle for it: outstanding tickets keep redeeming, and report the
    /// ball's current bin. Returns the ball's ticket at `to`, or `None` when
    /// `ticket` is not live or `to` is out of range. The migration record is
    /// published while both shards (one, when the bins share it) are still
    /// locked, so a concurrent redeem either sees the ball in its old slot or
    /// finds the completed record — never a gap.
    pub fn migrate(&self, ticket: Ticket, to: usize) -> Option<Ticket> {
        Some(self.migrate_locked(ticket, to)?.0)
    }

    /// [`migrate`](Self::migrate), handing back the shard locks still held —
    /// everything a redeem or a wire-id decode may need is written before
    /// they drop.
    fn migrate_locked(&self, ticket: Ticket, to: usize) -> Option<(Ticket, Locked<'_>)> {
        if ticket.realm != self.realm || ticket.bin() >= self.bins || to >= self.bins {
            return None;
        }
        let mut locked = self.lock_shards_of([ticket.bin(), to].into_iter());
        let source = self.shard_in(&mut locked, ticket.bin());
        let first = source.entry_mut(&ticket)?.idx & MIGRATED == 0;
        source.unlink(ticket.slot);
        match first {
            // The slot the ball's wire id names outlives its stay there.
            true => source.slab[ticket.slot as usize].bin = TOMBSTONE,
            false => source.free(ticket.slot),
        }
        let target = self.shard_in(&mut locked, to);
        let slot = target.issue(ticket.id, to, MIGRATED);
        let mut moved = self.moved.lock().expect("ledger moved");
        let origin = moved
            .get(&ticket.id)
            .map_or_else(|| self.handle(&ticket), |&(.., origin)| origin);
        if moved.insert(ticket.id, (to as u32, slot, origin)).is_none() {
            self.live_moves.fetch_add(1, Ordering::Release);
        }
        drop(moved);
        Some((self.ticket(ticket.id, to as u32, slot), locked))
    }

    /// Removes the entry `ticket` names directly — and, when `migrate` filed
    /// it, its record, under the same shard lock, and then its tombstone.
    /// Returns whether it was live. `ticket.bin` must be in range.
    fn take(&self, ticket: &Ticket) -> bool {
        let mut shard = self.lock(self.shard_index(ticket.bin()));
        let Some(entry) = shard.entry_mut(ticket) else {
            return false;
        };
        let migrated = entry.idx & MIGRATED != 0;
        shard.remove(ticket.slot);
        if migrated {
            let mut moved = self.moved.lock().expect("ledger moved");
            let (.., origin) = moved.remove(&ticket.id).expect("a migrated entry's record");
            self.live_moves.fetch_sub(1, Ordering::Release);
            drop((moved, shard));
            // Only now, so no shard lock is ever taken below a held one.
            let (origin, slot) = self.unhandle(origin);
            self.lock(origin).free(slot);
        }
        true
    }

    /// Validates and removes a ticket, returning the bin the ball resided in
    /// (which differs from `ticket.bin()` if the ball was migrated since the
    /// ticket was issued). The check and the removal are atomic under the
    /// bin shard's lock, so concurrent double releases of the same ticket
    /// resolve to exactly one success.
    pub fn redeem(&self, ticket: Ticket) -> Result<usize, RouteError> {
        if ticket.realm == self.realm && ticket.bin() < self.bins {
            // A direct miss is final unless a migration record is live: the
            // record names the ball's current slot. Read it, let go of
            // `moved`, then look there; a re-migration can slip in between,
            // so follow the record until it stops changing.
            let mut at = ticket;
            loop {
                if self.take(&at) {
                    return Ok(at.bin());
                }
                if self.live_moves.load(Ordering::Acquire) == 0 {
                    break;
                }
                let moved = self.moved.lock().expect("ledger moved");
                match moved.get(&ticket.id) {
                    Some(&(bin, slot, _)) if (bin, slot) != (at.bin, at.slot) => {
                        (at.bin, at.slot) = (bin, slot);
                    }
                    _ => break,
                }
            }
        }
        Err(RouteError::UnknownTicket { ticket })
    }

    /// Validates and removes a group of tickets **atomically**, returning
    /// each ball's bin in input order — the grouped form of
    /// [`SharedTicketLedger::redeem`]. Every *touched* shard is locked once
    /// per group instead of once per ticket. Under those locks the whole
    /// group is **validated first** — each ticket must name a live entry
    /// directly, and claims it, so an in-group duplicate finds its entry
    /// taken — and only then removed, in input order, so each bin's
    /// occupancy list ends up exactly as the loop would leave it.
    ///
    /// Returns `None` — having changed **nothing** (the claims are cleared
    /// again) — when some ticket *of this group* does not validate directly:
    /// forged, foreign, out of range, double-released, an in-group
    /// duplicate, stale because its ball was migrated, or naming a migrated
    /// ball (whose release also retires a migration record). Callers fall
    /// back to looping [`SharedTicketLedger::redeem`], which yields the
    /// loop's stop-at-first-error behaviour by construction. A group of
    /// never-migrated tickets takes the grouped path whatever else happened
    /// to the ledger before.
    pub fn redeem_many(&self, tickets: &[Ticket]) -> Option<Vec<u32>> {
        self.redeem_group(tickets)
            .then(|| tickets.iter().map(|t| t.bin).collect())
    }

    /// [`redeem_many`](Self::redeem_many) without the vector of bins — they
    /// are the tickets' own: whether the group was redeemed.
    pub fn redeem_group(&self, tickets: &[Ticket]) -> bool {
        let known = |ticket: &Ticket| ticket.realm == self.realm && ticket.bin() < self.bins;
        if !tickets.iter().all(known) {
            return false;
        }
        let mut locked = self.lock_shards_of(tickets.iter().map(Ticket::bin));
        let mut claimed = 0;
        for ticket in tickets {
            match self.shard_in(&mut locked, ticket.bin()).entry_mut(ticket) {
                Some(entry) if entry.idx & (MIGRATED | CLAIMED) == 0 => entry.idx |= CLAIMED,
                _ => break,
            }
            claimed += 1;
        }
        if claimed < tickets.len() {
            for ticket in &tickets[..claimed] {
                let entry = self.shard_in(&mut locked, ticket.bin()).entry_mut(ticket);
                entry.expect("claimed above").idx &= !CLAIMED;
            }
            return false;
        }
        for ticket in tickets {
            self.shard_in(&mut locked, ticket.bin()).remove(ticket.slot);
        }
        true
    }

    /// Number of resident (unreleased) tickets across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.lock(s).live).sum()
    }

    /// True when no tickets are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident tickets in `bin`.
    pub fn count_in(&self, bin: usize) -> usize {
        let shard = self.lock(self.shard_index(bin));
        shard.by_bin[bin - shard.start].len()
    }

    /// A resident ticket of `bin`, if any — the handle churn drivers release
    /// after choosing a bin to retire from. Deterministic given the ledger's
    /// operation history (the current tail of the bin's occupancy list), but
    /// **not** necessarily the most recently placed ball: releases compact the
    /// list via swap-remove, which reorders it. Balls are exchangeable for
    /// every load-level property, so churn semantics only need *a* resident.
    pub fn resident_in(&self, bin: usize) -> Option<Ticket> {
        let shard = self.lock(self.shard_index(bin));
        let &slot = shard.by_bin[bin - shard.start].last()?;
        Some(self.ticket(shard.slab[slot as usize].id, bin as u32, slot))
    }
}

#[cfg(test)]
mod tests {
    //! Hand-stepped checks of what the slab and the migration record are for:
    //! each step is made explicitly and the exact state asserted after it.
    //! The behavioural suite over the public surface is `router::tests`.
    use super::*;

    /// `len`, every `count_in` and every `resident_in` of a ledger.
    fn state(ledger: &SharedTicketLedger) -> (usize, Vec<(usize, Option<Ticket>)>) {
        let per_bin = (0..ledger.bins).map(|bin| (ledger.count_in(bin), ledger.resident_in(bin)));
        (ledger.len(), per_bin.collect())
    }

    /// The decode of one wire id: a run of one.
    fn decode(ledger: &SharedTicketLedger, wire: u64) -> Option<Ticket> {
        let mut out = Vec::new();
        ledger.tickets_of_wire(&[wire], &mut out);
        out[0]
    }

    /// Whether some resident or tombstoned entry still carries a claim (a
    /// vacant entry's `idx` is a free-list link, not flags).
    fn any_claimed(ledger: &SharedTicketLedger) -> bool {
        ledger.shards.iter().any(|shard| {
            let shard = shard.lock().unwrap();
            let claimed = |entry: &Entry| entry.bin != VACANT && entry.idx & CLAIMED != 0;
            shard.slab.iter().any(claimed)
        })
    }

    fn records(ledger: &SharedTicketLedger) -> usize {
        let in_table = ledger.moved.lock().unwrap().len();
        assert_eq!(ledger.live_moves.load(Ordering::SeqCst), in_table);
        in_table
    }

    #[test]
    fn migration_is_published_before_its_shard_locks_drop() {
        // Bin 1 lives in shard 0, bin 7 in shard 1: a two-lock migration.
        let ledger = SharedTicketLedger::new(8, 2);
        let old = ledger.issue(5, 1);
        assert_eq!(records(&ledger), 0);
        let (fresh, locks) = ledger.migrate_locked(old, 7).expect("resident");
        // Step 1 — `migrate` is done but still holds both shards: a redeem of
        // `old` is parked on shard 0. Everything it will read once it gets
        // in is already there.
        assert!(locks.iter().all(Option::is_some), "both shards held");
        assert_eq!(records(&ledger), 1);
        assert_eq!(ledger.moved.lock().unwrap()[&5], (7, fresh.slot, 0));
        // Step 2 — the locks drop; the parked redeem finds slot 0 of shard 0
        // vacated, the count non-zero, the record, and the ball.
        drop(locks);
        assert_eq!(ledger.redeem(old), Ok(7));
        assert_eq!(records(&ledger), 0);
        assert!(ledger.is_empty());
    }

    #[test]
    fn a_wire_id_follows_its_ball_through_migrations_and_frees_its_tombstone() {
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

        // (i) Cross-shard, then same-shard: the issue slot stays a
        // tombstone, the middle hop's slot is reused by the last hop.
        let hop = ledger.migrate(ball, 6).expect("resident");
        assert_eq!((hop.bin(), hop.slot), (6, 0));
        let now = ledger.migrate(hop, 7).expect("resident");
        assert_eq!((now.bin(), now.slot), (7, 0));
        assert_eq!(records(&ledger), 1);
        assert_eq!(ledger.moved.lock().unwrap()[&5], (7, 0, 0));
        assert_eq!(ledger.lock(0).slab[0].bin, TOMBSTONE, "handle 0");
        let decoded = decode(&ledger, wire).expect("still resident");
        assert_eq!((decoded, decoded.slot), (now, now.slot));
        let direct = ledger.wire_id(&now);
        assert_eq!(decode(&ledger, direct), None, "one wire id per ball");
        // Issues that would have reused slot 0 of shard 0 take others.
        assert_eq!(ledger.issue(7, 0).slot, 2);
        assert_eq!(ledger.redeem(neighbour), Ok(2));
        let refill = ledger.issue(8, 3);
        assert_eq!(refill.slot, neighbour.slot);
        assert_eq!((ledger.len(), ledger.count_in(7)), (3, 1));

        // (ii) Released through the wire, the record retires and the
        // tombstone is the next slot shard 0 hands out.
        assert_eq!(ledger.redeem(decoded), Ok(7));
        assert_eq!(records(&ledger), 0);
        assert_eq!(decode(&ledger, wire), None);
        let tenant = ledger.issue(9, 1);
        assert_eq!(tenant.slot, ball.slot);
        assert_eq!(decode(&ledger, wire), None, "the tenant's id differs");
        assert_eq!(decode(&ledger, ledger.wire_id(&tenant)), Some(tenant));

        // (iii) Released through a fresh `resident_in` ticket instead, the
        // wire id decodes to nothing and the tombstone is freed all the same.
        let other = ledger.issue(10, 3);
        let other_wire = ledger.wire_id(&other);
        ledger.migrate(other, 5).expect("resident");
        let fresh = ledger.resident_in(5).expect("migrated ball resident");
        assert_eq!(ledger.redeem(fresh), Ok(5));
        assert_eq!(records(&ledger), 0);
        assert_eq!(decode(&ledger, other_wire), None);
        assert_eq!(ledger.issue(11, 0).slot, other.slot);
    }

    #[test]
    fn a_decode_racing_a_migration_sees_the_entry_or_its_tombstone_never_a_gap() {
        let ledger = SharedTicketLedger::new(8, 2);
        let ball = ledger.issue(5, 1);
        let wire = ledger.wire_id(&ball);
        // Before: the live entry.
        let decoded = decode(&ledger, wire).expect("resident");
        assert_eq!((decoded, decoded.slot), (ball, ball.slot));
        let (fresh, locks) = ledger.migrate_locked(ball, 7).expect("resident");
        // During: a decode is parked on shard 0, and everything it will read
        // once it gets in — the tombstone and the record it points through —
        // is already there.
        let origin = locks[0].as_ref().expect("shard 0 held");
        assert_eq!(origin.slab[ball.slot as usize].bin, TOMBSTONE);
        assert_eq!(origin.slab[ball.slot as usize].id, 5);
        assert_eq!(ledger.moved.lock().unwrap()[&5], (7, fresh.slot, 0));
        // After: the tombstone, followed.
        drop(locks);
        let decoded = decode(&ledger, wire).expect("resident");
        assert_eq!((decoded, decoded.slot), (fresh, fresh.slot));
    }

    #[test]
    fn a_stale_wire_id_names_a_reused_slot_again_after_two_to_the_thirty_two_ids() {
        let ledger = SharedTicketLedger::new(4, 1);
        let gone = ledger.issue(1, 2);
        let wire = ledger.wire_id(&gone);
        assert_eq!(ledger.redeem(gone), Ok(2));
        let tenant = ledger.issue(2, 2);
        assert_eq!(tenant.slot, gone.slot);
        assert_eq!(decode(&ledger, wire), None);
        assert_eq!(ledger.redeem(tenant), Ok(2));
        // The documented limit: ids that agree mod 2^32 share wire ids.
        let alias = ledger.issue(1 + (1 << 32), 2);
        assert_eq!(alias.slot, gone.slot);
        assert_eq!(decode(&ledger, wire), Some(alias));
    }

    #[test]
    fn one_migration_leaves_nothing_sticky() {
        let ledger = SharedTicketLedger::new(8, 2);
        let bins: Vec<u32> = (0..32).map(|i| i % 8).collect();
        let group = ledger.issue_many(0, &bins);
        let old = ledger.issue(100, 1);
        let fresh = ledger.migrate(old, 6).expect("resident");
        assert_eq!(records(&ledger), 1);

        // (i) The migrated ball stays resident; a group of never-migrated
        // tickets still takes the grouped path and leaves it alone.
        assert_eq!(ledger.redeem_many(&group), Some(bins.clone()));
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.resident_in(6), Some(fresh));
        assert_eq!(records(&ledger), 1);

        // (ii) A group holding the stale pre-migration ticket is refused
        // whole — and so is one holding the migrated ball's own fresh ticket,
        // whose release has a record to retire.
        let group = ledger.issue_many(200, &bins);
        let before = state(&ledger);
        for migrated in [old, fresh] {
            let mut with_migrated = group.clone();
            with_migrated.insert(17, migrated);
            assert_eq!(ledger.redeem_many(&with_migrated), None);
            assert_eq!(state(&ledger), before, "a refused group commits nothing");
        }
        // …no claim survived the refusals: the same tickets still redeem as
        // a group, and the loop path finds the stale ticket's ball where it
        // lives now.
        assert_eq!(ledger.redeem_many(&group), Some(bins));
        let again = ledger.issue(300, 6);
        assert_eq!(ledger.redeem(old), Ok(6));
        assert_eq!(records(&ledger), 0);
        assert_eq!(ledger.resident_in(6), Some(again));

        // (iii) Released through a fresh `resident_in` ticket instead, the
        // migrated ball takes its record with it and the stale ticket is a
        // double release — even while another record keeps the table live.
        let (old, other) = (ledger.issue(400, 0), ledger.issue(401, 0));
        ledger.migrate(old, 7).expect("resident");
        ledger.migrate(other, 3).expect("resident");
        assert_eq!(records(&ledger), 2);
        let fresh = ledger.resident_in(7).expect("migrated ball resident");
        assert_eq!(ledger.redeem(fresh), Ok(7));
        assert_eq!(records(&ledger), 1);
        assert_eq!(
            ledger.redeem(old),
            Err(RouteError::UnknownTicket { ticket: old })
        );
        assert_eq!(ledger.redeem(other), Ok(3));
        assert_eq!(records(&ledger), 0);
        assert_eq!(ledger.redeem(again), Ok(6));
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
        assert_eq!(tenant.slot, gone.slot);
        let before = state(&ledger);
        assert_eq!(
            ledger.redeem(gone),
            Err(RouteError::UnknownTicket { ticket: gone })
        );
        assert_eq!(ledger.redeem_many(&[keep, gone]), None);
        assert_eq!(state(&ledger), before);
        assert_eq!(ledger.redeem_many(&[keep, tenant]), Some(vec![2, 2]));
        assert!(ledger.is_empty());
    }

    #[test]
    fn group_operations_work_past_sixty_four_shards() {
        // One bin per shard; shards 1, 65 and 129 share a bit of the touched
        // set, so a group in bin 65 alone locks all three.
        let ledger = SharedTicketLedger::new(130, 130);
        let bins = [65u32, 3, 129, 65];
        let group = ledger.issue_many(0, &bins);
        assert_eq!((ledger.len(), ledger.count_in(65)), (4, 2));
        let moved = ledger.migrate(group[1], 67).expect("resident");
        assert_eq!(ledger.redeem_many(&group[2..]), Some(vec![129, 65]));
        assert_eq!(ledger.redeem_many(&[group[0], moved]), None, "migrated");
        assert_eq!(ledger.redeem(group[0]), Ok(65));
        assert_eq!(ledger.redeem(group[1]), Ok(67));
        assert!(ledger.is_empty());
    }

    #[test]
    fn an_in_group_duplicate_is_refused_and_unclaims_its_group() {
        let ledger = SharedTicketLedger::new(8, 2);
        let bins = [1u32, 6, 1, 3, 6];
        let group = ledger.issue_many(0, &bins);
        let before = state(&ledger);
        let mut doubled = group.clone();
        doubled.push(group[2]);
        assert_eq!(ledger.redeem_many(&doubled), None);
        assert_eq!(state(&ledger), before);
        for shard in &ledger.shards {
            let shard = shard.lock().unwrap();
            assert!(shard.slab.iter().all(|entry| entry.idx & CLAIMED == 0));
        }
        // Deduplicated, the same tickets go through.
        assert_eq!(ledger.redeem_many(&group), Some(bins.to_vec()));
        assert!(ledger.is_empty());
    }

    #[test]
    fn a_run_of_wire_ids_decodes_in_one_pass_and_leaves_no_claim() {
        // Bins 0..4 live in shard 0, bins 4..8 in shard 1.
        let ledger = SharedTicketLedger::new(8, 2);
        let (a, b, c) = (ledger.issue(0, 1), ledger.issue(1, 5), ledger.issue(2, 2));
        let ball = ledger.issue(3, 6);
        let (gone, stale) = (ledger.issue(4, 7), ledger.issue(5, 0));
        assert_eq!(ledger.redeem(gone), Ok(7), "shard 1, slot 2 is vacant");
        assert_eq!(ledger.redeem(stale), Ok(0));
        let tenant = ledger.issue(6, 3);
        assert_eq!(tenant.slot, stale.slot, "the stale id's slot, reused");
        let now = ledger.migrate(ball, 2).expect("resident");
        assert_eq!(ledger.lock(1).slab[ball.slot as usize].bin, TOMBSTONE);
        let before = state(&ledger);

        let wire = |ticket: &Ticket| ledger.wire_id(ticket);
        let run = [
            wire(&a),
            wire(&b),
            wire(&a),      // repeated
            wire(&ball),   // the tombstone, followed
            wire(&now),    // a direct hit on the MIGRATED entry
            wire(&gone),   // a vacant slot
            wire(&ball),   // the tombstone again
            wire(&stale),  // a stale id in a reused slot
            wire(&tenant), // that slot's tenant
            wire(&c),
        ];
        let mut out = vec![None; 3];
        ledger.tickets_of_wire(&run, &mut out);
        let expected = [
            Some(a),
            Some(b),
            None,
            Some(now),
            None,
            None,
            None,
            None,
            Some(tenant),
            Some(c),
        ];
        let with_slots = |decoded: &[Option<Ticket>]| {
            let pair = |ticket: &Option<Ticket>| ticket.map(|t| (t, t.slot));
            decoded.iter().map(pair).collect::<Vec<_>>()
        };
        assert_eq!(with_slots(&out), with_slots(&expected));
        assert_eq!(state(&ledger), before, "a decode changes nothing");
        assert!(!any_claimed(&ledger));

        // `out` is overwritten, and every decoded ticket redeems.
        ledger.tickets_of_wire(&[wire(&ball)], &mut out);
        assert_eq!(with_slots(&out), with_slots(&[Some(now)]));
        assert_eq!(
            ledger.redeem_many(&[a, b, tenant, c]),
            Some(vec![1, 5, 3, 2])
        );
        assert_eq!(ledger.redeem(now), Ok(2));
        assert_eq!(records(&ledger), 0);
        assert!(ledger.is_empty());
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
        ledger.tickets_of_wire(&run, &mut out);
        let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(|i| Some(group[i]));
        assert_eq!(out, [c, a, b, None, d, e, None]);
        assert!(!any_claimed(&ledger));
    }
}
